"""Immutable value types.

`Frozen` refuses attribute assignment and deletion; its subclasses set
their slots in their constructors with `object.__setattr__`, or all of
them in `__slots__` order with `_set`. `Record` adds a constructor,
field-wise equality and hashing, and a repr, all driven by the
subclass's `__slots__`, which name its fields in order. `ReadOnlyDict`
is a dict that refuses every write.
"""


class Frozen:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _set(self, *fields):
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)
        return self


class Record(Frozen):
    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in values:
                raise TypeError(
                    f"{type(self).__name__}: unknown or repeated {name!r}"
                )
            values[name] = value
        if len(args) > len(names) or len(values) < len(names):
            raise TypeError(f"{type(self).__name__} takes fields {names}")
        for name in names:
            object.__setattr__(self, name, values[name])

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        body = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({body})"


class ReadOnlyDict(dict):
    """A dict whose contents are fixed at construction: every method that
    would change it raises TypeError. It still compares, copies and
    serializes to JSON as a dict."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} does not support writes")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        # copy and pickle would otherwise refill a new instance by writes
        return type(self), (dict(self),)
