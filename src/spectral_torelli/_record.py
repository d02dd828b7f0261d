"""Immutable value types.

`Frozen` refuses attribute assignment and deletion; its subclasses set
their slots in their constructors with `object.__setattr__`. `Record`
adds a constructor, field-wise equality and hashing, and a repr, all
driven by the subclass's `__slots__`, which name its fields in order.
"""


class Frozen:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


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
