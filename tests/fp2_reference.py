"""F_{p^2} elements for the tests: the reference arithmetic that the
production counts, which work on plain int residues, are checked
against. The package itself has no element type for F_{p^2}.

Validation is the package's: the prime goes through its prime gate and
each component through its residue map, and powers go through its
square-and-multiply `_power`.
"""

from fractions import Fraction

from spectral_torelli._record import Frozen
from spectral_torelli.exact_algebra import _power, _residue
from spectral_torelli.finite_arithmetic import (
    _validated_odd_prime,
    smallest_nonresidue,
)


class Fp2(Frozen):
    """Element a + b*z of F_{p^2}, where z^2 equals the smallest
    positive quadratic non-residue modulo p."""

    __slots__ = ("a", "b", "p", "nonresidue")

    def __init__(self, a, b, p):
        p = _validated_odd_prime(p)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "nonresidue", smallest_nonresidue(p))
        object.__setattr__(self, "a", _residue(a, p))
        object.__setattr__(self, "b", _residue(b, p))

    @classmethod
    def embed(cls, value, p):
        return cls(value, 0, p)

    def _coerce(self, other):
        if isinstance(other, Fp2):
            if other.p != self.p:
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return Fp2(other, 0, self.p)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Fp2((self.a + o.a) % self.p, (self.b + o.b) % self.p, self.p)

    __radd__ = __add__

    def __neg__(self):
        return Fp2(-self.a % self.p, -self.b % self.p, self.p)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n, p = self.nonresidue, self.p
        return Fp2(
            (self.a * o.a + n * self.b * o.b) % p,
            (self.a * o.b + self.b * o.a) % p,
            p,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n, p = o.nonresidue, o.p
        norm = (o.a * o.a - n * o.b * o.b) % p
        if norm == 0:
            raise ZeroDivisionError(f"division by zero in F_{p}^2")
        inv = pow(norm, -1, p)
        conj = Fp2(o.a, -o.b % p, p)
        scaled = self * conj
        return Fp2(scaled.a * inv % p, scaled.b * inv % p, p)

    def __rtruediv__(self, other):
        return Fp2(other, 0, self.p) / self

    def __pow__(self, k):
        k = int(k)
        if k < 0:
            return (Fp2(1, 0, self.p) / self) ** (-k)
        return _power(self, k) if k else Fp2(1, 0, self.p)

    def frobenius(self):
        return Fp2(self.a, -self.b % self.p, self.p)

    def __bool__(self):
        return bool(self.a or self.b)

    def __eq__(self, other):
        if isinstance(other, Fp2):
            return (self.p, self.a, self.b) == (other.p, other.a, other.b)
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == _residue(other, self.p)
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.a, self.b))

    def __repr__(self):
        return f"Fp2({self.a}, {self.b}, {self.p})"

