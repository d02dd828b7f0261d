"""Exact finite-field arithmetic and point counting for y^2 = f(x).

Counting walks x over F_p, or over F_p and one of each conjugate pair
in F_{p^2}, with plain-int modular arithmetic (no element objects in
the hot loop) and a size-p Legendre table, then adds the points at
infinity of the smooth model: one for deg f = 5, and for deg f = 6 two,
none, or the conjugate pair depending on whether the leading
coefficient is a square in the ground field (in F_{p^2} it always is).
"""

from fractions import Fraction
from functools import lru_cache
from math import comb

from ._record import Frozen, Record
from .errors import BadReductionError, InconsistentCountsError

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic Miller-Rabin, exact for every n below 3.3e24."""
    n = int(n)
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _validated_odd_prime(p):
    p = int(p)
    if p == 2:
        raise BadReductionError("characteristic 2 is not supported")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p


def quadratic_character(a, p):
    """Legendre symbol via Euler's criterion: 1, -1, or 0."""
    p = _validated_odd_prime(p)
    a = int(a) % p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


@lru_cache(maxsize=None)
def smallest_nonresidue(p):
    p = _validated_odd_prime(p)
    for n in range(2, p):
        if quadratic_character(n, p) == -1:
            return n
    raise ValueError(f"no quadratic non-residue modulo {p}")


class Fp(Frozen):
    """Element of the prime field Z/pZ, p an odd prime.

    Mixed arithmetic with int and Fraction is supported; a Fraction whose
    denominator is divisible by p raises BadReductionError.
    """

    __slots__ = ("value", "p")

    def __init__(self, value, p):
        p = _validated_odd_prime(p)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "value", _to_residue(value, p))

    def _coerce(self, other):
        if isinstance(other, Fp):
            if other.p != self.p:
                raise ValueError("elements of different prime fields")
            return other.value
        if isinstance(other, (int, Fraction)):
            return _to_residue(other, self.p)
        return None

    def __add__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return Fp((self.value + v) % self.p, self.p)

    __radd__ = __add__

    def __neg__(self):
        return Fp(-self.value % self.p, self.p)

    def __sub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return Fp((self.value - v) % self.p, self.p)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return Fp(self.value * v % self.p, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        if v == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return Fp(self.value * pow(v, -1, self.p) % self.p, self.p)

    def __rtruediv__(self, other):
        return Fp(other, self.p) / self

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            if self.value == 0:
                raise ZeroDivisionError(f"inverting zero in F_{self.p}")
            return Fp(pow(pow(self.value, -1, self.p), -n, self.p), self.p)
        return Fp(pow(self.value, n, self.p), self.p)

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.p == other.p and self.value == other.value
        if isinstance(other, (int, Fraction)):
            try:
                return self.value == _to_residue(other, self.p)
            except BadReductionError:
                return False
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.value))

    def is_square(self):
        return quadratic_character(self.value, self.p) >= 0

    def __repr__(self):
        return f"Fp({self.value}, {self.p})"


def _to_residue(value, p):
    if isinstance(value, Fp):
        if value.p != p:
            raise ValueError("elements of different prime fields")
        return value.value
    if isinstance(value, bool):
        raise TypeError("bool is not a field element")
    if isinstance(value, int):
        return value % p
    if isinstance(value, Fraction):
        den = value.denominator % p
        if den == 0:
            raise BadReductionError(
                f"denominator {value.denominator} is divisible by {p}"
            )
        return value.numerator * pow(den, -1, p) % p
    raise TypeError(f"cannot reduce {type(value).__name__} modulo {p}")


class Fp2(Frozen):
    """Element a + b*z of F_{p^2}, where z^2 equals the smallest
    positive quadratic non-residue modulo p."""

    __slots__ = ("a", "b", "p", "nonresidue")

    def __init__(self, a, b, p):
        p = _validated_odd_prime(p)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "nonresidue", smallest_nonresidue(p))
        object.__setattr__(self, "a", _to_residue(a, p))
        object.__setattr__(self, "b", _to_residue(b, p))

    @classmethod
    def embed(cls, value, p):
        return cls(value, 0, p)

    def _coerce(self, other):
        if isinstance(other, Fp2):
            if other.p != self.p:
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction, Fp)):
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
        result = Fp2(1, 0, self.p)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def frobenius(self):
        return Fp2(self.a, -self.b % self.p, self.p)

    def __bool__(self):
        return bool(self.a or self.b)

    def __eq__(self, other):
        if isinstance(other, Fp2):
            return (self.p, self.a, self.b) == (other.p, other.a, other.b)
        if isinstance(other, (int, Fraction, Fp)):
            return self.b == 0 and Fp(self.a, self.p) == other
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.a, self.b))

    def __repr__(self):
        return f"Fp2({self.a}, {self.b}, {self.p})"


def _model_coefficients(source, p):
    """Normalize to (ascending int 7-tuple mod p, degree in {5, 6})."""
    p = _validated_odd_prime(p)
    if hasattr(source, "sextic_coefficients"):
        seq = list(source.sextic_coefficients())
    else:
        seq = list(source)
    if len(seq) == 6:
        seq.append(0)
    if len(seq) != 7:
        raise BadReductionError("need 6 or 7 ascending coefficients")
    out = [_to_residue(c, p) for c in seq]
    if out[6]:
        degree = 6
    elif out[5]:
        degree = 5
    else:
        raise BadReductionError(
            f"degree drops below 5 modulo {p}; the reduction is bad"
        )
    return tuple(out), degree


def count_points(source, p, *, extension=1):
    """Number of points of the smooth model of y^2 = f(x) over F_p
    (extension=1) or F_{p^2} (extension=2).

    Both counts read one size-p Legendre table chi. Over F_p the affine
    points number p + sum_x chi(f(x)). Over F_{p^2} an element z is a
    square exactly when its norm is a square in F_p, so the affine
    points number p^2 + sum_x chi(N f(x)). An x in F_p adds 1 unless
    f(x) = 0. The other x = a + b*sqrt(n) (n the smallest non-residue)
    come in conjugate pairs with equal norms of f(x), so only
    b = 1..(p-1)/2 is summed and doubled. f(a + b*sqrt(n)) is expanded
    in its Taylor series around a, whose seven coefficient rows are
    tabulated over F_p once. That takes O(p^2) steps and O(p) memory.

    The input must reduce to a squarefree model modulo p; this routine
    only enforces the genus-2 Weil bound on the result as a safety net.
    """
    coeffs, degree = _model_coefficients(source, p)
    if extension == 1:
        count = _count_ground(coeffs, degree, p)
        q = p
    elif extension == 2:
        count = _count_quadratic(coeffs, degree, p)
        q = p * p
    else:
        raise ValueError("extension must be 1 or 2")
    if (count - (q + 1)) ** 2 > 16 * q:
        raise InconsistentCountsError(
            f"{count} points over GF({q}) violates the genus-2 Weil bound; "
            "the model is not a smooth genus-2 curve"
        )
    return count


def _legendre_table(p):
    """chi[a] for a in range(p): 0, 1 or -1."""
    chi = [-1] * p
    chi[0] = 0
    for y in range(1, (p + 1) // 2):
        chi[y * y % p] = 1
    return chi


def _values(desc, p):
    """[g(a) for a in range(p)], g given by descending residues."""
    out = []
    for a in range(p):
        v = 0
        for c in desc:
            v = (v * a + c) % p
        out.append(v)
    return out


def _count_ground(coeffs, degree, p):
    chi = _legendre_table(p)
    affine = p + sum(chi[v] for v in _values(coeffs[::-1], p))
    if degree == 5:
        return affine + 1
    return affine + 1 + chi[coeffs[6]]


def _count_quadratic(coeffs, degree, p):
    chi = _legendre_table(p)
    n = smallest_nonresidue(p)
    # rows[k][a] = f_k(a), where f_k = f^(k)/k! has coefficients C(j,k) c_j
    rows = [
        _values([comb(j, k) * coeffs[j] % p for j in range(6, k - 1, -1)], p)
        for k in range(7)
    ]
    columns = list(zip(*rows))
    nonzero = sum(1 for t in rows[0] if t)
    pairs = 0
    for b in range(1, (p + 1) // 2):
        # w_k = b^k n^(k//2): f(a + b*sqrt(n)) = u + v*sqrt(n) below
        w1 = b
        w2 = b * b * n % p
        w3 = w2 * b % p
        w4 = w2 * w2 % p
        w5 = w4 * b % p
        w6 = w4 * w2 % p
        for t0, t1, t2, t3, t4, t5, t6 in columns:
            u = t0 + w2 * t2 + w4 * t4 + w6 * t6
            v = w1 * t1 + w3 * t3 + w5 * t5
            pairs += chi[(u * u - n * v * v) % p]
    affine = p * p + nonzero + 2 * pairs
    if degree == 5:
        return affine + 1
    return affine + 2


class PointCount(Record):
    """Counts of a reduction over F_p and F_{p^2}."""

    __slots__ = ("p", "n1", "n2")

    def __init__(self, p, n1, n2):
        super().__init__(int(p), int(n1), int(n2))


def point_counts(source, p):
    return PointCount(
        p,
        count_points(source, p, extension=1),
        count_points(source, p, extension=2),
    )


class WeilPolynomial(Record):
    """Degree-4 Weil data of a genus-2 reduction at p.

    l_coefficients: ascending numerator of the zeta function,
        1 - a1 t + a2 t^2 - a1 p t^3 + p^2 t^4.
    frobenius_coefficients: ascending characteristic polynomial of
        Frobenius, t^4 - a1 t^3 + a2 t^2 - a1 p t + p^2.
    """

    __slots__ = ("p", "a1", "a2")

    def __init__(self, p, a1, a2):
        super().__init__(int(p), int(a1), int(a2))

    @property
    def l_coefficients(self):
        p, a1, a2 = self.p, self.a1, self.a2
        return (1, -a1, a2, -a1 * p, p * p)

    @property
    def frobenius_coefficients(self):
        p, a1, a2 = self.p, self.a1, self.a2
        return (p * p, -a1 * p, a2, -a1, 1)


def weil_polynomial(counts):
    """Weil data from the two point counts of a genus-2 reduction.

    Counts whose real Weil polynomial t^2 - a1*t + (a2 - 2p) lacks two
    real roots in [-2*sqrt(p), 2*sqrt(p)] raise InconsistentCountsError.
    """
    p, n1, n2 = counts.p, counts.n1, counts.n2
    a1 = p + 1 - n1
    if (n2 + n1 * n1) % 2:
        raise InconsistentCountsError(
            f"N2 + N1^2 = {n2 + n1 * n1} is odd; counts are inconsistent"
        )
    a2 = (n2 + n1 * n1) // 2 - (p + 1) * n1 + p
    edge = 2 * p + a2
    inside = 4 * (a2 - 2 * p) <= a1 * a1 <= 16 * p and edge >= 0
    if not (inside and edge * edge >= 4 * p * a1 * a1):
        raise InconsistentCountsError(
            f"(a1, a2) = ({a1}, {a2}) breaks the Weil bounds at p={p}; "
            "no genus-2 curve has these counts"
        )
    return WeilPolynomial(p, a1, a2)


def _poly_string(coeffs_ascending, var="t"):
    parts = []
    for e in range(len(coeffs_ascending) - 1, -1, -1):
        c = coeffs_ascending[e]
        if c == 0:
            continue
        mag = abs(c)
        if e == 0:
            body = f"{mag}"
        else:
            stem = var if e == 1 else f"{var}^{e}"
            body = stem if mag == 1 else f"{mag}*{stem}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


def zeta_rational_form(weil):
    """The zeta function of the reduction as numerator / (1-t)(1-pt)."""
    num = weil.l_coefficients
    return {
        "p": weil.p,
        "numerator": list(num),
        "denominator_factors": [[1, -1], [1, -weil.p]],
        "display": (
            f"({_poly_string(num)}) / ((1 - t)*(1 - {weil.p}*t))"
        ),
    }
