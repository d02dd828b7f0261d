"""Exact finite-field arithmetic and point counting for y^2 = f(x).

The F_p count walks x over F_p with plain-int modular arithmetic (no
element objects in the hot loop) and a size-p Legendre table, then adds
the points at infinity of the smooth model: one for deg f = 5, and for
deg f = 6 two, none, or the conjugate pair depending on whether the
leading coefficient is a square in the ground field (in F_{p^2} it
always is).

The F_{p^2} count is read off the Frobenius polynomial where O(p) steps
determine it exactly: a1 from the F_p count, a2 mod p from the
Hasse-Witt matrix, and a2 itself from a Jacobian order test in Mumford
coordinates. Elsewhere it walks F_p and one of each conjugate pair in
F_{p^2} in O(p^2) steps; count_points says when.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb

from ._record import Frozen, Record
from .errors import BadReductionError, InconsistentCountsError
from .exact_algebra import MultiPoly, _power

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


def _to_residue(value, p):
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
            return self.b == 0 and self.a == _to_residue(other, self.p)
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.a, self.b))

    def __repr__(self):
        return f"Fp2({self.a}, {self.b}, {self.p})"


def _model_coefficients(source, p):
    """Normalize to (ascending int 7-tuple mod p, degree in {5, 6})."""
    p = _validated_odd_prime(p)
    if hasattr(source, "sextic_coefficients"):
        if getattr(source, "characteristic", 0) not in (0, p):
            raise ValueError("elements of different prime fields")
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

    Over F_p the affine points number p + sum_x chi(f(x)), chi the
    Legendre symbol read from a size-p table.

    Over F_{p^2} the count is N2 = p^2 + 1 - a1^2 + 2*a2, where
    t^4 - a1 t^3 + a2 t^2 - a1 p t + p^2 is the characteristic
    polynomial of Frobenius on the Jacobian J. From p = 41 on, for a
    model that is squarefree mod p, it is found in O(p) steps, exactly:
    - a1 = p + 1 - N1 from the F_p count.
    - A change of x gives an isomorphic sextic model with f(0) != 0
      whose leading coefficient is not a square mod p.
    - a2 = det W mod p for the Hasse-Witt matrix W = (c_{ip-j}) of
      f^((p-1)/2) (Manin 1961, Yui 1978). tr W = a1 mod p is checked; a
      mismatch raises InconsistentCountsError and gives no count.
    - The Weil bounds leave at most five a2 in that class. #J(F_p) =
      P(1) annihilates every class of J(F_p), so a candidate that alone
      annihilates the class of D = P1 + P2 - D_inf (D_inf the divisor at
      infinity) is the true a2 (Kedlaya-Sutherland, ANTS VIII). With
      both points at infinity conjugate, Mumford pairs (u, v) with
      deg u = 2 stand for the nonzero classes and Cantor's reduction
      needs no rational Weierstrass point.
    The direct count below runs instead under p = 41, where it is
    faster; for a model that is not squarefree mod p, which is no
    genus-2 curve (the safety net below then judges the direct count);
    when f takes no non-square value on F_p; and when three divisors
    leave several candidates (groups of small exponent at small p).

    The direct count: an element z of F_{p^2} is a square exactly when
    its norm is a square in F_p, so the affine points number
    p^2 + sum_x chi(N f(x)). An x in F_p adds 1 unless f(x) = 0. The
    other x = a + b*sqrt(n) (n the smallest non-residue) come in
    conjugate pairs with equal norms of f(x), so only b = 1..(p-1)/2 is
    summed and doubled. f(a + b*sqrt(n)) is expanded in its Taylor
    series around a, whose seven coefficient rows are tabulated over F_p
    once. That takes O(p^2) steps and O(p) memory.

    The input must reduce to a squarefree model modulo p; this routine
    only enforces the genus-2 Weil bound on the result as a safety net.
    """
    coeffs, degree = _model_coefficients(source, p)
    if extension == 1:
        count = _count_ground(coeffs, degree, _values(coeffs[::-1], p), _legendre_table(p))
        q = p
    elif extension == 2:
        count = None
        if p >= _FROBENIUS_MIN_PRIME:
            count = _count_quadratic_frobenius(coeffs, degree, p)
        if count is None:
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
    """[g(a) for a in range(p)], g given by at most seven descending
    residues."""
    c6, c5, c4, c3, c2, c1, c0 = (0,) * (7 - len(desc)) + tuple(desc)
    return [
        ((((((c6 * a + c5) * a + c4) * a + c3) * a + c2) * a + c1) * a + c0) % p
        for a in range(p)
    ]


def _count_ground(coeffs, degree, values, chi):
    affine = len(values) + sum(chi[v] for v in values)
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


# Below this prime the direct F_{p^2} count beats the Frobenius path on
# catalog reductions, fallbacks included (in-process timings in CHANGES.md).
_FROBENIUS_MIN_PRIME = 41
# Divisors the order test tries before the direct count takes over.
_ORDER_TEST_DIVISORS = 3


def _count_quadratic_frobenius(coeffs, degree, p):
    """N2 = p^2 + 1 - a1^2 + 2*a2 from Frobenius data in O(p) steps, or
    None where only the direct count can decide.

    a1 comes exactly from the F_p count. a2 mod p is det W for the
    Hasse-Witt matrix W, and tr W = a1 mod p is checked. Of the a2 in
    that class inside the Weil bounds, the one whose #J(F_p) = P(1)
    alone annihilates a divisor class of J(F_p) is the true one.
    """
    if not _is_squarefree(coeffs, p):
        return None
    values = _values(coeffs[::-1], p)
    chi = _legendre_table(p)
    a1 = p + 1 - _count_ground(coeffs, degree, values, chi)
    model = _unusual_model(coeffs, degree, values, chi, p)
    if model is None:
        return None
    (h11, h12), (h21, h22) = _hasse_witt(model, p)
    if (h11 + h22 - a1) % p:
        raise InconsistentCountsError(
            f"Hasse-Witt trace {(h11 + h22) % p} differs from a1 = {a1} "
            f"mod {p}; the Frobenius data contradict each other"
        )
    det = h11 * h22 - h12 * h21
    candidates = [
        a2
        for a2 in range(det % p - 2 * p, 6 * p + 1, p)
        if _within_weil_bounds(p, a1, a2)
    ]
    if len(candidates) > 1:
        candidates = _order_test(model, p, a1, candidates)
        if candidates is None:
            return None
    if len(candidates) != 1:
        raise InconsistentCountsError(
            f"no a2 inside the Weil bounds at p={p} fits a1 = {a1}, det W "
            "and the Jacobian order; the Frobenius data contradict each other"
        )
    return p * p + 1 - a1 * a1 + 2 * candidates[0]


def _unusual_model(coeffs, degree, values, chi, p):
    """An F_p-isomorphic sextic model with f(0) != 0 and a leading
    coefficient that is not a square, or None if F_p lacks the two
    points this takes.

    x -> (t2*x + t)/(x + 1) sends 0 to t and infinity to t2, so the new
    model has f(t) as constant and f(t2) as leading coefficient. Its two
    points at infinity are conjugate, so each nonzero class of J(F_p) is
    D - D_inf for one effective D of degree 2 away from infinity, with
    D_inf the divisor at infinity: no rational Weierstrass point needed.
    """
    if degree == 6 and coeffs[0] and chi[coeffs[6]] < 0:
        return coeffs
    t2 = next((x for x, v in enumerate(values) if chi[v] < 0), None)
    t = next((x for x, v in enumerate(values) if v and x != t2), None)
    if t2 is None or t is None:
        return None
    return _mobius(coeffs, t, t2, p)


def _order_test(f, p, a1, candidates):
    """The candidates a2 whose order P(1) = p^2 + 1 - a1*(p + 1) + a2
    annihilates each of a few divisor classes on the model f, once only
    one is left; None if the classes leave several.

    The candidates are consecutive in one class mod p, so their orders
    step by p: with Q = [P(1) of the first]D and R = [p]D, candidate j
    annihilates D exactly when Q + j*R is zero.
    """
    first = p * p + 1 - a1 * (p + 1) + candidates[0]
    points = _points(f, p)
    alive = range(len(candidates))
    for _ in range(_ORDER_TEST_DIVISORS):
        pair = [next(points, None), next(points, None)]
        if None in pair:
            return None
        (x1, y1), (x2, y2) = pair
        # P1 + P2 - D_inf: u = (x - x1)(x - x2), v the line through both
        slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
        divisor = ((x1 * x2 % p, -(x1 + x2) % p, 1), ((y1 - slope * x1) % p, slope))
        step = _jac_mul(divisor, p, f, p)
        current = _jac_mul(divisor, first, f, p)
        killed = []
        for j in range(max(alive) + 1):
            if j:
                current = _jac_add(current, step, f, p)
            if j in alive and len(current[0]) == 1:
                killed.append(j)
        alive = killed
        if len(alive) <= 1:
            return [candidates[j] for j in alive]
    return None


def _within_weil_bounds(p, a1, a2):
    """The real Weil polynomial t^2 - a1*t + (a2 - 2p) has two real
    roots in [-2*sqrt(p), 2*sqrt(p)]."""
    edge = 2 * p + a2
    return (
        4 * (a2 - 2 * p) <= a1 * a1 <= 16 * p
        and edge >= 0
        and edge * edge >= 4 * p * a1 * a1
    )


def _hasse_witt(model, p):
    """W = (c_{ip-j}) for i, j in {1, 2}, c_k the coefficients of
    g = f^((p-1)/2) (Yui, J. Algebra 1978), for a sextic f with f(0) != 0.

    c_{p-1} and c_{p-2} come from the first p coefficients of g, and
    c_{2p-1}, c_{2p-2} from those of the reversal of g (deg g = 3p - 3),
    which is the same power of the reversed f.
    """
    inverses = [0, 1]
    for m in range(2, p):
        inverses.append((p - p // m) * inverses[p % m] % p)
    c_p2, c_p1 = _power_head(model, p, inverses)
    c_2p1, c_2p2 = _power_head(model[::-1], p, inverses)
    return ((c_p1, c_p2), (c_2p1, c_2p2))


def _power_head(f, p, inverses):
    """Coefficients p-2 and p-1 of g = f^k, k = (p-1)/2, for ascending
    residues f of degree at most 6 with f(0) != 0.

    f*g' = k*f'*g gives m*f0*g_m = sum_i (i*(k+1) - m)*f_i*g_(m-i), so
    each coefficient costs a dozen products until m reaches p. It runs
    on h = (f/f0)^k and returns f0^k * h, where f0^k is +-1.
    """
    k = (p - 1) // 2
    inv0 = pow(f[0], -1, p)
    e1, e2, e3, e4, e5, e6 = (c * inv0 % p for c in f[1:7])
    half = k + 1
    a1, a2, a3, a4, a5, a6 = (
        i * half * e % p for i, e in enumerate((e1, e2, e3, e4, e5, e6), 1)
    )
    # h1..h6 hold h_(m-1)..h_(m-6); h_0 = 1
    h1, h2, h3, h4, h5, h6 = 1, 0, 0, 0, 0, 0
    for m in range(1, p):
        h = (
            a1 * h1 + a2 * h2 + a3 * h3 + a4 * h4 + a5 * h5 + a6 * h6
            - m * (e1 * h1 + e2 * h2 + e3 * h3 + e4 * h4 + e5 * h5 + e6 * h6)
        ) * inverses[m] % p
        h1, h2, h3, h4, h5, h6 = h, h1, h2, h3, h4, h5
    sign = pow(f[0], k, p)
    return h2 * sign % p, h1 * sign % p


def _mobius(coeffs, t, t2, p):
    """Ascending residues of (x + 1)^6 f((t2*x + t)/(x + 1))."""
    # Horner on the top: out <- out*(t2*x + t) + f_i*(x + 1)^(6-i)
    out, power = [coeffs[6]], [1]
    for fi in coeffs[5::-1]:
        out = [t * s + t2 * r for s, r in zip(out + [0], [0] + out)]
        power = [s + r for s, r in zip(power + [0], [0] + power)]
        out = [(s + fi * r) % p for s, r in zip(out, power)]
    return tuple(out)


def _is_squarefree(coeffs, p):
    """gcd(f, f') = 1 over F_p (f' = 0 means f is a p-th power)."""
    a = _trim(coeffs)
    b = _trim([i * c % p for i, c in enumerate(a)][1:])
    if not b:
        return False
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    return len(a) == 1


def _points(f, p):
    """(x, y) on y^2 = f(x) with y != 0, by x."""
    f0, f1, f2, f3, f4, f5, f6 = f
    roots = {y * y % p: y for y in range(1, (p + 1) // 2)}
    for x in range(p):
        y = roots.get(
            ((((((f6 * x + f5) * x + f4) * x + f3) * x + f2) * x + f1) * x + f0) % p
        )
        if y:
            yield x, y


# Jacobian arithmetic of y^2 = f(x) over F_p, f = (f0, ..., f6) a sextic
# whose leading coefficient is not a square. A nonzero class D - D_inf is
# kept as the Mumford pair (u, v) of D: u monic of degree 2 and v reduced
# mod u, as ascending tuples, v padded to two entries; zero is ((1,), ()).
# f - v^2 keeps degree 6 for every v of degree <= 3, so Cantor's
# reduction (f - v^2)/u takes a composed u of degree 4 straight to
# degree 2. Sums and doubles whose two u are coprime (Res(u, 2v) != 0
# for a double) take that composition and reduction in closed form, as
# Lange (AAECC 2005) does for quintics; the rest run Cantor's algorithm
# (Math. Comp. 1987).


def _jac_mul(divisor, n, f, p):
    """[n]divisor for n >= 1, by doubling and adding."""
    result = divisor
    for bit in bin(n)[3:]:
        result = _jac_double(result, f, p)
        if bit == "1":
            result = _jac_add(result, divisor, f, p)
    return result


def _jac_add(d1, d2, f, p):
    (u1, v1), (u2, v2) = d1, d2
    if len(u1) == 1:
        return d2
    if len(u2) == 1:
        return d1
    u10, u11, _ = u1
    u20, u21, _ = u2
    # s = (v2 - v1)/u1 mod u2, kept as r*s with r = Res(u1, u2)
    z1 = u11 - u21
    z0 = u10 - u20
    i0 = z0 - z1 * u21
    r = (z0 * i0 + z1 * z1 * u20) % p
    if r:
        w1 = v2[1] - v1[1]
        w0 = v2[0] - v1[0]
        t = -w1 * z1
        s1 = (w1 * i0 - w0 * z1 - t * u21) % p
        s0 = (w0 * i0 - t * u20) % p
        return _compose(u1, v1, u2, r, s0, s1, f, p)
    if u1 == u2:
        if v1 == v2:
            return _jac_double(d1, f, p)
        if not any((a + b) % p for a, b in zip(v1, v2)):
            return (1,), ()
    return _cantor(d1, d2, f, p)


def _jac_double(divisor, f, p):
    u, v = divisor
    if not any(v):
        # zero, or two Weierstrass points: 2-torsion
        return (1,), ()
    u0, u1, _ = u
    v0, v1 = v
    # k = (f - v^2)/u by long division, then w = k mod u
    k4 = f[6]
    k3 = f[5] - k4 * u1
    k2 = f[4] - k4 * u0 - k3 * u1
    k1 = f[3] - k3 * u0 - k2 * u1
    k0 = f[2] - v1 * v1 - k2 * u0 - k1 * u1
    k3 -= k4 * u1
    k2 -= k4 * u0 + k3 * u1
    w1 = (k1 - k3 * u0 - k2 * u1) % p
    w0 = (k0 - k2 * u0) % p
    # s = k/(2v) mod u, kept as r*s with r = Res(u, 2v)
    z1 = 2 * v1
    z0 = 2 * v0
    i0 = z0 - z1 * u1
    r = (z0 * i0 + z1 * z1 * u0) % p
    if r:
        t = -w1 * z1
        s1 = (w1 * i0 - w0 * z1 - t * u1) % p
        s0 = (w0 * i0 - t * u0) % p
        return _compose(u, v, u, r, s0, s1, f, p)
    return _cantor(divisor, divisor, f, p)


def _compose(u1, v1, u2, r, s0, s1, f, p):
    """The reduced sum from V = v1 + s*u1, s = (s1*x + s0)/r: u' is
    (f - V^2)/(u1*u2) made monic, v' = -V mod u'."""
    u10, u11, _ = u1
    v10, v11 = v1
    u20, u21, _ = u2
    c = f[6]
    # r^2 times the leading coefficient c - s^2 of (f - V^2)/(u1*u2),
    # nonzero because c is not a square; one inversion serves both
    lead = (c * r * r - s1 * s1) % p
    w = pow(r * lead, -1, p)
    r_inv = w * lead % p
    s1 = s1 * r_inv % p
    s0 = s0 * r_inv % p
    lead_inv = r * r % p * r % p * w % p
    # (f - V^2)/u1 = (f - v1^2)/u1 - 2*v1*s - s^2*u1, top three coefficients
    k3 = f[5] - c * u11
    k2 = f[4] - c * u10 - k3 * u11
    ss = s1 * s1
    t4 = c - ss
    t3 = k3 - ss * u11 - 2 * s1 * s0
    t2 = k2 - 2 * v11 * s1 - ss * u10 - 2 * s1 * s0 * u11 - s0 * s0
    q1 = t3 - t4 * u21
    e1 = q1 * lead_inv % p
    e0 = (t2 - q1 * u21 - t4 * u20) * lead_inv % p
    c2 = s1 * u11 + s0
    c1 = s1 * u10 + s0 * u11 + v11
    c0 = s0 * u10 + v10
    return (
        (e0, e1, 1),
        ((c2 * e0 - s1 * e1 * e0 - c0) % p, (c2 * e1 - s1 * (e1 * e1 - e0) - c1) % p),
    )


def _cantor(d1, d2, f, p):
    (u1, v1), (u2, v2) = d1, d2
    v1, v2 = _trim(v1), _trim(v2)
    g1, e1, e2 = _xgcd(u1, u2, p)
    g, c1, c2 = _xgcd(g1, _padd(v1, v2, p), p)
    u = _pdivmod(_pmul(u1, u2, p), _pmul(g, g, p), p)[0]
    numerator = _padd(
        _padd(
            _pmul(_pmul(c1, e1, p), _pmul(u1, v2, p), p),
            _pmul(_pmul(c1, e2, p), _pmul(u2, v1, p), p),
            p,
        ),
        _pmul(c2, _padd(_pmul(v1, v2, p), f, p), p),
        p,
    )
    v = _pdivmod(_pdivmod(numerator, g, p)[0], u, p)[1]
    while len(u) > 3:
        u = _pdivmod(_padd(f, [-c for c in _pmul(v, v, p)], p), u, p)[0]
        u = _pscale(u, pow(u[-1], -1, p), p)
        v = _pdivmod([-c for c in v], u, p)[1]
    return tuple(u), tuple(v) + (0,) * (len(u) - 1 - len(v))


# Polynomials over F_p as ascending lists without trailing zeros.


def _trim(a):
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


def _padd(a, b, p):
    if len(a) < len(b):
        a, b = b, a
    return _trim([(c + (b[i] if i < len(b) else 0)) % p for i, c in enumerate(a)])


def _pscale(a, c, p):
    return [x * c % p for x in a]


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return [c % p for c in out]


def _pdivmod(a, b, p):
    a = list(a)
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - len(b) + 1, 0)
    for i in range(len(q) - 1, -1, -1):
        c = a[i + len(b) - 1] * inv % p
        q[i] = c
        for j, x in enumerate(b):
            a[i + j] = (a[i + j] - c * x) % p
    return _trim(q), _trim([c % p for c in a[: len(b) - 1]])


def _xgcd(a, b, p):
    """(g, s, t) with g = s*a + t*b monic, a nonzero."""
    r0, r1, s0, s1, t0, t1 = _trim(a), _trim(b), [1], [], [], [1]
    while r1:
        q, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _padd(s0, [-c for c in _pmul(q, s1, p)], p)
        t0, t1 = t1, _padd(t0, [-c for c in _pmul(q, t1, p)], p)
    inv = pow(r0[-1], -1, p)
    return _pscale(r0, inv, p), _pscale(s0, inv, p), _pscale(t0, inv, p)


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
    if not _within_weil_bounds(p, a1, a2):
        raise InconsistentCountsError(
            f"(a1, a2) = ({a1}, {a2}) breaks the Weil bounds at p={p}; "
            "no genus-2 curve has these counts"
        )
    return WeilPolynomial(p, a1, a2)


def zeta_rational_form(weil):
    """The zeta function of the reduction as numerator / (1-t)(1-pt)."""
    num = weil.l_coefficients
    in_t = MultiPoly(("t",), {(e,): c for e, c in enumerate(num)})
    return {
        "p": weil.p,
        "numerator": list(num),
        "denominator_factors": [[1, -1], [1, -weil.p]],
        "display": (
            f"({in_t}) / ((1 - t)*(1 - {weil.p}*t))"
        ),
    }
