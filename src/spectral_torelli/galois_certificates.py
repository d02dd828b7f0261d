"""Galois-theoretic certificates for degree-4 Frobenius polynomials.

`galois_group` classifies any irreducible monic integer quartic through
its resolvent cubic: no rational resolvent root gives S4 or A4 (split by
whether the discriminant is a square), three give V4, and exactly one
leaves D4 versus C4, decided by whether the two auxiliary quadratics
split over the discriminant field.

The Frobenius field from two squares. A Weil quartic P = t^4 - a1 t^3 +
a2 t^2 - a1 p t + p^2 is (t^2 - s t + p)(t^2 - s' t + p), s and s' the
roots of s^2 - a1 s + (a2 - 2p), so K0 = Q(pi + p/pi) = Q(sqrt D) with
D = a1^2 - 4 a2 + 8p. The two factors have resultant pD, and
E = (a2 + 2p)^2 - 4p a1^2 = (s^2 - 4p)(s'^2 - 4p) is the norm of their
discriminants, so disc P = p^2 D^2 E. The Weil bounds (s, s' real,
s^2 <= 4p) are D >= 0, E >= 0, 2p + a2 >= 0 and a1^2 <= 16p, kept with
D and E beside `WeilPolynomial` in `finite_arithmetic`. Inside them K0
is real and complex conjugation maps a root r to p/r. If D is a square,
s, s' = (a1 +- sqrt D)/2 are integers. If not, a rational factor without
a real root would hold a pair r, p/r and make s rational, so a reducible
P has a real root +-sqrt(p), E = 0, s' = -s and P = (t^2 - p)^2. Each
quadratic splits when its discriminant is a square: closed-form
factors, no divisor scan. Otherwise s^2 < 4p and Q(pi) = K0(sqrt(s^2 -
4p)) is a quartic CM field, Galois over Q iff its norm E is a square in
K0: V4 when E is a square, C4 when D E is, D4 otherwise (Kappe and
Warren, Amer. Math. Monthly 96, 1989). That is `quadratic_subfield`. At
a prime with an irreducible Weil quartic, End^0(J_p) = Q(pi) (Tate,
Invent. Math. 1966), and End^0_Q(J) embeds in it. Under D4 or C4, K0 is
its only quadratic subfield; under V4, Q(pi) = K0(sqrt(-d)) also has
Q(sqrt(-d)) and Q(sqrt(-d * disc K0)) for some integer d > 0.

Hence the two-prime rule of `endo_pipeline`: two primes with different
real cores leave no room for a real quadratic or a quartic End^0_Q(J),
and an imaginary quadratic one cannot embed at a D4 or C4 prime, so a
TRIVIAL verdict also needs one of the two primes to be D4 or C4. Two V4
primes with different real cores do not exclude an imaginary quadratic
End^0_Q(J). Reductions bound endomorphism algebras of genus-2 Jacobians
in the same way in Lombardo (Math. Comp. 2019) and Costa, Mascot,
Sijsling and Voight (Math. Comp. 2019).

Roots of unity among eigenvalue ratios. A ratio r_j / r_i of two
Frobenius eigenvalues lies in the splitting field K of the Weil quartic.
The quartic's roots pair as r, p/r, and the Galois group of K preserves
that pairing, so it lies in the centralizer of the pairing involution
in S4, a dihedral group of order 8. A ratio that is a primitive n-th
root of unity puts Q(zeta_n) inside K, so phi(n) divides [K : Q], which
divides 8; and n = 1 would be a repeated eigenvalue. So only the 13
orders n >= 2 with phi(n) | 8 can occur, and as phi(d) | phi(n) for
d | n, they are closed under divisors.

The same two squares count those ratios. For i != j, r_j / r_i has order
dividing n exactly when r_i^n = r_j^n. The n-th powers pair as r^n,
q/r^n with q = p^n, so P_n = prod (t - r_i^n) is
t^4 - b1 t^3 + b2 t^2 - q b1 t + q^2 with b1 = s_n and
b2 = (s_n^2 - s_2n) / 2, s_k the power sums of the r_i. Writing P_n = (t^2 - S t + q)(t^2 - S' t + q), its
D_n = b1^2 - 4 b2 + 8q = (S - S')^2 and E_n = (b2 + 2q)^2 - 4q b1^2 =
(S^2 - 4q)(S'^2 - 4q); a factor has a double root iff S^2 = 4q, and the
two share a root iff S = S'. So the number c(n) of ordered pairs i != j
with r_i^n = r_j^n is 0 when D_n E_n != 0; when only E_n = 0 it is 2,
or 4 if both factors are squares, which is b1 = 0 and b2 = -2q (then
S' = -S); when D_n = 0 it is 4, or 12 if b1^2 = 16q (one quadruple
root). The number of ratios of exact order n is c(n) less the numbers
of exact order d for the proper divisors d of n, with none of order 1
for a separable quartic. That is `root_ratio_orders`.

The Frobenius entry points `quadratic_subfield`, `tate_condition` and
`root_ratio_orders` take a `WeilPolynomial` (p, a1, a2), the only
Frobenius data a genus-2 reduction yields, and raise TypeError on
anything else, and read every answer from D and E. `factor_quartic`,
`galois_group` and `resolvent_cubic` take any monic integer quartic as
five ascending ints (`_monic_quartic`) and scan divisors; only the
`galois` command and the tests use them. Everything is exact
integer/rational arithmetic; nothing here needs the curve modules.
"""

import math

from ._record import Record
from .errors import InconsistentCountsError, ReducibleQuarticError
from .errors import StructureError
from .exact_algebra import _integer
from .finite_arithmetic import _validated_weil, _weil_squares
from .finite_arithmetic import _within_weil_bounds

_TRIAL_LIMIT = 10 ** 6
_CERTIFIED_COFACTOR_BOUND = 10 ** 18
# the orders n >= 2 with phi(n) dividing 8 (see the module docstring)
_RATIO_ORDERS = (2, 3, 4, 5, 6, 8, 10, 12, 15, 16, 20, 24, 30)


def _is_square(n):
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def _trial_stop(m):
    """The last trial divisor for cofactor m: its integer cube root,
    capped at the trial limit."""
    if m >= (_TRIAL_LIMIT + 1) ** 3:
        return _TRIAL_LIMIT
    c = round(m ** (1 / 3))  # m < ~10^18, so the float is off by < 1
    while c ** 3 > m:
        c -= 1
    while (c + 1) ** 3 <= m:
        c += 1
    return c


def squarefree_part(n):
    """The squarefree integer d with n = d * (square), sign preserved.

    Exact as long as the part of |n| left after removing prime factors
    up to 10^6 stays below 10^18 (then it has at most two prime factors
    and its shape is decidable); larger uncertified cofactors raise.
    Trial division stops as soon as d^3 exceeds the cofactor m: every
    prime factor of m is at least d, so m is 1, p, p*q or p^2, and the
    square test decides it.
    """
    n = _integer(n)
    if n == 0:
        raise ValueError("0 has no squarefree part")
    sign = -1 if n < 0 else 1
    m = abs(n)
    core = 1
    d = 2
    stop = _trial_stop(m)
    while d <= stop:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            if e % 2:
                core *= d
            stop = _trial_stop(m)
        d += 1 if d == 2 else 2
    if m > 1:
        if _is_square(m):
            pass
        elif m <= _CERTIFIED_COFACTOR_BOUND:
            # every prime factor is at least d and m < d^3 (or d > 10^6
            # and m <= 10^18), so m is p or p*q: p^2 was just excluded
            core *= m
        else:
            raise ValueError(
                f"cofactor {m} is too large to certify squarefree"
            )
    return sign * core


def _int_divisors(n):
    """Lazily yield (d, |n| // d) for each divisor d <= sqrt|n| of n,
    ascending, so a caller that stops early skips the rest of the scan."""
    n = abs(n)
    d = 1
    while d * d <= n:
        if n % d == 0:
            yield d, n // d
        d += 1


def _eval_int_poly(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _integer_roots_monic(coeffs):
    """Integer roots (with multiplicity) of a monic integer polynomial,
    ascending coefficients: a quadratic is decided by its discriminant,
    a higher degree by a scan of the divisors of its constant term."""
    roots = []
    work = list(coeffs)
    while len(work) > 1:
        if len(work) == 3:
            c0, c1, _ = work
            disc = c1 * c1 - 4 * c0
            if _is_square(disc):
                # disc = c1^2 mod 4, so its root has the parity of c1
                s = math.isqrt(disc)
                roots += [(-c1 + s) // 2, (-c1 - s) // 2]
                work = [1]
            break
        if work[0] == 0:
            roots.append(0)
            work = work[1:]
            continue
        found = next(
            (
                r
                for pair in _int_divisors(work[0])
                for v in pair
                for r in (v, -v)
                if _eval_int_poly(work, r) == 0
            ),
            None,
        )
        if found is None:
            break
        # synthetic division by (t - found)
        out = [0] * (len(work) - 1)
        carry = work[-1]
        for i in range(len(work) - 2, -1, -1):
            out[i] = carry
            carry = work[i] + carry * found
        roots.append(found)
        work = out
    return roots, work


def _monic_quartic(coefficients):
    """The five ascending coefficients of a monic integer quartic, as a
    tuple. A coefficient that is not an int raises TypeError (see
    `_integer`); another length or leading coefficient ValueError."""
    coeffs = tuple(map(_integer, coefficients))
    if len(coeffs) != 5 or coeffs[4] != 1:
        raise ValueError("need an ascending monic integer quartic")
    return coeffs


def _factor_monic(coeffs):
    """Irreducible monic integer factors (ascending tuples) of a monic
    integer polynomial of degree <= 4."""
    roots, rest = _integer_roots_monic(coeffs)
    factors = [(-r, 1) for r in roots]
    if len(rest) < 5:
        # what is left has degree 0, or is a quadratic or cubic with no
        # rational root and so irreducible (a linear factor always has one)
        if len(rest) > 1:
            factors.append(tuple(rest))
        return sorted(factors)
    # rootless quartic: look for a split into two integer quadratics
    a0, a1, a2, a3, _ = rest
    signed = (r for pair in _int_divisors(a0) for v in pair for r in (v, -v))
    for beta in signed:
        delta = a0 // beta
        disc = a3 * a3 - 4 * (a2 - beta - delta)
        if not _is_square(disc):
            continue
        s = math.isqrt(disc)
        for alpha2 in {a3 + s, a3 - s}:
            if alpha2 % 2:
                continue
            alpha = alpha2 // 2
            gamma = a3 - alpha
            if alpha * delta + beta * gamma == a1:
                left = _factor_monic((beta, alpha, 1))
                right = _factor_monic((delta, gamma, 1))
                return sorted(left + right)
    factors.append(tuple(rest))
    return sorted(factors)


def factor_quartic(coefficients):
    """Monic-irreducible factorization over Q of a monic integer quartic
    (ascending coefficients), as a sorted tuple of ascending tuples."""
    return tuple(_factor_monic(_monic_quartic(coefficients)))


def _quartic_discriminant(coeffs):
    """Discriminant of e + d t + c t^2 + b t^3 + a t^4 (ascending integer
    coefficients) from its closed form."""
    e, d, c, b, a = coeffs
    return (
        256 * a**3 * e**3 - 192 * a**2 * b * d * e**2
        - 128 * a**2 * c**2 * e**2 + 144 * a**2 * c * d**2 * e
        - 27 * a**2 * d**4 + 144 * a * b**2 * c * e**2
        - 6 * a * b**2 * d**2 * e - 80 * a * b * c**2 * d * e
        + 18 * a * b * c * d**3 + 16 * a * c**4 * e - 4 * a * c**3 * d**2
        - 27 * b**4 * e**2 + 18 * b**3 * c * d * e - 4 * b**3 * d**3
        - 4 * b**2 * c**3 * e + b**2 * c**2 * d**2
    )


def resolvent_cubic(coefficients):
    """Ascending coefficients of the resolvent cubic of a monic quartic
    t^4 + b t^3 + c t^2 + d t + e, whose roots are the three partial
    products of the quartic's roots."""
    e, d, c, b, _ = _monic_quartic(coefficients)
    return (
        -(b * b * e - 4 * c * e + d * d),
        b * d - 4 * e,
        -c,
        1,
    )


class QuarticAnalysis(Record):
    """Galois classification of an irreducible monic integer quartic."""

    __slots__ = (
        "coefficients",
        "group",
        "discriminant",
        "resolvent",
        "resolvent_roots",
    )


def galois_group(coefficients):
    """Classify an irreducible monic integer quartic as S4, A4, D4, C4,
    or V4. Reducible input raises ReducibleQuarticError, which carries
    the factors."""
    coeffs = _monic_quartic(coefficients)
    factors = tuple(_factor_monic(coeffs))
    if len(factors) > 1:
        raise ReducibleQuarticError(factors)
    disc = _quartic_discriminant(coeffs)
    resolvent = resolvent_cubic(coeffs)
    roots, _ = _integer_roots_monic(resolvent)
    roots = tuple(sorted(roots))
    e, _, c, b, _ = coeffs
    if not roots:
        group = "A4" if _is_square(disc) else "S4"
    elif len(roots) == 3:
        group = "V4"
    else:
        y0 = roots[0]
        cyclic = all(
            _is_square(delta) or _is_square(delta * disc)
            for delta in (b * b - 4 * (c - y0), y0 * y0 - 4 * e)
        )
        group = "C4" if cyclic else "D4"
    return QuarticAnalysis(coeffs, group, disc, resolvent, roots)


class QuadraticSubfield(Record):
    """The real quadratic subfield of a quartic Frobenius field,
    presented by the minimal polynomial of the sum of an eigenvalue and
    its companion p/eigenvalue and by its squarefree discriminant core
    (None where `squarefree_part` cannot certify it), with the Galois
    group (V4, C4 or D4) of the quartic field."""

    __slots__ = ("minimal_polynomial", "core", "group")


def _weil_factors(p, a1, d):
    """The factors of a reducible Weil quartic, as `factor_quartic` gives
    them, from their closed form (see the module docstring): each
    quadratic factor splits by its discriminant, with no divisor scan."""
    if _is_square(d):
        r = math.isqrt(d)
        quadratics = ((p, -(a1 + r) // 2, 1), (p, (r - a1) // 2, 1))
    else:
        quadratics = ((-p, 0, 1),) * 2
    return tuple(sorted(f for q in quadratics for f in _factor_monic(q)))


def quadratic_subfield(weil):
    """The real quadratic subfield Q(pi + p/pi) of the Frobenius field of
    a Weil polynomial (p, a1, a2), and the field's Galois group, from D
    and E (see the module docstring). A triple outside the Weil bounds
    raises InconsistentCountsError, a reducible quartic (D a square or
    E = 0) ReducibleQuarticError."""
    weil = _validated_weil(weil)
    p, a1, a2 = weil.p, weil.a1, weil.a2
    d, e = _weil_squares(p, a1, a2)
    if not _within_weil_bounds(p, a1, a2):
        raise InconsistentCountsError(
            f"(a1, a2) = ({a1}, {a2}) breaks the Weil bounds at p={p}"
        )
    if _is_square(d) or not e:
        raise ReducibleQuarticError(_weil_factors(p, a1, d))
    group = "V4" if _is_square(e) else "C4" if _is_square(d * e) else "D4"
    try:
        core = squarefree_part(d)
    except ValueError:
        core = None
    return QuadraticSubfield((a2 - 2 * p, -a1, 1), core, group)


def tate_condition(weil):
    """True when the Frobenius quartic of a Weil polynomial has no
    repeated root, i.e. disc = p^2 D^2 E is not 0; exact on any triple."""
    weil = _validated_weil(weil)
    d, e = _weil_squares(weil.p, weil.a1, weil.a2)
    return bool(weil.p * d * e)


class RootRatioReport(Record):
    """Roots of unity among the ratios of Frobenius eigenvalues.

    `orders` lists every n such that some ratio of two distinct
    eigenvalues is a primitive n-th root of unity; an empty tuple
    certifies that no ratio is a root of unity.
    """

    __slots__ = ("orders",)

    @property
    def clean(self):
        return not self.orders


def _power_sums(coefficients, count):
    """Power sums s_0..s_count of the roots of a monic integer quartic
    (ascending coefficients), by Newton's identities."""
    e, d, c, b, _ = coefficients
    elementary = (b, c, d, e)
    sums = [4]
    for k in range(1, count + 1):
        total = -k * elementary[k - 1] if k <= 4 else 0
        for i in range(1, min(k, 5)):
            total -= elementary[i - 1] * sums[k - i]
        sums.append(total)
    return sums


def _coinciding_pairs(q, b1, b2):
    """c(n) of the module docstring: the ordered pairs i != j with
    r_i^n = r_j^n, from P_n = t^4 - b1 t^3 + b2 t^2 - q b1 t + q^2."""
    d, e = _weil_squares(q, b1, b2)
    if not d:
        return 12 if b1 * b1 == 16 * q else 4
    if not e:
        return 4 if not b1 and b2 == -2 * q else 2
    return 0


def root_ratio_orders(weil):
    """The orders n >= 2 for which some ratio of two eigenvalues of a
    separable Frobenius quartic is a primitive n-th root of unity.

    Only the 13 orders with phi(n) | 8 can occur. For each, in
    ascending order, the pairs with r_i^n = r_j^n are counted from the
    D and E of the quartic of n-th powers, and those of a smaller order
    d | n taken off (see the module docstring). Repeated eigenvalues
    raise StructureError.
    """
    if not tate_condition(weil):
        raise StructureError("repeated Frobenius eigenvalues")
    p = weil.p
    s = _power_sums(weil.frobenius_coefficients, 2 * _RATIO_ORDERS[-1])
    exact = {}
    for n in _RATIO_ORDERS:
        pairs = _coinciding_pairs(p**n, s[n], (s[n] * s[n] - s[2 * n]) // 2)
        exact[n] = pairs - sum(exact[d] for d in exact if n % d == 0)
    return RootRatioReport(tuple(n for n, count in exact.items() if count))
