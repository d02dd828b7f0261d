"""Galois-theoretic certificates for degree-4 Frobenius polynomials.

The classification of an irreducible monic integer quartic runs through
its resolvent cubic: no rational resolvent root gives S4 or A4 (split by
whether the discriminant is a square), three give V4, and exactly one
leaves D4 versus C4, decided by whether the two auxiliary quadratics
split over the discriminant field.

Why a V4 prime is not evidence of a trivial endomorphism ring. At a
prime with an irreducible Weil quartic, End^0(J_p) = Q(pi) is a quartic
CM field, and End^0_Q(J) embeds in it. Under D4 or C4 the only quadratic
subfield is the real K0 = Q(sqrt(a1^2 - 4 a2 + 8p)), so an imaginary
quadratic End^0_Q(J) cannot embed, and a real quadratic one must equal
K0; two such primes with different real cores leave only Q. Under V4,
Q(pi) = K0(sqrt(-d)) is biquadratic and also has the two imaginary
quadratic subfields Q(sqrt(-d)) and Q(sqrt(-d * disc K0)). An imaginary
quadratic End^0_Q(J) would embed in the fields of two V4 primes whatever
their real cores are, so comparing real cores does not exclude it, and
`quadratic_subfield` reports the V4 candidates without choosing one.

Everything is exact integer/rational arithmetic; nothing here needs the
curve modules.
"""

import math
from fractions import Fraction
from functools import lru_cache

from ._record import Record
from .errors import (
    NonUniqueSubfieldError,
    NoQuadraticSubfieldError,
    ReducibleQuarticError,
    StructureError,
)
from .exact_algebra import UniPoly

_TRIAL_LIMIT = 10 ** 6
_CERTIFIED_COFACTOR_BOUND = 10 ** 18


def _is_square(n):
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def squarefree_part(n):
    """The squarefree integer d with n = d * (square), sign preserved.

    Exact as long as the part of |n| left after removing prime factors
    up to 10^6 stays below 10^18 (then it has at most two prime factors
    and its shape is decidable); larger uncertified cofactors raise.
    """
    n = int(n)
    if n == 0:
        raise ValueError("0 has no squarefree part")
    sign = -1 if n < 0 else 1
    m = abs(n)
    core = 1
    d = 2
    while d * d <= m and d <= _TRIAL_LIMIT:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            if e % 2:
                core *= d
        d += 1 if d == 2 else 2
    if m > 1:
        if _is_square(m):
            pass
        elif m <= _CERTIFIED_COFACTOR_BOUND:
            # all prime factors exceed 10^6, so m is p, p*q, or p^2;
            # the square case was just excluded
            core *= m
        else:
            raise ValueError(
                f"cofactor {m} is too large to certify squarefree"
            )
    return sign * core


def _int_divisors(n):
    n = abs(n)
    small = []
    large = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    out = small + large[::-1]
    return [x for pair in ((v, -v) for v in out) for x in pair]


def _eval_int_poly(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _integer_roots_monic(coeffs):
    """Integer roots (with multiplicity) of a monic integer polynomial,
    ascending coefficients."""
    roots = []
    work = list(coeffs)
    while len(work) > 1:
        if work[0] == 0:
            roots.append(0)
            work = work[1:]
            continue
        found = None
        for r in _int_divisors(work[0]):
            if _eval_int_poly(work, r) == 0:
                found = r
                break
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


def _factor_monic(coeffs):
    """Irreducible monic integer factors (ascending tuples) of a monic
    integer polynomial of degree <= 4."""
    coeffs = [int(c) for c in coeffs]
    if coeffs[-1] != 1:
        raise ValueError("polynomial must be monic")
    degree = len(coeffs) - 1
    if degree == 0:
        return []
    if degree == 1:
        return [tuple(coeffs)]
    roots, rest = _integer_roots_monic(coeffs)
    factors = [(-r, 1) for r in roots]
    d = len(rest) - 1
    if d == 0:
        return sorted(factors)
    if d == 1:
        factors.append(tuple(rest))
        return sorted(factors)
    if d == 2:
        c0, c1, _ = rest
        if _is_square(c1 * c1 - 4 * c0):
            s = math.isqrt(c1 * c1 - 4 * c0)
            r1 = (-c1 + s) // 2
            r2 = (-c1 - s) // 2
            factors.extend([(-r1, 1), (-r2, 1)])
        else:
            factors.append(tuple(rest))
        return sorted(factors)
    if d == 3:
        # a cubic with no rational root is irreducible
        factors.append(tuple(rest))
        return sorted(factors)
    # rootless quartic: look for a split into two integer quadratics
    a0, a1, a2, a3, _ = rest
    for beta in _int_divisors(a0):
        if a0 % beta:
            continue
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
    coeffs = [int(c) for c in coefficients]
    if len(coeffs) != 5:
        raise ValueError("need 5 ascending coefficients")
    return tuple(_factor_monic(coeffs))


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
    e, d, c, b, lead = (int(x) for x in coefficients)
    if lead != 1:
        raise ValueError("quartic must be monic")
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
        "distinguished_root",
        "delta_pair",
    )

    def __init__(self, coefficients, group, discriminant, resolvent,
                 resolvent_roots, distinguished_root, delta_pair):
        super().__init__(tuple(coefficients), group, discriminant,
                         tuple(resolvent), tuple(resolvent_roots),
                         distinguished_root, delta_pair)


def galois_group(coefficients):
    """Classify an irreducible monic integer quartic as S4, A4, D4, C4,
    or V4. Reducible input raises ReducibleQuarticError (the factors ride
    on the exception)."""
    coeffs = [int(c) for c in coefficients]
    if len(coeffs) != 5 or coeffs[4] != 1:
        raise ValueError("need an ascending monic integer quartic")
    factors = factor_quartic(coeffs)
    if len(factors) > 1:
        err = ReducibleQuarticError(
            f"quartic splits as {factors!r}; no Galois class is assigned"
        )
        err.factors = factors
        raise err
    disc = _quartic_discriminant(coeffs)
    resolvent = resolvent_cubic(coeffs)
    roots, _ = _integer_roots_monic(resolvent)
    roots = sorted(roots)
    e, d, c, b, _ = coeffs
    if not roots:
        group = "A4" if _is_square(disc) else "S4"
        return QuarticAnalysis(
            coeffs, group, disc, resolvent, roots, None, None
        )
    if len(roots) == 3:
        return QuarticAnalysis(
            coeffs, "V4", disc, resolvent, roots, None, None
        )
    y0 = roots[0]
    delta1 = b * b - 4 * (c - y0)
    delta2 = y0 * y0 - 4 * e
    def splits_over_disc_field(delta):
        return delta == 0 or _is_square(delta) or _is_square(delta * disc)
    if splits_over_disc_field(delta1) and splits_over_disc_field(delta2):
        group = "C4"
    else:
        group = "D4"
    return QuarticAnalysis(
        coeffs, group, disc, resolvent, roots, y0, (delta1, delta2)
    )


class QuadraticSubfield(Record):
    """The unique quadratic subfield of a quartic Frobenius field,
    presented by the minimal polynomial of the sum of an eigenvalue and
    its companion p/eigenvalue."""

    __slots__ = ("p", "minimal_polynomial", "discriminant", "core")

    def __init__(self, p, minimal_polynomial, discriminant, core):
        super().__init__(int(p), tuple(int(c) for c in minimal_polynomial),
                         int(discriminant), int(core))


def quadratic_subfield(weil, analysis=None):
    """Quadratic subfield data for a Weil polynomial (p, a1, a2).

    Requires the Frobenius quartic to be irreducible with group D4 or
    C4; V4 raises NonUniqueSubfieldError carrying the three candidate
    discriminant cores, S4/A4 raise NoQuadraticSubfieldError.

    Under V4 each resolvent root y = r1*r2 + r3*r4 belongs to one pairing
    of the roots, and the subfield fixed by that pairing's involution is
    generated by r1*r2 - r3*r4, whose square is y^2 - 4e. When that is 0
    (always for y = 2p, the pairing of each eigenvalue with its companion
    p/eigenvalue) the subfield is generated by (r1 + r2) - (r3 + r4)
    instead, whose square is b^2 - 4(c - y); for y = 2p that is the
    a1^2 - 4(a2 - 2p) of the D4/C4 path. The two squares cannot both
    vanish without a repeated root, so the error carries three cores,
    whose product is a square.
    """
    if analysis is None:
        analysis = galois_group(weil.frobenius_coefficients)
    group = analysis.group
    if group in ("S4", "A4"):
        raise NoQuadraticSubfieldError(
            f"group {group}: the quartic field has no quadratic subfield"
        )
    p, a1, a2 = weil.p, weil.a1, weil.a2
    if group == "V4":
        cores = []
        e, _, c, b, _ = analysis.coefficients
        for y in analysis.resolvent_roots:
            delta = y * y - 4 * e
            if delta == 0:
                delta = b * b - 4 * (c - y)
            if not _is_square(delta):
                cores.append(squarefree_part(delta))
        raise NonUniqueSubfieldError(
            "group V4: three quadratic subfields, none distinguished",
            tuple(sorted(set(cores))),
        )
    disc = a1 * a1 - 4 * (a2 - 2 * p)
    if disc == 0 or _is_square(disc):
        raise NoQuadraticSubfieldError(
            "eigenvalue-plus-companion trace is rational; this contradicts "
            "an irreducible quartic"
        )
    return QuadraticSubfield(
        p, (a2 - 2 * p, -a1, 1), disc, squarefree_part(disc)
    )


def tate_condition(weil_or_coefficients):
    """True when the Frobenius quartic has no repeated root, so its
    eigenvalue structure is fully separable.

    Accepts a Weil polynomial or 5 ascending integer coefficients; a zero
    leading or constant coefficient raises ValueError.
    """
    coeffs = _frobenius_coefficients(weil_or_coefficients)
    return bool(_quartic_discriminant(coeffs))


def _frobenius_coefficients(source):
    if hasattr(source, "frobenius_coefficients"):
        coeffs = tuple(int(c) for c in source.frobenius_coefficients)
    else:
        coeffs = tuple(int(c) for c in source)
        if len(coeffs) != 5:
            raise ValueError("need 5 ascending quartic coefficients")
    if not coeffs[0] or not coeffs[4]:
        raise ValueError(
            "need a quartic with nonzero leading and constant coefficients"
        )
    return coeffs


def euler_phi(n):
    n = int(n)
    if n < 1:
        raise ValueError("positive integers only")
    result = n
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            result -= result // d
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None)
def cyclotomic(n):
    """Ascending integer coefficients of the n-th cyclotomic polynomial."""
    n = int(n)
    if n < 1:
        raise ValueError("positive integers only")
    power = [Fraction(0)] * (n + 1)
    power[0] = Fraction(-1)
    power[n] = Fraction(1)
    poly = UniPoly(power)
    for d in range(1, n):
        if n % d == 0:
            q, r = poly.divmod(UniPoly([Fraction(c) for c in cyclotomic(d)]))
            if not r.is_zero():
                raise ArithmeticError("cyclotomic division left a remainder")
            poly = q
    out = []
    for c in poly.coeffs:
        if c.denominator != 1:
            raise ArithmeticError("cyclotomic coefficients must be integers")
        out.append(c.numerator)
    return tuple(out)


class RootRatioReport(Record):
    """Cyclotomic structure of the ratios of Frobenius eigenvalues.

    `orders` lists every n (within the scanned window) such that some
    ratio of two distinct eigenvalues is a primitive n-th root of unity;
    an empty tuple certifies that no scanned root of unity occurs.
    """

    __slots__ = ("orders", "ratio_coefficients", "max_order", "phi_bound")

    def __init__(self, orders, ratio_coefficients, max_order, phi_bound):
        super().__init__(tuple(orders), tuple(ratio_coefficients),
                         int(max_order), int(phi_bound))

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


@lru_cache(maxsize=32)
def _scanned_cyclotomics(max_order, phi_bound):
    """(n, cyclotomic(n)) for every n <= max_order with phi(n) <=
    phi_bound."""
    return tuple(
        (n, cyclotomic(n))
        for n in range(1, max_order + 1)
        if euler_phi(n) <= phi_bound
    )


def _divisible_by_monic(poly, divisor):
    """Whether a monic integer polynomial divides an integer polynomial
    (both ascending)."""
    rem = list(poly)
    m = len(divisor) - 1
    for top in range(len(rem) - 1, m - 1, -1):
        q = rem[top]
        if q:
            for i, c in enumerate(divisor):
                rem[top - m + i] -= q * c
    return not any(rem[:m])


def root_ratio_orders(weil_or_coefficients, *, max_order=90, phi_bound=24):
    """Scan the ratio polynomial of a separable quartic for cyclotomic
    factors.

    The ratio polynomial is Res_t(P(t), P(u t)) with the forced (u - 1)^4
    factor removed; its roots are exactly the ratios of distinct
    eigenvalues. Returns the orders n <= max_order with phi(n) <=
    phi_bound whose cyclotomic polynomial divides it. A zero leading or
    constant coefficient raises ValueError.

    For P = a t^4 + b t^3 + c t^2 + d t + e with roots r_i the resultant
    is a^8 prod_{i,j} (u r_i - r_j), so the ratio polynomial is
    a^4 e^4 prod_{i != j} (u - r_j / r_i). It is built from power sums,
    without the resultant. The roots a r_i of the monic quartic
    t^4 + b t^3 + ac t^2 + a^2 d t + a^3 e =: t^4 + ... + E have the same
    ratios; beta_i = E / (a r_i) are the roots of the integer quartic
    t^4 + (a^2 d) t^3 + (ac) E t^2 + b E^2 t + E^3, and the 12 algebraic
    integers gamma_ij = (a r_j) beta_i = E r_j / r_i (i != j) have power
    sums s_k T_k - 4 E^k, where s_k and T_k are the power sums of the two
    quartics. Newton's identities turn those into the integer
    coefficients h_k of prod (x - gamma_ij) = sum_k h_k x^(12 - k), and
    the coefficient of u^(12 - k) in the ratio polynomial is
    h_k a^4 e^4 / E^k, which must be an integer.
    """
    coeffs = _frobenius_coefficients(weil_or_coefficients)
    if not tate_condition(coeffs):
        raise StructureError(
            "repeated Frobenius eigenvalues: the ratio polynomial "
            "degenerates"
        )
    e, d, c, b, a = coeffs
    big_e = a**3 * e
    s = _power_sums((big_e, a * a * d, a * c, b, 1), 12)
    t = _power_sums((big_e**3, b * big_e**2, a * c * big_e, a * a * d, 1), 12)
    h = [1]
    for k in range(1, 13):
        total = sum(
            h[k - i] * (s[i] * t[i] - 4 * big_e**i) for i in range(1, k + 1)
        )
        h.append(-total // k)  # exact: the h_k are integers
    scale = a**4 * e**4
    ratio_coeffs = []
    for k in range(12, -1, -1):
        q, r = divmod(h[k] * scale, big_e**k)
        if r:
            raise ArithmeticError("ratio polynomial must have integer entries")
        ratio_coeffs.append(q)
    orders = [
        n
        for n, phi_n in _scanned_cyclotomics(int(max_order), int(phi_bound))
        if len(phi_n) <= len(ratio_coeffs)
        and _divisible_by_monic(ratio_coeffs, phi_n)
    ]
    return RootRatioReport(orders, ratio_coeffs, max_order, phi_bound)
