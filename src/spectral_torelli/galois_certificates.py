"""Galois-theoretic certificates for degree-4 Frobenius polynomials.

The classification of an irreducible monic integer quartic runs through
its resolvent cubic: no rational resolvent root gives S4 or A4 (split by
whether the discriminant is a square), three give V4, and exactly one
leaves D4 versus C4, decided by whether the two auxiliary quadratics
split over the discriminant field.

Everything is exact integer/rational arithmetic; nothing here needs the
curve modules.
"""

import math
from fractions import Fraction
from functools import lru_cache

from .errors import (
    NonUniqueSubfieldError,
    NoQuadraticSubfieldError,
    ReducibleQuarticError,
    StructureError,
)
from .exact_algebra import MultiPoly, UniPoly, discriminant, resultant

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
    poly = UniPoly([Fraction(c) for c in coeffs])
    d = discriminant(poly)
    if d.denominator != 1:
        raise ValueError("integer quartic produced a fractional discriminant")
    return d.numerator


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


class QuarticAnalysis:
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

    def __init__(
        self,
        coefficients,
        group,
        disc,
        resolvent,
        resolvent_roots,
        distinguished_root,
        delta_pair,
    ):
        object.__setattr__(self, "coefficients", tuple(coefficients))
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "discriminant", disc)
        object.__setattr__(self, "resolvent", tuple(resolvent))
        object.__setattr__(self, "resolvent_roots", tuple(resolvent_roots))
        object.__setattr__(self, "distinguished_root", distinguished_root)
        object.__setattr__(self, "delta_pair", delta_pair)

    def __setattr__(self, name, value):
        raise AttributeError("QuarticAnalysis is immutable")

    def __repr__(self):
        return (
            f"QuarticAnalysis(group={self.group!r}, "
            f"coefficients={list(self.coefficients)!r})"
        )


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


class QuadraticSubfield:
    """The unique quadratic subfield of a quartic Frobenius field,
    presented by the minimal polynomial of the sum of an eigenvalue and
    its companion p/eigenvalue."""

    __slots__ = ("p", "minimal_polynomial", "discriminant", "core")

    def __init__(self, p, minimal_polynomial, disc, core):
        object.__setattr__(self, "p", int(p))
        object.__setattr__(
            self, "minimal_polynomial", tuple(int(c) for c in minimal_polynomial)
        )
        object.__setattr__(self, "discriminant", int(disc))
        object.__setattr__(self, "core", int(core))

    def __setattr__(self, name, value):
        raise AttributeError("QuadraticSubfield is immutable")

    def __repr__(self):
        return (
            f"QuadraticSubfield(p={self.p}, core={self.core}, "
            f"minimal_polynomial={list(self.minimal_polynomial)!r})"
        )


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
    eigenvalue structure is fully separable."""
    coeffs = _frobenius_coefficients(weil_or_coefficients)
    poly = UniPoly([Fraction(c) for c in coeffs])
    return bool(discriminant(poly))


def _frobenius_coefficients(source):
    if hasattr(source, "frobenius_coefficients"):
        return tuple(int(c) for c in source.frobenius_coefficients)
    coeffs = tuple(int(c) for c in source)
    if len(coeffs) != 5:
        raise ValueError("need 5 ascending quartic coefficients")
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


class RootRatioReport:
    """Cyclotomic structure of the ratios of Frobenius eigenvalues.

    `orders` lists every n (within the scanned window) such that some
    ratio of two distinct eigenvalues is a primitive n-th root of unity;
    an empty tuple certifies that no scanned root of unity occurs.
    """

    __slots__ = ("orders", "ratio_coefficients", "max_order", "phi_bound")

    def __init__(self, orders, ratio_coefficients, max_order, phi_bound):
        object.__setattr__(self, "orders", tuple(orders))
        object.__setattr__(
            self, "ratio_coefficients", tuple(ratio_coefficients)
        )
        object.__setattr__(self, "max_order", int(max_order))
        object.__setattr__(self, "phi_bound", int(phi_bound))

    def __setattr__(self, name, value):
        raise AttributeError("RootRatioReport is immutable")

    @property
    def clean(self):
        return not self.orders

    def __repr__(self):
        return f"RootRatioReport(orders={list(self.orders)!r})"


def root_ratio_orders(weil_or_coefficients, *, max_order=90, phi_bound=24):
    """Scan the ratio polynomial of a separable quartic for cyclotomic
    factors.

    The ratio polynomial is Res_t(P(t), P(u t)) with the forced (u - 1)^4
    factor removed; its roots are exactly the ratios of distinct
    eigenvalues. Returns the orders n <= max_order with phi(n) <=
    phi_bound whose cyclotomic polynomial divides it.
    """
    coeffs = _frobenius_coefficients(weil_or_coefficients)
    if not tate_condition(coeffs):
        raise StructureError(
            "repeated Frobenius eigenvalues: the ratio polynomial "
            "degenerates"
        )
    names = ("u",)
    u = MultiPoly.variable("u", names)
    p_fixed = UniPoly([MultiPoly.constant(names, c) for c in coeffs])
    p_scaled = UniPoly(
        [MultiPoly.constant(names, c) * u ** k for k, c in enumerate(coeffs)]
    )
    res = resultant(p_fixed, p_scaled)
    shifted = (u - 1) ** 4
    ratio = res / shifted
    degree = ratio.degree_in("u")
    ratio_coeffs = []
    for k in range(degree + 1):
        c = ratio.coefficient_of("u", k).constant_value()
        if c.denominator != 1:
            raise ArithmeticError("ratio polynomial must have integer entries")
        ratio_coeffs.append(c.numerator)
    ratio_poly = UniPoly([Fraction(c) for c in ratio_coeffs])
    orders = []
    for n in range(1, max_order + 1):
        if euler_phi(n) > phi_bound:
            continue
        phi_n = UniPoly([Fraction(c) for c in cyclotomic(n)])
        if ratio_poly.degree < phi_n.degree:
            continue
        _, rem = ratio_poly.divmod(phi_n)
        if rem.is_zero():
            orders.append(n)
    return RootRatioReport(orders, ratio_coeffs, max_order, phi_bound)
