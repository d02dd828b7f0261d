"""Galois-theoretic certificates for degree-4 Frobenius polynomials.

The classification of an irreducible monic integer quartic runs through
its resolvent cubic: no rational resolvent root gives S4 or A4 (split by
whether the discriminant is a square), three give V4, and exactly one
leaves D4 versus C4, decided by whether the two auxiliary quadratics
split over the discriminant field.

The real quadratic subfield. At a prime with an irreducible Weil
quartic, End^0(J_p) = Q(pi) is a quartic CM field (Tate, Invent. Math.
1966), and End^0_Q(J) embeds in it. A CM quartic field has exactly one
real quadratic subfield, K0 = Q(pi + p/pi) = Q(sqrt(a1^2 - 4 a2 + 8p)),
so its group is C4, V4 or D4, never S4 or A4; `quadratic_subfield` is
that formula. Under D4 or C4, K0 is the only quadratic subfield. Under
V4, Q(pi) = K0(sqrt(-d)) is biquadratic and also has the two imaginary
quadratic subfields Q(sqrt(-d)) and Q(sqrt(-d * disc K0)).

Hence the two-prime rule of `endo_pipeline`: two primes with different
real cores leave no room for a real quadratic or a quartic End^0_Q(J),
and an imaginary quadratic one cannot embed at a D4 or C4 prime, so a
TRIVIAL verdict also needs one of the two primes to be D4 or C4. Two V4
primes with different real cores do not exclude an imaginary quadratic
End^0_Q(J). Reductions bound endomorphism algebras of genus-2 Jacobians
in the same way in Lombardo (Math. Comp. 2019) and Costa, Mascot,
Sijsling and Voight (Math. Comp. 2019).

The Frobenius entry points `quadratic_subfield`, `tate_condition` and
`root_ratio_orders` take a `WeilPolynomial` (p, a1, a2), the only
Frobenius data a genus-2 reduction yields, and raise TypeError on
anything else; `factor_quartic` and `galois_group` classify any monic
integer quartic. Everything is exact integer/rational arithmetic;
nothing here needs the curve modules.
"""

import math
from functools import lru_cache

from ._record import Record
from .errors import DegreeBoundError, ReducibleQuarticError, StructureError
from .finite_arithmetic import WeilPolynomial

_TRIAL_LIMIT = 10 ** 6
_CERTIFIED_COFACTOR_BOUND = 10 ** 18
_SCAN_MAX_ORDER = 90
_SCAN_PHI_BOUND = 24


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


def _factor_monic(coeffs):
    """Irreducible monic integer factors (ascending tuples) of a monic
    integer polynomial of degree <= 4."""
    coeffs = [int(c) for c in coeffs]
    if coeffs[-1] != 1:
        raise ValueError("polynomial must be monic")
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
    )

    def __init__(self, coefficients, group, discriminant, resolvent,
                 resolvent_roots):
        super().__init__(tuple(coefficients), group, discriminant,
                         tuple(resolvent), tuple(resolvent_roots))


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
    its companion p/eigenvalue, and by its squarefree discriminant core."""

    __slots__ = ("minimal_polynomial", "core")

    def __init__(self, minimal_polynomial, core):
        super().__init__(tuple(int(c) for c in minimal_polynomial), int(core))


def _check_weil(weil):
    if not isinstance(weil, WeilPolynomial):
        raise TypeError(
            f"expected a WeilPolynomial, got {type(weil).__name__}"
        )


def quadratic_subfield(weil):
    """The real quadratic subfield Q(pi + p/pi) of the Frobenius field of
    a Weil polynomial (p, a1, a2).

    pi + p/pi is a root of s^2 - a1 s + (a2 - 2p), of discriminant
    a1^2 - 4 a2 + 8p. The roots of any quartic of this shape pair as
    r, p/r, so an irreducible one always has this quadratic subfield;
    inside the Weil bounds it is real. A square discriminant makes
    pi + p/pi rational, so the quartic is reducible, and raises
    ReducibleQuarticError.
    """
    _check_weil(weil)
    p, a1, a2 = weil.p, weil.a1, weil.a2
    disc = a1 * a1 - 4 * a2 + 8 * p
    if _is_square(disc):
        raise ReducibleQuarticError(
            f"a1^2 - 4 a2 + 8p = {disc} is a square: pi + p/pi is "
            "rational, so the Frobenius quartic is reducible"
        )
    return QuadraticSubfield((a2 - 2 * p, -a1, 1), squarefree_part(disc))


def tate_condition(weil):
    """True when the Frobenius quartic of a Weil polynomial has no
    repeated root, so its eigenvalue structure is fully separable."""
    _check_weil(weil)
    return bool(_quartic_discriminant(weil.frobenius_coefficients))


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
    """Ascending integer coefficients of the n-th cyclotomic polynomial:
    x^n - 1 divided exactly by cyclotomic(d) for every proper divisor d
    of n. Orders above 128 raise DegreeBoundError."""
    n = int(n)
    if n < 1:
        raise ValueError("positive integers only")
    if n > 128:
        raise DegreeBoundError(f"degree {n} exceeds bound 128")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _divmod_monic(poly, cyclotomic(d))
            if any(rem):
                raise ArithmeticError("cyclotomic division left a remainder")
    return tuple(poly)


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


@lru_cache(maxsize=1)
def _scanned_cyclotomics():
    """(n, cyclotomic(n)) for every scanned order n."""
    return tuple(
        (n, cyclotomic(n))
        for n in range(1, _SCAN_MAX_ORDER + 1)
        if euler_phi(n) <= _SCAN_PHI_BOUND
    )


def _divmod_monic(poly, divisor):
    """Quotient and remainder of an integer polynomial by a monic integer
    polynomial (all ascending)."""
    rem = list(poly)
    m = len(divisor) - 1
    quotient = [0] * (len(rem) - m)
    for top in range(len(rem) - 1, m - 1, -1):
        q = rem[top]
        if q:
            quotient[top - m] = q
            for i, c in enumerate(divisor):
                rem[top - m + i] -= q * c
    return quotient, rem[:m]


def root_ratio_orders(weil):
    """Scan the ratio polynomial of a separable Frobenius quartic for
    cyclotomic factors.

    The ratio polynomial is Res_t(P(t), P(u t)) with the forced (u - 1)^4
    factor removed; its roots are exactly the ratios of distinct
    eigenvalues. Returns the orders n <= 90 with phi(n) <= 24 whose
    cyclotomic polynomial divides it. Repeated eigenvalues raise
    StructureError.

    For the Frobenius quartic P = t^4 + b t^3 + c t^2 + d t + e, e = p^2,
    with roots r_i the resultant is prod_{i,j} (u r_i - r_j), so the
    ratio polynomial is e^4 prod_{i != j} (u - r_j / r_i). It is built
    from power sums, without the resultant. beta_i = e / r_i are the
    roots of the integer quartic t^4 + d t^3 + c e t^2 + b e^2 t + e^3,
    and the 12 algebraic integers gamma_ij = r_j beta_i = e r_j / r_i
    (i != j) have power sums s_k T_k - 4 e^k, where s_k and T_k are the
    power sums of the two quartics. Newton's identities turn those into
    the integer coefficients h_k of prod (x - gamma_ij) =
    sum_k h_k x^(12 - k), and the coefficient of u^(12 - k) in the ratio
    polynomial is h_k e^4 / e^k = h_k p^8 / p^(2k), which must be an
    integer.
    """
    if not tate_condition(weil):
        raise StructureError(
            "repeated Frobenius eigenvalues: the ratio polynomial "
            "degenerates"
        )
    e, d, c, b, _ = weil.frobenius_coefficients
    s = _power_sums((e, d, c, b, 1), 12)
    t = _power_sums((e**3, b * e**2, c * e, d, 1), 12)
    h = [1]
    for k in range(1, 13):
        total = sum(
            h[k - i] * (s[i] * t[i] - 4 * e**i) for i in range(1, k + 1)
        )
        h.append(-total // k)  # exact: the h_k are integers
    ratio_coeffs = []
    for k in range(12, -1, -1):
        q, r = divmod(h[k] * e**4, e**k)
        if r:
            raise ArithmeticError("ratio polynomial must have integer entries")
        ratio_coeffs.append(q)
    orders = [
        n
        for n, phi_n in _scanned_cyclotomics()
        if len(phi_n) <= len(ratio_coeffs)
        and not any(_divmod_monic(ratio_coeffs, phi_n)[1])
    ]
    return RootRatioReport(
        orders, ratio_coeffs, _SCAN_MAX_ORDER, _SCAN_PHI_BOUND
    )
