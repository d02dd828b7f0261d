"""Two references for `root_ratio_orders`, kept for the tests.

The ratio polynomial of a Frobenius quartic: the construction that
`root_ratio_orders` once scanned. The package itself builds no ratio
polynomial and no cyclotomic polynomial.

The power-sum pair count (`power_sum_ratio_orders`): the same pair count
c(n) as the package, with the quartic of n-th powers read from the
power sums s_n and s_2n of the eigenvalues (Newton's identities up to
s_60) instead of from Dickson steps.

For the Frobenius quartic P = t^4 + b t^3 + c t^2 + d t + e, e = p^2,
with roots r_i, Res_t(P(t), P(u t)) = prod_{i,j} (u r_i - r_j), so with
the forced (u - 1)^4 removed it is e^4 prod_{i != j} (u - r_j / r_i):
its roots are exactly the ratios of distinct eigenvalues. It is built
from power sums, without the resultant. beta_i = e / r_i are the roots
of the integer quartic t^4 + d t^3 + c e t^2 + b e^2 t + e^3, and the 12
algebraic integers gamma_ij = r_j beta_i = e r_j / r_i (i != j) have
power sums s_k T_k - 4 e^k, where s_k and T_k are the power sums of the
two quartics. Newton's identities turn those into the integer
coefficients h_k of prod (x - gamma_ij) = sum_k h_k x^(12 - k), and the
coefficient of u^(12 - k) in the ratio polynomial is h_k e^4 / e^k =
h_k p^8 / p^(2k), which must be an integer.
"""

from functools import lru_cache

from spectral_torelli.errors import StructureError
from spectral_torelli.galois_certificates import (
    _RATIO_STEPS,
    _coinciding_pairs,
    tate_condition,
)


def power_sums(coefficients, count):
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


def power_sum_ratio_orders(weil):
    """The orders of `root_ratio_orders`, from P_n = t^4 - b1 t^3 + b2 t^2
    - q b1 t + q^2 with b1 = s_n, b2 = (s_n^2 - s_2n) / 2 and q = p^n."""
    if not tate_condition(weil):
        raise StructureError("repeated Frobenius eigenvalues")
    p = weil.p
    s = power_sums(weil.frobenius_coefficients, 2 * max(_RATIO_STEPS))
    exact = {}
    for n in _RATIO_STEPS:
        pairs = _coinciding_pairs(p**n, s[n], (s[n] * s[n] - s[2 * n]) // 2)
        exact[n] = pairs - sum(exact[d] for d in exact if n % d == 0)
    return tuple(n for n, count in exact.items() if count)


def divmod_monic(poly, divisor):
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


@lru_cache(maxsize=None)
def cyclotomic(n):
    """Ascending integer coefficients of the n-th cyclotomic polynomial:
    x^n - 1 divided exactly by cyclotomic(d) for every proper divisor d
    of n."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly, rem = divmod_monic(poly, cyclotomic(d))
            assert not any(rem)
    return tuple(poly)


def ratio_polynomial(weil):
    """Ascending integer coefficients of the degree-12 ratio polynomial
    of a Weil polynomial (see the module docstring)."""
    e, d, c, b, _ = weil.frobenius_coefficients
    s = power_sums((e, d, c, b, 1), 12)
    t = power_sums((e**3, b * e**2, c * e, d, 1), 12)
    h = [1]
    for k in range(1, 13):
        total = sum(
            h[k - i] * (s[i] * t[i] - 4 * e**i) for i in range(1, k + 1)
        )
        h.append(-total // k)  # exact: the h_k are integers
    coefficients = []
    for k in range(12, -1, -1):
        q, r = divmod(h[k] * e**4, e**k)
        assert not r
        coefficients.append(q)
    return tuple(coefficients)
