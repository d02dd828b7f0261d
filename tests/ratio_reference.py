"""The ratio polynomial of a Frobenius quartic for the tests: the
construction that `root_ratio_orders` once scanned, kept as the reference
its pair count is checked against. The package itself builds no ratio
polynomial and no cyclotomic polynomial.

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

from spectral_torelli.galois_certificates import _power_sums


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
    s = _power_sums((e, d, c, b, 1), 12)
    t = _power_sums((e**3, b * e**2, c * e, d, 1), 12)
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
