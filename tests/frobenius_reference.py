"""The Hasse-Witt recurrence and the Jacobian order test as they were
before the packed-int kernel and the one-ladder order test: the
reference the production kernels are checked against.

`power_head` takes a dozen small products per coefficient. `order_test`
finds [P(1) of the first candidate]D with its own double-and-add,
apart from R = [p]D. The group law itself (`_jac_add`, `_jac_double`)
and the point and divisor helpers are the package's.
"""

from spectral_torelli.finite_arithmetic import (
    _ORDER_TEST_DIVISORS,
    _jac_add,
    _jac_double,
    _points,
    _two_points,
)


def inverse_table(p):
    """[0, 1/1, ..., 1/(p-1)] mod p, as `_hasse_witt` builds it."""
    inverses = [0, 1]
    for m in range(2, p):
        inverses.append((p - p // m) * inverses[p % m] % p)
    return inverses


def power_head(f, p, inverses):
    """Coefficients p-2 and p-1 of f^((p-1)/2), f ascending residues of
    degree at most 6 with f(0) != 0, by the recurrence of f*g' = k*f'*g
    on h = (f/f0)^k."""
    k = (p - 1) // 2
    inv0 = pow(f[0], -1, p)
    e1, e2, e3, e4, e5, e6 = (c * inv0 % p for c in f[1:7])
    half = k + 1
    a1, a2, a3, a4, a5, a6 = (
        i * half * e % p for i, e in enumerate((e1, e2, e3, e4, e5, e6), 1)
    )
    h1, h2, h3, h4, h5, h6 = 1, 0, 0, 0, 0, 0
    for m in range(1, p):
        h = (
            a1 * h1 + a2 * h2 + a3 * h3 + a4 * h4 + a5 * h5 + a6 * h6
            - m * (e1 * h1 + e2 * h2 + e3 * h3 + e4 * h4 + e5 * h5 + e6 * h6)
        ) * inverses[m] % p
        h1, h2, h3, h4, h5, h6 = h, h1, h2, h3, h4, h5
    sign = pow(f[0], k, p)
    return h2 * sign % p, h1 * sign % p


def jac_mul(divisor, n, f, p):
    """[n]divisor for n >= 1, by doubling and adding."""
    result = divisor
    for bit in bin(n)[3:]:
        result = _jac_double(result, f, p)
        if bit == "1":
            result = _jac_add(result, divisor, f, p)
    return result


def order_test(f, p, a1, candidates):
    """The candidates a2 whose P(1) annihilates each of a few divisor
    classes, once one is left; None if they leave several."""
    first = p * p + 1 - a1 * (p + 1) + candidates[0]
    points = _points(f, p)
    alive = range(len(candidates))
    for _ in range(_ORDER_TEST_DIVISORS):
        divisor = _two_points(*next(points), *next(points), f, p)
        step = jac_mul(divisor, p, f, p)
        current = jac_mul(divisor, first, f, p)
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
