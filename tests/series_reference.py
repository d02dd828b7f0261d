"""Per-exponent Laurent series arithmetic for the tests: the sum and
product that `TruncatedSeries` ran on a dict of MultiPoly coefficients,
one per t-exponent, before it stored the whole series as one fraction-free
term map. They are kept here as the oracle that the term-map arithmetic
is checked against.

Every function takes and returns `TruncatedSeries`, but reads only
`coefficients` and `truncation` and builds its result with the public
constructor, so all of its arithmetic is MultiPoly arithmetic, exponent
by exponent.
"""

from spectral_torelli.exact_algebra import MultiPoly
from spectral_torelli.series_kernel import EXACT, TruncatedSeries


def valuation(a):
    coefficients = a.coefficients
    return min(coefficients) if coefficients else a.truncation


def negated(a):
    return TruncatedSeries(
        a.variables, {e: -c for e, c in a.coefficients.items()}, a.truncation
    )


def series_sum(a, b):
    """a + b on the shorter of the two windows."""
    trunc = min(a.truncation, b.truncation)
    out = {e: c for e, c in a.coefficients.items() if e < trunc}
    for e, d in b.coefficients.items():
        if e < trunc:
            out[e] = out[e] + d if e in out else d
    return TruncatedSeries(a.variables, out, trunc)


def series_product(a, b):
    """a * b: the unknown tail of one factor meets the valuation of the
    other; an exactly known factor imposes no bound, and an exact zero
    factor makes the product an exact zero."""
    for factor in (a, b):
        if factor.truncation >= EXACT and not factor.coefficients:
            return factor
    bounds = []
    if a.truncation < EXACT:
        bounds.append(a.truncation + valuation(b))
    if b.truncation < EXACT:
        bounds.append(b.truncation + valuation(a))
    trunc = min([EXACT, *bounds])
    out = {}
    for e1, c1 in a.coefficients.items():
        for e2, c2 in b.coefficients.items():
            e = e1 + e2
            if e < trunc:
                out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return TruncatedSeries(a.variables, out, trunc)


def series_power(a, n):
    """a ** n as n - 1 products from the left; the exact 1 for n = 0."""
    result = TruncatedSeries(
        a.variables, {0: MultiPoly.constant(a.variables, 1)}, EXACT
    )
    for k in range(n):
        result = a if k == 0 else series_product(result, a)
    return result


def series_derivative(a):
    """d/dt, with the truncation lowered by one unless the series is
    exactly known."""
    out = {e - 1: c * e for e, c in a.coefficients.items() if e}
    trunc = EXACT if a.truncation >= EXACT else a.truncation - 1
    return TruncatedSeries(a.variables, out, trunc)
