"""Tuple-keyed MultiPoly arithmetic for the tests: the sum, product and
exact division that `MultiPoly` ran on exponent tuples before it packed
each monomial into one int. They are kept here as the oracle that the
packed-key arithmetic is checked against.

Every function takes MultiPoly operands but reads only `variables`,
`numerators` and `denominator`, and builds its result with the public
constructor, so none of the packed-key code runs in it.
"""

import math
import operator
from fractions import Fraction

from spectral_torelli.errors import ExactDivisionError
from spectral_torelli.exact_algebra import MultiPoly

_add = operator.add


def _poly(variables, numerators, denominator):
    return MultiPoly(variables, {
        e: Fraction(n, denominator) for e, n in numerators.items()
    })


def _grlex_key(exponents):
    return (sum(exponents), exponents)


def poly_sum(a, b):
    den = math.lcm(a.denominator, b.denominator)
    s1, s2 = den // a.denominator, den // b.denominator
    out = {e: n * s1 for e, n in a.numerators.items()}
    for exps, n in b.numerators.items():
        out[exps] = out.get(exps, 0) + n * s2
    return _poly(a.variables, out, den)


def poly_product(a, b):
    out = {}
    get = out.get
    right = b.numerators.items()
    for e1, n1 in a.numerators.items():
        for e2, n2 in right:
            key = tuple(map(_add, e1, e2))
            out[key] = get(key, 0) + n1 * n2
    return _poly(a.variables, out, a.denominator * b.denominator)


def poly_power(a, n):
    """a ** n as n - 1 products from the left; the constant 1 for n = 0."""
    result = MultiPoly.constant(a.variables, 1)
    for k in range(n):
        result = a if k == 0 else poly_product(result, a)
    return result


def poly_quotient(a, b):
    """a / b by graded-lex reduction of the primitive numerators; raises
    ExactDivisionError on a remainder, ZeroDivisionError if b is 0."""
    if not b.numerators:
        raise ZeroDivisionError("division of polynomial by zero")
    if not a.numerators:
        return a
    content = math.gcd(*a.numerators.values())
    div_content = math.gcd(*b.numerators.values())
    div_terms = sorted(
        ((e, n // div_content) for e, n in b.numerators.items()),
        key=lambda kv: _grlex_key(kv[0]),
    )
    lead_e, lead_c = div_terms[-1]
    quotient = {}
    rem = {e: n // content for e, n in a.numerators.items()}
    while rem:
        e = max(rem, key=_grlex_key)
        q_e = tuple(x - y for x, y in zip(e, lead_e))
        q_c, r = divmod(rem[e], lead_c)
        if r or any(x < 0 for x in q_e):
            raise ExactDivisionError("no exact quotient")
        quotient[q_e] = q_c
        for de, dc in div_terms:
            key = tuple(map(_add, q_e, de))
            s = rem.get(key, 0) - q_c * dc
            if s:
                rem[key] = s
            else:
                rem.pop(key, None)
    scale = Fraction(content * b.denominator, div_content * a.denominator)
    return MultiPoly(a.variables, {e: n * scale for e, n in quotient.items()})
