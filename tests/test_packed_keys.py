"""Packed monomial keys: `MultiPoly` and `TruncatedSeries` arithmetic
against the tuple-keyed oracle in multipoly_reference.py and the
per-exponent oracle in series_reference.py, the guard-bit rule, and the
hot paths that must not go through the tuple view `numerators`."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_torelli.curve_catalog import catalog_get
from spectral_torelli.endo_pipeline import verify_painleve_divisor_gar92
from spectral_torelli.errors import (
    DegenerateCurveError,
    DegreeBoundError,
    ExactDivisionError,
)
from spectral_torelli.exact_algebra import EXPONENT_LIMIT, MultiPoly
from spectral_torelli.igusa_invariants import (
    frozen_rank_witnesses,
    rank_at_point,
)
from spectral_torelli.series_kernel import EXACT, TruncatedSeries

from multipoly_reference import (
    poly_power,
    poly_product,
    poly_quotient,
    poly_sum,
)
from series_reference import series_product, series_sum, valuation

NAMES = tuple(f"v{i}" for i in range(10))
COEFFS = st.builds(
    Fraction, st.integers(-20, 20), st.sampled_from((1, 2, 3, 7, 12))
)


def polys(names, max_exponent, max_terms=4):
    """Small exponents often, so that keys collide and cancel."""
    exponent = st.one_of(st.integers(0, 2), st.integers(0, max_exponent))
    exponents = st.tuples(*[exponent] * len(names))
    return st.dictionaries(exponents, COEFFS, max_size=max_terms).map(
        lambda terms: MultiPoly(names, terms)
    )


@st.composite
def poly_pairs(draw, max_exponent=300):
    names = NAMES[:draw(st.integers(1, 10))]
    return draw(polys(names, max_exponent)), draw(polys(names, max_exponent))


@settings(max_examples=200, deadline=None)
@given(poly_pairs(), st.integers(0, 3), COEFFS)
def test_multipoly_arithmetic_matches_the_tuple_keyed_oracle(pair, n, k):
    a, b = pair
    assert a + b == poly_sum(a, b)
    minus_one = MultiPoly.constant(b.variables, -1)
    assert a - b == poly_sum(a, poly_product(b, minus_one))
    assert a * b == poly_product(a, b)
    assert a * k == poly_product(a, MultiPoly.constant(a.variables, k))
    assert a ** n == poly_power(a, n)
    if b:
        assert (a * b) / b == poly_quotient(poly_product(a, b), b) == a


@settings(max_examples=200, deadline=None)
@given(poly_pairs(max_exponent=4))
def test_exact_division_matches_the_tuple_keyed_oracle(pair):
    """Small exponents, so that a division with a remainder fails after
    a few steps on both sides."""
    a, b = pair
    if not b:
        return
    try:
        expected = poly_quotient(a, b)
    except ExactDivisionError:
        with pytest.raises(ExactDivisionError):
            a / b
    else:
        assert a / b == expected


@st.composite
def series_pairs(draw):
    """Two series over 1-10 variables with exponents up to 300, poles
    down to t^-6, exactly known or truncated."""
    names = NAMES[:draw(st.integers(1, 10))]

    def one():
        exps = draw(st.lists(st.integers(-6, 6), max_size=4, unique=True))
        truncation = EXACT
        if draw(st.booleans()):
            truncation = max(exps, default=-6) + draw(st.integers(-1, 2))
            exps = [e for e in exps if e < truncation]
        coeffs = {e: draw(polys(names, 300, max_terms=3)) for e in exps}
        return TruncatedSeries(names, coeffs, truncation)

    return one(), one()


@settings(max_examples=200, deadline=None)
@given(series_pairs())
def test_series_arithmetic_matches_the_per_exponent_oracle(pair):
    a, b = pair
    assert TruncatedSeries(a.variables, a.coefficients, a.truncation) == a
    assert a.valuation() == valuation(a)
    assert a + b == series_sum(a, b)
    product = a * b
    assert product == series_product(a, b)
    assert product.truncation == series_product(a, b).truncation
    assert product.coefficients == series_product(a, b).coefficients


TOP = EXPONENT_LIMIT - 1
XY = ("x", "y")


def test_exponents_below_the_guard_bit_round_trip():
    x, y = (MultiPoly.variable(v, XY) for v in XY)
    assert (x ** TOP).numerators == {(TOP, 0): 1}
    assert MultiPoly(XY, {(TOP, TOP): 3}).terms == {(TOP, TOP): 3}
    # a sum never raises, and a cancelled bound does not linger
    high = y ** TOP
    assert (high + x).degree_in("y") == TOP
    assert (high - high) * high == 0


@pytest.mark.parametrize("build", [
    lambda x, y: MultiPoly(XY, {(EXPONENT_LIMIT, 0): 1}),
    lambda x, y: MultiPoly(XY, {(0, EXPONENT_LIMIT): 1}),
    lambda x, y: x ** TOP * x,
    lambda x, y: y * y ** TOP,
    lambda x, y: (2 * x * y) ** EXPONENT_LIMIT,
    lambda x, y: (y ** (TOP // 2 + 1)) ** 2,
    lambda x, y: TruncatedSeries.exact_constant(XY, y ** TOP)
    * TruncatedSeries(XY, {-1: y}, 3),
    lambda x, y: TruncatedSeries(XY, {0: x ** TOP}, 2) ** 2,
])
def test_a_result_that_could_reach_the_guard_bit_raises(build):
    """Each of these would carry out of a field (into its neighbour or
    into a series' t field) if it were packed."""
    x, y = (MultiPoly.variable(v, XY) for v in XY)
    with pytest.raises(DegreeBoundError):
        build(x, y)


def test_a_monomial_that_does_not_divide_raises():
    """A quotient exponent below 0 is a borrow from the next field up:
    x^2 / y must not come out as x * y^(2^16 - 1)."""
    names = ("x", "y", "z")
    x, y, z = (MultiPoly.variable(v, names) for v in names)
    for num, den in [(x**2, y), (x**2 * z, x * y), (y, x), (x * y**3, y**4),
                     (x**5, x**2 * z), (x**2 + y, y)]:
        with pytest.raises(ExactDivisionError):
            num / den
        with pytest.raises(ExactDivisionError):
            poly_quotient(num, den)
    assert (x**2 * y) / y == x**2
    assert (x**3 * z - y * z) / z == x**3 - y


def test_equality_compares_the_packed_maps():
    names = ("a", "b", "c")
    terms = {(1, 0, 2): Fraction(1, 2), (0, 3, 0): -4, (2, 0, 0): 7}
    reordered = dict(reversed(list(terms.items())))
    assert MultiPoly(names, terms) == MultiPoly(names, reordered)
    assert MultiPoly(names, terms) != MultiPoly(names, {(1, 0, 2): 1})
    assert MultiPoly(names, terms) != MultiPoly(("a", "c", "b"), terms)


def test_hot_paths_read_no_tuple_view(monkeypatch):
    """After a warm-up (cached data, generated functions, the families),
    `rank_at_point`, a full `CurveFamily.specialize` and the divisor
    replay never build the `numerators` view."""
    cases = [(catalog_get(w["family"]), w["point"])
             for w in frozen_rank_witnesses()]
    cases.append((catalog_get("KFS"), {"h1": 12, "h2": 17, "s": 29}))
    gar = catalog_get("Gar9/2")

    def run():
        for fam, point in cases:
            rank_at_point(fam, point)
            fam.specialize(point)
        with pytest.raises(DegenerateCurveError):
            rank_at_point(gar, dict.fromkeys(gar.parameters, 0))
        assert verify_painleve_divisor_gar92().identical

    run()
    reads = []
    view = MultiPoly.numerators

    def counted(self):
        reads.append(self)
        return view.fget(self)

    monkeypatch.setattr(MultiPoly, "numerators", property(counted))
    _ = MultiPoly.variable("x", XY).numerators
    assert len(reads) == 1  # the patch sees every read
    reads.clear()
    run()
    assert reads == []
