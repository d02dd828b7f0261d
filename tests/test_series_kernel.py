"""Windowed Laurent arithmetic and the transcribed pole expansion.

Products of exactly known series are checked against sympy, and the
term-map arithmetic against the per-exponent oracle in series_reference.py;
the window bookkeeping and the composition machinery are checked on
hand-built cases with known answers.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_torelli.endo_pipeline import verify_painleve_divisor_gar92
from spectral_torelli.errors import AlignmentError, TruncationError
from spectral_torelli.exact_algebra import MultiPoly
from spectral_torelli.series_kernel import (
    EXACT,
    LaurentSolution,
    TruncatedSeries,
    garnier92_hamiltonian_values,
    garnier92_hamiltonians,
    garnier92_solution,
    substitute_hamiltonian,
    verify_hamilton_flow,
)

from series_reference import (
    negated,
    series_derivative,
    series_power,
    series_product,
    series_sum,
    valuation,
)

VARS = ("u",)
PHASE = ("q1", "p1", "q2", "p2")


def series(coeffs, truncation=EXACT):
    return TruncatedSeries(VARS, coeffs, truncation)


def const(value):
    return MultiPoly.constant(VARS, Fraction(value))


def trivial_solution(**overrides):
    parts = {name: TruncatedSeries.exact_constant(VARS, 1) for name in PHASE}
    parts.update(overrides)
    return LaurentSolution(**parts)


def phase_poly(text):
    return MultiPoly.parse(text, PHASE)


def test_construction_normalizes():
    s = series({0: 0, 2: 3}, truncation=5)
    assert s.known_exponents() == [2]
    assert s.coefficient(0).is_zero()
    assert s.coefficient(2) == const(3)
    with pytest.raises(ValueError):
        series({5: 1}, truncation=5)
    with pytest.raises(AlignmentError):
        series({0: MultiPoly.constant(("v",), 1)}, truncation=2)
    with pytest.raises(AttributeError):
        s.truncation = 9


def test_window_access():
    s = series({-1: 2}, truncation=3)
    assert s.coefficient(1).is_zero()
    with pytest.raises(TruncationError):
        s.coefficient(3)
    assert s.valuation() == -1
    empty = series({}, truncation=4)
    assert empty.is_known_zero()
    assert empty.valuation() == 4


def test_addition_takes_shorter_window():
    a = series({-1: 1, 2: 5}, truncation=4)
    b = series({2: 1, 5: 7}, truncation=6)
    total = a + b
    assert total.truncation == 4
    # below a's window end, a's missing entries are known zeros
    assert total.known_exponents() == [-1, 2]
    assert total.coefficient(2) == const(6)
    assert total.coefficient(3).is_zero()
    diff = a - a
    assert diff.is_known_zero()
    assert diff.truncation == 4


def test_scalar_multiplication():
    a = series({1: 2}, truncation=4)
    assert (a * 3).coefficient(1) == const(6)
    assert (Fraction(1, 2) * a).coefficient(1) == const(1)
    poly = MultiPoly.parse("u + 1", VARS)
    assert (a * poly).coefficient(1) == poly * 2
    zero = a * 0
    assert zero.is_known_zero() and zero.truncation == EXACT
    with pytest.raises(AlignmentError):
        a * MultiPoly.constant(("v",), 2)


def test_product_of_exact_series_matches_sympy():
    rng = random.Random(61)
    t = sympy.Symbol("t")
    for _ in range(25):
        ac = {e: Fraction(rng.randint(-5, 5)) for e in range(-3, 4)}
        bc = {e: Fraction(rng.randint(-5, 5)) for e in range(-3, 4)}
        a = series({e: c for e, c in ac.items() if c})
        b = series({e: c for e, c in bc.items() if c})
        prod = a * b
        ref = sympy.expand(
            sum(sympy.Rational(c) * t ** e for e, c in ac.items())
            * sum(sympy.Rational(c) * t ** e for e, c in bc.items())
        )
        assert prod.truncation == EXACT
        for e in range(-8, 9):
            mine = prod.coefficient(e).constant_value()
            assert mine == Fraction(str(ref.coeff(t, e)))


def test_product_window_rule():
    a = series({-2: 1, 1: 1}, truncation=3)
    b = series({-1: 1, 2: 2}, truncation=4)
    prod = a * b
    # unknown tail of one factor meets the lowest term of the other
    assert prod.truncation == min(3 + (-1), 4 + (-2))
    assert prod.known_exponents() == [-3, 0]
    assert prod.coefficient(0) == const(3)
    nothing = series({}, truncation=1)
    pole = series({-3: 1})
    shifted = nothing * pole
    assert shifted.truncation == 1 + (-3)
    assert shifted.is_known_zero()


def test_power_and_differentiate():
    one_plus_t = series({0: 1, 1: 1})
    cube = one_plus_t ** 3
    assert [cube.coefficient(k).constant_value() for k in range(4)] == [
        1, 3, 3, 1,
    ]
    s = series({0: 4, 2: 3}, truncation=5)
    ds = s.differentiate()
    assert ds.truncation == 4
    assert ds.known_exponents() == [1]
    assert ds.coefficient(1) == const(6)
    flat = TruncatedSeries.exact_constant(VARS, 7).differentiate()
    assert flat.is_known_zero() and flat.truncation == EXACT


def test_agrees_with_compares_shared_window():
    a = series({0: 1}, truncation=2)
    b = series({0: 1, 3: 9}, truncation=5)
    assert a.agrees_with(b)
    assert b.agrees_with(a)
    c = series({0: 1, 1: 1}, truncation=5)
    assert not a.agrees_with(c)


def test_str_marks_the_window():
    s = series({-2: 3, 0: 1}, truncation=4)
    text = str(s)
    assert "t^-2" in text and "O(t^4)" in text
    assert "O(" not in str(series({1: 1}))


def test_solution_container():
    sol = trivial_solution(q2=series({-1: 1}, truncation=2))
    assert sol.series("q2").valuation() == -1
    with pytest.raises(KeyError):
        sol.series("q3")
    swapped = sol.replace(p2=series({5: 1}, truncation=6))
    assert swapped.p2.valuation() == 5
    assert swapped.q2 is sol.q2
    with pytest.raises(AlignmentError):
        trivial_solution(q1=TruncatedSeries.exact_constant(("v",), 1))


def test_composition_keeps_high_intermediate_exponents():
    # p1*q2^2 with p1 = t + t^4 and q2 = t^-3: the t^4 term exceeds the
    # requested order on its own but lands at t^-2 against the double pole.
    # Pruning intermediates would silently lose it.
    sol = trivial_solution(
        p1=series({1: 1, 4: 1}),
        q2=series({-3: 1}),
    )
    comp = substitute_hamiltonian(phase_poly("p1*q2^2"), sol, max_order=2)
    assert comp.truncation == 2
    assert comp.known_exponents() == [-5, -2]
    assert comp.coefficient(-2) == const(1)


def test_composition_truncates_at_first_unknown_tail():
    # same product, but p1 known only below t^5: its tail enters at
    # 5 - 6 = -1, so only the two lower coefficients are determined
    sol = trivial_solution(
        p1=series({1: 1, 4: 1}, truncation=5),
        q2=series({-3: 1}),
    )
    comp = substitute_hamiltonian(phase_poly("p1*q2^2"), sol, max_order=2)
    assert comp.truncation == -1
    assert comp.known_exponents() == [-5, -2]


def test_composition_with_undetermined_window():
    sol = trivial_solution(q1=series({}, truncation=0))
    with pytest.raises(TruncationError):
        substitute_hamiltonian(phase_poly("q1"), sol, max_order=4)


def test_composition_returns_a_determined_zero_window():
    # q1 = t exactly: every coefficient below t^1 is known to vanish, so
    # max_order=1 cuts a determined all-zero window, which is an answer
    sol = trivial_solution(q1=series({1: 1}))
    comp = substitute_hamiltonian(phase_poly("q1"), sol, max_order=1)
    assert comp.is_known_zero()
    assert comp.truncation == 1
    comp = substitute_hamiltonian(phase_poly("q1"), sol, max_order=2)
    assert comp.truncation == 2
    assert comp.known_exponents() == [1]


def test_composition_returns_zero_when_windows_cut_above_its_lowest_order():
    # q1^2 - q2 with q1 = t and q2 = t^2 + O(t^3): orders 2 and below are
    # determined and vanish, the window of q2 cuts at t^3 < max_order
    sol = trivial_solution(q1=series({1: 1}), q2=series({2: 1}, truncation=3))
    comp = substitute_hamiltonian(phase_poly("q1^2 - q2"), sol, max_order=4)
    assert comp.is_known_zero()
    assert comp.truncation == 3
    # q2 = O(t^2) alone: its window cuts at its own lowest order
    sol = trivial_solution(q2=series({}, truncation=2))
    with pytest.raises(TruncationError):
        substitute_hamiltonian(phase_poly("q2"), sol, max_order=4)


def test_composition_input_validation():
    sol = trivial_solution()
    with pytest.raises(TypeError):
        substitute_hamiltonian("q1", sol)
    foreign = MultiPoly.parse("q1*zz", ("q1", "zz"))
    with pytest.raises(AlignmentError):
        substitute_hamiltonian(foreign, sol)


def test_composition_without_phase_variables():
    sol = garnier92_solution()
    H = MultiPoly.parse("s1*s2 + 3", PHASE + ("s1", "s2"))
    comp = substitute_hamiltonian(H, sol, max_order=4)
    assert comp.truncation == EXACT
    assert comp.coefficient(0) == MultiPoly.parse("s1*s2 + 3", sol.variables)


def test_transcribed_solution_pole_orders():
    sol = garnier92_solution()
    assert sol.variables == ("alpha", "beta", "gamma", "s1", "s2")
    poles = {name: sol.series(name).valuation() for name in PHASE}
    assert poles == {"q1": -5, "p1": -2, "q2": -3, "p2": -2}
    for name in PHASE:
        assert sol.series(name).truncation > 0


def test_first_flow_residuals_vanish():
    H1, _ = garnier92_hamiltonians()
    report = verify_hamilton_flow(H1, garnier92_solution(), max_order=6)
    assert report.all_zero
    labels = {c.label for c in report.checks}
    assert labels == {
        "dq1/dt - dH/dp1",
        "dp1/dt + dH/dq1",
        "dq2/dt - dH/dp2",
        "dp2/dt + dH/dq2",
    }
    check = report.check("dq1/dt - dH/dp1")
    assert check.vanishes and check.first_nonzero() is None
    assert "all computable" in check.describe()
    with pytest.raises(KeyError):
        report.check("dq3/dt")


def test_flow_report_localizes_failures():
    H1, _ = garnier92_hamiltonians()
    sol = garnier92_solution()
    broken = sol.replace(q1=sol.q1 * 2)
    report = verify_hamilton_flow(H1, broken, max_order=4)
    assert not report.all_zero
    bad = report.check("dq1/dt - dH/dp1")
    assert not bad.vanishes
    assert bad.first_nonzero() == -6
    assert "first nonzero at t^-6" in bad.describe()
    # the q2 equations do not involve q1's scale at leading order
    assert report.check("dq2/dt - dH/dp2").vanishes


def test_hamiltonian_values_are_the_constant_terms():
    sol = garnier92_solution()
    h1_stored, h2_stored = garnier92_hamiltonian_values()
    H1, H2 = garnier92_hamiltonians()
    for H, stored in ((H1, h1_stored), (H2, h2_stored)):
        comp = substitute_hamiltonian(H, sol, max_order=4)
        # every polar coefficient cancels exactly; only the constant is left
        assert comp.known_exponents() == [0]
        assert comp.truncation == 1
        assert comp.coefficient(0) == stored


def _gamma_shifted(sol):
    images = {"gamma": MultiPoly.parse("gamma + 1", sol.variables)}
    def shift(s):
        return TruncatedSeries(
            s.variables,
            {e: c.substitute(images) for e, c in s.coefficients.items()},
            s.truncation,
        )
    return sol.replace(**{name: shift(sol.series(name)) for name in PHASE})


def test_free_parameter_shift_preserves_flow_not_values():
    sol = _gamma_shifted(garnier92_solution())
    H1, H2 = garnier92_hamiltonians()
    h1_stored, h2_stored = garnier92_hamiltonian_values()
    assert verify_hamilton_flow(H1, sol, max_order=4).all_zero
    assert substitute_hamiltonian(H1, sol, max_order=2).coefficient(0) != h1_stored
    assert substitute_hamiltonian(H2, sol, max_order=2).coefficient(0) != h2_stored


GOLDEN = Path(__file__).parent / "golden"

_DIVISOR_COMPOSITIONS = (("H1", 4), ("H2", 4)) + tuple(
    (f"dH1/d{v}", 8) for v in ("p1", "q1", "p2", "q2")
)


def _divisor_composition(label):
    H1, H2 = garnier92_hamiltonians()
    if label == "H1":
        return H1
    if label == "H2":
        return H2
    return H1.derivative(label[len("dH1/d"):])


def test_divisor_replay_compositions_golden():
    """The six compositions of the `verify-divisor gar92` replay, as
    recorded before composition moved onto TruncatedSeries arithmetic."""
    sol = garnier92_solution()
    table = {}
    for label, order in _DIVISOR_COMPOSITIONS:
        comp = substitute_hamiltonian(
            _divisor_composition(label), sol, max_order=order
        )
        table[label] = {
            "max_order": order,
            "truncation": comp.truncation,
            "coefficients": {
                str(e): str(comp.coefficients[e])
                for e in comp.known_exponents()
            },
        }
    text = (GOLDEN / "compositions_gar92.json").read_text()
    assert json.dumps(table, indent=1) + "\n" == text


def test_placeholders_extend_the_determined_window():
    # plain evaluation over the transcribed windows only knows H2 below
    # t^-1; the placeholder tails prove the constant term determined
    sol = garnier92_solution()
    _, H2 = garnier92_hamiltonians()
    assert substitute_hamiltonian(H2, sol, max_order=4).truncation == 1
    values = {name: sol.series(name) for name in PHASE}
    for name in ("s1", "s2"):
        values[name] = TruncatedSeries.exact_constant(
            sol.variables, MultiPoly.variable(name, sol.variables)
        )
    assert H2.evaluate(values).truncation == -1


@pytest.mark.parametrize(
    "scalar", [3, Fraction(-1, 2), MultiPoly.parse("u + 1", VARS)]
)
def test_scalars_coerce_to_exact_constants_on_both_sides(scalar):
    a = series({-1: 2, 1: 1}, truncation=3)
    exact = TruncatedSeries.exact_constant(VARS, scalar)
    assert a + scalar == scalar + a == a + exact
    assert a * scalar == scalar * a == a * exact
    assert scalar - a == exact - a
    assert (scalar - a) + a == exact + series({}, truncation=3)
    assert (a * scalar).coefficient(1) == const(1) * scalar
    # a constant at t^0 lands inside the window only below the truncation
    assert (series({}, truncation=0) + scalar).is_known_zero()


COEFFICIENT_VARS = ("u", "v")
_denominators = st.sampled_from((1, 2, 3, 6, 35))


@st.composite
def _coefficient(draw, den):
    """A MultiPoly in two variables; its terms share `den`, or draw their
    own denominators when it is None."""
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.integers(-3, 3),
        max_size=3,
    ))
    return MultiPoly(COEFFICIENT_VARS, {
        e: Fraction(n, den or draw(_denominators)) for e, n in terms.items()
    })


@st.composite
def _laurent_series(draw, den):
    """Poles up to t^-4; exactly known, or truncated just past its last
    drawn exponent."""
    exps = draw(st.lists(st.integers(-4, 3), max_size=4, unique=True))
    if draw(st.booleans()):
        truncation = EXACT
    else:
        truncation = max(exps, default=-4) + draw(st.integers(-1, 2))
        exps = [e for e in exps if e < truncation]
    coeffs = {e: draw(_coefficient(den)) for e in exps}
    return TruncatedSeries(COEFFICIENT_VARS, coeffs, truncation)


@st.composite
def _series_pairs(draw):
    """Two series over one denominator or their own; the second may be
    the negated first plus a third series, so that their sum cancels,
    to zero where the third is an exact zero."""
    den = draw(st.one_of(st.none(), _denominators))
    a = draw(_laurent_series(den))
    b = draw(_laurent_series(den))
    if draw(st.booleans()):
        rest = draw(st.one_of(
            st.just(TruncatedSeries.exact_zero(COEFFICIENT_VARS)),
            _laurent_series(den),
        ))
        b = series_sum(negated(a), rest)
    return a, b


@settings(max_examples=150)
@given(pair=_series_pairs(), n=st.integers(0, 4))
def test_term_map_arithmetic_matches_the_per_exponent_oracle(pair, n):
    a, b = pair
    assert TruncatedSeries(a.variables, a.coefficients, a.truncation) == a
    assert a + b == series_sum(a, b)
    assert a - b == series_sum(a, negated(b))
    assert -a == negated(a)
    product = a * b
    assert product == series_product(a, b)
    assert product.truncation == series_product(a, b).truncation
    assert a ** n == series_power(a, n)
    assert a.differentiate() == series_derivative(a)
    assert a.valuation() == valuation(a)
    for e in range(-8, 7):
        if e < product.truncation:
            expected = product.coefficients.get(e, MultiPoly.zero(a.variables))
            assert product.coefficient(e) == expected


def test_series_arithmetic_makes_no_coefficient_polynomials(monkeypatch):
    a = TruncatedSeries(COEFFICIENT_VARS, {
        -2: MultiPoly.parse("u^2 - 1/2*v", COEFFICIENT_VARS),
        0: Fraction(1, 3),
        1: MultiPoly.parse("u*v + 2", COEFFICIENT_VARS),
    }, 3)
    b = TruncatedSeries(COEFFICIENT_VARS, {
        -1: MultiPoly.parse("v - 1/6", COEFFICIENT_VARS), 2: 5,
    }, EXACT)
    calls = []
    for name in ("__mul__", "__add__"):
        def counted(*args, _name=name, _f=getattr(MultiPoly, name)):
            calls.append(_name)
            return _f(*args)
        monkeypatch.setattr(MultiPoly, name, counted)
    results = (a * b, a + b, a - b, b * a * a, a * 3, a ** 3)
    assert calls == []
    monkeypatch.undo()
    three = TruncatedSeries.exact_constant(COEFFICIENT_VARS, 3)
    assert results == (
        series_product(a, b), series_sum(a, b), series_sum(a, negated(b)),
        series_product(series_product(b, a), a), series_product(a, three),
        series_power(a, 3),
    )


def test_zero_scalars_are_exact_zeros():
    a = series({-2: 1}, truncation=-1)
    for zero in (0, Fraction(0), MultiPoly.zero(VARS)):
        for prod in (a * zero, zero * a):
            assert prod.is_known_zero() and prod.truncation == EXACT


def test_scalar_over_other_variables_is_rejected():
    a = series({0: 1}, truncation=2)
    other = MultiPoly.constant(("v",), 2)
    for op in (
        lambda: a + other,
        lambda: other + a,
        lambda: a * other,
        lambda: other * a,
        lambda: a * MultiPoly.zero(("v",)),
    ):
        with pytest.raises(AlignmentError):
            op()


PASSIVE = ("s1", "s2")
HVARS = PHASE + PASSIVE

_windows = st.tuples(
    st.integers(-3, 1),
    st.lists(st.integers(-3, 3), min_size=0, max_size=3),
    st.integers(0, 3),
)
_monomials = st.tuples(
    st.integers(-3, 3),
    st.lists(st.sampled_from(PHASE), max_size=3),
    st.lists(st.sampled_from(PASSIVE), max_size=1),
)


def _window_series(window):
    low, coeffs, unknown_gap = window
    known = {low + k: MultiPoly.constant(PASSIVE, c) for k, c in enumerate(coeffs)}
    return TruncatedSeries(PASSIVE, known, low + len(coeffs) + unknown_gap)


def _hamiltonian(monomials):
    H = MultiPoly.zero(HVARS)
    for coeff, phase, passive in monomials:
        term = MultiPoly.constant(HVARS, coeff)
        for name in phase + passive:
            term = term * MultiPoly.variable(name, HVARS)
        H = H + term
    return H


@settings(max_examples=80)
@given(
    windows=st.tuples(_windows, _windows, _windows, _windows),
    monomials=st.lists(_monomials, min_size=1, max_size=4),
    max_order=st.integers(-2, 4),
)
def test_composition_refines_plain_evaluation(windows, monomials, max_order):
    sol = LaurentSolution(*map(_window_series, windows))
    H = _hamiltonian(monomials)
    try:
        comp = substitute_hamiltonian(H, sol, max_order=max_order)
    except TruncationError:
        return
    values = {name: sol.series(name) for name in PHASE}
    for name in PASSIVE:
        values[name] = TruncatedSeries.exact_constant(
            PASSIVE, MultiPoly.variable(name, PASSIVE)
        )
    plain = TruncatedSeries.exact_zero(PASSIVE) + H.evaluate(values)
    assert comp.agrees_with(plain)
    if H.used_variables() & set(PHASE):
        assert min(plain.truncation, max_order) <= comp.truncation <= max_order
    else:
        assert comp.truncation == EXACT


def _per_exponent_composition(H, sol, max_order):
    """Reference for `substitute_hamiltonian`: the same honest window,
    found with a placeholder at every unknown exponent of every series
    below tail_top instead of one placeholder per series. H must use a
    phase variable."""
    base = sol.variables
    val = {v: sol.series(v).valuation() for v in PHASE}
    rests, lowest = [], []
    for exps in H.numerators:
        phase = [(val[v], e) for v, e in zip(H.variables, exps) if e and v in val]
        lowest.append(sum(o * e for o, e in phase))
        if phase:
            rests.append(lowest[-1] - max(o for o, _ in phase))
    tail_top = max_order - min(rests)
    cells = [
        (v, j) for v in PHASE for j in range(sol.series(v).truncation, tail_top)
    ]
    ext = base + tuple(f"_cell{i}" for i in range(len(cells)))
    windows = {
        v: {e: c.with_variables(ext) for e, c in sol.series(v).coefficients.items()}
        for v in PHASE
    }
    for symbol, (v, j) in zip(ext[len(base):], cells):
        windows[v][j] = MultiPoly.variable(symbol, ext)
    values = {
        v: TruncatedSeries(ext, windows[v], max(tail_top, sol.series(v).truncation))
        for v in PHASE
    }
    for v in H.variables:
        image = MultiPoly.variable(v, ext) if v in base else 0
        values.setdefault(v, TruncatedSeries.exact_constant(ext, image))
    composed = H.evaluate(values)
    reached = [
        e for e, c in composed.coefficients.items()
        if c.used_variables() - set(base)
    ]
    truncation = min(max_order, composed.truncation, *reached)
    result = TruncatedSeries(
        base,
        {
            e: c.drop_to_variables(base)
            for e, c in composed.coefficients.items() if e < truncation
        },
        truncation,
    )
    if result.is_known_zero() and max_order > truncation <= min(lowest):
        raise TruncationError("no determined coefficient")
    return result


# H1 and H2 at every even max_order up to 12, and their first partials
_GAR92_COMPOSITIONS = [
    (name, None, order) for name in ("H1", "H2") for order in range(2, 13, 2)
] + [(name, v, 8) for name in ("H1", "H2") for v in PHASE]


@pytest.mark.parametrize("name, partial, order", _GAR92_COMPOSITIONS)
def test_one_placeholder_per_series_matches_the_per_exponent_window(
    name, partial, order
):
    sol = garnier92_solution()
    H = dict(zip(("H1", "H2"), garnier92_hamiltonians()))[name]
    if partial:
        H = H.derivative(partial)
    comp = substitute_hamiltonian(H, sol, max_order=order)
    assert comp == _per_exponent_composition(H, sol, order)


@settings(max_examples=80)
@given(
    windows=st.tuples(_windows, _windows, _windows, _windows),
    monomials=st.lists(_monomials, min_size=1, max_size=4),
    max_order=st.integers(-2, 4),
)
def test_one_placeholder_per_series_matches_the_reference(
    windows, monomials, max_order
):
    sol = LaurentSolution(*map(_window_series, windows))
    H = _hamiltonian(monomials)
    if not H.used_variables() & set(PHASE):
        return
    try:
        expected = _per_exponent_composition(H, sol, max_order)
    except TruncationError:
        with pytest.raises(TruncationError):
            substitute_hamiltonian(H, sol, max_order=max_order)
        return
    assert substitute_hamiltonian(H, sol, max_order=max_order) == expected


def test_divisor_replay_adds_at_most_one_symbol_per_phase_series(monkeypatch):
    widths = []
    init = TruncatedSeries.__init__

    def recording_init(self, variables, coefficients, truncation):
        init(self, variables, coefficients, truncation)
        widths.append(len(self.variables))

    monkeypatch.setattr(TruncatedSeries, "__init__", recording_init)
    assert verify_painleve_divisor_gar92().identical
    base = len(garnier92_solution().variables)
    assert base < max(widths) <= base + len(PHASE)


def test_divisor_replay_parses_its_relation_once(monkeypatch):
    # the transcribed pole relation is frozen data: a replay after the
    # first parses no polynomial text
    assert verify_painleve_divisor_gar92().identical
    parsed = []
    parse = MultiPoly.parse.__func__

    def counted(cls, text, variables):
        parsed.append(text)
        return parse(cls, text, variables)

    monkeypatch.setattr(MultiPoly, "parse", classmethod(counted))
    assert verify_painleve_divisor_gar92().identical
    assert parsed == []
