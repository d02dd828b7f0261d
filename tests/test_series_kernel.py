"""Windowed Laurent arithmetic and the transcribed pole expansion.

Products of exactly known series are checked against sympy; the window
bookkeeping and the composition machinery are checked on hand-built cases
with known answers.
"""

import random
from fractions import Fraction

import pytest
import sympy

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
