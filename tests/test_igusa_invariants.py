"""Genus-2 invariants: symbolic identities, scaling laws, numeric root
oracles, and the randomized independence machinery."""

import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy
import pytest
import sympy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spectral_torelli import igusa_invariants
from spectral_torelli.curve_catalog import (
    CurveFamily,
    catalog_get,
    gar92_hamiltonian_frame,
    reduce_mod_p,
)
from spectral_torelli.errors import (
    AlignmentError,
    DegenerateCurveError,
    DegreeBoundError,
    InconclusiveError,
    UndefinedChartError,
)
from spectral_torelli.exact_algebra import (
    Jet1,
    MultiPoly,
    jet_eval,
    rational_matrix_rank,
)
from spectral_torelli.igusa_invariants import (
    IgusaInvariants,
    binary_sextic_discriminant,
    frozen_rank_witnesses,
    igusa,
    independence_rank,
    rank_at_point,
    transvectant,
)

GAR_PARAMS = ("h1", "h2", "s1", "s2")
GOLDEN = Path(__file__).parent / "golden"


def random_sextic(rng, lo=-9, hi=9):
    while True:
        coeffs = [Fraction(rng.randint(lo, hi)) for _ in range(7)]
        if coeffs[6] == 0:
            continue
        inv = igusa(coeffs)
        if not inv.degenerate:
            return coeffs, inv


def sympy_discriminant(coeffs):
    x = sympy.Symbol("x")
    poly = sympy.Poly([c for c in reversed(coeffs)], x)
    return Fraction(str(sympy.discriminant(poly)))


def test_frozen_table_normalization():
    one = Fraction(1)
    assert binary_sextic_discriminant([-1, 0, 0, 0, 0, 0, one]) == 46656
    with pytest.raises(DegreeBoundError):
        binary_sextic_discriminant([1, 2, 3])


def test_j10_is_the_sextic_discriminant():
    rng = random.Random(71)
    for _ in range(12):
        coeffs, inv = random_sextic(rng)
        assert inv.j10 == sympy_discriminant(coeffs)


def test_quintic_as_sextic_discriminant():
    # with a6 = 0 the sextic discriminant collapses to a5^2 * disc5
    rng = random.Random(73)
    x = sympy.Symbol("x")
    for _ in range(12):
        coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(6)]
        if coeffs[5] == 0:
            coeffs[5] = Fraction(1)
        quintic = sympy.Poly([c for c in reversed(coeffs)], x)
        expected = coeffs[5] ** 2 * Fraction(str(sympy.discriminant(quintic)))
        assert binary_sextic_discriminant(coeffs + [Fraction(0)]) == expected


def test_numeric_root_oracle_for_j10():
    # lc^(2n-2) * prod (r_i - r_j)^2 over numeric roots, within 1e-6
    cases = [
        [0, 1, 0, 0, 0, 1],
        [3, 1, 0, 0, 0, 0, 1],
        [2, -1, 4, 0, 1, 3, 5],
    ]
    for coeffs in cases:
        inv = igusa([Fraction(c) for c in coeffs])
        trimmed = list(coeffs)
        while trimmed[-1] == 0:
            trimmed.pop()
        roots = numpy.roots([float(c) for c in reversed(trimmed)])
        prod = 1.0 + 0.0j
        for i in range(len(roots)):
            for j in range(i + 1, len(roots)):
                prod *= (roots[i] - roots[j]) ** 2
        n = len(trimmed) - 1
        disc = float(trimmed[-1]) ** (2 * n - 2) * prod
        if n == 5:
            disc *= float(trimmed[-1]) ** 2
        target = float(inv.j10)
        assert abs(disc.imag) <= 1e-6 * abs(target)
        assert abs(disc.real - target) <= 1e-6 * abs(target)


def test_symbolic_quintic_invariants():
    inv = igusa(catalog_get("Gar9/2"))
    p = GAR_PARAMS
    assert inv.j2 == MultiPoly.parse("80*h1 + 12*s1^2", p)
    assert inv.j4 == MultiPoly.parse(
        "-800*h2*s2 + 480*h1^2 - 16*h1*s1^2 + 32*s2^2*s1 + 6*s1^4", p
    )
    assert inv.j6 == MultiPoly.parse(
        "-16000*h2^2*s1 + 6400*h2*h1*s2 + 320*h2*s2*s1^2 - 1280*h1^3"
        " + 704*h1^2*s1^2 - 896*h1*s2^2*s1 - 112*h1*s1^4 + 256*s2^4"
        " + 64*s2^2*s1^3 + 4*s1^6",
        p,
    )
    assert inv.j8 * 4 == inv.j2 * inv.j6 - inv.j4 * inv.j4


def test_conserved_frame_is_a_substitution():
    slots = catalog_get("Gar9/2")
    conserved = gar92_hamiltonian_frame()
    images = {
        "h1": MultiPoly.parse("2*s2^2 - h1", GAR_PARAMS),
        "h2": MultiPoly.parse("h2 - s1*s2", GAR_PARAMS),
        "s1": MultiPoly.parse("3*s2", GAR_PARAMS),
        "s2": MultiPoly.parse("-s1", GAR_PARAMS),
    }
    mapped = [c.substitute(images) for c in slots.coefficients]
    assert mapped == list(conserved.coefficients)


def test_j8_identity_on_random_curves():
    rng = random.Random(79)
    for _ in range(10):
        _, inv = random_sextic(rng)
        assert inv.j8 * 4 == inv.j2 * inv.j6 - inv.j4 * inv.j4


def test_translation_invariance():
    rng = random.Random(83)
    x, c = sympy.symbols("x c")
    for _ in range(8):
        coeffs, inv = random_sextic(rng)
        shift = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        poly = sum(sympy.Rational(a) * x ** i for i, a in enumerate(coeffs))
        moved = sympy.Poly(sympy.expand(poly.subs(x, x + sympy.Rational(shift))), x)
        shifted = [Fraction(str(moved.coeff_monomial(x ** i))) for i in range(7)]
        assert igusa(shifted) == inv


def test_scaling_weights():
    rng = random.Random(89)
    coeffs, inv = random_sextic(rng)
    mu = Fraction(-3, 2)
    scaled = igusa([mu * a for a in coeffs])
    weights = (2, 4, 6, 8, 10)
    for got, base, w in zip(scaled.as_tuple(), inv.as_tuple(), weights):
        assert got == mu ** w * base


@st.composite
def polynomial_ring_sextics(draw):
    """A random rational sextic over a one- or two-variable MultiPoly ring
    and a random nonzero polynomial scalar over the same ring."""
    variables = ("u", "v")[:draw(st.integers(1, 2))]
    exponents = st.tuples(*(st.integers(0, 1) for _ in variables))
    coefficient = st.dictionaries(
        exponents, st.fractions(-6, 6, max_denominator=4), max_size=2
    )
    g = [MultiPoly(variables, draw(coefficient)) for _ in range(7)]
    nonzero = coefficient.filter(lambda t: any(t.values()))
    lam = MultiPoly(variables, draw(nonzero))
    return g, lam


@settings(max_examples=50)
@given(polynomial_ring_sextics())
def test_scaling_law_with_a_polynomial_scalar(sextic):
    """J_2k has degree 2k in the coefficients, so J_2k(lam * g) equals
    lam^(2k) * J_2k(g) exactly, also when lam is a polynomial."""
    g, lam = sextic
    scaled = igusa([lam * c for c in g])
    for got, base, w in zip(scaled.as_tuple(), igusa(g).as_tuple(),
                            (2, 4, 6, 8, 10)):
        assert got == lam ** w * base


def test_rescaled_model_has_equal_absolute_invariants():
    # x -> lam*x, y -> lam^3*y sends f to lam^-6 f(lam*x)
    rng = random.Random(97)
    for _ in range(6):
        coeffs, inv = random_sextic(rng)
        if inv.j2 == 0:
            continue
        lam = Fraction(rng.randint(1, 7), rng.randint(1, 7))
        moved = [a * lam ** (i - 6) for i, a in enumerate(coeffs)]
        assert igusa(moved).absolute() == inv.absolute()


def test_absolute_chart():
    inv = IgusaInvariants(
        Fraction(2), Fraction(4), Fraction(8), Fraction(0), Fraction(32)
    )
    assert inv.absolute() == (1, 1, 1)
    bad = IgusaInvariants(
        Fraction(0), Fraction(4), Fraction(8), Fraction(-4), Fraction(32)
    )
    with pytest.raises(UndefinedChartError):
        bad.absolute()


def test_specialized_quintic_point():
    curve = catalog_get("Gar9/2").specialize(
        {"h1": 1, "h2": 0, "s1": 0, "s2": 0}
    )
    inv = igusa(curve)
    assert inv.j2 == 80
    assert inv.j4 == 480
    assert inv.absolute()[0] == Fraction(3, 40)


def test_igusa_input_validation():
    with pytest.raises(DegreeBoundError):
        igusa([1, 2, 3, 4, 5])
    quintic = [Fraction(c) for c in (0, 1, 0, 0, 0, 1)]
    assert igusa(quintic) == igusa(quintic + [Fraction(0)])
    repeated_root = igusa([0, 0, 2, 0, 0, 1])
    assert repeated_root.degenerate


def test_transvectant_basics():
    rng = random.Random(101)
    f = [Fraction(rng.randint(-5, 5)) for _ in range(7)]
    g = [Fraction(rng.randint(-5, 5)) for _ in range(5)]
    f[6] = f[6] or Fraction(1)
    g[4] = g[4] or Fraction(1)
    # zeroth transvectant is the plain product
    prod = transvectant(f, g, 0)
    direct = [Fraction(0)] * 11
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            direct[i + j] += a * b
    assert list(prod) == direct
    # odd self-transvectants vanish identically
    for k in (1, 3, 5):
        assert all(c == 0 for c in transvectant(f, f, k))
    with pytest.raises(DegreeBoundError):
        transvectant(f, g, 5)


def sympy_transvectant(f, g, k):
    """(f, g)_k from its definition on the homogenized forms F(x, z),
    G(x, z): the sum over i of (-1)^i C(k, i) d^k F/dx^(k-i) dz^i times
    d^k G/dx^i dz^(k-i), scaled by (m-k)! (n-k)! / (m! n!). Returns the
    ascending coefficients in x."""
    x, z = sympy.symbols("x z")
    m, n = len(f) - 1, len(g) - 1

    def form(coefficients, d):
        terms = {(j, d - j): sympy.Rational(c.numerator, c.denominator)
                 for j, c in enumerate(coefficients)}
        return sympy.Poly.from_dict(terms, x, z, domain="QQ")

    big_f, big_g = form(f, m), form(g, n)
    total = sympy.Poly(0, x, z, domain="QQ")
    for i in range(k + 1):
        df = big_f.diff((x, k - i), (z, i))
        dg = big_g.diff((x, i), (z, k - i))
        total += df * dg * ((-1) ** i * math.comb(k, i))
    scale = sympy.Rational(
        math.factorial(m - k) * math.factorial(n - k),
        math.factorial(m) * math.factorial(n),
    )
    d = m + n - 2 * k
    return [Fraction(int(c.p), int(c.q))
            for c in (total.coeff_monomial(x**j * z ** (d - j)) * scale
                      for j in range(d + 1))]


def test_transvectant_matches_its_definition():
    rng = random.Random(103)
    for m in range(2, 7):
        for n in range(2, 7):
            f = [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                 for _ in range(m + 1)]
            g = [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                 for _ in range(n + 1)]
            for k in range(min(m, n) + 1):
                got = transvectant(f, g, k)
                assert list(got) == sympy_transvectant(f, g, k), (m, n, k)


def test_igusa_lifts_int_coefficients_into_the_ring():
    coeffs = list(catalog_get("KFS4/3+4/3").sextic_coefficients())
    # constant MultiPoly coefficients replaced by plain ints
    mixed = [int(c.constant_value()) if c.is_constant() else c for c in coeffs]
    assert any(isinstance(c, int) for c in mixed)
    assert igusa(mixed) == igusa(coeffs)
    # the same over jets: ints join the jet ring of the other coefficients
    jets = [Jet1.tracked(3, 0, 2), Jet1.tracked(-5, 1, 2), 0, 2, 0, -1, 1]
    lifted = [c if isinstance(c, Jet1) else Jet1.constant(c, 2) for c in jets]
    assert igusa(jets) == igusa(lifted)


def test_igusa_on_ints_gives_fractions():
    inv = igusa([0, 1, 0, 0, 0, 1])
    assert all(type(j) is Fraction for j in inv.as_tuple())
    assert all(type(c) is Fraction for c in transvectant([1, 2, 3], [4, 5], 1))


def test_igusa_refuses_mixed_rings():
    one_var = MultiPoly.variable("a", ("a",))
    two_var = MultiPoly.variable("a", ("a", "b"))
    jet2 = Jet1.tracked(1, 0, 2)
    jet3 = Jet1.tracked(1, 0, 3)
    for coeffs in (
        [one_var, 0, 0, 0, 0, 1, two_var],
        [one_var, 0, 0, 0, 0, 1, jet2],
        [jet2, 0, 0, 0, 0, 1, jet3],
    ):
        with pytest.raises(AlignmentError):
            igusa(coeffs)
    with pytest.raises(AlignmentError):
        transvectant([one_var, 1], [jet2, 1], 1)


def test_igusa_refuses_a_curve_over_a_prime_field():
    # its plain int residues would give the invariants of an integer lift
    curve = catalog_get("KFS").specialize({"h1": 12, "h2": 17, "s": 29})
    assert not igusa(curve).degenerate
    with pytest.raises(AlignmentError):
        igusa(reduce_mod_p(curve, 37))


def test_rank_at_point_rejections():
    fam = catalog_get("Gar9/2")
    with pytest.raises(AlignmentError):
        rank_at_point(fam, {"h1": 1, "h2": 0, "s1": 0})
    with pytest.raises(DegenerateCurveError):
        rank_at_point(fam, {"h1": 0, "h2": 0, "s1": 0, "s2": 0})
    with pytest.raises(DegenerateCurveError):
        rank_at_point(fam, {"h1": -15, "h2": 1, "s1": 10, "s2": 1})
    typo = {"h1": 12, "h2": 17, "s": 29, "typo": 5}
    with pytest.raises(AlignmentError, match=r"family: \['typo'\]"):
        rank_at_point(catalog_get("KFS"), typo)


@pytest.mark.parametrize("inexact", [0.1, "1/10"])
def test_rank_at_point_refuses_inexact_coordinates(inexact):
    fam = catalog_get("Gar9/2")
    point = {"h1": inexact, "h2": 1, "s1": 2, "s2": 3}
    with pytest.raises(TypeError, match="exact rational"):
        rank_at_point(fam, point)


@pytest.mark.parametrize("trials", [0, -3])
def test_independence_rank_needs_a_trial(trials):
    with pytest.raises(ValueError, match="at least one trial"):
        independence_rank(catalog_get("Gar9/2"), trials=trials)


FAMILIES = ("Gar9/2", "Gar5/2+3/2", "MatI", "MatIII(D8)", "KFS4/3+4/3")


def degenerate_over_q(fam, point):
    values = {name: Fraction(v) for name, v in point.items()}
    inv = igusa([p.evaluate(values) for p in fam.sextic_coefficients()])
    return inv.j10 == 0 or inv.j2 == 0


def rank_or_none(fam, point):
    try:
        return rank_at_point(fam, point)
    except DegenerateCurveError:
        return None


def test_small_modulus_keeps_rejections_exact_and_ranks_below(monkeypatch):
    """With the jet modulus forced down to 11, many points have a
    denominator, J2 or J10 that vanishes mod 11 without vanishing over Q.
    `rank_at_point` must still raise exactly at the points that are
    degenerate over Q, and elsewhere report no more than the rank at
    2^61 - 1."""
    rng = random.Random(11)
    seen = set()
    for ident in FAMILIES:
        fam = catalog_get(ident)
        points = [dict.fromkeys(fam.parameters, 0)]
        if ident == "Gar9/2":
            points.append({"h1": -15, "h2": 1, "s1": 10, "s2": 1})
        points += [
            {n: Fraction(rng.randint(-12, 12), rng.randint(1, 12))
             for n in fam.parameters}
            for _ in range(10)
        ]
        full = [rank_or_none(fam, p) for p in points]
        with monkeypatch.context() as patch:
            patch.setattr(Jet1, "MODULUS", 11)
            small = [rank_or_none(fam, p) for p in points]
        for point, r_full, r_small in zip(points, full, small):
            degenerate = degenerate_over_q(fam, point)
            assert (r_small is None) == (r_full is None) == degenerate
            if degenerate:
                seen.add("degenerate")
            else:
                assert r_small <= r_full
                seen.add("no certificate" if r_small == 0 < r_full else "rank")
    assert seen == {"degenerate", "no certificate", "rank"}


def jet_route(fam, point):
    """The Jet1 route `rank_at_point` took before its integer runs, kept
    as the oracle: jets of the coefficients, `igusa` on them, and the
    partials of `absolute()`. Returns (rank, rows), rows None where it
    gives 0 without a certificate; raises as `rank_at_point` does."""
    params = tuple(fam.parameters)
    try:
        coeffs = [jet_eval(p, point, params)
                  for p in fam.sextic_coefficients()]
    except ZeroDivisionError:
        inv = None
    else:
        inv = igusa(coeffs)
    if inv is None or not (inv.j10.value and inv.j2.value):
        if degenerate_over_q(fam, point):
            raise DegenerateCurveError("degenerate over Q")
        if inv is None or not inv.j2.value:
            return 0, None
    rows = [list(coord.partials) for coord in inv.absolute()]
    return rational_matrix_rank(rows), rows


def integer_route(fam, point):
    """`rank_at_point` and the rows it ranks (None if it ranks none)."""
    seen = []

    def recording(rows):
        seen.append(rows)
        return rational_matrix_rank(rows)

    with mock.patch.object(igusa_invariants, "rational_matrix_rank",
                           recording):
        rank = rank_at_point(fam, point)
    return rank, (seen[0] if seen else None)


def outcome(route, fam, point):
    try:
        return route(fam, point)
    except DegenerateCurveError:
        return "degenerate"


# 11 and 101 make denominators, J2 and J10 vanish mod q at many points
MODULI = st.sampled_from([Jet1.MODULUS, 11, 101])
DENOMINATORS = st.sampled_from([1, 2, 3, 7, 11, 22, 33, 101, 121, 202])
RATIONALS = st.one_of(
    st.integers(-30, 30),
    st.builds(Fraction, st.integers(-30, 30), DENOMINATORS),
)
SMALL_VARS = ("a", "b", "c")


@st.composite
def small_families(draw):
    """A CurveFamily in 1-3 parameters: 6 or 7 coefficients with 0-3
    terms each, exponents up to 2 and small rational coefficients, the
    leading one kept nonzero by a constant term."""
    names = SMALL_VARS[:draw(st.integers(1, 3))]
    term = st.tuples(
        st.tuples(*[st.integers(0, 2)] * len(names)), RATIONALS
    )
    coeffs = [
        MultiPoly(names, dict(draw(st.lists(term, max_size=3))))
        for _ in range(draw(st.sampled_from([6, 7])))
    ]
    coeffs[-1] = coeffs[-1] + draw(st.integers(1, 5))
    return CurveFamily(None, names, coeffs)


FAMILY_AND_POINT = st.one_of(
    st.sampled_from(FAMILIES).map(catalog_get), small_families()
).flatmap(lambda fam: st.tuples(
    st.just(fam), st.fixed_dictionaries({n: RATIONALS for n in fam.parameters})
))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(FAMILY_AND_POINT, MODULI)
def test_integer_runs_give_the_jet_rows(family_and_point, q):
    """The rows `rank_at_point` ranks are the partials of the absolute
    invariants of `igusa` on jets of the coefficients, at every catalog
    family and at random small families, at int, Fraction and mixed
    points; both routes give the same rank, the same 0 and the same
    DegenerateCurveError, at q = 2^61 - 1 and at the small q 11 and 101."""
    fam, point = family_and_point
    with mock.patch.object(Jet1, "MODULUS", q):
        assert outcome(integer_route, fam, point) == outcome(
            jet_route, fam, point
        )


def counting_jet_arithmetic(monkeypatch):
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                 "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                 "__pow__"):
        def counted(*args, _name=name, _f=getattr(Jet1, name)):
            calls.append(_name)
            return _f(*args)
        monkeypatch.setattr(Jet1, name, counted)
    return calls


def test_rank_at_point_runs_no_jet_arithmetic(monkeypatch):
    cases = [(w["family"], w["point"], 3) for w in frozen_rank_witnesses()]
    cases.append(("KFS", {"h1": 12, "h2": 17, "s": 29}, 2))
    calls = counting_jet_arithmetic(monkeypatch)
    for ident, point, rank in cases:
        assert rank_at_point(catalog_get(ident), point) == rank
    with pytest.raises(DegenerateCurveError):
        rank_at_point(catalog_get("Gar9/2"), dict.fromkeys(GAR_PARAMS, 0))
    monkeypatch.setattr(Jet1, "MODULUS", 11)
    assert rank_at_point(catalog_get("Gar9/2"), {
        "h1": Fraction(1, 11), "h2": 2, "s1": 3, "s2": 5}) == 0
    assert calls == []


def test_denominators_divisible_by_a_small_q_are_settled_over_q(
        monkeypatch):
    """With q = 11, a point with a denominator of 11, 22 or 121, or a
    family coefficient with denominator 33, has no certificate mod q: it
    gives 0 when it is not degenerate over Q and DegenerateCurveError
    when it is, never a ValueError from an inverse mod q^2, and the Jet1
    route agrees."""
    a, b = (MultiPoly.variable(n, ("a", "b")) for n in ("a", "b"))
    thirds = CurveFamily(None, ("a", "b"), [
        a, b * Fraction(1, 33) + 1, 0, 1, 0, a * b + 2, 1,
    ])
    square = CurveFamily(None, ("h1",), [
        MultiPoly.parse(t, ("h1",))
        for t in ("h1^2", "-2*h1", "1", "h1^2", "-2*h1", "1")
    ])
    cases = [
        (catalog_get("Gar9/2"),
         {"h1": Fraction(5, 11), "h2": 2, "s1": 3, "s2": 5}),
        (catalog_get("Gar9/2"),
         {"h1": 1, "h2": Fraction(7, 22), "s1": 3, "s2": 5}),
        (catalog_get("MatI"), dict.fromkeys(
            catalog_get("MatI").parameters, Fraction(3, 22))),
        (catalog_get("KFS"), {"h1": 12, "h2": 17, "s": Fraction(2, 121)}),
        (thirds, {"a": 2, "b": 5}),
        (thirds, {"a": Fraction(1, 3), "b": -1}),
        (square, {"h1": Fraction(5, 11)}),
        (square, {"h1": Fraction(-3, 22)}),
    ]
    monkeypatch.setattr(Jet1, "MODULUS", 11)
    seen = set()
    for fam, point in cases:
        got = outcome(integer_route, fam, point)
        assert got == outcome(jet_route, fam, point)
        assert got == ("degenerate" if degenerate_over_q(fam, point)
                       else (0, None))
        seen.add(got)
    assert seen == {"degenerate", (0, None)}


def test_independence_rank_determinism_and_bounds():
    fam = catalog_get("Gar9/2")
    a = independence_rank(fam, trials=6, seed=123)
    b = independence_rank(fam, trials=6, seed=123)
    assert (a.rank, a.witness, a.trials, a.rejected) == (
        b.rank, b.witness, b.trials, b.rejected,
    )
    assert a.rank <= min(3, len(fam.parameters))
    few = independence_rank(fam, trials=1, seed=123)
    assert few.rank <= a.rank


def test_negative_controls():
    # coefficients free of every parameter: the invariant map is constant
    names = ("h1", "h2", "s1")
    constant = CurveFamily(
        None,
        names,
        [MultiPoly.constant(names, Fraction(c)) for c in (3, 1, 0, 0, 0, 0, 1)],
    )
    assert independence_rank(constant, trials=3).rank == 0
    # a parameterized square factor keeps every member degenerate
    degen = CurveFamily(
        None,
        ("h1",),
        [
            MultiPoly.parse(t, ("h1",))
            for t in ("h1^2", "-2*h1", "1", "h1^2", "-2*h1", "1")
        ],
    )
    with pytest.raises(InconclusiveError):
        independence_rank(degen, trials=4)
    # the split-structure sextic family stays in a proper sublocus
    assert independence_rank(catalog_get("KFS4/3+4/3"), trials=8).rank == 2


def test_frozen_witnesses_replay():
    table = frozen_rank_witnesses()
    assert {w["family"] for w in table} == {
        "Gar9/2", "Gar5/2+3/2", "MatI", "MatIII(D8)",
    }
    for entry in table:
        fam = catalog_get(entry["family"])
        assert rank_at_point(fam, entry["point"]) == entry["rank"] == 3


@pytest.mark.parametrize("family", ["Gar9/2", "KFS4/3+4/3"])
def test_symbolic_invariants_golden(family):
    """The symbolic J2..J10 print exactly as the validating kernel printed
    them when the golden was recorded."""
    golden = json.loads((GOLDEN / "igusa_symbolic.json").read_text())[family]
    inv = igusa(catalog_get(family))
    names = ("J2", "J4", "J6", "J8", "J10")
    assert {n: str(j) for n, j in zip(names, inv.as_tuple())} == golden


@pytest.mark.parametrize("family", ["MatI", "Gar5/2+3/2"])
def test_symbolic_invariants_golden_mati_gar52_32(family):
    """MatI, where J10 dominates symbolic `igusa`, and Gar5/2+3/2 print
    J2..J10 exactly as the term-by-term discriminant loop printed them."""
    path = GOLDEN / "igusa_symbolic_mati_gar52_32.json"
    golden = json.loads(path.read_text())[family]
    inv = igusa(catalog_get(family))
    names = ("J2", "J4", "J6", "J8", "J10")
    assert {n: str(j) for n, j in zip(names, inv.as_tuple())} == golden


# Term count and sha256 of `str` of each coefficient of the MatIII(D8)
# transvectants that feed J2, J4 and J6 (i = (f, f)_4), as the Fraction
# kernel printed them.
MATIII_TRANSVECTANTS = {
    "(f, f)_6": [
        (173, "3f8b14b32e4b1278d92843e7cbc95a04b6193f97acd49578899601442cbe8b2d"),
    ],
    "(f, f)_4": [
        (307, "0bc84674379d78b113f8c701c9dbe290c81b7a7226a80d3a39e82baa2107f7e4"),
        (161, "21ba4097accf3f03f015875888892dbeed082b212e9fbf15edbaf628b40a8bdd"),
        (175, "bb913091aa176df4bd9f3c7ff51c799d21fa309aab868cedc36071b4c339884d"),
        (85, "acf2791151cee4aacfa674d71b3af20d51c2a51254c0d7d00d3d7009ff09a267"),
        (85, "c987e42df18e7539e68006b0737379d8967019524908560d028a248d766471a8"),
    ],
    "(i, i)_4": [
        (1385, "925faedabe7f550f73c47b2cfcbf6029b5c651ef22e76f82033989b9a870d582"),
    ],
}


def test_matiii_transvectants_golden():
    f = list(catalog_get("MatIII(D8)").sextic_coefficients())
    i = transvectant(f, f, 4)
    got = {
        "(f, f)_6": transvectant(f, f, 6),
        "(f, f)_4": i,
        "(i, i)_4": transvectant(i, i, 4),
    }
    for name, coefficients in got.items():
        assert [
            (len(c.terms), hashlib.sha256(str(c).encode()).hexdigest())
            for c in coefficients
        ] == MATIII_TRANSVECTANTS[name], name
