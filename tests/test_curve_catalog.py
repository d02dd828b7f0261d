"""Catalog families, file input, reduction mod p, and the quartic-cover
reductions, pinned against transcribed data and hand-checkable algebra."""

import copy
import json
import math
import pickle
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spectral_torelli import curve_catalog
from spectral_torelli.curve_catalog import (
    CurveFamily,
    HyperellipticCurve,
    PlaneSpectralCurve,
    catalog_entries,
    catalog_get,
    catalog_ids,
    gar92_hamiltonian_frame,
    gar92_spectral_identity,
    lax_matrix,
    lax_spectral_curve,
    load_curve_file,
    mat_i_quartic,
    mat_i_weierstrass_family,
    mat_iii_quartic,
    quadratic_resolvent_curve,
    reduce_mod_p,
)
from spectral_torelli.endo_pipeline import resolve_curve
from spectral_torelli.errors import (
    AlignmentError,
    BadReductionError,
    BlockedOnDataError,
    DegenerateCurveError,
    DegreeBoundError,
    PolyParseError,
    StructureError,
    UnknownFamilyError,
)
from spectral_torelli.exact_algebra import MultiPoly
from spectral_torelli.igusa_invariants import (
    binary_sextic_discriminant,
    rank_at_point,
)

GOLDEN = Path(__file__).parent / "golden"
KFS_POINT = {"h1": 12, "h2": 17, "s": 29}
KFS_RATIONAL = (173, 408, 110, 10, 25, -2, 1)


def test_catalog_listing():
    ids = catalog_ids()
    assert ids == (
        "Gar9/2", "Gar5/2+3/2", "MatI", "MatIII(D8)", "KFS4/3+4/3",
        "KSs3/2+5/4",
    )
    entries = {e["identifier"]: e for e in catalog_entries()}
    assert set(entries) == set(ids)
    assert not entries["KSs3/2+5/4"]["available"]
    assert "no exact spectral coefficients" in entries["KSs3/2+5/4"]["note"]
    for name in ids[:5]:
        assert entries[name]["available"]
        assert entries[name]["degree"] in (5, 6)


def test_catalog_aliases_and_errors():
    assert catalog_get("KFS") is catalog_get("KFS4/3+4/3")
    assert catalog_get("MatIII") is catalog_get("MatIII(D8)")
    with pytest.raises(UnknownFamilyError):
        catalog_get("Gar7/2")
    with pytest.raises(BlockedOnDataError):
        catalog_get("KSs3/2+5/4")


def test_catalog_families_are_golden():
    """Parameters, degree, metadata and every coefficient of each
    available family, recorded while each family still had its own
    builder function."""
    recorded = {}
    for identifier in catalog_ids():
        try:
            family = catalog_get(identifier)
        except BlockedOnDataError:
            continue
        recorded[identifier] = {
            "parameters": list(family.parameters),
            "degree": family.degree,
            "metadata": family.metadata,
            "coefficients": [str(c) for c in family.coefficients],
        }
    golden = (GOLDEN / "catalog_families.json").read_text()
    assert json.dumps(recorded, indent=2) + "\n" == golden


@pytest.mark.parametrize("alias, target", sorted(curve_catalog._ALIASES.items()))
def test_alias_and_target_are_one_object(alias, target):
    # each family is built once per process, whichever name asks first
    family = catalog_get(alias)
    assert family.identifier == target
    for name in (target, alias, target):
        assert catalog_get(name) is family


def test_unknown_family_message_is_plain():
    with pytest.raises(UnknownFamilyError) as info:
        catalog_get("Nope")
    assert isinstance(info.value, KeyError)
    assert str(info.value) == (
        "unknown family 'Nope'; known identifiers: Gar9/2, Gar5/2+3/2, "
        "MatI, MatIII(D8), KFS4/3+4/3, KSs3/2+5/4"
    )


def test_family_transcriptions():
    p = ("h1", "h2", "s1", "s2")
    gar = catalog_get("Gar9/2")
    assert gar.degree == 5
    assert [str(c) for c in gar.coefficients] == [
        "h2", "h1", "s2", "s1", "0", "1",
    ]
    ham = gar92_hamiltonian_frame()
    assert [str(c) for c in ham.coefficients] == [
        "-s1*s2 + h2", "2*s2^2 - h1", "-s1", "3*s2", "0", "1",
    ]
    assert [c for c in ham.coefficients] == [
        MultiPoly.parse(t, p)
        for t in ("h2 - s1*s2", "2*s2^2 - h1", "-s1", "3*s2", "0", "1")
    ]
    gar2 = catalog_get("Gar5/2+3/2")
    assert [c for c in gar2.coefficients] == [
        MultiPoly.parse(t, p) for t in ("0", "s2", "h2", "h1", "-s1", "1")
    ]
    kfs = catalog_get("KFS")
    assert kfs.degree == 6
    assert kfs.parameters == ("h1", "h2", "s")
    assert len(kfs.sextic_coefficients()) == 7
    assert not kfs.discriminant_polynomial().is_zero()


def test_specialization():
    kfs = catalog_get("KFS")
    curve = kfs.specialize(KFS_POINT)
    assert isinstance(curve, HyperellipticCurve)
    assert curve.coefficients == tuple(Fraction(c) for c in KFS_RATIONAL)
    partial = kfs.specialize({"s": 29})
    assert isinstance(partial, CurveFamily)
    assert partial.parameters == ("h1", "h2")
    assert partial.metadata["specialized_from"] == "KFS4/3+4/3"
    assert partial.specialize({"h1": 12, "h2": 17}) == curve
    with pytest.raises(AlignmentError):
        kfs.specialize({"bogus": 1})
    with pytest.raises(DegenerateCurveError):
        kfs.specialize({"h1": 0, "h2": 0, "s": 0})


@pytest.mark.parametrize("entry", [rank_at_point, resolve_curve])
def test_full_point_entries_share_one_check(entry):
    # rank_at_point and resolve_curve check a full point the same way:
    # one AlignmentError names the unknown and the missing parameters,
    # and an inexact value raises TypeError
    gar = catalog_get("Gar9/2")
    with pytest.raises(AlignmentError) as info:
        entry(gar, {"h1": 1, "h2": 2, "s1": 3, "typo": 4, "bogus": 5})
    assert str(info.value) == (
        "not parameters of this family: ['bogus', 'typo']; "
        "missing parameter values: ['s2']"
    )
    with pytest.raises(AlignmentError, match=r"^missing parameter values: "
                       r"\['h2', 's2'\]$"):
        entry(gar, {"h1": 1, "s1": 3})
    with pytest.raises(AlignmentError, match=r"^not parameters of this "
                       r"family: \['typo'\]$"):
        entry(gar, {"h1": 1, "h2": 2, "s1": 3, "s2": 4, "typo": 5})
    with pytest.raises(TypeError, match="exact rational"):
        entry(gar, {"h1": 0.5, "h2": 2, "s1": 3, "s2": 4})


def test_reduction_mod_p():
    curve = catalog_get("KFS").specialize(KFS_POINT)
    c37 = reduce_mod_p(curve, 37)
    assert c37.coefficients == (25, 1, 36, 10, 25, 35, 1)
    assert c37.characteristic == 37
    assert c37.discriminant() == curve.discriminant() % 37 != 0
    c53 = reduce_mod_p(curve, 53)
    assert c53.coefficients == (14, 37, 4, 10, 25, 51, 1)
    with pytest.raises(BadReductionError):
        reduce_mod_p(curve, 2)
    with pytest.raises(AlignmentError):
        reduce_mod_p(c37, 53)
    with pytest.raises(ValueError, match="^15 is not prime$"):
        reduce_mod_p(curve, 15)
    sextic = HyperellipticCurve([-1, 0, 0, 0, 0, 0, 1])
    with pytest.raises(BadReductionError):
        reduce_mod_p(sextic, 3)
    tall = HyperellipticCurve([1, 1, 0, 0, 0, 37])
    with pytest.raises(BadReductionError):
        reduce_mod_p(tall, 37)


def test_reduction_evaluates_one_discriminant(monkeypatch):
    # a curve over Q evaluates the table once, in its constructor; its
    # reductions and its own discriminant() read the kept D(L f)
    calls = []

    def counted(coefficients):
        calls.append(coefficients)
        return binary_sextic_discriminant(coefficients)

    monkeypatch.setattr(curve_catalog, "binary_sextic_discriminant", counted)
    curve = catalog_get("KFS").specialize(KFS_POINT)
    # x(x - 1)(x - 2)(x - 3)(x - 8) is squarefree, but 8 = 3 modulo 5
    singular = HyperellipticCurve([0, 48, -94, 59, -14, 1])
    assert len(calls) == 2
    calls.clear()
    reduce_mod_p(curve, 37)
    assert curve.discriminant() == Fraction(binary_sextic_discriminant(
        [Fraction(c) for c in KFS_RATIONAL]
    ))
    assert len(calls) == 0
    with pytest.raises(BadReductionError) as info:
        reduce_mod_p(singular, 5)
    assert str(info.value) == (
        "the reduction modulo 5 is singular (discriminant is 0)"
    )
    assert len(calls) == 0


# Values assigned to each family's parameters in order (KFS takes the
# first three): the frozen rank-3 witness point and a point with int and
# shared-denominator values.
ORACLE_POINTS = (
    (Fraction(25, 56), Fraction(37, 80), Fraction(-63, 41), Fraction(72, 53)),
    (Fraction(-7, 3), 5, Fraction(11, 15), Fraction(-2, 9)),
)
ORACLE_PRIMES = [
    p for p in range(3, 200, 2) if all(p % d for d in range(3, p, 2))
]


def _oracle_curves():
    for identifier in catalog_ids()[:5]:
        family = catalog_get(identifier)
        for values in ORACLE_POINTS:
            yield family.specialize(dict(zip(family.parameters, values)))
    # x(x - 1)(x - 2)(x - 3)(x - 8): bad at 3, 5 and 7 by its roots alone
    yield HyperellipticCurve([0, 48, -94, 59, -14, 1])
    # a quintic whose degree drops at 3, 7, 11 and 13
    yield HyperellipticCurve(
        [Fraction(1, 15), 2, -5, Fraction(7, 187), 1, 3 * 7 * 11 * 13]
    )


def _residue_rule(curve, p):
    """The error text of the reduction rule that evaluates the table on
    the residues, or None for good reduction: a denominator divisible by
    p, then a vanishing leading residue, then a zero table."""
    for c in curve.coefficients:
        if not c.denominator % p:
            return f"denominator {c.denominator} is divisible by {p}"
    residues = [
        c.numerator * pow(c.denominator, -1, p) % p
        for c in curve.coefficients
    ]
    if not residues[-1]:
        return f"leading coefficient vanishes modulo {p}: the degree drops"
    reduced = HyperellipticCurve._over_prime_field(residues, p)
    if not reduced.discriminant():
        return f"the reduction modulo {p} is singular (discriminant is 0)"
    return None


def test_reduction_verdict_matches_the_residue_table():
    # reduce_mod_p decides singularity from the curve's kept D(L f); the
    # table evaluated on the residues is the rule it must agree with
    seen = set()
    for curve in _oracle_curves():
        for p in ORACLE_PRIMES:
            expected = _residue_rule(curve, p)
            seen.add(expected.split()[0] if expected else None)
            if expected is None:
                reduced = reduce_mod_p(curve, p)
                assert reduced.characteristic == p
                assert reduced.discriminant()
                continue
            with pytest.raises(BadReductionError) as info:
                reduce_mod_p(curve, p)
            assert str(info.value) == expected
    # good reduction and each of the three refusals all occurred
    assert seen == {None, "denominator", "leading", "the"}


def _exact_values(draw, names, shared):
    """Parameter values of every kind the int path must handle: zero,
    ints, and Fractions over a shared or an own large denominator, with
    numerators of either sign. Half of the points are all-int."""
    kinds = draw(st.sampled_from((
        ("zero", "int"), ("zero", "int", "shared", "own")
    )))
    values = {}
    for name in names:
        kind = draw(st.sampled_from(kinds))
        num = draw(st.integers(1, 10**6)) * draw(st.sampled_from((1, -1)))
        if kind == "zero":
            values[name] = 0
        elif kind == "int":
            values[name] = num
        elif kind == "shared":
            values[name] = Fraction(num, shared)
        else:
            values[name] = Fraction(num, draw(st.integers(1, 10**12)))
    return values


def _specializes_like_evaluate(family, values):
    """`specialize` against the Fraction route: evaluate each coefficient
    over Q. The integer model is the Fractions over their lcm, in lowest
    terms, and every reduction at an odd prime up to 50 gives the
    residues of the Fractions, or the refusal text of `_residue_rule`."""
    fractions = [c.evaluate(values) for c in family.coefficients]
    try:
        expected = HyperellipticCurve(fractions)
    except DegenerateCurveError:
        with pytest.raises(DegenerateCurveError):
            family.specialize(values)
        return
    got = family.specialize(values)
    assert got == expected
    assert got.discriminant() == expected.discriminant()
    while len(fractions) > 6 and not fractions[-1]:
        fractions.pop()
    scale = math.lcm(*(c.denominator for c in fractions))
    assert got.denominator == scale > 0
    assert got.numerators == tuple(int(c * scale) for c in fractions)
    assert math.gcd(scale, *got.numerators) == 1
    assert got.coefficients == tuple(fractions)
    for p in ORACLE_PRIMES:
        if p > 50:
            break
        refusal = _residue_rule(got, p)
        if refusal is None:
            assert reduce_mod_p(got, p).coefficients == tuple(
                c.numerator * pow(c.denominator, -1, p) % p
                for c in fractions
            )
            continue
        with pytest.raises(BadReductionError) as info:
            reduce_mod_p(got, p)
        assert str(info.value) == refusal


@st.composite
def _small_families(draw):
    names = ("a", "b", "c")[: draw(st.integers(1, 3))]
    exponents = st.tuples(*(st.integers(0, 4) for _ in names))
    scalars = st.one_of(
        st.integers(-50, 50),
        st.fractions(min_value=-50, max_value=50, max_denominator=40),
    )
    polys = st.dictionaries(exponents, scalars, max_size=5).map(
        lambda terms: MultiPoly(names, terms)
    )
    coefficients = draw(st.lists(polys, min_size=6, max_size=7))
    assume(not coefficients[-1].is_zero())
    return CurveFamily(None, names, coefficients)


@settings(max_examples=150)
@given(st.data())
def test_specialize_on_ints_matches_evaluate_on_small_families(data):
    family = data.draw(_small_families())
    shared = data.draw(st.integers(1, 10**6))
    values = _exact_values(data.draw, family.parameters, shared)
    _specializes_like_evaluate(family, values)


@pytest.mark.parametrize("identifier", catalog_ids()[:5])
@settings(max_examples=30)
@given(data=st.data())
def test_specialize_on_ints_matches_evaluate_on_the_catalog(identifier, data):
    family = catalog_get(identifier)
    shared = data.draw(st.integers(1, 10**6))
    values = _exact_values(data.draw, family.parameters, shared)
    _specializes_like_evaluate(family, values)


def _expect_discriminant(coefficients, zero):
    """The curve's discriminant against the table evaluated on the
    coefficient objects themselves; a zero one must be refused."""
    padded = list(coefficients) + [zero] * (7 - len(coefficients))
    expected = binary_sextic_discriminant(padded)
    if not expected:
        with pytest.raises(DegenerateCurveError):
            HyperellipticCurve(coefficients)
        return
    got = HyperellipticCurve(coefficients).discriminant()
    assert type(got) is type(expected)
    assert got == expected


@given(
    st.lists(
        st.fractions(min_value=-50, max_value=50, max_denominator=30),
        min_size=6,
        max_size=7,
    )
)
def test_rational_discriminant_matches_the_generic_table(coefficients):
    assume(coefficients[-1] != 0)
    _expect_discriminant(coefficients, Fraction(0))


@given(
    st.sampled_from([3, 5, 7, 11, 37, 101, 547]),
    st.lists(st.integers(0, 10**4), min_size=6, max_size=7),
)
def test_prime_field_discriminant_matches_the_generic_table(p, values):
    # sympy's discriminant of the degree-d polynomial, times b5^2 for a
    # quintic, is the sextic table's; reduction keeps it only when it and
    # the leading coefficient survive modulo p
    assume(values[-1])
    x = sympy.Symbol("x")
    disc = int(sympy.discriminant(sympy.Poly(values[::-1], x)))
    assume(disc)
    expected = disc * (values[-1] ** 2 if len(values) == 6 else 1) % p
    curve = HyperellipticCurve(values)
    if not expected or not values[-1] % p:
        with pytest.raises(BadReductionError):
            reduce_mod_p(curve, p)
        return
    got = reduce_mod_p(curve, p).discriminant()
    assert type(got) is int
    assert got == expected


def test_curve_validation():
    with pytest.raises(DegreeBoundError):
        HyperellipticCurve([1, 2, 3, 4, 5])
    with pytest.raises(DegenerateCurveError):
        HyperellipticCurve([0, 0, 2, 0, 0, 1])
    with pytest.raises(DegenerateCurveError):
        HyperellipticCurve([1, 1, 0, 0, 0, 0, 0])
    # residues passed back to the constructor make a rational curve
    rational = HyperellipticCurve([3, 1, 0, 0, 0, 1])
    reduced = reduce_mod_p(rational, 7)
    assert reduced.characteristic == 7
    assert rational.characteristic == 0
    assert HyperellipticCurve(reduced.coefficients) == rational != reduced


@pytest.mark.parametrize("bad", [True, 0.1, "1/2"])
def test_constructor_refuses_inexact_coefficients(bad):
    # Fraction(0.1) would keep its binary expansion and Fraction(True) is 1
    with pytest.raises(TypeError, match="int or Fraction"):
        HyperellipticCurve([bad, 1, 0, 0, 0, 1])
    with pytest.raises(TypeError):
        HyperellipticCurve([1, 1, 0, 0, 0, bad])


def test_load_curve_file_round_trips(tmp_path):
    family_blob = {
        "variables": ["h1", "h2", "s"],
        "f_coefficients": [
            "h2^2 - 4*s", "2*h1*h2", "h1^2 - 2*h2", "2*h2 - 2*h1",
            "2*h1 + 1", "-2", "1",
        ],
        "degree": 6,
    }
    fam = load_curve_file(family_blob)
    assert isinstance(fam, CurveFamily)
    assert fam.coefficients == catalog_get("KFS").coefficients
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(family_blob))
    assert load_curve_file(path).coefficients == fam.coefficients
    plain = load_curve_file(
        {
            "f_coefficients": [
                173, "408", {"num": "110", "den": "1"}, 10, 25, -2, 1,
            ],
            "degree": 6,
        }
    )
    assert isinstance(plain, HyperellipticCurve)
    assert plain.coefficients == tuple(Fraction(c) for c in KFS_RATIONAL)


def test_load_curve_file_rejections():
    good = {"variables": [], "f_coefficients": [0, 1, 0, 0, 0, 1], "degree": 5}
    cases = [
        {},
        {"f_coefficients": [1] * 7},
        {"f_coefficients": [1] * 7, "degree": 4},
        # 5.0 == 5, so a membership test alone would read a quintic
        {"f_coefficients": [0, 1, 0, 0, 0, 1], "degree": 5.0},
        {"f_coefficients": [0, 1, 0, 0, 0, 1], "degree": "5"},
        {"f_coefficients": [0, 1, 0, 1], "degree": 5},
        {"f_coefficients": [0, 1, 0, 0, 0, 1.5], "degree": 5},
        {"f_coefficients": [0, 1, 0, 0, 0, True], "degree": 5},
        {"f_coefficients": [0, 1, 0, 0, 0, {"num": "1"}], "degree": 5},
        {"variables": "h1", "f_coefficients": [0, 1, 0, 0, 0, 1], "degree": 5},
        # MultiPoly refuses the repeated name with a bare ValueError
        {"variables": ["h1", "h1"], "f_coefficients": [0, 1, 0, 0, 0, 1],
         "degree": 5},
        {"variables": ["h1"], "f_coefficients": ["zz", 1, 0, 0, 0, 1],
         "degree": 5},
        {"f_coefficients": [0, 1, 0, 0, 0, 0], "degree": 5},
    ]
    assert isinstance(load_curve_file(good), HyperellipticCurve)
    for blob in cases:
        with pytest.raises(PolyParseError):
            load_curve_file(blob)


def test_rational_objects_take_only_integers():
    # num and den are ints or integer strings; int() would truncate 1.5
    # to 1 and read True as 1, and a float or bool would reach a verdict
    def blob(num, den):
        return {"f_coefficients": [0, 1, 0, 0, 0, {"num": num, "den": den}],
                "degree": 5}

    for num, den in ((3, 4), ("3", 4), (-3, "4"), ("-3", " 4")):
        curve = load_curve_file(blob(num, den))
        assert curve.coefficients[-1] == Fraction(int(num), int(den))
    for num, den in ((1.5, 2), (2.0, 4), (True, 2), (3, True), (3, 4.0),
                     ("1.5", 2), ("3/4", 1), (None, 2), (3, 0)):
        with pytest.raises(PolyParseError):
            load_curve_file(blob(num, den))


def test_lax_identity():
    report = gar92_spectral_identity()
    assert report.identical
    assert report.difference.is_zero()


def test_lax_shapes():
    mat = lax_matrix()
    assert len(mat) == 2 and all(len(row) == 2 for row in mat)
    curve = lax_spectral_curve()
    assert curve.polynomial.degree_in("y") == 2
    assert curve.y_coefficient(2).is_constant()
    assert curve.y_coefficient(2).constant_value() == 1
    assert set(curve.parameters) == {"q1", "p1", "q2", "p2", "s1", "s2"}


def test_quartic_covers_are_monic_quartics():
    for cover in (mat_i_quartic(), mat_iii_quartic()):
        poly = cover.polynomial
        assert poly.degree_in("y") == 4
        top = poly.coefficient_of("y", 4)
        assert top.is_constant() and top.constant_value() == 1


def test_mat_i_reduction_shape():
    res = quadratic_resolvent_curve(mat_i_quartic())
    assert res.degree == 6
    assert res.parameters == ("h1", "h2", "s", "theta")
    assert res.metadata["construction"] == "branch-radical reduction"
    m3 = catalog_get("MatIII(D8)")
    assert m3.degree == 6
    assert m3.parameters == ("h1", "h2", "s", "theta")


def test_mat_i_compact_model_identity():
    # the reduced sextic is the compact model composed with an affine
    # substitution, up to the fixed denominator-clearing factor
    res = quadratic_resolvent_curve(mat_i_quartic())
    plus = mat_i_weierstrass_family(1)
    names = ("v",) + tuple(plus.parameters)
    v = MultiPoly.variable("v", names)
    h1 = MultiPoly.variable("h1", names)
    theta = MultiPoly.variable("theta", names)
    composed = MultiPoly.zero(names)
    for k, c in enumerate(plus.coefficients):
        composed = composed + (
            c.with_variables(names) * ((v + h1) * Fraction(1, 2)) ** k
        )
    reduced = MultiPoly.zero(names)
    for k, c in enumerate(res.coefficients):
        reduced = reduced + c.with_variables(names) * v ** k
    assert reduced == composed * theta ** 6 * 16384


def test_mat_i_sign_exchange():
    # flipping the odd term equals x -> -x with the linear level negated
    plus = mat_i_weierstrass_family(1)
    minus = mat_i_weierstrass_family(-1)
    p = tuple(plus.parameters)
    images = {
        "h1": MultiPoly.parse("-h1", p),
        "h2": MultiPoly.variable("h2", p),
        "s": MultiPoly.variable("s", p),
        "theta": MultiPoly.variable("theta", p),
    }
    for k, c in enumerate(minus.coefficients):
        mirrored = plus.coefficients[k].substitute(images)
        if k % 2:
            mirrored = mirrored * -1
        assert c == mirrored
    with pytest.raises(ValueError):
        mat_i_weierstrass_family(0)


def _cover(poly_text, names=("x", "y")):
    return PlaneSpectralCurve(MultiPoly.parse(poly_text, names), "x", "y")


def test_resolvent_structure_errors():
    with pytest.raises(StructureError):
        quadratic_resolvent_curve(_cover("y^3 - x"))
    with pytest.raises(StructureError):
        quadratic_resolvent_curve(_cover("2*y^4 - x"))
    with pytest.raises(StructureError):
        quadratic_resolvent_curve(_cover("y^4 + x^2*y^3 - x"))
    # branch radical of degree 2: no genus-2 reduction
    bad = _cover("y^4 - (x^2 + 1)")
    with pytest.raises(StructureError):
        quadratic_resolvent_curve(bad)
    # radical free of the base variable
    flat = _cover("y^4 - 1")
    with pytest.raises(StructureError):
        quadratic_resolvent_curve(flat)


@pytest.mark.parametrize(
    "poly_text, sheet",
    [
        ("y^4 - x^3*y^2 + s*x", "2*y"),
        ("y^4 + 2*x*y^3 + (x^2 - x^3)*y^2 - x^4*y + s*x", "2*y + x"),
    ],
)
def test_resolvent_direct_branch_radical(poly_text, sheet):
    # q = x^3 and c = s*x give r = q^2 - 4c = x^6 - 4*s*x: a sextic that
    # is not of the shape x^(2m) (A x + B), so it is the model itself
    res = quadratic_resolvent_curve(_cover(poly_text, ("x", "y", "s")))
    assert res.parameters == ("s",)
    s = MultiPoly.variable("s", ("s",))
    zero = MultiPoly.zero(("s",))
    one = MultiPoly.constant(("s",), 1)
    assert list(res.coefficients) == [zero, s * -4, zero, zero, zero, zero, one]
    assert res.metadata == {
        "construction": "direct branch radical",
        "cover_image": f"w = {sheet}",
    }


def test_family_metadata_is_read_only():
    """The catalog hands every caller one family object, so its metadata
    refuses writes; `with_identifier` and `specialize` still copy it."""
    fam = catalog_get("KFS4/3+4/3")
    before = catalog_entries()
    writes = (
        lambda m: m.__setitem__("description", "changed"),
        lambda m: m.__delitem__("description"),
        lambda m: m.__ior__({"x": 1}),
        lambda m: m.update(description="changed"),
        lambda m: m.setdefault("x", 1),
        lambda m: m.pop("description"),
        lambda m: m.popitem(),
        lambda m: m.clear(),
    )
    for write in writes:
        with pytest.raises(TypeError):
            write(fam.metadata)
    with pytest.raises(TypeError):
        fam.metadata["description"] = "changed"
    assert catalog_entries() == before
    assert json.loads(json.dumps(fam.metadata)) == fam.metadata
    for twin in (copy.deepcopy(fam.metadata),
                 pickle.loads(pickle.dumps(fam.metadata))):
        assert twin == fam.metadata and type(twin) is type(fam.metadata)
    renamed = fam.with_identifier("copy", note="kept")
    assert renamed.metadata == {**fam.metadata, "note": "kept"}
    partial = fam.specialize({"s": 1})
    assert partial.metadata == {**fam.metadata,
                                "specialized_from": "KFS4/3+4/3"}
    for derived in (renamed, partial):
        with pytest.raises(TypeError):
            derived.metadata["description"] = "changed"
    assert catalog_get("KFS").metadata["description"].startswith("sextic")


def test_matiii_keeps_its_content_beside_the_primitive_model():
    """The dihedral family is A^3 times a primitive model, A = -4(theta^2
    + 2 h1); its coefficients are still the products, and `with_identifier`
    keeps the content."""
    fam = catalog_get("MatIII(D8)")
    theta, h1 = (MultiPoly.variable(n, fam.parameters) for n in ("theta", "h1"))
    assert fam.content == ((theta * theta + h1 * 2) * -4) ** 3
    assert fam.coefficients == tuple(
        fam.content * c for c in fam.primitive.coefficients)
    assert [len(c.terms) for c in fam.coefficients][0] == 98
    assert [len(c.terms) for c in fam.primitive.coefficients][0] == 49
    assert fam.primitive.content is None
    assert fam.primitive.primitive is fam.primitive
    again = quadratic_resolvent_curve(mat_iii_quartic()).with_identifier("x")
    assert again.content == fam.content
    assert again.coefficients == fam.coefficients
    assert catalog_get("MatI").content is None
    assert catalog_get("MatI").primitive is catalog_get("MatI")


def test_content_must_be_a_nonzero_polynomial_in_the_parameters():
    names = ("a",)
    a = MultiPoly.variable("a", names)
    coeffs = [a, 0, 0, 0, 0, 1]
    for content in (MultiPoly.zero(names), MultiPoly.variable("b", ("b",)),
                    2):
        with pytest.raises(AlignmentError):
            CurveFamily(None, names, coeffs, content=content)
    fam = CurveFamily(None, names, coeffs, content=a + 1)
    assert fam.coefficients == tuple(
        (a + 1) * c for c in CurveFamily(None, names, coeffs).coefficients)
    assert fam.degree == 5
