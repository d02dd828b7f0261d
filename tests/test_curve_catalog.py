"""Catalog families, file input, reduction mod p, and the quartic-cover
reductions, pinned against transcribed data and hand-checkable algebra."""

import json
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given
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
from spectral_torelli.igusa_invariants import binary_sextic_discriminant

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
    curve = catalog_get("KFS").specialize(KFS_POINT)
    # x(x - 1)(x - 2)(x - 3)(x - 8) is squarefree, but 8 = 3 modulo 5
    singular = HyperellipticCurve([0, 48, -94, 59, -14, 1])
    calls = []

    def counted(coefficients):
        calls.append(coefficients)
        return binary_sextic_discriminant(coefficients)

    monkeypatch.setattr(curve_catalog, "binary_sextic_discriminant", counted)
    reduce_mod_p(curve, 37)
    assert len(calls) == 1
    calls.clear()
    with pytest.raises(BadReductionError) as info:
        reduce_mod_p(singular, 5)
    assert str(info.value) == (
        "the reduction modulo 5 is singular (discriminant is 0)"
    )
    assert len(calls) == 1


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
        {"f_coefficients": [0, 1, 0, 1], "degree": 5},
        {"f_coefficients": [0, 1, 0, 0, 0, 1.5], "degree": 5},
        {"f_coefficients": [0, 1, 0, 0, 0, True], "degree": 5},
        {"f_coefficients": [0, 1, 0, 0, 0, {"num": "1"}], "degree": 5},
        {"variables": "h1", "f_coefficients": [0, 1, 0, 0, 0, 1], "degree": 5},
        {"variables": ["h1"], "f_coefficients": ["zz", 1, 0, 0, 0, 1],
         "degree": 5},
        {"f_coefficients": [0, 1, 0, 0, 0, 0], "degree": 5},
    ]
    assert isinstance(load_curve_file(good), HyperellipticCurve)
    for blob in cases:
        with pytest.raises(PolyParseError):
            load_curve_file(blob)


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
