"""The immutable record types: every record refuses assignment and
deletion and compares field by field; the shared constructor binds
fields like a normal signature; and the reprs that existed before the
shared base (point counts, Weil data, Igusa invariants) are unchanged.
"""

from fractions import Fraction

import pytest

from spectral_torelli._record import Record
from spectral_torelli.curve_catalog import SpectralIdentityReport
from spectral_torelli.endo_pipeline import (
    INCONCLUSIVE,
    TRIVIAL_GEOMETRIC_END,
    DivisorIdentityReport,
    EndoCertificate,
)
from spectral_torelli.exact_algebra import MultiPoly
from spectral_torelli.finite_arithmetic import PointCount, WeilPolynomial
from spectral_torelli.galois_certificates import (
    QuadraticSubfield,
    RootRatioReport,
    galois_group,
)
from spectral_torelli.igusa_invariants import IgusaInvariants, RankReport, igusa
from spectral_torelli.series_kernel import (
    FlowResidualReport,
    LaurentSolution,
    ResidualCheck,
    TruncatedSeries,
)

VARS = ("x", "y")


def poly(text):
    return MultiPoly.parse(text, VARS)


def laurent(q1_value):
    one = TruncatedSeries.exact_constant(("u",), 1)
    return LaurentSolution(TruncatedSeries.exact_constant(("u",), q1_value),
                           one, one, one)


def residual_check(label):
    return ResidualCheck(label, TruncatedSeries.exact_zero(("u",)))


# For each record: a builder taking a variant flag; variant True changes
# exactly one field.
BUILDERS = {
    "PointCount": lambda v: PointCount(37, 36, 1443 if v else 1442),
    "WeilPolynomial": lambda v: WeilPolynomial(37, 2, 39 if v else 38),
    "QuarticAnalysis": lambda v: galois_group(
        (-3, 0, 0, 0, 1) if v else (1369, -74, 38, -2, 1)
    ),
    "QuadraticSubfield": lambda v: QuadraticSubfield(
        (-36, -2, 1), 37, "V4" if v else "D4"
    ),
    "RootRatioReport": lambda v: RootRatioReport((2,) if v else ()),
    "IgusaInvariants": lambda v: igusa(
        [2, -1, 0, 3, 0, 1, 1] if v else [1, 0, 0, 0, 0, 1]
    ),
    "RankReport": lambda v: RankReport(
        "Gar9/2", 3 if v else 4, {"h1": Fraction(1, 2)}, 3, 0, 7
    ),
    "EndoCertificate": lambda v: EndoCertificate(
        "KFS4/3+4/3", {"s": Fraction(29)}, (37, 53), True, ({"p": 37},),
        INCONCLUSIVE if v else TRIVIAL_GEOMETRIC_END, (),
    ),
    "DivisorIdentityReport": lambda v: DivisorIdentityReport(
        (("spectral", not v, ""),), {}, poly("x"), poly("y"), poly("x*y"),
        poly("0"),
    ),
    "SpectralIdentityReport": lambda v: SpectralIdentityReport(
        poly("x^2 - y"), poly("x^2" if v else "x^2 - y")
    ),
    "LaurentSolution": lambda v: laurent(2 if v else 1),
    "ResidualCheck": lambda v: residual_check("dp1/dt" if v else "dq1/dt"),
    "FlowResidualReport": lambda v: FlowResidualReport(
        (residual_check("dq1/dt"),) + ((residual_check("dp1/dt"),) if v else ())
    ),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_record_is_immutable_and_compares_by_field(name):
    record = BUILDERS[name](False)
    assert type(record).__name__ == name
    assert isinstance(record, Record)
    field = type(record).__slots__[0]
    with pytest.raises(AttributeError, match="immutable"):
        setattr(record, field, None)
    with pytest.raises(AttributeError, match="immutable"):
        delattr(record, field)
    assert record == BUILDERS[name](False)
    assert not record != BUILDERS[name](False)
    assert record != BUILDERS[name](True)
    assert record != tuple(getattr(record, f) for f in type(record).__slots__)


@pytest.mark.parametrize(
    "record, text",
    [
        (PointCount(37, 36, 1442), "PointCount(p=37, n1=36, n2=1442)"),
        (WeilPolynomial(37, 2, 38), "WeilPolynomial(p=37, a1=2, a2=38)"),
        (
            igusa([1, 0, 0, 0, 0, 1]),
            "IgusaInvariants(j2=Fraction(0, 1), j4=Fraction(0, 1), "
            "j6=Fraction(0, 1), j8=Fraction(0, 1), j10=Fraction(3125, 1))",
        ),
    ],
)
def test_repr_is_unchanged(record, text):
    assert repr(record) == text


def test_constructor_binds_fields_like_a_signature():
    assert IgusaInvariants(1, 2, 3, j8=4, j10=5).as_tuple() == (1, 2, 3, 4, 5)
    with pytest.raises(TypeError):
        IgusaInvariants(1, 2, 3, 4)
    with pytest.raises(TypeError):
        IgusaInvariants(1, 2, 3, 4, 5, 6)
    with pytest.raises(TypeError):
        IgusaInvariants(1, 2, 3, 4, 5, j11=6)
    with pytest.raises(TypeError):
        IgusaInvariants(1, 2, 3, 4, 5, j2=6)
    assert PointCount(p=37, n1=36, n2=1442) == PointCount(37, 36, 1442)
    # counts are ints: a numeric string or float is refused, not parsed
    with pytest.raises(TypeError):
        PointCount(p=37, n1="36", n2=1442.0)
    assert len({PointCount(37, 36, 1442), PointCount(37, 36, 1442)}) == 1
