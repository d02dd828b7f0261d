"""Inexact input never reaches a result.

Every library entry that takes a rational value, a prime, a point count,
a field extension degree, an exponent, a quartic coefficient, a series
truncation, a composition order, a sampling seed or a trial count
refuses a bool, a float, a numeric string and a Decimal with TypeError,
instead of turning it into an exact value: Fraction(0.1)
keeps the binary expansion of 0.1, int(37.9) is 37 and Fraction(True)
is 1. Each entry is called with one bad value in an otherwise valid
call, so the TypeError comes from the value and from nothing else.
"""

from decimal import Decimal

import pytest

from spectral_torelli.curve_catalog import (
    CurveFamily,
    HyperellipticCurve,
    catalog_get,
    reduce_mod_p,
)
from spectral_torelli.endo_pipeline import certify_endomorphisms, resolve_curve
from spectral_torelli.exact_algebra import (
    Jet1,
    MultiPoly,
    UniPoly,
    rational_matrix_rank,
)
from spectral_torelli.finite_arithmetic import (
    PointCount,
    WeilPolynomial,
    _validated_odd_prime,
    count_points,
    is_prime,
    quadratic_character,
    smallest_nonresidue,
)
from spectral_torelli.galois_certificates import (
    factor_quartic,
    galois_group,
    resolvent_cubic,
    squarefree_part,
)
from spectral_torelli.igusa_invariants import (
    binary_sextic_discriminant,
    igusa,
    independence_rank,
    rank_at_point,
    transvectant,
)
from spectral_torelli.series_kernel import (
    HAMILTONIAN_VARIABLES,
    TruncatedSeries,
    garnier92_hamiltonians,
    garnier92_solution,
    substitute_hamiltonian,
    verify_hamilton_flow,
)

BAD_VALUES = [True, 0.5, 37.0, "1/2", Decimal("0.5")]


def kfs_point(h1):
    return {"h1": h1, "h2": 17, "s": 29}


def kfs_curve():
    return catalog_get("KFS").specialize(kfs_point(12))


# entry -> (call with one value, a valid value for it)
ENTRIES = {
    "HyperellipticCurve": (
        lambda v: HyperellipticCurve([v, 1, 0, 0, 0, 1]), 3
    ),
    "CurveFamily": (
        lambda v: CurveFamily(None, ("a",), [v, 1, 0, 0, 0, 1]), 3
    ),
    "CurveFamily.specialize": (
        lambda v: catalog_get("KFS").specialize(kfs_point(v)), 12
    ),
    "resolve_curve": (lambda v: resolve_curve("KFS", kfs_point(v)), 12),
    "certify_endomorphisms point": (
        lambda v: certify_endomorphisms("KFS", kfs_point(v), 37, 53), 12
    ),
    "certify_endomorphisms p1": (
        lambda v: certify_endomorphisms("KFS", kfs_point(12), v, 53), 41
    ),
    "certify_endomorphisms p2": (
        lambda v: certify_endomorphisms("KFS", kfs_point(12), 37, v), 41
    ),
    "rank_at_point": (
        lambda v: rank_at_point(catalog_get("KFS"), kfs_point(v)), 12
    ),
    # MultiPoly and Jet1 coefficients pass; numbers and strings are
    # checked one by one
    "igusa": (lambda v: igusa([v, 2, 3, 4, 5, 6, 7]), 1),
    "transvectant": (lambda v: transvectant([1, 2, 3], [1, v, 3], 2), 2),
    "binary_sextic_discriminant": (
        lambda v: binary_sextic_discriminant([1, 2, 3, 4, 5, 6, v]), 7
    ),
    "independence_rank seed": (
        lambda v: independence_rank(catalog_get("KFS"), trials=1, seed=v), 7
    ),
    "independence_rank trials": (
        lambda v: independence_rank(catalog_get("KFS"), trials=v, seed=7), 1
    ),
    "reduce_mod_p": (lambda v: reduce_mod_p(kfs_curve(), v), 37),
    "count_points": (
        lambda v: count_points(reduce_mod_p(kfs_curve(), 37), v), 37
    ),
    # True == 1 and 2.0 == 2 would pick the F_p or the F_{p^2} count
    "count_points extension": (
        lambda v: count_points(reduce_mod_p(kfs_curve(), 37), 37, extension=v),
        2,
    ),
    "MultiPoly coefficient": (lambda v: MultiPoly(("a",), {(1,): v}), 1),
    "MultiPoly exponent": (lambda v: MultiPoly(("a",), {(v,): 1}), 1),
    "MultiPoly.constant": (lambda v: MultiPoly.constant(("a",), v), 1),
    "Jet1 value": (lambda v: Jet1(v, (0,)), 1),
    "Jet1 partial": (lambda v: Jet1(1, (v,)), 1),
    "rational_matrix_rank": (
        lambda v: rational_matrix_rank([[1, v], [0, 1]]), 1
    ),
    "PointCount": (lambda v: PointCount(37, v, 1442), 36),
    "WeilPolynomial": (lambda v: WeilPolynomial(v, 2, 38), 37),
    "is_prime": (is_prime, 37),
    "quadratic_character": (lambda v: quadratic_character(3, v), 37),
    "smallest_nonresidue": (smallest_nonresidue, 37),
    "MultiPoly power": (lambda v: MultiPoly.parse("a", ("a",)) ** v, 2),
    "UniPoly power": (lambda v: UniPoly([0, 1]) ** v, 2),
    "Jet1 power": (lambda v: Jet1(2, (1,)) ** v, 2),
    "TruncatedSeries power": (
        lambda v: TruncatedSeries.exact_constant(("a",), 2) ** v, 2
    ),
    "TruncatedSeries exponent": (
        lambda v: TruncatedSeries(("a",), {v: 1}, 3), 1
    ),
    "TruncatedSeries truncation": (
        lambda v: TruncatedSeries(("a",), {0: 1}, v), 3
    ),
    # an H free of phase variables never consults max_order past the entry
    "substitute_hamiltonian max_order": (
        lambda v: substitute_hamiltonian(
            MultiPoly.parse("s1*s2 + 3", HAMILTONIAN_VARIABLES),
            garnier92_solution(),
            v,
        ),
        4,
    ),
    "verify_hamilton_flow max_order": (
        lambda v: verify_hamilton_flow(
            garnier92_hamiltonians()[0], garnier92_solution(), v
        ),
        2,
    ),
    "factor_quartic": (lambda v: factor_quartic((v, 0, 0, 0, 1)), 1),
    "galois_group": (lambda v: galois_group((1369, -74, v, -2, 1)), 38),
    "resolvent_cubic": (lambda v: resolvent_cubic((7, 5, v, 2, 1)), 3),
    "squarefree_part": (squarefree_part, 12),
}


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_inexact_input_never_reaches_a_result(entry):
    call, good = ENTRIES[entry]
    call(good)
    for bad in BAD_VALUES:
        with pytest.raises(TypeError):
            call(bad)


def test_prime_caches_do_not_answer_for_floats_or_bools():
    # An untyped lru_cache finds 37.0 and True under the keys 37 and 1,
    # so they would be answered from the cache without a check.
    assert _validated_odd_prime(37) == 37
    assert smallest_nonresidue(37) == 2
    for bad in (37.0, True):
        with pytest.raises(TypeError):
            _validated_odd_prime(bad)
        with pytest.raises(TypeError):
            smallest_nonresidue(bad)
