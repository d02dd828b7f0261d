"""Two-prime endomorphism certificates through the library API: input
rejection, symmetry in the two primes (on the golden inputs and as a
property over random curves), and the pair rule on random Weil data and
on curves with known extra endomorphisms.
"""

import itertools
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spectral_torelli import endo_pipeline
from spectral_torelli.curve_catalog import HyperellipticCurve
from spectral_torelli.endo_pipeline import (
    INCONCLUSIVE,
    TRIVIAL_END,
    TRIVIAL_GEOMETRIC_END,
    _pair_verdict,
    _prime_record,
    certify_endomorphisms,
    frobenius_verdict,
)
from spectral_torelli.errors import DegenerateCurveError
from spectral_torelli.finite_arithmetic import (
    WeilPolynomial,
    _within_weil_bounds,
    is_prime,
)
from spectral_torelli.igusa_invariants import frozen_rank_witnesses

KFS_POINT = {"h1": 12, "h2": 17, "s": 29}


def gar92_witness():
    return next(w["point"] for w in frozen_rank_witnesses() if w["family"] == "Gar9/2")


def test_equal_primes_are_rejected_before_counting(monkeypatch):
    def no_counting(*args, **kwargs):
        raise AssertionError("counted points for a rejected input")

    monkeypatch.setattr(endo_pipeline, "point_counts", no_counting)
    with pytest.raises(ValueError, match="must differ"):
        certify_endomorphisms("KFS4/3+4/3", KFS_POINT, 37, 37)


@pytest.mark.parametrize(
    "family, point, primes, geometric, verdict",
    [
        ("KFS4/3+4/3", KFS_POINT, (37, 53), True, TRIVIAL_GEOMETRIC_END),
        # both V4, real cores 2 and 202
        ("Gar9/2", gar92_witness(), (71, 103), False, INCONCLUSIVE),
        # D4 and V4, real cores 185 and 202
        ("Gar9/2", gar92_witness(), (101, 103), False, TRIVIAL_END),
    ],
)
def test_verdict_is_symmetric_in_the_primes(family, point, primes, geometric, verdict):
    forward = certify_endomorphisms(family, point, *primes, geometric=geometric)
    backward = certify_endomorphisms(
        family, point, *reversed(primes), geometric=geometric
    )
    assert forward.verdict == backward.verdict == verdict
    assert forward.records == tuple(reversed(backward.records))


ODD_PRIMES = [p for p in range(29, 111) if is_prime(p)]


# Each certificate takes a few milliseconds; 60 examples stay under 1 s.
@settings(max_examples=60)
@given(
    coefficients=st.lists(st.integers(-6, 6), min_size=6, max_size=7),
    primes=st.lists(st.sampled_from(ODD_PRIMES), min_size=2, max_size=2,
                    unique=True),
    geometric=st.booleans(),
)
def test_verdict_is_symmetric_over_random_curves(coefficients, primes,
                                                 geometric):
    try:
        curve = HyperellipticCurve(coefficients)
    except DegenerateCurveError:
        assume(False)
    forward = certify_endomorphisms(curve, None, *primes, geometric=geometric)
    backward = certify_endomorphisms(
        curve, None, *reversed(primes), geometric=geometric
    )
    assert forward.verdict == backward.verdict
    assert forward.records == tuple(reversed(backward.records))


def weil_record(weil):
    """A prime record as `_prime_record` builds it, from Weil data."""
    record = {"p": weil.p, **frobenius_verdict(weil)}
    record["usable"] = record["tate"] and record["irreducible"]
    return record


def test_two_v4_primes_stay_inconclusive():
    # Gar9/2 at p = 103 (core 202) and t^4 + 9 at p = 3 (core 6): both
    # biquadratic, so an imaginary quadratic algebra is not excluded
    first = weil_record(WeilPolynomial(103, -4, 8))
    second = weil_record(WeilPolynomial(3, 0, 0))
    assert first["galois_group"] == second["galois_group"] == "V4"
    for geometric in (False, True):
        verdict, reasons = _pair_verdict(first, second, geometric)
        assert verdict == INCONCLUSIVE
        assert "both primes have group V4" in reasons[-1]
    # one D4 prime (core 37) settles it
    d4 = weil_record(WeilPolynomial(37, 2, 38))
    assert _pair_verdict(d4, first, False)[0] == TRIVIAL_END


def records_by_discriminant():
    """One prime record per D = a1^2 - 4 a2 + 8p of the irreducible
    triples inside the Weil bounds at the odd primes up to 50."""
    records = {}
    for p in filter(is_prime, range(3, 51, 2)):
        bound = math.isqrt(16 * p)
        for a1 in range(-bound, bound + 1):
            for a2 in range(-2 * p, 6 * p + 1):
                d = a1 * a1 - 4 * a2 + 8 * p
                if (d in records or not _within_weil_bounds(p, a1, a2)
                        or math.isqrt(d) ** 2 == d):
                    continue
                record = weil_record(WeilPolynomial(p, a1, a2))
                if record["irreducible"]:
                    records[d] = record
    return records


def test_square_product_of_discriminants_is_the_old_core_test():
    # The pair rule reads "the real cores differ" from D1 * D2 not being
    # a square. On every ordered pair of the D values it gives the verdict
    # and the V4 note of the rule that compared the squarefree cores.
    records = records_by_discriminant()
    assert len(records) == 336
    for first, second in itertools.product(records.values(), repeat=2):
        old_differ = first["subfield_core"] != second["subfield_core"]
        both_v4 = first["galois_group"] == second["galois_group"] == "V4"
        verdict, reasons = _pair_verdict(first, second, False)
        assert verdict == (
            TRIVIAL_END if old_differ and not both_v4 else INCONCLUSIVE
        )
        if both_v4:
            assert ("differ, but both" in reasons[-1]) == old_differ


def test_pair_rule_needs_no_certified_core():
    # at p = 10^23 + 117, D = 8p + 1 leaves a cofactor above 10^18 after
    # trial division to 10^6, so its core is not certified
    p = 10**23 + 117
    big = weil_record(WeilPolynomial(p, 1, 0))
    assert big["usable"] and big["subfield_core"] is None
    core = f"the squarefree part of {8 * p + 1}"
    d4 = weil_record(WeilPolynomial(37, 2, 38))
    verdict, reasons = _pair_verdict(big, d4, False)
    assert verdict == TRIVIAL_END
    assert reasons[0].startswith(
        f"subfield cores {core} (p={p}) and 37 (p=37) differ:"
    )
    # the same D at a second prime: equal fields, whatever the cores
    verdict, reasons = _pair_verdict(big, {**big, "p": 7}, False)
    assert verdict == INCONCLUSIVE
    assert f"both primes give subfield core {core}:" in reasons[-1]


@st.composite
def irreducible_weil_data(draw, p):
    # t^2 - a1 t + (a2 - 2p) has its roots in [-2 sqrt p, 2 sqrt p]
    bound = math.isqrt(16 * p)
    a1 = draw(st.integers(-bound, bound))
    edge = 4 * p * a1 * a1
    low = (math.isqrt(edge - 1) + 1 if edge else 0) - 2 * p
    high = 2 * p + a1 * a1 // 4
    assume(low <= high)
    a2 = draw(st.integers(low, high))
    assert _within_weil_bounds(p, a1, a2)
    record = weil_record(WeilPolynomial(p, a1, a2))
    assume(record["irreducible"])
    return record


@given(st.data())
def test_pair_rule_on_random_weil_data(data):
    p1, p2 = data.draw(
        st.lists(st.sampled_from([3, 5, 7, 11, 13, 37, 53, 101]),
                 min_size=2, max_size=2, unique=True)
    )
    first = data.draw(irreducible_weil_data(p1))
    second = data.draw(irreducible_weil_data(p2))
    for geometric in (False, True):
        verdict, _ = _pair_verdict(first, second, geometric)
        assert _pair_verdict(second, first, geometric)[0] == verdict
        if verdict != INCONCLUSIVE:
            assert first["subfield_core"] != second["subfield_core"]
            assert {first["galois_group"], second["galois_group"]} != {"V4"}
        if verdict == TRIVIAL_GEOMETRIC_END:
            assert geometric
            assert first["ratio_orders"] == second["ratio_orders"] == []


# Curves with known extra endomorphisms, and the number of the 666 pairs
# of primes in 29-199 on which each gets TRIVIAL_END. None may ever get
# TRIVIAL_GEOMETRIC_END. Two must never get TRIVIAL_END: x^5 - x, whose
# Q-rational (x, y) -> (-1/x, y/x^3) squares to the hyperelliptic
# involution, so Q(i) lies in End^0_Q and every irreducible prime is V4;
# and x^6 + 3x^4 - 2x^2 + 5, split over Q by x -> -x, so every Frobenius
# quartic is reducible. The others have End_Q = Z and certify on some
# pairs: x^5 - 1 has CM by Q(zeta_5) only over Q(zeta_5), and the
# Tautz-Top-Verberkmoes curves x^5 - 5x^3 + 5x + t (Canad. J. Math. 1991)
# have their real multiplication by Q(sqrt 5) only over Q(sqrt 5): at
# p = 37, inert in Q(sqrt 5), t = 3 gives t^4 + 12t^2 + 1369, whose
# quadratic subfields are Q(sqrt 62), Q(sqrt -1333) and Q(sqrt -86).
# x^6 + x^3 + 7 (automorphism x -> zeta_3 x over Q(zeta_3)) is V4 at
# every irreducible prime here.
NEGATIVE_CONTROLS = [
    ([-1, 0, 0, 0, 0, 1], 171),
    ([0, -1, 0, 0, 0, 1], 0),
    ([3, 5, 0, -5, 0, 1], 304),
    ([7, 5, 0, -5, 0, 1], 324),
    ([5, 0, -2, 0, 3, 0, 1], 0),
    ([7, 0, 0, 1, 0, 0, 1], 0),
]
CONTROL_PRIMES = [p for p in range(29, 200) if is_prime(p)]


@pytest.mark.parametrize("coefficients, trivial_pairs", NEGATIVE_CONTROLS)
def test_negative_controls(coefficients, trivial_pairs):
    curve = HyperellipticCurve(coefficients)
    records = [_prime_record(curve, p, True) for p in CONTROL_PRIMES]
    pairs = list(itertools.combinations(records, 2))
    assert len(pairs) == 666
    for geometric in (False, True):
        verdicts = [_pair_verdict(a, b, geometric)[0] for a, b in pairs]
        assert TRIVIAL_GEOMETRIC_END not in verdicts
        assert verdicts.count(TRIVIAL_END) == trivial_pairs
