"""Two-prime endomorphism certificates through the library API: input
rejection, symmetry in the two primes (on the golden inputs and as a
property over random curves), and the degeneration audit note.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spectral_torelli import endo_pipeline
from spectral_torelli.curve_catalog import HyperellipticCurve
from spectral_torelli.endo_pipeline import (
    INCONCLUSIVE,
    TRIVIAL_GEOMETRIC_END,
    certify_endomorphisms,
    degeneration_note,
)
from spectral_torelli.errors import DegenerateCurveError
from spectral_torelli.finite_arithmetic import is_prime
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
        ("Gar9/2", gar92_witness(), (101, 103), False, INCONCLUSIVE),
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


def test_degeneration_note_flags_unknown_ids():
    note = degeneration_note("no-such-family", "KFS4/3+4/3")
    assert note["status"] == "unverified"
    assert "no-such-family" in note["note"]


def test_degeneration_note_accepts_the_data_blocked_family():
    # KSs3/2+5/4 is registered but has no coefficients: catalog_get
    # raises BlockedOnDataError, and the id still counts as known
    assert degeneration_note("KSs3/2+5/4", "KFS4/3+4/3")["status"] == "recorded"
    assert degeneration_note("Gar9/2", "Gar9/2")["status"] == "identity"


def test_degeneration_note_lets_builder_bugs_surface(monkeypatch):
    def broken(identifier):
        raise ZeroDivisionError("bug in a family builder")

    monkeypatch.setattr(endo_pipeline, "catalog_get", broken)
    with pytest.raises(ZeroDivisionError):
        degeneration_note("Gar9/2", "KFS4/3+4/3")
