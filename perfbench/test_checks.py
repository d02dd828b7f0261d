"""Each benchmark output check accepts a genuine result and rejects a
deliberately corrupted copy of it, so none of them is vacuous."""

import contextlib
import copy
import io
import json
from fractions import Fraction

import pytest

import checks
import worker

st, cli = worker.import_package()

KFS_POINT = {"h1": Fraction(12), "h2": Fraction(17), "s": Fraction(29)}


def envelope(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv + ["--json"])
    return json.loads(out.getvalue()), code


def kfs_curve():
    return st.catalog_get("KFS4/3+4/3").specialize(KFS_POINT).coefficients


@pytest.mark.parametrize("p", [7, 11, 13, 29])
@pytest.mark.parametrize("coeffs", [(1, 1, 0, 0, 0, 1), (3, 0, 2, 5, 0, 1, 2), (1, 2, 3, 4, 5, 6, 7)])
def test_naive_n1_matches_enumeration(p, coeffs):
    residues = [c % p for c in coeffs]
    if len(residues) == 7 and residues[6] == 0:
        residues = residues[:6]
    affine = sum(
        1
        for x in range(p)
        for y in range(p)
        if (y * y - sum(c * x ** k for k, c in enumerate(residues))) % p == 0
    )
    if len(residues) == 6:
        infinity = 1
    else:
        infinity = 2 if any(y * y % p == residues[6] for y in range(1, p)) else 0
    assert checks.naive_n1(residues, p) == affine + infinity


def test_weil_interval_edges():
    p = 37
    assert checks.weil_interval_ok(p, 0, 0)
    assert checks.weil_interval_ok(p, 24, 144 + 2 * p)  # a1^2 = 16p - 16, double root
    assert not checks.weil_interval_ok(p, 25, 0)  # |a1| > 4 sqrt(p)
    assert not checks.weil_interval_ok(p, 0, 2 * p + 1)  # complex roots
    assert not checks.weil_interval_ok(p, 12, -2 * p)  # a root beyond 2 sqrt(p)


def test_count_points_check():
    env, code = envelope(
        ["count-points", "--family", "KFS4/3+4/3", "--at", "h1=12,h2=17,s=29",
         "--p", "101", "--ext", "2"]
    )
    curve = kfs_curve()
    assert checks.check_count_points(env, code, curve) == []

    bad = copy.deepcopy(env)
    bad["outputs"]["N1"] += 1
    assert checks.check_count_points(bad, code, curve)

    bad = copy.deepcopy(env)
    bad["outputs"]["a2"] += 2
    assert checks.check_count_points(bad, code, curve)

    # Consistent counts and Weil data that no genus-2 curve can have.
    bad = copy.deepcopy(env)
    bad["outputs"]["N2"] += 2 * 10 ** 4
    bad["outputs"]["a2"] += 10 ** 4
    problems = checks.check_count_points(bad, code, curve)
    assert problems and all("Weil interval" in p for p in problems)

    bad = copy.deepcopy(env)
    bad["outputs"]["N2"] += 1
    assert any("odd" in p for p in checks.check_count_points(bad, code, curve))

    assert checks.check_count_points(None, 3, curve)


def test_certificate_check():
    env, code = envelope(
        ["certify-endo", "--family", "KFS4/3+4/3", "--at", "h1=12,h2=17,s=29",
         "--p1", "37", "--p2", "53", "--geometric"]
    )
    assert env["outputs"]["verdict"] == "TRIVIAL_GEOMETRIC_END"
    curve = kfs_curve()
    assert checks.check_certificate(env, code, curve) == []

    bad = copy.deepcopy(env)
    bad["outputs"]["records"][0]["n1"] += 1
    assert checks.check_certificate(bad, code, curve)

    bad = copy.deepcopy(env)
    bad["outputs"]["records"][1]["a2"] += 1
    assert checks.check_certificate(bad, code, curve)

    bad = copy.deepcopy(env)
    first, second = bad["outputs"]["records"]
    second["subfield_core"] = first["subfield_core"]
    assert checks.check_certificate(bad, code, curve)

    bad = copy.deepcopy(env)
    bad["outputs"]["records"][0]["ratio_orders"] = [2]
    assert checks.check_certificate(bad, code, curve)

    assert checks.check_certificate(env, 4, curve)
    assert checks.check_certificate(None, 3, curve)


def test_divisor_check():
    good = {"command": "verify-divisor", "outputs": {"identical": True}}
    assert checks.check_divisor(good, 0) == []
    bad = {"command": "verify-divisor", "outputs": {"identical": False}}
    assert checks.check_divisor(bad, 0)
    assert checks.check_divisor(good, 1)


def test_independence_check():
    ranks = checks.expected_ranks(st.frozen_rank_witnesses())
    assert ranks["KFS4/3+4/3"] == 2
    env, code = envelope(["independence", "--family", "Gar9/2"])
    assert checks.check_independence(env, code, "Gar9/2", ranks) == []
    bad = copy.deepcopy(env)
    bad["outputs"]["rank"] -= 1
    assert checks.check_independence(bad, code, "Gar9/2", ranks)


def test_igusa_check():
    job = {"kind": "igusa", "family": "Gar9/2",
           "point": {"h1": "25/56", "h2": "37/80", "s1": "-63/41", "s2": "72/53"}}
    checker = worker.Checker(st, [job])
    inv = st.igusa(st.catalog_get("Gar9/2"))
    symbolic, specialized = checker._igusa_at_point(0, inv)
    assert checks.check_igusa(symbolic, specialized) == []
    checker.check(0, 0, inv)
    assert checker.failed == 0
    # A later pass whose invariants differ from the first pass's fails.
    checker.check(0, 0, st.igusa(st.catalog_get("MatI")))
    assert checker.failed == 1
    assert len(checker.outputs) == 1
    bad = list(symbolic)
    bad[4] += 1
    assert checks.check_igusa(bad, specialized)


def test_good_reduction():
    # (x - 1)(x - 8)(x + 2)(x + 3)(x + 4): the roots 1 and 8 meet mod 7.
    f = [1]
    for root in (1, 8, -2, -3, -4):
        f = [(f[i - 1] if i else 0) - root * (f[i] if i < len(f) else 0)
             for i in range(len(f) + 1)]
    assert checks.good_reduction(f, 13)
    assert not checks.good_reduction(f, 7)
    assert not checks.good_reduction([Fraction(1, 17)] + f[1:], 17)
    assert not checks.good_reduction(f[:-1] + [17], 17)
    assert checks.good_reduction(kfs_curve(), 37)
