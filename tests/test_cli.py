"""The command-line front end: golden JSON envelopes and exit codes for
the certificate, count, invariant, independence, divisor, catalog and
Galois commands, and rejection of counts no genus-2 curve can have.

The `catalog` and `galois` goldens were recorded before the record types
moved onto a shared immutable-record base; the certificate and count
goldens with the counting code that scanned all of F_{p^2} with a
table of square roots; the invariant, independence and divisor goldens
with the exact-algebra kernel that validated every arithmetic result in
the public constructor; the `frobenius` goldens with the ratio
polynomial taken from a symbolic resultant and the quartic discriminant
from a generic one; the independence goldens other than Gar9/2's with
jets over Q, before the rank was taken mod 2^61 - 1; the MatI count at
p = 1009 with the direct O(p^2) F_{p^2} count, before N2 came from the
Hasse-Witt matrix and a Jacobian order test; the four frozen-point
`certify-endo --geometric` witnesses (one End = Z certificate per
family, next to KFS 37/53) while V4 primes still had no subfield core.
Giving V4 primes their real core changed only `certify_gar92_101_103`
(now TRIVIAL_END through its D4 prime) and `frobenius_3_4_10`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spectral_torelli
from spectral_torelli.cli import build_parser, main

GOLDEN = Path(__file__).parent / "golden"


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


@pytest.mark.parametrize(
    "name",
    [
        "certify_kfs_37_53",
        "certify_gar92_101_103",
        "certify_gar92_29_31",
        "certify_gar52_32_37_43",
        "certify_mati_29_31",
        "certify_matiii_d8_29_43",
        "count_points_kfs_137",
        "count_points_mati_1009",
        "verify_divisor_gar92",
        "invariants_kfs_12_17_29",
        "independence_gar92_seed7",
        "independence_gar52_32_seed7",
        "independence_mati_seed7",
        "independence_matiii_d8_seed7",
        "independence_kfs_seed7",
        "frobenius_37_36_1442",
        "frobenius_3_4_10",
        "catalog",
        "galois_d4",
        "galois_reducible",
    ],
)
def test_golden_envelopes(name, capsys):
    golden = json.loads((GOLDEN / f"{name}.json").read_text())
    code, envelope = run(golden["argv"], capsys)
    assert code == golden["exit_code"]
    assert envelope == golden["envelope"]


def test_consecutive_commands_reuse_one_parser(capsys):
    # The parser is built once per process; options of one call (here
    # --geometric) must not leak into the next.
    for name in ("certify_kfs_37_53", "frobenius_37_36_1442",
                 "certify_gar92_101_103"):
        golden = json.loads((GOLDEN / f"{name}.json").read_text())
        assert run(golden["argv"], capsys) == (
            golden["exit_code"], golden["envelope"]
        )
    assert build_parser() is build_parser()


_IMPORT_PROBE = """
import sys
before = set(sys.modules)
import spectral_torelli, spectral_torelli.cli
after = set(sys.modules)
import json
print(json.dumps({"new": sorted(after - before), "all": sorted(after)}))
"""


def test_import_loads_only_the_standard_library():
    # The package has no runtime dependencies, and stays clear of
    # dataclasses and inspect, whose import adds several milliseconds to
    # the start-up of every process.
    src = str(Path(spectral_torelli.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], env=env, capture_output=True,
        text=True, check=True,
    ).stdout
    modules = json.loads(out)
    foreign = {
        name.split(".")[0] for name in modules["new"]
    } - set(sys.stdlib_module_names) - {"spectral_torelli"}
    assert not foreign
    assert not {"dataclasses", "inspect"} & set(modules["all"])


def test_certify_rejects_equal_primes(capsys):
    code, envelope = run(
        ["certify-endo", "--family", "KFS4/3+4/3", "--at", "h1=12,h2=17,s=29",
         "--p1", "37", "--p2", "37", "--json"],
        capsys,
    )
    assert (code, envelope) == (2, None)


def test_bad_reduction_prime_is_inconclusive(capsys):
    # s = 29/37 puts 37 in a denominator: that prime is recorded as bad,
    # not raised, and one usable prime is not a certificate
    code, envelope = run(
        ["certify-endo", "--family", "KFS", "--at", "h1=12,h2=17,s=29/37",
         "--p1", "37", "--p2", "53", "--json"],
        capsys,
    )
    assert code == 4
    out = envelope["outputs"]
    assert out["verdict"] == "INCONCLUSIVE"
    bad, good = out["records"]
    assert bad["notes"] == ["bad reduction: denominator 37 is divisible by 37"]
    assert bad["curve_mod_p"] is None and not bad["usable"]
    assert good["usable"]
    assert good["curve_mod_p"] == [18, 37, 4, 10, 25, 51, 1]


@pytest.mark.parametrize("p, code", [("15", 2), ("2", 3)])
def test_count_points_rejects_unusable_primes(p, code, capsys):
    assert run(
        ["count-points", "--family", "KFS", "--at", "h1=12,h2=17,s=29",
         "--p", p, "--json"],
        capsys,
    ) == (code, None)


def test_frobenius_verdict_from_counts(capsys):
    code, envelope = run(
        ["frobenius", "--p", "37", "--n1", "36", "--n2", "1442", "--json"], capsys
    )
    assert code == 0
    out = envelope["outputs"]
    assert (out["a1"], out["a2"]) == (2, 38)
    assert out["P"] == [1369, -74, 38, -2, 1]
    assert out["tate"] is True


def test_zeta_from_counts(capsys):
    code, envelope = run(
        ["zeta", "--p", "53", "--n1", "57", "--n2", "3001", "--json"], capsys
    )
    assert code == 0
    assert envelope["inputs"] == {"p": 53, "n1": 57, "n2": 3001}
    assert envelope["outputs"]["zeta"]["numerator"] == [1, 3, 100, 159, 2809]


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_independence_without_trials_exits_2(trials, capsys):
    code, envelope = run(
        ["independence", "--family", "Gar9/2", "--trials", trials, "--json"],
        capsys,
    )
    assert (code, envelope) == (2, None)


@pytest.mark.parametrize("command", ["frobenius", "zeta"])
@pytest.mark.parametrize(
    "p, n1, n2",
    [
        (37, 100, 0),  # a1 = -62 breaks |a1| <= 4 sqrt(p)
        (37, 36, 1443),  # N2 + N1^2 is odd
        (35, 36, 1442),  # 35 is not prime
    ],
)
def test_impossible_counts_exit_2(command, p, n1, n2, capsys):
    code, envelope = run(
        [command, "--p", str(p), "--n1", str(n1), "--n2", str(n2), "--json"],
        capsys,
    )
    assert (code, envelope) == (2, None)
