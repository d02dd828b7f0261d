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
(now TRIVIAL_END through its D4 prime) and `frobenius_3_4_10`. The
`--help` texts in `cli_help` were recorded while each subcommand's
parser was still written out in full.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import spectral_torelli
from spectral_torelli import cli, endo_pipeline, galois_certificates
from spectral_torelli._record import ReadOnlyDict
from spectral_torelli.cli import _envelope_json, _indented_json, build_parser, main
from spectral_torelli.curve_catalog import load_curve_file

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
    code = main(golden["argv"])
    out = capsys.readouterr().out
    assert code == golden["exit_code"]
    assert json.loads(out) == golden["envelope"]
    # the bytes too: key order and layout are part of the contract
    assert out == json.dumps(golden["envelope"], indent=2) + "\n"


HELP = json.loads((GOLDEN / "cli_help.json").read_text())


@pytest.mark.skipif(
    "%d.%d" % sys.version_info[:2] != HELP["python"],
    reason="argparse lays out help differently in other Python versions",
)
@pytest.mark.parametrize("command", sorted(HELP["help"]))
def test_help_texts_are_golden(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", str(HELP["columns"]))
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args(command.split() + ["--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out == HELP["help"][command]


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


_BUILD_PROBE = """
import contextlib, io, json
import spectral_torelli
from spectral_torelli import cli, igusa_invariants as ig

def built():
    return [f.cache_info().currsize for f in (ig._discriminant, ig._integer_abc)]

seen = [built()]
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["frobenius", "--p", "37", "--n1", "36", "--n2", "1442"])
    cli.main(["galois", "--poly", "1,0,0,0,9"])
seen.append(built())
spectral_torelli.igusa([1, 2, 0, 0, 0, 1, 3])
seen.append(built())
print(json.dumps(seen))
"""


def test_import_builds_no_generated_function():
    # The discriminant and the integer transvectants are compiled at
    # first use, so commands that never touch a sextic do not pay for it.
    src = str(Path(spectral_torelli.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", _BUILD_PROBE], env=env, capture_output=True,
        text=True, check=True,
    ).stdout
    # symbolic `igusa` builds the discriminant only
    assert json.loads(out) == [[0, 0], [0, 0], [1, 0]]


def test_frobenius_at_a_prime_whose_core_is_not_certified(capsys):
    # D = 8p + 1 leaves a cofactor above 10^18 after trial division to
    # 10^6: the verdict stands without the core, which reads null (it
    # exited 2 with "cofactor ... is too large to certify squarefree")
    p = 10**23 + 117
    code, envelope = run(["frobenius", "--p", str(p), "--n1", str(p),
                          "--n2", str(p * p), "--json"], capsys)
    assert code == 0
    out = envelope["outputs"]
    assert (out["a1"], out["a2"], out["irreducible"]) == (1, 0, True)
    assert out["subfield_core"] is None
    assert out["subfield_minimal_polynomial"] == [-2 * p, -1, 1]
    assert out["notes"] == [
        f"the squarefree part of D = {8 * p + 1} is not certified, so no "
        "subfield core is reported; the pair rule compares the fields "
        "Q(sqrt D) without it"
    ]


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


def test_repeated_at_name_exits_2(capsys):
    # h1 given twice used to keep the last value silently
    code = main(
        ["invariants", "--family", "KFS", "--at", "h1=12,h1=13,h2=17,s=29",
         "--json"]
    )
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "'h1' twice" in captured.err


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


@pytest.mark.parametrize("num", [1.5, True])
def test_inexact_rational_object_in_a_curve_file_exits_2(num, tmp_path, capsys):
    # int() would read {"num": 1.5, "den": 2} as 1/2 and go on to a verdict
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({
        "f_coefficients": [173, 408, {"num": num, "den": 2}, 10, 25, -2, 1],
        "degree": 6,
    }))
    code = main(["invariants", "--file", str(path), "--json"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "integer 'num' and 'den'" in captured.err


def test_float_degree_in_a_curve_file_exits_2(tmp_path, capsys):
    # 5.0 == 5 would pass a bare membership test and read a quintic
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({
        "f_coefficients": [0, 1, 0, 0, 0, 1], "degree": 5.0,
    }))
    code = main(["invariants", "--file", str(path), "--json"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "degree" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["invariants"],
        ["count-points", "--p", "37"],
        ["certify-endo", "--p1", "37", "--p2", "53"],
    ],
)
@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_curve_file_exits_2(argv, kind, tmp_path, capsys):
    path = tmp_path / "absent.json" if kind == "missing" else tmp_path
    with pytest.raises(OSError) as info:
        load_curve_file(str(path))
    code = main(argv + ["--file", str(path), "--json"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: {info.value}\n"


def test_unknown_family_error_line(capsys):
    code = main(["independence", "--family", "Nope", "--json"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (
        "error: unknown family 'Nope'; known identifiers: Gar9/2, "
        "Gar5/2+3/2, MatI, MatIII(D8), KFS4/3+4/3, KSs3/2+5/4\n"
    )


def test_certificates_never_reach_the_generic_classifier(monkeypatch, capsys):
    # The Frobenius field of a Weil quartic comes from quadratic_subfield
    # alone; galois_group serves only the galois command.
    def refuse(coefficients):
        raise AssertionError("galois_group reached on the certificate path")

    for module in (spectral_torelli, galois_certificates, cli):
        monkeypatch.setattr(module, "galois_group", refuse)
    assert not hasattr(endo_pipeline, "galois_group")
    replayed = 0
    for path in sorted(GOLDEN.glob("*.json")):
        golden = json.loads(path.read_text())
        if golden.get("argv", [""])[0] not in ("certify-endo", "frobenius"):
            continue
        code = main(golden["argv"])
        out = capsys.readouterr().out
        assert code == golden["exit_code"]
        assert out == json.dumps(golden["envelope"], indent=2) + "\n"
        replayed += 1
    assert replayed == 8


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


# JSON trees of the kinds an envelope holds: any text (non-ASCII,
# quotes, backslashes and control characters included), ints far beyond
# 64 bits, bools and None, in lists, tuples, dicts and ReadOnlyDicts,
# empty ones included.
JSON_LEAVES = (
    st.text()
    | st.sampled_from(["", '"', "\\", "\x00\x1f\x7f", "\u00e9\u2028\U0001d11e"])
    | st.integers()
    | st.integers(-(10**40), 10**40)
    | st.booleans()
    | st.none()
)
JSON_TREES = st.recursive(
    JSON_LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(), children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4).map(ReadOnlyDict),
    max_leaves=30,
)


@given(tree=JSON_TREES)
def test_envelope_writer_matches_json_dumps(tree):
    assert _indented_json(tree) == json.dumps(tree, indent=2)


@given(tree=JSON_TREES, leaf=st.sampled_from([1.5, -0.0, float("inf")]))
def test_envelope_writer_leaves_other_leaves_to_json_dumps(tree, leaf):
    # a float anywhere, or a key that is not a str, sends the whole
    # envelope to json.dumps
    for envelope in ({"outputs": [tree, {"x": leaf}]}, {"outputs": {7: tree}}):
        assert _envelope_json(envelope) == json.dumps(envelope, indent=2)


def test_envelopes_skip_the_pure_python_encoder(monkeypatch, capsys):
    """--json output of certify-endo, count-points and independence comes
    from the direct writer: json's pure-Python encoder, which `indent`
    selects, is never reached. A leaf the writer does not handle still
    prints the bytes of json.dumps(indent=2), through that encoder."""
    goldens = [
        json.loads(path.read_text())
        for path in sorted(GOLDEN.glob("*.json"))
        if path.name.startswith(("certify_", "count_points_", "independence_"))
    ]
    expected = [
        json.dumps(golden["envelope"], indent=2) + "\n" for golden in goldens
    ]
    made = []
    make = json.encoder._make_iterencode
    monkeypatch.setattr(
        json.encoder, "_make_iterencode",
        lambda *args, **kwargs: made.append(args) or make(*args, **kwargs),
    )
    commands = set()
    for golden, out in zip(goldens, expected):
        assert main(golden["argv"]) == golden["exit_code"]
        assert capsys.readouterr().out == out
        commands.add(golden["argv"][0])
    assert commands == {"certify-endo", "count-points", "independence"}
    assert made == []
    families = [{"identifier": "x", "weight": 0.5}]
    monkeypatch.setattr(cli, "catalog_entries", lambda: families)
    assert main(["catalog", "--json"]) == 0
    envelope = {"command": "catalog", "inputs": {},
                "outputs": {"families": families}}
    assert len(made) == 1
    assert capsys.readouterr().out == json.dumps(envelope, indent=2) + "\n"
