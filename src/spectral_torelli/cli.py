"""Command-line front end.

Every command assembles an envelope {"command", "inputs", "outputs"};
--json prints exactly that on stdout (logs go to stderr), otherwise a
terse human rendering is shown. Exit codes: 0 success (for
certify-endo this means a TRIVIAL verdict), 1 an identity check that
came back false, 2 input errors, 3 degenerate curve or bad reduction,
4 inconclusive.
"""

import argparse
import functools
import json
import logging
import sys
from fractions import Fraction

from .curve_catalog import catalog_entries, catalog_get, load_curve_file, reduce_mod_p
from .endo_pipeline import (
    certify_endomorphisms,
    frobenius_verdict,
    rational_json,
    resolve_curve,
    verify_painleve_divisor_gar92,
)
from .errors import (
    DegenerateCurveError,
    InconclusiveError,
    PolyParseError,
    ReducibleQuarticError,
    UndefinedChartError,
)
from .finite_arithmetic import (
    PointCount,
    count_points,
    is_prime,
    point_counts,
    weil_polynomial,
    zeta_rational_form,
)
from .galois_certificates import galois_group
from .igusa_invariants import DEFAULT_SEED, igusa, independence_rank

_log = logging.getLogger("spectral_torelli.cli")


def _parse_point(text):
    """Parse 'h1=12,h2=17/3,s=29' into a name -> Fraction dict."""
    point = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, sep, value = (part.strip() for part in chunk.partition("="))
        if not sep or not name:
            raise PolyParseError(f"expected name=value, got {chunk!r}")
        if name in point:
            raise PolyParseError(f"--at assigns {name!r} twice")
        try:
            point[name] = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise PolyParseError(f"bad rational value {value!r}") from None
    if not point:
        raise PolyParseError("--at carries no assignments")
    return point


def _curve_source(args):
    """(source, point) from --family/--file/--at flags."""
    point = _parse_point(args.at) if args.at else None
    source = load_curve_file(args.file) if args.file else args.family
    return source, point


def _source_inputs(args, point):
    inputs = {}
    if getattr(args, "family", None):
        inputs["family"] = args.family
    if getattr(args, "file", None):
        inputs["file"] = args.file
    if point:
        inputs["at"] = {k: rational_json(v) for k, v in sorted(point.items())}
    return inputs


def _weil_payload(weil, counts):
    return {
        "p": weil.p,
        "N1": counts.n1,
        "N2": counts.n2,
        "a1": weil.a1,
        "a2": weil.a2,
        "L": list(weil.l_coefficients),
        "P": list(weil.frobenius_coefficients),
    }


def _cmd_catalog(args):
    return {}, {"families": catalog_entries()}, 0


def _cmd_invariants(args):
    source, point = _curve_source(args)
    curve, label, point_used = resolve_curve(source, point)
    inputs = _source_inputs(args, point_used)
    inv = igusa(curve)
    outputs = {
        "source": label,
        "J2": rational_json(inv.j2),
        "J4": rational_json(inv.j4),
        "J6": rational_json(inv.j6),
        "J8": rational_json(inv.j8),
        "J10": rational_json(inv.j10),
    }
    try:
        i1, i2, i3 = inv.absolute()
        outputs["absolute"] = {
            "I1": rational_json(i1),
            "I2": rational_json(i2),
            "I3": rational_json(i3),
        }
    except UndefinedChartError:
        outputs["absolute"] = None
    return inputs, outputs, 0


def _cmd_independence(args):
    family = catalog_get(args.family)
    report = independence_rank(family, trials=args.trials, seed=args.seed)
    inputs = {"family": args.family, "trials": args.trials, "seed": args.seed}
    outputs = {
        "family": report.identifier,
        "rank": report.rank,
        "trials_used": report.trials,
        "rejected": report.rejected,
        "seed": report.seed,
        "witness": {
            k: rational_json(v) for k, v in sorted(report.witness.items())
        },
    }
    return inputs, outputs, 0


def _cmd_count_points(args):
    source, point = _curve_source(args)
    curve, label, point_used = resolve_curve(source, point)
    inputs = _source_inputs(args, point_used)
    inputs.update({"p": args.p, "ext": args.ext})
    reduction = reduce_mod_p(curve, args.p)
    _log.info("counting points of %s modulo %d", label, args.p)
    if args.ext == 2:
        counts = point_counts(reduction, args.p)
        outputs = _weil_payload(weil_polynomial(counts), counts)
    else:
        n1 = count_points(reduction, args.p, extension=1)
        outputs = {
            "p": args.p,
            "N1": n1,
            "N2": None,
            "a1": None,
            "a2": None,
            "L": None,
            "P": None,
        }
    return inputs, outputs, 0


def _weil_from_counts(args):
    """(inputs, outputs, weil) of the Weil data of --p/--n1/--n2, shared
    by `zeta` and `frobenius`. p must be prime; p = 2 is accepted, since
    no curve is reduced here."""
    if not is_prime(args.p):
        raise ValueError(f"{args.p} is not prime")
    counts = PointCount(args.p, args.n1, args.n2)
    weil = weil_polynomial(counts)
    inputs = {"p": args.p, "n1": args.n1, "n2": args.n2}
    return inputs, _weil_payload(weil, counts), weil


def _cmd_zeta(args):
    inputs, outputs, weil = _weil_from_counts(args)
    outputs["zeta"] = zeta_rational_form(weil)
    return inputs, outputs, 0


def _cmd_galois(args):
    try:
        descending = [int(chunk) for chunk in args.poly.split(",")]
    except ValueError:
        raise PolyParseError(
            f"--poly wants integer coefficients, got {args.poly!r}"
        ) from None
    if len(descending) != 5:
        raise PolyParseError("--poly wants 5 coefficients c4,c3,c2,c1,c0")
    if descending[0] != 1:
        raise PolyParseError("the quartic must be monic (c4 = 1)")
    inputs = {"poly": descending}
    ascending = tuple(reversed(descending))
    try:
        analysis = galois_group(ascending)
    except ReducibleQuarticError as exc:
        outputs = {
            "poly": descending,
            "irreducible": False,
            "group": None,
            "factors": [list(f) for f in exc.factors],
            "note": str(exc),
        }
        return inputs, outputs, 0
    outputs = {
        "poly": descending,
        "irreducible": True,
        "group": analysis.group,
        "discriminant": analysis.discriminant,
        "resolvent": list(analysis.resolvent),
        "resolvent_roots": list(analysis.resolvent_roots),
        "factors": None,
    }
    return inputs, outputs, 0


def _cmd_frobenius(args):
    inputs, outputs, weil = _weil_from_counts(args)
    outputs.update(frobenius_verdict(weil, ratios=True))
    return inputs, outputs, 0


def _cmd_certify(args):
    source, point = _curve_source(args)
    cert = certify_endomorphisms(
        source,
        point,
        args.p1,
        args.p2,
        geometric=args.geometric,
    )
    inputs = _source_inputs(args, cert.point)
    inputs.update(
        {
            "p1": args.p1,
            "p2": args.p2,
            "geometric": args.geometric,
        }
    )
    return inputs, cert.as_dict(), 0 if cert.trivial else 4


def _cmd_verify_divisor(args):
    report = verify_painleve_divisor_gar92()
    outputs = {
        "flow": args.flow,
        "identical": report.identical,
        "stages": [
            {"name": name, "ok": ok, "note": note}
            for name, ok, note in report.stages
        ],
    }
    if report.difference is not None:
        outputs["difference"] = str(report.difference)
    return {"flow": args.flow}, outputs, 0 if report.identical else 1


@functools.cache
def build_parser():
    """The argument parser, built once per process and reused by every
    `main` call."""
    parser = argparse.ArgumentParser(
        prog="spectral-torelli",
        description=(
            "Exact genus-2 spectral-curve toolkit: Igusa invariants, "
            "point counts, Weil data, and endomorphism certificates."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="emit a JSON envelope on stdout"
    )
    common.add_argument(
        "--verbose", action="store_true", help="log progress to stderr"
    )
    curve = argparse.ArgumentParser(add_help=False)
    group = curve.add_mutually_exclusive_group(required=True)
    group.add_argument("--family", help="catalog family identifier")
    group.add_argument("--file", help="path to a curve JSON file")
    curve.add_argument(
        "--at",
        help="parameter point, e.g. h1=12,h2=17,s=29 (rationals allowed)",
    )
    counts = argparse.ArgumentParser(add_help=False)
    for flag in ("--p", "--n1", "--n2"):
        counts.add_argument(flag, type=int, required=True)
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def command(name, handler, summary, *parents):
        q = sub.add_parser(name, parents=[common, *parents], help=summary)
        q.set_defaults(handler=handler)
        return q

    command("catalog", _cmd_catalog, "list the registered spectral families")
    command("invariants", _cmd_invariants,
            "Igusa invariants of a curve or of a family member", curve)
    q = command("independence", _cmd_independence,
                "rank of the absolute-invariant map of a family")
    q.add_argument("--family", required=True)
    q.add_argument("--trials", type=int, default=16)
    q.add_argument("--seed", type=int, default=DEFAULT_SEED)
    q = command("count-points", _cmd_count_points,
                "point counts of a curve reduced modulo p", curve)
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--ext", type=int, choices=(1, 2), default=2)
    command("zeta", _cmd_zeta,
            "Weil data and zeta numerator from two point counts", counts)
    q = command("galois", _cmd_galois, "Galois class of a monic integer quartic")
    q.add_argument(
        "--poly",
        required=True,
        help="descending coefficients c4,c3,c2,c1,c0 with c4=1",
    )
    command("frobenius", _cmd_frobenius,
            "endomorphism-field verdict from counts at one prime", counts)
    q = command("certify-endo", _cmd_certify,
                "two-prime endomorphism-triviality certificate", curve)
    q.add_argument("--p1", type=int, required=True)
    q.add_argument("--p2", type=int, required=True)
    q.add_argument(
        "--geometric",
        action="store_true",
        help="also run the root-of-unity ratio tests and, when they "
        "pass, upgrade the verdict to the geometric one",
    )
    q = command("verify-divisor", _cmd_verify_divisor,
                "replay the divisor/spectral-curve identity")
    q.add_argument("flow", choices=("gar92",))
    return parser


def _fmt(value):
    if isinstance(value, dict) and set(value.keys()) == {"num", "den"}:
        num, den = value["num"], value["den"]
        return num if den == "1" else f"{num}/{den}"
    if isinstance(value, (dict, list)):
        return json.dumps(value)
    return str(value)


def _print_human(envelope):
    print(f"[{envelope['command']}]")
    for key, value in envelope["outputs"].items():
        if isinstance(value, list) and value and isinstance(value[0], (dict, str)):
            print(f"{key}:")
            for item in value:
                print(f"  - {_fmt(item)}")
        else:
            print(f"{key} = {_fmt(value)}")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        inputs, outputs, code = args.handler(args)
    except DegenerateCurveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InconclusiveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    envelope = {"command": args.command, "inputs": inputs, "outputs": outputs}
    if args.json:
        print(json.dumps(envelope, indent=2))
    else:
        _print_human(envelope)
    return code


if __name__ == "__main__":
    sys.exit(main())
