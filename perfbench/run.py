"""Benchmark of the spectral_torelli package.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its
`src/` directory. The seed only decides the inputs (see workloads.py);
jobs go through the user-facing entry points, `cli.main([... --json])`
in-process plus `igusa(family)`, one at a time in one thread (a closed
loop with a single client).

The job list is run in passes until --seconds have elapsed. Each job's
time is the median over those passes of its times, each put on a fixed
scale by the time of a reference computation next to it (see
on_reference_scale). With --trace 0 the last stdout
line carries the end-to-end metrics of an untraced run: set-up time, the
time to run the job list once, job time percentiles, peak RSS and the
share of jobs that passed the output checks. With --trace 1 it
carries the per-layer metrics of a traced run (a second fresh process),
including the tracing overhead against an untraced run; the two runs
share the --seconds. Every invocation also probes the known MatIII(D8)
symbolic-invariant cliff under a time budget. A full record (inputs,
sample counts, raw samples, output digest, environment) goes to
perfbench/out/.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_SAMPLES = 21
# The time of worker.reference() in a quiet spell of the machine the
# committed baseline was recorded on (a shared 2-vCPU x86-64 VM, CPython
# 3.11). Times are reported on that scale (see on_reference_scale).
REFERENCE_MS = 11.0
CLIFF_BUDGET_S = 2.0
# A worker always completes its first pass, which can outlast a short
# --seconds (a traced pass takes several seconds), and then stops at the
# first job boundary after --seconds.
WORKER_GRACE_S = 60.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "job_ms_p50": "ms",
    "job_ms_p90": "ms",
    "peak_rss_mib": "MiB",
    "success_frac": "1",
}


class BenchError(Exception):
    pass


class ChildTimeout(BenchError):
    pass


def child(args, timeout):
    """Run a worker.py mode in a fresh interpreter and return the JSON
    object on its last stdout line."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildTimeout(f"{' '.join(args)}: no result within {timeout} s")
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args)} exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def cliff_probe():
    """Symbolic igusa(MatIII(D8)) in a child that is killed at the budget."""
    probe = {"case": "igusa(MatIII(D8))", "budget_s": CLIFF_BUDGET_S}
    try:
        probe["seconds"] = child(["cliff"], CLIFF_BUDGET_S)["seconds"]
        probe["status"] = "ok"
    except ChildTimeout:
        probe["status"] = "timeout"
    except BenchError as exc:
        probe["status"] = f"failed: {str(exc)[-200:]}"
    return probe


def setup_times(workload, n):
    return [child(["setup", "--workload", workload], 60) for _ in range(n)]


def measure(workload, seed, seconds, trace, spans=None):
    args = ["run", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        args.append("--trace")
    if spans:
        args += ["--spans", str(spans)]
    return child(args, seconds + WORKER_GRACE_S)


def on_reference_scale(times, refs):
    """Each time divided by the reference time taken next to it, in
    units of REFERENCE_MS.

    A shared 2-vCPU VM runs at two speeds about 2x apart, in spells from
    a split second to several minutes, so a whole run can fall in a slow
    spell. The package's code and worker.reference() slow down together:
    over ten 50 s runs per workload in a noisy hour, the quartile spreads
    of wall_s, job_ms_p50 and setup_s were 0.16-0.40 for the plain
    medians and 0.03-0.07 for the medians on this scale. Taking each
    job's best time instead skips the short spells but not a run-long
    one."""
    return [t / r * REFERENCE_MS for t, r in zip(times, refs)]


def job_ms(run):
    """Each job's time in a run: the median over the passes of its times
    on the reference scale, each against the mean of the reference
    times just before and just after it."""
    refs = run["ref_ms"]
    around = [(a + b) / 2 for a, b in zip(refs, refs[1:])]
    scaled = on_reference_scale(run["job_ms"], around)
    n = run["jobs_per_pass"]
    return [statistics.median(scaled[i::n]) for i in range(n)]


def end_to_end(setups, run):
    """The end-to-end metrics. Times are on the reference scale, each
    the median of its samples: the set-up time over the fresh set-ups,
    each against the reference timed right after it in that process."""
    jobs = job_ms(run)
    if len(jobs) > 1:
        p90 = statistics.quantiles(jobs, n=10, method="inclusive")[-1]
    else:
        p90 = jobs[0]
    setup_s = on_reference_scale([s["setup_s"] for s in setups], [s["ref_ms"] for s in setups])
    return {
        "setup_s": statistics.median(setup_s),
        "wall_s": sum(jobs) / 1000.0,
        "job_ms_p50": statistics.median(jobs),
        "job_ms_p90": p90,
        "peak_rss_mib": run["peak_rss_mib"],
        "success_frac": 1.0 - run["failed"] / run["attempted"],
    }


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(traced, untraced):
    """Per-layer metrics from a traced run, as name -> (value, unit).
    Counts and times are per pass over the job list, after the first
    pass (see worker.steady_pass); the output ratios come from the first
    pass's outputs."""
    layer = traced["per_pass"]
    metrics = {}
    for name, value in layer.items():
        unit = "s" if name.endswith("_s") else "count"
        metrics[name] = (value, unit)
    count_s = sum(
        layer[f"finite_arithmetic.count_points.ext{e}.self_s"] for e in (1, 2)
    )
    elements = layer["finite_arithmetic.elements_scanned"]
    metrics["finite_arithmetic.ns_per_element"] = (_ratio(count_s * 1e9, elements), "ns")
    counts = traced["output_counts"]
    metrics["igusa_invariants.rank_trials"] = (counts["rank_trials"], "count")
    metrics["igusa_invariants.rank_rejected_ratio"] = (
        _ratio(counts["rank_rejected"], counts["rank_trials"]), "1")
    metrics["endo_pipeline.usable_prime_ratio"] = (
        _ratio(counts["usable_primes"], counts["primes"]), "1")
    metrics["endo_pipeline.trivial_ratio"] = (
        _ratio(counts["trivial"], counts["certificates"]), "1")
    metrics["trace.overhead_ratio"] = (
        sum(job_ms(traced)) / sum(job_ms(untraced)), "1")
    return metrics


def git_sha():
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spectral_torelli" / "__init__.py").is_file():
        print(f"error: no spectral_torelli source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        # A traced invocation splits its --seconds between the untraced
        # run its overhead is measured against and the traced run.
        run_s = args.seconds / 2 if args.trace else args.seconds
        # Set-up samples are split around the measured run, so that one
        # slow spell of a shared machine cannot cover all of them.
        setups = setup_times(args.workload, SETUP_SAMPLES // 2)
        untraced = measure(args.workload, args.seed, run_s, trace=False)
        setups += setup_times(args.workload, SETUP_SAMPLES - len(setups))
        traced = None
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            traced = measure(args.workload, args.seed, run_s, trace=True,
                             spans=OUT / f"{stem}.spans.json")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    cliff = cliff_probe()

    runs = [untraced] + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    e2e = end_to_end(setups, untraced)
    if args.trace:
        metrics = per_layer(traced, untraced)
    else:
        metrics = {name: (e2e[name], unit) for name, unit in END_TO_END_UNITS.items()}
    p90 = e2e["job_ms_p90"]
    n = untraced["jobs_per_pass"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "inputs": untraced["inputs"],
        "jobs_per_pass": untraced["jobs_per_pass"],
        "passes": len(untraced["passes_s"]),
        "jobs_run": untraced["attempted"],
        "samples": {
            "setup_s": len(setups),
            "job_ms": untraced["jobs_per_pass"],
            "job_ms_above_p90": sum(1 for t in job_ms(untraced) if t > p90),
            "passes_per_job": len(untraced["passes_s"]),
        },
        "end_to_end": e2e,
        "per_layer": {k: v for k, (v, _) in metrics.items()} if args.trace else None,
        "raw": {
            "setups": setups,
            "passes_s": untraced["passes_s"],
            "job_ms": untraced["job_ms"],
            "ref_ms": untraced["ref_ms"],
        },
        "unscaled": {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "job_ms": [statistics.median(untraced["job_ms"][i::n]) for i in range(n)],
        },
        "outputs_sha256": untraced["outputs_sha256"],
        "output_counts": (traced or untraced)["output_counts"],
        "failures": [f for r in runs for f in r["failures"]],
        "wrapped_bindings": traced["bindings"] if traced else None,
        "cliff_probe": cliff,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(
        f"{args.workload} seed={args.seed}: {len(untraced['passes_s'])} passes of "
        f"{untraced['jobs_per_pass']} jobs, {failed}/{attempted} failed, "
        f"cliff probe {cliff['status']}",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
