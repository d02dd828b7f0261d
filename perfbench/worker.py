"""One measurement in a fresh interpreter; run.py starts it as a child.

    worker.py setup --workload W
        Time from just before `import spectral_torelli` until everything
        the workload's jobs load on first use is warm, then the time of
        the reference computation.
    worker.py run --workload W --seed N --seconds S [--trace] [--spans PATH]
        Warm up as above, then run the workload's fixed job list again
        and again, one job at a time, until S seconds have passed,
        checking each output and timing the reference computation after
        each job. With --trace the package is wrapped first.
    worker.py cliff
        Symbolic igusa(MatIII(D8)); run.py kills it at a time budget.

Each mode prints one JSON object on its last stdout line.
"""

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

import checks
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def import_package():
    if not (SRC / "spectral_torelli" / "__init__.py").is_file():
        raise SystemExit(f"no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    import spectral_torelli
    from spectral_torelli import cli

    return spectral_torelli, cli


def warm(workload):
    """Import the package and load what the workload's jobs would
    otherwise load on first use: the CLI parser, the catalog families
    and the frozen data tables."""
    st, cli = import_package()
    cli.build_parser()
    for family in workloads.FAMILIES:
        st.catalog_get(family)
    st.binary_sextic_discriminant([1, 0, 0, 0, 0, 1, 0])
    if workload == "symbolic":
        st.frozen_rank_witnesses()
        st.garnier92_solution()
        st.garnier92_hamiltonians()
        st.garnier92_hamiltonian_values()
        st.gar92_hamiltonian_frame()
    return st, cli


def specialized_curve(st, job):
    """The rational curve of the job's family at the job's point."""
    point = {k: Fraction(v) for k, v in job["point"].items()}
    return st.catalog_get(job["family"]).specialize(point)


def genus2_at(st, family, point):
    """Whether the family specializes to a genus-2 curve at the point."""
    try:
        specialized_curve(st, {"family": family, "point": point})
    except st.DegenerateCurveError:
        return False
    return True


def resolve_inputs(st, jobs):
    """Give each job the first of its candidate points at which its
    family specializes to a genus-2 curve, and each count-points job the
    first of its candidate primes at which that curve has good
    reduction."""
    resolved = []
    for job in jobs:
        if "point_candidates" in job:
            point = next(p for p in job["point_candidates"]
                         if genus2_at(st, job["family"], p))
            job = workloads.at_point(job, point)
        if "prime_candidates" in job:
            curve = specialized_curve(st, job)
            p = next(p for p in job["prime_candidates"]
                     if checks.good_reduction(curve.coefficients, p))
            job = workloads.with_prime(job, p)
        resolved.append(job)
    return resolved


def reference():
    """A fixed computation of the kind the package's inner loops do: a
    sparse product of two polynomials over Fraction, keyed by exponent
    tuples. It is written here, so no change to the package alters it;
    its time only follows how fast the shared machine runs at the moment
    (see run.py)."""
    a = {(i, j, i * j % 3): Fraction(i + 1, j + 2) for i in range(9) for j in range(9)}
    b = {(i, j, (i + j) % 2): Fraction(j - 4, i + 3) for i in range(7) for j in range(7)}
    product = {}
    for (i, j, k), x in a.items():
        for (u, v, w), y in b.items():
            key = (i + u, j + v, k + w)
            product[key] = product.get(key, 0) + x * y
    return product


def time_reference():
    t0 = time.perf_counter()
    reference()
    return (time.perf_counter() - t0) * 1000.0


def run_job(st, cli, job):
    """(exit code, payload): the CLI's stdout text, or for an igusa job
    the IgusaInvariants object."""
    if job["kind"] == "igusa":
        return 0, st.igusa(st.catalog_get(job["family"]))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(job["argv"])
        except SystemExit as exc:  # argparse rejects bad usage this way
            code = exc.code
    return code, out.getvalue()


class Checker:
    """Checks each result as it comes, against references built once per
    job. Only failure messages and the parsed outputs of the first pass
    are kept, so the process holds no more memory after ten passes than
    after one."""

    def __init__(self, st, jobs):
        self.st = st
        self.jobs = jobs
        self.refs = {}
        self.ranks = checks.expected_ranks(st.frozen_rank_witnesses())
        self.failed = 0
        self.failures = []
        # Parsed outputs of the first pass, for the digest and the ratios.
        self.outputs = []

    def _igusa_at_point(self, i, inv):
        job = self.jobs[i]
        point = {k: Fraction(v) for k, v in job["point"].items()}
        symbolic = [j.evaluate(point) for j in inv.as_tuple()]
        curve = specialized_curve(self.st, job)
        return symbolic, list(self.st.igusa(curve).as_tuple())

    def _check(self, i, code, payload):
        """(failure messages, parsed output)."""
        job = self.jobs[i]
        if code is None:
            return [f"raised {payload}"], None
        if job["kind"] == "igusa":
            if i not in self.refs:
                self.refs[i] = (payload, self._igusa_at_point(i, payload))
            first, (symbolic, specialized) = self.refs[i]
            failures = checks.check_igusa(symbolic, specialized)
            if payload != first:
                failures.append("symbolic invariants changed between passes")
            return failures, [str(v) for v in symbolic]
        envelope = json.loads(payload) if payload else None
        command = job["argv"][0]
        if command == "verify-divisor":
            return checks.check_divisor(envelope, code), envelope
        if command == "independence":
            return (
                checks.check_independence(envelope, code, job["family"], self.ranks),
                envelope,
            )
        if i not in self.refs:
            self.refs[i] = specialized_curve(self.st, job).coefficients
        if command == "count-points":
            return checks.check_count_points(envelope, code, self.refs[i]), envelope
        return checks.check_certificate(envelope, code, self.refs[i]), envelope

    def check(self, i, code, payload):
        problems, output = self._check(i, code, payload)
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append({"job": i, "problems": problems})
        if len(self.outputs) < len(self.jobs):
            self.outputs.append(output)


def closed_loop(st, cli, jobs, seconds, checker, tracer):
    """Run the job list in passes, one job at a time, until `seconds`
    have elapsed, and check each result right after its job, outside the
    timed span, then time the reference computation once. The first
    pass always completes; the last one stops at the deadline, so a job
    late in the list may have one sample fewer. Returns the times of the
    completed passes (the sums of their job times), all job times, the
    reference times (one before the first job and one after each job,
    so job m ran between reference m and m + 1), and with a tracer its
    counters after the first and after the last completed pass."""
    clock = time.perf_counter
    passes, job_ms, ref_ms, snapshots = [], [], [time_reference()], []
    start = clock()
    while True:
        busy = 0.0
        for i, job in enumerate(jobs):
            if passes and clock() - start >= seconds:
                return passes, job_ms, ref_ms, snapshots
            if tracer is not None:
                tracer.job = f"{len(passes)}:{i}"
            t0 = clock()
            try:
                code, payload = run_job(st, cli, job)
            except Exception as exc:  # a job that raised is a failed job
                code, payload = None, f"{type(exc).__name__}: {exc}"
            elapsed = clock() - t0
            busy += elapsed
            job_ms.append(elapsed * 1000.0)
            checker.check(i, code, payload)
            ref_ms.append(time_reference())
        passes.append(busy)
        if tracer is not None:
            counters = tracer.counters()
            snapshots = [snapshots[0] if snapshots else counters, counters]


def output_ratios(parsed):
    """Counts behind the verdict and rank-search ratios."""
    counts = dict.fromkeys(
        ("certificates", "trivial", "primes", "usable_primes", "rank_trials",
         "rank_rejected"), 0)
    for envelope in parsed:
        if not isinstance(envelope, dict):
            continue
        out = envelope["outputs"]
        if envelope["command"] == "certify-endo":
            counts["certificates"] += 1
            counts["trivial"] += out["verdict"] in checks.TRIVIAL_VERDICTS
            counts["primes"] += len(out["records"])
            counts["usable_primes"] += sum(bool(r["usable"]) for r in out["records"])
        elif envelope["command"] == "independence":
            counts["rank_trials"] += out["trials_used"]
            counts["rank_rejected"] += out["rejected"]
    return counts


def steady_pass(snapshots, passes):
    """Tracer counters per completed pass after the first, from the
    snapshots after the first and the last completed pass. The first
    pass also fills the package's caches and builds the checks'
    references, so a count per later pass does not depend on how many
    passes fit."""
    first, last = snapshots
    if passes == 1:
        return first
    return {k: (last[k] - first[k]) / (passes - 1) for k in last}


def cmd_run(args):
    st, cli = warm(args.workload)
    jobs = resolve_inputs(st, workloads.jobs_for(args.workload, args.seed))
    checker = Checker(st, jobs)
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        tracer.start_gc()
    passes, job_ms, ref_ms, snapshots = closed_loop(
        st, cli, jobs, args.seconds, checker, tracer)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = {}
    if tracer is not None:
        tracer.stop_gc()
        report = {
            "per_pass": steady_pass(snapshots, len(passes)),
            "bindings": tracer.bindings,
        }
        if args.spans:
            spans_path = Path(args.spans)
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            fields = ("job", "id", "parent", "name", "start", "end")
            spans_path.write_text(
                json.dumps([dict(zip(fields, s)) for s in tracer.spans]) + "\n"
            )

    digest = hashlib.sha256(
        json.dumps(checker.outputs, sort_keys=True).encode()
    ).hexdigest()
    report.update(
        inputs=jobs,
        passes_s=passes,
        job_ms=job_ms,
        ref_ms=ref_ms,
        jobs_per_pass=len(jobs),
        attempted=len(job_ms),
        failed=checker.failed,
        failures=checker.failures,
        peak_rss_mib=peak_rss_mib,
        outputs_sha256=digest,
        output_counts=output_ratios(checker.outputs),
    )
    print(json.dumps(report))


def cmd_setup(args):
    t0 = time.perf_counter()
    warm(args.workload)
    setup_s = time.perf_counter() - t0
    print(json.dumps({"setup_s": setup_s, "ref_ms": time_reference()}))


def cmd_cliff(args):
    st, _ = import_package()
    family = st.catalog_get("MatIII(D8)")
    t0 = time.perf_counter()
    st.igusa(family)
    print(json.dumps({"seconds": time.perf_counter() - t0}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    q = sub.add_parser("setup")
    q.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    q.set_defaults(func=cmd_setup)
    q = sub.add_parser("run")
    q.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--seconds", type=float, required=True)
    q.add_argument("--trace", action="store_true")
    q.add_argument("--spans", help="where a traced run writes its kept spans")
    q.set_defaults(func=cmd_run)
    q = sub.add_parser("cliff")
    q.set_defaults(func=cmd_cliff)
    args = parser.parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main()
