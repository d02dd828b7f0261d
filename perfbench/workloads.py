"""Seeded job lists for the two benchmark workloads.

This module is stdlib-only and imports nothing from the package under
test: the seed decides the inputs here, and the program only ever sees
the generated command lines. A job is a dict with a `kind` ("cli" for
an in-process `cli.main([...])` call, "igusa" for the symbolic
`igusa(catalog_get(family))` entry point, which has no CLI form) and the
inputs that went into it.

Sizes are chosen so that a different seed changes the inputs but not
the amount of work by much: each family gets a fixed number of jobs,
and a point count runs at one of the few primes nearest a fixed target.
A job at a parameter point lists a few seeded candidate points, and a
count-points job also lists those primes as candidates. worker.py runs
a job at the first candidate point where the family specializes to a
genus-2 curve (about one seed in seventy drew a MatIII(D8) point on its
discriminant locus) and at the first prime where the benchmark's own
test finds good reduction, since the program rightly refuses a singular
curve or reduction.
"""

import random
from fractions import Fraction

WORKLOADS = ("finite-field", "symbolic")

# Parameter names of the catalog families that carry exact coefficients.
FAMILY_PARAMETERS = {
    "Gar9/2": ("h1", "h2", "s1", "s2"),
    "Gar5/2+3/2": ("h1", "h2", "s1", "s2"),
    "MatI": ("h1", "h2", "s", "theta"),
    "MatIII(D8)": ("h1", "h2", "s", "theta"),
    "KFS4/3+4/3": ("h1", "h2", "s"),
}
FAMILIES = tuple(FAMILY_PARAMETERS)
# MatIII(D8) is left out: its symbolic invariants do not finish in
# minutes (see the cliff probe in run.py).
SYMBOLIC_IGUSA_FAMILIES = ("Gar9/2", "Gar5/2+3/2", "KFS4/3+4/3", "MatI")

# Numerators and denominators of generated parameter values are bounded
# by this height. Numerators are nonzero: a zero parameter puts several
# families on their discriminant locus.
POINT_HEIGHT = 30
# The 20 odd primes in this range, paired up afresh for each family, so
# every family is certified once at each prime: 10 jobs per family, and
# the same primes, hence nearly the same work, at every seed.
CERTIFY_PRIME_RANGE = (29, 110)
# One ext-2 count per octave, at one of the primes nearest the target,
# each on a fixed family so that seeds differ only in point and prime.
# MatIII(D8) is left out here: specializing its 98-term coefficients
# costs more than a mid-size count, and this workload measures counting.
# The octave near 1100 is left out too: its single 2.5-4 s count took
# 40% of a pass, so each job got too few passes to time it steadily.
COUNT_OCTAVES = (
    (137, "Gar9/2"),
    (275, "MatI"),
    (550, "Gar5/2+3/2"),
)
COUNT_PRIME_CANDIDATES = 5
POINT_CANDIDATES = 3
INDEPENDENCE_SEEDS_PER_FAMILY = 3
# KFS's invariant map has rank 2 < 3, so its rank search runs all of its
# trials at every seed: one seed measures it, and more only lengthen the
# pass (three KFS jobs took 2.2 s of a 6 s pass).
KFS_INDEPENDENCE_SEEDS = 1


def odd_primes(lo, hi):
    """Odd primes in [lo, hi], by trial division."""
    return [
        n
        for n in range(max(lo, 3), hi + 1)
        if n % 2 and all(n % d for d in range(3, int(n ** 0.5) + 1, 2))
    ]


def seeded_point(rng, family):
    """A parameter point {name: Fraction} of bounded height."""
    point = {}
    for name in FAMILY_PARAMETERS[family]:
        num = rng.choice((-1, 1)) * rng.randint(1, POINT_HEIGHT)
        point[name] = Fraction(num, rng.randint(1, POINT_HEIGHT))
    return point


def seeded_points(rng, family):
    """Candidate points of one job, as {name: text}."""
    return [
        {k: str(v) for k, v in seeded_point(rng, family).items()}
        for _ in range(POINT_CANDIDATES)
    ]


def point_text(point):
    return ",".join(f"{name}={value}" for name, value in point.items())


def _cli(argv, **inputs):
    return {"kind": "cli", "argv": list(argv) + ["--json"], **inputs}


def _certify_jobs(rng):
    primes = odd_primes(*CERTIFY_PRIME_RANGE)
    pairs = {}
    for family in FAMILIES:
        shuffled = rng.sample(primes, len(primes))
        pairs[family] = list(zip(shuffled[::2], shuffled[1::2]))
    jobs = []
    for k in range(len(primes) // 2):
        for family in FAMILIES:
            points = seeded_points(rng, family)
            p1, p2 = pairs[family][k]
            jobs.append(
                _cli(
                    ["certify-endo", "--family", family, "--at",
                     point_text(points[0]), "--p1", str(p1), "--p2", str(p2),
                     "--geometric"],
                    family=family,
                    point=points[0],
                    point_candidates=points,
                    primes=[p1, p2],
                )
            )
    return jobs


def nearest_primes(target, k):
    """The k odd primes closest to target."""
    return sorted(odd_primes(target // 2, 2 * target), key=lambda p: abs(p - target))[:k]


def at_point(job, point):
    """The job at `point`, chosen from its candidate points."""
    job = {**job, "point": point}
    if "argv" in job:
        argv = list(job["argv"])
        argv[argv.index("--at") + 1] = point_text(point)
        job["argv"] = argv
    return job


def with_prime(job, p):
    """A count-points job at prime p, chosen from its candidates."""
    argv = ["count-points", "--family", job["family"], "--at",
            point_text(job["point"]), "--p", str(p), "--ext", "2", "--json"]
    return {**job, "argv": argv, "primes": [p]}


def _count_jobs(rng):
    jobs = []
    for target, family in COUNT_OCTAVES:
        candidates = nearest_primes(target, COUNT_PRIME_CANDIDATES)
        rng.shuffle(candidates)
        points = seeded_points(rng, family)
        job = {"kind": "cli", "family": family, "point": points[0],
               "point_candidates": points, "prime_candidates": candidates}
        jobs.append(with_prime(job, candidates[0]))
    return jobs


def _finite_field_jobs(rng):
    """Two-prime certificates at small primes, where per-prime fixed
    costs dominate, and ext-2 counts up to p = 550, where the counting
    loop does. Timed apart, the four large counts varied too much from
    run to run; next to the certificates their share of the pass is
    steady enough."""
    return _certify_jobs(rng) + _count_jobs(rng)


def _symbolic_jobs(rng):
    """Independence per family, symbolic igusa, and one replay of the
    rank-9/2 divisor identity. The replay input is the frozen transcribed
    solution, so no seed enters it. On its own the replay could not be
    timed steadily (a single job of a few seconds that slow spells of a
    shared machine cover whole), so it rides in this workload."""
    jobs = []
    for family in FAMILIES:
        if family == "KFS4/3+4/3":
            seeds = KFS_INDEPENDENCE_SEEDS
        else:
            seeds = INDEPENDENCE_SEEDS_PER_FAMILY
        for _ in range(seeds):
            seed = rng.randrange(2 ** 31)
            jobs.append(
                _cli(
                    ["independence", "--family", family, "--seed", str(seed)],
                    family=family,
                    independence_seed=seed,
                )
            )
    for family in SYMBOLIC_IGUSA_FAMILIES:
        points = seeded_points(rng, family)
        jobs.append(
            {
                "kind": "igusa",
                "family": family,
                # Where the check evaluates the symbolic invariants.
                "point": points[0],
                "point_candidates": points,
            }
        )
    jobs.append(_cli(["verify-divisor", "gar92"]))
    return jobs


_JOB_LISTS = {
    "finite-field": _finite_field_jobs,
    "symbolic": _symbolic_jobs,
}


def jobs_for(workload, seed):
    """The fixed job list of one workload at one seed."""
    if workload not in _JOB_LISTS:
        raise ValueError(f"unknown workload {workload!r}")
    return _JOB_LISTS[workload](random.Random(f"{workload}:{seed}"))
