"""Summarize the run records in perfbench/out/ into one result file.

    python3 perfbench/summarize.py OUTPUT.json

For every workload: the per-seed end-to-end values of the untraced
runs, with their median and quartile spread (the distance between the
first and third quartile over the median), the unscaled set-up and wall
times of each seed, and the per-layer metrics of each traced run. The environment is taken from the newest record.
"""

import json
import statistics
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def spread(values):
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def summarize(records):
    workloads = {}
    for record in records:
        entry = workloads.setdefault(
            record["workload"], {"seeds": [], "end_to_end": {}, "traced": []}
        )
        if record["trace"]:
            entry["traced"].append({"seed": record["seed"], "per_layer": record["per_layer"]})
            continue
        entry["seeds"].append({
            "seed": record["seed"],
            "jobs_per_pass": record["jobs_per_pass"],
            "passes": record["passes"],
            "samples": record["samples"],
            "primes": sorted({p for job in record["inputs"] for p in job.get("primes", ())}),
            "unscaled": {
                "setup_s": record["unscaled"]["setup_s"],
                "wall_s": sum(record["unscaled"]["job_ms"]) / 1000.0,
            },
            "outputs_sha256": record["outputs_sha256"],
            "cliff_probe": record["cliff_probe"]["status"],
        })
        for name, value in record["end_to_end"].items():
            entry["end_to_end"].setdefault(name, []).append(value)
    for entry in workloads.values():
        entry["end_to_end"] = {
            name: {"median": statistics.median(values), "spread": spread(values),
                   "values": values}
            for name, values in entry["end_to_end"].items()
        }
    return workloads


def main(argv):
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    paths = sorted(OUT.glob("*-trace[01].json"), key=lambda p: p.stat().st_mtime)
    records = [json.loads(p.read_text()) for p in paths]
    if not records:
        print(f"no run records under {OUT}", file=sys.stderr)
        return 1
    result = {
        "environment": records[-1]["environment"],
        "seconds": records[-1]["seconds"],
        "workloads": summarize(records),
    }
    Path(argv[0]).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
