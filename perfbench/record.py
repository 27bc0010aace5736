"""Record one point of the benchmark trajectory.

    python3 perfbench/record.py LABEL [--seeds 1,2,3] [--seconds 30]

Runs every workload once per seed untraced and once traced (first
seed), each run in its own process, and writes
`perfbench/trajectory/LABEL.json`: for every end-to-end metric the
values, median and quartiles; the per-layer metrics of the traced run;
and the provenance, which must agree across all runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.run import OUT_DIR  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

# provenance fields that must match for results to be comparable
SHARED = ("backend", "python", "nproc", "commit", "source_sha256")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode}:\n"
                         f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
    return json.loads((OUT_DIR / f"result-{workload}-seed{seed}-trace{trace}.json").read_text())


def summarise(runs: list[dict], key: str) -> dict:
    """Per metric: unit, values in seed order, median and quartiles."""
    out = {}
    for name, entry in runs[0][key].items():
        if not all(name in r[key] for r in runs):
            continue   # a tail percentile that not every run had samples for
        values = [r[key][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"unit": entry["unit"], "median": median, "q1": q1, "q3": q3,
                     "values": values}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label")
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    point = {"label": args.label, "seeds": seeds, "seconds": args.seconds, "workloads": {}}
    provenance = None
    for workload in WORKLOADS:
        runs = [run_once(workload, seed, args.seconds, 0) for seed in seeds]
        traced = run_once(workload, seeds[0], args.seconds, 1)
        for result in runs + [traced]:
            shared = {k: result["provenance"][k] for k in SHARED}
            if provenance is None:
                provenance = shared
            elif shared != provenance:
                raise SystemExit(f"provenance changed between runs: {shared} != {provenance}")
        point["workloads"][workload] = {
            "end_to_end": summarise(runs, "metrics"),
            "report": summarise(runs, "report"),
            "per_layer": {name: entry["value"] for name, entry in traced["metrics"].items()},
            "absent": traced["absent"],
        }
        print(f"recorded {workload}", flush=True)
    point["provenance"] = provenance
    path = ROOT / "perfbench" / "trajectory" / f"{args.label}.json"
    path.write_text(json.dumps(point, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
