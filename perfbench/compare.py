"""Compare two recorded trajectory points, end-to-end metric by metric.

    python3 perfbench/compare.py OLD.json NEW.json

For every workload and end-to-end metric of BENCHMARK.json, prints the
two medians and the change in the metric's worse direction, as a share
of the old median.  A change worse than the metric's bound is a
regression; where the old runs' own quartile spread exceeds the bound
the verdict is "unresolved".  Exit code 1 on any regression, 2 when the
points were taken on different backends, Python versions or core
counts and so cannot be compared.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMPARABLE = ("backend", "python", "nproc")


def compare(old: dict, new: dict, spec: dict) -> list[dict]:
    rows = []
    for workload, old_w in old["workloads"].items():
        new_w = new["workloads"].get(workload)
        if new_w is None:
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = old_w["end_to_end"][name]
            b = new_w["end_to_end"][name]
            sign = 1 if metric["better"] == "lower" else -1
            worse = sign * (b["median"] - a["median"]) / a["median"]
            spread = (a["q3"] - a["q1"]) / a["median"]
            if worse > bound:
                verdict = "regression"
            elif spread > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append({"workload": workload, "metric": name, "old": a["median"],
                         "new": b["median"], "worse": worse, "bound": bound,
                         "verdict": verdict})
    return rows


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (json.loads(Path(p).read_text()) for p in argv)
    for key in COMPARABLE:
        if old["provenance"][key] != new["provenance"][key]:
            print(f"error: cannot compare results with different {key}: "
                  f"{old['provenance'][key]} vs {new['provenance'][key]}", file=sys.stderr)
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(old, new, spec)
    for r in rows:
        print(f"{r['workload']:9} {r['metric']:12} {r['old']:12.6g} {r['new']:12.6g} "
              f"worse {r['worse']:+.3f} (bound {r['bound']}) {r['verdict']}")
    return 1 if any(r["verdict"] == "regression" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
