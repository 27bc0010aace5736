"""Benchmark command: one workload, one process, one thread.

Run from the repository root:

    python3 perfbench/run.py --workload diagram|verify|elements \
        --seed N --seconds S --trace 0|1

The program is imported from `src/` of the checkout, as the tests do,
and is not built, so the backend is whatever `cyclat.BACKEND` reports.

--trace 0 cycles through the workload's operations for S seconds and
reports the end-to-end metrics.  --trace 1 runs every operation once
plain and once with every layer wrapped, and reports the per-layer
metrics and the tracing overhead (traced minus plain wall time).
Either way the last line of standard output is one JSON object:

    {"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value", "unit"}}}

Lines before it give provenance and every metric by name and unit.
The full result, and in a traced run the spans, are written under
`.bench_out/`.  The exit code is 1 if any output was wrong, 2 if the
program cannot be found.

The gated times are scaled to a reference core's speed by calibrations
taken through the run (see `speed.py`), because the hosts this runs on
share cores with other work.  The measured, unscaled figures and the
host's median slowdown are printed beside them.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT))

from perfbench import layers, stats  # noqa: E402
from perfbench.speed import HostSpeed  # noqa: E402
from perfbench.tracing import Tracer, program_modules  # noqa: E402
from perfbench.workloads import WORKLOADS, Op, import_program  # noqa: E402

# The seed used while a change is written, and one held out to confirm
# its claimed gain afterwards.
DEFAULT_SEED = 1
HELDOUT_SEED = 7919
SETUP_REPEATS = 9
CAL_INTERVAL_S = 0.025

# name -> unit of the end-to-end metrics every workload reports
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


class Tally:
    """Samples and failures of the operations run so far."""

    def __init__(self) -> None:
        self.times: dict[int, list[tuple[float, float]]] = {}  # op index -> (start, seconds)
        self.kinds: dict[int, str] = {}                        # op index -> kind
        self.setups: list[tuple[float, float]] = []            # (start, seconds)
        self.attempted = 0
        self.errors: list[str] = []


def attempt(op: Op, tracer: Tracer | None = None) -> tuple[object, float, float, str | None]:
    """Run one operation; returns its output, start, seconds and error."""
    start = time.perf_counter()
    try:
        if tracer is None:
            out = op.run()
        else:
            with tracer.request(op.kind):
                out = op.run()
        return out, start, time.perf_counter() - start, None
    except Exception as exc:  # a raising operation is a failed operation
        return None, start, 0.0, f"{op.kind} raised {exc!r}"


def record(op: Op, out: object, error: str | None, tally: Tally) -> bool:
    """Check an operation's output and count it; True if it was right."""
    tally.attempted += 1
    if error is None:
        try:
            error = op.check(out)
        except Exception as exc:  # a check that cannot read the output fails it
            error = f"{op.kind} output {out!r} raised {exc!r}"
    if error is not None:
        tally.errors.append(error)
    return error is None


def run_op(op: Op, index: int | None, tally: Tally) -> tuple[float, float]:
    """Run, check and count one operation; returns its start and seconds.
    `index` None leaves it out of the timing statistics."""
    out, start, elapsed, error = attempt(op)
    if record(op, out, error, tally) and index is not None:
        tally.times.setdefault(index, []).append((start, elapsed))
        tally.kinds[index] = op.kind
    return start, elapsed


def set_up(workload: str, seed: int, tally: Tally):
    """Import the program afresh and generate the inputs; returns the
    program and the workload."""
    for name in [m for m in sys.modules if m == "cyclat" or m.startswith("cyclat.")]:
        del sys.modules[name]
    start = time.perf_counter()
    program = import_program()
    instance = WORKLOADS[workload](program, seed, OUT_DIR)
    tally.setups.append((start, time.perf_counter() - start))
    return program, instance


def measure(args, instance, tally: Tally, speed: HostSpeed):
    """Cycle through the operations until `args.seconds` have gone by and
    each has run at least once, calibrating every CAL_INTERVAL_S.
    Set-up is repeated at even intervals inside the run, so that its
    median spans the run; each repeat's fresh workload takes over, with
    the same inputs.  Returns the wall time and the last workload."""
    start = time.perf_counter()
    count = len(instance.ops)
    interval = args.seconds / SETUP_REPEATS
    index = 0
    speed.sample()
    while index < count or time.perf_counter() - start < args.seconds:
        run_op(instance.ops[index % count], index % count, tally)
        index += 1
        if time.perf_counter() - speed.at[-1] >= CAL_INTERVAL_S:
            speed.sample()
        if (len(tally.setups) < SETUP_REPEATS
                and time.perf_counter() - start >= interval * len(tally.setups)):
            _, instance = set_up(args.workload, args.seed, tally)
            gc.collect()   # free the replaced modules now, not at a random later point
            speed.sample()
    loop_s = time.perf_counter() - start
    while len(tally.setups) < SETUP_REPEATS:
        _, instance = set_up(args.workload, args.seed, tally)
        speed.sample()
    return loop_s, instance


def end_to_end(tally: Tally, speed: HostSpeed, loop_s: float,
               final: dict[str, tuple[float, float]]) -> tuple[dict, dict]:
    """The gated metrics, scaled to the reference core, and the wider
    report printed beside them."""
    medians = {i: statistics.median(speed.scaled(*t) for t in times)
               for i, times in tally.times.items()}
    raw_medians = [statistics.median(s for _, s in times) for times in tally.times.values()]
    samples = [s for times in tally.times.values() for _, s in times]
    gated = {
        "setup_s": statistics.median(speed.scaled(*t) for t in tally.setups),
        "wall_s": sum(medians.values()),
        "op_p50_ms": statistics.median(medians.values()) * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = {
        "setup_s": statistics.median(s for _, s in tally.setups),
        "wall_s": sum(raw_medians),
        "op_p50_ms": statistics.median(raw_medians) * 1000,
    }
    report = {
        "host_slowdown": (speed.slowdown(), "ratio"),
        **{f"raw.{name}": (value, END_TO_END[name])
           for name, value in raw.items()},
        "loop_s": (loop_s, "s"),
        "operations": (len(medians), "count"),
        "samples": (len(samples), "count"),
        "calibrations": (len(speed.seconds), "count"),
        "failed_ratio": (len(tally.errors) / tally.attempted, "ratio"),
        "ops_per_s": (len(samples) / sum(samples), "1/s"),
    }
    tail = stats.tail_percentile(len(medians))
    if tail is not None:
        report[f"op_{stats.percentile_label(tail)}_ms"] = (
            stats.percentile(list(medians.values()), tail) * 1000, "ms")
    for kind in sorted(set(tally.kinds.values())):
        report[f"{kind}_s"] = (statistics.median(
            t for i, t in medians.items() if tally.kinds[i] == kind), "s")
    for kind, sample in final.items():
        report[f"{kind}_s"] = (speed.scaled(*sample), "s")
    return gated, report


def traced_metrics(instance, tally: Tally) -> tuple[dict, Tracer]:
    """Every operation once plain, then once with the layers wrapped.
    Traced outputs are checked after the wrappers are removed, so that
    the checks' own calls into the program are not counted."""
    start = time.perf_counter()
    for op in instance.ops:
        run_op(op, None, tally)
    plain = time.perf_counter() - start
    tracer = Tracer()
    sizes = layers.BuildSizes()
    tracer.install(layers.TARGETS, program_modules(), on_result={"poset.build": sizes})
    try:
        start = time.perf_counter()
        results = [attempt(op, tracer) for op in instance.ops]
        traced = time.perf_counter() - start
    finally:
        tracer.uninstall()
    for op, (out, _, _, error) in zip(instance.ops, results):
        record(op, out, error, tally)
    values = layers.per_layer_metrics(tracer, sizes, len(instance.ops), traced - plain)
    units = {spec["name"]: spec["unit"] for spec in layers.metric_specs()}
    return {name: {"value": v, "unit": units[name]} for name, v in values.items()}, tracer


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest() -> str:
    """SHA-256 over the program's sources, which names the code measured
    even in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "cyclat").glob("*.py*")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(program, args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": program.cyclat.BACKEND,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cyclat" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    tally = Tally()
    program, instance = set_up(args.workload, args.seed, tally)
    if not Path(program.cyclat.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: cyclat imported from {program.cyclat.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    result = {"provenance": provenance(program, args)}
    try:
        if args.trace:
            metrics, tracer = traced_metrics(instance, tally)
            result["absent"] = tracer.absent
            (OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json").write_text(
                json.dumps(tracer.spans))
        else:
            speed = HostSpeed()
            loop_s, instance = measure(args, instance, tally, speed)
            final = {op.kind: run_op(op, None, tally) for op in instance.final_ops()}
            speed.sample()
            if not tally.times:
                raise SystemExit("error: every operation failed: " + "; ".join(tally.errors[:5]))
            gated, report = end_to_end(tally, speed, loop_s, final)
            metrics = {name: {"value": gated[name], "unit": unit}
                       for name, unit in END_TO_END.items()}
            result["report"] = {name: {"value": v, "unit": u}
                                for name, (v, u) in report.items()}
    finally:
        instance.close()

    failed = len(tally.errors)
    line = {"correct": failed == 0, "attempted": tally.attempted,
            "failed": failed, "metrics": metrics}
    result.update(line, errors=tally.errors[:20])
    suffix = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"result-{suffix}.json").write_text(json.dumps(result, indent=1))

    print("provenance " + json.dumps(result["provenance"]))
    for error in tally.errors[:20]:
        print("error " + error)
    if result.get("absent"):
        print("absent " + " ".join(result["absent"]))
    for name, entry in {**result.get("report", {}), **metrics}.items():
        print(f"metric {name} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(line))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
