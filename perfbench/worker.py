"""One benchmark process: import dcbasis, set up a workload, time passes.

Started by ``run.py`` in a fresh interpreter.  It prints ``READY`` and a
JSON object as soon as the workload is ready to time (the parent measures
set-up time up to that line; the object gives the worker's share of it at
the reference speed) and, unless it is a set-up probe, ends with one JSON
line of results.  Usage:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --mode {probe,import,time,trace}
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from speed import Clock  # noqa: E402

# Set-up is timed at the reference speed from as early as the worker can:
# its own imports are the first unit, the package import the next, input
# generation another, and the sweep's warm-up one per weight.
SETUP_CLOCK = Clock()
SETUP_CLOCK.start()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

MIN_TIMED_PASSES = 3


def _import_package() -> float:
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import dcbasis.cli  # noqa: F401
    elapsed = perf_counter() - start
    import dcbasis
    if Path(dcbasis.__file__).resolve().parent != SRC / "dcbasis":
        raise SystemExit(f"dcbasis imported from {dcbasis.__file__}, "
                         f"not from {SRC}")
    return elapsed


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("probe", "import", "time", "trace"))
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    clock = SETUP_CLOCK
    clock.mark()
    import_s = _import_package()
    clock.mark()
    if args.mode == "import":
        print(json.dumps({"import_s": import_s}), flush=True)
        return 0

    from spans import Tracer, installed
    from workloads import WORKLOADS

    tracer = Tracer()
    traced = args.mode == "trace"
    with installed(tracer) if traced else contextlib.nullcontext():
        workload = WORKLOADS[args.workload](args.seed)
        clock.mark()
        workload.setup(clock)
        clock.mark()
        print("READY", flush=True)
        print(json.dumps({"raw_s": clock.raw_s, "probe_s": clock.probe_s,
                          "scaled_s": sum(clock.units),
                          "mean_scale": clock.mean_scale()}), flush=True)
        if args.mode == "probe":
            return 0
        min_passes = 1 if traced else MIN_TIMED_PASSES
        passes, layers, times = [], [], []
        deadline = perf_counter() + args.seconds
        while len(passes) < min_passes or perf_counter() < deadline:
            tracer.reset(len(passes))
            tracer.active = traced
            # no probes inside spans: traced self times stay raw and clean
            result = workload.run_pass(tracer, Clock(probe=not traced))
            tracer.active = False
            # keep three numbers per pass, so that the benchmark's own
            # memory does not grow with the number of passes
            summary = workload.summary(result.unit_s)
            times.append((summary.wall_s, summary.top_class_s,
                          statistics.median(summary.item_latency_s)))
            latency_samples = len(summary.item_latency_s)
            result.unit_s = summary = None
            passes.append(result)
            if traced:
                layers.append(tracer.pass_totals())

    # every time is the median over the passes, at the reference speed
    wall, top_class, item_p50 = (statistics.median(col)
                                 for col in zip(*times))
    digests = {p.digest for p in passes}
    out = {
        "import_s": import_s,
        "context": workload.context(),
        "passes": [
            {"wall_s": p.wall_s, "items": p.items, "failed": p.failed,
             "memo_misses": p.memo_misses, "notes": p.notes}
            for p in passes],
        # passes must agree with each other: the same inputs, the same output
        "digests_agree": len(digests) == 1,
        "wall_s": wall,
        "top_class_s": top_class,
        "raw_wall_s": statistics.median(p.wall_s for p in passes),
        "latency_samples": latency_samples,
        "item_p50_s": item_p50,
        "peak_rss_mib": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if traced:
        # counts repeat from pass to pass; times are medians over passes
        out["layers"] = {
            key: statistics.median(pass_[key] for pass_ in layers)
            if key.endswith("_s") else layers[0][key]
            for key in layers[0]}
        out["layer_counts_repeat"] = all(
            pass_[key] == layers[0][key]
            for pass_ in layers for key in pass_ if not key.endswith("_s"))
        if args.trace_out:
            _write_spans(Path(args.trace_out), tracer, out["context"])
    print(json.dumps(out), flush=True)
    return 0


def _write_spans(path: Path, tracer, context: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        json.dump({"context": context, "span_fields":
                   ["id", "name", "start", "end", "parent", "pass"],
                   "spans_dropped": tracer.spans_dropped}, fh)
        fh.write("\n")
        for span in tracer.spans:
            fh.write(json.dumps(span))
            fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
