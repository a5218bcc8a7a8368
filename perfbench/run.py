"""Benchmark of dcbasis: basis-ladder, product-sweep and irreducibility.

Run from the root of a checkout:

    python3 perfbench/run.py --workload basis-ladder --seed 0 --seconds 20 \
        --trace 0

Every process it starts is a fresh single-threaded interpreter that
imports the package from ``src/``, and one runs at a time:

* set-up probes, before and after the timing process, each of which
  imports ``dcbasis.cli``, builds the workload's inputs, prints ``READY``
  and exits.  Set-up time is measured from the start of the process to
  that line, at the reference speed of ``speed.py``; the reported
  ``setup_s`` is the median of the probes and the timing process;
* with ``--trace 0``, one timing process that repeats the workload's pass
  for ``--seconds`` seconds (at least three passes) without tracing;
* with ``--trace 1``, an untimed-layer process as above for half the time,
  then a traced process for the other half (at least one pass), whose
  per-layer counts and self times are reported.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run context.  The exit code is 0 when every output checked out,
1 when some did not, and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"

WORKLOAD_NAMES = ("basis-ladder", "product-sweep", "irreducibility")
# the whole run must end within --seconds plus this margin for set-ups
SETUP_MARGIN_S = 140.0
MIN_PROBES = 3
MAX_PROBES = 8
PROBE_ROUND_S = 2.0
IMPORT_PROBES = 5


class BenchError(Exception):
    """The benchmark could not run (missing program, worker fault)."""


class Runner:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.deadline = perf_counter() + seconds + SETUP_MARGIN_S

    def _argv(self, mode: str, seconds: float, *extra: str) -> list[str]:
        return [sys.executable, str(WORKER), "--workload", self.workload,
                "--seed", str(self.seed), "--seconds", str(seconds),
                "--mode", mode, *extra]

    def start(self, mode: str, seconds: float = 0.0, *extra: str
              ) -> tuple[float, dict | None]:
        """Run one worker; return its set-up time and its JSON result."""
        remaining = self.deadline - perf_counter()
        if remaining <= 0:
            raise BenchError("time budget exhausted")
        t0 = perf_counter()
        proc = subprocess.Popen(self._argv(mode, seconds, *extra),
                                cwd=ROOT,
                                stdout=subprocess.PIPE, text=True)
        try:
            if not select.select([proc.stdout], [], [], remaining)[0]:
                raise subprocess.TimeoutExpired(proc.args, remaining)
            first = proc.stdout.readline()
            ready = perf_counter() - t0
            if first.strip() == "READY":
                share = json.loads(proc.stdout.readline())
                # the worker timed its share at the reference speed; the
                # interpreter's start before it is scaled by the mean of
                # the worker's probes
                ready = ((ready - share["raw_s"] - share["probe_s"])
                         * share["mean_scale"] + share["scaled_s"])
            rest, _ = proc.communicate(
                timeout=max(1.0, self.deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{mode} worker exceeded the time budget")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited with {proc.returncode}")
        lines = (first + rest).strip().splitlines()
        if mode == "import":
            return 0.0, json.loads(lines[-1])
        if first.strip() != "READY":
            raise BenchError(f"{mode} worker did not report readiness")
        return ready, (json.loads(lines[-1]) if mode != "probe" else None)

    def setup_samples(self) -> list[float]:
        """One round of set-up probes: at least MIN_PROBES, and more while
        the round is shorter than PROBE_ROUND_S."""
        samples: list[float] = []
        start = perf_counter()
        while len(samples) < MAX_PROBES and (
                len(samples) < MIN_PROBES
                or perf_counter() - start < PROBE_ROUND_S):
            samples.append(self.start("probe")[0])
        return samples


def _commit() -> str:
    """The checked-out commit, read from .git when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(result: dict, setup: list[float]) -> dict:
    wall = result["wall_s"]
    return {
        "setup_s": _metric(statistics.median(setup), "s"),
        "wall_s": _metric(wall, "s"),
        "items_per_s": _metric(result["passes"][0]["items"] / wall, "1/s"),
        "item_p50_ms": _metric(result["item_p50_s"] * 1e3, "ms"),
        "top_class_s": _metric(result["top_class_s"], "s"),
        "peak_rss_mib": _metric(result["peak_rss_mib"], "MiB"),
    }


def per_layer(traced: dict, untraced: dict, imports: list[float]) -> dict:
    layers = dict(traced["layers"])
    calls = layers["canonical.dual_canonical.calls"]
    misses = statistics.median(p["memo_misses"] for p in traced["passes"])
    layers["canonical.memo_misses"] = misses
    layers["canonical.memo_hit_ratio"] = (
        (calls - misses) / calls if calls else 0.0)
    distinct = layers["algebra.mul.distinct_term_pairs"]
    layers["algebra.mul.term_pair_reuse"] = (
        layers["algebra.mul.term_pairs"] / distinct if distinct else 0.0)
    layers["cli.import_s"] = statistics.median(imports)
    # the traced process runs no speed probes, so compare raw times
    layers["bench.tracing_overhead_s"] = (traced["raw_wall_s"]
                                          - untraced["raw_wall_s"])
    out = {}
    for key, value in sorted(layers.items()):
        if key.endswith("_s"):
            unit = "s"
        elif key.endswith(("_ratio", "_reuse")):
            unit = "ratio"
        else:
            unit = "count"
        out[key] = _metric(value, unit)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dcbasis" / "__init__.py").is_file():
        print(f"error: no dcbasis package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, args.seconds)
    try:
        # compile the package once, so no probe pays for writing bytecode
        runner.start("import")
        if args.trace:
            imports = [runner.start("import")[1]["import_s"]
                       for _ in range(IMPORT_PROBES)]
            _, untraced = runner.start("time", args.seconds / 2)
            trace_out = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
            _, result = runner.start("trace", args.seconds / 2,
                                     "--trace-out", str(trace_out))
            metrics = per_layer(result, untraced, imports)
            runs = [untraced, result]
        else:
            # probe rounds before and after the timed process, so that the
            # samples spread over the run rather than over one moment of it
            setup = runner.setup_samples()
            ready, result = runner.start("time", args.seconds)
            setup += [ready] + runner.setup_samples()
            metrics = end_to_end(result, setup)
            runs = [result]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = sum(p["items"] for r in runs for p in r["passes"])
    failed = sum(p["failed"] for r in runs for p in r["passes"])
    if not all(r["digests_agree"] for r in runs):
        failed = attempted
    if args.trace and not result["layer_counts_repeat"]:
        print("error: traced passes disagree on their counts",
              file=sys.stderr)
        failed = max(failed, 1)
    notes = [n for r in runs for p in r["passes"] for n in p["notes"]]
    context = {
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": [len(r["passes"]) for r in runs],
        "items_per_pass": result["passes"][0]["items"],
        "latency_samples": result["latency_samples"],
        "inputs": result["context"],
        "notes": notes[:20],
    }
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
