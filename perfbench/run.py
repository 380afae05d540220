"""Run one benchmark workload, check its outputs and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload memory_oracle --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
time in fresh interpreters, then one warm-up pass, then passes until
``--seconds`` would be exceeded.  ``--trace 1`` alternates untraced and
traced passes after the warm-up and reports the per-layer metrics of the
traced passes and the tracing overhead; the spans of the last traced pass
are written to ``.perfbench_out/<workload>/spans.csv``.  Metric names and
units come from BENCHMARK.json.  Every pass is checked.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics, and the exit code is 1 if any item failed.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 7
OUT = ROOT / ".perfbench_out"


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted


def run_pass(wl: workloads.Workload, tally: Tally, tracer=None) -> list[float]:
    """Run every item of ``wl`` once, check each, and return the seconds each
    item took.  An item that raises or fails a check counts as failed."""
    for path in wl.outputs:
        path.unlink(missing_ok=True)
    gc.collect()
    results, seconds = [], []
    for index, item in enumerate(wl.items):
        if tracer is not None:
            tracer.run_id = index
        start = time.perf_counter()
        try:
            results.append((True, item.run()))
        except Exception:  # recorded and reported as this item's failure
            results.append((False, traceback.format_exc(limit=-3)))
        seconds.append(time.perf_counter() - start)
    for item, (returned, result) in zip(wl.items, results):
        if not returned:
            problems = [f"raised {result}"]
        else:
            try:
                problems = item.check(result)
            except Exception:  # a malformed output fails its check
                problems = [f"check raised {traceback.format_exc(limit=-3)}"]
        tally.attempted += 1
        tally.failed += bool(problems)
        for problem in problems:
            print(f"FAIL {wl.name}/{item.label}: {problem}", file=sys.stderr)
    return seconds


def pass_seconds(passes: list[list[float]]) -> float:
    """Seconds for one pass: the sum over items of each item's median time.

    Item-wise medians discard a burst of machine noise that slowed one item
    in one pass, which a median of whole-pass times keeps when there are
    only a few passes."""
    return sum(statistics.median(item) for item in zip(*passes))


def measure(wl: workloads.Workload, seconds: float, tally: Tally, traced: bool):
    """Warm up, then run rounds (one untraced pass, plus one traced pass when
    ``traced``) until another round would overrun ``seconds``.  Returns the
    per-item times of the untraced and the traced passes, the layer metrics
    of each traced pass and the last tracer."""
    run_pass(wl, tally)
    plain, traced_passes, layers, tracer = [], [], [], None
    start = time.perf_counter()
    while True:
        plain.append(run_pass(wl, tally))
        if traced:
            tracer = tracing.Tracer()
            with tracer.installed():
                traced_passes.append(run_pass(wl, tally, tracer))
            layer = tracing.layer_metrics(tracer.spans)
            layer["scenarios.bytes_written"] = sum(p.stat().st_size for p in wl.outputs
                                                   if p.exists())
            layers.append(layer)
        round_s = pass_seconds(plain) + (pass_seconds(traced_passes) if traced else 0.0)
        if time.perf_counter() - start + round_s > seconds:
            return plain, traced_passes, layers, tracer


def setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh interpreters of the cold-start time (setup_probe.py)."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload,
                               str(seed)], capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def environment() -> dict:
    """Facts about the machine and the code under test; no bound gates them."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_commit": _git_commit(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in (ROOT / "src").rglob("*.py")),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"),
                        help="'all' runs each workload in turn, each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="a few collisions per item, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        return max(subprocess.run([sys.executable, __file__, "--workload", w, *rest]).returncode
                   for w in workloads.WORKLOADS)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print("env " + json.dumps(environment()))
    values = {}
    if not args.trace:
        values["setup_s"] = setup_seconds(args.workload, args.seed)
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    wl = workloads.build(args.workload, args.seed, out_dir, args.tiny)
    tally = Tally()
    plain, traced, layers, tracer = measure(wl, args.seconds, tally, bool(args.trace))
    wall = pass_seconds(plain)
    if args.trace:
        for name in set().union(*layers):
            values[name] = statistics.median(layer.get(name, 0) for layer in layers)
        values["trace.wall_s"] = pass_seconds(traced)
        values["trace.overhead"] = values["trace.wall_s"] / wall - 1.0
        tracer.write(out_dir / "spans.csv")
        declared = spec["per_layer"]
    else:
        values["wall_s"] = wall
        values["collisions_per_s"] = wl.collisions / wall
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        declared = spec["end_to_end"]
    print(f"{args.workload}: {len(plain)} untraced and {len(traced)} traced passes after "
          f"one warm-up; {wl.collisions} collisions and {len(wl.items)} items per pass; "
          f"untraced pass seconds {[round(sum(p), 3) for p in plain]}")
    print(f"failed_frac = {tally.failed_frac:.6g} ({tally.failed} of {tally.attempted} "
          f"items failed)")
    metrics = {}
    for metric in declared:
        value = values.get(metric["name"], 0)
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']} = {value:.6g} {metric['unit']}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
