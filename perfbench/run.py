"""Benchmark of sqst: one workload per process, end-to-end or per-layer metrics.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload {fig2,cli_pipeline,tomography}
                             --seed N --seconds S --trace {0,1}

With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
measures the same units untraced and then traced, and prints the per-layer
metrics plus the tracing overhead.  The last line of standard output is one
JSON object {correct, attempted, failed, metrics}; the lines above it give
each metric with its unit.  A result file with the environment, the sizes
and (when traced) every span goes to .bench_out/.

The benchmark imports sqst from src/ next to this directory and exits with
code 2 when it is not there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
# At most two threads or processes at a time: this process waits while a CLI
# child runs, and no process starts BLAS threads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import sqst.cli, sqst.tomography; print(time.perf_counter() - t)")


def single_threaded() -> None:
    """Keep BLAS to one thread here and in every child started from now on."""
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))


def tail(values: list) -> tuple:
    """The highest of p99.9, p99 and p90 with at least ten items above it, as (value, percentile).

    A fixed ladder keeps the reported percentile the same from run to run
    while the item count drifts with the machine's speed.  With fewer than
    100 items (a cli_pipeline run has six to nine) no tail percentile is
    supported, and the median is returned as percentile 50: the maximum of so
    few items swung by 20-40% between seeds.
    """
    ordered = sorted(values)
    n = len(ordered)
    for permille in (999, 990, 900):
        rank = -(-permille * n // 1000)  # nearest-rank percentile, 1-based
        if n - rank >= 10:
            return ordered[rank - 1], permille / 10
    return statistics.median(ordered), 50.0


def import_seconds() -> float:
    """Time to import numpy and sqst in a fresh interpreter."""
    import workloads

    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True, capture_output=True,
                         text=True, stdin=subprocess.DEVNULL, env=workloads.child_env())
    return float(out.stdout)


def set_up(workload) -> float:
    """Median over SETUP_REPEATS of import plus the workload's own set-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        start = time.perf_counter()
        workload.setup()
        times.append(imported + time.perf_counter() - start)
    return statistics.median(times)


def measure(workload, tracer, seconds: float = None, units: int = None) -> list:
    """Run units 0, 1, ... until the given seconds are up, or exactly the given number."""
    done = []
    start = time.perf_counter()
    while (len(done) < units) if units is not None else (time.perf_counter() - start < seconds):
        done.append(workload.unit(len(done), tracer))
    return done


def end_to_end(units, setup_s: float, peak_rss_mb: float) -> tuple:
    items = [i.seconds * 1e3 for u in units for i in u.items]
    tail_ms, pct = tail(items)
    metrics = {
        "setup_s": (setup_s, "s"),
        "copies_per_s": (sum(u.copies for u in units) / sum(u.seconds for u in units), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    # The item latencies are printed but not gated: on a host that alternates
    # between two speeds, the median and the tail item flip between them from
    # run to run, while copies_per_s averages over the whole run.
    return metrics, {"item_p50_ms": statistics.median(items), "item_tail_ms": tail_ms,
                     "item_tail_percentile": pct, "item_count": len(items)}


def per_layer(units_plain, units_traced, spans) -> tuple:
    metrics = {name: (value, tracing.unit_of(name))
               for name, value in tracing.layer_metrics(spans).items()}
    plain = sum(u.seconds for u in units_plain)
    traced = sum(u.seconds for u in units_traced)
    metrics["bench.trace_overhead_frac"] = ((traced - plain) / plain, "frac")
    return metrics, {"untraced_pass_s": plain, "units": len(units_plain)}


def environment(workload, seed: int) -> dict:
    import numpy as np

    import sqst
    import workloads

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sources = hashlib.sha256()
    for path in sorted((SRC / "sqst").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": _blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "sqst_version": sqst.__version__,
        "sqst_commit": _git_commit(),
        "sqst_sources_sha256": sources.hexdigest(),
        "workload": workload.name,
        "seed": seed,
        "sizes": workloads.sizes(workload),
    }


def _blas_threads():
    """Threads OpenBLAS will use, asked from the loaded library; None if unknown."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit():
    """The commit checked out at ROOT, read from .git without running git."""
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


def run(name: str, seed: int, seconds: float, trace: bool, size=None) -> dict:
    """Set up and measure one workload; returns the report written to the result file."""
    import workloads

    single_threaded()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{name}-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = workloads.WORKLOADS[name](seed, workdir, size)
        setup_s = set_up(workload)
        tracer = tracing.Tracer()
        if trace:
            plain = measure(workload, tracer, seconds=seconds / 2)
            uninstall = tracing.install(tracer)
            tracer.on = True
            try:
                traced = measure(workload, tracer, units=len(plain))
            finally:
                tracer.on = False
                uninstall()
            units = plain + traced
            metrics, extra = per_layer(plain, traced, tracer.spans)
        else:
            units = measure(workload, tracer, seconds=seconds)
            metrics, extra = end_to_end(units, setup_s, workload.peak_rss_mb())
        env = environment(workload, seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    items = [i for u in units for i in u.items]
    failed = [i for i in items if not i.ok]
    result = {
        "correct": not failed,
        "attempted": len(items),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    return {
        "env": env,
        "workload": name,
        "seconds": seconds,
        "trace": int(trace),
        "fail_frac": len(failed) / len(items),
        "failures": sorted({i.error or f"{i.kind} failed its check" for i in failed})[:20],
        "item_ms_by_kind": {
            kind: {"count": len(ms), "p50": statistics.median(ms), "max": max(ms)}
            for kind in dict.fromkeys(i.kind for i in items)
            for ms in [[i.seconds * 1e3 for i in items if i.kind == kind]]
        },
        **extra,
        "result": result,
        "spans": tracer.spans if trace else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["fig2", "cli_pipeline", "tomography"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    single_threaded()  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    try:
        import sqst
    except ImportError as exc:
        print(f"perfbench: cannot import sqst from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(sqst.__file__).resolve().parent.parent != SRC.resolve():
        print(f"perfbench: sqst was imported from {sqst.__file__}, not {SRC}", file=sys.stderr)
        return 2

    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(report, fh)
    result = report["result"]
    print(f"workload {args.workload} seed {args.seed}: {result['attempted']} items, "
          f"fail_frac {report['fail_frac']:.6g}, result file {path.relative_to(ROOT)}")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        print(f"item_p50_ms = {report['item_p50_ms']:.6g} ms  (not gated)")
        print(f"item_tail_ms = {report['item_tail_ms']:.6g} ms  (not gated; "
              f"p{report['item_tail_percentile']:.4g} of {report['item_count']} items)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
