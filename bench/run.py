"""Benchmark of the puerm package: end-to-end metrics, or per-layer with --trace 1.

Run from a checkout of the repository (it imports ``src/puerm`` from there):

    python3 bench/run.py --workload grid --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --trace 1

Workloads: grid, check, data_pipeline, or all (each in turn, in this
process). The untraced run measures ops for --seconds seconds and prints
the end-to-end metrics. The traced run makes a fixed amount of work twice,
untraced and then traced, and prints the per-layer metrics and the tracing
overhead; --seconds does not apply to it. The last line of standard output
is one JSON object {"correct", "attempted", "failed", "metrics"}; the line
before it is the full record (environment, input sizes, output hashes).
The exit code is 1 when an output check fails and 2 when the package
cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up is short, so it is repeated and the median reported.
SETUP_REPEATS = 15
TAIL_BEYOND = 10
WORKLOAD_NAMES = ("grid", "check", "data_pipeline")

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("op_s.p50", "s"),
    ("op_s.tail", "s"),
    ("success_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
)


def import_puerm() -> dict:
    """Import the package from ``src`` afresh; returns its modules by short name."""
    import importlib

    from tracing import MODULES

    for name in [m for m in sys.modules if m == "puerm" or m.startswith("puerm.")]:
        del sys.modules[name]
    pkg = {"puerm": importlib.import_module("puerm")}
    for short in MODULES:
        pkg[short] = importlib.import_module(f"puerm.{short}")
    return pkg


def git_commit(root: Path):
    """HEAD commit read from ``.git`` without running git; None outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "platform": platform.platform(),
        "git_commit": git_commit(ROOT),
    }


def op_stats(times) -> dict:
    """Median and tail of op times; the tail is the highest percentile that
    still has TAIL_BEYOND ops above it (fewer when the run has fewer ops)."""
    times = sorted(times)
    n = len(times)
    idx = max(0, n - 1 - TAIL_BEYOND)
    return {
        "p50": statistics.median(times),
        "tail": times[idx],
        "tail_percentile": 100.0 * (idx + 1) / n,
        "tail_beyond": n - 1 - idx,
        "samples": n,
    }


def measure(wl, where: Path, seconds: float | None = None, units: int | None = None):
    """Run units until ``seconds`` have passed (at least one) or ``units`` are
    done. Returns [(start, end, ok)] per op."""
    if where.exists():
        shutil.rmtree(where)
    where.mkdir(parents=True)
    ops = []
    start = time.perf_counter()
    i = 0
    while True:
        ops += wl.unit(i, str(where))
        i += 1
        if units is not None and i >= units:
            break
        if units is None and time.perf_counter() - start >= seconds:
            break
    wl.pace.probe()
    return ops


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS, Pace

    workdir = WORK / name
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)

    pace = Pace()
    setups = []
    for _ in range(SETUP_REPEATS):
        pace.probe()
        t0 = time.perf_counter()
        pkg = import_puerm()
        wl = WORKLOADS[name](pkg, seed, str(workdir), pace)
        sizes = wl.setup()
        setups.append((t0, time.perf_counter()))
    pace.probe()
    if not Path(pkg["puerm"].__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"puerm was imported from {pkg['puerm'].__file__}, not {SRC}")

    record = {"workload": name, "seed": seed, "trace": int(trace), "inputs": sizes}
    if not trace:
        ops = measure(wl, workdir / "run", seconds=seconds)
        wl.finish(str(workdir / "run"))
        times = [pace.seconds(t0, t1) for t0, t1, _ in ops]
        stats = op_stats(times)
        failed = sum(not ok for _, _, ok in ops)
        values = {
            "setup_s": statistics.median(pace.seconds(*s) for s in setups),
            "ops_per_s": len(ops) / sum(times),
            "op_s.p50": stats["p50"],
            "op_s.tail": stats["tail"],
            "success_frac": 1.0 - failed / len(ops),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: (values[k], unit) for k, unit in END_TO_END}
        wall = [t1 - t0 for t0, t1, _ in ops]
        record["seconds"] = seconds
        record["ops"] = stats
        record["error_frac"] = failed / len(ops)
        record["unscaled"] = {
            "setup_s": statistics.median(t1 - t0 for t0, t1 in setups),
            "ops_per_s": len(ops) / sum(wall),
            "ops": op_stats(wall),
            "probe_s": op_stats(pace.took),
        }
        record["more_metrics"] = {k: {"value": v, "unit": u}
                                  for k, (v, u) in wl.extra_metrics(pace.seconds).items()}
        record["outputs"] = wl.outputs(str(workdir / "run"))
    else:
        from tracing import Tracer, install, layer_metrics, metric_names, write_spans

        plain_ops = measure(wl, workdir / "plain", units=wl.trace_units)
        tracer = Tracer(wl.op_span)
        restore = install(pkg, tracer)
        pace.tracer = tracer
        try:
            ops = measure(wl, workdir / "traced", units=wl.trace_units)
        finally:
            pace.tracer = None
            restore()
        write_spans(tracer, workdir / "spans.csv")
        values = layer_metrics(tracer)
        p50 = [op_stats(pace.seconds(t0, t1) for t0, t1, _ in o)["p50"]
               for o in (ops, plain_ops)]
        values["trace.overhead_frac"] = p50[0] / p50[1] - 1.0
        metrics = {k: (values[k], unit) for k, unit in metric_names()}
        failed = sum(not ok for _, _, ok in ops + plain_ops)
        ops = ops + plain_ops
        plain_out = wl.outputs(str(workdir / "plain"))
        traced_out = wl.outputs(str(workdir / "traced"))
        if plain_out != traced_out:
            wl.fail("traced outputs differ from untraced outputs")
        record["outputs"] = plain_out
        record["spans_file"] = str((workdir / "spans.csv").relative_to(ROOT))
    record["problems"] = wl.problems
    return {
        "correct": not wl.problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
        "record": record,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "puerm" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / 'puerm'}", file=sys.stderr)
        return 2
    # The program is serial; keep BLAS from starting helper threads.
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    env = environment()
    metrics = {}
    for name, res in zip(names, results):
        res["record"]["environment"] = env
        prefix = f"{name}." if args.workload == "all" else ""
        for key, (value, unit) in res["metrics"].items():
            metrics[prefix + key] = {"value": value, "unit": unit}
            print(f"{name:14s} {key:44s} {value:14.6g} {unit}")
        for key, m in res["record"].get("more_metrics", {}).items():
            print(f"{name:14s} {key:44s} {m['value']:14.6g} {m['unit']}")
        for problem in res["record"]["problems"]:
            print(f"CHECK FAILED  {problem}")
        with open(WORK / name / "record.json", "w", encoding="utf-8") as fh:
            json.dump(res["record"], fh, indent=1)
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    records = [r["record"] for r in results]
    print(json.dumps({"record": records[0] if len(records) == 1 else records}))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
