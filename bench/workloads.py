"""The three benchmark workloads and the checks on their outputs.

Each workload builds its inputs in ``setup`` and then runs in units:
``unit(i, where)`` does the i-th unit of work inside directory ``where``
and returns one ``(start, end, ok)`` record per op, with ``Pace`` probes
taken between ops. A unit is one ``puerm grid``
invocation (20 cells, so 20 ops) for ``grid``, one ``puerm check`` for
``check``, and one round of six timed calls for ``data_pipeline``. Every
output check that fails appends a message to ``problems``; a run with any
problem is not correct. ``outputs(where)`` hashes what the units wrote, so
a change that alters results shows in the record.

Why these workloads (see README.md for the metric map):

* grid: the paper's experiment. Its time is in model, risk and trainer at
  100-row batches; it draws one small sample per cell and never touches
  the datasets CSV code, so a training-step change shows here and a
  sampler or CSV change should not.
* check: model at 6-row batches (per-call overhead, not arithmetic) and
  the Python Fisher-Yates loop of the sampler at k=200,000; it never
  enters the trainer loop.
* data_pipeline: both sides of the datasets CSV code and both samplers at
  a size where their Python loops dominate; model and trainer never run.
"""

from __future__ import annotations

import bisect
import contextlib
import csv
import hashlib
import io
import json
import os
import time

GRID_C_VALUES = (0.1, 0.3, 0.5, 0.7, 0.9)
GRID_SCENARIOS = ("ss", "cc")
GRID_METHODS = ("nnpu_ss", "nnpu_cc")
GRID_EPOCHS = 50
RESULTS_TAG = "# puerm-results-v1"
RESULTS_HEADER = (
    "dataset,scenario,method,c,seed,accuracy,precision,recall,f1,trace_path"
)


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def sha256_dir(path) -> str:
    """One digest over the names and contents of the files in ``path``."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(f"{name}\0{sha256_file(os.path.join(path, name))}\n".encode())
    return h.hexdigest()


class Pace:
    """Host speed, probed between ops by timing a fixed pure-Python loop.

    On a shared host the CPU can run 1.5-1.8 times slower for tens of
    seconds at a time, and every op slows with it. ``seconds(start, end)``
    rescales an op's wall time to the host speed at which the probe takes
    REFERENCE_S, using the probes just before and just after the op, so a
    run's numbers track the program rather than its neighbours.
    """

    REFERENCE_S = 0.0055
    LOOPS = 100_000

    def __init__(self):
        self.begins: list[float] = []
        self.ends: list[float] = []
        self.took: list[float] = []
        # Set during a traced run: a probe made inside a traced call (the
        # grid's progress lines) gets a span, so its time is not charged
        # to that call.
        self.tracer = None

    def probe(self) -> float:
        """Run the probe; returns the time at which it ended."""
        span = self.tracer.open("bench.pace") if self.tracer and self.tracer.stack else None
        t0 = time.perf_counter()
        acc = 0
        for i in range(self.LOOPS):
            acc += i * i
        t1 = time.perf_counter()
        if span is not None:
            self.tracer.close(span)
        self.begins.append(t0)
        self.ends.append(t1)
        self.took.append(t1 - t0)
        return t1

    def seconds(self, start: float, end: float) -> float:
        near = []
        before = bisect.bisect_right(self.ends, start) - 1
        if before >= 0:
            near.append(self.took[before])
        after = bisect.bisect_left(self.begins, end)
        if after < len(self.took):
            near.append(self.took[after])
        return (end - start) * self.REFERENCE_S * len(near) / sum(near)


class _LineStamps(io.TextIOBase):
    """Text sink that timestamps every complete line written to it and
    probes the host pace after each, outside the time of the next line."""

    def __init__(self, pace: Pace):
        self._buf = ""
        self._pace = pace
        self.lines: list[tuple[float, float, str]] = []

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        self._buf += s
        while "\n" in self._buf:
            line, self._buf = self._buf.split("\n", 1)
            t = time.perf_counter()
            self.lines.append((t, self._pace.probe(), line))
        return len(s)


class Workload:
    name = ""
    # Units a traced run makes (a fixed amount, so its counts repeat).
    trace_units = 1
    # Span that starts a new op in a trace (None: each top-level span).
    op_span: str | None = None

    def __init__(self, pkg, seed: int, workdir: str, pace: Pace):
        self.pkg = pkg
        self.seed = seed
        self.workdir = workdir
        self.pace = pace
        self.problems: list[str] = []

    def fail(self, message: str) -> None:
        self.problems.append(f"{self.name}: {message}")

    def setup(self) -> dict:
        """Build the inputs; returns their sizes for the record."""
        return {}

    def finish(self, where: str) -> None:
        """Checks that run once after the measured units."""

    def extra_metrics(self, seconds) -> dict:
        """More metrics for the record, timed with ``seconds(start, end)``."""
        return {}


class Grid(Workload):
    """``puerm grid`` on one seed of the default grid per invocation."""

    name = "grid"
    op_span = "harness.run_cell"

    def setup(self) -> dict:
        doc = {
            "datasets": [{"name": "gauss1d", "kind": "synthetic", "dim": 1}],
            "scenarios": list(GRID_SCENARIOS),
            "methods": list(GRID_METHODS),
            "c_values": list(GRID_C_VALUES),
            "seeds": [0],
            "n": 1000,
            "hidden_dims": [32, 32, 32, 32],
            "activation": "relu",
            "trainer": {"epochs": GRID_EPOCHS, "batch_size": 100, "optimizer": "sgd"},
        }
        self.config = os.path.join(self.workdir, "grid.json")
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
        self.cells = len(GRID_SCENARIOS) * len(GRID_METHODS) * len(GRID_C_VALUES)
        return {"cells_per_invocation": self.cells, "n": 1000, "epochs": GRID_EPOCHS,
                "batch_size": 100, "hidden": "32x4", "activation": "relu"}

    def grid_seed(self, i: int) -> int:
        return self.seed * 1000 + i

    def _invoke(self, i: int, where: str):
        """Run invocation ``i`` with ``where`` as the working directory.

        Paths are relative so the results file (which records trace paths)
        is the same whichever directory the run uses.
        """
        argv = ["grid", "--config", os.path.abspath(self.config),
                "--out", f"results-{i}.csv", "--trace-dir", f"traces-{i}",
                "--seeds", str(self.grid_seed(i))]
        stamps, out = _LineStamps(self.pace), io.StringIO()
        cwd = os.getcwd()
        os.chdir(where)
        try:
            with contextlib.redirect_stderr(stamps), contextlib.redirect_stdout(out):
                self.pace.probe()
                t0 = time.perf_counter()
                rc = self.pkg["cli"].cli_dispatch(argv)
        finally:
            os.chdir(cwd)
        return rc, out.getvalue(), stamps.lines, t0

    def unit(self, i: int, where: str):
        # Each cell is timed from the end of the previous cell's progress
        # line (and the probe after it) to its own progress line.
        rc, out, lines, start = self._invoke(i, where)
        ops = []
        for t, resumed, line in lines:
            if line.startswith("done ") or line.startswith("cell "):
                ops.append((start, t, line.startswith("done ")))
                start = resumed
        if rc != 0:
            self.fail(f"invocation {i} exited {rc}")
        if len(ops) != self.cells:
            self.fail(f"invocation {i}: {len(ops)} progress lines, want {self.cells}")
        self._check_results(i, where)
        return ops

    def _check_results(self, i: int, where: str) -> None:
        path = os.path.join(where, f"results-{i}.csv")
        if not os.path.exists(path):
            self.fail(f"{path} missing")
            return
        with open(path, encoding="utf-8", newline="") as fh:
            lines = fh.read().split("\n")
        if lines[:2] != [RESULTS_TAG, RESULTS_HEADER] or lines[-1] != "":
            self.fail(f"{path}: bad tag, header or final newline")
            return
        seed = str(self.grid_seed(i))
        want = {("gauss1d", sc, m, repr(c), seed)
                for sc in GRID_SCENARIOS for m in GRID_METHODS for c in GRID_C_VALUES}
        got = set()
        for row in csv.reader(lines[2:-1]):
            key = tuple(row[:5])
            if len(row) != 10 or key in got or key not in want:
                self.fail(f"{path}: unexpected row {row}")
                continue
            got.add(key)
            try:
                values = [float(v) for v in row[5:9]]
            except ValueError:
                self.fail(f"{path}: error row {row}")
                continue
            if not all(0.0 <= v <= 100.0 for v in values):
                self.fail(f"{path}: metric outside [0, 100] in {row}")
            trace = os.path.join(where, row[9])
            if not os.path.isfile(trace):
                self.fail(f"{path}: trace file {row[9]!r} missing")
                continue
            with open(trace, encoding="utf-8") as fh:
                n_lines = sum(1 for _ in fh)
            if n_lines != GRID_EPOCHS + 1:
                self.fail(f"{trace}: {n_lines} lines, want {GRID_EPOCHS + 1}")
        if got != want:
            self.fail(f"{path}: {len(want - got)} cells have no result row")

    def finish(self, where: str) -> None:
        # A rerun into the same file must find every cell done.
        path = os.path.join(where, "results-0.csv")
        before = sha256_file(path)
        rc, out, lines, _ = self._invoke(0, where)
        if rc != 0 or lines or not out.startswith("0 new results"):
            self.fail(f"rerun of invocation 0 did work: rc={rc}, {out.strip()!r}")
        if sha256_file(path) != before:
            self.fail("rerun of invocation 0 changed results-0.csv")

    def outputs(self, where: str) -> dict:
        out = {}
        for name in sorted(os.listdir(where)):
            full = os.path.join(where, name)
            out[name] = sha256_dir(full) if os.path.isdir(full) else sha256_file(full)
        return out


class Check(Workload):
    """``puerm check``; its inputs are fixed inside the package."""

    name = "check"
    trace_units = 3

    def setup(self) -> dict:
        self.first_report = None
        return {"grad_check_batch_rows": 6, "sampler_k": 200000, "pool_rows": 400000}

    def unit(self, i: int, where: str):
        out = io.StringIO()
        self.pace.probe()
        with contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            rc = self.pkg["cli"].cli_dispatch(["check"])
            t1 = time.perf_counter()
        report = out.getvalue()
        lines = report.splitlines()
        checks = lines[:-1]
        ok = (
            rc == 0
            and bool(checks)
            and all(line.startswith("PASS  ") for line in checks)
            and lines[-1] == f"{len(checks)}/{len(checks)} checks passed"
        )
        if not ok:
            self.fail(f"check {i} failed (rc={rc}): {report!r}")
        if self.first_report is None:
            self.first_report = report
        elif report != self.first_report:
            self.fail(f"check {i} printed a different report than the first check")
        if i == 0:
            with open(os.path.join(where, "check.txt"), "w", encoding="utf-8") as fh:
                fh.write(report)
        return [(t0, t1, ok)]

    def outputs(self, where: str) -> dict:
        return {"check.txt": sha256_file(os.path.join(where, "check.txt"))}


class DataPipeline(Workload):
    """CSV write/read and both samplers on a 20,000 x 10 labeled set."""

    name = "data_pipeline"
    trace_units = 3
    ROWS, DIM, PU_ROWS, C, PI = 20000, 10, 10000, 0.5, 0.5

    def setup(self) -> dict:
        p = self.pkg
        self.data = p["datasets"].gaussian_mixture(
            self.ROWS, self.PI, dim=self.DIM, rng=p["numerics"].Rng(self.seed)
        )
        self.labeled_sha = None
        self.calls: list[tuple[str, int, float, float]] = []  # kind, rows, start, end
        return {"rows": self.ROWS, "features": self.DIM, "pu_rows": self.PU_ROWS,
                "c": self.C, "pi": self.PI}

    def unit(self, i: int, where: str):
        d, s = self.pkg["datasets"], self.pkg["sampling"]
        rng = self.pkg["numerics"].Rng(self.seed).child(i)
        labeled = os.path.join(where, "labeled.csv")
        pu_path = os.path.join(where, "pu.csv")
        ops = []

        def timed(kind, fn, *args):
            self.pace.probe()
            t0 = time.perf_counter()
            try:
                result = fn(*args)
            except Exception as exc:  # an op that raises is a failed op
                ops.append((t0, time.perf_counter(), False))
                self.fail(f"round {i}: {fn.__name__} raised {exc!r}")
                return None
            t1 = time.perf_counter()
            ops.append((t0, t1, True))
            rows = len((args[0] if result is None else result).x)
            self.calls.append((kind, rows, t0, t1))
            return result

        timed("written", d.save_csv, self.data, labeled)
        loaded = timed("read", d.load_csv, labeled)
        ss = timed("sampled", s.scar_label, self.data,
                   s.ScarConfig(c=self.C, n=self.PU_ROWS), rng.child(0))
        cc = timed("sampled", s.case_control_sample, self.data,
                   s.CaseControlConfig(c=self.C, pi=self.PI, n=self.PU_ROWS),
                   rng.child(1))
        if ss is not None:
            timed("written", d.save_csv, ss, pu_path)
        pu = timed("read", d.load_pu_csv, pu_path, self.PI, d.SCENARIO_SS, self.C)
        self._check(i, labeled, loaded, ss, cc, pu)
        if i == 0:
            self.pu_sha = sha256_file(pu_path)
        return ops

    def _check(self, i, labeled, loaded, ss, cc, pu) -> None:
        sha = sha256_file(labeled)
        if self.labeled_sha is None:
            self.labeled_sha = sha
        elif sha != self.labeled_sha:
            self.fail(f"round {i}: save_csv wrote different bytes for the same data")
        if loaded is None or not (
            loaded.x.tobytes() == self.data.x.tobytes()
            and loaded.y.tobytes() == self.data.y.tobytes()
        ):
            self.fail(f"round {i}: save_csv -> load_csv round trip is not bit-exact")
        if ss is None or ss.n != self.PU_ROWS:
            self.fail(f"round {i}: scar_label did not return {self.PU_ROWS} rows")
        elif pu is None or not (
            pu.x.tobytes() == ss.x.tobytes()
            and pu.s.tobytes() == ss.s.tobytes()
            and pu.y_true.tobytes() == ss.y_true.tobytes()
        ):
            self.fail(f"round {i}: PU save_csv -> load_pu_csv round trip is not bit-exact")
        want = self.pkg["sampling"].case_control_sizes(self.PU_ROWS, self.PI, self.C)
        if cc is None or (cc.n_labeled, cc.n - cc.n_labeled) != want:
            got = None if cc is None else (cc.n_labeled, cc.n - cc.n_labeled)
            self.fail(f"round {i}: case-control sizes {got}, want {want}")

    def extra_metrics(self, seconds) -> dict:
        out = {}
        for kind in ("written", "read", "sampled"):
            calls = [c for c in self.calls if c[0] == kind]
            rows = sum(c[1] for c in calls)
            secs = sum(seconds(c[2], c[3]) for c in calls)
            out[f"rows_{kind}_per_s"] = (rows / secs, "rows/s")
        return out

    def outputs(self, where: str) -> dict:
        return {"labeled.csv": self.labeled_sha, "pu.csv (round 0)": self.pu_sha}


WORKLOADS = {w.name: w for w in (Grid, Check, DataPipeline)}
