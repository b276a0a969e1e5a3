"""Tests for the grid runner, results persistence, reports, and the CLI."""

import functools
import io
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import _no_child_process, _use_cpus
from oracles import load_model, peak_traced_bytes
from puerm import datasets, harness, spread
from puerm.cli import cli_dispatch
from puerm.datasets import (
    SCENARIOS, PUDataset, gaussian_mixture, load_csv, load_pu_csv, save_csv,
)
from puerm.errors import FormatError, ParameterError, PuermError
from puerm.harness import (
    RESULTS_COLUMNS,
    RESULTS_TAG,
    Cell,
    DatasetSource,
    ExperimentResult,
    GridSpec,
    cell_seed,
    default_grid_spec,
    emit_report,
    iter_cells,
    load_grid_config,
    load_results,
    parse_grid_config,
    run_cell,
    run_grid,
    run_self_checks,
    summarize,
)
from puerm.model import forward, grad_check, init
from puerm.numerics import Rng
from puerm.risk import risk_components
from puerm.sampling import case_control_sizes, corrupt
from puerm.trainer import TrainerConfig, batch_objective, load_trace


def _tiny_spec(tmp_path, **overrides):
    kwargs = dict(
        datasets=[DatasetSource(name="gauss1d", kind="synthetic")],
        scenarios=["ss", "cc"],
        methods=["nnpu_ss", "nnpu_cc"],
        c_values=[0.3, 0.7],
        seeds=[0, 1],
        trainer=TrainerConfig(epochs=1, batch_size=25),
        n=50,
        hidden_dims=[4],
        out=str(tmp_path / "results.csv"),
    )
    kwargs.update(overrides)
    return GridSpec(**kwargs)


# ---------------------------------------------------------------------------
# cell seeds


def _cell(seed, dataset, scenario, method, c):
    return Cell(DatasetSource(name=dataset), scenario, method, c, seed)


def test_cell_seed_frozen_golden():
    assert cell_seed(_cell(3, "gauss1d", "ss", "nnpu_cc", 0.9)) == 2047044823737653029


def test_cell_seed_sensitive_to_every_coordinate():
    base = cell_seed(_cell(3, "gauss1d", "ss", "nnpu_cc", 0.9))
    assert cell_seed(_cell(4, "gauss1d", "ss", "nnpu_cc", 0.9)) != base
    assert cell_seed(_cell(3, "other", "ss", "nnpu_cc", 0.9)) != base
    assert cell_seed(_cell(3, "gauss1d", "cc", "nnpu_cc", 0.9)) != base
    assert cell_seed(_cell(3, "gauss1d", "ss", "nnpu_ss", 0.9)) != base
    assert cell_seed(_cell(3, "gauss1d", "ss", "nnpu_cc", 0.1)) != base


@pytest.mark.parametrize("seed", [1.7, 1.0, "1", True, -1])
def test_a_cell_refuses_a_seed_that_is_not_an_integer(tmp_path, seed):
    # int() would run seed 1.7 as seed 1, under seed 1's cell seed
    spec = _tiny_spec(tmp_path)
    cell = Cell(spec.datasets[0], "ss", "nnpu_ss", 0.5, seed)
    with pytest.raises(ParameterError, match="seed must be an integer >= 0"):
        cell_seed(cell)
    with pytest.raises(ParameterError, match="seed must be an integer >= 0"):
        run_cell(cell, spec)
    assert not os.path.exists(spec.out)
    assert cell_seed(cell._replace(seed=np.int64(1))) == cell_seed(cell._replace(seed=1))


def test_cell_seed_in_64_bit_range():
    for seed in range(5):
        v = cell_seed(_cell(seed, "d", "ss", "upu_ss", 0.5))
        assert 0 <= v < 2**64


# ---------------------------------------------------------------------------
# spec validation


def test_dataset_source_validation():
    with pytest.raises(ParameterError):
        DatasetSource(name="x", kind="parquet")
    with pytest.raises(ParameterError):
        DatasetSource(name="x", kind="csv")  # csv needs a path
    assert DatasetSource(name="x", kind="synthetic").pi == 0.5


@pytest.mark.parametrize(
    "fields, unread",
    [
        ({"kind": "synthetic", "path": "missing.csv"}, "path"),
        ({"path": ""}, "path"),
        ({"kind": "csv", "path": "rows.csv", "mu_pos": 3.0}, "mu_pos"),
        ({"kind": "csv", "path": "rows.csv", "mu_neg": 0}, "mu_neg"),
        ({"kind": "csv", "path": "rows.csv", "sd": 2.0}, "sd"),
        ({"kind": "csv", "path": "rows.csv", "dim": 3}, "dim"),
    ],
)
def test_dataset_source_refuses_a_field_its_kind_does_not_read(fields, unread):
    # the generator ignores a path, and a csv file brings its own features
    kind = fields.get("kind", "synthetic")
    with pytest.raises(ParameterError, match=f"^dataset 'g': a {kind} source reads no {unread}$"):
        DatasetSource(name="g", **fields)
    # each field at its default is what the kind's own field list leaves
    assert DatasetSource(name="g", kind="csv", path="rows.csv", sd=1, dim=1).sd == 1


def test_grid_config_with_a_path_on_a_synthetic_source_writes_nothing(tmp_path, capsys):
    cfg = tmp_path / "grid.json"
    source = {"name": "g", "kind": "synthetic", "path": "missing.csv"}
    cfg.write_text(json.dumps({"datasets": [source], "seeds": [0], "c_values": [0.5]}))
    out = tmp_path / "r.csv"
    assert cli_dispatch(["grid", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    assert "dataset 'g': a synthetic source reads no path" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["grid.json"]


UNSAFE_NAMES = ["", ".", "..", "../escape", "a/b", "a\0b", *{os.sep, os.altsep} - {None}]


@pytest.mark.parametrize("name", UNSAFE_NAMES)
def test_dataset_source_refuses_a_name_unsafe_in_a_file_name(name):
    # the name is part of every trace file name of the dataset's cells
    with pytest.raises(ParameterError, match=f"^dataset name {re.escape(repr(name))} must not"):
        DatasetSource(name=name)
    assert DatasetSource(name="a.b-c_d").name == "a.b-c_d"


def test_grid_config_with_a_path_in_a_dataset_name_writes_nothing(tmp_path, capsys):
    work = tmp_path / "work"
    work.mkdir()
    cfg = work / "grid.json"
    cfg.write_text(json.dumps({"datasets": [{"name": "../escape"}], "seeds": [0]}))
    out, traces = work / "r.csv", work / "traces"
    argv = ["grid", "--config", str(cfg), "--out", str(out), "--trace-dir", str(traces),
            "--quiet"]
    assert cli_dispatch(argv) == 1
    assert "dataset name '../escape' must not" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["grid.json", "work"]


def test_grid_spec_validation(tmp_path):
    with pytest.raises(ParameterError):
        _tiny_spec(tmp_path, datasets=[])
    with pytest.raises(ParameterError):
        _tiny_spec(
            tmp_path,
            datasets=[DatasetSource(name="a"), DatasetSource(name="a")],
        )
    with pytest.raises(ParameterError):
        _tiny_spec(tmp_path, scenarios=["ss", "pn"])
    with pytest.raises(ParameterError):
        _tiny_spec(tmp_path, methods=["nnpu_ss", "svm"])
    with pytest.raises(ParameterError):
        _tiny_spec(tmp_path, c_values=[0.0])
    with pytest.raises(ParameterError):
        _tiny_spec(tmp_path, c_values=[0.5, 1.0])  # cc scenario present
    _tiny_spec(tmp_path, scenarios=["ss"], c_values=[1.0])  # fine without cc
    with pytest.raises(ParameterError):
        _tiny_spec(tmp_path, n=5)
    with pytest.raises(ParameterError):
        _tiny_spec(tmp_path, test_fraction=1.0)


# Each rule a cell's own code applies: a grid (or dataset source) that breaks
# it, and the call in the cell's code that owns the rule, given the same
# value. Both take the test's directory, which holds rows.csv.
OWNED_RULES = {
    "scenario": (
        lambda t: _tiny_spec(t, scenarios=["ss", "pn"]),
        lambda t: corrupt(gaussian_mixture(4, 0.5, rng=Rng(0)), "pn", 0.5, 2, Rng(1)),
    ),
    "method": (
        lambda t: _tiny_spec(t, methods=["nnpu_ss", "svm"]),
        lambda t: TrainerConfig(method="svm"),
    ),
    "seed": (lambda t: _tiny_spec(t, seeds=[0, -1]), lambda t: Rng(-1)),
    "seed-float": (lambda t: _tiny_spec(t, seeds=[1.5]), lambda t: Rng(1.5)),
    "seed-bool": (lambda t: _tiny_spec(t, seeds=[True]), lambda t: Rng(True)),
    "hidden-width": (
        lambda t: _tiny_spec(t, hidden_dims=[4, 0]),
        lambda t: init([1, 4, 0, 1], "relu", Rng(0)),
    ),
    "hidden-width-str": (
        lambda t: _tiny_spec(t, hidden_dims=["4"]),
        lambda t: init([1, "4", 1], "relu", Rng(0)),
    ),
    "activation": (
        lambda t: _tiny_spec(t, activation="sigmoid"),
        lambda t: init([1, 4, 1], "sigmoid", Rng(0)),
    ),
    "pi": (lambda t: DatasetSource(name="g", pi=1.5), lambda t: gaussian_mixture(1, 1.5)),
    "csv-pi": (
        lambda t: DatasetSource(name="g", kind="csv", path="rows.csv", pi=0.0),
        lambda t: load_csv(t / "rows.csv", pi=0.0),
    ),
    "sd": (lambda t: DatasetSource(name="g", sd=0.0), lambda t: gaussian_mixture(1, 0.5, sd=0.0)),
    "dim": (lambda t: DatasetSource(name="g", dim=0), lambda t: gaussian_mixture(1, 0.5, dim=0)),
    "case-control-budget": (
        lambda t: _tiny_spec(t, c_values=[0.3, 0.999]),
        lambda t: case_control_sizes(50, 0.5, 0.999),
    ),
}


@pytest.mark.parametrize("grid, owner", OWNED_RULES.values(), ids=OWNED_RULES)
def test_a_grid_refuses_what_its_cells_code_refuses_in_the_same_words(tmp_path, grid, owner):
    save_csv(gaussian_mixture(20, 0.5, rng=Rng(0)), tmp_path / "rows.csv")
    with pytest.raises(ParameterError) as want:
        owner(tmp_path)
    with pytest.raises(ParameterError) as got:
        grid(tmp_path)
    # a dataset source names itself before the owner's words
    assert str(got.value).removeprefix("dataset 'g': ") == str(want.value)


@pytest.mark.parametrize(
    "build",
    [
        lambda sc: PUDataset([[0.0]], [1], [1], 0.5, sc, 0.5),
        lambda sc: risk_components([0.0], [True], 0.5, sc),
        lambda sc: corrupt(gaussian_mixture(4, 0.5, rng=Rng(0)), sc, 0.5, 2, Rng(1)),
        lambda sc: GridSpec(datasets=[DatasetSource(name="g")], scenarios=[sc]),
        lambda sc: cell_seed(Cell(DatasetSource(name="g"), sc, "nnpu_ss", 0.5, 0)),
        lambda sc: ExperimentResult("g", sc, "nnpu_ss", 0.5, 0, 50.0, 50.0, 50.0, 50.0),
    ],
    ids=["PUDataset", "risk_components", "corrupt", "GridSpec", "cell_seed", "ExperimentResult"],
)
def test_every_reader_of_a_scenario_refuses_an_unknown_one_alike(build):
    with pytest.raises(ParameterError, match=r"^(scenario|mode) must be one of \('ss', 'cc'\), "
                       r"got 'pn'$"):
        build("pn")


@pytest.mark.parametrize(
    "build",
    [
        lambda m: TrainerConfig(method=m),
        lambda m: cell_seed(Cell(DatasetSource(name="g"), "ss", m, 0.5, 0)),
        lambda m: ExperimentResult("g", "ss", m, 0.5, 0, 50.0, 50.0, 50.0, 50.0),
    ],
    ids=["TrainerConfig", "cell_seed", "ExperimentResult"],
)
def test_every_reader_of_a_method_refuses_an_unknown_one_alike(build):
    with pytest.raises(ParameterError) as err:
        build("svm")
    assert str(err.value) == (
        "method must be one of ('nnpu_ss', 'nnpu_cc', 'upu_ss', 'upu_cc'), got 'svm'"
    )


# Each reader of one cell's (scenario, c, seed): a grid of that one point, the
# cell's seed and a results row that records it.
CELL_READERS = {
    "GridSpec": lambda sc, c, seed: GridSpec(
        datasets=[DatasetSource(name="g")], scenarios=[sc], c_values=[c], seeds=[seed]
    ),
    "cell_seed": lambda sc, c, seed: cell_seed(
        Cell(DatasetSource(name="g"), sc, "nnpu_ss", c, seed)
    ),
    "ExperimentResult": lambda sc, c, seed: ExperimentResult(
        "g", sc, "nnpu_ss", c, seed, 50.0, 50.0, 50.0, 50.0
    ),
}


def _refusals(scenario, c, seed):
    """{reader: the words it refuses the cell in}; ParameterError only."""
    words = {}
    for name, build in CELL_READERS.items():
        with pytest.raises(ParameterError) as err:
            build(scenario, c, seed)
        words[name] = str(err.value)
    return words


@pytest.mark.parametrize("seed", [-1, 1.5, True, "0"])
def test_every_reader_of_a_seed_refuses_a_bad_one_alike(seed):
    want = f"seed must be an integer >= 0, got {seed!r}"
    assert _refusals("ss", 0.5, seed) == dict.fromkeys(CELL_READERS, want)
    for build in CELL_READERS.values():
        build("ss", 0.5, 3)


@pytest.mark.parametrize(
    "scenario, c",
    [("ss", math.nan), ("ss", 0.0), ("ss", -0.5), ("ss", 7.0), ("ss", "0.5"), ("ss", True),
     ("cc", 1.0)],
    ids=["nan", "zero", "negative", "above-1", "text", "bool", "cc-at-1"],
)
def test_every_reader_of_c_refuses_a_bad_one_alike(scenario, c):
    want = f"c must be a number in (0, 1], below 1 under scenario cc, got {c!r}"
    assert _refusals(scenario, c, 0) == dict.fromkeys(CELL_READERS, want)
    for build in CELL_READERS.values():
        build("ss", 1.0, 0)  # c = 1 leaves a single-sample cell its negatives unlabeled


def test_a_case_control_budget_its_cells_would_refuse_is_refused_up_front(tmp_path, capsys):
    # at n=1000 and pi=0.5, c=0.9999 gives the labeled component the whole
    # budget; every cell would become an error row
    message = "budget n=1000 leaves no unlabeled rows at pi=0.5, c=0.9999"
    with pytest.raises(ParameterError, match=f"^{message}$"):
        GridSpec(datasets=[DatasetSource(name="g")], scenarios=["cc"], c_values=[0.9999])
    cfg = tmp_path / "grid.json"
    doc = {"datasets": [{"name": "g", "pi": 0.5}], "scenarios": ["cc"], "c_values": [0.9999],
           "seeds": [0]}
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "r.csv"
    assert cli_dispatch(["grid", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["grid.json"]  # nor a lock


def test_grid_spec_refuses_a_batch_larger_than_the_budget(tmp_path):
    # every cell's PU sample has at most n rows, so no cell could train
    with pytest.raises(ParameterError, match="batch_size 26 exceeds the per-run budget n=25"):
        _tiny_spec(tmp_path, n=25, trainer=TrainerConfig(epochs=1, batch_size=26))
    assert _tiny_spec(tmp_path, n=25).trainer.batch_size == 25


def test_grid_command_with_a_batch_larger_than_n_writes_nothing(tmp_path, capsys):
    out = tmp_path / "r.csv"
    argv = ["grid", "--n", "50", "--seeds", "0", "--c-values", "0.5", "--epochs", "1",
            "--out", str(out), "--quiet"]
    assert cli_dispatch(argv) == 1
    assert "batch_size 100 exceeds the per-run budget n=50" in capsys.readouterr().err
    assert not out.exists()


def test_run_grid_csv_source_smaller_than_a_batch_fails_every_cell(tmp_path):
    # 30 rows leave 24 for training, below the batch of 25 the budget allows
    path = tmp_path / "rows.csv"
    save_csv(gaussian_mixture(30, 0.5, rng=Rng(3)), path)
    assert run_grid(_csv_grid(tmp_path, path)) == []
    loaded, n_errors = load_results(tmp_path / "results.csv")
    assert (loaded, n_errors) == ([], 4)
    text = (tmp_path / "results.csv").read_text()
    assert text.count("error: batch_size 25 exceeds dataset size") == 4


@pytest.mark.parametrize(
    "axis, values",
    [
        ("seeds", [0, 1, 0]),
        ("c_values", [0.3, 0.3]),
        ("methods", ["nnpu_ss", "nnpu_ss"]),
        ("scenarios", ["ss", "ss"]),
    ],
)
def test_grid_spec_rejects_a_repeated_axis_value(tmp_path, axis, values):
    # a repeated value would run its cells twice and weigh them double in report
    with pytest.raises(ParameterError, match=f"{axis} must not repeat a value"):
        _tiny_spec(tmp_path, **{axis: values})
    assert _tiny_spec(tmp_path, hidden_dims=[4, 4]).hidden_dims == [4, 4]


@pytest.mark.parametrize("axis", ["scenarios", "methods", "c_values", "seeds"])
def test_grid_spec_rejects_an_empty_axis(tmp_path, axis):
    # an empty axis has no cells: the run would write a results file of only
    # the tag and the header
    with pytest.raises(ParameterError, match=f"grid needs at least one value in {axis}"):
        _tiny_spec(tmp_path, **{axis: []})


def test_grid_command_with_no_seeds_writes_nothing(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert cli_dispatch(["grid", "--seeds", ",", "--out", str(out), "--quiet"]) == 1
    assert "error: grid needs at least one value in seeds" in capsys.readouterr().err
    assert not out.exists()


def test_grid_config_with_no_seeds_writes_nothing(tmp_path, capsys):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"datasets": [{"name": "g"}], "seeds": []}))
    out = tmp_path / "r.csv"
    assert cli_dispatch(["grid", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    assert "grid needs at least one value in seeds" in capsys.readouterr().err
    assert not out.exists()


def test_grid_command_with_a_repeated_seed_runs_nothing(tmp_path, capsys):
    out = tmp_path / "r.csv"
    argv = ["grid", "--seeds", "0,0", "--c-values", "0.9", "--scenarios", "ss",
            "--methods", "nnpu_ss", "--epochs", "1", "--out", str(out), "--quiet"]
    assert cli_dispatch(argv) == 1
    assert "seeds must not repeat a value" in capsys.readouterr().err
    assert not out.exists()


def test_default_grid_spec_shape():
    spec = default_grid_spec()
    assert [d.name for d in spec.datasets] == ["gauss1d"]
    assert spec.scenarios == ["ss", "cc"]
    assert spec.methods == ["nnpu_ss", "nnpu_cc"]
    assert spec.c_values == [0.1, 0.3, 0.5, 0.7, 0.9]
    assert spec.seeds == list(range(10))


# ---------------------------------------------------------------------------
# run_cell


def test_run_cell_returns_scores_and_trace(tmp_path):
    spec = _tiny_spec(tmp_path, trace_dir=str(tmp_path / "traces"))
    source = spec.datasets[0]
    result = run_cell(Cell(source, "ss", "nnpu_ss", 0.5, 0), spec)
    assert result.dataset == "gauss1d"
    assert 0.0 <= result.accuracy <= 100.0
    assert os.path.exists(result.trace_path)
    from puerm.trainer import load_trace

    traces = load_trace(result.trace_path)
    assert len(traces) == spec.trainer.epochs
    assert all(0.0 <= t.truncation_fraction <= 1.0 for t in traces)


def test_run_cell_is_deterministic(tmp_path):
    spec = _tiny_spec(tmp_path)
    source = spec.datasets[0]
    a = run_cell(Cell(source, "cc", "nnpu_cc", 0.7, 1), spec)
    b = run_cell(Cell(source, "cc", "nnpu_cc", 0.7, 1), spec)
    assert a == b


# ---------------------------------------------------------------------------
# run_grid


def test_iter_cells_default_grid_order():
    cells = [
        (source.name, scenario, method, c, seed)
        for source, scenario, method, c, seed in iter_cells(default_grid_spec())
    ]
    assert len(cells) == 200
    assert cells[0] == ("gauss1d", "ss", "nnpu_ss", 0.1, 0)
    assert cells[-1] == ("gauss1d", "cc", "nnpu_cc", 0.9, 9)
    # seed is the innermost coordinate, then c, method, scenario
    assert cells[1] == ("gauss1d", "ss", "nnpu_ss", 0.1, 1)
    assert cells[10] == ("gauss1d", "ss", "nnpu_ss", 0.3, 0)
    assert cells[50] == ("gauss1d", "ss", "nnpu_cc", 0.1, 0)
    assert cells[100] == ("gauss1d", "cc", "nnpu_ss", 0.1, 0)


def test_run_grid_covers_cross_product(tmp_path):
    spec = _tiny_spec(tmp_path)
    results = run_grid(spec)
    assert len(results) == 1 * 2 * 2 * 2 * 2
    loaded, n_errors = load_results(spec.out)
    assert n_errors == 0
    assert len(loaded) == 16
    keys = {(r.dataset, r.scenario, r.method, r.c, r.seed) for r in loaded}
    assert len(keys) == 16
    lines = Path(spec.out).read_text().splitlines()
    assert lines[0] == RESULTS_TAG
    assert lines[1] == ",".join(RESULTS_COLUMNS)
    assert len(lines) == 2 + 16


def test_run_grid_rerun_is_byte_identical(tmp_path):
    spec_a = _tiny_spec(tmp_path, out=str(tmp_path / "a.csv"))
    spec_b = _tiny_spec(tmp_path, out=str(tmp_path / "b.csv"))
    run_grid(spec_a)
    run_grid(spec_b)
    assert Path(spec_a.out).read_bytes() == Path(spec_b.out).read_bytes()


def _csv_grid(tmp_path, path, **overrides):
    """A 4-cell grid (one scenario, two methods, two c values) over one CSV source."""
    source = DatasetSource(name="rows", kind="csv", path=str(path), pi=0.5)
    return _tiny_spec(tmp_path, datasets=[source], scenarios=["ss"], seeds=[0], **overrides)


def test_run_grid_loads_a_csv_source_once(tmp_path, monkeypatch, one_cpu):
    path = tmp_path / "rows.csv"
    save_csv(gaussian_mixture(200, 0.5, rng=Rng(3)), path)
    loads = []

    def counting_load_csv(p, pi):
        loads.append(p)
        return load_csv(p, pi)

    monkeypatch.setattr(harness, "load_csv", counting_load_csv)
    spec = _csv_grid(tmp_path, path)
    # one process: a worker's loads would not show in this process's list
    assert len(run_grid(spec)) == 4
    assert loads == [str(path)]

    # the same cells as four one-cell runs, each loading the file itself
    per_cell = str(tmp_path / "per_cell.csv")
    for _, _, method, c, _ in iter_cells(spec):
        run_grid(_csv_grid(tmp_path, path, methods=[method], c_values=[c], out=per_cell))
    assert len(loads) == 1 + 4
    assert Path(per_cell).read_bytes() == Path(spec.out).read_bytes()


def test_run_cell_raises_a_copy_of_the_error_a_read_raised(tmp_path):
    spec = _csv_grid(tmp_path, tmp_path / "rows.csv")
    error = FormatError("rows.csv: line 3: bad")
    with pytest.raises(FormatError, match="^rows.csv: line 3: bad$") as info:
        run_cell(next(iter_cells(spec)), spec, error)
    assert info.value is not error  # a worker notes its traceback on each error it sends


def test_run_grid_unreadable_csv_source_fails_every_cell(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("f0,y\n0.5,1\noops,1\n")
    assert run_grid(_csv_grid(tmp_path, path)) == []
    loaded, n_errors = load_results(tmp_path / "results.csv")
    assert (loaded, n_errors) == ([], 4)
    text = (tmp_path / "results.csv").read_text()
    assert text.count(f"{path}: line 3: non-numeric value 'oops' in column f0") == 4


def test_run_grid_csv_source_that_is_not_utf8_fails_every_cell(tmp_path, monkeypatch):
    path = tmp_path / "rows.csv"
    path.write_bytes(b"f0,y\n" + b"0.5,1\n-0.5,-1\n" * 50 + b"0.\xe9,1\n")
    runs = []
    for cpus in (1, 3):  # with 3, workers run cells 1 and 2 and send their errors back
        _use_cpus(monkeypatch, cpus)
        spec = _csv_grid(tmp_path, path, out=str(tmp_path / f"cpus{cpus}.csv"))
        log = io.StringIO()
        assert run_grid(spec, log=log) == []
        runs.append(((tmp_path / f"cpus{cpus}.csv").read_bytes(), log.getvalue()))
    assert load_results(tmp_path / "cpus1.csv") == ([], 4)
    text = runs[0][0].decode()
    assert text.count(f",error: {path}: not UTF-8 text (byte 0xe9: ") == 4
    assert runs[1] == runs[0]


def test_run_grid_empty_test_split_fails_every_cell(tmp_path):
    # 40 rows at test_fraction 0.01 round to 40 training rows and no test rows
    path = tmp_path / "rows.csv"
    save_csv(gaussian_mixture(40, 0.5, rng=Rng(3)), path)
    assert run_grid(_csv_grid(tmp_path, path, n=25, test_fraction=0.01)) == []
    loaded, n_errors = load_results(tmp_path / "results.csv")
    assert (loaded, n_errors) == ([], 4)
    text = (tmp_path / "results.csv").read_text()
    assert text.count("gives 40 training and 0 test rows") == 4


def test_run_grid_resumes_without_duplicates(tmp_path):
    spec = _tiny_spec(tmp_path)
    run_grid(spec)
    full = Path(spec.out).read_text()
    lines = full.splitlines(keepends=True)
    # simulate an interrupted run missing the last three cells
    Path(spec.out).write_text("".join(lines[:-3]))
    new = run_grid(spec)
    assert len(new) == 3
    assert Path(spec.out).read_text() == full
    # a second rerun adds nothing
    assert run_grid(spec) == []
    assert Path(spec.out).read_text() == full


def test_run_grid_resumes_after_a_torn_last_row(tmp_path):
    spec = _tiny_spec(tmp_path)
    run_grid(spec)
    full = Path(spec.out).read_bytes()
    # a crash while writing the last row leaves its first half, no newline
    last_row = full.rstrip(b"\n").rfind(b"\n") + 1
    Path(spec.out).write_bytes(full[: (last_row + len(full)) // 2])
    with pytest.raises(FormatError):
        load_results(spec.out)
    new = run_grid(spec)
    assert len(new) == 1
    assert Path(spec.out).read_bytes() == full


@pytest.mark.parametrize("keep", [0, 5, len(RESULTS_TAG) + 1, len(RESULTS_TAG) + 8])
def test_run_grid_restarts_a_torn_tag_or_header(tmp_path, keep):
    small = dict(c_values=[0.3], seeds=[0])
    spec = _tiny_spec(tmp_path, **small)
    reference = _tiny_spec(tmp_path, **small, out=str(tmp_path / "ref.csv"))
    run_grid(reference)
    full = Path(reference.out).read_bytes()
    Path(spec.out).write_bytes(full[:keep])
    run_grid(spec)
    assert Path(spec.out).read_bytes() == full


def test_run_grid_leaves_a_foreign_file_alone(tmp_path):
    spec = _tiny_spec(tmp_path)
    Path(spec.out).write_text("not,a,results,file")
    with pytest.raises(FormatError):
        run_grid(spec)
    assert Path(spec.out).read_text() == "not,a,results,file"


def test_run_grid_writes_error_marker_and_continues(tmp_path):
    # at n=50 and pi near 0.5 a label frequency of 0.999 rounds the labeled
    # component up to the whole budget, which the sampler rejects. A csv
    # source with no pi has its prior only once its rows are read, so the
    # config cannot refuse the cell; the grid must record it and keep going
    path = tmp_path / "rows.csv"
    save_csv(gaussian_mixture(200, 0.5, rng=Rng(3)), path)
    spec = _tiny_spec(
        tmp_path,
        datasets=[DatasetSource(name="rows", kind="csv", path=str(path))],
        scenarios=["cc"],
        methods=["nnpu_cc"],
        c_values=[0.5, 0.999],
        seeds=[0],
    )
    results = run_grid(spec)
    assert len(results) == 1  # only the healthy cell
    loaded, n_errors = load_results(spec.out)
    assert len(loaded) == 1
    assert n_errors == 1
    import csv

    with open(spec.out) as fh:
        fh.readline()
        fh.readline()
        error_rows = [row for row in csv.reader(fh) if row[5] == ""]
    assert len(error_rows) == 1
    assert error_rows[0][3] == "0.999"
    assert error_rows[0][-1].startswith("error: ")


def test_run_grid_records_an_os_error_and_continues(tmp_path):
    traces = tmp_path / "traces"
    spec = _tiny_spec(
        tmp_path,
        scenarios=["ss"],
        methods=["nnpu_ss"],
        c_values=[0.5],
        seeds=[0, 1],
        trace_dir=str(traces),
    )
    # a directory where seed 0's trace file should go makes writing it fail
    (traces / "gauss1d_ss_nnpu_ss_c0.5_s0.csv").mkdir(parents=True)
    results = run_grid(spec)
    assert [r.seed for r in results] == [1]
    loaded, n_errors = load_results(spec.out)
    assert [r.seed for r in loaded] == [1]
    assert n_errors == 1
    rows = Path(spec.out).read_text().splitlines()[2:]
    assert rows[0].startswith("gauss1d,ss,nnpu_ss,0.5,0,,,,,error: ")


def test_run_grid_retries_a_failed_cell_and_keeps_its_error_row(tmp_path, capsys):
    traces = tmp_path / "traces"
    spec = _tiny_spec(
        tmp_path,
        scenarios=["ss"],
        methods=["nnpu_ss"],
        c_values=[0.5],
        seeds=[0, 1],
        trace_dir=str(traces),
    )
    blocker = traces / "gauss1d_ss_nnpu_ss_c0.5_s0.csv"
    blocker.mkdir(parents=True)
    run_grid(spec)
    blocker.rmdir()
    # the next run retries seed 0 and appends its result after the error row
    assert [r.seed for r in run_grid(spec)] == [0]
    rows = Path(spec.out).read_text().splitlines()[2:]
    assert [row.split(",")[4] for row in rows] == ["0", "1", "0"]
    assert ",error: " in rows[0]
    assert "error" not in rows[1] + rows[2]
    loaded, n_errors = load_results(spec.out)
    assert sorted(r.seed for r in loaded) == [0, 1]
    assert n_errors == 1
    emit_report(spec.out, metric="f1")
    assert "1 error rows skipped" in capsys.readouterr().err
    # a done cell is never run again, so a third run appends nothing
    before = Path(spec.out).read_bytes()
    assert run_grid(spec) == []
    assert Path(spec.out).read_bytes() == before


def _progress_line(cell, result):
    return (f"done {cell.dataset}/{cell.scenario}/{cell.method}/c={cell.c}/seed={cell.seed}: "
            f"acc={result.accuracy:.2f}")


def test_run_grid_logs_one_progress_line_per_cell_in_cell_order(tmp_path):
    # bench/workloads.py times each grid cell by these lines
    traces = tmp_path / "traces"
    spec = _tiny_spec(tmp_path, trace_dir=str(traces))
    failing = Cell(spec.datasets[0], "cc", "nnpu_ss", 0.7, 1)
    blocker = traces / "gauss1d_cc_nnpu_ss_c0.7_s1.csv"
    blocker.mkdir(parents=True)
    log = io.StringIO()
    results = iter(run_grid(spec, log=log))
    want = []
    for cell in iter_cells(spec):
        if cell == failing:
            want.append(re.escape(f"cell {harness._result_key(cell)} failed: ")
                        + r"\[Errno \d+\] .*" + re.escape(str(blocker)) + ".*")
        else:
            want.append(re.escape(_progress_line(cell, next(results))))
    lines = log.getvalue().splitlines()
    assert len(lines) == len(want) == 16
    for pattern, line in zip(want, lines):
        assert re.fullmatch(pattern, line), line
    assert next(results, None) is None

    # a rerun logs only the cells it runs, in cell order: the failed one and
    # the last one, whose row is dropped here; nothing for a cell it skips
    blocker.rmdir()
    text = Path(spec.out).read_text()
    Path(spec.out).write_text(text[: text.rstrip("\n").rfind("\n") + 1])
    log = io.StringIO()
    rerun = run_grid(spec, log=log)
    cells = list(iter_cells(spec))
    assert [(r.scenario, r.method, r.c, r.seed) for r in rerun] == [
        ("cc", "nnpu_ss", 0.7, 1), ("cc", "nnpu_cc", 0.7, 1)
    ]
    assert log.getvalue().splitlines() == [
        _progress_line(failing, rerun[0]), _progress_line(cells[-1], rerun[1])
    ]
    log = io.StringIO()
    assert run_grid(spec, log=log) == []
    assert log.getvalue() == ""


# ---------------------------------------------------------------------------
# one writer per results file


def test_run_grid_refuses_an_out_file_another_run_is_writing(tmp_path, monkeypatch, one_cpu):
    spec = _tiny_spec(tmp_path, seeds=[0], c_values=[0.3])
    lock = tmp_path / "results.csv.lock"
    seen = []
    run_cell = harness.run_cell

    def run_cell_and_a_second_run(cell, spec_, load):
        # a second run on the same file while the first holds its lock
        seen.append(lock.exists())
        with pytest.raises(PuermError) as err:
            run_grid(spec)
        seen.append(str(err.value))
        return run_cell(cell, spec_, load)

    monkeypatch.setattr(harness, "run_cell", run_cell_and_a_second_run)
    # one process: what a worker appends to ``seen`` would not show here
    assert len(run_grid(spec)) == 4
    assert seen[0] is True
    assert seen[1].startswith(f"{lock} exists: another run is writing {spec.out}")
    assert not lock.exists()  # the first run removed its lock
    # the refused runs wrote nothing: four result rows, each cell once
    assert len(load_results(spec.out)[0]) == 4


def test_grid_command_creates_the_out_directory(tmp_path, capsys):
    out = tmp_path / "d" / "e" / "results.csv"
    argv = ["grid", "--seeds", "0", "--c-values", "0.3", "--scenarios", "ss", "--methods",
            "nnpu_ss", "--epochs", "1", "--quiet"]
    assert cli_dispatch([*argv, "--n", "100", "--out", str(out)]) == 0
    assert len(load_results(out)[0]) == 1
    assert sorted(p.name for p in out.parent.iterdir()) == ["results.csv"]
    # a refused config creates no directory
    refused = tmp_path / "f" / "results.csv"
    assert cli_dispatch([*argv, "--n", "5", "--out", str(refused)]) == 1
    assert "per-run budget n must be >= 10" in capsys.readouterr().err
    assert not refused.parent.exists()


def test_run_grid_refuses_a_lock_left_by_a_killed_run(tmp_path, capsys):
    spec = _tiny_spec(tmp_path, seeds=[0], c_values=[0.3])
    lock = tmp_path / "results.csv.lock"
    lock.write_text("")
    with pytest.raises(PuermError) as err:
        run_grid(spec)
    assert str(lock) in str(err.value)
    assert "delete it" in str(err.value)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["results.csv.lock"]
    argv = ["grid", "--seeds", "0", "--c-values", "0.3", "--epochs", "1", "--n", "100",
            "--out", str(spec.out), "--quiet"]
    assert cli_dispatch(argv) == 1
    assert f"error: {lock} exists" in capsys.readouterr().err
    lock.unlink()
    assert cli_dispatch(argv) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["results.csv"]


def test_run_grid_removes_its_lock_when_a_cell_raises(tmp_path, monkeypatch):
    spec = _tiny_spec(tmp_path)

    def interrupted(cell, spec_, load):
        raise KeyboardInterrupt

    monkeypatch.setattr(harness, "run_cell", interrupted)
    for cpus in (1, 3):
        _use_cpus(monkeypatch, cpus)
        with pytest.raises(KeyboardInterrupt):
            run_grid(spec)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["results.csv"]
        assert _no_child_process()


# ---------------------------------------------------------------------------
# cells on several processes


@pytest.fixture
def cgroup_files(tmp_path, monkeypatch):
    """(usable, own, root): ``_usable_cpus`` on a faked 64-CPU affinity set,
    reading the process's cgroup file ``own`` and the cgroup tree ``root``,
    both under tmp_path. Nothing here starts a process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    own, root = tmp_path / "cgroup", tmp_path / "fs"
    root.mkdir()
    return functools.partial(spread._usable_cpus, str(root), str(own)), own, root


def test_usable_cpus_are_the_affinity_set_cut_to_the_cgroup_quota(cgroup_files):
    usable, own, root = cgroup_files
    assert usable() == 64  # nothing to read
    own.write_text("0::/\n")
    for quota, want in (("max", 64), (150000, 2), (20000, 1), (10**11, 64)):
        (root / "cpu.max").write_text(f"{quota} 100000\n")
        assert usable() == want


def test_usable_cpus_take_the_smallest_quota_of_the_process_cgroups(cgroup_files):
    usable, own, root = cgroup_files
    # cgroup v2: this process's cgroup and each one above it
    own.write_text("0::/pod/job\n")
    (root / "pod" / "job").mkdir(parents=True)
    (root / "cpu.max").write_text("max 100000\n")
    (root / "pod" / "job" / "cpu.max").write_text("max 100000\n")
    assert usable() == 64
    (root / "pod" / "cpu.max").write_text("250000 100000\n")
    assert usable() == 3  # ceil(2.5)
    (root / "pod" / "job" / "cpu.max").write_text("150000 100000\n")
    assert usable() == 2
    (root / "pod" / "job" / "cpu.max").write_text("garbled\n")
    assert usable() == 3
    # cgroup v1: the cpu controller's CFS quota, -1 for none
    (root / "cpu").mkdir()
    (root / "cpu" / "cpu.cfs_period_us").write_text("100000\n")
    (root / "cpu" / "cpu.cfs_quota_us").write_text("-1\n")
    assert usable() == 3
    (root / "cpu" / "cpu.cfs_quota_us").write_text("50000\n")
    assert usable() == 1
    own.write_text("4:cpu:/\n")
    (root / "pod" / "cpu.max").unlink()
    assert usable() == 1


def test_worker_count_is_capped_at_the_usable_cpus_and_the_cells(monkeypatch, three_cpus):
    count = spread._worker_count
    assert count(100) == 3  # every usable CPU
    assert count(2) == 2
    assert count(0) == count(1) == 1
    # at least `share` tasks a process
    assert count(100, share=30) == 3
    assert count(8, share=4) == 2
    assert count(7, share=4) == count(3, share=4) == 1
    _use_cpus(monkeypatch, 10**6)
    assert count(100) == 100  # a count, not processes: nothing starts here
    monkeypatch.delattr(os, "fork")
    assert count(100) == 1


def test_any_worker_count_writes_the_same_bytes(tmp_path, monkeypatch):
    runs = []
    for workers in (1, 2, 3):
        _use_cpus(monkeypatch, workers)
        where = tmp_path / f"w{workers}"
        where.mkdir()
        monkeypatch.chdir(where)  # relative paths: the same row text
        spec = _tiny_spec(where, out="results.csv", trace_dir="traces")
        # a directory where cell 1's trace file goes makes that cell an error row
        (where / "traces" / "gauss1d_ss_nnpu_ss_c0.3_s1.csv").mkdir(parents=True)
        log = io.StringIO()
        run_grid(spec, log=log)
        # a crash tore the ninth row and lost the rest; the rerun retries the
        # error cell too
        out = where / "results.csv"
        text = out.read_bytes()
        cut = [i for i, ch in enumerate(text) if ch == ord("\n")][9]
        out.write_bytes(text[: cut + 1 + 20])
        run_grid(spec, log=log)
        traces = {p.name: p.read_bytes() for p in (where / "traces").iterdir() if p.is_file()}
        runs.append((out.read_bytes(), traces, log.getvalue()))
    results, traces, log = runs[0]
    assert results.count(b",error: ") == 2
    assert len(traces) == 15
    assert len(log.splitlines()) == 16 + 9
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_run_grid_leaves_no_process_and_the_parent_removes_the_lock(
    tmp_path, monkeypatch, workers
):
    _use_cpus(monkeypatch, workers)
    unlinks = tmp_path / "unlinks"
    unlink = os.unlink

    def recording_unlink(path, *args, **kwargs):
        if str(path).endswith(".lock"):
            with open(unlinks, "a") as fh:
                fh.write(f"{os.getpid()}\n")
        unlink(path, *args, **kwargs)

    monkeypatch.setattr(os, "unlink", recording_unlink)
    spec = _tiny_spec(tmp_path)
    assert len(run_grid(spec)) == 16
    assert _no_child_process()
    assert not os.path.exists(f"{spec.out}.lock")
    assert unlinks.read_text() == f"{os.getpid()}\n"


def test_a_dead_worker_stops_the_run_at_its_cell(tmp_path, monkeypatch, capsys):
    _use_cpus(monkeypatch, 2)
    parent = os.getpid()
    run_cell = harness.run_cell

    def dies_in_a_worker(cell, spec_, load):
        if os.getpid() != parent:
            os._exit(1)
        return run_cell(cell, spec_, load)

    monkeypatch.setattr(harness, "run_cell", dies_in_a_worker)
    spec = _tiny_spec(tmp_path)
    cells = list(iter_cells(spec))
    # the parent runs cell 0 and the one worker cell 1
    died = f"a worker process died before cell {harness._result_key(cells[1])} finished"
    with pytest.raises(PuermError, match=re.escape(died)):
        run_grid(spec)
    assert _no_child_process()
    assert not os.path.exists(f"{spec.out}.lock")
    assert [harness._result_key(r) for r in load_results(spec.out)[0]] == [
        harness._result_key(cells[0])
    ]
    argv = ["grid", "--seeds", "0", "--c-values", "0.3", "--epochs", "1", "--n", "100",
            "--out", str(tmp_path / "cli.csv"), "--quiet"]
    assert cli_dispatch(argv) == 1
    assert capsys.readouterr().err.startswith("error: a worker process died before cell ")
    assert _no_child_process()

    # a rerun resumes from the dead worker's cell and ends as a serial run does
    monkeypatch.setattr(harness, "run_cell", run_cell)
    assert len(run_grid(spec)) == 15
    _use_cpus(monkeypatch, 1)
    run_grid(_tiny_spec(tmp_path, out=str(tmp_path / "reference.csv")))
    assert (tmp_path / "results.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def _logging_load_csv(monkeypatch, loads):
    """Make a grid's reads of a csv source append their pid to ``loads``."""
    def logging_load_csv(p, pi):
        with open(loads, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return load_csv(p, pi)

    monkeypatch.setattr(harness, "load_csv", logging_load_csv)


def test_a_run_reads_each_csv_source_once(tmp_path, monkeypatch, three_cpus):
    path = tmp_path / "rows.csv"
    save_csv(gaussian_mixture(200, 0.5, rng=Rng(3)), path)
    loads = tmp_path / "loads"
    _logging_load_csv(monkeypatch, loads)
    # 8 cells: the parent runs 3 of them, two workers the other 5
    spec = replace(_csv_grid(tmp_path, path), seeds=[0, 1])
    assert len(run_grid(spec)) == 8
    assert loads.read_text() == f"{os.getpid()}\n"  # one read, before the fork
    _use_cpus(monkeypatch, 1)
    run_grid(replace(spec, out=str(tmp_path / "serial.csv")))
    assert (tmp_path / "results.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()


def test_spread_yields_outcomes_in_task_order_and_raises_what_it_does_not_catch(three_cpus):
    def fails(exc):
        raise exc

    tasks = [(f"task {i}", functools.partial(pow, i, 2)) for i in range(7)]
    # task 4 runs in a worker, whose exception comes back through its pipe
    tasks[4] = ("task 4", functools.partial(fails, OSError(2, "gone", "f.csv")))
    out = list(spread._spread(tasks, catch=(OSError,)))
    assert out[:4] == [0, 1, 4, 9]
    assert out[5:] == [25, 36]
    assert type(out[4]) is FileNotFoundError
    assert str(out[4]) == "[Errno 2] gone: 'f.csv'"
    assert _no_child_process()
    with pytest.raises(FileNotFoundError, match="gone"):
        list(spread._spread(tasks))
    assert _no_child_process()
    # a caller that stops early leaves no worker behind
    outcomes = spread._spread(tasks, catch=(OSError,))
    assert next(outcomes) == 0
    outcomes.close()
    assert _no_child_process()


def _recording_fork(monkeypatch, forks):
    """Make each fork append the pid of the forking process to ``forks``."""
    fork = os.fork

    def recording_fork():
        with open(forks, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return fork()

    monkeypatch.setattr(os, "fork", recording_fork)


def test_a_grid_over_a_csv_source_of_several_read_ranges_forks_only_its_workers(
    tmp_path, monkeypatch
):
    path = tmp_path / "rows.csv"
    save_csv(gaussian_mixture(200, 0.5, rng=Rng(3)), path)
    # several ranges, one a process: the grid reads them on every usable CPU
    # before its cells start, and no cell forks
    monkeypatch.setattr(datasets, "_PLAIN_CHUNK", 512)
    monkeypatch.setattr(datasets, "_SPREAD_BYTES", 0)
    assert path.stat().st_size > 4 * 512
    forks = tmp_path / "forks"
    _recording_fork(monkeypatch, forks)
    runs = []
    for cpus in (1, 3):
        _use_cpus(monkeypatch, cpus)
        where = tmp_path / f"w{cpus}"
        where.mkdir()
        monkeypatch.chdir(where)  # relative paths: the same row text
        run_grid(_csv_grid(where, path, out="results.csv", trace_dir="traces"))
        assert _no_child_process()
        traces = {p.name: p.read_bytes() for p in (where / "traces").iterdir()}
        runs.append(((where / "results.csv").read_bytes(), traces))
    assert runs[1] == runs[0]
    assert len(runs[0][1]) == 4
    # the 3-CPU grid's two read workers, then its two cell workers
    assert forks.read_text() == f"{os.getpid()}\n" * 4


def test_a_grid_reads_a_bad_csv_source_of_several_read_ranges_once(tmp_path, monkeypatch):
    path = tmp_path / "rows.csv"
    save_csv(gaussian_mixture(200, 0.5, rng=Rng(3)), path)
    with open(path, "a") as fh:
        fh.write("oops,1\n")
    monkeypatch.setattr(datasets, "_PLAIN_CHUNK", 512)
    monkeypatch.setattr(datasets, "_SPREAD_BYTES", 0)
    assert path.stat().st_size > 4 * 512
    forks, loads = tmp_path / "forks", tmp_path / "loads"
    _recording_fork(monkeypatch, forks)
    _logging_load_csv(monkeypatch, loads)
    runs = []
    for cpus in (1, 3):
        _use_cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}.csv"
        assert run_grid(_csv_grid(tmp_path, path, out=str(out))) == []
        assert _no_child_process()
        assert loads.read_text() == f"{os.getpid()}\n"  # the one failed read is not retried
        loads.unlink()
        runs.append(out.read_bytes())
    assert runs[1] == runs[0]
    error = f",error: {path}: line 202: non-numeric value 'oops' in column f0\n"
    assert runs[0].decode().count(error) == 4
    assert load_results(tmp_path / "cpus1.csv") == ([], 4)
    # the 3-CPU grid's two read workers, then its two cell workers
    assert forks.read_text() == f"{os.getpid()}\n" * 4


def test_a_worker_sends_its_traceback_and_says_which_outcome_it_could_not_send(three_cpus):
    def fails():
        raise ValueError("bad")

    tasks = [(f"task {i}", functools.partial(pow, i, 2)) for i in range(7)]
    tasks[4] = ("task 4", fails)  # run by a worker
    with pytest.raises(ValueError) as info:
        list(spread._spread(tasks))
    assert str(info.value) == "bad"  # the note, which names the line, is no part of it
    if sys.version_info >= (3, 11):
        assert "in fails" in "".join(info.value.__notes__)
    assert _no_child_process()
    # a local function cannot be pickled; the worker sends the error that says so
    tasks[4] = ("task 4", lambda: fails)
    with pytest.raises(Exception) as info:
        list(spread._spread(tasks))
    assert not isinstance(info.value, PuermError)
    if sys.version_info >= (3, 11):
        assert "while sending the outcome of task 4" in "".join(info.value.__notes__)
    assert _no_child_process()


def test_a_one_process_run_imports_no_pool_modules(tmp_path):
    # the pool modules cost memory, and puerm check never runs a grid
    code = (
        "import sys\n"
        "from puerm.cli import cli_dispatch\n"
        "assert cli_dispatch(['check']) == 0\n"
        # one cell, so one process whatever the host's CPUs
        "assert cli_dispatch(['grid', '--seeds', '0', '--c-values', '0.3', '--scenarios', 'ss',"
        " '--methods', 'nnpu_ss', '--epochs', '1', '--n', '100', '--quiet']) == 0\n"
        "print(sorted(m for m in sys.modules"
        " if m.partition('.')[0] in ('multiprocessing', 'concurrent')))\n"
    )
    proc = _run_python(["-c", code], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def _run_python(args, **kwargs):
    """A Python subprocess that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(harness.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=300, **kwargs)


@pytest.mark.parametrize("module", ["puerm", "puerm.cli"])
def test_the_module_form_runs_the_command(module):
    proc = _run_python(["-m", module, "check"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) > 1
    assert all(line.startswith("PASS  ") for line in lines[:-1])
    assert lines[-1] == f"{len(lines) - 1}/{len(lines) - 1} checks passed"


# ---------------------------------------------------------------------------
# results file parsing


def test_load_results_requires_tag_and_header(tmp_path):
    p = tmp_path / "r.csv"
    p.write_text("dataset,scenario\n")
    with pytest.raises(FormatError):
        load_results(p)
    p.write_text(RESULTS_TAG + "\nwrong,header\n")
    with pytest.raises(FormatError):
        load_results(p)


def test_load_results_rejects_malformed_rows(tmp_path):
    p = tmp_path / "r.csv"
    p.write_text(
        RESULTS_TAG + "\n" + ",".join(RESULTS_COLUMNS) + "\n" + "g,ss,nnpu_ss,0.5\n"
    )
    with pytest.raises(FormatError):
        load_results(p)


def test_load_results_skips_a_blank_line_and_counts_the_lines_past_it(tmp_path):
    p = tmp_path / "r.csv"
    row = ["g", "ss", "nnpu_ss", "0.5", "0", "90.0", "80.0", "70.0", "75.0", ""]
    _write_results(p, [row, [], [*row[:4], "1", *row[5:]]])
    results, n_errors = load_results(p)
    assert [r.seed for r in results] == [0, 1] and n_errors == 0
    _write_results(p, [row, [], row[:4]])
    with pytest.raises(FormatError) as err:
        load_results(p)
    assert str(err.value).startswith(f"{p}: line 5: malformed results row")


def test_results_file_header_is_pinned(tmp_path):
    # the columns come from ExperimentResult's field names; renaming a field
    # must not silently change the file format
    header = "dataset,scenario,method,c,seed,accuracy,precision,recall,f1,trace_path"
    assert ",".join(RESULTS_COLUMNS) == header
    spec = _tiny_spec(tmp_path, scenarios=["ss"], methods=["nnpu_ss"], seeds=[0])
    run_grid(spec)
    assert Path(spec.out).read_text().splitlines()[:2] == [RESULTS_TAG, header]


_RESULTS_PREAMBLE = RESULTS_TAG + "\n" + ",".join(RESULTS_COLUMNS) + "\n"
_GOOD_RESULT = "g,ss,nnpu_ss,0.5,0,90.0,80.0,70.0,75.0,\n"
_TRACE_HEADER = "epoch,r_label,r_dist,r_corr,objective,truncation_fraction,test_accuracy\n"


@pytest.mark.parametrize(
    "loader, text, line",
    [
        (load_results, _RESULTS_PREAMBLE + "g,ss,nnpu_ss,0.5,0,abc,0,0,0,\n", 3),
        (load_results, _RESULTS_PREAMBLE + "g,ss,nnpu_ss,0.5,0,101.0,0,0,0,\n", 3),
        (load_results, _RESULTS_PREAMBLE + _GOOD_RESULT + "g,ss,nnpu_ss,0.5,x,1,1,1,1,\n", 4),
        (load_results, _RESULTS_PREAMBLE + _GOOD_RESULT + "g,ss,nnpu,0.5,1,1,1,1,1,\n", 4),
        (load_results, _RESULTS_PREAMBLE + "g,pn,nnpu_ss,0.5,0,1,1,1,1,\n", 3),
        (load_trace, _TRACE_HEADER + "x,0.1,0.2,0.3,0.05,0.25,\n", 2),
        (load_trace, _TRACE_HEADER + "0,0.1,0.2,0.3,0.05,0.25,\n1,0.1,?,0.3,0.05,0.25,\n", 3),
    ],
    ids=[
        "results-text", "results-range", "results-seed", "results-method", "results-scenario",
        "trace-epoch", "trace-float",
    ],
)
def test_malformed_files_name_the_file_and_line(tmp_path, loader, text, line):
    p = tmp_path / "file.csv"
    p.write_text(text)
    with pytest.raises(FormatError, match=re.escape(f"{p}: line {line}:")):
        loader(p)


# results rows whose coordinates no grid cell could have, and the words
# every reader of a cell's coordinates refuses them in
_BAD_COORDINATE_ROWS = {
    "seed-negative": ("g,ss,nnpu_ss,0.5,-1,90.0,80.0,70.0,75.0,", "seed must be an integer"),
    "c-nan": ("g,ss,nnpu_ss,nan,0,90.0,80.0,70.0,75.0,", "c must be a number in (0, 1]"),
    "c-zero": ("g,ss,nnpu_ss,0,0,90.0,80.0,70.0,75.0,", "c must be a number in (0, 1]"),
    "c-above-1": ("g,ss,nnpu_ss,7.0,0,90.0,80.0,70.0,75.0,", "c must be a number in (0, 1]"),
    "cc-c-1": ("g,cc,nnpu_cc,1.0,0,90.0,80.0,70.0,75.0,", "below 1 under scenario cc"),
    "dataset-empty": (",ss,nnpu_ss,0.5,0,90.0,80.0,70.0,75.0,", "dataset name '' must not"),
    "dataset-path": ("../x,ss,nnpu_ss,0.5,0,90.0,80.0,70.0,75.0,", "dataset name '../x' must not"),
}


@pytest.mark.parametrize(
    "row, words", _BAD_COORDINATE_ROWS.values(), ids=_BAD_COORDINATE_ROWS
)
def test_a_results_row_no_cell_could_write_is_refused_naming_file_and_line(
    tmp_path, capsys, row, words
):
    out = tmp_path / "r.csv"
    out.write_text(_RESULTS_PREAMBLE + _GOOD_RESULT + row + "\n")
    before = out.read_bytes()
    where = re.escape(f"{out}: line 4: ")
    with pytest.raises(FormatError, match=f"^{where}.*{re.escape(words)}"):
        load_results(out)
    assert cli_dispatch(["report", "--results", str(out)]) == 1
    captured = capsys.readouterr()
    assert re.match(f"error: {where}.*{re.escape(words)}", captured.err)
    assert captured.out == ""
    # a resume reads the file before it runs a cell
    with pytest.raises(FormatError, match=f"^{where}.*{re.escape(words)}"):
        run_grid(_tiny_spec(tmp_path, out=str(out)))
    assert out.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.csv"]  # the lock is gone


@pytest.mark.parametrize(
    "loader, data",
    [
        (load_csv, b"f0,y\xe9\n0.5,1\n"),
        # a bad byte past the first 8 KiB block the text reader decodes
        (load_csv, b"f0,y\n" + b"0.5,1\n" * 5000 + b"0.\xe9,1\n"),
        (functools.partial(load_pu_csv, pi=0.5), b"f0,s\n0.5,1\n0.\xe9,-1\n"),
        (load_results, (_RESULTS_PREAMBLE + _GOOD_RESULT).encode() + b"g\xe9,ss\n"),
        (load_grid_config, b'{"datasets": [{"name": "g\xe9"}]}'),
        (load_trace, _TRACE_HEADER.encode() + b"0,0.1,0.2,0.3,0.05,0.25,\xe9\n"),
    ],
    ids=["csv-header", "csv-body", "pu-csv", "results", "grid-config", "trace"],
)
def test_a_file_that_is_not_utf8_is_a_format_error_naming_it(tmp_path, loader, data):
    p = tmp_path / "file"
    p.write_bytes(data)
    with pytest.raises(FormatError, match=re.escape(f"{p}: not UTF-8 text (byte 0xe9: ")):
        loader(p)


# a quoted cell longer than the csv module's default field size limit, 131,072
_HUGE_CELL = '"' + "1" * 140_000 + '"'


@pytest.mark.parametrize(
    "loader, text, line",
    [
        (load_csv, f"f0,y\n0.5,1\n{_HUGE_CELL},1\n", 3),
        (functools.partial(load_pu_csv, pi=0.5), f"f0,s\n{_HUGE_CELL},1\n", 2),
        (load_results, _RESULTS_PREAMBLE + f"g,ss,nnpu_ss,0.5,1,1,1,1,1,{_HUGE_CELL}\n", 3),
        (load_trace, _TRACE_HEADER + f"0,0.1,0.2,0.3,0.05,0.25,{_HUGE_CELL}\n", 2),
        (load_csv, f"f0,{_HUGE_CELL}\n0.5,1\n", 1),
    ],
    ids=["csv", "pu-csv", "results", "trace", "csv-header"],
)
def test_a_cell_over_the_csv_field_limit_is_a_format_error_naming_the_file(
    tmp_path, loader, text, line
):
    p = tmp_path / "file.csv"
    p.write_text(text)
    with pytest.raises(
        FormatError, match=re.escape(f"{p}: line {line}: malformed CSV: field larger")
    ):
        loader(p)


def test_a_csv_source_over_the_field_limit_fails_each_cell_alike_on_any_cpus(
    tmp_path, monkeypatch, capsys
):
    source = tmp_path / "rows.csv"
    source.write_text(f"f0,y\n{_HUGE_CELL},1\n")
    runs = []
    for cpus in (1, 3):
        _use_cpus(monkeypatch, cpus)
        spec = _csv_grid(tmp_path, source, out=str(tmp_path / f"r{cpus}.csv"))
        assert run_grid(spec) == []
        runs.append(Path(spec.out).read_bytes())
    assert runs[1] == runs[0]
    rows = runs[0].decode().splitlines()[2:]
    assert len(rows) == 4
    assert all(f"error: {source}: line 2: malformed CSV: field larger" in row for row in rows)
    assert cli_dispatch(["report", "--results", str(tmp_path / "r1.csv")]) == 0
    assert capsys.readouterr().err == "warning: 4 error rows skipped\nwarning: no results\n"
    big = tmp_path / "big_results.csv"
    big.write_text(_RESULTS_PREAMBLE + f"g,ss,nnpu_ss,0.5,1,1,1,1,1,{_HUGE_CELL}\n")
    assert cli_dispatch(["report", "--results", str(big)]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {big}: line 3: malformed CSV: field larger"
    )


def test_report_and_grid_refuse_a_results_file_that_is_not_utf8(tmp_path, capsys):
    out = tmp_path / "r.csv"
    out.write_bytes((_RESULTS_PREAMBLE + _GOOD_RESULT).encode() + b"g\xe9,ss\n")
    assert cli_dispatch(["report", "--results", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {out}: not UTF-8 text")
    argv = ["grid", "--seeds", "0", "--c-values", "0.3", "--epochs", "1", "--n", "100",
            "--out", str(out), "--quiet"]
    assert cli_dispatch(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {out}: not UTF-8 text")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.csv"]  # the lock is gone


# ---------------------------------------------------------------------------
# reports


def _write_results(path, rows):
    with open(path, "w") as fh:
        fh.write(RESULTS_TAG + "\n")
        fh.write(",".join(RESULTS_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _report_title(metric):
    """The report's title and its rule."""
    title = f"{metric} (percent), mean over seeds; delta = matched - mismatched, unpaired se"
    return f"{title}\n{'=' * len(title)}\n"


# the column header when c prints as 0.x and no se value is set; each
# column is as wide as its widest cell
_REPORT_HEADER = (
    "scenario  dataset    c  family  n_matched  matched  n_mismatched  mismatched  delta  se\n"
)


def test_summarize_rows_are_pinned(tmp_path):
    # a row with spread on both sides, a missing variant and an error row
    p = tmp_path / "r.csv"
    p.write_text(
        _RESULTS_PREAMBLE
        + "g,cc,upu_ss,0.5,0,55.0,0,0,50.0,\n"
        + "g,ss,nnpu_ss,0.5,0,90.0,0,0,80.0,\n"
        + "g,ss,nnpu_ss,0.5,1,92.0,0,0,84.0,\n"
        + "g,ss,nnpu_cc,0.5,0,70.0,0,0,60.0,\n"
        + "g,ss,nnpu_cc,0.5,1,74.0,0,0,62.0,\n"
        + "g,ss,nnpu_cc,0.5,2,,,,,error: boom\n"
    )
    results, n_errors = load_results(p)
    assert n_errors == 1
    # ss rows sort before cc rows; se = sqrt(8 / 2 + 2 / 2)
    assert summarize(results, "f1") == [
        {
            "scenario": "ss", "dataset": "g", "c": 0.5, "family": "nnpu",
            "n_matched": 2, "matched": 82.0, "n_mismatched": 2, "mismatched": 61.0,
            "delta": 21.0, "se": math.sqrt(5.0),
        },
        {
            "scenario": "cc", "dataset": "g", "c": 0.5, "family": "upu",
            "n_matched": 0, "matched": None, "n_mismatched": 1, "mismatched": 50.0,
            "delta": None, "se": None,
        },
    ]
    assert summarize([], "f1") == []


def test_emit_report_means_and_difference_row(tmp_path, capsys):
    p = tmp_path / "r.csv"
    _write_results(
        p,
        [
            ["g", "ss", "nnpu_ss", "0.5", "0", "90.0", "0", "0", "90.0", ""],
            ["g", "ss", "nnpu_ss", "0.5", "1", "92.0", "0", "0", "92.0", ""],
            ["g", "ss", "nnpu_cc", "0.5", "0", "80.5", "0", "0", "80.5", ""],
            ["g", "ss", "nnpu_cc", "0.5", "1", "81.5", "0", "0", "81.5", ""],
        ],
    )
    text = emit_report(p, metric="accuracy")
    # se = sqrt(2 / 2 + 0.5 / 2)
    assert text == _report_title("accuracy") + (
        "scenario  dataset    c  family  n_matched  matched  n_mismatched  mismatched"
        "  delta    se\n"
        "      ss        g  0.5    nnpu          2    91.00             2"
        "       81.00  10.00  1.12\n"
    )
    assert capsys.readouterr().err == ""
    # the difference equals the printed means' difference
    cells = text.splitlines()[-1].split()
    matched, mismatched, delta = (float(cells[i]) for i in (5, 7, 8))
    assert delta == pytest.approx(matched - mismatched, abs=0.005)


def test_emit_report_missing_variant_reads_n_0(tmp_path, capsys):
    p = tmp_path / "r.csv"
    _write_results(
        p,
        [
            ["d1", "ss", "nnpu_ss", "0.5", "0", "90.0", "0", "0", "90.0", ""],
            ["d1", "ss", "nnpu_cc", "0.5", "0", "80.0", "0", "0", "80.0", ""],
            ["d2", "ss", "nnpu_ss", "0.5", "0", "88.0", "0", "0", "88.0", ""],
        ],
    )
    text = emit_report(p, metric="f1")
    # the missing d2/nnpu_cc cell is its n column reading 0, with no warning
    assert text == _report_title("f1") + _REPORT_HEADER + (
        "      ss       d1  0.5    nnpu          1    90.00             1       80.00  10.00\n"
        "      ss       d2  0.5    nnpu          1    88.00             0\n"
    )
    assert capsys.readouterr().err == ""


def test_emit_report_empty_results_warn(tmp_path, capsys):
    p = tmp_path / "r.csv"
    _write_results(p, [])
    assert emit_report(p, metric="f1") == _report_title("f1") + (
        "scenario  dataset  c  family  n_matched  matched  n_mismatched  mismatched  delta  se\n"
    )
    assert capsys.readouterr().err == "warning: no results\n"


def test_emit_report_counts_error_rows(tmp_path, capsys):
    p = tmp_path / "r.csv"
    _write_results(
        p,
        [
            ["g", "ss", "nnpu_ss", "0.5", "0", "90.0", "0", "0", "90.0", ""],
            ["g", "ss", "nnpu_ss", "0.5", "1", "", "", "", "", "error: boom"],
        ],
    )
    emit_report(p, metric="f1")
    assert "1 error rows skipped" in capsys.readouterr().err


_REPORT_ROWS = """\
d1,ss,nnpu_ss,0.3,0,91.0,0,0,90.0,
d1,ss,nnpu_ss,0.3,1,92.0,0,0,91.0,
d1,ss,nnpu_cc,0.3,0,86.0,0,0,85.0,
d1,ss,upu_ss,0.3,0,89.0,0,0,88.0,
d1,ss,upu_cc,0.3,0,87.5,0,0,86.5,
d2,ss,nnpu_ss,0.3,0,71.25,0,0,70.25,
d2,ss,nnpu_cc,0.3,0,61.0,0,0,60.0,
d2,ss,upu_ss,0.3,0,66.0,0,0,65.0,
d1,ss,nnpu_ss,0.9,0,96.0,0,0,95.0,
d1,ss,nnpu_cc,0.9,0,51.0,0,0,50.0,
d1,ss,upu_ss,0.9,0,94.0,0,0,93.0,
d1,ss,upu_cc,0.9,0,56.0,0,0,55.0,
d2,ss,nnpu_ss,0.9,0,81.0,0,0,80.0,
d2,ss,nnpu_cc,0.9,0,41.0,0,0,40.0,
d2,ss,upu_ss,0.9,0,79.0,0,0,78.0,
d2,ss,upu_cc,0.9,0,46.0,0,0,45.0,
d2,ss,upu_cc,0.9,1,,,,,error: boom
d1,cc,nnpu_cc,0.3,0,89.0,0,0,88.0,
d1,cc,nnpu_ss,0.3,0,84.0,0,0,83.0,
d2,cc,nnpu_cc,0.3,0,75.0,0,0,74.0,
d2,cc,nnpu_ss,0.3,0,77.0,0,0,76.0,
"""

_REPORT_F1 = _report_title("f1") + _REPORT_HEADER + """\
      ss       d1  0.3    nnpu          2    90.50             1       85.00   5.50
      ss       d1  0.3     upu          1    88.00             1       86.50   1.50
      ss       d1  0.9    nnpu          1    95.00             1       50.00  45.00
      ss       d1  0.9     upu          1    93.00             1       55.00  38.00
      ss       d2  0.3    nnpu          1    70.25             1       60.00  10.25
      ss       d2  0.3     upu          1    65.00             0
      ss       d2  0.9    nnpu          1    80.00             1       40.00  40.00
      ss       d2  0.9     upu          1    78.00             1       45.00  33.00
      cc       d1  0.3    nnpu          1    88.00             1       83.00   5.00
      cc       d2  0.3    nnpu          1    74.00             1       76.00  -2.00
"""

_REPORT_ACCURACY = _report_title("accuracy") + _REPORT_HEADER + """\
      ss       d1  0.3    nnpu          2    91.50             1       86.00   5.50
      ss       d1  0.3     upu          1    89.00             1       87.50   1.50
      ss       d1  0.9    nnpu          1    96.00             1       51.00  45.00
      ss       d1  0.9     upu          1    94.00             1       56.00  38.00
      ss       d2  0.3    nnpu          1    71.25             1       61.00  10.25
      ss       d2  0.3     upu          1    66.00             0
      ss       d2  0.9    nnpu          1    81.00             1       41.00  40.00
      ss       d2  0.9     upu          1    79.00             1       46.00  33.00
      cc       d1  0.3    nnpu          1    89.00             1       84.00   5.00
      cc       d2  0.3    nnpu          1    75.00             1       77.00  -2.00
"""


@pytest.mark.parametrize(
    "metric, text", [("f1", _REPORT_F1), ("accuracy", _REPORT_ACCURACY)], ids=["f1", "accuracy"]
)
def test_emit_report_text_is_pinned(tmp_path, capsys, metric, text):
    # two datasets, both scenarios, all four methods, one missing cell
    # (d2/upu_cc at c=0.3) and one error row; the table text and the
    # stderr lines are exact
    p = tmp_path / "r.csv"
    p.write_text(_RESULTS_PREAMBLE + _REPORT_ROWS)
    assert emit_report(p, metric=metric) == text
    assert capsys.readouterr().err == "warning: 1 error rows skipped\n"


def test_report_defaults_to_accuracy(tmp_path, capsys):
    # the claim and the tables it is read from are in accuracy
    p = tmp_path / "r.csv"
    p.write_text(_RESULTS_PREAMBLE + _REPORT_ROWS)
    assert emit_report(p) == _REPORT_ACCURACY
    capsys.readouterr()
    assert cli_dispatch(["report", "--results", str(p)]) == 0
    assert capsys.readouterr().out == _REPORT_ACCURACY


def test_emit_report_validates_arguments(tmp_path):
    p = tmp_path / "r.csv"
    _write_results(p, [])
    with pytest.raises(ParameterError):
        emit_report(p, metric="auc")
    with pytest.raises(ParameterError):
        summarize([], "auc")
    # both scenarios print together; there is no scenario switch
    with pytest.raises(TypeError):
        emit_report(p, scenario="ss")


# ---------------------------------------------------------------------------
# grid config files


# A float setting of each config class, set to ``value`` by keyword.
FLOAT_SETTINGS = {
    "trainer-beta": lambda v: TrainerConfig(beta=v),
    "trainer-eta": lambda v: TrainerConfig(eta=v),
    "dataset-mu-pos": lambda v: DatasetSource(name="g", mu_pos=v),
    "dataset-sd": lambda v: DatasetSource(name="g", sd=v),
    "grid-test-fraction": lambda v: GridSpec(
        datasets=[DatasetSource(name="g")], test_fraction=v
    ),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("build", FLOAT_SETTINGS.values(), ids=FLOAT_SETTINGS)
def test_float_settings_must_be_finite(build, value):
    with pytest.raises(ParameterError, match="must be a finite number"):
        build(value)


def test_parse_grid_config_round_trip():
    doc = {
        "datasets": [{"name": "g", "kind": "synthetic", "pi": 0.4}],
        "methods": ["upu_ss", "upu_cc"],
        "c_values": [0.2, 0.8],
        "seeds": [0, 1, 2],
        "trainer": {"epochs": 7, "eta": 0.05},
        "n": 300,
        "hidden_dims": [16, 16],
        "activation": "tanh",
        "out": "r.csv",
    }
    spec = parse_grid_config(doc)
    assert spec.datasets[0].pi == 0.4
    assert spec.methods == ["upu_ss", "upu_cc"]
    assert spec.trainer.epochs == 7
    assert spec.trainer.eta == 0.05
    assert spec.hidden_dims == [16, 16]


def test_parse_grid_config_rejects_unknown_keys():
    with pytest.raises(FormatError):
        parse_grid_config({"datasets": [{"name": "g"}], "learning_rate": 0.1})
    with pytest.raises(FormatError):
        parse_grid_config({})
    with pytest.raises(FormatError):
        parse_grid_config({"datasets": [{"name": "g", "rows": 5}]})
    with pytest.raises(FormatError):
        parse_grid_config({"datasets": [{"name": "g"}], "trainer": {"lr": 0.1}})


@pytest.mark.parametrize(
    "key, value, axis", [("method", "upu_ss", "methods"), ("seed", 3, "seeds")]
)
def test_parse_grid_config_rejects_trainer_fields_each_cell_sets(key, value, axis):
    # run_cell sets both in every cell, so a value here would be ignored
    doc = {"datasets": [{"name": "g"}], "trainer": {key: value}}
    with pytest.raises(FormatError, match=f"trainer.{key} .* the grid's '{axis}' list"):
        parse_grid_config(doc)


def test_parse_grid_config_resolves_relative_paths():
    doc = {"datasets": [{"name": "d", "kind": "csv", "path": "data.csv"}]}
    spec = parse_grid_config(doc, base_dir="/some/where")
    assert spec.datasets[0].path == os.path.join("/some/where", "data.csv")
    doc = {"datasets": [{"name": "d", "kind": "csv", "path": "/abs/data.csv"}]}
    spec = parse_grid_config(doc, base_dir="/some/where")
    assert spec.datasets[0].path == "/abs/data.csv"


@pytest.mark.parametrize("doc", [[{"name": "g"}], "grid", 3, None])
def test_a_grid_config_that_is_not_an_object_is_a_format_error(tmp_path, doc):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(doc))
    with pytest.raises(FormatError) as err:
        load_grid_config(cfg)
    assert str(err.value) == (
        f"{cfg}: grid config must be a JSON object, got {type(doc).__name__}"
    )


def test_load_grid_config_from_file(tmp_path):
    cfg = tmp_path / "grid.json"
    cfg.write_text(
        json.dumps({"datasets": [{"name": "d", "kind": "csv", "path": "rows.csv"}]})
    )
    spec = load_grid_config(cfg)
    assert spec.datasets[0].path == str(tmp_path / "rows.csv")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(FormatError):
        load_grid_config(bad)


@pytest.mark.parametrize(
    "doc",
    [
        {"datasets": 3},
        {"datasets": [5]},
        {"datasets": [{"name": "g"}], "c_values": ["a"]},
        {"datasets": [{"name": "g", "pi": "a"}]},
        {"datasets": [{"name": "g"}], "seeds": 3},
        {"datasets": [{"name": "g"}], "seeds": ["x"]},
        {"datasets": [{"name": "g"}], "seeds": [0.5]},
        {"datasets": [{"name": "g"}], "hidden_dims": "32"},
        {"datasets": [{"name": "g"}], "activation": "sigmoid"},
        {"datasets": [{"name": 3}]},
        {"datasets": [{"name": "g", "sd": True}]},
        {"datasets": [{"name": "g"}], "out": 5},
        {"datasets": [{"name": "g"}], "trainer": {"eta": True}},
        {"datasets": [{"name": "g"}], "trainer": {"seed": 1.5}},
        {"datasets": [{"name": "g", "sd": 0}]},
        {"datasets": [{"name": "g", "dim": 0}]},
        {"datasets": [{"name": "g"}], "trainer": {"beta": float("nan")}},
        {"datasets": [{"name": "g", "mu_pos": float("inf")}]},
    ],
    ids=[
        "datasets-int",
        "dataset-entry-int",
        "c-value-str",
        "pi-str",
        "seeds-int",
        "seed-str",
        "seed-float",
        "hidden-dims-str",
        "activation-unknown",
        "dataset-name-int",
        "sd-bool",
        "out-int",
        "eta-bool",
        "trainer-seed-float",
        "sd-zero",
        "dim-zero",
        "beta-nan",
        "mu-pos-infinity",
    ],
)
def test_load_grid_config_rejects_mistyped_values(tmp_path, doc):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=re.escape(str(cfg))):
        load_grid_config(cfg)


# one cell, one epoch: small enough to run if a mistyped value slips through
ONE_CELL_GRID = {
    "datasets": [{"name": "g"}],
    "scenarios": ["ss"],
    "methods": ["nnpu_ss"],
    "c_values": [0.5],
    "seeds": [0],
    "n": 50,
    "hidden_dims": [4],
    "trainer": {"epochs": 1, "batch_size": 10},
}


@pytest.mark.parametrize(
    "where,value",
    [
        (("n",), 50.0),
        (("datasets", 0, "dim"), 1.5),
        (("datasets", 0, "mu_pos"), "a"),
        (("c_values",), [True]),
        (("trainer", "epochs"), 1.5),
        (("trainer", "batch_size"), True),
    ],
    ids=["n-float", "dim-float", "mu-pos-str", "c-value-bool", "epochs-float", "batch-size-bool"],
)
def test_cli_grid_refuses_mistyped_numbers_before_any_cell(tmp_path, capsys, where, value):
    doc = json.loads(json.dumps(ONE_CELL_GRID))
    *parents, key = where
    owner = doc
    for step in parents:
        owner = owner[step]
    owner[key] = value
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "r.csv"
    assert cli_dispatch(["grid", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    assert f"error: {cfg}: " in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# self checks


def test_self_checks_all_pass():
    checks = run_self_checks()
    assert len(checks) >= 6
    for name, ok, detail in checks:
        assert ok, f"self check failed: {name}: {detail}"


def test_self_checks_are_the_same_on_any_cpus(monkeypatch):
    runs = []
    for cpus in (1, 2, 3):
        _use_cpus(monkeypatch, cpus)
        runs.append(run_self_checks())
        assert _no_child_process()
    assert len(runs[0]) == 10
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


def test_a_worker_that_dies_during_check_is_an_error(monkeypatch, capsys):
    _use_cpus(monkeypatch, 2)
    parent = os.getpid()

    def dies_in_a_worker(*args):
        if os.getpid() != parent:
            os._exit(1)
        return corrupt(*args)

    monkeypatch.setattr(harness, "corrupt", dies_in_a_worker)
    # the worker runs the even-numbered checks; the sixth is its first draw
    died = "a worker process died before self-check 6 of 10 finished"
    with pytest.raises(PuermError, match=f"^{died}$"):
        run_self_checks()
    assert _no_child_process()
    assert cli_dispatch(["check"]) == 1
    assert capsys.readouterr() == ("", f"error: {died}\n")
    assert _no_child_process()


def test_self_checks_hold_at_most_17_mib(one_cpu):
    # the 400,000-row pool, then one 200,000-row PU draw at a time
    _, peak = peak_traced_bytes(run_self_checks)
    assert peak <= 17 * 2**20


def test_self_checks_draw_no_features_for_the_sampler_pool(monkeypatch, one_cpu):
    # the proportions read only labels, so the 400,000-row pool draws no
    # Gaussian features; the other checks draw 26,275 normals in all
    drawn = []
    normal = Rng.normal

    def counting(self, n, *args, **kwargs):
        drawn.append(n)
        return normal(self, n, *args, **kwargs)

    monkeypatch.setattr(Rng, "normal", counting)
    assert all(ok for _, ok, _ in run_self_checks())
    assert sum(drawn) < 100_000


def test_self_check_sampler_lines_are_pinned():
    # single-sample rows are checked against pi (1 - c) / (1 - pi c) at
    # pi = 0.5, case-control rows against pi itself
    mix = [(name, detail) for name, _, detail in run_self_checks() if "mix" in name]
    assert mix == [
        ("single-sample unlabeled mix (c=0.1)", "fraction 0.47560 vs 0.47368 (3 sigma = 0.00344)"),
        ("case-control unlabeled mix (c=0.1)", "fraction 0.50035 vs 0.5 (3 sigma = 0.00345)"),
        ("single-sample unlabeled mix (c=0.5)", "fraction 0.33277 vs 0.33333 (3 sigma = 0.00366)"),
        ("case-control unlabeled mix (c=0.5)", "fraction 0.50198 vs 0.5 (3 sigma = 0.00411)"),
        ("single-sample unlabeled mix (c=0.9)", "fraction 0.09118 vs 0.09091 (3 sigma = 0.00260)"),
        ("case-control unlabeled mix (c=0.9)", "fraction 0.49808 vs 0.5 (3 sigma = 0.00787)"),
    ]


def test_self_check_gradient_sweep_equals_the_single_branch_sweeps(monkeypatch, one_cpu):
    built, compared = [], []

    def recording_objective(*args):
        built.append(args)
        return batch_objective(*args)

    def recording_check(model, objective, h):
        worst = grad_check(model, objective, h=h)
        x, s, pi, loss, branches = built[-1]
        singles = [
            grad_check(model, batch_objective(x, s, pi, loss, [branch]), h=h)
            for branch in branches
        ]
        compared.append((model.activation, worst, max(singles)))
        return worst

    monkeypatch.setattr(harness, "batch_objective", recording_objective)
    monkeypatch.setattr(harness, "grad_check", recording_check)
    details = {name: detail for name, _, detail in run_self_checks()}
    # one objective over every (mode, branch) pair, one sweep per activation
    assert len(built) == 1
    assert sorted(built[0][4]) == sorted(
        (mode, surrogate) for mode in SCENARIOS for surrogate in (False, True)
    )
    assert [activation for activation, *_ in compared] == ["tanh", "relu"]
    for activation, worst, single_max in compared:
        assert worst == single_max
        assert details[f"gradient check ({activation})"].startswith(
            f"max relative error {worst:.3e} "
        )


# ---------------------------------------------------------------------------
# command line


def test_cli_synth_and_sample_and_train(tmp_path, capsys):
    labeled = str(tmp_path / "labeled.csv")
    test_csv = str(tmp_path / "test.csv")
    assert cli_dispatch(
        ["synth", "--n", "300", "--pi", "0.5", "--seed", "1", "--out", labeled]
    ) == 0
    assert cli_dispatch(
        ["synth", "--n", "100", "--pi", "0.5", "--seed", "2", "--out", test_csv]
    ) == 0
    assert len(Path(labeled).read_text().splitlines()) == 301

    pu_csv = str(tmp_path / "pu.csv")
    assert cli_dispatch(
        [
            "sample",
            "--scenario",
            "ss",
            "--c",
            "0.5",
            "--in",
            labeled,
            "--out",
            pu_csv,
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "labeled" in out

    from puerm.datasets import load_pu_csv

    pu = load_pu_csv(pu_csv)
    assert pu.n == 300
    assert 0 < pu.n_labeled < 300

    trace = str(tmp_path / "trace.csv")
    model_path = str(tmp_path / "model.json")
    code = cli_dispatch(
        [
            "train",
            "--in",
            pu_csv,
            "--method",
            "nnpu_ss",
            "--epochs",
            "2",
            "--batch-size",
            "50",
            "--hidden",
            "8",
            "--activation",
            "tanh",
            "--test",
            test_csv,
            "--trace",
            trace,
            "--model-out",
            model_path,
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "test: accuracy=" in out
    assert os.path.exists(trace)
    assert os.path.exists(model_path)
    from puerm.trainer import load_trace

    assert len(load_trace(trace)) == 2


def test_cli_train_defaults_are_trainer_config_defaults():
    from dataclasses import asdict

    from puerm.cli import _build_parser

    args = _build_parser().parse_args(["train", "--in", "pu.csv"])
    assert {k: getattr(args, k) for k in asdict(TrainerConfig())} == asdict(
        TrainerConfig()
    )


def test_a_grid_without_hidden_layers_trains_the_linear_scorer(tmp_path, monkeypatch, one_cpu):
    # hidden_dims: [] is the linear scorer g(x) = w.x + b
    scored = []
    evaluate = harness.evaluate

    def recording_evaluate(model, test):
        scored.append((model, test.x))
        return evaluate(model, test)

    monkeypatch.setattr(harness, "evaluate", recording_evaluate)
    doc = {"datasets": [{"name": "g2", "dim": 2}], "hidden_dims": [], "c_values": [0.3, 0.7],
           "seeds": [0, 1], "n": 100, "trainer": {"epochs": 2, "batch_size": 50},
           "out": str(tmp_path / "r.csv")}
    results = run_grid(parse_grid_config(doc))
    assert len(results) == len(scored) == 16
    assert load_results(tmp_path / "r.csv") == (results, 0)
    for model, x in scored:
        assert model.layer_dims == [2, 1]
        (w,), (b,) = model.weights, model.biases
        assert forward(model, x).tobytes() == (np.dot(x, w.T) + b).ravel().tobytes()


def test_cli_train_with_an_empty_hidden_list_saves_a_linear_model(tmp_path):
    labeled, pu = str(tmp_path / "labeled.csv"), str(tmp_path / "pu.csv")
    cli_dispatch(["synth", "--n", "100", "--pi", "0.5", "--dim", "3", "--out", labeled])
    cli_dispatch(["sample", "--scenario", "ss", "--c", "0.5", "--in", labeled, "--out", pu])
    argv = ["train", "--in", pu, "--epochs", "1", "--hidden", "", "--model-out",
            str(tmp_path / "m.json")]
    assert cli_dispatch(argv) == 0
    assert load_model(tmp_path / "m.json").layer_dims == [3, 1]


def test_cli_sample_prints_scenario_name(tmp_path, capsys):
    labeled = str(tmp_path / "labeled.csv")
    cli_dispatch(["synth", "--n", "100", "--pi", "0.5", "--out", labeled])
    for scenario in ("ss", "cc"):
        out = str(tmp_path / f"pu_{scenario}.csv")
        capsys.readouterr()
        argv = ["sample", "--scenario", scenario, "--c", "0.5", "--in", labeled]
        assert cli_dispatch(argv + ["--out", out]) == 0
        assert f"[scenario={scenario}, c=0.5," in capsys.readouterr().out


def test_cli_sample_cc(tmp_path, capsys):
    labeled = str(tmp_path / "labeled.csv")
    cli_dispatch(["synth", "--n", "400", "--pi", "0.5", "--out", labeled])
    pu_csv = str(tmp_path / "pu_cc.csv")
    assert cli_dispatch(
        [
            "sample",
            "--scenario",
            "cc",
            "--c",
            "0.5",
            "--n",
            "200",
            "--in",
            labeled,
            "--out",
            pu_csv,
        ]
    ) == 0
    from puerm.datasets import SCENARIO_CC, load_pu_csv

    pu = load_pu_csv(pu_csv, scenario=SCENARIO_CC)
    assert pu.n == 200
    capsys.readouterr()


def test_cli_grid_and_report(tmp_path, capsys):
    results = str(tmp_path / "results.csv")
    code = cli_dispatch(
        [
            "grid",
            "--out",
            results,
            "--seeds",
            "0",
            "--c-values",
            "0.5",
            "--methods",
            "nnpu_ss",
            "--scenarios",
            "ss",
            "--epochs",
            "1",
            "--n",
            "200",
            "--quiet",
        ]
    )
    assert code == 0
    assert "1 new results" in capsys.readouterr().out
    # rerun: everything already present
    assert cli_dispatch(["grid", "--out", results, "--seeds", "0", "--c-values", "0.5", "--methods", "nnpu_ss", "--scenarios", "ss", "--epochs", "1", "--n", "200", "--quiet"]) == 0
    assert "0 new results" in capsys.readouterr().out

    assert cli_dispatch(["report", "--results", results, "--metric", "accuracy"]) == 0
    (r,), _ = load_results(results)
    out = capsys.readouterr().out
    assert out.startswith(_report_title("accuracy") + _REPORT_HEADER)
    row = ["ss", "gauss1d", "0.5", "nnpu", "1", f"{r.accuracy:.2f}", "0"]
    assert out.splitlines()[3].split() == row
    # the scenario filter is gone: the table shows both scenarios
    assert cli_dispatch(["report", "--results", results, "--scenario", "ss"]) == 2
    assert "unrecognized arguments: --scenario" in capsys.readouterr().err


def test_cli_grid_rejects_invalid_combination(tmp_path, capsys):
    code = cli_dispatch(
        [
            "grid",
            "--out",
            str(tmp_path / "r.csv"),
            "--c-values",
            "1.0",
            "--scenarios",
            "cc",
            "--quiet",
        ]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_cli_grid_validates_trainer_overrides(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert cli_dispatch(["grid", "--out", str(out), "--epochs", "-1", "--quiet"]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_cli_usage_errors(capsys):
    assert cli_dispatch([]) == 2
    assert cli_dispatch(["frobnicate"]) == 2
    assert cli_dispatch(["synth", "--n", "10", "--pi", "0.5", "--out", "x", "--bogus"]) == 2
    capsys.readouterr()


def test_cli_missing_input_file(tmp_path, capsys):
    code = cli_dispatch(["train", "--in", str(tmp_path / "missing.csv")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_cli_train_refuses_an_empty_test_set(tmp_path, capsys):
    labeled, pu_csv = str(tmp_path / "labeled.csv"), str(tmp_path / "pu.csv")
    assert cli_dispatch(["synth", "--n", "100", "--pi", "0.5", "--out", labeled]) == 0
    argv = ["sample", "--scenario", "ss", "--c", "0.5", "--in", labeled, "--out", pu_csv]
    assert cli_dispatch(argv) == 0
    empty = tmp_path / "empty.csv"
    empty.write_text("f0,y\n")
    trace = tmp_path / "trace.csv"
    capsys.readouterr()
    argv = ["train", "--in", pu_csv, "--test", str(empty), "--epochs", "2", "--trace", str(trace)]
    assert cli_dispatch(argv) == 1
    out, err = capsys.readouterr()
    assert "error: test set has no rows" in err
    assert "test: accuracy" not in out
    assert not trace.exists()


def test_cli_train_draws_weights_from_a_child_stream(tmp_path, capsys):
    # the weights take child stream 2 of the seed, as in a grid cell, so the
    # shuffles, drawn from the seed's own stream, do not reuse their uniforms
    labeled, pu_csv = str(tmp_path / "labeled.csv"), str(tmp_path / "pu.csv")
    assert cli_dispatch(["synth", "--n", "100", "--pi", "0.5", "--out", labeled]) == 0
    argv = ["sample", "--scenario", "ss", "--c", "0.5", "--in", labeled, "--out", pu_csv]
    assert cli_dispatch(argv) == 0
    model_out = tmp_path / "m.json"
    argv = ["train", "--in", pu_csv, "--epochs", "0", "--seed", "7", "--hidden", "4,4"]
    assert cli_dispatch(argv + ["--model-out", str(model_out)]) == 0
    capsys.readouterr()
    want = init([1, 4, 4, 1], "relu", Rng(7).child(2))
    assert np.array_equal(load_model(model_out).params, want.params)


@pytest.mark.parametrize("flag, value", [("--beta", "nan"), ("--eta", "inf")])
def test_cli_train_refuses_a_non_finite_setting(tmp_path, capsys, flag, value):
    path = tmp_path / "pu.csv"
    path.write_text("f0,y,s\n0.5,1,1\n-0.5,-1,-1\n")
    trace = tmp_path / "trace.csv"
    argv = ["train", "--in", str(path), "--epochs", "1", flag, value, "--trace", str(trace)]
    assert cli_dispatch(argv) == 1
    assert f"error: {flag[2:]} must be a finite number, got {value}" in capsys.readouterr().err
    assert not trace.exists()


@pytest.mark.parametrize(
    "n, flag, value, message",
    [
        ("0", "--sd", "nan", "sd must be > 0, got nan"),
        ("10", "--sd", "nan", "sd must be > 0, got nan"),
        ("10", "--sd", "inf", "sd must be finite, got inf"),
        ("10", "--mu-pos", "inf", "mu_pos must be finite, got inf"),
        ("10", "--mu-neg", "nan", "mu_neg must be finite, got nan"),
    ],
)
def test_cli_synth_refuses_a_non_finite_setting(tmp_path, capsys, n, flag, value, message):
    out = tmp_path / "x.csv"
    argv = ["synth", "--n", n, "--pi", "0.5", flag, value, "--out", str(out)]
    assert cli_dispatch(argv) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_train_names_an_empty_pu_file_without_pi(tmp_path, capsys):
    path = tmp_path / "e.csv"
    path.write_text("f0,y,s\n")
    assert cli_dispatch(["train", "--in", str(path)]) == 1
    assert f"error: {path}: no rows and no pi supplied" in capsys.readouterr().err


def test_cli_train_refuses_a_pu_file_with_no_rows(tmp_path, capsys):
    path = tmp_path / "e.csv"
    path.write_text("f0,y,s\n")
    assert cli_dispatch(["train", "--in", str(path), "--pi", "0.5"]) == 1
    assert capsys.readouterr().err == f"error: {path}: no rows to train on\n"


def test_cli_check_passes(capsys):
    assert cli_dispatch(["check"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "FAIL" not in out
