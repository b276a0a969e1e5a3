"""Tests for the grid runner, results persistence, reports, and the CLI."""

import json
import os
import re

import numpy as np
import pytest

from puerm import harness
from puerm.cli import cli_dispatch
from puerm.datasets import gaussian_mixture, load_csv, save_csv
from puerm.errors import FormatError, ParameterError, PuermError
from puerm.harness import (
    RESULTS_COLUMNS,
    RESULTS_TAG,
    DatasetSource,
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
)
from puerm.numerics import Rng
from puerm.trainer import TrainerConfig, load_trace


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


def test_cell_seed_frozen_golden():
    assert cell_seed(3, "gauss1d", "ss", "nnpu_cc", 0.9) == 2047044823737653029


def test_cell_seed_sensitive_to_every_coordinate():
    base = cell_seed(3, "gauss1d", "ss", "nnpu_cc", 0.9)
    assert cell_seed(4, "gauss1d", "ss", "nnpu_cc", 0.9) != base
    assert cell_seed(3, "other", "ss", "nnpu_cc", 0.9) != base
    assert cell_seed(3, "gauss1d", "cc", "nnpu_cc", 0.9) != base
    assert cell_seed(3, "gauss1d", "ss", "nnpu_ss", 0.9) != base
    assert cell_seed(3, "gauss1d", "ss", "nnpu_cc", 0.1) != base


def test_cell_seed_in_64_bit_range():
    for seed in range(5):
        v = cell_seed(seed, "d", "ss", "upu_ss", 0.5)
        assert 0 <= v < 2**64


# ---------------------------------------------------------------------------
# spec validation


def test_dataset_source_validation():
    with pytest.raises(ParameterError):
        DatasetSource(name="x", kind="parquet")
    with pytest.raises(ParameterError):
        DatasetSource(name="x", kind="csv")  # csv needs a path
    assert DatasetSource(name="x", kind="synthetic").pi == 0.5


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
    result = run_cell(source, "ss", "nnpu_ss", 0.5, 0, spec)
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
    a = run_cell(source, "cc", "nnpu_cc", 0.7, 1, spec)
    b = run_cell(source, "cc", "nnpu_cc", 0.7, 1, spec)
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
    lines = open(spec.out).read().splitlines()
    assert lines[0] == RESULTS_TAG
    assert lines[1] == ",".join(RESULTS_COLUMNS)
    assert len(lines) == 2 + 16


def test_run_grid_rerun_is_byte_identical(tmp_path):
    spec_a = _tiny_spec(tmp_path, out=str(tmp_path / "a.csv"))
    spec_b = _tiny_spec(tmp_path, out=str(tmp_path / "b.csv"))
    run_grid(spec_a)
    run_grid(spec_b)
    assert open(spec_a.out, "rb").read() == open(spec_b.out, "rb").read()


def _csv_grid(tmp_path, path, **overrides):
    """A 4-cell grid (one scenario, two methods, two c values) over one CSV source."""
    source = DatasetSource(name="rows", kind="csv", path=str(path), pi=0.5)
    return _tiny_spec(tmp_path, datasets=[source], scenarios=["ss"], seeds=[0], **overrides)


def test_run_grid_loads_a_csv_source_once(tmp_path, monkeypatch):
    path = tmp_path / "rows.csv"
    save_csv(gaussian_mixture(200, 0.5, rng=Rng(3)), path)
    loads = []

    def counting_load_csv(p):
        loads.append(p)
        return load_csv(p)

    monkeypatch.setattr(harness, "load_csv", counting_load_csv)
    spec = _csv_grid(tmp_path, path)
    assert len(run_grid(spec)) == 4
    assert loads == [str(path)]

    # the same cells as four one-cell runs, each loading the file itself
    per_cell = str(tmp_path / "per_cell.csv")
    for _, _, method, c, _ in iter_cells(spec):
        run_grid(_csv_grid(tmp_path, path, methods=[method], c_values=[c], out=per_cell))
    assert len(loads) == 1 + 4
    assert open(per_cell, "rb").read() == open(spec.out, "rb").read()


def test_run_grid_unreadable_csv_source_fails_every_cell(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("f0,y\n0.5,1\noops,1\n")
    assert run_grid(_csv_grid(tmp_path, path)) == []
    loaded, n_errors = load_results(tmp_path / "results.csv")
    assert (loaded, n_errors) == ([], 4)
    text = open(tmp_path / "results.csv").read()
    assert text.count(f"{path}: line 3: non-numeric value 'oops' in column f0") == 4


def test_run_grid_empty_test_split_fails_every_cell(tmp_path):
    # 40 rows at test_fraction 0.01 round to 40 training rows and no test rows
    path = tmp_path / "rows.csv"
    save_csv(gaussian_mixture(40, 0.5, rng=Rng(3)), path)
    assert run_grid(_csv_grid(tmp_path, path, n=20, test_fraction=0.01)) == []
    loaded, n_errors = load_results(tmp_path / "results.csv")
    assert (loaded, n_errors) == ([], 4)
    text = open(tmp_path / "results.csv").read()
    assert text.count("gives 40 training and 0 test rows") == 4


def test_run_grid_resumes_without_duplicates(tmp_path):
    spec = _tiny_spec(tmp_path)
    run_grid(spec)
    full = open(spec.out).read()
    lines = full.splitlines(keepends=True)
    # simulate an interrupted run missing the last three cells
    open(spec.out, "w").write("".join(lines[:-3]))
    new = run_grid(spec)
    assert len(new) == 3
    assert open(spec.out).read() == full
    # a second rerun adds nothing
    assert run_grid(spec) == []
    assert open(spec.out).read() == full


def test_run_grid_resumes_after_a_torn_last_row(tmp_path):
    spec = _tiny_spec(tmp_path)
    run_grid(spec)
    full = open(spec.out, "rb").read()
    # a crash while writing the last row leaves its first half, no newline
    last_row = full.rstrip(b"\n").rfind(b"\n") + 1
    open(spec.out, "wb").write(full[: (last_row + len(full)) // 2])
    with pytest.raises(FormatError):
        load_results(spec.out)
    new = run_grid(spec)
    assert len(new) == 1
    assert open(spec.out, "rb").read() == full


@pytest.mark.parametrize("keep", [0, 5, len(RESULTS_TAG) + 1, len(RESULTS_TAG) + 8])
def test_run_grid_restarts_a_torn_tag_or_header(tmp_path, keep):
    small = dict(c_values=[0.3], seeds=[0])
    spec = _tiny_spec(tmp_path, **small)
    reference = _tiny_spec(tmp_path, **small, out=str(tmp_path / "ref.csv"))
    run_grid(reference)
    full = open(reference.out, "rb").read()
    open(spec.out, "wb").write(full[:keep])
    run_grid(spec)
    assert open(spec.out, "rb").read() == full


def test_run_grid_leaves_a_foreign_file_alone(tmp_path):
    spec = _tiny_spec(tmp_path)
    open(spec.out, "w").write("not,a,results,file")
    with pytest.raises(FormatError):
        run_grid(spec)
    assert open(spec.out).read() == "not,a,results,file"


def test_run_grid_writes_error_marker_and_continues(tmp_path):
    # at n=50 and pi=0.5 a label frequency of 0.999 rounds the labeled
    # component up to the whole budget, which the sampler rejects; the
    # grid must record that and keep going
    spec = _tiny_spec(
        tmp_path,
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
    rows = open(spec.out).read().splitlines()[2:]
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
    rows = open(spec.out).read().splitlines()[2:]
    assert [row.split(",")[4] for row in rows] == ["0", "1", "0"]
    assert ",error: " in rows[0]
    assert "error" not in rows[1] + rows[2]
    loaded, n_errors = load_results(spec.out)
    assert sorted(r.seed for r in loaded) == [0, 1]
    assert n_errors == 1
    emit_report(spec.out, metric="f1", scenario="ss")
    assert "1 error rows skipped" in capsys.readouterr().err
    # a done cell is never run again, so a third run appends nothing
    before = open(spec.out, "rb").read()
    assert run_grid(spec) == []
    assert open(spec.out, "rb").read() == before


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


def test_results_file_header_is_pinned(tmp_path):
    # the columns come from ExperimentResult's field names; renaming a field
    # must not silently change the file format
    header = "dataset,scenario,method,c,seed,accuracy,precision,recall,f1,trace_path"
    assert ",".join(RESULTS_COLUMNS) == header
    spec = _tiny_spec(tmp_path, scenarios=["ss"], methods=["nnpu_ss"], seeds=[0])
    run_grid(spec)
    assert open(spec.out).read().splitlines()[:2] == [RESULTS_TAG, header]


_RESULTS_PREAMBLE = RESULTS_TAG + "\n" + ",".join(RESULTS_COLUMNS) + "\n"
_GOOD_RESULT = "g,ss,nnpu_ss,0.5,0,90.0,80.0,70.0,75.0,\n"
_TRACE_HEADER = "epoch,r_label,r_dist,r_corr,objective,truncation_fraction,test_accuracy\n"


@pytest.mark.parametrize(
    "loader, text, line",
    [
        (load_results, _RESULTS_PREAMBLE + "g,ss,nnpu_ss,0.5,0,abc,0,0,0,\n", 3),
        (load_results, _RESULTS_PREAMBLE + "g,ss,nnpu_ss,0.5,0,101.0,0,0,0,\n", 3),
        (load_results, _RESULTS_PREAMBLE + _GOOD_RESULT + "g,ss,nnpu_ss,0.5,x,1,1,1,1,\n", 4),
        (load_trace, _TRACE_HEADER + "x,0.1,0.2,0.3,0.05,0.25,\n", 2),
        (load_trace, _TRACE_HEADER + "0,0.1,0.2,0.3,0.05,0.25,\n1,0.1,?,0.3,0.05,0.25,\n", 3),
    ],
    ids=["results-text", "results-range", "results-seed", "trace-epoch", "trace-float"],
)
def test_malformed_files_name_the_file_and_line(tmp_path, loader, text, line):
    p = tmp_path / "file.csv"
    p.write_text(text)
    with pytest.raises(FormatError, match=re.escape(f"{p}: line {line}:")):
        loader(p)


# ---------------------------------------------------------------------------
# reports


def _write_results(path, rows):
    with open(path, "w") as fh:
        fh.write(RESULTS_TAG + "\n")
        fh.write(",".join(RESULTS_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def test_emit_report_means_and_difference_row(tmp_path):
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
    text = emit_report(p, metric="accuracy", scenario="ss")
    assert "c = 0.5" in text
    lines = {ln.split()[0]: ln.split()[1] for ln in text.splitlines() if ln and " " in ln and not ln.startswith(("accuracy", "="))}
    assert lines["nnpu_ss"] == "91.00"
    assert lines["nnpu_cc"] == "81.00"
    # the difference row equals the printed means' difference
    assert float(lines["delta_nnpu"]) == pytest.approx(
        float(lines["nnpu_ss"]) - float(lines["nnpu_cc"]), abs=0.005
    )
    assert lines["delta_nnpu"] == "10.00"


def test_emit_report_blank_cells_warn(tmp_path, capsys):
    p = tmp_path / "r.csv"
    _write_results(
        p,
        [
            ["d1", "ss", "nnpu_ss", "0.5", "0", "90.0", "0", "0", "90.0", ""],
            ["d1", "ss", "nnpu_cc", "0.5", "0", "80.0", "0", "0", "80.0", ""],
            ["d2", "ss", "nnpu_ss", "0.5", "0", "88.0", "0", "0", "88.0", ""],
        ],
    )
    text = emit_report(p, metric="f1", scenario="ss")
    err = capsys.readouterr().err
    assert "warning: no results for d2/nnpu_cc" in err
    assert "warning: no results for d2/delta_nnpu" in err
    # d1 column still fully populated
    assert "10.00" in text


def test_emit_report_empty_scenario_warns(tmp_path, capsys):
    p = tmp_path / "r.csv"
    _write_results(p, [])
    text = emit_report(p, metric="f1", scenario="cc")
    assert "scenario cc" in text
    assert "warning: no results" in capsys.readouterr().err


def test_emit_report_counts_error_rows(tmp_path, capsys):
    p = tmp_path / "r.csv"
    _write_results(
        p,
        [
            ["g", "ss", "nnpu_ss", "0.5", "0", "90.0", "0", "0", "90.0", ""],
            ["g", "ss", "nnpu_ss", "0.5", "1", "", "", "", "", "error: boom"],
        ],
    )
    emit_report(p, metric="f1", scenario="ss")
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

_REPORT_SS_F1 = """\
f1 (percent), scenario ss, mean over seeds
==========================================

c = 0.3
method            d1        d2
nnpu_cc        85.00     60.00
nnpu_ss        90.50     70.25
upu_cc         86.50{blank}
upu_ss         88.00     65.00
delta_nnpu      5.50     10.25
delta_upu       1.50{blank}

c = 0.9
method            d1        d2
nnpu_cc        50.00     40.00
nnpu_ss        95.00     80.00
upu_cc         55.00     45.00
upu_ss         93.00     78.00
delta_nnpu     45.00     40.00
delta_upu      38.00     33.00
""".format(blank=" " * 10)  # a missing cell prints as blank padding

_REPORT_CC_ACCURACY = """\
accuracy (percent), scenario cc, mean over seeds
================================================

c = 0.3
method            d1        d2
nnpu_cc        89.00     75.00
nnpu_ss        84.00     77.00
delta_nnpu      5.00     -2.00
"""


@pytest.mark.parametrize(
    "metric, scenario, text, warnings",
    [
        (
            "f1",
            "ss",
            _REPORT_SS_F1,
            [
                "1 error rows skipped",
                "no results for d2/upu_cc/c=0.3",
                "no results for d2/delta_upu/c=0.3",
            ],
        ),
        ("accuracy", "cc", _REPORT_CC_ACCURACY, ["1 error rows skipped"]),
    ],
    ids=["ss-f1", "cc-accuracy"],
)
def test_emit_report_text_is_pinned(tmp_path, capsys, metric, scenario, text, warnings):
    # two datasets, all four methods, one missing cell (d2/upu_cc at c=0.3)
    # and one error row; the table text and the stderr lines are exact
    p = tmp_path / "r.csv"
    p.write_text(_RESULTS_PREAMBLE + _REPORT_ROWS)
    assert emit_report(p, metric=metric, scenario=scenario) == text
    assert capsys.readouterr().err == "".join(f"warning: {w}\n" for w in warnings)


def test_emit_report_validates_arguments(tmp_path):
    p = tmp_path / "r.csv"
    _write_results(p, [])
    with pytest.raises(ParameterError):
        emit_report(p, metric="auc")
    with pytest.raises(ParameterError):
        emit_report(p, scenario="pn")


# ---------------------------------------------------------------------------
# grid config files


def test_parse_grid_config_round_trip():
    doc = {
        "datasets": [{"name": "g", "kind": "synthetic", "pi": 0.4}],
        "methods": ["upu_ss", "upu_cc"],
        "c_values": [0.2, 0.8],
        "seeds": [0, 1, 2],
        "trainer": {"method": "upu_ss", "epochs": 7, "eta": 0.05},
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


def test_parse_grid_config_resolves_relative_paths():
    doc = {"datasets": [{"name": "d", "kind": "csv", "path": "data.csv"}]}
    spec = parse_grid_config(doc, base_dir="/some/where")
    assert spec.datasets[0].path == os.path.join("/some/where", "data.csv")
    doc = {"datasets": [{"name": "d", "kind": "csv", "path": "/abs/data.csv"}]}
    spec = parse_grid_config(doc, base_dir="/some/where")
    assert spec.datasets[0].path == "/abs/data.csv"


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
    assert len(open(labeled).read().splitlines()) == 301

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
    out = capsys.readouterr().out
    assert "accuracy (percent), scenario ss" in out
    assert "nnpu_ss" in out


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


def test_cli_train_names_an_empty_pu_file_without_pi(tmp_path, capsys):
    path = tmp_path / "e.csv"
    path.write_text("f0,y,s\n")
    assert cli_dispatch(["train", "--in", str(path)]) == 1
    assert f"error: {path}: no rows and no pi supplied" in capsys.readouterr().err


def test_cli_check_passes(capsys):
    assert cli_dispatch(["check"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "FAIL" not in out
