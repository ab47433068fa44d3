"""Benchmark harness: determinism, summary math, emission, CLI."""

import csv
import json
import math

import pytest

import irsplit.bench as bench
import irsplit.cli as cli
from irsplit.records import CONVERGED, ERROR


def tiny_lasso_config(solver="admm_inertial", seed=3, **options):
    opts = {"sigma": 0.99, "c": 1.0, "epsilon": 1e-6, "max_outer": 5000}
    opts.update(options)
    return bench.RunConfig(
        problem={"kind": "synthetic_lasso", "m": 15, "n": 40, "seed": seed},
        solver=solver,
        options=opts,
    )


def test_run_one_deterministic_counts():
    r1 = bench.run_one(tiny_lasso_config())
    r2 = bench.run_one(tiny_lasso_config())
    assert r1.record.status == CONVERGED
    assert r1.record.outer_iters == r2.record.outer_iters
    assert r1.record.inner_iters_total == r2.record.inner_iters_total
    assert r1.record.final_kkt == r2.record.final_kkt
    assert abs(r1.record.final_objective - r2.record.final_objective) <= 1e-15


def test_run_one_bad_path_becomes_error_row():
    bad = bench.RunConfig(problem={"kind": "lasso_csv", "a": "missing_a.csv",
                                   "b": "missing_b.csv", "nu": 1.0},
                          solver="fista")
    results = bench.run_benchmark([bad, tiny_lasso_config()])
    assert results[0].record.status == ERROR
    assert "error" in results[0].config
    assert results[1].record.status == CONVERGED


def test_repetitions_keep_counts():
    cfg = tiny_lasso_config()
    cfg.repetitions = 3
    r = bench.run_one(cfg)
    base = bench.run_one(tiny_lasso_config())
    assert r.record.outer_iters == base.record.outer_iters
    assert r.record.wall_seconds >= 0.0


def test_geometric_mean_basics():
    assert bench.geometric_mean([7.5]) == pytest.approx(7.5)
    assert bench.geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        bench.geometric_mean([])
    with pytest.raises(ValueError):
        bench.geometric_mean([1.0, 0.0])


def test_published_outer_iteration_means_reproduce_ratio():
    # the published geometric means of the three solvers' outer iterations
    ratio = bench.geometric_mean([399.85]) / bench.geometric_mean([761.02])
    assert abs(ratio - 0.525) <= 1e-3


def test_summarize_rows_and_ratios():
    results = [bench.run_one(tiny_lasso_config("admm_plain")),
               bench.run_one(tiny_lasso_config("admm_inertial"))]
    summary = bench.summarize(results)
    assert summary["solvers"] == ["admm_inertial", "admm_plain"]
    assert len(summary["rows"]) == 2
    ratio = summary["ratio"]
    assert ratio["pair"] == ["admm_inertial", "admm_plain"]
    per = next(iter(ratio["per_problem"].values()))
    assert per["outer"] > 0.0
    with pytest.raises(ValueError):
        bench.summarize([])


def test_emit_round_trip(tmp_path):
    results = [bench.run_one(tiny_lasso_config("fista"))]
    summary = bench.summarize(results)
    csv_path, json_path = bench.emit(results, summary, tmp_path)
    payload = bench.read_json(json_path)
    assert payload["records"] == [r.row() for r in results]
    assert payload["summary"]["rows"] == summary["rows"]
    with open(csv_path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == list(bench.CSV_COLUMNS)
    assert len(rows) == 2


def test_emit_empty_records_header_only(tmp_path):
    csv_path, _ = bench.emit([], None, tmp_path, basename="empty")
    with open(csv_path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows == [list(bench.CSV_COLUMNS)]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

CONFIG_TEXT = """\
[problem]
kind = synthetic_lasso
m = 15
n = 40
seed = 3

[solver]
name = admm_inertial
sigma = 0.99
c = 1.0
epsilon = 1e-6
max_outer = 5000

[run]
repetitions = 1
"""


def test_cli_run_and_summarize(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG_TEXT)
    out = tmp_path / "out"
    code = cli.main(["run", "-c", str(cfg), "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "geometric mean" in captured
    json_path = out / "bench.json"
    assert json_path.exists()
    code = cli.main(["summarize", str(json_path)])
    assert code == 0


def test_cli_flag_overrides(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG_TEXT)
    out = tmp_path / "out"
    code = cli.main(["run", "-c", str(cfg), "--solver", "admm_plain",
                     "--sigma", "0.9", "--out", str(out),
                     "--basename", "plain"])
    assert code == 0
    payload = bench.read_json(out / "plain.json")
    assert payload["configs"][0]["solver"] == "admm_plain"
    assert payload["configs"][0]["options"]["sigma"] == 0.9


def test_cli_gen_round_trips(tmp_path):
    code = cli.main(["gen", "lasso", "--m", "6", "--n", "4", "--seed", "2",
                     "--out", str(tmp_path), "--prefix", "toy"])
    assert code == 0
    import irsplit.problems as problems
    prob = problems.load_dense_csv(tmp_path / "toy_A.csv",
                                   tmp_path / "toy_b.csv", nu=1.0)
    assert prob.A.shape == (6, 4)
    code = cli.main(["gen", "logistic", "--q", "5", "--n", "4", "--seed", "2",
                     "--out", str(tmp_path), "--prefix", "toylog"])
    assert code == 0
    back = problems.load_libsvm(tmp_path / "toylog.libsvm", nu=1.0)
    assert back.features.shape[0] == 5


def test_cli_exit_code_on_failure(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG_TEXT.replace("max_outer = 5000", "max_outer = 3"))
    code = cli.main(["run", "-c", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1


STALLING_TEXT = """\
[problem]
kind = synthetic_lasso
m = 20
n = 50
seed = 7

[solver]
name = admm_plain
sigma = 0.0
inner_budget = 30

[run]
repetitions = {repetitions}
"""


@pytest.mark.parametrize("repetitions", [1, 2])
def test_returned_failure_keeps_its_cause(tmp_path, repetitions):
    """A returned failure becomes a row as a raised one does: with sigma =
    0 the iterative CG of admm_plain never lands within 30 trials, so the
    run stalls; the row is ``budget_exceeded`` and its config's ``error``
    is the record's cause, which names the inner budget, also when the
    record is rebuilt for repetitions.  ``run`` exits 1 on it."""
    ini = tmp_path / "run.ini"
    ini.write_text(STALLING_TEXT.format(repetitions=repetitions))
    result = bench.run_one(cli._load_config(ini))
    assert result.record.status == "budget_exceeded"
    assert "inner budget" in result.record.cause
    assert result.config["error"] == result.record.cause
    assert cli.main(["run", "-c", str(ini), "--out", str(tmp_path / "o")]) == 1
