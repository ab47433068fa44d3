"""Benchmark harness: determinism, summary math, emission, CLI."""

import csv
import json
import math

import pytest

import irsplit as ir
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


@pytest.mark.parametrize("section, key", [
    ("problem", "densty"), ("solver", "epsilom"), ("run", "repetition")])
def test_misspelled_config_key_raises(tmp_path, section, key):
    """A key that nothing reads, such as a misspelled one, raises
    ``ValueError`` naming it instead of being ignored."""
    ini = tmp_path / "run.ini"
    ini.write_text(CONFIG_TEXT.replace(f"[{section}]\n",
                                       f"[{section}]\n{key} = 1\n"))
    with pytest.raises(ValueError, match=key):
        bench.run_one(cli._load_config(ini))


def test_cli_bad_config_stops_before_any_run(tmp_path, capsys, monkeypatch):
    """``run`` checks every config before the first solve: a misspelled key
    in the second config is named on stderr, without a traceback, the exit
    code is 2, nothing is solved and no output is written."""
    good, bad = tmp_path / "good.ini", tmp_path / "bad.ini"
    good.write_text(CONFIG_TEXT)
    bad.write_text(CONFIG_TEXT.replace("[problem]\n", "[problem]\ndensty = 1\n"))
    solved = []
    monkeypatch.setattr(bench, "_solve", lambda cfg, prob: solved.append(cfg))
    out = tmp_path / "out"
    code = cli.main(["run", "-c", str(good), "-c", str(bad), "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("irsplit-bench: ")
    assert "densty" in captured.err and "Traceback" not in captured.err
    assert solved == [] and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("line, replacement", [
    ("repetitions = 1\n", "repetitions = 2.7\n"),
    ("[run]\n", "[run]\nseed = 3.5\n"),
    ("m = 15\n", "m = 15.5\n"),
    ("seed = 3\n", "seed = true\n"),
    ("max_outer = 5000\n", "max_outer = 5e3\n"),
    ("[solver]\n", "[solver]\ninner_budget = 12.5\n"),
], ids=["repetitions", "run_seed", "m", "problem_seed", "max_outer",
        "inner_budget"])
def test_cli_non_integer_count_stops_before_any_run(tmp_path, capsys,
                                                    monkeypatch, line,
                                                    replacement):
    """A count or seed that is not an integer, a float or a bool, is named
    on stderr with exit code 2 before the first solve, instead of being
    truncated or failing every solve; nothing is written."""
    assert CONFIG_TEXT.count(line) == 1
    ini = tmp_path / "run.ini"
    ini.write_text(CONFIG_TEXT.replace(line, replacement))
    key = replacement.split("\n")[-2].split(" = ")[0]
    solved = []
    monkeypatch.setattr(bench, "_solve", lambda cfg, prob: solved.append(cfg))
    out = tmp_path / "out"
    code = cli.main(["run", "-c", str(ini), "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"irsplit-bench: {key} must be an integer")
    assert "Traceback" not in captured.err
    assert solved == [] and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("line, replacement, message", [
    ("m = 15\n", "m = 0\n", "m must be at least 1, got 0"),
    ("seed = 3\n", "seed = -1\n", "seed must be at least 0, got -1"),
    ("[run]\n", "[run]\nseed = -1\n", "seed must be at least 0, got -1"),
    ("sigma = 0.99\n", "sigma = 1.5\n", "0 <= sigma < 1 violated"),
    ("c = 1.0\n", "c = -1\n", "c > 0 violated"),
    ("name = admm_inertial\nsigma = 0.99\nc = 1.0\nepsilon = 1e-6\n",
     "name = fista\nsigma = 0.99\nc = 1.0\nepsilon = -1\n",
     "epsilon >= 0 violated"),
    ("name = admm_inertial\nsigma = 0.99\nc = 1.0\nepsilon = 1e-6\n"
     "max_outer = 5000\n",
     "name = fista\nsigma = 0.99\nc = 1.0\nepsilon = 1e-6\nmax_outer = -1\n",
     "max_outer >= 0 violated"),
    ("c = 1.0\n", "c = 1.0\nbeta = 0.3\nrho_bar = 1.0\n",
     "give beta or rho_bar, not both"),
    ("name = admm_inertial\n", "name = fista\neta = 2\n",
     "no solver reads option eta"),
    ("max_outer = 5000\n", "max_outer = -1\n", "max_outer >= 0 violated"),
    ("max_outer = 5000\n", "max_outer = 5000\ncriterion = bogus\n",
     "criterion must be max_form or sum_squares, got 'bogus'"),
    ("sigma = 0.99\n", "sigma = abc\n", "sigma must be a number, got 'abc'"),
    ("seed = 3\n", "seed = 3\ndensity = abc\n",
     "density must be a number, got 'abc'"),
    ("kind = synthetic_lasso\nm = 15\nn = 40\nseed = 3\n",
     "kind = lasso_csv\na = A.csv\nb = b.csv\nnu = 0.1\nskip_header = no\n",
     "skip_header must be true or false, got 'no'"),
    ("c = 1.0\n", "c = true\n", "c must be a number, got True"),
    ("m = 15\n", "", "problem kind 'synthetic_lasso' needs key m"),
    ("seed = 3\n", "seed = 3\ndensity = 0\n",
     "density must be in (0, 1], got 0"),
    ("seed = 3\n", "seed = 3\nnu_fraction = 0\n",
     "nu_fraction must be finite and above 0, got 0"),
    ("seed = 3\n", "seed = 3\nnoise = nan\n", "noise must be finite, got nan"),
    ("kind = synthetic_lasso\nm = 15\nn = 40\nseed = 3\n",
     "kind = lasso_csv\na = A.csv\nb = b.csv\nnu = 0\n",
     "nu must be finite and above 0, got 0"),
    ("kind = synthetic_lasso\nm = 15\nn = 40\nseed = 3\n",
     "kind = logistic_libsvm\npath = d.libsvm\nnu = inf\n",
     "nu must be finite and above 0, got inf"),
    ("kind = synthetic_lasso\nm = 15\nn = 40\n",
     "kind = synthetic_logistic\nq = 15\nn = 1\n",
     "n must be at least 2, got 1"),
], ids=["m", "problem_seed", "run_seed", "sigma", "c", "fista_epsilon",
        "fista_max_outer", "beta_and_rho_bar", "fista_eta_unread",
        "max_outer", "criterion", "sigma_text", "density_text",
        "skip_header_text", "c_bool", "m_absent", "density_range",
        "nu_fraction_range", "noise_nan", "csv_nu_range", "libsvm_nu_inf",
        "logistic_n"])
def test_cli_out_of_range_value_stops_before_any_run(tmp_path, capsys,
                                                     monkeypatch, line,
                                                     replacement, message):
    """A value of the wrong type, an absent key its problem kind needs, a
    count, seed or problem number out of its key's range, an option no
    solver reads, or an option the solver's own parameters reject, is named
    on stderr with exit code 2 before the first solve, instead of making
    every solve an error row or being read as another value; nothing is
    written."""
    assert CONFIG_TEXT.count(line) == 1
    ini = tmp_path / "run.ini"
    ini.write_text(CONFIG_TEXT.replace(line, replacement))
    solved = []
    monkeypatch.setattr(bench, "_solve", lambda cfg, prob: solved.append(cfg))
    out = tmp_path / "out"
    code = cli.main(["run", "-c", str(ini), "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == f"irsplit-bench: {message}\n"
    assert solved == [] and captured.out == ""
    assert not out.exists()


def test_rho_bar_config_checks_alpha_against_its_own_beta(tmp_path):
    """A config that gives rho_bar takes its inertia bound from it: alpha =
    0.3 with rho_bar = 1, whose bound is 1/3, runs, where the harness's
    default beta = 0.18976 would refuse it; rho_bar enters the run as
    given."""
    ini = tmp_path / "run.ini"
    ini.write_text(CONFIG_TEXT)
    assert cli.main(["run", "-c", str(ini), "--alpha", "0.3", "--rho-bar",
                     "1", "--out", str(tmp_path / "out")]) == 0
    core = bench._solver_params("admm_inertial",
                                {"alpha": 0.3, "rho_bar": 1.0}).core
    assert (core.alpha, core.beta, core.rho_lo, core.rho_hi) == (
        0.3, ir.beta_of_rho_bar(1.0), 1.0, 1.0)


@pytest.mark.parametrize("content, message", [
    ('{"schema_version": 0}', "unsupported schema version 0"),
    (None, "No such file"),
    ("{", "Expecting"),
    ('{"schema_version": 1}', "expected a 'records' list"),
    ("[1]", "expected a JSON object"),
    (json.dumps({"schema_version": 1, "records": [1]}),
     "record 0 is not an object"),
    (json.dumps({"schema_version": 1, "records": [
        dict.fromkeys(bench.CSV_COLUMNS, 1),
        dict.fromkeys(set(bench.CSV_COLUMNS) - {"inner"}, 1)]}),
     "record 1 is not an object with the keys problem, solver, outer, "
     "inner, seconds, kkt, objective, status"),
], ids=["schema", "missing", "not_json", "no_records", "not_object",
        "record_not_object", "record_without_inner"])
def test_cli_summarize_bad_file_exits_2(tmp_path, capsys, content, message):
    """``summarize`` treats a results file it cannot read, one of another
    schema version, one that is not an object holding a records list, or
    one with a record that is not an object holding every CSV column, as
    ``run`` and ``gen`` treat a bad input: the message on stderr, without
    a traceback, and exit code 2."""
    path = tmp_path / "bench.json"
    if content is not None:
        path.write_text(content)
    assert cli.main(["summarize", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("irsplit-bench: ")
    assert message in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("section, key, value", [
    ("options", "alpha", "0.1"), ("options", "max_outer", True),
    ("problem", "nu_fraction", None), ("problem", "seed", 3.0)])
def test_validate_names_a_value_of_the_wrong_type(section, key, value):
    """The Python API is held to the key's type as the INI loader is: text
    is not a number, a bool not a count, and a float not a seed."""
    cfg = tiny_lasso_config()
    getattr(cfg, section)[key] = value
    with pytest.raises(ValueError, match=f"^{key} must be "):
        cfg.validate()


def test_absent_problem_key_keeps_the_library_default():
    """A problem key left out is not passed to the builder, so the run
    solves the generator's default instance."""
    explicit = tiny_lasso_config()
    explicit.problem.update(density=1.0, noise=0.01, nu_fraction=0.1)
    assert (bench.run_one(explicit).row() | {"seconds": 0}
            == bench.run_one(tiny_lasso_config()).row() | {"seconds": 0})


def test_cli_gen_keeps_the_generator_defaults(tmp_path, capsys):
    """``gen`` passes only the flags it is given: an instance generated
    without the optional flags is the generator's default instance."""
    assert cli.main(["gen", "lasso", "--m", "6", "--n", "4",
                     "--out", str(tmp_path)]) == 0
    want = ir.synthetic_lasso(6, 4)
    assert f"(nu = {want.nu:.6g})" in capsys.readouterr().out
    back = ir.load_dense_csv(tmp_path / "lasso_A.csv",
                             tmp_path / "lasso_b.csv", nu=want.nu)
    columns = [(back.A.column(j), want.A.column(j)) for j in range(4)]
    assert all(got == pytest.approx(col) for got, col in columns)
    assert back.b == pytest.approx(want.b)


@pytest.mark.parametrize("flags, message", [
    (["lasso", "--m", "0", "--n", "3"], "m must be at least 1, got 0"),
    (["lasso", "--m", "4", "--n", "3", "--density", "0"],
     "density must be in (0, 1], got 0.0"),
    (["logistic", "--q", "4", "--n", "1"], "n must be at least 2, got 1"),
], ids=["m", "density", "logistic_n"])
def test_cli_gen_bad_flag_stops_before_writing(tmp_path, capsys, flags,
                                               message):
    """``gen`` reads its flags as ``run`` reads the same problem keys: a
    value out of its key's range is named on stderr, without a traceback,
    with exit code 2, and no file or directory is written."""
    out = tmp_path / "out"
    assert cli.main(["gen", *flags, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"irsplit-bench: {message}\n"
    assert captured.out == ""
    assert not out.exists()


LOGISTIC_TEXT = """\
[problem]
kind = synthetic_logistic
q = 50
n = 31
seed = 0

[solver]
name = {solver}
"""


@pytest.mark.parametrize("solver, counts", [
    ("admm_inertial", (88, 127)),
    ("fista", (434, 439)),
])
def test_cli_runs_a_synthetic_logistic_config(tmp_path, solver, counts):
    """The logistic branches of the harness: a synthetic logistic 50x31
    config converges with its pinned outer and inner counts."""
    ini = tmp_path / "run.ini"
    ini.write_text(LOGISTIC_TEXT.format(solver=solver))
    out = tmp_path / "out"
    assert cli.main(["run", "-c", str(ini), "--out", str(out)]) == 0
    (row,) = bench.read_json(out / "bench.json")["records"]
    assert row["problem"] == "logistic_q50_n31_s0"
    assert row["status"] == CONVERGED
    assert (row["outer"], row["inner"]) == counts


def test_cli_runs_a_libsvm_file_it_generated(tmp_path):
    """``gen logistic`` writes a file that a ``logistic_libsvm`` config
    reads back: the run converges with the counts of the synthetic
    problem."""
    assert cli.main(["gen", "logistic", "--q", "50", "--n", "31", "--seed",
                     "0", "--out", str(tmp_path)]) == 0
    path = tmp_path / "logistic.libsvm"
    nu = ir.synthetic_logistic(50, 31, seed=0).nu
    ini = tmp_path / "run.ini"
    ini.write_text(f"[problem]\nkind = logistic_libsvm\npath = {path}\n"
                   f"nu = {nu!r}\n")
    out = tmp_path / "out"
    assert cli.main(["run", "-c", str(ini), "--out", str(out)]) == 0
    (row,) = bench.read_json(out / "bench.json")["records"]
    assert row["problem"] == str(path)
    assert (row["status"], row["outer"], row["inner"]) == (CONVERGED, 88, 127)


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
