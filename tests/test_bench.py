"""Benchmark harness: determinism, summary math, emission, CLI."""

import csv
import json
import math
import statistics

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
    results = [bench.run_one(c) for c in (bad, tiny_lasso_config())]
    assert results[0].record.status == ERROR
    assert results[0].record.wall_seconds == 0.0  # no solve ran
    assert "error" in results[0].config
    assert results[1].record.status == CONVERGED


def test_repetitions_keep_counts():
    cfg = tiny_lasso_config()
    cfg.repetitions = 3
    r = bench.run_one(cfg)
    base = bench.run_one(tiny_lasso_config())
    assert r.record.outer_iters == base.record.outer_iters
    assert r.record.wall_seconds >= 0.0


@pytest.mark.parametrize("repetitions, seconds", [(1, 9.0), (4, 2.5)])
def test_seconds_are_the_records_own_loop_times(monkeypatch, repetitions,
                                                 seconds):
    """A record's seconds are the solver's own: with one repetition the
    warm-up record's as it is, with more the median of the repeated
    records' ``wall_seconds``, the warm-up's left out."""
    times = iter([9.0, 4.0, 1.0, 2.0, 3.0])
    monkeypatch.setattr(bench, "_solve", lambda cfg, prob: ir.RunRecord(
        5, 7, next(times), 0.0, 0.0))
    cfg = tiny_lasso_config()
    cfg.repetitions = repetitions
    record = bench.run_one(cfg).record
    assert (record.wall_seconds, record.outer_iters) == (seconds, 5)


def test_published_outer_iteration_means_reproduce_ratio():
    # the published geometric means of the three solvers' outer iterations
    ratio = (statistics.geometric_mean([399.85])
             / statistics.geometric_mean([761.02]))
    assert abs(ratio - 0.525) <= 1e-3


def test_summarize_rows_and_ratios():
    """The ratio pairs the two solvers on each problem both converged on:
    a problem only one solver ran, or one whose pair has a failed run, is
    left out of it, and a solver's geometric means leave its failed runs
    out."""
    results = [bench.run_one(tiny_lasso_config("admm_plain")),
               bench.run_one(tiny_lasso_config("admm_inertial"))]
    record = ir.RunRecord(5, 7, 1.0, 0.0, 0.0)
    results += [
        bench.BenchResult("unpaired", "admm_plain", record, {}),
        bench.BenchResult("failed", "admm_plain", record, {}),
        bench.BenchResult("failed", "admm_inertial", ir.RunRecord(
            5, 7, 1.0, 0.0, 0.0, status="budget_exceeded"), {})]
    summary = bench.summarize(results)
    assert summary["solvers"] == ["admm_inertial", "admm_plain"]
    assert len(summary["rows"]) == 5
    assert summary["geometric_mean"]["admm_inertial"]["outer"] == \
        pytest.approx(results[1].record.outer_iters, rel=1e-12)
    ratio = summary["ratio"]
    assert ratio["pair"] == ["admm_plain", "admm_inertial"]
    assert list(ratio["per_problem"]) == [results[0].problem]
    per = next(iter(ratio["per_problem"].values()))
    assert per["outer"] > 0.0
    with pytest.raises(ValueError):
        bench.summarize([])


def test_summarize_lists_solvers_in_solvers_order():
    """Solvers are listed as ``SOLVERS`` lists them, other names after,
    sorted; the ratio is the first present over the second, whatever the
    order of the results, and a name ``SOLVERS`` does not know is never
    one side of it."""
    record = ir.RunRecord(6, 9, 1.0, 0.0, 0.0)
    names = ["zeta", "fista", "alpha", "admm_plain"]
    summary = bench.summarize([bench.BenchResult("p", name, record, {})
                               for name in names])
    assert summary["solvers"] == ["admm_plain", "fista", "alpha", "zeta"]
    assert summary["ratio"]["pair"] == ["fista", "admm_plain"]
    alone = bench.summarize([bench.BenchResult("p", name, record, {})
                             for name in ("zeta", "admm_inertial")])
    assert alone["solvers"] == ["admm_inertial", "zeta"]
    assert "ratio" not in alone


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
    csv_path, _ = bench.emit([], None, tmp_path)
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
    """``run`` on an inertial and a plain config prints the table and the
    ratio of the two solvers; ``summarize`` of its file prints the same,
    and with ``--out`` writes the CSV and JSON files again."""
    cfg, plain = tmp_path / "run.ini", tmp_path / "plain.ini"
    cfg.write_text(CONFIG_TEXT)
    plain.write_text(CONFIG_TEXT.replace("name = admm_inertial",
                                         "name = admm_plain"))
    out = tmp_path / "out"
    code = cli.main(["run", "-c", str(cfg), "-c", str(plain),
                     "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "geometric mean" in captured
    assert "ratio admm_inertial / admm_plain: outer " in captured
    json_path = out / "bench.json"
    assert json_path.exists()
    again = tmp_path / "again"
    code = cli.main(["summarize", str(json_path), "--out", str(again)])
    assert code == 0
    table = captured.split("\nwrote ")[0]
    assert capsys.readouterr().out.rstrip("\n") == table
    records = bench.read_json(json_path)["records"]
    assert bench.read_json(again / "bench.json")["records"] == records
    assert ((again / "bench.csv").read_text()
            == (out / "bench.csv").read_text())


PAPER_TEXT = """\
[problem]
kind = synthetic_lasso
m = 100
n = 300
seed = 0

[solver]
name = {solver}
"""


def test_cli_ratio_is_the_method_over_its_baseline(tmp_path, capsys):
    """On the paper's LASSO size the printed ratio is the inertial-relaxed
    ADMM's counts over the plain one's, 71/87 outer and 125/127 inner,
    although the plain config comes first."""
    inis = []
    for solver in ("admm_plain", "admm_inertial"):
        inis += ["-c", str(tmp_path / f"{solver}.ini")]
        (tmp_path / f"{solver}.ini").write_text(PAPER_TEXT.format(
            solver=solver))
    assert cli.main(["run", *inis, "--out", str(tmp_path / "out")]) == 0
    assert ("ratio admm_inertial / admm_plain: outer 0.816  inner 0.984  "
            in capsys.readouterr().out)
    ratio = bench.read_json(tmp_path / "out" / "bench.json")["summary"]["ratio"]
    per = ratio["per_problem"]["lasso_m100_n300_s0"]
    assert (per["outer"], per["inner"]) == (71 / 87, 125 / 127)


@pytest.mark.parametrize("loose", ["admm_plain", "admm_inertial"])
def test_cli_zero_iteration_run_leaves_the_ratio_nan(tmp_path, capsys, loose):
    """A run that converges at outer iteration 0 has no positive counts, so
    a ratio with it on either side is NaN in the printed line and the file,
    not a failed geometric mean that loses the batch; ``run`` exits 0."""
    inis = []
    for solver in ("admm_inertial", "admm_plain"):
        text = CONFIG_TEXT.replace("m = 15\nn = 40\nseed = 3\n",
                                   "m = 20\nn = 50\nseed = 0\n")
        if solver == loose:
            text = text.replace("epsilon = 1e-6", "epsilon = 10.0")
        text = text.replace("name = admm_inertial", f"name = {solver}")
        (tmp_path / f"{solver}.ini").write_text(text)
        inis += ["-c", str(tmp_path / f"{solver}.ini")]
    out = tmp_path / "out"
    assert cli.main(["run", *inis, "--out", str(out)]) == 0
    assert ("ratio admm_inertial / admm_plain: outer nan  inner nan  "
            in capsys.readouterr().out)
    summary = bench.read_json(out / "bench.json")["summary"]
    loose_row = next(row for row in summary["rows"] if row["solver"] == loose)
    assert (loose_row["outer"], loose_row["inner"]) == (0, 0)
    assert math.isnan(summary["ratio"]["geometric_mean"]["outer"])


def test_cli_flag_overrides(tmp_path, monkeypatch):
    """Flags override the config's values, and without ``--out`` the files
    go to $IRSPLIT_OUT_DIR.  ``--seed`` sets the problem's seed: the row is
    the seed-4 instance's, under its label."""
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG_TEXT)
    out = tmp_path / "out"
    monkeypatch.setenv("IRSPLIT_OUT_DIR", str(out))
    code = cli.main(["run", "-c", str(cfg), "--solver", "admm_plain",
                     "--sigma", "0.9", "--seed", "4", "--repetitions", "2"])
    assert code == 0
    payload = bench.read_json(out / "bench.json")
    assert payload["configs"][0]["solver"] == "admm_plain"
    assert payload["configs"][0]["options"]["sigma"] == 0.9
    assert (payload["configs"][0]["problem"]["seed"],
            payload["configs"][0]["repetitions"]) == (4, 2)
    (row,) = payload["records"]
    want = bench.run_one(tiny_lasso_config("admm_plain", seed=4, sigma=0.9))
    assert row["problem"] == want.problem == "lasso_m15_n40_s4"
    assert (row["outer"], row["inner"]) == (want.record.outer_iters,
                                            want.record.inner_iters_total)


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


def test_cli_numeric_name_round_trips(tmp_path, capsys):
    """``[run] name = 2024`` stays the text "2024": ``run`` writes it as
    the record's problem, and ``summarize`` reads the file back."""
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG_TEXT + "name = 2024\n")
    out = tmp_path / "out"
    assert cli.main(["run", "-c", str(cfg), "--out", str(out)]) == 0
    json_path = out / "bench.json"
    (row,) = bench.read_json(json_path)["records"]
    assert row["problem"] == "2024"
    assert cli.main(["summarize", str(json_path)]) == 0
    assert "2024" in capsys.readouterr().out


def test_cli_reads_a_numeric_path_as_a_path(tmp_path, monkeypatch):
    """A ``lasso_csv`` config whose A file is named 2024 reads ``a`` as
    that path, not as the number 2024."""
    prob = ir.synthetic_lasso(15, 40, seed=3)
    ir.problems.save_dense_csv(prob, tmp_path / "2024", tmp_path / "b.csv")
    ini = tmp_path / "run.ini"
    ini.write_text(f"[problem]\nkind = lasso_csv\na = 2024\nb = b.csv\n"
                   f"nu = {prob.nu!r}\n")
    monkeypatch.chdir(tmp_path)
    cfg = cli._load_config(ini)
    assert cfg.problem["a"] == "2024"
    result = bench.run_one(cfg)
    assert "error" not in result.config
    assert (result.problem, result.record.status) == ("2024", CONVERGED)


def test_cli_reads_a_percent_sign_as_written(tmp_path, capsys,
                                             monkeypatch):
    """A ``lasso_csv`` config whose A file is named ``50%.csv`` reads
    ``a`` as that path: a ``%`` starts no interpolation."""
    prob = ir.synthetic_lasso(15, 40, seed=3)
    ir.problems.save_dense_csv(prob, tmp_path / "50%.csv", tmp_path / "b.csv")
    ini = tmp_path / "run.ini"
    ini.write_text(f"[problem]\nkind = lasso_csv\na = 50%.csv\nb = b.csv\n"
                   f"nu = {prob.nu!r}\n")
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", "-c", str(ini), "--out", "out"]) == 0
    assert capsys.readouterr().err == ""
    (row,) = bench.read_json(tmp_path / "out" / "bench.json")["records"]
    assert (row["problem"], row["status"]) == ("50%.csv", CONVERGED)


@pytest.mark.parametrize("solver", ["", "[solver]\nname = admm_inertial\n"],
                         ids=["problem_only", "with_solver"])
def test_cli_refuses_a_default_section(tmp_path, capsys, monkeypatch, solver):
    """A ``[DEFAULT]`` section lends its keys to no other section, so its
    meaning cannot depend on which sections the file has: it is a section
    that nothing reads, refused on stderr with exit code 2 whether or not
    a ``[solver]`` follows, and nothing is solved or written."""
    ini = tmp_path / "run.ini"
    ini.write_text("[DEFAULT]\nseed = 3\n\n[problem]\nkind = synthetic_lasso"
                   "\nm = 15\nn = 40\n\n" + solver)
    solved = []
    monkeypatch.setattr(bench, "_solve", lambda cfg, prob: solved.append(cfg))
    out = tmp_path / "out"
    assert cli.main(["run", "-c", str(ini), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "irsplit-bench: nothing reads section [DEFAULT]\n"
    assert solved == [] and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("template, label", [
    ("[problem]\nkind = synthetic_lasso\nm = 15\nn = 40\nseed = {}\n\n"
     "[run]\nname = same\n", "same"),
    ("[problem]\nkind = lasso_csv\na = A.csv\nb = b.csv\nnu = 0.{}\n",
     "A.csv"),
], ids=["one_name", "one_file"])
def test_cli_run_refuses_two_configs_of_one_problem_and_solver(
        tmp_path, capsys, monkeypatch, template, label):
    """Two configs whose rows would share a problem label and a solver,
    by one ``[run] name`` over two seeds or by one A file at two ``nu``,
    are refused before the first solve: the ratio pairs rows by that
    label and solver, so it would keep only the last pair."""
    inis = []
    for i in (1, 2):
        ini = tmp_path / f"run{i}.ini"
        ini.write_text(template.format(i))
        inis += ["-c", str(ini)]
    solved = []
    monkeypatch.setattr(bench, "_solve", lambda cfg, prob: solved.append(cfg))
    out = tmp_path / "out"
    assert cli.main(["run", *inis, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"irsplit-bench: two rows of problem {label!r} "
                            f"with solver 'admm_inertial'\n")
    assert solved == [] and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("section, key", [
    ("problem", "densty"), ("solver", "epsilom"), ("run", "repetition"),
    ("run", "seed")])
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
    in the second config, or a second config it cannot read, is named on
    stderr, without a traceback, the exit code is 2, nothing is solved and
    no output is written."""
    good, bad = tmp_path / "good.ini", tmp_path / "bad.ini"
    good.write_text(CONFIG_TEXT)
    bad.write_text(CONFIG_TEXT.replace("[problem]\n", "[problem]\ndensty = 1\n"))
    missing = tmp_path / "missing.ini"
    solved = []
    monkeypatch.setattr(bench, "_solve", lambda cfg, prob: solved.append(cfg))
    out = tmp_path / "out"
    for second, message in ((bad, "densty"),
                            (missing, f"cannot read config {missing}")):
        code = cli.main(["run", "-c", str(good), "-c", str(second),
                         "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("irsplit-bench: ")
        assert message in captured.err and "Traceback" not in captured.err
        assert solved == [] and captured.out == ""
        assert not out.exists()


@pytest.mark.parametrize("old, new", [
    ("[solver]", "[sovler]"), ("[run]", "[Run]"), ("[run]", "[extra]\n[run]")],
    ids=["sovler", "Run", "extra"])
def test_cli_unread_section_stops_before_any_run(tmp_path, capsys,
                                                  monkeypatch, old, new):
    """A section that nothing reads, such as a misspelled ``[solver]``
    whose name and options would be dropped, is named on stderr with exit
    code 2: nothing is solved and nothing is written."""
    ini = tmp_path / "run.ini"
    ini.write_text(CONFIG_TEXT.replace(old, new))
    solved = []
    monkeypatch.setattr(bench, "_solve", lambda cfg, prob: solved.append(cfg))
    out = tmp_path / "out"
    assert cli.main(["run", "-c", str(ini), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    section = new.split("\n")[0]
    assert captured.err == f"irsplit-bench: nothing reads section {section}\n"
    assert solved == [] and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("line, replacement", [
    ("repetitions = 1\n", "repetitions = 2.7\n"),
    ("m = 15\n", "m = 15.5\n"),
    ("seed = 3\n", "seed = true\n"),
    ("max_outer = 5000\n", "max_outer = 5e3\n"),
    ("[solver]\n", "[solver]\ninner_budget = 12.5\n"),
], ids=["repetitions", "m", "problem_seed", "max_outer", "inner_budget"])
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
    ("name = admm_inertial\n", "name = bogus\n", "unknown solver 'bogus'"),
    ("kind = synthetic_lasso\n", "kind = bogus\n",
     "unknown problem kind 'bogus'"),
], ids=["m", "problem_seed", "sigma", "c", "fista_epsilon",
        "fista_max_outer", "beta_and_rho_bar", "fista_eta_unread",
        "max_outer", "criterion", "sigma_text", "density_text",
        "skip_header_text", "c_bool", "m_absent", "density_range",
        "nu_fraction_range", "noise_nan", "csv_nu_range", "libsvm_nu_inf",
        "logistic_n", "solver_name", "kind"])
def test_cli_out_of_range_value_stops_before_any_run(tmp_path, capsys,
                                                     monkeypatch, line,
                                                     replacement, message):
    """An unknown solver or problem kind, a value of the wrong type, an
    absent key its problem kind needs, a count, seed or problem number out
    of its key's range, an option no solver reads, or an option the
    solver's own parameters reject, is named on stderr with exit code 2
    before the first solve, instead of making every solve an error row or
    being read as another value; nothing is written."""
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


@pytest.mark.parametrize("line, flags", [
    ("nu = 0.1\n", ["--seed", "4"]), ("nu = 0.1\nseed = 4\n", [])],
    ids=["flag", "problem_key"])
def test_cli_seed_of_a_file_problem_stops_before_any_run(tmp_path, capsys,
                                                         monkeypatch, line,
                                                         flags):
    """``--seed`` sets the problem's seed, so a file problem, which reads
    none, refuses it as it refuses ``[problem] seed``: the message on
    stderr, exit code 2, nothing solved and nothing written."""
    ini = tmp_path / "run.ini"
    ini.write_text(f"[problem]\nkind = lasso_csv\na = A.csv\nb = b.csv\n{line}")
    solved = []
    monkeypatch.setattr(bench, "_solve", lambda cfg, prob: solved.append(cfg))
    out = tmp_path / "out"
    assert cli.main(["run", "-c", str(ini), *flags, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("irsplit-bench: problem kind 'lasso_csv' reads "
                            "no key seed\n")
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


GOOD_ROW = {"problem": "p", "solver": "admm_inertial", "outer": 3,
            "inner": 4, "seconds": 0.5, "kkt": 1e-7, "objective": 1.0,
            "status": "converged"}


def results_file(records, **rest):
    """The text of a current-schema results file with these records."""
    return json.dumps({"schema_version": 1, "records": records, **rest})


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
    (results_file([dict(GOOD_ROW, outer="x")]),
     "record 0: outer must be an integer, got 'x'"),
    (results_file([GOOD_ROW, dict(GOOD_ROW, status="bogus")]),
     "record 1: status must be converged or budget_exceeded or error, "
     "got bogus"),
    (results_file([dict(GOOD_ROW, kkt="x")]),
     "record 0: kkt must be a number, got 'x'"),
    (results_file([dict(GOOD_ROW, problem=None)]),
     "record 0: problem must be text, got None"),
    (results_file([dict(GOOD_ROW, seconds=-0.5)]),
     "record 0: seconds must be at least 0, got -0.5"),
    (results_file([dict(GOOD_ROW, outer=True)]),
     "record 0: outer must be an integer, got True"),
    (results_file([dict(GOOD_ROW, inner=False)]),
     "record 0: inner must be an integer, got False"),
    (results_file([dict(GOOD_ROW, kkt=True)]),
     "record 0: kkt must be a number, got True"),
    (results_file([dict(GOOD_ROW, seconds=math.nan)]),
     "record 0: seconds must be at least 0, got nan"),
    (results_file([GOOD_ROW], configs=5),
     "expected a 'configs' list of one object per record"),
    (results_file([GOOD_ROW, GOOD_ROW], configs=[{}]),
     "expected a 'configs' list of one object per record"),
    (results_file([]), "expected a 'records' list of one or more records"),
    (results_file([GOOD_ROW, dict(GOOD_ROW, solver="admm_plain"),
                   dict(GOOD_ROW, outer=5)]),
     "two rows of problem 'p' with solver 'admm_inertial'\n"),
], ids=["schema", "missing", "not_json", "no_records", "not_object",
        "record_not_object", "record_without_inner", "outer_text",
        "status_bogus", "kkt_text", "problem_null", "seconds_negative",
        "outer_bool", "inner_bool", "kkt_bool", "seconds_nan", "configs_int",
        "configs_short", "records_empty", "pair_repeated"])
def test_cli_summarize_bad_file_exits_2(tmp_path, capsys, content, message):
    """``summarize`` treats a results file it cannot read, one of another
    schema version, one that is not an object holding a non-empty records
    list, one with a record that is not an object holding every CSV column
    with values of their types and ranges (a bool is not a count or a
    number, and NaN seconds are not at least 0), one whose configs are not
    one object per record, or one with two records of one problem and
    solver, whose ratio would keep only the last pair, as ``run`` and
    ``gen`` treat a bad input: the message on stderr, without a traceback,
    and exit code 2."""
    path = tmp_path / "bench.json"
    if content is not None:
        path.write_text(content)
    assert cli.main(["summarize", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("irsplit-bench: ")
    assert message in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["run", "gen", "summarize"])
def test_cli_out_naming_a_file_exits_2(tmp_path, capsys, command):
    """An ``--out`` that names an existing file cannot be written: each
    command names the OS error on stderr, without a traceback, and exits
    2; the file is left as it was."""
    out = tmp_path / "taken"
    out.write_text("kept\n")
    ini, results = tmp_path / "run.ini", tmp_path / "bench.json"
    ini.write_text(CONFIG_TEXT)
    results.write_text(results_file([GOOD_ROW]))
    argv = {"run": ["run", "-c", str(ini)],
            "gen": ["gen", "lasso", "--m", "4", "--n", "3"],
            "summarize": ["summarize", str(results)]}[command]
    assert cli.main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("irsplit-bench: ") and err.count("\n") == 1
    assert "File exists" in err and str(out) in err
    assert out.read_text() == "kept\n"


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


def test_validate_names_a_name_that_is_not_text():
    """A row name is text: a number, which ``emit`` would write as the
    record's problem and ``read_json`` then refuse, is refused here."""
    cfg = tiny_lasso_config()
    cfg.name = 2024
    with pytest.raises(ValueError, match="^name must be text, got 2024$"):
        cfg.validate()


def test_validate_returns_the_run_it_checked():
    """``validate`` returns the bound builder, the solver's parameters and
    the row label, whose seed is the bound one or, when none is given, the
    generator's default."""
    build, params, label = tiny_lasso_config(sigma=0.9).validate()
    assert build().b.tolist() == ir.synthetic_lasso(15, 40, seed=3).b.tolist()
    assert (params.core.sigma, params.max_outer, label) == (
        0.9, 5000, "lasso_m15_n40_s3")
    unseeded = tiny_lasso_config("fista")
    del unseeded.problem["seed"]
    _, params, label = unseeded.validate()
    assert (type(params), label) == (ir.FistaConfig, "lasso_m15_n40_s0")


def test_absent_problem_key_keeps_the_library_default():
    """A problem key left out is not passed to the builder, so the run
    solves the generator's default instance."""
    explicit = tiny_lasso_config()
    explicit.problem.update(density=1.0, noise=0.01, nu_fraction=0.1)
    assert (bench.run_one(explicit).row() | {"seconds": 0}
            == bench.run_one(tiny_lasso_config()).row() | {"seconds": 0})


def test_instances_that_differ_in_one_key_are_two_problems(tmp_path):
    """A synthetic label names each key given off the generator's default,
    so two densities of one size and seed are two problems in ``summarize``,
    each with its own ratio: 51/85 outer at the default density, 626/1249
    at 0.3."""
    inis = []
    for density in ("1.0", "0.3"):
        for solver in ("admm_inertial", "admm_plain"):
            ini = tmp_path / f"{solver}_{density}.ini"
            ini.write_text(CONFIG_TEXT.replace(
                "seed = 3", f"density = {density}\nseed = 3").replace(
                "name = admm_inertial", f"name = {solver}"))
            inis += ["-c", str(ini)]
    out, again = tmp_path / "out", tmp_path / "again"
    assert cli.main(["run", *inis, "--out", str(out)]) == 0
    assert cli.main(["summarize", str(out / "bench.json"),
                     "--out", str(again)]) == 0
    summary = bench.read_json(again / "bench.json")["summary"]
    problems = ["lasso_m15_n40_s3", "lasso_m15_n40_density0.3_s3"]
    assert summary["problems"] == problems
    per = summary["ratio"]["per_problem"]
    assert [per[p]["outer"] for p in problems] == [51 / 85, 626 / 1249]


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


def test_cli_gen_names_a_draw_with_a_zero_a_t_b(tmp_path, capsys):
    """A ``gen lasso`` draw with no entry, 5 x 5 at density 0.01, exits 2
    with the generator's own message, and writes nothing."""
    out = tmp_path / "out"
    assert cli.main(["gen", "lasso", "--m", "5", "--n", "5", "--density",
                     "0.01", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("irsplit-bench: the draw gave A^T b = 0 at "
                            "density 0.01 and size 5 x 5, so nu would be 0\n")
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
