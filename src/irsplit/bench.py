"""Benchmark harness: seeded runs, summary tables, CSV/JSON emission.

A run configuration names exactly one problem source (synthetic or files),
one solver (inertial-relaxed ADMM, its plain alpha = 0 / rho = 1
configuration, or the proximal-gradient baseline) and the solver options.
Counts are deterministic per seed.  A record's seconds are its solver's
own loop time, with repetitions the median of those of the repeated
solves, after one discarded warm-up solve.
"""

from __future__ import annotations

import csv
import dataclasses
import enum
import functools
import inspect
import json
import math
import numbers
import os
import statistics
from dataclasses import asdict, dataclass, field
from typing import NamedTuple, Optional, Sequence

from .admm import ADMMParams, Criterion, run_admm
from .hpp import InertiaRelaxParams, beta_of_rho_bar
from .records import BUDGET_EXCEEDED, CONVERGED, ERROR, RunRecord
from .subsolvers import FistaConfig, fista_solve
from . import problems as _problems

__all__ = [
    "SCHEMA_VERSION",
    "SOLVERS",
    "RunConfig",
    "BenchResult",
    "run_one",
    "summarize",
    "emit",
    "read_json",
]

SCHEMA_VERSION = 1
# the method first, its baselines after: ``summarize`` lists solvers in this
# order and divides the first present by the second
SOLVERS = ("admm_inertial", "admm_plain", "fista")


class _Key(NamedTuple):
    """A config key: its type (int, float, bool, str for text, or an
    enum whose values it names), the range a value must lie in, as its
    text and its test, and an option's default where the harness chooses
    one."""

    type: type
    bound: Optional[tuple] = None
    default: object = None

    def read(self, key, value):
        """``value`` as the key's type, or ``ValueError`` naming ``key``: a
        number takes no text or bool, a bool only True or False, and a
        value outside the key's range is refused."""
        if isinstance(self.type, enum.EnumMeta):
            choices = sorted(member.value for member in self.type)
            valid, wanted = value in choices, " or ".join(choices)
        else:
            wanted, classes = _TYPES[self.type]
            valid = (isinstance(value, classes)
                     and isinstance(value, bool) == (self.type is bool))
        if not valid:
            raise ValueError(f"{key} must be {wanted}, got {value!r}")
        if self.bound is not None and not self.bound[1](value):
            raise ValueError(f"{key} must be {self.bound[0]}, got {value}")
        return self.type(value)


_TYPES = {int: ("an integer", numbers.Integral),
          float: ("a number", numbers.Real), bool: ("true or false", bool),
          str: ("text", (str, os.PathLike))}


def _at_least(least: int) -> _Key:
    return _Key(int, (f"at least {least}", lambda v: v >= least))


_COUNT, _SEED, _NUMBER, _TEXT = (_at_least(1), _at_least(0), _Key(float),
                                 _Key(str))
_POSITIVE = _Key(float, ("finite and above 0", lambda v: 0 < v < math.inf))
_FRACTION = _Key(float, ("in (0, 1]", lambda v: 0 < v <= 1))
_FINITE = _Key(float, ("finite", math.isfinite))
_STATUSES = (CONVERGED, BUDGET_EXCEEDED, ERROR)
# a row: the problem, the solver and RunRecord's fields in order, but its
# cause, each with the key that reads it from a results file
_COLUMNS = {"problem": _TEXT, "solver": _TEXT, "outer": _SEED, "inner": _SEED,
            "seconds": _Key(float, ("at least 0", lambda v: v >= 0)),
            "kkt": _NUMBER, "objective": _NUMBER, "status": _Key(
                str, (" or ".join(_STATUSES), lambda v: v in _STATUSES))}
CSV_COLUMNS = tuple(_COLUMNS)

# each problem kind: its builder, the keys it takes in order, which a config
# must give, and the keys it takes by name, which keep the builder's default
# when absent
_PROBLEMS = {
    "synthetic_lasso": (_problems.synthetic_lasso, {"m": _COUNT, "n": _COUNT},
                        {"density": _FRACTION, "noise": _FINITE,
                         "nu_fraction": _POSITIVE, "seed": _SEED}),
    "synthetic_logistic": (_problems.synthetic_logistic,
                           {"q": _COUNT, "n": _at_least(2)},
                           {"nu_fraction": _POSITIVE, "seed": _SEED}),
    "lasso_csv": (_problems.load_dense_csv,
                  {"a": _TEXT, "b": _TEXT, "nu": _POSITIVE},
                  {"skip_header": _Key(bool)}),
    "logistic_libsvm": (_problems.load_libsvm,
                        {"path": _TEXT, "nu": _POSITIVE}, {}),
}

# each solver family's options and the harness's own defaults (the published
# alpha, beta and sigma, the penalty c and the outer budgets); an option
# with none keeps the library's default when absent.  One options dict may
# serve every solver, as with the command line's --solver.  A given rho_bar
# replaces the default beta by beta_of_rho_bar(rho_bar).
_ADMM_OPTIONS = {
    "sigma": _Key(float, default=0.99), "c": _Key(float, default=1.0),
    "epsilon": _NUMBER, "criterion": _Key(Criterion),
    "max_outer": _Key(int, default=20_000), "inner_budget": _Key(int),
    "alpha": _Key(float, default=0.18966),
    "beta": _Key(float, default=0.18976), "rho_bar": _NUMBER,
}
_FISTA_OPTIONS = {"epsilon": _NUMBER, "max_outer": _Key(int, default=200_000)}


@dataclass
class RunConfig:
    """One benchmark run: problem source (with its seed), solver name,
    solver options, repetitions and row name, read only by ``validate``."""

    problem: dict
    solver: str
    options: dict = field(default_factory=dict)
    repetitions: int = 1
    name: Optional[str] = None

    def validate(self):
        """The run, ``(build, params, label)``: the bound problem builder,
        the solver's parameters and the name, else the problem's label.
        Reject an unknown solver or problem kind, a problem key its kind
        does not read or an absent one it needs, an option no solver reads,
        a value not of its key's type (a name is text) or out of its key's
        range, or an option the solver's own parameters reject."""
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}")
        build = _problem_builder(self.problem)
        _COUNT.read("repetitions", self.repetitions)
        name = None if self.name is None else _TEXT.read("name", self.name)
        options = {**_FISTA_OPTIONS, **_ADMM_OPTIONS}
        unread = self.options.keys() - options.keys()
        if unread:
            raise ValueError(f"no solver reads option "
                             f"{', '.join(sorted(unread))}")
        params = _solver_params(self.solver, {
            key: options[key].read(key, value)
            for key, value in self.options.items()})
        return build, params, name or _label(build)


@dataclass
class BenchResult:
    problem: str
    solver: str
    record: RunRecord
    config: dict

    def row(self) -> dict:
        return dict(zip(CSV_COLUMNS, (self.problem, self.solver,
                                      *dataclasses.astuple(self.record))))


def _result(row: dict, config: dict) -> BenchResult:
    """The result whose ``row()`` is ``row``, with ``config``: each column
    read by its key in ``_COLUMNS``, else ``ValueError`` naming it."""
    problem, solver, *fields = (key.read(column, row[column])
                                for column, key in _COLUMNS.items())
    return BenchResult(problem, solver, RunRecord(*fields), config)


def _problem_builder(spec: dict) -> functools.partial:
    """The builder of the kind ``spec`` names, bound to its keys, each read
    as its type and range; ``ValueError`` on an unknown kind, a key it does
    not read, an absent one it needs or a bad value."""
    kind = spec.get("kind")
    if kind not in _PROBLEMS:
        raise ValueError(f"unknown problem kind {kind!r}")
    build, needed, named = _PROBLEMS[kind]
    unread = spec.keys() - {"kind", *needed, *named}
    if unread:
        raise ValueError(f"problem kind {kind!r} reads no key "
                         f"{', '.join(sorted(unread))}")
    absent = needed.keys() - spec.keys()
    if absent:
        raise ValueError(f"problem kind {kind!r} needs key "
                         f"{', '.join(sorted(absent))}")
    args = [needed[k].read(k, spec[k]) for k in needed]
    kwargs = {k: named[k].read(k, spec[k]) for k in named if k in spec}
    return functools.partial(build, *args, **kwargs)


def _label(build: functools.partial) -> str:
    """A synthetic instance's sizes, keys off their default and seed, as
    ``lasso_m15_n40_density0.3_s3``, else the file the problem reads."""
    seed = inspect.signature(build).parameters.get("seed")
    if seed is None:
        return build.args[0]
    defaults = inspect.signature(build.func).parameters
    keys = [*zip(defaults, build.args),
            *((k, v) for k, v in build.keywords.items()
              if k != "seed" and v != defaults[k].default)]
    return (build.func.__name__.removeprefix("synthetic_")
            + "".join(f"_{k}{v}" for k, v in keys) + f"_s{seed.default}")


def _solver_params(solver: str, options: dict):
    """The solver's ``ADMMParams`` or ``FistaConfig`` from the read options
    its family reads, with the harness's defaults where it has them."""
    table = _FISTA_OPTIONS if solver == "fista" else _ADMM_OPTIONS
    opts = {k: key.default for k, key in table.items()
            if key.default is not None}
    opts.update((k, v) for k, v in options.items() if k in table)
    if solver == "fista":
        return FistaConfig(**opts)
    if {"beta", "rho_bar"} <= options.keys():
        raise ValueError("give beta or rho_bar, not both")
    sigma, alpha, beta = opts.pop("sigma"), opts.pop("alpha"), opts.pop("beta")
    rho = opts.pop("rho_bar", None)
    if solver == "admm_plain":
        core = InertiaRelaxParams.plain(sigma)
    elif rho is None:
        core = InertiaRelaxParams.from_beta(alpha, beta, sigma)
    else:
        core = InertiaRelaxParams(alpha, beta_of_rho_bar(rho), sigma, rho, rho)
    return ADMMParams(core=core, **opts)


def _solve(params, prob) -> RunRecord:
    if isinstance(params, FistaConfig):
        return fista_solve(prob, params).record
    if isinstance(prob, _problems.LassoProblem):
        admm_prob = _problems.lasso_admm_problem(prob, params.c)
    else:
        admm_prob = _problems.logistic_admm_problem(prob, params.c)
    return run_admm(admm_prob, params).record


def run_one(cfg: RunConfig) -> BenchResult:
    """Execute one configuration; a failure's cause is ``config["error"]``."""
    build, params, label = cfg.validate()
    try:
        prob = build()
        record = _solve(params, prob)
        if cfg.repetitions > 1:
            # first (warm-up) solve discarded; counts are deterministic
            runs = [_solve(params, prob) for _ in range(cfg.repetitions)]
            seconds = statistics.median(r.wall_seconds for r in runs)
            record = dataclasses.replace(runs[-1], wall_seconds=seconds)
        error = record.cause
    except Exception as exc:  # noqa: BLE001 - batch must continue
        record = RunRecord(0, 0, 0.0, math.inf, math.nan, ERROR)
        error = f"{type(exc).__name__}: {exc}"
    result = BenchResult(label, cfg.solver, record, asdict(cfg))
    if error:
        result.config["error"] = error
    return result


# ---------------------------------------------------------------------------
# Summary math
# ---------------------------------------------------------------------------

def _positive_mean(values) -> float:
    """The geometric mean of the positive values, NaN when there are none."""
    vals = [v for v in values if v > 0]
    return statistics.geometric_mean(vals) if vals else math.nan


def _check_pairs(pairs) -> None:
    """``ValueError`` naming the first (problem, solver) pair repeated in
    ``pairs``: the ratio pairs rows by it, so it must name one row."""
    seen = set()
    for pair in pairs:
        if pair in seen:
            raise ValueError("two rows of problem %r with solver %r" % pair)
        seen.add(pair)


def summarize(results: Sequence[BenchResult]) -> dict:
    """Per-problem rows, per-solver geometric means, paired ratio columns.

    Solvers are listed in ``SOLVERS`` order, other names after them,
    sorted.  Geometric means run over the positive values of converged
    rows.  With two or more of ``SOLVERS`` present the ratio columns divide
    the first one's outer, inner and seconds by the second's, per problem
    both converged on.  ``ValueError`` on no results, or on two of one
    problem and solver.
    """
    results = list(results)
    if not results:
        raise ValueError("empty input")
    _check_pairs((r.problem, r.solver) for r in results)
    present = {r.solver for r in results}
    known = [s for s in SOLVERS if s in present]
    solvers = known + sorted(present - set(SOLVERS))
    problems = list(dict.fromkeys(r.problem for r in results))
    rows = [r.row() for r in results]
    converged = [row for row in rows if row["status"] == CONVERGED]
    metrics = ("outer", "inner", "seconds")
    summary = {
        "schema_version": SCHEMA_VERSION,
        "solvers": solvers,
        "problems": problems,
        "rows": rows,
        "geometric_mean": {
            solver: {m: _positive_mean(row[m] for row in converged
                                       if row["solver"] == solver)
                     for m in metrics}
            for solver in solvers},
    }
    if len(known) >= 2:
        num, den = known[:2]
        table = {(row["problem"], row["solver"]): row for row in rows}
        per_problem = {}
        for prob in problems:
            a, b = table.get((prob, den)), table.get((prob, num))
            if a and b and a["status"] == b["status"] == CONVERGED:
                per_problem[prob] = {m: b[m] / a[m] if a[m] > 0 else math.nan
                                     for m in metrics}
        summary["ratio"] = {
            "pair": [den, num], "per_problem": per_problem,
            "geometric_mean": {m: _positive_mean(v[m] for v in
                                                 per_problem.values())
                               for m in metrics}}
    return summary


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def emit(results: Sequence[BenchResult], summary: Optional[dict],
         out_dir) -> tuple[str, str]:
    """Write ``bench.csv`` and ``bench.json`` under ``out_dir``.

    The JSON carries the records, the summary and a full config echo; the
    CSV has one row per record in a stable column order.
    """
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "bench.csv")
    json_path = os.path.join(out_dir, "bench.json")
    with open(csv_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for r in results:
            writer.writerow(r.row())
    payload = {
        "schema_version": SCHEMA_VERSION,
        "records": [r.row() for r in results],
        "summary": summary,
        "configs": [r.config for r in results],
    }
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return csv_path, json_path


def read_json(path) -> dict:
    """Reload an emitted JSON payload (records, summary, configs); raise
    ``ValueError`` naming the fault unless it is an object with a non-empty
    ``records`` list of objects with the ``CSV_COLUMNS`` keys, each value of
    its column's type and range as :func:`_result` reads it, and one config
    object per record (when absent, ``configs`` is set to empty ones)."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError("expected a JSON object")
    if payload.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version "
                         f"{payload.get('schema_version')!r}")
    records = payload.get("records")
    if not (isinstance(records, list) and records):
        raise ValueError("expected a 'records' list of one or more records")
    for i, row in enumerate(records):
        if not (isinstance(row, dict) and row.keys() >= set(CSV_COLUMNS)):
            raise ValueError(f"record {i} is not an object with the keys "
                             f"{', '.join(CSV_COLUMNS)}")
    configs = payload.setdefault("configs", [{}] * len(records))
    if not (isinstance(configs, list) and len(configs) == len(records)
            and all(isinstance(c, dict) for c in configs)):
        raise ValueError("expected a 'configs' list of one object per record")
    for i, (row, config) in enumerate(zip(records, configs)):
        try:
            _result(row, config)
        except ValueError as exc:
            raise ValueError(f"record {i}: {exc}") from None
    return payload
