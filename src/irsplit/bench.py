"""Benchmark harness: seeded runs, summary tables, CSV/JSON emission.

A run configuration names exactly one problem source (synthetic or files),
one solver (inertial-relaxed ADMM, its plain alpha = 0 / rho = 1
configuration, or the proximal-gradient baseline) and the solver options.
Counts are deterministic per seed; wall time optionally averages over
repetitions after one discarded warm-up run.
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
import time
from dataclasses import asdict, dataclass, field
from typing import NamedTuple, Optional, Sequence

from .admm import ADMMParams, Criterion, run_admm
from .hpp import InertiaRelaxParams, beta_of_rho_bar
from .records import CONVERGED, ERROR, RunRecord
from .subsolvers import FistaConfig, fista_solve
from . import problems as _problems

__all__ = [
    "SCHEMA_VERSION",
    "SOLVERS",
    "RunConfig",
    "BenchResult",
    "run_one",
    "run_benchmark",
    "geometric_mean",
    "summarize",
    "emit",
    "read_json",
]

SCHEMA_VERSION = 1
SOLVERS = ("admm_inertial", "admm_plain", "fista")

CSV_COLUMNS = ("problem", "solver", "outer", "inner", "seconds", "kkt",
               "objective", "status")


class _Key(NamedTuple):
    """A config key: its type (int, float, bool, str for a path, or an
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
          str: ("a path", (str, os.PathLike))}


def _at_least(least: int) -> _Key:
    return _Key(int, (f"at least {least}", lambda v: v >= least))


_COUNT, _SEED, _NUMBER, _PATH = (_at_least(1), _at_least(0), _Key(float),
                                 _Key(str))
_POSITIVE = _Key(float, ("finite and above 0", lambda v: 0 < v < math.inf))
_FRACTION = _Key(float, ("in (0, 1]", lambda v: 0 < v <= 1))
_FINITE = _Key(float, ("finite", math.isfinite))

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
                  {"a": _PATH, "b": _PATH, "nu": _POSITIVE},
                  {"skip_header": _Key(bool)}),
    "logistic_libsvm": (_problems.load_libsvm,
                        {"path": _PATH, "nu": _POSITIVE}, {}),
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
    """One benchmark run: problem source, solver name, solver options."""

    problem: dict
    solver: str
    options: dict = field(default_factory=dict)
    seed: Optional[int] = None
    repetitions: int = 1
    name: Optional[str] = None

    def validate(self):
        """Reject an unknown solver or problem kind, a problem key its kind
        does not read or an absent one it needs, an option no solver reads,
        a value not of its key's type or out of its key's range, or an
        option the solver's own parameters reject."""
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}")
        _problem_builder(self.problem)
        if self.seed is not None:
            _SEED.read("seed", self.seed)
        _COUNT.read("repetitions", self.repetitions)
        options = {**_FISTA_OPTIONS, **_ADMM_OPTIONS}
        unread = self.options.keys() - options.keys()
        if unread:
            raise ValueError(f"no solver reads option "
                             f"{', '.join(sorted(unread))}")
        for key, value in self.options.items():
            options[key].read(key, value)
        _solver_params(self.solver, self.options)

    def label(self) -> str:
        """The name, else a synthetic kind's sizes and seed, else the file."""
        kind = self.problem.get("kind", "?")
        if self.name or not str(kind).startswith("synthetic_"):
            return self.name or str(self.problem.get("path")
                                    or self.problem.get("a") or kind)
        build, needed, _ = _PROBLEMS[kind]
        seed = self.seed if self.seed is not None else self.problem.get(
            "seed", inspect.signature(build).parameters["seed"].default)
        sizes = "".join(f"_{k}{self.problem.get(k)}" for k in needed)
        return f"{kind[len('synthetic_'):]}{sizes}_s{seed}"


@dataclass
class BenchResult:
    problem: str
    solver: str
    record: RunRecord
    config: dict

    def row(self) -> dict:
        r = self.record
        return {"problem": self.problem, "solver": self.solver,
                "outer": r.outer_iters, "inner": r.inner_iters_total,
                "seconds": r.wall_seconds, "kkt": r.final_kkt,
                "objective": r.final_objective, "status": r.status}


def _problem_builder(spec: dict, seed: Optional[int] = None):
    """The builder of the kind ``spec`` names, bound to its keys, each read
    as its type and range, and to ``seed`` if set; ``ValueError`` on an
    unknown kind, a key it does not read, an absent one it needs or a bad
    value."""
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
    if seed is not None and "seed" in named:
        kwargs["seed"] = seed
    return functools.partial(build, *args, **kwargs)


def _solver_params(solver: str, options: dict):
    """The solver's ``ADMMParams`` or ``FistaConfig`` from the options its
    family reads, with the harness's defaults where it has them."""
    table = _FISTA_OPTIONS if solver == "fista" else _ADMM_OPTIONS
    opts = {k: key.default for k, key in table.items()
            if key.default is not None}
    opts.update((k, table[k].read(k, v)) for k, v in options.items()
                if k in table)
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


def _solve(cfg: RunConfig, prob) -> RunRecord:
    params = _solver_params(cfg.solver, cfg.options)
    if cfg.solver == "fista":
        return fista_solve(prob, params).record
    if isinstance(prob, _problems.LassoProblem):
        admm_prob = _problems.lasso_admm_problem(prob, params.c)
    else:
        admm_prob = _problems.logistic_admm_problem(prob, params.c)
    return run_admm(admm_prob, params).record


def run_one(cfg: RunConfig) -> BenchResult:
    """Execute one configuration; a failure's cause is ``config["error"]``."""
    cfg.validate()
    try:
        prob = _problem_builder(cfg.problem, cfg.seed)()
        record = _solve(cfg, prob)
        if cfg.repetitions > 1:
            # first (warm-up) timing discarded; counts are deterministic
            times = []
            for _ in range(cfg.repetitions):
                started = time.perf_counter()
                record = _solve(cfg, prob)
                times.append(time.perf_counter() - started)
            record = dataclasses.replace(
                record, wall_seconds=statistics.median(times))
        error = record.cause
    except Exception as exc:  # noqa: BLE001 - batch must continue
        record = RunRecord(0, 0, 0.0, math.inf, math.nan, ERROR)
        error = f"{type(exc).__name__}: {exc}"
    result = BenchResult(cfg.label(), cfg.solver, record, asdict(cfg))
    if error:
        result.config["error"] = error
    return result


def run_benchmark(configs: Sequence[RunConfig]) -> list[BenchResult]:
    """Execute a batch, one config after another."""
    return [run_one(c) for c in configs]


# ---------------------------------------------------------------------------
# Summary math
# ---------------------------------------------------------------------------

def geometric_mean(values: Sequence[float]) -> float:
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("empty input")
    if any(v <= 0.0 for v in vals):
        raise ValueError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def summarize(results: Sequence[BenchResult],
              ratio_pair: Optional[tuple[str, str]] = None) -> dict:
    """Per-problem rows, per-solver geometric means, paired ratio columns.

    Geometric means run over converged rows only.  ``ratio_pair =
    (denominator, numerator)`` adds per-problem and geometric-mean ratio
    columns; with exactly two solvers present the pair is inferred.
    """
    results = list(results)
    if not results:
        raise ValueError("empty input")
    solvers = sorted({r.solver for r in results})
    problems = []
    for r in results:
        if r.problem not in problems:
            problems.append(r.problem)
    table = {(r.problem, r.solver): r for r in results}
    metrics = ("outer", "inner", "seconds")
    gmeans: dict = {}
    for solver in solvers:
        rows = [r.row() for r in results
                if r.solver == solver and r.record.status == CONVERGED]
        gmeans[solver] = {
            m: (geometric_mean([row[m] for row in rows if row[m] > 0])
                if any(row[m] > 0 for row in rows) else math.nan)
            for m in metrics
        } if rows else {m: math.nan for m in metrics}

    summary = {
        "schema_version": SCHEMA_VERSION,
        "solvers": solvers,
        "problems": problems,
        "rows": [r.row() for r in results],
        "geometric_mean": gmeans,
    }

    if ratio_pair is None and len(solvers) == 2:
        ratio_pair = (solvers[0], solvers[1])
    if ratio_pair is not None:
        den, num = ratio_pair
        per_problem = {}
        for prob in problems:
            a = table.get((prob, den))
            b = table.get((prob, num))
            if a is None or b is None:
                continue
            if a.record.status != CONVERGED or b.record.status != CONVERGED:
                continue
            row_a, row_b = a.row(), b.row()
            per_problem[prob] = {
                m: (row_b[m] / row_a[m] if row_a[m] > 0 else math.nan)
                for m in metrics
            }
        gm_ratio = {}
        for m in metrics:
            vals = [v[m] for v in per_problem.values() if math.isfinite(v[m])]
            gm_ratio[m] = geometric_mean(vals) if vals else math.nan
        summary["ratio"] = {"pair": [den, num], "per_problem": per_problem,
                            "geometric_mean": gm_ratio}
    return summary


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def emit(results: Sequence[BenchResult], summary: Optional[dict], out_dir,
         basename: str = "bench") -> tuple[str, str]:
    """Write <basename>.csv and <basename>.json under ``out_dir``.

    The JSON carries the records, the summary and a full config echo; the
    CSV has one row per record in a stable column order.
    """
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{basename}.csv")
    json_path = os.path.join(out_dir, f"{basename}.json")
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
    ``ValueError`` unless it is an object with a ``records`` list of
    objects that each hold the ``CSV_COLUMNS`` keys."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError("expected a JSON object")
    if payload.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version "
                         f"{payload.get('schema_version')!r}")
    if not isinstance(payload.get("records"), list):
        raise ValueError("expected a 'records' list")
    for i, row in enumerate(payload["records"]):
        if not (isinstance(row, dict) and row.keys() >= set(CSV_COLUMNS)):
            raise ValueError(f"record {i} is not an object with the keys "
                             f"{', '.join(CSV_COLUMNS)}")
    return payload
