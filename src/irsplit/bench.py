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
import json
import math
import numbers
import statistics
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .admm import ADMMParams, Criterion, run_admm
from .hpp import InertiaRelaxParams, rho_bar_of_beta
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

# the problem keys that _build_problem reads for each kind, and the options
# that admm_params_for or _solve reads for any solver (one options dict may
# serve every solver, as with the command line's --solver)
_PROBLEM_KEYS = {
    "synthetic_lasso": {"kind", "m", "n", "density", "noise", "nu_fraction",
                        "seed"},
    "synthetic_logistic": {"kind", "q", "n", "nu_fraction", "seed"},
    "lasso_csv": {"kind", "a", "b", "nu", "skip_header"},
    "logistic_libsvm": {"kind", "path", "nu"},
}
_OPTION_KEYS = {"sigma", "c", "epsilon", "criterion", "max_outer",
               "inner_budget", "alpha", "beta", "rho_bar", "lipschitz0", "eta"}
# the keys read as counts or seeds, which must be integers (not bools), with
# the least value of each problem key; the library's own validate() checks
# the options' ranges
_INTEGER_PROBLEM_KEYS = {"m": 1, "n": 1, "q": 1, "seed": 0}
_INTEGER_OPTION_KEYS = ("max_outer", "inner_budget")


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
        does not read, an option no solver reads, a count or seed that is
        not an integer or below its least value, or an option the solver's
        own parameters reject."""
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}")
        kind = self.problem.get("kind")
        if kind not in _PROBLEM_KEYS:
            raise ValueError(f"unknown problem kind {kind!r}")
        unread = self.problem.keys() - _PROBLEM_KEYS[kind]
        if unread:
            raise ValueError(f"problem kind {kind!r} reads no key "
                             f"{', '.join(sorted(unread))}")
        unread = self.options.keys() - _OPTION_KEYS
        if unread:
            raise ValueError(f"no solver reads option "
                             f"{', '.join(sorted(unread))}")
        integers = [("seed", self.seed, 0),
                    ("repetitions", self.repetitions, 1)]
        integers += [(key, self.problem.get(key), least)
                     for key, least in _INTEGER_PROBLEM_KEYS.items()]
        integers += [(key, self.options.get(key), None)
                     for key in _INTEGER_OPTION_KEYS]
        for key, value, least in integers:
            if value is None:
                continue
            integral = isinstance(value, numbers.Integral)
            if isinstance(value, bool) or not integral:
                raise ValueError(f"{key} must be an integer, got {value!r}")
            if least is not None and value < least:
                raise ValueError(f"{key} must be at least {least}, "
                                 f"got {value}")
        if self.solver == "fista":
            _fista_config(self.options).validate()
        else:
            admm_params_for(self.solver, self.options).validate()

    def label(self) -> str:
        if self.name:
            return self.name
        kind = self.problem.get("kind", "?")
        if kind == "synthetic_lasso":
            return (f"lasso_m{self.problem.get('m')}_n{self.problem.get('n')}"
                    f"_s{self._seed()}")
        if kind == "synthetic_logistic":
            return (f"logistic_q{self.problem.get('q')}_n{self.problem.get('n')}"
                    f"_s{self._seed()}")
        return str(self.problem.get("path") or self.problem.get("a") or kind)

    def _seed(self) -> int:
        if self.seed is not None:
            return self.seed
        return int(self.problem.get("seed", 0))

    def as_dict(self) -> dict:
        return {"problem": dict(self.problem), "solver": self.solver,
                "options": dict(self.options), "seed": self.seed,
                "repetitions": self.repetitions, "name": self.name}


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


def _build_problem(cfg: RunConfig):
    spec = cfg.problem
    kind = spec["kind"]
    seed = cfg._seed()
    if kind == "synthetic_lasso":
        return _problems.synthetic_lasso(
            int(spec["m"]), int(spec["n"]),
            density=float(spec.get("density", 1.0)),
            noise=float(spec.get("noise", 0.01)),
            nu_fraction=float(spec.get("nu_fraction", 0.1)),
            seed=seed)
    if kind == "synthetic_logistic":
        return _problems.synthetic_logistic(
            int(spec["q"]), int(spec["n"]),
            nu_fraction=float(spec.get("nu_fraction", 0.1)),
            seed=seed)
    if kind == "lasso_csv":
        return _problems.load_dense_csv(
            spec["a"], spec["b"], float(spec["nu"]),
            skip_header=bool(spec.get("skip_header", False)))
    return _problems.load_libsvm(spec["path"], float(spec["nu"]))


def admm_params_for(solver: str, options: dict) -> ADMMParams:
    """Translate benchmark options into the ADMM solvers' parameters."""
    sigma = float(options.get("sigma", 0.99))
    c = float(options.get("c", 1.0))
    epsilon = float(options.get("epsilon", 1e-6))
    criterion = options.get("criterion", "max_form")
    if criterion not in ("max_form", "sum_squares"):
        raise ValueError(f"criterion must be max_form or sum_squares, "
                         f"got {criterion!r}")
    max_outer = int(options.get("max_outer", 20_000))
    inner_budget = int(options.get("inner_budget", 10_000))
    if solver == "admm_plain":
        core = InertiaRelaxParams.plain(sigma)
    else:
        alpha = float(options.get("alpha", 0.18966))
        beta = float(options.get("beta", 0.18976))
        rho = float(options.get("rho_bar", rho_bar_of_beta(beta)))
        core = InertiaRelaxParams(alpha, beta, sigma, rho, rho)
    return ADMMParams(c=c, core=core, criterion=Criterion(criterion),
                      epsilon=epsilon, inner_budget=inner_budget,
                      max_outer=max_outer)


def _fista_config(options: dict) -> FistaConfig:
    """Translate benchmark options into the baseline's configuration."""
    return FistaConfig(lipschitz0=float(options.get("lipschitz0", 1.0)),
                       eta=float(options.get("eta", 2.0)),
                       tol=float(options.get("epsilon", 1e-6)),
                       max_iters=int(options.get("max_outer", 200_000)))


def _solve(cfg: RunConfig, prob) -> RunRecord:
    if cfg.solver == "fista":
        return fista_solve(prob, _fista_config(cfg.options)).record
    params = admm_params_for(cfg.solver, cfg.options)
    if isinstance(prob, _problems.LassoProblem):
        admm_prob = _problems.lasso_admm_problem(prob, params.c)
    else:
        admm_prob = _problems.logistic_admm_problem(prob, params.c)
    return run_admm(admm_prob, params).record


def run_one(cfg: RunConfig) -> BenchResult:
    """Execute one configuration; a failure's cause is ``config["error"]``."""
    cfg.validate()
    label = cfg.label()
    try:
        prob = _build_problem(cfg)
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
        result = BenchResult(label, cfg.solver, record, cfg.as_dict())
        if record.cause:
            result.config["error"] = record.cause
        return result
    except Exception as exc:  # noqa: BLE001 - batch must continue
        record = RunRecord(0, 0, 0.0, math.inf, math.nan, ERROR)
        result = BenchResult(label, cfg.solver, record, cfg.as_dict())
        result.config["error"] = f"{type(exc).__name__}: {exc}"
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
    import os

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
    """Reload an emitted JSON payload (records, summary, configs)."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version "
                         f"{payload.get('schema_version')!r}")
    return payload
