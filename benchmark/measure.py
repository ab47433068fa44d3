"""Closed-loop solves (one client, one process): the untimed warm-up, the
timed loop behind the end-to-end metrics, and the traced run behind the
per-layer metrics.  Import only after ``run.prepare()``, which pins the
BLAS threads and puts the program's sources on the path.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import time
import traceback
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np
import scipy
import scipy.sparse as sp
from scipy.special import expit

import irsplit
from irsplit.admm import run_admm
from irsplit.records import CONVERGED

from spans import BOUNDARY_OF, NEXT, OPEN, RUN, Tracer, layer_metrics
from workloads import (build, instance_seed, kkt_check, make_instance,
                       solver_params)

MIN_SOLVES = 100  # so that ten instances lie beyond the p90
MIN_TRACED = 4
# Typical SpeedProbe time on the reference host (2 vCPU Xeon at 2.0 GHz,
# python 3.11, numpy 2.4, single-threaded OpenBLAS); see README.md.
PROBE_REF_S = 5.0e-3
PROGRAM_DIR = os.path.dirname(os.path.abspath(irsplit.__file__))


@dataclass
class Solve:
    """One solve.  ``status`` is the run status, ``kkt_check_failed``, or
    the exception type; ``layer`` is the innermost layer span open when
    it raised and ``where`` the program function that raised."""

    index: int
    seed: int
    setup_s: float
    solve_s: float
    status: str
    solved: bool
    kkt: float = math.nan
    outer: int = -1
    inner: int = -1
    layer: str = ""
    where: str = ""
    probe_s: float = math.nan  # mean SpeedProbe time either side of it


class SpeedProbe:
    """A fixed kernel that uses nothing from the program.  Timed between
    instances, it tracks the host's speed, which drifts by tens of percent
    on a shared machine.  For ``logistic`` it is an L-BFGS-like loop of
    small logistic value-gradients; for the LASSO workloads, dense 100x300
    and CSR 1000x5000 products with a shrink and Python scalar work.  Each
    takes about ``PROBE_REF_S`` on the reference host."""

    def __init__(self, w):
        rng = np.random.default_rng(12345)
        if w.kind == "logistic":
            self.features = rng.standard_normal((100, 30))
            self.labels = np.sign(rng.standard_normal(100))
            self.w = rng.standard_normal(31)
            self._kernel = self._logistic
        else:
            self.dense = rng.standard_normal((100, 300))
            self.csr = sp.random(1000, 5000, density=0.02, format="csr",
                                 random_state=rng)
            self.x = rng.standard_normal(300)
            self.y = rng.standard_normal(5000)
            self._kernel = self._products

    def __call__(self) -> float:
        started = time.perf_counter()
        self._kernel()
        return time.perf_counter() - started

    def _products(self):
        x, y, acc = self.x, self.y, 0.0
        for k in range(12):
            x = x - 1e-3 * (self.dense.T @ (self.dense @ x))
            y = y - 1e-3 * (self.csr.T @ (self.csr @ y))
            x = np.sign(x) * np.maximum(np.abs(x) - 1e-4, 0.0)
            acc += float(x @ x) + k * 0.5

    def _logistic(self):
        w, pairs = self.w, []
        for _ in range(88):
            t = self.labels * (self.features @ w[1:] + w[0])
            value = float(np.logaddexp(0.0, -t).sum())
            coeff = -self.labels * expit(-t)
            g = np.concatenate(([coeff.sum()], self.features.T @ coeff))
            for s_k, y_k in pairs[-5:]:
                g = g - (s_k @ g) * y_k
            w = w - 1e-3 * g
            pairs.append((g / (1.0 + g @ g + value), g))


def raising_layer(exc: BaseException) -> tuple[str, str]:
    layer, where = "", ""
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        code = frame.f_code
        if (code.co_filename.startswith(PROGRAM_DIR)
                and code.co_name in BOUNDARY_OF):
            layer, where = BOUNDARY_OF[code.co_name], code.co_qualname
    return layer, where


def solve_one(w, inst, index: int, params, tracer=None) -> Solve:
    problem, setup_s = build(w, inst, tracer)
    run = run_admm if tracer is None else tracer.wrap(RUN, run_admm)
    started = time.perf_counter()
    try:
        result = run(problem, params)
    except Exception as exc:  # noqa: BLE001 - a failed solve is a row
        solve_s = time.perf_counter() - started
        layer, where = raising_layer(exc)
        return Solve(index, inst.seed, setup_s, solve_s, type(exc).__name__,
                     False, layer=layer, where=where)
    solve_s = time.perf_counter() - started
    ok, kkt = kkt_check(w, inst, result.x)
    status = result.status
    if result.record.status == CONVERGED and not ok:
        status = "kkt_check_failed"
    return Solve(index, inst.seed, setup_s, solve_s, status,
                 result.record.status == CONVERGED and ok, kkt,
                 result.outer_iters, result.inner_iters_total)


def instance_count(w, seconds: float) -> int:
    """Distinct instances in a timed run: fixed by the workload and
    ``seconds``, and at least ``MIN_SOLVES``."""
    return max(MIN_SOLVES, math.ceil(seconds * w.instance_rate))


def closed_loop(w, seed: int, seconds: float) -> list[Solve]:
    """Solve the run's ``instance_count`` instances in order, then again
    from the first, back to back until ``seconds`` have passed.  The first
    pass is always completed, so which instances a run attempts depends
    on the seed and ``seconds`` only, never on the host's speed."""
    params = solver_params()
    probe = SpeedProbe(w)
    probe()
    count = instance_count(w, seconds)
    solve_one(w, make_instance(w, instance_seed(seed, 0)), 0, params)  # warm-up
    rows: list[Solve] = []
    started = time.perf_counter()
    before = probe()
    while len(rows) < count or time.perf_counter() - started < seconds:
        i = len(rows) % count
        row = solve_one(w, make_instance(w, instance_seed(seed, i)), i, params)
        after = probe()
        row.probe_s = 0.5 * (before + after)
        rows.append(row)
        before = after
    return rows


def traced_count(w, seconds: float) -> int:
    return max(MIN_TRACED, math.ceil(seconds * w.trace_rate))


def traced_run(w, seed: int, seconds: float):
    """Solve each of the first ``traced_count`` instances untraced and
    traced, alternating which goes first.

    Returns ``(untraced_rows, traced_rows, tracer, nnz, mismatches)``;
    a mismatch is an instance whose status or outer/inner counts differ
    between the two solves, or whose span counts differ from the counts
    the traced solve returned.
    """
    params = solver_params()
    probe = SpeedProbe(w)
    probe()
    solve_one(w, make_instance(w, instance_seed(seed, 0)), 0, params)  # warm-up
    tracer = Tracer()
    untraced, traced, nnz = [], [], {}
    before = probe()
    for i in range(traced_count(w, seconds)):
        inst = make_instance(w, instance_seed(seed, i))
        nnz[i] = inst.nnz
        tracer.solve = i
        pair = [solve_one(w, inst, i, params, t)
                for t in ((None, tracer) if i % 2 == 0 else (tracer, None))]
        after = probe()
        for row in pair:
            row.probe_s = 0.5 * (before + after)
        untraced.append(pair[i % 2])
        traced.append(pair[1 - i % 2])
        before = after
    per_solve = Counter((s[4], s[0]) for s in tracer.spans)
    mismatches = []
    for u, t in zip(untraced, traced):
        same_run = (u.status, u.outer, u.inner) == (t.status, t.outer, t.inner)
        # status "solved" (x = z exactly) stops inside its last iteration
        spans_agree = t.outer < 0 or (
            per_solve[t.index, OPEN] == t.outer + (t.status == "solved")
            and per_solve[t.index, NEXT] == t.inner)
        if not (same_run and spans_agree):
            mismatches.append((u, t))
    return untraced, traced, tracer, nnz, mismatches


def nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def by_instance(rows: list[Solve]) -> dict[int, list[Solve]]:
    grouped: dict[int, list[Solve]] = {}
    for r in rows:
        grouped.setdefault(r.index, []).append(r)
    return grouped


def end_to_end(rows: list[Solve], normalize: bool = True) -> dict:
    """The six end-to-end metrics, over the run's distinct instances.

    An instance solved more than once counts once, with the median of its
    solve times; it is solved only if every one of its solves was.
    Unsolved instances rank as infinitely slow.  With ``normalize``, each
    solve's wall times are multiplied by ``PROBE_REF_S / probe_s``:
    seconds at the reference host speed.  Otherwise they are wall seconds.
    """
    def scale(r: Solve) -> float:
        return PROBE_REF_S / r.probe_s if normalize else 1.0

    grouped = by_instance(rows)
    solved = [all(r.solved for r in g) for g in grouped.values()]
    spent = [statistics.median(scale(r) * r.solve_s for r in g)
             for g in grouped.values()]
    times = sorted(t if ok else math.inf for t, ok in zip(spent, solved))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    m = {
        "solve_s_p50": (nearest_rank(times, 0.5), "s"),
        "solve_s_p90": (nearest_rank(times, 0.9), "s"),
        "solves_per_s": (sum(solved) / sum(spent), "1/s"),
        "solved_frac": (sum(solved) / len(solved), "ratio"),
        "setup_s": (statistics.median(scale(r) * r.setup_s for r in rows),
                    "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MiB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get(
        "blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def result(rows: list[Solve], metrics: dict, correct: bool) -> dict:
    """``attempted`` counts distinct instances; one is ``failed`` when any
    of its solves was not solved."""
    grouped = by_instance(rows).values()
    return {"correct": correct, "attempted": len(grouped),
            "failed": sum(not all(r.solved for r in g) for g in grouped),
            "metrics": metrics}


def incorrect(rows: list[Solve]) -> bool:
    return any(r.status == "kkt_check_failed" for r in rows)


def measure(w, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; returns the full report."""
    report = {"workload": w.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "environment": environment()}
    if not trace:
        rows = closed_loop(w, seed, seconds)
        report["e2e"] = end_to_end(rows)
        report["e2e_wall"] = end_to_end(rows, normalize=False)
        report["result"] = result(rows, report["e2e"], not incorrect(rows))
        report["rows"] = [asdict(r) for r in rows]
        return report
    untraced, traced, tracer, nnz, mismatches = traced_run(w, seed, seconds)
    overhead = (sum(r.solve_s for r in traced)
                / sum(r.solve_s for r in untraced) - 1.0)
    layers = layer_metrics(tracer.spans, len(traced), nnz,
                           sum(not r.solved for r in traced), overhead)
    report["e2e"] = end_to_end(untraced)
    report["e2e_wall"] = end_to_end(untraced, normalize=False)
    report["result"] = result(
        traced, layers,
        not (incorrect(untraced) or incorrect(traced) or mismatches))
    report["rows"] = [asdict(r) for r in traced]
    report["mismatches"] = [[asdict(u), asdict(t)] for u, t in mismatches]
    report["tracer"] = tracer
    return report
