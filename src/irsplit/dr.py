"""Partially inexact inertial-relaxed Douglas-Rachford splitting.

Solves ``0 in A(x) + B(x)`` when the resolvent of ``A`` is cheap and exact
while the ``B`` half-step must be approached iteratively.  Each outer
iteration extrapolates the ``(s, b, r)`` state, runs a B-procedure one trial
at a time until a relative-error test accepts, and closes with a relaxed
projective correction of the ``b`` component.

The outer recursion is an instance of the proximal-projection engine in
:mod:`irsplit.hpp` applied to the splitting operator of the pair (A, B)
with unit stepsize; ``embed_to_hpp`` exposes that change of variables for
verification.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Protocol

import numpy as np

from .errors import BudgetExceeded, ParameterError, ZeroVectorError
from .hpp import InertiaRelaxParams, validate_params
from .records import BUDGET_EXCEEDED, CONVERGED, RunRecord

__all__ = [
    "SplitTriple",
    "DRParams",
    "BProcedure",
    "ResolventMap",
    "dr_extrapolate",
    "a_step",
    "dr_acceptance",
    "theta",
    "dr_update",
    "inner_loop",
    "InnerSolve",
    "DRStep",
    "DRResult",
    "reset_procedure",
    "run_dr",
    "classical_dr_step",
    "embed_to_hpp",
]


@dataclass
class SplitTriple:
    """State of the splitting recursion: candidate pair (s, b) and point r."""

    s: np.ndarray
    b: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        self.r = np.asarray(self.r, dtype=float)
        if not (self.s.shape == self.b.shape == self.r.shape):
            raise ValueError("triple components must share one shape")
        for name, v in (("s", self.s), ("b", self.b), ("r", self.r)):
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{name} has non-finite entries")


@dataclass(frozen=True)
class DRParams:
    """Scaling gamma, engine parameters, and the inner-trial budget."""

    gamma: float
    core: InertiaRelaxParams
    inner_budget: int = 10_000

    def validate(self):
        if not self.gamma > 0.0:
            raise ParameterError("gamma > 0 violated")
        if self.inner_budget < 1:
            raise ParameterError("inner_budget must be positive")
        validate_params(self.core)


class BProcedure(Protocol):
    """Iterative solver family for the B half-step ``s + gamma B(s) = r + gamma b``.

    ``open_session(r, b, gamma, s_bar, b_bar)`` starts a solve warm
    started at ``(s_bar, b_bar)``; successive ``session.next()`` calls yield
    trial pairs ``(s_l, b_l)`` with ``b_l in B(s_l)``, the sequence
    convergent and ``s_l + gamma b_l -> r + gamma b``.  Convergence is a
    producer contract the interface cannot enforce.  A session may expose
    ``exact = True`` to assert each trial solves the equation exactly by
    construction.  A procedure whose sessions share state within a run
    exposes ``reset()``, called at run entry and on every exit, including a
    raised one (see :func:`reset_procedure`).
    """

    def open_session(self, r: np.ndarray, b: np.ndarray, gamma: float,
                     s_bar: np.ndarray, b_bar: np.ndarray):
        ...


class ResolventMap(Protocol):
    """Exact single-valued resolvent u -> (I + gamma A)^{-1}(u)."""

    def apply(self, gamma: float, u: np.ndarray) -> np.ndarray:
        ...


def dr_extrapolate(cur: SplitTriple, prev: SplitTriple, alpha_k: float) -> SplitTriple:
    """Componentwise inertial extrapolation of the triple."""
    if alpha_k < 0.0:
        raise ParameterError("alpha_k must be nonnegative")
    if cur.s.shape != prev.s.shape:
        raise ValueError("dimension mismatch between current and previous triples")
    return SplitTriple(
        cur.s + alpha_k * (cur.s - prev.s),
        cur.b + alpha_k * (cur.b - prev.b),
        cur.r + alpha_k * (cur.r - prev.r),
    )


def a_step(s: np.ndarray, b: np.ndarray, gamma: float,
           resolvent: ResolventMap) -> tuple[np.ndarray, np.ndarray]:
    """Exact A half-step: r = J_{gamma A}(s - gamma b), a = (s - r)/gamma - b.

    The returned pair satisfies r + gamma a = s - gamma b to round-off.
    """
    if not gamma > 0.0:
        raise ParameterError("gamma > 0 violated")
    r = resolvent.apply(gamma, s - gamma * b)
    a = (s - r) / gamma - b
    return r, a


def dr_acceptance(hat: SplitTriple, s: np.ndarray, b: np.ndarray,
                  r: np.ndarray, gamma: float, sigma: float) -> bool:
    """Relative-error test for a trial pair against the extrapolated center.

    True iff ||s + gamma b - (r_hat + gamma b_hat)||^2 <= sigma^2
    (||r + gamma b - (r_hat + gamma b_hat)||^2 + ||s - r||^2).
    """
    center = hat.r + gamma * hat.b
    res_s = (s + gamma * b) - center
    res_r = (r + gamma * b) - center
    d = s - r
    return res_s @ res_s <= sigma * sigma * (res_r @ res_r + d @ d)


def theta(hat: SplitTriple, s: np.ndarray, b: np.ndarray, r: np.ndarray,
          gamma: float) -> float:
    """Projection coefficient of the corrector step.

    theta = <(r_hat - r) + gamma (b_hat - b), s - r> / ||s - r||^2; strictly
    positive on accepted trials.  Raises ``ZeroVectorError`` when s = r
    (the splitting has found a solution).
    """
    d = s - r
    dd = d @ d
    if dd == 0.0:
        raise ZeroVectorError("s = r: splitting solution found")
    num = ((hat.r - r) + gamma * (hat.b - b)) @ d
    return float(num / dd)


def dr_update(hat: SplitTriple, s: np.ndarray, r: np.ndarray, theta_val: float,
              rho_k: float, gamma: float) -> SplitTriple:
    """Close the outer iteration: keep (s, r), correct b projectively.

    b_next = b_hat - [(1 - rho theta) r + rho theta s - r_hat] / gamma, so
    that r + gamma b_next = (r_hat + gamma b_hat) + rho theta (r - s).
    """
    rw = rho_k * theta_val
    bracket = (1.0 - rw) * r + rw * s - hat.r
    return SplitTriple(s, hat.b - bracket / gamma, r)


def reset_procedure(procedure) -> None:
    """Clear the state a procedure's sessions share, if it has any.

    Calls the optional ``reset()`` of a B- or F-procedure.  The drivers
    call it at run entry, so that a run starts from the same procedure
    state whatever ran before it, and on every exit, so that no vectors of
    a finished run stay alive with the procedure.
    """
    reset = getattr(procedure, "reset", None)
    if reset is not None:
        reset()


@dataclass
class InnerSolve:
    """Accepted inner trial: the pair, the exact A half-step, trials used."""

    s: np.ndarray
    b: np.ndarray
    r: np.ndarray
    a: np.ndarray
    trials: int


def inner_loop(hat: SplitTriple, params: DRParams, bproc: BProcedure,
               resolvent: ResolventMap) -> InnerSolve:
    """Advance the B-procedure one trial at a time until acceptance.

    Raises ``BudgetExceeded`` after ``params.inner_budget`` trials; with
    sigma > 0 a contract-conforming procedure is always accepted eventually,
    so hitting the budget signals a configuration problem.
    """
    session = bproc.open_session(hat.r, hat.b, params.gamma, hat.s, hat.b)
    exact = bool(getattr(session, "exact", False))
    sigma = params.core.sigma
    for trial in range(1, params.inner_budget + 1):
        s_l, b_l = session.next()
        r_l, a_l = a_step(s_l, b_l, params.gamma, resolvent)
        if exact or dr_acceptance(hat, s_l, b_l, r_l, params.gamma, sigma):
            return InnerSolve(s_l, b_l, r_l, a_l, trial)
    raise BudgetExceeded(
        f"B-procedure not accepted within {params.inner_budget} trials",
        state=hat)


@dataclass
class DRStep:
    """One recorded outer iteration (for embedding and descent checks)."""

    hat: SplitTriple
    inner: InnerSolve
    theta: float
    rho_k: float
    alpha_k: float
    next: SplitTriple


@dataclass
class DRResult:
    """``x`` is the A-side iterate r (its resolvent is exact, so e.g. an l1
    operator yields exact sparsity there); s and r coincide in the limit."""

    triple: SplitTriple
    x: np.ndarray
    status: str
    outer_iters: int
    inner_iters_total: int
    record: RunRecord
    trace: Optional[list] = None


def run_dr(init: SplitTriple, params: DRParams, bproc: BProcedure,
           resolvent: ResolventMap, max_outer: int = 1000,
           sr_tolerance: float = 0.0, keep_trace: bool = False) -> DRResult:
    """Drive the splitting from ``init`` until ||s - r|| <= sr_tolerance.

    The default tolerance 0 stops only on the exact coincidence s = r, in
    which case that point solves the inclusion.  Constant schedules
    alpha_k = alpha and rho_k = rho_hi are used.  Raises ``BudgetExceeded``
    (partial result in ``state``) when ``max_outer`` runs out.

    Once the outer iterates reach the machine-precision floor the relative
    acceptance test has no room left (its right side vanishes while the
    left side is rounding noise), so the inner loop exhausts its budget;
    give a positive ``sr_tolerance`` for runs expected to go that far.
    """
    params.validate()
    reset_procedure(bproc)
    try:
        return _run(init, params, bproc, resolvent, max_outer, sr_tolerance,
                    keep_trace)
    finally:
        reset_procedure(bproc)


def _run(init: SplitTriple, params: DRParams, bproc: BProcedure,
         resolvent: ResolventMap, max_outer: int, sr_tolerance: float,
         keep_trace: bool) -> DRResult:
    cur = init
    prev = init
    alpha = params.core.alpha
    rho = params.core.rho_hi
    inner_total = 0
    trace: list = []
    started = time.perf_counter()
    for k in range(max_outer):
        hat = dr_extrapolate(cur, prev, alpha)
        sol = inner_loop(hat, params, bproc, resolvent)
        inner_total += sol.trials
        gap = float(np.linalg.norm(sol.s - sol.r))
        if gap <= sr_tolerance:
            rec = RunRecord(k, inner_total, time.perf_counter() - started,
                            gap, math.nan, CONVERGED)
            return DRResult(SplitTriple(sol.s, sol.b, sol.r), sol.r, "solved",
                            k, inner_total, rec, trace if keep_trace else None)
        th = theta(hat, sol.s, sol.b, sol.r, params.gamma)
        if th <= 0.0:
            raise RuntimeError("nonpositive projection coefficient: "
                               "the B-procedure violated its contract")
        nxt = dr_update(hat, sol.s, sol.r, th, rho, params.gamma)
        if keep_trace:
            trace.append(DRStep(hat, sol, th, rho, alpha, nxt))
        prev, cur = cur, nxt
    rec = RunRecord(max_outer, inner_total, time.perf_counter() - started,
                    float(np.linalg.norm(cur.s - cur.r)), math.nan,
                    BUDGET_EXCEEDED)
    raise BudgetExceeded(
        f"no convergence within {max_outer} outer iterations",
        state=DRResult(cur, cur.r, BUDGET_EXCEEDED, max_outer, inner_total,
                       rec, trace if keep_trace else None))


def classical_dr_step(z: np.ndarray, gamma: float, resolvent_a: ResolventMap,
                      resolvent_b: ResolventMap) -> np.ndarray:
    """One step of the classical splitting recursion (oracle for tests).

    z_next = J_{gamma A}(2 J_{gamma B}(z) - z) + z - J_{gamma B}(z).
    """
    if not gamma > 0.0:
        raise ParameterError("gamma > 0 violated")
    jb = resolvent_b.apply(gamma, z)
    return resolvent_a.apply(gamma, 2.0 * jb - z) + z - jb


def embed_to_hpp(triple: SplitTriple, hat: SplitTriple, s_acc: np.ndarray,
                 b_acc: np.ndarray, r_acc: np.ndarray, gamma: float):
    """Change of variables onto the proximal-projection engine.

    Returns (z, w, z_tilde, v) = (r + gamma b, r_hat + gamma b_hat,
    r_acc + gamma b_acc, s_acc - r_acc); the outer recursion then satisfies
    the engine's step equations with unit proximal stepsize.
    """
    z = triple.r + gamma * triple.b
    w = hat.r + gamma * hat.b
    z_tilde = r_acc + gamma * b_acc
    v = s_acc - r_acc
    return z, w, z_tilde, v
