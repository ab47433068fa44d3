"""Partially inexact inertial-relaxed Douglas-Rachford splitting.

Solves ``0 in A(x) + B(x)`` when the resolvent of ``A`` is cheap and exact
while the ``B`` half-step must be approached iteratively.  Each outer
iteration extrapolates the ``(s, b, r)`` state, runs a B-procedure one trial
at a time until a relative-error test accepts, and closes with a relaxed
projective correction of the ``b`` component.

The outer recursion is an instance of the proximal-projection engine in
:mod:`irsplit.hpp` applied to the splitting operator of the pair (A, B)
with unit stepsize; ``embed_to_hpp`` exposes that change of variables for
verification.  :func:`run_dr` is the loop of :mod:`irsplit.admm` under
the change of variables of ``embed_to_dr``.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Optional, Protocol

import numpy as np

from .admm import (ADMMParams, AdmmProblem, Criterion, FToBAdapter,
                   PrimalDualTriple, _run, reset_procedure)
from .errors import ParameterError, ZeroVectorError
from .hpp import InertiaRelaxParams, validate_params
from .records import RunRecord

__all__ = [
    "SplitTriple",
    "DRParams",
    "BProcedure",
    "ResolventMap",
    "a_step",
    "dr_acceptance",
    "theta",
    "dr_update",
    "DRResult",
    "run_dr",
    "classical_dr_step",
    "embed_to_hpp",
    "embed_to_dr",
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
        if self.core.lam != 1.0:
            raise ParameterError("lam = 1 required by the splitting layers")


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
    raised one (see :func:`irsplit.admm.reset_procedure`).
    """

    def open_session(self, r: np.ndarray, b: np.ndarray, gamma: float,
                     s_bar: np.ndarray, b_bar: np.ndarray):
        ...


class ResolventMap(Protocol):
    """Exact single-valued resolvent u -> (I + gamma A)^{-1}(u)."""

    def apply(self, gamma: float, u: np.ndarray) -> np.ndarray:
        ...


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


class _BToF:
    """A B-procedure as the loop's F-procedure: the session for (p_hat,
    z_hat, c) is the B-session for r = z_hat, b = -p_hat, and it emits a
    trial (s_l, b_l) as (s_l, b_l + p_hat + c (s_l - z_hat)), whose
    multiplier candidate is -b_l."""

    def __init__(self, bproc: BProcedure, gamma: float):
        self.bproc = bproc
        self.gamma = gamma

    def reset(self) -> None:
        reset_procedure(self.bproc)

    def open_session(self, p, z, c, x_bar):
        bsession = self.bproc.open_session(z, -p, self.gamma, x_bar, -p)

        def next_trial():
            s_l, b_l = bsession.next()
            return s_l, b_l + p + c * (s_l - z)

        return SimpleNamespace(next=next_trial,
                               exact=bool(getattr(bsession, "exact", False)))


class _ResolventProx:
    """The A half-step as the loop's shifted prox, J_{gamma A}(x + gamma p)."""

    def __init__(self, resolvent: ResolventMap, gamma: float):
        self.resolvent = resolvent
        self.gamma = gamma

    def solve(self, p, x, c):
        return self.resolvent.apply(self.gamma, x + self.gamma * p)


def run_dr(init: SplitTriple, params: DRParams, bproc: BProcedure,
           resolvent: ResolventMap, max_outer: int = 1000,
           sr_tolerance: float = 0.0,
           observer: Optional[Callable[[dict], None]] = None) -> DRResult:
    """Drive the splitting from ``init`` until ||s - r|| <= sr_tolerance.

    The default tolerance 0 stops only on the exact coincidence s = r, in
    which case that point solves the inclusion.  Constant schedules
    alpha_k = alpha and rho_k = rho_hi are used.  When ``max_outer`` runs
    out the partial result is returned with status ``budget_exceeded``.
    ``params``, a negative ``max_outer`` and a negative or NaN
    ``sr_tolerance`` raise ``ParameterError`` at entry; after entry a
    failure returns the last completed triple with status ``stalled`` or
    ``error`` and ``record.cause``, as :func:`irsplit.admm.run_admm` does.

    The run is the loop of :func:`irsplit.admm.run_admm` with the
    summed-squares test and no KKT test, under (x, z, p, c) = (s, r, -b,
    1/gamma).  An :class:`FToBAdapter` is unwrapped: its F-procedure is
    driven directly and gets the anchored session start of an ADMM run.

    Once the outer iterates reach the machine-precision floor the relative
    acceptance test has no room left (its right side vanishes while the
    left side is rounding noise), so the run ends ``stalled``; give a
    positive ``sr_tolerance`` for runs expected to go that far.

    ``observer`` gets the events of :func:`irsplit.admm.run_admm`, in its
    variables: ``(s, b, r) = (x, -p, z)``, as in :func:`embed_to_dr`;
    their ``kkt`` is NaN, as the run has no KKT test.
    """
    params.validate()
    if max_outer < 0:
        raise ParameterError("max_outer >= 0 violated")
    if not sr_tolerance >= 0.0:
        raise ParameterError("sr_tolerance >= 0 violated")
    gamma = params.gamma
    fproc = (bproc.fproc if isinstance(bproc, FToBAdapter)
             else _BToF(bproc, gamma))
    problem = AdmmProblem(fproc, _ResolventProx(resolvent, gamma), None)
    loop_params = ADMMParams(1.0 / gamma, params.core, Criterion.SUM_SQUARES,
                             inner_budget=params.inner_budget,
                             max_outer=max_outer)
    res = _run(problem, loop_params,
               PrimalDualTriple(init.s, init.r, -init.b), observer,
               gap_tol=sr_tolerance)
    return DRResult(embed_to_dr(res.triple), res.x, res.status,
                    res.outer_iters, res.inner_iters_total, res.record)


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


def embed_to_dr(triple: PrimalDualTriple) -> SplitTriple:
    """Change of variables (s, b, r) = (x, -p, z) onto the splitting layer.

    With scaling gamma = 1/c every run quantity maps onto the splitting
    recursion; the implied exact half-step slope is a = c (s - r) - b.
    """
    return SplitTriple(triple.x, -triple.p, triple.z)
