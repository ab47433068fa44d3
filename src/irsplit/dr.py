"""Partially inexact inertial-relaxed Douglas-Rachford splitting, and the
proximal-projection engine as its case A = 0.

Solves ``0 in A(x) + B(x)`` when the resolvent of ``A`` is cheap and exact
while the ``B`` half-step must be approached iteratively.  Each outer
iteration extrapolates the ``(s, b, r)`` state, runs an F-procedure for B
(:class:`irsplit.admm.FProcedure`) one trial at a time until a
relative-error test accepts, and closes with a relaxed projective
correction of the ``b`` component.

The outer recursion is an instance of the proximal-projection engine of
:mod:`irsplit.hpp` applied to the splitting operator of the pair (A, B)
with unit stepsize: its point is z = r + gamma b, and an iteration's
extrapolated point, certificate point and certificate are r_hat + gamma
b_hat, r + gamma b and s - r.  :func:`run_dr` is the loop of
:mod:`irsplit.admm` under the change of variables (s, b, r) = (x, -p, z),
so each step of the recursion is a kernel of that loop, and the A
half-step is its g-step: an l1 problem's ``prox_g`` serves as both.

Conversely, with A = 0 and gamma = 1 the splitting is the engine on B:
:func:`run_hpp` runs the engine so, and the loop of :mod:`irsplit.admm` is
the one outer loop of all three layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Optional, Protocol

import numpy as np

from .admm import ADMMParams, Criterion, FProcedure, _run
from .errors import ParameterError, _check_budget
from .hpp import InertiaRelaxParams, _vec
from .records import RunResult

__all__ = [
    "SplitTriple",
    "DRParams",
    "ResolventMap",
    "run_dr",
    "run_hpp",
    "classical_dr_step",
]


@dataclass
class SplitTriple:
    """State of the splitting recursion: candidate pair (s, b) and point r,
    built as :class:`irsplit.admm.PrimalDualTriple` builds its components."""

    s: np.ndarray
    b: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        self.s, self.b, self.r = (_vec(getattr(self, n), n) for n in "sbr")
        if not (self.s.shape == self.b.shape == self.r.shape):
            raise ValueError("triple components must share one shape")


@dataclass(frozen=True)
class DRParams:
    """Scaling gamma, engine parameters, and the inner-trial budget,
    checked as :class:`irsplit.admm.ADMMParams` checks its values; gamma
    must be positive with a finite, positive 1/gamma."""

    gamma: float
    core: InertiaRelaxParams
    inner_budget: int = 10_000

    def __post_init__(self):
        gamma = self.gamma
        if not (gamma > 0.0 and 0.0 < 1.0 / gamma < math.inf):
            raise ParameterError("gamma > 0 and 0 < 1/gamma < inf violated")
        _check_budget(self.inner_budget, "inner_budget", 1)


class ResolventMap(Protocol):
    """Exact single-valued resolvent u -> (I + gamma A)^{-1}(u).

    The protocol of the engine's operators too: an operator of
    :mod:`irsplit.operators` serves as the A-resolvent here, and inside an
    ``ExactBProcedure`` or a ``PerturbedBProcedure``, as it is, and so
    does the l1 map :class:`irsplit.problems.L1ShiftedProx`.
    """

    def resolvent(self, gamma: float, u: np.ndarray) -> np.ndarray:
        ...


def run_dr(init: SplitTriple, params: DRParams, fproc: FProcedure,
           resolvent: ResolventMap, max_outer: int = 1000,
           sr_tolerance: float = 0.0,
           observer: Optional[Callable[[dict], None]] = None) -> RunResult:
    """Drive the splitting from ``init`` until ||s - r|| <= sr_tolerance.

    ``fproc`` is an F-procedure for B (:class:`irsplit.admm.FProcedure`),
    such as an F-procedure of :mod:`irsplit.subsolvers` for B = grad f or
    ``ExactBProcedure`` / ``CGBProcedure``.  ``resolvent`` is the exact
    A-resolvent, any :class:`ResolventMap`, for example an operator of
    :mod:`irsplit.operators` or a problem's ``prox_g`` as it is.

    The run stops with status ``solved`` on the exact coincidence s = r,
    where that point solves the inclusion, and with status ``converged``
    on 0 < ||s - r|| <= ``sr_tolerance``.  Constant schedules
    alpha_k = alpha and rho_k = rho_hi are used.  When ``max_outer`` runs
    out the partial result is returned with status ``budget_exceeded``.
    The result's ``triple`` is the last :class:`SplitTriple` and its ``x``
    is r, the A-side iterate (its resolvent is exact, so e.g. an l1
    operator yields exact sparsity there); s and r coincide in the limit.

    A ``max_outer`` that is not a nonnegative integer, or a negative or NaN
    ``sr_tolerance``, raises ``ParameterError`` at entry, and ``init`` is
    checked again as a new :class:`SplitTriple`; ``params`` checked itself
    when it was built.  After entry a run fails as
    :func:`irsplit.admm.run_admm` does, with status ``stalled`` or
    ``error``, the last completed triple and ``record.cause``.

    The run is the loop of :func:`irsplit.admm.run_admm` with the
    summed-squares test and no KKT test, under (x, z, p, c) = (s, r, -b,
    1/gamma).  ``fproc`` is driven as an ADMM run drives it, anchored
    session start included.

    Once the outer iterates reach the machine-precision floor the relative
    acceptance test has no room left (its right side vanishes while the
    left side is rounding noise), so the run ends ``stalled``; give a
    positive ``sr_tolerance`` for runs expected to go that far.

    ``observer`` gets the events of :func:`irsplit.admm.run_admm`, in its
    variables: ``(s, b, r) = (x, -p, z)``; their ``kkt`` is NaN, as the
    run has no KKT test.
    """
    if not sr_tolerance >= 0.0:
        raise ParameterError("sr_tolerance >= 0 violated")
    init = SplitTriple(init.s, init.b, init.r)
    gamma = params.gamma
    loop_params = ADMMParams(1.0 / gamma, params.core, Criterion.SUM_SQUARES,
                             inner_budget=params.inner_budget,
                             max_outer=max_outer)
    # the shifted prox is the A half-step J_{gamma A}(x + gamma p), and the
    # result's triple is built once, in the splitting variables
    return _run(fproc.open_session,
                lambda p, x, c: resolvent.resolvent(gamma, x + gamma * p),
                None, None, loop_params, (init.s, init.r, -init.b), observer,
                gap_tol=sr_tolerance,
                triple=lambda x, z, p: SplitTriple(x, -p, z))


# J_{gamma A} of A = 0
_IDENTITY = SimpleNamespace(resolvent=lambda gamma, u: u)


def run_hpp(z0, fproc: FProcedure, params: InertiaRelaxParams,
            max_iters: int = 1000, v_tolerance: float = 0.0,
            observer: Optional[Callable[[dict], None]] = None) -> RunResult:
    """Drive the engine on T from ``z0`` until v = 0, ||v|| <= v_tolerance
    or ``max_iters`` iterations: :func:`run_dr` with A = 0 and gamma = 1
    from the triple (z0, 0, z0), whose statuses, failures and events it
    returns as they are.

    ``fproc`` is an F-procedure for T (:class:`irsplit.admm.FProcedure`),
    such as ``ExactBProcedure`` or ``PerturbedBProcedure``: at penalty 1 a
    trial (x, y) is the engine pair (z_tilde, v) = (x, y - x + w) at the
    extrapolated point w, and the loop's test is the engine's.  An event's
    w, z_tilde and next iterate are z_hat - p_hat, z - p_l and z - p.  The
    result's ``x`` is the engine point r + b of the last triple, and
    ``record.final_kkt`` its ||s - r||, the last ||v||.  A ``z0`` that is
    not a finite 1-D array raises ``ValueError``; ``max_iters`` and
    ``v_tolerance`` are checked as ``max_outer`` and ``sr_tolerance``.
    """
    z0 = _vec(z0, "z0")
    res = run_dr(SplitTriple(z0, np.zeros_like(z0), z0), DRParams(1.0, params),
                 fproc, _IDENTITY, max_iters, v_tolerance, observer)
    res.x = res.triple.r + res.triple.b
    return res


def classical_dr_step(z: np.ndarray, gamma: float, resolvent_a: ResolventMap,
                      resolvent_b: ResolventMap) -> np.ndarray:
    """One step of the classical splitting recursion (oracle for tests).

    z_next = J_{gamma A}(2 J_{gamma B}(z) - z) + z - J_{gamma B}(z), each
    J the ``resolvent(gamma, .)`` of a :class:`ResolventMap`.
    """
    if not gamma > 0.0:
        raise ParameterError("gamma > 0 violated")
    jb = resolvent_b.resolvent(gamma, z)
    return resolvent_a.resolvent(gamma, 2.0 * jb - z) + z - jb

