"""Proximal-projection engine: its kernels, runs, descent diagnostics.

The engine runs as the splitting loop with A = 0 (``run_hpp``), so its
pairs are F-procedure trials: at penalty 1 a trial (x, y) at the
extrapolated point w is the engine's pair (z_tilde, v) = (x, y - x + w),
and the loop's acceptance test is the engine's relative-error test."""

import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import irsplit as ir
from irsplit.errors import ParameterError
from irsplit.hpp import _extrapolate, _s_bound, rho_bar_of_beta
from irsplit.operators import (AffineOperator, CGBProcedure, ExactBProcedure,
                               PerturbedBProcedure)
from irsplit.problems import L1ShiftedProx

import reference
from conftest import Collector, accepted_certificate_sampler, engine_steps


def exact_identity(n=1):
    return ExactBProcedure(AffineOperator(np.eye(n)))


def rotation_operator():
    # rotation plus a small symmetric part: monotone, single zero at 0
    return AffineOperator(np.array([[0.1, 1.0], [-1.0, 0.1]]))


# ---------------------------------------------------------------------------
# extrapolate
# ---------------------------------------------------------------------------

def test_extrapolate_no_inertia():
    z = np.array([1.0, -2.0])
    assert np.array_equal(_extrapolate(z, np.array([5.0, 5.0]), 0.0), z)


def test_extrapolate_first_iteration():
    z = np.array([1.0, -2.0])
    assert np.array_equal(_extrapolate(z, z, 0.7), z)


def test_extrapolate_arithmetic():
    w = _extrapolate(np.array([1.0, 0.0]), np.array([0.0, 0.0]), 0.5)
    assert np.allclose(w, [1.5, 0.0], atol=0)


def test_a_stepsize_in_an_old_call_form_raises():
    """The engine has no stepsize: a ``lam`` given to the parameters or to
    ``run_hpp``, and a sixth positional parameter, each raise
    ``TypeError`` instead of being ignored or read as another argument.
    An F-procedure's stepsize is 1/c, and the engine runs at c = 1."""
    with pytest.raises(TypeError):
        ir.InertiaRelaxParams(0.0, 1.0 / 3.0, 0.5, 1.0, 1.0, lam=0.5)
    with pytest.raises(TypeError):
        ir.InertiaRelaxParams(0.0, 1.0 / 3.0, 0.5, 1.0, 1.0, 0.5)
    with pytest.raises(TypeError):
        ir.run_hpp(np.ones(2), exact_identity(2),
                   ir.InertiaRelaxParams.plain(), lam=0.5)


NAN_MAT = [[math.nan, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("build, error, match", [
    (lambda: L1ShiftedProx(-1.0), ParameterError, r"\bnu\b"),
    (lambda: L1ShiftedProx(math.nan), ParameterError, r"\bnu\b"),
    (lambda: L1ShiftedProx(math.inf), ParameterError, r"\bnu\b"),
    (lambda: AffineOperator(NAN_MAT), ValueError, "mat"),
    (lambda: AffineOperator(np.eye(2), [math.inf, 0.0]), ValueError, "shift"),
    (lambda: AffineOperator(-np.eye(2)), ParameterError, "semidefinite"),
    (lambda: CGBProcedure(NAN_MAT), ValueError, "mat"),
    (lambda: CGBProcedure(np.eye(2), [0.0, -math.inf]), ValueError, "shift"),
    (lambda: CGBProcedure(-0.5 * np.eye(2)), ParameterError, "semidefinite"),
    (lambda: CGBProcedure([[1.0, 2.0], [0.0, 1.0]]), ParameterError,
     "symmetric"),
], ids=["l1_negative", "l1_nan", "l1_inf", "affine_nan_mat",
        "affine_inf_shift", "affine_not_monotone", "cg_nan_mat", "cg_inf_shift",
        "cg_not_monotone", "cg_not_symmetric"])
def test_catalog_refuses_bad_data_when_built(build, error, match):
    """A resolvent or procedure refuses a negative, NaN or infinite l1
    weight nu, a non-finite matrix or shift, and a matrix that is not
    monotone or, for CG, not symmetric, when it is built, not in a run
    that promises a status: a NaN passes the PSD check, the l1 map
    checked its weight only inside the loop, and CG ran on with a
    non-monotone Q + c I that was still SPD, or stalled on a
    non-symmetric one."""
    with pytest.raises(error, match=match):
        build()


# ---------------------------------------------------------------------------
# acceptance test and bounds
# ---------------------------------------------------------------------------

class PairThenExact:
    """An F-procedure whose session emits the engine pair (z_tilde, v) at
    w = z - p (c = 1) as the trial (z_tilde, v + z_tilde - w), then the
    pair (z_tilde, 0), exact for an operator with w - z_tilde in
    T(z_tilde), which passes at any sigma."""

    def __init__(self, z_tilde, v):
        self.z_tilde, self.v = z_tilde, v

    def open_session(self, p, z, c, x_bar, anchor=None):
        w = z - p
        trials = iter([(self.z_tilde, self.v + self.z_tilde - w),
                       (self.z_tilde, np.zeros_like(w))])
        return SimpleNamespace(next=trials.__next__)


def first_step(w, z_tilde, v, sigma):
    """The one-step engine run from w whose first trial is the pair
    (z_tilde, v): it spends 1 trial when the loop's relative-error test
    accepts the pair, and 2 when the test refuses it."""
    return ir.run_hpp(w, PairThenExact(z_tilde, v),
                      ir.InertiaRelaxParams.plain(sigma), max_iters=1)


def test_error_criterion_exact_pair_sigma_zero():
    w = np.array([1.0, 0.5])
    v = np.array([0.25, -0.125])  # dyadic so w - v is exact
    assert first_step(w, w - v, v, 0.0).inner_iters_total == 1


def test_error_criterion_sigma_zero_rejects_residual():
    w = np.array([1.0, 0.0])
    res = first_step(w, np.array([0.5, 0.0]), np.array([0.25, 0.0]), 0.0)
    assert res.inner_iters_total == 2


def test_error_criterion_worked_instance():
    """LHS = 0.01 and RHS = sigma^2 (0.16 + 0.25) = 0.41 sigma^2: the
    loop accepts the pair down to sigma = 0.156 and refuses it below, as
    the engine's test does."""
    w, z_tilde, v = np.array([1.0, 0.0]), np.array([0.6, 0.0]), np.array(
        [0.5, 0.0])
    for sigma, trials in ((0.5, 1), (0.16, 1), (0.15, 2)):
        assert first_step(w, z_tilde, v, sigma).inner_iters_total == trials
        assert reference.error_criterion(w, z_tilde, v, sigma) == (
            trials == 1)


def test_gauss_bounds_collapse_at_sigma_zero():
    w = np.array([2.0, -1.0])
    v = np.array([0.5, 0.25])
    assert reference.gauss_bounds(w, w - v, v, 0.0)


def test_gauss_bounds_worked_instance():
    w = np.array([1.0, 0.0])
    assert reference.gauss_bounds(w, np.array([0.6, 0.0]),
                                  np.array([0.5, 0.0]), 0.5)


def test_acceptance_implies_gauss_bounds_sampled():
    rng = np.random.default_rng(42)
    sampler = accepted_certificate_sampler(rng)
    for _ in range(2000):
        assert reference.gauss_bounds(*next(sampler))


def test_zero_v_iff_fixed_point():
    rng = np.random.default_rng(3)
    sampler = accepted_certificate_sampler(rng)
    for _ in range(200):
        w, z_tilde, v, sigma = next(sampler)
        assert np.any(z_tilde != w)  # v != 0 on these draws
    w = np.array([1.0, 2.0])
    moved = first_step(w, np.array([0.9, 2.0]), np.zeros(2), 0.9)
    assert moved.inner_iters_total == 2
    fixed = first_step(w, w.copy(), np.zeros(2), 0.9)
    assert (fixed.status, fixed.inner_iters_total) == ("solved", 1)
    assert np.array_equal(fixed.x, w)


# ---------------------------------------------------------------------------
# relaxed projection
# ---------------------------------------------------------------------------

def constant_step(w, v, rho):
    """The engine point after one exact step from w on the constant
    operator T = v, whose resolvent point is w - v, at relaxation rho."""
    params = ir.InertiaRelaxParams(0.0, 1.0 / 3.0, 0.0, rho, rho)
    return ir.run_hpp(w, ExactBProcedure(AffineOperator(
        np.zeros((len(w), len(w))), v)), params, max_iters=1).x


def test_relaxed_projection_exact_unit_relaxation():
    w = np.array([1.0, 0.5])
    v = np.array([0.25, -0.125])
    assert np.allclose(constant_step(w, v, 1.0), w - v, atol=1e-15)


def test_relaxed_projection_overrelaxed_instance():
    z_next = constant_step(np.array([1.0, 0.0]), np.array([1.0, 0.0]), 1.5)
    assert np.allclose(z_next, [-0.5, 0.0], atol=0)


# ---------------------------------------------------------------------------
# single iterations
# ---------------------------------------------------------------------------

def test_iterate_identity_operator_halves():
    params = ir.InertiaRelaxParams.plain(sigma=0.0)
    events = Collector()
    res = ir.run_hpp(np.array([1.0]), exact_identity(), params,
                     max_iters=1, observer=events)
    assert res.status == "budget_exceeded"
    assert res.x[0] == pytest.approx(0.5, abs=1e-15)
    assert events[0].theta == pytest.approx(1.0)  # the engine's tau


def test_fifty_iterations_geometric():
    params = ir.InertiaRelaxParams.plain(sigma=0.0)
    events = Collector()
    res = ir.run_hpp(np.array([1.0]), exact_identity(), params,
                     max_iters=50, observer=events)
    assert (res.status, res.record.outer_iters, len(events)) == (
        "budget_exceeded", 50, 50)
    assert res.x[0] == pytest.approx(2.0 ** -50, rel=1e-12)


def test_iterate_already_solved():
    params = ir.InertiaRelaxParams.plain(sigma=0.0)
    events = Collector()
    res = ir.run_hpp(np.zeros(3), exact_identity(3), params,
                     max_iters=1, observer=events)
    assert (res.status, res.record.status) == ("solved", "converged")
    assert res.record.outer_iters == len(events) == 0
    assert res.record.final_kkt == 0.0
    assert np.array_equal(res.x, np.zeros(3))


class BogusProcedure:
    """Counts its sessions and trials; every trial is the pair (w + 10,
    1), which fails the relative-error test at any sigma below 1."""

    def __init__(self):
        self.calls = self.trials = 0

    def open_session(self, p, z, c, x_bar, anchor=None):
        self.calls += 1
        x = z - p + 10.0
        return SimpleNamespace(next=lambda: self._trial(x))

    def _trial(self, x):
        self.trials += 1
        return x, np.ones_like(x) + 10.0


def test_iterate_reports_bad_certificate():
    """A refused pair is retried, as in every layer, and a procedure whose
    pairs never pass spends the inner budget: the run ends ``stalled`` at
    its start."""
    params = ir.InertiaRelaxParams.plain(sigma=0.1)
    events = Collector()
    proc = BogusProcedure()
    res = ir.run_hpp(np.ones(2), proc, params, max_iters=1, observer=events)
    assert (res.status, res.record.status) == ("stalled", "budget_exceeded")
    assert res.record.outer_iters == len(events) == 0
    assert (proc.calls, proc.trials) == (1, 10_000)
    assert res.record.cause == ("inner budget spent in a session at outer "
                                "iteration 0")
    assert np.array_equal(res.x, np.ones(2))


def test_unit_relaxation_exact_is_proximal_step():
    """rho = 1 with an exact certificate reproduces z_next = J_{lam T}(w):
    the engine's unit step on the operator lam T is the proximal step of T
    at stepsize lam, whose resolvent point it takes bit for bit."""
    op = rotation_operator()
    fproc = ExactBProcedure(AffineOperator(0.7 * op.mat))
    params = ir.InertiaRelaxParams.plain(sigma=0.0)
    rng = np.random.default_rng(0)
    for _ in range(10):
        z = rng.standard_normal(2)
        events = Collector()
        res = ir.run_hpp(z, fproc, params, max_iters=1, observer=events)
        expected = op.resolvent(0.7, z)
        assert np.array_equal(events[0].x, expected)  # z_tilde
        assert np.linalg.norm(res.x - expected) <= 1e-12


def test_nan_start_raises_before_any_oracle_call():
    proc = BogusProcedure()
    with pytest.raises(ValueError, match="z0 has non-finite"):
        ir.run_hpp(np.array([0.0, np.nan]), proc,
                   ir.InertiaRelaxParams.plain(sigma=0.1), max_iters=10)
    assert proc.calls == 0


class Untouched:
    """An F-procedure, prox and resolvent that only counts its calls."""

    calls = 0

    def solve(self, *args):
        self.calls += 1

    open_session = resolvent = solve


def _changed(triple, name, v):
    """A triple built valid on ones(2), whose ``name`` is then set to v."""
    t = triple(np.ones(2), np.ones(2), np.ones(2))
    setattr(t, name, v)
    return t


_PLAIN = ir.InertiaRelaxParams.plain()
_ENTRIES = {
    "run_hpp": (lambda v, stub: ir.run_hpp(v, stub, _PLAIN), "z0"),
    "fejer_check": (lambda v, stub: ir.fejer_check([], v, _PLAIN),
                    "z_star"),
    "alvarez_attouch_z0": (lambda v, stub: ir.alvarez_attouch_check(
        [], v, np.zeros(2), _PLAIN), "z0"),
    "alvarez_attouch_z_star": (lambda v, stub: ir.alvarez_attouch_check(
        [], np.zeros(2), v, _PLAIN), "z_star"),
    "primal_dual_triple": (lambda v, stub: ir.run_admm(
        ir.AdmmProblem(stub, stub, lambda z, floor, screen: (1.0, None)),
        ir.ADMMParams(1.0, _PLAIN), init=ir.PrimalDualTriple(v, v, v)), "x"),
    "split_triple": (lambda v, stub: ir.run_dr(
        ir.SplitTriple(v, v, v), ir.DRParams(1.0, _PLAIN), stub, stub), "s"),
    "primal_dual_triple_changed": (lambda v, stub: ir.run_admm(
        ir.AdmmProblem(stub, stub, lambda z, floor, screen: (1.0, None)),
        ir.ADMMParams(1.0, _PLAIN), init=_changed(ir.PrimalDualTriple, "x",
                                                  v)), "x"),
    "split_triple_changed": (lambda v, stub: ir.run_dr(
        _changed(ir.SplitTriple, "s", v), ir.DRParams(1.0, _PLAIN), stub,
        stub), "s"),
}


@pytest.mark.parametrize("vector", [np.ones((2, 1)), np.float64(1.0)],
                         ids=["column", "scalar"])
@pytest.mark.parametrize("entry", _ENTRIES)
def test_every_entry_refuses_a_vector_that_is_not_1d(entry, vector):
    """Every layer states one rule for a vector where it enters: a finite
    1-D float array (``hpp._vec``).  A column or a 0-D value is not
    flattened but raises ``ValueError`` naming the argument and its shape,
    before any session, prox or resolvent call.  A splitting start is
    refused when its triple is built, and again at the driver's entry when
    a component was set after that."""
    enter, name = _ENTRIES[entry]
    stub = Untouched()
    message = f"{name} must be 1-D, got shape {np.shape(vector)}"
    with pytest.raises(ValueError, match=re.escape(message)):
        enter(vector, stub)
    assert stub.calls == 0


@pytest.mark.parametrize("operator, z0, outer", [
    (AffineOperator(np.eye(1)), [1.0], 537),
    (rotation_operator(), [3.0, -1.0], 942),
    (rotation_operator(), [1e-170, 0.0], 0),
], ids=["identity", "rotation", "tiny_start"])
def test_underflowing_v_ends_as_solved(operator, z0, outer):
    """A nonzero v whose squared norm underflows to 0 leaves no hyperplane
    to project onto: the run ends as ``solved`` at the certificate's point,
    as every layer does when ||x - z||^2 underflows, and raises nothing.
    Without a stopping tolerance the first two runs get there after
    hundreds of iterations; the tiny start at once."""
    events = Collector()
    res = ir.run_hpp(np.array(z0), ExactBProcedure(operator),
                     ir.InertiaRelaxParams.plain(sigma=0.0), max_iters=2000,
                     observer=events)
    assert (res.status, res.record.status) == ("solved", "converged")
    assert res.record.outer_iters == len(events) == outer
    assert res.record.final_kkt == 0.0
    assert res.record.cause == ""
    assert np.all(res.x != 0.0)
    assert np.linalg.norm(res.x) < 1e-160


class OverflowingProcedure:
    """Exact pairs of the rotation until session ``at``, then an exact
    pair (far, 0) whose point is so far from w that the A half-step of the
    loop overflows to a non-finite trial."""

    def __init__(self, at):
        self.fproc = ExactBProcedure(rotation_operator())
        self.at = at
        self.calls = 0

    def open_session(self, p, z, c, x_bar, anchor=None):
        self.calls += 1
        if self.calls > self.at:
            far = np.full_like(z, -1.5e308)
            return SimpleNamespace(next=lambda: (far, np.zeros_like(far)))
        return self.fproc.open_session(p, z, c, x_bar, anchor)


def test_nonfinite_iterate_is_an_error_status():
    """A pair that overflows in the loop ends the run with status
    ``error``, the outer iteration in ``record.cause``, and the last
    completed iterate and its ||v|| in the result.  The overflowing pair is
    exact, so its residual is 0 and the test would pass at any sigma."""
    events = Collector()
    res = ir.run_hpp(np.array([3.0, -1.0]), OverflowingProcedure(3),
                     ir.InertiaRelaxParams.plain(sigma=0.5), max_iters=50,
                     observer=events)
    assert (res.status, res.record.status) == ("error", "error")
    assert res.record.outer_iters == len(events) == 3
    assert res.record.cause.startswith("non-finite trial")
    assert res.record.cause.endswith("at outer iteration 3")
    assert np.array_equal(res.x, events[-1].z - events[-1].p)
    last = float(np.linalg.norm(events[-1].x - events[-1].z))
    assert res.record.final_kkt == last > 0.0


def test_an_exact_pair_whose_squared_norms_overflow_is_a_nonfinite_trial():
    """An exact pair whose ||v||^2 overflows leaves the projection no
    finite coefficient: the run names the trial at once, before the
    acceptance test reads its zero residual, and returns the start."""
    w = np.array([1e200, -1e200])
    res = ir.run_hpp(w, exact_identity(2), ir.InertiaRelaxParams.plain(0.0))
    assert (res.status, res.record.outer_iters) == ("error", 0)
    assert res.record.cause == ("non-finite trial (||x - z||^2 = inf, "
                                "||t||^2 = inf) at outer iteration 0")
    assert np.array_equal(res.x, w)


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def test_run_identity_converges_quickly():
    params = ir.InertiaRelaxParams.plain(sigma=0.0)
    res = ir.run_hpp(np.array([1.0]), exact_identity(), params,
                     max_iters=100, v_tolerance=1e-8)
    assert res.status == "converged"
    assert res.record.outer_iters <= 40


def test_run_budget_zero():
    """No iteration: the start, with ||s - r|| = 0 of the start triple as
    ``final_kkt``."""
    params = ir.InertiaRelaxParams.plain(sigma=0.0)
    res = ir.run_hpp(np.array([2.0]), exact_identity(), params,
                     max_iters=0)
    assert res.status == "budget_exceeded"
    assert res.record.status == "budget_exceeded"
    assert res.record.outer_iters == 0
    assert res.record.final_kkt == 0.0
    assert np.array_equal(res.x, [2.0])


def test_run_budget_reports_the_last_v_norm():
    """A run that exhausts its budget reports the last certificate's ||v||
    as ``final_kkt``."""
    params = ir.InertiaRelaxParams.plain(sigma=0.0)
    events = Collector()
    res = ir.run_hpp(np.array([3.0, -1.0]), ExactBProcedure(
        rotation_operator()), params, max_iters=5, observer=events)
    assert res.status == res.record.status == "budget_exceeded"
    assert len(events) == 5
    last = float(np.linalg.norm(events[-1].x - events[-1].z))  # v = s - r
    assert 0.0 < res.record.final_kkt == last


def test_run_rotation_converges_with_fejer():
    fproc = ExactBProcedure(rotation_operator())
    params = ir.InertiaRelaxParams.plain(sigma=0.0)
    events = Collector()
    res = ir.run_hpp(np.array([3.0, -1.0]), fproc, params, max_iters=2000,
                     v_tolerance=1e-10, observer=events)
    assert res.status == "converged"
    assert np.linalg.norm(res.x) <= 1e-8
    assert ir.fejer_check(engine_steps(events), np.zeros(2), params,
                          rel_tol=0.0) is None


def test_run_inertial_perturbed_descent_and_summability():
    fproc = PerturbedBProcedure(rotation_operator(), seed=5)
    params = ir.InertiaRelaxParams.from_beta(alpha=0.18, beta=0.18976,
                                             sigma=0.9)
    z0 = np.array([2.0, 1.0])
    events = Collector()
    res = ir.run_hpp(z0, fproc, params, max_iters=4000, v_tolerance=1e-9,
                     observer=events)
    assert res.status == "converged"
    z_star = np.zeros(2)
    steps = engine_steps(events)
    assert ir.fejer_check(steps, z_star, params, rel_tol=1e-9) is None
    assert ir.alvarez_attouch_check(steps, z0, z_star, params,
                                    rel_tol=1e-9) is None
    assert any(ev.trials > 1 for ev in events)  # some pairs were refused
    # ||z^k - z^{k-1}||^2 at the entry of step k, with z^{-1} = z^0
    iterates = [z0, z0] + [z_next for _, _, z_next in steps[:-1]]
    increments = [float((b - a) @ (b - a))
                  for a, b in zip(iterates, iterates[1:])]
    assert sum(increments) < 1e3
    assert max(increments[-5:]) <= 1e-12
    for ev, (w, z_tilde, z_next) in zip(events, steps):
        assert _s_bound(z_next, w, z_tilde, params) >= 0.0
        assert reference.error_criterion(w, z_tilde, ev.x - ev.z,
                                         params.sigma)


def test_alvarez_attouch_bound_carries_the_inertia_factor():
    """The partial-sum bound weighs the summed delta_k by 1/(1 - alpha).  A
    constructed trajectory with zero slack (each step's w, z_tilde and
    z_next coincide) goes from z^0 = 1 to z^1 = 0 and on to z^2, so its
    bound at the last step is phi_0 + delta_1 / (1 - alpha) with delta_1 =
    alpha (1 + alpha).  A last distance between phi_0 + delta_1 and that
    bound passes; one above the bound fails at that step."""
    params = ir.InertiaRelaxParams.from_beta(alpha=0.18, beta=0.18976,
                                             sigma=0.9)
    alpha = params.alpha
    delta = alpha * (1.0 + alpha)
    z0, z_star = np.array([1.0]), np.zeros(1)
    for phi2, verdict in ((1.0 + 0.5 * (delta + delta / (1.0 - alpha)), None),
                          (1.0 + 1.1 * delta / (1.0 - alpha), 1)):
        steps = [(z,) * 3 for z in (np.zeros(1), np.array([math.sqrt(phi2)]))]
        assert ir.alvarez_attouch_check(steps, z0, z_star, params,
                                        rel_tol=1e-9) == verdict


@pytest.mark.parametrize("lengths, verdict", [((0.5,), None), ((2.0,), 0),
                                              ((0.5, 2.0), 1)])
def test_fejer_check_reports_the_first_step_that_moves_away(lengths,
                                                            verdict):
    """Steps of a constructed trajectory along one direction e, each from
    w = z* + l_prev e to z_next = z* + l e with z_tilde = w (so the slack
    is (l - l_prev)^2 at unit relaxation): a step to half the distance
    passes, a step to twice the distance violates the inequality, and the
    check returns the index of the first violating step."""
    params = ir.InertiaRelaxParams.plain()
    z_star, e = np.array([1.0, -2.0]), np.array([0.6, 0.8])
    points = [z_star + length * e for length in (1.0,) + lengths]
    steps = [(w, w, z_next) for w, z_next in zip(points, points[1:])]
    assert ir.fejer_check(steps, z_star, params, rel_tol=1e-9) == verdict


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       skew=st.floats(0.0, 5.0), beta=st.floats(0.02, 0.9),
       frac=st.floats(0.0, 0.99), sigma=st.floats(0.0, 0.95))
def test_run_traces_are_fejer_monotone(n, seed, skew, beta, frac, sigma):
    """Fejer descent and the inertial partial-sum bound hold at every step
    of an inexact run, for any admissible (alpha, beta, rho, sigma), on
    monotone affine operators M z + q with a skew part of any size."""
    rng = np.random.default_rng(seed)
    b, k = rng.standard_normal((2, n, n))
    mat = b @ b.T / n + 0.1 * np.eye(n) + skew * (k - k.T)
    q = rng.standard_normal(n)
    z_star = np.linalg.solve(mat, -q)
    rho = rho_bar_of_beta(beta)
    params = ir.InertiaRelaxParams(frac * beta, beta, sigma, rho, rho)
    fproc = PerturbedBProcedure(AffineOperator(mat, q), seed=seed)
    z0 = rng.standard_normal(n)
    events = Collector()
    res = ir.run_hpp(z0, fproc, params, max_iters=400, v_tolerance=1e-8,
                     observer=events)
    assert len(events) == res.record.outer_iters
    steps = engine_steps(events)
    assert ir.fejer_check(steps, z_star, params, rel_tol=1e-9) is None
    assert ir.alvarez_attouch_check(steps, z0, z_star, params,
                                    rel_tol=1e-9) is None


def test_stationary_start_is_solution():
    fproc = ExactBProcedure(rotation_operator())
    params = ir.InertiaRelaxParams.plain(sigma=0.0)
    res = ir.run_hpp(np.zeros(2), fproc, params, max_iters=10)
    assert res.status == "solved"
    assert res.record.outer_iters == 0


def reference_hpp(z0, fproc, params, v_tolerance, max_iters):
    """Straight-line engine as the splitting loop with A = 0 runs it, from
    the formulas of ``tests/reference.py``: the triple (x, z, p) starts at
    (z0, z0, 0), the penalty is 1, the A half-step is the identity, z_l =
    x_l + p_l, and the summed-squares test accepts.  Returns the triple
    after each completed iteration and the accepted trial's triple that
    stops the run on ||x_l - z_l|| <= v_tolerance, or None."""
    x = z = z0
    p = np.zeros_like(z0)
    x_prev, z_prev, p_prev = x, z, p
    triples, session = [], None
    for _ in range(max_iters):
        x_hat = reference.extrapolate(x, x_prev, params.alpha)
        z_hat = reference.extrapolate(z, z_prev, params.alpha)
        p_hat = reference.extrapolate(p, p_prev, params.alpha)
        session = fproc.open_session(p_hat, z_hat, 1.0, x_hat,
                                     (session, params.alpha))
        while True:
            x_l, y_l = session.next()
            p_l = reference.multiplier(p_hat, x_l, z_hat, y_l, 1.0)
            z_l = x_l + p_l
            if reference.accept(y_l, p_l, p_hat, z_l, z_hat, x_l, 1.0,
                                params.sigma, False):
                break
        if np.linalg.norm(x_l - z_l) <= v_tolerance:
            return triples, (x_l, z_l, p_l)
        th = reference.theta(p_hat, z_hat, x_l, z_l, p_l, 1.0)
        p_next = reference.p_update(p_hat, z_hat, z_l, x_l,
                                    params.rho_hi * th, 1.0)
        x_prev, z_prev, p_prev = x, z, p
        x, z, p = x_l, z_l, p_next
        triples.append((x, z, p))
    return triples, None


def test_observer_sees_every_iteration_unchanged():
    """One event per iteration, each holding the arrays the run went on
    with: they still equal the copies taken when the event arrived, and
    the iterates are bit for bit those of :func:`reference_hpp` on the same
    F-procedure, which holds no state: a second run on it repeats the
    first.  The result is the stopping trial's triple and its engine point
    r + b."""
    params = ir.InertiaRelaxParams.from_beta(alpha=0.18, beta=0.18976,
                                             sigma=0.9)
    z0 = np.array([2.0, 1.0])
    fproc = PerturbedBProcedure(rotation_operator(), seed=5)
    events, copies = [], []

    def observer(event):
        events.append(event)
        copies.append({k: np.copy(v) for k, v in event.items()})

    res = ir.run_hpp(z0, fproc, params, max_iters=4000, v_tolerance=1e-9,
                     observer=observer)
    assert res.status == "converged"
    assert len(events) == res.record.outer_iters > 10
    assert [event["k"] for event in events] == list(range(len(events)))
    for event, copied in zip(events, copies):
        assert set(event) == {"k", "trials", "theta", "alpha_k", "rho_k",
                              "kkt", "gap", "x_hat", "z_hat", "p_hat", "x",
                              "z", "p_l", "p"}
        assert (event["alpha_k"], event["rho_k"]) == (params.alpha,
                                                      params.rho_hi)
        assert all(np.array_equal(event[k], copied[k], equal_nan=True)
                   for k in event)

    again = ir.run_hpp(z0, fproc, params, max_iters=4000, v_tolerance=1e-9)
    assert again.record.outer_iters == res.record.outer_iters
    assert np.array_equal(again.x, res.x)
    triples, stop = reference_hpp(z0, fproc, params, 1e-9, 4000)
    assert len(triples) == len(events)
    for event, triple in zip(events, triples):
        assert all(np.array_equal(event[k], a)
                   for k, a in zip("xzp", triple))
    x, z, p = stop
    assert all(np.array_equal(a, b) for a, b in zip(
        (res.triple.s, res.triple.b, res.triple.r), (x, -p, z)))
    assert np.array_equal(res.x, z - p)


def reference_engine(z0, operator, params, iters, v_tolerance=0.0):
    """The engine's own iteration on exact pairs from the formulas of
    ``tests/reference.py``: w extrapolated, z_tilde = J(w), v = w -
    z_tilde, and the relaxed projection of w, until ||v|| <= v_tolerance.
    Returns the iterates and the number of pairs drawn."""
    z = z_prev = z0
    iterates = []
    for k in range(iters):
        w = reference.extrapolate(z, z_prev, params.alpha)
        z_tilde = operator.resolvent(1.0, w)
        if np.linalg.norm(w - z_tilde) <= v_tolerance:
            return iterates, k + 1
        z_prev, z = z, reference.project(w, z_tilde, w - z_tilde,
                                         params.rho_hi)
        iterates.append(z)
    return iterates, iters


def test_exact_runs_follow_the_engine_formulas():
    """On exact pairs the splitting loop with A = 0 is the engine's own
    iteration up to round-off: over 40 iterations on random monotone
    affine operators, the run's engine points z - p stay within 1e-13 of
    :func:`reference_engine`'s iterates, relative to the largest of them.
    A tolerance stop comes one iteration before the engine's: the loop
    stops on the accepted pair, before its projection."""
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        b, k = rng.standard_normal((2, n, n))
        mat = b @ b.T / n + 0.1 * np.eye(n) + rng.uniform(0, 5) * (k - k.T)
        operator = AffineOperator(mat, rng.standard_normal(n))
        beta = rng.uniform(0.02, 0.9)
        rho = rho_bar_of_beta(beta)
        params = ir.InertiaRelaxParams(0.9 * beta, beta, 0.5, rho, rho)
        z0 = rng.standard_normal(n)
        events = Collector()
        ir.run_hpp(z0, ExactBProcedure(operator), params, max_iters=40,
                   observer=events)
        expected, _ = reference_engine(z0, operator, params, len(events))
        scale = max(float(np.linalg.norm(z)) for z in [z0] + expected)
        for ev, z in zip(events, expected):
            assert np.linalg.norm(ev.z - ev.p - z) <= 1e-13 * scale
        res = ir.run_hpp(z0, ExactBProcedure(operator), params,
                         max_iters=1000, v_tolerance=1e-8)
        _, pairs = reference_engine(z0, operator, params, 1000, 1e-8)
        assert res.status == "converged"
        # the engine projected and counted the iteration it stopped on
        assert res.outer_iters == pairs - 1


def test_raising_observer_ends_the_run():
    class Stop(Exception):
        pass

    seen = []

    def observer(event):
        seen.append(event["k"])
        if event["k"] == 3:
            raise Stop

    with pytest.raises(Stop):
        ir.run_hpp(np.array([3.0, -1.0]),
                   ExactBProcedure(rotation_operator()),
                   ir.InertiaRelaxParams.plain(sigma=0.0), max_iters=100,
                   observer=observer)
    assert seen == [0, 1, 2, 3]
