"""Proximal-projection engine: its kernels, runs, descent diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import irsplit as ir
from irsplit.errors import ParameterError
from irsplit.hpp import (_extrapolate, _project, _s_bound, error_ratio,
                         rho_bar_of_beta)
from irsplit.operators import (AffineOperator, ExactResolventOracle,
                               PerturbedResolventOracle,
                               ScaledIdentityOperator)

import reference
from conftest import Collector, accepted_certificate_sampler, engine_steps


def exact_identity_oracle():
    return ExactResolventOracle(ScaledIdentityOperator(1.0))


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


def test_extrapolate_dimension_mismatch():
    """A point and a certificate of different shapes raise rather than
    broadcast, in both forms of the relative-error test."""
    cert = ir.ProxCertificate(np.array([0.5]), np.array([0.25]))
    for step in (ir.error_criterion_holds, error_ratio):
        with pytest.raises(ValueError, match="dimension"):
            step(np.ones(3), cert, 0.5)


def test_a_stepsize_in_an_old_call_form_raises():
    """The engine has no stepsize: a ``lam`` given to the parameters, a
    third positional field of a certificate and a stepsize passed to an
    oracle each raise ``TypeError`` instead of being ignored or read as
    another argument."""
    with pytest.raises(TypeError):
        ir.InertiaRelaxParams(0.0, 1.0 / 3.0, 0.5, 1.0, 1.0, lam=0.5)
    with pytest.raises(TypeError):
        ir.InertiaRelaxParams(0.0, 1.0 / 3.0, 0.5, 1.0, 1.0, 0.5)
    with pytest.raises(TypeError):
        ir.ProxCertificate(np.zeros(2), np.ones(2), 0.5)
    for oracle in (exact_identity_oracle(),
                   PerturbedResolventOracle(rotation_operator())):
        with pytest.raises(TypeError):
            oracle.solve(np.ones(2), 0.5, 0.5)


@pytest.mark.parametrize("weight", [-0.1, math.nan])
def test_negative_or_nan_weight_raises(weight):
    """A negative or NaN scale of the identity is rejected at entry instead
    of spreading NaN through the result."""
    with pytest.raises(ParameterError, match="mu"):
        ScaledIdentityOperator(weight)


# ---------------------------------------------------------------------------
# acceptance test and bounds
# ---------------------------------------------------------------------------

def test_error_criterion_exact_pair_sigma_zero():
    w = np.array([1.0, 0.5])
    v = np.array([0.25, -0.125])  # dyadic so w - v is exact
    cert = ir.ProxCertificate(w - v, v)
    assert ir.error_criterion_holds(w, cert, 0.0)


def test_error_criterion_sigma_zero_rejects_residual():
    w = np.array([1.0, 0.0])
    cert = ir.ProxCertificate(np.array([0.5, 0.0]), np.array([0.25, 0.0]))
    assert not ir.error_criterion_holds(w, cert, 0.0)


def test_error_criterion_worked_instance():
    w = np.array([1.0, 0.0])
    cert = ir.ProxCertificate(np.array([0.6, 0.0]), np.array([0.5, 0.0]))
    assert ir.error_criterion_holds(w, cert, 0.5)
    # LHS = 0.01, RHS = 0.25 (0.16 + 0.25)
    assert error_ratio(w, cert, 0.5) == pytest.approx(0.01 / 0.1025)


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
        w, cert, sigma = next(sampler)
        assert reference.gauss_bounds(w, cert.z_tilde, cert.v, sigma)


def test_zero_v_iff_fixed_point():
    rng = np.random.default_rng(3)
    sampler = accepted_certificate_sampler(rng)
    for _ in range(200):
        w, cert, sigma = next(sampler)
        assert np.any(cert.z_tilde != w)  # v != 0 on these draws
    w = np.array([1.0, 2.0])
    moved = ir.ProxCertificate(np.array([0.9, 2.0]), np.zeros(2))
    assert not ir.error_criterion_holds(w, moved, 0.9)
    fixed = ir.ProxCertificate(w.copy(), np.zeros(2))
    assert ir.error_criterion_holds(w, fixed, 0.9)


# ---------------------------------------------------------------------------
# relaxed projection
# ---------------------------------------------------------------------------

def test_relaxed_projection_exact_unit_relaxation():
    w = np.array([1.0, 0.5])
    v = np.array([0.25, -0.125])
    z_next = _project(w, w - v, v, v @ v, 1.0)
    assert np.allclose(z_next, w - v, atol=1e-15)


def test_relaxed_projection_overrelaxed_instance():
    v = np.array([1.0, 0.0])
    z_next = _project(np.array([1.0, 0.0]), np.zeros(2), v, v @ v, 1.5)
    assert np.allclose(z_next, [-0.5, 0.0], atol=0)


# ---------------------------------------------------------------------------
# single iterations
# ---------------------------------------------------------------------------

def test_iterate_identity_operator_halves():
    params = ir.InertiaRelaxParams.plain(sigma=0.0)
    events = Collector()
    res = ir.run_hpp(np.array([1.0]), exact_identity_oracle(), params,
                     max_iters=1, observer=events)
    assert res.status == "budget_exceeded"
    assert res.x[0] == pytest.approx(0.5, abs=1e-15)
    w, cert = events[0].w, events[0].cert
    tau = ((w - cert.z_tilde) @ cert.v) / (cert.v @ cert.v)
    assert tau == pytest.approx(1.0)


def test_fifty_iterations_geometric():
    params = ir.InertiaRelaxParams.plain(sigma=0.0)
    events = Collector()
    res = ir.run_hpp(np.array([1.0]), exact_identity_oracle(), params,
                     max_iters=50, observer=events)
    assert (res.status, res.record.outer_iters, len(events)) == (
        "budget_exceeded", 50, 50)
    assert res.x[0] == pytest.approx(2.0 ** -50, rel=1e-12)


def test_iterate_already_solved():
    params = ir.InertiaRelaxParams.plain(sigma=0.0)
    events = Collector()
    res = ir.run_hpp(np.zeros(3), exact_identity_oracle(), params,
                     max_iters=1, observer=events)
    assert (res.status, res.record.status) == ("solved", "converged")
    assert res.record.outer_iters == len(events) == 0
    assert res.record.final_kkt == 0.0
    assert np.array_equal(res.x, np.zeros(3))


class BogusOracle:
    """Counts its calls and returns a certificate that fails the
    relative-error test at any sigma below 1."""

    def __init__(self):
        self.calls = 0

    def solve(self, w, sigma):
        self.calls += 1
        return ir.ProxCertificate(w + 10.0, np.ones_like(w))


def test_iterate_reports_bad_certificate():
    params = ir.InertiaRelaxParams.plain(sigma=0.1)
    events = Collector()
    res = ir.run_hpp(np.ones(2), BogusOracle(), params, max_iters=1,
                     observer=events)
    assert (res.status, res.record.status) == ("error", "error")
    assert res.record.outer_iters == len(events) == 0
    assert res.record.cause == ("OracleFailure: certificate fails the "
                                "relative-error test at outer iteration 0")
    assert np.array_equal(res.x, np.ones(2))


def test_unit_relaxation_exact_is_proximal_step():
    """rho = 1 with an exact certificate reproduces z_next = J_{lam T}(w):
    the engine's unit step on the operator lam T is the proximal step of T
    at stepsize lam, whose resolvent point it takes bit for bit."""
    op = rotation_operator()
    oracle = ExactResolventOracle(AffineOperator(0.7 * op.mat))
    params = ir.InertiaRelaxParams.plain(sigma=0.0)
    rng = np.random.default_rng(0)
    for _ in range(10):
        z = rng.standard_normal(2)
        events = Collector()
        res = ir.run_hpp(z, oracle, params, max_iters=1, observer=events)
        expected = op.resolvent(0.7, z)
        assert np.array_equal(events[0].cert.z_tilde, expected)
        assert np.linalg.norm(res.x - expected) <= 1e-12


def test_nan_start_raises_before_any_oracle_call():
    oracle = BogusOracle()
    with pytest.raises(ValueError, match="non-finite"):
        ir.run_hpp(np.array([0.0, np.nan]), oracle,
                   ir.InertiaRelaxParams.plain(sigma=0.1), max_iters=10)
    assert oracle.calls == 0


@pytest.mark.parametrize("operator, z0, outer", [
    (ScaledIdentityOperator(1.0), [1.0], 537),
    (rotation_operator(), [3.0, -1.0], 942),
    (rotation_operator(), [1e-170, 0.0], 0),
], ids=["identity", "rotation", "tiny_start"])
def test_underflowing_v_ends_as_solved(operator, z0, outer):
    """A nonzero v whose squared norm underflows to 0 leaves no hyperplane
    to project onto: the run ends as ``solved`` at the certificate's point,
    as the splitting drivers do when ||x - z||^2 underflows, and raises
    nothing.  Without a stopping tolerance the first two runs get there
    after hundreds of iterations; the tiny start at once."""
    events = Collector()
    res = ir.run_hpp(np.array(z0), ExactResolventOracle(operator),
                     ir.InertiaRelaxParams.plain(sigma=0.0), max_iters=2000,
                     observer=events)
    assert (res.status, res.record.status) == ("solved", "converged")
    assert res.record.outer_iters == len(events) == outer
    assert res.record.final_kkt == 0.0
    assert res.record.cause == ""
    assert np.all(res.x != 0.0)
    assert np.linalg.norm(res.x) < 1e-160


class OverflowingOracle:
    """Exact certificates of the rotation until call ``at``, then an exact
    certificate whose point is so far from w that the projection step
    overflows to an infinite iterate."""

    def __init__(self, at):
        self.exact = ExactResolventOracle(rotation_operator())
        self.at = at
        self.calls = 0

    def solve(self, w, sigma):
        self.calls += 1
        if self.calls > self.at:
            return ir.ProxCertificate(np.full_like(w, -1.5e308),
                                      np.ones_like(w), exact=True)
        return self.exact.solve(w, sigma)


def test_nonfinite_iterate_is_an_error_status():
    """An iterate that overflows in the projection ends the run with status
    ``error``, the outer iteration in ``record.cause``, and the last
    completed iterate and its ||v|| in the result."""
    events = Collector()
    res = ir.run_hpp(np.array([3.0, -1.0]), OverflowingOracle(3),
                     ir.InertiaRelaxParams.plain(sigma=0.0), max_iters=50,
                     observer=events)
    assert (res.status, res.record.status) == ("error", "error")
    assert res.record.outer_iters == len(events) == 3
    assert "non-finite iterate" in res.record.cause
    assert res.record.cause.endswith("at outer iteration 3")
    assert np.array_equal(res.x, events[-1].z)
    last = float(np.linalg.norm(events[-1].cert.v))
    assert res.record.final_kkt == last > 0.0


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def test_run_identity_converges_quickly():
    params = ir.InertiaRelaxParams.plain(sigma=0.0)
    res = ir.run_hpp(np.array([1.0]), exact_identity_oracle(), params,
                     max_iters=100, v_tolerance=1e-8)
    assert res.status == "converged"
    assert res.record.outer_iters <= 40


def test_run_budget_zero():
    params = ir.InertiaRelaxParams.plain(sigma=0.0)
    res = ir.run_hpp(np.array([2.0]), exact_identity_oracle(), params,
                     max_iters=0)
    assert res.status == "budget_exceeded"
    assert res.record.status == "budget_exceeded"
    assert res.record.outer_iters == 0
    assert np.array_equal(res.x, [2.0])


def test_run_budget_reports_the_last_v_norm():
    """A run that exhausts its budget reports the last certificate's ||v||
    as ``final_kkt``."""
    params = ir.InertiaRelaxParams.plain(sigma=0.0)
    events = Collector()
    res = ir.run_hpp(np.array([3.0, -1.0]), ExactResolventOracle(
        rotation_operator()), params, max_iters=5, observer=events)
    assert res.status == res.record.status == "budget_exceeded"
    assert len(events) == 5
    last = float(np.linalg.norm(events[-1].cert.v))
    assert 0.0 < res.record.final_kkt == last


def test_run_rotation_converges_with_fejer():
    oracle = ExactResolventOracle(rotation_operator())
    params = ir.InertiaRelaxParams.plain(sigma=0.0)
    events = Collector()
    res = ir.run_hpp(np.array([3.0, -1.0]), oracle, params, max_iters=2000,
                     v_tolerance=1e-10, observer=events)
    assert res.status == "converged"
    assert np.linalg.norm(res.x) <= 1e-8
    assert ir.fejer_check(engine_steps(events), np.zeros(2), params,
                          rel_tol=0.0) is None


def test_run_inertial_perturbed_descent_and_summability():
    oracle = PerturbedResolventOracle(rotation_operator(), seed=5)
    params = ir.InertiaRelaxParams.from_beta(alpha=0.18, beta=0.18976,
                                             sigma=0.9)
    z0 = np.array([2.0, 1.0])
    events = Collector()
    res = ir.run_hpp(z0, oracle, params, max_iters=4000, v_tolerance=1e-9,
                     observer=events)
    assert res.status == "converged"
    z_star = np.zeros(2)
    steps = engine_steps(events)
    assert ir.fejer_check(steps, z_star, params, rel_tol=1e-9) is None
    assert ir.alvarez_attouch_check(steps, z0, z_star, params,
                                    rel_tol=1e-9) is None
    # ||z^k - z^{k-1}||^2 at the entry of step k, with z^{-1} = z^0
    iterates = [z0, z0] + [ev.z for ev in events[:-1]]
    increments = [float((b - a) @ (b - a))
                  for a, b in zip(iterates, iterates[1:])]
    assert sum(increments) < 1e3
    assert max(increments[-5:]) <= 1e-12
    for ev in events:
        assert _s_bound(ev.z, ev.w, ev.cert.z_tilde, params) >= 0.0
        assert error_ratio(ev.w, ev.cert, params.sigma) <= 1.0 + 1e-12


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
    oracle = PerturbedResolventOracle(AffineOperator(mat, q), seed=seed)
    z0 = rng.standard_normal(n)
    events = Collector()
    res = ir.run_hpp(z0, oracle, params, max_iters=400, v_tolerance=1e-8,
                     observer=events)
    assert len(events) == res.record.outer_iters
    steps = engine_steps(events)
    assert ir.fejer_check(steps, z_star, params, rel_tol=1e-9) is None
    assert ir.alvarez_attouch_check(steps, z0, z_star, params,
                                    rel_tol=1e-9) is None


def test_stationary_start_is_solution():
    oracle = ExactResolventOracle(rotation_operator())
    params = ir.InertiaRelaxParams.plain(sigma=0.0)
    res = ir.run_hpp(np.zeros(2), oracle, params, max_iters=10)
    assert res.status == "solved"
    assert res.record.outer_iters == 0


def reference_hpp(z0, oracle, params, iters):
    """Straight-line engine from the formulas of ``tests/reference.py``,
    with the constant schedule alpha_k = alpha and rho_k = rho_hi.  Returns
    the extrapolated point and the next iterate of each of ``iters``
    iterations."""
    z = z_prev = z0
    steps = []
    for _ in range(iters):
        w = reference.extrapolate(z, z_prev, params.alpha)
        cert = oracle.solve(w, params.sigma)
        assert cert.exact or reference.error_criterion(
            w, cert.z_tilde, cert.v, params.sigma)
        z_prev, z = z, reference.project(w, cert.z_tilde, cert.v,
                                         params.rho_hi)
        steps.append((w, z))
    return steps


def test_observer_sees_every_iteration_unchanged():
    """One event per iteration, each holding the arrays the run went on
    with: they still equal the copies taken when the event arrived, and
    the iterates are bit for bit those of :func:`reference_hpp` on an
    oracle with the same seed."""
    params = ir.InertiaRelaxParams.from_beta(alpha=0.18, beta=0.18976,
                                             sigma=0.9)
    z0 = np.array([2.0, 1.0])
    events, copies = [], []

    def observer(event):
        events.append(event)
        copies.append((np.copy(event["w"]), np.copy(event["cert"].z_tilde),
                       np.copy(event["cert"].v), np.copy(event["z"])))

    res = ir.run_hpp(z0, PerturbedResolventOracle(rotation_operator(), seed=5),
                     params, max_iters=4000, v_tolerance=1e-9,
                     observer=observer)
    assert res.status == "converged"
    assert len(events) == res.record.outer_iters > 10
    assert [event["k"] for event in events] == list(range(len(events)))
    assert np.array_equal(res.x, events[-1]["z"])
    for event, copied in zip(events, copies):
        assert set(event) == {"k", "alpha_k", "rho_k", "w", "cert", "z"}
        assert (event["alpha_k"], event["rho_k"]) == (params.alpha,
                                                      params.rho_hi)
        now = (event["w"], event["cert"].z_tilde, event["cert"].v,
               event["z"])
        assert all(np.array_equal(a, b) for a, b in zip(now, copied))

    oracle = PerturbedResolventOracle(rotation_operator(), seed=5)
    steps = reference_hpp(z0, oracle, params, len(events))
    for event, (w, z) in zip(events, steps):
        assert np.array_equal(w, event["w"])
        assert np.array_equal(z, event["z"])


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
                   ExactResolventOracle(rotation_operator()),
                   ir.InertiaRelaxParams.plain(sigma=0.0), max_iters=100,
                   observer=observer)
    assert seen == [0, 1, 2, 3]
