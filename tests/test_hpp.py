"""Proximal-projection engine: elementary steps, runs, descent diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import irsplit as ir
from irsplit.errors import OracleFailure, ParameterError, ZeroVectorError
from irsplit.hpp import (HPPState, Solution, _s_bound, error_ratio,
                         hpp_iterate, rho_bar_of_beta)
from irsplit.operators import (AffineOperator, ExactResolventOracle,
                               PerturbedResolventOracle,
                               ScaledIdentityOperator)

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
    assert np.array_equal(ir.extrapolate(z, np.array([5.0, 5.0]), 0.0), z)


def test_extrapolate_first_iteration():
    z = np.array([1.0, -2.0])
    assert np.array_equal(ir.extrapolate(z, z, 0.7), z)


def test_extrapolate_arithmetic():
    w = ir.extrapolate(np.array([1.0, 0.0]), np.array([0.0, 0.0]), 0.5)
    assert np.allclose(w, [1.5, 0.0], atol=0)


def test_extrapolate_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        ir.extrapolate(np.zeros(2), np.zeros(3), 0.1)


# ---------------------------------------------------------------------------
# acceptance test and bounds
# ---------------------------------------------------------------------------

def test_error_criterion_exact_pair_sigma_zero():
    w = np.array([1.0, 0.5])
    v = np.array([0.25, -0.125])  # dyadic so w - lam v is exact
    cert = ir.ProxCertificate(w - v, v, 1.0)
    assert ir.error_criterion_holds(w, cert, 0.0)


def test_error_criterion_sigma_zero_rejects_residual():
    w = np.array([1.0, 0.0])
    cert = ir.ProxCertificate(np.array([0.5, 0.0]), np.array([0.25, 0.0]), 1.0)
    assert not ir.error_criterion_holds(w, cert, 0.0)


def test_error_criterion_worked_instance():
    w = np.array([1.0, 0.0])
    cert = ir.ProxCertificate(np.array([0.6, 0.0]), np.array([0.5, 0.0]), 1.0)
    assert ir.error_criterion_holds(w, cert, 0.5)
    # LHS = 0.01, RHS = 0.25 (0.16 + 0.25)
    assert error_ratio(w, cert, 0.5) == pytest.approx(0.01 / 0.1025)


def test_gauss_bounds_collapse_at_sigma_zero():
    w = np.array([2.0, -1.0])
    v = np.array([0.5, 0.25])
    cert = ir.ProxCertificate(w - v, v, 1.0)
    assert ir.gauss_bounds_hold(w, cert, 0.0)


def test_gauss_bounds_worked_instance():
    w = np.array([1.0, 0.0])
    cert = ir.ProxCertificate(np.array([0.6, 0.0]), np.array([0.5, 0.0]), 1.0)
    assert ir.gauss_bounds_hold(w, cert, 0.5)


def test_acceptance_implies_gauss_bounds_sampled():
    rng = np.random.default_rng(42)
    sampler = accepted_certificate_sampler(rng)
    for _ in range(2000):
        w, cert, sigma = next(sampler)
        assert ir.gauss_bounds_hold(w, cert, sigma)


def test_zero_v_iff_fixed_point():
    rng = np.random.default_rng(3)
    sampler = accepted_certificate_sampler(rng)
    for _ in range(200):
        w, cert, sigma = next(sampler)
        assert np.any(cert.z_tilde != w)  # v != 0 on these draws
    w = np.array([1.0, 2.0])
    moved = ir.ProxCertificate(np.array([0.9, 2.0]), np.zeros(2), 1.0)
    assert not ir.error_criterion_holds(w, moved, 0.9)
    fixed = ir.ProxCertificate(w.copy(), np.zeros(2), 1.0)
    assert ir.error_criterion_holds(w, fixed, 0.9)


# ---------------------------------------------------------------------------
# relaxed projection
# ---------------------------------------------------------------------------

def test_relaxed_projection_exact_unit_relaxation():
    w = np.array([1.0, 0.5])
    v = np.array([0.25, -0.125])
    cert = ir.ProxCertificate(w - v, v, 1.0)
    z_next = ir.relaxed_projection(w, cert, 1.0)
    assert np.allclose(z_next, cert.z_tilde, atol=1e-15)


def test_relaxed_projection_overrelaxed_instance():
    cert = ir.ProxCertificate(np.array([0.0, 0.0]), np.array([1.0, 0.0]), 1.0)
    z_next = ir.relaxed_projection(np.array([1.0, 0.0]), cert, 1.5)
    assert np.allclose(z_next, [-0.5, 0.0], atol=0)


def test_relaxed_projection_zero_v():
    cert = ir.ProxCertificate(np.zeros(2), np.zeros(2), 1.0)
    with pytest.raises(ZeroVectorError):
        ir.relaxed_projection(np.ones(2), cert, 1.0)


# ---------------------------------------------------------------------------
# single iterations
# ---------------------------------------------------------------------------

def test_iterate_identity_operator_halves():
    params = ir.InertiaRelaxParams.plain(sigma=0.0)
    state = HPPState(np.array([1.0]), np.array([1.0]), 0)
    state, w, cert = hpp_iterate(state, exact_identity_oracle(), params)
    assert state.z_cur[0] == pytest.approx(0.5, abs=1e-15)
    tau = ((w - cert.z_tilde) @ cert.v) / (cert.v @ cert.v)
    assert tau == pytest.approx(1.0)


def test_fifty_iterations_geometric():
    params = ir.InertiaRelaxParams.plain(sigma=0.0)
    state = HPPState(np.array([1.0]), np.array([1.0]), 0)
    oracle = exact_identity_oracle()
    for _ in range(50):
        state, _, _ = hpp_iterate(state, oracle, params)
    assert state.z_cur[0] == pytest.approx(2.0 ** -50, rel=1e-12)


def test_iterate_already_solved():
    params = ir.InertiaRelaxParams.plain(sigma=0.0)
    state = HPPState(np.zeros(3), np.zeros(3), 0)
    out = hpp_iterate(state, exact_identity_oracle(), params)
    assert isinstance(out, Solution)
    assert np.array_equal(out.z, np.zeros(3))


def test_iterate_rejects_out_of_range_relaxation():
    params = ir.InertiaRelaxParams.plain(sigma=0.0)
    state = HPPState(np.ones(2), np.ones(2), 0)
    with pytest.raises(ParameterError):
        hpp_iterate(state, exact_identity_oracle(), params, rho_k=0.0)


def test_iterate_raises_on_bad_certificate():
    class BogusOracle:
        def solve(self, w, lam, sigma):
            return ir.ProxCertificate(w + 10.0, np.ones_like(w), lam)

    params = ir.InertiaRelaxParams.plain(sigma=0.1)
    state = HPPState(np.ones(2), np.ones(2), 0)
    with pytest.raises(OracleFailure):
        hpp_iterate(state, BogusOracle(), params)


def test_unit_relaxation_exact_is_proximal_step():
    # rho = 1 with an exact certificate reproduces z_next = J_lam(w)
    op = rotation_operator()
    oracle = ExactResolventOracle(op)
    params = ir.InertiaRelaxParams.plain(sigma=0.0, lam=0.7)
    rng = np.random.default_rng(0)
    for _ in range(10):
        z = rng.standard_normal(2)
        state = HPPState(z, z.copy(), 0)
        state, _, _ = hpp_iterate(state, oracle, params)
        expected = op.resolvent(0.7, z)
        assert np.linalg.norm(state.z_cur - expected) <= 1e-12


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
    assert np.array_equal(res.z, [2.0])


def test_run_budget_reports_the_last_v_norm():
    """A run that exhausts its budget reports the last certificate's ||v||
    as ``v_norm`` and ``final_kkt``."""
    params = ir.InertiaRelaxParams.plain(sigma=0.0)
    events = Collector()
    res = ir.run_hpp(np.array([3.0, -1.0]), ExactResolventOracle(
        rotation_operator()), params, max_iters=5, observer=events)
    assert res.status == res.record.status == "budget_exceeded"
    assert len(events) == 5
    last = float(np.linalg.norm(events[-1].cert.v))
    assert 0.0 < res.v_norm == res.record.final_kkt == last


def test_run_rotation_converges_with_fejer():
    oracle = ExactResolventOracle(rotation_operator())
    params = ir.InertiaRelaxParams.plain(sigma=0.0)
    events = Collector()
    res = ir.run_hpp(np.array([3.0, -1.0]), oracle, params, max_iters=2000,
                     v_tolerance=1e-10, observer=events)
    assert res.status == "converged"
    assert np.linalg.norm(res.z) <= 1e-8
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


def test_observer_sees_every_iteration_unchanged():
    """One event per iteration, each holding the arrays the run went on
    with: they still equal the copies taken when the event arrived, and
    the iterates are bit for bit those of a hand loop of ``hpp_iterate``
    on an oracle with the same seed."""
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
    assert np.array_equal(res.z, events[-1]["z"])
    for event, copied in zip(events, copies):
        assert set(event) == {"k", "alpha_k", "rho_k", "w", "cert", "z"}
        assert (event["alpha_k"], event["rho_k"]) == (params.alpha,
                                                      params.rho_hi)
        now = (event["w"], event["cert"].z_tilde, event["cert"].v,
               event["z"])
        assert all(np.array_equal(a, b) for a, b in zip(now, copied))

    oracle = PerturbedResolventOracle(rotation_operator(), seed=5)
    state = HPPState(z0, z0.copy(), 0)
    for event in events:
        state, w, _ = hpp_iterate(state, oracle, params)
        assert np.array_equal(w, event["w"])
        assert np.array_equal(state.z_cur, event["z"])


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
