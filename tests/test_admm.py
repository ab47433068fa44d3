"""ADMM layer: elementary steps, F-procedures for an operator B, runs, and
the splitting embedding."""

import dataclasses
import gc
import math
import warnings
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import irsplit as ir
from irsplit.admm import (ADMMParams, Criterion, PrimalDualTriple,
                          _acceptance_vector, _theta, run_admm)
from irsplit.dr import DRParams, SplitTriple, classical_dr_step, run_dr
from irsplit.errors import LineSearchFailure
from irsplit.hpp import rho_bar_of_beta, run_hpp
from irsplit.operators import (AffineOperator, CGBProcedure, ExactBProcedure,
                               ExactResolventOracle, L1Resolvent)
from irsplit.problems import L1ShiftedProx
from irsplit.subsolvers import (LBFGSFProcedure, QuadraticFProcedure,
                                soft_threshold)

import reference
from conftest import Collector, record_trials

# the published setting for l1-logistic (acceptance criterion 5b)
LOGISTIC_CORE = ir.InertiaRelaxParams(0.1, 0.1001, 0.99, 1.7606, 1.7606)


def small_lasso(m=8, n=5, seed=0, nu=0.3):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    return a, b, ir.LassoProblem(ir.DesignMatrix(a), b, nu)


class QuadFResolvent:
    """Resolvent of B = grad f for f(x) = (1/2)||Ax - b||^2 (dense solve)."""

    def __init__(self, a, b):
        self.gram = a.T @ a
        self.atb = a.T @ b

    def resolvent(self, gamma, u):
        n = self.gram.shape[0]
        return np.linalg.solve(np.eye(n) + gamma * self.gram,
                               u + gamma * self.atb)


# ---------------------------------------------------------------------------
# elementary steps
# ---------------------------------------------------------------------------

def test_extrapolate_cases():
    cur, prev = 2 * np.ones(2), np.ones(2)
    assert np.allclose(reference.extrapolate(cur, prev, 0.1), 2.1, atol=0)
    assert np.array_equal(reference.extrapolate(cur, prev, 0.0), cur)
    assert np.array_equal(reference.extrapolate(cur, cur, 0.9), cur)


def test_multiplier_candidate_cases():
    p_hat = np.zeros(1)
    assert reference.multiplier(p_hat, np.ones(1), np.ones(1),
                                np.zeros(1), 2.0)[0] == 0.0
    out = reference.multiplier(np.zeros(1), np.array([1.0]), np.array([0.0]),
                               np.array([0.5]), 2.0)
    assert out[0] == pytest.approx(1.5)


def test_acceptance_trivial_and_worked():
    zero = np.zeros(2)
    assert reference.accept(zero, np.ones(2), zero, zero, zero, np.ones(2),
                            1.0, 0.0, max_form=False)
    assert reference.accept(zero, np.ones(2), zero, zero, zero, np.ones(2),
                            1.0, 0.0, max_form=True)
    # ||y|| = 1, both right-hand norms = 1, sigma = 0.99
    y = np.array([1.0, 0.0])
    p_l = np.array([0.0, 1.0])
    x_l = np.array([1.0, 0.0])
    assert reference.accept(y, p_l, zero, zero, zero, x_l, 1.0, 0.99,
                            max_form=False)
    assert not reference.accept(y, p_l, zero, zero, zero, x_l, 1.0, 0.99,
                                max_form=True)
    # sigma = 0 with a nonzero certificate
    assert not reference.accept(y, p_l, zero, zero, zero, x_l, 1.0, 0.0,
                                max_form=False)


def test_max_form_implies_sum_squares():
    rng = np.random.default_rng(21)
    for _ in range(500):
        y, p_l, p_hat, z_l, z_hat, x_l = (rng.standard_normal(3)
                                          for _ in range(6))
        c = rng.uniform(0.2, 3.0)
        sigma = rng.uniform(0.0, 0.99)
        if reference.accept(y, p_l, p_hat, z_l, z_hat, x_l, c, sigma,
                            max_form=True):
            assert reference.accept(y, p_l, p_hat, z_l, z_hat, x_l, c,
                                    sigma, max_form=False)


# finite entries with signed zeros and subnormals drawn on purpose
finite_entries = (st.floats(-1e3, 1e3)
                  | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310]))


def vectors(data, n, elements=finite_entries):
    return data.draw(st.lists(elements, min_size=n, max_size=n).map(np.array))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(1, 6), data=st.data(), c=st.floats(1e-5, 1e5),
       sigma=st.floats(0.0, 1.0, exclude_max=True))
def test_max_form_verdict_implies_sum_squares_verdict(n, data, c, sigma):
    """ROADMAP contract: a trial the max-form test accepts, the
    summed-squares test accepts too, in floating point."""
    y, p_l, p_hat, z_l, z_hat, x_l = (vectors(data, n) for _ in range(6))
    if reference.accept(y, p_l, p_hat, z_l, z_hat, x_l, c, sigma,
                        max_form=True):
        assert reference.accept(y, p_l, p_hat, z_l, z_hat, x_l, c, sigma,
                                max_form=False)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(1, 6), data=st.data(), c=st.floats(1e-5, 1e5))
def test_loop_theta_from_the_acceptance_vector_is_theta_admm(n, data, c):
    """The loop's theta, <t, d>/(c dd) from the acceptance test's t = p_l -
    p_hat - c (z_l - z_hat), is the reference's c (z_hat - z_l) - (p_hat -
    p_l) form bit for bit whenever dd is finite and nonzero, the only case
    where the loop forms theta (NaN where both are NaN).  inf enters
    through p_l; x_l and the extrapolated point are finite.  The loop's
    form warns exactly where the reference does: numpy's own warning when
    an inf of t meets a zero of d (or an opposite inf) in the dot
    product."""
    with_inf = finite_entries | st.sampled_from([math.inf, -math.inf])
    p_l = vectors(data, n, with_inf)
    x_l, p_hat, z_l, z_hat = (vectors(data, n) for _ in range(4))
    d = x_l - z_l
    dd = d @ d
    assume(dd != 0.0)
    with warnings.catch_warnings(record=True) as want_warned:
        warnings.simplefilter("always")
        want = reference.theta(p_hat, z_hat, x_l, z_l, p_l, c)
    with warnings.catch_warnings(record=True) as got_warned:
        warnings.simplefilter("always")
        t = _acceptance_vector(p_l, p_hat, z_l, z_hat, c)
        got = _theta(t, d, dd, c)
    assert ([str(w.message) for w in got_warned]
            == [str(w.message) for w in want_warned])
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


accepted_trials = dict(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
                       c=st.floats(0.05, 20.0), sigma=st.floats(0.0, 0.99),
                       reach=st.floats(0.0, 1.5))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(**accepted_trials)
def test_accepted_trial_has_theta_at_least_half_one_minus_sigma_sq(
        n, seed, c, sigma, reach):
    """Summed-squares acceptance implies theta >= (1 - sigma^2)/2 > 0.  With
    t = p_l - p_hat - c (z_l - z_hat), u = -t/c and d = x_l - z_l the
    multiplier candidate gives y = c (u + d), the test reads ||u + d||^2 <=
    sigma^2 (||u||^2 + ||d||^2) and theta = -<u, d>/||d||^2; expanding the
    test gives the bound.  ``||y|| = reach sigma c ||d||``, so every draw
    with reach <= 1 passes and the rest straddle the boundary, where n = 1
    comes within a factor 1 + (1 - sigma^2)^2/4 of the bound."""
    rng = np.random.default_rng(seed)
    p_hat, z_hat, x_l, z_l, y = (rng.standard_normal(n) for _ in range(5))
    d = x_l - z_l
    y *= reach * sigma * c * np.linalg.norm(d) / np.linalg.norm(y)
    p_l = reference.multiplier(p_hat, x_l, z_hat, y, c)
    assume(reference.accept(y, p_l, p_hat, z_l, z_hat, x_l, c, sigma,
                            max_form=False))
    assert (reference.theta(p_hat, z_hat, x_l, z_l, p_l, c)
            >= 0.5 * (1.0 - sigma * sigma))


def test_z_subproblem_closed_forms():
    prox = L1ShiftedProx(0.0)
    out = prox.solve(np.array([2.0]), np.array([1.0]), 2.0)
    assert out[0] == pytest.approx(2.0)  # x + p/c with no shrink
    prox1 = L1ShiftedProx(1.0)
    assert prox1.solve(np.zeros(1), np.array([3.0]), 1.0)[0] == \
        pytest.approx(2.0)


def test_z_subproblem_grid_oracle_and_membership():
    nu, c = 0.7, 1.4
    prox = L1ShiftedProx(nu)
    rng = np.random.default_rng(22)
    p, x = rng.standard_normal(4), rng.standard_normal(4)
    z = prox.solve(p, x, c)
    grid = np.arange(-5.0, 5.0, 1e-4)
    for i in range(4):
        vals = nu * np.abs(grid) - p[i] * grid + 0.5 * c * (grid - x[i]) ** 2
        assert abs(z[i] - grid[np.argmin(vals)]) <= 1e-4 + 1e-9
    # 0 in nu*subdiff(|.|)(z) - p + c(z - x), componentwise
    inner = -p + c * (z - x)
    for i in range(4):
        if z[i] != 0.0:
            assert abs(nu * np.sign(z[i]) + inner[i]) <= 1e-10
        else:
            assert abs(inner[i]) <= nu + 1e-10


def test_theta_exact_case_is_one():
    rng = np.random.default_rng(23)
    hat = PrimalDualTriple(*(rng.standard_normal(4) for _ in range(3)))
    c = 1.7
    x_l = rng.standard_normal(4)
    p_l = reference.multiplier(hat.p, x_l, hat.z, np.zeros(4), c)
    z_l = rng.standard_normal(4)
    assert reference.theta(hat.p, hat.z, x_l, z_l, p_l, c) == \
        pytest.approx(1.0, abs=1e-12)


def test_theta_matches_splitting_layer():
    rng = np.random.default_rng(24)
    for c in (1.0, 2.3):
        hat = PrimalDualTriple(*(rng.standard_normal(5) for _ in range(3)))
        x_l, z_l, p_l = (rng.standard_normal(5) for _ in range(3))
        th_a = reference.theta(hat.p, hat.z, x_l, z_l, p_l, c)
        _, b_hat, r_hat = reference.embed_to_dr(hat.x, hat.z, hat.p)
        th_d = reference.dr_theta(r_hat, b_hat, x_l, -p_l, z_l, 1.0 / c)
        assert abs(th_a - th_d) <= 1e-12 * (1.0 + abs(th_d))


def test_p_update_cases_and_embedding():
    rng = np.random.default_rng(25)
    hat = PrimalDualTriple(*(rng.standard_normal(4) for _ in range(3)))
    c = 1.3
    x_n, z_n = rng.standard_normal(4), rng.standard_normal(4)
    # exact case theta = 1, rho = 1 collapses to the multiplier candidate
    p1 = reference.p_update(hat.p, hat.z, z_n, x_n, 1.0, c)
    assert np.allclose(p1, reference.multiplier(hat.p, x_n, hat.z,
                                                np.zeros(4), c), atol=1e-12)
    # zero weight keeps the z-difference form
    p0 = reference.p_update(hat.p, hat.z, z_n, x_n, 0.0, c)
    assert np.allclose(p0, hat.p + c * (z_n - hat.z), atol=1e-12)
    # general case mirrors the splitting-layer b update
    th, rho = 0.8, 1.4
    p2 = reference.p_update(hat.p, hat.z, z_n, x_n, rho * th, c)
    _, b_hat, r_hat = reference.embed_to_dr(hat.x, hat.z, hat.p)
    b_next = reference.dr_b_update(r_hat, b_hat, x_n, z_n, rho * th, 1.0 / c)
    assert np.linalg.norm(b_next - (-p2)) <= 1e-12 * (1 + np.linalg.norm(p2))


# ---------------------------------------------------------------------------
# F-procedures for an operator B: the B half-step of run_dr
# ---------------------------------------------------------------------------

def test_exact_b_session_is_resolvent_of_b():
    """The exact session for (p, z, c) emits x = J_{B/c}(z - p/c), which
    solves 0 = B(x) + p + c (x - z), with y = 0."""
    a, b, _ = small_lasso()
    res_b = QuadFResolvent(a, b)
    rng = np.random.default_rng(26)
    p, z = rng.standard_normal(5), rng.standard_normal(5)
    c = 1.25
    session = ExactBProcedure(res_b).open_session(p, z, c, np.zeros(5))
    assert session.exact
    x, y = session.next()
    assert np.array_equal(x, res_b.resolvent(1.0 / c, z - p / c))
    assert np.array_equal(y, np.zeros(5))
    # x solves the half-step equation, B = grad f
    assert np.linalg.norm(a.T @ (a @ x - b) + p + c * (x - z)) <= 1e-10


def test_cg_b_session_certificate_and_convergence():
    """Each CG trial's y is Q x + q + p + c (x - z) at its own x, and CG
    ends in finitely many steps."""
    a, b, _ = small_lasso(m=12, n=7, seed=3)
    q_mat, q = a.T @ a, -(a.T @ b)
    rng = np.random.default_rng(27)
    p, z = rng.standard_normal(7), rng.standard_normal(7)
    c = 1.0
    session = CGBProcedure(q_mat, q).open_session(p, z, c, np.zeros(7))
    norms = []
    for _ in range(9):
        x, y = session.next()
        want = q_mat @ x + q + p + c * (x - z)
        assert np.linalg.norm(y - want) <= 1e-10 * (1 + np.linalg.norm(want))
        norms.append(np.linalg.norm(y))
    assert norms[-1] <= 1e-9 * (1 + norms[0])  # finite CG termination


class CountingMatrix:
    """A matrix that counts its products."""

    def __init__(self, mat):
        self.mat = mat
        self.products = 0

    def __matmul__(self, u):
        self.products += 1
        return self.mat @ u


def test_cg_b_session_applies_q_once_per_trial():
    """A CG trial applies Q once, in its CG step: the certificate is CG's
    own residual, with no second product Q x.  Opening the session applies
    Q once, at the warm start."""
    a, b, _ = small_lasso(m=12, n=7, seed=3)
    proc = CGBProcedure(a.T @ a, -(a.T @ b))
    proc.mat = counting = CountingMatrix(proc.mat)
    rng = np.random.default_rng(28)
    p, z, x_bar = (rng.standard_normal(7) for _ in range(3))
    session = proc.open_session(p, z, 1.0, x_bar)
    assert counting.products == 1
    for trials in range(1, 6):
        session.next()
        assert counting.products == 1 + trials


@pytest.mark.parametrize("make", [AffineOperator, CGBProcedure])
@pytest.mark.parametrize("mat, shift", [
    (np.eye(3), [2.0]), (np.eye(3), np.ones((3, 1))), (np.ones((3, 2)), None),
    (np.ones(3), None)], ids=["short_shift", "column_shift", "non_square",
                              "vector_mat"])
def test_affine_maps_check_shapes_at_construction(make, mat, shift):
    """A non-square matrix, or a shift whose shape is not (n,), raises
    ``ValueError`` at construction instead of being broadcast into another
    problem."""
    with pytest.raises(ValueError, match="shape"):
        make(mat, shift)


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def test_run_exact_follows_classical_splitting_recursion():
    # alpha = 0, rho = 1, sigma = 0 with exact solves: the mapped iterate
    # z - p/c executes the classical recursion for A = subdiff(g),
    # B = grad f with gamma = 1/c
    a, b, prob = small_lasso()
    fproc = ExactBProcedure(QuadFResolvent(a, b))
    aprob = ir.AdmmProblem(fproc, L1ShiftedProx(prob.nu), prob.kkt_dist_inf,
                           prob.objective, 5)
    params = ADMMParams(c=1.0, core=ir.InertiaRelaxParams.plain(sigma=0.0),
                        epsilon=0.0, max_outer=60)
    events = Collector()
    run_admm(aprob, params, observer=events)
    res_a = L1Resolvent(prob.nu)
    res_b = QuadFResolvent(a, b)
    zeta = np.zeros(5)
    worst = 0.0
    for step in events:
        zeta = classical_dr_step(zeta, 1.0, res_a, res_b)
        zeta_run = step.z - step.p
        worst = max(worst, float(np.max(np.abs(zeta - zeta_run))))
    assert len(events) >= 50
    assert worst <= 1e-12


def test_run_exact_agrees_with_classical_admm_limit():
    # the classical x-then-z-then-p recursion is a different trajectory but
    # shares the minimizer
    a, b, prob = small_lasso(nu=0.4)
    fproc = ExactBProcedure(QuadFResolvent(a, b))
    aprob = ir.AdmmProblem(fproc, L1ShiftedProx(prob.nu), prob.kkt_dist_inf,
                           prob.objective, 5)
    params = ADMMParams(c=1.0, core=ir.InertiaRelaxParams.plain(sigma=0.0),
                        epsilon=1e-12, max_outer=4000)
    res = run_admm(aprob, params)
    assert res.status == "converged"
    gram = a.T @ a + np.eye(5)
    atb = a.T @ b
    x = np.zeros(5)
    z = np.zeros(5)
    p = np.zeros(5)
    for _ in range(4000):
        x = np.linalg.solve(gram, atb - p + z)
        z = soft_threshold(x + p, prob.nu)
        p = p + (x - z)
    assert prob.kkt_dist_inf(z) <= 1e-10
    assert np.linalg.norm(res.x - z) <= 1e-8


def test_run_converges_on_synthetic(lasso_20x50, inertial_core):
    aprob = ir.lasso_admm_problem(lasso_20x50, 1.0)
    params = ADMMParams(c=1.0, core=inertial_core, epsilon=1e-6,
                        max_outer=5000)
    res = run_admm(aprob, params)
    assert res.status == "converged"
    assert lasso_20x50.kkt_dist_inf(res.x) <= 1e-6


def test_run_started_at_solution_stops_at_zero(lasso_20x50, inertial_core):
    # nu >= ||A^T b||_inf makes the origin optimal with zero residual
    big_nu = float(np.abs(lasso_20x50.A.apply_transpose(lasso_20x50.b)).max())
    prob = ir.LassoProblem(lasso_20x50.A, lasso_20x50.b, big_nu)
    aprob = ir.lasso_admm_problem(prob, 1.0)
    params = ADMMParams(c=1.0, core=inertial_core, epsilon=1e-6, max_outer=50)
    res = run_admm(aprob, params)
    assert res.status == "converged"
    assert res.outer_iters == 0
    assert res.record.final_kkt == 0.0


class CoincideAt:
    """An exact F-procedure and a shifted prox in one stub.  Session k emits
    the one trial x = (k, ..., k) with y = 0; the prox returns x itself at
    outer iteration ``at`` and x + 1/2 before it, so theta = 1 until then."""

    def __init__(self, n, at):
        self.n = n
        self.at = at
        self.opened = 0

    def open_session(self, p, z, c, x_bar, anchor=None):
        x = np.full(self.n, float(self.opened))
        self.opened += 1
        return SimpleNamespace(exact=True,
                               next=lambda: (x.copy(), np.zeros(self.n)))

    def solve(self, p, x, c):
        return x.copy() if self.opened - 1 == self.at else x + 0.5


def test_solved_exit_returns_the_accepted_trial(inertial_core):
    """When an accepted trial has x_l = z_l the run stops as solved at that
    outer iteration and returns the trial, not the iterate before it."""
    stub = CoincideAt(4, at=2)
    aprob = ir.AdmmProblem(stub, stub, lambda z, floor: 1.0, None, 4)
    params = ADMMParams(c=1.3, core=inertial_core, epsilon=1e-6, max_outer=50)
    res = run_admm(aprob, params)
    assert res.status == "solved" and res.outer_iters == 2
    assert res.record.status == ir.records.CONVERGED
    assert stub.opened == res.outer_iters + 1
    assert np.array_equal(res.triple.z, res.x)
    assert np.array_equal(res.triple.x, np.full(4, 2.0))
    assert np.array_equal(res.triple.z, res.triple.x)


def test_final_kkt_is_the_stopping_value(lasso_20x50, inertial_core):
    evals = []

    def kkt(x, floor):
        evals.append(x)
        return lasso_20x50.kkt_dist_inf(x)

    aprob = ir.lasso_admm_problem(lasso_20x50, 1.0)
    aprob.kkt_residual = kkt
    params = ADMMParams(c=1.0, core=inertial_core, epsilon=1e-6,
                        max_outer=5000)
    res = run_admm(aprob, params)
    assert res.status == "converged"
    # one stopping test per outer iteration, including the final one
    assert len(evals) == res.outer_iters + 1
    assert res.record.final_kkt == lasso_20x50.kkt_dist_inf(res.x)


# ---------------------------------------------------------------------------
# the run against a straight-line reference, and its non-finite guard
# ---------------------------------------------------------------------------

def published_params(criterion=Criterion.MAX_FORM):
    """The benchmark setting: c = 1, epsilon 1e-6, the published inertial
    parameters with rho at the cap implied by beta."""
    rho = rho_bar_of_beta(0.18976)
    core = ir.InertiaRelaxParams(0.18966, 0.18976, 0.99, rho, rho)
    return ADMMParams(c=1.0, core=core, criterion=criterion, epsilon=1e-6,
                      max_outer=10_000)


def reference_admm(problem, params):
    """Straight-line inexact inertial-relaxed ADMM from the formulas of
    ``tests/reference.py``, which share no code with the run (KKT test
    every outer iteration, at the exact residual).  Sessions are opened as
    the driver opens them, with the anchor ``(x, x_prev, alpha)``.  Returns
    the triple after each outer iteration and the trials each one took."""
    c, core = params.c, params.core
    max_form = params.criterion is Criterion.MAX_FORM
    x = z = p = np.zeros(problem.dim)
    x_prev, z_prev, p_prev = x, z, p
    triples, trials = [], []
    for _ in range(params.max_outer):
        if problem.kkt_residual(z, math.inf) <= params.epsilon:
            break
        x_hat = reference.extrapolate(x, x_prev, core.alpha)
        z_hat = reference.extrapolate(z, z_prev, core.alpha)
        p_hat = reference.extrapolate(p, p_prev, core.alpha)
        session = problem.fproc.open_session(p_hat, z_hat, c, x_hat,
                                             (x, x_prev, core.alpha))
        for trial in range(1, params.inner_budget + 1):
            x_l, y_l = session.next()
            p_l = reference.multiplier(p_hat, x_l, z_hat, y_l, c)
            z_l = problem.prox_g.solve(p_l, x_l, c)
            if reference.accept(y_l, p_l, p_hat, z_l, z_hat, x_l, c,
                                core.sigma, max_form):
                break
        else:
            raise AssertionError("reference: no accepted trial")
        th = reference.theta(p_hat, z_hat, x_l, z_l, p_l, c)
        assert th > 0.0
        p_next = reference.p_update(p_hat, z_hat, z_l, x_l, core.rho_hi * th,
                                    c)
        x_prev, z_prev, p_prev = x, z, p
        x, z, p = x_l, z_l, p_next
        triples.append(PrimalDualTriple(x, z, p))
        trials.append(trial)
    return triples, trials


def make_instance(kind):
    if kind == "lasso":
        return ir.lasso_admm_problem(ir.synthetic_lasso(20, 50, seed=7), 1.0)
    return ir.logistic_admm_problem(ir.synthetic_logistic(30, 11, seed=1),
                                    1.0)


@pytest.mark.parametrize("c", [pytest.param(1.0, id=pytest.HIDDEN_PARAM),
                               0.7, 3.0])
@pytest.mark.parametrize("observe", [False, True])
@pytest.mark.parametrize("criterion", list(Criterion))
@pytest.mark.parametrize("kind", ["lasso", "logistic"])
def test_run_matches_straight_line_reference(kind, criterion, observe, c):
    """The run's iterates are bit-identical to the reference's and every
    outer iteration takes the same number of trials, on the CG path
    (LASSO) and the L-BFGS path (logistic), with no observer and with a
    collector, whose every event carries the reference's triple.  Besides
    the benchmark's c = 1, where a product by c is exact, two penalties
    where a misplaced c would round differently (the c = 1 cases keep
    their ids)."""
    params = dataclasses.replace(published_params(criterion), c=c)
    triples, trials = reference_admm(make_instance(kind), params)
    problem = make_instance(kind)
    events = Collector() if observe else None
    sessions = record_trials(problem) if observe else None
    res = run_admm(problem, params, observer=events)
    assert res.status == "converged"
    assert res.outer_iters == len(trials) > 10
    assert res.inner_iters_total == sum(trials)
    last = triples[-1]
    for got, want in ((res.triple.x, last.x), (res.triple.z, last.z),
                      (res.triple.p, last.p), (res.x, last.z)):
        assert np.array_equal(got, want)
    if observe:
        assert [step.trials for step in events] == trials
        assert [len(session) for session in sessions] == trials
        for step, want in zip(events, triples):
            for got, ref in ((step.x, want.x), (step.z, want.z),
                             (step.p, want.p)):
                assert np.array_equal(got, ref)
    else:
        assert not hasattr(res, "trace")


@pytest.mark.parametrize("instance, counts", [
    (lambda: ir.lasso_admm_problem(ir.synthetic_lasso(100, 300, seed=0),
                                   1.0), (71, 125)),
    (lambda: ir.logistic_admm_problem(ir.synthetic_logistic(50, 31, seed=0),
                                      1.0), (88, 127)),
], ids=["lasso_100x300", "logistic_50x31"])
def test_benchmark_setting_counts(instance, counts):
    """Outer and inner counts at the benchmark setting, pinned."""
    res = run_admm(instance(), published_params())
    assert res.status == "converged"
    assert (res.outer_iters, res.inner_iters_total) == counts


EVENT_KEYS = {"k", "trials", "theta", "alpha_k", "rho_k", "kkt", "gap",
              "x_hat", "z_hat", "p_hat", "x", "z", "p_l", "p"}


@pytest.mark.parametrize("kind", ["lasso", "logistic"])
def test_observer_sees_every_outer_iteration_unchanged(kind):
    """One event per outer iteration, whose trials add up to the run's
    inner count, on the CG path (LASSO) and the L-BFGS path (logistic).
    The arrays are passed without a copy, so each must still equal the
    copy taken when its event arrived: the loop never writes into them.
    ``kkt`` is the value the stop test returned at the top of the
    iteration, and ``gap`` is ||x - z|| of the accepted trial."""
    events, copies, kkts = [], [], []

    def observer(event):
        events.append(event)
        copies.append({key: np.copy(value) for key, value in event.items()
                       if isinstance(value, np.ndarray)})

    problem = make_instance(kind)
    kkt_residual = problem.kkt_residual

    def recorded_kkt(z, floor):
        kkts.append(kkt_residual(z, floor))
        return kkts[-1]

    problem.kkt_residual = recorded_kkt
    res = run_admm(problem, published_params(), observer=observer)
    assert res.status == "converged"
    assert len(events) == res.outer_iters > 10
    assert sum(event["trials"] for event in events) == res.inner_iters_total
    assert [event["k"] for event in events] == list(range(res.outer_iters))
    assert [event["kkt"] for event in events] == kkts[:-1]
    for event, copied in zip(events, copies):
        assert set(event) == EVENT_KEYS
        assert len(copied) == 7
        for key, value in copied.items():
            assert np.array_equal(event[key], value), key
        assert event["gap"] == np.linalg.norm(event["x"] - event["z"])


def count_lasso_products(prob):
    """Build the LASSO ADMM problem with the design-matrix products counted
    by caller: ``open`` inside ``fproc.open_session``, ``step`` inside a
    session's ``next``, ``kkt`` inside the stop test and ``other``
    elsewhere.  Returns ``(problem, counts)``."""
    counts = {"open": 0, "step": 0, "kkt": 0, "other": 0}
    phase = ["other"]
    design = prob.A

    def counted(product):
        def apply(v):
            counts[phase[0]] += 1
            return product(v)
        return apply

    def in_phase(name, fn):
        def call(*args):
            phase[0] = name
            try:
                return fn(*args)
            finally:
                phase[0] = "other"
        return call

    design.apply = counted(design.apply)
    design.apply_transpose = counted(design.apply_transpose)
    aprob = ir.lasso_admm_problem(prob, 1.0)
    open_session = aprob.fproc.open_session

    def counted_open(*args):
        session = in_phase("open", open_session)(*args)
        session.next = in_phase("step", session.next)
        return session

    aprob.fproc.open_session = counted_open
    aprob.kkt_residual = in_phase("kkt", aprob.kkt_residual)
    return aprob, counts


def test_lasso_products_at_session_start():
    """Count gate: a CG session opened by ``run_admm`` builds its starting
    residual from the Gram products of the two accepted trials it was
    extrapolated from, so only the first two sessions of a run (whose
    anchors name the starting point) spend products on it; every CG step
    spends two.  About 134 session-start products per solve without the
    reuse."""
    aprob, counts = count_lasso_products(ir.synthetic_lasso(100, 300, seed=0))
    res = run_admm(aprob, published_params())
    assert res.status == "converged"
    assert (res.outer_iters, res.inner_iters_total) == (71, 125)
    assert counts["open"] <= 4
    assert counts["step"] == 2 * res.inner_iters_total


@pytest.mark.parametrize("make, counts, bound", [
    (lambda: ir.synthetic_lasso(100, 300, seed=0), (71, 125), 30),
    (lambda: ir.synthetic_lasso(200, 1000, density=0.05, seed=3), (97, 230),
     24),
], ids=["dense_100x300", "csr_200x1000"])
def test_lasso_products_in_the_stop_test(make, counts, bound):
    """Count gate: the stop test proves most failures from one cached
    Gram row, so its products stay far below two per test (144 and 196
    here when every test evaluates the gradient; 26 and 18 measured)."""
    aprob, products = count_lasso_products(make())
    res = run_admm(aprob, published_params())
    assert res.status == "converged"
    assert (res.outer_iters, res.inner_iters_total) == counts
    assert products["kkt"] <= bound


def test_dr_lasso_products_at_session_start():
    """Count gate: ``run_dr`` drives the F-procedure it is given as an
    ADMM run does, anchor included, so its CG sessions start from the Gram
    products as an ADMM run's do.  120 session-start products over these
    60 outer iterations when the anchor was hidden from the procedure."""
    prob = ir.synthetic_lasso(100, 300, seed=0)
    aprob, counts = count_lasso_products(prob)
    zeros = np.zeros(prob.n)
    res = run_dr(SplitTriple(zeros, zeros, zeros),
                 DRParams(gamma=1.0, core=published_params().core),
                 aprob.fproc, L1Resolvent(prob.nu), max_outer=60)
    assert res.status == "budget_exceeded"
    assert (res.outer_iters, res.inner_iters_total) == (60, 64)
    assert counts["open"] <= 4
    assert counts["step"] == 2 * res.inner_iters_total


def test_certificates_do_not_drift_with_reused_gram_products():
    """Every emitted y is the augmented gradient at its x, A^T (A x - b) +
    p_hat + c (x - z_hat), to round-off, over a long run in which each
    session's starting residual comes from the previous sessions'."""
    prob = ir.synthetic_lasso(200, 1000, density=0.05, seed=3)
    params = dataclasses.replace(published_params(), epsilon=1e-10)
    problem = ir.lasso_admm_problem(prob, params.c)
    sessions = record_trials(problem)
    events = Collector()
    res = run_admm(problem, params, observer=events)
    assert res.status == "converged"
    assert res.outer_iters == 167
    assert len(sessions) == len(events)
    a = prob.A.toarray()
    worst = 0.0
    for step, session in zip(events, sessions):
        for trial in session:
            gram_x = a.T @ (a @ trial.x)
            grad = gram_x - a.T @ prob.b + step.p_hat \
                + params.c * (trial.x - step.z_hat)
            worst = max(worst, np.max(np.abs(trial.y - grad))
                        / (1.0 + np.max(np.abs(gram_x))))
    assert worst <= 1e-12


def test_affine_sessions_start_from_stored_products():
    """``run_dr`` drives ``CGBProcedure`` as ``run_admm`` drives the LASSO
    procedure: Q is applied once per trial and at the first two session
    starts only, the later ones extrapolating stored products, and every
    emitted y is Q x + q + p_hat + c (x - z_hat) to round-off over a long
    run."""
    rng = np.random.default_rng(0)
    m = rng.standard_normal((60, 60))
    q_mat = m @ m.T / 60.0 + 0.1 * np.eye(60)
    shift = rng.standard_normal(60)
    proc = CGBProcedure(q_mat, shift)
    proc.mat = counting = CountingMatrix(proc.mat)
    # run_dr brings its own A-side prox: only the sessions are recorded
    unused_prox = SimpleNamespace(solve=None)
    sessions = record_trials(SimpleNamespace(fproc=proc, prox_g=unused_prox))
    events = Collector()
    init = SplitTriple(*(rng.standard_normal(60) for _ in range(3)))
    res = run_dr(init, DRParams(1.0, published_params().core), proc,
                 L1Resolvent(0.5), max_outer=10_000, sr_tolerance=1e-9,
                 observer=events)
    assert res.status == "solved"
    assert res.outer_iters > 200
    assert counting.products == res.inner_iters_total + 2
    # the solving iteration reaches no observer
    assert len(sessions) == len(events) + 1
    worst = 0.0
    for step, session in zip(events, sessions):
        for trial in session:
            q_x = q_mat @ trial.x
            grad = q_x + shift + step.p_hat + (trial.x - step.z_hat)
            worst = max(worst, np.max(np.abs(trial.y - grad))
                        / (1.0 + np.max(np.abs(q_x))))
    assert worst <= 1e-12


def held_state(fproc):
    """The arrays and sessions a procedure holds beyond its set-up: the
    CG procedure's constant side ``_r`` and an affine B's ``mat`` and
    ``shift`` are set-up."""
    held, stack = [], [v for k, v in vars(fproc).items()
                       if k not in ("_r", "mat", "shift")]
    while stack:
        v = stack.pop()
        if isinstance(v, (list, tuple)):
            stack.extend(v)
        elif isinstance(v, (np.ndarray, ir.CGSession)):
            held.append(v)
    return held


class Stop(Exception):
    pass


def stop_at(k):
    """An observer that raises at outer iteration ``k``."""
    def observer(event):
        if event["k"] == k:
            raise Stop(f"stop at outer iteration {k}")
    return observer


@pytest.mark.parametrize("case", ["admm_returns", "admm_stalls",
                                  "admm_raises", "dr_returns", "dr_stalls",
                                  "dr_raises", "dr_returns_affine",
                                  "dr_stalls_affine", "dr_raises_affine"])
def test_runs_release_procedure_state_at_exit(lasso_20x50, inertial_core,
                                              case):
    """A run resets its F-procedure on every exit, so no session or stored
    vector of the run stays alive with the procedure: a normal return, a
    returned ``stalled`` status (the inner budget: sigma = 0 with
    iterative CG never lands) and an exception the observer raises.  The
    ``affine`` cases run the same LASSO through ``CGBProcedure`` with B =
    A^T A x - A^T b."""
    driver, exit_, *affine = case.split("_")
    if affine:
        a = lasso_20x50.A.toarray()
        fproc = CGBProcedure(a.T @ a, -(a.T @ lasso_20x50.b))
    else:
        fproc = QuadraticFProcedure(lasso_20x50.A, lasso_20x50.b)
    opened = []
    open_session = fproc.open_session

    def tracked_open(*args):
        session = open_session(*args)
        opened.append(weakref.ref(session))
        return session

    fproc.open_session = tracked_open
    core = (ir.InertiaRelaxParams.plain(sigma=0.0) if exit_ == "stalls"
            else inertial_core)
    observer = stop_at(3) if exit_ == "raises" else None
    budget = 30 if exit_ == "stalls" else 10_000
    if driver == "dr":
        n = lasso_20x50.n
        init = SplitTriple(np.zeros(n), np.zeros(n), np.zeros(n))
        res_a = L1Resolvent(lasso_20x50.nu)

        def run():
            return run_dr(init, DRParams(1.0, core, inner_budget=budget),
                          fproc, res_a, max_outer=20, observer=observer)
    else:
        aprob = ir.lasso_admm_problem(lasso_20x50, 1.0)
        aprob.fproc = fproc

        def run():
            return run_admm(aprob, ADMMParams(c=1.0, core=core, epsilon=1e-6,
                                              max_outer=5000,
                                              inner_budget=budget),
                            observer=observer)
    if exit_ == "raises":
        with pytest.raises(Stop, match="outer iteration 3"):
            run()
    else:
        want = {"dr_returns": "budget_exceeded", "admm_returns": "converged"}
        assert run().status == want.get(f"{driver}_{exit_}", "stalled")
    assert len(opened) >= 1
    assert held_state(fproc) == []
    gc.collect()
    assert all(ref() is None for ref in opened)


def test_raising_observer_ends_the_run_and_resets_the_procedure(
        lasso_20x50, inertial_core):
    """An exception the observer raises ends the run, and the F-procedure
    is reset on that exit as on any other."""
    fproc = QuadraticFProcedure(lasso_20x50.A, lasso_20x50.b)
    aprob = ir.lasso_admm_problem(lasso_20x50, 1.0)
    aprob.fproc = fproc
    params = ADMMParams(c=1.0, core=inertial_core, epsilon=1e-6,
                        max_outer=5000)
    seen = []

    def observer(event):
        seen.append(event["k"])
        if event["k"] == 3:
            raise Stop("stop at outer iteration 3")

    with pytest.raises(Stop, match="outer iteration 3"):
        run_admm(aprob, params, observer=observer)
    assert seen == [0, 1, 2, 3]
    assert held_state(fproc) == []


class BrokenAtOuter:
    """Wraps an F-procedure; the session opened at outer iteration ``at``
    emits trials corrupted by ``corrupt`` and, with ``exact``, claims
    exactness, so the run accepts its first trial.  ``opened`` counts the
    sessions."""

    def __init__(self, fproc, at, corrupt, exact=True):
        self.fproc = fproc
        self.at = at
        self.corrupt = corrupt
        self.exact = exact
        self.opened = 0

    def open_session(self, p, z, c, x_bar, anchor=None):
        session = self.fproc.open_session(p, z, c, x_bar, anchor)
        self.opened += 1
        if self.opened - 1 == self.at:
            step = session.next
            session.next = lambda: self.corrupt(*step())
            session.exact = self.exact
        return session


def nan_x(x, y):
    x = x.copy()
    x[0] = np.nan
    return x, y


def inf_y(x, y):
    y = y.copy()
    y[1] = np.inf
    return x, y


def inf_x(x, y):
    x = x.copy()
    x[0] = np.inf
    return x, y


class NaNProx:
    """Shifted prox that returns NaN in one coordinate from call ``at``."""

    def __init__(self, prox, at):
        self.prox = prox
        self.at = at
        self.calls = 0

    def solve(self, p, x, c):
        z = self.prox.solve(p, x, c)
        self.calls += 1
        if self.calls > self.at:
            z[2] = np.nan
        return z


CORRUPTIONS = {"x": (nan_x, True), "y": (inf_y, True),
               "inf_x": (inf_x, True), "inf_x_inexact": (inf_x, False)}


@pytest.mark.parametrize("source", ["x", "y", "inf_x", "inf_x_inexact",
                                    "prox"])
def test_nonfinite_iterate_error_names_outer_iteration(lasso_20x50,
                                                       inertial_core, source):
    """A NaN or inf entering through x, y or the prox output makes the
    trial non-finite; the run stops there with status ``error`` and the
    outer index in ``record.cause``, returning the last finite iterate.
    An inf in x meets the inf the shrink returns for it, so x - z is
    inf - inf, with no numpy warning out of the run."""
    aprob = ir.lasso_admm_problem(lasso_20x50, 1.0)
    if source == "prox":
        aprob.prox_g = NaNProx(aprob.prox_g, 0)
        aprob.fproc = BrokenAtOuter(aprob.fproc, 0, lambda x, y: (x, y))
        at = 0
    else:
        corrupt, exact = CORRUPTIONS[source]
        aprob.fproc = BrokenAtOuter(aprob.fproc, 3, corrupt, exact=exact)
        at = 3
    params = ADMMParams(c=1.0, core=inertial_core, epsilon=1e-6,
                        max_outer=5000)
    res = run_admm(aprob, params)
    assert (res.status, res.record.status) == ("error", "error")
    assert res.outer_iters == at
    assert res.record.cause.endswith(f"at outer iteration {at}")
    assert "non-finite trial" in res.record.cause
    assert aprob.fproc.opened == at + 1


def raise_line_search(x, y):
    raise LineSearchFailure("no Armijo step within the backtrack budget")


class InfToX:
    """Shifted prox that maps an inf to a finite value: where the wrapped
    prox's output is not finite it returns x, so there x - z = 0."""

    def __init__(self, prox):
        self.prox = prox

    def solve(self, p, x, c):
        z = self.prox.solve(p, x, c)
        bad = ~np.isfinite(z)
        z[bad] = x[bad]
        return z


class FailingOracle:
    """Exact certificates of a monotone rotation until call ``at``, then a
    certificate that fails the relative-error test."""

    def __init__(self, at):
        self.exact = ExactResolventOracle(
            AffineOperator(np.array([[0.1, 1.0], [-1.0, 0.1]])))
        self.at = at
        self.calls = 0

    def solve(self, w, sigma):
        self.calls += 1
        if self.calls > self.at:
            return ir.ProxCertificate(w + 10.0, np.ones_like(w))
        return self.exact.solve(w, sigma)


FAILURE_CASES = [("inner_budget", "stalled", "inner budget", 0),
                 ("line_search", "error", "LineSearchFailure", 2),
                 ("cg_breakdown", "error", "CGBreakdown", 0),
                 ("exact_inf_y", "error", "theta = nan", 3),
                 ("inexact_inf_y", "error", "non-finite trial", 3),
                 ("oracle", "error", "OracleFailure", 2)]


@pytest.mark.parametrize("case, status, failure, at", FAILURE_CASES,
                         ids=[case[0] for case in FAILURE_CASES])
def test_no_library_failure_escapes_after_entry(lasso_20x50, inertial_core,
                                                case, status, failure, at):
    """After the entry checks every failure of the library's own making is
    a returned status, with no exception and no numpy warning (the suite
    turns RuntimeWarning into an error): the run returns the last completed
    iterate, which is the last observer event's, or the start when it fails
    at outer iteration 0, and ``record.cause`` names the failure and the
    outer iteration.  An exact-claiming session with an inf in y, through a
    prox that maps the inf to a finite value, makes t @ d meet inf * 0; an
    inexact one makes the acceptance vector meet inf - inf."""
    events = Collector()
    n = lasso_20x50.n
    if case == "oracle":
        res = run_hpp(np.ones(2), FailingOracle(at),
                      ir.InertiaRelaxParams.plain(sigma=0.1), max_iters=50,
                      observer=events)
        got, want = [res.x], [events[-1].z]
    elif case == "cg_breakdown":
        rng = np.random.default_rng(3)
        init = SplitTriple(*(rng.standard_normal(n) for _ in range(3)))
        res = run_dr(init, DRParams(1.0, inertial_core),
                     CGBProcedure(-3.0 * np.eye(n)), L1Resolvent(0.3),
                     max_outer=50, observer=events)
        got = [res.triple.s, res.triple.b, res.triple.r]
        want = [init.s, init.b, init.r]
    else:
        aprob = ir.lasso_admm_problem(lasso_20x50, 1.0)
        core = (ir.InertiaRelaxParams.plain(sigma=0.0)
                if case == "inner_budget" else inertial_core)
        if case == "line_search":
            aprob.fproc = BrokenAtOuter(aprob.fproc, at, raise_line_search)
        elif case.endswith("inf_y"):
            aprob.fproc = BrokenAtOuter(aprob.fproc, at, inf_y,
                                        exact=case == "exact_inf_y")
            if case == "exact_inf_y":
                aprob.prox_g = InfToX(aprob.prox_g)
        res = run_admm(aprob, ADMMParams(c=1.0, core=core, epsilon=1e-6,
                                         max_outer=5000, inner_budget=30),
                       observer=events)
        got = [res.triple.x, res.triple.z, res.triple.p]
        want = ([events[-1].x, events[-1].z, events[-1].p] if at
                else [np.zeros(n)] * 3)
    assert res.status == status
    assert res.record.status == {"stalled": "budget_exceeded"}.get(status,
                                                                   status)
    assert len(events) == res.record.outer_iters == at
    for g, w in zip(got, want):
        assert np.all(np.isfinite(g)) and np.array_equal(g, w)
    assert failure in res.record.cause
    assert res.record.cause.endswith(f"at outer iteration {at}")
    assert math.isfinite(res.record.final_kkt)


class OrthogonalTrial:
    """An exact-claiming session and a prox stub whose one trial, from the
    zero triple at c = 1, gives t = p_l - c z_l = x_l - y_l - z_l
    orthogonal to d = x_l - z_l != 0: t . d == 0 exactly."""

    exact = True

    def __init__(self, x_l, y_l, z_l):
        self.trial = tuple(np.array(v) for v in (x_l, y_l, z_l))

    def open_session(self, p, z, c, x_bar, anchor=None):
        return self

    def next(self):
        return self.trial[:2]

    def solve(self, p, x, c):
        return self.trial[2].copy()


@pytest.mark.parametrize("x_l, y_l, z_l", [
    ([2.0], [1.0], [1.0]),  # n = 1: t = 0, d = 1
    ([1.0, 1.0], [0.0, 2.0], [0.0, 0.0]),  # n = 2: t = (1, -1), d = (1, 1)
], ids=["n1", "n2"])
def test_a_zero_theta_ends_the_run_as_error(inertial_core, x_l, y_l, z_l):
    """theta = <t, d>/(c dd) = 0 with dd > 0 puts the projection at the
    trial's own point: the loop's test 0 < theta < inf rejects it, and the
    run ends as ``error`` at outer iteration 0 instead of going on with no
    progress."""
    stub = OrthogonalTrial(x_l, y_l, z_l)
    n = len(x_l)
    problem = ir.AdmmProblem(stub, stub, lambda z, floor: 1.0, dim=n)
    res = run_admm(problem, ADMMParams(c=1.0, core=inertial_core,
                                       max_outer=3))
    assert res.status == "error"
    assert res.record.cause.startswith("theta = 0.0 in the projection")
    assert res.record.cause.endswith("at outer iteration 0")
    assert res.outer_iters == 0


def test_nan_in_init_raises_at_entry(lasso_20x50, inertial_core):
    aprob = ir.lasso_admm_problem(lasso_20x50, 1.0)
    aprob.fproc = BrokenAtOuter(aprob.fproc, -1, None)  # counts only
    params = ADMMParams(c=1.0, core=inertial_core, epsilon=1e-6,
                        max_outer=5000)
    init = PrimalDualTriple.zeros(lasso_20x50.n)
    init.p[4] = np.nan  # after construction, so the triple's check passed
    with pytest.raises(ValueError):
        run_admm(aprob, params, init=init)
    assert aprob.fproc.opened == 0


def test_init_of_wrong_length_raises_at_entry(lasso_20x50, inertial_core):
    aprob = ir.lasso_admm_problem(lasso_20x50, 1.0)
    aprob.fproc = BrokenAtOuter(aprob.fproc, -1, None)  # counts only
    params = ADMMParams(c=1.0, core=inertial_core, epsilon=1e-6,
                        max_outer=5000)
    with pytest.raises(ValueError, match="shape"):
        run_admm(aprob, params, init=PrimalDualTriple.zeros(lasso_20x50.n - 1))
    assert aprob.fproc.opened == 0


def test_problem_without_kkt_residual_raises_at_entry(lasso_20x50,
                                                      inertial_core):
    """run_admm stops on the KKT test, so a problem without a residual is
    rejected at entry, before any session opens."""
    aprob = ir.lasso_admm_problem(lasso_20x50, 1.0)
    aprob.fproc = BrokenAtOuter(aprob.fproc, -1, None)  # counts only
    aprob.kkt_residual = None
    with pytest.raises(ValueError, match="kkt_residual"):
        run_admm(aprob, ADMMParams(c=1.0, core=inertial_core))
    assert aprob.fproc.opened == 0


# ---------------------------------------------------------------------------
# embedding onto the splitting layer
# ---------------------------------------------------------------------------

def test_embed_sign_convention():
    triple = PrimalDualTriple(np.ones(2), 2 * np.ones(2), np.zeros(2))
    s, b, r = reference.embed_to_dr(triple.x, triple.z, triple.p)
    assert np.array_equal(b, np.zeros(2))
    assert np.array_equal(s, triple.x)
    assert np.array_equal(r, triple.z)


def test_full_trajectory_equivalence_with_splitting_layer(lasso_20x50,
                                                          inertial_core):
    """Run both layers in parallel on the same instance and compare outer
    trajectories and inner trial counts."""
    prob = lasso_20x50
    c = 1.0
    aprob = ir.lasso_admm_problem(prob, c)
    params = ADMMParams(c=c, core=inertial_core,
                        criterion=Criterion.SUM_SQUARES, epsilon=0.0,
                        max_outer=110)
    admm_events = Collector()
    admm_res = run_admm(aprob, params, observer=admm_events)
    assert admm_res.outer_iters == 110

    fproc = QuadraticFProcedure(prob.A, prob.b)
    res_a = L1Resolvent(prob.nu)
    dr_params = DRParams(gamma=1.0 / c, core=inertial_core)
    init = SplitTriple(np.zeros(prob.n), np.zeros(prob.n), np.zeros(prob.n))
    dr_events = Collector()
    dr_res = run_dr(init, dr_params, fproc, res_a, max_outer=110,
                    observer=dr_events)
    assert dr_res.status == "budget_exceeded"
    assert len(dr_events) == len(admm_events) == 110

    # the splitting run's events are in the variables (s, b, r) = (x, -p, z)
    worst = 0.0
    for a_step_, d_step in zip(admm_events, dr_events):
        assert a_step_.trials == d_step.trials
        worst = max(worst,
                    float(np.max(np.abs(d_step.x - a_step_.x))),
                    float(np.max(np.abs(-d_step.p + a_step_.p))),
                    float(np.max(np.abs(d_step.z - a_step_.z))))
    assert worst <= 1e-12


def test_acceptance_verdicts_agree_under_embedding(lasso_20x50,
                                                   plain_core_sigma99):
    """Every inner trial's summed-squares verdict matches the splitting-layer
    test evaluated on the mapped quantities."""
    prob = lasso_20x50
    c = 1.0
    aprob = ir.lasso_admm_problem(prob, c)
    params = ADMMParams(c=c, core=plain_core_sigma99,
                        criterion=Criterion.SUM_SQUARES, epsilon=0.0,
                        max_outer=60)
    sessions = record_trials(aprob)
    events = Collector()
    run_admm(aprob, params, observer=events)
    assert len(sessions) == len(events)
    checked = 0
    for step, session in zip(events, sessions):
        _, b_hat, r_hat = reference.embed_to_dr(step.x_hat, step.z_hat,
                                                step.p_hat)
        # the accepted trial is the last of its session
        for i, trial in enumerate(session, 1):
            verdict = reference.dr_acceptance(
                r_hat, b_hat, trial.x, -trial.p_l, trial.z_l, 1.0 / c,
                plain_core_sigma99.sigma)
            assert verdict == (i == len(session))
            checked += 1
    assert checked >= 60


# ---------------------------------------------------------------------------
# the L-BFGS path (l1-logistic)
# ---------------------------------------------------------------------------

class BiasFreeL1Resolvent:
    """Resolvent of the subdifferential of nu ||x[1:]||_1: the shrink on
    every coordinate but the unregularized bias x[0]."""

    def __init__(self, nu):
        self.nu = nu

    def resolvent(self, gamma, u):
        r = soft_threshold(u, gamma * self.nu)
        r[0] = u[0]
        return r


def count_step_value_gradients(prob, c):
    """Build the logistic ADMM problem with ``prob.value_gradient`` counted
    while a session's ``next`` runs; returns ``(problem, counts)``."""
    counts = {"step": 0, "inside": False}
    base = prob.value_gradient

    def value_gradient(x):
        counts["step"] += counts["inside"]
        return base(x)

    prob.value_gradient = value_gradient
    aprob = ir.logistic_admm_problem(prob, c)
    open_session = aprob.fproc.open_session

    def counted_open(*args):
        session = open_session(*args)
        step = session.next

        def counted_next():
            counts["inside"] = True
            try:
                return step()
            finally:
                counts["inside"] = False

        session.next = counted_next
        return session

    aprob.fproc.open_session = counted_open
    return aprob, counts


def test_runs_on_one_logistic_problem_are_independent():
    """The curvature memory the L-BFGS sessions share is cleared at run
    entry, so a second run on the same problem repeats the first."""
    aprob = ir.logistic_admm_problem(ir.synthetic_logistic(50, 31, seed=0),
                                     1.0)
    params = ADMMParams(c=1.0, core=LOGISTIC_CORE, epsilon=1e-6,
                        max_outer=10_000)
    first = run_admm(aprob, params)
    second = run_admm(aprob, params)
    assert first.status == second.status == "converged"
    assert first.outer_iters == second.outer_iters
    assert first.inner_iters_total == second.inner_iters_total
    assert np.array_equal(first.x, second.x)


def test_lbfgs_value_gradient_calls_per_trial():
    """Count gate: with curvature memory carried across the outer
    iterations, an inner trial costs at most 1.5 value-gradient calls
    (about 2.4 with a memoryless session per outer iteration)."""
    prob = ir.synthetic_logistic(50, 31, seed=0)
    aprob, counts = count_step_value_gradients(prob, 1.0)
    params = ADMMParams(c=1.0, core=LOGISTIC_CORE,
                        criterion=Criterion.MAX_FORM, epsilon=1e-6,
                        max_outer=10_000)
    res = run_admm(aprob, params)
    assert res.status == "converged"
    assert counts["step"] <= 1.5 * res.inner_iters_total


def test_logistic_trajectory_equivalence_with_splitting_layer(inertial_core):
    """The L-BFGS twin of the LASSO equivalence test: the ADMM run and the
    splitting layer driven through the F -> B adapter agree step by step,
    and every emitted y is the augmented gradient at its x.  The splitting
    run reuses the ADMM run's F-procedure, so it also checks that the
    splitting run resets the curvature memory at entry."""
    prob = ir.synthetic_logistic(30, 11, seed=1)
    c = 1.0
    n = prob.n
    params = ADMMParams(c=c, core=inertial_core,
                        criterion=Criterion.SUM_SQUARES, epsilon=0.0,
                        max_outer=80)
    aprob = ir.logistic_admm_problem(prob, c)
    assert isinstance(aprob.fproc, LBFGSFProcedure)
    sessions = record_trials(aprob)
    admm_events = Collector()
    admm_res = run_admm(aprob, params, observer=admm_events)
    assert admm_res.outer_iters == 80
    assert len(sessions) == len(admm_events)
    admm_sessions = list(sessions)  # the splitting run records more

    dr_params = DRParams(gamma=1.0 / c, core=inertial_core)
    init = SplitTriple(np.zeros(n), np.zeros(n), np.zeros(n))
    dr_events = Collector()
    dr_res = run_dr(init, dr_params, aprob.fproc,
                    BiasFreeL1Resolvent(prob.nu),
                    max_outer=80, observer=dr_events)
    assert dr_res.status == "budget_exceeded"
    assert len(dr_events) == len(admm_events) == 80

    # the splitting run's events are in the variables (s, b, r) = (x, -p, z)
    worst = 0.0
    for a_step_, d_step in zip(admm_events, dr_events):
        assert a_step_.trials == d_step.trials
        worst = max(worst,
                    float(np.max(np.abs(d_step.x - a_step_.x))),
                    float(np.max(np.abs(-d_step.p + a_step_.p))),
                    float(np.max(np.abs(d_step.z - a_step_.z))))
    assert worst <= 1e-12

    for step, session in zip(admm_events, admm_sessions):
        for trial in session:
            grad_f = prob.value_gradient(trial.x)[1]
            shift = step.p_hat + c * (trial.x - step.z_hat)
            scale = 1.0 + np.max(np.abs(grad_f)) + np.max(np.abs(shift))
            assert np.max(np.abs(trial.y - (grad_f + shift))) <= 1e-14 * scale


def test_logistic_1000x201_converges_at_c10(inertial_core):
    prob = ir.synthetic_logistic(1000, 201, seed=0)
    params = ADMMParams(c=10.0, core=inertial_core, epsilon=1e-6,
                        max_outer=10_000)
    res = run_admm(ir.logistic_admm_problem(prob, 10.0), params)
    assert res.status == "converged"
    assert prob.kkt_dist_inf(res.x) <= 1e-6


def test_logistic_1000x201_converges_at_c1(inertial_core):
    prob = ir.synthetic_logistic(1000, 201, seed=0)
    params = ADMMParams(c=1.0, core=inertial_core, epsilon=1e-6,
                        max_outer=10_000)
    res = run_admm(ir.logistic_admm_problem(prob, 1.0), params)
    assert res.status == "converged"
    assert prob.kkt_dist_inf(res.x) <= 1e-6
