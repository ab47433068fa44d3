"""ADMM layer: elementary steps, adapters, runs, and the splitting embedding."""

import numpy as np
import pytest

import irsplit as ir
from irsplit.admm import (ADMMParams, Criterion, PrimalDualTriple,
                          admm_acceptance, admm_extrapolate, embed_to_dr,
                          f_to_b_adapter, multiplier_candidate, p_update,
                          run_admm, theta_admm)
from irsplit.dr import DRParams, SplitTriple, classical_dr_step, run_dr, theta
from irsplit.errors import BudgetExceeded, ZeroVectorError
from irsplit.hpp import rho_bar_of_beta
from irsplit.operators import ExactQuadraticFProcedure, L1Resolvent
from irsplit.problems import L1ShiftedProx
from irsplit.subsolvers import (LBFGSFProcedure, QuadraticFProcedure,
                                soft_threshold)

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

    def apply(self, gamma, u):
        n = self.gram.shape[0]
        return np.linalg.solve(np.eye(n) + gamma * self.gram,
                               u + gamma * self.atb)


# ---------------------------------------------------------------------------
# elementary steps
# ---------------------------------------------------------------------------

def test_extrapolate_cases():
    cur = PrimalDualTriple(2 * np.ones(2), 2 * np.ones(2), 2 * np.ones(2))
    prev = PrimalDualTriple(np.ones(2), np.ones(2), np.ones(2))
    hat = admm_extrapolate(cur, prev, 0.1)
    for part in (hat.x, hat.z, hat.p):
        assert np.allclose(part, 2.1, atol=0)
    same = admm_extrapolate(cur, prev, 0.0)
    assert np.array_equal(same.x, cur.x)
    first = admm_extrapolate(cur, cur, 0.9)
    assert np.array_equal(first.p, cur.p)


def test_multiplier_candidate_cases():
    p_hat = np.zeros(1)
    assert multiplier_candidate(p_hat, np.ones(1), np.ones(1),
                                np.zeros(1), 2.0)[0] == 0.0
    out = multiplier_candidate(np.zeros(1), np.array([1.0]), np.array([0.0]),
                               np.array([0.5]), 2.0)
    assert out[0] == pytest.approx(1.5)


def test_acceptance_trivial_and_worked():
    zero = np.zeros(2)
    assert admm_acceptance(zero, np.ones(2), zero, zero, zero, np.ones(2),
                           1.0, 0.0, Criterion.SUM_SQUARES)
    assert admm_acceptance(zero, np.ones(2), zero, zero, zero, np.ones(2),
                           1.0, 0.0, Criterion.MAX_FORM)
    # ||y|| = 1, both right-hand norms = 1, sigma = 0.99
    y = np.array([1.0, 0.0])
    p_l = np.array([0.0, 1.0])
    x_l = np.array([1.0, 0.0])
    assert admm_acceptance(y, p_l, zero, zero, zero, x_l, 1.0, 0.99,
                           Criterion.SUM_SQUARES)
    assert not admm_acceptance(y, p_l, zero, zero, zero, x_l, 1.0, 0.99,
                               Criterion.MAX_FORM)
    # sigma = 0 with a nonzero certificate
    assert not admm_acceptance(y, p_l, zero, zero, zero, x_l, 1.0, 0.0,
                               Criterion.SUM_SQUARES)


def test_max_form_implies_sum_squares():
    rng = np.random.default_rng(21)
    for _ in range(500):
        y, p_l, p_hat, z_l, z_hat, x_l = (rng.standard_normal(3)
                                          for _ in range(6))
        c = rng.uniform(0.2, 3.0)
        sigma = rng.uniform(0.0, 0.99)
        if admm_acceptance(y, p_l, p_hat, z_l, z_hat, x_l, c, sigma,
                           Criterion.MAX_FORM):
            assert admm_acceptance(y, p_l, p_hat, z_l, z_hat, x_l, c, sigma,
                                   Criterion.SUM_SQUARES)


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
    p_l = multiplier_candidate(hat.p, x_l, hat.z, np.zeros(4), c)
    z_l = rng.standard_normal(4)
    assert theta_admm(hat, x_l, z_l, p_l, c) == pytest.approx(1.0, abs=1e-12)


def test_theta_matches_splitting_layer():
    rng = np.random.default_rng(24)
    for c in (1.0, 2.3):
        hat = PrimalDualTriple(*(rng.standard_normal(5) for _ in range(3)))
        x_l, z_l, p_l = (rng.standard_normal(5) for _ in range(3))
        th_a = theta_admm(hat, x_l, z_l, p_l, c)
        hat_dr = embed_to_dr(hat, c)
        th_d = theta(hat_dr, x_l, -p_l, z_l, 1.0 / c)
        assert abs(th_a - th_d) <= 1e-12 * (1.0 + abs(th_d))


def test_theta_zero_denominator():
    hat = PrimalDualTriple(np.zeros(2), np.zeros(2), np.zeros(2))
    x = np.ones(2)
    with pytest.raises(ZeroVectorError):
        theta_admm(hat, x, x.copy(), np.zeros(2), 1.0)


def test_p_update_cases_and_embedding():
    rng = np.random.default_rng(25)
    hat = PrimalDualTriple(*(rng.standard_normal(4) for _ in range(3)))
    c = 1.3
    x_n, z_n = rng.standard_normal(4), rng.standard_normal(4)
    # exact case theta = 1, rho = 1 collapses to the multiplier candidate
    p1 = p_update(hat.p, hat.z, z_n, x_n, 1.0, 1.0, c)
    assert np.allclose(p1, multiplier_candidate(hat.p, x_n, hat.z,
                                                np.zeros(4), c), atol=1e-12)
    # zero weight keeps the z-difference form
    p0 = p_update(hat.p, hat.z, z_n, x_n, 0.0, 1.0, c)
    assert np.allclose(p0, hat.p + c * (z_n - hat.z), atol=1e-12)
    # general case mirrors the splitting-layer b update
    from irsplit.dr import dr_update
    th, rho = 0.8, 1.4
    p2 = p_update(hat.p, hat.z, z_n, x_n, th, rho, c)
    nxt = dr_update(embed_to_dr(hat, c), x_n, z_n, th, rho, 1.0 / c)
    assert np.linalg.norm(nxt.b - (-p2)) <= 1e-12 * (1 + np.linalg.norm(p2))


# ---------------------------------------------------------------------------
# the F -> B adapter
# ---------------------------------------------------------------------------

def test_adapter_exact_step_is_resolvent_of_grad_f():
    a, b, _ = small_lasso()
    fproc = ExactQuadraticFProcedure(a, b)
    adapter = f_to_b_adapter(fproc)
    rng = np.random.default_rng(26)
    r, bb = rng.standard_normal(5), rng.standard_normal(5)
    gamma = 0.8
    session = adapter.open_session(r, bb, gamma, np.zeros(5), bb)
    s, b_l = session.next()
    expected = QuadFResolvent(a, b).apply(gamma, r + gamma * bb)
    assert np.linalg.norm(s - expected) <= 1e-10
    # the adapted pair solves the half-step equation
    assert np.linalg.norm(s + gamma * b_l - (r + gamma * bb)) <= 1e-10


def test_adapter_cg_membership_and_convergence():
    a, b, _ = small_lasso(m=12, n=7, seed=3)
    fproc = QuadraticFProcedure(ir.DesignMatrix(a), b, 1.0)
    adapter = f_to_b_adapter(fproc)
    rng = np.random.default_rng(27)
    r, bb = rng.standard_normal(7), rng.standard_normal(7)
    gamma = 1.0
    session = adapter.open_session(r, bb, gamma, np.zeros(7), bb)
    gaps = []
    for _ in range(9):
        s, b_l = session.next()
        grad_f = a.T @ (a @ s - b)
        assert np.linalg.norm(b_l - grad_f) <= 1e-10 * (1 + np.linalg.norm(grad_f))
        gaps.append(np.linalg.norm(s + gamma * b_l - (r + gamma * bb)))
    assert gaps[-1] <= 1e-9 * (1 + gaps[0])  # finite CG termination


def test_adapter_multiplier_consistency():
    # -(adapter slope) coincides with the multiplier candidate trial by trial
    a, b, _ = small_lasso(m=10, n=6, seed=4)
    c = 1.0
    fproc = QuadraticFProcedure(ir.DesignMatrix(a), b, c)
    rng = np.random.default_rng(28)
    p_hat, z_hat, x_bar = (rng.standard_normal(6) for _ in range(3))
    fsession = fproc.open_session(p_hat, z_hat, c, x_bar)
    adapter = f_to_b_adapter(QuadraticFProcedure(ir.DesignMatrix(a), b, c))
    bsession = adapter.open_session(z_hat, -p_hat, 1.0 / c, x_bar, -p_hat)
    for _ in range(6):
        x_l, y_l = fsession.next()
        s_l, b_l = bsession.next()
        p_l = multiplier_candidate(p_hat, x_l, z_hat, y_l, c)
        assert np.array_equal(s_l, x_l)
        assert np.array_equal(b_l, -p_l)


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def test_run_exact_follows_classical_splitting_recursion():
    # alpha = 0, rho = 1, sigma = 0 with exact solves: the mapped iterate
    # z - p/c executes the classical recursion for A = subdiff(g),
    # B = grad f with gamma = 1/c
    a, b, prob = small_lasso()
    fproc = ExactQuadraticFProcedure(a, b)
    aprob = ir.AdmmProblem(fproc, L1ShiftedProx(prob.nu), prob.kkt_dist_inf,
                           prob.objective, 5)
    params = ADMMParams(c=1.0, core=ir.InertiaRelaxParams.plain(sigma=0.0),
                        epsilon=0.0, max_outer=60)
    res = run_admm(aprob, params, keep_trace=True)
    res_a = L1Resolvent(prob.nu)
    res_b = QuadFResolvent(a, b)
    zeta = np.zeros(5)
    worst = 0.0
    for step in res.trace:
        zeta = classical_dr_step(zeta, 1.0, res_a, res_b)
        zeta_run = step.next.z - step.next.p
        worst = max(worst, float(np.max(np.abs(zeta - zeta_run))))
    assert len(res.trace) >= 50
    assert worst <= 1e-12


def test_run_exact_agrees_with_classical_admm_limit():
    # the classical x-then-z-then-p recursion is a different trajectory but
    # shares the minimizer
    a, b, prob = small_lasso(nu=0.4)
    fproc = ExactQuadraticFProcedure(a, b)
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


def test_final_kkt_is_the_stopping_value(lasso_20x50, inertial_core):
    evals = []

    def kkt(x):
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


def test_inner_budget_exhaustion_raises(lasso_20x50, inertial_core):
    aprob = ir.lasso_admm_problem(lasso_20x50, 1.0)
    params = ADMMParams(c=1.0,
                        core=ir.InertiaRelaxParams.plain(sigma=0.0),
                        epsilon=1e-6, max_outer=50, inner_budget=30)
    with pytest.raises(BudgetExceeded):
        run_admm(aprob, params)  # sigma = 0 with iterative CG never lands


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
    """Straight-line inexact inertial-relaxed ADMM from the public helpers
    on validated triples (KKT test every outer iteration).  Returns the
    triple after each outer iteration and the trials each one took."""
    c, core = params.c, params.core
    cur = prev = PrimalDualTriple.zeros(problem.dim)
    triples, trials = [], []
    for _ in range(params.max_outer):
        if problem.kkt_residual(cur.z) <= params.epsilon:
            break
        hat = admm_extrapolate(cur, prev, core.alpha)
        session = problem.fproc.open_session(hat.p, hat.z, c, hat.x)
        for trial in range(1, params.inner_budget + 1):
            x_l, y_l = session.next()
            p_l = multiplier_candidate(hat.p, x_l, hat.z, y_l, c)
            z_l = problem.prox_g.solve(p_l, x_l, c)
            if admm_acceptance(y_l, p_l, hat.p, z_l, hat.z, x_l, c,
                               core.sigma, params.criterion):
                break
        else:
            raise BudgetExceeded("reference: no accepted trial")
        th = theta_admm(hat, x_l, z_l, p_l, c)
        assert th > 0.0
        p_next = p_update(hat.p, hat.z, z_l, x_l, th, core.rho_hi, c)
        prev, cur = cur, PrimalDualTriple(x_l, z_l, p_next)
        triples.append(cur)
        trials.append(trial)
    return triples, trials


def make_instance(kind):
    if kind == "lasso":
        return ir.lasso_admm_problem(ir.synthetic_lasso(20, 50, seed=7), 1.0)
    return ir.logistic_admm_problem(ir.synthetic_logistic(30, 11, seed=1),
                                    1.0)


@pytest.mark.parametrize("keep_trace", [False, True])
@pytest.mark.parametrize("criterion", list(Criterion))
@pytest.mark.parametrize("kind", ["lasso", "logistic"])
def test_run_matches_straight_line_reference(kind, criterion, keep_trace):
    """The run's iterates are bit-identical to the reference's and every
    outer iteration takes the same number of trials, on the CG path
    (LASSO) and the L-BFGS path (logistic)."""
    params = published_params(criterion)
    triples, trials = reference_admm(make_instance(kind), params)
    res = run_admm(make_instance(kind), params, keep_trace=keep_trace)
    assert res.status == "converged"
    assert res.outer_iters == len(trials) > 10
    assert res.inner_iters_total == sum(trials)
    last = triples[-1]
    for got, want in ((res.triple.x, last.x), (res.triple.z, last.z),
                      (res.triple.p, last.p), (res.x, last.z)):
        assert np.array_equal(got, want)
    if keep_trace:
        assert [step.trials for step in res.trace] == trials
        for step, want in zip(res.trace, triples):
            assert len(step.inner) == step.trials
            for got, ref in ((step.next.x, want.x), (step.next.z, want.z),
                             (step.next.p, want.p)):
                assert np.array_equal(got, ref)
    else:
        assert res.trace is None


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


class BrokenAtOuter:
    """Wraps an F-procedure; the session opened at outer iteration ``at``
    claims exactness and emits one trial corrupted by ``corrupt``, so the
    run accepts it.  ``opened`` counts the sessions."""

    def __init__(self, fproc, at, corrupt):
        self.fproc = fproc
        self.at = at
        self.corrupt = corrupt
        self.opened = 0

    def open_session(self, p, z, c, x_bar):
        session = self.fproc.open_session(p, z, c, x_bar)
        self.opened += 1
        if self.opened - 1 == self.at:
            step = session.next
            session.next = lambda: self.corrupt(*step())
            session.exact = True
        return session


def nan_x(x, y):
    x = x.copy()
    x[0] = np.nan
    return x, y


def inf_y(x, y):
    y = y.copy()
    y[1] = np.inf
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


@pytest.mark.parametrize("source", ["x", "y", "prox"])
def test_nonfinite_iterate_error_names_outer_iteration(lasso_20x50,
                                                       inertial_core, source):
    """A NaN or inf entering through x, y or the prox output makes theta
    non-finite; the run stops there with the outer index in the message."""
    aprob = ir.lasso_admm_problem(lasso_20x50, 1.0)
    if source == "prox":
        aprob.prox_g = NaNProx(aprob.prox_g, 0)
        aprob.fproc = BrokenAtOuter(aprob.fproc, 0, lambda x, y: (x, y))
        at = 0
    else:
        aprob.fproc = BrokenAtOuter(aprob.fproc, 3,
                                    nan_x if source == "x" else inf_y)
        at = 3
    params = ADMMParams(c=1.0, core=inertial_core, epsilon=1e-6,
                        max_outer=5000)
    with pytest.raises(ValueError, match=f"outer iteration {at} "):
        run_admm(aprob, params)
    assert aprob.fproc.opened == at + 1


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


# ---------------------------------------------------------------------------
# embedding onto the splitting layer
# ---------------------------------------------------------------------------

def test_embed_sign_convention():
    triple = PrimalDualTriple(np.ones(2), 2 * np.ones(2), np.zeros(2))
    mapped = embed_to_dr(triple, 2.0)
    assert np.array_equal(mapped.b, np.zeros(2))
    assert np.array_equal(mapped.s, triple.x)
    assert np.array_equal(mapped.r, triple.z)


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
    admm_res = run_admm(aprob, params, keep_trace=True)
    assert admm_res.outer_iters == 110

    fproc = QuadraticFProcedure(prob.A, prob.b, c)
    bproc = f_to_b_adapter(fproc)
    res_a = L1Resolvent(prob.nu)
    dr_params = DRParams(gamma=1.0 / c, core=inertial_core)
    init = SplitTriple(np.zeros(prob.n), np.zeros(prob.n), np.zeros(prob.n))
    try:
        dr_res = run_dr(init, dr_params, bproc, res_a, max_outer=110,
                        keep_trace=True)
    except BudgetExceeded as exc:
        dr_res = exc.state
    assert len(dr_res.trace) == len(admm_res.trace) == 110

    worst = 0.0
    for a_step_, d_step in zip(admm_res.trace, dr_res.trace):
        assert a_step_.trials == d_step.inner.trials
        worst = max(worst,
                    float(np.max(np.abs(d_step.next.s - a_step_.next.x))),
                    float(np.max(np.abs(d_step.next.b + a_step_.next.p))),
                    float(np.max(np.abs(d_step.next.r - a_step_.next.z))))
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
    res = run_admm(aprob, params, keep_trace=True)
    from irsplit.dr import dr_acceptance
    checked = 0
    for step in res.trace:
        hat_dr = embed_to_dr(step.hat, c)
        for trial in step.inner:
            verdict = dr_acceptance(hat_dr, trial.x, -trial.p_l, trial.z_l,
                                    1.0 / c, plain_core_sigma99.sigma)
            assert verdict == trial.accepted
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

    def apply(self, gamma, u):
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
    adapter passes the run-entry reset of the curvature memory through."""
    prob = ir.synthetic_logistic(30, 11, seed=1)
    c = 1.0
    n = prob.n
    params = ADMMParams(c=c, core=inertial_core,
                        criterion=Criterion.SUM_SQUARES, epsilon=0.0,
                        max_outer=80)
    aprob = ir.logistic_admm_problem(prob, c)
    assert isinstance(aprob.fproc, LBFGSFProcedure)
    admm_res = run_admm(aprob, params, keep_trace=True)
    assert admm_res.outer_iters == 80

    bproc = f_to_b_adapter(aprob.fproc)
    dr_params = DRParams(gamma=1.0 / c, core=inertial_core)
    init = SplitTriple(np.zeros(n), np.zeros(n), np.zeros(n))
    try:
        dr_res = run_dr(init, dr_params, bproc,
                        BiasFreeL1Resolvent(prob.nu), max_outer=80,
                        keep_trace=True)
    except BudgetExceeded as exc:
        dr_res = exc.state
    assert len(dr_res.trace) == len(admm_res.trace) == 80

    worst = 0.0
    for a_step_, d_step in zip(admm_res.trace, dr_res.trace):
        assert a_step_.trials == d_step.inner.trials
        worst = max(worst,
                    float(np.max(np.abs(d_step.next.s - a_step_.next.x))),
                    float(np.max(np.abs(d_step.next.b + a_step_.next.p))),
                    float(np.max(np.abs(d_step.next.r - a_step_.next.z))))
    assert worst <= 1e-12

    for step in admm_res.trace:
        hat = step.hat
        for trial in step.inner:
            grad_f = prob.value_gradient(trial.x)[1]
            shift = hat.p + c * (trial.x - hat.z)
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
