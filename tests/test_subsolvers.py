"""Subproblem engines: CG and L-BFGS sessions, shrink, proximal-gradient."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import irsplit as ir
from irsplit.errors import CGBreakdown, ParameterError
from irsplit.subsolvers import (CGSession, CurvatureMemory, FistaConfig,
                                LBFGSFProcedure, LBFGSSession,
                                QuadraticFProcedure, fista_solve,
                                soft_threshold)


def spd_matrix(rng, n, spread=10.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.linspace(1.0, spread, n)
    return (q * eigs) @ q.T


def central_difference(fun, x, h):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fun(x + e) - fun(x - e)) / (2.0 * h)
    return g


# ---------------------------------------------------------------------------
# conjugate gradient
# ---------------------------------------------------------------------------

def test_cg_identity_one_step():
    rhs = np.array([1.0, -2.0, 0.5])
    session = CGSession(lambda u: u, rhs, np.zeros(3))
    x, y = session.next()
    assert np.allclose(x, rhs, atol=1e-15)
    assert np.linalg.norm(y) <= 1e-14


def test_cg_finite_termination_n50():
    rng = np.random.default_rng(30)
    h = spd_matrix(rng, 50)
    rhs = rng.standard_normal(50)
    rhs /= np.linalg.norm(rhs)
    session = CGSession(lambda u: h @ u, rhs, np.zeros(50))
    for _ in range(50):
        _, y = session.next()
    assert np.linalg.norm(y) <= 1e-10


def test_cg_residual_orthogonality():
    rng = np.random.default_rng(31)
    h = np.diag(np.array([1.0, 2.5, 4.0, 7.0, 10.0]))
    rhs = rng.standard_normal(5)
    x0 = np.zeros(5)
    session = CGSession(lambda u: h @ u, rhs, x0)
    residuals = [h @ x0 - rhs]
    for _ in range(4):
        _, y = session.next()
        residuals.append(y)
    for i in range(len(residuals)):
        for j in range(i + 1, len(residuals)):
            ni, nj = np.linalg.norm(residuals[i]), np.linalg.norm(residuals[j])
            if ni > 1e-13 and nj > 1e-13:
                assert abs(residuals[i] @ residuals[j]) <= 1e-10 * ni * nj


def test_cg_breakdown_on_indefinite():
    h = np.diag([1.0, -1.0])
    session = CGSession(lambda u: h @ u, np.array([0.0, 1.0]), np.zeros(2))
    with pytest.raises(CGBreakdown):
        session.next()


def test_cg_stationary_start_keeps_point():
    h = np.diag([2.0, 3.0])
    x_star = np.array([1.0, -1.0])
    session = CGSession(lambda u: h @ u, h @ x_star, x_star.copy())
    x, y = session.next()
    assert np.array_equal(x, x_star)
    assert np.array_equal(y, np.zeros(2))


# ---------------------------------------------------------------------------
# quadratic F-procedure
# ---------------------------------------------------------------------------

def test_quadratic_fprocedure_identity_instance():
    design = ir.DesignMatrix(np.eye(3))
    fproc = QuadraticFProcedure(design, np.zeros(3), 1.0)
    w = np.array([2.0, -4.0, 6.0])
    session = fproc.open_session(np.zeros(3), w, 1.0, np.zeros(3))
    x, y = session.next()
    assert np.allclose(x, w / 2.0, atol=1e-14)
    assert np.linalg.norm(y) <= 1e-12


def test_quadratic_fprocedure_gradient_matches_differences():
    rng = np.random.default_rng(32)
    a = rng.standard_normal((7, 4))
    b = rng.standard_normal(7)
    p = rng.standard_normal(4)
    z = rng.standard_normal(4)
    c = 1.3
    fproc = QuadraticFProcedure(ir.DesignMatrix(a), b, c)
    session = fproc.open_session(p, z, c, rng.standard_normal(4))

    def phi(x):
        r = a @ x - b
        return 0.5 * r @ r + p @ x + 0.5 * c * np.sum((x - z) ** 2)

    for _ in range(3):
        x, y = session.next()
        h = 1e-6 * (1.0 + np.max(np.abs(x)))
        fd = central_difference(phi, x, h)
        denom = 1.0 + np.linalg.norm(fd)
        assert np.linalg.norm(y - fd) / denom <= 1e-6


def test_quadratic_fprocedure_stationary_warm_start():
    rng = np.random.default_rng(33)
    a = rng.standard_normal((6, 4))
    b = rng.standard_normal(6)
    z = rng.standard_normal(4)
    c = 0.9
    p = -(a.T @ (a @ z - b))  # makes x = z the subproblem optimum
    fproc = QuadraticFProcedure(ir.DesignMatrix(a), b, c)
    x, y = fproc.open_session(p, z, c, z.copy()).next()
    assert np.linalg.norm(y) <= 1e-12
    assert np.allclose(x, z, atol=1e-12)


# ---------------------------------------------------------------------------
# L-BFGS
# ---------------------------------------------------------------------------

def test_lbfgs_matches_cg_quality_on_quadratic():
    rng = np.random.default_rng(34)
    n = 8
    h = spd_matrix(rng, n, spread=5.0)
    rhs = rng.standard_normal(n)

    def fg(x):
        return 0.5 * x @ (h @ x) - rhs @ x, h @ x - rhs

    session = LBFGSSession(fg, np.zeros(n))
    y0 = np.linalg.norm(fg(np.zeros(n))[1])
    for _ in range(2 * n):
        _, y = session.next()
    assert np.linalg.norm(y) <= 1e-6 * y0


def test_lbfgs_gradient_matches_differences_on_logistic():
    prob = ir.synthetic_logistic(12, 6, seed=1)
    rng = np.random.default_rng(35)
    p = rng.standard_normal(6)
    z = rng.standard_normal(6)
    c = 1.0
    fproc = LBFGSFProcedure(prob.value_gradient)
    session = fproc.open_session(p, z, c, np.zeros(6))

    def phi(x):
        return prob.value_gradient(x)[0] + p @ x + 0.5 * c * np.sum((x - z) ** 2)

    for _ in range(3):
        x, y = session.next()
        h = 1e-6 * (1.0 + np.max(np.abs(x)))
        fd = central_difference(phi, x, h)
        assert np.linalg.norm(y - fd) / (1.0 + np.linalg.norm(fd)) <= 1e-6


def test_lbfgs_memory_shared_while_c_is_unchanged():
    """Sessions of one procedure share curvature memory at one c; a new c
    or ``reset()`` makes the next session start like a fresh procedure's."""
    prob = ir.synthetic_logistic(12, 6, seed=1)
    rng = np.random.default_rng(37)
    p, z, x_bar = (rng.standard_normal(6) for _ in range(3))

    def trials(fproc, c, count=4):
        session = fproc.open_session(p, z, c, x_bar)
        return [session.next() for _ in range(count)]

    def same(a, b):
        return all(np.array_equal(xa, xb) and np.array_equal(ya, yb)
                   for (xa, ya), (xb, yb) in zip(a, b))

    shared = LBFGSFProcedure(prob.value_gradient)
    trials(shared, 1.0)
    # the memory from the first session steers the second one
    assert not same(trials(shared, 1.0),
                    trials(LBFGSFProcedure(prob.value_gradient), 1.0))
    assert same(trials(shared, 2.0),
                trials(LBFGSFProcedure(prob.value_gradient), 2.0))
    shared.reset()
    assert same(trials(shared, 2.0),
                trials(LBFGSFProcedure(prob.value_gradient), 2.0))


def two_loop_reference(pairs, g):
    """Textbook L-BFGS two-loop recursion on (s, y) pairs, oldest first."""
    q = g.copy()
    alphas = []
    for s, y in reversed(pairs):
        a = (s @ q) / (s @ y)
        alphas.append(a)
        q -= a * y
    if pairs:
        s, y = pairs[-1]
        q *= (s @ y) / (y @ y)
    for (s, y), a in zip(pairs, reversed(alphas)):
        b = (y @ q) / (s @ y)
        q += (a - b) * s
    return -q


def secant_memory(n, flips, seed):
    """A memory fed secant pairs of a random SPD matrix, one per entry of
    ``flips``; a flipped pair has negative curvature and must be skipped.
    Returns the memory, the pairs it should hold and the generator."""
    rng = np.random.default_rng(seed)
    h = spd_matrix(rng, n, spread=100.0)
    memory = CurvatureMemory()
    kept = []
    for flip in flips:
        s = rng.standard_normal(n)
        y = -(h @ s) if flip else h @ s
        memory.add(s, y)
        if not flip:
            kept.append((s, y))
    return memory, kept[-10:], rng


lbfgs_pairs = dict(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
                   flips=st.lists(st.booleans(), max_size=13))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(**lbfgs_pairs)
def test_lbfgs_direction_matches_two_loop_reference(n, flips, seed):
    memory, pairs, rng = secant_memory(n, flips, seed)
    assert len(memory) == len(pairs)
    g = rng.standard_normal(n)
    ref = two_loop_reference(pairs, g)
    assert np.linalg.norm(memory.direction(g) - ref) \
        <= 1e-12 * np.linalg.norm(ref)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(**lbfgs_pairs)
def test_lbfgs_direction_satisfies_newest_secant_equation(n, flips, seed):
    """H y = s for the newest stored pair (s, y)."""
    memory, pairs, _ = secant_memory(n, flips + [False], seed)
    s, y = pairs[-1]
    assert np.linalg.norm(memory.direction(y) + s) <= 1e-12 * np.linalg.norm(s)


def test_lbfgs_stationary_start_accepted_immediately():
    rng = np.random.default_rng(36)
    a = rng.standard_normal((6, 4))
    b = rng.standard_normal(6)
    z = rng.standard_normal(4)
    c = 1.1
    p = -(a.T @ (a @ z - b))

    def fg(x):
        r = a @ x - b
        return 0.5 * r @ r, a.T @ r

    fproc = LBFGSFProcedure(fg)
    x, y = fproc.open_session(p, z, c, z.copy()).next()
    assert np.linalg.norm(y) <= 1e-10
    # any positive tolerance accepts a zero-residual certificate
    assert ir.admm_acceptance(y, np.ones(4), np.zeros(4), np.zeros(4),
                              np.zeros(4), np.ones(4), c, 0.5)


# ---------------------------------------------------------------------------
# shrink
# ---------------------------------------------------------------------------

def test_soft_threshold_closed_forms():
    t = np.array([3.0, -0.5, 0.0])
    assert np.array_equal(soft_threshold(t, 0.0), t)
    out = soft_threshold(t, 1.0)
    assert out[0] == pytest.approx(2.0)
    assert out[1] == 0.0 and out[2] == 0.0
    with pytest.raises(ParameterError):
        soft_threshold(t, -0.1)


def test_soft_threshold_grid_oracle():
    rng = np.random.default_rng(37)
    grid = np.arange(-6.0, 6.0, 1e-4)
    for _ in range(20):
        t = float(rng.uniform(-4, 4))
        kappa = float(rng.uniform(0, 2))
        vals = kappa * np.abs(grid) + 0.5 * (grid - t) ** 2
        oracle = grid[np.argmin(vals)]
        assert abs(soft_threshold(np.array([t]), kappa)[0] - oracle) <= 1e-4 + 1e-9


# ---------------------------------------------------------------------------
# proximal-gradient baseline
# ---------------------------------------------------------------------------

def test_fista_identity_design_reaches_shrink_solution():
    rng = np.random.default_rng(38)
    b = rng.standard_normal(6)
    prob = ir.LassoProblem(ir.DesignMatrix(np.eye(6)), b, 0.4)
    res = fista_solve(ir.lasso_composite(prob), FistaConfig(tol=1e-10), n=6)
    assert res.status == "converged"
    assert res.record.outer_iters <= 50
    assert np.linalg.norm(res.x - soft_threshold(b, 0.4)) <= 1e-8


def test_fista_agrees_with_admm(lasso_20x50, inertial_core):
    comp = ir.lasso_composite(lasso_20x50)
    fres = fista_solve(comp, FistaConfig(tol=1e-8), n=lasso_20x50.n)
    assert fres.status == "converged"
    params = ir.ADMMParams(c=1.0, core=inertial_core, epsilon=1e-8,
                           max_outer=20000)
    ares = ir.run_admm(ir.lasso_admm_problem(lasso_20x50, 1.0), params)
    assert ares.status == "converged"
    assert abs(fres.record.final_objective -
               ares.record.final_objective) <= 1e-8


def test_fista_objective_monotone_along_kept_iterates(lasso_20x50):
    comp = ir.lasso_composite(lasso_20x50)
    objs = []
    for budget in range(1, 25):
        res = fista_solve(comp, FistaConfig(tol=0.0, max_iters=budget),
                          n=lasso_20x50.n)
        objs.append(comp.objective(res.x))
    for prev, nxt in zip(objs, objs[1:]):
        assert nxt <= prev + 1e-12 * (1.0 + abs(prev))
