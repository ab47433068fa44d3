"""Subproblem engines: CG and L-BFGS sessions, shrink, proximal-gradient."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import irsplit as ir
from irsplit.errors import CGBreakdown, ParameterError
from irsplit.problems import L1ShiftedProx, _l1_components
from irsplit.subsolvers import (CGSession, CurvatureMemory, FistaConfig,
                                LBFGSFProcedure, LBFGSSession,
                                QuadraticFProcedure, fista_solve,
                                soft_threshold)

import reference


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
    session = CGSession(lambda u: u.copy(), rhs, np.zeros(3))
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


def residual_form_cg(h, rhs, x0, steps):
    """Straight-line CG in its textbook form, carrying the residual
    r = rhs - H x.  Returns the (x, y = -r) of each step and the last
    residual."""
    x = x0.copy()
    r = rhs - h @ x
    direction = r.copy()
    rs = float(r @ r)
    emitted = []
    for _ in range(steps):
        if rs != 0.0:
            h_d = h @ direction
            curvature = float(direction @ h_d)
            if curvature <= 0.0:
                raise CGBreakdown("reference: nonpositive curvature")
            step = rs / curvature
            x = x + step * direction
            r = r - step * h_d
            rs_new = float(r @ r)
            direction = r + (rs_new / rs) * direction
            rs = rs_new
        emitted.append((x.copy(), -r))
    return emitted, r


@settings(max_examples=150, deadline=None, derandomize=True)
@given(n=st.integers(1, 30), seed=st.integers(0, 2**32 - 1),
       spread=st.floats(1.0, 1e4), warm=st.booleans())
def test_cg_session_matches_residual_form_reference(n, seed, spread, warm):
    """Over 20 steps the session's emitted x and y = -r, r the residual,
    and H x are bit-identical to the residual-form recurrence."""
    rng = np.random.default_rng(seed)
    h = spd_matrix(rng, n, spread)
    rhs = rng.standard_normal(n)
    x0 = rng.standard_normal(n) if warm else np.zeros(n)
    try:
        emitted, r = residual_form_cg(h, rhs, x0, 20)
    except CGBreakdown:
        emitted, r = None, None
    session = CGSession(lambda u: h @ u, rhs, x0)
    if emitted is None:
        with pytest.raises(CGBreakdown):
            for _ in range(20):
                session.next()
        return
    for x_ref, y_ref in emitted:
        x, y = session.next()
        assert np.array_equal(x, x_ref) and np.array_equal(y, y_ref)
    assert np.array_equal(session.applied(), rhs - r)


def test_cg_breakdown_on_indefinite():
    h = np.diag([1.0, -1.0])
    session = CGSession(lambda u: h @ u, np.array([0.0, 1.0]), np.zeros(2))
    with pytest.raises(CGBreakdown):
        session.next()


def test_cg_breakdown_names_the_curvature_it_saw():
    """A session on H = -I raises at its first step with the curvature it
    computed, d . H d = -3 along d = rhs = (1, 1, 1), and the norm of d, so
    a breakdown from round-off on an SPD operator can be told from one on
    an operator that is not SPD."""
    session = CGSession(lambda u: -u, np.ones(3), np.zeros(3))
    with pytest.raises(CGBreakdown) as raised:
        session.next()
    message = str(raised.value)
    assert "-3.0" in message
    assert repr(math.sqrt(3.0)) in message


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
    fproc = QuadraticFProcedure(design, np.zeros(3))
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
    fproc = QuadraticFProcedure(ir.DesignMatrix(a), b)
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
    fproc = QuadraticFProcedure(ir.DesignMatrix(a), b)
    x, y = fproc.open_session(p, z, c, z.copy()).next()
    assert np.linalg.norm(y) <= 1e-12
    assert np.allclose(x, z, atol=1e-12)


class CountingDesign(ir.DesignMatrix):
    """A design matrix that counts its products."""

    products = 0

    def apply(self, x):
        self.products += 1
        return super().apply(x)

    def apply_transpose(self, u):
        self.products += 1
        return super().apply_transpose(u)


anchored_start = dict(m=st.integers(1, 12), n=st.integers(1, 12),
                      seed=st.integers(0, 2**32 - 1),
                      c=st.floats(0.05, 20.0),
                      alpha=st.floats(0.0, 1.0, exclude_max=True),
                      prior=st.integers(2, 5))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(**anchored_start)
def test_anchored_session_start_matches_fresh_products(m, n, seed, c, alpha,
                                                       prior):
    """After ``prior`` sessions opened and stepped the way ``run_admm``
    does (each at its own c, anchored on the one before), a session
    anchored on the last one starts with no product, and its initial
    residual and first trial agree with a session that computes H x_bar by
    products.  The residual is compared on the scale of H x_bar and the
    residual; one CG step can magnify a round-off change of the residual by
    up to cond(H) <= 1 + ||A||_F^2 / c in y and by 1/c in x, so the trial
    is compared on those scales.
    (Worst seen in 20,000 random draws: 8e-14, 8e-15 and 5e-14.)"""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    design = CountingDesign(a)
    fproc = QuadraticFProcedure(design, b)
    x = x_prev = rng.standard_normal(n)
    session = None
    for _ in range(prior):
        session = fproc.open_session(
            rng.standard_normal(n), rng.standard_normal(n),
            c * rng.uniform(0.5, 2.0), x + alpha * (x - x_prev),
            (session, alpha))
        for _ in range(rng.integers(1, 4)):
            x_l, _ = session.next()
        x, x_prev = x_l, x
    p, z = rng.standard_normal(n), rng.standard_normal(n)
    x_bar = x + alpha * (x - x_prev)
    before = design.products
    anchored = fproc.open_session(p, z, c, x_bar, (session, alpha))
    assert design.products == before
    fresh = QuadraticFProcedure(ir.DesignMatrix(a), b).open_session(
        p, z, c, x_bar)
    rhs = a.T @ b - p + c * z
    residual_a, residual_f = rhs - anchored.applied(), rhs - fresh.applied()
    scale = 1.0 + np.max(np.abs(fresh.applied())) + np.max(np.abs(residual_f))
    assert np.max(np.abs(residual_a - residual_f)) <= 1e-12 * scale
    (x_a, y_a), (x_f, y_f) = anchored.next(), fresh.next()
    cond = 1.0 + np.sum(a * a) / c
    assert np.max(np.abs(y_a - y_f)) <= 1e-12 * scale * cond
    assert np.max(np.abs(x_a - x_f)) <= 1e-12 * (
        1.0 + np.max(np.abs(x_f)) + scale / c)


def test_anchor_on_unknown_points_falls_back_to_products():
    """An anchor session that carries no Gram product (the first session
    of a run, whose own anchor has no session) leaves the start to the two
    products of a fresh one, and the session is bit-identical to one
    opened without an anchor."""
    rng = np.random.default_rng(39)
    a = rng.standard_normal((7, 5))
    b = rng.standard_normal(7)
    design = CountingDesign(a)
    fproc = QuadraticFProcedure(design, b)
    p, z, x, x_prev = (rng.standard_normal(5) for _ in range(4))
    first = fproc.open_session(p, z, 1.0, x, (None, 0.3))
    x_l, _ = first.next()
    x_bar = x_l + 0.3 * (x_l - x_prev)
    before = design.products
    session = fproc.open_session(p, z, 1.0, x_bar, (first, 0.3))
    assert design.products == before + 2
    plain = QuadraticFProcedure(ir.DesignMatrix(a), b).open_session(
        p, z, 1.0, x_bar)
    rhs = a.T @ b - p + z
    assert np.array_equal(rhs - session.applied(), rhs - plain.applied())
    assert all(np.array_equal(u, v)
               for u, v in zip(session.next(), plain.next()))


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

    session = LBFGSSession(fg, np.zeros(n), CurvatureMemory(n))
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
    """A session anchored on one of the same c continues its curvature
    memory; one anchored on a session of another c, or on no session,
    starts like a fresh procedure's."""
    prob = ir.synthetic_logistic(12, 6, seed=1)
    rng = np.random.default_rng(37)
    p, z, x_bar = (rng.standard_normal(6) for _ in range(3))
    shared = LBFGSFProcedure(prob.value_gradient)

    def trials(c, prev=None, count=4):
        session = shared.open_session(p, z, c, x_bar, (prev, 0.3))
        return session, [session.next() for _ in range(count)]

    def fresh(c, count=4):
        session = LBFGSFProcedure(prob.value_gradient).open_session(
            p, z, c, x_bar)
        return [session.next() for _ in range(count)]

    def same(a, b):
        return all(np.array_equal(xa, xb) and np.array_equal(ya, yb)
                   for (xa, ya), (xb, yb) in zip(a, b))

    first, _ = trials(1.0)
    # the memory from the first session steers the second one
    second, steered = trials(1.0, first)
    assert not same(steered, fresh(1.0))
    assert same(trials(2.0, second)[1], fresh(2.0))
    assert same(trials(2.0)[1], fresh(2.0))


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
    memory = CurvatureMemory(n)
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


def test_lbfgs_skips_a_pair_whose_y_dot_y_underflows():
    """<y, y> of a tiny y underflows to 0 while <s, y> does not, so the
    pair passes the curvature test against 0: it is skipped, where its
    scaling <s, y>/<y, y> divided by zero, and the memory is unchanged."""
    memory = CurvatureMemory(2)
    memory.add(np.array([0.0, 1.0]), np.array([0.0, 4.815523263155446e-208]))
    assert len(memory) == 0
    g = np.array([1.0, -2.0])
    assert np.array_equal(memory.direction(g), -g)


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
    assert reference.accept(y, np.ones(4), np.zeros(4), np.zeros(4),
                            np.zeros(4), np.ones(4), c, 0.5, max_form=True)


@pytest.mark.parametrize("procedure", [
    lambda b: QuadraticFProcedure(ir.DesignMatrix(np.eye(3)), b),
    lambda b: LBFGSFProcedure(lambda x: (0.5 * (x - b).dot(x - b), x - b)),
], ids=["cg", "lbfgs"])
def test_session_keeps_the_start_point_it_is_given(procedure):
    """A session holds the ``x_bar`` it is opened with as its current
    point, without a copy, as the loop never writes it; where the start is
    stationary (CG residual H x_bar - rhs = 2 b - 2 b, gradient x_bar - b
    + (x_bar - z)), ``next()`` emits that array itself, unwritten."""
    b = np.array([1.0, -2.0, 3.0])
    x_bar = b.copy()
    session = procedure(b).open_session(np.zeros(3), b, 1.0, x_bar)
    assert session.x is x_bar
    x, y = session.next()
    assert x is x_bar and not np.count_nonzero(y)
    assert np.array_equal(x_bar, b)


def test_lbfgs_ascent_direction_falls_back_to_steepest_descent():
    """A memory direction that is not a descent direction is replaced by
    -g: on 0.5 ||x||^2 from (3, -4), a stub memory whose direction is g
    itself leaves the session the unit steepest-descent step, which lands
    on the minimizer 0 exactly."""
    memory = SimpleNamespace(direction=lambda g: g, add=lambda s, y: None)
    session = LBFGSSession(lambda x: (0.5 * x.dot(x), x),
                           np.array([3.0, -4.0]), memory)
    x, g = session.next()
    assert np.array_equal(x, np.zeros(2)) and np.array_equal(g, np.zeros(2))


def test_lbfgs_round_off_slack_is_relative_to_f():
    """The gradient form of the Armijo test is read only when f_new and f
    agree to within 1e-12 (1 + |f|).  From the origin, f = 0 with g = (1,
    0), the unit step to (-1, 0) raises f by 5e-12, beyond that slack, while
    its gradient (0, 1) would pass the gradient form; so the step is halved,
    and (-0.5, 0), where f = -1, passes the Armijo test itself."""
    values = {(0.0, 0.0): (0.0, [1.0, 0.0]), (-1.0, 0.0): (5e-12, [0.0, 1.0])}

    def value_and_grad(x):
        f, g = values.get(tuple(x), (-1.0, [0.0, 0.0]))
        return f, np.array(g)

    memory = SimpleNamespace(direction=lambda g: -g, add=lambda s, y: None)
    session = LBFGSSession(value_and_grad, np.zeros(2), memory)
    x, _ = session.next()
    assert np.array_equal(x, [-0.5, 0.0]) and session.f == -1.0


# ---------------------------------------------------------------------------
# shrink
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None, derandomize=True)
@given(t=st.lists(st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan])
                  | st.floats(-1e300, 1e300), min_size=1, max_size=20),
       kappa=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1e300),
       c=st.floats(1e-3, 1e3))
def test_shrink_matches_sign_form(t, kappa, c):
    """soft_threshold and the shrink prox equal sign(t) max(|t| - kappa, 0)
    in every entry (up to the sign of a zero) and return fresh arrays."""
    t = np.array(t)

    def reference(u, k):
        return np.sign(u) * np.maximum(np.abs(u) - k, 0.0)

    out = soft_threshold(t, kappa)
    assert out is not t
    assert np.array_equal(out, reference(t, kappa), equal_nan=True)
    x = np.nan_to_num(t, posinf=1.0, neginf=-1.0) * 1e-3
    p = c * np.linspace(-1.0, 1.0, t.size)
    for skip in (False, True):
        z = L1ShiftedProx(kappa, skip_first=skip).solve(p, x, c)
        u = x + p / c
        want = reference(u, kappa / c)
        if skip:
            want[0] = u[0]
        assert np.array_equal(z, want)


def test_soft_threshold_closed_forms():
    t = np.array([3.0, -0.5, 0.0])
    assert np.array_equal(soft_threshold(t, 0.0), t)
    out = soft_threshold(t, 1.0)
    assert out[0] == pytest.approx(2.0)
    assert out[1] == 0.0 and out[2] == 0.0
    for kappa in (-0.1, math.nan):
        with pytest.raises(ParameterError):
            soft_threshold(t, kappa)


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
# emitted arrays are never modified by later steps
# ---------------------------------------------------------------------------

def test_sessions_never_modify_emitted_arrays():
    """Copies of the (x_l, y_l) of 5 CG and 5 L-BFGS steps still equal the
    emitted arrays after 10 more steps; sessions emit without copying, so
    this pins the read-only contract of FProcedure from the session side."""
    prob = ir.synthetic_lasso(15, 12, seed=3)
    logistic = ir.synthetic_logistic(20, 8, seed=3)
    rng = np.random.default_rng(50)
    for fproc, n in ((QuadraticFProcedure(prob.A, prob.b), 12),
                     (LBFGSFProcedure(logistic.value_gradient), 8)):
        p, z = rng.standard_normal(n), rng.standard_normal(n)
        session = fproc.open_session(p, z, 0.5, np.zeros(n))
        emitted = [session.next() for _ in range(5)]
        kept = [(x.copy(), y.copy()) for x, y in emitted]
        later = [session.next() for _ in range(10)]
        assert not np.array_equal(later[-1][0], emitted[-1][0])
        for (x, y), (x_copy, y_copy) in zip(emitted, kept):
            assert np.array_equal(x, x_copy) and np.array_equal(y, y_copy)


def test_lbfgs_never_writes_into_the_callables_gradients(inertial_core):
    """A value-and-gradient callable may return a cached array: a run on a
    callable that keeps its result for every point it was asked for, and
    returns the kept arrays when asked again, leaves every kept gradient as
    it was and ends with the bits and counts of a run on the plain one."""
    prob = ir.synthetic_logistic(40, 9, seed=4)
    cache = {}

    def cached(x):
        key = x.tobytes()
        if key not in cache:
            f, g = prob.value_gradient(x)
            cache[key] = (f, g, g.copy())
        return cache[key][:2]

    params = ir.ADMMParams(c=1.0, core=inertial_core, epsilon=1e-6)
    got = ir.run_admm(ir.AdmmProblem(LBFGSFProcedure(cached), prob.prox_g,
                                     prob.kkt_dist_inf, prob.objective,
                                     prob.n), params)
    want = ir.run_admm(ir.logistic_admm_problem(prob, 1.0), params)
    assert got.status == want.status == "converged"
    assert (got.outer_iters, got.inner_iters_total) == \
        (want.outer_iters, want.inner_iters_total)
    assert got.x.tobytes() == want.x.tobytes()
    assert len(cache) > got.outer_iters > 10
    for _, g, kept in cache.values():
        assert g.tobytes() == kept.tobytes()


# ---------------------------------------------------------------------------
# proximal-gradient baseline
# ---------------------------------------------------------------------------

class IdentityLasso:
    """min (1/2)||x - b||^2 + nu ||x||_1 with only the six members that
    ``fista_solve`` reads."""

    def __init__(self, b, nu):
        self.b, self.nu, self.n = b, nu, b.size
        self.prox_g = L1ShiftedProx(nu)

    def value_gradient(self, x):
        r = x - self.b
        return 0.5 * float(r @ r), r

    def f_value(self, x):
        return self.value_gradient(x)[0]

    def objective(self, x):
        return self.f_value(x) + self.nu * float(np.abs(x).sum())

    def kkt_dist_inf(self, x, floor, screen):
        return float(max(_l1_components(x - self.b, x, self.nu).max(),
                         0.0)), None


class DiagonalLasso(IdentityLasso):
    """min (1/2) x . (d x) - b . x + nu ||x||_1, of curvature d_i along
    axis i, with the same six members."""

    def __init__(self, d, b, nu):
        super().__init__(b, nu)
        self.d = d

    def value_gradient(self, x):
        return (0.5 * float(x @ (self.d * x)) - float(self.b @ x),
                self.d * x - self.b)

    def kkt_dist_inf(self, x, floor, screen):
        return float(max(_l1_components(self.d * x - self.b, x,
                                        self.nu).max(), 0.0)), None


def test_fista_backtracks_after_the_first_iteration():
    """The first step from 0 runs along b = (1, 1e-3), where the curvature
    is about 0.5, so the first guess L = 1 passes the majorization test.
    The second step, from y = b, runs along -grad f(y) = (0.5, -0.099),
    into the axis of curvature 100, and L must double to 8 there.  Every
    trial passes the test at its own step z - y exactly when it is the
    last trial of its iteration."""
    prob = DiagonalLasso(np.array([0.5, 100.0]), np.array([1.0, 1e-3]), 0.0)
    trials = []
    solve = prob.prox_g.solve

    def recorded(p, y, lip):
        z = solve(p, y, lip)
        trials.append((y, lip, z))
        return z

    prob.prox_g = SimpleNamespace(solve=recorded)
    fista_solve(prob, FistaConfig(epsilon=0.0, max_outer=2))
    assert [lip for _, lip, _ in trials] == [1.0, 1.0, 2.0, 4.0, 8.0]
    for i, (y, lip, z) in enumerate(trials):
        f_y, g_y = prob.value_gradient(y)
        dz = z - y
        passes = prob.f_value(z) <= f_y + g_y @ dz + 0.5 * lip * (dz @ dz)
        last = i + 1 == len(trials) or trials[i + 1][0] is not y
        assert passes == last


def test_fista_identity_design_reaches_shrink_solution():
    """Over the identity design the minimizer is the shrink of b, reached
    from a LASSO problem and from any object with the same six members."""
    rng = np.random.default_rng(38)
    b = rng.standard_normal(6)
    for prob in (ir.LassoProblem(ir.DesignMatrix(np.eye(6)), b, 0.4),
                 IdentityLasso(b, 0.4)):
        res = fista_solve(prob, FistaConfig(epsilon=1e-10))
        assert res.status == "converged"
        assert res.record.outer_iters <= 50
        assert np.linalg.norm(res.x - soft_threshold(b, 0.4)) <= 1e-8


@pytest.mark.parametrize("field, value", [
    ("max_outer", -1), ("epsilon", -1e-3), ("epsilon", float("nan"))])
def test_fista_rejects_a_bad_budget_or_tolerance_at_entry(field, value):
    """A negative budget, or a negative or NaN tolerance, raises
    ``ParameterError`` when the config is built, before any solve, as the
    other drivers' parameters do."""
    with pytest.raises(ParameterError, match=field):
        FistaConfig(**{"max_outer": 50, field: value})


@pytest.mark.parametrize("scale, status, outer", [
    (1e100, "budget_exceeded", 5), (1e140, "budget_exceeded", 5),
    (1e160, "error", 0)])
def test_fista_returns_when_the_lipschitz_estimate_overflows(scale, status,
                                                             outer):
    """A LASSO with every entry finite but a design scaled so far that f
    overflows near 0 leaves no step that passes the majorization test: the
    backtracking doubles L until it is inf, and the run then ends with
    status ``error`` after the float range's 1024 doublings, instead of
    doubling forever.  The result holds the last accepted point (here the
    start) and a cause that names the backtracking and the iteration.  At
    the milder scales the first trials' f is inf too, yet a larger L
    passes later, so those runs still spend their budget, with no cause."""
    rng = np.random.default_rng(14)
    A = scale * rng.standard_normal((17, 24))
    b = rng.standard_normal(17)
    prob = ir.LassoProblem(ir.DesignMatrix(A), b,
                           0.1 * float(np.abs(A.T @ b).max()))
    res = fista_solve(prob, FistaConfig(1e-6, 5))
    assert res.status == res.record.status == status
    assert res.record.outer_iters == outer
    if status == "error":
        assert res.record.inner_iters_total == 1024
        assert res.record.cause == (
            "Lipschitz backtracking: no step passed the majorization test "
            "before L overflowed at outer iteration 0")
        assert np.array_equal(res.x, np.zeros(24))
    else:
        assert res.record.cause == ""


def test_fista_agrees_with_admm(lasso_20x50, inertial_core):
    fres = fista_solve(lasso_20x50, FistaConfig(epsilon=1e-8))
    assert fres.status == "converged"
    params = ir.ADMMParams(c=1.0, core=inertial_core, epsilon=1e-8,
                           max_outer=20000)
    ares = ir.run_admm(ir.lasso_admm_problem(lasso_20x50, 1.0), params)
    assert ares.status == "converged"
    assert abs(fres.record.final_objective -
               ares.record.final_objective) <= 1e-8


def test_fista_objective_monotone_along_kept_iterates(lasso_20x50):
    objs = []
    for budget in range(1, 25):
        res = fista_solve(lasso_20x50,
                          FistaConfig(epsilon=0.0, max_outer=budget))
        objs.append(lasso_20x50.objective(res.x))
    for prev, nxt in zip(objs, objs[1:]):
        assert nxt <= prev + 1e-12 * (1.0 + abs(prev))
