"""Splitting layer: half-steps, acceptance, corrector, runs, embedding."""

import math

import numpy as np
import pytest

import irsplit as ir
from irsplit.admm import (ADMMParams, _accept, _acceptance_vector,
                          _multiplier, run_admm)
from irsplit.dr import DRParams, SplitTriple, classical_dr_step, run_dr
from irsplit.errors import ParameterError
from irsplit.operators import AffineOperator, CGBProcedure, ExactBProcedure
from irsplit.problems import L1ShiftedProx
from irsplit.subsolvers import soft_threshold

import reference
from conftest import Collector, engine_steps


def quad_l1_setup(n=10, seed=1, nu=0.5):
    """A = subdiff(nu l1), B(x) = x - c0; solution soft(c0, nu) in closed form."""
    rng = np.random.default_rng(seed)
    c0 = 2.0 * rng.standard_normal(n)
    res_a = L1ShiftedProx(nu)
    res_b = AffineOperator(np.eye(n), -c0)
    x_star = soft_threshold(c0, nu)
    b_star = x_star - c0
    return c0, res_a, res_b, x_star, b_star


def random_triple(rng, n):
    return SplitTriple(rng.standard_normal(n), rng.standard_normal(n),
                       rng.standard_normal(n))


def run_to_budget(*args, **kwargs):
    """A run that spends its outer budget: it returns the partial result."""
    res = run_dr(*args, **kwargs)
    assert res.status == "budget_exceeded"
    assert res.outer_iters == kwargs["max_outer"]
    return res


def first_step(init, params, bproc, resolvent):
    """The one observed outer iteration of a run limited to one.  With
    alpha = 0 its extrapolated triple is ``init``."""
    events = Collector()
    run_to_budget(init, params, bproc, resolvent, max_outer=1,
                  observer=events)
    assert len(events) == 1
    return events[0]


def split_triples(ev):
    """An event's extrapolated and next triples as splitting triples,
    (s, b, r) = (x, -p, z)."""
    return (SplitTriple(ev.x_hat, -ev.p_hat, ev.z_hat),
            SplitTriple(ev.x, -ev.p, ev.z))


# ---------------------------------------------------------------------------
# elementary steps
# ---------------------------------------------------------------------------

def test_a_step_zero_operator():
    rng = np.random.default_rng(2)
    s, b = rng.standard_normal(5), rng.standard_normal(5)
    r, a = reference.a_step(s, b, 0.7, AffineOperator(np.zeros((5, 5))))
    assert np.allclose(r, s - 0.7 * b, atol=0)
    assert np.linalg.norm(a) <= 1e-14


def test_a_step_l1_matches_grid_oracle():
    nu, gamma = 0.8, 1.3
    u = np.array([2.0, -0.4, 0.9])
    r, _ = reference.a_step(u, np.zeros(3), gamma, L1ShiftedProx(nu))
    grid = np.arange(-4.0, 4.0, 1e-4)
    for i, ui in enumerate(u):
        vals = gamma * nu * np.abs(grid) + 0.5 * (grid - ui) ** 2
        assert abs(r[i] - grid[np.argmin(vals)]) <= 1e-4 + 1e-9


def test_a_step_quadratic_matches_dense_solve():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((6, 6))
    q_mat = m @ m.T + np.eye(6)
    res = AffineOperator(q_mat)
    s, b = rng.standard_normal(6), rng.standard_normal(6)
    gamma = 0.6
    r, a = reference.a_step(s, b, gamma, res)
    expected = np.linalg.solve(np.eye(6) + gamma * q_mat, s - gamma * b)
    assert np.linalg.norm(r - expected) <= 1e-12
    # the defining identity of the half-step
    lhs = r + gamma * a
    rhs = s - gamma * b
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * (1.0 + np.linalg.norm(rhs))


def test_acceptance_exact_pair_and_sigma_zero():
    hat = SplitTriple(np.zeros(2), np.array([0.5, 0.0]), np.array([0.5, 0.0]))
    # s + gamma b equals the center exactly
    s, b = np.array([0.25, 0.0]), np.array([0.75, 0.0])
    assert reference.dr_acceptance(hat.r, hat.b, s, b, np.array([0.1, 0.0]),
                                   1.0, 0.0)
    assert not reference.dr_acceptance(hat.r, hat.b, s + 0.05, b,
                                       np.array([0.1, 0.0]), 1.0, 0.0)


def test_acceptance_matches_engine_verdict_under_embedding():
    # the sigma = 0.5 worked instance of the engine, mapped onto triples
    hat = SplitTriple(np.zeros(2), np.array([0.5, 0.0]), np.array([0.5, 0.0]))
    r_acc = np.array([0.1, 0.0])
    b_acc = np.array([0.5, 0.0])        # z_tilde = r + b = (0.6, 0)
    s_acc = r_acc + np.array([0.5, 0.0])  # v = s - r = (0.5, 0)
    verdict = reference.dr_acceptance(hat.r, hat.b, s_acc, b_acc, r_acc, 1.0,
                                      0.5)
    assert verdict == reference.error_criterion(
        np.array([1.0, 0.0]), np.array([0.6, 0.0]), np.array([0.5, 0.0]), 0.5)
    assert verdict


@pytest.mark.parametrize("n", range(1, 7))
def test_exactness_is_read_off_the_pair_at_sigma_zero(n):
    """No producer declares itself exact: the one relative-error test sees
    it.  For random monotone affine operators, an exact B half-step trial
    has y = 0 and passes the loop's test at sigma = 0 under both criteria:
    at a random c with an l1 A half-step, and at c = 1 with the identity
    A half-step of A = 0, where it is the engine's exact pair (J(w), w -
    J(w)) at w = z - p."""
    rng = np.random.default_rng(600 + n)
    for _ in range(20):
        b, k = rng.standard_normal((2, n, n))
        op = AffineOperator(b @ b.T / n + 0.1 * np.eye(n) + k - k.T,
                            rng.standard_normal(n))
        p, z = 10.0 ** rng.uniform(-3, 3) * rng.standard_normal((2, n))
        c = 10.0 ** rng.uniform(-2, 2)
        for c, half_step in ((c, L1ShiftedProx(0.3).resolvent),
                             (1.0, lambda gamma, u: u)):
            x, y = ExactBProcedure(op).open_session(p, z, c, z).next()
            assert not y.any()
            p_l = _multiplier(p, x, z, y, c)
            z_l = half_step(1.0 / c, x + p_l / c)
            t = _acceptance_vector(p_l, p, z_l, z, c)
            d = x - z_l
            for max_form in (True, False):
                assert _accept(y, t.dot(t), d.dot(d), c, 0.0, max_form)


@pytest.mark.parametrize("sigma", [0.0, 0.5])
def test_an_exact_trial_passes_where_c_squared_overflows(sigma):
    """gamma = 1e-200 gives c = 1e200, so c * c overflows, and an exact
    trial with s = r exactly makes the right side of the summed-squares
    test inf * 0 = NaN.  Its y = 0 passes before that is read: the run
    ends ``solved`` after its one trial, where it re-tested the same
    trial until the inner budget was spent."""
    res = run_dr(SplitTriple(np.ones(3), np.zeros(3), np.ones(3)),
                 DRParams(1e-200, ir.InertiaRelaxParams.plain(sigma)),
                 ExactBProcedure(AffineOperator(np.eye(3))),
                 L1ShiftedProx(0.3))
    assert (res.status, res.outer_iters, res.record.inner_iters_total) == (
        "solved", 0, 1)
    assert np.array_equal(res.triple.s, np.ones(3))
    assert np.array_equal(res.triple.r, np.ones(3))


def test_theta_exact_solve_is_one():
    _, res_a, res_b, _, _ = quad_l1_setup()
    rng = np.random.default_rng(4)
    hat = random_triple(rng, 10)
    st = first_step(hat, DRParams(1.0, ir.InertiaRelaxParams.plain()),
                    ExactBProcedure(res_b), res_a)
    assert reference.dr_theta(hat.r, hat.b, st.x, -st.p_l, st.z, 1.0) == \
        pytest.approx(1.0, abs=1e-10)
    assert st.theta == pytest.approx(1.0, abs=1e-10)


def test_theta_hand_instance():
    hat = SplitTriple(np.zeros(2), np.array([0.5, 0.0]), np.array([0.5, 0.0]))
    r = np.array([-0.2, 0.0])
    b = np.array([0.2, 0.0])   # r + b = 0
    s = r + np.array([0.5, 0.0])
    assert reference.dr_theta(hat.r, hat.b, s, b, r, 1.0) == \
        pytest.approx(2.0)


def test_update_exact_reduces_to_classical_next_point():
    rng = np.random.default_rng(5)
    hat = random_triple(rng, 4)
    s, r = rng.standard_normal(4), rng.standard_normal(4)
    gamma = 0.9
    b_next = reference.dr_b_update(hat.r, hat.b, s, r, 1.0, gamma)
    z_next = r + gamma * b_next
    w = hat.r + gamma * hat.b
    assert np.linalg.norm(z_next - (w - (s - r))) <= 1e-12


def test_update_zero_weight_keeps_center():
    rng = np.random.default_rng(6)
    hat = random_triple(rng, 4)
    s, r = rng.standard_normal(4), rng.standard_normal(4)
    b_next = reference.dr_b_update(hat.r, hat.b, s, r, 0.0, 1.0)
    w = hat.r + hat.b
    assert np.linalg.norm(r + b_next - w) <= 1e-12


def test_update_projection_identity():
    # r + gamma b_next = (r_hat + gamma b_hat) + rho theta (r - s)
    rng = np.random.default_rng(7)
    for _ in range(20):
        hat = random_triple(rng, 5)
        s, r = rng.standard_normal(5), rng.standard_normal(5)
        th, rho, gamma = rng.uniform(0.2, 2.0), rng.uniform(0.5, 1.5), \
            rng.uniform(0.3, 2.0)
        b_next = reference.dr_b_update(hat.r, hat.b, s, r, rho * th, gamma)
        lhs = r + gamma * b_next
        rhs = (hat.r + gamma * hat.b) + rho * th * (r - s)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * (1 + np.linalg.norm(rhs))


# ---------------------------------------------------------------------------
# one outer iteration
# ---------------------------------------------------------------------------

def test_inner_solve_exact_takes_one_trial():
    _, res_a, res_b, _, _ = quad_l1_setup()
    hat = random_triple(np.random.default_rng(8), 10)
    st = first_step(hat, DRParams(1.0, ir.InertiaRelaxParams.plain()),
                    ExactBProcedure(res_b), res_a)
    assert st.trials == 1


def test_inner_solve_cg_accepts_quickly():
    rng = np.random.default_rng(9)
    m = rng.standard_normal((20, 20))
    q_mat = m @ m.T / 20.0 + np.eye(20)
    bproc = CGBProcedure(q_mat)
    res_a = L1ShiftedProx(0.3)
    core = ir.InertiaRelaxParams(0.0, 1.0 / 3.0, 0.99, 1.0, 1.0)
    hat = random_triple(rng, 20)
    st = first_step(hat, DRParams(1.0, core), bproc, res_a)
    assert st.trials <= 10
    assert reference.dr_acceptance(hat.r, hat.b, st.x, -st.p_l, st.z, 1.0,
                                   0.99)


def test_inner_solve_sigma_zero_iterative_exhausts_budget():
    rng = np.random.default_rng(10)
    q_mat = np.diag(rng.uniform(1.0, 3.0, size=8))
    bproc = CGBProcedure(q_mat)
    core = ir.InertiaRelaxParams.plain(sigma=0.0)
    hat = random_triple(rng, 8)
    res = run_dr(hat, DRParams(1.0, core, inner_budget=40), bproc,
                 L1ShiftedProx(0.3), max_outer=1)
    # the inner budget, not the outer one: the result is the last triple
    assert (res.status, res.record.status) == ("stalled", "budget_exceeded")
    assert "inner budget" in res.record.cause
    assert isinstance(res.triple, SplitTriple)
    assert np.array_equal(res.triple.b, hat.b)


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def test_run_matches_classical_recursion():
    _, res_a, res_b, _, _ = quad_l1_setup(n=10, seed=1)
    rng = np.random.default_rng(11)
    init = random_triple(rng, 10)
    params = DRParams(1.0, ir.InertiaRelaxParams.plain(sigma=0.0))
    events = Collector()
    run_to_budget(init, params, ExactBProcedure(res_b), res_a, max_outer=50,
                  observer=events)
    z = init.r + init.b
    worst = 0.0
    for step in events:
        z = classical_dr_step(z, 1.0, res_a, res_b)
        z_run = step.z - step.p
        worst = max(worst, float(np.max(np.abs(z - z_run))))
    assert len(events) == 50
    assert worst <= 1e-10


def test_run_scans_only_its_result_for_finiteness(monkeypatch):
    """A run checks its start once at entry, as a new ``SplitTriple``, since
    a triple's arrays can be changed after it was built, and then only the
    three arrays of the result triple, which it builds once in the
    splitting variables: no iterate is scanned.  Every vector check of the
    splitting layers goes through ``hpp._vec`` and so through
    ``hpp._finite``."""
    _, res_a, res_b, _, _ = quad_l1_setup(n=10, seed=1)
    init = random_triple(np.random.default_rng(11), 10)
    scanned = []
    finite = ir.hpp._finite
    monkeypatch.setattr(ir.hpp, "_finite", lambda x, name:
                        scanned.append(name) or finite(x, name))
    params = DRParams(1.0, ir.InertiaRelaxParams.plain(sigma=0.0))
    res = run_to_budget(init, params, ExactBProcedure(res_b), res_a,
                        max_outer=5)
    assert scanned == ["s", "b", "r"] * 2
    assert isinstance(res.triple, SplitTriple)


@pytest.mark.parametrize("zero_side", ["a", "b"])
def test_one_operator_drives_the_engine_and_the_splitting(zero_side):
    """With the zero operator on one side, the classical recursion is
    z_next = J_T(z), the proximal point method on the operator T on the
    other.  So one ``AffineOperator`` object, given as it is to
    ``run_dr`` (as the A-resolvent, or through ``ExactBProcedure``) and to
    ``run_hpp`` (through ``ExactBProcedure``), makes exact plain runs of
    both layers pass through the same points."""
    rng = np.random.default_rng(16)
    m = rng.standard_normal((10, 10))
    op = AffineOperator(m - m.T + 0.1 * np.eye(10), rng.standard_normal(10))
    zero = AffineOperator(np.zeros((10, 10)))
    res_a, res_b = (zero, op) if zero_side == "a" else (op, zero)
    init = random_triple(rng, 10)
    core = ir.InertiaRelaxParams.plain(sigma=0.0)
    dr_events, hpp_events = Collector(), Collector()
    run_to_budget(init, DRParams(1.0, core), ExactBProcedure(res_b), res_a,
                  max_outer=50, observer=dr_events)
    res = ir.run_hpp(init.r + init.b, ExactBProcedure(op), core,
                     max_iters=50, observer=hpp_events)
    assert res.status == "budget_exceeded"
    assert len(dr_events) == len(hpp_events) == 50
    z = init.r + init.b
    for d_step, h_step in zip(dr_events, hpp_events):
        z = classical_dr_step(z, 1.0, res_a, res_b)
        assert np.max(np.abs(z - (d_step.z - d_step.p))) <= 1e-10
        assert np.max(np.abs((h_step.z - h_step.p)
                              - (d_step.z - d_step.p))) <= 1e-10
    assert np.linalg.norm(z - init.r - init.b) > 1.0  # the runs moved


def test_run_stationary_init_stops_immediately():
    _, res_a, res_b, x_star, b_star = quad_l1_setup(n=6, seed=2)
    init = SplitTriple(x_star, b_star, x_star)
    params = DRParams(1.0, ir.InertiaRelaxParams.plain(sigma=0.0))
    res = run_dr(init, params, ExactBProcedure(res_b), res_a, max_outer=10)
    assert res.status == "solved"
    assert res.outer_iters == 0
    assert np.linalg.norm(res.x - x_star) <= 1e-10


def test_only_an_exact_coincidence_is_solved():
    """A gap stop reports ``solved`` only where s = r exactly, the
    coincidence that solves the inclusion, and ``converged`` on 0 < ||s -
    r|| <= sr_tolerance.  Either way the record counts the run as
    converged, and ``final_kkt`` is ||s - r|| of the returned triple."""
    _, res_a, res_b, x_star, b_star = quad_l1_setup(n=6, seed=2)
    params = DRParams(1.0, ir.InertiaRelaxParams.plain(sigma=0.0))
    starts = {"solved": SplitTriple(x_star, b_star, x_star),
              "converged": SplitTriple(np.zeros(6), np.zeros(6), np.zeros(6))}
    for status, init in starts.items():
        res = run_dr(init, params, ExactBProcedure(res_b), res_a,
                     max_outer=300, sr_tolerance=1e-9)
        assert (res.status, res.record.status) == (status, "converged")
        gap = float(np.linalg.norm(res.triple.s - res.triple.r))
        assert res.record.final_kkt == gap <= 1e-9
        assert (gap == 0.0) == (status == "solved")


def test_run_inertial_relaxed_converges_and_embeds(inertial_core):
    _, res_a, res_b, x_star, b_star = quad_l1_setup(n=10, seed=1)
    params = DRParams(1.0, inertial_core)
    rng = np.random.default_rng(12)
    init = random_triple(rng, 10)
    events = Collector()
    res = run_dr(init, params, ExactBProcedure(res_b), res_a,
                 max_outer=3000, sr_tolerance=1e-11, observer=events)
    assert res.status == "converged"
    assert np.linalg.norm(res.x - x_star) <= 1e-8
    z_star = x_star + b_star  # gamma = 1
    steps = engine_steps(events, 1.0)
    assert ir.fejer_check(steps, z_star, inertial_core, rel_tol=1e-9) is None
    for st in events:
        assert st.theta > 0.0


@pytest.mark.parametrize("driver, option, value", [
    ("hpp", "max_iters", -1), ("hpp", "v_tolerance", -1.0),
    ("hpp", "v_tolerance", float("nan")), ("dr", "max_outer", -1),
    ("dr", "sr_tolerance", -1.0), ("dr", "sr_tolerance", float("nan")),
    ("admm", "max_outer", -1), ("admm", "inner_budget", 0),
])
def test_budgets_and_tolerances_checked_at_entry(driver, option, value):
    """A negative budget, or a negative or NaN tolerance, raises
    ``ParameterError`` naming it, before the first iteration.  A negative
    budget used to run no iteration and fail in the run record; a NaN
    tolerance never stopped a run that had reached its solution.
    ``run_hpp`` is ``run_dr``'s run, and the message names ``run_dr``'s
    parameter."""
    z = np.zeros(3)
    params = ir.InertiaRelaxParams.plain(sigma=0.0)
    name = {"max_iters": "max_outer", "v_tolerance": "sr_tolerance"}.get(
        option, option)
    with pytest.raises(ParameterError, match=name):
        if driver == "hpp":
            ir.run_hpp(z + 1.0, ExactBProcedure(AffineOperator(
                np.eye(3))), params, **{option: value})
        elif driver == "admm":
            run_admm(ir.lasso_admm_problem(ir.synthetic_lasso(2, 3), 1.0),
                     ADMMParams(1.0, params, **{option: value}))
        else:
            run_dr(SplitTriple(z + 1.0, z, z + 1.0), DRParams(1.0, params),
                   ExactBProcedure(AffineOperator(np.zeros((3, 3)))),
                   L1ShiftedProx(0.1), **{option: value})


@pytest.mark.parametrize("driver, value, name", [
    ("admm", float("inf"), "c"), ("dr", float("inf"), "gamma"),
    ("dr", 1e-320, "gamma"),
])
def test_infinite_penalty_rejected_at_entry(driver, value, name):
    """An infinite c, a gamma of inf (c = 0) or a gamma whose 1/gamma
    overflows to an infinite c raises ``ParameterError`` naming the
    parameter.  The infinite c used to end the ADMM run as ``error`` at
    outer iteration 0, and gamma = inf to raise ``ZeroDivisionError`` out
    of the B half-step after entry."""
    z = np.zeros(3)
    params = ir.InertiaRelaxParams.plain(sigma=0.0)
    with pytest.raises(ParameterError, match=rf"\b{name}\b"):
        if driver == "admm":
            run_admm(ir.lasso_admm_problem(ir.synthetic_lasso(2, 3), 1.0),
                     ADMMParams(value, params))
        else:
            run_dr(SplitTriple(z + 1.0, z, z + 1.0), DRParams(value, params),
                   ExactBProcedure(AffineOperator(np.eye(3))),
                   L1ShiftedProx(0.1))


def test_embedding_reproduces_engine_equations():
    _, res_a, res_b, _, _ = quad_l1_setup(n=8, seed=3)
    rng = np.random.default_rng(13)
    q_mat = np.eye(8)  # B(x) = x - c0 has unit quadratic part
    core = ir.InertiaRelaxParams(0.18966, 0.18976, 0.99, 1.4882, 1.4882)
    params = DRParams(1.0, core)
    c0, res_a, res_b, _, _ = quad_l1_setup(n=8, seed=3)
    bproc = CGBProcedure(q_mat, -c0)
    init = random_triple(rng, 8)
    # the epsilon stop ends the run before the machine-precision floor,
    # where no trial could pass the relative test any more
    events = Collector()
    res = run_dr(init, params, bproc, res_a, max_outer=40,
                 sr_tolerance=1e-11, observer=events)
    assert res.status == "converged"
    assert len(events) >= 10
    for st in events:
        hat, nxt = split_triples(st)
        w, z_tilde, v = reference.embed_to_hpp(hat.r, hat.b, st.x, -st.p_l,
                                               st.z, 1.0)
        # extrapolation consistency: w = z + alpha (z - z_prev) is implied
        # by the componentwise triple extrapolation; acceptance at the
        # engine's unit stepsize
        assert reference.error_criterion(w, z_tilde, v, core.sigma)
        # accepted => theta >= (1 - sigma^2)/2, on the B -> F path
        assert st.theta >= 0.5 * (1.0 - core.sigma ** 2)
        # projective correction: z_next = w - rho tau v
        tau = ((w - z_tilde) @ v) / (v @ v)
        z_next = nxt.r + nxt.b
        assert np.linalg.norm(z_next - (w - st.rho_k * tau * v)) <= 1e-12


def test_embedding_exact_case_has_unit_tau():
    _, res_a, res_b, _, _ = quad_l1_setup(n=5, seed=4)
    rng = np.random.default_rng(14)
    init = random_triple(rng, 5)
    params = DRParams(1.0, ir.InertiaRelaxParams.plain(sigma=0.0))
    events = Collector()
    run_to_budget(init, params, ExactBProcedure(res_b), res_a, max_outer=5,
                  observer=events)
    for st in events:
        hat, _ = split_triples(st)
        w, z_tilde, v = reference.embed_to_hpp(hat.r, hat.b, st.x, -st.p_l,
                                               st.z, 1.0)
        assert np.linalg.norm(v - (st.x - st.z)) == 0.0
        assert np.linalg.norm((w - z_tilde) - v) <= 1e-12
        tau = ((w - z_tilde) @ v) / (v @ v)
        assert tau == pytest.approx(1.0, abs=1e-10)


def test_classical_step_zero_operators_is_identity():
    z = np.array([1.0, -2.0, 3.0])
    zero = AffineOperator(np.zeros((3, 3)))
    out = classical_dr_step(z, 1.0, zero, zero)
    assert np.array_equal(out, z)
    for gamma in (0.0, -1.0, math.nan):
        with pytest.raises(ParameterError, match="gamma > 0"):
            classical_dr_step(z, gamma, zero, zero)


def test_classical_fixed_point_solves_inclusion():
    _, res_a, res_b, x_star, _ = quad_l1_setup(n=7, seed=5, nu=0.4)
    z = np.zeros(7)
    for _ in range(3000):
        z = classical_dr_step(z, 1.0, res_a, res_b)
    x = res_b.resolvent(1.0, z)
    assert np.linalg.norm(x - x_star) <= 1e-9


def test_resolvent_nonexpansiveness():
    rng = np.random.default_rng(15)
    m = rng.standard_normal((5, 5))
    maps = [L1ShiftedProx(0.7), AffineOperator(m @ m.T)]
    for res in maps:
        for _ in range(50):
            u, up = rng.standard_normal(5), rng.standard_normal(5)
            lhs = np.linalg.norm(res.resolvent(0.8, u)
                                 - res.resolvent(0.8, up))
            assert lhs <= np.linalg.norm(u - up) * (1.0 + 1e-12)
