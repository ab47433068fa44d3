"""Coupling maps between the inertia cap and the relaxation cap, and the
contracts the parameter objects check when they are built."""

import dataclasses
import math
import re
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import irsplit as ir
from irsplit.dr import DRParams
from irsplit.errors import ParameterError
from irsplit.operators import AffineOperator, ExactBProcedure


def bisect_inverse_of_coupling(rho_target, lo=1e-12, hi=1.0 - 1e-12, iters=200):
    """Independent oracle: invert the coupling map by bisection (it is
    strictly decreasing)."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if ir.rho_bar_of_beta(mid) > rho_target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_unit_relaxation_at_one_third():
    assert abs(ir.rho_bar_of_beta(1.0 / 3.0) - 1.0) <= 1e-12


def test_published_pairings():
    assert abs(ir.rho_bar_of_beta(0.18976) - 1.4882) <= 5e-5
    assert abs(ir.rho_bar_of_beta(0.1001) - 1.7606) <= 5e-5


def test_endpoint_limits():
    assert abs(ir.rho_bar_of_beta(1e-9) - 2.0) <= 1e-6
    assert abs(ir.rho_bar_of_beta(1.0 - 1e-9) - 0.0) <= 1e-6


def test_inverse_at_unit_relaxation():
    assert abs(ir.beta_of_rho_bar(1.0) - 1.0 / 3.0) <= 1e-12


def test_inverse_pair_identities():
    betas = np.linspace(0.001, 0.999, 1000)
    for b in betas:
        assert abs(ir.beta_of_rho_bar(ir.rho_bar_of_beta(b)) - b) <= 1e-10
    rhos = np.linspace(0.001, 1.999, 1000)
    for r in rhos:
        assert abs(ir.rho_bar_of_beta(ir.beta_of_rho_bar(r)) - r) <= 1e-10


def test_inverse_matches_bisection_oracle():
    oracle = bisect_inverse_of_coupling(1.4882)
    assert abs(oracle - 0.18976) <= 5e-5
    assert abs(ir.beta_of_rho_bar(1.4882) - oracle) <= 1e-10


def test_coupling_strictly_decreasing():
    grid = np.linspace(0.001, 0.999, 500)
    vals = [ir.rho_bar_of_beta(b) for b in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))


# Tolerances of the properties below, from the maps' conditioning.
#
# R = rho_bar_of_beta: R(b) = t / D with t = 2 (1 - b)^2 and D = t + 3b - 1
# = 2b^2 - b + 1 >= 7/8, so R'(b) = -2 (1 - b)(1 + 3b) / D^2 < 0 on (0, 1)
# and |R''| <= 8 there (attained at b = 0).  B = beta_of_rho_bar is its
# inverse, B'(r) = 1 / R'(B(r)).
#
# Each map takes at most eight roundings, and its one cancelling sum
# (t + 3b - 1 in R, 16 - 7r in B) magnifies the earlier ones at most
# 15-fold, so each evaluates within RELATIVE = 16 u of its exact value,
# u the unit round-off (10^5 sampled points showed at most about 4 u).
#
# A round trip then errs by the inner map's error carried through the
# outer map's derivative, plus the outer map's own error:
#   |B(R(b)) - b| <= RELATIVE (R(b) / |R'(b)| + b)              (first order)
#   |R(B(r)) - r| <= RELATIVE (b |R'(b)| + r) + 4 (RELATIVE b)^2,  b = B(r)
# where the last term is |R''|/2 times the square of B's error.  The
# first-order bounds are doubled to cover the products of two roundings.

_U = np.finfo(float).eps / 2.0
RELATIVE = 16.0 * _U


def _slope(b: float) -> float:
    """R'(b), in the closed form above."""
    d = 2.0 * b * b - b + 1.0
    return -2.0 * (1.0 - b) * (1.0 + 3.0 * b) / (d * d)


def _exact_rho(b: float) -> Fraction:
    """R(b) exactly: R is rational, and a float is a fraction."""
    b = Fraction(b)
    t = 2 * (1 - b) ** 2
    return t / (t + 3 * b - 1)


def _exact_beta(r: float) -> Fraction:
    """B(r) to 1,200 digits, enough to hold 2 - r for the smallest
    subnormal r and to order B at any two distinct floats."""
    with localcontext() as ctx:
        ctx.prec = 1200
        r = Decimal(r)
        return Fraction(2 * (2 - r) / (4 - r + (r * (16 - 7 * r)).sqrt()))


_betas = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
_rhos = st.floats(0.0, 2.0, exclude_min=True, exclude_max=True)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(b=_betas, r=_rhos)
def test_coupling_maps_are_inverse(b, r):
    """B(R(b)) = b on (0, 1) and R(B(r)) = r on (0, 2), within the
    conditioning bounds above, everywhere: each map's value lies in the
    other's domain, also where it is clamped (below 2 for b below about
    1e-16, below 1 for r below about 1e-32)."""
    rho = ir.rho_bar_of_beta(b)
    tol = 2.0 * RELATIVE * (rho / abs(_slope(b)) + b)
    assert abs(ir.beta_of_rho_bar(rho) - b) <= tol
    beta = ir.beta_of_rho_bar(r)
    tol = (2.0 * RELATIVE * (beta * abs(_slope(beta)) + r)
           + 4.0 * (RELATIVE * beta) ** 2)
    assert abs(ir.rho_bar_of_beta(beta) - r) <= tol


@pytest.mark.parametrize("small_beta, small_rho",
                         [(1e-17, 1e-33), (1e-300, 1e-300), (5e-324, 5e-324)])
def test_coupling_maps_stay_in_each_others_domain(small_beta, small_rho):
    """Near 0 the exact values round to the other map's excluded endpoint
    (2 and 1); the maps clamp them just inside, so round trips and the
    parameters ``from_beta`` builds are valid."""
    rho = ir.rho_bar_of_beta(small_beta)
    assert rho == np.nextafter(2.0, 0.0)
    assert 0.0 < ir.beta_of_rho_bar(rho) <= 2e-16
    ir.InertiaRelaxParams.from_beta(0.0, small_beta)
    beta = ir.beta_of_rho_bar(small_rho)
    assert beta == np.nextafter(1.0, 0.0)
    assert 0.0 < ir.rho_bar_of_beta(beta) <= 2e-32


@settings(max_examples=400, deadline=None, derandomize=True)
@given(b=st.tuples(_betas, _betas), r=st.tuples(_rhos, _rhos))
def test_coupling_maps_strictly_decreasing(b, r):
    """Both maps are strictly decreasing: the exact values are, each
    evaluation lies within RELATIVE of its exact value, so the
    evaluated values decrease strictly wherever the exact gap exceeds the
    two evaluations' error bounds."""
    for (lo, hi), fn, exact in ((sorted(b), ir.rho_bar_of_beta, _exact_rho),
                                (sorted(r), ir.beta_of_rho_bar, _exact_beta)):
        assume(lo < hi)
        e_lo, e_hi = exact(lo), exact(hi)
        assert e_lo > e_hi
        f_lo, f_hi = fn(lo), fn(hi)
        for f, e in ((f_lo, e_lo), (f_hi, e_hi)):
            assert abs(Fraction(f) - e) <= Fraction(RELATIVE) * e
        if e_lo - e_hi > Fraction(RELATIVE) * (e_lo + e_hi):
            assert f_lo > f_hi


def test_domain_errors():
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ParameterError):
            ir.rho_bar_of_beta(bad)
    for bad in (0.0, 2.0, -1.0, 2.5, math.nan):
        with pytest.raises(ParameterError, match="rho_bar must lie in"):
            ir.q_eval(0.1, bad)
    for bad in (0.0, 2.0, -1.0, 2.5):
        with pytest.raises(ParameterError):
            ir.beta_of_rho_bar(bad)


def test_q_at_unit_relaxation_is_affine():
    # with rho_bar = 1 the quadratic collapses to 1 - 3 nu
    for nu in (0.0, 0.1, 1.0 / 3.0, 0.9):
        assert abs(ir.q_eval(nu, 1.0) - (1.0 - 3.0 * nu)) <= 1e-14
    assert abs(ir.q_eval(1.0 / 3.0, 1.0)) <= 1e-14


def test_q_positive_at_zero():
    for rho in np.linspace(0.01, 1.99, 50):
        assert ir.q_eval(0.0, rho) == pytest.approx(2.0 / rho - 1.0)
        assert ir.q_eval(0.0, rho) > 0.0


def test_q_root_property():
    for rho in np.linspace(0.05, 1.95, 200):
        beta = ir.beta_of_rho_bar(rho)
        assert abs(ir.q_eval(beta, rho)) <= 1e-10
        # strictly positive left of the root
        for nu in np.linspace(0.0, beta * 0.999, 7):
            assert ir.q_eval(nu, rho) > 0.0


def test_validate_params_accepts_published_settings():
    """The published settings build: construction is the validation."""
    ir.InertiaRelaxParams(0.18966, 0.18976, 0.99, 1.4882, 1.4882)
    ir.InertiaRelaxParams(0.1, 0.1001, 0.99, 1.7606, 1.7606)
    ir.InertiaRelaxParams(0.0, 0.5, 0.0, 1.0, 1.0)


def test_validate_params_names_violation():
    """Construction raises ``ParameterError`` naming the first violated
    inequality of the contract."""
    with pytest.raises(ParameterError, match="alpha < beta"):
        ir.InertiaRelaxParams(0.4, 1.0 / 3.0, 0.5, 1.0, 1.0)
    with pytest.raises(ParameterError, match="sigma"):
        ir.InertiaRelaxParams(0.1, 0.2, 1.0, 1.0, 1.0)
    with pytest.raises(ParameterError, match="rho_lo"):
        ir.InertiaRelaxParams(0.1, 0.2, 0.5, 0.0, 1.0)
    with pytest.raises(ParameterError, match="beta_of_rho_bar"):
        # no inertia bound above 0.1 pairs with a 1.9 relaxation cap
        ir.InertiaRelaxParams(0.1, 0.5, 0.5, 1.9, 1.9)


@pytest.mark.parametrize("rho", [1.0, 1.4882, 1.9])
def test_coupling_is_strict_at_its_boundary(rho):
    """alpha equal to beta_of_rho_bar(rho_hi), bit for bit, violates the
    coupling even with beta above it: the theory needs alpha strictly
    below the inertia bound of the relaxation cap."""
    alpha = ir.beta_of_rho_bar(rho)
    beta = 0.5 * (alpha + 1.0)
    assert alpha < beta < 1.0
    with pytest.raises(ParameterError, match="coupling"):
        ir.InertiaRelaxParams(alpha, beta, 0.5, rho, rho)
    ir.InertiaRelaxParams(np.nextafter(alpha, 0.0), beta, 0.5, rho, rho)


_CORE = ir.InertiaRelaxParams(0.18966, 0.18976, 0.99, 1.4882, 1.4882)


_UNIT = ir.InertiaRelaxParams(0.1, 0.2, 0.5, 1.0, 1.0)


@pytest.mark.parametrize("params, changes, message", [
    (_CORE, {"alpha": 0.2}, "alpha < beta violated"),
    (ir.InertiaRelaxParams(0.1, 0.5, 0.5, 1.0, 1.0),
     {"rho_lo": 1.9, "rho_hi": 1.9},
     "coupling alpha < beta_of_rho_bar(rho_hi) violated"),
    (_UNIT, {"sigma": float("nan")}, "parameters must be finite"),
    (_UNIT, {"beta": float("inf")}, "parameters must be finite"),
    (_UNIT, {"alpha": -0.1}, "0 <= alpha violated"),
    (_UNIT, {"beta": 1.0}, "beta < 1 violated"),
    (_UNIT, {"rho_lo": 1.5}, "rho_lo <= rho_hi violated"),
    (_UNIT, {"alpha": 0.0, "rho_hi": 2.0}, "rho_hi < 2 violated"),
    (ir.ADMMParams(1.0, _CORE), {"c": 0.0}, "c > 0 violated"),
    (ir.ADMMParams(1.0, _CORE), {"epsilon": -1.0}, "epsilon >= 0 violated"),
    (ir.ADMMParams(1.0, _CORE), {"epsilon": float("nan")},
     "epsilon >= 0 violated"),
    (DRParams(1.0, _CORE), {"gamma": -1.0},
     "gamma > 0 and 0 < 1/gamma < inf violated"),
    (DRParams(1.0, _CORE), {"inner_budget": 0}, "inner_budget >= 1 violated"),
    (ir.FistaConfig(), {"epsilon": float("nan")}, "epsilon >= 0 violated"),
    (ir.FistaConfig(), {"max_outer": -1}, "max_outer >= 0 violated"),
], ids=["alpha", "coupling", "nan", "inf", "alpha_nonnegative",
        "beta_below_one", "rho_lo_at_most_rho_hi", "rho_hi_below_two", "c",
        "admm_epsilon_negative", "admm_epsilon_nan", "gamma", "inner_budget",
        "fista_epsilon", "fista_max_outer"])
def test_replace_to_an_inadmissible_value_raises(params, changes, message):
    """Each parameter object checks itself when built, so
    ``dataclasses.replace`` cannot make an inadmissible one either, and
    each check raises its own message on a value that only it rejects:
    beta = 1 meets the coupling (alpha = 0.1 < 1/3 at rho 1), and rho_hi =
    2 is refused before ``beta_of_rho_bar`` would raise its domain
    error."""
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(params, **changes)


def _run_dr(max_outer):
    init = ir.SplitTriple(np.ones(2), np.zeros(2), np.zeros(2))
    return ir.run_dr(init, DRParams(1.0, _CORE),
                     ExactBProcedure(AffineOperator(np.eye(2))),
                     AffineOperator(np.eye(2)), max_outer=max_outer)


def _run_hpp(max_iters):
    return ir.run_hpp(np.ones(2), ExactBProcedure(
        AffineOperator(np.eye(2))), _CORE, max_iters=max_iters)


_BUDGETS = {
    "admm_max_outer": (lambda n: ir.ADMMParams(1.0, _CORE, max_outer=n),
                       "max_outer"),
    "admm_inner_budget": (lambda n: ir.ADMMParams(1.0, _CORE,
                                                  inner_budget=n),
                          "inner_budget"),
    "dr_inner_budget": (lambda n: DRParams(1.0, _CORE, inner_budget=n),
                        "inner_budget"),
    "fista_max_outer": (lambda n: ir.FistaConfig(max_outer=n), "max_outer"),
    "run_dr_max_outer": (_run_dr, "max_outer"),
    # run_hpp is run_dr's run, whose message names its own budget
    "run_hpp_max_iters": (_run_hpp, "max_outer"),
}


@pytest.mark.parametrize("site", _BUDGETS)
def test_a_budget_must_be_an_integer(site):
    """Every iteration budget is refused with ``ParameterError`` when it is
    not an integer, at construction or at run entry, where a float budget
    used to pass and raise ``TypeError`` out of the run.  Any integer type
    but bool is a budget, numpy's included."""
    build, name = _BUDGETS[site]
    for value in (2.5, 2.0, "2", None, np.float64(2.0), True, False):
        with pytest.raises(ParameterError,
                           match=f"{name} must be an integer"):
            build(value)
    for value in (2, np.int64(2), np.uint8(2)):
        build(value)


def test_from_beta_pairs_maximal_relaxation():
    p = ir.InertiaRelaxParams.from_beta(0.18966, 0.18976)
    assert p.rho_hi == pytest.approx(ir.rho_bar_of_beta(0.18976))
