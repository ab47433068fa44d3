"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import statistics
import time

import numpy as np
import pytest

import irsplit as ir
import irsplit.bench as bench
from irsplit.admm import ADMMParams, Criterion, run_admm
from irsplit.dr import DRParams, SplitTriple, classical_dr_step, run_dr
from irsplit.operators import (AffineOperator, CGBProcedure, ExactBProcedure,
                               ExactResolventOracle, L1Resolvent,
                               PerturbedResolventOracle)
from irsplit.subsolvers import soft_threshold

import reference
from conftest import (Collector, accepted_certificate_sampler, engine_steps,
                      record_trials)


def report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)


# ---------------------------------------------------------------------------
# 1. Parameter algebra
# ---------------------------------------------------------------------------

def test_criterion_1_parameter_algebra():
    started = time.perf_counter()
    failures = []
    if not abs(ir.rho_bar_of_beta(1.0 / 3.0) - 1.0) <= 1e-12:
        failures.append("rho_bar(1/3) != 1")
    if not abs(ir.rho_bar_of_beta(0.18976) - 1.4882) <= 5e-5:
        failures.append("rho_bar(0.18976)")
    if not abs(ir.rho_bar_of_beta(0.1001) - 1.7606) <= 5e-5:
        failures.append("rho_bar(0.1001)")
    for b in np.linspace(0.001, 0.999, 1000):
        if abs(ir.beta_of_rho_bar(ir.rho_bar_of_beta(b)) - b) > 1e-10:
            failures.append(f"inverse pair at beta={b}")
            break
    for r in np.linspace(0.001, 1.999, 1000):
        if abs(ir.rho_bar_of_beta(ir.beta_of_rho_bar(r)) - r) > 1e-10:
            failures.append(f"inverse pair at rho={r}")
            break
        if abs(ir.q_eval(ir.beta_of_rho_bar(r), r)) > 1e-10:
            failures.append(f"q root at rho={r}")
            break
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s")
    report("criterion 1: parameter algebra", not failures,
           f"{elapsed:.3f}s")
    assert not failures, failures


# ---------------------------------------------------------------------------
# 2. Classical splitting reduction
# ---------------------------------------------------------------------------

def test_criterion_2_classical_reduction():
    started = time.perf_counter()
    rng = np.random.default_rng(1)
    n, nu = 10, 0.5
    c0 = 2.0 * rng.standard_normal(n)
    res_a = L1Resolvent(nu)
    res_b = AffineOperator(np.eye(n), -c0)
    init = SplitTriple(rng.standard_normal(n), rng.standard_normal(n),
                       rng.standard_normal(n))
    params = DRParams(1.0, ir.InertiaRelaxParams.plain(sigma=0.0))
    trace = Collector()
    res = run_dr(init, params, ExactBProcedure(res_b), res_a, max_outer=50,
                 observer=trace)
    assert (res.status, res.outer_iters) == ("budget_exceeded", 50)
    z = init.r + init.b
    worst = 0.0
    for step in trace:
        z = classical_dr_step(z, 1.0, res_a, res_b)
        # r + b of the next triple, (s, b, r) = (x, -p, z)
        worst = max(worst, float(np.max(np.abs(z - (step.z - step.p)))))
    elapsed = time.perf_counter() - started
    ok = len(trace) == 50 and worst <= 1e-10 and elapsed < 1.0
    report("criterion 2: classical splitting reduction", ok,
           f"max dev {worst:.2e}, {elapsed:.3f}s")
    assert len(trace) == 50
    assert worst <= 1e-10
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 3. Layer-stack trace equivalence
# ---------------------------------------------------------------------------

def test_criterion_3_layer_stack_equivalence(lasso_20x50, inertial_core):
    started = time.perf_counter()
    c = 1.0
    params = ADMMParams(c=c, core=inertial_core,
                        criterion=Criterion.SUM_SQUARES, epsilon=0.0,
                        max_outer=110)
    problem = ir.lasso_admm_problem(lasso_20x50, c)
    sessions = record_trials(problem)
    trace = Collector()
    run_admm(problem, params, observer=trace)
    assert len(trace) >= 100
    assert len(sessions) == len(trace)
    worst = 0.0
    verdict_mismatches = 0
    cur = ir.PrimalDualTriple.zeros(lasso_20x50.n)
    prev = cur
    for step, trials in zip(trace, sessions):
        # mapped engine variables: z = z_admm - p/c etc.
        z_cur = cur.z - cur.p / c
        z_prev = prev.z - prev.p / c
        w = step.z_hat - step.p_hat / c
        # (2.2) inertial extrapolation
        worst = max(worst, float(np.max(np.abs(
            w - (z_cur + step.alpha_k * (z_cur - z_prev))))))
        # (2.3) relative-error acceptance at the engine's unit stepsize
        z_tilde = step.z - step.p_l / c
        v = step.x - step.z
        cert = ir.ProxCertificate(z_tilde, v)
        if not ir.error_criterion_holds(w, cert, inertial_core.sigma):
            verdict_mismatches += 1
        # verdicts of the two acceptance tests agree at every inner trial
        # (the accepted trial is the last of its session)
        _, b_hat, r_hat = reference.embed_to_dr(step.x_hat, step.z_hat,
                                                step.p_hat)
        for i, trial in enumerate(trials, 1):
            mapped = reference.dr_acceptance(
                r_hat, b_hat, trial.x, -trial.p_l, trial.z_l, 1.0 / c,
                inertial_core.sigma)
            if mapped != (i == len(trials)):
                verdict_mismatches += 1
        # (2.4) relaxed projection
        tau = ((w - z_tilde) @ v) / (v @ v)
        z_next = step.z - step.p / c
        worst = max(worst, float(np.max(np.abs(
            z_next - (w - step.rho_k * tau * v)))))
        prev, cur = cur, step
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and verdict_mismatches == 0 and elapsed < 5.0
    report("criterion 3: layer-stack trace equivalence", ok,
           f"max dev {worst:.2e}, {len(trace)} outer, {elapsed:.3f}s")
    assert worst <= 1e-12
    assert verdict_mismatches == 0
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 4. Fejer descent, the inertial partial-sum bound, the certificate bounds
# ---------------------------------------------------------------------------

def test_criterion_4_fejer_and_certificate_bounds(lasso_20x50,
                                                  lasso_20x50_reference,
                                                  inertial_core):
    started = time.perf_counter()
    runs = []

    # each run: its name, engine steps, engine start z0, z* and parameters
    plain = ir.InertiaRelaxParams.plain(sigma=0.0)
    z0 = np.array([1.0, -2.0])
    htrace = Collector()
    ir.run_hpp(z0, ExactResolventOracle(AffineOperator(np.eye(2))), plain,
               max_iters=200, v_tolerance=1e-11, observer=htrace)
    runs.append(("engine scaling exact", engine_steps(htrace), z0,
                 np.zeros(2), plain))

    rotation = AffineOperator(np.array([[0.1, 1.0], [-1.0, 0.1]]))
    inertial_engine = ir.InertiaRelaxParams.from_beta(0.18, 0.18976, sigma=0.0)
    z0 = np.array([3.0, -1.0])
    htrace = Collector()
    ir.run_hpp(z0, ExactResolventOracle(rotation), inertial_engine,
               max_iters=4000, v_tolerance=1e-10, observer=htrace)
    runs.append(("engine rotation exact inertial", engine_steps(htrace), z0,
                 np.zeros(2), inertial_engine))

    perturbed_params = ir.InertiaRelaxParams.from_beta(0.18, 0.18976,
                                                       sigma=0.9)
    z0 = np.array([2.0, 1.0])
    htrace = Collector()
    ir.run_hpp(z0, PerturbedResolventOracle(rotation, seed=5),
               perturbed_params, max_iters=4000, v_tolerance=1e-9,
               observer=htrace)
    runs.append(("engine rotation inexact inertial", engine_steps(htrace),
                 z0, np.zeros(2), perturbed_params))

    rng = np.random.default_rng(2)
    n, nu = 10, 0.5
    c0 = 2.0 * rng.standard_normal(n)
    x_star = soft_threshold(c0, nu)
    z_star_dr = x_star + (x_star - c0)  # gamma = 1
    res_a = L1Resolvent(nu)
    res_b = AffineOperator(np.eye(n), -c0)
    init = SplitTriple(rng.standard_normal(n), rng.standard_normal(n),
                       rng.standard_normal(n))
    dtrace = Collector()
    run_dr(init, DRParams(1.0, inertial_core), ExactBProcedure(res_b),
           res_a, max_outer=3000, sr_tolerance=1e-10, observer=dtrace)
    z0_dr = init.r + init.b  # gamma = 1
    runs.append(("splitting quad/l1 exact inertial", engine_steps(dtrace, 1.0),
                 z0_dr, z_star_dr, inertial_core))

    dtrace = Collector()
    run_dr(init, DRParams(1.0, inertial_core),
           CGBProcedure(np.eye(n), -c0), res_a, max_outer=3000,
           sr_tolerance=1e-8, observer=dtrace)
    runs.append(("splitting quad/l1 cg inertial", engine_steps(dtrace, 1.0),
                 z0_dr, z_star_dr, inertial_core))

    c = 1.0
    params = ADMMParams(c=c, core=inertial_core, epsilon=1e-6, max_outer=5000)
    atrace = Collector()
    run_admm(ir.lasso_admm_problem(lasso_20x50, c), params, observer=atrace)
    grad_ref = lasso_20x50.value_gradient(lasso_20x50_reference)[1]
    z_star_admm = lasso_20x50_reference + grad_ref / c
    runs.append(("admm lasso inertial", engine_steps(atrace, 1.0 / c),
                 np.zeros(lasso_20x50.n), z_star_admm, inertial_core))

    failures = []
    total_steps = 0
    for name, steps, z0, z_star, params_used in runs:
        total_steps += len(steps)
        bad = ir.fejer_check(steps, z_star, params_used, rel_tol=1e-9)
        if bad is not None:
            failures.append(f"{name} violates descent at step {bad}")
        bad = ir.alvarez_attouch_check(steps, z0, z_star, params_used,
                                       rel_tol=1e-9)
        if bad is not None:
            failures.append(f"{name} violates the inertial partial-sum "
                            f"bound at step {bad}")

    rng = np.random.default_rng(99)
    sampler = accepted_certificate_sampler(rng)
    gauss_bad = 0
    for _ in range(10_000):
        w, cert, sigma = next(sampler)
        if not reference.gauss_bounds(w, cert.z_tilde, cert.v, sigma):
            gauss_bad += 1
    if gauss_bad:
        failures.append(f"{gauss_bad} certificate-bound violations")

    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s")
    report("criterion 4: descent inequality and certificate bounds",
           not failures,
           f"{len(runs)} runs, {total_steps} steps, 10000 certificates, "
           f"{elapsed:.3f}s")
    assert not failures, failures


# ---------------------------------------------------------------------------
# 5. End-to-end convergence at the published settings
# ---------------------------------------------------------------------------

def test_criterion_5_end_to_end_convergence():
    started = time.perf_counter()
    lasso = ir.synthetic_lasso(100, 300, seed=0)
    core = ir.InertiaRelaxParams(0.18966, 0.18976, 0.99, 1.4882, 1.4882)
    params = ADMMParams(c=1.0, core=core, criterion=Criterion.MAX_FORM,
                        epsilon=1e-6, max_outer=5000)
    res = run_admm(ir.lasso_admm_problem(lasso, 1.0), params)
    lasso_time = time.perf_counter() - started
    ok_lasso = (res.status == "converged"
                and lasso.kkt_dist_inf(res.x)[0] <= 1e-6
                and res.outer_iters <= 5000 and lasso_time < 5.0)
    report("criterion 5a: lasso 100x300 at the published settings", ok_lasso,
           f"outer {res.outer_iters}, inner {res.inner_iters_total}, "
           f"kkt {res.record.final_kkt:.2e}, {lasso_time:.3f}s")

    log_started = time.perf_counter()
    logistic = ir.synthetic_logistic(50, 31, seed=0)
    core_log = ir.InertiaRelaxParams(0.1, 0.1001, 0.99, 1.7606, 1.7606)
    params_log = ADMMParams(c=1.0, core=core_log, criterion=Criterion.MAX_FORM,
                            epsilon=1e-6, max_outer=10_000)
    res_log = run_admm(ir.logistic_admm_problem(logistic, 1.0), params_log)
    log_time = time.perf_counter() - log_started
    zero_frac = float(np.mean(res_log.x[1:] == 0.0))
    ok_log = (res_log.status == "converged"
              and logistic.kkt_dist_inf(res_log.x)[0] <= 1e-6
              and res_log.outer_iters <= 10_000 and log_time < 30.0)
    report("criterion 5b: logistic 50x31 at the published settings", ok_log,
           f"outer {res_log.outer_iters}, inner {res_log.inner_iters_total}, "
           f"kkt {res_log.record.final_kkt:.2e}, "
           f"{zero_frac:.0%} of weights zero, {log_time:.3f}s")
    assert ok_lasso
    assert ok_log


# ---------------------------------------------------------------------------
# 6. Inertial benefit across seeds
# ---------------------------------------------------------------------------

def test_criterion_6_inertial_benefit():
    started = time.perf_counter()
    ratios = []
    core_in = ir.InertiaRelaxParams(0.18966, 0.18976, 0.99, 1.4882, 1.4882)
    core_pl = ir.InertiaRelaxParams(0.0, 1.0 / 3.0, 0.99, 1.0, 1.0)
    for seed in range(20):
        prob = ir.synthetic_lasso(60, 150, seed=seed)
        aprob = ir.lasso_admm_problem(prob, 1.0)
        res_in = run_admm(aprob, ADMMParams(c=1.0, core=core_in,
                                            epsilon=1e-6, max_outer=20_000))
        res_pl = run_admm(aprob, ADMMParams(c=1.0, core=core_pl,
                                            epsilon=1e-6, max_outer=20_000))
        assert res_in.status == "converged" and res_pl.status == "converged"
        ratios.append(res_in.outer_iters / res_pl.outer_iters)
    med = statistics.median(ratios)
    elapsed = time.perf_counter() - started
    ok = med < 1.0
    # the published experiments saw a 0.525 geometric-mean outer-iteration
    # ratio on their datasets; reported for context, not asserted
    report("criterion 6: inertial-relaxed benefit", ok,
           f"median outer ratio {med:.3f} over {len(ratios)} seeds "
           f"(published context 0.525), {elapsed:.3f}s")
    assert ok


# ---------------------------------------------------------------------------
# 7. Oracle suite
# ---------------------------------------------------------------------------

def test_criterion_7_oracle_suite():
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(50)

    def central(fun, x, h):
        g = np.zeros_like(x)
        for i in range(x.size):
            e = np.zeros_like(x)
            e[i] = h
            g[i] = (fun(x + e) - fun(x - e)) / (2.0 * h)
        return g

    lasso = ir.synthetic_lasso(12, 8, seed=1)
    logistic = ir.synthetic_logistic(10, 6, seed=1)
    for _ in range(20):
        x = rng.standard_normal(8)
        h = 1e-6 * (1.0 + np.max(np.abs(x)))
        fd = central(lasso.f_value, x, h)
        g = lasso.value_gradient(x)[1]
        if np.linalg.norm(g - fd) / (1 + np.linalg.norm(fd)) > 1e-6:
            failures.append("lasso gradient fd")
            break
    for _ in range(20):
        x = rng.standard_normal(6)
        h = 1e-6 * (1.0 + np.max(np.abs(x)))
        fd = central(lambda t: logistic.value_gradient(t)[0], x, h)
        g = logistic.value_gradient(x)[1]
        if np.linalg.norm(g - fd) / (1 + np.linalg.norm(fd)) > 1e-6:
            failures.append("logistic gradient fd")
            break

    grid = np.arange(-6.0, 6.0, 1e-4)
    for _ in range(20):
        t = float(rng.uniform(-4, 4))
        kappa = float(rng.uniform(0, 2))
        oracle = grid[np.argmin(kappa * np.abs(grid) + 0.5 * (grid - t) ** 2)]
        if abs(soft_threshold(np.array([t]), kappa)[0] - oracle) > 1e-4 + 1e-9:
            failures.append("soft threshold grid")
            break

    offsets = np.arange(-lasso.nu, lasso.nu + 1e-5, 1e-5)
    for _ in range(5):
        x = rng.standard_normal(8)
        x[rng.random(8) < 0.4] = 0.0
        grad = lasso.value_gradient(x)[1]
        worst = 0.0
        for i in range(8):
            if x[i] != 0.0:
                r = abs(grad[i] + lasso.nu * np.sign(x[i]))
            else:
                r = float(np.min(np.abs(grad[i] + offsets)))
            worst = max(worst, r)
        if abs(lasso.kkt_dist_inf(x)[0] - worst) > 1e-5:
            failures.append("kkt grid oracle")
            break

    q, _ = np.linalg.qr(rng.standard_normal((50, 50)))
    h_mat = (q * np.linspace(1.0, 10.0, 50)) @ q.T
    rhs = rng.standard_normal(50)
    rhs /= np.linalg.norm(rhs)
    session = ir.CGSession(lambda u: h_mat @ u, rhs, np.zeros(50))
    for _ in range(50):
        _, y = session.next()
    if np.linalg.norm(y) > 1e-10:
        failures.append(f"cg termination {np.linalg.norm(y):.2e}")

    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s")
    report("criterion 7: oracle suite", not failures, f"{elapsed:.3f}s")
    assert not failures, failures


# ---------------------------------------------------------------------------
# 8. Cross-solver agreement
# ---------------------------------------------------------------------------

def test_criterion_8_cross_solver_agreement():
    started = time.perf_counter()
    gaps = []
    lasso = ir.synthetic_lasso(40, 80, seed=2)
    fres = ir.fista_solve(lasso, ir.FistaConfig(epsilon=1e-8))
    core = ir.InertiaRelaxParams(0.18966, 0.18976, 0.99, 1.4882, 1.4882)
    ares = run_admm(ir.lasso_admm_problem(lasso, 1.0),
                    ADMMParams(c=1.0, core=core, epsilon=1e-8,
                               max_outer=50_000))
    gaps.append(abs(fres.record.final_objective - ares.record.final_objective))

    logistic = ir.synthetic_logistic(30, 16, seed=2)
    fres_l = ir.fista_solve(logistic, ir.FistaConfig(epsilon=1e-8))
    core_l = ir.InertiaRelaxParams(0.1, 0.1001, 0.99, 1.7606, 1.7606)
    ares_l = run_admm(ir.logistic_admm_problem(logistic, 1.0),
                      ADMMParams(c=1.0, core=core_l, epsilon=1e-8,
                                 max_outer=50_000))
    gaps.append(abs(fres_l.record.final_objective -
                    ares_l.record.final_objective))
    elapsed = time.perf_counter() - started
    ok = all(s == "converged" for s in
             (fres.status, ares.status, fres_l.status, ares_l.status)) \
        and max(gaps) <= 1e-8 and elapsed < 10.0
    report("criterion 8: cross-solver agreement", ok,
           f"objective gaps {gaps[0]:.2e} / {gaps[1]:.2e}, {elapsed:.3f}s")
    assert max(gaps) <= 1e-8
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 9. Harness determinism and summary math
# ---------------------------------------------------------------------------

def test_criterion_9_determinism_and_summary_math():
    started = time.perf_counter()
    cfg = bench.RunConfig(
        problem={"kind": "synthetic_lasso", "m": 15, "n": 40, "seed": 3},
        solver="admm_inertial",
        options={"sigma": 0.99, "c": 1.0, "epsilon": 1e-6,
                 "max_outer": 5000})
    r1, r2 = bench.run_one(cfg), bench.run_one(cfg)
    same_counts = (r1.record.outer_iters == r2.record.outer_iters
                   and r1.record.inner_iters_total == r2.record.inner_iters_total)

    prob = ir.synthetic_lasso(15, 40, seed=3)
    core = ir.InertiaRelaxParams(0.18966, 0.18976, 0.99, 1.4882, 1.4882)
    params = ADMMParams(c=1.0, core=core, epsilon=1e-6, max_outer=5000)
    x1 = run_admm(ir.lasso_admm_problem(prob, 1.0), params).x
    x2 = run_admm(ir.lasso_admm_problem(prob, 1.0), params).x
    same_points = float(np.max(np.abs(x1 - x2))) <= 1e-15

    ratio = (statistics.geometric_mean([399.85])
             / statistics.geometric_mean([761.02]))
    ratio_ok = abs(ratio - 0.525) <= 1e-3

    elapsed = time.perf_counter() - started
    ok = same_counts and same_points and ratio_ok
    report("criterion 9: determinism and summary math", ok,
           f"ratio {ratio:.4f}, {elapsed:.3f}s")
    assert same_counts
    assert same_points
    assert ratio_ok
