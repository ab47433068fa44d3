"""Self-tests of the benchmark itself.  Run from the repository root:

    python3 benchmark/selftest.py

Checks, on every workload:
  1. per-layer counts repeat exactly across two traced runs of one seed;
  2. tracing does not perturb the iterates: each instance's status and
     outer/inner counts are the same untraced and traced;
  3. the independent KKT check accepts a converged solution and rejects
     the same solution perturbed by 1e-3 in one coordinate.
Also checks that unsolved solves rank as infinitely slow in the
percentiles, and that an instance solved more than once counts once.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import math
import sys

import run

SEED = 11
SECONDS = 0.5  # traced runs solve the minimum number of instances


class CheckFailed(Exception):
    pass


def check(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


def counts(report) -> dict:
    return {k: m["value"] for k, m in report["result"]["metrics"].items()
            if m["unit"] in ("count", "flop")}


def check_trace_determinism(w):
    from measure import measure

    first = measure(w, SEED, SECONDS, trace=True)
    second = measure(w, SEED, SECONDS, trace=True)
    check(counts(first) == counts(second),
          f"{w.name}: per-layer counts differ between two traced runs")
    check(counts(first)["admm.outer_iters"] > 0,
          f"{w.name}: traced run recorded no outer iterations")


def check_trace_does_not_perturb(w):
    from measure import solve_one, traced_run
    from workloads import instance_seed, make_instance, solver_params

    untraced, traced, _, _, mismatches = traced_run(w, SEED, SECONDS)
    check(not mismatches, f"{w.name}: {len(mismatches)} traced solves differ "
          "from their untraced twins")
    fresh = [solve_one(w, make_instance(w, instance_seed(SEED, t.index)),
                       t.index, solver_params()) for t in traced]
    for u, t in zip(fresh, traced):
        check((u.status, u.outer, u.inner) == (t.status, t.outer, t.inner),
              f"{w.name}: instance {t.index} untraced {u.outer}/{u.inner} "
              f"{u.status}, traced {t.outer}/{t.inner} {t.status}")


def check_kkt_rejects_perturbation(w):
    from irsplit.admm import run_admm
    from workloads import (EPSILON, build, instance_seed, kkt_check,
                           make_instance, solver_params)

    for i in range(20):
        inst = make_instance(w, instance_seed(SEED, i))
        result = run_admm(build(w, inst)[0], solver_params())
        if result.record.status == "converged":
            break
    else:
        raise CheckFailed(f"{w.name}: no converged instance to check")
    ok, residual = kkt_check(w, inst, result.x)
    check(ok and residual <= EPSILON,
          f"{w.name}: converged solution rejected (residual {residual:.3e})")
    x = result.x.copy()
    x[int(abs(x).argmax())] += 1e-3
    ok, residual = kkt_check(w, inst, x)
    check(not ok and residual > EPSILON,
          f"{w.name}: perturbed solution accepted (residual {residual:.3e})")


def check_failures_rank_infinite():
    from measure import Solve, end_to_end

    rows = [Solve(i, i, 1e-4, 0.01 * (i + 1), "converged", True)
            for i in range(89)]
    rows += [Solve(i, i, 1e-4, 0.001, "LineSearchFailure", False)
             for i in range(89, 100)]
    e2e = end_to_end(rows, normalize=False)
    check(e2e["solve_s_p90"]["value"] == math.inf,
          "eleven failures in 100 solves must put the p90 at infinity")
    check(e2e["solve_s_p50"]["value"] == 0.5, "p50 must be the 50th solve")
    check(e2e["solved_frac"]["value"] == 0.89, "solved_frac must be 89/100")


def check_repeats_count_once():
    from measure import Solve, end_to_end, result

    rows = [Solve(i, i, 1e-4, 0.1, "converged", True) for i in range(3)]
    rows += [Solve(0, 0, 1e-4, 0.3, "converged", True),
             Solve(1, 1, 1e-4, 0.1, "LineSearchFailure", False)]
    e2e = end_to_end(rows, normalize=False)
    counted = result(rows, e2e, True)
    check((counted["attempted"], counted["failed"]) == (3, 1),
          "three instances, one with a failed solve: attempted 3, failed 1")
    check(e2e["solve_s_p50"]["value"] == 0.2,
          "a repeated instance counts with the median of its solve times")
    check(abs(e2e["solves_per_s"]["value"] - 2 / 0.4) < 1e-12,
          "solves_per_s counts each instance's median time once")


def main() -> int:
    run.prepare()
    from workloads import WORKLOADS

    checks = [("failures rank infinite", check_failures_rank_infinite),
              ("repeated instances count once", check_repeats_count_once)]
    for w in WORKLOADS.values():
        checks += [
            (f"{w.name}: traced counts repeat",
             lambda w=w: check_trace_determinism(w)),
            (f"{w.name}: tracing does not perturb the iterates",
             lambda w=w: check_trace_does_not_perturb(w)),
            (f"{w.name}: KKT check rejects a perturbed solution",
             lambda w=w: check_kkt_rejects_perturbation(w)),
        ]
    for name, fn in checks:
        try:
            fn()
        except CheckFailed as exc:
            print(f"FAIL {name}: {exc}")
            return 1
        print(f"ok   {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
