"""irsplit benchmark: closed-loop ``run_admm`` solves on named workloads.

Run from the repository root:

    python3 benchmark/run.py --workload lasso_paper --seed 0 --seconds 30 --trace 0
    python3 benchmark/run.py --seed 0          # every workload, one process each

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` solves a
fixed number of instances untraced and traced and reports the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Full reports
(environment, every solve, failure rows) and the traced run's spans are
written under ``benchmark/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCES = os.path.join(os.path.dirname(HERE), "src")
OUT_DIR = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("lasso_paper", "lasso_sparse", "logistic")


def prepare():
    """Pin BLAS to one thread unless the caller chose, and import the
    program from this checkout's ``src`` and nowhere else."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if not os.path.isfile(os.path.join(SOURCES, "irsplit", "__init__.py")):
        raise SystemExit(f"benchmark: program sources not found under {SOURCES}")
    sys.path.insert(0, SOURCES)
    import irsplit

    if os.path.dirname(os.path.dirname(os.path.abspath(irsplit.__file__))) \
            != SOURCES:
        raise SystemExit(f"benchmark: irsplit imported from {irsplit.__file__}")


def _fmt(value: float) -> str:
    return f"{value:.6g}" if math.isfinite(value) else str(value)


def _print_report(report: dict):
    from workloads import WORKLOADS

    w = WORKLOADS[report["workload"]]
    print("environment: " + json.dumps(report["environment"]))
    mode = "traced" if report["trace"] else "timed"
    print(f"workload {w.name} ({w.kind} {w.rows}x{w.cols}, density "
          f"{w.density}), seed {report['seed']}, {mode}, closed loop, "
          f"1 client, {len(report['rows'])} solves of "
          f"{report['result']['attempted']} instances")
    print(f"  why: {w.why}")
    failures = [r for r in report["rows"] if not r["solved"]]
    print(f"failure rows: {len(failures)}")
    for r in failures:
        where = f" in {r['layer']} ({r['where']})" if r["layer"] else ""
        print(f"  instance {r['index']} instance_seed {r['seed']}: "
              f"{r['status']}{where} after {r['solve_s']:.4f} s")
    for u, t in report.get("mismatches", []):
        print(f"  MISMATCH solve {u['index']}: untraced {u['status']} "
              f"{u['outer']}/{u['inner']}, traced {t['status']} "
              f"{t['outer']}/{t['inner']}")
    wall = report["e2e_wall"]
    header = f"  {'end-to-end':<14} {'ref. speed':>12} {'wall':>12}"
    left = [f"  {name:<14} {_fmt(m['value']):>12} "
            f"{_fmt(wall[name]['value']):>12} {m['unit']}"
            for name, m in report["e2e"].items()]
    if not report["trace"]:
        print("\n".join([header] + left))
        return
    layers = report["result"]["metrics"]
    shares = [f"{k[len('share.'):]:<31} {m['value']:7.1%}"
              for k, m in layers.items() if k.startswith("share.")]
    others = [(k, m) for k, m in layers.items() if not k.startswith("share.")]
    print(f"{header + ' (untraced)':<52} | layer self-time share, traced")
    for i in range(max(len(left), len(shares))):
        lhs = left[i] if i < len(left) else ""
        rhs = shares[i] if i < len(shares) else ""
        print(f"{lhs:<52} | {rhs}")
    print("per-layer (per solve, averaged over the traced solves):")
    for name, m in others:
        print(f"  {name:<34} {_fmt(m['value']):>12} {m['unit']}")


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    prepare()
    from measure import measure
    from workloads import WORKLOADS

    report = measure(WORKLOADS[name], seed, seconds, trace)
    tracer = report.pop("tracer", None)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{name}-trace{int(trace)}")
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    if tracer is not None:
        tracer.write_jsonl(os.path.join(OUT_DIR, f"{name}.spans.jsonl"))
    _print_report(report)
    print(json.dumps(report["result"]))


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    results, code = {}, 0
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False)
        print(child.stdout, end="")
        if child.returncode != 0:
            code = child.returncode
            continue
        results[name] = json.loads(child.stdout.strip().splitlines()[-1])
    if not trace and results:
        metrics = next(iter(results.values()))["metrics"]
        print("summary: " + " ".join(f"{n:>14}" for n in results)
              + "  unit")
        for metric in metrics:
            cells = [_fmt(r["metrics"][metric]["value"])
                     for r in results.values()]
            print(f"  {metric:<14} " + " ".join(f"{c:>14}" for c in cells)
                  + f"  {metrics[metric]['unit']}")
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
