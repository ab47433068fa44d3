"""Benchmark command line: ``run`` configs, ``summarize`` results, ``gen``
synthetic dataset files.

Config files are INI with [problem], [solver] and [run] sections mapping
1:1 onto RunConfig; command-line flags override file values.  The default
output directory comes from $IRSPLIT_OUT_DIR, falling back to the current
directory.  ``run`` exits 0 only when every run converged.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys

from . import bench, problems
from .records import CONVERGED, RunRecord


def _coerce(value: str):
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    if value.lower() in ("true", "false"):
        return value.lower() == "true"
    return value


def _load_config(path) -> bench.RunConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(path)
    problem = {k: _coerce(v) for k, v in parser.items("problem")} \
        if parser.has_section("problem") else {}
    solver_items = {k: _coerce(v) for k, v in parser.items("solver")} \
        if parser.has_section("solver") else {}
    run_items = {k: _coerce(v) for k, v in parser.items("run")} \
        if parser.has_section("run") else {}
    solver = solver_items.pop("name", "admm_inertial")
    return bench.RunConfig(
        problem=problem,
        solver=solver,
        options=solver_items,
        seed=run_items.get("seed"),
        repetitions=int(run_items.get("repetitions", 1)),
        name=run_items.get("name"),
    )


_OVERRIDE_FLAGS = ("alpha", "beta", "rho_bar", "sigma", "c", "epsilon")


def _apply_overrides(cfg: bench.RunConfig, args) -> bench.RunConfig:
    for key in _OVERRIDE_FLAGS:
        value = getattr(args, key)
        if value is not None:
            cfg.options[key] = value
    if args.solver is not None:
        cfg.solver = args.solver
    if args.seed is not None:
        cfg.seed = args.seed
    if args.repetitions is not None:
        cfg.repetitions = args.repetitions
    return cfg


def _default_out(args) -> str:
    if args.out:
        return args.out
    return os.environ.get("IRSPLIT_OUT_DIR", ".")


def _print_summary(summary: dict) -> None:
    header = f"{'problem':<28} {'solver':<14} {'outer':>8} {'inner':>9} " \
             f"{'seconds':>10} {'kkt':>10} {'status':>16}"
    print(header)
    print("-" * len(header))
    for row in summary["rows"]:
        print(f"{row['problem']:<28} {row['solver']:<14} {row['outer']:>8} "
              f"{row['inner']:>9} {row['seconds']:>10.3f} {row['kkt']:>10.2e} "
              f"{row['status']:>16}")
    print("-" * len(header))
    for solver, gm in summary["geometric_mean"].items():
        print(f"{'geometric mean':<28} {solver:<14} {gm['outer']:>8.2f} "
              f"{gm['inner']:>9.2f} {gm['seconds']:>10.3f}")
    ratio = summary.get("ratio")
    if ratio:
        den, num = ratio["pair"]
        gm = ratio["geometric_mean"]
        print(f"ratio {num} / {den}: outer {gm['outer']:.3f}  "
              f"inner {gm['inner']:.3f}  seconds {gm['seconds']:.3f}")


def _cmd_run(args) -> int:
    configs = [_apply_overrides(_load_config(path), args)
               for path in args.config]
    results = bench.run_benchmark(configs)
    summary = bench.summarize(results)
    out_dir = _default_out(args)
    csv_path, json_path = bench.emit(results, summary, out_dir,
                                     basename=args.basename)
    _print_summary(summary)
    print(f"wrote {csv_path} and {json_path}")
    return 0 if all(r.record.status == CONVERGED for r in results) else 1


def _cmd_summarize(args) -> int:
    payload = bench.read_json(args.results)
    rows = payload["records"]
    results = []
    for row, config in zip(rows, payload.get("configs", [{}] * len(rows))):
        record = RunRecord(row["outer"], row["inner"], row["seconds"],
                           row["kkt"], row["objective"], row["status"])
        results.append(bench.BenchResult(row["problem"], row["solver"],
                                         record, config))
    summary = bench.summarize(results)
    _print_summary(summary)
    if args.out:
        bench.emit(results, summary, args.out, basename=args.basename)
    return 0


def _cmd_gen(args) -> int:
    out_dir = _default_out(args)
    os.makedirs(out_dir, exist_ok=True)
    if args.family == "lasso":
        prob = problems.synthetic_lasso(args.m, args.n, density=args.density,
                                        noise=args.noise,
                                        nu_fraction=args.nu_fraction,
                                        seed=args.seed)
        path_a = os.path.join(out_dir, f"{args.prefix}_A.csv")
        path_b = os.path.join(out_dir, f"{args.prefix}_b.csv")
        problems.save_dense_csv(prob, path_a, path_b)
        print(f"wrote {path_a} and {path_b} (nu = {prob.nu:.6g})")
    else:
        prob = problems.synthetic_logistic(args.q, args.n,
                                           nu_fraction=args.nu_fraction,
                                           seed=args.seed)
        path = os.path.join(out_dir, f"{args.prefix}.libsvm")
        problems.save_libsvm(prob, path)
        print(f"wrote {path} (nu = {prob.nu:.6g})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irsplit-bench",
        description="benchmark harness for the inertial-relaxed splitting stack")
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="execute one or more run configs")
    runp.add_argument("-c", "--config", action="append", required=True,
                      help="INI run config; repeatable")
    runp.add_argument("--solver", choices=bench.SOLVERS)
    for flag in _OVERRIDE_FLAGS:
        runp.add_argument(f"--{flag.replace('_', '-')}", dest=flag,
                          type=float, default=None)
    runp.add_argument("--seed", type=int)
    runp.add_argument("--repetitions", type=int)
    runp.add_argument("--out", default=None)
    runp.add_argument("--basename", default="bench")
    runp.set_defaults(func=_cmd_run)

    summ = sub.add_parser("summarize", help="recompute tables from a JSON file")
    summ.add_argument("results")
    summ.add_argument("--out", default=None)
    summ.add_argument("--basename", default="bench")
    summ.set_defaults(func=_cmd_summarize)

    gen = sub.add_parser("gen", help="emit synthetic dataset files")
    gensub = gen.add_subparsers(dest="family", required=True)
    lasso = gensub.add_parser("lasso")
    lasso.add_argument("--m", type=int, required=True)
    lasso.add_argument("--n", type=int, required=True)
    lasso.add_argument("--density", type=float, default=1.0)
    lasso.add_argument("--noise", type=float, default=0.01)
    lasso.add_argument("--nu-fraction", dest="nu_fraction", type=float,
                       default=0.1)
    lasso.add_argument("--seed", type=int, default=0)
    lasso.add_argument("--prefix", default="lasso")
    lasso.add_argument("--out", default=None)
    lasso.set_defaults(func=_cmd_gen)
    logistic = gensub.add_parser("logistic")
    logistic.add_argument("--q", type=int, required=True)
    logistic.add_argument("--n", type=int, required=True)
    logistic.add_argument("--nu-fraction", dest="nu_fraction", type=float,
                          default=0.1)
    logistic.add_argument("--seed", type=int, default=0)
    logistic.add_argument("--prefix", default="logistic")
    logistic.add_argument("--out", default=None)
    logistic.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
