"""Benchmark command line: ``run`` configs, ``summarize`` results, ``gen``
synthetic dataset files.

Config files are INI with [problem], [solver] and [run] sections mapping
1:1 onto RunConfig, each value read as written, ``%`` included;
command-line flags override file values, ``--seed`` the [problem] seed.
An absent problem key takes the library's default, and ``gen`` reads its
flags as ``run`` reads the same problem keys.  The default output
directory comes from $IRSPLIT_OUT_DIR, falling back to the current
directory.

Every command exits 2, with ``irsplit-bench: <message>`` on stderr, on an
input it refuses: a config or results file it cannot read, a section or
key that nothing reads ([DEFAULT] included), a value of the wrong type or
out of its key's range, two configs or records of one problem and solver,
a results file of another schema version or with a malformed record or
config list, or an output path it cannot write.  ``run`` checks every
config before its first solve and ``gen`` its flags before it writes, so
only an output path is refused after work is done.
Otherwise ``run`` exits 0 when every run converged, else 1.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys

from . import bench, problems
from .records import CONVERGED


def _coerce(value: str):
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    if value.lower() in ("true", "false"):
        return value.lower() == "true"
    return value


# a name or a path is read as written, also when it looks like a number
_TEXT_KEYS = {"name", "a", "b", "path"}
_SECTIONS = ("problem", "solver", "run")


def _load_config(path) -> bench.RunConfig:
    parser = configparser.ConfigParser(default_section="", interpolation=None)
    if not parser.read(path):
        raise FileNotFoundError(f"cannot read config {path}")
    unread = [f"[{name}]" for name in parser.sections()
              if name not in _SECTIONS]
    if unread:
        raise ValueError(f"nothing reads section {', '.join(unread)}")
    problem, solver_items, run_items = (
        {k: v if k in _TEXT_KEYS else _coerce(v)
         for k, v in parser.items(name)}
        if parser.has_section(name) else {}
        for name in _SECTIONS)
    unread = run_items.keys() - {"repetitions", "name"}
    if unread:
        raise ValueError(f"[run] reads no key {', '.join(sorted(unread))}")
    return bench.RunConfig(problem, solver_items.pop("name", "admm_inertial"),
                           solver_items, **run_items)


_OVERRIDE_FLAGS = ("alpha", "beta", "rho_bar", "sigma", "c", "epsilon")


def _apply_overrides(cfg: bench.RunConfig, args) -> bench.RunConfig:
    for key in _OVERRIDE_FLAGS:
        value = getattr(args, key)
        if value is not None:
            cfg.options[key] = value
    if args.solver is not None:
        cfg.solver = args.solver
    if args.seed is not None:
        cfg.problem["seed"] = args.seed
    if args.repetitions is not None:
        cfg.repetitions = args.repetitions
    return cfg


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
    bench._check_pairs((cfg.validate()[2], cfg.solver) for cfg in configs)
    results = [bench.run_one(cfg) for cfg in configs]
    summary = bench.summarize(results)
    out_dir = args.out or os.environ.get("IRSPLIT_OUT_DIR", ".")
    csv_path, json_path = bench.emit(results, summary, out_dir)
    _print_summary(summary)
    print(f"wrote {csv_path} and {json_path}")
    return 0 if all(r.record.status == CONVERGED for r in results) else 1


def _cmd_summarize(args) -> int:
    payload = bench.read_json(args.results)
    results = [bench._result(row, config) for row, config
               in zip(payload["records"], payload["configs"])]
    summary = bench.summarize(results)
    _print_summary(summary)
    if args.out:
        bench.emit(results, summary, args.out)
    return 0


def _cmd_gen(args) -> int:
    kind = f"synthetic_{args.family}"
    _, needed, named = bench._PROBLEMS[kind]
    spec = {key: getattr(args, key) for key in {**needed, **named}
            if getattr(args, key) is not None}
    prob = bench._problem_builder({"kind": kind, **spec})()
    out_dir = args.out or os.environ.get("IRSPLIT_OUT_DIR", ".")
    os.makedirs(out_dir, exist_ok=True)
    if args.family == "lasso":
        paths = [os.path.join(out_dir, f"{args.prefix}_{part}.csv")
                 for part in ("A", "b")]
        problems.save_dense_csv(prob, *paths)
    else:
        paths = [os.path.join(out_dir, f"{args.prefix}.libsvm")]
        problems.save_libsvm(prob, *paths)
    print(f"wrote {' and '.join(paths)} (nu = {prob.nu:.6g})")
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
    runp.set_defaults(func=_cmd_run)

    summ = sub.add_parser("summarize", help="recompute tables from a JSON file")
    summ.add_argument("results")
    summ.add_argument("--out", default=None)
    summ.set_defaults(func=_cmd_summarize)

    gen = sub.add_parser("gen", help="emit synthetic dataset files")
    gensub = gen.add_subparsers(dest="family", required=True)
    for family in ("lasso", "logistic"):
        # the synthetic kind's keys as flags; an absent one keeps the
        # generator's default
        _, needed, named = bench._PROBLEMS[f"synthetic_{family}"]
        famp = gensub.add_parser(family)
        for key, spec in {**needed, **named}.items():
            famp.add_argument(f"--{key.replace('_', '-')}", dest=key,
                              type=spec.type, required=key in needed)
        famp.add_argument("--prefix", default=family)
        famp.add_argument("--out", default=None)
        famp.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, configparser.Error) as exc:
        print(f"irsplit-bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
