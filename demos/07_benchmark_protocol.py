"""The benchmark protocol: seeded paired runs, geometric means, ratios.

Runs the inertial-relaxed ADMM, its plain configuration and the
proximal-gradient baseline over a few seeded instances and prints the
summary table the CSV/JSON emitters write.  The command-line equivalent:

    irsplit-bench run -c config.ini --out results/
    irsplit-bench summarize results/bench.json
    irsplit-bench gen lasso --m 100 --n 300 --out data/
"""

import tempfile

import irsplit.bench as bench
from irsplit.cli import _print_summary

configs = []
for seed in (0, 1, 2, 3):
    for solver in ("admm_plain", "admm_inertial"):
        configs.append(bench.RunConfig(
            problem={"kind": "synthetic_lasso", "m": 60, "n": 150,
                     "seed": seed},
            solver=solver,
            options={"sigma": 0.99, "c": 1.0, "epsilon": 1e-6},
            name=f"lasso60x150_s{seed}"))

results = [bench.run_one(cfg) for cfg in configs]
summary = bench.summarize(results)  # ratio: admm_inertial / admm_plain
_print_summary(summary)

with tempfile.TemporaryDirectory() as out:
    csv_path, json_path = bench.emit(results, summary, out)
    payload = bench.read_json(json_path)
    print(f"\nemitted {len(payload['records'])} records; "
          f"round-trip matches: {payload['records'] == [r.row() for r in results]}")
