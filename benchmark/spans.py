"""Outside-in tracing of the program's layers, and the per-layer metrics.

Spans are taken from the benchmark's side of each layer boundary: the
``run_admm`` call; the ``AdmmProblem`` fields ``fproc.open_session``, the
returned session's ``next``, ``prox_g.solve``, ``kkt_residual`` and
``objective``; and the instance-level ``DesignMatrix.apply`` /
``apply_transpose`` and ``LogisticProblem.value_gradient``.  Nothing in
the program is edited.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

RUN = "run_admm"
OPEN = "fproc.open_session"
NEXT = "session.next"
PROX = "prox_g.solve"
KKT = "kkt_residual"
OBJ = "objective"
APPLY = "DesignMatrix.apply"
APPLY_T = "DesignMatrix.apply_transpose"
VG = "LogisticProblem.value_gradient"
SPAN_NAMES = (RUN, OPEN, NEXT, PROX, KKT, OBJ, APPLY, APPLY_T, VG)

# program function name -> the span taken around it; used to name the
# layer an exception escaped from, traced or not
BOUNDARY_OF = {"run_admm": RUN, "open_session": OPEN, "next": NEXT,
               "solve": PROX, "kkt_dist_inf": KKT, "objective": OBJ,
               "apply": APPLY, "apply_transpose": APPLY_T,
               "value_gradient": VG}

# callers by which products and value-gradient calls are split
CALLER = {OPEN: "session_open", NEXT: "step", KKT: "kkt", OBJ: "objective"}
CALLERS = ("setup", "session_open", "step", "kkt", "objective")


class Tracer:
    """Records ``(name, start, end, parent, solve)`` per wrapped call."""

    def __init__(self):
        self.spans: list = []
        self.solve = -1
        self._stack: list = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # placeholder keeps ids in start order
            stack.append(idx)
            start = clock()
            try:
                return fn(*args)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.solve)

        return traced

    def instrument_design(self, design):
        design.apply = self.wrap(APPLY, design.apply)
        design.apply_transpose = self.wrap(APPLY_T, design.apply_transpose)

    def instrument_logistic(self, prob):
        prob.value_gradient = self.wrap(VG, prob.value_gradient)

    def instrument_admm_problem(self, problem):
        fproc = problem.fproc
        traced_open = self.wrap(OPEN, fproc.open_session)

        def open_session(*args):
            session = traced_open(*args)
            session.next = self.wrap(NEXT, session.next)
            return session

        fproc.open_session = open_session
        problem.prox_g.solve = self.wrap(PROX, problem.prox_g.solve)
        problem.kkt_residual = self.wrap(KKT, problem.kkt_residual)
        if problem.objective is not None:
            problem.objective = self.wrap(OBJ, problem.objective)

    def write_jsonl(self, path):
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for idx, (name, start, end, parent, solve) in enumerate(self.spans):
                handle.write(json.dumps(
                    {"id": idx, "name": name, "start": start - origin,
                     "end": end - origin, "parent": parent, "solve": solve})
                    + "\n")


def _caller(spans, parent: int) -> str:
    while parent >= 0:
        name = spans[parent][0]
        if name in CALLER:
            return CALLER[name]
        parent = spans[parent][3]
    return "setup"


def layer_metrics(spans, solves: int, nnz: dict, failed: int,
                  overhead_frac: float) -> dict:
    """Per-solve averages over ``solves`` traced solves.

    ``nnz`` maps solve id to the design matrix's stored entries, for the
    computed flop count (2 nnz per product).  ``share.*`` is each span
    name's self time over the total ``run_admm`` time.
    """
    count = Counter()
    incl = defaultdict(float)
    self_time = defaultdict(float)
    by_caller = Counter()
    flops = 0.0
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    in_solve = [False] * len(spans)
    for idx, (name, start, end, parent, solve) in enumerate(spans):
        in_solve[idx] = name == RUN or (parent >= 0 and in_solve[parent])
        dur = end - start
        count[name] += 1
        incl[name] += dur
        if in_solve[idx]:
            self_time[name] += dur - child[idx]
        if name in (APPLY, APPLY_T, VG):
            by_caller[name, _caller(spans, parent)] += 1
        if name in (APPLY, APPLY_T):
            flops += 2.0 * nnz[solve]
    products = count[APPLY] + count[APPLY_T]
    steps = count[NEXT]
    per = 1.0 / solves
    m = {
        "admm.self_s": (self_time[RUN] * per, "s"),
        "admm.outer_iters": (count[OPEN] * per, "count"),
        "admm.inner_trials": (steps * per, "count"),
        "admm.accept_ratio": (count[OPEN] / steps if steps else 0.0, "ratio"),
        "admm.failed_solves": (failed, "count"),
        "subsolvers.sessions": (count[OPEN] * per, "count"),
        "subsolvers.open_s": (incl[OPEN] * per, "s"),
        "subsolvers.step_s": (incl[NEXT] * per, "s"),
        "subsolvers.vg_per_step": (
            by_caller[VG, "step"] / steps if steps else 0.0, "ratio"),
        "problems.products": (products * per, "count"),
    }
    for caller in CALLERS:
        m[f"problems.products.{caller}"] = (
            (by_caller[APPLY, caller] + by_caller[APPLY_T, caller]) * per,
            "count")
    m["problems.product_s"] = ((incl[APPLY] + incl[APPLY_T]) * per, "s")
    m["problems.product_flops"] = (flops * per, "flop")
    m["problems.value_gradient"] = (count[VG] * per, "count")
    for caller in CALLERS[1:]:
        m[f"problems.value_gradient.{caller}"] = (
            by_caller[VG, caller] * per, "count")
    m["problems.vg_s"] = (incl[VG] * per, "s")
    m["problems.kkt_evals"] = (count[KKT] * per, "count")
    m["problems.kkt_s"] = (incl[KKT] * per, "s")
    m["problems.prox_calls"] = (count[PROX] * per, "count")
    m["problems.prox_s"] = (incl[PROX] * per, "s")
    m["trace.overhead_frac"] = (overhead_frac, "ratio")
    total = incl[RUN]
    for name in SPAN_NAMES:
        m[f"share.{name}"] = (self_time[name] / total if total else 0.0,
                              "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
