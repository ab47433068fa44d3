"""The in-place n-vector kernels against the expression forms they replace,
the rule that a run writes only into arrays it has just allocated, and the
compiled sparse products against scipy's own ``A @ x``."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import irsplit as ir
from irsplit.admm import (ADMMParams, Criterion, _acceptance_vector,
                          _multiplier, _p_update, p_update, run_admm)
from irsplit.hpp import _extrapolate, rho_bar_of_beta
from irsplit.problems import DesignMatrix, L1ShiftedProx
from irsplit.subsolvers import CGSession, QuadraticFProcedure, _shrink

# ---------------------------------------------------------------------------
# elementwise kernels, bit for bit against their expression forms
# ---------------------------------------------------------------------------

SPECIALS = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
            2.2250738585072014e-308, -1e-310, 1.7976931348623157e308)
# moderate values too, where reordered roundings would show
values = st.one_of(st.sampled_from(SPECIALS), st.floats(-4.0, 4.0),
                   st.floats())
scalars = st.one_of(st.sampled_from(SPECIALS[:2] + SPECIALS[5:]),
                    st.floats(-4.0, 4.0),
                    st.floats(allow_nan=False, allow_infinity=False))


def vectors(n):
    return st.lists(values, min_size=n, max_size=n).map(np.array)


def same_bits(got, want):
    """Equal values and dtype, NaN matching NaN, and the same sign on every
    entry that is not NaN (a NaN's sign follows operand order in hardware,
    so commuted forms may differ there)."""
    if got.dtype != want.dtype or got.shape != want.shape:
        return False
    real = ~np.isnan(want)
    return (np.array_equal(got, want, equal_nan=True)
            and np.array_equal(np.signbit(got[real]), np.signbit(want[real])))


def prox_expression_form(nu, skip_first, p, x, c):
    t = x + p / c
    z = t - np.minimum(np.maximum(t, -(nu / c)), nu / c)
    if skip_first:
        z[0] = t[0]
    return z


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(1, 8), a=scalars, c=scalars,
       theta=scalars, rho=scalars)
def test_kernels_match_expression_forms(data, n, a, c, theta, rho):
    """Each kernel gives the bits of the formula it states, written as one
    expression, on vectors with signed zeros, infs, NaNs and subnormals,
    and leaves its inputs as they were."""
    v = [data.draw(vectors(n)) for _ in range(5)]
    before = [w.copy() for w in v]
    rw = rho * theta
    kappa = abs(a)
    with np.errstate(all="ignore"):
        cases = [
            (_extrapolate(v[0], v[1], a), v[0] + a * (v[0] - v[1])),
            (_multiplier(v[0], v[1], v[2], v[3], c),
             v[0] + c * (v[1] - v[2]) - v[3]),
            (_acceptance_vector(v[0], v[1], v[2], v[3], c),
             v[0] - v[1] - c * (v[2] - v[3])),
            (_p_update(v[0], v[1], v[2], v[3], rw, c),
             v[0] + c * ((1.0 - rw) * v[2] + rw * v[3] - v[1])),
            (p_update(v[0], v[1], v[2], v[3], theta, rho, c),
             v[0] + c * ((1.0 - rw) * v[2] + rw * v[3] - v[1])),
            (_shrink(v[4], kappa),
             v[4] - np.minimum(np.maximum(v[4], -kappa), kappa)),
        ]
        for skip in (False, True) if c != 0.0 else ():
            prox = L1ShiftedProx(kappa, skip_first=skip)
            cases.append((prox.solve(v[0], v[1], c),
                          prox_expression_form(kappa, skip, v[0], v[1], c)))
    for got, want in cases:
        assert same_bits(got, want)
    for w, w0 in zip(v, before):
        assert same_bits(w, w0)


# ---------------------------------------------------------------------------
# the CG path, against a procedure written in the expression forms
# ---------------------------------------------------------------------------

class ExpressionFormCG:
    """CG as one expression per update, as ``CGSession`` stated it."""

    def __init__(self, apply, rhs, x0, h_x0):
        self.apply, self.rhs, self.x = apply, rhs, x0.copy()
        self.y = (apply(self.x) if h_x0 is None else h_x0) - rhs
        self.d = -self.y
        self.rs = float(self.y @ self.y)

    def next(self):
        if self.rs != 0.0:
            h_d = self.apply(self.d)
            step = self.rs / float(self.d @ h_d)
            self.x = self.x + step * self.d
            self.y = self.y + step * h_d
            rs_new = float(self.y @ self.y)
            self.d = (rs_new / self.rs) * self.d - self.y
            self.rs = rs_new
        return self.x, self.y


class ExpressionFormQuadratic:
    """``QuadraticFProcedure`` with its session start, Gram store and
    operator written as single expressions."""

    accepts_anchor = True

    def __init__(self, design, b):
        self.design = design
        self.at_b = design.apply_transpose(b)
        self.reset()

    def reset(self):
        self.session, self.c, self.grams = None, 0.0, []

    def gram_of(self, point):
        for known, gram in self.grams:
            if known is point:
                return gram
        if self.session is None or self.session.x is not point:
            return None
        gram = (self.session.rhs + self.session.y) - self.c * point
        self.grams = self.grams[-1:] + [(point, gram)]
        return gram

    def open_session(self, p, z, c, x_bar, anchor=None):
        design = self.design
        rhs = self.at_b - p + c * z
        h = None
        if anchor is not None:
            x, x_prev, alpha = anchor
            g_x = self.gram_of(x)
            g_prev = None if g_x is None else self.gram_of(x_prev)
            if g_prev is not None:
                h = g_x + alpha * (g_x - g_prev) + c * x_bar

        def gram(u):
            return design.apply_transpose(design.apply(u)) + c * u

        self.session, self.c = ExpressionFormCG(gram, rhs, x_bar, h), c
        return self.session


def published_params(criterion):
    rho = rho_bar_of_beta(0.18976)
    core = ir.InertiaRelaxParams(0.18966, 0.18976, 0.99, rho, rho)
    return ADMMParams(c=1.0, core=core, criterion=criterion, epsilon=1e-6)


@pytest.mark.parametrize("density", [1.0, 0.1])
@pytest.mark.parametrize("criterion", list(Criterion))
def test_quadratic_procedure_matches_expression_forms(density, criterion):
    """A LASSO run through ``QuadraticFProcedure`` ends with the bits, the
    counts and the anchored session starts of one through the expression-
    form procedure, dense and sparse."""
    prob = ir.synthetic_lasso(40, 120, density=density, seed=11)
    params = published_params(criterion)
    got = run_admm(ir.lasso_admm_problem(prob, 1.0), params)
    ref = ir.AdmmProblem(ExpressionFormQuadratic(prob.A, prob.b),
                         L1ShiftedProx(prob.nu), prob.kkt_dist_inf,
                         prob.objective, prob.n)
    want = run_admm(ref, params)
    assert got.status == want.status == "converged"
    assert (got.outer_iters, got.inner_iters_total) == \
        (want.outer_iters, want.inner_iters_total)
    assert got.outer_iters > 20
    for a, b in ((got.triple.x, want.triple.x), (got.triple.z, want.triple.z),
                 (got.triple.p, want.triple.p)):
        assert a.tobytes() == b.tobytes()
    assert got.record.final_kkt == want.record.final_kkt


def test_cg_session_emits_fresh_arrays():
    """Every step's x and y are new arrays that no later step writes into
    or shares memory with."""
    rng = np.random.default_rng(2)
    q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
    h = (q * np.linspace(1.0, 30.0, 12)) @ q.T
    session = CGSession(lambda u: h @ u, rng.standard_normal(12), np.zeros(12))
    emitted = []
    for _ in range(12):
        x, y = session.next()
        emitted.append((x, x.copy(), y, y.copy()))
    arrays = [a for x, _, y, _ in emitted for a in (x, y)]
    for x, x0, y, y0 in emitted:
        assert x.tobytes() == x0.tobytes() and y.tobytes() == y0.tobytes()
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])


def test_cg_session_rejects_an_operator_reusing_its_output():
    """An operator that returns its argument, or one buffer on every call,
    would corrupt the direction and the emitted certificates; the session
    raises instead."""
    h = np.diag([1.0, 2.0, 4.0])
    rhs = np.array([1.0, -1.0, 0.5])
    with pytest.raises(ValueError, match="new array"):
        CGSession(lambda u: u, rhs, np.zeros(3)).next()
    buffer = np.empty(3)
    session = CGSession(lambda u: np.dot(h, u, out=buffer), rhs, np.zeros(3))
    session.next()
    with pytest.raises(ValueError, match="new array"):
        session.next()


# ---------------------------------------------------------------------------
# a run writes only into arrays it has just allocated
# ---------------------------------------------------------------------------

class Recorder:
    """Keeps every array crossing the run's boundaries with a copy of its
    bits at that moment."""

    def __init__(self):
        self.seen = []

    def __call__(self, *arrays):
        for a in arrays:
            if isinstance(a, np.ndarray):
                self.seen.append((a, a.copy()))
        return arrays[0] if len(arrays) == 1 else arrays

    def check(self):
        for a, bits in self.seen:
            assert a.tobytes() == bits.tobytes(), "an array was changed"
        distinct = list({id(a): a for a, _ in self.seen}.values())
        for i, a in enumerate(distinct):
            for b in distinct[i + 1:]:
                assert not np.shares_memory(a, b), "two arrays share memory"


def record_run(problem, params, init):
    """Run with every session argument, emitted pair, prox argument and
    result, and every Gram product the procedure stores, recorded."""
    rec = Recorder()
    fproc, prox = problem.fproc, problem.prox_g
    open_session, solve = fproc.open_session, prox.solve

    def recorded_open(p, z, c, x_bar, *anchor):
        rec(p, z, x_bar, *(anchor[0][:2] if anchor else ()))
        session = open_session(p, z, c, x_bar, *anchor)
        step = session.next
        session.next = lambda: rec(*step())
        return session

    fproc.open_session = recorded_open
    prox.solve = lambda p, x, c: rec(solve(rec(p), x, c))
    if isinstance(fproc, QuadraticFProcedure):
        stored = fproc._gram

        def recorded_gram(point):
            gram = stored(point)
            return gram if gram is None else rec(gram)

        fproc._gram = recorded_gram
    rec(init.x, init.z, init.p)
    res = run_admm(problem, params, init)
    rec(res.x, res.triple.x, res.triple.z, res.triple.p)
    return res, rec


@pytest.mark.parametrize("kind", ["lasso", "lasso_sparse", "logistic"])
def test_run_never_changes_or_aliases_emitted_arrays(kind):
    """No array a run hands out or receives (session arguments and emitted
    pairs, prox arguments and results, stored Gram products, the starting
    triple and the result) is changed afterwards, and no two of them share
    memory unless they are one array."""
    if kind == "logistic":
        prob = ir.synthetic_logistic(40, 9, seed=4)
        problem = ir.logistic_admm_problem(prob, 1.0)
    else:
        prob = ir.synthetic_lasso(30, 80, density=0.2 if kind ==
                                  "lasso_sparse" else 1.0, seed=5)
        problem = ir.lasso_admm_problem(prob, 1.0)
    rng = np.random.default_rng(6)
    init = ir.PrimalDualTriple(*(0.1 * rng.standard_normal(prob.n)
                                 for _ in range(3)))
    res, rec = record_run(problem, published_params(Criterion.MAX_FORM), init)
    assert res.status == "converged" and res.outer_iters > 10
    assert len(rec.seen) >= 7 * res.outer_iters
    rec.check()


# ---------------------------------------------------------------------------
# compiled sparse products
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None, derandomize=True)
@given(m=st.integers(1, 12), n=st.integers(1, 12),
       density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
       duplicates=st.booleans())
def test_compiled_products_equal_scipy(m, n, density, seed, duplicates):
    """``apply`` and ``apply_transpose`` of a sparse design equal scipy's
    ``A @ x`` and ``A.T @ u`` bit for bit and in dtype, on contiguous,
    strided, reversed, float32, integer and list inputs, for matrices
    with empty rows and duplicate entries; a wrong length raises
    ``ValueError``."""
    rng = np.random.default_rng(seed)
    mat = sp.random(m, n, density=density, format="csr", random_state=rng,
                    data_rvs=rng.standard_normal)
    if duplicates:  # every entry twice, the copy scaled by -1/2
        rows = np.repeat(np.arange(m), np.diff(mat.indptr))
        order = np.argsort(np.concatenate([rows, rows]), kind="stable")
        mat = sp.csr_matrix(
            (np.concatenate([mat.data, -0.5 * mat.data])[order],
             np.concatenate([mat.indices, mat.indices])[order],
             2 * mat.indptr), shape=(m, n))
        assert mat.nnz == 0 or not mat.has_canonical_format
    design = DesignMatrix(mat)
    for size, product, reference in (
            (n, design.apply, mat.__matmul__),
            (m, design.apply_transpose, mat.T.__matmul__)):
        wide = rng.standard_normal(3 * size)
        inputs = [wide[:size], wide[::3], wide[::-1][:size],
                  wide[:size].astype(np.float32),
                  rng.integers(-5, 5, size), list(wide[:size])]
        for x in inputs:
            got, want = product(x), reference(np.asarray(x))
            assert got.dtype == want.dtype and got.shape == (want.size,)
            assert got.tobytes() == want.tobytes()
        for bad in (np.zeros(size + 1), np.zeros(size - 1),
                    np.zeros((size, 1)), np.float64(1.0)):
            with pytest.raises(ValueError):
                product(bad)
