"""The in-place n-vector kernels against the formulas they state, as
``tests/reference.py`` writes them, the rule that a run writes only into
arrays it has just allocated, the design products against numpy's
``A.dot(x)`` and scipy's ``A @ x``, and the equality of ``ndarray.dot``
and ``@`` that the library's products rely on."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

import irsplit as ir
from irsplit.admm import (ADMMParams, Criterion, _accept, _acceptance_vector,
                          _multiplier, _p_update, _theta, run_admm)
from irsplit.hpp import _extrapolate, rho_bar_of_beta
from irsplit.problems import DesignMatrix, L1ShiftedProx
from irsplit.subsolvers import (CGSession, CurvatureMemory,
                                LBFGSFProcedure, _shrink)

import reference

# ---------------------------------------------------------------------------
# the loop's kernels, bit for bit against the reference formulas
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


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(1, 8), a=scalars, c=scalars,
       rw=scalars, sigma=scalars)
def test_kernels_match_expression_forms(data, n, a, c, rw, sigma):
    """Each kernel gives the bits of the formula it states, as the
    reference writes it in one expression, on vectors with signed zeros,
    infs, NaNs and subnormals, and leaves its inputs as they were.  theta
    is compared where the loop forms it: c > 0 and a finite dd > 0."""
    v = [data.draw(vectors(n)) for _ in range(6)]
    before = [w.copy() for w in v]
    p_l, p_hat, z_l, z_hat, x_l, y_l = v
    kappa = abs(a)
    with np.errstate(all="ignore"):
        t = _acceptance_vector(p_l, p_hat, z_l, z_hat, c)
        d = x_l - z_l
        dd = d @ d
        cases = [
            (_extrapolate(v[0], v[1], a),
             reference.extrapolate(v[0], v[1], a)),
            (_multiplier(v[0], v[1], v[2], v[3], c),
             reference.multiplier(v[0], v[1], v[2], v[3], c)),
            (t, reference.acceptance_vector(p_l, p_hat, z_l, z_hat, c)),
            (_p_update(v[0], v[1], v[2], v[3], rw, c),
             reference.p_update(v[0], v[1], v[2], v[3], rw, c)),
            (_shrink(v[4], kappa), reference.shrink(v[4], kappa)),
        ]
        for skip in (False, True) if c != 0.0 else ():
            prox = L1ShiftedProx(kappa, skip_first=skip)
            cases.append((prox.solve(v[0], v[1], c),
                           reference.shifted_prox(kappa, v[0], v[1], c,
                                                  skip)))
        if c > 0.0 and 0.0 < dd < math.inf:
            cases.append((np.float64(_theta(t, d, dd, c)),
                          np.float64(reference.theta(p_hat, z_hat, x_l, z_l,
                                                     p_l, c))))
        for max_form in (False, True):
            assert (_accept(y_l, t @ t, dd, c, sigma, max_form)
                    == reference.accept(y_l, p_l, p_hat, z_l, z_hat, x_l, c,
                                        sigma, max_form))
    for got, want in cases:
        assert same_bits(got, want)
    for w, w0 in zip(v, before):
        assert same_bits(w, w0)


def test_theta_keeps_the_sign_of_a_zero_product():
    """At n = 1, ``t.dot(d)`` of t = [0.0] and d = [-1.0] is -0.0 where
    ``t @ d`` is +0.0, and theta reaches ``record.cause``: ``_theta`` gives
    the reference's +0.0 bit for bit on the trial with x_l = -1 and every
    other vector 0."""
    zero, x_l, c = np.zeros(1), np.array([-1.0]), 1.0
    t = _acceptance_vector(zero, zero, zero, zero, c)
    d = x_l - zero
    assert np.signbit(t.dot(d)) and not np.signbit(t @ d)
    got = np.float64(_theta(t, d, float(d @ d), c))
    want = np.float64(reference.theta(zero, zero, x_l, zero, zero, c))
    assert same_bits(got, want) and not np.signbit(want)


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
    """``QuadraticFProcedure`` with its session start, carried Gram product
    and operator written as single expressions."""

    def __init__(self, design, b):
        self.design = design
        self.at_b = design.apply_transpose(b)

    def open_session(self, p, z, c, x_bar, anchor=None):
        design = self.design
        rhs = self.at_b - p + c * z
        prev, alpha = (None, 0.0) if anchor is None else anchor
        g_x = h = None
        if prev is not None:
            g_x = (prev.rhs + prev.y) - prev.c * prev.x
            if prev.gram is not None:
                h = g_x + alpha * (g_x - prev.gram) + c * x_bar

        def gram(u):
            return design.apply_transpose(design.apply(u)) + c * u

        session = ExpressionFormCG(gram, rhs, x_bar, h)
        session.c, session.gram = c, g_x
        return session


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


# ---------------------------------------------------------------------------
# the l1-logistic L-BFGS path, bit for bit against the expression forms
# ---------------------------------------------------------------------------

# finite entries for a design, with signed zeros and subnormals
entries = st.one_of(st.sampled_from((0.0, -0.0, 5e-324, -5e-324,
                                     2.2250738585072014e-308, -1e-310)),
                    st.floats(-4.0, 4.0), st.floats(-1e3, 1e3))


def design_vectors(n):
    return st.lists(entries, min_size=n, max_size=n).map(np.array)


def scalar_bits(got, want):
    return same_bits(np.asarray(np.float64(got)), np.asarray(np.float64(want)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), q=st.integers(2, 12), p=st.integers(2, 6))
def test_logistic_hooks_match_expression_forms(data, q, p):
    """``LogisticProblem``'s margins, loss, gradient and screened stop-test
    component give the bits of ``reference.logistic_*`` at x and at 1000 x,
    where most margins saturate expit and logaddexp, with signed zeros,
    subnormals, infs and NaNs in x.  x is left as it was, and the screened
    u stays as it was through the full gradient that reuses it.  q, p >= 2
    keep every product of the library's shapes (see
    ``test_dot_equals_matmul_on_the_library_shapes``)."""
    a = np.array([data.draw(st.lists(entries, min_size=p, max_size=p))
                  for _ in range(q)])
    labels = np.array(data.draw(st.lists(st.sampled_from((-1.0, 1.0)),
                                         min_size=q, max_size=q)))
    prob = ir.LogisticProblem(DesignMatrix(a), labels, 1.0)
    neg_b = -labels
    x0 = data.draw(vectors(p + 1))
    with np.errstate(all="ignore"):
        for x in (x0, 1e3 * x0):
            before = x.copy()
            u = prob._inner(x)
            assert same_bits(u, reference.logistic_margins(neg_b, a, x))
            assert scalar_bits(prob._loss(u), reference.logistic_loss(u))
            want = reference.logistic_gradient(neg_b, a, u)
            assert same_bits(prob._gradient(x, u), want)
            f, g = prob.value_gradient(x)
            assert scalar_bits(f, reference.logistic_loss(u))
            assert same_bits(g, want)
            for j in range(p + 1):
                got = prob._screened(x, prob._screen_for(j))
                ref = reference.logistic_screened(neg_b, a, x, j)
                for got_t, want_t in zip(got[:3], ref[:3]):
                    assert scalar_bits(got_t, want_t)
                u_s = got[3]
                assert same_bits(u_s, ref[3])
                kept = u_s.copy()
                prob._gradient(x, u_s)
                assert same_bits(u_s, kept)
            assert same_bits(x, before)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(2, 8), wild=st.booleans())
def test_lbfgs_augmented_function_matches_expression_forms(data, n, wild):
    """A session's value and gradient at its start are
    ``reference.augmented`` of the callable's (f, g) there, bit for bit,
    on finite entries with signed zeros and subnormals, and in the
    ``wild`` draws with infs, NaNs and unbounded floats too; the
    callable's g, p, z and the start are left as they were."""
    draw, scalar = (vectors, scalars) if wild else (design_vectors, entries)
    f, c = data.draw(scalar), data.draw(scalar)
    g, p, z, x = (data.draw(draw(n)) for _ in range(4))
    before = [v.copy() for v in (g, p, z, x)]
    with np.errstate(all="ignore"):
        session = LBFGSFProcedure(lambda _: (f, g)).open_session(p, z, c, x)
        want_f, want_g = reference.augmented(f, g, p, z, c, x)
    assert scalar_bits(session.f, want_f)
    assert same_bits(session.g, want_g)
    for v, v0 in zip((g, p, z, x), before):
        assert same_bits(v, v0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(2, 12), pairs=st.integers(0, 13),
       wild=st.booleans())
def test_lbfgs_direction_matches_expression_forms(data, n, pairs, wild):
    """``CurvatureMemory.direction`` gives the bits of
    ``reference.lbfgs_direction`` on the pairs the memory holds, 0 to 10
    of them, for g with signed zeros and subnormals, and in the ``wild``
    draws infs, NaNs and unbounded floats in g and in the pairs too.  Most
    drawn pairs are near-secant pairs y = s + e / 4 of finite entries, so
    most memories of enough draws fill.  g is left as it was."""
    draw = vectors if wild else design_vectors
    memory = CurvatureMemory(n)
    for _ in range(pairs):
        s, e = data.draw(draw(n)), data.draw(draw(n))
        with np.errstate(all="ignore"):
            memory.add(s, e if data.draw(st.booleans()) and wild
                       else s + 0.25 * e)
    g = data.draw(draw(n))
    before = g.copy()
    k = len(memory)
    s_rows, y_rows = memory._s[:k], memory._y[:k]
    with np.errstate(all="ignore"):
        got = memory.direction(g)
        want = reference.lbfgs_direction(s_rows, y_rows, g)
    assert same_bits(got, want)
    assert same_bits(g, before)


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
    result, and every Gram product a session carries, recorded."""
    rec = Recorder()
    fproc, prox = problem.fproc, problem.prox_g
    open_session, solve = fproc.open_session, prox.solve

    def recorded_open(p, z, c, x_bar, *anchor):
        rec(p, z, x_bar)
        session = open_session(p, z, c, x_bar, *anchor)
        if getattr(session, "gram", None) is not None:
            rec(session.gram)
        step = session.next
        session.next = lambda: rec(*step())
        return session

    fproc.open_session = recorded_open
    prox.solve = lambda p, x, c: rec(solve(rec(p), x, c))
    rec(init.x, init.z, init.p)
    res = run_admm(problem, params, init)
    rec(res.x, res.triple.x, res.triple.z, res.triple.p)
    return res, rec


@pytest.mark.parametrize("kind", ["lasso", "lasso_sparse", "logistic"])
def test_run_never_changes_or_aliases_emitted_arrays(kind):
    """No array a run hands out or receives (session arguments and emitted
    pairs, prox arguments and results, carried Gram products, the starting
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


# ---------------------------------------------------------------------------
# dense products, and ndarray.dot against @
# ---------------------------------------------------------------------------

def signed_zeros(rng, a, share):
    """``a`` with about ``share`` of its entries set to +0.0 or -0.0."""
    hit = rng.random(a.shape) < share
    a[hit] = np.where(rng.random(a.shape) < 0.5, 0.0, -0.0)[hit]
    return a


@settings(max_examples=150, deadline=None, derandomize=True)
@given(m=st.integers(1, 12), n=st.integers(1, 12),
       layout=st.sampled_from(["C", "F", "strided", "reversed"]),
       zeros=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(m=1, n=1, layout="C", zeros=True, seed=0)
@example(m=1, n=1, layout="F", zeros=True, seed=1)
def test_dense_products_equal_matmul(m, n, layout, zeros, seed):
    """``apply`` and ``apply_transpose`` of a dense design equal numpy's
    ``A.dot(x)`` and ``A.T.dot(u)`` bit for bit, in dtype and in shape, on
    contiguous, strided, reversed, broadcast, float32, integer, complex
    and list inputs, for C- and F-ordered, strided and reversed matrices,
    1x1 included, with signed zeros in some draws; a wrong length raises
    ``ValueError``.  On the library's own operands, a float64 vector of
    positive stride and a C- or F-contiguous matrix of more than one
    entry, they also equal ``A @ x`` and ``A.T @ u`` bit for bit; the
    other inputs cover each case where ``.dot`` and ``@`` may differ."""
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((m, n))
    if zeros:
        signed_zeros(rng, mat, 0.5)
    if layout == "F":
        mat = np.asfortranarray(mat)
    elif layout == "strided":
        wide = np.zeros((2 * m, 3 * n))
        wide[::2, ::3] = mat
        mat = wide[::2, ::3]
    elif layout == "reversed":
        mat = mat[::-1, ::-1].copy()[::-1, ::-1]
    design = DesignMatrix(mat)
    library = m * n > 1 and layout in ("C", "F")
    for size, product, op in ((n, design.apply, mat),
                              (m, design.apply_transpose, mat.T)):
        wide = rng.standard_normal(3 * size)
        if zeros:
            signed_zeros(rng, wide, 0.3)
        inputs = [wide[:size], wide[::3], wide[::-1][:size],
                  np.broadcast_to(wide[0], (size,)),
                  wide[:size].astype(np.float32),
                  rng.integers(-5, 5, size), list(wide[:size]),
                  wide[:size] + 1j * wide[size:2 * size]]
        for x in inputs:
            arr = np.asarray(x)
            wants = [op.dot(arr)]
            if library and arr.dtype == np.float64 and arr.strides[0] > 0:
                wants.append(op @ arr)
            got = product(x)
            for want in wants:
                assert got.dtype == want.dtype and got.shape == (want.size,)
                assert got.tobytes() == want.tobytes()
        for bad in (np.zeros(size + 1), np.zeros(size - 1),
                    np.zeros((size, 1)), np.float64(1.0)):
            with pytest.raises(ValueError):
                product(bad)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), k=st.integers(1, 12), n=st.integers(2, 40),
       order=st.sampled_from("CF"))
def test_dot_equals_matmul_on_the_library_shapes(data, k, n, order):
    """``.dot`` gives ``@``'s bits on contiguous float64 operands of the
    shapes the library's own products have, each entry a sum of n >= 2
    products: two n-vectors, a (k, n) matrix, C- or F-ordered, times an
    n-vector (the design products and their transposes, the L-BFGS
    memory's S g and Y q), and a (k, n) matrix times the transpose of
    another (the memory's Gram matrix S Y^T), with signed zeros, infs,
    NaNs and subnormals.  The ADMM loop, CG, L-BFGS, FISTA and the
    problems rely on this; an upgrade of numpy or of its BLAS that splits
    the two fails here by name.

    Two known exceptions lie outside these shapes.  Where each entry is
    one product (length-1 vectors, an inner length of 1), ``.dot`` gives
    -0.0 where ``@`` gives +0.0 on a 1x1 matrix or a length-1 vector, and
    0 where ``@`` gives NaN for an inf or NaN times a zero: the ADMM
    loop's theta keeps ``@``, as its zero's sign reaches
    ``record.cause``.  A vector of nonpositive stride, or a matrix that
    is neither C- nor F-contiguous, changes the round-off.
    ``DesignMatrix``, the one product that takes user arrays, calls
    ``.dot`` on those too, and promises ``@``'s bits only on these
    shapes."""
    u, v = data.draw(vectors(n)), data.draw(vectors(n))
    s, y = (np.asarray(np.array([data.draw(vectors(n)) for _ in range(k)]),
                       order=order) for _ in range(2))
    with np.errstate(all="ignore"):
        pairs = [(u.dot(v), u @ v), (s.dot(v), s @ v), (s.dot(y.T), s @ y.T)]
    for got, want in pairs:
        assert same_bits(np.asarray(got), np.asarray(want))
