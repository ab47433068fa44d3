"""Problem definitions: gradients, KKT residuals, generators, ingestion."""

import dataclasses
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings, strategies as st
from scipy.special import expit

import irsplit as ir
from irsplit.admm import ADMMParams
from irsplit.errors import ParseError
from irsplit.problems import (DesignMatrix, L1ShiftedProx, _l1_components,
                              load_dense_csv, load_libsvm, save_dense_csv,
                              save_libsvm)


def central_difference(fun, x, h):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fun(x + e) - fun(x - e)) / (2.0 * h)
    return g


def kkt_grid_oracle(grad, x, nu, regularized=None, step=1e-5):
    """Brute-force the per-component distance to grad + nu*subdiff(l1)."""
    worst = 0.0
    offsets = np.arange(-nu, nu + step, step)
    for i in range(x.size):
        if regularized is not None and not regularized[i]:
            r = abs(grad[i])
        elif x[i] != 0.0:
            r = abs(grad[i] + nu * np.sign(x[i]))
        else:
            r = np.min(np.abs(grad[i] + offsets))
        worst = max(worst, float(r))
    return worst


# ---------------------------------------------------------------------------
# design matrix
# ---------------------------------------------------------------------------

def test_dense_and_sparse_backends_agree():
    rng = np.random.default_rng(40)
    a = rng.standard_normal((9, 6))
    a[rng.random((9, 6)) < 0.5] = 0.0
    dense = DesignMatrix(a)
    sparse = DesignMatrix(sp.csr_matrix(a))
    x = rng.standard_normal(6)
    u = rng.standard_normal(9)
    assert np.linalg.norm(dense.apply(x) - sparse.apply(x)) <= \
        1e-13 * (1 + np.linalg.norm(dense.apply(x)))
    assert np.linalg.norm(dense.apply_transpose(u) - sparse.apply_transpose(u)) <= \
        1e-13 * (1 + np.linalg.norm(dense.apply_transpose(u)))


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
def test_transpose_products_match_a_fresh_transpose(sparse):
    """The transpose operator is built once and kept; every product is
    bit-identical to ``A.T @ u`` built for that call."""
    rng = np.random.default_rng(40)
    mat = sp.random(40, 90, density=0.1, format="csr", random_state=rng) \
        if sparse else rng.standard_normal((40, 90))
    design = ir.DesignMatrix(mat)
    for _ in range(3):
        u = rng.standard_normal(40)
        assert np.array_equal(design.apply_transpose(u),
                              np.asarray(mat.T @ u).ravel())


def test_design_matrix_shape_checks():
    d = DesignMatrix(np.ones((3, 2)))
    with pytest.raises(ValueError):
        d.apply(np.ones(3))
    with pytest.raises(ValueError):
        d.apply_transpose(np.ones(2))
    for data in (np.ones(3), np.ones((2, 2, 2))):
        with pytest.raises(ValueError, match="expected a 2-d array"):
            DesignMatrix(data)


@pytest.mark.parametrize("store", [np.asarray, sp.csr_matrix, sp.csr_array],
                         ids=["dense", "csr_matrix", "csr_array"])
def test_products_are_1d_and_reject_a_wrong_length(store):
    """Both products return 1-D arrays for every stored type, and reject a
    vector of the wrong length, or a 2-D column of the right one (which a
    dense ``A @ x`` alone would take), with ``ValueError``."""
    a = np.arange(6.0).reshape(3, 2)
    design = DesignMatrix(store(a))
    for wrong in (np.ones(1), np.ones(3), np.ones((2, 1))):
        with pytest.raises(ValueError):
            design.apply(wrong)
    for wrong in (np.ones(2), np.ones(4), np.ones((3, 1))):
        with pytest.raises(ValueError):
            design.apply_transpose(wrong)
    # array_equal also compares shapes: both results are 1-D
    assert np.array_equal(design.apply(np.ones(2)), a @ np.ones(2))
    assert np.array_equal(design.apply_transpose(np.ones(3)),
                          a.T @ np.ones(3))


def _arrays(mat):
    """The arrays that hold a matrix, dense or sparse; none for a list."""
    if isinstance(mat, list):
        return []
    if not sp.issparse(mat):
        return [mat]
    if mat.format == "coo":
        return [mat.data, *mat.coords]
    return [mat.data, mat.indices, mat.indptr]


@pytest.mark.parametrize("store", [np.asarray, sp.csr_matrix, sp.csr_array],
                         ids=["dense", "csr_matrix", "csr_array"])
def test_a_float64_matrix_is_taken_over_read_only(store):
    """A float64 matrix is stored without a copy and its arrays are made
    read-only, so a write through the caller's object raises
    ``ValueError``; it is held by an object of its own, so reshaping or
    resizing the caller's does not reach it.  An input that needs converting
    (another dtype, a list, CSC or COO) is stored in new arrays, and the
    caller's object stays writable."""
    a = np.arange(1.0, 7.0).reshape(3, 2)
    given = store(a.copy())
    design = DesignMatrix(given)
    kept = _arrays(design._mat)
    assert all(np.shares_memory(k, g) for k, g in zip(kept, _arrays(given)))
    assert not any(g.flags.writeable for g in _arrays(given))
    with pytest.raises(ValueError, match="read-only"):
        given[0, 0] = 1.0
    if sp.issparse(given):
        given.resize((4, 3))
    else:
        given.shape = (2, 3)
    assert design.shape == (3, 2)
    assert np.array_equal(design.toarray(), a)
    if sp.issparse(given):
        converted = [store(a.astype(int)), store(a.astype(np.float32)),
                     sp.csc_matrix(a), sp.coo_array(a)]
    else:
        converted = [a.astype(int), a.astype(np.float32), a.tolist()]
    for other in converted:
        kept = _arrays(DesignMatrix(other)._mat)
        assert not any(np.shares_memory(k, g)
                       for k in kept for g in _arrays(other))
        assert all(g.flags.writeable for g in _arrays(other))


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
def test_a_write_to_the_callers_matrix_cannot_change_a_built_problem(sparse):
    """Between two runs on one LASSO, a write through the array its design
    was built from raises ``ValueError``, and the second run repeats the
    first: ``stored_norm()`` and the KKT screens read a fixed A."""
    rng = np.random.default_rng(12)
    a = rng.standard_normal((20, 50)) / np.sqrt(20.0)
    given = sp.csr_matrix(a) if sparse else a
    b = rng.standard_normal(20)
    prob = ir.LassoProblem(DesignMatrix(given), b,
                           0.1 * float(np.abs(a.T @ b).max()))
    problem = ir.lasso_admm_problem(prob, 1.0)
    params = ADMMParams(c=1.0, core=ir.InertiaRelaxParams.plain(sigma=0.99),
                        max_outer=2000)
    first = ir.run_admm(problem, params)
    with pytest.raises(ValueError, match="read-only"):
        given[0, 0] = 1.0
    second = ir.run_admm(problem, params)
    assert first.status == "converged"
    assert second.x.tobytes() == first.x.tobytes()
    assert dataclasses.replace(second.record, wall_seconds=0.0) == \
        dataclasses.replace(first.record, wall_seconds=0.0)


def test_column_and_stored_norm():
    """``column(j)`` is column j bit for bit; ``stored_norm()`` is the
    Frobenius norm of the stored entries, and inf for a CSR matrix that
    may hold duplicate entries."""
    rng = np.random.default_rng(41)
    a = rng.standard_normal((5, 4))
    a[rng.random((5, 4)) < 0.4] = 0.0
    for design in (DesignMatrix(a), DesignMatrix(sp.csr_matrix(a))):
        for j in range(4):
            assert np.array_equal(design.column(j), a[:, j])
        assert design.stored_norm() == pytest.approx(np.linalg.norm(a),
                                                     rel=1e-15)
    dup = sp.csr_matrix((np.ones(2), np.zeros(2, dtype=int), [0, 2, 2]),
                        shape=(2, 3))
    assert DesignMatrix(dup).stored_norm() == np.inf


# ---------------------------------------------------------------------------
# LASSO
# ---------------------------------------------------------------------------

def test_lasso_gradient_zero_at_least_squares_solution():
    rng = np.random.default_rng(41)
    a = rng.standard_normal((5, 5)) + 3 * np.eye(5)
    b = rng.standard_normal(5)
    prob = ir.LassoProblem(DesignMatrix(a), b, 0.1)
    x_ls = np.linalg.solve(a, b)
    assert np.linalg.norm(prob.value_gradient(x_ls)[1]) <= 1e-10


def test_lasso_gradient_identity_design():
    prob = ir.LassoProblem(DesignMatrix(np.eye(4)), np.zeros(4), 0.1)
    x = np.array([1.0, -2.0, 0.0, 3.0])
    assert np.array_equal(prob.value_gradient(x)[1], x)


def test_lasso_gradient_matches_differences():
    rng = np.random.default_rng(42)
    a = rng.standard_normal((8, 5))
    b = rng.standard_normal(8)
    prob = ir.LassoProblem(DesignMatrix(a), b, 0.3)
    for _ in range(20):
        x = rng.standard_normal(5)
        h = 1e-6 * (1.0 + np.max(np.abs(x)))
        fd = central_difference(prob.f_value, x, h)
        g = prob.value_gradient(x)[1]
        assert np.linalg.norm(g - fd) / (1.0 + np.linalg.norm(fd)) <= 1e-6


def test_lasso_kkt_at_origin_and_threshold():
    rng = np.random.default_rng(43)
    a = rng.standard_normal((6, 4))
    b = rng.standard_normal(6)
    atb = a.T @ b
    # below the threshold the origin is not optimal
    prob = ir.LassoProblem(DesignMatrix(a), b, 0.5 * np.abs(atb).max())
    expected = np.maximum(np.abs(atb) - prob.nu, 0.0).max()
    assert prob.kkt_dist_inf(np.zeros(4))[0] == pytest.approx(expected)
    # at the threshold the origin is exactly optimal
    prob2 = ir.LassoProblem(DesignMatrix(a), b, float(np.abs(atb).max()))
    assert prob2.kkt_dist_inf(np.zeros(4))[0] == 0.0


def kkt_reference(grad, x, nu, regularized=None):
    """The sup-norm l1 KKT residual as a per-component ``where``."""
    r = np.where(x != 0.0,
                 np.abs(grad + nu * np.sign(x)),
                 np.maximum(np.abs(grad) - nu, 0.0))
    if regularized is not None:
        r = np.where(regularized, r, np.abs(grad))
    return float(r.max())


def same_float(a, b):
    return a == b or (np.isnan(a) and np.isnan(b))


kkt_entries = dict(
    grad=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=16),
    x_kind=st.lists(st.sampled_from(["0", "-0", "+", "-"]), min_size=16,
                    max_size=16),
    nu=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1e3),
    mask=st.none() | st.lists(st.booleans(), min_size=16, max_size=16),
    nan_at=st.none() | st.tuples(st.sampled_from(["grad", "x"]),
                                 st.integers(0, 15)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(**kkt_entries)
def test_l1_kkt_matches_where_form(grad, x_kind, nu, mask, nan_at):
    """Exact zeros, -0.0, a ``regularized`` mask, and a NaN that must stay
    NaN: the residual the problems form from ``_l1_components`` equals the
    per-component form in every bit."""
    grad = np.array(grad)
    n = grad.size
    value = {"0": 0.0, "-0": -0.0, "+": 0.75, "-": -1.5}
    x = np.array([value[k] for k in x_kind[:n]])
    regularized = None if mask is None else np.array(mask[:n])
    if nan_at is not None:
        (grad if nan_at[0] == "grad" else x)[nan_at[1] % n] = np.nan
    r = _l1_components(grad, x, nu)
    if regularized is not None:  # as the logistic bias enters
        r = np.where(regularized, r, np.abs(grad))
    got = float(max(r.max(), 0.0))  # the residual, as both problems clip it
    assert same_float(got, kkt_reference(grad, x, nu, regularized))


def logistic_instance(q, n, seed, nu_scale, zeros):
    """A random logistic problem and a point with ``zeros`` exact zeros,
    the bias among them when ``zeros`` is odd."""
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((q, n - 1))
    labels = np.where(rng.random(q) < 0.5, -1.0, 1.0)
    prob = ir.LogisticProblem(DesignMatrix(features), labels,
                              nu_scale * q)
    x = rng.standard_normal(n)
    x[rng.permutation(n)[:zeros]] = 0.0
    if zeros % 2:
        x[0] = 0.0
    return prob, x


logistic_points = dict(q=st.integers(1, 20), n=st.integers(2, 12),
                       seed=st.integers(0, 2**32 - 1),
                       nu_scale=st.floats(1e-3, 2.0), zeros=st.integers(0, 12))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(**logistic_points)
def test_logistic_value_gradient_and_kkt_match_reference(q, n, seed,
                                                          nu_scale, zeros):
    """value_gradient equals the margin formula bit for bit, the
    gradient-only path the KKT test uses equals its gradient, and the KKT
    residual equals the masked per-component form on that gradient."""
    prob, x = logistic_instance(q, n, seed, nu_scale, zeros)
    t = prob.labels * (prob.features.apply(x[1:]) + x[0])
    coeff = -prob.labels * expit(-t)
    want = np.concatenate(([coeff.sum()],
                           prob.features.apply_transpose(coeff)))
    value, grad = prob.value_gradient(x)
    assert value == float(np.logaddexp(0.0, -t).sum())
    assert np.array_equal(grad, want)
    assert np.array_equal(prob._gradient(x, prob._inner(x)), grad)
    mask = np.ones(n, dtype=bool)
    mask[0] = False
    assert prob.kkt_dist_inf(x)[0] == kkt_reference(grad, x, prob.nu, mask)


def screen_problem(kind, scale=1.0):
    """A small instance of each kind the KKT screen serves; a LASSO ``b`` is
    multiplied by ``scale``."""
    if kind == "logistic":
        return ir.synthetic_logistic(25, 9, seed=5)
    if kind == "lasso_dense":
        base = ir.synthetic_lasso(12, 30, seed=3)
    else:
        base = ir.synthetic_lasso(40, 60, density=0.2, seed=4)
    return ir.LassoProblem(base.A, scale * base.b, base.nu)


def kkt_components(prob, x):
    """Per-component KKT residual (before the clip at 0), from dense
    products; the logistic bias contributes |g_0|."""
    if isinstance(prob, ir.LassoProblem):
        a = prob.A.toarray()
        grad = a.T @ (a @ x - prob.b)
    else:
        a = prob.features.toarray()
        coeff = -prob.labels * expit(-prob.labels * (a @ x[1:] + x[0]))
        grad = np.concatenate(([coeff.sum()], a.T @ coeff))
    r = np.where(x != 0.0, np.abs(grad + prob.nu * np.sign(x)),
                 np.abs(grad) - prob.nu)
    if isinstance(prob, ir.LogisticProblem):
        r[0] = abs(grad[0])
    return r


def screen_point(values, n):
    return np.array([{"0": 0.0, "-0": -0.0}.get(v, v) for v in values[:n]],
                    dtype=float)


screen_entries = st.lists(st.sampled_from(["0", "-0"])
                          | st.floats(-2.0, 2.0), min_size=60, max_size=60)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["lasso_dense", "lasso_csr", "logistic"]),
       start=screen_entries, point=screen_entries,
       scale=st.sampled_from([1.0, 1e3]),
       nan_at=st.none() | st.integers(0, 59))
def test_kkt_screen_is_exact_at_or_below_the_floor(kind, start, point, scale,
                                                   nan_at):
    """The screened KKT residual: a value at or below the floor is the full
    residual bit for bit, and a value above it is a lower bound on the
    full residual, so the test ``value <= floor`` decides as the full one
    would.  The screened component is within round-off of the exact one,
    also with a LASSO ``b`` scaled by ``scale`` (large terms that cancel in
    the gradient), and a NaN in the point is never screened."""
    prob = screen_problem(kind, scale)
    n = prob.n
    x0, x = screen_point(start, n), scale * screen_point(point, n)
    ref0 = kkt_components(prob, x0)
    top = np.sort(ref0)
    assume(top[-1] - top[-2] > 1e-6)  # the primed component is known
    screen = prob.kkt_dist_inf(x0, -np.inf)[1]
    j = int(np.argmax(ref0))
    if nan_at is not None:
        x[nan_at % n] = np.nan
        for floor in (-np.inf, 0.0, 1.0):
            value, screen = prob.kkt_dist_inf(x, floor, screen)
            assert np.isnan(value)
        return
    ref = kkt_components(prob, x)
    got, screen = prob.kkt_dist_inf(x, -np.inf, screen)  # j, screened
    assert ref[j] - 1e-8 * (1.0 + scale * scale) <= got <= ref[j]
    full = prob.kkt_dist_inf(x)[0]
    assert full == prob.kkt_dist_inf(x, np.inf)[0]
    for floor in (np.nextafter(full, np.inf), full,
                  np.nextafter(full, -np.inf), 0.5 * full, got, 0.0):
        value, screen = prob.kkt_dist_inf(x, floor, screen)
        if value <= floor:
            assert np.float64(value).tobytes() == np.float64(full).tobytes()
        else:
            assert floor < value <= full


def cancelling_instance(kind, seed):
    """A point where both the screened and the full gradient cancel large
    terms, with its problem.  LASSO: entries of A in [1, 2], b = A x* for a
    positive x*, and x within a relative 1e-14 of x*.  Logistic: 200
    feature rows, each repeated, labelled +1 and then -1 in the same
    order, so every partial sum of a gradient component grows before it
    cancels, at x within 1e-12 of zero."""
    rng = np.random.default_rng(seed)
    if kind == "lasso_cancel":
        a = rng.uniform(1.0, 2.0, (20, 30))
        x_star = rng.uniform(0.5, 1.5, 30)
        prob = ir.LassoProblem(DesignMatrix(a), a @ x_star, 1.0)
        return prob, x_star * (1.0 + 1e-14 * rng.uniform(-1.0, 1.0, 30))
    a = rng.uniform(1.0, 2.0, (200, 10))
    labels = np.repeat([1.0, -1.0], 200)
    prob = ir.LogisticProblem(DesignMatrix(np.vstack([a, a])), labels, 1e-3)
    return prob, 1e-12 * rng.uniform(-1.0, 1.0, 11)


@pytest.mark.parametrize("kind", ["lasso_dense", "lasso_csr", "bias",
                                  "lasso_cancel", "logistic_cancel"])
def test_kkt_screen_bound_covers_cancellation_and_the_bias(kind):
    """Screened components stay below the exact ones where round-off is at
    its worst relative to the component: a LASSO b of norm 1e6 nearly
    orthogonal to the primed column (the ||b|| term of the bound), and
    the logistic bias, with gradients of both signs.  The LASSO screen is
    primed on the longest column j at t e_j: with t large, component j,
    t ||a_j||^2 - a_j . b, dominates every t a_i . a_j - a_i . b, as
    |a_i . a_j| < ||a_j||^2 by Cauchy-Schwarz.

    At a point of :func:`cancelling_instance`, where both evaluations
    cancel large terms, the screen is primed on the worst component at
    that point, so its value must not exceed the full residual there.
    Each problem's bound with its coefficient cut to u fails this on some
    of the 100 draws."""
    if kind.endswith("_cancel"):
        for seed in range(100):
            prob, x = cancelling_instance(kind, seed)
            screen = prob.kkt_dist_inf(x, -np.inf)[1]
            assert prob.kkt_dist_inf(x, -np.inf, screen)[0] <= \
                prob.kkt_dist_inf(x)[0]
        return
    for seed in range(20):
        if kind == "bias":
            prob = ir.synthetic_logistic(25, 9, nu_fraction=2.0, seed=seed)
            points = [np.eye(prob.n)[0] * v for v in (-3.0, -0.5, 0.5, 3.0)]
            prime = np.zeros(prob.n)
        else:
            density = 1.0 if kind == "lasso_dense" else 0.2
            base = ir.synthetic_lasso(40, 60, density=density, seed=seed)
            a = base.A.toarray()
            longest = int(np.argmax(np.linalg.norm(a, axis=0)))
            col = a[:, longest]
            b = 1e6 * np.random.default_rng(seed).standard_normal(col.size)
            prob = ir.LassoProblem(base.A, b - (col @ b) / (col @ col) * col,
                                   base.nu)
            points = [np.zeros(prob.n)]
            prime = 1e9 * np.eye(prob.n)[longest]
        ref0 = kkt_components(prob, prime)
        j = int(np.argmax(ref0))
        assert j == (0 if kind == "bias" else longest)
        assert np.sort(ref0)[-2] < 0.5 * ref0[j]
        screen = prob.kkt_dist_inf(prime, -np.inf)[1]
        for x in points:
            ref = kkt_components(prob, x)[j]
            got, screen = prob.kkt_dist_inf(x, -np.inf, screen)
            assert ref - 1e-6 <= got <= ref


def test_lasso_kkt_zero_at_reference(lasso_20x50, lasso_20x50_reference):
    assert lasso_20x50.kkt_dist_inf(lasso_20x50_reference)[0] <= 1e-10


def test_lasso_kkt_matches_grid_oracle():
    rng = np.random.default_rng(44)
    a = rng.standard_normal((7, 5))
    b = rng.standard_normal(7)
    prob = ir.LassoProblem(DesignMatrix(a), b, 0.6)
    for _ in range(10):
        x = rng.standard_normal(5)
        x[rng.random(5) < 0.4] = 0.0  # exercise both branches
        oracle = kkt_grid_oracle(prob.value_gradient(x)[1], x, prob.nu)
        assert abs(prob.kkt_dist_inf(x)[0] - oracle) <= 1e-5


# ---------------------------------------------------------------------------
# logistic regression
# ---------------------------------------------------------------------------

def test_logistic_single_sample_closed_form():
    prob = ir.LogisticProblem(DesignMatrix(np.array([[1.0]])),
                              np.array([1.0]), 0.1)
    value, grad = prob.value_gradient(np.zeros(2))
    assert value == pytest.approx(np.log(2.0))
    assert grad[0] == pytest.approx(-0.5)
    assert grad[1] == pytest.approx(-0.5)


def test_logistic_large_margins_vanish():
    prob = ir.LogisticProblem(DesignMatrix(np.array([[1.0], [2.0]])),
                              np.array([1.0, 1.0]), 0.1)
    x = np.array([500.0, 500.0])  # margins ~ 1000+
    value, grad = prob.value_gradient(x)
    assert value <= 1e-200
    assert np.linalg.norm(grad) <= 1e-200


@pytest.mark.parametrize("dtype", [np.int64, np.float32],
                         ids=["int", "float32"])
@pytest.mark.parametrize("kind", ["logistic", "lasso"])
def test_an_x_of_another_dtype_is_read_as_float64(kind, dtype):
    """An int or float32 x gives the value, the float64 gradient, the
    objective and the KKT residual, in full and screened, of the same x
    as float64, bit for bit; the logistic gradient of an int x was
    truncated to ints ([-3, 7, 9, 1] at the first logistic x), and a
    float32 x got a float32 gradient."""
    if kind == "logistic":
        prob = ir.synthetic_logistic(20, 4, seed=0)
        point = [0, 1, 2, 0] if dtype is np.int64 else [-0.75, 0.3, 1.7, -2.1]
    else:
        prob = ir.synthetic_lasso(10, 4, seed=0)
        point = [0, 1, -2, 0] if dtype is np.int64 else [0.3, 0.0, -1.7, 2.1]
    x = np.array(point, dtype=dtype)
    x64 = x.astype(float)
    f, g = prob.value_gradient(x)
    f64, g64 = prob.value_gradient(x64)
    assert f == f64
    assert g.dtype == np.float64 and g.tobytes() == g64.tobytes()
    assert prob.objective(x) == prob.objective(x64)
    assert prob.kkt_dist_inf(x) == prob.kkt_dist_inf(x64)
    value64, screen = prob.kkt_dist_inf(x64, 0.0)
    assert value64 > 0.0 and screen is not None
    assert prob.kkt_dist_inf(x, 0.0, screen)[0] == \
        prob.kkt_dist_inf(x64, 0.0, screen)[0]


def test_labels_are_fixed_at_construction():
    """The problem forms -labels once; after a value-gradient and a KKT
    test, neither assigning ``labels`` nor negating them in place gets
    through, and the value, gradient, objective and KKT residual are those
    of a freshly built problem, bit for bit, with a screened KKT value
    still a lower bound on the residual."""
    prob = ir.synthetic_logistic(30, 8, seed=5)
    x = np.random.default_rng(8).standard_normal(8)
    prob.value_gradient(x)
    screen = prob.kkt_dist_inf(x, 0.0)[1]
    with pytest.raises(AttributeError):
        prob.labels = -prob.labels
    with pytest.raises(ValueError, match="read-only"):
        prob.labels *= -1.0
    fresh = ir.LogisticProblem(prob.features, prob.labels.copy(), prob.nu)
    value, grad = prob.value_gradient(x)
    want_value, want_grad = fresh.value_gradient(x)
    assert np.float64(value).tobytes() == np.float64(want_value).tobytes()
    assert grad.tobytes() == want_grad.tobytes()
    assert prob.objective(x) == fresh.objective(x)
    full = fresh.kkt_dist_inf(x)[0]
    assert np.float64(prob.kkt_dist_inf(x)[0]).tobytes() == \
        np.float64(full).tobytes()
    assert prob.kkt_dist_inf(x, -np.inf, screen)[0] <= full


def test_logistic_labels_are_copied_at_construction():
    """Changing the caller's label array in place does not reach the
    problem, whose kept -labels would otherwise be stale."""
    base = ir.synthetic_logistic(20, 6, seed=9)
    labels = base.labels.copy()
    prob = ir.LogisticProblem(base.features, labels, base.nu)
    x = np.random.default_rng(10).standard_normal(6)
    before = prob.value_gradient(x)
    labels *= -1.0
    after = prob.value_gradient(x)
    assert after[0] == before[0]
    assert np.array_equal(after[1], before[1])


def test_labels_are_checked_at_construction():
    """The constructor takes one label in {-1, +1} per feature row and
    raises ``ValueError`` otherwise; valid integer labels give the bits of
    the float ones."""
    base = ir.synthetic_logistic(12, 5, seed=3)
    x = np.random.default_rng(4).standard_normal(5)
    want = base.value_gradient(x)
    for bad in (np.full(12, 0.5), np.append(base.labels, 1.0),
                np.where(base.labels > 0, 1.0, np.nan), np.full(12, 2.0)):
        with pytest.raises(ValueError, match="label"):
            ir.LogisticProblem(base.features, bad, base.nu)
    prob = ir.LogisticProblem(base.features, base.labels.astype(int), base.nu)
    value, grad = prob.value_gradient(x)
    assert value == want[0] and grad.tobytes() == want[1].tobytes()


@pytest.mark.parametrize("kind", ["lasso", "logistic"])
def test_fista_and_admm_share_one_fixed_prox(kind):
    """A problem builds its shifted prox once: every ADMM problem built
    from it holds that object, and neither the prox nor its ``nu`` and
    bias rule can be reassigned."""
    if kind == "lasso":
        prob, build = ir.synthetic_lasso(8, 12, seed=0), ir.lasso_admm_problem
    else:
        prob, build = (ir.synthetic_logistic(10, 5, seed=0),
                       ir.logistic_admm_problem)
    prox = prob.prox_g
    assert build(prob, 1.0).prox_g is build(prob, 2.0).prox_g is prox
    assert (prox.nu, prox.skip_first) == (prob.nu, kind == "logistic")
    for owner, name in ((prob, "prox_g"), (prox, "nu"), (prox, "skip_first")):
        with pytest.raises(AttributeError):
            setattr(owner, name, getattr(owner, name))


def _doubled(design):
    return DesignMatrix(2.0 * design.toarray())


# a changed value for each data field
DATA_CHANGES = {"A": _doubled, "features": _doubled, "b": lambda v: v + 0.25,
                "labels": lambda v: -v, "nu": lambda v: 1.5 * v}


@pytest.mark.parametrize("kind, name", [
    ("lasso", "A"), ("lasso", "b"), ("lasso", "nu"),
    ("logistic", "features"), ("logistic", "labels"), ("logistic", "nu")])
def test_problem_data_cannot_change_under_a_built_admm_problem(kind, name):
    """The ADMM problem copies A^T b (LASSO) and nu when it is built, so
    data changed afterwards would make the run solve a mix of two
    problems.  Assigning any data field raises ``AttributeError``, and
    changing ``b`` or ``labels`` in place raises ``ValueError``; the run
    is then bit for bit that of a freshly built problem."""
    if kind == "lasso":
        prob, build = ir.synthetic_lasso(20, 50, seed=7), ir.lasso_admm_problem
        fresh = ir.LassoProblem(prob.A, prob.b, prob.nu)
    else:
        prob, build = (ir.synthetic_logistic(30, 8, seed=5),
                       ir.logistic_admm_problem)
        fresh = ir.LogisticProblem(prob.features, prob.labels, prob.nu)
    problem = build(prob, 1.0)
    value = getattr(prob, name)
    with pytest.raises(AttributeError):
        setattr(prob, name, DATA_CHANGES[name](value))
    if isinstance(value, np.ndarray):
        with pytest.raises(ValueError, match="read-only"):
            value *= -1.0
    assert getattr(prob, name) is value
    params = ADMMParams(c=1.0, core=ir.InertiaRelaxParams.plain(sigma=0.99),
                        max_outer=2000)
    got = ir.run_admm(problem, params)
    want = ir.run_admm(build(fresh, 1.0), params)
    assert got.status == want.status == "converged"
    assert got.x.tobytes() == want.x.tobytes()
    assert (got.outer_iters, got.inner_iters_total, got.record.final_kkt) == \
        (want.outer_iters, want.inner_iters_total, want.record.final_kkt)


@pytest.mark.parametrize("b, nu", [
    (np.zeros(4), 0.5), (np.zeros((5, 1)), 0.5), (np.zeros(5), 0.0),
    (np.zeros(5), np.nan), ([1.0, np.nan, 2.0, 0.0, 0.0], 0.5),
    ([1.0, np.inf, 2.0, 0.0, 0.0], 0.5), (np.zeros(5), np.inf)])
def test_lasso_constructor_checks_its_data(b, nu):
    """``b`` is a finite vector with one entry per row of A, not an (m, 1)
    column that would broadcast the residual to m x m, and 0 < nu < inf:
    a NaN or inf would otherwise reach a run, or make ``objective(0)``
    NaN."""
    with pytest.raises(ValueError):
        ir.LassoProblem(DesignMatrix(np.ones((5, 3))), b, nu)


def test_a_lasso_needs_a_column_and_a_logistic_model_may_be_bias_only():
    """``LassoProblem`` refuses a design with no columns, which both
    solvers would meet as numpy's zero-size reduction inside the stop
    test.  A logistic problem with no features is a bias-only model: both
    solvers converge to the log-odds of its labels."""
    with pytest.raises(ValueError, match="A must have at least one column"):
        ir.LassoProblem(DesignMatrix(np.zeros((3, 0))), np.ones(3), 1.0)
    prob = ir.LogisticProblem(DesignMatrix(np.zeros((4, 0))),
                              [1.0, -1.0, 1.0, 1.0], 1.0)
    params = ADMMParams(c=1.0, core=ir.InertiaRelaxParams.plain(sigma=0.99))
    for result in (ir.run_admm(ir.logistic_admm_problem(prob, 1.0), params),
                   ir.fista_solve(prob, ir.FistaConfig())):
        assert result.status == "converged"
        assert result.x == pytest.approx([np.log(3.0)], abs=1e-5)


def test_logistic_constructor_rejects_an_infinite_nu():
    with pytest.raises(ValueError, match="0 < nu < inf violated"):
        ir.LogisticProblem(DesignMatrix(np.eye(2)), [1.0, -1.0], np.inf)


def test_lasso_b_is_copied_at_construction():
    """Changing the caller's ``b`` in place does not reach the problem."""
    base = ir.synthetic_lasso(12, 30, seed=3)
    b = base.b.copy()
    prob = ir.LassoProblem(base.A, b, base.nu)
    x = np.random.default_rng(10).standard_normal(30)
    before = prob.value_gradient(x)[1]
    b += 1.0
    assert np.array_equal(prob.value_gradient(x)[1], before)


def test_lasso_x_true_is_fixed_at_construction():
    """``x_true`` is a read-only copy, as ``b`` is: assigning it raises
    ``AttributeError``, writing into it ``ValueError``, and changing the
    caller's array does not reach it; without one it stays None."""
    base = ir.synthetic_lasso(12, 30, seed=3)
    x_true = base.x_true.copy()
    prob = ir.LassoProblem(base.A, base.b, base.nu, x_true=x_true)
    with pytest.raises(AttributeError):
        prob.x_true = np.zeros(30)
    with pytest.raises(ValueError, match="read-only"):
        prob.x_true[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        base.x_true[0] = 1.0
    x_true += 1.0
    assert np.array_equal(prob.x_true, base.x_true)
    assert ir.LassoProblem(base.A, base.b, base.nu).x_true is None


def test_logistic_objective_is_the_value_alone():
    """The objective equals the value-gradient's value plus the l1 term, bit
    for bit, from one forward product and no value-gradient call."""
    prob = ir.synthetic_logistic(25, 9, seed=11)
    x = np.random.default_rng(12).standard_normal(9)
    want = prob.value_gradient(x)[0] + prob.nu * float(np.abs(x[1:]).sum())
    calls = []
    design = prob.features
    apply, apply_t = design.apply, design.apply_transpose
    design.apply = lambda v: calls.append("A") or apply(v)
    design.apply_transpose = lambda u: calls.append("AT") or apply_t(u)
    prob.value_gradient = lambda v: calls.append("vg")
    assert prob.objective(x) == want
    assert calls == ["A"]


def test_logistic_gradient_matches_differences():
    prob = ir.synthetic_logistic(8, 6, seed=2)
    rng = np.random.default_rng(45)
    for _ in range(20):
        x = rng.standard_normal(6)
        h = 1e-6 * (1.0 + np.max(np.abs(x)))
        fd = central_difference(lambda t: prob.value_gradient(t)[0], x, h)
        g = prob.value_gradient(x)[1]
        assert np.linalg.norm(g - fd) / (1.0 + np.linalg.norm(fd)) <= 1e-6


def test_logistic_zero_weights_optimal_above_threshold():
    prob0 = ir.synthetic_logistic(15, 7, seed=3)
    # optimal bias at w = 0 by one-dimensional Newton
    labels = prob0.labels
    v = 0.0
    for _ in range(60):
        from scipy.special import expit
        s = expit(-labels * v)
        grad = float(np.sum(-labels * s))
        hess = float(np.sum(s * (1.0 - s)))
        v -= grad / hess
    x0 = np.zeros(7)
    x0[0] = v
    grad_w = prob0.value_gradient(x0)[1][1:]
    nu_star = float(np.abs(grad_w).max())
    prob = ir.LogisticProblem(prob0.features, labels, nu_star * 1.0001)
    assert prob.kkt_dist_inf(x0)[0] <= 1e-10


def test_logistic_kkt_matches_grid_oracle():
    prob = ir.synthetic_logistic(10, 5, seed=4)
    rng = np.random.default_rng(46)
    mask = np.ones(5, dtype=bool)
    mask[0] = False
    for _ in range(10):
        x = rng.standard_normal(5)
        x[2] = 0.0
        grad = prob.value_gradient(x)[1]
        oracle = kkt_grid_oracle(grad, x, prob.nu, regularized=mask)
        assert abs(prob.kkt_dist_inf(x)[0] - oracle) <= 1e-5


def test_logistic_prox_skips_bias():
    prox = L1ShiftedProx(5.0, skip_first=True)
    p = np.zeros(3)
    x = np.array([0.4, 0.4, -0.4])
    z = prox.solve(p, x, 1.0)
    assert z[0] == pytest.approx(0.4)  # bias unshrunk
    assert z[1] == 0.0 and z[2] == 0.0


def test_logistic_subproblem_membership(lasso_20x50):
    prob = ir.synthetic_logistic(12, 6, seed=5)
    fproc = ir.logistic_admm_problem(prob, 1.0).fproc
    rng = np.random.default_rng(47)
    p_hat = rng.standard_normal(6)
    z_hat = rng.standard_normal(6)
    session = fproc.open_session(p_hat, z_hat, 1.0, np.zeros(6))
    for _ in range(4):
        x_l, y_l = session.next()
        base = prob.value_gradient(x_l)[1]
        expected = base + p_hat + (x_l - z_hat)
        assert np.linalg.norm(y_l - expected) <= 1e-10


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_synthetic_lasso_deterministic_per_seed():
    p1 = ir.synthetic_lasso(10, 20, seed=5)
    p2 = ir.synthetic_lasso(10, 20, seed=5)
    p3 = ir.synthetic_lasso(10, 20, seed=6)
    assert np.array_equal(p1.A.toarray(), p2.A.toarray())
    assert np.array_equal(p1.b, p2.b)
    assert p1.nu == p2.nu
    assert not np.array_equal(p1.b, p3.b)


@pytest.mark.parametrize("generate, message", [
    (lambda: ir.synthetic_lasso(0, 3), "m, n >= 1 required"),
    (lambda: ir.synthetic_lasso(3, 0), "m, n >= 1 required"),
    (lambda: ir.synthetic_lasso(3, 4, density=0.0), r"density in \(0, 1\]"),
    (lambda: ir.synthetic_lasso(3, 4, density=1.5), r"density in \(0, 1\]"),
    (lambda: ir.synthetic_logistic(0, 3), "q >= 1 and n >= 2 required"),
    (lambda: ir.synthetic_logistic(3, 1), "q >= 1 and n >= 2 required"),
], ids=["lasso_m", "lasso_n", "density_zero", "density_above_one",
        "logistic_q", "logistic_n"])
def test_generators_refuse_bad_sizes(generate, message):
    """A generator called directly, not through the harness's key table,
    refuses an empty size or a density outside (0, 1]."""
    with pytest.raises(ValueError, match=message):
        generate()


def test_synthetic_lasso_sparse_backend():
    p = ir.synthetic_lasso(15, 30, density=0.3, seed=8)
    assert p.A.is_sparse
    dense_copy = ir.LassoProblem(DesignMatrix(p.A.toarray()), p.b, p.nu)
    x = np.random.default_rng(0).standard_normal(30)
    assert np.allclose(p.kkt_dist_inf(x)[0], dense_copy.kkt_dist_inf(x)[0],
                       rtol=1e-12)


def test_synthetic_lasso_threshold_nu_makes_origin_optimal():
    p = ir.synthetic_lasso(10, 25, nu_fraction=1.0, seed=9)
    assert p.kkt_dist_inf(np.zeros(25))[0] == 0.0


def test_synthetic_logistic_label_values():
    p = ir.synthetic_logistic(20, 9, seed=10)
    assert set(np.unique(p.labels)) <= {-1.0, 1.0}


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def test_libsvm_parse_basic(tmp_path):
    path = tmp_path / "toy.libsvm"
    path.write_text("+1 1:0.5 3:2.0\n-1 2:1.0\n")
    prob = load_libsvm(path, nu=0.5)
    dense = prob.features.toarray()
    assert dense.shape == (2, 3)
    assert np.allclose(dense[0], [0.5, 0.0, 2.0])
    assert np.allclose(dense[1], [0.0, 1.0, 0.0])
    assert np.array_equal(prob.labels, [1.0, -1.0])


def test_libsvm_empty_feature_line(tmp_path):
    path = tmp_path / "toy.libsvm"
    path.write_text("+1 1:1.0\n-1\n")
    prob = load_libsvm(path, nu=0.5)
    assert np.allclose(prob.features.toarray()[1], [0.0])


def test_libsvm_malformed_token_names_line(tmp_path):
    """A bad token names its line, counting the comment and blank lines the
    loader skips; a file with no sample, or an ``n_features`` below the
    largest index, is refused as a whole."""
    path = tmp_path / "bad.libsvm"
    path.write_text("+1 1:1.0\n-1 a:1\n")
    with pytest.raises(ParseError, match="line 2"):
        load_libsvm(path, nu=0.5)
    for text, message in [
            ("# a comment\n\n+1 1:1.0\nx 1:1\n", "line 4: bad label 'x'"),
            ("+1 1:1.0\n-1 0:1\n", "line 2: index 0 is not 1-based"),
            ("# a comment\n\n", "no samples found")]:
        path.write_text(text)
        with pytest.raises(ParseError, match=message):
            load_libsvm(path, nu=0.5)
    path.write_text("# a comment\n\n+1 3:1.0\n")
    assert load_libsvm(path, nu=0.5).features.shape == (1, 3)
    with pytest.raises(ParseError,
                       match="n_features = 2 below largest index 3"):
        load_libsvm(path, nu=0.5, n_features=2)


def test_libsvm_refuses_an_index_repeated_within_a_line(tmp_path):
    """A repeated index would be summed into one entry by the conversion to
    CSR; the loader names the line and the index instead.  Indices that are
    unique but out of order still load."""
    bad = tmp_path / "repeat.libsvm"
    bad.write_text("-1 2:1.0\n+1 1:0.5 3:1 3:2\n")
    with pytest.raises(ParseError, match="line 2: index 3 repeats"):
        load_libsvm(bad, nu=0.5)
    unordered = tmp_path / "unordered.libsvm"
    unordered.write_text("+1 3:2.0 1:0.5\n-1 2:1.0 1:-1.0\n")
    dense = load_libsvm(unordered, nu=0.5).features.toarray()
    assert np.array_equal(dense, [[0.5, 0.0, 2.0], [-1.0, 1.0, 0.0]])


def test_libsvm_label_remapping(tmp_path):
    p01 = tmp_path / "p01.libsvm"
    p01.write_text("1 1:1.0\n0 1:2.0\n")
    assert np.array_equal(load_libsvm(p01, nu=1.0).labels, [1.0, -1.0])
    p12 = tmp_path / "p12.libsvm"
    p12.write_text("1 1:1.0\n2 1:2.0\n")
    assert np.array_equal(load_libsvm(p12, nu=1.0).labels, [1.0, -1.0])
    bad = tmp_path / "bad.libsvm"
    bad.write_text("3 1:1.0\n4 1:2.0\n")
    with pytest.raises(ParseError, match="label"):
        load_libsvm(bad, nu=1.0)


def test_libsvm_round_trip(tmp_path):
    prob = ir.synthetic_logistic(6, 4, seed=11)
    path = tmp_path / "round.libsvm"
    save_libsvm(prob, path)
    back = load_libsvm(path, nu=prob.nu, n_features=3)
    assert np.allclose(back.features.toarray(), prob.features.toarray(),
                       rtol=1e-15)
    assert np.array_equal(back.labels, prob.labels)


def test_libsvm_round_trip_sparse_is_never_densified(tmp_path, monkeypatch):
    rng = np.random.default_rng(13)
    mat = sp.random(200, 1000, density=0.01, format="csr", random_state=rng)
    mat.data = rng.standard_normal(mat.nnz)
    empty = [0, 17, 199]
    for i in empty:
        mat.data[mat.indptr[i]:mat.indptr[i + 1]] = 0.0
    mat.eliminate_zeros()
    # store the first entry of row 1 twice: LIBSVM output must sum the pair
    k = mat.indptr[1]
    assert mat.indptr[2] > k
    dup = sp.csr_matrix((np.insert(mat.data, k, mat.data[k]),
                         np.insert(mat.indices, k, mat.indices[k]),
                         np.concatenate([mat.indptr[:2], mat.indptr[2:] + 1])),
                        shape=mat.shape)
    mat.data[k] *= 2.0
    labels = np.where(rng.random(200) < 0.5, -1.0, 1.0)
    prob = ir.LogisticProblem(DesignMatrix(dup), labels, 0.5)
    assert prob.features.tocsr().nnz == mat.nnz + 1

    def refuse(self):
        raise AssertionError("densified")

    monkeypatch.setattr(DesignMatrix, "toarray", refuse)
    path = tmp_path / "sparse.libsvm"
    save_libsvm(prob, path)
    back = load_libsvm(path, nu=prob.nu, n_features=1000)
    lines = path.read_text().splitlines()
    assert len(lines) == 200
    assert all(len(lines[i].split()) == 1 for i in empty)
    for line in lines:
        cols = [tok.split(":")[0] for tok in line.split()[1:]]
        assert len(cols) == len(set(cols))
    assert back.features.is_sparse
    assert (back.features.tocsr() != mat).nnz == 0  # bitwise, .17g
    assert np.array_equal(back.labels, labels)


def test_dense_csv_round_trip(tmp_path):
    prob = ir.synthetic_lasso(6, 4, seed=12)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    save_dense_csv(prob, pa, pb)
    back = load_dense_csv(pa, pb, nu=prob.nu)
    assert np.allclose(back.A.toarray(), prob.A.toarray(), rtol=1e-15)
    assert np.allclose(back.b, prob.b, rtol=1e-15)


def test_dense_csv_dimension_mismatch(tmp_path):
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    pa.write_text("1.0,2.0\n3.0,4.0\n")
    pb.write_text("1.0\n")
    with pytest.raises(ParseError, match="rows"):
        load_dense_csv(pa, pb, nu=1.0)


@pytest.mark.parametrize("b_text, columns", [("0,1\n2,3\n", 2),
                                             ("0,1\n", 2), ("0,1,2\n", 3)])
def test_dense_csv_refuses_a_b_of_more_than_one_column(tmp_path, b_text,
                                                       columns):
    """b is read as one column: a file with more, or one row of several
    values, raises ``ParseError`` instead of being flattened into a b that
    may even have A's row count."""
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    pa.write_text("1.0,2.0\n3.0,4.0\n5.0,6.0\n7.0,8.0\n")
    pb.write_text(b_text)
    with pytest.raises(ParseError, match=f"b has {columns} columns, "
                                         "expected 1"):
        load_dense_csv(pa, pb, nu=1.0)


@pytest.mark.parametrize("a_text, skip_header", [("", False),
                                                 ("c1,c2\n", True)],
                         ids=["empty", "header_only"])
def test_dense_csv_refuses_an_a_file_with_no_rows(tmp_path, a_text,
                                                  skip_header):
    """An A file with no rows raises ``ParseError``, as a LIBSVM file with
    no samples does, rather than load as a 0 x 1 problem that both solvers
    report converged; numpy's "input contained no data" warning is not
    shown."""
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    pa.write_text(a_text)
    pb.write_text("y\n" if skip_header else "")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ParseError, match="no samples found in A"):
            load_dense_csv(pa, pb, nu=1.0, skip_header=skip_header)
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("b_text, skip_header", [("", False), ("y\n", True)],
                         ids=["empty", "header_only"])
def test_dense_csv_refuses_a_b_file_with_no_rows(tmp_path, b_text,
                                                 skip_header):
    """A b file with no rows raises ``ParseError`` naming b, with no numpy
    warning, where it ended as "A has 1 rows but b has 0"."""
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    pa.write_text("c1,c2\n1.0,2.0\n" if skip_header else "1.0,2.0\n")
    pb.write_text(b_text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ParseError, match="no samples found in b"):
            load_dense_csv(pa, pb, nu=1.0, skip_header=skip_header)
    assert [str(w.message) for w in caught] == []


def test_dense_csv_header_skip(tmp_path):
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    pa.write_text("c1,c2\n1.0,2.0\n")
    pb.write_text("y\n0.5\n")
    prob = load_dense_csv(pa, pb, nu=1.0, skip_header=True)
    assert prob.A.shape == (1, 2)
    assert prob.b[0] == pytest.approx(0.5)
    # read as data, the header is a cell that is not a number
    with pytest.raises(ParseError, match="csv parse failure"):
        load_dense_csv(pa, pb, nu=1.0)


def test_reference_minimizer_accuracy(lasso_20x50, lasso_20x50_reference,
                                      monkeypatch):
    """The reference point meets its tolerance, and a baseline run that
    does not converge raises instead of passing its point off as one."""
    assert lasso_20x50.kkt_dist_inf(lasso_20x50_reference)[0] <= 1e-10
    stalled = ir.RunResult(np.zeros(50), "budget_exceeded",
                           ir.RunRecord(500_000, 0, 1.0, 2.5e-3, 0.0,
                                        "budget_exceeded"))
    monkeypatch.setattr(ir.problems, "fista_solve", lambda prob, cfg: stalled)
    with pytest.raises(RuntimeError, match="stalled at kkt = 2.500e-03"):
        ir.reference_minimizer(lasso_20x50)


@pytest.mark.parametrize("kind", ["lasso", "logistic"])
def test_fista_screened_stop_test_keeps_the_run(kind):
    """``fista_solve`` passes its tolerance as the stop test's floor; it
    stops at the same iteration, on the same point, as with every test
    evaluated in full."""
    if kind == "lasso":
        prob = ir.synthetic_lasso(100, 300, seed=0)
    else:
        prob = ir.synthetic_logistic(50, 31, seed=0)

    class FullStopTest:
        """``prob`` with a stop test that ignores the floor."""

        def __getattr__(self, name):
            return getattr(prob, name)

        def kkt_dist_inf(self, x, floor, screen):
            return prob.kkt_dist_inf(x)

    config = ir.FistaConfig(epsilon=1e-10)
    got = ir.fista_solve(prob, config)
    want = ir.fista_solve(FullStopTest(), config)
    assert got.status == want.status == "converged"
    assert np.array_equal(got.x, want.x)
    assert (got.record.outer_iters, got.record.inner_iters_total,
            got.record.final_kkt) == (want.record.outer_iters,
                                      want.record.inner_iters_total,
                                      want.record.final_kkt)
