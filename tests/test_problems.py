"""Problem definitions: gradients, KKT residuals, generators, ingestion."""

import numpy as np
import pytest
import scipy.sparse as sp

import irsplit as ir
from irsplit.errors import ParseError
from irsplit.problems import (DesignMatrix, L1ShiftedProx, load_dense_csv,
                              load_libsvm, save_dense_csv, save_libsvm)


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


def test_design_matrix_shape_checks():
    d = DesignMatrix(np.ones((3, 2)))
    with pytest.raises(ValueError, match="dimension"):
        d.apply(np.ones(3))
    with pytest.raises(ValueError, match="dimension"):
        d.apply_transpose(np.ones(2))


# ---------------------------------------------------------------------------
# LASSO
# ---------------------------------------------------------------------------

def test_lasso_gradient_zero_at_least_squares_solution():
    rng = np.random.default_rng(41)
    a = rng.standard_normal((5, 5)) + 3 * np.eye(5)
    b = rng.standard_normal(5)
    prob = ir.LassoProblem(DesignMatrix(a), b, 0.1)
    x_ls = np.linalg.solve(a, b)
    assert np.linalg.norm(prob.f_gradient(x_ls)) <= 1e-10


def test_lasso_gradient_identity_design():
    prob = ir.LassoProblem(DesignMatrix(np.eye(4)), np.zeros(4), 0.1)
    x = np.array([1.0, -2.0, 0.0, 3.0])
    assert np.array_equal(prob.f_gradient(x), x)


def test_lasso_gradient_matches_differences():
    rng = np.random.default_rng(42)
    a = rng.standard_normal((8, 5))
    b = rng.standard_normal(8)
    prob = ir.LassoProblem(DesignMatrix(a), b, 0.3)
    for _ in range(20):
        x = rng.standard_normal(5)
        h = 1e-6 * (1.0 + np.max(np.abs(x)))
        fd = central_difference(prob.f_value, x, h)
        g = prob.f_gradient(x)
        assert np.linalg.norm(g - fd) / (1.0 + np.linalg.norm(fd)) <= 1e-6


def test_lasso_kkt_at_origin_and_threshold():
    rng = np.random.default_rng(43)
    a = rng.standard_normal((6, 4))
    b = rng.standard_normal(6)
    atb = a.T @ b
    # below the threshold the origin is not optimal
    prob = ir.LassoProblem(DesignMatrix(a), b, 0.5 * np.abs(atb).max())
    expected = np.maximum(np.abs(atb) - prob.nu, 0.0).max()
    assert prob.kkt_dist_inf(np.zeros(4)) == pytest.approx(expected)
    # at the threshold the origin is exactly optimal
    prob2 = ir.LassoProblem(DesignMatrix(a), b, float(np.abs(atb).max()))
    assert prob2.kkt_dist_inf(np.zeros(4)) == 0.0


def test_lasso_kkt_zero_at_reference(lasso_20x50, lasso_20x50_reference):
    assert lasso_20x50.kkt_dist_inf(lasso_20x50_reference) <= 1e-10


def test_lasso_kkt_matches_grid_oracle():
    rng = np.random.default_rng(44)
    a = rng.standard_normal((7, 5))
    b = rng.standard_normal(7)
    prob = ir.LassoProblem(DesignMatrix(a), b, 0.6)
    for _ in range(10):
        x = rng.standard_normal(5)
        x[rng.random(5) < 0.4] = 0.0  # exercise both branches
        oracle = kkt_grid_oracle(prob.f_gradient(x), x, prob.nu)
        assert abs(prob.kkt_dist_inf(x) - oracle) <= 1e-5


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
    assert prob.kkt_dist_inf(x0) <= 1e-10


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
        assert abs(prob.kkt_dist_inf(x) - oracle) <= 1e-5


def test_logistic_prox_skips_bias():
    prox = L1ShiftedProx(5.0, skip_first=True)
    p = np.zeros(3)
    x = np.array([0.4, 0.4, -0.4])
    z = prox.solve(p, x, 1.0)
    assert z[0] == pytest.approx(0.4)  # bias unshrunk
    assert z[1] == 0.0 and z[2] == 0.0


def test_logistic_subproblem_membership(lasso_20x50):
    prob = ir.synthetic_logistic(12, 6, seed=5)
    fproc, prox = ir.logistic_make_solvers(prob, 1.0)
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


def test_synthetic_lasso_sparse_backend():
    p = ir.synthetic_lasso(15, 30, density=0.3, seed=8)
    assert p.A.is_sparse
    dense_copy = ir.LassoProblem(DesignMatrix(p.A.toarray()), p.b, p.nu)
    x = np.random.default_rng(0).standard_normal(30)
    assert np.allclose(p.kkt_dist_inf(x), dense_copy.kkt_dist_inf(x),
                       rtol=1e-12)


def test_synthetic_lasso_threshold_nu_makes_origin_optimal():
    p = ir.synthetic_lasso(10, 25, nu_fraction=1.0, seed=9)
    assert p.kkt_dist_inf(np.zeros(25)) == 0.0


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
    path = tmp_path / "bad.libsvm"
    path.write_text("+1 1:1.0\n-1 a:1\n")
    with pytest.raises(ParseError, match="line 2"):
        load_libsvm(path, nu=0.5)


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


def test_dense_csv_header_skip(tmp_path):
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    pa.write_text("c1,c2\n1.0,2.0\n")
    pb.write_text("y\n0.5\n")
    prob = load_dense_csv(pa, pb, nu=1.0, skip_header=True)
    assert prob.A.shape == (1, 2)
    assert prob.b[0] == pytest.approx(0.5)


def test_reference_minimizer_accuracy(lasso_20x50, lasso_20x50_reference):
    assert lasso_20x50.kkt_dist_inf(lasso_20x50_reference) <= 1e-10
