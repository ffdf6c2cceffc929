"""Factorizations, symmetrised products, eigenvalue utilities."""

import warnings

import numpy as np
import pytest

from posdefwalks import matcore
from posdefwalks.errors import EigenFailure, NotPositiveDefinite
from posdefwalks.matcore import SplitKind

import oracles

# Frozen from oracles.hand_cholesky_2x2([[2,1],[1,2]]):
#   [[1.4142135623730951, 0.7071067811865475], [0.0, 1.224744871391589]]
HAND_CHOL = np.array(
    [[1.4142135623730951, 0.7071067811865475], [0.0, 1.224744871391589]]
)


def rand_posdef(rng, d, eps=1e-3):
    g = rng.normal(size=(d, d))
    return g.T @ g + eps * np.eye(d)


def test_cholesky_identity():
    np.testing.assert_array_equal(matcore.cholesky(np.eye(2)), np.eye(2))


def test_cholesky_diagonal():
    u = matcore.cholesky(np.diag([4.0, 9.0]))
    np.testing.assert_allclose(u, np.diag([2.0, 3.0]), rtol=0, atol=1e-14)


def test_cholesky_hand_2x2():
    x = np.array([[2.0, 1.0], [1.0, 2.0]])
    u = matcore.cholesky(x)
    np.testing.assert_allclose(u, HAND_CHOL, rtol=1e-15)
    np.testing.assert_allclose(u, oracles.hand_cholesky_2x2(x), rtol=1e-15)
    assert np.all(np.diag(u) > 0) and u[1, 0] == 0.0


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        matcore.cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_sqrt_factor_examples():
    np.testing.assert_allclose(matcore.sqrt_factor(np.eye(3)), np.eye(3), atol=1e-14)
    np.testing.assert_allclose(
        matcore.sqrt_factor(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12
    )
    np.testing.assert_allclose(matcore.sqrt_factor(np.array([[16.0]])), [[4.0]])


def test_reconstruction_random():
    rng = np.random.default_rng(101)
    for d in (1, 2, 3, 5):
        for _ in range(20):
            x = rand_posdef(rng, d)
            u = matcore.cholesky(x)
            b = matcore.sqrt_factor(x)
            scale = np.linalg.norm(x)
            assert np.linalg.norm(u.T @ u - x) / scale < 1e-10
            assert np.linalg.norm(b @ b - x) / scale < 1e-10
            np.testing.assert_allclose(b, b.T, atol=1e-12)


def test_sym_product_identity_and_scalar():
    x = rand_posdef(np.random.default_rng(4), 2)
    for kind in SplitKind:
        np.testing.assert_allclose(matcore.sym_product(kind, np.eye(2), x), x, atol=1e-12)
        np.testing.assert_allclose(
            matcore.sym_product(kind, np.array([[2.0]]), np.array([[3.0]])), [[6.0]]
        )
        np.testing.assert_allclose(
            matcore.sym_product_alt(kind, np.eye(2), x), x, atol=1e-12
        )
        np.testing.assert_allclose(
            matcore.sym_product_alt(kind, np.array([[2.0]]), np.array([[3.0]])), [[6.0]]
        )


def test_sym_product_hand_2x2():
    # y^{1/2} x y^{1/2} with y^{1/2} = diag(2,3) evaluated by hand.
    y = np.diag([4.0, 9.0])
    x = np.array([[2.0, 1.0], [1.0, 2.0]])
    expected = np.array([[8.0, 6.0], [6.0, 18.0]])
    np.testing.assert_allclose(
        matcore.sym_product(SplitKind.SQUARE_ROOT, y, x), expected, atol=1e-12
    )


def test_alt_coincides_for_square_root():
    rng = np.random.default_rng(5)
    for _ in range(10):
        y, x = rand_posdef(rng, 3), rand_posdef(rng, 3)
        np.testing.assert_allclose(
            matcore.sym_product(SplitKind.SQUARE_ROOT, y, x),
            matcore.sym_product_alt(SplitKind.SQUARE_ROOT, y, x),
            rtol=1e-10,
            atol=1e-12,
        )


def test_eigenvalues_examples():
    np.testing.assert_allclose(matcore.eigenvalues(np.eye(3)), [1.0, 1.0, 1.0])
    np.testing.assert_allclose(matcore.eigenvalues(np.diag([9.0, 4.0])), [9.0, 4.0])
    np.testing.assert_allclose(
        matcore.eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]])), [3.0, 1.0], atol=1e-12
    )


def test_eigenvalues_descending_and_trace():
    rng = np.random.default_rng(6)
    for _ in range(10):
        x = rand_posdef(rng, 4)
        lam = matcore.eigenvalues(x)
        assert np.all(np.diff(lam) <= 0) and np.all(lam > 0)
        assert abs(lam.sum() - matcore.trace(x)) / matcore.trace(x) < 1e-10


def test_invert_det_trace_examples():
    np.testing.assert_allclose(matcore.invert(np.eye(3)), np.eye(3), atol=1e-14)
    assert abs(matcore.det(np.diag([2.0, 3.0])) - 6.0) < 1e-12
    assert matcore.trace(np.array([[2.0, 1.0], [1.0, 2.0]])) == 4.0


def test_invert_roundtrip():
    rng = np.random.default_rng(7)
    for _ in range(10):
        x = rand_posdef(rng, 3)
        np.testing.assert_allclose(x @ matcore.invert(x), np.eye(3), atol=1e-10)


def test_eigenvalue_sum_bounds():
    rng = np.random.default_rng(8)
    for _ in range(50):
        x, y = rand_posdef(rng, 3), rand_posdef(rng, 3)
        s = matcore.eigenvalues(x + y)
        tol = 1e-12 * (matcore.trace(x) + matcore.trace(y))
        assert matcore.lambda_min(x) + matcore.lambda_min(y) <= s[-1] + tol
        assert s[0] <= matcore.lambda_max(x) + matcore.lambda_max(y) + tol


def test_eigenvalue_product_bounds():
    rng = np.random.default_rng(9)
    for _ in range(50):
        x, y = rand_posdef(rng, 3), rand_posdef(rng, 3)
        for kind in SplitKind:
            prod = matcore.sym_product(kind, y, x)
            lo = matcore.lambda_min(x) * matcore.lambda_min(y)
            hi = matcore.lambda_max(x) * matcore.lambda_max(y)
            assert lo * (1 - 1e-10) <= matcore.lambda_min(prod)
            assert matcore.lambda_max(prod) <= hi * (1 + 1e-10)


def test_det_multiplicativity():
    rng = np.random.default_rng(10)
    for _ in range(30):
        x, y = rand_posdef(rng, 3), rand_posdef(rng, 3)
        target = matcore.det(x) * matcore.det(y)
        for kind in SplitKind:
            got = matcore.det(matcore.sym_product(kind, y, x))
            assert abs(got - target) / target < 1e-10


def test_split_kinds_share_spectrum():
    # w(y) x w(y)^T is similar to x w(y)^T w(y) = xy whatever the split, so
    # the alternative product realises the spectrum of xy under both kinds.
    # The plain product w(y)^T x w(y) is instead similar to x w(y) w(y)^T,
    # and u u^T != y for the triangular factor, so its spectrum is kind
    # dependent; only the laws downstream coincide, not the paths.
    rng = np.random.default_rng(11)
    for _ in range(20):
        x, y = rand_posdef(rng, 3), rand_posdef(rng, 3)
        a = matcore.eigenvalues(matcore.sym_product_alt(SplitKind.CHOLESKY, y, x))
        b = matcore.eigenvalues(matcore.sym_product(SplitKind.SQUARE_ROOT, y, x))
        ref = np.sort(np.linalg.eigvals(x @ y).real)[::-1]
        np.testing.assert_allclose(a, b, rtol=1e-8)
        np.testing.assert_allclose(a, ref, rtol=1e-8)


def test_batched_shapes():
    rng = np.random.default_rng(12)
    g = rng.normal(size=(6, 2, 2))
    xs = np.swapaxes(g, -1, -2) @ g + 1e-3 * np.eye(2)
    us = matcore.cholesky(xs)
    assert us.shape == (6, 2, 2)
    np.testing.assert_allclose(np.swapaxes(us, -1, -2) @ us, xs, atol=1e-10)
    assert matcore.trace(xs).shape == (6,)
    assert matcore.eigenvalues(xs).shape == (6, 2)
    assert matcore.logdet(xs).shape == (6,)
    np.testing.assert_allclose(
        np.exp(matcore.logdet(xs)), matcore.det(xs), rtol=1e-12
    )


def test_symmetrize_cleans_roundoff():
    m = np.array([[1.0, 1e-14], [0.0, 1.0]])
    s = matcore.symmetrize(m)
    np.testing.assert_array_equal(s, s.T)


def _stack_with(bad, shape=(20, 5)):
    x = np.broadcast_to(np.eye(2), shape + (2, 2)).copy()
    x[12, 3] = bad
    return x


@pytest.mark.parametrize(
    "fn, bad, phrase",
    [
        (matcore.cholesky, -np.eye(2), "is not positive definite"),
        (matcore.cholesky, [[1.0, 1.0], [1.0, 1.0 + 1e-15]], "Cholesky pivot below tolerance"),
        (matcore.sqrt_factor, -np.eye(2), "nonpositive eigenvalue"),
    ],
)
def test_factor_failure_names_first_batch_index(fn, bad, phrase):
    # A blocked (moves, chains, d, d) stack: the message names move and chain.
    x = _stack_with(bad)
    x[15, 0] = bad
    with pytest.raises(NotPositiveDefinite, match=f"{phrase} at batch index 12,3$"):
        fn(x)
    with pytest.raises(NotPositiveDefinite, match=f"{phrase}$"):
        fn(np.asarray(bad))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("fn", [matcore.cholesky, matcore.sqrt_factor])
def test_nan_fails_the_factorizations_naming_its_batch_index(fn, d):
    # The pivot and eigenvalue tests used to compare with <=, which a NaN passes.
    x = np.broadcast_to(np.eye(d), (20, 5, d, d)).copy()
    x[12, 3] = np.nan
    # At d = 3 the eigensolver itself does not converge on a NaN matrix.
    error = EigenFailure if fn is matcore.sqrt_factor and d == 3 else NotPositiveDefinite
    with pytest.raises(error, match="at batch index 12,3$"):
        fn(x)


def test_posdef_rejects_entries_out_of_range_without_warning():
    for big in (1e308, np.inf, np.nan):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotPositiveDefinite, match="init entries are out of range"):
                matcore.posdef(np.diag([big, 1.0]), name="init")
    assert not matcore.is_posdef([[np.inf]])
    # Just inside the range, symmetrize keeps its bits.
    x = np.array([[8e307, 1e307], [1e307, 8e307]])
    np.testing.assert_array_equal(matcore.posdef(x), x)
