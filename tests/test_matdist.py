"""Samplers for the matrix laws and their algebraic relations."""

import math

import numpy as np
import pytest
from scipy import stats

from posdefwalks import matcore, matdist
from posdefwalks.matcore import SplitKind
from posdefwalks.matdist import (
    BartlettSpec,
    make_stream,
    sample,
    sample_bartlett,
    sample_beta1,
    sample_beta2,
    sample_factor,
    sample_inv_beta1,
    sample_inv_wishart,
    sample_wishart,
)
from posdefwalks.special import Law, ModelParams

import oracles

P_FLOOR = 1e-3


def two_sample_ok(a, b):
    return stats.ks_2samp(a, b, method="asymp").pvalue > P_FLOOR


def ks_distance_to_cdf(sample_vals, grid, cdf_grid):
    """Exact one-sample KS distance against a tabulated oracle CDF."""
    xs = np.sort(sample_vals)
    f = np.interp(xs, grid, cdf_grid)
    n = len(xs)
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return max(upper, lower)


def test_bartlett_diagonal_mean():
    rng = make_stream(2024)
    u = sample_bartlett(BartlettSpec(3.0, (1,)), rng, size=100_000)
    sq = u[:, 0, 0] ** 2
    se = sq.std(ddof=1) / math.sqrt(len(sq))
    assert abs(sq.mean() - 3.0) < 3 * se


def test_bartlett_offdiag_variance():
    rng = make_stream(2025)
    u = sample_bartlett(BartlettSpec(3.0, (1, 2)), rng, size=100_000)
    off = u[:, 0, 1]
    # var of the variance estimator for N(0, 1/2): 2 sigma^4/(n-1).
    se = math.sqrt(2.0 * 0.25 / (len(off) - 1))
    assert abs(off.var(ddof=1) - 0.5) < 3 * se
    assert np.all(u[:, 1, 0] == 0.0)


def test_bartlett_reverse_permutation_law():
    d = 3
    rng = make_stream(2026)
    u_fwd = sample_bartlett(BartlettSpec(4.0, tuple(range(1, d + 1))), rng, size=30_000)
    u_rev = sample_bartlett(BartlettSpec(4.0, tuple(range(d, 0, -1))), rng, size=30_000)
    omega = np.eye(d)[::-1]
    flipped = np.swapaxes(omega @ u_fwd @ omega, -1, -2)
    for k in range(d):
        assert two_sample_ok(flipped[:, k, k], u_rev[:, k, k]), k


@pytest.mark.parametrize("law", [Law.WISHART, Law.INV_WISHART, Law.BETA2])
def test_sample_factor_splits_the_draw_of_the_same_stream(law):
    p = ModelParams(3, 2.5, 6.0)
    x = sample(law, p, make_stream(31), size=50)
    u = sample_factor(law, p, make_stream(31), size=50)
    assert np.all(np.tril(u, k=-1) == 0.0)
    np.testing.assert_array_equal(matcore.symmetrize(np.swapaxes(u, -1, -2) @ u), x)
    w = sample_factor(law, p, make_stream(31), size=50, kind=SplitKind.SQUARE_ROOT)
    np.testing.assert_array_equal(w, matcore.sqrt_factor(x))
    np.testing.assert_allclose(w @ w, x, rtol=1e-10, atol=1e-12)


def test_wishart_d1_is_gamma():
    rng = make_stream(11)
    xs = sample_wishart(ModelParams(1, 2.0, 2.0), rng, size=100_000)[:, 0, 0]
    grid = np.geomspace(1e-4, 40.0, 400)
    cdf = oracles.gamma_cdf_quadrature(2.0, grid)
    assert ks_distance_to_cdf(xs, grid, cdf) < 0.01


def test_wishart_trace_mean():
    rng = make_stream(12)
    tr = matcore.trace(sample_wishart(ModelParams(2, 3.0, 3.0), rng, size=100_000))
    se = tr.std(ddof=1) / math.sqrt(len(tr))
    assert abs(tr.mean() - 6.0) < 3 * se


def test_wishart_det_positive():
    rng = make_stream(13)
    x = sample_wishart(ModelParams(3, 2.0, 2.0), rng, size=5_000)
    assert np.all(matcore.det(x) > 0)


def test_inv_wishart_d1_mean():
    rng = make_stream(14)
    xs = sample_inv_wishart(ModelParams(1, 5.0, 5.0), rng, size=100_000)[:, 0, 0]
    se = xs.std(ddof=1) / math.sqrt(len(xs))
    assert abs(xs.mean() - oracles.inv_gamma_mean(5.0)) < 3 * se


def test_inv_wishart_inverts_to_wishart():
    rng = make_stream(15)
    p = ModelParams(2, 4.0, 4.0)
    a = matcore.trace(matcore.invert(sample_inv_wishart(p, rng, size=40_000)))
    b = matcore.trace(sample_wishart(p, rng, size=40_000))
    assert two_sample_ok(a, b)


def test_beta2_d1_mean():
    rng = make_stream(16)
    xs = sample_beta2(ModelParams(1, 2.0, 5.0), rng, size=100_000)[:, 0, 0]
    se = xs.std(ddof=1) / math.sqrt(len(xs))
    assert abs(xs.mean() - 0.5) < 3 * se


def test_beta2_inverse_law():
    rng = make_stream(17)
    a = matcore.logdet(matcore.invert(sample_beta2(ModelParams(2, 2.0, 5.0), rng, size=40_000)))
    b = matcore.logdet(sample_beta2(ModelParams(2, 5.0, 2.0), rng, size=40_000))
    assert two_sample_ok(a, b)


def test_beta2_agrees_with_product_route():
    # IW(beta) conjugating W(alpha) through the symmetric root.
    p = ModelParams(2, 2.0, 5.0)
    rng = make_stream(18)
    y = sample_inv_wishart(ModelParams(2, 5.0, 5.0), rng, size=40_000)
    x = sample_wishart(ModelParams(2, 2.0, 2.0), rng, size=40_000)
    combo = matcore.trace(matcore.sym_product(SplitKind.SQUARE_ROOT, y, x))
    direct = matcore.trace(sample_beta2(p, rng, size=40_000))
    assert two_sample_ok(combo, direct)


def test_beta1_d1_mean():
    rng = make_stream(19)
    xs = sample_beta1(ModelParams(1, 2.0, 3.0), rng, size=100_000)[:, 0, 0]
    se = xs.std(ddof=1) / math.sqrt(len(xs))
    assert abs(xs.mean() - 0.4) < 3 * se


def test_beta1_support():
    rng = make_stream(20)
    x = sample_beta1(ModelParams(2, 2.0, 3.0), rng, size=100_000)
    gap = np.eye(2) - x
    lam_min = np.linalg.eigvalsh(gap)[:, 0]
    assert np.all(lam_min > 0)


def test_beta1_beta2_bridge():
    rng = make_stream(21)
    inv = matcore.invert(sample_beta1(ModelParams(2, 2.0, 3.0), rng, size=40_000))
    a = matcore.trace(inv - np.eye(2))
    b = matcore.trace(sample_beta2(ModelParams(2, 3.0, 2.0), rng, size=40_000))
    assert two_sample_ok(a, b)


def test_inv_beta1_is_inverse():
    rng1 = make_stream(22)
    rng2 = make_stream(22)
    a = sample_inv_beta1(ModelParams(2, 2.0, 3.0), rng1, size=100)
    b = matcore.invert(sample_beta1(ModelParams(2, 2.0, 3.0), rng2, size=100))
    np.testing.assert_allclose(a, b, rtol=1e-12)


def test_beta_gamma_algebra():
    # W(alpha+beta) conjugates a Beta I into W(alpha); inverse route likewise.
    alpha, beta = 2.0, 3.0
    for d in (1, 2, 3):
        rng = make_stream(23, d)
        n = 30_000
        p = ModelParams(d, alpha, beta)
        whole = ModelParams(d, alpha + beta, alpha + beta)
        tgt = ModelParams(d, alpha, alpha)
        combo = matcore.sym_product(
            SplitKind.SQUARE_ROOT,
            sample_wishart(whole, rng, size=n),
            sample_beta1(p, rng, size=n),
        )
        direct = sample_wishart(tgt, rng, size=n)
        for f in (matcore.trace, matcore.logdet, matcore.lambda_max):
            assert two_sample_ok(f(combo), f(direct)), (d, f.__name__)
        combo_inv = matcore.sym_product(
            SplitKind.SQUARE_ROOT,
            sample_inv_wishart(whole, rng, size=n),
            sample_inv_beta1(p, rng, size=n),
        )
        direct_inv = sample_inv_wishart(tgt, rng, size=n)
        for f in (matcore.trace, matcore.logdet, matcore.lambda_max):
            assert two_sample_ok(f(combo_inv), f(direct_inv)), (d, f.__name__)


def test_wishart_additivity():
    rng = make_stream(24)
    n = 30_000
    s = sample_wishart(ModelParams(2, 2.0, 2.0), rng, size=n) + sample_wishart(
        ModelParams(2, 1.5, 1.5), rng, size=n
    )
    direct = sample_wishart(ModelParams(2, 3.5, 3.5), rng, size=n)
    for f in (matcore.trace, matcore.logdet, matcore.lambda_max):
        assert two_sample_ok(f(s), f(direct)), f.__name__


def test_lukacs_independence_both_kinds():
    rng = make_stream(25)
    n = 100_000
    x = sample_wishart(ModelParams(2, 2.0, 2.0), rng, size=n)
    y = sample_wishart(ModelParams(2, 3.0, 3.0), rng, size=n)
    total = x + y
    t = matcore.trace(total)
    for kind in SplitKind:
        part = matcore.sym_product_alt(kind, matcore.invert(total), x)
        corr = np.corrcoef(matcore.logdet(part), t)[0, 1]
        assert abs(corr) < 4.0 / math.sqrt(n), kind


def test_orthogonal_invariance():
    g = np.random.default_rng(26).normal(size=(2, 2))
    q, _ = np.linalg.qr(g)
    rng = make_stream(27)
    n = 30_000
    for law, p in (
        (Law.WISHART, ModelParams(2, 3.0, 3.0)),
        (Law.INV_WISHART, ModelParams(2, 4.0, 4.0)),
        (Law.BETA2, ModelParams(2, 2.5, 6.0)),
    ):
        x = sample(law, p, rng, size=n)
        y = sample(law, p, rng, size=n)
        rotated = matcore.congruence(q, x)
        assert two_sample_ok(rotated[:, 0, 1], y[:, 0, 1]), law


def test_sample_dispatch_matches_direct():
    for law, fn in (
        (Law.WISHART, sample_wishart),
        (Law.INV_WISHART, sample_inv_wishart),
        (Law.BETA1, sample_beta1),
        (Law.INV_BETA1, sample_inv_beta1),
        (Law.BETA2, sample_beta2),
    ):
        p = ModelParams(2, 2.0, 3.0)
        a = sample(law, p, make_stream(28), size=8)
        b = fn(p, make_stream(28), size=8)
        np.testing.assert_array_equal(a, b)


def test_stream_determinism():
    p = ModelParams(2, 2.5, 6.0)
    a = sample_beta2(p, make_stream(123, 5), size=50)
    b = sample_beta2(p, make_stream(123, 5), size=50)
    c = sample_beta2(p, make_stream(123, 6), size=50)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
