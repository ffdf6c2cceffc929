"""Samplers for the matrix laws and their algebraic relations."""

import math
import re
import warnings

import numpy as np
import pytest
from scipy import stats

from posdefwalks import matcore, matdist
from posdefwalks.errors import DomainError
from posdefwalks.matcore import SplitKind
from posdefwalks.matdist import (
    make_stream,
    sample,
    sample_beta1,
    sample_beta2,
    sample_factor,
    sample_inv_beta1,
    sample_inv_wishart,
    sample_wishart,
)
from posdefwalks.special import Law, ModelParams, density_wrt_mu

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


# The Wishart Cholesky factor is the Bartlett factor with c = 1..d.


def test_bartlett_diagonal_mean():
    rng = make_stream(2024)
    u = sample_factor(Law.WISHART, ModelParams(1, 3.0, 3.0), rng, size=100_000)
    sq = u[:, 0, 0] ** 2
    se = sq.std(ddof=1) / math.sqrt(len(sq))
    assert abs(sq.mean() - 3.0) < 3 * se


def test_bartlett_offdiag_variance():
    rng = make_stream(2025)
    u = sample_factor(Law.WISHART, ModelParams(2, 3.0, 3.0), rng, size=100_000)
    off = u[:, 0, 1]
    # var of the variance estimator for N(0, 1/2): 2 sigma^4/(n-1).
    se = math.sqrt(2.0 * 0.25 / (len(off) - 1))
    assert abs(off.var(ddof=1) - 0.5) < 3 * se
    assert np.all(u[:, 1, 0] == 0.0)


def test_bartlett_reverse_permutation_law():
    d = 3
    rng = make_stream(2026)
    p = ModelParams(d, 4.0, 4.0)
    u_fwd = sample_factor(Law.WISHART, p, rng, size=30_000)
    # The inverse Wishart factor is B^-1 with B Bartlett at c = d..1.
    u_rev = np.linalg.inv(sample_factor(Law.INV_WISHART, p, rng, size=30_000))
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


@pytest.mark.parametrize("law", [Law.WISHART, Law.INV_WISHART], ids=lambda law: law.value)
def test_one_sided_law_draws_ignore_the_parameter_it_does_not_read(law):
    # Wishart reads alpha only and inverse Wishart beta only; both samplers
    # and the density used to refuse a value of the other below (d-1)/2.
    both = ModelParams(3, 3.0, 3.0)
    p = ModelParams(3, 3.0, 0.5) if law is Law.WISHART else ModelParams(3, 0.5, 3.0)
    for draw in (sample, sample_factor):
        got, want = (draw(law, q, make_stream(27), size=5) for q in (p, both))
        assert got.tobytes() == want.tobytes()
    x = 2.0 * np.eye(3)
    assert density_wrt_mu(law, p, x) == density_wrt_mu(law, both, x)
    (read,) = law.reads
    with pytest.raises(DomainError, match=rf"^need {read} > \(d-1\)/2 = 1.0, got {read}=0.5$"):
        sample(law, ModelParams(3, 0.5, 0.5), make_stream(27))


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
        rotated = q.T @ x @ q
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


@pytest.mark.parametrize(
    "key, name",
    [
        ((-1, 0), "seed"), ((2**64, 0), "seed"), ((1.0, 0), "seed"),
        ((0, -1), "stream_id"), ((0, 2**64), "stream_id"),
    ],
    ids=["seed=-1", "seed=2^64", "seed=1.0", "stream_id=-1", "stream_id=2^64"],
)
def test_make_stream_refuses_a_key_outside_uint64_naming_it(key, name):
    # A negative key used to raise numpy's OverflowError, 2^64 too.
    with pytest.raises(DomainError, match=f"got {name}="):
        make_stream(*key)
    make_stream(2**64 - 1, np.uint64(2**64 - 1))  # the largest key is legal


@pytest.mark.parametrize("law", list(Law))
def test_negative_size_rejected_naming_it(law):
    p = ModelParams(2, 2.0, 3.0)
    with pytest.raises(DomainError, match="size"):
        sample(law, p, make_stream(29), size=-1)
    assert sample(law, p, make_stream(29), size=0).shape == (0, 2, 2)


_GRAM_LAWS = (Law.WISHART, Law.INV_WISHART, Law.BETA2)
_FACTOR_CASES = [(law, kind) for law in _GRAM_LAWS for kind in SplitKind]


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("size", [None, 3])
@pytest.mark.parametrize("law, kind", _FACTOR_CASES)
def test_sample_factor_blocks_equal_successive_calls(law, kind, size):
    p = ModelParams(3, 2.5, 4.0)
    blocked, single = make_stream(41), make_stream(41)
    got = sample_factor(law, p, blocked, size=size, kind=kind, blocks=4)
    want = np.stack([sample_factor(law, p, single, size=size, kind=kind) for _ in range(4)])
    assert _same_bits(got, want)
    # The stream is left where the successive calls leave it.
    assert _same_bits(sample_factor(law, p, blocked, 2, kind), sample_factor(law, p, single, 2, kind))


@pytest.mark.parametrize("size", [None, 5])
def test_sample_beta2_blocks_equal_successive_calls(size):
    p = ModelParams(2, 2.0, 5.0)
    blocked, single = make_stream(42), make_stream(42)
    got = sample_beta2(p, blocked, size=size, blocks=3)
    want = np.stack([sample_beta2(p, single, size=size) for _ in range(3)])
    assert _same_bits(got, want)
    assert _same_bits(sample_beta2(p, blocked, 4), sample_beta2(p, single, 4))


def test_zero_and_negative_blocks():
    p = ModelParams(2, 2.0, 5.0)
    rng, fresh = make_stream(43), make_stream(43)
    assert sample_beta2(p, rng, size=4, blocks=0).shape == (0, 4, 2, 2)
    assert _same_bits(sample_beta2(p, rng, 4), sample_beta2(p, fresh, 4))
    with pytest.raises(DomainError, match="blocks"):
        sample_factor(Law.BETA2, p, rng, size=4, blocks=-1)


@pytest.mark.parametrize("law", [Law.BETA1, Law.INV_BETA1])
def test_blocks_rejected_for_beta1_laws(law):
    p = ModelParams(2, 2.0, 5.0)
    with pytest.raises(DomainError, match=f"blocks is not supported for law {law.value}"):
        sample(law, p, make_stream(43), size=4, blocks=2)
    with pytest.raises(DomainError, match="blocks"):
        sample_factor(law, p, make_stream(43), size=4, kind=SplitKind.SQUARE_ROOT, blocks=2)


@pytest.mark.parametrize(
    "law, p, named",
    [
        (Law.WISHART, ModelParams(1, 1e308, 1e308), "alpha=1e+308"),
        (Law.INV_WISHART, ModelParams(1, 2.0, 1e-6), "beta=1e-06"),
        (Law.BETA2, ModelParams(1, 1e308, 0.1), "alpha=1e+308, beta=0.1"),
        (Law.BETA1, ModelParams(1, 1e308, 2.0), "alpha=1e+308, beta=2.0"),
        (Law.BETA1, ModelParams(1, 2.0, 1e308), "alpha=2.0, beta=1e+308"),
    ],
)
def test_non_finite_draw_names_the_parameter(law, p, named):
    # These used to return inf entries (or, for a zero gamma draw, raise
    # numpy's LinAlgError from the triangular inverse).
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DomainError, match=re.escape(f"{law.value} draw is not finite at {named}")):
            sample(law, p, make_stream(44), size=4)
        blocks = 2 if law in _GRAM_LAWS else None
        with pytest.raises(DomainError, match="not finite"):
            sample_factor(law, p, make_stream(44), size=4, kind=SplitKind.SQUARE_ROOT, blocks=blocks)


@pytest.mark.parametrize("draw", ["sample_beta2", "sample_factor"])
def test_d2_beta2_product_overflow_is_a_typed_error_without_a_warning(draw, monkeypatch):
    # A scaled by 1e200 and B by 1e-200: the closed-form product A B^-1 has
    # entries near 1e400, which overflow to inf inside the draw.
    bartlett = matdist._bartlett_blocks

    def scaled(shapes, rng, size, blocks):
        u = bartlett(shapes, rng, size, blocks)
        u[:, 0] *= 1e200
        u[:, 1] *= 1e-200
        return u

    monkeypatch.setattr(matdist, "_bartlett_blocks", scaled)
    args = (Law.BETA2,) if draw == "sample_factor" else ()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=re.escape("beta2 draw is not finite at alpha=2.0, beta=5.0")):
            getattr(matdist, draw)(*args, ModelParams(2, 2.0, 5.0), make_stream(45), size=4)


_EDGE_WISHART = ModelParams(1, 0.00390625, 1.0)
_EDGE_BETA2 = ModelParams(2, 0.5078125, 1.0)
_SINGULAR_WISHART = "wishart draw is singular at alpha=0.00390625"
_SINGULAR_BETA2 = "beta2 draw is singular at alpha=0.5078125, beta=1.0"


@pytest.mark.parametrize(
    "draw, named",
    [
        (lambda: sample_factor(Law.WISHART, _EDGE_WISHART, make_stream(0), size=8), _SINGULAR_WISHART),
        (lambda: sample_wishart(_EDGE_WISHART, make_stream(0), size=8), _SINGULAR_WISHART),
        (lambda: sample_wishart(_EDGE_WISHART, make_stream(0), size=4, blocks=2), _SINGULAR_WISHART),
        (lambda: sample_beta2(_EDGE_BETA2, make_stream(3), size=64), _SINGULAR_BETA2),
        (lambda: sample_factor(Law.BETA2, _EDGE_BETA2, make_stream(3), size=64), _SINGULAR_BETA2),
        (
            lambda: sample_beta1(ModelParams(2, 0.5078125, 0.6), make_stream(3), size=64),
            "beta1 draw is singular at alpha=0.5078125, beta=0.6",
        ),
    ],
    ids=["factor-wishart", "wishart", "wishart-blocks", "beta2", "factor-beta2", "beta1"],
)
def test_zero_gamma_draw_raises_naming_the_parameter(draw, named):
    # A Bartlett gamma variate of shape near 0 underflows to exactly 0; these
    # draws used to return a factor or matrix that is singular, without an error.
    with pytest.raises(DomainError, match=re.escape(named)):
        draw()
