"""Property tests for the factor kernels in matcore, on a fixed hypothesis profile.

At d <= 2 the Cholesky factor and the triangular inverse come from closed
forms that must carry LAPACK's bits and fail where LAPACK fails; the
references below call LAPACK one matrix at a time. Gram products take
BLAS gemm where numpy would take syrk, and must keep syrk's bits. The
samplers, at parameters just inside (d-1)/2, give nonsingular draws or
raise. The profile is derandomized with a bounded example count, so every
run draws the same examples.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posdefwalks import matcore, walks
from posdefwalks.errors import DomainError, NotPositiveDefinite
from posdefwalks.matcore import PIVOT_RTOL, SplitKind
from posdefwalks.matdist import make_stream, sample, sample_factor
from posdefwalks.special import Law, ModelParams

PROFILE = settings(derandomize=True, max_examples=100, deadline=None, database=None)


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(
        np.ascontiguousarray(got).view(np.int64), np.ascontiguousarray(want).view(np.int64)
    )


def _log_uniform(rng, lo, hi, n):
    return 10.0 ** rng.uniform(lo, hi, n)


@st.composite
def _cholesky_inputs(draw):
    """A stack of 1 to 32 symmetric d x d matrices, d in {1, 2}, scales 1e-100 to 1e100.

    At d = 2, x11 is within 1e10 of x00, and the pivot x11 - l10^2 is drawn
    as a multiple of the tolerance PIVOT_RTOL * max(x00, x11): within 10x of
    it or far above it. At most one matrix, at a drawn index, is built to
    fail: by a pivot x00 at or below zero, or at d = 2 by a multiple just
    under 1, at zero or below. Hypothesis draws the shape, the failure and a
    seed; the values come from the seed, so that their mantissas are not the
    round numbers hypothesis prefers.
    """
    d = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(1, 32))
    fail_at = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    failure = draw(st.sampled_from(["x00=0", "x00<0"] + ["under", "zero", "negative"] * (d - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.zeros((n, d, d))
    x[:, 0, 0] = _log_uniform(rng, -100, 100, n)
    if d == 2:
        x[:, 1, 1] = x[:, 0, 0] * _log_uniform(rng, -10, 10, n)
        tol = PIVOT_RTOL * np.maximum(x[:, 0, 0], x[:, 1, 1]) / x[:, 1, 1]
        near = rng.random(n) < 0.5
        # The exact pivot is x11 * frac: frac = 1 - rho^2.
        frac = np.where(near, tol * _log_uniform(rng, 0, 1, n), 10.0 ** rng.uniform(np.log10(10 * tol), 0))
        if fail_at is not None:
            frac[fail_at] = {"under": tol[fail_at] * rng.uniform(0.1, 1.0), "zero": 0.0}.get(
                failure, -tol[fail_at] if failure == "negative" else frac[fail_at]
            )
        rho = np.sqrt(1.0 - frac) * rng.choice([1.0, -1.0], n)
        x[:, 1, 0] = x[:, 0, 1] = rho * np.sqrt(x[:, 0, 0] * x[:, 1, 1])
    if fail_at is not None and failure.startswith("x00"):
        x[fail_at, 0, 0] *= 0.0 if failure == "x00=0" else -1.0
    return x


def _lapack_cholesky(x):
    """What matcore.cholesky(x) gives by LAPACK: the upper factor or the error's text."""
    lower = np.zeros(x.shape)
    for i, m in enumerate(x):
        try:
            lower[i] = np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            return f"is not positive definite at batch index {i}"
    diag = np.diagonal(lower, axis1=-2, axis2=-1)
    scale = np.max(np.diagonal(x, axis1=-2, axis2=-1), axis=-1)
    low = np.any(~(diag * diag > PIVOT_RTOL * scale[:, None]), axis=-1)
    if low.any():
        return f"has a Cholesky pivot below tolerance at batch index {np.argmax(low)}"
    return np.swapaxes(lower, -1, -2)


@PROFILE
@given(_cholesky_inputs())
def test_closed_cholesky_is_lapack_bit_for_bit(x):
    want = _lapack_cholesky(x)
    if isinstance(want, str):
        with pytest.raises(NotPositiveDefinite, match=f"{want}$"):
            matcore.cholesky(x)
    else:
        _assert_same_bits(matcore.cholesky(x), want)


@st.composite
def _upper_factors(draw):
    """A stack of 1 to 32 upper triangular d x d matrices with positive diagonal, d in {1, 2}.

    Entries have magnitudes 1e-100 to 1e100, from a drawn seed; at d = 2 some
    corners are +0 or -0.
    """
    d = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(1, 32))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = np.zeros((n, d, d))
    for k in range(d):
        u[:, k, k] = _log_uniform(rng, -100, 100, n)
    if d == 2:
        corner = _log_uniform(rng, -100, 100, n) * rng.choice([1.0, -1.0], n)
        u[:, 0, 1] = np.where(rng.random(n) < 0.2, rng.choice([0.0, -0.0], n), corner)
    return u


@PROFILE
@given(_upper_factors())
def test_closed_triangular_inverse_is_lapack_bit_for_bit(u):
    _assert_same_bits(matcore._triangular_inverse(u), np.triu(np.linalg.inv(u)))


@st.composite
def _posdef(draw, d):
    """q diag(lam) q^T with q orthogonal and lam in [1e-3, 1e3] times a scale in [1e-50, 1e50]."""
    a = np.array(draw(st.lists(st.floats(-1, 1), min_size=d * d, max_size=d * d))).reshape(d, d)
    q = np.linalg.qr(a)[0]
    lam = 10.0 ** np.array(draw(st.lists(st.floats(-3, 3), min_size=d, max_size=d)))
    lam *= 10.0 ** draw(st.floats(-50, 50))
    return matcore.symmetrize((q * lam) @ q.T)


@PROFILE
@given(st.integers(1, 6).flatmap(_posdef))
def test_invert_round_trips(x):
    d = x.shape[-1]
    y = matcore.invert(x)
    np.testing.assert_array_equal(y, y.T)
    assert matcore.is_posdef(y)
    # Backward-stable Cholesky inversion: errors of order d * eps * cond(x).
    w = np.linalg.eigvalsh(x)
    tol = 1e-13 * d * w[-1] / w[0]
    assert np.linalg.norm(x @ y - np.eye(d)) <= tol
    assert np.linalg.norm(matcore.invert(y) - x) <= tol * np.linalg.norm(x)


@PROFILE
@given(st.integers(1, 6).flatmap(lambda d: st.tuples(_posdef(d), _posdef(d))), st.sampled_from(SplitKind))
def test_sym_product_lands_in_the_cone(xy, kind):
    # cond <= 1e6 for each factor, so <= 1e12 for the product: inside PIVOT_RTOL.
    x, y = xy
    z = matcore.sym_product(kind, y, x)
    np.testing.assert_array_equal(z, np.swapaxes(z, -1, -2))
    assert matcore.is_posdef(z)


@st.composite
def _stacks(draw, dims):
    """A stack (n, d, d) or (m, n, d, d) of normal entries, d from ``dims``.

    Each matrix has a scale 10^k, k in [-150, 150], and each entry a further
    factor in [1e-3, 1e3]; values come from a drawn seed.
    """
    d = draw(dims)
    shape = draw(st.one_of(st.tuples(st.integers(1, 64)), st.tuples(st.integers(1, 4), st.integers(1, 32))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** rng.uniform(-150, 150, shape + (1, 1))
    return rng.standard_normal(shape + (d, d)) * scale * _log_uniform(rng, -3, 3, shape + (d, d))


@PROFILE
@given(_stacks(st.integers(1, 6)))
def test_gram_is_numpy_syrk_bit_for_bit(v):
    # numpy sends a buffer times its own transpose to BLAS syrk; _gram copies
    # one operand to take gemm. If a BLAS ever rounds the two differently,
    # this fails, and _gram's bits would move every Gram-law draw.
    vt = np.swapaxes(v, -1, -2)
    _assert_same_bits(matcore._gram(v), vt @ v)
    _assert_same_bits(matcore._gram(vt), v @ vt)


@PROFILE
@given(_stacks(st.integers(1, 9)))
def test_series_traces_are_numpy_trace_bit_for_bit(v):
    m = v.reshape((-1,) + v.shape[-2:])
    _assert_same_bits(walks._traces(m), np.trace(m, axis1=-2, axis2=-1))


@PROFILE
@given(
    st.integers(1, 4),
    st.sampled_from([Law.WISHART, Law.INV_WISHART, Law.BETA2]),
    st.floats(-12, -1),
    st.floats(-12, -1),
    st.integers(1, 64),
    st.integers(0, 2**32 - 1),
)
def test_draws_just_inside_the_bound_are_nonsingular_or_raise(d, law, log2_da, log2_db, n, seed):
    """alpha and beta are (d-1)/2 + 2^k, k in [-12, -1]: Bartlett gamma shapes near 0.

    A factor draw is finite and upper triangular with a positive diagonal,
    so that u^T u is positive definite, or raises DomainError. A Gram draw
    from the same stream is the Gram matrix of that factor, or raises. (Its
    rounded entries can still fail is_posdef's pivot test at d >= 2: such
    a factor spans many decades.)
    """
    p = ModelParams(d, (d - 1) / 2 + 2.0**log2_da, (d - 1) / 2 + 2.0**log2_db)
    try:
        u = sample_factor(law, p, make_stream(seed), size=n)
    except DomainError:
        u = None
    else:
        assert np.isfinite(u).all()
        np.testing.assert_array_equal(np.tril(u, -1), 0.0)
        assert (np.diagonal(u, axis1=-2, axis2=-1) > 0).all()
    try:
        x = sample(law, p, make_stream(seed), size=n)
    except DomainError:
        return
    assert u is not None
    _assert_same_bits(x, matcore.symmetrize(np.swapaxes(u, -1, -2) @ u))
    if d == 1:
        assert matcore.is_posdef(x)
