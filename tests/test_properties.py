"""Property tests for the factor kernels in matcore, on a fixed hypothesis profile.

At d <= 2 the Cholesky factor, and at d <= 3 the triangular inverse, come
from closed forms that must carry LAPACK's bits, down to the sign of a zero
at exponents of +-1000, and fail where LAPACK fails; the references below
call LAPACK one matrix at a time. The d = 3 inverse rests on an emulated
fused multiply-add, checked against exact rational arithmetic. Gram
products take BLAS gemm where numpy would take syrk, and must keep syrk's
bits. The samplers, at parameters just inside (d-1)/2, give nonsingular
draws or raise. The profile is derandomized with a bounded example count,
so every run draws the same examples.
"""

from fractions import Fraction

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
    """A stack of 1 to 32 upper triangular d x d matrices with positive diagonal, d in {1, 2, 3}.

    Entries have magnitudes 1e-E to 1e+E, E in {30, 100}, from a drawn seed;
    at d >= 2 some upper entries are +0 or -0. At d = 3 the matrices with an
    entry beyond 2^240 (about 1.8e72) go to LAPACK, so E = 30 keeps every
    matrix on the closed form and E = 100 mixes both paths in one stack.
    """
    d = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(1, 32))
    e = draw(st.sampled_from([30, 100]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = np.zeros((n, d, d))
    for k in range(d):
        u[:, k, k] = _log_uniform(rng, -e, e, n)
    for i, j in zip(*np.triu_indices(d, 1)):
        entry = _log_uniform(rng, -e, e, n) * rng.choice([1.0, -1.0], n)
        u[:, i, j] = np.where(rng.random(n) < 0.2, rng.choice([0.0, -0.0], n), entry)
    return u


@PROFILE
@given(_upper_factors())
def test_closed_triangular_inverse_is_lapack_bit_for_bit(u):
    _assert_same_bits(matcore._triangular_inverse(u), np.triu(np.linalg.inv(u)))


@st.composite
def _extreme_factors(draw):
    """A stack of 1 to 32 upper triangular 3 x 3 matrices with entries s * 2^k, s normal, |k| <= 1000.

    Each entry is, with probability 0.05, replaced by +0, -0, inf, -inf or
    NaN, so diagonals can be zero and products overflow or underflow: the
    region where the closed form is not exact and LAPACK must take over.
    """
    n = draw(st.integers(1, 32))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    iu = np.triu_indices(3)
    values = rng.standard_normal((n, 6)) * 2.0 ** rng.integers(-1000, 1001, (n, 6))
    special = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], (n, 6))
    u = np.zeros((n, 3, 3))
    u[:, iu[0], iu[1]] = np.where(rng.random((n, 6)) < 0.05, special, values)
    return u


@PROFILE
@given(_extreme_factors())
def test_d3_triangular_inverse_is_lapack_bit_for_bit_at_extreme_exponents(u):
    # Where LAPACK raises LinAlgError (a zero pivot), the closed form keeps its
    # inf or NaN diagonal entry, as at d <= 2; everywhere else the bits agree.
    with np.errstate(all="ignore"):
        got = matcore._triangular_inverse(u)
    for m, g in zip(u, got):
        try:
            want = np.triu(np.linalg.inv(m))
        except np.linalg.LinAlgError:
            assert not np.isfinite(np.diagonal(g)).all()
        else:
            _assert_same_bits(g, want)


@st.composite
def _extreme_d2_factors(draw):
    """A stack of 1 to 32 upper triangular 2 x 2 matrices with entries s * 2^k, s normal, |k| <= 1000.

    The diagonal is positive, as in every factor the library makes; u01 is
    +0 or -0 with probability 0.1 each. About one matrix in twenty has a
    u01 * r1 that underflows to a zero, whose sign LAPACK's fused form keeps.
    """
    n = draw(st.integers(1, 32))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal((n, 3)) * 2.0 ** rng.integers(-1000, 1001, (n, 3))
    u = np.zeros((n, 2, 2))
    u[:, 0, 0], u[:, 1, 1] = np.abs(values[:, 0]), np.abs(values[:, 1])
    u[:, 0, 1] = np.where(rng.random(n) < 0.2, rng.choice([0.0, -0.0], n), values[:, 2])
    return u


@PROFILE
@given(_extreme_d2_factors())
def test_d2_triangular_inverse_is_lapack_bit_for_bit_at_extreme_exponents(u):
    with np.errstate(all="ignore"):  # products overflow to inf, as in LAPACK's
        got = matcore._triangular_inverse(u)
    _assert_same_bits(got, np.triu(np.linalg.inv(u)))


def _fma_ties(rng, n):
    """n triples (a, b, c) where a * b + c lies a hair off a tie of c + RN(a * b).

    With A odd and B = +-A^-1 mod 2^53, A * B = H 2^53 +- 1, so RN(a * b)
    drops an error of one unit of the 106-bit product. c is a power of two
    such that c + RN(a * b) falls exactly halfway between two doubles; the
    dropped unit decides the rounding, which a plain sum of the rounded
    parts gets wrong half the time.
    """
    out = np.empty((3, n))
    for i in range(n):
        a_int = int(rng.integers(2**52, 2**53)) | 1
        low = int(rng.choice([1, -1]))
        b_int = low * pow(a_int, -1, 2**53) % 2**53
        h = (a_int * b_int - low) >> 53
        zeros = (h & -h).bit_length() - 1
        k, sign = int(rng.integers(-300, 300)), float(rng.choice([1, -1]))
        out[:, i] = (
            sign * a_int * 2.0 ** (k - 52),
            b_int * 2.0**-52,
            sign * 2.0 ** (zeros + 2 + k),
        )
    return out


@PROFILE
@given(st.integers(1, 32), st.integers(0, 2**32 - 1))
def test_fma_is_exactly_rounded(n, seed):
    # Against exact rational arithmetic (int / int is correctly rounded), on
    # general triples inside _fma's domain and on near-ties.
    rng = np.random.default_rng(seed)
    general = rng.standard_normal((3, n)) * 2.0 ** rng.integers(-300, 300, (3, n))
    a, b, c = np.concatenate([general, _fma_ties(rng, n)], axis=1)
    want = [float(Fraction(x) * Fraction(y) + Fraction(z)) for x, y, z in zip(a, b, c)]
    _assert_same_bits(matcore._fma(a, b, c), np.array(want))


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


@PROFILE
@given(st.integers(1, 6).flatmap(lambda d: st.tuples(_posdef(d), _posdef(d))))
def test_split_kinds_share_spectrum(xy):
    # w(y) x w(y)^T is similar to x w(y)^T w(y) = xy for both splits, and the
    # root's plain product w(y)^T x w(y) is the same matrix; the Cholesky
    # split's plain product is similar to x u u^T instead, so it is left out.
    x, y = xy
    d = x.shape[-1]
    want = np.sort(np.linalg.eigvals(x @ y).real)[::-1]
    # Backward errors of order d * eps * |x| |y| in each product and eigensolver.
    tol = 1e-12 * d * np.linalg.norm(x) * np.linalg.norm(y)
    for z in (
        matcore.sym_product_alt(SplitKind.CHOLESKY, y, x),
        matcore.sym_product_alt(SplitKind.SQUARE_ROOT, y, x),
        matcore.sym_product(SplitKind.SQUARE_ROOT, y, x),
    ):
        np.testing.assert_allclose(matcore.eigenvalues(z), want, rtol=0, atol=tol)


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
