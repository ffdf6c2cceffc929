"""Property tests for the factor kernels in matcore, on a fixed hypothesis profile.

At d <= 2 the Cholesky factor and the triangular inverse come from closed
forms that must carry LAPACK's bits, down to the sign of a zero at
exponents of +-1000, and fail where LAPACK fails; the references below call
LAPACK one matrix at a time. The d = 3 triangular inverse is the package's
own IEEE arithmetic: it must equal its formula evaluated on numpy scalars,
carry LAPACK's bits off its corner, and hold its corner within a stated
bound of exact rational arithmetic. The d <= 2 symmetric root, eigenvalues
and log determinant are closed forms held within stated bounds of 50-digit
mpmath; they raise where eigh and slogdet, called one matrix at a time,
find an eigenvalue or determinant that is not > 0, naming the same matrix.
Gram products take BLAS gemm where numpy would take syrk at d >= 3, and
must keep syrk's bits. At d <= 2 the Gram, stacked and sandwich products are
closed forms: at d = 2 each entry is held within the rounding bound of its
two-term sums against exact rational arithmetic, and is exactly symmetric
where the product is; at d = 1 they keep the bits of numpy's 1 x 1 matmul.
Traces, summed in order, must keep np.trace's. The Bartlett draw kernel,
which draws its variates in place, must give the bits and leave the stream
where one variate call per diagonal entry and per upper triangle does. The samplers, at parameters
just inside (d-1)/2, give nonsingular draws or raise. The profile is
derandomized with a bounded example count, so every run draws the same
examples.
"""

from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posdefwalks import matcore, matdist
from posdefwalks.errors import DomainError, NotPositiveDefinite
from posdefwalks.matcore import PIVOT_RTOL, SplitKind
from posdefwalks.matdist import make_stream, sample, sample_factor
from posdefwalks.special import Law, ModelParams

import oracles

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
def _upper_factors(draw, dims=(1, 2)):
    """A stack of 1 to 32 upper triangular d x d matrices with positive diagonal, d from ``dims``.

    Entries have magnitudes 1e-E to 1e+E, E in {30, 100}, from a drawn seed;
    at d >= 2 some upper entries are +0 or -0. At d = 3 and E = 100 the
    corner's product u01 x12 can underflow or overflow.
    """
    d = draw(st.sampled_from(dims))
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
    NaN, so diagonals can be zero and products overflow or underflow.
    """
    n = draw(st.integers(1, 32))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    iu = np.triu_indices(3)
    values = rng.standard_normal((n, 6)) * 2.0 ** rng.integers(-1000, 1001, (n, 6))
    special = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], (n, 6))
    u = np.zeros((n, 3, 3))
    u[:, iu[0], iu[1]] = np.where(rng.random((n, 6)) < 0.05, special, values)
    return u


def _inverse_3_formula(m):
    """The d = 3 closed form of one matrix, one operation at a time on numpy float64 scalars."""
    r0, r1, r2 = (1.0 / m[k, k] for k in range(3))
    x12 = (0.0 - m[1, 2] * r2) * r1
    x02 = ((0.0 - m[0, 2] * r2) - m[0, 1] * x12) * r0
    return np.array([[r0, (0.0 - m[0, 1] * r1) * r0, x02], [0.0, r1, x12], [0.0, 0.0, r2]])


@PROFILE
@given(st.one_of(_upper_factors(dims=(3,)), _extreme_factors()))
def test_d3_triangular_inverse_is_its_scalar_formula_bit_for_bit(u):
    # The same bits for the whole stack and for each matrix alone, zeros,
    # infs and NaNs included. Where LAPACK raises LinAlgError (a zero
    # pivot), the diagonal is not finite, as at d <= 2.
    with np.errstate(all="ignore"):
        got = matcore._triangular_inverse(u)
        for m, g in zip(u, got):
            want = _inverse_3_formula(m)
            _assert_same_bits(g, want)
            _assert_same_bits(matcore._triangular_inverse(m), want)
            try:
                np.linalg.inv(m)
            except np.linalg.LinAlgError:
                assert not np.isfinite(np.diagonal(g)).all()


@PROFILE
@given(_upper_factors(dims=(3,)))
def test_d3_triangular_inverse_is_lapack_off_the_corner_and_near_exact_at_it(u):
    # u00 x02 = b - a with a = u02/u22 and b = u01 u12/(u11 u22). The formula
    # rounds a's part 5 times and b's 8 times, so |error| <= gamma_8 (|a| +
    # |b|)/u00, below 9 * 2^-53 (|a| + |b|)/u00; u01 x12 can underflow, by
    # at most 2^-1075 before r0 scales it, and so can the result. A corner
    # that overflows is LAPACK's inf.
    got, want = matcore._triangular_inverse(u), np.triu(np.linalg.inv(u))
    off_corner = np.arange(9).reshape(3, 3) != 2
    _assert_same_bits(got[:, off_corner], want[:, off_corner])
    for m, x02, lapack in zip(u, got[:, 0, 2], want[:, 0, 2]):
        if not np.isfinite(x02):
            _assert_same_bits(x02, lapack)
            continue
        (u00, u01, u02), (_, u11, u12), (_, _, u22) = (map(Fraction, row) for row in m)
        a, b = u02 / u22, u01 * u12 / (u11 * u22)
        bound = (9 * (abs(a) + abs(b)) * Fraction(2) ** -53 + Fraction(2) ** -1074) / u00
        assert abs(Fraction(x02) - (b - a) / u00) <= bound + Fraction(2) ** -1074


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


@st.composite
def _conditioned_stacks(draw):
    """A stack of 1 to 16 symmetric d x d matrices, d in {1, 2}, scales 1e-150 to 1e150, conditions to 1e12.

    Each is q diag(s, s/k) q^T, rounded, for a rotation q by an angle, a
    scale s and a condition k from a drawn seed (s alone at d = 1). A
    quarter of the angles are 1e-8 to 1, so that some matrices are nearly
    diagonal and the small eigenvalue is far below the rounding of the
    large one. At most one matrix, at a drawn index, is built to fail: a
    second eigenvalue of -s/k (-s at d = 1), or a NaN or inf drawn entry
    and its mirror.
    """
    d = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(1, 16))
    fail_at = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    failure = draw(st.sampled_from(["negative", np.nan, np.inf]))
    entry = draw(st.sampled_from([(0, 0), (1, 0), (1, 1)][: 2 * d - 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = _log_uniform(rng, -150, 150, n)
    lam = np.stack([scale, scale / _log_uniform(rng, 0, 12, n)], -1)[:, :d]
    if fail_at is not None and failure == "negative":
        lam[fail_at, -1] *= -1.0
    theta = np.where(rng.random(n) < 0.25, _log_uniform(rng, -8, 0, n), rng.uniform(0.0, np.pi, n))
    c, s = np.cos(theta), np.sin(theta)
    q = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)[:, :d, :d]
    x = matcore.symmetrize((q * lam[:, None, :]) @ np.swapaxes(q, -1, -2))
    if fail_at is not None and failure != "negative":
        x[(fail_at,) + entry] = x[(fail_at,) + entry[::-1]] = failure
    return x


U = 2.0**-53


def _first_failure(fails, x):
    """Index of the first matrix of x on which fails(m) is true, one LAPACK call each; None if none."""
    with np.errstate(invalid="ignore"):
        return next((i for i, m in enumerate(x) if fails(m)), None)


def _mp(m):
    return mpmath.matrix([[mpmath.mpf(float(v)) for v in row] for row in m])


@PROFILE
@given(_conditioned_stacks())
def test_closed_root_against_mpmath(x):
    # The d = 2 root (x + s I)/t has ||Y^2 - x||_F <= 16 u ||x||_F with u =
    # 2^-53: Y^2 = x + (s^2 - det)/t^2 I in exact arithmetic, whose error
    # is at most about 2 u ||x|| whatever the condition, and each entry of Y
    # carries about 4 u of rounding, which Y^2 doubles against ||Y||_F^2 =
    # tr x <= sqrt(2) ||x||_F. It is finite for every finite positive
    # definite x: no intermediate exceeds tr x. At d = 1 it is sqrt(x),
    # eigh's bits, inf included. Where eigh finds an eigenvalue that is not
    # > 0 (NaN at d = 2 for a NaN or inf entry), the root raises as before.
    want = _first_failure(lambda m: not (np.linalg.eigh(m)[0] > 0).all(), x)
    if want is not None:
        with pytest.raises(NotPositiveDefinite, match=f"^matrix has a nonpositive eigenvalue at batch index {want}$"):
            matcore.sqrt_factor(x)
        return
    y = matcore.sqrt_factor(x)
    with mpmath.workdps(50):
        for m, r in zip(x, y):
            if m.shape == (1, 1):
                w, v = np.linalg.eigh(m)
                _assert_same_bits(r, matcore.symmetrize((v * np.sqrt(w)) @ v.T))
                continue
            xm = _mp(m)
            residual = mpmath.mnorm(_mp(r) ** 2 - xm, "f") / mpmath.mnorm(xm, "f")
            assert residual <= 16 * U, (m, r, residual)


@PROFILE
@given(_conditioned_stacks())
def test_closed_eigenvalues_against_mpmath(x):
    # At d = 2, with lmax > 0: |lmax error| <= 6 u lmax (m and hypot are
    # sums of nonnegative terms, each rounded about 3 times), and lmin =
    # (a/lmax) c - (b/lmax) b errs by at most 8 u (|a c| + b^2)/lmax + u
    # |lmin|, a relative error of at most 8 u (1 + 2 cond) for a positive
    # definite x: lmin is as accurate as the determinant. lmax overflows
    # only past the largest double; a NaN or inf entry gives no finite
    # eigenvalue. At d = 1 the eigenvalue is the entry, eigvalsh's bits.
    lam = matcore.eigenvalues(x)
    assert lam.shape == x.shape[:-1]
    with mpmath.workdps(50):
        for m, got in zip(x, lam):
            if not np.isfinite(m).all():
                assert not np.isfinite(got).any()
            elif m.shape == (1, 1):
                _assert_same_bits(got, np.linalg.eigvalsh(m)[::-1])
            else:
                a, b, c = (mpmath.mpf(float(v)) for v in (m[0, 0], m[1, 0], m[1, 1]))
                h = mpmath.hypot((a - c) / 2, b)
                lmax, lmin = (a + c) / 2 + h, (a + c) / 2 - h
                assert abs(got[0] - lmax) <= 6 * U * lmax
                assert abs(got[1] - lmin) <= 8 * U * (abs(a * c) + b * b) / lmax + U * abs(lmin)


@PROFILE
@given(_conditioned_stacks())
def test_closed_logdet_against_mpmath(x):
    # At d = 2, log|a| + log|p| with p = c - b (b/a), a relative error of at
    # most e = u + 2.01 u b^2/|det| in p, so an absolute error of at most
    # e/(1 - e) + 8 u (|log a| + |log p|) + u |log det| (numpy's log is
    # within 4 ulps): about 2 u cond, as slogdet's. At d = 1 it is log x,
    # within 8 u |log x|. It raises exactly where slogdet's sign is not 1
    # or its log is NaN, naming the same matrix; an inf diagonal entry
    # gives slogdet's inf.
    def fails(m):
        sign, ld = np.linalg.slogdet(m)
        return not sign > 0 or np.isnan(ld)

    want = _first_failure(fails, x)
    if want is not None:
        with pytest.raises(NotPositiveDefinite, match=f"^determinant is not positive at batch index {want}$"):
            matcore.logdet(x)
        return
    got = matcore.logdet(x)
    with mpmath.workdps(50):
        for m, g in zip(x, got):
            if not np.isfinite(m).all():
                assert g == np.linalg.slogdet(m)[1] == np.inf
                continue
            a, b, c = (mpmath.mpf(float(v)) for v in (m[0, 0], m[-1, 0], m[-1, -1]))
            if m.shape == (1, 1):
                assert abs(g - mpmath.log(a)) <= 8 * U * abs(mpmath.log(a))
                continue
            det = a * c - b * b
            e = U + 2.01 * U * b * b / abs(det)
            logs = abs(mpmath.log(abs(a))) + abs(mpmath.log(abs(det / a)))
            bound = e / (1 - e) + 8 * U * logs + U * abs(mpmath.log(det))
            assert abs(g - mpmath.log(det)) <= bound, (m, g)


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


def _scaled_normals(rng, shape, e=150):
    """Normal entries (..., d, d); each matrix has a scale 10^k, k in [-e, e], each entry a further factor in [1e-3, 1e3]."""
    scale = 10.0 ** rng.uniform(-e, e, shape[:-2] + (1, 1))
    return rng.standard_normal(shape) * scale * _log_uniform(rng, -3, 3, shape)


@st.composite
def _stacks(draw, dims, exponents=None):
    """A stack (n, d, d) or (m, n, d, d) of _scaled_normals, d from ``dims``.

    With ``exponents``, a tuple of such stacks of one shape, the k-th with
    scales 10^-e to 10^e for e = exponents[k]. Values come from a drawn seed.
    """
    d = draw(dims)
    shape = draw(st.one_of(st.tuples(st.integers(1, 64)), st.tuples(st.integers(1, 4), st.integers(1, 32))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if exponents is None:
        return _scaled_normals(rng, shape + (d, d))
    return tuple(_scaled_normals(rng, shape + (d, d), e) for e in exponents)


@PROFILE
@given(_stacks(st.sampled_from([1, 3, 4, 5, 6])))
def test_gram_is_numpy_syrk_bit_for_bit(v):
    # numpy sends a buffer times its own transpose to BLAS syrk; _gram copies
    # one operand to take gemm at d >= 3. If a BLAS ever rounds the two
    # differently, this fails, and _gram's bits would move every d >= 3
    # Gram-law draw. At d = 1 the product is v * v; d = 2 is a closed form
    # (test_d2_closed_products_against_exact_arithmetic).
    vt = np.swapaxes(v, -1, -2)
    _assert_same_bits(matcore._gram(v), vt @ v)
    _assert_same_bits(matcore._gram(vt), v @ vt)


# Unit roundoff, gamma_2 = 2u/(1 - 2u) of a two-term dot product, and the
# largest absolute error of one rounding in the subnormal range.
_U = Fraction(1, 2**53)
_GAMMA2 = 2 * _U / (1 - 2 * _U)
_GAMMA3 = 3 * _U / (1 - 3 * _U)
_ETA = Fraction(1, 2**1075)


def _exact(m):
    return np.vectorize(Fraction, otypes=[object])(m)


def _dot2_errors(got, x, y):
    """|got - x y| entrywise at d = 2 and the two-term bound gamma_2 sum_k |x_ik y_kj| (+ underflow)."""
    exact = x[..., :, :1] * y[..., :1, :] + x[..., :, 1:] * y[..., 1:, :]
    size = abs(x[..., :, :1] * y[..., :1, :]) + abs(x[..., :, 1:] * y[..., 1:, :])
    return abs(_exact(got) - exact), _GAMMA2 * size + 3 * _ETA


@PROFILE
@given(_stacks(st.just(2), exponents=(150, 150)))
def test_d2_closed_products_against_exact_arithmetic(ab):
    # Each entry of _product and _gram is one correctly rounded two-term dot
    # product, |fl(s) - s| <= gamma_2 sum |terms|; the Gram matrix is exactly
    # symmetric, its off-diagonal entry formed once.
    a, b = ab
    x, y = _exact(a), _exact(b)
    for got, (xs, ys) in ((matcore._product(a, b), (x, y)), (matcore._gram(a), (np.swapaxes(x, -1, -2), x))):
        err, bound = _dot2_errors(got, xs, ys)
        assert (err <= bound).all()
    g = matcore._gram(a)
    _assert_same_bits(g[..., 0, 1], g[..., 1, 0])


@PROFILE
@given(_stacks(st.just(2), exponents=(50, 150)))
def test_d2_sandwich_against_exact_arithmetic(wx):
    """_sandwich(w, x) within a two-stage bound of w^T sym(x) w, exactly symmetric, for any x.

    Scales of w stay within 1e-50 to 1e50 so that w^T x w stays in range.
    Stage 1, t = sym(x) w: one more rounding in b = (x01 + x10)/2 gives
    |t^ - t| <= E = gamma_3 sum_l |sym(x)_kl w_lj| (+ underflow). Stage 2,
    s = w^T t^: |s^ - s| <= gamma_2 sum_k |w_ki| (|t_kj| + E_kj) + sum_k |w_ki| E_kj.
    """
    w, x = wx
    we, xe = _exact(w), _exact(x)
    b = (xe[..., 0, 1] + xe[..., 1, 0]) / 2
    sym = np.stack([np.stack([xe[..., 0, 0], b], -1), np.stack([b, xe[..., 1, 1]], -1)], -2)
    size1 = abs(sym[..., :, :1] * we[..., :1, :]) + abs(sym[..., :, 1:] * we[..., 1:, :])
    t = sym[..., :, :1] * we[..., :1, :] + sym[..., :, 1:] * we[..., 1:, :]
    e1 = _GAMMA3 * size1 + (3 + abs(we[..., :1, :]) + abs(we[..., 1:, :])) * _ETA
    wt = np.swapaxes(we, -1, -2)
    exact = wt[..., :, :1] * t[..., :1, :] + wt[..., :, 1:] * t[..., 1:, :]
    carried = abs(wt[..., :, :1]) * e1[..., :1, :] + abs(wt[..., :, 1:]) * e1[..., 1:, :]
    size2 = abs(wt[..., :, :1]) * (abs(t[..., :1, :]) + e1[..., :1, :]) + abs(wt[..., :, 1:]) * (
        abs(t[..., 1:, :]) + e1[..., 1:, :]
    )
    got = matcore._sandwich(w, x)
    assert (abs(_exact(got) - exact) <= _GAMMA2 * size2 + carried + 3 * _ETA).all()
    _assert_same_bits(got[..., 0, 1], got[..., 1, 0])


@PROFILE
@given(_stacks(st.just(1), exponents=(50, 150)))
def test_d1_closed_products_are_numpy_matmul_bit_for_bit(wx):
    # At d = 1 the product, the Gram matrix and the sandwich keep the bits of
    # the 1 x 1 matmuls they replace, symmetrize included.
    w, x = wx
    _assert_same_bits(matcore._product(w, x), w @ x)
    _assert_same_bits(matcore._product(x, w), x @ w)
    _assert_same_bits(matcore._gram(x), x @ x)
    _assert_same_bits(matcore._sandwich(w, x), matcore.symmetrize(w @ x @ w))


@PROFILE
@given(_stacks(st.integers(1, 9)))
def test_series_traces_are_numpy_trace_bit_for_bit(v):
    # matcore.trace sums the diagonal in order below d = 8, as np.trace does;
    # one matrix gives a numpy scalar, as np.trace does.
    for x in (v, v.reshape((-1,) + v.shape[-2:]), v.reshape((-1,) + v.shape[-2:])[0]):
        got, want = matcore.trace(x), np.trace(x, axis1=-2, axis2=-1)
        assert type(got) is type(want)
        _assert_same_bits(np.asarray(got), np.asarray(want))


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
    # At d = 2 the Gram matrix is matcore's closed form, not gemm's.
    gram = matcore._gram(u) if d == 2 else matcore.symmetrize(np.swapaxes(u, -1, -2) @ u)
    _assert_same_bits(x, gram)
    if d == 1:
        assert matcore.is_posdef(x)


@PROFILE
@given(
    st.integers(1, 4),
    st.lists(st.tuples(st.sampled_from(["A", "B"]), st.integers(-12, 3)), min_size=1, max_size=2),
    st.integers(0, 70),
    st.integers(0, 5),
    st.integers(0, 2**32 - 1),
)
def test_bartlett_blocks_are_the_per_call_draws_bit_for_bit(d, laws, size, blocks, seed):
    """Shapes are c - (k - 1)/2 for k = 1..d (A) or d..1 (B), c = (d-1)/2 + 2^e.

    At e = -12 the smallest shape is 2^-12, where most gamma variates
    underflow to 0. The factors' bits, zero signs included, and the stream
    position afterwards must be those of the reference's per-block calls.
    """
    half = np.arange(d) / 2.0
    shapes = tuple(
        (d - 1) / 2 + 2.0**e - (half if law == "A" else half[::-1]) for law, e in laws
    )
    got_rng, want_rng = make_stream(seed, d), make_stream(seed, d)
    got = matdist._bartlett_blocks(shapes, got_rng, size, blocks)
    want = oracles.bartlett_blocks_reference(shapes, want_rng, size, blocks)
    _assert_same_bits(got, want)
    np.testing.assert_array_equal(got_rng.random(3), want_rng.random(3))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_bartlett_blocks_staged_one_shape_array_at_a_time_are_the_per_call_draws(d, monkeypatch):
    # One block of _STAGE_ROWS draws or more is staged one shape array at a
    # time; smaller stacks are staged whole. Both give the per-call bits and
    # leave the stream where the per-call draws do.
    half = np.arange(d) / 2.0
    shapes = ((d - 1) / 2 + 2.0**-12 - half, (d - 1) / 2 + 1.5 - half[::-1])
    cases = [(matdist._STAGE_ROWS, matdist._STAGE_ROWS, None), (matdist._STAGE_ROWS, 37, 1)]
    cases += [(1, size, blocks) for size in (1, 37) for blocks in (None, 1)]
    for seed, (stage_rows, size, blocks) in enumerate(cases):
        monkeypatch.setattr(matdist, "_STAGE_ROWS", stage_rows)
        for sh in (shapes, shapes[1:]):
            got_rng, want_rng = make_stream(seed, d), make_stream(seed, d)
            got = matdist._bartlett_blocks(sh, got_rng, size, blocks)
            _assert_same_bits(got, oracles.bartlett_blocks_reference(sh, want_rng, size, 1))
            np.testing.assert_array_equal(got_rng.random(3), want_rng.random(3))
