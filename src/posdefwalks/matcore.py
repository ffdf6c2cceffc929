"""Dense symmetric positive definite linear algebra.

All operations accept a single ``(d, d)`` matrix or a stack of matrices with
shape ``(..., d, d)`` and are pure value-to-value functions. States living on
the positive definite cone are represented as plain float arrays stored
exactly symmetric; :func:`posdef` is the validating constructor.

The Cholesky factor and the triangular inverse are closed forms at d <= 2,
with the bits LAPACK gives, in a few array operations on the whole stack
(numpy calls LAPACK once per matrix); at d >= 3 they call LAPACK. The
input's last axis picks the path. Larger d stays on LAPACK because the BLAS
it uses fuses multiply-adds, which no plain numpy evaluation order
reproduces at d = 3; for the same reason the Gram and sandwich products
stay on matmul. The symmetric root stays on eigh at every d.

Every Gram product v^T v (and v v^T) goes through :func:`_gram`, which hands
matmul two different buffers. numpy sends a buffer times its own transpose
to BLAS syrk, one matrix at a time, and syrk costs about 270 ns per 2x2 and
290 ns per 3x3 against 80 and 90 ns for gemm on a copy (one BLAS thread,
2-core x86-64, numpy 2.4 on OpenBLAS 0.3.31). The two give the same bits,
which tests/test_properties.py checks; at d = 1 the product is v * v.
"""

import enum

import numpy as np

from .errors import EigenFailure, NotPositiveDefinite

# Cholesky pivot must exceed this multiple of the largest diagonal entry,
# separating genuine singularity from round-off at small d.
PIVOT_RTOL = 1e-13
# Largest entry magnitude posdef accepts, so that m + m^T in symmetrize is finite.
SYMMETRIZE_MAX = np.finfo(float).max / 2


class SplitKind(str, enum.Enum):
    """The two split functions w with x = w(x)^T w(x)."""

    SQUARE_ROOT = "sqrt"
    CHOLESKY = "cholesky"


def symmetrize(m):
    m = np.asarray(m, dtype=float)
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def posdef(m, name="matrix"):
    """Validating constructor for positive definite values.

    Rejects entries that are not finite or too large for (m + m^T) to be,
    symmetrizes the input as (m + m^T)/2, then checks positive definiteness
    through a Cholesky factorization with a relative pivot tolerance.

    Parameters
    ----------
    m : array_like, shape (..., d, d)
    name : str
        Label used in error messages.

    Returns
    -------
    ndarray
        The stored-symmetric validated value.

    Raises
    ------
    NotPositiveDefinite
        If an entry is out of range, or the symmetrized input fails the
        factorization or the pivot bound; the message names the first
        failing batch index.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise NotPositiveDefinite(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.abs(m) <= SYMMETRIZE_MAX):  # a NaN fails the comparison too
        raise NotPositiveDefinite(
            f"{name} entries are out of range: need finite values of magnitude "
            f"at most {SYMMETRIZE_MAX:.3g}"
        )
    x = symmetrize(m)
    cholesky(x, name=name)
    return x


def is_posdef(m):
    try:
        posdef(m)
    except NotPositiveDefinite:
        return False
    return True


def _at(bad):
    """' at batch index i,j' naming the first True entry of a batch mask; '' if unbatched."""
    if np.ndim(bad) == 0:
        return ""
    return " at batch index " + ",".join(map(str, np.argwhere(bad)[0]))


def _first_failure(factorize, x):
    """Mask of the first matrix in the batch x on which factorize raises LinAlgError."""
    bad = np.zeros(x.shape[:-2], dtype=bool)
    for idx in np.ndindex(bad.shape):
        try:
            factorize(x[idx])
        except np.linalg.LinAlgError:
            bad[idx] = True
            break
    return bad


def _cholesky_closed(x, name):
    """Lower Cholesky factor at d <= 2 with LAPACK's bits, and the mask of pivots below tolerance.

    l00 = sqrt(x00), l10 = x10 * (1/l00) and l11 = sqrt(x11 - l10^2); LAPACK
    scales by the reciprocal pivot, and dividing instead changes bits. A pivot
    that is not > 0 (NaN included) fails. The tolerance test is cholesky's,
    written per entry: a reduction over an axis of length 2 costs more than
    the factor.
    """
    x00 = x[..., 0, 0]
    lower = np.zeros(x.shape)
    with np.errstate(all="ignore"):  # the pivot test right below reports what these meet
        l00 = lower[..., 0, 0] = np.sqrt(x00)
        ok = x00 > 0
        if x.shape[-1] == 2:
            l10 = lower[..., 1, 0] = x[..., 1, 0] * (1.0 / l00)
            pivot = x[..., 1, 1] - l10 * l10
            ok = ok & (pivot > 0)
            l11 = lower[..., 1, 1] = np.sqrt(pivot)
    if not np.all(ok):
        raise NotPositiveDefinite(f"{name} is not positive definite{_at(~ok)}")
    if x.shape[-1] == 1:
        return lower, ~(l00 * l00 > PIVOT_RTOL * x00)
    tol = PIVOT_RTOL * np.maximum(x00, x[..., 1, 1])
    return lower, ~(l00 * l00 > tol) | ~(l11 * l11 > tol)


def cholesky(x, name="matrix"):
    """Upper triangular u with positive diagonal and x = u^T u.

    Closed forms at d <= 2 (:func:`_cholesky_closed`), LAPACK at d >= 3.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] <= 2:
        lower, low = _cholesky_closed(x, name)
    else:
        try:
            lower = np.linalg.cholesky(x)
        except np.linalg.LinAlgError:
            where = _at(_first_failure(np.linalg.cholesky, x))
            raise NotPositiveDefinite(f"{name} is not positive definite{where}") from None
        diag = np.diagonal(lower, axis1=-2, axis2=-1)
        scale = np.max(np.diagonal(x, axis1=-2, axis2=-1), axis=-1)
        # Written so that a NaN pivot or scale fails too.
        low = np.any(~(diag * diag > PIVOT_RTOL * scale[..., None]), axis=-1)
    if np.any(low):
        raise NotPositiveDefinite(f"{name} has a Cholesky pivot below tolerance{_at(low)}")
    return np.swapaxes(lower, -1, -2)


def _triangular_inverse(u):
    """Inverse of upper triangular u (..., d, d), with exact zeros below the diagonal.

    At d <= 2 it is closed form with LAPACK's bits: with r = 1/diag(u), the
    corner is (0 - u01 r1) r0, whose subtraction from zero gives +0 for
    u01 = 0 as LAPACK does. A zero diagonal entry gives inf or NaN entries
    (and numpy's floating-point warnings), not an error. d >= 3 calls LAPACK,
    which raises LinAlgError on a zero diagonal entry.
    """
    d = u.shape[-1]
    if d == 1:
        return 1.0 / u
    if d > 2:
        return np.triu(np.linalg.inv(u))
    r0, r1 = 1.0 / u[..., 0, 0], 1.0 / u[..., 1, 1]
    out = np.zeros(u.shape)
    out[..., 0, 0] = r0
    out[..., 0, 1] = (0.0 - u[..., 0, 1] * r1) * r0
    out[..., 1, 1] = r1
    return out


def _gram(v):
    """v^T v for a stack v (..., d, d), on the gemm path; _gram(v^T) is v v^T.

    numpy takes the syrk path only when both operands share one buffer, so
    the transposed operand is copied first. At d = 1 the product is v * v,
    with the same bits.
    """
    if v.shape[-1] == 1:
        return v * v
    return np.swapaxes(v, -1, -2).copy() @ v


def sqrt_factor(x):
    """The unique positive definite b with b b = x, via eigendecomposition."""
    x = np.asarray(x, dtype=float)
    try:
        w, v = np.linalg.eigh(x)
    except np.linalg.LinAlgError:
        raise EigenFailure(
            f"eigendecomposition failed{_at(_first_failure(np.linalg.eigh, x))}"
        ) from None
    nonpositive = np.any(~(w > 0), axis=-1)  # a NaN eigenvalue fails too
    if np.any(nonpositive):
        raise NotPositiveDefinite(f"matrix has a nonpositive eigenvalue{_at(nonpositive)}")
    root = (v * np.sqrt(w)[..., None, :]) @ np.swapaxes(v, -1, -2)
    return symmetrize(root)


def split_factor(kind, y):
    """w(y) for the requested split kind."""
    kind = SplitKind(kind)
    if kind is SplitKind.SQUARE_ROOT:
        return sqrt_factor(y)
    return cholesky(y)


def sym_product(kind, y, x):
    """Symmetrised product w(y)^T x w(y); multiplication by y landing in the cone."""
    w = split_factor(kind, y)
    return symmetrize(np.swapaxes(w, -1, -2) @ np.asarray(x, dtype=float) @ w)


def sym_product_alt(kind, y, x):
    """Alternative operator w(y) x w(y)^T; equals sym_product for the square root."""
    w = split_factor(kind, y)
    return symmetrize(w @ np.asarray(x, dtype=float) @ np.swapaxes(w, -1, -2))


def eigenvalues(x):
    """Eigenvalues sorted descending."""
    try:
        vals = np.linalg.eigvalsh(np.asarray(x, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"eigensolver did not converge: {exc}") from None
    return vals[..., ::-1]


def invert(x):
    """Inverse of a positive definite matrix, validated and stored symmetric."""
    uinv = _triangular_inverse(cholesky(x))
    return symmetrize(_gram(np.swapaxes(uinv, -1, -2)))


def det(x):
    return np.linalg.det(np.asarray(x, dtype=float))


def logdet(x):
    sign, ld = np.linalg.slogdet(np.asarray(x, dtype=float))
    if np.any(sign <= 0):
        raise NotPositiveDefinite("determinant is not positive")
    return ld


def trace(x):
    return np.trace(np.asarray(x, dtype=float), axis1=-2, axis2=-1)


def lambda_max(x):
    return eigenvalues(x)[..., 0]


def lambda_min(x):
    return eigenvalues(x)[..., -1]
