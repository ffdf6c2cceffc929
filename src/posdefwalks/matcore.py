"""Dense symmetric positive definite linear algebra.

All operations accept a single ``(d, d)`` matrix or a stack of matrices with
shape ``(..., d, d)`` and are pure value-to-value functions. States living on
the positive definite cone are represented as plain float arrays stored
exactly symmetric; :func:`posdef` is the validating constructor.

The Cholesky factor is a closed form at d <= 2 and the triangular inverse
at d <= 3, with the bits LAPACK gives, in a few array operations on the
whole stack (numpy calls LAPACK once per matrix); above that they call
LAPACK. The input's last axis picks the path. The BLAS under LAPACK fuses
multiply-adds, and numpy has no fused multiply-add, so a plain evaluation
order gives LAPACK's bits only where no fused operation is used. The d = 3
inverse uses one, in its corner: :func:`_fma` rounds it exactly with
error-free transforms, and LAPACK redoes the rare matrices outside its
exactness domain. The d = 3 Cholesky factor is l22 = sqrt(x22 - fma(l21,
l21, l20^2)) in LAPACK, but stays there: a closed form would gain at most
about 50 ns per matrix and lose on stacks below a few hundred. The Gram and
sandwich products stay on matmul and the symmetric root on eigh at every d.

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
# Veltkamp's splitter for binary64 (see _fma).
_SPLITTER = 2.0**27 + 1.0
# The d = 3 triangular inverse is closed form when every entry is 0 or of
# magnitude 2^-240 to 2^240, compared as the bit patterns of |entry|: the
# sign mask, 2^240's pattern, and 2^-240's pattern minus 1 (see _inverse_3).
_MAGNITUDE = np.int64(2**63 - 1)
_EXACT_MAX = np.array(2.0**240).view(np.int64)
_EXACT_MIN = np.array(2.0**-240).view(np.uint64) - np.uint64(1)
# Flat indices of u00, u11, u22, u01, u12, u02 in a row-major 3 x 3 matrix.
_UPPER_3 = np.array([0, 4, 8, 1, 5, 2])


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


def _fma(a, b, c):
    """a * b + c rounded once, elementwise on 1-d arrays; numpy has no fused multiply-add.

    Dekker's TwoProduct (Veltkamp split by 2^27 + 1) gives p + e = a * b
    exactly, a TwoSum gives s + t = c + p exactly, then v = t + e is rounded
    to odd (the neighbour with an odd last bit where the sum is inexact) and
    s + v rounded to nearest is the correctly rounded sum (Boldo and
    Melquiond, IEEE Trans. Comput. 57(4), 2008). Exact where the split
    cannot overflow (|a|, |b| < 2^995), a * b and c stay below 2^1020, and
    a * b is 0 by a zero factor or at least 2^-968 in magnitude, so that its
    error term e cannot underflow.
    """
    ab = np.array((a, b))
    hi = _SPLITTER * ab
    hi -= hi - ab
    lo = ab - hi
    ah, bh, al, bl = hi[0], hi[1], lo[0], lo[1]
    p = a * b
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    s = c + p
    z = s - c
    t = (c - (s - z)) + (p - z)
    v = t + e
    z = v - t
    w = (t - (v - z)) + (e - z)
    # Round to odd: where v + w is inexact, the neighbour of v toward v + w
    # when v's last bit is even. On the bit pattern, one unit less magnitude
    # where v rounded away from zero (w has the other sign), then the last bit set.
    bits = v.view(np.int64)
    inexact = w != 0
    away = inexact & ((w.view(np.int64) ^ bits) < 0)
    return s + ((bits - away) | inexact).view(np.float64)


def _inverse_3(u):
    """_triangular_inverse of a stack (n, 3, 3); LAPACK's bits outside the closed form's domain."""
    n = len(u)
    # Rows u00, u11, u22, u01, u12, u02, and the inverse's entries in that order.
    e = u.reshape(n, 9).T[_UPPER_3]
    x = np.empty((6, n))
    r = x[:3]
    np.divide(1.0, e[:3], out=r)
    # Overflow and invalid operations arise outside the domain, which LAPACK redoes below.
    with np.errstate(over="ignore", invalid="ignore"):
        q = 0.0 - e[3:] * r[[1, 2, 2]]
        np.multiply(q[:2], r[:2], out=x[3:5])
        x[5] = _fma(-e[3], x[4], q[2]) * r[0]
    out = np.zeros((n, 9))
    out.T[_UPPER_3] = x
    out = out.reshape(n, 3, 3)
    # Entry magnitudes as ordered integers; a zero less 1 wraps to the largest uint64.
    bits = e.view(np.int64) & _MAGNITUDE
    inside = (bits <= _EXACT_MAX) & ((bits - 1).view(np.uint64) >= _EXACT_MIN)
    if not inside.all():
        outside = ~inside.all(axis=0)
        try:
            out[outside] = np.triu(np.linalg.inv(u[outside]))
        except np.linalg.LinAlgError:  # a zero pivot: the closed form's inf entries stay there
            for i in np.flatnonzero(outside):
                try:
                    out[i] = np.triu(np.linalg.inv(u[i]))
                except np.linalg.LinAlgError:
                    pass
    return out


def _triangular_inverse(u):
    """Inverse of upper triangular u (..., d, d), with exact zeros below the diagonal.

    At d <= 3 it is closed form with LAPACK's bits. With r = 1/diag(u),
    LAPACK computes each entry next to the diagonal as fma(-u_{k,k+1},
    r_{k+1}, +0) r_k: +0 where u_{k,k+1} is 0, and otherwise the rounded
    product, whose sign survives an underflow to zero. At d = 2 that is
    (0 - u01) r1 r0 whenever the diagonal is positive, as in every factor
    matcore and matdist make: the subtraction turns either zero into +0 and
    only negates anything else. At d = 3 no product underflows (below), so
    it is (0 - u_{k,k+1} r_{k+1}) r_k, and LAPACK's BLAS fuses one more
    multiply-add into the corner, so it is
    fma(-u01, x12, 0 - u02 r2) r0 with :func:`_fma`. When every entry is 0
    or of magnitude 2^-240 to 2^240, the corner's product lies within
    2^-964 to 2^964 or is 0, inside _fma's exactness domain, and no product
    of nonzero entries underflows to a zero whose sign LAPACK's fused form
    would keep. A matrix with any other entry, NaN and inf included, goes
    to LAPACK. A zero diagonal entry gives inf or NaN entries (and numpy's
    floating-point warnings), not an error, also where LAPACK redoes the
    matrix and meets the zero pivot. d >= 4 calls LAPACK, which raises
    LinAlgError on a zero diagonal entry.
    """
    d = u.shape[-1]
    if d == 1:
        return 1.0 / u
    if d == 3:
        return _inverse_3(u.reshape(-1, 3, 3)).reshape(u.shape)
    if d > 3:
        return np.triu(np.linalg.inv(u))
    r0, r1 = 1.0 / u[..., 0, 0], 1.0 / u[..., 1, 1]
    out = np.zeros(u.shape)
    out[..., 0, 0] = r0
    out[..., 0, 1] = (0.0 - u[..., 0, 1]) * r1 * r0
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
    """log det x; NotPositiveDefinite names the first matrix whose determinant is not > 0, NaN included."""
    with np.errstate(invalid="ignore"):  # a NaN matrix, reported right below
        sign, ld = np.linalg.slogdet(np.asarray(x, dtype=float))
    # slogdet gives a NaN matrix the sign 1 and a NaN log.
    bad = ~(sign > 0) | np.isnan(ld)
    if np.any(bad):
        raise NotPositiveDefinite(f"determinant is not positive{_at(bad)}")
    return ld


def trace(x):
    return np.trace(np.asarray(x, dtype=float), axis1=-2, axis2=-1)


def lambda_max(x):
    return eigenvalues(x)[..., 0]


def lambda_min(x):
    return eigenvalues(x)[..., -1]
