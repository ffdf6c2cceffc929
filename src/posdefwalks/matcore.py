"""Dense symmetric positive definite linear algebra.

All operations accept a single ``(d, d)`` matrix or a stack of matrices with
shape ``(..., d, d)`` and are pure value-to-value functions. States living on
the positive definite cone are represented as plain float arrays stored
exactly symmetric; :func:`posdef` is the validating constructor.

The Cholesky factor, the symmetric root, the eigenvalues and the log
determinant are closed forms at d <= 2, and the triangular inverse at
d <= 3, in a few array operations on the whole stack (numpy calls LAPACK
once per matrix); above that they call LAPACK. The input's last axis picks
the path. The closed Cholesky factor makes one pass/fail test per matrix and
tells the two failures apart only after one fails. On the 64-matrix stacks
of a primed Kesten move, which makes one call, numpy's per-call overhead is
most of the cost: about 12 us a call at d = 2 and 6 us at d = 1, against 19
and 12 us for two separate tests (2-core x86-64, numpy 2.4). The closed
forms are fixed sequences of numpy operations, all correctly rounded but
hypot (in the eigenvalues) and log (in the log determinant), so the
factors, inverses and roots have the same bits on any IEEE host. The
triangular factors carry LAPACK's bits at d <= 2, and at d = 3 every entry
but the inverse's corner does: the corner is rounded twice where a BLAS
that fuses multiply-adds rounds once, so LAPACK's can differ in its last
bits. At d = 1 the root and the eigenvalue carry eigh's and eigvalsh's
bits; the d = 2 root, eigenvalues and log determinant do not carry
LAPACK's, and tests/test_properties.py bounds their errors against 50-digit
arithmetic. On 3200 matrices at d = 2 they take about 0.07, 0.08 and 0.04
ms against 1.9, 0.8 and 0.3 ms for eigh, eigvalsh and slogdet (same host).
The d = 3 Cholesky factor stays on LAPACK: a closed form would gain at most
about 50 ns per matrix and lose on stacks below a few hundred. The Gram and
sandwich products stay on matmul, and the root and eigenvalues on eigh and
eigvalsh at d >= 3.

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
    """Lower Cholesky factor at d <= 2 with LAPACK's bits, or cholesky's NotPositiveDefinite.

    l00 = sqrt(x00), l10 = x10 * (1/l00) and l11 = sqrt(x11 - l10^2); LAPACK
    scales by the reciprocal pivot, and dividing instead changes bits. The
    stack passes on one test per matrix, every l_kk^2 above cholesky's
    tolerance, written per entry: a reduction over an axis of length 2 costs
    more than the factor. A pivot that is not > 0, NaN included, fails it
    too. Only after a failure are the two messages told apart, with
    cholesky's precedence: a pivot that is not > 0 anywhere in the stack is
    reported before one below tolerance.
    """
    x00 = x[..., 0, 0]
    lower = np.zeros(x.shape)
    with np.errstate(all="ignore"):  # the pivot test right below reports what these meet
        l00 = lower[..., 0, 0] = np.sqrt(x00)
        if x.shape[-1] == 1:
            ok = l00 * l00 > PIVOT_RTOL * x00
        else:
            l10 = lower[..., 1, 0] = x[..., 1, 0] * (1.0 / l00)
            pivot = x[..., 1, 1] - l10 * l10
            l11 = lower[..., 1, 1] = np.sqrt(pivot)
            tol = PIVOT_RTOL * np.maximum(x00, x[..., 1, 1])
            ok = (l00 * l00 > tol) & (l11 * l11 > tol)
    if ok.all():
        return lower
    nonpositive = ~(x00 > 0) if x.shape[-1] == 1 else ~(x00 > 0) | ~(pivot > 0)
    if nonpositive.any():
        raise NotPositiveDefinite(f"{name} is not positive definite{_at(nonpositive)}")
    raise NotPositiveDefinite(f"{name} has a Cholesky pivot below tolerance{_at(~ok)}")


def cholesky(x, name="matrix"):
    """Upper triangular u with positive diagonal and x = u^T u.

    Closed forms at d <= 2 (:func:`_cholesky_closed`), LAPACK at d >= 3.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] <= 2:
        return np.swapaxes(_cholesky_closed(x, name), -1, -2)
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


def _inverse_3(u):
    """_triangular_inverse of a stack (n, 3, 3)."""
    n = len(u)
    # Rows u00, u11, u22, u01, u12, u02, and the inverse's entries in that order.
    e = u.reshape(n, 9).T[_UPPER_3]
    x = np.empty((6, n))
    r = x[:3]
    np.divide(1.0, e[:3], out=r)
    # Extreme or non-finite entries overflow or meet inf - inf; the inf and
    # NaN entries they give are the caller's to report.
    with np.errstate(over="ignore", invalid="ignore"):
        q = 0.0 - e[3:] * r[[1, 2, 2]]
        np.multiply(q[:2], r[:2], out=x[3:5])
        x[5] = (q[2] - e[3] * x[4]) * r[0]
    out = np.zeros((n, 9))
    out.T[_UPPER_3] = x
    return out.reshape(n, 3, 3)


def _triangular_inverse(u):
    """Inverse of upper triangular u (..., d, d), with exact zeros below the diagonal.

    At d <= 3 it is closed form, each operation correctly rounded. With
    r = 1/diag(u), the entries next to the diagonal are (0 - u01) r1 r0 at
    d = 2 and (0 - u_{k,k+1} r_{k+1}) r_k at d = 3, and the d = 3 corner is
    ((0 - u02 r2) - u01 x12) r0. LAPACK computes an entry next to the
    diagonal as fma(-u_{k,k+1}, r_{k+1}, +0) r_k: +0 where u_{k,k+1} is 0,
    and otherwise the rounded product. Subtracting from 0 turns either zero
    into +0 and only negates anything else, so where the diagonal is
    positive, as in every factor matcore and matdist make, these entries
    carry LAPACK's bits; at d = 3 only while u_{k,k+1} r_{k+1} does not
    underflow to a zero whose sign the fused form keeps. The d = 3 corner is
    rounded twice where a BLAS that fuses multiply-adds rounds once. A zero
    diagonal entry gives inf or NaN entries (and numpy's divide-by-zero
    warning), not an error; d >= 4 calls LAPACK, which raises LinAlgError
    there.
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


def _pivot(x):
    """x00, x10, x11 and the second Cholesky pivot x11 - x10 (x10 / x00) of a stack at d = 2.

    The determinant is x00 times the pivot, and no product here can
    overflow for a positive definite x. numpy's warnings are off: where
    x00 is 0 or NaN the pivot is -inf or NaN, which each caller's test
    reports.
    """
    a, b, c = x[..., 0, 0], x[..., 1, 0], x[..., 1, 1]
    with np.errstate(all="ignore"):
        return a, b, c, c - b * (b / a)


def _sqrt_closed(x):
    """sqrt_factor at d = 2: (x + s I)/t with s = sqrt(det x) and t = sqrt(tr x + 2 s).

    By Cayley-Hamilton, x^2 = tr(x) x - det(x) I, so (x + s I)^2 = t^2 x
    (Higham, Functions of Matrices, SIAM 2008, ch. 6). s is sqrt(x00)
    sqrt(pivot), and x and s enter at half and t at a quarter, exact
    scalings in the normal range: no intermediate overflows for any finite
    positive definite x. A pivot that is not > 0 or a t that is not finite
    (an inf entry) fails.
    """
    a, b, c, pivot = _pivot(x)
    with np.errstate(all="ignore"):
        half_s = 0.5 * (np.sqrt(a) * np.sqrt(pivot))
        half_t = np.sqrt(0.25 * a + 0.25 * c + half_s)
        ok = (pivot > 0) & (half_t < np.inf)
    if not ok.all():
        raise NotPositiveDefinite(f"matrix has a nonpositive eigenvalue{_at(~ok)}")
    root = np.empty(x.shape)
    root[..., 0, 0] = (0.5 * a + half_s) / half_t
    root[..., 1, 1] = (0.5 * c + half_s) / half_t
    root[..., 0, 1] = root[..., 1, 0] = 0.5 * b / half_t
    return root


def sqrt_factor(x):
    """The unique positive definite b with b b = x.

    Closed forms at d <= 2: sqrt(x) at d = 1, eigh's bits, and
    :func:`_sqrt_closed` at d = 2; eigendecomposition above.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] == 1:
        bad = ~(x[..., 0, 0] > 0)  # a NaN fails too
        if np.any(bad):
            raise NotPositiveDefinite(f"matrix has a nonpositive eigenvalue{_at(bad)}")
        return np.sqrt(x)
    if x.shape[-1] == 2:
        return _sqrt_closed(x)
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


def _sandwich(w, x):
    """Symmetrised product w^T x w of a factor w: every sandwich product of the package."""
    return symmetrize(np.swapaxes(w, -1, -2) @ np.asarray(x, dtype=float) @ w)


def sym_product(kind, y, x):
    """Symmetrised product w(y)^T x w(y); multiplication by y landing in the cone."""
    return _sandwich(split_factor(kind, y), x)


def sym_product_alt(kind, y, x):
    """Alternative operator w(y) x w(y)^T; equals sym_product for the square root."""
    return _sandwich(np.swapaxes(split_factor(kind, y), -1, -2), x)


def _eigenvalues_closed(x):
    """eigenvalues at d = 2, from the lower triangle as eigvalsh reads it.

    lmax = m + hypot(x00/2 - x11/2, x10) with m = x00/2 + x11/2. Where lmax
    is positive and finite, lmin = det/lmax, written as (x00/lmax) x11 -
    (x10/lmax) x10, which neither cancels as m - hypot does nor overflows as
    det can. Elsewhere lmin = m - hypot: a sum of two nonpositive terms where
    lmax <= 0, and NaN or infinite where an entry is. So a NaN or inf entry
    makes both eigenvalues NaN or infinite. lmax overflows to inf where it
    exceeds the largest double, as eigvalsh's does.
    """
    a, b, c = x[..., 0, 0], x[..., 1, 0], x[..., 1, 1]
    # No warnings: the branch not taken divides by 0 or inf, and an inf
    # entry or an lmax past the largest double is the caller's to read.
    with np.errstate(all="ignore"):
        half_a, half_c = 0.5 * a, 0.5 * c
        m = half_a + half_c
        h = np.hypot(half_a - half_c, b)
        lmax = m + h
        by_det = (lmax > 0) & (lmax < np.inf)
        lmin = np.where(by_det, (a / lmax) * c - (b / lmax) * b, m - h)
    return np.stack((lmax, lmin), axis=-1)


def eigenvalues(x):
    """Eigenvalues sorted descending; all NaN or infinite for a matrix with a NaN or inf entry.

    Closed forms at d <= 2: the entry at d = 1, eigvalsh's bits, and
    :func:`_eigenvalues_closed` at d = 2; eigvalsh above, whose values for a
    non-finite matrix are replaced by NaN (it can return finite ones).
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] == 1:
        return x[..., 0].copy()
    if x.shape[-1] == 2:
        return _eigenvalues_closed(x)
    try:
        vals = np.linalg.eigvalsh(x)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"eigensolver did not converge: {exc}") from None
    vals = vals[..., ::-1]
    vals[~np.isfinite(x).all(axis=(-2, -1))] = np.nan
    return vals


def invert(x):
    """Inverse of a positive definite matrix, validated and stored symmetric."""
    uinv = _triangular_inverse(cholesky(x))
    return symmetrize(_gram(np.swapaxes(uinv, -1, -2)))


def det(x):
    return np.linalg.det(np.asarray(x, dtype=float))


def logdet(x):
    """log det x; NotPositiveDefinite names the first matrix whose determinant is not > 0, NaN included.

    Closed forms at d <= 2: log x at d = 1, and log|x00| + log|pivot| from
    :func:`_pivot` at d = 2, with no tolerance; slogdet above.
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    if d == 1:
        bad = ~(x[..., 0, 0] > 0)
    elif d == 2:
        a, _, _, pivot = _pivot(x)
        bad = ~(np.sign(a) * np.sign(pivot) > 0)  # the sign of det = a * pivot; NaN fails
    else:
        with np.errstate(invalid="ignore"):  # a NaN matrix, reported right below
            sign, ld = np.linalg.slogdet(x)
        # slogdet gives a NaN matrix the sign 1 and a NaN log.
        bad = ~(sign > 0) | np.isnan(ld)
    if np.any(bad):
        raise NotPositiveDefinite(f"determinant is not positive{_at(bad)}")
    if d == 1:
        return np.log(x[..., 0, 0])
    if d == 2:
        return np.log(np.abs(a)) + np.log(np.abs(pivot))
    return ld


def trace(x):
    """Traces over the last two axes, np.trace's bits and type (a scalar for one matrix).

    numpy sums fewer than 8 terms in order, as the running sum over the
    diagonal does at a sixth of the cost on 1e5 2x2 matrices; from 8 terms
    on it sums pairwise, and np.trace stays.
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    if not 0 < d < 8:
        return np.trace(x, axis1=-2, axis2=-1)
    diag = np.diagonal(x, axis1=-2, axis2=-1)
    out = diag[..., 0].copy()
    for k in range(1, d):
        out += diag[..., k]
    return out[()]  # a 0-d array becomes a scalar


def lambda_max(x):
    return eigenvalues(x)[..., 0]


def lambda_min(x):
    return eigenvalues(x)[..., -1]
