"""Exact samplers for the matrix laws, built on Bartlett-type factors.

The Wishart Bartlett factor itself is ``sample_factor(Law.WISHART, p, rng)``.

Every sampler takes an explicit generator created by :func:`make_stream`;
identical (seed, stream_id) pairs reproduce bit-identical output, distinct
pairs give independent counter-based streams. Samplers return one matrix for
``size=None`` or a stack of shape ``(size, d, d)``. For the Wishart, inverse
Wishart and beta II laws, and for :func:`sample_factor`, ``blocks=m`` adds a
leading axis of m blocks: the same bits as m successive calls, with each
transform (triangular inverse, Gram matrix, split factor) run once on the
whole stack. The gamma and normal variates of the Bartlett factors are drawn
in place into two buffers, in the stream order of one draw call per diagonal
entry and one per strict upper triangle (see ``_bartlett_blocks``). A draw
that is not finite or has an entry above matcore.SYMMETRIZE_MAX in magnitude,
or whose triangular factor has a diagonal entry that is not > 0, raises
DomainError naming the law's parameters.
"""

import numpy as np

from . import matcore
from .errors import DomainError
from .matcore import SplitKind
from .special import Law, ModelParams


def make_stream(seed, stream_id=0):
    """Counter-based generator keyed by (seed, stream_id), each an integer in [0, 2^64)."""
    for name, value in (("seed", seed), ("stream_id", stream_id)):
        if not (isinstance(value, (int, np.integer)) and 0 <= value < 2**64):
            raise DomainError(f"stream {name} must be an integer in [0, 2^64), got {name}={value!r}")
    key = np.array([np.uint64(seed), np.uint64(stream_id)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _count(value, name):
    n = 1 if value is None else int(value)
    if n < 0:
        raise DomainError(f"sample {name} must be >= 0, got {name}={value}")
    return n


# A block of this many draws or more is staged one shape array at a time: the
# transforms then run once per shape array, which costs under 1% of such a
# draw and about 25% of a 64-row one.
_STAGE_ROWS = 4096


def _bartlett_blocks(shapes, rng, size, blocks):
    """Bartlett factors (blocks, len(shapes), size, d, d), one block after another.

    A Bartlett factor is upper triangular with independent entries: diagonal
    entry k is the square root of a unit-scale gamma variate of shape
    ``sh[k]``, and the strict upper triangle is centered normal with variance
    1/2. ``None`` for size or blocks counts as 1. Within a block every shape
    array ``sh`` of ``shapes`` draws in turn, in a fixed order: its diagonal
    (k = 1..d), then its strict upper triangle row-major. So m blocks consume
    the stream as m successive single-block calls do.

    The variates are drawn in place, in that order, into two contiguous
    buffers, gammas (blocks, shapes, d, size) and standard normals (blocks,
    shapes, size, d(d-1)/2); the square roots, the scaling and the writes
    into the factors then run once on the whole stack. One block of at
    least _STAGE_ROWS draws is staged one shape array at a time, its buffers
    serving the next, which halves the staging of a large beta II draw. At
    d = 1 the gammas are drawn into the factors' own array, which has their
    layout. numpy's ``normal(0, s)`` is ``0 + s z`` for a standard normal z,
    so the normals are scaled by sqrt(1/2) and then added to 0.0, which
    gives its bits down to the sign of a zero.
    """
    n, m = _count(size, "size"), _count(blocks, "blocks")
    d = len(shapes[0])
    u = np.zeros((m, len(shapes), n, d, d))
    if d == 1:
        for g_block in u.reshape(m, len(shapes), n):
            for g, sh in zip(g_block, shapes):
                rng.standard_gamma(sh[0], out=g)
        return np.sqrt(u, out=u)
    # (factors, their shape arrays) in stream order, each staged whole.
    parts = [(u, shapes)]
    if m == 1 and n >= _STAGE_ROWS:
        parts = [(u[:, i : i + 1], shapes[i : i + 1]) for i in range(len(shapes))]
    iu = np.triu_indices(d, k=1)
    gammas = np.empty((m, len(parts[0][1]), d, n))
    normals = np.empty((m, len(parts[0][1]), n, len(iu[0])))
    for part, part_shapes in parts:
        for g_block, z_block in zip(gammas, normals):
            for g, z, sh in zip(g_block, z_block, part_shapes):
                for k in range(d):
                    rng.standard_gamma(sh[k], out=g[k])
                rng.standard_normal(out=z)
        for k in range(d):
            np.sqrt(gammas[:, :, k], out=part[..., k, k])
        normals *= np.sqrt(0.5)
        normals += 0.0
        part[..., iu[0], iu[1]] = normals
    return u


def _shaped(x, size, blocks):
    """Drop the draw axis of x (blocks, size, ...) for size=None and the block axis for blocks=None."""
    if size is None:
        x = x[:, 0]
    return x[0] if blocks is None else x


# Why a draw at a parameter that require_sampling() accepts can still fail.
_CAUSES = {
    "is not finite": "a gamma variate underflowed to 0 and was inverted, or an entry overflowed",
    "is singular": "a gamma variate underflowed to 0",
}


def _unrepresentable(law, p, what):
    at = ", ".join(f"{name}={getattr(p, name)!r}" for name in law.reads)
    why = f"not representable in float64 at that parameter ({_CAUSES[what]})"
    return DomainError(f"{law.value} draw {what} at {at}: {why}")


# Floating-point warnings silenced where an overflowing or zero draw can meet
# them; every such block is followed at once by _checked, which reports it.
_QUIET = dict(over="ignore", invalid="ignore", divide="ignore")


def _checked(law, p, x, *factors):
    """x, or a DomainError naming the law's parameters.

    It is raised if an entry of x is NaN, inf or above matcore.SYMMETRIZE_MAX
    in magnitude, outside the range posdef accepts, or if a diagonal entry of
    a triangular factor of the draw is not > 0: a Bartlett gamma variate of
    shape near 0 can underflow to exactly 0, which leaves the factor singular.
    """
    if not (np.abs(x) <= matcore.SYMMETRIZE_MAX).all():  # a NaN fails too
        raise _unrepresentable(law, p, "is not finite")
    for u in factors:
        if not (np.diagonal(u, axis1=-2, axis2=-1) > 0).all():
            raise _unrepresentable(law, p, "is singular")
    return x


def _triangular_inverse(b, law, p):
    # A diagonal gamma draw that underflowed to zero gives inf entries at
    # d <= 3, which the caller's finiteness check reports, and LinAlgError at d >= 4.
    try:
        return matcore._triangular_inverse(b)
    except np.linalg.LinAlgError:
        raise _unrepresentable(law, p, "is not finite") from None


def _cholesky_factor(law, p: ModelParams, rng, size, blocks):
    p.require_sampling(law)  # so every Bartlett gamma shape the law draws is > 0
    # Shapes alpha - (c_k - 1)/2 for c = 1..d (A) and beta's for c = d..1 (B).
    half = np.arange(p.dim) / 2.0
    a_shapes, b_shapes = p.alpha - half, p.beta - half[::-1]
    if law is Law.WISHART:
        u = _bartlett_blocks((a_shapes,), rng, size, blocks)[:, 0]
    elif law is Law.INV_WISHART:
        b = _bartlett_blocks((b_shapes,), rng, size, blocks)[:, 0]
        u = _triangular_inverse(b, law, p)
    elif law is Law.BETA2:
        ab = _bartlett_blocks((a_shapes, b_shapes), rng, size, blocks)
        u = matcore._product(ab[:, 0], _triangular_inverse(ab[:, 1], law, p))
    else:
        raise DomainError(f"no triangular factor construction for law {law.value}")
    return _shaped(u, size, blocks)


def sample_factor(law, p: ModelParams, rng, size=None, kind=SplitKind.CHOLESKY, blocks=None):
    """Split factor w(X) of a draw X ~ law, so that w(X)^T w(X) = X.

    The Cholesky split gives the upper factor U (positive diagonal) from
    Bartlett factors, without forming X:
    wishart: U = A with A Bartlett(alpha; 1..d).
    invwishart: U = B^-1 with B Bartlett(beta; d..1), by triangular inversion.
    beta2: U = A B^-1 with A, B independent as above.
    The square-root split gives the symmetric root of a :func:`sample` draw;
    with ``blocks`` it takes the three laws above only.
    """
    if SplitKind(kind) is SplitKind.SQUARE_ROOT:
        return matcore.sqrt_factor(sample(law, p, rng, size, blocks))
    law = Law(law)
    with np.errstate(**_QUIET):
        u = _cholesky_factor(law, p, rng, size, blocks)
    return _checked(law, p, u, u)


def _factor_and_gram(law, p, rng, size=None, blocks=None):
    """sample_factor's Cholesky factor u of a draw and the draw u^T u, from one stream.

    The draw has the bits of ``sample(law, ...)`` on the same stream.
    """
    with np.errstate(**_QUIET):
        u = _cholesky_factor(law, p, rng, size, blocks)
        x = matcore._gram(u)
    return _checked(law, p, x, u), u


def sample_wishart(p: ModelParams, rng, size=None, blocks=None):
    return _factor_and_gram(Law.WISHART, p, rng, size, blocks)[0]


def sample_inv_wishart(p: ModelParams, rng, size=None, blocks=None):
    return _factor_and_gram(Law.INV_WISHART, p, rng, size, blocks)[0]


def sample_beta2(p: ModelParams, rng, size=None, blocks=None):
    return _factor_and_gram(Law.BETA2, p, rng, size, blocks)[0]


def sample_beta1(p: ModelParams, rng, size=None):
    """Beta type I draw as the sum-normalised part of a Wishart pair.

    Returns the alternative symmetrised product of Y_alpha by the inverse of
    Y_alpha + Y_beta, by the Cholesky split; the law does not depend on the
    split kind.
    """
    p.require_sampling()
    with np.errstate(**_QUIET):
        u_a = _cholesky_factor(Law.WISHART, ModelParams(p.dim, p.alpha, p.alpha), rng, size, None)
        u_b = _cholesky_factor(Law.WISHART, ModelParams(p.dim, p.beta, p.beta), rng, size, None)
        y_a = matcore._gram(u_a)
        total = y_a + matcore._gram(u_b)
    # The sum is finite exactly when both Wishart draws are.
    total_inv = matcore.invert(_checked(Law.BETA1, p, total, u_a, u_b))
    return matcore.sym_product_alt(SplitKind.CHOLESKY, total_inv, y_a)


def sample_inv_beta1(p: ModelParams, rng, size=None):
    return matcore.invert(sample_beta1(p, rng, size))


def sample(law, p: ModelParams, rng, size=None, blocks=None):
    """Dispatch sampler for the named law; ``blocks`` is for the three Gram laws only."""
    law = Law(law)
    if law is Law.WISHART:
        return sample_wishart(p, rng, size, blocks)
    if law is Law.INV_WISHART:
        return sample_inv_wishart(p, rng, size, blocks)
    if law is Law.BETA2:
        return sample_beta2(p, rng, size, blocks)
    if blocks is not None:
        raise DomainError(f"blocks is not supported for law {law.value}, got blocks={blocks}")
    if law is Law.BETA1:
        return sample_beta1(p, rng, size)
    return sample_inv_beta1(p, rng, size)
