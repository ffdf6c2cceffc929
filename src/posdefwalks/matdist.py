"""Exact samplers for the matrix laws, built on Bartlett-type factors.

The Wishart Bartlett factor itself is ``sample_factor(Law.WISHART, p, rng)``.

Every sampler takes an explicit generator created by :func:`make_stream`;
identical (seed, stream_id) pairs reproduce bit-identical output, distinct
pairs give independent counter-based streams. Samplers return one matrix for
``size=None`` or a stack of shape ``(size, d, d)``. For the Wishart,
inverse Wishart and beta II laws, and for :func:`sample_factor`, ``blocks=m``
adds a leading axis of m blocks: the same bits as m successive calls, with each
transform (triangular inverse, Gram matrix, split factor) run once on the
whole stack. A draw that is not finite, or whose triangular factor has a
diagonal entry that is not > 0, raises DomainError naming the law's
parameters.
"""

import numpy as np

from . import matcore
from .errors import DomainError
from .matcore import SplitKind
from .special import Law, ModelParams


def make_stream(seed, stream_id=0):
    """Counter-based generator keyed by (seed, stream_id)."""
    key = np.array([np.uint64(seed), np.uint64(stream_id)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _count(value, name):
    n = 1 if value is None else int(value)
    if n < 0:
        raise DomainError(f"sample {name} must be >= 0, got {name}={value}")
    return n


def _bartlett_blocks(shapes, rng, size, blocks):
    """Bartlett factors (blocks, len(shapes), size, d, d), one block after another.

    A Bartlett factor is upper triangular with independent entries: diagonal
    entry k is the square root of a unit-scale gamma variate of shape
    ``sh[k]``, and the strict upper triangle is centered normal with variance
    1/2. ``None`` for size or blocks counts as 1. Within a block every shape
    array ``sh`` of ``shapes`` draws in turn, in a fixed order: its diagonal
    (k = 1..d), then its strict upper triangle row-major. So m blocks consume
    the stream as m successive single-block calls do.
    """
    n, m = _count(size, "size"), _count(blocks, "blocks")
    d = len(shapes[0])
    iu = np.triu_indices(d, k=1)
    u = np.zeros((m, len(shapes), n, d, d))
    for block in u:
        for f, sh in zip(block, shapes):
            for k in range(d):
                f[:, k, k] = np.sqrt(rng.gamma(shape=sh[k], scale=1.0, size=n))
            if d > 1:
                f[:, iu[0], iu[1]] = rng.normal(0.0, np.sqrt(0.5), size=(n, len(iu[0])))
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
    names = {Law.WISHART: ("alpha",), Law.INV_WISHART: ("beta",)}.get(law, ("alpha", "beta"))
    at = ", ".join(f"{name}={getattr(p, name)!r}" for name in names)
    why = f"not representable in float64 at that parameter ({_CAUSES[what]})"
    return DomainError(f"{law.value} draw {what} at {at}: {why}")


# Floating-point warnings silenced where an overflowing or zero draw can meet
# them; every such block is followed at once by _checked, which reports it.
_QUIET = dict(over="ignore", invalid="ignore", divide="ignore")


def _checked(law, p, x, *factors):
    """x, or a DomainError naming the law's parameters.

    It is raised if an entry of x is NaN or inf, or if a diagonal entry of a
    triangular factor of the draw is not > 0: a Bartlett gamma variate of
    shape near 0 can underflow to exactly 0, which leaves the factor singular.
    """
    if not np.isfinite(x).all():
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
    p.require_sampling()  # so every Bartlett gamma shape below is > 0
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
        u = ab[:, 0] @ _triangular_inverse(ab[:, 1], law, p)
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


def _gram(u):
    return matcore.symmetrize(matcore._gram(u))


def _gram_sample(law, p, rng, size, blocks):
    with np.errstate(**_QUIET):
        u = _cholesky_factor(law, p, rng, size, blocks)
        x = _gram(u)
    return _checked(law, p, x, u)


def sample_wishart(p: ModelParams, rng, size=None, blocks=None):
    return _gram_sample(Law.WISHART, p, rng, size, blocks)


def sample_inv_wishart(p: ModelParams, rng, size=None, blocks=None):
    return _gram_sample(Law.INV_WISHART, p, rng, size, blocks)


def sample_beta2(p: ModelParams, rng, size=None, blocks=None):
    return _gram_sample(Law.BETA2, p, rng, size, blocks)


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
        y_a = _gram(u_a)
        total = y_a + _gram(u_b)
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
    if law is Law.INV_BETA1:
        return sample_inv_beta1(p, rng, size)
    raise DomainError(f"unknown law {law}")
