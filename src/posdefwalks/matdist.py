"""Exact samplers for the matrix laws, built on Bartlett-type factors.

Every sampler takes an explicit generator created by :func:`make_stream`;
identical (seed, stream_id) pairs reproduce bit-identical output, distinct
pairs give independent counter-based streams. Samplers return one matrix for
``size=None`` or a stack of shape ``(size, d, d)``. For the Wishart,
inverse Wishart and beta II laws, and for :func:`sample_factor`, ``blocks=m``
adds a leading axis of m blocks: the same bits as m successive calls, with each
transform (triangular inverse, Gram matrix, split factor) run once on the
whole stack. A draw that is not finite raises DomainError naming the law's
parameters.
"""

from dataclasses import dataclass

import numpy as np

from . import matcore
from .errors import DomainError
from .matcore import SplitKind
from .special import Law, ModelParams


def make_stream(seed, stream_id=0):
    """Counter-based generator keyed by (seed, stream_id)."""
    key = np.array([np.uint64(seed), np.uint64(stream_id)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class BartlettSpec:
    """Upper triangular law with independent entries.

    Diagonal entry k is the square root of a unit-scale gamma variate with
    shape alpha - (c_k - 1)/2; the strict upper triangle is centered normal
    with variance 1/2.
    """

    alpha: float
    c: tuple

    def __post_init__(self):
        shapes = self.shapes()
        if np.any(shapes <= 0):
            raise DomainError(
                f"Bartlett shapes alpha - (c_k - 1)/2 must be positive, got {shapes}"
            )

    def shapes(self):
        return self.alpha - (np.asarray(self.c, dtype=float) - 1.0) / 2.0

    @property
    def dim(self):
        return len(self.c)


def _count(value, name):
    n = 1 if value is None else int(value)
    if n < 0:
        raise DomainError(f"sample {name} must be >= 0, got {name}={value}")
    return n


def _bartlett_blocks(specs, rng, size, blocks):
    """Bartlett factors (blocks, len(specs), size, d, d), one block after another.

    ``None`` for size or blocks counts as 1. Within a block every spec draws
    in turn, in a fixed order: its diagonal (k = 1..d), then its strict upper
    triangle row-major. So a block consumes the stream exactly as one
    sample_bartlett call per spec does, and m blocks as m rounds of them.
    """
    n, m = _count(size, "size"), _count(blocks, "blocks")
    d = specs[0].dim
    shapes = [spec.shapes() for spec in specs]
    iu = np.triu_indices(d, k=1)
    u = np.zeros((m, len(specs), n, d, d))
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


def sample_bartlett(spec: BartlettSpec, rng, size=None):
    """Draw upper triangular factors with the given Bartlett law."""
    return _shaped(_bartlett_blocks((spec,), rng, size, None)[:, 0], size, None)


def _wishart_spec(p: ModelParams):
    return BartlettSpec(p.alpha, tuple(range(1, p.dim + 1)))


def _inv_wishart_spec(p: ModelParams):
    return BartlettSpec(p.beta, tuple(range(p.dim, 0, -1)))


def _not_finite(law, p):
    names = {Law.WISHART: ("alpha",), Law.INV_WISHART: ("beta",)}.get(law, ("alpha", "beta"))
    at = ", ".join(f"{name}={getattr(p, name)!r}" for name in names)
    return DomainError(f"{law.value} draw is not finite at {at}: the parameter is out of range")


# Floating-point warnings silenced where an overflowing or zero draw can meet
# them; every such block is followed at once by _finite, which reports it.
_QUIET = dict(over="ignore", invalid="ignore", divide="ignore")


def _finite(law, p, x):
    """x, or a DomainError naming the law's parameters if any entry is NaN or inf."""
    if not np.isfinite(x).all():
        raise _not_finite(law, p)
    return x


def _triangular_inverse(b, law, p):
    # A diagonal gamma draw that underflowed to zero gives inf entries at
    # d <= 2, which the caller's finiteness check reports, and LinAlgError at d >= 3.
    try:
        return matcore._triangular_inverse(b)
    except np.linalg.LinAlgError:
        raise _not_finite(law, p) from None


def _cholesky_factor(law, p: ModelParams, rng, size, blocks):
    p.require_sampling()
    if law is Law.WISHART:
        u = _bartlett_blocks((_wishart_spec(p),), rng, size, blocks)[:, 0]
    elif law is Law.INV_WISHART:
        b = _bartlett_blocks((_inv_wishart_spec(p),), rng, size, blocks)[:, 0]
        u = _triangular_inverse(b, law, p)
    elif law is Law.BETA2:
        ab = _bartlett_blocks((_wishart_spec(p), _inv_wishart_spec(p)), rng, size, blocks)
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
    return _finite(law, p, u)


def _gram(u):
    return matcore.symmetrize(np.swapaxes(u, -1, -2) @ u)


def _gram_sample(law, p, rng, size, blocks):
    with np.errstate(**_QUIET):
        x = _gram(_cholesky_factor(law, p, rng, size, blocks))
    return _finite(law, p, x)


def sample_wishart(p: ModelParams, rng, size=None, blocks=None):
    return _gram_sample(Law.WISHART, p, rng, size, blocks)


def sample_inv_wishart(p: ModelParams, rng, size=None, blocks=None):
    return _gram_sample(Law.INV_WISHART, p, rng, size, blocks)


def sample_beta2(p: ModelParams, rng, size=None, blocks=None):
    return _gram_sample(Law.BETA2, p, rng, size, blocks)


def sample_beta1(p: ModelParams, rng, size=None, kind=SplitKind.CHOLESKY):
    """Beta type I draw as the sum-normalised part of a Wishart pair.

    Returns the alternative symmetrised product of Y_alpha by the inverse of
    Y_alpha + Y_beta; the law does not depend on the split kind.
    """
    p.require_sampling()
    with np.errstate(**_QUIET):
        y_a = _gram(_cholesky_factor(Law.WISHART, ModelParams(p.dim, p.alpha, p.alpha), rng, size, None))
        y_b = _gram(_cholesky_factor(Law.WISHART, ModelParams(p.dim, p.beta, p.beta), rng, size, None))
        total = y_a + y_b
    # The sum is finite exactly when both Wishart draws are.
    total_inv = matcore.invert(_finite(Law.BETA1, p, total))
    return matcore.sym_product_alt(kind, total_inv, y_a)


def sample_inv_beta1(p: ModelParams, rng, size=None, kind=SplitKind.CHOLESKY):
    return matcore.invert(sample_beta1(p, rng, size, kind))


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
