"""Exact samplers for the matrix laws, built on Bartlett-type factors.

Every sampler takes an explicit generator created by :func:`make_stream`;
identical (seed, stream_id) pairs reproduce bit-identical output, distinct
pairs give independent counter-based streams. Samplers return one matrix for
``size=None`` or a stack of shape ``(size, d, d)``.
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


def sample_bartlett(spec: BartlettSpec, rng, size=None):
    """Draw upper triangular factors with the given Bartlett law."""
    n = 1 if size is None else int(size)
    if n < 0:
        raise DomainError(f"sample size must be >= 0, got size={size}")
    d = spec.dim
    u = np.zeros((n, d, d))
    shapes = spec.shapes()
    # Draw order is fixed: diagonal first (k = 1..d), then the strict upper
    # triangle row-major, so equal streams reproduce equal factors.
    for k in range(d):
        u[:, k, k] = np.sqrt(rng.gamma(shape=shapes[k], scale=1.0, size=n))
    if d > 1:
        iu = np.triu_indices(d, k=1)
        u[:, iu[0], iu[1]] = rng.normal(0.0, np.sqrt(0.5), size=(n, len(iu[0])))
    return u[0] if size is None else u


def _wishart_spec(p: ModelParams):
    return BartlettSpec(p.alpha, tuple(range(1, p.dim + 1)))


def _inv_wishart_spec(p: ModelParams):
    return BartlettSpec(p.beta, tuple(range(p.dim, 0, -1)))


def _triangular_inverse(b):
    # The inverse of an upper triangular factor is upper triangular; enforce
    # the exact zero pattern against round-off.
    return np.triu(np.linalg.inv(b))


def sample_factor(law, p: ModelParams, rng, size=None, kind=SplitKind.CHOLESKY):
    """Split factor w(X) of a draw X ~ law, so that w(X)^T w(X) = X.

    The Cholesky split gives the upper factor U (positive diagonal) from
    Bartlett factors, without forming X:
    wishart: U = A with A Bartlett(alpha; 1..d).
    invwishart: U = B^-1 with B Bartlett(beta; d..1), by triangular inversion.
    beta2: U = A B^-1 with A, B independent as above.
    The square-root split gives the symmetric root of a :func:`sample` draw.
    """
    if SplitKind(kind) is SplitKind.SQUARE_ROOT:
        return matcore.sqrt_factor(sample(law, p, rng, size))
    law = Law(law)
    p.require_sampling()
    if law is Law.WISHART:
        return sample_bartlett(_wishart_spec(p), rng, size)
    if law is Law.INV_WISHART:
        return _triangular_inverse(sample_bartlett(_inv_wishart_spec(p), rng, size))
    if law is Law.BETA2:
        a = sample_bartlett(_wishart_spec(p), rng, size)
        b = sample_bartlett(_inv_wishart_spec(p), rng, size)
        return a @ _triangular_inverse(b)
    raise DomainError(f"no triangular factor construction for law {law.value}")


def _gram(u):
    return matcore.symmetrize(np.swapaxes(u, -1, -2) @ u)


def sample_wishart(p: ModelParams, rng, size=None):
    return _gram(sample_factor(Law.WISHART, p, rng, size))


def sample_inv_wishart(p: ModelParams, rng, size=None):
    return _gram(sample_factor(Law.INV_WISHART, p, rng, size))


def sample_beta2(p: ModelParams, rng, size=None):
    return _gram(sample_factor(Law.BETA2, p, rng, size))


def sample_beta1(p: ModelParams, rng, size=None, kind=SplitKind.CHOLESKY):
    """Beta type I draw as the sum-normalised part of a Wishart pair.

    Returns the alternative symmetrised product of Y_alpha by the inverse of
    Y_alpha + Y_beta; the law does not depend on the split kind.
    """
    p.require_sampling()
    y_a = sample_wishart(ModelParams(p.dim, p.alpha, p.alpha), rng, size)
    y_b = sample_wishart(ModelParams(p.dim, p.beta, p.beta), rng, size)
    total_inv = matcore.invert(y_a + y_b)
    return matcore.sym_product_alt(kind, total_inv, y_a)


def sample_inv_beta1(p: ModelParams, rng, size=None, kind=SplitKind.CHOLESKY):
    return matcore.invert(sample_beta1(p, rng, size, kind))


def sample(law, p: ModelParams, rng, size=None):
    """Dispatch sampler for the named law."""
    law = Law(law)
    if law is Law.WISHART:
        return sample_wishart(p, rng, size)
    if law is Law.INV_WISHART:
        return sample_inv_wishart(p, rng, size)
    if law is Law.BETA2:
        return sample_beta2(p, rng, size)
    if law is Law.BETA1:
        return sample_beta1(p, rng, size)
    if law is Law.INV_BETA1:
        return sample_inv_beta1(p, rng, size)
    raise DomainError(f"unknown law {law}")
