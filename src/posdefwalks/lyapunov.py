"""Lyapunov exponents of the matrix walks: closed forms and two estimators.

The diagonal estimator averages log squared diagonals of the triangular
factor of single increments; the spectral estimator tracks eigenvalue growth
of the accumulated product w(X_n)...w(X_1) of increment factors, drawn by
:func:`matdist.sample_factor` for either split kind, with a QR rescale every
RESCALE_EVERY steps. The factors of one rescale period are drawn in one
blocked call, in step order. Both are consistent for the same exponents,
and both report the mean of n_replicas >= 2 independent replicas with its
standard error across them. closed_form_mu checks only the parameters its
law reads (Law.reads).
"""

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import matdist
from .errors import DomainError, StepOverflow
from .special import Law, ModelParams, digamma

RESCALE_EVERY = 16


@dataclass
class LyapunovReport:
    law: str
    dim: int
    alpha: float
    beta: float
    mu_hat: np.ndarray
    std_err: np.ndarray
    mu_closed: np.ndarray
    n_steps: int
    n_replicas: int
    method: str
    seed: int | None = None

    def to_json(self):
        payload = asdict(self)
        payload["params"] = {"dim": self.dim, "alpha": self.alpha, "beta": self.beta}
        for key in ("mu_hat", "std_err", "mu_closed"):
            payload[key] = [float(v) for v in payload[key]]
        return json.dumps(payload)


def closed_form_mu(law, p: ModelParams):
    """Exponents mu_k, k = 1..d, as digamma evaluations."""
    law = Law(law)
    p.require_sampling(law)
    d = p.dim
    ks = np.arange(1, d + 1, dtype=float)
    if law is Law.WISHART:
        return digamma(p.alpha - (ks - 1) / 2.0)
    if law is Law.INV_WISHART:
        return -digamma(p.beta - (d - ks) / 2.0)
    if law is Law.BETA2:
        return digamma(p.alpha - (ks - 1) / 2.0) - digamma(p.beta - (d - ks) / 2.0)
    raise DomainError(f"no closed form for law {law}")


def _report(law, p, per_rep, n_steps, method, seed):
    """The report of the per-replica estimates per_rep (n_replicas, d): mean and its standard error."""
    n_replicas = len(per_rep)
    return LyapunovReport(
        law=Law(law).value,
        dim=p.dim,
        alpha=p.alpha,
        beta=p.beta,
        mu_hat=per_rep.mean(axis=0),
        std_err=per_rep.std(axis=0, ddof=1) / np.sqrt(n_replicas),
        mu_closed=closed_form_mu(law, p),
        n_steps=n_steps,
        n_replicas=n_replicas,
        method=method,
        seed=seed,
    )


def _check_counts(n_steps, n_replicas):
    # The standard error is taken across replicas, so it needs two of them.
    for name, value, least in (("n_steps", n_steps, 1), ("n_replicas", n_replicas, 2)):
        if value < least:
            raise DomainError(f"{name} must be at least {least}, got {value}")


def empirical_mu_cholesky(law, p: ModelParams, n_steps, n_replicas, rng, seed=None):
    """Average log squared factor diagonals of i.i.d. increments.

    Each replica averages n_steps independent draws; the standard error is
    taken across the n_replicas >= 2 replicas.
    """
    _check_counts(n_steps, n_replicas)
    per_rep = np.empty((n_replicas, p.dim))
    for rep in range(n_replicas):
        fac = matdist.sample_factor(law, p, rng, size=n_steps)
        per_rep[rep] = (2.0 * np.log(np.diagonal(fac, axis1=-2, axis2=-1))).mean(axis=0)
    return _report(law, p, per_rep, n_steps, "cholesky", seed)


def empirical_mu_eigen(law, p: ModelParams, kind, n_steps, n_replicas, rng, seed=None):
    """Eigenvalue growth rates of the accumulated factor product.

    Every RESCALE_EVERY steps, and after the last, the running factor is
    renormalised by orthogonalising it against the frame of the previous
    renormalisation, and the log of each growth channel is accumulated
    separately.  A single scalar rescale cannot work here: the eigenvalue
    spread of the product grows like exp(n (mu_1 - mu_d)), which leaves double
    precision long before desk-scale step counts, while the per-channel logs
    stay O(n).
    Determinants are preserved exactly, so the accumulated channels sum to
    log det of the product, and at d=1 the estimator reduces to the plain
    average of log increments.
    """
    _check_counts(n_steps, n_replicas)
    d = p.dim
    v = np.broadcast_to(np.eye(d), (n_replicas, d, d)).copy()
    acc = np.zeros((n_replicas, d))
    for start in range(0, n_steps, RESCALE_EVERY):
        m = min(RESCALE_EVERY, n_steps - start)
        for f in matdist.sample_factor(law, p, rng, size=n_replicas, kind=kind, blocks=m):
            v = f @ v
        q, t = np.linalg.qr(v)
        growth = np.abs(np.diagonal(t, axis1=-2, axis2=-1))
        if not np.all(np.isfinite(growth)) or np.any(growth <= 0):
            raise StepOverflow("rescaling failed; product left the stable range")
        acc += 2.0 * np.log(growth)
        v = q
    return _report(law, p, acc / n_steps, n_steps, "eigen", seed)
