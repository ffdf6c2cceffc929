"""Lyapunov exponents of the matrix walks: closed forms and two estimators.

The diagonal estimator averages log squared diagonals of the triangular
factor of single increments; the spectral estimator tracks eigenvalue growth
of the accumulated product w(X_n)...w(X_1) of increment factors, drawn by
:func:`matdist.sample_factor` for either split kind, with a QR rescale every
RESCALE_EVERY steps. Both are consistent for the same exponents.
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
    d = p.dim
    ks = np.arange(1, d + 1, dtype=float)
    if law is Law.WISHART:
        if not p.alpha > (d - 1) / 2.0:
            raise DomainError("wishart exponents need alpha > (d-1)/2")
        return digamma(p.alpha - (ks - 1) / 2.0)
    if law is Law.INV_WISHART:
        if not p.beta > (d - 1) / 2.0:
            raise DomainError("inverse wishart exponents need beta > (d-1)/2")
        return -digamma(p.beta - (d - ks) / 2.0)
    if law is Law.BETA2:
        p.require_sampling()
        return digamma(p.alpha - (ks - 1) / 2.0) - digamma(p.beta - (d - ks) / 2.0)
    raise DomainError(f"no closed form for law {law}")


def _report(law, p, mu_hat, std_err, n_steps, n_replicas, method, seed):
    return LyapunovReport(
        law=Law(law).value,
        dim=p.dim,
        alpha=p.alpha,
        beta=p.beta,
        mu_hat=np.asarray(mu_hat, dtype=float),
        std_err=np.asarray(std_err, dtype=float),
        mu_closed=closed_form_mu(law, p),
        n_steps=n_steps,
        n_replicas=n_replicas,
        method=method,
        seed=seed,
    )


def _check_counts(n_steps, n_replicas):
    for name, value in (("n_steps", n_steps), ("n_replicas", n_replicas)):
        if value < 1:
            raise DomainError(f"{name} must be at least 1, got {value}")


def empirical_mu_cholesky(law, p: ModelParams, n_steps, n_replicas, rng, seed=None):
    """Average log squared factor diagonals of i.i.d. increments.

    Each replica averages n_steps independent draws; the standard error is
    taken across replicas, or across steps when n_replicas is 1.
    """
    _check_counts(n_steps, n_replicas)
    d = p.dim
    per_rep = np.empty((n_replicas, d))
    step_var = None
    for rep in range(n_replicas):
        fac = matdist.sample_factor(law, p, rng, size=n_steps)
        logs = 2.0 * np.log(np.diagonal(fac, axis1=-2, axis2=-1))
        per_rep[rep] = logs.mean(axis=0)
        if n_replicas == 1:
            step_var = logs.var(axis=0, ddof=1) / n_steps
    mu_hat = per_rep.mean(axis=0)
    if n_replicas > 1:
        std_err = per_rep.std(axis=0, ddof=1) / np.sqrt(n_replicas)
    else:
        std_err = np.sqrt(step_var)
    return _report(law, p, mu_hat, std_err, n_steps, n_replicas, "cholesky", seed)


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
    for step in range(1, n_steps + 1):
        v = matdist.sample_factor(law, p, rng, size=n_replicas, kind=kind) @ v
        if step % RESCALE_EVERY == 0 or step == n_steps:
            q, t = np.linalg.qr(v)
            growth = np.abs(np.diagonal(t, axis1=-2, axis2=-1))
            if not np.all(np.isfinite(growth)) or np.any(growth <= 0):
                raise StepOverflow("rescaling failed; product left the stable range")
            acc += 2.0 * np.log(growth)
            v = q
    per_rep = acc / n_steps
    mu_hat = per_rep.mean(axis=0)
    if n_replicas > 1:
        std_err = per_rep.std(axis=0, ddof=1) / np.sqrt(n_replicas)
    else:
        std_err = np.full(d, np.nan)
    return _report(law, p, mu_hat, std_err, n_steps, n_replicas, "eigen", seed)
