"""Growth exponents: closed forms, the two estimators, and their agreement."""

import json

import numpy as np
import pytest

from posdefwalks import lyapunov
from posdefwalks.errors import DomainError
from posdefwalks.lyapunov import (
    LyapunovReport,
    closed_form_mu,
    empirical_mu_cholesky,
    empirical_mu_eigen,
)
from posdefwalks.matcore import SplitKind
from posdefwalks.matdist import make_stream, sample_factor
from posdefwalks.special import Law, ModelParams

import oracles

PSI_3 = oracles.PSI_1 + 1.0 + 1.0 / 2.0
PSI_4 = PSI_3 + 1.0 / 3.0
PSI_2_5 = oracles.PSI_HALF + 2.0 + 2.0 / 3.0


# -------------------------------------------------------------- closed forms


def test_closed_form_beta2_scalar():
    mu = closed_form_mu(Law.BETA2, ModelParams(1, 3.0, 6.0))
    assert mu.shape == (1,)
    assert mu[0] == pytest.approx(-(1.0 / 3.0 + 1.0 / 4.0 + 1.0 / 5.0), rel=1e-12)
    assert mu[0] == pytest.approx(-0.7833333333333333, rel=1e-12)


def test_closed_form_wishart_pair():
    mu = closed_form_mu(Law.WISHART, ModelParams(2, 3.0, 3.0))
    np.testing.assert_allclose(mu, [PSI_3, PSI_2_5], rtol=1e-12)


def test_closed_form_inv_wishart_scalar():
    mu = closed_form_mu(Law.INV_WISHART, ModelParams(1, 4.0, 4.0))
    assert mu[0] == pytest.approx(-PSI_4, rel=1e-12)


def test_closed_form_matches_series_oracle():
    mu = closed_form_mu(Law.BETA2, ModelParams(1, 3.0, 6.0))
    expected = oracles.digamma_series(3.0) - oracles.digamma_series(6.0)
    assert mu[0] == pytest.approx(expected, abs=1e-12)


def test_closed_form_domain_errors():
    with pytest.raises(DomainError):
        closed_form_mu(Law.WISHART, ModelParams(3, 0.9, 3.0))
    with pytest.raises(DomainError):
        closed_form_mu(Law.INV_WISHART, ModelParams(2, 2.0, 0.4))
    with pytest.raises(DomainError):
        closed_form_mu(Law.BETA2, ModelParams(2, 0.3, 6.0))


def test_one_sided_laws_read_one_parameter():
    # Wishart reads alpha only and inverse Wishart beta only; the estimator
    # used to refuse a value of the other that its closed form accepted.
    for law, p in ((Law.WISHART, ModelParams(3, 3.0, 0.5)), (Law.INV_WISHART, ModelParams(3, 0.5, 3.0))):
        rep = empirical_mu_cholesky(law, p, 20, 2, make_stream(612))
        np.testing.assert_array_equal(rep.mu_closed, closed_form_mu(law, ModelParams(3, 3.0, 3.0)))
    with pytest.raises(DomainError, match=r"^need alpha > \(d-1\)/2 = 1.0, got alpha=0.9$"):
        closed_form_mu(Law.WISHART, ModelParams(3, 0.9, 3.0))
    with pytest.raises(DomainError, match=r"^need beta > \(d-1\)/2 = 0.5, got beta=0.4$"):
        closed_form_mu(Law.INV_WISHART, ModelParams(2, 2.0, 0.4))


def test_closed_form_strictly_decreasing_in_k():
    for law, p in (
        (Law.BETA2, ModelParams(4, 5.0, 9.0)),
        (Law.WISHART, ModelParams(3, 4.0, 4.0)),
        (Law.INV_WISHART, ModelParams(3, 4.0, 6.0)),
    ):
        mu = closed_form_mu(law, p)
        assert np.all(np.diff(mu) < 0)


# -------------------------------------------------- Cholesky-diagonal method


def test_cholesky_estimator_scalar_beta2():
    p = ModelParams(1, 3.0, 6.0)
    rep = empirical_mu_cholesky(Law.BETA2, p, n_steps=2000, n_replicas=200, rng=make_stream(600))
    assert abs(rep.mu_hat[0] - (-0.7833333333333333)) < 3 * rep.std_err[0]


def test_cholesky_estimator_wishart_pair():
    p = ModelParams(2, 3.0, 3.0)
    rep = empirical_mu_cholesky(Law.WISHART, p, n_steps=2000, n_replicas=200, rng=make_stream(601))
    for k in range(2):
        assert abs(rep.mu_hat[k] - rep.mu_closed[k]) < 3 * rep.std_err[k]
    np.testing.assert_allclose(rep.mu_closed, [PSI_3, PSI_2_5], rtol=1e-12)


@pytest.mark.parametrize("method", ["cholesky", "eigen"])
def test_estimators_refuse_a_single_replica(method):
    # The standard error is taken across replicas. With one replica the
    # Cholesky estimator used to switch to a variance across steps, and the
    # eigen one reported NaN, which the CLI printed as invalid JSON.
    p = ModelParams(2, 4.0, 8.0)
    with pytest.raises(DomainError, match=r"^n_replicas must be at least 2, got 1$"):
        if method == "cholesky":
            empirical_mu_cholesky(Law.BETA2, p, 50, 1, make_stream(602))
        else:
            empirical_mu_eigen(Law.BETA2, p, SplitKind.CHOLESKY, 50, 1, make_stream(602))


def test_cholesky_estimator_rejects_zero_steps():
    with pytest.raises(DomainError):
        empirical_mu_cholesky(Law.BETA2, ModelParams(1, 3.0, 6.0), 0, 10, make_stream(603))


# ------------------------------------------------------- eigen-growth method


def test_eigen_estimator_scalar_law_of_large_numbers():
    p = ModelParams(1, 3.0, 6.0)
    rep = empirical_mu_eigen(
        Law.BETA2, p, SplitKind.CHOLESKY, n_steps=4000, n_replicas=50, rng=make_stream(604)
    )
    assert abs(rep.mu_hat[0] - rep.mu_closed[0]) < 3 * rep.std_err[0]


def test_eigen_estimator_cross_method_agreement():
    p = ModelParams(2, 4.0, 8.0)
    chol = empirical_mu_cholesky(Law.BETA2, p, n_steps=2000, n_replicas=200, rng=make_stream(605))
    eig = empirical_mu_eigen(
        Law.BETA2, p, SplitKind.CHOLESKY, n_steps=2000, n_replicas=200, rng=make_stream(606)
    )
    for k in range(2):
        joint = np.hypot(chol.std_err[k], eig.std_err[k])
        assert abs(chol.mu_hat[k] - eig.mu_hat[k]) < 3 * joint


def test_eigen_estimator_sum_rule_matches_log_det():
    # the accumulated channels must sum to (1/n) log det of the product,
    # reconstructed here by replaying the same blocked draws of factors
    p = ModelParams(3, 4.0, 8.0)
    n_steps, n_replicas = 500, 2
    rep = empirical_mu_eigen(
        Law.BETA2, p, SplitKind.CHOLESKY, n_steps=n_steps, n_replicas=n_replicas,
        rng=make_stream(607),
    )
    replay = make_stream(607)
    log_det = np.zeros(n_replicas)
    for start in range(0, n_steps, lyapunov.RESCALE_EVERY):
        m = min(lyapunov.RESCALE_EVERY, n_steps - start)
        fac = sample_factor(Law.BETA2, p, replay, size=n_replicas, blocks=m)
        log_det += 2.0 * np.sum(np.log(np.diagonal(fac, axis1=-2, axis2=-1)), axis=(0, 2))
    assert np.sum(rep.mu_hat) == pytest.approx(np.mean(log_det) / n_steps, abs=1e-8)


def test_eigen_estimator_contracting_regime_is_negative():
    p = ModelParams(2, 2.0, 6.0)
    rep = empirical_mu_eigen(
        Law.BETA2, p, SplitKind.CHOLESKY, n_steps=1000, n_replicas=100, rng=make_stream(608)
    )
    assert rep.mu_closed[0] < 0
    assert rep.mu_hat[0] < 0
    assert rep.mu_hat[0] + 3 * rep.std_err[0] < 0


def test_eigen_estimator_square_root_kind_agrees():
    p = ModelParams(2, 4.0, 8.0)
    rep = empirical_mu_eigen(
        Law.BETA2, p, SplitKind.SQUARE_ROOT, n_steps=800, n_replicas=100, rng=make_stream(609)
    )
    for k in range(2):
        assert abs(rep.mu_hat[k] - rep.mu_closed[k]) < 3 * rep.std_err[k]


def test_eigen_estimator_rejects_zero_steps():
    with pytest.raises(DomainError):
        empirical_mu_eigen(
            Law.BETA2, ModelParams(1, 3.0, 6.0), SplitKind.CHOLESKY, 0, 10, make_stream(610)
        )


@pytest.mark.parametrize("n_replicas", [0, -1])
@pytest.mark.parametrize("method", ["cholesky", "eigen"])
def test_estimators_reject_replicas_below_one(method, n_replicas):
    # 0 replicas used to give mu_hat NaN (eigen) or a TypeError (cholesky).
    p = ModelParams(1, 3.0, 6.0)
    with pytest.raises(DomainError, match="n_replicas"):
        if method == "cholesky":
            empirical_mu_cholesky(Law.BETA2, p, 10, n_replicas, make_stream(611))
        else:
            empirical_mu_eigen(Law.BETA2, p, SplitKind.CHOLESKY, 10, n_replicas, make_stream(611))


# ------------------------------------------------------------- consistency


def test_closed_form_consistency_all_laws_and_dims():
    seeds = iter(range(620, 660))
    for law, alpha, beta in (
        (Law.WISHART, 3.0, 3.0),
        (Law.INV_WISHART, 4.0, 4.0),
        (Law.BETA2, 4.0, 8.0),
    ):
        for d in (1, 2, 3):
            p = ModelParams(d, alpha, beta)
            rep = empirical_mu_cholesky(
                law, p, n_steps=2000, n_replicas=100, rng=make_stream(next(seeds))
            )
            for k in range(d):
                assert abs(rep.mu_hat[k] - rep.mu_closed[k]) < 3 * rep.std_err[k], (
                    law,
                    d,
                    k,
                )


# ------------------------------------------------------------------ report


def test_report_shapes_and_json_fields():
    p = ModelParams(2, 4.0, 8.0)
    rep = empirical_mu_cholesky(
        Law.BETA2, p, n_steps=200, n_replicas=20, rng=make_stream(660), seed=660
    )
    assert isinstance(rep, LyapunovReport)
    assert rep.mu_hat.shape == rep.std_err.shape == rep.mu_closed.shape == (2,)
    assert np.all(rep.std_err > 0)
    payload = json.loads(rep.to_json())
    for key in ("law", "params", "mu_hat", "std_err", "mu_closed", "n_steps", "n_replicas", "seed"):
        assert key in payload
    assert payload["law"] == "beta2"
    assert payload["params"] == {"dim": 2, "alpha": 4.0, "beta": 8.0}
    assert payload["n_steps"] == 200
    assert payload["n_replicas"] == 20
    assert payload["seed"] == 660
    assert len(payload["mu_hat"]) == 2
