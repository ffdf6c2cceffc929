"""End-to-end acceptance gates, one test per criterion.

Each test prints one PASS/FAIL line with the measured quantities before
asserting, so a verbose run reads as a ten-line scorecard.
"""

import numpy as np

from posdefwalks import lyapunov, matcore, matdist, verify, walks
from posdefwalks.matcore import SplitKind
from posdefwalks.matdist import make_stream
from posdefwalks.special import Law, ModelParams
from posdefwalks.verify import KS_FUNCTIONALS, ks_one_sample, ks_two_sample

P_FLOOR = 1e-3


def _line(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_dufresne_scalar_limit():
    p = ModelParams(1, 2.0, 5.0)
    draws = walks.dufresne_series(p, make_stream(9001), size=200_000)
    xs = draws[:, 0, 0]
    _, pval = ks_one_sample(xs, verify._inv_wishart_cdf_d1(3.0))
    mean = xs.mean()
    se = xs.std(ddof=1) / np.sqrt(xs.size)
    mean_gap = abs(mean - 0.5)
    ok = pval > P_FLOOR and mean_gap < 3 * se
    assert _line(
        1, ok, f"KS p={pval:.3g} (need >1e-3), mean={mean:.5f} gap={mean_gap:.2e} vs 3SE={3 * se:.2e}"
    )


def test_criterion_02_dufresne_matrix_limit():
    p = ModelParams(2, 2.5, 6.0)
    rng = make_stream(9002)
    series = walks.dufresne_series(p, rng, size=100_000)
    direct = matdist.sample_inv_wishart(ModelParams(2, 3.5, 3.5), rng, size=100_000)
    pvals = {}
    for f in KS_FUNCTIONALS:
        _, pvals[f.__name__] = ks_two_sample(f(series), f(direct))
    ok = all(v > P_FLOOR for v in pvals.values())
    detail = ", ".join(f"{k} p={v:.3g}" for k, v in pvals.items())
    assert _line(2, ok, detail + " (each needs >1e-3)")


def test_criterion_03_intertwining_quadrature():
    rep = verify.check_intertwining_d1(ModelParams(1, 2.0, 5.0), seed=9003)
    for fragment in ("operator", "eigenfunction f=1", "initial measures"):
        assert fragment in rep.details
    ok = rep.passed and rep.statistic < rep.threshold
    assert _line(3, ok, f"max rel discrepancy={rep.statistic:.3e} (need <{rep.threshold:.0e})")


def test_criterion_04_ratio_process_marginals():
    rep = verify.check_my_markov_d1(ModelParams(1, 2.0, 5.0), 200_000, make_stream(9004), h=0.05, seed=9004)
    assert "halved-h bias check" in rep.details
    ok = rep.passed
    assert _line(4, ok, f"worst gate ratio={rep.statistic:.3f} (need <1); {rep.details.split(';')[0]}")


def test_criterion_05_kesten_fixed_point():
    oks = []
    stats = []
    for d in (1, 2):
        rep = verify.check_fixed_point(2.5, 6.0, (d,), 500, 2000, make_stream(9005 + d), seed=9005 + d)
        assert "push" in rep.details and "xi_prime" in rep.details
        oks.append(rep.passed)
        stats.append(f"d={d} ratio={rep.statistic:.3f}")
    ok = all(oks)
    assert _line(5, ok, ", ".join(stats) + " (each needs <1)")


def test_criterion_06_lyapunov_exponents():
    configs = (
        (Law.WISHART, ModelParams(3, 3.0, 3.0)),
        (Law.INV_WISHART, ModelParams(3, 4.0, 4.0)),
        (Law.BETA2, ModelParams(3, 4.0, 8.0)),
    )
    worst_z = 0.0
    worst_joint = 0.0
    ok = True
    for idx, (law, p) in enumerate(configs):
        chol = lyapunov.empirical_mu_cholesky(law, p, 2000, 200, make_stream(9060 + idx))
        eig = lyapunov.empirical_mu_eigen(
            law, p, SplitKind.CHOLESKY, 2000, 200, make_stream(9070 + idx)
        )
        for rep in (chol, eig):
            z = np.max(np.abs(rep.mu_hat - rep.mu_closed) / rep.std_err)
            worst_z = max(worst_z, z)
            ok = ok and z < 3.0
        joint = np.max(
            np.abs(chol.mu_hat - eig.mu_hat) / np.hypot(chol.std_err, eig.std_err)
        )
        worst_joint = max(worst_joint, joint)
        ok = ok and joint < 3.0
    assert _line(
        6, ok, f"worst |mu_hat-mu_closed|/SE={worst_z:.2f}, worst cross-method z={worst_joint:.2f} (need <3)"
    )


def test_criterion_07_construction_equivalence():
    rep = verify.check_construction_equivalence(
        ModelParams(2, 2.5, 6.0), 5, 10_000, make_stream(9007), seed=9007
    )
    assert "shared-stream path gap" in rep.details
    ok = rep.passed
    assert _line(7, ok, f"worst gate ratio={rep.statistic:.3f} (pairwise KS + 1e-10 path gap)")


def test_criterion_08_beta_gamma_and_independence():
    bg = verify.check_beta_gamma(2.0, 3.0, (1, 2, 3), 30_000, make_stream(9008), seed=9008)
    lk = verify.check_lukacs(ModelParams(2, 2.0, 3.0), 100_000, make_stream(9018), seed=9018)
    assert "negative control" in lk.details
    ok = bg.passed and lk.passed
    assert _line(
        8,
        ok,
        f"beta-gamma ratio={bg.statistic:.3f}, independence ratio={lk.statistic:.3f} "
        f"(bound 4/sqrt(1e5); control must exceed it)",
    )


def test_criterion_09_grsk_identities():
    rng = np.random.default_rng(9009)
    worst_ratio = 0.0
    worst_product = 0.0
    for _ in range(100):
        initial = walks.GrskState(*rng.uniform(0.5, 2.0, size=3))
        a_incs = rng.uniform(0.5, 2.0, size=50)
        b_incs = rng.uniform(0.5, 2.0, size=50)
        worst_ratio = max(worst_ratio, walks.grsk_my_identity_check(initial, a_incs, b_incs))
        worst_product = max(worst_product, walks.grsk_product_identity_gap(initial, a_incs, b_incs))
    ok = worst_ratio < 1e-9 and worst_product < 1e-12
    assert _line(
        9, ok, f"worst ratio-identity gap={worst_ratio:.2e} (<1e-9), worst product gap={worst_product:.2e} (<1e-12)"
    )


def test_criterion_10_null_calibration():
    # deterministic CI run: fresh substreams per repetition from a pinned base
    # seed; each Monte Carlo check must pass at least 99 of 100 repetitions
    counts = verify.calibration_meta(30, n_reps=100)
    ok = all(c >= 99 for c in counts.values())
    detail = ", ".join(f"{name}={c}/100" for name, c in counts.items())
    assert _line(10, ok, detail)
