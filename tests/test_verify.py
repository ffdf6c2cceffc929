"""The checking harness: KS machinery, functionals, and the named checks."""

import collections
import functools
import hashlib
import json

import numpy as np
import pytest
from scipy import stats

from posdefwalks import special, verify, walks
from posdefwalks.errors import DomainError, EmptySample, InsufficientBinCount, NonFiniteIntegrand
from posdefwalks.matcore import SplitKind
from posdefwalks.matdist import make_stream
from posdefwalks.special import ModelParams
from posdefwalks.verify import (
    CHECK_NAMES,
    FULL_CONFIG,
    LAMBDA_MAX,
    LAMBDA_MIN,
    LOGDET,
    REDUCED_CONFIG,
    TRACE,
    SubTest,
    TestReport,
    check_beta_gamma,
    check_construction_equivalence,
    check_dufresne,
    check_fixed_point,
    check_intertwining_d1,
    check_lukacs,
    check_my_markov_d1,
    ks_one_sample,
    ks_one_sample_critical,
    ks_two_sample,
    ks_two_sample_critical,
    run_check,
)

# ------------------------------------------------------------- functionals


def test_functional_values_on_fixed_matrix():
    x = np.array([[2.0, 1.0], [1.0, 2.0]])  # eigenvalues 3 and 1
    assert TRACE(x) == pytest.approx(4.0, rel=1e-14)
    assert LOGDET(x) == pytest.approx(np.log(3.0), rel=1e-12)
    assert LAMBDA_MAX(x) == pytest.approx(3.0, rel=1e-12)
    assert LAMBDA_MIN(x) == pytest.approx(1.0, rel=1e-12)


def test_functional_batch_shapes():
    xs = np.broadcast_to(np.eye(3), (7, 3, 3))
    assert TRACE(xs).shape == (7,)
    np.testing.assert_allclose(TRACE(xs), 3.0)


# -------------------------------------------------------------- KS helpers


def test_ks_two_sample_identical_is_zero():
    xs = np.arange(1.0, 21.0)
    dist, _ = ks_two_sample(xs, xs.copy())
    assert dist == 0.0


def test_ks_two_sample_disjoint_singletons():
    dist, _ = ks_two_sample([0.0], [1.0])
    assert dist == 1.0


def test_ks_two_sample_empty_rejected():
    with pytest.raises(EmptySample):
        ks_two_sample([], [1.0])
    with pytest.raises(EmptySample):
        ks_one_sample([], lambda t: t)


def test_ks_two_sample_null_calibration():
    # same law, distinct seeds: the p > 1e-3 gate should essentially never fire
    rng = np.random.default_rng(700)
    passes = 0
    for _ in range(30):
        xs = rng.random(100_000)
        ys = rng.random(100_000)
        _, pval = ks_two_sample(xs, ys)
        passes += pval > 1e-3
    assert passes >= 29


def test_ks_one_sample_single_point_at_median():
    dist, _ = ks_one_sample([0.5], lambda t: np.clip(t, 0.0, 1.0))
    assert dist == pytest.approx(0.5, abs=1e-12)


def test_ks_one_sample_inverse_transform_draws():
    rng = np.random.default_rng(701)
    xs = stats.norm.ppf(rng.random(50_000))
    dist, pval = ks_one_sample(xs, stats.norm.cdf)
    assert pval > 1e-3
    assert dist < ks_one_sample_critical(50_000)


def test_ks_critical_values_invert_the_p_value():
    crit = ks_one_sample_critical(10_000, p=1e-3)
    assert stats.kstwobign.sf(crit * np.sqrt(10_000)) == pytest.approx(1e-3, rel=1e-6)
    crit2 = ks_two_sample_critical(10_000, 20_000, p=1e-3)
    en = np.sqrt(10_000 * 20_000 / 30_000)
    assert stats.kstwobign.sf(crit2 * en) == pytest.approx(1e-3, rel=1e-6)


# ------------------------------------------------------------- TestReport


def test_report_passed_follows_statistic():
    good = TestReport("x", 0.5, 1.0, 10, 10, None, 0, "")
    bad = TestReport("x", 1.5, 1.0, 10, 10, None, 0, "")
    assert good.passed is True
    assert bad.passed is False


def test_report_json_round_trip():
    rep = TestReport("demo", 0.25, 1.0, 100, 200, None, 42, "note")
    payload = json.loads(rep.to_json())
    assert payload["name"] == "demo"
    assert payload["statistic"] == 0.25
    assert payload["threshold"] == 1.0
    assert payload["n1"] == 100 and payload["n2"] == 200
    assert payload["passed"] is True
    assert payload["seed"] == 42


def test_report_fails_on_nan_after_a_finite_ratio():
    # max() would skip this NaN because it is not first in the list.
    rep = verify._make_report("x", [SubTest("a", 0.5), SubTest("b", float("nan"))], 0, 0, None)
    assert rep.passed is False
    assert not np.isfinite(rep.statistic)
    assert "non-finite sub-tests: b" in rep.details


def test_report_fails_on_any_non_finite_ratio():
    for bad in (float("inf"), float("-inf"), float("nan")):
        subs = [SubTest("ok", 0.1), SubTest("bad", bad), SubTest("ok2", 0.2)]
        rep = verify._make_report("x", subs, 0, 0, None)
        assert rep.passed is False
        assert "non-finite sub-tests: bad" in rep.details


def test_ks_subtests_fail_the_report_on_non_finite_samples():
    # KS ranks an inf like any large value: three of 4000 gave a passing ratio of 0.47.
    rng = np.random.default_rng(0)
    xs, ys = rng.gamma(2.0, size=4000), rng.gamma(2.0, size=4000)
    xs[:3] = np.inf
    subs = [
        verify._ks2_sub("two-sample", xs, ys),
        verify._ks1_sub("one-sample", xs, lambda x: stats.gamma.cdf(x, 2.0)),
        verify._ks2_sub("clean", ys, rng.gamma(2.0, size=4000)),
    ]
    for sub in subs[:2]:
        assert np.isnan(sub.ratio)
        assert sub.note == "3 non-finite values"
    assert np.isfinite(subs[2].ratio)
    rep = verify._make_report("x", subs, 4000, 4000, None)
    assert rep.passed is False
    assert "non-finite sub-tests: two-sample, one-sample" in rep.details


def test_inv_wishart_cdf_d1_is_the_inverse_gamma_cdf():
    xs = np.array([0.0, 1e-3, 0.05, 0.3, 1.0, 4.0, 250.0])
    for nu in (0.7, 3.0, 8.5):
        np.testing.assert_allclose(
            verify._inv_wishart_cdf_d1(nu)(xs), stats.invgamma(nu).cdf(xs), rtol=1e-12, atol=1e-300
        )


# ------------------------------------------------------------ named checks


def test_check_dufresne_scalar_passes():
    rep = check_dufresne(ModelParams(1, 2.0, 5.0), 20_000, make_stream(702), seed=702)
    assert rep.passed
    assert rep.name == "dufresne_d1"
    assert "mean" in rep.details
    assert "quadrature" in rep.details


def test_check_dufresne_regime_violation():
    with pytest.raises(DomainError):
        check_dufresne(ModelParams(1, 3.0, 3.0), 100, make_stream(703))


def test_check_fixed_point_scalar_mean_subtest():
    rep = check_fixed_point(ModelParams(1, 2.0, 5.0), 300, 1500, make_stream(704), seed=704)
    assert rep.passed
    assert "xi mean" in rep.details
    assert "push" in rep.details


def test_check_fixed_point_matrix_case():
    rep = check_fixed_point(ModelParams(2, 2.5, 6.0), 300, 1000, make_stream(705), seed=705)
    assert rep.passed
    assert "xi_prime" in rep.details


def test_check_intertwining_reduced_grid():
    p = ModelParams(1, 2.0, 5.0)
    fns = {"exp(-r-a)": lambda r, a: np.exp(-r - a), "const_1": lambda r, a: 1.0}
    rep = check_intertwining_d1(p, s_grid=(1.0,), test_fns=fns, seed=706)
    assert rep.passed
    assert rep.statistic < rep.threshold
    assert "eigenfunction" in rep.details
    assert "initial measures" in rep.details


def test_check_intertwining_is_deterministic():
    p = ModelParams(1, 2.0, 5.0)
    fns = {"exp(-a)": lambda r, a: np.exp(-a)}
    rep1 = check_intertwining_d1(p, s_grid=(0.5,), test_fns=fns, seed=1)
    rep2 = check_intertwining_d1(p, s_grid=(0.5,), test_fns=fns, seed=1)
    assert rep1.to_json() == rep2.to_json()


def test_check_intertwining_detects_a_wrong_kernel(monkeypatch):
    # Scaling Q by 1 + 1e-4 breaks every identity that uses it by about 1e-4.
    true_q = special.KernelBundleD1.q_density
    monkeypatch.setattr(
        special.KernelBundleD1, "q_density", lambda self, s, t: 1.0001 * true_q(self, s, t)
    )
    fns = {"exp(-a)": lambda r, a: np.exp(-a), "const_1": lambda r, a: 1.0}
    rep = check_intertwining_d1(ModelParams(1, 2.0, 5.0), s_grid=(1.0,), test_fns=fns)
    assert not rep.passed
    assert 5e-5 < rep.statistic < 2e-4


def test_check_intertwining_names_a_non_finite_node():
    fns = {"bad": lambda r, a: np.where(a > 1e20, np.nan, 1.0)}
    with pytest.raises(NonFiniteIntegrand, match=r"alpha=2\.0, beta=5\.0.*t = "):
        check_intertwining_d1(ModelParams(1, 2.0, 5.0), s_grid=(1.0,), test_fns=fns)


def test_check_intertwining_rejects_matrix_dims():
    with pytest.raises(DomainError):
        check_intertwining_d1(ModelParams(2, 2.0, 5.0))


def test_check_my_markov_passes_at_reduced_size():
    rep = check_my_markov_d1(ModelParams(1, 2.0, 5.0), 30_000, make_stream(707), seed=707)
    assert rep.passed
    assert "S(1)" in rep.details
    assert "halved-h bias check" in rep.details
    assert "E[1/A(1)|bin]" in rep.details


def test_check_my_markov_thin_bin_rejected():
    with pytest.raises(InsufficientBinCount):
        check_my_markov_d1(ModelParams(1, 2.0, 5.0), 2_000, make_stream(708), h=0.01)


def test_check_construction_equivalence_passes():
    rep = check_construction_equivalence(ModelParams(2, 2.5, 6.0), 5, 2_500, make_stream(709), seed=709)
    assert rep.passed
    assert "shared-stream path gap" in rep.details


def test_construction_equivalence_shared_stream_path_builds_no_trace(monkeypatch):
    # The path gap needs only the last recursive state, not running sums or their inverses.
    def no_trace(*args):
        raise AssertionError("shared-stream path built a WalkTrace")

    monkeypatch.setattr(walks, "trace_from_increments", no_trace)
    rep = check_construction_equivalence(ModelParams(2, 2.5, 6.0), 5, 600, make_stream(712), seed=712)
    assert "shared-stream path gap" in rep.details


def test_check_lukacs_matrix_has_negative_control():
    rep = check_lukacs(ModelParams(2, 2.0, 3.0), 20_000, SplitKind.CHOLESKY, make_stream(710), seed=710)
    assert rep.passed
    assert "negative control" in rep.details


def test_check_lukacs_square_root_kind_passes_without_control():
    rep = check_lukacs(ModelParams(2, 2.0, 3.0), 20_000, SplitKind.SQUARE_ROOT, make_stream(711), seed=711)
    assert rep.passed
    assert "commute into the valid form" in rep.details


def test_check_lukacs_scalar_case():
    rep = check_lukacs(ModelParams(1, 2.0, 3.0), 20_000, SplitKind.CHOLESKY, make_stream(712), seed=712)
    assert rep.passed
    assert "skipped at d=1" in rep.details


def test_check_beta_gamma_passes():
    rep = check_beta_gamma(2.0, 3.0, (1, 2), 4_000, make_stream(713), seed=713)
    assert rep.passed
    assert "sum-split" in rep.details and "inverse-split" in rep.details


# ------------------------------------------------------------ suite runner


def test_check_names_cover_the_suite():
    assert CHECK_NAMES == (
        "dufresne_d1",
        "dufresne_d2",
        "intertwining_d1",
        "my_markov_d1",
        "fixed_point",
        "construction_equivalence",
        "lukacs",
    )
    # Key order is the stream id of the CLI and run_all, and the calibration order.
    assert tuple(FULL_CONFIG) == CHECK_NAMES + ("beta_gamma",)
    assert tuple(REDUCED_CONFIG) == (
        "dufresne_d1",
        "dufresne_d2",
        "my_markov_d1",
        "fixed_point",
        "construction_equivalence",
        "lukacs",
        "beta_gamma",
    )


def test_run_check_unknown_name_rejected():
    with pytest.raises(DomainError, match="no_such_check"):
        run_check("no_such_check", 1)


def test_run_check_is_deterministic():
    rep1 = run_check("dufresne_d1", 7, config=REDUCED_CONFIG)
    rep2 = run_check("dufresne_d1", 7, config=REDUCED_CONFIG)
    assert rep1.to_json() == rep2.to_json()


# SHA-256 of each report's JSON at seed 11 on stream 1000 + its place in
# REDUCED_CONFIG: a change to a draw order, a config or a report format moves them.
REDUCED_REPORT_SHA256 = {
    "dufresne_d1": "269ac6b95ce32e4ca18f751b539cc93489db2eb8820ec243858c9a2e63687780",
    "dufresne_d2": "3bb1316d3634615705821efa41adaee5966bb8d1f06e20136f16fb7a89771410",
    "my_markov_d1": "ddb2e2fa8658665dd6e599516906f420fc03898c2361a3382174c5d711f6b35c",
    "fixed_point": "7fd3d62ee4d3aa466301e3806c54aa9040de46af7628056b012fad7ccc134190",
    "construction_equivalence": "b6c3cc45f27090a20eaac9abaa38c11c9446898fd36030b0668b21d75c17175d",
    "lukacs": "c771f4a38fe54603b3761c4c160d7a4ec525d871cf5d967be143dc9dd1a825ff",
    "beta_gamma": "3f6ab474fb077df57100a56e088cebe27ad0dc30f9fcfe7c118de2e506085b58",
}


def test_reduced_suite_single_repetition_passes():
    for idx, name in enumerate(REDUCED_CONFIG):
        rep = run_check(name, 11, stream_id=1000 + idx, config=REDUCED_CONFIG)
        assert rep.passed, (name, rep.details)
        assert rep.seed == 11
        digest = hashlib.sha256(rep.to_json().encode()).hexdigest()
        assert digest == REDUCED_REPORT_SHA256[name], (name, rep.to_json())


@pytest.mark.parametrize("name", ["fixed_point", "dufresne_d2"])
def test_d2_checks_never_call_lapack_inverse_or_cholesky(name, monkeypatch):
    # At d <= 2 matcore's closed forms do all triangular inversion and Cholesky
    # factoring, with LAPACK's bits: the reduced report keeps its pinned bytes.
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK kernel called at d <= 2")

    monkeypatch.setattr(np.linalg, "inv", refuse)
    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    idx = list(REDUCED_CONFIG).index(name)
    rep = run_check(name, 11, stream_id=1000 + idx, config=REDUCED_CONFIG)
    assert hashlib.sha256(rep.to_json().encode()).hexdigest() == REDUCED_REPORT_SHA256[name]


@pytest.mark.parametrize("name, calls", [("lukacs", 3), ("construction_equivalence", 4)])
def test_each_functional_runs_once_per_sample(name, calls, monkeypatch):
    # lukacs evaluates trace and logdet on part, total and control;
    # construction_equivalence each KS functional on its four finals. The
    # reduced report keeps its pinned bytes.
    counts = collections.Counter()

    def counted(f):
        @functools.wraps(f)
        def wrapper(x):
            counts[f.__name__] += 1
            return f(x)

        return wrapper

    monkeypatch.setattr(verify, "TRACE", counted(TRACE))
    monkeypatch.setattr(verify, "LOGDET", counted(LOGDET))
    monkeypatch.setattr(verify, "KS_FUNCTIONALS", tuple(map(counted, verify.KS_FUNCTIONALS)))
    idx = list(REDUCED_CONFIG).index(name)
    rep = run_check(name, 11, stream_id=1000 + idx, config=REDUCED_CONFIG)
    assert hashlib.sha256(rep.to_json().encode()).hexdigest() == REDUCED_REPORT_SHA256[name]
    assert counts and set(counts.values()) == {calls}


def test_d3_beta_gamma_never_calls_lapack_inverse(monkeypatch):
    # At d = 3 matcore's closed-form triangular inverse serves every inverse
    # Wishart and beta II factor and invert, with LAPACK's bits: the reduced
    # beta_gamma report (dims 1, 2, 3) keeps its pinned bytes.
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK inverse called at d = 3")

    monkeypatch.setattr(np.linalg, "inv", refuse)
    idx = list(REDUCED_CONFIG).index("beta_gamma")
    rep = run_check("beta_gamma", 11, stream_id=1000 + idx, config=REDUCED_CONFIG)
    assert hashlib.sha256(rep.to_json().encode()).hexdigest() == REDUCED_REPORT_SHA256["beta_gamma"]
