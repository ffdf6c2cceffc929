"""The checking harness: KS machinery, functionals, and the named checks."""

import collections
import functools
import hashlib
import json
import math
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp
from scipy import stats

from posdefwalks import special, verify
from posdefwalks.errors import DomainError, EmptySample, InsufficientBinCount, NonFiniteIntegrand
from posdefwalks.matdist import make_stream
from posdefwalks.special import ModelParams
from posdefwalks.verify import (
    CHECK_NAMES,
    FULL_CONFIG,
    LAMBDA_MAX,
    LAMBDA_MIN,
    LOGDET,
    P_THRESHOLD,
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


# scipy.stats is the reference: the KS functions must give its numbers, and
# a p-value that says what the gate says. The profile is derandomized with a
# bounded example count, so every run draws the same examples.
KS_PROFILE = settings(derandomize=True, max_examples=100, deadline=None, database=None)
KS_CDFS = {"normal": stats.norm.cdf, "inverse gamma(3)": verify._inv_wishart_cdf_d1(3.0)}


def _bits(*xs):
    return struct.pack(f"<{len(xs)}d", *xs)


@st.composite
def _ks_sample(draw):
    """1 to 3000 values from a drawn seed: normal draws, or integers 0..7
    (heavy ties), moved by a drawn shift, with up to three entries at +-inf."""
    n = draw(st.one_of(st.integers(1, 12), st.integers(1, 3000)))
    ties = draw(st.booleans())
    shift = draw(st.integers(-2, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs = rng.integers(0, 8, n).astype(float) + shift if ties else rng.standard_normal(n) + shift / 4
    n_inf = draw(st.integers(0, min(3, n)))
    xs[rng.choice(n, n_inf, replace=False)] = rng.choice([-np.inf, np.inf], n_inf)
    return xs


@KS_PROFILE
@given(_ks_sample(), _ks_sample())
def test_ks_two_sample_distance_is_scipys_bit_for_bit(xs, ys):
    dist, pval = ks_two_sample(xs, ys)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy's finite-n p-value at n1 = n2 = 1
        ref = stats.ks_2samp(xs, ys, method="asymp")
    assert _bits(dist) == _bits(ref.statistic)
    en = xs.size * ys.size / (xs.size + ys.size)
    assert _bits(pval) == _bits(sp.kolmogorov(math.sqrt(en) * dist))


@KS_PROFILE
@given(_ks_sample(), st.sampled_from(list(KS_CDFS)))
def test_ks_one_sample_is_scipys_asymptotic_test_bit_for_bit(xs, cdf_name):
    cdf = KS_CDFS[cdf_name]
    ref = stats.kstest(xs, cdf, method="asymp")
    assert _bits(*ks_one_sample(xs, cdf)) == _bits(ref.statistic, ref.pvalue)


def test_ks_nan_sample_gives_nan_distance_and_p():
    # The sort puts a NaN last, where it would count as the largest value.
    for xs, ys in (([1.0, np.nan, 3.0], [2.0, 3.0, 4.0]), ([2.0, 3.0], [np.nan, -np.inf])):
        assert np.isnan(ks_two_sample(xs, ys)).all()
        assert np.isnan(ks_two_sample(ys, xs)).all()
        ref = stats.ks_2samp(xs, ys, method="asymp")
        assert np.isnan([ref.statistic, ref.pvalue]).all()
    assert np.isnan(ks_one_sample([0.3, np.nan, -1.0], stats.norm.cdf)).all()
    assert np.isnan(stats.kstest([0.3, np.nan, -1.0], stats.norm.cdf, method="asymp")[:2]).all()


def _agrees_with_the_gate(sub, pval):
    # Ratio and p are rounded separately, so a 1e-12 band at 1 is left out.
    return abs(sub.ratio - 1.0) <= 1e-12 or (sub.ratio <= 1.0) == (pval >= P_THRESHOLD)


@KS_PROFILE
@given(st.integers(1, 3000), st.integers(1, 3000), st.floats(0.0, 2.0), st.integers(0, 2**32 - 1))
def test_two_sample_p_passes_exactly_when_the_ratio_does(n1, n2, c, seed):
    # A location shift of 2.5 critical distances moves D by about one of them.
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal(n1)
    ys = rng.standard_normal(n2) + 2.5 * c * ks_two_sample_critical(n1, n2)
    assert _agrees_with_the_gate(verify._ks2_sub("x", xs, ys), ks_two_sample(xs, ys)[1])


@KS_PROFILE
@given(st.integers(1, 3000), st.floats(0.0, 2.0), st.integers(0, 2**32 - 1))
def test_one_sample_p_passes_exactly_when_the_ratio_does(n, c, seed):
    xs = np.random.default_rng(seed).standard_normal(n) + 2.5 * c * ks_one_sample_critical(n)
    sub = verify._ks1_sub("x", xs, stats.norm.cdf)
    assert _agrees_with_the_gate(sub, ks_one_sample(xs, stats.norm.cdf)[1])


def test_a_two_sample_pass_just_inside_the_gate_prints_p_above_the_threshold():
    # D = 66/575 against its own shift by 66: ratio 0.9983. The finite-n law
    # kstwo(round(en)) gave p = 9.22e-4 here, below the threshold it passes.
    xs = np.arange(575.0)
    sub = verify._ks2_sub("shifted", xs, xs + 66.0)
    assert 0.995 < sub.ratio <= 1.0
    assert float(re.search(r"p=(\S+)", sub.note)[1]) >= P_THRESHOLD


@pytest.mark.parametrize("alpha", [0.6, 1.0, 2.0, 2.5, 3.0, 7.0])
def test_eta_cdf_window_is_the_gamma_quantiles(alpha, monkeypatch):
    monkeypatch.setattr(verify, "QuadratureCdf", lambda density, lo, hi: (lo, hi))
    lo, hi = verify._eta_cdf.__wrapped__(alpha, 5.0)
    assert _bits(lo) == _bits(0.5 * stats.gamma.ppf(1e-12, alpha))
    assert _bits(hi) == _bits(max(45.0, 1.5 * stats.gamma.isf(1e-13, alpha)))


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


def _refuse_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def test_report_json_is_strict_with_a_non_finite_statistic():
    # One draw gives NaN correlations (numpy warns), so the statistic is NaN.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rep = check_lukacs(ModelParams(2, 2.0, 3.0), 1, make_stream(0))
    payload = json.loads(rep.to_json(), parse_constant=_refuse_constant)
    assert payload["statistic"] is None
    assert payload["passed"] is False
    for bad in (math.inf, -math.inf, math.nan):
        rep = TestReport("x", bad, 1.0, 1, 1, False, 0, "")
        assert json.loads(rep.to_json(), parse_constant=_refuse_constant)["statistic"] is None


def test_qbar_cdf_evaluates_phi_on_its_nodes_in_one_call(monkeypatch):
    calls = []
    phi = special.phi_d1

    def counted(p, s):
        calls.append(np.size(s))
        return phi(p, s)

    monkeypatch.setattr(special, "phi_d1", counted)
    verify._qbar_cdf(2.0, 5.0, 1.05)
    # phi(s0), the probe on one panel, and one call on the 3192 nodes of the
    # grid and the 160 of the 20 panels below and above it; a call per node made 3319.
    assert calls == [1, 8, 3192 + 160]


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
    rep = check_fixed_point(2.0, 5.0, (1,), 300, 1500, make_stream(704), seed=704)
    assert rep.passed
    assert "xi mean" in rep.details
    assert "push" in rep.details


def test_check_fixed_point_matrix_case():
    rep = check_fixed_point(2.5, 6.0, (2,), 300, 1000, make_stream(705), seed=705)
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


def test_check_lukacs_matrix_has_negative_control():
    rep = check_lukacs(ModelParams(2, 2.0, 3.0), 20_000, make_stream(710), seed=710)
    assert rep.passed
    assert "negative control" in rep.details


def test_check_lukacs_scalar_case():
    rep = check_lukacs(ModelParams(1, 2.0, 3.0), 20_000, make_stream(712), seed=712)
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
    # Key order is the stream id of the CLI and run_check, and the calibration order.
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
    "dufresne_d1": "0e602c0a4bdb851821de8147b9d470bc1b876fbb94c09813b53949c8e67ebab1",
    "dufresne_d2": "12232319078dd74241c1db8daced96d2dec4e95107412c39f9eff9dbd78fd4b3",
    "my_markov_d1": "ddb2e2fa8658665dd6e599516906f420fc03898c2361a3382174c5d711f6b35c",
    "fixed_point": "989699470748b94b5c5043b840bccd6dd51a5bcab67e4beef8ddaea35d09a322",
    "construction_equivalence": "d527b82752844e9e3314ca9fd56cd5549130e1a144d2b948fd74121ed8a81bcc",
    "lukacs": "c771f4a38fe54603b3761c4c160d7a4ec525d871cf5d967be143dc9dd1a825ff",
    "beta_gamma": "7989b3cd06c11d49adc45ae1b59fa43d74ba3133b1ada5240cb6f80bcbfffbe1",
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
