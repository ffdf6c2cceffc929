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
from scipy import integrate
from scipy import special as sp
from scipy import stats

from posdefwalks import matcore, special, verify
from posdefwalks.errors import (
    DomainError,
    EmptySample,
    InsufficientBinCount,
    NonFiniteIntegrand,
    NotPositiveDefinite,
)
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

import oracles

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


def test_kolmogorov_is_scipys_bit_for_bit():
    # Both forms of the series and the point where they meet, the flat start
    # below 0.15, the far tail where it underflows, and NaN.
    edges = [0.82, np.nextafter(0.82, 1.0), 0.15, np.nan]
    xs = np.concatenate([np.linspace(0.0, 12.0, 24001), np.geomspace(1e-3, 40.0, 4001), edges])
    got = [verify.kolmogorov(float(x)) for x in xs]
    assert _bits(*got) == _bits(*sp.kolmogorov(xs))


def test_kolmogi_is_scipys_at_the_gate_and_within_two_ulps_elsewhere():
    assert _bits(verify.kolmogi(P_THRESHOLD)) == _bits(sp.kolmogi(P_THRESHOLD))
    ps = np.concatenate([np.geomspace(1e-14, 0.5, 300), np.linspace(0.5, 0.9999, 300)])
    got = np.array([verify.kolmogi(float(p)) for p in ps])
    assert np.all(np.abs(got - sp.kolmogi(ps)) <= 2 * np.spacing(got))
    for p in (0.0, 1.0, math.nan):
        with pytest.raises(DomainError):
            verify.kolmogi(p)


def test_critical_values_solve_for_the_quantile_once_per_level():
    verify.ks_one_sample_critical(100)
    misses = verify.kolmogi.cache_info().misses
    for n in range(1, 300):
        verify.ks_two_sample_critical(n, 2 * n)
        verify.ks_one_sample_critical(n)
    assert verify.kolmogi.cache_info().misses == misses


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
    # grid, the 160 of the 20 panels below and above it and the 400 grid
    # points; a call per node made 3319.
    assert calls == [1, 8, 3192 + 160 + 400]


# The CDF tables ``verify`` builds: the initial law at the registry's and the
# calibration's parameters and at beta < alpha, and the transition law at
# (2, 5) from a range of s0, out to where the law lies far from 1.
VERIFY_TABLES = [("eta", ab) for ab in ((2.0, 5.0), (3.0, 4.0), (0.6, 0.55), (2.5, 6.0), (5.0, 2.0))] + [
    ("qbar", (2.0, 5.0, s0)) for s0 in (0.3, 0.6, 1.05, 2.0, 5.0, 1e-14, 1e-9, 1e4)
]
VERIFY_TABLE_IDS = [f"{k}{a}" for k, a in VERIFY_TABLES]


def _table(kind, args):
    return verify._eta_cdf.__wrapped__(*args) if kind == "eta" else verify._qbar_cdf(*args)


def _law(kind, args):
    """The density against ds/s of a table's law, and the table's window."""
    p = ModelParams(1, *args[:2])
    bundle = special.kernel_densities_d1(p)
    if kind == "eta":
        return bundle.eta_density, special._eta_window(p)
    s0 = args[2]
    phi_s0 = bundle.phi(s0)
    return (lambda s: bundle.qbar_density(s0, s, phi_s=phi_s0)), special._qbar_window(p, s0, phi_s0)


@pytest.mark.parametrize("kind, args", VERIFY_TABLES, ids=VERIFY_TABLE_IDS)
def test_cdf_tables_drop_at_most_the_tail_tolerance_outside_their_window(kind, args):
    # The table reads 0 below its window and 1 above it. The mass it drops
    # there, F(x_lo) and 1 - F(x_hi), is each at most the tolerance, plus
    # 1e-14 for rounding (the tables read up to 3.3e-15 above x_hi). Fixed
    # windows dropped 1 - 5.7e-10 at qbar(2, 5, 1e-14), 1.5e-5 at s0 = 1e-9,
    # 1.25e-6 at s0 = 1e4 and 3.35e-5 at eta(5, 2).
    cdf = _table(kind, args)
    x_lo, x_hi = cdf.grid[[0, -1]]
    assert float(cdf(x_lo)) <= special._TAIL_TOL + 1e-14
    assert 1.0 - float(cdf(x_hi)) <= special._TAIL_TOL + 1e-14


@pytest.mark.parametrize(
    "kind, args, tight",
    [("eta", (2.0, 5.0), True), ("eta", (5.0, 2.0), False), ("qbar", (2.0, 5.0, 1e-9), True)],
)
def test_window_bounds_hold_against_the_mass_outside_by_adaptive_quadrature(kind, args, tight):
    # The law's own mass below x_lo and above x_hi, by adaptive quadrature,
    # is at most the tolerance. Each is an integral against dw/w over w > 0,
    # with x = x_lo / (1 + w) or x = x_hi + w, which has no jump for the
    # quadrature to miss. At beta > alpha the lower bound takes c = alpha, the
    # power of the law's head, and is nearly reached. Measured: below 0.99999962
    # of the tolerance at eta(2, 5) and at qbar from 1e-9, 1.7e-3 of it at
    # eta(5, 2); above 2.24e-15 at eta, 4.9e-70 at qbar.
    density, (x_lo, x_hi) = _law(kind, args)
    below = oracles.mu_integral(lambda w: float(density(x_lo / (1.0 + w))) * w / (1.0 + w), epsabs=1e-24)
    above = oracles.mu_integral(lambda w: float(density(x_hi + w)) * w / (x_hi + w), epsabs=1e-24)
    assert below <= special._TAIL_TOL and above <= special._TAIL_TOL
    assert below >= (0.99 if tight else 0.0) * special._TAIL_TOL


@pytest.mark.parametrize("kind, args", VERIFY_TABLES, ids=VERIFY_TABLE_IDS)
def test_cdf_tables_keep_each_cells_end_slopes_in_the_monotone_box(kind, args, monkeypatch):
    tables = []

    def recorded(x, y, dk):
        tables.append((x, y, dk))
        return hermite(x, y, dk)

    hermite = special._hermite
    monkeypatch.setattr(special, "_hermite", recorded)
    cdf = _table(kind, args)
    ((x, y, dk),) = tables
    cap = 3.0 * (np.diff(y) / np.diff(x))
    # Slopes and secants are nonnegative, so clipping each cell's end slopes
    # at 3m puts both in [0, 3m]: the left ones are the table's c2.
    assert np.all(dk >= 0.0) and np.all(cap >= 0.0)
    assert np.all(cdf._coef[2] >= 0.0) and np.all(cdf._coef[2] <= cap)
    # So every cubic is monotone: 16 probes in each cell read a rising CDF,
    # up to an ulp of rounding where it is near 1 and flat.
    t = x[:-1, None] + np.diff(x)[:, None] * np.linspace(0.0, 1.0, 16)
    assert np.all(np.diff(special._hermite_eval(x, cdf._coef, t.ravel())) >= -np.spacing(1.0))


def test_eta_cdf_between_its_grid_points_against_adaptive_quadrature():
    # Each table's CDF at 31 cell midpoints against scipy's quad of the
    # density in t, split where it bends: eta, and qbar from seven s0. qbar
    # bends near log s0 too, which lies far below the other splits at s0 << 1.
    # At s0 = 1e4 a table up to x = s0 spread its cells over a law that ends
    # near x = 40.
    s0s = (1e-14, 1e-9, 1e-4, 0.3, 1.05, 5.0, 1e4)
    for kind, args in [("eta", (2.0, 5.0))] + [("qbar", (2.0, 5.0, s0)) for s0 in s0s]:
        cdf, density = _table(kind, args), _law(kind, args)[0]
        t_grid = np.log(cdf.grid)
        bends = [-20.0, -10.0, -5.0, -2.0, 0.0, 1.0, 2.0, 3.0]
        if kind == "qbar":
            bends = sorted(bends + [math.log(args[2]) + e for e in (-2.0, 0.0, 2.0)])
        for t in (t_grid[:-1] + 0.5 * np.diff(t_grid))[::13]:
            edges = [-60.0] + [e for e in bends if e < t] + [t]
            want = sum(
                integrate.quad(lambda u: float(density(math.exp(u))), a, b, epsabs=1e-15, limit=200)[0]
                for a, b in zip(edges[:-1], edges[1:])
            )
            assert abs(float(cdf(math.exp(t))) - want) <= 5e-8, (kind, args, t)


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


def test_check_dufresne_near_the_bound_names_the_first_singular_series_sum():
    # beta - alpha = 0.65, just above 1/2: 37 of the 20000 series sums and 44
    # of the inverse-Wishart draws have a determinant that the d = 2 log det
    # (from the Cholesky pivots) finds not positive, 34 and 30 of them exactly
    # so. The series sums are read first, and sum 82 fails first.
    with pytest.raises(NotPositiveDefinite, match=r"^determinant is not positive at batch index 82$"):
        check_dufresne(ModelParams(2, 0.55, 1.2), 20_000, make_stream(7, 1))


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
    # A NaN inside the k push's windows, at 1 < a < 1.1, is named with its t.
    fns = {"bad": lambda r, a: np.where((a > 1.0) & (a < 1.1), np.nan, 1.0)}
    with pytest.raises(NonFiniteIntegrand, match=r"beta=5\.0, k push, outer t in .*t = 0\.0\d"):
        check_intertwining_d1(ModelParams(1, 2.0, 5.0), s_grid=(1.0,), test_fns=fns)
    # A NaN at a < e^-8 lies outside every window of every kept row block (the
    # k push's start near t = -6, the P pushes' a = x_j + r_new exceeds x_j,
    # and rows below t = -7 have zero weight), so it is never evaluated, as in
    # a skipped block, and the identity holds as it does for f = 1.
    fns = {"bad": lambda r, a: np.where(a < math.exp(-8.0), np.nan, 1.0), "const_1": lambda r, a: 1.0}
    rep = check_intertwining_d1(ModelParams(1, 2.0, 5.0), s_grid=(1.0,), test_fns=fns)
    assert rep.passed
    ratios = dict(sub.split(": ", 1) for sub in rep.details.split("; "))
    assert ratios["operator f=bad"] == ratios["eigenfunction f=1"]
    assert ratios["initial measures f=bad"] == ratios["initial measures f=const_1"]


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


@pytest.mark.parametrize("h", [0.0, 1.0, 1.5, -0.1, math.nan])
def test_check_my_markov_refuses_a_bin_width_outside_0_1_before_drawing(h, monkeypatch):
    # h = 1 raised "phi requires s > 0", h = 1.5 a numpy warning and then
    # NonFiniteIntegrand, h <= 0 or NaN InsufficientBinCount, each after the draws.
    def refuse(*args, **kwargs):
        raise AssertionError("drew traces")

    monkeypatch.setattr(verify.walks, "simulate_walks", refuse)
    with pytest.raises(DomainError, match=rf"bin width h in \(0, 1\), got h={h}$"):
        check_my_markov_d1(ModelParams(1, 2.0, 5.0), 30_000, make_stream(708), h=h)


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
    # REDUCED_CONFIG is FULL_CONFIG at calibration sizes: complete entries,
    # which a caller can rebind FULL_CONFIG from, in FULL_CONFIG's key order.
    assert REDUCED_CONFIG == {
        "dufresne_d1": dict(dim=1, alpha=2.0, beta=5.0, n_samples=4_000),
        "dufresne_d2": dict(dim=2, alpha=2.5, beta=6.0, n_samples=3_000),
        "my_markov_d1": dict(dim=1, alpha=2.0, beta=5.0, n_traces=30_000, h=0.05),
        "fixed_point": dict(dims=(1, 2), alpha=2.5, beta=6.0, burn_in=300, n_samples=600),
        "construction_equivalence": dict(dim=2, alpha=2.5, beta=6.0, n=5, n_samples=2_500),
        "lukacs": dict(dim=2, alpha=2.0, beta=3.0, n_samples=20_000),
        "beta_gamma": dict(alpha=2.0, beta=3.0, dims=(1, 2, 3), n_samples=4_000),
    }
    for name, cfg in REDUCED_CONFIG.items():
        assert list(cfg) == list(FULL_CONFIG[name])
        assert {k for k in cfg if cfg[k] != FULL_CONFIG[name][k]} <= {"n_samples", "n_traces", "burn_in"}


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
    "dufresne_d1": "e22cec68fa345740149f805b0760a89796ecfed7e71874123cc2a861c2cad9bc",
    "dufresne_d2": "12232319078dd74241c1db8daced96d2dec4e95107412c39f9eff9dbd78fd4b3",
    "my_markov_d1": "40921fb3d067aa7808cbb046a1f09b020ca49281244697669cb28d86da9da083",
    "fixed_point": "3b9afa018b4716912f5850e2f7f63bca48f6798950a0f3eb63db5285f1f63c8b",
    "construction_equivalence": "7653f6c8cfe7ef18cd990e2c9422a2cdc6f54d20cd86837e3ac88afe8c5cbc14",
    "lukacs": "f87421d4287f094ba4103d539debf51c5954164ffdf0baac5126943829dfd6af",
    "beta_gamma": "6210026d5336e860dc46a5dbac18e77f3700112e47d73dc0a87c2f9691ef1a99",
}


def test_reduced_suite_single_repetition_passes():
    for idx, name in enumerate(REDUCED_CONFIG):
        rep = run_check(name, 11, stream_id=1000 + idx, config=REDUCED_CONFIG)
        assert rep.passed, (name, rep.details)
        assert rep.seed == 11
        digest = hashlib.sha256(rep.to_json().encode()).hexdigest()
        assert digest == REDUCED_REPORT_SHA256[name], (name, rep.to_json())


def test_d1_samples_are_ks_tested_on_trace_alone():
    # At d = 1 logdet and lambda_max are increasing maps of trace, so their
    # KS distances would repeat its own; every check tests trace alone there.
    rng = make_stream(3)
    reports = [
        verify.check_dufresne(ModelParams(1, 2.0, 5.0), 500, rng),
        verify.check_fixed_point(2.5, 6.0, (1,), 20, 200, rng),
        verify.check_construction_equivalence(ModelParams(1, 2.5, 6.0), 2, 500, rng),
        verify.check_beta_gamma(2.0, 3.0, (1,), 500, rng),
    ]
    for rep, n_trace in zip(reports, (2, 3, 6, 2)):
        labels = [sub.partition(":")[0] for sub in rep.details.split("; ")]
        assert sum("trace" in label for label in labels) == n_trace, rep.details
        assert not any("logdet" in label or "lambda_max" in label for label in labels), rep.details


@pytest.mark.parametrize("name", ["fixed_point", "dufresne_d2", "construction_equivalence", "lukacs"])
def test_d2_checks_never_call_lapack_inverse_or_cholesky(name, monkeypatch):
    # At d <= 2 matcore's closed forms do all triangular inversion, Cholesky
    # factoring, symmetric roots, eigenvalues and log determinants: the
    # reduced report keeps its pinned bytes.
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK kernel called at d <= 2")

    for kernel in ("inv", "cholesky", "eigh", "eigvalsh", "slogdet"):
        monkeypatch.setattr(np.linalg, kernel, refuse)
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
    # Wishart and beta II factor and invert: the reduced beta_gamma report
    # (dims 1, 2, 3) keeps its pinned bytes.
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK inverse called at d = 3")

    monkeypatch.setattr(np.linalg, "inv", refuse)
    idx = list(REDUCED_CONFIG).index("beta_gamma")
    rep = run_check("beta_gamma", 11, stream_id=1000 + idx, config=REDUCED_CONFIG)
    assert hashlib.sha256(rep.to_json().encode()).hexdigest() == REDUCED_REPORT_SHA256["beta_gamma"]


@pytest.mark.parametrize(
    "name, factored, lapack, inverted",
    [
        ("fixed_point", 72_960, 0, 0),
        ("lukacs", 40_000, 0, 1),
        ("beta_gamma", 60_000, 20_000, 9),
        ("dufresne_d1", 0, 0, 0),
        ("dufresne_d2", 0, 0, 0),
        ("construction_equivalence", 24_276, 0, 0),
    ],
)
def test_reduced_checks_factor_no_matrix_twice(name, factored, lapack, inverted, monkeypatch):
    # Matrices passed through matcore.cholesky, the d = 3 ones LAPACK
    # factors, and invert calls in one reduced run. fixed_point's push and
    # beta_gamma's combos draw their increments' factors (sample_factor), not
    # Gram matrices to factor again; lukacs inverts and factors X + Y once.
    # The series and the closed Cholesky walk draw their inverse Wishart
    # start as its factor, so dufresne factors nothing. The reduced report
    # keeps its pinned bytes.
    counts = collections.Counter()

    def counted(module, fn, key, per_matrix=True):
        original = getattr(module, fn)

        def wrapper(x, *args, **kwargs):
            counts[key] += int(np.prod(np.shape(x)[:-2])) if per_matrix else 1
            return original(x, *args, **kwargs)

        monkeypatch.setattr(module, fn, wrapper)

    counted(matcore, "cholesky", "factored")
    counted(np.linalg, "cholesky", "lapack")
    counted(matcore, "invert", "inverted", per_matrix=False)
    idx = list(REDUCED_CONFIG).index(name)
    rep = run_check(name, 11, stream_id=1000 + idx, config=REDUCED_CONFIG)
    assert hashlib.sha256(rep.to_json().encode()).hexdigest() == REDUCED_REPORT_SHA256[name]
    assert (counts["factored"], counts["lapack"], counts["inverted"]) == (factored, lapack, inverted)


# The default test functions and each custom set the tests above pass.
_CUSTOM_FNS = (
    {"exp(-r-a)": lambda r, a: np.exp(-r - a), "const_1": lambda r, a: 1.0},
    {"exp(-a)": lambda r, a: np.exp(-a)},
    {"exp(-a)": lambda r, a: np.exp(-a), "const_1": lambda r, a: 1.0},
)


def _intertwining_tables(monkeypatch, p, s_grid, fns, whole_rows=False):
    """The report and, for each push, its row sums and the share of the kept rows' columns evaluated."""
    tables = []
    row_sums = verify._row_sums

    def spy(block, w, t, where, weight):
        cells = []

        def counted(lo, hi):
            cols, vals = block(lo, hi)
            cells.append((hi - lo) * len(range(*cols.indices(len(t)))))
            return cols, vals

        out = row_sums(counted, w, t, where, weight)
        kept = sum(min(8, len(t) - lo) for lo in range(0, len(t), 8) if weight[lo : lo + 8].any())
        tables.append((where.rsplit(", ", 1)[1], out, sum(cells) / (kept * len(t))))
        return out

    with monkeypatch.context() as m:
        m.setattr(verify, "_row_sums", spy)
        if whole_rows:
            m.setattr(verify, "_cols", lambda t, t_lo, t_hi: slice(0, len(t)))
        rep = check_intertwining_d1(p, s_grid=s_grid, test_fns=fns)
    return rep, tables


@pytest.mark.parametrize("a, b", [(2.0, 5.0), (3.0, 4.0), (0.6, 0.55), (2.5, 6.0), (1.0, 1.5)])
def test_row_sums_windows_keep_the_whole_grid_bits(a, b, monkeypatch):
    # Each row block of the P, k and initial pushes sums only its window; every
    # table must have the bits of the sums over whole rows. A function's row
    # sums are summed on their own, so the custom sets are compared with the
    # default set's rows of the same label.
    p, s_grid = ModelParams(1, a, b), (0.1, 0.8, 1.0, 1.25, 10.0)
    rep, windowed = _intertwining_tables(monkeypatch, p, s_grid, None)
    whole_rep, whole = _intertwining_tables(monkeypatch, p, s_grid, None, whole_rows=True)
    assert rep.to_json() == whole_rep.to_json()
    assert [what for what, _, _ in windowed] == [what for what, _, _ in whole] == [
        "k push", *(f"p push from s={s}" for s in s_grid), "initial p push"
    ]
    for (what, got, share), (_, want, whole_share) in zip(windowed, whole):
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64), err_msg=what)
        assert whole_share == 1.0, what
    labels = ["exp(-r-a)", "rational", "exp(-a)", "const_1"]
    for fns in _CUSTOM_FNS:
        rows = [labels.index(label) for label in fns]
        _, custom = _intertwining_tables(monkeypatch, p, s_grid, fns)
        for (what, got, _), (_, want, _) in zip(custom, whole):
            np.testing.assert_array_equal(got.view(np.int64), want[rows].view(np.int64), err_msg=what)


def test_row_sums_windows_evaluate_a_pinned_share_of_the_grid(monkeypatch):
    # The share of each push's kept rows' columns that its windows evaluate,
    # at the suite's parameters, so that the saving cannot quietly go away.
    cfg = FULL_CONFIG["intertwining_d1"]
    p = ModelParams(cfg["dim"], cfg["alpha"], cfg["beta"])
    _, tables = _intertwining_tables(monkeypatch, p, cfg["s_grid"], None)
    shares = {what: share for what, _, share in tables}
    want = {"k push": 0.377, "initial p push": 0.769}
    want.update({f"p push from s={s}": v for s, v in zip(cfg["s_grid"], (0.765, 0.766, 0.766, 0.767, 0.767))})
    assert shares == pytest.approx(want, abs=1e-3)
