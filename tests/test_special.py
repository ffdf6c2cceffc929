"""Special functions, densities against the invariant measure, d=1 kernels."""

import math
import re
import struct
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import interpolate
from scipy import special as sps

from posdefwalks import special
from posdefwalks.errors import DomainError, NonFiniteIntegrand
from posdefwalks.special import (
    Law,
    ModelParams,
    QuadratureCdf,
    density_wrt_mu,
    digamma,
    kernel_densities_d1,
    log_multivariate_gamma,
    multivariate_beta,
    multivariate_gamma,
    phi_d1,
)

import oracles

# Frozen MC oracle values (tests/oracles.py route Gamma(a)*E[(G+s)^{-a}],
# G ~ Gamma(a), 2e6 draws, default_rng(777)):
#   alpha=beta=2, s=1   -> 0.19269180841800898, se 1.16e-4
#   alpha=beta=1, s=0.5 -> 0.9229285333645514,  se 3.36e-4
PHI_MC_A2_S1 = 0.19269180841800898
PHI_MC_A1_SHALF = 0.9229285333645514


def test_digamma_frozen_points():
    assert abs(digamma(1.0) - oracles.PSI_1) < 1e-12
    assert abs(digamma(2.0) - oracles.PSI_2) < 1e-12
    assert abs(digamma(0.5) - oracles.PSI_HALF) < 1e-12


def test_digamma_matches_series_oracle():
    for x in (0.3, 1.7, 4.2, 11.0, 250.0):
        assert abs(digamma(x) - oracles.digamma_series(x)) < 1e-12


def test_digamma_domain():
    with pytest.raises(DomainError):
        digamma(0.0)
    with pytest.raises(DomainError):
        digamma(-1.5)
    with pytest.raises(DomainError):
        digamma(float("nan"))
    with pytest.raises(DomainError):
        digamma(np.array([2.0, np.nan]))


def test_digamma_recurrence_grid():
    for x in np.logspace(-3, 3, 60):
        assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) < 1e-12


# The gamma-type functions against mpmath at 40 digits. The profile is
# derandomized with a bounded example count, so every run draws the same
# examples. Each bound is 1.6 to 2.2 times the worst error measured on the
# profile's examples and on wider random draws; scipy.special's errors there
# are named beside it.
GAMMA_PROFILE = settings(derandomize=True, max_examples=150, deadline=None, database=None)
EPS = 2.0**-53


@GAMMA_PROFILE
@given(st.floats(1e-300, 1e4))
def test_lgamma_and_digamma_against_mpmath(x):
    # log Gamma is math.lgamma (log_multivariate_gamma at d = 1). Worst
    # measured: 10 eps max(1, |ref|) for lgamma, near its zeros at 1 and 2,
    # and 4.5 eps for digamma, near its root at 1.46 where the shift to 10
    # cancels; scipy's are 2.3 and 3.2.
    with mpmath.workdps(40):
        lg, psi = float(mpmath.loggamma(x)), float(mpmath.digamma(x))
    assert abs(special.log_multivariate_gamma(1, x) - lg) <= 16 * EPS * max(1.0, abs(lg))
    assert abs(digamma(x) - psi) <= 8 * EPS * max(1.0, abs(psi))


def test_digamma_near_its_root_against_mpmath():
    # The shift to 10 cancels against log y most where psi is small. Worst
    # measured on this grid: 4.0 eps max(1, |ref|); an uncompensated shift
    # reaches 8.5, beyond 6 at 13 of the 401 points.
    xs = np.linspace(0.5, 2.5, 401)
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.digamma(x)) for x in xs])
    assert np.all(np.abs(digamma(xs) - ref) <= 6 * EPS * np.maximum(1.0, np.abs(ref)))


def test_digamma_takes_an_array_elementwise():
    xs = np.array([[1e-300, 0.5, 1.4616321449683622], [9.99, 10.0, 1e4]])
    np.testing.assert_array_equal(digamma(xs), [[digamma(float(x)) for x in row] for row in xs])


@st.composite
def _gamma_args(draw):
    """a in [0.05, 60] and six x in [1e-8, 1e3], both log-uniform, some at a + 1 exactly."""
    a = math.exp(draw(st.floats(math.log(0.05), math.log(60.0))))
    xs = [math.exp(draw(st.floats(math.log(1e-8), math.log(1e3)))) for _ in range(6)]
    if draw(st.booleans()):
        xs[0] = a + 1.0
    return a, np.array(xs)


@GAMMA_PROFILE
@given(_gamma_args())
def test_incomplete_gamma_against_mpmath(args):
    # One call on all six x, so that each x shares the term counts of the
    # slowest point in its part (series or continued fraction). The front
    # x^a e^-x / Gamma(a) carries a relative error of a few eps times the
    # size of its exponent's terms, so the bound scales with them; the
    # complement 1 - P or 1 - Q adds a few eps. Worst measured: 9.3 of this
    # bound for Q and 2.0 for P; scipy's worst absolute error there is
    # 2.9e-15, as is ours.
    a, xs = args
    got_p, got_q = special._gamma_pq(a, xs, upper=False), special.gammaincc(a, xs)
    for x, p, q in zip(xs, got_p, got_q):
        with mpmath.workdps(40):
            ref_p = float(mpmath.gammainc(a, 0, x, regularized=True))
            ref_q = float(mpmath.gammainc(a, x, mpmath.inf, regularized=True))
        scale = 1.0 + abs(a * math.log(x)) + x + abs(math.lgamma(a))
        assert abs(p - ref_p) <= 20 * EPS * (1.0 + scale * ref_p), (a, x)
        assert abs(q - ref_q) <= 20 * EPS * (1.0 + scale * ref_q), (a, x)
        assert special.gammaincc(a, float(x)) == q


def test_incomplete_gamma_edges_and_domain():
    assert special.gammaincc(2.5, 0.0) == 1.0 and special._gamma_pq(2.5, 0.0, upper=False) == 0.0
    assert special.gammaincc(2.5, 1e300) == 0.0 and special._gamma_pq(2.5, 1e300, upper=False) == 1.0
    # At a = 1 the fraction ends at once: Q(1, x) = e^-x.
    assert special.gammaincc(1.0, 30.0) == pytest.approx(math.exp(-30.0), rel=4 * EPS)
    assert special.gammaincc(3.0, np.array([])).shape == (0,)
    bad = ((0.0, 1.0), (-1.0, 1.0), (math.nan, 1.0), (math.inf, 1.0), (2.0, -1.0), (2.0, math.nan), (2.0, math.inf))
    for a, x in bad:
        with pytest.raises(DomainError):
            special.gammaincc(a, x)


def test_incomplete_gamma_term_counts_come_from_their_slowest_point():
    # The series needs more terms as x rises and the fraction fewer; a count
    # taken at the slowest point holds for every other point of its part.
    for a in (0.05, 0.5, 2.5, 10.3, 60.0):
        series = [special._series_terms(a, x) for x in np.linspace(1e-8, a + 1.0, 40, endpoint=False)]
        fraction = [special._fraction_terms(a, x) for x in np.geomspace(a + 1.0, 1e300, 40)]
        assert series == sorted(series) and fraction == sorted(fraction, reverse=True)
    assert special._fraction_terms(3.0, 4.0) == 3  # at an integer a the fraction ends


def test_multivariate_gamma_examples():
    assert abs(multivariate_gamma(1, 2.0) - 1.0) < 1e-14
    # Gamma_2(3) = sqrt(pi)*Gamma(3)*Gamma(5/2) = 3*pi/2
    assert abs(multivariate_gamma(2, 3.0) - 1.5 * math.pi) < 1e-12
    assert abs(multivariate_gamma(1, 0.5) - math.sqrt(math.pi)) < 1e-14


def test_multivariate_gamma_domain():
    with pytest.raises(DomainError):
        multivariate_gamma(3, 0.9)


def test_multivariate_gamma_recursion():
    for d in (2, 3, 4):
        for a in (2.0, 3.5, 7.25):
            lhs = log_multivariate_gamma(d, a)
            rhs = (
                0.5 * (d - 1) * math.log(math.pi)
                + math.lgamma(a)
                + log_multivariate_gamma(d - 1, a - 0.5)
            )
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_multivariate_beta_examples():
    assert abs(multivariate_beta(1, 1.0, 1.0) - 1.0) < 1e-14
    assert abs(multivariate_beta(1, 2.0, 3.0) - 1.0 / 12.0) < 1e-15
    assert abs(multivariate_beta(1, 2.0, 3.0) - oracles.beta_integral(2, 3)) < 1e-12
    # Gamma_2(2)^2/Gamma_2(4) = (pi/2)^2/(11.25*pi) = pi/45
    assert abs(multivariate_beta(2, 2.0, 2.0) - math.pi / 45.0) < 1e-14


def test_density_examples():
    one = np.array([[1.0]])
    w = density_wrt_mu(Law.WISHART, ModelParams(1, 1.0, 1.0), one)
    assert abs(w - math.exp(-1.0)) < 1e-14
    iw = density_wrt_mu(Law.INV_WISHART, ModelParams(1, 2.0, 2.0), one)
    assert abs(iw - math.exp(-1.0) / math.gamma(2.0)) < 1e-14
    b1 = density_wrt_mu(Law.BETA1, ModelParams(1, 1.0, 1.0), np.array([[2.0]]))
    assert b1 == 0.0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_beta1_density_is_zero_per_matrix_off_its_support(d):
    # One matrix off the support, where I - x is not positive definite, reads
    # 0 and leaves its neighbours' values, bit for bit, as a stack of the
    # in-support matrices alone gives them.
    p = ModelParams(d, 2.5, 3.0)
    eye = np.eye(d)
    inside = np.array([0.3 * eye, 0.5 * eye + 0.1 * np.diag(np.arange(d))])
    want = density_wrt_mu(Law.BETA1, p, inside)
    assert np.all(want > 0)
    got = density_wrt_mu(Law.BETA1, p, np.array([inside[0], 1.5 * eye, inside[1]]))
    np.testing.assert_array_equal(got, [want[0], 0.0, want[1]])
    grid = density_wrt_mu(Law.BETA1, p, np.array([[inside[1], 2.0 * eye], [1.5 * eye, inside[0]]]))
    np.testing.assert_array_equal(grid, [[want[1], 0.0], [0.0, want[0]]])
    assert density_wrt_mu(Law.BETA1, p, 1.5 * eye) == 0.0


@pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 7.0])
def test_mu_integral_oracle_gives_gamma(a):
    # Gamma(a) = int x^a e^-x dx/x checks the oracle the normalisation tests use.
    got = oracles.mu_integral(lambda x: x**a * math.exp(-x), epsabs=1e-12, epsrel=1e-10)
    assert abs(got - math.gamma(a)) < 1e-10 * math.gamma(a)


def test_density_normalization_d1():
    # integral of each density against mu(dx) = dx/x must be 1.
    p = ModelParams(1, 2.0, 3.0)
    for law in (Law.WISHART, Law.INV_WISHART, Law.BETA1, Law.BETA2):
        total = oracles.mu_integral(
            lambda x: density_wrt_mu(law, p, np.array([[x]])), epsabs=1e-12, epsrel=1e-10
        )
        assert abs(total - 1.0) < 1e-8, law


def test_phi_against_mc_oracle():
    got = phi_d1(ModelParams(1, 2.0, 2.0), 1.0)
    assert abs(got - PHI_MC_A2_S1) < 4 * 1.16e-4
    got = phi_d1(ModelParams(1, 1.0, 1.0), 0.5)
    assert abs(got - PHI_MC_A1_SHALF) < 4 * 3.36e-4


def test_phi_small_s_limit():
    # phi(0+) = Gamma(beta - alpha); first correction is O(s).
    got = phi_d1(ModelParams(1, 2.0, 5.0), 1e-8)
    assert abs(got - 2.0) / 2.0 < 1e-6


def test_phi_large_s_decay():
    p = ModelParams(1, 2.0, 5.0)
    s = 1e6
    ratio = phi_d1(p, s) * s**p.alpha / math.gamma(p.beta)
    assert abs(ratio - 1.0) < 0.01


def test_phi_matches_frozen_mpmath_values():
    for (a, b), expected in oracles.PHI_MP.items():
        got = phi_d1(ModelParams(1, a, b), np.array(oracles.PHI_S))
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)


def test_phi_below_the_grid_where_beta_le_alpha():
    # The closed form under t = -60 took (y+s)^(-alpha) = s^(-alpha) where
    # y >> s, and read 8.8e33 for phi = 1e30 at (2, 1, 1e-30); the rule now
    # extends below -60 far enough to cover y = s.
    for (a, b, s), expect in oracles.PHI_TINY_S.items():
        p = ModelParams(1, a, b)
        assert special._phi_head_edge(a, b, s) < special._LOG_LO
        np.testing.assert_allclose(phi_d1(p, s), expect, rtol=1e-12)
        np.testing.assert_allclose(phi_d1(p, np.array([s, 1.0]))[0], expect, rtol=1e-12)


def test_phi_scalar_and_array_calls_agree():
    p = ModelParams(1, 1.3, 1.1)
    ss = np.geomspace(1e-9, 1e5, 23)
    many = phi_d1(p, ss.reshape(23, 1))
    assert many.shape == (23, 1)
    singles = [phi_d1(p, float(s)) for s in ss]
    assert all(isinstance(v, float) for v in singles)
    np.testing.assert_allclose(many[:, 0], singles, rtol=1e-15)


def test_phi_against_plain_quadrature_oracle():
    for a, b in ((2.0, 5.0), (0.6, 0.55), (2.5, 6.0)):
        for s in (1e-6, 0.3, 1.0, 40.0):
            expect = oracles.phi_quad(a, b, s)
            assert abs(phi_d1(ModelParams(1, a, b), s) - expect) < 1e-9 * expect


def test_eigenfunction_lhs_against_nested_quadrature_oracle():
    # int Q(1; t) phi(t) dt/t on the engine's grid vs nested adaptive quad.
    p = ModelParams(1, 2.0, 5.0)
    t, w, x = special._log_grid()
    engine = (kernel_densities_d1(p).q_density(1.0, x) * phi_d1(p, x)) @ w
    nested = oracles.eigen_lhs_nested(2.0, 5.0, 1.0)
    assert abs(engine - nested) < 1e-9 * nested
    assert abs(engine - oracles.PHI_MP[(2.0, 5.0)][3]) < 1e-9 * nested


def test_phi_rejects_bad_arguments():
    p = ModelParams(1, 2.0, 5.0)
    for s in (0.0, -1.0, math.nan, np.float64(0.0), np.array(math.nan), np.array([1.0, 0.0])):
        with pytest.raises(DomainError, match=r"^phi requires s > 0$"):
            phi_d1(p, s)


def test_phi_overflow_is_a_typed_error():
    # phi(s) grows like s^(beta - alpha) as s -> 0 and leaves double range here.
    with pytest.raises(NonFiniteIntegrand, match=r"alpha=20\.0, beta=1\.0.*t = "):
        phi_d1(ModelParams(1, 20.0, 1.0), 1e-300)
    # At (2, 1) phi is about 1/s: finite at s = 1e-300 (see oracles.PHI_TINY_S),
    # past double range at 1e-309. A scalar s takes the same checks as an array.
    for s in (1e-309, np.array([1e-309, 1.0])):
        with pytest.raises(NonFiniteIntegrand, match=r"alpha=2\.0, beta=1\.0: non-finite integrand"):
            phi_d1(ModelParams(1, 2.0, 1.0), s)


def _phi_whole_grid(a, b, s):
    # phi's rule over every node of [-60, 7] plus the closed form below t = -60.
    t, w, y = special._log_grid(special._LOG_LO, special._PHI_T_HI)
    s = np.asarray(s, dtype=float)
    out = np.exp(b * t - a * np.log(y + s[..., None]) - y) @ w
    return out + np.exp(b * special._LOG_LO - a * np.log(s)) / b


def _phi_whole_grid_in_blocks(a, b, s):
    # BLAS's matrix-vector product adds a row's terms in an order that depends
    # on the product's row count, so an array larger than one block is summed
    # in products of special._PHI_BLOCK rows, as phi_d1 sums it.
    flat = np.asarray(s, dtype=float).ravel()
    n_rows = -(-flat.size // special._PHI_BLOCK) * special._PHI_BLOCK
    rows = np.resize(flat, n_rows).reshape(-1, special._PHI_BLOCK)
    return _phi_whole_grid(a, b, rows).ravel()[: flat.size].reshape(np.shape(s))


@pytest.mark.parametrize("a, b", [(2.0, 5.0), (3.0, 4.0), (0.6, 0.55), (0.1, 3.0), (8.0, 9.0)])
def test_phi_window_keeps_the_whole_grid_bits(a, b):
    # The window drops mass below 2^-100 of phi and adds the rest in the
    # lanes the whole grid does, so scalar and array calls keep its bits.
    ss = np.geomspace(1e-12, 1e8, 81)
    p = ModelParams(1, a, b)
    want = np.array([_phi_whole_grid(a, b, s) for s in ss])
    got = np.array([phi_d1(p, float(s)) for s in ss])
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    for lo in range(0, 81, 9):
        near = ss[lo] * np.array([1.0, 1.05, 0.95])
        np.testing.assert_array_equal(
            phi_d1(p, near).view(np.int64), _phi_whole_grid(a, b, near).view(np.int64)
        )
    # Larger arrays are sorted and summed a block at a time, each block on
    # its own window: unsorted, 2-D, and 65 to 5000 values over many blocks.
    rng = np.random.default_rng(18)
    cases = [np.exp(rng.uniform(-28.0, 18.0, n)) for n in (65, 66, 67, 200, 1000)]
    cases += [np.exp(rng.uniform(-28.0, 18.0, shape)) for shape in ((50, 8), (9, 13))]
    cases += [np.geomspace(1e-12, 1e8, 5000)]
    for s in cases:
        np.testing.assert_array_equal(
            phi_d1(p, s).view(np.int64), _phi_whole_grid_in_blocks(a, b, s).view(np.int64)
        )
    # A QuadratureCdf's (cells, 8) node array, which the whole grid sums in
    # 8-row products, keeps the bits of that sum too.
    nodes = np.exp(special._gauss_legendre(np.linspace(-25.0, 4.0, 400))[0])
    np.testing.assert_array_equal(
        phi_d1(p, nodes).view(np.int64), _phi_whole_grid(a, b, nodes).view(np.int64)
    )


def test_phi_window_skips_the_closed_form_where_it_is_inaccurate():
    # Below s = e^-60 the closed form under t = -60 overstates the mass there
    # (here by e^621); the window ends above t = -60 and phi reads Gamma(3).
    p = ModelParams(1, 2.0, 5.0)
    assert special._phi_lo(2.0, 5.0, 1e-200, 1e-200) > 0
    assert phi_d1(p, 1e-200) == pytest.approx(2.0, rel=1e-14)
    # Down to the least subnormal s, where 1/s overflows, alone or in an array.
    np.testing.assert_allclose(phi_d1(p, np.array([5e-324, 1.0]))[0], 2.0, rtol=1e-15)
    # Where beta < alpha no edge above t = -60 exists; there phi ~ 1/s
    # leaves double range and the typed error stays.
    for s in (5e-324, np.array([5e-324, 1.0])):
        with pytest.raises(NonFiniteIntegrand, match=r"beta=1\.0: non-finite integrand at t = -7"):
            phi_d1(ModelParams(1, 2.0, 1.0), s)


def test_row_sums_skips_blocks_whose_weights_are_zero():
    t, w, x = special._log_grid()
    weight = np.where(np.abs(t) < 3.0, np.exp(-x), 0.0)
    calls = []

    def block(lo, hi):
        calls.append((lo, hi))
        return slice(None), [np.exp(-np.abs(t[lo:hi, None] - t)), np.ones((hi - lo, len(t)))]

    got = special._row_sums(block, w, t, "test", weight)
    # One call per 8-row block with a nonzero weight, and no other.
    starts = range(0, len(t), special._ROW_BLOCK)
    assert calls == [(lo, lo + 8) for lo in starts if weight[lo : lo + 8].any()]
    rows = np.zeros(len(t), dtype=bool)
    for lo, hi in calls:
        rows[lo:hi] = True
    full = special._row_sums(block, w, t, "test", np.ones(len(t)))
    # Kept rows carry the whole table's bits; skipped rows read exactly 0.
    np.testing.assert_array_equal(got[:, rows].view(np.int64), full[:, rows].view(np.int64))
    assert not got[:, ~rows].any()
    np.testing.assert_array_equal(weight * got, weight * full)


def test_row_sums_names_a_non_finite_value_in_a_kept_block():
    t, w, x = special._log_grid()
    weight = np.where(t > 0.0, 1.0, 0.0)

    def block(lo, hi):
        # NaN in the rows with t < -10 (skipped) and at t > 5 (kept).
        bad = (t[lo:hi, None] < -10.0) | ((t[lo:hi, None] > 5.0) & (t > 5.0))
        return slice(None), [np.where(bad, np.nan, 1.0) * w]

    with pytest.raises(NonFiniteIntegrand, match=r"^test, outer t in \[5\.\d+, .*t = 5\."):
        special._row_sums(block, w, t, "test", weight)
    # The same NaN only in skipped rows is never evaluated.
    out = special._row_sums(block, w, t, "test", np.where((t > 0.0) & (t < 5.0), 1.0, 0.0))
    assert np.isfinite(out).all()


def test_row_sums_sums_a_window_against_its_weights():
    t, w, x = special._log_grid()
    calls = []

    def block(lo, hi):
        # A window of the nodes within 5 of the rows' t, with a NaN past it.
        cols = special._cols(t, t[lo] - 5.0, t[hi - 1] + 5.0)
        calls.append(cols)
        vals = np.where(np.abs(t[lo:hi, None] - t) < 8.0, np.exp(-np.abs(t[lo:hi, None] - t)), np.nan)
        return cols, [vals[:, cols], np.ones((hi - lo, cols.stop - cols.start))]

    got = special._row_sums(block, w, t, "test", np.ones(len(t)))
    for cols in calls:
        assert cols.start % special._PHI_ALIGN == 0 and cols.stop % special._PHI_ALIGN == 0
    lo = 8 * 100
    cols = calls[100]
    assert t[cols.start] <= t[lo] - 5.0 < t[lo] + 5.0 <= t[cols.stop - 1]
    assert cols.stop - cols.start < 200
    want = np.exp(-np.abs(t[lo:lo + 8, None] - t[cols])) @ w[cols]
    np.testing.assert_array_equal(got[0, lo:lo + 8], want)
    np.testing.assert_array_equal(got[1, lo:lo + 8], np.ones((8, cols.stop - cols.start)) @ w[cols])
    # The edges clip to the grid.
    assert special._cols(t, -np.inf, np.inf) == slice(0, len(t))
    assert special._cols(t, t[40], t[40]) == slice(32, 64)


def test_gauss_legendre_nodes_and_weights_are_scipys_bit_for_bit():
    # The engine writes the 8-point rule out as literals, so that no call of
    # roots_legendre imports scipy.linalg; every sum in the engine rests on their bits.
    x, w = sps.roots_legendre(8)
    weights = special._gauss_legendre(np.array([-1.0, 1.0]))[2]
    for got, want in ((special._GL_NODES, x), (special._GL_WEIGHTS, w), (weights, w)):
        assert got.shape == (8,)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_quadrature_cdf_of_gamma_law():
    # x^2 e^-x against dx/x is the Gamma(2) density x e^-x dx.
    seen = []

    def dens(x):
        seen.append(type(x))
        return x * x * math.exp(-x)

    cdf = QuadratureCdf(dens, 1e-4, 60.0, n_grid=120)
    # math.exp refuses the one probe on an array of nodes; every later call takes a float.
    probe = seen.index(np.ndarray)
    assert set(seen[:probe] + seen[probe + 1 :]) == {float}
    assert abs(cdf.total_mass - 1.0) < 1e-12
    # Exact at the grid points, x_lo included (the mass below it is in the
    # table); the cubic with the density's slopes fills in between.
    xs = cdf.grid[::7]
    assert xs[0] == 1e-4
    np.testing.assert_allclose(cdf(xs), sps.gammainc(2.0, xs), rtol=1e-10, atol=1e-13)
    mid = np.sqrt(cdf.grid[1:] * cdf.grid[:-1])
    np.testing.assert_allclose(cdf(mid), sps.gammainc(2.0, mid), atol=2e-6)
    # At 400 points the error falls with the fourth power of the cell width,
    # at the midpoints and off them.
    fine = QuadratureCdf(dens, 1e-4, 60.0, n_grid=400)
    t = np.log(fine.grid)
    for frac in (0.5, 0.3):
        x = np.exp(t[:-1] + frac * np.diff(t))
        np.testing.assert_allclose(fine(x), sps.gammainc(2.0, x), rtol=0, atol=2e-8)
    # x_hi reads the table too: the tail mass above it is in the total.
    short = QuadratureCdf(dens, 1e-4, 8.0, n_grid=120)
    assert short(8.0) == pytest.approx(sps.gammainc(2.0, 8.0), rel=1e-10)
    # 0.3% of the mass lies above 8, in the tail panels.
    assert abs(short.total_mass * (1.0 - short(8.0)) - sps.gammaincc(2.0, 8.0)) <= 1e-13


def test_quadrature_cdf_gives_the_same_table_from_an_array_or_a_float_density():
    bundle = kernel_densities_d1(ModelParams(1, 2.0, 5.0))
    shapes = {"array": [], "float": []}

    def array_density(x):
        shapes["array"].append(np.shape(x))
        return bundle.eta_density(x)

    def float_density(x):
        shapes["float"].append(np.shape(x))
        return float(bundle.eta_density(x))

    by_array = QuadratureCdf(array_density, 1e-6, 45.0)
    by_float = QuadratureCdf(float_density, 1e-6, 45.0)
    # 399 cells, and 10 panels each from log(1e-6) down to -60 and from log(45) up to 60.
    nodes = (10 + 399 + 10, 8)
    # The probe on the first panel, then one call on every node and the 400
    # grid points; the float density refuses the probe and takes a float per point.
    points = math.prod(nodes) + 400
    assert [sh for sh in shapes["array"] if sh] == [(8,), (points,)]
    assert [sh for sh in shapes["float"] if sh] == [(8,)]
    assert len(shapes["float"]) - len(shapes["array"]) == points - 1
    np.testing.assert_array_equal(by_array.grid, by_float.grid)
    assert abs(by_array.total_mass - by_float.total_mass) <= 1e-15
    np.testing.assert_allclose(by_array(by_array.grid), by_float(by_float.grid), rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "density",
    [
        lambda x: 1.0,
        lambda x: [v * math.exp(-v) for v in x],
        lambda x: (x * np.exp(-x))[:4],
        lambda x: (x > 1.0).astype(int),
    ],
    ids=["float", "list", "short", "int"],
)
def test_quadrature_cdf_takes_only_a_float_array_of_the_node_shape(density):
    # Anything else sends the table to one call per node, whatever it does with floats.
    calls = []

    def wrapped(x):
        calls.append(np.ndim(x))
        return density(x) if np.ndim(x) else x * math.exp(-x)

    cdf = QuadratureCdf(wrapped, 1e-3, 10.0, n_grid=20)
    assert calls.count(1) == 1
    assert cdf.total_mass == pytest.approx(1.0, abs=1e-9)


def test_head_and_tail_panels_widen_out_to_the_window_ends():
    below = special._out_edges(-6.5, -60.0)
    widths = -np.diff(below)
    assert below[0] == -6.5 and below[-1] == -60.0
    np.testing.assert_allclose(widths[:-1], 0.5 * 1.5 ** np.arange(len(widths) - 1), rtol=1e-14)
    assert 0.0 < widths[-1] <= 0.5 * 1.5 ** (len(widths) - 1)
    above = special._out_edges(3.0, 60.0)
    assert above[0] == 3.0 and above[-1] == 60.0 and np.all(np.diff(above) > 0)
    # No room left: no panel.
    np.testing.assert_array_equal(special._out_edges(-61.0, -60.0), [-61.0])
    np.testing.assert_array_equal(special._out_edges(60.0, 60.0), [60.0])


def _law_cdf(law, p, x):
    if law == "wishart":
        return sps.gammainc(p.alpha, x)
    if law == "invwishart":
        return sps.gammaincc(p.beta, 1.0 / x)
    return sps.betainc(p.alpha, p.beta, x / (1.0 + x))


_TAIL_SHAPES = (0.55, 0.6, 2.5, 3.0, 4.0)


@pytest.mark.parametrize("window", [(1e-2, 1e2), (1e-3, 1e3)], ids=["1e-2..1e2", "1e-3..1e3"])
@pytest.mark.parametrize(
    "law, alpha, beta",
    [("wishart", a, 1.0) for a in _TAIL_SHAPES]
    + [("invwishart", 1.0, b) for b in _TAIL_SHAPES]
    + [("beta2", a, b) for a in _TAIL_SHAPES for b in _TAIL_SHAPES],
)
def test_quadrature_cdf_head_and_tail_masses_match_closed_forms(law, alpha, beta, window):
    # Heavy heads and tails: at alpha or beta = 0.55, up to 8% of the mass lies outside the grid.
    p = ModelParams(1, alpha, beta)
    x_lo, x_hi = window
    cdf = QuadratureCdf(lambda x: density_wrt_mu(law, p, x[..., None, None]), x_lo, x_hi, n_grid=200)
    assert abs(cdf.total_mass - 1.0) <= 1e-13
    head, tail = cdf.total_mass * cdf(x_lo), cdf.total_mass * (1.0 - cdf(x_hi))
    assert abs(head - _law_cdf(law, p, x_lo)) <= 1e-13
    assert abs(tail - (1.0 - _law_cdf(law, p, x_hi))) <= 1e-13


def test_quadrature_cdf_without_room_below_or_above_has_no_head_or_tail():
    seen = []

    def dens(x):
        seen.append(x)
        return x * np.exp(-x)

    x_lo, x_hi = math.exp(-61.0), math.exp(61.0)
    cdf = QuadratureCdf(dens, x_lo, x_hi, n_grid=400)
    # Every node lies in the grid's own cells.
    assert x_lo <= min(v.min() for v in seen) and max(v.max() for v in seen) <= x_hi
    assert cdf(x_lo) == 0.0 and cdf(x_hi) == 1.0
    assert cdf.total_mass == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "args, match",
    [
        ((0.0, 10.0, 50), "x_lo=0.0"),
        ((-1.0, 10.0, 50), "x_lo=-1.0"),
        ((math.nan, 10.0, 50), "x_lo=nan"),
        ((math.inf, 10.0, 50), "x_lo=inf"),
        ((2.0, 1.0, 50), "x_hi=1.0"),
        ((2.0, 2.0, 50), "x_hi=2.0"),
        ((2.0, math.inf, 50), "x_hi=inf"),
        ((2.0, math.nan, 50), "x_hi=nan"),
        ((1e10, math.nextafter(1e10, math.inf), 400), "coincide in log x"),
        ((1e-3, 10.0, 1), "n_grid=1"),
        ((1e-3, 10.0, 0), "n_grid=0"),
    ],
)
def test_quadrature_cdf_rejects_a_bad_window(args, match):
    with pytest.raises(DomainError, match=re.escape(match)):
        QuadratureCdf(lambda x: np.exp(-x), *args)


def test_quadrature_cdf_non_finite_density_below_the_grid_is_named():
    def dens(x):
        return math.nan if 1e-6 < x < 1e-5 else math.exp(-x)

    with pytest.raises(NonFiniteIntegrand, match=r"QuadratureCdf mass below the grid.*t = -1[1-3]\."):
        QuadratureCdf(dens, 1e-3, 10.0, n_grid=50)
    with pytest.raises(NonFiniteIntegrand, match=r"QuadratureCdf mass above the grid.*t = "):
        QuadratureCdf(lambda x: np.where(x > 20.0, np.inf, np.exp(-x)), 1e-3, 10.0, n_grid=50)
    # x_lo = 1e-3 is a grid point and no node, so only its slope is NaN.
    with pytest.raises(NonFiniteIntegrand, match=r"QuadratureCdf density.*t = -6\.90776"):
        QuadratureCdf(
            lambda x: math.nan if abs(x / 1e-3 - 1.0) < 1e-12 else math.exp(-x), 1e-3, 10.0, n_grid=50
        )


HERMITE_PROFILE = settings(derandomize=True, max_examples=300, deadline=None, database=None)


@st.composite
def _hermite_data(draw):
    """Breakpoints, values, slopes and probes for the monotone cubic.

    2 to 40 breakpoints, evenly or unevenly spaced. The values rise (with flat
    runs and subnormal steps, as a CDF table over underflowed cells) or stay
    flat. Each slope lies in [0, 3m] for the secant m of both cells it ends,
    so no slope is clipped. The probes are the breakpoints, points between
    them, points outside, NaN and +-inf.
    """
    n = draw(st.one_of(st.integers(2, 3), st.integers(2, 40)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        x = np.linspace(math.log(1e-6), math.log(45.0), n)
    else:
        x = np.cumsum(rng.uniform(1e-3, 2.0, n)) - 1.0
    if draw(st.booleans()):
        steps = rng.exponential(1.0, n - 1) * rng.choice([0.0, 1e-320, 1e-300, 1e-3, 1.0], n - 1)
        y = np.concatenate([[0.0], np.cumsum(steps)])
        y = y / y[-1] if y[-1] > 0 else y
    else:
        y = np.full(n, draw(st.sampled_from([0.0, 1.0, -2.5])))
    cap = 3.0 * (np.diff(y) / np.diff(x))
    # Some slopes at exactly 0 or the bound.
    u = np.where(rng.random(n) < 0.3, rng.integers(0, 2, n), rng.uniform(size=n))
    dk = u * np.minimum(np.r_[np.inf, cap], np.r_[cap, np.inf])
    mids = 0.5 * (x[1:] + x[:-1])
    outside = [x[0] - 1.0, x[-1] + 1.0, x[0] - 1e3, x[-1] + 1e200]
    xi = np.concatenate([x, mids, rng.uniform(x[0], x[-1], 20), outside, [np.nan, np.inf, -np.inf]])
    return x, y.astype(float), dk, rng.permutation(xi)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and all(
        (math.isnan(u) and math.isnan(v)) or struct.pack("<d", u) == struct.pack("<d", v)
        for u, v in zip(a.ravel().tolist(), b.ravel().tolist())
    )


@HERMITE_PROFILE
@given(_hermite_data())
def test_hermite_is_scipys_cubic_hermite_spline_bit_for_bit(data):
    x, y, dk, xi = data
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ref = interpolate.CubicHermiteSpline(x, y, dk)
        ref_vals = ref(xi)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coef = special._hermite(x, y, dk)
        vals = special._hermite_eval(x, coef, xi)
    assert _same_bits(coef, ref.c)
    assert _same_bits(vals, ref_vals)


def test_hermite_clips_a_slope_above_three_secants():
    # The secant is 1 on [0, 1]: a right slope of 10 becomes 3, where scipy's
    # cubic with slope 10 overshoots 1 and falls back.
    x, y, probes = np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.linspace(0.0, 1.0, 10**4)
    coef = special._hermite(x, y, np.array([0.5, 10.0]))
    assert _same_bits(coef, interpolate.CubicHermiteSpline(x, y, [0.5, 3.0]).c)
    assert np.all(np.diff(special._hermite_eval(x, coef, probes)) >= 0.0)
    assert np.any(np.diff(interpolate.CubicHermiteSpline(x, y, [0.5, 10.0])(probes)) < 0.0)


def test_quadrature_cdf_over_underflowed_cells_builds_without_a_warning():
    # The inverse Wishart density underflows over whole cells near 1e-3, where
    # the secants are 0 and the slopes are clipped to 0.
    p = ModelParams(1, 2.5, 4.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cdf = QuadratureCdf(lambda x: float(density_wrt_mu("invwishart", p, np.array([[x]]))), 1e-3, 1e3)
        vals = cdf(np.geomspace(1e-4, 1e4, 801))
    assert np.isfinite(vals).all()
    assert np.all(np.diff(vals) >= 0.0)
    assert vals[0] == 0.0 and vals[-1] == 1.0
    assert cdf.total_mass == pytest.approx(1.0, abs=1e-9)


def test_quadrature_cdf_non_finite_density_is_named():
    def dens(x):
        return math.nan if 1.0 < x < 2.0 else math.exp(-x)

    with pytest.raises(NonFiniteIntegrand, match="QuadratureCdf density.*t = 0\\."):
        QuadratureCdf(dens, 1e-3, 10.0, n_grid=50)


def test_kernel_p_density_point():
    bundle = kernel_densities_d1(ModelParams(1, 1.0, 1.0))
    assert abs(bundle.p_density(1.0, 1.0) - 0.25) < 1e-14


def test_kernel_q_is_killed_p():
    bundle = kernel_densities_d1(ModelParams(1, 2.0, 5.0))
    for r, rn in ((1.0, 0.7), (2.0, 3.0), (0.5, 0.25)):
        expect = bundle.p_density(r, rn) * math.exp(-rn)
        assert abs(bundle.q_density(r, rn) - expect) < 1e-14 * max(1.0, expect)


def test_p_density_normalised():
    bundle = kernel_densities_d1(ModelParams(1, 2.0, 5.0))
    for r in (0.5, 1.0, 2.0):
        mass = oracles.mu_integral(lambda rn: bundle.p_density(r, rn))
        assert abs(mass - 1.0) < 1e-8


def test_qbar_normalised():
    bundle = kernel_densities_d1(ModelParams(1, 2.0, 5.0))
    for s in (0.5, 1.0, 2.0):
        mass = oracles.mu_integral(lambda sn: bundle.qbar_density(s, sn))
        assert abs(mass - 1.0) < 1e-6


def test_k_point_mass_location():
    bundle = kernel_densities_d1(ModelParams(1, 2.0, 5.0))
    # r = a^2 s/(1+as): the deterministic location K(s, a; dr).
    assert abs(bundle.k_point_mass_r(2.0, 3.0) - 9.0 * 2.0 / 7.0) < 1e-14


def test_phi_eigenfunction_identity():
    # integral of Q(s; dt) phi(t) against mu must reproduce phi(s).
    p = ModelParams(1, 2.0, 5.0)
    bundle = kernel_densities_d1(p)
    for s in (0.25, 0.5, 1.0, 2.0, 4.0):
        lhs = oracles.mu_integral(
            lambda t: bundle.q_density(s, t) * bundle.phi(t), epsabs=1e-12, epsrel=1e-10
        )
        rhs = bundle.phi(s)
        assert abs(lhs - rhs) / rhs < 1e-6


def test_eta_is_probability():
    bundle = kernel_densities_d1(ModelParams(1, 2.0, 5.0))
    mass = oracles.mu_integral(lambda t: bundle.eta_density(t))
    assert abs(mass - 1.0) < 1e-6


def test_kernels_require_d1():
    with pytest.raises(DomainError):
        kernel_densities_d1(ModelParams(2, 3.0, 6.0))
