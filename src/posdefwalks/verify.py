"""Verification harness for the distributional identities.

Monte Carlo checks compare samplers through scalar functionals with
Kolmogorov-Smirnov statistics at the p > 1e-3 level; moment checks use 3
standard errors plus any systematic allowance; the d=1 kernel identities are
verified at 1e-6 relative discrepancy as sums over node matrices of one fixed
composite Gauss-Legendre grid in log space (the engine in ``special``). Every
check is deterministic given (seed, configuration).

Each report's ``statistic`` is the worst sub-test measure and ``threshold``
the level it must not exceed: KS distances and moment gaps are expressed as
ratios to their own critical values (threshold 1.0), quadrature checks as raw
relative discrepancies (threshold 1e-6). A scalar functional's sub-tests are
labelled with its ``matcore`` function's name. The suite is the registry
at the end of the module: ``CHECKS`` maps each name to its check, whose
configurations are its keyword arguments.

The KS statistics are computed here, on numpy, and both p-values come from
the Kolmogorov limit law (``kolmogorov``, scipy.special's series ported
operation for operation, with its bits), the law the critical values invert
(``kolmogi``, solved once per process and level): a sub-test passes exactly
when its p is at least 1e-3, up to rounding at the boundary. The package
imports no part of scipy, which cost every process about 0.3 s to load.
"""

import json
import math
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from . import matcore, matdist, walks
from .errors import DomainError, EmptySample, InsufficientBinCount
from .matcore import SplitKind
from .matdist import make_stream
from .special import (
    _ROW_TOL,
    Law,
    ModelParams,
    QuadratureCdf,
    _cols,
    _eta_window,
    _log_grid,
    _phi_span,
    _qbar_window,
    _row_sums,
    _rule_sums,
    gammaincc,
    kernel_densities_d1,
    log_multivariate_beta,
    phi_d1,
)

P_THRESHOLD = 1e-3
# The Kolmogorov law's two forms meet at _KS_CUTOVER, scipy's point; below
# _KS_FLAT its cdf is under 1e-20, so the survival function rounds to 1.
_KS_CUTOVER, _KS_FLAT = 0.82, 0.15
QUAD_RTOL = 1e-6
MOMENT_SIGMAS = 3.0


# Scalar functionals of a matrix batch; sub-test labels are their names.
TRACE, LOGDET = matcore.trace, matcore.logdet
LAMBDA_MAX, LAMBDA_MIN = matcore.lambda_max, matcore.lambda_min
KS_FUNCTIONALS = (TRACE, LOGDET, LAMBDA_MAX)


@dataclass
class TestReport:
    __test__ = False  # data carrier, not a pytest case

    name: str
    statistic: float
    threshold: float
    n1: int
    n2: int
    passed: bool | None
    seed: int | None
    details: str

    def __post_init__(self):
        if self.passed is None:
            self.passed = bool(self.statistic <= self.threshold)

    def to_json(self):
        """One strict JSON object; a non-finite statistic is written as null."""
        fields = asdict(self)
        if not math.isfinite(self.statistic):
            fields["statistic"] = None
        return json.dumps(fields, allow_nan=False)


@dataclass(frozen=True)
class SubTest:
    label: str
    ratio: float
    note: str = ""

    def render(self):
        body = f"{self.label}: {self.ratio:.4g}"
        return f"{body} ({self.note})" if self.note else body


def _make_report(name, subs, n1, n2, seed, threshold=1.0, extra=""):
    # max() skips a NaN that does not come first, so non-finite ratios are
    # found first: any one of them fails the report and is named in it.
    bad = [s for s in subs if not math.isfinite(s.ratio)]
    statistic = bad[0].ratio if bad else max(s.ratio for s in subs)
    details = "; ".join(s.render() for s in subs)
    if bad:
        details = f"{details}; non-finite sub-tests: {', '.join(s.label for s in bad)}"
    if extra:
        details = f"{details}; {extra}"
    return TestReport(
        name=name,
        statistic=float(statistic),
        threshold=float(threshold),
        n1=int(n1),
        n2=int(n2),
        passed=False if bad else None,
        seed=seed,
        details=details,
    )


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov machinery


def _kolmogorov3(x):
    """(sf, cdf, pdf) of the Kolmogorov limit law at a float x, as scipy.special's kolmogorov forms them.

    Up to _KS_CUTOVER the cdf is the theta series w u (1 + u^8 + u^24 + u^48),
    u = exp(-pi^2 / (8 x^2)), w = sqrt(2 pi) / x, and sf = 1 - cdf; above it
    sf = 2v (1 - v^3 (1 - v^5 (1 - v^7))), v = exp(-2 x^2), and cdf = 1 - sf.
    Both are scipy's operations in scipy's order, so sf has its bits. Below
    _KS_FLAT the cdf is under 1e-20 and sf rounds to 1, as scipy's does.
    """
    if math.isnan(x):
        return math.nan, math.nan, math.nan
    if x <= _KS_FLAT:
        return 1.0, 0.0, 0.0
    if x <= _KS_CUTOVER:
        w = math.sqrt(2 * math.pi) / x
        logu8 = -math.pi * math.pi / (x * x)
        u8 = math.exp(logu8)
        u8cub = math.pow(u8, 3)
        cdf = 1 + u8 * (1 + u8 * u8 * (1 + u8cub))
        pdf = 1 + u8 * (9 + u8 * u8 * (25 + u8cub * 49))
        wu = w * math.exp(logu8 / 8)
        pdf = (math.pi * math.pi / 4 / (x * x) * pdf - cdf) * (wu / x)
        cdf *= wu
        sf = 1 - cdf
    else:
        v = math.exp(-2 * x * x)
        v3 = math.pow(v, 3)
        sf = 2 * v * (1 - v3 * (1 - v3 * (v * v) * (1 - v3 * v3 * v)))
        pdf = 8 * x * v * (1 - v3 * (4 - v3 * (v * v) * (9 - v3 * v3 * v * 16)))
        cdf = 1 - sf
    return min(max(sf, 0.0), 1.0), min(max(cdf, 0.0), 1.0), max(pdf, 0.0)


def kolmogorov(x):
    """Survival function of the Kolmogorov limit law at a float x: scipy.special.kolmogorov, bit for bit."""
    return _kolmogorov3(x)[0]


@lru_cache(maxsize=16)
def kolmogi(p):
    """The x with kolmogorov(x) = p, 0 < p < 1, by Newton's method kept in a bracket.

    Where p > 1/2 it solves cdf(x) = 1 - p, which keeps the relative
    accuracy of a small cdf. It starts from the first term, 2 exp(-2 x^2) =
    p, or from x = 1, and stops where a step moves x by at most
    DBL_EPSILON (1 + 2x).
    At P_THRESHOLD it gives scipy.special.kolmogi's bits, and elsewhere
    within 2 units in the last place of them. A gate computes it once per
    process and level.
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"kolmogi needs 0 < p < 1, got {p}")
    lower = p > 0.5
    x, lo, hi = (1.0 if lower else math.sqrt(-0.5 * math.log(p / 2))), 0.0, math.inf
    for _ in range(100):
        sf, cdf, pdf = _kolmogorov3(x)
        gap = (1 - p - cdf) if lower else (sf - p)  # positive where x is below the root
        if gap == 0:
            return x
        lo, hi = (x, hi) if gap > 0 else (lo, x)
        new = x + gap / pdf if pdf > 0 else math.nan
        if not lo <= new <= hi:
            new = 0.5 * (lo + hi) if hi < math.inf else 2.0 * x
        if abs(new - x) <= 2.0**-52 * (1.0 + 2.0 * x):  # scipy's stopping rule
            return new
        x = new
    raise DomainError(f"kolmogi did not converge at p={p}")


def _root_en(n1, n2):
    """Square root of the effective size n1 n2 / (n1 + n2) of a two-sample KS test."""
    return math.sqrt(n1 * n2 / (n1 + n2))


def ks_two_sample(xs, ys):
    """Two-sample KS distance D and its asymptotic p-value.

    D is the largest gap between the two empirical CDFs, read on the sorted
    pooled sample (scipy's ``ks_2samp`` statistic, with its bits); ties and
    infinities rank as values. The p-value is the Kolmogorov limit law at
    sqrt(n1 n2 / (n1 + n2)) D, the law ``ks_two_sample_critical`` inverts,
    so p >= P_THRESHOLD exactly when D is within the critical distance. A
    NaN in either sample gives NaN for both.
    """
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
    if xs.size == 0 or ys.size == 0:
        raise EmptySample("two-sample KS needs nonempty samples")
    xs, ys = np.sort(xs), np.sort(ys)
    if np.isnan(xs[-1]) or np.isnan(ys[-1]):  # a sort puts NaN last
        return math.nan, math.nan
    pooled = np.concatenate([xs, ys])
    gaps = (
        np.searchsorted(xs, pooled, side="right") / xs.size
        - np.searchsorted(ys, pooled, side="right") / ys.size
    )
    below, above = -gaps.min(), gaps.max()
    dist = float(below if below > above else above)
    return dist, float(kolmogorov(_root_en(xs.size, ys.size) * dist))


def ks_one_sample(xs, cdf):
    """One-sample KS distance D against a CDF and its asymptotic p-value.

    cdf is called once, on the sorted sample. D is the larger of D+ and D-,
    and p is the Kolmogorov limit law at sqrt(n) D: scipy's
    ``kstest(method="asymp")`` values, with their bits. A NaN in the sample
    gives NaN for both.
    """
    xs = np.asarray(xs, dtype=float).ravel()
    if xs.size == 0:
        raise EmptySample("one-sample KS needs a nonempty sample")
    xs = np.sort(xs)
    if np.isnan(xs[-1]):
        return math.nan, math.nan
    n = xs.size
    cdf_vals = cdf(xs)
    above = (np.arange(1.0, n + 1) / n - cdf_vals).max()
    below = (cdf_vals - np.arange(0.0, n) / n).max()
    dist = float(above if above > below else below)
    return dist, float(kolmogorov(dist * math.sqrt(n)))


def ks_two_sample_critical(n1, n2, p=P_THRESHOLD):
    """Distance whose asymptotic p-value equals p."""
    return kolmogi(p) / _root_en(n1, n2)


def ks_one_sample_critical(n, p=P_THRESHOLD):
    return kolmogi(p) / math.sqrt(n)


def _nonfinite_sub(label, *samples):
    """A NaN-ratio sub-test counting the NaN and inf values in samples, or None if none."""
    count = sum(int(np.count_nonzero(~np.isfinite(s))) for s in samples)
    return SubTest(label, math.nan, f"{count} non-finite values") if count else None


def _ks2_sub(label, xs, ys):
    # KS ranks an inf like any large value, so a non-finite sample must fail here.
    bad = _nonfinite_sub(label, xs, ys)
    if bad:
        return bad
    dist, pval = ks_two_sample(xs, ys)
    crit = ks_two_sample_critical(len(xs), len(ys))
    return SubTest(label, dist / crit, f"D={dist:.5f} p={pval:.2e}")


def _ks1_sub(label, xs, cdf):
    bad = _nonfinite_sub(label, xs)
    if bad:
        return bad
    dist, pval = ks_one_sample(xs, cdf)
    crit = ks_one_sample_critical(len(xs))
    return SubTest(label, dist / crit, f"D={dist:.5f} p={pval:.2e}")


def _moment_sub(label, values, target, allowance=0.0, sigmas=MOMENT_SIGMAS):
    values = np.asarray(values, dtype=float)
    mean = values.mean()
    se = values.std(ddof=1) / math.sqrt(values.size)
    ratio = abs(mean - target) / (sigmas * se + allowance)
    return SubTest(label, ratio, f"mean={mean:.5f} target={target:.5f} se={se:.2e}")


# ---------------------------------------------------------------------------
# Quadrature CDF oracles (d=1)


def _inv_wishart_cdf_d1(nu):
    """CDF of the d=1 inverse Wishart law with parameter nu: 1/X, X ~ Gamma(nu)."""
    return lambda x: gammaincc(nu, 1.0 / np.clip(np.asarray(x, dtype=float), 1e-300, None))


@lru_cache(maxsize=16)
def _eta_cdf(alpha, beta):
    """CDF of the initial law of S(1) at d=1, less at most _TAIL_TOL of its mass at each end."""
    p = ModelParams(1, alpha, beta)
    return QuadratureCdf(kernel_densities_d1(p).eta_density, *_eta_window(p))


def _qbar_cdf(alpha, beta, s0):
    """CDF of the one-step transition law from s0 at d=1, less at most _TAIL_TOL of its mass at each end."""
    p = ModelParams(1, alpha, beta)
    bundle = kernel_densities_d1(p)
    phi_s0 = bundle.phi(s0)
    return QuadratureCdf(lambda s: bundle.qbar_density(s0, s, phi_s=phi_s0), *_qbar_window(p, s0, phi_s0))


# ---------------------------------------------------------------------------
# Distributional checks


def check_dufresne(p: ModelParams, n_samples, rng, seed=None):
    """Series limit of the contracting walk, Cholesky split, vs the inverse Wishart target."""
    p.require_contracting()
    nu = p.beta - p.alpha
    series = walks.dufresne_series(p, rng, size=n_samples)
    direct = matdist.sample_inv_wishart(ModelParams(p.dim, nu, nu), rng, size=n_samples)
    subs = [_ks2_sub(f.__name__, f(series), f(direct)) for f in KS_FUNCTIONALS]
    if p.dim == 1:
        xs = series[:, 0, 0]
        subs.append(_ks1_sub("trace vs quadrature cdf", xs, _inv_wishart_cdf_d1(nu)))
        if nu > 2:
            # Mean of the d=1 limit law; the 3-SE gate needs a finite variance.
            subs.append(_moment_sub("mean", xs, 1.0 / (nu - 1.0)))
    return _make_report(f"dufresne_d{p.dim}", subs, n_samples, n_samples, seed)


FIXED_POINT_CHAINS = 64  # Kesten chains run side by side


def check_fixed_point(alpha, beta, dims, burn_in, n_samples, rng, seed=None):
    """Stationarity of both Cholesky-split recursions against the direct sampler, at each d in dims."""
    thin = max(1, burn_in // 10)
    subs = []
    for d in dims:
        p = ModelParams(d, alpha, beta).require_contracting()
        stat = ModelParams(d, alpha, beta - alpha)
        tag = f"d={d}"
        chains = {}
        for prime, label in ((False, "xi"), (True, "xi_prime")):
            chain = walks.kesten_samples(
                p, SplitKind.CHOLESKY, burn_in, thin, n_samples, rng, prime=prime, n_chains=FIXED_POINT_CHAINS
            )
            chains[label] = chain
            target = matdist.sample_beta2(stat, rng, size=n_samples)
            for f in (TRACE, LOGDET):
                subs.append(_ks2_sub(f"{label} {f.__name__} {tag}", f(chain), f(target)))
        # One-step invariance: the stationary law pushed through the recursion
        # map must match fresh direct draws.
        direct = matdist.sample_beta2(stat, rng, size=n_samples)
        # The increments' factors w(X) are drawn as such, not split again from X.
        factors = matdist.sample_factor(Law.BETA2, p, rng, size=n_samples)
        pushed = matcore._sandwich(factors, np.eye(d) + direct)
        fresh = matdist.sample_beta2(stat, rng, size=n_samples)
        for f in (TRACE, LOGDET):
            subs.append(_ks2_sub(f"push {f.__name__} {tag}", f(pushed), f(fresh)))
        if d == 1 and beta - alpha > 2:
            target_mean = alpha / (beta - alpha - 1.0)
            subs.append(_moment_sub(f"xi mean {tag}", chains["xi"][:, 0, 0], target_mean))
    return _make_report("fixed_point", subs, n_samples, n_samples, seed)


def check_intertwining_d1(p: ModelParams, s_grid=None, test_fns=None, seed=None):
    """Kernel identities at d=1, both sides of each as sums over one node grid.

    Verifies the operator identity on a grid of start points and a suite of
    test functions, the eigenfunction equation as the f = 1 special case, and
    the equality of the two initial-measure compositions. Nested integrals are
    node-matrix sums on the composite Gauss-Legendre grid of ``special``; test
    functions get arrays (r, a), and a scalar return is broadcast.

    Each row block of a push sums only a window of the grid, outside which
    its kernel density holds below ``_ROW_TOL`` of its mass (see
    ``special._row_sums``). The windows assume test functions bounded by 1
    in absolute value, as the four defaults are: then what a window drops
    is below that fraction of the kernel's mass, and the sums keep the bits
    of sums over the whole grid. Nothing checks the bound. A custom test
    function that grows in the tails loses its mass outside the windows,
    and its values there are never evaluated, so a NaN or inf there goes
    unreported.
    """
    if p.dim != 1:
        raise DomainError("the intertwining check runs at d=1 only")
    s_grid = tuple(s_grid) if s_grid is not None else (0.25, 0.5, 1.0, 2.0, 4.0)
    if test_fns is None:
        test_fns = {
            "exp(-r-a)": lambda r, a: np.exp(-r - a),
            "rational": lambda r, a: 1.0 / ((1.0 + r) * (1.0 + a)),
            "exp(-a)": lambda r, a: np.exp(-a),
            "const_1": lambda r, a: 1.0,
        }
    labels, fns = list(test_fns), list(test_fns.values())
    bundle = kernel_densities_d1(p)
    t, w, x = _log_grid()
    where = f"intertwining_d1 at alpha={p.alpha}, beta={p.beta}"
    # With rho = r_new/r, P(r; r_new) <= min(rho^alpha, rho^-beta) / B, so the
    # mass of P below log rho = u_lo and above u_hi is at most
    # e^(alpha u_lo) / (alpha B) + e^(-beta u_hi) / (beta B); each is half the tolerance.
    log_tol, log_b = math.log(_ROW_TOL / 2.0), log_multivariate_beta(1, p.alpha, p.beta)
    u_lo = (log_tol + math.log(p.alpha) + log_b) / p.alpha
    u_hi = -(log_tol + math.log(p.beta) + log_b) / p.beta

    def p_push(r, weight, what):
        # integral of P(r_j; r_new) f(r_new, a_j + r_new) against mu(dr_new)
        # for every f, at a_j = x_j and the given r_j, times the outer weight
        with np.errstate(divide="ignore"):  # r = 0 takes every column from t = -60 on
            log_r = np.log(r)

        def block(lo, hi):
            rows = log_r[lo:hi]
            cols = _cols(t, rows.min(initial=np.inf) + u_lo, rows.max(initial=-np.inf) + u_hi)
            xc = x[cols]
            dens, a_new = bundle.p_density(r[lo:hi, None], xc), x[lo:hi, None] + xc
            return cols, (dens * fn(xc, a_new) for fn in fns)

        return weight * _row_sums(block, w, t, f"{where}, {what}", weight)

    def k_block(lo, hi):
        # integral of k(s_new; a) f(r_point(s_new, a), a) against mu(da), s_new = x_i.
        # k(s; a) is phi's integrand in y = 1/a, so phi's window for the block's
        # s at the row tolerance, mirrored through t = 0, holds its mass.
        y_lo, y_hi = _phi_span(p.alpha, p.beta, x[lo], x[hi - 1], _ROW_TOL)
        cols = _cols(t, -y_hi, -y_lo)
        s_new, xc = x[lo:hi, None], x[cols]
        dens, r_point = bundle.k_density(s_new, xc), bundle.k_point_mass_r(s_new, xc)
        return cols, (dens * fn(r_point, xc) for fn in fns)

    # The k push table over s_new does not depend on the start point; it is
    # needed wherever one of its outer weights is nonzero.
    q_weights = [bundle.q_density(s, x) for s in s_grid]
    eta_weight = bundle.eta_density(x, 1.0)
    k_rows = np.logical_or.reduce([q != 0 for q in q_weights] + [eta_weight != 0])
    k_push = _row_sums(k_block, w, t, f"{where}, k push", k_rows)

    def discrepancy(left, right, what):
        left, right = (_rule_sums(v, w, t, f"{where}, {what}") for v in (left, right))
        return np.abs(left - right) / (0.5 * (np.abs(left) + np.abs(right)))

    worst = np.zeros(len(fns))
    for s, q_weight in zip(s_grid, q_weights):
        left = p_push(bundle.k_point_mass_r(s, x), bundle.k_density(s, x), f"p push from s={s}")
        worst = np.maximum(worst, discrepancy(left, q_weight * k_push, f"s={s}"))
    # Initial measures: both compositions must agree as integrals against f.
    # The eigenfunction cancels between the normalised kernel and the front
    # factor of the initial law, so neither side evaluates phi.
    initial = discrepancy(
        p_push(x, bundle.lambda_a_density(x), "initial p push"),
        eta_weight * k_push,
        "initial measures",
    )
    note = f"max rel over {len(s_grid)} start points"
    subs = [
        SubTest("eigenfunction f=1" if label == "const_1" else f"operator f={label}", float(v), note)
        for label, v in zip(labels, worst)
    ]
    subs += [SubTest(f"initial measures f={label}", float(v)) for label, v in zip(labels, initial)]
    return _make_report("intertwining_d1", subs, 0, 0, seed, threshold=QUAD_RTOL)


def check_my_markov_d1(p: ModelParams, n_traces, rng, h=0.05, seed=None):
    """Marginal and one-step conditional laws of the ratio process at d=1."""
    if p.dim != 1:
        raise DomainError("the Markov marginals check runs at d=1 only")
    if not 0.0 < h < 1.0:  # a NaN is refused as well
        raise DomainError(f"the Markov marginals check needs a bin width h in (0, 1), got h={h}")
    p.require_sampling()
    cfg = walks.WalkConfig(params=p, steps=2)
    tr = walks.simulate_walks(cfg, rng, n_traces)
    s1 = tr.s[:, 0, 0, 0]
    s2 = tr.s[:, 1, 0, 0]
    a1 = tr.a[:, 1, 0, 0]
    subs = [_ks1_sub("S(1) vs initial law", s1, _eta_cdf(p.alpha, p.beta))]

    # np.median's value: the middle value, or the mean of the two middle
    # values, and NaN if any value is. np.median would load numpy.ma.
    n = len(s1)
    mid = np.partition(s1, [(n - 1) // 2, n // 2, -1])
    s0 = float(mid[n // 2] if n % 2 else (mid[n // 2 - 1] + mid[n // 2]) / 2.0)
    if np.isnan(mid[-1]):
        s0 = math.nan
    mask = np.abs(s1 - s0) <= h * s0
    n_bin = int(mask.sum())
    if n_bin < 500:
        raise InsufficientBinCount(f"only {n_bin} traces in the conditioning bin at s0={s0:.4f}")
    qbar = _qbar_cdf(p.alpha, p.beta, s0)
    subs.append(_ks1_sub(f"S(2)|bin vs transition law (n={n_bin})", s2[mask], qbar))

    # Bin-width bias documented by halving h (not a gate): the distance should
    # not grow materially as the bin shrinks.
    mask_half = np.abs(s1 - s0) <= (h / 2.0) * s0
    d_half, p_half = ks_one_sample(s2[mask_half], qbar)
    bias_note = (
        f"halved-h bias check: D={d_half:.5f} p={p_half:.2e} on {int(mask_half.sum())} traces"
    )

    # Conditional mean of 1/A(1) given the bin against the kernel integral,
    # with an allowance for the kernel's variation across the bin.
    t, w, x = _log_grid()
    s_bin = s0 * np.array([1.0, 1.0 + h, 1.0 - h])
    k_inv_a = kernel_densities_d1(p).k_density(s_bin[:, None], x) / x
    where = f"my_markov_d1 at alpha={p.alpha}, beta={p.beta}"
    kbar = _rule_sums(k_inv_a, w, t, where) / phi_d1(p, s_bin)
    target, allowance = float(kbar[0]), float(np.max(np.abs(kbar[1:] - kbar[0])))
    subs.append(
        _moment_sub("E[1/A(1)|bin]", 1.0 / a1[mask], target, allowance=allowance)
    )
    return _make_report(
        "my_markov_d1", subs, n_traces, 0, seed, extra=f"s0={s0:.5f}; {bias_note}"
    )


def check_construction_equivalence(p: ModelParams, n, n_samples, rng, seed=None):
    """The four walk constructions agree in law, and exactly for Cholesky."""
    p.require_sampling()
    variants = [
        (walks.Construction.RECURSIVE, SplitKind.SQUARE_ROOT),
        (walks.Construction.RECURSIVE, SplitKind.CHOLESKY),
        (walks.Construction.CLOSED, SplitKind.SQUARE_ROOT),
        (walks.Construction.CLOSED, SplitKind.CHOLESKY),
    ]
    finals = []
    labels = []
    for construction, kind in variants:
        cfg = walks.WalkConfig(params=p, kind=kind, construction=construction, steps=n)
        tr = walks.simulate_walks(cfg, rng, n_samples)
        finals.append(tr.r[:, n])
        labels.append(f"{construction.value[:4]}/{kind.value[:4]}")
    # Each functional once per final: 12 evaluations for the 36 comparisons.
    values = [[f(final) for f in KS_FUNCTIONALS] for final in finals]
    subs = []
    for i in range(len(variants)):
        for j in range(i + 1, len(variants)):
            for k, f in enumerate(KS_FUNCTIONALS):
                subs.append(_ks2_sub(f"{labels[i]} vs {labels[j]} {f.__name__}", values[i][k], values[j][k]))
    # Path equality of the two Cholesky constructions on one shared stream.
    m = min(n_samples, 512)
    init = matdist.sample_inv_wishart(p, rng, size=m)
    incs = [matdist.sample_beta2(p, rng, size=m) for _ in range(n)]
    recursive, closed = (
        walks.trace_from_increments(SplitKind.CHOLESKY, init, incs, c).r[:, -1]
        for c in walks.Construction
    )
    gap = float(np.max(np.abs(recursive - closed)))
    subs.append(SubTest("shared-stream path gap", gap / 1e-10, f"max entry diff {gap:.2e}"))
    return _make_report(
        f"construction_equivalence_d{p.dim}", subs, n_samples, n_samples, seed
    )


def check_lukacs(p: ModelParams, n_samples, rng, seed=None):
    """Independence of the normalised part from the total (Cholesky split), with a control."""
    p.require_sampling()
    x = matdist.sample_wishart(ModelParams(p.dim, p.alpha, p.alpha), rng, size=n_samples)
    y = matdist.sample_wishart(ModelParams(p.dim, p.beta, p.beta), rng, size=n_samples)
    total = x + y
    w = matcore.cholesky(matcore.invert(total))  # w((X+Y)^-1), the Cholesky split
    part = matcore._sandwich(np.swapaxes(w, -1, -2), x)
    bound = 4.0 / math.sqrt(n_samples)
    # Replacing the alternative symmetrised product by the plain one breaks
    # the independence at d >= 2: the strongest of the four correlations
    # must then exceed the bound, otherwise the harness would be too blunt
    # to catch mistakes.  The other swapped form, w(X) (X+Y)^{-1} w(X)^T,
    # shares its spectrum with the valid part (cyclic trace, multiplicative
    # det), so trace and log-det cannot see its dependence; only the
    # triangular one-sided product can. It is built before any functional
    # is held, which keeps the check's peak memory.
    control = matcore._sandwich(w, x) if p.dim >= 2 else None
    # Each functional runs once per sample; each of the part's meets both of the total's.
    totals = [f(total) for f in (TRACE, LOGDET)]
    subs = []
    for fu in (TRACE, LOGDET):
        u = fu(part)
        for ft, v in zip((TRACE, LOGDET), totals):
            corr = float(np.corrcoef(u, v)[0, 1])
            subs.append(
                SubTest(f"corr[{fu.__name__}(part), {ft.__name__}(total)]", abs(corr) / bound, f"corr={corr:+.5f}")
            )
    extra = f"independence bound 4/sqrt(N)={bound:.5f}"
    if control is not None:
        controls = (f(control) for f in (TRACE, LOGDET))
        c_max = max(abs(float(np.corrcoef(u, v)[0, 1])) for u in controls for v in totals)
        subs.append(SubTest("negative control", bound / c_max, f"max |corr|={c_max:.5f}"))
    else:
        extra += "; negative control skipped at d=1 (the swapped form is genuinely independent there)"
    return _make_report(f"lukacs_d{p.dim}", subs, n_samples, n_samples, seed, extra=extra)


def check_beta_gamma(alpha, beta, dims, n_samples, rng, seed=None):
    """Decomposition of a Wishart law through its Beta factor, both oriented ways (Cholesky split)."""
    subs = []
    for d in dims:
        p = ModelParams(d, alpha, beta).require_sampling()
        whole = ModelParams(d, alpha + beta, alpha + beta)
        target = ModelParams(d, alpha, alpha)
        # Each combo draws the whole law's factor w(Y), not Y to split again.
        w_y = matdist.sample_factor(Law.WISHART, whole, rng, size=n_samples)
        u = matdist.sample_beta1(p, rng, size=n_samples)
        combo = matcore._sandwich(w_y, u)
        direct = matdist.sample_wishart(target, rng, size=n_samples)
        for f in (TRACE, LOGDET):
            subs.append(_ks2_sub(f"sum-split d={d} {f.__name__}", f(combo), f(direct)))
        w_v = matdist.sample_factor(Law.INV_WISHART, whole, rng, size=n_samples)
        w = matdist.sample_inv_beta1(p, rng, size=n_samples)
        combo_inv = matcore._sandwich(w_v, w)
        direct_inv = matdist.sample_inv_wishart(target, rng, size=n_samples)
        for f in (TRACE, LOGDET):
            subs.append(_ks2_sub(f"inverse-split d={d} {f.__name__}", f(combo_inv), f(direct_inv)))
    return _make_report("beta_gamma", subs, n_samples, n_samples, seed)


# ---------------------------------------------------------------------------
# Suite registry: a check is its entry in CHECKS plus its configurations,
# which ``run_check`` passes to it as keyword arguments (dim, alpha and beta
# as one ModelParams p) with rng and seed. FULL_CONFIG's key order gives each
# check's default stream id; REDUCED_CONFIG's keys are the calibration set,
# in calibration order. Both are read at call time.


FULL_CONFIG = {
    "dufresne_d1": dict(dim=1, alpha=2.0, beta=5.0, n_samples=200_000),
    "dufresne_d2": dict(dim=2, alpha=2.5, beta=6.0, n_samples=100_000),
    "intertwining_d1": dict(dim=1, alpha=2.0, beta=5.0, s_grid=(0.25, 0.5, 1.0, 2.0, 4.0)),
    "my_markov_d1": dict(dim=1, alpha=2.0, beta=5.0, n_traces=200_000, h=0.05),
    "fixed_point": dict(dims=(1, 2), alpha=2.5, beta=6.0, burn_in=500, n_samples=2000),
    "construction_equivalence": dict(dim=2, alpha=2.5, beta=6.0, n=5, n_samples=10_000),
    "lukacs": dict(dim=2, alpha=2.0, beta=3.0, n_samples=100_000),
    "beta_gamma": dict(alpha=2.0, beta=3.0, dims=(1, 2, 3), n_samples=30_000),
}

# The calibration set: FULL_CONFIG's checks at calibration sizes, in
# calibration order. Only these sizes differ from FULL_CONFIG's entries, and
# REDUCED_CONFIG is built from them once, at import.
_REDUCED_SIZES = {
    "dufresne_d1": dict(n_samples=4_000),
    "dufresne_d2": dict(n_samples=3_000),
    "my_markov_d1": dict(n_traces=30_000),
    "fixed_point": dict(burn_in=300, n_samples=600),
    "construction_equivalence": dict(n_samples=2_500),
    "lukacs": dict(n_samples=20_000),
    "beta_gamma": dict(n_samples=4_000),
}
REDUCED_CONFIG = {name: {**FULL_CONFIG[name], **sizes} for name, sizes in _REDUCED_SIZES.items()}

# The suite ``all`` runs: FULL_CONFIG's checks in its order, but beta_gamma,
# which joined FULL_CONFIG after ``verify all`` had its seven reports.
CHECK_NAMES = tuple(name for name in FULL_CONFIG if name != "beta_gamma")


CHECKS = {
    "dufresne_d1": check_dufresne,
    "dufresne_d2": check_dufresne,
    "intertwining_d1": lambda rng, **cfg: check_intertwining_d1(**cfg),  # draws nothing
    "my_markov_d1": check_my_markov_d1,
    "fixed_point": check_fixed_point,
    "construction_equivalence": check_construction_equivalence,
    "lukacs": check_lukacs,
    "beta_gamma": check_beta_gamma,
}


def run_check(name, seed, stream_id=None, config=None):
    """Run one named check on stream (seed, stream_id), by default at FULL_CONFIG.

    The stream id defaults to the check's place in FULL_CONFIG, as in
    ``posdefwalks verify <name>``, which prints the same report.
    """
    if name not in CHECKS:
        raise DomainError(f"unknown check '{name}'")
    if stream_id is None:
        stream_id = list(FULL_CONFIG).index(name)
    cfg = dict((config or FULL_CONFIG)[name])
    if "dim" in cfg:
        cfg["p"] = ModelParams(cfg.pop("dim"), cfg.pop("alpha"), cfg.pop("beta"))
    report = CHECKS[name](**cfg, rng=make_stream(seed, stream_id), seed=seed)
    report.name = name
    return report


def calibration_meta(base_seed, n_reps=100):
    """Null-distribution pass counts of the REDUCED_CONFIG checks.

    Every repetition reruns each sampling-based check with a fresh stream;
    the quadrature check is deterministic and has no reduced config. Returns
    a dict mapping check name to the number of passing repetitions.
    """
    counts = dict.fromkeys(REDUCED_CONFIG, 0)
    for rep in range(n_reps):
        for idx, name in enumerate(REDUCED_CONFIG):
            stream_id = 1000 + rep * len(REDUCED_CONFIG) + idx
            report = run_check(name, base_seed, stream_id=stream_id, config=REDUCED_CONFIG)
            counts[name] += int(report.passed)
    return counts
