"""Special functions, closed-form densities, and the d=1 quadrature engine.

Densities are always taken with respect to the reference measure
mu(dx) = |x|^(-(d+1)/2) prod dx_ij on the positive definite cone, which at
d=1 reduces to dx/x on the positive half line. All gamma-type quantities are
computed in log space, on numpy and ``math`` alone: log Gamma is
``math.lgamma``; ``digamma`` shifts to x >= 10 and sums Stirling's series;
the regularized incomplete gamma functions sum a series below x = a + 1 and
Legendre's continued fraction above it, each to the term count its slowest
point needs. The tests bound each against mpmath.

The d=1 oracles (phi, the kernel identities in ``verify``, ``QuadratureCdf``)
share one fixed-node engine, composite Gauss-Legendre in t = log x evaluated
as array operations; nothing integrates adaptively. A ``QuadratureCdf``
takes the mass below and above its grid from the same rule on widening
panels, calls its density once on all its nodes and grid points (or once
per point with a float where the density cannot take an array), and joins
its table with a cubic Hermite whose slopes are the density at the grid
points. The tables of the d=1 laws eta and qbar drop at most _TAIL_TOL of
their mass below and above their windows, by closed-form tail bounds.
The engine evaluates only where an integrand lives,
by one rule: a sum over the grid takes a window of it, derived in closed
form, outside which the integrand's mass is below a fixed fraction far
under one ulp (_PHI_TOL of phi for phi, _ROW_TOL of the kernel's mass for a
kernel table), and whose ends are multiples of _PHI_ALIGN nodes, so that
what is kept is added in the lanes the whole grid's sum uses. phi takes one
window per block of _PHI_BLOCK sorted s; ``_row_sums`` takes one per block
of _ROW_BLOCK rows, as its caller derives it, and skips the row blocks
whose outer weight is exactly 0. All keep the bits of a sum over the whole
grid.
"""

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import matcore
from .errors import DomainError, NonFiniteIntegrand

# Nothing here integrates adaptively; perfbench's tracer still rebinds this name.
integrate = None

# Window for log-substituted quadrature on (0, inf). Integrands handled here
# decay at least like x^(+-1/2) in linear space, so the truncation error at
# exp(+-60) is below 1e-13 of the total mass.
_LOG_LO = -60.0
_LOG_HI = 60.0

# The engine: 8-point Gauss-Legendre on panels of width 0.5 in t = log x,
# where the d=1 integrands vary on a scale of one. Node matrices are built 8
# rows at a time, 123 kB per temporary on the 1920-node grid over [-60, 60]
# (it stays in cache) against 29 MB for a whole one. phi's integrand is below
# e^-1000 of its peak past t = 7.
_GL_ORDER, _GL_PANEL, _ROW_BLOCK, _PHI_T_HI = 8, 0.5, 8, 7.0
# The rule's nodes on [-1, 1] and weights, bit for bit scipy.special's
# roots_legendre(8), whose first call would import scipy.linalg; numpy's
# leggauss(8) differs from it in the last bits. The rule is symmetric, so
# the upper half is written out and mirrored.
_GL_NODES_UP = [float.fromhex(h) for h in ("0x1.77ac94f3c7346p-3", "0x1.0d129583284b4p-1",
                                           "0x1.97e4ab249f41ep-1", "0x1.ebab1cb0acc67p-1")]
_GL_WEIGHTS_UP = [float.fromhex(h) for h in ("0x1.736360b199344p-2", "0x1.413c50a25561bp-2",
                                             "0x1.c76fb531d2b9fp-3", "0x1.9ea1d04ca0346p-4")]
_GL_NODES = np.array([-x for x in _GL_NODES_UP[::-1]] + _GL_NODES_UP)
_GL_WEIGHTS = np.array(_GL_WEIGHTS_UP[::-1] + _GL_WEIGHTS_UP)
_GL_NODES.flags.writeable = _GL_WEIGHTS.flags.writeable = False
# phi sums only a window of that grid, outside which its mass is below
# _PHI_TOL of phi. OpenBLAS's AVX-512 dot kernel adds 32 lanes and leaves the
# last n mod 32 terms to a scalar loop, so a window that starts and ends on a
# multiple of _PHI_ALIGN nodes adds every term that matters in the lane the
# whole grid does, and phi keeps its bits.
_PHI_TOL, _PHI_ALIGN = 2.0**-100, 32
# phi's closed form below t = -60 stays wherever its error is below
# _PHI_HEAD_TOL of phi, 2^-12 of an ulp, and so keeps its bits; elsewhere
# the rule extends below -60 by steps of _PHI_HEAD_STEP.
_PHI_HEAD_TOL, _PHI_HEAD_STEP = 2.0**-64, 8.0
# A large array of s is summed _PHI_BLOCK sorted values at a time, each block
# on its own window, which is far narrower than one window over a wide range.
_PHI_BLOCK = 64
# A node exponent of phi below this cannot overflow exp(), nor a sum of its terms.
_PHI_EXP_SAFE = 700.0
# A row block of a kernel table (``_row_sums``) sums an aligned window outside
# which its density holds below _ROW_TOL of its mass. A row's test function
# may fall away where its density peaks and so move the row's mass into the
# density's tail: there 2^-100 moved the last bit of some intertwining rows,
# and 2^-200 keeps every table's bits.
_ROW_TOL = 2.0**-200
# A d=1 law's CDF table reads 0 below its window and 1 above; each end lies where
# a closed-form bound on the mass beyond it is _TAIL_TOL (``_eta_window``).
_TAIL_TOL = 1e-13

# The gamma-type functions below are written on numpy and ``math`` alone.
# _EPS is the unit roundoff; each series and fraction is summed to _EPS / 4.
_EPS, _TINY = 2.0**-53, 1e-300
# digamma shifts its argument to at least 10, where Stirling's series to
# its 7th term, B_2k / (2k), k = 1..7, errs by below 5e-17 of psi.
_DIGAMMA_SHIFT_TO = 10.0
_DIGAMMA_BERNOULLI = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12)
_MAX_FRACTION_TERMS = 100_000


class Law(str, enum.Enum):
    WISHART = "wishart"
    INV_WISHART = "invwishart"
    BETA1 = "beta1"
    INV_BETA1 = "invbeta1"
    BETA2 = "beta2"

    @property
    def reads(self):
        """The parameters the law reads: Wishart alpha only, inverse Wishart beta only, the rest both."""
        return {Law.WISHART: ("alpha",), Law.INV_WISHART: ("beta",)}.get(self, ("alpha", "beta"))


@dataclass(frozen=True)
class ModelParams:
    """The triple (d, alpha, beta)."""

    dim: int
    alpha: float
    beta: float

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError(f"dim must be a positive integer, got {self.dim}")
        for name, value in (("alpha", self.alpha), ("beta", self.beta)):
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")

    @property
    def half_bound(self):
        return (self.dim - 1) / 2.0

    def require_sampling(self, law=Law.BETA2):
        """Each parameter ``law`` reads is > (d-1)/2, as its sampler and closed forms need.

        The default law is the walks' beta II increment, which reads both.
        """
        names = Law(law).reads
        if not all(getattr(self, name) > self.half_bound for name in names):
            got = ", ".join(f"{name}={getattr(self, name)}" for name in names)
            raise DomainError(f"need {', '.join(names)} > (d-1)/2 = {self.half_bound}, got {got}")
        return self

    def require_contracting(self):
        """beta - alpha > (d-1)/2, the regime where the series limit exists."""
        self.require_sampling()
        if not (self.beta - self.alpha > self.half_bound):
            raise DomainError(
                f"need beta - alpha > (d-1)/2 = {self.half_bound}, "
                f"got beta - alpha = {self.beta - self.alpha}"
            )
        return self


def digamma(x):
    """Logarithmic derivative of the gamma function, x > 0, on a float or elementwise on an array.

    The recurrence psi(x) = psi(x + 1) - 1/x carries each x to x + n >= 10,
    where Stirling's series psi(y) = log y - 1/(2y) - sum_k B_2k / (2k y^2k),
    k = 1..7, is below 5e-17 of psi. The error is a few eps times the larger
    of |psi| and 1, so it is absolute near psi's root at 1.4616 (see the
    tests for the measured bound).
    """
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0):  # a NaN is refused as well
        raise DomainError("digamma requires a positive argument")
    # The shift sums 1/x + 1/(x+1) + ... compensated (Kahan): near psi's
    # root it cancels against log y, and plain sums erred by 11 eps there.
    y, shift, lost = x.copy(), np.zeros(x.shape), np.zeros(x.shape)
    for _ in range(max(0, math.ceil(_DIGAMMA_SHIFT_TO - float(x.min(initial=_DIGAMMA_SHIFT_TO))))):
        low = y < _DIGAMMA_SHIFT_TO
        term = 1.0 / y[low] - lost[low]
        total = shift[low] + term
        lost[low] = (total - shift[low]) - term
        shift[low] = total
        y[low] += 1.0
    z = 1.0 / (y * y)
    series = np.zeros(x.shape)
    for c in reversed(_DIGAMMA_BERNOULLI):
        series = series * z + c
    out = (np.log(y) - shift) - ((0.5 / y + series * z) - lost)
    return float(out) if out.ndim == 0 else out


def log_multivariate_gamma(d, a):
    """log Gamma_d(a) = d(d-1)/4 log(pi) + sum_k log Gamma(a - (k-1)/2), with math.lgamma."""
    if not a > (d - 1) / 2.0:
        raise DomainError(f"multivariate gamma needs a > (d-1)/2, got a={a}, d={d}")
    return d * (d - 1) / 4.0 * math.log(math.pi) + sum(math.lgamma(a - k / 2.0) for k in range(d))


def _log_gamma_front(a, x):
    """log(x^a e^-x / Gamma(a)), the factor in front of both incomplete gamma expansions.

    Its rounding error is a few eps times |a log x| + x + |lgamma(a)|, which
    is the relative error of both (see the tests for the measured bound).
    """
    with np.errstate(divide="ignore"):
        return a * np.log(x) - x - math.lgamma(a)


def _series_terms(a, x):
    """Terms n the series sum_n x^n / ((a+1)...(a+n)) needs at this x < a + 1, and so at any smaller x.

    With r = x / (a + n + 1) < 1 the terms after the n-th sum to at most
    c_n r / (1 - r), and the sum is at least 1; n is the first where that bound is below eps/4.
    """
    c, n = 1.0, 0
    while True:
        n += 1
        c *= x / (a + n)
        r = x / (a + n + 1.0)
        if c * r <= 0.25 * _EPS * (1.0 - r):
            return n


def _fraction_terms(a, x):
    """Depth of Legendre's continued fraction for Q(a, x) at x >= a + 1 (and so at any larger x).

    The fraction is 1 / g, g = b_0 + a_1 / (b_1 + a_2 / (b_2 + ...)), b_n =
    x + 2n + 1 - a, a_n = -n (n - a). Its n-th term moves the convergent of
    g by e_n = -a_n D_(n-1) D_n e_(n-1), D_n = 1 / (b_n + a_n D_(n-1)). As a
    product, e_n keeps falling below any bound, where the difference of two
    rounded convergents can stall at an ulp. The depth is the first n with
    |e_n| <= eps/4 of g. At an integer a the fraction ends with a_a = 0. It
    converges faster as x grows.
    """
    b = x + 1.0 - a
    d = 1.0 / (b + 2.0)
    e = (a - 1.0) * d
    g = b + e
    for n in range(1, _MAX_FRACTION_TERMS):
        if abs(e) <= 0.25 * _EPS * abs(g):
            return n
        an = -(n + 1) * (n + 1 - a)
        b += 2.0
        d_next = 1.0 / ((b + 2.0 + an * d) or _TINY)
        e *= -an * d * d_next
        d = d_next
        g += e
    raise DomainError(f"the incomplete gamma fraction does not converge at a={a}, x={x}")


def _gamma_pq(a, x, upper):
    """Regularized lower (P) or, if ``upper``, upper (Q) incomplete gamma function, a > 0, finite x >= 0.

    Below x = a + 1, P = front(a, x) / a times the series of ``_series_terms``
    (Horner's rule, from the last term), and Q = 1 - P; from there on, Q =
    front(a, x) times Legendre's continued fraction (evaluated from its
    deepest term up), and P = 1 - Q. Each part takes the term count its
    slowest point needs (``_series_terms``, ``_fraction_terms``), so every
    point is summed to eps/4, as array operations. A float x gives a float.
    """
    if not (math.isfinite(a) and a > 0):
        raise DomainError(f"the incomplete gamma function needs a finite a > 0, got a={a}")
    x = np.asarray(x, dtype=float)
    if not (np.all(x >= 0) and np.max(x, initial=0.0) < math.inf):
        raise DomainError("the incomplete gamma function needs a finite x >= 0")
    out = np.empty(x.shape)
    low = x < a + 1.0
    for region, gives_p in ((low, True), (~low, False)):
        xs = x[region]
        if xs.size == 0:
            continue
        with np.errstate(under="ignore"):
            front = np.exp(_log_gamma_front(a, xs))
        if gives_p:
            s = np.ones(xs.shape)
            for k in range(_series_terms(a, float(xs.max())), 0, -1):
                s *= xs
                s *= 1.0 / (a + k)
                s += 1.0
            direct = front * s / a
        else:
            t, xa = np.zeros(xs.shape), xs - a
            for k in range(_fraction_terms(a, float(xs.min())), 0, -1):
                t = (k * (k - a)) / ((xa + (2 * k + 1)) - t)
            direct = front / ((xa + 1.0) - t)
        out[region] = direct if gives_p != upper else 1.0 - direct
    return float(out) if out.ndim == 0 else out


def gammaincc(a, x):
    """Regularized upper incomplete gamma function Q(a, x) = 1 - P(a, x), a > 0, finite x >= 0."""
    return _gamma_pq(a, x, upper=True)


def multivariate_gamma(d, a):
    return math.exp(log_multivariate_gamma(d, a))


def log_multivariate_beta(d, a, b):
    return (
        log_multivariate_gamma(d, a)
        + log_multivariate_gamma(d, b)
        - log_multivariate_gamma(d, a + b)
    )


def multivariate_beta(d, a, b):
    return math.exp(log_multivariate_beta(d, a, b))


def density_wrt_mu(law, p: ModelParams, x):
    """Density of the named law with respect to mu, evaluated at x.

    Supported laws: wishart, invwishart, beta1, beta2. The beta1 density is
    zero outside its support, where I - x stops being positive definite: 0.0
    for one such matrix, and a zero entry for each such matrix of a stack.
    """
    law = Law(law)
    p.require_sampling(law)
    x = np.asarray(x, dtype=float)
    d = p.dim
    if law is Law.WISHART:
        logp = p.alpha * matcore.logdet(x) - matcore.trace(x) - log_multivariate_gamma(d, p.alpha)
        return np.exp(logp)
    if law is Law.INV_WISHART:
        logp = (
            -p.beta * matcore.logdet(x)
            - matcore.trace(matcore.invert(x))
            - log_multivariate_gamma(d, p.beta)
        )
        return np.exp(logp)
    if law is Law.BETA1:
        eye = np.eye(d)
        if not matcore.is_posdef(eye - x):
            if x.ndim == 2:
                return 0.0
            inside = np.array([matcore.is_posdef(eye - m) for m in x.reshape(-1, d, d)])
            inside = inside.reshape(x.shape[:-2])
            out = np.zeros(inside.shape)
            if inside.any():
                out[inside] = density_wrt_mu(law, p, x[inside])
            return out
        logp = (
            p.alpha * matcore.logdet(x)
            + (p.beta - (d + 1) / 2.0) * matcore.logdet(eye - x)
            - log_multivariate_beta(d, p.alpha, p.beta)
        )
        return np.exp(logp)
    if law is Law.BETA2:
        logp = (
            p.alpha * matcore.logdet(x)
            - (p.alpha + p.beta) * matcore.logdet(np.eye(d) + x)
            - log_multivariate_beta(d, p.alpha, p.beta)
        )
        return np.exp(logp)
    raise DomainError(f"no closed-form density for law {law.value}")


def _gauss_legendre(edges):
    """Nodes (cells, 8), half-widths and [-1, 1] weights of the rule on each cell."""
    half = 0.5 * np.diff(edges)
    return edges[:-1, None] + half[:, None] * (1.0 + _GL_NODES), half, _GL_WEIGHTS


@lru_cache(maxsize=8)
def _log_grid(t_lo=_LOG_LO, t_hi=_LOG_HI):
    """Nodes t, weights and e^t of the composite rule on [t_lo, t_hi], read-only."""
    edges = np.linspace(t_lo, t_hi, math.ceil((t_hi - t_lo) / _GL_PANEL) + 1)
    nodes, half, w = _gauss_legendre(edges)
    grid = (nodes.ravel(), (half[:, None] * w).ravel(), np.exp(nodes.ravel()))
    for arr in grid:
        arr.flags.writeable = False
    return grid


def _out_edges(t0, t_end):
    """Panel edges from t0 out to t_end = -60 or 60, the first _GL_PANEL wide and
    each later one 1.5 times the one before, the last cut at t_end; [t0] past it."""
    edges, width, step = [t0], _GL_PANEL, math.copysign(1.0, t_end)
    while (t_end - edges[-1]) * step > 0:
        edges.append(t_end if (t_end - edges[-1]) * step <= width else edges[-1] + step * width)
        width *= 1.5
    return np.array(edges)


def _all_finite(x):
    """np.isfinite(x).all() for a numpy value; a 0-d one takes math.isfinite.

    numpy's reduction on a scalar costs about 5 us, and phi_d1 is called
    thousands of times with a scalar s per CDF table.
    """
    return math.isfinite(x) if x.ndim == 0 else bool(np.isfinite(x).all())


def _rule_sums(values, w, t, where):
    """``values @ w`` over nodes ``t``; NonFiniteIntegrand names ``where`` and t.

    Weights are nonzero, so a non-finite node value makes its sum non-finite.
    ``where`` is a string, or a function giving one, called only on that error.
    """
    out = values @ w
    if not _all_finite(out):
        bad = np.argwhere(~np.isfinite(values))
        at = f"t = {t[tuple(bad[0])[-t.ndim:]]:.6g}" if bad.size else "an overflowing sum"
        raise NonFiniteIntegrand(f"{where() if callable(where) else where}: non-finite integrand at {at}")
    return out


def _cols(t, t_lo, t_hi):
    """The columns of the nodes t in [t_lo, t_hi], widened to multiples of _PHI_ALIGN."""
    lo = int(np.searchsorted(t, t_lo)) // _PHI_ALIGN * _PHI_ALIGN
    hi = -(-int(np.searchsorted(t, t_hi, side="right")) // _PHI_ALIGN) * _PHI_ALIGN
    return slice(lo, min(hi, len(t)))


def _row_sums(block, w, t, where, weight):
    """Sums of node matrices with rows at the nodes ``t``, _ROW_BLOCK at a time.

    ``block(lo, hi)`` gives the window of rows lo:hi: a pair of a slice
    ``cols`` of aligned columns (``_cols``, or ``slice(None)`` for whole
    rows) and an iterable of (hi - lo, width) arrays at the nodes t[cols],
    whose rows are summed against w[cols]. The columns outside the window
    count as 0. Each array is summed as soon as the iterable gives
    it, so a generator holds one at a time: held all at once, arrays of the
    windows' varying widths fragment the heap, which raised the peak RSS of
    an intertwining check by about 0.6 MB.
    ``weight`` is the outer weight the sums get multiplied by, or any array
    that is nonzero wherever one of several such weights is. A block whose
    weights are all exactly 0.0 is never evaluated and its sums read 0, so a
    non-finite value there goes unseen, as it does outside a window; every
    evaluated value is checked. Kept blocks keep their boundaries, so each
    sum has the same bits as long as a window drops only terms far below one
    ulp of it and starts and ends on a multiple of _PHI_ALIGN nodes.
    """
    out = None
    for lo in range(0, len(t), _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, len(t))
        if not weight[lo:hi].any():
            continue
        cols, vals = block(lo, hi)

        def rows():
            return f"{where}, outer t in [{t[lo]:.6g}, {t[hi - 1]:.6g}]"

        sums = [_rule_sums(v, w[cols], t[cols], rows) for v in vals]
        if out is None:
            out = np.zeros((len(sums), len(t)))
        out[:, lo:hi] = sums
    # With no weight left, block(0, 0) evaluates no node and gives the count of sums.
    return np.zeros((len(list(block(0, 0)[1])), len(t))) if out is None else out


@lru_cache(maxsize=64)
def _phi_hi(beta, tol=_PHI_TOL):
    """End node of phi's window, past whose panel edge t >= 0 the mass is below ``tol`` of phi.

    For t >= 0 and alpha >= 0, (e^t + s)^(-alpha) <= (1 + s)^(-alpha), so the
    mass above t is at most (1 + s)^(-alpha) Gamma(beta, e^t), and phi is at
    least (1 + s)^(-alpha) / (e beta), its part on y < 1.
    """
    n = len(_log_grid(_LOG_LO, _PHI_T_HI)[0])
    for end in range(0, n, _PHI_ALIGN):
        t_end = _LOG_LO + end * _GL_PANEL / _GL_ORDER
        if t_end < 0.0:
            continue
        tail = gammaincc(beta, math.exp(t_end))  # Gamma(beta, e^t) / Gamma(beta)
        if tail == 0.0 or 1.0 + math.log(beta) + math.lgamma(beta) + math.log(tail) <= math.log(tol):
            return end
    return n


def _phi_lo(alpha, beta, s_min, s_max, tol=_PHI_TOL):
    """Start node of phi's window for every s in [s_min, s_max]; 0 at t = -60.

    With alpha >= 0, phi(s) >= (1 + s)^(-alpha) / (e beta), and the mass below
    T is at most s^(-alpha) e^(beta T) / beta, and if beta > alpha also
    e^((beta - alpha) T) / (beta - alpha). The edge T where the first falls
    to ``tol`` of phi rises with s and that of the second falls, so the
    larger of the first's at s_min and the second's at s_max lies below the
    edge of every s between them.
    """
    log_tol = math.log(tol) - 1.0
    # An edge that is -inf or NaN (s at the ends of double range) gives t = -60.
    t_lo = max(_LOG_LO, (log_tol - alpha * math.log1p(1.0 / s_min)) / beta)
    if beta > alpha:
        c = beta - alpha
        t_lo = max(t_lo, (log_tol - math.log(beta / c) - alpha * math.log1p(s_max)) / c)
    step = _PHI_ALIGN * (_GL_PANEL / _GL_ORDER)
    return math.floor((t_lo - _LOG_LO) / step) * _PHI_ALIGN


def _phi_span(alpha, beta, s_min, s_max, tol):
    """Panel edges [t_lo, t_hi] of phi's window at ``tol`` for every s in [s_min, s_max], alpha >= 0."""
    step = _GL_PANEL / _GL_ORDER
    return _LOG_LO + _phi_lo(alpha, beta, s_min, s_max, tol) * step, _LOG_LO + _phi_hi(beta, tol) * step


def _phi_head_edge(alpha, beta, s_min):
    """Highest T = -60 - k _PHI_HEAD_STEP, k >= 0, below which phi's closed form holds.

    With alpha > 0 and y < e^T, (y+s)^(-alpha) e^(-y) is s^(-alpha) to within
    (alpha/s + 1) e^T of it, and phi >= (1+s)^(-alpha) / (e beta), so the
    closed form errs by at most e^(1 + (beta+1) T) (1 + alpha/s) (1 + 1/s)^alpha
    of phi. That bound falls as s rises; at T it is below _PHI_HEAD_TOL.
    """
    if alpha <= 0:
        return _LOG_LO
    log_s = math.log(s_min)  # not 1/s, which overflows at subnormal s
    log_bound = 1.0 + math.log(s_min + alpha) - log_s + alpha * (math.log1p(s_min) - log_s)
    t_edge = (math.log(_PHI_HEAD_TOL) - log_bound) / (beta + 1.0)
    return _LOG_LO - _PHI_HEAD_STEP * max(0, math.ceil((_LOG_LO - t_edge) / _PHI_HEAD_STEP))


def _phi_sums(a, b, t, w, y, s_col, where):
    return _rule_sums(np.exp(b * t - a * np.log(y + s_col) - y), w, t, where)


def _phi_window(a, b, s, s_min, s_max, where):
    """phi at a float ``s``, or at each value of an array ``s``, by the rule on
    one window that holds [s_min, s_max].
    """
    t, w, y = _log_grid(_LOG_LO, _PHI_T_HI)
    lo, hi = (_phi_lo(a, b, s_min, s_max), _phi_hi(b)) if a >= 0 else (0, len(t))
    s_col = s if isinstance(s, float) else s[..., None]
    # With alpha >= 0 a node's exponent is at most beta log beta - beta -
    # alpha log s_min, since log(y + s) >= log s and beta t - e^t peaks at
    # t = log beta. Below _PHI_EXP_SAFE, and with s finite, no term or sum can
    # overflow or be NaN, so no floating-point warning can arise and
    # np.errstate (1.7 us a call) is not needed.
    if lo > 0 and s_max < math.inf and b * math.log(b) - b - a * math.log(s_min) < _PHI_EXP_SAFE:
        return _phi_sums(a, b, t[lo:hi], w[lo:hi], y[lo:hi], s_col, where)
    with np.errstate(over="ignore", invalid="ignore"):  # the sums are checked at once
        out = _phi_sums(a, b, t[lo:hi], w[lo:hi], y[lo:hi], s_col, where)
        if lo == 0:
            t_edge = _phi_head_edge(a, b, s_min)
            head = np.exp(b * t_edge - a * np.log(s)) / b
            if t_edge < _LOG_LO:
                head = _phi_sums(a, b, *_log_grid(t_edge, _LOG_LO), s_col, where) + head
            out = out + head
    if not _all_finite(out):
        raise NonFiniteIntegrand(f"{where()}: phi overflows below t = {_LOG_LO}")
    return out


def phi_d1(p: ModelParams, s):
    """phi(s) = int_0^inf x^(alpha-beta) (1+sx)^(-alpha) e^(-1/x) dx/x, s > 0.

    With y = 1/x this is int y^(beta-1) (y+s)^(-alpha) e^(-y) dy, summed by
    the fixed rule as exp(beta t - alpha log(e^t + s) - e^t) over t = log y
    in a window of the panels of [-60, 7]. Outside it the mass is provably
    below _PHI_TOL of phi (see ``_phi_lo`` and ``_phi_hi``), far below
    one ulp, and is dropped. Where no window edge above t = -60 bounds it
    (and always at alpha < 0), the rule starts at t = -60, or lower where
    the mass near y = s lies below it (see ``_phi_head_edge``). Below that
    edge T, e^(-y) = 1 and (y+s)^(-alpha) = s^(-alpha), which adds
    e^(beta T) s^(-alpha)/beta. Where phi leaves double range, it raises
    NonFiniteIntegrand. ``s`` may be a scalar, giving a float, or an array.
    An array of more than _PHI_BLOCK values is sorted once and each run of
    _PHI_BLOCK sorted values is summed on its own window. BLAS orders a
    row's terms by the row count of the product, so each such value has the
    bits of the whole grid's sum in a _PHI_BLOCK-row product, wherever it
    stands in the array.
    """
    if p.dim != 1:
        raise DomainError("phi is evaluated at d=1 only")
    if p.beta <= 0:
        raise DomainError("phi requires beta > 0")
    a, b = p.alpha, p.beta

    def where():
        return f"phi_d1 at alpha={a}, beta={b}"

    # A scalar s is summed as a Python float, with no 0-d array; the isinstance
    # test spares np.ndim's cost on the floats a CDF table's density passes.
    if isinstance(s, float) or np.ndim(s) == 0:
        s = float(s)
        if not s > 0:
            raise DomainError("phi requires s > 0")
        return float(_phi_window(a, b, s, s, s, where))
    s_arr = np.asarray(s, dtype=float)
    if not (s_arr > 0).all():
        raise DomainError("phi requires s > 0")
    if s_arr.size == 0:
        return np.empty(s_arr.shape)
    if s_arr.size <= _PHI_BLOCK:
        return _phi_window(a, b, s_arr, float(s_arr.min()), float(s_arr.max()), where)
    flat = s_arr.ravel()
    order = np.argsort(flat)
    out = np.empty(flat.shape)
    for start in range(0, flat.size, _PHI_BLOCK):
        # The last block ends at the end, overlapping the one before, so that
        # every block is _PHI_BLOCK rows and each phi(s) has the same bits.
        start = min(start, flat.size - _PHI_BLOCK)
        idx = order[start : start + _PHI_BLOCK]
        run = flat[idx]
        out[idx] = _phi_window(a, b, run, float(run[0]), float(run[-1]), where)
    return out.reshape(s_arr.shape)


def _array_values(density, x):
    """density(x) if that is a float array of x's shape, else None.

    None also where the call raises TypeError or ValueError, as float(),
    math.* and a Python ``if`` do on an array (numpy's LinAlgError is a
    ValueError): such a density takes floats only.
    """
    try:
        vals = density(x)
    except (TypeError, ValueError):
        return None
    ok = isinstance(vals, np.ndarray) and vals.shape == x.shape and vals.dtype.kind == "f"
    return vals if ok else None


def _hermite(x, y, dk):
    """Coefficients (4, n - 1) of the cubic Hermite through (x, y) with slopes dk, as scipy's
    CubicHermiteSpline forms them, once each cell's two end slopes are clipped to 3m.

    m is the cell's secant. With y nondecreasing and dk >= 0, every end slope
    then lies in [0, 3m], so each cubic is monotone (Fritsch and Carlson,
    SIAM J. Numer. Anal. 17, 1980, the box condition); a flat cell (m = 0)
    is constant. x is strictly increasing.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    d0, d1 = np.minimum([dk[:-1], dk[1:]], 3.0 * m)
    t = (d0 + d1 - 2 * m) / h
    return np.stack([t / h, (m - d0) / h - t, d0, y[:-1]])


def _hermite_eval(x, c, xi):
    """The cubic of the cell holding each xi (the end cells extrapolate), summed as scipy's PPoly does.

    Each coefficient row of c is gathered with ``take``, a third of the cost
    of ``c[k, i]``; one gather of (n, 4) rows instead is slower from about
    30000 sorted points on, where its strided columns leave the cache.
    """
    i = np.clip(np.searchsorted(x, xi, side="right") - 1, 0, len(x) - 2)
    s = xi - x.take(i)
    c0, c1, c2, c3 = (row.take(i) for row in c)
    with np.errstate(over="ignore", invalid="ignore"):  # as the compiled loop, far outside the grid
        return ((0.0 + c3) + c2 * s) + c1 * (s * s) + c0 * (s * s * s)


class QuadratureCdf:
    """CDF of a density against dx/x from the fixed rule on each grid cell.

    The grid is uniform in t = log x from x_lo to x_hi. The mass below and
    above it, over t in [-60, t_lo] and [t_hi, 60], comes from the same rule
    on panels that start _GL_PANEL wide at the grid's edge and widen 1.5 times
    each (``_out_edges``). ``density`` is probed on the first panel's nodes;
    if it gives a float array of their shape, it is called once on a flat
    array of the (panels, 8) nodes followed by the grid points, and otherwise
    once per point with a float x (a density that cannot take an array raises
    TypeError or ValueError, as float(), math.* and ``if`` do on one). The
    cumulative values are joined in log x by a cubic Hermite (``_hermite``)
    whose slope at a grid point is dF/dt there, exactly the density over
    ``total_mass``, clipped in each cell so that its cubic is monotone.
    ``grid`` (x_lo to x_hi exactly) bounds the table; the CDF reads 0 below
    it and 1 above. ``total_mass`` records the full integral before
    normalization so callers can assert it is a probability density.
    """

    def __init__(self, density, x_lo, x_hi, n_grid=400):
        if not (math.isfinite(x_lo) and x_lo > 0):
            raise DomainError(f"QuadratureCdf needs a finite x_lo > 0, got x_lo={x_lo}")
        if not (x_lo < x_hi < math.inf):
            raise DomainError(f"QuadratureCdf needs a finite x_hi > x_lo = {x_lo}, got x_hi={x_hi}")
        if n_grid < 2:
            raise DomainError(f"QuadratureCdf needs n_grid >= 2, got n_grid={n_grid}")
        ts = np.linspace(math.log(x_lo), math.log(x_hi), n_grid)
        if not (np.diff(ts) > 0).all():
            raise DomainError(f"QuadratureCdf's {n_grid} grid points coincide in log x on [{x_lo}, {x_hi}]")
        below = _out_edges(ts[0], _LOG_LO)[:0:-1]
        nodes, half, w = _gauss_legendre(np.concatenate([below, ts, _out_edges(ts[-1], _LOG_HI)[1:]]))
        t_all = np.concatenate([nodes.ravel(), ts])
        vals = None if _array_values(density, np.exp(nodes[0])) is None else _array_values(density, np.exp(t_all))
        if vals is None:
            vals = np.array([density(math.exp(t)) for t in t_all])
        vals, at_grid = vals[: nodes.size].reshape(nodes.shape), vals[nodes.size :]
        cells = slice(len(below), len(below) + n_grid - 1)
        segs = half[cells] * _rule_sums(vals[cells], w, nodes[cells], "QuadratureCdf density")
        head, tail = (
            _rule_sums(vals[r], w, nodes[r], f"QuadratureCdf mass {side} the grid") @ half[r]
            for r, side in ((slice(0, cells.start), "below"), (slice(cells.stop, None), "above"))
        )
        cum = head + np.concatenate([[0.0], np.cumsum(segs)])
        self.total_mass = float(cum[-1] + tail)
        if not np.isfinite(at_grid).all():
            bad = ts[~np.isfinite(at_grid)][0]
            raise NonFiniteIntegrand(f"QuadratureCdf density: non-finite integrand at grid point t = {bad:.6g}")
        self.grid = np.exp(ts)
        self.grid[[0, -1]] = x_lo, x_hi
        self._ts, self._coef = ts, _hermite(ts, cum / self.total_mass, at_grid / self.total_mass)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        # The table holds the head and tail masses, so x_lo and x_hi read it too.
        inside = _hermite_eval(self._ts, self._coef, np.log(np.clip(x, self.grid[0], self.grid[-1])))
        vals = np.where(x < self.grid[0], 0.0, np.where(x > self.grid[-1], 1.0, inside))
        return np.clip(vals, 0.0, 1.0)


@dataclass
class KernelBundleD1:
    """Evaluator bundle for the d=1 transition kernels and measures.

    All densities are with respect to mu(dx) = dx/x in the second argument.
    The point-mass component of the two-variable kernel is exposed through
    its location map rather than a density.
    """

    params: ModelParams

    def __post_init__(self):
        if self.params.dim != 1:
            raise DomainError("kernel bundle is available at d=1 only")
        self.params.require_sampling()
        self._log_b = log_multivariate_beta(1, self.params.alpha, self.params.beta)
        self._log_gamma_beta = math.lgamma(self.params.beta)

    def p_density(self, r, r_new):
        a, b = self.params.alpha, self.params.beta
        ratio = np.asarray(r_new, dtype=float) / r
        return np.exp(a * np.log(ratio) - (a + b) * np.log1p(ratio) - self._log_b)

    def q_density(self, s, s_new):
        return self.p_density(s, s_new) * np.exp(-np.asarray(s_new, dtype=float))

    def k_density(self, s, a_var):
        al, be = self.params.alpha, self.params.beta
        a_var = np.asarray(a_var, dtype=float)
        return np.exp((al - be) * np.log(a_var) - al * np.log1p(s * a_var) - 1.0 / a_var)

    def k_point_mass_r(self, s, a_var):
        # a (s^-1 + a)^-1 a at d=1.
        a_var = np.asarray(a_var, dtype=float)
        return a_var * a_var * s / (1.0 + a_var * s)

    def phi(self, s):
        return phi_d1(self.params, s)

    def qbar_density(self, s, s_new, phi_s=None):
        phi_s = self.phi(s) if phi_s is None else phi_s
        return (self.phi(s_new) / phi_s) * self.q_density(s, s_new)

    def eta_density(self, s_new, phi_s_new=None):
        phi_s_new = self.phi(s_new) if phi_s_new is None else phi_s_new
        a = self.params.alpha
        s_new = np.asarray(s_new, dtype=float)
        return np.exp(
            np.log(phi_s_new) + a * np.log(s_new) - s_new - self._log_b - self._log_gamma_beta
        )

    def lambda_a_density(self, a_var):
        # Initial measure: a is inverse Wishart of parameter beta, r = a.
        be = self.params.beta
        a_var = np.asarray(a_var, dtype=float)
        return np.exp(-be * np.log(a_var) - 1.0 / a_var - self._log_gamma_beta)


def _lower_end(log_k, alpha, beta):
    """The x where a bound K Gamma(beta - c) x^c / c on a d=1 law's mass below x reaches _TAIL_TOL; log_k = log K.

    As y + s exceeds y and s, (y+s)^-alpha <= y^-c s^(c-alpha) for c in [0,
    alpha], so phi(s) <= Gamma(beta - c) s^(c-alpha) where also c < beta. A
    density at most K' s^c against ds/s has at most K' x^c / c of its mass
    below x. Each c gives an x; the end is the largest (the tightest bound)
    over c = alpha where beta > alpha, the power of the law's own head, which
    makes the bound tight to first order, and c = min(alpha, beta) (1 - 2^-k),
    k = 1..12. At beta <= alpha, Gamma(beta - c) grows without limit as c
    nears beta, and the best c lies a few percent below it (k = 5 at (5, 2)).
    """
    cs = [min(alpha, beta) * (1.0 - 2.0**-k) for k in range(1, 13)] + ([alpha] if beta > alpha else [])
    log_tol = math.log(_TAIL_TOL)
    return math.exp(max((log_tol - log_k + math.log(c) - math.lgamma(beta - c)) / c for c in cs))


def _eta_window(p: ModelParams):
    """Ends (x_lo, x_hi) of eta's CDF table; eta holds at most _TAIL_TOL of its mass beyond each.

    eta's density against ds/s is phi(s) s^alpha e^-s / (B Gamma(beta)), B =
    B(alpha, beta). phi(s) <= Gamma(beta) s^-alpha bounds it by e^-s / B, so
    its mass above x >= 1 is at most e^-x / (B x) <= e^-x / B; and phi(s) <=
    Gamma(beta - c) s^(c-alpha) (``_lower_end``) puts at most Gamma(beta - c)
    x^c / (c B Gamma(beta)) below x.
    """
    log_b = log_multivariate_beta(1, p.alpha, p.beta)
    return _lower_end(-log_b - math.lgamma(p.beta), p.alpha, p.beta), max(1.0, -log_b - math.log(_TAIL_TOL))


def _qbar_window(p: ModelParams, s0, phi_s0):
    """Ends (x_lo, x_hi) of the CDF table of qbar from s0, as ``_eta_window``'s; phi_s0 = phi(s0).

    qbar's density against ds/s is (phi(s) / phi(s0)) (s/s0)^alpha (1 +
    s/s0)^-(alpha+beta) e^-s / B. Above x >= s0, phi(s) <= phi(s0), as phi
    falls, and (s/s0)^alpha (1 + s/s0)^-(alpha+beta) <= (s0/s)^beta, so the
    density is at most (s0/s)^beta e^-s / B. With e^-s <= 1 the mass above x
    is at most (s0/x)^beta / (beta B), which reaches _TAIL_TOL at x = s0
    (beta B _TAIL_TOL)^(-1/beta); and where also x >= 1 it is at most
    (s0/x)^beta e^-x / (B x) <= e^-x / B, which reaches it at x = log(1 /
    (B _TAIL_TOL)). Either end is valid once raised to its range, and the
    table takes the smaller: the first where s0 << 1, which keeps the grid
    on the law. Below x, as in ``_lower_end``, the mass is at most
    Gamma(beta - c) x^c / (c B phi(s0) s0^alpha).
    """
    log_b, log_tol = log_multivariate_beta(1, p.alpha, p.beta), math.log(_TAIL_TOL)
    x_lo = _lower_end(-log_b - math.log(phi_s0) - p.alpha * math.log(s0), p.alpha, p.beta)
    by_power = s0 * math.exp(-(math.log(p.beta) + log_b + log_tol) / p.beta)
    return x_lo, min(max(1.0, s0, -log_b - log_tol), max(s0, by_power))


def kernel_densities_d1(p: ModelParams):
    return KernelBundleD1(p)
