"""Special functions, closed-form densities, and the d=1 quadrature engine.

Densities are always taken with respect to the reference measure
mu(dx) = |x|^(-(d+1)/2) prod dx_ij on the positive definite cone, which at
d=1 reduces to dx/x on the positive half line. All gamma-type quantities are
computed in log space.

The d=1 oracles (phi, the kernel identities in ``verify``, ``QuadratureCdf``)
share one fixed-node engine, composite Gauss-Legendre in t = log x evaluated
as array operations; nothing integrates adaptively. A ``QuadratureCdf``
takes the mass below and above its grid from the same rule on widening
panels, calls its density once on all its nodes (or once per node with a
float where the density cannot take an array), and joins its table with a
port of scipy's monotone cubic, so the package imports numpy and
``scipy.special`` only. The engine evaluates only where an integrand lives:
phi sums a window of its grid outside which its mass is below one ulp by
far, one window per block of _PHI_BLOCK sorted s, and ``_row_sums`` skips
the row blocks whose outer weight is exactly 0. Both keep the bits of a sum
over the whole grid.
"""

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special as sp

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
    """Logarithmic derivative of the gamma function, x > 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DomainError("digamma requires a positive argument")
    out = sp.digamma(x)
    return float(out) if out.ndim == 0 else out


def log_multivariate_gamma(d, a):
    """log Gamma_d(a) = d(d-1)/4 log(pi) + sum_k log Gamma(a - (k-1)/2)."""
    if not a > (d - 1) / 2.0:
        raise DomainError(f"multivariate gamma needs a > (d-1)/2, got a={a}, d={d}")
    ks = np.arange(d)
    return d * (d - 1) / 4.0 * math.log(math.pi) + float(np.sum(sp.gammaln(a - ks / 2.0)))


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
    zero outside its support, where I - x stops being positive definite.
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
            return 0.0
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
    x, w = sp.roots_legendre(_GL_ORDER)
    half = 0.5 * np.diff(edges)
    return edges[:-1, None] + half[:, None] * (1.0 + x), half, w


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
    """
    out = values @ w
    if not _all_finite(out):
        bad = np.argwhere(~np.isfinite(values))
        at = f"t = {t[tuple(bad[0])[-t.ndim:]]:.6g}" if bad.size else "an overflowing sum"
        raise NonFiniteIntegrand(f"{where}: non-finite integrand at {at}")
    return out


def _row_sums(block, w, t, where, weight):
    """Sums of node matrices with rows at the nodes ``t``, _ROW_BLOCK at a time.

    ``block(lo, hi)`` gives a list of (hi - lo, len(t)) arrays for rows lo:hi.
    ``weight`` is the outer weight the sums get multiplied by, or any array
    that is nonzero wherever one of several such weights is. A block whose
    weights are all exactly 0.0 is never evaluated and its sums read 0, so a
    non-finite value there goes unseen; every evaluated value is checked.
    Kept blocks keep their boundaries, so each sum has the same bits.
    """
    out = None
    for lo in range(0, len(t), _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, len(t))
        if not weight[lo:hi].any():
            continue
        rows = f"{where}, outer t in [{t[lo]:.6g}, {t[hi - 1]:.6g}]"
        sums = [_rule_sums(v, w, t, rows) for v in block(lo, hi)]
        if out is None:
            out = np.zeros((len(sums), len(t)))
        out[:, lo:hi] = sums
    # With no weight left, block(0, 0) evaluates no node and gives the count of sums.
    return np.zeros((len(block(0, 0)), len(t))) if out is None else out


@lru_cache(maxsize=64)
def _phi_hi(beta):
    """End node of phi's window, past whose panel edge t >= 0 the mass is negligible.

    For t >= 0 and alpha >= 0, (e^t + s)^(-alpha) <= (1 + s)^(-alpha), so the
    mass above t is at most (1 + s)^(-alpha) Gamma(beta, e^t), and phi is at
    least (1 + s)^(-alpha) / (e beta), its part on y < 1.
    """
    n = len(_log_grid(_LOG_LO, _PHI_T_HI)[0])
    for end in range(0, n, _PHI_ALIGN):
        t_end = _LOG_LO + end * _GL_PANEL / _GL_ORDER
        if t_end < 0.0:
            continue
        tail = sp.gammaincc(beta, math.exp(t_end))  # Gamma(beta, e^t) / Gamma(beta)
        if tail == 0.0 or 1.0 + math.log(beta) + sp.gammaln(beta) + math.log(tail) <= math.log(_PHI_TOL):
            return end
    return n


def _phi_lo(alpha, beta, s_min, s_max):
    """Start node of phi's window for every s in [s_min, s_max]; 0 at t = -60.

    With alpha >= 0, phi(s) >= (1 + s)^(-alpha) / (e beta), and the mass below
    T is at most s^(-alpha) e^(beta T) / beta, and if beta > alpha also
    e^((beta - alpha) T) / (beta - alpha). The edge T where the first falls
    to _PHI_TOL of phi rises with s and that of the second falls, so the
    larger of the first's at s_min and the second's at s_max lies below the
    edge of every s between them.
    """
    log_tol = math.log(_PHI_TOL) - 1.0
    # An edge that is -inf or NaN (s at the ends of double range) gives t = -60.
    t_lo = max(_LOG_LO, (log_tol - alpha * math.log1p(1.0 / s_min)) / beta)
    if beta > alpha:
        c = beta - alpha
        t_lo = max(t_lo, (log_tol - math.log(beta / c) - alpha * math.log1p(s_max)) / c)
    step = _PHI_ALIGN * (_GL_PANEL / _GL_ORDER)
    return math.floor((t_lo - _LOG_LO) / step) * _PHI_ALIGN


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


def _phi_sums(a, b, t, w, y, s_arr, where):
    return _rule_sums(np.exp(b * t - a * np.log(y + s_arr[..., None]) - y), w, t, where)


def _phi_window(a, b, s_arr, s_min, s_max, where):
    """phi at every s in ``s_arr`` by the rule on one window that holds [s_min, s_max]."""
    t, w, y = _log_grid(_LOG_LO, _PHI_T_HI)
    lo, hi = (_phi_lo(a, b, s_min, s_max), _phi_hi(b)) if a >= 0 else (0, len(t))
    with np.errstate(over="ignore", invalid="ignore"):  # the sums are checked at once
        out = _phi_sums(a, b, t[lo:hi], w[lo:hi], y[lo:hi], s_arr, where)
        if lo == 0:
            t_edge = _phi_head_edge(a, b, s_min)
            head = np.exp(b * t_edge - a * np.log(s_arr)) / b
            if t_edge < _LOG_LO:
                head = _phi_sums(a, b, *_log_grid(t_edge, _LOG_LO), s_arr, where) + head
            out = out + head
    if not _all_finite(out):
        raise NonFiniteIntegrand(f"{where}: phi overflows below t = {_LOG_LO}")
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
    s_arr = np.asarray(s, dtype=float)
    if not (float(s_arr) > 0 if s_arr.ndim == 0 else (s_arr > 0).all()):
        raise DomainError("phi requires s > 0")
    if s_arr.size == 0:
        return np.empty(s_arr.shape)
    a, b = p.alpha, p.beta
    where = f"phi_d1 at alpha={a}, beta={b}"
    if s_arr.ndim == 0:
        return float(_phi_window(a, b, s_arr, float(s_arr), float(s_arr), where))
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


def _pchip_end(h, m):
    """Moler's one-sided three-point slope, kept monotone, at the end where h and m start."""
    d = ((2 * h[0] + h[1]) * m[0] - h[0] * m[1]) / (h[0] + h[1])
    if np.sign(d) != np.sign(m[0]):
        return 0.0
    return 3.0 * m[0] if np.sign(m[0]) != np.sign(m[1]) and abs(d) > 3.0 * abs(m[0]) else d


def _pchip(x, y):
    """Coefficients (4, n - 1) of scipy's PchipInterpolator through (x, y), in its arithmetic.

    Fritsch-Carlson slopes: 0 where the secants change sign or one is 0, else
    their weighted harmonic mean; ``_pchip_end`` at the ends; a line for n = 2.
    x is strictly increasing.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if len(x) == 2:
            dk = np.array([m[0], m[0]])
        else:
            w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
            flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
            # A tiny secant overflows the harmonic mean to 1/inf = 0, the slope it would set anyway.
            inner = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
            dk = np.r_[_pchip_end(h, m), inner, _pchip_end(h[::-1], m[::-1])]
        t = (dk[:-1] + dk[1:] - 2 * m) / h
        return np.stack([t / h, (m - dk[:-1]) / h - t, dk[:-1], y[:-1]])


def _pchip_eval(x, c, xi):
    """The cubic of the cell holding each xi (the end cells extrapolate), summed as scipy's PPoly does."""
    i = np.clip(np.searchsorted(x, xi, side="right") - 1, 0, len(x) - 2)
    s = xi - x[i]
    with np.errstate(over="ignore", invalid="ignore"):  # as the compiled loop, far outside the grid
        return ((0.0 + c[3, i]) + c[2, i] * s) + c[1, i] * (s * s) + c[0, i] * (s * s * s)


class QuadratureCdf:
    """CDF of a density against dx/x from the fixed rule on each grid cell.

    The grid is uniform in t = log x from x_lo to x_hi. The mass below and
    above it, over t in [-60, t_lo] and [t_hi, 60], comes from the same rule
    on panels that start _GL_PANEL wide at the grid's edge and widen 1.5 times
    each (``_out_edges``). ``density`` is probed on the first panel's nodes;
    if it gives a float array of their shape, it is called once on the whole
    (panels, 8) node array, and otherwise once per node with a float x (a
    density that cannot take an array raises TypeError or ValueError, as
    float(), math.* and ``if`` do on one). The cumulative values are joined
    by the monotone cubic of Fritsch and Carlson in log x (``_pchip``), which
    ``grid`` (x_lo to x_hi exactly) bounds; the CDF reads 0 below it and 1
    above. ``total_mass`` records the full integral before normalization so
    callers can assert it is a probability density.
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
        xs = np.exp(nodes)
        vals = None if _array_values(density, xs[0]) is None else _array_values(density, xs)
        if vals is None:
            vals = np.array([density(math.exp(t)) for t in nodes.flat]).reshape(nodes.shape)
        cells = slice(len(below), len(below) + n_grid - 1)
        segs = half[cells] * _rule_sums(vals[cells], w, nodes[cells], "QuadratureCdf density")
        head, tail = (
            _rule_sums(vals[r], w, nodes[r], f"QuadratureCdf mass {side} the grid") @ half[r]
            for r, side in ((slice(0, cells.start), "below"), (slice(cells.stop, None), "above"))
        )
        cum = head + np.concatenate([[0.0], np.cumsum(segs)])
        self.total_mass = float(cum[-1] + tail)
        self.grid = np.exp(ts)
        self.grid[[0, -1]] = x_lo, x_hi
        self._ts, self._coef = ts, _pchip(ts, cum / self.total_mass)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        # The table holds the head and tail masses, so x_lo and x_hi read it too.
        inside = _pchip_eval(self._ts, self._coef, np.log(np.clip(x, self.grid[0], self.grid[-1])))
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
        self._log_gamma_beta = float(sp.gammaln(self.params.beta))

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


def kernel_densities_d1(p: ModelParams):
    return KernelBundleD1(p)
