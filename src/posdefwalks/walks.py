"""Random walk constructions on the cone, their running sums and functionals.

The walk state R(n) moves by the symmetrised product with an independent
beta II increment X(n). The recursive construction conjugates X(n) by the
current state; the closed one, whose states the Dufresne series sums,
accumulates the factors w(X(n))...w(X(1)) drawn by matdist.sample_factor.
They are equal in law for every split kind, and for the Cholesky split they
coincide path by path.
"""

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import matcore, matdist
from .errors import DomainError, StepOverflow, TruncationFailure
from .matcore import SplitKind
from .special import Law, ModelParams, digamma

ENTRY_MAX = 1e300


class Construction(str, Enum):
    RECURSIVE = "recursive"
    CLOSED = "closed"


@dataclass
class WalkConfig:
    params: ModelParams
    kind: SplitKind = SplitKind.CHOLESKY
    construction: Construction = Construction.RECURSIVE
    steps: int = 0
    init: object = "invwishart"  # see init_states

    def __post_init__(self):
        self.kind = SplitKind(self.kind)
        self.construction = Construction(self.construction)
        if self.steps < 0:
            raise DomainError("steps must be nonnegative")


@dataclass
class WalkTrace:
    """One realisation: states r[0..n], running sums a[0..n], ratios s[1..n].

    Arrays may carry a leading batch axis. s[k] is the symmetric value
    a[k-1]^-1 - a[k]^-1, which reconstructs a[k-1]^-1 r[k] a[k]^-1.
    """

    r: np.ndarray
    a: np.ndarray
    s: np.ndarray


def walk_step(kind, state, increment):
    """One move: the symmetrised product of the increment by the state."""
    return matcore.sym_product(kind, state, increment)


def walk_closed(kind, init, increments):
    """Nested product evaluated from the inside out via factor accumulation."""
    v = matcore.split_factor(kind, init)
    for x in increments:
        v = matcore.split_factor(kind, x) @ v
    return matcore.symmetrize(np.swapaxes(v, -1, -2) @ v)


def init_states(init, p: ModelParams, rng, n):
    """n start states (n, d, d): "identity", "invwishart" (from rng) or a fixed (d, d) matrix."""
    d = p.dim
    if isinstance(init, str):
        if init == "identity":
            return np.broadcast_to(np.eye(d), (n, d, d)).copy()
        if init == "invwishart":
            return matdist.sample_inv_wishart(p, rng, size=n)
        raise DomainError(f"unknown init '{init}'")
    init = matcore.posdef(init, name="init")
    if init.shape != (d, d):
        raise DomainError(f"fixed init has shape {init.shape}, need ({d}, {d}) at d={d}")
    return np.broadcast_to(init, (n, d, d)).copy()


def _check_overflow(m):
    if not np.all(np.isfinite(m)) or np.max(np.abs(m)) > ENTRY_MAX:
        raise StepOverflow("walk state left the representable range")


def _walk_trace(r):
    """WalkTrace of the states r (..., n+1, d, d): running sums and ratios."""
    a = np.cumsum(r, axis=-3)
    a_inv = matcore.invert(a)
    return WalkTrace(r=r, a=a, s=a_inv[..., :-1, :, :] - a_inv[..., 1:, :, :])


def simulate_walks(cfg: WalkConfig, rng, n_traces):
    """Simulate a batch of walks with independent increments per trace.

    Returns a WalkTrace whose arrays have shape (n_traces, steps+1, d, d)
    for r and a, and (n_traces, steps, d, d) for s.
    """
    if n_traces < 1:
        raise DomainError(f"simulate_walks needs n_traces >= 1, got {n_traces}")
    p, kind = cfg.params, cfg.kind
    r = np.empty((n_traces, cfg.steps + 1, p.dim, p.dim))
    state = r[:, 0] = init_states(cfg.init, p, rng, n_traces)
    closed = cfg.construction is Construction.CLOSED
    if closed:
        v = matcore.split_factor(kind, state)
    for k in range(1, cfg.steps + 1):
        if closed:
            v = matdist.sample_factor(Law.BETA2, p, rng, size=n_traces, kind=kind) @ v
            state = matcore.symmetrize(np.swapaxes(v, -1, -2) @ v)
        else:
            state = matcore.sym_product(kind, state, matdist.sample_beta2(p, rng, size=n_traces))
        _check_overflow(state)
        r[:, k] = state
    return _walk_trace(r)


def simulate_walk(cfg: WalkConfig, rng):
    """Single-trace convenience wrapper around simulate_walks."""
    tr = simulate_walks(cfg, rng, 1)
    return WalkTrace(r=tr.r[0], a=tr.a[0], s=tr.s[0])


def trace_from_increments(kind, init, increments):
    """Single WalkTrace driven by an explicit increment sequence."""
    state = matcore.posdef(init, name="init")
    d = state.shape[-1]
    r = np.empty((len(increments) + 1, d, d))
    r[0] = state
    for k, x in enumerate(increments, start=1):
        state = matcore.sym_product(kind, state, matcore.posdef(x, name="increment"))
        _check_overflow(state)
        r[k] = state
    return _walk_trace(r)


@dataclass
class KestenState:
    value: np.ndarray
    step: int = 0


def kesten_step(kind, state: KestenState, increment):
    """xi(n) = T_X(n)(I + xi(n-1))."""
    d = increment.shape[-1]
    new = matcore.sym_product(kind, increment, np.eye(d) + state.value)
    return KestenState(value=new, step=state.step + 1)


def kesten_prime_step(kind, state: KestenState, increment):
    """xi'(n) = T_(I + xi'(n-1))(X(n))."""
    d = increment.shape[-1]
    new = matcore.sym_product(kind, np.eye(d) + state.value, increment)
    return KestenState(value=new, step=state.step + 1)


def kesten_samples(p: ModelParams, kind, burn_in, thin, n_samples, rng, prime=False, n_chains=1):
    """Thinned draws from recursion paths started at the zero matrix.

    The zero start is represented by the first-step state X(1), so burn_in
    counts moves of the recursion after that point. With n_chains > 1 the
    moves run on a batch of independent chains and the collected rounds are
    pooled, which trades a shorter wall clock for the same marginal law.
    """
    for name, value in (("burn_in", burn_in), ("thin", thin), ("n_chains", n_chains)):
        if value < 1:
            raise DomainError(f"kesten_samples needs {name} >= 1, got {value}")
    p.require_sampling()
    d = p.dim
    step = kesten_prime_step if prime else kesten_step
    state = KestenState(value=matdist.sample_beta2(p, rng, size=n_chains), step=0)
    rounds = -(-n_samples // n_chains)
    out = np.empty((rounds * n_chains, d, d))
    collected = 0
    moves_until = burn_in
    while collected < n_samples:
        incs = matdist.sample_beta2(p, rng, size=n_chains)
        state = step(kind, state, incs)
        moves_until -= 1
        if moves_until == 0:
            out[collected : collected + n_chains] = state.value
            collected += n_chains
            moves_until = thin
    return out[:n_samples]


def dufresne_series(
    p: ModelParams,
    rng,
    size=None,
    kind=SplitKind.CHOLESKY,
    tail_tol=1e-10,
    max_terms=None,
    init="invwishart",
    return_counts=False,
):
    """Truncated limit of the running sum of the contracting walk.

    Terms are the closed-construction walk states, accumulated until the
    trace of the current term drops below tail_tol times the trace of the
    partial sum. Requires the contracting regime beta - alpha > (d-1)/2,
    0 < tail_tol < 1 and max_terms >= 1.
    """
    p.require_contracting()
    if not 0 < tail_tol < 1:
        raise DomainError(f"dufresne_series needs 0 < tail_tol < 1, got {tail_tol}")
    n = 1 if size is None else int(size)
    d = p.dim
    if max_terms is None:
        mu1 = digamma(p.alpha) - digamma(p.beta - (d - 1) / 2.0)
        max_terms = 10 * math.ceil(math.log(1.0 / tail_tol) / abs(mu1))
    if max_terms < 1:
        raise DomainError(f"dufresne_series needs max_terms >= 1, got {max_terms}")
    state0 = init_states(init, p, rng, n)
    v = matcore.split_factor(kind, state0)
    total = state0.copy()
    counts = np.full(n, 0)
    last_ratio = np.full(n, np.inf)
    active = np.arange(n)
    for term_idx in range(1, max_terms + 1):
        if active.size == 0:
            break
        v_act = matdist.sample_factor(Law.BETA2, p, rng, size=active.size, kind=kind) @ v[active]
        v[active] = v_act
        term = np.swapaxes(v_act, -1, -2) @ v_act
        total[active] += term
        term_trace = np.trace(term, axis1=-2, axis2=-1)
        sum_trace = np.trace(total[active], axis1=-2, axis2=-1)
        last_ratio[active] = term_trace / sum_trace
        done = term_trace < tail_tol * sum_trace
        counts[active[done]] = term_idx
        active = active[~done]
    if active.size > 0:
        raise TruncationFailure(
            f"{active.size} of {n} series unfinished after {max_terms} terms; "
            f"worst remaining trace ratio {np.max(last_ratio[active]):.3e} "
            f"vs tail_tol {tail_tol:.1e}"
        )
    total = matcore.symmetrize(total)
    result = total[0] if size is None else total
    if return_counts:
        return result, (counts[0] if size is None else counts)
    return result


@dataclass
class GrskState:
    """Positions of the three coupled particles at d=1."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not (self.x > 0 and self.y > 0 and self.z > 0):
            raise DomainError("all particles must be strictly positive")


def grsk_step(state: GrskState, a_inc, b_inc):
    """One two-row update with the given multiplicative increments."""
    if a_inc <= 0 or b_inc <= 0:
        raise DomainError("increments must be positive")
    x_new = state.x * b_inc
    y_new = (state.y + x_new) * a_inc
    z_new = state.z / state.x * (x_new * state.y) / (x_new + state.y)
    return GrskState(x=x_new, y=y_new, z=z_new)


def grsk_trajectory(initial: GrskState, a_incs, b_incs):
    """Arrays X(0..n), Y(0..n), Z(0..n) for paired increment sequences."""
    a_incs = np.asarray(a_incs, dtype=float)
    b_incs = np.asarray(b_incs, dtype=float)
    if a_incs.shape != b_incs.shape:
        raise DomainError("increment sequences must have equal length")
    n = len(a_incs)
    xs = np.empty(n + 1)
    ys = np.empty(n + 1)
    zs = np.empty(n + 1)
    state = initial
    xs[0], ys[0], zs[0] = state.x, state.y, state.z
    for k in range(n):
        state = grsk_step(state, a_incs[k], b_incs[k])
        xs[k + 1], ys[k + 1], zs[k + 1] = state.x, state.y, state.z
    return xs, ys, zs


def grsk_my_identity_check(initial: GrskState, a_incs, b_incs, n=None):
    """Max absolute gap between the ratio Z(k)/Y(k-1) and its walk form.

    The right side is built independently from the random walk
    R(k) = X(0)/Z(0) prod_{i<=k} b_i / a_{i-1} with a_0 = Y(0)/X(0),
    as R(k) divided by the product of two adjacent partial sums.
    """
    a_incs = np.asarray(a_incs, dtype=float)
    b_incs = np.asarray(b_incs, dtype=float)
    if n is None:
        n = len(a_incs)
    if n < 1 or n > len(a_incs) or len(a_incs) != len(b_incs):
        raise DomainError("need 1 <= n <= len(increments), sequences of equal length")
    _, ys, zs = grsk_trajectory(initial, a_incs[:n], b_incs[:n])
    a_shift = np.concatenate([[initial.y / initial.x], a_incs[: n - 1]])
    walk = initial.x / initial.z * np.concatenate([[1.0], np.cumprod(b_incs[:n] / a_shift)])
    sums = np.cumsum(walk)
    lhs = zs[1:] / ys[:-1]
    rhs = walk[1:] / (sums[:-1] * sums[1:])
    return float(np.max(np.abs(lhs - rhs)))


def grsk_product_identity_gap(initial: GrskState, a_incs, b_incs):
    """Relative gap of Y(n)Z(n) against Y(0)Z(0) times the increment product."""
    _, ys, zs = grsk_trajectory(initial, a_incs, b_incs)
    ref = initial.y * initial.z * np.prod(np.asarray(a_incs) * np.asarray(b_incs))
    return abs(ys[-1] * zs[-1] - ref) / ref
