"""Random walk constructions on the cone, their running sums and functionals.

The walk state R(n) moves by the symmetrised product with an independent
beta II increment X(n). The recursive construction conjugates X(n) by the
current state; the closed one, whose states the Dufresne series sums,
accumulates the factors w(X(n))...w(X(1)) drawn by matdist.sample_factor;
at the Cholesky split its inverse Wishart start is drawn as a factor too.
They are equal in law for every split kind, and for the Cholesky split they
coincide path by path. Every walk's states come from one of two private
builders, _recursive_states (repeated symmetrised products) and
_closed_states (Gram matrices of the accumulated factors), which check each
step for overflow. simulate_walks draws the increments; trace_from_increments
takes them given, validates them and runs either construction on them. Both
return a WalkTrace that holds the states only: its running sums and their
inverse differences are built on first read, so a caller that reads the
states alone makes no sum and no inverse.
kesten_samples and dufresne_series keep their own loops. kesten_samples
draws its increments a block of moves at a time (matdist's ``blocks``): the
plain chain draws their factors w(X(n)) (matdist.sample_factor), leaving one
symmetrised product per move, and the primed chain draws X(n) and splits its
state-dependent I + xi' per move. dufresne_series draws per term, since its
set of unfinished series follows the state; it carries only the unfinished
rows (their factor products, partial sums, last trace ratios and original
indices) and writes a row's sum out once, when the row finishes.
"""

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import matcore, matdist
from .errors import DomainError, NotPositiveDefinite, StepOverflow, TruncationFailure
from .matcore import SplitKind
from .special import Law, ModelParams, digamma

ENTRY_MAX = 1e300
# Most Kesten moves drawn per block, so a block holds at most 64 x n_chains increments.
KESTEN_BLOCK_MAX = 64


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
    a[k-1]^-1 - a[k]^-1, which reconstructs a[k-1]^-1 r[k] a[k]^-1. Only r
    is stored; a and s are computed from it on first read and kept, so a
    caller that reads the states alone pays for no sum or inverse.
    """

    r: np.ndarray

    @functools.cached_property
    def a(self):
        return np.cumsum(self.r, axis=-3)

    @functools.cached_property
    def s(self):
        a_inv = matcore.invert(self.a)
        return a_inv[..., :-1, :, :] - a_inv[..., 1:, :, :]


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


def _start(init, kind, p: ModelParams, rng, n):
    """init_states' n start states and their split factors w(state).

    At the Cholesky split the inverse Wishart start is drawn as its factor
    (matdist.sample_factor's, on init_states' stream), so it is not split
    again.
    """
    if isinstance(init, str) and init == "invwishart" and SplitKind(kind) is SplitKind.CHOLESKY:
        return matdist._factor_and_gram(Law.INV_WISHART, p, rng, n)
    state = init_states(init, p, rng, n)
    return state, matcore.split_factor(kind, state)


def _check_overflow(m, step):
    """Raise StepOverflow naming the step and first bad batch index unless |m| <= ENTRY_MAX."""
    if np.max(np.abs(m)) <= ENTRY_MAX:  # a NaN fails the comparison too
        return
    where = f"at step {step}"
    if m.ndim > 2:
        first = np.argwhere(~np.all(np.abs(m) <= ENTRY_MAX, axis=(-2, -1)))[0]
        where += f", batch index {','.join(map(str, first))}"
    raise StepOverflow(f"walk state left the representable range {where}")


def _states(state, n):
    """Empty states array (..., n+1, d, d) with the start state in place."""
    state = np.asarray(state, dtype=float)
    r = np.empty(state.shape[:-2] + (n + 1,) + state.shape[-2:])
    r[..., 0, :, :] = state
    return r


def _recursive_states(kind, state, increments, n):
    """States R(0..n) of the recursive walk from state, R(k) = w(R(k-1))^T X(k) w(R(k-1)).

    A state that fails its split raises NotPositiveDefinite naming the step
    whose move failed and the first failing batch index.
    """
    r = _states(state, n)
    for k, x in enumerate(increments, start=1):
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # _check_overflow reports it
                state = matcore.sym_product(kind, state, x)
        except NotPositiveDefinite as exc:
            msg, _, index = str(exc).partition(" at batch index ")
            where = f" at step {k}" + (f", batch index {index}" if index else "")
            raise NotPositiveDefinite(msg + where) from None
        r[..., k, :, :] = state
        _check_overflow(state, k)
    return r


def _closed_states(state, v, factors, n):
    """States of the closed walk from state = v^T v: Gram matrices of w(X(k))...w(X(1)) v."""
    r = _states(state, n)
    for k, f in enumerate(factors, start=1):
        with np.errstate(over="ignore", invalid="ignore"):  # _check_overflow reports it
            v = matcore._product(f, v)
            r[..., k, :, :] = state = matcore._gram(v)
        _check_overflow(state, k)
    return r


def simulate_walks(cfg: WalkConfig, rng, n_traces):
    """Simulate a batch of walks with independent increments per trace.

    Returns a WalkTrace whose arrays have shape (n_traces, steps+1, d, d)
    for r and a, and (n_traces, steps, d, d) for s.
    """
    if n_traces < 1:
        raise DomainError(f"simulate_walks needs n_traces >= 1, got {n_traces}")
    p, kind, n = cfg.params, cfg.kind, cfg.steps
    if cfg.construction is Construction.CLOSED:
        state, v = _start(cfg.init, kind, p, rng, n_traces)
        factors = (
            matdist.sample_factor(Law.BETA2, p, rng, size=n_traces, kind=kind) for _ in range(n)
        )
        return WalkTrace(_closed_states(state, v, factors, n))
    state = init_states(cfg.init, p, rng, n_traces)
    increments = (matdist.sample_beta2(p, rng, size=n_traces) for _ in range(n))
    return WalkTrace(_recursive_states(kind, state, increments, n))


def simulate_walk(cfg: WalkConfig, rng):
    """Single-trace convenience wrapper around simulate_walks."""
    return WalkTrace(simulate_walks(cfg, rng, 1).r[0])


def trace_from_increments(kind, init, increments, construction=Construction.RECURSIVE):
    """WalkTrace of the walk driven by an explicit increment sequence, by either construction.

    init is one (d, d) start or a batch (..., d, d); each increment is one
    (d, d) matrix or a batch of init's shape. init and every increment are
    validated as positive definite, and a failure names its position
    (``increment k``, counting from 1). The closed construction accumulates
    the split factors of the validated increments.
    """
    init = matcore.posdef(init, name="init")
    xs = (matcore.posdef(x, name=f"increment {k}") for k, x in enumerate(increments, start=1))
    if Construction(construction) is Construction.CLOSED:
        factors = (matcore.split_factor(kind, x) for x in xs)
        v = matcore.split_factor(kind, init)
        return WalkTrace(_closed_states(init, v, factors, len(increments)))
    return WalkTrace(_recursive_states(kind, init, xs, len(increments)))


def kesten_samples(p: ModelParams, kind, burn_in, thin, n_samples, rng, prime=False, n_chains=1):
    """Thinned draws from recursion paths started at the zero matrix.

    The zero start is represented by the first-step state X(1), so burn_in
    counts moves of the recursion after that point. With n_chains > 1 the
    moves run on a batch of independent chains and the collected rounds are
    pooled, which trades a shorter wall clock for the same marginal law.
    The increments do not depend on the chain, so they are drawn a block of
    at most min(thin, KESTEN_BLOCK_MAX) moves at a time, in move order; the
    bits do not depend on the block size.
    """
    for name, value, least in (
        ("burn_in", burn_in, 1), ("thin", thin, 1), ("n_chains", n_chains, 1), ("n_samples", n_samples, 0)
    ):
        if value < least:
            raise DomainError(f"kesten_samples needs {name} >= {least}, got {value}")
    p.require_sampling()
    d = p.dim
    eye = np.eye(d)
    xi = matdist.sample_beta2(p, rng, size=n_chains)
    rounds = -(-n_samples // n_chains)
    out = np.empty((rounds, n_chains, d, d))
    moves = burn_in
    for r in range(rounds):
        while moves > 0:
            m = min(moves, thin, KESTEN_BLOCK_MAX)
            # xi(n) = T_X(n)(I + xi(n-1)); the primed chain is xi'(n) = T_(I + xi'(n-1))(X(n)).
            if prime:
                for x_n in matdist.sample_beta2(p, rng, size=n_chains, blocks=m):
                    xi = matcore.sym_product(kind, eye + xi, x_n)
            else:
                for w_n in matdist.sample_factor(Law.BETA2, p, rng, size=n_chains, kind=kind, blocks=m):
                    xi = matcore._sandwich(w_n, eye + xi)
            moves -= m
        out[r] = xi
        moves = thin
    return out.reshape(-1, d, d)[:n_samples]


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

    Each term draws one factor per unfinished series, in row order, and the
    arrays carried to the next term hold the unfinished rows only: when rows
    finish, their sums go to the output and the carried arrays shrink. So the
    work per term follows the number of unfinished series, and the draws do
    not depend on how the rows are stored. A partial sum that is not finite
    raises StepOverflow naming the term and the series' index in the output.
    """
    p.require_contracting()
    if not 0 < tail_tol < 1:
        raise DomainError(f"dufresne_series needs 0 < tail_tol < 1, got {tail_tol}")
    n = 1 if size is None else int(size)
    d = p.dim
    if max_terms is None:
        psi = digamma([p.alpha, p.beta - (d - 1) / 2.0])  # one call, elementwise
        mu1 = float(psi[0] - psi[1])
        max_terms = 10 * math.ceil(math.log(1.0 / tail_tol) / abs(mu1))
    if max_terms < 1:
        raise DomainError(f"dufresne_series needs max_terms >= 1, got {max_terms}")
    state0, v = _start(init, kind, p, rng, n)
    total = np.empty_like(state0)
    counts = np.full(n, 0)
    # Carried for the unfinished rows only: their original indices, factor
    # products, partial sums and last trace ratios.
    rows = np.arange(n)
    partial = state0.copy()
    for term_idx in range(1, max_terms + 1):
        if rows.size == 0:
            break
        with np.errstate(over="ignore", invalid="ignore"):  # a sum that left the range is reported below
            v = matcore._product(matdist.sample_factor(Law.BETA2, p, rng, size=rows.size, kind=kind), v)
            term = matcore._gram(v)
            partial += term
            term_trace = matcore.trace(term)
            sum_trace = matcore.trace(partial)
            ratio = term_trace / sum_trace
        if not np.all(sum_trace < np.inf):  # a NaN fails too
            first = rows[np.argmin(sum_trace < np.inf)]
            raise StepOverflow(
                f"series partial sum left the representable range at term {term_idx}, batch index {first}"
            )
        done = term_trace < tail_tol * sum_trace
        if done.any():
            # Gathers by index; a boolean mask costs several times more per row.
            finished, left = np.flatnonzero(done), np.flatnonzero(~done)
            total[rows[finished]] = partial.take(finished, axis=0)
            counts[rows[finished]] = term_idx
            rows, ratio = rows.take(left), ratio.take(left)
            v, partial = v.take(left, axis=0), partial.take(left, axis=0)
    if rows.size > 0:
        raise TruncationFailure(
            f"{rows.size} of {n} series unfinished after {max_terms} terms; "
            f"worst remaining trace ratio {np.max(ratio):.3e} "
            f"vs tail_tol {tail_tol:.1e}"
        )
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
