"""Walk constructions, running-sum traces, Kesten recursions, two-row dynamics."""

import sys
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.special import digamma

from posdefwalks import matcore, matdist, verify, walks
from posdefwalks.errors import DomainError, NotPositiveDefinite, StepOverflow, TruncationFailure
from posdefwalks.matcore import SplitKind
from posdefwalks.matdist import make_stream
from posdefwalks.special import Law, ModelParams
from posdefwalks.walks import (
    Construction,
    GrskState,
    WalkConfig,
    dufresne_series,
    grsk_my_identity_check,
    grsk_product_identity_gap,
    grsk_step,
    grsk_trajectory,
    kesten_samples,
    simulate_walk,
    simulate_walks,
    trace_from_increments,
)

import oracles

P_FLOOR = 1e-3


def two_sample_ok(a, b):
    return stats.ks_2samp(a, b, method="asymp").pvalue > P_FLOOR


def rand_posdef(rng, d, eps=1e-3):
    g = rng.standard_normal((d, d))
    return g.T @ g + eps * np.eye(d)


# ------------------------------------------------------- one step of the walk


def test_walk_step_identity_state_returns_increment():
    rng = np.random.default_rng(10)
    x = rand_posdef(rng, 3)
    for kind in SplitKind:
        tr = trace_from_increments(kind, np.eye(3), [x])
        np.testing.assert_allclose(tr.r[1], x, rtol=1e-12)


def test_walk_step_identity_increment_returns_state():
    rng = np.random.default_rng(11)
    x = rand_posdef(rng, 3)
    for kind in SplitKind:
        tr = trace_from_increments(kind, x, [np.eye(3)])
        np.testing.assert_allclose(tr.r[1], x, rtol=1e-12)


def test_walk_step_scalar_is_plain_product():
    for kind in SplitKind:
        out = matcore.sym_product(kind, np.array([[2.5]]), np.array([[4.0]]))
        assert out[0, 0] == pytest.approx(10.0, rel=1e-14)


def test_two_steps_from_identity_square_root_form():
    rng = np.random.default_rng(12)
    x1 = rand_posdef(rng, 3)
    x2 = rand_posdef(rng, 3)
    s2 = trace_from_increments(SplitKind.SQUARE_ROOT, np.eye(3), [x1, x2]).r[2]
    # independent square root via an eigendecomposition
    w, v = np.linalg.eigh(x1)
    rt = (v * np.sqrt(w)) @ v.T
    np.testing.assert_allclose(s2, rt @ x2 @ rt, rtol=1e-10)


# ------------------------------------------------------ the closed construction


def walk_closed(kind, init, increments):
    """Last state of the closed walk on the given increments."""
    return trace_from_increments(kind, init, increments, Construction.CLOSED).r[..., -1, :, :]


def test_walk_closed_empty_is_init():
    rng = np.random.default_rng(13)
    m = rand_posdef(rng, 2)
    for kind in SplitKind:
        np.testing.assert_allclose(walk_closed(kind, m, []), m, rtol=1e-12)


def test_walk_closed_scalar_is_product():
    out = walk_closed(SplitKind.CHOLESKY, np.array([[2.0]]), [np.array([[3.0]]), np.array([[5.0]])])
    assert out[0, 0] == pytest.approx(30.0, rel=1e-14)


def test_walk_closed_cholesky_matches_iterated_steps():
    rng = np.random.default_rng(14)
    init = rand_posdef(rng, 3)
    incs = [rand_posdef(rng, 3) for _ in range(6)]
    state = trace_from_increments(SplitKind.CHOLESKY, init, incs).r[-1]
    closed = walk_closed(SplitKind.CHOLESKY, init, incs)
    np.testing.assert_allclose(closed, state, rtol=1e-10)


@pytest.mark.parametrize("construction", list(Construction), ids=lambda c: c.value)
def test_trace_from_increments_refuses_what_is_not_positive_definite(construction):
    # The closed walk used to split an increment as given: Cholesky reads only
    # the lower triangle, so this asymmetric one passed as the identity.
    asymmetric = np.array([[1.0, 5.0], [0.0, 1.0]])
    with pytest.raises(NotPositiveDefinite, match=r"^increment 1 is not positive definite"):
        trace_from_increments(SplitKind.CHOLESKY, np.eye(2), [asymmetric], construction)
    with pytest.raises(NotPositiveDefinite, match=r"^init is not positive definite"):
        trace_from_increments(SplitKind.CHOLESKY, np.diag([1.0, -1.0]), [np.eye(2)], construction)


@pytest.mark.parametrize("construction", list(Construction), ids=lambda c: c.value)
def test_trace_from_increments_names_the_failing_increment(construction):
    incs = [2.0 * np.eye(2), 3.0 * np.eye(2), -np.eye(2), np.eye(2)]
    with pytest.raises(NotPositiveDefinite, match=r"^increment 3 is not positive definite"):
        trace_from_increments(SplitKind.CHOLESKY, np.eye(2), incs, construction)
    ok, bad = np.stack([np.eye(2)] * 3), np.stack([np.eye(2), np.eye(2), -np.eye(2)])
    with pytest.raises(NotPositiveDefinite, match=r"^increment 2 is not positive definite at batch index 2$"):
        trace_from_increments(SplitKind.CHOLESKY, ok, [ok, bad], construction)


# ------------------------------------------------------------ walk traces


def test_simulate_walk_zero_steps():
    cfg = WalkConfig(params=ModelParams(2, 2.0, 4.0), steps=0)
    tr = simulate_walk(cfg, make_stream(100))
    assert tr.r.shape == (1, 2, 2)
    assert tr.a.shape == (1, 2, 2)
    assert tr.s.shape == (0, 2, 2)
    np.testing.assert_allclose(tr.a[0], tr.r[0], rtol=0)


def test_trace_hand_values_scalar():
    tr = trace_from_increments(
        SplitKind.CHOLESKY, np.array([[1.0]]), [np.array([[2.0]]), np.array([[3.0]])]
    )
    np.testing.assert_allclose(tr.r[:, 0, 0], [1.0, 2.0, 6.0], rtol=1e-14)
    np.testing.assert_allclose(tr.a[:, 0, 0], [1.0, 3.0, 9.0], rtol=1e-14)
    np.testing.assert_allclose(tr.s[:, 0, 0], [2.0 / 3.0, 2.0 / 9.0], rtol=1e-12)


def test_trace_invariants_on_simulated_walk():
    cfg = WalkConfig(params=ModelParams(2, 2.0, 5.0), steps=20, init="invwishart")
    tr = simulate_walk(cfg, make_stream(101))
    for k in range(1, 21):
        np.testing.assert_allclose(tr.a[k], tr.a[k - 1] + tr.r[k], rtol=0, atol=0)
        assert np.all(np.linalg.eigvalsh(tr.a[k] - tr.r[k]) > 0)
        a_prev_inv = np.linalg.inv(tr.a[k - 1])
        a_inv = np.linalg.inv(tr.a[k])
        recon = matcore.symmetrize(a_prev_inv @ tr.r[k] @ a_inv)
        np.testing.assert_allclose(tr.s[k - 1], recon, rtol=1e-8, atol=1e-12)


def test_simulate_walks_batch_shapes():
    cfg = WalkConfig(params=ModelParams(3, 2.0, 6.0), steps=4)
    tr = simulate_walks(cfg, make_stream(102), n_traces=7)
    assert tr.r.shape == (7, 5, 3, 3)
    assert tr.a.shape == (7, 5, 3, 3)
    assert tr.s.shape == (7, 4, 3, 3)


def test_ratio_entries_vanish_in_contracting_regime():
    # beta - alpha = 3.5 > (d-1)/2, so the walk states decay exponentially;
    # the closed construction keeps the deeply contracted states representable
    # (recursive validation rejects them once the eigen-spread passes the pivot
    # tolerance), and the difference-of-inverses floors out near rounding
    cfg = WalkConfig(
        params=ModelParams(2, 2.5, 6.0), steps=400, construction=Construction.CLOSED
    )
    tr = simulate_walk(cfg, make_stream(103))
    assert np.max(np.abs(tr.s[-1])) < 1e-10
    assert np.max(np.abs(tr.s[-1])) < 1e-6 * np.max(np.abs(tr.s[0]))


@pytest.mark.parametrize("construction", list(Construction), ids=lambda c: c.value)
def test_step_overflow_names_first_step_and_batch_index(construction, monkeypatch):
    # With ENTRY_MAX lowered to 1e20 the growing walk overflows at the first step
    # where a state of the same stream, run in full, has an entry above 1e20.
    cfg = WalkConfig(params=ModelParams(1, 6.0, 2.0), construction=construction, steps=60)
    over = simulate_walks(cfg, make_stream(104), 8).r[..., 0, 0] > 1e20
    step = int(np.argmax(over.any(axis=0)))
    index = int(np.argmax(over[:, step]))
    assert step >= 1
    monkeypatch.setattr(walks, "ENTRY_MAX", 1e20)
    with pytest.raises(StepOverflow, match=rf"at step {step}, batch index {index}$"):
        simulate_walks(cfg, make_stream(104), 8)


def test_recursive_walk_split_failure_names_step_and_batch_index():
    # Just inside (d-1)/2 a rounded beta II draw can fail the Cholesky pivot
    # test, and the state built from it fails its split at the next move.
    cfg = WalkConfig(ModelParams(2, 0.5625, 5.0), construction=Construction.RECURSIVE, steps=5)
    with pytest.raises(NotPositiveDefinite, match=r"not positive definite at step 2, batch index 5$"):
        simulate_walks(cfg, make_stream(1), 1000)


def test_trace_from_increments_overflow_names_step_and_batch_index():
    # 1e151 after one step, 1e302 > ENTRY_MAX (but finite) after two
    x = np.array([[[1.0]], [[1e151]], [[1e151]]])
    with pytest.raises(StepOverflow, match=r"at step 2, batch index 1$"):
        trace_from_increments(SplitKind.CHOLESKY, np.ones((3, 1, 1)), [x, x])
    with pytest.raises(StepOverflow, match=r"at step 2$"):
        trace_from_increments(SplitKind.CHOLESKY, np.ones((1, 1)), [x[1], x[1]])


@pytest.mark.parametrize("kind", list(SplitKind), ids=lambda k: k.value)
def test_overflow_to_inf_raises_step_overflow_without_a_warning(kind):
    # The product 1e300 * 1e300 overflows to inf inside the step; numpy's
    # warning used to come first and the filter below turned it into the error.
    x = 1e300 * np.eye(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepOverflow, match=r"at step 2$"):
            trace_from_increments(kind, np.eye(2), [x, x, x])
        with pytest.raises(StepOverflow, match=r"at step 2$"):
            walk_closed(kind, np.eye(2), [x, x, x])


@pytest.mark.parametrize("construction", list(Construction), ids=lambda c: c.value)
@pytest.mark.parametrize("kind", list(SplitKind), ids=lambda k: k.value)
def test_d2_step_overflow_names_step_and_batch_index_without_a_warning(kind, construction):
    # Entries near 1e200 after one step in batch element 1: the second step's
    # closed-form products reach 1e400 there; numpy's overflow warning must
    # not escape before the error.
    big = 1e200 * np.eye(2) + 1e199
    x = np.stack([np.eye(2), big, 2.0 * np.eye(2)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepOverflow, match=r"at step 2, batch index 1$"):
            trace_from_increments(kind, np.broadcast_to(np.eye(2), (3, 2, 2)), [x, x], construction)


def test_series_overflow_names_term_and_original_row_without_a_warning(monkeypatch):
    # The second term's factor of one unfinished series is scaled by 1e200,
    # so its Gram product overflows to inf. Rows finished at the first term
    # have left the carried arrays, and the error names the row's index in
    # the output, not in those arrays.
    p = ModelParams(2, 2.0, 5.0)
    _, counts = dufresne_series(p, make_stream(5), size=12, tail_tol=0.3, return_counts=True)
    alive = np.flatnonzero(counts >= 2)
    assert 0 < alive.size and alive[-1] != alive.size - 1
    draw, calls = matdist.sample_factor, []

    def scaled(*args, **kwargs):
        f = draw(*args, **kwargs)
        calls.append(None)
        if len(calls) == 2:
            f[alive.size - 1] *= 1e200
        return f

    monkeypatch.setattr(matdist, "sample_factor", scaled)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepOverflow, match=rf"at term 2, batch index {alive[-1]}$"):
            dufresne_series(p, make_stream(5), size=12, tail_tol=0.3)


def _eager_sums(r):
    """Running sums and ratios of the states r, computed as soon as the walk ends."""
    a = np.cumsum(r, axis=-3)
    a_inv = matcore.invert(a)
    return a, a_inv[..., :-1, :, :] - a_inv[..., 1:, :, :]


def test_construction_equivalence_makes_no_inverse_of_walk_sums(monkeypatch):
    # It reads the final states only, so the walks it simulates must not
    # build their running sums' inverses.
    calls = []
    invert = matcore.invert

    def counting_invert(x):
        calls.append(sys._getframe(1).f_globals["__name__"])
        return invert(x)

    monkeypatch.setattr(matcore, "invert", counting_invert)
    report = verify.run_check("construction_equivalence", 23, config=verify.REDUCED_CONFIG)
    assert report.n1 == verify.REDUCED_CONFIG["construction_equivalence"]["n_samples"]
    assert "posdefwalks.walks" not in calls


@pytest.mark.parametrize("construction", list(Construction))
@pytest.mark.parametrize("d", [1, 2, 3])
def test_walk_sums_read_later_are_the_eager_ones_bit_for_bit(d, construction):
    cfg = WalkConfig(params=ModelParams(d, d + 1.0, d + 4.0), construction=construction, steps=6)
    batch = simulate_walks(cfg, make_stream(104, d), n_traces=5)
    one = simulate_walk(cfg, make_stream(104, d))
    one_batch = simulate_walks(cfg, make_stream(104, d), n_traces=1)
    rng = np.random.default_rng(d)
    init = np.stack([rand_posdef(rng, d, eps=0.5) for _ in range(4)])
    incs = [np.stack([rand_posdef(rng, d, eps=0.5) for _ in range(4)]) for _ in range(5)]
    given = trace_from_increments(SplitKind.CHOLESKY, init, incs, construction)
    given_one = trace_from_increments(SplitKind.CHOLESKY, init[2], [x[2] for x in incs], construction)
    eager_one = [x[0] for x in _eager_sums(one_batch.r)]
    eager_given_one = [x[2] for x in _eager_sums(given.r)]
    for tr, (a, s) in (
        (batch, _eager_sums(batch.r)),
        (one, eager_one),
        (given, _eager_sums(given.r)),
        (given_one, eager_given_one),
    ):
        assert "a" not in vars(tr) and "s" not in vars(tr)
        for got, want in ((tr.s, s), (tr.a, a)):
            assert got.shape == want.shape
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        assert tr.s is tr.s and tr.a is tr.a  # built once


def test_trace_from_increments_batched_init_matches_single_traces():
    rng = np.random.default_rng(19)
    init = np.stack([rand_posdef(rng, 2, eps=0.5) for _ in range(3)])
    incs = [np.stack([rand_posdef(rng, 2, eps=0.5) for _ in range(3)]) for _ in range(4)]
    batched = trace_from_increments(SplitKind.CHOLESKY, init, incs)
    assert batched.r.shape == (3, 5, 2, 2)
    for i in range(3):
        single = trace_from_increments(SplitKind.CHOLESKY, init[i], [x[i] for x in incs])
        for got, want in zip((batched.r, batched.a, batched.s), (single.r, single.a, single.s)):
            np.testing.assert_array_equal(got[i], want)


def test_growth_regime_raises_step_overflow():
    cfg = WalkConfig(params=ModelParams(1, 6.0, 2.0), steps=2000)
    with pytest.raises(StepOverflow):
        simulate_walk(cfg, make_stream(104))


def test_log_det_additivity_both_constructions():
    # well-conditioned increments keep the round-off of the product state small
    rng = np.random.default_rng(15)
    init = rand_posdef(rng, 3, eps=0.5)
    incs = [rand_posdef(rng, 3, eps=0.5) for _ in range(6)]
    expected = np.linalg.slogdet(init)[1] + sum(np.linalg.slogdet(x)[1] for x in incs)
    for kind in SplitKind:
        tr = trace_from_increments(kind, init, incs)
        got_rec = np.linalg.slogdet(tr.r[-1])[1]
        assert got_rec == pytest.approx(expected, abs=1e-10)
        got_closed = np.linalg.slogdet(walk_closed(kind, init, incs))[1]
        assert got_closed == pytest.approx(expected, abs=1e-10)


def test_construction_equivalence_pairwise():
    variants = [
        (kind, cons)
        for kind in (SplitKind.CHOLESKY, SplitKind.SQUARE_ROOT)
        for cons in (Construction.RECURSIVE, Construction.CLOSED)
    ]
    for d, n in ((1, 1), (1, 5), (2, 1), (2, 5)):
        p = ModelParams(d, 2.0, 4.5)
        pulls = {}
        for i, (kind, cons) in enumerate(variants):
            cfg = WalkConfig(params=p, kind=kind, construction=cons, steps=n, init="identity")
            tr = simulate_walks(cfg, make_stream(200 + i, stream_id=10 * d + n), 4000)
            final = tr.r[:, -1]
            pulls[(kind, cons)] = (
                matcore.trace(final),
                matcore.logdet(final),
                matcore.eigenvalues(final)[:, 0],
            )
        keys = list(pulls)
        for i in range(len(keys)):
            for j in range(i + 1, len(keys)):
                for fa, fb in zip(pulls[keys[i]], pulls[keys[j]]):
                    assert two_sample_ok(fa, fb), (d, n, keys[i], keys[j])


def test_walk_kernel_congruence_invariance():
    # one step from a^T m a matches the congruence image of one step from m
    p = ModelParams(2, 2.0, 4.0)
    m = np.array([[2.0, 0.5], [0.5, 1.5]])
    a = np.array([[1.0, 0.3], [0.2, 1.5]])
    n = 4000
    for kind in SplitKind:
        rng1 = make_stream(300, stream_id=int(kind is SplitKind.CHOLESKY))
        rng2 = make_stream(301, stream_id=int(kind is SplitKind.CHOLESKY))
        x1 = matdist.sample_beta2(p, rng1, size=n)
        x2 = matdist.sample_beta2(p, rng2, size=n)
        direct = matcore.sym_product(kind, a.T @ m @ a, x1)
        mapped = a.T @ matcore.sym_product(kind, m, x2) @ a
        assert two_sample_ok(matcore.trace(direct), matcore.trace(mapped))
        assert two_sample_ok(matcore.logdet(direct), matcore.logdet(mapped))


# ---------------------------------------------------------------- Kesten


@pytest.mark.parametrize("prime", [False, True], ids=["xi", "xi_prime"])
@pytest.mark.parametrize("kind", list(SplitKind), ids=lambda k: k.value)
def test_kesten_samples_replay_one_move_bit_exact(kind, prime):
    # With burn_in = thin = 1 the chains start at X(1) and return the state after
    # one move: T_X(2)(I + X(1)), or T_(I + X(1))(X(2)) for the primed recursion.
    # The plain chain draws the factor w(X(2)) itself, not X(2).
    p = ModelParams(2, 2.0, 5.0)
    got = kesten_samples(p, kind, 1, 1, 4, make_stream(16), prime=prime, n_chains=4)
    rng = make_stream(16)
    x1 = matdist.sample_beta2(p, rng, size=4)
    if prime:
        want = matcore.sym_product(kind, np.eye(2) + x1, matdist.sample_beta2(p, rng, size=4))
    else:
        w2 = matdist.sample_factor(Law.BETA2, p, rng, size=4, kind=kind)
        want = matcore._sandwich(w2, np.eye(2) + x1)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("prime", [False, True], ids=["xi", "xi_prime"])
def test_kesten_blocks_capped_without_changing_bits(monkeypatch, prime):
    # thin above KESTEN_BLOCK_MAX: the blocks are capped, and the samples are
    # those of one-move blocks. The plain chain draws its blocks' factors, the
    # primed chain their Gram matrices.
    p = ModelParams(2, 2.0, 5.0)
    args = (p, SplitKind.CHOLESKY, 150, 70, 5)
    seen = []
    sampler = "sample_beta2" if prime else "sample_factor"
    draw = getattr(matdist, sampler)

    def recording(*a, **kw):
        seen.append(kw.get("blocks"))
        return draw(*a, **kw)

    monkeypatch.setattr(matdist, sampler, recording)
    got = kesten_samples(*args, make_stream(17), prime=prime, n_chains=2)
    assert max(b for b in seen if b is not None) == walks.KESTEN_BLOCK_MAX
    monkeypatch.setattr(walks, "KESTEN_BLOCK_MAX", 1)
    want = kesten_samples(*args, make_stream(17), prime=prime, n_chains=2)
    assert got.tobytes() == want.tobytes()


def test_kesten_chains_share_stationary_law():
    p = ModelParams(2, 2.5, 6.0)
    draws = {}
    for prime in (False, True):
        vals = kesten_samples(
            p,
            SplitKind.CHOLESKY,
            burn_in=300,
            thin=25,
            n_samples=3000,
            rng=make_stream(400, stream_id=int(prime)),
            prime=prime,
            n_chains=64,
        )
        draws[prime] = vals
        assert vals.shape == (3000, 2, 2)
        assert np.all(np.linalg.eigvalsh(vals) > 0)
    assert two_sample_ok(matcore.trace(draws[False]), matcore.trace(draws[True]))
    assert two_sample_ok(matcore.logdet(draws[False]), matcore.logdet(draws[True]))


@pytest.mark.parametrize(
    "bad",
    [{"burn_in": 0}, {"thin": 0}, {"n_chains": 0}, {"thin": -2}, {"n_samples": -1}],
    ids=["burn_in=0", "thin=0", "n_chains=0", "thin=-2", "n_samples=-1"],
)
def test_kesten_samples_rejects_counts_below_one(bad):
    # burn_in or thin of 0 used to loop forever, n_chains = 0 to divide by
    # zero, n_samples = -1 to fail in numpy after drawing.
    args = {"burn_in": 10, "thin": 1, "n_chains": 4, "n_samples": 8, **bad}
    with pytest.raises(DomainError, match=next(iter(bad))):
        kesten_samples(ModelParams(1, 2.5, 6.0), SplitKind.CHOLESKY, rng=make_stream(0), **args)


def test_kesten_samples_of_none_is_an_empty_stack():
    got = kesten_samples(ModelParams(2, 2.5, 6.0), SplitKind.CHOLESKY, 3, 2, 0, make_stream(0))
    assert got.shape == (0, 2, 2)


@pytest.mark.parametrize(
    "init, d", [(np.eye(3), 2), ([[2.0]], 2), (np.eye(2), 1)], ids=["3x3-d2", "1x1-d2", "2x2-d1"]
)
@pytest.mark.parametrize("run", ["simulate_walks", "dufresne_series"])
def test_fixed_init_of_wrong_shape_rejected(run, init, d):
    # Used to fail in numpy broadcasting or, for 1x1 at d=2, on a singular broadcast start.
    p = ModelParams(d, 2.0, 5.0)
    with pytest.raises(DomainError, match=rf"shape .* d={d}"):
        if run == "simulate_walks":
            simulate_walks(WalkConfig(params=p, steps=2, init=init), make_stream(0), 3)
        else:
            dufresne_series(p, make_stream(0), size=3, init=init)


@pytest.mark.parametrize("n_traces", [0, -1])
def test_simulate_walks_rejects_n_traces_below_one(n_traces):
    cfg = WalkConfig(params=ModelParams(2, 2.0, 5.0), steps=2)
    with pytest.raises(DomainError, match="n_traces"):
        simulate_walks(cfg, make_stream(0), n_traces)


# --------------------------------------------------------------- Dufresne


def test_dufresne_scalar_mean():
    # the truncated series targets an inverse-gamma law with mean 1/(beta-alpha-1)
    p = ModelParams(1, 2.0, 5.0)
    vals = dufresne_series(p, make_stream(500), size=100_000)[:, 0, 0]
    target = oracles.inv_gamma_mean(5.0 - 2.0)
    assert target == pytest.approx(0.5)
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - target) < 3 * se


def test_dufresne_term_count_tracks_decay_rate():
    p = ModelParams(1, 2.0, 6.0)
    _, counts = dufresne_series(
        p, make_stream(501), size=2000, tail_tol=1e-8, return_counts=True
    )
    predicted = np.log(1e8) / abs(digamma(2.0) - digamma(6.0))
    assert 0.5 * predicted < counts.mean() < 2.0 * predicted


def test_dufresne_partial_sums_increase():
    cfg = WalkConfig(params=ModelParams(2, 2.0, 5.0), steps=12, init="invwishart")
    tr = simulate_walk(cfg, make_stream(502))
    for k in range(1, 13):
        assert np.all(np.linalg.eigvalsh(tr.a[k] - tr.a[k - 1]) > 0)
    traces = matcore.trace(tr.a)
    assert np.all(np.diff(traces) > 0)


def test_dufresne_outside_regime_rejected():
    with pytest.raises(DomainError):
        dufresne_series(ModelParams(1, 5.0, 2.0), make_stream(503))
    with pytest.raises(DomainError):
        dufresne_series(ModelParams(2, 2.0, 2.4), make_stream(504))


def test_dufresne_truncation_failure_reports_ratio():
    p = ModelParams(1, 2.0, 5.0)
    with pytest.raises(TruncationFailure, match="trace ratio"):
        dufresne_series(p, make_stream(505), size=50, tail_tol=1e-10, max_terms=2)


@pytest.mark.parametrize(
    "bad",
    [
        {"tail_tol": 0.0},
        {"tail_tol": -1.0},
        {"tail_tol": 1.0},
        {"tail_tol": np.nan},
        {"max_terms": 0},
    ],
    ids=["tail_tol=0", "tail_tol=-1", "tail_tol=1", "tail_tol=nan", "max_terms=0"],
)
def test_dufresne_rejects_bad_truncation_settings(bad):
    # tail_tol 0 divided by zero, -1 hit a math domain error, and tail_tol 1 or
    # max_terms 0 reported a series "unfinished after 0 terms".
    with pytest.raises(DomainError, match=next(iter(bad))):
        dufresne_series(ModelParams(1, 2.0, 5.0), make_stream(0), size=4, **bad)


def test_dufresne_returns_posdef():
    p = ModelParams(2, 2.0, 5.0)
    out = dufresne_series(p, make_stream(506), size=40)
    assert out.shape == (40, 2, 2)
    assert np.all(np.linalg.eigvalsh(out) > 0)


# ------------------------------------------------------------- two-row map


def test_grsk_hand_step():
    out = grsk_step(GrskState(1.0, 1.0, 1.0), a_inc=2.0, b_inc=3.0)
    assert (out.x, out.y, out.z) == pytest.approx((3.0, 8.0, 0.75), rel=1e-14)
    assert oracles.grsk_hand_step(1.0, 1.0, 1.0, 2.0, 3.0) == pytest.approx(
        (out.x, out.y, out.z), rel=1e-14
    )


def test_grsk_identity_increments():
    out = grsk_step(GrskState(1.0, 1.0, 1.0), a_inc=1.0, b_inc=1.0)
    assert (out.x, out.y, out.z) == pytest.approx((1.0, 2.0, 0.5), rel=1e-14)


def test_grsk_rejects_nonpositive():
    with pytest.raises(DomainError):
        GrskState(1.0, -1.0, 1.0)
    with pytest.raises(DomainError):
        grsk_step(GrskState(1.0, 1.0, 1.0), a_inc=0.0, b_inc=1.0)


def test_grsk_matches_stepwise_oracle():
    rng = np.random.default_rng(17)
    state = GrskState(0.8, 1.3, 2.1)
    ox, oy, oz = state.x, state.y, state.z
    for _ in range(25):
        a_inc, b_inc = rng.uniform(0.5, 2.0, size=2)
        state = grsk_step(state, a_inc, b_inc)
        ox, oy, oz = oracles.grsk_hand_step(ox, oy, oz, a_inc, b_inc)
        assert (state.x, state.y, state.z) == pytest.approx((ox, oy, oz), rel=1e-12)


def test_grsk_product_identity():
    rng = np.random.default_rng(18)
    a_incs = rng.uniform(0.5, 2.0, size=30)
    b_incs = rng.uniform(0.5, 2.0, size=30)
    gap = grsk_product_identity_gap(GrskState(1.2, 0.7, 1.9), a_incs, b_incs)
    assert gap < 1e-12


def test_grsk_trajectory_shapes():
    xs, ys, zs = grsk_trajectory(GrskState(1.0, 1.0, 1.0), [2.0, 1.0], [3.0, 1.0])
    assert xs.shape == ys.shape == zs.shape == (3,)
    assert (xs[1], ys[1], zs[1]) == pytest.approx((3.0, 8.0, 0.75), rel=1e-14)


def test_grsk_ratio_identity_single_step():
    gap = grsk_my_identity_check(GrskState(1.0, 1.0, 1.0), [2.0], [3.0], n=1)
    assert gap < 1e-12


def test_grsk_ratio_identity_random_increments():
    rng = np.random.default_rng(19)
    a_incs = rng.uniform(0.5, 2.0, size=50)
    b_incs = rng.uniform(0.5, 2.0, size=50)
    gap = grsk_my_identity_check(GrskState(0.9, 1.4, 0.6), a_incs, b_incs, n=50)
    assert gap < 1e-9


def test_grsk_ratio_identity_degenerate_increments():
    ones = np.ones(10)
    gap = grsk_my_identity_check(GrskState(1.0, 1.0, 1.0), ones, ones, n=10)
    assert gap < 1e-12
