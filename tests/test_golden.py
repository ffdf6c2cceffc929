"""Golden SHA-256 digests of the walk layer's outputs, the d=1 quadrature engine's and CLI runs.

Each case below hashes the raw bytes (shape, dtype and values) of what one
library call returns, or the stdout of one CLI run. A refactor that moves a
single draw or changes one rounding step changes a digest; running the same
code twice in one process cannot catch that. When an output is meant to
change, say which and why, and print the new table with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import hashlib
import io
import os
import tempfile
from unittest import mock

import numpy as np
import pytest

from posdefwalks import lyapunov, matcore, special, verify, walks
from posdefwalks.cli import SEED_ENV, main
from posdefwalks.errors import TruncationFailure
from posdefwalks.matcore import SplitKind
from posdefwalks.matdist import make_stream, sample_beta2, sample_factor
from posdefwalks.special import Law, ModelParams
from posdefwalks.walks import Construction, WalkConfig

import oracles


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.shape}{a.dtype.str}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _fixed(d):
    return np.eye(d) + 0.25 * np.ones((d, d))


def _walks(cons, kind, init, d):
    init = _fixed(d) if init == "fixed" else init
    cfg = WalkConfig(ModelParams(d, 2.0, 5.0), kind=kind, construction=cons, steps=4, init=init)
    tr = walks.simulate_walks(cfg, make_stream(10, 100 * d), 3)
    return _digest(tr.r, tr.a, tr.s)


def _increments():
    return list(sample_beta2(ModelParams(2, 2.0, 5.0), make_stream(11), size=5))


def _trace(kind):
    tr = walks.trace_from_increments(kind, _fixed(2), _increments())
    return _digest(tr.r, tr.a, tr.s)


def _closed(kind):
    return _digest(walks.trace_from_increments(kind, _fixed(2), _increments(), Construction.CLOSED).r[-1])


def _dufresne(kind, d, init):
    init = _fixed(d) if init == "fixed" else init
    out, counts = walks.dufresne_series(
        ModelParams(d, 2.0, 5.0), make_stream(12, d), size=6, kind=kind, tail_tol=1e-6,
        init=init, return_counts=True,
    )
    return _digest(out, counts)


def _dufresne_ragged(kind, d):
    # 300 series at tail_tol 1e-8 finish across many terms, so the set of
    # unfinished rows shrinks many times before the last one ends.
    out, counts = walks.dufresne_series(
        ModelParams(d, 2.0, 5.0), make_stream(21, d), size=300, kind=kind, tail_tol=1e-8,
        return_counts=True,
    )
    return _digest(out, counts)


def _truncation(kind):
    # 13 of the 40 series are unfinished after 3 terms; the message counts them
    # and gives the worst trace ratio among them.
    with pytest.raises(TruncationFailure) as info:
        walks.dufresne_series(
            ModelParams(2, 2.0, 5.0), make_stream(22), size=40, kind=kind, tail_tol=0.05,
            max_terms=3,
        )
    return hashlib.sha256(str(info.value).encode()).hexdigest()


def _eigen(law, kind):
    rep = lyapunov.empirical_mu_eigen(law, ModelParams(2, 2.0, 5.0), kind, 40, 5, make_stream(13))
    return _digest(rep.mu_hat, rep.std_err)


def _cholesky(law):
    rep = lyapunov.empirical_mu_cholesky(law, ModelParams(2, 2.0, 5.0), 30, 3, make_stream(14))
    return _digest(rep.mu_hat, rep.std_err)


def _kesten(kind, prime):
    out = walks.kesten_samples(
        ModelParams(2, 2.0, 5.0), kind, 5, 2, 10, make_stream(15), prime=prime, n_chains=4
    )
    return _digest(out)


def _kesten_ragged(kind, prime, d):
    # burn_in % thin != 0 and n_samples % n_chains != 0: the burn-in ends inside
    # a thinning period and the last round is cut.
    out = walks.kesten_samples(
        ModelParams(d, 2.0, 5.0), kind, 7, 3, 10, make_stream(17, d), prime=prime, n_chains=4
    )
    return _digest(out)


def _eigen_d3(law, kind):
    rep = lyapunov.empirical_mu_eigen(law, ModelParams(3, 2.0, 5.0), kind, 40, 5, make_stream(18))
    return _digest(rep.mu_hat, rep.std_err)


def _conditioned(d, n=64):
    """n positive definite d x d matrices, condition numbers 1 to 1e12 and scales 1e-6 to 1e6.

    PIVOT_RTOL is 1e-13, so the worst of them is near the Cholesky pivot bound.
    """
    rng = make_stream(19, d)
    scale = 10.0 ** rng.uniform(-6.0, 6.0, n)
    if d == 1:
        return scale[:, None, None]
    theta = rng.uniform(0.0, np.pi, n)
    c, s = np.cos(theta), np.sin(theta)
    q = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    lam = np.stack([np.ones(n), np.logspace(0.0, -12.0, n)], -1)
    return matcore.symmetrize((q * (scale[:, None] * lam)[:, None, :]) @ np.swapaxes(q, -1, -2))


def _kernel(fn, d):
    return _digest(fn(_conditioned(d)))


def _factor(law, d, alpha, beta):
    # Parameters just above (d-1)/2 give gamma shapes near 0 and badly conditioned factors.
    u = sample_factor(law, ModelParams(d, alpha, beta), make_stream(20, d), size=64, blocks=3)
    return _digest(u)


def _intertwining(s_grid):
    rep = verify.check_intertwining_d1(ModelParams(1, 2.0, 5.0), s_grid=s_grid)
    return hashlib.sha256(rep.to_json().encode()).hexdigest()


def _phi(alpha, beta):
    return _digest(special.phi_d1(ModelParams(1, alpha, beta), np.array(oracles.PHI_S)))


# The d=1 CDF oracles, read at fixed probes.
_CDF_PROBES = np.geomspace(0.02, 40.0, 17)


def _cdf(cdf):
    return _digest(np.array([cdf.total_mass]), cdf(_CDF_PROBES))


def _stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(argv)) == 0
    return buf.getvalue()


def _cli(*argv):
    return hashlib.sha256(_stdout(argv).encode()).hexdigest()


def _cli_config(text, *argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w") as fh:
            fh.write(text)
        return _cli(*argv, "--config", path)


def _cli_env_seed(seed, *argv):
    with mock.patch.dict(os.environ, {SEED_ENV: seed}):
        return _cli(*argv)


def _verify_meta(*argv):
    # The meta line echoes FULL_CONFIG; the check runs at its reduced size.
    reduced = {n: verify.REDUCED_CONFIG.get(n, c) for n, c in verify.FULL_CONFIG.items()}
    with mock.patch.object(verify, "FULL_CONFIG", reduced):
        meta = _stdout(argv).splitlines()[0]
    return hashlib.sha256(meta.encode()).hexdigest()


_WALK = ("walk", "--d", "2", "--alpha", "2", "--beta", "5", "--seed", "3")

CASES = {}
for _cons in Construction:
    for _kind in SplitKind:
        for _init in ("identity", "invwishart", "fixed"):
            for _d in (1, 2, 3):
                CASES[f"walks-{_cons.value}-{_kind.value}-{_init}-d{_d}"] = (
                    _walks, _cons, _kind, _init, _d,
                )
for _kind in SplitKind:
    CASES[f"trace-{_kind.value}"] = (_trace, _kind)
    CASES[f"closed-{_kind.value}"] = (_closed, _kind)
    for _d in (1, 2):
        CASES[f"dufresne-{_kind.value}-d{_d}"] = (_dufresne, _kind, _d, "invwishart")
    CASES[f"dufresne-{_kind.value}-identity"] = (_dufresne, _kind, 2, "identity")
    CASES[f"dufresne-{_kind.value}-fixed"] = (_dufresne, _kind, 2, "fixed")
    for _d in (1, 2, 3):
        CASES[f"dufresne-ragged-{_kind.value}-d{_d}"] = (_dufresne_ragged, _kind, _d)
    CASES[f"dufresne-truncation-{_kind.value}"] = (_truncation, _kind)
    for _law in (Law.WISHART, Law.INV_WISHART, Law.BETA2):
        CASES[f"eigen-{_law.value}-{_kind.value}"] = (_eigen, _law, _kind)
    for _prime in (False, True):
        CASES[f"kesten-{_kind.value}-prime{int(_prime)}"] = (_kesten, _kind, _prime)
        for _d in (1, 3):
            CASES[f"kesten-ragged-{_kind.value}-prime{int(_prime)}-d{_d}"] = (
                _kesten_ragged, _kind, _prime, _d,
            )
for _law in (Law.WISHART, Law.INV_WISHART, Law.BETA2):
    CASES[f"eigen-d3-{_law.value}-sqrt"] = (_eigen_d3, _law, SplitKind.SQUARE_ROOT)
for _law in (Law.WISHART, Law.INV_WISHART, Law.BETA2):
    CASES[f"cholesky-{_law.value}"] = (_cholesky, _law)
for _d in (1, 2):
    CASES[f"kernel-cholesky-d{_d}"] = (_kernel, matcore.cholesky, _d)
    CASES[f"kernel-invert-d{_d}"] = (_kernel, matcore.invert, _d)
    for _law in (Law.INV_WISHART, Law.BETA2):
        CASES[f"kernel-factor-{_law.value}-d{_d}"] = (_factor, _law, _d, 2.0, 5.0)
        _edge = (_d - 1) / 2 + 0.05
        CASES[f"kernel-factor-{_law.value}-edge-d{_d}"] = (_factor, _law, _d, _edge, _edge)
for _init in ("invwishart", "identity", "fixed:2"):
    CASES[f"cli-walk-steps-{_init}"] = (_cli, *_WALK, "--steps", "3", "--init", _init)
    CASES[f"cli-walk-increments-{_init}"] = (_cli, *_WALK, "--increments", "2,3", "--init", _init)
CASES["cli-dufresne"] = (
    _cli, "dufresne", "--d", "2", "--alpha", "2", "--beta", "5", "--n", "5", "--tail-tol", "1e-6",
    "--seed", "4",
)
CASES["cli-lyapunov-sqrt"] = (
    _cli, "lyapunov", "--d", "2", "--alpha", "2", "--beta", "5", "--steps", "40",
    "--replicas", "5", "--kind", "sqrt", "--seed", "5",
)
CASES["cli-sample-full"] = (
    _cli, "sample", "--dist", "beta2", "--d", "3", "--alpha", "4", "--beta", "8", "--n", "6",
    "--full", "--seed", "8",
)
CASES["cli-sample-json"] = (
    _cli, "sample", "--d", "2", "--alpha", "3", "--n", "4", "--format", "json", "--seed", "2",
)
CASES["cli-lyapunov-cholesky-csv"] = (
    _cli, "lyapunov", "--dist", "wishart", "--d", "3", "--alpha", "3", "--steps", "30",
    "--replicas", "4", "--method", "cholesky", "--format", "csv", "--seed", "6",
)
CASES["cli-config-sample"] = (
    _cli_config, "# run\ndist=beta2\nd=2\nalpha=2.5\nbeta=6\nn=5\nseed=5\nfull=yes\n", "sample",
)
CASES["cli-config-walk-steps"] = (
    _cli_config, "d=2\nalpha=2\nbeta=5\nsteps=3\ninit=identity\nkind=sqrt\nseed=3\n", "walk",
)
CASES["cli-config-dufresne"] = (
    _cli_config, "d=2\nalpha=2\nbeta=5\nn=3\ntail_tol=1e-6\nmax-terms=900\nseed=4\n", "dufresne",
)
CASES["cli-env-seed"] = (_cli_env_seed, "17", "sample", "--d", "2", "--alpha", "3", "--n", "3")
CASES["cli-verify-lukacs-meta"] = (_verify_meta, "verify", "lukacs", "--seed", "1")
# The d=1 quadrature engine: the intertwining report at one and at five start
# points, phi where tests/oracles.py freezes it, and the eta and qbar CDFs.
CASES["intertwining-d1-s1"] = (_intertwining, (1.0,))
CASES["intertwining-d1-full"] = (_intertwining, verify.FULL_CONFIG["intertwining_d1"]["s_grid"])
for _a, _b in ((2.0, 5.0), (3.0, 4.0), (0.6, 0.55)):
    CASES[f"phi-d1-{_a}-{_b}"] = (_phi, _a, _b)
CASES["eta-cdf-2-5"] = (lambda: _cdf(verify._eta_cdf(2.0, 5.0)),)
CASES["qbar-cdf-2-5-1.05"] = (lambda: _cdf(verify._qbar_cdf(2.0, 5.0, 1.05)),)


def _compute(name):
    fn, *args = CASES[name]
    return fn(*args)


GOLDEN = {
    'walks-recursive-sqrt-identity-d1': 'e80b5925fc0985a90e1abbf715fdbe1488db3bd455fb647fbc8fb6e021c828fd',
    'walks-recursive-sqrt-identity-d2': '67666ba695bf3348e38100d658dcb90528b0d1b739b9c89cad60e02a6991c0c9',
    'walks-recursive-sqrt-identity-d3': '2555595dbde6d1cdfb04d8ea381f0c95c05a84f19b20380f84796b3332f35fa2',
    'walks-recursive-sqrt-invwishart-d1': '42cad3ec35286451d88f54f002bbc7ce5ea6d9f0e74ed504ecff19811c1d72d1',
    'walks-recursive-sqrt-invwishart-d2': 'da5fa6884691588de1689c4a67849936ca1a6bcc8519cd0e58b3dcc05710b39e',
    'walks-recursive-sqrt-invwishart-d3': 'e69fc317a550e68c7f84a7bda510fefa96e7d018005d3306c4a6029fec829da5',
    'walks-recursive-sqrt-fixed-d1': '837db29c5ca13f2e17ddad0be0c4fcceda0f233987b5d1d3317026603ee8aabe',
    'walks-recursive-sqrt-fixed-d2': '17308e127d8462bf8aaa2e18fe7da1c28eabc283640339217fc6a7c302c805f5',
    'walks-recursive-sqrt-fixed-d3': '6e04d23796205d88028c8942da469ee47f508a5c502c2c8c25575156a5faf351',
    'walks-recursive-cholesky-identity-d1': 'e80b5925fc0985a90e1abbf715fdbe1488db3bd455fb647fbc8fb6e021c828fd',
    'walks-recursive-cholesky-identity-d2': '76b5367c074c21bf3002c23220a8bb1d690145226e55a67b573ef5675d4f5c8f',
    'walks-recursive-cholesky-identity-d3': '18daef30e3abe31908d83a268591ff08bfd43270ed702a709ef47c8afbad2846',
    'walks-recursive-cholesky-invwishart-d1': '42cad3ec35286451d88f54f002bbc7ce5ea6d9f0e74ed504ecff19811c1d72d1',
    'walks-recursive-cholesky-invwishart-d2': 'f0460a6f3ad969f14161c64d5847141396289251e5ee7ee1faa6d88c534feea2',
    'walks-recursive-cholesky-invwishart-d3': '8ce5968ac3920899b2b61a414754aeac35cc77ed19b80e9bc55964169616b7ba',
    'walks-recursive-cholesky-fixed-d1': '837db29c5ca13f2e17ddad0be0c4fcceda0f233987b5d1d3317026603ee8aabe',
    'walks-recursive-cholesky-fixed-d2': '0d8f4919f8505cb943762cd282ff0a8c73acd0896d6a4ab8d53ba49e401998dd',
    'walks-recursive-cholesky-fixed-d3': 'c13a640bff2d5ddb3e2ce639bdbbc9aac1e593f25b2e01a37193c1b378022897',
    'walks-closed-sqrt-identity-d1': 'e022350761f3a5921e54532bf02943e71e4d9f3ef0ac8c000774da7f2cf464d0',
    'walks-closed-sqrt-identity-d2': '7aef5ee6a59acf0e50f6acb10aee1b8a3bdc250a974889614b435cf197aeabb5',
    'walks-closed-sqrt-identity-d3': 'a30f641c0b22f1ea62aa087f1758e52a775a77ffe3d13e36b27b839ca9a5f0cf',
    'walks-closed-sqrt-invwishart-d1': 'c4fdab1b4ff90ae5954719a4e89303c87e0959e3134853a612bcf42b698a30c1',
    'walks-closed-sqrt-invwishart-d2': '81ff371330912631ab7ab7ceb7f479f0391d53702edcebb8b866d1c5be223202',
    'walks-closed-sqrt-invwishart-d3': '5540ba389ee52da62b7e90ece872ca79cfb4317d5cc9a548047d05eabd6c7d76',
    'walks-closed-sqrt-fixed-d1': '100a8f9ddf87697e2c909942f2cffd52804bb2311dce0fea41a11935342395ba',
    'walks-closed-sqrt-fixed-d2': 'bfad47245106375104afa578034fd45d0c8af0b366bd09f55cb2bcc188d1d9d8',
    'walks-closed-sqrt-fixed-d3': '51dac51667877ae62b2a96b1a476390c78e45170b9950852710da101dcc92309',
    'walks-closed-cholesky-identity-d1': 'e022350761f3a5921e54532bf02943e71e4d9f3ef0ac8c000774da7f2cf464d0',
    'walks-closed-cholesky-identity-d2': '0f5cda5eda6ef8d24609a7b8838bf918250f51b1c88f981b4e0a35aa0acad2b9',
    'walks-closed-cholesky-identity-d3': '111ec00bb982de091ebad718e4bddc17bcfe45030da7a5b9ce372917dcd6bc84',
    'walks-closed-cholesky-invwishart-d1': 'c4fdab1b4ff90ae5954719a4e89303c87e0959e3134853a612bcf42b698a30c1',
    'walks-closed-cholesky-invwishart-d2': '519addeccdd12d1792f153c799b67ff7a7c06dc1643ef9f42f6b31e7915c7522',
    'walks-closed-cholesky-invwishart-d3': '37267e880d13b5f838ca760cfcf8bd708a55271fb2ee6de76410f2f06cedda81',
    'walks-closed-cholesky-fixed-d1': '100a8f9ddf87697e2c909942f2cffd52804bb2311dce0fea41a11935342395ba',
    'walks-closed-cholesky-fixed-d2': '3881756624a003b232532079abdfc094c068bcc59fb98dad6f22fa102ec11d82',
    'walks-closed-cholesky-fixed-d3': '07cde24f40e6dd6d90da435ff41120e9223cd8921e0c14ca4657296942774894',
    'trace-sqrt': '5089d2ca3045c1432e1b3956a7c38f02d530bb20e524384f2aaae93f124fd5fe',
    'closed-sqrt': 'cc31c8ef4901fec3e0092253cd760e7bb57cfcdfae31848a5d06b4c9d967f4a7',
    'dufresne-sqrt-d1': '0bfd711fac0f25a019ad235a3ef967b0109358edc6ebdfdd4cf482ee870efee2',
    'dufresne-sqrt-d2': '7cd914b79baa8a43fdaa6f24eb988de62c0d5e1babff3787718485690d7755e2',
    'dufresne-sqrt-identity': 'c83e86880bbd41e49764495a859b150ce722f082a9f75f8bf0668fb697a1750b',
    'dufresne-sqrt-fixed': '1a0365a634cbae7c547c17440262ccdf303eb0ca91e10f6ad1c2239902225107',
    'eigen-wishart-sqrt': '60bd2d34b5fdfdfd172f94441c3b228e2f346acb5bb818a88276ac3b642d3a9b',
    'eigen-invwishart-sqrt': 'e8dae70ac40978afcec2b1438400a1c4aca9a42cb3996066fbf42a6d0f519719',
    'eigen-beta2-sqrt': 'b144ee43125524a4a81de6ae86488ab18d0bd83097a4450506a9ba423c9bc3c4',
    'kesten-sqrt-prime0': '7a29611f4f56e867114f739c07293a96fc4cfb552c817e4335b36b87fb41e1fd',
    'kesten-sqrt-prime1': 'd1ef3bbc163f07808b51e3e7f3935f6ce6a89acd3a4c215fa81ecef179cf891d',
    'trace-cholesky': 'e3b5c8e1ed5e8a28a6835cbdaf6c6ce69ab565d5e20b7889b47bb9d9aeb242b0',
    'closed-cholesky': '751d6e54c03cef9ff92140b04b42ea37647b84d204a8c752ea9da27250676778',
    'dufresne-cholesky-d1': '0bfd711fac0f25a019ad235a3ef967b0109358edc6ebdfdd4cf482ee870efee2',
    'dufresne-cholesky-d2': 'd6cd3aedd29bafab553dd5d70306f8d3d4d912fb1e3f34c622ba5d01a9cfb5a9',
    'dufresne-cholesky-identity': '695189d2e108883874451d0e00eb53d02894cf9207a3c6ae187bf7eef39767d5',
    'dufresne-cholesky-fixed': '936495888ae59fa0c1b8ed8e46c6222e0499988b298d1e6b124a2a29a615b7ec',
    'eigen-wishart-cholesky': 'f67eabf3d924c183650eed437aaa36e288b64f184b62c79c830357b6e65154b3',
    'eigen-invwishart-cholesky': '78d106a3f8051583d96ff6f83fba12dfb6c5884174da229ec844fb71ac729938',
    'eigen-beta2-cholesky': 'c74c0a00ce997baefa39378e7e3e0548d831165503b811fae604938dc242c1ae',
    'kesten-cholesky-prime0': '860debd294e97cac48c8c56a9a2f1d4a9424f3bc7789a26935eb5379eca51895',
    'kesten-cholesky-prime1': 'fceb1b4becb4b129a228fb63891e516a442954c0b4c63edfbc2d019fa64acc62',
    'cholesky-wishart': 'fdf2cc09e24e05dc78f12b517d5c5257aded43ce4a9368380d28bb3119de6c2a',
    'cholesky-invwishart': '411f1122470dcba54d4c2d592c23a57789ce7d4694e88a122f3fb3eadd5ee4f0',
    'cholesky-beta2': '5bba0827364c4b7d156eb61e7d25b7229d0c69ac05ddebe5f7c373b4f03d3300',
    'cli-walk-steps-invwishart': 'df89e54f40bbe190e75570d2639e1c6cbeab7031976acb2941e1197be12fdd9b',
    'cli-walk-increments-invwishart': '3a3a6adfa7af2b6573cb37eb38199b3e05fbea60f435957daef13fc74abf936a',
    'cli-walk-steps-identity': '09927e4a94d316a447734999f8872b381ec211017d5a582cafcd95eece3f5575',
    'cli-walk-increments-identity': '737e4568b08ae7498b351fdda9910617881455b9f63d5ae30146210e345bd8ca',
    'cli-walk-steps-fixed:2': 'a28e54dbc2597ff275eb388a58c75278d820aa9b6812595371c12a0ab66bb174',
    'cli-walk-increments-fixed:2': 'f4ac54bdf5d18897e12ccbc232eba2bf1d360397b5c95b36a7503b9c388d8f6a',
    'cli-dufresne': '72fbce2d9193c48a58014ae48de2facc1bf63d43c05202c0ced90e0b10227072',
    'cli-lyapunov-sqrt': 'e2c48c950d8eba647fe20b2ce435ebfa74d476f76db4a066d47944bf8af8ff35',
    'cli-sample-full': '0e60abf7f8fcdc1898e67832591adf5889a5675e6ac0bd3cec66da24e42321ad',
    'cli-sample-json': '5073df5cf417c265f2aa2e556cd2dacd74b0bde780a830a80a95e107ce78de55',
    'cli-lyapunov-cholesky-csv': '27347be116b97fb0c62c8225d8d37fb4b01754c72b6d91fb1287647e67eba33f',
    'cli-config-sample': '8043076b8afa2bf257ce923a766d1aedc84746f4a42b1e4062e9c47d4e4d0bf0',
    'cli-config-walk-steps': 'f6f0dd477ab83eef87c1a66043d919c11ccf42d989c250966b8b535797648c45',
    'cli-config-dufresne': '1a1f719a2e84a8cd0baa5c9aa892ed84088191dc7838916888bbf08b304a7bcb',
    'cli-env-seed': '0ed08eb22aa5b7d4c6a6a52e95170729560f9abe8cb721f2143fb9db0465d84d',
    'cli-verify-lukacs-meta': '940b21ab2388b31f519d44a91b74ffb2d7f719204159aef4de17ba1dcaad3846',
    'kesten-ragged-sqrt-prime0-d1': '3d2acbbf4a9a26578f92dbc8ae95de316f226727c05868578ff8df28c3901f1f',
    'kesten-ragged-sqrt-prime0-d3': 'ae8250a85265b30ce5f5c1e162207008d45c17cc884e8f6e0b7d668fa2577a03',
    'kesten-ragged-sqrt-prime1-d1': '4b3513e52a461a84cb08d7c5ed2506c5d43c43e79ca5cb0c16949b64d5b5ac6f',
    'kesten-ragged-sqrt-prime1-d3': '027881fc6632fa5fe9ed5ab0b793eb20c2e7de82a2a9753c1f47737fe534f2d1',
    'kesten-ragged-cholesky-prime0-d1': '3d2acbbf4a9a26578f92dbc8ae95de316f226727c05868578ff8df28c3901f1f',
    'kesten-ragged-cholesky-prime0-d3': '5c30d88b0bb7434eff9efdfdd702ef06d0e16186ef865a96d1f0fbf40b6cc585',
    'kesten-ragged-cholesky-prime1-d1': '4b3513e52a461a84cb08d7c5ed2506c5d43c43e79ca5cb0c16949b64d5b5ac6f',
    'kesten-ragged-cholesky-prime1-d3': '24d94d66814214a356425ec66b9333f8f6bd465905d91b4826afe1d7a62216be',
    'eigen-d3-wishart-sqrt': 'f60fe4d63b83157ee9bda2f4edbd208c5f96ef96c41d1caad92d5fb3a8f11996',
    'eigen-d3-invwishart-sqrt': 'f9f8253c19110cb0862efc9f2b6112a405e43494e256535d3b0fe3430aa7f8bd',
    'eigen-d3-beta2-sqrt': '88c2c5a1d3ae9376a3c230b69afa834b08fcae4b752d917bf4fbc22439f51e13',
    'kernel-cholesky-d1': '914c128db9bbad96a8ce684fcc73ed90845fc938ad0c15e9070f1c386d7282bd',
    'kernel-invert-d1': '5e7c0b986f65cd756501e5464234c63d3b447a3fb841a212558c55f9acaab192',
    'kernel-factor-invwishart-d1': '58cf3555927fdc74c78c2eb92ec43f628b9d5843d32e3321bc5730a25ab8a019',
    'kernel-factor-invwishart-edge-d1': '761578202e6c936a18fad2d8b976769b21b6dfc54a606bb13a1af1bdaebfac19',
    'kernel-factor-beta2-d1': 'bbbf6af1a90abc65df6ca943947dd4be20f6f537a5b0bcee2830cf37e2797b02',
    'kernel-factor-beta2-edge-d1': 'a815bdbbe37b35d09435ac92c7b974ac51eb3f488acec8c8e497b6b7204ad732',
    'kernel-cholesky-d2': '17f3a4683c0f07c89ea9b014888192ff9f3e09d1040cb3a37642757a271b4027',
    'kernel-invert-d2': '294dbf4152e4effde2b2fd63a667575e59aea4daf3686794389510cc043e094f',
    'kernel-factor-invwishart-d2': '493f95e3d6c2be93835ba6aea10b2ac530df4ed602f9d6c0fbce35b3dbeef005',
    'kernel-factor-invwishart-edge-d2': '65e4c887719ae3cd6ddba75e94f115e3291ae1a42e8f23ade961f1a723d2e962',
    'kernel-factor-beta2-d2': '199225212329787eceff9e2d12763402d5d74d3aea19bb82aba6d1bdc502937b',
    'kernel-factor-beta2-edge-d2': '444c01188f5f7bc4f6fdd40cf2b5b583ec5c11ef2440ebe98755cbc9f4d6d4ee',
    'dufresne-ragged-sqrt-d1': '5106730a236480d71f3affd2e4e6250ac90f1479231c9f913e5eca29a357d612',
    'dufresne-ragged-sqrt-d2': '67d1475b7f93d78954d38d3a4715ba64c0ef63c0a195d7cf4e969b3555ad30a6',
    'dufresne-ragged-sqrt-d3': 'c9e21758bc6ca6dd2150ab036ef2f23ba74a3b1f5085ab9a3f9f1e4ffeac1d88',
    'dufresne-truncation-sqrt': 'ec05e6a8b3844af2acdf8b365e1f4b2575cf11f8ba6b66d7033d3f2588a16f21',
    'dufresne-ragged-cholesky-d1': '5106730a236480d71f3affd2e4e6250ac90f1479231c9f913e5eca29a357d612',
    'dufresne-ragged-cholesky-d2': 'cd8b7d2b29710e0e11d3de93392242fa67d90996f594a788c26ad18337c1bb49',
    'dufresne-ragged-cholesky-d3': 'd5b115880872c2449abb0573f70872f7563e9ca526bdbd9d74896eaca234e751',
    'dufresne-truncation-cholesky': '724c212e885ec89a19b9b87126366e4abd6af5c6463c9ed55c2447346eb07c20',
    'intertwining-d1-s1': '2cd655364937e186497b02cfcbc1ae13c74e0ac8763e227b8547484fbd781d44',
    'intertwining-d1-full': 'ca3b1d5bf9bfa4afa18305ff800f8570a8dca387afdbcdec5d7e2a0862119b38',
    'phi-d1-2.0-5.0': '489dff2518895c19f286842d410c2e426a0d056d4ba5441e0ae8396c326d646d',
    'phi-d1-3.0-4.0': 'ff66fb42642eff520ce5790dd39867df20280a6f49f4f6621079409aef23be0b',
    'phi-d1-0.6-0.55': 'c28d407593408de46a9273b7d2fa4e52b7c31093bb38f62b7138c9869f4da607',
    'eta-cdf-2-5': 'b3fdb694117d73700b901231646663931ae88d052c0a3c171f29dd5c08dda671',
    'qbar-cdf-2-5-1.05': 'a65323b0f61f159fbab48d27aec7a71ca78400e461f84b5ce3c5503b6cee1851',
}


@pytest.mark.parametrize("name", list(CASES))
def test_golden_digest(name):
    assert _compute(name) == GOLDEN[name]


@pytest.mark.parametrize("law", [Law.INV_WISHART, Law.BETA2], ids=lambda law: law.value)
def test_d3_factor_draws_never_call_lapack_inverse(law, monkeypatch):
    # Every d = 3 triangular inverse is matcore's closed form, in its own IEEE arithmetic.
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK inverse called at d = 3")

    monkeypatch.setattr(np.linalg, "inv", refuse)
    name = f"eigen-d3-{law.value}-sqrt"
    assert _compute(name) == GOLDEN[name]


def test_golden_table_covers_every_case():
    assert set(GOLDEN) == set(CASES)


if __name__ == "__main__":
    for _name in CASES:
        print(f"    {_name!r}: {_compute(_name)!r},")
