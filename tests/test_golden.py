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
import json
import os
import subprocess
import sys
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
    m = q * (scale[:, None] * lam)[:, None, :]
    # x_ij = m_i0 q_j0 + m_i1 q_j1, elementwise: gemm's bits would depend on the host's BLAS.
    return matcore.symmetrize(m[:, :, None, 0] * q[:, None, :, 0] + m[:, :, None, 1] * q[:, None, :, 1])


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
    'walks-recursive-sqrt-identity-d2': 'be4d10e05e5953c0fdf47537bdf9ab7033f1cc3537e1bd7ce185c6e3dc681763',
    'walks-recursive-sqrt-identity-d3': '2555595dbde6d1cdfb04d8ea381f0c95c05a84f19b20380f84796b3332f35fa2',
    'walks-recursive-sqrt-invwishart-d1': '42cad3ec35286451d88f54f002bbc7ce5ea6d9f0e74ed504ecff19811c1d72d1',
    'walks-recursive-sqrt-invwishart-d2': '89bc791d75a5844cc585780bd88de10b5f85a625d765d6d540550c6ac6849332',
    'walks-recursive-sqrt-invwishart-d3': 'e69fc317a550e68c7f84a7bda510fefa96e7d018005d3306c4a6029fec829da5',
    'walks-recursive-sqrt-fixed-d1': '837db29c5ca13f2e17ddad0be0c4fcceda0f233987b5d1d3317026603ee8aabe',
    'walks-recursive-sqrt-fixed-d2': '518b9416a525bd2150cc97f9a557fb6edb9b996afa0b3cfe2c99792cd84589ab',
    'walks-recursive-sqrt-fixed-d3': '6e04d23796205d88028c8942da469ee47f508a5c502c2c8c25575156a5faf351',
    'walks-recursive-cholesky-identity-d1': 'e80b5925fc0985a90e1abbf715fdbe1488db3bd455fb647fbc8fb6e021c828fd',
    'walks-recursive-cholesky-identity-d2': '7616744aabf516415cda00aa5e70f9e1b9ca14cbfde6ed070b0b0ecd34fd57e2',
    'walks-recursive-cholesky-identity-d3': '18daef30e3abe31908d83a268591ff08bfd43270ed702a709ef47c8afbad2846',
    'walks-recursive-cholesky-invwishart-d1': '42cad3ec35286451d88f54f002bbc7ce5ea6d9f0e74ed504ecff19811c1d72d1',
    'walks-recursive-cholesky-invwishart-d2': '0fb372d9b9835a4984aa445bc0a1fe2889c5a582177641432922101f972b0914',
    'walks-recursive-cholesky-invwishart-d3': '8ce5968ac3920899b2b61a414754aeac35cc77ed19b80e9bc55964169616b7ba',
    'walks-recursive-cholesky-fixed-d1': '837db29c5ca13f2e17ddad0be0c4fcceda0f233987b5d1d3317026603ee8aabe',
    'walks-recursive-cholesky-fixed-d2': 'fe9398fd4a44141e211dc2bec4e663bbed005646017620d0a8722ae763cd931b',
    'walks-recursive-cholesky-fixed-d3': 'c13a640bff2d5ddb3e2ce639bdbbc9aac1e593f25b2e01a37193c1b378022897',
    'walks-closed-sqrt-identity-d1': 'e022350761f3a5921e54532bf02943e71e4d9f3ef0ac8c000774da7f2cf464d0',
    'walks-closed-sqrt-identity-d2': '9e5e337bbd36b495d61bc35e6e0a58b9002c21d521147315a4c752623b103bad',
    'walks-closed-sqrt-identity-d3': 'a30f641c0b22f1ea62aa087f1758e52a775a77ffe3d13e36b27b839ca9a5f0cf',
    'walks-closed-sqrt-invwishart-d1': 'c4fdab1b4ff90ae5954719a4e89303c87e0959e3134853a612bcf42b698a30c1',
    'walks-closed-sqrt-invwishart-d2': '194d7729434de20c9dd9790a9e3185f82234b78378f73bab30d12472214609b9',
    'walks-closed-sqrt-invwishart-d3': '5540ba389ee52da62b7e90ece872ca79cfb4317d5cc9a548047d05eabd6c7d76',
    'walks-closed-sqrt-fixed-d1': '100a8f9ddf87697e2c909942f2cffd52804bb2311dce0fea41a11935342395ba',
    'walks-closed-sqrt-fixed-d2': 'd8d9e6ec588f20e133e0d41e62a670b96de3795fb81d104d588093c83fbb82f2',
    'walks-closed-sqrt-fixed-d3': '51dac51667877ae62b2a96b1a476390c78e45170b9950852710da101dcc92309',
    'walks-closed-cholesky-identity-d1': 'e022350761f3a5921e54532bf02943e71e4d9f3ef0ac8c000774da7f2cf464d0',
    'walks-closed-cholesky-identity-d2': '4846c6750aac8dfae19c49cb7d8de255ce7846ce0560e085b25db4f19b502b45',
    'walks-closed-cholesky-identity-d3': '111ec00bb982de091ebad718e4bddc17bcfe45030da7a5b9ce372917dcd6bc84',
    'walks-closed-cholesky-invwishart-d1': 'c4fdab1b4ff90ae5954719a4e89303c87e0959e3134853a612bcf42b698a30c1',
    'walks-closed-cholesky-invwishart-d2': '77b565ea1f0f8ae983fdd924fa34ec0acd1a81712897e1cae1168498844de49e',
    'walks-closed-cholesky-invwishart-d3': '628934b0b69148f7cd798448cb463675b20a7c634ff88dd0279c4b5db7368e67',
    'walks-closed-cholesky-fixed-d1': '100a8f9ddf87697e2c909942f2cffd52804bb2311dce0fea41a11935342395ba',
    'walks-closed-cholesky-fixed-d2': 'fe50aeccfc5c634a7fe998db129c8069d84b487655ba1b704cec9ac3a2dfa5fa',
    'walks-closed-cholesky-fixed-d3': '07cde24f40e6dd6d90da435ff41120e9223cd8921e0c14ca4657296942774894',
    'trace-sqrt': '5d8bbe9251f5fca456046c7a74864e397421ecaa30def823ea1d4a39aa69ce72',
    'closed-sqrt': '349e336c5ce3ade32a767bfc39ad0af01dc2cca6fdece4310474205fe4bf8082',
    'dufresne-sqrt-d1': '0bfd711fac0f25a019ad235a3ef967b0109358edc6ebdfdd4cf482ee870efee2',
    'dufresne-sqrt-d2': '6143eea1df8535f7e47e3313e0fab0736bfbb0ba6b65b0e31a5df231b624b9ce',
    'dufresne-sqrt-identity': 'a95a91996964ae61a1899fa2480b623b9718a1023e1f325e87a57279d73dee23',
    'dufresne-sqrt-fixed': 'e2f91bd7ffed1d2c468e478373a1c0187041d93a3363409cb436c65d1467a723',
    'eigen-wishart-sqrt': '20b1a00dc7569c76ec8eedbb8b816881f33188a12a4329ebc88f61411f32a066',
    'eigen-invwishart-sqrt': '76b0882eb990af6389adb5345346bdb1d0079425515de2b28d51c55c00aae5f1',
    'eigen-beta2-sqrt': '3446e1aa55fdf41fab1c729907d10c4211c9592b1a00e265043bf2ee3cc5ba73',
    'kesten-sqrt-prime0': '922460ba16d62d0921cb4d194c7d137fbfb76f97f5076d81737816b1027f3e5f',
    'kesten-sqrt-prime1': 'f7505e0e68acb26674b38f626a1728584fa079352a681ed01eca1a02719d8442',
    'trace-cholesky': '2a6258cf69dbab75c69719590357b24e60a8ce2e1712f0461a3c9a080bd8740a',
    'closed-cholesky': '28d67c80fc85ce5e4029c585b99cd95cfda4c2cb36ab1f2e347ed27578e59e49',
    'dufresne-cholesky-d1': '0bfd711fac0f25a019ad235a3ef967b0109358edc6ebdfdd4cf482ee870efee2',
    'dufresne-cholesky-d2': 'be11f92245e4a91c6d397d92da874879eced7d2a4b9d07ce23587c10c2cae023',
    'dufresne-cholesky-identity': '309e64675f811e3cc921e724aaf8f12f59c83568995c9b17ab3a258c7fc0ed54',
    'dufresne-cholesky-fixed': '75db7b10879cf71efd3c94f9d184642e4446465a96e957e30f9bb2184e972cb8',
    'eigen-wishart-cholesky': 'f67eabf3d924c183650eed437aaa36e288b64f184b62c79c830357b6e65154b3',
    'eigen-invwishart-cholesky': '78d106a3f8051583d96ff6f83fba12dfb6c5884174da229ec844fb71ac729938',
    'eigen-beta2-cholesky': 'c74c0a00ce997baefa39378e7e3e0548d831165503b811fae604938dc242c1ae',
    'kesten-cholesky-prime0': '8231a8f7c2340067093343b65791a27e2c4072e912c81e258e0ddde7db84ac8d',
    'kesten-cholesky-prime1': '728d1b2ad72b826ccc91ad5fe780e8e168297600fbeb09fdf5e5cd4b078a397a',
    'cholesky-wishart': 'fdf2cc09e24e05dc78f12b517d5c5257aded43ce4a9368380d28bb3119de6c2a',
    'cholesky-invwishart': '411f1122470dcba54d4c2d592c23a57789ce7d4694e88a122f3fb3eadd5ee4f0',
    'cholesky-beta2': '5bba0827364c4b7d156eb61e7d25b7229d0c69ac05ddebe5f7c373b4f03d3300',
    'cli-walk-steps-invwishart': 'ea85ecd6d50886ab2f086fe56931cb666ff561bb954d040b8c1423bfdfe44c38',
    'cli-walk-increments-invwishart': 'b0ed0e4803754b6c596cf07468b7a501365f13e0f1427db37f3607654bc0425b',
    'cli-walk-steps-identity': '3df69d48ce75b1c10b311fd9a066c5cf16a4d3bbdba4b1a31fd7e3329c6700ee',
    'cli-walk-increments-identity': '737e4568b08ae7498b351fdda9910617881455b9f63d5ae30146210e345bd8ca',
    'cli-walk-steps-fixed:2': '1b7ecc5e0fa495836b9b970ab2a38837f5970c45b9cd8140ebca36364bcb92bd',
    'cli-walk-increments-fixed:2': 'f4ac54bdf5d18897e12ccbc232eba2bf1d360397b5c95b36a7503b9c388d8f6a',
    'cli-dufresne': '02cd80feddb311cf68d3e32f21c1785679e2cd9752511c3e0f730b76bf425c03',
    'cli-lyapunov-sqrt': 'ba44baf5be07c3a2370ab6bacb7c56d6886167b105bee1e7b6e76f5f3543226b',
    'cli-sample-full': '0e60abf7f8fcdc1898e67832591adf5889a5675e6ac0bd3cec66da24e42321ad',
    'cli-sample-json': '5073df5cf417c265f2aa2e556cd2dacd74b0bde780a830a80a95e107ce78de55',
    'cli-lyapunov-cholesky-csv': '27347be116b97fb0c62c8225d8d37fb4b01754c72b6d91fb1287647e67eba33f',
    'cli-config-sample': '03dd6d75584a253c35ac6a914b2649993a7e8ca091266d68a7fbd21b0ad6eac9',
    'cli-config-walk-steps': '73456da4a2e401d2b7cfdb6294d5bc90219c98e741d7f66e0528abbafdbff122',
    'cli-config-dufresne': '5b4f65ca711e8c1e8224acb033a1d1eecc54549372f1086ed959b5bdfc6c9c97',
    'cli-env-seed': '99bb5be27dd78f2e238f305830f28e450a986f4bfe53318b5da8ad727ee1f76b',
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
    'kernel-cholesky-d2': '9b6cb63fdc0c9e868cb60b960e0b86ad3476a1f983cf503435d8fe3c966cb5f8',
    'kernel-invert-d2': '388230ec31a5b4e2c7fd2e9f7953e056f7ad3c82210f99f426609187d5ac47a2',
    'kernel-factor-invwishart-d2': '493f95e3d6c2be93835ba6aea10b2ac530df4ed602f9d6c0fbce35b3dbeef005',
    'kernel-factor-invwishart-edge-d2': '65e4c887719ae3cd6ddba75e94f115e3291ae1a42e8f23ade961f1a723d2e962',
    'kernel-factor-beta2-d2': '742d89d6fae5a458091ed82f4557bd3cb53fa6334b0708b5d80a5d899b432b1b',
    'kernel-factor-beta2-edge-d2': '270a178f0cbea539b3eb7436eb49638f970745aec48f24ad93ef5b46b84cad65',
    'dufresne-ragged-sqrt-d1': '5106730a236480d71f3affd2e4e6250ac90f1479231c9f913e5eca29a357d612',
    'dufresne-ragged-sqrt-d2': 'e1100b3f71f74890d248303e45a3899e3bde3f3162ad631ea05f0634103bda18',
    'dufresne-ragged-sqrt-d3': 'c9e21758bc6ca6dd2150ab036ef2f23ba74a3b1f5085ab9a3f9f1e4ffeac1d88',
    'dufresne-truncation-sqrt': 'ec05e6a8b3844af2acdf8b365e1f4b2575cf11f8ba6b66d7033d3f2588a16f21',
    'dufresne-ragged-cholesky-d1': '5106730a236480d71f3affd2e4e6250ac90f1479231c9f913e5eca29a357d612',
    'dufresne-ragged-cholesky-d2': 'da26e46e230a9b5bf588f1b514ab68176551bc8091a40d21fbde879bb36c7522',
    'dufresne-ragged-cholesky-d3': 'ce670bb7835fd8e8c747aad372fac39f93b958ef94d3184f83831ef16e9e681c',
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


# The d <= 2 cases whose products are all matcore's closed forms: no
# LAPACK, no quadrature, no gemm. Only the d = 3 cases, the Lyapunov
# estimators (LAPACK's QR), the d = 1 quadrature and the CLI runs of those or
# of spectral functionals are left out.
HOST_FREE = [
    name
    for name in CASES
    if name.startswith(("walks-", "trace-", "closed-", "dufresne-", "kesten-", "kernel-", "cli-walk-",
                        "cli-dufresne", "cli-config-walk-steps", "cli-config-dufresne", "cli-sample-json"))
    and not name.endswith("-d3")
]


def test_host_free_digests_do_not_depend_on_the_blas_kernels():
    # OPENBLAS_CORETYPE picks OpenBLAS's kernels when it loads; Sandybridge's
    # fuse no multiply-add, and a gemm product on them rounds differently.
    # numpy's `@` cannot be monkeypatched, so a child process with that
    # kernel recomputes the cases; a host without OpenBLAS ignores it.
    env = dict(os.environ, OPENBLAS_CORETYPE="Sandybridge")
    here = os.path.dirname(os.path.abspath(__file__))
    env["PYTHONPATH"] = os.pathsep.join([here, os.path.join(os.path.dirname(here), "src")])
    code = "import json, sys, test_golden as g; print(json.dumps({n: g._compute(n) for n in g.HOST_FREE}))"
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert json.loads(child.stdout.splitlines()[-1]) == {name: _compute(name) for name in HOST_FREE}


def test_golden_table_covers_every_case():
    assert set(GOLDEN) == set(CASES)


if __name__ == "__main__":
    for _name in CASES:
        print(f"    {_name!r}: {_compute(_name)!r},")
