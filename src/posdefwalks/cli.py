"""Command line front end for sampling, walks, series limits, exponents, and checks.

Every run is seeded and echoes its full effective configuration (including
defaults) in the output header, so outputs are reproducible byte for byte.
Exit codes: 0 success, 1 check failure, 2 usage error, 3 domain error.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import __version__, lyapunov, matcore, matdist, verify, walks
from .errors import PosDefWalksError
from .matcore import SplitKind
from .special import Law, ModelParams

SEED_ENV = "POSDEFWALKS_SEED"

_CASTS = {
    "seed": int,
    "threads": str,
    "out": str,
    "format": str,
    "dist": str,
    "d": int,
    "alpha": float,
    "beta": float,
    "n": int,
    "full": lambda v: str(v).lower() in ("1", "true", "yes"),
    "steps": int,
    "init": str,
    "increments": str,
    "kind": str,
    "construction": str,
    "tail_tol": float,
    "max_terms": int,
    "replicas": int,
    "method": str,
}

# CSV columns, named after the functions.
_SCALAR_FUNCTIONALS = (matcore.trace, matcore.logdet, matcore.lambda_min, matcore.lambda_max)


def _add_common(sub):
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--config", default=None, help="flat key=value file; flags override")
    sub.add_argument("--threads", default=None, help="worker count or 'auto' (echoed only)")
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--format", choices=("json", "csv"), default=None)


def _parser():
    parser = argparse.ArgumentParser(
        prog="posdefwalks",
        description="Random walks on positive definite matrices: samplers, "
        "series limits, Lyapunov exponents, and verification checks.",
    )
    parser.add_argument("--version", action="version", version=f"posdefwalks {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("sample", help="draw from one of the matrix laws")
    p.add_argument("--dist", choices=[law.value for law in Law], default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--full", action="store_true", default=None, help="include matrix entries")
    _add_common(p)

    p = subs.add_parser("walk", help="simulate one walk trace")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--init", default=None, help="invwishart | identity | fixed:<v>")
    p.add_argument("--increments", default=None, help="comma-separated fixed increments")
    p.add_argument("--kind", choices=[k.value for k in SplitKind], default=None)
    p.add_argument(
        "--construction", choices=[c.value for c in walks.Construction], default=None
    )
    _add_common(p)

    p = subs.add_parser("dufresne", help="sample the truncated series limit")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--tail-tol", dest="tail_tol", type=float, default=None)
    p.add_argument("--max-terms", dest="max_terms", type=int, default=None)
    p.add_argument("--kind", choices=[k.value for k in SplitKind], default=None)
    _add_common(p)

    p = subs.add_parser("lyapunov", help="estimate Lyapunov exponents")
    p.add_argument("--dist", choices=("wishart", "invwishart", "beta2"), default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--replicas", type=int, default=None)
    p.add_argument("--method", choices=("cholesky", "eigen"), default=None)
    p.add_argument("--kind", choices=[k.value for k in SplitKind], default=None)
    _add_common(p)

    p = subs.add_parser("verify", help="run verification checks")
    p.add_argument("checks", nargs="+", help="check names or 'all'")
    _add_common(p)
    return parser


def _read_config(path):
    cfg = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise PosDefWalksError(f"bad config line: {line!r}")
            key, _, value = line.partition("=")
            cfg[key.strip().replace("-", "_")] = value.strip()
    return cfg


def _effective(args, defaults):
    """Merge flags > config file > environment seed > defaults."""
    cfg = _read_config(args.config) if args.config else {}
    out = {}
    for key, default in defaults.items():
        value = getattr(args, key, None)
        if value is None and key in cfg:
            value = _CASTS.get(key, str)(cfg[key])
        if value is None and key == "seed" and SEED_ENV in os.environ:
            value = int(os.environ[SEED_ENV])
        if value is None:
            value = default
        out[key] = value
    return out


class _Output:
    def __init__(self, path):
        self._fh = open(path, "w") if path else sys.stdout
        self._close = bool(path)

    def line(self, text):
        self._fh.write(text + "\n")

    def done(self):
        if self._close:
            self._fh.close()
        else:
            self._fh.flush()


def _meta(command, eff):
    meta = {"version": __version__, "command": command}
    meta.update({k: v for k, v in eff.items() if k != "out"})
    return meta


def _csv_header(out, command, eff):
    out.line(f"# posdefwalks={__version__}")
    out.line(f"# command={command}")
    for key, value in eff.items():
        if key != "out":
            out.line(f"# {key}={value}")


def _functional_row(m):
    return [repr(float(fn(m))) for fn in _SCALAR_FUNCTIONALS]


def _matrix_entries(m):
    return [repr(float(v)) for v in np.asarray(m).ravel()]


def cmd_sample(args):
    eff = _effective(
        args,
        {
            "dist": "wishart",
            "d": 1,
            "alpha": None,
            "beta": None,
            "n": 100,
            "full": False,
            "seed": 0,
            "threads": "auto",
            "format": "csv",
            "out": args.out,
        },
    )
    if eff["alpha"] is None and eff["beta"] is None:
        raise PosDefWalksError("sample needs --alpha and/or --beta")
    if eff["alpha"] is None:
        eff["alpha"] = eff["beta"]
    if eff["beta"] is None:
        eff["beta"] = eff["alpha"]
    p = ModelParams(eff["d"], eff["alpha"], eff["beta"]).require_sampling()
    rng = matdist.make_stream(eff["seed"])
    draws = matdist.sample(eff["dist"], p, rng, size=eff["n"])
    out = _Output(eff["out"])
    if eff["format"] == "json":
        payload = {"meta": _meta("sample", eff), "samples": np.asarray(draws).tolist()}
        out.line(json.dumps(payload))
    else:
        _csv_header(out, "sample", eff)
        cols = ["index"] + [fn.__name__ for fn in _SCALAR_FUNCTIONALS]
        if eff["full"]:
            d = p.dim
            cols += [f"e_{i}_{j}" for i in range(d) for j in range(d)]
        out.line(",".join(cols))
        for idx in range(eff["n"]):
            row = [str(idx)] + _functional_row(draws[idx])
            if eff["full"]:
                row += _matrix_entries(draws[idx])
            out.line(",".join(row))
    out.done()
    return 0


def _resolve_init(init_text, p, rng):
    if init_text == "identity":
        return np.eye(p.dim)
    if init_text == "invwishart":
        return matdist.sample_inv_wishart(p, rng)
    if init_text.startswith("fixed:"):
        value = float(init_text.partition(":")[2])
        if value <= 0:
            raise PosDefWalksError("fixed init must be positive")
        return value * np.eye(p.dim)
    raise PosDefWalksError(f"unknown init '{init_text}'")


def cmd_walk(args, parser):
    eff = _effective(
        args,
        {
            "d": 1,
            "alpha": None,
            "beta": None,
            "steps": None,
            "init": "invwishart",
            "increments": None,
            "kind": SplitKind.CHOLESKY.value,
            "construction": walks.Construction.RECURSIVE.value,
            "seed": 0,
            "threads": "auto",
            "format": "csv",
            "out": args.out,
        },
    )
    if eff["steps"] is not None and eff["increments"] is not None:
        parser.error("--steps and --increments are mutually exclusive")
    if eff["steps"] is None and eff["increments"] is None:
        parser.error("one of --steps or --increments is required")
    if eff["alpha"] is None or eff["beta"] is None:
        raise PosDefWalksError("walk needs --alpha and --beta")
    p = ModelParams(eff["d"], eff["alpha"], eff["beta"])
    rng = matdist.make_stream(eff["seed"])
    if eff["increments"] is not None:
        values = [float(v) for v in eff["increments"].split(",") if v.strip()]
        if not values or any(v <= 0 for v in values):
            raise PosDefWalksError("increments must be positive numbers")
        init = _resolve_init(eff["init"], p, rng)
        incs = [v * np.eye(p.dim) for v in values]
        tr = walks.trace_from_increments(SplitKind(eff["kind"]), init, incs)
    else:
        cfg = walks.WalkConfig(
            params=p,
            kind=eff["kind"],
            construction=eff["construction"],
            steps=eff["steps"],
            init=eff["init"] if eff["init"] in ("invwishart", "identity") else _resolve_init(eff["init"], p, rng),
        )
        tr = walks.simulate_walk(cfg, rng)
    out = _Output(eff["out"])
    if eff["format"] == "json":
        payload = {
            "meta": _meta("walk", eff),
            "r": tr.r.tolist(),
            "a": tr.a.tolist(),
            "s": tr.s.tolist(),
        }
        out.line(json.dumps(payload))
    else:
        _csv_header(out, "walk", eff)
        out.line("step,functional_name,value")
        n = tr.r.shape[0] - 1
        for k in range(n + 1):
            for name, fn in (("r_trace", matcore.trace), ("r_logdet", matcore.logdet)):
                out.line(f"{k},{name},{float(fn(tr.r[k]))!r}")
            for name, fn in (("a_trace", matcore.trace), ("a_logdet", matcore.logdet)):
                out.line(f"{k},{name},{float(fn(tr.a[k]))!r}")
            if k >= 1:
                out.line(f"{k},s_trace,{float(matcore.trace(tr.s[k - 1]))!r}")
    out.done()
    return 0


def cmd_dufresne(args):
    eff = _effective(
        args,
        {
            "d": 1,
            "alpha": None,
            "beta": None,
            "n": 100,
            "tail_tol": 1e-10,
            "max_terms": None,
            "kind": SplitKind.CHOLESKY.value,
            "seed": 0,
            "threads": "auto",
            "format": "csv",
            "out": args.out,
        },
    )
    if eff["alpha"] is None or eff["beta"] is None:
        raise PosDefWalksError("dufresne needs --alpha and --beta")
    p = ModelParams(eff["d"], eff["alpha"], eff["beta"])
    rng = matdist.make_stream(eff["seed"])
    draws, counts = walks.dufresne_series(
        p,
        rng,
        size=eff["n"],
        kind=eff["kind"],
        tail_tol=eff["tail_tol"],
        max_terms=eff["max_terms"],
        return_counts=True,
    )
    out = _Output(eff["out"])
    if eff["format"] == "json":
        payload = {
            "meta": _meta("dufresne", eff),
            "samples": np.asarray(draws).tolist(),
            "n_terms": [int(c) for c in counts],
        }
        out.line(json.dumps(payload))
    else:
        _csv_header(out, "dufresne", eff)
        out.line("index," + ",".join(fn.__name__ for fn in _SCALAR_FUNCTIONALS) + ",n_terms")
        for idx in range(eff["n"]):
            row = [str(idx)] + _functional_row(draws[idx]) + [str(int(counts[idx]))]
            out.line(",".join(row))
    out.done()
    return 0


def cmd_lyapunov(args):
    eff = _effective(
        args,
        {
            "dist": "beta2",
            "d": 1,
            "alpha": None,
            "beta": None,
            "steps": 2000,
            "replicas": 200,
            "method": "eigen",
            "kind": SplitKind.CHOLESKY.value,
            "seed": 0,
            "threads": "auto",
            "format": "json",
            "out": args.out,
        },
    )
    law = Law(eff["dist"])
    # unused parameter of a one-sided law still has to pass dim validation
    placeholder = 0.5 * (eff["d"] + 1)
    alpha = eff["alpha"] if eff["alpha"] is not None else placeholder
    beta = eff["beta"] if eff["beta"] is not None else placeholder
    if law in (Law.WISHART, Law.BETA2) and eff["alpha"] is None:
        raise PosDefWalksError(f"{law.value} needs --alpha")
    if law in (Law.INV_WISHART, Law.BETA2) and eff["beta"] is None:
        raise PosDefWalksError(f"{law.value} needs --beta")
    p = ModelParams(eff["d"], alpha, beta)
    rng = matdist.make_stream(eff["seed"])
    if eff["method"] == "cholesky":
        report = lyapunov.empirical_mu_cholesky(
            law, p, eff["steps"], eff["replicas"], rng, seed=eff["seed"]
        )
    else:
        report = lyapunov.empirical_mu_eigen(
            law, p, eff["kind"], eff["steps"], eff["replicas"], rng, seed=eff["seed"]
        )
    out = _Output(eff["out"])
    if eff["format"] == "csv":
        _csv_header(out, "lyapunov", eff)
        out.line("k,mu_hat,std_err,mu_closed")
        for k in range(p.dim):
            out.line(
                f"{k + 1},{report.mu_hat[k]!r},{report.std_err[k]!r},{report.mu_closed[k]!r}"
            )
    else:
        payload = {"meta": _meta("lyapunov", eff), "report": json.loads(report.to_json())}
        out.line(json.dumps(payload))
    out.done()
    return 0


def cmd_verify(args, parser):
    eff = _effective(
        args,
        {"seed": 0, "threads": "auto", "format": "json", "out": args.out},
    )
    known = list(verify.FULL_CONFIG)
    names = list(args.checks)
    if names == ["all"]:
        names = list(verify.CHECK_NAMES)
    else:
        unknown = [n for n in names if n not in known]
        if unknown:
            parser.error(f"unknown checks: {', '.join(unknown)} (known: {', '.join(known)})")
    out = _Output(eff["out"])
    meta = _meta("verify", eff)
    meta["checks"] = names
    config = verify.FULL_CONFIG
    meta["parameters"] = {name: {k: str(v) for k, v in config[name].items()} for name in names}
    out.line(json.dumps(meta))
    all_passed = True
    for name in names:
        report = verify.run_check(name, eff["seed"], stream_id=known.index(name))
        out.line(report.to_json())
        all_passed = all_passed and report.passed
    out.done()
    return 0 if all_passed else 1


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "sample":
            return cmd_sample(args)
        if args.command == "walk":
            return cmd_walk(args, parser)
        if args.command == "dufresne":
            return cmd_dufresne(args)
        if args.command == "lyapunov":
            return cmd_lyapunov(args)
        if args.command == "verify":
            return cmd_verify(args, parser)
    except PosDefWalksError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
