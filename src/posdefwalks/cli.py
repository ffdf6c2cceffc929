"""Command line front end for sampling, walks, series limits, exponents, and checks.

Every run is seeded and echoes its full effective configuration (including
defaults) in the output header, so outputs are reproducible byte for byte.
One writer prints every data command's output; a CSV float cell reads back bit for bit.
Each option's default, type and choices are declared once, in the parser,
and an option must be spelt in full (no prefix of it is accepted).
A ``--config`` file of ``key=value`` lines is read as the long options
``--key=value`` placed right after the subcommand, so the parser checks its
values like flags and flags given on the command line override it; the
seed's default comes from ``POSDEFWALKS_SEED`` when that is set.
``walk --increments`` runs the given increments by either ``--construction``;
``lyapunov --method cholesky`` splits by Cholesky and refuses ``--kind sqrt``,
and ``lyapunov`` needs ``--replicas`` of at least 2.
Wishart reads ``--alpha`` only, inverse Wishart ``--beta`` only, and every
other law, the walks' beta II increments among them, both (``Law.reads``).
Exit codes: 0 success, 1 check failure, 2 usage error, 3 domain error.
"""

import argparse
import contextlib
import json
import math
import os
import sys

import numpy as np

from . import __version__, lyapunov, matcore, matdist, verify, walks
from .errors import PosDefWalksError
from .matcore import SplitKind
from .special import Law, ModelParams

SEED_ENV = "POSDEFWALKS_SEED"

# Namespace entries that steer the run but are not echoed in its header.
_NOT_ECHOED = ("command", "run", "usage_error", "config", "out")

# CSV columns of the scalar functionals, named after matcore's functions.
_FUNCTIONAL_NAMES = ["trace", "logdet", "lambda_min", "lambda_max"]
# A walk's CSV functionals at each step, in order; s_trace starts at step 1.
_WALK_COLUMNS = ("r_trace", "r_logdet", "a_trace", "a_logdet", "s_trace")


def _add_common(sub, fmt, formats=("json", "csv")):
    sub.add_argument("--seed", type=int, default=os.environ.get(SEED_ENV, "0"))
    sub.add_argument("--config", help="flat key=value file of long options; flags override")
    sub.add_argument("--threads", default="auto", help="worker count or 'auto' (echoed only)")
    sub.add_argument("--out", help="output path (default stdout)")
    sub.add_argument("--format", choices=formats, default=fmt)


def _add_params(sub):
    sub.add_argument("--d", type=int, default=1)
    sub.add_argument("--alpha", type=float)
    sub.add_argument("--beta", type=float)


class _CheckNames(argparse.Action):
    """The check names as given, or every check of the suite for a lone 'all'."""

    def __call__(self, parser, namespace, values, option_string=None):
        if "all" in values and values != ["all"]:
            parser.error("'all' takes no other check names")
        setattr(namespace, self.dest, list(verify.CHECK_NAMES) if values == ["all"] else values)


def _parser():
    parser = argparse.ArgumentParser(
        prog="posdefwalks",
        allow_abbrev=False,
        description="Random walks on positive definite matrices: samplers, "
        "series limits, Lyapunov exponents, and verification checks.",
    )
    parser.add_argument("--version", action="version", version=f"posdefwalks {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    kind = {"choices": [k.value for k in SplitKind], "default": SplitKind.CHOLESKY.value}

    p = subs.add_parser("sample", allow_abbrev=False, help="draw from one of the matrix laws")
    p.add_argument("--dist", choices=[law.value for law in Law], default=Law.WISHART.value)
    _add_params(p)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--full", action="store_true", help="include matrix entries")
    _add_common(p, "csv")
    p.set_defaults(run=cmd_sample)

    p = subs.add_parser("walk", allow_abbrev=False, help="simulate one walk trace")
    _add_params(p)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--steps", type=int)
    p.add_argument("--init", default="invwishart", help="invwishart | identity | fixed:<v>")
    mode.add_argument("--increments", help="comma-separated fixed increments")
    p.add_argument("--kind", **kind)
    p.add_argument(
        "--construction",
        choices=[c.value for c in walks.Construction],
        default=walks.Construction.RECURSIVE.value,
    )
    _add_common(p, "csv")
    p.set_defaults(run=cmd_walk)

    p = subs.add_parser("dufresne", allow_abbrev=False, help="sample the truncated series limit")
    _add_params(p)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--tail-tol", type=float, default=1e-10)
    p.add_argument("--max-terms", type=int)
    p.add_argument("--kind", **kind)
    _add_common(p, "csv")
    p.set_defaults(run=cmd_dufresne)

    p = subs.add_parser("lyapunov", allow_abbrev=False, help="estimate Lyapunov exponents")
    p.add_argument("--dist", choices=("wishart", "invwishart", "beta2"), default="beta2")
    _add_params(p)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--replicas", type=int, default=200)
    p.add_argument("--method", choices=("cholesky", "eigen"), default="eigen")
    p.add_argument("--kind", **kind)
    _add_common(p, "json")
    p.set_defaults(run=cmd_lyapunov, usage_error=p.error)

    p = subs.add_parser("verify", allow_abbrev=False, help="run verification checks")
    _add_common(p, "json", formats=("json",))  # reports are JSON lines only
    # After the common options, so the header echoes the checks after the format.
    p.add_argument(
        "checks", nargs="+", choices=("all", *verify.FULL_CONFIG), action=_CheckNames,
        metavar="check", help="check names, or 'all' for the suite",
    )
    p.set_defaults(run=cmd_verify)
    return parser


def _config_flags(path):
    """The lines of a flat key=value file as long options; ``full=1|true|yes`` is ``--full``."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise PosDefWalksError(f"cannot read config file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise PosDefWalksError(f"config file {path} is not text: {exc.reason}") from exc
    flags = []
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise PosDefWalksError(f"bad config line: {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip().replace("_", "-"), value.strip()
        if key != "full":
            flags.append(f"--{key}={value}")
        elif value.lower() in ("1", "true", "yes"):
            flags.append("--full")
    return flags


def _with_config(argv):
    """``argv`` with the ``--config`` file's options inserted after the subcommand."""
    pre = argparse.ArgumentParser(prog="posdefwalks", add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return argv
    at = next((i + 1 for i, a in enumerate(argv) if not a.startswith("-")), len(argv))
    return argv[:at] + _config_flags(path) + argv[at:]


@contextlib.contextmanager
def _output(path):
    """The file at ``path``, closed however the block ends, or stdout."""
    if path:
        with open(path, "w") as fh:
            yield fh
    else:
        yield sys.stdout
        sys.stdout.flush()


def _meta(args):
    meta = {"version": __version__, "command": args.command}
    meta.update({k: v for k, v in vars(args).items() if k not in _NOT_ECHOED})
    return meta


def _write(args, fields, columns, rows):
    """Print the run as one JSON line or as CSV; only the chosen format is computed.

    JSON is ``{"meta": ..., **fields()}``. CSV is the echo header, ``columns``
    and the tuples of ``rows()``, whose cells are Python ints, strings and
    floats: a float's str is its repr, which reads back bit for bit.
    """
    with _output(args.out) as fh:
        if args.format == "json":
            print(json.dumps({"meta": _meta(args), **fields()}), file=fh)
            return 0
        print(f"# posdefwalks={__version__}", file=fh)
        for key, value in _meta(args).items():
            if key != "version":
                print(f"# {key}={value}", file=fh)
        print(",".join(columns), file=fh)
        for row in rows():
            print(",".join(map(str, row)), file=fh)
    return 0


def _functional_columns(stack):
    """_FUNCTIONAL_NAMES' columns, from one trace, logdet and eigenvalues call on the whole stack."""
    trace, logdet = matcore.trace(stack), matcore.logdet(stack)
    eig = matcore.eigenvalues(stack)
    return [c.tolist() for c in (trace, logdet, eig[..., -1], eig[..., 0])]


def _params(args, law=Law.BETA2):
    """ModelParams from the options ``law`` reads, each of them required and no other given.

    A one-sided law's other field repeats its own value. The walks and series
    move by beta II increments, so they read both.
    """
    reads = law.reads
    for name in ("alpha", "beta"):
        given = getattr(args, name) is not None
        if given and name not in reads:
            raise PosDefWalksError(f"{law.value} does not read --{name}, only --{reads[0]}")
        if not given and name in reads:
            raise PosDefWalksError(f"{law.value} needs --{name}")
    values = [getattr(args, name) for name in reads]
    return ModelParams(args.d, values[0], values[-1])


def cmd_sample(args):
    p = _params(args, Law(args.dist))
    rng = matdist.make_stream(args.seed)
    draws = matdist.sample(args.dist, p, rng, size=args.n)
    columns = ["index", *_FUNCTIONAL_NAMES]
    if args.full:
        columns += [f"e_{i}_{j}" for i in range(p.dim) for j in range(p.dim)]

    def rows():
        entries = draws.reshape(-1, p.dim**2).T.tolist() if args.full else []
        return zip(range(len(draws)), *_functional_columns(draws), *entries)

    return _write(args, lambda: {"samples": draws.tolist()}, columns, rows)


def _positive(text, what):
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise PosDefWalksError(f"{what} must be a positive number, got '{text}'")
    return value


def cmd_walk(args):
    p = _params(args)
    rng = matdist.make_stream(args.seed)
    init = args.init
    if init.startswith("fixed:"):
        init = _positive(init.partition(":")[2], "fixed init") * np.eye(p.dim)
    if args.increments is not None:
        values = [_positive(v, "increments") for v in args.increments.split(",") if v.strip()]
        if not values:
            raise PosDefWalksError("increments must be positive numbers")
        incs = [v * np.eye(p.dim) for v in values]
        init = walks.init_states(init, p, rng, 1)[0]
        tr = walks.trace_from_increments(SplitKind(args.kind), init, incs, args.construction)
    else:
        cfg = walks.WalkConfig(p, args.kind, args.construction, args.steps, init)
        tr = walks.simulate_walk(cfg, rng)

    def rows():
        cols = [fn(x).tolist() for x in (tr.r, tr.a) for fn in (matcore.trace, matcore.logdet)]
        cols.append([None, *matcore.trace(tr.s).tolist()])
        for k in range(len(tr.r)):
            yield from ((k, name, c[k]) for name, c in zip(_WALK_COLUMNS, cols) if c[k] is not None)

    return _write(
        args,
        lambda: {"r": tr.r.tolist(), "a": tr.a.tolist(), "s": tr.s.tolist()},
        ["step", "functional_name", "value"],
        rows,
    )


def cmd_dufresne(args):
    p = _params(args)
    rng = matdist.make_stream(args.seed)
    draws, counts = walks.dufresne_series(
        p, rng, args.n, args.kind, tail_tol=args.tail_tol, max_terms=args.max_terms,
        return_counts=True,
    )
    return _write(
        args,
        lambda: {"samples": draws.tolist(), "n_terms": counts.tolist()},
        ["index", *_FUNCTIONAL_NAMES, "n_terms"],
        lambda: zip(range(len(draws)), *_functional_columns(draws), counts.tolist()),
    )


def cmd_lyapunov(args):
    if args.method == "cholesky" and args.kind != SplitKind.CHOLESKY.value:
        args.usage_error(f"--method cholesky reads no --kind {args.kind}, only --kind cholesky")
    law = Law(args.dist)
    p = _params(args, law)
    rng = matdist.make_stream(args.seed)
    run = (args.steps, args.replicas, rng)
    if args.method == "cholesky":
        report = lyapunov.empirical_mu_cholesky(law, p, *run, seed=args.seed)
    else:
        report = lyapunov.empirical_mu_eigen(law, p, args.kind, *run, seed=args.seed)
    return _write(
        args,
        lambda: {"report": json.loads(report.to_json())},
        ["k", "mu_hat", "std_err", "mu_closed"],
        lambda: zip(
            range(1, p.dim + 1),
            report.mu_hat.tolist(), report.std_err.tolist(), report.mu_closed.tolist(),
        ),
    )


def cmd_verify(args):
    meta = _meta(args)
    meta["parameters"] = {
        name: {k: str(v) for k, v in verify.FULL_CONFIG[name].items()} for name in args.checks
    }
    all_passed = True
    with _output(args.out) as fh:
        print(json.dumps(meta), file=fh)
        for name in args.checks:
            report = verify.run_check(name, args.seed)
            print(report.to_json(), file=fh)
            all_passed = all_passed and report.passed
    return 0 if all_passed else 1


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parser().parse_args(_with_config(argv))
        return args.run(args)
    except PosDefWalksError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
