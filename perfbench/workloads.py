"""The benchmark's three workloads, each one pass of fixed work per seed.

Every workload has three steps. ``prepare(seed, scale)`` makes the inputs
from the seed before the timed window opens. ``run(inputs)`` makes every
library call and judges every verdict; the window covers it and nothing
else. ``check(inputs, outcome)`` then validates the outputs.

A verdict is one check report, one Lyapunov z < 3 comparison against the
closed form, one calibration rep-check or one intertwining identity below
the quadrature tolerance. It passes, is rejected (the library's own gate
says FAIL), or errors (an exception, a missing report or a non-finite
statistic). The Monte Carlo verdicts are hypothesis tests, so a correct
program rejects a few of them at their nominal level on some seeds; the
quadrature verdicts of ``oracles-d1`` are deterministic and never may.

``scale="smoke"`` runs the same calls at tiny sizes for the smoke test.
"""

import contextlib
import io
import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

from posdefwalks import cli, special, verify

# The six Monte Carlo checks of the suite plus beta_gamma, as ``verify`` runs them.
MC_CHECKS = (
    "dufresne_d1",
    "dufresne_d2",
    "my_markov_d1",
    "fixed_point",
    "construction_equivalence",
    "lukacs",
    "beta_gamma",
)

# Criterion 6: the three laws at d=3 with the parameters of the acceptance test.
LYAPUNOV_LAWS = (
    ("wishart", ("--alpha", "3.0")),
    ("invwishart", ("--beta", "4.0")),
    ("beta2", ("--alpha", "4.0", "--beta", "8.0")),
)
LYAPUNOV_Z_MAX = 3.0

CALIBRATION_REPS = {"full": 5, "smoke": 1}

ORACLE_PARAMS = special.ModelParams(1, 2.0, 5.0)
# Start points are drawn log-uniformly near s = 1; the cost of the nested
# quadrature depends on the start point, and a narrow range keeps the work of
# a pass nearly the same on every seed.
ORACLE_START_RANGE = (0.8, 1.25)
PHI_GRID_RANGE = (1e-6, 1e4)
# Points at which the eta CDF is read back for the digest.
ETA_PROBES = np.geomspace(0.05, 40.0, 17)


@dataclass
class Outcome:
    verdicts: dict = field(default_factory=lambda: {"pass": 0, "reject": 0, "error": 0})
    outputs: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    bytes_out: int = 0

    def judge(self, passed, statistic):
        if not math.isfinite(float(statistic)):
            self.verdicts["error"] += 1
        else:
            self.verdicts["pass" if passed else "reject"] += 1

    def fail(self, n, what, exc=None):
        """Count ``n`` verdicts as errors and say why."""
        self.verdicts["error"] += n
        self.problems.append(f"{what}: {exc!r}" if exc is not None else what)

    def output(self, part, data):
        if isinstance(data, str):
            data = data.encode()
        self.outputs.setdefault(part, []).append(data)


def _cli(argv, out):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    text = buf.getvalue()
    out.bytes_out += len(text.encode())
    return rc, text


# ---------------------------------------------------------------------------
# acceptance: the paper-scale reproduction through the command line


def prepare_acceptance(seed, scale):
    sub = [str(v) for v in np.random.SeedSequence(seed).generate_state(9)]
    steps, replicas, n_csv = ("2000", "200", "5000") if scale == "full" else ("40", "10", "40")
    if scale == "smoke":
        # The CLI always runs FULL_CONFIG; the smoke test shrinks it in place.
        verify.FULL_CONFIG = {
            name: verify.REDUCED_CONFIG.get(name, cfg) for name, cfg in verify.FULL_CONFIG.items()
        }
    lyap = []
    for i, (dist, params) in enumerate(LYAPUNOV_LAWS):
        for j, method in enumerate(("cholesky", "eigen")):
            lyap.append(
                ["lyapunov", "--dist", dist, "--d", "3", *params, "--method", method,
                 "--steps", steps, "--replicas", replicas, "--seed", sub[1 + 2 * i + j]]
            )
    return {
        "verify": ["verify", *MC_CHECKS, "--seed", sub[0]],
        "lyapunov": lyap,
        "dufresne": ["dufresne", "--d", "2", "--alpha", "2.5", "--beta", "6.0",
                     "--n", n_csv, "--format", "csv", "--seed", sub[7]],
        "sample": ["sample", "--dist", "beta2", "--d", "3", "--alpha", "4.0", "--beta", "8.0",
                   "--n", n_csv, "--full", "--format", "csv", "--seed", sub[8]],
        "n_csv": int(n_csv),
    }


def run_acceptance(inp):
    out = Outcome()
    try:
        rc, text = _cli(inp["verify"], out)
        out.output("verify", text)
        if rc not in (0, 1):
            out.fail(len(MC_CHECKS), f"verify exited {rc}")
        else:
            reports = {r["name"]: r for r in map(json.loads, text.splitlines()[1:])}
            for name in MC_CHECKS:
                if name in reports:
                    out.judge(reports[name]["passed"], reports[name]["statistic"])
                else:
                    out.fail(1, f"verify printed no report for {name}")
    except Exception as exc:
        out.fail(len(MC_CHECKS), "verify raised", exc)
    for argv in inp["lyapunov"]:
        try:
            rc, text = _cli(argv, out)
            out.output("lyapunov", text)
            if rc != 0:
                out.fail(1, f"{' '.join(argv[:3])} exited {rc}")
                continue
            rep = json.loads(text)["report"]
            z = max(
                abs(h - c) / e for h, c, e in zip(rep["mu_hat"], rep["mu_closed"], rep["std_err"])
            )
            out.judge(z < LYAPUNOV_Z_MAX, z)
        except Exception as exc:
            out.fail(1, f"{' '.join(argv[:3])} raised", exc)
    for part in ("dufresne", "sample"):
        try:
            rc, text = _cli(inp[part], out)
            out.output(part, text)
            if rc != 0:
                out.problems.append(f"{part} export exited {rc}")
        except Exception as exc:
            out.problems.append(f"{part} export raised: {exc!r}")
    return out


def _csv_rows(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return lines[0].split(","), [[float(v) for v in ln.split(",")] for ln in lines[1:]]


def check_acceptance(inp, out):
    for part in ("dufresne", "sample"):
        if part not in out.outputs:
            continue
        cols, rows = _csv_rows(out.outputs[part][0].decode())
        table = np.array(rows)
        if table.shape != (inp["n_csv"], len(cols)) or not np.all(np.isfinite(table)):
            out.problems.append(f"{part} export: bad table of shape {table.shape}")
            continue
        if part == "dufresne" and np.any(table[:, cols.index("n_terms")] < 1):
            out.problems.append("dufresne export: a series with no terms")
        if part == "sample":
            diag = sum(table[:, cols.index(f"e_{k}_{k}")] for k in range(3))
            gap = np.max(np.abs(diag - table[:, cols.index("trace")]) / diag)
            if gap > 1e-12:
                out.problems.append(f"sample export: trace column off its entries by {gap:.2e}")


# ---------------------------------------------------------------------------
# calibration: the null calibration of the Monte Carlo checks


def prepare_calibration(seed, scale):
    return {"seed": seed, "n_reps": CALIBRATION_REPS[scale]}


def run_calibration(inp):
    out = Outcome()
    n_reps = inp["n_reps"]
    try:
        counts = verify.calibration_meta(inp["seed"], n_reps=n_reps)
    except Exception as exc:
        out.fail(n_reps * len(MC_CHECKS), "calibration_meta raised", exc)
        return out
    out.output("counts", json.dumps(counts, sort_keys=True))
    for name in MC_CHECKS:
        passed = int(counts.get(name, 0))
        out.verdicts["pass"] += passed
        out.verdicts["reject"] += n_reps - passed
    return out


def check_calibration(inp, out):
    if "counts" not in out.outputs:
        return
    counts = json.loads(out.outputs["counts"][0])
    if sorted(counts) != sorted(MC_CHECKS):
        out.problems.append(f"calibration counted checks {sorted(counts)}")
    if any(not 0 <= c <= inp["n_reps"] for c in counts.values()):
        out.problems.append(f"calibration counts out of range: {counts}")


# ---------------------------------------------------------------------------
# oracles-d1: the d=1 kernel identities, phi and the eta CDF by quadrature


_SUBTEST = re.compile(r"^(?P<label>[^:]+): (?P<ratio>\S+)")


def prepare_oracles(seed, scale):
    from scipy import stats

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    lo, hi = np.log(ORACLE_START_RANGE)
    glo, ghi = np.log(PHI_GRID_RANGE)
    a = ORACLE_PARAMS.alpha
    return {
        "seed": seed,
        "s_grid": (float(np.exp(rng.uniform(lo, hi))),),
        "phi_grid": np.sort(np.exp(rng.uniform(glo, ghi, size=800 if scale == "full" else 40))),
        # Only the eigenfunction identity at smoke size; all four test functions at full.
        "test_fns": None if scale == "full" else {"const_1": lambda r, a: 1.0},
        # The support window of verify's own eta CDF.
        "eta_range": (0.5 * stats.gamma.ppf(1e-12, a), max(45.0, 1.5 * stats.gamma.isf(1e-13, a))),
        "eta_grid": 400 if scale == "full" else 60,
    }


def run_oracles(inp):
    out = Outcome()
    p = ORACLE_PARAMS
    try:
        rep = verify.check_intertwining_d1(
            p, s_grid=inp["s_grid"], test_fns=inp["test_fns"], seed=inp["seed"]
        )
        out.output("intertwining", rep.to_json())
        for part in rep.details.split("; "):
            m = _SUBTEST.match(part)
            ratio = float(m["ratio"])
            out.judge(ratio < rep.threshold, ratio)
    except Exception as exc:
        n_fns = 4 if inp["test_fns"] is None else len(inp["test_fns"])
        out.fail(2 * n_fns, "check_intertwining_d1 raised", exc)
    try:
        phis = np.array([special.phi_d1(p, float(s)) for s in inp["phi_grid"]])
        out.output("phi", phis.tobytes())
    except Exception as exc:
        out.problems.append(f"phi_d1 raised: {exc!r}")
    try:
        bundle = special.kernel_densities_d1(p)
        cdf = special.QuadratureCdf(
            lambda s: float(bundle.eta_density(s, special.phi_d1(p, s))),
            *inp["eta_range"],
            n_grid=inp["eta_grid"],
        )
        out.output("eta", np.concatenate([[cdf.total_mass], cdf(ETA_PROBES)]).tobytes())
    except Exception as exc:
        out.problems.append(f"QuadratureCdf raised: {exc!r}")
    return out


def check_oracles(inp, out):
    if "phi" in out.outputs:
        phis = np.frombuffer(out.outputs["phi"][0])
        # Grid points can lie closer together than phi_d1's quadrature tolerance.
        rising = np.diff(phis) > 1e-6 * phis[:-1]
        if not (np.all(np.isfinite(phis)) and np.all(phis > 0) and not np.any(rising)):
            out.problems.append("phi_d1 is not positive and nonincreasing on the grid")
    if "eta" in out.outputs:
        mass, *vals = np.frombuffer(out.outputs["eta"][0])
        if not abs(mass - 1.0) <= verify.QUAD_RTOL:
            out.problems.append(f"eta density integrates to {mass!r}, not 1")
        if not (np.all(np.diff(vals) >= 0) and 0.0 <= vals[0] and vals[-1] <= 1.0):
            out.problems.append("eta CDF is not a monotone map into [0, 1]")


# name -> (prepare, run, check)
WORKLOADS = {
    "acceptance": (prepare_acceptance, run_acceptance, check_acceptance),
    "calibration": (prepare_calibration, run_calibration, check_calibration),
    "oracles-d1": (prepare_oracles, run_oracles, check_oracles),
}
