"""posdefwalks benchmark: time to a verdict, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {acceptance,calibration,oracles-d1}
        --seed N --seconds S --trace {0,1} [--scale {full,smoke}]

Every pass of a workload runs in a fresh interpreter (perfbench/worker.py),
as a ``posdefwalks`` user pays for it, so the d=1 CDF tables that ``verify``
caches are rebuilt in each pass. A pass is fixed by the seed: repeated passes
make the same calls and must print the same output digests. The run repeats
passes until the next one would end after ``--seconds`` and reports medians.

``--trace 0`` also spawns a few interpreters that only import the package,
and reports the end-to-end metrics: wall_s and cpu_s of the window from the
first library call to the last verdict, setup_s from spawning the
interpreter to the end of ``import posdefwalks`` and its CLI module, and the
pass's peak_rss_mb. ``--trace 1`` alternates plain and traced passes and
reports the per-layer metrics of the traced ones (see tracer.py), with the
tracing overhead as traced minus plain wall_s.

Shared hosts change speed by half or more for tens of seconds at a time,
with CPU time rising as much as wall time, so medians of raw times do not
repeat from run to run. Each worker therefore also samples the time of a
fixed unit of work throughout what it measures (see worker.py), and every
reported time is scaled to the nominal speed of that unit (UNIT_NOMINAL_S);
the unscaled medians are printed as well.

Lines before the last are for people: machine facts, output digests,
fail_ratio and each metric with its unit. The last line is one JSON object
with the keys correct, attempted, failed and metrics. ``attempted`` counts
verdicts; ``failed`` counts those that errored. A verdict that the library's
own gate rejects is not an error: the Monte Carlo verdicts are tests at a
nominal level, so ``correct`` bounds their rejections by a binomial tail
instead, and the deterministic quadrature verdicts may reject none.
"""

import argparse
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import time

# One BLAS thread in every process the benchmark starts, this one included
# (tracer imports numpy): batches of 2x2 and 3x3 matrices gain nothing from
# threads, and threads add noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from tracer import COUNTERS, LAYERS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("acceptance", "calibration", "oracles-d1")

# Every time a worker reports is multiplied by UNIT_NOMINAL_S over the time
# of worker.speed_unit() measured in that worker, so the metrics read as
# seconds on a machine that runs one speed unit in a millisecond (a 2-core
# x86-64 sandbox with Python 3.11 and numpy 2.4 takes 1.0 to 1.6 ms).
UNIT_NOMINAL_S = 0.001
# Interpreters spawned only to time set-up, per run at full scale.
SETUP_PROBES = 5
# A run stops starting passes this long after it began, to exit well within 180 s.
HARD_STOP_S = 150.0
# A correct program rejects a Monte Carlo verdict with probability at most
# NULL_REJECT (criterion 10 allows one failure in 100 repetitions); more
# rejections than a binomial tail of REJECT_TAIL allows mean wrong output.
NULL_REJECT = 0.01
REJECT_TAIL = 1e-4
# Workloads whose verdicts are quadrature identities, not hypothesis tests.
DETERMINISTIC = ("oracles-d1",)

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# Self time per unit of work: (metric, layer, work count).
PER_UNIT = (
    ("matdist.ns_per_draw", "matdist", "matdist.draws"),
    ("matcore.ns_per_matrix", "matcore", "matcore.matrices"),
    ("walks.ns_per_term", "walks", "walks.matrix_terms"),
    ("lyapunov.ns_per_step", "lyapunov", "lyapunov.matrix_steps"),
)
PER_LAYER = (
    [(f"{layer}.{kind}", unit) for layer in LAYERS
     for kind, unit in (("self_s", "s"), ("calls", "count"), ("errors", "count"))]
    + [(name, "count") for name in COUNTERS]
    + [(name, "ns") for name, _, _ in PER_UNIT]
    + [("cli.bytes_out", "B"), ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
       ("trace.unattributed_s", "s")]
)


class PassFailed(RuntimeError):
    pass


def allowed_rejections(n, p=NULL_REJECT, tail=REJECT_TAIL):
    """Smallest k with P(Binomial(n, p) > k) < tail."""
    k, pmf = 0, (1.0 - p) ** n
    cdf = pmf
    while 1.0 - cdf >= tail and k < n:
        k += 1
        pmf *= (n - k + 1) / k * p / (1.0 - p)
        cdf += pmf
    return k


def spawn(args, mode, timeout):
    """Run one worker; returns its result with the set-up time it saw added."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), args.workload, str(args.seed),
           args.scale, mode]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"{mode} pass did not end within {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise PassFailed(f"{mode} pass exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["t_ready"] - t_spawn
    return result


def measure(args):
    start = time.monotonic()
    deadline = start + args.seconds

    def budget():
        return 170.0 - (time.monotonic() - start)

    probes, plain, traced = [], [], []
    if not args.trace:
        for _ in range(SETUP_PROBES if args.scale == "full" else 1):
            probes.append(spawn(args, "probe", budget()))
    modes = ("plain", "traced") if args.trace else ("plain",)
    longest = 0.0
    for i in itertools.count():
        mode = modes[i % len(modes)]
        t0 = time.monotonic()
        result = spawn(args, mode, budget())
        longest = max(longest, time.monotonic() - t0)
        (traced if mode == "traced" else plain).append(result)
        if (i + 1) % len(modes) == 0:
            now = time.monotonic()
            if now + len(modes) * longest > deadline or now - start > HARD_STOP_S:
                break
    return probes, plain, traced


def median(values):
    return statistics.median(values)


def speed(result):
    """Factor that scales the times of a pass's window to the nominal speed."""
    return UNIT_NOMINAL_S / result["unit_s"]


def end_to_end_metrics(probes, plain, scale=True):
    def f(factor):
        return factor if scale else 1.0

    return {
        "wall_s": median([r["wall_s"] * f(speed(r)) for r in plain]),
        "cpu_s": median([r["cpu_s"] * f(speed(r)) for r in plain]),
        "setup_s": median([r["setup_s"] * f(UNIT_NOMINAL_S / r["setup_unit_s"])
                           for r in probes + plain]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
    }


def per_layer_metrics(plain, traced):
    rows = []
    for res in traced:
        f = speed(res)
        self_s = {layer: res["layers"][layer]["self_s"] * f for layer in LAYERS}
        row = {}
        for layer in LAYERS:
            row[f"{layer}.self_s"] = self_s[layer]
            row[f"{layer}.calls"] = res["layers"][layer]["calls"]
            row[f"{layer}.errors"] = res["layers"][layer]["errors"]
        row.update(res["counts"])
        for name, layer, work in PER_UNIT:
            n = res["counts"][work]
            row[name] = self_s[layer] * 1e9 / n if n else 0.0
        row["cli.bytes_out"] = res["bytes_out"]
        row["trace.wall_s"] = res["wall_s"] * f
        row["trace.unattributed_s"] = res["wall_s"] * f - sum(self_s.values())
        rows.append(row)
    metrics = {name: median([r[name] for r in rows]) for name, _ in PER_LAYER
               if name != "trace.overhead_s"}
    plain_wall = median([r["wall_s"] * speed(r) for r in plain])
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - plain_wall
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=("full", "smoke"))
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "posdefwalks", "__init__.py")):
        print(f"error: no posdefwalks sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        probes, plain, traced = measure(args)
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    passes = plain + traced
    tally = {k: sum(r["verdicts"][k] for r in passes) for k in ("pass", "reject", "error")}
    attempted = sum(tally.values())
    per_pass = attempted // len(passes)
    allowed = 0 if args.workload in DETERMINISTIC else allowed_rejections(per_pass)
    problems = sorted({p for r in passes for p in r["problems"]})
    digest_sets = {json.dumps(r["digests"], sort_keys=True) for r in passes}
    if len(digest_sets) > 1:
        problems.append("passes with the same seed printed different outputs")
    if any(r["verdicts"]["reject"] > allowed for r in passes):
        problems.append(f"more than {allowed} of {per_pass} verdicts rejected in a pass")
    if tally["error"]:
        problems.append(f"{tally['error']} verdicts errored")
    correct = not problems and attempted > 0

    if args.trace:
        metrics = per_layer_metrics(plain, traced)
        units = dict(PER_LAYER)
    else:
        metrics = end_to_end_metrics(probes, plain)
        units = dict(END_TO_END)

    print(f"# workload={args.workload} seed={args.seed} scale={args.scale} trace={args.trace} "
          f"passes={len(plain)} plain + {len(traced)} traced + {len(probes)} set-up probes")
    print("# machine " + json.dumps(passes[0]["machine"], sort_keys=True))
    for part, digest in sorted(passes[0]["digests"].items()):
        print(f"# sha256 {part} {digest}")
    for problem in problems:
        print(f"# problem: {problem}")
    fail_ratio = (tally["reject"] + tally["error"]) / attempted if attempted else math.nan
    print(f"# verdicts: {tally['reject']} rejected + {tally['error']} errored of {attempted}; "
          f"{allowed} rejections per pass allowed")
    print(f"fail_ratio {fail_ratio!r} ratio")
    unit_times = sorted(r["unit_s"] for r in passes)
    print(f"# speed unit in the timed windows: {unit_times[0]!r} to {unit_times[-1]!r} s, "
          f"nominal {UNIT_NOMINAL_S} s; sampling took {median([r['sampled_s'] for r in passes])!r} s")
    if not args.trace:
        raw = end_to_end_metrics(probes, plain, scale=False)
        print("# unscaled: " + ", ".join(f"{k} {raw[k]!r} s" for k in ("wall_s", "cpu_s", "setup_s")))
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    if args.trace:
        sys.stderr.write("spans of the last traced pass (caller -> layer.function: calls, self s)\n")
        for row in traced[-1]["spans"]:
            sys.stderr.write(f"  {row['caller']} -> {row['layer']}.{row['function']}: "
                             f"{row['calls']}, {row['self_s']:.6f}\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": tally["error"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
