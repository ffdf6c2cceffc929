"""One benchmark pass in a fresh interpreter; prints its result as one JSON line.

Usage (from run.py): python3 perfbench/worker.py WORKLOAD SEED SCALE {plain|traced|probe}

The first thing the process does is import posdefwalks from the checkout's
``src``; the monotonic clock right after that import is reported as
``t_ready`` so the parent can time set-up from the moment it spawned us.
``probe`` stops there. Otherwise the pass runs its workload once, with the
outside-in tracer installed when ``traced``.

Every worker also reports how fast the machine ran while it measured, as the
time of ``speed_unit``: once right after the import, and, during the timed
window, sampled every ``SAMPLE_PERIOD_S`` from a SIGALRM handler. The
samples' own time is taken out of the window's wall and CPU times.
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

import posdefwalks  # noqa: E402
import posdefwalks.cli  # noqa: E402,F401

T_READY = time.monotonic()

import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402

import numpy as np  # noqa: E402
from scipy import integrate  # noqa: E402

SAMPLE_PERIOD_S = 0.1


def _bell(t):
    return float(np.exp(-t * t))


def speed_unit():
    """About a millisecond of adaptive quadrature calling back into Python.

    Compiled code, Python calls and numpy scalar overhead, in the proportions
    the library's quadrature and small-batch code have. Of the pure bytecode
    loop, the batched numpy call and this, this one followed the speed of all
    three workloads best on a host that changes speed.
    """
    acc = 0.0
    for _ in range(12):
        acc += integrate.quad(_bell, -6.0, 6.0)[0]
    return acc


def unit_time(n=60):
    """Median time of ``n`` speed units, in seconds."""
    times = []
    for _ in range(n):
        t = time.perf_counter()
        speed_unit()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


class SpeedSampler:
    """Times one speed unit every SAMPLE_PERIOD_S of wall time while active.

    Shared hosts switch between fast and slow states for seconds at a time,
    so a reference timed only before and after a long window misses a switch
    inside it; samples spread through the window do not. ``on_sample``
    receives each sample's duration in nanoseconds.
    """

    def __init__(self, on_sample=None):
        self.samples = []
        self._on_sample = on_sample

    def _sample(self, signum, frame):
        start = time.perf_counter_ns()
        speed_unit()
        ns = time.perf_counter_ns() - start
        self.samples.append(ns / 1e9)
        if self._on_sample is not None:
            self._on_sample(ns)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def machine_facts():
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def digests(outputs):
    """SHA-256 of each output part and of all parts in name order."""
    whole = hashlib.sha256()
    parts = {}
    for name in sorted(outputs):
        h = hashlib.sha256()
        for chunk in outputs[name]:
            h.update(chunk)
            whole.update(chunk)
        parts[name] = h.hexdigest()
    parts["all"] = whole.hexdigest()
    return parts


def main(argv):
    name, seed, scale, mode = argv
    if not os.path.realpath(posdefwalks.__file__).startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"posdefwalks was imported from {posdefwalks.__file__}, not from {SRC}")
    setup_unit_s = unit_time()
    if mode == "probe":
        print(json.dumps({"t_ready": T_READY, "setup_unit_s": setup_unit_s}))
        return
    from workloads import WORKLOADS

    prepare, run, check = WORKLOADS[name]
    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer().install()
    inputs = prepare(int(seed), scale)
    with SpeedSampler(tracer.exclude if tracer else None) as sampler:
        c0 = time.process_time()
        t0 = time.perf_counter()
        outcome = run(inputs)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
    sampled = sum(sampler.samples)
    check(inputs, outcome)
    result = {
        "t_ready": T_READY,
        "setup_unit_s": setup_unit_s,
        "wall_s": wall - sampled,
        "cpu_s": cpu - sampled,
        "sampled_s": sampled,
        "unit_s": statistics.fmean(sampler.samples) if sampler.samples else unit_time(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "verdicts": outcome.verdicts,
        "problems": outcome.problems,
        "bytes_out": outcome.bytes_out,
        "digests": digests(outcome.outputs),
        "machine": machine_facts(),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_totals()
        result["counts"] = tracer.counts
        result["spans"] = tracer.span_table()
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
