"""Outside-in tracer for the traced benchmark run.

``Tracer.install()`` wraps every public function of the seven layer modules,
plus the two engine methods of ``QuadratureCdf`` (its build and its
evaluation), and rebinds every namespace of the package that refers to an
original: ``verify.phi_d1`` bound by ``from .special import``, the
re-exports in ``posdefwalks`` and the function table in ``cli``. The library
source is not edited.

A span opens only where a call crosses into a layer from another layer or
from the benchmark. A call that stays inside the layer it came from runs
untimed, so one span costs two clock reads and a call into the same layer
costs one comparison. A layer's self time is the time its spans covered
minus the time their child spans into other layers covered.

Spans are kept in memory, aggregated per (caller layer, layer, function),
and written out with the pass result when the pass ends.
"""

import functools
import inspect
import sys
import time

import numpy as np

LAYERS = ("cli", "verify", "lyapunov", "walks", "special", "matdist", "matcore")
_IDX = {name: i for i, name in enumerate(LAYERS)}
_BENCH = -1

COUNTERS = (
    "matdist.draws",  # matrices returned by samplers called from other layers
    "matdist.variates",  # gamma and normal variates in every Bartlett factor drawn
    "matcore.matrices",  # matrices in the largest array of each call from another layer
    "walks.matrix_terms",  # increments walks draws for walk, series and chain steps
    "lyapunov.matrix_steps",  # factors lyapunov draws
    "special.quad_calls",  # adaptive scipy quad runs started by special
    "special.cdf_builds",  # QuadratureCdf tables built
    "special.phi_evals",  # phi_d1 calls, also those within special
    "verify.checks",  # TestReports made
    "verify.ks_tests",  # one- and two-sample KS tests
    "verify.ks_points",  # sample points those tests saw
)


def _batch(args):
    """Number of matrices in the largest (..., d, d) array argument."""
    best = 0
    for a in args:
        if isinstance(a, np.ndarray) and a.ndim >= 2:
            best = max(best, a.size // (a.shape[-1] * a.shape[-2] or 1))
    return best


def _size_getter(fn):
    """Read the ``size`` argument of a sampler call; ``None`` means one draw."""
    pos = list(inspect.signature(fn).parameters).index("size")

    def size(args, kwargs):
        value = kwargs.get("size", args[pos] if len(args) > pos else None)
        return 1 if value is None else int(value)

    return size


class _CountingIntegrate:
    """Stands in for ``scipy.integrate`` inside ``special`` to count quad calls."""

    def __init__(self, module, counts):
        self._module = module
        self._counts = counts

    def quad(self, *args, **kwargs):
        self._counts["special.quad_calls"] += 1
        return self._module.quad(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        n = len(LAYERS)
        self.calls = [0] * n
        self.self_ns = [0] * n
        self.errors = [0] * n
        self.counts = dict.fromkeys(COUNTERS, 0)
        # (caller layer, layer, function) -> [calls, total_ns, self_ns, errors]
        self.spans = {}
        self._stack = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, layer, name, fn, count=None):
        stack = self._stack
        calls, self_ns, errors, spans = self.calls, self.self_ns, self.errors, self.spans
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            caller = stack[-1][0] if stack else _BENCH
            if count is not None:
                count(caller, args, kwargs)
            if caller == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0]
            stack.append(frame)
            failed = 0
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed = 1
                raise
            finally:
                dur = clock() - start
                stack.pop()
                own = dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                calls[layer] += 1
                self_ns[layer] += own
                errors[layer] += failed
                rec = spans.get((caller, layer, name))
                if rec is None:
                    spans[(caller, layer, name)] = [1, dur, own, failed]
                else:
                    rec[0] += 1
                    rec[1] += dur
                    rec[2] += own
                    rec[3] += failed

        return functools.update_wrapper(traced, fn)

    def _counter(self, layer_name, fn_name, fn):
        """Work count taken at a call of ``layer_name.fn_name``, or None."""
        c = self.counts
        me = _IDX[layer_name]
        if layer_name == "matdist" and fn_name.startswith("sample"):
            size = _size_getter(fn)
            per_step = fn_name in ("sample_factor", "sample_beta2", "sample")
            walks, lyap = _IDX["walks"], _IDX["lyapunov"]

            def count(caller, args, kwargs):
                if fn_name == "sample_bartlett":
                    d = args[0].dim
                    c["matdist.variates"] += size(args, kwargs) * d * (d + 1) // 2
                if caller == me:
                    return
                n = size(args, kwargs)
                c["matdist.draws"] += n
                if per_step and caller == walks:
                    c["walks.matrix_terms"] += n
                elif per_step and caller == lyap:
                    c["lyapunov.matrix_steps"] += n

            return count
        if layer_name == "matcore":

            def count(caller, args, kwargs):
                if caller != me:
                    c["matcore.matrices"] += _batch(args) or 1

            return count
        if layer_name == "special" and fn_name == "phi_d1":

            def count(caller, args, kwargs):
                c["special.phi_evals"] += 1

            return count
        if layer_name == "verify" and fn_name in ("ks_one_sample", "ks_two_sample"):

            def count(caller, args, kwargs):
                c["verify.ks_tests"] += 1
                c["verify.ks_points"] += int(np.size(args[0]))
                if fn_name == "ks_two_sample":
                    c["verify.ks_points"] += int(np.size(args[1]))

            return count
        return None

    def install(self):
        """Wrap the layers in place; returns self."""
        import posdefwalks  # noqa: F401  (loads every layer but cli)
        import posdefwalks.cli  # noqa: F401

        replaced = {}
        for layer_name in LAYERS:
            mod = sys.modules[f"posdefwalks.{layer_name}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                replaced[id(obj)] = self._wrap(
                    _IDX[layer_name], name, obj, self._counter(layer_name, name, obj)
                )
        for mod in [m for k, m in sys.modules.items() if k.split(".")[0] == "posdefwalks"]:
            for name, value in list(vars(mod).items()):
                new = _rebind(value, replaced)
                if new is not value:
                    setattr(mod, name, new)

        special = sys.modules["posdefwalks.special"]
        cdf = special.QuadratureCdf
        counts = self.counts
        build = self._wrap(_IDX["special"], "QuadratureCdf.__init__", cdf.__init__)

        @functools.wraps(cdf.__init__)
        def counted_build(*args, **kwargs):
            counts["special.cdf_builds"] += 1
            return build(*args, **kwargs)

        cdf.__init__ = counted_build
        cdf.__call__ = self._wrap(_IDX["special"], "QuadratureCdf.__call__", cdf.__call__)
        special.integrate = _CountingIntegrate(special.integrate, counts)

        report = sys.modules["posdefwalks.verify"].TestReport
        post_init = report.__post_init__

        @functools.wraps(post_init)
        def counted_report(obj):
            counts["verify.checks"] += 1
            return post_init(obj)

        report.__post_init__ = counted_report
        return self

    def exclude(self, ns):
        """Keep ``ns`` nanoseconds of benchmark work out of the open span's self time."""
        if self._stack:
            self._stack[-1][1] += ns

    # -- results ----------------------------------------------------------

    def layer_totals(self):
        return {
            name: {
                "calls": self.calls[i],
                "self_s": self.self_ns[i] / 1e9,
                "errors": self.errors[i],
            }
            for i, name in enumerate(LAYERS)
        }

    def span_table(self):
        """Aggregated spans, heaviest self time first."""
        rows = [
            {
                "caller": "bench" if caller == _BENCH else LAYERS[caller],
                "layer": LAYERS[layer],
                "function": name,
                "calls": rec[0],
                "total_s": rec[1] / 1e9,
                "self_s": rec[2] / 1e9,
                "errors": rec[3],
            }
            for (caller, layer, name), rec in self.spans.items()
        ]
        return sorted(rows, key=lambda r: -r["self_s"])


def _rebind(value, replaced):
    """``value`` with every wrapped function swapped for its wrapper."""
    if inspect.isfunction(value):
        return replaced.get(id(value), value)
    if isinstance(value, tuple):
        items = tuple(_rebind(v, replaced) for v in value)
        if any(a is not b for a, b in zip(items, value)):
            return items
    return value
