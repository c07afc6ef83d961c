"""Per-layer tracing from outside the program.

The tracer replaces module attributes of repnorm (and mpmath.loggamma and
numpy.fft.fft) with wrappers while a traced round runs, and puts the
originals back afterwards, so untraced rounds run the program untouched.
Each wrapped call records a span (parent, name, start, end) in memory and
adds to the per-layer counters; the spans are written out when the run
ends.
"""

import json
import math
import statistics
import time
from pathlib import Path

import mpmath
import numpy as np

from repnorm import integrals, norms, reps

# (name, unit) of every per-layer metric the traced run prints, as listed
# in BENCHMARK.json
with open(Path(__file__).resolve().parent.parent / "BENCHMARK.json",
          encoding="utf-8") as _fh:
    PER_LAYER = [(m["name"], m["unit"]) for m in json.load(_fh)["per_layer"]]


class Tracer:
    def __init__(self):
        self.spans = []          # (parent index or -1, name, start, end)
        self.counts = {}
        self._stack = []
        self._saved = []
        self._grid_pending = False

    # -- recording -------------------------------------------------------

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def _wrap(self, name, after=None, before=None):
        """A decorator that records a span named name around each call,
        then calls after(args, result, ok, seconds)."""
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(args)
                idx = len(tracer.spans)
                parent = tracer._stack[-1] if tracer._stack else -1
                tracer.spans.append(None)
                tracer._stack.append(idx)
                out, ok = None, False
                t0 = time.perf_counter()
                try:
                    out = fn(*args, **kwargs)
                    ok = True
                    return out
                finally:
                    t1 = time.perf_counter()
                    tracer._stack.pop()
                    tracer.spans[idx] = (parent, name, t0, t1)
                    if after is not None:
                        after(args, out, ok, t1 - t0)

            return wrapper

        return make

    # -- per-layer accounting --------------------------------------------

    def _coef_vec_points(self, args, out, ok, dt):
        xs = np.asarray(args[3], dtype=float)
        hi = int(np.count_nonzero(xs > reps.X_CUT))
        self.add("reps.coef_vec.series_points", xs.size - hi)
        self.add("reps.coef_vec.boundary_points", hi)
        self.add("reps.coef_vec.s", dt)
        self.counts["reps.coef_vec.max_batch"] = max(
            self.counts.get("reps.coef_vec.max_batch", 0), xs.size)

    def _scan_coef_vec(self, args, out, ok, dt):
        # the first coef_vec call of a scan is the batched grid; the rest
        # are the single points of golden refinement
        if self._grid_pending:
            self._grid_pending = False
            self.add("norms.grid.points", np.asarray(args[3]).size)
            self.add("norms.grid.s", dt)
        else:
            self.add("norms.refine.calls", 1)
            self.add("norms.refine.s", dt)
        self._coef_vec_points(args, out, ok, dt)

    def _start_scan(self, args):
        self._grid_pending = True

    def _timed(self, key, count=True):
        def after(args, out, ok, dt):
            if count:
                self.add(key + ".calls", 1)
            self.add(key + ".s", dt)
        return after

    def _counted(self, key):
        def after(args, out, ok, dt):
            self.add(key + ".calls", 1)
        return after

    def _coef_after(self, args, out, ok, dt):
        self.add("reps.coef.calls", 1)
        self.add("reps.coef.s", dt)
        if ok:
            self.add(f"reps.coef.method.{out.method}", 1)

    def _oracle_after(self, args, out, ok, dt):
        self.add("reps.coef_oracle.calls", 1)
        self.add("reps.coef_oracle.s", dt)
        if not ok:
            self.add("reps.coef_oracle.failed", 1)

    def _fft_after(self, args, out, ok, dt):
        self.add("reps.fft.calls", 1)
        self.add("reps.fft.samples", np.asarray(args[0]).size)

    def _kronrod(self, fn):
        """Span around the Kronrod routine; counts each batched round of the
        integrand it is given and the abscissae in it."""
        wrapped = self._wrap("integrals.kronrod_quad_vec")(fn)
        tracer = self

        def kronrod(f, *args, **kwargs):
            def counted(nodes):
                tracer.add("integrals.kronrod.rounds", 1)
                tracer.add("integrals.kronrod.evals", np.asarray(nodes).size)
                return f(nodes)
            return wrapped(counted, *args, **kwargs)

        return kronrod

    # -- patching --------------------------------------------------------

    def _patches(self):
        """(module, attribute, decorator) of every wrapped call."""
        w = self._wrap
        return [
            (norms, "scan_character",
             w("norms.scan_character", before=self._start_scan)),
            (norms, "coef_vec", w("reps.coef_vec", self._scan_coef_vec)),
            (norms, "golden_min",
             w("group.golden_min", self._timed("group.golden_min"))),
            (integrals, "coef_vec", w("reps.coef_vec", self._coef_vec_points)),
            (integrals, "kronrod_quad_vec", self._kronrod),
            (integrals, "integral_quadrature",
             w("integrals.integral_quadrature",
               self._timed("integrals.integral_quadrature", count=False))),
            (integrals, "integral_series", w("integrals.integral_series")),
            (integrals, "j_series",
             w("integrals.j_series",
               self._timed("integrals.j_series", count=False))),
            (mpmath, "loggamma",
             w("mpmath.loggamma", self._counted("mpmath.loggamma"))),
            (reps, "coef", w("reps.coef", self._coef_after)),
            (reps, "hyp2f1",
             w("specfun.hyp2f1", self._timed("specfun.hyp2f1"))),
            (reps, "coef_oracle", w("reps.coef_oracle", self._oracle_after)),
            (np.fft, "fft", w("numpy.fft.fft", self._fft_after)),
        ]

    def install(self):
        for module, attr, make in self._patches():
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, make(original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- reporting -------------------------------------------------------

    def self_times(self):
        """Seconds spent in each layer itself: a span's duration minus
        the part of it that its child spans cover."""
        child = [0.0] * len(self.spans)
        for parent, _, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for i, (_, name, t0, t1) in enumerate(self.spans):
            layer = name.split(".")[0]
            out[layer] = out.get(layer, 0.0) + (t1 - t0) - child[i]
        return out


def round_metrics(per_round):
    """Median over traced rounds of each counter (counts repeat exactly
    from round to round; times vary)."""
    keys = {k for counts in per_round for k in counts}
    return {k: statistics.median(c.get(k, 0) for c in per_round)
            for k in keys}


CALIB_REPEATS = 3


def calibrate():
    """Median seconds of a fixed numpy and pure-Python kernel that does not
    touch repnorm: a control for machine drift."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((160, 160)) + 1j * rng.standard_normal((160, 160))
    v = rng.random(400_000)
    times = []
    for _ in range(CALIB_REPEATS):
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(8):
            acc += abs((a @ a)[0, 0]) + abs(np.sum(np.exp(1j * v)))
        for k in range(1, 300_000):
            acc += math.sin(k) / k
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
