"""The repnorm benchmark: one workload, timed per operation, checked
against mpmath, with an optional traced run for per-layer figures.

    python3 perfbench/run.py --workload scan-ladder --seed 1 --seconds 30 \\
        --trace 0

Run it from the root of a source checkout; the package is imported from
src/, nothing needs installing.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones (setup_s, wall_s, peak_rss_mb); with
--trace 1 they are the per-layer ones, and the spans go to
perfbench/out/trace-<workload>-<seed>.json.

Everything runs in this one process on one thread, apart from the set-up
probes, which are fresh interpreters started one at a time.  The timed
part repeats whole rounds of the workload's operations, in a seeded order,
with PROBES_PER_ROUND set-up probes after each round, until the next
round and its probes would overrun --seconds (at least MIN_ROUNDS
rounds).  Probes still missing then run at the end, so there are at
least SETUP_PROBES.

On a shared 2-core VM the machine's speed drifted by up to 2x, in phases
of 10-20 s that cover whole runs, so raw times of the same work spread too
far from run to run.
Every timing is therefore taken against a fixed kernel that does not use
repnorm (numpy work of the two kinds the program does), run just
before and just after the timed span: an operation's time is reported as
seconds x CALIB_REF_S / (geometric mean of the two kernel times), that is,
in seconds on a machine where the kernel takes CALIB_REF_S.  The set-up
probes are not rescaled: a fresh interpreter's time, mostly imports, did
not follow the kernel, neither probe by probe nor from run to run, and
rescaling it only widened its spread.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_ROUNDS = 3
PROBES_PER_ROUND = 2
SETUP_PROBES = 8
PROBE_TIMEOUT_S = 30
# one thread everywhere: a multi-threaded BLAS would compete for the two
# cores with whatever else runs on the machine
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the calibration kernel's time at the reference speed: about its median
# on a 2-core Xeon VM with Python 3.11 and numpy 2.4
CALIB_REF_S = 0.007


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


class Calibration:
    """The fixed kernel that times are taken against, about 8 ms of numpy
    work in two halves: many calls on a 16-point array, where the cost is
    the interpreter and numpy's dispatch, as in the program's single-point
    calls; and one pass over an array larger than the L2 cache, as in its
    batched calls."""

    def __init__(self, np):
        self.np = np
        rng = np.random.default_rng(0)
        self.small = rng.random(16)
        self.large = rng.random(75_000)
        self.samples = []

    def __call__(self):
        """Seconds the kernel takes now; every sample is kept, for the
        run's summary."""
        np = self.np
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(500):
            acc += float(np.sum(np.exp(1j * self.small)).real)
        acc += float(np.sum(np.exp(1j * self.large)).real)
        seconds = time.perf_counter() - t0
        self.samples.append(seconds)
        return seconds


def calibrated(seconds, before, after):
    """seconds, rescaled to the reference speed by the kernel times taken
    just before and just after them."""
    return seconds * CALIB_REF_S / math.sqrt(before * after)


def run_probe(workload):
    """Set-up time of one fresh interpreter that imports the package and
    finishes the workload's warm-up operation: (wall, import, warm-up)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        fail(f"set-up probe exited {proc.returncode}: {proc.stderr}")
    split = json.loads(proc.stdout.strip().splitlines()[-1])
    return wall, split["import_s"], split["warmup_s"]


def run_round(ops, order, calib):
    """Run every operation once; returns ({name: calibrated seconds},
    {name: output or exception}).  A failed operation's time up to its
    exception counts."""
    times, outputs = {}, {}
    before = calib()
    for i in order:
        name, thunk = ops[i]
        t0 = time.perf_counter()
        try:
            result = thunk()
        except Exception as exc:     # a failed operation; counted, not fatal
            # without its traceback, the exception holds no frames, and so
            # none of the failed call's arrays
            result = exc.with_traceback(None)
        seconds = time.perf_counter() - t0
        after = calib()
        times[name] = calibrated(seconds, before, after)
        before = after
        outputs[name] = result
    return times, outputs


def peak_rss_mb():
    """Peak resident set of this process's own address space (VmHWM).
    ru_maxrss is not used: Linux carries it over exec from the parent, so
    it would report the launcher's size whenever that is the larger."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    fail("no VmHWM line in /proc/self/status")


def same_output(a, b):
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


def main(argv=None):
    if not (ROOT / "src" / "repnorm" / "__init__.py").is_file():
        fail(f"no repnorm sources under {ROOT / 'src'}; run from a checkout")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy as np
    from workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    workload = WORKLOADS[args.workload](args.seed)
    ops = workload.ops
    rng = np.random.default_rng([args.seed, 1])
    calib = Calibration(np)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()

    # only the first round's outputs are kept; each later round is compared
    # with them and dropped before the next starts, so memory does not grow
    # with the number of rounds
    rounds, first, changed, traced_counts = [], None, set(), []
    plain_idx, traced_idx = [], []
    # set-up probes sit between the rounds, so that setup_s samples the same
    # span of machine time as wall_s
    probes, probe_s = [], 0.0
    need = MIN_ROUNDS * (2 if tracer is not None else 1)
    t_start = time.perf_counter()
    while True:
        # trace mode alternates plain and traced rounds, so the overhead is
        # measured against plain rounds of the same run
        traced = tracer is not None and len(rounds) % 2 == 1
        order = range(len(ops)) if not rounds else rng.permutation(len(ops))
        if traced:
            tracer.counts = {}
            tracer.install()
        try:
            times, outputs = run_round(ops, order, calib)
        finally:
            if traced:
                tracer.uninstall()
        rounds.append(times)
        if first is None:
            first = outputs
        changed.update(name for name, out in outputs.items()
                       if not same_output(first[name], out))
        del outputs
        if traced:
            traced_counts.append(tracer.counts)
        (traced_idx if traced else plain_idx).append(len(rounds) - 1)
        t_probe = time.perf_counter()
        for _ in range(PROBES_PER_ROUND):
            probes.append(run_probe(args.workload))
        probe_s += time.perf_counter() - t_probe
        n = len(rounds)
        if n >= need and (time.perf_counter() - t_start) * (n + 1) / n \
                > args.seconds:
            break
    t_probe = time.perf_counter()
    while len(probes) < SETUP_PROBES:
        probes.append(run_probe(args.workload))
    probe_s += time.perf_counter() - t_probe
    setup_s, import_s, warmup_s = (statistics.median(p[i] for p in probes)
                                   for i in range(3))
    peak_rss = peak_rss_mb()
    t_checks = time.perf_counter()

    names = [name for name, _ in ops]
    problems = [f"{name}: output changed between rounds"
                for name in names if name in changed]
    failed_ops = [name for name in names if isinstance(first[name], Exception)]
    unexpected = []
    for name in failed_ops:
        exc = first[name]
        print(f"perfbench: failed {name}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        kind, prefix = workload.known_faults.get(name, (None, None))
        if type(exc) is not kind or not str(exc).startswith(prefix):
            unexpected.append(f"{name}: unexpected failure")
    if unexpected:
        # the checks need every output that is not a known fault
        problems += unexpected + ["output checks skipped"]
    else:
        problems += workload.check(
            {name: out for name, out in first.items()
             if name not in failed_ops})
    for msg in problems:
        print(f"perfbench: CHECK FAILED {msg}", file=sys.stderr)

    def wall(indices):
        return sum(statistics.median(rounds[i][name] for i in indices)
                   for name in names)

    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall(plain_idx), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss, "unit": "MB"},
        }
    else:
        plain_wall, traced_wall = wall(plain_idx), wall(traced_idx)
        values = tracing.round_metrics(traced_counts)
        values["setup.import_s"] = import_s
        values["setup.warmup_s"] = warmup_s
        values["machine.calib_s"] = tracing.calibrate()
        values["trace.overhead_pct"] = 100.0 * (traced_wall / plain_wall - 1.0)
        metrics = {name: {"value": values.get(name, 0), "unit": unit}
                   for name, unit in tracing.PER_LAYER}
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-{args.seed}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "rounds_plain": len(plain_idx),
                       "rounds_traced": len(traced_idx),
                       "wall_s_plain": plain_wall,
                       "wall_s_traced": traced_wall,
                       "self_s": {k: v / len(traced_idx) for k, v in
                                  sorted(tracer.self_times().items())},
                       "metrics": {k: m["value"] for k, m in metrics.items()},
                       "span_fields": ["parent", "name", "start", "end"],
                       "spans": tracer.spans}, fh)
        print(f"perfbench: tracing overhead"
              f" {values['trace.overhead_pct']:+.1f}% of wall_s"
              f" ({traced_wall:.3f} s traced, {plain_wall:.3f} s plain);"
              f" spans in {path.relative_to(ROOT)}", file=sys.stderr)

    print(f"perfbench: {args.workload} seed {args.seed}: {len(rounds)} rounds"
          f" of {len(ops)} operations, {len(probes)} set-up probes;"
          f" rounds {t_checks - t_start - probe_s:.1f} s,"
          f" probes {probe_s:.1f} s,"
          f" checks {time.perf_counter() - t_checks:.1f} s;"
          f" calibration kernel median"
          f" {1e3 * statistics.median(calib.samples):.2f} ms", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(rounds) * len(ops),
        "failed": len(rounds) * len(failed_ops),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
