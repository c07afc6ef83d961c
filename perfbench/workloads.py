"""The benchmark's three workloads: their operations, their warm-up
operation and the independent checks on their outputs.

A workload is built from a seed.  The seed picks sampled indices, check
points and the order of the operations within a round; it never changes
the sizes, so every seed costs about the same.  Operations call the
layers through their modules (``norms.scan_character``, not a name bound
at import), so the traced run can wrap the layers from outside.

Checks run after the timed rounds and compare against ``reference``,
which evaluates the closed forms in mpmath apart from the program, or
test properties every correct output has (unitarity, Bessel's
inequality, the paper's decay exponent).
"""

import math
from dataclasses import dataclass, field

import mpmath
import numpy as np

import reference

from repnorm import integrals, norms, reps
from repnorm.errors import ConvergenceError
from repnorm.norms import ScanConfig
from repnorm.reps import Complementary, Discrete, Principal


@dataclass
class Workload:
    ops: list            # [(name, thunk)], in the order of round 0
    warmup: object       # one operation of the workload, run by the probe
    check: object        # check(outputs) -> list of failure messages
    # {name: (exception type, message prefix)} of operations that fail on
    # every run because of a known fault of the program
    known_faults: dict = field(default_factory=dict)


def _family(r):
    """The reference module's plain description of a representation."""
    if isinstance(r, Principal):
        return ("principal", r.sigma, r.lam)
    if isinstance(r, Complementary):
        return ("complementary", r.lam)
    return ("discrete", r.ell)


def _label(r):
    if isinstance(r, Principal):
        lam = r.lam
        return f"principal:{r.sigma:g}:{lam.real:g}{lam.imag:+g}i"
    if isinstance(r, Complementary):
        return f"complementary:{r.lam:g}"
    return f"discrete:{r.ell}"


def _reference_m(r):
    return r.ell / 2.0 if isinstance(r, Discrete) else 0


def _rel(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


# ---------------------------------------------------------------------------
# scan-ladder

SCAN_FAMILIES = (Principal(0.0, complex(-0.5, 1.0)), Complementary(-0.25),
                 Discrete(2))
SCAN_LADDER = (16, 64, 256, 1024)
# A quarter of the default grid density and two refined brackets keep one
# round to a few seconds, so a run holds several rounds; on this ladder
# pmin agrees with the default configuration to 12 digits, x_argmax to 8.
# The ladder still spans both regimes: golden refinement dominates up to
# kappa = 256, the grid's boundary branch (x > X_CUT) at kappa = 1024.
SCAN_CONFIG = ScanConfig(grid_c=0.4, refine_top=2, refine_iters=32)
SCAN_SLOPE_TOL = 0.07
# points of the independent t-grid: spread over the window, and close to
# the reported peak, where a refinement that stopped short would show
GRID_WIDE, GRID_NEAR = 48, 16


def _scan_index(r, kappa):
    """Basis index with compact character kappa (2n + 2 sigma, or 2n)."""
    if isinstance(r, Principal):
        return int(round((kappa - 2 * r.sigma) / 2))
    if isinstance(r, Complementary):
        return kappa // 2
    return kappa / 2.0


def scan_ladder(seed):
    rng = np.random.default_rng(seed)
    ops = []
    for r in SCAN_FAMILIES:
        for kappa in SCAN_LADDER:
            ops.append((f"scan {_label(r)} kappa={kappa}",
                        _scan_op(r, kappa)))
    order = rng.permutation(len(ops))
    ops = [ops[i] for i in order]
    grid_seed = int(rng.integers(2 ** 32))

    def check(outputs):
        return _check_scans(outputs, np.random.default_rng(grid_seed))

    return Workload(ops, _scan_op(SCAN_FAMILIES[0], 16), check)


def _scan_op(r, kappa):
    return lambda: norms.scan_character(r, kappa, SCAN_CONFIG)


def _check_scans(outputs, rng):
    bad = []
    for r in SCAN_FAMILIES:
        fam, m = _family(r), _reference_m(r)
        pmins = []
        for kappa in SCAN_LADDER:
            name = f"scan {_label(r)} kappa={kappa}"
            s = outputs[name]
            n = _scan_index(r, kappa)
            pmins.append(s.pmin)
            with mpmath.workdps(reference.DPS):
                at_peak = float(abs(reference.coefficient(fam, n, m,
                                                          s.x_argmax)))
                if _rel(s.pmin, at_peak) > 1e-10:
                    bad.append(f"{name}: pmin {s.pmin!r} but mpmath gives"
                               f" {at_peak!r} at x_argmax")
                if s.pmin > 1.0:
                    bad.append(f"{name}: pmin {s.pmin!r} > 1 breaks unitarity")
                t_max = SCAN_CONFIG.t_pad + math.log1p(kappa)
                dt = SCAN_CONFIG.grid_c / (kappa + 1.0)
                t_peak = math.atanh(math.sqrt(s.x_argmax))
                ts = np.concatenate([
                    (np.arange(GRID_WIDE) + rng.random(GRID_WIDE))
                    * t_max / GRID_WIDE,
                    t_peak + dt * rng.uniform(-4.0, 4.0, GRID_NEAR)])
                for t in ts[ts > 0.0]:
                    x = mpmath.tanh(mpmath.mpf(float(t))) ** 2
                    v = float(abs(reference.coefficient(fam, n, m, x)))
                    if v > s.pmin + s.err_est:
                        bad.append(f"{name}: |coef| {v!r} at t={t!r} exceeds"
                                   f" pmin {s.pmin!r}")
                        break
        slope = np.polyfit(np.log(SCAN_LADDER), np.log(pmins), 1)[0]
        if abs(slope + 0.5) > SCAN_SLOPE_TOL:
            bad.append(f"{_label(r)}: log-log slope of pmin {slope:+.4f},"
                       f" want -0.5 +- {SCAN_SLOPE_TOL}")
    return bad


# ---------------------------------------------------------------------------
# integral-ladder

INTEGRAL_FAMILIES = (Principal(0.0, complex(-0.5, 1.0)), Principal(0.0, -0.5),
                     Complementary(-0.25), Discrete(2), Principal(0.5, -0.5))
REDUCIBLE = Principal(0.5, -0.5)
INTEGRAL_LADDER = (4, 16, 64, 256)
INTEGRAL_EPS = (0.25, 0.4)
ROUTE_TOL = 1e-9
MPMATH_POINTS = 2


def integral_ladder(seed):
    rng = np.random.default_rng(seed)
    ops = []
    for r in INTEGRAL_FAMILIES:
        for eps in INTEGRAL_EPS:
            for n in INTEGRAL_LADDER:
                tag = f"{_label(r)} n={n} eps={eps:g}"
                ops.append((f"series {tag}", _series_op(r, n, eps)))
                ops.append((f"quadrature {tag}", _quadrature_op(r, n, eps)))
    order = rng.permutation(len(ops))
    ops = [ops[i] for i in order]
    generic = [(r, n, eps) for r in INTEGRAL_FAMILIES if r != REDUCIBLE
               for eps in INTEGRAL_EPS for n in INTEGRAL_LADDER]
    picks = [generic[i] for i in rng.choice(len(generic), MPMATH_POINTS,
                                            replace=False)]

    def check(outputs):
        return _check_integrals(outputs, picks)

    return Workload(ops, _series_op(INTEGRAL_FAMILIES[0], 4, 0.25), check)


def _series_op(r, n, eps):
    return lambda: integrals.integral_series(r, n, eps)


def _quadrature_op(r, n, eps):
    return lambda: integrals.integral_quadrature(r, n, eps)


def _check_integrals(outputs, picks):
    bad = []
    for r in INTEGRAL_FAMILIES:
        for eps in INTEGRAL_EPS:
            for n in INTEGRAL_LADDER:
                tag = f"{_label(r)} n={n} eps={eps:g}"
                s = outputs[f"series {tag}"].value
                q = outputs[f"quadrature {tag}"].value
                if _rel(q, s) > ROUTE_TOL:
                    bad.append(f"{tag}: series {s!r} and quadrature {q!r}"
                               f" disagree")
                if r == REDUCIBLE:
                    want = reference.reducible_beta(n, eps)
                    for route, v in (("series", s), ("quadrature", q)):
                        if _rel(v, want) > ROUTE_TOL:
                            bad.append(f"{tag}: {route} {v!r}, mpmath.beta"
                                       f" gives {want!r}")
    for r, n, eps in picks:
        tag = f"{_label(r)} n={n} eps={eps:g}"
        want = reference.weighted_integral(_family(r), n, _reference_m(r), eps)
        for route in ("series", "quadrature"):
            v = outputs[f"{route} {tag}"].value
            if _rel(v, want) > ROUTE_TOL:
                bad.append(f"{tag}: {route} {v!r}, mpmath.quad gives {want!r}")
    return bad


# ---------------------------------------------------------------------------
# coef-columns

# the five-family grid of acceptance criteria 2 and 3, written out here so
# that the workload does not move if the suite's grid does
COLUMN_FAMILIES = (Principal(0.0, complex(-0.5, 1.0)),
                   Principal(0.5, complex(-0.5, 0.7)),
                   Complementary(-0.25), Discrete(2), Discrete(3))
COLUMN_XS = (0.5, 0.9, 0.99, 0.999, 0.9999)
COLUMN_NMAX = (128, 1024)
SCALAR_PER_POINT = 2
SCALAR_SPAN = (64, 128)       # |n - m| of the sampled scalar indices
ENTRIES_PER_COLUMN = 2
COEF_TOL = 1e-9
BESSEL_SLACK = 1e-9
# The circle oracle sizes its FFT from n_max alone, but the transformed
# circle function has a branch point about (1-x)/2 from the real axis, so
# these columns raise ConvergenceError on every run.  They stay in the
# workload and count as failed operations; any other failure of them, or a
# failure of any other operation, is a check failure.
CIRCLE_FAULTS = ((0.999, 128), (0.9999, 128), (0.9999, 1024))
CIRCLE_FAULT = (ConvergenceError, "circle oracle not settled")


def _column_name(r, x, n_max):
    return f"column {_label(r)} x={x:g} nmax={n_max}"


def coef_columns(seed):
    rng = np.random.default_rng(seed)
    ops = []
    scalars = []
    for r in COLUMN_FAMILIES:
        m = _reference_m(r)
        for x in COLUMN_XS:
            for n_max in COLUMN_NMAX:
                ops.append((_column_name(r, x, n_max),
                            _column_op(r, m, x, n_max)))
            for _ in range(SCALAR_PER_POINT):
                d = int(rng.integers(SCALAR_SPAN[0], SCALAR_SPAN[1] + 1))
                if not isinstance(r, Discrete) and rng.random() < 0.5:
                    d = -d
                n = m + d
                name = f"coef {_label(r)} x={x:g} n={n:g}"
                scalars.append((name, r, n, m, x))
                ops.append((name, _coef_op(r, n, m, x)))
    order = rng.permutation(len(ops))
    ops = [ops[i] for i in order]
    entry_seed = int(rng.integers(2 ** 32))
    known = {_column_name(r, x, n_max): CIRCLE_FAULT for r in COLUMN_FAMILIES
             if not isinstance(r, Discrete) for x, n_max in CIRCLE_FAULTS}

    def check(outputs):
        return _check_columns(outputs, scalars,
                              np.random.default_rng(entry_seed))

    warm = COLUMN_FAMILIES[0]
    return Workload(ops, _column_op(warm, 0, 0.99, 1024), check, known)


def _column_op(r, m, x, n_max):
    return lambda: reps.coef_oracle(r, m, x, n_max=n_max)


def _coef_op(r, n, m, x):
    return lambda: reps.coef(r, n, m, x)


def _check_columns(outputs, scalars, rng):
    bad = []
    for name, r, n, m, x in scalars:
        cv = outputs[name]
        want = reference.coef(_family(r), n, m, x)
        if abs(cv.value - want) > COEF_TOL * abs(want) + cv.err_est:
            bad.append(f"{name}: {cv.value!r} ({cv.method}), mpmath gives"
                       f" {want!r}")
    for r in COLUMN_FAMILIES:
        m = _reference_m(r)
        for x in COLUMN_XS:
            for n_max in COLUMN_NMAX:
                name = _column_name(r, x, n_max)
                if name not in outputs:
                    continue            # a failed operation has no output
                column, err = outputs[name]
                power = sum(abs(v) ** 2 for v in column.values())
                if power > 1.0 + BESSEL_SLACK:
                    bad.append(f"{name}: sum |c|^2 = {power!r} > 1")
                keys = sorted(column)
                for i in rng.choice(len(keys), ENTRIES_PER_COLUMN,
                                    replace=False):
                    n = keys[i]
                    want = reference.coef(_family(r), n, m, x)
                    if abs(column[n] - want) > COEF_TOL * abs(want) + err:
                        bad.append(f"{name}: entry {n:g} is {column[n]!r},"
                                   f" mpmath gives {want!r}")
    return bad


WORKLOADS = {
    "scan-ladder": scan_ladder,
    "integral-ladder": integral_ladder,
    "coef-columns": coef_columns,
}
