"""The acceptance suite: ten numbered checks, each packaged as a record.

Every check compares two routes that share no code beyond the error
classes (closed form against quadrature oracle, termwise series against
adaptive quadrature, fitted exponents against their targets), so a pass
certifies agreement of independent computations rather than self
consistency.  The checks are deterministic: randomized parameter draws
take their generator from an explicit seed.

Criteria 7 and 8 share one set of norm scans (the expensive step); use
run_all to get that reuse, or call criterion_7/criterion_8 directly and
thread the scans through by hand.
"""

import math
import time
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import GenericityWarning, PreconditionError
from .specfun import hyp2f1, pochhammer
from .reps import (Complementary, Discrete, Principal, coef_oracle,
                   parseval_defect)
from .norms import (ScanConfig, default_ladder, distance_estimate,
                    fit_exponent, pmin_scan, sobolev_gap_estimate)
from .integrals import (faulhaber_sum, hyp2f1_euler_oracle,
                        integral_quadrature, integral_series,
                        reducible_point_integral, stirling_ratio_check)
from . import structure

DEFAULT_SEED = 20260814

# the five-member family grid used by criteria 2 and 3
GRID_REPS = (
    Principal(0.0, complex(-0.5, 1.0)),
    Principal(0.5, complex(-0.5, 0.7)),
    Complementary(-0.25),
    Discrete(2),
    Discrete(3),
)

# criteria 7 and 8: each family, its bound on the fitted log coefficient
# |beta| (or None) and its gap window; the separation is on the first
SCAN_FAMILIES = (
    (Principal(0.0, complex(-0.5, 1.0)), None, (0.9, 1.1)),
    (Complementary(-0.25), None, (0.85, 1.15)),
    (Discrete(2), 0.2, (0.9, 1.1)),
)


@dataclass(frozen=True)
class ReportRecord:
    """One acceptance check: what was required, what came out, and whether
    the two agree.  passed is always computed, never set by hand."""

    criterion_id: str
    expected: str
    observed: str
    tolerance: str
    passed: bool
    runtime_ms: int

    def as_dict(self):
        return {
            "criterion_id": self.criterion_id,
            "expected": self.expected,
            "observed": self.observed,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "runtime_ms": self.runtime_ms,
        }

    def summary_line(self):
        flag = "PASS" if self.passed else "FAIL"
        return (f"[{flag}] {self.criterion_id}: {self.observed}"
                f" (want {self.expected}, tol {self.tolerance},"
                f" {self.runtime_ms} ms)")


def _finish(cid, expected, observed, tolerance, passed, t0):
    ms = int(round(1000.0 * (time.perf_counter() - t0)))
    return ReportRecord(cid, expected, observed, tolerance, bool(passed), ms)


def criterion_1(seed=DEFAULT_SEED, tol=1e-8):
    """Hypergeometric identities: terminating series against explicit
    finite sums, and the power series against the Euler-integral oracle
    on randomized admissible parameter tuples."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)

    worst_fin = 0.0
    for _ in range(60):
        k = int(rng.integers(0, 13))
        a = -float(k)
        b = complex(4.0 * rng.random() - 2.0, 4.0 * rng.random() - 2.0)
        c = complex(0.25 + 3.0 * rng.random(), 2.0 * rng.random() - 1.0)
        z = float(1.8 * rng.random() - 0.9)
        ref = 0.0 + 0.0j
        scale = 1.0            # alternating sums cancel; measure against
        for j in range(k + 1):  # the term magnitudes, not the tiny result
            term = (pochhammer(a, j) * pochhammer(b, j) * z ** j
                    / (pochhammer(c, j) * math.factorial(j)))
            ref += term
            scale += abs(term)
        got, _ = hyp2f1(a, b, c, z)
        worst_fin = max(worst_fin, abs(got - ref) / scale)

    # draws stay in the oracle's smooth zone (Re b > 1, Re(c-b) > 1) so
    # its reported accuracy is far below the tolerance being certified
    worst_dual = 0.0
    for _ in range(500):
        b = complex(1.1 + 2.5 * rng.random(), rng.random() - 0.5)
        c = b + complex(1.1 + 2.5 * rng.random(), 0.6 * rng.random() - 0.3)
        a = complex(4.0 * rng.random() - 2.0, 4.0 * rng.random() - 2.0)
        z = float(1.8 * rng.random() - 0.9)
        s, _ = hyp2f1(a, b, c, z)
        o, _ = hyp2f1_euler_oracle(a, b, c, z)
        worst_dual = max(worst_dual, abs(s - o) / max(abs(o), 1e-12))

    passed = worst_fin <= 1e-13 and worst_dual <= tol
    return _finish(
        "1-hypergeometric-identities",
        "terminating = finite sum; series = Euler oracle (500 tuples)",
        f"finite-sum defect {worst_fin:.2e}, dual-route defect {worst_dual:.2e}",
        f"1e-13 / {tol:g}", passed, t0)


def criterion_2(tol=1e-8):
    """Closed-form coefficients against the quadrature oracle across the
    family grid, full columns up to index 128, eight Cartan points: one
    oracle column per point, and one batched closed_form call per
    (family, n) over all eight, without the slope.  x = 0.8 is the
    series' last point, X_CUT itself, and the three above it check the
    ODE branch from its first centres to 0.995; a nan fails the
    comparison."""
    t0 = time.perf_counter()
    xs = np.array([0.1, 0.3, 0.5, 0.7, 0.8, 0.9, 0.99, 0.995])
    worst = 0.0
    passed = True
    for r in GRID_REPS:
        m = r.m_ref
        columns = []
        for x in xs.tolist():
            column, oerr = coef_oracle(r, m, x, n_max=128)
            peak = max(abs(v) for v in column.values())
            columns.append((column, oerr, peak))
        for n in r.indices(128):
            values, errs, _, _ = r.closed_form(n, m, xs)
            for (column, oerr, peak), cv, err in zip(
                    columns, values.tolist(), errs.tolist()):
                ov = column[n]
                delta = abs(cv - ov)
                if not (delta <= tol * abs(ov) + oerr + err):
                    passed = False
                if abs(ov) >= 1e-6 * peak:
                    worst = max(worst, delta / abs(ov))
    passed = passed and worst <= tol
    return _finish(
        "2-coefficient-dual-paths",
        "closed form = oracle on 5 families x |n| <= 128 x 8 points",
        f"worst resolvable relative deviation {worst:.2e}",
        f"{tol:g} relative", passed, t0)


def criterion_3(tol=1e-6):
    """Unitarity: each family-grid column is a unit vector in the square
    sum sense at three Cartan points."""
    t0 = time.perf_counter()
    worst = 0.0
    for r in GRID_REPS:
        if not r.unitary:
            return _finish("3-parseval", "unitary grid", f"{r!r} not unitary",
                           "exact", False, t0)
        for x in (0.5, 0.9, 0.99):
            worst = max(worst, parseval_defect(r, r.m_ref, x))
    return _finish(
        "3-parseval",
        "sum of squared column magnitudes = 1",
        f"worst defect {worst:.2e}",
        f"{tol:g}", worst <= tol, t0)


def criterion_4(tol=1e-10):
    """At the parity-1/2 boundary point the integral collapses to a single
    signed Beta value; both integral routes must land on it, with the sign
    alternation exact."""
    t0 = time.perf_counter()
    r = Principal(0.5, -0.5)
    worst_q = worst_s = 0.0
    signs_exact = True
    for eps in (0.25, 0.5, 0.75):
        for n in range(0, 129):
            ref = reducible_point_integral(n, eps)
            q = integral_quadrature(r, n, eps)
            s = integral_series(r, n, eps)
            worst_q = max(worst_q, abs(q.value - ref))
            worst_s = max(worst_s, abs(s.value - ref))
            want = -1.0 if n % 2 else 1.0
            for v in (q.value, s.value):
                if math.copysign(1.0, v.real) != want or abs(v.imag) > 1e-12:
                    signs_exact = False
    passed = worst_q <= tol and worst_s <= tol and signs_exact
    return _finish(
        "4-collapsed-integral",
        "both routes = signed Beta closed form, sign pattern exact",
        f"quadrature defect {worst_q:.2e}, series defect {worst_s:.2e},"
        f" signs {'exact' if signs_exact else 'BROKEN'}",
        f"{tol:g} absolute", passed, t0)


def criterion_5(tol=1e-6):
    """Termwise Beta-moment series against adaptive quadrature at the real
    parity-0 boundary parameter, both admissible measure exponents."""
    t0 = time.perf_counter()
    r = Principal(0.0, -0.5)
    worst = 0.0
    for n in range(0, 65):
        for eps in (0.25, 0.4):
            s = integral_series(r, n, eps)
            q = integral_quadrature(r, n, eps)
            worst = max(worst, abs(s.value - q.value) / abs(s.value))
    return _finish(
        "5-series-quadrature-identity",
        "series route = quadrature route, n <= 64",
        f"worst relative deviation {worst:.2e}",
        f"{tol:g} relative", worst <= tol, t0)


def _integral_ladder_fit(r, eps, ns):
    """Fitted decay exponent of the weighted integrals along a geometric
    ladder, with the near-zero-amplitude rerun at a shifted measure."""
    # nearest in-spectrum index at or below n
    kappas = [r.indices(n)[-1] for n in ns]
    values = np.array([abs(integral_series(r, k, eps).value) for k in kappas])
    degenerate = np.any(values < 1e-250) or not np.all(np.isfinite(values))
    fit = None if degenerate else fit_exponent(kappas, values)
    if degenerate or math.exp(fit.log_amp) < 1e-10:
        what = "degenerate integral" if degenerate else "near-zero fitted"
        warnings.warn(GenericityWarning(
            f"{what} amplitude for {r!r} at eps={eps};"
            f" rerunning at eps={eps + 0.05}"))
        return _integral_ladder_fit(r, eps + 0.05, ns)
    return fit, eps


def criterion_6(tol=0.05):
    """Decay of the weighted integrals: fitted exponent -(1/2 + eps) on
    three families, ladder up to 4096."""
    t0 = time.perf_counter()
    ns = [16 * 2 ** k for k in range(9)]
    reports = []
    passed = True
    for r in (Principal(0.0, -0.5), Complementary(-0.25), Discrete(2)):
        fit, eps_used = _integral_ladder_fit(r, 0.25, ns)
        target = -(0.5 + eps_used)
        ok = abs(fit.alpha - target) <= tol
        passed = passed and ok
        reports.append(f"{fit.alpha:+.3f} (want {target:+.2f})")
    return _finish(
        "6-integral-decay-exponent",
        "fitted alpha = -(1/2 + eps) for principal/complementary/discrete",
        "; ".join(reports),
        f"{tol:g}", passed, t0)


def criterion_7(tol=0.07):
    """Minimal-norm decay: fitted exponent -1/2 on three families, with the
    log-correction coefficient pinned near zero for the discrete member.
    Returns (record, scans) so criterion 8 can reuse the scans."""
    t0 = time.perf_counter()
    config = ScanConfig()
    scans = {r: pmin_scan(r, default_ladder(r), config)
             for r, _, _ in SCAN_FAMILIES}
    for samples in scans.values():
        for outcome in samples:
            if isinstance(outcome, Exception):
                raise outcome
    reports = []
    passed = True
    for r, beta_bound, _ in SCAN_FAMILIES:
        samples = scans[r]
        fit = fit_exponent([s.n for s in samples], [s.pmin for s in samples])
        ok = abs(fit.alpha + 0.5) <= tol
        if beta_bound is not None:
            ok = ok and abs(fit.beta) <= beta_bound
            reports.append(f"{fit.alpha:+.3f} (beta {fit.beta:+.3f})")
        else:
            reports.append(f"{fit.alpha:+.3f}")
        passed = passed and ok
    record = _finish(
        "7-minimal-norm-decay",
        "fitted alpha = -1/2; discrete log coefficient |beta| <= 0.2",
        "; ".join(reports),
        f"{tol:g} / 0.2", passed, t0)
    return record, scans


def criterion_8(scans):
    """Norm-gap estimates from the criterion-7 scans: the proxy-to-minimal
    separation sits at 1, and the unitary-to-proxy separation at 1/2.

    Both numbers derive from criterion 7's pmin values, because
    pmax_proxy is 1/pmin: the gap is the exponent fitted to
    pmax_proxy/pmin = pmin^-2, the separation the one fitted to pmin^-1,
    so the gap is twice the separation and this check adds no evidence of
    its own to criterion 7.  An independent gap check would need the dual
    norm computed rather than taken as 1/pmin."""
    t0 = time.perf_counter()
    reports = []
    passed = True
    for r, _, (lo, hi) in SCAN_FAMILIES:
        gap = sobolev_gap_estimate(scans[r])
        passed = passed and lo <= gap <= hi
        reports.append(f"gap {gap:.3f} in [{lo}, {hi}]")
    samples = scans[SCAN_FAMILIES[0][0]]
    dist = distance_estimate([s.pmax_proxy for s in samples],
                             [1.0] * len(samples), [s.n for s in samples])
    passed = passed and 0.43 <= dist <= 0.57
    reports.append(f"unitary-proxy separation {dist:.3f}")
    return _finish(
        "8-sobolev-gap",
        "gap = 1 per family; unitary-proxy separation = 1/2",
        "; ".join(reports),
        "[0.9,1.1] ([0.85,1.15] complementary) / [0.43,0.57]",
        passed, t0)


def criterion_9():
    """Structural constants, gap bounds and domination thresholds as exact
    rationals."""
    t0 = time.perf_counter()
    bad = []
    for n in range(2, 11):
        so, su, sp, sl = (structure.LieType(k, n)
                          for k in ("so1n", "su1n", "sp1n", "slnR"))
        checks = [
            (structure.structural_constant(so), Fraction(n - 1, 2)),
            (structure.structural_constant(su), Fraction(n)),
            (structure.structural_constant(sp), Fraction(2 * n + 1)),
            (structure.structural_constant(sl), Fraction(n * (n * n - 1), 12)),
            (structure.domination_threshold(su, structure.PRINCIPAL_MPS),
             Fraction(2 * n - 1, 2)),
            (structure.domination_threshold(su, structure.GENERALIZED_VERMA),
             Fraction(n, 2)),
            (structure.domination_threshold(su, structure.OTHER_DISCRETE),
             Fraction(n - 1)),
        ]
        for got, want in checks:
            if got != want:
                bad.append(f"n={n}: {got} != {want}")
    if structure.structural_constant(structure.LieType("f4m20")) != 11:
        bad.append("exceptional entry != 11")
    passed = not bad
    return _finish(
        "9-structural-constants",
        "exact rational table, n <= 10",
        "all exact" if passed else "; ".join(bad),
        "exact", passed, t0)


def criterion_10():
    """Asymptotic lemmas: the three-term partial-power-sum formula against
    direct summation, and boundedness of the Gamma-ratio defect."""
    t0 = time.perf_counter()
    direct = sum(k ** -0.5 for k in range(1, 101))
    err_half = abs(faulhaber_sum(100, 0.5) - direct)

    c = complex(1.0, 1.0)
    errs = []
    for n in (1000, 2000, 4000):
        direct = sum(k ** -c for k in range(1, n + 1))
        errs.append(abs(faulhaber_sum(n, c) - direct))
    ratios = [errs[i + 1] / errs[i] for i in range(2)]
    decay_ok = all(rho <= 0.6 for rho in ratios)

    stirling_worst = max(
        stirling_ratio_check(z, alpha)
        for z in (1e2, 1e3, 1e4)
        for alpha in (0.5, complex(-0.5, 0.3)))

    passed = err_half < 1e-3 and decay_ok and stirling_worst < 1.0
    return _finish(
        "10-asymptotic-lemmas",
        "partial-sum formula error < 1e-3 and o(1/n); Gamma-ratio defect"
        " bounded",
        f"error {err_half:.2e}; doubling ratios"
        f" {', '.join(f'{rho:.2f}' for rho in ratios)};"
        f" Gamma defect {stirling_worst:.3f}",
        "1e-3 / 0.6 / 1.0", passed, t0)


def run_all(seed=DEFAULT_SEED, tolerances=None):
    """All ten checks in order, sharing the norm scans between 7 and 8.

    tolerances maps criterion numbers (as strings "1".."7") to overrides
    of the primary tolerance of that check; unknown keys are rejected."""
    tolerances = dict(tolerances or {})
    known = {str(k) for k in range(1, 8)}
    unknown = set(tolerances) - known
    if unknown:
        raise PreconditionError(
            f"no tolerance knob for criteria {sorted(unknown)}")

    def tol_kw(key):
        return {"tol": float(tolerances[key])} if key in tolerances else {}

    records = [
        criterion_1(seed=seed, **tol_kw("1")),
        criterion_2(**tol_kw("2")),
        criterion_3(**tol_kw("3")),
        criterion_4(**tol_kw("4")),
        criterion_5(**tol_kw("5")),
        criterion_6(**tol_kw("6")),
    ]
    rec7, scans = criterion_7(**tol_kw("7"))
    records.append(rec7)
    records.append(criterion_8(scans))
    records.append(criterion_9())
    records.append(criterion_10())
    return records
