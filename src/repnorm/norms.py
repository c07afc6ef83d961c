"""Sobolev weights on the compact spectrum, peak scans along the flow, and
exponent fitting.

The scan answers one question per basis vector: how large does its matrix
coefficient against the reference vector get along the one-parameter flow?
That peak is the smallest constant any flow-invariant bound must carry, so
it serves as the lower norm p_min; its reciprocal is the standard proxy for
the largest norm compatible with the same pairing.  Decay exponents are then
read off a geometric ladder of compact characters by least squares in
log coordinates, with a log-log column so that genuine logarithmic factors
show up as a nonzero secondary coefficient instead of polluting the slope.
"""

import concurrent.futures
import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError, RepnormError, ScanError
from .reps import coef_vec

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def sobolev_multiplier(kappa, s):
    """Weight (1 + kappa^2)^(s/2) of the character kappa at smoothness s."""
    return (1.0 + float(kappa) ** 2) ** (0.5 * s)


@dataclass(frozen=True)
class ScanConfig:
    """Knobs of the peak scan.

    grid_c sets the step dt = grid_c/(kappa+1); t_pad sets the window
    T = t_pad + log(1+kappa).  Beyond the uniform grid, three concentration
    seeds x = 1 - 1/(1 + kappa/u) are always probed: that is where a
    coefficient peaking near the boundary would live.
    """
    grid_c: float = 0.1
    t_pad: float = 6.0
    seed_scales: tuple = (0.5, 1.0, 2.0)
    refine_top: int = 8
    refine_iters: int = 48
    threads: int = 1


@dataclass(frozen=True)
class NormSample:
    """One scanned character: the peak (pmin), where it sits, the reciprocal
    proxy for the dual norm, and the s = 1/2 Sobolev weight of n."""
    n: int
    pmin: float
    x_argmax: float
    pmax_proxy: float
    q_s_half: float
    err_est: float


def golden_min(f, lo, hi, iters=60):
    """Golden-section minimum of f on [lo, hi]; returns (x, f(x))."""
    a, b = float(lo), float(hi)
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
        if b - a < 1e-14 * (1.0 + abs(a)):
            break
    return (x1, f1) if f1 <= f2 else (x2, f2)


def scan_character(r, kappa, config=None):
    """Peak of |coef(n_kappa, m_ref; a_t)| over t in (0, T].

    Uniform grid plus concentration seeds, then golden refinement around the
    best few grid points.  A peak that lands on the far end of the window is
    not a peak, it is a truncation: that raises ScanError rather than
    returning a lower bound quietly.
    """
    config = config or ScanConfig()
    kappa = int(kappa)
    n_basis, m_ref = r.basis_index(kappa), r.m_ref

    dt = config.grid_c / (kappa + 1.0)
    t_max = config.t_pad + math.log1p(kappa)
    ts = np.arange(dt, t_max + 0.5 * dt, dt)
    seeds = []
    for u in config.seed_scales:
        x_seed = 1.0 - 1.0 / (1.0 + kappa / u)
        if 0.0 < x_seed < 1.0:
            t_seed = math.atanh(math.sqrt(x_seed))
            if t_seed < t_max:
                seeds.append(t_seed)
    ts = np.unique(np.concatenate([ts, np.array(seeds)]))

    xs = np.tanh(ts) ** 2
    mags = np.abs(coef_vec(r, n_basis, m_ref, xs))

    order = np.argsort(mags)[::-1]
    top = order[: config.refine_top]

    def neg_mag(t):
        x = math.tanh(t) ** 2
        return -abs(coef_vec(r, n_basis, m_ref, np.array([x]))[0])

    best_t, best_val = 0.0, 0.0
    for idx in top:
        lo = ts[idx] - dt if idx > 0 else 1e-12
        hi = min(ts[idx] + dt, t_max)
        t_star, neg = golden_min(neg_mag, lo, hi, iters=config.refine_iters)
        if -neg > best_val:
            best_t, best_val = t_star, -neg

    if best_t >= t_max - 2.0 * dt:
        raise ScanError(
            f"peak of character {kappa} sits at the window end t={best_t:.3f}"
            f" (T={t_max:.3f}); enlarge t_pad")
    if best_val <= 0.0:
        raise ScanError(f"no positive peak found for character {kappa}")

    pmin = float(best_val)
    err = 3e-9 * pmin
    return NormSample(
        n=kappa,
        pmin=pmin,
        x_argmax=float(math.tanh(best_t) ** 2),
        pmax_proxy=1.0 / pmin,
        q_s_half=sobolev_multiplier(kappa, 0.5),
        err_est=err,
    )


def default_ladder(r):
    """Characters 16 * 2^k up to 2048, each moved one step up where it is
    not in the spectrum of r."""
    ladder = [16 * 2 ** j for j in range(8)]
    spectrum = set(r.spectrum(2 * ladder[-1]))
    return [k if k in spectrum else k + 1 for k in ladder
            if k in spectrum or k + 1 in spectrum]


def pmin_scan(r, kappas, config=None):
    """Scan a ladder of characters; returns one outcome per character, in
    ascending order: its NormSample, or the RepnormError its scan raised.

    With config.threads > 1 the characters are scanned concurrently (the
    work is numpy-bound, so threads help despite the GIL).
    """
    config = config or ScanConfig()

    def outcome(kappa):
        try:
            return scan_character(r, kappa, config)
        except RepnormError as exc:
            return exc

    kappas = sorted(kappas)
    if config.threads > 1:
        with concurrent.futures.ThreadPoolExecutor(config.threads) as pool:
            return list(pool.map(outcome, kappas))
    return [outcome(k) for k in kappas]


@dataclass(frozen=True)
class FitResult:
    """log v = log_amp + alpha*log(1+n) + beta*log(log(e+n)) + residual."""
    alpha: float
    beta: float
    log_amp: float
    resid: float
    n_points: int


def fit_exponent(ns, values, with_log=True):
    """Least-squares exponent of a positive sequence on a ladder of n.

    The log-log column separates true logarithmic factors from the power;
    on a ladder spanning a couple of decades the two columns are close to
    collinear, so the residual matters more than the covariance.  Passing
    with_log=False drops that column (beta is reported as zero).
    """
    ns = np.asarray(ns, dtype=float)
    vals = np.asarray(values, dtype=float)
    if ns.shape != vals.shape or ns.size < 4:
        raise FitError(f"need at least 4 samples, got {ns.size}")
    if not (np.all(np.isfinite(vals)) and np.all(vals > 0.0)):
        raise FitError("values must be finite and positive for a log fit")
    columns = [np.ones_like(ns), np.log1p(ns)]
    if with_log:
        columns.append(np.log(np.log(math.e + ns)))
    cols = np.column_stack(columns)
    rhs = np.log(vals)
    coef, _, rank, _ = np.linalg.lstsq(cols, rhs, rcond=None)
    if rank < len(columns):
        raise FitError("degenerate design matrix (ladder too short?)")
    resid = float(np.linalg.norm(cols @ coef - rhs))
    beta = float(coef[2]) if with_log else 0.0
    return FitResult(alpha=float(coef[1]), beta=beta,
                     log_amp=float(coef[0]), resid=resid, n_points=ns.size)


def distance_estimate(p_values, q_values, ns, symmetric=True):
    """Sobolev-scale separation of two positive sequences.

    Fits p/q ~ const * (1+n^2)^(gamma/2) and clamps at zero: if p is
    dominated by q the separation is zero, not negative.  The symmetric
    variant takes the larger of the two directions, which for a clean power
    law is |gamma|.
    """
    p = np.asarray(p_values, dtype=float)
    q = np.asarray(q_values, dtype=float)
    ns = np.asarray(ns, dtype=float)
    if p.shape != q.shape or p.shape != ns.shape or p.size < 3:
        raise FitError(f"need at least 3 aligned samples, got {p.size}")
    if not (np.all(p > 0.0) and np.all(q > 0.0)
            and np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
        raise FitError("sequences must be finite and positive")
    cols = np.column_stack([
        np.ones_like(ns),
        0.5 * np.log1p(ns ** 2),
    ])
    rhs = np.log(p / q)
    coef, _, rank, _ = np.linalg.lstsq(cols, rhs, rcond=None)
    if rank < 2:
        raise FitError("degenerate design matrix")
    gamma = float(coef[1])
    if symmetric:
        return max(gamma, -gamma, 0.0)
    return max(gamma, 0.0)


def sobolev_gap_estimate(samples):
    """Separation between the reciprocal proxy and the peak itself; the
    headline quantity, expected to sit at 1 for every family here."""
    ns = [s.n for s in samples]
    return distance_estimate([s.pmax_proxy for s in samples],
                             [s.pmin for s in samples], ns)
