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

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError, PreconditionError, RepnormError, ScanError
from .reps import coef_vec

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# u of the concentration seeds x = 1 - 1/(1 + kappa/u) every scan probes
_SEED_SCALES = (0.5, 1.0, 2.0)
# points of the first level of the scan grid (between this and twice it)
_LEVEL_POINTS = 128
# relative slack of the grid's pruning test: it covers the error budgets of
# coef_vec (2e-10 at worst) and the last bits by which a value computed in
# one batch differs from the same value computed in another, many times over
_PRUNE_SLACK = 1e-6


def sobolev_multiplier(kappa, s):
    """Weight (1 + kappa^2)^(s/2) of the character kappa at smoothness s."""
    return (1.0 + float(kappa) ** 2) ** (0.5 * s)


@dataclass(frozen=True)
class ScanConfig:
    """Knobs of the peak scan.

    grid_c sets the step dt = grid_c/(kappa+1); t_pad sets the window
    T = t_pad + log(1+kappa).  Beyond the uniform grid, three concentration
    seeds x = 1 - 1/(1 + kappa/u), u in _SEED_SCALES, are always probed:
    that is where a coefficient peaking near the boundary would live.  The
    brackets around the refine_top best grid points are refined together,
    refine_iters golden steps each, one batched coef_vec call per step.
    A grid it cannot scan (grid_c not finite and positive, t_pad not
    finite, refine_top or refine_iters below 1) raises PreconditionError.
    """
    grid_c: float = 0.1
    t_pad: float = 6.0
    refine_top: int = 8
    refine_iters: int = 48

    def __post_init__(self):
        if not (math.isfinite(self.grid_c) and self.grid_c > 0.0):
            raise PreconditionError(
                f"grid_c must be finite and > 0, got {self.grid_c}")
        if not math.isfinite(self.t_pad):
            raise PreconditionError(f"t_pad must be finite, got {self.t_pad}")
        if self.refine_top < 1:
            raise PreconditionError(
                f"refine_top must be >= 1, got {self.refine_top}")
        if self.refine_iters < 1:
            raise PreconditionError(
                f"refine_iters must be >= 1, got {self.refine_iters}")


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
    """Golden-section minima of f on the brackets [lo, hi], all searched in
    lockstep; returns (x, f(x)) of the shape of lo (scalars for a scalar
    bracket).

    f maps an array of points to the array of its values.  The first call
    evaluates both inner points of every bracket; each step after it is
    one call on the new inner point of every bracket still live.  A bracket
    takes the scalar update and leaves once it is narrower than
    1e-14 (1 + |a|), so where f computes each point as it would alone, each
    result has the bits of a search of that bracket by itself.
    """
    a = np.array(lo, dtype=float).ravel()
    b = np.array(hi, dtype=float).ravel()
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = np.split(np.asarray(f(np.concatenate([x1, x2])), dtype=float),
                      2)
    live = np.ones(a.size, dtype=bool)
    for _ in range(iters):
        # the brackets that keep their left end, and those that keep the right
        left, right = live & (f1 <= f2), live & ~(f1 <= f2)
        b[left], x2[left], f2[left] = x2[left], x1[left], f1[left]
        x1[left] = b[left] - _GOLDEN * (b[left] - a[left])
        a[right], x1[right], f1[right] = x1[right], x2[right], f2[right]
        x2[right] = a[right] + _GOLDEN * (b[right] - a[right])
        fx = np.asarray(f(np.where(left, x1, x2)[live]), dtype=float)
        f1[left], f2[right] = fx[left[live]], fx[right[live]]
        live &= ~(b - a < 1e-14 * (1.0 + np.abs(a)))
        if not live.any():
            break
    first = f1 <= f2
    shape = np.shape(lo)
    return (np.where(first, x1, x2).reshape(shape)[()],
            np.where(first, f1, f2).reshape(shape)[()])


def _scan_grid(kappa, config):
    """The fine grid of a scan: (ts, dt, T), ts being the uniform points
    dt, 2 dt, ... up to T and the concentration seeds, ascending."""
    dt = config.grid_c / (kappa + 1.0)
    t_max = config.t_pad + math.log1p(kappa)
    ts = np.arange(dt, t_max + 0.5 * dt, dt)
    seeds = []
    for u in _SEED_SCALES:
        x_seed = 1.0 - 1.0 / (1.0 + kappa / u)
        if 0.0 < x_seed < 1.0:
            t_seed = math.atanh(math.sqrt(x_seed))
            if t_seed < t_max:
                seeds.append(t_seed)
    return np.unique(np.concatenate([ts, np.array(seeds)])), dt, t_max


def _grid_top(r, n, m, ts, k):
    """Indices of the k largest |coef(n, m; a_t)| over the grid ts, largest
    first, evaluating only the points that can be among them.

    L = r.lipschitz bounds |d/dt coef| and K = r.curvature bounds
    |d^2/dt^2 coef|, so on an interval of width h between two evaluated
    points |coef| stays below max(|c_lo|, |c_hi|) + min(L h/2, K h^2/8):
    the linear interpolant of the complex coef stays below the larger end,
    and coef leaves it by at most K (t - t_lo)(t_hi - t)/2.  The grid is
    evaluated in levels, each one batched coef_vec call: first every 2^J-th
    point and the last one (J from the point count; J = 0, the whole grid,
    when L is infinite), then the midpoints of the intervals whose bound
    still reaches the k-th largest value found so far.  Every other point
    is certified below that value, so the top k are those of the whole
    grid.
    """
    size, lip, curv = ts.size, r.lipschitz, r.curvature
    xs = np.tanh(ts) ** 2
    levels = (max(0, (size // _LEVEL_POINTS).bit_length() - 1)
              if math.isfinite(lip) else 0)
    mags = np.empty(size)
    grid = np.arange(size)
    new = np.unique(np.concatenate([grid[::1 << levels], grid[-1:]]))
    lo, hi = new[:-1], new[1:]
    done = grid[:0]
    while new.size:
        mags[new] = np.abs(coef_vec(r, n, m, xs[new]))
        done = np.concatenate([done, new])
        j = max(done.size - k, 0)
        tau = np.partition(mags[done], j)[j]     # the k-th largest so far
        h = ts[hi] - ts[lo]
        bound = np.maximum(mags[lo], mags[hi]) + np.minimum(
            0.5 * lip * h, 0.125 * curv * h * h)
        live = (hi - lo > 1) & (bound >= tau * (1.0 - _PRUNE_SLACK))
        lo, hi = lo[live], hi[live]
        new = (lo + hi) // 2
        lo, hi = np.concatenate([lo, new]), np.concatenate([new, hi])
    return done[np.argsort(mags[done])[::-1][:k]]


def scan_character(r, kappa, config=None):
    """Peak of |coef(n_kappa, m_ref; a_t)| over t in (0, T].

    A fine grid, uniform plus concentration seeds, then golden refinement
    of the brackets around its best few points, in lockstep: one batched
    coef_vec call per step, the first one for both inner points of every
    bracket.  The grid is certified by the unitarity bounds of the
    coefficient in t, r.lipschitz on its slope and r.curvature on its
    bend: it is evaluated in levels, and only where a top point can still
    sit (_grid_top), which picks the same points as evaluating all of it;
    a non-unitary member, whose bounds are infinite, evaluates the whole
    grid in one call.  A peak that lands
    on the far end of the window is not a peak, it is a truncation: that
    raises ScanError rather than returning a lower bound quietly.
    """
    config = config or ScanConfig()
    kappa = int(kappa)
    n_basis, m_ref = r.basis_index(kappa), r.m_ref

    ts, dt, t_max = _scan_grid(kappa, config)
    top = _grid_top(r, n_basis, m_ref, ts, config.refine_top)

    # math.tanh and Python's abs on each point, the bits of a search one
    # point at a time: np.tanh and numpy's complex abs round some otherwise
    def neg_mag(t):
        xs = np.array([math.tanh(v) ** 2 for v in t])
        return np.array([-abs(v) for v in coef_vec(r, n_basis, m_ref, xs)])

    lo = np.where(top > 0, ts[top] - dt, 1e-12)
    hi = np.minimum(ts[top] + dt, t_max)
    t_stars, negs = golden_min(neg_mag, lo, hi, iters=config.refine_iters)
    best_t, best_val = 0.0, 0.0
    for t_star, neg in zip(t_stars, negs):
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
    """Scan a ladder of characters one after another, in ascending order;
    returns one outcome per character: its NormSample, or the RepnormError
    its scan raised."""
    config = config or ScanConfig()

    def outcome(kappa):
        try:
            return scan_character(r, kappa, config)
        except RepnormError as exc:
            return exc

    return [outcome(k) for k in sorted(kappas)]


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


def distance_estimate(p_values, q_values, ns):
    """Sobolev-scale separation of two positive sequences.

    Fits p/q ~ const * (1+n^2)^(gamma/2) and returns |gamma|, the larger
    of the separations in the two directions.
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
    return abs(float(coef[1]))


def sobolev_gap_estimate(samples):
    """Separation between the reciprocal proxy and the peak itself; the
    headline quantity, expected to sit at 1 for every family here."""
    ns = [s.n for s in samples]
    return distance_estimate([s.pmax_proxy for s in samples],
                             [s.pmin for s in samples], ns)
