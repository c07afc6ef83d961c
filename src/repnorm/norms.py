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

# a root step stops once its root is known to within _ROOT_TOL (1 + |t|)
# in t: about 20 eps, above the few ulps of t over which the computed slope
# of |coef|, a sum of terms up to 1/(1-x) that cancel at the peak, sits at
# its rounding level, and far below the 1e-12 that x_argmax needs
_ROOT_TOL = 5e-15
# u of the concentration seeds x = 1 - 1/(1 + kappa/u) every scan probes
_SEED_SCALES = (0.5, 1.0, 2.0)
# points of the first level of the scan grid (between this and twice it)
_LEVEL_POINTS = 128
# relative slack of the grid's pruning test: it covers the error budgets of
# coef_vec (below 1e-10 of a column's peak on the scan grids) many times over
_PRUNE_SLACK = 1e-6


def sobolev_multiplier(kappa, s):
    """Weight (1 + kappa^2)^(s/2) of the character kappa at smoothness s."""
    return (1.0 + float(kappa) ** 2) ** (0.5 * s)


@dataclass(frozen=True)
class ScanConfig:
    """Knobs of the peak scan.

    grid_c sets the step dt = grid_c/(k+1), k = |kappa|; t_pad sets the
    window T = t_pad + log(1+k).  Beyond the uniform grid, three
    concentration seeds x = 1 - 1/(1 + k/u), u in _SEED_SCALES, are always
    probed: that is where a coefficient peaking near the boundary would
    live.  Of the refine_top best grid points, each local maximum gets the
    bracket of its two grid neighbours, and the peak in each bracket is
    refined as the root of the slope of |coef|, all brackets together, at
    most refine_iters root steps each, one batched coef_vec call per step.
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
    proxy for the dual norm, the s = 1/2 Sobolev weight of n, and the error
    bound of pmin (see scan_character)."""
    n: int
    pmin: float
    x_argmax: float
    pmax_proxy: float
    q_s_half: float
    err_est: float


class _Zeroin:
    """Brent's zeroin (Brent, Algorithms for Minimization without
    Derivatives, Prentice-Hall 1973, ch. 4) on one bracket [a, b] whose
    slope g changes sign: secant and inverse quadratic steps, each kept
    inside the bracket, with a bisection wherever they would not shrink it
    fast enough.  It holds the objective value v beside g at each point, so
    that the point b it returns comes with its value.

    point() is the next point to evaluate, or None once the root is known
    to within _ROOT_TOL (1 + |b|) or g(b) is 0; take(g, v) hands it the
    values there.
    """

    def __init__(self, a, ga, va, b, gb, vb):
        self.a, self.ga, self.va = a, ga, va
        self.b, self.gb, self.vb = b, gb, vb
        self.c, self.gc, self.vc = a, ga, va
        self.d = self.e = b - a
        self._next = self._step()

    def point(self):
        return self._next

    def take(self, g, v):
        self.a, self.ga, self.va = self.b, self.gb, self.vb
        self.b, self.gb, self.vb = self._next, g, v
        if (self.gb > 0.0) == (self.gc > 0.0):
            self.c, self.gc, self.vc = self.a, self.ga, self.va
            self.d = self.e = self.b - self.a
        self._next = self._step()

    def _step(self):
        if abs(self.gc) < abs(self.gb):
            self.a, self.ga, self.va = self.b, self.gb, self.vb
            self.b, self.gb, self.vb = self.c, self.gc, self.vc
            self.c, self.gc, self.vc = self.a, self.ga, self.va
        a, b, c, ga, gb, gc = self.a, self.b, self.c, self.ga, self.gb, self.gc
        tol = _ROOT_TOL * (1.0 + abs(b))
        half = 0.5 * (c - b)
        if abs(half) <= tol or gb == 0.0:
            return None
        if abs(self.e) >= tol and abs(ga) > abs(gb):
            s = gb / ga
            if a == c:
                p, q = 2.0 * half * s, 1.0 - s
            else:
                q, r = ga / gc, gb / gc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * half * q - abs(tol * q),
                             abs(self.e * q)):
                self.e, self.d = self.d, p / q
            else:
                self.d = self.e = half
        else:
            self.d = self.e = half
        return b + (self.d if abs(self.d) > tol else math.copysign(tol, half))


def golden_min(f, lo, hi, iters=60):
    """Minima of f on the brackets [lo, hi], each found as the root of its
    slope, all brackets in lockstep; returns (x, f(x), width) of the shape
    of lo (scalars for a scalar bracket), width being that of the last
    bracket around the root.

    f maps an array of points to (values, slopes): the values to minimise
    and anything with the sign and the roots of their derivative, such as
    a log-derivative.  The first call evaluates both ends of every
    bracket.  A bracket whose slope goes from negative to positive is
    searched by Brent's zeroin (_Zeroin), each step after the first call
    being one call on the next point of every bracket still live; a
    bracket stops on its own once its root is known to within
    _ROOT_TOL (1 + |x|), or after iters steps; the width of a root where
    the slope is 0 is 0.  A bracket whose slope does not
    change sign returns the end with the smaller value (the lower end on a
    tie), at width hi - lo.  Each bracket's steps are
    scalar, so where f computes each point as it would alone, each result
    has the bits of the search of that bracket by itself.

    The name is the one of the golden-section search this root step
    replaced: the scans' tracer and its callers know the refinement by it.
    """
    a = np.array(lo, dtype=float).ravel()
    b = np.array(hi, dtype=float).ravel()
    count = a.size
    values, slopes = (np.asarray(v, dtype=float).tolist()
                      for v in f(np.concatenate([a, b])))
    x, fx, width = np.empty(count), np.empty(count), b - a
    searches = {}
    for j, (aj, bj) in enumerate(zip(a.tolist(), b.tolist())):
        va, vb = values[j], values[count + j]
        ga, gb = slopes[j], slopes[count + j]
        if ga < 0.0 < gb:
            searches[j] = _Zeroin(aj, ga, va, bj, gb, vb)
        else:
            x[j], fx[j] = (aj, va) if va <= vb else (bj, vb)
    for _ in range(iters):
        live = [j for j, z in searches.items() if z.point() is not None]
        if not live:
            break
        values, slopes = (np.asarray(v, dtype=float) for v in f(
            np.array([searches[j].point() for j in live])))
        for j, v, g in zip(live, values.tolist(), slopes.tolist()):
            searches[j].take(g, v)
    for j, z in searches.items():
        x[j], fx[j] = z.b, z.vb
        width[j] = abs(z.c - z.b) if z.gb != 0.0 else 0.0
    shape = np.shape(lo)
    return (x.reshape(shape)[()], fx.reshape(shape)[()],
            width.reshape(shape)[()])


def _scan_grid(kappa, config):
    """The fine grid of a scan of |kappa|: (ts, dt, T), ts being the
    uniform points dt, 2 dt, ... up to T and the seeds, ascending, each
    point once.  The uniform points ascend already, so the seeds not among
    them are inserted where searchsorted puts them."""
    kappa = abs(kappa)
    dt = config.grid_c / (kappa + 1.0)
    t_max = config.t_pad + math.log1p(kappa)
    ts = np.arange(dt, t_max + 0.5 * dt, dt)
    seeds = set()
    for u in _SEED_SCALES:
        x_seed = 1.0 - 1.0 / (1.0 + kappa / u)
        if 0.0 < x_seed < 1.0:
            t_seed = math.atanh(math.sqrt(x_seed))
            if t_seed < t_max:
                seeds.add(t_seed)
    seeds = sorted(seeds)
    at = np.searchsorted(ts, seeds).tolist()
    fresh = [(i, t) for i, t in zip(at, seeds)
             if i == ts.size or ts[i] != t]
    return np.insert(ts, [i for i, _ in fresh], [t for _, t in fresh]), \
        dt, t_max


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
    levels = (max(0, (size // _LEVEL_POINTS).bit_length() - 1)
              if math.isfinite(lip) else 0)
    mags = np.empty(size)
    grid = np.arange(size)
    new = np.unique(np.concatenate([grid[::1 << levels], grid[-1:]]))
    lo, hi = new[:-1], new[1:]
    done = grid[:0]
    while new.size:
        mags[new] = np.abs(coef_vec(r, n, m, np.tanh(ts[new]) ** 2)[0])
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

    A fine grid, uniform plus concentration seeds, then each local maximum
    among its refine_top best points refined as the root of the slope
    d log|coef|/dx in the bracket of its two grid neighbours (golden_min),
    all brackets in lockstep: one batched coef_vec call, values and slopes
    from one pass, per root step, the first one for both ends of every
    bracket.  The slope is taken in x, whose roots and sign are those of
    the slope in t.  The grid is certified by the unitarity bounds of the
    coefficient in t, r.lipschitz on its slope and r.curvature on its
    bend: it is evaluated in levels, and only where a top point can still
    sit (_grid_top), which picks the same points as evaluating all of it;
    a non-unitary member, whose bounds are infinite, evaluates the whole
    grid in one call.  A peak that lands
    on the far end of the window is not a peak, it is a truncation: that
    raises ScanError rather than returning a lower bound quietly, as does
    an empty window.  A non-integral character raises PreconditionError.

    err_est bounds the distance of pmin from the peak of the true |coef|
    over the bracket: coef's err_est at x_argmax, plus K dt^2 / 2 for the
    width dt of the last bracket around the root of the slope, K being
    r.curvature (|coef| is within K (t - t*)^2 / 2 of its peak at t*).  It
    is infinite off the unitary line, where K is.
    """
    config = config or ScanConfig()
    n_basis, m_ref = r.basis_index(kappa), r.m_ref
    kappa = int(kappa)

    ts, dt, t_max = _scan_grid(kappa, config)
    if not ts.size:
        raise ScanError(f"scan window of character {kappa} holds no grid"
                        f" point (T={t_max:.3f}); enlarge t_pad")
    top = _grid_top(r, n_basis, m_ref, ts, config.refine_top)
    # the local maxima among the top points: no grid neighbour ranks above
    # them (a point outside the top is lower than all of them)
    rank = {int(i): k for k, i in enumerate(top)}
    peaks = np.array([i for i, k in rank.items()
                      if rank.get(i - 1, k) >= k and rank.get(i + 1, k) >= k])
    lo = np.where(peaks > 0, ts[np.maximum(peaks - 1, 0)], 1e-12)
    hi = ts[np.minimum(peaks + 1, ts.size - 1)]

    # math.tanh and Python's abs on each point, the bits of a search one
    # point at a time: np.tanh and numpy's complex abs round some otherwise.
    # 1-x goes in as sech(t)^2: 1 - tanh(t)^2 keeps only the ulps of x,
    # which near x = 1 would hold the slope still over runs of t.  Each
    # point's err_est is kept for the one that becomes the peak
    budget = {}

    def neg_mag(t):
        xs = np.array([math.tanh(v) ** 2 for v in t])
        omx = np.array([math.cosh(v) ** -2 for v in t])
        values, slopes, errs = coef_vec(r, n_basis, m_ref, xs, omx,
                                        slope=True)
        budget.update(zip(t.tolist(), errs.tolist()))
        return np.array([-abs(v) for v in values]), -slopes

    t_stars, negs, widths = golden_min(neg_mag, lo, hi,
                                       iters=config.refine_iters)
    best_t, best_val, best_width = 0.0, 0.0, 0.0
    for t_star, neg, width in zip(t_stars, negs, widths):
        if -neg > best_val:
            best_t, best_val, best_width = t_star, -neg, width

    if best_t >= t_max - 2.0 * dt:
        raise ScanError(
            f"peak of character {kappa} sits at the window end t={best_t:.3f}"
            f" (T={t_max:.3f}); enlarge t_pad")
    if best_val <= 0.0:
        raise ScanError(f"no positive peak found for character {kappa}")

    pmin = float(best_val)
    bend = 0.5 * r.curvature * best_width ** 2 if best_width else 0.0
    return NormSample(
        n=kappa,
        pmin=pmin,
        x_argmax=float(math.tanh(best_t) ** 2),
        pmax_proxy=1.0 / pmin,
        q_s_half=sobolev_multiplier(kappa, 0.5),
        err_est=float(budget[best_t] + bend),
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
