"""Weighted integrals of matrix coefficients against the boundary measure,
by two deliberately different routes, plus small asymptotic utilities.

The measure with concentration parameter eps has density eps*(1-x)^(eps-1)
on [0, 1): unit mass, piling up at the boundary as eps decreases.  Route
one integrates the coefficient directly in x (after substituting
u = (1-x)^eps, which flattens the density to du and tames the boundary).
Route two expands the hypergeometric factor and integrates term by term,
turning the integral into a series of Beta moments.  The two routes share
nothing past the coefficient's closed form, which is what makes their
agreement evidence.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, PreconditionError
from .reps import coef_vec, _integer
from .specfun import (_EPS, _log_gamma_shift, _terminating_order, digamma,
                      gamma_ratio_signed, gamma_rounding, log_gamma_difference,
                      log_gammas, zeta)


@dataclass(frozen=True)
class BetaMeasure:
    """Boundary-concentrating probability measure eps*(1-x)^(eps-1) dx."""
    eps: float

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise PreconditionError(f"need 0 < eps < 1, got {self.eps}")


@dataclass(frozen=True)
class IntegralValue:
    value: complex
    method: str
    err_est: float


# ---------------------------------------------------------------------------
# Vectorized adaptive Gauss-Kronrod (15/7)

_XGK_HALF = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
])
_WGK_HALF = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
])
_WGK_CENTER = 0.209482141084727828012999174891714
_WG_HALF = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
])
_WG_CENTER = 0.417959183673469387755102040816327

_XK = np.concatenate([-_XGK_HALF, [0.0], _XGK_HALF[::-1]])
_WK = np.concatenate([_WGK_HALF, [_WGK_CENTER], _WGK_HALF[::-1]])
_WG = np.zeros(15)
_WG[1::2] = np.concatenate([_WG_HALF, [_WG_CENTER], _WG_HALF[::-1]])

_INIT_PANELS = 8
_MAX_EVALS = 2_000_000
# levels of an end chain: how deep below a fresh end panel its descendants
# toward that end are evaluated ahead (the sweep is in
# BENCH_kronrod_chains.json)
_CHAIN_LEVELS = 4


def _panel_nodes(a, b):
    """The 15 Kronrod abscissae of each panel [a, b], panel by panel."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return (mid[:, None] + half[:, None] * _XK[None, :]).ravel()


def _end_chain(a, b, at_lo, floor):
    """The chain below the end panel [a, b]: both of its children, then
    both children of the child at the end (the left one if at_lo), and so
    on, _CHAIN_LEVELS levels deep or until a panel is at the width floor,
    as (a, b) pairs.  Each midpoint is 0.5 * (a + b), as in the rounds, so
    a pair is the key under which a round finds that panel."""
    panels = []
    for _ in range(_CHAIN_LEVELS):
        if b - a <= floor:
            break
        m = 0.5 * (a + b)
        panels += [(a, m), (m, b)]
        a, b = (a, m) if at_lo else (m, b)
    return panels


def _evaluate(f, x, need):
    """f's (values, errs) on the abscissae x in one call, as rows of
    panels, or, if x holds more than the first need of them and that call
    raises or meets a floating-point error that numpy would report, on
    those need alone."""
    out = None
    if x.size > need:
        # numpy's error state is per thread, so no other caller sees this
        strict = {k: "ignore" if v == "ignore" else "raise"
                  for k, v in np.geterr().items()}
        try:
            with np.errstate(**strict):
                out = f(x)
        except Exception:
            # any failure may come from past need alone: the call on the
            # first need raises or reports whatever it would on its own
            pass
    values, errs = f(x[:need]) if out is None else out
    return (np.asarray(values, dtype=complex).reshape(-1, _XK.size),
            np.asarray(errs, dtype=float).reshape(-1, _XK.size))


def _panel_sums(y, e, half):
    """Each panel's Kronrod value k15, error estimate and rounding
    integrated over it, from its row of values y and of roundings e, as an
    iterator of (k15, err, rounding) triples.  Each row is summed alone,
    (y * _WK).sum(axis=1) and not y @ _WK, whose rows can change bits with
    the batch around them, so a panel's triple has the same bits in
    whatever call and position evaluated it."""
    y_wk = (y * _WK).sum(axis=1)
    k15 = y_wk * half
    diff = np.abs(k15 - (y * _WG).sum(axis=1) * half)
    # rescaled error estimate: |K-G| alone badly underestimates the
    # truncation error on panels with an algebraic cusp, so inflate it
    # against the total-variation proxy resasc as QUADPACK does
    resasc = (np.abs(y - y_wk[:, None] * 0.5) * _WK).sum(axis=1) * half
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(
            1.0, (200.0 * diff / np.where(resasc > 0.0, resasc, 1.0))
            ** 1.5)
    panel_err = np.where(resasc > 0.0, scaled, diff)
    # the rounding of f integrated over the panel: a panel whose error is
    # below it is as close as f lets it get
    rounding = (e * _WK).sum(axis=1) * half
    return zip(k15.tolist(), panel_err.tolist(), rounding.tolist())


def kronrod_quad_vec(f, lo, hi, tol_abs=1e-12):
    """Adaptive 15-point Kronrod rule driven by batch evaluations.

    f maps a flat array of abscissae to (values, errs), errs the absolute
    rounding of each value (complex ok).  Starts from _INIT_PANELS equal
    panels; each round settles the panels whose error is within the larger
    of their share of tol_abs and their rounding, half (errs . _WK), or
    whose width is at the floor 1e-14 (hi - lo), sums them in order and
    bisects the rest.  Returns (value, err_est), err_est the settled
    panels' errors and roundings; raises ConvergenceError past _MAX_EVALS
    evaluations.

    A round evaluates the pending panels that it does not yet know in one
    call of f, and _panel_sums turns each row of the call into its panel's
    three numbers, which the store keeps under the panel's ends; the
    round's own work is Python on those numbers.  At a cusp at lo or hi,
    in a round where f has to evaluate no more than the end panels and
    their siblings, each end panel brings its end chain (_end_chain) into
    the same call.  As long as f gives each abscissa the same bits alone
    or in any batch, value, err_est and every ConvergenceError are those
    of the pass without chains, whose rounds' abscissae alone count
    against _MAX_EVALS.  A call with a chain runs with numpy's
    floating-point warnings raised; if it raises, it is rerun without the
    chain and no chain is taken after that, so f raises and numpy warns
    only where that pass would.
    """
    lo, hi = float(lo), float(hi)
    span = hi - lo
    if span <= 0.0:
        raise PreconditionError("need lo < hi")
    floor = 1e-14 * span
    edges = np.linspace(lo, hi, _INIT_PANELS + 1).tolist()
    pending = list(zip(edges[:-1], edges[1:]))
    # the store: each evaluated panel's triple under its (a, b), where a
    # round finds it, as it takes each midpoint as a chain does; chains
    # start in the second round and stop after a failed call
    store, chains = {}, True
    total, err, evals = 0.0 + 0.0j, 0.0, 0
    while pending:
        n = len(pending)
        call = [p for p in pending if p not in store]
        need = len(call)
        # the panel at lo, if open, is the first pending one and the panel
        # at hi the last, as each round puts left children before right
        ends = [i for i, at_end in ((0, pending[0][0] == lo),
                                    (n - 1, pending[-1][1] == hi))
                if at_end and pending[i] not in store and chains and evals]
        if ends and need <= 2 * len(ends):
            for i in ends:
                call += _end_chain(*pending[i], i == 0, floor)
        if call:
            call_a, call_b = np.array(call).T
            y, e = _evaluate(f, _panel_nodes(call_a, call_b),
                             need * _XK.size)
            chains = chains and len(y) == len(call)
            half = 0.5 * (call_b - call_a)[:len(y)]
            store.update(zip(call, _panel_sums(y, e, half)))
        evals += n * _XK.size
        left, right = [], []
        for a, b in pending:
            k15, panel_err, rounding = store.pop((a, b))
            # rounding first: max keeps a nan rounding, so it settles nothing
            if (panel_err <= max(rounding, tol_abs * (b - a) / span)
                    or b - a <= floor):
                total += k15
                err += panel_err + rounding
            else:
                m = 0.5 * (a + b)
                left.append((a, m))
                right.append((m, b))
        pending = left + right
        if evals > _MAX_EVALS:
            raise ConvergenceError(
                f"quadrature not settled after {evals} evaluations"
                f" ({len(pending)} panels open)")
    return total, err


def hyp2f1_euler_oracle(a, b, c, z):
    """2F1(a,b;c;z) = G int_0^1 t^(b-1) (1-t)^(c-b-1) (1-zt)^(-a) dt, with
    G = Gamma(c)/(Gamma(b) Gamma(c-b)), Re c > Re b > 0 and real z < 1, by
    a route independent of the series.  Returns (value, err_est).

    One Kronrod pass in u, t = 1/(1 + e^(-2v)), v = (pi/2) sinh u (Takahasi
    & Mori, Publ. RIMS 9, 1974); log t and log(1-t) are -log1p(e^(-2|v|))
    less 2|v| on the nearer end's side, so nothing overflows.  It aims at
    1e-12 (1 - z Re b/Re c)^(-Re a)/|G|, the integral at the Beta weight's
    mean.  Past |v| = V lie at most 2 M e^(-2rV)/r, r = min(Re b, Re(c-b)),
    M = max (1-zt)^(-Re a); V puts that at 1e-3 of the aim.  err_est adds
    it, the Kronrod error, G's rounding and the integrand's, 8 eps (1 + sum
    of |p| (1 + |l|) over each exponent p and the log l it multiplies, and
    |a| |l| for the l that 1 - zt is made of) of its size, which the
    driver integrates."""
    a, b, c, z = complex(a), complex(b), complex(c), float(z)
    if not (c.real > b.real > 0.0):
        raise PreconditionError(
            f"Euler integral needs Re c > Re b > 0, got b={b}, c={c}")
    if z >= 1.0:
        raise DomainError(f"Euler integral needs z < 1, got {z}")
    cb = c - b
    pref, pref_rel = gamma_ratio_signed([c], [b, cb])
    rate, log_m = min(b.real, cb.real), max(-a.real * math.log1p(-z), 0.0)
    log_aim = (math.log(1e-12 / abs(pref))
               - a.real * math.log1p(-z * b.real / c.real))
    big_v = (math.log(2e3 / rate) + log_m - log_aim) / (2.0 * rate)

    def integrand(u):
        v = 0.5 * math.pi * np.sinh(u)
        near = -np.log1p(np.exp(-2.0 * np.abs(v)))
        log_t = near + np.minimum(2.0 * v, 0.0)
        log_s = near - np.maximum(2.0 * v, 0.0)
        # 1 - zt as two terms of one sign: 1 + |z| t, or 1 - z + z (1-t)
        log_z = log_t if z < 0.0 else log_s
        w = np.log(min(1.0, 1.0 - z) + abs(z) * np.exp(log_z))
        y = math.pi * np.cosh(u) * np.exp(b * log_t + cb * log_s - a * w)
        rho = (1.0 + abs(a) * (1.0 + np.abs(log_z) + np.abs(w)) + abs(b)
               * (1.0 + np.abs(log_t)) + abs(cb) * (1.0 + np.abs(log_s)))
        return y, 8.0 * _EPS * np.abs(y) * rho

    big_u = math.asinh(big_v / (0.5 * math.pi))
    total, q_err = kronrod_quad_vec(integrand, -big_u, big_u,
                                    tol_abs=math.exp(log_aim))
    mass = 2.0 * math.exp(log_m - 2.0 * rate * big_v) / rate
    value = pref * total
    return value, (abs(pref) * (q_err + mass)
                   + (pref_rel + 2.0 * _EPS) * abs(value))


# ---------------------------------------------------------------------------
# Route one: direct quadrature in the flattening variable


def integral_quadrature(r, n, eps):
    """Integral of coef(n, m_ref; a_x) against the eps-measure, by adaptive
    quadrature in u = (1-x)^eps (the measure becomes du exactly); err_est
    is the driver's, the coefficients' err integrated in it."""
    BetaMeasure(eps)
    n = r.as_index(n)

    def integrand(us):
        omx = us ** (1.0 / eps)      # exact 1-x, safe arbitrarily close to 1
        return coef_vec(r, n, r.m_ref, 1.0 - omx, omx=omx)

    value, err = kronrod_quad_vec(integrand, 0.0, 1.0)
    return IntegralValue(value, "quadrature", err)


# ---------------------------------------------------------------------------
# Route two: termwise Beta moments


def _beta_moment_tail(a, b, c, s0, lam_eps, k_cut):
    """Sum over k > k_cut of the normalized Beta-moment terms u(k), by
    midpoint Euler-Maclaurin: the integral from lo = k_cut + 1/2 plus the
    derivative correction u'(lo)/24.  The summand decays like
    k^(-(2 + eps + Re lam)), too slow to truncate at desk scale but smooth
    enough for this to be exact to working precision.

    u(k) is a product of three Gamma ratios whose arguments differ by O(1),

        G(k+a)/G(k+1) * G(k+b)/G(k+c) * G(k+s0+1)/G(k+s0+1+lam_eps),

    over its value at k = 0; each ratio comes from _log_gamma_shift, so no
    two log-Gamma values of size k log k are subtracted.  One complex
    Kronrod pass in s = log(k/lo) covers k up to K2 = 1e6 lo.  The rest
    closes in closed form from u(k) = C k^tau (1 + beta/k + ...), with
    tau = a + b - c - 1 - lam_eps and beta the sum of d (2w + d - 1)/2 over
    the pairs G(k+w+d)/G(k+w) (DLMF 5.11.13).  The error estimate adds the
    Kronrod error with u's rounding, the next Euler-Maclaurin term
    7 u'''(lo)/5760, the closure remainder and the rounding of the
    log-Gamma values at k = 0.
    """
    tau = complex(a) + complex(b) - complex(c) - 1.0 - complex(lam_eps)
    if tau.real >= -1.0:
        raise DomainError(f"moment series diverges (tau = {tau})")
    # (w, d, sign): the pair G(k+w+d)/G(k+w) enters u to the power sign
    pairs = ((1.0, a - 1.0, 1.0), (c, b - c, 1.0), (s0 + 1.0, lam_eps, -1.0))
    lg = log_gammas([a, b, c, s0 + 1.0, s0 + 1.0 + lam_eps])
    base = lg[0] + lg[1] - lg[2] + lg[3] - lg[4]

    def u(k):
        """u(k) and its rounding, |u| times the pairs' roundings."""
        logs, roundings = zip(*(_log_gamma_shift(k + w, d)
                                for w, d, _ in pairs))
        value = np.exp(sum(pair[2] * v for v, pair in zip(logs, pairs)) - base)
        return value, np.abs(value) * sum(roundings)

    def integrand(s):
        k = lo * np.exp(s)     # turns the algebraic decay exponential
        value, rounding = u(k)
        return value * k, rounding * k

    lo = k_cut + 0.5
    u_lo = complex(u(lo)[0])
    scale = abs(u_lo) * lo / abs(1.0 + tau)       # the size of the tail
    body, q_err = kronrod_quad_vec(integrand, 0.0, math.log(1e6),
                                   tol_abs=1e-13 * scale)
    k2 = lo * 1e6
    beta = sum(sign * d * (2.0 * w + d - 1.0) / 2.0 for w, d, sign in pairs)
    far = complex(u(k2)[0]) * k2 / (-1.0 - tau) * (1.0 + beta / (tau * k2))
    du = u_lo * complex(sum(sign * (digamma(lo + w + d) - digamma(lo + w))
                            for w, d, sign in pairs))
    tail = body + far + du / 24.0
    # on the power law u''' = u' (tau-1)(tau-2)/k^2; the closure drops terms
    # of relative size (beta/K2)^2
    err = (q_err
           + 7.0 / 5760.0 * abs(du * (tau - 1.0) * (tau - 2.0)) / lo ** 2
           + abs(far) * ((abs(beta) + abs(tau) + 1.0) / k2) ** 2
           + gamma_rounding(lg) * abs(tail))
    return tail, err


def j_series(a, b, c, s0, lam_eps):
    """The Beta-moment series sum_k g_k B(s0 + k + 1, lam_eps) without the
    Gamma prefactor of the coefficient; g_k are the Gauss series
    coefficients of 2F1(a, b; c; x).  Returns (value, err_est)."""
    if complex(lam_eps).real <= 0.0:
        raise DomainError(f"need Re(eps - lam) > 0, got {lam_eps}")

    k_cut = max(1024, 2 * int(c - 1.0))     # c - 1 = |n| on the m = 0 column
    # terminating Gauss series (a or b a nonpositive integer): no tail,
    # and the loggamma continuation would hit a pole
    terminates = _terminating_order(a, b)
    if terminates is not None:
        k_cut = max(k_cut, terminates + 1)

    ks = np.arange(1, k_cut + 1, dtype=float)
    ratios = ((a + ks - 1.0) * (b + ks - 1.0) * (s0 + ks)
              / ((c + ks - 1.0) * ks * (s0 + ks + lam_eps)))
    terms = np.concatenate([[1.0 + 0.0j], np.cumprod(ratios)])
    direct = complex(np.sum(terms[::-1]))    # ascending magnitude order

    if terminates is not None:
        tail, tail_err = 0.0, 0.0
    else:
        tail, tail_err = _beta_moment_tail(a, b, c, s0, lam_eps, k_cut)
    # everything above is relative to the k = 0 term B(s0+1, eps-lam)
    beta0, beta_rel = gamma_ratio_signed([s0 + 1.0, lam_eps],
                                         [s0 + 1.0 + lam_eps])
    value = beta0 * (direct + tail)
    err = (abs(beta0) * (tail_err + 1e-15 * float(np.sum(np.abs(terms))))
           + beta_rel * abs(value))
    return value, err


def integral_series(r, n, eps):
    """Integral of coef(n, m_ref; a_x) against the eps-measure through the
    termwise route.  With coef(n, m_ref) = scale pref x^s0 (1-x)^(-lam) F
    (r.reference_factor), the measure turns x^(s0 + k) (1-x)^(-lam) into
    eps B(s0 + k + 1, eps - lam): a Gauss F gives the Beta-moment series,
    F = 1 one Beta value, whose err is the rounding of its log-Gamma sums
    and eps for its exp and its product.  err adds the roundings of pref
    and of scale, which is applied as closed_form applies it."""
    BetaMeasure(eps)
    scale, scale_rel, pref, pref_rel, s0, lam, gauss = r.reference_factor(
        r.as_index(n))
    if gauss is None:
        # B = G(s0 + 1) G(eps - lam) / G(s0 + 1 + eps - lam), whose first
        # and last log-Gamma values are one shift pair
        diff, diff_rel = log_gamma_difference(s0 + 1.0, eps - lam)
        lg = float(log_gammas([eps - lam])[0].real)
        jval = math.exp(lg - diff)
        jerr = (diff_rel + gamma_rounding([lg]) + 2.0 * _EPS) * jval
        method = "exact-sum"
    else:
        jval, jerr = j_series(*gauss, s0, eps - lam)
        method = "series"
    val = eps * pref * jval
    err = eps * abs(pref) * jerr + pref_rel * abs(val)
    value = scale * val
    return IntegralValue(complex(value), method,
                         float(scale * err + scale_rel * abs(value)))


def reducible_point_integral(n, eps):
    """Exact value at the parity-1/2 boundary point lam = -1/2, where the
    coefficient degenerates to (-1)^n x^(n/2) (1-x)^(1/2):

        eps * (-1)^n * B(n/2 + 1, 1/2 + eps),

    whose first and last log-Gamma values are one shift pair.
    """
    BetaMeasure(eps)
    n = _integer(n, "index", "Principal(0.5, -0.5)")
    sign = -1.0 if n % 2 else 1.0
    diff, _ = log_gamma_difference(n / 2.0 + 1.0, 0.5 + eps)
    g_eps = float(log_gammas([0.5 + eps])[0].real)
    return sign * eps * math.exp(g_eps - diff)


# ---------------------------------------------------------------------------
# Asymptotic utilities


def faulhaber_sum(n, c):
    """Three-term approximation of sum_{k=1}^n k^(-c):

        n^(1-c)/(1-c) + zeta(c) + n^(-c)/2.

    Valid for c != 1 (simple pole of both the leading term and zeta) in
    the domain of specfun.zeta, complex c included.  The error is
    O(n^(-1-Re c)), far above zeta's own.
    """
    c = complex(c)
    if abs(c - 1.0) < 1e-12:
        raise DomainError("c = 1 is the harmonic pole; no closed form here")
    n = float(n)
    if n < 1:
        raise PreconditionError(f"need n >= 1, got {n}")
    val = n ** (1.0 - c) / (1.0 - c) + zeta(c) + 0.5 * n ** (-c)
    if abs(val.imag) < 1e-300 and c.imag == 0.0:
        return val.real
    return val


def stirling_ratio_check(z, alpha):
    """Scaled defect |Gamma(z+alpha)/Gamma(z) * z^(-alpha) - 1| * |z|.

    The ratio tends to 1 like alpha(alpha-1)/(2z), so this stays bounded
    (by about |alpha(alpha-1)|/2) as z grows; used as a sanity anchor for
    every Gamma-ratio asymptotic in the package.
    """
    z = complex(z)
    alpha = complex(alpha)
    if z.real <= 0.0:
        raise DomainError(f"need Re z > 0, got {z}")
    g_shift, g_z = log_gammas([z + alpha, z])
    ratio = cmath.exp(g_shift - g_z - alpha * cmath.log(z))
    return abs(ratio - 1.0) * abs(z)
