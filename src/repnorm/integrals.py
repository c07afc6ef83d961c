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

import mpmath
import numpy as np
import scipy.integrate

from .errors import ConvergenceError, DomainError, PreconditionError
from .reps import coef_vec, _discrete_log_j, _discrete_index, _principal_params
from .specfun import _terminating_order, log_gamma


@dataclass(frozen=True)
class BetaMeasure:
    """Boundary-concentrating probability measure eps*(1-x)^(eps-1) dx."""
    eps: float

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise PreconditionError(f"need 0 < eps < 1, got {self.eps}")

    def density(self, x):
        return self.eps * (1.0 - np.asarray(x, dtype=float)) ** (self.eps - 1.0)

    def u_from_x(self, x):
        return (1.0 - np.asarray(x, dtype=float)) ** self.eps

    def x_from_u(self, u):
        return 1.0 - np.asarray(u, dtype=float) ** (1.0 / self.eps)


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
_WG[[1, 3, 5]] = _WG_HALF
_WG[7] = _WG_CENTER
_WG[[13, 11, 9]] = _WG_HALF

_INIT_PANELS = 8
_MAX_EVALS = 2_000_000


def kronrod_quad_vec(f, lo, hi, tol_abs=1e-12):
    """Adaptive 15-point Kronrod rule driven by batch evaluations.

    f maps a flat numpy array of abscissae to values (complex ok); every
    refinement round evaluates all pending panels in a single call, so an
    expensive vectorized integrand costs what one big batch costs.  Starts
    from _INIT_PANELS equal panels.  Returns (value, err_est); raises
    ConvergenceError past _MAX_EVALS evaluations.
    """
    span = float(hi) - float(lo)
    if span <= 0.0:
        raise PreconditionError("need lo < hi")
    edges = np.linspace(float(lo), float(hi), _INIT_PANELS + 1)
    pend_a = edges[:-1].copy()
    pend_b = edges[1:].copy()
    total = 0.0 + 0.0j
    err = 0.0
    evals = 0
    while pend_a.size:
        mid = 0.5 * (pend_a + pend_b)
        half = 0.5 * (pend_b - pend_a)
        nodes = mid[:, None] + half[:, None] * _XK[None, :]
        y = np.asarray(f(nodes.ravel()), dtype=complex).reshape(nodes.shape)
        evals += nodes.size
        k15 = (y @ _WK) * half
        g7 = (y @ _WG) * half
        diff = np.abs(k15 - g7)
        # rescaled error estimate: |K-G| alone badly underestimates the
        # truncation error on panels with an algebraic cusp, so inflate it
        # against the total-variation proxy resasc as QUADPACK does
        reskh = (y @ _WK)[:, None] * 0.5
        resasc = (np.abs(y - reskh) @ _WK) * half
        with np.errstate(divide="ignore", invalid="ignore"):
            scaled = resasc * np.minimum(
                1.0, (200.0 * diff / np.where(resasc > 0.0, resasc, 1.0))
                ** 1.5)
        panel_err = np.where(resasc > 0.0, scaled, diff)
        budget = tol_abs * (pend_b - pend_a) / span
        done = (panel_err <= budget) | (pend_b - pend_a <= 1e-14 * span)
        total += complex(np.sum(k15[done]))
        err += float(np.sum(panel_err[done]))
        a_bad, b_bad, m_bad = pend_a[~done], pend_b[~done], mid[~done]
        pend_a = np.concatenate([a_bad, m_bad])
        pend_b = np.concatenate([m_bad, b_bad])
        if evals > _MAX_EVALS:
            raise ConvergenceError(
                f"quadrature not settled after {evals} evaluations"
                f" ({pend_a.size} panels open)")
    return total, err


# ---------------------------------------------------------------------------
# Route one: direct quadrature in the flattening variable


def integral_quadrature(r, n, eps):
    """Integral of coef(n, m_ref; a_x) against the eps-measure, by adaptive
    quadrature in u = (1-x)^eps (the measure becomes du exactly)."""
    BetaMeasure(eps)

    def integrand(us):
        omx = us ** (1.0 / eps)      # exact 1-x, safe arbitrarily close to 1
        return coef_vec(r, n, r.m_ref, 1.0 - omx, omx=omx)

    value, err = kronrod_quad_vec(integrand, 0.0, 1.0)
    return IntegralValue(value, "quadrature", err + 1e-9 * abs(value))


# ---------------------------------------------------------------------------
# Route two: termwise Beta moments


def _beta_moment_tail(a, b, c, s0, lam_eps, k_cut):
    """Sum over k > k_cut of the normalized Beta-moment terms, by midpoint
    Euler-Maclaurin: integral from k_cut + 1/2 plus the derivative
    correction.  The summand decays like k^(-(2 + eps + Re lam)), too slow
    to truncate at desk scale but smooth enough for this to be exact to
    working precision.

    The continuation u(k) is a tiny difference of loggamma values of size
    k log k, hopeless in double precision past k ~ 1e12, so it runs through
    mpmath at 40 digits.  Even that cannot reach the whole half line; the
    numeric part stops at K2 = 1e6 * k_cut and the remainder closes in
    closed form through the exactly known power exponent
    tau = a + b - c - 1 - (eps - lam) of the summand (relative error
    ~ (1/K2) of a piece that is itself ~ (1e6)^(Re tau + 1) of the tail).
    """
    tau = complex(a) + complex(b) - complex(c) - 1.0 - complex(lam_eps)
    if tau.real >= -1.0:
        raise DomainError(f"moment series diverges (tau = {tau})")
    with mpmath.workdps(40):
        am, bm, cm = mpmath.mpc(a), mpmath.mpc(b), mpmath.mpc(c)
        lem = mpmath.mpc(lam_eps)
        s0m = mpmath.mpf(s0)
        base = (mpmath.loggamma(am) + mpmath.loggamma(bm)
                - mpmath.loggamma(cm) + mpmath.loggamma(s0m + 1.0)
                - mpmath.loggamma(s0m + 1.0 + lem))

        def u(k):
            km = mpmath.mpf(k)
            lu = (mpmath.loggamma(am + km) + mpmath.loggamma(bm + km)
                  - mpmath.loggamma(cm + km) - mpmath.loggamma(1.0 + km)
                  + mpmath.loggamma(s0m + km + 1.0)
                  - mpmath.loggamma(s0m + km + 1.0 + lem) - base)
            return complex(mpmath.exp(lu))

        lo = k_cut + 0.5
        s_hi = math.log(1e6)

        # k = lo * e^s turns the algebraic decay into an exponential one
        def quad_part(selector):
            val, qerr = scipy.integrate.quad(
                lambda s: selector(u(lo * math.exp(s))) * lo * math.exp(s),
                0.0, s_hi, epsabs=0.0, epsrel=1e-11, limit=300)
            return val, qerr

        re_val, re_err = quad_part(lambda z: z.real)
        im_val, im_err = quad_part(lambda z: z.imag)
        k2 = lo * 1e6
        u_k2 = u(k2)
        far = u_k2 * k2 / (-1.0 - tau)
        h = 1e-4 * lo
        du = (u(lo + h) - u(lo - h)) / (2.0 * h)
    tail = complex(re_val, im_val) + far + du / 24.0
    err = re_err + im_err + abs(du) * h + abs(far) / k2 * abs(tau) * 4.0
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
    beta0 = cmath.exp(log_gamma(s0 + 1.0) + log_gamma(lam_eps)
                      - log_gamma(s0 + 1.0 + lam_eps))
    value = beta0 * (direct + tail)
    err = abs(beta0) * (tail_err + 1e-15 * float(np.sum(np.abs(terms))))
    return value, err


def integral_series(r, n, eps):
    """Integral of coef(n, m_ref; a_x) against the eps-measure through the
    termwise route: Gamma prefactor times Beta-moment series (circle
    families, times their normalizer) or an exact Beta value (disc)."""
    BetaMeasure(eps)
    if r.circle is None:
        # at the reference column the disc sum is its one k = 0 term:
        # eps (-1)^p |J| B(p/2 + 1, ell/2 + eps)
        ell = r.ell
        p = _discrete_index(ell, n)
        sign = -1.0 if p % 2 else 1.0
        beta = math.exp(log_gamma(p / 2.0 + 1.0).real
                        + log_gamma(ell / 2.0 + eps).real
                        - log_gamma(p / 2.0 + 1.0 + ell / 2.0 + eps).real)
        val = eps * sign * math.exp(_discrete_log_j(ell, p, 0)) * beta
        return IntegralValue(val, "exact-sum", 1e-14 * abs(val))
    sigma, lam = r.circle
    n = int(n)
    # coef(n, 0) = pref x^(|n|/2) (1-x)^(-lam) 2F1(a, b; c; x), and the
    # measure turns x^(|n|/2 + k) (1-x)^(-lam) into eps B(|n|/2 + k + 1,
    # eps - lam)
    a, b, c, pref = _principal_params(sigma, lam, n, 0)
    jval, jerr = j_series(a, b, c, abs(n) / 2.0, eps - lam)
    val, err = eps * pref * jval, eps * abs(pref) * jerr
    scale = r.normalizer(n, 0)
    return IntegralValue(scale * val, "series", scale * err)


def reducible_point_integral(n, eps):
    """Exact value at the parity-1/2 boundary point lam = -1/2, where the
    coefficient degenerates to (-1)^n x^(n/2) (1-x)^(1/2):

        eps * (-1)^n * B(n/2 + 1, 1/2 + eps).
    """
    BetaMeasure(eps)
    n = int(n)
    sign = -1.0 if n % 2 else 1.0
    return sign * eps * math.exp(
        log_gamma(n / 2.0 + 1.0).real + log_gamma(0.5 + eps).real
        - log_gamma(n / 2.0 + 1.5 + eps).real)


# ---------------------------------------------------------------------------
# Asymptotic utilities


def faulhaber_sum(n, c):
    """Three-term approximation of sum_{k=1}^n k^(-c):

        n^(1-c)/(1-c) + zeta(c) + n^(-c)/2.

    Valid for c != 1 (simple pole of both the leading term and zeta);
    complex c is fine.  The error is O(n^(-1-Re c)).
    """
    c = complex(c)
    if abs(c - 1.0) < 1e-12:
        raise DomainError("c = 1 is the harmonic pole; no closed form here")
    n = float(n)
    if n < 1:
        raise PreconditionError(f"need n >= 1, got {n}")
    zeta_c = complex(mpmath.zeta(mpmath.mpc(c.real, c.imag)))
    val = n ** (1.0 - c) / (1.0 - c) + zeta_c + 0.5 * n ** (-c)
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
    ratio = cmath.exp(log_gamma(z + alpha) - log_gamma(z)
                      - alpha * cmath.log(z))
    return abs(ratio - 1.0) * abs(z)
