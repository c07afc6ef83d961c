"""Gamma-ratio and Gauss hypergeometric machinery.

Everything downstream (coefficient formulas, normalizers, series for the
weighted integrals) reduces to signed Gamma ratios and 2F1 evaluations, so
the conventions are pinned here once:

    (d)_m = d (d+1) ... (d+m-1) = Gamma(d+m) / Gamma(d)
    2F1(a,b;c;z) = sum_k (a)_k (b)_k / ((c)_k k!) z^k

The series evaluator refuses z >= 1 and non-convergent near-boundary
regimes; callers that need the wall use an integral representation or the
circle oracle instead.
"""

import cmath
import math

import numpy as np
from scipy.special import log1p, loggamma

from .errors import ConvergenceError, DomainError, PoleError, PreconditionError

SERIES_KMAX = 1_000_000
_POLE_TOL = 1e-12
# B_2j / (2j (2j - 1)), j = 1..3: the Stirling series coefficients (DLMF 5.11.1)
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0)


def is_nonpositive_int(z, tol=_POLE_TOL):
    """True when z sits (numerically) on a pole of Gamma, i.e. z in -N0."""
    z = complex(z)
    if abs(z.imag) > tol:
        return False
    r = round(z.real)
    return r <= 0 and abs(z.real - r) <= tol


def log_gamma(z):
    """log Gamma(z) for complex z; PoleError at z in -N0.

    Backed by scipy's loggamma (principal branch of the analytic
    continuation).  Any branch is interchangeable for ratio work because the
    final exp removes multiples of 2*pi*i.
    """
    z = complex(z)
    if is_nonpositive_int(z):
        raise PoleError(f"log_gamma at pole z={z}")
    return complex(loggamma(z))


def pochhammer(d, m):
    """Rising factorial (d)_m for integer m >= 0 (complex d allowed)."""
    if int(m) != m or m < 0:
        raise PreconditionError(f"pochhammer wants integer m >= 0, got {m}")
    m = int(m)
    d = complex(d)
    if m <= 128 or is_nonpositive_int(d) or is_nonpositive_int(d + m):
        out = 1.0 + 0.0j
        for j in range(m):
            out *= d + j
        return out
    return cmath.exp(log_gamma(d + m) - log_gamma(d))


def gamma_ratio_signed(num, den):
    """prod Gamma(num_i) / prod Gamma(den_j), computed in log space.

    Poles are resolved when they cancel pairwise between numerator and
    denominator: Gamma(-a+delta)/Gamma(-b+delta) -> (-1)^(a-b) b!/a! as
    delta -> 0 (a, b in N0).  A surviving numerator pole raises PoleError;
    surviving denominator poles give 0.
    """
    num = [complex(z) for z in num]
    den = [complex(z) for z in den]
    num_poles = sorted(-round(z.real) for z in num if is_nonpositive_int(z))
    den_poles = sorted(-round(z.real) for z in den if is_nonpositive_int(z))
    if len(num_poles) > len(den_poles):
        raise PoleError(f"unresolved Gamma pole in numerator: {num}")
    if len(den_poles) > len(num_poles):
        return 0.0 + 0.0j

    sign = 1.0
    log_acc = 0.0 + 0.0j
    for a, b in zip(num_poles, den_poles):
        if (a - b) % 2:
            sign = -sign
        log_acc += complex(loggamma(b + 1.0)) - complex(loggamma(a + 1.0))
    for z in num:
        if not is_nonpositive_int(z):
            log_acc += complex(loggamma(z))
    for z in den:
        if not is_nonpositive_int(z):
            log_acc -= complex(loggamma(z))
    if log_acc.real > 709.0:
        raise PoleError(f"gamma ratio overflows: log magnitude {log_acc.real:.1f}")
    return sign * cmath.exp(log_acc)


def _gamma_ratio_rounding(args):
    """Relative rounding of gamma_ratio_signed over these arguments: it sums
    their log-Gamma values, and the final exp turns the absolute error of
    that sum into a relative one.  Each argument adds eps (8 + |log G(z)|):
    against mpmath, scipy's loggamma is off by about eps times its size for
    large |z|, but by up to 30 eps, whatever its size, below |z| ~ 12.
    Pole arguments are skipped: gamma_ratio_signed resolves them exactly."""
    return 2.2e-16 * sum(8.0 + abs(log_gamma(z)) for z in args
                         if not is_nonpositive_int(z))


def _log_gamma_shift(w, d):
    """log Gamma(w + d) - log Gamma(w) for real w >= 1000 (an array) and a
    complex shift d of order one.

    The two log-Gamma values have size w log w and differ by about d log w,
    so their difference in double precision keeps only the digits they
    share.  Differencing the Stirling series (DLMF 5.11.1) term by term
    never forms them:

        d log w + (w + d - 1/2) log1p(d/w) - d
            + sum_j B_2j / (2j (2j-1)) ((w + d)^(1-2j) - w^(1-2j)),

    j = 1..3; the next term is below 1e-25 at w = 1000.  scipy's log1p keeps
    full relative precision for complex arguments of size 1e-12; numpy's
    does not, and the factor w + d - 1/2 would magnify its error w times.
    """
    w = np.asarray(w, dtype=float)
    out = d * np.log(w) + (w + d - 0.5) * log1p(d / w) - d
    for j, coeff in enumerate(_STIRLING, start=1):
        out = out + coeff * ((w + d) ** (1 - 2 * j) - w ** (1.0 - 2 * j))
    return out


def _terminating_order(a, b):
    """Smallest K with (a)_{K+1} = 0 or (b)_{K+1} = 0, else None."""
    orders = [int(round(-complex(z).real))
              for z in (a, b) if is_nonpositive_int(z)]
    return min(orders) if orders else None


def hyp2f1(a, b, c, z, tol=1e-14, kmax=SERIES_KMAX):
    """Gauss series for 2F1(a,b;c;z); returns (value, err_est).

    Terminating cases (a or b in -N0) run the same ascending recursion and
    stop exactly; otherwise the series is summed with Kahan compensation
    until a geometric tail bound drops below tol.  Refuses z >= 1 (use the
    Euler-integral oracle or the circle oracle there).
    """
    a, b, c, z = complex(a), complex(b), complex(c), complex(z)
    K = _terminating_order(a, b)
    if K is None and z.imag == 0.0 and z.real >= 1.0:
        raise DomainError(f"series undefined/non-convergent at z={z.real}")
    if K is None and abs(z) >= 1.0:
        raise DomainError(f"series non-convergent at |z|={abs(z):.3f}")
    if is_nonpositive_int(c) and (K is None or K >= -round(c.real) + 1):
        raise DomainError(f"c={c} is a pole not cleared by termination")

    total = 1.0 + 0.0j
    comp = 0.0 + 0.0j          # Kahan compensation
    term = 1.0 + 0.0j
    small_streak = 0
    k = 0
    while k < kmax:
        if K is not None and k == K:
            return total, 1e-15 * (abs(total) + 1.0)
        term *= z * (a + k) * (b + k) / ((c + k) * (k + 1.0))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        k += 1
        if K is not None:
            continue
        if abs(term) <= tol * max(abs(total), 1e-300):
            small_streak += 1
            if small_streak >= 2:
                ratio = abs(z * (a + k) * (b + k) / ((c + k) * (k + 1.0)))
                q = min(max(ratio, abs(z)), 0.999999)
                tail = abs(term) * q / (1.0 - q)
                return total, tail + 1e-15 * abs(total)
        else:
            small_streak = 0
    raise ConvergenceError(
        f"2F1 series not converged after {kmax} terms (z={z}, c-a-b={c - a - b})")


def hyp2f1_euler_oracle(a, b, c, z, tol=1e-12):
    """2F1 via the Euler integral; independent of the series path.

    2F1(a,b;c;z) = [G(c)/(G(b)G(c-b))] int_0^1 t^(b-1)(1-t)^(c-b-1)(1-zt)^(-a) dt
    for Re(c) > Re(b) > 0 and real z < 1.  Returns (value, err_est).
    """
    # only this oracle needs scipy.integrate, ~0.2 s of every CLI call's
    # import
    from scipy.integrate import quad

    a, b, c = complex(a), complex(b), complex(c)
    z = float(z)
    if not (c.real > b.real > 0.0):
        raise PreconditionError(
            f"Euler integral needs Re c > Re b > 0, got b={b}, c={c}")
    if z >= 1.0:
        raise DomainError(f"Euler integral needs z < 1, got {z}")

    pref = gamma_ratio_signed([c], [b, c - b])

    def integrand(s, pick_real):
        # t = sin^2(pi s / 2) doubles the algebraic order at both endpoints
        # (the raw integrand is merely C^1-ish there, which quietly breaks
        # the quadrature error estimate); exact endpoints carry no mass
        if s <= 0.0 or s >= 1.0:
            return 0.0
        t = math.sin(0.5 * math.pi * s) ** 2
        jac = 0.5 * math.pi * math.sin(math.pi * s)
        v = (t ** (b - 1.0)) * ((1.0 - t) ** (c - b - 1.0)) \
            * (1.0 - z * t) ** (-a) * jac
        return v.real if pick_real else v.imag

    re, re_err = quad(integrand, 0.0, 1.0, args=(True,),
                      epsabs=tol, epsrel=tol, limit=300)
    im, im_err = quad(integrand, 0.0, 1.0, args=(False,),
                      epsabs=tol, epsrel=tol, limit=300)
    value = pref * complex(re, im)
    err = abs(pref) * (re_err + im_err) + 1e-15 * abs(value)
    return value, err
