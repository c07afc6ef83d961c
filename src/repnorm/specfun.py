"""Gamma-ratio and Gauss hypergeometric machinery.

Everything downstream (coefficient formulas, normalizers, series for the
weighted integrals) reduces to signed Gamma ratios and 2F1 evaluations, so
the conventions are pinned here once:

    (d)_m = d (d+1) ... (d+m-1) = Gamma(d+m) / Gamma(d)
    2F1(a,b;c;z) = sum_k (a)_k (b)_k / ((c)_k k!) z^k

The series refuses |z| >= 1 unless it terminates; callers that need the
wall use an integral representation or the circle oracle instead.

Only this module evaluates log Gamma (log_gammas, each value once, and
gamma_rounding from those values) and digamma.
"""

import cmath
import math

import numpy as np
from scipy.special import log1p, loggamma, psi

from .errors import ConvergenceError, DomainError, PoleError, PreconditionError

SERIES_KMAX = 1_000_000
# elements per terms x points block of hyp2f1, 256 KB per complex buffer,
# and the most terms one block holds
_SERIES_BLOCK = 1 << 14
_SERIES_ROWS = 256
# the rounding unit of the series' running error bound
_EPS = 2.2e-16
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


def log_gammas(args):
    """log Gamma(z) of each argument off the poles, a complex array from one
    call of the backend.

    Backed by scipy's loggamma (principal branch of the analytic
    continuation).  Any branch is interchangeable for ratio work because the
    final exp removes multiples of 2*pi*i.
    """
    return loggamma(np.asarray(args, dtype=complex))


def gamma_rounding(values):
    """Relative rounding of exp of a signed sum of these log-Gamma values:
    the final exp turns the absolute error of the sum into a relative one,
    and each value adds eps (8 + |log G(z)|): against mpmath, scipy's
    loggamma is off by about eps times its size for large |z|, but by up to
    30 eps, whatever its size, below |z| ~ 12."""
    return _EPS * sum(8.0 + abs(v) for v in values)


# psi(z) = Gamma'(z)/Gamma(z), real or complex as z is
digamma = psi


def pochhammer(d, m):
    """Rising factorial (d)_m for integer m >= 0 (complex d allowed)."""
    if int(m) != m or m < 0:
        raise PreconditionError(f"pochhammer wants integer m >= 0, got {m}")
    d, out = complex(d), 1.0 + 0.0j
    for j in range(int(m)):
        out *= d + j
    return out


def gamma_ratio_signed(num, den):
    """prod Gamma(num_i) / prod Gamma(den_j), computed in log space, and
    its relative rounding: gamma_rounding of the arguments off the poles.

    Poles are resolved when they cancel pairwise between numerator and
    denominator: Gamma(-a+delta)/Gamma(-b+delta) -> (-1)^(a-b) b!/a! as
    delta -> 0 (a, b in N0).  A surviving numerator pole raises PoleError;
    surviving denominator poles give (0, 0).
    """
    num = [complex(z) for z in num]
    den = [complex(z) for z in den]
    num_poles = sorted(-round(z.real) for z in num if is_nonpositive_int(z))
    den_poles = sorted(-round(z.real) for z in den if is_nonpositive_int(z))
    if len(num_poles) > len(den_poles):
        raise PoleError(f"unresolved Gamma pole in numerator: {num}")
    if len(den_poles) > len(num_poles):
        return 0.0 + 0.0j, 0.0
    num = [z for z in num if not is_nonpositive_int(z)]
    den = [z for z in den if not is_nonpositive_int(z)]
    values = log_gammas(num + den)

    sign = 1.0
    log_acc = 0.0 + 0.0j
    for a, b in zip(num_poles, den_poles):
        if (a - b) % 2:
            sign = -sign
        log_acc += complex(loggamma(b + 1.0)) - complex(loggamma(a + 1.0))
    for v in values[:len(num)]:
        log_acc += v
    for v in values[len(num):]:
        log_acc -= v
    if log_acc.real > 709.0:
        raise PoleError(f"gamma ratio overflows: log magnitude {log_acc.real:.1f}")
    return sign * cmath.exp(log_acc), gamma_rounding(values)


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


def hyp2f1(a, b, c, xs, tol=1e-15, kmax=SERIES_KMAX, deriv=False):
    """Gauss series 2F1(a, b; c; x) over an array of real x; returns
    (F, err), arrays of the shape of xs, and with deriv=True
    (F, err, F', F'_err), F' = dF/dx from the same terms.

    Term recursion t_{k+1} = t_k x (a+k)(b+k)/((c+k)(k+1)), t_0 = 1.  Each
    point stops at the first 16th term t_j where |t_j| and the bound
    |t_j| q / (1 - q) on the tail past it, q = |x| max(1, |t_{j+1}/(x t_j)|)
    while the later terms fall monotonically, are at most tol times the
    largest of 1 and its partial sums at the 16th terms; a terminating
    series (a or b in -N0) at its order.  err is that tail bound plus the
    running rounding bound eps (sum (k+2) |t_k| + sum |S_k|) of the k
    products that make t_k and of the partial sums S_k (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., SIAM 2002, 3.3 and
    4.2).  Refuses |x| >= 1 unless the series terminates; raises
    ConvergenceError past kmax terms.

    The terms are walked in blocks of at most _SERIES_ROWS terms and
    _SERIES_BLOCK elements, sized for the point of largest |x|; finished
    points leave the working set after a block.  Each term is one
    elementwise multiply with named operands (np.cumprod, and numpy's
    in-place temporaries above 256 KB, round complex products differently)
    and the partial sums add in term order, as do the terms of the rounding
    bound, up to each point's own stop; so a point's F and err have the
    bits of its one-point call in any batch.

    F' is sum_k k t_k / x (DLMF 15.5.1 term by term), its partial sums D_k
    added in term order as F's are and cut at F's stop; at x = 0 it is
    ab/c.  F'_err is (|t_j| (j q/(1-q) + q/(1-q)^2), the tail past the
    stop term t_j, plus eps (sum k (k+3) |t_k| + sum |D_k|))/|x| +
    eps |F'|.  Asking for F' leaves the bits of F and err as they are.
    """
    a, b, c = complex(a), complex(b), complex(c)
    xs = np.asarray(xs, dtype=float)
    order = _terminating_order(a, b)
    if order is None and np.any(np.abs(xs) >= 1.0):
        raise DomainError(
            f"series non-convergent at |x|={float(np.max(np.abs(xs)))}")
    if is_nonpositive_int(c) and (order is None
                                  or order >= -round(c.real) + 1):
        raise DomainError(f"c={c} is a pole not cleared by termination")

    n = xs.size
    value, err = np.empty(n, dtype=complex), np.empty(n)
    # per point: sum k t_k, its live partial sum, bound and rounding / eps
    if deriv:
        dvalue, dtotal = np.empty(n, dtype=complex), np.zeros(n, complex)
        derr, drun = np.empty(n), np.zeros(n)
    # the live points' index, x, last term and partial sum, stop scale and
    # rounding bound over eps (t_0 = 1 adds 2); i, that of largest |x|
    live, x = np.arange(n), xs.reshape(-1)
    term = total = np.ones(n, dtype=complex)
    scale, run = np.ones(n), np.full(n, 2.0)
    i = int(np.argmax(np.abs(x))) if n else 0
    # row 0 carries the term and the partial sum before the block; rows 1..
    # of sums hold the block's factors until its terms are known
    buf_t = np.empty(min(_SERIES_ROWS * n, _SERIES_BLOCK) + 2 * n, complex)
    buf_s = np.empty_like(buf_t)
    buf_d = np.empty_like(buf_t) if deriv else None
    k, width = 0, 16
    multiply, add = np.multiply, np.add
    while live.size:
        if k == order:
            value[live], err[live] = total, _EPS * run
            if deriv:
                dvalue[live], derr[live] = dtotal, _EPS * drun
            break
        if k >= kmax:
            raise ConvergenceError(f"2F1 series not converged after {kmax}"
                                   f" terms (c-a-b={c - a - b})")
        size = live.size
        rows = min(max(16, width), _SERIES_ROWS,
                   max(1, _SERIES_BLOCK // size), kmax - k,
                   kmax if order is None else order - k)
        terms = buf_t[:(rows + 1) * size].reshape(rows + 1, size)
        sums = buf_s[:(rows + 1) * size].reshape(rows + 1, size)
        terms[0], sums[0] = term, total
        # t_{j+1} / (x t_j) over the block and, unless the series
        # terminates (c + j may be 0 past its order), the term after it
        ratio = np.array([(a + j) * (b + j) / ((c + j) * (j + 1.0)) for j
                          in range(k, k + rows + (order is None))], complex)
        multiply(x, ratio[:rows, None], sums[1:])
        t_rows, s_rows = list(terms), list(sums)    # views made once
        for j in range(rows):
            multiply(t_rows[j], s_rows[j + 1], t_rows[j + 1])
        if rows >= size:
            sums[1:] = terms[1:]
            np.cumsum(sums, axis=0, out=sums)
        else:
            for j in range(rows):
                add(s_rows[j], t_rows[j + 1], s_rows[j + 1])
        term, total = terms[rows], sums[rows]
        # row j: the rounding bounds over eps through t_{k+j} (of weight
        # k+j+2, and S_{k+j}) and through (k+j) t_{k+j} (weight (k+j)(k+j+3),
        # and D_{k+j}), in term order, so that they stop with their point
        mags, sizes = np.abs(terms[1:]), np.abs(sums[1:])
        ks = np.arange(k + 1.0, k + rows + 1.0)[:, None]
        runs = np.cumsum(np.vstack([run, (ks + 2.0) * mags + sizes]), axis=0)
        run = runs[rows]
        if deriv:
            dsums = buf_d[:(rows + 1) * size].reshape(rows + 1, size)
            dsums[0] = dtotal
            np.multiply(terms[1:], ks, dsums[1:])
            np.cumsum(dsums, axis=0, out=dsums)
            dtotal = dsums[rows]
            druns = np.cumsum(np.vstack(
                [drun, ks * (ks + 3.0) * mags + np.abs(dsums[1:])]), axis=0)
            drun = druns[rows]
        first = 16 - k % 16      # row j holds t_{k+j}; the first 16th term
        if order is None and rows >= first:
            # fmax skips a nan, as max(scale, nan) does
            peaks = np.fmax.accumulate(np.concatenate(
                (scale[None], sizes[first - 1::16])), axis=0)[1:]
            scale = peaks[-1]
            # the 16th terms and their tail bounds (infinite at q >= 1); a
            # nan compares false and stops its point
            m16 = mags[first - 1::16]
            q = np.abs(x) * np.maximum(1.0, np.abs(ratio[first::16, None]))
            tails = m16 * np.divide(q, 1.0 - q, out=np.full(q.shape, np.inf),
                                    where=q < 1.0)
            small = ~(np.maximum(m16, tails) > tol * peaks)
            if small.any():
                stop = small.any(axis=0)
                done = np.flatnonzero(stop)
                row = first + 16 * np.argmax(small[:, done], axis=0)
                at = live[done]
                hit = (row - first) // 16
                value[at] = sums[row, done]
                err[at] = _EPS * runs[row, done] + tails[hit, done]
                if deriv:
                    dvalue[at] = dsums[row, done]
                    # the tail of sum k t_k past the stop term t_j, j = k+row
                    qs, j = q[hit, done], k + row
                    derr[at] = _EPS * druns[row, done] + m16[hit, done] * (
                        j * qs / (1.0 - qs) + qs / (1.0 - qs) ** 2)
                if done.size == size:
                    break
                live, x, scale, run, term, total = (
                    v[~stop] for v in (live, x, scale, run, term, total))
                if deriv:
                    dtotal, drun = dtotal[~stop], drun[~stop]
                i = int(np.argmax(np.abs(x)))
        k += rows
        # the next block holds the terms that point i needs to stop if they
        # fall at their present ratio r; twice as many if r is no guide
        r = abs(x[i]) * abs(ratio[rows]) if order is None else 0.0
        goal = tol * scale[i] * min(1.0, (1.0 - r) / r) if r else 0.0
        t = abs(term[i])
        width = (16 * math.ceil(math.log(goal / t) / (16.0 * math.log(r)))
                 if 0.0 < r < 1.0 and t > goal else 2 * width)
    if not deriv:
        return value.reshape(xs.shape), err.reshape(xs.shape)
    flat = xs.reshape(-1)
    at_zero = a * b / c if c != 0.0 else complex(math.nan)
    slope = np.divide(dvalue, flat, out=np.full(n, at_zero), where=flat != 0.0)
    # the division by x rounds once; ab/c at x = 0 three times
    slope_err = np.where(flat != 0.0, _EPS, 4.0 * _EPS) * np.abs(slope) \
        + np.divide(derr, np.abs(flat), out=np.zeros(n), where=flat != 0.0)
    return value.reshape(xs.shape), err.reshape(xs.shape), \
        slope.reshape(xs.shape), slope_err.reshape(xs.shape)


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

    pref, _ = gamma_ratio_signed([c], [b, c - b])

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
