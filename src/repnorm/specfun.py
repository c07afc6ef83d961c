"""Gamma-ratio and Gauss hypergeometric machinery.

Everything downstream (coefficient formulas, normalizers, series for the
weighted integrals) reduces to signed Gamma ratios and 2F1 evaluations, so
the conventions are pinned here once:

    (d)_m = d (d+1) ... (d+m-1) = Gamma(d+m) / Gamma(d)
    2F1(a,b;c;z) = sum_k (a)_k (b)_k / ((c)_k k!) z^k

The series refuses |z| >= 1 unless it terminates; reps continues it to the
wall by the hypergeometric ODE.  Its independent check, the Euler-integral
oracle of criterion 1, is integrals.hyp2f1_euler_oracle.

Only this module evaluates log Gamma, digamma and zeta, in numpy alone:
log_gammas takes each value once, by reflection, the recurrence and
Stirling's series (whose coefficients zeta reuses); gamma_rounding gives
the rounding of a sum of those values, bounded from the kernel;
log_gamma_difference and gamma_ratio_signed take a difference of two
large log-Gamma values as one shift pair (_log_gamma_shift), which comes
with its own rounding.
"""

import cmath
import functools
import math
import struct
import threading

import numpy as np

from .errors import ConvergenceError, DomainError, PoleError, PreconditionError

SERIES_KMAX = 1_000_000
# elements per terms x points block of hyp2f1, 256 KB per complex buffer,
# and the most terms one block holds
_SERIES_BLOCK = 1 << 14
_SERIES_ROWS = 256
# the rounding unit of the series' running error bound
_EPS = 2.2e-16
_POLE_TOL = 1e-12
# B_2j / (2j (2j - 1)), j = 1..8: the Stirling series coefficients
# (DLMF 5.11.1); the first one left out, j = 9, is 43867/244188
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0,
             1.0 / 1188.0, -691.0 / 360360.0, 1.0 / 156.0, -3617.0 / 122400.0)
# log Gamma and digamma shift every argument of modulus below this up by
# the recurrence until its real part reaches it
_SHIFT_TO = 12.0
# (log 2 pi)/2 - 1/2, log 2 pi
_STIRLING_CONST = 0.41893853320467267
_LOG_2PI = 1.8378770664093453
# log 2 = _LN2_HI + _LN2_LO, the first to 14 bits; 1/sqrt 2; Veltkamp's
# splitting factor 2^27 + 1, which cuts a double into two halves of 26 bits
_LN2_HI, _LN2_LO = 0.69317626953125, -2.908897130469058e-05
_SQRT_HALF = 0.7071067811865476
_SPLIT = 134217729.0
# 0!, 1!, ..., 22!, all exact in double precision
_FACTORIALS = np.array([float(math.factorial(k)) for k in range(23)])
# the rounding of log Gamma: eps (A + B |log G(z)|) per value (see
# gamma_rounding)
_GAMMA_ROUND_A, _GAMMA_ROUND_B = 80.0, 2.0
# entries of a memo (a workload holds at most 80), of hyp2f1's ratio
# blocks (up to 4 KB each), and the most elements of a keyed array
_MEMO_ENTRIES, _MEMO_BLOCKS, _MEMO_ELEMENTS = 1024, 256, 64
# the largest difference of arguments taken as one _log_gamma_shift pair
_PAIR_GAP = 20.0
_PACK_COMPLEX = struct.Struct("2d").pack


def memo_key(args):
    """The key of a memoized call's arguments, a part each: an int, float
    or complex by its bits as a complex double (so 0.0 and -0.0, which take
    different log-Gamma branches, differ), anything else as a numpy array
    by its dtype, shape and bytes.  None, not memoized, for an array of
    objects or of over _MEMO_ELEMENTS elements."""
    key = []
    for value in args:
        kind = type(value)      # the common types first: a hit costs this
        if kind is float or kind is int:
            key.append(_PACK_COMPLEX(value, 0.0))
        elif kind is complex:
            key.append(_PACK_COMPLEX(value.real, value.imag))
        else:
            value = np.asarray(value)
            if value.dtype.hasobject or value.size > _MEMO_ELEMENTS:
                return None
            key.append((value.dtype.str, value.shape, value.tobytes()))
    return tuple(key)


def _read_only(out):
    for v in out if isinstance(out, tuple) else (out,):
        if isinstance(v, np.ndarray):
            v.flags.writeable = False
    return out


def memoized(size):
    """Memoize a function of positional arguments on their memo_key in a
    functools.lru_cache of size entries (thread-safe, least recently used
    out first, its cache_info and cache_clear on the memo); a miss passes
    its arguments through the thread's slot pending.  Every array the memo
    returns is read-only, memoized or not: callers share them."""
    def decorate(fn):
        pending = threading.local()
        cached = functools.lru_cache(maxsize=size)(
            lambda key: _read_only(fn(*pending.args)))

        @functools.wraps(fn)
        def memo(*args):
            key = memo_key(args)
            if key is None:
                return _read_only(fn(*args))
            pending.args = args
            return cached(key)

        memo.cache_info, memo.cache_clear = cached.cache_info, cached.cache_clear
        return memo
    return decorate


def is_nonpositive_int(z):
    """True when z sits (numerically) on a pole of Gamma, i.e. z in -N0."""
    z = complex(z)
    if abs(z.imag) > _POLE_TOL:
        return False
    r = round(z.real)
    return r <= 0 and abs(z.real - r) <= _POLE_TOL


@memoized(_MEMO_ENTRIES)
def log_gammas(args):
    """log Gamma(z) of each argument off the poles, a complex array of the
    shape of args: the principal branch, analytic off (-inf, 0], whose
    imaginary part on a real argument is that of the limit from the side
    of the sign of its zero imaginary part (so -0.0 and 0.0 differ there).
    Any branch is interchangeable for ratio work because the final exp
    removes multiples of 2*pi*i.

    Each value has the bits of its one-element call in any batch.  Lists
    of up to _MEMO_ELEMENTS arguments are memoized: one pass of the kernel
    over a short list costs about 100 us.  The array returned is read-only,
    memoized or not.
    """
    return _log_gamma_kernel(np.asarray(args, dtype=complex))


def _split_log(x):
    """log x for x > 0 as head + tail: x = m 2^k, m in [1/sqrt 2, sqrt 2),
    head = k (log 2)_hi - 1 exact with at most 24 bits, tail =
    k (log 2)_lo + log m, of size below 0.35 + 3e-5 |k|."""
    m, k = np.frexp(x)
    low = m < _SQRT_HALF
    k = k - low
    return k * _LN2_HI - 1.0, k * _LN2_LO + np.log(np.where(low, 2.0 * m, m))


def _stirling_sum(w):
    """The sum over j = 1..8 of B_2j / (2j (2j - 1) w^(2j-1)), by Horner's
    rule in 1/w^2."""
    inv = 1.0 / w
    inv2 = inv * inv
    out = _STIRLING[-1]
    for coeff in _STIRLING[-2::-1]:
        out = out * inv2 + coeff
    return out * inv


def _stirling(w):
    """log Gamma(w) for Re w >= 12 (Im w >= 0 if complex) as big + rest,
    and log w: Stirling's series with 8 terms (DLMF 5.11.1),

        (w - 1/2)(log w - 1) + (log 2 pi)/2 - 1/2
            + sum_j B_2j / (2j (2j - 1) w^(2j-1)),

    the terms left out below sec^18(ph w / 2) 0.18 / |w|^17 <= 5e-17
    (DLMF 5.11(ii)).  Its largest part, (x - 1/2)(log x - 1) for
    x = Re w, is taken without a rounding at its size: big is the upper 26
    bits of x - 1/2 times the exact head of _split_log(x), and rest,
    real or complex as w is, holds the parts far below it."""
    x = w.real
    head, tail = _split_log(x)
    half = x - 0.5
    split = half * _SPLIT
    half_hi = split - (split - half)
    series = _STIRLING_CONST + _stirling_sum(w)
    big = half_hi * head
    if not np.iscomplexobj(w):
        rest = (half - half_hi) * head + half * tail + series
        return big, rest, (head + 1.0) + tail
    y = w.imag
    tail = tail + 0.5 * np.log1p((y / x) ** 2)
    angle = np.arctan2(y, x)
    rest = ((half - half_hi) * head + half * tail - y * angle + series.real) \
        + 1j * ((y * (head + tail) + half * angle) + series.imag)
    return big, rest, ((head + 1.0) + tail) + 1j * angle


def _shifted(t):
    """log Gamma(t) for Re t >= 1/2 (Im t >= 0 if complex): Stirling's
    series at w = t + N, N = max(0, ceil(12 - Re t)), less the log of the
    product t (t+1) ... (t+N-1), which is one log with its branch count
    (each factor has its argument in [0, pi/2), so the sum of their
    arguments, to within far less than pi, fixes the multiple of 2 pi to
    add).  The two are of size up to 25 and the value can be near 0, so
    both come as exact heads plus small rests, the heads subtracted with
    their rounding kept (TwoSum), and the rounding e of Re t + N is put
    back as e log w."""
    shift = np.maximum(np.ceil(_SHIFT_TO - t.real), 0.0)
    big, rest, log_w = _stirling(t + shift)
    value = big + rest
    small = np.flatnonzero(shift)
    if small.size:
        ts, shift = t[small], shift[small]
        ks = np.arange(_SHIFT_TO)[:, None]
        factors = ts + ks
        factors[ks >= shift] = 1.0
        prod = factors[0]
        for row in factors[1:int(shift.max())]:
            prod = prod * row
        if np.iscomplexobj(prod):
            head, tail = _split_log(np.abs(prod))
            angle = np.angle(prod)
            turns = np.arctan2(factors.imag, factors.real).sum(axis=0)
            tail = tail + 1j * (angle + 2.0 * np.pi * np.round(
                (turns - angle) / (2.0 * np.pi)))
        else:
            head, tail = _split_log(prod)
        # TwoSum of the heads, and of Re t + N
        a, b = big[small], -(head + 1.0)
        s = a + b
        bb = s - a
        s_err = (a - (s - bb)) + (b - bb)
        re = ts.real
        w = re + shift
        bb = w - re
        e = (re - (w - bb)) + (shift - bb)
        value[small] = s + ((s_err + rest[small] - tail) + e * log_w[small])
    return value


def _log_pi_over_sin(z):
    """log(pi / sin(pi z)) for Im z >= 0, as (real part, small imaginary
    part, n): the value on the continuous branch of the upper half plane
    is their sum plus i pi n, and any branch is it plus i pi (n mod 2).
    With x + iy = z, n = round(x), r = x - n and log sin(pi z) =

        log(A + iB) + pi y - log 2 + i (pi/2 - pi r) - i pi n,
        A = -expm1(-2 pi y) + 2 e^(-2 pi y) sin^2(pi r),
        B = -e^(-2 pi y) sin(2 pi r),

    A and B lose no digits near a pole and overflow at no y."""
    x, y = z.real, z.imag
    n = np.round(x)
    r = x - n
    decay = np.exp(-2.0 * np.pi * y)
    s = np.sin(np.pi * r)
    log_sin = np.log((-np.expm1(-2.0 * np.pi * y) + 2.0 * decay * s * s)
                     - 1j * decay * np.sin(2.0 * np.pi * r))
    # on the real axis the phase is 0 or pi exactly
    phase = np.where(y == 0.0, -np.pi * (r < 0.0),
                     np.pi * r - 0.5 * np.pi - log_sin.imag)
    return _LOG_2PI - np.pi * y - log_sin.real, phase, n


def _log_gamma_kernel(z):
    """log Gamma over a complex array, elementwise: real arguments in
    float64, the rest in complex arithmetic with Im z > 0 (a conjugate
    argument gives the conjugate value).  Below Re z = 1/2 the reflection
    formula log Gamma(z) = log(pi / sin(pi z)) - log Gamma(1 - z) is
    taken with _log_pi_over_sin, on the real axis as log pi -
    log|sin(pi r)| and a multiple of pi.  The integers 1..23, whose
    log-Gamma values are logs of exact factorials, are _split_log of
    them: log Gamma(1) = log Gamma(2) = 0 exactly."""
    z = np.asarray(z, dtype=complex)
    flat = z.reshape(-1)
    out = np.empty(flat.shape, dtype=complex)
    real = flat.imag == 0.0
    lower = np.signbit(flat.imag)
    at = np.flatnonzero(real)
    if at.size:
        x = flat.real[at]
        refl = np.flatnonzero(x < 0.5)
        t = x.copy()
        t[refl] = 1.0 - x[refl]
        value = _shifted(t)
        whole = np.flatnonzero((t == np.floor(t)) & (t <= _FACTORIALS.size))
        if whole.size:
            head, tail = _split_log(_FACTORIALS[t[whole].astype(int) - 1])
            value[whole] = (head + 1.0) + tail
        imag = np.zeros(x.shape)
        if refl.size:
            n = np.round(x[refl])
            r = x[refl] - n
            value[refl] = (math.log(math.pi)
                           - np.log(np.abs(np.sin(math.pi * r)))
                           - value[refl])
            imag[refl] = math.pi * (n - (r < 0.0))
        imag[lower[at]] *= -1.0
        out[at] = value + 1j * imag
    at = np.flatnonzero(~real)
    if at.size:
        low = lower[at]
        zc = flat[at]
        zc[low] = np.conj(zc[low])
        refl = np.flatnonzero(zc.real < 0.5)
        t = zc.copy()
        t[refl] = np.conj(1.0 - zc[refl])
        value = _shifted(t)
        if refl.size:
            re, im, n = _log_pi_over_sin(zc[refl])
            g = value[refl]
            value[refl] = (re - g.real) + 1j * ((im + np.pi * n) + g.imag)
        value[low] = np.conj(value[low])
        out[at] = value
    return out.reshape(z.shape)


def gamma_rounding(values):
    """Relative rounding of exp of a signed sum of these log-Gamma values:
    the final exp turns the absolute error of the sum into a relative one,
    and each value v adds eps (80 + 2 |v|), the bound of the kernel of
    log_gammas, in which each elementary function and each real product
    rounds by at most one ulp (a complex product by sqrt 5 / 2 of one):
    - Stirling's series at Re w >= 12: (x - 1/2)(log x - 1) is exact but
      for log m, within eps/4, times x - 1/2; the parts below it round at
      their sizes (at most 0.35 x + 1), the value once at its size:
      within eps (0.5 |v| + 0.83 x + 1.5), below eps (1.1 |v| + 2.3); the
      imaginary part and log1p((y/x)^2) of a complex w add 0.5 eps |v|.
    - A shift (Re t < 12): the rest of the value at t + N (below 5 in
      size) within 10 eps, the product of at most 12 factors with 23
      roundings (11.5 eps, or 18 for complex factors), its log's tail and
      the sums of the rests 8 eps, with the exact heads subtracted and the
      rounding of t + N put back: within eps (40 + 0.5 |v|).
    - Reflection: log Gamma(1 - z) as above, at most |v| + |log sin| + 1.2
      in size; log|sin| within eps (1.5 + |log sin|) and two more sums:
      within eps (1.7 |v| + 77) for every argument farther than 1e-12
      from a pole, where |log sin| < 27.
    tests/test_log_gamma_truth.py holds 50-digit values to it."""
    return _EPS * sum(_GAMMA_ROUND_A + _GAMMA_ROUND_B * abs(v)
                      for v in values)


def digamma(z):
    """psi(z) = Gamma'(z)/Gamma(z), real or complex as z is (a scalar or an
    array): the shift of log_gammas, psi(t) = psi(t + N) - sum_k 1/(t+k),
    then DLMF 5.11.2, psi(w) ~ log w - 1/(2w) - sum_j B_2j/(2j w^(2j)),
    and psi(z) = psi(1 - z) - pi cot(pi z) below Re z = 1/2."""
    arr = np.asarray(z)
    z = arr.astype(complex)
    refl = z.real < 0.5
    t = np.where(refl, 1.0 - z, z)
    shift = np.maximum(np.ceil(_SHIFT_TO - t.real), 0.0)
    recip = np.zeros(t.shape, dtype=complex)
    for k in range(int(np.max(shift, initial=0.0))):
        recip += np.where(k < shift, 1.0 / (t + k), 0.0)
    w = t + shift
    inv2 = 1.0 / (w * w)
    series = 0.0
    for j in range(len(_STIRLING), 0, -1):
        series = series * inv2 + (2 * j - 1) * _STIRLING[j - 1]
    out = np.log(w) - 0.5 / w - series * inv2 - recip
    if refl.any():
        out = np.where(refl, out - math.pi / np.tan(math.pi * z), out)
    if not np.iscomplexobj(arr):
        out = out.real
    return out[()] if out.ndim == 0 else out


def zeta(s):
    """Riemann zeta(s), s != 1, Re s >= 0, |s| <= 1e4, by Euler-Maclaurin
    summation (DLMF 25.2.9) to N = 16 + ceil|s| with eight corrections,
    B_2j/(2j)! = _STIRLING[j-1]/(2j-2)!:

        sum_{k<N} k^-s + N^(1-s)/(s-1) + N^-s/2
            + sum_{j=1..8} B_2j/(2j)! (s)_(2j-1) N^(1-s-2j).

    The remainder is at most |s+17|/(Re s+17) times the first term left
    out, B_18/18! |(s)_17| N^(-Re s-17) (Edwards, Riemann's Zeta Function,
    sec. 6.4): below 4e-16 for Re s <= 3, |Im s| <= 50.  The phase of k^-s
    is the exact product of the upper halves of Im s and of _split_log's
    head plus a small rest, so its rounding does not grow with Im s log k;
    the result is within 1e-13 max(1, |zeta|) of 30-digit values there.
    Re s < 0, where the direct sum cancels by N^(-Re s), is refused."""
    s = complex(s)
    if s == 1.0:
        raise PoleError("zeta has its pole at s = 1")
    if not (s.real >= 0.0 and abs(s) <= 1e4):
        raise DomainError(f"zeta needs Re s >= 0 and |s| <= 1e4, got {s}")
    big_n = 16 + math.ceil(abs(s))
    head, tail = _split_log(np.arange(1.0, big_n + 1.0))
    log_hi = head + 1.0
    t = s.imag
    split = t * _SPLIT
    t_hi = split - (split - t)
    powers = (np.exp(-s.real * (log_hi + tail))
              * np.exp(-1j * (t_hi * log_hi))
              * np.exp(-1j * ((t - t_hi) * log_hi + t * tail)))
    n_pow = complex(powers[-1])
    total = complex(np.sum(powers[:-1])) \
        + big_n * n_pow / (s - 1.0) + 0.5 * n_pow
    rising = s * n_pow / big_n      # (s)_(2j-1) N^(1-s-2j), from j = 1
    for j, coeff in enumerate(_STIRLING):
        total += coeff / math.factorial(2 * j) * rising
        rising *= (s + 2 * j + 1) * (s + 2 * j + 2) / big_n ** 2
    return total


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
    its relative rounding: gamma_rounding of every value summed.

    Poles are resolved when they cancel pairwise between numerator and
    denominator: Gamma(-a+delta)/Gamma(-b+delta) -> (-1)^(a-b) b!/a! as
    delta -> 0 (a, b in N0), whose factorials join the other arguments.  A
    surviving numerator pole raises PoleError; surviving denominator poles
    give (0, 0).  The log of the ratio comes from _log_gamma_ratio.
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
    # b! over a! for each pair: b + 1 joins the numerator, a + 1 the
    # denominator
    num += [b + 1.0 for b in den_poles]
    den += [a + 1.0 for a in num_poles]
    sign = 1.0
    for a, b in zip(num_poles, den_poles):
        if (a - b) % 2:
            sign = -sign
    log_acc, rounding = _log_gamma_ratio(np.array(num + den, complex), len(num))
    if log_acc.real > 709.0:
        raise PoleError(f"gamma ratio overflows: log magnitude {log_acc.real:.1f}")
    return sign * cmath.exp(log_acc), rounding


@memoized(_MEMO_ENTRIES)
def _log_gamma_ratio(args, n_num):
    """(log of prod Gamma(num) / prod Gamma(den) up to a multiple of
    2 pi i, its absolute rounding) for the arguments off the poles in the
    array args, num first.  Each argument below Re z = 1/2 is reflected,
    Gamma(z) = (pi / sin(pi z)) / Gamma(1 - z), which moves 1 - z to the
    other side and adds _log_pi_over_sin(z) with its phase reduced mod
    2 pi.  Then each numerator argument, largest first, is paired with the
    nearest denominator argument when both have modulus >= 12 and differ
    by at most 20: log Gamma(a) - log Gamma(b) is one _log_gamma_shift
    pair, so two log-Gamma values of size |a| log|a| are not subtracted.
    The rest are log_gammas values.  The rounding is that of each pair
    and gamma_rounding of the other values, the reflection terms among
    them (within eps (3 + |term|): log pi - log sin)."""
    sides = [list(args[:n_num]), list(args[n_num:])]
    flip, reflected = [], []
    for side, other, sign in ((0, 1, 1.0), (1, 0, -1.0)):
        for v in [v for v in sides[side] if v.real < 0.5]:
            sides[side].remove(v)
            sides[other].append(1.0 - v)
            reflected.append(v)
            flip.append(sign)
    num, den = sides
    pairs = []
    for a in sorted(num, key=abs, reverse=True):
        near = [b for b in den if abs(b) >= _SHIFT_TO
                and abs(a - b) <= _PAIR_GAP]
        if abs(a) >= _SHIFT_TO and near:
            b = min(near, key=lambda b: abs(a - b))
            num.remove(a)
            den.remove(b)
            pairs.append((b, a - b))
    log_acc, values, rounding = 0.0 + 0.0j, [], 0.0
    if reflected:
        refl = np.array(reflected)
        lower = np.signbit(refl.imag)
        re, im, n = _log_pi_over_sin(np.where(lower, np.conj(refl), refl))
        im = im + np.pi * np.mod(n, 2.0)
        terms = re + 1j * np.where(lower, -im, im)
        log_acc += complex(np.dot(flip, terms))
        values += terms.tolist()
    if pairs:
        w, d = (np.array(v) for v in zip(*pairs))
        terms, pair_rounding = _log_gamma_shift(w, d)
        log_acc += complex(np.sum(terms))
        rounding += float(np.sum(pair_rounding))
    if num or den:
        terms = log_gammas(num + den)
        log_acc += complex(np.sum(terms[:len(num)]) - np.sum(terms[len(num):]))
        values += terms.tolist()
    return log_acc, rounding + gamma_rounding(values)


def _log1p(zeta):
    """log(1 + zeta) to full relative precision for small zeta, real or
    complex: 0.5 log1p(x (2 + x) + y^2) + i atan2(y, 1 + x) for complex
    zeta = x + iy, whose real part never forms |1 + zeta|."""
    if not np.iscomplexobj(zeta):
        return np.log1p(zeta)
    x, y = zeta.real, zeta.imag
    return 0.5 * np.log1p(x * (2.0 + x) + y * y) + 1j * np.arctan2(y, 1.0 + x)


def _log_gamma_shift(w, d):
    """log Gamma(w + d) - log Gamma(w) for w (an array, real or complex)
    and a shift d with |w|, |w + d| >= 12 and Re w, Re(w + d) >= 1/2, and
    the absolute rounding of each value.

    The two log-Gamma values have size |w| log|w| and differ by about
    d log w, so their difference in double precision keeps only the digits
    they share.  Differencing the Stirling series (DLMF 5.11.1) term by
    term never forms them:

        d log w + (w + d - 1/2) log1p(d/w) - d
            + sum_j B_2j / (2j (2j-1)) ((w + d)^(1-2j) - w^(1-2j)),

    j = 1..8, the sums by Horner's rule in 1/w^2; the terms left out are
    below 1e-19 at |w| = 12.  log1p is _log1p: numpy's complex log1p is not
    accurate for arguments of size 1e-12, and the factor w + d - 1/2 would
    magnify its error |w| times.  The rounding: d log w within 2.1 eps of
    its size (the log and the product), the second term within 6.2 eps
    (d/w, log1p, w + d - 1/2 and the product) and the three sums
    0.7 eps of the terms each: eps (4.3 |d log w| + 8.3 |(w + d - 1/2)
    log1p(d/w)| + 2.1 |d| + 1), the 1 for the differenced series.
    """
    w = np.asarray(w)
    if not np.iscomplexobj(w):
        w = w.astype(float)
    head = d * np.log(w)
    body = (w + d - 0.5) * _log1p(d / w)
    value = head + body - d + (_stirling_sum(w + d) - _stirling_sum(w))
    return value, _EPS * (4.3 * np.abs(head) + 8.3 * np.abs(body)
                          + 2.1 * np.abs(d) + 1.0)


@memoized(_MEMO_ENTRIES)
def log_gamma_difference(w, d):
    """log Gamma(w + d) - log Gamma(w) for real w (a number or an array)
    and a real shift d with w, w + d >= 1/2, and its absolute rounding:
    one _log_gamma_shift pair, with the rounding it derives, where
    w and w + d are at least 12 and |d| <= 20, so that no two log-Gamma
    values of size w log w are subtracted and w + d is never rounded into
    an argument, else the two log-Gamma values and their gamma_rounding.
    Memoized, as log_gammas: the normalizers and oracle windows of a scan
    or a column ask for the same few."""
    w, d = np.asarray(w, dtype=float), float(d)
    flat = w.reshape(-1)
    diff, rounding = np.empty(flat.shape), np.empty(flat.shape)
    pair = (np.minimum(flat, flat + d) >= _SHIFT_TO) & (abs(d) <= _PAIR_GAP)
    at = np.flatnonzero(pair)
    if at.size:
        diff[at], rounding[at] = _log_gamma_shift(flat[at], d)
    at = np.flatnonzero(~pair)
    if at.size:
        up, down = log_gammas([flat[at] + d, flat[at]]).real
        diff[at] = up - down
        rounding[at] = gamma_rounding([up, down])
    if w.ndim == 0:
        return float(diff[0]), float(rounding[0])
    return diff.reshape(w.shape), rounding.reshape(w.shape)


def _terminating_order(a, b):
    """Smallest K with (a)_{K+1} = 0 or (b)_{K+1} = 0, else None."""
    orders = [int(round(-complex(z).real))
              for z in (a, b) if is_nonpositive_int(z)]
    return min(orders) if orders else None


def hyp2f1(a, b, c, xs, tol=1e-15, deriv=False):
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
    ConvergenceError past SERIES_KMAX terms, read at the call.

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
    if order is None and (np.abs(xs) >= 1.0).any():
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
    i = int(np.abs(x).argmax()) if n else 0
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
        if k >= SERIES_KMAX:
            raise ConvergenceError(f"2F1 series not converged after"
                                   f" {SERIES_KMAX} terms (c-a-b={c - a - b})")
        size = live.size
        rows = min(max(16, width), _SERIES_ROWS,
                   max(1, _SERIES_BLOCK // size), SERIES_KMAX - k,
                   SERIES_KMAX if order is None else order - k)
        terms = buf_t[:(rows + 1) * size].reshape(rows + 1, size)
        sums = buf_s[:(rows + 1) * size].reshape(rows + 1, size)
        terms[0], sums[0] = term, total
        # t_{j+1} / (x t_j) over the block and, unless the series
        # terminates (c + j may be 0 past its order), the term after it
        ratio = _series_ratios(a, b, c, k, rows + (order is None))
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
        runs = np.cumsum(np.concatenate((run[None], (ks + 2.0) * mags + sizes)),
                         axis=0)
        run = runs[rows]
        if deriv:
            dsums = buf_d[:(rows + 1) * size].reshape(rows + 1, size)
            dsums[0] = dtotal
            np.multiply(terms[1:], ks, dsums[1:])
            np.cumsum(dsums, axis=0, out=dsums)
            dtotal = dsums[rows]
            druns = np.cumsum(np.concatenate(
                (drun[None], ks * (ks + 3.0) * mags + np.abs(dsums[1:]))),
                axis=0)
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
                done = stop.nonzero()[0]
                row = first + 16 * small[:, done].argmax(axis=0)
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
                i = int(np.abs(x).argmax())
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


@memoized(_MEMO_BLOCKS)
def _series_ratios(a, b, c, k, count):
    """t_{j+1} / (x t_j) = (a+j)(b+j)/((c+j)(j+1)) for j = k..k+count-1: a
    scan or an integral walks the same blocks of one series many times."""
    return np.array([(a + j) * (b + j) / ((c + j) * (j + 1.0))
                     for j in range(k, k + count)], complex)
