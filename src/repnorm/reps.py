"""Matrix coefficients of the irreducible families on the diagonal flow.

Three families are implemented against one pair of conventions:

* circle model (principal / complementary): basis f_n(e^{i th}) = e^{-in th},
  compact character of f_n is 2n + 2 sigma, and

      coef(n, m) = <pi(a_x) f_m, f_n>          (L^2 pairing, linear slot first)

* disc model (holomorphic discrete family, lowest weight ell >= 2): basis
  f_n(z) = (-1)^(n-ell/2) binom(n+ell/2-1, n-ell/2)^(1/2) z^(n-ell/2) for
  n in ell/2 + N0, compact character 2n, and

      coef(n, m) = <f_n, pi(a_x) f_m>_ell      (weighted pairing, antilinear
                                                slot first)

Both give "apply the group to f_m, project on f_n", so a column at fixed m
is directly comparable with the oracle output.

Each family has one closed-form evaluator, coef_vec: a Gamma prefactor (log
space, signed) times a Gauss hypergeometric factor on the circle, a finite
sum on the disc; coef is its one-point call.  Each family also has a
first-principles oracle that
never touches the closed forms: Fourier analysis of the transformed circle
function, and Taylor extraction of the transformed disc function.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NormalizationError, PreconditionError
from .group import cartan_from_x
from .specfun import (SERIES_KMAX, gamma_ratio_signed, hyp2f1,
                      is_nonpositive_int, log_gamma)

X_CUT = 0.98
ORACLE_TOL = 1e-9


# ---------------------------------------------------------------------------
# Representation descriptors: each class carries the facts of its family
# (spectrum, basis index of a character, reference column m_ref, circle
# parameters (sigma, lam) or None on the disc, normalizer, unitarity).


class _Circle:
    """Facts shared by the circle-model families: basis index n in Z,
    compact character 2n + 2 sigma, reference column m = 0."""

    m_ref = 0.0

    def spectrum(self, limit):
        """Compact characters with absolute value <= limit, ascending."""
        parity = int(2 * self.sigma)
        return [k for k in range(-int(limit), int(limit) + 1)
                if (k - parity) % 2 == 0]

    def basis_index(self, kappa):
        """Basis index whose compact character is kappa."""
        if int(kappa) not in self.spectrum(abs(int(kappa))):
            raise PreconditionError(
                f"character {kappa} not in the spectrum of {self}")
        return (int(kappa) - 2 * self.sigma) / 2.0

    def indices(self, limit):
        """Basis indices with |index| <= limit."""
        return list(range(-int(limit), int(limit) + 1))

    def as_index(self, value):
        """A basis index given as a number; circle indices are integers."""
        v = float(value)
        if v != int(v):
            raise PreconditionError(f"index {value} must be an integer")
        return int(v)


@dataclass(frozen=True)
class Principal(_Circle):
    """Circle-model series with parity sigma in {0, 1/2} and spectral
    parameter lam in the open strip -1 < Re lam < 0 (uniformly bounded
    range).  Unitary on the line Re lam = -1/2; irreducible unless
    lam + sigma is an integer (the reducible points stay evaluable)."""
    sigma: float
    lam: complex

    def __post_init__(self):
        if self.sigma not in (0.0, 0.5):
            raise PreconditionError(f"sigma must be 0 or 1/2, got {self.sigma}")
        lam = complex(self.lam)
        if not (-1.0 < lam.real < 0.0):
            raise PreconditionError(f"need -1 < Re lam < 0, got {lam}")
        object.__setattr__(self, "lam", lam)

    @property
    def circle(self):
        return self.sigma, self.lam

    @property
    def unitary(self):
        return abs(self.lam.real + 0.5) < 1e-12

    def normalizer(self, n, m):
        return 1.0


@dataclass(frozen=True)
class Complementary(_Circle):
    """Deformed circle-model series, real lam in (-1/2, 0): the sigma = 0
    circle coefficients times the normalizer ratio, unitary for the
    renormalized basis."""
    lam: float

    sigma = 0.0
    unitary = True

    def __post_init__(self):
        if not (-0.5 < self.lam < 0.0):
            raise PreconditionError(f"need -1/2 < lam < 0, got {self.lam}")

    @property
    def circle(self):
        return 0.0, complex(self.lam)

    def normalizer(self, n, m):
        return complementary_normalizer(self.lam, n, m)


@dataclass(frozen=True)
class Discrete:
    """Holomorphic disc-model representation with lowest weight ell >= 2:
    basis index n in ell/2 + N0, compact character 2n."""
    ell: int

    circle = None
    unitary = True

    def __post_init__(self):
        if int(self.ell) != self.ell or self.ell < 2:
            raise PreconditionError(f"need integer ell >= 2, got {self.ell}")
        object.__setattr__(self, "ell", int(self.ell))

    @property
    def m_ref(self):
        return self.ell / 2.0

    def spectrum(self, limit):
        return list(range(self.ell, int(limit) + 1, 2))

    def basis_index(self, kappa):
        kappa = int(kappa)
        if kappa < self.ell or (kappa - self.ell) % 2 != 0:
            raise PreconditionError(
                f"character {kappa} not in the spectrum of {self}")
        return kappa / 2.0

    def indices(self, limit):
        j_top = int(math.floor(limit - self.ell / 2.0 + 1e-9))
        return [self.ell / 2.0 + j for j in range(j_top + 1)]

    def as_index(self, value):
        return float(value)


@dataclass(frozen=True)
class CoefValue:
    value: complex
    method: str
    err_est: float


def _discrete_index(ell, n):
    """Validate n in ell/2 + N0 and return the offset j = n - ell/2."""
    j2 = 2.0 * n - ell
    j = int(round(j2 / 2.0))
    if abs(j2 - 2 * j) > 1e-9 or j < 0:
        raise PreconditionError(f"index {n} not in ell/2 + N0 for ell={ell}")
    return j


# ---------------------------------------------------------------------------
# Closed forms


def _principal_params(sigma, lam, n, m):
    """Series parameters and Gamma prefactor of coef(n, m); the two index
    orders are mirror images of one another.  2F1 is symmetric in a and b
    (DLMF 15.2.1), so the pair is returned with Re a <= Re b, the order the
    Euler integral above X_CUT needs."""
    lam = complex(lam)
    if n >= m:
        a = -lam - m - sigma
        b = -lam + n + sigma
        c = float(n - m + 1)
        pref = gamma_ratio_signed([lam - m - sigma + 1.0],
                                  [c, lam - n - sigma + 1.0])
    else:
        a = -lam - n - sigma
        b = -lam + m + sigma
        c = float(m - n + 1)
        pref = gamma_ratio_signed([lam + m + sigma + 1.0],
                                  [c, lam + n + sigma + 1.0])
    if a.real > b.real:
        a, b = b, a
    return a, b, c, pref


def complementary_normalizer(lam, n, m=0):
    """Ratio of renormalizations C(n, m) = sqrt(H(n)/H(m)).

    The defining quadratic form has H(k) = G(lam-k+1)/G(-lam-k) on the k-th
    basis vector; reflection turns this into G(|k|+1+lam)/G(|k|-lam), which
    is manifestly positive for -1 < lam < 0.  Positivity of the defining
    form is still checked on the requested indices.
    """
    lam = float(lam)

    def log_h(k):
        k = abs(int(k))
        return (log_gamma(k + 1.0 + lam) - log_gamma(k - lam)).real

    for k in (n, m):
        h_sign = gamma_ratio_signed([lam - int(k) + 1.0], [-lam - int(k)])
        if h_sign.real <= 0.0 or abs(h_sign.imag) > 1e-9 * abs(h_sign):
            raise NormalizationError(
                f"renormalizing form not positive at index {k}: {h_sign}")
    return math.exp(0.5 * (log_h(n) - log_h(m)))


def _discrete_log_j(ell, p, q):
    """log of |J|, the symmetric Gamma prefactor of the disc closed form."""
    return 0.5 * (log_gamma(p + float(ell)).real + log_gamma(q + float(ell)).real
                  - log_gamma(p + 1.0).real - log_gamma(q + 1.0).real) \
        - log_gamma(float(ell)).real


# ---------------------------------------------------------------------------
# Oracles


def _settled_column(column, size, oracle, request):
    """The doubling certificate of the FFT oracles.

    column(N) samples on N points and returns (values, floor), floor being
    the roundoff floor of those values.  N starts at the power of two at or
    above size and doubles (three times at most) until the values move by
    at most ORACLE_TOL; returns (values, err), err being that last move plus
    the floor.  oracle and request name the failure in ConvergenceError.
    """
    big_n = 1 << (int(size) - 1).bit_length()
    prev, _ = column(big_n)
    for _ in range(3):
        big_n *= 2
        cur, floor = column(big_n)
        delta = float(np.max(np.abs(cur - prev)))
        if delta <= ORACLE_TOL:
            return cur, delta + floor
        prev = cur
    raise ConvergenceError(
        f"{oracle} oracle not settled at N={big_n} ({request})")


def _circle_samples(sigma, lam, m, x, big_n):
    """The transformed circle function on a uniform theta grid."""
    lam = complex(lam)
    A = 1.0 / math.sqrt(1.0 - x)
    B = math.sqrt(x) / math.sqrt(1.0 - x)
    theta = 2.0 * np.pi * np.arange(big_n) / big_n
    e_pos = np.exp(1j * theta)
    base_pos = B * e_pos + A            # Re > 0: principal powers are safe
    base_neg = B * np.conj(e_pos) + A
    vals = np.exp((lam + sigma) * np.log(base_pos)
                  + (lam - sigma) * np.log(base_neg))
    if m != 0:
        moebius = base_pos / (A * e_pos + B)   # unit modulus on the circle
        vals = vals * moebius ** int(m)
    return vals


def coef_oracle_principal(sigma, lam, m, coord, n_max):
    """Column of circle-model coefficients at fixed m by Fourier analysis.

    Returns ({n: value for |n| <= n_max}, err_est) under the doubling
    certificate of _settled_column, from 8(n_max+|m|)+64 samples up.
    """
    if isinstance(coord, (int, float)):
        coord = cartan_from_x(float(coord))
    x = coord.x
    n_max = int(n_max)
    ns = np.arange(-n_max, n_max + 1)

    def column(big_n):
        vals = _circle_samples(sigma, lam, m, x, big_n)
        spec = np.fft.fft(vals) / big_n
        return spec[(-ns) % big_n], \
            2e-16 * float(np.max(np.abs(vals))) * math.sqrt(big_n)

    cur, err = _settled_column(column, 8 * (n_max + abs(int(m))) + 64,
                               "circle", f"x={x}, n_max={n_max}")
    return {int(n): complex(v) for n, v in zip(ns, cur)}, err


def coef_oracle_discrete(ell, m, coord, n_max):
    """Column of disc-model coefficients at fixed m by Taylor extraction.

    The transformed function F = pi(a_x) f_m is holomorphic across the
    closed unit disc with one pole of order ell + q at z = 1/sqrt(x); its
    Taylor coefficient of order j, divided by the leading coefficient of
    f_(ell/2+j), is the coefficient on the basis vector ell/2 + j.

    Extracting order j on a contour of radius r costs a factor r^-j against
    the fixed absolute noise of the samples, which grows near the pole like
    (1 - r/pole)^-(ell+q); the balance point is r/pole = j/(j + ell + q).
    No single radius serves both ends of a long column in double precision,
    so the orders are split into dyadic windows, each extracted on its own
    balanced contour with the same doubling certificate as the circle
    oracle.
    """
    r_spec = Discrete(ell)
    ell = r_spec.ell
    q = _discrete_index(ell, m)
    if isinstance(coord, (int, float)):
        coord = cartan_from_x(float(coord))
    x = coord.x
    j_max = max(0, int(math.floor(n_max - ell / 2.0 + 1e-9)))

    indices = [ell / 2.0 + j for j in range(j_max + 1)]
    if x == 0.0:
        vals = {idx: (1.0 + 0.0j if idx == ell / 2.0 + q else 0.0j)
                for idx in indices}
        return vals, 0.0

    A = 1.0 / math.sqrt(1.0 - x)
    B = math.sqrt(x) / math.sqrt(1.0 - x)
    pole = 1.0 / math.sqrt(x)
    pole_order = ell + q

    lg_ell = log_gamma(float(ell)).real
    d_m = (-1.0) ** q * math.exp(
        0.5 * (log_gamma(m + ell / 2.0).real - log_gamma(q + 1.0).real - lg_ell))

    def window(js, radius):
        """column(N) of the orders js on the contour of this radius."""
        lead = np.array([(-1.0) ** j * math.exp(
            0.5 * (log_gamma(ell + j).real - log_gamma(j + 1.0).real - lg_ell))
            for j in js])

        def column(big_n):
            theta = 2.0 * np.pi * np.arange(big_n) / big_n
            z = radius * np.exp(1j * theta)
            den = A - B * z
            w = (A * z - B) / den
            fvals = d_m * den ** (-ell) * w ** q
            spec = np.fft.fft(fvals) / big_n
            taylor = spec[js] * radius ** (-js.astype(float))
            # sample noise is absolute; the worst relative hit in the window
            # is at its lowest order (smallest r^j and smallest |lead|)
            floor = 2e-16 * float(np.max(np.abs(fvals))) \
                * radius ** (-float(js[0])) / abs(lead[0])
            return taylor / lead, floor

        return column

    out = np.empty(j_max + 1, dtype=complex)
    err = 0.0
    j_lo = 0
    hi = 8
    while j_lo <= j_max:
        j_hi = min(hi - 1, j_max)
        js = np.arange(j_lo, j_hi + 1)
        top = j_hi + 1.0
        radius = pole * top / (top + pole_order)
        radius = min(radius, math.exp(500.0 / top))
        out[js], w_err = _settled_column(
            window(js, radius), 8 * (j_hi + q + ell) + 64, "disc",
            f"x={x}, orders {j_lo}..{j_hi}")
        err = max(err, w_err)
        j_lo = j_hi + 1
        hi *= 4
    return {idx: complex(v) for idx, v in zip(indices, out)}, err


def coef_oracle(r, m, coord, n_max):
    """Oracle column dispatcher; circle columns are rescaled by the
    family's normalizer."""
    if r.circle is None:
        return coef_oracle_discrete(r.ell, m, coord, n_max)
    col, err = coef_oracle_principal(*r.circle, m, coord, n_max)
    scale = {n: r.normalizer(n, m) for n in col}
    return {n: scale[n] * v for n, v in col.items()}, err * max(scale.values())


def parseval_defect(r, m, coord):
    """|sum_n |coef(n, m)|^2 - 1| over the full column, oracle-evaluated.

    For a unitary member the column is a unit vector; the defect combines
    the oracle error with the (geometrically estimated) truncation tail.
    """
    if isinstance(coord, (int, float)):
        coord = cartan_from_x(float(coord))
    x = coord.x
    # column magnitudes decay like x^(n/2); pick the cut from that envelope
    n_span = max(64, int(2.0 * math.log(1e-14) / math.log(max(x, 1e-6))) + 64)
    n_span = min(n_span, 8192)
    col, err = coef_oracle(r, m, coord, n_max=r.m_ref + n_span)
    total = sum(abs(v) ** 2 for v in col.values())
    ordered = [abs(col[k]) for k in sorted(col)]
    edge = max(ordered[-5:])
    if r.circle is not None:     # two-sided column: low end tails too
        edge = max(edge, max(ordered[:5]))
    tail = edge ** 2 * 16.0 / max(1.0 - x, 1e-12)
    return abs(total - 1.0) + tail + 2.0 * err * len(col) * max(ordered)


# ---------------------------------------------------------------------------
# Vectorized evaluators (scan and quadrature fast paths)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _f_series_vec(a, b, c, xs, tol=1e-15):
    """Gauss series over an array of arguments (max |x| safely below 1).

    Plain term recursion; the loop stops once the largest live term is
    below tol relative to the largest partial sum, with an iteration cap
    from the geometric envelope of the worst point.
    """
    xs = np.asarray(xs, dtype=float)
    x_hi = float(np.max(np.abs(xs))) if xs.size else 0.0
    if x_hi >= 0.995:
        raise PreconditionError(f"series batch needs |x| < 0.995, got {x_hi}")
    total = np.ones(xs.shape, dtype=complex)
    term = np.ones(xs.shape, dtype=complex)
    if x_hi == 0.0:
        return total
    k_cap = int(4 * abs(b) + 64 + math.log(1e-18) / math.log(x_hi))
    scale = 1.0
    for k in range(k_cap):
        term = term * (xs * ((a + k) * (b + k) / ((c + k) * (k + 1.0))))
        total += term
        if k % 16 == 15:
            scale = max(scale, float(np.max(np.abs(total))))
            if float(np.max(np.abs(term))) <= tol * scale:
                return total
    if float(np.max(np.abs(term))) > 1e-10 * scale:
        raise ConvergenceError(f"vector series stalled (x_hi={x_hi})")
    return total


def _f_connection_vec(a, b, c, xs, omx):
    """2F1 over an array of x near 1 through the two-term 1-x connection.

    Both transformed series run in the variable 1-x <= 1-X_CUT, so they
    converge in a handful of terms.  Requires c-a-b at distance > 0.05
    from the integers (the logarithmic case is excluded); prefactor poles
    that kill one of the terms are resolved by the signed Gamma ratio.
    """
    s = c - a - b
    pref1 = gamma_ratio_signed([c, s], [c - a, c - b])
    pref2 = gamma_ratio_signed([c, -s], [a, b])
    out = np.zeros(np.asarray(xs).shape, dtype=complex)
    if pref1 != 0.0:
        out += pref1 * _f_series_vec(a, b, a + b - c + 1.0, omx)
    if pref2 != 0.0:
        out += pref2 * np.exp(s * np.log(omx)) * _f_series_vec(
            c - a, c - b, s + 1.0, omx)
    return out


def _f_euler_vec(a, b, c, xs, omx):
    """2F1 over an array of x in (X_CUT, 1) via the Euler integral.

    Substituting t = 1 - e^{-v} gives

      2F1 = [G(c)/(G(b)G(c-b))] int_0^inf e^{-v(c-b)} (1-e^{-v})^{b-1}
                                          (1 - x(1-e^{-v}))^{-a} dv

    which is smooth for Re b > 0, Re(c-b) > 0 and concentrates near
    v* = log(1 + (b-1)/(c-b)).  Panels are graded to the local log-slope so
    a 16-point Gauss rule per panel resolves both the rise and the tail.
    omx carries 1-x at full precision; the inner factor is evaluated as
    (1-x) + x e^{-v}, which stays exact however close x is to 1.
    """
    a, b, c = complex(a), complex(b), complex(c)
    cb = c - b
    if not (b.real > 0.0 and cb.real > 0.05):
        raise PreconditionError(
            f"Euler path needs Re b > 0, Re(c-b) > 0.05; got b={b}, c={c}")
    xs = np.asarray(xs, dtype=float)

    br = b.real
    v_star = math.log1p(max(br - 1.0, 0.0) / cb.real)
    v_lo = max(1e-9, v_star - math.log1p(60.0 / cb.real))
    v_hi = v_star + 48.0 / cb.real
    # past v_star the factor w^-a can still grow, by up to (1-x)^-Re a.
    # Beyond Re a = 1/2 the window widens to absorb that growth; up to 1/2,
    # which covers every unitary reference column, it stays as it was, and
    # the cut is bounded by e^-48 (1-x)^-1/2 of the peak
    if a.real > 0.5:
        v_hi += (a.real - 0.5) * -math.log(float(np.min(omx))) / cb.real
    osc = abs(cb.imag) + abs(a) + cb.real + 1.0

    # the quadrature nodes (v, Gauss weight times dv) of every panel
    nodes = []
    # near v = 0 the factor (1-e^{-v})^{b-1} is an algebraic cusp that fixed
    # panels cannot see; run that stretch in y = log v, where it turns into
    # a plain exponential e^{by} (skipped when the truncation point already
    # exceeds the split, which happens only for large Re b, where the cusp
    # is flat and carries no mass anyway)
    if v_lo < 0.5:
        v_split = min(0.5, v_hi)
        y_lo = math.log(1e-19) / br
        y_hi = math.log(v_split)
        if y_hi > y_lo:
            h_y = min(2.5, 16.0 / (1.0 + abs(b - 1.0) + abs(cb) * v_split))
            n_panels = max(1, math.ceil((y_hi - y_lo) / h_y))
            h_y = (y_hi - y_lo) / n_panels
            for p in range(n_panels):
                mid = y_lo + (p + 0.5) * h_y
                for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
                    vk = math.exp(mid + 0.5 * h_y * node)
                    nodes.append((vk, weight * 0.5 * h_y * vk))
            v_lo = v_split
    # then panels in v itself, graded to the local log-slope
    v = v_lo
    while v < v_hi:
        slope = cb.real * math.exp(max(v_star - v, 0.0)) + osc
        h = min(2.5, 16.0 / slope, v_hi - v)
        mid, half = v + h / 2.0, h / 2.0
        for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
            nodes.append((mid + half * node, weight * half))
        v += h

    acc = np.zeros(xs.shape, dtype=complex)
    for vk, dv in nodes:
        s = -math.expm1(-vk)            # 1 - e^{-v}
        t1 = cmath.exp((b - 1.0) * math.log(s) - cb * vk)
        # e^{-v} enters on its own: recovering it as 1 - s would throw away
        # half the mantissa once v is past ~18
        wk = omx + xs * math.exp(-vk)   # real, in (1-x, 1]
        acc += (dv * t1) * np.exp(-a * np.log(wk))
    return gamma_ratio_signed([c], [b, cb]) * acc


def _unit_factor(a, b):
    """True when a or b is 0, so that 2F1(a, b; c; x) = 1 identically (the
    boundary of the parity-1/2 strip)."""
    return any(is_nonpositive_int(v) and round(v.real) == 0 for v in (a, b))


def _boundary_method(a, b, c):
    """The branch that evaluates 2F1(a, b; c; x) for x above X_CUT."""
    if (c - b).real > 0.05:
        return "euler"
    s = c - a - b
    if abs(s.imag) > 0.05 or abs(s.real - round(s.real)) > 0.05:
        return "connection"
    return "scalar"


def principal_coef_vec(sigma, lam, n, m, xs, omx=None):
    """Circle-model coefficients over an array of Cartan x.

    Closed form: pref * x^(|n-m|/2) (1-x)^(-lam) 2F1(a, b; |n-m|+1; x), with
    the series below X_CUT and, above it, the Euler integral, the 1-x
    connection or (when neither applies) the scalar series point by point.
    Callers sitting extremely close to the boundary pass omx = 1-x directly
    so the boundary factor keeps its full precision.
    """
    lam = complex(lam)
    xs = np.asarray(xs, dtype=float)
    omx = 1.0 - xs if omx is None else np.asarray(omx, dtype=float)
    a, b, c, pref = _principal_params(sigma, lam, n, m)
    shell = xs ** (abs(n - m) / 2.0) * np.exp(-lam * np.log(omx))
    if pref == 0.0:
        return np.zeros(xs.shape, dtype=complex)
    if _unit_factor(a, b):
        return pref * shell
    F = np.empty(xs.shape, dtype=complex)
    low = xs <= X_CUT
    if np.any(low):
        F[low] = _f_series_vec(a, b, c, xs[low])
    if np.any(~low):
        hi = ~low
        method = _boundary_method(a, b, c)
        if method == "euler":
            F[hi] = _f_euler_vec(a, b, c, xs[hi], omx[hi])
        elif method == "connection":
            F[hi] = _f_connection_vec(a, b, c, xs[hi], omx[hi])
        else:
            F[hi] = [hyp2f1(a, b, c, float(xx), tol=1e-13)[0]
                     for xx in xs[hi]]
    return pref * shell * F


def discrete_coef_vec(ell, n, m, xs, omx=None):
    """Disc-model coefficients over an array of Cartan x.

    With p = n - ell/2, q = m - ell/2 the value is the finite sum

      (-1)^p |J| sum_k g_k x^((p+q-2k)/2) (1-x)^(ell/2+k),   k <= min(p, q),

    g_0 = 1 and g_{k+1} = -g_k (p-k)(q-k) / ((ell+k)(k+1)): the terminating
    Gauss polynomial in -(1-x)/x written out so the x -> 0 and x -> 1
    limits are manifest.  The alternating sign is real: the column
    oscillates in n at fixed x, as the Fourier oracle confirms.
    """
    p = _discrete_index(ell, n)
    q = _discrete_index(ell, m)
    xs = np.asarray(xs, dtype=float)
    one_minus = 1.0 - xs if omx is None else np.asarray(omx, dtype=float)
    sign = -1.0 if p % 2 else 1.0
    j_mag = math.exp(_discrete_log_j(ell, p, q))
    total = np.zeros(xs.shape, dtype=float)
    g = 1.0
    for k in range(min(p, q) + 1):
        total += g * xs ** ((p + q - 2 * k) / 2.0) * one_minus ** (ell / 2.0 + k)
        g *= -(p - k) * (q - k) / ((ell + k) * (k + 1.0))
    return (sign * j_mag) * total.astype(complex)


def coef_vec(r, n, m, xs, omx=None):
    """Coefficients coef(n, m) of r over an array of Cartan x: the one
    closed-form evaluator of each family, used by the scans, the integrals
    and (one point at a time) by coef."""
    if r.circle is None:
        return discrete_coef_vec(r.ell, n, m, xs, omx=omx)
    return r.normalizer(n, m) * principal_coef_vec(*r.circle, n, m, xs,
                                                   omx=omx)


# Relative error of each branch beside its series sums (prefactor, shell,
# Euler quadrature): ten times the worst seen against 30-digit mpmath on
# six circle families, |n|, |m| <= 128, x from 0.05 to 0.9999.
_BRANCH_REL = {"closed": 2e-14, "series": 1.5e-12, "euler": 2e-10,
               "connection": 2e-12, "scalar": 1.5e-12}


def _series_error(a, b, c, z, tol=1e-15):
    """Error bound of the Gauss series 2F1(a, b; c; z), z in [0, 1), summed
    until its terms fall below tol times the largest partial sum: roundoff
    eps sum (k+2)|t_k| (t_k carries k rounded products) plus the tail past
    the stop, tol sum |t_k| / (1 - z), over the terms the series may sum."""
    if z <= 0.0:
        return 0.0
    ks = np.arange(min(int(4 * abs(b) + 64 + math.log(1e-18) / math.log(z)),
                       SERIES_KMAX))
    with np.errstate(divide="ignore"):     # a terminating series
        mags = np.exp(np.cumsum(np.log(np.abs(
            z * (a + ks) * (b + ks) / ((c + ks) * (ks + 1.0))))))
    return (1.1e-16 * (2.0 + float(np.sum((ks + 3.0) * mags)))
            + tol * (1.0 + float(np.sum(mags))) / (1.0 - z))


def coef(r, n, m, coord):
    """One coefficient <pi(a_x) f_m, f_n>: a one-point call of coef_vec.

    method names the branch that computed the value: 'closed' (the disc
    sum, or a circle factor that is identically 1 or 0), 'series' (x at or
    below X_CUT), or above it 'euler', 'connection' or 'scalar'.  err_est
    is the branch's relative budget plus the error of the series it sums
    (bounded by eps |J| for the disc sum).  A value that is not finite
    raises ConvergenceError.
    """
    if isinstance(coord, (int, float)):
        coord = cartan_from_x(float(coord))
    x = coord.x
    value = complex(coef_vec(r, n, m, np.array([x]))[0])
    if not cmath.isfinite(value):
        raise ConvergenceError(
            f"coef({n}, {m}) of {r} at x={x} is not finite: {value}")
    if r.circle is None:
        p, q = _discrete_index(r.ell, n), _discrete_index(r.ell, m)
        j_mag = math.exp(_discrete_log_j(r.ell, p, q))
        return CoefValue(value, "closed", 1e-14 * (abs(value) + j_mag))
    sigma, lam = r.circle
    a, b, c, pref = _principal_params(sigma, lam, n, m)
    if pref == 0.0 or _unit_factor(a, b):
        return CoefValue(value, "closed", _BRANCH_REL["closed"] * abs(value))
    method = "series" if x <= X_CUT else _boundary_method(a, b, c)
    scale = r.normalizer(n, m) * abs(pref) * x ** (abs(n - m) / 2.0) \
        * (1.0 - x) ** (-lam.real)
    if method == "series":
        terms = _series_error(a, b, c, x)
    elif method == "scalar":
        terms = _series_error(a, b, c, x, tol=1e-13)
    elif method == "connection":
        s = c - a - b
        terms = (abs(gamma_ratio_signed([c, s], [c - a, c - b]))
                 * _series_error(a, b, 1.0 - s, 1.0 - x)
                 + abs(gamma_ratio_signed([c, -s], [a, b]))
                 * (1.0 - x) ** s.real
                 * _series_error(c - a, c - b, s + 1.0, 1.0 - x))
    else:
        terms = 0.0
    return CoefValue(value, method,
                     _BRANCH_REL[method] * abs(value) + scale * terms)


def parse_rep(text):
    """Parse 'principal:SIGMA:LAM', 'complementary:LAM' or 'discrete:ELL'."""
    parts = str(text).strip().lower().split(":")
    kind = parts[0]
    try:
        if kind == "principal" and len(parts) == 3:
            lam = complex(parts[2].replace("i", "j"))
            return Principal(float(parts[1]), lam)
        if kind == "complementary" and len(parts) == 2:
            return Complementary(float(parts[1]))
        if kind == "discrete" and len(parts) == 2:
            return Discrete(int(parts[1]))
    except ValueError as exc:
        raise PreconditionError(f"cannot parse representation {text!r}: {exc}")
    raise PreconditionError(f"cannot parse representation {text!r}")
