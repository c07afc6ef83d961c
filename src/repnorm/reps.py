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

Each family class has one closed-form evaluator, closed_form: a Gamma
prefactor (log space, signed) times a Gauss hypergeometric factor on the
circle, a finite sum on the disc, with its normalizer and every rounding
term of its err applied; coef_vec is its batched call and coef its
one-point call.  Each family also has a first-principles oracle that
never touches the closed forms: Fourier analysis of the transformed circle
function, and Taylor extraction of the transformed disc function.
"""

import cmath
import collections
import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NormalizationError, PreconditionError
from .specfun import (_EPS, _MEMO_ENTRIES, _terminating_order,
                      gamma_ratio_signed, gamma_rounding, hyp2f1,
                      log_gamma_difference, log_gammas, memo_key, memoized)

# The one cut of the circle closed form: the Gauss series at or below it,
# where it needs hundreds of terms, the ODE tables (started at it) above it
X_CUT = 0.8
ORACLE_TOL = 1e-9


# ---------------------------------------------------------------------------
# Representation descriptors: each class carries the facts of its family
# (spectrum, basis index of a character, the one index rule as_index,
# reference column m_ref, normalizer and its rounding, unitarity) and its
# model's closed-form evaluator, oracle column and reference factor, from
# which _Rep derives two unitarity bounds of the reference column along the
# flow: the Lipschitz bound L of its first derivative in t and the
# curvature bound K of its second.


class _Rep:
    """The two unitarity bounds of every family, from _leading(d): the norm
    of the components on f_(m+-d), m = m_ref, of the order-t^d terms of
    pi(a_t) f_m.  Each is computed once per instance and kept in its
    __dict__, which a frozen dataclass has; == and hash read the fields
    alone."""

    def _leading(self, d):
        """Each component is the limit of coef(k, m; a_t)/t^d, which is
        scale times pref of the reference factor, since its x^s0 =
        tanh(t)^d ~ t^d."""
        m = self.m_ref
        factors = [self.reference_factor(k) for k in self.indices(m + d)
                   if abs(k - m) == d]
        return math.sqrt(sum(abs(f[0] * f[2]) ** 2 for f in factors))

    @functools.cached_property
    def lipschitz(self):
        """L = ||dpi(H) f_m||, m = m_ref: |d/dt coef(n, m; a_t)| <= L for
        every n and t, since the derivative is <pi(a_t) dpi(H) f_m, f_n>
        and pi(a_t) is unitary.  dpi(H) f_m has components on f_(m+-1)
        only, each the limit of coef(m+-1, m; a_t)/t.  Infinite off the
        unitary line."""
        return self._leading(1.0) if self.unitary else math.inf

    @functools.cached_property
    def curvature(self):
        """K = ||dpi(H)^2 f_m||, m = m_ref: |d^2/dt^2 coef(n, m; a_t)| <= K
        for every n and t, since the second derivative is
        <pi(a_t) dpi(H)^2 f_m, f_n>.  dpi(H)^2 f_m has components on
        f_(m+-2), each twice the limit of coef(m+-2, m; a_t)/t^2, and -L^2
        on f_m, since dpi(H) is skew-adjoint.  Infinite off the unitary
        line."""
        if not self.unitary:
            return math.inf
        return math.hypot(self.lipschitz ** 2, 2.0 * self._leading(2.0))


class _Circle(_Rep):
    """Facts shared by the circle-model families: basis index n in Z,
    compact character 2n + 2 sigma, reference column m = 0."""

    m_ref = 0.0

    def spectrum(self, limit):
        """Compact characters with absolute value <= limit, ascending."""
        parity = int(2 * self.sigma)
        return [k for k in range(-int(limit), int(limit) + 1)
                if (k - parity) % 2 == 0]

    def basis_index(self, kappa):
        """Basis index whose compact character is kappa: the spectrum is
        the characters of the parity of 2 sigma."""
        kappa = _integer(kappa, "character", self)
        if (kappa - int(2 * self.sigma)) % 2 != 0:
            raise PreconditionError(
                f"character {kappa} not in the spectrum of {self}")
        return (kappa - 2 * self.sigma) / 2.0

    def indices(self, limit):
        """Basis indices with |index| <= limit."""
        return list(range(-int(limit), int(limit) + 1))

    def as_index(self, value):
        """A basis index given as a number: an integer, returned as an int;
        any other number is refused, not cut."""
        return _integer(value, "index", self)

    def reference_factor(self, n):
        """coef(n, m_ref) as scale pref x^s0 (1-x)^(-lam) F with F =
        2F1(a, b; c; x): (scale, scale_rel, pref, pref_rel, s0, lam,
        (a, b, c)), the rels being the roundings of scale and pref."""
        m = self.m_ref
        sigma, lam = self.circle
        a, b, c, pref, pref_rel = _principal_params(sigma, lam, n, m)
        return (*self.normalizer(n, m), pref, pref_rel, abs(n - m) / 2.0,
                lam, (a, b, c))

    def oracle_column(self, m, x, n_max):
        """The column at fixed m by Fourier analysis, ({n: value}, err) for
        n = -n_max..n_max, under the doubling certificate of _settled_column
        from 8(n_max+|m|)+64 samples up, each angle in [0, pi] giving the
        samples at +-theta from one real half-angle kernel
        (_circle_samples), the bins -n of the spectrum kept.  err is the
        last move plus 2e-16 max|samples| sqrt(N) over the final grid's
        parts, times the largest normalizer; the column is rescaled by the
        normalizer in one numpy product (each entry has the bits of
        Python's s * v)."""
        ns = np.array(self.indices(n_max))
        cur, move, parts = _settled_column(
            functools.partial(_circle_samples, *self.circle, m, x), -ns,
            lambda spec: spec, 8 * (ns[-1] + abs(m)) + 64, "circle",
            f"x={x}, n_max={ns[-1]}")
        big_n = sum(part.size for _, part in parts)
        floor = 2e-16 * max(float(np.max(np.abs(part)))
                            for _, part in parts) * math.sqrt(big_n)
        scale = self.normalizer(ns, m)[0]
        return (dict(zip(ns.tolist(), (scale * cur).tolist())),
                (move + floor) * float(np.max(scale)))

    def closed_form(self, n, m, xs, omx=None, slope=False):
        """The closed-form evaluator: coef(n, m) over an array of Cartan x,
        as (value, err, method, d log|value|/dx or None), err of the shape
        of xs.

        Closed form: normalizer * pref * x^(|n-m|/2) (1-x)^(-lam)
        2F1(a, b; |n-m|+1; x), with the series at or below X_CUT and, above
        it, the Taylor continuation of the hypergeometric ODE from X_CUT
        (_f_ode_vec).  method names the branch: 'closed' for a factor
        identically 1 or 0, else 'ode' if any point lies above X_CUT, else
        'series'.  err is |normalizer pref shell| times the derived error of
        the 2F1 factor, plus |value| times the rounding of the Gamma
        prefactor, the shell and the normalizer.  Callers sitting extremely
        close to the boundary pass omx = 1-x directly: the ODE branch reads
        omx alone, so the boundary factor keeps its full precision at any
        1-x.

        With slope=True each branch also returns F' from the pass that
        computes F: the series sums k t_k / x, the ODE branch differentiates
        its Horner pass; F is 1 on a closed factor, so F' is 0.  The slope
        is Re[|n-m|/(2x) + lam/(1-x) + F'/F].  Values and err keep their
        bits either way.
        """
        n, m = self.as_index(n), self.as_index(m)
        sigma, lam = self.circle
        xs = np.asarray(xs, dtype=float)
        omx = 1.0 - xs if omx is None else np.asarray(omx, dtype=float)
        log_omx = np.log(omx)
        a, b, c, pref, pref_rel = _principal_params(sigma, lam, n, m)
        shell = xs ** (abs(n - m) / 2.0) * np.exp(-lam * log_omx)
        # d log|shell|/dx, to which the slope adds Re F'/F
        dlog = abs(n - m) / (2.0 * xs) + lam.real / omx if slope else None
        if pref == 0.0 or _terminating_order(a, b) == 0:
            value = pref * shell if pref != 0.0 else np.zeros(xs.shape, complex)
            err, method = _CLOSED_REL * np.abs(value), "closed"
        else:
            F, F_err = np.empty(xs.shape, dtype=complex), np.empty(xs.shape)
            dF = np.empty(xs.shape, dtype=complex) if slope else None
            low = xs <= X_CUT
            method = "series" if low.all() else "ode"
            for part, branch, arg in ((low, hyp2f1, xs),
                                      (~low, _f_ode_vec, omx)):
                if part.any():
                    F[part], F_err[part], *df = branch(a, b, c, arg[part],
                                                       deriv=slope)
                    if slope:
                        dF[part] = df[0]
            if slope:
                dlog = dlog + (dF / F).real
            scaled = pref * shell
            value = scaled * F
            rel = pref_rel + _EPS * (6.0 + 2.0 * abs(lam) * np.abs(log_omx))
            err = np.abs(scaled) * F_err + rel * np.abs(value)
        scale, scale_rel = self.normalizer(n, m)
        value = scale * value
        return value, scale * err + scale_rel * np.abs(value), method, dlog


@dataclass(frozen=True)
class Principal(_Circle):
    """Circle-model series with parity sigma in {0, 1/2} and a finite
    spectral parameter lam in the open strip -1 < Re lam < 0 (uniformly
    bounded range).  Unitary on the line Re lam = -1/2; irreducible unless
    lam + sigma is an integer (the reducible points stay evaluable)."""
    sigma: float
    lam: complex

    def __post_init__(self):
        if self.sigma not in (0.0, 0.5):
            raise PreconditionError(f"sigma must be 0 or 1/2, got {self.sigma}")
        lam = complex(self.lam)
        if not cmath.isfinite(lam):
            raise PreconditionError(f"lam must be finite, got {lam}")
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
        """The normalizer and its relative rounding: 1, exactly."""
        return 1.0, 0.0


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
class Discrete(_Rep):
    """Holomorphic disc-model representation with lowest weight ell >= 2:
    basis index n in ell/2 + N0, compact character 2n."""
    ell: int

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
        kappa = _integer(kappa, "character", self)
        if kappa < self.ell or (kappa - self.ell) % 2 != 0:
            raise PreconditionError(
                f"character {kappa} not in the spectrum of {self}")
        return kappa / 2.0

    def indices(self, limit):
        j_top = math.floor(limit - self.ell / 2.0)
        return [self.ell / 2.0 + j for j in range(j_top + 1)]

    def as_index(self, value):
        """A basis index given as a number: exactly ell/2 + j for a j in N0,
        returned as a float; any other number is refused."""
        v = _finite_index(value, "index", self)
        j = v - self.ell / 2.0
        if j < 0.0 or j != int(j):
            raise PreconditionError(
                f"{self} index {value} is not in ell/2 + N0")
        return v

    def reference_factor(self, n):
        """coef(n, m_ref) as (1, 0, pref, pref_rel, s0, lam, None): the
        reference column q = 0 of the closed form is its one term
        (-1)^p |J| x^(p/2) (1-x)^(ell/2), p = n - ell/2, so F = 1 and
        pref_rel adds eps for the exp of |J| and one product."""
        p = int(n - self.ell / 2.0)
        log_j, j_rel = _discrete_log_j(self.ell, p, 0)
        pref = (-1.0 if p % 2 else 1.0) * math.exp(log_j)
        return (1.0, 0.0, pref, j_rel + 2.0 * _EPS, p / 2.0, -self.ell / 2.0,
                None)

    def oracle_column(self, m, x, n_max):
        """The column at fixed m = ell/2 + q by Taylor extraction,
        ({n: value}, err) for the indices up to n_max.

        The transformed function F = pi(a_x) f_m is holomorphic across the
        closed unit disc with one pole of order ell + q at z = 1/sqrt(x); its
        Taylor coefficient of order j, divided by the leading coefficient of
        f_(ell/2+j), is the coefficient on the basis vector ell/2 + j.

        Extracting order j on a contour of radius r costs a factor r^-j
        against the fixed absolute noise of the samples, which grows near the
        pole like (1 - r/pole)^-(ell+q); the balance point is r/pole =
        j/(j + ell + q).  No single radius serves both ends of a long column
        in double precision, so the orders are split into dyadic windows,
        each extracted on its own balanced contour with the same doubling
        certificate as the circle oracle, the orders j its bins, finished by
        r^-j/lead_j: F is sampled on the upper half of the contour, and
        takes the conjugate values on the lower half.

        The floor of a window, from the samples of the grid that settles, is
        the largest over its orders j of the spectrum's absolute noise times
        r^-j/|lead_j|, plus the entry's relative rounding times its size.  The
        noise is that of the samples, at most the mean of their roundings eps
        s(theta) |F(theta)| (the FFT divided by N sums N of them), and the
        FFT's own, at most 4 eps log2(N) rms|F| in any coefficient (Higham,
        Accuracy and Stability of Numerical Algorithms, 2002, ch. 24).  A
        sample is d_m den^-ell w^q, w = num/den, den = A - Bz, num = Az - B,
        each rounded by at most 3 eps times the size of its terms, A + Br or
        Ar + B, which is kappa(theta) times |den| at the sample's angle,

            kappa(theta) = max(A + Br, Ar + B) / |A - Br e^{i theta}|;

        to first order each of the ell + 2q factors of den and num in a
        sample adds 3 eps kappa(theta) and a complex product or quotient of
        the squarings 2 eps, so s(theta) = (3 kappa(theta) + 2)(ell + 2q) + 4
        (where num nears its zero the sample does too, and its rounding with
        it).  The relative rounding of an entry is that of d_m and of lead_j,
        half their log-Gamma sums' rounding and 2 eps each for the
        difference and the exp, and 3 eps for r^-j and the two products.
        """
        ell, q = self.ell, int(m - self.ell / 2.0)
        indices = self.indices(n_max)
        if x == 0.0:
            return {idx: (1.0 + 0.0j if idx == m else 0.0j)
                    for idx in indices}, 0.0
        j_max = len(indices) - 1
        pole = 1.0 / math.sqrt(x)
        A = 1.0 / math.sqrt(1.0 - x)
        B = math.sqrt(x) / math.sqrt(1.0 - x)

        # log G(j + ell) - log G(j + 1) as log_gamma_difference, for j = q
        # and the orders of a window, and the relative rounding of the exp
        # of half of it less log G(ell)
        lg_ell = float(log_gammas([ell])[0].real)
        lg_rel = gamma_rounding([lg_ell])
        log_d, d_round = log_gamma_difference(q + 1.0, ell - 1.0)
        d_m = (-1.0) ** q * math.exp(0.5 * (log_d - lg_ell))
        d_rel = 0.5 * (d_round + lg_rel) + 2.0 * _EPS

        out = np.empty(j_max + 1, dtype=complex)
        err, j_lo, hi = 0.0, 0, 8
        while j_lo <= j_max:
            j_hi = min(hi - 1, j_max)
            js = np.arange(j_lo, j_hi + 1)
            top = j_hi + 1.0
            radius = min(pole * top / (top + ell + q), math.exp(500.0 / top))
            log_diff, lead_round = log_gamma_difference(js + 1.0, ell - 1.0)
            log_lead = 0.5 * (log_diff - lg_ell)
            lead = np.array([(-1.0) ** j * math.exp(v)
                             for j, v in zip(js.tolist(), log_lead.tolist())])
            rel = d_rel + 0.5 * (lead_round + lg_rel) + 5.0 * _EPS
            scale = radius ** (-js.astype(float))
            values, move, parts = _settled_column(
                functools.partial(_disc_samples, ell, q, d_m, x, radius), js,
                lambda spec, scale=scale, lead=lead: spec * scale / lead,
                8 * (j_hi + q + ell) + 64, "disc",
                f"x={x}, orders {j_lo}..{j_hi}")
            # kappa(theta) of each sample, |den|^2 being (A - Br)^2 +
            # 4 A B r sin^2(theta/2), a sum of terms of one sign
            terms = max(A + B * radius, A * radius + B)
            gap, cross = (A - B * radius) ** 2, 4.0 * A * B * radius
            big_n = sum(part.size for _, part in parts)
            charged = squares = 0.0
            for offset, part in parts:
                sine = np.sin(np.pi * (np.arange(part.size) + offset)
                              / part.size)
                kappa = terms / np.sqrt(gap + cross * sine * sine)
                mag = np.abs(part)
                charged += float(((3.0 * kappa + 2.0) * (ell + 2 * q) + 4.0)
                                 @ mag)
                squares += float(mag @ mag)
            noise = _EPS * (charged + 4.0 * math.log2(big_n)
                            * math.sqrt(squares * big_n)) / big_n
            out[js] = values
            err = max(err, move + float(np.max(
                noise * scale / np.abs(lead) + rel * np.abs(values))))
            j_lo = j_hi + 1
            hi *= 4
        return {idx: complex(v) for idx, v in zip(indices, out)}, err

    def closed_form(self, n, m, xs, omx=None, slope=False):
        """The closed-form evaluator: coef(n, m) over an array of Cartan x,
        as (value, err, 'closed', d log|value|/dx or None), err of the
        shape of xs.

        With p = n - ell/2, q = m - ell/2 the value is the finite sum

          (-1)^p |J| sum_k t_k,   t_k = g_k x^((p+q-2k)/2) (1-x)^(ell/2+k),

        k <= K = min(p, q), g_0 = 1 and g_{k+1} = -g_k (p-k)(q-k) /
        ((ell+k)(k+1)): the terminating Gauss polynomial in -(1-x)/x written
        out so the x -> 0 and x -> 1 limits are manifest.  The alternating
        sign is real: the column oscillates in n at fixed x, as the Fourier
        oracle confirms.

        err is |J| eps (4 + ell/2 + 2K) sum_k |t_k|, the rounding of the sum
        at the size of its terms (k eps from g_k, eps from each power and
        from the products, (ell/2 + k) eps/2 from the rounding of 1-x inside
        its power, (K+1) eps/2 from the running sum), plus |value| times the
        rounding of |J| and of the final product.  Where the terms cancel,
        err is far above |value|; on the reference column q = 0 the sum is
        one term.

        The slope differentiates the sum term by term: t_k times
        (p+q-2k)/(2x) - (ell/2+k)/(1-x), over the sum.
        """
        ell = self.ell
        p = int(self.as_index(n) - ell / 2.0)
        q = int(self.as_index(m) - ell / 2.0)
        xs = np.asarray(xs, dtype=float)
        one_minus = 1.0 - xs if omx is None else np.asarray(omx, dtype=float)
        sign = -1.0 if p % 2 else 1.0
        log_j, j_rel = _discrete_log_j(ell, p, q)
        j_mag = math.exp(log_j)
        total = np.zeros(xs.shape, dtype=float)
        size = np.zeros(xs.shape)
        dtotal = np.zeros(xs.shape) if slope else None
        g = 1.0
        for k in range(min(p, q) + 1):
            term = (g * xs ** ((p + q - 2 * k) / 2.0)
                    * one_minus ** (ell / 2.0 + k))
            total += term
            size += np.abs(term)
            if slope:
                dtotal += term * ((p + q - 2 * k) / (2.0 * xs)
                                  - (ell / 2.0 + k) / one_minus)
            g *= -(p - k) * (q - k) / ((ell + k) * (k + 1.0))
        value = (sign * j_mag) * total.astype(complex)
        # |J| adds the rounding of its exp and of one product
        err = (_EPS * (4.0 + ell / 2.0 + 2.0 * min(p, q)) * (j_mag * size)
               + (2.0 * _EPS + j_rel) * np.abs(value))
        return value, err, "closed", dtotal / total if slope else None


def _finite_index(value, what, owner):
    """A basis index (or what else is named) of owner given as a number, as
    a finite float; owner is formatted only into an error."""
    v = float(value)
    if not math.isfinite(v):
        raise PreconditionError(f"{owner} {what} {value} must be finite")
    return v


def _integer(value, what, owner):
    """A finite integral number as an int; any other is refused, not cut."""
    v = _finite_index(value, what, owner)
    if v != int(v):
        raise PreconditionError(f"{owner} {what} {value} must be an integer")
    return int(v)


def _cartan_x(x):
    """A point of the diagonal flow a_t = (cosh t, sinh t; sinh t, cosh t)
    given by its Cartan coordinate x = tanh(t)^2, as a float in [0, 1);
    a_x has alpha = 1/sqrt(1-x) and beta = sqrt(x)/sqrt(1-x)."""
    v = float(x)
    if not 0.0 <= v < 1.0:
        raise PreconditionError(f"need 0 <= x < 1, got {x}")
    return v


@dataclass(frozen=True)
class CoefValue:
    value: complex
    method: str
    err_est: float


# ---------------------------------------------------------------------------
# Closed forms


@memoized(_MEMO_ENTRIES)
def _principal_params(sigma, lam, n, m):
    """Series parameters, Gamma prefactor and its relative rounding of
    coef(n, m), (a, b, c, pref, rel); the two index orders are mirror
    images of one another.  2F1 is symmetric in a and b
    (DLMF 15.2.1), so the pair is returned with Re a <= Re b: b is near c,
    and the ODE branch above X_CUT forms c-a-b as (c-b) - a.  Memoized."""
    lam = complex(lam)
    if n >= m:
        a = -lam - m - sigma
        b = -lam + n + sigma
        num = [lam - m - sigma + 1.0]
        den = [float(n - m + 1), lam - n - sigma + 1.0]
    else:
        a = -lam - n - sigma
        b = -lam + m + sigma
        num = [lam + m + sigma + 1.0]
        den = [float(m - n + 1), lam + n + sigma + 1.0]
    if a.real > b.real:
        a, b = b, a
    pref, rel = gamma_ratio_signed(num, den)
    return a, b, float(abs(n - m) + 1), pref, rel


@memoized(_MEMO_ENTRIES)
def complementary_normalizer(lam, n, m=0):
    """Ratio of renormalizations C(n, m) = sqrt(H(n)/H(m)) and its relative
    rounding, eps for the exp plus the rounding of log H at n and m (the
    square root does not halve it), for an index n or an array of them
    (then two arrays).  log H(k) is log_gamma_difference(|k| - lam,
    1 + 2 lam), a shift pair from |k| = 12 up.

    The defining quadratic form has H(k) = G(lam-k+1)/G(-lam-k) on the k-th
    basis vector; reflection turns this into G(|k|+1+lam)/G(|k|-lam).  The
    form is positive on every index exactly when -1 < lam < 0, so that is
    the test.  There, for k >= 0 both arguments lie in (-k, 1-k), where G
    has the sign (-1)^k, and for k < 0 both exceed 0.  Outside it,
    H(0) = lam/(-lam-1) H(1) by G(z+1) = z G(z), and that factor is
    negative, so H(0) or H(1) is; an integer lam puts a pole into H(0).
    An index that is not an integer is refused, not cut.  Memoized.
    """
    lam = float(lam)
    if not -1.0 < lam < 0.0:
        raise NormalizationError(
            f"renormalizing form not positive on every index: need"
            f" -1 < lam < 0, got {lam}")
    ks = np.append(n, m)
    if ks.dtype.kind != "i":        # an array of ints needs no test
        off = ks[~np.isfinite(ks) | (ks != np.round(ks))]
        if off.size:
            raise PreconditionError(
                f"Complementary(lam={lam}) index {off[0]} must be an integer")
    ks = np.abs(ks.astype(np.int64))
    log_h, rounding = log_gamma_difference(ks - lam, 1.0 + 2.0 * lam)
    half = 0.5 * (log_h[:-1] - log_h[-1])
    rel = _EPS + (rounding[:-1] + rounding[-1])
    # exp per element: np.exp and math.exp differ in the last bit
    if np.ndim(n) == 0:
        return math.exp(half[0]), float(rel[0])
    return np.array([math.exp(v) for v in half.tolist()]), rel


@memoized(_MEMO_ENTRIES)
def _discrete_log_j(ell, p, q):
    """log of |J|, the symmetric Gamma prefactor of the disc closed form, and
    the rounding of the log-Gamma sum, which the square root does not halve.
    log G(p + ell) - log G(p + 1) is log_gamma_difference, one shift pair
    from p = 11 up, and so is that of q, so no two log-Gamma values of size
    p log p are subtracted.  Memoized."""
    diff, rounding = log_gamma_difference([p + 1.0, q + 1.0], ell - 1.0)
    lg_ell = float(log_gammas([ell])[0].real)
    return 0.5 * (diff[0] + diff[1]) - lg_ell, \
        rounding[0] + rounding[1] + gamma_rounding([lg_ell])


# ---------------------------------------------------------------------------
# Oracles


def _settled_column(samples, bins, finish, size, oracle, request):
    """The doubling certificate of the FFT oracles, on the radix-2 split.

    samples(theta, pos, neg) writes the transformed function at the angles
    theta in [0, pi] into pos and at -theta into neg; each sample depends
    on its angle alone.  N starts at the power of two at or above size and
    doubles (three times at most) until the column moves by at most
    ORACLE_TOL.  Only the spectrum's bins are kept, divided by N, and
    finish(spec) turns them into the column that the settle test compares.
    The first level transforms its N-point grid 2 pi k / N, sampled at the
    angles k <= N/2 (the point N - k is the angle -theta_k).  That grid is
    the even half of the grid of 2N points, so a doubling samples only the
    N/2 new odd angles below pi, whose negatives are the odd points above
    it, takes the FFT Y of those N odd points and updates each bin by the
    radix-2 split (Cooley and Tukey, Math. Comp. 19, 1965):

        X_2N[k] = (X_N[k mod N] + e^(-2 pi i k / 2N) Y[k mod N] / N) / 2.

    Returns (values, move, parts): the settled column, its last move, and
    the samples of the final grid as (offset, part) pairs, part holding the
    samples at the angles 2 pi (k + offset) / L, L its size: the first
    grid, offset 0, then each doubling's odd points, offset 1/2; the oracle
    takes its floor from them.  oracle and request name the failure in
    ConvergenceError.
    """
    big_n = 1 << (int(size) - 1).bit_length()
    half = big_n // 2
    grid = np.empty(big_n, dtype=complex)
    neg = np.empty(half + 1, dtype=complex)
    samples(2.0 * np.pi * np.arange(half + 1) / big_n, grid[:half + 1], neg)
    grid[half + 1:] = neg[half - 1:0:-1]
    spec = np.fft.fft(grid)[bins % big_n] / big_n
    parts = [(0.0, grid)]
    prev = finish(spec)
    for _ in range(3):
        odd = np.empty(big_n, dtype=complex)
        half = big_n // 2
        samples(2.0 * np.pi * np.arange(1, big_n, 2) / (2 * big_n),
                odd[:half], odd[:half - 1:-1])
        parts.append((0.5, odd))
        twiddle = _unit_circle(-np.pi * bins / big_n)
        spec = 0.5 * (spec + twiddle * (np.fft.fft(odd)[bins % big_n]
                                        / big_n))
        big_n *= 2
        cur = finish(spec)
        delta = float(np.max(np.abs(cur - prev)))
        if delta <= ORACLE_TOL:
            return cur, delta, parts
        prev = cur
    raise ConvergenceError(
        f"{oracle} oracle not settled at N={big_n} ({request})")


def _unit_circle(theta):
    """e^{i theta} with the bits of np.exp(1j * theta) at about half its
    cost: the complex exp of 0 + i theta is (cos theta, sin theta) times
    exp(0) = 1, and numpy's cos and sin take the same libm values (the
    tests compare the disc samples built on it with the exp form bit for
    bit)."""
    e_pos = np.empty(theta.shape, dtype=complex)
    e_pos.real, e_pos.imag = np.cos(theta), np.sin(theta)
    return e_pos


def _circle_samples(sigma, lam, m, x, theta, pos, neg):
    """The transformed circle function s = base^(lam+sigma)
    conj(base)^(lam-sigma) moebius^m, base = A + B e^{i theta}, written at
    the angles theta into pos and at -theta into neg, with A = 1/sqrt(1-x)
    and B = sqrt(x)/sqrt(1-x).

    One real half-angle kernel: base = (A-B) + 2B c e^{i theta/2} with
    c = cos(theta/2), so log base = l + i phi with

        l = 1/2 log((A-B)^2 + 4AB c^2),
        phi = atan2(2B sin(theta/2) c, (A-B) + 2B c^2),

    sums of terms of one sign for theta in [0, pi], and A - B is formed as
    sqrt(1-x)/(1+sqrt(x)), so nothing cancels near theta = pi as x -> 1.
    The Moebius factor base/(A e^{i theta} + B) is e^{i(2 phi - theta)}, and
    log base(-theta) is the conjugate of log base(theta), so

        s(+-theta) = e^{2 Re lam l}
                     e^{i(2 Im lam l +- ((2 sigma + 2m) phi - m theta))},

    and with sigma = m = 0 the two are one number.  Each transcendental
    function reads and writes contiguous arrays of its own, and only exact
    products and copies write pos and neg, which may be strided views of
    the grid: so a sample depends on its angle alone, whatever the size,
    layout or order of the arrays."""
    lam = complex(lam)
    root, omx = math.sqrt(x), 1.0 - x
    a_minus_b = math.sqrt(omx) / (1.0 + root)
    two_b = 2.0 * root / math.sqrt(omx)
    # five arrays of the size of theta, each reused in place: phi and the
    # phase in half's, |base|^2, its log and the modulus in cos_half's,
    # (A-B) + 2B c^2, m theta and the argument in work
    half = np.multiply(theta, 0.5)
    cos_half = np.cos(half)
    phase = None
    if sigma != 0.0 or m != 0:
        phase = np.sin(half, out=half)
        phase *= cos_half
        phase *= two_b
        cos_half *= cos_half
        work = np.multiply(cos_half, two_b)
        work += a_minus_b
        np.arctan2(phase, work, out=phase)
        phase *= 2.0 * sigma + 2.0 * m
        if m != 0:
            phase -= np.multiply(theta, float(m), out=work)
    else:
        cos_half *= cos_half
        work = half
    log_mod = cos_half
    log_mod *= 4.0 * root / omx
    log_mod += a_minus_b * a_minus_b
    np.log(log_mod, out=log_mod)        # 2 l
    arg = np.multiply(log_mod, lam.imag, out=work)
    log_mod *= lam.real
    mag = np.exp(log_mod, out=log_mod)
    trig = np.empty(theta.shape)

    def write(out, total):
        np.cos(total, out=trig)
        np.multiply(mag, trig, out=out.real)
        np.sin(total, out=total)
        np.multiply(mag, total, out=out.imag)

    if phase is None:
        write(pos, arg)
        neg[...] = pos
    else:
        write(pos, np.add(arg, phase))
        write(neg, np.subtract(arg, phase, out=phase))


def _disc_samples(ell, q, d_m, x, radius, theta, pos, neg):
    """The transformed disc function d_m (A - B z)^-ell w^q, w = (A z - B) /
    (A - B z), written at z = radius e^{i theta} into pos and at its
    conjugate into neg: A, B, the radius and d_m are real, so the function
    takes conjugate values there.  No product has a temporary array
    operand, so a sample does not depend on the array size, and the samples
    reach pos and neg, which may be strided views of the grid, by exact
    copies.  On a reference column (q = 0) w^q is an array of ones, 1 + 0i,
    and a product with it returns (a 1 - b 0, a 0 + b 1), the same bits but
    for the sign of a zero part, which these samples do not have; so it is
    not formed."""
    A = 1.0 / math.sqrt(1.0 - x)
    B = math.sqrt(x) / math.sqrt(1.0 - x)
    e_pos = _unit_circle(theta)
    z = radius * e_pos
    den = A - B * z
    inverse = den ** (-ell)
    fvals = d_m * inverse
    if q != 0:
        w = (A * z - B) / den
        power = w ** q
        fvals = fvals * power
    pos[...] = fvals
    np.conjugate(fvals, out=neg)


def coef_oracle(r, m, x, n_max):
    """The oracle column of r at fixed m, ({n: value}, err) for the indices
    up to n_max: r.oracle_column, once m, x and n_max pass their rules (an
    n_max that is not finite or lies below m_ref is refused)."""
    m, x = r.as_index(m), _cartan_x(x)
    if not r.m_ref <= n_max < math.inf:
        raise PreconditionError(
            f"{r} n_max {n_max} must be finite and at least {r.m_ref}")
    return r.oracle_column(m, x, n_max)


def parseval_defect(r, m, x):
    """|sum_n |coef(n, m)|^2 - 1| over the full column, oracle-evaluated.

    For a unitary member the column is a unit vector; the defect combines
    the oracle error with the (geometrically estimated) truncation tail.
    """
    x = _cartan_x(x)
    # column magnitudes decay like x^(n/2); pick the cut from that envelope
    n_span = max(64, int(2.0 * math.log(1e-14) / math.log(max(x, 1e-6))) + 64)
    n_span = min(n_span, 8192)
    col, err = coef_oracle(r, m, x, n_max=r.m_ref + n_span)
    total = sum(abs(v) ** 2 for v in col.values())
    ordered = [abs(col[k]) for k in sorted(col)]
    edge = max(ordered[-5:])
    if min(col) < r.m_ref:      # two-sided column: low end tails too
        edge = max(edge, max(ordered[:5]))
    tail = edge ** 2 * 16.0 / max(1.0 - x, 1e-12)
    return abs(total - 1.0) + tail + 2.0 * err * len(col) * max(ordered)


# ---------------------------------------------------------------------------
# The ODE branch of the circle closed form, and the calls of the evaluator

# Relative error of a circle factor identically 1 or 0, beside its Gamma and
# shell rounding: ten times the worst seen against 30-digit mpmath on six
# circle families, |n|, |m| <= 128, x from 0.05 to 0.9999.
_CLOSED_REL = 2e-14

# The ODE branch (see _OdeTable): Taylor terms, step over 1-z, cap on step
# times rate, most centres per chunk (a cap on a chunk's temporaries),
# largest condition number of an error window, bytes of rows kept, 1-x
# floor; and the most points a call takes one at a time on Python floats
# (break-even 11 points, 13 with the slope; see _horner_points).
_ODE_ORDER, _ODE_RHO, _ODE_RATE, _ODE_CHUNK = 32, 0.25, 2.0, 64
_ODE_WINDOW, _ODE_CACHE_BYTES, _ODE_FLOOR = 64.0, 4 << 20, 1e-290
_ODE_SCALAR_POINTS = 12


class _OdeTable:
    """Scaled Taylor rows of w = 2F1(a, b; c; z) about centres stepping
    from X_CUT toward z = 1, with a bound on the error of evaluating w from
    each (Pearson, Olver & Porter, Numer. Algorithms 74, 2017, 4), |rows|
    and the edges steps/2 - centres by which a point finds its centre.  It
    grows in chunks to the first centre at or below the 1-x a call asks
    for, or of _ODE_CHUNK centres, with the same bits however it grew.

    About z_j = 1 - o, with step h, the u_k = w_k h^k of w(z_j + t h) =
    sum u_k t^k obey, by the hypergeometric ODE, with p0 = (1-o) o,
    p1 = 2o - 1, q0 = (s-1) + (a+b+1) o and s = (c-b) - a (never 1 - z):

      p0 (k+1)(k+2) u_{k+2} = (k+a)(k+b) h^2 u_k - (k+1)(p1 k + q0) h u_{k+1}

    A row is u_0 alpha + u_1 beta, alpha and beta from (1, 0) and (0, 1)
    built for a chunk of centres at once; their sums at t = 1, last term
    first, carry (u_0, u_1) = (w, h w') on from hyp2f1's F and F' at X_CUT
    (F' to a tolerance 1/(1-X_CUT) = 5 times tighter: its tail falls that
    much slower).  h = min(rho o, RATE p0/(|q0| + sqrt(|ab| p0))), capped
    where the solutions' rates would make rows rise like (|b| h)^k/k!, is
    a difference of centres, so exact.  A centre's bound adds the tail past
    N (Johansson, ACM TOMS 45, 2019): for k >= N, |u_{k+2}| <= A |u_k| +
    B |u_{k+1}| with A = (1 + |a-1|/(N+1))(1 + |b-2|/(N+2)) h^2/p0 and
    B = (|p1| + |q0-2 p1|/(N+2)) h/p0, so |u_k| <= M r^(k-N), r^2 = B r + A,
    M = max(|u_N|, |u_{N+1}|/r); the rows' rounding, a running bound from
    the two products that form each coefficient, carried by the
    recurrence; and the errors of (u_0, u_1), from hyp2f1's bounds plus,
    per step, its tail, its rows' rounding and u sum (k+8) |u_k| for its
    sums, u = eps/2.  To first order, each operation that term k meets on
    its way to the next centre's (u_0, u_1) adds u of its result: the
    weight k (once), the sum taken last term first (k+1 additions), the
    scaling of u_1 by h_next/h (a quotient and a product), and the 2 x 2
    product, sqrt(5) u per complex product (Brent, Percival & Zimmermann,
    Math. Comp. 76, 2007) and u for the addition, at most 4 u: 1 + (k+1)
    + 2 + 4 = k+8, of which u_0 needs only k+5.  In a window of steps
    whose product Phi has a condition number below _ODE_WINDOW an error
    added at step i reaches step j as |Phi_j| |Phi_i^-1| of it, linear in
    the steps where the solutions rotate; a step past that carries the
    bound by its own absolute values, never taking up the growth of
    |Phi^-1| where a solution falls like e^(-|b| (z - z_j)).
    """

    def __init__(self, a, b, c):
        self.a, self.b, self.c = a, b, c = complex(a), complex(b), complex(c)
        self._s1, self._ab1 = (c - b) - a - 1.0, a + b + 1.0
        self._ab = abs(a * b)
        self.centres, self.steps, self.err, self.edges = (np.empty(0),) * 4
        self.rows = np.empty((0, _ODE_ORDER), dtype=complex)
        self.mags = np.empty((0, _ODE_ORDER))
        self.nbytes = 0         # of the arrays above
        # the next centre, its (u_0, u_1), their errors and error window
        h = (o := 1.0 - X_CUT) - self._after(o)
        f, f_err, df, df_err = hyp2f1(a, b, c, np.array([X_CUT]), 1e-15 * o,
                                      deriv=True)
        u1 = complex(df[0]) * h
        self._next = (o, complex(f[0]), u1, float(f_err[0]),
                      float(df_err[0]) * h + _EPS * abs(u1),
                      1.0, 0.0, 0.0, 1.0, 0.0, 0.0)

    def _after(self, o):      # the centre after o, by the step rule
        p0 = (1.0 - o) * o
        rate = abs(self._s1 + self._ab1 * o) + math.sqrt(self._ab * p0)
        return o - min(_ODE_RHO * o, _ODE_RATE * p0 / rate)

    def add_chunk(self, reach):
        """Grow to the first centre at or below reach, or by _ODE_CHUNK."""
        n, a, b = _ODE_ORDER, self.a, self.b
        o = [self._next[0]]
        while len(o) < _ODE_CHUNK and o[-1] > reach:
            o.append(self._after(o[-1]))
        size = len(o)           # then the next chunk's start and its step
        o += [start := self._after(o[-1]), self._after(start)]
        steps = (o := np.array(o))[:-1] - o[1:]
        o, h, ratio = o[:size], steps[:size], steps[1:] / steps[:size]
        _, u0, u1, base0, base1, p00, p01, p10, p11, acc0, acc1 = self._next

        # alpha and beta over the chunk, their rounding and their tail
        p0, p1, q0 = (1.0 - o) * o, 2.0 * o - 1.0, self._s1 + self._ab1 * o
        hp, ks = h / p0, np.arange(n + 0.0)[:, None]
        ca = np.array([(k + a) * (k + b) / ((k + 1.0) * (k + 2.0))
                       for k in range(n)])[:, None] * (hp * h)
        cb = (p1 * ks + q0) * (hp / (ks + 2.0))
        mb = (np.abs(p1) * ks + abs(self._s1) + abs(self._ab1) * o) \
            * (hp / (ks + 2.0))
        basis = np.zeros((2, n + 2, size), dtype=complex)
        basis[0, 0] = basis[1, 1] = 1.0
        for k in range(n):
            basis[:, k + 2] = ca[k] * basis[:, k] - cb[k] * basis[:, k + 1]
        # the rows' rounding, a running bound from the products each term
        # forms: ca is rounded to 6 eps of |ca|, cb to 4 eps of mb, and the
        # products and their difference add 2 eps of them; the recurrence
        # carries the drift of earlier terms by |ca| and |cb| (to first
        # order in eps)
        mags, ma, mc = np.abs(basis), np.abs(ca), np.abs(cb)
        drift = np.zeros(mags.shape)
        for k in range(n):
            drift[:, k + 2] = (ma[k] * (drift[:, k] + 8.0 * _EPS * mags[:, k])
                               + mc[k] * drift[:, k + 1]
                               + 6.0 * _EPS * mb[k] * mags[:, k + 1])
        big_a = ((1.0 + abs(a - 1.0) / (n + 1.0))
                 * (1.0 + abs(b - 2.0) / (n + 2.0))) * hp * h
        big_b = (np.abs(p1) + np.abs(q0 - 2.0 * p1) / (n + 2.0)) * hp
        r = 0.5 * (big_b + np.sqrt(big_b * big_b + 4.0 * big_a))

        # the step matrices [sum alpha, sum beta; sum k alpha, sum k beta],
        # and the values, centre by centre
        weights = np.stack([np.ones(n), ks[:, 0]])[:, None, :, None]
        moves = np.cumsum((weights * basis[:, :n])[:, :, ::-1], axis=2)[
            :, :, -1] * np.stack([np.ones(size), ratio])[:, None]
        s00, s01, s10, s11 = moves.reshape(4, size).tolist()
        starts = np.empty((2, size), dtype=complex)
        for j in range(size):
            starts[:, j] = u0, u1
            u0, u1 = s00[j] * u0 + s01[j] * u1, s10[j] * u0 + s11[j] * u1
        # what each step adds to the errors of (u_0, u_1): its tail, the
        # rows' rounding and that of its sums; and each centre's own part
        m = np.abs(starts)
        lead = (m[:, None] * (mags[:, n:] + drift[:, n:])).sum(axis=0)
        tails = np.maximum(lead[0], lead[1] / r) * np.where(r < 1.0, np.stack(
            [1.0 / (1.0 - r), n / (1.0 - r) + r / (1.0 - r) ** 2]), math.inf)
        # (each sum over b and k term by term: one order for any size)
        terms = m[:, None] * np.stack([weights * drift[:, :n],
                                       weights * (ks + 8.0) * mags[:, :n]])
        rounding, scaled = terms.reshape(2, 2, -1, size).cumsum(2)[:, :, -1]
        added = tails + rounding + 0.5 * _EPS * scaled
        added[1] *= ratio
        sizes = mags[:, :n].cumsum(1)[:, -1]
        own = tails[0] + rounding[0] + 4.0 * _EPS * (m * sizes).sum(axis=0)
        row_err = np.empty(size)
        for j, (size0, size1, own_j, in0, in1) in enumerate(zip(
                *sizes.tolist(), own.tolist(), *added.tolist())):
            err0 = abs(p00) * (base0 + acc0) + abs(p01) * (base1 + acc1)
            err1 = abs(p10) * (base0 + acc0) + abs(p11) * (base1 + acc1)
            row_err[j] = err0 * size0 + err1 * size1 + own_j
            q00, q01 = s00[j] * p00 + s01[j] * p10, s00[j] * p01 + s01[j] * p11
            q10, q11 = s10[j] * p00 + s11[j] * p10, s10[j] * p01 + s11[j] * p11
            det = abs(q00 * q11 - q01 * q10)
            if max(map(abs, (q00, q01, q10, q11))) ** 2 <= _ODE_WINDOW * det:
                p00, p01, p10, p11 = q00, q01, q10, q11
                acc0 += (abs(p11) * in0 + abs(p01) * in1) / det
                acc1 += (abs(p10) * in0 + abs(p00) * in1) / det
            else:
                base0 = abs(s00[j]) * err0 + abs(s01[j]) * err1 + in0
                base1 = abs(s10[j]) * err0 + abs(s11[j]) * err1 + in1
                p00, p01, p10, p11, acc0, acc1 = 1.0, 0.0, 0.0, 1.0, 0.0, 0.0
        self._next = (o[-1] - h[-1], u0, u1, base0, base1,
                      p00, p01, p10, p11, acc0, acc1)
        rows = np.ascontiguousarray(    # C order, for a chunk of any size
            (starts[:, :, None] * basis[:, :n].transpose(0, 2, 1)).sum(0))
        fields = ("centres", "steps", "rows", "err", "mags", "edges")
        for name, new in zip(fields, (o, h, rows, row_err, np.abs(rows),
                                      h / 2.0 - o)):
            setattr(self, name, np.concatenate((getattr(self, name), new)))
        self.nbytes = sum(getattr(self, name).nbytes for name in fields)


class _OdeCache:
    """_OdeTable per (a, b, c), keyed on their memo_key (so 0.0 and -0.0
    differ), least recently used out first once the arrays of the tables
    pass max_bytes; their bytes are kept as a running total."""

    def __init__(self, max_bytes):
        self.max_bytes = max_bytes
        self._tables = collections.OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()

    def rows(self, a, b, c, omx_min):
        """(centres, steps, rows, err, |rows|, edges) of (a, b, c)'s table
        past omx_min, taken under the lock, which extends tables."""
        key = memo_key((a, b, c))
        with self._lock:
            table = self._tables.pop(key, None) or _OdeTable(a, b, c)
            self._bytes -= table.nbytes
            reach = max(omx_min, _ODE_FLOOR)
            while not table.centres.size or table.centres[-1] > reach:
                table.add_chunk(reach)
            self._tables[key] = table
            self._bytes += table.nbytes
            while self._bytes > self.max_bytes and len(self._tables) > 1:
                self._bytes -= self._tables.popitem(last=False)[1].nbytes
            return (table.centres, table.steps, table.rows, table.err,
                    table.mags, table.edges)


_ODE_TABLES = _OdeCache(_ODE_CACHE_BYTES)


def _f_ode_vec(a, b, c, omx, deriv=False, tables=_ODE_TABLES):
    """2F1(a, b; c; 1 - omx) for omx = 1-x below 1 - X_CUT from the table
    of (a, b, c), grown to the least omx of the batch that is not NaN:
    (F, err), with deriv=True (F, err, dF/dx).  Each point takes its nearest
    centre (by the steps' midpoints, |t| <= 2/3) and one Horner pass,
    elementwise, so it has the same bits alone or in any batch; err adds
    (3N + 2) eps sum |u_k| |t|^k, the rounding of the pass and of t, to the
    centre's bound.  omx past the table's reach (about _ODE_FLOOR) is taken
    at the last step's end, with an infinite err.  A batch of at most
    _ODE_SCALAR_POINTS points takes _horner_points, with the same bits at a
    few microseconds a point."""
    omx = np.asarray(omx, dtype=float)
    centres, steps, rows, row_err, mags, edges = tables.rows(
        a, b, c, float(np.fmin.reduce(omx, initial=1.0)))
    j = np.minimum(np.searchsorted(edges, -omx, side="right"),
                   centres.size - 1)
    t = np.minimum((centres[j] - omx) / steps[j], 1.0)
    value, size, slope = (_horner_points if omx.size <= _ODE_SCALAR_POINTS
                          else _horner_batch)(rows, mags, j, t, deriv)
    err = np.where(omx < centres[-1] - steps[-1], math.inf, row_err[j]
                   + (3.0 * _ODE_ORDER + 2.0) * _EPS * size)
    return (value, err, slope / steps[j]) if deriv else (value, err)


def _horner_batch(rows, mags, j, t, deriv):
    """_f_ode_vec's Horner pass over the rows j at the t, one numpy step
    per term: (value, sum |u_k| |t|^k, slope in t, 0 unless deriv).  The
    complex terms go in as their real and imaginary parts, each point's
    pair side by side, and every step is a float64 product and sum."""
    parts = np.ascontiguousarray(rows[j].T).view(float)
    sizes, tt, at = mags[j], np.repeat(t, 2), np.abs(t)
    value, size, slope = parts[-1], sizes[:, -1], np.zeros(2 * t.size)
    for k in range(_ODE_ORDER - 2, -1, -1):
        if deriv:
            slope = slope * tt + value
        value = value * tt + parts[k]
        size = size * at + sizes[:, k]
    return value.view(complex), size, slope.view(complex)


def _horner_points(rows, mags, j, t, deriv):
    """_horner_batch point by point on Python floats, with its bits: each
    step is the same float64 product and sum per part, which CPython and
    numpy round alike (IEEE 754) for every row and t.  Python's abs of a
    complex is not numpy's, so |rows| comes from the table."""
    values, sizes, slopes = [], [], []
    for i, u in zip(j.tolist(), t.tolist()):
        part, mag, au = rows[i].view(float).tolist(), mags[i].tolist(), abs(u)
        vr, vi, size, sr, si = part[-2], part[-1], mag[-1], 0.0, 0.0
        for k in range(_ODE_ORDER - 2, -1, -1):
            if deriv:
                sr, si = sr * u + vr, si * u + vi
            vr, vi = vr * u + part[2 * k], vi * u + part[2 * k + 1]
            size = size * au + mag[k]
        values += vr, vi
        sizes.append(size)
        slopes += sr, si
    return (np.array(values).view(complex), np.array(sizes),
            np.array(slopes).view(complex))


def coef_vec(r, n, m, xs, omx=None, slope=False):
    """Coefficients coef(n, m) of r over an array of Cartan x: the batched
    call of r.closed_form, used by the scans and the integrals.

    Returns (values, errs), errs the err_est that coef gives each point,
    or with slope=True (values, slopes, errs): slopes is d log|coef|/dx,
    from the same pass as the values, which keep their bits."""
    values, errs, _, dlog = r.closed_form(n, m, xs, omx, slope)
    return (values, dlog, errs) if slope else (values, errs)


def coef(r, n, m, x, omx=None):
    """One coefficient <pi(a_x) f_m, f_n>: the one-point call of
    r.closed_form, whose err is err_est; omx, if given, is 1-x to full
    precision (sech(t)^2 at x = tanh(t)^2), which 1 - x near 1 is not.

    method names the branch that computed the value: 'closed' (the disc
    sum, or a circle factor that is identically 1 or 0), 'series' (x at or
    below X_CUT = 0.8) or 'ode' (above it, the Taylor continuation of the
    hypergeometric ODE).  A value that is not finite raises
    ConvergenceError.
    """
    x = _cartan_x(x)
    values, errs, method, _ = r.closed_form(
        n, m, np.array([x]), None if omx is None else np.array([omx]))
    cv = CoefValue(complex(values[0]), method, float(errs[0]))
    if not cmath.isfinite(cv.value):
        raise ConvergenceError(
            f"coef({n}, {m}) of {r} at x={x} is not finite: {cv.value}")
    return cv


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
