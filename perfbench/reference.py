"""Reference values computed with mpmath, apart from the program.

Nothing here imports repnorm.  The closed forms are written out from their
mathematical statement and evaluated at 30 significant digits, so an
agreement with the program's double-precision output is evidence about the
program, not a copy of it.  Families are described by plain tuples:

    ("principal", sigma, lam)   circle model, character 2n + 2 sigma
    ("complementary", lam)      unitarized circle model, real lam
    ("discrete", ell)           disc model, lowest weight ell

Coefficients are <pi(a_x) f_m, f_n> on the diagonal flow, x = tanh(t)^2.
"""

import mpmath

DPS = 30


def _circle(sigma, lam, n, m, x, omx):
    """Circle-model coefficient: Gamma prefactor times
    x^(|n-m|/2) (1-x)^(-lam) 2F1(a, b; |n-m|+1; x).  Poles of the Gamma
    prefactor are resolved as limits by mpmath.gammaprod."""
    sigma, lam = mpmath.mpf(sigma), mpmath.mpmathify(lam)
    if n >= m:
        a, b = -lam - m - sigma, -lam + n + sigma
        pref = mpmath.gammaprod([lam - m - sigma + 1],
                                [n - m + 1, lam - n - sigma + 1])
    else:
        a, b = -lam - n - sigma, -lam + m + sigma
        pref = mpmath.gammaprod([lam + m + sigma + 1],
                                [m - n + 1, lam + n + sigma + 1])
    d = abs(n - m)
    if pref == 0:
        return mpmath.mpc(0)
    return (pref * x ** (mpmath.mpf(d) / 2) * omx ** (-lam)
            * mpmath.hyp2f1(a, b, d + 1, x))


def _complementary_scale(lam, n, m):
    """sqrt(H(n)/H(m)) with H(k) = Gamma(|k|+1+lam)/Gamma(|k|-lam)."""
    lam = mpmath.mpf(lam)

    def h(k):
        k = abs(int(k))
        return mpmath.gamma(k + 1 + lam) / mpmath.gamma(k - lam)

    return mpmath.sqrt(h(n) / h(m))


def _discrete(ell, n, m, x, omx):
    """Disc-model coefficient as the exact terminating sum
    (-1)^p |J| sum_k g_k x^((p+q-2k)/2) (1-x)^(ell/2+k), p = n - ell/2,
    q = m - ell/2, g_0 = 1, g_(k+1) = -g_k (p-k)(q-k)/((ell+k)(k+1))."""
    p, q = int(round(n - ell / 2.0)), int(round(m - ell / 2.0))
    j = mpmath.sqrt(mpmath.gamma(p + ell) * mpmath.gamma(q + ell)
                    / (mpmath.gamma(p + 1) * mpmath.gamma(q + 1))) \
        / mpmath.gamma(ell)
    total, g = mpmath.mpf(0), mpmath.mpf(1)
    for k in range(min(p, q) + 1):
        total += g * x ** (mpmath.mpf(p + q - 2 * k) / 2) \
            * omx ** (mpmath.mpf(ell) / 2 + k)
        g *= -mpmath.mpf((p - k) * (q - k)) / ((ell + k) * (k + 1))
    return (-1) ** p * j * total


def coefficient(family, n, m, x, omx=None):
    """Matrix coefficient (n, m) at Cartan coordinate x, as an mpmath
    number; omx = 1 - x may be passed when x is too close to 1 to carry
    it.  Call inside mpmath.workdps."""
    x = mpmath.mpf(x)
    omx = 1 - x if omx is None else mpmath.mpf(omx)
    kind = family[0]
    if kind == "principal":
        return _circle(family[1], family[2], n, m, x, omx)
    if kind == "complementary":
        return (_complementary_scale(family[1], n, m)
                * _circle(0, family[1], n, m, x, omx))
    if kind == "discrete":
        return _discrete(family[1], n, m, x, omx)
    raise ValueError(f"unknown family {family!r}")


def coef(family, n, m, x, dps=DPS):
    """coefficient() as a Python complex, evaluated at dps digits."""
    with mpmath.workdps(dps):
        return complex(coefficient(family, n, m, x))


def weighted_integral(family, n, m, eps, dps=DPS):
    """Integral of coef(n, m; a_x) against eps (1-x)^(eps-1) dx on [0, 1),
    by mpmath.quad in u = (1-x)^eps, where the measure is du."""
    with mpmath.workdps(dps):
        eps = mpmath.mpf(eps)

        floor = mpmath.mpf(10) ** -dps

        # below the floor x rounds to 1 at this precision; |coef| vanishes
        # like a power of 1-x there, so that stretch carries no mass
        def integrand(u):
            omx = u ** (1 / eps)
            if omx < floor:
                return mpmath.mpc(0)
            return coefficient(family, n, m, 1 - omx, omx)

        return complex(mpmath.quad(integrand, [0, 0.5, 1]))


def reducible_beta(n, eps, dps=DPS):
    """eps (-1)^n B(n/2 + 1, 1/2 + eps), the weighted integral at the
    reducible point sigma = 1/2, lam = -1/2."""
    with mpmath.workdps(dps):
        return float((-1) ** int(n) * mpmath.mpf(eps)
                     * mpmath.beta(mpmath.mpf(n) / 2 + 1,
                                   mpmath.mpf(1) / 2 + mpmath.mpf(eps)))
