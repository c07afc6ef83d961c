"""The scan peaks against the truth: x_argmax within 1e-12 and pmin within
1e-13 relative, and pmin within its err_est, of the peak of |coef| along
the flow.

The disc family has its peak in closed form: on the reference column
q = 0 the coefficient is |J| x^(p/2) (1-x)^(ell/2), p = n - ell/2, whose
peak sits at x* = p/(p + ell).  On the circle families the peak is the
root of d log|coef|/dx = Re[n/(2x) + lam/(1-x) + F'/F], F' = (ab/c)
F(a+1, b+1; c+1; x) (DLMF 15.5.1), found by mpmath at 60 digits from the
scan's own peak and frozen to 40.  Each scan runs on the default
ScanConfig, that of criterion 7.  Regenerate the frozen values with

    PYTHONPATH=src python tests/test_peak_truth.py
"""

import pytest

from repnorm.norms import ScanConfig, scan_character
from repnorm.reps import Complementary, Discrete, Principal

X_REL, PMIN_REL = 1e-12, 1e-13
FAMILIES = {"principal": Principal(0.0, complex(-0.5, 1.0)),
            "complementary": Complementary(-0.25),
            "discrete": Discrete(2)}
# disc peaks also further up the ladder: |J| takes log G(p + ell) -
# log G(p + 1) as one shift pair, so pmin keeps its digits there (with the
# difference of two log-Gamma values of size p log p it was 1.2e-13 to
# 4e-13 off at 512..2048)
POINTS = [(fam, k) for fam in FAMILIES for k in (16, 64, 256)] \
    + [("discrete", k) for k in (512, 1024, 2048)]
# [DERIVED] (family, kappa, x*, pmin*) at 40 digits; see _reference
FROZEN = [
    ("principal", 16, "0.8698723698240460539031634717698557809025", "0.1860043707857928967441882403795655631687"),
    ("principal", 64, "0.9656462263951325294765632512785161965938", "0.09314295501397486298830318630723714684755"),
    ("principal", 256, "0.9912969919684544336893670689443665747735", "0.04657591664575141711451202520934691918175"),
    ("complementary", 16, "0.9677605424882819323439120041333731132427", "0.1142775105023887260162917201984930224142"),
    ("complementary", 64, "0.9918371096867426583713087450073786599719", "0.05715180036544329209171906160511298813194"),
    ("complementary", 256, "0.9979529421901567984288885059248944065968", "0.02857630889947691657648486922028983955646"),
    ("discrete", 16, "0.7777777777777777777777777777777777777778", "0.2608115599580271087243257257906978429106"),
    ("discrete", 64, "0.9393939393939393939393939393939393939394", "0.1300862011219286856459525698092683637305"),
    ("discrete", 256, "0.9844961240310077519379844961240310077519", "0.06503317343826027204290439152431895756781"),
    ("discrete", 512, "0.992217898832684824902723735408560311284", "0.04598504709283919449610882670340987099481"),
    ("discrete", 1024, "0.9961013645224171539961013645224171539961", "0.0325162766122395563969701673470202027301"),
    ("discrete", 2048, "0.9980487804878048780487804878048780487805", "0.02299246872777038297998978569924996733616"),
]


def _check(fam, kappa, x_ref, pmin_ref):
    s = scan_character(FAMILIES[fam], kappa, ScanConfig())
    x_ref, pmin_ref = float(x_ref), float(pmin_ref)
    assert abs(s.x_argmax - x_ref) <= X_REL * x_ref
    assert abs(s.pmin - pmin_ref) <= PMIN_REL * pmin_ref
    assert abs(s.pmin - pmin_ref) <= s.err_est


@pytest.mark.parametrize("fam,kappa,x_ref,pmin_ref", FROZEN,
                         ids=[f"{p[0]}-{p[1]}" for p in POINTS])
def test_peak_matches_the_truth(fam, kappa, x_ref, pmin_ref):
    _check(fam, kappa, x_ref, pmin_ref)


def test_every_point_is_frozen():
    assert [p[:2] for p in FROZEN] == POINTS


# a negative character, in the spectrum of every circle family: on the
# sigma = 0 reference column coef(-n, 0) = coef(n, 0), so the scan of -kappa
# must find the frozen peak of kappa
@pytest.mark.parametrize("fam,kappa,x_ref,pmin_ref",
                         [p for p in FROZEN if p[0] != "discrete"],
                         ids=[f"{p[0]}-{-p[1]}" for p in FROZEN
                              if p[0] != "discrete"])
def test_negative_character_peaks_as_its_mirror(fam, kappa, x_ref, pmin_ref):
    _check(fam, -kappa, x_ref, pmin_ref)


def _reference(fam, kappa):
    """(x*, pmin*) of the family at the character kappa, as 40-digit
    strings."""
    import mpmath

    with mpmath.workdps(60):
        r = FAMILIES[fam]
        if fam == "discrete":
            ell = r.ell
            p = mpmath.mpf(kappa - ell) / 2
            x = p / (p + ell)
            j = mpmath.sqrt(mpmath.gamma(p + ell)
                            / (mpmath.gamma(p + 1) * mpmath.gamma(ell)))
            peak = j * x ** (p / 2) * (1 - x) ** (mpmath.mpf(ell) / 2)
        else:
            sigma, lam = r.circle
            s = mpmath.mpf(sigma)
            lam = (mpmath.mpf(lam.real) if lam.imag == 0.0
                   else mpmath.mpc(lam.real, lam.imag))
            n = (kappa - 2 * s) / 2
            a, b, c = -lam - s, -lam + n + s, n + 1
            pref = mpmath.gammaprod([lam - s + 1], [n + 1, lam - n - s + 1])
            norm = 1
            if fam == "complementary":
                norm = mpmath.sqrt(
                    mpmath.gamma(n + 1 + lam) / mpmath.gamma(n - lam)
                    / (mpmath.gamma(1 + lam) / mpmath.gamma(-lam)))

            def slope(x):
                return mpmath.re(n / (2 * x) + lam / (1 - x)
                                 + a * b / c * mpmath.hyp2f1(a + 1, b + 1,
                                                             c + 1, x)
                                 / mpmath.hyp2f1(a, b, c, x))

            start = scan_character(r, kappa, ScanConfig()).x_argmax
            x = mpmath.findroot(slope, mpmath.mpf(start), tol=1e-50)
            peak = abs(norm * pref * x ** (n / 2) * (1 - x) ** (-lam)
                       * mpmath.hyp2f1(a, b, c, x))
        return mpmath.nstr(x, 40), mpmath.nstr(peak, 40)


if __name__ == "__main__":
    for fam, kappa in POINTS:
        x, peak = _reference(fam, kappa)
        print(f'    ("{fam}", {kappa}, "{x}", "{peak}"),')
