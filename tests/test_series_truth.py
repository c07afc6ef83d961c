"""The error bound of the Gauss series kernel, as coef reports it, against
40-digit mpmath: every frozen point's value must lie within its err_est.

The set covers the series at or below X_CUT on and off the reference
column, the cancelling sum of (16, 2) at X_CUT = 0.8, where the ODE
tables start, and at 0.9 and 0.98 on their continuation, the terminating
sum of the reducible point Principal(1/2, -1/2) at (60, 60), the
near-reducible Principal(1/2, -1/2 + 0.02i) above X_CUT, the kappa = 4097
peak, and the complementary normalizer at large n.  Regenerate the frozen values with

    PYTHONPATH=src python tests/test_series_truth.py
"""

import pytest

from repnorm.norms import scan_character
from repnorm.reps import Complementary, Principal, coef

# (sigma, lam, complementary lam or None) of each family
FAMILIES = {
    "principal-even": (0.0, -0.5 + 1.0j, None),
    "principal-odd": (0.5, -0.5 + 0.7j, None),
    "reducible": (0.5, -0.5, None),
    "scalar": (0.5, -0.5 + 0.02j, None),
    "off-unitary": (0.5, -0.3 + 0.4j, None),
    "complementary": (0.0, -0.25, -0.25),
}
POINTS = (
    ("principal-even", 16, 2, "0.98"), ("principal-even", 2, 16, "0.98"),
    ("principal-even", 16, 0, "0.5"), ("principal-even", 16, 0, "0.9"),
    ("principal-even", 16, 0, "0.98"), ("principal-even", 512, 0, "0.97"),
    ("principal-even", -3, -40, "0.9"),
    ("principal-odd", 16, 2, "0.98"), ("principal-odd", 1024, 0, "0.5"),
    ("principal-odd", 2048, 0, "0.99"), ("principal-odd", 2048, 0, "0.9993"),
    ("reducible", 60, 60, "0.98"), ("reducible", 60, 60, "0.99"),
    ("scalar", 3, 0, "0.985"), ("scalar", 3, 0, "0.999"),
    ("scalar", 3, 0, "0.9999"),
    ("off-unitary", 7, -2, "0.8"),
    ("complementary", -5, 0, "0.9"), ("complementary", 1000, 0, "0.95"),
    ("complementary", 64, 3, "0.98"),
    ("principal-even", 16, 2, "0.9"), ("principal-odd", 16, 2, "0.9"),
    ("reducible", 60, 60, "0.9"), ("complementary", 64, 3, "0.9"),
    ("principal-even", 512, 0, "0.9"), ("complementary", 1000, 0, "0.9"),
    ("principal-even", 16, 2, "0.8"), ("principal-odd", 16, 2, "0.8"),
)
# [DERIVED] mpmath at 40 digits (80 working digits), from the closed form
# pref x^(|n-m|/2) (1-x)^(-lam) 2F1(a, b; |n-m|+1; x), times the
# normalizer sqrt(H(n)/H(m)) on the complementary family.
FROZEN = [
    ("principal-even", 16, 2, "0.98", "-0.008315117496140426576923033945328237373793", "-0.01667968232645793769902479603359191477798"),
    ("principal-even", 2, 16, "0.98", "-0.008315117496140426576923033945328237373793", "0.01667968232645793769902479603359191477798"),
    ("principal-even", 16, 0, "0.5", "-0.001400679360748684895275449900161480623728", "0.000931387579643118318455488212989355729523"),
    ("principal-even", 16, 0, "0.9", "-0.1008593430751281867555443974050452409032", "0.06706684060863623888794640124665875934171"),
    ("principal-even", 16, 0, "0.98", "-0.05360922364784493599747636299375217061408", "0.03564767673397003590444871024548050920105"),
    ("principal-even", 512, 0, "0.97", "0.00001983684226730599683018827131145135485964", "-0.00002552529333981072989659346195572691623441"),
    ("principal-even", -3, -40, "0.9", "0.05075004301153224958566436287173725169996", "-0.03276114687460556167697655032225146690643"),
    ("principal-odd", 16, 2, "0.98", "0.01708106311310456913304577822315678847684", "-0.06351807303649383422954303590155265974446"),
    ("principal-odd", 1024, 0, "0.5", "3.145382119626149246229587704000108515589e-155", "6.807806725357251897369963223147836765228e-155"),
    ("principal-odd", 2048, 0, "0.99", "0.000003745601821008237781647317107642032565683", "0.000002864925689526018097502115807508615819306"),
    ("principal-odd", 2048, 0, "0.9993", "0.01104093941070900036930942176920746670768", "0.008444963577502196819609918861604139905276"),
    ("reducible", 60, 60, "0.98", "-0.02149943670964389999294529462649642232113", "0.0"),
    ("reducible", 60, 60, "0.99", "0.007429716384529538744198796290707756234583", "0.0"),
    ("scalar", 3, 0, "0.985", "-0.1194480734593041803277308590869907566771", "0.004381355971798593735172240902776555719262"),
    ("scalar", 3, 0, "0.999", "-0.03137141471037807665766197402552299972426", "0.001150703658957832130159131033134683002867"),
    ("scalar", 3, 0, "0.9999", "-0.009876713792213894888655390240404166365273", "0.0003622779145952913181286565721025502443928"),
    ("off-unitary", 7, -2, "0.8", "-0.007461311383355427871720295571222266920991", "-0.002562907324035871619023467849433697076823"),
    ("complementary", -5, 0, "0.9", "-0.1373500661560218295164703024238632571591", "0.0"),
    ("complementary", 1000, 0, "0.95", "1.087456988321703136105047897413374964273e-13", "0.0"),
    ("complementary", 64, 3, "0.98", "-0.00306767451560366283321597355761321093491", "0.0"),
    ("principal-even", 16, 2, "0.9", "0.04423172927948866745887509380078644060928", "0.08872649045238454197840770461021001173482"),
    ("principal-odd", 16, 2, "0.9", "-0.03317790241999953240274676402072947592752", "0.1233761865497940853640206234195500211094"),
    ("reducible", 60, 60, "0.9", "0.03780585645987418967598279940369946681678", "0.0"),
    ("complementary", 64, 3, "0.9", "-0.0900345020219775547803549973766105162288", "0.0"),
    ("principal-even", 512, 0, "0.9", "9.839261180824081360700060676570840063122e-14", "-1.266078665662825684564075780038888055754e-13"),
    ("complementary", 1000, 0, "0.9", "1.979957583757756904900425843961008112633e-25", "0.0"),
    ("principal-even", 16, 2, "0.8", "-0.05296681373584417929325750501021510534109", "-0.1062486041079544551846293206877835442983"),
    ("principal-odd", 16, 2, "0.8", "0.002243951054570829332881670708677878341407", "-0.008344413110048013379560530055399908158715"),
]


def family(label):
    sigma, lam, comp = FAMILIES[label]
    return Principal(sigma, lam) if comp is None else Complementary(comp)


@pytest.mark.parametrize("label,n,m,x,re,im", FROZEN,
                         ids=[f"{p[0]}-{p[1]}-{p[2]}-x{p[3]}" for p in FROZEN])
def test_err_covers_mpmath(label, n, m, x, re, im):
    ref = complex(float(re), float(im))
    cv = coef(family(label), n, m, float(x))
    assert abs(cv.value - ref) <= cv.err_est


def test_kappa_4097_scan_peak():
    # the connection series of this scan run past a batch-wide cap of
    # 4|b| + 64 + log(1e-18)/log(x) terms; its peak sits next to the frozen
    # point at x = 0.9993, 4e-4 above it
    s = scan_character(family("principal-odd"), 4097)
    assert s.x_argmax == pytest.approx(0.9993, abs=1e-4)
    ref = [abs(complex(float(p[4]), float(p[5]))) for p in FROZEN
           if p[:4] == ("principal-odd", 2048, 0, "0.9993")]
    assert ref and ref[0] * (1.0 - 1e-12) <= s.pmin <= ref[0] * 1.001


def _reference(label, n, m, x):
    import mpmath

    sigma, lam, comp = FAMILIES[label]
    with mpmath.workdps(80):
        lam, s, xm = mpmath.mpmathify(lam), mpmath.mpf(sigma), mpmath.mpf(x)
        if n >= m:
            a, b = -lam - m - s, -lam + n + s
            pref = mpmath.gammaprod([lam - m - s + 1],
                                    [n - m + 1, lam - n - s + 1])
        else:
            a, b = -lam - n - s, -lam + m + s
            pref = mpmath.gammaprod([lam + m + s + 1],
                                    [m - n + 1, lam + n + s + 1])
        d = abs(n - m)
        v = (pref * xm ** (mpmath.mpf(d) / 2) * (1 - xm) ** (-lam)
             * mpmath.hyp2f1(a, b, d + 1, xm))
        if comp is not None:
            def h(k):
                return (mpmath.gamma(abs(k) + 1 + lam)
                        / mpmath.gamma(abs(k) - lam))
            v *= mpmath.sqrt(h(n) / h(m))
        return mpmath.nstr(v.real, 40), mpmath.nstr(v.imag, 40)


if __name__ == "__main__":
    for label, n, m, x in POINTS:
        re, im = _reference(label, n, m, x)
        print(f'    ("{label}", {n}, {m}, "{x}", "{re}", "{im}"),')
