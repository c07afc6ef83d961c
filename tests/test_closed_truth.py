"""The error budgets of the closed forms, as coef reports them, against
40-digit mpmath: every frozen value must lie within its err_est times the
factor COVER states.

The disc budget is derived from the terms of the terminating sum (see
Discrete.closed_form), so it covers a sum that cancels: on the diagonal
p = q = 63 at x = 0.5 the sum gives -4.97 for a coefficient of 0.0497, and
err_est says so.  The circle budget is still a constant: the 2e-14 |value|
of a factor that is identically 1 (at the reducible point
Principal(1/2, -1/2) on the columns m = 0 and n = 0, or a Gamma prefactor
that vanishes).  The points sit off the disc's reference column, where the
terminating sum has more than one term, and on the circle from x = 0.05 to
0.9999.  Each
reference is evaluated at the double nearest to x, which is what coef
evaluates; the disc one by the Pfaff transform of the sum,
x^((p-q)/2) (1-x)^(ell/2) 2F1(-q, ell+p; ell; 1-x), not by the sum itself.
Regenerate the frozen values with

    PYTHONPATH=src python tests/test_closed_truth.py
"""

import pytest

from repnorm.reps import Discrete, Principal, coef

# the largest |value - mpmath| / err_est allowed.  Both budgets cover every
# point four times over: the circle's worst is 0.10, at (6, 0) and
# x = 0.98, the disc's 0.10, at (22, 4) and x = 0.99
COVER = {"disc": 0.25, "circle": 0.25}
POINTS = (
    ("disc", 2, 2.0, 3.0, "0.3"), ("disc", 2, 7.0, 10.0, "0.45"),
    ("disc", 2, 14.0, 14.0, "0.45"), ("disc", 2, 27.0, 11.0, "0.7"),
    ("disc", 2, 11.0, 27.0, "0.7"), ("disc", 2, 41.0, 2.0, "0.9"),
    ("disc", 2, 9.0, 6.0, "0.99"), ("disc", 2, 17.0, 3.0, "0.999"),
    ("disc", 2, 6.0, 4.0, "0.05"),
    ("disc", 3, 27.5, 11.5, "0.7"), ("disc", 3, 3.5, 2.5, "0.5"),
    ("disc", 3, 12.5, 9.5, "0.9"), ("disc", 4, 8.0, 5.0, "0.6"),
    ("disc", 4, 22.0, 4.0, "0.99"),
    ("circle", 0.5, 6, 0, "0.98"), ("circle", 0.5, 6, 0, "0.999"),
    ("circle", 0.5, 9, 0, "0.9999"), ("circle", 0.5, 0, 6, "0.9999"),
    ("circle", 0.5, -3, -1, "0.999"), ("circle", 0.5, -1, -17, "0.99"),
    ("circle", 0.5, 128, 0, "0.5"), ("circle", 0.5, 2, 0, "0.05"),
    ("circle", 0.5, 0, 0, "0.9"), ("circle", 0.5, 3, -2, "0.9"),
    # sums that cancel on the diagonal, where a budget at the size of the
    # value would not cover the rounding: at (64, 64) the sum gives -4.97
    ("disc", 2, 17.0, 17.0, "0.45"), ("disc", 2, 64.0, 64.0, "0.5"),
)
# [DERIVED] mpmath at 40 digits (80 working digits) at the double nearest
# to x; see _reference
FROZEN = [
    ("disc", 2, 2.0, 3.0, "0.3", "0.3756594202199646888570144023250381544916", "0.0"),
    ("disc", 2, 7.0, 10.0, "0.45", "0.1144246643164436150678431666165327293169", "0.0"),
    ("disc", 2, 14.0, 14.0, "0.45", "0.09393816273271620660858958787528412649293", "0.0"),
    ("disc", 2, 27.0, 11.0, "0.7", "0.009140009131339951777641363350248246256421", "0.0"),
    ("disc", 2, 11.0, 27.0, "0.7", "0.009140009131339951777641363350248246256421", "0.0"),
    ("disc", 2, 41.0, 2.0, "0.9", "-0.127652270965965269192096817093059077527", "0.0"),
    ("disc", 2, 9.0, 6.0, "0.99", "0.05557665160097558486207703663719456536251", "0.0"),
    ("disc", 2, 17.0, 3.0, "0.999", "0.006964343783667284043707831410709814259486", "0.0"),
    ("disc", 2, 6.0, 4.0, "0.05", "0.3978905210244317435931046634779348186059", "0.0"),
    ("disc", 3, 27.5, 11.5, "0.7", "-0.07826624359203623571518621610235736599406", "0.0"),
    ("disc", 3, 3.5, 2.5, "0.5", "0.1767766952966368811002110905262122598212", "0.0"),
    ("disc", 3, 12.5, 9.5, "0.9", "0.09868405124587543493961214951702313342235", "0.0"),
    ("disc", 4, 8.0, 5.0, "0.6", "-0.1950659526621701174604577790482599782818", "0.0"),
    ("disc", 4, 22.0, 4.0, "0.99", "0.01073462149061568184181798264974393399832", "0.0"),
    ("circle", 0.5, 6, 0, "0.98", "0.1331046491197058593895137291760975133678", "0.0"),
    ("circle", 0.5, 6, 0, "0.999", "0.03152800310858578430687955642762875275442", "0.0"),
    ("circle", 0.5, 9, 0, "0.9999", "-0.009995500787433827533481212354598580949365", "0.0"),
    ("circle", 0.5, 0, 6, "0.9999", "0.009997000299989449824900747361512513883778", "0.0"),
    ("circle", 0.5, -3, -1, "0.999", "0.03159115382508212352787281919276337055696", "0.0"),
    ("circle", 0.5, -1, -17, "0.99", "0.0922744694427920443553736020930170964605", "0.0"),
    ("circle", 0.5, 128, 0, "0.5", "3.833233541708435203597124931551668680233e-20", "0.0"),
    ("circle", 0.5, 2, 0, "0.05", "0.0487339717240448221682793911445481107805", "0.0"),
    ("circle", 0.5, 0, 0, "0.9", "0.3162277660168378980915546686762597740608", "0.0"),
    ("circle", 0.5, 3, -2, "0.9", "0.0", "0.0"),
    ("disc", 2, 17.0, 17.0, "0.45", "0.08585821161423561526777791040297637384205", "0.0"),
    ("disc", 2, 64.0, 64.0, "0.5", "0.04967337687398344826415416686238302190759", "0.0"),
]


def _family(kind, param):
    return Discrete(param) if kind == "disc" else Principal(param, -0.5)


def _frozen(point):
    return [p for p in FROZEN if p[:5] == point][0]


@pytest.mark.parametrize(
    "point", [p[:5] for p in FROZEN],
    ids=lambda p: "{}{}-{}-{}-x{}".format(*p))
def test_err_covers_mpmath(point):
    kind, param, n, m, x, re, im = _frozen(point)
    cv = coef(_family(kind, param), n, m, float(x))
    assert cv.method == "closed"
    assert abs(cv.value - complex(float(re), float(im))) <= \
        COVER[kind] * cv.err_est


def _reference(kind, param, n, m, x):
    import mpmath

    with mpmath.workdps(80):
        xm = mpmath.mpf(float(x))
        if kind == "disc":
            ell = param
            p, q = int(n - ell / 2), int(m - ell / 2)
            j = mpmath.sqrt(mpmath.gamma(p + ell) * mpmath.gamma(q + ell)
                            / (mpmath.gamma(p + 1) * mpmath.gamma(q + 1))) \
                / mpmath.gamma(ell)
            v = ((-1) ** p * j * xm ** (mpmath.mpf(p - q) / 2)
                 * (1 - xm) ** (mpmath.mpf(ell) / 2)
                 * mpmath.hyp2f1(-q, ell + p, ell, 1 - xm))
        else:
            lam, s = mpmath.mpf(-0.5), mpmath.mpf(param)
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
        v = mpmath.mpmathify(v)
        return mpmath.nstr(mpmath.re(v), 40), mpmath.nstr(mpmath.im(v), 40)


if __name__ == "__main__":
    for point in POINTS:
        re, im = _reference(*point)
        kind, param, n, m, x = point
        print(f'    ("{kind}", {param}, {n}, {m}, "{x}", "{re}", "{im}"),')
