"""The Euler-integral oracle of criterion 1 against 40-digit mpmath: every
frozen point's value must lie within its err_est, and err_est within
1e-12 of |value|.  Value and err_est also keep the bits that they had
before the Kronrod driver evaluated its end chains ahead.

The set holds the four TestEulerOracle tuples, draw 259 (counted from 0)
of criterion 1's Euler loop at DEFAULT_SEED, where the err of the former
scipy.integrate route was 45 times short, and two points with Re b of 0.05
and 0.1, where that route was 3.5e-7 and 4.8e-4 relative off.  Regenerate the frozen
values with

    PYTHONPATH=src python tests/test_oracle_truth.py
"""

import pytest

from repnorm.integrals import hyp2f1_euler_oracle

# (a, b, c, z)
POINTS = (
    (0.7, 1.6, 3.1, 0.5),
    ((-0.4+0.8j), 1.9, (3.4+0.2j), -0.35),
    (1.2, (2.5-0.6j), 4.4, 0.82),
    (0.9, 1.4, 3.0, 0.6),
    ((-1.4472698961579482+0.08870006664533348j),
     (1.2654336455550887+0.23717433652616715j),
     (3.619149585280225+0.06559133791347557j), -0.17769628663813264),
    (0.3, 0.05, 0.2, 0.7),
    ((-1.5+0.3j), (0.1+0.2j), 0.3, -0.9),
)
# [DERIVED] mpmath.hyp2f1 at 40 digits (80 working digits) of the doubles
# above; (re, im) in the order of POINTS
FROZEN = [
    ("1.253492125626872013335111055054492280976", "0.0"),
    ("1.052049273729101248020993014389048050145", "-0.154617113851683009349424723783054412382"),
    ("2.348617724549980270124633437740297848889", "-0.6928376079500694592898735914928669171861"),
    ("1.399567404679689757159302759753079315919", "0.0"),
    ("1.092927018462279769570641140762563564025", "0.009684078812276809830579912248608069798226"),
    ("1.098346175417824231123691173728419626906", "0.0"),
    ("1.815016509735417219621096318770192312408", "0.9048990197254404503082767894994836747485"),
]

# value and err_est of each point as float.hex, (re, im, err), from the
# Kronrod driver that evaluated one round per call: the end chains change
# when the integrand runs and the rounding term sums over the rounds'
# abscissae only, so no bit of either moves
FROZEN_BITS = [
    ("0x1.40e4dc255c669p+0", "0x0.0p+0", "0x1.4500d6d0221f6p-43"),
    ("0x1.0d5319e872711p+0", "-0x1.3ca7e5bb28bbap-3", "0x1.2577c1fcba392p-42"),
    ("0x1.2c9f816edfc18p+1", "-0x1.62bb9c672b387p-1", "0x1.ed778331502b8p-42"),
    ("0x1.664a0ca7a598fp+0", "0x0.0p+0", "0x1.15bc75e9fa9eap-43"),
    ("0x1.17ca10a935d47p+0", "0x1.3d53f0e532ee0p-7", "0x1.7ccea1d4986e8p-42"),
    ("0x1.192d37071b31fp+0", "0x0.0p+0", "0x1.3e52ba09513d2p-42"),
    ("0x1.d0a4ec0703800p+0", "0x1.cf4eec9fce736p-1", "0x1.a814d92904b9dp-42"),
]


@pytest.mark.parametrize("point,ref", list(zip(POINTS, FROZEN)),
                         ids=[f"point{k}" for k in range(len(FROZEN))])
def test_err_covers_mpmath(point, ref):
    ref = complex(float(ref[0]), float(ref[1]))
    value, err = hyp2f1_euler_oracle(*point)
    assert abs(value - ref) <= err <= 1e-12 * abs(ref)


@pytest.mark.parametrize("point,bits", list(zip(POINTS, FROZEN_BITS)),
                         ids=[f"point{k}" for k in range(len(FROZEN_BITS))])
def test_value_and_err_keep_their_bits(point, bits):
    value, err = hyp2f1_euler_oracle(*point)
    assert (value.real.hex(), value.imag.hex(), err.hex()) == bits


def test_every_point_is_frozen():
    assert len(FROZEN) == len(FROZEN_BITS) == len(POINTS)


def _reference(a, b, c, z):
    import mpmath

    with mpmath.workdps(80):
        v = mpmath.hyp2f1(*(mpmath.mpmathify(p) for p in (a, b, c, z)))
        v = mpmath.mpmathify(v)
        return mpmath.nstr(mpmath.re(v), 40), mpmath.nstr(mpmath.im(v), 40)


if __name__ == "__main__":
    for point in POINTS:
        re, im = _reference(*point)
        print(f'    ("{re}", "{im}"),')
