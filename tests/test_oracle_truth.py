"""The Euler-integral oracle of criterion 1 against 40-digit mpmath: every
frozen point's value must lie within its err_est, and err_est within
1e-12 of |value|.

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


@pytest.mark.parametrize("point,ref", list(zip(POINTS, FROZEN)),
                         ids=[f"point{k}" for k in range(len(FROZEN))])
def test_err_covers_mpmath(point, ref):
    ref = complex(float(ref[0]), float(ref[1]))
    value, err = hyp2f1_euler_oracle(*point)
    assert abs(value - ref) <= err <= 1e-12 * abs(ref)


def test_every_point_is_frozen():
    assert len(FROZEN) == len(POINTS)


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
