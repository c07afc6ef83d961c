"""The Euler-integral oracle of criterion 1 against 40-digit mpmath: every
frozen point's value must lie within its err_est, and err_est within
1e-12 of |value|.  Value and err_est also keep their bits: those of the
Kronrod driver that sums each panel from its own row and settled panels in
order, whatever call evaluated them.

The set holds the four TestEulerOracle tuples, draw 259 (counted from 0)
of criterion 1's Euler loop at DEFAULT_SEED, where the err of the former
scipy.integrate route was 45 times short, and two points with Re b of 0.05
and 0.1, where that route was 3.5e-7 and 4.8e-4 relative off.  A point
whose integral cancels far below its integrand's size ran the driver to
its evaluation cap before the driver took the integrand's rounding; it
must return, within its err_est and that within 1e-10 of |value|.
Regenerate the frozen values and bits with

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

# value and err_est of each point as float.hex, (re, im, err): the end
# chains and the store change when the integrand runs, not what the rounds
# compute, and the integrand's rounding is integrated over the settled
# panels only, so no bit of either moves with them
FROZEN_BITS = [
    ("0x1.40e4dc255c669p+0", "0x0.0p+0", "0x1.44ffb0aada386p-43"),
    ("0x1.0d5319e872712p+0", "-0x1.3ca7e5bb28bb9p-3", "0x1.2575a0eee86fep-42"),
    ("0x1.2c9f816edfc18p+1", "-0x1.62bb9c672b387p-1", "0x1.ed7788b63f094p-42"),
    ("0x1.664a0ca7a5990p+0", "0x0.0p+0", "0x1.15b9f1a8429b2p-43"),
    ("0x1.17ca10a935d48p+0", "0x1.3d53f0e532f20p-7", "0x1.7ccc8951b6ca0p-42"),
    ("0x1.192d37071b31fp+0", "0x0.0p+0", "0x1.3e51d2e2aa3eap-42"),
    ("0x1.d0a4ec0703803p+0", "0x1.cf4eec9fce735p-1", "0x1.a814469cb8eb2p-42"),
]

# (a, b, c, z) whose integral cancels: |value| is 1e4, the integrand's
# peak far larger; [DERIVED] mpmath as FROZEN
CANCELLING = ((4.98-0.81j), (0.0122-2.73j), (0.322-0.481j), 0.767)
CANCELLING_FROZEN = ("7169.884581171130337462296097802343983266",
                     "-7987.974144646187566604056797542721988936")


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


def test_cancelling_point_within_its_err():
    ref = complex(*map(float, CANCELLING_FROZEN))
    value, err = hyp2f1_euler_oracle(*CANCELLING)
    assert abs(value - ref) <= err <= 1e-10 * abs(value)


def _reference(a, b, c, z):
    import mpmath

    with mpmath.workdps(80):
        v = mpmath.hyp2f1(*(mpmath.mpmathify(p) for p in (a, b, c, z)))
        v = mpmath.mpmathify(v)
        return mpmath.nstr(mpmath.re(v), 40), mpmath.nstr(mpmath.im(v), 40)


if __name__ == "__main__":
    print("FROZEN = [")
    for point in POINTS:
        re, im = _reference(*point)
        print(f'    ("{re}", "{im}"),')
    print("]")
    print("FROZEN_BITS = [")
    for point in POINTS:
        value, err = hyp2f1_euler_oracle(*point)
        print(f'    ("{value.real.hex()}", "{value.imag.hex()}",'
              f' "{err.hex()}"),')
    print("]")
    re, im = _reference(*CANCELLING)
    print(f'CANCELLING_FROZEN = ("{re}",\n{" " * 21}"{im}")')
