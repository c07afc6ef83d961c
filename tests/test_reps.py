"""Closed-form matrix coefficients against the quadrature oracle, plus the
structural identities (unitarity, spectrum, symmetry, normalization)."""

import math

import numpy as np
import pytest

from repnorm.errors import (ConvergenceError, NormalizationError,
                            PreconditionError)
from repnorm.group import cartan_from_x
from repnorm.reps import (CoefValue, Complementary, Discrete, Principal, coef,
                          coef_oracle, coef_vec, complementary_normalizer,
                          parse_rep, parseval_defect)

UNITARY_GRID = [
    Principal(0.0, -0.5 + 1.0j),
    Principal(0.5, -0.5 + 0.7j),
    Complementary(-0.25),
    Discrete(2),
    Discrete(3),
]

# [DERIVED] direct Gauss-formula evaluation through mpmath at 30 digits.
FROZEN_COEFS = [
    (Principal(0.0, -0.5 + 1.0j), 3, 0, 0.4,
     0.091590367699141063691 + 0.16573495107463621049j),
    (Principal(0.5, -0.5 + 0.7j), 2, 1, 0.3,
     -0.44353982047283041362 + 0.15523893716549064477j),
]


# [DERIVED] 30-digit mpmath.hyp2f1 times the Gamma prefactor and shell of
# the circle closed form, beyond X_CUT with n < m or m < 0, both parities:
# (sigma, n, m, x, re, im) for lam = -1/2 + i (sigma 0), -1/2 + 0.7i
# (sigma 1/2).  Regenerate with `PYTHONPATH=src python tests/test_reps.py`.
BOUNDARY_LAMS = {0.0: -0.5 + 1.0j, 0.5: -0.5 + 0.7j}
BOUNDARY_COEFS = [
    (0.0, 0, -128, 0.99, "0.0410130372917766540917729650489", "-0.0211507362708745715498323922992"),
    (0.0, 0, -128, 0.999, "0.000019302478065224889903692935338", "-0.00000995443522086504105103466891371"),
    (0.0, 0, -128, 0.9999, "-0.00374193989098950347570253729034", "0.00192974695369984481101321083179"),
    (0.0, -3, -40, 0.99, "-0.0207552481734145347837991085407", "0.0133983282274974528371971858495"),
    (0.0, -3, -40, 0.999, "0.012039922943982150231968713593", "-0.00777224334247561453389388188981"),
    (0.0, -3, -40, 0.9999, "-0.00465515274086537240981350447202", "0.00300508400815655921061974027607"),
    (0.0, -40, -3, 0.99, "0.0207552481734145347837991085407", "0.0133983282274974528371971858495"),
    (0.0, -40, -3, 0.999, "-0.012039922943982150231968713593", "-0.00777224334247561453389388188981"),
    (0.0, -40, -3, 0.9999, "0.00465515274086537240981350447202", "0.00300508400815655921061974027607"),
    (0.0, 2, 7, 0.99, "0.0178338995967084635064862815938", "0.0472624474790467300920630313701"),
    (0.0, 2, 7, 0.999, "-0.00586537334672414811275178408991", "-0.0155440989359228289713373952993"),
    (0.0, 2, 7, 0.9999, "0.000713850691922550272547082820551", "0.00189180894800471223308107799979"),
    (0.5, 0, -128, 0.99, "0.0109301477529820831944509299393", "-0.0180324432102225648512926709845"),
    (0.5, 0, -128, 0.999, "0.0111685488548371815782867056063", "-0.0184257548495170710880946119741"),
    (0.5, 0, -128, 0.9999, "-0.0000119998639619291240770394230208", "0.0000197972498006576566154458321146"),
    (0.5, -3, -40, 0.99, "-0.0133232507784172533813408481455", "0.036716198271953761322708310205"),
    (0.5, -3, -40, 0.999, "-0.00148473460974951766759463013276", "0.00409162982964366268972690214588"),
    (0.5, -3, -40, 0.9999, "0.00224507106860749291574230461209", "-0.00618696411713209621494101495747"),
    (0.5, -40, -3, 0.99, "0.0133232507784172533813408481455", "0.036716198271953761322708310205"),
    (0.5, -40, -3, 0.999, "0.00148473460974951766759463013276", "0.00409162982964366268972690214588"),
    (0.5, -40, -3, 0.9999, "-0.00224507106860749291574230461209", "-0.00618696411713209621494101495747"),
    (0.5, 2, 7, 0.99, "0.0298096476891053795592331766927", "0.0281845531176042501663474080067"),
    (0.5, 2, 7, 0.999, "-0.0126729635498197328892713756487", "-0.011982087747313332918740120311"),
    (0.5, 2, 7, 0.9999, "-0.00247409050214617458114886514771", "-0.00233921366340011708930145269493"),
]


class TestClosedFormAgainstOracle:
    @pytest.mark.parametrize("r", UNITARY_GRID,
                             ids=lambda r: repr(r).replace(" ", ""))
    @pytest.mark.parametrize("x", [0.1, 0.5, 0.9])
    def test_columns_agree(self, r, x):
        m = r.m_ref + 2
        coord = cartan_from_x(x)
        column, oracle_err = coef_oracle(r, m, coord, n_max=r.m_ref + 24)
        peak = max(abs(v) for v in column.values())
        for n, ref in column.items():
            cv = coef(r, n, m, coord)
            assert abs(cv.value - ref) <= (
                1e-8 * max(abs(ref), 1e-6 * peak) + oracle_err + cv.err_est)

    def test_nonunitary_principal_agrees_too(self):
        # the closed form does not care about unitarity; neither may the test
        r = Principal(0.0, -0.3 + 0.4j)
        coord = cartan_from_x(0.5)
        column, oracle_err = coef_oracle(r, 0, coord, n_max=16)
        for n in (-5, -1, 0, 2, 7):
            cv = coef(r, n, 0, coord)
            assert abs(cv.value - column[n]) <= 1e-8 * abs(
                column[n]) + oracle_err + cv.err_est


class TestFrozenValues:
    @pytest.mark.parametrize("r,n,m,x,ref", FROZEN_COEFS,
                             ids=["principal-even", "principal-odd"])
    def test_frozen(self, r, n, m, x, ref):
        cv = coef(r, n, m, cartan_from_x(x))
        assert cv.value == pytest.approx(ref, rel=1e-12)


class TestBoundaryBranches:
    """Above X_CUT with n < m or m < 0, where the Euler branch needs the
    2F1 pair ordered Re a <= Re b."""

    @pytest.mark.parametrize("sigma,n,m,x,re,im", BOUNDARY_COEFS, ids=[
        f"sigma{c[0]}-n{c[1]}-m{c[2]}-x{c[3]}" for c in BOUNDARY_COEFS])
    def test_against_mpmath(self, sigma, n, m, x, re, im):
        r = Principal(sigma, BOUNDARY_LAMS[sigma])
        ref = complex(float(re), float(im))
        cv = coef(r, n, m, cartan_from_x(x))
        assert abs(cv.value - ref) <= cv.err_est <= 1e-9 * abs(ref)
        vec = coef_vec(r, n, m, np.array([0.5, x]))
        assert abs(vec[1] - ref) <= cv.err_est


class TestStructuralIdentities:
    def test_identity_at_origin(self):
        coord = cartan_from_x(0.0)
        r = Principal(0.0, -0.5 + 1.0j)
        assert coef(r, 2, 2, coord).value == pytest.approx(1.0)
        assert abs(coef(r, 3, 2, coord).value) < 1e-14

    def test_even_parity_symmetry(self):
        # sigma = 0 is inversion-symmetric: C(n, 0) = C(-n, 0)
        r = Principal(0.0, -0.5 + 0.3j)
        coord = cartan_from_x(0.6)
        for n in (1, 4, 9):
            a = coef(r, n, 0, coord).value
            b = coef(r, -n, 0, coord).value
            assert a == pytest.approx(b, rel=1e-12)

    def test_discrete_lowest_diagonal(self):
        # the lowest vector pairs with itself as (1-x)^(ell/2)
        for ell in (2, 3, 4):
            for x in (0.2, 0.7):
                cv = coef(Discrete(ell), ell / 2.0, ell / 2.0,
                          cartan_from_x(x))
                assert cv.value == pytest.approx(
                    (1.0 - x) ** (ell / 2.0), rel=1e-13)

    def test_reducible_point_collapse(self):
        # at sigma = 1/2, lam = -1/2 the full column collapses onto
        # (-1)^n x^(n/2) sqrt(1-x)
        r = Principal(0.5, -0.5)
        for n in range(5):
            for x in (0.3, 0.8):
                cv = coef(r, n, 0, cartan_from_x(x))
                ref = (-1.0) ** n * x ** (n / 2.0) * math.sqrt(1.0 - x)
                assert cv.value == pytest.approx(ref, rel=1e-12)


class TestUnitarity:
    def test_classification(self):
        assert Principal(0.0, -0.5 + 2.3j).unitary
        assert not Principal(0.0, -0.3).unitary
        assert Complementary(-0.25).unitary
        assert Discrete(2).unitary

    @pytest.mark.parametrize("r", UNITARY_GRID,
                             ids=lambda r: repr(r).replace(" ", ""))
    def test_parseval(self, r):
        assert parseval_defect(r, r.m_ref, cartan_from_x(0.5)) < 1e-6

    def test_parseval_fails_off_the_unitary_axis(self):
        # Re lam != -1/2 is not unitary; the column must not be normalized
        assert parseval_defect(Principal(0.0, -0.3), 0,
                               cartan_from_x(0.5)) > 1e-2


class TestSpectrum:
    def test_principal_parity(self):
        assert Principal(0.0, -0.5 + 1.0j).spectrum(6) == [
            -6, -4, -2, 0, 2, 4, 6]
        assert Principal(0.5, -0.5 + 1.0j).spectrum(6) == [
            -5, -3, -1, 1, 3, 5]

    def test_discrete_ray(self):
        assert Discrete(3).spectrum(9) == [3, 5, 7, 9]


class TestComplementaryNormalizer:
    def test_doubling_ratio_approaches_fourth_root_of_two(self):
        # H(k) ~ k^(2 lam + 1), so C(2n,0)/C(n,0) -> 2^((2 lam + 1)/2);
        # [DERIVED] mpmath at 30 digits for lam = -1/4, n = 4096.
        ratio = (complementary_normalizer(-0.25, 8192)
                 / complementary_normalizer(-0.25, 4096))
        assert ratio == pytest.approx(1.1892071145873953, abs=5e-10)
        assert abs(ratio - 2.0 ** 0.25) < 1e-9
        coarse = (complementary_normalizer(-0.25, 128)
                  / complementary_normalizer(-0.25, 64))
        assert abs(ratio - 2.0 ** 0.25) < abs(coarse - 2.0 ** 0.25)

    def test_positivity_guard(self):
        with pytest.raises(NormalizationError):
            complementary_normalizer(-1.4, 2)


class TestParseRep:
    def test_round_trips(self):
        assert parse_rep("principal:0:-0.5+1i") == Principal(0.0, -0.5 + 1.0j)
        assert parse_rep("principal:0.5:-0.5") == Principal(0.5, -0.5 + 0.0j)
        assert parse_rep("complementary:-0.25") == Complementary(-0.25)
        assert parse_rep("discrete:4") == Discrete(4)

    @pytest.mark.parametrize("bad", [
        "principal:0", "tempered:-0.5", "discrete:x", "principal:0:q",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(PreconditionError):
            parse_rep(bad)


class TestCoefValueContract:
    def test_error_estimates_are_honest(self):
        # closed form vs oracle, the reported budgets must cover the gap
        r = Principal(0.0, -0.5 + 1.0j)
        coord = cartan_from_x(0.9)
        column, oracle_err = coef_oracle(r, 0, coord, n_max=32)
        for n in (0, 8, 31):
            cv = coef(r, n, 0, coord)
            assert isinstance(cv, CoefValue)
            assert abs(cv.value - column[n]) <= 50.0 * (
                cv.err_est + oracle_err) + 1e-13 * abs(column[n])

    def test_non_finite_value_raises(self):
        # the Euler integrand's (1-x)^-a overflows at Re a = 128.5 before
        # the Gamma prefactor can cancel it; coef_vec returns nan there
        r = Principal(0.0, -0.5 + 1.0j)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(coef_vec(r, 128, -128, np.array([0.9999]))[0])
            with pytest.raises(ConvergenceError):
                coef(r, 128, -128, cartan_from_x(0.9999))


if __name__ == "__main__":
    import mpmath

    mpmath.mp.dps = 30
    for sigma, lam in BOUNDARY_LAMS.items():
        lam, s = mpmath.mpmathify(lam), mpmath.mpf(sigma)
        for n, m in ((0, -128), (-3, -40), (-40, -3), (2, 7)):
            for x in ("0.99", "0.999", "0.9999"):
                xm = mpmath.mpf(x)
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
                print(f'    ({sigma}, {n}, {m}, {x}, '
                      f'"{mpmath.nstr(v.real, 30)}", "{mpmath.nstr(v.imag, 30)}"),')
