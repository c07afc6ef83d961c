"""Gauss-series, Gamma-ratio and oracle checks for the special-function layer."""

import ast
import cmath
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

from repnorm.errors import ConvergenceError, DomainError, PoleError
from repnorm.specfun import (_log_gamma_shift, gamma_ratio_signed, hyp2f1,
                             hyp2f1_euler_oracle, is_nonpositive_int,
                             log_gammas, pochhammer)

# [DERIVED] mpmath.hyp2f1 at 30 digits, frozen.
FROZEN_2F1 = [
    ((0.3 + 0.2j), 1.4, 2.2, 0.7,
     1.2064616670369144968 + 0.1654804231949192617j),
    (-2.5, (1.1 - 0.4j), 3.3, -0.6,
     1.6075711415986602955 - 0.2468288222340697251j),
    (0.5, 0.5, 1.5, 0.81, 1.2441883499984824297 + 0.0j),
]


class TestPochhammer:
    def test_matches_product(self):
        z = 0.7 - 1.2j
        acc = 1.0 + 0.0j
        for k in range(6):
            assert pochhammer(z, k) == pytest.approx(acc, rel=1e-14)
            acc *= z + k

    def test_zero_length(self):
        assert pochhammer(3.5, 0) == 1.0


def log_gamma(z):
    """log Gamma(z) alone, through the one log-Gamma pass."""
    return complex(log_gammas([z])[0])


class TestLogGamma:
    def test_real_positive(self):
        for z in (0.5, 1.0, 4.5, 21.5):
            assert cmath.exp(log_gamma(z)).real == pytest.approx(
                math.gamma(z), rel=1e-13)

    def test_complex_recurrence(self):
        z = 2.3 + 1.7j
        lhs = log_gamma(z + 1.0)
        rhs = log_gamma(z) + cmath.log(z)
        assert abs(lhs - rhs) < 1e-12

    def test_reflection(self):
        z = 0.3 + 0.4j
        total = log_gamma(z) + log_gamma(1.0 - z)
        ref = cmath.log(cmath.pi / cmath.sin(cmath.pi * z))
        assert abs(cmath.exp(total) - cmath.exp(ref)) < 1e-12 * abs(
            cmath.exp(ref))


class TestLogGammaShift:
    """log Gamma(w + d) - log Gamma(w) at the sizes of the Beta-moment tail,
    where a direct difference of log-Gamma values loses most digits; with
    numpy's log1p in place of scipy's every complex d fails (numpy's real
    log1p is accurate, so d = 0.3 passes either way)."""

    @pytest.mark.parametrize("w", [1e3, 1e6, 1e9, 1e12])
    @pytest.mark.parametrize("d", [0.5 - 1.0j, -1.5 + 0.7j, 0.3])
    def test_against_mpmath(self, w, d):
        with mpmath.workdps(40):
            wm = mpmath.mpf(w)
            ref = complex(mpmath.loggamma(wm + mpmath.mpmathify(d))
                          - mpmath.loggamma(wm))
        got = complex(_log_gamma_shift(np.array([w]), d)[0])
        assert abs(got - ref) <= 1e-15 * abs(ref)


class TestIsNonpositiveInt:
    @pytest.mark.parametrize("z,flag", [
        (0.0, True), (-3.0, True), (-3.0 + 1e-14j, True),
        (-2.5, False), (1.0, False), (-3.0 + 0.1j, False),
    ])
    def test_cases(self, z, flag):
        assert is_nonpositive_int(z) is flag


def test_only_specfun_imports_scipy_special():
    # log Gamma, digamma and the rounding of Gamma ratios are decided in one
    # module; reps and integrals took loggamma and psi from scipy themselves
    import repnorm

    importers = set()
    for path in Path(repnorm.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module}.{a.name}"
                                               for a in node.names]
            else:
                continue
            if any(n.split(".")[:2] == ["scipy", "special"] for n in names):
                importers.add(path.name)
    assert importers == {"specfun.py"}


class TestGammaRatioSigned:
    def test_smooth_arguments(self):
        # no poles anywhere: plain value, checked against math.gamma
        v, rel = gamma_ratio_signed([2.5, 0.5], [1.5])
        ref = math.gamma(2.5) * math.gamma(0.5) / math.gamma(1.5)
        assert v == pytest.approx(ref, rel=1e-13)
        # the rounding comes from the same log-Gamma values
        assert rel == 2.2e-16 * sum(8.0 + abs(log_gamma(z))
                                    for z in (2.5, 0.5, 1.5))

    def test_negative_noninteger(self):
        v, _ = gamma_ratio_signed([-1.5], [-0.5])
        ref = math.gamma(-1.5) / math.gamma(-0.5)
        assert v == pytest.approx(ref, rel=1e-13)

    def test_cancelling_poles(self):
        # Gamma(-a+d)/Gamma(-b+d) -> (-1)^(a-b) b!/a!
        v, _ = gamma_ratio_signed([-3.0], [-1.0])
        assert v == pytest.approx((-1.0) ** 2 * 1.0 / 6.0, rel=1e-13)
        v, _ = gamma_ratio_signed([-2.0], [-1.0])
        assert v == pytest.approx(-1.0 / 2.0, rel=1e-13)

    def test_surviving_numerator_pole_raises(self):
        with pytest.raises(PoleError):
            gamma_ratio_signed([-2.0], [1.5])

    def test_surviving_denominator_pole_is_zero(self):
        assert gamma_ratio_signed([1.5], [-2.0]) == (0.0, 0.0)


class TestGaussSeries:
    @pytest.mark.parametrize("a,b,c,z,ref", FROZEN_2F1)
    def test_frozen_references(self, a, b, c, z, ref):
        val, err = hyp2f1(a, b, c, z)
        assert val == pytest.approx(ref, rel=1e-12)
        assert abs(val - ref) <= 10.0 * err + 1e-13 * abs(ref)

    def test_elementary_closed_forms(self):
        # 2F1(1/2, 1/2; 3/2; z^2) = asin(z)/z and 2F1(a, b; b; z) = (1-z)^(-a)
        z = 0.9
        assert hyp2f1(0.5, 0.5, 1.5, z * z)[0] == pytest.approx(
            math.asin(z) / z, rel=1e-13)
        assert hyp2f1(0.3 + 0.1j, 2.2, 2.2, -0.4)[0] == pytest.approx(
            (1.4) ** (-(0.3 + 0.1j)), rel=1e-13)

    def test_terminating_polynomial(self):
        # a = -3 terminates; compare with the explicit cubic
        a, b, c, z = -3.0, 1.7, 2.4, 0.95
        ref = sum(pochhammer(a, k) * pochhammer(b, k)
                  / (pochhammer(c, k) * math.factorial(k)) * z ** k
                  for k in range(4))
        assert hyp2f1(a, b, c, z)[0] == pytest.approx(ref, rel=1e-14)

    def test_euler_transformation(self):
        # (1-z)^(c-a-b) 2F1(c-a, c-b; c; z) is the same function
        a, b, c, z = 0.4 + 0.6j, 1.3, 2.1, 0.55
        lhs = hyp2f1(a, b, c, z)[0]
        rhs = (1.0 - z) ** (c - a - b) * hyp2f1(c - a, c - b, c, z)[0]
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_outside_disc_raises(self):
        with pytest.raises(DomainError):
            hyp2f1(0.5, 0.7, 1.1, 1.2)

    def test_budget_exhaustion_raises(self):
        with pytest.raises(ConvergenceError):
            hyp2f1(0.5, 0.7, 1.1, 0.999, kmax=30)


class TestEulerOracle:
    """The integral route must agree with the series route wherever both
    converge; it is the jury for every closed form downstream."""

    @pytest.mark.parametrize("a,b,c,z", [
        (0.7, 1.6, 3.1, 0.5),
        (-0.4 + 0.8j, 1.9, 3.4 + 0.2j, -0.35),
        (1.2, 2.5 - 0.6j, 4.4, 0.82),
    ])
    def test_against_series(self, a, b, c, z):
        ref, ref_err = hyp2f1(a, b, c, z)
        val, err = hyp2f1_euler_oracle(a, b, c, z)
        assert abs(val - ref) <= 1e-10 * abs(ref) + err + ref_err

    def test_error_estimate_honest(self):
        a, b, c, z = 0.9, 1.4, 3.0, 0.6
        ref, _ = hyp2f1(a, b, c, z)
        val, err = hyp2f1_euler_oracle(a, b, c, z)
        assert abs(val - ref) <= 10.0 * err + 1e-14 * abs(ref)
