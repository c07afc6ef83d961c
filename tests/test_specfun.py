"""Gauss-series and Gamma-ratio checks for the special-function layer."""

import ast
import cmath
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

from repnorm import specfun
from repnorm.errors import ConvergenceError, DomainError, PoleError
from repnorm.specfun import (_log_gamma_shift, gamma_ratio_signed,
                             gamma_rounding, hyp2f1, is_nonpositive_int,
                             log_gamma_difference, log_gammas, pochhammer,
                             zeta)

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
    """log Gamma(w + d) - log Gamma(w) at the sizes of the Beta-moment tail
    and of the disc |J|, where a direct difference of log-Gamma values
    loses most digits; with numpy's complex log1p in place of _log1p every
    complex d at w >= 1e6 fails (numpy's real log1p is accurate, so
    d = 0.3 passes either way)."""

    @pytest.mark.parametrize("w", [12.0, 100.0, 1e3, 1e6, 1e9, 1e12])
    @pytest.mark.parametrize("d", [0.5 - 1.0j, -1.5 + 0.7j, 0.3])
    def test_against_mpmath(self, w, d):
        with mpmath.workdps(40):
            wm = mpmath.mpf(w)
            ref = complex(mpmath.loggamma(wm + mpmath.mpmathify(d))
                          - mpmath.loggamma(wm))
        values, rounding = _log_gamma_shift(np.array([w]), d)
        got = complex(values[0])
        assert abs(got - ref) <= 1e-15 * abs(ref)
        assert abs(got - ref) <= rounding[0]

    @pytest.mark.parametrize("ell", [1, 2, 3, 7])
    def test_disc_differences_within_the_rounding(self, ell):
        # log G(p + ell) - log G(p + 1) of the disc |J|, p + 1 from 1 (two
        # log-Gamma values) to 4097 (one shift pair from 12 up)
        ws = np.array([1.0, 2.0, 5.5, 11.0, 12.0, 13.0, 255.0, 1024.0,
                       4097.0])
        got, rounding = log_gamma_difference(ws, ell - 1.0)
        for w, v, rel in zip(ws.tolist(), got.tolist(), rounding.tolist()):
            with mpmath.workdps(50):
                ref = float(mpmath.loggamma(mpmath.mpf(w) + ell - 1)
                            - mpmath.loggamma(mpmath.mpf(w)))
            assert abs(v - ref) <= rel, (w, ell)
            # one shift pair, or two log-Gamma values
            assert rel == (_log_gamma_shift(np.array([w]), ell - 1.0)[1][0]
                           if w >= 12.0 else gamma_rounding(
                               [log_gammas([w + ell - 1.0])[0],
                                log_gammas([w])[0]]))
            assert (v, rel) == log_gamma_difference(w, ell - 1.0)

class TestIsNonpositiveInt:
    @pytest.mark.parametrize("z,flag", [
        (0.0, True), (-3.0, True), (-3.0 + 1e-14j, True),
        (-2.5, False), (1.0, False), (-3.0 + 0.1j, False),
    ])
    def test_cases(self, z, flag):
        assert is_nonpositive_int(z) is flag


class TestZeta:
    def test_pole_refused(self):
        with pytest.raises(PoleError):
            zeta(1.0)

    @pytest.mark.parametrize("s", [-0.5, -1e-300 + 2j, 1e4 + 1j, 2e4j,
                                   complex(math.nan, 0.0), math.inf])
    def test_outside_the_summed_domain_refused(self, s):
        with pytest.raises(DomainError):
            zeta(s)


def test_no_module_imports_scipy():
    # log Gamma, digamma, log1p and zeta are evaluated in specfun itself and
    # the Euler-integral oracle runs on integrals.kronrod_quad_vec, so no
    # module imports any part of scipy or mpmath, which serves the tests and
    # the truth regeneration alone: ast.walk visits the imports inside
    # functions too, and a call of __import__ or importlib.import_module on
    # a literal name counts as an import
    import repnorm

    def imported(node):
        if isinstance(node, ast.Import):
            return [a.name for a in node.names]
        if isinstance(node, ast.ImportFrom):
            return [node.module or ""]
        if (isinstance(node, ast.Call) and node.args
                and isinstance(node.args[0], ast.Constant)
                and getattr(node.func, "id", getattr(node.func, "attr", None))
                in ("__import__", "import_module")):
            return [str(node.args[0].value)]
        return []

    importers = {path.name
                 for path in Path(repnorm.__file__).parent.glob("*.py")
                 for node in ast.walk(ast.parse(path.read_text("utf-8")))
                 if any(n.split(".")[0] in ("scipy", "mpmath")
                        for n in imported(node))}
    assert importers == set()


def test_batch_independent_bits():
    # each element of a long call has the bits of its one-element call:
    # a column of 2,049 indices, real and complex, both signs of a zero
    # imaginary part, reflected, shifted and direct arguments
    rng = np.random.default_rng(19)
    z = np.concatenate([
        np.arange(2049) * 0.5 - 520.25,
        rng.uniform(-520.0, 1030.0, 400) + 1j * rng.uniform(-1.0, 1.0, 400),
        rng.uniform(-20.0, 20.0, 200) + 1j * rng.uniform(-20.0, 20.0, 200)])
    z[1::3] = np.conj(z[1::3])
    rng.shuffle(z)
    z = z[:2049]
    column = log_gammas(z)
    single = np.array([log_gammas([v])[0] for v in z.tolist()])
    assert column.view(np.uint64).tolist() == single.view(np.uint64).tolist()
    memo = np.concatenate([log_gammas(z[i:i + 5]) for i in range(0, 2049, 5)])
    assert column.view(np.uint64).tolist() == memo.view(np.uint64).tolist()

class TestGammaRatioSigned:
    def test_smooth_arguments(self):
        # no poles anywhere: plain value, checked against math.gamma
        v, rel = gamma_ratio_signed([2.5, 0.5], [1.5])
        ref = math.gamma(2.5) * math.gamma(0.5) / math.gamma(1.5)
        assert v == pytest.approx(ref, rel=1e-13)
        # the rounding comes from the same log-Gamma values
        assert rel == 2.2e-16 * sum(80.0 + 2.0 * abs(log_gamma(z))
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

    @pytest.mark.parametrize("a", [100, 174, 255, 1000, 2047, 3000])
    @pytest.mark.parametrize("b", [0, 3, 10, 57])
    def test_pole_pair_factorials_within_the_rounding(self, a, b):
        # poles at -a and -(a - b) cancel to (-1)^b (a-b)!/a!; the two
        # factorials, of size a log a, were taken outside the rounding,
        # which was 31 times short at [-174, 2.5] / [-10, 1.5]
        v, rel = gamma_ratio_signed([-float(a), 2.5], [-float(a - b), 1.5])
        with mpmath.workdps(60):
            ref = (-1) ** b * mpmath.mpf(1.5) / mpmath.rf(a - b + 1, b)
            assert abs(v - ref) <= rel * abs(ref)

    def test_pole_pair_into_the_subnormals(self):
        v, rel = gamma_ratio_signed([-174.0, 2.5], [-10.0, 1.5])
        with mpmath.workdps(60):
            ref = (mpmath.factorial(10) / mpmath.factorial(174)
                   * mpmath.mpf(1.5))
            assert abs(v - ref) <= rel * abs(ref)

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

    def test_budget_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(specfun, "SERIES_KMAX", 30)
        with pytest.raises(ConvergenceError):
            hyp2f1(0.5, 0.7, 1.1, 0.999)

