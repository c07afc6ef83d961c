"""Peak scans, exponent fits and Sobolev-scale separations."""

import math

import numpy as np
import pytest

from repnorm.errors import FitError, PreconditionError, ScanError
from repnorm.norms import (FitResult, NormSample, ScanConfig,
                           distance_estimate, fit_exponent, golden_min,
                           pmin_scan, scan_character, sobolev_gap_estimate,
                           sobolev_multiplier)
from repnorm.reps import Complementary, Discrete, Principal

LADDER = [16.0 * 2.0 ** k for k in range(7)]


class TestSobolevWeights:
    def test_multiplier(self):
        assert sobolev_multiplier(0, 3.0) == 1.0
        assert sobolev_multiplier(2, 1.0) == pytest.approx(math.sqrt(5.0))


class TestGoldenMin:
    def test_quadratic(self):
        t, val = golden_min(lambda s: (s - 1.3) ** 2, 0.0, 4.0)
        assert t == pytest.approx(1.3, abs=1e-9)
        assert val == pytest.approx(0.0, abs=1e-18)


class TestFitExponent:
    def test_recovers_planted_power_law(self):
        amp, alpha, beta = 3.0, -0.5, 0.7
        vals = [amp * (1.0 + n) ** alpha
                * math.log(math.e + n) ** beta for n in LADDER]
        fit = fit_exponent(LADDER, vals)
        assert isinstance(fit, FitResult)
        assert fit.alpha == pytest.approx(alpha, abs=1e-9)
        assert fit.beta == pytest.approx(beta, abs=1e-9)
        assert fit.log_amp == pytest.approx(math.log(amp), abs=1e-9)
        assert fit.resid < 1e-9

    def test_without_log_column(self):
        vals = [2.0 * (1.0 + n) ** -0.75 for n in LADDER]
        fit = fit_exponent(LADDER, vals, with_log=False)
        assert fit.alpha == pytest.approx(-0.75, abs=1e-12)
        assert fit.beta == 0.0

    def test_too_few_samples(self):
        with pytest.raises(FitError):
            fit_exponent([1.0, 2.0, 4.0], [1.0, 0.5, 0.25])

    def test_nonpositive_values(self):
        with pytest.raises(FitError):
            fit_exponent(LADDER, [1.0] * (len(LADDER) - 1) + [0.0])

    def test_degenerate_ladder(self):
        with pytest.raises(FitError):
            fit_exponent([7.0] * 5, [1.0] * 5)


class TestDistanceEstimate:
    def test_recovers_planted_separation(self):
        gamma = 1.0
        q = [(1.0 + n) ** -0.5 for n in LADDER]
        p = [qv * (1.0 + n * n) ** (gamma / 2.0)
             for qv, n in zip(q, LADDER)]
        assert distance_estimate(p, q, LADDER) == pytest.approx(
            gamma, abs=1e-9)

    def test_symmetric_flips_sign(self):
        p = [(1.0 + n * n) ** -0.35 for n in LADDER]
        ones = [1.0] * len(LADDER)
        assert distance_estimate(p, ones, LADDER) == pytest.approx(
            0.7 / 2.0 * 2.0 - 0.7 + 0.7, abs=1e-9)  # = 0.7, clamped mirror
        assert distance_estimate(p, ones, LADDER, symmetric=False) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(FitError):
            distance_estimate([1.0, 2.0], [1.0], [1.0, 2.0])


class TestScanCharacter:
    CFG = ScanConfig(grid_c=0.2, refine_iters=40)

    def test_principal_sample_contract(self):
        s = scan_character(Principal(0.0, -0.5 + 1.0j), 16, self.CFG)
        assert isinstance(s, NormSample)
        assert s.n == 16
        assert s.pmin > 0.0
        assert 0.0 < s.x_argmax < 1.0
        assert s.pmax_proxy == pytest.approx(1.0 / s.pmin, rel=1e-12)
        assert s.q_s_half == pytest.approx(
            sobolev_multiplier(16, 0.5), rel=1e-12)
        assert s.err_est < 1e-6 * s.pmin

    def test_character_outside_spectrum(self):
        with pytest.raises(PreconditionError):
            scan_character(Principal(0.0, -0.5 + 1.0j), 17, self.CFG)
        with pytest.raises(PreconditionError):
            scan_character(Discrete(4), 2, self.CFG)

    def test_peak_is_a_true_local_max(self):
        from repnorm.group import cartan_from_x
        from repnorm.reps import coef
        s = scan_character(Complementary(-0.25), 32, self.CFG)
        for x_probe in (0.9 * s.x_argmax, min(0.999, 1.1 * s.x_argmax)):
            mag = abs(coef(Complementary(-0.25), 16, 0,
                           cartan_from_x(x_probe)).value)
            assert mag <= s.pmin * (1.0 + 1e-9)


class TestPminScan:
    CFG = ScanConfig(grid_c=0.2, refine_iters=40)

    def test_explicit_ladder_sorted(self):
        samples = pmin_scan(Discrete(2), [64, 16, 32], config=self.CFG)
        assert [s.n for s in samples] == [16, 32, 64]

    def test_threading_is_deterministic(self):
        r = Principal(0.0, -0.5 + 1.0j)
        serial = pmin_scan(r, [16, 32, 64], config=self.CFG)
        threaded = pmin_scan(
            r, [16, 32, 64],
            config=ScanConfig(grid_c=0.2, refine_iters=40, threads=3))
        for a, b in zip(serial, threaded):
            assert a == b

    def test_default_ladder_respects_parity(self):
        samples = pmin_scan(Principal(0.5, -0.5 + 0.4j),
                            [17, 33], config=self.CFG)
        assert [s.n for s in samples] == [17, 33]


class TestSobolevGap:
    def test_planted_gap(self):
        ns = LADDER
        samples = [
            NormSample(n=int(n), pmin=(1.0 + n * n) ** -0.25,
                       x_argmax=0.5, pmax_proxy=(1.0 + n * n) ** 0.25,
                       q_s_half=(1.0 + n * n) ** 0.25, err_est=0.0)
            for n in ns
        ]
        assert sobolev_gap_estimate(samples) == pytest.approx(1.0, abs=1e-9)
