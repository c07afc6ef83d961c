"""Weighted boundary integrals: the two independent routes, the tail
closure, and the asymptotic utility lemmas."""

import cmath
import math

import numpy as np
import pytest

from repnorm.errors import DomainError, PreconditionError
from repnorm.integrals import (BetaMeasure, IntegralValue, _beta_moment_tail,
                               faulhaber_sum, integral_quadrature,
                               integral_series, j_series, kronrod_quad_vec,
                               reducible_point_integral, stirling_ratio_check)
from repnorm.reps import Complementary, Discrete, Principal

# [DERIVED] mpmath: 3F2(a, b, s0+1; c, s0+1+le; 1) minus the first 1025
# normalized terms, 40 digits.
TAIL_REF = 0.01892053033208784343
TAIL_ARGS = (0.5, 4.5, 5.0, 2, 0.75, 1024)

# [DERIVED] mpmath.beta: eps * (-1)^n * B(n/2 + 1, 1/2 + eps) at n=5,
# eps=0.25.
REDUCIBLE_REF = -0.12288617792159920076


class TestBetaMeasure:
    def test_eps_range(self):
        with pytest.raises(PreconditionError):
            BetaMeasure(0.0)
        with pytest.raises(PreconditionError):
            BetaMeasure(1.0)

    def test_density_normalized(self):
        mu = BetaMeasure(0.4)
        val, err = kronrod_quad_vec(
            lambda u: np.ones_like(u), 0.0, 1.0)
        assert val == pytest.approx(1.0, abs=1e-13)
        # in the u = (1-x)^eps substitution the measure is exactly du,
        # so the density must be the Jacobian of x(u)
        us = np.linspace(0.05, 0.95, 7)
        xs = mu.x_from_u(us)
        du_dx = mu.density(xs)
        step = 1e-7
        for u, x in zip(us, xs):
            fd = (mu.u_from_x(x - step) - mu.u_from_x(x + step)) / (2 * step)
            assert du_dx[np.where(us == u)][0] == pytest.approx(
                fd, rel=1e-6)

    def test_round_trip(self):
        mu = BetaMeasure(0.7)
        xs = np.array([0.0, 0.3, 0.999])
        assert np.allclose(mu.x_from_u(mu.u_from_x(xs)), xs, atol=1e-12)


class TestKronrodQuadVec:
    def test_polynomial_exact(self):
        val, err = kronrod_quad_vec(lambda u: u ** 7, 0.0, 1.0)
        assert val == pytest.approx(0.125, abs=1e-14)
        assert err < 1e-12

    def test_oscillatory(self):
        val, err = kronrod_quad_vec(lambda u: np.cos(40.0 * u), 0.0, 1.0)
        assert val == pytest.approx(math.sin(40.0) / 40.0, abs=1e-12)

    def test_error_estimate_honest_on_algebraic_endpoint(self):
        val, err = kronrod_quad_vec(lambda u: np.sqrt(u), 0.0, 1.0,
                                    tol_abs=1e-10)
        assert abs(val - 2.0 / 3.0) <= 10.0 * err


class TestBetaMomentTail:
    def test_frozen_reference(self):
        tail, err = _beta_moment_tail(*TAIL_ARGS)
        assert abs(tail - TAIL_REF) < 1e-12 * TAIL_REF
        assert abs(tail - TAIL_REF) <= err

    def test_divergent_exponent_rejected(self):
        # tau >= -1 means the moment series itself diverges
        with pytest.raises(DomainError):
            _beta_moment_tail(2.0, 3.0, 1.0, 0, 0.25, 64)


class TestCollapsedFamily:
    """At the reducible boundary point the whole integral collapses to a
    signed Beta value; both live routes must land on it."""

    def test_frozen_reference(self):
        assert reducible_point_integral(5, 0.25) == pytest.approx(
            REDUCIBLE_REF, rel=1e-14)

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 16])
    @pytest.mark.parametrize("eps", [0.25, 0.75])
    def test_both_routes(self, n, eps):
        r = Principal(0.5, -0.5)
        ref = reducible_point_integral(n, eps)
        q = integral_quadrature(r, n, eps)
        s = integral_series(r, n, eps)
        assert abs(q.value - ref) < 1e-10
        assert abs(s.value - ref) < 1e-10
        assert abs(q.value.imag) < 1e-12
        assert math.copysign(1.0, q.value.real) == math.copysign(1.0, ref)


class TestDualRoutes:
    # sigma = 1/2 is not inversion-symmetric, so its negative n are a
    # different column from its positive ones
    @pytest.mark.parametrize("r", [
        Principal(0.0, -0.5),
        Principal(0.0, -0.5 + 1.0j),
        Complementary(-0.25),
        Principal(0.5, -0.5 + 0.7j),
    ], ids=["principal-real", "principal-complex", "complementary",
            "principal-half-complex"])
    @pytest.mark.parametrize("n", [0, 1, 3, 12, -12, -1])
    def test_series_equals_quadrature(self, r, n):
        eps = 0.4
        q = integral_quadrature(r, n, eps)
        s = integral_series(r, n, eps)
        scale = max(abs(q.value), abs(s.value))
        assert abs(q.value - s.value) <= 1e-6 * scale + q.err_est + s.err_est

    @pytest.mark.parametrize("ell", [2, 3])
    def test_discrete_exact_sum(self, ell):
        r = Discrete(ell)
        for n in (ell / 2.0, ell / 2.0 + 2.0):
            q = integral_quadrature(r, n, 0.3)
            s = integral_series(r, n, 0.3)
            assert isinstance(s, IntegralValue)
            assert s.method == "exact-sum"
            assert abs(q.value - s.value) <= 1e-10 * abs(s.value) + q.err_est

    def test_terminating_series_needs_no_tail(self):
        # a = 0 terminates the moment series; this must not touch the
        # Gamma-pole machinery
        val = integral_series(Principal(0.5, -0.5), 3, 0.5)
        assert abs(val.value.imag) < 1e-14
        assert val.err_est < 1e-10


class TestJSeries:
    def test_frozen_moment_total(self):
        # [DERIVED] mpmath: B(1, 0.8) * 3F2(1/2, 1/2, 1; 1, 1.8; 1) at 30
        # digits; the lam = -1/2, sigma = 0, n = 0, eps = 0.3 moment series:
        # 2F1(1/2, 1/2; 1; x), s0 = 0, eps - lam = 0.8
        val, err = j_series(0.5, 0.5, 1.0, 0.0, 0.3 + 0.5)
        ref = 1.682816664987505646227
        assert abs(val - ref) <= 1e-11 * ref
        assert abs(val - ref) <= err + 1e-13 * ref


class TestFaulhaber:
    def test_real_exponent_error_bound(self):
        n, c = 100, 0.5
        brute = sum(k ** -c for k in range(1, n + 1))
        assert abs(faulhaber_sum(n, c) - brute) < 1e-3

    def test_complex_exponent_error_is_little_o(self):
        c = 1.0 + 1.0j
        errs = []
        for n in (1000, 2000, 4000):
            brute = sum(k ** -c for k in range(1, n + 1))
            errs.append(abs(faulhaber_sum(n, c) - brute) * n)
        assert errs[1] / errs[0] <= 0.6
        assert errs[2] / errs[1] <= 0.6

    def test_harmonic_pole_rejected(self):
        with pytest.raises(DomainError):
            faulhaber_sum(50, 1.0)

    def test_small_n_rejected(self):
        with pytest.raises(PreconditionError):
            faulhaber_sum(0, 0.5)


class TestStirlingRatio:
    def test_bounded_along_real_axis(self):
        bound = abs(0.5 * (0.5 - 1.0)) / 2.0 + 0.5
        for z in (1e2, 1e3, 1e4):
            assert stirling_ratio_check(z, 0.5) < bound

    def test_complex_offset(self):
        alpha = -0.5 + 0.3j
        vals = [stirling_ratio_check(z, alpha) for z in (1e2, 1e3, 1e4)]
        assert max(vals) < 1.0

    def test_left_half_plane_rejected(self):
        with pytest.raises(DomainError):
            stirling_ratio_check(-3.0, 0.5)
