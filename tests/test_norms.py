"""Peak scans, exponent fits and Sobolev-scale separations."""

import math
import types

import numpy as np
import pytest

from repnorm import norms
from repnorm.errors import FitError, PreconditionError, ScanError
from repnorm.norms import (FitResult, NormSample, ScanConfig, _grid_top,
                           _scan_grid, default_ladder, distance_estimate,
                           fit_exponent, golden_min, pmin_scan,
                           scan_character, sobolev_gap_estimate,
                           sobolev_multiplier)
from repnorm.reps import Complementary, Discrete, Principal, coef_vec

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


def _scalar_golden(f, lo, hi, iters):
    """The golden section on one bracket, one point per call of f: the
    reference whose bits golden_min must give on every bracket.  Returns
    (x, f(x), steps taken)."""
    a, b = float(lo), float(hi)
    x1 = b - norms._GOLDEN * (b - a)
    x2 = a + norms._GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    steps = 0
    for _ in range(iters):
        steps += 1
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - norms._GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + norms._GOLDEN * (b - a)
            f2 = f(x2)
        if b - a < 1e-14 * (1.0 + abs(a)):
            break
    return ((x1, f1) if f1 <= f2 else (x2, f2)) + (steps,)


class TestLockstepGolden:
    """golden_min searches all its brackets at once, one call of f per
    step over the brackets still live; each bracket must end on the bits
    of the scalar search of that bracket alone."""

    @staticmethod
    def _check(f, lo, hi, iters):
        sizes = []

        def batched(xs):
            sizes.append(xs.size)
            return np.array([f(x) for x in xs])

        xs, fs = golden_min(batched, lo, hi, iters=iters)
        want = [_scalar_golden(f, a, b, iters) for a, b in zip(lo, hi)]
        assert [x for x, _, _ in want] == xs.tolist()
        assert [v for _, v, _ in want] == fs.tolist()
        # one call for both inner points, then one per step, over the
        # brackets whose own search has not stopped yet
        steps = [k for _, _, k in want]
        assert sizes == [2 * len(lo)] + [
            sum(k > j for k in steps) for j in range(max(steps))]
        return steps

    def test_brackets_of_different_widths_stop_on_their_own(self):
        rng = np.random.default_rng(7)
        lo = rng.uniform(-3.0, 3.0, 40)
        hi = lo + 10.0 ** rng.uniform(-13.0, 1.0, 40)
        steps = self._check(lambda x: math.cos(3.0 * x) + 0.1 * x, lo, hi,
                            200)
        assert len(set(steps)) > 10 and max(steps) < 200

    def test_steps_cut_short_by_iters(self):
        lo = np.linspace(0.1, 0.9, 6)
        hi = lo + np.array([2e-14, 1e-13, 5e-13, 1e-6, 0.1, 1.0])
        steps = self._check(lambda x: (x - 0.5) ** 2, lo, hi, 9)
        assert min(steps) < 9 == max(steps)

    def test_ties(self):
        # a staircase and a constant: f1 == f2 on most steps
        lo = np.array([0.0, -1.0, 0.3, 2.0, 5.0])
        hi = np.array([1.0, 1.0, 0.31, 2.0 + 1e-9, 6.0])

        def stairs(x):
            return math.floor(8.0 * abs(x - 0.45)) / 8.0 if x < 4.0 else 1.0

        self._check(stairs, lo, hi, 80)

    def test_scalar_bracket_gives_scalars(self):
        x, fx = golden_min(lambda s: (s - 0.25) ** 2, 0.0, 1.0, iters=30)
        assert np.ndim(x) == 0 and np.ndim(fx) == 0
        assert (x, fx) == _scalar_golden(lambda s: (s - 0.25) ** 2,
                                         0.0, 1.0, 30)[:2]


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


class TestLockstepScan:
    """scan_character refines its brackets together; the result must be
    the one of refining them one after another."""

    # numpy's abs of a complex value rounds unlike Python's on about a
    # third of the values, and np.tanh unlike math.tanh on some: either
    # in the lockstep objective moves the last bit of some of these peaks
    @pytest.mark.parametrize("r,kappa,cfg", [
        (Principal(0.0, -0.5 + 1.0j), 16, ScanConfig(0.4, 6.0, 2, 32)),
        (Principal(0.0, -0.5 + 1.0j), 256, ScanConfig(0.4, 6.0, 8, 24)),
        (Principal(0.0, -0.5 + 2.0j), 64, ScanConfig(0.2, 6.0, 8, 60)),
        (Principal(0.5, -0.5 + 0.4j), 17, ScanConfig(0.25, 6.0, 5, 60)),
        (Complementary(-0.25), 64, ScanConfig(0.4, 6.0, 8, 24)),
        (Discrete(2), 16, ScanConfig(0.4, 6.0, 8, 24)),
        (Principal(0.5, -0.5 + 0.7j), 1025, ScanConfig(0.4, 6.0, 2, 32)),
        (Principal(0.0, -0.3 + 1.0j), 32, ScanConfig(0.4, 6.0, 8, 24)),
        (Principal(0.5, -0.5), 33, ScanConfig(0.4, 6.0, 8, 24))],
        ids=lambda v: repr(v).replace(" ", ""))
    def test_same_sample_as_one_bracket_at_a_time(self, r, kappa, cfg,
                                                  monkeypatch):
        lockstep = scan_character(r, kappa, cfg)
        n = r.basis_index(kappa)

        def one_point(t):
            # the refinement's objective, one point per coef_vec call
            x = math.tanh(t) ** 2
            return -abs(coef_vec(r, n, r.m_ref, np.array([x]))[0])

        def sequential(f, lo, hi, iters=60):
            out = [_scalar_golden(one_point, a, b, iters)
                   for a, b in zip(lo, hi)]
            return np.array([o[0] for o in out]), np.array([o[1] for o in out])

        monkeypatch.setattr(norms, "golden_min", sequential)
        assert repr(scan_character(r, kappa, cfg)) == repr(lockstep)

    @pytest.mark.parametrize("refine_top", [1, 2, 8])
    def test_one_coef_vec_call_per_step(self, refine_top, monkeypatch):
        sizes, refining = [], []
        golden = norms.golden_min

        def marked(*args, **kwargs):
            refining.append(True)
            try:
                return golden(*args, **kwargs)
            finally:
                refining.pop()

        def counted(*args, **kwargs):
            if refining:
                sizes.append(np.asarray(args[3]).size)
            return coef_vec(*args, **kwargs)

        monkeypatch.setattr(norms, "golden_min", marked)
        monkeypatch.setattr(norms, "coef_vec", counted)
        cfg = ScanConfig(grid_c=0.4, refine_top=refine_top, refine_iters=12)
        scan_character(Principal(0.0, -0.5 + 1.0j), 64, cfg)
        assert sizes == [2 * refine_top] + [refine_top] * 12


class TestScanConfig:
    @pytest.mark.parametrize("fields", [
        {"grid_c": 0.0}, {"grid_c": -0.1}, {"grid_c": math.nan},
        {"grid_c": math.inf}, {"t_pad": math.nan}, {"t_pad": -math.inf},
        {"refine_top": 0}, {"refine_iters": 0}, {"refine_iters": -3}])
    def test_rejects_a_grid_it_cannot_scan(self, fields):
        with pytest.raises(PreconditionError):
            ScanConfig(**fields)


# families whose level-by-level grid is checked against the one-batch grid
GRID_FAMILIES = [Principal(0.0, -0.5 + 1.0j), Principal(0.5, -0.5 + 0.4j),
                 Principal(0.0, -0.5), Complementary(-0.25), Discrete(2),
                 Discrete(3)]


class TestLevelGrid:
    """_grid_top evaluates the scan grid in levels, certified by the
    Lipschitz and curvature bounds of the family, and must pick the same
    top points as evaluating the whole grid in one batch.  Each point has
    the bits of its one-point call in any batch, so the same indices mean
    the same values."""

    @pytest.mark.parametrize("grid_c", [0.1, 0.25, 0.4])
    @pytest.mark.parametrize("r", GRID_FAMILIES,
                             ids=lambda r: repr(r).replace(" ", ""))
    def test_picks_the_one_batch_top(self, r, grid_c):
        for kappa in [k for k in default_ladder(r) if k <= 1024]:
            ts, _, _ = _scan_grid(kappa, ScanConfig(grid_c=grid_c))
            n = r.basis_index(kappa)
            mags = np.abs(coef_vec(r, n, r.m_ref, np.tanh(ts) ** 2))
            order = np.argsort(mags)[::-1]
            for k in (2, 8):
                assert list(_grid_top(r, n, r.m_ref, ts, k)) == \
                    list(order[:k]), (kappa, k)

    def test_finds_a_narrow_peak_the_first_level_misses(self, monkeypatch):
        # a fake family along t: a low broad hump and, away from it, a
        # slightly higher spike (slopes 0.9 and 0.8, below L = 1) narrower
        # than the spacing of the first level; swept over one spacing, it
        # sits between two first-level points for some of the centres, and
        # only the bound keeps the interval that hides it.  The spike has a
        # kink, so no curvature bound holds
        fake = types.SimpleNamespace(lipschitz=1.0, curvature=math.inf)
        ts = np.arange(1, 8001) * 1e-3
        for centre in 6.0 + 0.002 * np.arange(16):
            def mags(r, n, m, xs, omx=None, centre=centre):
                t = np.arctanh(np.sqrt(xs))
                spike = 0.012 - np.where(t < centre, 0.9, 0.8) \
                    * np.abs(t - centre)
                return (0.5 + 0.01 * np.exp(-(t - 3.0) ** 2) + 1e-4 * t
                        + np.maximum(spike, 0.0))

            monkeypatch.setattr(norms, "coef_vec", mags)
            order = np.argsort(mags(fake, 0, 0, np.tanh(ts) ** 2))[::-1]
            assert abs(ts[order[0]] - centre) < 1e-3
            for k in (2, 8):
                assert list(_grid_top(fake, 0, 0, ts, k)) == \
                    list(order[:k]), (centre, k)

    def test_finds_a_smooth_narrow_peak_by_its_curvature(self, monkeypatch):
        # as above, with a smooth spike: a Gaussian of height A and width
        # w = 0.003, a tenth of the first-level spacing.  L = A / (w sqrt(e))
        # and K = A / w^2 bound its slope and its bend (the hump adds below
        # 0.03 to either).  For half of the centres the interval of the
        # second level (spacing h = 0.016) that hides the spike stays live
        # only on a bound 0.009 above its ends: L h/2 = 0.033 and
        # K h^2/8 = 0.071 give it, K h^2/80 = 0.007 would not
        height, width = 0.02, 0.003
        fake = types.SimpleNamespace(
            lipschitz=height / (width * math.sqrt(math.e)) + 0.03,
            curvature=height / width ** 2 + 0.03)
        ts = np.arange(1, 8001) * 1e-3
        for centre in 6.0 + 0.002 * np.arange(16) + 0.0007:
            def mags(r, n, m, xs, omx=None, centre=centre):
                t = np.arctanh(np.sqrt(xs))
                return (0.5 + 0.01 * np.exp(-(t - 3.0) ** 2) + 1e-4 * t
                        + height * np.exp(-0.5 * ((t - centre) / width) ** 2))

            monkeypatch.setattr(norms, "coef_vec", mags)
            order = np.argsort(mags(fake, 0, 0, np.tanh(ts) ** 2))[::-1]
            assert abs(ts[order[0]] - centre) < 1e-3
            for k in (2, 8):
                assert list(_grid_top(fake, 0, 0, ts, k)) == \
                    list(order[:k]), (centre, k)

    def _grid_calls(self, monkeypatch, r, kappa):
        sizes = []

        def counted(*args, **kwargs):
            sizes.append(np.asarray(args[3]).size)
            return coef_vec(*args, **kwargs)

        monkeypatch.setattr(norms, "coef_vec", counted)
        ts, _, _ = _scan_grid(kappa, ScanConfig())
        _grid_top(r, r.basis_index(kappa), r.m_ref, ts, 8)
        return ts.size, sizes

    def test_non_unitary_member_scans_the_whole_grid(self, monkeypatch):
        size, sizes = self._grid_calls(monkeypatch,
                                       Principal(0.0, -0.3 + 1.0j), 64)
        assert sizes == [size]

    def test_unitary_member_evaluates_a_fraction(self, monkeypatch):
        size, sizes = self._grid_calls(monkeypatch, Complementary(-0.25), 64)
        assert len(sizes) > 1 and sum(sizes) < 0.2 * size

    @pytest.mark.parametrize("r", [Principal(0.0, -0.5 + 1.0j),
                                   Complementary(-0.25), Discrete(2)],
                             ids=lambda r: repr(r).replace(" ", ""))
    @pytest.mark.parametrize("kappa", [1024, 2048])
    def test_large_characters_evaluate_under_one_percent(self, monkeypatch,
                                                         r, kappa):
        # the curvature bound prunes the first level, spacing ~0.1, where
        # L h/2 alone exceeds the peak: 237 to 342 of 132k-279k points
        size, sizes = self._grid_calls(monkeypatch, r, kappa)
        assert sum(sizes) < 0.01 * size


class TestPminScan:
    CFG = ScanConfig(grid_c=0.2, refine_iters=40)

    def test_explicit_ladder_sorted(self):
        samples = pmin_scan(Discrete(2), [64, 16, 32], config=self.CFG)
        assert [s.n for s in samples] == [16, 32, 64]

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
