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
    """golden_min keeps the name of the golden section it replaced; it
    finds each minimum as the root of the slope that f returns with its
    values."""

    @staticmethod
    def _cosine(xs):
        # minima where sin 3x = 1/30 and cos 3x < 0
        return np.cos(3.0 * xs) + 0.1 * xs, -3.0 * np.sin(3.0 * xs) + 0.1

    def test_quadratic(self):
        t, val, width = golden_min(
            lambda s: ((s - 1.3) ** 2, 2.0 * (s - 1.3)), 0.0, 4.0)
        assert t == pytest.approx(1.3, abs=1e-14)
        assert val == pytest.approx(0.0, abs=1e-28)
        assert width <= 2.0 * norms._ROOT_TOL * (1.0 + t)

    def test_root_to_its_tolerance_in_few_steps(self):
        want = (math.pi - math.asin(1.0 / 30.0)) / 3.0
        calls = []

        def f(xs):
            calls.append(xs.size)
            return self._cosine(xs)

        x, _, width = golden_min(f, 0.7, 1.3)
        assert abs(x - want) <= width <= 2.0 * norms._ROOT_TOL * (1.0 + x)
        assert len(calls) <= 9

    @pytest.mark.parametrize("f,lo,hi,end", [
        (lambda s: ((s - 3.0) ** 2, 2.0 * (s - 3.0)), 0.0, 1.0, 1.0),
        (lambda s: ((s + 1.0) ** 2, 2.0 * (s + 1.0)), 0.0, 1.0, 0.0),
        # a maximum inside: the slope changes sign the other way; a tie
        # keeps the lower end
        (lambda s: (-(s - 0.5) ** 2, -2.0 * (s - 0.5)), 0.0, 1.0, 0.0)])
    def test_no_sign_change_returns_the_better_end(self, f, lo, hi, end):
        calls = []

        def counted(xs):
            calls.append(xs.size)
            return f(xs)

        x, val, width = golden_min(counted, lo, hi)
        assert (x, val, width) == (end, f(np.array(end))[0], hi - lo)
        assert calls == [2]

    def test_steps_capped_by_iters(self):
        calls = []

        def f(xs):
            calls.append(xs.size)
            return self._cosine(xs)

        x, _, width = golden_min(f, 0.7, 1.3, iters=2)
        assert calls == [2, 1, 1]
        assert 0.7 < x < 1.3 and width > 1e-6

    def test_exact_root_has_zero_width(self):
        # the first secant step from slopes -1 and 1 lands on 0.5
        x, val, width = golden_min(
            lambda s: ((s - 0.5) ** 2, 2.0 * (s - 0.5)), 0.0, 1.0)
        assert (x, val, width) == (0.5, 0.0, 0.0)


class TestLockstepGolden:
    """golden_min searches all its brackets at once, one call of f per
    step over the brackets still live; each bracket must end on the bits
    of the search of that bracket alone, one point per call of f."""

    @staticmethod
    def _check(f, lo, hi, iters):
        sizes = []

        def batched(xs):
            sizes.append(xs.size)
            return f(xs)

        def one_point(xs):
            calls.append(xs.size)
            parts = [f(xs[i:i + 1]) for i in range(xs.size)]
            return (np.concatenate([p[0] for p in parts]),
                    np.concatenate([p[1] for p in parts]))

        got = golden_min(batched, lo, hi, iters=iters)
        want, steps = [], []
        for a, b in zip(lo, hi):
            calls = []
            want.append(golden_min(one_point, a, b, iters=iters))
            steps.append(len(calls) - 1)
        for k in range(3):
            assert [w[k] for w in want] == got[k].tolist()
        # one call for both ends of every bracket, then one per step, over
        # the brackets whose own search has not stopped yet
        assert sizes == [2 * len(lo)] + [
            sum(k > j for k in steps) for j in range(max(steps))]
        return steps

    def test_brackets_of_different_widths_stop_on_their_own(self):
        # brackets around ten minima of cos 3x + x/10, from 1e-12 to 0.3
        # wide, and ten that hold no minimum
        rng = np.random.default_rng(7)
        roots = (math.pi - math.asin(1.0 / 30.0)
                 + 2.0 * math.pi * np.arange(-5, 5)) / 3.0
        widths = 10.0 ** rng.uniform(-12.0, -0.5, 10)
        lo = np.concatenate([roots - widths * rng.uniform(0.05, 1.0, 10),
                             roots + 0.4])
        hi = np.concatenate([roots + widths * rng.uniform(0.05, 1.0, 10),
                             roots + 0.6])
        steps = self._check(TestGoldenMin._cosine, lo, hi, 60)
        assert steps[10:] == [0] * 10
        assert len(set(steps[:10])) > 2 and max(steps) < 60

    def test_steps_cut_short_by_iters(self):
        roots = (math.pi - math.asin(1.0 / 30.0)
                 + 2.0 * math.pi * np.arange(6)) / 3.0
        widths = np.array([2e-14, 1e-13, 5e-13, 1e-6, 0.1, 0.6])
        steps = self._check(TestGoldenMin._cosine, roots - 0.3 * widths,
                            roots + 0.7 * widths, 3)
        assert min(steps) < 3 == max(steps)

    def test_scalar_bracket_gives_scalars(self):
        out = golden_min(lambda s: ((s - 0.25) ** 2, 2.0 * (s - 0.25)),
                         0.0, 1.0, iters=30)
        assert all(np.ndim(v) == 0 for v in out)
        both = golden_min(lambda s: ((s - 0.25) ** 2, 2.0 * (s - 0.25)),
                          np.array([0.0, 0.0]), np.array([1.0, 1.0]),
                          iters=30)
        assert [v.tolist() for v in both] == [[v, v] for v in out]


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

    def test_non_integral_character_is_refused(self):
        # int(kappa) cut 16.5 to 16 and scanned that character under the
        # label 16
        for r, kappa in ((Discrete(2), 16.5), (Principal(0.0, -0.5 + 1.0j),
                                               16.7)):
            with pytest.raises(PreconditionError, match="must be an integer"):
                scan_character(r, kappa, self.CFG)
            with pytest.raises(PreconditionError, match="must be an integer"):
                r.basis_index(kappa)

    def test_integral_float_character_scans(self):
        r = Discrete(2)
        assert scan_character(r, 16.0, self.CFG) == \
            scan_character(r, 16, self.CFG)

    def test_empty_window_is_a_scan_error(self):
        # T = t_pad + log(1+k) below the first grid point: the scan indexed
        # an empty grid and raised IndexError
        with pytest.raises(ScanError, match="holds no grid point .*"
                                            "enlarge t_pad"):
            scan_character(Principal(0.0, -0.5 + 1.0j), 16,
                           ScanConfig(t_pad=-3.0))

    def test_peak_is_a_true_local_max(self):
        from repnorm.reps import coef
        s = scan_character(Complementary(-0.25), 32, self.CFG)
        for x_probe in (0.9 * s.x_argmax, min(0.999, 1.1 * s.x_argmax)):
            mag = abs(coef(Complementary(-0.25), 16, 0, x_probe).value)
            assert mag <= s.pmin * (1.0 + 1e-9)


class TestLockstepScan:
    """scan_character refines its brackets together; the result must be
    the one of refining them one after another."""

    # numpy's abs of a complex value rounds unlike Python's on about a
    # third of the values, and np.tanh unlike math.tanh on some: either
    # in the lockstep objective would move the last bit of some peaks
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
        root = norms.golden_min

        def sequential(f, lo, hi, iters=60):
            # each bracket alone, one coef_vec call per point
            def one_point(ts):
                parts = [f(ts[i:i + 1]) for i in range(ts.size)]
                return (np.concatenate([p[0] for p in parts]),
                        np.concatenate([p[1] for p in parts]))

            out = [root(one_point, a, b, iters) for a, b in zip(lo, hi)]
            return tuple(np.array([o[k] for o in out]) for k in range(3))

        monkeypatch.setattr(norms, "golden_min", sequential)
        assert repr(scan_character(r, kappa, cfg)) == repr(lockstep)

    @pytest.mark.parametrize("refine_top", [1, 2, 8])
    def test_one_coef_vec_call_per_step(self, refine_top, monkeypatch):
        sizes, searches = [], []
        root = norms.golden_min

        def marked(f, lo, hi, iters=60):
            searches.append((f, lo, hi, iters))
            return root(f, lo, hi, iters)

        def counted(*args, **kwargs):
            if kwargs.get("slope"):
                sizes.append(np.asarray(args[3]).size)
            return coef_vec(*args, **kwargs)

        monkeypatch.setattr(norms, "golden_min", marked)
        monkeypatch.setattr(norms, "coef_vec", counted)
        cfg = ScanConfig(grid_c=0.4, refine_top=refine_top, refine_iters=12)
        scan_character(Principal(0.0, -0.5 + 1.0j), 64, cfg)
        (f, lo, hi, iters), = searches
        # the top points sit around one peak: one bracket
        assert len(lo) == 1
        steps = []
        for a, b in zip(lo, hi):
            before = len(sizes)
            root(f, a, b, iters)
            steps.append(len(sizes) - before - 1)
            del sizes[before:]
        assert sizes == [2 * len(lo)] + [
            sum(k > j for k in steps) for j in range(max(steps))]
        assert 0 < max(steps) <= 8

    def test_one_bracket_per_local_maximum(self, monkeypatch):
        # a fake family along t with two humps, of heights 0.5 at t = 1 and
        # 0.49 at t = 2: the top 8 grid points hold both, so there are two
        # brackets, each searched to its own hump's peak, and the higher
        # one is the sample
        fake = types.SimpleNamespace(lipschitz=math.inf, curvature=1e3,
                                     m_ref=0, basis_index=lambda k: k)

        def humps(t):
            one = 0.5 * np.exp(-(t - 1.0) ** 2 / 0.01)
            two = 0.49 * np.exp(-(t - 2.0) ** 2 / 0.01)
            return one + two, -200.0 * ((t - 1.0) * one + (t - 2.0) * two)

        def fake_coef_vec(r, n, m, xs, omx=None, slope=False):
            t = np.arctanh(np.sqrt(xs))
            mag, dmag = humps(t)
            if not slope:
                return mag.astype(complex), np.zeros(xs.size)
            # d log|c|/dx = (d|c|/dt / |c|) dt/dx
            dtdx = 0.5 / (np.sqrt(xs) * (1.0 - xs))
            return mag.astype(complex), dmag / mag * dtdx, np.zeros(xs.size)

        searches = []
        root = norms.golden_min

        def marked(f, lo, hi, iters=60):
            out = root(f, lo, hi, iters)
            searches.append(out)
            return out

        monkeypatch.setattr(norms, "coef_vec", fake_coef_vec)
        monkeypatch.setattr(norms, "golden_min", marked)
        s = scan_character(fake, 16, ScanConfig(grid_c=0.4, refine_top=8))
        (t_stars, negs, _), = searches
        assert sorted(t_stars.tolist()) == pytest.approx([1.0, 2.0],
                                                         abs=1e-12)
        assert s.pmin == pytest.approx(0.5, rel=1e-15)
        assert s.x_argmax == pytest.approx(math.tanh(1.0) ** 2, rel=1e-12)

    def test_err_est_off_the_unitary_line_is_infinite(self):
        # no curvature bound holds there
        s = scan_character(Principal(0.0, -0.3 + 1.0j), 32,
                           ScanConfig(grid_c=0.4))
        assert s.err_est == math.inf


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


def _with_errs(mags):
    """A fake coef_vec of these magnitudes, as (values, errs)."""
    def fake(*args, **kwargs):
        values = mags(*args, **kwargs)
        return values, np.zeros(values.shape)
    return fake


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
            mags = np.abs(coef_vec(r, n, r.m_ref, np.tanh(ts) ** 2)[0])
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

            monkeypatch.setattr(norms, "coef_vec", _with_errs(mags))
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

            monkeypatch.setattr(norms, "coef_vec", _with_errs(mags))
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


def _scan_grid_reference(kappa, config):
    """_scan_grid as it was: the seeds joined to the uniform points by
    np.unique over the whole grid; frozen here for the bit guard."""
    kappa = abs(kappa)
    dt = config.grid_c / (kappa + 1.0)
    t_max = config.t_pad + math.log1p(kappa)
    ts = np.arange(dt, t_max + 0.5 * dt, dt)
    seeds = []
    for u in norms._SEED_SCALES:
        x_seed = 1.0 - 1.0 / (1.0 + kappa / u)
        if 0.0 < x_seed < 1.0:
            t_seed = math.atanh(math.sqrt(x_seed))
            if t_seed < t_max:
                seeds.append(t_seed)
    return np.unique(np.concatenate([ts, np.array(seeds)])), dt, t_max


def _grid_top_reference(r, n, m, ts, k):
    """_grid_top as it was, with x = tanh(t)^2 taken over the whole grid
    before the levels index it; frozen here for the bit guard."""
    size, lip, curv = ts.size, r.lipschitz, r.curvature
    xs = np.tanh(ts) ** 2
    levels = (max(0, (size // norms._LEVEL_POINTS).bit_length() - 1)
              if math.isfinite(lip) else 0)
    mags = np.empty(size)
    grid = np.arange(size)
    new = np.unique(np.concatenate([grid[::1 << levels], grid[-1:]]))
    lo, hi = new[:-1], new[1:]
    done = grid[:0]
    while new.size:
        mags[new] = np.abs(norms.coef_vec(r, n, m, xs[new])[0])
        done = np.concatenate([done, new])
        j = max(done.size - k, 0)
        tau = np.partition(mags[done], j)[j]
        h = ts[hi] - ts[lo]
        bound = np.maximum(mags[lo], mags[hi]) + np.minimum(
            0.5 * lip * h, 0.125 * curv * h * h)
        live = (hi - lo > 1) & (bound >= tau * (1.0 - norms._PRUNE_SLACK))
        lo, hi = lo[live], hi[live]
        new = (lo + hi) // 2
        lo, hi = np.concatenate([lo, new]), np.concatenate([new, hi])
    return done[np.argsort(mags[done])[::-1][:k]]


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


# the default ladder and random characters up to 3000, on three grids
RANDOM_KAPPAS = np.random.default_rng(7).integers(1, 3000, 24).tolist()
GRID_CONFIGS = [ScanConfig(), ScanConfig(grid_c=0.4, refine_top=2),
                ScanConfig(grid_c=0.25, t_pad=2.5)]


class TestScanGridBits:
    """The seeds join the ascending uniform grid by searchsorted, and each
    level takes tanh(t)^2 of its own points only: the grid and every
    level's points keep the bits of the construction over the whole grid
    (np.unique of grid and seeds, then tanh(t)^2 of all of it)."""

    @pytest.mark.parametrize("config", GRID_CONFIGS, ids=repr)
    def test_grid_is_the_unique_of_grid_and_seeds(self, config):
        kappas = sorted(set(default_ladder(Principal(0.0, -0.5 + 1.0j))
                            + default_ladder(Principal(0.5, -0.5 + 0.4j))
                            + RANDOM_KAPPAS + [0, 1, 2]))
        for kappa in kappas:
            got, want = _scan_grid(kappa, config), \
                _scan_grid_reference(kappa, config)
            assert _same_bits(got[0], want[0]), kappa
            assert got[1:] == want[1:]

    def test_a_seed_on_a_grid_point_is_kept_once(self):
        # at kappa = 1, dt = grid_c / 2 exactly, so grid_c = 2 t_seed puts
        # the seed of u = 1 on the first grid point
        t_seed = math.atanh(math.sqrt(0.5))
        config = ScanConfig(grid_c=2.0 * t_seed)
        ts, dt, _ = _scan_grid(1, config)
        assert dt == t_seed and np.count_nonzero(ts == t_seed) == 1
        assert np.all(np.diff(ts) > 0.0)
        assert _same_bits(ts, _scan_grid_reference(1, config)[0])

    @pytest.mark.parametrize("r", [Principal(0.0, -0.5 + 1.0j),
                                   Complementary(-0.25), Discrete(2),
                                   Principal(0.0, -0.3 + 1.0j)],
                             ids=lambda r: repr(r).replace(" ", ""))
    def test_levels_evaluate_the_same_points(self, r, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(np.array(args[3]))
            return coef_vec(*args, **kwargs)

        monkeypatch.setattr(norms, "coef_vec", spy)
        kappas = [k for k in default_ladder(r) if k <= 2048]
        if r.unitary:
            kappas += [k for k in RANDOM_KAPPAS if k in r.spectrum(k)][:8]
        else:
            kappas = kappas[:2]
        for kappa in kappas:
            n = r.basis_index(kappa)
            for config in GRID_CONFIGS[:2]:
                ts, _, _ = _scan_grid(kappa, config)
                calls.clear()
                got = _grid_top(r, n, r.m_ref, ts, 8)
                levels = list(calls)
                calls.clear()
                want = _grid_top_reference(r, n, r.m_ref, ts, 8)
                assert list(got) == list(want), kappa
                assert len(levels) == len(calls), kappa
                for g, w in zip(levels, calls):
                    assert _same_bits(g, w), kappa


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
