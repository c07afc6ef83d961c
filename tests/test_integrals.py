"""Weighted boundary integrals: the two independent routes, the tail
closure, and the asymptotic utility lemmas."""

import cmath
import math
import warnings

import numpy as np
import pytest

from repnorm import integrals
from repnorm.errors import ConvergenceError, DomainError, PreconditionError
from repnorm.integrals import (_MAX_EVALS, _WG, _WK, _XK, BetaMeasure,
                               IntegralValue, _beta_moment_tail, _panel_sums,
                               faulhaber_sum, hyp2f1_euler_oracle,
                               integral_quadrature, integral_series, j_series,
                               kronrod_quad_vec, reducible_point_integral,
                               stirling_ratio_check)
from repnorm.reps import (Complementary, Discrete, Principal, _principal_params,
                          coef, coef_oracle, coef_vec,
                          complementary_normalizer)
from repnorm.specfun import hyp2f1

# [DERIVED] mpmath: 3F2(a, b, s0+1; c, s0+1+le; 1) minus the first 1025
# normalized terms, 40 digits.
TAIL_REF = 0.01892053033208784343
TAIL_ARGS = (0.5, 4.5, 5.0, 2, 0.75, 1024)

# [DERIVED] mpmath, 40 digits: the same tail on the Principal(0, TAIL_LAM)
# reference column at index n and measure exponent eps, where
# (a, b, c) = (1/2 - i, 1/2 - i + n, n + 1), s0 = n/2, lam_eps = eps + 1/2 - i
# and k_cut = max(1024, 2n).  (n, eps, re, im); regenerate with
#     PYTHONPATH=src python tests/test_integrals.py
TAIL_LAM = -0.5 + 1.0j
TAILS = [
    (64, 0.25, "-0.2980354134439981434081637", "-0.8545649288704554720055361"),
    (64, 0.4, "-0.124179191766088983984921", "-0.4850406183906309280758623"),
    (1024, 0.25, "-13.49198173560125401811776", "-5.778552804531952590183089"),
    (1024, 0.4, "-9.445519724330625412801336", "-5.091083939183728064654766"),
    (4096, 0.25, "-16.3530989196338772322206", "24.36904594983027723557176"),
    (4096, 0.4, "-13.50308644750244841932381", "16.66665121489812273388034"),
]

# [DERIVED] mpmath, 40 digits: eps * normalizer * pref * B(s0+1, eps-lam)
# * 3F2(a, b, s0+1; c, s0+1+eps-lam; 1) with (a, b, c, pref) of
# coef(n, 0), the termwise form of the weighted integral, and on the disc
# eps (-1)^p |J| B(p/2 + 1, ell/2 + eps) at n = ell/2 + p, |J| of
# coef(n, ell/2); (family, n, eps, re, im), regenerated by the same script.
SERIES_REPS = {"principal-real": Principal(0.0, -0.5),
               "principal-complex": Principal(0.0, -0.5 + 1.0j),
               "complementary": Complementary(-0.25),
               "principal-half-complex": Principal(0.5, -0.5 + 0.7j),
               "discrete-2": Discrete(2),
               "discrete-3": Discrete(3)}
SERIES_TRUTH = [
    ("principal-real", 0, 0.25, "0.4569465810444636253749666", "0.0"),
    ("principal-real", 0, 0.4, "0.5802406056937353173234022", "0.0"),
    ("principal-real", -1, 0.25, "-0.2147580945832174676062277", "0.0"),
    ("principal-real", -1, 0.4, "-0.2525838021260346057289357", "0.0"),
    ("principal-real", 4, 0.25, "0.09908687426729775111548287", "0.0"),
    ("principal-real", 4, 0.4, "0.1038735955901671339938129", "0.0"),
    ("principal-real", -12, 0.25, "0.04699064755886621963830741", "0.0"),
    ("principal-real", -12, 0.4, "0.04313349083942642912060216", "0.0"),
    ("principal-real", 256, 0.25, "0.00493011234294896627646672", "0.0"),
    ("principal-real", 256, 0.4, "0.002911363326275922888765679", "0.0"),
    ("principal-real", 4096, 0.25, "0.000617455560336706993141911", "0.0"),
    ("principal-real", 4096, 0.4, "0.0002407736871121806861243277", "0.0"),
    ("principal-complex", 0, 0.25, "0.08106915341692297989741954", "-3.068319828504171761274666e-45"),
    ("principal-complex", 0, 0.4, "0.1362386087787021241017344", "7.129335226309852246222592e-43"),
    ("principal-complex", -1, 0.25, "-0.0517298994693965878364462", "0.1034597989387931756728924"),
    ("principal-complex", -1, 0.4, "-0.07733186376709007450991001", "0.15466372753418014901982"),
    ("principal-complex", 4, 0.25, "-0.05628654760411289416524422", "-0.05653895364718066499109733"),
    ("principal-complex", 4, 0.4, "-0.07455307261388035593905571", "-0.07488739132515336201949991"),
    ("principal-complex", -12, 0.25, "-0.04038298107810822956107674", "0.01248146677421390702788742"),
    ("principal-complex", -12, 0.4, "-0.04682903073860936416827414", "0.0144737950400955296243229"),
    ("principal-complex", 256, 0.25, "0.00456878288661555332422977", "-0.001007301014689342833546528"),
    ("principal-complex", 256, 0.4, "0.003409634517870371007901846", "-0.0007517381313155045930193079"),
    ("principal-complex", 4096, 0.25, "-0.0005806151821157496704265805", "-0.000088941928893915413989431"),
    ("principal-complex", 4096, 0.4, "-0.0002861343300729337428097767", "-0.00004383168064382700422864009"),
    ("complementary", 0, 0.25, "0.5393526011883793566679357", "0.0"),
    ("complementary", 0, 0.4, "0.6565089684806649634299442", "0.0"),
    ("complementary", -1, 0.25, "-0.215536992686989442408878", "0.0"),
    ("complementary", -1, 0.4, "-0.2436029043500185377064478", "0.0"),
    ("complementary", 4, 0.25, "0.09647687531387227999073118", "0.0"),
    ("complementary", 4, 0.4, "0.09727376804776660047598882", "0.0"),
    ("complementary", -12, 0.25, "0.04538323030768789387567117", "0.0"),
    ("complementary", -12, 0.4, "0.0400755226932641237975572", "0.0"),
    ("complementary", 256, 0.25, "0.00474226910913282792706149", "0.0"),
    ("complementary", 256, 0.4, "0.002694321381842619874720088", "0.0"),
    ("complementary", 4096, 0.25, "0.000593817712909726791153815", "0.0"),
    ("complementary", 4096, 0.4, "0.0002227829564348684737492303", "0.0"),
    ("principal-half-complex", 0, 0.25, "0.1243237248869518106302839", "-4.128439139336293146315981e-43"),
    ("principal-half-complex", 0, 0.4, "0.1998734207361125884444217", "-1.551655147996711702854161e-42"),
    ("principal-half-complex", -1, 0.25, "5.090546305786982801022408e-41", "0.1535228185509330092419649"),
    ("principal-half-complex", -1, 0.4, "-4.183772000263845163527368e-44", "0.2097080709976949999824241"),
    ("principal-half-complex", 4, 0.25, "0.02058378813522264684752455", "-0.09165317716660960139520017"),
    ("principal-half-complex", 4, 0.4, "0.0274924724478747492166439", "-0.1224153897941362647564219"),
    ("principal-half-complex", -12, 0.25, "-0.03046333473664509702911642", "0.01405691141191160151671228"),
    ("principal-half-complex", -12, 0.4, "-0.03086962052312524437533385", "0.01424438672798723168555993"),
    ("principal-half-complex", 256, 0.25, "-0.003089367431195052557413034", "0.005194148552734024745243355"),
    ("principal-half-complex", 256, 0.4, "-0.002368207724597980933866633", "0.003981663884032027525494683"),
    ("principal-half-complex", 4096, 0.25, "0.000749751094050373549228986", "0.0001270311568402690305815557"),
    ("principal-half-complex", 4096, 0.4, "0.0003796934845900427985794053", "0.00006433188690878438856326889"),
    ("discrete-2", 1.0, 0.25, "0.2", "0.0"),
    ("discrete-2", 1.0, 0.4, "0.2857142857142857256145207", "0.0"),
    ("discrete-2", 16.0, 0.25, "-0.06134696868879192883489921", "0.0"),
    ("discrete-2", 16.0, 0.4, "-0.06873326901421331118120678", "0.0"),
    ("discrete-2", 256.0, 0.25, "-0.008369993281269700002346163", "0.0"),
    ("discrete-2", 256.0, 0.4, "-0.006321559762770677969598065", "0.0"),
    ("discrete-2", 1024.0, 0.25, "-0.002972770558868877276138231", "0.0"),
    ("discrete-2", 1024.0, 0.4, "-0.001825804146982721634893763", "0.0"),
    ("discrete-2", 4096.0, 0.25, "-0.001052235583097591440444277", "0.0"),
    ("discrete-2", 4096.0, 0.4, "-0.000525077039709861460920693", "0.0"),
    ("discrete-3", 1.5, 0.25, "0.1428571428571428571428571", "0.0"),
    ("discrete-3", 1.5, 0.4, "0.2105263157894736934367564", "0.0"),
    ("discrete-3", 16.5, 0.25, "-0.058828758503512032864405", "0.0"),
    ("discrete-3", 16.5, 0.4, "-0.06991278940940092070005458", "0.0"),
    ("discrete-3", 256.5, 0.25, "-0.008454060657153601442925101", "0.0"),
    ("discrete-3", 256.5, 0.4, "-0.006821905833158798082344982", "0.0"),
    ("discrete-3", 1024.5, 0.25, "-0.003011355660911943718808118", "0.0"),
    ("discrete-3", 1024.5, 0.4, "-0.001976896919897911311729063", "0.0"),
    ("discrete-3", 4096.5, 0.25, "-0.001066672209738090899496545", "0.0"),
    ("discrete-3", 4096.5, 0.4, "-0.000569007158123767466935716", "0.0"),
]

# [DERIVED] mpmath.beta: eps * (-1)^n * B(n/2 + 1, 1/2 + eps) at n=5,
# eps=0.25.
REDUCIBLE_REF = -0.12288617792159920076


def _tail_args(n, eps):
    a = -TAIL_LAM
    return a, a + n, n + 1.0, n / 2.0, eps - TAIL_LAM, max(1024, 2 * n)


def _probe(f):
    """A probe integrand: f's values, with no rounding."""
    return lambda u: (f(u), np.zeros(u.shape))


class TestBetaMeasure:
    def test_eps_range(self):
        with pytest.raises(PreconditionError):
            BetaMeasure(0.0)
        with pytest.raises(PreconditionError):
            BetaMeasure(1.0)

    def test_density_normalized(self):
        # in u = (1-x)^eps the measure is exactly du on [0, 1]
        val, err = kronrod_quad_vec(_probe(np.ones_like), 0.0, 1.0)
        assert val == pytest.approx(1.0, abs=1e-13)


class TestKronrodQuadVec:
    def test_polynomial_exact(self):
        val, err = kronrod_quad_vec(_probe(lambda u: u ** 7), 0.0, 1.0)
        assert val == pytest.approx(0.125, abs=1e-14)
        assert err < 1e-12

    def test_oscillatory(self):
        val, err = kronrod_quad_vec(_probe(lambda u: np.cos(40.0 * u)),
                                    0.0, 1.0)
        assert val == pytest.approx(math.sin(40.0) / 40.0, abs=1e-12)

    def test_error_estimate_honest_on_algebraic_endpoint(self):
        val, err = kronrod_quad_vec(_probe(np.sqrt), 0.0, 1.0, tol_abs=1e-10)
        assert abs(val - 2.0 / 3.0) <= 10.0 * err


def _kronrod_reference(f, lo, hi, tol_abs=1e-12):
    """kronrod_quad_vec's rounds without its end chains or its store: one
    call of f per round and nothing evaluated ahead, each panel summed from
    its own row and the settled panels added in order; frozen here for the
    bit guard.  Returns (value, err_est)."""
    span = float(hi) - float(lo)
    edges = np.linspace(float(lo), float(hi), 9)
    pend_a, pend_b = edges[:-1].copy(), edges[1:].copy()
    total, err, evals = 0.0 + 0.0j, 0.0, 0
    while pend_a.size:
        mid = 0.5 * (pend_a + pend_b)
        half = 0.5 * (pend_b - pend_a)
        nodes = mid[:, None] + half[:, None] * _XK[None, :]
        values, errs = f(nodes.ravel())
        y = np.asarray(values, dtype=complex).reshape(nodes.shape)
        e = np.asarray(errs, dtype=float).reshape(nodes.shape)
        evals += nodes.size
        y_wk = (y * _WK).sum(axis=1)
        k15 = y_wk * half
        g7 = (y * _WG).sum(axis=1) * half
        diff = np.abs(k15 - g7)
        reskh = y_wk[:, None] * 0.5
        resasc = (np.abs(y - reskh) * _WK).sum(axis=1) * half
        with np.errstate(divide="ignore", invalid="ignore"):
            scaled = resasc * np.minimum(
                1.0, (200.0 * diff / np.where(resasc > 0.0, resasc, 1.0))
                ** 1.5)
        panel_err = np.where(resasc > 0.0, scaled, diff)
        rounding = (e * _WK).sum(axis=1) * half
        budget = np.maximum(tol_abs * (pend_b - pend_a) / span, rounding)
        done = (panel_err <= budget) | (pend_b - pend_a <= 1e-14 * span)
        for k, p, r in zip(k15[done].tolist(), panel_err[done].tolist(),
                           rounding[done].tolist()):
            total += k
            err += p + r
        pend_a, pend_b = (np.concatenate([pend_a[~done], mid[~done]]),
                          np.concatenate([mid[~done], pend_b[~done]]))
        if evals > _MAX_EVALS:
            raise ConvergenceError(
                f"quadrature not settled after {evals} evaluations"
                f" ({pend_a.size} panels open)")
    return total, err


def _bits(value, err):
    value = complex(value)
    return value.real.hex(), value.imag.hex(), float(err).hex()


def _kronrod_bits(f, lo, hi, tol_abs=1e-12):
    return _bits(*kronrod_quad_vec(f, lo, hi, tol_abs))


def _reference_bits(f, lo, hi, tol_abs=1e-12):
    return _bits(*_kronrod_reference(f, lo, hi, tol_abs))


class TestKronrodChains:
    """The end chains change when the integrand runs, not what the rounds
    compute: value and err keep the bits of the round-by-round pass, and a
    ConvergenceError its count of the rounds' abscissae."""

    # (integrand, lo, hi, tol_abs): cusps at lo on [0, 1] and at hi on
    # [-1, 0], where -u is exact, and at both ends of [0, 1], where the
    # chains at lo and at hi go into one call
    CASES = {
        "polynomial": (_probe(lambda u: u ** 7), 0.0, 1.0, 1e-12),
        "cos40": (_probe(lambda u: np.cos(40.0 * u)), 0.0, 1.0, 1e-12),
        "sqrt-lo": (_probe(np.sqrt), 0.0, 1.0, 1e-10),
        "sqrt-hi": (_probe(lambda u: np.sqrt(-u)), -1.0, 0.0, 1e-10),
        "power-lo": (_probe(lambda u: u ** (-0.3 + 2j)), 0.0, 1.0, 1e-9),
        "power-hi": (_probe(lambda u: (-u) ** (-0.3 + 2j)), -1.0, 0.0, 1e-9),
        "sqrt-both": (_probe(lambda u: np.sqrt(u * (1.0 - u))), 0.0, 1.0,
                      1e-10),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_probe_integrands(self, name):
        case = self.CASES[name]
        assert _kronrod_bits(*case) == _reference_bits(*case)

    @staticmethod
    def _against_reference(monkeypatch):
        """Route every kronrod_quad_vec call of the integrals module through
        both drivers; returns the list of (chained, reference) bits."""
        chained = integrals.kronrod_quad_vec
        pairs = []

        def both(f, lo, hi, tol_abs=1e-12):
            want = _kronrod_reference(f, lo, hi, tol_abs)
            got = chained(f, lo, hi, tol_abs)
            pairs.append((_bits(*got), _bits(*want)))
            return got

        monkeypatch.setattr(integrals, "kronrod_quad_vec", both)
        return pairs

    REPS = {"principal-complex": Principal(0.0, -0.5 + 1.0j),
            "principal-real": Principal(0.0, -0.5),
            "complementary": Complementary(-0.25),
            "discrete-2": Discrete(2),
            "reducible": Principal(0.5, -0.5)}

    @pytest.mark.parametrize("name", list(REPS))
    def test_quadrature_integrands(self, monkeypatch, name):
        r = self.REPS[name]
        pairs = self._against_reference(monkeypatch)
        for eps in (0.05, 0.25, 0.4, 0.95):
            for n in (0, 4, 256):
                integral_quadrature(r, n + r.m_ref, eps)
        assert len(pairs) == 12
        for got, want in pairs:
            assert got == want

    # [DERIVED] at 572a2f8, the driver before _panel_sums: (integrand calls,
    # abscissae) of each integral_quadrature call of
    # test_quadrature_integrands, eps outer and n inner; a change to the
    # chain rule shows here
    CALLS = {
        "principal-complex": [(2, 210), (2, 180), (3, 300), (4, 570),
                              (4, 570), (4, 570), (7, 1020), (6, 870),
                              (6, 870), (10, 1440), (10, 1440), (11, 1470)],
        "principal-real": [(1, 120), (1, 120), (3, 210), (3, 420), (3, 420),
                           (3, 420), (6, 870), (6, 870), (6, 870), (10, 1440),
                           (10, 1440), (10, 1440)],
        "complementary": [(1, 120), (1, 120), (3, 210), (1, 120), (1, 120),
                          (1, 120), (10, 1440), (10, 1440), (10, 1440),
                          (10, 1440), (10, 1440), (10, 1440)],
        "discrete-2": [(1, 120), (2, 270), (3, 270), (1, 120), (1, 120),
                       (1, 120), (2, 270), (2, 270), (3, 420), (6, 870),
                       (6, 870), (7, 930)],
        "reducible": [(1, 120), (2, 270), (3, 240), (1, 120), (1, 120),
                      (1, 120), (5, 720), (5, 720), (5, 720), (10, 1440),
                      (10, 1440), (11, 1470)],
    }

    @pytest.mark.parametrize("name", list(REPS))
    def test_quadrature_calls_and_abscissae(self, monkeypatch, name):
        r = self.REPS[name]
        driver = integrals.kronrod_quad_vec
        counts = []

        def counted(f, lo, hi, tol_abs=1e-12):
            count = [0, 0]

            def g(u):
                count[0] += 1
                count[1] += u.size
                return f(u)

            out = driver(g, lo, hi, tol_abs)
            counts.append(tuple(count))
            return out

        monkeypatch.setattr(integrals, "kronrod_quad_vec", counted)
        for eps in (0.05, 0.25, 0.4, 0.95):
            for n in (0, 4, 256):
                integral_quadrature(r, n + r.m_ref, eps)
        assert counts == self.CALLS[name]

    def test_panel_sums_row_alone(self):
        # each row's triple has its bits alone and in batches of 1 to 40
        # rows at every position: what lets the store keep numbers
        rng = np.random.default_rng(7)
        y = (rng.standard_normal((40, _XK.size))
             + 1j * rng.standard_normal((40, _XK.size)))
        y *= 10.0 ** rng.uniform(-8.0, 8.0, (40, 1))
        e = np.abs(y) * 10.0 ** rng.uniform(-16.0, -10.0, y.shape)
        half = rng.uniform(1e-6, 0.5, 40)
        alone = [next(_panel_sums(y[i:i + 1], e[i:i + 1], half[i:i + 1]))
                 for i in range(40)]
        for size in range(1, 41):
            for start in range(41 - size):
                rows = slice(start, start + size)
                got = list(_panel_sums(y[rows], e[rows], half[rows]))
                # repr is exact and tells -0.0 from 0.0
                assert repr(got) == repr(alone[rows])

    def test_beta_moment_tail_integrand(self, monkeypatch):
        pairs = self._against_reference(monkeypatch)
        for n, eps in ((64, 0.25), (4096, 0.4)):
            _beta_moment_tail(*_tail_args(n, eps))
        assert len(pairs) == 2
        for got, want in pairs:
            assert got == want

    def test_oracle_integrand(self, monkeypatch):
        pairs = self._against_reference(monkeypatch)
        hyp2f1_euler_oracle(0.3, 0.05, 0.2, 0.7)
        hyp2f1_euler_oracle(-1.5 + 0.3j, 0.1 + 0.2j, 0.3, -0.9)
        for got, want in pairs:
            assert got == want

    def test_convergence_error_as_reference(self):
        # below u = 1e-6 no panel settles: the chains that ran while the
        # pass bisected its way down must not move the evaluation count
        def f(u):
            calls.append(u.size)
            return (u * np.sqrt(u) + np.where(u < 1e-6, np.sin(1e15 * u), 0.0),
                    np.zeros(u.shape))

        messages = []
        for driver in (kronrod_quad_vec, _kronrod_reference):
            calls = []
            with pytest.raises(ConvergenceError) as info:
                driver(f, 0.0, 1.0)
            messages.append((str(info.value), len(calls)))
        (got, chained_calls), (want, reference_calls) = messages
        assert got == want
        assert chained_calls < reference_calls

    def test_oracle_rounding_term_over_the_rounds_only(self, monkeypatch):
        # a driver that also hands the integrand abscissae that no round
        # evaluates, as an end chain does, must leave the err bits alone
        want = hyp2f1_euler_oracle(0.3, 0.05, 0.2, 0.7)
        driver = integrals.kronrod_quad_vec

        def ahead(f, lo, hi, tol_abs=1e-12):
            f(np.linspace(lo, hi, 97)[1:-1])
            return driver(f, lo, hi, tol_abs)

        monkeypatch.setattr(integrals, "kronrod_quad_vec", ahead)
        got = hyp2f1_euler_oracle(0.3, 0.05, 0.2, 0.7)
        assert _bits(*got) == _bits(*want)

    @staticmethod
    def _cusp(u):
        # u^1.5: the round-by-round pass stops bisecting at lo well above
        # the width floor, so the chains reach abscissae it never does
        return u * np.sqrt(u), np.zeros(u.shape)

    def _sequential_floor(self):
        """The smallest abscissa the round-by-round pass hands to the cusp
        on [0, 1]."""
        reached = []

        def f(u):
            reached.append(u.min())
            return self._cusp(u)

        _kronrod_reference(f, 0.0, 1.0)
        return min(reached)

    def test_integrand_raising_only_ahead(self):
        floor = self._sequential_floor()
        raised = []

        def f(u):
            if u.min() < floor:
                raised.append(u.min())
                raise ValueError("below the floor")
            return self._cusp(u)

        assert (_kronrod_bits(f, 0.0, 1.0)
                == _reference_bits(self._cusp, 0.0, 1.0))
        assert raised     # a chain did reach past the round-by-round pass

    def test_integrand_warning_only_ahead(self):
        floor = self._sequential_floor()
        reached = []

        def f(u):
            reached.append(u.min())
            # log of a negative number: nan, with numpy's RuntimeWarning
            values, errs = self._cusp(u)
            return values + 0.0 * np.log(u - 0.75 * floor), errs

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = _kronrod_bits(f, 0.0, 1.0)
        assert not caught
        assert got == _reference_bits(self._cusp, 0.0, 1.0)
        assert min(reached) < 0.75 * floor


class TestEulerOracle:
    """The integral route must agree with the series route wherever both
    converge; it is the jury for every closed form downstream.  Its
    40-digit truth is tests/test_oracle_truth.py."""

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
        assert abs(val - ref) <= err + 1e-14 * abs(ref)

    @pytest.mark.parametrize("b,c", [(0.0, 1.0), (1.5, 1.5), (-0.5, 2.0),
                                     (1.0 + 2.0j, 0.5)])
    def test_outside_the_euler_strip_refused(self, b, c):
        with pytest.raises(PreconditionError):
            hyp2f1_euler_oracle(0.5, b, c, 0.3)

    @pytest.mark.parametrize("z", [1.0, 1.5])
    def test_at_or_past_the_branch_point_refused(self, z):
        with pytest.raises(DomainError):
            hyp2f1_euler_oracle(0.5, 1.0, 2.0, z)

    def test_large_prefactor_window(self):
        # Re b = 5, Re(c-b) = 55: the integral is 1e-8 in size, so the
        # window past which the mass is bounded has to reach further out
        # than it does at Re b of order 1
        val, err = hyp2f1_euler_oracle(2.0, 5.0, 60.0, 0.9)
        ref, ref_err = hyp2f1(2.0, 5.0, 60.0, 0.9)
        assert abs(val - ref) <= err + ref_err <= 1e-12 * abs(ref)


class TestBetaMomentTail:
    def test_frozen_reference(self):
        tail, err = _beta_moment_tail(*TAIL_ARGS)
        assert abs(tail - TAIL_REF) < 1e-12 * TAIL_REF
        assert abs(tail - TAIL_REF) <= err

    @pytest.mark.parametrize("n,eps,re,im", TAILS,
                             ids=[f"c{t[0] + 1}-eps{t[1]}" for t in TAILS])
    def test_against_40_digits(self, n, eps, re, im):
        # c up to 4097 and k_cut up to 8192: the far closure and the
        # normalization's log-Gamma values grow with c
        ref = complex(float(re), float(im))
        tail, err = _beta_moment_tail(*_tail_args(n, eps))
        assert abs(tail - ref) <= err <= 1e-10 * abs(ref)

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

    def test_against_40_digit_beta(self):
        # criterion 4's points: G(n/2 + 1)/G(n/2 + 3/2 + eps) as one shift
        # pair is within 1.9e-15; two log-Gamma values of size (n/2)
        # log(n/2) left 3.6e-14
        import mpmath

        with mpmath.workdps(40):
            for eps in (0.25, 0.5, 0.75):
                e = mpmath.mpf(eps)
                for n in range(129):
                    ref = e * (-1) ** n * mpmath.beta(
                        mpmath.mpf(n) / 2 + 1, mpmath.mpf(0.5) + e)
                    got = reducible_point_integral(n, eps)
                    assert abs(got - ref) <= 4e-15 * abs(ref), (n, eps)

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

    @pytest.mark.parametrize("n", [0, 5, 64, -64])
    def test_series_applies_the_normalizer_as_closed_form_does(self, n):
        # the complementary value is its normalizer times the principal
        # value of the same lam, and its err adds the normalizer's rounding
        base = integral_series(Principal(0.0, -0.25), n, 0.25)
        got = integral_series(Complementary(-0.25), n, 0.25)
        scale, rel = complementary_normalizer(-0.25, n)
        assert got.value == scale * base.value
        assert got.err_est >= scale * base.err_est + rel * abs(got.value)

    @pytest.mark.parametrize("r, n", [(Principal(0.0, -0.5), 4),
                                      (Complementary(-0.25), 4),
                                      (Discrete(2), 3.0)])
    def test_value_is_complex_and_err_est_a_float(self, r, n):
        for route in (integral_series, integral_quadrature):
            v = route(r, n, 0.25)
            assert type(v.value) is complex and type(v.err_est) is float

    def test_terminating_series_needs_no_tail(self):
        # a = 0 terminates the moment series; this must not touch the
        # Gamma-pole machinery
        val = integral_series(Principal(0.5, -0.5), 3, 0.5)
        assert abs(val.value.imag) < 1e-14
        assert val.err_est < 1e-10


class TestIndexRefusal:
    """An index off the family's spectrum is refused by every library
    route, as the CLI refuses it, not cut to the integer below: the series
    route returned the n = 2 value at 2.5 while the quadrature integrated
    the non-index 2.5, coef evaluated it and the oracle cut its m."""

    R = Principal(0.0, -0.5 + 1.0j)

    @pytest.mark.parametrize("call", [
        lambda r: integral_series(r, 2.5, 0.25),
        lambda r: integral_quadrature(r, 2.5, 0.25),
        lambda r: integral_series(Complementary(-0.25), -2.5, 0.25),
        lambda r: coef(r, 2.5, 0, 0.25),
        lambda r: coef(r, 2, 0.5, 0.25),
        lambda r: coef(Complementary(-0.25), 2.5, 0, 0.25),
        lambda r: coef_oracle(r, 0.5, 0.25, 8),
        lambda r: reducible_point_integral(2.5, 0.25),
    ], ids=["series", "quadrature", "series-complementary", "coef-n",
            "coef-m", "coef-complementary", "oracle-m", "reducible-point"])
    def test_non_integral_index_refused(self, call):
        with pytest.raises(PreconditionError, match="must be an integer"):
            call(self.R)

    # one rule for every route, from the family's as_index: the disc took
    # an index within 1e-9 of ell/2 + N0 as that point, and
    # complementary_normalizer cut 2.5 to 2 under a 2F1 at 2.5
    @pytest.mark.parametrize("r, n", [(Discrete(2), 1.0000000001),
                                      (Complementary(-0.25), 2.5)],
                             ids=["discrete", "complementary"])
    @pytest.mark.parametrize("call", [
        lambda r, n: coef(r, n, r.m_ref, 0.5),
        lambda r, n: coef_vec(r, n, r.m_ref, [0.5]),
        lambda r, n: r.closed_form(r.m_ref, n, np.array([0.5])),
        lambda r, n: coef_oracle(r, n, 0.5, 8),
        lambda r, n: integral_series(r, n, 0.25),
        lambda r, n: integral_quadrature(r, n, 0.25),
    ], ids=["coef", "coef_vec", "closed_form", "coef_oracle", "series",
            "quadrature"])
    def test_off_spectrum_index_refused_by_name(self, call, r, n):
        with pytest.raises(PreconditionError) as refused:
            call(r, n)
        assert repr(n) in str(refused.value)
        assert repr(r) in str(refused.value)

    def test_integral_float_index_keeps_its_bits(self):
        for route in (integral_series, integral_quadrature):
            assert route(self.R, 2.0, 0.25) == route(self.R, 2, 0.25)
        assert coef(self.R, 2.0, 0.0, 0.25) == coef(self.R, 2, 0, 0.25)
        assert reducible_point_integral(2.0, 0.25) == \
            reducible_point_integral(2, 0.25)


class TestSeriesTruth:
    """The series route against 40-digit 3F2 values: its err_est covers
    the error and stays below 1e-10 relative for |n| up to 4096; on the
    disc, against 40-digit Beta values, for p = n - ell/2 up to 4095 (a
    constant err of 1e-14 |value| was short from p = 255 on).

    The quadrature route's err_est covers the same values and stays below
    1e-9 relative: the Kronrod error with the coefficients' err integrated
    in it, of which the error uses at most 0.025."""

    @pytest.mark.parametrize("name,n,eps,re,im", SERIES_TRUTH,
                             ids=[f"{t[0]}-n{t[1]}-eps{t[2]}"
                                  for t in SERIES_TRUTH])
    def test_err_est_covers_truth(self, name, n, eps, re, im):
        ref = complex(float(re), float(im))
        s = integral_series(SERIES_REPS[name], n, eps)
        assert abs(s.value - ref) <= s.err_est <= 1e-10 * abs(ref)

    @pytest.mark.parametrize("name,n,eps,re,im", SERIES_TRUTH,
                             ids=[f"{t[0]}-n{t[1]}-eps{t[2]}"
                                  for t in SERIES_TRUTH])
    def test_quadrature_err_est_covers_truth(self, name, n, eps, re, im):
        ref = complex(float(re), float(im))
        q = integral_quadrature(SERIES_REPS[name], n, eps)
        assert abs(q.value - ref) <= q.err_est <= 1e-9 * abs(ref)


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


if __name__ == "__main__":
    import mpmath

    mpmath.mp.dps = 40

    def hyp_total(a, b, c, s0, le):
        a, b, c, le = (mpmath.mpmathify(complex(v)) for v in (a, b, c, le))
        s0 = mpmath.mpf(s0)
        return mpmath.hyp3f2(a, b, s0 + 1, c, s0 + 1 + le, 1), (a, b, c, s0, le)

    print("TAILS = [")
    for n in (64, 1024, 4096):
        for eps in (0.25, 0.4):
            *args, k_cut = _tail_args(n, eps)
            total, (a, b, c, s0, le) = hyp_total(*args)
            term = part = mpmath.mpf(1)
            for k in range(1, k_cut + 1):
                term *= ((a + k - 1) * (b + k - 1) * (s0 + k)
                         / ((c + k - 1) * k * (s0 + k + le)))
                part += term
            v = total - part
            print(f'    ({n}, {eps}, "{mpmath.nstr(v.real, 25)}",'
                  f' "{mpmath.nstr(v.imag, 25)}"),')
    print("]")
    print("SERIES_TRUTH = [")
    for name, r in SERIES_REPS.items():
        if isinstance(r, Discrete):
            ell = mpmath.mpf(r.ell)
            for p in (0, 15, 255, 1023, 4095):
                for eps in (0.25, 0.4):
                    em = mpmath.mpf(eps)
                    j = mpmath.sqrt(mpmath.gamma(p + ell) / (
                        mpmath.gamma(p + 1) * mpmath.gamma(ell)))
                    v = (em * (-1) ** p * j
                         * mpmath.beta(mpmath.mpf(p) / 2 + 1, ell / 2 + em))
                    print(f'    ("{name}", {r.ell / 2.0 + p}, {eps},'
                          f' "{mpmath.nstr(v, 25)}", "0.0"),')
            continue
        sigma, lam = r.circle
        for n in (0, -1, 4, -12, 256, 4096):
            for eps in (0.25, 0.4):
                a, b, c, *_ = _principal_params(sigma, lam, n, 0)
                em, le = mpmath.mpf(eps), mpmath.mpf(eps) - mpmath.mpc(lam)
                total, _ = hyp_total(a, b, c, abs(n) / 2.0, le)
                # the prefactor of coef(n, 0): G(lam - t + 1) / (G(|n| + 1)
                # G(lam - |n| - t + 1)), t = sigma for n >= 0, else -sigma
                t = mpmath.mpf(sigma) if n >= 0 else -mpmath.mpf(sigma)
                lm, k = mpmath.mpc(lam), abs(n)
                pref = mpmath.gammaprod([lm - t + 1], [k + 1, lm - k - t + 1])
                v = (em * pref * mpmath.beta(mpmath.mpf(abs(n)) / 2 + 1, le)
                     * total)
                if isinstance(r, Complementary):
                    lm = mpmath.mpf(r.lam)

                    def h(k):
                        return (mpmath.gamma(abs(k) + 1 + lm)
                                / mpmath.gamma(abs(k) - lm))
                    v *= mpmath.sqrt(h(n) / h(0))
                print(f'    ("{name}", {n}, {eps},'
                      f' "{mpmath.nstr(v.real, 25)}",'
                      f' "{mpmath.nstr(v.imag, 25)}"),')
    print("]")
