"""Closed-form matrix coefficients against the quadrature oracle, plus the
structural identities (unitarity, spectrum, symmetry, normalization)."""

import ast
import cmath
import functools
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import repnorm
from repnorm import reps, specfun
from repnorm.acceptance import GRID_REPS
from repnorm.errors import (ConvergenceError, DomainError,
                            NormalizationError, PoleError, PreconditionError)
from repnorm.norms import ScanConfig, _scan_grid
from repnorm.reps import (ORACLE_TOL, X_CUT, CoefValue, Complementary,
                          Discrete, Principal, _OdeCache, _Rep, _cartan_x,
                          _circle_samples, _disc_samples,
                          _f_ode_vec, _principal_params, _settled_column,
                          coef, coef_oracle, coef_vec,
                          complementary_normalizer, parse_rep,
                          parseval_defect)
from repnorm.specfun import (gamma_ratio_signed, gamma_rounding, hyp2f1,
                             log_gamma_difference, log_gammas)

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
# the circle closed form beyond X_CUT, both parities, with n < m or m < 0
# and on the reference column m = 0 up to n = 1024:
# (sigma, n, m, x, re, im) for lam = -1/2 + i (sigma 0), -1/2 + 0.7i
# (sigma 1/2).  Regenerate with `PYTHONPATH=src python tests/test_reps.py`.
BOUNDARY_LAMS = {0.0: -0.5 + 1.0j, 0.5: -0.5 + 0.7j}
BOUNDARY_NM = ((0, -128), (-3, -40), (-40, -3), (2, 7),
               (16, 0), (256, 0), (1024, 0))
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
    (0.0, 16, 0, 0.99, "-0.0107377532905582183803436157442", "0.00714011381073842128678739133411"),
    (0.0, 16, 0, 0.999, "0.0130216054230162450274687455428", "-0.00865877080642361532522660279865"),
    (0.0, 16, 0, 0.9999, "-0.00444924257456973380008341934087", "0.00295854239656862276413430005878"),
    (0.0, 256, 0, 0.99, "0.0221698095893315771633628881917", "-0.0048878820134405635222288964629"),
    (0.0, 256, 0, 0.999, "0.0111745437842996387356007622301", "-0.00246370413564427228145783219186"),
    (0.0, 256, 0, 0.9999, "-0.00551626723461702140597368699711", "0.00121619733758971766029659016673"),
    (0.0, 1024, 0, 0.99, "-0.0000101582226199047026952445773251", "-0.000312468972598076669204190424297"),
    (0.0, 1024, 0, 0.999, "-0.000533133008886817625590586501697", "-0.0163992786709126078470288986032"),
    (0.0, 1024, 0, 0.9999, "0.0000404901536122249790954894818862", "0.00124548527561890875832505330724"),
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
    (0.5, 16, 0, 0.99, "-0.0107121326578599589622997801202", "-0.0131201698556176885019492242775"),
    (0.5, 16, 0, 0.999, "0.0130622856920630367991187302164", "0.0159986262732401046109038023465"),
    (0.5, 16, 0, 0.9999, "0.000586524084793557366851095609993", "0.000718371949142714397411532545457"),
    (0.5, 256, 0, 0.99, "-0.0170192840211675891498359853669", "0.0286144951793322688414143631002"),
    (0.5, 256, 0, 0.999, "-0.00575467811645566234798343358231", "0.00967533117239985042309242477231"),
    (0.5, 256, 0, 0.9999, "0.00298367958298396673385360746889", "-0.00501645574148598473203861199668"),
    (0.5, 1024, 0, 0.99, "0.000332109806559363468479953230499", "0.000718812305997548912557017747384"),
    (0.5, 1024, 0, 0.999, "0.00778268657923014724802243324562", "0.0168447024941211359176158263963"),
    (0.5, 1024, 0, 0.9999, "-0.000242944227138393158702160139841", "-0.000525823979566607452044129508761"),
]


class TestClosedFormAgainstOracle:
    @pytest.mark.parametrize("r", UNITARY_GRID,
                             ids=lambda r: repr(r).replace(" ", ""))
    @pytest.mark.parametrize("x", [0.1, 0.5, 0.9])
    def test_columns_agree(self, r, x):
        m = r.m_ref + 2
        column, oracle_err = coef_oracle(r, m, x, n_max=r.m_ref + 24)
        peak = max(abs(v) for v in column.values())
        for n, ref in column.items():
            cv = coef(r, n, m, x)
            assert abs(cv.value - ref) <= (
                1e-8 * max(abs(ref), 1e-6 * peak) + oracle_err + cv.err_est)

    def test_nonunitary_principal_agrees_too(self):
        # the closed form does not care about unitarity; neither may the test
        r = Principal(0.0, -0.3 + 0.4j)
        column, oracle_err = coef_oracle(r, 0, 0.5, n_max=16)
        for n in (-5, -1, 0, 2, 7):
            cv = coef(r, n, 0, 0.5)
            assert abs(cv.value - column[n]) <= 1e-8 * abs(
                column[n]) + oracle_err + cv.err_est


# n_max values outside an oracle column, as functions of the family
OFF_COLUMN_TOPS = {"-3": lambda r: -3, "nan": lambda r: math.nan,
                   "inf": lambda r: math.inf, "m_ref-1": lambda r: r.m_ref - 1}


class TestOracleColumnTop:
    """coef_oracle refuses an n_max that is not finite or lies below m_ref
    with a PreconditionError that names it, on either model, instead of
    an empty circle column or a disc column cut to its first index."""

    @pytest.mark.parametrize("r", GRID_REPS,
                             ids=lambda r: repr(r).replace(" ", ""))
    @pytest.mark.parametrize("top", OFF_COLUMN_TOPS.values(),
                             ids=OFF_COLUMN_TOPS)
    def test_refused_by_name(self, r, top):
        n_max = top(r)
        with pytest.raises(PreconditionError,
                           match=f"n_max {n_max} must be finite"):
            coef_oracle(r, r.m_ref, 0.5, n_max)

    @pytest.mark.parametrize("r", GRID_REPS,
                             ids=lambda r: repr(r).replace(" ", ""))
    def test_reference_index_is_the_shortest_column(self, r):
        column, _ = coef_oracle(r, r.m_ref, 0.5, r.m_ref)
        assert max(column) == r.m_ref


class TestFrozenValues:
    @pytest.mark.parametrize("r,n,m,x,ref", FROZEN_COEFS,
                             ids=["principal-even", "principal-odd"])
    def test_frozen(self, r, n, m, x, ref):
        cv = coef(r, n, m, x)
        assert cv.value == pytest.approx(ref, rel=1e-12)


class TestBoundaryBranches:
    """Above X_CUT with n < m or m < 0, where the 2F1 pair is ordered
    Re a <= Re b, and on the reference column up to n = 1024, where the
    ODE branch's steps are capped by the rate of its solutions."""

    @pytest.mark.parametrize("sigma,n,m,x,re,im", BOUNDARY_COEFS, ids=[
        f"sigma{c[0]}-n{c[1]}-m{c[2]}-x{c[3]}" for c in BOUNDARY_COEFS])
    def test_against_mpmath(self, sigma, n, m, x, re, im):
        r = Principal(sigma, BOUNDARY_LAMS[sigma])
        ref = complex(float(re), float(im))
        cv = coef(r, n, m, x)
        assert abs(cv.value - ref) <= cv.err_est <= 1e-9 * abs(ref)
        vec, _ = coef_vec(r, n, m, np.array([0.5, x]))
        assert abs(vec[1] - ref) <= cv.err_est


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _euler_nodes(a, b, cb, omx):
    """Quadrature nodes (v, Gauss weight times dv) of the Euler integral of
    _euler_route: log-v panels over the cusp near v = 0, then linear panels
    graded to the local log-slope around the peak v* = log(1 + (b-1)/(c-b)),
    the window widened by (Re a - 1/2) log(1/(1-x)) / Re(c-b) past Re a =
    1/2, where the factor w^-a can still grow."""
    br = b.real
    v_star = math.log1p(max(br - 1.0, 0.0) / cb.real)
    v_lo = max(1e-9, v_star - math.log1p(60.0 / cb.real))
    v_hi = v_star + 48.0 / cb.real
    if a.real > 0.5:
        v_hi += (a.real - 0.5) * -math.log(float(np.min(omx))) / cb.real
    osc = abs(cb.imag) + abs(a) + cb.real + 1.0
    nodes = []
    if v_lo < 0.5:
        v_split = min(0.5, v_hi)
        y_lo, y_hi = math.log(1e-19) / br, math.log(v_split)
        if y_hi > y_lo:
            h_y = min(2.5, 16.0 / (1.0 + abs(b - 1.0) + abs(cb) * v_split))
            n_panels = max(1, math.ceil((y_hi - y_lo) / h_y))
            h_y = (y_hi - y_lo) / n_panels
            for p in range(n_panels):
                mid = y_lo + (p + 0.5) * h_y
                for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
                    vk = math.exp(mid + 0.5 * h_y * node)
                    nodes.append((vk, weight * 0.5 * h_y * vk))
            v_lo = v_split
    v = v_lo
    while v < v_hi:
        slope = cb.real * math.exp(max(v_star - v, 0.0)) + osc
        h = min(2.5, 16.0 / slope, v_hi - v)
        for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
            nodes.append((v + h / 2.0 * (1.0 + node), weight * h / 2.0))
        v += h
    return nodes


def _euler_route(a, b, c, omx):
    """2F1(a, b; c; 1 - omx) by the Euler integral in t = 1 - e^-v,

      [G(c)/(G(b)G(c-b))] int_0^inf e^{-v(c-b)} (1-e^{-v})^{b-1}
                                 ((1-x) + x e^{-v})^{-a} dv,

    for Re b > 0 and Re(c-b) > 0.05, on the graded panels of _euler_nodes,
    one numpy pass over the points per node.  Its window cuts the integrand
    at about e^-48 (1-x)^-1/2 of its peak, so it holds to about 1e-10 where
    1-x is not far below 1e-16."""
    a, b, c = complex(a), complex(b), complex(c)
    cb = c - b
    assert b.real > 0.0 and cb.real > 0.05
    xs = 1.0 - omx
    acc = np.zeros(omx.shape, dtype=complex)
    for vk, dv in _euler_nodes(a, b, cb, omx):
        s = -math.expm1(-vk)
        t1 = cmath.exp((b - 1.0) * math.log(s) - cb * vk)
        acc += (dv * t1) * np.exp(-a * np.log(omx + xs * math.exp(-vk)))
    return gamma_ratio_signed([c], [b, cb])[0] * acc


def _connection_route(a, b, c, omx):
    """2F1(a, b; c; 1 - omx) by the two-term 1-x connection (DLMF 15.8.4,
    15.10.21), both series in the variable 1-x, for c-a-b off the integers
    by more than 0.05; returns (F, err), err adding each term's series
    error and Gamma rounding at that term's size, far above |F| where the
    two terms cancel (n(1-x) large), plus 2e-12 |F|."""
    a, b, c = complex(a), complex(b), complex(c)
    s = c - a - b
    assert abs(s.imag) > 0.05 or abs(s.real - round(s.real)) > 0.05
    out = np.zeros(omx.shape, dtype=complex)
    err = np.zeros(omx.shape)
    for num, den, power, params in (
            ([s], [c - a, c - b], 0.0, (a, b, a + b - c + 1.0)),
            ([-s], [a, b], s, (c - a, c - b, s + 1.0))):
        pref, _ = gamma_ratio_signed([c] + num, den)
        if pref == 0.0:
            continue
        pref = pref * np.exp(power * np.log(omx))
        f, f_err = hyp2f1(*params, omx)
        out += pref * f
        err += np.abs(pref) * (f_err + gamma_rounding(log_gammas(num + den))
                               * np.abs(f))
    return out, err + (2e-12 + gamma_rounding(log_gammas([c]))) * np.abs(out)


REFERENCE_COLUMN_REPS = [Principal(0.0, -0.5 + 1.0j),
                         Principal(0.5, -0.5 + 0.7j), Complementary(-0.25)]


def _grid_params(r, kappa):
    """2F1 parameters of the reference column at the character kappa
    (moved one up where kappa is off the spectrum), and 1-x on the default
    scan grid of kappa above X_CUT."""
    if kappa not in r.spectrum(abs(kappa) + 1):
        kappa += 1
    a, b, c, *_ = _principal_params(*r.circle, r.basis_index(kappa), r.m_ref)
    ts, _, _ = _scan_grid(abs(kappa), ScanConfig())
    omx = 1.0 / np.cosh(ts) ** 2
    return a, b, c, omx[omx < 1.0 - X_CUT]


# every 37th point of the grid, about 6,000 of its 225,000 above X_CUT
GRID_STRIDE = 37


class TestOdeAgainstReferences:
    """The Euler integral and the two-term 1-x connection are independent
    routes to 2F1 above X_CUT: on the kappa = +-2048 scan grids of the
    reference columns the ODE branch agrees with each route that applies
    within the sum of the two budgets, the Euler route's taken as 2e-10
    |F|.  On sigma = 1/2 the half n >= 0 has Re(c-b) = 0, where only the
    connection applies; its budget there is far above |F| once n(1-x) is
    large, so there the Euler half n < 0 is the sharp check."""

    @pytest.mark.parametrize("r", REFERENCE_COLUMN_REPS,
                             ids=lambda r: repr(r).replace(" ", ""))
    @pytest.mark.parametrize("kappa", [2048, -2048])
    def test_kappa_2048_grid(self, r, kappa):
        a, b, c, omx = _grid_params(r, kappa)
        omx = omx[::GRID_STRIDE]
        assert omx.size > 5000
        value, err = _f_ode_vec(a, b, c, omx)
        routes = 0
        if (c - b).real > 0.05:
            euler = _euler_route(a, b, c, omx)
            assert np.all(np.abs(value - euler) <= err + 2e-10 * np.abs(euler))
            routes += 1
        s = c - a - b
        if abs(s.imag) > 0.05 or abs(s.real - round(s.real)) > 0.05:
            conn, conn_err = _connection_route(a, b, c, omx)
            assert np.all(np.abs(value - conn) <= err + conn_err)
            routes += 1
        assert routes >= 1
        # the ODE's own budget stays far below the column's size
        assert np.all(err <= 1e-10 * np.max(np.abs(value)))

    @pytest.mark.parametrize("lam", [-0.5 + 1.0j, -0.25])
    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_euler_against_connection(self, lam, n):
        # where both references apply, with n(1-x) up to about 4, they agree
        # with one another within their budgets
        a, b, c, *_ = _principal_params(0.0, lam, n, 0)
        omx = 1.0 - np.array([0.985, 0.99, 0.999, 0.9999])
        assert np.all(n * omx <= 4.0)
        euler = _euler_route(a, b, c, omx)
        conn, conn_err = _connection_route(a, b, c, omx)
        assert np.all(np.abs(euler - conn) <= 2e-10 * np.abs(euler) + conn_err)


class TestOdeTables:
    """The tables behind the ODE branch: a point's bits do not depend on
    its batch or on how far its table was built, the cache keeps to its
    byte cap, and threads may share it."""

    @pytest.mark.parametrize("r", REFERENCE_COLUMN_REPS,
                             ids=lambda r: repr(r).replace(" ", ""))
    def test_batch_and_table_independence(self, r):
        a, b, c, omx = _grid_params(r, 256)
        omx = np.concatenate([omx[::40], [1e-20, 1e-45]])
        deep = _f_ode_vec(a, b, c, omx, deriv=True)
        # a fresh cache, extended point by point from the cut
        tables = _OdeCache(1 << 30)
        for i in np.argsort(-omx):
            alone = _f_ode_vec(a, b, c, omx[i:i + 1], deriv=True,
                               tables=tables)
            for got, want in zip(deep, alone):
                assert _same_bits(got[i:i + 1], want), omx[i]

    def test_table_reaches_only_as_far_as_asked(self):
        a, b, c, *_ = _principal_params(0.0, -0.5 + 1.0j, 64, 0)
        tables = _OdeCache(1 << 30)
        # a first chunk of 16 centres from 1-x = 1 - X_CUT reaches 1.4e-3,
        # then 64 at a time
        centres = tables.rows(a, b, c, 2e-3)[0]
        assert centres[0] == 1.0 - X_CUT
        assert centres[-1] < 2e-3 and centres.size == 16
        centres = tables.rows(a, b, c, 1e-3)[0]
        assert centres[-1] < 1e-3 and centres.size == 16 + 64
        centres = tables.rows(a, b, c, 1e-56)[0]
        assert centres[-1] < 1e-56 and centres.size <= 512
        # the step is a quarter of 1-x away from the cap, and exact
        steps = tables.rows(a, b, c, 1e-56)[1]
        assert np.all(centres[:-1] - steps[:-1] == centres[1:])
        assert np.all(steps <= 0.25 * centres * (1.0 + 1e-15))

    def test_byte_cap(self):
        tables = _OdeCache(800_000)
        params = [_principal_params(0.0, -0.5 + 1.0j, n, 0)[:3]
                  for n in (4, 16, 64)]
        for a, b, c in params:
            tables.rows(a, b, c, 1e-56)
        # each table to 1e-56 holds about 370 KB, 230 KB of it rows: the
        # oldest one went
        assert len(tables._tables) == 2
        assert _held_bytes(tables) <= 800_000
        # a table above the cap alone still serves its call
        small = _OdeCache(1000)
        value, err = _f_ode_vec(*params[0], np.array([1e-30]), tables=small)
        assert np.isfinite(value).all() and len(small._tables) == 1

    def test_below_the_floor(self):
        # 1-x under the table's floor, 0 included: a finite value taken at
        # the end of the last step, with an infinite err
        a, b, c, *_ = _principal_params(0.0, -0.5 + 1.0j, 16, 0)
        value, err = _f_ode_vec(a, b, c, np.array([1e-300, 0.0, 1e-3]))
        assert np.isfinite(value).all()
        assert np.isinf(err[:2]).all() and np.isfinite(err[2])

    def test_threads_share_the_cache(self):
        # more workers than cores, a short switch interval and a cache so
        # small that the tables evict one another: every value must still
        # have the bits of a call on a fresh cache
        params = [_principal_params(*r.circle, n, 0)[:3]
                  for r in (Principal(0.0, -0.5 + 1.0j), Complementary(-0.25))
                  for n in (16, 256)]
        omx = np.geomspace(1e-2, 1e-30, 25)
        want = [_f_ode_vec(a, b, c, omx, tables=_OdeCache(1 << 30))[0]
                for a, b, c in params]
        tables = _OdeCache(300_000)

        def work(i):
            for j in range(16):
                k = (i + j) % len(params)
                got = _f_ode_vec(*params[k], omx, tables=tables)[0]
                if not _same_bits(got, want[k]):
                    return False
            return True

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(6) as pool:
                futures = [pool.submit(work, i) for i in range(6)]
                done = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(done)

    def test_running_byte_total(self):
        # the cache's running total is the sum of its tables' rows after
        # every call, through growth and evictions, and under threads
        params = [_principal_params(0.0, -0.5 + 1.0j, n, 0)[:3]
                  for n in (4, 16, 64, 256)]
        tables = _OdeCache(700_000)
        for k, omx_min in enumerate((1e-3, 1e-20, 1e-56, 1e-10, 1e-90,
                                     1e-56, 1e-200)):
            tables.rows(*params[k % len(params)], omx_min)
            assert tables._bytes == _held_bytes(tables)
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(tables.rows, *params[i % len(params)],
                                   10.0 ** -(10 * i))
                       for i in range(1, 13)]
            for f in futures:
                f.result(timeout=120)
        assert tables._bytes == _held_bytes(tables)

    def test_held_bytes_stay_within_the_cap(self):
        # every array of a table counts against the cap, not its rows alone
        # (|rows| alone is half as much again), through growth and
        # evictions; only a table that passes the cap by itself may stay
        params = [_principal_params(*r.circle, n, 0)[:3]
                  for r in (Principal(0.0, -0.5 + 1.0j), Complementary(-0.25))
                  for n in (4, 16, 64, 256)]
        tables = _OdeCache(900_000)
        for k, omx_min in enumerate((1e-20, 1e-56, 1e-3, 1e-90, 1e-56,
                                     1e-200, 1e-10, 1e-56, 1e-280, 1e-56)):
            tables.rows(*params[k % len(params)], omx_min)
            assert (_held_bytes(tables) <= 900_000
                    or len(tables._tables) == 1), k


def _held_bytes(tables):
    """The bytes of every array that the tables of an _OdeCache hold."""
    return sum(v.nbytes for t in tables._tables.values()
               for v in vars(t).values() if isinstance(v, np.ndarray))


def _premise_sweep(rng, size):
    """Values, multipliers t and addends that cover the Horner passes'
    steps: random sizes over many decades, signed zeros, t = 0 and -0
    exactly, t clipped to 1, and subnormals."""
    special = np.array([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 2.2e-308,
                        -1e-310, 1e300, -1e-300, 2.0 / 3.0, -2.0 / 3.0])

    def reals(count):
        out = rng.standard_normal(count) * 10.0 ** rng.uniform(-320, 300,
                                                               count)
        pick = rng.random(count) < 0.3
        out[pick] = rng.choice(special, pick.sum())
        return out

    t = rng.uniform(-2.0 / 3.0, 1.0, size)
    pick = rng.random(size) < 0.3
    t[pick] = rng.choice(np.concatenate([special, [0.0, -0.0, 1.0]]),
                         pick.sum())
    return reals(size), t, reals(size)


class TestScalarHorner:
    """_f_ode_vec's point-by-point path (_horner_points) against its numpy
    pass (_horner_batch): each Horner step of either is a float64 product
    and sum on a real or an imaginary part, or on a size, which CPython
    rounds as numpy does (IEEE 754).  So the path has the numpy pass's
    bits for every row and every t, and a one-point coef_vec the bits of
    its point in any batch."""

    def test_python_steps_round_as_numpy(self):
        # real x real + real: the same bits everywhere, signed zeros and
        # subnormals included
        rng = np.random.default_rng(11)
        value, t, coeff = _premise_sweep(rng, 40_000)
        with np.errstate(all="ignore"):
            for v, u, c in ((value, t, coeff),
                            (np.abs(value), np.abs(t), np.abs(coeff))):
                want = v * u + c
                got = np.array([p * q + r for p, q, r in zip(
                    v.tolist(), u.tolist(), c.tolist())])
                assert _same_bits(got, want)

    def test_every_row_keeps_the_batch_bits(self):
        # rows that no table holds: parts from subnormal to 2^1000, zeros
        # of either sign, a part zero throughout, values cancelled to an
        # exact zero at some steps; t at 0, -0, +-2^-1074, +-2^-60, 1/2,
        # -3/8 and 1
        rng = np.random.default_rng(12)
        n, count, tiny = reps._ODE_ORDER, 600, 2.0 ** -1074
        ts = rng.choice([0.0, -0.0, tiny, -tiny, 2.0 ** -60, -2.0 ** -60,
                         0.5, -0.375, 1.0], count)
        parts = 2.0 ** rng.uniform(-1074, 1000, (count, n, 2)) \
            * rng.choice([-1.0, 1.0], (count, n, 2))
        zero = rng.random(parts.shape) < 0.2
        parts[zero] = rng.choice([-0.0, 0.0], zero.sum())
        parts[::3, :, 1] = rng.choice([-0.0, 0.0], parts[::3, :, 1].shape)
        for i in np.flatnonzero(np.isin(ts, [0.5, -0.375, 1.0])):
            # a coefficient of minus the rounded product cancels exactly
            value = parts[i, -1].copy()
            for k in range(n - 2, -1, -1):
                if rng.random() < 0.3:
                    parts[i, k] = -(value * ts[i])
                value = value * ts[i] + parts[i, k]
        rows = parts.view(complex).reshape(count, n)
        mags, j = np.abs(rows), np.arange(count)
        for deriv in (False, True):
            got = reps._horner_points(rows, mags, j, ts, deriv)
            want = reps._horner_batch(rows, mags, j, ts, deriv)
            for g, w in zip(got, want):
                assert _same_bits(g, w), deriv
        # zero value parts of both signs reach the outputs
        parts = reps._horner_batch(rows, mags, j, ts, False)[0].view(float)
        signs = np.signbit(parts[parts == 0.0])
        assert signs.any() and not signs.all()

    @pytest.mark.parametrize("sigma,lam,n,m", [
        (0.0, -0.5 + 1.0j, 256, 0), (0.0, -0.25, 128, 0),
        (0.5, -0.5 + 0.7j, 64, 0), (0.0, -0.5 + 1.0j, -3, -40),
        (0.5, -0.5 + 0.7j, 7, -20),
        # Re(c-a-b) = 0.9: the rows near the floor fall below 2^-900
        (0.0, -0.05 + 0.3j, 16, 0)])
    @pytest.mark.parametrize("deriv", [False, True])
    def test_point_path_is_the_numpy_pass(self, sigma, lam, n, m, deriv,
                                          monkeypatch):
        # every batch size up to twice the crossover, on and off the
        # reference column, with points on either side of their centres,
        # at the cut, deep, and past the table's reach (err = inf); every
        # batch up to the crossover takes the point path
        a, b, c, *_ = _principal_params(sigma, lam, n, m)
        rng = np.random.default_rng(abs(n) + abs(m))
        cap = reps._ODE_SCALAR_POINTS
        pool = np.concatenate([10.0 ** rng.uniform(-60, -1.01, 4 * cap),
                               [1.0 - X_CUT, 1e-300, 0.0]])
        sizes = []
        point_path = reps._horner_points

        def spy(rows, mags, j, t, deriv):
            sizes.append(t.size)
            return point_path(rows, mags, j, t, deriv)

        monkeypatch.setattr(reps, "_horner_points", spy)
        for size in range(1, 2 * cap + 1):
            omx = rng.choice(pool, size)
            got = _f_ode_vec(a, b, c, omx, deriv=deriv)
            with monkeypatch.context() as patch:
                patch.setattr(reps, "_ODE_SCALAR_POINTS", 0)
                want = _f_ode_vec(a, b, c, omx, deriv=deriv)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert _same_bits(g, w), (size, omx)
        past = _f_ode_vec(a, b, c, np.array([1e-300, 0.0]), deriv=deriv)
        assert np.isinf(past[1]).all() and np.isfinite(past[0]).all()
        assert sizes == list(range(1, cap + 1)) + [2]

    @pytest.mark.parametrize("r,n,m", [
        (Principal(0.0, -0.5 + 1.0j), 128, 0),
        (Principal(0.0, -0.5 + 1.0j), 7, -20),
        (Principal(0.5, -0.5 + 0.7j), 64, 0),
        (Principal(0.5, -0.5), 6, 0),
        (Complementary(-0.25), 512, 0),
        (Complementary(-0.25), 3, -5),
        (Discrete(2), 8.0, 1.0),
        (Discrete(3), 12.5, 9.5)],
        ids=lambda v: repr(v).replace(" ", ""))
    def test_one_point_slope_call_has_the_batch_bits(self, r, n, m):
        # both branches of the circle closed form in one batch, with more
        # points above the cut than the crossover, against each point's
        # one-point call
        xs = np.array([0.05, 0.5, X_CUT, 0.93, 0.99, 0.995, 0.999, 0.9995,
                       0.9999, 0.99999, 1.0 - 1e-9, 0.3, 0.95, 0.97,
                       0.998, 1.0 - 1e-7, 0.91, 0.92, 0.96, 0.9997])
        assert np.count_nonzero(xs > X_CUT) > reps._ODE_SCALAR_POINTS
        batch = coef_vec(r, n, m, xs, slope=True)
        for i in range(xs.size):
            alone = coef_vec(r, n, m, xs[i:i + 1], slope=True)
            for got, want in zip(alone, batch):
                assert _same_bits(got, want[i:i + 1]), xs[i]


# every memo of specfun.memoized, by name: the arguments of a call that
# misses it at i, and two calls that differ only in the sign of a zero
_MEMO_CALLS = {
    "log_gammas": (
        lambda i: (np.array([0.5 + 0.01j * i, -2.5 + 0j]),),
        ([complex(-2.5, 0.0)],), ([complex(-2.5, -0.0)],)),
    "_log_gamma_ratio": (
        lambda i: (np.array([3.5 + 0.01j * i, 1.5, 2.25 + 1j]), 1),
        (np.array([complex(-2.5, 0.0), 1.5]), 1),
        (np.array([complex(-2.5, -0.0), 1.5]), 1)),
    "log_gamma_difference": (
        lambda i: (np.array([2.5 + i, 14.0 + i]), 0.75),
        (3.5, 0.0), (3.5, -0.0)),
    "_series_ratios": (
        lambda i: (-0.5 - 1j, 0.5 + i * 1j, 3.0 + 0j, 16 * (i % 3), 17),
        (1.5 + 0j, complex(-2.0, 0.0), 0.5 + 0j, 0, 17),
        (1.5 + 0j, complex(-2.0, -0.0), 0.5 + 0j, 0, 17)),
    "_principal_params": (
        lambda i: (0.5, -0.5 + 0.7j, i - 700, 3),
        (0.5, complex(-0.5, 0.0), 6, 2), (0.5, complex(-0.5, -0.0), 6, 2)),
    "complementary_normalizer": (
        lambda i: (-0.25, i - 700, -3),
        (-0.25, 0.0, -3), (-0.25, -0.0, -3)),
    "_discrete_log_j": (
        lambda i: (3, i, i % 5),
        (3, 0.0, 2), (3, -0.0, 2)),
}

_MEMOS = {name: f for module in (specfun, reps) for name, f in
          vars(module).items() if hasattr(f, "cache_clear")}


def _out_bits(out):
    """Every number of a memo's result as the bytes of complex doubles."""
    return tuple(np.asarray(v, dtype=complex).tobytes()
                 for v in (out if isinstance(out, tuple) else (out,)))


class TestIndexMemos:
    """The memos of specfun.memoized, which hold the closed forms'
    per-index constants, the log-Gamma values and hyp2f1's ratio blocks:
    bounded least recently used, keyed on the bits of their arguments,
    returning read-only arrays, and safe to share between threads."""

    def test_every_memo_is_listed(self):
        assert sorted(_MEMOS) == sorted(_MEMO_CALLS)

    @pytest.mark.parametrize("name", sorted(_MEMO_CALLS))
    def test_bounded(self, name):
        # more misses than the memo holds: it keeps the most recently used
        memo, (args, *_) = _MEMOS[name], _MEMO_CALLS[name]
        size = memo.cache_info().maxsize
        assert isinstance(size, int) and 0 < size <= 1024
        memo.cache_clear()
        for i in range(size):
            memo(*args(i))
        memo(*args(0))          # a hit: 0 is now the most recently used
        for i in range(size, size + 40):
            memo(*args(i))
        info = memo.cache_info()
        assert info.currsize == size and info.misses == size + 40
        memo(*args(0))
        memo(*args(41))
        assert memo.cache_info().misses == size + 40
        memo(*args(1))
        memo(*args(40))
        assert memo.cache_info().misses == size + 42

    @pytest.mark.parametrize("name", sorted(_MEMO_CALLS))
    def test_signed_zeros_are_kept_apart(self, name):
        # -0.0 and 0.0 are equal keys of a plain dict, but take different
        # log-Gamma branches: each call has the bits of an uncached one
        memo, (_, plus, minus) = _MEMOS[name], _MEMO_CALLS[name]
        memo.cache_clear()
        for args in (plus, minus, plus, minus):
            assert _out_bits(memo(*args)) == _out_bits(memo.__wrapped__(*args))
        assert memo.cache_info().currsize == 2

    def test_signed_zeros_change_the_branch(self):
        # so that the pairs above test something: where a zero's sign
        # reaches a log-Gamma branch, the two zeros give two values
        for name in ("log_gammas", "_log_gamma_ratio", "_principal_params"):
            _, plus, minus = _MEMO_CALLS[name]
            memo = _MEMOS[name].__wrapped__
            assert _out_bits(memo(*plus)) != _out_bits(memo(*minus)), name

    def test_key_rule(self):
        def key(value):
            return specfun.memo_key((value,))

        assert key(0.0) != key(-0.0) and key(0.0) == key(0j) == key(0.0 + 0j)
        assert key(complex(1.0, 0.0)) != key(complex(1.0, -0.0))
        assert key(7) == key(7.0) == key(7 + 0j)
        assert key(np.float64(7)) == key(np.array(7.0)) != key(7.0)
        z = np.zeros(4)
        assert len({key(z), key(z.reshape(2, 2)), key(z.astype(complex)),
                    key(-z)}) == 4
        assert key([1.5, 2.5]) == key(np.array([1.5, 2.5]))
        assert key(np.zeros(specfun._MEMO_ELEMENTS)) is not None
        assert key(np.zeros(specfun._MEMO_ELEMENTS + 1)) is None
        assert key([2 ** 70]) is None
        assert specfun.memo_key((1.5, np.zeros(65))) is None

    @pytest.mark.parametrize("memo,args", [
        (specfun.log_gammas, ([0.5, 1.5j],)),
        (specfun.log_gammas, (np.arange(1.0, 100.0),)),
        (specfun.log_gamma_difference, (np.array([2.5, 14.0]), 0.75)),
        (specfun.log_gamma_difference, (np.arange(1.0, 100.0), 0.75)),
        (complementary_normalizer, (-0.25, np.arange(-5, 6), 0)),
        (complementary_normalizer, (-0.25, np.arange(-64, 65), 0)),
        (specfun._series_ratios, (1.5 + 0j, -2.0 + 0j, 0.5 + 0j, 0, 17))],
        ids=["log_gammas", "log_gammas-uncached", "difference",
             "difference-uncached", "normalizer", "normalizer-uncached",
             "ratios"])
    def test_arrays_are_read_only(self, memo, args):
        # memoized or not (above _MEMO_ELEMENTS), since callers share them
        for _ in range(2):
            out = memo(*args)
            arrays = [v for v in (out if isinstance(out, tuple) else (out,))
                      if isinstance(v, np.ndarray)]
            assert arrays and not any(v.flags.writeable for v in arrays)

    def test_threads_share_the_memos(self):
        # more workers than cores, a short switch interval, and more keys
        # than any memo holds, so that the threads evict one another's
        # entries: every result must have the bits of an uncached call
        keys = list(range(1100))
        calls = {name: (_MEMOS[name], args)
                 for name, (args, *_) in _MEMO_CALLS.items()}
        want = {name: [_out_bits(memo.__wrapped__(*args(i))) for i in keys]
                for name, (memo, args) in calls.items()}

        def work(w):
            # half of the keys each, from a point of its own
            order = keys[w % 2::2]
            order = order[90 * w:] + order[:90 * w]
            for name, (memo, args) in calls.items():
                for i in order:
                    if _out_bits(memo(*args(i))) != want[name][i]:
                        return False
            return True

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(6) as pool:
                futures = [pool.submit(work, w) for w in range(6)]
                done = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(done)
        for memo, _ in calls.values():
            info = memo.cache_info()
            assert info.currsize <= info.maxsize


def _series_per_term(a, b, c, xs, tol=1e-15):
    """The reference Gauss series kernel: one numpy pass over the points per
    term, with the stop test every 16 terms: the term, or the bound
    |t_j| q / (1 - q) on the tail past it, whichever is larger, at most tol
    times the largest partial sum, q = |x| max(1, |t_{j+1} / (x t_j)|)."""
    xs = np.asarray(xs, dtype=float)
    x_hi = float(np.max(np.abs(xs))) if xs.size else 0.0
    if x_hi >= 0.995:
        raise PreconditionError(f"series batch needs |x| < 0.995, got {x_hi}")
    total = np.ones(xs.shape, dtype=complex)
    term = np.ones(xs.shape, dtype=complex)
    if x_hi == 0.0:
        return total
    k_cap = int(4 * abs(b) + 64 + math.log(1e-18) / math.log(x_hi))
    scale = 1.0
    def ratio(j):
        return (a + j) * (b + j) / ((c + j) * (j + 1.0))

    for k in range(k_cap):
        term = term * (xs * ratio(k))
        total += term
        if k % 16 == 15:
            scale = max(scale, float(np.max(np.abs(total))))
            q = np.abs(xs) * max(1.0, abs(ratio(k + 1)))
            tail = np.divide(q, 1.0 - q, out=np.full(q.shape, np.inf),
                             where=q < 1.0)
            mag = np.abs(term)
            if float(np.max(np.maximum(mag, mag * tail))) <= tol * scale:
                return total
    if float(np.max(np.abs(term))) > 1e-10 * scale:
        raise ConvergenceError(f"vector series stalled (x_hi={x_hi})")
    return total


# circle families whose series the kernel walks: the three of the grid, a
# reducible point and a point off the unitary line
SERIES_REPS = [Principal(0.0, -0.5 + 1.0j), Principal(0.5, -0.5 + 0.7j),
               Complementary(-0.25), Principal(0.0, -0.5),
               Principal(0.5, -0.3 + 0.4j)]


def _one_point_each(a, b, c, xs, walk=None):
    """Each point of xs on its own: by the reference loop, or by walk."""
    walk = walk or (lambda xs: _series_per_term(a, b, c, xs))
    out = np.empty(xs.shape, dtype=complex)
    for i, x in enumerate(xs):
        out[i] = walk(np.array([x]))[0]
    return out


class TestSeriesKernel:
    """Each point of a batch of the Gauss series kernel has the bits of the
    per-term loop run on that point alone, and at its edges the kernel
    gives the same value or a DomainError."""

    # 125 seeded cases per size, 500 in all.  A one-point call is compared
    # with the reference loop; each point of a wider batch with the
    # kernel's one-point call, so with the reference loop in turn.  Batches
    # of 1 and 3 points sum each block in one cumsum, 500 points one add per
    # term, 40 points both
    @pytest.mark.parametrize("size", [1, 3, 40, 500])
    def test_per_term_loop_bits(self, size):
        rng = np.random.default_rng(size)
        differ = []
        for case in range(125):
            r = SERIES_REPS[case % len(SERIES_REPS)]
            n = int(rng.integers(-300, 301))
            m = int(rng.integers(-8, 9))
            a, b, c, *_ = _principal_params(*r.circle, n, m)
            # the series runs on x <= X_CUT, and on 1-x < 1-X_CUT in the
            # connection reference route
            hi = X_CUT if case % 4 else 1.0 - X_CUT
            xs = rng.uniform(0.0, hi, size)
            alone = _one_point_each(
                a, b, c, xs,
                None if size == 1 else lambda xs: hyp2f1(a, b, c, xs)[0])
            if not _same_bits(hyp2f1(a, b, c, xs)[0], alone):
                differ.append((r, n, m))
        assert differ == []

    def test_terminating_series(self):
        # Principal(1/2, -1/2) at m = 5: a = -5, a polynomial of degree 5,
        # which the kernel sums to its order and no further
        a, b, c, *_ = _principal_params(0.5, -0.5, 40, 5)
        assert a == -5.0
        xs = np.linspace(0.0, X_CUT, 7)
        assert _same_bits(hyp2f1(a, b, c, xs)[0],
                          _one_point_each(a, b, c, xs))
        assert np.isfinite(hyp2f1(a, b, c, np.array([1.0, -3.0]))[0]).all()

    @pytest.mark.parametrize("xs", [np.zeros(0), np.zeros(4)],
                             ids=["empty", "zero"])
    def test_trivial_batches(self, xs):
        a, b, c, *_ = _principal_params(0.0, -0.5 + 1.0j, 16, 0)
        value, err = hyp2f1(a, b, c, xs)
        assert _same_bits(value, _series_per_term(a, b, c, xs))
        # the rounding bound of one block of 16 zero terms: 2 eps for t_0
        # and eps for each of the 16 partial sums
        assert err.shape == xs.shape and np.all(err <= 18 * 2.2e-16)

    def test_domain(self):
        # the reference loop refused x >= 0.995; the kernel runs up to 1
        a, b, c, *_ = _principal_params(0.0, -0.5 + 1.0j, 16, 0)
        for xs in ([0.5, 1.0], [-1.0]):
            with pytest.raises(DomainError, match="non-convergent"):
                hyp2f1(a, b, c, np.array(xs))
        value, err = hyp2f1(a, b, c, np.array([0.995]))
        assert np.isfinite(value).all() and np.isfinite(err).all()
        with pytest.raises(DomainError, match="pole"):
            hyp2f1(0.5, 1.5, -2.0, np.array([0.5]))
        # a pole of c that termination clears, also at the order that
        # reaches c + k = 0: at a = c = -3 the sum is that of (1.5)_k x^k/k!
        # to k = 3, 1 + 0.75 + 0.46875 + 0.2734375 at x = 1/2
        for a in (-2.0, -3.0):
            value, err = hyp2f1(a, 1.5, -3.0, np.array([0.5]))
            assert np.isfinite(value).all() and np.isfinite(err).all()
        assert hyp2f1(-3.0, 1.5, -3.0, np.array([0.5]))[0][0] == \
            pytest.approx(2.4921875, rel=1e-15)

    def test_batch_independence_on_the_boundary_column(self):
        # the 138 points at or below X_CUT of a column that straddles it
        # each stop on their own terms, not on the batch-wide largest one,
        # so they have the bits of their one-point calls
        r = Principal(0.0, -0.5 + 1.0j)
        xs = np.linspace(X_CUT - 0.01, X_CUT + 0.019, 400)
        whole = coef_vec(r, 512, 0, xs)[0]
        alone = np.array([coef_vec(r, 512, 0, xs[i:i + 1])[0][0]
                          for i in range(xs.size)])
        assert np.count_nonzero(xs <= X_CUT) == 138
        assert _same_bits(whole, alone)

    def test_large_batch_equals_its_parts(self):
        # above 16384 points numpy reused a temporary of the per-term loop
        # in place, swapped the operands of its complex multiply and so
        # changed 1 value in 3 of this column
        r = Principal(0.0, -0.5 + 1.0j)
        xs = np.linspace(0.01, X_CUT, 8000)
        part = coef_vec(r, 64, 0, xs)[0]
        whole = coef_vec(r, 64, 0, np.concatenate([xs, xs, xs]))[0]
        for i in range(3):
            assert _same_bits(whole[8000 * i:8000 * (i + 1)], part)


def _reference_slope(r, n, m, x):
    """d log|coef(n, m)|/dx at x by mpmath at 40 digits, and the size of
    the terms it sums (the scale of its rounding): on the circle
    Re[|n-m|/(2x) + lam/(1-x) + F'/F] with F' = (ab/c) F(a+1, b+1; c+1; x)
    (DLMF 15.5.1), on the disc the log-derivative of the Pfaff form
    x^((p-q)/2) (1-x)^(ell/2) 2F1(-q, ell+p; ell; 1-x)."""
    import mpmath

    with mpmath.workdps(40):
        xm = mpmath.mpf(float(x))
        if isinstance(r, Discrete):
            ell = r.ell
            p, q = int(n - ell / 2), int(m - ell / 2)
            f = mpmath.hyp2f1(-q, ell + p, ell, 1 - xm)
            df = -(-q) * (ell + p) / mpmath.mpf(ell) * mpmath.hyp2f1(
                1 - q, ell + p + 1, ell + 1, 1 - xm)
            terms = [mpmath.mpf(p - q) / (2 * xm), ell / (2 * (1 - xm)),
                     df / f]
            slope = terms[0] - terms[1] + terms[2]
        else:
            sigma, lam = r.circle
            a, b, c, *_ = _principal_params(sigma, lam, n, m)
            a, b = mpmath.mpc(a.real, a.imag), mpmath.mpc(b.real, b.imag)
            lam = mpmath.mpc(lam.real, lam.imag)
            ratio = (a * b / c * mpmath.hyp2f1(a + 1, b + 1, c + 1, xm)
                     / mpmath.hyp2f1(a, b, c, xm))
            terms = [abs(n - m) / (2 * xm), lam / (1 - xm), ratio]
            slope = mpmath.re(sum(terms))
        return float(slope), float(sum(abs(t) for t in terms))


class TestSlope:
    """coef_vec(slope=True) returns d log|coef|/dx from the pass that
    computes the values, on every branch, and leaves the values' bits as
    they are."""

    @pytest.mark.parametrize("r,n,m,x,method,tol", [
        (Principal(0.0, -0.5 + 1.0j), 32, 0, 0.5, "series", 1e-13),
        (Principal(0.0, -0.5 + 1.0j), 32, 0, X_CUT - 0.01, "series", 1e-13),
        (Principal(0.0, -0.5 + 1.0j), 32, 0, X_CUT + 0.01, "ode", 1e-13),
        (Principal(0.0, -0.5 + 1.0j), 128, 0, 0.99, "ode", 1e-13),
        (Complementary(-0.25), 512, 0, 0.999, "ode", 1e-13),
        (Principal(0.0, -0.5 + 1.0j), 7, -20, 0.995, "ode", 1e-13),
        (Principal(0.5, -0.5 + 0.7j), 64, 0, 0.99, "ode", 1e-13),
        (Principal(0.5, -0.5 + 0.7j), 64, 0, 0.9995, "ode", 1e-13),
        (Principal(0.5, -0.5 + 0.7j), 128, 0, 0.9986, "ode", 1e-13),
        (Principal(0.5, -0.5), 6, 2, 0.99, "ode", 1e-13),
        (Principal(0.0, -0.5), 5, 2, 0.99, "ode", 1e-12),
        (Principal(0.5, -0.5 + 0.7j), 2048, 0, 0.9993, "ode", 1e-13),
        (Principal(0.0, -0.5 + 1.0j), 4, 0, 1.0 - 1e-12, "ode", 1e-13),
        (Principal(0.5, -0.5), 6, 0, 0.99, "closed", 1e-13),
        (Discrete(2), 8.0, 1.0, 0.7, "closed", 1e-13),
        (Discrete(2), 8.0, 1.0, 0.3, "closed", 1e-13),
        (Discrete(3), 12.5, 9.5, 0.9, "closed", 1e-13),
        (Discrete(4), 22.0, 4.0, 0.99, "closed", 1e-13)],
        ids=lambda v: repr(v).replace(" ", ""))
    def test_against_mpmath(self, r, n, m, x, method, tol):
        xs = np.array([x])
        values, slopes, errs = coef_vec(r, n, m, xs, slope=True)
        assert coef(r, n, m, x).method == method
        want, scale = _reference_slope(r, n, m, x)
        assert abs(slopes[0] - want) <= tol * scale
        # the same value and err bits as without the slope, and coef's budget
        plain, plain_errs = coef_vec(r, n, m, xs)
        assert _same_bits(values, plain) and _same_bits(errs, plain_errs)
        cv = coef(r, n, m, x)
        assert values[0] == cv.value
        assert errs[0] == cv.err_est

    def test_disc_reference_column_peaks_at_its_closed_form(self):
        # q = 0: |coef| = |J| x^(p/2) (1-x)^(ell/2), slope
        # p/(2x) - ell/(2(1-x)), zero at x = p/(p+ell)
        ell, p = 3, 11
        xs = np.array([0.2, p / (p + ell), 0.9])
        _, slopes, _ = coef_vec(Discrete(ell), p + ell / 2.0, ell / 2.0, xs,
                                slope=True)
        want = p / (2.0 * xs) - ell / (2.0 * (1.0 - xs))
        assert slopes == pytest.approx(want, rel=1e-15, abs=1e-15)
        assert abs(slopes[1]) < 1e-14

    @pytest.mark.parametrize("r,n", [(Principal(0.0, -0.5 + 1.0j), 64),
                                     (Principal(0.5, -0.5 + 0.7j), 64),
                                     (Complementary(-0.25), 256),
                                     (Discrete(2), 40.0)],
                             ids=lambda v: repr(v).replace(" ", ""))
    def test_batch_has_the_bits_of_one_point_calls(self, r, n):
        # points on both sides of X_CUT, as the scan's root steps give them;
        # values, slopes and errs alike
        xs = np.concatenate([np.linspace(0.3, 0.98, 7),
                             1.0 - np.geomspace(1e-2, 1e-4, 6)])
        batch = coef_vec(r, n, r.m_ref, xs, slope=True)
        for i in range(xs.size):
            alone = coef_vec(r, n, r.m_ref, xs[i:i + 1], slope=True)
            for got, want in zip(batch, alone):
                assert _same_bits(got[i:i + 1], want), (i, xs[i])

    @pytest.mark.parametrize("a,b,c", [(0.5 - 1.0j, 64.5 - 1.0j, 65.0),
                                       (-3.0, 1.5, 2.5),
                                       (0.3 + 0.1j, 2.2, 2.2)])
    def test_series_derivative(self, a, b, c):
        import mpmath

        xs = np.array([0.0, 0.1, 0.5, 0.9, 0.98])
        value, err, slope, slope_err = hyp2f1(a, b, c, xs, deriv=True)
        assert _same_bits(value, hyp2f1(a, b, c, xs)[0])
        assert _same_bits(err, hyp2f1(a, b, c, xs)[1])
        with mpmath.workdps(40):
            for x, got, bound in zip(xs.tolist(), slope.tolist(),
                                     slope_err.tolist()):
                want = complex(a * b / c * mpmath.hyp2f1(
                    a + 1, b + 1, c + 1, x))
                assert abs(got - want) <= 1e-13 * max(1.0, abs(want))
                # the derived bound covers the slope, and is not vacuous
                assert abs(got - want) <= bound <= 1e-11 * max(1.0, abs(want))

    def test_series_errs_do_not_depend_on_the_batch(self):
        # each point's rounding bound stops with it: err and F'_err have
        # the bits of the one-point call (4.03e-81 in this 13-point batch
        # against 3.85e-81 alone when the bound summed whole term blocks)
        r = Complementary(-0.25)
        a, b, c, *_ = _principal_params(*r.circle, 256, 0)
        xs = np.concatenate([np.linspace(0.3, 0.98, 7),
                             np.linspace(0.05, 0.2, 6)])
        batch = hyp2f1(a, b, c, xs, deriv=True)
        for i in range(xs.size):
            alone = hyp2f1(a, b, c, xs[i:i + 1], deriv=True)
            for got, want in zip(batch, alone):
                assert _same_bits(got[i:i + 1], want), (i, xs[i])


class TestStructuralIdentities:
    def test_identity_at_origin(self):
        r = Principal(0.0, -0.5 + 1.0j)
        assert coef(r, 2, 2, 0.0).value == pytest.approx(1.0)
        assert abs(coef(r, 3, 2, 0.0).value) < 1e-14

    def test_even_parity_symmetry(self):
        # sigma = 0 is inversion-symmetric: C(n, 0) = C(-n, 0)
        r = Principal(0.0, -0.5 + 0.3j)
        for n in (1, 4, 9):
            a = coef(r, n, 0, 0.6).value
            b = coef(r, -n, 0, 0.6).value
            assert a == pytest.approx(b, rel=1e-12)

    def test_discrete_lowest_diagonal(self):
        # the lowest vector pairs with itself as (1-x)^(ell/2)
        for ell in (2, 3, 4):
            for x in (0.2, 0.7):
                cv = coef(Discrete(ell), ell / 2.0, ell / 2.0, x)
                assert cv.value == pytest.approx(
                    (1.0 - x) ** (ell / 2.0), rel=1e-13)

    def test_reducible_point_collapse(self):
        # at sigma = 1/2, lam = -1/2 the full column collapses onto
        # (-1)^n x^(n/2) sqrt(1-x)
        r = Principal(0.5, -0.5)
        for n in range(5):
            for x in (0.3, 0.8):
                cv = coef(r, n, 0, x)
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
        assert parseval_defect(r, r.m_ref, 0.5) < 1e-6

    def test_parseval_fails_off_the_unitary_axis(self):
        # Re lam != -1/2 is not unitary; the column must not be normalized
        assert parseval_defect(Principal(0.0, -0.3), 0, 0.5) > 1e-2


# (family, L) of the scan-grid tests: both parities, the real point
# lam = -1/2 of the unitary line, the complementary series, two disc weights
LIPSCHITZ_FAMILIES = [
    (Principal(0.0, -0.5 + 1.0j), math.sqrt(2.0 * 1.25)),
    (Principal(0.5, -0.5 + 0.4j), math.sqrt(1.0 + 2.0 * 0.16)),
    (Principal(0.0, -0.5), math.sqrt(0.5)),
    (Complementary(-0.25), math.sqrt(2.0 * 0.25 * 0.75)),
    (Discrete(2), math.sqrt(2.0)),
    (Discrete(3), math.sqrt(3.0)),
]
LIPSCHITZ_IDS = [repr(r).replace(" ", "") for r, _ in LIPSCHITZ_FAMILIES]


class TestLipschitz:
    """L = ||dpi(H) f_m|| bounds |d/dt coef(n, m; a_t)| for every n: on the
    circle sqrt(|lam - sigma|^2 + |lam + sigma|^2) times the normalizers of
    m +- 1 (sqrt(-2 lam (1 + lam)) on the complementary series), on the
    disc sqrt(ell)."""

    @pytest.mark.parametrize("r, want", LIPSCHITZ_FAMILIES,
                             ids=LIPSCHITZ_IDS)
    def test_closed_form(self, r, want):
        assert r.lipschitz == pytest.approx(want, rel=1e-13)
        # the components of dpi(H) f_m: coef(m +- 1, m; a_t)/t as t -> 0
        t = 1e-7
        m = r.m_ref
        ks = [m + 1.0] if isinstance(r, Discrete) else [m - 1.0, m + 1.0]
        lim = math.sqrt(sum(abs(coef(r, k, m, math.tanh(t) ** 2).value
                                / t) ** 2 for k in ks))
        assert lim == pytest.approx(want, rel=1e-9)

    def test_reducible_point_reaches_one_side(self):
        # lam + sigma = 0 kills the prefactor of f_(-1)
        assert Principal(0.5, -0.5).lipschitz == pytest.approx(1.0, rel=1e-13)

    def test_infinite_off_the_unitary_line(self):
        assert Principal(0.0, -0.3 + 1.0j).lipschitz == math.inf

    @pytest.mark.parametrize("r, want", LIPSCHITZ_FAMILIES,
                             ids=LIPSCHITZ_IDS)
    @pytest.mark.parametrize("kappa", [16, 256, 2048])
    def test_bounds_the_difference_quotients(self, r, want, kappa):
        kappa = kappa if kappa in r.spectrum(kappa) else kappa + 1
        n = r.basis_index(kappa)
        ts = np.linspace(0.0, 6.0 + math.log1p(kappa), 8193)
        mags = np.abs(coef_vec(r, n, r.m_ref, np.tanh(ts) ** 2)[0])
        slope = float(np.max(np.abs(np.diff(mags)) / np.diff(ts)))
        assert 0.0 < slope <= r.lipschitz


def _curvature_closed_form(r):
    """K = ||dpi(H)^2 f_m|| by hand: on the circle the components
    (lam -+ sigma)(lam -+ sigma - 1) on f_(m+-2), times their normalizers
    N_2 = sqrt((2 + lam)(1 + lam) / ((1 - lam)(-lam))) on the complementary
    series, and -L^2 on f_m; on the disc 3 ell^2 + 2 ell under the root."""
    if isinstance(r, Discrete):
        return math.sqrt(3.0 * r.ell ** 2 + 2.0 * r.ell)
    sigma, lam = r.circle
    n1, n2 = 1.0, 1.0
    if isinstance(r, Complementary):
        lam = r.lam
        n1, n2 = (1 + lam) / -lam, (2 + lam) * (1 + lam) / ((1 - lam) * -lam)
    l2 = (abs(lam - sigma) ** 2 + abs(lam + sigma) ** 2) * n1
    sides = sum(abs((lam - s) * (lam - s - 1.0)) ** 2 * n2
                for s in (sigma, -sigma))
    return math.sqrt(l2 ** 2 + sides)


class TestCurvature:
    """K = ||dpi(H)^2 f_m|| bounds |d^2/dt^2 coef(n, m; a_t)| for every n,
    the second derivative being <pi(a_t) dpi(H)^2 f_m, f_n> with pi(a_t)
    unitary; the scan grid prunes its intervals with it."""

    @pytest.mark.parametrize("r", [r for r, _ in LIPSCHITZ_FAMILIES],
                             ids=LIPSCHITZ_IDS)
    def test_closed_form(self, r):
        assert r.curvature == pytest.approx(_curvature_closed_form(r),
                                            rel=1e-13)
        # the components of dpi(H)^2 f_m: the second difference quotients
        # of the columns m and m +- 2 at t = 0, where coef(n, m; a_0) is 1
        # on n = m and 0 elsewhere
        t = 1e-4
        m = r.m_ref
        ks = [m, m + 2.0] if isinstance(r, Discrete) else [m - 2.0, m, m + 2.0]

        def col(k, s):
            return coef(r, k, m, math.tanh(s) ** 2).value

        d2 = [(col(k, 2.0 * t) - 2.0 * col(k, t) + (k == m)) / t ** 2
              for k in ks]
        assert math.sqrt(sum(abs(v) ** 2 for v in d2)) == \
            pytest.approx(r.curvature, rel=1e-5)

    def test_reducible_point_is_finite(self):
        # lam + sigma = 0 kills the component on f_(-2): K^2 = 2^2 + 1^2
        assert Principal(0.5, -0.5).curvature == pytest.approx(
            math.sqrt(5.0), rel=1e-13)

    def test_infinite_off_the_unitary_line(self):
        assert Principal(0.0, -0.3 + 1.0j).curvature == math.inf

    @pytest.mark.parametrize("r", [r for r, _ in LIPSCHITZ_FAMILIES],
                             ids=LIPSCHITZ_IDS)
    @pytest.mark.parametrize("kappa", [16, 256, 2048])
    def test_bounds_the_second_difference_quotients(self, r, kappa):
        kappa = kappa if kappa in r.spectrum(kappa) else kappa + 1
        n = r.basis_index(kappa)
        ts = np.linspace(0.0, 6.0 + math.log1p(kappa), 8193)
        col = coef_vec(r, n, r.m_ref, np.tanh(ts) ** 2)[0]
        bend = float(np.max(np.abs(np.diff(col, 2)))) / (ts[1] - ts[0]) ** 2
        assert 0.0 < bend <= r.curvature


# [FROZEN] float.hex of L and K, each from the leading terms of its
# family's reference factor; a sum in another order or a component on the
# wrong index moves them
FROZEN_BOUNDS = [
    (Principal(0.0, -0.5 + 1.0j), "0x1.94c583ada5b53p+0",
     "0x1.e54dd4ce75f1cp+1"),
    (Principal(0.5, -0.5 + 0.7j), "0x1.6839537fece64p+0",
     "0x1.af0ce2af95114p+1"),
    (Principal(0.5, -0.5), "0x1.0000000000000p+0", "0x1.1e3779b97f4a8p+1"),
    (Complementary(-0.25), "0x1.3988e1409212fp-1", "0x1.f5e67fdcbdf46p-1"),
    (Complementary(-0.4), "0x1.62b9586ad0a20p-1", "0x1.24834df792124p+0"),
    (Discrete(2), "0x1.6a09e667f3bccp+0", "0x1.fffffffffffffp+1"),
    (Discrete(3), "0x1.bb67ae8584cabp+0", "0x1.6fa6ea162d0f1p+2"),
    (Discrete(7), "0x1.52a7fa9d2f8eap+1", "0x1.9608d3c41fb51p+3"),
    (Principal(0.0, -0.3 + 1.0j), "inf", "inf"),
]


@pytest.mark.parametrize("r, lip, curv", FROZEN_BOUNDS,
                         ids=[repr(r).replace(" ", "") for r, *_ in
                              FROZEN_BOUNDS])
def test_bounds_keep_their_bits(r, lip, curv):
    assert (r.lipschitz.hex(), r.curvature.hex()) == (lip, curv)


def test_bounds_are_computed_once_per_instance(monkeypatch):
    calls = []
    leading = _Rep._leading

    def spy(self, d):
        calls.append(d)
        return leading(self, d)

    monkeypatch.setattr(_Rep, "_leading", spy)
    r, twin = Principal(0.0, -0.5 + 1.0j), Principal(0.0, -0.5 + 1.0j)
    before = hash(r)
    for _ in range(3):
        assert (r.lipschitz.hex(), r.curvature.hex()) == FROZEN_BOUNDS[0][1:]
    assert calls == [1.0, 2.0]
    # the kept values are not fields: equality, hash and repr see none
    assert r == twin and hash(r) == hash(twin) == before
    assert repr(r) == repr(twin)


class TestSpectrum:
    def test_principal_parity(self):
        assert Principal(0.0, -0.5 + 1.0j).spectrum(6) == [
            -6, -4, -2, 0, 2, 4, 6]
        assert Principal(0.5, -0.5 + 1.0j).spectrum(6) == [
            -5, -3, -1, 1, 3, 5]

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    def test_basis_index_matches_the_spectrum(self, sigma):
        r = Principal(sigma, -0.5 + 1.0j)
        for k in range(-64, 65):
            if k in r.spectrum(abs(k)):
                assert r.basis_index(k) == (k - 2 * sigma) / 2.0
            else:
                with pytest.raises(PreconditionError):
                    r.basis_index(k)

    def test_basis_index_does_not_list_the_spectrum(self, monkeypatch):
        def refuse(self, limit):
            raise AssertionError("spectrum listed")

        monkeypatch.setattr(Principal, "spectrum", refuse)
        assert Principal(0.0, -0.5 + 1.0j).basis_index(10 ** 12) == 5e11
        assert Principal(0.5, -0.5 + 1.0j).basis_index(
            10 ** 12 + 1) == 5e11

    def test_discrete_ray(self):
        assert Discrete(3).spectrum(9) == [3, 5, 7, 9]


class TestLogGammaPass:
    @pytest.mark.parametrize("r,n,m,count", [
        (Principal(0.0, -0.5 + 1.0j), 16, 0, 1),
        (Principal(0.5, -0.5 + 0.7j), -3, 5, 3),
        (Complementary(-0.25), 16, 0, 3),
        (Complementary(-0.25), 3, -5, 7),
        (Discrete(2), 9.0, 1.0, 5),
        (Discrete(3), 4.5, 2.5, 5),
    ])
    @pytest.mark.parametrize("x", [0.5, 0.99])
    def test_each_log_gamma_value_taken_once(self, r, n, m, count, x,
                                             monkeypatch):
        # the prefactor (its 3 arguments, less the two of a shift pair:
        # Gamma(n+1) against the reflected Gamma(lam-n-sigma+1) from
        # n = 11 up), the complementary normalizer (two values per index
        # below 12, a shift pair above) and the disc |J| (log Gamma(ell)
        # and, below p = 11, two values per index) each take their
        # log-Gamma values once, and their rounding from those values; the
        # rounding took every one of them a second time.  The memos are
        # emptied, so each value reaches the kernel
        from repnorm import specfun

        sizes = []
        kernel = specfun._log_gamma_kernel

        def counted(z):
            sizes.append(np.size(z))
            return kernel(z)

        monkeypatch.setattr(specfun, "_log_gamma_kernel", counted)
        for memo in _MEMOS.values():
            memo.cache_clear()
        r.closed_form(n, m, np.array([x]))
        assert sum(sizes) == count


class TestComplementaryNormalizer:
    def test_doubling_ratio_approaches_fourth_root_of_two(self):
        # H(k) ~ k^(2 lam + 1), so C(2n,0)/C(n,0) -> 2^((2 lam + 1)/2);
        # [DERIVED] mpmath at 30 digits for lam = -1/4, n = 4096.
        ratio = (complementary_normalizer(-0.25, 8192)[0]
                 / complementary_normalizer(-0.25, 4096)[0])
        assert ratio == pytest.approx(1.1892071145873953, abs=5e-10)
        assert abs(ratio - 2.0 ** 0.25) < 1e-9
        coarse = (complementary_normalizer(-0.25, 128)[0]
                  / complementary_normalizer(-0.25, 64)[0])
        assert abs(ratio - 2.0 ** 0.25) < abs(coarse - 2.0 ** 0.25)

    def test_positivity_guard(self):
        with pytest.raises(NormalizationError):
            complementary_normalizer(-1.4, 2)

    @pytest.mark.parametrize("n, m", [(2.5, 0), (2, -0.5),
                                      (np.array([1.0, 2.5]), 0),
                                      (math.inf, 0), (0, math.nan)])
    def test_non_integral_index_refused_not_cut(self, n, m):
        # astype(np.int64) cut 2.5 to 2
        with pytest.raises(PreconditionError, match="must be an integer"):
            complementary_normalizer(-0.25, n, m)

    def test_integral_float_index_keeps_its_bits(self):
        assert complementary_normalizer(-0.25, 7.0, -3.0) == \
            complementary_normalizer(-0.25, 7, -3)

    @pytest.mark.parametrize("lam", [-0.1, -0.25, -0.4, -0.45])
    def test_rounding_covers_mpmath(self, lam):
        # the log-Gamma sum rounds at the size of its terms: half of that
        # budget, for the square root, was 1.22 times short at n = 4096,
        # lam = -0.4; the whole of it covers every index up to 4096 (worst
        # 0.61 of it)
        import mpmath

        r = Complementary(lam)
        ns = list(range(40)) + [64, 100, 511, 1000, 2047, 3001, 4095, 4096]
        with mpmath.workdps(50):
            def h(k):
                return (mpmath.gamma(abs(k) + 1 + mpmath.mpf(lam))
                        / mpmath.gamma(abs(k) - mpmath.mpf(lam)))

            for m in (0, 3):
                for n in ns:
                    want = mpmath.sqrt(h(n) / h(m))
                    got, rel = r.normalizer(n, m)
                    assert abs(got - want) <= rel * want, (n, m)

    @pytest.mark.parametrize("lam", [-0.1, -0.25, -0.49])
    @pytest.mark.parametrize("m", [0, 3, -7])
    def test_array_equals_scalar_calls(self, lam, m):
        ns = np.arange(-8192, 8193)
        column, column_rel = complementary_normalizer(lam, ns, m)
        scalar, scalar_rel = zip(*(complementary_normalizer(lam, int(n), m)
                                   for n in ns))
        assert all(type(v) is float for v in scalar[:3] + scalar_rel[:3])
        assert column.tolist() == list(scalar)
        assert column_rel.tolist() == list(scalar_rel)
        assert list(scalar) == [_normalizer_per_index(lam, int(n), m)
                                for n in ns]

    def test_domain_test_is_the_per_index_test(self):
        ks = np.arange(-64, 65)
        near = np.array([-2.0, -1.0, 0.0])
        sweep = np.concatenate([np.linspace(-3.0, 1.0, 801),
                                near - 1e-9, near + 1e-9])
        for lam in sweep.tolist():
            try:
                complementary_normalizer(lam, ks)
                accepted = True
            except NormalizationError:
                accepted = False
            assert accepted == _positive_on(lam, ks.tolist()), lam

    @pytest.mark.parametrize("lam", [-1.0 + 1e-12, -1e-12])
    def test_domain_ends_within_the_pole_tolerance(self, lam):
        # the per-index test took a Gamma argument within 1e-12 of a pole
        # for the pole and refused; the form is positive there
        assert not _positive_on(lam, [0])
        values, _ = complementary_normalizer(lam, np.arange(-64, 65))
        assert np.all(np.isfinite(values)) and np.all(values > 0.0)


def _normalizer_per_index(lam, n, m):
    """complementary_normalizer as it was, one index at a time, which the
    array form must reproduce to the bit."""
    def log_h(k):
        return log_gamma_difference(abs(int(k)) - lam, 1.0 + 2.0 * lam)[0]

    return math.exp(0.5 * (log_h(n) - log_h(m)))


def _positive_on(lam, ks):
    """The per-index positivity test the domain test replaces: the form
    G(lam-k+1)/G(-lam-k) is positive and real on every index k."""
    for k in ks:
        try:
            h, _ = gamma_ratio_signed([lam - k + 1.0], [-lam - k])
        except PoleError:
            return False
        if h.real <= 0.0 or abs(h.imag) > 1e-9 * abs(h):
            return False
    return True


def _disc_samples_reference(ell, q, d_m, x, radius, theta):
    """_disc_samples as first written, with np.exp(1j theta) and w^q formed
    for every q; frozen here for the bit guard."""
    A = 1.0 / math.sqrt(1.0 - x)
    B = math.sqrt(x) / math.sqrt(1.0 - x)
    e_pos = np.exp(1j * theta)
    z = radius * e_pos
    den = A - B * z
    w = (A * z - B) / den
    inverse = den ** (-ell)
    power = w ** q
    fvals = d_m * inverse
    return fvals * power


def _same_bits(a, b):
    """Equal to the bit, signed zeros and NaN payloads included."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


def _half_grid(samples, theta):
    """(values at theta, values at -theta) on fresh contiguous arrays."""
    pos = np.empty(theta.size, dtype=complex)
    neg = np.empty(theta.size, dtype=complex)
    samples(theta, pos, neg)
    return pos, neg


def _fresh_grid(samples, big_n):
    """The N-point grid from one fresh evaluation at the angles k <= N/2,
    the point N - k taking the value at -theta_k."""
    pos, neg = _half_grid(
        samples, 2.0 * np.pi * np.arange(big_n // 2 + 1) / big_n)
    return np.concatenate([pos, neg[big_n // 2 - 1:0:-1]])


def _grids_of(monkeypatch):
    """Spy on np.fft.fft: the list of every grid it transforms."""
    grids = []
    original = np.fft.fft

    def spy(vals):
        grids.append(vals.copy())
        return original(vals)

    monkeypatch.setattr(np.fft, "fft", spy)
    return grids


class TestOracleSamples:
    """Each oracle sample depends on its angle alone, so a doubling can
    keep the grid it has and evaluate only the new odd angles below pi; the
    points above pi come with them, by conjugate symmetry."""

    # two half grids, and the 16384 odd angles below pi of N = 65536, at
    # numpy's 256 KiB threshold of temporary reuse
    _BIT_GRIDS = [2.0 * np.pi * np.arange(n // 2 + 1) / n
                  for n in (64, 1024)] \
        + [2.0 * np.pi * np.arange(1, 32768, 2) / 65536]

    @pytest.mark.parametrize("ell", [2, 3, 4, 7])
    def test_disc_samples_keep_the_reference_bits(self, ell):
        for q in (0, 1, 2, 5):
            for x in (1e-6, 0.9, 0.9999):
                pole = 1.0 / math.sqrt(x)
                for radius in (0.5, 0.999 * pole):
                    args = (ell, q, (-1.0) ** q * 0.7, x, radius)
                    for theta in self._BIT_GRIDS:
                        pos, neg = _half_grid(
                            functools.partial(_disc_samples, *args), theta)
                        ref = _disc_samples_reference(*args, theta)
                        assert _same_bits(pos, ref), (q, x, radius)
                        assert _same_bits(neg, np.conj(ref)), (q, x, radius)

    @staticmethod
    def _check_halves(samples, big_n):
        """The grid of a fresh half-circle evaluation at N equals its
        halves: the kept even points (a fresh grid at N/2) and the new odd
        points below pi and, from the same call, above it."""
        full = _fresh_grid(samples, big_n)
        pos, neg = _half_grid(
            samples, 2.0 * np.pi * np.arange(1, big_n // 2, 2) / big_n)
        assert _same_bits(full[0::2], _fresh_grid(samples, big_n // 2))
        assert _same_bits(full[1:big_n // 2:2], pos)
        assert _same_bits(full[:big_n // 2:-2], neg)

    @pytest.mark.parametrize("big_n", [8192, 16384, 32768])
    @pytest.mark.parametrize("x", [0.99, 0.9999])
    @pytest.mark.parametrize("m", [0, 2, -3])
    @pytest.mark.parametrize("r", [Principal(0.0, -0.5 + 1.0j),
                                   Principal(0.5, -0.5 + 0.7j),
                                   Principal(0.0, -0.3 + 0.5j)],
                             ids=str)
    def test_circle_full_grid_equals_its_halves(self, r, m, x, big_n):
        self._check_halves(
            functools.partial(_circle_samples, *r.circle, m, x), big_n)

    @pytest.mark.parametrize("big_n", [8192, 16384, 32768])
    @pytest.mark.parametrize("ell, q", [(2, 0), (2, 1), (3, 2), (4, 5)])
    def test_disc_full_grid_equals_its_halves(self, ell, q, big_n):
        self._check_halves(
            functools.partial(_disc_samples, ell, q, -0.7, 0.99, 1.002),
            big_n)

def _settled_reference(samples, bins, finish, size):
    """_settled_column's levels written out plainly, frozen here for the
    bit guard: the first spectrum from a fresh grid, each doubling's odd
    points from a fresh evaluation of its odd angles, joined to the kept
    bins by the radix-2 split with np.exp for the twiddle.  Returns
    (values, move, N) of the level that settles, or (None, None, N) after
    three doublings."""
    big_n = 1 << (int(size) - 1).bit_length()
    spec = np.fft.fft(_fresh_grid(samples, big_n))[bins % big_n] / big_n
    prev = finish(spec)
    for _ in range(3):
        pos, neg = _half_grid(
            samples, 2.0 * np.pi * np.arange(1, big_n, 2) / (2 * big_n))
        odd = np.concatenate([pos, neg[::-1]])
        twiddle = np.exp(-1j * np.pi * bins / big_n)
        spec = 0.5 * (spec + twiddle * (np.fft.fft(odd)[bins % big_n]
                                        / big_n))
        big_n *= 2
        cur = finish(spec)
        move = float(np.max(np.abs(cur - prev)))
        if move <= ORACLE_TOL:
            return cur, move, big_n
        prev = cur
    return None, None, big_n


def _settled_calls(monkeypatch):
    """Spy on reps._settled_column: per call, its arguments, the spectrum
    it finished at each level and its result (None if it raised)."""
    calls = []
    real = reps._settled_column

    def spy(samples, bins, finish, size, oracle, request):
        call = {"args": (samples, bins, finish, size), "specs": [],
                "result": None}
        calls.append(call)

        def finishing(spec):
            call["specs"].append(spec.copy())
            return finish(spec)

        call["result"] = real(samples, bins, finishing, size, oracle,
                              request)
        return call["result"]

    monkeypatch.setattr(reps, "_settled_column", spy)
    return calls


class TestOracleSplit:
    """A doubling transforms only its N new odd samples and updates each
    kept bin k by X_2N[k] = (X_N[k mod N] + e^(-2 pi i k/2N) Y[k mod N] /
    N) / 2; no grid of 2N points is built."""

    # circle columns (the Moebius branch, m != 0, the normalizer-scaled
    # complementary one), disc windows, and a circle column that does not
    # settle
    CASES = [
        (Principal(0.5, -0.5 + 0.7j), 0, 0.99, 1024),
        (Principal(0.0, -0.5 + 1.0j), 2, 0.99, 128),
        (Complementary(-0.25), 0, 0.9, 128),
        (Discrete(2), 1.0, 0.9, 40.0),
        (Discrete(3), 3.5, 0.5, 20.5),
        (Principal(0.0, -0.5 + 1.0j), 0, 0.999, 128),
    ]

    @staticmethod
    def _run(r, m, x, n_max):
        if (r, m, x, n_max) == TestOracleSplit.CASES[-1]:
            with pytest.raises(ConvergenceError, match="N=16384"):
                coef_oracle(r, m, x, n_max)
            return None
        return coef_oracle(r, m, x, n_max)

    @pytest.mark.parametrize("r, m, x, n_max", CASES, ids=str)
    def test_column_is_the_reference_split(self, r, m, x, n_max,
                                           monkeypatch):
        calls = _settled_calls(monkeypatch)
        out = self._run(r, m, x, n_max)
        assert calls
        for call in calls:
            want, move, big_n = _settled_reference(*call["args"])
            if want is None:
                assert call["result"] is None
                continue
            got, got_move, parts = call["result"]
            assert _same_bits(got, want)
            assert got_move == move
            assert sum(part.size for _, part in parts) == big_n
        if out is not None and not isinstance(r, Discrete):
            # each entry has the bits of Python's s * v
            values, _, _ = _settled_reference(*calls[0]["args"])
            ns = np.arange(-n_max, n_max + 1)
            scale = [r.normalizer(int(n), m)[0] for n in ns]
            assert [out[0][int(n)] for n in ns] == [
                s * complex(v) for s, v in zip(scale, values)]

    @pytest.mark.parametrize("r, m, x, n_max", CASES, ids=str)
    def test_every_level_within_the_fft_floor(self, r, m, x, n_max,
                                              monkeypatch):
        # against the FFT of a fresh grid of every level's N, within the
        # FFT's rounding bound 4 eps log2(N) rms|samples| that the disc
        # floor charges, far inside the circle floor 2e-16 max|samples|
        # sqrt(N)
        calls = _settled_calls(monkeypatch)
        self._run(r, m, x, n_max)
        for call in calls:
            samples, bins, _, size = call["args"]
            big_n = 1 << (int(size) - 1).bit_length()
            assert len(call["specs"]) >= 2
            for spec in call["specs"]:
                grid = _fresh_grid(samples, big_n)
                want = np.fft.fft(grid)[bins % big_n] / big_n
                floor = 4.0 * 2.0 ** -52 * math.log2(big_n) * math.sqrt(
                    float(np.mean(np.abs(grid) ** 2)))
                assert float(np.max(np.abs(spec - want))) <= floor, big_n
                big_n *= 2

    def test_each_angle_is_sampled_once(self, monkeypatch):
        r = Principal(0.5, -0.5 + 0.7j)
        sizes = []

        def samples(theta, pos, neg):
            sizes.append(theta.size)
            _circle_samples(*r.circle, 0, 0.99, theta, pos, neg)

        grids = _grids_of(monkeypatch)
        with pytest.raises(ConvergenceError, match="N=128"):
            # the tolerance is never met at this size: all three doublings
            _settled_column(samples, np.arange(-4, 5), lambda spec: spec,
                            16, "circle", "test")
        # N/2 + 1 angles on the first grid of N = 16, then the N/4 new odd
        # angles below pi of each finer grid; one FFT of the first grid and
        # one of the N odd points of each grid of 2N
        assert sizes == [9, 8, 16, 32]
        assert [g.size for g in grids] == [16, 16, 32, 64]

    @pytest.mark.parametrize("r, m, x, n_max", [
        (Discrete(2), 1.0, 0.9, 40.0),
        (Discrete(3), 3.5, 0.5, 20.5),
        (Principal(0.0, -0.5 + 1.0j), 0, 0.99, 128),
        (Complementary(-0.25), 0, 0.9, 64),
    ], ids=str)
    def test_parts_are_the_fresh_grid_and_symmetric(self, r, m, x, n_max,
                                                    monkeypatch):
        # the parts are what the FFTs transform, and interleave into a
        # fresh grid of the final N; the first grid and each odd half are
        # symmetric: the disc function takes conjugate values at conjugate
        # points, a circle function with sigma = m = 0 one value at +-theta
        calls = _settled_calls(monkeypatch)
        grids = _grids_of(monkeypatch)
        coef_oracle(r, m, x, n_max)
        parts = [part for call in calls for part in call["result"][2]]
        assert len(grids) == len(parts)
        for vals, (offset, part) in zip(grids, parts):
            assert _same_bits(vals, part)
            size = part.size
            if offset == 0.0:
                low, high = part[1:size // 2], part[:size // 2:-1]
            else:
                low, high = part[:size // 2], part[:size // 2 - 1:-1]
            want = np.conj(low) if isinstance(r, Discrete) else low
            assert _same_bits(high, want)
        for call in calls:
            full = None
            for offset, part in call["result"][2]:
                assert offset == (0.0 if full is None else 0.5)
                if full is not None:
                    part = np.stack([full, part], axis=1).ravel()
                full = part
            assert _same_bits(full, _fresh_grid(call["args"][0], full.size))


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


class TestCartanX:
    def test_coordinate_kept(self):
        for x in (0.0, 0.25, 0.97, np.float64(0.5)):
            assert _cartan_x(x) == x

    @pytest.mark.parametrize("x", [1.0, -0.1, math.nan, math.inf,
                                   math.tanh(40.0) ** 2])
    def test_off_the_flow_refused(self, x):
        with pytest.raises(PreconditionError):
            _cartan_x(x)


class TestCoefValueContract:
    def test_error_estimates_are_honest(self):
        # closed form vs oracle, the reported budgets must cover the gap
        r = Principal(0.0, -0.5 + 1.0j)
        column, oracle_err = coef_oracle(r, 0, 0.9, n_max=32)
        for n in (0, 8, 31):
            cv = coef(r, n, 0, 0.9)
            assert isinstance(cv, CoefValue)
            assert abs(cv.value - column[n]) <= 50.0 * (
                cv.err_est + oracle_err) + 1e-13 * abs(column[n])

    @pytest.mark.parametrize("r,n", [(Principal(0.0, -0.5 + 1.0j), 3),
                                     (Discrete(2), 3.0)],
                             ids=lambda v: repr(v).replace(" ", ""))
    def test_non_finite_value_raises(self, r, n, monkeypatch):
        def nan_form(self, n, m, xs, omx=None, slope=False):
            return np.full(1, complex(math.nan)), np.zeros(1), "ode", None

        monkeypatch.setattr(type(r), "closed_form", nan_form)
        with pytest.raises(ConvergenceError):
            coef(r, n, r.m_ref, 0.99)

    def test_both_indices_large_at_the_boundary(self):
        # Re a = Re b = 128.5: the Euler integrand overflowed here and coef
        # raised on a nan; the ODE branch steps through it
        import mpmath

        r = Principal(0.0, -0.5 + 1.0j)
        cv = coef(r, 128, -128, 0.9999)
        assert cv.method == "ode" and cmath.isfinite(cv.value)
        with mpmath.workdps(40):
            lam, x = mpmath.mpc(-0.5, 1.0), mpmath.mpf(0.9999)
            a = b = -lam + 128
            want = complex(mpmath.gammaprod([lam + 129], [257, lam - 127])
                           * x ** 128 * (1 - x) ** (-lam)
                           * mpmath.hyp2f1(a, b, 257, x))
        assert abs(cv.value - want) <= cv.err_est <= 1e-9 * abs(want)


if __name__ == "__main__":
    import mpmath

    mpmath.mp.dps = 30
    for sigma, lam in BOUNDARY_LAMS.items():
        lam, s = mpmath.mpmathify(lam), mpmath.mpf(sigma)
        for n, m in BOUNDARY_NM:
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


def test_model_is_decided_on_the_family_classes():
    # outside the circle classes no module reads .circle or calls isinstance
    # with a family class: each family's model, oracle column and reference
    # factor are methods, so no caller tests which family it holds
    families = {"Principal", "Complementary", "Discrete"}
    circle_classes = {"_Circle", "Principal", "Complementary"}

    def found(node):
        if isinstance(node, ast.ClassDef) and node.name in circle_classes:
            return []
        here = []
        if isinstance(node, ast.Attribute) and node.attr == "circle":
            here.append(".circle")
        if (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "isinstance"
                and len(node.args) == 2
                and families & {getattr(n, "id", getattr(n, "attr", None))
                                for n in ast.walk(node.args[1])}):
            here.append("isinstance")
        return here + [w for child in ast.iter_child_nodes(node)
                       for w in found(child)]

    seen = {(path.name, what)
            for path in Path(repnorm.__file__).parent.glob("*.py")
            for what in found(ast.parse(path.read_text("utf-8")))}
    assert seen == set()
    assert not hasattr(Discrete(2), "circle")
