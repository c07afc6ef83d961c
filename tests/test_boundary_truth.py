"""The circle closed form above X_CUT, where the Taylor continuation of the
hypergeometric ODE evaluates it, against mpmath: every frozen value must
lie within the err that comes with it.

Two sets.  Deep in the boundary layer, at 1-x = omx in {1e-16, 1e-25,
1e-30, 1e-40, 1e-60}, which the Kronrod quadrature of the integrals
reaches through the omx of the circle closed_form, the reference columns
n = 4 and 64 of the three circle families of the integral ladder, by
mpmath at 120 digits at x = 1 - omx exactly.  The Euler integral's window
cut gave relative errors of 1.4e-8 at 1e-25, 8.5e-6 at 1e-30 and 0.47 at
1e-40 against an err of 2e-10 there.  And the sigma = 1/2 reference
column at n in {1024, 2048, 4096} and x in {0.981, 0.985, 0.99, 0.999,
0.9999}, within 1e-11 of 40-digit mpmath, with the slope d log|coef|/dx
within 1e-13 of its scale.  And the band from X_CUT to 0.98, which the
scans' root steps near the kappa <= 64 peaks and the first Kronrod round
of the integrals reach: the reference columns n = 4, 64 and 256 of the
four families at x in {0.91, 0.95, 0.97}, and ten rows off them with
|n - m| up to 128, by mpmath at 40 digits.  Regenerate the frozen values
with

    PYTHONPATH=src python tests/test_boundary_truth.py
"""

import numpy as np
import pytest

from repnorm.reps import Principal, coef, coef_vec

FAMILIES = {"principal-even": (0.0, -0.5 + 1.0j),
            "principal-log": (0.0, -0.5),
            "complementary": (0.0, -0.25),
            "principal-odd": (0.5, -0.5 + 0.7j)}
DEEP_POINTS = [(fam, n, omx)
               for fam in ("principal-even", "principal-log", "complementary")
               for n in (4, 64)
               for omx in ("1e-16", "1e-25", "1e-30", "1e-40", "1e-60")]
COLUMN_POINTS = [("principal-odd", n, x) for n in (1024, 2048, 4096)
                 for x in ("0.981", "0.985", "0.99", "0.999", "0.9999")]
BAND_POINTS = [(fam, n, 0, x) for fam in FAMILIES for n in (4, 64, 256)
               for x in ("0.91", "0.95", "0.97")] + [
    ("principal-even", 0, -128, "0.91"), ("principal-even", 0, -128, "0.97"),
    ("principal-odd", 0, -128, "0.95"), ("principal-even", -3, -40, "0.95"),
    ("principal-odd", 2, 7, "0.97"), ("principal-even", 16, 2, "0.95"),
    ("principal-odd", 16, 2, "0.91"), ("complementary", 64, 3, "0.97"),
    ("principal-log", 40, 30, "0.95"), ("principal-even", 130, 2, "0.91")]
# [DERIVED] (family, n, omx, re, im) by mpmath at 120 digits, at
# x = 1 - float(omx) exactly; see _reference_deep
DEEP = [
    ("principal-even", 4, "1e-16", "0.000000003675062913502139513885149398658917455823", "0.000000003691543016253270184351002086545280314369"),
    ("principal-even", 4, "1e-25", "-8.140226625926892306498856184000138426744e-14", "-8.17672988433912052311992728796426460803e-14"),
    ("principal-even", 4, "1e-30", "1.374122254727049211834757840741820082877e-16", "1.380284237932103244174824019399855150513e-16"),
    ("principal-even", 4, "1e-40", "2.516629028472845809657464826331187669569e-21", "2.527914360439091754992251664117426179298e-21"),
    ("principal-even", 4, "1e-60", "1.513459217818672440674894280683262657662e-31", "1.520246030454630613054602326784981324289e-31"),
    ("principal-even", 64, "1e-16", "0.00000000157002502991431726550457918991630752866", "0.000000003697441989655453172264640062555460622131"),
    ("principal-even", 64, "1e-25", "-6.172317635624378482010795822894891064491e-14", "-1.45359379402339358354591057699783258347e-13"),
    ("principal-even", 64, "1e-30", "-6.588575780180735654228240887585036572184e-18", "-1.551623463162027571304904347634073294865e-17"),
    ("principal-even", 64, "1e-40", "1.932119636393158863514998981753363566755e-21", "4.550182408893037909353262158335819377321e-21"),
    ("principal-even", 64, "1e-60", "1.691917322964348230361813644687119758133e-33", "3.984500905246861323392484206518800293923e-33"),
    ("principal-log", 4, "1e-16", "0.0000001154241598328436165877679382125648805841", "0.0"),
    ("principal-log", 4, "1e-25", "0.000000000005736003704441749442311877389902480915397", "0.0"),
    ("principal-log", 4, "1e-30", "2.180351436759635075431516718130219693484e-14", "0.0"),
    ("principal-log", 4, "1e-40", "2.913287035639062627361251263860119266782e-19", "0.0"),
    ("principal-log", 4, "1e-60", "4.379158233397918146054079558864819175879e-29", "0.0"),
    ("principal-log", 64, "1e-16", "0.0000001066069049098464827088860486611888151664", "0.0"),
    ("principal-log", 64, "1e-25", "0.000000000005457177621771714438969645878242671978893", "0.0"),
    ("principal-log", 64, "1e-30", "2.092178887529663734251518514481725517651e-14", "0.0"),
    ("principal-log", 64, "1e-40", "2.825114486409091292972458920559427908354e-19", "0.0"),
    ("principal-log", 64, "1e-60", "4.290985684167946809851552108891780558004e-29", "0.0"),
    ("complementary", 4, "1e-16", "0.00001992782802540064882166955606118649471254", "0.0"),
    ("complementary", 4, "1e-25", "0.0000001120624137161451092990791768283960559678", "0.0"),
    ("complementary", 4, "1e-30", "0.000000006301732623319307511059476850269091389026", "0.0"),
    ("complementary", 4, "1e-40", "0.00000000001992782829507694891836579993934302717398", "0.0"),
    ("complementary", 4, "1e-60", "1.992782829507694912359610227471770638714e-16", "0.0"),
    ("complementary", 64, "1e-16", "0.000004986759213053143066777959238805382220598", "0.0"),
    ("complementary", 64, "1e-25", "0.00000002804260935918819454970493833300129036845", "0.0"),
    ("complementary", 64, "1e-30", "0.000000001576951810886805767854291974349576657582", "0.0"),
    ("complementary", 64, "1e-40", "0.000000000004986759482729443536272200151984501120138", "0.0"),
    ("complementary", 64, "1e-60", "4.986759482729443587831426439177231542481e-17", "0.0"),
]
# [DERIVED] (family, n, x, re, im, slope) by mpmath at 40 digits (80
# working digits) at the double nearest to x; see _reference_column
COLUMN = [
    ("principal-odd", 1024, "0.981", "0.000004357048578680408184357388473243321591079", "0.00000943031513772777113561388307665460222893", "494.3358321606945477904933327674953408073"),
    ("principal-odd", 1024, "0.985", "0.00003089669567387458225937778246313406977206", "0.00006687223510538679051318981520511592400872", "484.4569476945622147038751502222826147721"),
    ("principal-odd", 1024, "0.99", "0.0003321098065593621034416556096265315457275", "0.0007188123059975459580934424225154271298913", "462.7675731861416455509297990549167319391"),
    ("principal-odd", 1024, "0.999", "0.00778268657923014938117782320637082859677", "0.01684470249412114053457779085639827998054", "-308.5977355489523648057361806979573268937"),
    ("principal-odd", 1024, "0.9999", "-0.0002429442271385983821420861104375396748476", "-0.000525823979567051633851424525208342608358", "76700.54982339143654061374885677925594395"),
    ("principal-odd", 2048, "0.981", "0.0000000004531862253620560531267880879070103888397", "0.0000000003466318421506946376274610110982888632777", "1016.870309054112452176833774207368786176"),
    ("principal-odd", 2048, "0.985", "0.00000002589186424933306453221247420593936707059", "0.00000001980409840191378020752264163572414308333", "1005.229309881351764229993273881639613757"),
    ("principal-odd", 2048, "0.99", "0.000003745601821008205110991283327718402053764", "0.000002864925689525993108459970465584659141011", "982.0554971595708657840666656249213918097"),
    ("principal-odd", 2048, "0.999", "0.01046266153178231258034268421141392669686", "0.008002651973068031697076305798307095291576", "343.4554954319194938758596127070903910716"),
    ("principal-odd", 2048, "0.9999", "0.002089156325499747402684393202844353689312", "0.001597948183597607927493911179871179999567", "-21419.02764840194182958541093755886883457"),
    ("principal-odd", 4096, "0.981", "1.666757196524113450641987705940336585708e-18", "2.824005146861129501993326128793265645909e-19", "2061.022604738307554621260829464184746609"),
    ("principal-odd", 4096, "0.985", "6.153117172630516731431664021576380882392e-15", "1.042529445859620172302671169658891129495e-15", "2045.331123874857283872667644194581485841"),
    ("principal-odd", 4096, "0.99", "0.0000000001595253773714027297333196135184306756757", "0.00000000002702856107003991880131124222509178873207", "2017.518152941085801928697689275065762689"),
    ("principal-odd", 4096, "0.999", "0.005127824749158824058411542653912648512205", "0.0008688130169184422469544260828156447298813", "1449.40216053556722765968345402077648503"),
    ("principal-odd", 4096, "0.9999", "0.005034307043759306608440105878750800639551", "0.0008529682086931273854023253148880918666461", "-10126.4206733357522733414139151507614033"),
]
# [DERIVED] (family, n, m, x, re, im) by mpmath at 40 digits (80 working
# digits) at the double nearest to x; see _reference_band
BAND = [
    ("principal-even", 4, 0, "0.91", "-0.1090915958618959719414278786612012221695", "-0.1095807958433394516362324879825519002959"),
    ("principal-even", 4, 0, "0.95", "-0.04211171827179852685805552997694882242721", "-0.04230056005777071756145488212931182163092"),
    ("principal-even", 4, 0, "0.97", "0.002503075501039331233309497810878108297425", "0.002514300054855651104310885693438099814453"),
    ("principal-even", 64, 0, "0.91", "0.003825819284563085606989230685782265022607", "0.009009884936897553288143519531186953126828"),
    ("principal-even", 64, 0, "0.95", "0.01334455110709928107329431919046301919701", "0.03142669871905467116668807714921403925515"),
    ("principal-even", 64, 0, "0.97", "0.02201151487177763504037710343160563233296", "0.05183758079785370160044670639263238504411"),
    ("principal-even", 256, 0, "0.91", "0.0000006378551357657554737184552248379760425837", "-0.0000001406309166854745991924987918569941010615"),
    ("principal-even", 256, 0, "0.95", "0.0001510191563925001533118097446154410675703", "-0.00003329590248583297555172312166996342831218"),
    ("principal-even", 256, 0, "0.97", "0.002056856603446733417288860246928122022415", "-0.0004534848328626018516138472396806772061235"),
    ("principal-log", 4, 0, "0.91", "0.1765716299349002945174155438268578760152", "0.0"),
    ("principal-log", 4, 0, "0.95", "0.1729731975670479483941365884033529174068", "0.0"),
    ("principal-log", 4, 0, "0.97", "0.1619501286803313120456004906070817966886", "0.0"),
    ("principal-log", 64, 0, "0.91", "0.003326099230891311835457022943984368154318", "0.0"),
    ("principal-log", 64, 0, "0.95", "0.01285205183734913898838963942862634511183", "0.0"),
    ("principal-log", 64, 0, "0.97", "0.02425362075269741063211963362672480636876", "0.0"),
    ("principal-log", 256, 0, "0.91", "0.0000001996525195521573074524211577464233161403", "0.0"),
    ("principal-log", 256, 0, "0.95", "0.00004877578218040419911642706225648543355628", "0.0"),
    ("principal-log", 256, 0, "0.97", "0.0006943821839943031547428960746006688964782", "0.0"),
    ("complementary", 4, 0, "0.91", "0.06552818440374001035858589002936457420711", "0.0"),
    ("complementary", 4, 0, "0.95", "0.06604299981990388339386903875914640452312", "0.0"),
    ("complementary", 4, 0, "0.97", "0.06367760771518954005531712084750718819306", "0.0"),
    ("complementary", 64, 0, "0.91", "0.0005801202576612370220988446121092418921076", "0.0"),
    ("complementary", 64, 0, "0.95", "0.002255616147745683784725007787013696336734", "0.0"),
    ("complementary", 64, 0, "0.97", "0.004290752380664820147645623479916215539346", "0.0"),
    ("complementary", 256, 0, "0.91", "0.00000002446193652331981154922980237552448361339", "0.0"),
    ("complementary", 256, 0, "0.95", "0.000005987825667359292430626203692729629121315", "0.0"),
    ("complementary", 256, 0, "0.97", "0.00008547841850344835915474385044283903241035", "0.0"),
    ("principal-odd", 4, 0, "0.91", "0.03506867096055985305650015866221417169776", "-0.1561498345897623694651780582737288766592"),
    ("principal-odd", 4, 0, "0.95", "0.01566813121152253616020943584486547520445", "-0.06976529278116899542386811832716863814432"),
    ("principal-odd", 4, 0, "0.97", "0.003165560635989002340474232297712730249077", "-0.01409525243341740865620311627191982809816"),
    ("principal-odd", 64, 0, "0.91", "-0.01931724395102671586979264424739497898517", "0.001314050484860786959507160673555888798078"),
    ("principal-odd", 64, 0, "0.95", "-0.05386414242430405505396413922813624606848", "0.003664094249092156056596401505292303984289"),
    ("principal-odd", 64, 0, "0.97", "-0.07506786148088584128581502947181150644802", "0.005106471711311464655730983091891838857357"),
    ("principal-odd", 256, 0, "0.91", "-0.00000122342126477109878979000323219575442642", "0.00000205693622831282518329483520859762837403"),
    ("principal-odd", 256, 0, "0.95", "-0.0002209362818754804901690382448091411810227", "0.0003714598196259386093528737450270177641671"),
    ("principal-odd", 256, 0, "0.97", "-0.002406303212439182629820409575524961387722", "0.004045713767201648255603807978688044825273"),
    ("principal-even", 0, -128, "0.91", "0.0003276970634818363980721496556568564028317", "-0.0001689958760463243151559611886841171009208"),
    ("principal-even", 0, -128, "0.97", "0.01645061496826990161986655237803044502257", "-0.008483707661352425850516460527703905565062"),
    ("principal-odd", 0, -128, "0.95", "0.000561587242380182197619555207182486375481", "-0.000926500746803100441384982275962342333022"),
    ("principal-even", -3, -40, "0.95", "0.03420072497823897147776557137274049499095", "-0.02207791181527609853338171091422793790904"),
    ("principal-odd", 2, 7, "0.97", "0.07082324943096061940257833509579314815235", "0.06696226860399202444885928052814465763545"),
    ("principal-even", 16, 2, "0.95", "0.03921417329351561513871139586215675974308", "0.07866154068587861282427809471771709753595"),
    ("principal-odd", 16, 2, "0.91", "-0.03051915466949738039714888524356549626287", "0.1134892999617780274753041458674338917114"),
    ("complementary", 64, 3, "0.97", "0.02175887902544429654863412636045480557357", "0.0"),
    ("principal-log", 40, 30, "0.95", "-0.03537460978966011163866205662215960289655", "0.0"),
    ("principal-even", 130, 2, "0.91", "-0.01129930170097025893383107610693842206055", "0.01706024176456740559198363248807443236301"),
]


def test_every_point_is_frozen():
    assert [p[:3] for p in DEEP] == DEEP_POINTS
    assert [p[:3] for p in COLUMN] == COLUMN_POINTS
    assert [p[:4] for p in BAND] == BAND_POINTS


@pytest.mark.parametrize("fam,n,omx,re,im", DEEP,
                         ids=[f"{p[0]}-{p[1]}-omx{p[2]}" for p in DEEP])
def test_deep_in_the_boundary_layer(fam, n, omx, re, im):
    ref = complex(float(re), float(im))
    om = np.array([float(omx)])
    value, err, method, _ = Principal(*FAMILIES[fam]).closed_form(
        n, 0, 1.0 - om, omx=om)
    assert method == "ode"
    # the values are within 5.3e-13; err is at most 1.6e-11 of |value|
    # but in troughs of the oscillation in log(1-x) of principal-even:
    # 1.3e-10 at (64, 1e-30) and 1.0e-9 at (64, 1e-60)
    assert abs(value[0] - ref) <= err[0] <= 1e-8 * abs(ref)


@pytest.mark.parametrize("fam,n,x,re,im,slope", COLUMN,
                         ids=[f"{p[0]}-{p[1]}-x{p[2]}" for p in COLUMN])
def test_odd_reference_column(fam, n, x, re, im, slope):
    ref = complex(float(re), float(im))
    r = Principal(*FAMILIES[fam])
    cv = coef(r, n, 0, float(x))
    assert cv.method == "ode"
    assert abs(cv.value - ref) <= min(cv.err_est, 1e-11 * abs(ref))
    _, slopes, _ = coef_vec(r, n, 0, np.array([float(x)]), slope=True)
    # the slope's terms n/(2x) and lam/(1-x) set its scale
    scale = n / (2.0 * float(x)) + abs(FAMILIES[fam][1]) / (1.0 - float(x))
    assert abs(slopes[0] - float(slope)) <= 1e-13 * scale


@pytest.mark.parametrize("fam,n,m,x,re,im", BAND,
                         ids=[f"{p[0]}-{p[1]}-{p[2]}-x{p[3]}" for p in BAND])
def test_band_above_the_cut(fam, n, m, x, re, im):
    ref = complex(float(re), float(im))
    cv = coef(Principal(*FAMILIES[fam]), n, m, float(x))
    assert cv.method == "ode"
    assert abs(cv.value - ref) <= cv.err_est
    # err is at most 4e-11 of |ref| but at (40, 30), where the 2F1 that
    # starts the table cancels: 2e7 relative off, inside an err of 1.2e11
    if (n, m) != (40, 30):
        assert cv.err_est <= 1e-10 * abs(ref)


def _coefficient(mpmath, sigma, lam, n, x, omx, m=0):
    """pref x^(|n-m|/2) (1-x)^(-lam) 2F1(a, b; |n-m|+1; x) of the circle
    closed form, with (1-x) given as omx."""
    lam, s = mpmath.mpmathify(lam), mpmath.mpf(sigma)
    if n >= m:
        a, b = -lam - m - s, -lam + n + s
        pref = mpmath.gammaprod([lam - m - s + 1],
                                [n - m + 1, lam - n - s + 1])
    else:
        a, b = -lam - n - s, -lam + m + s
        pref = mpmath.gammaprod([lam + m + s + 1],
                                [m - n + 1, lam + n + s + 1])
    d = abs(n - m)
    return (pref * x ** (mpmath.mpf(d) / 2) * omx ** (-lam)
            * mpmath.hyp2f1(a, b, d + 1, x))


def _reference_deep(fam, n, omx):
    import mpmath

    with mpmath.workdps(120):
        om = mpmath.mpf(float(omx))
        v = _coefficient(mpmath, *FAMILIES[fam], n, 1 - om, om)
        return mpmath.nstr(v.real, 40), mpmath.nstr(v.imag, 40)


def _reference_column(fam, n, x):
    import mpmath

    with mpmath.workdps(80):
        xm = mpmath.mpf(float(x))
        v = _coefficient(mpmath, *FAMILIES[fam], n, xm, 1 - xm)
        slope = mpmath.diff(
            lambda t: mpmath.log(abs(_coefficient(
                mpmath, *FAMILIES[fam], n, t, 1 - t))), xm)
        return (mpmath.nstr(v.real, 40), mpmath.nstr(v.imag, 40),
                mpmath.nstr(slope, 40))


def _reference_band(fam, n, m, x):
    import mpmath

    with mpmath.workdps(80):
        xm = mpmath.mpf(float(x))
        v = _coefficient(mpmath, *FAMILIES[fam], n, xm, 1 - xm, m)
        return mpmath.nstr(v.real, 40), mpmath.nstr(v.imag, 40)


if __name__ == "__main__":
    print("DEEP = [")
    for fam, n, omx in DEEP_POINTS:
        re, im = _reference_deep(fam, n, omx)
        print(f'    ("{fam}", {n}, "{omx}", "{re}", "{im}"),')
    print("]")
    print("COLUMN = [")
    for fam, n, x in COLUMN_POINTS:
        re, im, slope = _reference_column(fam, n, x)
        print(f'    ("{fam}", {n}, "{x}", "{re}", "{im}", "{slope}"),')
    print("]")
    print("BAND = [")
    for fam, n, m, x in BAND_POINTS:
        re, im = _reference_band(fam, n, m, x)
        print(f'    ("{fam}", {n}, {m}, "{x}", "{re}", "{im}"),')
    print("]")
