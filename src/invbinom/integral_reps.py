"""Evaluation through the integral representations of the series.

The kernels of three independent routes of ``evaluate``:

* quad-polylog (``_polylog_kernel``) integrates Li_{n-1}(x*t*(1-t)**2) / t over the unit
  interval. It works for every n >= 1 (n >= 2 on the rim); it is the
  independent cross-check of the Cardano-root route. It takes the stride:
  m * Li_{n-1}(x*(t*(1-t)**2)**m) / t, from the Beta integral
  1/C(3mk, mk) = mk B(mk, 2mk + 1), serves 1 <= m <= POLYLOG_MAX_STRIDE in one
  quadrature, with no fold.
* quad-cardano (``_cardano_kernel``, n >= 3) runs no quadrature: it sums S(n, 1; x) as a
  power series in s = phi(x)**-3, in v = sqrt(1 - 4x/27) near the branch point x = 27/4,
  or in x (see its docstring), up to weight 8 in 2-9 us, where quad-polylog takes 0.05 ms
  at S(3, 1; 0.5) to 0.5 ms at S(3, 1; 27/4) (one Intel Xeon core). At strides 2..6 and
  weights 3..8 it sums S(n, m; x) as one series in sigma = s(x / R**(m - 1)) where
  |sigma| <= S_MAX, everywhere but within 0.9 R**(m - 1) of x = R**m: 6-8 us where ``fold``
  sums m stride-1 series in 9-41 us. ``auto`` takes it wherever it serves, ahead of direct
  summation, which decays like k**(1/2 - n) on the rim; ``fold`` calls its stride-1 kernel
  too, and serves the strides near x = R**m.
* quad-two-term (``_two_term_kernel``) evaluates the two-term log/trig form whose limits
  come from the Cardano root, each integral in s with u = limit * s**3. Restricted
  to real x, where its trigonometric integrand is derived; complex arguments
  are served by quad-polylog and by folding. Its two integrals cancel to
  S ~ x/3, so it refuses 0 < |x| < TWO_TERM_MIN_X = 0.002 (``two_term_limits``
  still serves down to 1e-306).

The quadrature kernels take ``tol`` as ``evaluate`` checked it, None for the default, and
pass it to ``adaptive_quad``, whose tolerance rule (``quad_tol``) refuses a tol below
QUAD_FLOOR. quad-cardano, like the closed forms, takes no tol: each of its series reports
its own bound.

Sign convention of the angular limit: ``two_term_limits`` returns
beta = 3*arctan(sqrt(3)/(1 - 2*phi)), which is negative on (0, 27/4] with
beta(27/4) = -pi. The opposite orientation reproduces the weight-2 values
(only beta**2 enters there) but fails every odd log power; the
route-equivalence tests at n = 3 pin this down numerically.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from itertools import accumulate, count, repeat
from operator import add, floordiv, mul

from .closed_forms import _TINY_X, _leading_terms, _radical, phi
from .errors import ArgumentError, DomainError, checked_number
from .polylog import _li, li
from .quadrature import adaptive_quad
from .series import _EPS, RADIUS_BASE, SeriesParams, _inside, _sum_kernel

_TWO_PI = 2.0 * math.pi
_TINY = 1e-300

# quad-two-term's relative error against direct-sum (n 2..6, 400 points per decade) is at
# most 2e-11 above |x| = 1.75e-3, up to 2.8e-8 just below it and 1e-6 below 4e-7: its two
# integrals cancel to S ~ x/3. The route refuses 0 < |x| below this.
TWO_TERM_MIN_X = 2e-3
TWO_TERM_FLOOR = f"quad-two-term needs |x| >= {TWO_TERM_MIN_X:g}, where it holds 1e-9 relative"
TWO_TERM_REAL = "quad-two-term is a real-argument route"


class TwoTermLimits(namedtuple("TwoTermLimits", "alpha beta phi")):
    """Integration limits of the two-term route, plus the root behind them: (alpha, beta, phi).

    alpha = log((phi**3 + 1) / (phi + 1)**3); negative on (0, 27/4), with
    alpha(27/4) = -log(4). beta as documented in the module docstring.
    """

    __slots__ = ()


def two_term_limits(x: float) -> TwoTermLimits:
    """Limits (alpha, beta) for real x with 0 < |x| <= 27/4, the closed disk of
    the n >= 2 series they serve; DomainError elsewhere (phi diverges at x = 0),
    ArgumentError for complex x or a non-number.
    """
    xc = checked_number(x)
    if xc.imag != 0.0:
        raise ArgumentError(TWO_TERM_REAL)
    xr = xc.real
    if xr == 0.0:
        raise DomainError("limits are unbounded as x -> 0 (phi diverges)")
    if not _inside(2, abs(xr), RADIUS_BASE):
        SeriesParams.require_summable(2, 1, xr)  # raises
    p = phi(xr).phi.real
    # (p**3 + 1) / (p + 1)**3 = (1 + p**-3) / (1 + 1/p)**3; the log1p form
    # stays finite for the enormous roots produced by tiny x (p**3 would
    # overflow long before x leaves the domain) and is exact at p = 1.
    alpha = math.log1p(p**-3) - 3.0 * math.log1p(1.0 / p)
    beta = 3.0 * math.atan(math.sqrt(3.0) / (1.0 - 2.0 * p))
    return TwoTermLimits(alpha, beta, p)


# The largest stride quad-polylog serves: R**m = 27**m / 4**m is exact in binary64 while
# 27**m < 2**53, that is up to m = 11, so that the rim test and the distance R**m - x
# that ``_stable_complement`` takes are exact there.
POLYLOG_MAX_STRIDE = 11


def _polylog_kernel(n: int, m: int, xc: complex, tol) -> tuple[complex, float, int]:
    """``evaluate``'s quad-polylog (value, abs_error_est, work) at summable x != 0 and
    1 <= m <= POLYLOG_MAX_STRIDE; checks nothing but ``adaptive_quad``'s tol. It integrates
    the Beta integral 1/C(3mk, mk) = mk B(mk, 2mk + 1) summed against x**k / k**n:

        S(n, m; x) = m * integral_0^1 Li_{n-1}(x * (t*(1-t)**2)**m) / t dt,  n >= 1,

    whose integrand tends to x at t = 0 for m = 1 and to 0 above (supplied explicitly). The
    factor m enters as the divisor t / m, exact at m = 1.

    At real x the integrand is a float: weights 0 and 1 through ``_stable_complement``,
    kept above _TINY so that the weight-1 log stays finite under rounding, weight 2 and
    above through ``li``'s unchecked kernel at w clamped into [-1, 1], as ``li`` clamps it.
    At x = R**m exactly, u = 1 - x*(t*(1-t)**2)**m has a double zero at t = 1/3, a log
    singularity that bisection never lands on: at weights 1 and 2 the kernel integrates in
    s on either side, t = (1 - s**6)/3 and t = (1 + 2 s**6)/3, which moves it to s = 0 as
    s**5 log(s) (S(2, 1; 27/4): 210 integrand calls, 1,785 by bisection). At weight 3 and
    above the map costs calls, so there, and at complex x on the rim, the adaptive rule
    subdivides through the singularity; away from the rim a split doubles every one-panel
    integral.
    """
    weight = n - 1
    if xc.imag != 0.0:
        edge = xc if m == 1 else 0j

        def integrand(t: float) -> complex:
            if t == 0.0:
                return edge  # limit of m Li_{n-1}(x*(t*(1-t)**2)**m) / t
            return li(weight, xc * (t * (1.0 - t) ** 2) ** m) / (t / m)

        return adaptive_quad(integrand, 0.0, 1.0, tol)

    xr = xc.real
    edge = xr if m == 1 else 0.0
    d = RADIUS_BASE**m - xr  # exact near the rim (Sterbenz)
    two_m = 2 * m

    def integrand(t: float) -> float:
        if t == 0.0:
            return edge
        if weight >= 2:
            w = xr * (t * (1.0 - t) ** 2) ** m
            if abs(w) > 1.0:  # rounded past the rim, where Crandall's log(-L) would get L > 0
                w = math.copysign(1.0, w)
            return _li(weight, w) / (t / m)
        # Weight 0 and 1 in terms of the cancellation-free complement u = 1 - w; the direct
        # difference loses every digit near t = 1/3 as x approaches R**m, where u has a
        # double zero. Where w is small, log(u) = log1p(-w) keeps the digits that u,
        # rounded near 1, drops.
        tm = t**m
        sm = (1.0 - t) ** two_m
        if weight == 1:
            w = xr * tm * sm
            if abs(w) <= 0.5:
                return -math.log1p(-w) / (t / m)
        u = max(_stable_complement(t, m) + d * tm * sm, _TINY)
        if weight == 0:
            return m * xr * t ** (m - 1) * sm / u
        return -math.log(u) / (t / m)

    if d != 0.0 or weight > 2:
        return adaptive_quad(integrand, 0.0, 1.0, tol)
    left = adaptive_quad(lambda s: 2.0 * s**5 * integrand((1.0 - s**6) / 3.0), 0.0, 1.0, tol)
    right = adaptive_quad(lambda s: 4.0 * s**5 * integrand((1.0 + 2.0 * s**6) / 3.0), 0.0, 1.0, tol)
    return left[0] + right[0], left[1] + right[1], left[2] + right[2]


# The direct sum's stop above weight 8: at 1e-15 it was 6e-15 off on the rim at n 9..12.
_DIRECT_TOL = 1e-17
# The largest stride quad-cardano serves, as folding does; its tables hold strides 1..6.
CARDANO_MAX_STRIDE = 6


def _cardano_kernel(n: int, m: int, xc: complex, max_terms: int) -> tuple[complex, float, int]:
    """``evaluate``'s quad-cardano (value, abs_error_est, work) of S(n, m; x), n >= 3, at
    summable x != 0 that ``routes`` admits, through the Cardano root q = phi(x), by a power
    series. At stride 1: for n <= 8 in s = 1/q**3 (x = 27 s / (1 + s)**2) where
    |s| <= S_MAX = 0.6, and in v = sqrt(1 - 4x/27) (s = (1 - v)/(1 + v)) past it, within 0.9
    of x = 27/4 (|v| <= 0.3652, at most _V_TERMS = 40 terms); in x above weight 8 (a direct
    sum under the term cap ``max_terms``). At strides 2..CARDANO_MAX_STRIDE, n <= 8, in
    sigma = s(x / R**(m - 1)) (x = 4 R**m sigma / (1 + sigma)**2) where |sigma| <= S_MAX,
    the only points the route serves there. Below |x| = 1e-8 its three leading terms, as
    ``fold``'s. ``work`` counts the terms. Like the closed forms it takes no tol: each
    series reports its own bound."""
    if abs(xc) < _TINY_X:
        return _leading_terms(n, m, xc)
    if n > _S_WEIGHTS:
        return _sum_kernel(n, 1, xc, _DIRECT_TOL, max_terms)
    s = _cardano_sigma(xc, m)
    if abs(s) <= S_MAX:
        return _s_series(n, m, s)
    return _v_series(n, xc)


# s = phi(x)**-3 turns x = 27 q**3 / (1 + q**3)**2 into x = 27 s / (1 + s)**2, which maps
# the unit disk one-to-one onto the plane cut along [27/4, inf), with x = 27/4 at s = 1. So
# S(n, 1; x) = sum_j a_j s**j converges on the whole closed disk |x| <= 27/4 but at that
# branch point, and fastest where direct summation is slowest: |s| <= 0.66 on the rim more
# than 5 degrees off the positive axis, 0.17 at -27/4, about |x|/27 near 0. S(n, m; x) is
# analytic on the plane cut along [R**m, inf) too, so the same map scaled by R**(m - 1),
# x = 4 R**m sigma / (1 + sigma)**2, gives S(n, m; x) = sum_j a_j(m) sigma**j with
# sigma = s(x / R**(m - 1)): the same |sigma| at the same angle and |x| / R**m. At every
# stride each a_j is (-1)**(j+1) c_j with c_j >= 1, so the tables hold the c_j and the sum
# runs in -s. x d/dx = s (1 + s) / (1 - s) d/ds turns x d/dx S(n) = S(n - 1) into
# j a_j(n) = 2 P_j - a_j(n - 1), P_j = sum_{i<=j} (-1)**(j-i) a_i(n - 1); in the c_j,
# j c_j(n) = C_j + C_(j-1) with C_j = c_1 + ... + c_j, a sum of positive terms.
# Weight 3 is a literal row per stride (_S_ROWS), from the exact
# a_j(0) = sum_{k<=j} (-1)**(j-k) C(j+k-1, j-k) (4 R**m)**k / C(3mk, mk) and the recurrence
# (tools/cardano_s_tables.py; too slow in Fractions for the import); weights 4.._S_WEIGHTS
# follow from it on the stride's first use.
_S_WEIGHTS = 8
# _S_ENVELOPES[m - 1][n - 3] bounds c_j(n) at stride m for every j >= 1. At stride 1 the
# largest are 11.925, 19.09, 33.16, 59.55, 109.15 and 202.79, at j = 2, 5, 14, 37, 97 and
# 260; past them every weight falls (checked to j = 6,000 in float, from the weight-2 closed
# form as a series in s**(1/3); asymptotically c_j ~ log(j)**(n-1) / j). At strides 2..6
# the largest lie at j = 2, 5, 13, 33-34, 87-91 and 232-244, 1.3 to 2.2 times stride 1's,
# and past them every weight falls too (checked to j = 2,000 from the weight-0 binomial sum
# in fixed point with 6,128 fraction bits, which its cancellation needs, by
# tools/cardano_s_tables.py; it prints each stride's maxima and these ceilings).
_S_ENVELOPES = (
    (12.0, 20.0, 34.0, 60.0, 110.0, 203.0),
    (16.0, 26.0, 44.0, 79.0, 143.0, 266.0),
    (20.0, 31.0, 53.0, 94.0, 171.0, 317.0),
    (22.0, 35.0, 60.0, 107.0, 195.0, 360.0),
    (25.0, 39.0, 66.0, 118.0, 216.0, 400.0),
    (27.0, 42.0, 72.0, 129.0, 235.0, 435.0),
)
# |S(n, m; x)| >= 3 |x| / (5 C(3m, m)) on the disk for n >= 3 (the terms k >= 2 sum to at most
# 0.34 of the first at n = 3, the largest, at m <= 6), and |x| = 4 R**m |s| / |1 + s|**2 >=
# 4 R**m r / (1 + r)**2 at r = |s|. The terms past K sum to at most envelope r**(K+1) / (1 - r),
# which is below eps/4 of that bound on |S| once r**K <= _S_TRUNCS[m - 1] (1 - r) /
# (envelope (1 + r)**2): 27 eps / 20 at stride 1.
_S_TRUNCS = tuple(
    3.0 * _EPS * RADIUS_BASE**m / (5 * math.comb(3 * m, m))
    for m in range(1, CARDANO_MAX_STRIDE + 1)
)
# The largest |s| the series serves; on the disk |s| passes it only within 0.9 of 27/4 (from
# x = 6.328 on the positive axis, 7.6 degrees off it on the rim), where the series in v takes
# over at stride 1; at stride m, within 0.9 R**(m - 1) of R**m, the route refuses. Its largest
# |v| there, 0.3651 on the rim, takes 40 terms, all of _V_TERMS.
S_MAX = 0.6


def _cardano_sigma(xc: complex, m: int) -> complex | float:
    """The series variable at stride m: s(x / R**(m - 1)) (``_cardano_s``). R**(m - 1) is
    exact, and dividing by it rounds each part of x once, eps/2 relative; as
    ds/s = (1 + s)/(1 - s) dx/x, that grows to at most 2 eps in s on |s| <= S_MAX."""
    return _cardano_s(xc if m == 1 else xc / RADIUS_BASE ** (m - 1))


def _s_terms(r: float, n: int, m: int) -> int:
    """Terms K of the series in s at r = |s| (0 < r < 1), weight n <= _S_WEIGHTS, stride m."""
    bound = _S_TRUNCS[m - 1] * (1.0 - r) / (_S_ENVELOPES[m - 1][n - 3] * (1.0 + r) ** 2)
    return max(1, math.ceil(math.log(bound) / math.log(r)))


# c_j(3) 2**_S_FIXED for j = 1..K = _s_terms(S_MAX, 8, m), the most terms any weight takes at
# stride m (85 at stride 1, 84 at strides 2..6): at strides 2..6 floor(c_j 2**_S_FIXED) of
# the exact c_j; at stride 1 the correctly rounded binary64 c_j, its row before the other
# strides, so that its tables keep their bits.
_S_ROWS = (
    (  # m = 1
        10376293541461622784, 13748588942436651008, 13118599691705051136, 12158876762281713664,
        11267794414035372032, 10494132034614837248, 9828733214463485952, 9253888580465809408,
        8753223495459852288, 8313341557049940992, 7923623611103108096, 7575692542315998208,
        7262907982898597888, 6979961554241216512, 6722568490316610560, 6487236158935762944,
        6271090462983320576, 6071744967478870016, 5887201447387884544, 5715773620685706240,
        5556028106261042176, 5406738286163454976, 5266847923027022848, 5135442219922520064,
        5011724609717233664, 4894997994041128960, 4784649467016762368, 4680137790072432640,
        4580983055222233088, 4486758101869163008, 4397081348272458752, 4311610771719501312,
        4230038827183460352, 4152088137188680192, 4077507818923719168, 4006070340670969344,
        3937568820089881088, 3871814693086881280, 3808635694897348096, 3747874105326021120,
        3689385218399847424, 3633036003409079296, 3578703929778255360, 3526275932674369024,
        3475647499924689920, 3426721863838017536, 3379409284024093696, 3333626409384465920,
        3289295709182225408, 3246344964550193152, 3204706813017467392, 3164318339663265792,
        3125120709377587712, 3087058835447055360, 3050081080313279488, 3014138984888086528,
        2979187023269751296, 2945182380099117056, 2912084748134327808, 2879856143916137984,
        2848460739649529344, 2817864709647368704, 2788036089873141248, 2758944649286393856,
        2730561771840029184, 2702860348105850368, 2675814675616366080, 2649400367108866560,
        2623594265944072192, 2598374368047712768, 2573719749790603776, 2549610501282241024,
        2526027664605654528, 2502953176568058368, 2480369815583456768, 2458261152340446720,
        2436611503941528064, 2415405891229779456, 2394629999045207040, 2374270139176761856,
        2354313215797264896, 2334746693187600384, 2315558565573693952, 2296737328915291136,
        2278271954499492608,
    ),
    (  # m = 2
        14007996280973190758, 18345699674797275396, 17266913872296408222, 15851208186255952903,
        14584862853741413233, 13507143864942923392, 12592507258066786823, 11810095719657122816,
        11133911306505688885, 10543576969357652927, 10023351846622353042, 9561037517502397568,
        9147092219676021334, 8773967584398965920, 8435622679950706983, 8127168622307092659,
        7844607050391183103, 7584635820226652811, 7344503064078927341, 7121896347766028863,
        6914857559391732041, 6721716866350384341, 6541040955639105940, 6371592085868735288,
        6212295405796033764, 6062212654074215084, 5920520829684546541, 5786494767547344655,
        5659492807046295470, 5538944928839326942, 5424342875642292944, 5315231878517530903,
        5211203690713926984, 5111890692839481815, 5016960880841281407, 4926113585380396886,
        4839075800266267652, 4755599020545106816, 4675456509031632666, 4598440924596216971,
        4524362257176731889, 4453046023891682205, 4384331688261793919, 4318071270766966928,
        4254128124058976257, 4192375850340140763, 4132697341879460720, 4074983928508884128,
        4019134618333386237, 3965055419887252494, 3912658735645775689, 3861862818213257061,
        3812591281700648081, 3764772661816681050, 3718340019055331662, 3673230580094839795,
        3629385413149750578, 3586749133554401748, 3545269636317939360, 3504897852788884406,
        3465587528911152421, 3427295022851312204, 3389979120035516274, 3353600863859623468,
        3318123400532348507, 3283511836682857706, 3249733108514509707, 3216755861418324326,
        3184550339075728364, 3153088281182288398, 3122342829014305641, 3092288438139867291,
        3062900797646554616, 3034156755320647584, 3006034248268328880, 2978512238518932630,
        2951570653194446365, 2925190328868902379, 2899352959776546155, 2874041049559232547,
        2849237866271800309, 2824927400389584295, 2801094325585067957, 2777723962061242185,
    ),
    (  # m = 3
        16884638374387328146, 22020820261109717806, 20621859070757626018, 18862688824716886925,
        17307757989598727046, 15993187222557164637, 14882591188275443705, 13935800710381756331,
        13119797217409453654, 12409018959286949363, 11783873012310211895, 11229259334317492588,
        10733416100293914509, 10287070010380318604, 9882820409558242912, 9514692239300502409,
        9177808897631515707, 8868150249889327133, 8582371524533991994, 8317666177079348646,
        8071660860426915552, 7842334108887635491, 7627952735048315670, 7427021601444357576,
        7238243596409020828, 7060487471739145514, 6892761793766395374, 6734193689841746194,
        6584011387352379215, 6441529775359781001, 6306138392812271711, 6177291378205533080,
        6054499014990482350, 5937320583148403367, 5825358286080498263, 5718252067598881246,
        5615675169521585232, 5517330308508031206, 5422946373072238881, 5332275559493852756,
        5245090879607845486, 5161183984952123259, 5080363261071258110, 5002452153364577101,
        4927287692077803788, 4854719189142864740, 4784607083785251210, 4716821917312226451,
        4651243420402970960, 4587759698650982801, 4526266504145874494, 4466666582595508759,
        4408869086936285569, 4352789049604872071, 4298346906685874070, 4245468068037254560,
        4194082528253653460, 4144124513977710285, 4095532163628038229, 4048247236093750410,
        4002214845361138960, 3957383218398059798, 3913703473933991718, 3871129420045514791,
        3829617368693899180, 3789125965568517676, 3749616033771048326, 3711050430034444549,
        3673393912310421257, 3636613017682297553, 3600675949668639678, 3565552474079138911,
        3531213822669150226, 3497632603914696536, 3464782720296707204, 3432639291542842897,
        3401178583328357790, 3370377940984842045, 3340215727808048254, 3310671267593923799,
        3281724791065960269, 3253357385887480065, 3225550949979901972, 3198288147892706214,
    ),
    (  # m = 4
        19340585774298212240, 25169957781603768731, 23509891402014629395, 21463969589996660919,
        19666090476937766969, 18151109378211905749, 16874094761330041020, 15787303605787904708,
        14851935021518574829, 14038125786873257270, 13323071080917673005, 12689242309694325351,
        12123013933748008412, 11613660972784932091, 11152636002854102342, 10733046199311666741,
        10349271665998913411, 9996683703420175884, 9671434325575311959, 9370297109487322441,
        9090545457776894705, 8829858450418960273, 8586247276034770491, 8357997184146951198,
        8143621266578853916, 7941823344087355329, 7751467927306059071, 7571555722578392877,
        7401203519971191726, 7239627571588285778, 7086129770228430888, 6940086090349768344,
        6800936868583658183, 6668178589235636085, 6541356908208201826, 6420060701591033478,
        6303916966467477911, 6192586434003926985, 6085759780651331939, 5983154343821501934,
        5884511264859968182, 5789592995402361738, 5698181113947792609, 5610074408232002748,
        5525087186140025935, 5443047783779029605, 5363797244185379752, 5287188144161929979,
        5213083550087771009, 5141356086337337349, 5071887102288320562, 5004565925868332795,
        4939289193253399588, 4875960245739647792, 4814488586005780392, 4754789387003094295,
        4696783047580634424, 4640394789699263291, 4585554292729534275, 4532195360880526887,
        4480255620283746529, 4429676242669090373, 4380401692928180203, 4332379498171994064,
        4285560036161370380, 4239896341226250837, 4195343925997246580, 4151860617455309020,
        4109406405965410552, 4067943306101133130, 4027435228191438962, 3987847859630812489,
        3949148555091267032, 3911306234860995773, 3874291290611088771, 3838075497959922521,
        3802631935265584083, 3767934908130909707, 3733959879154173324, 3700683402501828043,
        3668083062918572740, 3636137418824900287, 3604825949183634275, 3574129003845172001,
    ),
    (  # m = 5
        21519058347776857025, 27968748695968361307, 26082909495602835329, 23785761525252608139,
        21774073545798412116, 20082241592289358595, 18658086206634185056, 17447323583196562698,
        16406124202747924062, 15500869099725424850, 14705941452641153136, 14001682180385866366,
        13372828144768104879, 12807377118442903066, 12295771564914401449, 11830309466834267036,
        11404714998081815553, 11013822005250054456, 10653337775545599627, 10319664570352923493,
        10009763213614579141, 9721047663342056326, 9451302675756164453, 9198618873553379792,
        8961341070332103606, 8738026793011781873, 8527412723615241920, 8328387345469352433,
        8139968490768574197, 7961284790449581415, 7791560253856317458, 7630101376017970020,
        7476286299564296414, 7329555657105557789, 7189404796049567359, 7055377146945919396,
        6927058542667246082, 6804072332114126752, 6686075160941551203, 6572753314761505741,
        6463819538672865044, 6359010261792649169, 6258083167468276500, 6160815059622505348,
        6066999983674588556, 5976447567046742367, 5888981549682309633, 5804438479490398281,
        5722666551365389809, 5643524571547339207, 5566881031702107310, 5492613279297536110,
        5420606772706386138, 5350754411036761441, 5282955930024140709, 5217117356454995915,
        5153150514562394466, 5090972578665376615, 5030505667038124685, 4971676472610115129,
        4914415926629646641, 4858658891882952301, 4804343882460067326, 4751412807405582360,
        4699810735894814059, 4649485681840058442, 4600388406062781664, 4552472234370365416,
        4505692890054204075, 4460008339482826269, 4415378649602087235, 4371765856276751379,
        4329133842516018762, 4287448225721519074, 4246676253181532245, 4206786705111018172,
        4167749804604593956, 4129537133929878460, 4092121556642493916, 4055477145052224249,
        4019579112613034923, 3984403750848432366, 3949928370458483306, 3916131246286165274,
    ),
    (  # m = 6
        23496912975329876972, 30512866357802046971, 28425338617715030577, 25901873029938159049,
        23697031455870866425, 21845164648488044346, 20287699255943378063, 18964512619470055986,
        17827266161739042107, 16838964730601637371, 15971459390536014305, 15203170203595093950,
        14517356090895087500, 13900861154934605304, 13343214840172230390, 12835983273748265638,
        12372297071241649328, 11946503498111257916, 11553907035808636360, 11190573498007484263,
        10853180379085441792, 10538901242438501477, 10245315466261606781, 9970337091558265819,
        9712158213749750889, 9469203558610054489, 9240093740636827205, 9023615321617823454,
        8818696239725497590, 8624385513365247909, 8439836372713619056, 8264292158840982975,
        8097074472073607580, 7937573159625718304, 7785237816033083247, 7639570534732194034,
        7500119699789855264, 7366474646651478868, 7238261052342880730, 7115136940707634943,
        6996789208410508999, 6882930593669163476, 6773297022820775769, 6667645280527689683,
        6565750958173540486, 6467406642186558128, 6372420309954530787, 6280613905906645993,
        6191822074421847501, 6105891029633495700, 6022677545057768372, 5942048048376351711,
        5863877808731702385, 5788050205609730913, 5714456069842478420, 5642993088505011846,
        5573565266541458443, 5506082438863760981, 5440459827447266308, 5376617638619487423,
        5314480696318797906, 5253978107602193801, 5195042957117115839, 5137612027631339023,
        5081625544045252586, 5027026938599347475, 4973762635242221595, 4921781851345844460,
        4871036415149394849, 4821480597484281303, 4773070956484038924, 4725766194116291482,
        4679527023492128666, 4634316046013013452, 4590097637508376008, 4546837842599812928,
        4504504276601544645, 4463066034332574367, 4422493605274781768, 4382758794563794594,
        4343834649346627319, 4305695390082383484, 4268316346400334625, 4231673897163893826,
    ),
)
# The recurrence runs on exact integers in units of 2**-_S_FIXED, floored once per weight;
# each float is the correctly rounded value of its integer. So every weight is within 0.53
# ulp of its exact values (0.50 at strides 2..6, whose rows hold 60 fraction bits; at stride
# 1 the rounded weight-3 floats pass their 0.5 ulp on), within _S_TABLE_ULPS. (A float
# recurrence was up to 8.8 ulps off, and as those errors are alike along j, they cost up to
# 15 eps of the sum near the positive axis, where the terms cancel; weight-3 floats in place
# of the 60-bit rows left strides 2..6 up to 1.11 ulps off.) Each stride's table is built on
# its first use, in about 0.16 ms, and never changed; ``setdefault`` stores the first build,
# so threads that race on a first use all read one object.
_S_FIXED = 60
_S_TABLE_ULPS = 1
_S_TABLES: dict[int, tuple] = {}


def _s_table(m: int) -> tuple:
    """Stride m's pairs (c_j, c_j) for ``_horner``, one row per weight 3.._S_WEIGHTS."""
    table = _S_TABLES.get(m)
    if table is None:
        fixed = [_S_ROWS[m - 1]]
        for _ in range(4, _S_WEIGHTS + 1):
            sums = list(accumulate(fixed[-1], initial=0))
            fixed.append(list(map(floordiv, map(add, sums[1:], sums[:-1]), count(1))))
        rows = (tuple(map(mul, map(float, row), repeat(2.0**-_S_FIXED))) for row in fixed)
        table = _S_TABLES.setdefault(m, tuple(tuple(zip(row, row)) for row in rows))
    return table


# The rounding of the sum, term by term. The j-th term takes j products and j sums of
# Horner's rule, each within 1.62 eps in complex arithmetic (1 eps for floats), and j times
# the relative error of s, within 6.5 eps (its radical, a denominator that cancels by at
# most a factor 2 on the disk, and the quotient); with the table's error it is within
# (_S_STEP_ROUNDING j + _S_TABLE_ULPS + 1) eps |a_j| |s|**j; so is the series in v's (v is
# within 3 eps: an exact d, one quotient and the square root). At stride m >= 2 the
# quotient x / R**(m - 1) adds eps/2 relative to the argument of s, at most 2 eps to s
# (``_cardano_sigma``): _S_STRIDE_ROUNDING more per power.
_S_STEP_ROUNDING = 9
_S_STRIDE_ROUNDING = 2


def _cardano_s(xc: complex) -> complex | float:
    """s = phi(x)**-3 = 2x / (27 - 2x + 3 sqrt(81 - 12x)) with ``phi``'s radical; a float
    for real x. |s| <= 1, with equality only at x = 27/4."""
    rad = _radical(xc)
    if xc.imag == 0.0:
        xr = xc.real
        return 2.0 * xr / (27.0 - 2.0 * xr + 3.0 * rad.real)
    return 2.0 * xc / (27.0 - 2.0 * xc + 3.0 * rad)


def _s_series(n: int, m: int, s: complex | float) -> tuple[complex, float, int]:
    """S(n, m; x) = sum_{j<=K} a_j s**j, 3 <= n <= _S_WEIGHTS, 1 <= m <= CARDANO_MAX_STRIDE
    and |s| < 1, by Horner's rule in -s over the c_j. The error bound is the truncation past
    K (``_s_terms``) plus the rounding, sum_j (step j + _S_TABLE_ULPS + 1) eps c_j r**j at
    r = |s|, step = _S_STEP_ROUNDING (+ _S_STRIDE_ROUNDING at m >= 2): from
    G(r) = sum_j c_j r**(j-1) and G'(r), in ``_horner``'s loop. s is ``_cardano_sigma(x, m)``,
    the root of 4 R**m s / (1 + s)**2 = x with |s| <= 1 (the other root is 1/s)."""
    r = abs(s)
    terms = _s_terms(r, n, m)
    h, g, dg = _horner(_s_table(m)[n - 3][terms - 1 :: -1], -s, r)
    step = _S_STEP_ROUNDING if m == 1 else _S_STEP_ROUNDING + _S_STRIDE_ROUNDING
    # sum_j c_j r**j = r G and sum_j j c_j r**j = r G + r**2 G'
    rounding = (step + _S_TABLE_ULPS + 1) * r * g + step * r * r * dg
    truncation = _S_ENVELOPES[m - 1][n - 3] * r ** (terms + 1) / (1.0 - r)
    return complex(h * s), truncation + _EPS * rounding, terms


def _horner(pairs, t, r):
    """Over ``pairs`` (c_k, a_k), k from K - 1 down to 0, a_k >= |c_k|: by Horner's rule
    h = sum_k c_k t**k, g = sum_k a_k r**k and its derivative dg in r, in one loop."""
    h = g = dg = 0.0
    for c, a in pairs:
        h = h * t + c
        dg = dg * r + g
        g = g * r + a
    return h, g, dg


# Near x = 27/4 the series runs in v = sqrt(1 - 4x/27), Re v >= 0 on the disk: S(n, 1; x)
# = G_n(v) is analytic on |v| < 1 (s = (1 - v)/(1 + v)), and x d/dx = -(1 - v**2)/(2v) d/dv
# turns x d/dx S(n) = S(n - 1) into G_n' = -2v/(1 - v**2) G_(n-1): b_0(n) = S(n, 1; 27/4),
# b_1(n) = 0, b_k(n) = -(2/k) sum_{i>=0} b_(k-2-2i)(n - 1). The literals, b_k(2) for
# k < _V_TERMS (the weight-2 closed form, phi**3 = (1 + v)/(1 - v)) and the anchors b_0(n),
# are correctly rounded from 50 digits (tools/cardano_v_tables.py); the other rows follow at
# import in units of 2**-_V_FIXED, each float the rounded recurrence over the literals.
_V_TERMS = 40
_V_FIXED = 100
_V_BASE = (
    5.618830239556503, -7.255197456936871, 2.462098120373297, -1.3435550846179392,
    0.8820047549738116, -0.6389350846849755, 0.49206083471852746, -0.3950889202386203,
    0.32697001686177124, -0.27687487345563605, 0.23871139570688962, -0.20881184646416318,
    0.18484706924333996, -0.16527282385450304, 0.1490282086425062, -0.13536228813561987,
    0.12372983755879843, -0.11372621376231486, 0.10504531466487022, -0.0974516596837232,
    0.09076138005637674, -0.08482898722727444, 0.07953798044770495, -0.07479406124674785,
    0.07052015281716559, -0.06665269125273213, 0.06313882744283497, -0.059934290577730046,
    0.057001738785674015, -0.05430947286448757, 0.0518304237345057, -0.04954134841144575,
    0.04742218638109084, -0.045455540483137886, 0.04362625526271237, -0.04192107222600068,
    0.04032834622573932, -0.038837810776857426, 0.03744038279434879, -0.03612799928950674,
)
_V_ANCHORS = (
    2.974506287708767, 2.5204400945844294, 2.367064837785057, 2.304013746560729,
    2.275750781762125, 2.262503824680662,
)


def _v_recurrence(base: tuple, sign: int) -> tuple:
    """Rows 3.._S_WEIGHTS from row 2: the anchor, 0, and sign (2/k) sum_i b_(k-2-2i)(n - 1)."""
    rows, prev = [], [int(b * 2.0**_V_FIXED) for b in base]
    for anchor in _V_ANCHORS:
        sums, row = [0, 0], [int(anchor * 2.0**_V_FIXED), 0]
        for k in range(2, _V_TERMS):
            sums[k % 2] += prev[k - 2]
            row.append(sign * 2 * sums[k % 2] // k)
        rows.append(tuple(float(f) * 2.0**-_V_FIXED for f in row))
        prev = row
    return tuple(rows)


_V_COEFS = _v_recurrence(_V_BASE, -1)
# The recurrence over the moduli (+ for -) bounds |b_k(n)| and, times eps, the rows' error
# (eps/2 |b_k(n)| from their rounding, eps/2 of this from the literals').
_V_MAGS = _v_recurrence(tuple(map(abs, _V_BASE)), 1)
_V_PAIRS = tuple(tuple(zip(b, a)) for b, a in zip(_V_COEFS, _V_MAGS))
# |b_k(n)| <= _V_ENVELOPE for n 3.._S_WEIGHTS: the largest is |b_2(3)| = S(2, 1; 27/4) =
# 5.6188, and past k = 100 none exceeds 1.4 (checked to k = 400 at 40 digits, 20,000 in
# float). With |S| >= |x| / 5 >= (27/20)(1 - r**2) at r = |v|, the terms from K on, at most
# envelope r**K / (1 - r), are below eps/8 of |S| once r**K <= _V_TRUNC (1 - r)(1 - r**2)
# / envelope.
_V_ENVELOPE = 5.62
_V_TRUNC = 27.0 * _EPS / 160.0


def _v_terms(r: float) -> int:
    """Terms K of the series in v at r = |v| < 1."""
    bound = _V_TRUNC * (1.0 - r) * (1.0 - r * r) / _V_ENVELOPE
    return max(1, math.ceil(math.log(bound) / math.log(r))) if r else 1


def _v_series(n: int, xc: complex) -> tuple[complex, float, int]:
    """S(n, 1; x) = sum_{k<K} b_k(n) v**k near x = 27/4, v = sqrt(4d/27) with d = 27/4 - x
    exact (Sterbenz). Its bound: the truncation past K plus, with M = _V_MAGS, the rounding
    sum_k (_S_STEP_ROUNDING k + _S_TABLE_ULPS + 1) eps M_k(n) r**k at r = |v|."""
    d = RADIUS_BASE - xc.real
    if xc.imag == 0.0:
        v = math.sqrt(4.0 * d / 27.0)
    else:
        v = cmath.sqrt(complex(4.0 * d / 27.0, -4.0 * xc.imag / 27.0))
    r = abs(v)
    terms = _v_terms(r)
    h, g, dg = _horner(_V_PAIRS[n - 3][terms - 1 :: -1], v, r)
    rounding = (_S_TABLE_ULPS + 1) * g + _S_STEP_ROUNDING * r * dg
    truncation = _V_ENVELOPE * r**terms / (1.0 - r)
    return complex(h), truncation + _EPS * rounding, terms


def _stable_complement(t: float, m: int) -> float:
    """1 - (R*t*(1-t)**2)**m, the complement of the polylog argument at x = R**m, written
    to avoid cancellation; adding d*(t*(1-t)**2)**m, d = R**m - x, gives it at real x.

    With c = (1-3t)**2 * (4-3t) / 4 and a = R*t*(1-t)**2, the exact factorization
    1 - a = c gives 1 - a**m = c * (1 + a + ... + a**(m-1)): non-negative factors on
    [0, 1], and c itself at m = 1. The added term is non-negative too for x <= R**m.
    """
    one_3t = 1.0 - 3.0 * t
    head = 1.0
    if m > 1:
        a = RADIUS_BASE * t * (1.0 - t) ** 2
        for _ in range(m - 1):
            head = head * a + 1.0
    return one_3t * one_3t * (4.0 - 3.0 * t) * 0.25 * head


def _logpow(arg: float, p: int) -> float:
    if p == 0:
        return 1.0
    if arg < _TINY:  # vanishing endpoint; keep log powers finite under rounding
        arg = _TINY
    return math.log(arg) ** p


def _oriented(f, upper: float, tol: float | None) -> tuple[float, float, int]:
    """Integral of f from 0 to ``upper``, either sign, through u = upper * s**3, s in [0, 1]:
    the two-term integrands' u log(u)**p at u = 0 becomes a smooth s**5 log(s)**p."""
    scale = 3.0 * upper
    value, err, work = adaptive_quad(lambda s: scale * s * s * f(upper * s * s * s), 0.0, 1.0, tol)
    return value.real, err, work


def _two_term_kernel(n: int, xr: float, tol) -> tuple[complex, float, int]:
    """``evaluate``'s quad-two-term (value, abs_error_est, work) of S(n, 1; x), n >= 2, at
    the real x it serves, as the sum of two oriented quadratures; checks nothing but
    ``adaptive_quad``'s tol.

    First term: prefactor (-1)**(n-1) / (n-2)! over [0, alpha], integrand
    u * log(...)**(n-2) with an exponential inner argument. Second term:
    prefactor 4*(-1)**(n-2) / (3*(n-2)!) over [0, beta], trigonometric
    inner argument. Both integrals run through u = limit * s**3, s in [0, 1]
    (``_oriented``), which serves either sign of the limit (negative for x > 0).
    """
    limits = two_term_limits(xr)
    p = n - 2
    fac = math.factorial(p)

    # 1 - e**u and 1 + 2 cos((2v + 2 pi)/3), written not to cancel near 0
    def f_exp(u: float) -> float:
        eu = math.exp(u)
        return u * _logpow(-math.expm1(u) ** 3 / (xr * eu * eu), p)

    def f_trig(v: float) -> float:
        c = math.cos((2.0 * v + _TWO_PI) / 3.0)
        d = -4.0 * math.sin(v / 3.0 + _TWO_PI / 3.0) * math.sin(v / 3.0)
        return v * _logpow(d**3 / (2.0 * xr * (1.0 + c)), p)

    i1, e1, w1 = _oriented(f_exp, limits.alpha, tol)
    i2, e2, w2 = _oriented(f_trig, limits.beta, tol)
    pref1 = (-1.0) ** (n - 1) / fac
    pref2 = 4.0 * (-1.0) ** (n - 2) / (3.0 * fac)
    value = pref1 * i1 + pref2 * i2
    err = abs(pref1) * e1 + abs(pref2) * e2
    return complex(value), err, w1 + w2
