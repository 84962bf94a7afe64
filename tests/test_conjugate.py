"""Sobolev conjugates: the monotone map, classifications, growth fits."""

import functools
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orlicz as oz
from orlicz import conjugate, young
from orlicz.conjugate import _BLOCK, _EDGES, HnTable, IntegralClass, _MonotoneCubic
from orlicz.young import INF, GrowthOrder


def closed_form_h_constant(p: float, n: float) -> float:
    # antiderivative oracle: int_0^s t^{(1-p)/(n-1)} dt
    #   = s^{(n-p)/(n-1)} (n-1)/(n-p),  then the (n-1)/n power
    return ((n - 1.0) / (n - p)) ** ((n - 1.0) / n)


class TestHMap:
    @pytest.mark.parametrize("p,n", [(1, 2), (2, 3), (3, 4), (1.5, 3)])
    def test_power_closed_form(self, p, n):
        c = closed_form_h_constant(p, n)
        for s in (1.0, 3.7, 40.0):
            expect = c * s ** ((n - p) / n)
            assert oz.h_n(oz.Power(p), n, s) == pytest.approx(expect, rel=1e-8)

    def test_empty_integral(self):
        assert oz.h_n(oz.Power(2), 3, 0.0) == 0.0

    def test_linear_constant_integrand(self):
        # integrand is identically 1 for A(t) = t, n = 2
        assert oz.h_n(oz.linear(), 2, 4.0) == pytest.approx(2.0, rel=1e-9)

    def test_divergent_origin_refused(self):
        with pytest.raises(oz.YoungError):
            oz.h_n(oz.Power(4), 3, 1.0)


class TestClassification:
    @pytest.mark.parametrize("n", [2, 3])
    def test_truth_table(self, n):
        for p in (1.0, 1.5, n - 0.1, float(n), n + 0.1, 2.0 * n):
            y = oz.Power(p)
            zero = oz.classify_integral_zero(y, n)
            inf_ = oz.classify_integral_inf(y, n)
            assert zero is (IntegralClass.CONVERGES if p < n
                            else IntegralClass.DIVERGES)
            assert inf_ is (IntegralClass.DIVERGES if p <= n
                            else IntegralClass.CONVERGES)

    def test_log_corrected_boundary(self):
        # oracle: int dt / (t log^{alpha/(n-1)} t) converges iff alpha > n-1
        n = 3
        for alpha, expected in ((1.9, IntegralClass.DIVERGES),
                                (2.0, IntegralClass.DIVERGES),
                                (2.2, IntegralClass.CONVERGES)):
            assert oz.classify_integral_inf(oz.PowerLog(n, alpha), n) is expected

    def test_exponential_always_converges_at_infinity(self):
        for alpha in (0.5, 1.0, 2.0):
            assert oz.classify_integral_inf(oz.Exp(alpha), 3) is IntegralClass.CONVERGES

    def test_linear_converges_at_zero(self):
        for n in (2, 3, 5):
            assert oz.classify_integral_zero(oz.linear(), n) is IntegralClass.CONVERGES

    def test_custom_fit(self):
        y = oz.Custom(lambda t: t * t, label="sq")
        assert oz.classify_integral_zero(y, 3) is IntegralClass.CONVERGES
        assert oz.classify_integral_inf(y, 3) is IntegralClass.DIVERGES

    def test_oscillating_custom_indeterminate(self):
        y = oz.Custom(lambda t: t ** (2.0 + 0.8 * math.sin(math.log(t))),
                      label="wobble")
        assert oz.classify_integral_inf(y, 2) is IntegralClass.INDETERMINATE


def ref_fit_slope(g, ts):
    """The former point loop of ``conjugate._fit_slope``."""
    vals = []
    for v in g(np.asarray(ts, dtype=float)).tolist():
        if v == INF:
            return INF
        if v <= 0.0:
            return -INF
        vals.append(math.log(v))
    xs = [math.log(float(t)) for t in ts]
    slopes = [(vals[i + 1] - vals[i]) / (xs[i + 1] - xs[i]) for i in range(len(ts) - 1)]
    for i in range(len(slopes) - 2):
        window = slopes[i:i + 3]
        if max(window) - min(window) <= 0.02:
            return window[-1]
    return None


class TestFitSlope:
    """The array slope fit against the point loop it replaced."""

    @settings(max_examples=80, deadline=None)
    @given(y=st.one_of(
        st.builds(oz.Power, st.floats(1.0, 4.0)),
        st.builds(oz.PowerLog, st.floats(1.0, 4.0), st.floats(-1.0, 3.0)),
        st.builds(oz.Exp, st.floats(0.5, 2.0)), st.builds(oz.ExpNegInv, st.floats(0.5, 2.0)),
        st.builds(oz.gate, st.floats(1e-6, 1e6)),
        st.floats(0.1, 1.0).map(lambda w: oz.Custom(
            lambda t: t ** (2.0 + w * math.sin(math.log(t))), label="wobble"))),
        n=st.sampled_from([2.0, 3.0, 4.5]), side=st.sampled_from(["zero", "inf"]))
    def test_matches_point_loop(self, y, n, side):
        ks = range(2, 9) if side == "zero" else range(2, 10)
        ts = [10.0 ** (-k if side == "zero" else k) for k in ks]
        g = conjugate._integrand(y, n)
        got, ref = conjugate._fit_slope(g, ts), ref_fit_slope(g, ts)
        assert got == ref or (None not in (got, ref)
                              and math.isclose(got, ref, rel_tol=1e-12, abs_tol=1e-12))


class TestConjugate:
    @pytest.mark.parametrize("p,n", [(1, 2), (2, 3), (3, 4)])
    def test_classical_exponent(self, p, n):
        conj = oz.sobolev_conjugate(oz.Power(p), n)
        lo, hi = conj.an_value(1e2), conj.an_value(1e6)
        slope = (math.log(hi) - math.log(lo)) / (4 * math.log(10.0))
        assert slope == pytest.approx(n * p / (n - p), abs=1e-6)

    def test_closed_form_values(self):
        # A = t^2, n = 3: the conjugate is t^6 / C^6 with C the integral constant
        conj = oz.sobolev_conjugate(oz.Power(2), 3)
        c6 = closed_form_h_constant(2, 3) ** 6
        for t in (0.5, 1.0, 2.0, 10.0):
            assert conj.an_value(t) == pytest.approx(t ** 6 / c6, rel=1e-7)

    def test_critical_power_superpolynomial(self):
        conj = oz.sobolev_conjugate(oz.Power(2), 2)
        assert conj.h_limit == INF
        for m in (1, 2, 5, 10):
            ratios = [conj.an_value(t) / t ** m for t in (5.0, 10.0, 15.0)]
            assert ratios[0] < ratios[1] < ratios[2]
            assert ratios[-1] > 1e6

    def test_supercritical_jump(self):
        # p > n: glue at 1 gives total integral 1 + 1/(p-2) for n = 2
        conj = oz.sobolev_conjugate(oz.Power(3), 2)
        expect_limit = math.sqrt(1.0 + 1.0)
        assert conj.h_limit == pytest.approx(expect_limit, rel=1e-8)
        assert conj.an_value(expect_limit * 1.01) == INF
        assert conj.an_value(1.0) == pytest.approx(1.0, rel=1e-8)

    def test_indeterminate_refused(self):
        y = oz.Custom(lambda t: t ** (2.0 + 0.8 * math.sin(math.log(t))),
                      label="wobble")
        with pytest.raises(oz.IndeterminateError):
            oz.sobolev_conjugate(y, 2)

    def test_roundtrip_inverse(self):
        conj = oz.sobolev_conjugate(oz.PowerLog(2, 1), 3)
        for t in np.geomspace(1e-3, 1e3, 25):
            t = float(t)
            s = conj.hn.inverse(t)
            assert conj.hn(s) == pytest.approx(t, rel=1e-8)

    def test_monotone_and_convex(self):
        conj = oz.sobolev_conjugate(oz.Power(2), 3)
        ts = np.geomspace(1e-2, 1e2, 40)
        vals = [conj.an_value(float(t)) for t in ts]
        assert all(vals[i] <= vals[i + 1] * (1 + 1e-12) for i in range(len(vals) - 1))
        for i in range(0, len(ts) - 2, 3):
            s, t = float(ts[i]), float(ts[i + 2])
            assert conj.an_value(0.5 * (s + t)) <= 0.5 * (vals[i] + vals[i + 2]) * (1 + 1e-7)

    def test_divergent_classification_means_unbounded_map(self):
        conj = oz.sobolev_conjugate(oz.Power(2), 3)
        assert conj.classification_inf is IntegralClass.DIVERGES
        assert conj.h_limit == INF
        assert conj.hn(1e12) > 1e3


class TestSigma:
    def test_sigma_equals_n(self):
        a = oz.sobolev_conjugate(oz.Power(2), 3)
        b = oz.sobolev_conjugate_sigma(oz.Power(2), 3.0, 3)
        for t in np.geomspace(1e-2, 1e2, 17):
            assert b.an_value(float(t)) == pytest.approx(a.an_value(float(t)),
                                                         rel=1e-10)

    def test_sigma_exponent(self):
        conj = oz.sobolev_conjugate_sigma(oz.Power(2), 4.0, 2)
        lo, hi = conj.an_value(1e2), conj.an_value(1e6)
        slope = (math.log(hi) - math.log(lo)) / (4 * math.log(10.0))
        assert slope == pytest.approx(4 * 2 / (4 - 2), abs=1e-6)

    def test_sigma_critical(self):
        conj = oz.sobolev_conjugate_sigma(oz.Power(3), 3.0, 2)
        for m in (1, 5):
            assert (conj.an_value(12.0) / 12.0 ** m
                    > conj.an_value(6.0) / 6.0 ** m)

    def test_sigma_below_n_rejected(self):
        with pytest.raises(oz.YoungError):
            oz.sobolev_conjugate_sigma(oz.Power(2), 1.5, 2)


class TestHat:
    def test_equivalent_near_infinity_to_conjugate(self):
        h = oz.hat_an(oz.Power(2), 3)
        conj = oz.sobolev_conjugate(oz.Power(2), 3)
        v = oz.equivalent(h, conj.an, oz.Regime.near_infinity(4 * h.tstar))
        assert v.equivalent

    def test_equivalent_near_zero_to_base(self):
        h = oz.hat_an(oz.Power(2), 3)
        v = oz.equivalent(h, oz.Power(2), oz.Regime.near_zero(h.tstar / 2))
        assert v.equivalent and v.constant == 1.0

    def test_exponent_glue(self):
        # t^2 near zero against t^6 near infinity for p = 2, n = 3
        h = oz.hat_an(oz.Power(2), 3)

        def slope(t):
            return (math.log(h(t * 1.01)) - math.log(h(t))) / math.log(1.01)

        assert slope(h.tstar / 16) == pytest.approx(2.0, abs=1e-2)
        assert slope(h.tstar * 16) == pytest.approx(6.0, abs=1e-2)


# ---------------------------------------------------------------------------
# The monotone-cubic kernel and the array paths against their references
# ---------------------------------------------------------------------------

# n = 3: the power-type ones diverge at infinity, exp and power_3.5 saturate;
# the tiny scale makes H pass 1e12 within the first panel, a two-knot table
FAMILIES = {
    "power": oz.Power(2),
    "power_log": oz.PowerLog(2, 1),
    "power_loglog": oz.PowerLogLog(2, 1),
    "exp": oz.Exp(1.0),
    "power_3.5": oz.Power(3.5),
    "power_tiny_scale": oz.Power(2, scale=1e-55),
}
BRANCHES = ("nonpositive", "head", "interior", "tail", "saturated")


@functools.lru_cache(maxsize=None)
def conjugate_of(name: str):
    return oz.sobolev_conjugate(FAMILIES[name], 3)


def branch_point(hn, branch: str, u: float) -> float:
    """A level in ``branch`` of HnTable.inverse; u in [0, 1] places it."""
    lo, hi = math.exp(hn._lnH_lo), math.exp(hn._lnH_hi)
    top = hn.limit if hn.limit != INF else hi * 1e120  # past x = 700 too
    if branch == "nonpositive":
        return -10.0 * u
    if branch == "head":
        return lo * 10.0 ** (-1.0 - 29.0 * u)
    if branch == "interior":
        return lo * (hi / lo) ** u
    if branch == "tail" or hn.limit == INF:
        return hi * (top / hi) ** u
    return hn.limit * (1.0 + u)


branch_points = st.lists(st.tuples(st.sampled_from(BRANCHES), st.floats(0.0, 1.0)),
                         min_size=1, max_size=32)


class TestMonotoneCubic:
    @settings(max_examples=30, deadline=None)
    @given(name=st.sampled_from(["power", "power_log", "power_loglog", "exp"]),
           us=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=32))
    def test_matches_pchip_on_table_knots(self, name, us):
        interpolate = pytest.importorskip("scipy.interpolate")
        hn = conjugate_of(name).hn
        ref = interpolate.PchipInterpolator(hn._xs, hn._lnH, extrapolate=False)
        xs = np.concatenate([hn._xs, hn._xs[0] + np.array(us) * (hn._xs[-1] - hn._xs[0])])
        kernel = _MonotoneCubic(hn._xs, hn._lnH)
        value, slope = kernel.at_many(xs)
        np.testing.assert_allclose(value, ref(xs), rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(slope, ref.derivative()(xs), rtol=1e-14, atol=0.0)
        # the scalar path evaluates the same expressions
        assert [kernel.at(x) for x in xs.tolist()] == list(zip(value.tolist(), slope.tolist()))


class TestArrayPaths:
    def test_two_knot_table(self):
        hn = conjugate_of("power_tiny_scale").hn
        assert len(hn._xs) == 2
        for t in (1e-3, 1.0, 1e20, 1e30):
            assert hn(hn.inverse(t)) == pytest.approx(t, rel=1e-8)

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(FAMILIES)), points=branch_points)
    def test_inverse_many_matches_inverse(self, name, points):
        hn = conjugate_of(name).hn
        ts = np.array([branch_point(hn, b, u) for b, u in points])
        for t, s in zip(ts.tolist(), hn.inverse_many(ts).tolist()):
            assert s == pytest.approx(hn.inverse(t), rel=1e-12, abs=0.0)

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(FAMILIES)), points=branch_points)
    def test_an_values_matches_an_value(self, name, points):
        conj = conjugate_of(name)
        ts = np.array([branch_point(conj.hn, b, u) for b, u in points])
        for t, v in zip(ts.tolist(), conj.an_values(ts).tolist()):
            assert v == pytest.approx(conj.an_value(t), rel=1e-12, abs=0.0)

    def test_shape_is_kept(self):
        conj = conjugate_of("power")
        ts = np.geomspace(1e-3, 1e3, 12).reshape(3, 4)
        assert conj.hn.inverse_many(ts).shape == (3, 4)
        assert conj.an_values(ts).shape == (3, 4)


# ---------------------------------------------------------------------------
# The block build against the scalar panel loop it replaced
# ---------------------------------------------------------------------------

def ref_integrand(y, nexp):
    """(t / A(t))^{1/(n-1)} at one point, through the scalar y(t)."""
    e = 1.0 / (nexp - 1.0)

    def g(t):
        if t <= 0.0:
            return 0.0
        a = y(t)
        if a == INF:
            return 0.0
        if a <= 0.0:
            return INF
        lg = e * (math.log(t) - math.log(a))
        return INF if lg > 709.0 else math.exp(lg)

    return g


def ref_gauss15(f, a, b):
    """15-node rule, one node at a time in order; a non-finite sample gives
    -inf when they are all -inf, else +inf."""
    x, w = np.polynomial.legendre.leggauss(15)
    vals = [f(u) for u in (0.5 * (a + b) + 0.5 * (b - a) * x).tolist()]
    total = 0.0
    for wi, v in zip(w.tolist(), vals):
        total += wi * v
    if not math.isfinite(total):
        bad = [v for v in vals if not math.isfinite(v)]
        if bad:
            return -INF if all(v == -INF for v in bad) else INF
    return total * (0.5 * (b - a))


def ref_hn_table(y, nexp, diverges_at_inf=False):
    """The scalar build: panel after panel until 3 zero panels in a row,
    ln H > ln 1e12 or x > 690, then the tail fit; (xs, lnH, limit)."""
    g = ref_integrand(y, nexp)
    f = lambda u: g(math.exp(u)) * math.exp(u)
    nprime = nexp / (nexp - 1.0)
    core_step, tail_step = math.log(10.0) / 32.0, math.log(10.0) / 8.0
    x, s_min = math.log(1e-10), 1e-10
    v1, v2 = g(s_min), g(0.5 * s_min)
    head = 0.0 if v1 <= 0.0 and v2 <= 0.0 else v1 * s_min / (math.log2(v1 / v2) + 1.0)
    acc = head if head > 0.0 else 1e-300
    xs, lnI = [x], [math.log(acc)]
    in_tail, zero_panels = False, 0
    while True:
        xn = x + (tail_step if in_tail else core_step)
        inc = ref_gauss15(f, x, xn)
        if not math.isfinite(inc):
            raise oz.IndeterminateError("integrand blow-up inside the table range")
        acc += inc
        xs.append(xn)
        lnI.append(math.log(acc))
        x = xn
        if x >= math.log(1e10):
            in_tail = True
        zero_panels = zero_panels + 1 if inc <= 0.0 or g(math.exp(xn)) == 0.0 else 0
        if zero_panels >= 3 or math.log(acc) / nprime > math.log(1e12) or x > 690.0:
            break
    if diverges_at_inf:
        return np.array(xs), np.array(lnI) / nprime, INF
    t_fit, tail = math.exp(xs[-1]), 0.0
    while t_fit > 1.0 and g(t_fit) <= 0.0:
        t_fit *= 0.5
    g_end = g(t_fit)
    if g_end > 0.0 and g(0.5 * t_fit) > 0.0:
        m_inf = math.log2(g_end / g(0.5 * t_fit))
        if m_inf < -1.0 - 1e-6:
            tail = g_end * t_fit / (-1.0 - m_inf)
    return np.array(xs), np.array(lnI) / nprime, (math.exp(lnI[-1]) + tail) ** (1.0 / nprime)


def gate_at_panel(k: int):
    """t^2 up to just past knot k, +inf beyond: the zero panels start at panel
    k and the build stops at panel k + 2."""
    tj = math.exp(_EDGES[k]) * (1.0 + 1e-9)
    return oz.Piecewise(breaks=(tj,), branches=(oz.Power(2.0), lambda t: INF), jump=tj,
                        zero=GrowthOrder(2.0), inf_=GrowthOrder(0.0, family="jump"))


# every kind a build sees; n = 2 sends the power-like ones through
# modify_near_zero, Power(3.5) and the exponentials saturate at n = 3
BUILD_CASES = [
    (oz.Power(1.5), 3), (oz.Power(3.5), 3), (oz.Power(2, scale=1e-55), 3),
    (oz.PowerLog(2, 1), 3), (oz.PowerLog(2, 1), 2), (oz.PowerLogLog(2, 1), 4),
    (oz.PowerExp(1.0), 2), (oz.Exp(0.5), 3), (oz.Exp(2.0), 4), (oz.ExpNegInv(1.0), 2),
    (gate_at_panel(100), 3),
]


def assert_same_table(hn, ref, tol):
    xs, lnH, limit = ref
    np.testing.assert_array_equal(hn._xs, xs)
    # lnH is a logarithm: an absolute difference is a relative one in H
    np.testing.assert_allclose(hn._lnH, lnH, rtol=0.0, atol=tol)
    assert hn.limit == limit or math.isclose(hn.limit, limit, rel_tol=tol)


class TestBlockBuild:
    @pytest.mark.parametrize("y, n", BUILD_CASES)
    def test_matches_scalar_loop(self, y, n):
        conj = oz.sobolev_conjugate(y, n)
        diverges = conj.classification_inf is IntegralClass.DIVERGES
        assert_same_table(conj.hn, ref_hn_table(conj.modified, n, diverges), 1e-13)

    @pytest.mark.parametrize("k", [_BLOCK - 4, _BLOCK - 3, _BLOCK - 2, _BLOCK - 1, _BLOCK,
                                   2 * _BLOCK - 2])
    def test_zero_panels_carry_across_blocks(self, k):
        y = gate_at_panel(k)
        hn = HnTable(y, 3)
        assert len(hn._xs) == k + 4
        assert_same_table(hn, ref_hn_table(y, 3), 1e-13)

    def test_reduced_route_matches_scalar_loop(self):
        # the roots of the orthotropic mean agree with the scalar ones to
        # their 1e-12 tolerance, not to rounding
        conj = oz.phi_n(oz.Orthotropic((oz.Power(1.3), oz.Power(1.8))))
        assert_same_table(conj.hn, ref_hn_table(conj.modified, 2, True), 1e-12)

    def test_blow_up_raises_only_before_the_stop(self):
        # A = 0 on (1, 2] makes the integrand inf there
        hole = oz.Custom(fn=lambda t: 0.0 if 1.0 < t <= 2.0 else t * t)
        for build in (HnTable, ref_hn_table):
            with pytest.raises(oz.IndeterminateError, match="blow-up"):
                build(hole, 3)
        # H passes 1e12 in the first panel, before a hole in the same block
        late = oz.Custom(fn=lambda t: 0.0 if 1e-8 < t <= 2e-8 else 1e-55 * t * t)
        assert_same_table(HnTable(late, 3, True), ref_hn_table(late, 3, True), 1e-13)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("y", [oz.Power(1.6), oz.PowerLog(1.6, 1.0),
                                   oz.PowerLogLog(1.6, 1.0), oz.PowerExp(1.0), oz.Exp(0.7)])
    def test_one_integrand_call_per_block(self, y, n, monkeypatch):
        conj = oz.sobolev_conjugate(y, n)
        calls, scalar = [0], [0]
        make = conjugate._integrand

        def counting_integrand(y, nexp):
            g = make(y, nexp)

            def counted(ts):
                calls[0] += 1
                return g(ts)
            return counted

        monkeypatch.setattr(conjugate, "_integrand", counting_integrand)
        count_scalar_calls(monkeypatch, scalar)
        hn = HnTable(conj.modified, n,
                     conj.classification_inf is IntegralClass.DIVERGES)
        blocks = math.ceil((len(hn._xs) - 1) / 256)
        # the head probe, and the tail probes of a saturating table
        assert calls[0] <= blocks + 3
        assert scalar[0] == 0

    def test_reduced_route_makes_no_scalar_call(self, monkeypatch):
        scalar = [0]
        count_scalar_calls(monkeypatch, scalar)
        oz.phi_n(oz.Orthotropic((oz.Power(1.3), oz.Power(1.8))))
        assert scalar[0] == 0


def count_scalar_calls(monkeypatch, box):
    """Count every scalar evaluation of every Young function kind in box[0]."""
    for cls in vars(young).values():
        if isinstance(cls, type) and "__call__" in vars(cls):
            def counted(self, t, _call=vars(cls)["__call__"]):
                box[0] += 1
                return _call(self, t)
            monkeypatch.setattr(cls, "__call__", counted)


def test_package_imports_without_scipy():
    src = pathlib.Path(oz.__file__).resolve().parent.parent
    code = ("import sys; sys.path.insert(0, sys.argv[1]); sys.modules['scipy'] = None; "
            "import orlicz, orlicz.cli; orlicz.sobolev_conjugate(orlicz.Power(2), 3)")
    proc = subprocess.run([sys.executable, "-c", code, str(src)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
