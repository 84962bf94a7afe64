"""Sobolev conjugates: the monotone map, classifications, growth fits."""

import functools
import math
import pathlib
import subprocess
import sys
import types

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
        hn = oz.sobolev_conjugate(oz.Power(p), n).hn
        for s in (1.0, 3.7, 40.0):
            expect = c * s ** ((n - p) / n)
            assert hn.refined(s) == pytest.approx(expect, rel=1e-8)

    def test_empty_integral(self):
        assert oz.sobolev_conjugate(oz.Power(2), 3).hn.refined(0.0) == 0.0

    def test_linear_constant_integrand(self):
        # integrand is identically 1 for A(t) = t, n = 2
        hn = oz.sobolev_conjugate(oz.linear(), 2).hn
        assert hn.refined(4.0) == pytest.approx(2.0, rel=1e-9)

    def test_divergent_origin_refused(self):
        with pytest.raises(oz.YoungError):
            HnTable(oz.Power(4), 3)


# (zero, inf) class at n = 2, 3, 4 (C converges, D diverges, I indeterminate),
# frozen from the two one-ended classifiers that ``_classify`` replaced
FROZEN_CLASSES = {
    "power:1": (oz.Power(1.0), "CD CD CD"), "power:1.5": (oz.Power(1.5), "CD CD CD"),
    "power:2": (oz.Power(2.0), "DD CD CD"), "power:3": (oz.Power(3.0), "DC DD CD"),
    "power:4": (oz.Power(4.0), "DC DC DD"), "power:6": (oz.Power(6.0), "DC DC DC"),
    "power_log:2,1": (oz.PowerLog(2, 1), "DD DD CD"),
    "power_log:2,0.5": (oz.PowerLog(2, 0.5), "DD CD CD"),
    "power_log:3,2": (oz.PowerLog(3, 2), "DC DD DD"),
    "power_log:3,2.5": (oz.PowerLog(3, 2.5), "DC DC DD"),
    "power_log:4,-1": (oz.PowerLog(4, -1), "DC DC DD"),
    "power_log:4,3.5": (oz.PowerLog(4, 3.5), "DC DC DC"),
    "power_log:1,1,3": (oz.PowerLog(1, 1, 3.0), "CD CD CD"),
    "power_loglog:2,1": (oz.PowerLogLog(2, 1), "DD DD CD"),
    "power_loglog:3,-1": (oz.PowerLogLog(3, -1), "DC DD CD"),
    "power_loglog:4,2,5": (oz.PowerLogLog(4, 2, 5.0), "DC DC DD"),
    "power_exp:1": (oz.PowerExp(1.0), "CC CC CC"), "power_exp:3": (oz.PowerExp(3.0), "DC DC CC"),
    "exp:1": (oz.Exp(1.0), "CC CC CC"), "exp:2": (oz.Exp(2.0), "DC CC CC"),
    "exp_neg_inv:1": (oz.ExpNegInv(1.0), "DD DD DD"), "gate:0.5": (oz.gate(0.5), "DC DC DC"),
    "linear": (oz.linear(), "CD CD CD"),
    "glued": (oz.Glued(oz.Power(1.5), oz.Power(3.0), 1.0), "CC CD CD"),
    "glued_gate": (oz.Glued(oz.Power(2.0), oz.gate(2.0), 1.0), "DC CC CC"),
    "ortho_bar": (oz.orthotropic_bar([oz.Power(1.5), oz.Power(3.0)]), "DD CD CD"),
    "ortho_bar:power_log": (oz.orthotropic_bar([oz.PowerLog(1.5, 1), oz.Power(3.0)]),
                            "DC CD CD"),  # a FromInverse, not a closed-form power
    # black boxes: fitted slopes, the +-inf markers, the band around -1
    "custom:t^2": (oz.Custom(lambda t: t * t), "II CD CD"),
    "custom:t^3": (oz.Custom(lambda t: t ** 3), "DC II CD"),
    "custom:t^3.001": (oz.Custom(lambda t: t ** 3.001), "DC II CD"),
    "custom:t^6": (oz.Custom(lambda t: t ** 6), "DC DC DC"),
    "custom:flat_below_1": (oz.Custom(lambda t: 0.0 if t < 1.0 else t * t), "DI DD DD"),
    "custom:inf_above_10": (oz.Custom(lambda t: INF if t > 10.0 else t * t), "IC CC CC"),
    "custom:jump": (oz.Custom(lambda t: t * t, jump=10.0), "IC CC CC"),
    "custom:wobble": (oz.Custom(lambda t: t ** (2.0 + 0.8 * math.sin(math.log(t)))),
                      "II II II"),
    "custom:nan_probes": (oz.Custom(lambda t: math.nan if t in (1e-4, 1e4) else t * t),
                          "II II II"),
    # orders given by hand, with families and exponents the kinds never produce
    "custom:exp_at_zero": (oz.Custom(lambda t: t, zero=GrowthOrder(1.0, family="exp"),
                                     inf_=GrowthOrder(2.0, family="flat")), "CD CD CD"),
    "custom:nan_power": (oz.Custom(lambda t: t, zero=GrowthOrder(math.nan, 3.0),
                                   inf_=GrowthOrder(math.nan, 0.5)), "CD CD DD"),
    "custom:critical_logs": (oz.Custom(lambda t: t, zero=GrowthOrder(3.0, 2.0, 5.0),
                                       inf_=GrowthOrder(3.0, 2.0001, -1.0)), "DC DC CD"),
}


class TestClassification:
    @pytest.mark.parametrize("name", sorted(FROZEN_CLASSES))
    def test_matches_frozen_table(self, name):
        y, frozen = FROZEN_CLASSES[name]
        got = [oz.classify_integral_zero(y, n).value[0].upper()
               + oz.classify_integral_inf(y, n).value[0].upper() for n in (2, 3, 4)]
        assert " ".join(got) == frozen

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
        i = np.clip(np.searchsorted(hn._xs, xs, side="right") - 1, 0, len(hn._xs) - 2)
        c0, c1, c2, c3, d2, d3 = kernel.coef[:, i]
        s = xs - hn._xs[i]
        value, slope = c0 + c1 * s + c2 * s * s + c3 * s ** 3, c1 + d2 * s + d3 * s * s
        np.testing.assert_allclose(value, ref(xs), rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(slope, ref.derivative()(xs), rtol=1e-14, atol=0.0)


def scalar_h(hn, s: float) -> float:
    """The former scalar ``HnTable.__call__``, one point at a time, with
    numpy's exp and log in place of libm's."""
    if not s > 0.0:
        return 0.0 if s <= 0.0 else s
    x = float(np.log(s))
    if x < hn._x_lo:
        return float(np.exp((hn._lnI_lo + (hn._m0 + 1.0) * (x - hn._x_lo)) / hn.nprime))
    if x > hn._x_hi:
        return hn.refined(s)
    i = min(int(np.searchsorted(hn._xs, x, side="right")) - 1, len(hn._xs) - 2)
    c0, c1, c2, c3 = hn._cubic.coef[:4, i].tolist()
    d = x - float(hn._xs[i])
    return float(np.exp(c0 + c1 * d + c2 * (d * d) + c3 * (d * d * d)))


FORWARD_BRANCHES = ("nonpositive", "head", "table", "past")


class TestArrayPaths:
    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(FAMILIES)),
           points=st.lists(st.tuples(st.sampled_from(FORWARD_BRANCHES), st.floats(0.0, 1.0)),
                           min_size=1, max_size=12))
    def test_values_matches_scalar_reads(self, name, points):
        hn = conjugate_of(name).hn
        span = {"nonpositive": (-10.0, None), "head": (hn._x_lo - 30.0, hn._x_lo),
                "table": (hn._x_lo, hn._x_hi), "past": (hn._x_hi, 709.0)}
        ss = [-10.0 * u if b == "nonpositive" else
              math.exp(span[b][0] + u * (span[b][1] - span[b][0])) for b, u in points]
        assert hn.values(ss).tolist() == [scalar_h(hn, s) for s in ss]

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

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_nan_passes_through(self, name):
        conj = conjugate_of(name)
        ts = np.array([math.nan, 0.0, 1.0])
        for got in (conj.hn.values(ts), conj.hn.inverse_many(ts), conj.an_values(ts),
                    [conj.hn.inverse(t) for t in ts.tolist()],
                    [conj.an_value(t) for t in ts.tolist()], [conj.an(t) for t in ts.tolist()]):
            assert math.isnan(got[0]) and got[1] == 0.0 and got[2] > 0.0

    def test_shape_is_kept(self):
        conj = conjugate_of("power")
        ts = np.geomspace(1e-3, 1e3, 12).reshape(3, 4)
        assert conj.hn.inverse_many(ts).shape == (3, 4)
        assert conj.an_values(ts).shape == (3, 4)


# the bases whose tables the plain-float reads are checked on, at n = 2 and 3
PLAIN_BASES = {"power": oz.Power(1.5), "power_log": oz.PowerLog(2, 1), "exp": oz.Exp(1.0)}


@functools.lru_cache(maxsize=None)
def plain_table(name: str, n: int) -> HnTable:
    return oz.sobolev_conjugate(PLAIN_BASES[name], n).hn


plain_tables = pytest.mark.parametrize("name, n", [(k, n) for k in sorted(PLAIN_BASES)
                                                   for n in (2, 3)])


class TestPlainFloatReads:
    """The scalar table reads on plain floats against the numpy calls they
    replace, bit for bit."""

    @plain_tables
    def test_chord_start_is_np_interp(self, name, n):
        hn = plain_table(name, n)
        rng = np.random.default_rng(7)
        lo, hi = hn._lnH_lo, hn._lnH_hi
        lts = np.concatenate([rng.uniform(lo, hi, 4000), hn._lnH,  # every knot exactly
                              [np.nextafter(lo, INF), np.nextafter(hi, -INF)]])
        for lt in lts.tolist():
            j = int(np.searchsorted(hn._lnH, lt, side="right")) - 1
            assert hn._chord(lt) == (float(np.interp(lt, hn._lnH, hn._xs)), j)

    @plain_tables
    def test_inverse_many_matches_inverse_bit_for_bit(self, name, n, monkeypatch):
        # the paths differ only in their exp and log: libm's in one, numpy's
        # in the other, which may round the last bit differently (numpy's
        # AVX-512 exp does); with numpy's in both they must agree exactly
        hn = plain_table(name, n)
        rng = np.random.default_rng(11)
        ts = np.concatenate([10.0 ** rng.uniform(-30.0, 30.0, 4000),  # head, core, tail
                             np.exp(hn._lnH), [hn.limit, 0.0, -1.0]])
        want = hn.inverse_many(ts).tolist()
        monkeypatch.setattr(conjugate, "math", types.SimpleNamespace(
            log=lambda x: float(np.log(x)), exp=lambda x: float(np.exp(x))))
        assert [hn.inverse(t) for t in ts.tolist()] == want
        lts = np.log(ts[(ts > 0.0) & (ts < hn.limit)])
        assert (lts < hn._lnH_lo).any() and ((lts >= hn._lnH_lo) & (lts <= hn._lnH_hi)).any()
        # a saturating table ends at its limit: it has no tail branch
        assert (lts > hn._lnH_hi).any() or hn.limit != INF

    @plain_tables
    def test_newton_stays_on_the_bracketing_piece(self, name, n, monkeypatch):
        # with exp the identity, inverse returns Newton's x = ln H^{-1}(t)
        hn = plain_table(name, n)
        kernel = hn._cubic
        rng = np.random.default_rng(17)
        ts = np.exp(rng.uniform(hn._lnH_lo, hn._lnH_hi, 2000)).tolist()
        monkeypatch.setattr(conjugate, "math", types.SimpleNamespace(log=math.log,
                                                                     exp=lambda x: x))
        for t in ts:
            x, lt = hn.inverse(t), math.log(t)
            j = int(np.searchsorted(hn._lnH, lt, side="right")) - 1
            i = min(j, len(hn._xs) - 2)
            assert hn._xs[i] <= x <= hn._xs[i + 1]
            # the piece's cubic meets ln t: one more Newton step would stop
            c0, c1, c2, c3, d2, d3 = kernel.coef[:, i].tolist()
            s = x - hn._xs[i]
            value, slope = c0 + c1 * s + c2 * s * s + c3 * s ** 3, c1 + d2 * s + d3 * s * s
            assert abs(value - lt) < 1e-14 * max(1.0, abs(x)) * slope

    def test_flat_top_knot_hit(self):
        # the last three knots of this table share one ln H: a level at it
        # reads the last of them, 1.43e153, not the 1.07e153 before it
        hn = plain_table("power_log", 2)
        assert hn._lnH[-3] == hn._lnH[-2] == hn._lnH[-1]
        t = math.exp(hn._lnH_hi)
        assert hn.inverse(t) == math.exp(hn._xs[-1]) == pytest.approx(1.433e153, rel=1e-3)
        assert hn.inverse_many(np.array([t])).tolist() == [float(np.exp(hn._xs[-1]))]

    def test_array_reads_make_no_plain_float_copies(self):
        conj = oz.sobolev_conjugate(oz.Power(1.7), 2)
        conj.an_values(np.geomspace(1e-3, 1e3, 50))
        assert not {"_x", "_coef"} & vars(conj.hn._cubic).keys()
        assert "_lnH_list" not in vars(conj.hn)
        conj.an_value(1.0)  # the first scalar read makes them
        assert {"_x", "_coef"} <= vars(conj.hn._cubic).keys()
        assert "_lnH_list" in vars(conj.hn)

    @plain_tables
    def test_refined_reads_the_searchsorted_panel(self, name, n, monkeypatch):
        hn = plain_table(name, n)
        starts = []
        quad = conjugate._quad_interval

        def recording(f, a, b, rel):
            starts.append(a)
            return quad(f, a, b, rel=rel)

        monkeypatch.setattr(conjugate, "_quad_interval", recording)
        rng = np.random.default_rng(13)
        xs = np.concatenate([rng.uniform(hn._x_lo, hn._x_hi + 5.0, 40), hn._xs[::40],
                             [hn._x_lo, hn._x_hi]])
        for x in xs.tolist():
            starts.clear()
            hn.refined(math.exp(x))
            j = int(np.searchsorted(hn._xs, math.log(math.exp(x)), side="right")) - 1
            assert starts == [float(hn._xs[min(j, len(hn._xs) - 1)])]


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
