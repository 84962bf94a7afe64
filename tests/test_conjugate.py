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
from orlicz.conjugate import IntegralClass, _MonotoneCubic
from orlicz.young import INF


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


def test_package_imports_without_scipy():
    src = pathlib.Path(oz.__file__).resolve().parent.parent
    code = ("import sys; sys.path.insert(0, sys.argv[1]); sys.modules['scipy'] = None; "
            "import orlicz, orlicz.cli; orlicz.sobolev_conjugate(orlicz.Power(2), 3)")
    proc = subprocess.run([sys.executable, "-c", code, str(src)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
