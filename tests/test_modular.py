"""Modular integrals, Luxemburg norms, convergence reports, 1-D embeddings."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orlicz as oz
from orlicz import corpus, modular
from orlicz.corpus import interval_vanishing_corpus, unit_ball_corpus
from orlicz.modular import constant_function, sup_norm, trajectory_converges
from orlicz.nemytskii import singular_log_field
from orlicz.young import INF
from test_young import assert_raises

UNIT_1D = oz.BoxDomain.interval(0.0, 1.0)


def neglog_field():
    return oz.TestFunction(
        lambda x: -math.log(x[0]) if x[0] > 0 else INF,
        lambda x: np.array([-1.0 / x[0]]),
        label="neglog",
    )


class TestModularIntegral:
    def test_constant_linear(self):
        u = constant_function(3.5, 1)
        assert oz.modular_integral(u, oz.linear(), 1.0, UNIT_1D) == pytest.approx(3.5)

    def test_zero_function(self):
        z = constant_function(0.0, 1)
        for y in (oz.linear(), oz.Power(2), oz.PowerExp(1)):
            for lam in (0.25, 1.0, 7.0):
                assert oz.modular_integral(z, y, lam, UNIT_1D) == 0.0

    def test_log_singularity_closed_form(self):
        # antiderivative oracle: int_0^1 (-log x) dx = [x - x log x]_0^1 = 1
        box = oz.BoxDomain.interval(0.0, 1.0, singular=((0, "lower"),))
        v = oz.modular_integral(neglog_field(), oz.linear(), 1.0, box)
        assert v == pytest.approx(1.0, rel=1e-7)

    def test_non_increasing_in_lambda(self):
        box = oz.BoxDomain.interval(0.0, 1.0, singular=((0, "lower"),))
        u = neglog_field()
        vals = [oz.modular_integral(u, oz.Power(2), lam, box)
                for lam in (0.5, 1.0, 2.0, 4.0)]
        assert all(vals[i + 1] <= vals[i] * (1 + 1e-9) for i in range(len(vals) - 1))

    def test_certified_divergence(self):
        # int_0^1 dx / x has no finite value; the panel trend certifies it
        box = oz.BoxDomain.interval(0.0, 1.0, singular=((0, "lower"),))
        u = oz.TestFunction(lambda x: 1.0 / x[0] if x[0] > 0 else INF,
                            lambda x: np.array([-1.0 / x[0] ** 2]), "inv")
        assert oz.modular_integral(u, oz.linear(), 1.0, box) == INF

    def test_infinite_box_refused(self):
        box = oz.BoxDomain((0.0,), (INF,))
        with pytest.raises(Exception):
            oz.modular_integral(constant_function(1.0, 1), oz.linear(), 1.0, box)

    @pytest.mark.parametrize("lower,upper,singular,message", [
        ((0.0,) * 4, (1.0,) * 4, (), "quadrature supports dimensions 1 to 3"),
        ((0.0, 1.0), (1.0, 1.0), (), "need lower < upper on every axis"),
        ((0.0,), (1.0,), ((1, "lower"),), "bad singular face (1, lower)"),
        ((0.0,), (1.0,), ((0, "middle"),), "bad singular face (0, middle)"),
    ])
    def test_bad_box_refused(self, lower, upper, singular, message):
        assert_raises(modular.DomainError, message, oz.BoxDomain, lower, upper, singular)

    def test_infinite_box_with_truncation(self):
        box = oz.BoxDomain((0.0,), (INF,))
        u = oz.TestFunction(lambda x: math.exp(-x[0]),
                            lambda x: np.array([-math.exp(-x[0])]), "decay")
        v = oz.modular_integral(u, oz.linear(), 1.0, box, truncation_radius=40.0)
        assert v == pytest.approx(1.0, rel=1e-8)

    def test_convergence_invariant_under_equivalent_functions(self):
        # a sequence converging modularly for A keeps converging for any
        # equivalent function (probed on a parametric pair)
        base = constant_function(0.0, 1)
        ks = [2 ** j for j in range(1, 11)]
        seq = [constant_function(1.0 / k, 1) for k in ks]
        lams = (0.5, 1.0, 2.0)
        rep_a = oz.modular_convergence(seq, base, oz.Power(2), UNIT_1D, lams,
                                       indices=ks)
        rep_b = oz.modular_convergence(seq, base, oz.Power(2, scale=3.0),
                                       UNIT_1D, lams, indices=ks)
        assert rep_a.converging_lambdas == rep_b.converging_lambdas


class TestLuxemburg:
    @pytest.mark.parametrize("y", [
        oz.Isotropic(oz.gate(0.5), 2), oz.Orthotropic((oz.gate(0.5), oz.Power(2))),
        oz.LinearImage(((np.eye(2), oz.Power(2)), (2.0 * np.eye(2), oz.gate(0.5))), 2)],
        ids=["isotropic", "orthotropic", "linear_image"])
    def test_jumping_vector_function_is_indeterminate(self, y):
        # u = x1^2/2 has gradient (x1, 0): the norm is 2 where the nodes read 1.99399...
        u = oz.TestFunction.from_batch(lambda X: 0.5 * X[:, 0] ** 2,
                                       lambda X: X * np.array([1.0, 0.0]), "half_square")
        assert y.finite_jump == 0.5
        assert oz.BlackBox(lambda x: 0.0, 2).finite_jump is None
        with pytest.raises(oz.IndeterminateError):
            oz.luxemburg_norm(u, y, oz.BoxDomain.unit(2), gradient=True)

    def test_constant_linear(self):
        u = constant_function(7.0, 1)
        assert oz.luxemburg_norm(u, oz.linear(), UNIT_1D) == pytest.approx(7.0, rel=1e-9)

    def test_unit_power2(self):
        u = constant_function(1.0, 1)
        assert oz.luxemburg_norm(u, oz.Power(2), UNIT_1D) == pytest.approx(1.0, rel=1e-9)

    def test_zero_function(self):
        assert oz.luxemburg_norm(constant_function(0.0, 1), oz.Power(2), UNIT_1D) == 0.0

    def test_homogeneity(self):
        u = oz.TestFunction(lambda x: math.sin(math.pi * x[0]),
                            lambda x: np.array([math.pi * math.cos(math.pi * x[0])]),
                            "sine")
        base = oz.luxemburg_norm(u, oz.PowerLog(2, 1), UNIT_1D)
        doubled = oz.luxemburg_norm(u.scaled(2.0), oz.PowerLog(2, 1), UNIT_1D)
        assert doubled == pytest.approx(2.0 * base, rel=1e-8)

    @settings(max_examples=10, deadline=None)
    @given(c=st.floats(0.3, 5.0))
    def test_homogeneity_property(self, c):
        u = constant_function(1.3, 1)
        base = oz.luxemburg_norm(u, oz.Power(2), UNIT_1D)
        assert oz.luxemburg_norm(u.scaled(c), oz.Power(2), UNIT_1D) == \
            pytest.approx(c * base, rel=1e-8)

    def test_unit_ball_property(self):
        # |u| <= 1 iff the modular at lambda = 1 is at most 1
        for y in (oz.Power(2), oz.PowerLog(2, 1)):
            for u, box in unit_ball_corpus():
                norm = oz.luxemburg_norm(u, y, box)
                modular = oz.modular_integral(u, y, 1.0, box)
                if norm <= 1.0 - 1e-9:
                    assert modular <= 1.0 + 1e-7
                elif norm >= 1.0 + 1e-9:
                    assert modular >= 1.0 - 1e-7


def ref_luxemburg_norm(u, y, box, gradient=False, rel_tol=1e-8, lam_cap=1e12):
    """The former bisection on log lambda."""
    def m(lam):
        if gradient:
            return modular.modular_integral_gradient(u, y, lam, box, rel_tol)
        return modular.modular_integral(u, y, lam, box, rel_tol)

    hi = 1.0
    doubles = 0
    while m(hi) > 1.0:
        hi *= 2.0
        doubles += 1
        if hi > lam_cap:
            return INF
    if m(min(1e-12, hi)) <= 1.0:
        return 0.0
    lo = hi / 2.0 if doubles else None
    if lo is None:
        lo = hi
        while m(lo / 2.0) <= 1.0:
            lo /= 2.0
            if lo < 1e-12:
                return 0.0
        lo /= 2.0
    for _ in range(80):
        mid = math.sqrt(lo * hi)
        if m(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-11 * hi:
            break
    return hi


SINGULAR_1D = oz.BoxDomain.interval(0.0, 1.0, singular=((0, "lower"),))
LUX_FIELDS_1D = interval_vanishing_corpus() + [
    (corpus.coordinate_field(1), UNIT_1D),
    (singular_log_field(1), SINGULAR_1D),
]
LUX_YOUNG = [oz.Power(1.5), oz.Power(3.2), oz.PowerLog(2, 1), oz.PowerLogLog(2, 0.5),
             oz.PowerExp(1.0), oz.Exp(1.0), oz.gate(0.5)]
BUMP_2D = corpus.get_field("bump", 2)
LUX_CASES = [
    (corpus.coordinate_field(1).scaled(1.3), oz.Power(3.2), oz.BoxDomain.unit(1), False),
    (corpus.coordinate_field(1), oz.Power(2), oz.BoxDomain.unit(1), False),
    (corpus.coordinate_field(1), oz.PowerExp(1.5), oz.BoxDomain.unit(1), False),
    (corpus.product_sine(2), oz.Power(2), oz.BoxDomain.unit(2), False),
    (corpus.product_sine(2), oz.Power(2), oz.BoxDomain.unit(2), True),
    (BUMP_2D, oz.PowerLog(2, 1), oz.BoxDomain.unit(2), False),
]


class TestLuxemburgSearch:
    """The root-finder search against the bisection it replaced."""

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(0, len(LUX_FIELDS_1D) - 1), j=st.integers(0, len(LUX_YOUNG) - 1),
           c=st.floats(-1.3, 1.3).map(lambda e: 10.0 ** e), gradient=st.booleans())
    def test_matches_bisection(self, k, j, c, gradient):
        u, box = LUX_FIELDS_1D[k]
        u, y = u.scaled(c), LUX_YOUNG[j]
        if y.finite_jump is not None:
            # the nodes can miss {|u| > b lambda}, and no certified sup |u| is at hand
            with pytest.raises(oz.IndeterminateError):
                oz.luxemburg_norm(u, y, box, gradient=gradient)
            return
        ref = ref_luxemburg_norm(u, y, box, gradient=gradient)
        got = oz.luxemburg_norm(u, y, box, gradient=gradient)
        assert got == ref or math.isclose(got, ref, rel_tol=1e-10)

    @pytest.mark.parametrize("case", range(len(LUX_CASES)))
    def test_fewer_modulars_than_bisection(self, case, monkeypatch):
        u, y, box, gradient = LUX_CASES[case]
        calls = [0]
        for name in ("modular_integral", "modular_integral_gradient"):
            def counted(*args, _fn=getattr(modular, name)):
                calls[0] += 1
                return _fn(*args)
            monkeypatch.setattr(modular, name, counted)
        ref = ref_luxemburg_norm(u, y, box, gradient=gradient)
        ref_calls, calls[0] = calls[0], 0
        got = oz.luxemburg_norm(u, y, box, gradient=gradient)
        assert math.isclose(got, ref, rel_tol=1e-10)
        assert calls[0] <= ref_calls

    @pytest.mark.parametrize("u,box,expected", [
        # the modular diverges for every lambda, yet underflows to 0 at 1e300
        (oz.TestFunction.from_batch(lambda X: 1.0 / X[:, 0],
                                    lambda X: -1.0 / X[:, :1] ** 2, "inv"),
         SINGULAR_1D, INF),
        (constant_function(1e13, 1), UNIT_1D, INF),
        (constant_function(1.1e12, 1), UNIT_1D, INF),
        (constant_function(0.9e12, 1), UNIT_1D, 0.9e12),
        (constant_function(2e-12, 1), UNIT_1D, 2e-12),
        (constant_function(0.9e-12, 1), UNIT_1D, 0.0),
        (constant_function(1e-13, 1), UNIT_1D, 0.0),
    ])
    def test_range_contract(self, u, box, expected):
        # a norm above 1e12 reads inf, one below 1e-12 reads 0
        got = oz.luxemburg_norm(u, oz.Power(2), box)
        assert got == expected or math.isclose(got, expected, rel_tol=1e-10)

    @pytest.mark.parametrize("c,modulars", [
        (0.0, 6), (1e-13, 6), (0.9e-12, 6), (2e-12, 10),
        (0.9e12, 13), (1.1e12, 6), (1e13, 6),
    ])
    def test_modulars_near_the_range_ends(self, c, modulars, monkeypatch):
        # past either end the modular at that end decides the side, so a
        # norm outside the range costs no search onto the end
        calls = [0]

        def counted(*args, _fn=modular.modular_integral):
            calls[0] += 1
            return _fn(*args)

        monkeypatch.setattr(modular, "modular_integral", counted)
        oz.luxemburg_norm(constant_function(c, 1), oz.Power(2), UNIT_1D)
        assert calls[0] == modulars


class TestW1A:
    def test_coordinate_gradient_norm(self):
        u = oz.TestFunction(lambda x: float(x[0]), lambda x: np.ones(1), "x")
        q = oz.w1a_quantities(u, oz.linear(), UNIT_1D)
        assert q.norm_gradient == pytest.approx(1.0, rel=1e-9)

    def test_zero_field(self):
        q = oz.w1a_quantities(constant_function(0.0, 1), oz.Power(2), UNIT_1D)
        assert q.norm_value == 0.0 and q.norm_gradient == 0.0

    def test_counterexample_gradient_modular(self):
        # A(|grad u|/2) = -(1/2) x^{-1/2} log x; oracle:
        # int_0^1 x^a log x dx = -1/(a+1)^2 gives the closed family
        # lambda / (lambda - 1)^2, hence the value 2 at lambda = 2
        box = oz.BoxDomain.unit(1, singular=((0, "lower"),))
        u = singular_log_field(1)
        q = oz.w1a_quantities(u, oz.PowerExp(1), box)
        assert q.modular_gradient(2.0) == pytest.approx(2.0, rel=1e-7)
        lam = 3.0
        assert q.modular_gradient(lam) == pytest.approx(lam / (lam - 1) ** 2,
                                                        rel=1e-7)
        assert q.modular_gradient(1.0) == INF


class TestConvergence:
    def test_constant_shifts_converge_everywhere(self):
        base = constant_function(0.3, 1)
        ks = [2 ** j for j in range(1, 11)]
        seq = [constant_function(0.3 + 1.0 / k, 1) for k in ks]
        lams = (0.25, 0.5, 1.0, 2.0, 4.0)
        rep = oz.modular_convergence(seq, base, oz.Power(2), UNIT_1D, lams,
                                     indices=ks)
        # oracle: the modular equals (1/(k lambda))^2 |box|
        assert rep.value_modulars[0, 2] == pytest.approx((1.0 / (2 * 1.0)) ** 2,
                                                         rel=1e-9)
        assert rep.norm_convergence
        assert rep.converging_lambdas == lams
        assert rep.smallest_converging_lambda == 0.25

    def test_identical_sequence(self):
        base = constant_function(1.0, 1)
        seq = [constant_function(1.0, 1) for _ in range(6)]
        rep = oz.modular_convergence(seq, base, oz.Power(2), UNIT_1D, (1.0, 2.0))
        assert rep.norm_convergence
        assert np.all(rep.modular_values == 0.0)

    def test_rows_non_increasing(self):
        base = constant_function(0.0, 1)
        ks = [2, 4, 8, 16]
        seq = [constant_function(1.0 / k, 1) for k in ks]
        rep = oz.modular_convergence(seq, base, oz.PowerExp(1), UNIT_1D,
                                     (0.5, 1.0, 2.0), indices=ks)
        assert rep.rows_non_increasing_in_lambda()

    @settings(max_examples=200, deadline=None)
    @given(m=st.lists(st.lists(st.one_of(st.floats(0.0, 1e308), st.sampled_from([INF, math.nan])),
                               min_size=4, max_size=4), min_size=1, max_size=4))
    def test_rows_non_increasing_matches_point_loop(self, m):
        rep = oz.ModularReport((), (), None, None, np.array(m), (), False, INF)
        assert rep.rows_non_increasing_in_lambda() is ref_rows_non_increasing(m)

    @pytest.mark.parametrize("lams,indices,message", [
        ((1.0, 0.5), None, "lambda grid must be positive and increasing"),
        ((0.5, 1.0), (1, 2), "indices must align with the sequence"),
    ])
    def test_input_errors(self, lams, indices, message):
        seq = [constant_function(1.0 / k, 1) for k in (1, 2, 4)]
        assert_raises(oz.YoungError, message, oz.modular_convergence,
                      seq, constant_function(0.0, 1), oz.Power(2), UNIT_1D, lams, indices)

    def test_trajectory_rule(self):
        assert trajectory_converges([1.0, 0.1, 0.01, 0.0005])
        assert not trajectory_converges([1.0, 0.1, 0.01, 0.002])
        assert not trajectory_converges([1.0, 0.5, INF, 0.0001])
        assert trajectory_converges([0.0, 0.0, 0.0])
        assert not trajectory_converges([0.0, 0.0, 0.5])


class TestOneDimensionalEmbeddings:
    @pytest.mark.parametrize("y", [oz.Power(2), oz.PowerLog(2, 1), oz.PowerExp(1)])
    def test_sup_bound_via_inverse(self, y):
        # |u|_inf <= |I| A^{-1}( (1/|I|) int A(|u'|) ) for fields vanishing
        # at both interval endpoints
        for u, box in interval_vanishing_corpus():
            sup = sup_norm(u, box)
            mod = oz.modular_integral_gradient(u, y, 1.0, box)
            bound = box.measure * y.inverse(mod / box.measure)
            assert sup <= bound * (1 + 1e-6)

    def test_linear_near_zero_bound(self):
        # for A with A(t) ~ t near zero: |u|_inf <= c int A(|u'|) with
        # c = sup t / A(t), attained as t -> 0
        y = oz.linear()
        c = 1.0
        worst = 0.0
        for u, box in interval_vanishing_corpus():
            sup = sup_norm(u, box)
            mod = oz.modular_integral_gradient(u, y, 1.0, box)
            assert sup <= c * mod * (1 + 1e-6)
            worst = max(worst, sup / mod)
        assert 0.0 < worst <= c * (1 + 1e-6)


def ref_rows_non_increasing(m, slack=1e-7):
    """The former loop of ``ModularReport.rows_non_increasing_in_lambda``."""
    for row in m:
        finite_prev = None
        for v in row:
            if finite_prev is not None and math.isfinite(finite_prev):
                if math.isfinite(v) and v > finite_prev * (1 + slack) + 1e-300:
                    return False
            finite_prev = v
    return True


def ref_gradient_consistent(u, box, points=32, rel_tol=1e-4, seed=7, margin=0.05):
    """The former loop of ``TestFunction.gradient_consistent``: one draw of
    ``rng.random(n)`` per point."""
    rng = np.random.default_rng(seed)
    lo, hi = np.array(box.lower, dtype=float), np.array(box.upper, dtype=float)
    width = hi - lo
    ok = True
    for _ in range(points):
        x = lo + width * (margin + (1 - 2 * margin) * rng.random(box.n))
        g = np.asarray(u.gradient(x), dtype=float)
        h = 1e-5 * np.maximum(width, 1.0)
        fd = np.zeros(box.n)
        for i in range(box.n):
            xp, xm = x.copy(), x.copy()
            xp[i] += h[i]
            xm[i] -= h[i]
            fd[i] = (u.value(xp) - u.value(xm)) / (2 * h[i])
        scale = max(np.linalg.norm(g), np.linalg.norm(fd), 1e-8)
        if np.linalg.norm(fd - g) > rel_tol * scale * 10:
            ok = False
    return ok


class TestTestFunction:
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1),
           points=st.integers(1, 12), tilt=st.sampled_from([0.0, 1e-2]))
    def test_gradient_probe_matches_point_loop(self, n, seed, points, tilt):
        # the probe visits the same points as the loop, and a gradient off by
        # ``tilt`` in one corner fails both
        seen = {"new": [], "ref": []}

        def field(log):
            def value(x):
                seen[log].append(x.copy())
                return float(np.sum(np.sin(3.0 * x)))

            def gradient(x):
                seen[log].append(x.copy())
                return 3.0 * np.cos(3.0 * x) + (tilt if x[0] > 0.8 else 0.0)

            return oz.TestFunction(value, gradient)

        box = oz.BoxDomain((0.0,) * n, (1.0,) * n)
        got = field("new").gradient_consistent(box, points=points, seed=seed)
        assert got is ref_gradient_consistent(field("ref"), box, points=points, seed=seed)
        assert np.array_equal(np.unique(seen["new"], axis=0), np.unique(seen["ref"], axis=0))

    def test_gradient_consistency(self):
        for u, box in interval_vanishing_corpus():
            if u.label == "tent":
                continue  # kink breaks central differences at one point
            assert u.gradient_consistent(box)

    def test_difference(self):
        u = constant_function(3.0, 1)
        v = constant_function(1.0, 1)
        d = u - v
        assert d.value(np.array([0.4])) == 2.0
        assert d.gradient(np.array([0.4]))[0] == 0.0
