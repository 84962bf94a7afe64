"""Composition operator, inequality grids, experiments, counterexample."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orlicz as oz
from orlicz import corpus
from orlicz._quad import tensor_rule
from orlicz.corpus import interval_vanishing_corpus
from orlicz.modular import constant_function, sup_norm
from orlicz.nemytskii import (
    _poincare_constant,
    abs_shift_spec,
    counterexample_run,
    identity_spec,
    signed_square_spec,
    singular_log_field,
)
from orlicz.young import INF

UNIT_1D = oz.BoxDomain.interval(0.0, 1.0)


class TestEnvelope:
    def test_non_decreasing(self):
        for env in (oz.Envelope.one(), oz.Envelope.power(1.0),
                    oz.Envelope.power(1.0, 1.0), oz.Envelope.log_power(2.0),
                    oz.Envelope.exp_power(2.0), oz.Envelope.exp_exp(2.0)):
            assert env.non_decreasing()

    def test_parse_round_trip(self):
        env = oz.parse_envelope("power:1")
        assert env.kind == "power" and env(2.0) == 2.0
        assert oz.parse_envelope("one")(5.0) == 1.0
        assert oz.parse_envelope({"kind": "exp_power", "a": 2.0})(1.0) == math.e
        with pytest.raises(oz.YoungError):
            oz.parse_envelope("mystery:1")


class TestLipschitzSpec:
    def test_derivative_bound_probe(self):
        assert identity_spec().derivative_bound_holds()
        assert abs_shift_spec().derivative_bound_holds()
        assert signed_square_spec().derivative_bound_holds()

    def test_violating_spec_detected(self):
        bad = oz.LipschitzSpec(lambda t: t * t, lambda t: 2 * t, kappa=1.0,
                               envelope=oz.Envelope.one(), label="quad")
        assert not bad.derivative_bound_holds()


def old_abs_shift_fprime(t):
    if t >= 1.0:
        return 1.0
    if t <= -1.0:
        return -1.0
    return 0.0


# the scalar formulas of the built-in specs (abs_shift at its default shift 1)
SCALAR_SPECS = {
    "identity": (lambda t: t, lambda t: 1.0),
    "abs_shift": (lambda t: max(0.0, abs(t) - 1.0), old_abs_shift_fprime),
    "signed_square": (lambda t: 0.5 * t * abs(t), lambda t: abs(t)),
}

EDGES = [1.0, -1.0, 0.0, -0.0, INF, -INF, math.nan, 1.0 + 2e-16, -1.0 - 2e-16, 5e-324]


def same_bits(got, want):
    """Equal to the bit, except that any NaN matches any NaN."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


class TestBuiltInSpecsOnArrays:
    @settings(max_examples=60, deadline=None)
    @given(ts=st.lists(st.one_of(st.floats(), st.sampled_from(EDGES)), max_size=40))
    def test_arrays_match_scalar_formulas(self, ts):
        t = np.array(ts + EDGES, dtype=float)
        assert set(SCALAR_SPECS) == set(corpus.SPECS)
        for name, make in corpus.SPECS.items():
            spec, (f, fp) = make(), SCALAR_SPECS[name]
            same_bits(spec.f(t), [f(x) for x in t.tolist()])
            same_bits(spec.fprime(t), [fp(x) for x in t.tolist()])

    def test_f_at_zero_is_a_float(self):
        for make in corpus.SPECS.values():
            assert type(make().f_at_zero) is float


class TestCompose:
    def test_identity(self):
        u = corpus.product_sine(2)
        v = oz.compose(identity_spec(), u)
        for _ in range(8):
            x = np.random.default_rng(4).random(2)
            assert v.value(x) == pytest.approx(u.value(x))
            assert np.allclose(v.gradient(x), u.gradient(x))

    def test_constant_map(self):
        spec = oz.LipschitzSpec(lambda t: 2.0, lambda t: 0.0, kappa=1.0,
                                envelope=oz.Envelope.one(), label="const")
        v = oz.compose(spec, corpus.coordinate_field(2))
        x = np.array([0.3, 0.8])
        assert v.value(x) == 2.0
        assert np.allclose(v.gradient(x), 0.0)

    def test_threshold_kink_selects_strip(self):
        # below x1 = 1/k the shifted field exceeds 1 while the limit stays
        # under it, so the image gradients differ exactly by grad u there
        k = 8
        u = singular_log_field(2)
        uk = oz.TestFunction(
            lambda x: u.value(x) + (math.log(k) + 1) / k, u.gradient, "uk")
        spec = abs_shift_spec(1.0)
        fu = oz.compose(spec, u)
        fuk = oz.compose(spec, uk)
        inside = np.array([0.5 / k, 0.5])
        outside = np.array([3.0 / k, 0.5])
        assert np.allclose(fuk.gradient(inside) - fu.gradient(inside),
                           u.gradient(inside))
        assert np.allclose(fuk.gradient(outside), fu.gradient(outside))


class TestTruncate:
    def test_large_threshold_kills(self):
        u = constant_function(0.5, 1)
        t = oz.truncate(u, 2.0)
        x = np.array([0.3])
        assert t.value(x) == 0.0 and t.gradient(x)[0] == 0.0

    def test_far_above_threshold(self):
        u = oz.TestFunction(lambda x: 5.0 + x[0], lambda x: np.ones(1), "aff")
        t = oz.truncate(u, 1.0)
        x = np.array([0.25])
        assert t.value(x) == pytest.approx(4.25)
        assert t.gradient(x)[0] == 1.0

    def test_gradient_modular_shrinks(self):
        # restriction to {|u| >= s} can only reduce the gradient modular
        for u, box in interval_vanishing_corpus()[:4]:
            full = oz.modular_integral_gradient(u, oz.Power(2), 1.0, box)
            cut = oz.modular_integral_gradient(oz.truncate(u, 0.3),
                                               oz.Power(2), 1.0, box)
            assert cut <= full * (1 + 1e-9)

    def test_positive_threshold_required(self):
        with pytest.raises(oz.YoungError):
            oz.truncate(constant_function(1.0, 1), 0.0)


class TestLemmaGrids:
    @pytest.mark.parametrize("p,n,r", [(2, 3, 1), (1, 2, 2), (2, 4, 0.5)])
    def test_product_bound_families(self, p, n, r):
        q = n * p / (n + r * (n - p))
        verdict = oz.lemma_product_bound(
            oz.Power(p), oz.Power(q), oz.Envelope.power(r), n, t0=0.0)
        assert verdict.holds
        assert verdict.additive_constant == 0.0

    def test_closed_form_oracle_for_one_family(self):
        # independent oracle for (p, n, r) = (2, 3, 1): the conjugate is
        # t^6/16, so the margin at (s, t) is s^6/16 + t^2 - (s t / 2)^{3/2}
        verdict = oz.lemma_product_bound(
            oz.Power(2), oz.Power(1.5), oz.Envelope.power(1.0), 3)
        ss = np.geomspace(1e-3, 1e3, 64)
        worst = INF
        for s in ss:
            for t in ss:
                m = s ** 6 / 16 + t * t - (s * t / 2.0) ** 1.5
                worst = min(worst, m)
        assert worst >= 0.0
        assert verdict.worst_margin == pytest.approx(worst, rel=1e-6, abs=1e-9)

    def test_unit_envelope_reduces_to_convexity(self):
        verdict = oz.lemma_product_bound(
            oz.Power(2), oz.Power(2), oz.Envelope.one(), 3)
        assert verdict.holds and verdict.worst_margin >= 0.0

    def test_small_s_rows_hold(self):
        verdict = oz.lemma_product_bound(
            oz.Power(2), oz.Power(1.5), oz.Envelope.power(1.0), 3,
            lo=1e-6, hi=1e3, count=48)
        assert verdict.holds

    def test_refused_without_hypothesis(self):
        with pytest.raises(oz.PreconditionError):
            oz.lemma_product_bound(oz.Power(2), oz.Power(1.9),
                                   oz.Envelope.power(1.0), 3)

    def test_split_bound(self):
        v = oz.lemma_split_bound(oz.Power(2), oz.Power(2), oz.Envelope.one(),
                                 oz.Power(2))
        assert v.holds and v.worst_margin >= 0.0


class TestConjugateRatioNearZero:
    @pytest.mark.parametrize("a,n", [(oz.Power(2), 3), (oz.linear(), 2),
                                     (oz.PowerLog(2, 1), 3)])
    def test_bounded_ratio(self, a, n):
        conj = oz.sobolev_conjugate(a, n)
        ts = np.geomspace(1e-8, 1e-2, 40)
        for lam in (1.0, 10.0, 100.0):
            sup = 0.0
            for t in ts:
                t = float(t)
                at = a(t)
                if at <= 0.0:
                    continue
                sup = max(sup, conj.an_value(lam * t) / at)
            assert math.isfinite(sup)


class TestIntervalEmbedding:
    def test_sup_controlled_by_sobolev_norm(self):
        # finite calibrated constant over the interval corpus
        y = oz.Power(2)
        worst = 0.0
        for u, box in interval_vanishing_corpus():
            q = oz.w1a_quantities(u, y, box)
            total = q.norm_w1a
            assert total > 0.0
            worst = max(worst, sup_norm(u, box) / total)
        assert math.isfinite(worst) and worst > 0.0


class TestContinuityExperiment:
    def test_identity_converges(self):
        base = corpus.coordinate_field(2)
        ks = [2 ** j for j in range(1, 9)]
        seq = corpus.shifted_sequence(base, ks, lambda k: 1.0 / k)
        rep = oz.continuity_experiment(identity_spec(), seq, base, oz.Power(2),
                                       oz.Power(2), oz.BoxDomain.unit(2), 2,
                                       indices=ks)
        assert rep.converged
        assert rep.predicted_constant >= rep.base_lambda

    def test_signed_square_converges_at_predicted_constant(self):
        base = corpus.coordinate_field(2)
        ks = [4 ** j for j in range(1, 7)]
        seq = corpus.shifted_sequence(base, ks, lambda k: 1.0 / k)
        rep = oz.continuity_experiment(signed_square_spec(), seq, base,
                                       oz.Power(2), oz.Power(1),
                                       oz.BoxDomain.unit(2), 2, indices=ks)
        assert rep.converged
        expect = 24.0 * 1.0 * max(rep.base_lambda, rep.norm_limit)
        assert rep.predicted_constant == pytest.approx(expect, rel=1e-12)

    def test_refused_on_failed_condition(self):
        base = corpus.coordinate_field(2)
        seq = corpus.shifted_sequence(base, [2, 4], lambda k: 1.0 / k)
        with pytest.raises(oz.PreconditionError):
            oz.continuity_experiment(signed_square_spec(), seq, base,
                                     oz.Power(2), oz.Power(1.9),
                                     oz.BoxDomain.unit(2), 2, indices=[2, 4])


class TestCounterexample:
    def test_strip_matches_antiderivative(self):
        rep = counterexample_run((8,), (1e-3,), dim=1)
        got = rep.strip_values[(8, 1e-3)]
        # antiderivative oracle: -(log t)^2/2 evaluated on (delta, 1/k)
        expect = (math.log(1e-3) ** 2 - math.log(8) ** 2) / 2.0
        assert got == pytest.approx(expect, rel=1e-6)

    def test_value_modular_closed_form(self):
        rep = counterexample_run((8,), (1e-3,), dim=1, lambda_grid=(1.0,))
        c = (math.log(8) + 1) / 8
        expect = c * math.exp(c)  # |box| A(c) with A(t) = t e^t
        assert rep.w_difference.value_modulars[0, 0] == pytest.approx(expect,
                                                                      rel=1e-9)

    def test_gradients_identical(self):
        rep = counterexample_run((8,), (1e-3,), dim=1)
        assert np.all(rep.w_difference.gradient_modulars == 0.0)

    def test_skip_rule(self):
        rep = counterexample_run((512,), (1e-2,), dim=1)
        assert ((512, 1e-2), "strip is empty: 1/k <= delta") in rep.skipped

    def test_per_k_strip_decreases_with_k(self):
        # at fixed cutoff the strips shrink in k: per-k finiteness with
        # divergence only as the cutoff vanishes
        rep = counterexample_run((8, 64), (1e-4,), dim=1)
        assert rep.strip_values[(64, 1e-4)] < rep.strip_values[(8, 1e-4)]

    def test_divergence_certificate(self):
        rep = counterexample_run((8,), (1e-2, 1e-3, 1e-4), dim=1)
        assert rep.divergence_certified

    def test_face_walk_takes_few_integrand_calls(self, monkeypatch):
        # the walk toward the singular face integrates six panels per call
        # (62 calls here; 152 with one call per panel)
        calls = [0]
        integrate_box = oz.modular.integrate_box

        def counted(fn, box, *args, **kwargs):
            def counted_fn(X):
                calls[0] += 1
                return fn(X)
            return integrate_box(counted_fn, box, *args, **kwargs)

        monkeypatch.setattr(oz.modular, "integrate_box", counted)
        counterexample_run((8, 64), (8e-4, 8e-5), dim=2)
        assert calls[0] <= 62


class TestComposeGradients:
    def test_chain_rule_consistency(self):
        u = oz.TestFunction(
            lambda x: math.sin(math.pi * x[0]),
            lambda x: np.array([math.pi * math.cos(math.pi * x[0])]), "sine")
        v = oz.compose(signed_square_spec(), u)
        assert v.gradient_consistent(UNIT_1D)


class TestPoincare:
    def test_two_dimensional_probe(self):
        rep = oz.poincare_probe(corpus.bump_corpus(2, count=3), oz.Power(2), 2,
                                nodes=20)
        assert math.isfinite(rep.c_star) and rep.c_star > 0.0
        assert rep.stable(0.05)

    def test_scaled_field_still_finite(self):
        bumps = corpus.bump_corpus(2, count=2)
        scaled = [(u.scaled(2.0), box) for u, box in bumps]
        rep = oz.poincare_probe(scaled, oz.Power(2), 2, nodes=20)
        assert math.isfinite(rep.c_star) and rep.c_star > 0.0

    def test_zero_field_excluded(self):
        z = (constant_function(0.0, 2), oz.BoxDomain.unit(2))
        rep = oz.poincare_probe([z] + corpus.bump_corpus(2, count=1),
                                oz.Power(2), 2, nodes=16)
        assert rep.constants[0] == 0.0
        assert rep.c_star > 0.0


def ref_poincare_constant(u, box, conj, nodes):
    """The former bisection on log c."""
    n = box.n
    pts, w = tensor_rule(box.lower, box.upper, nodes)
    uvals = np.abs(u.values(pts))
    r_mod = float(np.dot(w, conj.base.values(np.linalg.norm(u.gradients(pts), axis=1))))
    if r_mod <= 0.0:
        return 0.0
    scale = r_mod ** (1.0 / n)

    def lhs(c):
        vals = conj.an_values(uvals / (c * scale))
        if np.any(np.isinf(vals)):
            return INF
        return float(np.dot(w, vals))

    lo_c, hi_c = 1e-3, 1.0
    while lhs(hi_c) > r_mod:
        hi_c *= 2.0
        if hi_c > 1e18:
            return INF
    while lhs(lo_c) <= r_mod and lo_c > 1e-12:
        lo_c /= 2.0
    for _ in range(60):
        mid = math.sqrt(lo_c * hi_c)
        if lhs(mid) <= r_mod:
            hi_c = mid
        else:
            lo_c = mid
        if hi_c - lo_c <= 1e-6 * hi_c:
            break
    return hi_c


POINCARE_BASES = [(oz.Power(1.5), 2), (oz.Power(2), 2), (oz.PowerLog(2, 1), 2),
                  (oz.Power(3), 2), (oz.Power(2), 3)]


@functools.lru_cache(maxsize=None)
def poincare_conjugate(j):
    return oz.sobolev_conjugate(*POINCARE_BASES[j])


class TestPoincareSearch:
    """The root-finder search against the bisection it replaced."""

    @settings(max_examples=30, deadline=None)
    @given(j=st.integers(0, len(POINCARE_BASES) - 1), k=st.integers(0, 4),
           c=st.floats(-1.0, 1.0).map(lambda e: 10.0 ** e), nodes=st.sampled_from((8, 12, 16)))
    def test_matches_bisection(self, j, k, c, nodes):
        conj = poincare_conjugate(j)
        u, box = corpus.bump_corpus(POINCARE_BASES[j][1])[k]
        u = u.scaled(c)
        ref = ref_poincare_constant(u, box, conj, nodes)
        got = _poincare_constant(u, box, conj, nodes)
        assert got == ref or math.isclose(got, ref, rel_tol=2e-6)

