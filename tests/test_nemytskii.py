"""Composition operator, inequality grids, experiments, counterexample."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orlicz as oz
from orlicz import corpus, nemytskii
from orlicz._quad import tensor_rule
from orlicz.conjugate import SobolevConjugate
from orlicz.corpus import interval_vanishing_corpus
from orlicz.modular import constant_function, sup_norm
from orlicz.nemytskii import (
    LemmaGridVerdict,
    _lemma_grid,
    _poincare_constants,
    abs_shift_spec,
    counterexample_run,
    identity_spec,
    signed_square_spec,
    singular_log_field,
)
from orlicz.young import INF, _log_root, _numeric_inverse
from test_young import assert_raises

UNIT_1D = oz.BoxDomain.interval(0.0, 1.0)


def ref_envelope(env):
    """The scalar closure each built-in kind had before the one-shape body."""
    p = env.params
    if env.kind == "one":
        return lambda t: 1.0
    if env.kind == "power":
        r, gamma = p["r"], p["gamma"]
        if gamma == 0.0:
            return lambda t: t ** r
        if p["second"] == "log":
            return lambda t: t ** r * math.log1p(t) ** gamma if t > 0 else 0.0
        return lambda t: t ** r * math.log(math.log(math.e + t)) ** gamma if t > 0 else 0.0
    if env.kind == "log_power":
        return lambda t: math.log1p(t) ** p["r"]
    if env.kind == "exp_power":
        def fn(t):
            if t <= 0.0:
                return 1.0
            x = t ** p["a"] * (math.log1p(t) ** p["log_exp"] if p["log_exp"] else 1.0)
            return INF if x > 709.0 else math.exp(x)
        return fn

    def fn(t):  # exp_exp
        if t <= 0.0:
            return math.e
        x = t ** p["a"]
        if x > 6.5:
            return INF
        inner = math.exp(x)
        return INF if inner > 709.0 else math.exp(inner)
    return fn


def ref_envelope_values(env, ts):
    """The kind switch ``Envelope.values`` had before the one-shape body."""
    t = np.maximum(np.asarray(ts, dtype=float).ravel(), 0.0)
    kind, p = env.kind, env.params
    if kind == "one":
        return np.ones(t.size)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if kind == "log_power":
            return np.log1p(t) ** p["r"]
        if kind == "power":
            out = t ** p["r"]
            if p["gamma"] == 0.0:
                return out
            slow = np.log1p(t) if p["second"] == "log" else np.log(np.log(math.e + t))
            return np.where(t > 0.0, out * slow ** p["gamma"], 0.0)
        x = t ** p["a"]
        if kind == "exp_power":
            if p["log_exp"]:
                x = x * np.log1p(t) ** p["log_exp"]
            out = np.exp(np.minimum(x, 709.0))
            out[x > 709.0] = INF
            out[t <= 0.0] = 1.0
            return out
        out = np.exp(np.exp(np.minimum(x, 6.5)))
        out[x > 6.5] = INF
        out[t <= 0.0] = math.e
        return out


BUILT_IN_ENVELOPES = (
    [oz.Envelope.one()]
    + [oz.Envelope.power(r, g, s) for r in (0.0, 0.5, 1.0, 2.5) for g in (0.0, -1.5, 0.5, 2.0)
       for s in ("log", "loglog")]
    + [oz.Envelope.log_power(r) for r in (0.0, 0.5, 1.0, 3.0)]
    + [oz.Envelope.exp_power(a, b) for a in (0.3, 1.0, 2.0) for b in (0.0, -1.0, 0.5)]
    + [oz.Envelope.exp_exp(a) for a in (0.3, 1.0, 2.0)])


def envelope_grid(env):
    """0, -0.0, the extremes of the float range, a log grid, and the points
    around the 709 and 6.5 cut-offs of the exp kinds."""
    ts = [0.0, -0.0, -1.0, 5e-324, 1e-300, 1e-17, 1.0, math.e - 1.0, 1e300, INF]
    ts += np.geomspace(1e-12, 1e12, 49).tolist()
    if env.kind == "exp_power":
        a, b = env.params["a"], env.params["log_exp"]
        ts.append(_numeric_inverse(lambda t: t ** a * math.log1p(t) ** b, 709.0))
    if env.kind == "exp_exp":
        ts += [6.5 ** (1.0 / env.params["a"]), math.log(709.0) ** (1.0 / env.params["a"])]
    if env.kind in ("exp_power", "exp_exp"):
        ts += [x for t in ts[-2:] for x in (np.nextafter(t, 0.0), np.nextafter(t, INF))]
    return ts


class TestEnvelope:
    def test_non_decreasing(self):
        for env in (oz.Envelope.one(), oz.Envelope.power(1.0),
                    oz.Envelope.power(1.0, 1.0), oz.Envelope.log_power(2.0),
                    oz.Envelope.exp_power(2.0), oz.Envelope.exp_exp(2.0)):
            assert env.non_decreasing()

    def test_one_shape_per_function(self):
        # at gamma = 0 there is no second factor, so its name cannot split the shape
        assert oz.Envelope.power(1, 0, "loglog").shape == oz.Envelope.power(1).shape

    @pytest.mark.parametrize("env", BUILT_IN_ENVELOPES, ids=lambda e: f"{e.kind}{e.params}")
    def test_values_match_reference_bits(self, env):
        ts = envelope_grid(env)
        assert env.values(np.array(ts)).tobytes() == ref_envelope_values(env, ts).tobytes()

    @pytest.mark.parametrize("env", BUILT_IN_ENVELOPES, ids=lambda e: f"{e.kind}{e.params}")
    def test_call_matches_reference(self, env):
        # equal to the former closure wherever it returned, and to the array
        # body (inf, or nan for 0 * inf) where a float power made it raise
        ref = ref_envelope(env)
        ts = envelope_grid(env)
        for t, v in zip(ts, env.values(np.array(ts)).tolist()):
            try:
                want = ref(max(t, 0.0))
            except (OverflowError, ZeroDivisionError):
                want = v
            got = env(t)
            assert got == want or (math.isnan(got) and math.isnan(want)), t

    def test_power_past_the_float_range_is_inf(self):
        assert oz.Envelope.power(2.5)(1e200) == INF
        assert oz.Envelope.exp_power(2.0)(1e200) == INF

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_values_match_scalar(self, data):
        env = data.draw(st.one_of(
            st.just(oz.Envelope.one()),
            st.builds(oz.Envelope.power, st.floats(0.0, 4.0)),
            st.builds(oz.Envelope.power, st.floats(0.0, 4.0), st.floats(0.0, 3.0),
                      st.sampled_from(["log", "loglog"])),
            st.builds(oz.Envelope.log_power, st.floats(0.0, 4.0)),
            st.builds(oz.Envelope.exp_power, st.floats(0.1, 4.0), st.floats(0.0, 2.0)),
            st.builds(oz.Envelope.exp_exp, st.floats(0.1, 4.0)),
            st.just(oz.Envelope.custom(lambda t: 2.0 + t)),
        ))
        edges = [0.0]  # where the exp kinds overflow to inf
        if env.kind == "exp_power":
            a, b = env.params["a"], env.params["log_exp"]
            edges.append(_numeric_inverse(lambda t: t ** a * math.log1p(t) ** b, 709.0))
        if env.kind == "exp_exp":
            edges.append(6.5 ** (1.0 / env.params["a"]))
        near = st.sampled_from(edges).flatmap(
            lambda e: st.floats(-1e-12, 1e-12).map(lambda d: e * (1.0 + d)))
        ts = data.draw(st.lists(st.one_of(
            st.floats(-50.0, 0.0), st.sampled_from([0.0, -0.0, INF]), near,
            st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)), min_size=1, max_size=16))
        got = env.values(np.array(ts))
        for t, g in zip(ts, got.tolist()):
            want = env(t)
            if want == INF or g == INF:
                # the cut-off moves with the rounding of its exponent
                cut = {"exp_power": math.exp(709.0), "exp_exp": math.exp(math.exp(6.5))}
                assert g == want or min(g, want) >= cut[env.kind] * (1.0 - 1e-12)
                continue
            # the exponentials scale the rounding of their exponent, an ulp or
            # so apart in numpy and in math, by the exponent itself
            log_e = math.log(want) if want > 0.0 else 0.0
            gain = {"exp_power": max(1.0, log_e),
                    "exp_exp": max(1.0, log_e * math.log(max(log_e, 1.0)))}.get(env.kind, 1.0)
            assert g == pytest.approx(want, rel=1e-15 * gain, abs=0.0)

    def test_parse_round_trip(self):
        env = oz.parse_envelope("power:1")
        assert env.kind == "power" and env(2.0) == 2.0
        assert oz.parse_envelope("one")(5.0) == 1.0
        assert oz.parse_envelope({"kind": "exp_power", "a": 2.0})(1.0) == math.e
        with pytest.raises(oz.YoungError):
            oz.parse_envelope("mystery:1")
        for bad in ("power", "power:1,2,3,4", "power:1,0,2", "power:x", 3, None,
                    {"kind": "power"}, {"kind": "power", "r": 1, "x": 2},
                    {"kind": "power", "r": 1, "second": "cubic"}, {"kind": "power", "r": "1"}):
            with pytest.raises(oz.YoungError):
                oz.parse_envelope(bad)

    @pytest.mark.parametrize("record,kind,params", [
        ("one", "one", {}),
        ("power:1", "power", {"r": 1.0, "gamma": 0.0, "second": "log"}),
        ("power:1,0.5", "power", {"r": 1.0, "gamma": 0.5, "second": "log"}),
        ({"kind": "power", "r": 1, "second": "loglog"}, "power",
         {"r": 1, "gamma": 0.0, "second": "loglog"}),
        ("logpower:2", "log_power", {"r": 2.0}),
        ("log_power:2", "log_power", {"r": 2.0}),
        ("exppower:1", "exp_power", {"a": 1.0, "log_exp": 0.0}),
        ("exp_power:1,0.5", "exp_power", {"a": 1.0, "log_exp": 0.5}),
        ("exp:1", "exp_power", {"a": 1.0, "log_exp": 0.0}),
        ("expexp:1", "exp_exp", {"a": 1.0}),
        ("exp_exp:1", "exp_exp", {"a": 1.0}),
    ])
    def test_every_alias_parses(self, record, kind, params):
        env = oz.parse_envelope(record)
        assert (env.kind, env.params) == (kind, params)

    RECORDS = [{"kind": "power", "r": 1.0, "gamma": 0.5}, {"kind": "log_power", "r": 1.0},
               {"kind": "exp_power", "a": 1.0, "log_exp": 0.5}, {"kind": "exp_exp", "a": 1.0}]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_is_an_error(self, bad):
        kinds = {make.__name__ for make in nemytskii._ENVELOPES.values()}
        assert kinds == {"one"} | {r["kind"] for r in self.RECORDS}  # every kind with a parameter
        for record in self.RECORDS:
            oz.parse_envelope(record)
            for key, value in record.items():
                if isinstance(value, float):
                    with pytest.raises(oz.YoungError, match=key):
                        oz.parse_envelope({**record, key: bad})


class TestInputErrors:
    def test_unknown_envelope_kind(self):
        assert_raises(oz.YoungError, "unknown envelope kind 'bogus'",
                      lambda: oz.Envelope("bogus", {}).shape)

    def test_counterexample_dimension(self):
        assert_raises(oz.YoungError, "counterexample runs in dimensions 1 to 3",
                      oz.counterexample_run, dim=4)


class TestLipschitzSpec:
    def test_derivative_bound_probe(self):
        assert identity_spec().derivative_bound_holds()
        assert abs_shift_spec().derivative_bound_holds()
        assert signed_square_spec().derivative_bound_holds()

    def test_violating_spec_detected(self):
        bad = oz.LipschitzSpec(lambda t: t * t, lambda t: 2 * t, kappa=1.0,
                               envelope=oz.Envelope.one(), label="quad")
        assert not bad.derivative_bound_holds()


def ref_non_decreasing(env, lo=1e-8, hi=1e6, points=200):
    """The former point loop of ``Envelope.non_decreasing``."""
    vals = [env(float(t)) for t in np.geomspace(lo, hi, points)]
    return all(vals[i + 1] >= vals[i] * (1 - 1e-12) for i in range(len(vals) - 1))


def ref_derivative_bound_holds(spec, lo=1e-6, hi=1e3, points=200):
    """The former point loop of ``LipschitzSpec.derivative_bound_holds``."""
    ts = np.concatenate([-np.geomspace(lo, hi, points)[::-1], [0.0],
                         np.geomspace(lo, hi, points)])
    fp = np.broadcast_to(np.asarray(spec.fprime(ts), dtype=float), ts.shape)
    for t, d in zip(ts.tolist(), np.abs(fp).tolist()):
        if d > spec.kappa * spec.envelope(spec.kappa * abs(t)) * (1 + 1e-9) + 1e-300:
            return False
    return True


ENVELOPES = st.one_of(
    st.just(oz.Envelope.one()),
    st.builds(oz.Envelope.power, st.floats(0.0, 3.0)),
    st.builds(oz.Envelope.power, st.floats(0.0, 3.0), st.floats(0.0, 2.0),
              st.sampled_from(["log", "loglog"])),
    st.builds(oz.Envelope.log_power, st.floats(0.0, 3.0)),
    st.builds(oz.Envelope.exp_power, st.floats(0.1, 2.0), st.floats(0.0, 1.0)),
    st.builds(oz.Envelope.exp_exp, st.floats(0.1, 2.0)),
    st.just(oz.Envelope.custom(lambda t: 2.0 + math.sin(t))),
)


class TestProbesMatchPointLoops:
    @settings(max_examples=60, deadline=None)
    @given(env=ENVELOPES, lo=st.floats(-9.0, 0.0), hi=st.floats(1.0, 8.0))
    def test_non_decreasing(self, env, lo, hi):
        assert env.non_decreasing(10.0 ** lo, 10.0 ** hi) is \
            ref_non_decreasing(env, 10.0 ** lo, 10.0 ** hi)

    @settings(max_examples=60, deadline=None)
    @given(env=ENVELOPES, kappa=st.floats(0.1, 4.0), k=st.integers(0, 3),
           gain=st.floats(0.5, 2.0))
    def test_derivative_bound_holds(self, env, kappa, k, gain):
        fprime = [lambda t: gain * np.ones_like(t), lambda t: gain * np.abs(t),
                  lambda t: gain * np.sign(t) * np.abs(t) ** 1.5,
                  lambda t: gain * np.exp(np.minimum(np.abs(t), 700.0))][k]
        spec = oz.LipschitzSpec(lambda t: t, fprime, kappa=kappa, envelope=env)
        assert spec.derivative_bound_holds() is ref_derivative_bound_holds(spec)


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

    def test_split_bound_refused_without_hypothesis(self):
        # near zero B(t E(F^{-1}(A(t)))) = t^1.5 against A(t) = t^2: the
        # exponent gap 1.5 - 2 < 0 fails the near-zero inequality
        with pytest.raises(oz.PreconditionError, match="near-zero admissibility pair"):
            oz.lemma_split_bound(oz.Power(2), oz.Power(1.5), oz.Envelope.one(), oz.Power(2))


def ref_lemma_grid(a, b, row, div, c, lo, hi, count):
    """The former double loop of ``_lemma_grid``, row(s) on one s."""
    grid = np.geomspace(lo, hi, count).tolist()
    worst, worst_pt, holds = INF, (None, None), True
    for s in grid:
        es, r = row(s)
        for t in grid:
            rhs = r + a(t)
            if rhs == INF:
                continue
            margin = rhs - b(es * t / div)
            if margin < worst:
                worst, worst_pt = margin, (s, t)
            if margin < -1e-9 * (1.0 + rhs):
                holds = False
    return LemmaGridVerdict(holds, worst, worst_pt, c,
                            grid=f"{count}x{count} log grid on [{lo:g},{hi:g}]^2")


LEMMA_FAMILIES = st.one_of(
    st.builds(oz.Power, st.floats(1.0, 3.0)),
    st.builds(oz.PowerLog, st.floats(1.0, 3.0), st.floats(0.0, 1.5)),
    st.builds(oz.Exp, st.floats(0.5, 2.0)),
    st.floats(1.0, 3.0).map(lambda p: oz.Custom(lambda t: t ** p if t < 1e100 else INF,
                                                label="black box")),
)
LEMMA_CONJUGATES = [(oz.Power(2), 3), (oz.Power(1.5), 2), (oz.PowerLog(2, 1), 3)]


@functools.lru_cache(maxsize=None)
def lemma_conjugate(j):
    return oz.sobolev_conjugate(*LEMMA_CONJUGATES[j])


class TestLemmaGridMatchesPointLoop:
    @settings(max_examples=40, deadline=None)
    @given(a=LEMMA_FAMILIES, b=LEMMA_FAMILIES, env=ENVELOPES,
           f=st.one_of(st.integers(0, len(LEMMA_CONJUGATES) - 1), LEMMA_FAMILIES),
           c=st.sampled_from([0.0, 0.5]), count=st.integers(2, 40),
           lo=st.floats(-4.0, -1.0), hi=st.floats(0.0, 4.0))
    def test_matches(self, a, b, env, f, c, count, lo, hi):
        if isinstance(f, int):  # the product bound's row, s -> (E(s), c + A_n(s))
            conj, div = lemma_conjugate(f), 2.0
            rows = (lambda s: (env.values(s), c + conj.an_values(s)),
                    lambda s: (env(s), c + conj.an_value(s)))
        else:  # the split bound's row, s -> (E(s), F(s))
            div, c = 1.0, 0.0
            rows = (lambda s: (env.values(s), f.values(s)), lambda s: (env(s), f(s)))
        got = _lemma_grid(a, b, rows[0], div, c, 10.0 ** lo, 10.0 ** hi, count)
        ref = ref_lemma_grid(a, b, rows[1], div, c, 10.0 ** lo, 10.0 ** hi, count)
        assert (got.holds, got.additive_constant, got.grid) == \
            (ref.holds, ref.additive_constant, ref.grid)
        if not math.isfinite(ref.worst_margin):
            assert (got.worst_margin, got.worst_point) == (ref.worst_margin, ref.worst_point)
            return

        def margin_at(s, t):  # the reference's arithmetic at one point
            es, r = rows[1](s)
            return r + a(t) - b(es * t / div), max(r + a(t), b(es * t / div))

        # the array and the scalar evaluations differ in the last bits, so the
        # margin agrees to 1e-12 of the larger side, and a point whose margin
        # ties with the minimum to that much may take the witness
        tol = 1e-12 * margin_at(*ref.worst_point)[1]
        assert abs(got.worst_margin - ref.worst_margin) <= tol
        assert got.worst_point == ref.worst_point or \
            margin_at(*got.worst_point)[0] - ref.worst_margin <= tol


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

    def test_refused_by_exponent_algebra(self):
        # n = 3 and A(t) = t^2 give H(t) ~ t^{1/3}, so B(t E(H(t))) = t^{1.9 * 4/3}
        # outgrows A(ct) = c^2 t^2 at infinity: the condition fails before any run
        base = corpus.coordinate_field(3)
        seq = corpus.shifted_sequence(base, [2, 4], lambda k: 1.0 / k)
        with pytest.raises(oz.PreconditionError, match="admissibility condition fails"):
            oz.continuity_experiment(signed_square_spec(), seq, base,
                                     oz.Power(2), oz.Power(1.9),
                                     oz.BoxDomain.unit(3), 3, indices=[2, 4])

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
        # (62 calls here; 152 with one call per panel); counted at A, which
        # every integrand of the run calls, the lambda grid's passes included
        calls = [0]
        values = oz.PowerExp.values

        def counted(self, t):
            calls[0] += 1
            return values(self, t)

        monkeypatch.setattr(oz.PowerExp, "values", counted)
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
        got = _poincare_constants([(u, box, nodes)], conj)[0]
        assert got == ref or math.isclose(got, ref, rel_tol=2e-6)


def scalar_poincare_constant(u, box, conj, nodes):
    """The former per-field search: one scalar ``_log_root`` over the full grid."""
    pts, w = tensor_rule(box.lower, box.upper, nodes)
    uvals = np.abs(u.values(pts))
    r_mod = float(np.dot(w, conj.base.values(np.linalg.norm(u.gradients(pts), axis=1))))
    if r_mod <= 0.0:
        return 0.0
    scale = r_mod ** (1.0 / box.n)

    def lhs(s):
        if s < 1e-18:
            return 0.0
        if s > 1e12:
            return INF
        vals = conj.an_values(uvals * (s / scale))
        return INF if np.any(np.isinf(vals)) else float(np.dot(w, vals))

    lo = _log_root(lhs, r_mod, True, rel_tol=1e-6)[0]
    return INF if lo < 1e-18 else 1.0 / lo


def agrees(got, ref):
    """Bit for bit, or within 2e-6 where np.exp and math.exp round apart."""
    return got == ref or math.isclose(got, ref, rel_tol=2e-6)


def bad_gradient(u, bad):
    """``u`` with one gradient entry set to ``bad``."""
    def gradients(X):
        g = np.array(u.gradients(X))
        g[len(g) // 2, 0] = bad
        return g
    return oz.TestFunction.from_batch(u.values, gradients, f"{bad}-gradient")


class TestBatchedPoincare:
    """The probe's one batched search against a scalar search per field."""

    @settings(max_examples=25, deadline=None)
    @given(j=st.integers(0, len(POINCARE_BASES) - 1),
           ks=st.lists(st.integers(0, 4), min_size=1, max_size=5, unique=True),
           scales=st.lists(st.floats(-1.0, 1.0).map(lambda e: 10.0 ** e),
                           min_size=5, max_size=5),
           nodes=st.sampled_from((6, 8, 12)))
    def test_matches_scalar_searches(self, j, ks, scales, nodes):
        a, n = POINCARE_BASES[j]
        bumps = corpus.bump_corpus(n)
        fields = [(bumps[k][0].scaled(scales[i]), bumps[k][1]) for i, k in enumerate(ks)]
        rep = oz.poincare_probe(fields, a, n, nodes=nodes)
        conj = poincare_conjugate(j)
        ref = [scalar_poincare_constant(u, box, conj, nodes) for u, box in fields]
        ref2 = [scalar_poincare_constant(u, box, conj, 2 * nodes) for u, box in fields]
        assert all(agrees(got, r) for got, r in zip(rep.constants, ref))
        assert agrees(rep.c_star, max(ref)) and agrees(rep.c_star_refined, max(ref2))

    def test_gathered_left_side_is_the_full_grid(self, monkeypatch):
        """The map the search meets reads, at any s, the left side of the full
        grid bit for bit."""
        conj = poincare_conjugate(1)
        fields = corpus.bump_corpus(2)
        rows = [(u, box, k) for u, box in fields for k in (24, 48)]
        seen = []

        def capture(fn_many, levels, exact, **kw):
            seen.append(fn_many)
            return np.ones(len(levels)), np.ones(len(levels))

        monkeypatch.setattr(nemytskii, "_log_root_many", capture)
        _poincare_constants(rows, conj)
        (lhs,) = seen
        s = 10.0 ** np.random.default_rng(15).uniform(-3.0, 3.0, 50)
        for r, (u, box, k) in enumerate(rows):
            pts, w = tensor_rule(box.lower, box.upper, k)
            uvals = np.abs(u.values(pts))
            r_mod = float(np.dot(w, conj.base.values(np.linalg.norm(u.gradients(pts), axis=1))))
            scale = r_mod ** (1.0 / box.n)
            got = lhs(s, np.full(s.size, r))
            full = [float(np.dot(w, conj.an_values(uvals * (x / scale)))) for x in s]
            assert got.tolist() == full

    def test_zero_field_and_dimension_mismatch(self):
        z = (constant_function(0.0, 2), oz.BoxDomain.unit(2))
        bumps = corpus.bump_corpus(2, count=3)
        rep = oz.poincare_probe(bumps[:1] + [z] + bumps[1:], oz.Power(2), 2, nodes=12)
        alone = oz.poincare_probe(bumps, oz.Power(2), 2, nodes=12)
        assert rep.constants == alone.constants[:1] + (0.0,) + alone.constants[1:]
        assert (rep.c_star, rep.c_star_refined) == (alone.c_star, alone.c_star_refined)
        assert oz.poincare_probe([z], oz.Power(2), 2, nodes=12).c_star == 0.0
        mixed = bumps[:1] + corpus.bump_corpus(3, count=1)
        with pytest.raises(oz.YoungError, match="dimension mismatch"):
            oz.poincare_probe(mixed, oz.Power(2), 2, nodes=12)

    def test_nan_or_infinite_modular_raises(self):
        u, box = corpus.bump_corpus(2)[0]
        conj = poincare_conjugate(1)
        nan_value = oz.TestFunction.from_batch(
            lambda X: np.where(X[:, 0] < 0.5, u.values(X), math.nan), u.gradients)
        for v in (bad_gradient(u, math.nan), bad_gradient(u, INF), nan_value):
            with pytest.raises(oz.IndeterminateError):
                _poincare_constants([(v, box, 16)], conj)
        with pytest.raises(oz.IndeterminateError):
            oz.poincare_probe([(bad_gradient(u, math.nan), box)], oz.Power(2), 2, nodes=16)

    def test_work(self, monkeypatch):
        """One ``an_values`` call per search step, each over at most the
        distinct |u| values of the rows still open."""
        bumps = corpus.bump_corpus(2, 5)
        distinct = [np.unique(np.abs(u.values(tensor_rule(box.lower, box.upper, k)[0]))).size
                    for u, box in bumps for k in (24, 48)]
        sizes, steps = [], []  # steps: (distinct values open, sizes of the step's calls)
        real_an, real_root = SobolevConjugate.an_values, nemytskii._log_root_many

        def an_values(self, ts):
            sizes.append(np.size(ts))
            return real_an(self, ts)

        def log_root_many(fn_many, levels, exact, **kw):
            def counted(s, rows):
                start = len(sizes)
                f = fn_many(s, rows)
                steps.append((sum(distinct[r] for r in rows), sizes[start:]))
                return f
            return real_root(counted, levels, exact, **kw)

        monkeypatch.setattr(SobolevConjugate, "an_values", an_values)
        monkeypatch.setattr(nemytskii, "_log_root_many", log_root_many)
        oz.poincare_probe(bumps, oz.Power(2), 2, nodes=24)
        assert 0 < len(sizes) <= 20
        assert all(len(made) <= 1 and sum(made) <= bound for bound, made in steps)
