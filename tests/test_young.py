"""Young-function calculus: evaluation, inverses, doubling, equivalence."""

import contextlib
import functools
import inspect
import json
import math
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import orlicz as oz
from orlicz import young
from orlicz.aniso import _geometric_mean_bar, _phi_circ_young
from orlicz.young import (INF, FromInverse, _log_root, _log_root_many, _numeric_inverse, _pow,
                          _sandwich_ok)


def builtin_corpus():
    return [
        oz.Power(1.0),
        oz.Power(1.5),
        oz.Power(2.0),
        oz.Power(3.0),
        oz.PowerLog(2, 1),
        oz.PowerLog(1, 1),
        oz.PowerLog(3, -1),
        oz.PowerLogLog(2, 1),
        oz.PowerExp(1.0),
        oz.Exp(1.0),
        oz.Exp(2.0),
        oz.Exp(0.5),
        oz.ExpNegInv(1.0),
        oz.ExpNegInv(0.5),
        oz.gate(1.0),
        oz.modify_near_zero(oz.Power(4), 3),
        oz.linear(),
    ]


FAMILIES = {  # one strategy per registered kind
    "power": st.builds(oz.Power, st.floats(0.1, 8.0), st.floats(0.1, 10.0) | st.just(1.0)),
    "power_log": st.builds(oz.PowerLog, st.floats(0.5, 6.0), st.floats(-2.0, 2.0)),
    "power_loglog": st.builds(oz.PowerLogLog, st.floats(0.5, 6.0), st.floats(-2.0, 2.0)),
    "power_exp": st.builds(oz.PowerExp, st.floats(1.0, 5.0)),
    "exp": st.builds(oz.Exp, st.floats(0.2, 4.0)),
    "exp_neg_inv": st.builds(oz.ExpNegInv, st.floats(0.2, 4.0)),
    "gate": st.builds(oz.gate, st.floats(1e-3, 1e3)),
}
FAMILIES["glued"] = st.builds(oz.Glued, st.one_of(*FAMILIES.values()),
                              st.one_of(*FAMILIES.values()), st.floats(0.1, 10.0),
                              st.floats(0.1, 10.0))
REGISTERED = {cls for cls in young._FAMILIES.values() if isinstance(cls, type)}
REGISTERED_KINDS = {cls.kind for cls in REGISTERED}
VALID_RECORDS = [
    {"kind": "power", "p": 2.0, "scale": 1.5},
    {"kind": "power_log", "p": 2.0, "alpha": 1.0, "c": 2.0},
    {"kind": "power_loglog", "p": 2.0, "alpha": 1.0, "c": 3.0},
    {"kind": "power_exp", "p": 1.5},
    {"kind": "exp", "alpha": 2.0},
    {"kind": "exp_neg_inv", "alpha": 1.0},
    {"kind": "gate", "threshold": 0.5},
    {"kind": "glued", "near_zero": "power:1", "near_infinity": "power:2", "tstar": 1.0,
     "hi_scale": 2.0},
]


def strictly_increasing_corpus():
    return [y for y in builtin_corpus() if y.finite_jump is None]


class TestEval:
    def test_power_direct(self):
        assert oz.evaluate(oz.Power(2), 3.0) == 9.0

    def test_zero_axiom(self):
        for y in builtin_corpus():
            assert y(0.0) == 0.0

    def test_power_log_at_one(self):
        # high-precision oracle: 1^2 * log(1 + 1) in base e
        assert oz.PowerLog(2, 1)(1.0) == pytest.approx(math.log(2.0), rel=1e-14)

    def test_negative_argument_rejected(self):
        with pytest.raises(oz.YoungError):
            oz.evaluate(oz.Power(2), -1.0)


def assert_raises(kind, message, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` raises exactly ``kind``, with exactly ``message``."""
    with pytest.raises(kind) as info:
        fn(*args, **kwargs)
    assert info.type is kind and str(info.value) == message


class TestInputErrors:
    def test_grid_bounds(self):
        assert_raises(oz.YoungError, "invalid grid bounds (1.0, 0.5)", young.log_grid, 1.0, 0.5)

    def test_regime_kind(self):
        assert_raises(oz.YoungError, "unknown regime kind 'sideways'", oz.Regime, "sideways")

    def test_piecewise_breakpoints(self):
        assert_raises(oz.YoungError, "piecewise needs one more branch than breakpoints",
                      oz.Piecewise, (1.0,), (oz.Power(2),))
        for breaks in ((0.0, 1.0), (2.0, 1.0)):
            assert_raises(oz.YoungError, "breakpoints must be positive and increasing",
                          oz.Piecewise, breaks, (oz.Power(2),) * 3)

    def test_custom_has_no_record(self):
        assert_raises(NotImplementedError, "custom has no config form",
                      oz.Custom(fn=lambda t: t * t).to_config)


# outputs of the two log families, frozen in tests/golden/log_families.json
# from the separate class bodies that their shared base replaced
LOG_FAMILIES = [oz.PowerLog(2, 1), oz.PowerLog(3, -0.5), oz.PowerLog(1.5, 2, 3.0),
                oz.PowerLog(2, 0), oz.PowerLog(1, 1), oz.PowerLogLog(2, 1), oz.PowerLogLog(3, -1),
                oz.PowerLogLog(2.5, 0.5, 5.0), oz.PowerLogLog(1, 2), oz.PowerLogLog(2, 0)]
LOG_GRID = [-1.0, -1e-300, 0.0, 5e-324, 1e-300, 1e-17, 1e-8, 0.5, math.e - 1.0, 1.0, 2.0,
            math.e, 10.0, 1e10, 1e150, 1e300, INF]
LOG_LEVELS = [-1.0, 0.0, 1e-300, 1e-10, 0.5, 1.0, 2.0, 1e10, 1e300, INF]


class TestLogFamilies:
    @pytest.mark.parametrize("y", LOG_FAMILIES, ids=repr)
    def test_frozen_outputs(self, y):
        golden = json.loads((pathlib.Path(__file__).parent / "golden"
                             / "log_families.json").read_text())
        assert golden[json.dumps(y.to_config())] == {
            "values": [v.hex() for v in y.values(np.array(LOG_GRID)).tolist()],
            "calls": [float(y(t)).hex() for t in LOG_GRID],
            "inverse": [float(y.inverse(v)).hex() for v in LOG_LEVELS],
            "orders": [repr(y.zero_order), repr(y.inf_order)],
            "config": json.dumps(y.to_config())}

    @pytest.mark.parametrize("y", [oz.PowerLog(2, 0), oz.PowerLogLog(2, 0),
                                   oz.PowerLog(1.5, 0, 3.0), oz.PowerLogLog(3, 0, 5.0)], ids=repr)
    def test_zero_alpha_is_the_power(self, y):
        # the slow factor reads 1 even where c + t rounds to the base
        power = oz.Power(y.p)
        assert y.values(np.array(LOG_GRID)).tobytes() == \
            power.values(np.array(LOG_GRID)).tobytes()
        assert [float(y(t)).hex() for t in LOG_GRID] == [power(t).hex() for t in LOG_GRID]
        # the inverse stays the numeric search: at a positive level it is
        # within 1e-12 relative of the closed form, and at level 0 it returns
        # where t^p first reads nonzero in floats, where the closed form gives 0
        for v in LOG_LEVELS:
            got, want = y.inverse(v), power.inverse(v)
            if v == 0.0:
                assert want == 0.0 and power(got) == 5e-324
            elif 0.0 < v < INF:
                assert got == pytest.approx(want, rel=1e-12)
            else:
                assert got == want

    @pytest.mark.parametrize("y", LOG_FAMILIES, ids=repr)
    def test_nan_in_values_as_in_call(self, y):
        assert math.isnan(y(math.nan))
        assert math.isnan(y.values(np.array([math.nan]))[0])

    @pytest.mark.parametrize("p", [2, 1])
    def test_matches_mpmath_table(self, p):
        # tests/freeze_power_log.py wrote the table from mpmath at 50 digits;
        # log(1 + t) cancels near 0 unless it is computed as log1p(t)
        table = json.loads((pathlib.Path(__file__).parent / "golden"
                            / "power_log_mpmath.json").read_text())
        ts = np.array([float.fromhex(h) for h in table["t"]])
        y = oz.PowerLog(p, 1)
        want = np.array([float(v) for v in table[f"PowerLog({p}, 1)"]])
        normal = (want >= sys.float_info.min) & (want < INF)
        assert normal.sum() > 500
        for got in (y.values(ts), np.array([y(t) for t in ts.tolist()])):
            assert np.max(np.abs(got[normal] - want[normal]) / want[normal]) <= 1e-15


class TestInverse:
    def test_square_root(self):
        assert oz.Power(2).inverse(4.0) == pytest.approx(2.0, rel=1e-12)

    def test_gate_inverse_is_threshold(self):
        g = oz.gate(1.0)
        for v in (0.0, 1e-6, 1.0, 1e9):
            assert g.inverse(v) == pytest.approx(1.0, rel=1e-10)

    def test_lower_bound_property(self):
        # t <= A^{-1}(A(t)) across the corpus; points where the value
        # underflows to exact zero carry no information in floats
        ts = np.geomspace(1e-4, 1e3, 40)
        for y in builtin_corpus():
            for t in ts:
                t = float(t)
                a = y(t)
                if a == INF or a == 0.0:
                    continue
                assert y.inverse(a) >= t * (1 - 1e-9)

    def test_exp_inverse_finds_the_overflow_jump(self):
        # the values read inf from t^alpha = _LOG_MAX on, below the float
        # overflow, so every higher finite level inverts to that point
        for y in (oz.Exp(0.5), oz.Exp(1.0), oz.Exp(2.0)):
            jump = young._LOG_MAX ** (1.0 / y.alpha)
            below = y(jump * (1 - 1e-9))
            assert y(jump) == INF and below < 1e308
            assert y.inverse(below) == pytest.approx(jump * (1 - 1e-9), rel=1e-12)
            assert y.inverse(1e308) == y.inverse(sys.float_info.max) == jump

    def test_plateau_law_equality(self):
        # equality wherever the function is strictly increasing and continuous
        ts = np.geomspace(1e-3, 1e2, 25)
        for y in strictly_increasing_corpus():
            for t in ts:
                t = float(t)
                a = y(t)
                if a == INF or a == 0.0:
                    continue
                assert y.inverse(a) == pytest.approx(t, rel=1e-9)

    def test_empty_set_is_inf(self):
        assert oz.gate(2.0).inverse(INF) == INF


# ---------------------------------------------------------------------------
# The log-space root finder against the bisection it replaced
# ---------------------------------------------------------------------------

def ref_numeric_inverse(fn, v, rel_tol=1e-12, max_iter=200):
    """The former bisection for inf{s >= 0 : fn(s) > v}."""
    if v < 0:
        return 0.0
    hi = 1.0
    doubles = 0
    while fn(hi) <= v:
        hi *= 2.0
        doubles += 1
        if doubles > 1200 or hi > 1e308:
            return INF
    lo = 0.0 if doubles == 0 else hi / 2.0
    for _ in range(max_iter):
        mid = math.sqrt(lo * hi) if lo > 0 else 0.5 * (lo + hi)
        if fn(mid) > v:
            hi = mid
        else:
            lo = mid
        if hi - lo <= rel_tol * hi:
            break
    return hi


def ref_solve_increasing(fn, target, rel_tol=1e-12, max_iter=200):
    """The former bisection for the root of fn(s) = target."""
    if target <= fn(0.0):
        return 0.0
    hi = 1.0
    doubles = 0
    while fn(hi) < target:
        hi *= 2.0
        doubles += 1
        if doubles > 1200 or hi > 1e308:
            return INF
    lo = 0.0 if doubles == 0 else hi / 2.0
    for _ in range(max_iter):
        mid = math.sqrt(lo * hi) if lo > 0 else 0.5 * (lo + hi)
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= rel_tol * max(hi, 1e-300):
            break
    return 0.5 * (lo + hi)


def ref_geometric_mean_inverse(comps, ts):
    """The former scalar inverse of the orthotropic bar at each level t: the
    geometric mean of the component inverses, the first at 0 or inf
    deciding.  The components are read through their array inverses, so
    only the mean is checked."""

    def mean(t, vs):
        if t <= 0.0:
            return 0.0
        acc = 0.0
        for v in vs:
            if v == INF:
                return INF
            if v <= 0.0:
                return 0.0
            acc += math.log(v)
        return math.exp(acc / len(vs))

    ts = np.asarray(ts, dtype=float)
    cols = np.array([a.inverse_values(ts) for a in comps])
    return [mean(t, vs) for t, vs in zip(ts.tolist(), cols.T.tolist())]


INVERSE_FAMILIES = [
    oz.Power(1.0), oz.Power(1.7), oz.Power(3.5, scale=0.2),
    oz.PowerLog(2, 1), oz.PowerLog(3, -1), oz.PowerLogLog(2, 0.5),
    oz.PowerExp(1.0), oz.PowerExp(1.6), oz.Exp(0.5), oz.Exp(2.0),
    oz.modify_near_zero(oz.Power(4), 3),
    oz.Glued(oz.Power(2), oz.PowerLog(2, 1, math.e), 1.0, 1.0),
]


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


CIRC_PHI = oz.Orthotropic((oz.Power(1.5), oz.Power(2.5)))
CIRC_TS = np.geomspace(1e-2, 1e2, 9).tolist()
CIRC_VOLUME = dict(max_depth=6, rel_tol=1e-2)


@functools.lru_cache(maxsize=None)
def circ_table():
    return _phi_circ_young(CIRC_PHI, t_lo=1e-2, t_hi=1e2, points=9, **CIRC_VOLUME)


@functools.lru_cache(maxsize=None)
def circ_nodes():
    """The (log t, log radius) nodes ``circ_table`` interpolates."""
    rs = [oz.phi_circ(CIRC_PHI, t, method="volume", **CIRC_VOLUME) for t in CIRC_TS]
    return np.log(CIRC_TS), np.log(rs)


def plateau_step(a, b, jump):
    """s up to a, flat on [a, b], then s - b + a + jump: a plateau and a jump."""
    return lambda s: s if s <= a else (a if s <= b else s - b + a + jump)


class TestLogRoot:
    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(0, len(INVERSE_FAMILIES) - 1), v=log_uniform(1e-30, 1e30))
    def test_inverse_matches_bisection(self, k, v):
        y = INVERSE_FAMILIES[k]
        ref = ref_numeric_inverse(y, v)
        assert math.isclose(_numeric_inverse(y, v), ref, rel_tol=1e-12)
        assert math.isclose(y.inverse(v), ref, rel_tol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(threshold=log_uniform(1e-6, 1e6), v=st.floats(0.0, 1e300))
    def test_gate_jump_resolves_to_threshold(self, threshold, v):
        g = oz.gate(threshold)
        got = _numeric_inverse(g, v)
        assert math.isclose(got, ref_numeric_inverse(g, v), rel_tol=1e-12)
        assert threshold <= got <= threshold * (1 + 1e-12)

    @settings(max_examples=40, deadline=None)
    @given(a=log_uniform(1e-3, 1e3), width=log_uniform(1e-3, 1e3),
           jump=log_uniform(1e-3, 1e3))
    def test_plateau_and_jump_resolve_to_right_end(self, a, width, jump):
        b = a * (1.0 + width)
        fn = plateau_step(a, b, jump)
        # the plateau at level a ends at b; every level in [a, a + jump) ends at b
        for v, end in ((a, b), (a + 0.5 * jump, b), (0.5 * a, 0.5 * a)):
            got = _numeric_inverse(fn, v)
            assert math.isclose(got, ref_numeric_inverse(fn, v), rel_tol=1e-12)
            assert end <= got <= end * (1 + 1e-12)

    @settings(max_examples=20, deadline=None)
    @given(cap=log_uniform(1e-6, 1e6))
    def test_empty_set_is_inf(self, cap):
        bounded = lambda s: min(s, cap)
        for v in (cap, 2.0 * cap, INF):
            assert _numeric_inverse(bounded, v) == INF == ref_numeric_inverse(bounded, v)

    @settings(max_examples=60, deadline=None)
    @given(t=log_uniform(1e-10, 1e40), q=st.floats(1.05, 3.0))
    def test_orthotropic_forward_matches_bisection(self, t, q):
        comps = (oz.Power(1.37), oz.Power(q))
        want = ref_solve_increasing(lambda s: ref_geometric_mean_inverse(comps, [s])[0], t)
        assert math.isclose(_geometric_mean_bar(comps)(t), want, rel_tol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(t=log_uniform(1e-12, 1e12))
    def test_radial_table_forward_matches_bisection(self, t):
        circ = circ_table()
        assert math.isclose(circ(t), ref_solve_increasing(circ.inverse, t), rel_tol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(t=st.one_of(log_uniform(1e-4, 1e4), st.sampled_from(CIRC_TS)))
    def test_radial_table_lookup_equals_interp(self, t):
        # np.interp inside the table, the end chords outside it
        lts, lrs = circ_nodes()
        lt = math.log(t)
        if lt < lts[0]:
            slope = (lrs[1] - lrs[0]) / (lts[1] - lts[0])
            want = math.exp(lrs[0] + slope * (lt - lts[0]))
        elif lt > lts[-1]:
            slope = (lrs[-1] - lrs[-2]) / (lts[-1] - lts[-2])
            want = math.exp(lrs[-1] + slope * (lt - lts[-1]))
        else:
            want = math.exp(float(np.interp(lt, lts, lrs)))
        assert circ_table().inverse(t) == want

    def test_orthotropic_work_count(self):
        # inv_many evaluations per forward value, all values in one call: a
        # row is evaluated once in each call while it is open, as it would be
        # alone, so the longest row is open in every call
        bar = _geometric_mean_bar((oz.Power(1.37), oz.Power(1.66)))
        sizes = []
        forward = FromInverse(inv_many=lambda s: sizes.append(s.size) or bar.inv_many(s))
        ts = np.geomspace(1e-10, 1e40, 2001)
        forward.values(ts)
        assert sum(sizes) / ts.size <= 15
        assert len(sizes) <= 60

    def test_root_below_float_range_is_zero(self):
        # A(t) = t^100 underflows: A(1e-5) = 1e-500
        assert FromInverse(inv_many=lambda s: s ** 0.01)(1e-5) == 0.0
        assert _numeric_inverse(oz.linear(), 0.0) == 0.0

    def test_step_function_brackets_the_step(self):
        # values 0 or inf: every step bisects in log c, as the predicate searches do
        lo, hi = _log_root(lambda c: INF if c >= 3.7 else 0.0, 1.0, False, rel_tol=1e-9)
        assert lo < 3.7 <= hi and hi - lo <= 1e-9 * hi

    def test_exact_hit_probe_closes_a_power_law_ray(self):
        # along e2 the ray is s^1.773, linear in log-log: the first secant
        # step lands exactly on the level 0.5 in both forms, and the probe
        # above it closes the bracket
        phi = oz.Orthotropic((oz.Power(1.3), oz.Power(1.773)))
        e2 = np.array([0.0, 1.0])
        seen, seen_many = [], []

        def ray(s):
            seen.append(phi(s * e2))
            return seen[-1]

        def rays(s, rows):
            seen_many.extend(phi.values(s[:, None] * e2).tolist())
            return np.array(seen_many[-len(s):])

        fn, fn_many = counted(ray), counted(rays)
        lo, hi = _log_root(fn, 0.5, False)
        many = _log_root_many(fn_many, [0.5], False)
        assert 0.5 in seen and 0.5 in seen_many
        assert fn.calls <= 6 and fn_many.calls <= 6
        assert phi(lo * e2) <= 0.5 < phi(hi * e2) and hi - lo <= 1e-12 * hi
        assert_same_root((many[0][0], many[1][0]), (lo, hi))
        assert_same_steps(ray, [0.5], False)

    def test_open_bracket_raises(self, monkeypatch):
        # gate values are 0 or inf, so every step bisects; 5 cannot close it
        monkeypatch.setattr(young, "_MAX_STEPS", 5)
        with pytest.raises(oz.YoungError, match="open after 5 steps"):
            _numeric_inverse(oz.gate(1.5), 0.5)
        with pytest.raises(oz.YoungError):
            _log_root(lambda s: s * s, 2.0, True, rel_tol=0.0)


# ---------------------------------------------------------------------------
# Array forms against their scalar forms
# ---------------------------------------------------------------------------

def close(got, want, rel=1e-12):
    """Equal infinities and zeros, otherwise within ``rel`` relative."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got[np.isinf(want)], want[np.isinf(want)])
    np.testing.assert_array_equal(got[want == 0.0], 0.0)
    fin = np.isfinite(want)
    np.testing.assert_allclose(got[fin], want[fin], rtol=rel, atol=1e-300)


def edges(y, *breaks):
    """Where y leaves 0, underflows, overflows to inf, and its breaks."""
    ends = (_numeric_inverse(y, v) for v in (0.0, 5e-324, 1e-300, sys.float_info.max))
    return sorted({e for e in ends if 0.0 < e < INF} | set(breaks))


# the generic reduction: orthotropic_bar gives powers a closed-form Power
ORTHO_COMPS = (oz.Power(1.5), oz.Power(2.5, scale=0.3))
ORTHO_BAR = _geometric_mean_bar(ORTHO_COMPS)
LOG_COMPS = (oz.PowerLog(2, 1), oz.Power(3.0))
LOG_BAR = oz.orthotropic_bar(LOG_COMPS)
SQUARE_THEN_LINE = oz.Piecewise(breaks=(1.0, 3.0),
                                branches=(oz.Power(2), lambda t: 2.0 * t - 1.0,
                                          oz.Power(2, 5.0 / 9.0)))
EXP_HALF = oz.Exp(0.5)
EXP_NEG_INV = oz.ExpNegInv(1.0)
MODIFIED = oz.modify_near_zero(oz.Power(4), 3)
LOG_ONE = 2.0 ** -53  # log(1 + t) and log(log(e + t)) are 0 below about here
# each family with the points where its branches meet or its values overflow
VALUE_FAMILIES = [
    (y, edges(y, *breaks)) for y, breaks in (
        (oz.PowerLog(2, 1), (LOG_ONE,)), (oz.PowerLog(1, 1), (LOG_ONE,)),
        (oz.PowerLog(3, -1), ()), (oz.PowerLog(2.5, 0.5, 3.0), ()),
        (oz.PowerLog(1.5, 0.0), (LOG_ONE,)),
        (oz.PowerLogLog(2, 1), (math.e * LOG_ONE,)), (oz.PowerLogLog(1.5, -0.5), ()),
        (oz.PowerLogLog(3, 2, 10.0), ()),
        (EXP_HALF, (EXP_HALF.tstar,)), (oz.Exp(1.0), ()), (oz.Exp(2.0), ()),
        (oz.Exp(0.3), (oz.Exp(0.3).tstar,)),
        (EXP_NEG_INV, (EXP_NEG_INV._tc,)), (oz.ExpNegInv(0.5), (oz.ExpNegInv(0.5)._tc,)),
        (oz.gate(1.5), (1.5,)), (SQUARE_THEN_LINE, (1.0, 3.0)),
        (MODIFIED, (MODIFIED.tstar,)),
        (oz.Glued(oz.Power(2), oz.PowerLog(2, 1, math.e), 1.0, 1.0), (1.0,)),
        (oz.Glued(oz.Power(2), oz.Exp(1.0), 2.0, 1e300), (2.0,)),
        (ORTHO_BAR, ()),
    )
]

# one function of every built-in kind, each kind's inverse path at least once:
# the base search on ``values`` (PowerLog, PowerLogLog, PowerExp, Piecewise,
# gate), a closed form, a scalar search, and the bar's ``inv_many``; the log
# log at a base where log log(c + t) does not cancel near 0, and at its
# default base e, where it does (``LOGLOG_CANCELS``)
LOGLOG_AT_E = oz.PowerLogLog(2, 0.5)
EVERY_KIND = [
    oz.Power(1.7, 0.3), oz.PowerLog(2, 1), oz.PowerLog(3, -1), oz.PowerLogLog(2, 0.5, 5.0),
    oz.PowerExp(1.6), EXP_HALF, oz.Exp(2.0), EXP_NEG_INV, SQUARE_THEN_LINE, oz.gate(1.5),
    MODIFIED, oz.Glued(oz.Power(2), oz.PowerLog(2, 1, math.e), 1.0, 1.0),
    oz.Custom(fn=lambda t: t * t * t),
    oz.Custom(fn=lambda t: t * t, inverse_fn=lambda v: v ** 0.5 if v < INF else INF),
    ORTHO_BAR, LOG_BAR, LOGLOG_AT_E,
]
KIND_IDS = [f"{i}-{y.kind}" for i, y in enumerate(EVERY_KIND)]
# one level per decade, and ten per decade where log(c + t) cancels at the
# default bases (ROADMAP item 11)
INVERSE_LEVELS = ([-1e300, -1.0, -5e-324, 0.0, 5e-324, INF]
                  + np.geomspace(1e-300, 1e300, 601).tolist()
                  + np.geomspace(1e-40, 1e-10, 301).tolist())
LOGLOG_CANCELS = pytest.mark.xfail(
    strict=True, reason="log log(e + t) cancels near 0, where values and the scalar call "
    "round it apart: 3.4e-9 relative at level 3.2e-20 (ROADMAP item 11)")


def family_points(ys_edges):
    """Points at t <= 0, inf, a family's edges and their neighbours, and
    log-uniform over the float range."""
    near = st.sampled_from(ys_edges).flatmap(
        lambda e: st.one_of(st.just(e), st.floats(-1e-6, 1e-6).map(lambda d: e * (1.0 + d))))
    point = st.one_of(st.floats(-50.0, 0.0), st.sampled_from([0.0, -0.0, INF]),
                      log_uniform(1e-300, 1e300), near)
    return st.lists(point, min_size=1, max_size=16)


@contextlib.contextmanager
def scalar_rounding():
    """numpy inside ``orlicz.young`` with exp and log rounded as math's, so
    that the row engine can be held to the scalar search bit for bit."""
    def scalar(fn):
        return staticmethod(lambda x: np.array([fn(v) for v in np.asarray(x).tolist()]))

    class Numpy:
        exp, log = scalar(math.exp), scalar(math.log)

        def __getattr__(self, name):
            return getattr(np, name)

    young.np = Numpy()
    try:
        yield
    finally:
        young.np = np


def counted(fn):
    """fn with a call counter in ``.calls``."""
    def f(*args):
        f.calls += 1
        return fn(*args)
    f.calls = 0
    return f


def entrywise(fn):
    """The array map that applies a scalar fn entry by entry."""
    return lambda s: np.array([fn(x) for x in s.tolist()])


def rows_of(fn_many):
    """The map of ``_log_root_many`` that meets every row with the one array
    map ``fn_many`` and so ignores the row indices."""
    return lambda s, rows: fn_many(s)


def assert_same_steps(fn, levels, exact):
    """With exp and log rounded alike, every row of ``_log_root_many`` takes
    the scalar search's steps: the same brackets, and one call per step of
    the longest search."""
    fn = counted(fn)
    fn_many = counted(rows_of(entrywise(fn)))
    with scalar_rounding():
        many = _log_root_many(fn_many, levels, exact)
    steps = []
    for lo, hi, level in zip(*many, levels):
        fn.calls = 0
        assert (lo, hi) == _log_root(fn, level, exact)
        steps.append(fn.calls)
    assert fn_many.calls == max(steps)


def assert_same_root(got, want, rel_tol=1e-12):
    """Two brackets of ``_log_root``: the same ends of the float range, else
    the same root to the tolerance.  The rows' steps round exp differently
    from the scalar search, so one may land exactly on a root the other
    brackets."""
    (lo, hi), (wlo, whi) = map(float, got), want
    if wlo == whi and wlo in (0.0, INF):
        assert lo == hi == wlo
    else:
        assert 0.0 < lo <= hi and hi - lo <= rel_tol * hi
        assert math.isclose(0.5 * (lo + hi), 0.5 * (wlo + whi), rel_tol=rel_tol)


class TestArrayForms:
    @pytest.mark.parametrize("y, ys_edges", VALUE_FAMILIES,
                             ids=[f"{i}-{y.kind}" for i, (y, _) in enumerate(VALUE_FAMILIES)])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_values_match_scalar(self, y, ys_edges, data):
        ts = data.draw(family_points(ys_edges))
        close(y.values(np.array(ts)), [y(t) for t in ts])

    def test_values_of_empty_and_shape(self):
        for y, _ in VALUE_FAMILIES:
            assert y.values(np.array([])).shape == (0,)
            assert y.values(np.ones((2, 3))).shape == (6,)

    @settings(max_examples=60, deadline=None)
    @given(p=st.floats(0.2, 8.0), scale=log_uniform(1e-3, 1e3),
           vs=st.lists(st.one_of(st.floats(-50.0, 0.0), st.just(INF),
                                 log_uniform(1e-300, 1e300)), min_size=1, max_size=12))
    def test_power_inverse_values(self, p, scale, vs):
        y = oz.Power(p, scale)
        close(y.inverse_values(np.array(vs)), [y.inverse(v) for v in vs])
        base = oz.YoungFunction.inverse_values(y, np.array(vs))
        np.testing.assert_array_equal(base, [y.inverse(v) for v in vs])

    @settings(max_examples=60, deadline=None)
    @given(ts=st.lists(st.one_of(log_uniform(1e-300, 1e300), st.just(INF)),
                       min_size=1, max_size=16))
    def test_orthotropic_inv_many(self, ts):
        for comps in (ORTHO_COMPS, LOG_COMPS, (oz.Exp(1.0), oz.Power(1.2), oz.PowerLog(1.5, 1))):
            close(_geometric_mean_bar(comps).inv_many(np.array(ts)),
                  ref_geometric_mean_inverse(comps, ts), rel=1e-13)

    def test_orthotropic_inv_many_first_end_decides(self):
        # on (1, 2) one inverse is 0 and the other inf: the first one decides
        zero = oz.Custom(fn=lambda t: t, inverse_fn=lambda v: 0.0 if 1.0 < v < 2.0 else v)
        inf_ = oz.Custom(fn=lambda t: t, inverse_fn=lambda v: INF if 1.0 < v < 2.0 else v)
        ts = np.array([0.5, 1.5, 3.0, INF])
        for comps, middle in (((zero, inf_), 0.0), ((inf_, zero), INF)):
            got = oz.orthotropic_bar(comps).inv_many(ts)
            close(got, [0.5, middle, 3.0, INF], rel=1e-15)  # exp(log 3) rounds up
            np.testing.assert_array_equal(got, ref_geometric_mean_inverse(comps, ts))

    @pytest.mark.parametrize("bar", [ORTHO_BAR, LOG_BAR], ids=["powers", "power_log"])
    def test_bar_scalar_forms_are_array_bits(self, bar):
        # one inverse: the scalar forms are the array forms on one element
        ts = np.array([-1.0, 0.0, 5e-324, 1e-300, 1e-17, 0.3, 1.0, 7.5, 1e20, 1e300, INF, math.nan])
        scalar = np.array([bar(t) for t in ts.tolist()])
        assert scalar.tobytes() == bar.values(ts).tobytes()
        scalar = np.array([bar.inverse(t) for t in ts.tolist()])
        assert scalar.tobytes() == bar.inverse_values(ts).tobytes()

    def test_every_kind_is_covered(self):
        kinds = {cls for cls in vars(young).values() if isinstance(cls, type)
                 and issubclass(cls, oz.YoungFunction) and not cls.__name__.startswith("_")}
        assert {type(y) for y in EVERY_KIND} == kinds - {oz.YoungFunction}

    @pytest.mark.parametrize("y", [pytest.param(y, marks=LOGLOG_CANCELS) if y is LOGLOG_AT_E
                                   else y for y in EVERY_KIND], ids=KIND_IDS)
    def test_inverse_values_match_scalar(self, y):
        # 0 and inf exactly, else within 1e-12 relative: the rows of one
        # batched search stop inside the scalar search's bracket
        close(y.inverse_values(np.array(INVERSE_LEVELS)), [y.inverse(v) for v in INVERSE_LEVELS])

    @pytest.mark.parametrize("y", EVERY_KIND, ids=KIND_IDS)
    def test_nan_in_nan_out(self, y):
        assert math.isnan(y(math.nan)) and math.isnan(y.inverse(math.nan))
        xs = np.array([2.0, math.nan, -1.0])
        for got, scalar in ((y.values(xs), y), (y.inverse_values(xs), y.inverse)):
            assert math.isnan(got[1])
            close(got[[0, 2]], [scalar(2.0), 0.0])

    @settings(max_examples=60, deadline=None)
    @given(ts=st.lists(st.one_of(log_uniform(1e-300, 1e300), st.sampled_from(CIRC_TS),
                                 st.just(INF)), min_size=1, max_size=16))
    def test_radial_table_inv_many(self, ts):
        circ = circ_table()
        close(circ.inverse_values(np.array(ts)), [circ.inverse(t) for t in ts], rel=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(rs=st.lists(st.one_of(st.floats(-50.0, 0.0), log_uniform(1e-300, 1e300),
                                 st.just(INF)), min_size=1, max_size=16))
    def test_radial_table_values(self, rs):
        # the chords read the other way, in closed form: 0, inf and overflow too
        circ = circ_table()
        close(circ.values(np.array(rs)), [circ(r) for r in rs], rel=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(q=st.floats(0.01, 50.0),
           levels=st.lists(st.one_of(log_uniform(1e-320, 1e308), st.sampled_from(
               [0.0, 1.0, INF, sys.float_info.max, 5e-324])), min_size=1, max_size=24),
           exact=st.booleans())
    def test_log_root_many_matches_rows(self, q, levels, exact):
        # powers s^q reach both ends of the float range for large and small q
        def fn_many(s):
            with np.errstate(over="ignore"):
                return np.power(s, q)

        fn = lambda s: _pow(s, q)
        many = _log_root_many(rows_of(fn_many), levels, exact)
        for lo, hi, level in zip(*many, levels):
            assert_same_root((lo, hi), _log_root(fn, level, exact))
        assert_same_steps(fn, levels, exact)

    @settings(max_examples=40, deadline=None)
    @given(a=log_uniform(1e-3, 1e3), width=log_uniform(1e-3, 1e3),
           jump=log_uniform(1e-3, 1e3))
    def test_log_root_many_plateaus_and_hits(self, a, width, jump):
        b = a * (1.0 + width)
        fn = plateau_step(a, b, jump)
        # the plateau, inside the jump, below it, an exact hit at u = 0, and
        # the ends of the float range
        levels = [a, a + 0.5 * jump, 0.5 * a, fn(1.0), 1e-320, 1e308, INF]
        for exact in (False, True):
            many = _log_root_many(rows_of(entrywise(fn)), levels, exact)
            for lo, hi, level in zip(*many, levels):
                assert_same_root((lo, hi), _log_root(fn, level, exact))
            assert_same_steps(fn, levels, exact)

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.tuples(st.floats(0.01, 50.0), st.one_of(
               log_uniform(1e-320, 1e308), st.sampled_from([0.0, 1.0, INF]))),
               min_size=1, max_size=12),
           exact=st.booleans())
    def test_log_root_many_row_indices(self, rows, exact):
        # row i searches its own power s^q_i, so the map must know its rows
        qs = [q for q, _ in rows]
        levels = [v for _, v in rows]
        calls = []

        def fn_many(s, idx):
            calls.append(idx.tolist())
            return np.array([_pow(x, qs[i]) for x, i in zip(s.tolist(), idx.tolist())])

        with scalar_rounding():
            lo, hi = _log_root_many(fn_many, levels, exact)
            for i, (q, level) in enumerate(rows):
                alone = counted(rows_of(entrywise(lambda s: _pow(s, q))))
                one = _log_root_many(alone, [level], exact)
                # the same bracket as in a batch of one, and one evaluation
                # per step of that lone search
                assert (lo[i], hi[i]) == (one[0][0], one[1][0])
                assert sum(i in idx for idx in calls) == alone.calls
        # ascending open rows, each call within the last: a row that has
        # closed never comes back
        for before, idx in zip([list(range(len(rows)))] + calls, calls):
            assert idx == sorted(set(idx)) and set(idx) <= set(before)

    def test_log_root_many_ends(self):
        # above the float range, an exact hit at s = 1, a plain root
        bounded = lambda s: min(s, 3.0)
        lo, hi = _log_root_many(rows_of(entrywise(bounded)), [4.0, 1.0, 2.0], True)
        assert (lo[:2].tolist(), hi[:2].tolist()) == ([INF, 1.0], [INF, 1.0])
        assert lo[2] <= 2.0 <= hi[2]
        # below the float range: A(t) = t^100 underflows at t = 1e-5
        lo, hi = _log_root_many(rows_of(lambda s: s ** 0.01), [1e-5, 1.0], True)
        assert (lo.tolist(), hi.tolist()) == ([0.0, 1.0], [0.0, 1.0])
        assert [a.shape for a in _log_root_many(rows_of(np.sqrt), [], True)] == [(0,), (0,)]

    def test_log_root_many_open_bracket_raises(self, monkeypatch):
        # gate values are 0 or inf, so every step bisects; 5 cannot close it
        gate = oz.gate(1.5)
        monkeypatch.setattr(young, "_MAX_STEPS", 5)
        with pytest.raises(oz.YoungError, match="open after 5 steps"):
            _log_root_many(rows_of(entrywise(gate)), [0.5, 0.5], False)
        with scalar_rounding(), pytest.raises(oz.YoungError) as many:
            _log_root_many(rows_of(entrywise(gate)), [0.5, 0.5], False)
        with pytest.raises(oz.YoungError) as one:
            _log_root(gate, 0.5, False)
        assert str(many.value) == str(one.value)
        # a row that closes does not hide a later open one
        monkeypatch.setattr(young, "_MAX_STEPS", 8)
        with pytest.raises(oz.YoungError, match="open after 8 steps"):
            _log_root_many(rows_of(lambda s: np.where(s < 2.0, 0.0, s)), [1.0, 1e-3], False)


class TestDelta2:
    def test_power_exact_constant(self):
        v = oz.check_delta2(oz.Power(2.5), oz.Regime.everywhere())
        assert v.holds and v.constant == 2.0 ** 2.5

    def test_product_exp_fails_near_infinity(self):
        # symbolic ratio oracle: A(2t)/A(t) = 2 e^t for A(t) = t e^t
        y = oz.PowerExp(1.0)
        for t in (1.0, 5.0, 20.0):
            assert y(2 * t) / y(t) == pytest.approx(2 * math.exp(t), rel=1e-12)
        v = oz.check_delta2(y, oz.Regime.near_infinity())
        assert not v.holds and v.witness is not None

    def test_flat_exponential_fails_near_zero(self):
        # symbolic ratio oracle: A(2t)/A(t) = exp(1/(2t)) for exp(-1/t)
        y = oz.ExpNegInv(1.0)
        t = 1e-2
        assert y(2 * t) / y(t) == pytest.approx(math.exp(1 / (2 * t)), rel=1e-9)
        assert not oz.check_delta2(y, oz.Regime.near_zero()).holds

    def test_power_holds_near_zero_for_product_exp(self):
        assert oz.check_delta2(oz.PowerExp(2.0), oz.Regime.near_zero()).holds

    def test_identically_zero_is_indeterminate(self):
        dead = oz.Custom(lambda t: 0.0 if t < 1e12 else t - 1e12, label="dead")
        with pytest.raises(oz.IndeterminateError):
            oz.check_delta2(dead, oz.Regime.near_zero())

    def test_custom_grid_probe(self):
        y = oz.Custom(lambda t: t * math.exp(t), label="texp")
        v = oz.check_delta2(y, oz.Regime.near_infinity())
        # the probe stops at the first point where A(2t) overflows
        assert not v.holds and v.witness == 352.26946514731014
        assert oz.check_delta2(oz.Custom(lambda t: 5 * t * t, label="sq"),
                               oz.Regime.everywhere()).holds


class TestEquivalence:
    def test_black_box_overflow_stops_the_sandwich(self):
        # the sandwich at c_max stops at its first failing point, before
        # t e^t overflows the float range further up the grid
        v = oz.equivalent(oz.Power(2), oz.Custom(lambda t: t * math.exp(t), label="texp"),
                          oz.Regime.near_infinity())
        assert v.status == "indeterminate" and v.witness == 31.622776601683793

    def test_scaling_constant(self):
        v = oz.equivalent(oz.Power(2), oz.Power(2, scale=3.0),
                          oz.Regime.everywhere())
        assert v.equivalent
        assert v.constant == pytest.approx(math.sqrt(3.0), rel=1e-6)

    def test_log_factor_beats_any_constant(self):
        # ratio oracle t^2 log(1+t) / (c t)^2 -> inf
        v = oz.equivalent(oz.Power(2), oz.PowerLog(2, 1),
                          oz.Regime.near_infinity())
        assert v.status == "not_equivalent"

    def test_reflexive(self):
        for y in (oz.Power(2), oz.PowerExp(1), oz.ExpNegInv(1)):
            for regime in (oz.Regime.everywhere(), oz.Regime.near_zero(),
                           oz.Regime.near_infinity()):
                v = oz.equivalent(y, y, regime)
                assert v.equivalent and v.constant == 1.0

    def test_symmetric_constant(self):
        r = oz.Regime.everywhere()
        v1 = oz.equivalent(oz.Power(2), oz.Power(2, scale=3.0), r)
        v2 = oz.equivalent(oz.Power(2, scale=3.0), oz.Power(2), r)
        assert v1.equivalent and v2.equivalent
        assert v1.constant == pytest.approx(v2.constant, rel=1e-6)

    def test_black_box_beyond_cap_is_indeterminate(self):
        a = oz.Custom(lambda t: t * t, label="sq")
        b = oz.Custom(lambda t: 1e15 * t * t, label="huge")
        v = oz.equivalent(a, b, oz.Regime.everywhere(), c_max=1e6)
        assert v.status == "indeterminate"


def ref_equivalence_constant(y1, y2, ts, c_max=1e6):
    """The former bisection of ``equivalent``; None when c_max fails."""
    if not _sandwich_ok(y1, y2, c_max, ts)[0]:
        return None
    if _sandwich_ok(y1, y2, 1.0, ts)[0]:
        return 1.0
    lo, hi = 1.0, c_max
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        if _sandwich_ok(y1, y2, mid, ts)[0]:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-9 * hi:
            break
    return hi


EQUIVALENCE_BASES = [oz.Power(1.5), oz.Power(3.0), oz.PowerLog(2, 1), oz.PowerLogLog(2, 0.5),
                     oz.PowerExp(1.0), oz.Exp(1.0), oz.gate(1.0)]
REGIMES = [oz.Regime.everywhere(), oz.Regime.near_zero(), oz.Regime.near_infinity(2.0)]


class TestEquivalenceSearch:
    """The constant read off the inverse against the bisection it replaced."""

    @settings(max_examples=25, deadline=None)
    @given(j=st.integers(0, len(EQUIVALENCE_BASES) - 1), r=st.integers(0, len(REGIMES) - 1),
           k=log_uniform(1e-3, 1e3), stretch=log_uniform(0.5, 2.0))
    def test_matches_bisection(self, j, r, k, stretch):
        y = EQUIVALENCE_BASES[j]
        # a black box: no growth orders, so only the grid decides
        other = oz.Custom(lambda t: k * y(stretch * t), label="scaled")
        regime = REGIMES[r]
        ref = ref_equivalence_constant(y, other, regime.grid())
        v = oz.equivalent(y, other, regime)
        if ref is None or ref == 1.0:
            assert v.constant == ref
        else:
            assert math.isclose(v.constant, ref, rel_tol=2e-9)

    @settings(max_examples=25, deadline=None)
    @given(j=st.integers(0, len(EQUIVALENCE_BASES) - 1), r=st.integers(0, len(REGIMES) - 1),
           k=log_uniform(1e-3, 1e3), stretch=log_uniform(0.5, 2.0))
    @example(j=5, r=0, k=10.0 ** 0.25, stretch=0.5316668254369868)  # B finite where A jumps
    def test_constant_passes_sandwich(self, j, r, k, stretch):
        y = EQUIVALENCE_BASES[j]
        other = oz.Custom(lambda t: k * y(stretch * t), label="scaled")
        regime = REGIMES[r]
        v = oz.equivalent(y, other, regime)
        assert v.constant is None or _sandwich_ok(y, other, v.constant, regime.grid())[0]

    @pytest.mark.parametrize("regime", [oz.Regime.everywhere(), oz.Regime.near_zero(),
                                        oz.Regime.near_infinity()], ids=lambda r: r.kind)
    def test_gate_is_its_own_equivalent(self, regime):
        v = oz.equivalent(oz.gate(1.0), oz.gate(1.0), regime)
        assert v.equivalent and v.constant == 1.0

    def test_inverse_brackets_a_black_box_beyond_the_grid(self):
        v = oz.equivalent(oz.Custom(lambda t: t ** 20, label="t^20"), oz.Power(20, scale=2.0),
                          oz.Regime.near_infinity())
        assert v.equivalent
        assert math.isclose(v.constant, 1.0352649239399685, rel_tol=1e-9)


class TestNondegeneracy:
    def test_linear(self):
        assert oz.is_nondegenerate(oz.Power(1))

    def test_flat_piece(self):
        y = oz.Piecewise(breaks=(1.0,),
                         branches=(lambda t: 0.0, lambda t: t - 1.0),
                         zero=oz.GrowthOrder(0.0, family="flat"))
        assert not oz.is_nondegenerate(y)

    def test_flat_exponential_positive(self):
        y = oz.ExpNegInv(0.7)
        assert oz.is_nondegenerate(y)
        assert y(1e-3) > 0.0


class TestModifyNearZero:
    def test_power_becomes_linear_then_power(self):
        from orlicz.conjugate import IntegralClass, classify_integral_zero
        n = 3
        mod = oz.modify_near_zero(oz.Power(2), n)
        # closed-form oracle: on the linear piece the integrand of the
        # conjugate integral is constant, so the origin integral converges
        assert classify_integral_zero(mod, n) is IntegralClass.CONVERGES
        assert mod(mod.tstar) == pytest.approx(oz.Power(2)(mod.tstar), rel=1e-12)

    def test_unchanged_near_infinity(self):
        y = oz.Power(2)
        mod = oz.modify_near_zero(y, 3)
        v = oz.equivalent(mod, y, oz.Regime.near_infinity(2 * mod.tstar))
        assert v.equivalent and v.constant == 1.0

    def test_flat_exponential_input(self):
        from orlicz.conjugate import IntegralClass, classify_integral_zero
        mod = oz.modify_near_zero(oz.ExpNegInv(1.0), 3)
        assert classify_integral_zero(mod, 3) is IntegralClass.CONVERGES

    def test_gate_has_no_glue_point(self):
        with pytest.raises(oz.YoungError):
            oz.modify_near_zero(oz.gate(1.0), 2)


def _poly(p, log_exp=0.0, loglog_exp=0.0):
    return repr(oz.GrowthOrder(p, log_exp, loglog_exp))


_FLAT, _JUMP = (repr(oz.GrowthOrder(0.0, family=f)) for f in ("flat", "jump"))
DESCRIBED = {  # (zero_order, inf_order, finite_jump) reprs, frozen from the per-kind properties
    "power": (oz.Power(2.5, 3.0), _poly(2.5), _poly(2.5), "None"),
    "power_log": (oz.PowerLog(2, 1), _poly(3), _poly(2, 1), "None"),
    "power_loglog": (oz.PowerLogLog(3, -0.5), _poly(3), _poly(3, 0.0, -0.5), "None"),
    "power_exp": (oz.PowerExp(1.5), _poly(1.5), repr(oz.GrowthOrder(1.0, family="exp")),
                  "None"),
    "exp": (oz.Exp(2.0), _poly(2.0), repr(oz.GrowthOrder(2.0, family="exp")), "None"),
    "exp_neg_inv": (oz.ExpNegInv(0.5), repr(oz.GrowthOrder(0.5, family="exp_neg_inv")),
                    _poly(1.0), "None"),
    "gate": (oz.gate(0.5), _FLAT, _JUMP, "0.5"),
    "glued": (oz.Glued(oz.Power(2), oz.PowerLog(3, 1), 1.0, 2.0), _poly(2), _poly(3, 1), "None"),
    "linear": (oz.linear(), _poly(1.0), _poly(1.0), "None"),
    "custom": (oz.Custom(lambda t: t * t), "None", "None", "None"),
    "custom_described": (oz.Custom(lambda t: t * t, zero=oz.GrowthOrder(2.0),
                                   inf_=oz.GrowthOrder(2.0, 1.0), jump=7.0),
                         _poly(2.0), _poly(2.0, 1.0), "7.0"),
    "piecewise": (oz.Piecewise((1.0,), (lambda t: t, lambda t: t * t)), "None", "None", "None"),
    "piecewise_described": (oz.Piecewise((1.0,), (lambda t: t, lambda t: INF), 1.0,
                                         oz.GrowthOrder(1.0), oz.GrowthOrder(0.0, family="jump")),
                            _poly(1.0), _JUMP, "1.0"),
    "from_inverse": (FromInverse(np.sqrt), "None", "None", "None"),
    "from_inverse_described": (FromInverse(np.sqrt, oz.GrowthOrder(2.0), oz.GrowthOrder(2.0)),
                               _poly(2.0), _poly(2.0), "None"),
    "gate_2": (oz.gate(2.0), _FLAT, _JUMP, "2.0"),
    "glued_jump": (oz.Glued(oz.Power(2), oz.gate(3.0), 1.0), _poly(2), _JUMP, "3.0"),
    "ortho_bar": (oz.orthotropic_bar([oz.PowerLog(2, 1), oz.Power(3)]), _poly(3.0), "None",
                  "None"),
    "conjugate_an": (lambda: oz.sobolev_conjugate(oz.Power(3), 2).an, _poly(2.0), _JUMP,
                     "1.4142135623730947"),
    "chord_table": (circ_table, _poly(1.8749999999997222), _poly(1.8750000000009348), "None"),
}


class TestDescriptors:
    @pytest.mark.parametrize("name", DESCRIBED)
    def test_frozen_descriptors(self, name):
        y, *want = DESCRIBED[name]
        y = y if isinstance(y, oz.YoungFunction) else y()
        assert [repr(y.zero_order), repr(y.inf_order), repr(y.finite_jump)] == want

    def test_covers_every_registered_kind(self):
        assert set(young._FAMILIES) <= set(DESCRIBED) | {
            alias for cls in REGISTERED for alias in cls.aliases}


class TestShapeInvariants:
    def test_convexity_probe(self):
        ts = np.geomspace(1e-6, 1e6, 64)
        for y in builtin_corpus():
            for i in range(len(ts)):
                for j in range(i + 1, len(ts), 7):
                    s, t = float(ts[i]), float(ts[j])
                    at = y(t)
                    if at == INF:
                        continue
                    assert y(0.5 * (s + t)) <= 0.5 * (y(s) + at) + 1e-9 * (1 + at)

    def test_slope_monotone(self):
        # A(t)/t non-decreasing where finite
        ts = np.geomspace(1e-6, 1e6, 64)
        for y in builtin_corpus():
            prev = 0.0
            for t in ts:
                t = float(t)
                a = y(t)
                if a == INF:
                    break
                ratio = a / t
                assert ratio >= prev * (1 - 1e-9)
                prev = ratio

    def test_scaling_inequality(self):
        # lambda A(t) <= A(lambda t) for lambda >= 1; equivalently
        # A(lambda t) <= lambda A(t) for lambda <= 1
        ts = np.geomspace(1e-6, 1e3, 40)
        for y in builtin_corpus():
            for lam in (1.0, 2.0, 10.0, 1e3):
                for t in ts:
                    t = float(t)
                    a = y(t)
                    if a == INF or y(lam * t) == INF:
                        continue
                    assert lam * a <= y(lam * t) * (1 + 1e-9) + 1e-300

    @settings(max_examples=40, deadline=None)
    @given(lam=st.floats(0.0, 1.0), t=st.floats(1e-6, 1e3))
    def test_subunit_scaling_property(self, lam, t):
        y = oz.PowerLog(2, 1)
        assert y(lam * t) <= lam * y(t) * (1 + 1e-9) + 1e-300


class TestConfig:
    def test_round_trip(self):
        for y in (oz.Power(2.5), oz.PowerLog(2, 1), oz.PowerLogLog(3, -1),
                  oz.Exp(0.5), oz.ExpNegInv(1.0), oz.PowerExp(1.0)):
            again = oz.from_config(y.to_config())
            for t in (0.1, 1.0, 7.3):
                assert again(t) == pytest.approx(y(t), rel=1e-12)

    def test_text_forms(self):
        assert oz.from_config("power:2")(3.0) == 9.0
        assert oz.from_config("linear")(3.0) == 3.0
        assert isinstance(oz.from_config("expneginv:1"), oz.ExpNegInv)
        with pytest.raises(oz.YoungError):
            oz.from_config("nope:1")
        for bad in ("power", "power:2,3,4", "linear:1", None, [2.0], "power:x", "power:nan",
                    "power:inf", "power_exp:nan", "exp:nan", "gate:0", "glued:1,2,3",
                    {"kind": "power"}, {"kind": "power", "p": "x"}, {"kind": "power", "p": True},
                    {"kind": "power", "p": 2, "q": 1}, {"kind": ["power"], "p": 2},
                    {"kind": "exp", "alpha": 2, "tstar": 1}):
            with pytest.raises(oz.YoungError):
                oz.from_config(bad)

    # the records of these kinds, key order included: schema: 1 JSON embeds them
    FROZEN = [
        (oz.Power(2.5), '{"kind": "power", "p": 2.5}'),
        (oz.Power(2, 3.0), '{"kind": "power", "p": 2, "scale": 3.0}'),
        (oz.linear(), '{"kind": "power", "p": 1.0}'),
        (oz.PowerLog(2, 1), '{"kind": "power_log", "p": 2, "alpha": 1, "c": 1.0}'),
        (oz.PowerLog(1.5, -1),
         '{"kind": "power_log", "p": 1.5, "alpha": -1, "c": 2.718281828459045}'),
        (oz.PowerLogLog(3, -1),
         '{"kind": "power_loglog", "p": 3, "alpha": -1, "c": 15.154262241479262}'),
        (oz.PowerLogLog(2, 0.5),
         '{"kind": "power_loglog", "p": 2, "alpha": 0.5, "c": 2.718281828459045}'),
        (oz.PowerExp(1.0), '{"kind": "power_exp", "p": 1.0}'),
        (oz.PowerExp(2), '{"kind": "power_exp", "p": 2}'),
        (oz.Exp(0.5), '{"kind": "exp", "alpha": 0.5}'),
        (oz.ExpNegInv(1.0), '{"kind": "exp_neg_inv", "alpha": 1.0}'),
        (oz.gate(0.5), '{"kind": "gate", "threshold": 0.5}'),
        (oz.modify_near_zero(oz.Power(4), 3),
         '{"kind": "glued", "near_zero": {"kind": "power", "p": 1.0}, "near_infinity": '
         '{"kind": "power", "p": 4}, "tstar": 1.0, "hi_scale": 1.0}'),
        (oz.modify_near_zero(oz.PowerLog(2, 1), 3),
         '{"kind": "glued", "near_zero": {"kind": "power", "p": 1.0, "scale": '
         '0.6931471805599453}, "near_infinity": {"kind": "power_log", "p": 2, "alpha": 1, '
         '"c": 1.0}, "tstar": 1.0, "hi_scale": 1.0}'),
        (oz.Glued(oz.Power(1.0, 2.0), oz.Exp(2.0), 0.5, 3.0),
         '{"kind": "glued", "near_zero": {"kind": "power", "p": 1.0, "scale": 2.0}, '
         '"near_infinity": {"kind": "exp", "alpha": 2.0}, "tstar": 0.5, "hi_scale": 3.0}'),
    ]

    @pytest.mark.parametrize("y,text", FROZEN, ids=lambda v: getattr(v, "kind", None))
    def test_records_are_frozen(self, y, text):
        assert json.dumps(y.to_config()) == text
        assert oz.from_config(json.loads(text)) == y

    def test_every_kind_is_frozen(self):
        assert {y.kind for y, _ in self.FROZEN} == REGISTERED_KINDS

    @settings(max_examples=120, deadline=None)
    @given(y=st.one_of(*FAMILIES.values()))
    def test_round_trip_is_identity(self, y):
        assert oz.from_config(json.loads(json.dumps(y.to_config()))) == y

    def test_every_kind_round_trips(self):
        assert set(FAMILIES) == REGISTERED_KINDS

    @pytest.mark.parametrize("cls", sorted(REGISTERED, key=lambda c: c.kind))
    def test_keys_are_the_constructor_parameters(self, cls):
        assert tuple(inspect.signature(cls).parameters) == cls.keys

    @pytest.mark.parametrize("text,want", [
        ("linear", oz.linear()), ("power:2", oz.Power(2.0)), ("POWER:2,3", oz.Power(2.0, 3.0)),
        ("powerlog:2,1", oz.PowerLog(2.0, 1.0)), ("power_log:2,-1,3", oz.PowerLog(2.0, -1.0, 3.0)),
        ("powerloglog:2,1", oz.PowerLogLog(2.0, 1.0)),
        ("power_loglog:2,1", oz.PowerLogLog(2.0, 1.0)),
        ("powerexp:2", oz.PowerExp(2.0)), ("power_exp", oz.PowerExp()), ("exp:2", oz.Exp(2.0)),
        ("expneginv:1", oz.ExpNegInv(1.0)), ("exp_neg_inv:0.5", oz.ExpNegInv(0.5)),
        ("gate:0.5", oz.gate(0.5)),
    ])
    def test_every_alias_parses(self, text, want):
        assert oz.from_config(text) == want

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("record", VALID_RECORDS, ids=lambda r: r["kind"])
    def test_non_finite_parameter_is_an_error(self, record, bad):
        oz.from_config(record)
        for key, value in record.items():
            if isinstance(value, float):
                with pytest.raises(oz.YoungError, match=key):
                    oz.from_config({**record, key: bad})
