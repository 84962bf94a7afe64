"""Admissibility checkers and the closed-form exponent tables."""

import dataclasses
import functools
import json
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import orlicz as oz
from orlicz.conditions import (
    _TOL,
    ConditionVerdict,
    _ass2_analytic,
    _ass2_grid,
    _assd_analytic,
    _assd_grid,
    _env_on,
    _limsup_analytic,
    _limsup_probe,
    _min_constant,
)
from orlicz.nemytskii import parse_envelope
from orlicz.young import INF


class TestInqAss2:
    @pytest.mark.parametrize("p,n,r", [(2, 3, 1), (1, 2, 2), (2, 4, 0.5)])
    def test_boundary_holds_and_inflated_fails(self, p, n, r):
        q = n * p / (n + r * (n - p))
        env = oz.Envelope.power(r)
        assert oz.check_inq_ass2(oz.Power(p), oz.Power(q), env, n).holds
        v = oz.check_inq_ass2(oz.Power(p), oz.Power(1.05 * q), env, n)
        assert not v.holds and v.analytic

    @pytest.mark.parametrize("n", [2, 3])
    def test_critical_power_exponential_envelope(self, n):
        nprime = n / (n - 1.0)
        env = oz.Envelope.exp_power(nprime)
        assert oz.check_inq_ass2(oz.Power(n), oz.Power(n - 0.1), env, n).holds
        assert not oz.check_inq_ass2(oz.Power(n), oz.Power(n), env, n).holds

    def test_identity_case(self):
        for a in (oz.Power(2), oz.PowerLog(2, 1), oz.PowerExp(1)):
            assert oz.check_inq_ass2(a, a, oz.Envelope.one(), 3).holds

    def test_vacuous_when_integral_converges(self):
        v = oz.check_inq_ass2(oz.Power(5), oz.Power(10), oz.Envelope.exp_exp(2.0), 3)
        assert v.holds and "vacuous" in v.note

    def test_zygmund_boundary_with_log_orders(self):
        # p = 2, alpha = 1, n = 3, r = 1, gamma = 0: q_max = 1.5 and
        # beta_max = n alpha (1+r) / (n + r(n-p)) = 1.5
        a = oz.PowerLog(2, 1)
        env = oz.Envelope.power(1.0)
        assert oz.check_inq_ass2(a, oz.PowerLog(1.5, 1.5), env, 3).holds
        assert not oz.check_inq_ass2(a, oz.PowerLog(1.5, 1.6), env, 3).holds

    def test_double_log_scale(self):
        # same boundary exponents on the double-log scale
        a = oz.PowerLogLog(2, 1)
        env = oz.Envelope.power(1.0, 0.0, "loglog")
        assert oz.check_inq_ass2(a, oz.PowerLogLog(1.5, 1.5), env, 3).holds
        assert not oz.check_inq_ass2(a, oz.PowerLogLog(1.5, 1.6), env, 3).holds

    def test_grid_agrees_with_exponent_algebra(self):
        # sub- and super-boundary power families, both decision paths
        for p, n, r in ((2, 3, 1), (2, 4, 0.5)):
            q_max = n * p / (n + r * (n - p))
            env = oz.Envelope.power(r)
            for q, expected in ((0.8 * q_max, True), (1.3 * q_max, False)):
                ana = oz.check_inq_ass2(oz.Power(p), oz.Power(q), env, n)
                grid = _ass2_grid(oz.Power(p), oz.Power(q), env, n, t0=0.0)
                assert ana.analytic and not grid.analytic
                assert ana.holds is expected
                assert grid.holds is expected

    def test_indeterminate_refused(self):
        wob = oz.Custom(lambda t: t ** (2.0 + 0.8 * math.sin(math.log(t))),
                        label="wobble")
        with pytest.raises(oz.IndeterminateError):
            oz.check_inq_ass2(wob, oz.Power(1.5), oz.Envelope.one(), 2)

    def test_grid_path_for_custom(self):
        a = oz.Custom(lambda t: t * t, zero=oz.GrowthOrder(2.0),
                      inf_=None, label="sq")
        v = oz.check_inq_ass2(a, oz.Power(1.2), oz.Envelope.power(1.0), 3)
        assert not v.analytic and v.holds
        v2 = oz.check_inq_ass2(a, oz.Power(1.9), oz.Envelope.power(1.0), 3)
        assert not v2.analytic and not v2.holds

    def test_nan_left_side_is_indeterminate(self):
        a = oz.Custom(lambda t: t * t * math.log1p(t), zero=oz.GrowthOrder(3.0), label="a")
        b = oz.Custom(lambda t: math.nan if 5.0 < t < 6.0 else t ** 1.2, label="nan on (5, 6)")
        with pytest.raises(oz.IndeterminateError, match=r"nan at t = 2\.7192"):
            oz.check_inq_ass2(a, b, oz.Envelope.power(1.0), 3)

    @pytest.mark.parametrize("t0", [1e6, 2e6])
    def test_cutoff_at_or_past_the_grid_end(self, t0):
        a = oz.Custom(lambda t: t * t, zero=oz.GrowthOrder(2.0), label="sq")
        with pytest.raises(oz.YoungError, match=r"ends at 1e\+06"):
            oz.check_inq_ass2(a, oz.Power(1.2), oz.Envelope.power(1.0), 3, t0=t0)


FLAT = oz.Custom(lambda t: 0.0, zero=oz.GrowthOrder(0.0, family="flat"), label="flat")
LOG_AT_ZERO = oz.Custom(lambda t: t * t, zero=oz.GrowthOrder(2.0, 1.0), label="log at zero")
EXP_AT_ZERO = oz.Custom(lambda t: t * t, zero=oz.GrowthOrder(1.0, family="exp"),
                        label="exp at zero")


class TestInqAssD:
    def test_flat_exponential_family(self):
        a, f = oz.ExpNegInv(1.0), oz.ExpNegInv(1.1)
        env = oz.Envelope.power(1.0)
        assert oz.check_inq_assD(a, oz.ExpNegInv(0.6), env, f, t1=0.3).holds
        assert not oz.check_inq_assD(a, oz.ExpNegInv(0.4), env, f, t1=0.3).holds

    def test_reduction_with_f_equal_a(self):
        # with the splitter equal to the source the inequality becomes
        # B(t E(t)) <= A(t) near zero
        a = oz.Power(2)
        v = oz.check_inq_assD(a, oz.Power(1.5), oz.Envelope.power(1.0), a)
        # near zero t^{1.5(1+1)} = t^3 <= t^2 holds; check the raw reduction
        for t in (1e-3, 1e-2, 0.5):
            assert oz.Power(1.5)(t * t) <= a(t) * (1 + 1e-12)
        assert v.holds

    def test_conjugate_as_splitter(self):
        conj = oz.sobolev_conjugate(oz.Power(2), 3)
        v = oz.check_inq_assD(oz.Power(2), oz.Power(2), oz.Envelope.one(),
                              conj.an)
        assert v.limsup.holds and v.limsup.analytic

    def test_zero_left_side_needs_no_constant(self):
        # lhs = 0 below 1e-3 passes at any c, though A is flat below 1e-4
        a = oz.Custom(lambda t: max(0.0, t - 1e-4), label="flat below 1e-4")
        b = oz.Custom(lambda t: max(0.0, t - 1e-3) ** 2, label="flat below 1e-3")
        v = oz.check_inq_assD(a, b, oz.Envelope.one(), oz.Power(2)).inequality
        assert (v.holds, v.constant) == (True, 1.0)

    def test_infinite_valued_splitter_rejected(self):
        with pytest.raises(oz.YoungError):
            oz.check_inq_assD(oz.Power(2), oz.Power(2), oz.Envelope.one(),
                              oz.gate(1.0))

    def test_target_past_its_jump_admits_no_constant(self):
        # B = gate(0.5) is inf once t E(F^-1(A(t))) = t^2 > 0.5, so no c
        # brings that left side under A(c t)
        v = oz.check_inq_assD(oz.Power(2), oz.gate(0.5), oz.Envelope.power(1.0), oz.Power(2))
        assert not v and not v.inequality and v.limsup
        assert (v.inequality.analytic, v.inequality.constant) == (False, INF)
        assert v.inequality.witness == pytest.approx(0.5 ** 0.5, rel=0.05)

    @pytest.mark.parametrize("f,a,want", [
        (FLAT, oz.Power(2), (True, "numerator vanishes near zero")),
        (oz.Power(2), FLAT, (False, "denominator vanishes near zero while the numerator does not")),
        (LOG_AT_ZERO, oz.Power(2), None),
        (oz.Power(3), oz.Power(2), (True, "numerator decays at least as fast")),
        (oz.Power(2), oz.Power(3), (False, "numerator decays strictly slower")),
        (oz.ExpNegInv(1), oz.Power(2), (True, "numerator is infinitely flat at zero")),
        (oz.Power(2), oz.ExpNegInv(1), (False, "denominator is infinitely flat at zero")),
        (oz.ExpNegInv(2), oz.ExpNegInv(1),
         (True, "numerator flatness order dominates for every lambda")),
        (oz.ExpNegInv(1), oz.ExpNegInv(1),
         (False, "flatness order too small; large lambda defeats the ratio")),
        (EXP_AT_ZERO, oz.Power(2), None),
    ], ids=["flat/any", "any/flat", "log/poly", "t3/t2", "t2/t3", "expinv/poly",
            "poly/expinv", "expinv2/expinv1", "expinv1/expinv1", "exp/poly"])
    def test_limsup_rows(self, f, a, want):
        """Each row of the bounded-ratio rule on F(lambda t) / A(t), t -> 0:
        flat F: 0 / A = 0, bounded.  Flat A: lambda^2 t^2 / 0, unbounded.
        A log order at zero: no row, the probe decides.  t^3 / t^2 =
        lambda^3 t -> 0.  t^2 / t^3 = lambda^2 / t -> inf.  exp(-1/(lambda
        t)) / t^2 -> 0.  lambda^2 t^2 exp(1/t) -> inf.  exp(-1/(lambda t)^2)
        / exp(-1/t) = exp(1/t - 1/(lambda^2 t^2)) -> 0 for every lambda.
        exp(-1/(lambda t)) / exp(-1/t) = exp((1 - 1/lambda) / t) -> inf for
        lambda > 1.  A zero order of a family no row names: the probe."""
        assert _limsup_analytic(f, a) == want
        v = _limsup_probe(f, a)
        assert v.analytic is (want is not None)
        if want is not None:
            assert (v.holds, v.note) == want

    def test_limsup_probe_without_usable_points(self):
        # A is 0 on the whole probe window (1e-8, 1e-2], so no ratio exists
        zero_below = oz.Custom(lambda t: max(0.0, t - 0.1), label="zero below 0.1")
        v = _limsup_probe(oz.Power(2), zero_below)
        assert (v.holds, v.indeterminate, v.note) == (False, True, "no usable probe points")
        assert oz.check_inq_assD(zero_below, oz.Power(2), oz.Envelope.one(),
                                 oz.Power(2)).indeterminate

    @pytest.mark.parametrize("t1", [-1.0, 0.0, INF, math.nan])
    def test_t1_must_be_positive_and_finite(self, t1):
        with pytest.raises(oz.YoungError, match="t1 must be positive and finite"):
            oz.check_inq_assD(oz.Power(2), oz.Power(1.5), oz.Envelope.power(1.0, 1.0),
                              oz.PowerLog(2, 1), t1=t1)


class TestOrtho:
    def test_identity_reduction(self):
        ps = [oz.Power(2)] * 3
        v = oz.check_ortho(ps, ps, oz.Envelope.one(), 3)
        assert v.holds

    def test_boundary_exponents(self):
        # mean 2, n = 3, r = 1: q_i <= pbar n p_i/(n pbar + p_i r(n - pbar)) = 1.5
        ps = [oz.Power(2)] * 3
        env = oz.Envelope.power(1.0)
        assert oz.check_ortho(ps, [oz.Power(1.5)] * 3, env, 3).holds
        v = oz.check_ortho(ps, [oz.Power(1.6)] * 3, env, 3)
        assert not v.holds

    def test_mixed_components(self):
        ps = [oz.Power(1), oz.Power(4)]
        pbar = oz.bar_p([1, 4])
        env = oz.Envelope.power(1.0)
        qs = [2 * pbar * p / (2 * pbar + p * 1.0 * (2 - pbar)) for p in (1, 4)]
        assert oz.check_ortho(ps, [oz.Power(q) for q in qs], env, 2).holds
        assert not oz.check_ortho(ps, [oz.Power(q * 1.1) for q in qs], env, 2).holds

    def test_vacuous_when_mean_exceeds_dimension(self):
        ps = [oz.Power(3), oz.Power(4)]
        v = oz.check_ortho(ps, [oz.Power(9)] * 2, oz.Envelope.one(), 2)
        assert v.holds and "vacuous" in v.note

    def test_critical_mean_exponential_envelope(self):
        # mean exponent equal to the dimension with the matching envelope:
        # strictly smaller targets pass componentwise
        ps = [oz.Power(2), oz.Power(2)]
        env = oz.Envelope.exp_power(2.0)
        assert oz.check_ortho(ps, [oz.Power(1.9)] * 2, env, 2).holds
        assert not oz.check_ortho(ps, [oz.Power(2.0)] * 2, env, 2).holds

    def test_log_component_grid(self):
        # orlicz check --cond ortho --A "power_log:2,0.5|power:1.5"
        #   --B "power:1.2|power:1" --E log_power:1 --n 2
        v = oz.check_ortho([oz.PowerLog(2, 0.5), oz.Power(1.5)], [oz.Power(1.2), oz.Power(1)],
                           oz.Envelope.log_power(1.0), 2)
        assert (v.holds, v.witness, v.grid) == (True, (1, 1e-06), "log grid per component")
        assert v.constant == pytest.approx(1129.5465333032948, rel=1e-6)
        assert v.worst_margin > 0.0

    def test_indeterminate_reduction_refused(self):
        # the reduction of two wobbling components is the wobble, whose
        # log-log slope never settles
        wob = oz.Custom(lambda t: t ** (2.0 + 0.8 * math.sin(math.log(t))), label="wobble")
        with pytest.raises(oz.IndeterminateError, match="reduced function"):
            oz.check_ortho([wob, wob], [oz.Power(1.2)] * 2, oz.Envelope.one(), 2)

    def test_component_without_constant(self):
        # B_0(A_0^-1(M(t))) grows like t^(5 pbar / 1.5) against M(c t) ~ c^pbar t^pbar
        v = oz.check_ortho([oz.Power(1.5), oz.Power(1.8)], [oz.Power(5), oz.Power(1.2)],
                           oz.Envelope.log_power(1.0), 2)
        assert (v.holds, v.witness, v.constant, v.analytic) == (False, 0, INF, False)
        assert v.note == "component 0 admits no constant"

    @pytest.mark.parametrize("t0", [1e6, 2e6])
    def test_grid_cutoff_at_or_past_the_grid_end(self, t0):
        ps = [oz.Power(2), oz.Power(2)]
        with pytest.raises(oz.YoungError, match=r"ends at 1e\+06"):
            oz.check_ortho(ps, [oz.Power(1.5)] * 2, oz.Envelope.log_power(1.0), 2, t0=t0)


class TestAniso:
    def test_identity(self):
        phi = oz.Isotropic(oz.Power(2), 2)
        v = oz.check_aniso(phi, phi, oz.Envelope.one(), 2)
        assert v.holds and v.constant <= 1e-4

    def test_isotropic_consistency_with_scalar_condition(self):
        # sub- and super-boundary targets agree with the scalar checker
        phi = oz.Isotropic(oz.Power(2), 3)
        env = oz.Envelope.power(1.0)
        lo = oz.check_aniso(phi, oz.Isotropic(oz.Power(1.2), 3), env, 3)
        hi = oz.check_aniso(phi, oz.Isotropic(oz.Power(1.8), 3), env, 3)
        assert lo.holds is oz.check_inq_ass2(oz.Power(2), oz.Power(1.2), env, 3).holds
        assert hi.holds is oz.check_inq_ass2(oz.Power(2), oz.Power(1.8), env, 3).holds

    def test_target_below_the_source(self):
        # with E = 1, theta solves Phi_n(theta) = Phi(xi), so the excess
        # Psi - Phi = -Phi / 2 is negative at every sample
        phi = oz.Isotropic(oz.Power(2), 3)
        psi = oz.Isotropic(oz.Power(2, 0.5), 3)
        for with_constant in (True, False):
            v = oz.check_aniso(phi, psi, oz.Envelope.one(), 3, with_constant=with_constant)
            assert (v.holds, v.constant, v.witness) == (True, 0.0, None)

    def test_without_the_additive_constant(self):
        # Psi = 2 Phi exceeds Phi by Phi(xi), which no sample keeps below noise
        phi = oz.Isotropic(oz.Power(2), 3)
        v = oz.check_aniso(phi, oz.Isotropic(oz.Power(2, 2.0), 3), oz.Envelope.one(), 3,
                           with_constant=False)
        assert not v.holds and v.grid == "direction-radius sampling"
        assert v.worst_margin == pytest.approx(-oz.Power(2)(float(np.linalg.norm(v.witness))),
                                               rel=1e-6)

    def test_theta_failure_is_named(self):
        # E decays, so Phi(xi / E) grows with theta and small rows never bracket
        phi = oz.Isotropic(oz.Power(2), 3)
        with pytest.raises(oz.YoungError, match="theta solver failed: failed to bracket"):
            oz.check_aniso(phi, phi, oz.Envelope.custom(lambda t: (1.0 + t) ** -10.0), 3)

    def test_scaled_target_beyond_boundary_fails(self):
        phi = oz.Isotropic(oz.Power(2), 3)
        psi = oz.Isotropic(oz.Power(2.4, scale=10.0), 3)
        v = oz.check_aniso(phi, psi, oz.Envelope.power(1.0), 3)
        assert not v.holds and v.witness is not None

    def test_batched_sampling_matches_row_loop(self, monkeypatch):
        phi = oz.Isotropic(oz.Power(2), 3)
        psi = oz.Isotropic(oz.Power(2.4, scale=10.0), 3)
        env = oz.Envelope.power(1.0)
        batched = oz.check_aniso(phi, psi, env, 3)
        # reference: every sample point solved and evaluated on its own
        monkeypatch.setattr(oz.ThetaSolver, "solve_many",
                            lambda self, xis: np.array([self.solve(xi) for xi in xis]))
        monkeypatch.setattr(oz.SobolevConjugate, "an_values",
                            lambda self, ts: np.array([self.an_value(t) for t in ts.tolist()]))
        monkeypatch.setattr(oz.Isotropic, "values", oz.NDimYoung.values)
        rows = oz.check_aniso(phi, psi, env, 3)
        assert batched.holds is rows.holds is False
        assert batched.constant == pytest.approx(rows.constant, rel=1e-12)
        assert batched.worst_margin == pytest.approx(rows.worst_margin, rel=1e-12)
        assert np.array_equal(batched.witness, rows.witness)

    def test_batched_theta_takes_few_right_side_calls(self, monkeypatch):
        # every row of a sampling grid shares each step of one search, so
        # the calls do not grow with the steps a lone row would take
        calls = [0]
        rhs_rays = oz.ThetaSolver._rhs_rays

        def counted(self, rays, rows, ts):
            calls[0] += 1
            return rhs_rays(self, rays, rows, ts)

        monkeypatch.setattr(oz.ThetaSolver, "_rhs_rays", counted)
        oz.check_aniso(oz.Isotropic(oz.Power(2), 3), oz.Isotropic(oz.Power(1.3), 3),
                       oz.Envelope.power(1.0), 3)
        assert calls[0] <= 24


class TestZygmundTable:
    def test_reference_row(self):
        row = oz.zygmund_table(2.0, 0.0, 3.0, oz.Envelope.power(1.0))
        assert row.q_max == pytest.approx(1.5)
        assert row.beta_max == pytest.approx(0.0)

    def test_beta_formula(self):
        # beta_max = n (alpha (1+r) - gamma p) / (n + r (n - p))
        row = oz.zygmund_table(2.0, 1.0, 3.0, oz.Envelope.power(1.0, 1.0))
        assert row.q_max == pytest.approx(1.5)
        assert row.beta_max == pytest.approx(3 * (1 * 2 - 1 * 2) / 4.0)

    def test_double_exponential_row(self):
        n = 3.0
        row = oz.zygmund_table(n, n - 1, n, oz.Envelope.exp_exp(n / (n - 1)))
        assert row.q_max == n and row.q_strict and not row.unconditional

    def test_unconditional_rows(self):
        assert oz.zygmund_table(4.0, 1.0, 3.0, oz.Envelope.one()).unconditional
        assert oz.zygmund_table(3.0, 2.5, 3.0, oz.Envelope.one()).unconditional
        row = oz.zygmund_table(4.0, 1.0, 3.0, oz.Envelope.one(), "loglog")
        assert row.unconditional

    def test_loglog_log_envelope_row(self):
        row = oz.zygmund_table(3.0, 1.0, 3.0, oz.Envelope.log_power(0.25),
                               "loglog")
        assert row.q_max == 3.0
        assert row.beta_max == pytest.approx(1.0 - 3.0 * 0.25)

    def test_range_validation(self):
        with pytest.raises(oz.YoungError):
            oz.zygmund_table(1.0, -0.5, 3.0, oz.Envelope.one())
        with pytest.raises(oz.YoungError):
            oz.zygmund_table(0.8, 0.0, 3.0, oz.Envelope.one())
        with pytest.raises(oz.YoungError, match="variant must be log or loglog"):
            oz.zygmund_table(2.0, 0.0, 3.0, oz.Envelope.one(), "exp")

    def test_rows_cross_validated_by_checker(self):
        # emitted power-envelope rows match the analytic checker on
        # representative families just inside and outside the region
        n = 3.0
        for p, alpha, r, gamma in ((1.5, 0.0, 1.0, 0.0), (2.0, 1.0, 0.5, 0.0),
                                   (2.0, 0.0, 1.0, 1.0)):
            row = oz.zygmund_table(p, alpha, n, oz.Envelope.power(r, gamma))
            env = oz.Envelope.power(r, gamma)
            a = oz.PowerLog(p, alpha) if alpha else oz.Power(p)

            def target(q, beta):
                return oz.PowerLog(q, beta) if beta else oz.Power(q)

            inside = oz.check_inq_ass2(a, target(0.95 * row.q_max, 0.0), env, n)
            assert inside.holds
            outside = oz.check_inq_ass2(a, target(1.05 * row.q_max, 0.0), env, n)
            assert not outside.holds
            if row.beta_max is not None and row.beta_max != 0.0:
                at_q = oz.check_inq_ass2(
                    a, target(row.q_max, row.beta_max), env, n)
                assert at_q.holds
                past_beta = oz.check_inq_ass2(
                    a, target(row.q_max, row.beta_max + 0.2), env, n)
                assert not past_beta.holds


def former_ok(lhs, ts, a, c):
    """The acceptance predicate of the former ``_min_constant`` search."""
    for t, l in zip(ts, lhs):
        if l == INF:
            return False
        if l > a(c * float(t)) * (1 + _TOL) + 1e-300:
            return False
    return True


def ref_min_constant(lhs, ts, a, c_max=1e8):
    """The former bisection of ``_min_constant``."""
    ok = functools.partial(former_ok, lhs, ts, a)
    if not ok(c_max):
        return None
    if ok(1.0):
        return 1.0
    lo, hi = 1.0, c_max
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-6 * hi:
            break
    return hi


MIN_CONSTANT_BASES = [oz.Power(2), oz.Power(1.2), oz.PowerLog(2, 1), oz.PowerExp(1.0),
                      oz.Exp(1.0)]


class TestMinConstant:
    """The constant read off the inverse against the bisection it replaced."""

    @settings(max_examples=100, deadline=None)
    @given(j=st.integers(0, len(MIN_CONSTANT_BASES) - 1),
           c0=st.floats(-1.0, 9.0).map(lambda e: 10.0 ** e),
           seed=st.integers(0, 2 ** 32 - 1), inf_at=st.integers(0, 159))
    def test_matches_bisection(self, j, c0, seed, inf_at):
        # lhs lies below A(c0 t) on a seeded grid, one point inf for a quarter
        # of the draws: the constant is at most c0, or None
        a = MIN_CONSTANT_BASES[j]
        rng = np.random.default_rng(seed)
        ts = np.geomspace(1e-3, 1.0, 40)
        lhs = np.array([a(c0 * float(t)) for t in ts]) * rng.uniform(0.2, 1.0, len(ts))
        if inf_at < len(ts):
            lhs[inf_at] = INF
        ref = ref_min_constant(lhs, ts, a)
        got = _min_constant(lhs, ts, a)
        if ref is None or ref == 1.0:
            assert got == ref
        else:
            assert math.isclose(got, ref, rel_tol=2e-6)

    @settings(max_examples=100, deadline=None)
    @given(j=st.integers(0, len(MIN_CONSTANT_BASES) - 1),
           c0=st.floats(-1.0, 9.0).map(lambda e: 10.0 ** e),
           seed=st.integers(0, 2 ** 32 - 1), inf_at=st.integers(0, 159))
    def test_constant_passes_former_predicate(self, j, c0, seed, inf_at):
        a = MIN_CONSTANT_BASES[j]
        rng = np.random.default_rng(seed)
        ts = np.geomspace(1e-3, 1.0, 40)
        lhs = np.array([a(c0 * float(t)) for t in ts]) * rng.uniform(0.2, 1.0, len(ts))
        if inf_at < len(ts):
            lhs[inf_at] = INF
        c = _min_constant(lhs, ts, a)
        assert c is None or former_ok(lhs, ts, a, c)


# ---------------------------------------------------------------------------
# The grid probes against the point-by-point loops they replaced
# ---------------------------------------------------------------------------

def ref_ass2_grid(a, b, env, n, t0, conj, points=512, t_hi=1e6, margin_at=None):
    """The former ``_ass2_grid``: A, B and E called one point at a time; the
    worst margin is taken at ``margin_at``, if given, for its own constant."""
    t_lo = max(t0, 1e-6)
    ts = np.geomspace(t_lo, t_hi, points)
    lhs = np.empty(len(ts))
    for i, t in enumerate(ts):
        t = float(t)
        e = env(conj.hn(t))
        lhs[i] = b(t * e) if e != INF else INF
    spans = [t for t in (1e2, 1e4, t_hi) if t > t_lo]
    cs = []
    for span in spans:
        mask = ts <= span * (1 + 1e-12)
        c = _min_constant(lhs[mask], ts[mask], a)
        if c is None:
            return ConditionVerdict(False, -INF, float(ts[int(np.argmax(lhs))]),
                                    grid=f"log grid [{t_lo:g}, {span:g}], {points} points",
                                    analytic=False, constant=INF,
                                    note="no admissible constant up to 1e8")
        cs.append(c)
    growing = all(cs[i + 1] > cs[i] * 1.05 for i in range(len(cs) - 1)) \
        and cs[-1] > cs[0] * 1.1 and len(cs) >= 2
    c = cs[-1]
    margin, witness = INF, None
    for t, l in zip(ts, lhs):
        rhs = a((c if margin_at is None else margin_at) * float(t))
        if rhs == INF:
            continue
        m = rhs - l
        if m < margin:
            margin, witness = m, float(t)
    grid = f"log grid [{t_lo:g}, {t_hi:g}], {points} points"
    if growing:
        return ConditionVerdict(False, margin, float(ts[-1]), grid=grid, analytic=False,
                                constant=c, note="required constant grows with the grid "
                                "span: asymptotic failure")
    return ConditionVerdict(True, margin, witness, grid=grid, analytic=False, constant=c)


def ref_assd_grid(a, b, env, f_young, t1, points=512, margin_at=None):
    """The former ``_assd_grid``, with ``ref_ass2_grid``'s ``margin_at``."""
    cutoffs = (t1 * 1e-3, t1 * 1e-6, t1 * 1e-9)
    master = np.geomspace(t1 * 1e-9, t1, points)
    lhs = np.empty(len(master))
    for i, t in enumerate(master):
        t = float(t)
        arg = env(f_young.inverse(a(t)))
        lhs[i] = b(t * arg) if arg != INF else INF
    cs = []
    for cutoff in cutoffs:
        mask = master >= cutoff * (1 - 1e-12)
        c = _min_constant(lhs[mask], master[mask], a)
        if c is None:
            return ConditionVerdict(False, -INF, float(master[int(np.argmax(lhs))]),
                                    grid=f"log grid near zero, {points} points",
                                    analytic=False, constant=INF)
        cs.append(c)
    growing = all(cs[i + 1] > cs[i] * 1.05 for i in range(len(cs) - 1)) \
        and cs[-1] > cs[0] * 1.1
    c = cs[-1]
    margin, witness = INF, None
    for t, l in zip(master, lhs):
        rhs = a((c if margin_at is None else margin_at) * float(t))
        if rhs == INF or l == INF:
            continue
        m = rhs - l
        if m < margin:
            margin, witness = m, float(t)
    return ConditionVerdict(not growing, margin, witness,
                            grid=f"log grid (0, {t1:g}], {points} points",
                            analytic=False, constant=c,
                            note="constant trend over shrinking spans" if growing else "")


def ref_limsup_probe(f_young, a, lambdas=(1.0, 10.0, 100.0), lo=1e-8, hi=1e-2, points=64):
    """The former grid branch of ``_limsup_probe``."""
    ts = np.geomspace(lo, hi, points)
    worst_bound = 0.0
    for lam in lambdas:
        ratios = []
        for t in ts:
            at = a(float(t))
            ft = f_young(lam * float(t))
            if at == 0.0:
                continue
            ratios.append(ft / at)
        if not ratios:
            return ConditionVerdict(False, 0.0, None, grid="ratio probe near zero",
                                    analytic=False, indeterminate=True,
                                    note="no usable probe points")
        half = len(ratios) // 2
        lo_max = max(ratios[:half]) if ratios[:half] else 0.0
        hi_max = max(ratios[half:]) if ratios[half:] else 0.0
        if not math.isfinite(lo_max) or (hi_max > 0 and lo_max > 100.0 * hi_max):
            return ConditionVerdict(False, -INF, float(ts[0]),
                                    grid="ratio probe near zero", analytic=False,
                                    note=f"growing trend toward zero at lambda={lam:g}")
        if hi_max > 0 and lo_max > 1.5 * hi_max:
            return ConditionVerdict(False, 0.0, float(ts[0]),
                                    grid="ratio probe near zero", analytic=False,
                                    indeterminate=True,
                                    note="non-monotone trend at the window edge")
        worst_bound = max(worst_bound, lo_max, hi_max)
    return ConditionVerdict(True, worst_bound, None, grid="ratio probe near zero",
                            analytic=False, note=f"sup ratio {worst_bound:.6g}")


def ref_ortho_grid(a_list, b_list, env, n, t0=0.0):
    """The former grid fallback of ``check_ortho``."""
    bar = oz.orthotropic_bar(a_list)
    conj = oz.sobolev_conjugate(bar, n)
    ts = np.geomspace(max(t0, 1e-6), 1e6, 256)
    worst, witness, consts = INF, None, []
    for i, (ai, bi) in enumerate(zip(a_list, b_list)):
        lhs = np.empty(len(ts))
        for j, t in enumerate(ts):
            t = float(t)
            m = bar(t)
            e = env(conj.hn(t))
            lhs[j] = bi(ai.inverse(m) * e) if e != INF else INF
        c = _min_constant(lhs, ts, bar)
        if c is None:
            return ConditionVerdict(False, -INF, i, grid="log grid per component",
                                    analytic=False, constant=INF,
                                    note=f"component {i} admits no constant")
        consts.append(c)
        for t, l in zip(ts, lhs):
            rhs = bar(c * float(t))
            if rhs == INF or l == INF:
                continue
            m = rhs - l
            if m < worst:
                worst, witness = m, (i, float(t))
    return ConditionVerdict(True, worst, witness, grid="log grid per component",
                            analytic=False, constant=max(consts))


def assert_matches_reference(got, ref, a):
    """Every verdict field as the reference's, the constant to 1e-11 relative
    (the inverse search stops at 1e-12) and the margin to 1e-12 of A(c t) at
    the witness: the array and the scalar evaluations differ in the last
    bits.  Constants that far apart move A(c t) by more than that bound, so
    the ass2 and assD references take their margin at ``got``'s constant
    (``margin_at``); the orthotropic one keeps its per-component constants,
    which the verdict does not carry.  A worst margin within the bound of
    zero is a tie over the grid (lhs = A(c t) up to rounding), and rounding
    picks its first point, so there the witness may move."""
    assert (got.holds, got.grid, got.note, got.analytic, got.indeterminate) == \
        (ref.holds, ref.grid, ref.note, ref.analytic, ref.indeterminate)
    assert got.constant == ref.constant or math.isclose(got.constant, ref.constant,
                                                        rel_tol=1e-11)
    t = ref.witness[1] if isinstance(ref.witness, tuple) else ref.witness
    if not isinstance(t, float) or not math.isfinite(ref.worst_margin):
        assert (got.witness, got.worst_margin) == (ref.witness, ref.worst_margin)
        return
    tol = 1e-12 * a(got.constant * t)
    assert abs(got.worst_margin - ref.worst_margin) <= tol
    assert got.witness == ref.witness or abs(ref.worst_margin) <= tol


def black_box(t):
    return t ** 1.3 * math.log1p(t)


BLACK_BOX_POWERS = st.floats(1.0, 3.0).map(
    lambda p: oz.Custom(lambda t: t ** p, label="black box"))


TARGETS = st.one_of(
    st.builds(oz.Power, st.floats(1.0, 2.5)),
    st.builds(oz.PowerLog, st.floats(1.0, 2.5), st.floats(0.0, 1.5)),
    st.just(oz.Custom(black_box, label="black box")),
)
ENVELOPES = st.one_of(
    st.just(oz.Envelope.one()),
    st.builds(oz.Envelope.power, st.floats(0.0, 1.5)),
    st.builds(oz.Envelope.power, st.floats(0.0, 1.5), st.floats(0.0, 1.5),
              st.sampled_from(["log", "loglog"])),
    st.builds(oz.Envelope.log_power, st.floats(0.0, 2.0)),
    st.builds(oz.Envelope.exp_power, st.floats(0.1, 1.0)),
)
ASS2_SOURCES = [(oz.Power(1.5), 2), (oz.Power(2), 3), (oz.PowerLog(2, 0.5), 3),
                (oz.PowerLogLog(2, 1), 3),
                (oz.Custom(lambda t: t * t, zero=oz.GrowthOrder(2.0), label="sq"), 3)]


@functools.lru_cache(maxsize=None)
def ass2_conjugate(j):
    return oz.sobolev_conjugate(*ASS2_SOURCES[j])


class TestGridProbesMatchPointLoops:
    @settings(max_examples=25, deadline=None)
    @given(j=st.integers(0, len(ASS2_SOURCES) - 1), b=TARGETS, env=ENVELOPES,
           t0=st.sampled_from([0.0, 1.0, 50.0, 3e3, 2e4, 5e5]))
    # constants 5e-13 relative apart, whose margins differ by 2e-12 of A(c t)
    @example(j=3, b=oz.Power(1.5), env=oz.Envelope.power(0.653673293310268), t0=1.0)
    def test_ass2_grid(self, j, b, env, t0):
        a, n = ASS2_SOURCES[j]
        got = _ass2_grid(a, b, env, n, t0, conj=ass2_conjugate(j))
        assert_matches_reference(got, ref_ass2_grid(a, b, env, n, t0, ass2_conjugate(j),
                                                    margin_at=got.constant), a)

    @settings(max_examples=25, deadline=None)
    @given(a=st.one_of(st.builds(oz.Power, st.floats(1.0, 3.0)),
                       st.builds(oz.PowerLog, st.floats(1.0, 3.0), st.floats(0.0, 1.5)),
                       st.just(oz.Custom(lambda t: t * t * (1 + t), label="black box"))),
           b=TARGETS, env=ENVELOPES.filter(lambda e: e.kind != "exp_power"),
           f=st.one_of(st.builds(oz.Power, st.floats(1.0, 3.0)),
                       st.builds(oz.PowerLog, st.floats(1.0, 3.0), st.floats(0.0, 1.5)),
                       st.just(oz.Custom(lambda t: t ** 2.5, label="black box"))),
           t1=st.sampled_from([1.0, 0.3, 5.0]))
    def test_assd_grid(self, a, b, env, f, t1):
        got = _assd_grid(a, b, env, f, t1)
        assert_matches_reference(got, ref_assd_grid(a, b, env, f, t1, margin_at=got.constant), a)

    @settings(max_examples=40, deadline=None)
    @given(f=st.one_of(st.builds(oz.Power, st.floats(1.0, 3.0)),
                       st.builds(oz.PowerLog, st.floats(1.0, 3.0), st.floats(-1.0, 1.5)),
                       st.just(oz.Exp(1.0)), BLACK_BOX_POWERS,
                       st.just(oz.Custom(lambda t: t * t * (1.5 + math.sin(1.0 / t)),
                                         label="black box"))),
           a=st.one_of(BLACK_BOX_POWERS, st.floats(1.0, 3.0).map(
               lambda p: oz.Custom(lambda t: t ** p * (2.0 + math.sin(math.log(t))),
                                   label="black box"))))
    def test_limsup_probe(self, f, a):
        got = _limsup_probe(f, a)
        ref = ref_limsup_probe(f, a)
        assert (got.holds, got.witness, got.grid, got.analytic, got.indeterminate) == \
            (ref.holds, ref.witness, ref.grid, ref.analytic, ref.indeterminate)
        assert got.worst_margin == ref.worst_margin or math.isclose(
            got.worst_margin, ref.worst_margin, rel_tol=1e-12)
        if got.note.startswith("sup ratio"):
            assert float(got.note.split()[-1]) == pytest.approx(ref.worst_margin, rel=1e-5)
        else:
            assert got.note == ref.note

    @settings(max_examples=5, deadline=None)
    @given(ps=st.lists(st.floats(1.2, 1.9), min_size=2, max_size=2),
           bs=st.lists(TARGETS, min_size=2, max_size=2),
           env=st.one_of(st.builds(oz.Envelope.log_power, st.floats(0.0, 2.0, exclude_min=True)),
                         st.builds(oz.Envelope.power, st.floats(0.0, 1.0),
                                   st.floats(0.5, 1.5))))
    def test_ortho_grid(self, ps, bs, env):
        a_list = [oz.Power(p) for p in ps]
        got = oz.check_ortho(a_list, bs, env, 2)
        assert_matches_reference(got, ref_ortho_grid(a_list, bs, env, 2),
                                 oz.orthotropic_bar(a_list))


# ---------------------------------------------------------------------------
# Frozen analytic verdicts
# ---------------------------------------------------------------------------

VERDICTS = pathlib.Path(__file__).parent / "golden" / "condition_verdicts.json"


def _envelopes(n):
    """Every envelope shape: the bare kinds, both log corrections, and exp
    envelopes below, at and above the critical exponents n/(n-1) and
    n/(n-1-alpha); 2(1 + 9e-13) is within the classifier's 1e-12 of the
    critical 2 at n = 2 but past the published row's bound."""
    nprime = n / (n - 1.0)
    exps = sorted({0.5, 1.0, nprime, n / (n - 1.5), 2.5, 2.0 * (1.0 + 9e-13)})
    return ([oz.Envelope.one(), oz.Envelope.custom(lambda t: 1.0 + t)]
            + [oz.Envelope.power(r) for r in (0.0, 0.5, 1.0)]
            + [oz.Envelope.power(r, g, s) for r, g in ((0.0, 1.0), (1.0, 1.0), (1.0, -1.0))
               for s in ("log", "loglog")]
            + [oz.Envelope.log_power(r) for r in (0.0, 0.5)]
            + [oz.Envelope.exp_power(a) for a in exps]
            + [oz.Envelope.exp_power(a, le) for a, le in ((1.0, 0.5), (nprime, -1.0), (nprime, 0.5))]
            + [oz.Envelope.exp_exp(a) for a in sorted({0.3, 0.5, 1.0, 2.0, nprime})])


def _key(x):
    """A short text form of a Young function or an envelope."""
    if isinstance(x, oz.Custom) or x.kind == "custom":
        return getattr(x, "label", "custom")
    record = x.to_config() if isinstance(x, oz.YoungFunction) else x.params
    return x.kind + ":" + ",".join(str(v) for k, v in record.items() if k != "kind")


def _plain(effect):
    """An ``_env_on`` result with its triple as floats; a zero exponent's sign
    carries no meaning, so -0.0 reads 0.0."""
    if effect is None or effect[0] != "triple":
        return effect and list(effect)
    t = effect[1]
    return ["triple", t.power + 0.0, t.log_exp + 0.0, t.loglog_exp + 0.0]


def _fields(row):
    """A verdict or table row as the list of its field values."""
    return [v if isinstance(v, (bool, str, type(None))) else repr(v)
            for v in dataclasses.astuple(row)]


def verdicts_text(table: dict) -> str:
    """A verdict table as JSON text, one entry a line in key order."""
    return "{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                               for k, v in sorted(table.items())) + "\n}\n"


def frozen_verdicts() -> dict:
    """The exponent-algebra verdicts of ``_env_on``, ``_ass2_analytic``,
    ``_assd_analytic``, the closed-form rows of ``check_ortho`` and
    ``zygmund_table``, keyed by their inputs; tests/golden/condition_verdicts.json
    holds ``verdicts_text(frozen_verdicts())``."""
    out = {}
    for n in (2, 3):
        envs = _envelopes(n)
        sources = [oz.Power(1.5), oz.Power(n), oz.Power(n + 1), oz.PowerLog(1.5, 1),
                   oz.PowerLog(n, 0.5), oz.PowerLog(n, n - 1), oz.PowerLog(n, n),
                   oz.PowerLogLog(1.5, 1), oz.PowerLogLog(n, 1), oz.PowerLogLog(n, -1)]
        targets = [oz.Power(1.2), oz.Power(n - 0.5), oz.Power(n), oz.Power(n + 0.5),
                   oz.PowerLog(1.2, 1), oz.PowerLog(n, 0.5), oz.PowerLog(n, n - 1),
                   oz.PowerLogLog(1.2, 1), oz.PowerLogLog(n, 1), oz.PowerLogLog(n, -1)]
        for env in envs:
            for a in sources:
                for b in targets:
                    got = _ass2_analytic(a, b, env, n)
                    out[f"ass2 {n} {_key(a)} {_key(b)} {_key(env)}"] = \
                        got and [got[0], repr(got[1]), got[2]]
            both = oz.Custom(lambda t: t * t, inf_=oz.GrowthOrder(n, 1.0, 1.0),
                             label="log and loglog")
            for a, b in ((oz.Custom(lambda t: t * t, label="no orders"), oz.Power(1.2)),
                         (both, oz.Power(1.2)), (oz.Power(n), both)):
                out[f"ass2 {n} {_key(a)} {_key(b)} {_key(env)}"] = _ass2_analytic(a, b, env, n)
            for h in ((0.5, -0.5, 0.0), (-0.5, 0.0, 0.0), (0.0, 0.5, 0.0), (0.0, -0.5, 0.0),
                      (0.0, 0.5, -0.5), (0.0, 0.0, 0.5), (0.0, 0.0, -0.5), (0.0, 0.0, 0.0)):
                out[f"env_on {n} {h} {_key(env)}"] = _plain(_env_on(env, oz.GrowthOrder(*h), n))
        ortho = [[n] * n, [n + 1] * n, [n - 0.5] * n, [1.5, 3] if n == 2 else [2, 3, 6],
                 [1.2, 1.8] if n == 2 else [2, 2.5, 2]]
        qs = [[q] * n for q in (1.2, n - 0.5, n, n + 0.5)] + [[1.0] + [n + 0.5] * (n - 1)]
        for env in envs:
            shape = env.shape
            if shape is None or shape.levels > 1 or not (shape.levels or shape.gamma == 0.0):
                continue  # the other envelopes take the grid
            for ps in ortho:
                for q in qs:
                    v = oz.check_ortho([oz.Power(p) for p in ps], [oz.Power(x) for x in q], env, n)
                    out[f"ortho {n} {ps} {q} {_key(env)}"] = _fields(v)
        for variant in ("log", "loglog"):
            for p in (1.0, 1.5, n, n + 1):
                for alpha in sorted({-1.0, 0.0, 0.5, n - 1, n - 0.5}):
                    if p == 1 and alpha < 0:
                        continue
                    for env in envs:
                        out[f"zygmund {variant} {n} {p} {alpha} {_key(env)}"] = \
                            _fields(oz.zygmund_table(p, alpha, n, env, variant))[4:]
    zero = [oz.Power(2), oz.PowerLog(2, 1), oz.ExpNegInv(1), oz.ExpNegInv(2),
            oz.Custom(lambda t: t * t, label="no orders"),
            oz.Custom(lambda t: t * t, zero=oz.GrowthOrder(2.0, 1.0), label="log at zero"),
            oz.Custom(lambda t: 0.0, zero=oz.GrowthOrder(0.0, family="flat"), label="flat")]
    for env in (oz.Envelope.one(), oz.Envelope.power(0.5), oz.Envelope.power(1.0, 1.0),
                oz.Envelope.log_power(0.0), oz.Envelope.exp_power(1.0)):
        for a in zero:
            for b in zero:
                for f in zero:
                    got = _assd_analytic(a, b, env, f)
                    out[f"assD {_key(a)} {_key(b)} {_key(env)} {_key(f)}"] = \
                        got and [got[0], repr(got[1]), got[2]]
    return out


def test_frozen_verdicts():
    golden = json.loads(VERDICTS.read_text())
    got = json.loads(json.dumps(frozen_verdicts()))
    assert sorted(got) == sorted(golden)
    assert {k: (golden[k], v) for k, v in got.items() if golden[k] != v} == {}


# an envelope's ``_key``: a power envelope's key alone ends in its ``second``,
# which tells it from a Young power's "power:p"
ENVELOPE_KEY = re.compile(r"(?<!\S)(one:|power:\S+,(?:log|loglog)|log_power:\S+"
                          r"|exp_power:\S+|exp_exp:\S+|custom)(?!\S)")


def _envelope_of(key: str) -> oz.Envelope:
    """The envelope an ``_envelopes`` key names."""
    head, _, second = key.rpartition(",")
    if second in ("log", "loglog"):
        return parse_envelope(dict(parse_envelope(head).params, kind="power", second=second))
    return parse_envelope(key)


def test_one_shape_one_verdict():
    """Envelopes of one shape are one function, so every frozen entry that
    differs from another only in its envelope's spelling (``one``,
    ``power:0`` and ``log_power:0``; ``log_power:g`` and ``power:0,g``) has
    its verdict, save the ``envelope_kind`` label of a table row."""
    groups = {}
    for key, verdict in json.loads(VERDICTS.read_text()).items():
        (token,) = ENVELOPE_KEY.findall(key)
        shape = _envelope_of(token).shape if token != "custom" else token
        if key.startswith("zygmund"):
            verdict = verdict[1:]  # fields from envelope_kind on
        groups.setdefault(ENVELOPE_KEY.sub(repr(shape), key), {})[token] = verdict
    split = {k: g for k, g in groups.items() if len(set(map(json.dumps, g.values()))) > 1}
    assert split == {}
