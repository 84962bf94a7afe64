"""Admissibility checkers and the closed-form exponent tables."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orlicz as oz
from orlicz.conditions import _TOL, _ass2_grid, _min_constant
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

    def test_infinite_valued_splitter_rejected(self):
        with pytest.raises(oz.YoungError):
            oz.check_inq_assD(oz.Power(2), oz.Power(2), oz.Envelope.one(),
                              oz.gate(1.0))


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
        rhs_many = oz.ThetaSolver._rhs_many

        def counted(self, xis, ts):
            calls[0] += 1
            return rhs_many(self, xis, ts)

        monkeypatch.setattr(oz.ThetaSolver, "_rhs_many", counted)
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


def ref_min_constant(lhs, ts, a, c_max=1e8):
    """The former bisection of ``_min_constant``."""

    def ok(c):
        for t, l in zip(ts, lhs):
            if l == INF:
                return False
            if l > a(c * float(t)) * (1 + _TOL) + 1e-300:
                return False
        return True

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
    """The root-finder search against the bisection it replaced."""

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
