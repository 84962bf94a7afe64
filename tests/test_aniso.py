"""Vector Young functions: reduction, rearrangement, conjugates, theta."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orlicz as oz
from orlicz import aniso, young
from orlicz.aniso import _OMEGA, _half_sphere_rule, _phi_circ_young, _polar_volumes
from orlicz.young import INF, GrowthOrder, Piecewise, _numeric_inverse


def dirichlet_volume(ps, level: float) -> float:
    # Dirichlet: |{sum |x_i|^p_i <= t}| = 2^n prod Gamma(1+1/p_i) t^e / Gamma(1+e),
    # e = sum 1/p_i
    e = sum(1.0 / p for p in ps)
    unit = 2.0 ** len(ps) * math.prod(math.gamma(1 + 1 / p) for p in ps) / math.gamma(1 + e)
    return unit * level ** e


def pball_volume(p: float, n: int, level: float) -> float:
    return dirichlet_volume([p] * n, level)


def rotation(angles) -> np.ndarray:
    """A rotation of the plane (one angle) or of space (three Euler angles)."""
    def plane(a, i, j, n):
        r = np.eye(n)
        r[i, i] = r[j, j] = math.cos(a)
        r[i, j], r[j, i] = -math.sin(a), math.sin(a)
        return r
    if len(angles) == 1:
        return plane(angles[0], 0, 1, 2)
    a, b, c = angles
    return plane(a, 0, 1, 3) @ plane(b, 1, 2, 3) @ plane(c, 0, 1, 3)


def ref_sublevel_volume(phi, level, max_depth=12, rel_tol=1e-3):
    """The polar ``sublevel_volume`` as one level at a time with one scalar
    root search per ray, as it was before the batched searches."""
    n = phi.n

    def extents(dirs):
        rho = np.array([_numeric_inverse(lambda s: phi(s * d), level) for d in dirs])
        if np.any(rho > 1e10):
            raise oz.YoungError("sublevel set is unbounded at this level")
        return rho

    axes = extents(np.eye(n))
    scale, q, err, last = float(np.prod(axes)), None, INF, INF
    for depth in range(max_depth + 1):
        dirs, w = _half_sphere_rule(n, 2 << depth)
        prev, q = q, scale * float(w @ extents(dirs * axes) ** n)
        if prev is not None:
            diff = abs(q - prev)
            err = max(last, diff) + n * 1e-12 * q
            if err <= rel_tol * q:
                break
            last = diff
    return q, err


def ellipse_image(angles, stretch):
    """{|M x|^2 <= t} for M a stretch of a rotation: no symmetry about the
    coordinate planes."""
    return oz.LinearImage(((np.diag(stretch) @ rotation(angles), oz.Power(2)),), len(stretch))


class TestBar:
    def test_bar_p_exact(self):
        assert oz.bar_p([1, 4]) == 1.6
        assert oz.bar_p([2, 2, 2]) == 2.0
        assert oz.bar_p([3.0, 3.0]) == 3.0

    def test_geometric_mean_exponent(self):
        # oracle: inverse exponent is the average of the 1/p_i
        bar = oz.orthotropic_bar([oz.Power(1), oz.Power(4)])
        for t in (0.5, 2.0, 16.0):
            assert bar.inverse(t) == pytest.approx(t ** ((1 + 0.25) / 2), rel=1e-9)
        assert bar(2.0) == pytest.approx(2.0 ** 1.6, rel=1e-9)

    def test_inverse_at_zero(self):
        bar = oz.orthotropic_bar([oz.Power(2), oz.Power(3)])
        assert bar.inverse(0.0) == 0.0

    def test_equal_components_identity(self):
        bar = oz.orthotropic_bar([oz.Power(2)] * 3)
        v = oz.equivalent(bar, oz.Power(2), oz.Regime.everywhere())
        assert v.equivalent and v.constant <= 1.0 + 1e-3

    def test_degenerate_component_rejected(self):
        dead = oz.Custom(lambda t: 0.0, label="dead")
        with pytest.raises(oz.YoungError):
            oz.orthotropic_bar([oz.Power(2), dead])

    def test_built_once_per_orthotropic(self):
        phi = oz.Orthotropic((oz.Power(1.5), oz.Power(1.8)))
        bar = phi.scalar_profile()
        assert phi.scalar_profile() is bar
        assert oz.phi_circ(phi, 2.0) == bar.inverse(2.0)
        # a degenerate component still fails on use, not at construction
        lazy = oz.Orthotropic((oz.Power(2), oz.Custom(lambda t: 0.0, label="dead")))
        with pytest.raises(oz.YoungError):
            lazy.scalar_profile()


class TestVolume:
    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
    def test_pball_grid(self, p):
        phi = oz.Orthotropic((oz.Power(p), oz.Power(p)))
        vol, err = oz.sublevel_volume(phi, 1.0)
        assert vol == pytest.approx(pball_volume(p, 2, 1.0), rel=1.5e-3)

    def test_monte_carlo(self):
        phi = oz.Orthotropic((oz.Power(2), oz.Power(2)))
        vol, se = oz.sublevel_volume(phi, 1.0, method="mc", mc_samples=200_000,
                                     seed=3)
        assert abs(vol - math.pi) <= 5 * se

    def test_three_dimensional(self):
        phi = oz.Isotropic(oz.Power(2), 3)
        vol, err = oz.sublevel_volume(phi, 1.0, max_depth=6)
        assert vol == pytest.approx(4 * math.pi / 3, rel=6e-2)
        assert abs(vol - 4 * math.pi / 3) <= 1.5 * err + 1e-12

    def test_unbounded_sublevel_rejected(self):
        flat = oz.BlackBox(lambda xi: xi[0] ** 2, 2)  # no growth along x2
        with pytest.raises(oz.YoungError):
            oz.sublevel_volume(flat, 1.0)

    def test_unknown_method_rejected(self):
        disc = oz.Isotropic(oz.Power(2), 2)
        with pytest.raises(oz.YoungError, match="definitely-not-a-method"):
            oz.sublevel_volume(disc, 1.0, method="definitely-not-a-method")
        assert oz.sublevel_volume(disc, 1.0, method="polar") == oz.sublevel_volume(disc, 1.0)

    @settings(max_examples=40, deadline=None)
    @given(ps=st.lists(st.floats(1.0, 6.0), min_size=2, max_size=2),
           log_level=st.floats(-2.0, 3.0), rel_tol=st.sampled_from([1e-2, 1e-3, 1e-5]))
    def test_orthotropic_pairs(self, ps, log_level, rel_tol):
        self.check_orthotropic(ps, 10.0 ** log_level, rel_tol)

    @settings(max_examples=8, deadline=None)
    @given(ps=st.lists(st.floats(1.0, 6.0), min_size=3, max_size=3),
           log_level=st.floats(-2.0, 3.0), rel_tol=st.sampled_from([1e-2, 1e-3]))
    def test_orthotropic_triples(self, ps, log_level, rel_tol):
        self.check_orthotropic(ps, 10.0 ** log_level, rel_tol)

    @staticmethod
    def check_orthotropic(ps, level, rel_tol):
        phi = oz.Orthotropic(tuple(oz.Power(p) for p in ps))
        vol, err = oz.sublevel_volume(phi, level, rel_tol=rel_tol)
        assert abs(vol - dirichlet_volume(ps, level)) <= err <= rel_tol * vol

    @settings(max_examples=25, deadline=None)
    @given(angle=st.floats(0.0, math.pi),
           stretch=st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
           log_level=st.floats(-2.0, 3.0))
    def test_ellipse_oracle(self, angle, stretch, log_level):
        self.check_ellipse(np.diag(stretch) @ rotation([angle]), 10.0 ** log_level)

    @settings(max_examples=5, deadline=None)
    @given(angles=st.tuples(st.floats(0.0, math.pi), st.floats(0.0, math.pi),
                            st.floats(0.0, math.pi)),
           stretch=st.tuples(st.floats(0.7, 1.4), st.floats(0.7, 1.4), st.floats(0.7, 1.4)),
           log_level=st.floats(-2.0, 3.0))
    def test_ellipsoid_oracle(self, angles, stretch, log_level):
        self.check_ellipse(np.diag(stretch) @ rotation(angles), 10.0 ** log_level)

    @staticmethod
    def check_ellipse(m, level):
        # {|M x|^2 <= t} has volume omega_n t^(n/2) / |det M|; a rotated
        # ellipse has no symmetry about the coordinate planes
        n = len(m)
        phi = oz.LinearImage(((m, oz.Power(2)),), n)
        vol, err = oz.sublevel_volume(phi, level)
        exact = _OMEGA[n] * level ** (n / 2) / abs(np.linalg.det(m))
        assert abs(vol - exact) <= err <= 1e-3 * vol

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("rel_tol", [1e-3, 1e-9])
    def test_exact_ball(self, n, rel_tol):
        for level in (1.0, 7.0):
            vol, err = oz.sublevel_volume(oz.Isotropic(oz.Power(2), n), level,
                                          rel_tol=rel_tol)
            exact = _OMEGA[n] * level ** (n / 2)
            assert abs(vol - exact) <= err <= rel_tol * vol

    def test_depth_cap_reports_its_error(self):
        ps = (1.3, 5.0, 2.2)
        phi = oz.Orthotropic(tuple(oz.Power(p) for p in ps))
        for depth in (0, 1, 2):
            vol, err = oz.sublevel_volume(phi, 1.0, max_depth=depth, rel_tol=1e-9)
            assert err > 1e-9 * vol
            assert abs(vol - dirichlet_volume(ps, 1.0)) <= err
            # every level of a table stops at the cap alike
            vols, errs = _polar_volumes(phi, [0.5, 1.0], depth, 1e-9)
            assert (float(vols[1]), float(errs[1])) == (vol, err)
            assert errs[0] > 1e-9 * vols[0]

    def test_unbounded_level_in_a_table_rejected(self):
        flat = oz.BlackBox(lambda xi: xi[0] ** 2, 2)  # no growth along x2
        with pytest.raises(oz.YoungError, match="unbounded"):
            _phi_circ_young(flat, points=5)


class TestBatchedVolumes:
    """The batched volume route against the per-ray loop it replaced."""

    @staticmethod
    def check_against_reference(phi, levels, rel_tol=1e-3):
        # each ray extent is placed to the root finder's 1e-12, so a volume
        # is fixed to n 1e-12 of itself (the term its error carries for
        # this), and an error, a difference of two volumes, to twice that
        n = phi.n
        vols, errs = _polar_volumes(phi, levels, 12, rel_tol)
        for level, vol, err in zip(levels, vols.tolist(), errs.tolist()):
            ref_vol, ref_err = ref_sublevel_volume(phi, level, rel_tol=rel_tol)
            assert abs(vol - ref_vol) <= n * 1e-12 * ref_vol
            assert abs(err - ref_err) <= 2 * n * 1e-12 * ref_vol
            # a level's volume does not depend on the levels beside it
            assert oz.sublevel_volume(phi, level, rel_tol=rel_tol) == (vol, err)

    @settings(max_examples=30, deadline=None)
    @given(ps=st.lists(st.floats(1.0, 6.0), min_size=2, max_size=2),
           log_levels=st.lists(st.floats(-2.0, 3.0), min_size=1, max_size=4),
           rel_tol=st.sampled_from([1e-2, 1e-3, 1e-5]))
    def test_orthotropic_pairs(self, ps, log_levels, rel_tol):
        phi = oz.Orthotropic(tuple(oz.Power(p) for p in ps))
        self.check_against_reference(phi, [10.0 ** e for e in log_levels], rel_tol)

    @settings(max_examples=6, deadline=None)
    @given(ps=st.lists(st.floats(1.0, 6.0), min_size=3, max_size=3),
           log_levels=st.lists(st.floats(-2.0, 3.0), min_size=1, max_size=2),
           rel_tol=st.sampled_from([1e-2, 1e-3]))
    def test_orthotropic_triples(self, ps, log_levels, rel_tol):
        phi = oz.Orthotropic(tuple(oz.Power(p) for p in ps))
        self.check_against_reference(phi, [10.0 ** e for e in log_levels], rel_tol)

    @settings(max_examples=15, deadline=None)
    @given(angle=st.floats(0.0, math.pi),
           stretch=st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
           log_levels=st.lists(st.floats(-2.0, 3.0), min_size=1, max_size=3))
    def test_linear_image(self, angle, stretch, log_levels):
        self.check_against_reference(ellipse_image([angle], stretch),
                                     [10.0 ** e for e in log_levels])

    def test_zero_and_negative_levels(self):
        phi = oz.Orthotropic((oz.Power(2), oz.Power(3)))
        vols, errs = _polar_volumes(phi, [0.0, -1.0, 2.0], 12, 1e-3)
        assert vols[:2].tolist() == errs[:2].tolist() == [0.0, 0.0]
        assert (float(vols[2]), float(errs[2])) == oz.sublevel_volume(phi, 2.0)

    def test_volume_route_3d_work_count(self, monkeypatch):
        # the library defaults: 25 levels, max_depth 12; every ray of every
        # level is found by the array search, one call per rule doubling
        calls = []
        real = young._log_root_many

        def many(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        def scalar(*args, **kwargs):
            raise AssertionError("the volume route made a scalar root search")

        for module in (young, aniso):
            monkeypatch.setattr(module, "_log_root_many", many)
            monkeypatch.setattr(module, "_log_root", scalar)
        oz.phi_n(oz.Orthotropic((oz.Power(1.5), oz.Power(2), oz.Power(3))), method="volume")
        assert 0 < len(calls) <= 12 + 2

    def test_scalar_only_phi_is_evaluated_row_by_row(self):
        # an object with only n and __call__ (a counting wrapper, say)
        phi = oz.Orthotropic((oz.Power(1.5), oz.Power(2.5)))

        class Plain:
            n = 2

            def __call__(self, xi):
                return phi(xi)

        (vol, err), (ref, ref_err) = (oz.sublevel_volume(f, 2.0) for f in (Plain(), phi))
        assert abs(vol - ref) <= 2e-12 * ref and abs(err - ref_err) <= 4e-12 * ref
        vol, se = oz.sublevel_volume(Plain(), 2.0, method="mc", mc_samples=20_000)
        assert abs(vol - ref) <= 5 * se

    def test_rule_is_cached_and_read_only(self):
        dirs, w = _half_sphere_rule(3, 8)
        assert _half_sphere_rule(3, 8)[0] is dirs
        with pytest.raises(ValueError):
            w[0] = 0.0


class TestPhiCirc:
    def test_isotropic_is_inverse(self):
        phi = oz.Isotropic(oz.PowerLog(2, 1), 2)
        for t in (0.1, 1.0, 30.0):
            assert oz.phi_circ(phi, t) == pytest.approx(
                oz.PowerLog(2, 1).inverse(t), rel=1e-9)

    def test_zero_level(self):
        assert oz.phi_circ(oz.Isotropic(oz.Power(2), 2), 0.0) == 0.0
        assert oz.phi_circ(oz.Orthotropic((oz.Power(2), oz.Power(3))), 0.0) == 0.0

    def test_orthotropic_volume_agreement(self):
        # measure rearrangement of the p-ball against the reduced function;
        # the two differ by a bounded factor only
        for p in (1.0, 2.0, 4.0):
            phi = oz.Orthotropic((oz.Power(p), oz.Power(p)))
            for t in (1.0, 5.0):
                direct = oz.phi_circ(phi, t, method="volume", max_depth=10)
                reduced = oz.phi_circ(phi, t)
                expect = (pball_volume(p, 2, t) / math.pi) ** 0.5
                assert direct == pytest.approx(expect, rel=5e-3)
                assert 0.5 <= direct / reduced <= 2.0

    def test_non_decreasing(self):
        phi = oz.Orthotropic((oz.Power(2), oz.Power(4)))
        ts = np.geomspace(1e-2, 1e2, 21)
        vals = [oz.phi_circ(phi, float(t)) for t in ts]
        assert all(vals[i] <= vals[i + 1] for i in range(len(vals) - 1))


class TestPhiN:
    def test_orthotropic_exponent(self):
        # bar exponent oracle: 1/pbar = mean(1/p_i); conjugate exponent
        # n pbar / (n - pbar)
        phi = oz.Orthotropic((oz.Power(1), oz.Power(4)))
        conj = oz.phi_n(phi)
        pbar = oz.bar_p([1, 4])
        expect = 2 * pbar / (2 - pbar)
        lo, hi = conj.an_value(1e2), conj.an_value(1e6)
        slope = (math.log(hi) - math.log(lo)) / (4 * math.log(10))
        assert slope == pytest.approx(expect, abs=1e-3)

    def test_equal_components_match_isotropic(self):
        iso = oz.phi_n(oz.Isotropic(oz.Power(2), 3))
        orth = oz.phi_n(oz.Orthotropic((oz.Power(2),) * 3))
        for t in np.geomspace(1e-1, 1e2, 9):
            assert orth.an_value(float(t)) == pytest.approx(
                iso.an_value(float(t)), rel=1e-5)

    def test_isotropic_reduces_to_scalar(self):
        direct = oz.sobolev_conjugate(oz.Power(2), 2)
        via = oz.phi_n(oz.Isotropic(oz.Power(2), 2))
        assert via.an_value(3.0) == pytest.approx(direct.an_value(3.0), rel=1e-12)

    def test_volume_route_equivalent(self):
        # direct sublevel volumes against the geometric-mean reduction
        phi = oz.Orthotropic((oz.Power(2), oz.Power(4)))
        vol_conj = oz.phi_n(phi, method="volume", max_depth=9, rel_tol=5e-3,
                            points=17, t_lo=1e-2, t_hi=1e3)
        bar_conj = oz.phi_n(phi)
        v = oz.equivalent(
            oz.Custom(lambda t: vol_conj.an_value(t), label="volume-route"),
            oz.Custom(lambda t: bar_conj.an_value(t), label="reduced-route"),
            oz.Regime.everywhere(), c_max=1e3)
        assert v.equivalent and v.constant <= 4.0

    def test_volume_route_3d_defaults(self):
        # library defaults: 25 volumes over [1e-3, 1e4] at rel_tol 1e-3
        phi = oz.Orthotropic((oz.Power(1.5), oz.Power(2), oz.Power(3)))
        vol_conj = oz.phi_n(phi, method="volume")
        bar_conj = oz.phi_n(phi)
        v = oz.equivalent(
            oz.Custom(lambda t: vol_conj.an_value(t), label="volume-route"),
            oz.Custom(lambda t: bar_conj.an_value(t), label="reduced-route"),
            oz.Regime.everywhere(), c_max=1e3)
        assert v.equivalent and v.constant <= 4.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(oz.YoungError):
            oz.phi_n(oz.Isotropic(oz.Power(2), 2), 3)


class TestVectorYoungShape:
    def vector_corpus(self):
        return [
            oz.Isotropic(oz.Power(2), 2),
            oz.Orthotropic((oz.Power(1.5), oz.Power(3))),
            oz.LinearImage(((np.array([[1.0, -1.0], [0.0, 1.0]]), oz.Power(2)),),
                           n=2),
        ]

    def test_origin_even_and_growth(self):
        rng = np.random.default_rng(5)
        for phi in self.vector_corpus():
            assert phi(np.zeros(phi.n)) == 0.0
            for _ in range(16):
                xi = rng.normal(size=phi.n) * 3.0
                assert phi(xi) == pytest.approx(phi(-xi), rel=1e-12)
            d = rng.normal(size=phi.n)
            d /= np.linalg.norm(d)
            assert phi(1e6 * d) > 1e6

    def test_convexity_on_random_segments(self):
        rng = np.random.default_rng(6)
        for phi in self.vector_corpus():
            for _ in range(64):
                a = rng.normal(size=phi.n) * 10 ** rng.uniform(-1, 1)
                b = rng.normal(size=phi.n) * 10 ** rng.uniform(-1, 1)
                mid = phi(0.5 * (a + b))
                assert mid <= 0.5 * (phi(a) + phi(b)) + 1e-9 * (1 + phi(b))

    def test_nondegeneracy_probe(self):
        for phi in self.vector_corpus():
            assert phi.nondegenerate()
        assert not oz.Orthotropic((oz.Power(2), oz.gate(1.0))).nondegenerate()


class TestTheta:
    def test_zero_vector(self):
        solver = oz.ThetaSolver(oz.Isotropic(oz.Power(2), 3),
                                oz.Envelope.power(1.0), 3)
        assert solver.solve(np.zeros(3)) == 0.0

    def test_recover_inversion(self):
        # the scalar reduction satisfies theta^{-1}(s) = H^{-1}(s) E(s);
        # closed form for A = t^2, n = 3: H^{-1}(s) = (s/C)^3 with C = 2^{2/3}
        solver = oz.ThetaSolver(oz.Isotropic(oz.Power(2), 3),
                                oz.Envelope.power(1.0), 3)
        C = (2.0) ** (2.0 / 3.0)
        for s in np.geomspace(0.05, 8.0, 25):
            s = float(s)
            xi = np.array([(s / C) ** 3 * s, 0.0, 0.0])
            assert solver.solve(xi) == pytest.approx(s, rel=1e-6)

    def test_residual_invariant(self):
        rng = np.random.default_rng(11)
        # mean exponent 12/7 stays below the dimension, so the conjugate is
        # strictly increasing to infinity and theta exists
        phi = oz.Orthotropic((oz.Power(1.5), oz.Power(2)))
        env = oz.Envelope.power(0.5)
        solver = oz.ThetaSolver(phi, env, 2)
        for _ in range(100):
            xi = rng.normal(size=2) * 10.0 ** rng.uniform(-2, 2)
            theta = solver.solve(xi)
            lhs = solver.conj.an_value(theta)
            rhs = phi(xi / env(theta))
            assert abs(lhs - rhs) <= 1e-6 * (1.0 + lhs)

    def test_monotone_in_radius(self):
        solver = oz.ThetaSolver(oz.Isotropic(oz.Power(2), 2),
                                oz.Envelope.power(1.0), 2)
        d = np.array([0.6, 0.8])
        thetas = [solver.solve(r * d) for r in (0.1, 1.0, 10.0, 100.0)]
        assert all(thetas[i] <= thetas[i + 1] + 1e-12 for i in range(3))

    def test_saturating_conjugate_rejected(self):
        # p > n gives a finite-level conjugate, no strictly increasing map
        with pytest.raises(oz.YoungError):
            oz.ThetaSolver(oz.Isotropic(oz.Power(3), 2), oz.Envelope.one(), 2)


ENVELOPES = {
    "one": oz.Envelope.one(),
    "power": oz.Envelope.power(1.0),        # zero at 0: the plateau-edge exit
    "log_power": oz.Envelope.log_power(2.0),
}


@functools.lru_cache(maxsize=None)
def iso_solver(env_name: str):
    return oz.ThetaSolver(oz.Isotropic(oz.Power(2), 3), ENVELOPES[env_name], 3)


def solve_error(solve, xi) -> str:
    """The message of the YoungError ``solve(xi)`` raises, without its numbers."""
    with pytest.raises(oz.YoungError) as info:
        solve(xi)
    return str(info.value).split(":")[0]


def ref_theta_solve(solver, xi):
    """The former doubling-and-bisection search of ``ThetaSolver.solve``,
    without its residual check."""
    xi = np.asarray(xi, dtype=float)
    if not np.any(xi):
        return 0.0
    an = solver.conj.an_value

    def rhs(t):
        e = solver.envelope(t)
        return solver.phi(xi / e) if e > 0.0 else INF

    lo = solver._t_pos
    if rhs(lo) <= an(lo) and lo > 0.0:
        return lo
    hi = max(lo, 1.0)
    expansions = 0
    while an(hi) < rhs(hi):
        hi *= 2.0
        expansions += 1
        if expansions > 120:
            raise oz.YoungError(f"failed to bracket the theta root at xi={xi!r}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if an(mid) < rhs(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(hi, 1.0):
            break
    return 0.5 * (lo + hi)


# closed forms for A = t^2, n = 3, where A_n(s) = (s / C)^6 with C = 2^{2/3}:
# theta = C r^{1/3} under E = 1 and C^{3/4} r^{1/4} under E(t) = t, r = |xi|
C_23 = 2.0 ** (2.0 / 3.0)
CLOSED_THETA = {"one": lambda r: C_23 * r ** (1.0 / 3.0),
                "power": lambda r: C_23 ** 0.75 * r ** 0.25}
CRITERION_6_XIS = [np.array([(s / C_23) ** 3 * s, 0.0, 0.0])
                   for s in np.geomspace(0.01, 20.0, 1000).tolist()]


class TestThetaSearch:
    """The root-finder search against the closed form and the bisection it
    replaced."""

    @pytest.mark.parametrize("env_name", sorted(CLOSED_THETA))
    def test_closed_form_down_to_tiny_xi(self, env_name):
        solver = iso_solver(env_name)
        rs = np.geomspace(1e-30, 1e3, 67)
        xis = rs[:, None] * np.array([0.6, 0.0, -0.8])
        want = [CLOSED_THETA[env_name](r) for r in rs.tolist()]
        for xi, w, theta in zip(xis, want, solver.solve_many(xis).tolist()):
            assert solver.solve(xi) == pytest.approx(w, rel=1e-12, abs=0.0)
            assert theta == pytest.approx(w, rel=1e-12, abs=0.0)

    @settings(max_examples=60, deadline=None)
    @given(env_name=st.sampled_from(sorted(ENVELOPES)),
           xi=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
                        st.floats(-1.0, 1.0), st.floats(-4.0, 3.0)))
    def test_matches_bisection(self, env_name, xi):
        solver = iso_solver(env_name)
        xi = np.array(xi[:3]) * 10.0 ** xi[3]
        ref = ref_theta_solve(solver, xi)
        if ref >= 0.01:
            # below theta = 1 the reference stops at 1e-13 absolute
            assert solver.solve(xi) == pytest.approx(ref, rel=1e-12, abs=1e-13)

    def test_level_below_normal_floats_reads_zero(self):
        # Phi(xi) = 1e-316 is subnormal, with too few digits to place a
        # root: both paths read it as 0, and so theta as 0
        solver = iso_solver("one")
        xi = np.array([1e-158, 0.0, 0.0])
        assert solver.solve(xi) == 0.0
        assert solver.solve_many(xi[None]).tolist() == [0.0]

    @pytest.mark.parametrize("env_name", sorted(CLOSED_THETA))
    def test_at_most_12_conjugate_values_per_solve(self, env_name, monkeypatch):
        # criterion 6 solves under E(t) = t; each count includes the
        # residual check and, under E(t) = t, the plateau-edge test
        solver = iso_solver(env_name)
        calls = [0]
        an_value = type(solver.conj).an_value

        def counted(conj, t):
            calls[0] += 1
            return an_value(conj, t)

        monkeypatch.setattr(type(solver.conj), "an_value", counted)
        tiny = [np.array([r, 0.0, 0.0]) for r in (1e-30, 1e-12, 1e3)]
        for xi in CRITERION_6_XIS + tiny:
            calls[0] = 0
            solver.solve(xi)
            assert calls[0] <= 12


class TestThetaMany:
    @settings(max_examples=30, deadline=None)
    @given(env_name=st.sampled_from(sorted(ENVELOPES)),
           rows=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
                                   st.floats(-1.0, 1.0), st.floats(-60.0, 3.0)),
                         min_size=1, max_size=16))
    def test_solve_many_matches_solve(self, env_name, rows):
        solver = iso_solver(env_name)
        xis = np.array([[a, b, c] for a, b, c, _ in rows])
        xis *= np.array([10.0 ** e for *_, e in rows])[:, None]
        for xi, theta in zip(xis, solver.solve_many(xis).tolist()):
            assert theta == pytest.approx(solver.solve(xi), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("xi, most", [((0.0, 0.0, 6e-286), 16), ((0.0, 0.0, 1e-150), 80),
                                          ((1e-12, 0.0, 0.0), 80), ((1.0, 0.0, 0.0), 60)])
    def test_rows_far_below_one_take_few_steps(self, xi, most, monkeypatch):
        # steps of doubling length in log theta reach the float floor, where
        # a level that reads 0 ends, in 11 calls and bracket a root at 1e-50
        # in 8; Illinois steps then close it in a few more, and the residual
        # check makes one call of its own
        solver = iso_solver("one")
        calls = [0]
        rhs_many = oz.ThetaSolver._rhs_many

        def counted(self, xis, ts):
            calls[0] += 1
            return rhs_many(self, xis, ts)

        monkeypatch.setattr(oz.ThetaSolver, "_rhs_many", counted)
        xi = np.array([xi])
        theta = solver.solve_many(xi)[0]
        assert calls[0] <= most
        assert theta == pytest.approx(solver.solve(xi[0]), rel=1e-12, abs=0.0)

    def test_orthotropic_rows(self):
        # Orthotropic.values; any unbounded conjugate will do, and a ready
        # one skips the slow orthotropic table build
        phi = oz.Orthotropic((oz.Power(1.5), oz.Power(2), oz.Power(2.5)))
        solver = oz.ThetaSolver(phi, oz.Envelope.power(0.5), 3,
                                conj=oz.sobolev_conjugate(oz.Power(2), 3))
        xis = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.5, 0.0, 0.0],
                        [-20.0, 3.0, 0.1]])
        for xi, theta in zip(xis, solver.solve_many(xis).tolist()):
            assert theta == pytest.approx(solver.solve(xi), rel=1e-12, abs=0.0)

    def test_saturating_conjugate_raises_the_same_error(self):
        # a gated base: the conjugate stays below 1 and then jumps to +inf,
        # so large xi have no root and fail the residual check
        gated = Piecewise(breaks=(1.0,), branches=(lambda t: t * t, lambda t: INF),
                          jump=1.0, zero=GrowthOrder(2.0),
                          inf_=GrowthOrder(0.0, family="jump"))
        solver = oz.ThetaSolver(oz.Isotropic(oz.Power(2), 3), oz.Envelope.one(), 3)
        solver.conj = oz.sobolev_conjugate(gated, 3)
        xis = np.array([[0.1, 0.0, 0.0], [0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
        assert solve_error(solver.solve_many, xis) == solve_error(solver.solve, xis[2])
        assert "xi=array([2., 0., 0.])" in solve_error(solver.solve_many, xis)

    @pytest.mark.parametrize("decaying", [False, True])
    def test_unbracketed_root_raises_the_same_error(self, decaying):
        # theta = C |xi|^{1/3} = 1.6e40 lies past the bracket limit 2^120;
        # an E decaying faster than Phi_n grows leaves no root at all
        solver = iso_solver("one")
        xi = 1e120
        if decaying:
            solver = oz.ThetaSolver(solver.phi, lambda t: (1.0 + t) ** -10.0, 3,
                                    conj=solver.conj)
            xi = 1.0
        xis = np.array([[0.0, 0.0, 0.0], [xi, 0.0, 0.0]])
        with np.errstate(over="ignore"):
            assert solve_error(solver.solve_many, xis) == solve_error(solver.solve, xis[1])
            assert "failed to bracket" in solve_error(solver.solve, xis[1])

    @settings(max_examples=40, deadline=None)
    @given(kinds=st.lists(st.sampled_from(["power", "power_exp", "power_log", "exp"]),
                          min_size=1, max_size=3),
           rows=st.lists(st.lists(st.one_of(st.floats(-1e3, 1e3),
                                            st.sampled_from([0.0, -0.0, INF, -INF])),
                                  min_size=3, max_size=3),
                         min_size=1, max_size=12))
    def test_orthotropic_values_match_rows(self, kinds, rows):
        make = {"power": lambda: oz.Power(2.5), "power_exp": lambda: oz.PowerExp(1.5),
                "power_log": lambda: oz.PowerLog(2, 1), "exp": lambda: oz.Exp(1.0)}
        phi = oz.Orthotropic(tuple(make[k]() for k in kinds))
        pts = np.array([r[:phi.n] for r in rows])
        got = phi.values(pts)
        for g, want in zip(got.tolist(), [phi(p) for p in pts]):
            assert g == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_isotropic_values_match_rows(self):
        phi = oz.Isotropic(oz.PowerLog(2, 1), 3)
        pts = np.array([[0.0, 0.0, 0.0], [1.0, -2.0, 0.5], [INF, 0.0, 1.0], [3e5, 0.0, 0.0]])
        assert phi.values(pts).tolist() == [phi(p) for p in pts]

    @settings(max_examples=40, deadline=None)
    @given(angles=st.tuples(st.floats(0.0, math.pi), st.floats(0.0, math.pi),
                            st.floats(0.0, math.pi)),
           stretch=st.tuples(st.floats(0.2, 5.0), st.floats(0.2, 5.0), st.floats(0.2, 5.0)),
           kinds=st.lists(st.sampled_from(["power", "power_log"]), min_size=1, max_size=2),
           n=st.sampled_from([2, 3]),
           rows=st.lists(st.lists(st.one_of(st.floats(-1e3, 1e3),
                                            st.sampled_from([0.0, -0.0, INF, -INF])),
                                  min_size=3, max_size=3),
                         min_size=1, max_size=12))
    def test_linear_image_values_match_rows(self, angles, stretch, kinds, n, rows):
        # polynomial growth: an exponential would scale the rounding of the
        # norm, an ulp or so apart in the two forms, by the norm itself
        make = {"power": lambda: oz.Power(2.5), "power_log": lambda: oz.PowerLog(2, 1)}
        m = np.diag(stretch[:n]) @ rotation(angles[:1] if n == 2 else angles)
        phi = oz.LinearImage(tuple((m if i % 2 else m.T, make[k]()) for i, k in enumerate(kinds)),
                             n)
        pts = np.array([r[:n] for r in rows])
        got = phi.values(pts)
        for g, want in zip(got.tolist(), [phi(p) for p in pts]):
            assert g == pytest.approx(want, rel=1e-14, abs=0.0)
