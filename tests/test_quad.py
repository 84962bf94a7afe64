"""Row-batched quadrature and batch field evaluation against scalar references.

The references here are the scalar forms the batch paths replace: the
per-point field formulas, the recursive panel rule that recomputes each
child's whole panel, and nested integration one outer point at a time.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orlicz as oz
from orlicz import corpus
from orlicz._quad import (G10_W, G15_W, K21_W, K21_X, _kronrod, _panel_sums, gauss15,
                          gauss_legendre, quad_interval, quad_rows, tensor_rule)
from orlicz import modular
from orlicz.modular import (QuadratureError, _integrand, _integrate_rows, _lengths,
                            constant_function, integrate_box)
from orlicz.nemytskii import abs_shift_spec, signed_square_spec, singular_log_field

INF = math.inf


def close(got, want, rel=1e-12):
    """Equal infinities and zeros, otherwise within ``rel`` relative."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    np.testing.assert_array_equal(np.isinf(got), np.isinf(want))
    fin = np.isfinite(want)
    np.testing.assert_allclose(got[fin], want[fin], rtol=rel, atol=1e-300)


def scalar_only(u):
    """The same field without batch forms: values and gradients loop rows."""
    return oz.TestFunction(u.value, u.gradient, u.label)


# ---------------------------------------------------------------------------
# Young functions on arrays
# ---------------------------------------------------------------------------

T_VALUES = st.one_of(st.floats(-50.0, 0.0), st.floats(0.0, 2.0), st.floats(2.0, 1e3),
                     st.floats(1e3, 1e300))


class TestYoungValues:
    @settings(max_examples=60, deadline=None)
    @given(p=st.floats(0.1, 8.0), scale=st.floats(1e-3, 1e3),
           ts=st.lists(T_VALUES, min_size=1, max_size=12))
    def test_power(self, p, scale, ts):
        y = oz.Power(p, scale)
        close(y.values(np.array(ts)), [y(t) for t in ts])

    @settings(max_examples=60, deadline=None)
    @given(p=st.floats(1.0, 6.0), ts=st.lists(T_VALUES, min_size=1, max_size=12))
    def test_power_exp(self, p, ts):
        y = oz.PowerExp(p)
        close(y.values(np.array(ts)), [y(t) for t in ts])

    def test_edges(self):
        ts = np.array([-3.0, -0.0, 0.0, 1e-300, 1.0, 700.0, 708.9, 709.0, 709.5,
                       710.0, 1e5, 1e200, INF])
        for y in (oz.Power(2.0), oz.Power(0.5, 3.0), oz.Power(7.5),
                  oz.PowerExp(1.0), oz.PowerExp(1.8), oz.PowerExp(120.0)):
            close(y.values(ts), [y(float(t)) for t in ts])
        assert oz.PowerExp(1.0).values(np.array([709.5]))[0] == INF
        assert oz.Power(2.0).values(np.array([1e200]))[0] == INF


# ---------------------------------------------------------------------------
# Fields and combinators on point batches
# ---------------------------------------------------------------------------

# the per-point formulas of the library fields
def ref_coordinate(dim, axis=0):
    return oz.TestFunction(lambda x: float(x[axis]),
                           lambda x: np.eye(dim)[axis], "x")


def ref_product_sine(dim):
    def val(x):
        out = 1.0
        for i in range(dim):
            out *= math.sin(math.pi * float(x[i]))
        return out

    def grad(x):
        g = np.zeros(dim)
        for i in range(dim):
            g[i] = math.pi
            for j in range(dim):
                s = float(x[j])
                g[i] *= math.cos(math.pi * s) if j == i else math.sin(math.pi * s)
        return g

    return oz.TestFunction(val, grad, "product_sine")


def ref_bump(center, width, height=1.0):
    c = np.asarray(center, dtype=float)

    def profile(s):
        return 0.0 if s >= 1.0 else math.exp(1.0 - 1.0 / (1.0 - s * s))

    def norm(d):
        # squares summed in axis order: near the support edge the profile
        # turns a last-bit change of |x - c| into ~1e-11 relative
        return math.sqrt(sum(float(v) * float(v) for v in d))

    def val(x):
        return height * profile(norm(np.asarray(x) - c) / width)

    def grad(x):
        d = np.asarray(x, dtype=float) - c
        r = norm(d)
        s = r / width
        if s >= 1.0 or r == 0.0:
            return np.zeros(len(c))
        return height * profile(s) * (-2.0 * s / (1.0 - s * s) ** 2) * d / (r * width)

    return oz.TestFunction(val, grad, "bump")


def ref_singular_log(dim):
    def val(x):
        t = float(x[0])
        return 1.0 + t * (math.log(t) - 1.0) if t > 0 else 1.0

    def grad(x):
        g = np.zeros(dim)
        g[0] = math.log(float(x[0])) if x[0] > 0 else -INF
        return g

    return oz.TestFunction(val, grad, "one_plus_xlogx")


REF_FIELDS = {"x1": ref_coordinate, "product_sine": ref_product_sine,
              "one_plus_xlogx": ref_singular_log,
              "bump": lambda dim: ref_bump([0.5] * dim, 0.45)}


# the per-point combinators
def ref_sub(u, v):
    return oz.TestFunction(lambda x: u.value(x) - v.value(x),
                           lambda x: np.asarray(u.gradient(x)) - np.asarray(v.gradient(x)))


def ref_scaled(u, c):
    return oz.TestFunction(lambda x: c * u.value(x), lambda x: c * np.asarray(u.gradient(x)))


def ref_shifted(u, c):
    return oz.TestFunction(lambda x: u.value(x) + c, u.gradient)


def ref_compose(spec, u):
    return oz.TestFunction(lambda x: spec.f(u.value(x)),
                           lambda x: spec.fprime(u.value(x)) * np.asarray(u.gradient(x)))


def ref_truncate(u, s):
    def val(x):
        v = u.value(x)
        return v - s if v > s else (v + s if v < -s else 0.0)

    def grad(x):
        g = np.asarray(u.gradient(x))
        return g if abs(u.value(x)) >= s else np.zeros_like(g)

    return oz.TestFunction(val, grad)


def points(seed, n, m=40, lo=0.0, hi=1.0):
    rng = np.random.default_rng(seed)
    X = lo + (hi - lo) * rng.random((m, n))
    X[0] = 0.5  # the bump centre and the kink of the tent
    return X


def same_field(u, ref, X, rel=1e-12):
    close(u.values(X), [ref.value(x) for x in X], rel)
    close(u.gradients(X), np.array([ref.gradient(x) for x in X], dtype=float), rel)


def corpus_fields():
    out = [(name, corpus.get_field(name, dim), dim)
           for name in corpus.FIELDS for dim in (1, 2, 3)]
    out += [(f"bump_corpus{n}[{i}]", u, n)
            for n in (1, 2, 3) for i, (u, _) in enumerate(corpus.bump_corpus(n))]
    out += [(f"unit_ball[{u.label}]", u, box.n) for u, box in corpus.unit_ball_corpus()]
    out += [(f"interval[{u.label}]", u, 1) for u, _ in corpus.interval_vanishing_corpus()]
    out += [(f"shifted[{u.label}]", u, 2)
            for u in corpus.shifted_sequence(corpus.product_sine(2), (2, 8),
                                             corpus.SEQUENCES["shift_log"])]
    out.append(("const", constant_function(1.5, 2), 2))
    return out


class TestFieldBatches:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2 ** 31))
    def test_corpus_matches_row_loop(self, seed):
        for name, u, n in corpus_fields():
            same_field(u, scalar_only(u), points(seed, n))

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2 ** 31))
    def test_fields_match_scalar_formulas(self, seed):
        for name in corpus.FIELDS:
            for dim in (1, 2, 3):
                X = points(seed, dim)
                same_field(corpus.get_field(name, dim), REF_FIELDS[name](dim), X)
        for c, w, h in (((0.35, 0.35), 0.30, 2.0), ((0.6,), 0.35, 0.5),
                        ((0.45, 0.45, 0.45), 0.20, 3.0)):
            same_field(corpus.radial_bump(c, w, h), ref_bump(c, w, h), points(seed, len(c)))

    def test_singular_field_at_the_face(self):
        X = np.array([[0.0, 0.5], [1e-300, 0.2], [0.3, 0.1]])
        same_field(singular_log_field(2), ref_singular_log(2), X)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2 ** 31), c=st.floats(-3.0, 3.0),
           s=st.floats(0.05, 0.9))
    def test_combinators_match_row_loop(self, seed, c, s):
        X = points(seed, 2)
        u, ru = corpus.product_sine(2), ref_product_sine(2)
        v, rv = corpus.radial_bump([0.4, 0.5], 0.4, 2.0), ref_bump([0.4, 0.5], 0.4, 2.0)
        pairs = [
            (u - v, ref_sub(ru, rv)),
            (u.scaled(c), ref_scaled(ru, c)),
            (u.shifted(c), ref_shifted(ru, c)),
            (oz.truncate(u - v, s), ref_truncate(ref_sub(ru, rv), s)),
        ]
        for spec in (abs_shift_spec(s), signed_square_spec()):
            pairs.append((oz.compose(spec, u.scaled(c)), ref_compose(spec, ref_scaled(ru, c))))
        for batch, ref in pairs:
            same_field(batch, ref, X)
            # a combinator over scalar-only inputs takes the row loop inside
            same_field(batch, scalar_only(batch), X)

    def test_combinators_over_scalar_fields(self):
        X = points(3, 2)
        ru, rv = ref_product_sine(2), ref_bump([0.4, 0.5], 0.4, 2.0)
        same_field(ru - rv, ref_sub(ru, rv), X)
        same_field(oz.compose(abs_shift_spec(0.2), ru.scaled(2.0)),
                   ref_compose(abs_shift_spec(0.2), ref_scaled(ru, 2.0)), X)
        same_field(oz.truncate(rv, 0.5), ref_truncate(rv, 0.5), X)

    def test_counterexample_sequence(self):
        rep = oz.counterexample_run((8,), (1e-3,), dim=1, lambda_grid=(1.0,))
        u = ref_singular_log(1)
        shifted = ref_shifted(u, (math.log(8) + 1.0) / 8)
        box = oz.BoxDomain.unit(1, singular=((0, "lower"),))
        want = (oz.modular_integral(shifted - u, oz.PowerExp(1.0), 1.0, box)
                + oz.modular_integral_gradient(shifted - u, oz.PowerExp(1.0), 1.0, box))
        assert rep.w_difference.modular_values[0, 0] == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# The row engine against the recursive panel rule
# ---------------------------------------------------------------------------

def ref_panel(f, a, b, x, w):
    """Scalar panel rule: samples one at a time; non-finite samples give
    -inf when they are all -inf, else +inf."""
    h, mid = 0.5 * (b - a), 0.5 * (a + b)
    total, signs = 0.0, set()
    for xi, wi in zip(x, w):
        v = f(mid + h * xi)
        if not math.isfinite(v):
            signs.add(v == -INF)
            continue
        total += wi * v
    if signs:
        return -INF if signs == {True} else INF
    return total * h


def ref_gauss15(f, a, b):
    return ref_panel(f, a, b, *np.polynomial.legendre.leggauss(15))


def ref_kronrod21(f, a, b):
    """The scalar K21 panel and its G10 panel on the odd nodes."""
    return ref_panel(f, a, b, K21_X, K21_W), ref_panel(f, a, b, K21_X[1::2], G10_W)


def ref_add(x, y):
    return INF if math.isinf(x) and math.isinf(y) and x != y else x + y


def ref_quad(f, a, b, rel=1e-10, depth=14, floor=0.0):
    """Recursive bisection of the K21 panel, each panel stopped by its own
    |K21 - G10|."""
    k, g = ref_kronrod21(f, a, b)
    if not math.isfinite(k):
        return k
    if floor == 0.0:
        floor = rel * (abs(k) + 1e-300)
    if abs(k - g) <= rel * abs(k) + floor or depth <= 0:
        return k
    mid = 0.5 * (a + b)
    return ref_add(ref_quad(f, a, mid, rel, depth - 1, 0.5 * floor),
                   ref_quad(f, mid, b, rel, depth - 1, 0.5 * floor))


def vectorized(f):
    return lambda xs: np.array([f(float(x)) for x in xs])


def row_family(kind, c):
    """Scalar integrands on [0, 1] of several refinement behaviours."""
    if kind == "smooth":
        return lambda x: math.exp(c * x) * math.cos(3.0 * x)
    if kind == "peak":
        return lambda x: 1.0 / (1e-4 + (x - c) ** 2)
    if kind == "cusp":  # integrable singularity: runs into the depth cap
        return lambda x: abs(x - c) ** -0.5 if x != c else INF
    if kind == "pole":  # non-finite samples from the first panel on
        return lambda x: 1.0 / (x - c) if x > c else INF
    if kind == "spike":  # non-finite only where refinement lands
        return lambda x: INF if abs(x - c) < 1e-3 else 1.0 / (1e-3 + abs(x - c))
    if kind == "negative spike":  # -inf where refinement lands
        return lambda x: -INF if abs(x - c) < 1e-3 else -1.0 / (1e-3 + abs(x - c))
    if kind == "split spike":  # +inf left of c, -inf right of it
        return lambda x: math.copysign(INF, c - x) if abs(x - c) < 1e-3 else 1.0
    if kind == "zero":
        return lambda x: 0.0
    raise ValueError(kind)


ROWS = st.lists(st.tuples(st.sampled_from(["smooth", "peak", "cusp", "pole", "spike",
                                           "negative spike", "split spike", "zero"]),
                          st.floats(0.05, 0.95)), min_size=1, max_size=7)


class TestQuadRows:
    @settings(max_examples=30, deadline=None)
    @given(rows=ROWS, rel=st.sampled_from([1e-6, 1e-10, 1e-13]),
           depth=st.integers(0, 9), a=st.floats(-1.0, 0.0), b=st.floats(1.0, 2.0))
    def test_each_row_is_its_own_quad_interval(self, rows, rel, depth, a, b):
        fs = [row_family(kind, c) for kind, c in rows]

        def F(xs, idx):
            return np.array([[fs[i](float(x)) for x in xs] for i in idx])

        got = quad_rows(F, a, b, rel, depth, rows=len(fs))
        for i, f in enumerate(fs):
            one = quad_interval(vectorized(f), a, b, rel, depth)
            assert got[i] == one or (math.isnan(got[i]) and math.isnan(one))
            assert one == ref_quad(f, a, b, rel, depth)

    def test_depth_cap_and_non_finite_rows(self):
        fs = [row_family("cusp", 0.3), row_family("pole", 0.5), row_family("smooth", 1.0)]
        F = lambda xs, idx: np.array([[fs[i](float(x)) for x in xs] for i in idx])
        got = quad_rows(F, 0.0, 1.0, 1e-13, 4, rows=3)
        assert got[1] == INF
        # the cusp stops at the cap without meeting the tolerance
        exact = 2.0 * (math.sqrt(0.3) + math.sqrt(0.7))
        assert abs(got[0] - exact) > 1e-6 * exact
        for i, f in enumerate(fs):
            assert got[i] == ref_quad(f, 0.0, 1.0, 1e-13, 4)

    def test_gauss15_matches_scalar_rule(self):
        for f in (math.exp, math.sin, lambda x: 1.0 / x if x > 0.5 else INF,
                  lambda x: 1.0 / x if x > 0.5 else -INF,
                  lambda x: -INF if x < 0.3 else (INF if x > 0.7 else x)):
            assert gauss15(vectorized(f), 0.1, 0.9) == ref_gauss15(f, 0.1, 0.9)

    def test_panel_sign(self):
        # all non-finite samples -inf: -inf; a +inf or a NaN among them: +inf
        for bad, want in (((-INF,), -INF), ((-INF, INF), INF), ((-INF, math.nan), INF),
                          ((math.nan,), INF)):
            vals = np.ones((1, 15))
            vals[0, 3:3 + len(bad)] = bad
            assert _panel_sums(vals, np.array([0.5]))[0, 0] == want

    def test_kronrod_constants(self):
        # K21 is exact through degree 31 and G10 through 19, to rounding;
        # neither is exact one degree further
        for x, w, degree in ((K21_X, K21_W, 31), (K21_X[1::2], G10_W, 19)):
            for d in range(degree + 2):
                err = abs(float(np.sum(w * x ** d)) - (2.0 / (d + 1) if d % 2 == 0 else 0.0))
                assert err <= 4e-16 if d <= degree else err > 1e-12
        gx = np.polynomial.legendre.leggauss(10)[0]
        assert (np.abs(K21_X[1::2] - gx) <= 2 * np.spacing(np.abs(gx))).all()

    def test_kronrod_panel_sign(self):
        # the rule of test_panel_sign for the K21 and G10 sums, and a row with a
        # non-finite panel stops there: |K21 - G10| of +-inf does not warn
        for at in (3, 2):  # G10 nodes (odd positions), or nodes only K21 has
            for bad, want in (((-INF,), -INF), ((-INF, INF), INF), ((-INF, math.nan), INF),
                              ((math.nan,), INF)):
                vals = np.ones((1, 21))
                vals[0, at:at + 2 * len(bad):2] = bad
                k, g = _kronrod(vals, np.array([0.5]))
                assert k[0, 0] == want
                assert g[0, 0] == want if at == 3 else np.isfinite(g[0, 0])
                assert quad_rows(lambda xs, idx: vals, 0.0, 1.0, 1e-10, 3)[0] == want


# ---------------------------------------------------------------------------
# Boxes against nested integration one outer point at a time
# ---------------------------------------------------------------------------

def ref_toward_face(f, a, b, rel_tol):
    """The scalar walk toward a singular face at a: one ``quad_interval``
    per geometric panel, with ratio extrapolation of the tail."""
    w = b - a
    total = 0.0
    panel_vals = []
    prev_extrapolated = None
    for j in range(900):
        hi = a + w * 2.0 ** (-j)
        lo = a + w * 2.0 ** (-j - 1)
        if lo <= a or hi <= lo:
            break
        I = quad_interval(f, lo, hi, rel=rel_tol * 0.1)
        if math.isinf(I):
            return I
        total += I
        panel_vals.append(I)
        if j < 4:
            continue
        recent = panel_vals[-3:]
        if all(v == 0.0 for v in recent):
            return total
        prev = panel_vals[-2]
        if min(prev, I) > 0.0 or max(prev, I) < 0.0:
            rho = I / prev
            if rho >= 1.0 - 1e-6 and j >= 6:
                return math.copysign(INF, I)
            if rho < 1.0:
                tail = I * rho / (1.0 - rho)
                est = total + tail
                if prev_extrapolated is not None:
                    if abs(est - prev_extrapolated) <= rel_tol * abs(est) + 1e-300:
                        return est
                prev_extrapolated = est
        elif I == 0.0 and prev == 0.0:
            return total
    raise QuadratureError("no convergence or divergence signature at singular face")


def ref_int1d_singular(f, a, b, sing_lo, sing_hi, rel_tol):
    if sing_lo and sing_hi:
        mid = 0.5 * (a + b)
        left = ref_toward_face(f, a, mid, rel_tol)
        if math.isinf(left):
            return left
        return left + ref_toward_face(lambda xs: f(a + b - xs), a, mid, rel_tol)
    if sing_lo:
        return ref_toward_face(f, a, b, rel_tol)
    return ref_toward_face(lambda xs: f(a + b - xs), a, b, rel_tol)


def ref_integrate_box(fn, box, rel_tol=1e-8):
    """Nested scalar reference: each outer point integrates the inner axes on
    its own, through the same one-dimensional rules."""
    sing = set(box.singular_faces)

    def level(i, coords):
        if i == box.n:
            return float(fn(np.array([coords]))[0])
        f = vectorized(lambda x: level(i + 1, coords + [x]))
        lo, hi = box.lower[i], box.upper[i]
        s_lo, s_hi = (i, "lower") in sing, (i, "upper") in sing
        if s_lo or s_hi:
            return ref_int1d_singular(f, lo, hi, s_lo, s_hi, rel_tol)
        return quad_interval(f, lo, hi, rel=rel_tol)

    return level(0, [])


def smooth_batch(cs):
    cs = np.asarray(cs)
    return lambda X: np.exp(-(X * cs[: X.shape[1]]).sum(axis=1)) * (1.0 + np.sin(5.0 * X[:, 0]))


def power_face(axis, alpha, cs):
    base = smooth_batch(cs)
    return lambda X: base(X) * X[:, axis] ** -alpha


class TestIntegrateBox:
    @settings(max_examples=3, deadline=None)
    @given(cs=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
    def test_regular_boxes(self, cs):
        fn = smooth_batch(cs)
        for box in (oz.BoxDomain.interval(-0.5, 1.0), oz.BoxDomain((0.0, -1.0), (1.0, 0.5)),
                    oz.BoxDomain.unit(3)):
            got = integrate_box(fn, box)
            assert got == pytest.approx(ref_integrate_box(fn, box), rel=1e-12)

    @settings(max_examples=3, deadline=None)
    @given(alpha=st.floats(0.2, 0.7), cs=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2))
    def test_singular_faces(self, alpha, cs):
        cases = [
            (power_face(0, alpha, cs), oz.BoxDomain.unit(1, singular=((0, "lower"),))),
            (power_face(0, alpha, cs), oz.BoxDomain.unit(2, singular=((0, "lower"),))),
            (power_face(1, alpha, cs), oz.BoxDomain.unit(2, singular=((1, "lower"),))),
            (lambda X: (X[:, 0] * (1 - X[:, 0])) ** -alpha,
             oz.BoxDomain.unit(1, singular=((0, "lower"), (0, "upper")))),
        ]
        for fn, box in cases:
            got = integrate_box(fn, box)
            assert math.isfinite(got)
            assert got == pytest.approx(ref_integrate_box(fn, box), rel=1e-12)

    @pytest.mark.parametrize("fn,want", [
        (lambda X: np.where(X[:, 0] < 1 / 64, 1.0, 0.0), 1 / 64),
        (lambda X: np.where(X[:, 0] < 1 / 64, X[:, 0], 1.0) ** -0.5 * (X[:, 0] < 1 / 64), 0.25),
    ], ids=["indicator", "inverse root"])
    def test_zero_panels_before_the_support(self, fn, want):
        # the panels toward the face are exactly 0 until they reach [0, 1/64]
        got = integrate_box(fn, oz.BoxDomain.unit(1, singular=((0, "lower"),)))
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_divergence_verdict(self):
        box = oz.BoxDomain.unit(2, singular=((1, "lower"),))
        assert integrate_box(lambda X: 1.0 / X[:, 1], box) == INF

    def test_negative_face_converges(self):
        for dim in (1, 2):
            box = oz.BoxDomain.unit(dim, singular=((0, "lower"),))
            assert integrate_box(lambda X: -X[:, 0] ** -0.5, box) == pytest.approx(-2.0, rel=1e-8)

    def test_negative_divergence_verdict(self):
        box = oz.BoxDomain.unit(1, singular=((0, "lower"),))
        assert integrate_box(lambda X: -1.0 / X[:, 0], box) == -INF

    def test_negative_divergence_on_an_inner_axis(self):
        # every outer row diverges to -inf; the outer panels keep the sign
        for dim, axis in ((2, 1), (3, 1)):
            box = oz.BoxDomain.unit(dim, singular=((axis, "lower"),))
            assert integrate_box(lambda X: -1.0 / X[:, axis], box) == -INF
            assert integrate_box(lambda X: 1.0 / X[:, axis], box) == INF

    def test_no_signature_raises(self):
        # panels toward the face alternate in sign at a constant size
        box = oz.BoxDomain.unit(2, singular=((0, "lower"),))
        with pytest.raises(oz.modular.QuadratureError):
            integrate_box(alternating_face, box)


    # outer rows of an inner singular axis that end the walk differently:
    # rows x0 < 1/2 are zero, the others converge, and rows x0 > 3/4 diverge,
    # alternate or converge; 1/2 and 3/4 are panel ends of the outer axis
    @pytest.mark.parametrize("tail", ["converge", "diverge", "negative diverge"])
    def test_inner_rows_that_end_differently(self, tail):
        def fn(X):
            x0, x1 = X[:, 0], X[:, 1]
            far = {"converge": (1.0 + x0) * x1 ** -0.5, "diverge": 1.0 / x1,
                   "negative diverge": -1.0 / x1}[tail]
            near = np.exp(x0) * x1 ** -0.3 * (1.0 + x1)
            return np.where(x0 < 0.5, 0.0, np.where(x0 > 0.75, far, near))

        box = oz.BoxDomain.unit(2, singular=((1, "lower"),))
        got, want = integrate_box(fn, box), ref_integrate_box(fn, box)
        if tail == "converge":
            assert math.isfinite(got) and got == pytest.approx(want, rel=1e-12)
        else:
            assert got == want == (-INF if tail.startswith("negative") else INF)

    @pytest.mark.parametrize("far", ["converge", "lower diverges", "upper diverges"])
    def test_inner_rows_on_two_faces(self, far):
        # rows x0 > 1/2 converge, or diverge at one face and make the box +inf
        def fn(X):
            x0, x1 = X[:, 0], X[:, 1]
            tail = {"converge": (2.0 + x0) * (x1 * (1.0 - x1)) ** -0.2,
                    "lower diverges": 1.0 / x1, "upper diverges": 1.0 / (1.0 - x1)}[far]
            return np.where(x0 > 0.5, tail, (1.0 + x0) * (x1 * (1.0 - x1)) ** -0.4)

        box = oz.BoxDomain.unit(2, singular=((1, "lower"), (1, "upper")))
        got, want = integrate_box(fn, box), ref_integrate_box(fn, box)
        if far == "converge":
            assert math.isfinite(got) and got == pytest.approx(want, rel=1e-12)
        else:
            assert got == want == INF

    def test_inner_row_without_signature_raises(self):
        def fn(X):
            x0 = X[:, 0]
            return np.where(x0 > 0.75, alternating_face(X[:, 1:]), np.where(x0 < 0.5, 0.0, 1.0))

        box = oz.BoxDomain.unit(2, singular=((1, "lower"),))
        for integrate in (integrate_box, ref_integrate_box):
            with pytest.raises(QuadratureError, match="no convergence or divergence signature"):
                integrate(fn, box)


def alternating_face(X):
    """(-1)^j / x on the panel (2^-j-1, 2^-j]: every panel integral is +-ln 2."""
    x = X[:, 0]
    return np.where(np.floor(-np.log2(x)) % 2 == 0, 1.0, -1.0) / x


class TestScalarUserField:
    def test_scalar_field_matches_batch_twin(self):
        scalar = oz.TestFunction(
            lambda x: math.sin(math.pi * x[0]) * (1.0 + x[1] ** 2),
            lambda x: np.array([math.pi * math.cos(math.pi * x[0]) * (1.0 + x[1] ** 2),
                                2.0 * x[1] * math.sin(math.pi * x[0])]), "user")
        twin = oz.TestFunction.from_batch(
            lambda X: np.sin(np.pi * X[:, 0]) * (1.0 + X[:, 1] ** 2),
            lambda X: np.column_stack([np.pi * np.cos(np.pi * X[:, 0]) * (1.0 + X[:, 1] ** 2),
                                       2.0 * X[:, 1] * np.sin(np.pi * X[:, 0])]), "twin")
        box = oz.BoxDomain.unit(2)
        for y in (oz.Power(2), oz.PowerExp(1.0), oz.PowerLog(2, 1)):
            for lam in (0.5, 2.0):
                assert oz.modular_integral(scalar, y, lam, box) == pytest.approx(
                    oz.modular_integral(twin, y, lam, box), rel=1e-12)
                assert oz.modular_integral_gradient(scalar, y, lam, box) == pytest.approx(
                    oz.modular_integral_gradient(twin, y, lam, box), rel=1e-12)


class TestTensorRule:
    def test_rule_is_cached_and_read_only(self):
        x, w = gauss_legendre(24)
        assert gauss_legendre(24)[0] is x
        np.testing.assert_array_equal(np.stack([x, w]),
                                      np.stack(np.polynomial.legendre.leggauss(24)))
        with pytest.raises(ValueError):
            x[0] = 0.0
        pts, wts = tensor_rule([0.0, -1.0], [2.0, 1.0], 24)
        assert wts.sum() == pytest.approx(4.0, rel=1e-14)
        wts[0] = 0.0  # the tensor rule is the caller's own copy
        assert tensor_rule([0.0, -1.0], [2.0, 1.0], 24)[1][0] > 0.0


# ---------------------------------------------------------------------------
# The panel kernel and the row passes against the one-row engine, bit for bit
# ---------------------------------------------------------------------------

# A frozen copy of the 15-node panel kernel as it was before finiteness was
# checked once per panel: every sample searched for +-inf and nan.  The
# library, which still sums the conjugate tables' fixed 15-node panels with
# it, must match it bit for bit.

def frozen_panel_sums(vals, halfwidths):
    v = vals.reshape(vals.shape[0], -1, 15)
    terms = v * G15_W
    with np.errstate(invalid="ignore"):
        total = np.cumsum(terms, axis=2, out=terms)[:, :, -1] * halfwidths
    total[(v == -INF).any(axis=2)] = -INF
    total[(np.isnan(v) | (v == INF)).any(axis=2)] = INF
    return total


def same_bits(got, want):
    """Equal bit for bit: signed zeros and nan payloads included."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


FINITE = st.floats(-1e3, 1e3)
HUGE = st.floats(1e306, 1.7e308).flatmap(lambda x: st.sampled_from([x, -x]))


def panels(samples, max_panels=4, nodes=15):
    """(m, nodes p) sample arrays; p and m are drawn too."""
    return st.integers(1, 3).flatmap(lambda m: st.integers(1, max_panels).flatmap(
        lambda p: st.lists(samples, min_size=nodes * m * p, max_size=nodes * m * p).map(
            lambda xs: np.array(xs).reshape(m, nodes * p))))


def halfwidths(vals, nodes=15):
    p = vals.shape[1] // nodes
    return st.lists(st.sampled_from([0.0, 0.5, 1e-3, 2.0, 1e300]), min_size=p,
                    max_size=p).map(np.array)


class TestPanelKernelBits:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(),
           mix=st.sampled_from([(-INF,), (-INF, INF), (math.nan,), (-INF, INF, math.nan)]))
    def test_non_finite_samples(self, data, mix):
        # panels of -inf only, of mixed +-inf and of nan, among finite panels
        vals = data.draw(panels(st.one_of(FINITE, st.sampled_from(mix))))
        hw = data.draw(halfwidths(vals))
        assert same_bits(_panel_sums(vals, hw), frozen_panel_sums(vals, hw))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_finite_samples_that_overflow(self, data):
        vals = data.draw(panels(st.one_of(FINITE, HUGE)))
        hw = data.draw(halfwidths(vals))
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = _panel_sums(vals, hw), frozen_panel_sums(vals, hw)
        assert same_bits(got, want)

    def test_overflow_and_zero_halfwidth_edges(self):
        vals = np.ones((4, 30))
        vals[0, :15] = 1.7e308      # sum overflows to +inf
        vals[1, :15] = -1.7e308     # to -inf
        vals[2, 3] = -INF           # a -inf sample times a zero half-width: nan, then -inf
        vals[3, 15:] = 1.7e308      # an overflowed sum times zero: nan stays
        for hw in (np.array([0.5, 0.0]), np.array([0.0, 0.0]), np.array([2.0, 1.0])):
            with np.errstate(over="ignore", invalid="ignore"):
                got, want = _panel_sums(vals, hw), frozen_panel_sums(vals, hw)
            assert same_bits(got, want)
        with np.errstate(over="ignore", invalid="ignore"):
            assert _panel_sums(vals, np.array([0.0, 0.0]))[2, 0] == -INF

    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), mix=st.sampled_from([(-INF,), (-INF, INF), (math.nan,), (-0.0, 0.0)]))
    def test_kronrod_is_two_panel_sums(self, data, mix):
        # the one running sum of K21 and G10 against each rule's own panel sum,
        # through non-finite samples, overflow and zeros of either sign
        vals = data.draw(panels(st.one_of(FINITE, HUGE, st.sampled_from(mix)), nodes=21))
        hw = data.draw(halfwidths(vals, nodes=21))
        with np.errstate(over="ignore", invalid="ignore"):
            k, g = _kronrod(vals, hw)
            want_g = _panel_sums(vals.reshape(len(vals), -1, 21)[:, :, 1::2].reshape(len(vals), -1),
                                 hw, G10_W)
            assert same_bits(k, _panel_sums(vals, hw, K21_W)) and same_bits(g, want_g)

    def test_kronrod_keeps_negative_zero_sums(self):
        # a panel of -0.0 samples sums to -0.0 under both rules
        k, g = _kronrod(np.full((1, 21), -0.0), 0.5)
        assert same_bits(k, [[-0.0]]) and same_bits(g, [[-0.0]])


def signed_face_family(X, P):
    """Row p: sign(p) (x0 (1 - x0))^-|p| (1 + x_last^2 / 2); |p| >= 1 diverges
    at both faces of axis 0, with the sign of p, and larger |p| refines deeper."""
    x0 = X[:, 0]
    return np.sign(P) * (x0 * (1.0 - x0)) ** -np.abs(P) * (1.0 + 0.5 * X[:, -1] ** 2)


def peaked_family(X, P):
    """Row p: a peak at x = p along every axis; the depth follows p."""
    return 1.0 / (1e-2 + ((X - P[:, None]) ** 2).sum(axis=1))


FACE_BOXES = [
    oz.BoxDomain.unit(1, singular=((0, "lower"), (0, "upper"))),
    oz.BoxDomain.unit(2, singular=((0, "lower"),)),
    oz.BoxDomain.unit(2, singular=((0, "upper"),)),
    oz.BoxDomain.unit(2, singular=((0, "lower"), (0, "upper"))),
]


class TestRowPassBits:
    """k integrands in one pass against k one-row integrals."""

    @settings(max_examples=8, deadline=None)
    @given(ps=st.lists(st.one_of(st.floats(-0.8, 0.8), st.sampled_from([-1.2, -1.0, 1.0, 1.5])),
                       min_size=1, max_size=6),
           j=st.integers(0, len(FACE_BOXES) - 1))
    def test_faces_and_divergent_rows(self, ps, j):
        box = FACE_BOXES[j]
        got = _integrate_rows(signed_face_family, np.array(ps), box, 1e-8)
        assert same_bits(got, [integrate_box(
            lambda X, p=p: signed_face_family(X, np.full(len(X), p)), box) for p in ps])
        for p, v in zip(ps, got):
            assert v == (math.copysign(INF, p) if abs(p) >= 1.0 else v)

    @settings(max_examples=4, deadline=None)
    @given(ps=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=4))
    def test_rows_that_stop_at_different_depths(self, ps):
        for box in (oz.BoxDomain.interval(-0.5, 1.0), oz.BoxDomain.unit(2),
                    oz.BoxDomain.unit(2, singular=((1, "upper"),))):
            got = _integrate_rows(peaked_family, np.array(ps), box, 1e-8)
            assert same_bits(got, [integrate_box(
                lambda X, p=p: peaked_family(X, np.full(len(X), p)), box) for p in ps])

    def test_one_row_box_matches_nested_reference(self):
        for fn, box in ((smooth_batch([0.3, -1.0, 2.0]), oz.BoxDomain.unit(3)),
                        (power_face(1, 0.4, [0.5, 0.5]),
                         oz.BoxDomain.unit(2, singular=((1, "lower"),))),
                        (lambda X: -1.0 / X[:, 1], oz.BoxDomain.unit(2, singular=((1, "lower"),))),
                        (lambda X: (X[:, 0] * (1 - X[:, 0])) ** -0.5,
                         oz.BoxDomain.unit(1, singular=((0, "lower"), (0, "upper"))))):
            got, want = integrate_box(fn, box), ref_integrate_box(fn, box)
            assert got == want if math.isinf(want) else got == pytest.approx(want, rel=1e-12)

    def test_modular_grid_matches_one_modular_per_lambda(self):
        box = oz.BoxDomain.unit(2, singular=((0, "lower"),))
        u = singular_log_field(2)
        seq = [u.shifted(c) for c in (0.4, 0.05)]
        lams = (0.25, 1.0, 4.0)
        for y in (oz.PowerExp(1.0), oz.Power(2.5)):
            rep = oz.modular_convergence(seq, u, y, box, lams)
            for i, v in enumerate(seq):
                d = v - u
                assert same_bits(rep.value_modulars[i],
                                 [oz.modular_integral(d, y, lam, box) for lam in lams])
                assert same_bits(rep.gradient_modulars[i],
                                 [oz.modular_integral_gradient(d, y, lam, box) for lam in lams])

    def test_vector_young_gradient_rows(self):
        # an n-dimensional Young function takes the gradient vector, one scale per point
        box = oz.BoxDomain.unit(2)
        u = corpus.product_sine(2)
        lams = np.array([0.5, 1.0, 3.0])
        for y in (oz.Isotropic(oz.Power(2), 2), oz.Orthotropic((oz.Power(2), oz.Power(3)))):
            got = _integrate_rows(_integrand(u, y, True), lams, box, 1e-8)
            assert same_bits(got, [oz.modular_integral_gradient(u, y, lam, box) for lam in lams])


# ---------------------------------------------------------------------------
# Fields that declare the axes they read
# ---------------------------------------------------------------------------

def axes_fields():
    """(field, dimension): the library fields that declare ``axes``, and the
    combinators of them."""
    out = []
    for n in (1, 2, 3):
        out += [(corpus.coordinate_field(n, i), n) for i in range(n)]
        out += [(singular_log_field(n), n), (constant_function(1.5, n), n)]
    s, x3 = singular_log_field(3), corpus.coordinate_field(3, 2)
    out += [(f, 3) for f in (s - x3, s.shifted(0.3), x3.scaled(-2.0), oz.truncate(s, 0.4),
                             oz.compose(abs_shift_spec(0.5), s.shifted(0.6)))]
    return out


def read_fields(n):
    """The five combinators over fields that read axis 0, axis n - 1 or none."""
    s, x = singular_log_field(n), corpus.coordinate_field(n, n - 1)
    spec = abs_shift_spec(0.5)
    return [s.shifted(0.2) - s, (x - constant_function(0.3, n)).scaled(1.5),
            oz.compose(spec, s.shifted(0.6)) - oz.compose(spec, s), oz.truncate(x, 0.3),
            constant_function(0.7, n)]


READ_BOXES = [
    oz.BoxDomain.unit(2),
    oz.BoxDomain.unit(2, singular=((0, "lower"),)),  # a face on an axis the fields read
    oz.BoxDomain((0.1, -1.0), (0.7, 2.0), ((0, "lower"), (0, "upper"))),
    oz.BoxDomain.unit(3),
    # a face on an axis no field reads; the kinks of compose and truncate lie outside
    oz.BoxDomain((0.3, -1.0, 0.35), (1.0, 2.0, 0.8), ((1, "upper"),)),
]


class TestReadAxes:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 31))
    def test_unread_coordinates_change_nothing(self, seed):
        rng = np.random.default_rng(seed)
        for u, n in axes_fields():
            X = points(seed, n)
            unread = [j for j in range(n) if j not in u.axes]
            Y = X.copy()
            Y[:, unread] = 3.0 * rng.standard_normal((len(X), len(unread)))
            G = u.gradients(X)
            assert same_bits(u.values(Y), u.values(X))
            assert same_bits(u.gradients(Y), G)
            assert (G[:, unread] == 0.0).all()

    def test_combinators_carry_axes(self):
        s, x3, sine = singular_log_field(3), corpus.coordinate_field(3, 2), corpus.product_sine(3)
        assert (x3 - s).axes == (s - x3).axes == (0, 2)
        assert (x3 - constant_function(1.0, 3)).axes == (2,)
        assert (x3 - sine).axes is None and (sine - x3).axes is None
        assert x3.scaled(2.0).axes == x3.shifted(1.0).axes == (2,)
        assert oz.compose(signed_square_spec(), s).axes == oz.truncate(s, 0.3).axes == (0,)
        assert scalar_only(x3).axes is None

    @pytest.mark.parametrize("box", READ_BOXES, ids=lambda b: f"{b.n}d{len(b.singular_faces)}")
    def test_reads_match_every_axis(self, box):
        lams = np.array([0.5, 1.0, 3.0])
        ortho = oz.Orthotropic(tuple(oz.Power(2.0 + j) for j in range(box.n)))
        for u in read_fields(box.n):
            for y, gradient in ((oz.PowerExp(1.0), False), (oz.PowerExp(1.0), True),
                                (ortho, True)):
                f = _integrand(u, y, gradient)
                got = _integrate_rows(f, lams, box, 1e-8, reads=u.axes)
                assert same_bits(got, _integrate_rows(f, lams, box, 1e-8))
        u = read_fields(box.n)[0]
        want = integrate_box(lambda X: _integrand(u, oz.Power(2), False)(X, 0.5), box)
        assert oz.modular_integral(u, oz.Power(2), 0.5, box) == want

    def test_unread_panels_that_refine(self, monkeypatch):
        # at rel_tol 1e-16 equal samples fail |K21 - G10| on some rows; the cap
        # of two levels keeps the every-axis pass short
        calls = [0, 0]

        def capped(F, a, b, rel, rows):
            def G(xs, idx):
                calls[1] += 1
                return F(xs, idx)
            calls[0] += 1
            return quad_rows(G, a, b, rel, 2, rows)

        monkeypatch.setattr(modular, "quad_rows", capped)
        lams = np.linspace(0.3, 3.0, 40)
        for u in (constant_function(0.7, 2), corpus.coordinate_field(2, 0)):
            f = _integrand(u, oz.Power(2.5), False)
            for box in (oz.BoxDomain((0.1, -1.0), (0.7, 2.0)), READ_BOXES[1]):
                calls[:] = [0, 0]
                got = _integrate_rows(f, lams, box, 1e-16, reads=u.axes)
                assert calls[1] > calls[0]  # some panels were split
                assert same_bits(got, _integrate_rows(f, lams, box, 1e-16))


class TestWorkCounts:
    """Exact point counts of two runs; each count repeats between runs."""

    @staticmethod
    def counting(monkeypatch, cls):
        calls, points = [0], [0]
        values = cls.values

        def counted(self, t):
            calls[0] += 1
            points[0] += np.size(t)
            return values(self, t)

        monkeypatch.setattr(cls, "values", counted)
        return calls, points

    def test_counterexample_points(self, monkeypatch):
        # the G15 whole-against-halves engine passed 302,400 + 20,250 points
        # to A in 60 calls, and K21 on every node of x2 80,262; the zero-tail
        # check after two zero panels is part of each count.  The fields read
        # x1 alone, so x2 takes one sample per row
        calls, points = self.counting(monkeypatch, oz.PowerExp)
        for _ in range(2):
            calls[0] = points[0] = 0
            oz.counterexample_run((8, 64), (10 ** -3.1, 10 ** -4.1), dim=2)
            assert points[0] == 3_822
            assert calls[0] <= 34

    def test_unread_axes_3d_modular_points(self, monkeypatch):
        # x1 reads one axis: one K21 panel along it and one sample of each
        # of its rows, where every node of the cube took 21^3 = 9,261
        calls, points = self.counting(monkeypatch, oz.Power)
        for _ in range(2):
            points[0] = 0
            v = oz.modular_integral(corpus.coordinate_field(3), oz.Power(2), 0.8,
                                    oz.BoxDomain.unit(3))
            assert v == pytest.approx(1.0 / 3.0 / 0.8 ** 2, rel=1e-14)
            assert points[0] == 21

    def test_smooth_3d_modular_points(self, monkeypatch):
        # one K21 panel per axis: 21^3 points of A, and 21^3 + 21^2 + 21 nodes
        # over the three nested axes (the G15 engine: 45^3 and 93,195)
        calls, points = self.counting(monkeypatch, oz.Power)
        nodes = [0]
        quad_rows = modular.quad_rows

        def counted_rows(F, *args, **kwargs):
            def G(xs, idx):
                vals = F(xs, idx)
                nodes[0] += np.size(vals)
                return vals
            return quad_rows(G, *args, **kwargs)

        monkeypatch.setattr(modular, "quad_rows", counted_rows)
        for _ in range(2):
            points[0] = nodes[0] = 0
            v = oz.modular_integral(corpus.product_sine(3), oz.Power(2), 0.8, oz.BoxDomain.unit(3))
            assert v == pytest.approx(0.125 / 0.8 ** 2, rel=1e-14)
            assert (points[0], nodes[0]) == (21 ** 3, 9_723)


class TestGradientLengths:
    @pytest.mark.parametrize("n", [2, 3])
    def test_lengths_are_linalg_norm_bits(self, n):
        # magnitudes 1e-200 to 1e200: squares that overflow and underflow
        rng = np.random.default_rng(n)
        G = rng.standard_normal((20_000, n)) * 10.0 ** rng.uniform(-200.0, 200.0, (20_000, n))
        G[:4] = [[INF] * n, [-INF] + [1.0] * (n - 1), [math.nan] * n, [0.0] * n]
        with np.errstate(over="ignore"):
            got, want = _lengths(G), np.linalg.norm(G, axis=1)
        assert np.isinf(got).sum() > 1000
        assert same_bits(got, want)
        for lengths in (_lengths, lambda G: np.linalg.norm(G, axis=1)):
            with pytest.warns(RuntimeWarning, match="overflow"):
                lengths(G)
