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
from orlicz._quad import _panel_sums, gauss15, gauss_legendre, quad_interval, quad_rows, tensor_rule
from orlicz.modular import QuadratureError, constant_function, integrate_box
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

def ref_gauss15(f, a, b):
    """Scalar 15-node rule: samples one at a time; non-finite samples give
    -inf when they are all -inf, else +inf."""
    h, mid = 0.5 * (b - a), 0.5 * (a + b)
    total, signs = 0.0, set()
    for x, w in zip(*np.polynomial.legendre.leggauss(15)):
        v = f(mid + h * x)
        if not math.isfinite(v):
            signs.add(v == -INF)
            continue
        total += w * v
    if signs:
        return -INF if signs == {True} else INF
    return total * h


def ref_add(x, y):
    return INF if math.isinf(x) and math.isinf(y) and x != y else x + y


def ref_quad(f, a, b, rel=1e-10, depth=14, floor=0.0):
    """Recursive bisection that recomputes each child's whole panel."""
    whole = ref_gauss15(f, a, b)
    if math.isinf(whole):
        return whole
    if floor == 0.0:
        floor = rel * (abs(whole) + 1e-300)
    mid = 0.5 * (a + b)
    left, right = ref_gauss15(f, a, mid), ref_gauss15(f, mid, b)
    if math.isinf(left) or math.isinf(right):
        return ref_add(left, right)
    halves = left + right
    if abs(halves - whole) <= rel * abs(halves) + floor or depth <= 0:
        return halves
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
