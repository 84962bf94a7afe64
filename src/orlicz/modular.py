"""Modular integrals, Luxemburg norms, and convergence diagnostics.

Scalar fields live on axis-aligned boxes in dimension 1 to 3 and are supplied
with analytic gradients.  Integration nests adaptive 21-node Gauss-Kronrod
panels, one axis in another: a panel is kept when its K21 sum and its
embedded 10-node Gauss sum agree to the relative tolerance, and is halved
otherwise.  Toward faces declared singular it refines geometrically; a panel
trend of one sign that stops decaying is reported as a divergent integral,
+inf or -inf with that sign, rather than ground through endless refinement.

Integrands are batch functions.  ``integrate_box(fn, box)`` calls ``fn`` on
an (m, n) array of points and expects their (m,) values; a panel whose
non-finite values are all -inf reads -inf, and any other non-finite value
makes its panel +inf.  A ``TestFunction`` evaluates a batch through
``values(X)`` and ``gradients(X)``: the library fields and combinators do it
in numpy, and a field given only by its scalar ``value`` and ``gradient`` is
evaluated row by row.  Modulars evaluate Young functions through
``values``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ._quad import quad_rows
from .young import INF, IndeterminateError, YoungError, YoungFunction, _check, _log_root


class QuadratureError(RuntimeError):
    """Quadrature failed without a clean convergence or divergence signature."""


class DomainError(ValueError):
    """Unsupported or inconsistent integration domain."""


# ---------------------------------------------------------------------------
# Domains and test functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box with optional log-refined quadrature faces.

    ``singular_faces`` lists (axis, side) pairs, side in {"lower", "upper"},
    toward which the integrand may blow up or oscillate sharply.
    """

    lower: tuple
    upper: tuple
    singular_faces: tuple = ()

    def __post_init__(self):
        if len(self.lower) != len(self.upper) or not self.lower:
            raise DomainError("lower/upper must be nonempty and equally long")
        if len(self.lower) > 3:
            raise DomainError("quadrature supports dimensions 1 to 3")
        for lo, hi in zip(self.lower, self.upper):
            if not lo < hi:
                raise DomainError("need lower < upper on every axis")
        for axis, side in self.singular_faces:
            if not (0 <= axis < len(self.lower)) or side not in ("lower", "upper"):
                raise DomainError(f"bad singular face ({axis}, {side})")

    @property
    def n(self) -> int:
        return len(self.lower)

    @property
    def measure(self) -> float:
        m = 1.0
        for lo, hi in zip(self.lower, self.upper):
            m *= hi - lo
        return m

    @property
    def finite(self) -> bool:
        return all(math.isfinite(lo) and math.isfinite(hi)
                   for lo, hi in zip(self.lower, self.upper))

    @classmethod
    def interval(cls, a: float, b: float, singular: tuple = ()) -> "BoxDomain":
        return cls((a,), (b,), singular)

    @classmethod
    def unit(cls, n: int, singular: tuple = ()) -> "BoxDomain":
        return cls((0.0,) * n, (1.0,) * n, singular)


@dataclass(frozen=True)
class TestFunction:
    """Scalar field with analytically supplied gradient.

    ``value(x)`` and ``gradient(x)`` act on one point, an (n,) array.  The
    optional ``batch_value(X)`` and ``batch_gradient(X)`` act on an (m, n)
    array of points and return the (m,) values and the (m, n) gradients;
    without them, ``values`` and ``gradients`` loop over the rows.
    """

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    label: str = ""
    batch_value: Optional[Callable[[np.ndarray], np.ndarray]] = None
    batch_gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None

    @classmethod
    def from_batch(cls, values, gradients, label: str = "") -> "TestFunction":
        """Field given by its batch forms; one point is a batch of one row."""
        return cls(lambda x: float(values(_one_row(x))[0]),
                   lambda x: gradients(_one_row(x))[0], label, values, gradients)

    def values(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if self.batch_value is not None:
            return self.batch_value(X)
        return np.array([self.value(x) for x in X], dtype=float)

    def gradients(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if self.batch_gradient is not None:
            return self.batch_gradient(X)
        return np.array([np.asarray(self.gradient(x), dtype=float) for x in X]).reshape(X.shape)

    def __sub__(self, other: "TestFunction") -> "TestFunction":
        return TestFunction.from_batch(
            lambda X: self.values(X) - other.values(X),
            lambda X: self.gradients(X) - other.gradients(X),
            f"{self.label}-{other.label}")

    def scaled(self, c: float) -> "TestFunction":
        return TestFunction.from_batch(
            lambda X: c * self.values(X),
            lambda X: c * self.gradients(X),
            f"{c:g}*{self.label}")

    def shifted(self, c: float, label: Optional[str] = None) -> "TestFunction":
        """u + c, with the gradient of u."""
        return TestFunction.from_batch(
            lambda X: self.values(X) + c, self.gradients,
            label if label is not None else f"{self.label}+{c:g}")

    def gradient_consistent(self, box: BoxDomain, points: int = 32,
                            rel_tol: float = 1e-4, seed: int = 7,
                            margin: float = 0.05) -> bool:
        """Central-difference probe at random interior points, kept away from
        singular faces by a relative margin; all points go through one
        ``gradients`` call and two ``values`` calls per axis."""
        rng = np.random.default_rng(seed)
        lo = np.array(box.lower, dtype=float)
        width = np.array(box.upper, dtype=float) - lo
        X = lo + width * (margin + (1 - 2 * margin) * rng.random((points, box.n)))
        g = self.gradients(X)
        h = 1e-5 * np.maximum(width, 1.0)
        fd = np.stack([(self.values(X + step) - self.values(X - step)) / (2 * step[i])
                       for i, step in enumerate(np.diag(h))], axis=1)
        scale = np.maximum(np.maximum(np.linalg.norm(g, axis=1),
                                      np.linalg.norm(fd, axis=1)), 1e-8)
        return not np.any(np.linalg.norm(fd - g, axis=1) > rel_tol * scale * 10)


def _one_row(x) -> np.ndarray:
    return np.asarray(x, dtype=float).reshape(1, -1)


def constant_function(c: float, n: int) -> TestFunction:
    return TestFunction.from_batch(lambda X: np.full(len(X), float(c)),
                                   lambda X: np.zeros((len(X), n)), f"const{c:g}")


def sup_norm(u: TestFunction, box: BoxDomain) -> float:
    """Grid supremum of |u|; adequate for the analytic corpus functions."""
    axes = [np.linspace(lo, hi, 2049 if box.n == 1 else 129)
            for lo, hi in zip(box.lower, box.upper)]
    # trim exact face hits to dodge declared singularities
    mesh = np.meshgrid(*[ax[1:-1] for ax in axes], indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    # fmax skips NaN samples, as a running max(best, |u|) does
    return float(np.fmax.reduce(np.abs(u.values(pts)), initial=0.0))


# ---------------------------------------------------------------------------
# Adaptive integration on boxes
# ---------------------------------------------------------------------------

_MAX_PANELS = 900
# points per block of outer rows times nodes; larger blocks are split by rows,
# which changes no result and bounds the memory of 3-D boxes
_BLOCK_POINTS = 1 << 14
_FACE_BATCH = 6  # panels per call toward a face: the fewest that end a walk


def _face_rules(rel_tol: float):
    """One walk toward a face: sent the panel integrals in order, it returns
    the integral (see ``_toward_face``); after two zero panels from the fifth
    on it answers the total so far, the integral if the rest of the way to
    the face integrates to 0, and None otherwise."""
    total, prev, prev_extrapolated, zero = 0.0, None, math.nan, None  # nan: no estimate yet
    for j in itertools.count():
        I = yield zero
        zero = None
        if math.isinf(I):
            return I
        total += I
        if j >= 4 and (min(prev, I) > 0.0 or max(prev, I) < 0.0):
            rho = I / prev
            if rho >= 1.0 - 1e-6 and j >= 6:
                return math.copysign(INF, I)  # panels stopped decaying
            if rho < 1.0:
                est = total + I * rho / (1.0 - rho)
                if abs(est - prev_extrapolated) <= rel_tol * abs(est) + 1e-300:
                    return est
                prev_extrapolated = est
        elif j >= 4 and I == 0.0 and prev == 0.0:
            zero = total
        prev = I


def _toward_face(F, idx: np.ndarray, a: float, b: float, rel_tol: float) -> np.ndarray:
    """Integrals over (a, b] of rows ``idx`` of ``F``, each with a possible
    singularity at a; ``F(xs, rows)`` also takes one row of nodes per row.

    The panels (a + w 2^-j-1, a + w 2^-j], w = b - a, shrink toward the face.
    Their integrals must eventually keep one sign and decay geometrically,
    and the tail is then summed by ratio extrapolation; a non-decaying trend
    of one sign certifies divergence, +inf or -inf with that sign.  One
    ``quad_rows`` call takes ``_FACE_BATCH`` panels of every open row, each
    pair mapped onto [0, 1] with the panel width as Jacobian.  A row whose
    panels reach two zeros stops only if a second call, on the rest of the
    way to the face of every such row, also gives exactly 0.
    """
    x = a + (b - a) * 2.0 ** -np.arange(_MAX_PANELS + 1.0)  # the panel ends
    end = int(np.cumprod((x[1:] > a) & (x[:-1] > x[1:])).sum())  # panels before the face
    lo, width = x[1:end + 1], (x[:-1] - x[1:])[:end]
    out = np.empty(len(idx))
    walks = {r: _face_rules(rel_tol) for r in range(len(idx))}
    for walk in walks.values():
        next(walk)
    for j0 in range(0, end, _FACE_BATCH):
        x0, w0, open_rows = lo[j0:j0 + _FACE_BATCH], width[j0:j0 + _FACE_BATCH], [*walks]
        row, panel = np.divmod(np.arange(len(open_rows) * len(x0)), len(x0))

        def pairs(ts, q):
            h = w0[panel[q], None]
            return F(x0[panel[q], None] + h * ts, idx[open_rows][row[q]]) * h

        vals = quad_rows(pairs, 0.0, 1.0, rel_tol * 0.1, rows=len(row))
        zero = {}  # row -> (width left to the face, total) at its first zero pair
        for r, panel_vals in zip(open_rows, vals.reshape(-1, len(x0)).tolist()):
            try:
                for k, I in enumerate(panel_vals):
                    total = walks[r].send(I)
                    if total is not None and r not in zero:
                        zero[r] = (lo[j0 + k] - a, total)
            except StopIteration as done:
                out[r] = done.value
                del walks[r]
                zero.pop(r, None)
        if zero:
            rest = [*zero]
            h = np.array([zero[r][0] for r in rest])[:, None]
            tails = quad_rows(lambda ts, q: F(a + h[q] * ts, idx[rest][q]) * h[q],
                              0.0, 1.0, rel_tol * 0.1, rows=len(rest))
            for r in (r for r, tail in zip(rest, tails.tolist()) if tail == 0.0):
                out[r] = zero[r][1]
                del walks[r]
        if not walks:
            return out
    raise QuadratureError("no convergence or divergence signature at singular face")


def integrate_box(fn: Callable[[np.ndarray], np.ndarray], box: BoxDomain,
                  rel_tol: float = 1e-8,
                  truncation_radius: Optional[float] = None) -> float:
    """Nested adaptive integration of fn over the box; +inf or -inf, with
    its sign, on certified divergence toward a singular face.

    ``fn`` maps an (m, n) array of points to their (m,) values: this is the
    one-row case of ``_integrate_rows``.  Axis i is integrated for all points
    of the outer axes at once, toward a singular face by geometric panels,
    several at once.  Each panel is K21 (``quad_rows``), accepted when
    |K21 - G10| <= rel |K21| plus a floor that halves with each split, with
    rel = rel_tol, or rel_tol / 10 toward a singular face, and halved
    otherwise.  Finiteness is checked once per panel, on its sum.

    Half-infinite boxes are refused unless a truncation radius is supplied;
    the result is then the integral over the clipped box (a lower bound for
    nonnegative integrands), with the tail left to the caller's decay bound.
    """
    return float(_integrate_rows(lambda X, P: fn(X), np.zeros(1), box, rel_tol,
                                 truncation_radius)[0])


def _integrate_rows(fn, params, box: BoxDomain, rel_tol: float, truncation_radius=None):
    """The integrals of x -> fn(x, p) for each p in ``params``, one top row
    each, in one pass; each equals its own ``integrate_box`` bit for bit.
    ``fn(X, P)`` takes the (m, n) points and their parameters, one per point
    or, when all points share one, a single one."""
    if not box.finite:
        if truncation_radius is None:
            raise DomainError(
                "infinite boxes need a truncation radius and decay envelope")
        box = BoxDomain(
            tuple(max(lo, -truncation_radius) for lo in box.lower),
            tuple(min(hi, truncation_radius) for hi in box.upper),
            box.singular_faces)
    n = box.n
    sing = set(box.singular_faces)

    def level(i: int, prefix: np.ndarray, ps: np.ndarray) -> np.ndarray:
        """Integrals over axes i.. for each row of the (m, i) outer points."""
        if i == n:
            return np.asarray(fn(prefix, ps), dtype=float)

        def grid(idx, xs):
            pts = np.empty((len(idx), np.shape(xs)[-1], i + 1))
            pts[:, :, :i] = prefix[idx, None, :]
            pts[:, :, i] = xs
            own = ps if len(ps) == 1 else np.repeat(ps[idx], pts.shape[1])
            return level(i + 1, pts.reshape(-1, i + 1), own).reshape(pts.shape[:2])

        def block(xs, idx):
            """Rows ``idx`` at nodes xs: shared, or one row of nodes per row."""
            step = max(1, _BLOCK_POINTS // np.shape(xs)[-1])
            if len(idx) <= step:
                return grid(idx, xs)
            xs = np.broadcast_to(xs, (len(idx), np.shape(xs)[-1]))
            return np.concatenate([grid(idx[s:s + step], xs[s:s + step])
                                   for s in range(0, len(idx), step)])

        lo, hi = box.lower[i], box.upper[i]
        sing_lo, sing_hi = (i, "lower") in sing, (i, "upper") in sing
        if not (sing_lo or sing_hi):
            return quad_rows(block, lo, hi, rel_tol, rows=len(prefix))
        rows, flip = np.arange(len(prefix)), (lambda xs, idx: block(lo + hi - xs, idx))
        if not (sing_lo and sing_hi):
            return _toward_face(block if sing_lo else flip, rows, lo, hi, rel_tol)
        mid = 0.5 * (lo + hi)
        out = _toward_face(block, rows, lo, mid, rel_tol)
        fin = ~np.isinf(out)  # a row that diverges at the lower face skips the upper
        if fin.any():
            out[fin] += _toward_face(flip, np.flatnonzero(fin), lo, mid, rel_tol)
        return out

    return level(0, np.empty((len(params), 0)), params)


# ---------------------------------------------------------------------------
# Modulars and Luxemburg norms
# ---------------------------------------------------------------------------

def modular_integral(u: TestFunction, y: YoungFunction, lam: float,
                     box: BoxDomain, rel_tol: float = 1e-8,
                     truncation_radius: Optional[float] = None) -> float:
    """int_box A(|u(x)| / lambda) dx, +inf allowed."""
    _check("modular", "scale lambda", lam, 0.0)
    f = _integrand(u, y, False)
    return integrate_box(lambda X: f(X, lam), box, rel_tol,
                         truncation_radius=truncation_radius)


def modular_integral_gradient(u: TestFunction, y, lam: float,
                              box: BoxDomain, rel_tol: float = 1e-8) -> float:
    """Gradient modular; isotropic A acts on |grad u|, an n-dimensional
    Young function acts on the full gradient vector."""
    _check("modular", "scale lambda", lam, 0.0)
    f = _integrand(u, y, True)
    return integrate_box(lambda X: f(X, lam), box, rel_tol)


def _integrand(u: TestFunction, y, gradient: bool):
    """(X, lam) -> the value or gradient modular's integrand at one or per-point lam."""
    if not gradient:
        return lambda X, lam: y.values(np.abs(u.values(X)) / lam)
    from .aniso import NDimYoung  # local import avoids a hard dependency
    if isinstance(y, NDimYoung):
        return lambda X, lam: y.values(u.gradients(X) / np.expand_dims(lam, -1))
    return lambda X, lam: y.values(_lengths(u.gradients(X)) / lam)


def _lengths(G: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(G, axis=1)`` bit for bit: squares summed from the left."""
    return np.sqrt(sum(c * c for c in G.T))


_LAM_FLOOR, _LAM_CAP = 1e-12, 1e12  # the lambda range of luxemburg_norm's search


def luxemburg_norm(u: TestFunction, y: YoungFunction, box: BoxDomain,
                   gradient: bool = False, rel_tol: float = 1e-8) -> float:
    """inf{lambda > 0 : modular(u/lambda) <= 1}, to 1e-11 relative.

    ``young._log_root`` finds where the modular at lambda = 1/s, which
    increases in s, crosses 1; a lambda where it equals 1 exactly ends the
    search.  The search is held to lambda in [1e-12, 1e12], and the modular
    at an end, computed once, decides every point past it: a norm above
    1e12 reads inf, one below 1e-12 reads 0.
    A Young function with a ``finite_jump`` b raises IndeterminateError: the
    nodes can miss {|u| > b lambda}, where the modular is +inf.
    """
    if getattr(y, "finite_jump", None) is not None:
        raise IndeterminateError(f"the norm under {y!r} needs a certified sup |u|")
    s_lo, s_hi = 1.0 / _LAM_CAP, 1.0 / _LAM_FLOOR

    @functools.cache
    def m(s: float) -> float:
        if not s_lo <= s <= s_hi:
            return INF if m(min(max(s, s_lo), s_hi)) > 1.0 else 0.0
        if gradient:
            return modular_integral_gradient(u, y, 1.0 / s, box, rel_tol)
        return modular_integral(u, y, 1.0 / s, box, rel_tol)

    lo, hi = _log_root(m, 1.0, True, rel_tol=1e-11)
    if lo < s_lo:
        return INF
    return 0.0 if hi > s_hi else 1.0 / lo


@dataclass(frozen=True)
class W1AQuantities:
    norm_value: float
    norm_gradient: float
    modular_value: Callable[[float], float]
    modular_gradient: Callable[[float], float]

    @property
    def norm_w1a(self) -> float:
        return self.norm_value + self.norm_gradient


def w1a_quantities(u: TestFunction, y, box: BoxDomain,
                   rel_tol: float = 1e-8) -> W1AQuantities:
    """Both Luxemburg norms plus modular evaluators for a field and its
    gradient (vector Young functions act on the full gradient)."""
    from .aniso import NDimYoung
    y_val = y.scalar_profile() if isinstance(y, NDimYoung) else y
    return W1AQuantities(
        norm_value=luxemburg_norm(u, y_val, box, rel_tol=rel_tol),
        norm_gradient=luxemburg_norm(u, y, box, gradient=True, rel_tol=rel_tol),
        modular_value=lambda lam: modular_integral(u, y_val, lam, box, rel_tol),
        modular_gradient=lambda lam: modular_integral_gradient(u, y, lam, box, rel_tol),
    )


# ---------------------------------------------------------------------------
# Convergence reports
# ---------------------------------------------------------------------------

def trajectory_converges(values: Sequence[float]) -> bool:
    """Finite-index proxy for a vanishing limit: the tail must be monotone
    non-increasing and the final value at most 1e-3 of the initial one."""
    vals = list(values)
    if not vals:
        return False
    initial, final = vals[0], vals[-1]
    if not math.isfinite(final):
        return False
    if initial == 0.0:
        return all(v == 0.0 for v in vals)
    if not math.isfinite(initial):
        return False
    if final > 1e-3 * initial:
        return False
    tail = vals[len(vals) // 2:]
    if not all(math.isfinite(v) for v in tail):
        return False
    return all(tail[i + 1] <= tail[i] * (1 + 1e-9) + 1e-300
               for i in range(len(tail) - 1))


@dataclass(frozen=True)
class ModularReport:
    lambda_grid: tuple
    indices: tuple
    value_modulars: np.ndarray          # index x lambda
    gradient_modulars: np.ndarray
    modular_values: np.ndarray          # combined trajectory per (index, lambda)
    converging_lambdas: tuple
    norm_convergence: bool
    smallest_converging_lambda: float

    def rows_non_increasing_in_lambda(self, slack: float = 1e-7) -> bool:
        m = np.asarray(self.modular_values, dtype=float)
        prev, cur = m[:, :-1], m[:, 1:]
        with np.errstate(over="ignore"):  # inf, as for floats
            rises = cur > prev * (1 + slack) + 1e-300
        return not np.any(np.isfinite(prev) & np.isfinite(cur) & rises)


def modular_convergence(seq: Sequence[TestFunction], limit: TestFunction,
                        y: YoungFunction, box: BoxDomain,
                        lambda_grid: Sequence[float],
                        indices: Optional[Sequence[int]] = None,
                        rel_tol: float = 1e-8) -> ModularReport:
    """Evaluate difference modulars along a sequence and decide per lambda
    whether the trajectory vanishes; norm convergence means every lambda in
    the grid converges."""
    for lam in lambda_grid:
        _check("modular_convergence", "lambda", lam, 0.0)
    lams = tuple(float(l) for l in lambda_grid)
    if not lams or list(lams) != sorted(lams):
        raise YoungError("lambda grid must be positive and increasing")
    idx = tuple(indices) if indices is not None else tuple(range(1, len(seq) + 1))
    if not seq:
        raise YoungError("modular convergence needs at least one index")
    if len(idx) != len(seq):
        raise YoungError("indices must align with the sequence")

    diffs = [u - limit for u in seq]
    K, L = len(seq), len(lams)
    value_m = np.zeros((K, L))
    grad_m = np.zeros((K, L))
    scales = np.array(lams)
    for i, d in enumerate(diffs):  # one pass over the lambda grid per modular
        value_m[i] = _integrate_rows(_integrand(d, y, False), scales, box, rel_tol)
        grad_m[i] = _integrate_rows(_integrand(d, y, True), scales, box, rel_tol)
    combined = value_m + grad_m

    converging = tuple(lams[j] for j in range(L) if trajectory_converges(combined[:, j]))
    return ModularReport(
        lambda_grid=lams,
        indices=idx,
        value_modulars=value_m,
        gradient_modulars=grad_m,
        modular_values=combined,
        converging_lambdas=converging,
        norm_convergence=len(converging) == L,
        smallest_converging_lambda=min(converging) if converging else INF,
    )
