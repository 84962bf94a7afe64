"""Modular integrals, Luxemburg norms, and convergence diagnostics.

Scalar fields live on axis-aligned boxes in dimension 1 to 3 and are supplied
with analytic gradients.  Integration uses nested adaptive Gauss panels with
geometric refinement toward faces declared singular; a panel trend of one
sign that stops decaying is reported as a divergent integral, +inf or -inf
with that sign, rather than ground through endless refinement.

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
from .young import INF, YoungError, YoungFunction, _log_root


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


def sup_norm(u: TestFunction, box: BoxDomain, samples_per_axis: int = 2049) -> float:
    """Grid supremum of |u|; adequate for the analytic corpus functions."""
    axes = [np.linspace(lo, hi, samples_per_axis if box.n == 1 else 129)
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
    the integral (see ``_toward_face``)."""
    total, prev, prev_extrapolated = 0.0, None, math.nan  # nan: no estimate yet
    for j in itertools.count():
        I = yield
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
            return total
        prev = I


def _toward_face(F, idx: np.ndarray, a: float, b: float, rel_tol: float) -> np.ndarray:
    """Integrals over (a, b] of rows ``idx`` of ``F``, each with a possible
    singularity at a; ``F(xs, rows)`` also takes one row of nodes per row.

    The panels (a + w 2^-j-1, a + w 2^-j], w = b - a, shrink toward the face.
    Their integrals must eventually keep one sign and decay geometrically,
    and the tail is then summed by ratio extrapolation; a non-decaying trend
    of one sign certifies divergence, +inf or -inf with that sign.  One
    ``quad_rows`` call takes ``_FACE_BATCH`` panels of every open row, each
    pair mapped onto [0, 1] with the panel width as Jacobian.
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
        for r, panel_vals in zip(open_rows, vals.reshape(-1, len(x0)).tolist()):
            try:
                for I in panel_vals:
                    walks[r].send(I)
            except StopIteration as done:
                out[r] = done.value
                del walks[r]
        if not walks:
            return out
    raise QuadratureError("no convergence or divergence signature at singular face")


def integrate_box(fn: Callable[[np.ndarray], np.ndarray], box: BoxDomain,
                  rel_tol: float = 1e-8,
                  truncation_radius: Optional[float] = None) -> float:
    """Nested adaptive integration of fn over the box; +inf or -inf, with
    its sign, on certified divergence toward a singular face.

    ``fn`` is a batch integrand: it maps an (m, n) array of points to their
    (m,) values.  Axis i is integrated for all points of the outer axes at
    once, so each panel of the innermost axis is one call of ``fn``.  An
    axis with a singular face is integrated by geometric panels toward the
    face, for all points of the outer axes and several panels at once.

    Half-infinite boxes are refused unless a truncation radius is supplied;
    the result is then the integral over the clipped box (a lower bound for
    nonnegative integrands), with the tail left to the caller's decay bound.
    """
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

    def level(i: int, prefix: np.ndarray) -> np.ndarray:
        """Integrals over axes i.. for each row of the (m, i) outer points."""
        if i == n:
            return np.asarray(fn(prefix), dtype=float)

        def grid(rows, xs):
            pts = np.empty((len(rows), xs.shape[1], i + 1))
            pts[:, :, :i] = rows[:, None, :]
            pts[:, :, i] = xs
            return level(i + 1, pts.reshape(-1, i + 1)).reshape(xs.shape)

        def block(xs, idx):
            """Rows ``idx`` at nodes xs: shared, or one row of nodes per row."""
            rows = prefix[idx]
            xs = np.broadcast_to(xs, (len(rows), np.shape(xs)[-1]))
            step = max(1, _BLOCK_POINTS // xs.shape[1])
            return np.concatenate([grid(rows[s:s + step], xs[s:s + step])
                                   for s in range(0, len(rows), step)])

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

    return float(level(0, np.empty((1, 0)))[0])


# ---------------------------------------------------------------------------
# Modulars and Luxemburg norms
# ---------------------------------------------------------------------------

def modular_integral(u: TestFunction, y: YoungFunction, lam: float,
                     box: BoxDomain, rel_tol: float = 1e-8,
                     truncation_radius: Optional[float] = None) -> float:
    """int_box A(|u(x)| / lambda) dx, +inf allowed."""
    if lam <= 0:
        raise YoungError("modular scale lambda must be positive")
    return integrate_box(lambda X: y.values(np.abs(u.values(X)) / lam), box,
                         rel_tol, truncation_radius=truncation_radius)


def modular_integral_gradient(u: TestFunction, y, lam: float,
                              box: BoxDomain, rel_tol: float = 1e-8) -> float:
    """Gradient modular; isotropic A acts on |grad u|, an n-dimensional
    Young function acts on the full gradient vector."""
    if lam <= 0:
        raise YoungError("modular scale lambda must be positive")
    from .aniso import NDimYoung  # local import avoids a hard dependency
    if isinstance(y, NDimYoung):
        return integrate_box(lambda X: y.values(u.gradients(X) / lam), box, rel_tol)
    return integrate_box(
        lambda X: y.values(np.linalg.norm(u.gradients(X), axis=1) / lam), box, rel_tol)


def luxemburg_norm(u: TestFunction, y: YoungFunction, box: BoxDomain,
                   gradient: bool = False, rel_tol: float = 1e-8,
                   lam_cap: float = 1e12) -> float:
    """inf{lambda > 0 : modular(u/lambda) <= 1}, to 1e-11 relative.

    ``young._log_root`` finds where the modular at lambda = 1/s, which
    increases in s, crosses 1; a lambda where it equals 1 exactly ends the
    search.  The search is held to lambda in [1e-12, lam_cap], and the
    modular at an end, computed once, decides every point past it: a norm
    above ``lam_cap`` reads inf, one below 1e-12 reads 0.
    """
    s_lo, s_hi = 1.0 / lam_cap, 1e12

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

def trajectory_converges(values: Sequence[float], tail_tol: float = 1e-3) -> bool:
    """Finite-index proxy for a vanishing limit: the tail must be monotone
    non-increasing and the final value at most tail_tol of the initial one."""
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
    if final > tail_tol * initial:
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
    gradient_modulars: Optional[np.ndarray]
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
                        include_gradient: bool = True,
                        rel_tol: float = 1e-8,
                        tail_tol: float = 1e-3) -> ModularReport:
    """Evaluate difference modulars along a sequence and decide per lambda
    whether the trajectory vanishes; norm convergence means every lambda in
    the grid converges."""
    lams = tuple(float(l) for l in lambda_grid)
    if not lams or any(l <= 0 for l in lams) or list(lams) != sorted(lams):
        raise YoungError("lambda grid must be positive and increasing")
    idx = tuple(indices) if indices is not None else tuple(range(1, len(seq) + 1))
    if len(idx) != len(seq):
        raise YoungError("indices must align with the sequence")

    diffs = [u - limit for u in seq]
    K, L = len(seq), len(lams)
    value_m = np.zeros((K, L))
    grad_m = np.zeros((K, L)) if include_gradient else None
    for i, d in enumerate(diffs):
        for j, lam in enumerate(lams):
            value_m[i, j] = modular_integral(d, y, lam, box, rel_tol)
            if include_gradient:
                grad_m[i, j] = modular_integral_gradient(d, y, lam, box, rel_tol)
    combined = value_m + grad_m if include_gradient else value_m.copy()

    converging = tuple(lams[j] for j in range(L)
                       if trajectory_converges(combined[:, j], tail_tol))
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
