"""n-dimensional Young functions and their anisotropic conjugates.

An n-dimensional Young function is convex, even, lower semicontinuous,
vanishes at the origin, and blows up along every ray.  The radial function
with the same sublevel-set measures reduces everything one needs for Sobolev
conjugation to the one-dimensional machinery; orthotropic sums admit the
closed-form reduction through the geometric mean of the component inverses.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cache, cached_property, partial
from typing import Callable, Optional, Sequence

import numpy as np

from ._quad import gauss_legendre
from .conjugate import SobolevConjugate, sobolev_conjugate
from .nemytskii import Envelope
from .young import (
    INF,
    ConstructionError,
    FromInverse,
    GrowthOrder,
    YoungError,
    YoungFunction,
    _U_MAX,
    _log_root,
    _log_root_many,
)


class NDimYoung:
    """Base class for Young functions of a vector argument."""

    n: int

    def __call__(self, xi) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def values(self, points) -> np.ndarray:
        """One value per row of an (m, n) array of points."""
        return np.array([self(p) for p in np.asarray(points, dtype=float)], dtype=float)

    def scalar_profile(self) -> YoungFunction:
        raise YoungError(f"{type(self).__name__} has no scalar reduction")

    def nondegenerate(self, probe_radius: float = 1e-3) -> bool:
        for i in range(self.n):
            e = np.zeros(self.n)
            e[i] = probe_radius
            if self(e) <= 0.0:
                return False
        return True


@dataclass(frozen=True, eq=False)
class Isotropic(NDimYoung):
    """A(|xi|)."""

    a: YoungFunction
    n: int = 2

    def __call__(self, xi) -> float:
        xi = np.asarray(xi, dtype=float)
        if np.any(np.isinf(xi)):
            return INF
        return self.a(float(np.linalg.norm(xi)))

    def values(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        out = self.a.values(np.linalg.norm(points, axis=1))
        out[np.isinf(points).any(axis=1)] = INF
        return out

    def scalar_profile(self) -> YoungFunction:
        return self.a


@dataclass(frozen=True, eq=False)
class Orthotropic(NDimYoung):
    """sum_i A_i(|xi_i|), splitting along the coordinate axes."""

    components: tuple

    @property
    def n(self) -> int:
        return len(self.components)

    def __call__(self, xi) -> float:
        xi = np.asarray(xi, dtype=float)
        total = 0.0
        for a, x in zip(self.components, xi):
            if math.isinf(x):
                return INF
            v = a(abs(float(x)))
            if v == INF:
                return INF
            total += v
        return total

    def values(self, points) -> np.ndarray:
        pts = np.abs(np.asarray(points, dtype=float))
        gone = np.isinf(pts).any(axis=1)
        pts[gone] = 0.0
        out = np.zeros(len(pts))
        for a, col in zip(self.components, pts.T):
            out += a.values(col)
        out[gone] = INF
        return out

    def scalar_profile(self) -> YoungFunction:
        return self._bar

    @cached_property
    def _bar(self) -> YoungFunction:  # built once, on first use
        return orthotropic_bar(self.components)


@dataclass(frozen=True, eq=False)
class LinearImage(NDimYoung):
    """sum_i A_i(|M_i xi|), each M_i a nonsingular matrix."""

    terms: tuple  # of (matrix, YoungFunction)
    n: int

    def __post_init__(self):
        for m, _ in self.terms:
            m = np.asarray(m, dtype=float)
            if m.shape != (self.n, self.n) or abs(np.linalg.det(m)) < 1e-14:
                raise YoungError("linear-image matrices must be square and nonsingular")

    def __call__(self, xi) -> float:
        xi = np.asarray(xi, dtype=float)
        if np.any(np.isinf(xi)):
            return INF
        total = 0.0
        for m, a in self.terms:
            v = a(float(np.linalg.norm(np.asarray(m) @ xi)))
            if v == INF:
                return INF
            total += v
        return total

    def values(self, points) -> np.ndarray:
        pts = np.array(points, dtype=float)
        gone = np.isinf(pts).any(axis=1)
        pts[gone] = 0.0
        out = np.zeros(len(pts))
        for m, a in self.terms:
            with np.errstate(over="ignore", invalid="ignore"):  # huge rows read inf
                r = np.linalg.norm(pts @ np.asarray(m, dtype=float).T, axis=1)
            out += a.values(r)
        out[gone] = INF
        return out


@dataclass(frozen=True, eq=False)
class BlackBox(NDimYoung):
    """Opaque evaluator; only volume-based machinery applies."""

    fn: Callable[[np.ndarray], float]
    n: int

    def __call__(self, xi) -> float:
        xi = np.asarray(xi, dtype=float)
        if np.any(np.isinf(xi)):
            return INF
        return float(self.fn(xi))


# ---------------------------------------------------------------------------
# Orthotropic reduction
# ---------------------------------------------------------------------------

def orthotropic_bar(components: Sequence[YoungFunction]) -> YoungFunction:
    """The Young function whose inverse is the geometric mean of the
    component inverses."""
    comps = tuple(components)
    if not comps:
        raise YoungError("need at least one component")
    n = len(comps)
    for a in comps:
        if a.inverse(1e6) <= 0.0 or a.inverse(1e-6) == INF:
            raise ConstructionError("a component inverse is degenerate")

    def inv(t: float) -> float:
        if t <= 0.0:
            return 0.0
        acc = 0.0
        for a in comps:
            v = a.inverse(t)
            if v == INF:
                return INF
            if v <= 0.0:
                return 0.0
            acc += math.log(v)
        return math.exp(acc / n)

    def inv_many(ts: np.ndarray) -> np.ndarray:
        vs = np.array([a.inverse_values(ts) for a in comps])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = np.exp(np.log(vs).sum(axis=0) / n)  # log 0 and inf: set below
        # the first component at 0 or inf decides, as in ``inv``
        stop = (vs == INF) | (vs <= 0.0)
        cut = np.flatnonzero(stop.any(axis=0))
        out[cut] = np.where(vs[stop.argmax(axis=0)[cut], cut] == INF, INF, 0.0)
        return out

    def mean_order(orders) -> Optional[GrowthOrder]:
        if all(o is not None and o.family == "poly" and o.log_exp == 0 and o.loglog_exp == 0
               for o in orders):
            return GrowthOrder(bar_p([o.power for o in orders]))
        return None

    return FromInverse(inv_fn=inv, zero=mean_order([a.zero_order for a in comps]),
                       inf_=mean_order([a.inf_order for a in comps]), label="orthotropic-mean",
                       inv_many=inv_many)


def bar_p(ps: Sequence[float]) -> float:
    """Exponent mean: 1/pbar = (1/n) sum 1/p_i."""
    ps = list(ps)
    if not ps or any(p < 1 for p in ps):
        raise YoungError("exponents must satisfy p_i >= 1")
    return len(ps) / sum(1.0 / p for p in ps)


# ---------------------------------------------------------------------------
# Sublevel-set volumes and the measure rearrangement
# ---------------------------------------------------------------------------

def _read_only(*arrays) -> tuple:
    for a in arrays:
        a.setflags(write=False)
    return arrays


@cache
def _half_sphere_rule(n: int, m: int) -> tuple:
    """Directions (k, n) and weights w (k,) such that sum(w * rho ** n) is
    the volume of a set, even about 0, with radial function rho: an m-node
    Gauss-Legendre rule on each piece of the half sphere cut by the
    coordinate planes, where rho has its kinks.  Cached; read-only."""
    if n == 1:
        return _read_only(np.ones((1, 1)), np.array([2.0]))
    x, w = gauss_legendre(m)
    quarter, wq = 0.25 * math.pi * (x + 1.0), 0.25 * math.pi * w  # on [0, pi/2]
    if n == 2:  # vol = int_0^pi rho^2 d theta
        ang = np.concatenate([quarter, quarter + 0.5 * math.pi])
        return _read_only(np.stack([np.cos(ang), np.sin(ang)], axis=-1), np.tile(wq, 2))
    # vol = (2/3) int_0^{pi/2} int_0^{2 pi} rho^3 sin(a) d phi d a, a the polar
    # angle; in z = cos(a) the pole would be a square-root singularity
    a, az = np.meshgrid(quarter, (quarter + 0.5 * math.pi * np.arange(4)[:, None]).ravel(),
                        indexing="ij")
    dirs = np.stack([np.sin(a) * np.cos(az), np.sin(a) * np.sin(az), np.cos(a)], axis=-1)
    wts = (2.0 / 3.0) * np.sin(a) * np.outer(wq, np.tile(wq, 4))
    return _read_only(dirs.reshape(-1, 3), wts.ravel())


def _values_of(phi) -> Callable[[np.ndarray], np.ndarray]:
    """``phi.values``, or the row loop of ``NDimYoung.values`` for an object
    that has only ``n`` and ``__call__``."""
    values = getattr(phi, "values", None)
    return values if values is not None else partial(NDimYoung.values, phi)


def _ray_extents(phi: NDimYoung, levels: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """sup{s : phi(s p) <= level} for each row p of ``pts`` at its entry of
    ``levels``, all rows in one batched search; rays from the origin are
    monotone.  An extent above 1e10 raises: the set is unbounded."""
    values = _values_of(phi)

    def along(s: np.ndarray, rows: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):  # an inf coordinate reads phi = inf
            x = s[:, None] * pts[rows]
        return values(x)

    rho = _log_root_many(along, levels, False)[1]
    if np.any(rho > 1e10):
        raise YoungError("sublevel set is unbounded at this level")
    return rho


def _polar_volumes(phi: NDimYoung, levels, max_depth: int, rel_tol: float) -> tuple:
    """The polar volumes and errors of ``sublevel_volume`` for every entry of
    ``levels`` at once, as arrays.  The axis probes of all levels are one
    batched ray search, and each rule doubling one more over the rays of the
    levels still open; every level keeps its own stop, so its volume does not
    depend on the levels that share its searches."""
    n = phi.n
    t = np.asarray(levels, dtype=float).ravel()
    vol, err = np.zeros(t.size), np.zeros(t.size)
    live = np.flatnonzero(t > 0.0)
    # exact axis probes catch sets unbounded along a coordinate axis
    axes = _ray_extents(phi, np.repeat(t[live], n),
                        np.tile(np.eye(n), (live.size, 1))).reshape(-1, n)
    # in units of the axis extents the set is rounder and its rays near 1
    scale, last = axes.prod(axis=1), np.full(live.size, INF)
    err[live] = INF
    rows = np.arange(live.size)  # the levels still open
    for depth in range(max_depth + 1):
        if not rows.size:
            break
        dirs, w = _half_sphere_rule(n, 2 << depth)
        pts = (axes[rows, None, :] * dirs).reshape(-1, n)
        rho = _ray_extents(phi, np.repeat(t[live[rows]], len(dirs)), pts)
        q = scale[rows] * (rho.reshape(rows.size, -1) ** n * w).sum(axis=1)
        done = np.zeros(rows.size, dtype=bool)
        if depth:
            diff = np.abs(q - vol[live[rows]])
            # two rules can agree by accident before they resolve the set,
            # so the error is the larger of the last two differences
            e = np.maximum(last[rows], diff) + n * 1e-12 * q
            done = e <= rel_tol * q
            err[live[rows]], last[rows] = e, diff
        vol[live[rows]] = q
        rows = rows[~done]
    return vol, err


def sublevel_volume(phi: NDimYoung, level: float, max_depth: int = 12,
                    rel_tol: float = 1e-3, method: str = "polar",
                    mc_samples: int = 1_000_000, seed: int = 0):
    """Lebesgue measure of {phi <= level} for n <= 3: (volume, error).

    Polar method: the set is star-shaped about 0, so its volume is
    (1/n) int rho^n over the unit sphere, rho its radial function.  Half the
    sphere suffices (phi is even); it is cut at the coordinate planes, where
    rho has kinks, and each piece gets a Gauss-Legendre rule of N = 2, 4,
    8, ... nodes per axis, in coordinates scaled by the extents along the
    axes.  The error is the larger of |Q_N/2 - Q_N| and |Q_N - Q_2N|, plus
    n 1e-12 Q_2N for the accuracy of the ray extents; Q_2N is returned once
    the error is at most ``rel_tol`` Q_2N.  ``max_depth`` caps the doublings;
    a call stopped there returns an error above ``rel_tol`` times the volume.
    All rays of one rule are found in one batched root search; the volume
    table of the radial rearrangement runs many levels through the same
    searches.  ``phi`` needs only ``n`` and ``__call__``; its ``values``,
    where it has one, evaluates the rays a search step at a time.

    Monte Carlo ("mc") samples a padded box around the largest ray extent
    found, along the axes and a 16-node rule, and returns its standard error.
    """
    n = phi.n
    if n > 3:
        raise YoungError("volume computation supports n <= 3")
    if method not in ("polar", "mc"):
        raise YoungError(f"unknown volume method {method!r}")
    if level <= 0.0:
        return 0.0, 0.0
    if method == "polar":
        vol, err = _polar_volumes(phi, [level], max_depth, rel_tol)
        return float(vol[0]), float(err[0])
    pts = np.concatenate([np.eye(n), _half_sphere_rule(n, 16)[0]])
    # the largest extent found is not the largest there is: pad the box
    rho = 1.05 * float(_ray_extents(phi, np.full(len(pts), float(level)), pts).max())
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-rho, rho, size=(mc_samples, n))
    frac = np.count_nonzero(_values_of(phi)(pts) <= level) / mc_samples
    box_vol = (2 * rho) ** n
    se = box_vol * math.sqrt(max(frac * (1 - frac), 1e-12) / mc_samples)
    return frac * box_vol, se


_OMEGA = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}


def _circ_radii(phi: NDimYoung, ts, max_depth: int = 12, rel_tol: float = 1e-3) -> np.ndarray:
    """The volume route of ``phi_circ`` at every level of ``ts`` at once."""
    if phi.n > 3:
        raise YoungError("volume computation supports n <= 3")
    vol, _ = _polar_volumes(phi, ts, max_depth, rel_tol)
    return (vol / _OMEGA[phi.n]) ** (1.0 / phi.n)


def phi_circ(phi: NDimYoung, t: float, method: str = "auto", **vol_kwargs) -> float:
    """Inverse of the radial rearrangement: the radius whose ball has the
    sublevel-set volume of {phi <= t}.

    Isotropic and orthotropic forms use their scalar reductions directly;
    anything else goes through the polar volume (n <= 3), with
    ``sublevel_volume``'s ``max_depth`` and ``rel_tol``.
    """
    if t < 0:
        raise YoungError("level must be nonnegative")
    if method != "volume":
        if isinstance(phi, Isotropic):
            return phi.a.inverse(t)
        if isinstance(phi, Orthotropic):
            return phi.scalar_profile().inverse(t)
    if t == 0.0:
        return 0.0
    return float(_circ_radii(phi, [t], **vol_kwargs)[0])


class _ChordTable(YoungFunction):
    """A Young function whose inverse is piecewise linear in (ln t, ln r)
    through the nodes (ts, rs), extended along the end chords: the inverse
    interpolates the nodes as ``np.interp`` does, bit for bit, and the
    forward map reads the same chords the other way, in closed form."""

    kind = "radial_rearrangement"

    def __init__(self, ts: np.ndarray, rs: np.ndarray):
        lts, lrs = np.log(ts).tolist(), np.log(rs).tolist()
        # np.interp's chord slopes inside the table (its value, bit for bit,
        # with no per-call array setup); the end chords extend beyond it
        slopes = [(r1 - r0) / (t1 - t0) for t0, t1, r0, r1 in zip(lts, lts[1:], lrs, lrs[1:])]
        slopes.append(slopes[-1])
        self._inv = (lts, lrs, slopes)  # ln t to ln r, and back
        self._fwd = (lrs, lts, [1.0 / k for k in slopes])
        self._inv_a, self._fwd_a = (tuple(map(np.array, c)) for c in (self._inv, self._fwd))
        self._zero = GrowthOrder(1.0 / slopes[0]) if slopes[0] > 1e-9 else None
        self._inf = GrowthOrder(1.0 / slopes[-1]) if slopes[-1] > 1e-9 else None

    @staticmethod
    def _read(x: float, chords: tuple) -> float:
        if x <= 0.0:
            return 0.0
        xs, ys, slopes = chords
        lx = math.log(x)
        j = max(bisect.bisect_right(xs, lx) - 1, 0)
        y = slopes[j] * (lx - xs[j]) + ys[j]
        return INF if y > _U_MAX else math.exp(y)

    @staticmethod
    def _read_many(x, chords: tuple) -> np.ndarray:
        x = np.asarray(x, dtype=float).ravel()
        xs, ys, slopes = chords
        with np.errstate(divide="ignore"):
            lx = np.log(np.maximum(x, 0.0))  # -inf at 0 reads 0
        j = np.maximum(np.searchsorted(xs, lx, side="right") - 1, 0)
        with np.errstate(over="ignore"):
            out = np.exp(slopes[j] * (lx - xs[j]) + ys[j])
        out[x <= 0.0] = 0.0
        return out

    def __call__(self, r: float) -> float:
        return self._read(r, self._fwd)

    def values(self, rs: np.ndarray) -> np.ndarray:
        return self._read_many(rs, self._fwd_a)

    def inverse(self, t: float) -> float:
        return self._read(t, self._inv)

    def inverse_values(self, ts: np.ndarray) -> np.ndarray:
        return self._read_many(ts, self._inv_a)

    @property
    def zero_order(self):
        return self._zero

    @property
    def inf_order(self):
        return self._inf


def _phi_circ_young(phi: NDimYoung, t_lo: float = 1e-3, t_hi: float = 1e4,
                    points: int = 25, **vol_kwargs) -> YoungFunction:
    """Tabulated radial rearrangement as a Young function (volume route).

    The polar volumes of all ``points`` levels run together: one batched ray
    search for the axis probes of every level and one per rule doubling over
    the levels still open, each level with the stop of ``sublevel_volume``.
    The table reads back in closed form, both ways (``_ChordTable``)."""
    ts = np.geomspace(t_lo, t_hi, points)
    rs = _circ_radii(phi, ts, **vol_kwargs)
    if np.any(rs <= 0) or np.any(np.diff(np.log(rs)) <= 0):
        raise ConstructionError("volume table is not strictly increasing")
    return _ChordTable(ts, rs)


def phi_n(phi: NDimYoung, n: Optional[int] = None, method: str = "auto",
          **vol_kwargs) -> SobolevConjugate:
    """One-dimensional Sobolev conjugate driven by the radial rearrangement.

    Orthotropic inputs reduce through the geometric-mean function; the volume
    route serves black-box or cross-validation use.
    """
    n = phi.n if n is None else n
    if n != phi.n:
        raise YoungError("conjugate exponent must match the dimension")
    if method != "volume":
        if isinstance(phi, Isotropic):
            return sobolev_conjugate(phi.a, n)
        if isinstance(phi, Orthotropic):
            return sobolev_conjugate(phi.scalar_profile(), n)
    circ = _phi_circ_young(phi, **vol_kwargs)
    return sobolev_conjugate(circ, n)


# ---------------------------------------------------------------------------
# The implicit coupling with a derivative envelope
# ---------------------------------------------------------------------------

class ThetaSolver:
    """Root of Phi_n(theta) = Phi(xi / E(theta)) for each xi.

    The left side is continuous and strictly increasing from 0 to infinity
    (this needs the defining integral to diverge at infinity), the right side
    is non-increasing in theta, so the root is unique.  Both paths run the
    log-space root finder on the ratio Phi_n / Phi(xi / E): they search
    theta >= the smallest scale with E > 0, read a right side below the
    smallest normal float as 0, and stop once the bracket is within 1e-13
    of its upper end.  A root above 2**120 max(that scale, 1) fails to
    bracket and a theta whose sides differ by more than 1e-6 (1 + Phi_n)
    fails the residual check; both raise YoungError.
    """

    _TINY = np.finfo(float).tiny  # the smallest normal float

    def __init__(self, phi: NDimYoung, envelope: Callable[[float], float],
                 n: Optional[int] = None, conj: Optional[SobolevConjugate] = None):
        if not phi.nondegenerate():
            raise YoungError("theta needs a nondegenerate vector Young function")
        self.phi = phi
        self.envelope = (envelope if isinstance(envelope, Envelope)
                         else Envelope.custom(envelope))
        self.conj = conj if conj is not None else phi_n(phi, n)
        if self.conj.h_limit != INF:
            raise YoungError(
                "conjugate saturates at a finite level; theta is not defined")
        # smallest scale at which the envelope is positive
        envelope, t = self.envelope, 0.0
        if envelope(0.0) <= 0.0:
            t = 1e-12
            while envelope(t) <= 0.0 and t < 1e12:
                t *= 2.0
            if envelope(t) <= 0.0:
                raise YoungError("envelope is identically zero")
        self._t_pos = t
        self._cap = 2.0 ** 120 * max(t, 1.0)

    def _rhs_many(self, xis: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """Phi(xi / E(t)) for nonzero rows ``xis`` at scales ``ts``, 0 where
        it is below the smallest normal float."""
        e = self.envelope.values(ts)
        out = np.full(len(ts), INF)
        pos = e > 0.0
        out[pos] = self.phi.values(xis[pos] / e[pos, None])
        out[out < self._TINY] = 0.0
        return out

    @staticmethod
    def _check(xis: np.ndarray, lhs: np.ndarray, rhs: np.ndarray, unbracketed):
        """Raise for the first row of ``xis`` whose theta does not solve it:
        one of the rows ``unbracketed``, or one whose sides ``lhs`` and
        ``rhs`` at its theta fail the residual check."""
        with np.errstate(invalid="ignore"):
            bad = (np.isfinite(lhs) & np.isfinite(rhs)
                   & (np.abs(lhs - rhs) > 1e-6 * (1.0 + lhs)))
        bad[unbracketed] = True
        if bad.any():
            i = int(np.argmax(bad))
            xi = xis[i]
            if i in unbracketed:
                raise YoungError(f"failed to bracket the theta root at xi={xi!r}")
            raise YoungError(f"theta residual too large at xi={xi!r}: "
                             f"{float(lhs[i])} vs {float(rhs[i])}")

    def solve(self, xi) -> float:
        xi = np.asarray(xi, dtype=float)
        if not np.any(xi):
            return 0.0
        an = self.conj.an_value
        lo0, cap = self._t_pos, self._cap

        def ratio(t: float) -> float:
            # increasing in t, and below 1 exactly where an < rhs
            if t < lo0:
                return 0.0
            e = self.envelope(t)
            a, r = an(t), (self.phi(xi / e) if e > 0.0 else INF)
            r = 0.0 if r < self._TINY else r
            return a / r if a < r or 0.0 < r < INF else INF

        if lo0 > 0.0 and ratio(lo0) >= 1.0:
            # root sits inside the zero-envelope plateau edge
            return lo0
        lo, hi = _log_root(ratio, 1.0, True, rel_tol=1e-13)
        theta = 0.5 * (lo + hi)
        self._check(xi[None], np.array([an(theta)]),
                    self._rhs_many(xi[None], np.array([theta])), [0] if hi > cap else [])
        return theta

    def solve_many(self, xis) -> np.ndarray:
        """``solve`` for every row of an (m, n) array, all rows in one batched
        search under the same ratio, stop and check: the first bad row
        raises ``solve``'s error."""
        xis = np.asarray(xis, dtype=float)
        theta = np.zeros(len(xis))
        rows = np.flatnonzero(np.any(xis, axis=1))
        lo0 = self._t_pos
        if lo0 > 0.0 and rows.size:
            at_lo = (self._rhs_many(xis[rows], np.full(rows.size, lo0))
                     <= self.conj.an_value(lo0))
            theta[rows[at_lo]] = lo0
            rows = rows[~at_lo]
        an, xs = self.conj.an_values, xis[rows]

        def ratio(ts: np.ndarray, r: np.ndarray) -> np.ndarray:
            # solve's ratio for the rows r of xs
            out = np.zeros(ts.size)
            up = ts >= lo0
            a, b = an(ts[up]), self._rhs_many(xs[r[up]], ts[up])
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                out[up] = np.where((a < b) | ((0.0 < b) & (b < INF)), a / b, INF)
            return out

        lo, hi = _log_root_many(ratio, np.ones(rows.size), True, rel_tol=1e-13)
        th = 0.5 * (lo + hi)
        self._check(xs, an(th), self._rhs_many(xs, th), np.flatnonzero(hi > self._cap))
        theta[rows] = th
        return theta


def solve_theta(phi: NDimYoung, envelope: Callable[[float], float], n: int,
                xi, conj: Optional[SobolevConjugate] = None) -> float:
    """One-shot theta solve; build a ThetaSolver for repeated queries."""
    return ThetaSolver(phi, envelope, n, conj=conj).solve(xi)
