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
    Power,
    YoungError,
    YoungFunction,
    _U_MAX,
    _log_root,
    _log_root_many,
)


class NDimYoung:
    """Base class for Young functions of a vector argument: ``__call__`` takes
    a vector of length ``n``, ``values`` an (m, n) array; other shapes raise.
    ``ray`` and ``rays`` read Phi(xi / e) for a fixed xi, its own work done once."""

    n: int
    finite_jump: Optional[float] = None  # the least jump to +inf of a scalar part

    def __call__(self, xi) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def _checked(self, x, rows: bool = False) -> np.ndarray:
        """``x`` as a float array: a vector of length ``n``, or (m, n) ``rows``."""
        x = np.asarray(x, dtype=float)
        if x.shape[rows:] != (self.n,):
            raise YoungError(f"{type(self).__name__} takes vectors of length {self.n}, "
                             f"not an array of shape {x.shape}")
        return x

    def values(self, points) -> np.ndarray:
        """One value per row of an (m, n) array of points."""
        return np.array([self(p) for p in np.asarray(points, dtype=float)], dtype=float)

    def ray(self, xi) -> Callable[[float], float]:
        """e -> Phi(xi / e) for a float e > 0."""
        xi = np.asarray(xi, dtype=float)
        return np.errstate(over="ignore")(lambda e: self(xi / e))

    def rays(self, xis) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """(rows, es) -> Phi(xis[rows] / es) row by row, for an (m, n) ``xis``."""
        xis = np.asarray(xis, dtype=float)
        return np.errstate(over="ignore")(lambda rows, es: self.values(xis[rows] / es[:, None]))

    def scalar_profile(self) -> YoungFunction:
        raise YoungError(f"{type(self).__name__} has no scalar reduction")

    def nondegenerate(self) -> bool:
        for i in range(self.n):
            e = np.zeros(self.n)
            e[i] = 1e-3
            if self(e) <= 0.0:
                return False
        return True


@dataclass(frozen=True, eq=False)
class Isotropic(NDimYoung):
    """A(|xi|)."""

    a: YoungFunction
    n: int = 2

    def __call__(self, xi) -> float:
        xi = np.asarray(xi, dtype=float).ravel(order="K")
        if xi.size != self.n:
            self._checked(xi)  # raises
        # np.linalg.norm(xi) squared, bit for bit: vdot runs dot's kernel but
        # does not check the overflow flag, so a huge row reads inf quietly
        r2 = float(np.vdot(xi, xi))
        if not r2 < INF and np.isinf(xi).any():  # inf, or inf and nan
            return INF
        return self.a(math.sqrt(r2))

    def values(self, points) -> np.ndarray:
        points = self._checked(points, rows=True)
        with np.errstate(over="ignore"):  # huge rows read inf
            r = np.linalg.norm(points, axis=1)
        out = self.a.values(r)
        out[np.isinf(points).any(axis=1)] = INF
        return out

    def ray(self, xi) -> Callable[[float], float]:
        """A(r / e), r = |xi| once, by ``math.hypot``: no overflow where xi / e has none."""
        x, a = self._checked(xi).tolist(), self.a
        r = math.hypot(*x)
        if r != r:  # a nan entry: inf where another entry of xi / e is, as in __call__
            top = max([abs(v) for v in x if v == v], default=0.0)
            return lambda e: INF if top / e == INF else a(r / e)
        return lambda e: a(r / e)

    def rays(self, xis) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """``ray`` on rows, with ``np.hypot``."""
        xis = np.abs(self._checked(xis, rows=True))
        big = np.fmax.reduce(xis, axis=1)
        with np.errstate(over="ignore"):  # a huge row reads inf
            r = np.hypot.reduce(xis, axis=1)

        def along(rows: np.ndarray, es: np.ndarray) -> np.ndarray:  # nan rows as in ``ray``
            return np.where(big[rows] / es == INF, INF, self.a.values(r[rows] / es))

        return np.errstate(over="ignore")(along)

    def scalar_profile(self) -> YoungFunction:
        return self.a

    @property
    def finite_jump(self) -> Optional[float]:
        return self.a.finite_jump


@dataclass(frozen=True, eq=False)
class Orthotropic(NDimYoung):
    """sum_i A_i(|xi_i|), splitting along the coordinate axes."""

    components: tuple

    @property
    def n(self) -> int:
        return len(self.components)

    def __call__(self, xi) -> float:
        xi = self._checked(xi)
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
        pts = np.abs(self._checked(points, rows=True))
        gone = np.isinf(pts).any(axis=1)
        pts[gone] = 0.0
        out = np.zeros(len(pts))
        for a, col in zip(self.components, pts.T):
            out += a.values(col)
        out[gone] = INF
        return out

    def scalar_profile(self) -> YoungFunction:
        """``orthotropic_bar`` of the components: a closed-form ``Power`` for powers."""
        return self._bar

    @property
    def finite_jump(self) -> Optional[float]:
        return min((a.finite_jump for a in self.components if a.finite_jump is not None),
                   default=None)

    @cached_property
    def _bar(self) -> YoungFunction:  # built once, on first use
        return orthotropic_bar(self.components)


@dataclass(frozen=True, eq=False)
class LinearImage(NDimYoung):
    """sum_i A_i(|M_i xi|), each M_i a nonsingular matrix."""

    terms: tuple  # of (matrix, YoungFunction)
    n: int

    def __post_init__(self):
        mats = tuple(np.asarray(m, dtype=float) for m, _ in self.terms)
        for m in mats:
            if m.shape != (self.n, self.n) or abs(np.linalg.det(m)) < 1e-14:
                raise YoungError("linear-image matrices must be square and nonsingular")
        object.__setattr__(self, "_mats", mats)  # read on every call

    def __call__(self, xi) -> float:
        xi = self._checked(xi)
        if np.any(np.isinf(xi)):
            return INF
        total = 0.0
        for m, (_, a) in zip(self._mats, self.terms):
            with np.errstate(over="ignore"):  # a huge row reads inf
                w = m @ xi
            v = a(math.sqrt(float(np.vdot(w, w))))  # np.linalg.norm, bit for bit
            if v == INF:
                return INF
            total += v
        return total

    def values(self, points) -> np.ndarray:
        pts = self._checked(points, rows=True).copy()
        gone = np.isinf(pts).any(axis=1)
        pts[gone] = 0.0
        out = np.zeros(len(pts))
        for m, (_, a) in zip(self._mats, self.terms):
            with np.errstate(over="ignore", invalid="ignore"):  # huge rows read inf
                r = np.linalg.norm(pts @ m.T, axis=1)
            out += a.values(r)
        out[gone] = INF
        return out

    @property
    def finite_jump(self) -> Optional[float]:
        return min((a.finite_jump for _, a in self.terms if a.finite_jump is not None),
                   default=None)


@dataclass(frozen=True, eq=False)
class BlackBox(NDimYoung):
    """Opaque evaluator; only volume-based machinery applies."""

    fn: Callable[[np.ndarray], float]
    n: int

    def __call__(self, xi) -> float:
        xi = self._checked(xi)
        if np.any(np.isinf(xi)):
            return INF
        return float(self.fn(xi))


# ---------------------------------------------------------------------------
# Orthotropic reduction
# ---------------------------------------------------------------------------

def orthotropic_bar(components: Sequence[YoungFunction]) -> YoungFunction:
    """The Young function whose inverse is the geometric mean of the component
    inverses: for powers s_i t^p_i the closed form S t^pbar, pbar = bar_p(p_i) and
    S = prod_i s_i^(pbar / (n p_i)); else a ``FromInverse`` that root-searches."""
    comps = tuple(components)
    if comps and all(isinstance(a, Power) for a in comps):
        pbar = bar_p([a.p for a in comps])
        return Power(pbar, math.prod(a.scale ** (pbar / len(comps) / a.p) for a in comps))
    return _geometric_mean_bar(comps)


def _geometric_mean_bar(comps: tuple) -> FromInverse:
    if not comps:
        raise YoungError("need at least one component")
    n = len(comps)
    for a in comps:
        if a.inverse(1e6) <= 0.0 or a.inverse(1e-6) == INF:
            raise ConstructionError("a component inverse is degenerate")

    def inv_many(ts: np.ndarray) -> np.ndarray:
        vs = np.array([a.inverse_values(ts) for a in comps])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = np.exp(np.log(vs).sum(axis=0) / n)  # log 0 and inf: set below
        # the first component at 0 or inf decides
        stop = (vs == INF) | (vs <= 0.0)
        cut = np.flatnonzero(stop.any(axis=0))
        out[cut] = np.where(vs[stop.argmax(axis=0)[cut], cut] == INF, INF, 0.0)
        return out

    def mean_order(orders) -> Optional[GrowthOrder]:
        ps = [GrowthOrder.pure_power(o) for o in orders]
        return None if None in ps else GrowthOrder(bar_p(ps))

    return FromInverse(inv_many, mean_order([a.zero_order for a in comps]),
                       mean_order([a.inf_order for a in comps]))


def bar_p(ps: Sequence[float]) -> float:
    """Exponent mean: 1/pbar = (1/n) sum 1/p_i, exactly p for equal p_i = p."""
    ps = list(ps)
    if not ps or not all(p >= 1 for p in ps):  # nan fails p >= 1
        raise YoungError("exponents must satisfy p_i >= 1")
    return float(ps[0]) if len(set(ps)) == 1 else len(ps) / sum(1.0 / p for p in ps)


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


def _ray_extents(phi: NDimYoung, levels: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """sup{s : phi(s p) <= level} for each row p of ``pts`` at its entry of
    ``levels``, all rows in one batched search; rays from the origin are
    monotone.  An extent above 1e10 raises: the set is unbounded."""
    # an object with only n and __call__ reads by the row loop of NDimYoung.values
    values = getattr(phi, "values", None) or partial(NDimYoung.values, phi)

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
                    rel_tol: float = 1e-3):
    """Lebesgue measure of {phi <= level} for n <= 3: (volume, error).

    The set is star-shaped about 0, so its volume is (1/n) int rho^n over
    the unit sphere, rho its radial function.  Half the sphere suffices (phi
    is even); it is cut at the coordinate planes, where rho has kinks, and
    each piece gets a Gauss-Legendre rule of N = 2, 4, 8, ... nodes per axis,
    in coordinates scaled by the extents along the axes.  The error is the
    larger of |Q_N/2 - Q_N| and |Q_N - Q_2N|, plus n 1e-12 Q_2N for the
    accuracy of the ray extents; Q_2N is returned once the error is at most
    ``rel_tol`` Q_2N.  ``max_depth`` caps the doublings; a call stopped there
    returns an error above ``rel_tol`` times the volume.  All rays of one
    rule are found in one batched root search; the volume table of the
    radial rearrangement runs many levels through the same searches.  ``phi``
    needs only ``n`` and ``__call__``; its ``values``, where it has one,
    evaluates the rays a search step at a time.
    """
    if phi.n > 3:
        raise YoungError("volume computation supports n <= 3")
    if level <= 0.0:
        return 0.0, 0.0
    vol, err = _polar_volumes(phi, [level], max_depth, rel_tol)
    return float(vol[0]), float(err[0])


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
        self.zero = GrowthOrder(1.0 / slopes[0]) if slopes[0] > 1e-9 else None
        self.inf_ = GrowthOrder(1.0 / slopes[-1]) if slopes[-1] > 1e-9 else None

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

    Orthotropic inputs reduce through ``orthotropic_bar`` (closed form for powers,
    root search else); the volume route serves black-box or cross-validation use.
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
    log-space root finder on the ratio Phi_n / Phi(xi / E), read along the
    ray of xi (``phi.ray``, ``phi.rays``) by the search and its checks alike:
    they search theta >= the smallest scale with E > 0, read a right side
    below the smallest normal float as 0, and stop once the bracket is
    within 1e-13 of its upper end: ``solve`` by the scalar finder on plain
    floats, ``solve_many`` by the batched one, each checking the sides its
    search reads.  A root above 2**120 max(that scale, 1) fails to bracket
    and a theta whose sides differ by more than 1e-6 (1 + Phi_n) fails the
    residual check; both raise YoungError.
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

    def _rhs_rays(self, rays, rows: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """Phi(xi / E(t)) for the rows ``rows`` of ``rays = phi.rays(xis)`` at
        scales ``ts``, 0 where it is below the smallest normal float."""
        e = self.envelope.values(ts)
        out = np.full(len(ts), INF)
        pos = e > 0.0
        out[pos] = rays(rows[pos], e[pos])
        out[out < self._TINY] = 0.0
        return out

    def _check_one(self, xi: np.ndarray, lhs: float, rhs: float, unbracketed: bool, lo: float):
        """Raise if the root is ``unbracketed``, if a side at it is past the
        float range (an inf ``lhs``, or an inf ``rhs`` that no finite jump of
        Phi explains), or if ``lhs``, ``rhs`` fail the residual check and the
        root is not a finite jump of Phi.  At such a jump the sides never meet,
        and the right side is inf at ``lo``, the bracket's lower end, which is
        read only where the residual check fails."""
        if unbracketed:
            raise YoungError(f"failed to bracket the theta root at xi={xi!r}")
        if lhs == INF or (rhs == INF and self.phi.finite_jump is None):
            raise YoungError(f"theta at xi={xi!r} is past the float range: "
                             f"Phi_n(theta) = {lhs}, Phi(xi / E(theta)) = {rhs}")
        if math.isfinite(lhs) and math.isfinite(rhs) and abs(lhs - rhs) > 1e-6 * (1.0 + lhs) \
                and (self.phi.finite_jump is None or self._rhs_rays(
                    self.phi.rays(xi[None]), np.zeros(1, int), np.array([lo]))[0] != INF):
            raise YoungError(f"theta residual too large at xi={xi!r}: {lhs} vs {rhs}")

    def _check(self, xis: np.ndarray, lhs: np.ndarray, rhs: np.ndarray, unbracketed,
               lo: np.ndarray):
        """``_check_one`` on the failing rows of ``xis`` in order, each with its
        lower end in ``lo``: the first that fails raises; rows ``unbracketed`` fail."""
        with np.errstate(invalid="ignore"):
            bad = ((lhs == INF) | ((rhs == INF) & (self.phi.finite_jump is None))
                   | (np.isfinite(lhs) & np.isfinite(rhs)
                      & (np.abs(lhs - rhs) > 1e-6 * (1.0 + lhs))))
        bad[unbracketed] = True
        for i in np.flatnonzero(bad):
            self._check_one(xis[i], float(lhs[i]), float(rhs[i]), i in unbracketed, float(lo[i]))

    @np.errstate(over="ignore")  # a custom envelope's numpy float past the range reads inf
    def solve(self, xi) -> float:
        xi = np.asarray(xi, dtype=float)
        if not xi.any():
            return 0.0
        an, envelope, ray, lo0 = self.conj.an_value, self.envelope, self.phi.ray(xi), self._t_pos

        def rhs(t: float) -> float:
            e = envelope(t)
            r = ray(e) if e > 0.0 else INF
            return 0.0 if r < self._TINY else r

        def ratio(t: float) -> float:
            # increasing in t, and below 1 exactly where an < rhs
            if t < lo0:
                return 0.0
            a, r = an(t), rhs(t)
            return a / r if a < r or 0.0 < r < INF else INF

        if lo0 > 0.0 and ratio(lo0) >= 1.0:
            # root sits inside the zero-envelope plateau edge
            return lo0
        lo, hi = _log_root(ratio, 1.0, True, rel_tol=1e-13)
        theta = 0.5 * (lo + hi)
        self._check_one(xi, an(theta), rhs(theta), hi > self._cap, lo)
        return theta

    def solve_many(self, xis) -> np.ndarray:
        """``solve`` for every row of an (m, n) array, all rows in one batched
        search under ``solve``'s ratio, stop and check: the first bad row
        raises ``solve``'s error.  Each theta agrees with ``solve``'s to 1e-12
        relative, not bit for bit: ``solve`` rounds exp and log through libm,
        this method through numpy."""
        xis = np.asarray(xis, dtype=float)
        theta = np.zeros(len(xis))
        rows = np.flatnonzero(np.any(xis, axis=1))
        rays, an, lo0 = self.phi.rays(xis), self.conj.an_values, self._t_pos
        if lo0 > 0.0 and rows.size:
            at_lo = (self._rhs_rays(rays, rows, np.full(rows.size, lo0))
                     <= self.conj.an_value(lo0))
            theta[rows[at_lo]] = lo0
            rows = rows[~at_lo]

        def ratio(ts: np.ndarray, r: np.ndarray) -> np.ndarray:
            # solve's ratio for the entries r of rows
            out = np.zeros(ts.size)
            up = ts >= lo0
            a, b = an(ts[up]), self._rhs_rays(rays, rows[r[up]], ts[up])
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                out[up] = np.where((a < b) | ((0.0 < b) & (b < INF)), a / b, INF)
            return out

        lo, hi = _log_root_many(ratio, np.ones(rows.size), True, rel_tol=1e-13)
        th = 0.5 * (lo + hi)
        self._check(xis[rows], an(th), self._rhs_rays(rays, rows, th),
                    np.flatnonzero(hi > self._cap), lo)
        theta[rows] = th
        return theta
