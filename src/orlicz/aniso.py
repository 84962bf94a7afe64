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
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .conjugate import SobolevConjugate, sobolev_conjugate
from .young import (
    INF,
    ConstructionError,
    FromInverse,
    GrowthOrder,
    YoungError,
    YoungFunction,
    _log_root,
    _numeric_inverse,
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

def _half_sphere_rule(n: int, m: int) -> tuple:
    """Directions (k, n) and weights w (k,) such that sum(w * rho ** n) is
    the volume of a set, even about 0, with radial function rho: an m-node
    Gauss-Legendre rule on each piece of the half sphere cut by the
    coordinate planes, where rho has its kinks."""
    if n == 1:
        return np.ones((1, 1)), np.array([2.0])
    x, w = np.polynomial.legendre.leggauss(m)
    quarter, wq = 0.25 * math.pi * (x + 1.0), 0.25 * math.pi * w  # on [0, pi/2]
    if n == 2:  # vol = int_0^pi rho^2 d theta
        ang = np.concatenate([quarter, quarter + 0.5 * math.pi])
        return np.stack([np.cos(ang), np.sin(ang)], axis=-1), np.tile(wq, 2)
    # vol = (2/3) int_0^{pi/2} int_0^{2 pi} rho^3 sin(a) d phi d a, a the polar
    # angle; in z = cos(a) the pole would be a square-root singularity
    a, az = np.meshgrid(quarter, (quarter + 0.5 * math.pi * np.arange(4)[:, None]).ravel(),
                        indexing="ij")
    dirs = np.stack([np.sin(a) * np.cos(az), np.sin(a) * np.sin(az), np.cos(a)], axis=-1)
    wts = (2.0 / 3.0) * np.sin(a) * np.outer(wq, np.tile(wq, 4))
    return dirs.reshape(-1, 3), wts.ravel()


def _ray_extents(phi: NDimYoung, level: float, dirs) -> np.ndarray:
    """sup{s : phi(s d) <= level} for each direction d; rays from the origin
    are monotone."""
    rho = np.empty(len(dirs))
    for i, d in enumerate(dirs):
        rho[i] = _numeric_inverse(lambda s: phi(s * d), level)
        if rho[i] > 1e10:
            raise YoungError("sublevel set is unbounded at this level")
    return rho


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

    Monte Carlo ("mc") samples a padded box around the largest ray extent
    found and returns its standard error.
    """
    n = phi.n
    if n > 3:
        raise YoungError("volume computation supports n <= 3")
    if method not in ("polar", "mc"):
        raise YoungError(f"unknown volume method {method!r}")
    if level <= 0.0:
        return 0.0, 0.0
    # exact axis probes catch sets unbounded along a coordinate axis
    axes = _ray_extents(phi, level, np.eye(n))

    if method == "mc":
        dirs, _ = _half_sphere_rule(n, 16)
        # the largest extent found is not the largest there is: pad the box
        rho = 1.05 * max(axes.max(), _ray_extents(phi, level, dirs).max())
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-rho, rho, size=(mc_samples, n))
        frac = np.count_nonzero(phi.values(pts) <= level) / mc_samples
        box_vol = (2 * rho) ** n
        se = box_vol * math.sqrt(max(frac * (1 - frac), 1e-12) / mc_samples)
        return frac * box_vol, se

    # in units of the axis extents the set is rounder and its rays near 1
    scale, q, err, last = float(np.prod(axes)), None, INF, INF
    for depth in range(max_depth + 1):
        dirs, w = _half_sphere_rule(n, 2 << depth)
        prev, q = q, scale * float(w @ _ray_extents(phi, level, dirs * axes) ** n)
        if prev is not None:
            diff = abs(q - prev)
            # two rules can agree by accident before they resolve the set,
            # so the error is the larger of the last two differences
            err = max(last, diff) + n * 1e-12 * q
            if err <= rel_tol * q:
                break
            last = diff
    return q, err


_OMEGA = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}


def phi_circ(phi: NDimYoung, t: float, method: str = "auto", **vol_kwargs) -> float:
    """Inverse of the radial rearrangement: the radius whose ball has the
    sublevel-set volume of {phi <= t}.

    Isotropic and orthotropic forms use their scalar reductions directly;
    anything else goes through the volume computation (n <= 3).
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
    vol, _ = sublevel_volume(phi, t, **vol_kwargs)
    return (vol / _OMEGA[phi.n]) ** (1.0 / phi.n)


def _phi_circ_young(phi: NDimYoung, t_lo: float = 1e-3, t_hi: float = 1e4,
                    points: int = 25, **vol_kwargs) -> YoungFunction:
    """Tabulated radial rearrangement as a Young function (volume route)."""
    ts = np.geomspace(t_lo, t_hi, points)
    rs = np.array([phi_circ(phi, float(t), method="volume", **vol_kwargs) for t in ts])
    if np.any(rs <= 0) or np.any(np.diff(np.log(rs)) <= 0):
        raise ConstructionError("volume table is not strictly increasing")
    lts, lrs = np.log(ts).tolist(), np.log(rs).tolist()
    # np.interp's chord slopes inside the table (its value, bit for bit, with
    # no per-call array setup); the end chords extend beyond it
    slopes = [(r1 - r0) / (t1 - t0) for t0, t1, r0, r1 in zip(lts, lts[1:], lrs, lrs[1:])]
    slopes.append(slopes[-1])

    def inv(t: float) -> float:
        if t <= 0.0:
            return 0.0
        lt = math.log(t)
        j = max(bisect.bisect_right(lts, lt) - 1, 0)
        return math.exp(slopes[j] * (lt - lts[j]) + lrs[j])

    lts_a, lrs_a, slopes_a = np.array(lts), np.array(lrs), np.array(slopes)

    def inv_many(ts: np.ndarray) -> np.ndarray:
        lt = np.log(ts)
        j = np.maximum(np.searchsorted(lts_a, lt, side="right") - 1, 0)
        with np.errstate(over="ignore"):
            return np.exp(slopes_a[j] * (lt - lts_a[j]) + lrs_a[j])

    zero = GrowthOrder(1.0 / slopes[0]) if slopes[0] > 1e-9 else None
    inf_ = GrowthOrder(1.0 / slopes[-1]) if slopes[-1] > 1e-9 else None
    return FromInverse(inv_fn=inv, zero=zero, inf_=inf_, label="radial-rearrangement",
                       inv_many=inv_many)


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
    is non-increasing in theta, so the root is unique.  Both paths search
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
        self.envelope = envelope
        self.conj = conj if conj is not None else phi_n(phi, n)
        if self.conj.h_limit != INF:
            raise YoungError(
                "conjugate saturates at a finite level; theta is not defined")
        # smallest scale at which the envelope is positive
        t = 0.0
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
        e = np.array([self.envelope(t) for t in ts.tolist()])
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
        """``solve`` for every row of an (m, n) array, all rows a step at a
        time under the same limit, stop and check: the first bad row raises
        ``solve``'s error, as does one open past the step cap.

        An upper end is found by doubling from max(lo, 1).  A row whose lower
        end is 0 then steps down by 2**-k, k = 1, 2, 4, ..., to a lower end;
        a bracket wider than a factor of 2 is halved in log theta, a narrower
        one in theta."""
        xis = np.asarray(xis, dtype=float)
        theta = np.zeros(len(xis))
        rows = np.flatnonzero(np.any(xis, axis=1))
        lo0 = self._t_pos
        if lo0 > 0.0 and rows.size:
            at_lo = (self._rhs_many(xis[rows], np.full(rows.size, lo0))
                     <= self.conj.an_value(lo0))
            theta[rows[at_lo]] = lo0
            rows = rows[~at_lo]
        an = self.conj.an_values
        xs, top = xis[rows], max(lo0, 1.0)
        lo, hi = np.full(rows.size, lo0), np.full(rows.size, top)
        grow = np.arange(rows.size)
        while True:
            grow = grow[an(hi[grow]) < self._rhs_many(xs[grow], hi[grow])]
            if not grow.size or top >= self._cap:
                break
            lo[grow] = top
            top *= 2.0
            hi[grow] = top
        live = np.setdiff1d(np.arange(rows.size), grow)
        # 11 steps down reach the smallest normal float, where a root reads
        # 0 as in _log_root; 11 log and 43 plain halvings close any bracket
        down = np.ones(rows.size)
        for _ in range(100):
            if not live.size:
                break
            l, h = lo[live], hi[live]
            mid = np.where(l == 0.0, np.maximum(h * np.exp2(-down[live]), self._TINY),
                           np.where(h > 2.0 * l, np.sqrt(l) * np.sqrt(h), 0.5 * (l + h)))
            below = an(mid) < self._rhs_many(xs[live], mid)
            lo[live[below]] = mid[below]
            hi[live[~below]] = mid[~below]
            down[live[~below & (l == 0.0)]] *= 2.0
            hi[live[~below & (mid <= self._TINY)]] = 0.0
            live = live[hi[live] - lo[live] > 1e-13 * hi[live]]
        if live.size:
            raise YoungError(f"theta bracket still open after 100 steps "
                             f"at xi={xs[live[0]]!r}")
        th = 0.5 * (lo + hi)
        self._check(xs, an(th), self._rhs_many(xs, th), grow)
        theta[rows] = th
        return theta


def solve_theta(phi: NDimYoung, envelope: Callable[[float], float], n: int,
                xi, conj: Optional[SobolevConjugate] = None) -> float:
    """One-shot theta solve; build a ThetaSolver for repeated queries."""
    return ThetaSolver(phi, envelope, n, conj=conj).solve(xi)
