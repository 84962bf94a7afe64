"""One-dimensional Young functions and their calculus.

A Young function is convex, left-continuous, maps [0, inf) into [0, inf],
vanishes at 0, and is non-constant on (0, inf).  Values live on the extended
half-line, with ``math.inf`` standing for +infinity; ratios follow the
conventions t/inf = 0 and inf * c = inf for c > 0.

Parametric kinds (powers, Zygmund-type log corrections, exponentials) carry
exact asymptotic descriptors so that doubling conditions, equivalence, and
integral classifications can be decided analytically.  Black-box functions
fall back to geometric-grid probes.
"""

from __future__ import annotations

import inspect
import math
import numbers
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

INF = math.inf

_LOG_MAX = 709.0  # exp overflow threshold for float64


class YoungError(ValueError):
    """Bad argument or construction failure for Young-function machinery."""


class IndeterminateError(YoungError):
    """A probe could not decide; the answer is neither holds nor fails."""


class ConstructionError(YoungError):
    """A derived Young function could not be built from its inputs."""


def _exp(x: float) -> float:
    return INF if x > _LOG_MAX else math.exp(x)


def _pow(t: float, p: float, scale: float = 1.0) -> float:
    """scale * t**p with overflow clamped to inf; t <= 0 maps to 0."""
    if t <= 0.0:
        return 0.0
    if t == INF:
        return INF if p > 0 else (scale if p == 0 else 0.0)
    try:
        v = scale * math.pow(t, p)
    except OverflowError:
        return INF
    return v


def _check(kind: str, name: str, value, low: Optional[float] = None, strict: bool = True):
    """Raise a YoungError naming ``kind`` and ``name`` unless ``value`` is a
    finite real number above ``low`` (at least ``low`` when not ``strict``;
    any finite number when ``low`` is None)."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and -INF < value < INF  # False for nan; exact for an int of any size
            and (low is None or (value > low if strict else value >= low))):
        bound = "" if low is None else f" {'>' if strict else '>='} {low:g}"
        raise YoungError(f"{kind} needs a finite {name}{bound}, not {value!r}")


def log_grid(lo: float, hi: float) -> np.ndarray:
    """Geometric grid on [lo, hi] with roughly 64 points per decade."""
    if not (0.0 < lo < hi):
        raise YoungError(f"invalid grid bounds ({lo}, {hi})")
    decades = math.log10(hi / lo)
    count = max(2, int(round(decades * 64)) + 1)
    return np.geomspace(lo, hi, count)


# ---------------------------------------------------------------------------
# Regimes and asymptotic descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Regime:
    """Where a condition is required to hold: globally, near 0, or near inf.

    ``cutoff`` is the t0 separating "near" from the rest; it defaults to 1
    since the source inequalities never quantify "near".
    """

    kind: str  # "global" | "near_zero" | "near_infinity"
    cutoff: float = 1.0

    def __post_init__(self):
        if self.kind not in ("global", "near_zero", "near_infinity"):
            raise YoungError(f"unknown regime kind {self.kind!r}")
        _check("regime", "cutoff", self.cutoff, 0.0)

    @classmethod
    def everywhere(cls) -> "Regime":
        return cls("global")

    @classmethod
    def near_zero(cls, cutoff: float = 1.0) -> "Regime":
        return cls("near_zero", cutoff)

    @classmethod
    def near_infinity(cls, cutoff: float = 1.0) -> "Regime":
        return cls("near_infinity", cutoff)

    def grid(self) -> np.ndarray:
        if self.kind == "near_zero":
            return log_grid(self.cutoff * 1e-9, self.cutoff)
        if self.kind == "near_infinity":
            return log_grid(self.cutoff, self.cutoff * 1e9)
        return log_grid(1e-9, 1e9)


@dataclass(frozen=True)
class GrowthOrder:
    """Local behavior A(t) ~ t^power * log^log_exp * loglog^loglog_exp.

    ``family`` tags shapes the power scale cannot express:
      poly         power law with optional slowly-varying corrections
      exp          exp(t^power)-type growth (super-polynomial)
      exp_neg_inv  exp(-t^-power)-type flatness at zero
      flat         identically zero on a neighborhood
      jump         identically +inf beyond a finite point
    """

    power: float
    log_exp: float = 0.0
    loglog_exp: float = 0.0
    family: str = "poly"

    def matches(self, other: "GrowthOrder") -> bool:
        if self.family != other.family:
            return False
        if self.family in ("flat", "jump"):
            return True
        return (  # a nan exponent never matches
            abs(self.power - other.power) <= 1e-12
            and abs(self.log_exp - other.log_exp) <= 1e-12
            and abs(self.loglog_exp - other.loglog_exp) <= 1e-12
        )

    # exponent algebra on poly orders: the verdicts of conditions.py
    def scale(self, c: float) -> "GrowthOrder":
        return GrowthOrder(c * self.power, c * self.log_exp, c * self.loglog_exp)

    def plus(self, other: "GrowthOrder") -> "GrowthOrder":
        return GrowthOrder(self.power + other.power, self.log_exp + other.log_exp,
                           self.loglog_exp + other.loglog_exp)

    def compare(self, other: "GrowthOrder") -> tuple:
        """(first signed gap other - self above 1e-12, slot name), or (0.0, "equal")."""
        for slot, attr in (("power", "power"), ("log", "log_exp"), ("loglog", "loglog_exp")):
            gap = getattr(other, attr) - getattr(self, attr)
            if abs(gap) > 1e-12:
                return gap, slot
        return 0.0, "equal"

    @staticmethod
    def pure_power(order: Optional["GrowthOrder"]) -> Optional[float]:
        """p for a plain t^p order; None for any other order and for None."""
        if order is None or order.family != "poly" or order.log_exp or order.loglog_exp:
            return None
        return order.power


# ---------------------------------------------------------------------------
# Monotone numeric inversion helpers
# ---------------------------------------------------------------------------
# One root finder on u = ln s locates where a non-decreasing fn crosses a
# level.  Steps from u = 0 that double in length bracket the crossing inside
# the normal float range; Illinois steps then refine it on
# h(u) = ln fn(e^u) - ln level: regula falsi that halves the value kept at an
# end that stayed put twice (Dowell & Jarratt, BIT 11, 1971), each point held
# half the tolerance inside the bracket.  A step bisects the bracket in u
# instead when an end value is infinite or exactly at the level.  The first
# point that lands exactly on the level (a secant step does on a power law)
# is followed, once per search, by a probe half the tolerance above it: fn
# above the level there closes the bracket, fn still at the level marks a
# plateau, and the steps go on from the probe.

_U_MIN = math.log(sys.float_info.min)  # the smallest normal float
_U_MAX = math.log(sys.float_info.max)
_MAX_STEPS = 400  # the evaluations a search may take before it raises


def _log_root(fn: Callable[[float], float], level: float, exact: bool,
              rel_tol: float = 1e-12) -> tuple:
    """Bracket (lo, hi), fn(lo) <= level < fn(hi) and hi - lo <= rel_tol * hi;
    (s, s) when ``exact`` and fn(s) == level; (0, 0) or (inf, inf) when the
    crossing lies below or above the float range.  Raises YoungError when
    ``_MAX_STEPS`` evaluations leave the bracket open."""
    log_level = math.log(level) if 0.0 < level < INF else None

    def gap(f: float, above: bool) -> float:
        # an end exactly at the level may lie on a plateau
        if log_level is not None and 0.0 < f < INF and f != level:
            return math.log(f) - log_level
        return INF if above else -INF

    ul = uh = None
    lo, hi, hl, hh = 0.0, INF, -INF, INF
    u, step, side, probed = 0.0, 1.0, 0, False
    for _ in range(_MAX_STEPS):
        s = math.exp(u)
        f = fn(s)
        if exact and f == level:
            return s, s
        if f > level:
            if u == _U_MIN:
                return 0.0, 0.0
            uh, hi, hh = u, s, gap(f, True)
            if side > 0:
                hl *= 0.5
            side = 1
        else:
            if u == _U_MAX:
                return INF, INF
            ul, lo, hl = u, s, gap(f, False)
            if side < 0:
                hh *= 0.5
            side = -1
        grow = ul is None or uh is None
        if not grow and hi - lo <= rel_tol * hi:
            return lo, hi
        if f == level and not probed:
            probed = True
            u = min(u + 0.5 * rel_tol, _U_MAX)
        elif grow:
            u = max(u - step, _U_MIN) if ul is None else min(u + step, _U_MAX)
            step *= 2.0
        elif -INF < hl < hh < INF:
            u = uh - hh * (uh - ul) / (hh - hl)
            u = min(max(u, ul + 0.5 * rel_tol), uh - 0.5 * rel_tol)
        else:
            u = 0.5 * (ul + uh)
    raise YoungError(f"root bracket [{lo!r}, {hi!r}] still open after {_MAX_STEPS} steps")


def _log_root_many(fn_many: Callable[[np.ndarray, np.ndarray], np.ndarray], levels,
                   exact: bool, rel_tol: float = 1e-12) -> tuple:
    """``_log_root`` for every entry of ``levels``, as arrays (lo, hi): each
    row takes the scalar search's steps, with its stop, ends, exact hits and
    raise (for the first row left open).  One call ``fn_many(s, rows)`` serves
    the rows still open at each step: ``rows`` holds their indices in
    ascending order and ``s`` their points, so each row may search its own
    function; a row that has closed is not evaluated again."""
    level = np.asarray(levels, dtype=float).ravel()
    m = level.size
    has_log = (level > 0.0) & (level < INF)
    log_level = np.log(np.where(has_log, level, 1.0))
    lo, hi, hl, hh = np.zeros(m), np.full(m, INF), np.full(m, -INF), np.full(m, INF)
    ul, uh = np.full(m, np.nan), np.full(m, np.nan)  # nan: no end found yet
    u, step, side = np.zeros(m), np.ones(m), np.zeros(m, dtype=np.int8)
    probed, at_level = np.zeros(m, dtype=bool), np.zeros(m, dtype=bool)
    act = np.arange(m)
    for _ in range(_MAX_STEPS):
        if not act.size:
            return lo, hi
        s = np.exp(u[act])
        f = np.asarray(fn_many(s, act), dtype=float)
        lv = level[act]
        hit = (f == lv) if exact else np.zeros(act.size, dtype=bool)
        above = ~hit & (f > lv)
        below = ~hit & ~above
        lo[act[hit]] = hi[act[hit]] = s[hit]
        end = above & (u[act] == _U_MIN)
        lo[act[end]] = hi[act[end]] = 0.0
        above &= ~end
        end = below & (u[act] == _U_MAX)
        lo[act[end]] = hi[act[end]] = INF
        below &= ~end
        # an end exactly at the level may lie on a plateau
        ok = has_log[act] & (f > 0.0) & (f < INF) & (f != lv)
        gap = np.where(ok, np.log(np.where(ok, f, 1.0)) - log_level[act],
                       np.where(above, INF, -INF))
        r = act[above]
        uh[r], hi[r], hh[r] = u[r], s[above], gap[above]
        hl[r[side[r] > 0]] *= 0.5
        side[r] = 1
        r = act[below]
        ul[r], lo[r], hl[r] = u[r], s[below], gap[below]
        hh[r[side[r] < 0]] *= 0.5
        side[r] = -1
        r = act[above | below]
        grow = np.isnan(ul[r]) | np.isnan(uh[r])
        g, r = r[grow], r[~grow]
        r = r[~(hi[r] - lo[r] <= rel_tol * hi[r])]
        p = r[:0]
        at = act[below & (f == lv)]
        if at.size:  # the first point at the level is followed by the probe
            at_level[at] = True
            pg, pr = at_level[g] & ~probed[g], at_level[r] & ~probed[r]
            at_level[at] = False
            p, g, r = np.concatenate([g[pg], r[pr]]), g[~pg], r[~pr]
            probed[p] = True
            u[p] = np.minimum(u[p] + 0.5 * rel_tol, _U_MAX)
        u[g] = np.where(np.isnan(ul[g]), np.maximum(u[g] - step[g], _U_MIN),
                        np.minimum(u[g] + step[g], _U_MAX))
        step[g] *= 2.0
        ill = (-INF < hl[r]) & (hl[r] < hh[r]) & (hh[r] < INF)
        i, b = r[ill], r[~ill]
        u[i] = np.minimum(np.maximum(uh[i] - hh[i] * (uh[i] - ul[i]) / (hh[i] - hl[i]),
                                     ul[i] + 0.5 * rel_tol), uh[i] - 0.5 * rel_tol)
        u[b] = 0.5 * (ul[b] + uh[b])
        act = np.sort(np.concatenate([p, g, r]))
    if not act.size:
        return lo, hi
    i = act[0]
    raise YoungError(f"root bracket [{float(lo[i])!r}, {float(hi[i])!r}] "
                     f"still open after {_MAX_STEPS} steps")


def _numeric_inverse(fn: Callable[[float], float], v: float) -> float:
    """Generalized right-continuous inverse inf{s >= 0 : fn(s) > v}: plateaus
    resolve to their right endpoint, an empty set (v = inf included) to inf;
    0 below 0, and nan for nan."""
    if not v >= 0:
        return 0.0 if v < 0 else v
    return _log_root(fn, v, False)[1]


def _invert_levels(vs: np.ndarray, invert: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """``invert`` on the finite levels >= 0; 0 below 0, inf and nan kept."""
    v = np.asarray(vs, dtype=float).ravel()
    out = np.where(v < 0.0, 0.0, v)
    live = (v >= 0.0) & (v < INF)
    if live.any():
        out[live] = invert(v[live])
    return out


# ---------------------------------------------------------------------------
# The Young function hierarchy
# ---------------------------------------------------------------------------

class YoungFunction:
    """Base class; subclasses implement ``__call__`` on [0, inf).

    A kind with a config form lists its record keys, its constructor's
    parameters in order, in ``keys``; ``aliases`` are its other record names,
    and ``omit`` maps a key to the value at which the record leaves it out."""

    kind = "abstract"
    aliases: tuple = ()
    keys: tuple = ()
    omit: dict = {}

    def __call__(self, t: float) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    # asymptotic descriptors; None means unknown (grid probes take over).  A
    # kind whose caller supplies them declares the fields zero, inf_ and jump
    zero = inf_ = jump = None

    @property
    def zero_order(self) -> Optional[GrowthOrder]:
        return self.zero

    @property
    def inf_order(self) -> Optional[GrowthOrder]:
        return self.inf_

    @property
    def finite_jump(self) -> Optional[float]:
        """Smallest t with A(t) = inf, when the function jumps to infinity."""
        return self.jump

    def inverse(self, v: float) -> float:
        """Generalized right-continuous inverse, inf{s : A(s) > v}."""
        return _numeric_inverse(self.__call__, v)

    def right_slope(self, t: float) -> float:
        a0 = self(t)
        a1 = self(t * (1.0 + 1e-6))
        if a0 == INF or a1 == INF:
            return INF
        return (a1 - a0) / (t * 1e-6)

    def values(self, ts: np.ndarray) -> np.ndarray:
        return np.array([self(float(t)) for t in np.asarray(ts).ravel()], dtype=float)

    def inverse_values(self, vs: np.ndarray) -> np.ndarray:
        """``inverse`` on an array.  A kind with its own scalar ``inverse``
        maps it over the entries; for the others every entry is a row of one
        ``_log_root_many`` search on ``values``, as ``_numeric_inverse``."""
        v = np.asarray(vs, dtype=float).ravel()
        if type(self).inverse is not YoungFunction.inverse:
            return np.array([self.inverse(x) for x in v.tolist()], dtype=float)
        return _invert_levels(v, lambda u: _log_root_many(lambda s, _: self.values(s), u, False)[1])

    def to_config(self) -> dict:
        """The record that ``from_config`` reads back; a family in it nests."""
        if not self.keys:
            raise NotImplementedError(f"{self.kind} has no config form")
        cfg = {"kind": self.kind}
        for key in self.keys:
            v = getattr(self, key)
            if key not in self.omit or v != self.omit[key]:
                cfg[key] = v.to_config() if isinstance(v, YoungFunction) else v
        return cfg

    def __repr__(self) -> str:
        try:
            return f"YoungFunction({self.to_config()})"
        except NotImplementedError:
            return f"YoungFunction(kind={self.kind})"


@dataclass(frozen=True, repr=False)
class Power(YoungFunction):
    """scale * t^p.  A Young function for p >= 1; p in (0, 1) is allowed as a
    plain growth function for use in admissibility comparisons."""

    p: float
    scale: float = 1.0
    kind, keys, omit = "power", ("p", "scale"), {"scale": 1.0}

    def __post_init__(self):
        _check("power", "p", self.p, 0.0)
        _check("power", "scale", self.scale, 0.0)

    def __call__(self, t: float) -> float:
        return _pow(t, self.p, self.scale)

    def values(self, ts: np.ndarray) -> np.ndarray:
        t = np.asarray(ts, dtype=float).ravel()
        with np.errstate(over="ignore", invalid="ignore"):
            out = self.scale * np.power(t, self.p)
        out[t <= 0.0] = 0.0
        return out

    def inverse(self, v: float) -> float:
        return _pow(v / self.scale, 1.0 / self.p)  # 0 for v <= 0, inf at inf

    def inverse_values(self, vs: np.ndarray) -> np.ndarray:
        v = np.asarray(vs, dtype=float).ravel()
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.power(v / self.scale, 1.0 / self.p)
        out[v <= 0.0] = 0.0
        return out

    @property
    def zero_order(self):
        return GrowthOrder(self.p)

    @property
    def inf_order(self):
        return GrowthOrder(self.p)


def linear() -> Power:
    """The identity Young function A(t) = t."""
    return Power(1.0)


class _LogCorrected(YoungFunction):
    """t^p * L(c + t)^alpha with a slow factor L: log for ``PowerLog``, log
    log for ``PowerLogLog``.  Each subclass holds the fields p, alpha and c,
    and sets ``_loglog`` on the instance, where a call reads it faster than
    on the class.  At the base c = 1 (c = e for log log) the factor vanishes
    at 0 like t, so the correction shifts the power there; at c = 1 it is
    computed as log1p(t), which does not cancel there."""

    def __call__(self, t: float) -> float:
        if t <= 0.0:
            return 0.0
        body = _pow(t, self.p)
        if body == INF or self.alpha == 0:  # L^0 = 1, also where L rounds to 0
            return body
        lg = math.log1p(t) if self.c == 1.0 else math.log(self.c + t)
        if self._loglog:
            lg = math.log(lg)
        if lg == 0.0:
            return 0.0 if self.alpha > 0 else INF
        return body * _pow(lg, self.alpha, 1.0)

    def values(self, ts: np.ndarray) -> np.ndarray:
        t = np.asarray(ts, dtype=float).ravel()
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            body = np.power(t, self.p)
            lg = np.log1p(t) if self.c == 1.0 else np.log(self.c + t)
            if self._loglog:
                lg = np.log(lg)
            out = body * np.power(lg, self.alpha)
        if self.alpha != 0:
            out[lg == 0.0] = 0.0 if self.alpha > 0 else INF
        out[body == INF] = INF
        out[t <= 0.0] = 0.0
        return out

    @property
    def zero_order(self):
        if self.c == (math.e if self._loglog else 1.0):
            return GrowthOrder(self.p + self.alpha)
        return GrowthOrder(self.p)


@dataclass(frozen=True, repr=False)
class PowerLog(_LogCorrected):
    """t^p * log^alpha(c + t).

    With c = 1 and alpha >= 0 this is the usual Zygmund representative; log
    corrections then fold into the local power near zero.  For alpha < 0 the
    base c defaults to e so the value stays finite at the origin.
    """

    p: float
    alpha: float
    c: Optional[float] = None
    kind, aliases, keys = "power_log", ("powerlog",), ("p", "alpha", "c")

    def __post_init__(self):
        _check("power_log", "p", self.p, 0.0)
        _check("power_log", "alpha", self.alpha)
        if self.c is None:
            object.__setattr__(self, "c", 1.0 if self.alpha >= 0 else math.e)
        _check("power_log", "base c", self.c, 1.0, strict=self.alpha < 0)
        object.__setattr__(self, "_loglog", False)

    @property
    def inf_order(self):
        return GrowthOrder(self.p, log_exp=self.alpha)


@dataclass(frozen=True, repr=False)
class PowerLogLog(_LogCorrected):
    """t^p * (log log(c + t))^alpha, the double-log Zygmund representative."""

    p: float
    alpha: float
    c: Optional[float] = None
    kind, aliases, keys = "power_loglog", ("powerloglog",), ("p", "alpha", "c")

    def __post_init__(self):
        _check("power_loglog", "p", self.p, 0.0)
        _check("power_loglog", "alpha", self.alpha)
        if self.c is None:
            object.__setattr__(self, "c", math.e if self.alpha >= 0 else math.exp(math.e))
        _check("power_loglog", "base c", self.c, math.e, strict=False)
        object.__setattr__(self, "_loglog", True)

    @property
    def inf_order(self):
        return GrowthOrder(self.p, loglog_exp=self.alpha)


@dataclass(frozen=True, repr=False)
class PowerExp(YoungFunction):
    """t^p * e^t; the p = 1 case drives the norm-topology counterexample."""

    p: float = 1.0
    kind, aliases, keys = "power_exp", ("powerexp",), ("p",)

    def __post_init__(self):
        _check("power_exp", "p", self.p, 1.0, strict=False)  # convexity

    def __call__(self, t: float) -> float:
        if t <= 0.0:
            return 0.0
        e = _exp(t)
        if e == INF:
            return INF
        return _pow(t, self.p) * e

    def values(self, ts: np.ndarray) -> np.ndarray:
        t = np.asarray(ts, dtype=float).ravel()
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.power(t, self.p) * np.exp(t)
        out[t > _LOG_MAX] = INF
        out[t <= 0.0] = 0.0
        return out

    @property
    def zero_order(self):
        return GrowthOrder(self.p)

    @property
    def inf_order(self):
        return GrowthOrder(1.0, family="exp")


def _expm1_pow(t: float, alpha: float) -> float:
    if t <= 0.0:
        return 0.0
    x = _pow(t, alpha)
    return INF if x >= _LOG_MAX else math.expm1(x)


@dataclass(frozen=True, repr=False)
class Exp(YoungFunction):
    """exp(t^alpha) - 1, linearized near zero when alpha < 1.

    For alpha < 1 the raw map is concave near the origin; the constructor
    glues a linear segment below the first dyadic point where the chord from
    the origin stays under the tangent, which restores convexity.
    """

    alpha: float
    tstar: float = field(default=0.0, init=False)
    kind, keys = "exp", ("alpha",)

    def __post_init__(self):
        _check("exp", "alpha", self.alpha, 0.0)
        if self.alpha >= 1.0:
            return
        raw = lambda t: _expm1_pow(t, self.alpha)
        t = ((1.0 - self.alpha) / self.alpha) ** (1.0 / self.alpha)
        t = 2.0 ** math.ceil(math.log2(t))
        for _ in range(200):
            chord = raw(t) / t
            h = 1e-7
            slope = (raw(t * (1 + h)) - raw(t)) / (t * h)
            if chord <= slope * (1 + 1e-9):
                break
            t *= 2.0
        else:
            raise ConstructionError("no convex glue point for exp kind")
        object.__setattr__(self, "tstar", t)

    def __call__(self, t: float) -> float:
        if t <= 0.0:
            return 0.0
        if t <= self.tstar:
            return _expm1_pow(self.tstar, self.alpha) * t / self.tstar
        return _expm1_pow(t, self.alpha)

    def values(self, ts: np.ndarray) -> np.ndarray:
        t = np.asarray(ts, dtype=float).ravel()
        with np.errstate(over="ignore", invalid="ignore"):
            x = np.power(t, self.alpha)
            out = np.where(x >= _LOG_MAX, INF, np.expm1(np.minimum(x, _LOG_MAX)))
        if self.tstar > 0.0:
            lin = t <= self.tstar
            out[lin] = _expm1_pow(self.tstar, self.alpha) * t[lin] / self.tstar
        out[t <= 0.0] = 0.0
        return out

    def inverse(self, v: float) -> float:
        if v <= 0:
            return 0.0
        if v == INF:
            return INF
        if self.tstar > 0.0:
            vstar = _expm1_pow(self.tstar, self.alpha)
            if v <= vstar:
                return v * self.tstar / vstar
        # the values jump to inf where t^alpha reaches _LOG_MAX
        return min(math.log1p(v), _LOG_MAX) ** (1.0 / self.alpha)

    @property
    def zero_order(self):
        if self.tstar > 0.0:
            return GrowthOrder(1.0)
        return GrowthOrder(self.alpha)

    @property
    def inf_order(self):
        return GrowthOrder(self.alpha, family="exp")


@dataclass(frozen=True, repr=False)
class ExpNegInv(YoungFunction):
    """exp(-t^-alpha) near zero, continued by its tangent line.

    Infinitely flat at the origin, so it fails the doubling condition near
    zero; the tangent continuation beyond the inflection keeps convexity.
    """

    alpha: float
    kind, aliases, keys = "exp_neg_inv", ("expneginv",), ("alpha",)

    def __post_init__(self):
        _check("exp_neg_inv", "alpha", self.alpha, 0.0)
        tc = (self.alpha / (self.alpha + 1.0)) ** (1.0 / self.alpha)
        v = math.exp(-tc ** (-self.alpha))
        m = self.alpha * tc ** (-self.alpha - 1.0) * v
        object.__setattr__(self, "_tc", tc)
        object.__setattr__(self, "_v", v)
        object.__setattr__(self, "_m", m)

    def __call__(self, t: float) -> float:
        if t <= 0.0:
            return 0.0
        if t <= self._tc:
            return math.exp(-_pow(t, -self.alpha))
        return self._v + self._m * (t - self._tc)

    def values(self, ts: np.ndarray) -> np.ndarray:
        t = np.asarray(ts, dtype=float).ravel()
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            out = np.exp(-np.power(t, -self.alpha))
        line = t > self._tc
        out[line] = self._v + self._m * (t[line] - self._tc)
        out[t <= 0.0] = 0.0
        return out

    def inverse(self, v: float) -> float:
        if v <= 0:
            return 0.0
        if v == INF:
            return INF
        if v <= self._v:
            return (-math.log(v)) ** (-1.0 / self.alpha)
        return self._tc + (v - self._v) / self._m

    @property
    def zero_order(self):
        return GrowthOrder(self.alpha, family="exp_neg_inv")

    @property
    def inf_order(self):
        return GrowthOrder(1.0)


@dataclass(frozen=True, repr=False)
class Piecewise(YoungFunction):
    """Branches on (0, b1], (b1, b2], ..., (bm, inf); left-continuous."""

    breaks: tuple
    branches: tuple
    jump: Optional[float] = None
    zero: Optional[GrowthOrder] = None
    inf_: Optional[GrowthOrder] = None
    kind = "piecewise"

    def __post_init__(self):
        if len(self.branches) != len(self.breaks) + 1:
            raise YoungError("piecewise needs one more branch than breakpoints")
        if any(b <= 0 for b in self.breaks) or list(self.breaks) != sorted(self.breaks):
            raise YoungError("breakpoints must be positive and increasing")

    def __call__(self, t: float) -> float:
        if not t > 0.0:
            return 0.0 if t <= 0.0 else t  # nan in, nan out
        idx = 0
        for b in self.breaks:
            if t <= b:
                break
            idx += 1
        return self.branches[idx](t)

    def values(self, ts: np.ndarray) -> np.ndarray:
        t = np.asarray(ts, dtype=float).ravel()
        out = np.where(np.isnan(t), t, 0.0)
        # branch k serves (b_k, b_{k+1}]: a break belongs to the branch below
        idx = np.searchsorted(np.asarray(self.breaks, dtype=float), t, side="left")
        for k, br in enumerate(self.branches):
            on = (idx == k) & (t > 0.0)
            if on.any():
                out[on] = (br.values(t[on]) if isinstance(br, YoungFunction)
                           else [br(x) for x in t[on].tolist()])
        return out


def _zero(t: float) -> float:
    return 0.0


def _infinite(t: float) -> float:
    return INF


class Gate(Piecewise):
    """The L-infinity gauge: 0 on [0, threshold], +inf beyond.

    Extended-real convex and left-continuous; its generalized inverse is the
    constant ``threshold`` on [0, inf).  Every gate shares its two branches,
    so gates of one threshold compare equal."""

    kind, keys = "gate", ("threshold",)

    def __init__(self, threshold: float):
        _check("gate", "threshold", threshold, 0.0)
        super().__init__((threshold,), (_zero, _infinite), threshold,
                         GrowthOrder(0.0, family="flat"), GrowthOrder(0.0, family="jump"))
        object.__setattr__(self, "threshold", threshold)


gate = Gate  # gates are built as gate(threshold)


@dataclass(frozen=True, repr=False)
class Glued(YoungFunction):
    """near_zero below tstar, hi_scale * near_infinity above.

    Builders pick tstar and hi_scale so the result is continuous and convex;
    scaling one side preserves equivalence on that side.
    """

    near_zero: YoungFunction
    near_infinity: YoungFunction
    tstar: float
    hi_scale: float = 1.0
    kind, keys = "glued", ("near_zero", "near_infinity", "tstar", "hi_scale")

    def __post_init__(self):
        for key in ("near_zero", "near_infinity"):  # a family record reads as its family
            if not isinstance(getattr(self, key), YoungFunction):
                object.__setattr__(self, key, from_config(getattr(self, key)))
        _check("glued", "tstar", self.tstar, 0.0)
        _check("glued", "hi_scale", self.hi_scale, 0.0)

    def __call__(self, t: float) -> float:
        if t <= 0.0:
            return 0.0
        if t <= self.tstar:
            return self.near_zero(t)
        v = self.near_infinity(t)
        return INF if v == INF else self.hi_scale * v

    def values(self, ts: np.ndarray) -> np.ndarray:
        t = np.asarray(ts, dtype=float).ravel()
        out = np.where(np.isnan(t), t, 0.0)
        near = (t > 0.0) & (t <= self.tstar)
        out[near] = self.near_zero.values(t[near])
        far = t > self.tstar
        with np.errstate(over="ignore"):
            out[far] = self.hi_scale * self.near_infinity.values(t[far])
        return out

    def inverse(self, v: float) -> float:
        if 0.0 <= v < self(self.tstar):
            return self.near_zero.inverse(v)
        return _numeric_inverse(self.__call__, v)

    @property
    def zero_order(self):
        return self.near_zero.zero_order

    @property
    def inf_order(self):
        return self.near_infinity.inf_order

    @property
    def finite_jump(self):
        j = self.near_infinity.finite_jump
        if j is not None:
            return max(j, self.tstar)
        return None


@dataclass(frozen=True, repr=False)
class Custom(YoungFunction):
    """Black-box evaluator with optional descriptors supplied by the caller."""

    fn: Callable[[float], float]
    inverse_fn: Optional[Callable[[float], float]] = None
    zero: Optional[GrowthOrder] = None
    inf_: Optional[GrowthOrder] = None
    jump: Optional[float] = None
    label: str = "custom"
    kind = "custom"

    def __call__(self, t: float) -> float:
        if t <= 0.0:
            return 0.0
        return self.fn(t)

    def inverse(self, v: float) -> float:
        if self.inverse_fn is None or not v >= 0:
            return _numeric_inverse(self.__call__, v)
        return self.inverse_fn(v)


@dataclass(frozen=True, repr=False)
class FromInverse(YoungFunction):
    """A Young function specified through its (continuous, increasing)
    inverse on arrays: ``inv_many`` maps a 1-D array of finite levels >= 0
    to the inverse at each.  A(t) is the root of inv_many(s) = t, found to
    1e-12 relative by ``_log_root_many``, every row at its own level (a few
    steps where the inverse is near a power law); 0 for t <= 0 and where
    inv_many stays above t down to the smallest normal float, inf where
    it stays below t up to the largest float.  The scalar forms are the array
    forms on one element, so both give the same bits; nan stays nan."""

    inv_many: Callable[[np.ndarray], np.ndarray]
    zero: Optional[GrowthOrder] = None
    inf_: Optional[GrowthOrder] = None
    kind = "from_inverse"

    def __call__(self, t: float) -> float:
        return float(self.values([t])[0])

    def values(self, ts: np.ndarray) -> np.ndarray:
        t = np.asarray(ts, dtype=float).ravel()
        out = np.where(np.isnan(t), t, 0.0)
        live = t > 0.0
        if live.any():
            lo, hi = _log_root_many(lambda s, rows: self.inv_many(s), t[live], True)
            with np.errstate(over="ignore"):
                out[live] = 0.5 * (lo + hi)
        return out

    def inverse(self, v: float) -> float:
        return float(self.inverse_values([v])[0])

    def inverse_values(self, vs: np.ndarray) -> np.ndarray:
        return _invert_levels(vs, self.inv_many)


# ---------------------------------------------------------------------------
# Config round-trip
# ---------------------------------------------------------------------------

def _make(record, makers: dict, what: str):
    """``makers[name](*numbers)`` for "name:a,b" text, and
    ``makers[name](**params)`` for a dict record {"kind": name, **params}: the
    parameters of each maker are the keys of its records.  A YoungError names
    the record and the key at fault; the maker checks the values."""
    args, params = [], {}
    if isinstance(record, str):
        name, _, rest = record.partition(":")
        name = name.strip().lower()
        try:
            args = [float(x) for x in rest.split(",") if x]
        except ValueError:
            raise YoungError(f"non-numeric parameter in {what} {record!r}") from None
    elif isinstance(record, dict):
        params = dict(record)
        name = params.pop("kind", None)
    else:
        raise YoungError(f"{what} must be a dict or 'kind:a,b' text, not {record!r}")
    maker = makers.get(name) if isinstance(name, str) else None
    if maker is None:
        raise YoungError(f"unknown {what} {record!r}")
    try:  # an unknown or missing key, or too many numbers
        inspect.signature(maker).bind(*args, **params)
    except TypeError as exc:
        raise YoungError(f"{what} {record!r}: {exc}") from None
    return maker(*args, **params)


_FAMILIES = {name: cls
             for cls in (Power, PowerLog, PowerLogLog, PowerExp, Exp, ExpNegInv, Gate, Glued)
             for name in (cls.kind, *cls.aliases)}
_FAMILIES["linear"] = linear


def from_config(record) -> YoungFunction:
    """The family of a dict record {"kind": kind, key: value, ...} or of
    "kind:a,b" text, whose numbers fill the ``keys`` in order; the kind is the
    ``kind`` or an alias of a class in ``_FAMILIES``, or "linear".  Inverse of
    ``to_config``; a YoungError names the record, key or parameter at fault."""
    return _make(record, _FAMILIES, "family")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def evaluate(y: YoungFunction, t: float) -> float:
    """A(t) on [0, inf); negative arguments are a domain error."""
    if t < 0:
        raise YoungError("Young functions are defined on [0, inf)")
    return y(t)


@dataclass(frozen=True)
class Delta2Verdict:
    holds: bool
    constant: Optional[float]
    witness: Optional[float]
    analytic: bool

    def __bool__(self):
        return self.holds


def _delta2_grid_constant(y: YoungFunction, regime: Regime) -> tuple:
    """(sup ratio or inf, witness, saw_positive) over the regime grid."""
    ts = regime.grid()
    sup = 0.0
    witness = None
    saw = False
    for t in ts:
        a = y(float(t))
        if a == 0.0 or a == INF:
            continue
        saw = True
        a2 = y(float(2.0 * t))
        if a2 == INF:
            return INF, float(t), True
        r = a2 / a
        if r > sup:
            sup, witness = r, float(t)
    return sup, witness, saw


def check_delta2(y: YoungFunction, regime: Regime) -> Delta2Verdict:
    """Doubling condition A(2t) <= c A(t) on the regime.

    Parametric kinds are decided from their growth descriptors; black boxes
    are probed on a geometric grid and the supremum ratio is reported.
    """
    sides = {"global": ("zero", "inf"), "near_zero": ("zero",),
             "near_infinity": ("inf",)}[regime.kind]
    orders = {"zero": y.zero_order, "inf": y.inf_order}
    analytic = all(orders[s] is not None for s in sides)

    if y.finite_jump is not None and ("inf" in sides):
        return Delta2Verdict(False, None, y.finite_jump, analytic=True)

    if analytic:
        for s in sides:
            fam = orders[s].family
            if fam == "exp" and s == "inf":
                sup, witness, _ = _delta2_grid_constant(y, regime)
                return Delta2Verdict(False, None, witness, analytic=True)
            if fam == "exp_neg_inv" and s == "zero":
                sup, witness, _ = _delta2_grid_constant(y, regime)
                return Delta2Verdict(False, None, witness, analytic=True)
            if fam == "flat" and s == "zero":
                # positive values appear right after the flat piece while the
                # ratio base is still zero
                return Delta2Verdict(False, None, None, analytic=True)
            if fam == "jump":
                return Delta2Verdict(False, None, y.finite_jump, analytic=True)
        if isinstance(y, Power):
            return Delta2Verdict(True, 2.0 ** y.p, None, analytic=True)
        sup, _, saw = _delta2_grid_constant(y, regime)
        if not saw:
            raise IndeterminateError("function vanishes on the probed regime")
        return Delta2Verdict(True, sup, None, analytic=True)

    sup, witness, saw = _delta2_grid_constant(y, regime)
    if not saw:
        raise IndeterminateError("function vanishes on the probed regime")
    if sup == INF or sup > 1e8:
        return Delta2Verdict(False, None, witness, analytic=False)
    return Delta2Verdict(True, sup, None, analytic=False)


@dataclass(frozen=True)
class EquivalenceVerdict:
    status: str  # "equivalent" | "not_equivalent" | "indeterminate"
    constant: Optional[float]
    witness: Optional[float]
    analytic: bool

    @property
    def equivalent(self):
        return self.status == "equivalent"

    def __bool__(self):
        return self.equivalent


def _sandwich_ok(y1, y2, c: float, ts: np.ndarray):
    for t in ts:
        t = float(t)
        b = y2(t)
        lo = y1(t / c)
        if not (lo <= b * (1 + 1e-9) + 1e-300):
            return False, t
        hi = y1(c * t)
        if not (b <= hi * (1 + 1e-9) + 1e-300):
            return False, t
    return True, None


def equivalent(y1: YoungFunction, y2: YoungFunction, regime: Regime,
               c_max: float = 1e6) -> EquivalenceVerdict:
    """Decide A(t/c) <= B(t) <= A(ct) on the regime, A = y1 and B = y2, with
    the smallest grid constant in [1, c_max] read off the inverse of A, to
    5e-10 relative: the largest t / A^{-1}(B(t)) and A^{-1}(B(t)) / t, each
    within the sandwich's tolerance, where c = 1 fails that side; parametric
    growth orders short-circuit the mismatch direction."""
    sides = {"global": ("zero", "inf"), "near_zero": ("zero",),
             "near_infinity": ("inf",)}[regime.kind]
    pairs = [(y1.zero_order, y2.zero_order) if s == "zero" else (y1.inf_order, y2.inf_order)
             for s in sides]
    known = [(o1, o2) for o1, o2 in pairs if o1 is not None and o2 is not None]
    analytic = len(known) == len(pairs)
    ts = regime.grid()
    ok, wit = _sandwich_ok(y1, y2, c_max, ts)
    if not all(o1.matches(o2) for o1, o2 in known):
        return EquivalenceVerdict("not_equivalent", None, float(ts[-1]) if ok else wit,
                                  analytic=True)
    if not ok:
        status = "not_equivalent" if analytic else "indeterminate"
        return EquivalenceVerdict(status, None, wit, analytic=analytic)
    a, b = y1.values(ts), y2.values(ts)
    with np.errstate(divide="ignore", over="ignore"):
        # where c = 1 fails A(t/c) <= B(t)(1 + 1e-9) + 1e-300, it passes once
        # t/c <= A^{-1} of that bound, and where c = 1 fails B(t) <= A(ct)(1 + 1e-9)
        # + 1e-300, once ct passes A^{-1} of the level; the largest float stands
        # in for inf, so where B is inf, A^{-1} finds A's jump
        lo, hi = ~(a <= b * (1 + 1e-9) + 1e-300), ~(b <= a * (1 + 1e-9) + 1e-300)
        lower = ts[lo] / y1.inverse_values(b[lo] * (1 + 1e-9) + 1e-300)
        level = np.minimum((b[hi] - 1e-300) / (1 + 1e-9), sys.float_info.max)
        upper = y1.inverse_values(level) / ts[hi]
    c = max(float(lower.max(initial=0.0)), float(upper.max(initial=0.0)))
    c = 1.0 if c <= 1.0 else min(c * (1 + 5e-10), c_max)
    return EquivalenceVerdict("equivalent", c, None, analytic=analytic)


def is_nondegenerate(y: YoungFunction) -> bool:
    """True when A(t) > 0 for every t > 0."""
    o = y.zero_order
    if o is not None:
        if o.family == "flat":
            return False
        return True
    return y(1e-9) > 0.0 or y(1e-3) > 0.0


def modify_near_zero(y: YoungFunction, n: int) -> Glued:
    """Replace A near zero with a linear segment so the conjugate-defining
    integral converges at the origin; the result equals A beyond the glue
    point, hence is equivalent to A near infinity with constant 1."""
    _check("modify_near_zero", "dimension n", n, 2.0, strict=False)
    # prefer the unit scale; descend only when the function jumps or
    # vanishes there (the choice only moves equivalence constants)
    for j in list(range(0, 60)) + list(range(-1, -25, -1)):
        t = 2.0 ** j
        a = y(t)
        if a == INF or a <= 0.0:
            continue
        slope = y.right_slope(t)
        if a / t <= slope * (1 + 1e-9) + 1e-300:
            return Glued(Power(1.0, scale=a / t), y, t, 1.0)
    raise ConstructionError("no glue point found for near-zero modification")
