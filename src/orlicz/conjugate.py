"""Sobolev conjugates of Young functions.

The conjugate of A with exponent n is A(H^{-1}(t)) where
H(s) = (int_0^s (t/A(t))^{1/(n-1)} dt)^{(n-1)/n}.  The defining integral is
classified at both endpoints; when it diverges at the origin the function is
first replaced near zero by a linear segment (which leaves the conjugate's
behaviour near infinity unchanged up to equivalence).

H is tabulated once on a geometric grid at build time (15-node Gauss panels
on a log axis, exponent-fit extrapolation at the improper endpoint) and
wrapped in an in-house Fritsch–Carlson monotone cubic, so conjugate
evaluations inside modular integrals stay cheap.  ``an`` and the plain-float
copies of the table are cached on first use, not made by a build; each is a
pure function of the object that holds it, so two threads that first use it
at once may both build it but read the same values.  The integrand is an
array function with one ``values`` call of the base per call.  A build
evaluates the nodes and right ends of 256 panels at a time, sums each panel
in node order and accumulates the sums; it stops at the first panel that
ends 3 zero panels in a row, takes ln H past ln 1e12, or ends beyond
x = 690, and raises only for a non-finite panel at or before that stop.
H^{-1} runs Newton on the one cubic piece that brackets the level, on plain
floats for a scalar and on whole arrays in ``inverse_many`` and ``an_values``.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from ._quad import G15_X as _G15_X
from ._quad import _panel_sums
from ._quad import quad_interval as _quad_interval
from .young import (
    INF,
    ConstructionError,
    Custom,
    Glued,
    GrowthOrder,
    IndeterminateError,
    YoungError,
    YoungFunction,
    _check,
    modify_near_zero,
)


class IntegralClass(enum.Enum):
    CONVERGES = "converges"
    DIVERGES = "diverges"
    INDETERMINATE = "indeterminate"


# ---------------------------------------------------------------------------
# Integrand and endpoint classification
# ---------------------------------------------------------------------------

def _integrand(y: YoungFunction, nexp: float):
    """The integrand (t / A(t))^{1/(n-1)} of H on a 1-D array, through one
    ``y.values`` call: 0 for t <= 0 and where A is inf, inf where A is 0 or
    the power overflows."""
    e = 1.0 / (nexp - 1.0)

    def g(ts: np.ndarray) -> np.ndarray:
        t = np.asarray(ts, dtype=float)
        a = y.values(t)
        with np.errstate(divide="ignore", invalid="ignore"):  # masked below
            lg = e * (np.log(t) - np.log(a))
        out = np.exp(np.minimum(lg, 709.0))
        out[lg > 709.0] = INF
        out[a <= 0.0] = INF
        out[a == INF] = 0.0
        out[t <= 0.0] = 0.0
        return out

    return g


def _in_log_variable(g):
    """Array integrand u -> g(e^u) e^u."""
    def f(us):
        t = np.exp(us)
        with np.errstate(over="ignore"):
            return g(t) * t
    return f


def _fit_slope(g, ts) -> Optional[float]:
    """Local log-log slopes over consecutive points: the last of the first
    three within 0.02, else None; inf (-inf) where g is first inf (<= 0).
    The few windows are scanned in Python, faster than numpy at this size."""
    ts = np.asarray(ts, dtype=float)
    v = g(ts)
    bad = (v == INF) | (v <= 0.0)
    if bad.any():
        return INF if v[bad.argmax()] == INF else -INF
    lv, lt = np.log(v), np.log(ts)
    s = ((lv[1:] - lv[:-1]) / (lt[1:] - lt[:-1])).tolist()
    for i in range(len(s) - 2):
        if max(s[i:i + 3]) - min(s[i:i + 3]) <= 0.02:
            return s[i + 2]
    return None


def _classify(y: YoungFunction, n: float, at_zero: bool) -> IntegralClass:
    """Both ends by one rule (the origin when ``at_zero``): a known order
    t^q log^a converges at 0 for q < n, at infinity for q > n, and at both
    for q = n and a > n - 1.  Otherwise the integrand's fitted log-log slope
    m converges at 0 for m > -1 and at infinity for m < -1."""
    _check("conjugate", "exponent n", n, 2.0, strict=False)
    if not at_zero and y.finite_jump is not None:
        return IntegralClass.CONVERGES
    o = y.zero_order if at_zero else y.inf_order
    if o is not None and o.family in (("flat", "exp_neg_inv") if at_zero else ("exp", "jump")):
        return IntegralClass.DIVERGES if at_zero else IntegralClass.CONVERGES
    if o is not None:
        q = o.power
        converges = (q < n) == at_zero if q < n or q > n else o.log_exp > n - 1.0
    else:
        ks = range(2, 9) if at_zero else range(2, 10)
        m = _fit_slope(_integrand(y, n), [10.0 ** (-k if at_zero else k) for k in ks])
        if m is None or not (m > -1.0 + 1e-3 or m < -1.0 - 1e-3):
            return IntegralClass.INDETERMINATE
        # an infinite integrand (m = inf) diverges, a vanishing one converges
        converges = m < 0.0 if math.isinf(m) else (m > -1.0) == at_zero
    return IntegralClass.CONVERGES if converges else IntegralClass.DIVERGES


def classify_integral_zero(y: YoungFunction, n: float) -> IntegralClass:
    """Convergence of the conjugate-defining integral at the origin."""
    return _classify(y, n, True)


def classify_integral_inf(y: YoungFunction, n: float) -> IntegralClass:
    """Convergence of the conjugate-defining integral at infinity."""
    return _classify(y, n, False)


# ---------------------------------------------------------------------------
# Panel quadrature helpers
# ---------------------------------------------------------------------------

def _head_integral(g, s_min: float) -> tuple:
    """(integral of g over (0, s_min], fitted local exponent)."""
    v1, v2 = g(np.array([s_min, 0.5 * s_min])).tolist()
    if v1 <= 0.0 and v2 <= 0.0:
        return 0.0, 0.0
    if v1 <= 0.0 or v2 <= 0.0 or v1 == INF or v2 == INF:
        raise IndeterminateError("integrand not power-like at the origin")
    m = math.log2(v1 / v2)
    if m <= -1.0 + 1e-3:
        raise YoungError("integral diverges at the origin; modify near zero first")
    return v1 * s_min / (m + 1.0), m


# ---------------------------------------------------------------------------
# Monotone cubic kernel
# ---------------------------------------------------------------------------

def _end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """Shape-preserving three-point derivative estimate at an end knot."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return float(d)


class _MonotoneCubic:
    """Piecewise cubic Hermite interpolant with Fritsch–Carlson slopes
    (SIAM J. Numer. Anal. 17, 1980): weighted harmonic means of the secants
    at interior knots, the three-point rule at the ends (the PCHIP rule).

    The coefficients of s^0..s^3 on each interval and those of the derivative
    are kept as arrays, and as float tuples made on the first scalar read;
    each scalar method and its array twin agree bit for bit.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        h = np.diff(x)
        m = np.diff(y) / h
        d = np.zeros_like(y)
        w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0.0) | (m[:-1] == 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
            d[1:-1] = np.where(flat, 0.0, 1.0 / whmean)
        if len(h) == 1:  # two knots: the secant line, as scipy does
            d[:] = m[0]
        else:
            d[0] = _end_slope(h[0], h[1], m[0], m[1])
            d[-1] = _end_slope(h[-1], h[-2], m[-1], m[-2])
        t = (d[:-1] + d[1:] - 2.0 * m) / h
        c2, c3 = (m - d[:-1]) / h - t, t / h
        self.x = x
        self.coef = np.array([y[:-1], d[:-1], c2, c3, 2.0 * c2, 3.0 * c3])
        self._last = len(x) - 2

    _x = cached_property(lambda self: self.x.tolist())  # made on the first scalar read
    _coef = cached_property(lambda self: list(zip(*self.coef.tolist())))

    def at(self, x: float) -> tuple:
        """(value, derivative) at a float inside the knot range."""
        i = min(max(bisect_right(self._x, x) - 1, 0), self._last)
        c0, c1, c2, c3, d2, d3 = self._coef[i]
        s = x - self._x[i]
        s2 = s * s
        return c0 + c1 * s + c2 * s2 + c3 * (s2 * s), c1 + d2 * s + d3 * s2

    def at_many(self, x: np.ndarray) -> tuple:
        """Array version of ``at``."""
        i = np.clip(np.searchsorted(self.x, x, side="right") - 1, 0, self._last)
        c0, c1, c2, c3, d2, d3 = self.coef[:, i]
        s = x - self.x[i]
        s2 = s * s
        return c0 + c1 * s + c2 * s2 + c3 * (s2 * s), c1 + d2 * s + d3 * s2

    def root(self, i: int, x: float, y: float) -> float:
        """Newton's iteration for the value ``y`` from x on the monotone piece
        i, which holds the root, each iterate clamped to it; it stops after 12
        steps, at a step below 1e-14 max(1, |x|) or a derivative <= 0."""
        c0, c1, c2, c3, d2, d3 = self._coef[i]
        a, b = self._x[i], self._x[i + 1]
        for _ in range(12):
            s = x - a
            s2 = s * s
            slope = c1 + d2 * s + d3 * s2
            if slope <= 0.0:
                break
            step = (c0 + c1 * s + c2 * s2 + c3 * (s2 * s) - y) / slope
            x = min(max(x - step, a), b)
            if abs(step) < 1e-14 * max(1.0, abs(x)):
                break
        return x

    def root_many(self, i: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``root`` entry by entry on arrays, each entry frozen where it stops."""
        c0, c1, c2, c3, d2, d3 = self.coef[:, i]
        a, b = self.x[i], self.x[i + 1]
        live = np.ones(x.shape, dtype=bool)
        for _ in range(12):
            s = x - a
            s2 = s * s
            slope = c1 + d2 * s + d3 * s2
            live &= slope > 0.0
            with np.errstate(divide="ignore", invalid="ignore"):  # not live: unused
                step = (c0 + c1 * s + c2 * s2 + c3 * (s2 * s) - y) / slope
            x = np.where(live, np.minimum(np.maximum(x - step, a), b), x)
            live &= np.abs(step) >= 1e-14 * np.maximum(1.0, np.abs(x))
            if not live.any():
                break
        return x


# ---------------------------------------------------------------------------
# Tabulated H with monotone interpolation
# ---------------------------------------------------------------------------

def _panel_edges() -> np.ndarray:
    """Table knots in x = ln t: from ln 1e-10 in steps of ln10/32, in steps
    of ln10/8 past ln 1e10, up to the first knot beyond 690; each knot is
    the last plus a step, so a knot does not depend on where a build stops."""
    core_step, tail_step = math.log(10.0) / 32.0, math.log(10.0) / 8.0
    x = math.log(1e-10)
    xs, step = [x], core_step
    while x <= 690.0:
        x += step
        xs.append(x)
        if x >= math.log(1e10):
            step = tail_step
    return np.array(xs)


_EDGES = _panel_edges()
_BLOCK = 256  # panels per integrand call; all ~3,000 at once raise peak memory
_LN_H_MAX = math.log(1e12)


class HnTable:
    """Forward map H(s) and its inverse, built once from the integrand.

    ``diverges_at_inf`` comes from the upstream classification and pins the
    limit of H to +inf even where float overflow of the base function makes
    the tail integrand evaluate to zero.
    """

    def __init__(self, y: YoungFunction, nexp: float,
                 diverges_at_inf: bool = False):
        self.nexp = float(nexp)
        self.nprime = nexp / (nexp - 1.0)
        self._g = g = _integrand(y, nexp)
        s_min = 1e-10
        head, m0 = _head_integral(g, s_min)
        self._m0 = m0
        # integrand vanished below s_min (cannot happen after the upstream
        # classification, kept as a guard)
        acc = head if head > 0.0 else 1e-300
        xs, lnI = [_EDGES[:1]], [np.array([math.log(acc)])]
        zeros = 0  # zero panels in a row before the block
        for k in range(0, len(_EDGES) - 1, _BLOCK):
            a, b = _EDGES[k:k + _BLOCK], _EDGES[k + 1:k + 1 + _BLOCK]
            p = len(b)
            half = 0.5 * (b - a)
            us = (0.5 * (a + b))[:, None] + half[:, None] * _G15_X
            # the nodes and the right ends of the block's panels in one call
            t = np.exp(np.concatenate([us.ravel(), b]))
            gt = g(t)
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                inc = _panel_sums(gt[None, :-p] * t[None, :-p], half)[0]
                accs = np.cumsum(np.concatenate([[acc], inc]))[1:]
                lnI_b = np.log(accs)
            zero = (inc <= 0.0) | (gt[-p:] == 0.0)
            i = np.arange(p)
            run = i - np.maximum.accumulate(np.where(zero, -1 - zeros, i))
            stop = (run >= 3) | (lnI_b / self.nprime > _LN_H_MAX) | (b > 690.0)
            end = int(np.argmax(stop)) if stop.any() else p
            bad = ~np.isfinite(inc[:end + 1])
            if bad.any():
                raise IndeterminateError("integrand blow-up inside the table range")
            xs.append(b[:end + 1])
            lnI.append(lnI_b[:end + 1])
            if end < p:
                break
            acc, zeros = float(accs[-1]), int(run[-1])
        self._xs = np.concatenate(xs)
        self._lnI = np.concatenate(lnI)
        self._lnH = self._lnI / self.nprime
        self._cubic = _MonotoneCubic(self._xs, self._lnH)
        # total integral and limit of H at infinity
        if diverges_at_inf:
            self._I_total = INF
        else:
            tail = 0.0
            # fit the tail exponent at the last point where the integrand is
            # still positive (the base may overflow to inf before any jump)
            t_fit = math.exp(self._xs[-1])
            while True:
                g_end, v2 = g(np.array([t_fit, 0.5 * t_fit])).tolist()
                if g_end > 0.0 or t_fit <= 1.0:
                    break
                t_fit *= 0.5
            if g_end > 0.0 and v2 > 0.0:
                m_inf = math.log2(g_end / v2)
                if m_inf < -1.0 - 1e-6:
                    tail = g_end * t_fit / (-1.0 - m_inf)
            self._I_total = math.exp(self._lnI[-1]) + tail
        self.limit = (self._I_total ** (1.0 / self.nprime)
                      if self._I_total != INF else INF)
        # the table ends for the scalar paths
        self._x_lo, self._x_hi = float(self._xs[0]), float(self._xs[-1])
        self._lnH_lo, self._lnH_hi = float(self._lnH[0]), float(self._lnH[-1])
        self._lnI_lo = float(self._lnI[0])
        k = min(5, len(self._xs))  # the last four panels, fewer on a short table
        self._tail_slope = float((self._lnH[-1] - self._lnH[-k])
                                 / (self._xs[-1] - self._xs[-k]))

    # -- forward -----------------------------------------------------------
    def __call__(self, s: float) -> float:
        if s <= 0.0:
            return 0.0
        x = math.log(s)
        if x < self._x_lo:
            # head power law: I ~ c s^{m0+1}
            lnI = self._lnI_lo + (self._m0 + 1.0) * (x - self._x_lo)
            return math.exp(lnI / self.nprime)
        if x > self._x_hi:
            return self.refined(s)
        return math.exp(self._cubic.at(x)[0])

    def refined(self, s: float) -> float:
        """H(s) from the cumulative table plus an exact local panel."""
        if s <= 0.0:
            return 0.0
        x = math.log(s)
        if x < self._x_lo:
            return self(s)
        j = bisect_right(self._cubic._x, x) - 1
        base = math.exp(self._lnI[j])
        inc = _quad_interval(_in_log_variable(self._g), self._cubic._x[j], x, rel=1e-11)
        if inc == INF:
            return INF
        total = base + inc
        if self._I_total != INF:
            total = min(total, self._I_total)
        return total ** (1.0 / self.nprime)

    # -- inverse -----------------------------------------------------------
    _lnH_list = cached_property(lambda self: self._lnH.tolist())  # made on the first scalar read

    def _chord(self, lt: float) -> tuple:
        """(np.interp(lt, lnH, xs) bit for bit, the last j with lnH_j <= lt), on plain floats."""
        xs, lnH = self._cubic._x, self._lnH_list
        j = bisect_right(lnH, lt) - 1
        if lt == lnH[j]:
            return xs[j], j
        return (xs[j + 1] - xs[j]) / (lnH[j + 1] - lnH[j]) * (lt - lnH[j]) + xs[j], j

    def inverse(self, t: float) -> float:
        """H^{-1}(t): closed forms beyond the table ends, Newton from ``_chord``
        inside, on the piece that brackets ln t (the last for the top knot); nan for nan."""
        if not t > 0.0:
            return 0.0 if t <= 0.0 else t
        if self.limit != INF and t >= self.limit:
            return INF
        lt = math.log(t)
        if lt < self._lnH_lo:
            # head power law inverts in closed form
            x = self._x_lo + (lt - self._lnH_lo) * self.nprime / (self._m0 + 1.0)
            return math.exp(x)
        if lt > self._lnH_hi:
            if self._tail_slope <= 1e-12:
                return INF
            x = self._x_hi + (lt - self._lnH_hi) / self._tail_slope
            return INF if x > 700.0 else math.exp(x)
        x, j = self._chord(lt)
        return math.exp(self._cubic.root(min(j, self._cubic._last), x, lt))

    def inverse_many(self, ts) -> np.ndarray:
        """``inverse`` on an array: its branches, chord start, piece and
        Newton iteration, entry by entry.  The two agree to 1e-12 relative,
        not bit for bit: ``inverse`` rounds exp and log through libm, this
        method through numpy; with numpy's in both they agree exactly."""
        ts = np.asarray(ts, dtype=float)
        t = ts.ravel()
        out = np.where(np.isnan(t), t, 0.0)
        live = t > 0.0
        if self.limit != INF:
            out[t >= self.limit] = INF
            live &= t < self.limit
        lt = np.log(t, where=live, out=np.zeros(t.shape))
        head = live & (lt < self._lnH_lo)
        tail = live & (lt > self._lnH_hi)
        out[head] = np.exp(self._x_lo + (lt[head] - self._lnH_lo)
                           * self.nprime / (self._m0 + 1.0))
        if self._tail_slope <= 1e-12:
            out[tail] = INF
        else:
            x = self._x_hi + (lt[tail] - self._lnH_hi) / self._tail_slope
            out[tail] = np.where(x > 700.0, INF, np.exp(np.minimum(x, 700.0)))
        idx = np.flatnonzero(live & ~head & ~tail)
        target = lt[idx]
        x = np.interp(target, self._lnH, self._xs)
        j = np.searchsorted(self._lnH, target, side="right") - 1
        out[idx] = np.exp(self._cubic.root_many(np.minimum(j, self._cubic._last), x, target))
        return out.reshape(ts.shape)


# ---------------------------------------------------------------------------
# Conjugate results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SobolevConjugate:
    """Conjugate bundle: the (possibly modified) base function, the monotone
    map hn with its inverse, the conjugate an, and endpoint classifications."""

    base: YoungFunction
    modified: YoungFunction
    nexp: float
    hn: HnTable
    h_limit: float
    classification_zero: IntegralClass
    classification_inf: IntegralClass

    @cached_property
    def an(self) -> YoungFunction:  # built once, on first use
        zero, inf_ = _an_orders(self.base, self.nexp,
                                self.classification_zero is IntegralClass.DIVERGES)
        return Custom(fn=self.an_value, inverse_fn=self._an_inverse, zero=zero, inf_=inf_,
                      jump=self.h_limit if self.h_limit != INF else None,
                      label=f"conjugate[{self.nexp:g}]")

    def an_value(self, t: float) -> float:
        """A_n(t) = A(H^{-1}(t)); nan for nan."""
        if not t > 0.0:
            return 0.0 if t <= 0.0 else t
        if self.h_limit != INF and t > self.h_limit:
            return INF
        s = self.hn.inverse(t)
        return INF if s == INF else self.modified(s)

    def _an_inverse(self, v: float) -> float:
        s = self.modified.inverse(v)
        return INF if s == INF else self.hn.refined(s)

    def an_values(self, ts) -> np.ndarray:
        """``an_value`` on an array, through ``HnTable.inverse_many``; entry by
        entry, so each value does not depend on the rest of the array.  It
        agrees with ``an_value`` to 1e-12 relative, as the inverses do."""
        ts = np.asarray(ts, dtype=float)
        s = self.hn.inverse_many(ts.ravel())
        out = np.where((s == INF) | np.isnan(s), s, 0.0)
        ok = (ts.ravel() > 0.0) & (s != INF)
        out[ok] = self.modified.values(s[ok])
        return out.reshape(ts.shape)


def _an_orders(y: YoungFunction, nexp: float, was_modified: bool):
    """Growth descriptors of the conjugate when the base is a pure power."""
    zero = None
    inf_ = None
    o = y.inf_order
    q = GrowthOrder.pure_power(o)
    if q is not None:
        if q < nexp:
            inf_ = GrowthOrder(nexp * q / (nexp - q))
        elif q == nexp:
            inf_ = GrowthOrder(nexp / (nexp - 1.0), family="exp")
        else:
            inf_ = GrowthOrder(0.0, family="jump")
    elif o is not None and o.family in ("exp", "jump"):
        inf_ = GrowthOrder(0.0, family="jump")
    q0 = GrowthOrder.pure_power(y.zero_order)
    if was_modified:
        zero = GrowthOrder(nexp / (nexp - 1.0))
    elif q0 is not None and q0 < nexp:
        zero = GrowthOrder(nexp * q0 / (nexp - q0))
    return zero, inf_


def sobolev_conjugate(y: YoungFunction, n: float) -> SobolevConjugate:
    """Build the conjugate with exponent n, applying the near-zero linear
    replacement first whenever the defining integral diverges at the origin."""
    _check("conjugate", "exponent n", n, 2.0, strict=False)
    cz = classify_integral_zero(y, n)
    ci = classify_integral_inf(y, n)
    if cz is IntegralClass.INDETERMINATE or ci is IntegralClass.INDETERMINATE:
        raise IndeterminateError(
            "endpoint classification is indeterminate; supply growth descriptors")
    was_modified = cz is IntegralClass.DIVERGES
    base_mod = modify_near_zero(y, max(2, int(math.ceil(n)))) if was_modified else y
    table = HnTable(base_mod, n,
                    diverges_at_inf=ci is IntegralClass.DIVERGES)
    return SobolevConjugate(
        base=y, modified=base_mod, nexp=float(n), hn=table, h_limit=table.limit,
        classification_zero=cz, classification_inf=ci)


def sobolev_conjugate_sigma(y: YoungFunction, sigma: float, n: float = 2.0) -> SobolevConjugate:
    """Conjugate with the dimension exponent replaced by sigma >= n >= 2."""
    _check("conjugate", "dimension n", n, 2.0, strict=False)
    if sigma < n:
        raise YoungError("the relative isoperimetric exponent needs sigma >= n")
    return sobolev_conjugate(y, sigma)


def h_n(y: YoungFunction, n: float, s: float) -> float:
    """Accurate single evaluation of H(s); relative error target 1e-8.

    Requires the defining integral to converge at the origin; apply
    modify_near_zero first otherwise.
    """
    if s < 0:
        raise YoungError("H is defined on [0, inf)")
    if s == 0.0:
        return 0.0
    cz = classify_integral_zero(y, n)
    if cz is IntegralClass.DIVERGES:
        raise YoungError("integral diverges at the origin; modify near zero first")
    if cz is IntegralClass.INDETERMINATE:
        raise IndeterminateError("origin behaviour of the integrand is unclear")
    g = _integrand(y, n)
    s_min = min(1e-10, s * 1e-6)
    total, _ = _head_integral(g, s_min)
    x0, x1 = math.log(s_min), math.log(s)
    steps = max(1, int(math.ceil((x1 - x0) / (math.log(10.0) / 16.0))))
    edges = np.linspace(x0, x1, steps + 1)
    for a, b in zip(edges[:-1], edges[1:]):
        inc = _quad_interval(_in_log_variable(g),
                             float(a), float(b), rel=1e-11)
        if inc == INF:
            return INF
        total += inc
    return total ** ((n - 1.0) / n)


def hat_an(y: YoungFunction, n: float) -> Glued:
    """Two-regime function equal to the base near zero and to a scalar
    multiple of its conjugate near infinity.

    The glue point is the smallest dyadic t >= 1 where the local log-slope of
    the conjugate dominates; the scalar keeps the function continuous, which
    preserves convexity and leaves both equivalence classes untouched.
    """
    conj = sobolev_conjugate(y, n)

    def log_slope(f, t: float, h: float = 1e-5) -> float:
        v0, v1 = f(t), f(t * (1.0 + h))
        if v0 == INF or v1 == INF or v0 <= 0.0 or v1 <= 0.0:
            return INF
        return (math.log(v1) - math.log(v0)) / math.log1p(h)

    t = 1.0
    for _ in range(64):
        ls_base = log_slope(y, t)
        ls_conj = log_slope(conj.an_value, t)
        if ls_conj == INF and conj.h_limit != INF and t > conj.h_limit:
            raise ConstructionError("conjugate jumps to +inf before a glue point")
        if ls_base <= ls_conj * (1 + 1e-9):
            an_t = conj.an_value(t)
            if 0.0 < an_t < INF:
                return Glued(y, conj.an, t, hi_scale=y(t) / an_t)
        t *= 2.0
    raise ConstructionError("no slope-compatible glue point found")
