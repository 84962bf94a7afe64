"""Shared Gauss panel quadrature primitives.

Integrands take arrays of nodes.  ``quad_rows`` is the one adaptive engine:
it integrates many integrands that share one interval, each row with its own
stopping rule, and evaluates every panel of every active row in one call.
Panel sums accumulate node by node in a fixed order, so a row's result does
not depend on which other rows share its calls, and equals the scalar rule's.
"""

from __future__ import annotations

import functools
import math

import numpy as np

INF = math.inf

G15_X, G15_W = np.polynomial.legendre.leggauss(15)


def _nodes(a: float, b: float) -> np.ndarray:
    return 0.5 * (a + b) + 0.5 * (b - a) * G15_X


def _panel_sums(vals: np.ndarray, halfwidths) -> np.ndarray:
    """Gauss sums of consecutive 15-node panels, one row per integrand.

    ``vals`` is (m, 15 p); the result is (m, p).  A panel with a non-finite
    sample is -inf when all its non-finite samples are -inf, else +inf.
    """
    v = vals.reshape(vals.shape[0], -1, 15)
    # a running sum adds the nodes in order, as a scalar loop does
    terms = v * G15_W
    with np.errstate(invalid="ignore"):  # an inf and a -inf: set below
        total = np.cumsum(terms, axis=2, out=terms)[:, :, -1] * halfwidths
    total[(v == -INF).any(axis=2)] = -INF
    total[(np.isnan(v) | (v == INF)).any(axis=2)] = INF
    return total


def gauss15(f, a: float, b: float) -> float:
    """15-node Gauss-Legendre rule on [a, b] for an array integrand: one
    panel of ``_panel_sums``."""
    vals = np.asarray(f(_nodes(a, b)), dtype=float)
    return float(_panel_sums(vals[None, :], 0.5 * (b - a))[0, 0])


def quad_rows(F, a: float, b: float, rel: float = 1e-10, depth: int = 14,
              rows: int = 1) -> np.ndarray:
    """Adaptive bisection of the panel rule for ``rows`` integrands on [a, b].

    ``F(xs, idx)`` returns the (len(idx), len(xs)) values of rows ``idx`` at
    nodes ``xs``.  Each row stops when its halves agree with the whole panel
    to ``rel`` relative plus an absolute floor, ``rel * (|whole| + 1e-300)``
    on [a, b], halved with each split, so that panels negligible against
    the whole integral stop refining; at ``depth`` levels it takes the
    halves as they are.  A non-finite sample makes the row -inf when every
    non-finite sample of the row is -inf, else +inf.  A child's
    whole panel is its parent's half, so a split evaluates only the new
    halves, and only for the rows that have not stopped.
    """
    idx = np.arange(rows)
    mid = 0.5 * (a + b)
    xs = np.concatenate([_nodes(a, b), _nodes(a, mid), _nodes(mid, b)])
    sums = _panel_sums(np.asarray(F(xs, idx), dtype=float),
                       np.array([0.5 * (b - a), 0.5 * (mid - a), 0.5 * (b - mid)]))
    whole = sums[:, 0]
    out = whole.copy()
    ok = np.isfinite(whole)
    if ok.any():
        out[ok] = _refine(F, idx[ok], a, b, whole[ok], sums[ok, 1], sums[ok, 2],
                          rel, depth, np.zeros(np.count_nonzero(ok)))
    return out


def _refine(F, idx, a, b, whole, left, right, rel, depth, floor):
    """Rows ``idx`` on [a, b], given their whole and half panel sums."""
    # a zero floor (at the top, or halved to underflow) is set from this panel
    floor = np.where(floor == 0.0, rel * (np.abs(whole) + 1e-300), floor)
    out = _add(left, right)
    go = np.isfinite(out) & ~(np.abs(out - whole) <= rel * np.abs(out) + floor)
    if depth <= 0 or not go.any():
        return out
    sub, fl, mid = idx[go], 0.5 * floor[go], 0.5 * (a + b)
    out[go] = _add(_split(F, sub, a, mid, left[go], rel, depth - 1, fl),
                   _split(F, sub, mid, b, right[go], rel, depth - 1, fl))
    return out


def _add(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x + y, with +inf where an inf meets a -inf."""
    with np.errstate(invalid="ignore"):
        s = x + y
    s[np.isnan(s)] = INF
    return s


def _split(F, idx, a, b, whole, rel, depth, floor):
    """Evaluate the halves of [a, b] for rows ``idx``, then refine."""
    mid = 0.5 * (a + b)
    sums = _panel_sums(np.asarray(F(np.concatenate([_nodes(a, mid), _nodes(mid, b)]), idx),
                                  dtype=float),
                       np.array([0.5 * (mid - a), 0.5 * (b - mid)]))
    return _refine(F, idx, a, b, whole, sums[:, 0], sums[:, 1], rel, depth, floor)


def quad_interval(f, a: float, b: float, rel: float = 1e-10, depth: int = 14) -> float:
    """Adaptive bisection of the panel rule for one array integrand."""
    return float(quad_rows(lambda xs, idx: np.asarray(f(xs), dtype=float)[None, :],
                           a, b, rel, depth)[0])


@functools.cache
def gauss_legendre(nodes: int) -> tuple:
    """The ``nodes``-point Gauss-Legendre rule on [-1, 1], (x, w): cached,
    read-only."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def tensor_rule(lower, upper, nodes: int) -> tuple:
    """Tensor Gauss-Legendre rule on a box: (points (N, n), weights (N,)),
    N = nodes ** n, the last axis varying fastest."""
    xs, ws = [], []
    gx, gw = gauss_legendre(nodes)
    for lo, hi in zip(lower, upper):
        h = 0.5 * (hi - lo)
        xs.append(0.5 * (lo + hi) + h * gx)
        ws.append(h * gw)
    mesh = np.meshgrid(*xs, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    w = ws[0]
    for arr in ws[1:]:
        w = np.multiply.outer(w, arr)
    return pts, w.ravel()
