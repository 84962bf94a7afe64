"""Shared Gauss panel quadrature primitives.

Integrands take arrays of nodes.  ``quad_rows`` is the one adaptive engine:
it integrates many integrands that share one interval, each row with its own
stopping rule, and evaluates every panel of every active row in one call.
Its panel is the 21-node Gauss-Kronrod rule K21, whose embedded 10-node
Gauss rule G10 gives the panel's error estimate |K21 - G10| from the same
samples (QUADPACK's qk21; Piessens et al., 1983).  Panel sums accumulate
node by node in a fixed order, so a row's result does not depend on which
other rows share its calls, and equals the scalar rule's.  Finiteness is
checked once per panel, on its sum: only a non-finite sum is searched for
the signs of its non-finite samples.
"""

from __future__ import annotations

import functools
import math

import numpy as np

INF = math.inf

G15_X, G15_W = np.polynomial.legendre.leggauss(15)

# QUADPACK qk21: the Kronrod nodes of [0, 1) from the largest down, their
# K21 weights, and the G10 weights of the Gauss nodes among them (every
# second node, from the largest)
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077208980223048, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651146)
# the 21 nodes in increasing order; the G10 nodes are the odd positions
K21_X = np.array([-x for x in _XGK[:-1]] + list(_XGK[::-1]))
K21_W = np.array(_WGK[:-1] + _WGK[::-1])
G10_W = np.array(_WG + _WG[::-1])


def _nodes(a: float, b: float, x: np.ndarray = K21_X) -> np.ndarray:
    return 0.5 * (a + b) + 0.5 * (b - a) * x


def _panel_sums(vals: np.ndarray, halfwidths, w: np.ndarray = G15_W) -> np.ndarray:
    """Sums of consecutive panels of ``len(w)`` nodes with weights ``w``, one
    row per integrand.

    ``vals`` is (m, len(w) p); the result is (m, p).  A panel with a
    non-finite sample is -inf when all its non-finite samples are -inf, else
    +inf.
    """
    v = vals.reshape(vals.shape[0], -1, len(w))
    # a running sum adds the nodes in order, as a scalar loop does
    terms = v * w
    with np.errstate(invalid="ignore"):  # an inf and a -inf: set below
        total = np.cumsum(terms, axis=2, out=terms)[:, :, -1] * halfwidths
    bad = ~np.isfinite(total)  # a non-finite sample makes the sum non-finite
    if bad.any():
        total[bad] = _signed(v[bad], total[bad])
    return total


def _signed(samples: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """Non-finite panel ``sums`` with the rule's sign: -inf when every
    non-finite sample of the panel's row of ``samples`` is -inf, else +inf."""
    return np.where((np.isnan(samples) | (samples == INF)).any(axis=1), INF,
                    np.where((samples == -INF).any(axis=1), -INF, sums))


# K21's weights and G10's stacked, G10's zero at the nodes only K21 has
_KG_W = np.stack([K21_W, np.zeros(21)])
_KG_W[1, 1::2] = G10_W


def _kronrod(vals: np.ndarray, halfwidths) -> tuple:
    """The K21 and the G10 sums of consecutive 21-node panels, each as
    ``_panel_sums`` gives them, from one running sum over both rules.

    G10's terms at the nodes only K21 has are -0.0, not 0 times a sample
    that may be infinite: x + -0.0 is x bit for bit, a zero of either sign
    included.
    """
    v = vals.reshape(len(vals), -1, 1, 21)
    with np.errstate(invalid="ignore"):  # 0 * inf, overwritten; an inf and a -inf: set below
        terms = v * _KG_W
        terms[:, :, 1, ::2] = -0.0
        total = np.cumsum(terms, axis=3, out=terms)[..., -1] * np.reshape(halfwidths, (-1, 1))
    bad = ~np.isfinite(total)
    if bad.any():  # each rule's sign from the samples it reads
        row, panel, rule = np.nonzero(bad)
        total[bad] = _signed(np.where(_KG_W[rule] != 0.0, v[row, panel, 0], 0.0), total[bad])
    return total[..., 0], total[..., 1]


def gauss15(f, a: float, b: float) -> float:
    """15-node Gauss-Legendre rule on [a, b] for an array integrand: one
    panel of ``_panel_sums``."""
    vals = np.asarray(f(_nodes(a, b, G15_X)), dtype=float)
    return float(_panel_sums(vals[None, :], 0.5 * (b - a))[0, 0])


def quad_rows(F, a: float, b: float, rel: float = 1e-10, depth: int = 14,
              rows: int = 1) -> np.ndarray:
    """Adaptive bisection of the K21 panel for ``rows`` integrands on [a, b].

    ``F(xs, idx)`` returns the (len(idx), len(xs)) values of rows ``idx`` at
    nodes ``xs``.  A panel returns its K21 sum.  Each row stops on a panel
    when |K21 - G10| <= ``rel`` |K21| plus an absolute floor,
    ``rel * (|K21| + 1e-300)`` on [a, b], halved with each split, so that
    panels negligible against the whole integral stop refining; at ``depth``
    levels it takes K21 as it is.  A panel with a non-finite sample is -inf
    when every non-finite sample of the panel is -inf, else +inf, and stops
    there.  A split evaluates both halves, 42 nodes, in one call, and only
    for the rows that have not stopped.
    """
    k, g = _kronrod(np.asarray(F(_nodes(a, b), np.arange(rows)), dtype=float), 0.5 * (b - a))
    return _refine(F, np.arange(rows), a, b, k[:, 0], g[:, 0], rel, depth, np.zeros(rows))


def _refine(F, idx, a, b, k, g, rel, depth, floor):
    """Rows ``idx`` on [a, b], given their K21 and G10 panel sums."""
    # a zero floor (at the top, or halved to underflow) is set from this panel
    floor = np.where(floor == 0.0, rel * (np.abs(k) + 1e-300), floor)
    with np.errstate(invalid="ignore"):  # inf - inf: a non-finite K21 stops anyway
        go = np.isfinite(k) & ~(np.abs(k - g) <= rel * np.abs(k) + floor)
    if depth <= 0 or not go.any():
        return k
    if not go.all():  # copies only when some row stops here
        idx, floor = idx[go], floor[go]
    mid = 0.5 * (a + b)
    k2, g2 = _kronrod(np.asarray(F(np.concatenate([_nodes(a, mid), _nodes(mid, b)]), idx),
                                 dtype=float), np.array([0.5 * (mid - a), 0.5 * (b - mid)]))
    k[go] = _add(_refine(F, idx, a, mid, k2[:, 0], g2[:, 0], rel, depth - 1, 0.5 * floor),
                 _refine(F, idx, mid, b, k2[:, 1], g2[:, 1], rel, depth - 1, 0.5 * floor))
    return k


def _add(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x + y, with +inf where an inf meets a -inf."""
    with np.errstate(invalid="ignore"):
        s = x + y
    s[np.isnan(s)] = INF
    return s


def quad_interval(f, a: float, b: float, rel: float = 1e-10, depth: int = 14) -> float:
    """Adaptive bisection of the K21 panel for one array integrand."""
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
