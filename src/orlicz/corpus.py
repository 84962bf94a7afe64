"""Named fields, sequences, and derivative specs for experiments and the CLI.

Everything here is analytic: values come with exact gradients, so quadrature
is the only source of numerical error in the experiments.
"""

from __future__ import annotations

import math
from typing import Callable, Dict

import numpy as np

from .modular import BoxDomain, TestFunction
from .nemytskii import (
    LipschitzSpec,
    abs_shift_spec,
    identity_spec,
    signed_square_spec,
    singular_log_field,
)
from .young import YoungError


def coordinate_field(dim: int, axis: int = 0) -> TestFunction:
    def gradients(X):
        g = np.zeros((len(X), dim))
        g[:, axis] = 1.0
        return g

    return TestFunction.from_batch(lambda X: X[:, axis].copy(), gradients,
                                   f"x{axis + 1}")


def product_sine(dim: int) -> TestFunction:
    def values(X):
        out = np.ones(len(X))
        for i in range(dim):
            out *= np.sin(np.pi * X[:, i])
        return out

    def gradients(X):
        g = np.empty((len(X), dim))
        for i in range(dim):
            g[:, i] = np.pi
            for j in range(dim):
                g[:, i] *= np.cos(np.pi * X[:, j]) if j == i else np.sin(np.pi * X[:, j])
        return g

    return TestFunction.from_batch(values, gradients, "product_sine")


def radial_bump(center, width: float, height: float = 1.0) -> TestFunction:
    """Smooth compactly supported bump exp(1 - 1/(1 - s^2)) on |x-c| < width."""
    c = np.asarray(center, dtype=float)

    def polar(X):
        """Offsets from the centre, radii, scaled radii, 1 - s^2 inside the
        support (1 outside) and the profile."""
        d = X - c
        r = np.linalg.norm(d, axis=1)
        s = r / width
        q = 1.0 - np.where(s < 1.0, s, 0.0) ** 2
        return d, r, s, q, np.where(s < 1.0, np.exp(1.0 - 1.0 / q), 0.0)

    def values(X):
        return height * polar(X)[4]

    def gradients(X):
        d, r, s, q, prof = polar(X)
        live = (s < 1.0) & (r > 0.0)
        dp = prof * (-2.0 * s / q ** 2)
        rw = np.where(live, r, 1.0) * width
        return np.where(live[:, None], (height * dp)[:, None] * d / rw[:, None], 0.0)

    return TestFunction.from_batch(values, gradients, f"bump(w={width:g})")


def _columns(value, partials, label: str) -> TestFunction:
    """Field from formulas in the coordinate columns: ``value(x1, x2, ...)``
    and ``partials(x1, x2, ...)``, a tuple with one entry per axis; constant
    entries broadcast."""
    def values(X):
        return np.broadcast_to(np.asarray(value(*X.T), dtype=float), (len(X),)).copy()

    def gradients(X):
        return np.stack([np.broadcast_to(np.asarray(g, dtype=float), (len(X),))
                         for g in partials(*X.T)], axis=1)

    return TestFunction.from_batch(values, gradients, label)


def _parabola():
    return _columns(lambda t: t * (1 - t), lambda t: (1 - 2 * t,), "parabola")


def _sine():
    return _columns(lambda t: np.sin(np.pi * t),
                    lambda t: (np.pi * np.cos(np.pi * t),), "sine")


def interval_vanishing_corpus():
    """Fields on (0, 1) vanishing at both endpoints, with exact derivatives."""
    fns = [
        _parabola(),
        _sine(),
        _columns(lambda t: t ** 2 * (1 - t), lambda t: (2 * t - 3 * t ** 2,),
                 "skew_cubic"),
        _columns(lambda t: t * (1 - t) ** 2, lambda t: ((1 - t) * (1 - 3 * t),),
                 "skew_cubic_mirror"),
        _columns(lambda t: np.minimum(t, 1 - t),
                 lambda t: (np.where(t < 0.5, 1.0, -1.0),), "tent"),
        radial_bump([0.5], 0.5),
    ]
    return [(u, BoxDomain.interval(0.0, 1.0)) for u in fns]


def bump_corpus(n: int, count: int = 5):
    """Bumps of assorted widths and centers on the unit box, vanishing on the
    boundary; used by the conjugate-modular calibration probe."""
    box = BoxDomain.unit(n)
    specs = [
        ((0.5,) * n, 0.45, 1.0),
        ((0.5,) * n, 0.30, 1.0),
        ((0.35,) * n, 0.30, 2.0),
        ((0.6,) * n, 0.35, 0.5),
        ((0.45,) * n, 0.20, 3.0),
    ]
    return [(radial_bump(c, w, h), box) for c, w, h in specs[:count]]


def unit_ball_corpus():
    """Twelve (field, domain) pairs exercising norms in dimensions 1 and 2."""
    out = []
    i1 = BoxDomain.interval(0.0, 1.0)
    b2 = BoxDomain.unit(2)
    for c, label in ((1.0, "one"), (0.25, "quarter"), (3.0, "three")):
        out.append((_columns(lambda t, c=c: c, lambda t: (0.0,), label), i1))
    out.append((coordinate_field(1), i1))
    out.append((_parabola(), i1))
    out.append((_sine(), i1))
    out.append((radial_bump([0.5], 0.4), i1))
    out.append((coordinate_field(2), b2))
    out.append((_columns(lambda x, y: x + y, lambda x, y: (1.0, 1.0), "x_plus_y"), b2))
    out.append((product_sine(2), b2))
    out.append((_columns(
        lambda x, y: 16.0 * x * (1 - x) * y * (1 - y),
        lambda x, y: (16.0 * ((1 - 2 * x) * y * (1 - y)), 16.0 * (x * (1 - x) * (1 - 2 * y))),
        "poly_bump"), b2))
    out.append((_columns(lambda x, y: 2.0 * x * y, lambda x, y: (2 * y, 2 * x), "saddle"), b2))
    return out


def shifted_sequence(base: TestFunction, ks, offset: Callable[[int], float]):
    return [base.shifted(offset(k)) for k in ks]


FIELDS: Dict[str, Callable[[int], TestFunction]] = {
    "x1": coordinate_field,
    "product_sine": lambda dim: product_sine(dim),
    "one_plus_xlogx": singular_log_field,
    "bump": lambda dim: radial_bump([0.5] * dim, 0.45),
}

SPECS: Dict[str, Callable[[], LipschitzSpec]] = {
    "identity": identity_spec,
    "abs_shift": abs_shift_spec,
    "signed_square": signed_square_spec,
}

SEQUENCES = {
    "shift_inv": lambda k: 1.0 / k,
    "shift_log": lambda k: (math.log(k) + 1.0) / k,
}


def get_field(name: str, dim: int) -> TestFunction:
    if name not in FIELDS:
        raise YoungError(f"unknown field {name!r}; have {sorted(FIELDS)}")
    return FIELDS[name](dim)


def get_spec(name: str) -> LipschitzSpec:
    if name not in SPECS:
        raise YoungError(f"unknown derivative spec {name!r}; have {sorted(SPECS)}")
    return SPECS[name]()
