"""Composition operator machinery and desk-scale continuity experiments.

The operator sends a field u to f(u) with gradient f'(u) grad u, for locally
Lipschitz f whose derivative is controlled by a non-decreasing envelope:
|f'(t)| <= kappa E(kappa |t|).  The experiments here verify, on concrete
boxes and sequences, the modular-convergence conclusions that the growth
conditions of the admissibility checkers are supposed to buy, and reproduce
the strip-integral blow-up that rules out norm continuity without a doubling
condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from ._quad import tensor_rule
from .conjugate import SobolevConjugate, sobolev_conjugate
from .modular import (
    BoxDomain,
    ModularReport,
    TestFunction,
    modular_convergence,
    modular_integral_gradient,
    w1a_quantities,
)
from .young import (INF, IndeterminateError, PowerExp, YoungError, YoungFunction,
                    _check, _log_root_many, _make)


class PreconditionError(YoungError):
    """An experiment's hypothesis check failed; the run is refused."""


# ---------------------------------------------------------------------------
# Envelopes and Lipschitz data
# ---------------------------------------------------------------------------

_Shape = NamedTuple("_Shape", [("r", float), ("gamma", float), ("second", str), ("levels", int)])
_SHAPES = {"one": lambda p: (0.0, 0.0, "log", 0),
           "power": lambda p: (p["r"], p["gamma"], p["second"] if p["gamma"] else "log", 0),
           "log_power": lambda p: (0.0, p["r"], "log", 0),
           "exp_power": lambda p: (p["a"], p["log_exp"], "log", 1),
           "exp_exp": lambda p: (p["a"], 0.0, "log", 2)}


@dataclass(frozen=True)
class Envelope:
    """Non-decreasing continuous bound for the derivative of f.

    ``kind`` and ``params`` name a built-in family, and each maps once to its
    ``shape`` (r, gamma, second, levels): exp applied ``levels`` times to
    t^r L(t)^gamma, where L(t) is log(1 + t), or log log(e + t) for ``second``
    = "loglog".  One scalar and one array body evaluate the shape, and the
    analytic admissibility rules read it:

      one (0, 0, log, 0); power:r,gamma,second (r, gamma, second, 0), with
      second = log at gamma = 0; log_power:r (0, r, log, 0); exp_power:a,b
      (a, b, log, 1) for exp(t^a log^b(1+t)); exp_exp:a (a, 0, log, 2) for
      exp(exp(t^a)).

    Arguments below 0 read 0, L^gamma reads 0 at t = 0, and an exponent past
    709 (past 6.5 before the inner exp of exp_exp) reads inf.  ``custom``
    has no shape: ``fn``, set for it alone, is its evaluator.
    """

    kind: str
    params: dict
    fn: Optional[Callable[[float], float]] = None

    @cached_property
    def shape(self) -> Optional[_Shape]:
        if self.kind == "custom":
            return None
        if self.kind not in _SHAPES:
            raise YoungError(f"unknown envelope kind {self.kind!r}")
        return _Shape(*_SHAPES[self.kind](self.params))

    def __call__(self, t: float) -> float:
        shape, t = self.shape, (0.0 if t < 0.0 else t)
        if shape is None:
            return self.fn(t)
        r, gamma, second, levels = shape
        try:
            x = t ** r
            if gamma:
                slow = math.log1p(t) if second == "log" else math.log(math.log(math.e + t))
                x = x * slow ** gamma if t else 0.0
        except (OverflowError, ZeroDivisionError):  # float ** past the range, or 0 ** -gamma
            return float(self.values([t])[0])
        if levels:
            if levels == 2:
                x = INF if x > 6.5 else math.exp(x)  # exp(exp(x)) overflows past ~6.56
            x = INF if x > 709.0 else math.exp(x)
        return x

    @classmethod
    def one(cls) -> "Envelope":
        return cls("one", {})

    @classmethod
    def power(cls, r: float, gamma: float = 0.0, second: str = "log") -> "Envelope":
        """t^r, optionally corrected by log^gamma(1+t) or (loglog(e+t))^gamma."""
        _check("power envelope", "r", r, 0.0, strict=False)
        _check("power envelope", "gamma", gamma)
        if second not in ("log", "loglog"):
            raise YoungError("second-order correction must be log or loglog")
        return cls("power", {"r": r, "gamma": gamma, "second": second})

    @classmethod
    def log_power(cls, r: float) -> "Envelope":
        _check("log_power envelope", "r", r, 0.0, strict=False)
        return cls("log_power", {"r": r})

    @classmethod
    def exp_power(cls, a: float, log_exp: float = 0.0) -> "Envelope":
        """exp(t^a log^log_exp(1+t))."""
        _check("exp_power envelope", "a", a, 0.0)
        _check("exp_power envelope", "log_exp", log_exp)
        return cls("exp_power", {"a": a, "log_exp": log_exp})

    @classmethod
    def exp_exp(cls, a: float) -> "Envelope":
        _check("exp_exp envelope", "a", a, 0.0)
        return cls("exp_exp", {"a": a})

    @classmethod
    def custom(cls, fn: Callable[[float], float]) -> "Envelope":
        return cls("custom", {}, fn)

    def values(self, ts) -> np.ndarray:
        """``__call__`` on a 1-D array: the shape in numpy, ``custom`` by rows."""
        t = np.maximum(np.asarray(ts, dtype=float).ravel(), 0.0)
        shape = self.shape
        if shape is None:
            return np.array([self(x) for x in t.tolist()], dtype=float)
        r, gamma, second, levels = shape
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # masked below
            x = t ** r
            if gamma:
                slow = np.log1p(t) if second == "log" else np.log(np.log(math.e + t))
                x = np.where(t == 0.0, 0.0, x * slow ** gamma)
            if levels == 2:
                x = np.where(x > 6.5, INF, np.exp(np.minimum(x, 6.5)))
            if levels:
                x = np.where(x > 709.0, INF, np.exp(np.minimum(x, 709.0)))
        return x

    def non_decreasing(self, lo: float = 1e-8, hi: float = 1e6,
                       points: int = 200) -> bool:
        vals = self.values(np.geomspace(lo, hi, points))
        return bool(np.all(vals[1:] >= vals[:-1] * (1 - 1e-12)))


# each constructor is named after the kind it builds
_ENVELOPES = {make.__name__: make for make in (Envelope.one, Envelope.power, Envelope.log_power,
                                               Envelope.exp_power, Envelope.exp_exp)}
_ENVELOPES.update(logpower=Envelope.log_power, exppower=Envelope.exp_power,
                  exp=Envelope.exp_power, expexp=Envelope.exp_exp)


def parse_envelope(record) -> Envelope:
    """An Envelope as is, else the envelope of a dict record {"kind": kind,
    key: value, ...} or of "kind:a,b" text: the kind names a constructor of
    Envelope (or ``logpower``, ``exppower``, ``exp``, ``expexp``), whose
    parameters are the keys.  A YoungError names the record or key at fault."""
    if isinstance(record, Envelope):
        return record
    return _make(record, _ENVELOPES, "envelope")


@dataclass(frozen=True)
class LipschitzSpec:
    """A locally Lipschitz f with a Borel representative of its derivative
    and the envelope controlling it.  ``f`` and ``fprime`` act elementwise on
    numpy arrays; a constant map may return one scalar."""

    f: Callable[[np.ndarray], np.ndarray]
    fprime: Callable[[np.ndarray], np.ndarray]
    kappa: float
    envelope: Envelope
    label: str = "f"

    def __post_init__(self):
        _check("LipschitzSpec", "kappa", self.kappa, 0.0)

    @property
    def f_at_zero(self) -> float:
        return float(self.f(0.0))

    def derivative_bound_holds(self, lo: float = 1e-6, hi: float = 1e3,
                               points: int = 200) -> bool:
        ts = np.concatenate([-np.geomspace(lo, hi, points)[::-1], [0.0],
                             np.geomspace(lo, hi, points)])
        with np.errstate(over="ignore"):  # inf, as for floats
            bound = self.kappa * self.envelope.values(self.kappa * np.abs(ts))
        return not np.any(np.abs(_elementwise(self.fprime, ts)) > bound * (1 + 1e-9) + 1e-300)


# ---------------------------------------------------------------------------
# The operator itself
# ---------------------------------------------------------------------------

def _elementwise(fn, v: np.ndarray) -> np.ndarray:
    """fn applied to the array v at once, a scalar return broadcast to v."""
    return np.broadcast_to(np.asarray(fn(v), dtype=float), v.shape).copy()


def compose(spec: LipschitzSpec, u: TestFunction) -> TestFunction:
    """f(u) with the chain-rule gradient f'(u) grad u; ``spec.f`` and
    ``spec.fprime`` are applied once to the array of values of u."""
    return TestFunction.from_batch(
        lambda X: _elementwise(spec.f, u.values(X)),
        lambda X: _elementwise(spec.fprime, u.values(X))[:, None] * u.gradients(X),
        f"{spec.label}({u.label})", u.axes)


def truncate(u: TestFunction, s: float) -> TestFunction:
    """Soft thresholding: shift |u| down by s, gradient kept where |u| >= s."""
    _check("truncate", "threshold s", s, 0.0)

    def values(X):
        v = u.values(X)
        return np.where(v > s, v - s, np.where(v < -s, v + s, 0.0))

    def gradients(X):
        keep = np.abs(u.values(X)) >= s
        return np.where(keep[:, None], u.gradients(X), 0.0)

    return TestFunction.from_batch(values, gradients, f"trunc{s:g}({u.label})", u.axes)


def abs_shift_spec(shift: float = 1.0) -> LipschitzSpec:
    """f(t) = max(0, |t| - shift); right derivatives at the kinks; NaN to 0."""

    def f(t):
        return np.fmax(np.abs(t) - shift, 0.0)

    def fp(t):
        return np.where(t >= shift, 1.0, np.where(t <= -shift, -1.0, 0.0))

    return LipschitzSpec(f, fp, kappa=1.0, envelope=Envelope.one(), label=f"abs_shift{shift:g}")


def identity_spec() -> LipschitzSpec:
    return LipschitzSpec(lambda t: t, lambda t: np.ones_like(t, dtype=float),
                         kappa=1.0, envelope=Envelope.one(), label="identity")


def signed_square_spec() -> LipschitzSpec:
    """f(t) = t|t|/2, with |f'| = |t| controlled by the linear envelope."""

    def f(t):
        with np.errstate(over="ignore"):  # inf past 1e154, as for Python floats
            return 0.5 * t * np.abs(t)

    return LipschitzSpec(f, np.abs,
                         kappa=1.0, envelope=Envelope.power(1.0),
                         label="signed_square")


# ---------------------------------------------------------------------------
# Two-variable inequality grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LemmaGridVerdict:
    holds: bool
    worst_margin: float
    worst_point: tuple
    additive_constant: float
    grid: str

    def __bool__(self):
        return self.holds


def _lemma_grid(a: YoungFunction, b: YoungFunction,
                row: Callable[[np.ndarray], tuple], div: float, c: float,
                lo: float, hi: float, count: int) -> LemmaGridVerdict:
    """Grid check of B(E(s) t / div) <= r(s) + A(t) over the count x count
    log grid on [lo, hi]^2, where row(s) = (E(s), r(s)) on an array of s.
    Points where the right side is inf are skipped; the worst point is the
    first minimum with s outer and t inner."""
    g = np.geomspace(lo, hi, count)
    es, r = row(g)
    with np.errstate(over="ignore", invalid="ignore"):  # inf as for floats; inf - inf skipped
        rhs = r[:, None] + a.values(g)
        lhs = b.values(np.outer(es, g) / div).reshape(count, count)
        margin = np.where(rhs == INF, INF, rhs - lhs)
    i, j = np.unravel_index(np.argmin(margin), margin.shape)
    pt = (float(g[i]), float(g[j])) if margin[i, j] < INF else (None, None)
    return LemmaGridVerdict(not np.any(margin < -1e-9 * (1.0 + rhs)), float(margin[i, j]), pt,
                            c, grid=f"{count}x{count} log grid on [{lo:g},{hi:g}]^2")


def lemma_product_bound(a: YoungFunction, b: YoungFunction, envelope: Envelope,
                        n: int, t0: float = 0.0, lo: float = 1e-3,
                        hi: float = 1e3, count: int = 64,
                        conj: Optional[SobolevConjugate] = None) -> LemmaGridVerdict:
    """Grid check of B(E(s) t / 2) <= c + A_n(s) + A(t), with the additive
    constant c = B(t0 E(A_n^{-1}(A(t0)))) induced by the cutoff of the
    admissibility inequality (c = 0 when the inequality is global)."""
    from . import conditions

    pre = conditions.check_inq_ass2(a, b, envelope, n, t0=t0)
    if not pre.holds:
        raise PreconditionError("product bound needs the admissibility inequality")
    conj = conj if conj is not None else sobolev_conjugate(a, n)
    if t0 > 0.0:
        c = b(t0 * envelope(conj.an.inverse(a(t0))))
    else:
        c = 0.0
    return _lemma_grid(a, b, lambda s: (envelope.values(s), c + conj.an_values(s)),
                       2.0, c, lo, hi, count)


def lemma_split_bound(a: YoungFunction, b: YoungFunction, envelope: Envelope,
                      f_young: YoungFunction, t1: float = 1.0,
                      lo: float = 1e-3, hi: float = 1e3,
                      count: int = 64) -> LemmaGridVerdict:
    """Grid check of B(E(s) t) <= F(s) + A(t), the finite-valued variant."""
    from . import conditions

    pre = conditions.check_inq_assD(a, b, envelope, f_young, t1=t1)
    if not pre.holds:
        raise PreconditionError("split bound needs the near-zero admissibility pair")
    return _lemma_grid(a, b, lambda s: (envelope.values(s), f_young.values(s)),
                       1.0, 0.0, lo, hi, count)


# ---------------------------------------------------------------------------
# Continuity experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContinuityReport:
    base: ModularReport
    image: ModularReport
    kappa: float
    base_lambda: float
    norm_limit: float
    predicted_constant: float

    @property
    def converged(self) -> bool:
        return self.image.norm_convergence


def continuity_experiment(spec: LipschitzSpec, seq: Sequence[TestFunction],
                          limit: TestFunction, a: YoungFunction,
                          b: YoungFunction, box: BoxDomain, n: int,
                          lambda_grid: Optional[Sequence[float]] = None,
                          indices: Optional[Sequence[int]] = None,
                          rel_tol: float = 1e-8) -> ContinuityReport:
    """Verify that images converge modularly at the predicted constant
    24 kappa max(lambda, |u| in the source Sobolev norm), given a sequence
    that converges modularly in the source space."""
    from . import conditions

    verdict = conditions.check_inq_ass2(a, b, spec.envelope, n)
    if not verdict.holds:
        raise PreconditionError("admissibility condition fails for (A, B, E, n)")
    if lambda_grid is None:
        lambda_grid = [2.0 ** j for j in range(-6, 7)]
    base = modular_convergence(seq, limit, a, box, lambda_grid,
                               indices=indices, rel_tol=rel_tol)
    if not base.converging_lambdas:
        raise PreconditionError("sequence does not converge modularly in the source")
    lam = base.smallest_converging_lambda
    wq = w1a_quantities(limit, a, box, rel_tol=rel_tol)
    big = 24.0 * spec.kappa * max(lam, wq.norm_w1a)
    images = [compose(spec, u) for u in seq]
    image_limit = compose(spec, limit)
    image = modular_convergence(images, image_limit, b, box, [big],
                                indices=indices, rel_tol=rel_tol)
    return ContinuityReport(base=base, image=image, kappa=spec.kappa,
                            base_lambda=lam, norm_limit=wq.norm_w1a,
                            predicted_constant=big)


# ---------------------------------------------------------------------------
# Norm-topology counterexample
# ---------------------------------------------------------------------------

def singular_log_field(dim: int) -> TestFunction:
    """u(x) = 1 + x1 (log x1 - 1) on the unit box; u takes values in (0, 1)
    and the first partial is log x1."""

    def values(X):
        t = X[:, 0]
        pos = t > 0
        t = np.where(pos, t, 1.0)
        return np.where(pos, 1.0 + t * (np.log(t) - 1.0), 1.0)

    def gradients(X):
        t = X[:, 0]
        pos = t > 0
        g = np.zeros((len(X), dim))
        g[:, 0] = np.where(pos, np.log(np.where(pos, t, 1.0)), -INF)
        return g

    return TestFunction.from_batch(values, gradients, "one_plus_xlogx", (0,))


@dataclass(frozen=True)
class CounterexampleReport:
    dim: int
    k_list: tuple
    delta_list: tuple
    lambda_grid: tuple
    w_difference: ModularReport
    strip_values: dict
    strip_expected: dict
    skipped: tuple
    divergence_certified: bool


def strip_integral_expected(k: int, delta: float) -> float:
    """Closed form of the gradient-difference modular over the strip
    (delta, 1/k): the antiderivative of -log t / t is -(log t)^2 / 2."""
    return (math.log(delta) ** 2 - math.log(k) ** 2) / 2.0


def counterexample_run(k_list: Sequence[int] = (8, 64, 512),
                       delta_list: Sequence[float] = (1e-3, 1e-4, 1e-6),
                       dim: int = 2,
                       lambda_grid: Sequence[float] = (0.25, 0.5, 1.0, 2.0, 4.0),
                       rel_tol: float = 1e-8) -> CounterexampleReport:
    """Reproduce the failure of norm continuity for A(t) = t e^t.

    (a) the sequence converges to its limit in every grid modular (norm
    convergence of the difference); (b) the gradient modulars of the images
    blow up on shrinking strips, matching the closed form; (c) the trend in
    the strip cutoff certifies divergence.
    """
    if dim < 1 or dim > 3:
        raise YoungError("counterexample runs in dimensions 1 to 3")
    a = PowerExp(1.0)
    spec = abs_shift_spec(1.0)
    box = BoxDomain.unit(dim, singular=((0, "lower"),))
    u = singular_log_field(dim)
    ks = tuple(int(k) for k in k_list)
    for delta in delta_list:
        _check("counterexample", "strip cutoff delta", delta, 0.0)
    seq = [u.shifted((math.log(k) + 1.0) / k, label=f"shifted[{k}]") for k in ks]
    w_report = modular_convergence(seq, u, a, box, lambda_grid, indices=ks,
                                   rel_tol=rel_tol)

    strip_vals = {}
    strip_exp = {}
    skipped = []
    image_limit = compose(spec, u)
    for k, uk in zip(ks, seq):
        diff = compose(spec, uk) - image_limit
        for delta in delta_list:
            if 1.0 / k <= delta:
                skipped.append(((k, delta), "strip is empty: 1/k <= delta"))
                continue
            strip = BoxDomain((delta,) + (0.0,) * (dim - 1),
                              (1.0 / k,) + (1.0,) * (dim - 1))
            strip_vals[(k, delta)] = modular_integral_gradient(
                diff, a, 1.0, strip, rel_tol=rel_tol)
            strip_exp[(k, delta)] = strip_integral_expected(k, delta)

    certified = _certify_divergence(strip_vals, strip_exp)
    return CounterexampleReport(
        dim=dim, k_list=ks, delta_list=tuple(delta_list),
        lambda_grid=tuple(lambda_grid), w_difference=w_report,
        strip_values=strip_vals, strip_expected=strip_exp,
        skipped=tuple(skipped), divergence_certified=certified)


def _certify_divergence(values: dict, expected: dict) -> bool:
    """Divergence is certified when the quadrature tracks the analytically
    divergent antiderivative and grows as the cutoff shrinks."""
    if not values:
        return False
    for key, v in values.items():
        e = expected[key]
        if not math.isfinite(v) or abs(v - e) > 1e-5 * max(1.0, abs(e)):
            return False
    by_k = {}
    for (k, delta), v in values.items():
        by_k.setdefault(k, []).append((delta, v))
    for k, pairs in by_k.items():
        pairs.sort(reverse=True)  # delta descending
        vals = [v for _, v in pairs]
        if len(vals) >= 2 and not all(vals[i + 1] > vals[i] for i in range(len(vals) - 1)):
            return False
    return True


# ---------------------------------------------------------------------------
# Modular Poincare probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PoincareReport:
    constants: tuple
    c_star: float
    c_star_refined: float

    @property
    def drift(self) -> float:
        if self.c_star == 0.0:
            return 0.0
        return abs(self.c_star_refined - self.c_star) / self.c_star

    def stable(self, tol: float = 0.05) -> bool:
        return math.isfinite(self.c_star) and self.drift <= tol


def _poincare_constants(rows: Sequence[tuple], conj: SobolevConjugate) -> np.ndarray:
    """The smallest c with int A_n(|u| / (c R^{1/n})) <= R, R the gradient
    modular, for every (u, box, nodes) of ``rows`` on its tensor Gauss rule,
    to 1e-6 relative.  All rows share one ``young._log_root_many`` search on
    s = 1/c, where each left side increases; a c where it equals R exactly
    ends its row.  Each step makes one ``an_values`` call over the distinct
    |u| values of the rows still open and gathers them back onto each grid,
    which gives the full grid's left side bit for bit, since ``an_values``
    works entry by entry.  The search is held to c in [1e-12, 1e18]: a
    constant above 1e18 reads inf, one below 1e-12 reads 1e-12.  A zero
    field (R <= 0) reads 0; a nan or infinite R, or a nan |u| value, raises
    IndeterminateError."""
    out = np.zeros(len(rows))
    live, levels, grids = [], [], []
    for i, (u, box, nodes) in enumerate(rows):
        pts, w = tensor_rule(box.lower, box.upper, nodes)
        uvals = np.abs(u.values(pts))
        r_mod = float(np.dot(w, conj.base.values(np.linalg.norm(u.gradients(pts), axis=1))))
        if not r_mod < INF or np.isnan(uvals).any():
            raise IndeterminateError("Poincare grid holds a nan field value or a nan or "
                                     "infinite gradient modular")
        if r_mod <= 0.0:
            continue
        live.append(i)
        levels.append(r_mod)
        grids.append((*np.unique(uvals, return_inverse=True), w, r_mod ** (1.0 / box.n)))

    def lhs(s: np.ndarray, act: np.ndarray) -> np.ndarray:
        f = np.where(s > 1e12, INF, 0.0)
        go = np.flatnonzero((s >= 1e-18) & (s <= 1e12))
        if go.size:
            open_grids = [grids[r] for r in act[go]]
            vals = conj.an_values(np.concatenate(
                [uq * (s[j] / scale) for j, (uq, _, _, scale) in zip(go, open_grids)]))
            cuts = np.cumsum([g[0].size for g in open_grids])[:-1]
            for j, (_, inv, w, _), v in zip(go, open_grids, np.split(vals, cuts)):
                f[j] = INF if np.any(np.isinf(v)) else float(np.dot(w, v[inv]))
        return f

    lo = _log_root_many(lhs, levels, True, rel_tol=1e-6)[0]
    with np.errstate(divide="ignore"):
        out[live] = np.where(lo < 1e-18, INF, 1.0 / lo)
    return out


def poincare_probe(corpus: Sequence[tuple], a: YoungFunction, n: int,
                   nodes: int = 24) -> PoincareReport:
    """Calibrate the smallest constant making the conjugate-modular bound
    hold for each compactly supported field, and check grid stability.

    ``corpus`` holds (TestFunction, BoxDomain) pairs; fields vanish on the
    box boundary.  Every field is solved on ``nodes`` and on ``2 * nodes``
    points per axis, all of them in one batched search; a zero field reads
    0 and is left out of the maxima.  The corpus maximum must be finite and
    move by at most a few percent under quadrature refinement.
    """
    if any(box.n != n for _, box in corpus):
        raise YoungError("corpus domain dimension mismatch")
    conj = sobolev_conjugate(a, n)
    cs = _poincare_constants([(u, box, k) for u, box in corpus
                              for k in (nodes, 2 * nodes)], conj).reshape(-1, 2)
    # constants are 0 or positive, so the maxima skip the zero fields
    return PoincareReport(
        constants=tuple(cs[:, 0].tolist()),
        c_star=float(cs[:, 0].max(initial=0.0)),
        c_star_refined=float(cs[:, 1].max(initial=0.0)),
    )
