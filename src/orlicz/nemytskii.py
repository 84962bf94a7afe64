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
from typing import Callable, Optional, Sequence

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
from .young import INF, PowerExp, YoungError, YoungFunction, _log_root


class PreconditionError(YoungError):
    """An experiment's hypothesis check failed; the run is refused."""


# ---------------------------------------------------------------------------
# Envelopes and Lipschitz data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Envelope:
    """Non-decreasing continuous bound for the derivative of f.

    ``kind`` and ``params`` expose the parametric family to the analytic
    admissibility rules; ``fn`` is the evaluator.
    """

    kind: str
    params: dict
    fn: Callable[[float], float]

    def __call__(self, t: float) -> float:
        return self.fn(max(t, 0.0))

    @classmethod
    def one(cls) -> "Envelope":
        return cls("one", {}, lambda t: 1.0)

    @classmethod
    def power(cls, r: float, gamma: float = 0.0, second: str = "log") -> "Envelope":
        """t^r, optionally corrected by log^gamma(1+t) or (loglog(e+t))^gamma."""
        if r < 0:
            raise YoungError("envelope exponent r must be nonnegative")
        if second not in ("log", "loglog"):
            raise YoungError("second-order correction must be log or loglog")
        if gamma == 0.0:
            fn = lambda t: t ** r
        elif second == "log":
            fn = lambda t: t ** r * math.log1p(t) ** gamma if t > 0 else 0.0
        else:
            fn = lambda t: (t ** r * math.log(math.log(math.e + t)) ** gamma
                            if t > 0 else 0.0)
        return cls("power", {"r": r, "gamma": gamma, "second": second}, fn)

    @classmethod
    def log_power(cls, r: float) -> "Envelope":
        if r < 0:
            raise YoungError("envelope exponent r must be nonnegative")
        return cls("log_power", {"r": r}, lambda t: math.log1p(t) ** r)

    @classmethod
    def exp_power(cls, a: float, log_exp: float = 0.0) -> "Envelope":
        """exp(t^a log^log_exp(1+t))."""
        if a <= 0:
            raise YoungError("exponential envelope needs a > 0")

        def fn(t: float) -> float:
            if t <= 0.0:
                return 1.0
            x = t ** a * (math.log1p(t) ** log_exp if log_exp else 1.0)
            return INF if x > 709.0 else math.exp(x)

        return cls("exp_power", {"a": a, "log_exp": log_exp}, fn)

    @classmethod
    def exp_exp(cls, a: float) -> "Envelope":
        if a <= 0:
            raise YoungError("exponential envelope needs a > 0")

        def fn(t: float) -> float:
            if t <= 0.0:
                return math.e
            x = t ** a
            if x > 6.5:  # exp(exp(x)) overflows past ~6.56
                return INF
            inner = math.exp(x)
            return INF if inner > 709.0 else math.exp(inner)

        return cls("exp_exp", {"a": a}, fn)

    @classmethod
    def custom(cls, fn: Callable[[float], float]) -> "Envelope":
        return cls("custom", {}, fn)

    def values(self, ts) -> np.ndarray:
        """``__call__`` on a 1-D array, in numpy for the built-in kinds: the
        same values at t <= 0 and the same overflow cut-offs to inf, and inf
        where the scalar power would overflow.  ``custom`` loops over rows."""
        t = np.maximum(np.asarray(ts, dtype=float).ravel(), 0.0)
        kind, p = self.kind, self.params
        if kind == "custom":
            return np.array([self(x) for x in t.tolist()], dtype=float)
        if kind == "one":
            return np.ones(t.size)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # masked below
            if kind == "log_power":
                return np.log1p(t) ** p["r"]
            if kind == "power":
                out = t ** p["r"]
                if p["gamma"] == 0.0:
                    return out
                slow = np.log1p(t) if p["second"] == "log" else np.log(np.log(math.e + t))
                return np.where(t > 0.0, out * slow ** p["gamma"], 0.0)
            x = t ** p["a"]
            if kind == "exp_power":
                if p["log_exp"]:
                    x = x * np.log1p(t) ** p["log_exp"]
                out = np.exp(np.minimum(x, 709.0))
                out[x > 709.0] = INF
                out[t <= 0.0] = 1.0
                return out
            if kind == "exp_exp":
                out = np.exp(np.exp(np.minimum(x, 6.5)))  # exp(exp(x)) overflows past ~6.56
                out[x > 6.5] = INF
                out[t <= 0.0] = math.e
                return out
        raise YoungError(f"unknown envelope kind {kind!r}")

    def non_decreasing(self, lo: float = 1e-8, hi: float = 1e6,
                       points: int = 200) -> bool:
        vals = self.values(np.geomspace(lo, hi, points))
        return bool(np.all(vals[1:] >= vals[:-1] * (1 - 1e-12)))


def parse_envelope(record) -> Envelope:
    """Envelope from a config record or "kind:a,b" text."""
    if isinstance(record, Envelope):
        return record
    if isinstance(record, str):
        name, _, rest = record.partition(":")
        args = [float(x) for x in rest.split(",") if x] if rest else []
        name = name.strip().lower()
        if name == "one":
            return Envelope.one()
        if name == "power":
            return Envelope.power(*args)
        if name in ("logpower", "log_power"):
            return Envelope.log_power(*args)
        if name in ("exppower", "exp_power", "exp"):
            return Envelope.exp_power(*args)
        if name in ("expexp", "exp_exp"):
            return Envelope.exp_exp(*args)
        raise YoungError(f"unknown envelope {record!r}")
    kind = record.get("kind")
    if kind == "one":
        return Envelope.one()
    if kind == "power":
        return Envelope.power(record["r"], record.get("gamma", 0.0),
                              record.get("second", "log"))
    if kind == "log_power":
        return Envelope.log_power(record["r"])
    if kind == "exp_power":
        return Envelope.exp_power(record["a"], record.get("log_exp", 0.0))
    if kind == "exp_exp":
        return Envelope.exp_exp(record["a"])
    raise YoungError(f"unknown envelope kind {kind!r}")


@dataclass(frozen=True)
class LipschitzSpec:
    """A locally Lipschitz f with a Borel representative of its derivative
    and the envelope controlling it.  ``f`` and ``fprime`` act elementwise on
    numpy arrays; a constant map may return one scalar."""

    f: Callable[[np.ndarray], np.ndarray]
    fprime: Callable[[np.ndarray], np.ndarray]
    kappa: float
    envelope: Envelope
    global_lipschitz: Optional[float] = None
    label: str = "f"

    def __post_init__(self):
        if self.kappa <= 0:
            raise YoungError("kappa must be positive")

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
        f"{spec.label}({u.label})")


def truncate(u: TestFunction, s: float) -> TestFunction:
    """Soft thresholding: shift |u| down by s, gradient kept where |u| >= s."""
    if s <= 0:
        raise YoungError("threshold must be positive")

    def values(X):
        v = u.values(X)
        return np.where(v > s, v - s, np.where(v < -s, v + s, 0.0))

    def gradients(X):
        keep = np.abs(u.values(X)) >= s
        return np.where(keep[:, None], u.gradients(X), 0.0)

    return TestFunction.from_batch(values, gradients, f"trunc{s:g}({u.label})")


def abs_shift_spec(shift: float = 1.0) -> LipschitzSpec:
    """f(t) = max(0, |t| - shift); right derivatives at the kinks; NaN to 0."""

    def f(t):
        return np.fmax(np.abs(t) - shift, 0.0)

    def fp(t):
        return np.where(t >= shift, 1.0, np.where(t <= -shift, -1.0, 0.0))

    return LipschitzSpec(f, fp, kappa=1.0, envelope=Envelope.one(),
                         global_lipschitz=1.0, label=f"abs_shift{shift:g}")


def identity_spec() -> LipschitzSpec:
    return LipschitzSpec(lambda t: t, lambda t: np.ones_like(t, dtype=float),
                         kappa=1.0, envelope=Envelope.one(), global_lipschitz=1.0,
                         label="identity")


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


def lemma_inequality_tests(a: YoungFunction, b: YoungFunction, envelope: Envelope,
                           n: Optional[int] = None,
                           f_young: Optional[YoungFunction] = None,
                           t0: float = 0.0, t1: float = 1.0,
                           **kwargs) -> LemmaGridVerdict:
    """Dispatch to the conjugate-based product bound (no splitter given) or
    the finite-valued split bound (splitter supplied)."""
    if f_young is None:
        if n is None:
            raise YoungError("the product bound needs the dimension")
        return lemma_product_bound(a, b, envelope, n, t0=t0, **kwargs)
    return lemma_split_bound(a, b, envelope, f_young, t1=t1, **kwargs)


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

    return TestFunction.from_batch(values, gradients, "one_plus_xlogx")


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


def _certify_divergence(values: dict, expected: dict, rel: float = 1e-5) -> bool:
    """Divergence is certified when the quadrature tracks the analytically
    divergent antiderivative and grows as the cutoff shrinks."""
    if not values:
        return False
    for key, v in values.items():
        e = expected[key]
        if not math.isfinite(v) or abs(v - e) > rel * max(1.0, abs(e)):
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


def _poincare_constant(u: TestFunction, box: BoxDomain, conj: SobolevConjugate,
                       nodes: int) -> float:
    """Smallest c with int A_n(|u| / (c R^{1/n})) <= R, R the gradient
    modular, to 1e-6 relative by ``young._log_root`` on s = 1/c, where the
    left side increases; a c where it equals R exactly ends the search.  The
    search is held to c in [1e-12, 1e18]: a constant above 1e18 reads inf,
    one below 1e-12 reads 1e-12."""
    n = box.n
    pts, w = tensor_rule(box.lower, box.upper, nodes)
    uvals = np.abs(u.values(pts))
    r_mod = float(np.dot(w, conj.base.values(np.linalg.norm(u.gradients(pts), axis=1))))
    if r_mod <= 0.0:
        return 0.0
    scale = r_mod ** (1.0 / n)

    def lhs(s: float) -> float:
        if s < 1e-18:
            return 0.0
        if s > 1e12:
            return INF
        vals = conj.an_values(uvals * (s / scale))
        if np.any(np.isinf(vals)):
            return INF
        return float(np.dot(w, vals))

    lo = _log_root(lhs, r_mod, True, rel_tol=1e-6)[0]
    return INF if lo < 1e-18 else 1.0 / lo


def poincare_probe(corpus: Sequence[tuple], a: YoungFunction, n: int,
                   nodes: int = 24) -> PoincareReport:
    """Calibrate the smallest constant making the conjugate-modular bound
    hold for each compactly supported field, and check grid stability.

    ``corpus`` holds (TestFunction, BoxDomain) pairs; fields vanish on the
    box boundary.  The corpus maximum must be finite and move by at most a
    few percent under quadrature refinement.
    """
    conj = sobolev_conjugate(a, n)
    cs, cs_ref = [], []
    for u, box in corpus:
        if box.n != n:
            raise YoungError("corpus domain dimension mismatch")
        cs.append(_poincare_constant(u, box, conj, nodes))
        cs_ref.append(_poincare_constant(u, box, conj, 2 * nodes))
    nonzero = [c for c in cs if c > 0.0]
    nonzero_ref = [c for c in cs_ref if c > 0.0]
    return PoincareReport(
        constants=tuple(cs),
        c_star=max(nonzero) if nonzero else 0.0,
        c_star_refined=max(nonzero_ref) if nonzero_ref else 0.0,
    )
