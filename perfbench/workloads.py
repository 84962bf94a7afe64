"""The three seeded workloads and their job lists.

``build(name, seed, root)`` does the set-up a user pays once per session and
returns the jobs one round runs.  Every input is drawn from ``seed``; the
library sees only the generated values.  Each operation computes, inside its
timed call, every quantity its oracle compares, so the checks afterwards are
plain comparisons of data.

Library entry points are looked up on their module at call time
(``oz.luxemburg_norm(...)``, never a name bound at import), so the traced run
sees every call through the wrappers it installs.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import orlicz as oz
from orlicz import cli, corpus

from oracles import Abs, Check, Exact, Interval, Job, Op, Rel, WithinOwnError

WORKLOADS = ("theta_query", "modular_quad", "table_build")

# two rounds pool 1000 solve latencies: ten samples beyond the 99th percentile
THETA_SOLVES = 500
POINCARE_NODES = 24     # the library default

CONVERGES = "converges"
DIVERGES = "diverges"


@dataclass(frozen=True)
class Workload:
    jobs: tuple
    inputs: dict    # the seeded draws, recorded with each result


def _value(x):
    return x


def _key(k):
    return lambda r: r[k]


def power_conjugate_constant(p: float, n: float) -> float:
    """C in H(s) = C s^{(n-p)/n} for A(t) = t^p, p < n."""
    return ((n - 1.0) / (n - p)) ** ((n - 1.0) / n)


def power_conjugate(p: float, n: float, t: float) -> float:
    """Closed-form conjugate of t^p, p < n: (t / C)^{np/(n-p)}."""
    return (t / power_conjugate_constant(p, n)) ** (n * p / (n - p))


def _class_at(order: float, n: float, below: str, above: str) -> str:
    if order == n:
        raise ValueError("inputs are drawn off the critical exponent")
    return below if order < n else above


def _slope(an, lo: float = 1e2, hi: float = 1e6) -> float:
    return (math.log(an(hi)) - math.log(an(lo))) / math.log(hi / lo)


# ---------------------------------------------------------------------------
# theta_query: many reads of one conjugate table
# ---------------------------------------------------------------------------

def _theta_query(rng: random.Random, root: Path) -> tuple:
    phi = oz.Isotropic(oz.Power(2), 3)
    env = oz.Envelope.power(1.0)
    solver = oz.ThetaSolver(phi, env, 3)
    # closed form for A = t^2, n = 3, E(t) = t: |xi| = theta (theta / C)^3
    c = power_conjugate_constant(2.0, 3.0)
    solves = []
    for i in range(THETA_SOLVES):
        s = 10.0 ** rng.uniform(-2.0, math.log10(20.0))
        d = np.array([rng.gauss(0.0, 1.0) for _ in range(3)])
        xi = (s / c) ** 3 * s * d / np.linalg.norm(d)
        solves.append(Op(f"theta[{i}]", lambda xi=xi: solver.solve(xi),
                         (Check("theta", _value, Rel(s, 1e-6)),)))

    # targets stay 0.15 off the boundary q_max = np / (n + r (n - p)) = 1.5
    q = rng.uniform(1.15, 1.35) if rng.random() < 0.5 else rng.uniform(1.65, 1.85)
    psi = oz.Isotropic(oz.Power(q), 3)
    scalar = oz.check_inq_ass2(oz.Power(2), oz.Power(q), env, 3).holds
    aniso = Op("check_aniso", lambda: oz.check_aniso(phi, psi, env, 3).holds,
               (Check("holds vs check_inq_ass2", _value, Exact(scalar)),))

    bumps = corpus.bump_corpus(2, count=5)
    poincare = Op(
        "poincare_probe",
        lambda: oz.poincare_probe(bumps, oz.Power(2), 2, nodes=POINCARE_NODES),
        (Check("c_star", lambda r: r.c_star, Interval(0.0, 1e300)),
         Check("drift", lambda r: r.drift, Interval(-1.0, 0.05))))

    jobs = (Job("theta_solves", tuple(solves)),
            Job("check_aniso", (aniso,)),
            Job("poincare_probe", (poincare,)))
    return jobs, {"target_q": q, "theta_solves": THETA_SOLVES}


# ---------------------------------------------------------------------------
# modular_quad: adaptive box integration, no conjugate table
# ---------------------------------------------------------------------------

def _counterexample(ks, deltas):
    rep = oz.counterexample_run(ks, deltas, dim=2)
    out = {"certified": rep.divergence_certified}
    for key, v in rep.strip_values.items():
        out[key] = v
    return out


def _modular_quad(rng: random.Random, root: Path) -> tuple:
    ks = (rng.randint(6, 10), rng.randint(48, 80))
    deltas = (10.0 ** -rng.uniform(3.0, 3.3), 10.0 ** -rng.uniform(4.0, 4.3))
    checks = [Check("divergence certified", _key("certified"), Exact(True))]
    for k in ks:
        for delta in deltas:
            ref = (math.log(delta) ** 2 - math.log(k) ** 2) / 2.0
            checks.append(Check(f"strip k={k} delta={delta:.6g}",
                                _key((k, delta)), Rel(ref, 1e-6)))
    cx = Op("counterexample_run", lambda: _counterexample(ks, deltas), tuple(checks))

    norms = []
    for dim, count in ((1, 3), (2, 3)):
        box = oz.BoxDomain.unit(dim)
        for _ in range(count):
            c = rng.uniform(0.5, 2.0)
            p = rng.uniform(2.2, 3.2)
            u = corpus.coordinate_field(dim, 0).scaled(c)
            norms.append(Op(
                f"luxemburg d{dim} c={c:.4g} p={p:.4g}",
                lambda u=u, p=p, box=box: oz.luxemburg_norm(u, oz.Power(p), box),
                (Check("norm", _value, Rel(c * (p + 1.0) ** (-1.0 / p), 1e-8)),)))

    cube = oz.BoxDomain.unit(3)
    modulars = []
    for label, u, unit_value in (("product_sine", corpus.product_sine(3), 0.125),
                                 ("x1", corpus.coordinate_field(3, 0), 1.0 / 3.0)):
        lam = rng.uniform(0.5, 2.0)
        modulars.append(Op(
            f"modular3 {label} lambda={lam:.4g}",
            lambda u=u, lam=lam: oz.modular_integral(u, oz.Power(2), lam, cube),
            (Check("modular", _value, Rel(unit_value / lam ** 2, 1e-8)),)))

    jobs = (Job("counterexample_run", (cx,)),
            Job("luxemburg_norms", tuple(norms)),
            Job("modular_3d", tuple(modulars)))
    return jobs, {"ks": ks, "deltas": deltas}


# ---------------------------------------------------------------------------
# table_build: writes to the conjugate layer that theta_query reads
# ---------------------------------------------------------------------------

def _conjugate_facts(y, n, slope: bool) -> dict:
    conj = oz.sobolev_conjugate(y, n)
    out = {"zero": conj.classification_zero.value, "inf": conj.classification_inf.value}
    if slope:
        out["slope"] = _slope(conj.an_value)
    return out


def _family_draws(rng: random.Random, n: int):
    """(label, Young function, zero order, inf order or None for exp growth).

    Ranges keep each order at least 0.1 off the critical exponent n.
    """
    p = rng.uniform(1.2, n - 0.3)
    yield f"power:{p:.6g}", oz.Power(p), p, p
    p, a = rng.uniform(n + 0.3, n + 1.0), rng.uniform(0.2, 1.0)
    yield f"power_log:{p:.6g},{a:.6g}", oz.PowerLog(p, a), p + a, p
    p, a = rng.uniform(1.2, n - 0.5), rng.uniform(0.1, 0.4)
    yield f"power_loglog:{p:.6g},{a:.6g}", oz.PowerLogLog(p, a), p + a, p
    p = rng.uniform(1.0, 1.8)
    yield f"power_exp:{p:.6g}", oz.PowerExp(p), p, None
    a = rng.uniform(0.5, 1.5)
    # below alpha = 1 the constructor glues a line near zero: order 1 there
    yield f"exp:{a:.6g}", oz.Exp(a), max(a, 1.0), None


def _cli(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"code": code, "stdout": out.getvalue().encode(),
            "stderr": err.getvalue().encode()}


def _conjugate_rows(res) -> list:
    lines = res["stdout"].decode().splitlines()
    if lines[0] != "t,A,H,A_conj":
        raise ValueError(f"unexpected header {lines[0]!r}")
    return [tuple(float(v) for v in line.split(",")) for line in lines[1:]]


def _phi_n_facts(phi) -> dict:
    conj = oz.phi_n(phi)
    return {"zero": conj.classification_zero.value, "inf": conj.classification_inf.value,
            "slope": _slope(conj.an_value)}


# smaller than the library defaults (max_depth 12, 25 points over [1e-3, 1e4])
# so one volume-route build takes about three seconds
VOLUME_ROUTE = dict(max_depth=8, rel_tol=5e-3, points=13, t_lo=1e-2, t_hi=1e3)


def _phi_n_volume_facts(phi, ts) -> dict:
    conj = oz.phi_n(phi, method="volume", **VOLUME_ROUTE)
    return {"zero": conj.classification_zero.value, "inf": conj.classification_inf.value,
            "an": [conj.an_value(t) for t in ts]}


def _table_build(rng: random.Random, root: Path) -> tuple:
    builds = []
    for n in (2, 3, 4):
        for label, y, zero_order, inf_order in _family_draws(rng, n):
            zero = _class_at(zero_order, n, CONVERGES, DIVERGES)
            inf_ = CONVERGES if inf_order is None else _class_at(inf_order, n, DIVERGES, CONVERGES)
            checks = [Check("classification at 0", _key("zero"), Exact(zero)),
                      Check("classification at inf", _key("inf"), Exact(inf_))]
            is_power = label.startswith("power:")
            if is_power:
                p = y.p
                checks.append(Check("an log-log slope", _key("slope"),
                                    Abs(n * p / (n - p), 1e-3)))
            builds.append(Op(f"sobolev_conjugate {label} n={n}",
                             lambda y=y, n=n, s=is_power: _conjugate_facts(y, n, s),
                             tuple(checks)))

    # the mean exponent sets how many decades the H table spans, and so the
    # build cost: hold it at 1.5, off n = 2, and let the seed move the pair
    pbar = 1.5
    p1 = rng.uniform(1.2, 1.4)
    p2 = 1.0 / (2.0 / pbar - 1.0 / p1)
    phi = oz.Orthotropic((oz.Power(p1), oz.Power(p2)))
    reduced = Op(
        f"phi_n reduced p=({p1:.4g},{p2:.4g})",
        lambda: _phi_n_facts(phi),
        (Check("classification at 0", _key("zero"), Exact(CONVERGES)),
         Check("classification at inf", _key("inf"), Exact(DIVERGES)),
         Check("an log-log slope", _key("slope"), Abs(2 * pbar / (2 - pbar), 1e-3))))

    level = rng.uniform(0.5, 4.0)
    e = 1.0 / p1 + 1.0 / p2
    vol_ref = (4.0 * level ** e * math.gamma(1.0 + 1.0 / p1) * math.gamma(1.0 + 1.0 / p2)
               / math.gamma(1.0 + e))
    volume = Op(f"sublevel_volume t={level:.4g}",
                lambda: oz.sublevel_volume(phi, level),
                (Check("volume", _value, WithinOwnError(vol_ref)),))

    probe_ts = (0.1, 0.3, 1.0, 3.0, 10.0)
    refs = tuple((power_conjugate(pbar, 2, t / 4.0), power_conjugate(pbar, 2, 4.0 * t))
                 for t in probe_ts)
    volume_route = Op(
        "phi_n volume route",
        lambda: _phi_n_volume_facts(phi, probe_ts),
        (Check("classification at 0", _key("zero"), Exact(CONVERGES)),
         Check("classification at inf", _key("inf"), Exact(DIVERGES)),
         Check("equivalent to the closed-form conjugate of t^pbar, constant 4",
               lambda r: all(lo <= v <= hi for v, (lo, hi) in zip(r["an"], refs)),
               Exact(True))))

    cli_ops = []
    for variant in ("log", "loglog"):
        for n in (2, 3):
            golden = (root / "tests" / "golden" / f"zygmund_{variant}_n{n}.csv").read_bytes()
            argv = ["table", "--variant", variant, "--n", str(n)]
            cli_ops.append(Op(f"cli table {variant} n={n}", lambda argv=argv: _cli(argv),
                              (Check("exit code", _key("code"), Exact(0)),
                               Check("csv", _key("stdout"), Exact(golden)))))
    p = rng.uniform(1.2, 2.7)
    argv = ["conjugate", "--A", f"power:{p!r}", "--n", "3"]
    ts = np.geomspace(1e-2, 1e2, 33)
    conj_checks = [Check("exit code", _key("code"), Exact(0)),
                   Check("rows", lambda r: len(_conjugate_rows(r)), Exact(len(ts)))]
    for i, t in enumerate(ts):
        t = float(t)
        conj_checks.append(Check(f"A_conj({t:.4g})",
                                 lambda r, i=i: _conjugate_rows(r)[i][3],
                                 Rel(power_conjugate(p, 3.0, t), 1e-6)))
    cli_ops.append(Op(f"cli conjugate power:{p:.6g} n=3", lambda: _cli(argv),
                      tuple(conj_checks)))

    jobs = (Job("sobolev_conjugate_builds", tuple(builds)),
            Job("phi_n_reduced", (reduced,)),
            Job("sublevel_volume", (volume,)),
            Job("phi_n_volume", (volume_route,)),
            Job("cli", tuple(cli_ops)))
    return jobs, {"orthotropic_p": (p1, p2), "pbar": pbar, "level": level}


_BUILDERS = {"theta_query": _theta_query, "modular_quad": _modular_quad,
             "table_build": _table_build}


def build(name: str, seed: int, root: Path) -> Workload:
    """Seeded inputs and job list of one workload."""
    return Workload(*_BUILDERS[name](random.Random(f"{name}:{seed}"), root))
