"""Command-line front end: conjugate tables, norms, convergence runs,
condition checks, exponent tables, and the counterexample driver.

Output is byte-identical for a fixed argument list (no subcommand draws
random numbers); CSV headers are fixed and JSON carries ``schema: 1`` for
golden-file regression testing.
Exit codes: 0 success; 2 indeterminate verdict, or a quadrature that found
neither convergence nor divergence; 1 usage or runtime error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import sys
from typing import Optional

import numpy as np

from . import conditions, corpus, nemytskii
from .aniso import Isotropic, Orthotropic, ThetaSolver, phi_circ, phi_n
from .conjugate import sobolev_conjugate, sobolev_conjugate_sigma
from .modular import BoxDomain, QuadratureError, modular_convergence
from .modular import luxemburg_norm as _lux
from .nemytskii import counterexample_run, parse_envelope
from .young import INF, IndeterminateError, YoungError, _check, from_config

SCHEMA = 1


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        if v == INF:
            return "inf"
        if v == -INF:
            return "-inf"
        return format(v, ".12g")
    return str(v)


def _write_csv(path: Optional[str], header, rows) -> None:
    if path:
        fh = open(path, "w", newline="")
    else:
        fh = sys.stdout
    try:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])
    finally:
        if path:
            fh.close()


def _emit_json(payload: dict, path: Optional[str]) -> None:
    payload = {"schema": SCHEMA, **payload}
    text = json.dumps(payload, indent=2, sort_keys=True, default=_fmt)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stderr.write(text + "\n")


def _parse_box(text: str, dim: int) -> BoxDomain:
    if not text:
        return BoxDomain.unit(dim)
    parts = [float(x) for x in text.split(",")]
    if len(parts) == 2:
        return BoxDomain(tuple([parts[0]] * dim), tuple([parts[1]] * dim))
    if len(parts) == 2 * dim:
        return BoxDomain(tuple(parts[:dim]), tuple(parts[dim:]))
    raise YoungError("box must be 'lo,hi' or per-axis bounds")


def _parse_phi(text: str, dim: int):
    head, _, rest = text.partition(":")
    if head == "iso":
        return Isotropic(from_config(rest), dim)
    if head == "ortho":
        comps = tuple(from_config(part) for part in rest.split("|"))
        if len(comps) != dim:
            raise YoungError(f"ortho phi has {len(comps)} components for dimension {dim}")
        return Orthotropic(comps)
    raise YoungError("phi must be 'iso:<family>' or 'ortho:<f1>|<f2>|...'")


def _typed(cfg: dict, key: str, default, kind, what: str):
    """``cfg[key]``, or ``default`` when absent; a YoungError unless a ``kind`` and no bool."""
    value = cfg.get(key, default)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise YoungError(f"config field {key!r} must be {what}, not {value!r}")
    return value


def _grid(args) -> np.ndarray:
    """The geometric grid of --points levels from --t-lo to --t-hi."""
    if not 0.0 < args.t_lo <= args.t_hi < INF:
        raise YoungError("the levels need 0 < --t-lo <= --t-hi < inf")
    return np.geomspace(args.t_lo, args.t_hi, args.points)


def _floats(text: str):
    return [float(x) for x in text.split(",") if x]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_conjugate(args) -> int:
    y = from_config(args.A)
    if args.sigma is not None:
        conj = sobolev_conjugate_sigma(y, args.sigma, args.n)
    else:
        conj = sobolev_conjugate(y, args.n)
    ts = _grid(args)
    rows = zip(ts, y.values(ts), conj.hn.values(ts), conj.an_values(ts))
    _write_csv(args.out, ["t", "A", "H", "A_conj"], rows)
    _emit_json({
        "family": y.to_config(),
        "exponent": args.sigma if args.sigma is not None else args.n,
        "classification_zero": conj.classification_zero.value,
        "classification_inf": conj.classification_inf.value,
        "h_limit": conj.h_limit,
    }, args.json_out)
    return 0


def _cmd_aniso(args) -> int:
    phi = _parse_phi(args.phi, args.dim)
    conj = phi_n(phi, phi.n)
    rows = []
    ts = _grid(args)
    for t in ts:
        rows.append(("circ_inverse", t, phi_circ(phi, float(t)), ""))
    rows += [("conjugate", t, v, "") for t, v in zip(ts, conj.an_values(ts).tolist())]
    status = 0
    if args.xi:
        env = parse_envelope(args.E)
        xis = np.array([_floats(chunk) for chunk in args.xi.split(";")])
        if xis.shape[1:] != (phi.n,):
            raise YoungError(f"each --xi point needs {phi.n} coordinates")
        try:
            solver = ThetaSolver(phi, env, phi.n, conj=conj)
            for xi, theta in zip(xis, solver.solve_many(xis).tolist()):
                rows.append(("theta", "", theta, "|".join(_fmt(v) for v in xi)))
        except YoungError as exc:
            # tables are still useful when the coupling is undefined
            sys.stderr.write(f"theta unavailable: {exc}\n")
            status = 1
    _write_csv(args.out, ["section", "t", "value", "xi"], rows)
    return status


def _cmd_norm(args) -> int:
    y = from_config(args.A)
    box = _parse_box(args.box, args.dim)
    u = corpus.get_field(args.field, args.dim)
    val = _lux(u, y, box, gradient=args.gradient)
    _emit_json({"field": args.field, "family": y.to_config(),
                "gradient": args.gradient, "norm": val}, args.json_out)
    if args.out:
        _write_csv(args.out, ["field", "gradient", "norm"],
                   [(args.field, args.gradient, val)])
    return 0


def _cmd_converge(args) -> int:
    y = from_config(args.A)
    box = _parse_box(args.box, args.dim)
    base = corpus.get_field(args.field, args.dim)
    if args.seq not in corpus.SEQUENCES:
        raise YoungError(f"unknown sequence {args.seq!r}")
    offset = corpus.SEQUENCES[args.seq]
    ks = list(args.ks) if args.ks else [k for k in
                                        (2 ** j for j in range(1, 11))
                                        if k <= args.kmax]
    seq = corpus.shifted_sequence(base, ks, offset)
    lams = _floats(args.lambdas)
    report = modular_convergence(seq, base, y, box, lams, indices=ks)
    rows = []
    for i, k in enumerate(report.indices):
        for j, lam in enumerate(report.lambda_grid):
            rows.append((k, lam, report.value_modulars[i, j],
                         report.gradient_modulars[i, j],
                         report.modular_values[i, j]))
    _write_csv(args.out, ["k", "lambda", "value_modular", "gradient_modular",
                          "combined"], rows)
    _emit_json({
        "converging_lambdas": list(report.converging_lambdas),
        "norm_convergence": report.norm_convergence,
        "smallest_converging_lambda": report.smallest_converging_lambda,
    }, args.json_out)
    return 0


def _verdict_payload(v) -> dict:
    return {
        "holds": v.holds,
        "worst_margin": v.worst_margin,
        "witness": None if v.witness is None else str(v.witness),
        "grid": v.grid,
        "analytic": v.analytic,
        "constant": v.constant,
        "indeterminate": v.indeterminate,
        "note": v.note,
    }


def _cmd_check(args) -> int:
    env = parse_envelope(args.E)
    indeterminate = False
    if args.cond == "inq-ass2":
        v = conditions.check_inq_ass2(from_config(args.A), from_config(args.B),
                                      env, args.n, t0=args.t0)
        payload = {"condition": args.cond, "verdict": _verdict_payload(v)}
        indeterminate = v.indeterminate
    elif args.cond == "inq-assD":
        if args.F is None:
            raise YoungError("inq-assD needs --F")
        v = conditions.check_inq_assD(from_config(args.A), from_config(args.B),
                                      env, from_config(args.F), t1=args.t1)
        payload = {
            "condition": args.cond,
            "holds": v.holds,
            "inequality": _verdict_payload(v.inequality),
            "limsup": _verdict_payload(v.limsup),
        }
        indeterminate = v.indeterminate
    elif args.cond == "ortho":
        a_list = [from_config(p) for p in args.A.split("|")]
        b_list = [from_config(p) for p in args.B.split("|")]
        v = conditions.check_ortho(a_list, b_list, env, args.n, t0=args.t0)
        payload = {"condition": args.cond, "verdict": _verdict_payload(v)}
        indeterminate = v.indeterminate
    else:  # "aniso", the last of the parser's choices
        if not args.n.is_integer():
            raise YoungError("aniso needs an integral dimension --n")
        dim = int(args.n)
        phi = _parse_phi(args.A, dim)
        psi = _parse_phi(args.B, dim)
        v = conditions.check_aniso(phi, psi, env, dim,
                                   with_constant=not args.no_constant)
        payload = {"condition": args.cond, "verdict": _verdict_payload(v)}
        indeterminate = v.indeterminate
    _emit_json(payload, args.json_out)
    return 2 if indeterminate else 0


def zygmund_sweep(variant: str, n: float):
    """Canonical parameter sweep of the admissibility tables."""
    from .nemytskii import Envelope

    _check("table", "dimension n", n, 2.0, strict=False)
    nprime = n / (n - 1.0)
    rows = []
    pa_pairs = [(1.0, 0.0), (1.5, -1.0), (1.5, 0.0), (2.0, 0.0), (2.0, 1.0)]
    second = "log" if variant == "log" else "loglog"
    for p, alpha in pa_pairs:
        if p >= n:
            continue
        for env in (Envelope.power(0.5, 0.0, second),
                    Envelope.power(1.0, 0.0, second),
                    Envelope.power(1.0, 1.0, second)):
            rows.append(conditions.zygmund_table(p, alpha, n, env, variant))
    for alpha in (0.0, (n - 1.0) / 2.0):
        if variant == "log":
            rows.append(conditions.zygmund_table(
                n, alpha, n, Envelope.exp_power(n / (n - 1.0 - alpha)), variant))
        else:
            rows.append(conditions.zygmund_table(
                n, alpha, n, Envelope.exp_power(nprime, alpha / (n - 1.0)), variant))
        rows.append(conditions.zygmund_table(
            n, alpha, n, Envelope.power(1.0, 0.0, second), variant))
        if variant == "loglog" and alpha > 0:
            rows.append(conditions.zygmund_table(
                n, alpha, n, Envelope.log_power(alpha / n), variant))
    if variant == "log":
        rows.append(conditions.zygmund_table(n, n - 1.0, n,
                                             Envelope.exp_power(nprime), variant))
        rows.append(conditions.zygmund_table(n, n - 1.0, n,
                                             Envelope.exp_exp(nprime), variant))
        rows.append(conditions.zygmund_table(n, n - 0.5, n, Envelope.one(),
                                             variant))
    rows.append(conditions.zygmund_table(n + 1.0, 0.5, n, Envelope.one(), variant))
    return rows


_TABLE_HEADER = ["variant", "n", "p", "alpha", "envelope", "r", "gamma", "a",
                 "log_exp", "q_max", "q_strict", "beta_max", "beta_strict",
                 "unconditional", "empty", "note"]


def _cmd_table(args) -> int:
    rows = []
    for row in zygmund_sweep(args.variant, args.n):
        rows.append((row.variant, row.n, row.p, row.alpha, row.envelope_kind,
                     row.r, row.gamma, row.a, row.log_exp, row.q_max,
                     row.q_strict, row.beta_max, row.beta_strict,
                     row.unconditional, row.empty, row.note))
    _write_csv(args.out, _TABLE_HEADER, rows)
    return 0


def _cmd_counterexample(args) -> int:
    if args.ks:
        ks = [int(k) for k in args.ks.split(",")]
    else:
        ks = []
        k = 8
        while k <= args.kmax:
            ks.append(k)
            k *= 8
    deltas = _floats(args.deltas)
    lams = _floats(args.lambdas)
    report = counterexample_run(ks, deltas, dim=args.dim, lambda_grid=lams)
    rows = []
    for i, k in enumerate(report.k_list):
        for j, lam in enumerate(report.lambda_grid):
            rows.append(("w_modular", k, "", lam,
                         report.w_difference.modular_values[i, j], ""))
    for (k, delta), v in sorted(report.strip_values.items()):
        rows.append(("strip", k, delta, "", v, report.strip_expected[(k, delta)]))
    for (k, delta), note in report.skipped:
        rows.append(("skipped", k, delta, "", "", note))
    _write_csv(args.out, ["section", "k", "delta", "lambda", "value", "expected"],
               rows)
    _emit_json({
        "dim": report.dim,
        "converging_lambdas": list(report.w_difference.converging_lambdas),
        "norm_convergence": report.w_difference.norm_convergence,
        "divergence_certified": report.divergence_certified,
    }, args.json_out)
    return 0


def _cmd_experiment(args) -> int:
    with open(args.config) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise YoungError("experiment config must be a JSON object")
    dim = _typed(cfg, "dim", 2, int, "an integer")
    a, b = (from_config(_typed(cfg, key, None, (str, dict), "a record")) for key in "AB")
    spec = corpus.get_spec(_typed(cfg, "f", "identity", str, "a name"))
    if "E" in cfg:
        spec = dataclasses.replace(
            spec, envelope=parse_envelope(_typed(cfg, "E", None, (str, dict), "a record")))
    box = _parse_box(_typed(cfg, "box", "", str, "'lo,hi' text"), dim)
    base = corpus.get_field(_typed(cfg, "field", "x1", str, "a name"), dim)
    seq_cfg = _typed(cfg, "sequence", {"name": "shift_inv"}, dict, "an object")
    name = _typed(seq_cfg, "name", "shift_inv", str, "a name")
    ks = _typed(seq_cfg, "indices", [2 ** j for j in range(1, 9)], list, "a list")
    for k in ks:
        _check("experiment", "sequence index", k, 1.0, strict=False)
    seq = corpus.shifted_sequence(base, ks, corpus.SEQUENCES[name])
    lams = _typed(cfg, "lambdas", None, (list, type(None)), "a list")
    report = nemytskii.continuity_experiment(
        spec, seq, base, a, b, box, cfg.get("n", dim), lambda_grid=lams, indices=ks)
    rows = []
    for i, k in enumerate(report.image.indices):
        rows.append((k, report.predicted_constant,
                     report.image.value_modulars[i, 0],
                     report.image.gradient_modulars[i, 0]))
    _write_csv(args.out, ["k", "constant", "image_value_modular",
                          "image_gradient_modular"], rows)
    _emit_json({
        "base_lambda": report.base_lambda,
        "norm_limit": report.norm_limit,
        "predicted_constant": report.predicted_constant,
        "image_converged": report.converged,
    }, args.json_out)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``orlicz`` parser, built once and shared by every ``main`` call."""
    ap = argparse.ArgumentParser(
        prog="orlicz",
        description="Young-function calculus, Sobolev conjugates, Luxemburg "
                    "norms, and composition-operator experiments")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("conjugate", help="tabulate a Sobolev conjugate")
    c.add_argument("--A", required=True)
    c.add_argument("--n", type=float, required=True)
    c.add_argument("--sigma", type=float, default=None)
    c.add_argument("--t-lo", type=float, default=1e-2)
    c.add_argument("--t-hi", type=float, default=1e2)
    c.add_argument("--points", type=int, default=33)
    c.add_argument("--out")
    c.add_argument("--json-out")
    c.set_defaults(fn=_cmd_conjugate)

    c = sub.add_parser("aniso", help="radial rearrangement, conjugate, theta")
    c.add_argument("--phi", required=True)
    c.add_argument("--dim", type=int, default=2)
    c.add_argument("--E", default="one")
    c.add_argument("--xi", default="")
    c.add_argument("--t-lo", type=float, default=1e-2)
    c.add_argument("--t-hi", type=float, default=1e2)
    c.add_argument("--points", type=int, default=17)
    c.add_argument("--out")
    c.set_defaults(fn=_cmd_aniso)

    c = sub.add_parser("norm", help="Luxemburg norm of a named field")
    c.add_argument("--field", required=True)
    c.add_argument("--A", required=True)
    c.add_argument("--dim", type=int, default=1)
    c.add_argument("--box", default="")
    c.add_argument("--gradient", action="store_true")
    c.add_argument("--out")
    c.add_argument("--json-out")
    c.set_defaults(fn=_cmd_norm)

    c = sub.add_parser("converge", help="modular convergence of a sequence")
    c.add_argument("--field", required=True)
    c.add_argument("--seq", default="shift_inv")
    c.add_argument("--A", required=True)
    c.add_argument("--dim", type=int, default=1)
    c.add_argument("--box", default="")
    c.add_argument("--kmax", type=int, default=1024)
    c.add_argument("--ks", type=int, nargs="*")
    c.add_argument("--lambdas", default="0.25,0.5,1,2,4")
    c.add_argument("--out")
    c.add_argument("--json-out")
    c.set_defaults(fn=_cmd_converge)

    c = sub.add_parser("check", help="admissibility condition verdicts")
    c.add_argument("--cond", required=True,
                   choices=["inq-ass2", "inq-assD", "ortho", "aniso"])
    c.add_argument("--A", required=True)
    c.add_argument("--B", required=True)
    c.add_argument("--E", default="one")
    c.add_argument("--F")
    c.add_argument("--n", type=float, default=2.0)
    c.add_argument("--t0", type=float, default=0.0)
    c.add_argument("--t1", type=float, default=1.0)
    c.add_argument("--no-constant", action="store_true")
    c.add_argument("--json-out")
    c.set_defaults(fn=_cmd_check)

    c = sub.add_parser("table", help="admissible-exponent tables as CSV")
    c.add_argument("--variant", choices=["log", "loglog"], default="log")
    c.add_argument("--n", type=float, default=3.0)
    c.add_argument("--out")
    c.set_defaults(fn=_cmd_table)

    c = sub.add_parser("counterexample", help="norm-topology failure driver")
    c.add_argument("--dim", type=int, default=2)
    c.add_argument("--kmax", type=int, default=1024)
    c.add_argument("--ks", default="")
    c.add_argument("--deltas", default="1e-3,1e-4,1e-6")
    c.add_argument("--lambdas", default="0.25,0.5,1,2,4")
    c.add_argument("--out")
    c.add_argument("--json-out")
    c.set_defaults(fn=_cmd_counterexample)

    c = sub.add_parser("experiment", help="continuity experiment from a config")
    c.add_argument("--config", required=True)
    c.add_argument("--out")
    c.add_argument("--json-out")
    c.set_defaults(fn=_cmd_experiment)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (IndeterminateError, QuadratureError) as exc:
        sys.stderr.write(f"indeterminate: {exc}\n")
        return 2
    except (YoungError, OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
