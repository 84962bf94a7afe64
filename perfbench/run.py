"""orlicz benchmark: three seeded workloads, oracle-checked, one process each.

    python3 perfbench/run.py --workload theta_query --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 32 --trace 0

Each workload is a closed loop with one caller: a round runs the workload's
fixed job list once, operation after operation, and rounds repeat until the
next one would end past ``--seconds``.  Every operation's result is checked
against its oracle (see oracles.py and workloads.py).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
untraced rounds, then one more round with the outside-in tracer installed,
and reports the per-layer metrics of that round (tracer.py).  Lines before
the last describe the run; the last line is one JSON object with the keys
correct, attempted, failed and metrics.  Full results and traced spans go to
perfbench/out/.  README.md lists the metrics, the known defects and the seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracer import SpanTable, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("theta_query", "modular_quad", "table_build")

SETUP_PROBES = 3      # fresh interpreters timed per run for setup_s
IMPORT_PROBES = 3     # fresh interpreters timed per traced run for conjugate.import_s
PROBE_TIMEOUT_S = 120
# never run while the benchmark or a change was tuned; kept for later claims
HELD_OUT_SEED = 7919
TUNING_SEEDS = range(1, 11)


@dataclass
class Round:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    job_s: dict = field(default_factory=dict)
    op_s: dict = field(default_factory=dict)        # job name -> per-op seconds
    failures: list = field(default_factory=list)


def run_round(workload, tracer=None, tamper=None) -> Round:
    """Run every operation once; time the library call, then check it.

    ``tamper(op, result)`` may replace a result before its checks run; the
    self-test uses it to feed a wrong value to the oracles.
    """
    r = Round()
    cpu0 = time.process_time()
    for job in workload.jobs:
        if tracer is not None:
            tracer.begin_job(job.name)
        times = r.op_s.setdefault(job.name, [])
        for op in job.ops:
            r.attempted += 1
            t0 = time.perf_counter()
            try:
                result = op.call()
                error = None
            except Exception as exc:  # counted as a failed operation
                result, error = None, f"raised {type(exc).__name__}: {exc}"
            times.append(time.perf_counter() - t0)
            if error is None:
                if tamper is not None:
                    result = tamper(op, result)
                misses = [d for ok, d in (c.run(result) for c in op.checks) if not ok]
            else:
                misses = [error]
            if misses:
                r.failed += 1
                r.failures.append({"job": job.name, "op": op.name, "misses": misses})
        r.job_s[job.name] = sum(times)
    r.wall_s = sum(r.job_s.values())
    r.cpu_s = time.process_time() - cpu0
    return r


def run_rounds(workload, seconds: float) -> list:
    """Rounds until the next one, at the median round time, would overrun."""
    rounds = []
    t0 = time.perf_counter()
    while True:
        rounds.append(run_round(workload))
        elapsed = time.perf_counter() - t0
        if elapsed + statistics.median(r.wall_s for r in rounds) > seconds:
            return rounds


def _run_child(argv) -> subprocess.CompletedProcess:
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc


def setup_seconds(name: str, seed: int) -> list:
    argv = [sys.executable, str(HERE / "probe.py"), "--workload", name, "--seed", str(seed)]
    return [float(_run_child(argv).stdout.split()[-1]) for _ in range(SETUP_PROBES)]


def conjugate_import_seconds() -> list:
    """Cumulative import time of orlicz.conjugate (it pulls in scipy)."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import orlicz"
    out = []
    for _ in range(IMPORT_PROBES):
        proc = _run_child([sys.executable, "-X", "importtime", "-c", code])
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] == "orlicz.conjugate":
                out.append(int(parts[1]) * 1e-6)
                break
        else:
            raise RuntimeError("orlicz.conjugate missing from -X importtime output")
    return out


def meta(seed: int) -> dict:
    import scipy  # already loaded by orlicz

    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(str(f.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except OSError:  # no git on this machine: the commit stays unknown
            pass
    return {
        "seed": seed,
        "seed_role": ("held_out" if seed == HELD_OUT_SEED
                      else "tuning" if seed in TUNING_SEEDS else "other"),
        "held_out_seed": HELD_OUT_SEED,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_py_lines": lines,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile_us(samples, q: float) -> float:
    return float(np.percentile(np.asarray(samples), q)) * 1e6


def job_median_sum(rounds: list) -> float:
    """Sum over jobs of each job's median time across rounds.

    A slow spell of the machine that hits one job in one round and another
    job in the next is filtered out for both, which a median of round sums
    cannot do.
    """
    return sum(statistics.median(r.job_s[job] for r in rounds) for job in rounds[0].job_s)


def end_to_end(name: str, rounds: list, setup: list) -> tuple:
    """(gated metrics, reported-only metrics), each name -> (value, unit)."""
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    gated = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (job_median_sum(rounds), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    extra = {"fail_ratio": (failed / attempted, "ratio"), "rounds": (len(rounds), "count")}
    if name == "theta_query":
        lat = [t for r in rounds for t in r.op_s["theta_solves"]]
        extra["theta_p50_us"] = (percentile_us(lat, 50), "us")
        extra["theta_p99_us"] = (percentile_us(lat, 99), "us")
        extra["theta_samples"] = (len(lat), "count")
    return gated, extra


def traced_round(workload) -> tuple:
    tracer = Tracer()
    tracer.install()
    try:
        r = run_round(workload, tracer=tracer)
    finally:
        tracer.uninstall()
    return r, tracer


def per_layer(tracer, traced: Round, rounds: list, import_s: list) -> dict:
    t = SpanTable(tracer.names, tracer.arrays())
    ev, inv = t.ids("young.eval"), t.ids("young.inverse")
    build, hinv = t.ids("conjugate.HnTable.build"), t.ids("conjugate.HnTable.inverse")
    gauss, quad = t.ids("quad.gauss15"), t.ids("quad.quad_interval")
    solve, vol = t.ids("aniso.ThetaSolver.solve"), t.ids("aniso.sublevel_volume")
    box = t.ids("modular.integrate_box")
    lux, mod = t.ids("modular.luxemburg_norm"), t.ids("modular.modular_integral")
    build_panels = gauss & t.parent_is(build)
    quad_panels = gauss & t.parent_is(quad)
    leaf_levels = quad & ~t.has_child_in(quad)
    solves, norms = t.count(solve), t.count(lux)
    panels = t.count(quad_panels)
    m = {
        "young.eval_calls": (t.count(ev), "count"),
        "young.eval_s": (t.self_s(ev), "s"),
        "young.inverse_calls": (t.count(inv), "count"),
        "young.inverse_s": (t.self_s(inv), "s"),
        "conjugate.import_s": (statistics.median(import_s), "s"),
        "conjugate.table_builds": (t.count(build), "count"),
        "conjugate.build_s": (t.self_s(build) + t.self_s(build_panels), "s"),
        "conjugate.build_panels": (t.count(build_panels), "count"),
        "conjugate.inverse_calls": (t.count(hinv), "count"),
        "conjugate.inverse_s": (t.self_s(hinv), "s"),
        "aniso.theta_solves": (solves, "count"),
        "aniso.theta_s": (t.self_s(solve), "s"),
        "aniso.inverse_per_solve": (t.count(hinv & t.under(solve)) / solves if solves else 0.0,
                                    "ratio"),
        "aniso.volume_calls": (t.count(vol), "count"),
        "aniso.volume_s": (t.self_s(vol), "s"),
        "aniso.volume_phi_evals": (int(t.arg[vol].sum()), "count"),
        "quad.levels": (t.count(quad), "count"),
        "quad.panels": (panels, "count"),
        "quad.integrand_evals": (int(t.arg[quad_panels].sum()), "count"),
        "quad.depth_exits": (t.count(quad & (t.arg <= 0)), "count"),
        "quad.useful_panel_ratio": (2 * t.count(leaf_levels) / panels if panels else 0.0,
                                    "ratio"),
    }
    for d in (1, 2, 3):
        m[f"modular.integrate_box_s.d{d}"] = (t.total_s(box & (t.arg == d)), "s")
    m.update({
        "modular.lux_norms": (norms, "count"),
        "modular.lux_modulars_per_norm": (t.count(mod & t.under(lux)) / norms if norms else 0.0,
                                          "ratio"),
        "nemytskii.counterexample_s": (t.total_s(t.ids("nemytskii.counterexample_run")), "s"),
        "nemytskii.poincare_s": (t.total_s(t.ids("nemytskii.poincare_probe")), "s"),
        "conditions.check_aniso_s": (t.total_s(t.ids("conditions.check_aniso")), "s"),
        "conditions.table_s": (t.total_s(t.ids("conditions.zygmund_table")), "s"),
        "cli.main_s": (t.total_s(t.ids("cli.main")), "s"),
        "cli.bytes_out": (int(t.arg[t.ids("cli.main")].sum()), "bytes"),
        "process.cpu_s": (statistics.median(r.cpu_s for r in rounds), "s"),
        "trace.overhead_ratio": (traced.wall_s / job_median_sum(rounds), "ratio"),
    })
    return m


def _as_json_metrics(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads  # imports orlicz, so only once src/ is on the path

    workload = workloads.build(name, seed, ROOT)
    setup = [] if trace else setup_seconds(name, seed)
    import_s = conjugate_import_seconds() if trace else []
    rounds = run_rounds(workload, seconds)
    result = {"workload": name, "trace": int(trace), "meta": meta(seed),
              "inputs": {k: repr(v) for k, v in workload.inputs.items()},
              "round_wall_s": [r.wall_s for r in rounds]}
    all_rounds = list(rounds)
    extra = {}
    if trace:
        traced, tracer = traced_round(workload)
        all_rounds.append(traced)
        metrics = per_layer(tracer, traced, rounds, import_s)
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{name}-s{seed}.npz")
        result["traced_wall_s"] = traced.wall_s
        result["traced_peak_rss_mb"] = peak_rss_mb()
    else:
        metrics, extra = end_to_end(name, rounds, setup)
        result["setup_s_samples"] = setup
        result["reported"] = _as_json_metrics(extra)
    result["job_s"] = [r.job_s for r in all_rounds]
    result["failures"] = [f for r in all_rounds for f in r.failures]
    attempted = sum(r.attempted for r in all_rounds)
    failed = sum(r.failed for r in all_rounds)
    result["summary"] = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                         "metrics": _as_json_metrics(metrics)}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{name}-s{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1, default=repr) + "\n")
    for k, (v, u) in {**metrics, **extra}.items():
        print(f"{name} {k} {v:.6g} {u}")
    for f in result["failures"]:
        print(f"{name} FAILED {f['job']} / {f['op']}: {'; '.join(f['misses'])}")
    print(f"{name} meta {json.dumps(result['meta'], sort_keys=True)}")
    return result["summary"]


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in its own process, one summary per workload."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"workload {name} exited {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        child = json.loads(lines[-1])
        summary["correct"] &= child["correct"]
        summary["attempted"] += child["attempted"]
        summary["failed"] += child["failed"]
        for k, v in child["metrics"].items():
            summary["metrics"][f"{name}.{k}"] = v
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = [p for p in (SRC / "orlicz" / "__init__.py", ROOT / "tests" / "golden")
               if not p.exists()]
    if missing:
        sys.stderr.write("perfbench: run from an orlicz checkout; missing "
                         + ", ".join(str(p.relative_to(ROOT)) for p in missing) + "\n")
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        summary = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        summary = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
