"""Self-test of the oracle accounting, not of the library.

Runs the fast table_build operations (the CLI jobs) once untouched, then
again with one result replaced by a wrong value before its checks and with
one operation that raises.  Both misses must be counted and the round must
still finish.

    python3 perfbench/selftest.py
"""

import sys

import run

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402
from oracles import Job, Op  # noqa: E402


def expect(condition: bool, detail) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {detail}")


def _raises():
    raise ZeroDivisionError("deliberate")


def main() -> int:
    full = workloads.build("table_build", 1, run.ROOT)
    cli_ops = next(j for j in full.jobs if j.name == "cli").ops
    small = workloads.Workload((Job("cli", cli_ops),), {})

    clean = run.run_round(small)
    expect((clean.attempted, clean.failed) == (len(cli_ops), 0), clean.failures)

    target = cli_ops[0].name

    def tamper(op, result):
        if op.name != target:
            return result
        return {**result, "stdout": result["stdout"].replace(b"power", b"pow3r", 1)}

    broken = workloads.Workload(
        (Job("cli", cli_ops), Job("raising", (Op("raises", _raises, ()),))), {})
    r = run.run_round(broken, tamper=tamper)
    expect(r.attempted == len(cli_ops) + 1, r.attempted)
    expect(r.failed == 2, r.failures)
    expect([f["op"] for f in r.failures] == [target, "raises"], r.failures)
    expect(r.failures[0]["misses"][0].startswith("csv: got"), r.failures[0])
    expect("ZeroDivisionError" in r.failures[1]["misses"][0], r.failures[1])
    print(f"selftest ok: {r.failed} of {r.attempted} operations counted as failed")
    for f in r.failures:
        print(f"  {f['job']} / {f['op']}: {'; '.join(f['misses'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
