"""Command-line front end: verdicts, tables, determinism, golden files."""

import gc
import json
import pathlib
import shlex

import numpy as np
import pytest

from orlicz import cli
from orlicz.cli import main
from orlicz.modular import BoxDomain, integrate_box

GOLDEN = pathlib.Path(__file__).parent / "golden"
README = pathlib.Path(__file__).parent.parent / "README.md"


def run(args):
    return main(args)


class TestInProcess:
    def test_repeat_call_leaves_little_garbage(self, capsys):
        # one parser serves every call, so a call leaves no parser cycles
        args = ["table", "--variant", "log", "--n", "2"]
        assert main(args) == 0
        gc.collect()
        assert main(args) == 0
        assert gc.collect() < 50


class TestCheck:
    def test_classical_boundary_holds(self, tmp_path):
        out = tmp_path / "verdict.json"
        code = run(["check", "--cond", "inq-ass2", "--A", "power:2",
                    "--B", "power:1.5", "--E", "power:1", "--n", "3",
                    "--json-out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == 1
        assert payload["verdict"]["holds"] is True

    def test_failing_verdict_still_exits_zero(self, tmp_path):
        out = tmp_path / "verdict.json"
        code = run(["check", "--cond", "inq-ass2", "--A", "power:2",
                    "--B", "power:1.9", "--E", "power:1", "--n", "3",
                    "--json-out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["verdict"]["holds"] is False

    def test_ortho(self, tmp_path):
        out = tmp_path / "verdict.json"
        code = run(["check", "--cond", "ortho",
                    "--A", "power:2|power:2|power:2",
                    "--B", "power:1.5|power:1.5|power:1.5",
                    "--E", "power:1", "--n", "3", "--json-out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["verdict"]["holds"] is True

    def test_usage_error(self):
        assert run([]) == 1
        assert run(["check", "--cond", "bogus", "--A", "power:2",
                    "--B", "power:1"]) == 1

    @pytest.mark.parametrize("t1", ["-1", "0"])
    def test_assd_rejects_a_nonpositive_t1(self, t1, capsys):
        code = run(["check", "--cond", "inq-assD", "--A", "power:2", "--B", "power:1.5",
                    "--E", "power:1,1", "--F", "power_log:2,1", "--t1", t1])
        assert code == 1
        assert "t1 must be positive and finite" in capsys.readouterr().err

    def test_aniso_takes_an_integral_dimension(self, tmp_path):
        out = tmp_path / "verdict.json"
        code = run(["check", "--cond", "aniso", "--A", "iso:power:2",
                    "--B", "iso:power:1.2", "--E", "power:1", "--n", "3",
                    "--json-out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["verdict"]["holds"] is True

    def test_aniso_rejects_a_fractional_dimension(self, capsys):
        code = run(["check", "--cond", "aniso", "--A", "iso:power:2",
                    "--B", "iso:power:1.2", "--n", "2.5"])
        assert code == 1
        assert "integral dimension" in capsys.readouterr().err


class TestTableGolden:
    @pytest.mark.parametrize("variant,n", [("log", 2), ("log", 3),
                                           ("loglog", 2), ("loglog", 3)])
    def test_matches_committed_golden(self, tmp_path, variant, n):
        out = tmp_path / "table.csv"
        assert run(["table", "--variant", variant, "--n", str(n),
                    "--out", str(out)]) == 0
        golden = (GOLDEN / f"zygmund_{variant}_n{n}.csv").read_bytes()
        assert out.read_bytes() == golden

    def test_reference_values_in_sweep(self, tmp_path):
        out = tmp_path / "table.csv"
        run(["table", "--variant", "log", "--n", "3", "--out", str(out)])
        rows = out.read_text().splitlines()
        assert any(r.startswith("log,3,2,0,power,1,0,0,0,1.5,false,0,")
                   for r in rows)


class TestConjugateCommand:
    def test_csv_and_verdicts(self, tmp_path):
        csv_out = tmp_path / "conj.csv"
        json_out = tmp_path / "conj.json"
        code = run(["conjugate", "--A", "power:2", "--n", "3",
                    "--points", "9", "--out", str(csv_out),
                    "--json-out", str(json_out)])
        assert code == 0
        lines = csv_out.read_text().splitlines()
        assert lines[0] == "t,A,H,A_conj"
        assert len(lines) == 10
        payload = json.loads(json_out.read_text())
        assert payload["classification_zero"] == "converges"
        assert payload["classification_inf"] == "diverges"

    def test_sigma_variant(self, tmp_path):
        code = run(["conjugate", "--A", "power:2", "--n", "2", "--sigma", "4",
                    "--points", "5", "--out", str(tmp_path / "c.csv")])
        assert code == 0


class TestCounterexampleCommand:
    def test_deterministic_csv(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["counterexample", "--dim", "1", "--ks", "8",
                "--deltas", "1e-3", "--lambdas", "1"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_summary_json(self, tmp_path):
        out = tmp_path / "cx.json"
        run(["counterexample", "--dim", "1", "--ks", "8,64",
             "--deltas", "1e-3,1e-4", "--lambdas", "1,2",
             "--out", str(tmp_path / "cx.csv"), "--json-out", str(out)])
        payload = json.loads(out.read_text())
        assert payload["divergence_certified"] is True

    def test_kmax_expands_to_octaves(self, tmp_path):
        out = tmp_path / "cx.csv"
        run(["counterexample", "--dim", "1", "--kmax", "64",
             "--deltas", "1e-3", "--lambdas", "1", "--out", str(out)])
        body = out.read_text()
        assert "w_modular,8," in body and "w_modular,64," in body


class TestQuadratureFailure:
    def test_exit_code_two_without_traceback(self, monkeypatch, capsys):
        # a strip integral whose panels toward the singular face alternate
        # in sign at a constant size fits neither decay nor divergence
        def no_signature(*args, **kwargs):
            box = BoxDomain.unit(1, singular=((0, "lower"),))
            return integrate_box(
                lambda X: np.where(np.floor(-np.log2(X[:, 0])) % 2 == 0, 1.0, -1.0) / X[:, 0],
                box)

        monkeypatch.setattr(cli, "counterexample_run", no_signature)
        code = run(["counterexample", "--dim", "1", "--ks", "8",
                    "--deltas", "1e-3", "--lambdas", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("indeterminate: no convergence or divergence signature")
        assert "Traceback" not in err


class TestAnisoCommand:
    def test_tables_and_theta(self, tmp_path):
        out = tmp_path / "aniso.csv"
        code = run(["aniso", "--phi", "iso:power:2", "--dim", "2",
                    "--E", "power:1", "--xi", "1,1;0.5,0",
                    "--points", "5", "--out", str(out)])
        assert code == 0
        body = out.read_text()
        assert "circ_inverse" in body and "conjugate" in body
        assert body.count("theta") == 2

    def test_readme_example(self, capsys):
        line = next(ln for ln in README.read_text().splitlines()
                    if ln.startswith("orlicz aniso "))
        code = run(shlex.split(line)[1:])
        assert code == 0
        rows = capsys.readouterr().out.splitlines()
        assert len([r for r in rows if r.startswith("theta,")]) == 2


def readme_commands():
    """The ``orlicz`` lines of README's CLI block."""
    block = README.read_text().split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [ln for ln in block.splitlines() if ln.startswith("orlicz ")]


class TestReadmeCommands:
    @pytest.mark.parametrize("line", readme_commands(), ids=lambda ln: ln.split()[1])
    def test_documented_exit_code(self, line, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        # the experiment line reads this minimal config
        (tmp_path / "exp.json").write_text(json.dumps(
            {"schema": 1, "A": {"kind": "power", "p": 2}, "B": {"kind": "power", "p": 1}}))
        code = run(shlex.split(line)[1:])
        err = capsys.readouterr().err
        assert code == 0
        assert "Traceback" not in err


class TestNormCommand:
    def test_named_field(self, tmp_path):
        out = tmp_path / "norm.json"
        code = run(["norm", "--field", "x1", "--A", "power:2", "--dim", "1",
                    "--json-out", str(out)])
        assert code == 0
        val = json.loads(out.read_text())["norm"]
        # oracle: int_0^1 (x/lam)^2 = 1 at lam = 3^{-1/2}
        assert abs(float(val) - 3 ** -0.5) < 1e-8


class TestConvergeCommand:
    def test_constant_shift_sequence(self, tmp_path):
        out = tmp_path / "conv.json"
        code = run(["converge", "--field", "x1", "--A", "power:2",
                    "--dim", "1", "--kmax", "1024",
                    "--lambdas", "0.25,1,4", "--json-out", str(out),
                    "--out", str(tmp_path / "conv.csv")])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["norm_convergence"] is True


class TestExperimentCommand:
    def test_config_run(self, tmp_path):
        cfg = {
            "schema": 1,
            "A": {"kind": "power", "p": 2},
            "B": {"kind": "power", "p": 1},
            "f": "signed_square",
            "dim": 2,
            "field": "x1",
            "sequence": {"name": "shift_inv",
                         "indices": [4, 16, 64, 256, 1024, 4096]},
        }
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "exp_report.json"
        code = run(["experiment", "--config", str(cfg_path),
                    "--out", str(tmp_path / "exp.csv"), "--json-out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["image_converged"] is True
