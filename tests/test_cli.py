"""End-to-end CLI behavior: JSON envelopes, exit codes, pipeability."""

import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from causalcurves import MatrixParabola, check_positive_all_s
from causalcurves.cli import _COMMANDS, main

CLI = [sys.executable, "-m", "causalcurves.cli"]


def run_cli(args, payload=None):
    text = None if payload is None else json.dumps(payload)
    proc = subprocess.run(
        CLI + args, input=text, capture_output=True, text=True, timeout=60
    )
    body = json.loads(proc.stdout) if proc.stdout.strip() else None
    return proc.returncode, body


def pipe(stages, payload=None):
    """Feed each stage's stdout into the next stage's stdin."""
    text = None if payload is None else json.dumps(payload)
    for args in stages:
        proc = subprocess.run(
            CLI + args, input=text, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        text = proc.stdout
    return json.loads(text)


class TestGoldenPipes:
    def test_example_charpoly(self):
        body = pipe([["example", "--name", "dim4"], ["charpoly"]])
        assert body["ok"] is True
        assert body["result"] == {"A": [[1.0]], "B": [[0.0]], "C": [[1.0]]}

    def test_signature_of_dim5(self):
        body = pipe([["example", "--name", "dim5", "--t", "1", "--r", "1"], ["signature"]])
        assert body["result"] == {"n": 5, "m": 2, "r": 1, "k": 0}

    def test_parabola_realize_fixed_point(self):
        first = pipe([["example", "--name", "dim5", "--t", "2", "--r", "1"], ["charpoly"]])
        again = pipe([["realize", "--n", "5"], ["charpoly"]], payload=first["result"])
        for key in ("A", "B", "C"):
            np.testing.assert_allclose(
                np.array(again["result"][key]), np.array(first["result"][key]), atol=1e-8
            )

    def test_validate_counterexample(self):
        payload = {
            "A": [[1.0, 0.0], [0.0, 1.0]],
            "B": [[1.0, 0.0], [0.0, 1.0]],
            "C": [[1.0, 0.5], [0.5, 1.0]],
        }
        code, body = run_cli(["validate-parabola", "--n", "6"], payload)
        assert code == 0
        result = body["result"]
        assert result["characteristic"] is False
        assert result["schur_psd"] is False
        P = MatrixParabola(payload["A"], payload["B"], payload["C"])
        assert result["poabc"] == check_positive_all_s(P)

    def test_validate_manifold(self):
        body = pipe([["example", "--name", "dim4"], ["validate-manifold"]])
        result = body["result"]
        assert result["valid"] and result["free"] and not result["elliptic"]
        assert result["signature"] == {"n": 4, "m": 1, "r": 1, "k": 0}
        assert result["euclidean_factor_dim"] == 0

    def test_invariants(self):
        body = pipe([["example", "--name", "dim5"], ["charpoly"], ["invariants"]])
        assert body["result"]["degenerate"] is False
        assert body["result"]["values"] == [0.0, 1.0]

    def test_simple_form(self):
        body = pipe([["example", "--name", "dim5"], ["simple-form"]])
        assert body["result"]["eigenvalues"] == [0.0, 1.0]
        assert body["result"]["gram"] == [[1.0, 1.0], [1.0, 1.0]]

    def test_reduce(self):
        payload = {
            "A": [[1.0, 0.0], [0.0, 2.0]],
            "B": [[0.0, 0.0], [0.0, 0.0]],
            "C": [[1.0, 0.0], [0.0, 0.0]],
        }
        code, body = run_cli(["reduce"], payload)
        assert code == 0
        assert body["result"]["k"] == 1
        assert body["result"]["constant_block"] == [[2.0]]
        assert body["result"]["reduced"] == {"A": [[1.0]], "B": [[0.0]], "C": [[1.0]]}

    def test_realize_with_constant_direction(self):
        payload = {
            "A": [[1.0, 0.0], [0.0, 2.0]],
            "B": [[0.0, 0.0], [0.0, 0.0]],
            "C": [[1.0, 0.0], [0.0, 0.0]],
        }
        body = pipe([["realize", "--n", "5"], ["charpoly"]], payload=payload)
        for key in ("A", "B", "C"):
            np.testing.assert_allclose(
                np.array(body["result"][key]), np.array(payload[key]), atol=1e-10
            )

    def test_compare_and_search(self):
        P1 = pipe([["example", "--name", "dim4"], ["charpoly"]])["result"]
        P2 = {"A": [[4.0]], "B": [[2.0]], "C": [[2.0]]}  # 2 * (1 + (s+1)^2)
        code, body = run_cli(["compare"], {"P1": P1, "P2": P2})
        assert code == 0
        assert body["result"]["verdict"] == "yes"
        code, body = run_cli(["search-cert", "--bound", "2"], {"P1": P1, "P2": P1})
        assert code == 0
        assert body["result"]["found"] is True
        cert = body["result"]["certificate"]
        code, body = run_cli(
            ["certify"], {"P1": P1, "P2": P1, "certificate": cert}
        )
        assert code == 0
        assert body["result"]["equivalent"] is True


# The pipelines of README "Command line" and the lines it documents.
README_PIPES = [
    (
        [["example", "--name", "dim4"], ["charpoly"]],
        None,
        '{"error": null, "ok": true, "result": {"A": [[1.0]], "B": [[0.0]], "C": [[1.0]]}}',
    ),
    (
        [["example", "--name", "dim5", "--t", "2", "--r", "1"], ["charpoly"], ["realize", "--n", "5"], ["signature"]],
        None,
        '{"error": null, "ok": true, "result": {"k": 0, "m": 2, "n": 5, "r": 1}}',
    ),
    (
        [["validate-parabola", "--n", "6"]],
        '{"A": [[1,0],[0,1]], "B": [[1,0],[0,1]], "C": [[1,0.5],[0.5,1]]}',
        '{"error": null, "ok": true, "result": {"characteristic": false, "poabc": false, '
        '"schur_psd": false, "schur_rank": 2, "signature": null}}',
    ),
]

DIM5 = {"n": 5, "a_prime": [[0.0, 0.0], [0.0, 1.0]], "a_dblprime": [[2.0, 1.0]], "lattice": [[1.0, 0.0], [0.0, 1.0]]}
DIM5_PARABOLA = {"A": [[1.0, 0.0], [0.0, 1.0]], "B": [[0.0, 0.0], [0.0, 1.0]], "C": [[4.0, 2.0], [2.0, 2.0]]}
UNIT = {"A": [[1.0]], "B": [[0.0]], "C": [[1.0]]}
# One successful invocation per subcommand: its flags and its payload
# (None: the subcommand reads none).
SAMPLES = {
    "example": (["--name", "dim5", "--t", "2", "--r", "1"], None),
    "validate-manifold": ([], DIM5),
    "charpoly": ([], DIM5),
    "signature": ([], DIM5),
    "simple-form": ([], DIM5),
    "validate-parabola": (["--n", "5"], DIM5_PARABOLA),
    "realize": (["--n", "5"], DIM5_PARABOLA),
    "reduce": ([], {"A": [[1.0, 0.0], [0.0, 2.0]], "B": [[0.0, 0.0], [0.0, 0.0]], "C": [[1.0, 0.0], [0.0, 0.0]]}),
    "invariants": ([], DIM5_PARABOLA),
    "compare": (["--n", "4"], {"P1": UNIT, "P2": {"A": [[4.0]], "B": [[2.0]], "C": [[2.0]]}}),
    "certify": ([], {"P1": UNIT, "P2": UNIT, "certificate": {"X": [[1]], "alpha": 1.0, "beta": 0.0}}),
    "search-cert": (["--bound", "2"], {"P1": UNIT, "P2": UNIT}),
}


class TestFlagRule:
    """Every payload subcommand takes --input/--tol/--pretty; example
    takes no payload."""

    @staticmethod
    def call(args, stdin_text, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
        code = main(args)
        return code, capsys.readouterr().out

    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_input_and_pretty(self, command, tmp_path, monkeypatch, capsys):
        flags, payload = SAMPLES[command]
        text = "" if payload is None else json.dumps(payload)
        code, plain = self.call([command, *flags, "--tol", "1e-9"], text, monkeypatch, capsys)
        assert code == 0 and json.loads(plain)["ok"] is True
        code, pretty = self.call([command, *flags, "--pretty"], text, monkeypatch, capsys)
        assert code == 0 and pretty != plain and json.loads(pretty) == json.loads(plain)
        path = tmp_path / "payload.json"
        path.write_text(text, encoding="utf-8")
        code, from_file = self.call([command, *flags, "--input", str(path)], "", monkeypatch, capsys)
        if payload is None:
            assert code == 2 and from_file == ""
        else:
            assert code == 0 and from_file == plain

    @pytest.mark.parametrize("stages, stdin_text, line", README_PIPES)
    def test_readme_pipelines(self, stages, stdin_text, line):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        assert f"# {line}\n" in readme
        text = stdin_text
        for args in stages:
            proc = subprocess.run(CLI + args, input=text, capture_output=True, text=True, timeout=60)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            text = proc.stdout
        assert text == line + "\n"


class TestExitCodes:
    def test_domain_error_is_one(self):
        payload = {
            "n": 5,
            "a_prime": [[1.0, 0.0], [0.0, 1.0]],
            "a_dblprime": [[1.0, 0.0]],
            "lattice": [[1.0, 0.0], [0.0, 1.0]],
        }
        code, body = run_cli(["validate-manifold"], payload)
        assert code == 1
        assert body["ok"] is False
        assert body["error"]["code"] == "FreenessViolated"

    def test_zero_parameter_is_one(self):
        code, body = run_cli(["example", "--name", "dim5", "--r", "0"])
        assert code == 1
        assert body["error"]["code"] == "ZeroParameter"

    def test_malformed_json_is_two(self):
        proc = subprocess.run(
            CLI + ["charpoly"], input="{not json", capture_output=True, text=True
        )
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["error"]["code"] == "MalformedInput"

    def test_undecodable_input_is_two(self, tmp_path):
        path = tmp_path / "payload.json"
        path.write_bytes(b'{"n": 4, "a_prime": [[\xd0\x00]]}')
        code, body = run_cli(["charpoly", "--input", str(path)])
        assert code == 2
        assert body["error"]["code"] == "MalformedInput"
        proc = subprocess.run(
            CLI + ["charpoly"], input=b"\xff{}", capture_output=True,
            env={**os.environ, "PYTHONIOENCODING": "utf-8:strict"},
        )
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["error"]["code"] == "MalformedInput"

    def test_deep_nesting_is_two(self):
        proc = subprocess.run(
            CLI + ["charpoly"], input="[" * 100000, capture_output=True, text=True
        )
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["error"]["code"] == "MalformedInput"

    @pytest.mark.parametrize("A, B, C", [
        ([[1.0]], [[0.0]], [[1.0]]),
        ([[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 0.1]], [[1.0, 0.0], [0.0, 1.0]]),
        ([[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]),
    ])
    def test_largest_finite_entries(self, A, B, C, tmp_path, capsys):
        # Entries near 1e308 decide like the same parabola at 1e300,
        # without overflow warnings.
        bodies = []
        for scale in (1e308, 1e300):
            path = tmp_path / "payload.json"
            path.write_text(json.dumps({key: (scale * np.array(S)).tolist()
                                        for key, S in zip("ABC", (A, B, C))}))
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert main(["validate-parabola", "--n", "6", "--input", str(path)]) == 0
            bodies.append(json.loads(capsys.readouterr().out))
        assert bodies[0] == bodies[1]
        assert bodies[0]["result"]["characteristic"] is True

    def test_nan_rejected(self):
        proc = subprocess.run(
            CLI + ["charpoly"],
            input='{"n": 4, "a_prime": [[NaN]], "a_dblprime": [[1.0]], "lattice": [[1.0]]}',
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2

    def test_missing_field_is_two(self):
        code, body = run_cli(["charpoly"], {"n": 4, "a_prime": [[0.0]]})
        assert code == 2
        assert body["error"]["code"] == "MalformedInput"

    def test_boolean_n_is_two(self):
        # JSON true is not the integer 1.
        payload = {"n": True, "a_prime": [[0]], "a_dblprime": [[1]], "lattice": [[1]]}
        code, body = run_cli(["signature"], payload)
        assert code == 2
        assert body["error"]["code"] == "MalformedInput"

    def test_bad_flags_is_two(self):
        proc = subprocess.run(
            CLI + ["realize"], input="{}", capture_output=True, text=True
        )  # missing required --n
        assert proc.returncode == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tol_is_two(self, capsys, tol):
        required = {"example": ["--name", "dim4"], "validate-parabola": ["--n", "4"],
                    "realize": ["--n", "4"]}
        for command in _COMMANDS:
            assert main([command, *required.get(command, []), "--tol", tol]) == 2
            assert "argument --tol" in capsys.readouterr().err

    def test_zero_tol_is_valid(self):
        payload = {"A": [[1.0]], "B": [[0.0]], "C": [[1.0]]}
        code, body = run_cli(["validate-parabola", "--n", "4", "--tol", "0"], payload)
        assert code == 0
        assert body["result"]["characteristic"] is True

    def test_unknown_subcommand_is_two(self):
        proc = subprocess.run(
            CLI + ["frobnicate"], input="", capture_output=True, text=True
        )
        assert proc.returncode == 2

    def test_not_characteristic_error(self):
        payload = {
            "A": [[1.0, 0.0], [0.0, 1.0]],
            "B": [[1.0, 0.0], [0.0, 1.0]],
            "C": [[1.0, 0.5], [0.5, 1.0]],
        }
        code, body = run_cli(["realize", "--n", "6"], payload)
        assert code == 1
        assert body["error"]["code"] == "NotCharacteristic"


class TestDeterminism:
    def test_idempotent_reemission(self):
        first = subprocess.run(
            CLI + ["example", "--name", "dim5", "--t", "1.7", "--r", "0.3"],
            capture_output=True,
            text=True,
        )
        payload = json.loads(first.stdout)["result"]
        second = subprocess.run(
            CLI + ["validate-manifold"], input=json.dumps(payload), capture_output=True, text=True
        )
        assert second.returncode == 0
        # Re-parse the result as a request and re-emit: byte identical.
        third = subprocess.run(
            CLI + ["charpoly"], input=first.stdout, capture_output=True, text=True
        )
        fourth = subprocess.run(
            CLI + ["charpoly"], input=json.dumps({"ok": True, "result": payload}), capture_output=True, text=True
        )
        assert third.stdout == fourth.stdout

    def test_repeated_runs_identical(self):
        args = ["example", "--name", "dim5", "--t", "1.234567890123456", "--r", "2"]
        one = subprocess.run(CLI + args, capture_output=True, text=True).stdout
        two = subprocess.run(CLI + args, capture_output=True, text=True).stdout
        assert one == two

    def test_twelve_significant_digits(self):
        code, body = run_cli(
            ["charpoly"],
            {
                "n": 4,
                "a_prime": [[0.0]],
                "a_dblprime": [[1.0 / 3.0]],
                "lattice": [[1.0]],
            },
        )
        assert code == 0
        # 1/9 printed to 12 significant digits.
        assert body["result"]["C"] == [[0.111111111111]]

    def test_main_callable_directly(self, capsys):
        assert main(["example", "--name", "dim4"]) == 0
        body = json.loads(capsys.readouterr().out)
        assert body["ok"] is True
