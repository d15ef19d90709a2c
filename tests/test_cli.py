"""End-to-end CLI behavior: JSON envelopes, exit codes, pipeability."""

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import causalcurves
from causalcurves import MatrixParabola, almost_equivalent, char_polynomial, check_positive_all_s, cli
from causalcurves.cli import _COMMANDS, main
from conftest import random_elliptic, random_manifold, wide_degenerate_member, wide_map_pair

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

    def test_validate_member_with_constant_direction(self):
        # k = 1: positivity splits off ker C before the Hautus test, as
        # the decision does, and reads the C-gauge of the moving part.
        P = char_polynomial(random_manifold(np.random.default_rng(1), m=3, r=1, k=1))
        code, body = run_cli(["validate-parabola", "--n", "6"], {"A": P.A.tolist(), "B": P.B.tolist(), "C": P.C.tolist()})
        assert code == 0
        assert body["result"]["characteristic"] is True
        assert body["result"]["poabc"] is True

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

    def test_reduce_prints_the_frames(self):
        # X = [U | Y]: U spans ker C, and Y = e2 - U K^{-1} U^T A e2 is
        # A-orthogonal to it but not orthonormal.
        payload = {"A": [[2.0, 1.0], [1.0, 2.0]], "B": [[0.0, 0.0], [0.0, 1.0]], "C": [[0.0, 0.0], [0.0, 1.0]]}
        code, body = run_cli(["reduce"], payload)
        assert code == 0
        X = np.abs(body["result"]["X"])
        np.testing.assert_allclose(X, [[1.0, 0.5], [0.0, 1.0]], atol=1e-12)
        assert body["result"]["constant_block"] == [[2.0]]
        assert body["result"]["reduced"] == {"A": [[1.5]], "B": [[1.0]], "C": [[1.0]]}

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

    def test_certify_after_a_wide_map(self):
        # An order-3 pair (beta = 163): the witness almost_equivalent
        # verified is certified at the default tol, on a band that reads
        # the terms of the image, not max|P1| alone.
        P1, P2, _ = wide_map_pair(53)
        cert = almost_equivalent(P1, P2).certificate
        payload = {
            "P1": {"A": P1.A.tolist(), "B": P1.B.tolist(), "C": P1.C.tolist()},
            "P2": {"A": P2.A.tolist(), "B": P2.B.tolist(), "C": P2.C.tolist()},
            "certificate": {"X": cert.X.tolist(), "alpha": cert.alpha, "beta": cert.beta},
        }
        code, body = run_cli(["certify"], payload)
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


# Members of order two with k = 0, k = 1 and k = 2 (the elliptic point),
# their images under X = [[1, 0], [1, 1]], alpha = 2, beta = 1, and the
# exact bytes the realize -> charpoly pipe and compare print for them.
STABLE_OUTPUT = {
    "k0": (
        {"A": [[2.0, 0.5], [0.5, 1.0]], "B": [[0.5, 0.0], [0.0, -0.25]], "C": [[1.0, 0.25], [0.25, 0.5]]},
        6,
        {"A": [[6.5, 1.75], [1.75, 1.0]], "B": [[4.5, 1.0], [1.0, 0.5]], "C": [[8.0, 3.0], [3.0, 2.0]]},
        '{"error": null, "ok": true, "result": {"a_dblprime": [[0.0, 0.654653670708], [0.654653670708, 0.0]], "a_prime": [[0.266736677378, -0.0167366773785], [-0.0167366773785, -0.266736677378]], "lattice": [[1.39847020486, 0.210430715716], [0.210430715716, 0.977608773428]], "n": 6}}\n',
        '{"error": null, "ok": true, "result": {"A": [[2.0, 0.499999999999], [0.499999999999, 1.0]], "B": [[0.499999999999, -1.81734931449e-13], [-1.81734931449e-13, -0.25]], "C": [[0.999999999999, 0.249999999999], [0.249999999999, 0.5]]}}\n',
        '{"error": null, "ok": true, "result": {"certificate": {"X": [[-1.06904496765, -0.267261241912], [1.60356745147, 1.33630620956]], "alpha": 0.5, "beta": -0.5, "integral": false}, "reason": "verified witness", "verdict": "yes"}}\n',
    ),
    "k1": (
        {"A": [[1.0, 1.0], [1.0, 3.0]], "B": [[0.5, 0.5], [0.5, 0.5]], "C": [[1.0, 1.0], [1.0, 1.0]]},
        5,
        {"A": [[14.0, 8.0], [8.0, 5.0]], "B": [[12.0, 6.0], [6.0, 3.0]], "C": [[16.0, 8.0], [8.0, 4.0]]},
        '{"error": null, "ok": true, "result": {"a_dblprime": [[0.0, 0.866025403784]], "a_prime": [[0.0, 0.0], [0.0, 0.5]], "lattice": [[0.0, 1.41421356237], [1.0, 1.0]], "n": 5}}\n',
        '{"error": null, "ok": true, "result": {"A": [[1.0, 1.0], [1.0, 2.99999999999]], "B": [[0.5, 0.5], [0.5, 0.5]], "C": [[0.999999999999, 0.999999999999], [0.999999999999, 0.999999999999]]}}\n',
        '{"error": null, "ok": true, "result": {"certificate": {"X": [[-1, 0], [1, -1]], "alpha": 0.5, "beta": -0.5, "integral": true}, "reason": "verified witness", "verdict": "yes"}}\n',
    ),
    "elliptic": (
        {"A": [[2.0, 0.5], [0.5, 1.0]], "B": [[0.0, 0.0], [0.0, 0.0]], "C": [[0.0, 0.0], [0.0, 0.0]]},
        4,
        {"A": [[4.0, 1.5], [1.5, 1.0]], "B": [[0.0, 0.0], [0.0, 0.0]], "C": [[0.0, 0.0], [0.0, 0.0]]},
        '{"error": null, "ok": true, "result": {"a_dblprime": [], "a_prime": [[0.0, 0.0], [0.0, 0.0]], "lattice": [[1.39847020486, 0.210430715716], [0.210430715716, 0.977608773428]], "n": 4}}\n',
        '{"error": null, "ok": true, "result": {"A": [[2.0, 0.499999999999], [0.499999999999, 1.0]], "B": [[0.0, 0.0], [0.0, 0.0]], "C": [[0.0, 0.0], [0.0, 0.0]]}}\n',
        '{"error": null, "ok": true, "result": {"certificate": {"X": [[0.801783725737, -0.267261241912], [-0.267261241912, 1.33630620956]], "alpha": 1.0, "beta": 0.0, "integral": false}, "reason": "verified witness", "verdict": "yes"}}\n',
    ),
}


class TestStableOutput:
    """realize, charpoly and compare print the same bytes for every k:
    constant directions and full-rank C take one path."""

    @staticmethod
    def call(args, stdin_text, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
        assert main(args) == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("kind", list(STABLE_OUTPUT))
    def test_realize_charpoly_and_compare(self, kind, monkeypatch, capsys):
        P1, n, P2, realized, extracted, compared = STABLE_OUTPUT[kind]
        out = self.call(["realize", "--n", str(n)], json.dumps(P1), monkeypatch, capsys)
        assert out == realized
        assert self.call(["charpoly"], out, monkeypatch, capsys) == extracted
        pair = json.dumps({"P1": P1, "P2": P2})
        assert self.call(["compare"], pair, monkeypatch, capsys) == compared


class TestValidateParabola:
    """validate-parabola's diagnostics read the decision's criteria, so on
    every member they agree with the verdict."""

    @pytest.mark.parametrize("m, r, k", [(1, 1, 0), (3, 2, 0), (3, 1, 1), (5, 2, 2), (8, 3, 2), (3, 0, 3)])
    def test_members_are_positive_with_the_signature_rank(self, m, r, k, monkeypatch, capsys):
        rng = np.random.default_rng(10 * m + k)
        for _ in range(5):
            M = random_elliptic(rng, m=m) if k == m else random_manifold(rng, m=m, r=r, k=k)
            P = char_polynomial(M)
            payload = {"A": P.A.tolist(), "B": P.B.tolist(), "C": P.C.tolist()}
            monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
            assert main(["validate-parabola", "--n", str(M.n)]) == 0
            result = json.loads(capsys.readouterr().out)["result"]
            assert result["characteristic"] and result["signature"]["k"] == k
            diagnostics = (result["poabc"], result["schur_psd"], result["schur_rank"])
            assert diagnostics == (True, True, result["signature"]["r"])

    @pytest.mark.parametrize("seed", [27, 67, 163, 199])
    def test_schur_fields_of_a_member_with_a_definite_a_inside_the_band(self, seed, monkeypatch, capsys):
        # A is positive definite only below the band, so A^{-1/2} is
        # None; the Schur verdict is the moving part's inertia of H.
        P, r = wide_degenerate_member(seed)
        assert causalcurves.symmat.pd_inv_sqrt(P.A) is None
        payload = {"A": P.A.tolist(), "B": P.B.tolist(), "C": P.C.tolist()}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
        assert main(["validate-parabola", "--n", str(2 * P.dim + 2)]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["characteristic"] and result["signature"]["r"] == r
        assert (result["poabc"], result["schur_psd"], result["schur_rank"]) == (True, True, r)


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

    @pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
    @pytest.mark.parametrize("flag", ["--t", "--r"])
    def test_non_finite_example_parameter_is_two(self, capsys, flag, value):
        assert main(["example", "--name", "dim5", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"argument {flag}" in captured.err

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


# The public names of the package: the names of every module's API.
PUBLIC = [
    "AffineSpectrum", "AlmostVerdict", "BadCertificate", "CausalCurvesError", "CSingular", "DEFAULT_TOL",
    "DimensionMismatch", "EigenDecomposition", "EquivalenceCertificate", "FreenessViolated",
    "InconsistentHolonomy", "InvalidCharacteristic", "LorentzFrame", "ManifoldData", "MatrixParabola",
    "NonFiniteInput", "NotCharacteristic", "NotDegenerate", "NotPositiveDefinite", "NotPSD",
    "NotSimpleSpectrum", "NotSymmetric", "ParabolaAnalysis", "RankDeficientR", "ReductionResult",
    "SchurResult", "Signature", "SignatureInconsistent", "SimpleSpectrumForm", "SingularA",
    "UnsupportedDimension", "ZeroParameter", "ZeroPolynomial", "a_vector", "affine_spectrum",
    "almost_equivalent", "apply_certificate", "build", "char_polynomial", "check_free",
    "check_positive_all_s", "congruence", "det_poly", "euclidean_factor_dim", "example_4d", "example_5d",
    "gamma_apply", "identity_certificate", "is_characteristic", "is_pd", "lambda_of", "psd_sqrt",
    "q_direct", "real_roots", "realize", "recover_a_from_holonomy", "reduce_degenerate", "reparametrize",
    "schur_condition", "search_certificate", "signature_of", "simple_spectrum_form", "sym_eig",
    "symmetrize", "tau_of", "verify_equivalence",
]
MANIFOLD_PAYLOAD = json.dumps(DIM5)
PARABOLA_PAYLOAD = json.dumps(DIM5_PARABOLA)
LIBRARY = {"charpoly", "classify", "construction", "errors", "minkowski", "symmat"}


def loaded_modules(code, stdin_text=""):
    """The library modules of causalcurves that a fresh interpreter has
    loaded after running ``code``."""
    probe = code + "\nimport sys\nprint(sorted(m[13:] for m in sys.modules if m.startswith('causalcurves.')))"
    proc = subprocess.run([sys.executable, "-c", probe], input=stdin_text, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1].replace("'", '"'))) & LIBRARY


class TestLazyPackage:
    """Public names and submodules of the package load on first use."""

    def test_public_names(self):
        assert sorted(causalcurves.__all__) == sorted(PUBLIC) and len(set(PUBLIC)) == 66

    def test_names_are_their_modules_objects(self):
        star = {}
        exec("from causalcurves import *", star)
        for name in PUBLIC:
            obj = getattr(causalcurves, name)
            module = importlib.import_module(getattr(obj, "__module__", None) or "causalcurves.symmat")
            assert star[name] is obj is getattr(module, name), name
            assert name in dir(causalcurves)

    def test_names_follow_their_modules(self, monkeypatch):
        # The package keeps no copy: a function rebound in its module is
        # the one the package returns.
        from causalcurves import charpoly

        def double(P, n, tol=None):
            raise AssertionError("not called")

        monkeypatch.setattr(charpoly, "is_characteristic", double)
        assert causalcurves.is_characteristic is double
        assert "is_characteristic" not in vars(causalcurves)

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
            causalcurves.frobnicate  # noqa: B018
        with pytest.raises(ImportError):
            exec("from causalcurves import frobnicate", {})

    def test_import_loads_no_library_module(self):
        assert loaded_modules("import causalcurves") == set()

    def test_submodule_resolves_without_an_import(self):
        code = "import causalcurves\nassert causalcurves.symmat.DEFAULT_TOL == 1e-9"
        assert loaded_modules(code) == {"symmat", "errors"}


class TestImports:
    @pytest.fixture
    def built(self, monkeypatch):
        """The commands of every parser main builds."""
        built, build = [], cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda commands: built.append(list(commands)) or build(commands))
        return built

    @pytest.mark.parametrize("args, stdin_text, modules", [
        (["example", "--name", "dim5"], "", {"construction", "minkowski", "symmat", "errors"}),
        (["signature"], MANIFOLD_PAYLOAD, {"construction", "minkowski", "symmat", "errors"}),
        (["validate-manifold"], MANIFOLD_PAYLOAD, {"construction", "minkowski", "symmat", "errors"}),
        (["charpoly"], MANIFOLD_PAYLOAD, LIBRARY - {"classify"}),
        (["validate-parabola", "--n", "5"], PARABOLA_PAYLOAD, LIBRARY - {"classify"}),
        (["realize", "--n", "5"], PARABOLA_PAYLOAD, LIBRARY),
    ])
    def test_subcommand_loads_only_what_it_runs(self, args, stdin_text, modules):
        code = f"from causalcurves import cli\nassert cli.main({args!r}) == 0"
        assert loaded_modules(code, stdin_text) == modules

    @pytest.mark.parametrize("args", [["--help"], [], ["frobnicate"], ["-h", "example"]])
    def test_help_and_unknown_commands_read_the_full_parser(self, args, capsys, built):
        with contextlib.suppress(SystemExit):
            cli.build_parser(_COMMANDS).parse_args(args)
        want = capsys.readouterr()
        built.clear()
        assert main(args) == (0 if "-h" in args or "--help" in args else 2)
        assert built == [list(_COMMANDS)]
        assert capsys.readouterr() == want

    @pytest.mark.parametrize("args", [
        ["example", "--name", "dim4", "extra"], ["realize"], ["charpoly", "--bogus"], ["reduce", "--tol", "x"],
        ["search-cert", "-h"],
    ])
    def test_a_subcommand_builds_only_its_parser(self, args, monkeypatch, capsys, built):
        # Its messages, the top-level usage of an unrecognized argument
        # included, are the full parser's.
        with contextlib.suppress(SystemExit):
            cli.build_parser(_COMMANDS).parse_args(args)
        want = capsys.readouterr()
        built.clear()
        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        assert main(args) == (0 if "-h" in args else 2)
        assert built == [[args[0]]]
        assert capsys.readouterr() == want

    def test_cli_leaves_numpy_polynomial_unimported(self):
        # No verdict reads the polynomial routines, so no CLI process
        # should pay for importing numpy.polynomial.
        code = "import sys, causalcurves.cli; print('numpy.polynomial' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


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
