"""Command-line interface: payloads, exit codes, batch mode, round-trips."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import child_env, random_orthogonal, reject_json_constant
from spdgeom import cli
from spdgeom.cli import main, read_matrix

X22 = [[2.0, 1.0], [1.0, 2.0]]
X33 = [[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]]


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def write_json(tmp_path, name, rows, with_header=True):
    path = tmp_path / name
    payload = {"n": len(rows), "data": rows} if with_header else rows
    path.write_text(json.dumps(payload))
    return str(path)


class TestBasicCommands:
    def test_dist_zero(self, capsys):
        code, rep = run_cli(capsys, "dist", "[[1,0],[0,1]]", "[[1,0],[0,1]]")
        assert code == 0
        assert rep["outputs"]["distance"] == pytest.approx(0.0, abs=1e-12)

    def test_dist_log3(self, capsys):
        code, rep = run_cli(capsys, "dist", "[[1,0],[0,1]]", json.dumps(X22))
        assert code == 0
        assert rep["outputs"]["distance"] == pytest.approx(math.log(3.0), abs=1e-6)

    def test_dist_from_files(self, capsys, tmp_path):
        a = write_json(tmp_path, "a.json", [[1.0, 0.0], [0.0, 1.0]])
        b = write_json(tmp_path, "b.json", X22, with_header=False)
        code, rep = run_cli(capsys, "dist", a, b)
        assert code == 0
        assert rep["outputs"]["distance"] == pytest.approx(math.log(3.0), abs=1e-9)
        assert rep["inputs"]["a"]["sha256"]

    def test_geodesic_midpoint(self, capsys):
        code, rep = run_cli(
            capsys, "geodesic", "[[1,0],[0,1]]", "[[4,0],[0,1]]", "--t", "0.5"
        )
        assert code == 0
        np.testing.assert_allclose(rep["outputs"]["point"], np.diag([2.0, 1.0]), atol=1e-9)

    def test_logm_expm_round_trip(self, capsys):
        code, rep = run_cli(capsys, "logm", json.dumps(X22))
        assert code == 0
        log_x = rep["outputs"]["log"]
        code, rep2 = run_cli(capsys, "expm", json.dumps(log_x))
        assert code == 0
        np.testing.assert_allclose(rep2["outputs"]["exp"], X22, atol=1e-9)

    def test_curvature_value(self, capsys):
        code, rep = run_cli(capsys, "curvature", "[[1,0],[0,-1]]", "[[0,1],[1,0]]")
        assert code == 0
        assert rep["outputs"]["sectional_curvature"] == pytest.approx(-2.0, abs=1e-10)

    def test_csv_input(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("2,1\n1,2\n")
        code, rep = run_cli(capsys, "logm", str(path))
        assert code == 0
        expected = (math.log(3.0) / 2.0) * np.ones((2, 2))
        np.testing.assert_allclose(rep["outputs"]["log"], expected, atol=1e-9)


class TestProjectionCommands:
    def test_project_golden(self, capsys):
        code, rep = run_cli(capsys, "project", json.dumps(X22), "diag")
        assert code == 0
        np.testing.assert_allclose(
            rep["outputs"]["pi"], math.sqrt(3.0) * np.eye(2), atol=1e-8
        )
        assert rep["diagnostics"]["residual"] <= 1e-11

    def test_project_fixed_point(self, capsys):
        code, rep = run_cli(capsys, "project", "[[4,0],[0,9]]", "diag")
        assert code == 0
        np.testing.assert_allclose(rep["outputs"]["pi"], np.diag([4.0, 9.0]), atol=1e-9)
        assert rep["diagnostics"]["iterations"] <= 1

    def test_mostow_golden(self, capsys):
        code, rep = run_cli(capsys, "mostow", json.dumps(X22), "diag")
        assert code == 0
        np.testing.assert_allclose(
            rep["outputs"]["e"], 3.0**0.25 * np.eye(2), atol=1e-7
        )
        np.testing.assert_allclose(
            rep["outputs"]["f"],
            np.asarray(X22) / math.sqrt(3.0),
            atol=1e-7,
        )
        assert rep["outputs"]["reconstruction_residual"] <= 1e-8

    def test_mostow_antiblock(self, capsys):
        code, rep = run_cli(capsys, "mostow", json.dumps(X22), "antiblock:1,1")
        assert code == 0
        a = 0.25 * math.log(3.0)
        expected_e = [[math.cosh(a), math.sinh(a)], [math.sinh(a), math.cosh(a)]]
        np.testing.assert_allclose(rep["outputs"]["e"], expected_e, atol=1e-8)
        np.testing.assert_allclose(
            rep["outputs"]["f"], math.sqrt(3.0) * np.eye(2), atol=1e-8
        )

    def test_gl_orthogonal(self, capsys):
        th = 0.6
        g = [[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]]
        code, rep = run_cli(capsys, "gl", json.dumps(g), "diag")
        assert code == 0
        np.testing.assert_allclose(rep["outputs"]["k"], g, atol=1e-9)
        np.testing.assert_allclose(rep["outputs"]["f"], np.eye(2), atol=1e-9)
        np.testing.assert_allclose(rep["outputs"]["e"], np.eye(2), atol=1e-9)
        assert rep["outputs"]["reconstruction_residual"] <= 1e-8

    def test_block_spec(self, capsys):
        code, rep = run_cli(
            capsys,
            "project",
            "[[2,1,0,0],[1,2,0,0],[0,0,3,1],[0,0,1,3]]",
            "block:2,2",
        )
        assert code == 0
        assert rep["diagnostics"]["iterations"] <= 1

    def test_lts_builtin(self, capsys):
        code, rep = run_cli(capsys, "lts", "diag", "--n", "3")
        assert code == 0
        assert rep["outputs"]["is_lts"] is True

    def test_lts_builtin_n_64(self, capsys):
        code, rep = run_cli(capsys, "lts", "diag", "--n", "64")
        assert code == 0
        assert rep["outputs"]["is_lts"] is True
        assert rep["outputs"]["max_residual"] == 0.0

    def test_lts_from_file_with_witness(self, capsys, tmp_path):
        payload = {
            "n": 2,
            "generators": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]]],
        }
        path = tmp_path / "sub.json"
        path.write_text(json.dumps(payload))
        code, rep = run_cli(capsys, "lts", f"file:{path}")
        assert code == 0
        assert rep["outputs"]["is_lts"] is False
        assert rep["outputs"]["witness"] is not None
        assert rep["outputs"]["witness"]["residual"] > 0.1

    def test_project_strict_rejects_non_lts_file(self, capsys, tmp_path):
        payload = {
            "n": 2,
            "generators": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]]],
        }
        path = tmp_path / "sub.json"
        path.write_text(json.dumps(payload))
        code, rep = run_cli(capsys, "project", json.dumps(X22), f"file:{path}")
        assert code == 3
        assert rep["error"]["type"] == "domain"
        assert rep["outputs"]["lts"]["is_lts"] is False

    def test_project_unchecked_runs_non_lts_file(self, capsys, tmp_path):
        payload = {
            "n": 2,
            "generators": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]]],
        }
        path = tmp_path / "sub.json"
        path.write_text(json.dumps(payload))
        code, rep = run_cli(
            capsys, "project", "[[2,0.5],[0.5,1]]", f"file:{path}", "--unchecked"
        )
        assert code == 0
        assert rep["diagnostics"]["residual"] <= 1e-11


class TestExitCodes:
    def test_parse_error_names_asymmetry(self, capsys):
        code, rep = run_cli(capsys, "dist", "[[1,2],[3,4]]", "[[1,0],[0,1]]")
        assert code == 2
        assert rep["error"]["type"] == "parse"
        assert "asymmetry" in rep["error"]["message"]

    def test_domain_error_on_indefinite(self, capsys):
        code, rep = run_cli(capsys, "logm", "[[1,2],[2,1]]")
        assert code == 3
        assert rep["error"]["type"] == "domain"

    def test_gl_factors_a_g_of_condition_1e5(self, capsys):
        # Through g^T g, of condition 1e10, this g once ended in exit 3.
        rng = np.random.default_rng(2105)
        sigma = np.logspace(0.0, 5.0, 4)
        g = (random_orthogonal(rng, 4) * sigma) @ random_orthogonal(rng, 4).T
        code, rep = run_cli(capsys, "gl", json.dumps(g.tolist()), "block:2,2")
        assert code == 0
        assert rep["outputs"]["reconstruction_residual"] <= 1e-12
        assert rep["diagnostics"]["residual"] <= 1e-11

    def test_non_convergence_report_carries_the_iteration_count(self, capsys):
        x = "[[4,1,0.5,0.2],[1,3,0.3,0.1],[0.5,0.3,2,0.4],[0.2,0.1,0.4,1.5]]"
        code, rep = run_cli(capsys, "project", x, "antiblock:2,2", "--max-iter", "1")
        assert code == 4
        assert rep["diagnostics"]["iterations"] == 1
        assert rep["diagnostics"]["residual"] > 1e-11

    def test_domain_error_on_singular_gl(self, capsys):
        code, rep = run_cli(capsys, "gl", "[[1,1],[1,1]]", "diag")
        assert code == 3

    @pytest.mark.filterwarnings("error")
    def test_zero_matrix_gl_is_singular_with_finite_message(self, capsys):
        code, rep = run_cli(capsys, "gl", "[[0]]", "diag")
        assert code == 3
        assert rep["error"]["type"] == "domain"
        assert "singular" in rep["error"]["message"]
        assert "nan" not in rep["error"]["message"]

    def test_out_of_memory_gives_domain_report(self, capsys):
        # The (n, n, n) diagonal basis asks numpy for 7 PiB, which it refuses
        # without allocating.
        code, rep = run_cli(capsys, "lts", "diag", "--n", "100000")
        assert code == 3
        assert rep["error"]["type"] == "domain"
        assert "memory" in rep["error"]["message"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["lts", "diag", "--n", "99999999999999999999"],
            ["lts", "antiblock:3,99999999999", "--n", "100000000002"],
        ],
    )
    def test_basis_beyond_numpy_gives_domain_report(self, capsys, argv):
        # numpy refuses these shapes with ValueError, not MemoryError.
        code = main(argv)
        rep = json.loads(capsys.readouterr().out, parse_constant=reject_json_constant)
        assert code == rep["exit_code"] == 3
        assert rep["error"]["type"] == "domain"
        assert "too large for memory" in rep["error"]["message"]

    def test_non_convergence_exit(self, capsys):
        code, rep = run_cli(
            capsys, "project", json.dumps(X33), "diag", "--max-iter", "1"
        )
        assert code == 4
        assert rep["error"]["type"] == "non-convergence"
        assert rep["diagnostics"]["residual"] > 0

    def test_missing_file(self, capsys):
        code, rep = run_cli(capsys, "logm", "/nonexistent/m.json")
        assert code == 2

    @pytest.mark.parametrize("declared", ["x", None, 1e400])
    def test_matrix_file_with_bad_declared_n(self, capsys, tmp_path, declared):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": declared, "data": [[1.0]]}))
        code, rep = run_cli(capsys, "logm", str(path))
        assert code == 2
        assert rep["error"]["type"] == "parse"

    def test_non_finite_option_from_argv(self, capsys):
        code = main(["geodesic", "[[2]]", "[[3]]", "--t", "1e400"])
        rep = json.loads(capsys.readouterr().out, parse_constant=reject_json_constant)
        assert code == 2
        assert rep["error"]["type"] == "parse"
        assert "t" not in rep["params"]

    def test_bad_subspace_spec(self, capsys):
        code, rep = run_cli(capsys, "project", json.dumps(X22), "spiral")
        assert code == 2

    def test_block_sizes_mismatch(self, capsys):
        code, rep = run_cli(capsys, "project", json.dumps(X22), "block:1,2")
        assert code == 3

    @pytest.mark.parametrize("command", ["dist", "geodesic", "curvature"])
    def test_matrix_dimensions_differ(self, capsys, command):
        code, rep = run_cli(capsys, command, json.dumps(X22), "[[1]]")
        assert code == 3
        assert rep["error"]["type"] == "domain"


BIG_INT = "9" * 400  # too large for a float
SUB = b'{"n": %s, "generators": [[[%s, 0], [0, 0]]]}'
# Payloads that used to end in a traceback: name -> (command, argument, the
# bytes of the file it names or None, part of the expected message).  "{dir}"
# stands for a fresh directory.
UNREADABLE = {
    "json-not-utf8": ("logm", "{dir}/m.json", b"[[2]]\xff", "cannot read"),
    "csv-not-utf8": ("logm", "{dir}/m.csv", b"2\xe9\n", "cannot read"),
    "subspace-not-utf8": (
        "lts", "file:{dir}/s.json", SUB % (b"2", b"1") + b"\xfe",
        "cannot read subspace file",
    ),
    "matrix-nul-path": ("logm", "a\x00b", None, "embedded null byte"),
    "subspace-nul-path": ("lts", "file:a\x00b", None, "embedded null byte"),
    "subspace-n-1e400": (
        "lts", "file:{dir}/n.json", SUB % (b"1e400", b"1"),
        "malformed subspace payload",
    ),
    "inline-400-digits": ("logm", f"[[{BIG_INT}]]", None, "not a numeric matrix"),
    "generator-400-digits": (
        "lts", "file:{dir}/g.json", SUB % (b"2", BIG_INT.encode()),
        "malformed subspace payload",
    ),
}


def unreadable_argv(tmp_path, name):
    command, argument, data, _ = UNREADABLE[name]
    argument = argument.replace("{dir}", str(tmp_path))
    if data is not None:
        Path(argument.removeprefix("file:")).write_bytes(data)
    return [command, argument]


class TestUnreadablePayloads:
    @pytest.mark.parametrize("name", UNREADABLE)
    def test_one_parse_report(self, capsys, tmp_path, name):
        code = main(unreadable_argv(tmp_path, name))
        rep = json.loads(capsys.readouterr().out)
        assert code == 2
        assert rep["exit_code"] == 2
        assert rep["error"]["type"] == "parse"
        assert UNREADABLE[name][-1] in rep["error"]["message"]

    def test_batch_entries_get_their_own_reports(self, capsys, tmp_path):
        good = {"command": "dist", "a": "[[1,0],[0,1]]", "b": json.dumps(X22)}
        bad = []
        for name in UNREADABLE:
            command, argument = unreadable_argv(tmp_path, name)
            key = "x" if command == "logm" else "subspace"
            bad.append({"command": command, key: argument})
        manifest = [good, *bad, good]
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(manifest))
        code = main(["batch", str(path)])
        reports = json.loads(capsys.readouterr().out)
        assert [r["exit_code"] for r in reports] == [0] + [2] * len(bad) + [0]
        assert [r["command"] for r in reports] == [e["command"] for e in manifest]
        assert reports[-1]["outputs"]["distance"] == pytest.approx(math.log(3.0))
        assert code == 2


class TestFarFromUnitScale:
    def test_dist_of_small_matrices(self, capsys):
        # The distance is invariant under x -> s x; the floor and the
        # symmetry check are relative, so 2^-200 * (x, y) is no exception.
        code, rep = run_cli(capsys, "dist", "[[1,0],[0,1]]", json.dumps(X22))
        assert code == 0
        small = [(2.0**-200 * np.array(m)).tolist() for m in (np.eye(2), X22)]
        code, rep_small = run_cli(capsys, "dist", *map(json.dumps, small))
        assert code == 0
        assert rep_small["outputs"]["distance"] == rep["outputs"]["distance"]

    def test_asymmetry_is_relative_to_the_norm(self, capsys):
        # Asymmetry 1e-11 against a norm of about 1.4e-3: 7e-9 of the norm,
        # past the 1e-9 rule, though below 1e-9 in absolute terms.
        code, rep = run_cli(capsys, "logm", "[[1e-3,1e-11],[0,1e-3]]")
        assert code == 2
        assert rep["error"]["type"] == "parse"
        assert "not symmetric" in rep["error"]["message"]

    @pytest.mark.parametrize(
        "x, y, expected",
        [
            ("[[1e80,1e80],[1e80,0]]", "[[1e80,0],[0,0]]", -1.0),
            ("[[1e80,0],[0,-1e80]]", "[[0,1e80],[1e80,0]]", -2.0),
        ],
        ids=["overflow", "orthogonal"],
    )
    def test_curvature_of_large_entries(self, capsys, tmp_path, x, y, expected):
        # The squared norms of these overflow; the curvature is that of the
        # same pair at unit scale.
        code, rep = run_cli(capsys, "curvature", x, y)
        assert code == 0
        assert rep["outputs"]["sectional_curvature"] == pytest.approx(expected)
        good = {"command": "dist", "a": "[[1,0],[0,1]]", "b": json.dumps(X22)}
        path = tmp_path / "batch.json"
        path.write_text(json.dumps([{"command": "curvature", "x": x, "y": y}, good]))
        code = main(["batch", str(path)])
        reports = json.loads(capsys.readouterr().out)
        assert code == 0 and [r["exit_code"] for r in reports] == [0, 0]
        assert reports[0]["outputs"]["sectional_curvature"] == pytest.approx(expected)
        assert reports[1]["outputs"]["distance"] == pytest.approx(math.log(3.0))

    def test_singular_matrix_of_large_entries_is_refused(self, capsys):
        code, rep = run_cli(capsys, "logm", "[[1e160,1e160],[1e160,1e160]]")
        assert code == 3
        assert "not positive definite" in rep["error"]["message"]

    def test_generator_of_large_entries(self, capsys, tmp_path):
        path = tmp_path / "sub.json"
        path.write_text('{"n": 2, "generators": [[[1e200, 0], [0, 0]]]}')
        code, rep = run_cli(capsys, "lts", f"file:{path}")
        assert code == 0
        assert rep["inputs"]["dim"] == 1
        assert rep["outputs"]["is_lts"]


    def test_generator_whose_norm_overflows(self, capsys, tmp_path):
        # Its norm is beyond the floats; the parse once ended in a traceback.
        path = tmp_path / "sub.json"
        path.write_text('{"n": 2, "generators": [[[1.7e308, 1.7e308], [1.7e308, 0]]]}')
        code, rep = run_cli(capsys, "lts", f"file:{path}")
        assert code == 3
        assert rep["error"]["message"] == "build_subspace overflows"

    def test_geodesic_that_overflows(self, capsys):
        # Finite operands whose geodesic point leaves the floats: one report,
        # one stderr line, no numpy warning.
        a, b = "[[1e200,0],[0,1e200]]", "[[1e200,0],[0,2e200]]"
        code = main(["geodesic", a, b, "--t", "1000"])
        captured = capsys.readouterr()
        assert code == 3
        assert json.loads(captured.out)["error"]["message"] == "geodesic overflows"
        assert captured.err == "spd: geodesic overflows\n"


class TestWarningsAndEnv:
    def test_small_asymmetry_symmetrized_with_warning(self, capsys):
        rows = [[1.0, 1e-12], [0.0, 1.0]]
        code, rep = run_cli(capsys, "logm", json.dumps(rows))
        assert code == 0
        assert any("symmetrized" in w for w in rep["diagnostics"]["warnings"])

    def test_spd_tol_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("SPD_TOL", "0.5")
        code, rep = run_cli(capsys, "project", json.dumps(X33), "diag")
        assert code == 0
        assert 1e-11 < rep["diagnostics"]["residual"] <= 0.5

    def test_cli_tol_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SPD_TOL", "0.5")
        code, rep = run_cli(
            capsys, "project", json.dumps(X33), "diag", "--tol", "1e-10"
        )
        assert code == 0
        assert rep["diagnostics"]["residual"] <= 1e-10


class TestRoundTrip:
    def test_emitted_matrices_reparse_bit_identical(self, capsys, tmp_path):
        code, rep = run_cli(capsys, "mostow", json.dumps(X22), "diag")
        assert code == 0
        for key in ("e", "f", "pi"):
            rows = rep["outputs"][key]
            path = tmp_path / f"{key}.json"
            path.write_text(json.dumps({"n": len(rows), "data": rows}))
            back, _ = read_matrix(str(path))
            assert back.tolist() == rows

    def test_seventeen_digit_fidelity(self, capsys, tmp_path):
        value = 1.0 / 3.0 + 1e-16
        rows = [[2.0, value], [value, 2.0]]
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": 2, "data": rows}))
        back, _ = read_matrix(str(path))
        assert back[0, 1] == rows[0][1]


class TestBatch:
    def test_entries_in_order_with_inline_errors(self, capsys, tmp_path):
        manifest = [
            {"command": "dist", "a": "[[1,0],[0,1]]", "b": json.dumps(X22)},
            {"command": "logm", "x": "[[1,2],[2,1]]"},
            {"command": "unknown-op"},
            {"command": "curvature", "x": "[[1,0],[0,-1]]", "y": "[[0,1],[1,0]]"},
        ]
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(manifest))
        code = main(["batch", str(path)])
        out = capsys.readouterr().out
        reports = json.loads(out)
        assert isinstance(reports, list) and len(reports) == 4
        assert reports[0]["command"] == "dist"
        assert reports[0]["exit_code"] == 0
        assert reports[1]["exit_code"] == 3
        assert reports[2]["exit_code"] == 2
        assert reports[3]["exit_code"] == 0
        assert reports[3]["outputs"]["sectional_curvature"] == pytest.approx(-2.0)
        # Aggregated exit code is the first non-zero entry code.
        assert code == 3

    def test_option_outside_its_choices(self, capsys, tmp_path):
        # An entry's --format is held to json and csv, as on the command
        # line; the entry gets a parse report and the others still run.
        csv = tmp_path / "a.csv"
        csv.write_text("2,1\n1,2\n")
        a_json = write_json(tmp_path, "a.json", X22)
        manifest = [
            {"command": "logm", "x": a_json, "format": "xml"},
            {"command": "logm", "x": str(csv), "format": "xml"},
            {"command": "logm", "x": str(csv)},
        ]
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(manifest))
        code = main(["batch", str(path)])
        reports = json.loads(capsys.readouterr().out)
        assert code == 2
        assert [r["exit_code"] for r in reports] == [2, 2, 0]
        for rep in reports[:2]:
            assert rep["error"]["type"] == "parse"
            assert "option 'format'" in rep["error"]["message"]
            assert "'xml' is not one of json, csv" in rep["error"]["message"]

    def test_all_green_batch(self, capsys, tmp_path):
        manifest = [
            {"command": "dist", "a": "[[1,0],[0,1]]", "b": "[[1,0],[0,1]]"},
            {"command": "project", "x": json.dumps(X22), "subspace": "diag"},
        ]
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(manifest))
        code = main(["batch", str(path)])
        reports = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [r["exit_code"] for r in reports] == [0, 0]

    def test_out_of_memory_entry_between_good_ones(self, capsys, tmp_path):
        good = {"command": "dist", "a": "[[1,0],[0,1]]", "b": json.dumps(X22)}
        huge = {"command": "lts", "subspace": "diag", "n": 100000}
        path = tmp_path / "batch.json"
        path.write_text(json.dumps([good, huge, good]))
        code = main(["batch", str(path)])
        reports = json.loads(capsys.readouterr().out)
        assert [r["exit_code"] for r in reports] == [0, 3, 0]
        assert reports[1]["error"]["type"] == "domain"
        assert reports[2]["outputs"]["distance"] == pytest.approx(math.log(3.0), abs=1e-9)
        assert code == 3

    def test_basis_beyond_numpy_entry_beside_good_one(self, capsys, tmp_path):
        huge = {"command": "lts", "subspace": "diag", "n": 99999999999999999999}
        good = {"command": "dist", "a": "[[1,0],[0,1]]", "b": json.dumps(X22)}
        path = tmp_path / "batch.json"
        path.write_text(json.dumps([huge, good]))
        code = main(["batch", str(path)])
        reports = json.loads(capsys.readouterr().out, parse_constant=reject_json_constant)
        assert [r["exit_code"] for r in reports] == [3, 0]
        assert reports[0]["error"]["type"] == "domain"
        assert reports[1]["outputs"]["distance"] == pytest.approx(math.log(3.0), abs=1e-9)
        assert code == 3

    def test_malformed_manifest(self, capsys, tmp_path):
        path = tmp_path / "batch.json"
        path.write_text('{"not": "a list"}')
        code = main(["batch", str(path)])
        assert code == 2
        rep = json.loads(capsys.readouterr().out)
        assert rep["command"] == "batch"
        assert rep["exit_code"] == 2
        assert rep["error"]["type"] == "parse"

    @pytest.mark.parametrize(
        "entry",
        [
            {"command": "dist", "a": "[[1]]"},
            {"command": "geodesic", "a": "[[1]]", "b": "[[2]]", "t": "abc"},
            {"command": "project", "x": json.dumps(X22), "subspace": "diag", "max_iter": "x"},
            {"command": "lts", "subspace": "diag", "n": "x"},
            {"command": "logm", "x": 5},
        ],
    )
    def test_bad_entry_gets_its_own_parse_report(self, capsys, tmp_path, entry):
        good = {"command": "dist", "a": "[[1,0],[0,1]]", "b": json.dumps(X22)}
        path = tmp_path / "batch.json"
        path.write_text(json.dumps([good, entry, good]))
        code = main(["batch", str(path)])
        reports = json.loads(capsys.readouterr().out)
        assert [r["exit_code"] for r in reports] == [0, 2, 0]
        assert reports[1]["command"] == entry["command"]
        assert reports[1]["error"]["type"] == "parse"
        assert reports[2]["outputs"]["distance"] == pytest.approx(math.log(3.0), abs=1e-9)
        assert code == 2

    def test_non_finite_values_get_their_own_parse_report(self, capsys, tmp_path):
        good = '{"command": "dist", "a": "[[1,0],[0,1]]", "b": "[[2,1],[1,2]]"}'
        bad = [
            '{"command": "geodesic", "a": "[[2]]", "b": "[[3]]", "t": 1e400}',
            '{"command": "geodesic", "a": "[[2]]", "b": "[[3]]", "t": NaN}',
            '{"command": "dist", "a": "[[2]]", "b": "[[3]]", "note": [1, -Infinity]}',
            '{"command": "geodesic", "a": "[[2]]", "b": "[[3]]", "t": "inf"}',
            # Strings that convert to a non-finite option: without the check
            # the reports would echo t = -Infinity and tol = Infinity.
            '{"command": "geodesic", "a": "[[2]]", "b": "[[3]]", "t": "-inf"}',
            '{"command": "lts", "subspace": "diag", "n": 2, "tol": "inf"}',
            '{"command": Infinity}',
        ]
        path = tmp_path / "batch.json"
        path.write_text("[" + ", ".join([good, *bad, good]) + "]")
        code = main(["batch", str(path)])
        reports = json.loads(capsys.readouterr().out, parse_constant=reject_json_constant)
        assert [r["exit_code"] for r in reports] == [0] + [2] * len(bad) + [0]
        assert [r["command"] for r in reports[1:7]] == [
            "geodesic", "geodesic", "dist", "geodesic", "geodesic", "lts"
        ]
        assert reports[4]["params"]["t"] == "inf"
        assert reports[-1]["outputs"]["distance"] == pytest.approx(math.log(3.0), abs=1e-9)
        assert code == 2

    def test_option_values_convert_as_the_seed_runners_did(self, capsys, tmp_path):
        # A false value (0, "", null) for tol or max_iter means the default;
        # the string "0" is a zero, which the solver rejects.  Input errors
        # are reported before option errors, and lts ignores n for file specs.
        sub = tmp_path / "sub.json"
        sub.write_text(json.dumps({"n": 2, "generators": [[[1.0, 0.0], [0.0, 0.0]]]}))
        x = json.dumps(X22)
        manifest = [
            {"command": "project", "x": x, "subspace": "diag", "tol": 0, "max_iter": ""},
            {"command": "project", "x": x, "subspace": "diag", "tol": "0"},
            {"command": "project", "x": x, "subspace": "diag", "max_iter": "0"},
            {"command": "project", "x": x, "subspace": "block:1,2", "max_iter": "x"},
            {"command": "lts", "subspace": "block:1,1", "n": 3, "tol": "x"},
            {"command": "lts", "subspace": f"file:{sub}", "n": "x"},
        ]
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(manifest))
        main(["batch", str(path)])
        reports = json.loads(capsys.readouterr().out)
        assert [r["exit_code"] for r in reports] == [0, 3, 3, 3, 3, 0]


    def test_options_convert_by_kind(self, capsys, tmp_path):
        # A flag takes a JSON boolean, a count an integral number or an integer
        # string, and no other option a boolean; each entry that breaks this
        # gets its own exit-2 report.  The file subspace is the zero-diagonal
        # one, which is not closed under nested brackets.
        sub = tmp_path / "zero_diag.json"
        pairs = [(0, 1), (0, 2), (1, 2)]
        gens = [np.eye(3)[[i, j]].T @ np.eye(3)[[j, i]] for i, j in pairs]
        sub.write_text(json.dumps({"n": 3, "generators": [g.tolist() for g in gens]}))
        x, spec = json.dumps(X33), f"file:{sub}"
        manifest = [
            {"command": "project", "x": x, "subspace": spec, "unchecked": "false"},
            {"command": "project", "x": x, "subspace": spec, "unchecked": "no"},
            {"command": "project", "x": x, "subspace": spec, "unchecked": 1},
            {"command": "project", "x": x, "subspace": "diag", "max_iter": 2.5},
            {"command": "project", "x": x, "subspace": "diag", "max_iter": True},
            {"command": "project", "x": x, "subspace": "diag", "tol": True},
            {"command": "lts", "subspace": "diag", "n": 2.9},
            {"command": "lts", "subspace": "diag", "n": "2.0"},
            {"command": "project", "x": x, "subspace": spec, "unchecked": True},
            {"command": "project", "x": x, "subspace": spec, "unchecked": False},
            {"command": "project", "x": x, "subspace": "diag", "max_iter": 7.0},
            {"command": "project", "x": x, "subspace": "diag", "max_iter": "7",
             "tol": "1e-9"},
            {"command": "lts", "subspace": "diag", "n": "3"},
        ]
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(manifest))
        main(["batch", str(path)])
        reports = json.loads(capsys.readouterr().out)
        assert [r["exit_code"] for r in reports] == [2] * 8 + [0, 3, 0, 0, 0]
        assert "unchecked" in reports[0]["error"]["message"]
        assert reports[-1]["inputs"]["n"] == 3


class TestSolverLookup:
    def test_solvers_are_called_through_module_names(self, capsys, monkeypatch):
        # Tracers rebind the module-level names; the command table must not
        # hold on to the functions it was built with.
        calls = []
        for name in ("geodesic_project", "mostow_spd", "mostow_gl"):
            original = getattr(cli, name)

            def spy(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(cli, name, spy)
        for command in ("project", "mostow", "gl"):
            code, _ = run_cli(capsys, command, json.dumps(X22), "diag")
            assert code == 0
        assert calls == ["geodesic_project", "mostow_spd", "mostow_gl"]


class TestUsageErrors:
    def test_usage_error_writes_a_parse_report(self, capsys):
        code, rep = run_cli(capsys, "dist", "[[1]]")
        assert code == 2
        assert rep["exit_code"] == 2
        assert rep["error"]["type"] == "parse"
        assert "required" in rep["error"]["message"]

    def test_help_still_prints_help(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["project", "--help"])
        assert info.value.code == 0
        assert "--max-iter" in capsys.readouterr().out


class TestSubprocessEntry:
    def test_installed_module_invocation(self):
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys; from spdgeom.cli import main; sys.exit(main(sys.argv[1:]))",
                "dist",
                "[[1,0],[0,1]]",
                json.dumps(X22),
            ],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        rep = json.loads(proc.stdout)
        assert rep["outputs"]["distance"] == pytest.approx(math.log(3.0), abs=1e-9)

    def test_stderr_carries_human_message_on_error(self):
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys; from spdgeom.cli import main; sys.exit(main(sys.argv[1:]))",
                "logm",
                "[[1,2],[2,1]]",
            ],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 3
        assert "spd:" in proc.stderr

    @pytest.mark.parametrize(
        "manifest, args, message",
        [
            # Past the JSON parser's recursion limit: the whole manifest, or
            # an inline matrix.
            pytest.param("[" * 100000, ["batch", None], "recursion depth",
                         id="manifest"),
            pytest.param("", ["logm", "[" * 5000 + "]" * 5000], "inline matrix",
                         id="inline"),
            # Parsed, but nested too deeply to check or echo in a report.
            pytest.param(
                '[{"command": "dist", "a": %s, "b": "[[1]]"}]'
                % ("[" * 990 + "]" * 990),
                ["batch", None],
                "nesting deeper than",
                id="entry",
            ),
        ],
    )
    def test_deeply_nested_json_is_one_parse_report(
        self, tmp_path, manifest, args, message
    ):
        # A fresh process, as from the shell, so the stack starts shallow; None
        # stands for the manifest's path.
        path = tmp_path / "batch.json"
        path.write_text(manifest)
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys; from spdgeom.cli import main; sys.exit(main(sys.argv[1:]))",
                *(str(path) if arg is None else arg for arg in args),
            ],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        out = json.loads(proc.stdout)
        reports = out if isinstance(out, list) else [out]
        assert len(reports) == 1
        assert reports[0]["exit_code"] == 2
        assert reports[0]["error"]["type"] == "parse"
        assert message in reports[0]["error"]["message"]
