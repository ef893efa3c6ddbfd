import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from mpcorr.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def nan_matrix_file(tmp_path):
    mat = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
    mat[0][0][0] = float("nan")
    return write_json(tmp_path / "nan.json", {"dims": [2, 2], "matrix": mat})


def singlet_file(tmp_path):
    return write_json(tmp_path / "psi-.json", {
        "dims": [2, 2],
        "pure": [[0, 0], [1 / math.sqrt(2), 0], [-1 / math.sqrt(2), 0], [0, 0]],
    })


class TestDecompose:
    def test_singlet_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, _, _ = run_cli(["decompose", "--input", singlet_file(tmp_path),
                              "--output", str(out)], capsys)
        assert code == 0
        report = json.loads(out.read_text())
        assert report["dims"] == [2, 2]
        c = np.array(report["pair_correlations"]["0-1"])
        assert np.abs(c + np.eye(3)).max() < 1e-12
        assert report["triple_correlations"] is None

    def test_malformed_json_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code, _, err = run_cli(["decompose", "--input", str(bad)], capsys)
        assert code == 1
        assert err

    def test_missing_file_exit_1(self, capsys):
        code, _, _ = run_cli(["decompose", "--input", "/nonexistent.json"], capsys)
        assert code == 1

    def test_non_psd_exit_2_with_residual(self, tmp_path, capsys):
        path = write_json(tmp_path / "bad.json", {
            "dims": [2],
            "matrix": [[[1.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]],
        })
        code, _, err = run_cli(["decompose", "--input", path], capsys)
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "NotPSD"
        assert payload["residual"] == pytest.approx(0.5, abs=1e-12)

    def test_single_party_exit_3(self, tmp_path, capsys):
        path = write_json(tmp_path / "one.json", {
            "dims": [2], "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]})
        code, _, _ = run_cli(["decompose", "--input", path], capsys)
        assert code == 3

    def test_family_spec_accepted_as_input(self, tmp_path, capsys):
        path = write_json(tmp_path / "fam.json",
                          {"family": "bell", "params": {"which": "psi-"}})
        code, out, _ = run_cli(["decompose", "--input", path], capsys)
        assert code == 0
        c = np.array(json.loads(out)["pair_correlations"]["0-1"])
        assert np.abs(c + np.eye(3)).max() < 1e-12


class TestMeasure:
    def test_rashid_at_zero(self, tmp_path, capsys):
        path = write_json(tmp_path / "fam.json",
                          {"family": "rashid", "params": {"theta": 0.0}})
        code, out, _ = run_cli(["measure", "--input", path], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["e_c"] == pytest.approx(1.0, abs=1e-12)
        assert report["concurrence"] == pytest.approx(1.0, abs=1e-12)
        assert report["entropy_bits"] == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self, tmp_path, capsys):
        eye = np.eye(4) / 4
        path = write_json(tmp_path / "mm.json", {
            "dims": [2, 2],
            "matrix": [[[float(v.real), 0.0] for v in row] for row in eye],
        })
        code, out, _ = run_cli(["measure", "--input", path], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["e_c"] == pytest.approx(0.0, abs=1e-13)
        assert "concurrence" not in report and "entropy_bits" not in report

    def test_three_qutrit_ghz(self, tmp_path, capsys):
        path = write_json(tmp_path / "ghz.json",
                          {"family": "ghz", "params": {"parties": 3, "level": 3}})
        code, out, _ = run_cli(["measure", "--input", path], capsys)
        assert code == 0
        assert json.loads(out)["e_d"] == pytest.approx(1.0, abs=1e-10)

    def test_nan_matrix_exit_1(self, tmp_path, capsys):
        code, out, err = run_cli(["measure", "--input", nan_matrix_file(tmp_path)], capsys)
        assert code == 1
        assert "NaN" not in out and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_unsupported_structure_exit_3(self, tmp_path, capsys):
        mat = np.eye(12) / 12
        path = write_json(tmp_path / "odd.json", {
            "dims": [2, 2, 3],
            "matrix": [[[float(v.real), 0.0] for v in row] for row in mat],
        })
        code, _, _ = run_cli(["measure", "--input", path], capsys)
        assert code == 3


class TestClassify:
    def test_werner_mixed_entangled(self, tmp_path, capsys):
        path = write_json(tmp_path / "w.json",
                          {"family": "generalized-werner", "params": {"p": 0.9, "theta": 0.0}})
        code, out, _ = run_cli(["classify", "--input", path], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["category"] == "MixedEntangled"
        assert report["nsv_count"] == 3
        assert report["ph_entangled"] is True

    def test_pure_product(self, tmp_path, capsys):
        path = write_json(tmp_path / "p.json", {
            "dims": [2, 2], "pure": [[1, 0], [0, 0], [0, 0], [0, 0]]})
        code, out, _ = run_cli(["classify", "--input", path], capsys)
        assert code == 0
        assert json.loads(out)["category"] == "PureProduct"

    def test_nan_matrix_exit_1(self, tmp_path, capsys):
        # used to die in the SVD with LinAlgError
        code, out, err = run_cli(["classify", "--input", nan_matrix_file(tmp_path)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_qutrit_pair_exit_3(self, tmp_path, capsys):
        mat = np.eye(9) / 9
        path = write_json(tmp_path / "q.json", {
            "dims": [3, 3],
            "matrix": [[[float(v.real), 0.0] for v in row] for row in mat],
        })
        code, _, err = run_cli(["classify", "--input", path], capsys)
        assert code == 3
        assert "[2, 2]" in err


class TestFamily:
    def test_bell_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "bell.json"
        code, _, _ = run_cli(["family", "--family", "bell", "--set", "which=psi-",
                              "--output", str(out)], capsys)
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["dims"] == [2, 2]
        code2, out2, _ = run_cli(["classify", "--input", str(out)], capsys)
        assert code2 == 0
        assert json.loads(out2)["category"] == "PureEntangled"

    def test_werner_decomposition_closed_form(self, tmp_path, capsys):
        out = tmp_path / "gw.json"
        code, _, _ = run_cli(["family", "--family", "generalized-werner",
                              "--set", "p=0.5", "--set", "theta=0.3",
                              "--output", str(out)], capsys)
        assert code == 0
        code2, rep, _ = run_cli(["decompose", "--input", str(out)], capsys)
        assert code2 == 0
        c = np.array(json.loads(rep)["pair_correlations"]["0-1"])
        s = 1 / math.cosh(0.6)
        want = -0.5 * np.diag([s, s, 1 - 0.5 + 0.5 * s * s])
        assert np.abs(c - want).max() < 1e-12

    def test_unknown_parameter_exit_4(self, capsys):
        code, _, _ = run_cli(["family", "--family", "rashid", "--set", "beta=1"], capsys)
        assert code == 4

    def test_cc_mixture_with_json_terms(self, tmp_path, capsys):
        out = tmp_path / "cc.json"
        terms = "[[0.5,[0,0,1],[0,0,-1]],[0.5,[0,0,-1],[0,0,1]]]"
        code, _, _ = run_cli(["family", "--family", "cc-mixture",
                              "--set", f"terms={terms}", "--output", str(out)], capsys)
        assert code == 0
        code2, rep, _ = run_cli(["classify", "--input", str(out)], capsys)
        assert json.loads(rep)["category"] == "ClassicallyCorrelated"


class TestSweep:
    def test_rashid_triple_curve(self, tmp_path, capsys):
        out = tmp_path / "fig2.csv"
        code, _, _ = run_cli(["sweep", "--family", "rashid",
                              "--param", "theta=-2:2:81",
                              "--outputs", "ec,concurrence,entropy",
                              "--output", str(out)], capsys)
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "theta,ec,concurrence,entropy"
        assert len(lines) == 82
        middle = lines[1 + 40].split(",")
        assert float(middle[0]) == pytest.approx(0.0, abs=1e-12)
        assert all(float(x) == pytest.approx(1.0, abs=1e-10) for x in middle[1:])
        assert "nan" not in out.read_text()

    def test_byte_identical_reruns_and_thread_counts(self, tmp_path, capsys):
        args = ["sweep", "--family", "generalized-werner",
                "--param", "p=0:1:11", "--param", "theta=-1:1:9",
                "--outputs", "ec,ph"]
        outputs = []
        for threads in (None, "1", "4"):
            out = tmp_path / f"t{threads}.csv"
            if threads is None:
                os.environ.pop("MPCORR_THREADS", None)
            else:
                os.environ["MPCORR_THREADS"] = threads
            try:
                code, _, _ = run_cli(args + ["--output", str(out)], capsys)
            finally:
                os.environ.pop("MPCORR_THREADS", None)
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_werner_ph_boundary(self, tmp_path, capsys):
        out = tmp_path / "fig3.csv"
        code, _, _ = run_cli(["sweep", "--family", "generalized-werner",
                              "--param", "theta=0:1:3", "--param", "p=0:1:51",
                              "--outputs", "ph", "--output", str(out)], capsys)
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        for theta in (0.0, 0.5, 1.0):
            col = [(float(p), int(flag)) for t, p, flag in rows if float(t) == theta]
            pstar = 1 / (1 + 2 / math.cosh(2 * theta))
            for p, flag in col:
                if p < pstar - 0.02:
                    assert flag == 0
                if p > pstar + 0.02:
                    assert flag == 1

    def test_tripartite_surface_max_at_origin(self, tmp_path, capsys):
        out = tmp_path / "fig4.csv"
        code, _, _ = run_cli(["sweep", "--family", "tripartite-qutrit-e3",
                              "--param", "theta1=-2:2:9", "--param", "theta2=-2:2:9",
                              "--outputs", "ec,ed", "--output", str(out)], capsys)
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 81
        best = max(rows, key=lambda r: float(r[3]))
        assert float(best[0]) == pytest.approx(0.0, abs=1e-12)
        assert float(best[1]) == pytest.approx(0.0, abs=1e-12)
        assert float(best[3]) == pytest.approx(1.0, abs=1e-9)

    def test_row_major_declared_order(self, tmp_path, capsys):
        out = tmp_path / "order.csv"
        code, _, _ = run_cli(["sweep", "--family", "generalized-werner",
                              "--param", "p=0.2:0.4:2", "--param", "theta=0.5:1.5:3",
                              "--outputs", "ec", "--output", str(out)], capsys)
        assert code == 0
        rows = [line.split(",")[:2] for line in out.read_text().splitlines()[1:]]
        ps = [float(r[0]) for r in rows]
        thetas = [float(r[1]) for r in rows]
        assert ps == [0.2, 0.2, 0.2, 0.4, 0.4, 0.4]
        assert thetas == [0.5, 1.0, 1.5, 0.5, 1.0, 1.5]

    def test_unknown_family_exit_4(self, capsys):
        code, _, _ = run_cli(["sweep", "--family", "nope", "--param", "x=0:1:2",
                              "--outputs", "ec"], capsys)
        assert code == 4

    def test_unknown_param_exit_4(self, capsys):
        code, _, _ = run_cli(["sweep", "--family", "rashid", "--param", "beta=0:1:2",
                              "--outputs", "ec"], capsys)
        assert code == 4

    @pytest.mark.parametrize("grid", ["theta=nan:1:3", "theta=0:inf:3", "theta=-inf:0:1"])
    def test_non_finite_grid_exit_4(self, grid, capsys):
        code, out, err = run_cli(["sweep", "--family", "rashid", "--param", grid,
                                  "--outputs", "ec"], capsys)
        assert code == 4
        assert out == ""
        assert "finite" in err

    def test_unknown_output_exit_4(self, capsys):
        code, _, _ = run_cli(["sweep", "--family", "rashid", "--param", "theta=0:1:2",
                              "--outputs", "negativity"], capsys)
        assert code == 4

    def test_structurally_invalid_output_exit_4(self, capsys):
        # concurrence of a mixed family is rejected before writing anything
        code, _, err = run_cli(["sweep", "--family", "generalized-werner",
                                "--param", "p=0.5:0.5:1", "--param", "theta=0:0:1",
                                "--outputs", "concurrence"], capsys)
        assert code == 4
        assert "pure" in err

    def test_xi_nanb_outputs(self, tmp_path, capsys):
        out = tmp_path / "xi.csv"
        code, _, _ = run_cli(["sweep", "--family", "generalized-werner",
                              "--param", "p=0.5:0.5:1", "--param", "theta=0.2:1:5",
                              "--outputs", "xi,nanb", "--output", str(out)], capsys)
        assert code == 0
        for line in out.read_text().splitlines()[1:]:
            p, theta, xi, nanb = (float(x) for x in line.split(","))
            assert xi == pytest.approx(-2 * 0.5 / math.cosh(2 * theta), abs=1e-12)
            assert nanb == pytest.approx(-(0.5 * math.tanh(2 * theta)) ** 2, abs=1e-12)


@pytest.mark.parametrize("command", ["decompose", "measure", "classify"])
@pytest.mark.parametrize("spec", [
    {"family": "bell", "params": {"which": 3}},
    {"family": "bell"},
    {"family": "bell", "params": [1]},
    {"family": "rashid", "params": {"theta": 1000}},
], ids=["non-string-which", "missing-params", "list-params", "overflowing-theta"])
def test_bad_family_spec_exit_1(spec, command, tmp_path, capsys):
    path = write_json(tmp_path / "spec.json", spec)
    code, out, err = run_cli([command, "--input", path], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_console_script_entry_point(tmp_path):
    out = tmp_path / "s.json"
    result = subprocess.run(
        [sys.executable, "-m", "mpcorr.cli", "family", "--family", "bell",
         "--set", "which=phi+", "--output", str(out)],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert json.loads(out.read_text())["dims"] == [2, 2]
