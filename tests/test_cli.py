import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_density_mat

from mpcorr import families
from mpcorr.bloch import decompose, decompose_stack
from mpcorr.classify import DegenerateBlochVectorsError, correlation_spectrum, ph_invariants, ph_test
from mpcorr.cli import OUTPUTS, main
from mpcorr.density import DensityMatrix, mix
from mpcorr.measures import concurrence_pure, e_c_bipartite, e_c_multipartite, e_d, entanglement_entropy


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


def test_repeated_main_calls_share_no_arguments(tmp_path, capsys):
    # The parser is built once per process; list-valued and defaulted
    # arguments must still start afresh on every call.
    code, out, _ = run_cli(["sweep", "--family", "generalized-werner", "--param", "p=0.5:0.5:1",
                            "--param", "theta=0:1:2", "--outputs", "ec"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "p,theta,ec" and len(out.splitlines()) == 3
    code, out, _ = run_cli(["sweep", "--family", "rashid", "--param", "theta=0:0:1",
                            "--outputs", "ec"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "theta,ec" and len(out.splitlines()) == 2
    code, out, _ = run_cli(["family", "--family", "bell", "--set", "which=psi-"], capsys)
    assert code == 0
    code, out, _ = run_cli(["family", "--family", "ghz"], capsys)
    assert code == 0
    assert json.loads(out)["dims"] == [2, 2, 2]


@pytest.mark.parametrize("amplitude", [[1e308, 0], [1.5e308, 1.5e308]])
def test_pure_amplitudes_near_overflow(amplitude, tmp_path, capsys):
    # |+>|0> with huge amplitudes: their moduli and norm overflow unless rescaled first
    huge = write_json(tmp_path / "huge.json", {"dims": [2, 2], "pure": [amplitude, amplitude, [0, 0], [0, 0]]})
    unit = write_json(tmp_path / "unit.json", {"dims": [2, 2], "pure": [[1, 0], [1, 0], [0, 0], [0, 0]]})
    code, out, err = run_cli(["measure", "--input", huge], capsys)
    assert code == 0 and err == ""
    code2, out2, _ = run_cli(["measure", "--input", unit], capsys)
    assert code2 == 0
    got, want = json.loads(out), json.loads(out2)
    assert got.keys() == want.keys() == {"e_c", "concurrence", "entropy_bits"}
    assert got["e_c"] == pytest.approx(want["e_c"], abs=1e-15)
    assert got["entropy_bits"] == pytest.approx(want["entropy_bits"], abs=1e-14)
    # at a product state the square root turns roundoff of 1e-16 into about 1e-8
    assert got["concurrence"] ** 2 == pytest.approx(want["concurrence"] ** 2, abs=1e-15)


class TestNonIntegralParameters:
    def test_family_exit_4(self, capsys):
        code, out, err = run_cli(["family", "--family", "ghz", "--set", "parties=3.5",
                                  "--set", "level=2"], capsys)
        assert code == 4
        assert out == "" and "whole number" in err

    def test_sweep_exit_4(self, tmp_path, capsys):
        out = tmp_path / "ghz.csv"
        code, _, err = run_cli(["sweep", "--family", "ghz", "--param", "parties=3:3.5:2",
                                "--param", "level=2:2:1", "--outputs", "ec", "--output", str(out)], capsys)
        assert code == 4
        assert "whole number" in err
        assert not out.exists()

    def test_state_file_exit_1(self, tmp_path, capsys):
        path = write_json(tmp_path / "spec.json", {"family": "ghz", "params": {"parties": 3, "level": 2.5}})
        code, out, err = run_cli(["measure", "--input", path], capsys)
        assert code == 1
        assert out == "" and err.startswith("error:") and err.count("\n") == 1


class TestBatchedSweep:
    WERNER = ["--family", "generalized-werner", "--outputs", "ec,nsv,ph,xi,nanb"]

    def test_grid_splits_are_byte_identical(self, tmp_path, capsys, monkeypatch):
        import mpcorr.cli as cli
        whole = []
        for chunk in (1, 7, cli.SWEEP_CHUNK):
            monkeypatch.setattr(cli, "SWEEP_CHUNK", chunk)
            out = tmp_path / f"chunk{chunk}.csv"
            code, _, _ = run_cli(["sweep", *self.WERNER, "--param", "p=0:1:11",
                                  "--param", "theta=-2:2:13", "--output", str(out)], capsys)
            assert code == 0
            whole.append(out.read_bytes())
        assert whole[0] == whole[1] == whole[2]
        monkeypatch.undo()
        rows = [whole[0].split(b"\n", 1)[0] + b"\n"]
        for i, p in enumerate(np.linspace(0, 1, 11).tolist()):
            out = tmp_path / f"row{i}.csv"
            code, _, _ = run_cli(["sweep", *self.WERNER, "--param", f"p={p!r}:{p!r}:1",
                                  "--param", "theta=-2:2:13", "--output", str(out)], capsys)
            assert code == 0
            rows.append(out.read_bytes().split(b"\n", 1)[1])
        assert b"".join(rows) == whole[0]

    @pytest.mark.parametrize("family,grid", [
        ("rashid", ["theta=0:1000:3"]),
        ("generalized-werner", ["p=0:1.5:4", "theta=0:0:1"]),
        ("tripartite-qutrit-e3", ["theta1=0:800:2", "theta2=0:0:1"]),
    ], ids=["rashid-overflow", "werner-p-above-1", "qutrit-overflow"])
    def test_bad_points_exit_4_without_output(self, family, grid, tmp_path, capsys):
        out = tmp_path / "bad.csv"
        params = [arg for spec in grid for arg in ("--param", spec)]
        code, stdout, err = run_cli(["sweep", "--family", family, *params, "--outputs", "ec",
                                     "--output", str(out)], capsys)
        assert code == 4
        assert stdout == "" and err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()

    def test_family_changing_party_count_keeps_every_row(self, tmp_path, capsys):
        from mpcorr import decompose, e_c_multipartite, ghz
        code, out, _ = run_cli(["sweep", "--family", "ghz", "--param", "parties=3:4:2",
                                "--param", "level=2:2:1", "--outputs", "ec"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "parties,level,ec"
        assert [line.split(",")[:2] for line in lines[1:]] == [["3.0", "2.0"], ["4.0", "2.0"]]
        for line, parties in zip(lines[1:], (3, 4)):
            assert float(line.split(",")[2]) == pytest.approx(e_c_multipartite(decompose(ghz(parties, 2))),
                                                              abs=1e-14)

    def test_output_needing_other_shape_exit_4(self, capsys):
        code, _, err = run_cli(["sweep", "--family", "tripartite-qutrit-e3", "--param", "theta1=0:1:2",
                                "--param", "theta2=0:0:1", "--outputs", "ec,ph"], capsys)
        assert code == 4
        assert "ph output needs a bipartite state" in err


def xi_or_nan(rho, dec) -> float:
    try:
        return ph_invariants(dec).xi
    except DegenerateBlochVectorsError:
        return math.nan


# Each sweep output from the public scalar API, given the state and its decomposition.
SCALAR_OUTPUTS = {
    "ec": lambda rho, dec: (e_c_bipartite(dec.pair(0, 1), rho.dims) if rho.num_parties == 2
                            else e_c_multipartite(dec)),
    "ed": lambda rho, dec: e_d(dec),
    "concurrence": lambda rho, dec: concurrence_pure(rho),
    "entropy": lambda rho, dec: entanglement_entropy(rho),
    "nsv": lambda rho, dec: correlation_spectrum(dec.pair(0, 1)).nsv_count,
    "ph": lambda rho, dec: int(ph_test(rho).entangled),
    "xi": xi_or_nan,
    "nanb": lambda rho, dec: float(np.dot(*dec.coherence_vectors)),
}

# family -> (scalar builder, parameter ranges, every output that applies)
SWEPT = {
    # beyond |theta| = 12 the PT's negative eigenvalue lies within PT_NEGATIVITY_TOL of 0
    "rashid": (families.rashid, {"theta": st.floats(-15, 15)}, "ec,concurrence,entropy,nsv,ph,xi,nanb"),
    "generalized-werner": (families.generalized_werner, {"p": st.floats(0, 1), "theta": st.floats(-3, 3)},
                           "ec,nsv,ph,xi,nanb"),
    "tripartite-qutrit-e3": (families.tripartite_qutrit_e3,
                             {"theta1": st.floats(-3, 3), "theta2": st.floats(-3, 3)}, "ec,ed"),
}


@st.composite
def sweep_specs(draw):
    family = draw(st.sampled_from(sorted(SWEPT)))
    grids = {name: (draw(values), draw(values), draw(st.integers(1, 4)))
             for name, values in SWEPT[family][1].items()}
    return family, grids


@settings(max_examples=60, deadline=None)
@given(sweep_specs())
def test_hypothesis_sweep_cells_match_scalar_api(spec):
    family, grids = spec
    builder, _, outputs = SWEPT[family]
    params = [arg for name, (lo, hi, n) in grids.items() for arg in ("--param", f"{name}={lo!r}:{hi!r}:{n}")]
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(["sweep", "--family", family, *params, "--outputs", outputs]) == 0
    lines = buf.getvalue().splitlines()
    header = lines[0].split(",")
    assert len(lines) == 1 + math.prod(n for _, _, n in grids.values())
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        rho = builder(**{name: float(row[name]) for name in grids})
        dec = decompose(rho)
        for name in outputs.split(","):
            want, got = SCALAR_OUTPUTS[name](rho, dec), row[name]
            if name in ("ph", "nsv"):
                assert got == str(want), (name, row)
            elif math.isnan(want):
                assert got == "nan", (name, row)
            else:
                assert float(got) == pytest.approx(want, abs=1e-14), (name, row)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_output_columns_match_scalar_api_on_random_states(dims, rng):
    d = math.prod(dims)
    rhos = [DensityMatrix(dims, random_density_mat(d, rng, rank=r)) for r in (1, 2, d, d)]
    # C of rank one plus a 1e-11 admixture: only the relative NSV threshold drops the small values
    classical = DensityMatrix(dims, np.diag([0.5] + [0.0] * (d - 2) + [0.5]))
    rhos += [mix([1 - 1e-11, 1e-11], [classical, rho]) for rho in rhos[2:]]
    mats = np.stack([rho.matrix for rho in rhos])
    vectors, sectors = decompose_stack(dims, mats)
    for name, (_, applies, column) in OUTPUTS.items():
        if not applies(dims) or name in ("concurrence", "entropy"):
            continue
        got = np.asarray(column(dims, mats, vectors, sectors)).tolist()
        want = [SCALAR_OUTPUTS[name](rho, decompose(rho)) for rho in rhos]
        if name in ("ph", "nsv"):
            assert got == want, name
        else:
            assert got == pytest.approx(want, abs=1e-14, nan_ok=True), name
