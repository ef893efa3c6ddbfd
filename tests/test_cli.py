import ctypes
import io
import json
import math
import platform
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import reduce
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from entry_points import ENTRY_POINTS
from golden.regen import HELP_COLUMNS, environment, run
from helpers import GELL_MANN, PAULI, oracle_cumulant, random_density_mat

from mpcorr import bloch, classify, cli, families, measures
from mpcorr.bloch import decompose
from mpcorr.cli import FAMILY_BUILDERS, load_state, main
from mpcorr.density import TraceNotOneError
from mpcorr.measures import COLUMNS, Context, measure_set


# a row added to the table: 0.5 on any state, so its law holds every group
EXTRA_ROW = ("any state", lambda dims: True, lambda ctx: np.full(len(ctx.mats), 0.5),
             frozenset({measures.LOCAL_UNITARIES, measures.COLLECTIVE_UNITARIES, measures.PARTY_PERMUTATIONS}))


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def hermiticity_file(tmp_path, residual):
    """(1 + i (2 residual) X x 1) / 4 as a matrix state file: max |M - M^dag| is residual."""
    mat = [[[0.25 if i == j else 0.0, residual / 2 if i ^ j == 2 else 0.0] for j in range(4)] for i in range(4)]
    return write_json(tmp_path / f"herm-{residual}.json", {"dims": [2, 2], "matrix": mat})


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

    @pytest.mark.parametrize("command", ["decompose", "measure", "classify"])
    def test_hermiticity_tolerance_is_the_one_rule(self, command, tmp_path, capsys):
        # residual 0.75e-12 passes validation, so the command gives a result
        # (and, where it reads only T, the one of the Hermitian part 1/4)
        code, out, err = run_cli([command, "--input", hermiticity_file(tmp_path, 0.75e-12)], capsys)
        assert (code, err) == (0, "")
        if command != "classify":
            assert out == run_cli([command, "--input", hermiticity_file(tmp_path, 0.0)], capsys)[1]
        code, out, err = run_cli([command, "--input", hermiticity_file(tmp_path, 1.1e-12)], capsys)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "NotHermitian", "residual": 1.1e-12}

    def test_mixed_dimension_triple_matches_oracle(self, tmp_path, capsys, rng):
        mat = random_density_mat(12, rng)
        path = write_json(tmp_path / "223.json", {
            "dims": [2, 2, 3], "matrix": [[[float(v.real), float(v.imag)] for v in row] for row in mat]})
        code, out, _ = run_cli(["decompose", "--input", path], capsys)
        assert code == 0
        want = oracle_cumulant(mat, (2, 2, 3), [PAULI, PAULI, GELL_MANN])
        assert np.abs(np.array(json.loads(out)["triple_correlations"]["0-1-2"]) - want).max() < 1e-12

    def test_analytic_zeros_print_without_sign(self, tmp_path, capsys, rng):
        """No report line ends in -0.0: a (3, 3) state of dense real
        amplitudes, sparse-real and real-product states of four shapes, and
        the three-qutrit family at a generic point."""
        docs = [{"dims": [3, 3], "pure": [[float(a), 0.0] for a in rng.normal(size=9)]},
                {"family": "tripartite-qutrit-e3", "params": {"theta1": 0.2, "theta2": -0.7}}]
        for dims in [(2, 3), (2, 2, 2), (3, 3, 3), (2, 2, 2, 2)]:
            sparse = rng.normal(size=math.prod(dims)) * (rng.random(math.prod(dims)) < 0.3)
            sparse[0] = 1.0
            factored = reduce(np.kron, [rng.normal(size=n) * (rng.random(n) < 0.7) + np.eye(n)[0] for n in dims])
            docs += [{"dims": list(dims), "pure": [[float(a), 0.0] for a in amps]} for amps in (sparse, factored)]
        for k, doc in enumerate(docs):
            code, out, err = run_cli(["decompose", "--input", write_json(tmp_path / f"{k}.json", doc)], capsys)
            assert (code, err) == (0, "")
            assert not re.search(r"-0\.0,?$", out, re.MULTILINE), doc


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

    def test_product_entropy_is_positive_zero(self, tmp_path, capsys):
        path = write_json(tmp_path / "00.json", {"dims": [2, 2], "pure": [[1, 0], [0, 0], [0, 0], [0, 0]]})
        code, out, _ = run_cli(["measure", "--input", path], capsys)
        assert code == 0
        assert '"entropy_bits": 0.0' in out and "-0.0" not in out

    @pytest.mark.parametrize("spec", [{"family": "rashid", "params": {"theta": 0.3}},
                                      {"family": "generalized-werner", "params": {"p": 0.8, "theta": 0.3}},
                                      {"family": "ghz", "params": {"parties": 4, "level": 2}}],
                             ids=lambda spec: spec["family"])
    def test_report_ignores_a_row_added_to_the_table(self, spec, tmp_path, monkeypatch, capsys):
        # the report names its own rows, so a new row of any shape is no key of it
        path = write_json(tmp_path / "state.json", spec)
        rho = load_state(path)
        before = measure_set(rho), run_cli(["measure", "--input", path], capsys)
        monkeypatch.setitem(COLUMNS, "extra", EXTRA_ROW)
        assert (measure_set(rho), run_cli(["measure", "--input", path], capsys)) == before


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

    def test_cc_mixture_with_json_terms(self, tmp_path, capsys):
        out = tmp_path / "cc.json"
        terms = "[[0.5,[0,0,1],[0,0,-1]],[0.5,[0,0,-1],[0,0,1]]]"
        code, _, _ = run_cli(["family", "--family", "cc-mixture",
                              "--set", f"terms={terms}", "--output", str(out)], capsys)
        assert code == 0
        code2, rep, _ = run_cli(["classify", "--input", str(out)], capsys)
        assert json.loads(rep)["category"] == "ClassicallyCorrelated"


class TestSweep:
    def test_a_row_added_to_the_table_is_an_output(self, monkeypatch, capsys):
        argv = ["sweep", "--family", "generalized-werner", "--param", "p=0:1:3", "--param", "theta=0:0:1", "--outputs"]
        code, plain, _ = run_cli(argv + ["purity"], capsys)
        assert code == 0
        monkeypatch.setitem(COLUMNS, "extra", EXTRA_ROW)
        code, out, err = run_cli(argv + ["purity,extra"], capsys)
        assert (code, err) == (0, "")
        assert out.splitlines() == [line + cell for line, cell in zip(plain.splitlines(), [",extra"] + [",0.5"] * 3)]

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

    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ["sweep", "--family", "generalized-werner",
                "--param", "p=0:1:11", "--param", "theta=-1:1:9",
                "--outputs", "ec,ph"]
        outputs = []
        for run in range(3):
            out = tmp_path / f"run{run}.csv"
            code, _, _ = run_cli(args + ["--output", str(out)], capsys)
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

    @pytest.mark.parametrize("grid", ["theta=nan:1:3", "theta=0:inf:3", "theta=-inf:0:1"])
    def test_non_finite_grid_exit_4(self, grid, capsys):
        code, out, err = run_cli(["sweep", "--family", "rashid", "--param", grid,
                                  "--outputs", "ec"], capsys)
        assert code == 4
        assert out == ""
        assert "finite" in err

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


def test_load_state_error_types(tmp_path):
    # load_state raises what reading, parsing or validating raises; main maps each to its exit code
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{not json")
    with pytest.raises(json.JSONDecodeError):
        load_state(str(malformed))
    path = write_json(tmp_path / "trace.json", {"dims": [2], "matrix": [[[0.7, 0], [0, 0]], [[0, 0], [0.5, 0]]]})
    with pytest.raises(TraceNotOneError):
        load_state(path)
    with pytest.raises(FileNotFoundError):
        load_state(str(tmp_path / "missing.json"))


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


@pytest.mark.parametrize("family,params", [
    ("generalized-werner", {"p": True, "theta": 0}),
    ("rashid", {"theta": "0.5"}),
    ("ghz", {"parties": "3", "level": " 2 "}),
    ("cc-mixture", {"terms": [["1", [0, 0, 1], [0, 0, 1]]]}),
], ids=["boolean-p", "string-theta", "string-parties", "string-weight"])
def test_string_or_boolean_exit_4_from_family_and_1_from_spec_file(family, params, tmp_path, capsys):
    sets = [arg for name, value in params.items() for arg in ("--set", f"{name}={json.dumps(value)}")]
    code, out, err = run_cli(["family", "--family", family, *sets], capsys)
    assert code == 4
    assert out == "" and "must be a real number" in err
    path = write_json(tmp_path / "spec.json", {"family": family, "params": params})
    code, out, err = run_cli(["measure", "--input", path], capsys)
    assert code == 1
    assert one_error_line(out, err) and "must be a real number" in err


class TestHeapPolicy:
    QUTRIT = ["sweep", "--family", "tripartite-qutrit-e3", "--outputs", "ec,ed"]

    @pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                        reason="the policy acts through glibc's mallopt")
    def test_second_pass_of_row_commands_reuses_freed_pages(self, tmp_path):
        # The 41 qutrit row commands of the 41x41 grid, twice in one fresh
        # process.  Without the policy glibc hands each command's (41, 27, 27)
        # stacks back to the OS, and every command of the second pass faults
        # about 490 pages in again.
        script = f"""if True:
            import resource, sys
            from mpcorr.cli import main
            rows = [[*{self.QUTRIT!r}, "--param", f"theta1={{v!r}}:{{v!r}}:1", "--param", "theta2=-2:2:41",
                     "--output", sys.argv[1]] for v in [-2 + k / 10 for k in range(41)]]
            for _ in range(2):
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                assert all(main(argv) == 0 for argv in rows)
            print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / len(rows))
        """
        result = subprocess.run([sys.executable, "-c", script, str(tmp_path / "row.csv")],
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        assert float(result.stdout) < 16

    @pytest.mark.parametrize("libc", ["no-c-library", "no-mallopt"])
    def test_sweep_unchanged_without_mallopt(self, libc, capsys, monkeypatch):
        import mpcorr.cli as cli
        argv = [*self.QUTRIT, "--param", "theta1=-1:1:3", "--param", "theta2=-2:2:5"]
        code, want, _ = run_cli(argv, capsys)
        assert code == 0

        def load(name):
            if libc == "no-c-library":
                raise OSError(f"{name}: cannot open shared object file")
            return SimpleNamespace()

        monkeypatch.setattr(cli, "ctypes", SimpleNamespace(CDLL=load, c_int=ctypes.c_int))
        cli._keep_freed_memory.cache_clear()
        try:
            code, got, err = run_cli(argv, capsys)
        finally:
            cli._keep_freed_memory.cache_clear()
        assert code == 0 and err == ""
        assert got == want

    def test_applied_once_per_process(self, capsys, monkeypatch):
        import mpcorr.cli as cli
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(cli, "ctypes", SimpleNamespace(CDLL=lambda name: SimpleNamespace(mallopt=mallopt),
                                                           c_int=ctypes.c_int))
        cli._keep_freed_memory.cache_clear()
        try:
            for argv in (["family", "--family", "ghz"], ["decompose"], [*self.QUTRIT, "--param", "theta1=0:0:1"]):
                run_cli(argv, capsys)
        finally:
            cli._keep_freed_memory.cache_clear()
        assert calls == [(-3, 32 << 20), (-1, 64 << 20)]


class TestBatchedSweep:
    WERNER = ["--family", "generalized-werner", "--outputs", "ec,nsv,ph,xi,nanb"]

    # (family and outputs, row axis (name, start, stop, count), other grids, chunk sizes); ghz groups
    # interleave dims within a chunk, so its cells are scattered group by group across chunk boundaries
    SPLITS = [
        (WERNER, ("p", 0, 1, 11), ["theta=-2:2:13"], (1, 7)),
        (["--family", "ghz", "--outputs", "ec"], ("parties", 2, 4, 3), ["level=2:3:2"], (1, 4)),
    ]

    def test_grid_splits_are_byte_identical(self, tmp_path, capsys, monkeypatch):
        import mpcorr.cli as cli

        def sweep(args, grids):
            out = tmp_path / "out.csv"
            code, _, _ = run_cli(["sweep", *args, *(arg for grid in grids for arg in ("--param", grid)),
                                  "--output", str(out)], capsys)
            assert code == 0
            return out.read_bytes()

        for args, (name, start, stop, count), rest, chunks in self.SPLITS:
            whole = []
            for chunk in (*chunks, cli.SWEEP_CHUNK):
                monkeypatch.setattr(cli, "SWEEP_CHUNK", chunk)
                whole.append(sweep(args, [f"{name}={start}:{stop}:{count}", *rest]))
            monkeypatch.undo()
            assert whole[0] == whole[1] == whole[2]
            rows = [whole[0].split(b"\n", 1)[0] + b"\n"]
            for value in np.linspace(start, stop, count).tolist():
                rows.append(sweep(args, [f"{name}={value!r}:{value!r}:1", *rest]).split(b"\n", 1)[1])
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
        from mpcorr import decompose, ghz
        for grid, counts in (("parties=3:4:2", (3, 4)), ("parties=2:5:4", (2, 3, 4, 5))):
            code, out, _ = run_cli(["sweep", "--family", "ghz", "--param", grid,
                                    "--param", "level=2:2:1", "--outputs", "ec"], capsys)
            assert code == 0
            lines = out.splitlines()
            assert lines[0] == "parties,level,ec"
            assert [line.split(",")[:2] for line in lines[1:]] == [[f"{n}.0", "2.0"] for n in counts]
            for line, parties in zip(lines[1:], counts):
                rho = ghz(parties, 2)
                assert float(line.split(",")[2]) == pytest.approx(ENTRY_POINTS["ec"](rho, decompose(rho)),
                                                                  abs=1e-14)

    def test_output_needing_other_shape_exit_4(self, capsys):
        code, _, err = run_cli(["sweep", "--family", "tripartite-qutrit-e3", "--param", "theta1=0:1:2",
                                "--param", "theta2=0:0:1", "--outputs", "ec,ph"], capsys)
        assert code == 4
        assert "ph output needs a bipartite state" in err


# family -> grids, each {parameter: (start, stop, count)}
REAL_FAMILY_SWEEPS = {
    "rashid": [{"theta": (-3, 3, 13)}],
    "generalized-werner": [{"p": (0, 1, 6), "theta": (-2, 2, 9)}, {"p": (1, 1, 1), "theta": (-2, 2, 9)}],
    "tripartite-qutrit-e3": [{"theta1": (-2, 2, 5), "theta2": (-2, 2, 7)}],
    "ghz": [{"parties": (n, n, 1), "level": (level, level, 1)} for n in range(2, 6) for level in (2, 3)]
           + [{"parties": (n, n, 1), "level": (2, 2, 1)} for n in range(6, 9)],
}


@pytest.mark.parametrize("family", REAL_FAMILY_SWEEPS)
def test_real_family_sweeps_match_complex_stacks(family, monkeypatch, capsys):
    """The real families build real stacks, and each of their grids gives
    the same CSV bytes, with every output that applies to it, as the complex
    copies of those stacks.  The pure-only outputs apply to pure grids."""
    stacks = FAMILY_BUILDERS[family][1]
    for grid in REAL_FAMILY_SWEEPS[family]:
        points = np.array(list(product(*(np.linspace(*spec) for spec in grid.values()))))
        groups = stacks(**dict(zip(grid, points.T)))
        assert all(mats.dtype == float for _, _, mats in groups)
        pure = all((COLUMNS["purity"][2](Context(dims, mats)) > 1 - 1e-8).all() for _, dims, mats in groups)
        outputs = [name for name, (_, applies, _, _) in COLUMNS.items()
                   if all(applies(dims) for _, dims, _ in groups) and (pure or name not in ("concurrence", "entropy"))]
        argv = ["sweep", "--family", family, "--outputs", ",".join(outputs)]
        argv += [arg for name, (a, b, n) in grid.items() for arg in ("--param", f"{name}={a}:{b}:{n}")]
        code, real_csv, err = run_cli(argv, capsys)
        assert code == 0 and err == ""
        with monkeypatch.context() as patch:
            patch.setitem(FAMILY_BUILDERS, family, FAMILY_BUILDERS[family][:1] + (
                lambda **params: [(idx, dims, mats.astype(complex)) for idx, dims, mats in stacks(**params)],))
            assert run_cli(argv, capsys) == (0, real_csv, "")


@pytest.mark.parametrize("quantity, outputs, family, grids", [
    ("_pt_min", "ph,pt_min", "generalized-werner", ["p=0:1:11", "theta=-2:2:11"]),
    ("_invariants", "xi,nanb", "generalized-werner", ["p=0:1:11", "theta=-2:2:11"]),
    ("_marginals", "concurrence,entropy", "rashid", ["theta=-3:3:121"]),
], ids=["pt-eigensolve", "invariants", "marginals"])
def test_rows_share_one_pass_of_their_quantity_per_stack(quantity, outputs, family, grids, monkeypatch, capsys):
    stacks, shared = [], getattr(measures, quantity)

    def counted(ctx):
        stacks.append(len(ctx.mats))
        return shared(ctx)

    monkeypatch.setattr(measures, quantity, counted)
    monkeypatch.setattr(cli, "SWEEP_CHUNK", 50)
    argv = ["sweep", "--family", family, *(arg for spec in grids for arg in ("--param", spec)), "--outputs", outputs]
    assert run_cli(argv, capsys)[0] == 0
    assert stacks == [50, 50, 21]


@pytest.mark.parametrize("family, grids, outputs", [
    ("generalized-werner", ["p=0:1:11", "theta=-2:2:11"], "purity"),
    ("rashid", ["theta=-3:3:21"], "concurrence,entropy,ph,pt_min"),
])
def test_rows_of_matrices_never_decompose(family, grids, outputs, monkeypatch, capsys):
    """Rows that read only the matrices give, without a decomposition, the
    bytes of their columns in a sweep that also asks for ec and nsv."""
    argv = ["sweep", "--family", family, *(arg for spec in grids for arg in ("--param", spec)), "--outputs"]
    code, full, _ = run_cli(argv + ["ec,nsv," + outputs], capsys)
    assert code == 0

    def refuse(dims, mats):
        raise AssertionError("decompose_stack called")

    for module in (bloch, measures, classify):
        monkeypatch.setattr(module, "decompose_stack", refuse, raising=False)
    code, out, err = run_cli(argv + [outputs], capsys)
    assert (code, err) == (0, "")
    n = len(grids)
    assert out.splitlines() == [",".join(cells[:n] + cells[n + 2:]) for cells in
                                (line.split(",") for line in full.splitlines())]


# family -> (scalar builder, parameter ranges, every output that applies)
SWEPT = {
    # beyond |theta| = 12 the PT's negative eigenvalue lies within PT_NEGATIVITY_TOL of 0
    "rashid": (families.rashid, {"theta": st.floats(-15, 15)},
               "ec,concurrence,entropy,nsv,ph,xi,nanb,purity,pt_min"),
    "generalized-werner": (families.generalized_werner, {"p": st.floats(0, 1), "theta": st.floats(-3, 3)},
                           "ec,nsv,ph,xi,nanb,purity,pt_min"),
    "tripartite-qutrit-e3": (families.tripartite_qutrit_e3,
                             {"theta1": st.floats(-3, 3), "theta2": st.floats(-3, 3)}, "ec,ed,purity"),
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
            want, got = ENTRY_POINTS[name](rho, dec), row[name]
            if name == "nanb" and math.isnan(want):
                assert abs(float(got)) <= measures.BLOCH_DEGENERACY_TOL, row
            else:
                assert got == repr(want), (name, row)


def one_error_line(out, err) -> bool:
    return out == "" and err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ["decompose"],
        ["sweep", "--family", "rashid", "--param", "theta=0:1:3"],
        ["transmogrify", "--input", "x.json"],
        [],
        ["measure", "--input", "x.json", "--verbose"],
        ["measure", "--input", "x.json", "two\nlines"],
    ], ids=["missing-input", "missing-outputs", "unknown-subcommand", "no-subcommand", "unknown-option",
            "line-break-in-argument"])
    def test_usage_error_exit_1(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert one_error_line(out, err)

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["sweep", "--help"]])
    def test_help_exit_0(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 0
        assert out.startswith("usage: mpcorr") and err == ""

    @pytest.mark.parametrize("command", ["decompose", "measure", "classify"])
    def test_state_commands_document_their_files(self, command, capsys):
        # the three state commands are built from one table, so each help names both files
        code, out, _ = run_cli([command, "--help"], capsys)
        assert code == 0
        assert re.search(r"--input INPUT\s+state JSON file \(or family-spec JSON\)", out)
        assert re.search(r"--output OUTPUT\s+report JSON path \(default stdout\)", out)

    def test_help_and_usage_error_as_process_exit_codes(self):
        for argv, want in ((["-h"], 0), (["decompose"], 1)):
            result = subprocess.run([sys.executable, "-m", "mpcorr.cli", *argv], capture_output=True, text=True)
            assert result.returncode == want
            assert "Traceback" not in result.stderr

    # with no grid at all, the family is still named first
    @pytest.mark.parametrize("family,grid", [("bell", "which=0:1:2"), ("cc-mixture", "terms=0:1:2"),
                                             ("bell", None), ("cc-mixture", None)])
    def test_unsweepable_family_exit_4(self, family, grid, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        params = ["--param", grid] if grid else []
        code, stdout, err = run_cli(["sweep", "--family", family, *params, "--outputs", "ec",
                                     "--output", str(out)], capsys)
        assert code == 4
        assert one_error_line(stdout, err)
        assert f"{family!r} cannot be swept" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["decompose", "measure", "classify"])
    @pytest.mark.parametrize("text", [
        '{"dims": null, "pure": [[1, 0], [0, 0]]}',
        '{"dims": [2], "pure": [[1' + "0" * 400 + ', 0], [0, 0]]}',
        '{"dims": [1e400], "pure": [[1, 0], [0, 0]]}',
        '{"dims": [2], "pure": {"re": 1}}',
        '{"dims": [2], "pure": [[0, Infinity], [1, 0]]}',
        '{"family": ["bell"]}',
        "[" * 100000 + "]" * 100000,
        '{"dims": [2], "matrix": [[[1e308, 0], [0, 0]], [[0, 0], [1e308, 0]]]}',
        '{"dims": [2], "matrix": [[[0.5, 0], [1.7e308, 1.7e308]], [[1.7e308, -1.7e308], [0.5, 0]]]}',
        '{"family": "cc-mixture", "params": {"terms": [[NaN, [0, 0, 1], [0, 0, 1]]]}}',
        '{"family": "cc-mixture", "params": {"terms": [[1, [NaN, 0, 0], [0, 0, 1]]]}}',
        '{"family": "cc-mixture", "params": {"terms": [[1, [1e308, 1e308, 0], [0, 0, 1]]]}}',
    ], ids=["null-dims", "huge-integer", "infinite-dims", "object-amplitudes", "infinite-imaginary-part",
            "list-family", "deep-nesting", "overflowing-trace", "overflowing-eigenvalues", "nan-mixture-weight",
            "nan-bloch-vector", "overflowing-bloch-vector"])
    def test_unusable_state_file_exit_1(self, text, command, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli([command, "--input", str(path)], capsys)
        assert code == 1
        assert one_error_line(out, err)


PHASE_ERRORS = [TypeError("bad type"), ValueError("bad value"), FloatingPointError("overflow"),
                RecursionError("too deep"), MemoryError("out of memory")]


# the exit code is the phase's, whatever the exception: 1 while the input is
# loaded, the command's own code (3 or 4) while it runs
@pytest.mark.parametrize("exc", PHASE_ERRORS, ids=lambda exc: type(exc).__name__)
@pytest.mark.parametrize("target,argv,want", [
    ("state_from_json_dict", ["measure", "--input", "SINGLET"], 1),
    ("decompose", ["decompose", "--input", "SINGLET"], 3),
    ("evaluate", ["sweep", "--family", "rashid", "--param", "theta=0:1:3", "--outputs", "ec"], 4),
], ids=["load", "run-state-command", "run-sweep"])
def test_phase_decides_the_exit_code(target, argv, want, exc, tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, target, fail)
    argv = [singlet_file(tmp_path) if arg == "SINGLET" else arg for arg in argv]
    path = tmp_path / "out.txt"
    for output in ("-", str(path)):
        code, out, err = run_cli(argv + ["--output", output], capsys)
        assert code == want
        assert out == "" and err == f"error: {exc}\n"
    assert not path.exists()


FAILURES = json.loads((Path(__file__).parent / "golden" / "failures.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("entry", FAILURES, ids=[entry["id"] for entry in FAILURES])
def test_failure_corpus(entry, tmp_path, monkeypatch, capsys):
    # exit code and, where mpcorr writes the whole message, stderr bytes; the
    # wording of json, argparse, numpy and OS messages varies across versions
    monkeypatch.chdir(tmp_path)
    if entry["input"] is not None:
        (tmp_path / "state.json").write_text(entry["input"], encoding="utf-8")
    code, out, err = run_cli(entry["argv"], capsys)
    assert code == entry["code"]
    assert out == ""
    assert sorted(path.name for path in tmp_path.iterdir()) == ([] if entry["input"] is None else ["state.json"])
    if entry["stderr"] is not None:
        assert err == entry["stderr"]
    elif code == 2:
        assert list(json.loads(err)) == ["error", "residual"]
    else:
        assert one_error_line(out, err)


OUTPUTS = json.loads((Path(__file__).parent / "golden" / "outputs.json").read_text(encoding="utf-8"))
# 300 times the 3.3e-16 by which a change of OpenBLAS kernel set was measured to move the corpus's floats
FLOAT_TOL = 1e-13
# a float as repr writes it; integers, nan, inf and null are text, compared exactly
FLOAT = re.compile(r"(-?\d+\.\d+(?:e[-+]?\d+)?|-?\d+e[-+]?\d+)")


@pytest.mark.parametrize("entry", OUTPUTS["entries"], ids=[entry["id"] for entry in OUTPUTS["entries"]])
def test_output_corpus(entry, tmp_path, monkeypatch, record_property):
    # exit code and stderr everywhere.  The stdout bytes of floats depend on
    # numpy, its BLAS and the CPU, so everywhere the text between floats is
    # compared exactly and each float within FLOAT_TOL absolute plus relative,
    # and the bytes as well where the corpus was recorded (tests/golden/regen.py
    # rewrites it).  Help texts follow argparse alone, whose wording changes
    # across Python releases: they are compared, bytes too, under the recorded one.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", HELP_COLUMNS)
    code, out, err = run(entry["argv"], OUTPUTS["inputs"])
    assert (code, err) == (entry["code"], entry["stderr"])
    recorded, here = OUTPUTS["environment"], environment()
    help_text = "--help" in entry["argv"]
    if help_text and here["python"] != recorded["python"]:
        pytest.skip(f"help text recorded with Python {recorded['python']}, here {here['python']}")
    got, want = FLOAT.split(out), FLOAT.split(entry["stdout"])
    assert got[::2] == want[::2]
    got, want = np.array(got[1::2], dtype=float), np.array(want[1::2], dtype=float)
    far = np.abs(got - want) > FLOAT_TOL * (1 + np.abs(want))
    assert not far.any(), f"{far.sum()} floats out of tolerance: {got[far].tolist()[:3]} for {want[far].tolist()[:3]}"
    record_property("text", 1)
    record_property("floats", len(want))
    if help_text or here == recorded:
        assert out == entry["stdout"]
        record_property("bytes", 1)


def test_report_keys_in_order(tmp_path, capsys):
    path = write_json(tmp_path / "w.json", {"family": "generalized-werner", "params": {"p": 0.5, "theta": 0.3}})
    reports = {}
    for command in ("decompose", "measure", "classify"):
        code, out, _ = run_cli([command, "--input", path], capsys)
        assert code == 0
        reports[command] = json.loads(out)
    assert list(reports["decompose"]) == ["dims", "coherence_vectors", "pair_correlations", "triple_correlations",
                                          "quad_correlations"]
    assert list(reports["measure"]) == ["e_c"]
    assert list(reports["classify"]) == ["category", "nsv_count", "ph_entangled", "min_pt_eigenvalue",
                                         "invariants", "purity"]
    assert list(reports["classify"]["invariants"]) == ["xi", "na_dot_nb", "na_dot_c_nb"]


# -- property tests: whatever the input, an exit code in 0..4, one line of
# stderr (or the residual object) on failure, and strict JSON on success --

def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text):
    return json.loads(text, parse_constant=_reject_constant)


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_outcome(code, out, err):
    assert code in range(5), (code, err)
    if code == 0:
        assert err == ""
    elif code == 2:
        assert out == ""
        assert set(strict_json(err)) == {"error", "residual"}
    else:
        assert one_error_line(out, err), err


SANE_NUMBERS = st.floats(-2, 2)
NUMBERS = SANE_NUMBERS | st.floats() | st.sampled_from([1e308, -1e308, 1e-320]) | st.integers(-10 ** 400, 10 ** 400)
JSON_VALUES = st.recursive(st.none() | st.booleans() | NUMBERS | st.text(max_size=4),
                           lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                                       max_size=3),
                           max_leaves=12)
SHAPES = [[2], [2, 2], [2, 3], [3, 3], [2, 2, 2], [2, 2, 2, 2], [2, 2, 3], [2, 2, 2, 2, 2]]
PARAM_NAMES = ["which", "theta", "terms", "p", "parties", "level", "theta1", "theta2"]


@st.composite
def state_documents(draw):
    kind = draw(st.sampled_from(["pure", "matrix", "family", "any"]))
    if kind == "any":
        return draw(JSON_VALUES)
    number = draw(st.sampled_from([SANE_NUMBERS, NUMBERS]))      # half the documents stay finite
    if kind == "family":
        vector = st.lists(number, min_size=3, max_size=3)
        values = number | st.sampled_from(["psi-", "phi+", "PSI+"]) | st.lists(st.tuples(number, vector, vector),
                                                                               max_size=3) | JSON_VALUES
        doc = {"family": draw(st.sampled_from(sorted(FAMILY_BUILDERS)) | JSON_VALUES)}
        if draw(st.booleans()):
            doc["params"] = draw(st.dictionaries(st.sampled_from(PARAM_NAMES) | st.text(max_size=3), values,
                                                 max_size=3) | JSON_VALUES)
        return doc
    dims = draw(st.sampled_from(SHAPES) | st.lists(st.integers(-1, 4), max_size=4) | JSON_VALUES)
    size = math.prod(dims) if dims in SHAPES else draw(st.integers(0, 4))
    pair = st.lists(number, min_size=2, max_size=2) | JSON_VALUES
    if kind == "pure":
        payload = draw(st.lists(st.lists(number, min_size=2, max_size=2), min_size=size, max_size=size)
                       | st.lists(pair, max_size=size + 1) | JSON_VALUES)
    elif draw(st.booleans()):
        # a valid mixed state, so that the commands also run to the end
        amps = np.array(draw(st.lists(SANE_NUMBERS, min_size=2 * size, max_size=2 * size)))
        vec = amps[:size] + 1j * amps[size:]
        mat = (np.outer(vec, vec.conj()) + np.eye(size)) / (vec.conj() @ vec + size).real
        payload = [[[float(z.real), float(z.imag)] for z in row] for row in mat]
    else:
        payload = draw(st.lists(st.lists(pair, min_size=size, max_size=size), min_size=size, max_size=size)
                       | JSON_VALUES)
    return {"dims": dims, kind: payload}


@settings(max_examples=200, deadline=None)
@given(document=state_documents(), command=st.sampled_from(["decompose", "measure", "classify"]))
def test_hypothesis_state_files_never_raise(document, command, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "hypothesis-state.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    code, out, err = run_main([command, "--input", str(path)])
    assert_outcome(code, out, err)
    if code == 0:
        strict_json(out)


COMMANDS = [
    ["decompose", "--input", "state.json"],
    ["measure", "--input", "state.json"],
    ["classify", "--input", "state.json"],
    ["family", "--family", "ghz", "--set", "parties=3"],
    ["sweep", "--family", "rashid", "--param", "theta=0:1:3", "--outputs", "ec,ph,xi"],
]
# no "/" or NUL: any token taken as --output names a file in the working directory
TOKENS = st.sampled_from([
    "decompose", "measure", "classify", "family", "sweep", "--input", "--output", "--family", "--set",
    "--param", "--outputs", "-h", "--help", "-", "state.json", "missing.json", "bell", "rashid", "ghz",
    "cc-mixture", "generalized-werner", "tripartite-qutrit-e3", "which=psi-", "theta=0.5", "theta=0:1:3",
    "p=0:1:2", "parties=3:4:2", "level=2:2:1", "parties=3.5", "ec", "ec,ph,xi", "ed", "concurrence",
]) | st.text(st.characters(blacklist_characters="/\x00"), max_size=8)


@st.composite
def argv_lists(draw):
    """A working command line after up to three random edits, or random tokens."""
    if draw(st.booleans()):
        return draw(st.lists(TOKENS, max_size=8))
    argv = list(draw(st.sampled_from(COMMANDS)))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["insert", "replace", "delete"]))
        if edit == "insert" or i == len(argv):
            argv.insert(i, draw(TOKENS))
        elif edit == "replace":
            argv[i] = draw(TOKENS)
        else:
            del argv[i]
    return argv


# the working directory is the same for every example, so monkeypatch may be shared
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=argv_lists())
def test_hypothesis_argv_never_raises(argv, tmp_path_factory, monkeypatch):
    workdir = tmp_path_factory.getbasetemp() / "hypothesis-argv"
    workdir.mkdir(exist_ok=True)
    monkeypatch.chdir(workdir)
    with open("state.json", "w", encoding="utf-8") as fh:
        json.dump({"family": "rashid", "params": {"theta": 0.25}}, fh)
    assert_outcome(*run_main(argv))
