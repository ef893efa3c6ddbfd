"""The benchmark's workloads.  Each one makes its inputs from a seed before
timing, runs whole rounds through mpcorr's public entry points, and checks
the outputs of its rounds against :mod:`reference` afterwards.

A round covers the whole input once: one row sweep command per value of a
sweep's first parameter, or one pass over the generated state files.
``run_round`` returns the latency of each operation a user waits for (a row
command, or one state file) and how many items failed, and calls ``idle``
between operations.  A block is ``block_size`` consecutive operations of
like make-up, ``items_per_block`` items: one row command, or one whole pass
over the files.
"""

import hashlib
import json
import time
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

import numpy as np

import reference as ref

TENSOR_TOL = 1e-10
ROUNDTRIP_TOL = 1e-12


class Sweep:
    """``mpcorr sweep`` over a fixed grid, run in-process through ``cli.main``
    one row at a time: each command sweeps one value of the first parameter
    across the full range of the others, and a round is one command per
    value, which covers the grid.  A row command is short enough to run
    inside one speed episode of the host (see README), so its latency is a
    clean sample; one command for the whole grid would average episodes.

    The grid is part of the workload's definition, so the seed only picks
    the qutrit points checked against the oracle.
    """

    family: str
    outputs: str
    grid: dict[str, str]
    tiny_grid: dict[str, str]
    block_size = 1                      # latencies per block: one row command

    def __init__(self, mpcorr, workdir: Path, seed: int, tiny: bool):
        self.mp = mpcorr
        self.seed = seed
        self.rowdir = workdir / self.name
        self.rowdir.mkdir(parents=True, exist_ok=True)
        self.warm_csv = workdir / f"{self.name}.warm.csv"
        grid = self.tiny_grid if tiny else self.grid
        self.names = list(grid)
        self.axes = []
        for spec in grid.values():
            start, stop, count = spec.split(":")
            self.axes.append(np.linspace(float(start), float(stop), int(count)))
        rest = []
        for name, spec in list(grid.items())[1:]:
            rest += ["--param", f"{name}={spec}"]
        self.argvs = []
        for i, value in enumerate(self.axes[0]):
            v = repr(float(value))
            self.argvs.append(["sweep", "--family", self.family, "--outputs", self.outputs,
                               "--output", str(self.rowdir / f"{i:03d}.csv"),
                               "--param", f"{self.names[0]}={v}:{v}:1", *rest])
        self.items_per_round = int(np.prod([len(a) for a in self.axes]))
        self.items_per_block = self.items_per_round // len(self.argvs)
        self.digests: set[str] = set()

    def warm_up(self) -> None:
        argv = ["sweep", "--family", self.family, "--outputs", self.outputs, "--output", str(self.warm_csv)]
        for name, axis in zip(self.names, self.axes):
            argv += ["--param", f"{name}={axis[0]}:{axis[-1]}:2"]
        try:
            self.mp.cli.main(argv)
        except Exception:  # a program that fails here fails in the timed rounds too, and is counted there
            pass

    def run_round(self, idle=lambda: None) -> tuple[list[float], int]:
        latencies, failed = [], 0
        for argv in self.argvs:
            t0 = time.perf_counter()
            try:
                code = self.mp.cli.main(argv)
            except Exception:  # a traceback is a failed command, not the end of the run
                code = None
            latencies.append(time.perf_counter() - t0)
            failed += 0 if code == 0 else self.items_per_block
            idle()
        if not failed:
            digest = hashlib.sha256()
            for argv in self.argvs:
                digest.update(Path(argv[argv.index("--output") + 1]).read_bytes())
            self.digests.add(digest.hexdigest())
        return latencies, failed

    def family_calls(self) -> list[tuple[str, dict]]:
        """The family constructions one round makes, with their inputs."""
        return [(self.family, dict(zip(self.names, (float(v) for v in point))))
                for point in product(*self.axes)]

    def _table(self, errors: list[str]):
        """The last round's row CSVs joined as {column: array}, after checking
        each header and the parameter columns against the declared grid."""
        if len(self.digests) != 1:
            errors.append(f"{len(self.digests)} distinct CSV outputs across rounds")
        want = self.names + self.outputs.split(",")
        rows = []
        for argv in self.argvs:
            lines = Path(argv[argv.index("--output") + 1]).read_text().splitlines()
            header = lines[0].split(",")
            if header != want:
                errors.append(f"CSV header {header}, expected {want}")
                return None
            rows += [[float(c) for c in line.split(",")] for line in lines[1:]]
        data = np.array(rows)
        grid = np.array(list(product(*self.axes)))
        if data.shape != (len(grid), len(want)) or not np.array_equal(data[:, :len(self.names)], grid):
            errors.append("CSV parameter columns do not match the declared grid")
            return None
        return dict(zip(want, data.T))


class WernerSweep(Sweep):
    name = "werner-sweep"
    family = "generalized-werner"
    outputs = "ec,ph,xi"
    grid = {"p": "0:1:101", "theta": "-2:2:101"}
    tiny_grid = {"p": "0:1:11", "theta": "-2:2:11"}

    def check(self) -> list[str]:
        errors: list[str] = []
        t = self._table(errors)
        if t is None:
            return errors
        p, th = t["p"], t["theta"]
        ec_err = float(np.abs(t["ec"] - ref.werner_ec(p, th)).max())
        if ec_err > 1e-12:
            errors.append(f"ec off its closed form by {ec_err:.2e}")
        thr = ref.werner_ph_threshold(p, th)
        away = np.abs(thr - 1.0) > 1e-9
        wrong = int((t["ph"][away] != (thr[away] > 1.0)).sum())
        if wrong:
            errors.append(f"{wrong} PH verdicts disagree with p(1 + 2 sech 2theta) > 1")
        undefined = (p == 0.0) | (np.abs(th) < 1e-12)
        if not np.array_equal(np.isnan(t["xi"]), undefined):
            errors.append("xi is nan at other points than p = 0 or theta = 0")
        ok = ~undefined
        xi_err = float(np.abs(ref.werner_xi_lhs(t["xi"][ok], p[ok], th[ok]) - thr[ok]).max())
        if xi_err > 1e-10:
            errors.append(f"xi identity off by {xi_err:.2e}")
        return errors


class QutritSweep(Sweep):
    name = "qutrit-sweep"
    family = "tripartite-qutrit-e3"
    outputs = "ec,ed"
    grid = {"theta1": "-2:2:41", "theta2": "-2:2:41"}
    tiny_grid = {"theta1": "-2:2:5", "theta2": "-2:2:5"}
    oracle_points = 6

    def check(self) -> list[str]:
        errors: list[str] = []
        t = self._table(errors)
        if t is None:
            return errors
        n1, n2 = (len(a) for a in self.axes)
        for out in ("ec", "ed"):
            surface = t[out].reshape(n1, n2)
            asym = float(np.abs(surface - surface.T).max())
            if asym > 1e-12:
                errors.append(f"{out} breaks theta1 <-> theta2 symmetry by {asym:.2e}")
        origin = (t["theta1"] == 0.0) & (t["theta2"] == 0.0)
        if origin.sum() != 1 or abs(t["ed"][origin][0] - 1.0) > 1e-12:
            errors.append("ed is not 1 at the origin")
        rng = np.random.default_rng(self.seed)
        for i in rng.choice(len(t["ec"]), size=min(self.oracle_points, len(t["ec"])), replace=False):
            params = {"theta1": t["theta1"][i], "theta2": t["theta2"][i]}
            mat = ref.family_matrix(self.family, params)
            want = ref.measures(mat, (3, 3, 3), ref.decomposition(mat, (3, 3, 3)))
            for out, key in (("ec", "e_c"), ("ed", "e_d")):
                if abs(t[out][i] - want[key]) > TENSOR_TOL:
                    errors.append(f"{out} at {params} is {t[out][i]!r}, oracle gives {want[key]!r}")
        return errors


# --- state files -------------------------------------------------------------

# Files per round as (dims, kind, count).  The counts keep any one shape
# under half the round's time and put the p50 and p90 file latencies inside
# a block of files of like cost, not on a step between two blocks.
COMPOSITION = [
    ((2, 2), "pure-entangled", 5), ((2, 2), "pure-product", 4),
    ((2, 2), "mixed-entangled", 5), ((2, 2), "separable", 4),
    ((2, 2), "uncorrelated", 4), ((2, 2), "mixed-random", 6),
    ((2, 2), "werner", 5), ((2, 2), "rashid", 3), ((2, 2), "bell", 1),
    ((2, 2), "cc-mixture", 3),
    ((2, 3), "pure", 4), ((2, 3), "mixed", 4),
    ((3, 3), "pure", 4), ((3, 3), "mixed", 4),
    ((2, 2, 2), "pure", 4), ((2, 2, 2), "mixed", 5), ((2, 2, 2), "ghz", 1),
    ((3, 3, 3), "pure", 1), ((3, 3, 3), "mixed", 1), ((3, 3, 3), "ghz", 1),
    ((3, 3, 3), "qutrit-e3", 1),
    ((2, 2, 2, 2), "pure", 12), ((2, 2, 2, 2), "mixed", 17), ((2, 2, 2, 2), "ghz", 1),
]
TINY_COMPOSITION = [(dims, kind, 1) for dims, kind, _ in COMPOSITION]

EXCHANGE_KINDS = ("symmetric", "antisymmetric")


@dataclass
class StateFile:
    path: Path
    dims: tuple[int, ...]
    kind: str
    matrix: np.ndarray                  # the state the file denotes, built apart from mpcorr
    category: str | None = None         # two-qubit category it was built to have
    family: tuple[str, dict] | None = None
    expected_nsv: int | None = None       # two qubits: nonzero singular values of the oracle C
    expected_pt_min: float | None = None  # two qubits: least eigenvalue of the loop partial transpose
    commands: tuple[str, ...] = ()
    result: dict = field(default_factory=dict)


def _pairs(values) -> list:
    return [[float(z.real), float(z.imag)] for z in values]


def _hermitian(m: np.ndarray) -> np.ndarray:
    m = (m + m.conj().T) / 2.0
    return m / np.trace(m).real


def _two_qubit_c(mat: np.ndarray) -> np.ndarray:
    return ref.decomposition(mat, (2, 2))["pair_correlations"]["0-1"]


class StateFiles:
    """Seeded state JSON files of six shapes through ``decompose``,
    ``measure`` and (two qubits) ``classify``, then ``reconstruct(decompose)``
    and, for two qubits, both exchange sectors."""

    name = "state-files"

    def __init__(self, mpcorr, workdir: Path, seed: int, tiny: bool):
        self.mp = mpcorr
        self.rng = np.random.default_rng(seed)
        self.oracle = ref.oracle()
        self.outdir = workdir / "reports"
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.files: list[StateFile] = []
        for dims, kind, count in TINY_COMPOSITION if tiny else COMPOSITION:
            for _ in range(count):
                payload, sf = self._make(dims, kind)
                sf.path = workdir / f"{len(self.files):03d}-{'x'.join(map(str, dims))}-{kind}.json"
                sf.path.write_text(json.dumps(payload))
                sf.commands = ("decompose", "measure", "classify") if dims == (2, 2) else ("decompose", "measure")
                self.files.append(sf)
        self.items_per_round = self.items_per_block = self.block_size = len(self.files)
        self.digests: set[str] = set()

    # -- input generation --

    def _make(self, dims, kind) -> tuple[dict, StateFile]:
        o, rng = self.oracle, self.rng
        d = int(np.prod(dims))
        if kind in ("pure", "mixed"):
            if kind == "pure":
                v = o.random_pure_vec(d, rng)
                return {"dims": list(dims), "pure": _pairs(v)}, StateFile(None, dims, kind, ref.ket_matrix(v))
            m = _hermitian(o.random_density_mat(d, rng, rank=int(rng.integers(2, d + 1))))
            return self._matrix_file(dims, kind, m)
        if kind == "ghz":
            params = {"parties": len(dims), "level": dims[0]}
            return self._family_file(dims, kind, "ghz", params)
        if kind == "qutrit-e3":
            params = {"theta1": float(rng.uniform(-2, 2)), "theta2": float(rng.uniform(-2, 2))}
            return self._family_file(dims, kind, "tripartite-qutrit-e3", params)
        while True:                     # two qubits: redraw until the class is clear-cut
            made = self._two_qubit(kind)
            if made is None:
                continue
            payload, sf = made
            sv = np.linalg.svd(_two_qubit_c(sf.matrix), compute_uv=False)
            pt_min = ref.min_pt_eigenvalue(sf.matrix, 2, 2)
            if np.all((sv < 1e-12) | (sv > 1e-6)) and (pt_min > -1e-12 or pt_min < -1e-6):
                sf.expected_nsv = int((sv > 1e-9).sum())
                sf.expected_pt_min = pt_min
                return payload, sf

    def _matrix_file(self, dims, kind, m, category=None):
        payload = {"dims": list(dims), "matrix": [_pairs(row) for row in m]}
        return payload, StateFile(None, dims, kind, m, category)

    def _family_file(self, dims, kind, family, params, category=None):
        sf = StateFile(None, dims, kind, ref.family_matrix(family, params), category, (family, params))
        return {"family": family, "params": params}, sf

    def _bloch(self, lo, hi) -> list[float]:
        return [float(c) for c in self.oracle.random_bloch(self.rng, self.rng.uniform(lo, hi))]

    def _two_qubit(self, kind):
        """A two-qubit state of the kind with the category it was built to
        have, or None for a draw too close to another category."""
        o, rng = self.oracle, self.rng
        if kind == "pure-entangled":
            v = o.random_pure_vec(4, rng)
            if 2 * abs(v[0] * v[3] - v[1] * v[2]) < 0.3:   # concurrence
                return None
            return {"dims": [2, 2], "pure": _pairs(v)}, StateFile(None, (2, 2), kind, ref.ket_matrix(v), "PureEntangled")
        if kind == "pure-product":
            v = np.kron(o.random_pure_vec(2, rng), o.random_pure_vec(2, rng))
            return self._matrix_file((2, 2), kind, _hermitian(np.outer(v, v.conj())), "PureProduct")
        if kind == "mixed-entangled":
            v = o.random_pure_vec(4, rng)
            p = rng.uniform(0.7, 0.95)
            m = _hermitian(p * np.outer(v, v.conj()) + (1 - p) * np.eye(4) / 4)
            if ref.min_pt_eigenvalue(m, 2, 2) > -1e-3:
                return None
            return self._matrix_file((2, 2), kind, m, "MixedEntangled")
        if kind in ("separable", "cc-mixture"):
            w = float(rng.uniform(0.2, 0.8))
            terms = [[w, self._bloch(0.3, 1.0), self._bloch(0.3, 1.0)],
                     [1 - w, self._bloch(0.3, 1.0), self._bloch(0.3, 1.0)]]
            if kind == "cc-mixture":
                return self._family_file((2, 2), kind, "cc-mixture", {"terms": terms}, "ClassicallyCorrelated")
            m = _hermitian(ref.family_matrix("cc-mixture", {"terms": terms}))
            return self._matrix_file((2, 2), kind, m, "ClassicallyCorrelated")
        if kind == "uncorrelated":
            m = np.kron(ref.bloch_qubit(self._bloch(0.1, 0.9)), ref.bloch_qubit(self._bloch(0.1, 0.9)))
            return self._matrix_file((2, 2), kind, _hermitian(m), "Uncorrelated")
        if kind == "mixed-random":
            m = _hermitian(o.random_density_mat(4, rng, rank=int(rng.integers(2, 5))))
            category = "MixedEntangled" if ref.min_pt_eigenvalue(m, 2, 2) < -1e-6 else "ClassicallyCorrelated"
            return self._matrix_file((2, 2), kind, m, category)
        if kind == "werner":
            p, theta = float(rng.uniform(0.05, 0.95)), float(rng.uniform(-2, 2))
            thr = ref.werner_ph_threshold(p, theta)
            if abs(thr - 1.0) < 0.05:
                return None
            category = "MixedEntangled" if thr > 1.0 else "ClassicallyCorrelated"
            return self._family_file((2, 2), kind, "generalized-werner", {"p": p, "theta": theta}, category)
        if kind == "rashid":
            params = {"theta": float(rng.uniform(-1.5, 1.5))}
            return self._family_file((2, 2), kind, "rashid", params, "PureEntangled")
        if kind == "bell":
            params = {"which": str(rng.choice(sorted(ref.BELL)))}
            return self._family_file((2, 2), kind, "bell", params, "PureEntangled")
        raise ValueError(f"unknown two-qubit kind {kind!r}")

    # -- the timed part --

    def warm_up(self) -> None:
        self.run_round()

    def _process(self, sf: StateFile) -> bool:
        cli, stem = self.mp.cli, self.outdir / sf.path.stem
        for command in sf.commands:
            if cli.main([command, "--input", str(sf.path), "--output", f"{stem}.{command}.json"]) != 0:
                return False
        rho = cli.load_state(str(sf.path))
        sf.result["roundtrip"] = self.mp.bloch.reconstruct(self.mp.bloch.decompose(rho)).matrix
        if rho.dims == (2, 2):
            for kind in EXCHANGE_KINDS:
                try:
                    sf.result[kind] = self.mp.exchange.project_exchange(rho, kind)
                except self.mp.exchange.NullProjectionError:
                    sf.result[kind] = None
        return True

    def run_round(self, idle=lambda: None) -> tuple[list[float], int]:
        latencies, failed = [], 0
        for sf in self.files:
            t0 = time.perf_counter()
            try:
                ok = self._process(sf)
            except Exception:  # a traceback is a failed operation, not the end of the run
                ok = False
            latencies.append(time.perf_counter() - t0)
            failed += not ok
            sf.result["ok"] = ok
            idle()
        digest = hashlib.sha256()
        for path in sorted(self.outdir.iterdir()):
            digest.update(path.read_bytes())
        self.digests.add(digest.hexdigest())
        return latencies, failed

    def family_calls(self) -> list[tuple[str, dict]]:
        """Family constructions per round: one per ``load_state`` of a spec file."""
        return [sf.family for sf in self.files if sf.family for _ in range(len(sf.commands) + 1)]

    # -- checks --

    def check(self) -> list[str]:
        errors: list[str] = []
        if len(self.digests) != 1:
            errors.append(f"{len(self.digests)} distinct report sets across rounds")
        for sf in self.files:
            if sf.result.get("ok"):
                errors += [f"{sf.path.name}: {e}" for e in self._check_file(sf)]
        return errors

    def _check_file(self, sf: StateFile) -> list[str]:
        errors = []
        stem = self.outdir / sf.path.stem
        dec = ref.decomposition(sf.matrix, sf.dims)
        report = json.loads(Path(f"{stem}.decompose.json").read_text())
        if report["dims"] != list(sf.dims):
            errors.append(f"decompose dims {report['dims']}")
        for key, value in dec.items():
            got = report[key]
            if key == "coherence_vectors":      # one vector per party, of unequal lengths
                got, value = dict(enumerate(got)), dict(enumerate(value))
            if (got is None) != (value is None):
                errors.append(f"decompose {key} present={got is not None}, expected {value is not None}")
            elif isinstance(value, dict):
                if set(got) != set(value):
                    errors.append(f"decompose {key} keys {sorted(got)}")
                else:
                    errors += [f"decompose {key}[{k}] off by {err:.2e}" for k in value
                               if (err := ref.max_abs_diff(got[k], value[k])) > TENSOR_TOL]
            elif value is not None and (err := ref.max_abs_diff(got, value)) > TENSOR_TOL:
                errors.append(f"decompose {key} off by {err:.2e}")
        got = json.loads(Path(f"{stem}.measure.json").read_text())
        expected = ref.measures(sf.matrix, sf.dims, dec)
        if set(got) != set(expected):
            errors.append(f"measure keys {sorted(got)}, expected {sorted(expected)}")
        else:
            for k, want in expected.items():
                value = got[k]
                if k == "concurrence":
                    # sqrt(2 (1 - Tr rho_A^2)) turns roundoff of 1e-16 at a
                    # product state into 1e-8, so compare the squares.
                    value, want = value * value, want * want
                if not abs(value - want) <= TENSOR_TOL:
                    errors.append(f"measure {k} = {got[k]!r}, expected {expected[k]!r}")
        rt_err = ref.max_abs_diff(sf.result["roundtrip"], sf.matrix)
        if rt_err > ROUNDTRIP_TOL:
            errors.append(f"reconstruct(decompose) off the input by {rt_err:.2e}")
        if sf.dims == (2, 2):
            errors += self._check_two_qubit(sf, json.loads(Path(f"{stem}.classify.json").read_text()))
        return errors

    def _check_two_qubit(self, sf: StateFile, rep: dict) -> list[str]:
        errors = []
        pt_min = sf.expected_pt_min
        if rep["category"] != sf.category:
            errors.append(f"category {rep['category']}, built as {sf.category}")
        if rep["ph_entangled"] != (pt_min < -1e-10):
            errors.append(f"PH verdict {rep['ph_entangled']} against PT minimum {pt_min:.3e}")
        if abs(rep["min_pt_eigenvalue"] - pt_min) > TENSOR_TOL:
            errors.append(f"PT minimum {rep['min_pt_eigenvalue']!r}, expected {pt_min!r}")
        if rep["nsv_count"] != sf.expected_nsv:
            errors.append(f"NSV count {rep['nsv_count']}, expected {sf.expected_nsv}")
        if abs(rep["purity"] - ref.purity(sf.matrix)) > ROUNDTRIP_TOL:
            errors.append(f"purity {rep['purity']!r}")
        for sign, kind in zip((1, -1), EXCHANGE_KINDS):
            weight, projected = ref.exchange_projection(sf.matrix, sign)
            got = sf.result[kind]
            if got is None:
                if weight > 1e-12:
                    errors.append(f"{kind} projection refused at weight {weight:.3e}")
            elif (abs(got.weight - weight) > ROUNDTRIP_TOL
                  or ref.max_abs_diff(got.projected.matrix, projected) > TENSOR_TOL):
                errors.append(f"{kind} projection off (weight {got.weight!r}, expected {weight!r})")
        return errors


WORKLOADS = {w.name: w for w in (WernerSweep, QutritSweep, StateFiles)}
