"""Rewrite outputs.json, the stdout corpus, from the code in ``src``, and print
the id of each entry whose exit code, stderr or stdout bytes changed.

    PYTHONPATH=src python tests/golden/regen.py

Each entry is one ``cli.main`` command: its argv, exit code, stderr and
stdout.  The state files the commands read are one table, ``inputs``, by file
name; a seeded file keeps the text it was first recorded with.  The float
bytes of stdout depend on the numpy build, its BLAS and the kernels a
DYNAMIC_ARCH OpenBLAS picks for the CPU, so the corpus records
:func:`environment`; ``tests/test_cli.py`` compares each float of stdout
within a tolerance and the rest of the text exactly on every host, and the
bytes as well on a host that reports the same one.  Help texts are written
at HELP_COLUMNS.
"""

import ctypes
import io
import json
import os
import platform
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from math import prod
from pathlib import Path

import numpy as np

from mpcorr.cli import main

CORPUS = Path(__file__).with_name("outputs.json")
HELP_COLUMNS = "80"
SEED = 20261020
SHAPES = [(2, 2), (2, 3), (3, 3), (2, 4), (2, 2, 2), (3, 3, 3), (2, 2, 2, 2), (2, 3, 4)]
BIPARTITE = "ec,concurrence,entropy,nsv,ph,xi,nanb,purity,pt_min"
SWEEPS = {
    "werner-21x21": ("generalized-werner", ["p=0:1:21", "theta=-2:2:21"], "ec,nsv,ph,xi,nanb,purity,pt_min"),
    "qutrit-21x21": ("tripartite-qutrit-e3", ["theta1=-2:2:21", "theta2=-2:2:21"], "ec,ed,purity"),
    "rashid-601": ("rashid", ["theta=-3:3:601"], BIPARTITE),
    "ghz-parties": ("ghz", ["parties=2:5:4", "level=2:2:1"], "ec"),
}
FAMILIES = {
    "bell": {"which": "psi-"},
    "rashid": {"theta": 0.3},
    "cc-mixture": {"terms": [[0.5, [0, 0, 1], [0, 0, -1]], [0.5, [1, 0, 0], [-1, 0, 0]]]},
    "generalized-werner": {"p": 0.8, "theta": 0.3},
    "ghz": {"parties": 3, "level": 3},
    "tripartite-qutrit-e3": {"theta1": 0.2, "theta2": -0.7},
}
STATE_COMMANDS = ("decompose", "measure", "classify")


def _openblas_core():
    """The kernel set an OpenBLAS bundled in numpy's wheel chose for this CPU,
    or None where numpy bundles none."""
    for path in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename", "openblas_get_corename"):
            if hasattr(lib, name):
                corename = getattr(lib, name)
                corename.argtypes, corename.restype = (), ctypes.c_char_p
                return corename().decode()
    return None


@cache
def environment() -> dict:
    """What the bytes of stdout depend on besides the code: the Python
    release (help texts), numpy, its BLAS and the OpenBLAS kernel set."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):       # numpy < 1.26 has no mode="dicts"
        blas = None
    return {"python": ".".join(platform.python_version_tuple()[:2]), "numpy": np.__version__, "blas": blas,
            "openblas_core": _openblas_core()}


def run(argv: list, inputs: dict) -> tuple:
    """Exit code, stdout and stderr of ``main(argv)`` in the current
    directory, after writing there each of ``inputs`` that argv names."""
    for name in inputs.keys() & set(argv):
        Path(name).write_text(inputs[name], encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _pairs(values) -> list:
    return [[z.real, z.imag] for z in values]


def _state_text(k: int, dims: tuple, kind: str) -> str:
    rng = np.random.default_rng([SEED, k])
    d = prod(dims)
    if kind == "pure":
        vec = rng.normal(size=d) + 1j * rng.normal(size=d)
        return json.dumps({"dims": list(dims), "pure": _pairs((vec / np.linalg.norm(vec)).tolist())})
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / (2 * np.trace(rho).real)
    return json.dumps({"dims": list(dims), "matrix": [_pairs(row) for row in rho.tolist()]})


def commands(recorded: dict) -> tuple:
    """(inputs, [(id, argv)]) of the corpus; a seeded file not in ``recorded``
    is generated."""
    inputs, entries = {}, []
    for name, (family, grids, outputs) in SWEEPS.items():
        argv = ["sweep", "--family", family, *[a for grid in grids for a in ("--param", grid)], "--outputs", outputs]
        entries.append((f"sweep-{name}", argv))
    for family, params in FAMILIES.items():
        argv = ["family", "--family", family, *[a for k, v in params.items() for a in ("--set", f"{k}={json.dumps(v)}")]]
        entries.append((f"family-{family}", argv))
    for k, (dims, kind) in enumerate((dims, kind) for dims in SHAPES for kind in ("pure", "mixed")):
        name = f"{kind}-{'x'.join(map(str, dims))}.json"
        inputs[name] = recorded.get(name) or _state_text(k, dims, kind)
        entries += [(f"{command}-{name[:-5]}", [command, "--input", name]) for command in STATE_COMMANDS]
    for family, params in FAMILIES.items():
        name = f"spec-{family}.json"
        inputs[name] = json.dumps({"family": family, "params": params})
        entries.append((f"decompose-{name[:-5]}", ["decompose", "--input", name]))
    entries.append(("help", ["--help"]))
    entries += [(f"help-{command}", [command, "--help"]) for command in (*STATE_COMMANDS, "family", "sweep")]
    return inputs, entries


def _dump(corpus: dict) -> str:
    """The corpus as JSON with one input and one entry a line."""
    inputs = ",\n".join(f"  {json.dumps(name)}: {json.dumps(text)}" for name, text in corpus["inputs"].items())
    entries = ",\n".join(f"  {json.dumps(entry)}" for entry in corpus["entries"])
    return (f'{{\n "environment": {json.dumps(corpus["environment"])},\n "inputs": {{\n{inputs}\n }},\n'
            f' "entries": [\n{entries}\n ]\n}}\n')


def regenerate() -> None:
    old = json.loads(CORPUS.read_text(encoding="utf-8")) if CORPUS.exists() else {"inputs": {}, "entries": []}
    inputs, listed = commands(old["inputs"])
    os.environ["COLUMNS"] = HELP_COLUMNS
    entries = []
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for entry_id, argv in listed:
                code, out, err = run(argv, inputs)
                entries.append({"id": entry_id, "argv": argv, "code": code, "stderr": err, "stdout": out})
        finally:
            os.chdir(cwd)
    recorded = {entry["id"]: entry for entry in old["entries"]}
    for entry in entries:
        if recorded.get(entry["id"]) != entry:
            print(entry["id"])
    CORPUS.write_text(_dump({"environment": environment(), "inputs": inputs, "entries": entries}), encoding="utf-8")


if __name__ == "__main__":
    regenerate()
