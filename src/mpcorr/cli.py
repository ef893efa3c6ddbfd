"""Command-line interface.

Subcommands:

* ``decompose``  state JSON -> decomposition report JSON
* ``measure``    state JSON -> measure-set JSON
* ``classify``   two-qubit state JSON -> classification report JSON
* ``family``     instantiate a named state family -> state JSON
* ``sweep``      grid-evaluate outputs over a family's parameters -> CSV

Exit codes: 0 ok, 1 usage error or an input file that cannot be read or
parsed or an output file that cannot be written, 2 state validation failure
(residuals as JSON on stderr), 3 unsupported party structure, 4 bad
family/sweep spec.  Each command returns its text; :func:`main` alone loads
its input, writes its text and maps a failure to the code of the phase it
happened in (2 for a state that fails validation, in any phase).  Every
failure prints one line to stderr (the residual object for 2), never a
traceback, and writes no output file.

The families, their parameters and their states come from the one table in
:mod:`families`, and the sweep outputs are the rows of the one table of
quantities, :data:`measures.COLUMNS`; this module names neither.  Output is
deterministic: floats are serialized as Python's shortest round-trip decimals,
CSV uses comma separators and LF line endings, and sweep rows follow the
declared parameter-grid order.  A sweep evaluates its grid in one thread, as
stacks of at most SWEEP_CHUNK states from :func:`families.family_stacks`; a
point is its flat index into the grid, and each grid value is formatted once
per sweep.  Each cell depends on its own point only, so the bytes do not depend
on how the grid is split into chunks or into commands.  The sweepable families
build real stacks, for which the moment map skips the products of the imaginary
part; a cell has the bytes of the same state given as a complex stack.

On glibc, a process that has run :func:`main` keeps up to 64 MiB of freed
memory for reuse, so the next chunk or command does not fault a freed stack's
pages in again, and its RSS stays at its high-water mark until exit.
"""

import argparse
import ctypes
import json
import sys
from dataclasses import asdict
from functools import cache
from math import prod

import numpy as np

from .bloch import decompose
from .classify import classify_two_qubit
from .density import DensityMatrix, StateValidationError, state_from_json_dict, state_to_json_dict
from .families import FAMILY_BUILDERS, build_family, family_row, family_stacks
from .measures import COLUMNS, Context, evaluate, measure_set

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_UNSUPPORTED_SHAPE = 3
EXIT_BAD_SPEC = 4

SWEEP_CHUNK = 1024                      # grid points per stack of states
_GRID_USAGE = "--param expects name=start:stop:count"


def load_state(path: str) -> DensityMatrix:
    """Read a state JSON file, or a family spec, whose fields only :func:`families.build_family` checks.
    Whatever reading, parsing or building the state raises passes through, for
    :func:`main` to map to exit 1 (2 for a StateValidationError)."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if isinstance(obj, dict) and "family" in obj:
        return build_family(obj["family"], obj.get("params", {}))
    return state_from_json_dict(obj)


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def decomposition_report(rho: DensityMatrix) -> dict:
    """Vectors and tensors of a state of two to four parties; this format has
    no key for the four-party sectors of a larger state, nor for one party."""
    if not 2 <= rho.num_parties <= 4:
        size = "at most four" if rho.num_parties > 4 else "two or more"
        raise ValueError(f"the decompose report covers {size} parties, got dims {list(rho.dims)}")
    dec = decompose(rho)
    n = rho.num_parties

    def keyed(k):
        return {"-".join(map(str, s)): c.tolist() for s, c in sorted(dec.correlations.items()) if len(s) == k}

    return {
        "dims": list(rho.dims),
        "coherence_vectors": [v.tolist() for v in dec.coherence_vectors],
        "pair_correlations": keyed(2),
        "triple_correlations": keyed(3) if n >= 3 else None,
        "quad_correlations": dec.correlations[(0, 1, 2, 3)].tolist() if n == 4 else None,
    }


def _classification_report(rho: DensityMatrix) -> dict:
    rep = classify_two_qubit(rho)
    # the report's fields in their declared order, invariants as an object or null
    return {**asdict(rep), "category": rep.category.value}


# state command -> (help, report of the state in its --input file)
_STATE_COMMANDS = {
    "decompose": ("decompose a state into coherence vectors and correlation tensors", decomposition_report),
    "measure": ("compute the correlation measures of a state",
                lambda rho: {key: value for key, value in asdict(measure_set(rho)).items() if value is not None}),
    "classify": ("classify a two-qubit state", _classification_report),
}


def _cmd_state(args) -> str:
    return _dump_json(args.report(args.state))


def _named(items, usage: str, read) -> dict:
    """{NAME: read(value, item)} of ``--set`` or ``--param`` items; refuses an item without '=' and a repeated NAME."""
    pairs = []
    for item in items or []:
        name, eq, value = item.partition("=")
        if not eq:
            raise ValueError(f"{usage}, got {item!r}")
        pairs.append((name, read(value, item)))
    if len(dict(pairs)) != len(pairs):
        raise ValueError(f"duplicate parameter names in {[name for name, _ in pairs]}")
    return dict(pairs)


def _json_or_text(value: str, _item: str):
    try:
        return json.loads(value)
    except json.JSONDecodeError:
        return value


def cmd_family(args) -> str:
    params = _named(args.set, "--set expects name=value", _json_or_text)
    return _dump_json(state_to_json_dict(build_family(args.family, params)))


def _grid(value: str, item: str) -> np.ndarray:
    parts = value.split(":")
    if len(parts) != 3:
        raise ValueError(f"{_GRID_USAGE}, got {item!r}")
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    if not (np.isfinite(start) and np.isfinite(stop)):
        raise ValueError(f"grid start and stop must be finite, got {item!r}")
    if count < 1:
        raise ValueError(f"grid count must be >= 1, got {count}")
    return np.linspace(start, stop, count)


def _sweep_rows(family: str, grids: dict, outputs) -> list[str]:
    """CSV rows of the grid in row-major order, SWEEP_CHUNK flat indices at a time."""
    shape, size = tuple(map(len, grids.values())), prod(map(len, grids.values()))
    # tolist() gives Python ints and floats, whose repr is the shortest round-trip decimal
    texts = [np.array(list(map(repr, grid.tolist())), dtype=object) for grid in grids.values()]
    rows = []
    for start in range(0, size, SWEEP_CHUNK):
        index = np.unravel_index(np.arange(start, min(start + SWEEP_CHUNK, size)), shape)
        columns = [np.empty(len(index[0]), dtype=object) for _ in outputs]
        for idx, dims, mats in family_stacks(family, {name: grid[i] for (name, grid), i in zip(grids.items(), index)}):
            for column, values in zip(columns, evaluate(Context(dims, mats), outputs).values()):
                column[idx] = list(map(repr, np.asarray(values).tolist()))
        rows += map(",".join, zip(*(text[i] for text, i in zip(texts, index)), *columns))
    return rows


def cmd_sweep(args) -> str:
    grids = _named(args.param, _GRID_USAGE, _grid)
    family_row(args.family, grids, sweep=True)
    if not grids:
        raise ValueError("sweep needs at least one --param grid")
    outputs = [o.strip() for o in args.outputs.split(",") if o.strip()]
    if not outputs:
        raise ValueError("sweep needs at least one output")
    if len(set(outputs)) != len(outputs):
        raise ValueError(f"duplicate output names in {outputs}")
    return "\n".join([",".join([*grids, *outputs])] + _sweep_rows(args.family, grids, outputs)) + "\n"


class _Parser(argparse.ArgumentParser):
    """Raises ValueError on a usage error, for :func:`main` to report."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mpcorr",
        description="Correlation-tensor decomposition, correlation measures, and "
                    "entanglement classification for multipartite qudit states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (text, report) in _STATE_COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--input", required=True, help="state JSON file (or family-spec JSON)")
        p.set_defaults(func=_cmd_state, report=report, failure_code=EXIT_UNSUPPORTED_SHAPE)

    p = sub.add_parser("family", help="instantiate a named state family")
    p.add_argument("--family", required=True, help=f"one of {', '.join(sorted(FAMILY_BUILDERS))}")
    p.add_argument("--set", action="append", metavar="NAME=VALUE",
                   help="family parameter (repeatable); values parsed as JSON when possible")
    p.set_defaults(func=cmd_family, failure_code=EXIT_BAD_SPEC)

    p = sub.add_parser("sweep", help="evaluate outputs over a parameter grid, emit CSV")
    p.add_argument("--family", required=True)
    p.add_argument("--param", action="append", metavar="NAME=START:STOP:COUNT",
                   help="parameter grid (repeatable, declared order = row-major order)")
    p.add_argument("--outputs", required=True,
                   help=f"comma-separated list from {', '.join(COLUMNS)}")
    p.set_defaults(func=cmd_sweep, failure_code=EXIT_BAD_SPEC)

    output_help = {"family": "state JSON path (default stdout)", "sweep": "CSV path (default stdout)"}
    for name, p in sub.choices.items():     # last, where each command's help lists it
        p.add_argument("--output", default="-", help=output_help.get(name, "report JSON path (default stdout)"))
    return parser


@cache
def _keep_freed_memory() -> None:
    """Set glibc's M_MMAP_THRESHOLD (-3) to 32 MiB, the top of its dynamic
    threshold on 64-bit, and M_TRIM_THRESHOLD (-1) to twice that, as its
    dynamic rule does; without libc.so.6 or its mallopt, do nothing."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)
    mallopt(-1, 64 << 20)


def _fail(exc: Exception, code: int) -> int:
    sys.stderr.write("error: " + " ".join(str(exc).splitlines()) + "\n")
    return code


def main(argv=None) -> int:
    """Run one command and return its exit code.  A failure is one ``error:``
    line on stderr and the code of its phase, held in ``code``: 1 while argv
    is parsed and ``--input`` loaded, the command's failure code while it
    runs, 1 while its output is written.  A state that fails validation
    gives 2, with its residual as a JSON object."""
    _keep_freed_memory()
    code = EXIT_PARSE
    try:
        args = build_parser().parse_args(argv)
        if "input" in args:
            args.state = load_state(args.input)
        code = args.failure_code
        text, code = args.func(args), EXIT_PARSE
        _write_text(args.output, text)
    except SystemExit as exc:           # --help; usage errors raise ValueError
        return exc.code
    except StateValidationError as exc:
        sys.stderr.write(_dump_json({"error": exc.kind, "residual": exc.residual}))
        return EXIT_VALIDATION
    except (OSError, TypeError, ValueError, ArithmeticError, RecursionError, MemoryError) as exc:
        return _fail(exc, code)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
