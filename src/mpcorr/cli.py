"""Command-line interface.

Subcommands:

* ``decompose``  state JSON -> decomposition report JSON
* ``measure``    state JSON -> measure-set JSON
* ``classify``   two-qubit state JSON -> classification report JSON
* ``family``     instantiate a named state family -> state JSON
* ``sweep``      grid-evaluate outputs over a family's parameters -> CSV

Exit codes: 0 ok, 1 input parse error, 2 state validation failure (residuals
as JSON on stderr), 3 unsupported party structure, 4 bad family/sweep spec.

Output is deterministic: floats are serialized as Python's shortest
round-trip decimals, CSV uses comma separators and LF line endings, and sweep
rows follow the declared parameter-grid order.  A sweep evaluates its grid in
one thread, as stacks of at most SWEEP_CHUNK states; each cell depends on its
own point only, so the bytes do not depend on how the grid is split into
chunks or into commands.
"""

import argparse
import json
import sys
from functools import cache
from itertools import islice, product
from math import prod

import numpy as np

from . import families
from .bloch import decompose, decompose_stack
from .classify import (BLOCH_DEGENERACY_TOL, NSV_ABS_FLOOR, NSV_REL_FACTOR, PT_NEGATIVITY_TOL,
                       classify_two_qubit)
from .density import DensityMatrix, StateValidationError, purity, state_from_json_dict, state_to_json_dict
from .measures import (QUAD_WEIGHT, TRIPLE_WEIGHTS, MixedStateError, _pair_weight, concurrence_pure,
                       entanglement_entropy, measure_set)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_UNSUPPORTED_SHAPE = 3
EXIT_BAD_SPEC = 4

# name -> (scalar builder, parameter names, array form): None, or a function
# from one array per parameter to a (B, d, d) stack and the family's dims.
FAMILY_BUILDERS = {
    "bell": (families.bell, {"which"}, None),
    "rashid": (families.rashid, {"theta"}, (families.rashid_states, (2, 2))),
    "cc-mixture": (families.cc_mixture, {"terms"}, None),
    "generalized-werner": (families.generalized_werner, {"p", "theta"},
                           (families.generalized_werner_states, (2, 2))),
    "ghz": (families.ghz, {"parties", "level"}, None),
    "tripartite-qutrit-e3": (families.tripartite_qutrit_e3, {"theta1", "theta2"},
                             (families.tripartite_qutrit_e3_states, (3, 3, 3))),
}

SWEEP_CHUNK = 1024                      # grid points per stack of states


def _call_builder(name: str, builder, params: dict):
    try:
        return builder(**params)
    except (TypeError, ArithmeticError) as exc:
        raise ValueError(f"bad parameters for family {name!r}: {exc}") from exc


def build_family(name: str, params: dict) -> DensityMatrix:
    if name not in FAMILY_BUILDERS:
        raise ValueError(f"unknown family {name!r}; known: {sorted(FAMILY_BUILDERS)}")
    builder, allowed, _ = FAMILY_BUILDERS[name]
    unknown = set(params) - allowed
    if unknown:
        raise ValueError(f"unknown parameter(s) {sorted(unknown)} for family {name!r}; allowed: {sorted(allowed)}")
    return _call_builder(name, builder, params)


def load_state(path: str) -> DensityMatrix:
    """Read a state JSON file; family-spec JSON is accepted too."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if isinstance(obj, dict) and "family" in obj:
        params = obj.get("params", {})
        if not isinstance(params, dict):
            raise ValueError(f'family spec "params" must be an object, got {type(params).__name__}')
        return build_family(obj["family"], params)
    return state_from_json_dict(obj)


def _sum_squares(c: np.ndarray) -> np.ndarray:
    return (c * c).sum(axis=tuple(range(1, c.ndim)))


def _sector_norm(parties: int, weight):
    """weight(dims) times the summed squares of the correlation tensors on
    ``parties`` parties: the pairwise sum for ec, D for ed, E for ee."""
    return lambda dims, mats, vectors, sectors: weight(dims) * sum(
        _sum_squares(c) for s, c in sectors.items() if len(s) == parties)


def _ph(dims, mats, vectors, sectors):
    # 1 where the partial transpose on the second party has a negative eigenvalue
    pt = mats.reshape((len(mats),) + dims + dims).swapaxes(2, 4).reshape(mats.shape)
    return (np.linalg.eigvalsh(pt).min(axis=1) < -PT_NEGATIVITY_TOL).astype(int)


def _nsv(dims, mats, vectors, sectors):
    sv = np.linalg.svd(sectors[(0, 1)], compute_uv=False)
    return (sv > np.maximum(NSV_ABS_FLOOR, NSV_REL_FACTOR * sv[:, :1])).sum(axis=1)


def _nanb(dims, mats, vectors, sectors):
    return (vectors[0] * vectors[1]).sum(axis=1)


def _xi(dims, mats, vectors, sectors):
    (na, nb), c = vectors, sectors[(0, 1)]
    na_nb = _nanb(dims, mats, vectors, sectors)
    with np.errstate(divide="ignore", invalid="ignore"):
        xi = np.trace(c, axis1=1, axis2=2) - np.einsum("bi,bij,bj->b", na, c, nb) / na_nb
    return np.where(np.abs(na_nb) <= BLOCH_DEGENERACY_TOL, np.nan, xi)


def _per_state(measure):
    return lambda dims, mats, vectors, sectors: [measure(DensityMatrix(dims, m)) for m in mats]


# Sweep outputs: name -> (what it needs, test on dims, column function).  A
# column function maps a (B, d, d) stack, its coherence vectors and its
# correlation tensors (see bloch.decompose_stack) to B values.  Concurrence
# and entropy go state by state, keeping their purity check; xi is NaN where
# n_A . n_B degenerates.
OUTPUTS = {
    "ec": ("a decomposable state", lambda dims: True, _sector_norm(2, lambda dims: _pair_weight(dims[0], dims[-1]))),
    "ed": ("three qubits or three qutrits", lambda dims: dims in ((2, 2, 2), (3, 3, 3)),
           _sector_norm(3, lambda dims: TRIPLE_WEIGHTS[dims[0]])),
    "ee": ("four qubits", lambda dims: dims == (2, 2, 2, 2), _sector_norm(4, lambda dims: QUAD_WEIGHT)),
    "concurrence": ("a bipartite state", lambda dims: len(dims) == 2, _per_state(concurrence_pure)),
    "entropy": ("a bipartite state", lambda dims: len(dims) == 2, _per_state(entanglement_entropy)),
    "nsv": ("a bipartite state", lambda dims: len(dims) == 2, _nsv),
    "ph": ("a bipartite state", lambda dims: len(dims) == 2, _ph),
    "xi": ("a two-qubit state", lambda dims: dims == (2, 2), _xi),
    "nanb": ("a two-qubit state", lambda dims: dims == (2, 2), _nanb),
}


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def decomposition_report(rho: DensityMatrix) -> dict:
    dec = decompose(rho)
    report = {
        "dims": list(rho.dims),
        "coherence_vectors": [v.tolist() for v in dec.coherence_vectors],
        "pair_correlations": {
            f"{i}-{j}": c.tolist() for (i, j), c in sorted(dec.pair_correlations.items())
        },
        "triple_correlations": None,
        "quad_correlations": None,
    }
    if dec.triple_correlations is not None:
        report["triple_correlations"] = {
            "-".join(map(str, trip)): d.tolist()
            for trip, d in sorted(dec.triple_correlations.items())
        }
    if dec.quad_correlations is not None:
        report["quad_correlations"] = dec.quad_correlations.tolist()
    return report


def _load(path: str) -> tuple[DensityMatrix | None, int]:
    """The state in a file, or None and the exit code after reporting why."""
    try:
        return load_state(path), EXIT_OK
    except StateValidationError as exc:
        sys.stderr.write(_dump_json({"error": exc.kind, "residual": exc.residual}))
        return None, EXIT_VALIDATION
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return None, EXIT_PARSE


def cmd_decompose(args) -> int:
    rho, code = _load(args.input)
    if rho is None:
        return code
    if not 2 <= rho.num_parties <= 4:
        sys.stderr.write(f"error: decomposition supports 2 to 4 parties, got dims {rho.dims}\n")
        return EXIT_UNSUPPORTED_SHAPE
    try:
        report = decomposition_report(rho)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_UNSUPPORTED_SHAPE
    _write_text(args.output, _dump_json(report))
    return EXIT_OK


def cmd_measure(args) -> int:
    rho, code = _load(args.input)
    if rho is None:
        return code
    try:
        ms = measure_set(rho)
    except (ValueError, MixedStateError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_UNSUPPORTED_SHAPE
    report = {
        key: value
        for key, value in (
            ("e_c", ms.e_c), ("e_d", ms.e_d), ("e_e", ms.e_e),
            ("concurrence", ms.concurrence), ("entropy_bits", ms.entropy_bits),
        )
        if value is not None
    }
    _write_text(args.output, _dump_json(report))
    return EXIT_OK


def cmd_classify(args) -> int:
    rho, code = _load(args.input)
    if rho is None:
        return code
    if rho.dims != (2, 2):
        sys.stderr.write(f"error: classification supports two-qubit states (dims [2, 2]), got dims {list(rho.dims)}\n")
        return EXIT_UNSUPPORTED_SHAPE
    rep = classify_two_qubit(rho)
    inv = None
    if rep.invariants is not None:
        inv = {
            "xi": rep.invariants.xi,
            "na_dot_nb": rep.invariants.na_dot_nb,
            "na_dot_c_nb": rep.invariants.na_dot_c_nb,
        }
    report = {
        "category": rep.category.value,
        "nsv_count": rep.nsv_count,
        "ph_entangled": rep.ph_entangled,
        "min_pt_eigenvalue": rep.min_pt_eigenvalue,
        "invariants": inv,
        "purity": purity(rho),
    }
    _write_text(args.output, _dump_json(report))
    return EXIT_OK


def _parse_set(pairs) -> dict:
    params = {}
    for item in pairs or []:
        if "=" not in item:
            raise ValueError(f"--set expects name=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


def cmd_family(args) -> int:
    try:
        params = _parse_set(args.set)
        rho = build_family(args.family, params)
    except (TypeError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_SPEC
    _write_text(args.output, _dump_json(state_to_json_dict(rho)))
    return EXIT_OK


def _parse_grid(spec: str) -> tuple[str, np.ndarray]:
    if "=" not in spec:
        raise ValueError(f"--param expects name=start:stop:count, got {spec!r}")
    name, rest = spec.split("=", 1)
    parts = rest.split(":")
    if len(parts) != 3:
        raise ValueError(f"--param expects name=start:stop:count, got {spec!r}")
    start, stop = float(parts[0]), float(parts[1])
    if not (np.isfinite(start) and np.isfinite(stop)):
        raise ValueError(f"grid start and stop must be finite, got {spec!r}")
    count = int(parts[2])
    if count < 1:
        raise ValueError(f"grid count must be >= 1, got {count}")
    return name, np.linspace(start, stop, count)


def _state_stacks(family: str, params: dict[str, np.ndarray]):
    """(indices, dims, (B, d, d) stack) per party structure of the states at
    the points ``params``; a family without an array form goes point by point."""
    builder, _, stacked = FAMILY_BUILDERS[family]
    if stacked is not None:
        states, dims = stacked
        return [(slice(None), dims, _call_builder(family, states, params))]
    groups: dict[tuple[int, ...], list] = {}
    for i, values in enumerate(zip(*params.values())):
        rho = _call_builder(family, builder, dict(zip(params, values)))
        groups.setdefault(rho.dims, []).append((i, rho.matrix))
    return [([i for i, _ in group], dims, np.stack([m for _, m in group])) for dims, group in groups.items()]


def _sweep_rows(family: str, grids, outputs) -> list[str]:
    """CSV rows of the grid in row-major order, SWEEP_CHUNK points at a time."""
    points = product(*[vals for _, vals in grids])
    rows = []
    for _ in range(0, prod(len(vals) for _, vals in grids), SWEEP_CHUNK):
        chunk = np.array(list(islice(points, SWEEP_CHUNK)))
        cells = np.empty((len(chunk), len(outputs)), dtype=object)
        for idx, dims, mats in _state_stacks(family, {name: chunk[:, k] for k, (name, _) in enumerate(grids)}):
            vectors, sectors = decompose_stack(dims, mats)
            for j, name in enumerate(outputs):
                needs, applies, column = OUTPUTS[name]
                if not applies(dims):
                    raise ValueError(f"{name} output needs {needs}, got dims {dims}")
                cells[idx, j] = np.asarray(column(dims, mats, vectors, sectors)).tolist()
        # tolist() gives Python ints and floats, whose repr is the shortest round-trip decimal
        rows += [",".join(map(repr, point + row)) for point, row in zip(chunk.tolist(), cells.tolist())]
    return rows


def cmd_sweep(args) -> int:
    try:
        grids = [_parse_grid(spec) for spec in args.param or []]
        if not grids:
            raise ValueError("sweep needs at least one --param grid")
        names = [name for name, _ in grids]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate parameter names in {names}")
        outputs = [o.strip() for o in args.outputs.split(",") if o.strip()]
        if not outputs:
            raise ValueError("sweep needs at least one output")
        for o in outputs:
            if o not in OUTPUTS:
                raise ValueError(f"unknown output {o!r}; known: {tuple(OUTPUTS)}")
        if args.family not in FAMILY_BUILDERS:
            raise ValueError(f"unknown family {args.family!r}; known: {sorted(FAMILY_BUILDERS)}")
        _, allowed, _ = FAMILY_BUILDERS[args.family]
        for name in names:
            if name not in allowed:
                raise ValueError(f"family {args.family!r} has no parameter {name!r}; allowed: {sorted(allowed)}")
        rows = _sweep_rows(args.family, grids, outputs)
    except (TypeError, ValueError, MixedStateError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_SPEC
    _write_text(args.output, "\n".join([",".join(names + outputs)] + rows) + "\n")
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpcorr",
        description="Correlation-tensor decomposition, correlation measures, and "
                    "entanglement classification for multipartite qudit states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="decompose a state into coherence vectors and correlation tensors")
    p.add_argument("--input", required=True, help="state JSON file (or family-spec JSON)")
    p.add_argument("--output", default="-", help="report JSON path (default stdout)")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("measure", help="compute the correlation measures of a state")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("classify", help="classify a two-qubit state")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("family", help="instantiate a named state family")
    p.add_argument("--family", required=True, choices=sorted(FAMILY_BUILDERS))
    p.add_argument("--set", action="append", metavar="NAME=VALUE",
                   help="family parameter (repeatable); values parsed as JSON when possible")
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("sweep", help="evaluate outputs over a parameter grid, emit CSV")
    p.add_argument("--family", required=True)
    p.add_argument("--param", action="append", metavar="NAME=START:STOP:COUNT",
                   help="parameter grid (repeatable, declared order = row-major order)")
    p.add_argument("--outputs", required=True,
                   help=f"comma-separated list from {', '.join(OUTPUTS)}")
    p.add_argument("--output", default="-", help="CSV path (default stdout)")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
