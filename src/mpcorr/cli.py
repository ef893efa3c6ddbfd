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
rows follow the declared parameter-grid order regardless of how many worker
threads evaluate them (capped by the MPCORR_THREADS environment variable).
"""

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import product

import numpy as np

from . import families
from .bloch import decompose
from .classify import (DegenerateBlochVectorsError, classify_two_qubit,
                       correlation_spectrum, ph_invariants, ph_test)
from .density import DensityMatrix, StateValidationError, purity, state_from_json_dict, state_to_json_dict
from .measures import (MixedStateError, concurrence_pure, e_c_bipartite,
                       e_c_multipartite, e_d, e_e, entanglement_entropy, measure_set)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_UNSUPPORTED_SHAPE = 3
EXIT_BAD_SPEC = 4

FAMILY_BUILDERS = {
    "bell": (families.bell, {"which"}),
    "rashid": (families.rashid, {"theta"}),
    "cc-mixture": (families.cc_mixture, {"terms"}),
    "generalized-werner": (families.generalized_werner, {"p", "theta"}),
    "ghz": (families.ghz, {"parties", "level"}),
    "tripartite-qutrit-e3": (families.tripartite_qutrit_e3, {"theta1", "theta2"}),
}

OUTPUT_NAMES = ("ec", "ed", "ee", "concurrence", "entropy", "nsv", "ph", "xi", "nanb")


def build_family(name: str, params: dict) -> DensityMatrix:
    if name not in FAMILY_BUILDERS:
        raise ValueError(f"unknown family {name!r}; known: {sorted(FAMILY_BUILDERS)}")
    builder, allowed = FAMILY_BUILDERS[name]
    unknown = set(params) - allowed
    if unknown:
        raise ValueError(f"unknown parameter(s) {sorted(unknown)} for family {name!r}; allowed: {sorted(allowed)}")
    try:
        return builder(**params)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"bad parameters for family {name!r}: {exc}") from exc


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


def evaluate_outputs(rho: DensityMatrix, outputs) -> dict:
    """Requested scalar outputs of one state; a single decomposition is
    shared across them.  xi is NaN where it is undefined (n_A . n_B = 0)."""
    dec = decompose(rho)
    n = rho.num_parties
    vals: dict[str, float | int] = {}
    for name in outputs:
        if name == "ec":
            if n == 2:
                vals[name] = e_c_bipartite(dec.pair(0, 1), rho.dims)
            else:
                vals[name] = e_c_multipartite(dec)
        elif name == "ed":
            vals[name] = e_d(dec)
        elif name == "ee":
            vals[name] = e_e(dec)
        elif name == "concurrence":
            vals[name] = concurrence_pure(rho)
        elif name == "entropy":
            vals[name] = entanglement_entropy(rho)
        elif name == "nsv":
            if n != 2:
                raise ValueError("nsv output needs a bipartite state")
            vals[name] = correlation_spectrum(dec.pair(0, 1)).nsv_count
        elif name == "ph":
            if n != 2:
                raise ValueError("ph output needs a bipartite state")
            vals[name] = int(ph_test(rho).entangled)
        elif name == "xi":
            try:
                vals[name] = ph_invariants(dec).xi
            except DegenerateBlochVectorsError:
                vals[name] = float("nan")
        elif name == "nanb":
            if rho.dims != (2, 2):
                raise ValueError("nanb output needs a two-qubit state")
            vals[name] = float(np.dot(dec.coherence_vectors[0], dec.coherence_vectors[1]))
        else:
            raise ValueError(f"unknown output {name!r}; known: {OUTPUT_NAMES}")
    return vals


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    return repr(float(value))


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


def _max_workers() -> int | None:
    raw = os.environ.get("MPCORR_THREADS")
    if raw is None:
        return None
    try:
        workers = int(raw)
    except ValueError as exc:
        raise ValueError(f"MPCORR_THREADS must be an integer, got {raw!r}") from exc
    return max(1, workers)


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
            if o not in OUTPUT_NAMES:
                raise ValueError(f"unknown output {o!r}; known: {OUTPUT_NAMES}")
        if args.family not in FAMILY_BUILDERS:
            raise ValueError(f"unknown family {args.family!r}; known: {sorted(FAMILY_BUILDERS)}")
        _, allowed = FAMILY_BUILDERS[args.family]
        for name in names:
            if name not in allowed:
                raise ValueError(f"family {args.family!r} has no parameter {name!r}; allowed: {sorted(allowed)}")

        points = list(product(*[vals for _, vals in grids]))

        def evaluate(point):
            rho = build_family(args.family, dict(zip(names, point)))
            return evaluate_outputs(rho, outputs)

        # Evaluate the first grid point up front so structurally invalid
        # requests (e.g. concurrence of a mixed family) fail as bad specs
        # before any file is written.
        first = evaluate(points[0])
        workers = _max_workers()
        if len(points) > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                rest = list(pool.map(evaluate, points[1:]))
        else:
            rest = []
    except (TypeError, ValueError, MixedStateError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_SPEC

    lines = [",".join(names + outputs)]
    for point, vals in zip(points, [first] + rest):
        cells = [_fmt(v) for v in point] + [_fmt(vals[o]) for o in outputs]
        lines.append(",".join(cells))
    _write_text(args.output, "\n".join(lines) + "\n")
    return EXIT_OK


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
                   help=f"comma-separated list from {', '.join(OUTPUT_NAMES)}")
    p.add_argument("--output", default="-", help="CSV path (default stdout)")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
