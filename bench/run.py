"""mpcorr benchmark: one workload, one process, one JSON result line.

    python3 bench/run.py --workload werner-sweep --seed 1 --seconds 20 --trace 0

Run from the repository root (or any checkout of it).  The program is
imported from ``src/`` of the checkout and runs single-threaded: the
benchmark sets ``MPCORR_THREADS=1`` and pins the BLAS/OpenMP pools to one
thread before numpy loads.

``--trace 0`` times whole rounds of the workload for ``--seconds`` and
reports the end-to-end metrics, each timing at its 90th percentile (see
``timed_rounds``); ``--trace 1`` runs half the time untraced and
half with spans around every call into each layer (module) of ``mpcorr`` and
reports the per-layer metrics.  Either way the outputs are checked against
references computed apart from the program after timing, and the last line
of stdout is ``{"correct", "attempted", "failed", "metrics"}``.  Details of
the run (machine, versions, samples) go to ``bench/out/``.

Exit status 2, with no result line, when the checkout has no ``src/mpcorr``.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

THREAD_ENV = {
    "MPCORR_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
SETUP_SAMPLES = 12                      # spread over the timed phase
TIMING_Q = 90                           # percentile of block times and latencies reported
SHAPES = ("2x2", "2x3", "3x3", "2x2x2", "3x3x3", "2x2x2x2")
WORKLOAD_NAMES = ("werner-sweep", "qutrit-sweep", "state-files")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small grids and file set (smoke test)")
    return ap.parse_args(argv)


def run_info(np) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "mpcorr").glob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_sha": sha,
        "threads": THREAD_ENV,
        "src_lines": src_lines,
    }


def setup_once() -> float:
    """Seconds from spawning a fresh interpreter until it has imported
    mpcorr.cli.  The child reads the system-wide monotonic clock right after
    the import, so neither its exit nor the parent's wait is counted."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    child = "import mpcorr.cli, time; print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))"
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, "-c", child], env=env, cwd=ROOT, check=True,
                          capture_output=True, text=True, timeout=60)
    return float(proc.stdout) - t0


class SetupSampler:
    """Called between operations; takes a ``setup_once`` sample when one is
    due, so the samples spread over the whole timed phase."""

    def __init__(self, seconds: float):
        self.interval = seconds / SETUP_SAMPLES
        self.due = time.monotonic()
        self.times: list[float] = []

    def __call__(self) -> None:
        if time.monotonic() >= self.due:
            self.times.append(setup_once())
            self.due = time.monotonic() + self.interval


def timed_rounds(workload, seconds: float, idle=lambda: None) -> dict:
    """Whole rounds until ``seconds`` have passed (at least one round).

    The host's CPUs switch between two speeds about 2x apart, in episodes of
    a second to tens of seconds, and the slower one holds most of the time
    (README).  A median over a run reads a mix of the two that changes from
    run to run, so throughput comes from the 90th percentile of block times:
    blocks are short enough to fall inside one episode, and that percentile
    sits in the slower speed.  A block's time is the sum of its operation
    latencies, which leaves out the benchmark's own work between them."""
    import numpy as np

    latencies, failed, rounds = [], 0, 0
    start = time.perf_counter()
    while True:
        lat, bad = workload.run_round(idle)
        latencies += lat
        failed += bad
        rounds += 1
        if time.perf_counter() - start >= seconds:
            break
    lat = np.array(latencies)
    blocks = lat.reshape(-1, workload.block_size).sum(axis=1)
    return {"latency_s": latencies, "block_s": blocks.tolist(), "failed": failed, "rounds": rounds,
            "attempted": rounds * workload.items_per_round,
            "items_per_s": workload.items_per_block / float(np.percentile(blocks, TIMING_Q))}


def layer_metrics(trace: dict, rounds: int, replay: dict, items: int, overhead: float) -> dict:
    """Per-layer figures per round from the span summaries of the traced
    rounds and of a replay of one round's family constructions (see README)."""
    from tracer import LAYERS

    def keys(prefix):
        return [k for k in trace if k == prefix or k.startswith(prefix + "@")]

    def calls(ks, src=trace, n=rounds):
        return sum(src[k]["calls"] for k in ks if k in src) / n

    def self_s(ks, src=trace, n=rounds):
        return sum(src[k]["self_s"] for k in ks if k in src) / n

    def p50(ks, src=trace):
        import numpy as np
        durations = [src[k]["durations"] for k in ks if k in src]
        joined = np.concatenate(durations) if durations else np.zeros(0)
        return float(np.median(joined)) if joined.size else 0.0

    by_layer = {layer: [k for k in trace if k.split(".")[0] == layer] for layer in LAYERS}
    fam = [k for k in replay if k.startswith("families.")]
    decompose = keys("bloch.decompose")
    m = {}
    for layer in LAYERS:
        if layer != "families":
            m[f"{layer}.calls"] = calls(by_layer[layer])
            m[f"{layer}.self_s"] = self_s(by_layer[layer])
    # Family builders are reached through cli.FAMILY_BUILDERS, captured at
    # import, so their spans come from the replay; inside the traced rounds
    # their own time was counted as cli self time.
    m["families.build.calls"] = calls(fam, replay, 1)
    m["families.build.self_s"] = self_s(fam, replay, 1)
    m["families.build.p50_s"] = p50(fam, replay)
    m["cli.self_s"] = max(0.0, m["cli.self_s"] - m["families.build.self_s"])
    m["bloch.decompose.calls"] = calls(decompose)
    m["bloch.decompose.self_s"] = self_s(decompose + ["bloch.decompose_bipartite", "bloch.decompose_tripartite",
                                                     "bloch.decompose_quadripartite"])
    m["bloch.decompose.per_item"] = m["bloch.decompose.calls"] / items
    m["bloch.reconstruct.self_s"] = self_s(keys("bloch.reconstruct"))
    for shape in SHAPES:
        m[f"bloch.decompose.{shape}.p50_s"] = p50([f"bloch.decompose@{shape}"])
        m[f"bloch.reconstruct.{shape}.p50_s"] = p50([f"bloch.reconstruct@{shape}"])
    for name in ("density.validate", "measures.measure_set", "classify.ph_test",
                 "classify.classify_two_qubit", "cli.evaluate_outputs", "cli.load_state"):
        m[f"{name}.p50_s"] = p50([name])
    for name in ("density.partial_trace", "su_basis.gell_mann_basis"):
        m[f"{name}.calls"] = calls([name])
    for name in ("density.partial_trace", "density.partial_transpose", "classify.ph_test",
                 "classify.ph_invariants", "classify.correlation_spectrum",
                 "exchange.project_exchange", "su_basis.gell_mann_basis"):
        m[f"{name}.self_s"] = self_s([name])
    m["trace.overhead"] = overhead
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mpcorr" / "__init__.py").is_file():
        sys.stderr.write(f"error: no mpcorr package under {SRC}; run from a checkout of the repository\n")
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import numpy as np

    import mpcorr
    import mpcorr.cli  # noqa: F401  (makes mpcorr.cli an attribute of the package)
    from tracer import Tracer
    from workloads import WORKLOADS

    if Path(mpcorr.__file__).resolve().parent != SRC / "mpcorr":
        sys.stderr.write(f"error: imported mpcorr from {mpcorr.__file__}, not from {SRC}\n")
        return 2

    info = run_info(np)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](mpcorr, workdir, args.seed, args.tiny)
        workload.warm_up()
        if not args.trace:
            setup = SetupSampler(args.seconds)
            timed = timed_rounds(workload, args.seconds, setup)
        else:
            untraced = timed_rounds(workload, args.seconds / 2)
            tracer = Tracer()
            tracer.install(mpcorr)
            try:
                timed = timed_rounds(workload, args.seconds / 2)
            finally:
                tracer.uninstall()
            replay = Tracer()
            replay.install(mpcorr)
            try:
                for family, params in workload.family_calls():
                    builder = mpcorr.cli.FAMILY_BUILDERS[family][0]
                    getattr(mpcorr.families, builder.__name__)(**params)
            finally:
                replay.uninstall()
            tracer.save(OUT / f"trace-{args.workload}.npz")
            timed["attempted"] += untraced["attempted"]
            timed["failed"] += untraced["failed"]
        try:
            errors = workload.check()
        except Exception as exc:  # malformed output: report it as incorrect, not as a crash
            errors = [f"checks could not run: {type(exc).__name__}: {exc}"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = layer_metrics(tracer.summary(), timed["rounds"], replay.summary(),
                                workload.items_per_round, timed["items_per_s"] / untraced["items_per_s"])
        units = {"calls": "calls/round", "self_s": "s/round", "p50_s": "s", "per_item": "calls/item",
                 "overhead": "ratio"}
        result = {k: {"value": v, "unit": units[k.rsplit(".", 1)[1]]} for k, v in sorted(metrics.items())}
    else:
        result = {
            "items_per_s": {"value": timed["items_per_s"], "unit": "1/s"},
            "latency_s.p90": {"value": float(np.percentile(timed["latency_s"], TIMING_Q)), "unit": "s"},
            "setup_s": {"value": statistics.median(setup.times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    for e in errors[:20]:
        sys.stderr.write(f"check failed: {e}\n")
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
               "info": info, "items_per_round": workload.items_per_round,
               "items_per_block": workload.items_per_block, "rounds": timed["rounds"],
               "block_s": timed["block_s"], "latency_samples": len(timed["latency_s"]),
               "latency_s.p50": float(np.median(timed["latency_s"])),
               "setup_s": [] if args.trace else setup.times, "errors": errors, "metrics": result}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(details, indent=1))
    print("info " + json.dumps(info))
    print(f"rounds {timed['rounds']} x {workload.items_per_round} items, {len(timed['block_s'])} blocks, "
          f"{len(timed['latency_s'])} latency samples, {len(errors)} check failures")
    print(json.dumps({"correct": not errors, "attempted": timed["attempted"], "failed": timed["failed"],
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
