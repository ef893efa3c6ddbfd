"""Span tracing of mpcorr's layers from outside the package.

A layer is one module of ``src/mpcorr``.  :class:`Tracer` replaces every
module-level binding of a public mpcorr function (in every mpcorr module, so
``cli.decompose`` is caught as well as ``bloch.decompose``) by a wrapper that
records one span per call: its key, its parent span, start and end.  Nothing
in ``src/`` is edited, and :meth:`Tracer.uninstall` puts the originals back.

Spans are kept in memory in flat arrays and written out by :meth:`save`.  A
span's self time is its duration minus the time its child spans cover; it is
computed when the span closes, since spans on one thread nest.  Sweeps run
their points on a pool thread while the main thread waits inside
``cli.cmd_sweep``; a span opened on a thread with no open span of its own
takes the main thread's innermost open span as its parent, so the wait is not
counted as ``cli`` self time.

References captured at import time (``cli.FAMILY_BUILDERS``) are not reached
by rebinding; the benchmark times those calls by replaying them (see
``run.py``).
"""

import functools
import json
import threading
import time
from array import array

import numpy as np

LAYERS = ("su_basis", "families", "density", "bloch", "measures", "classify", "exchange", "cli")

# Outermost decomposition / reconstruction calls are keyed by the state's
# shape, so each shape gets its own per-call figure.
_SHAPED = {"decompose", "decompose_bipartite", "decompose_tripartite",
           "decompose_quadripartite", "reconstruct"}


def shape_tag(dims) -> str:
    return "x".join(str(int(d)) for d in dims)


class Tracer:
    def __init__(self):
        self.keys: list[str] = []
        self._key_ids: dict[str, int] = {}
        self.key = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self._stacks: dict[int, list] = {}
        self._main = threading.get_ident()
        self._saved: list[tuple[object, str, object]] = []

    def _key_id(self, key: str) -> int:
        kid = self._key_ids.get(key)
        if kid is None:
            kid = self._key_ids[key] = len(self.keys)
            self.keys.append(key)
        return kid

    def _wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"
        shaped = layer == "bloch" and fn.__name__ in _SHAPED
        plain_id = self._key_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = tracer._stacks.get(tid)
            if stack is None:
                stack = tracer._stacks[tid] = []
            outer = stack[-1] if stack else (tracer._stacks.get(tracer._main) or [None])[-1]
            kid = plain_id
            if shaped and args and not (outer is not None and
                                        tracer.keys[tracer.key[outer[0]]].startswith("bloch.decompose@")):
                base = "bloch.reconstruct" if fn.__name__ == "reconstruct" else "bloch.decompose"
                kid = tracer._key_id(f"{base}@{shape_tag(args[0].dims)}")
            idx = len(tracer.key)
            tracer.key.append(kid)
            tracer.parent.append(-1 if outer is None else outer[0])
            tracer.end.append(0.0)
            tracer.self_time.append(0.0)
            entry = [idx, 0.0]
            stack.append(entry)
            t0 = time.perf_counter()
            tracer.start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.end[idx] = t1
                tracer.self_time[idx] = (t1 - t0) - entry[1]
                if outer is not None:
                    outer[1] += t1 - t0

        return traced

    def install(self, package) -> None:
        """Rebind every public mpcorr function in every layer module (and the
        package namespace) to a traced wrapper."""
        modules = [getattr(package, layer) for layer in LAYERS] + [package]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                origin = getattr(obj, "__module__", None) or ""
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or not origin.startswith(package.__name__ + ".")):
                    continue
                layer = origin.rsplit(".", 1)[1]
                if layer not in LAYERS:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, layer)
                self._saved.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    def summary(self) -> dict[str, dict]:
        """Per key: call count, total self time and the per-call durations."""
        keys = np.frombuffer(self.key, dtype=np.int32) if len(self.key) else np.zeros(0, np.int32)
        dur = np.asarray(self.end) - np.asarray(self.start)
        self_t = np.asarray(self.self_time)
        out = {}
        for kid, key in enumerate(self.keys):
            mask = keys == kid
            out[key] = {"calls": int(mask.sum()), "self_s": float(self_t[mask].sum()),
                        "durations": dur[mask]}
        return out

    def save(self, path) -> None:
        """Write every span: key index, parent index (-1 for none), start and
        end (perf_counter seconds) and self time; key names in ``keys``."""
        np.savez(path, keys=np.array(json.dumps(self.keys)),
                 key=np.asarray(self.key), parent=np.asarray(self.parent),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 self_time=np.asarray(self.self_time))
