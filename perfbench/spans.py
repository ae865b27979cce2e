"""Span recorders installed around pmcorr's public functions at run time.

`Tracer.install` replaces each listed function, in every pmcorr module that
binds it (its own module included, so calls inside one module are seen too),
with a recorder; `Tracer.uninstall` puts the originals back.  Nothing under
``src/`` changes.  A span holds its name, start and end (perf_counter_ns),
the span that was open when it started, the op it belongs to and whether it
raised.  Spans stay in flat arrays in memory and are written once, at the end.
"""
from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from functools import wraps

import numpy as np

#: layer -> public functions that get a span recorder; names missing from a
#: later version of the program are skipped
PUBLIC = {
    "model": (
        "tau0", "kernel_params", "covariance", "purity_exact", "purity_approx",
        "purity_from_covariance", "position_density_variance",
    ),
    "fisher": (
        "phi_gamma", "phi_lambda", "purity_derivative", "qfi_analytic", "qfi_numeric",
        "cfi_closed", "cfi_quadrature", "fisher_information",
    ),
    "thermometry": (
        "lambda_from_temperature", "temperature_from_lambda", "relative_purity_rate",
        "tau_max_exact", "tau_max_approx", "tgi", "tgi_approx", "build_table1",
    ),
    "lens": ("rabi_profile", "optical_potential", "de_broglie", "focal_length", "gamma_from_curvature"),
    "cli": ("main",),
}
LAYERS = tuple(PUBLIC)
OP = "op"  # root span the benchmark opens around each op


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.failed = array("b")
        self._stack = [-1]
        self._op_id = -1
        self.ops = 0
        self._patched: list[tuple[object, str, object]] = []

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.end)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op_id)
        self.failed.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int, failed: bool = False) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()
        if failed:
            self.failed[idx] = 1

    def begin_op(self) -> int:
        """Open the root span of the next op; its id counts traced ops from 0."""
        self._op_id = self.ops
        self.ops += 1
        return self.open(self._nid(OP))

    def _recorder(self, name: str, fn):
        nid = self._nid(name)
        per_command = name == "cli.main"

        @wraps(fn)
        def recorder(*args, **kwargs):
            if per_command:
                argv = args[0] if args and args[0] is not None else sys.argv[1:]
                idx = self.open(self._nid(f"cli.{argv[0]}" if argv else name))
            else:
                idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(idx, failed=True)
                raise
            self.close(idx)
            return result

        return recorder

    def install(self) -> None:
        """Wrap every listed function wherever a pmcorr module binds it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "pmcorr" or n.startswith("pmcorr.")]
        wrappers = {}
        for layer, funcs in PUBLIC.items():
            mod = sys.modules.get(f"pmcorr.{layer}")
            for fname in funcs:
                fn = getattr(mod, fname, None)
                if inspect.isfunction(fn):
                    wrappers[fn] = self._recorder(f"{layer}.{fname}", fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    # -- storage ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "failed": np.frombuffer(self.failed, dtype=np.int8).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(json.dumps(self.names)), **self.arrays())

    def absorb(self, path, parent: int) -> None:
        """Append spans saved by a child process under span `parent` of this op."""
        with np.load(path) as data:
            names = json.loads(str(data["names"]))
            remap = [self._nid(n) for n in names]
            offset = len(self.end)
            for i in range(len(data["end"])):
                p = int(data["parent"][i])
                self.name.append(remap[int(data["name"][i])])
                self.start.append(int(data["start"][i]))
                self.end.append(int(data["end"][i]))
                self.parent.append(parent if p < 0 else p + offset)
                self.op.append(self._op_id)
                self.failed.append(int(data["failed"][i]))


def summarize(tracer: Tracer, window_ops: int) -> dict:
    """Per-function and per-layer figures from the recorded spans.

    Times (median inclusive duration per call, self time per op) and the
    ``all_*`` tallies use every traced op; ``calls`` and ``failed`` use ops
    ``0 .. window_ops-1`` only, so they repeat exactly for one seed however
    long the run lasts.
    """
    a = tracer.arrays()
    dur = (a["end"] - a["start"]).astype(np.float64)
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child
    in_window = a["op"] < window_ops
    n_ops = len(set(a["op"].tolist())) or 1
    funcs, layers = {}, {layer: 0.0 for layer in LAYERS}
    for nid, name in enumerate(tracer.names):
        if name == OP:
            continue
        sel = a["name"] == nid
        win = sel & in_window
        funcs[name] = {
            "median_ns": float(np.median(dur[sel])) if sel.any() else 0.0,
            "calls": int(win.sum()),
            "failed": int((a["failed"][win] != 0).sum()),
            "all_calls": int(sel.sum()),
            "all_failed": int((a["failed"][sel] != 0).sum()),
        }
        layers[name.split(".")[0]] += float(self_time[sel].sum())
    return {"functions": funcs, "layer_self_ns_per_op": {k: v / n_ops for k, v in layers.items()}}
