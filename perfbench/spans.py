"""Layer tracing from outside the program.

The tracer wraps public functions of the ``vibronic`` modules and records a
span (name, start, end, parent) per call, kept in memory and written out
when the run ends.  Nothing in the package changes: each wrapper replaces
the function under every name a ``vibronic`` module binds it to, because
``cli`` and ``bopes`` import ``converge_cutoff`` and ``minimize_bo`` into
their own namespaces at import time while ``fock`` resolves
``build_fock_matrix`` and ``ground_state`` through its module globals.

``bopes.bo_energy`` runs about 3,300 times per ``minimize_bo`` call, so it is
kept as a call count plus summed time instead of a span per call; its time is
charged to the enclosing span as child time.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path
from time import perf_counter

# (module, function) pairs wrapped with a span per call.  The layer of a
# span is its module name.
SPANNED = (
    ("graphs", "build_resonant_manifold"),
    ("assembly", "assemble_state_hamiltonian"),
    ("assembly", "assemble_graph_hamiltonians"),
    ("assembly", "reduce_modes"),
    ("assembly", "build_molecular_model"),
    ("assembly", "dumbbell_hamiltonian"),
    ("fock", "converge_cutoff"),
    ("fock", "build_fock_matrix"),
    ("fock", "ground_state"),
    ("analytic", "bogoliubov_w"),
    ("analytic", "critical_points"),
    ("analytic", "epsilon2"),
    ("analytic", "epsilon4"),
    ("analytic", "perpendicular_xi_eff"),
    ("analytic", "wigner"),
    ("analytic", "wigner_widths"),
    ("analytic", "zero_point_correction"),
    ("analytic", "quantum_correction"),
    ("bopes", "build_bo_surface"),
    ("bopes", "light_start_points"),
    ("bopes", "default_start_points"),
    ("bopes", "minimize_bo"),
    ("bopes", "transition_scan"),
    ("bopes", "transition_scan_csv"),
    ("cli", "main"),
)

# Hot leaf functions kept as count plus summed time.
AGGREGATED = (("bopes", "bo_energy"),)

LAYERS = ("graphs", "assembly", "fock", "analytic", "bopes", "cli")
BENCH = "bench"  # the layer of the benchmark's own root spans


def _csr_bytes(matrix) -> int:
    """CSR storage computed from nnz and dim: values, column indices, row pointers."""
    index_bytes = matrix.indices.dtype.itemsize
    return matrix.nnz * (matrix.data.dtype.itemsize + index_bytes) + (
        matrix.shape[0] + 1
    ) * index_bytes


def _info(name: str, args, kwargs, result) -> dict:
    """Facts about one call that the per-layer metrics need."""
    if name == "fock.build_fock_matrix":
        return {"dim": result.dim, "nnz": result.matrix.nnz, "csr_bytes": _csr_bytes(result.matrix)}
    if name == "fock.converge_cutoff":
        return {"stages": len(result.energy_history), "converged": bool(result.converged)}
    if name == "bopes.minimize_bo":
        starts = kwargs.get("starts", args[1] if len(args) > 1 else None)
        n_starts = None if starts is None else len(starts)
        return {"basins": len(result.minima), "starts": n_starts}
    if name == "cli.main":
        argv = list(args[0] if args else kwargs.get("argv") or ())
        out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
        written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file()) if out else 0
        return {"exit": result, "artifact_bytes": written}
    return {}


class Tracer:
    """In-memory span recorder for one workload run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.epoch = perf_counter()
        self.spans = []  # (id, name, layer, start, end, parent, aggregated child s, info)
        self.counts = {}  # aggregated name -> [calls, seconds]
        self._stack = []  # open spans: [id, aggregated child seconds]
        self._next_id = 0
        self._bindings = None  # (module, attribute, original, wrapper)

    # -- recording -------------------------------------------------------

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [sid, 0.0]
        self._stack.append(frame)
        return frame, parent

    def _close(self, frame, parent, name, layer, t0, t1, info):
        self._stack.pop()
        self.spans.append((frame[0], name, layer, t0, t1, parent, frame[1], info))

    def root(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a benchmark span; returns its result."""
        frame, parent = self._open()
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(frame, parent, name, BENCH, t0, perf_counter(), {})

    def _spanned(self, name: str, layer: str, fn):
        def wrapper(*args, **kwargs):
            frame, parent = self._open()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(frame, parent, name, layer, t0, perf_counter(), {"raised": True})
                raise
            t1 = perf_counter()
            self._close(frame, parent, name, layer, t0, t1, _info(name, args, kwargs, result))
            return result

        return wrapper

    def _aggregated(self, name: str, fn):
        tally = self.counts.setdefault(name, [0, 0.0])
        stack = self._stack

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tally[0] += 1
                tally[1] += dt
                if stack:
                    stack[-1][1] += dt

        return wrapper

    # -- installation ----------------------------------------------------

    def _find_bindings(self):
        targets = [(mod, fn, False) for mod, fn in SPANNED] + [
            (mod, fn, True) for mod, fn in AGGREGATED
        ]
        for module_name, _, _ in targets:  # cli is not imported by the package itself
            importlib.import_module(f"vibronic.{module_name}")
        modules = [
            m for key, m in sys.modules.items() if key == "vibronic" or key.startswith("vibronic.")
        ]
        bindings = []
        for module_name, func_name, aggregated in targets:
            original = getattr(importlib.import_module(f"vibronic.{module_name}"), func_name)
            name = f"{module_name}.{func_name}"
            if aggregated:
                wrapped = self._aggregated(name, original)
            else:
                wrapped = self._spanned(name, module_name, original)
            for module in modules:
                for attr, value in vars(module).items():
                    if value is original:
                        bindings.append((module, attr, original, wrapped))
        return bindings

    def install(self):
        """Bind the wrappers under every name a loaded vibronic module uses."""
        if self._bindings is None:
            self._bindings = self._find_bindings()
        for module, attr, _, wrapped in self._bindings:
            setattr(module, attr, wrapped)

    def uninstall(self):
        """Restore the original functions; ``install`` can bind the same wrappers again."""
        for module, attr, original, _ in self._bindings or ():
            setattr(module, attr, original)

    # -- output ----------------------------------------------------------

    def write(self, path):
        """Write the spans as JSON lines, times in seconds since the tracer started."""
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, layer, t0, t1, parent, _, info in self.spans:
                record = {
                    "id": sid,
                    "name": name,
                    "layer": layer,
                    "start": t0 - self.epoch,
                    "end": t1 - self.epoch,
                    "parent": parent,
                    "self_s": selfs[sid],
                    "workload": self.workload,
                }
                if info:
                    record["info"] = info
                fh.write(json.dumps(record) + "\n")
            for name, (calls, seconds) in sorted(self.counts.items()):
                record = {"name": name, "aggregated": True, "calls": calls, "s": seconds}
                fh.write(json.dumps(dict(record, workload=self.workload)) + "\n")

    def self_times(self) -> dict:
        """Span id -> duration minus the time its child spans and aggregated calls cover."""
        child = {}
        for _, _, _, t0, t1, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (t1 - t0)
        return {
            sid: (t1 - t0) - child.get(sid, 0.0) - agg
            for sid, _, _, t0, t1, _, agg, _ in self.spans
        }
