"""Spans around the public functions at each module boundary of defectspin.

Nothing under ``src/`` is edited. ``Tracer.install`` rebinds, at run time,
every module-level name in the package that refers to one of the wrapped
functions: the names that ``cli``, ``isotopologues`` and ``solvers`` import
from their neighbours, and the definitions that modules call internally
(``sample_configurations`` calling ``perturb_lines``, ``hybrid_solve``
calling ``exact_transitions``). ``uninstall`` puts the originals back.

A span is ``[name, start, end, parent, op]``; spans stay in memory and are
written out once at the end of the run. Counts that need work of their own
(distinct frequencies, a reference ``eigh``) are taken after the op's root
span has closed, so they never land inside a measured span.
"""

from __future__ import annotations

import functools
import json
import os
import time

import numpy as np

# (module, function) -> layer span name. Several functions can share a span.
WRAPPED = {
    ("system", "load_defect_dataset"): "system.load",
    ("system", "dataset_version"): "system.load",
    ("system", "find_defect"): "system.build",
    ("system", "build_system"): "system.build",
    ("isotopologues", "enumerate_patterns"): "isotopologues.enumerate",
    ("isotopologues", "apply_pattern"): "isotopologues.apply",
    ("isotopologues", "composite_lines"): "isotopologues.composite",
    ("solvers", "perturb_lines"): "solvers.perturb",
    ("solvers", "sample_configurations"): "solvers.sample",
    ("solvers", "hybrid_solve"): "solvers.hybrid",
    ("solvers", "exact_transitions"): "solvers.exact",
    ("hamiltonian", "build_hamiltonian"): "hamiltonian.build",
    ("spectrum", "peak_stats"): "spectrum.peak_stats",
    ("spectrum", "synthesize"): "spectrum.synthesize",
    ("spectrum", "write_linelist"): "spectrum.write",
    ("spectrum", "write_spectrum"): "spectrum.write",
    ("energetics", "load_energy_records"): "energetics.load",
    ("energetics", "load_complexes"): "energetics.load",
    ("energetics", "defect_levels"): "energetics.levels",
    ("energetics", "ctl_diagram"): "energetics.levels",
    ("energetics", "group_records"): "energetics.binding",
    ("energetics", "binding_energy"): "energetics.binding",
    ("cli", "main"): "cli",
}
MODULES = ("system", "isotopologues", "solvers", "hamiltonian", "spectrum",
           "energetics", "cli")
ROOT = "op"


def _count_perturb(args, kwargs, lines):
    distinct = np.unique(np.round(lines.frequencies, 9)).size     # 1e-9 MHz
    return {"lines": len(lines), "distinct": distinct}


def _count_sample(args, kwargs, lines):
    return {"sampled": int(bool(lines.meta.get("sampled", False)))}


def _count_composite(args, kwargs, lines):
    return {"skipped_probability": float(lines.meta.get("skipped_probability", 0.0))}


def _count_hybrid(args, kwargs, lines):
    return {"lines": len(lines)}


def _count_exact(args, kwargs, lines):
    matrix = args[0].matrix
    dim = matrix.shape[0]
    start = time.perf_counter()
    np.linalg.eigh(matrix)
    return {"kept": len(lines), "pairs": dim * (dim - 1) // 2,
            "eigh_ref_s": time.perf_counter() - start}


def _count_build(args, kwargs, h):
    return {"matrix_bytes": h.matrix.nbytes}


def _count_peak_stats(args, kwargs, stats):
    return {"lines": len(args[0])}


def _count_synthesize(args, kwargs, spectrum):
    return {"kernel_evals": len(args[0]) * spectrum.grid.size}


def _count_write(args, kwargs, result):
    return {"bytes_written": os.path.getsize(args[1])}


COUNTERS = {
    "solvers.perturb": _count_perturb,
    "solvers.sample": _count_sample,
    "isotopologues.composite": _count_composite,
    "solvers.hybrid": _count_hybrid,
    "solvers.exact": _count_exact,
    "hamiltonian.build": _count_build,
    "spectrum.peak_stats": _count_peak_stats,
    "spectrum.synthesize": _count_synthesize,
    "spectrum.write": _count_write,
}


class Tracer:
    def __init__(self, ds):
        self.ds = ds
        self.spans: list[list] = []
        self.counts: dict[int, dict] = {}      # span index -> counters
        self._stack: list[int] = []
        self._pending: list[tuple] = []
        self._op = None
        self._saved: list[tuple] = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, time.perf_counter(), None,
                    self._stack[-1] if self._stack else None, self._op]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                self._pending.append((index, counter, args, kwargs, result))
            return result

        return traced

    def install(self):
        for (module, attr), name in WRAPPED.items():
            original = getattr(getattr(self.ds, module), attr)
            traced = self._wrap(name, original)
            for target in (self.ds,) + tuple(getattr(self.ds, m) for m in MODULES):
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._saved.append((target, key, original))
                        setattr(target, key, traced)

    def uninstall(self):
        for target, key, original in reversed(self._saved):
            setattr(target, key, original)
        self._saved.clear()

    def run_op(self, op_id, fn):
        """Run ``fn()`` under the root span of op ``op_id``."""
        self._op = op_id
        index = len(self.spans)
        span = [ROOT, time.perf_counter(), None, None, op_id]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn()
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            self._op = None

    def settle(self):
        """Take the counts of the last op; call it after the op is timed."""
        pending, self._pending = self._pending, []
        for i, counter, args, kwargs, result in pending:
            self.counts[i] = counter(args, kwargs, result)

    def write(self, path: str):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"i": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op,
                                     "counts": self.counts.get(i)}) + "\n")


def per_op(spans, counts) -> list[dict]:
    """Self seconds and summed counters per layer, one dict per root span."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent is not None:
            child_time[parent] += end - start
    ops, current = [], None
    for i, (name, start, end, parent, op) in enumerate(spans):
        if name == ROOT:
            current = {"wall": end - start, "self": {}, "counts": {}}
            ops.append(current)
        self_s = end - start - child_time[i]
        current["self"][name] = current["self"].get(name, 0.0) + self_s
        for key, value in counts.get(i, {}).items():
            bucket = current["counts"].setdefault(name, {})
            bucket[key] = bucket.get(key, 0) + value
    return ops
