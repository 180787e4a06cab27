"""Span tracer that wraps idfusion's public functions from outside the package.

Callers inside idfusion look functions up as attributes of their own
module (``evaluation`` reaches ``compute_subject_scores`` through its own
globals), so the tracer replaces the function object in every idfusion
namespace that binds it. Each call then records one span: name, start,
end, parent span and the traced operation it belongs to. Spans live in
flat in-memory arrays and are written out once, when the run ends.

A few wrappers also record exact counters (work done, bytes moved) next
to the span, so that ratios are measured where the work happens.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from array import array
from time import perf_counter_ns

import numpy as np

# module -> extra qualified names traced besides the module's ``__all__``
TRACED_MODULES = {
    "cli": ("main",),
    "simulator": (),
    "evaluation": (),
    "scoring": (),
    "fusion": (),
    "core": ("ConfidenceMatrix.take",),
    "io": (),
    "ecg": (),
}

SETUP = -1    # spans opened while the workload is set up
OUTSIDE = -2  # spans opened between operations (never reported)

# odd 64-bit multipliers for the row hash; fixed so counts repeat across runs
_HASH_KEYS = np.random.default_rng(0x1DF0).integers(1, 2**63, size=4096, dtype=np.uint64) | np.uint64(1)


def _row_hashes(values: np.ndarray) -> np.ndarray:
    """One 64-bit hash per row of a float matrix, from its exact bit pattern."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    keys = _HASH_KEYS[np.arange(bits.shape[1]) % _HASH_KEYS.size]
    return (bits * keys).sum(axis=1, dtype=np.uint64)


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


# counter hooks: (tracer, original function, args, kwargs, result) -> None
def _count_calibrate(t, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    t.count("simulator.normals_drawn", int(a["trials"]) * a["params_template"].num_classes)


def _count_scoring(t, fn, args, kwargs, result):
    conf = _bound(fn, args, kwargs)["confidences"]
    values = np.asarray(getattr(conf, "values", conf))
    t.count("scoring.rows_scored", values.shape[0])
    t.row_hashes.setdefault(t.op, []).append(_row_hashes(values))


def _count_take(t, fn, args, kwargs, result):
    t.count("core.take.bytes_copied", result.values.nbytes)


def _file_counter(key, arg):
    def hook(t, fn, args, kwargs, result):
        t.count(key, os.path.getsize(_bound(fn, args, kwargs)[arg]))
    return hook


COUNTERS = {
    "simulator.calibrate": _count_calibrate,
    "scoring.compute_subject_scores": _count_scoring,
    "core.ConfidenceMatrix.take": _count_take,
    "io.write_score_matrix": _file_counter("io.write_bytes", "path"),
    "io.load_score_matrix": _file_counter("io.read_bytes", "path"),
    "ecg.read_signal": _file_counter("ecg.read_bytes", "path"),
}


class Tracer:
    """Records spans and counters while installed; ``op`` tags what they belong to."""

    def __init__(self, span_capacity: int = 300_000):
        self.capacity = span_capacity
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.op_of = array("i")
        self.counters: dict[tuple[int, str], int] = {}
        self.row_hashes: dict[int, list[np.ndarray]] = {}
        self.op = SETUP
        self.ops = 0  # traced operations completed
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @property
    def full(self) -> bool:
        return len(self.start) >= self.capacity

    def count(self, key: str, value: int) -> None:
        k = (self.op, key)
        self.counters[k] = self.counters.get(k, 0) + value

    def begin_op(self) -> None:
        self.op = self.ops

    def end_op(self) -> None:
        self.ops += 1
        self.op = OUTSIDE

    def _wrap(self, span_name: str, fn):
        name_id = self._name_id.setdefault(span_name, len(self.names))
        if name_id == len(self.names):
            self.names.append(span_name)
        hook = COUNTERS.get(span_name)
        tracer = self
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name.append(name_id)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op_of.append(tracer.op)
            tracer.start.append(0)
            tracer.end.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if hook is not None:
                hook(tracer, fn, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every traced function in every idfusion namespace that binds it."""
        namespaces = [m for n, m in sys.modules.items() if n == "idfusion" or n.startswith("idfusion.")]
        for short, extra in TRACED_MODULES.items():
            mod = sys.modules[f"idfusion.{short}"]
            for qual in (*getattr(mod, "__all__", ()), *extra):
                owner_name, _, leaf = qual.rpartition(".")
                owner = getattr(mod, owner_name) if owner_name else mod
                fn = inspect.getattr_static(owner, leaf)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue  # classes, constants and re-exports are not spans
                wrapper = self._wrap(f"{short}.{qual}", fn)
                holders = [owner] if owner_name else [
                    ns for ns in namespaces if any(v is fn for v in vars(ns).values())
                ]
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            self._patches.append((holder, attr, fn))
                            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._patches):
            setattr(holder, attr, fn)
        self._patches.clear()

    # -- aggregation -----------------------------------------------------

    def span_table(self) -> dict[str, np.ndarray]:
        """Spans as numpy columns, with inclusive and self durations in ns."""
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        # calls are single-threaded and nest, so the children of a span cover
        # disjoint parts of it and their durations simply add up
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": parent,
            "op": np.frombuffer(self.op_of, dtype=np.int32),
            "start": start,
            "end": end,
            "dur": dur,
            "self": dur - child.astype(np.int64),
        }

    def write(self, path) -> None:
        """Write every span plus the name table; the file is for offline inspection."""
        cols = self.span_table()
        np.savez_compressed(
            path,
            names=np.array(json.dumps(self.names)),
            **{k: v for k, v in cols.items() if k != "dur"},
        )
