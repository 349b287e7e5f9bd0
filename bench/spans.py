"""Span recorder installed from outside the library.

The recorder wraps named callables of the ``wstate`` modules in place, so the
library itself carries no tracing code. Each wrapped call pushes a span on a
stack; on return the span's duration is added to its parent's child time, and
its self time is the duration minus that child time. Per layer the recorder
keeps the call count, the self time, the bytes of the arrays the call
returned, and how many calls returned a density-matrix evolution.

Names are resolved when the recorder is installed. A callable that does not
exist at the current commit is skipped and reports zero calls, so the traced
run keeps working across refactors that move or remove layers.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np

MODULES = ("tensor", "instrument", "subroutines", "sampling", "lcs",
           "experiments", "serialize", "cli")

# layer name -> (module, attribute path); a two-part path names a class
# attribute, and the layer name may differ from it (``validate`` stands for
# the dataclass ``__post_init__`` that checks the object).
LAYERS = {
    "tensor.eigenbasis": ("tensor", "eigenbasis"),
    "tensor.spectral_norm": ("tensor", "spectral_norm"),
    "tensor.normality_residual": ("tensor", "normality_residual"),
    "tensor.PermutationUnitary.apply_vector": ("tensor", "PermutationUnitary.apply_vector"),
    "tensor.PermutationUnitary.apply_density": ("tensor", "PermutationUnitary.apply_density"),
    "instrument.MeasurementOperator.of": ("instrument", "MeasurementOperator.of"),
    "instrument.MeasurementOperator.validate": ("instrument", "MeasurementOperator.__post_init__"),
    "instrument.QuantumInstrument.validate": ("instrument", "QuantumInstrument.__post_init__"),
    "instrument._joint_initial": ("instrument", "_joint_initial"),
    "instrument.evolve": ("instrument", "evolve"),
    "instrument.weighted_output": ("instrument", "weighted_output"),
    "instrument.joint_expectation": ("instrument", "joint_expectation"),
    "instrument.apply_exact": ("instrument", "apply_exact"),
    "instrument.as_normal_instrument": ("instrument", "as_normal_instrument"),
    "subroutines.build_qhp_instrument": ("subroutines", "build_qhp_instrument"),
    "subroutines.build_gqt_instrument": ("subroutines", "build_gqt_instrument"),
    "subroutines.build_qsp_instrument": ("subroutines", "build_qsp_instrument"),
    "subroutines.build_teleport_instrument": ("subroutines", "build_teleport_instrument"),
    "sampling.sample_estimate": ("sampling", "sample_estimate"),
    "sampling._joint_cells": ("sampling", "_joint_cells"),
    "sampling.variance_exact": ("sampling", "variance_exact"),
    "sampling.variance_bound": ("sampling", "variance_bound"),
    "sampling.sample_counts": ("sampling", "sample_counts"),
    "serialize.task_from_json": ("serialize", "task_from_json"),
    "serialize.lcs_from_json": ("serialize", "lcs_from_json"),
    "serialize.io_roundtrip": ("serialize", "io_roundtrip"),
    "lcs.all_at_once_apply": ("lcs", "all_at_once_apply"),
    "lcs.incoherent_estimate": ("lcs", "incoherent_estimate"),
    "lcs.pauli_decompose": ("lcs", "pauli_decompose"),
    "lcs.lcu_prepare": ("lcs", "lcu_prepare"),
    "experiments.run_experiment": ("experiments", "run_experiment"),
}

STATS = ("calls", "self_s", "bytes", "density_calls")


def returned_bytes(value, depth: int = 2) -> int:
    """nbytes of the arrays a call returned: the value itself, the items of a
    returned tuple or list, or the array fields of a returned object."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if depth == 0:
        return 0
    if isinstance(value, (tuple, list)):
        return sum(returned_bytes(v, depth - 1) for v in value)
    fields = getattr(value, "__dict__", None)
    if fields:
        return sum(v.nbytes for v in fields.values() if isinstance(v, np.ndarray))
    return 0


class Recorder:
    """Span stack plus per-layer totals; install() wraps, remove() restores."""

    def __init__(self):
        self.stats = {name: dict.fromkeys(STATS, 0) for name in LAYERS}
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        entry = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                entry["calls"] += 1
                entry["self_s"] += elapsed - frame[0]
            entry["bytes"] += returned_bytes(out)
            if getattr(out, "kind", None) == "density":
                entry["density_calls"] += 1
            return out

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every layer that exists, rebinding each module-level name
        that refers to the same object (``from .x import y`` copies)."""
        mods = [importlib.import_module("wstate")]
        for short in MODULES:
            try:
                mods.append(importlib.import_module(f"wstate.{short}"))
            except ImportError:
                continue
        by_name = {m.__name__: m for m in mods}
        for name, (short, path) in LAYERS.items():
            mod = by_name.get(f"wstate.{short}")
            if mod is None:
                continue
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name, None)
                raw = None if cls is None else cls.__dict__.get(attr)
                if raw is None:
                    continue
                if isinstance(raw, staticmethod):
                    self._set(cls, attr, staticmethod(self._wrap(name, raw.__func__)))
                else:
                    self._set(cls, attr, self._wrap(name, raw))
                continue
            fn = getattr(mod, path, None)
            if not callable(fn):
                continue
            wrapped = self._wrap(name, fn)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._set(m, key, wrapped)

    def remove(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def per_op(self, ops: int) -> dict:
        """Totals divided by the number of ops, keyed layer.stat."""
        out = {}
        for name, entry in self.stats.items():
            for key in STATS:
                out[f"{name}.{key}"] = entry[key] / max(ops, 1)
        return out
