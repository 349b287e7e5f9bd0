"""JSON schemas for states, layouts, instruments, and task specs.

Complex entries are [re, im] pairs; matrices are row-major under a "dims"
header. Register sizes serialize as "qubits" when the dimension is a power
of two and as "dim" otherwise. load_any / dump_any dispatch on the keys
present, and io_roundtrip checks that a parsed document reserializes to a
fixed point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConsistencyError, NotUnitary, SchemaError, ValidationError
from .instrument import MeasurementOperator, QuantumInstrument, QuantumState
from .tensor import (
    PermutationUnitary,
    Register,
    RegisterLayout,
    _require,
    complex_from_json,
    form,
    is_json_number,
    matrix_from_json,
    matrix_to_json,
    vector_from_json,
    vector_to_json,
)

if TYPE_CHECKING:
    from .lcs import LcsProblem
    from .subroutines import PolySpec


def _require_dict(obj, field_path: str) -> dict:
    _require(isinstance(obj, dict), field_path, "must be an object")
    return obj


# ---------------------------------------------------------------------------
# layouts


def layout_to_json(layout: RegisterLayout) -> dict:
    regs = []
    for r in layout.registers:
        entry: dict = {"label": r.label}
        if r.qubits is not None:
            entry["qubits"] = r.qubits
        else:
            entry["dim"] = r.dim
        if r.role is not None:
            entry["role"] = r.role
        if r.source != "input":
            entry["source"] = r.source
        regs.append(entry)
    return {"registers": regs}


def layout_from_json(obj, field_path: str = "layout") -> RegisterLayout:
    obj = _require_dict(obj, field_path)
    regs_json = obj.get("registers")
    _require(isinstance(regs_json, list) and regs_json, f"{field_path}.registers",
             "must be a non-empty list")
    regs = []
    total = 1
    for i, rj in enumerate(regs_json):
        loc = f"{field_path}.registers[{i}]"
        rj = _require_dict(rj, loc)
        label = rj.get("label")
        _require(isinstance(label, str) and label, f"{loc}.label", "must be a non-empty string")
        has_q, has_d = "qubits" in rj, "dim" in rj
        _require(has_q != has_d, loc, "exactly one of 'qubits' or 'dim' required")
        if has_q:
            q = rj["qubits"]
            _require(isinstance(q, int) and q >= 0, f"{loc}.qubits", "must be a non-negative integer")
            # checked before the power: basis indices are signed 64-bit integers
            _require(q <= 62, f"{loc}.qubits", "must be at most 62, so that dim < 2**63")
            dim = 2**q
        else:
            dim = rj["dim"]
            _require(isinstance(dim, int) and dim >= 1, f"{loc}.dim", "must be a positive integer")
        _require(dim <= (2**63 - 1) // total, loc, "the layout dimension must stay below 2**63")
        total *= dim
        role = rj.get("role")
        _require(role is None or role in ("S", "E", "G"), f"{loc}.role", "must be S, E or G")
        source = rj.get("source", "input")
        _require(source in ("input", "ancilla"), f"{loc}.source", "must be 'input' or 'ancilla'")
        try:
            regs.append(Register(label, dim, role=role, source=source))
        except ValidationError as exc:
            raise SchemaError(loc, str(exc)) from exc
    try:
        return RegisterLayout.of(*regs)
    except ValidationError as exc:
        raise SchemaError(field_path, str(exc)) from exc


# ---------------------------------------------------------------------------
# states


def state_to_json(state: QuantumState, include_layout: bool = True) -> dict:
    if state.is_pure:
        out = {"kind": "pure", "vector": vector_to_json(state.vector)}
    else:
        out = {"kind": "density", "matrix": matrix_to_json(state.density)}
    if include_layout:
        out["layout"] = layout_to_json(state.layout)
    return out


def state_from_json(obj, field_path: str = "state",
                    layout: RegisterLayout | None = None) -> QuantumState:
    obj = _require_dict(obj, field_path)
    kind = obj.get("kind")
    _require(kind in ("pure", "density"), f"{field_path}.kind", "must be 'pure' or 'density'")
    if layout is None and "layout" in obj:
        layout = layout_from_json(obj["layout"], f"{field_path}.layout")
    try:
        if kind == "pure":
            _require("vector" in obj, f"{field_path}.vector", "required for a pure state")
            v = vector_from_json(obj["vector"], f"{field_path}.vector")
            return QuantumState.pure(v, layout=layout)
        _require("matrix" in obj, f"{field_path}.matrix", "required for a density state")
        m = matrix_from_json(obj["matrix"], f"{field_path}.matrix")
        return QuantumState.from_density(m, layout=layout)
    except ValidationError as exc:
        raise SchemaError(field_path, str(exc)) from exc


# ---------------------------------------------------------------------------
# measurements and instruments


def measurement_to_json(meas: MeasurementOperator) -> dict:
    """M as a dense matrix with its kind, and the parts it holds as dense
    matrices."""
    out = {"matrix": matrix_to_json(meas.matrix), "kind": meas.kind}
    if meas.parts is not None:
        out["decomposition"] = [
            {"coefficient": [float(c.real), float(c.imag)], "part": matrix_to_json(form(p).dense())}
            for c, p in meas.parts
        ]
    return out


def measurement_from_json(obj, field_path: str = "measurement") -> MeasurementOperator:
    obj = _require_dict(obj, field_path)
    _require("matrix" in obj, f"{field_path}.matrix", "required")
    m = matrix_from_json(obj["matrix"], f"{field_path}.matrix")
    kind = obj.get("kind")
    _require(kind in ("hermitian", "normal", "nonnormal"), f"{field_path}.kind",
             "must be hermitian, normal or nonnormal")
    decomposition = None
    if "decomposition" in obj:
        dj = obj["decomposition"]
        _require(isinstance(dj, list) and dj, f"{field_path}.decomposition",
                 "must be a non-empty list")
        parts = []
        for i, ej in enumerate(dj):
            loc = f"{field_path}.decomposition[{i}]"
            ej = _require_dict(ej, loc)
            coefficient = complex_from_json(ej.get("coefficient"), f"{loc}.coefficient")
            _require("part" in ej, f"{loc}.part", "required")
            parts.append((coefficient, matrix_from_json(ej["part"], f"{loc}.part")))
        decomposition = tuple(parts)
    try:
        return MeasurementOperator(m, kind, decomposition)
    except ValidationError as exc:
        raise SchemaError(field_path, str(exc)) from exc


def _unitary_from_json(obj, field_path: str):
    obj = _require_dict(obj, field_path)
    if "permutation" in obj:
        perm = obj["permutation"]
        _require(isinstance(perm, list) and perm, f"{field_path}.permutation",
                 "must be a non-empty list")
        _require(all(isinstance(p, int) for p in perm), f"{field_path}.permutation",
                 "entries must be integers")
        # checked as Python ints, before an int64 conversion can overflow
        _require(all(0 <= p < len(perm) for p in perm), f"{field_path}.permutation",
                 f"entries must lie in [0, {len(perm)})")
        try:
            return PermutationUnitary(np.asarray(perm, dtype=np.int64))
        except (ValidationError, NotUnitary) as exc:
            raise SchemaError(f"{field_path}.permutation", str(exc)) from exc
    return matrix_from_json(obj, field_path)


def instrument_to_json(inst: QuantumInstrument) -> dict:
    """A permutation U is written as its full-layout table, whichever
    registers it is held on, and a full table reads back as acting on every
    register."""
    out = {
        "layout": layout_to_json(inst.layout),
        "unitary": form(inst.unitary).to_json(),
        "measurement": measurement_to_json(inst.measurement),
    }
    if inst.ancilla is not None:
        out["ancilla"] = state_to_json(inst.ancilla, include_layout=False)
    return out


def instrument_from_json(obj, field_path: str = "instrument") -> QuantumInstrument:
    obj = _require_dict(obj, field_path)
    _require("layout" in obj, f"{field_path}.layout", "required")
    layout = layout_from_json(obj["layout"], f"{field_path}.layout")
    _require("unitary" in obj, f"{field_path}.unitary", "required")
    unitary = _unitary_from_json(obj["unitary"], f"{field_path}.unitary")
    _require("measurement" in obj, f"{field_path}.measurement", "required")
    meas = measurement_from_json(obj["measurement"], f"{field_path}.measurement")
    ancilla = None
    if "ancilla" in obj:
        anc_labels = tuple(r.label for r in layout.registers if r.source == "ancilla")
        _require(bool(anc_labels), f"{field_path}.ancilla",
                 "given, but the layout has no ancilla registers")
        ancilla = state_from_json(obj["ancilla"], f"{field_path}.ancilla",
                                  layout=layout.sub(anc_labels))
    try:
        return QuantumInstrument(layout, ancilla=ancilla, unitary=unitary, measurement=meas)
    except ValidationError as exc:
        raise SchemaError(field_path, str(exc)) from exc


# ---------------------------------------------------------------------------
# task specs


@dataclass(frozen=True)
class EstimationTask:
    """Instrument, its input states in layout order, and the observable."""

    instrument: QuantumInstrument
    inputs: tuple
    observable: np.ndarray


def task_to_json(task: EstimationTask) -> dict:
    return {
        "instrument": instrument_to_json(task.instrument),
        "inputs": [state_to_json(s, include_layout=False) for s in task.inputs],
        "observable": matrix_to_json(task.observable),
    }


def task_from_json(obj, field_path: str = "task") -> EstimationTask:
    obj = _require_dict(obj, field_path)
    _require("instrument" in obj, f"{field_path}.instrument", "required")
    inst = instrument_from_json(obj["instrument"], f"{field_path}.instrument")
    ij = obj.get("inputs")
    _require(isinstance(ij, list), f"{field_path}.inputs", "must be a list of states")
    input_labels = inst.input_labels
    _require(
        len(ij) == len(input_labels),
        f"{field_path}.inputs",
        f"instrument takes {len(input_labels)} input registers, got {len(ij)} states",
    )
    inputs = []
    for i, (sj, label) in enumerate(zip(ij, input_labels)):
        loc = f"{field_path}.inputs[{i}]"
        inputs.append(state_from_json(sj, loc, layout=inst.layout.sub((label,))))
    _require("observable" in obj, f"{field_path}.observable", "required")
    obs = matrix_from_json(obj["observable"], f"{field_path}.observable")
    s_dim = inst.layout.dim_of(inst.s_labels)
    _require(obs.shape == (s_dim, s_dim), f"{field_path}.observable",
             f"must be {s_dim}x{s_dim} for the kept registers")
    return EstimationTask(inst, tuple(inputs), obs)


def polyspec_to_json(spec: PolySpec) -> dict:
    terms = [
        {"k": k, "l": l, "re": float(c.real), "im": float(c.imag)}
        for (k, l), c in sorted(spec.terms.items())
    ]
    return {"terms": terms}


def polyspec_from_json(obj, field_path: str = "polynomial") -> PolySpec:
    from .subroutines import PolySpec

    obj = _require_dict(obj, field_path)
    tj = obj.get("terms")
    _require(isinstance(tj, list) and tj, f"{field_path}.terms", "must be a non-empty list")
    terms = {}
    for i, ej in enumerate(tj):
        loc = f"{field_path}.terms[{i}]"
        ej = _require_dict(ej, loc)
        k, l = ej.get("k"), ej.get("l")
        _require(isinstance(k, int) and isinstance(l, int), loc, "k and l must be integers")
        re, im = ej.get("re", 0.0), ej.get("im", 0.0)
        _require(is_json_number(re) and is_json_number(im), loc,
                 "re and im must be finite numbers")
        _require((k, l) not in terms, loc, f"duplicate term ({k},{l})")
        terms[(k, l)] = complex(re, im)
    try:
        return PolySpec(terms)
    except ValidationError as exc:
        raise SchemaError(f"{field_path}.terms", str(exc)) from exc


@dataclass(frozen=True)
class Combination:
    """A combination document: its states and coefficients, and the
    observable, ancilla amplitudes beta and processing unitary it may give
    (None when absent)."""

    problem: LcsProblem
    observable: np.ndarray | None = None
    beta: np.ndarray | None = None
    processing: np.ndarray | None = None


def lcs_to_json(combo: Combination) -> dict:
    problem = combo.problem
    if problem.unitaries is not None:
        states = [
            {"unitary": matrix_to_json(u), "prepares_from_zero": True}
            for u in problem.unitaries
        ]
    else:
        states = [vector_to_json(s) for s in problem.states]
    out = {"states": states, "alphas": [[float(a.real), float(a.imag)] for a in problem.alphas]}
    if combo.observable is not None:
        out["observable"] = matrix_to_json(combo.observable)
    if combo.beta is not None:
        out["beta"] = [[float(b.real), float(b.imag)] for b in combo.beta]
    if combo.processing is not None:
        out["processing"] = matrix_to_json(combo.processing)
    return out


def lcs_from_json(obj, field_path: str = "combination") -> Combination:
    """The whole combination document, its optional fields checked against
    its states: observable and processing d x d, one beta entry per state."""
    from .lcs import LcsProblem

    obj = _require_dict(obj, field_path)
    sj = obj.get("states")
    _require(isinstance(sj, list) and sj, f"{field_path}.states", "must be a non-empty list")
    aj = obj.get("alphas")
    _require(isinstance(aj, list) and len(aj) == len(sj), f"{field_path}.alphas",
             "must be one [re, im] pair per state")
    alphas = [complex_from_json(pair, f"{field_path}.alphas[{i}]") for i, pair in enumerate(aj)]
    as_unitary = [isinstance(e, dict) and "unitary" in e for e in sj]
    _require(all(as_unitary) or not any(as_unitary), f"{field_path}.states",
             "states must be all vectors or all preparation unitaries")
    try:
        if all(as_unitary):
            us = []
            for i, ej in enumerate(sj):
                loc = f"{field_path}.states[{i}]"
                _require(ej.get("prepares_from_zero") is True, f"{loc}.prepares_from_zero",
                         "must be true")
                us.append(matrix_from_json(ej["unitary"], f"{loc}.unitary"))
            problem = LcsProblem.from_unitaries(us, alphas)
        else:
            vecs = [vector_from_json(e, f"{field_path}.states[{i}]") for i, e in enumerate(sj)]
            problem = LcsProblem.from_states(vecs, alphas)
    except ValidationError as exc:
        raise SchemaError(field_path, str(exc)) from exc
    d = problem.dim

    def square(key):
        if key not in obj:
            return None
        m = matrix_from_json(obj[key], f"{field_path}.{key}")
        _require(m.shape == (d, d), f"{field_path}.{key}", f"must be {d}x{d} like the states")
        return m

    observable, beta = square("observable"), None
    if "beta" in obj:
        pairs = obj["beta"]
        _require(isinstance(pairs, list) and len(pairs) == len(sj), f"{field_path}.beta",
                 "must be one [re, im] pair per state")
        beta = np.array([complex_from_json(p, f"{field_path}.beta[{i}]")
                         for i, p in enumerate(pairs)])
    return Combination(problem, observable, beta, square("processing"))


def experiment_spec_from_json(obj, field_path: str = "spec") -> dict:
    from .experiments import EXPERIMENTS

    obj = _require_dict(obj, field_path)
    name = obj.get("experiment")
    _require(isinstance(name, str), f"{field_path}.experiment", "must be a string")
    _require(name in EXPERIMENTS, f"{field_path}.experiment",
             f"unknown experiment; available: {sorted(EXPERIMENTS)}")
    seed = obj.get("seed", 0)
    _require(isinstance(seed, int) and not isinstance(seed, bool), f"{field_path}.seed",
             "must be an integer")
    params = obj.get("params", {})
    _require(isinstance(params, dict), f"{field_path}.params", "must be an object")
    return {"experiment": name, "seed": seed, "params": params}


# ---------------------------------------------------------------------------
# dispatch


def detect_kind(obj: dict) -> str:
    obj = _require_dict(obj, "spec")
    if "experiment" in obj:
        return "experiment"
    if "instrument" in obj and "inputs" in obj:
        return "task"
    if "measurement" in obj and "unitary" in obj:
        return "instrument"
    if "registers" in obj:
        return "layout"
    if obj.get("kind") in ("pure", "density"):
        return "state"
    if "terms" in obj:
        return "polynomial"
    if "states" in obj and "alphas" in obj:
        return "combination"
    if "dims" in obj and "data" in obj:
        return "array"
    raise SchemaError("spec", "unrecognized document; no known keys found")


_LOADERS = {
    "experiment": experiment_spec_from_json,
    "task": task_from_json,
    "instrument": instrument_from_json,
    "layout": layout_from_json,
    "state": state_from_json,
    "polynomial": polyspec_from_json,
    "combination": lcs_from_json,
    "array": lambda o: (matrix_from_json(o, "array") if len(o.get("dims", [])) == 2
                        else vector_from_json(o, "array")),
}

_DUMPERS = {
    "experiment": lambda x: x,
    "task": task_to_json,
    "instrument": instrument_to_json,
    "layout": layout_to_json,
    "state": state_to_json,
    "polynomial": polyspec_to_json,
    "combination": lcs_to_json,
    "array": lambda a: matrix_to_json(a) if a.ndim == 2 else vector_to_json(a),
}


def load_any(obj: dict):
    kind = detect_kind(obj)
    return kind, _LOADERS[kind](obj)


def dump_any(kind: str, value) -> dict:
    if kind not in _DUMPERS:
        raise ValidationError(f"cannot serialize kind {kind!r}")
    return _DUMPERS[kind](value)


def io_roundtrip(obj) -> dict:
    """Load a parsed JSON document, rebuild it from the loaded object, and
    check the rebuilt form is a serialization fixed point."""
    kind, value = load_any(obj)
    once = dump_any(kind, value)
    _, again = load_any(once)
    twice = dump_any(kind, again)
    stable = json.dumps(once, sort_keys=True) == json.dumps(twice, sort_keys=True)
    if not stable:
        raise ConsistencyError("serialization did not reach a fixed point")
    return {"kind": kind, "stable": True}
