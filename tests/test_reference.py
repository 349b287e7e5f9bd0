"""Differential test of exact evaluation against one dense reference.

Instruments are drawn with a basis-state ancilla, the case evolve holds on
its support: 2-4 registers of dims 2-3 with roles S and E and, from three
registers on, G; the ancilla one basis vector (any index, any phase) on one
or two registers; U a register table that does or does not touch the
ancilla, a full-layout table, or an Xor of two qubit registers, the
ancilla as its src or dst included; M dense Hermitian, dense non-normal, an
involution, a 3-cycle or low-rank (rank 0 included); and inputs pure,
density or weighted. One in five has no ancilla, dims 2-4 and U an Xor
between two input registers (QHP's shape, dst no smaller than src) or a
full-layout table, which take the gather. apply_exact must match
conftest.reference_weighted_output; the estimators and branches must match
the same instrument with U given as a dense matrix, which takes the gather
path. On both, the cells must equal bit for bit, and the reports of
sample_estimate, variance_exact and variance_bound must equal (==), a
reference built here from the group table by one np.add.at per row and each
statistic's own formula, with O random or degenerate.

The controlled-SWAP instruments of build_qsp_instrument, whose evolution
holds four blocks, are drawn too: the ancilla a pure vector, a density or a
QuantumState; the inputs pure, density or weighted, as two pieces or one
joint piece over (S, G); M dense Hermitian, dense normal, non-normal with
and without given parts, low-rank (rank 0 included) or the 2 x 2 SWAP.
Every exact and analytic result, and a QSP second stage of a pipeline, must
match the same instrument holding its derived table, and the dense
reference, without a gather or product columns; so must the instrument
read back from its document, which holds the table and must hold it as a
ControlledSwap again. A full-layout table is held as one exactly when it
is one.

The CNOT ladders (tensor.Xor) that copy an input register onto a basis
ancilla, as GQT's and teleport's do, are drawn in either orientation with
the three registers in any order, dims 2-4 and any basis index and phase;
M dense Hermitian, dense non-normal with and without given parts, a
permutation or low-rank (rank 0 included); the inputs pure, density or
weighted, one piece per register (the copy, which must neither gather nor
form product columns) or one joint piece (the support). apply_exact must
match the dense reference, and the estimators, both variance bounds and
the branches the same instrument with a dense U. A full-layout table is
held as an Xor exactly when it is one; an Xor whose src is the basis
ancilla takes the support; and no builder derives its Xor's table to
build, apply or estimate.
"""

import contextlib
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wstate.instrument import (
    MeasurementOperator,
    QuantumInstrument,
    QuantumState,
    Evolved,
    Support,
    WeightedState,
    _Blocks,
    _Copy,
    _route,
    apply_exact,
    branches,
    evolve,
    projected_outputs,
    weighted_output,
)
from wstate.sampling import (
    EstimatorReport,
    VarianceBounds,
    _joint_cells,
    sample_counts,
    sample_estimate,
    variance_bound,
    variance_exact,
)
from wstate.serialize import instrument_from_json, instrument_to_json
from wstate.subroutines import (
    build_gqt_instrument,
    build_qhp_instrument,
    build_qsp_instrument,
    build_teleport_instrument,
)
from wstate.tensor import (
    ControlledSwap,
    LowRankOperator,
    PermutationUnitary,
    Register,
    RegisterLayout,
    Xor,
    combine_digits,
    eigenbasis,
    form,
)

from conftest import (
    emulate_nonnormal,
    group_table,
    no_gather,
    rand_density,
    rand_hermitian,
    rand_state,
    rand_unitary,
    reference_weighted_output,
    table_held,
)

M_KINDS = ("dense-hermitian", "dense-nonnormal", "involution", "3-cycle", "low-rank")


def _complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _measurement(rng, kind, d):
    if kind == "dense-hermitian":
        return rand_hermitian(rng, d)
    if kind == "dense-nonnormal":
        return _complex(rng, d, d)
    if kind == "involution":
        perm = np.arange(d)
        pairs = rng.permutation(d)[: 2 * rng.integers(1, d // 2 + 1)].reshape(-1, 2)
        perm[pairs[:, 0]], perm[pairs[:, 1]] = pairs[:, 1], pairs[:, 0]
        return PermutationUnitary(perm)
    if kind == "3-cycle":
        perm = np.arange(d)
        cycle = rng.permutation(d)[:3]
        perm[cycle] = np.roll(cycle, 1)
        return PermutationUnitary(perm)
    rank = rng.integers(0, 3)
    return LowRankOperator(_complex(rng, d, rank), _complex(rng, d, rank))


def _full_table(local: PermutationUnitary) -> np.ndarray:
    """The full-layout table of a register table, built here: each basis
    state's digits on the table's registers sent through perm."""
    layout = local.layout
    digits = list(np.indices(layout.dims))
    pos = [layout.index(label) for label in local.labels]
    t = 0
    for p in pos:
        t = t * layout.dims[p] + digits[p]
    t = local.perm[t]
    for p in reversed(pos):
        t, digits[p] = np.divmod(t, layout.dims[p])
    out = 0
    for p, d in enumerate(layout.dims):
        out = out * d + digits[p]
    return out.reshape(-1)


def _dense(table: np.ndarray) -> np.ndarray:
    u = np.zeros((table.size, table.size), dtype=np.complex128)
    u[table, np.arange(table.size)] = 1.0
    return u


@st.composite
def instruments(draw):
    """(instrument, inputs, dense U) with a basis-state ancilla, or, one in
    five, without an ancilla."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ancilla = draw(st.sampled_from([True, True, True, True, False]))
    dims = draw(st.lists(st.sampled_from([2, 3] if ancilla else [2, 3, 4]), min_size=2, max_size=4))
    k = len(dims)
    # one S and one E register; G among the rest whenever there are more
    rest = draw(st.lists(st.sampled_from("SEG"), min_size=k - 2, max_size=k - 2))
    if rest and "G" not in rest:
        rest[0] = "G"
    roles = draw(st.permutations(["S", "E", *rest]))
    anc = set()
    if ancilla:
        anc = draw(st.sets(st.sampled_from(range(k)), min_size=1, max_size=min(2, k - 1)))
    regs = tuple(Register(f"R{i}", d, role=roles[i], source="ancilla" if i in anc else "input")
                 for i, d in enumerate(dims))
    layout = RegisterLayout(regs)
    sigma = None
    if ancilla:
        sub = layout.sub(regs[i].label for i in anc)
        vector = np.zeros(sub.total_dim, dtype=np.complex128)
        vector[draw(st.integers(0, sub.total_dim - 1))] = np.exp(1j * draw(st.floats(0, 2 * np.pi)))
        sigma = QuantumState(sub, vector=vector)

    qubits = [i for i in range(k) if dims[i] == 2]
    tables = ["touches-ancilla", "inputs-only", "full"] + (["xor"] if len(qubits) > 1 else [])
    # without an ancilla: an Xor between two input registers (QHP's shape,
    # dst a power of two no smaller than src) or a full-layout table
    pairs = [(a, b) for a in range(k) for b in range(k)
             if a != b and dims[b] in (2, 4) and dims[a] <= dims[b]]
    if not ancilla:
        tables = ["full"] + (["xor"] if pairs else [])
    table = draw(st.sampled_from(tables))
    if table == "xor":
        src, dst = draw(st.permutations(qubits))[:2] if ancilla else draw(st.sampled_from(pairs))
        unitary = Xor((regs[src].label, regs[dst].label), layout)
        full = _full_table(unitary)
    elif table == "full":
        unitary = PermutationUnitary(rng.permutation(layout.total_dim))
        full = unitary.perm
    else:
        inputs_at = [i for i in range(k) if i not in anc]
        pool = range(k) if table == "touches-ancilla" else inputs_at
        on = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=len(pool), unique=True))
        if table == "touches-ancilla" and not anc & set(on):
            on.append(min(anc))
        labels = [regs[i].label for i in on]
        unitary = PermutationUnitary(rng.permutation(layout.dim_of(labels)), labels, layout)
        full = _full_table(unitary)

    d_e = layout.dim_of(layout.with_role("E"))
    kinds = [m for m in M_KINDS if not (m == "3-cycle" and d_e < 3)]
    m = _measurement(rng, draw(st.sampled_from(kinds)), d_e)
    inst = QuantumInstrument(layout, sigma, unitary, MeasurementOperator.of(m))
    # the controlled-SWAP blocks and the copy keep no support; they have
    # their own tests (qsp_cases, xor_cases)
    key = tuple((i,) for i, r in enumerate(regs) if r.source == "input")
    assume(not isinstance(_route(inst, key), (_Blocks, _Copy)))

    inputs = []
    for r in regs:
        if r.source == "input":
            kind = draw(st.sampled_from(["pure", "density", "weighted"]))
            if kind == "pure":
                inputs.append(QuantumState.pure(rand_state(rng, r.dim)))
            elif kind == "density":
                inputs.append(QuantumState.from_density(rand_density(rng, r.dim)))
            else:
                inputs.append(WeightedState(_complex(rng, r.dim, r.dim), RegisterLayout.of(r)))
    return inst, inputs, _dense(full)


def _close(got, want, scale):
    return np.abs(np.asarray(got) - want).max() <= 1e-12 * scale


@given(case=instruments())
@settings(max_examples=190)
def test_support_path_matches_dense_reference(case):
    inst, inputs, u = case
    dense = replace(inst, unitary=u)
    ev, ev_dense = evolve(inst, inputs), evolve(dense, inputs)
    # a basis ancilla takes the support, no ancilla the gather
    assert isinstance(ev, Support if inst.ancilla else Evolved) and isinstance(ev_dense, Evolved)
    # the support scattered into (S, G r, E) arrays is U K and U B
    got = ev.scattered if inst.ancilla else ev
    assert (got.bra is got.ket) == (ev_dense.bra is ev_dense.ket)
    assert _close(got.ket, ev_dense.ket, 1.0) and _close(got.bra, ev_dense.bra, 1.0)
    want = reference_weighted_output(dense, inputs)
    m = inst.measurement.matrix
    # |tau| <= ||M||_2 times the trace norms of the input pieces
    scale = max(1.0, np.linalg.norm(m, 2)) * np.prod(
        [np.linalg.norm(x.matrix, "nuc") for x in inputs])
    assert _close(apply_exact(inst, inputs).matrix, want, scale)
    assert _close(apply_exact(dense, inputs).matrix, want, scale)
    if any(isinstance(x, WeightedState) for x in inputs):
        return
    rng = np.random.default_rng(len(want))
    obs = rand_hermitian(rng, len(want))
    o_norm = np.linalg.norm(obs, 2)
    got = sample_estimate(inst, inputs, obs, shots=100, seed=1)
    ref = sample_estimate(dense, inputs, obs, shots=100, seed=1)
    parts = sum(abs(c) * np.linalg.norm(form(n).dense(), 2)
                for c, n in inst.measurement.normal_parts())
    for field in ("analytic_mean", "analytic_variance", "variance_bound"):
        field_scale = (o_norm * parts) ** (1 if field == "analytic_mean" else 2)
        assert _close(getattr(got, field), getattr(ref, field), max(1.0, field_scale)), field
    assert _close(variance_exact(inst, inputs, obs), variance_exact(dense, inputs, obs),
                  max(1.0, (o_norm * parts) ** 2))
    if inst.measurement.kind != "nonnormal":
        for a, b in zip(branches(inst, inputs), branches(dense, inputs), strict=True):
            assert a.eigenvalue == b.eigenvalue
            assert abs(a.probability - b.probability) <= 1e-12
            if a.conditional_state is not None:
                scale = 1.0 / a.probability
                assert _close(a.conditional_state.matrix, b.conditional_state.matrix, scale)


def _observable(rng, d, degenerate):
    """A random Hermitian O, or one whose eigenvalues 1.5 and -0.5 repeat,
    in a random basis."""
    if not degenerate:
        return rand_hermitian(rng, d)
    v = rand_unitary(rng, d)
    return (v * np.where(np.arange(d) <= d // 2, 1.5, -0.5)) @ v.conj().T


def _per_row_reference(inst, inputs, obs, shots, seed):
    """The cells (probabilities, weights), the report of sample_estimate,
    variance_exact and variance_bound at ||O|| = 1, assembled from the group
    tables' t here: the cells by one np.add.at per row of M's rows, each
    statistic by its own formula, and the computational-basis t through the
    identity's GEMM and einsum."""
    rows = inst.measurement.rows
    q, value, labels, merged, groups = rows
    basis = o_vals, _, o_labels = eigenbasis(obs)
    ev = evolve(inst, inputs)
    t = group_table(ev, inst.measurement, basis).t
    cells = np.zeros((len(o_vals), len(merged)))
    for r in range(len(q)):
        np.add.at(cells[:, labels[r]], o_labels, q[r] * t.real[r])
    probs = np.clip(cells.ravel(), 0.0, None)
    weights = (o_vals.real[:, None] * merged[None, :]).ravel()
    counts = sample_counts(probs, shots, seed)
    mean = np.dot(counts, weights) / shots
    second = float(np.dot(counts, np.abs(weights) ** 2).real)
    o = o_vals.real[o_labels]

    def moment(t, o):
        return float(((q * np.abs(value) ** 2) @ (t @ o)).real)

    a_mean = complex((q * value) @ (t @ o))
    eye = np.eye(len(o))
    diagonal = np.einsum("sa,gsa->ga", eye.conj(), np.array(projected_outputs(ev, groups)) @ eye)
    sample_var = (second - shots * abs(mean) ** 2) / (shots - 1)
    report = EstimatorReport(
        shots, seed, complex(mean), float(max(sample_var, 0.0)), a_mean,
        moment(t, o**2) - abs(a_mean) ** 2, float(np.abs(o_vals).max()) ** 2 * moment(t, o**0))
    bounds = VarianceBounds(moment(diagonal, np.ones(len(o))), float(np.abs(value).max()) ** 2)
    return (probs, weights), report, report.analytic_variance, bounds


def _check_per_row_reference(inst, inputs, obs):
    """_joint_cells bit for bit, and the estimators' reports equal (==), on
    inst against _per_row_reference."""
    cells, report, variance, bounds = _per_row_reference(inst, inputs, obs, 100, 1)
    got = _joint_cells(group_table(evolve(inst, inputs), inst.measurement, eigenbasis(obs)))
    assert [x.tobytes() for x in got] == [x.tobytes() for x in cells]
    assert sample_estimate(inst, inputs, obs, shots=100, seed=1) == report
    assert variance_exact(inst, inputs, obs) == variance
    assert variance_bound(inst, inputs, 1.0) == bounds


@given(case=instruments(), degenerate=st.booleans())
@settings(max_examples=60)
def test_cells_and_reports_match_the_per_row_reference(case, degenerate):
    # the kept law's flat index, bincount and moment columns against the
    # per-row sums they replace, on the instrument and on its dense-U twin
    inst, inputs, u = case
    if any(isinstance(x, WeightedState) for x in inputs):
        return
    d = inst.output_layout.total_dim
    obs = _observable(np.random.default_rng(d), d, degenerate)
    for x in (inst, replace(inst, unitary=u)):
        _check_per_row_reference(x, inputs, obs)


@pytest.mark.parametrize("pure", [True, False], ids=["pure", "density"])
def test_merged_cells_of_parts_and_a_degenerate_observable(pure, rng):
    # M = |0><0| + i |+><+|, given as those two parts, is not normal; each
    # part has the scaled value 0 once, and both zero groups fall into one
    # cell; O repeats its eigenvalues, so its columns share cells too
    plus = np.full((2, 2), 0.5)
    zero = np.diag([1.0, 0.0])
    meas = MeasurementOperator.of(zero + 1j * plus, ((1.0, zero), (1j, plus)))
    inst = build_qsp_instrument(rand_density(rng, 2), meas, 2)
    assert inst.measurement.kind == "nonnormal"
    _, value, labels, merged, _ = inst.measurement.rows
    assert len(merged) == len(value) - 1 and np.sum(labels == labels[value == 0][0]) == 2
    make = QuantumState.pure if pure else QuantumState.from_density
    inputs = [make((rand_state if pure else rand_density)(rng, 4)) for _ in range(2)]
    obs = _observable(rng, 4, degenerate=True)
    assert len(eigenbasis(obs)[0]) == 2
    _check_per_row_reference(inst, inputs, obs)
    _check_per_row_reference(table_held(inst), inputs, obs)


def test_large_teleport_emulation_is_normal(rng):
    # d_E = 1024: the block measurement is 2048 x 2048, classified
    # exactly, neither Hermitian nor skew-Hermitian
    inst = build_teleport_instrument(5, [(_complex(rng, 32, 32), _complex(rng, 32, 32))])
    assert inst.measurement.kind == "nonnormal"
    emulated = emulate_nonnormal(inst)
    assert emulated.measurement.dim == 2048
    assert emulated.measurement.kind == "normal"


# ---------------------------------------------------------------------------
# the controlled SWAP of QSP

QSP_M = ("dense-hermitian", "dense-normal", "nonnormal", "nonnormal-parts", "low-rank", "swap")


def _qsp_measurement(rng, kind):
    if kind == "dense-hermitian":
        return MeasurementOperator.of(rand_hermitian(rng, 2))
    if kind == "dense-normal":
        v = rand_unitary(rng, 2)
        return MeasurementOperator.of(v @ np.diag(_complex(rng, 2)) @ v.conj().T)
    if kind == "swap":
        return MeasurementOperator.of(PermutationUnitary(np.array([1, 0])))
    if kind == "low-rank":
        rank = rng.integers(0, 3)
        return MeasurementOperator.of(LowRankOperator(_complex(rng, 2, rank), _complex(rng, 2, rank)))
    m = _complex(rng, 2, 2)
    if kind == "nonnormal":
        return MeasurementOperator.of(m)
    # the Hermitian and anti-Hermitian halves, given as M = A + i B
    return MeasurementOperator.of(m, ((1.0, (m + m.conj().T) / 2), (1j, (m - m.conj().T) / 2j)))


def _piece(rng, kind, d):
    if kind == "pure":
        return QuantumState.pure(rand_state(rng, d))
    if kind == "density":
        return QuantumState.from_density(rand_density(rng, d))
    return WeightedState(_complex(rng, d, d), RegisterLayout.of(Register("W", d)))


@st.composite
def qsp_cases(draw):
    """(instrument, inputs) of build_qsp_instrument at n = 1 or 2."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 2))
    d = 2**n
    ancilla = draw(st.sampled_from(["vector", "density", "pure-state", "density-state"]))
    sigma = rand_state(rng, 2) if ancilla in ("vector", "pure-state") else rand_density(rng, 2)
    if ancilla.endswith("state"):
        lay = RegisterLayout.of(Register("A", 2))
        sigma = QuantumState(lay, vector=sigma) if sigma.ndim == 1 else QuantumState(lay, density=sigma)
    inst = build_qsp_instrument(sigma, _qsp_measurement(rng, draw(st.sampled_from(QSP_M))), n)
    kinds = st.sampled_from(["pure", "density", "weighted"])
    if draw(st.booleans()):
        inputs = [_piece(rng, draw(kinds), d) for _ in range(2)]
    else:
        inputs = [_piece(rng, draw(kinds), d * d)]
    return inst, inputs


@given(case=qsp_cases())
@settings(max_examples=150)
def test_controlled_swap_matches_its_table_and_the_reference(case):
    inst, inputs = case
    table = table_held(inst)
    read = instrument_from_json(json.loads(json.dumps(instrument_to_json(inst))))
    assert isinstance(read.unitary, ControlledSwap)
    m_norm = max(1.0, np.linalg.norm(inst.measurement.matrix, 2))
    nuc = np.prod([np.linalg.norm(x.matrix, "nuc") for x in inputs])
    scale = m_norm * nuc
    with no_gather():
        ev = evolve(inst, inputs)
        assert isinstance(ev, _Blocks) and ev.x.shape == (2, 2, *inst.output_layout.dims * 2)
        tau = apply_exact(inst, inputs).matrix
        obs = rand_hermitian(np.random.default_rng(len(tau)), len(tau))
        got = [variance_exact(inst, inputs, obs), variance_bound(inst, inputs, 2.0)]
        from_doc = [apply_exact(read, inputs).matrix, variance_exact(read, inputs, obs)]
        physical = not any(isinstance(x, WeightedState) for x in inputs)
        if physical:
            got.append(sample_estimate(inst, inputs, obs, shots=100, seed=1))
            from_doc.append(sample_estimate(read, inputs, obs, shots=100, seed=1))
            if inst.measurement.kind != "nonnormal":
                got.append(branches(inst, inputs))
    assert _close(tau, reference_weighted_output(inst, inputs), scale)
    assert _close(from_doc[0], tau, scale)
    assert _close(tau, apply_exact(table, inputs).matrix, scale)
    o_norm = np.linalg.norm(obs, 2)
    parts = sum(abs(c) * np.linalg.norm(form(n).dense(), 2)
                for c, n in inst.measurement.normal_parts())
    var_scale = max(1.0, (o_norm * parts) ** 2) * scale
    assert _close(got[0], variance_exact(table, inputs, obs), var_scale)
    assert _close(from_doc[1], got[0], var_scale)
    want = variance_bound(table, inputs, 2.0)
    assert _close([got[1].b1, got[1].b2], [want.b1, want.b2], var_scale)
    if len(got) > 2:
        want = sample_estimate(table, inputs, obs, shots=100, seed=1)
        for field in ("analytic_mean", "analytic_variance", "variance_bound"):
            field_scale = max(1.0, o_norm * parts) ** (1 if field == "analytic_mean" else 2)
            assert _close(getattr(got[2], field), getattr(want, field), field_scale), field
            assert _close(getattr(from_doc[2], field), getattr(want, field), field_scale), field
    if len(got) > 3:
        for a, b in zip(got[3], branches(table, inputs), strict=True):
            assert a.eigenvalue == b.eigenvalue
            assert abs(a.probability - b.probability) <= 1e-12
            if a.conditional_state is not None:
                scale = 1.0 / a.probability
                assert _close(a.conditional_state.matrix, b.conditional_state.matrix, scale)
    # block X[e, f] is the table's weighted output for M = |f><e|
    ev_table = evolve(table, inputs)
    for e, f in np.ndindex(2, 2):
        unit = np.zeros((2, 2))
        unit[f, e] = 1.0
        assert _close(ev.x[e, f], weighted_output(ev_table, unit), nuc)


@pytest.mark.parametrize("case", ["control-first", "control-last", "swap-on-0", "pair-exchanged",
                                  "unequal-dims"])
def test_full_table_is_a_controlled_swap_only_when_it_is_one(case):
    # a full-layout table on a measured qubit C and inputs S, G: the
    # controlled SWAP, with C first or last, is held as a ControlledSwap
    # and takes the blocks; the SWAP controlled on |0>, a controlled SWAP
    # with two entries exchanged and a table on S, G of unequal dims stay
    # tables; each matches the dense reference of its table
    rng = np.random.default_rng(11)
    d, d_g = 3, 2 if case == "unequal-dims" else 3
    regs = [Register("C", 2, role="E", source="ancilla"), Register("S", d, role="S", source="input"),
            Register("G", d_g, role="G", source="input")]
    layout = RegisterLayout.of(*(regs[1:] + regs[:1] if case == "control-last" else regs))
    x = dict(zip(layout.labels, np.indices(layout.dims, sparse=True)))
    c, s, g = x["C"], x["S"], x["G"]
    if case == "unequal-dims":
        y = {"C": c, "S": s, "G": (g + c) % d_g}
    else:
        swapped = c == (0 if case == "swap-on-0" else 1)
        y = {"C": c, "S": np.where(swapped, g, s), "G": np.where(swapped, s, g)}
    perm = np.broadcast_to(combine_digits([y[l] for l in layout.labels], layout.dims),
                           layout.dims).reshape(-1).copy()
    if case == "pair-exchanged":
        perm[[0, 1]] = perm[[1, 0]]
    sigma = QuantumState(layout.sub(("C",)), density=rand_density(rng, 2))
    inst = QuantumInstrument(layout, sigma, PermutationUnitary(perm),
                             MeasurementOperator.of(_complex(rng, 2, 2)))
    held = case.startswith("control")
    assert isinstance(inst.unitary, ControlledSwap) == held
    assert np.array_equal(form(inst.unitary).lifted().perm, perm)
    inputs = [QuantumState.from_density(rand_density(rng, d)),
              QuantumState.from_density(rand_density(rng, d_g))]
    with no_gather() if held else contextlib.nullcontext():
        tau = apply_exact(inst, inputs).matrix
    want = reference_weighted_output(replace(inst, unitary=_dense(perm)), inputs)
    assert _close(tau, want, np.linalg.norm(inst.measurement.matrix, 2))


@given(seed=st.integers(0, 2**32 - 1), first=st.sampled_from(["qhp", "joint"]),
       swapped=st.booleans(), n=st.integers(1, 2))
@settings(max_examples=40)
def test_qsp_second_stage_keeps_pieces_apart(seed, first, swapped, n):
    # a QHP stage feeds one of QSP's inputs, S or G, a fresh input the other,
    # each its own piece; a stage that passes its two inputs through feeds
    # both as one joint piece over (S, G), its registers swapped here when it
    # feeds them in the order (G, S)
    rng = np.random.default_rng(seed)
    d = 2**n
    qsp = build_qsp_instrument(rand_density(rng, 2), _complex(rng, 2, 2), n)
    states = [QuantumState.pure(rand_state(rng, d)), QuantumState.from_density(rand_density(rng, d))]
    if first == "qhp":
        stage = build_qhp_instrument(n)
        fresh = QuantumState.from_density(rand_density(rng, d))

        def fed(tau):
            return [fresh, tau] if swapped else [tau, fresh]
    else:
        lay = RegisterLayout.of(Register("A", d, role="S"), Register("B", d, role="S"))
        stage = QuantumInstrument(lay, None, PermutationUnitary(np.arange(d * d)),
                                  MeasurementOperator.of(np.eye(1)))

        def fed(tau):
            tau = np.asarray(getattr(tau, "matrix", tau))
            return [tau.reshape((d,) * 4).transpose(1, 0, 3, 2).reshape(d * d, -1) if swapped
                    else tau]
    pieces = fed(apply_exact(stage, states))
    want = reference_weighted_output(qsp, fed(reference_weighted_output(stage, states)))
    scale = max(1.0, np.linalg.norm(qsp.measurement.matrix, 2))
    with no_gather():
        assert _close(apply_exact(qsp, pieces).matrix, want, scale)
    assert _close(apply_exact(table_held(qsp), pieces).matrix, want, scale)


# ---------------------------------------------------------------------------
# the CNOT ladders of QHP, GQT and teleport

XOR_M = ("dense-hermitian", "dense-nonnormal", "nonnormal-parts", "permutation", "low-rank")


def _xor_measurement(rng, kind, d):
    if kind == "dense-hermitian":
        return MeasurementOperator.of(rand_hermitian(rng, d))
    if kind == "permutation":
        return MeasurementOperator.of(PermutationUnitary(rng.permutation(d)))
    if kind == "low-rank":
        rank = rng.integers(0, 3)
        u, v = _complex(rng, d, rank), _complex(rng, d, rank)
        return MeasurementOperator.of(LowRankOperator(u, v))
    m = _complex(rng, d, d)
    if kind == "dense-nonnormal":
        return MeasurementOperator.of(m)
    return MeasurementOperator.of(m, ((1.0, (m + m.conj().T) / 2), (1j, (m - m.conj().T) / 2j)))


@st.composite
def xor_cases(draw):
    """(instrument, inputs) of a CNOT ladder copying input register X onto a
    basis-state ancilla: GQT's orientation (X is S, the copy an E register)
    or teleport's (X is E, the copy S), the three registers (X, the copy and
    the second E register Y) in any order, the ancilla any basis vector with
    any phase; M dense Hermitian, dense non-normal with and without given
    parts, a permutation or low-rank (rank 0 included); one pure, density or
    weighted piece per input register, or one joint piece over both."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gqt_like = draw(st.booleans())
    d_x = draw(st.sampled_from([2, 3, 4]))
    d_copy = draw(st.sampled_from([d for d in (2, 4) if d >= d_x]))
    regs = {"X": Register("X", d_x, role="S" if gqt_like else "E"),
            "C": Register("C", d_copy, role="E" if gqt_like else "S", source="ancilla"),
            "Y": Register("Y", draw(st.sampled_from([2, 3])), role="E")}
    layout = RegisterLayout.of(*(regs[l] for l in draw(st.permutations("XCY"))))
    vector = np.zeros(d_copy, dtype=np.complex128)
    vector[draw(st.integers(0, d_copy - 1))] = np.exp(1j * draw(st.floats(0, 2 * np.pi)))
    sigma = QuantumState(layout.sub(("C",)), vector=vector)
    d_e = layout.dim_of(layout.with_role("E"))
    meas = _xor_measurement(rng, draw(st.sampled_from(XOR_M)), d_e)
    inst = QuantumInstrument(layout, sigma, Xor(("X", "C"), layout), meas)
    kinds = st.sampled_from(["pure", "density", "weighted"])
    inputs = [_piece(rng, draw(kinds), regs[l].dim) for l in inst.input_labels]
    if draw(st.integers(0, 3)) == 0:
        joint = np.kron(*(x.matrix for x in inputs))
        inputs = [WeightedState(joint, RegisterLayout.of(Register("W", len(joint))))
                  if any(isinstance(x, WeightedState) for x in inputs)
                  else QuantumState.from_density(joint)]
    return inst, inputs


@given(case=xor_cases())
@settings(max_examples=150)
def test_xor_copy_matches_the_reference(case):
    inst, inputs = case
    dense = replace(inst, unitary=inst.unitary.dense())
    scale = max(1.0, np.linalg.norm(inst.measurement.matrix, 2)) * np.prod(
        [np.linalg.norm(x.matrix, "nuc") for x in inputs])
    apart = len(inputs) == 2
    with no_gather() if apart else contextlib.nullcontext():
        ev = evolve(inst, inputs)
        tau = apply_exact(inst, inputs).matrix
    assert isinstance(ev, _Copy if apart else Support)
    assert _close(tau, reference_weighted_output(inst, inputs), scale)
    if any(isinstance(x, WeightedState) for x in inputs):
        return
    obs = rand_hermitian(np.random.default_rng(len(tau)), len(tau))
    o_norm = np.linalg.norm(obs, 2)
    parts = sum(abs(c) * np.linalg.norm(form(n).dense(), 2)
                for c, n in inst.measurement.normal_parts())
    with no_gather() if apart else contextlib.nullcontext():
        got = sample_estimate(inst, inputs, obs, shots=100, seed=1)
        var = variance_exact(inst, inputs, obs)
        bound = variance_bound(inst, inputs, 2.0)
        branched = branches(inst, inputs) if inst.measurement.kind != "nonnormal" else []
    want = sample_estimate(dense, inputs, obs, shots=100, seed=1)
    field_scale = max(1.0, o_norm * parts) * scale
    mean = np.einsum("st,ts->", reference_weighted_output(inst, inputs), obs)
    assert _close(got.analytic_mean, mean, field_scale)
    for field in ("analytic_mean", "analytic_variance", "variance_bound"):
        assert _close(getattr(got, field), getattr(want, field), field_scale ** 2), field
    assert _close(var, variance_exact(dense, inputs, obs), field_scale ** 2)
    dense_bound = variance_bound(dense, inputs, 2.0)
    assert _close([bound.b1, bound.b2], [dense_bound.b1, dense_bound.b2], field_scale ** 2)
    for a, b in zip(branched, branches(dense, inputs) if branched else [], strict=True):
        assert a.eigenvalue == b.eigenvalue
        assert abs(a.probability - b.probability) <= 1e-12
        if a.conditional_state is not None:
            assert _close(a.conditional_state.matrix, b.conditional_state.matrix,
                          1.0 / a.probability)


@pytest.mark.parametrize("case", ["src-first", "src-last", "qhp-layout", "add-mod-4",
                                  "two-registers-moved", "pair-exchanged", "dst-of-dim-6"])
def test_full_table_is_an_xor_only_when_it_is_one(case):
    # a full-layout table on an input S, an E register C holding a basis
    # ancilla and an input E register Y: dst ^= src, with S before or after
    # C, or on QHP's two input registers, is held as an Xor and takes the
    # copy (or, without an ancilla, the gather from digit grids); C += S mod
    # 4, the XOR with a flip of Y, the XOR with two entries exchanged and a
    # valid XOR onto a register of dim 6 stay tables; each matches the dense
    # reference of its table, and a document of each carries the table
    rng = np.random.default_rng(12)
    d_c = 6 if case == "dst-of-dim-6" else 4
    regs = [Register("S", 2 if case == "dst-of-dim-6" else 4, role="S"),
            Register("C", d_c, role="E", source="ancilla"), Register("Y", 3, role="E")]
    if case == "qhp-layout":
        regs = [Register("S", 4, role="S"), Register("C", 4, role="E")]
    layout = RegisterLayout.of(*(regs[1:2] + regs[:1] + regs[2:] if case == "src-last" else regs))
    x = dict(zip(layout.labels, np.indices(layout.dims, sparse=True)))
    y = dict(x, C=(x["C"] + x["S"]) % d_c if case == "add-mod-4" else x["C"] ^ x["S"])
    if case == "two-registers-moved":
        y["Y"] = 2 - x["Y"]
    perm = np.broadcast_to(combine_digits([y[l] for l in layout.labels], layout.dims),
                           layout.dims).reshape(-1).copy()
    if case == "pair-exchanged":
        perm[[0, 1]] = perm[[1, 0]]
    held = case in ("src-first", "src-last", "qhp-layout")
    d_e = layout.dim_of(layout.with_role("E"))
    sigma = None
    if case != "qhp-layout":
        vector = np.zeros(d_c, dtype=np.complex128)
        vector[3] = 1.0
        sigma = QuantumState(layout.sub(("C",)), vector=vector)
    inst = QuantumInstrument(layout, sigma, PermutationUnitary(perm),
                             MeasurementOperator.of(_complex(rng, d_e, d_e)))
    assert isinstance(inst.unitary, Xor) == held
    assert np.array_equal(form(inst.unitary).lifted().perm, perm)
    assert instrument_to_json(inst)["unitary"] == {"permutation": perm.tolist()}
    inputs = [QuantumState.from_density(rand_density(rng, layout.dim_of((l,))))
              for l in inst.input_labels]
    with no_gather() if held and sigma is not None else contextlib.nullcontext():
        tau = apply_exact(inst, inputs).matrix
    if held:
        assert "perm" not in vars(inst.unitary)
    want = reference_weighted_output(replace(inst, unitary=_dense(perm)), inputs)
    assert _close(tau, want, np.linalg.norm(inst.measurement.matrix, 2))


@pytest.mark.parametrize("dst_role", ["S", "E", "G"])
@pytest.mark.parametrize("a", [0, 1])
def test_xor_from_a_basis_ancilla_takes_the_support(dst_role, a, rng):
    # an Xor whose src is the basis ancilla |a>, which no copy takes: the
    # support's rows come from the digits with the ancilla's digit fixed,
    # so dst ^= a on every row, without the table
    regs = [Register("A", 2, role="E", source="ancilla"), Register("D", 4, role=dst_role),
            Register("P", 2, role="S"), Register("Q", 3, role="E" if dst_role == "G" else "G")]
    layout = RegisterLayout.of(*regs)
    vector = np.zeros(2, dtype=np.complex128)
    vector[a] = np.exp(0.3j)
    d_e = layout.dim_of(layout.with_role("E"))
    inst = QuantumInstrument(layout, QuantumState(layout.sub(("A",)), vector=vector),
                             Xor(("A", "D"), layout), MeasurementOperator.of(_complex(rng, d_e, d_e)))
    inputs = [QuantumState.from_density(rand_density(rng, layout.dim_of((l,))))
              for l in inst.input_labels]
    assert isinstance(evolve(inst, inputs), Support)
    tau = apply_exact(inst, inputs).matrix
    assert "perm" not in vars(inst.unitary)
    want = reference_weighted_output(replace(inst, unitary=_dense(_full_table(inst.unitary))), inputs)
    assert _close(tau, want, np.linalg.norm(inst.measurement.matrix, 2))


@pytest.mark.usefixtures("fresh_frames")
@pytest.mark.parametrize("build", ["qhp", "gqt", "teleport"])
def test_builders_never_derive_their_xor_table(build, rng):
    # build, apply_exact and two estimates with one piece per input read
    # only the Xor's digits, never its table
    n, d = 2, 4
    inst = {"qhp": lambda: build_qhp_instrument(n), "gqt": lambda: build_gqt_instrument(n),
            "teleport": lambda: build_teleport_instrument(n, [(_complex(rng, d, d),) * 2])}[build]()
    assert isinstance(inst.unitary, Xor) and "perm" not in vars(inst.unitary)
    inputs = [QuantumState.from_density(rand_density(rng, d)),
              QuantumState.pure(rand_state(rng, d))]
    apply_exact(inst, inputs)
    obs = rand_hermitian(rng, d)
    first, second = (sample_estimate(inst, inputs, obs, shots=1000, seed=3) for _ in range(2))
    assert first == second
    assert "perm" not in vars(inst.unitary)
