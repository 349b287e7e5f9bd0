"""Structured operator forms against their dense or full-layout forms.

GQT holds its SWAP as a PermutationUnitary and teleport its Bell-type map as
a LowRankOperator; every result must match the dense d_E x d_E path, and at
n = 7, where a dense M would take 4.3 GB, the structured path must stay small.
A permutation U held on some of the registers must evolve as its lift to the
whole layout does, and an exact evaluation must hold little beyond one ket.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wstate import tensor
from wstate.errors import DimensionMismatch, NotNormal, ValidationError
from wstate.instrument import (
    MeasurementOperator,
    QuantumInstrument,
    QuantumState,
    WeightedState,
    apply_exact,
    concatenate,
    branches,
    evolve,
    expectation,
    weighted_output,
)
from wstate.sampling import (
    _joint_cells,
    sample_estimate,
    variance_bound,
    variance_exact,
    variance_gqt,
)
from wstate.subroutines import (
    build_gqt_instrument,
    build_qhp_instrument,
    build_qsp_instrument,
    build_teleport_instrument,
    gqt,
    teleport_map,
)
from wstate.tensor import (
    LowRankOperator,
    PermutationUnitary,
    Register,
    RegisterLayout,
    eigenbasis,
    embed_permutation,
    merge_values,
    spectral_norm,
)

from conftest import (
    emulate_nonnormal,
    group_table,
    rand_density,
    rand_hermitian,
    rand_state,
    table_held,
)


def _complex(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


MAPS = {
    "one-random": lambda rng, d: [(_complex(rng, d), _complex(rng, d))],
    "two-random": lambda rng, d: [(_complex(rng, d), _complex(rng, d)) for _ in range(2)],
    "identity": lambda rng, d: [(np.eye(d), np.eye(d))],
    "phase": lambda rng, d: [(np.exp(0.7j) * np.eye(d), np.eye(d))],
}


def _instruments(rng, n):
    d = 2**n
    yield "gqt", build_gqt_instrument(n)
    for name, make in MAPS.items():
        yield f"teleport-{name}", build_teleport_instrument(n, make(rng, d))


def _inputs(rng, d, pure):
    if pure:
        return [QuantumState.pure(rand_state(rng, d)) for _ in range(2)]
    return [QuantumState.from_density(rand_density(rng, d)) for _ in range(2)]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("pure", [True, False], ids=["pure", "density"])
def test_structured_matches_dense(rng, n, pure):
    d = 2**n
    for name, inst in _instruments(rng, n):
        assert not isinstance(inst.measurement.operator, np.ndarray), name
        inputs = _inputs(rng, d, pure)
        got = apply_exact(inst, inputs).matrix
        want = weighted_output(evolve(inst, inputs), inst.measurement.matrix)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name
        dense_kind = MeasurementOperator.of(inst.measurement.matrix).kind
        assert inst.measurement.kind == dense_kind, name


def _law(probs, weights):
    """Outcome law of a cell table: total probability per distinct weight,
    with weights within DEGENERACY_TOL (1e-9) of the largest merged, sorted."""
    labels, values = merge_values(weights, np.abs(weights).max())
    mass = np.zeros(len(values))
    np.add.at(mass, labels, probs)
    order = np.lexsort((np.round(values.imag, 9), np.round(values.real, 9)))
    return values[order], mass[order]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("pure", [True, False], ids=["pure", "density"])
@pytest.mark.parametrize("method", ["emulate", "randomized"])
def test_structured_cells_match_dense(rng, n, pure, method):
    # the same instrument with M rebuilt densely: eigenbasis groups of .matrix
    d = 2**n
    for name, inst in _instruments(rng, n):
        dense = replace(inst, measurement=MeasurementOperator.of(inst.measurement.matrix))
        assert isinstance(dense.measurement.operator, np.ndarray)
        inputs = _inputs(rng, d, pure)
        obs = rand_hermitian(rng, d)
        ev = evolve(inst, inputs)
        got = _law(*_joint_cells(group_table(ev, inst.measurement, eigenbasis(obs))))
        want = _law(*_joint_cells(group_table(ev, dense.measurement, eigenbasis(obs))))
        assert len(got[0]) == len(want[0]), name
        assert np.abs(got[0] - want[0]).max() <= 1e-12 * np.abs(want[0]).max(), name
        assert np.abs(got[1] - want[1]).max() <= 1e-12, name

        a = sample_estimate(inst, inputs, obs, 1000, seed=5, method=method)
        b = sample_estimate(dense, inputs, obs, 1000, seed=5, method=method)
        for field in ("analytic_mean", "analytic_variance", "variance_bound"):
            x, y = getattr(a, field), getattr(b, field)
            assert abs(x - y) <= 1e-12 * abs(y), (name, field)
        norm = spectral_norm(obs)
        x, y = variance_bound(inst, inputs, norm), variance_bound(dense, inputs, norm)
        assert abs(x.b2 - y.b2) <= 1e-12 * y.b2, name


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("pure", [True, False], ids=["pure", "density"])
@pytest.mark.parametrize("kind", ["qsp", "teleport"])
def test_merged_cells_match_emulated_instrument(rng, n, pure, kind):
    # method="emulate" claims the law of emulate_nonnormal's instrument
    d = 2**n
    if kind == "qsp":
        inst = build_qsp_instrument(rand_density(rng, 2), _complex(rng, 2), n)
        assert isinstance(inst.measurement.operator, np.ndarray)
    else:
        inst = build_teleport_instrument(n, MAPS["one-random"](rng, d))
        assert isinstance(inst.measurement.operator, LowRankOperator)
    assert inst.measurement.kind == "nonnormal"
    emulated = emulate_nonnormal(inst)
    assert emulated.measurement.kind != "nonnormal"
    inputs = _inputs(rng, d, pure)
    obs = rand_hermitian(rng, d)
    basis = eigenbasis(obs)
    got = _law(*_joint_cells(group_table(evolve(inst, inputs), inst.measurement, basis)))
    want = _law(*_joint_cells(group_table(evolve(emulated, inputs), emulated.measurement, basis)))
    assert len(got[0]) == len(want[0])
    assert np.abs(got[0] - want[0]).max() <= 1e-12 * np.abs(want[0]).max()
    assert np.abs(got[1] - want[1]).max() <= 1e-12


def test_kinds_of_the_teleport_maps(rng):
    kinds = {
        name: build_teleport_instrument(2, make(rng, 4)).measurement.kind
        for name, make in MAPS.items()
    }
    assert kinds == {
        "one-random": "nonnormal",
        "two-random": "nonnormal",
        "identity": "hermitian",
        "phase": "normal",
    }


def test_permutation_kinds():
    cycle = PermutationUnitary(np.array([1, 2, 0]))
    assert MeasurementOperator.of(cycle).kind == "normal"
    with pytest.raises(ValidationError):
        MeasurementOperator(cycle, "hermitian")
    swap = PermutationUnitary(np.array([0, 2, 1, 3]))
    assert MeasurementOperator.of(swap).kind == "hermitian"
    assert MeasurementOperator(swap, "normal").kind == "normal"


def test_structured_nonnormal_split_matches_dense(rng):
    inst = build_teleport_instrument(2, MAPS["one-random"](rng, 4))
    dense = MeasurementOperator.of(inst.measurement.matrix)
    for (c, n), (c0, n0) in zip(inst.measurement.normal_parts(), dense.normal_parts()):
        assert isinstance(n, LowRankOperator)
        assert c == c0 and np.abs(n.dense() - n0).max() <= 1e-12 * np.abs(n0).max()


def test_reads_leave_the_measurement_unchanged(rng):
    # M is held in one form: once its class and parts are decided, reading
    # its matrix or its parts writes nothing, so no dense array is kept
    ops = [
        np.array([[1.0, 1.0], [0.0, 1.0]]),
        PermutationUnitary(np.array([0, 2, 1, 3])),
        build_teleport_instrument(1, MAPS["one-random"](rng, 2)).measurement.operator,
    ]
    assert MeasurementOperator.of(ops[2]).kind == "nonnormal"
    for form in ops:
        meas = MeasurementOperator.of(form)
        meas.kind, meas.parts
        before = dict(vars(meas))
        meas.matrix, meas.normal_parts(), meas.matrix, meas.normal_parts()
        assert vars(meas).keys() == before.keys() == {"operator", "kind", "parts"}
        assert all(vars(meas)[k] is v for k, v in before.items())


@pytest.mark.parametrize("name", ["qhp", "gqt", "teleport-identity", "teleport-one-random"])
def test_build_and_apply_exact_decide_no_class(rng, monkeypatch, name):
    # the exact output is linear in M, so building an instrument and
    # applying it decide nothing about M: no classify, no involution test
    # of a permutation, no QR core of a low-rank M; the first read of kind
    # decides the class
    calls = []

    def spy(label, real):
        def counted(*args):
            calls.append(label)
            return real(*args)

        return counted

    monkeypatch.setattr(tensor, "classify", spy("classify", tensor.classify))
    monkeypatch.setattr(PermutationUnitary, "is_involution",
                        property(spy("is_involution", PermutationUnitary.is_involution.fget)))
    monkeypatch.setattr(LowRankOperator, "core",
                        property(spy("core", LowRankOperator.__dict__["core"].func)))
    if name == "qhp":
        inst = build_qhp_instrument(2)
    elif name == "gqt":
        inst = build_gqt_instrument(2)
    else:
        inst = build_teleport_instrument(2, MAPS[name.split("-", 1)[1]](rng, 4))
    for pure in (True, False):
        apply_exact(inst, _inputs(rng, 4, pure=pure))
    assert calls == []
    inst.measurement.kind
    assert calls


def test_zero_rank_measurement_matches_dense_zero(rng):
    # teleport without maps holds M = u v^dag with factors of shape (4, 0):
    # its one spectral group is the identity, with eigenvalue 0, as for a
    # dense zero M
    inst = build_teleport_instrument(1, [])
    assert inst.measurement.operator.u.shape == (4, 0)
    zero = replace(inst, measurement=MeasurementOperator.of(np.zeros((4, 4))))
    inputs, obs = _inputs(rng, 2, pure=False), rand_hermitian(rng, 2)
    reports = [sample_estimate(x, inputs, obs, shots=100, seed=3) for x in (inst, zero)]
    assert reports[0] == reports[1]
    assert reports[0].sample_mean == reports[0].analytic_mean == 0
    assert reports[0].sample_variance == reports[0].analytic_variance == 0
    for x in (inst, zero):
        assert variance_exact(x, inputs, obs) == 0
        assert variance_bound(x, inputs, 1.0).to_json() == {"b1": 0.0, "b2": 0.0}
        (branch,) = branches(x, inputs)
        assert branch.eigenvalue == 0 and abs(branch.probability - 1.0) <= 1e-12


def test_permutation_held_on_registers_measures_as_its_lift(rng):
    # a flip of E2 alone, held on that register of the E layout (E1, E2): M
    # keeps its table over the whole E space and measures as the dense flip
    inst = build_gqt_instrument(1)
    elay = inst.layout.sub(inst.e_labels)
    flip = PermutationUnitary(np.array([1, 0]), ("E2",), elay)
    meas = MeasurementOperator.of(flip)
    assert meas.dim == 4 and meas.operator.labels is None
    dense = MeasurementOperator.of(flip.dense())
    assert meas.kind == dense.kind == "hermitian"
    held, want = (replace(inst, measurement=m) for m in (meas, dense))
    inputs, obs = _inputs(rng, 2, pure=False), rand_hermitian(rng, 2)
    tau = apply_exact(want, inputs).matrix
    assert np.abs(apply_exact(held, inputs).matrix - tau).max() <= 1e-12
    a, b = (sample_estimate(x, inputs, obs, shots=1000, seed=4) for x in (held, want))
    assert abs(a.analytic_mean - b.analytic_mean) <= 1e-12
    assert abs(a.analytic_variance - b.analytic_variance) <= 1e-12
    got = [(br.eigenvalue, br.probability) for br in branches(held, inputs)]
    ref = [(br.eigenvalue, br.probability) for br in branches(want, inputs)]
    assert np.allclose(sorted(got, key=lambda x: x[0].real), sorted(ref, key=lambda x: x[0].real),
                       rtol=0, atol=1e-12)


@pytest.mark.parametrize("maps", ["identity", "one-random"])
def test_low_rank_core_factored_once(rng, monkeypatch, maps):
    # the QR of M's [u v] (16 x 2) runs once across construction, rows,
    # normal parts, branches and estimates; each low-rank part of a
    # non-normal M holds the core it is built from and runs none
    real = np.linalg.qr
    seen = []

    def spy(a, *args, **kwargs):
        seen.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", spy)
    inst = build_teleport_instrument(2, MAPS[maps](rng, 4))
    meas = inst.measurement
    inputs = _inputs(rng, 4, pure=True)
    meas.rows, meas.normal_parts()
    if meas.kind == "nonnormal":
        with pytest.raises(NotNormal):
            branches(inst, inputs)
    else:
        branches(inst, inputs)
    sample_estimate(inst, inputs, rand_hermitian(rng, 4), shots=100, seed=1)
    variance_bound(inst, inputs, 1.0)
    assert seen == [(16, 2)]
    assert all(n.core[0] is meas.operator.core[0] for _, n in meas.parts or ())


@pytest.mark.parametrize("maps", ["identity", "one-random"])
def test_derived_low_rank_forms_skip_the_factor_check(rng, monkeypatch, maps):
    # the parts of a split and the group projectors come from checked
    # factors, so only the public constructor checks
    checked = []
    real = LowRankOperator.__post_init__

    def spy(op):
        checked.append(op)
        real(op)

    monkeypatch.setattr(LowRankOperator, "__post_init__", spy)
    inst = build_teleport_instrument(2, MAPS[maps](rng, 4))
    meas = inst.measurement
    *_, groups = meas.rows
    assert checked == [meas.operator]
    derived = [f for _, proj in groups for _, f in proj if isinstance(f, LowRankOperator)]
    derived += [n for _, n in meas.parts or ()]
    assert derived and all(f.u.dtype == f.v.dtype == np.complex128 for f in derived)


def test_low_rank_factors_are_checked():
    u = np.ones((4, 1))
    with pytest.raises(ValidationError):
        LowRankOperator(u, np.full((4, 1), np.nan))
    with pytest.raises(DimensionMismatch):
        LowRankOperator(u, np.ones((4, 2)))
    with pytest.raises(ValidationError):
        MeasurementOperator(LowRankOperator(u, u), "hermitian", ((1.0, np.eye(4)),))


def _traced_peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_mixed_ancilla_sampling_stays_small(rng):
    # one mixed qubit ancilla in front of pure inputs gives two factor
    # columns; a D x D joint density at n = 5 would take 2048^2 x 16 B = 64 MB
    sigma = rand_density(rng, 2)
    m = _complex(rng, 2)
    inputs = [QuantumState.pure(rand_state(rng, 32)) for _ in range(2)]
    obs = rand_hermitian(rng, 32)

    def run():
        inst = build_qsp_instrument(sigma, m, 5)
        return sample_estimate(inst, inputs, obs, shots=1000, seed=5)

    rep, peak = _traced_peak(run)
    assert abs(rep.sample_mean - rep.analytic_mean) < 6 * rep.standard_error
    assert peak < 16 * 2**20


@pytest.mark.parametrize("kind", ["gqt-swap", "qsp-dense"])
def test_weighted_output_allocates_one_bra(rng, kind):
    # full-rank density inputs: the GQT n = 4 ket is 4096 x 256 columns
    # (16.8 MB), its ancilla a pure state that is no basis vector, so that
    # the blocked permutation contraction runs on the whole ket; QSP n = 3
    # has a dense 2 x 2 M and a G register, and its table (whose evolution
    # holds the joint ket, where the controlled SWAP's holds blocks) is
    # checked against the blocks
    if kind == "gqt-swap":
        inst, d = build_gqt_instrument(4), 16
        inst = replace(inst, ancilla=QuantumState(inst.ancilla.layout, vector=rand_state(rng, d)))
        table = inst
    else:
        inst, d = build_qsp_instrument(rand_density(rng, 2), _complex(rng, 2), 3), 8
        table = table_held(inst)
    inputs = [QuantumState.from_density(rand_density(rng, d)) for _ in inst.input_labels]
    ev = evolve(table, inputs)
    assert ev.ket.flags.c_contiguous and ev.bra.flags.c_contiguous
    m = inst.measurement.operator
    tau, peak = _traced_peak(lambda: weighted_output(ev, m))
    assert peak <= 1.25 * ev.ket.nbytes
    want = apply_exact(inst, inputs).matrix
    assert np.abs(tau - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("kind", ["gqt", "teleport"])
def test_n7_exact_path_stays_small(rng, kind):
    # a dense n = 7 measurement would be 16384^2 x 16 B = 4.3 GB
    n, d = 7, 2**7
    a, b = rand_state(rng, d), rand_state(rng, d)
    ra, rb = np.outer(a, a.conj()), np.outer(b, b.conj())
    maps = [(_complex(rng, d), _complex(rng, d))]

    def run():
        if kind == "gqt":
            inst = build_gqt_instrument(n)
        else:
            inst = build_teleport_instrument(n, maps)
        return apply_exact(inst, [QuantumState.pure(a), QuantumState.pure(b)]).matrix

    tau, peak = _traced_peak(run)
    want = gqt(ra, rb) if kind == "gqt" else teleport_map(rb, maps, ra)
    assert np.abs(tau - want).max() <= 1e-10 * max(1.0, np.abs(want).max())
    assert peak < 512 * 2**20


@pytest.mark.parametrize("kind", ["gqt", "teleport"])
def test_n7_sampling_path_stays_small(rng, kind):
    # sampling, variances, bounds and (for the normal SWAP) branches read no
    # dense M: the same 512 MB bound as the exact path
    n, d = 7, 2**7
    a, b = rand_state(rng, d), rand_state(rng, d)
    ra, rb = np.outer(a, a.conj()), np.outer(b, b.conj())
    maps = [(_complex(rng, d), _complex(rng, d))]
    obs = rand_hermitian(rng, d)
    inputs = [QuantumState.pure(a), QuantumState.pure(b)]

    def run():
        if kind == "gqt":
            inst = build_gqt_instrument(n)
        else:
            inst = build_teleport_instrument(n, maps)
        rep = sample_estimate(inst, inputs, obs, shots=20000, seed=11)
        var = variance_exact(inst, inputs, obs)
        bounds = variance_bound(inst, inputs, spectral_norm(obs))
        outs = branches(inst, inputs) if kind == "gqt" else []
        return rep, var, bounds, outs

    (rep, var, bounds, outs), peak = _traced_peak(run)
    assert peak < 512 * 2**20
    tau = gqt(ra, rb) if kind == "gqt" else teleport_map(rb, maps, ra)
    mean = expectation(tau, obs)
    assert abs(rep.analytic_mean - mean) <= 1e-10 * max(1.0, abs(mean))
    assert abs(rep.analytic_variance - var) <= 1e-10 * var
    assert abs(rep.sample_mean - rep.analytic_mean) <= 5 * rep.standard_error
    assert var <= bounds.b1 * (1 + 1e-12) and bounds.b1 <= bounds.b2 * (1 + 1e-12)
    if kind == "gqt":
        assert abs(var - variance_gqt(ra, rb, obs, 1)) <= 1e-10 * var
        assert bounds.b2 == spectral_norm(obs) ** 2
        acc = sum(br.eigenvalue * br.probability * br.conditional_state.matrix for br in outs)
        assert [br.eigenvalue for br in outs] == [1.0, -1.0]
        assert np.abs(acc - tau).max() <= 1e-10 * np.abs(tau).max()


@pytest.mark.parametrize("kind", ["gqt", "teleport"])
def test_n6_exact_path_holds_one_ket(rng, kind):
    # an ancilla that is no basis vector takes the array path: the evolution
    # writes one (S, G r, E) array of d^3 entries and the contraction adds
    # one block of the bra, not a copy of it
    n, d = 6, 2**6
    (j, k), = maps = [(_complex(rng, d), _complex(rng, d))]
    inst = build_gqt_instrument(n) if kind == "gqt" else build_teleport_instrument(n, maps)
    sigma = rand_state(rng, d)
    inst = replace(inst, ancilla=QuantumState(inst.ancilla.layout, vector=sigma))
    a, b = rand_state(rng, d), rand_state(rng, d)
    inputs = [QuantumState.pure(a), QuantumState.pure(b)]
    tau, peak = _traced_peak(lambda: apply_exact(inst, inputs).matrix)
    assert peak <= 1.3 * d**3 * 16
    x = np.arange(d)
    if kind == "gqt":
        # ket[s, e1, e2] = a[s] sigma[e1 ^ s] b[e2], M the SWAP of E1 and E2
        amp = a * (sigma[x[None, :] ^ x[:, None]] @ b.conj())
        want = np.outer(amp, amp.conj())
    else:
        # ket[(a, b), c] = alpha[a] beta[b] sigma[c ^ b], M = u v^dag on (A, B)
        psi = np.einsum("a,bc->abc", a, b[:, None] * sigma[x[None, :] ^ x[:, None]]).reshape(d * d, d)
        u, v = j.ravel(), k.T.ravel().conj() / d
        want = np.outer(psi.T @ v.conj(), (psi.T @ u.conj()).conj())
    assert np.abs(tau - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("kind", ["gqt", "teleport"])
def test_n6_support_path_holds_a_quarter_ket(rng, kind):
    # the |0..0> ancilla: evolve keeps the d^2 input rows and where U sends
    # them, never the d^3-entry ket (4 MiB), and each form contracts them
    n, d = 6, 2**6
    maps = [(_complex(rng, d), _complex(rng, d))]
    inst = build_gqt_instrument(n) if kind == "gqt" else build_teleport_instrument(n, maps)
    a, b = rand_state(rng, d), rand_state(rng, d)
    inputs = [QuantumState.pure(a), QuantumState.pure(b)]
    tau, peak = _traced_peak(lambda: apply_exact(inst, inputs).matrix)
    assert peak <= d**3 * 16 / 4
    ra, rb = np.outer(a, a.conj()), np.outer(b, b.conj())
    want = gqt(ra, rb) if kind == "gqt" else teleport_map(rb, maps, ra)
    assert np.abs(tau - want).max() <= 1e-10 * max(1.0, np.abs(want).max())


def _close(got, want, rtol=1e-12):
    return np.abs(np.asarray(got) - want).max() <= rtol * max(1.0, np.abs(want).max())


class TestRegisterTables:
    """A permutation U held on a subset of the registers against its
    embed_permutation lift and its dense matrix: the same evolved ket and
    bra, weighted output and estimator law, on mixed-radix layouts with G
    registers, with no, a pure or a mixed ancilla and every kind of input."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.lists(st.sampled_from([2, 3]), min_size=2, max_size=4),
        ancilla=st.sampled_from(["none", "pure", "mixed"]),
        kinds=st.lists(st.sampled_from(["pure", "density", "weighted"]), min_size=4, max_size=4),
        data=st.data(),
    )
    @settings(max_examples=60)
    def test_register_table_evolves_as_its_lift(self, seed, dims, ancilla, kinds, data):
        rng = np.random.default_rng(seed)
        k = len(dims)
        # S first, at least one G, the rest E or G; registers in drawn order
        roles = ["S", "G"] + data.draw(st.lists(st.sampled_from("SEG"), min_size=k - 2,
                                                max_size=k - 2))
        order = data.draw(st.permutations(range(k)))
        anc = set() if ancilla == "none" else data.draw(
            st.sets(st.sampled_from(range(k)), min_size=1, max_size=k - 1))
        regs = [Register(f"R{i}", dim, role=roles[order.index(i)],
                         source="ancilla" if i in anc else "input")
                for i, dim in enumerate(dims)]
        layout = RegisterLayout(tuple(regs))
        labels = data.draw(st.lists(st.sampled_from(layout.labels), min_size=1, max_size=k,
                                    unique=True))
        local = PermutationUnitary(rng.permutation(layout.dim_of(labels)), labels, layout)
        lifted = embed_permutation(local, labels, layout)
        d_e = layout.dim_of(layout.with_role("E"))
        m = MeasurementOperator.of(rand_hermitian(rng, d_e) if d_e > 1 else np.eye(1))
        sigma = None
        if ancilla != "none":
            sub = layout.sub([regs[i].label for i in anc])
            sigma = (QuantumState(sub, vector=rand_state(rng, sub.total_dim))
                     if ancilla == "pure"
                     else QuantumState(sub, density=rand_density(rng, sub.total_dim)))
        inst = QuantumInstrument(layout, sigma, local, m)
        inputs = []
        for r, kind in zip((r for r in regs if r.source == "input"), kinds):
            if kind == "pure":
                inputs.append(QuantumState.pure(rand_state(rng, r.dim)))
            elif kind == "density":
                inputs.append(QuantumState.from_density(rand_density(rng, r.dim)))
            else:
                inputs.append(WeightedState(_complex(rng, r.dim), RegisterLayout.of(r)))

        ev = evolve(inst, inputs)
        tau = apply_exact(inst, inputs).matrix
        for other in (replace(inst, unitary=lifted), replace(inst, unitary=local.dense())):
            ev_other = evolve(other, inputs)
            assert (ev.bra is ev.ket) == (ev_other.bra is ev_other.ket)
            assert _close(ev.ket, ev_other.ket) and _close(ev.bra, ev_other.bra)
            assert _close(tau, apply_exact(other, inputs).matrix)
        if "weighted" not in kinds[: len(inputs)]:
            obs = rand_hermitian(rng, layout.dim_of(layout.with_role("S")))
            got = sample_estimate(inst, inputs, obs, shots=100, seed=3)
            want = sample_estimate(replace(inst, unitary=lifted), inputs, obs, shots=100, seed=3)
            for field in ("analytic_mean", "analytic_variance", "variance_bound"):
                assert _close(getattr(got, field), getattr(want, field)), field

    @given(seed=st.integers(0, 2**32 - 1), pure=st.lists(st.booleans(), min_size=3, max_size=3))
    @settings(max_examples=10)
    def test_two_gqt_stages(self, seed, pure):
        # both stages hold their ladder on two of three registers; the
        # flattened pipeline holds one full-layout table
        rng = np.random.default_rng(seed)
        chained = concatenate(build_gqt_instrument(2), build_gqt_instrument(2))
        assert chained.flattened.unitary.labels is None
        states = [QuantumState.pure(rand_state(rng, 4)) if p
                  else QuantumState.from_density(rand_density(rng, 4)) for p in pure]
        staged = chained.apply_staged(states[:2], states[2:])
        flat = chained.apply_flattened(states[:2], states[2:])
        assert _close(staged.matrix, flat.matrix)
        want = gqt(gqt(states[0].matrix, states[1].matrix), states[2].matrix)
        assert _close(flat.matrix, want, 1e-10)
