"""Structured measurement forms against their dense matrices.

GQT holds its SWAP as a PermutationUnitary and teleport its Bell-type map as
a LowRankOperator; every result must match the dense d_E x d_E path, and at
n = 7, where a dense M would take 4.3 GB, the structured path must stay small.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from wstate.errors import DimensionMismatch, ValidationError
from wstate.instrument import (
    MeasurementOperator,
    QuantumState,
    apply_exact,
    branches,
    emulate_nonnormal,
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
    build_qsp_instrument,
    build_teleport_instrument,
    gqt,
    teleport_map,
)
from wstate.tensor import LowRankOperator, PermutationUnitary, merge_values, spectral_norm

from conftest import rand_density, rand_hermitian, rand_state


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
        got = _law(*_joint_cells(ev, inst.measurement, obs))
        want = _law(*_joint_cells(ev, dense.measurement, obs))
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
    got = _law(*_joint_cells(evolve(inst, inputs), inst.measurement, obs))
    want = _law(*_joint_cells(evolve(emulated, inputs), emulated.measurement, obs))
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
    # M is held in one form: reading its matrix or its parts writes nothing
    ops = [
        np.array([[1.0, 1.0], [0.0, 1.0]]),
        PermutationUnitary(np.array([0, 2, 1, 3])),
        build_teleport_instrument(1, MAPS["one-random"](rng, 2)).measurement.operator,
    ]
    assert MeasurementOperator.of(ops[2]).kind == "nonnormal"
    for form in ops:
        meas = MeasurementOperator.of(form)
        before = dict(vars(meas))
        meas.matrix, meas.normal_parts()
        assert vars(meas).keys() == before.keys()
        assert all(vars(meas)[k] is v for k, v in before.items())


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
