"""Structured measurement forms against their dense matrices.

GQT holds its SWAP as a PermutationUnitary and teleport its Bell-type map as
a LowRankOperator; every result must match the dense d_E x d_E path.
"""

import tracemalloc

import numpy as np
import pytest

from wstate.errors import DimensionMismatch, ValidationError
from wstate.instrument import (
    MeasurementOperator,
    QuantumState,
    apply_exact,
    evolve,
    weighted_output,
)
from wstate.subroutines import (
    build_gqt_instrument,
    build_teleport_instrument,
    gqt,
    teleport_map,
)
from wstate.tensor import LowRankOperator, PermutationUnitary

from conftest import rand_density, rand_state


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


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("pure", [True, False], ids=["pure", "density"])
def test_structured_matches_dense(rng, n, pure):
    d = 2**n
    for name, inst in _instruments(rng, n):
        assert not isinstance(inst.measurement.operator, np.ndarray), name
        if pure:
            inputs = [QuantumState.pure(rand_state(rng, d)) for _ in range(2)]
        else:
            inputs = [QuantumState.from_density(rand_density(rng, d)) for _ in range(2)]
        got = apply_exact(inst, inputs).matrix
        want = weighted_output(evolve(inst, inputs), inst.measurement.matrix)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name
        dense_kind = MeasurementOperator.of(inst.measurement.matrix).kind
        assert inst.measurement.kind == dense_kind, name


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
        assert c == c0 and np.array_equal(n, n0)


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
