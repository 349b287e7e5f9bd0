"""Every public entry point that takes a matrix or vector rejects one of the
wrong size with a DimensionMismatch that names the operand."""

import re

import numpy as np
import pytest

from wstate.errors import DimensionMismatch
from wstate.instrument import (
    MeasurementOperator,
    QuantumInstrument,
    QuantumState,
    WeightedState,
    apply_exact,
    expectation,
)
from wstate.lcs import LcsProblem, all_at_once_M
from wstate.sampling import (
    compare_concat_vs_direct,
    compare_power_methods,
    sample_estimate,
    variance_exact,
    variance_gqt,
    variance_lincombo,
    variance_qhp,
    variance_qsp,
)
from wstate.subroutines import (
    PolySpec,
    alpha_of,
    build_gqt_instrument,
    build_lincombo_instrument,
    build_qhp_instrument,
    build_qsp_instrument,
    build_teleport_instrument,
    gqt,
    lincombo_pair_M,
    polynomial_pipeline,
    power_state,
    qhp,
    qsp_oracle,
    solve_qsp_realizable,
    teleport_map,
)
from wstate.tensor import Register, RegisterLayout

I2, I3, I4 = np.eye(2) / 2, np.eye(3) / 3, np.eye(4) / 4  # unit-trace densities
Z2 = np.diag([1.0, -1.0])
PSI2, PSI4 = np.array([0.6, 0.8]), np.full(4, 0.5)
ALPHA = np.array([[0.5, 0.2], [0.2, 0.5]])
PAIR = RegisterLayout.of(Register("S", 2, role="S"), Register("E", 2, role="E"))


def _qhp_task():
    return build_qhp_instrument(1), [QuantumState.pure(PSI2), QuantumState.pure(PSI2)]


# (operand the message must name, call)
PROBES = {
    # oracles: the second operand is checked against the first
    "qhp": ("b", lambda: qhp(I2, I4)),
    "gqt": ("rho", lambda: gqt(I2, I4)),
    "gqt-state": ("rho", lambda: gqt(QuantumState.pure(PSI2), QuantumState.pure(PSI4))),
    "qsp_oracle-rho1": ("rho1", lambda: qsp_oracle(I2, I4, ALPHA)),
    "qsp_oracle-alpha": ("alpha", lambda: qsp_oracle(I2, I2, I3)),
    "teleport_map-rho": ("rho", lambda: teleport_map(I2, [(np.eye(2), np.eye(2))], I4)),
    "teleport_map-map": ("map K", lambda: teleport_map(I2, [(np.eye(2), np.eye(4))], I2)),
    "alpha_of-M": ("M", lambda: alpha_of(I2, I3)),
    "alpha_of-gamma": ("gamma", lambda: alpha_of(I2, Z2, I3)),
    "power_state": ("psi", lambda: power_state(I2, 2)),
    "polynomial_pipeline": ("psi", lambda: polynomial_pipeline(I2, PolySpec({(1, 0): 1.0}))),
    "expectation": ("observable", lambda: expectation(I2, I4)),
    # builders
    "teleport-builder": ("map J", lambda: build_teleport_instrument(1, [(np.eye(4), np.eye(2))])),
    "qsp-builder-M": ("measurement", lambda: build_qsp_instrument(I2, I3, 1)),
    "qsp-builder-sigma": ("density", lambda: build_qsp_instrument(I3, Z2, 1)),
    "lincombo-builder": ("psi1", lambda: build_lincombo_instrument(0.6, 0.8, PSI2, PSI2, PSI4)),
    "lincombo_pair_M-beta": ("beta", lambda: lincombo_pair_M(0.6, 0.8, np.full(3, 0.5), ALPHA)),
    "lincombo_pair_M-gram": ("gram", lambda: lincombo_pair_M(0.6, 0.8, PSI2, I3)),
    "solver-alpha": ("alpha", lambda: solve_qsp_realizable(I3)),
    "solver-gamma": ("gamma", lambda: solve_qsp_realizable(ALPHA, np.ones((3, 3)))),
    # closed-form variances and comparisons
    "variance_qhp": ("observable", lambda: variance_qhp(I2, np.eye(4), 10)),
    "variance_gqt-rho": ("rho", lambda: variance_gqt(I2, I4, Z2, 10)),
    "variance_gqt-obs": ("observable", lambda: variance_gqt(I2, I2, np.eye(4), 10)),
    "variance_qsp-M": ("M", lambda: variance_qsp(I2, I3, I2, I2, Z2, 10)),
    "variance_qsp-sigma": ("sigma", lambda: variance_qsp(I3, Z2, I2, I2, Z2, 10)),
    "variance_qsp-rho1": ("rho1", lambda: variance_qsp(I2, Z2, I2, I4, Z2, 10)),
    "variance_lincombo-states": ("psi1",
                                 lambda: variance_lincombo(0.6, 0.8, 0.6, (PSI2, PSI4), Z2, 10)),
    "variance_lincombo-obs": ("observable",
                              lambda: variance_lincombo(0.6, 0.8, 0.6, (PSI2, PSI2), I4, 10)),
    "compare_concat_vs_direct": ("rho1", lambda: compare_concat_vs_direct(I2, I4, Z2)),
    "compare_power_methods": ("observable", lambda: compare_power_methods(PSI2, 2, np.eye(4))),
    # combinations of many states
    "LcsProblem-states": ("state 1", lambda: LcsProblem.from_states([PSI2, PSI4], [0.5, 0.5])),
    "LcsProblem-unitary": ("preparation unitary",
                           lambda: LcsProblem((PSI2, PSI2), (0.5, 0.5), (np.eye(4), np.eye(4)))),
    "LcsProblem-unitary-count": ("preparation unitary",
                                 lambda: LcsProblem((PSI2, PSI2), (0.5, 0.5), (np.eye(2),))),
    "all_at_once_M": ("beta", lambda: all_at_once_M(
        LcsProblem.from_states([PSI2, PSI2], [0.5, 0.5]), np.full(3, 0.5))),
    # states, outputs, estimators and a dense U
    "QuantumState.pure": ("state vector", lambda: QuantumState.pure(I2)),
    "QuantumState-vector": ("state vector", lambda: QuantumState(PAIR, vector=PSI2)),
    "QuantumState-density": ("density", lambda: QuantumState(PAIR, density=I2)),
    "QuantumState.from_density": ("density", lambda: QuantumState.from_density(np.ones((2, 3)))),
    "WeightedState": ("weighted state", lambda: WeightedState(np.eye(3), PAIR)),
    "sample_estimate": ("observable", lambda: sample_estimate(*_qhp_task(), np.eye(4), 10, 1)),
    "variance_exact": ("observable", lambda: variance_exact(*_qhp_task(), np.eye(4))),
    # one piece per input register: the copy of a CNOT ladder checks each
    "gqt-copy-piece": ("input", lambda: apply_exact(
        build_gqt_instrument(1), [QuantumState.pure(PSI2), QuantumState.pure(PSI4)])),
    "teleport-copy-piece": ("input", lambda: apply_exact(
        build_teleport_instrument(1, [(np.eye(2), np.eye(2))]),
        [QuantumState.pure(PSI4), QuantumState.pure(PSI2)])),
    "dense-unitary": ("unitary", lambda: QuantumInstrument(
        PAIR, None, np.eye(2), MeasurementOperator.of(np.diag([1.0, 0.0])))),
}


@pytest.mark.parametrize("case", sorted(PROBES))
def test_mis_sized_operand_named(case):
    name, call = PROBES[case]
    with pytest.raises(DimensionMismatch, match=rf"(^|\W){re.escape(name)}\W"):
        call()
