import contextlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from wstate.errors import (
    DimensionMismatch,
    FullyDestructive,
    InvalidState,
    ValidationError,
    VanishingOverlapProduct,
)
from wstate.instrument import QuantumState, apply_exact, expectation
from wstate.lcs import (
    LcsProblem,
    PauliDecomposition,
    _incoherent_circuits,
    _pauli_coefficients,
    all_at_once_M,
    all_at_once_apply,
    build_all_at_once_instrument,
    default_permutations,
    incoherent_estimate,
    incoherent_exact,
    lcu_prepare,
    pauli_decompose,
    variance_postprocessing,
)
from wstate.subroutines import lincombo_pair_M
from wstate.tensor import _pauli_string

from conftest import no_gather, preparation_unitary, rand_hermitian, rand_state, rand_unitary


class TestLcsProblem:
    def test_states_must_be_normalized(self, rng):
        with pytest.raises(InvalidState):
            LcsProblem.from_states([np.array([1.0, 1.0])], [1.0])

    def test_coefficient_count_must_match(self, rng):
        with pytest.raises(DimensionMismatch):
            LcsProblem.from_states([rand_state(rng, 2)], [1.0, 2.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1, math.nan)])
    def test_coefficients_must_be_finite(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            LcsProblem.from_states([[0.6, 0.8], [1, 0]], [bad, 1])

    def test_unitaries_must_prepare_states(self, rng):
        u = rand_unitary(rng, 2)
        with pytest.raises(ValidationError):
            LcsProblem(
                (rand_state(rng, 2),), (1.0,), unitaries=(u,)
            )

    def test_from_unitaries_extracts_first_columns(self, rng):
        us = [rand_unitary(rng, 4) for _ in range(2)]
        prob = LcsProblem.from_unitaries(us, [0.5, 0.5])
        for u, s in zip(us, prob.states):
            assert np.abs(u[:, 0] - s).max() < 1e-12

    def test_gram_is_positive_semidefinite(self, rng):
        prob = LcsProblem.from_states([rand_state(rng, 3) for _ in range(3)], [1, 1, 1])
        assert np.linalg.eigvalsh((prob.gram + prob.gram.conj().T) / 2).min() > -1e-9

    def test_target_is_weighted_sum(self, rng):
        s0, s1 = rand_state(rng, 3), rand_state(rng, 3)
        prob = LcsProblem.from_states([s0, s1], [2.0, -1.0j])
        assert np.abs(prob.target - (2.0 * s0 - 1.0j * s1)).max() < 1e-12


class TestPreparationUnitary:
    def test_prepares_and_is_unitary(self, rng):
        for d in (2, 3, 8):
            phi = rand_state(rng, d)
            u = preparation_unitary(phi)
            assert np.abs(u @ u.conj().T - np.eye(d)).max() < 1e-12
            assert np.abs(u[:, 0] - phi).max() < 1e-12

    def test_basis_state_gives_identity(self):
        e0 = np.zeros(4, dtype=complex)
        e0[0] = 1.0
        assert np.abs(preparation_unitary(e0) - np.eye(4)).max() < 1e-13

    def test_unnormalized_rejected(self):
        with pytest.raises(InvalidState):
            preparation_unitary(np.array([1.0, 1.0]))


class TestAllAtOnce:
    def test_exact_for_several_sizes(self, rng):
        # two states: the table is a controlled SWAP, evaluated from its blocks
        for count, d in [(2, 2), (3, 4), (4, 2)]:
            states = [rand_state(rng, d) for _ in range(count)]
            alphas = rng.normal(size=count) + 1j * rng.normal(size=count)
            prob = LcsProblem.from_states(states, alphas)
            with no_gather() if count == 2 else contextlib.nullcontext():
                tau = all_at_once_apply(prob)
            target = prob.target
            assert np.abs(tau.matrix - np.outer(target, target.conj())).max() < 1e-10

    def test_reduces_to_pair_measurement_at_two_states(self, rng):
        s0, s1 = rand_state(rng, 4), rand_state(rng, 4)
        a0, a1 = 0.7 + 0.2j, -0.4 + 0.5j
        beta = np.array([0.6, 0.8])
        prob = LcsProblem.from_states([s0, s1], [a0, a1])
        m_many = all_at_once_M(prob, beta).matrix
        m_pair = lincombo_pair_M(a0, a1, beta, prob.gram).matrix
        assert np.abs(m_many - m_pair).max() < 1e-12

    def test_custom_beta(self, rng):
        states = [rand_state(rng, 2) for _ in range(3)]
        prob = LcsProblem.from_states(states, [0.5, 0.3, 0.2])
        beta = np.array([0.8, 0.36, 0.48])
        tau = all_at_once_apply(prob, beta)
        target = prob.target
        assert np.abs(tau.matrix - np.outer(target, target.conj())).max() < 1e-10

    def test_vanishing_overlap_product_names_indices(self):
        e = np.eye(4, dtype=complex)
        prob = LcsProblem.from_states([e[0], e[1], (e[0] + e[1]) / math.sqrt(2)], [1, 1, 1])
        with pytest.raises(VanishingOverlapProduct):
            all_at_once_apply(prob)

    def test_default_permutations_are_cyclic(self):
        perms = default_permutations(3)
        assert perms == ((0, 1, 2), (1, 2, 0), (2, 0, 1))
        for l, p in enumerate(perms):
            assert p[0] == l

    def test_instrument_roles(self, rng):
        states = [rand_state(rng, 2) for _ in range(3)]
        prob = LcsProblem.from_states(states, [1.0, 1.0, 1.0])
        beta = np.full(3, 1.0 / math.sqrt(3))
        inst = build_all_at_once_instrument(prob, beta)
        assert inst.layout.with_role("E") == ("A",)
        assert inst.layout.with_role("S") == ("R0",)
        assert inst.layout.with_role("G") == ("R1", "R2")


class TestPauliDecomposition:
    def test_reconstructs_observable(self, rng):
        obs = rand_hermitian(rng, 4)
        dec = pauli_decompose(obs)
        acc = sum(c * _pauli_string(word) for c, word in dec.terms)
        assert np.abs(acc - obs).max() < 1e-10
        # tolerances follow the scale of O: 2^k O keeps every word and
        # scales every coefficient by 2^k
        words = [word for _, word in dec.terms]
        for k in range(-40, 41):
            scaled = pauli_decompose(2.0**k * obs)
            assert [word for _, word in scaled.terms] == words
            for (c, _), (c0, _) in zip(scaled.terms, dec.terms):
                assert abs(c - 2.0**k * c0) <= 1e-15 * abs(2.0**k * c0)

    def test_sparse_observable_has_few_terms(self):
        z = np.diag([1.0, -1.0]).astype(complex)
        dec = pauli_decompose(np.kron(z, z))
        assert [word for _, word in dec.terms] == ["ZZ"]

    def test_one_dimensional_observable_has_the_empty_word(self):
        dec = PauliDecomposition(np.array([[2.0]]))
        assert dec.terms == ((2.0, ""),)
        prob = LcsProblem.from_states([np.array([1.0]), np.array([1j])], [0.6, 0.8])
        rep = incoherent_estimate(prob, None, dec, shots=1000, seed=1)
        assert abs(rep.analytic_mean - 2.0) < 1e-12
        assert abs(rep.sample_mean - rep.analytic_mean) < 6 * rep.standard_error

    def test_non_power_of_two_rejected(self):
        with pytest.raises(DimensionMismatch):
            pauli_decompose(np.eye(3))

    @pytest.mark.parametrize("n", range(4))
    def test_coefficients_are_dense_traces(self, rng, n):
        # non-Hermitian a, as the incoherent route transforms |psi_l><psi_l'|
        d = 2**n
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        eta = _pauli_coefficients(a)
        words = list(itertools.product("IXYZ", repeat=n))
        assert eta.shape == (len(words),)
        for i, word in enumerate(words):
            want = np.trace(_pauli_string(word) @ a) / d
            assert abs(eta[i] - want) < 1e-12 * np.abs(a).max()

    def test_decomposition_holds_no_dense_strings(self, rng):
        # n = 6: 4,096 dense 64 x 64 strings would take 256 MiB
        obs = rand_hermitian(rng, 64)
        tracemalloc.start()
        try:
            dec = pauli_decompose(obs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20
        assert len(dec.terms) == 4**6

    def test_circuit_means_sum_to_exact_value(self, rng):
        # every cross term's word is read at its own index of the transform
        prob = LcsProblem.from_states(
            [rand_state(rng, 8) for _ in range(3)], [0.5, -0.3 + 0.2j, 0.4j]
        )
        z = np.diag([1.0, -1.0])
        obs = np.kron(np.kron(z, np.eye(2)), z) + 0.3 * rand_hermitian(rng, 8)
        v = rand_unitary(rng, 8)
        circuits = _incoherent_circuits(prob, v, pauli_decompose(obs))
        total = sum(pref * float(np.dot(values, probs)) for pref, _, values, probs in circuits)
        assert abs(total - incoherent_exact(prob, v, obs)) < 1e-10


class TestIncoherent:
    def test_exact_is_quadratic_form(self, rng):
        prob = LcsProblem.from_states(
            [rand_state(rng, 4) for _ in range(3)], [0.5, 0.2j, -0.3]
        )
        obs = rand_hermitian(rng, 4)
        target = prob.target
        want = float(np.vdot(target, obs @ target).real)
        assert abs(incoherent_exact(prob, None, obs) - want) < 1e-10

    def test_estimate_within_errors(self, rng):
        prob = LcsProblem.from_states(
            [rand_state(rng, 4) for _ in range(2)], [0.7, -0.5]
        )
        obs = rand_hermitian(rng, 4)
        dec = pauli_decompose(obs)
        rep = incoherent_estimate(prob, None, dec, shots=200000, seed=3)
        assert abs(rep.sample_mean.real - rep.analytic_mean.real) < 6 * rep.standard_error
        assert rep.analytic_variance <= rep.variance_bound + 1e-12

    def test_processing_circuit_applied(self, rng):
        prob = LcsProblem.from_states([rand_state(rng, 2) for _ in range(2)], [0.6, 0.8])
        v = rand_unitary(rng, 2)
        obs = rand_hermitian(rng, 2)
        got = incoherent_exact(prob, v, obs)
        target = prob.target
        want = float(np.vdot(v @ target, obs @ v @ target).real)
        assert abs(got - want) < 1e-10

    @pytest.mark.parametrize("operand", ["processing circuit", "observable"])
    def test_mis_sized_operand_rejected(self, operand):
        # states of dimension 2 with a 1 x 1 V, or a 4 x 4 O
        prob = LcsProblem.from_states([np.array([1.0, 0.0]), np.array([0.6, 0.8])], [0.5, 0.5])
        v, obs = ((np.eye(1), np.diag([1.0, -1.0])) if operand == "processing circuit"
                  else (None, np.eye(4)))
        calls = (lambda: incoherent_estimate(prob, v, pauli_decompose(obs), 100, 1),
                 lambda: variance_postprocessing(prob, pauli_decompose(obs), 100, v),
                 lambda: incoherent_exact(prob, v, obs))
        for call in calls:
            with pytest.raises(DimensionMismatch, match=operand):
                call()

    @pytest.mark.parametrize("shots", [0, -5, 10**30, 10**400],
                             ids=["0", "-5", "10**30", "10**400"])
    def test_shot_count_checked_as_sample_estimate_checks_it(self, rng, shots):
        # one check (sampling._check_shots) on every route: no inf or
        # negative variance at 0 or -5, no overflow or garbage allocation
        # beyond 2**63 - 1
        prob = LcsProblem.from_states([rand_state(rng, 4) for _ in range(2)], [0.7, -0.5])
        dec = pauli_decompose(rand_hermitian(rng, 4))
        for call in (lambda: incoherent_estimate(prob, None, dec, shots, 1),
                     lambda: variance_postprocessing(prob, dec, shots)):
            with pytest.raises(ValidationError, match="shot count"):
                call()

    def test_postprocessing_variance_matches_report_scale(self, rng):
        prob = LcsProblem.from_states([rand_state(rng, 4) for _ in range(2)], [0.7, -0.5])
        dec = pauli_decompose(rand_hermitian(rng, 4))
        shots = 100000
        rep = incoherent_estimate(prob, None, dec, shots=shots, seed=5)
        idealized = variance_postprocessing(prob, dec, shots)
        # integer allocation vs continuous allocation: close at large budgets
        assert abs(rep.analytic_variance / shots - idealized) < 0.02 * idealized + 1e-12


class TestLcu:
    def test_success_probability_closed_form(self, rng):
        states = [rand_state(rng, 4) for _ in range(3)]
        alphas = np.array([0.5, -0.3 + 0.2j, 0.4j])
        prob = LcsProblem.from_states(states, alphas)
        res = lcu_prepare(prob)
        phi = prob.target
        one_norm = float(np.abs(alphas).sum())
        want = float(np.vdot(phi, phi).real) / one_norm**2
        assert abs(res.success_probability - want) < 1e-12

    def test_prepared_state_matches_normalized_target(self, rng):
        prob = LcsProblem.from_states([rand_state(rng, 4) for _ in range(2)], [0.6, 0.8])
        res = lcu_prepare(prob)
        target = prob.target
        target = target / np.linalg.norm(target)
        overlap = abs(np.vdot(res.state, target))
        assert abs(overlap - 1.0) < 1e-10

    def test_orthogonal_pair_succeeds(self):
        e0 = np.zeros(4, dtype=complex)
        e1 = np.zeros(4, dtype=complex)
        e0[0] = e1[1] = 1.0
        prob = LcsProblem.from_states([e0, e1], [0.6, 0.8])
        res = lcu_prepare(prob)
        assert np.abs(res.state - (0.6 * e0 + 0.8 * e1)).max() < 1e-12
        assert abs(res.success_probability - 1.0 / 1.96) < 1e-12

    def test_branches_applied_without_dense_circuit_matrices(self, rng):
        # L = 3, n = 9: dense PREP (x) I and SELECT of (4 * 512)^2 entries
        # each would put the traced peak above 100 MiB
        prob = LcsProblem.from_states(
            [rand_state(rng, 512) for _ in range(4)], [0.5, -0.3 + 0.2j, 0.4j, 0.1]
        )
        tracemalloc.start()
        try:
            res = lcu_prepare(prob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        target = prob.target
        assert abs(abs(np.vdot(res.state, target / np.linalg.norm(target))) - 1.0) < 1e-10

    def test_destructive_combination_raises(self):
        e0 = np.zeros(2, dtype=complex)
        e0[0] = 1.0
        prob = LcsProblem.from_states([e0, e0], [1.0, -1.0])
        with pytest.raises(FullyDestructive):
            lcu_prepare(prob)


class TestThreeMethodAgreement:
    def test_pairwise_agreement(self, rng):
        for _ in range(5):
            states = [rand_state(rng, 4) for _ in range(2)]
            alphas = rng.normal(size=2) + 1j * rng.normal(size=2)
            prob = LcsProblem.from_states(states, alphas)
            obs = rand_hermitian(rng, 4)
            e_aao = expectation(all_at_once_apply(prob), obs).real
            e_inc = incoherent_exact(prob, None, obs)
            res = lcu_prepare(prob)
            e_lcu = res.norm**2 * float(np.vdot(res.state, obs @ res.state).real)
            assert abs(e_aao - e_inc) < 1e-9
            assert abs(e_aao - e_lcu) < 1e-9
