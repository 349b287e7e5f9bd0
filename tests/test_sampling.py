import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from wstate.errors import (
    AllocationError,
    InvalidDistribution,
    OrthogonalInputs,
    ValidationError,
)
from wstate.instrument import QuantumState, apply_exact, evolve, expectation
from wstate.sampling import (
    BLOCK_SHOTS,
    _joint_cells,
    EstimatorReport,
    allocate_shots,
    beta_variance_bound,
    compare_concat_vs_direct,
    compare_power_methods,
    hoeffding_shots,
    optimal_beta,
    sample_counts,
    sample_estimate,
    variance_bound,
    variance_exact,
    variance_gqt,
    variance_lincombo,
    variance_qhp,
    variance_qsp,
)
from wstate.subroutines import (
    SPECIAL_CASES,
    build_gqt_instrument,
    build_lincombo_instrument,
    build_qhp_instrument,
    build_qsp_instrument,
    gqt,
    power_state,
    qhp,
)
from wstate.tensor import dephase, hermiticity_residual, spectral_norm

from conftest import rand_density, rand_hermitian, rand_state, rand_unitary


class TestSampleCounts:
    def test_deterministic_given_seed(self):
        p = np.array([0.2, 0.3, 0.5])
        a = sample_counts(p, 99991, seed=7)
        b = sample_counts(p, 99991, seed=7)
        assert np.array_equal(a, b)

    def test_worker_count_does_not_change_counts(self):
        p = np.array([0.4, 0.6])
        shots = 3 * BLOCK_SHOTS + 17
        ref = sample_counts(p, shots, seed=5)
        for workers in (2, 4):
            assert np.array_equal(ref, sample_counts(p, shots, seed=5, workers=workers))

    def test_stream_key_changes_draws(self):
        p = np.array([0.5, 0.5])
        a = sample_counts(p, 10000, seed=1, stream_key=(0,))
        b = sample_counts(p, 10000, seed=1, stream_key=(1,))
        assert not np.array_equal(a, b)

    def test_counts_sum_to_shots(self):
        p = np.array([0.1, 0.2, 0.7])
        for shots in (1, BLOCK_SHOTS, BLOCK_SHOTS + 1, 2 * BLOCK_SHOTS - 1):
            assert sample_counts(p, shots, seed=3).sum() == shots

    def test_invalid_distribution_rejected(self):
        with pytest.raises(InvalidDistribution):
            sample_counts(np.array([0.5, 0.6]), 10, seed=0)
        with pytest.raises(InvalidDistribution):
            sample_counts(np.array([1.5, -0.5]), 10, seed=0)

    @given(st.integers(min_value=1, max_value=3 * BLOCK_SHOTS))
    @settings(max_examples=15)
    def test_total_preserved_any_shots(self, shots):
        p = np.array([0.25, 0.25, 0.5])
        assert sample_counts(p, shots, seed=11).sum() == shots


class TestEstimatorReport:
    def test_variance_cannot_exceed_bound(self):
        with pytest.raises(ValidationError):
            EstimatorReport(
                shots=10,
                seed=0,
                sample_mean=0.0,
                sample_variance=1.0,
                analytic_mean=0.0,
                analytic_variance=2.0,
                variance_bound=1.0,
            )

    def test_standard_error(self):
        rep = EstimatorReport(
            shots=400,
            seed=0,
            sample_mean=0.0,
            sample_variance=1.0,
            analytic_mean=0.0,
            analytic_variance=4.0,
            variance_bound=4.0,
        )
        assert abs(rep.standard_error - 0.1) < 1e-15


class TestSampleEstimate:
    def test_mean_and_variance_against_analytic(self, rng):
        inst = build_qhp_instrument(1)
        inputs = [
            QuantumState.from_density(rand_density(rng, 2)),
            QuantumState.from_density(rand_density(rng, 2)),
        ]
        obs = rand_hermitian(rng, 2)
        rep = sample_estimate(inst, inputs, obs, shots=200000, seed=9)
        assert abs(rep.sample_mean - rep.analytic_mean) < 5 * rep.standard_error
        assert rep.analytic_variance <= rep.variance_bound + 1e-12
        assert abs(rep.sample_variance / rep.analytic_variance - 1.0) < 0.05

    def test_emulate_and_randomized_agree_in_law(self, rng):
        # one cell table serves both methods, normal and non-normal M alike
        case = SPECIAL_CASES["commutator"]()
        nonnormal = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        for sigma, m in ((case.sigma, case.m), (rand_density(rng, 2), nonnormal)):
            inst = build_qsp_instrument(sigma, m, 1)
            inputs = [
                QuantumState.from_density(rand_density(rng, 2)),
                QuantumState.from_density(rand_density(rng, 2)),
            ]
            obs = rand_hermitian(rng, 2)
            a = sample_estimate(inst, inputs, obs, shots=50000, seed=2, method="emulate")
            b = sample_estimate(inst, inputs, obs, shots=50000, seed=2, method="randomized")
            assert a == b

    @given(m_name=st.sampled_from(["diagonal", "commutator", "nonnormal"]), k=st.integers(-40, 40))
    @settings(max_examples=40)
    def test_scaling_m_by_a_power_of_two_scales_the_estimate(self, m_name, k):
        # scaling by 2^k is exact in floating point, so kinds, counts and
        # means must follow it exactly
        rng = np.random.default_rng(41)
        m = {
            "diagonal": np.diag([1.0, -0.5]).astype(complex),
            "commutator": SPECIAL_CASES["commutator"]().m,
            "nonnormal": rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)),
        }[m_name]
        sigma = rand_density(rng, 2)
        inputs = [QuantumState.pure(rand_state(rng, 4)) for _ in range(2)]
        obs = rand_hermitian(rng, 4)
        c = 2.0**k
        base, scaled = (build_qsp_instrument(sigma, x, 2) for x in (m, c * m))
        assert scaled.measurement.kind == base.measurement.kind
        counts = []
        for inst in (base, scaled):
            probs, _ = _joint_cells(evolve(inst, inputs), inst.measurement, obs)
            counts.append(sample_counts(probs, 20000, seed=3))
        assert np.array_equal(counts[0], counts[1])
        a, b = (sample_estimate(inst, inputs, obs, 20000, seed=3) for inst in (base, scaled))
        assert b.sample_mean / c == a.sample_mean

    def test_observable_check_is_relative_to_scale(self, rng):
        # a Hermitian O of scale 1e6 carries a rounding residual above an
        # absolute 1e-10, and a non-Hermitian O of scale 1e-12 one below it
        u = rand_unitary(np.random.default_rng(0), 4)
        big = 1e6 * u @ np.diag([1.0, 2.0, 3.0, 4.0]) @ u.conj().T
        tiny = 1e-12 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        assert hermiticity_residual(big) > 1e-10 > hermiticity_residual(tiny)
        inst = build_qhp_instrument(2)
        inputs = [QuantumState.pure(rand_state(rng, 4)) for _ in range(2)]
        rep = sample_estimate(inst, inputs, big, shots=1000, seed=4)
        want = expectation(apply_exact(inst, inputs), big)
        assert abs(rep.analytic_mean - want) <= 1e-12 * abs(want)
        with pytest.raises(ValidationError, match="observable must be Hermitian"):
            sample_estimate(inst, inputs, tiny, shots=1000, seed=4)

    def test_unknown_method_rejected(self, rng):
        inst = build_qhp_instrument(1)
        inputs = [
            QuantumState.from_density(rand_density(rng, 2)),
            QuantumState.from_density(rand_density(rng, 2)),
        ]
        with pytest.raises(ValidationError):
            sample_estimate(inst, inputs, np.eye(2), shots=10, seed=0, method="other")


def _single_pass_case(rng, name):
    """(instrument, inputs); the QSP cases measure a non-normal M."""
    if name == "qhp-density":
        inputs = [QuantumState.from_density(rand_density(rng, 2)) for _ in range(2)]
        return build_qhp_instrument(1), inputs
    if name == "gqt-pure":
        return build_gqt_instrument(2), [QuantumState.pure(rand_state(rng, 4)) for _ in range(2)]
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    if name == "qsp-density":
        inputs = [QuantumState.from_density(rand_density(rng, 2)) for _ in range(2)]
        return build_qsp_instrument(rand_density(rng, 2), m, 1), inputs
    # a mixed ancilla in front of pure inputs gives two factor columns
    sigma = rand_density(rng, 2) if name == "qsp-mixed-ancilla" else rand_state(rng, 2)
    inputs = [QuantumState.pure(rand_state(rng, 4)) for _ in range(2)]
    return build_qsp_instrument(sigma, m, 2), inputs


class TestSinglePass:
    """sample_estimate evolves once for every method: an emulated non-normal
    M takes its cells from the same evolution, not from a second one through
    the extended instrument."""

    @pytest.mark.parametrize(
        "name, method, evolutions",
        [("qhp-density", "emulate", 1), ("gqt-pure", "emulate", 1)]
        + [
            (name, method, 1)
            for name in ("qsp-density", "qsp-pure-ancilla", "qsp-mixed-ancilla")
            for method in ("emulate", "randomized")
        ],
    )
    def test_evolves_once_and_matches_separate_calls(
        self, rng, monkeypatch, name, method, evolutions
    ):
        inst, inputs = _single_pass_case(rng, name)
        obs = rand_hermitian(rng, inst.output_layout.total_dim)
        calls = []

        def counting_evolve(*args):
            calls.append(args[0])
            return evolve(*args)

        monkeypatch.setattr("wstate.sampling.evolve", counting_evolve)
        rep = sample_estimate(inst, inputs, obs, shots=1000, seed=3, method=method)
        monkeypatch.undo()
        assert len(calls) == evolutions
        assert calls[0] is inst

        def close(got, want):
            return abs(got - want) <= 1e-12 * abs(want)

        assert close(rep.analytic_mean, expectation(apply_exact(inst, inputs), obs))
        assert close(rep.analytic_variance, variance_exact(inst, inputs, obs))
        bound = variance_bound(inst, inputs, spectral_norm(obs)).b1
        assert close(rep.variance_bound, bound)


class TestVarianceClosures:
    def test_qhp_closure(self, rng):
        inst = build_qhp_instrument(1)
        a, b = rand_density(rng, 2), rand_density(rng, 2)
        inputs = [QuantumState.from_density(a), QuantumState.from_density(b)]
        obs = rand_hermitian(rng, 2)
        lhs = variance_qhp(qhp(a, b), obs, 1)
        rhs = variance_exact(inst, inputs, obs)
        assert abs(lhs - rhs) < 1e-10

    def test_gqt_closure(self, rng):
        inst = build_gqt_instrument(1)
        s, r = rand_density(rng, 2), rand_density(rng, 2)
        inputs = [QuantumState.from_density(s), QuantumState.from_density(r)]
        obs = rand_hermitian(rng, 2)
        lhs = variance_gqt(s, r, obs, 1)
        rhs = variance_exact(inst, inputs, obs)
        assert abs(lhs - rhs) < 1e-10

    def test_qsp_closure(self, rng):
        sigma = rand_density(rng, 2)
        # conjugated complex diagonal: normal but generically non-hermitian
        q = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        m = q @ np.diag(rng.normal(size=2) + 1j * rng.normal(size=2)) @ q.conj().T
        inst = build_qsp_instrument(sigma, m, 1)
        r0, r1 = rand_density(rng, 2), rand_density(rng, 2)
        inputs = [QuantumState.from_density(r0), QuantumState.from_density(r1)]
        obs = rand_hermitian(rng, 2)
        lhs = variance_qsp(sigma, m, r0, r1, obs, 1)
        rhs = variance_exact(inst, inputs, obs)
        assert abs(lhs - rhs) < 1e-10

    def test_lincombo_closure(self, rng):
        psi0, psi1 = rand_state(rng, 4), rand_state(rng, 4)
        a0, a1 = 0.7, math.sqrt(1 - 0.49)
        beta = np.array([0.6, 0.8])
        inst = build_lincombo_instrument(a0, a1, beta, psi0, psi1)
        inputs = [QuantumState.pure(psi0), QuantumState.pure(psi1)]
        obs = rand_hermitian(rng, 4)
        lhs = variance_lincombo(a0, a1, beta[0], (psi0, psi1), obs, 1)
        rhs = variance_exact(inst, inputs, obs)
        assert abs(lhs - rhs) < 1e-10

    def test_lincombo_orthogonal_rejected(self, rng):
        e0 = np.array([1.0, 0, 0, 0], dtype=complex)
        e1 = np.array([0, 1.0, 0, 0], dtype=complex)
        with pytest.raises(OrthogonalInputs):
            variance_lincombo(0.6, 0.8, 0.7, (e0, e1), np.eye(4), 1)

    def test_closures_accept_states(self, rng):
        # every operand a QuantumState gives the value of its matrix
        r0, r1 = rand_density(rng, 2), rand_density(rng, 2)
        s0, s1 = QuantumState.from_density(r0), QuantumState.from_density(r1)
        m = np.diag([1.0, -0.5]).astype(complex)
        obs = rand_hermitian(rng, 2)
        assert variance_qhp(s0, obs, 3) == variance_qhp(r0, obs, 3)
        assert variance_gqt(s0, s1, obs, 3) == variance_gqt(r0, r1, obs, 3)
        assert variance_qsp(s0, m, s0, s1, obs, 3) == variance_qsp(r0, m, r0, r1, obs, 3)
        assert compare_concat_vs_direct(s0, s1, obs) == compare_concat_vs_direct(r0, r1, obs)
        # a bare vector is the projector onto it
        v = rand_state(rng, 2)
        assert abs(expectation(v, obs) - np.vdot(v, obs @ v)) < 1e-12

    def test_bounds_chain(self, rng):
        inst = build_qhp_instrument(1)
        inputs = [
            QuantumState.from_density(rand_density(rng, 2)),
            QuantumState.from_density(rand_density(rng, 2)),
        ]
        obs = rand_hermitian(rng, 2)
        var = variance_exact(inst, inputs, obs)
        bounds = variance_bound(inst, inputs, spectral_norm(obs))
        assert -1e-12 <= var <= bounds.b1 + 1e-12 <= bounds.b2 + 2e-12


class TestBetaDesign:
    def test_matches_numeric_minimizer(self):
        for p in (0.1, 0.35, 0.6, 0.9):
            for r in (0.05, 0.4, 0.95, 1.0):
                design = optimal_beta(p, r)
                res = optimize.minimize_scalar(
                    lambda q: beta_variance_bound(p, q, r),
                    bounds=(1e-9, 1 - 1e-9),
                    method="bounded",
                    options={"xatol": 1e-12},
                )
                assert abs(design.q_opt - res.x) < 1e-7
                assert design.bound_at_opt <= res.fun + 1e-12

    def test_symmetric_split_is_exactly_half(self):
        for r in (1e-6, 0.3, 0.8, 1.0):
            assert optimal_beta(0.5, r).q_opt == 0.5

    def test_vanishing_overlap_limit(self):
        for p in (0.1, 0.5, 0.9):
            assert abs(optimal_beta(p, 1e-6).q_opt - 0.5) < 1e-3

    def test_full_overlap_limit(self):
        p = 0.3
        want = math.sqrt(p) / (math.sqrt(p) + math.sqrt(1 - p))
        assert abs(optimal_beta(p, 1.0).q_opt - want) < 1e-12

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            optimal_beta(0.0, 0.5)
        with pytest.raises(ValidationError):
            optimal_beta(0.5, 0.0)
        with pytest.raises(ValidationError):
            beta_variance_bound(0.5, 1.0, 0.5)


class TestShotPlanning:
    def test_hoeffding_reference_value(self):
        assert hoeffding_shots(0.1, 0.05, 1.0, 1.0) == 738

    def test_hoeffding_scales_with_norms(self):
        base = hoeffding_shots(0.1, 0.05, 1.0, 1.0)
        assert hoeffding_shots(0.1, 0.05, 2.0, 1.0) == hoeffding_shots(0.1, 0.05, 1.0, 2.0)
        assert hoeffding_shots(0.1, 0.05, 2.0, 1.0) >= 4 * base - 1

    def test_allocation_sums_and_proportionality(self):
        out = allocate_shots([3.0, 1.0, 1.0], 50)
        assert sum(out) == 50 and out[0] == 30

    def test_allocation_largest_remainder(self):
        out = allocate_shots([1.0, 1.0, 1.0], 10)
        assert sum(out) == 10 and sorted(out) == [3, 3, 4]

    def test_zero_weight_gets_zero(self):
        out = allocate_shots([1.0, 0.0, 1.0], 10)
        assert out[1] == 0 and sum(out) == 10

    def test_starvation_repair(self):
        out = allocate_shots([1000.0, 1.0, 1.0], 5)
        assert min(out[i] for i in (1, 2)) >= 1 and sum(out) == 5

    def test_impossible_allocation(self):
        with pytest.raises(AllocationError):
            allocate_shots([1.0, 1.0, 1.0], 2)

    @given(st.lists(st.floats(min_value=0.1, max_value=9.0), min_size=1, max_size=6),
           st.integers(min_value=50, max_value=500))
    @settings(max_examples=25)
    def test_allocation_total_always_exact(self, weights, total):
        assert sum(allocate_shots(weights, total)) == total


class TestComparisons:
    def test_concat_difference_identity(self, rng):
        for d in (2, 4):
            r0, r1 = rand_density(rng, d), rand_density(rng, d)
            obs = rand_hermitian(rng, d)
            cmp = compare_concat_vs_direct(r0, r1, obs)
            want = (d**2 - 1) * float(
                np.trace(dephase(r0) @ obs @ obs).real * np.trace(r1).real
            )
            assert abs(cmp.difference - want) < 1e-10

    def test_power_methods_entrywise_wins_for_unit_obs_sq(self, rng):
        psi = rand_state(rng, 8)
        obs = np.diag(np.sign(rng.normal(size=8))).astype(complex)  # O^2 = I
        for k in (2, 3, 4):
            cmp = compare_power_methods(psi, k, obs)
            assert cmp.difference <= 1e-12

    def test_power_variance_values(self, rng):
        psi = rand_state(rng, 4)
        obs = rand_hermitian(rng, 4)
        k = 3
        vk = power_state(psi, k)
        mean_sq = abs(np.vdot(vk, obs @ vk)) ** 2
        cmp = compare_power_methods(psi, k, obs)
        assert abs(cmp.var_qhp - (np.vdot(vk, obs @ obs @ vk).real - mean_sq)) < 1e-12
