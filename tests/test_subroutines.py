import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wstate.errors import (
    OrthogonalInputs,
    OrthogonalIntermediate,
    ValidationError,
    ZeroBeta,
)
from wstate.instrument import QuantumState, apply_exact, expectation
from wstate.subroutines import (
    SPECIAL_CASES,
    PolySpec,
    alpha_of,
    anticommutator_case,
    build_gqt_instrument,
    build_lincombo_instrument,
    build_qhp_instrument,
    build_qsp_instrument,
    build_teleport_instrument,
    commutator_case,
    gamma_in,
    gqt,
    lincombo_pair_M,
    mixture_case,
    polynomial_pipeline,
    power_state,
    qhp,
    qsp_oracle,
    solve_qsp_realizable,
    square_case,
    teleport_map,
    _step,
)

from wstate.tensor import classify

from conftest import rand_density, rand_state, rand_unitary


def apply_pair(inst, a, b):
    return apply_exact(
        inst, [QuantumState.from_density(a), QuantumState.from_density(b)]
    ).matrix


def _stage_instruments(pipe, psi):
    """Replay the program, yielding (op, instrument, inputs, expected) for
    every gate-bearing stage, to check it against apply_exact stage by stage."""
    v = np.asarray(psi, dtype=np.complex128)
    stack = []
    for op in pipe.ops:
        operands = _step(stack, op, v)
        if operands is None:
            continue
        if op[0] == "qhp":
            inst = build_qhp_instrument(pipe.n_qubits)
        elif op[0] == "gqt":
            inst = build_gqt_instrument(pipe.n_qubits)
        else:
            beta = np.array([1, 1]) / math.sqrt(2)
            inst = build_lincombo_instrument(op[1], op[2], beta, *operands)
        yield op, inst, operands, stack[-1]


class TestQhp:
    def test_matches_entrywise_product(self, rng):
        inst = build_qhp_instrument(1)
        a, b = rand_density(rng, 2), rand_density(rng, 2)
        assert np.abs(apply_pair(inst, a, b) - qhp(a, b)).max() < 1e-12

    def test_two_qubits_pure_inputs(self, rng):
        inst = build_qhp_instrument(2)
        a, b = rand_state(rng, 4), rand_state(rng, 4)
        tau = apply_exact(inst, [QuantumState.pure(a), QuantumState.pure(b)])
        want = qhp(np.outer(a, a.conj()), np.outer(b, b.conj()))
        assert np.abs(tau.matrix - want).max() < 1e-12

    def test_trace_is_joint_diagonal_overlap(self, rng):
        a, b = rand_density(rng, 4), rand_density(rng, 4)
        assert abs(np.trace(qhp(a, b)) - np.sum(np.diag(a) * np.diag(b))) < 1e-12


class TestGqt:
    def test_matches_oracle(self, rng):
        inst = build_gqt_instrument(1)
        s, r = rand_density(rng, 2), rand_density(rng, 2)
        assert np.abs(apply_pair(inst, s, r) - gqt(s, r)).max() < 1e-12

    def test_plus_ancilla_gives_transpose(self, rng):
        n, d = 2, 4
        inst = build_gqt_instrument(n)
        plus = np.full((d, d), 1.0 / d, dtype=np.complex128)
        rho = rand_density(rng, d)
        tau = apply_pair(inst, plus, rho)
        assert np.abs(tau - rho.T / d).max() < 1e-12


class TestQsp:
    def test_generic_sigma_m(self, rng):
        sigma = rand_density(rng, 2)
        m = rand_unitary(rng, 2) + rand_unitary(rng, 2)
        inst = build_qsp_instrument(sigma, m, 1)
        r0, r1 = rand_density(rng, 2), rand_density(rng, 2)
        alpha = alpha_of(sigma, m)
        want = qsp_oracle(r0, r1, alpha)
        assert np.abs(apply_pair(inst, r0, r1) - want).max() < 1e-10

    def test_gamma_tracks_unnormalized_traces(self, rng):
        # subnormalized branch inputs still satisfy the alpha calculus
        r0 = 0.7 * rand_density(rng, 2)
        r1 = 0.4 * rand_density(rng, 2)
        sigma = rand_density(rng, 2)
        m = np.array([[1.0, 0.5], [0.5j, 2.0]])
        alpha = alpha_of(sigma, m, gamma_in(np.trace(r0), np.trace(r1)))
        direct = (
            alpha[0, 0] * r0
            + alpha[1, 1] * r1
            + alpha[0, 1] * r0 @ r1
            + alpha[1, 0] * r1 @ r0
        )
        assert np.abs(qsp_oracle(r0, r1, alpha) - direct).max() < 1e-12


class TestSpecialCases:
    def test_mixture(self, rng):
        p = 0.3
        case = mixture_case(p)
        inst = build_qsp_instrument(case.sigma, case.m, 1)
        r0, r1 = rand_density(rng, 2), rand_density(rng, 2)
        tau = apply_pair(inst, r0, r1)
        assert np.abs(tau - (p * r0 + (1 - p) * r1)).max() < 1e-10

    def test_anticommutator(self, rng):
        case = anticommutator_case()
        inst = build_qsp_instrument(case.sigma, case.m, 1)
        r0, r1 = rand_density(rng, 2), rand_density(rng, 2)
        tau = apply_pair(inst, r0, r1)
        assert np.abs(tau - (r0 @ r1 + r1 @ r0)).max() < 1e-10

    def test_commutator(self, rng):
        case = commutator_case()
        inst = build_qsp_instrument(case.sigma, case.m, 1)
        r0, r1 = rand_density(rng, 2), rand_density(rng, 2)
        tau = apply_pair(inst, r0, r1)
        assert np.abs(tau - (r0 @ r1 - r1 @ r0)).max() < 1e-10

    def test_square_trace_is_twice_purity(self, rng):
        case = square_case()
        inst = build_qsp_instrument(case.sigma, case.m, 1)
        rho = rand_density(rng, 2)
        tau = apply_pair(inst, rho, rho)
        assert np.abs(tau - 2.0 * rho @ rho).max() < 1e-10
        assert abs(np.trace(tau) - 2.0 * np.trace(rho @ rho)) < 1e-10

    def test_alpha_catalog_consistent(self):
        for name, factory in SPECIAL_CASES.items():
            case = factory(0.5) if name == "mixture" else factory()
            assert np.abs(alpha_of(case.sigma, case.m) - case.alpha).max() < 1e-12

    def test_mixture_weight_range(self):
        with pytest.raises(ValidationError):
            mixture_case(1.5)

    @pytest.mark.parametrize("traces", [{"trace_rho0": 0.0}, {"trace_rho1": 0j}])
    def test_mixture_of_a_traceless_input_rejected(self, traces):
        with pytest.raises(ValidationError, match="traces must be nonzero"):
            mixture_case(0.5, **traces)


class TestTeleport:
    def test_identity_maps_project_to_rho_over_d_sq(self, rng):
        d = 2
        inst = build_teleport_instrument(1, [(np.eye(d), np.eye(d))])
        rho = rand_density(rng, d)
        plus = np.full(d, 1.0 / math.sqrt(d), dtype=np.complex128)
        tau = apply_exact(
            inst, [QuantumState.from_density(rho), QuantumState.pure(plus)]
        )
        assert np.abs(tau.matrix - rho / d**2).max() < 1e-12

    def test_random_map_pairs_match_oracle(self, rng):
        for n in (1, 2):
            d = 2**n
            maps = [
                (
                    rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)),
                    rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)),
                )
                for _ in range(2)
            ]
            inst = build_teleport_instrument(n, maps)
            rho = rand_density(rng, d)
            sig = rand_state(rng, d)
            tau = apply_exact(
                inst, [QuantumState.from_density(rho), QuantumState.pure(sig)]
            )
            want = teleport_map(np.outer(sig, sig.conj()), maps, rho)
            assert np.abs(tau.matrix - want).max() < 1e-10

    def test_transpose_maps_reduce_to_swap_measurement(self):
        # E(rho) = rho^T from K = J = sqrt(d) |i><j| turns the Bell-pair
        # measurement into a SWAP
        d = 2
        eye = np.eye(d)
        maps = [
            (math.sqrt(d) * np.outer(eye[:, i], eye[:, j]),) * 2
            for i in range(d)
            for j in range(d)
        ]
        inst = build_teleport_instrument(1, maps)
        swap = np.zeros((d * d, d * d))
        for i in range(d):
            for j in range(d):
                swap[j * d + i, i * d + j] = 1.0
        assert np.abs(inst.measurement.matrix - swap).max() < 1e-10


class TestLincombo:
    def test_reference_pair(self):
        # |+> and |0> with equal coefficients: the compensating measurement
        # has ones on the diagonal and sqrt(2) off it
        plus = np.array([1.0, 1.0]) / math.sqrt(2)
        zero = np.array([1.0, 0.0])
        gram = np.array(
            [[1.0, np.vdot(plus, zero)], [np.vdot(zero, plus), 1.0]], dtype=complex
        )
        beta = np.array([1.0, 1.0]) / math.sqrt(2)
        a = 1.0 / math.sqrt(2)
        m = lincombo_pair_M(a, a, beta, gram).matrix
        want = np.array([[1.0, math.sqrt(2)], [math.sqrt(2), 1.0]])
        assert np.abs(m - want).max() < 1e-12

    def test_combination_exact(self, rng):
        psi0, psi1 = rand_state(rng, 4), rand_state(rng, 4)
        a0, a1 = 0.8 + 0.1j, -0.3 + 0.4j
        beta = np.array([0.6, 0.8])
        inst = build_lincombo_instrument(a0, a1, beta, psi0, psi1)
        tau = apply_exact(inst, [QuantumState.pure(psi0), QuantumState.pure(psi1)])
        target = a0 * psi0 + a1 * psi1
        assert np.abs(tau.matrix - np.outer(target, target.conj())).max() < 1e-10

    def test_orthogonal_inputs_rejected(self):
        e0 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        e1 = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
        with pytest.raises(OrthogonalInputs):
            build_lincombo_instrument(0.6, 0.8, np.array([0.6, 0.8]), e0, e1)

    def test_zero_beta_rejected(self, rng):
        psi0, psi1 = rand_state(rng, 2), rand_state(rng, 2)
        with pytest.raises(ZeroBeta):
            build_lincombo_instrument(0.5, 0.5, np.array([1.0, 0.0]), psi0, psi1)


class TestPowerChain:
    def test_power_state_values(self):
        psi = np.array([0.5, -0.5j, 0.5, 0.5])
        p3 = power_state(psi, 3)
        assert np.abs(p3 - psi**3).max() == 0

    @given(st.integers(min_value=1, max_value=5))
    @settings(max_examples=10)
    def test_trace_never_increases_for_normalized_inputs(self, k):
        rng = np.random.default_rng(k)
        psi = rand_state(rng, 8)
        norms = [float(np.linalg.norm(power_state(psi, j)) ** 2) for j in range(1, k + 1)]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


class TestPolynomialPipeline:
    def test_identity_polynomial_costs_nothing(self, rng):
        psi = rand_state(rng, 4)
        exact, pipe = polynomial_pipeline(psi, PolySpec({(1, 0): 1.0}))
        assert np.abs(exact - psi).max() < 1e-12
        assert pipe.gate_count == 0

    def test_square_is_one_entrywise_stage(self, rng):
        psi = rand_state(rng, 4)
        exact, pipe = polynomial_pipeline(psi, PolySpec({(2, 0): 1.0}))
        assert np.abs(exact - psi**2).max() < 1e-12
        assert pipe.gate_count == 2  # one entrywise stage at one gate per qubit

    def test_cubic_taylor_gate_count(self, rng):
        psi = rand_state(rng, 4)
        spec = PolySpec({(1, 0): 1.0, (3, 0): -1.0 / 3.0})
        exact, pipe = polynomial_pipeline(psi, spec)
        want = psi - psi**3 / 3.0
        assert np.abs(exact - want).max() < 1e-12
        assert pipe.gate_count == 40

    def test_conjugate_powers(self, rng):
        psi = rand_state(rng, 4)
        spec = PolySpec({(1, 1): 2.0, (2, 0): 1.0j})
        exact, _ = polynomial_pipeline(psi, spec)
        want = 2.0 * psi * psi.conj() + 1j * psi**2
        assert np.abs(exact - want).max() < 1e-12

    def test_stage_instruments_replay(self, rng):
        psi = rand_state(rng, 4)
        # conjugate powers replay through GQT stages, here psi (x) psi* (x) psi*
        # from the trailing GQT emits alone
        for terms in ({(1, 0): 1.0, (3, 0): -1.0 / 3.0}, {(1, 2): 1.0}):
            _, pipe = polynomial_pipeline(psi, PolySpec(terms))
            replayed = set()
            for op, inst, inputs, expected in _stage_instruments(pipe, psi):
                tau = apply_exact(inst, inputs)
                assert np.abs(tau.matrix - np.outer(expected, expected.conj())).max() < 1e-8
                replayed.add(op[0])
            assert replayed == ({"qhp", "lincombo"} if (1, 0) in terms else {"gqt"})

    def test_orthogonal_intermediate_detected(self):
        psi = np.array([1.0, 1.0j]) / math.sqrt(2)
        spec = PolySpec({(1, 0): 1.0, (3, 0): 1.0})
        with pytest.raises(OrthogonalIntermediate) as exc:
            polynomial_pipeline(psi, spec)
        # the only combination stage adds psi to psi^3, which is orthogonal to it
        assert type(exc.value.stage) is int and exc.value.stage == 0
        assert "add k=1,l=0" in str(exc.value)

    def test_bad_terms_rejected(self):
        with pytest.raises(ValidationError):
            PolySpec({(0, 0): 1.0})
        with pytest.raises(ValidationError):
            PolySpec({(1, -1): 1.0})


def _normal_2x2(rng) -> np.ndarray:
    u = rand_unitary(rng, 2)
    return u @ np.diag(rng.normal(size=2) + 1j * rng.normal(size=2)) @ u.conj().T


def _solver_alpha(seed: int, kind: str) -> np.ndarray:
    """A realizable coefficient matrix: generic (case2), phase * Hermitian
    (case1) or diagonal."""
    rng = np.random.default_rng(seed)
    if kind == "diagonal":
        return np.diag(rng.normal(size=2) + 1j * rng.normal(size=2))
    if kind == "case1":
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        return np.exp(1j * rng.uniform(0, 2 * np.pi)) * (h + h.conj().T)
    theta = rng.uniform(0.1, np.pi - 0.1)
    sigma = 0.5 * np.array([[1 + np.cos(theta), np.sin(theta)],
                            [np.sin(theta), 1 - np.cos(theta)]])
    return alpha_of(sigma, _normal_2x2(rng))


class TestRealizabilitySolver:
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["case2", "case1", "diagonal"]),
           k=st.integers(-40, 40))
    @settings(max_examples=60)
    def test_scale_free(self, seed, kind, k):
        alpha = _solver_alpha(seed, kind)
        base = solve_qsp_realizable(alpha)
        scaled = solve_qsp_realizable(2.0**k * alpha)
        assert (scaled.case, len(scaled.solutions)) == (base.case, len(base.solutions))
        assert base.case == kind
        for got, want in zip(scaled.solutions, base.solutions):
            assert abs(got.theta - want.theta) <= 1e-12 * abs(want.theta)
            assert np.abs(got.m - 2.0**k * want.m).max() <= 1e-12 * np.abs(got.m).max()

    @pytest.mark.parametrize("theta", [1e-8, 1e-6, np.pi - 1e-6])
    def test_ill_conditioned_round_trip(self, theta):
        rng = np.random.default_rng(17)
        sigma = np.array([[math.cos(theta / 2) ** 2, math.sin(theta) / 2],
                          [math.sin(theta) / 2, math.sin(theta / 2) ** 2]])
        for _ in range(20):
            alpha = alpha_of(sigma, _normal_2x2(rng))
            res = solve_qsp_realizable(alpha)
            assert res.case == "case2" and len(res.solutions) == 2
            for sol in res.solutions:
                recon = alpha_of(sol.sigma, sol.m)
                assert np.abs(recon - alpha).max() <= 1e-12 * np.abs(alpha).max()

    @pytest.mark.parametrize("eps", [1e-10, 5e-10])
    def test_within_tolerance_gives_normal_m(self, eps):
        """An alpha within the classification tolerance of case1, with unequal
        off-diagonal magnitudes or a small anti-Hermitian diagonal, is solved
        with a normal M that reconstructs it to that tolerance."""
        rng = np.random.default_rng(29)
        for _ in range(20):
            h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            alpha = h + h.conj().T
            s = np.abs(alpha).max()
            alpha[0, 1] *= 1 + eps * s / abs(alpha[0, 1])
            alpha[0, 0] += 1j * eps * s
            alpha[1, 1] -= 1j * eps * s
            res = solve_qsp_realizable(alpha)
            assert res.case == "case1"
            sol = res.solutions[0]
            assert np.abs(alpha_of(sol.sigma, sol.m) - alpha).max() <= 2e-9 * s
            assert classify(sol.m) != "nonnormal"
