import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wstate.errors import (
    DimensionMismatch,
    InvalidState,
    MissingDecomposition,
    NotUnitary,
    ValidationError,
)
from wstate.instrument import (
    MeasurementOperator,
    QuantumInstrument,
    QuantumState,
    WeightedState,
    apply_exact,
    branches,
    concatenate,
    emulate_nonnormal,
    evolve,
    expectation,
    identity_instrument,
    random_density,
    weighted_output,
)
from wstate.subroutines import (
    build_gqt_instrument,
    build_qhp_instrument,
    build_qsp_instrument,
    build_teleport_instrument,
    qhp,
)
from wstate.tensor import (
    LowRankOperator,
    PermutationUnitary,
    Register,
    RegisterLayout,
    classify,
    embed_operator,
)

from conftest import rand_density, rand_hermitian, rand_state, rand_unitary


class TestQuantumState:
    def test_pure_requires_normalization(self):
        with pytest.raises(InvalidState):
            QuantumState.pure(np.array([1.0, 1.0]))

    def test_density_requires_unit_trace(self):
        with pytest.raises(InvalidState):
            QuantumState.from_density(np.eye(2))

    def test_density_requires_hermitian(self):
        m = np.array([[0.5, 1.0], [0.0, 0.5]])
        with pytest.raises(InvalidState):
            QuantumState.from_density(m)

    def test_matrix_view(self, rng):
        v = rand_state(rng, 3)
        st = QuantumState.pure(v)
        assert np.abs(st.matrix - np.outer(v, v.conj())).max() < 1e-12

    def test_random_density_is_state(self, rng):
        rho = random_density(4, rng)
        assert abs(np.trace(rho) - 1) < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-12


class TestMeasurementClassification:
    def test_hermitian_detected(self, rng):
        m = MeasurementOperator.of(rand_hermitian(rng, 3))
        assert m.kind == "hermitian"
        assert m.normal_parts() == ((1.0, m.matrix),)

    def test_skew_hermitian_is_normal(self):
        m = MeasurementOperator.of(np.array([[0.0, -2.0], [2.0, 0.0]]))
        assert m.kind == "normal"

    def test_unitary_is_normal(self, rng):
        u = rand_unitary(rng, 4)
        # generic unitaries are neither hermitian nor skew-hermitian
        assert MeasurementOperator.of(u).kind == "normal"

    def test_nonnormal_gets_default_split(self):
        m = np.array([[1.0, 1.0], [0.0, 1.0]])
        op = MeasurementOperator.of(m)
        assert op.kind == "nonnormal"
        parts = op.normal_parts()
        assert len(parts) == 2
        acc = sum(c * p for c, p in parts)
        assert np.abs(acc - m).max() < 1e-12

    def test_kind_mislabel_rejected(self, rng):
        herm = rand_hermitian(rng, 2)
        with pytest.raises(ValidationError):
            MeasurementOperator(herm, "nonnormal", ((1.0, herm),))
        upper = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValidationError):
            MeasurementOperator(upper, "hermitian")
        with pytest.raises(ValidationError):
            MeasurementOperator(upper, "normal")

    def test_nonnormal_without_decomposition_cannot_apply(self):
        m = np.array([[1.0, 1.0], [0.0, 1.0]])
        op = MeasurementOperator(m, "nonnormal")
        with pytest.raises(MissingDecomposition):
            op.normal_parts()

    def test_decomposition_must_reconstruct(self):
        m = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValidationError):
            MeasurementOperator(m, "nonnormal", ((1.0, np.eye(2)),))

    def test_decomposition_parts_must_be_normal(self):
        from wstate.errors import NotNormal

        m = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(NotNormal):
            MeasurementOperator(m, "nonnormal", ((1.0, m),))

    def test_large_dim_certificate_paths(self, rng):
        dim = 513
        diag = np.diag(rng.normal(size=dim)).astype(complex)
        assert MeasurementOperator.of(diag).kind == "hermitian"
        assert MeasurementOperator.of(1j * diag).kind == "normal"
        # an explicit label is checked exactly, so a structured normal M
        # read back in dense form keeps its class
        phased = np.exp(0.7j) * diag
        assert MeasurementOperator(phased, "normal").kind == "normal"
        # a non-normal M gets the Hermitian/skew split at any size
        generic = diag.copy()
        generic[0, 1] = 1.0
        op = MeasurementOperator.of(generic)
        assert op.kind == "nonnormal"
        acc = sum(c * p for c, p in op.normal_parts())
        assert np.abs(acc - generic).max() < 1e-12

    def test_large_normal_classified_exactly(self, rng):
        # neither Hermitian nor skew-Hermitian, so only the normality
        # residual can tell that it is normal, at any size
        diag = np.diag(rng.normal(size=513)).astype(complex)
        assert MeasurementOperator.of(np.exp(0.7j) * diag).kind == "normal"

    @pytest.mark.parametrize(
        "form", ["hermitian", "normal", "nonnormal", "permutation", "low-rank"]
    )
    def test_of_classifies_once(self, rng, monkeypatch, form):
        import wstate.instrument

        calls = []

        def counting(op):
            calls.append(op)
            return classify(op)

        monkeypatch.setattr(wstate.instrument, "classify", counting)
        ops = {
            "hermitian": lambda: rand_hermitian(rng, 4),
            "normal": lambda: rand_unitary(rng, 4),
            "nonnormal": lambda: np.array([[1.0, 1.0], [0.0, 1.0]]),
            "permutation": lambda: PermutationUnitary(np.array([1, 2, 0])),
            "low-rank": lambda: LowRankOperator(*(rand_operator(rng, 4)[:, :2] for _ in "uv")),
        }
        op = MeasurementOperator.of(ops[form]())
        assert len(calls) == 1
        assert op.kind == classify(op.operator)
        if form == "nonnormal":
            assert len(op.normal_parts()) == 2


def _operator_of_kind(rng, kind, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    if kind == "hermitian":
        return a + a.conj().T
    if kind == "normal":
        u = rand_unitary(rng, d)
        vals = rng.normal(size=d) + 1j * rng.normal(size=d)
        return u @ np.diag(vals) @ u.conj().T
    return a


class TestScaleInvariantClassification:
    """Normality and hermiticity are judged relative to the operator's scale,
    so c*M has the class of M and its weighted output is c*tau."""

    def test_large_normal_operators_stay_normal(self, rng):
        # eigenvalues near 1e3: an absolute 1e-10 called all 20 non-normal
        for _ in range(20):
            u = rand_unitary(rng, 8)
            vals = 1e3 * (1 + 0.1 * rng.normal(size=8)) * np.exp(2j * np.pi * rng.uniform(size=8))
            m = u @ np.diag(vals) @ u.conj().T
            assert MeasurementOperator.of(m).kind == "normal"
            assert MeasurementOperator(m, "normal").kind == "normal"

    @given(
        kind=st.sampled_from(["hermitian", "normal", "nonnormal"]),
        seed=st.integers(0, 2**32 - 1),
        log_c=st.floats(-2.0, 6.0),
    )
    @settings(max_examples=60)
    def test_scaling_keeps_class_and_scales_output(self, kind, seed, log_c):
        rng = np.random.default_rng(seed)
        c = 10.0**log_c
        m = _operator_of_kind(rng, kind, 2)
        assert MeasurementOperator.of(m).kind == kind
        assert MeasurementOperator.of(c * m).kind == kind
        assert MeasurementOperator.of(_operator_of_kind(rng, kind, 6) * c).kind == kind
        sigma = rand_density(rng, 2)
        inputs = [QuantumState.from_density(rand_density(rng, 2)) for _ in range(2)]
        tau = apply_exact(build_qsp_instrument(sigma, m, 1), inputs).matrix
        tau_c = apply_exact(build_qsp_instrument(sigma, c * m, 1), inputs).matrix
        assert np.abs(tau_c - c * tau).max() <= 1e-12 * c * np.abs(tau).max()

    def test_scaled_low_rank_keeps_class(self, rng):
        j, k = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(2))
        for maps in ([(j, k)], [(np.exp(0.7j) * np.eye(4), np.eye(4))], [(np.eye(4), np.eye(4))]):
            kind = build_teleport_instrument(2, maps).measurement.kind
            for c in (1e-2, 1e3, 1e6):
                scaled = [(c * a, b) for a, b in maps]
                assert build_teleport_instrument(2, scaled).measurement.kind == kind

    def test_scaled_normal_branches(self, rng):
        # branches diagonalizes c*M: eigenvalues scale, probabilities do not
        m = _operator_of_kind(rng, "normal", 2)
        sigma = rand_density(rng, 2)
        inputs = [QuantumState.from_density(rand_density(rng, 2)) for _ in range(2)]
        base = branches(build_qsp_instrument(sigma, m, 1), inputs)
        scaled = branches(build_qsp_instrument(sigma, 1e4 * m, 1), inputs)
        for a, b in zip(base, scaled):
            assert abs(b.eigenvalue - 1e4 * a.eigenvalue) <= 1e-9 * abs(b.eigenvalue)
            assert abs(b.probability - a.probability) <= 1e-12


class TestInstrumentValidation:
    def test_all_registers_need_roles(self):
        lay = RegisterLayout.of(Register("S", 2))
        with pytest.raises(ValidationError):
            QuantumInstrument(lay, None, np.eye(2), MeasurementOperator.of(np.eye(1)))

    def test_measurement_dim_must_match_e(self):
        lay = RegisterLayout.of(Register("S", 2, role="S"), Register("E", 2, role="E"))
        with pytest.raises(DimensionMismatch):
            QuantumInstrument(
                lay, None, np.eye(4), MeasurementOperator.of(np.eye(3))
            )

    def test_unitary_must_be_unitary(self):
        lay = RegisterLayout.of(Register("S", 2, role="S"), Register("E", 2, role="E"))
        with pytest.raises(NotUnitary):
            QuantumInstrument(
                lay, None, 2 * np.eye(4), MeasurementOperator.of(np.eye(2))
            )

    def test_ancilla_register_needs_state(self):
        lay = RegisterLayout.of(
            Register("A", 2, role="E", source="ancilla"),
            Register("S", 2, role="S"),
        )
        with pytest.raises(ValidationError):
            QuantumInstrument(lay, None, np.eye(4), MeasurementOperator.of(np.eye(2)))


class TestApplyExact:
    def test_identity_instrument_returns_input(self, rng):
        inst = identity_instrument(3)
        rho = rand_density(rng, 3)
        tau = apply_exact(inst, [QuantumState.from_density(rho)])
        assert np.abs(tau.matrix - rho).max() < 1e-12

    def test_pure_and_density_paths_agree(self, rng):
        inst = build_qhp_instrument(1)
        a, b = rand_state(rng, 2), rand_state(rng, 2)
        tau_pure = apply_exact(inst, [QuantumState.pure(a), QuantumState.pure(b)])
        tau_dens = apply_exact(
            inst,
            [
                QuantumState.from_density(np.outer(a, a.conj())),
                QuantumState.from_density(np.outer(b, b.conj())),
            ],
        )
        assert np.abs(tau_pure.matrix - tau_dens.matrix).max() < 1e-10

    def test_linearity_over_decomposition(self, rng):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        inst = build_teleport_instrument(1, [(np.eye(2), x)])
        assert inst.measurement.kind == "nonnormal"
        rho = rand_density(rng, 2)
        sigma = rand_state(rng, 2)
        tau = apply_exact(inst, [QuantumState.from_density(rho), QuantumState.pure(sigma)])
        parts = inst.measurement.normal_parts()
        acc = np.zeros_like(tau.matrix)
        for c, n in parts:
            single = QuantumInstrument(
                inst.layout,
                ancilla=inst.ancilla,
                unitary=inst.unitary,
                measurement=MeasurementOperator.of(n) if c else None,
            )
            acc += c * apply_exact(
                single, [QuantumState.from_density(rho), QuantumState.pure(sigma)]
            ).matrix
        assert np.abs(acc - tau.matrix).max() < 1e-10

    def test_wrong_input_count(self, rng):
        inst = build_qhp_instrument(1)
        with pytest.raises(ValidationError):
            apply_exact(inst, [QuantumState.pure(rand_state(rng, 2))])

    def test_wrong_input_dim(self, rng):
        inst = build_qhp_instrument(1)
        with pytest.raises(DimensionMismatch):
            apply_exact(
                inst,
                [QuantumState.pure(rand_state(rng, 4)), QuantumState.pure(rand_state(rng, 4))],
            )


def rand_operator(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


# every kind of input piece evolve accepts: the densities and the bare
# matrices are factored (eigh or SVD), the rank-1 density has eigenvalues of
# about -1e-17 and the indefinite and non-Hermitian ones have separate bras
INPUT_KINDS = ("pure", "density", "rank1", "vector", "indefinite", "weighted")


def _input_of_kind(rng, kind, d):
    if kind == "pure":
        return QuantumState.pure(rand_state(rng, d))
    if kind == "density":
        return QuantumState.from_density(rand_density(rng, d))
    if kind == "rank1":
        v = rand_state(rng, d)
        return QuantumState.from_density(np.outer(v, v.conj()))
    if kind == "vector":
        return rand_state(rng, d)
    if kind == "indefinite":
        return rand_hermitian(rng, d)
    return WeightedState(rand_operator(rng, d), RegisterLayout.of(Register("R", d)))


def _dense_input(x):
    if isinstance(x, (QuantumState, WeightedState)):
        return x.matrix
    return np.outer(x, x.conj()) if x.ndim == 1 else x


class TestContractions:
    """weighted_output and Tr[weighted_output(ev, B) A] against the dense
    trace Tr[U (sigma (x) rho) U^dag (A_S (x) B_E (x) I_G)] in layout order.

    The QSP layout (E, S, G) has d_G > 1; the teleport layout puts two E
    registers ahead of S. Each example runs the pinned pure or full-rank
    density inputs, whose bra is their ket, then inputs of drawn kinds.
    """

    @pytest.mark.parametrize("pure", [True, False], ids=["pure", "density"])
    @pytest.mark.parametrize("kind", ["qsp", "teleport"])
    @given(
        seed=st.integers(0, 2**32 - 1),
        drawn=st.lists(st.sampled_from(INPUT_KINDS), min_size=2, max_size=2),
    )
    @settings(max_examples=15)
    def test_against_dense_trace(self, kind, pure, seed, drawn):
        rng = np.random.default_rng(seed)
        n, d = 2, 4
        if kind == "qsp":
            sigma = rand_state(rng, 2) if pure else rand_density(rng, 2)
            inst = build_qsp_instrument(sigma, rand_operator(rng, 2), n)
        else:
            inst = build_teleport_instrument(n, [(rand_operator(rng, d), rand_operator(rng, d))])
        base = ["pure" if pure else "density"] * len(inst.input_labels)
        for kinds in (base, drawn):
            inputs = [_input_of_kind(rng, k, d) for k in kinds]
            ev = evolve(inst, inputs)
            if kinds is base:
                assert ev.bra is ev.ket
            if kind == "qsp":
                assert ev.dims[2] > 1
            self._check(inst, inputs, ev, rng)

    @staticmethod
    def _check(inst, inputs, ev, rng):
        # B_E in each form weighted_output takes: dense, a permutation, and
        # low-rank u v^dag with u is v (the projectors of spectral_groups)
        d_s, d_e, _ = ev.dims
        lay = inst.layout
        pieces = dict(zip(inst.input_labels, map(_dense_input, inputs)))
        pieces.update(zip(inst.ancilla_labels, [inst.ancilla.matrix]))
        rho0 = functools.reduce(np.kron, (pieces[l] for l in lay.labels))
        u = inst.unitary.dense()
        rho_out = u @ rho0 @ u.conj().T
        q = rand_operator(rng, d_e)[:, :2]
        forms = [
            rand_operator(rng, d_e),
            PermutationUnitary(rng.permutation(d_e)),
            LowRankOperator(q, rand_operator(rng, d_e)[:, :2]),
            LowRankOperator(q, q),
        ]
        for b in forms:
            dense_b = b if isinstance(b, np.ndarray) else b.dense()
            # A_S and B_E act on different registers, so they commute under the trace
            rho_b = rho_out @ embed_operator(dense_b, inst.e_labels, lay)

            def dense(a_s):
                op = embed_operator(a_s, inst.s_labels, lay)
                return complex(np.einsum("ij,ji->", rho_b, op))

            a = rand_operator(rng, d_s)
            want = dense(a)
            tau = weighted_output(ev, b)
            got = complex(np.einsum("st,ts->", tau, a))
            assert abs(got - want) <= 1e-12 * abs(want)

            # tau[s, t] = Tr[tau |t><s|]
            tau_want = np.zeros((d_s, d_s), dtype=np.complex128)
            for s in range(d_s):
                for t in range(d_s):
                    unit = np.zeros((d_s, d_s))
                    unit[t, s] = 1.0
                    tau_want[s, t] = dense(unit)
            assert np.abs(tau - tau_want).max() <= 1e-12 * np.abs(tau_want).max()


class TestBranches:
    def test_branches_sum_to_weighted_state(self, rng):
        inst = build_gqt_instrument(1)
        sig, rho = rand_density(rng, 2), rand_density(rng, 2)
        inputs = [QuantumState.from_density(sig), QuantumState.from_density(rho)]
        tau = apply_exact(inst, inputs)
        out = branches(inst, inputs)
        acc = sum(
            br.eigenvalue * br.probability * br.conditional_state.matrix
            for br in out
            if br.conditional_state is not None
        )
        assert np.abs(acc - tau.matrix).max() < 1e-10

    def test_branch_probabilities_sum_to_one(self, rng):
        inst = build_qhp_instrument(1)
        inputs = [
            QuantumState.from_density(rand_density(rng, 2)),
            QuantumState.from_density(rand_density(rng, 2)),
        ]
        out = branches(inst, inputs)
        assert abs(sum(br.probability for br in out) - 1.0) < 1e-10


class TestEmulation:
    def test_as_normal_instrument_same_weighted_state(self, rng):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        inst = build_teleport_instrument(1, [(np.eye(2), x), (x, np.eye(2))])
        merged = emulate_nonnormal(inst)
        assert merged.measurement.kind in ("hermitian", "normal")
        inputs = [
            QuantumState.from_density(rand_density(rng, 2)),
            QuantumState.pure(rand_state(rng, 2)),
        ]
        t1 = apply_exact(inst, inputs)
        t2 = apply_exact(merged, inputs)
        assert np.abs(t1.matrix - t2.matrix).max() < 1e-10

    def test_large_teleport_emulation_is_normal(self, rng):
        # d_E = 1024: the block measurement is 2048 x 2048, classified
        # exactly, neither Hermitian nor skew-Hermitian
        d = 32
        inst = build_teleport_instrument(5, [(rand_operator(rng, d), rand_operator(rng, d))])
        assert inst.measurement.kind == "nonnormal"
        emulated = emulate_nonnormal(inst)
        assert emulated.measurement.dim == 2048
        assert emulated.measurement.kind == "normal"


class TestConcatenate:
    def test_two_qhp_stages_square_twice(self, rng):
        # (a ⊙ b) ⊙ c with the first stage's output feeding stage two
        inst = build_qhp_instrument(1)
        chained = concatenate(inst, inst)
        a, b, c = (rand_density(rng, 2) for _ in range(3))
        inputs = [QuantumState.from_density(s) for s in (a, b)]
        fresh = [QuantumState.from_density(c)]
        tau = chained.apply_flattened(inputs, fresh)
        assert np.abs(tau.matrix - qhp(qhp(a, b), c)).max() < 1e-10

    @given(
        seed=st.integers(0, 2**32 - 1),
        stages=st.lists(st.sampled_from(["qhp", "gqt", "qsp", "teleport"]), min_size=2, max_size=2),
        to_second=st.booleans(),
        mixed=st.lists(st.booleans(), min_size=3, max_size=3),
    )
    @settings(max_examples=40)
    def test_staged_equals_flattened(self, seed, stages, to_second, mixed):
        # QSP and teleport stages with random maps make tau_1 non-Hermitian,
        # so the second stage takes it through the SVD factor
        rng = np.random.default_rng(seed)

        def build(name):
            if name == "qhp":
                return build_qhp_instrument(1)
            if name == "gqt":
                return build_gqt_instrument(1)
            if name == "qsp":
                return build_qsp_instrument(rand_density(rng, 2), rand_operator(rng, 2), 1)
            return build_teleport_instrument(1, [(rand_operator(rng, 2), rand_operator(rng, 2))])

        first, second = map(build, stages)
        target = second.input_labels[int(to_second)]
        chained = concatenate(first, second, {first.s_labels[0]: target})
        states = [
            QuantumState.from_density(rand_density(rng, 2))
            if m
            else QuantumState.pure(rand_state(rng, 2))
            for m in mixed
        ]
        k = len(first.input_labels)
        inputs, fresh = states[:k], states[k:]
        staged = chained.apply_staged(inputs, fresh)
        flat = chained.apply_flattened(inputs, fresh)
        assert np.abs(staged.matrix - flat.matrix).max() <= 1e-10 * np.abs(flat.matrix).max()

    def test_expectation_matches_composition(self, rng):
        inst = build_qhp_instrument(1)
        chained = concatenate(inst, inst)
        states = [rand_density(rng, 2) for _ in range(3)]
        obs = rand_hermitian(rng, 2)
        tau = chained.apply_flattened(
            [QuantumState.from_density(s) for s in states[:2]],
            [QuantumState.from_density(states[2])],
        )
        direct = np.trace(qhp(qhp(states[0], states[1]), states[2]) @ obs)
        assert abs(expectation(tau, obs) - direct) < 1e-10

    def test_stage_without_e_registers_keeps_its_scalar_measurement(self, rng):
        # a 1 x 1 M on no E registers scales the weighted state; the
        # flattened product M1 (x) M2 keeps that factor
        scaled = QuantumInstrument(
            RegisterLayout.of(Register("S", 2, role="S")),
            ancilla=None,
            unitary=PermutationUnitary.identity(2),
            measurement=MeasurementOperator.of(np.array([[2.0]])),
        )
        rho = QuantumState.from_density(rand_density(rng, 2))
        for first, second in ((scaled, build_qhp_instrument(1)), (scaled, scaled)):
            chained = concatenate(first, second)
            fresh = [rho] * (len(second.input_labels) - 1)
            staged = chained.apply_staged(rho, fresh)
            flat = chained.apply_flattened(rho, fresh)
            assert np.abs(staged.matrix - flat.matrix).max() < 1e-12
