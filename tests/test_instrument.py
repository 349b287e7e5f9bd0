import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wstate.errors import (
    DimensionMismatch,
    InvalidState,
    NotNormal,
    NotUnitary,
    ValidationError,
)
from wstate.instrument import (
    Evolved,
    MeasurementOperator,
    QuantumInstrument,
    QuantumState,
    Support,
    WeightedState,
    _Blocks,
    _Copy,
    _evolve,
    _factor,
    _kron_factors,
    apply_exact,
    branches,
    evolve,
    expectation,
    weighted_output,
)
from wstate.lcs import LcsProblem, build_all_at_once_instrument
from wstate.sampling import sample_estimate
from wstate.subroutines import (
    build_gqt_instrument,
    build_qhp_instrument,
    build_qsp_instrument,
    build_teleport_instrument,
    qhp,
)
from wstate.tensor import (
    DenseOperator,
    LowRankOperator,
    PermutationUnitary,
    Register,
    RegisterLayout,
    form,
)

from conftest import (
    embed_operator,
    emulate_nonnormal,
    rand_density,
    rand_hermitian,
    rand_state,
    rand_unitary,
    reference_weighted_output,
    table_held,
)


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

    def test_density_requires_nonnegative_eigenvalues(self):
        # Hermitian with unit trace, but eigenvalues 1.5 and -0.5
        with pytest.raises(InvalidState, match="negative eigenvalue"):
            QuantumState.from_density(np.diag([1.5, -0.5]))

    def test_matrix_view(self, rng):
        v = rand_state(rng, 3)
        st = QuantumState.pure(v)
        assert np.abs(st.matrix - np.outer(v, v.conj())).max() < 1e-12


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

    def test_nonnormal_without_decomposition_splits(self, rng):
        # labelled non-normal without parts, M splits as `of` splits it, and
        # an instrument samples through those parts
        m = np.array([[1.0, 1.0], [0.0, 1.0]])
        labelled, derived = MeasurementOperator(m, "nonnormal"), MeasurementOperator.of(m)
        assert labelled.kind == derived.kind == "nonnormal"
        for (c, n), (c2, n2) in zip(labelled.normal_parts(), derived.normal_parts(), strict=True):
            assert c == c2 and np.array_equal(n, n2)
        inst = build_qsp_instrument(rand_density(rng, 2), m, 1)
        inputs = [QuantumState.pure(rand_state(rng, 2)) for _ in range(2)]
        obs = rand_hermitian(rng, 2)
        reports = [sample_estimate(replace(inst, measurement=meas), inputs, obs, 1000, seed=4)
                   for meas in (labelled, derived)]
        assert reports[0] == reports[1]

    def test_decomposition_must_reconstruct(self):
        m = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValidationError):
            MeasurementOperator(m, "nonnormal", ((1.0, np.eye(2)),))

    def test_decomposition_parts_must_be_normal(self):
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
        "held", ["hermitian", "normal", "nonnormal", "permutation", "low-rank"]
    )
    def test_of_classifies_once(self, rng, monkeypatch, held):
        calls = []
        for cls in (DenseOperator, PermutationUnitary, LowRankOperator):
            def counting(op, real=cls.kind.fget):
                calls.append(op)
                return real(op)

            monkeypatch.setattr(cls, "kind", property(counting))
        ops = {
            "hermitian": lambda: rand_hermitian(rng, 4),
            "normal": lambda: rand_unitary(rng, 4),
            "nonnormal": lambda: np.array([[1.0, 1.0], [0.0, 1.0]]),
            "permutation": lambda: PermutationUnitary(np.array([1, 2, 0])),
            "low-rank": lambda: LowRankOperator(*(rand_operator(rng, 4)[:, :2] for _ in "uv")),
        }
        # of() decides no class; the first read of kind decides it once
        op = MeasurementOperator.of(ops[held]())
        assert calls == []
        kind = op.kind
        assert op.kind is kind and len(calls) == 1
        monkeypatch.undo()
        assert kind == form(op.operator).kind
        if held == "nonnormal":
            assert len(op.normal_parts()) == 2

    def test_given_kind_and_decomposition_checked_at_construction(self, rng):
        # a given kind or decomposition is still checked when it is given,
        # with the errors of a wrong one, however M is held
        upper = np.array([[1.0, 1.0], [0.0, 1.0]])
        swap = PermutationUnitary(np.array([0, 2, 1, 3]))
        cycle = PermutationUnitary(np.array([1, 2, 0]))
        u = rand_operator(rng, 4)[:, :1]
        projector = LowRankOperator(u, u)
        for held, wrong in ((upper, "normal"), (swap, "nonnormal"), (cycle, "hermitian"),
                            (projector, "nonnormal"), (rand_hermitian(rng, 2), "nonnormal")):
            with pytest.raises(ValidationError, match="but the operator is"):
                MeasurementOperator(held, wrong)
        with pytest.raises(ValidationError, match="does not reconstruct"):
            MeasurementOperator.of(upper, ((1.0, np.eye(2)),))
        with pytest.raises(ValidationError, match="does not reconstruct"):
            MeasurementOperator.of(projector, ((1.0, np.eye(4)),))
        with pytest.raises(DimensionMismatch):
            MeasurementOperator.of(upper, ((1.0, np.eye(3)),))
        with pytest.raises(NotNormal):
            MeasurementOperator.of(upper, ((1.0, upper),))
        with pytest.raises(ValidationError, match="empty decomposition"):
            MeasurementOperator.of(upper, ())


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

    def test_ancilla_state_must_fit_its_registers(self):
        lay = RegisterLayout.of(
            Register("A", 2, role="E", source="ancilla"),
            Register("S", 2, role="S"),
        )
        anc = QuantumState.pure(np.ones(3) / np.sqrt(3))
        with pytest.raises(DimensionMismatch, match="ancilla dims"):
            QuantumInstrument(lay, anc, np.eye(4), MeasurementOperator.of(np.eye(2)))


class TestApplyExact:
    def test_identity_instrument_returns_input(self, rng):
        layout = RegisterLayout.of(Register("S", 3, role="S"))
        inst = QuantumInstrument(
            layout, None, PermutationUnitary.identity(3), MeasurementOperator.of(np.ones((1, 1)))
        )
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
    density inputs, whose bra is their ket, then inputs of drawn kinds. A
    QSP evolution holds the controlled SWAP's blocks and a teleport one the
    copy's pieces, neither a ket, so each is also checked against the
    evolution of its table (table_held).
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
            joint = evolve(table_held(inst), inputs)
            if kinds is base:
                arrays = joint.scattered if isinstance(joint, Support) else joint
                assert arrays.bra is arrays.ket
            if kind == "qsp":
                assert isinstance(ev, _Blocks) and ev.dims[2] > 1
            else:
                assert isinstance(ev, _Copy)
            self._check(inst, inputs, ev, joint, rng)

    @staticmethod
    def _check(inst, inputs, ev, joint_ev, rng):
        # B_E in each form weighted_output takes, as an array or through
        # form(): dense, a permutation, low-rank u v^dag, u v^dag with u is v
        # (the projectors of groups()), and the rank-0 zero operator
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
            DenseOperator(rand_operator(rng, d_e)),
            PermutationUnitary(rng.permutation(d_e)),
            LowRankOperator(q, rand_operator(rng, d_e)[:, :2]),
            LowRankOperator(q, q),
            LowRankOperator(q[:, :0], q[:, :0]),
        ]
        for b in forms:
            dense_b = form(b).dense()
            # A_S and B_E act on different registers, so they commute under the trace
            rho_b = rho_out @ embed_operator(dense_b, inst.e_labels, lay)

            def dense(a_s):
                op = embed_operator(a_s, inst.s_labels, lay)
                return complex(np.einsum("ij,ji->", rho_b, op))

            a = rand_operator(rng, d_s)
            want = dense(a)
            tau = weighted_output(ev, b)
            # the table's evolution (the gather's joint ket, or a support)
            # against the blocks of a controlled SWAP or the pieces of a
            # copy, from the same state
            joint = weighted_output(joint_ev, b)
            assert np.abs(joint - tau).max() <= 1e-12 * max(1.0, np.abs(joint).max())
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
        inputs = [
            QuantumState.from_density(rand_density(rng, 2)),
            QuantumState.pure(rand_state(rng, 2)),
        ]
        t1 = apply_exact(inst, inputs)
        # the permutation unitary, and the same unitary held as a dense matrix
        for variant in (inst, replace(inst, unitary=inst.unitary.dense())):
            merged = emulate_nonnormal(variant)
            assert merged.measurement.kind in ("hermitian", "normal")
            t2 = apply_exact(merged, inputs)
            assert np.abs(t1.matrix - t2.matrix).max() < 1e-10


def _composed(first, second, inputs, fresh, at=0):
    """second after first: tau_1 = apply_exact(first, inputs) fed into the
    second stage's input register at, fresh pieces into the others."""
    pieces = list(fresh)
    pieces.insert(at, apply_exact(first, inputs))
    return apply_exact(second, pieces).matrix


def _staged_reference(first, second, inputs, fresh, at=0):
    """_composed through conftest.reference_weighted_output, stage by stage."""
    pieces = list(fresh)
    pieces.insert(at, reference_weighted_output(first, inputs))
    return reference_weighted_output(second, pieces)


class TestConcatenate:
    """A concatenation is one apply_exact fed the weighted state of another:
    apply_exact(second, [apply_exact(first, inputs), *fresh]), tau_1 taken
    through its SVD (instrument._factor) as one piece of the second stage."""

    def test_two_qhp_stages_square_twice(self, rng):
        # (a ⊙ b) ⊙ c with the first stage's output feeding stage two
        inst = build_qhp_instrument(1)
        a, b, c = (rand_density(rng, 2) for _ in range(3))
        inputs = [QuantumState.from_density(s) for s in (a, b)]
        tau = apply_exact(inst, [apply_exact(inst, inputs), QuantumState.from_density(c)])
        assert np.abs(tau.matrix - qhp(qhp(a, b), c)).max() < 1e-10

    @given(
        seed=st.integers(0, 2**32 - 1),
        stages=st.lists(st.sampled_from(["qhp", "gqt", "qsp", "teleport"]), min_size=2, max_size=2),
        to_second=st.booleans(),
        mixed=st.lists(st.booleans(), min_size=3, max_size=3),
        dense=st.booleans(),
    )
    @example(seed=0, stages=["qsp", "teleport"], to_second=False, mixed=[True, False, True],
             dense=True)
    @settings(max_examples=40)
    def test_composed_equals_reference(self, seed, stages, to_second, mixed, dense):
        # QSP and teleport stages with random maps make tau_1 non-Hermitian,
        # so the second stage takes it through the SVD factor; a first stage
        # with a dense unitary takes the gather
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
        if dense:
            first = replace(first, unitary=first.unitary.dense())
        states = [
            QuantumState.from_density(rand_density(rng, 2))
            if m
            else QuantumState.pure(rand_state(rng, 2))
            for m in mixed
        ]
        k = len(first.input_labels)
        args = (first, second, states[:k], states[k:], int(to_second))
        got, want = _composed(*args), _staged_reference(*args)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_expectation_matches_composition(self, rng):
        inst = build_qhp_instrument(1)
        states = [rand_density(rng, 2) for _ in range(3)]
        obs = rand_hermitian(rng, 2)
        tau = _composed(inst, inst, [QuantumState.from_density(s) for s in states[:2]],
                        [QuantumState.from_density(states[2])])
        direct = np.trace(qhp(qhp(states[0], states[1]), states[2]) @ obs)
        assert abs(expectation(tau, obs) - direct) < 1e-10

    def test_stage_without_e_registers_keeps_its_scalar_measurement(self, rng):
        # a 1 x 1 M on no E registers scales the weighted state, and the
        # composition keeps that factor
        scaled = QuantumInstrument(
            RegisterLayout.of(Register("S", 2, role="S")),
            ancilla=None,
            unitary=PermutationUnitary.identity(2),
            measurement=MeasurementOperator.of(np.array([[2.0]])),
        )
        rho = QuantumState.from_density(rand_density(rng, 2))
        for first, second in ((scaled, build_qhp_instrument(1)), (scaled, scaled)):
            fresh = [rho] * (len(second.input_labels) - 1)
            want = _staged_reference(first, second, rho, fresh)
            assert np.abs(_composed(first, second, rho, fresh) - want).max() <= 1e-12 * np.abs(
                want).max()


class TestRoutes:
    """What the routes of instrument._route promise beyond their outputs."""

    @pytest.mark.parametrize("case", ["lcs-3", "lcs-4", "dense-u"])
    def test_gather_multiplies_pieces_as_kron_factors(self, case, rng):
        # a non-basis ancilla (LCS all-at-once) or a dense U takes the
        # gather, which multiplies one piece per input register itself: the
        # input pieces left to right, then the ancilla's, the order
        # _kron_factors gives the same pieces' product passed as one piece
        if case == "dense-u":
            inst = build_gqt_instrument(2)
            inst = replace(inst, unitary=inst.unitary.dense())
        else:
            count = int(case[-1])
            problem = LcsProblem.from_states([rand_state(rng, 3) for _ in range(count)],
                                             rng.normal(size=count) + 1j * rng.normal(size=count))
            inst = build_all_at_once_instrument(problem, np.full(count, count**-0.5))
        pieces = [QuantumState.from_density(rand_density(rng, inst.layout.dim_of((label,))))
                  for label in inst.input_labels]
        at = [inst.layout.index(label) for label in inst.input_labels]
        joint = _evolve(inst, [(_kron_factors([_factor(x) for x in pieces]), at)])
        assert isinstance(evolve(inst, pieces), Evolved) and isinstance(joint, Evolved)
        want = weighted_output(joint, inst.measurement.operator)
        assert np.array_equal(apply_exact(inst, pieces).matrix, want)

    def test_support_is_not_a_gathered_evolution(self, rng):
        # a form's contract reads a gather's ket and bra, which a support
        # does not hold: handed one, it fails rather than contract the
        # unscattered columns; contract_support gives the table's tau
        inst = build_gqt_instrument(2)
        joint = QuantumState.from_density(rand_density(rng, 16))
        ev = evolve(inst, joint)
        assert isinstance(ev, Support)
        dense = evolve(replace(inst, unitary=inst.unitary.dense()), joint)
        for m in (rand_operator(rng, 16), PermutationUnitary(rng.permutation(16)),
                  LowRankOperator(rand_operator(rng, 16)[:, :2], rand_operator(rng, 16)[:, :2])):
            with pytest.raises(AttributeError):
                form(m).contract(ev)
            want = form(m).contract(dense)
            assert np.abs(form(m).contract_support(ev) - want).max() <= 1e-12 * np.abs(want).max()
