import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

import wstate.instrument
import wstate.sampling
from wstate.errors import (
    AllocationError,
    DimensionMismatch,
    InvalidDistribution,
    OrthogonalInputs,
    ValidationError,
)
from wstate.instrument import (
    QuantumState,
    Support,
    apply_exact,
    branches,
    evolve,
    expectation,
    weighted_output,
)
from wstate.sampling import (
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
    build_teleport_instrument,
    gqt,
    power_state,
    qhp,
)
from wstate.tensor import form as as_form
from wstate.tensor import (
    DenseOperator,
    LowRankOperator,
    PermutationUnitary,
    dephase,
    eigenbasis,
    hermiticity_residual,
    spectral_norm,
)

from conftest import (
    group_table,
    rand_density,
    rand_hermitian,
    rand_state,
    rand_unitary,
    table_held,
)


class TestSampleCounts:
    def test_deterministic_given_seed(self):
        p = np.array([0.2, 0.3, 0.5])
        a = sample_counts(p, 99991, seed=7)
        b = sample_counts(p, 99991, seed=7)
        assert np.array_equal(a, b)

    def test_counts_sum_to_shots(self):
        p = np.array([0.1, 0.2, 0.7])
        for shots in (1, 16384, 16385, 32767, 3 * 16384 + 17, 10**12):
            assert sample_counts(p, shots, seed=3).sum() == shots

    def test_one_stream_spawned_at_key_and_zero(self):
        # the stream the seed spawns at (0,), that of the former first
        # 2^14-shot block, so such calls keep their draws
        p = np.array([0.1, 0.2, 0.3, 0.4])
        for shots in (1, 977, 16384):
            ss = np.random.SeedSequence(1234, spawn_key=(0,))
            want = np.random.Generator(np.random.Philox(ss)).multinomial(shots, p)
            assert np.array_equal(sample_counts(p, shots, seed=1234), want)

    def test_shot_count_beyond_int64_rejected(self):
        p = np.array([0.5, 0.5])
        assert sample_counts(p, 2**63 - 1, seed=0).sum() == 2**63 - 1
        for shots in (2**63, 10**400, -1):
            with pytest.raises(ValidationError):
                sample_counts(p, shots, seed=0)

    def test_invalid_distribution_rejected(self):
        with pytest.raises(InvalidDistribution):
            sample_counts(np.array([0.5, 0.6]), 10, seed=0)
        with pytest.raises(InvalidDistribution):
            sample_counts(np.array([1.5, -0.5]), 10, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_probabilities_rejected(self, bad):
        # a NaN passes both the sum and the min comparison, and an inf the
        # min one; neither may reach the multinomial
        with pytest.raises(InvalidDistribution):
            sample_counts(np.array([0.5, bad, 0.5]), 10, seed=1)
        inst, inputs, obs = _fresh("dense-parts", 5)
        table = group_table(evolve(inst, inputs), inst.measurement, eigenbasis(obs))
        t = table.t.copy()
        t[0, 0] = bad
        with pytest.raises(InvalidDistribution):
            _joint_cells(dataclasses.replace(table, t=t))

    @given(st.integers(min_value=1, max_value=3 * 16384))
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

    def test_bound_check_is_relative_to_the_bound(self):
        def report(variance, bound):
            return EstimatorReport(10, 0, 0.0, 1.0, 0.0, variance, bound)

        with pytest.raises(ValidationError):
            report(1.01e-24, 1e-24)
        for scale in (1e-24, 1.0, 1e24):
            report(scale * (1 + 1e-13), scale)
            with pytest.raises(ValidationError):
                report(scale * (1 + 1e-9), scale)

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

    def test_one_shot_has_zero_sample_variance(self, rng):
        # one shot has no spread to estimate; its value is one cell's weight
        inst = build_qhp_instrument(1)
        inputs = [QuantumState.pure(rand_state(rng, 2)) for _ in range(2)]
        obs = rand_hermitian(rng, 2)
        rep = sample_estimate(inst, inputs, obs, shots=1, seed=5)
        assert rep.shots == 1 and rep.sample_variance == 0.0
        assert rep.sample_mean in wstate.sampling._observable_basis(inst, obs).weights
        assert rep.analytic_mean == sample_estimate(inst, inputs, obs, 1000, 5).analytic_mean

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
            table = group_table(evolve(inst, inputs), inst.measurement, eigenbasis(obs))
            probs, _ = _joint_cells(table)
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
        with pytest.raises(ValidationError, match="workers must be >= 1"):
            sample_estimate(inst, inputs, np.eye(2), shots=10, seed=0, workers=0)

    def test_observable_of_the_wrong_dim_rejected(self, rng):
        inst = build_qhp_instrument(1)
        inputs = [QuantumState.pure(rand_state(rng, 2)) for _ in range(2)]
        with pytest.raises(DimensionMismatch):
            sample_estimate(inst, inputs, np.eye(3), shots=10, seed=0)
        with pytest.raises(DimensionMismatch):
            variance_exact(inst, inputs, np.eye(3))


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


def _complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


# each form of M: (kind of the measurement, instrument on n qubits)
TABLE_FORMS = {
    "dense-hermitian": ("hermitian", lambda rng, n: build_qhp_instrument(n)),
    "dense-normal": (
        "normal",
        lambda rng, n: build_qsp_instrument(rand_density(rng, 2), np.diag(_complex(rng, 2)), n),
    ),
    "dense-parts": (
        "nonnormal",
        lambda rng, n: build_qsp_instrument(rand_density(rng, 2), _complex(rng, (2, 2)), n),
    ),
    "permutation": ("hermitian", lambda rng, n: build_gqt_instrument(n)),
    "low-rank": (
        "nonnormal",
        lambda rng, n: build_teleport_instrument(
            n, [(_complex(rng, (2**n, 2**n)), _complex(rng, (2**n, 2**n)))]
        ),
    ),
}


class TestGroupTable:
    """The group table's statistics against direct contractions of the
    evolved state with M and with each N_k N_k^dag, built densely here."""

    @given(
        form=st.sampled_from(sorted(TABLE_FORMS)),
        n=st.integers(1, 2),
        pure=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60)
    def test_statistics_match_direct_contractions(self, form, n, pure, seed):
        rng = np.random.default_rng(seed)
        kind, build = TABLE_FORMS[form]
        inst = build(rng, n)
        meas = inst.measurement
        assert meas.kind == kind
        d = 2**n
        if pure:
            inputs = [QuantumState.pure(rand_state(rng, d)) for _ in range(2)]
        else:
            inputs = [QuantumState.from_density(rand_density(rng, d)) for _ in range(2)]
        obs = rand_hermitian(rng, d)
        ev = evolve(inst, inputs)
        table = group_table(ev, meas, eigenbasis(obs))

        # tolerances relative to the operator scale, not to the value
        o_norm = spectral_norm(obs)
        parts = _weighted_parts(meas)
        mean_scale = o_norm * sum(abs(q * s) * spectral_norm(nk) for q, s, nk in parts)
        bounds = variance_bound(inst, inputs, o_norm)  # b2 = |O|^2 max_k |s_k|^2 |N_k|^2

        mean = expectation(weighted_output(ev, meas.operator), obs)
        assert abs(table.mean() - mean) <= 1e-12 * mean_scale

        def second_moment(a):
            return sum(
                q * abs(s) ** 2
                * expectation(weighted_output(ev, nk @ nk.conj().T), a).real
                for q, s, nk in parts
            )

        assert abs(table.second_moment(2) - second_moment(obs @ obs)) <= 1e-12 * bounds.b2
        b1 = o_norm**2 * second_moment(np.eye(d))
        assert abs(bounds.b1 - b1) <= 1e-12 * bounds.b2
        assert abs(o_norm**2 * table.second_moment(0) - b1) <= 1e-12 * bounds.b2


class TestOneDecompositionPerCall:
    """Each part of M is decomposed once per measurement, by the first
    statistic that reads it; the measurement's fields stay as they were, and
    a reused instrument gives the numbers a fresh one does."""

    @pytest.mark.parametrize("form", sorted(TABLE_FORMS))
    def test_each_part_decomposed_once_per_call(self, monkeypatch, form):
        def build(seed):
            rng = np.random.default_rng(seed)
            inst = TABLE_FORMS[form][1](rng, 2)
            inputs = [QuantumState.from_density(rand_density(rng, 4)) for _ in range(2)]
            return inst, inputs, rand_hermitian(rng, 4)

        def run(inst, inputs, obs, call):
            if call == "variance_exact":
                return variance_exact(inst, inputs, obs)
            if call == "variance_bound":
                return variance_bound(inst, inputs, 2.0)
            return sample_estimate(inst, inputs, obs, shots=5000, seed=call)

        calls = (1, 2, "variance_exact", "variance_bound", 1)
        inst, inputs, obs = build(17)
        n_parts = len(build(17)[0].measurement.normal_parts())
        meas = inst.measurement
        fields = {k: getattr(meas, k) for k in ("operator", "kind", "parts")}
        seen = _spy_groups(monkeypatch)
        got = [run(inst, inputs, obs, call) for call in calls]
        monkeypatch.undo()
        assert len(seen) == n_parts
        assert all(getattr(meas, k) is v for k, v in fields.items())
        assert got == [run(*build(17), call) for call in calls]

    @pytest.mark.parametrize("form", ["dense-hermitian", "dense-normal", "permutation"])
    def test_branches_and_estimates_share_one_decomposition(self, monkeypatch, form):
        inst, inputs, obs = _fresh(form, 23)
        seen = _spy_groups(monkeypatch)
        first = branches(inst, inputs)
        rep = sample_estimate(inst, inputs, obs, shots=1000, seed=2)
        again = branches(inst, inputs)
        monkeypatch.undo()
        assert len(seen) == 1
        assert [b.eigenvalue for b in first] == [b.eigenvalue for b in again]
        assert [b.probability for b in first] == [b.probability for b in again]
        assert abs(sum(b.probability for b in first) - 1.0) <= 1e-9
        assert rep == sample_estimate(*_fresh(form, 23), shots=1000, seed=2)

    @pytest.mark.parametrize("maps, contractions", [("one-random", 5), ("identity", 2)])
    def test_each_form_contracted_once(self, rng, monkeypatch, maps, contractions):
        # non-normal: two parts of two groups each, and the parts' zero
        # groups share one identity; Hermitian: one group and the identity
        m = {"one-random": [(_complex(rng, (4, 4)), _complex(rng, (4, 4)))],
             "identity": [(np.eye(4), np.eye(4))]}[maps]
        inst = build_teleport_instrument(2, m)
        inputs = [QuantumState.pure(rand_state(rng, 4)) for _ in range(2)]
        obs = rand_hermitian(rng, 4)
        want = sample_estimate(inst, inputs, obs, shots=1000, seed=3)
        forms = []

        def spy(ev, form):
            forms.append(form)
            return weighted_output(ev, form)

        monkeypatch.setattr(wstate.instrument, "weighted_output", spy)
        assert sample_estimate(inst, inputs, obs, shots=1000, seed=3) == want
        assert len(forms) == len({id(f) for f in forms}) == contractions


def _weighted_parts(meas) -> list:
    """(q_k, c_k / q_k, dense N_k) of each normal part c_k N_k with c_k != 0,
    q_k = |c_k| / sum|c|, built here from the parts."""
    parts = [(c, n) for c, n in meas.normal_parts() if c != 0]
    total = sum(abs(c) for c, _ in parts)
    return [(abs(c) / total, c / (abs(c) / total), as_form(n).dense()) for c, n in parts]


class TestWorstCaseBound:
    """b2 is |O|^2 max_k |c_k/q_k|^2 ||N_k||_2^2, read here from the parts'
    dense matrices and their singular values."""

    @pytest.mark.parametrize("form", sorted(TABLE_FORMS))
    @pytest.mark.parametrize("n", [1, 2])
    def test_b2_from_the_parts_spectral_norms(self, form, n):
        rng = np.random.default_rng(67 + n)
        inst = TABLE_FORMS[form][1](rng, n)
        inputs = [QuantumState.pure(rand_state(rng, 2**n)) for _ in range(2)]
        o_norm = 1.7
        want = o_norm**2 * max(abs(s) ** 2 * spectral_norm(nk) ** 2
                               for _, s, nk in _weighted_parts(inst.measurement))
        assert abs(variance_bound(inst, inputs, o_norm).b2 - want) <= 1e-12 * want


def _spy_groups(monkeypatch) -> list:
    """The forms whose groups() runs from now on, in call order."""
    seen = []
    for cls in (DenseOperator, PermutationUnitary, LowRankOperator):
        def spy(op, real=cls.groups):
            seen.append(op)
            return real(op)

        monkeypatch.setattr(cls, "groups", spy)
    return seen


def _fresh(form, seed):
    """(instrument, inputs, obs) of TABLE_FORMS[form] at n = 2, built anew."""
    rng = np.random.default_rng(seed)
    inst = TABLE_FORMS[form][1](rng, 2)
    inputs = [QuantumState.from_density(rand_density(rng, 4)) for _ in range(2)]
    return inst, inputs, rand_hermitian(rng, 4)


class TestEvaluationPlan:
    """The instrument's plan (the ancilla's factor columns and U's gather
    indices) is derived by the first evaluation and reused by every later
    one; a replaced instrument derives its own."""

    @pytest.mark.parametrize("form", sorted(TABLE_FORMS))
    def test_plan_derived_once_per_instrument(self, monkeypatch, form):
        # the gather path derives preimage_indices, the support path (GQT
        # and teleport: a basis-state ancilla) image_indices; one or the other.
        # QSP's controlled SWAP derives neither, so each form runs on its table
        inst, inputs, obs = _fresh(form, 29)
        inst = table_held(inst)
        real_factor = wstate.instrument._factor
        tables, factored = [], []

        def factor_spy(x):
            factored.append(x)
            return real_factor(x)

        for name in ("preimage_indices", "image_indices"):
            def indices_spy(table, *args, real=getattr(PermutationUnitary, name)):
                tables.append(table)
                return real(table, *args)

            monkeypatch.setattr(PermutationUnitary, name, indices_spy)
        monkeypatch.setattr(wstate.instrument, "_factor", factor_spy)

        def ket(ev):
            return (ev.scattered if isinstance(ev, Support) else ev).ket

        got = []
        for _ in range(3):
            got.append(ket(evolve(inst, inputs)))
            got.append(apply_exact(inst, inputs).matrix)
            got.append(sample_estimate(inst, inputs, obs, shots=1000, seed=4))
        monkeypatch.undo()
        assert len(tables) == 1
        assert sum(x is inst.ancilla for x in factored) == (inst.ancilla is not None)
        assert all(np.array_equal(a, b) for a, b in zip(got[:2], got[3:5]))
        assert got[2] == got[5] == got[8]
        fresh, inputs, obs = _fresh(form, 29)
        assert np.array_equal(ket(evolve(table_held(fresh), inputs)), got[0])

    @pytest.mark.parametrize("form", ["dense-normal", "permutation", "low-rank"])
    def test_replaced_unitary_takes_its_own_plan(self, form):
        inst, inputs, obs = _fresh(form, 31)
        before = apply_exact(inst, inputs).matrix
        d = inst.layout.total_dim
        other = PermutationUnitary(np.random.default_rng(3).permutation(d))
        moved = dataclasses.replace(inst, unitary=other)
        got = apply_exact(moved, inputs).matrix
        want = apply_exact(dataclasses.replace(inst, unitary=other.dense()), inputs).matrix
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
        assert np.abs(got - before).max() > 1e-6
        assert np.array_equal(apply_exact(inst, inputs).matrix, before)
        rep = sample_estimate(moved, inputs, obs, shots=1000, seed=6)
        assert abs(rep.analytic_mean - expectation(want, obs)) <= 1e-12 * max(
            1.0, abs(rep.analytic_mean))


class TestOperandReuse:
    """A repeated estimate decomposes nothing again: the instrument's plan
    keeps the last observable's eigenbasis, a QuantumState its factor
    columns and the measurement its rows. Each kept piece gives the numbers
    a fresh derivation does, and an operand that changed is derived anew."""

    @pytest.mark.parametrize("form", sorted(TABLE_FORMS))
    def test_repeated_estimate_runs_no_eigh(self, monkeypatch, form):
        inst, inputs, obs = _fresh(form, 37)
        first = sample_estimate(inst, inputs, obs, shots=1000, seed=8)
        calls = []

        def eigh_spy(*args, real=np.linalg.eigh, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", eigh_spy)
        again = sample_estimate(inst, inputs, obs, shots=1000, seed=8)
        monkeypatch.undo()
        assert calls == []
        assert again == first == sample_estimate(*_fresh(form, 37), shots=1000, seed=8)

    def test_observable_edited_in_place_is_derived_anew(self, rng):
        inst, inputs, obs = _fresh("dense-parts", 41)
        sample_estimate(inst, inputs, obs, shots=1000, seed=1)
        other = rand_hermitian(rng, 4)
        obs[...] = other
        got = sample_estimate(inst, inputs, obs, shots=1000, seed=1)
        fresh, inputs, _ = _fresh("dense-parts", 41)
        assert got == sample_estimate(fresh, inputs, other, shots=1000, seed=1)
        assert variance_exact(inst, inputs, obs) == variance_exact(fresh, inputs, other)
        obs[0, 1] += 1.0  # no longer Hermitian
        with pytest.raises(ValidationError, match="observable must be Hermitian"):
            sample_estimate(inst, inputs, obs, shots=1000, seed=1)
        obs[0, 1] = np.nan
        with pytest.raises(ValidationError):
            variance_exact(inst, inputs, obs)

    @pytest.mark.parametrize("form", ["dense-hermitian", "permutation", "low-rank"])
    def test_observables_a_b_a_match_fresh_instruments(self, rng, form):
        inst, inputs, a = _fresh(form, 43)
        b = rand_hermitian(rng, 4)
        got = [sample_estimate(inst, inputs, o, shots=2000, seed=3) for o in (a, b, a)]
        got += [variance_exact(inst, inputs, o) for o in (b, a)]
        want = [sample_estimate(_fresh(form, 43)[0], inputs, o, shots=2000, seed=3)
                for o in (a, b, a)]
        want += [variance_exact(_fresh(form, 43)[0], inputs, o) for o in (b, a)]
        assert got == want

    def test_bad_second_observable_keeps_its_typed_error(self, rng):
        inst, inputs, obs = _fresh("dense-normal", 47)
        rep = sample_estimate(inst, inputs, obs, shots=1000, seed=2)
        skew = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        for call in (lambda o: sample_estimate(inst, inputs, o, shots=1000, seed=2),
                     lambda o: variance_exact(inst, inputs, o)):
            with pytest.raises(ValidationError, match="observable must be Hermitian"):
                call(skew)
            with pytest.raises(DimensionMismatch):
                call(rand_hermitian(rng, 8))
            with pytest.raises(DimensionMismatch):
                call(obs[:, :3])
        assert sample_estimate(inst, inputs, obs, shots=1000, seed=2) == rep

    def test_density_input_factored_once(self, monkeypatch):
        # one eigh per density, construction included: it checks positivity
        # and gives the factor columns
        calls = []

        def eigh_spy(a, *args, real=np.linalg.eigh):
            calls.append(a)
            return real(a, *args)

        monkeypatch.setattr(np.linalg, "eigh", eigh_spy)
        inst, inputs, obs = _fresh("dense-parts", 53)
        densities = [x.density for x in inputs]
        got = [sample_estimate(inst, inputs, obs, shots=1000, seed=5),
               variance_exact(inst, inputs, obs),
               variance_bound(inst, inputs, 2.0),
               sample_estimate(inst, inputs, obs, shots=1000, seed=5)]
        monkeypatch.undo()
        assert [sum(a is d for a in calls) for d in densities] == [1, 1]
        fresh = _fresh("dense-parts", 53)
        assert got == [sample_estimate(*fresh, shots=1000, seed=5),
                       variance_exact(*fresh),
                       variance_bound(*fresh[:2], 2.0),
                       sample_estimate(*fresh, shots=1000, seed=5)]

    def test_density_edited_after_construction_is_not_seen(self):
        inst, inputs, obs = _fresh("dense-parts", 61)
        rho = inputs[0].density
        mine = rho.copy()
        state = QuantumState.from_density(mine)
        first = sample_estimate(inst, [state, inputs[1]], obs, shots=1000, seed=6)
        mine[...] = inputs[1].density
        assert np.array_equal(state.density, rho)
        assert sample_estimate(inst, [state, inputs[1]], obs, shots=1000, seed=6) == first
        assert first == sample_estimate(*_fresh("dense-parts", 61), shots=1000, seed=6)

    def test_shot_count_beyond_int64_rejected(self):
        inst, inputs, obs = _fresh("low-rank", 59)
        for shots in (2**63, 0):
            with pytest.raises(ValidationError, match="shot count"):
                sample_estimate(inst, inputs, obs, shots=shots, seed=0)
        assert sample_estimate(inst, inputs, obs, shots=2**63 - 1, seed=0).shots == 2**63 - 1


class TestKeptLaw:
    """The estimator's law (sampling._law) in an observable's eigenbasis is
    derived once per instrument and observable digest; an observable edited
    in place or another one derives a new law, and a replaced instrument
    starts with an empty plan."""

    @pytest.fixture
    def laws(self, monkeypatch):
        derived = []

        def spy(rows, basis, d, real=wstate.sampling._law):
            if basis is not None:  # variance_bound derives its own each call
                derived.append("observable")
            return real(rows, basis, d)

        monkeypatch.setattr(wstate.sampling, "_law", spy)
        return derived

    @pytest.mark.parametrize("form", sorted(TABLE_FORMS))
    def test_repeated_calls_derive_nothing(self, laws, form):
        inst, inputs, obs = _fresh(form, 67)
        got = [sample_estimate(inst, inputs, obs, shots=1000, seed=9),
               variance_exact(inst, inputs, obs), variance_bound(inst, inputs, 2.0)]
        assert laws == ["observable"]
        for _ in range(2):
            assert got == [sample_estimate(inst, inputs, obs, shots=1000, seed=9),
                           variance_exact(inst, inputs, obs), variance_bound(inst, inputs, 2.0)]
        assert laws == ["observable"]
        fresh = _fresh(form, 67)
        assert got == [sample_estimate(*fresh, shots=1000, seed=9), variance_exact(*fresh),
                       variance_bound(*fresh[:2], 2.0)]

    def test_law_keeps_no_operator_sized_array_beyond_the_basis(self, rng):
        # the law adds O(G d) entries to the eigenbasis it holds, no d x d copy
        inst, inputs, obs = _fresh("low-rank", 71)
        sample_estimate(inst, inputs, obs, shots=1000, seed=1)
        variance_bound(inst, inputs, 1.0)
        d, rows = len(obs), len(inst.measurement.rows[0])
        assert set(inst._plan) == {"observable"}
        _, law = inst._plan["observable"]
        assert law.vecs.shape == (d, d)
        arrays = [x for name, x in vars(law).items()
                  if isinstance(x, np.ndarray) and name != "vecs"]
        assert max(x.size for x in arrays) <= max(3, rows) * d

    def test_new_observable_derives_a_new_law(self, laws, rng):
        inst, inputs, obs = _fresh("dense-parts", 73)
        other, third = rand_hermitian(rng, 4), rand_hermitian(rng, 4)
        want = sample_estimate(_fresh("dense-parts", 73)[0], inputs, third, shots=1000, seed=4)
        laws.clear()
        first = sample_estimate(inst, inputs, obs, shots=1000, seed=4)
        assert sample_estimate(inst, inputs, other, shots=1000, seed=4) != first
        assert laws == ["observable"] * 2
        kept = obs.copy()
        obs[...] = third  # edited in place: the digest changes
        assert sample_estimate(inst, inputs, obs, shots=1000, seed=4) == want
        obs[...] = kept
        assert sample_estimate(inst, inputs, obs, shots=1000, seed=4) == first
        assert laws == ["observable"] * 4

    def test_replaced_measurement_starts_with_an_empty_plan(self, laws):
        inst, inputs, obs = _fresh("dense-parts", 79)
        sample_estimate(inst, inputs, obs, shots=1000, seed=3)
        variance_bound(inst, inputs, 1.0)
        meas = wstate.instrument.MeasurementOperator.of(-inst.measurement.matrix)
        moved = dataclasses.replace(inst, measurement=meas)
        assert set(inst._plan) == {"observable"} and moved._plan == {}
        got = sample_estimate(moved, inputs, obs, shots=1000, seed=3)
        assert laws == ["observable", "observable"]
        fresh = wstate.instrument.QuantumInstrument(inst.layout, inst.ancilla, inst.unitary, meas)
        assert got == sample_estimate(fresh, inputs, obs, shots=1000, seed=3)


    def test_missing_observable_rejected(self):
        # None is not an observable, nor a request for the computational basis
        inst, inputs, _ = _fresh("dense-parts", 83)
        with pytest.raises(ValidationError):
            sample_estimate(inst, inputs, None, shots=1000, seed=3)
        with pytest.raises(ValidationError):
            variance_exact(inst, inputs, None)
        assert inst._plan == {}


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

    @pytest.mark.parametrize("shots", [0, -5, 2**63])
    @pytest.mark.parametrize("closure", ["qhp", "gqt", "qsp", "lincombo"])
    def test_closures_check_their_shot_count(self, closure, shots):
        # sample_estimate's check and message: 0 shots divided by zero (qhp)
        # or gave inf, and a negative count a negative variance
        r, v, obs = np.eye(2) / 2, np.array([0.6, 0.8]), np.diag([1.0, -1.0])
        call = {
            "qhp": lambda: variance_qhp(r, obs, shots),
            "gqt": lambda: variance_gqt(r, r, obs, shots),
            "qsp": lambda: variance_qsp(r, np.eye(2), r, r, obs, shots),
            "lincombo": lambda: variance_lincombo(0.6, 0.8, 0.6, (v, v[::-1]), obs, shots),
        }[closure]
        with pytest.raises(ValidationError, match=r"shot count must lie in \[1, 2\*\*63 - 1\]"):
            call()

    def test_lincombo_takes_a_pair_of_states(self, rng):
        states = tuple(rand_state(rng, 2) for _ in range(3))
        with pytest.raises(ValidationError, match="pair"):
            variance_lincombo(0.6, 0.8, 0.6, states, np.eye(2), 10)

    @pytest.mark.parametrize("norm", [-1.0, math.nan, math.inf])
    def test_bound_rejects_a_bad_observable_norm(self, rng, norm):
        inst = build_qhp_instrument(1)
        inputs = [QuantumState.from_density(rand_density(rng, 2)) for _ in range(2)]
        with pytest.raises(ValidationError, match="finite and nonnegative"):
            variance_bound(inst, inputs, norm)

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_allocation_rejects_non_finite_or_negative_weights(self, bad):
        with pytest.raises(ValidationError, match="finite and nonnegative"):
            allocate_shots([bad, 1.0], 10)

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
