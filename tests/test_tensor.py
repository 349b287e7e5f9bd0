import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wstate.errors import (
    DimensionMismatch,
    NotUnitary,
    SchemaError,
    UnknownLabel,
    ValidationError,
)
from wstate.instrument import MeasurementOperator, QuantumInstrument, QuantumState, apply_exact
from wstate.lcs import LcsProblem, build_all_at_once_instrument, default_permutations
from wstate.subroutines import (
    build_gqt_instrument,
    build_qhp_instrument,
    build_qsp_instrument,
    build_teleport_instrument,
)
from wstate.tensor import (
    LowRankOperator,
    PermutationUnitary,
    Register,
    RegisterLayout,
    Xor,
    classify,
    combine_digits,
    dephase,
    eigenbasis,
    embed_operator,
    embed_permutation,
    form,
    matrix_from_json,
    matrix_to_json,
    normality_residual,
    operand,
    register_digits,
    spectral_norm,
    unitarity_residual,
    vector_from_json,
    vector_to_json,
)

from conftest import rand_density, rand_hermitian, rand_state, rand_unitary


class TestRegisters:
    def test_layout_basics(self):
        lay = RegisterLayout.of(
            Register("A", 2, role="E", source="ancilla"),
            Register("B", 3, role="S"),
            Register("C", 4, role="G"),
        )
        assert lay.dims == (2, 3, 4)
        assert lay.total_dim == 24
        assert lay.labels == ("A", "B", "C")
        assert lay.with_role("S") == ("B",)
        assert lay.dim_of(("A", "C")) == 8
        assert lay.sub(("B",)).total_dim == 3

    def test_qubits_property(self):
        assert Register("A", 8).qubits == 3
        assert Register("A", 3).qubits is None

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValidationError):
            RegisterLayout.of(Register("A", 2), Register("A", 2))

    def test_unknown_role_rejected(self):
        with pytest.raises(UnknownLabel):
            Register("A", 2, role="Q")

    def test_unknown_label_lookup(self):
        lay = RegisterLayout.of(Register("A", 2))
        with pytest.raises(UnknownLabel):
            lay.index("B")


class TestResiduals:
    def test_dephase(self, rng):
        m = rand_density(rng, 4)
        d = dephase(m)
        assert np.abs(d - np.diag(np.diag(m))).max() == 0
        assert np.abs(dephase(d) - d).max() == 0

    def test_normality(self, rng):
        assert normality_residual(rand_hermitian(rng, 4)) < 1e-12
        nilp = np.zeros((2, 2), dtype=complex)
        nilp[0, 1] = 1.0
        assert normality_residual(nilp) == 1.0

    def test_spectral_norm(self, rng):
        u = rand_unitary(rng, 5)
        assert abs(spectral_norm(3.0 * u) - 3.0) < 1e-12

    def test_unitarity(self, rng):
        assert unitarity_residual(rand_unitary(rng, 4)) < 1e-12
        assert unitarity_residual(2 * np.eye(2)) > 1.0


class TestEigenbasis:
    def test_hermitian_roundtrip(self, rng):
        m = rand_hermitian(rng, 5)
        vals, vecs, labels = eigenbasis(m)
        recon = vecs @ np.diag(vals[labels]) @ vecs.conj().T
        assert np.abs(recon - m).max() < 1e-9

    def test_degenerate_eigenvalues_merge(self):
        m = np.diag([1.0, 1.0 + 1e-12, 2.0]).astype(complex)
        vals, _, labels = eigenbasis(m)
        assert len(vals) == 2
        assert labels[0] == labels[1]

    def test_normal_complex_spectrum(self, rng):
        u = rand_unitary(rng, 4)
        m = u @ np.diag([1j, -1j, 1.0, -1.0]) @ u.conj().T
        vals, vecs, labels = eigenbasis(m)
        assert np.abs(np.sort_complex(vals) - np.sort_complex(np.array([-1, -1j, 1j, 1]))).max() < 1e-9

    @staticmethod
    def check(a, lam):
        """eigenbasis(a) against the spectrum lam of a: unitary vectors, a
        residual relative to ||a||_F, one group per distinct eigenvalue, and
        groups in ascending order of the real part."""
        vals, vecs, labels = eigenbasis(a)
        scale = np.linalg.norm(a)
        assert np.abs(vecs.conj().T @ vecs - np.eye(len(a))).max() <= 1e-12
        assert np.linalg.norm(a @ vecs - vecs * vals[labels]) <= 1e-10 * scale
        distinct = np.unique(lam)
        assert len(vals) == len(distinct)
        assert np.abs(vals[:, None] - distinct[None, :]).min(axis=1).max() <= 1e-10 * scale
        assert np.all(np.diff(vals.real) >= -1e-10 * scale)

    @given(
        kind=st.sampled_from(["hermitian", "skew", "normal"]),
        picks=st.lists(st.integers(0, 8), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(-30, 30),
    )
    @settings(max_examples=60)
    def test_random_normal_with_exact_degeneracies(self, kind, picks, seed, k):
        # drawing eigenvalues from a pool of 9 repeats some of them exactly
        pool = {
            "hermitian": np.arange(-4.0, 5.0),
            "skew": 1j * np.arange(-4.0, 5.0),
            "normal": np.array([a + 1j * b for a in (-2.0, 0.0, 1.0) for b in (-1.0, 0.0, 2.0)]),
        }[kind]
        lam = 2.0**k * pool[picks]
        u = rand_unitary(np.random.default_rng(seed), len(lam))
        self.check((u * lam) @ u.conj().T, lam)

    def test_permutation_zero_and_scalar(self):
        # a 3-cycle and a swap: eigenvalues 1, w, w^2, 1, -1 with w^3 = 1
        cycle = PermutationUnitary(np.array([1, 2, 0, 4, 3])).dense()
        self.check(cycle, np.append(np.exp(2j * np.pi * np.arange(3) / 3), [1.0, -1.0]))
        self.check(np.zeros((4, 4), dtype=complex), np.zeros(4))
        self.check(np.array([[2.0 - 3.0j]]), np.array([2.0 - 3.0j]))

    def test_spectral_groups_projectors(self, rng):
        # every form through form(), against the dense path: a dense
        # Hermitian matrix, the two-qubit SWAP, a 3-cycle (the groups of its
        # dense matrix), a normal low-rank q diag(lam) q^dag with a zero
        # group left over, and the rank-0 zero operator; then non-normal
        # dense and low-rank operators, which split into normal parts
        q = np.linalg.qr(rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2)))[0]
        lam = np.array([2.0 + 1j, -0.5])
        u, v = (rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2)) for _ in "uv")
        normal = [
            rand_hermitian(rng, 4),
            PermutationUnitary(np.array([0, 2, 1, 3])),
            PermutationUnitary(np.array([1, 2, 0])),
            LowRankOperator(q, q * lam.conj()),
            LowRankOperator(np.zeros((4, 0)), np.zeros((4, 0))),
        ]
        nonnormal = [np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex), LowRankOperator(u, v)]
        assert form(normal[0]).array is normal[0]
        assert all(form(x) is x for x in normal[1:])
        for x in normal + nonnormal:
            f = form(x)
            assert f.kind == classify(f.dense())

        groups_of = [form(x).groups() for x in normal]
        for x, groups in zip(normal, groups_of):
            a = form(x).dense()
            projs = [sum(c * form(f).dense() for c, f in proj) for _, proj in groups]
            acc = sum(val * p for (val, _), p in zip(groups, projs))
            assert np.abs(acc - a).max() < 1e-9
            assert np.abs(sum(projs) - np.eye(len(acc))).max() < 1e-9
            for p in projs:
                assert np.abs(p @ p - p).max() < 1e-9
        assert [val for val, _ in groups_of[1]] == [1.0, -1.0]
        # the zero group is I minus the other groups, over the same forms
        *kept, (zero_val, zero_proj) = groups_of[3]
        assert zero_val == 0.0
        assert [id(f) for _, f in zero_proj[1:]] == [id(proj[0][1]) for _, proj in kept]
        # the zero operator has one group: the identity, with eigenvalue 0
        ((zero_val, zero_proj),) = groups_of[4]
        assert zero_val == 0.0 and len(zero_proj) == 1

        for x in nonnormal:
            f = form(x)
            assert f.kind == "nonnormal"
            parts = f.split()
            acc = sum(c * form(n).dense() for c, n in parts)
            assert np.abs(acc - f.dense()).max() <= 1e-12 * np.abs(f.dense()).max()
            assert all(form(n).kind != "nonnormal" for _, n in parts)


class TestPermutationUnitary:
    def test_not_a_permutation(self):
        with pytest.raises(NotUnitary):
            PermutationUnitary(np.array([0, 0, 1]))

    @given(st.permutations(list(range(6))), st.permutations(list(range(6))))
    def test_inverse_composition(self, perm, other):
        u, v = PermutationUnitary(np.array(perm)), PermutationUnitary(np.array(other))
        assert np.array_equal((u @ v).dense(), u.dense() @ v.dense())

    def test_embed_permutation(self):
        lay = RegisterLayout.of(Register("A", 2), Register("B", 2))
        flip = PermutationUnitary(np.array([1, 0]))
        big = embed_permutation(flip, ("B",), lay)
        assert np.array_equal(big.dense(), np.kron(np.eye(2), flip.dense()))

    def test_register_digits_roundtrip(self):
        # each register's digits are a grid over its own axis; together they
        # combine to every basis index in order
        lay = RegisterLayout.of(Register("A", 2), Register("B", 3), Register("C", 2))
        digits = register_digits(lay)
        assert [d.shape for d in digits] == [(2, 1, 1), (1, 3, 1), (1, 1, 2)]
        back = combine_digits(digits, lay.dims)
        assert np.array_equal(back.reshape(-1), np.arange(12))

    def test_embed_operator(self, rng):
        lay = RegisterLayout.of(Register("A", 2), Register("B", 3))
        op = rand_hermitian(rng, 3)
        big = embed_operator(op, ("B",), lay)
        assert np.abs(big - np.kron(np.eye(2), op)).max() < 1e-12


class TestArrayJson:
    def test_matrix_roundtrip(self, rng):
        m = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        back = matrix_from_json(matrix_to_json(m))
        assert np.array_equal(back, m)

    def test_vector_roundtrip(self, rng):
        v = rand_state(rng, 5)
        assert np.array_equal(vector_from_json(vector_to_json(v)), v)

    def test_nan_rejected(self):
        with pytest.raises(SchemaError) as exc:
            vector_from_json({"dims": [1], "data": [[float("nan"), 0.0]]})
        assert "data[0]" in str(exc.value)

    def test_wrong_count(self):
        with pytest.raises(SchemaError):
            matrix_from_json({"dims": [2, 2], "data": [[0.0, 0.0]]})

    def test_non_numeric_entry_path(self):
        with pytest.raises(SchemaError) as exc:
            matrix_from_json({"dims": [1, 1], "data": [["a", 0.0]]}, "obs")
        assert str(exc.value).startswith("obs")

    def test_operand_size_check(self):
        for x, dim, ndim in [(np.zeros((2, 3)), None, 2), (np.zeros(4), None, 2),
                             (np.eye(2), 4, 2), (np.zeros(3), 2, 1), (np.eye(2), None, 1),
                             (1.0, None, 2), (1.0, None, 1)]:
            with pytest.raises(DimensionMismatch, match="^widget must be"):
                operand(x, dim, "widget", ndim)
        with pytest.raises(ValidationError, match="NaN"):
            operand(np.full((2, 2), np.nan), 2, "widget")
        got = operand([[1, 2], [3, 4]], 2, "widget")
        assert got.dtype == np.complex128 and np.array_equal(got, [[1, 2], [3, 4]])
        assert operand(np.ones(3), what="widget", ndim=1).shape == (3,)
        assert operand(np.zeros((0, 0))).shape == (0, 0)


def reference_perm(dims, image):
    """Index map x -> combine(image(digits of x)), from the flat D-length
    digit arrays of np.unravel_index, independent of the digit grids."""
    digits = np.unravel_index(np.arange(int(np.prod(dims))), dims)
    return np.ravel_multi_index(image(list(digits)), dims)


def _xor(src, dst):
    def image(digits):
        digits[dst] = digits[dst] ^ digits[src]
        return digits

    return image


class TestPermutationBuilders:
    """Every permutation built from digit grids against reference_perm."""

    MIXED = RegisterLayout.of(Register("A", 2), Register("B", 3), Register("C", 2))

    def test_xor_ladder_mixed_radix(self):
        # the ladder holds a d_src d_dst table on its two registers only
        for src, dst in ((0, 2), (2, 0)):
            u = Xor((self.MIXED.labels[src], self.MIXED.labels[dst]), self.MIXED)
            assert u.xor == (src, dst) and u.perm.size == 4
            got = u.lifted().perm
            assert np.array_equal(got, reference_perm(self.MIXED.dims, _xor(src, dst)))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_builders(self, n):
        d = 2**n
        eye = np.eye(d)

        def cswap(digits):
            c, i, j = digits
            return [c, np.where(c == 1, j, i), np.where(c == 1, i, j)]

        cases = [
            (build_qhp_instrument(n), _xor(0, 1)),
            (build_gqt_instrument(n), _xor(0, 1)),
            (build_teleport_instrument(n, [(eye, eye)]), _xor(1, 2)),
            (build_qsp_instrument(np.array([1.0, 0.0]), np.eye(2), n), cswap),
        ]
        for inst, image in cases:
            got = inst.unitary.lifted().perm
            assert np.array_equal(got, reference_perm(inst.layout.dims, image))
        swap = build_gqt_instrument(n).measurement.operator.perm
        assert np.array_equal(swap, reference_perm((d, d), lambda g: g[::-1]))

    @pytest.mark.parametrize("labels", [("B",), ("C", "A"), ("A", "B", "C"), ("C", "B")])
    def test_embed_permutation_mixed_radix(self, rng, labels):
        lay = self.MIXED
        sub = rng.permutation(lay.dim_of(labels))
        pos = [lay.index(l) for l in labels]
        sub_dims = [lay.dims[p] for p in pos]

        def image(digits):
            out = np.unravel_index(sub[np.ravel_multi_index([digits[p] for p in pos], sub_dims)],
                                   sub_dims)
            for p, o in zip(pos, out):
                digits[p] = o
            return digits

        got = embed_permutation(PermutationUnitary(sub), labels, lay).perm
        assert np.array_equal(got, reference_perm(lay.dims, image))

    @pytest.mark.parametrize("count,d", [(2, 3), (3, 2), (4, 2)])
    def test_all_at_once_instrument(self, rng, count, d):
        prob = LcsProblem.from_states([rand_state(rng, d) for _ in range(count)], [1.0] * count)
        perms = default_permutations(count)
        inst = build_all_at_once_instrument(prob, np.full(count, count**-0.5))

        def image(digits):
            anc = digits[0]
            outs = [np.choose(anc, [digits[1 + p[k]] for p in perms]) for k in range(count)]
            return [anc] + outs

        assert np.array_equal(inst.unitary.perm, reference_perm(inst.layout.dims, image))


def _ravel(digits, dims):
    """Flat indices of digit arrays over registers of dims; 0 over none."""
    return np.ravel_multi_index(digits, dims) if dims else 0


class TestDigitMap:
    """Both index methods of a permutation held on some registers, against
    its lifted table (image_indices) and that table's inverse
    (preimage_indices), computed here from flat digit arrays: mixed-radix
    layouts, a table on a random ordered subset of the registers that may
    leave some of them alone, fixed digits on a random subset, and rows in a
    random order, as Pipeline.apply_staged passes them."""

    @given(dims=st.lists(st.integers(2, 3), min_size=2, max_size=4), data=st.data())
    @settings(max_examples=100)
    def test_index_methods_match_the_lifted_table(self, dims, data):
        k = len(dims)
        layout = RegisterLayout(tuple(Register(f"R{i}", d) for i, d in enumerate(dims)))
        on = data.draw(st.lists(st.sampled_from(range(k)), min_size=1, max_size=k, unique=True))
        kept = data.draw(st.sets(st.sampled_from(range(len(on)))))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # the table: a random permutation of the other registers' digits for
        # each value of the kept ones (a controlled permutation)
        sub_dims = [dims[p] for p in on]
        digits = list(np.unravel_index(np.arange(int(np.prod(sub_dims))), sub_dims))
        moved = [i for i in range(len(on)) if i not in kept]
        moved_dims = [sub_dims[i] for i in moved]
        kept_dims = [sub_dims[i] for i in sorted(kept)]
        tables = np.array([rng.permutation(int(np.prod(moved_dims)))
                           for _ in range(int(np.prod(kept_dims)))])
        image = tables[_ravel([digits[i] for i in sorted(kept)], kept_dims),
                       _ravel([digits[i] for i in moved], moved_dims)]
        if moved:
            for i, digit in zip(moved, np.unravel_index(image, moved_dims)):
                digits[i] = digit
        u = PermutationUnitary(_ravel(digits, sub_dims), [f"R{p}" for p in on], layout)

        def lift(x):
            inner = u.perm[np.ravel_multi_index([x[p] for p in on], sub_dims)]
            for p, digit in zip(on, np.unravel_index(inner, sub_dims)):
                x[p] = digit
            return x

        lifted = reference_perm(dims, lift)
        inverse = np.argsort(lifted)
        everything = np.unravel_index(np.arange(len(lifted)), dims)
        left_alone = {p for p, digit in enumerate(np.unravel_index(lifted, dims))
                      if np.array_equal(digit, everything[p])}
        assert left_alone >= {on[i] for i in kept}
        groups = data.draw(st.lists(st.lists(st.sampled_from(range(k)), max_size=k, unique=True),
                                    min_size=1, max_size=3))

        # preimage: every basis state y, at U^dag y; a gathered piece holds
        # at least one register
        x = np.unravel_index(inverse, dims)
        pieces = [pos for pos in groups if pos]
        for pos, got in zip(pieces, u.preimage_indices(layout, pieces)):
            assert got.ndim == k
            want = _ravel([x[p] for p in pos], [dims[p] for p in pos])
            assert np.array_equal(np.broadcast_to(got, dims).reshape(-1), want)
            if all(p not in on or p in left_alone for p in pos):
                assert all(got.shape[q] == 1 for q in range(k) if q not in pos), got.shape

        # image: the basis states y with the fixed digits, the rows in the
        # order given, the first most significant
        fixed = {p: data.draw(st.integers(0, dims[p] - 1))
                 for p in data.draw(st.sets(st.sampled_from(range(k)), max_size=k - 1))}
        rows = data.draw(st.permutations([p for p in range(k) if p not in fixed]))
        free = np.unravel_index(np.arange(int(np.prod([dims[p] for p in rows]))),
                                [dims[p] for p in rows])
        y = [None] * k
        for p, digit in fixed.items():
            y[p] = np.full(len(free[0]), digit)
        for p, digit in zip(rows, free):
            y[p] = digit
        z = np.unravel_index(lifted[np.ravel_multi_index(y, dims)], dims)
        for pos, got in zip(groups, u.image_indices(layout, fixed, rows, groups)):
            want = _ravel([z[p] for p in pos], [dims[p] for p in pos])
            assert got.dtype == np.int32 and np.array_equal(got, np.broadcast_to(want, got.shape))

    def test_support_path_without_e_registers(self):
        # no E register: every support row lands at E index 0, and M is 1 x 1
        layout = RegisterLayout.of(Register("S", 2, role="S"),
                                   Register("G", 2, role="G", source="ancilla"))
        ancilla = QuantumState(layout.sub(("G",)), vector=np.array([1.0, 0.0]))
        u = PermutationUnitary(np.array([0, 1, 3, 2]))
        inst = QuantumInstrument(layout, ancilla, u, MeasurementOperator.of(np.eye(1)))
        tau = apply_exact(inst, [QuantumState.pure(np.array([0.6, 0.8]))]).matrix
        assert np.abs(tau - np.diag([0.36, 0.64])).max() <= 1e-15
