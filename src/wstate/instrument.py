"""Quantum instruments with classical reweighting.

An instrument is a triple (ancilla state sigma, unitary U, measurement
operator M) over an ordered register layout whose registers carry roles:
S registers survive as the weighted output, E registers are measured by M,
G registers are traced out. Applying the instrument to an input produces the
weighted state

    tau = Tr_EG( U (sigma (x) rho_in) U^dag  (I_S (x) M_E (x) I_G) )

which in general is neither Hermitian, positive, nor normalized.

tau is linear in the input, so the joint state sigma (x) rho_in is held in
one form: ket and bra factor columns K B^dag (one column per pure piece). U
acts on the columns, and M is contracted as for a pure state, with the
columns traced alongside G; no D x D joint density is formed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidState,
    InvalidDistribution,
    MissingDecomposition,
    NotNormal,
    NotUnitary,
    ValidationError,
)
from .tensor import (
    NORMALITY_TOL,
    LowRankOperator,
    PermutationUnitary,
    Register,
    RegisterLayout,
    asarray,
    classify,
    dense,
    embed_operator,
    embed_permutation,
    hermiticity_residual,
    norm_scale,
    normality_residual,
    spectral_groups,
    unitarity_residual,
)

STATE_TOL = 1e-10
ZERO_BRANCH_TOL = 1e-12
PROBABILITY_TOL = 1e-9


# ---------------------------------------------------------------------------
# states


@dataclass(frozen=True)
class QuantumState:
    """A physical state: pure vector fast path or a density matrix."""

    layout: RegisterLayout
    vector: np.ndarray | None = None
    density: np.ndarray | None = None

    def __post_init__(self):
        if (self.vector is None) == (self.density is None):
            raise ValidationError("state needs exactly one of vector or density")
        d = self.layout.total_dim
        if self.vector is not None:
            v = asarray(self.vector)
            if v.shape != (d,):
                raise DimensionMismatch(f"vector shape {v.shape} vs layout dim {d}")
            nrm = float(np.linalg.norm(v))
            if abs(nrm - 1.0) > STATE_TOL:
                raise InvalidState(f"pure state norm {nrm} is not 1 within {STATE_TOL}")
            object.__setattr__(self, "vector", v)
        else:
            m = asarray(self.density, square=True)
            if m.shape != (d, d):
                raise DimensionMismatch(f"density shape {m.shape} vs layout dim {d}")
            if hermiticity_residual(m) > STATE_TOL:
                raise InvalidState("density matrix is not Hermitian within tolerance")
            tr = float(np.trace(m).real)
            if abs(tr - 1.0) > STATE_TOL:
                raise InvalidState(f"density trace {tr} is not 1 within {STATE_TOL}")
            if float(np.linalg.eigvalsh((m + m.conj().T) / 2).min()) < -STATE_TOL:
                raise InvalidState("density matrix has a negative eigenvalue")
            object.__setattr__(self, "density", m)

    @staticmethod
    def pure(vec, layout: RegisterLayout | None = None, label: str = "R") -> "QuantumState":
        v = asarray(vec)
        if layout is None:
            layout = RegisterLayout.of(Register(label, v.shape[0]))
        return QuantumState(layout, vector=v)

    @staticmethod
    def from_density(mat, layout: RegisterLayout | None = None, label: str = "R") -> "QuantumState":
        m = asarray(mat, square=True)
        if layout is None:
            layout = RegisterLayout.of(Register(label, m.shape[0]))
        return QuantumState(layout, density=m)

    @property
    def is_pure(self) -> bool:
        return self.vector is not None

    @property
    def dim(self) -> int:
        return self.layout.total_dim

    @property
    def matrix(self) -> np.ndarray:
        if self.vector is not None:
            return np.outer(self.vector, self.vector.conj())
        return self.density


@dataclass(frozen=True)
class WeightedState:
    """Reweighted instrument output; any finite complex square matrix."""

    matrix: np.ndarray
    layout: RegisterLayout

    def __post_init__(self):
        m = asarray(self.matrix, square=True)
        if m.shape[0] != self.layout.total_dim:
            raise DimensionMismatch(
                f"matrix dim {m.shape[0]} vs layout total {self.layout.total_dim}"
            )
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> complex:
        return complex(np.trace(self.matrix))


def _mat(x) -> np.ndarray:
    """An operand as a square array: the matrix of a QuantumState or
    WeightedState, the projector |v><v| of a vector, or a square array."""
    if isinstance(x, (QuantumState, WeightedState)):
        return x.matrix
    a = asarray(x)
    if a.ndim == 1:
        return np.outer(a, a.conj())
    return asarray(a, square=True)


def expectation(tau, obs) -> complex:
    """Tr(tau O) for any operand that _mat accepts."""
    m = _mat(tau)
    o = asarray(obs, square=True)
    if o.shape != m.shape:
        raise DimensionMismatch(f"observable shape {o.shape} vs state shape {m.shape}")
    return complex(np.einsum("ij,ji->", m, o))


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random density matrix (normalized Wishart)."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return m / np.trace(m).real


# ---------------------------------------------------------------------------
# measurement operators


@dataclass(frozen=True)
class MeasurementOperator:
    """Measurement operator M with its normality class.

    operator holds M in one of three forms: a dense matrix, a
    PermutationUnitary (the SWAP of the transpose coupling) or a
    LowRankOperator (the Bell-type map of the teleport instrument). apply_exact
    contracts a structured form without a d_E x d_E matrix; `matrix` builds
    the dense form through tensor.dense on every read and keeps nothing.

    kind is one of hermitian / normal / nonnormal. Each construction decides
    the class once with tensor.classify, exactly and at every size: a
    structured form from its structure, a dense matrix with NORMALITY_TOL
    relative to norm_scale(M) (hermiticity) or its square (normality), so
    that c*M keeps the class of M for every c != 0. An omitted kind is
    filled in from the class; a given kind must equal it, or be 'normal'
    for a Hermitian M.

    A non-normal operator has a decomposition M = sum_k c_k N_k into normal
    parts, used for single-instrument emulation and sampling, and
    normal_parts() gives each N_k in the form M is held in. A dense M takes
    its parts at construction: given, or, when built without kind or
    decomposition (as `of` builds it), the Hermitian/skew split
    M = (1/2)(M+M^dag) + (1/2)(M-M^dag). A structured M takes none; a
    non-normal low-rank one splits its core on each call to normal_parts().
    Nothing is written to the instance after construction.
    """

    operator: np.ndarray | PermutationUnitary | LowRankOperator
    kind: str | None = None
    parts: tuple[tuple[complex, np.ndarray], ...] | None = None

    def __post_init__(self):
        op = self.operator
        structured = isinstance(op, (PermutationUnitary, LowRankOperator))
        if not structured:
            op = asarray(op, square=True)
            object.__setattr__(self, "operator", op)
        actual = classify(op)
        given = self.kind
        if given is not None and given not in (
            (actual, "normal") if actual == "hermitian" else (actual,)
        ):
            raise ValidationError(f"kind {given!r} but the operator is {actual}")
        object.__setattr__(self, "kind", given or actual)
        if self.parts is None:
            if not structured and given is None and actual == "nonnormal":
                object.__setattr__(self, "parts", _split(op))
            return
        if structured:
            raise ValidationError("a structured measurement takes no decomposition")
        parts = tuple((complex(c), asarray(n, square=True)) for c, n in self.parts)
        if not parts:
            raise ValidationError("empty decomposition")
        acc = np.zeros_like(op)
        for c, n in parts:
            if n.shape != op.shape:
                raise DimensionMismatch("decomposition part has wrong shape")
            if classify(n) == "nonnormal":
                raise NotNormal(normality_residual(n), NORMALITY_TOL * norm_scale(n) ** 2)
            acc = acc + c * n
        if float(np.max(np.abs(acc - op))) > NORMALITY_TOL * norm_scale(op):
            raise ValidationError("decomposition does not reconstruct the matrix")
        object.__setattr__(self, "parts", parts)

    @staticmethod
    def of(matrix, decomposition=None) -> "MeasurementOperator":
        """Wrap M, held in any of the three forms, with the class that the
        construction decides."""
        return MeasurementOperator(matrix, None, decomposition)

    @property
    def dim(self) -> int:
        return self.operator.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """Dense d_E x d_E form of M."""
        return dense(self.operator)

    def normal_parts(self) -> tuple[tuple[complex, object], ...]:
        """(coefficient, normal operator) terms summing to M, each held in
        M's form: a normal M is one term as it is held, a non-normal dense M
        gives its parts, and a non-normal low-rank M gives the split of its
        core."""
        op = self.operator
        if self.kind != "nonnormal":
            return ((1.0 + 0.0j, op),)
        if isinstance(op, LowRankOperator):
            return _split(op)
        if self.parts is None:
            raise MissingDecomposition(
                "non-normal measurement requires a decomposition into normal parts"
            )
        return self.parts


def _split(op) -> tuple[tuple[complex, object], ...]:
    """M = (1/2)(M + M^dag) + (1/2)(M - M^dag): a Hermitian and a
    skew-Hermitian part, both normal by construction. A low-rank Q C Q^dag
    splits its core, so the parts Q (C +- C^dag) Q^dag stay low-rank and
    share Q."""
    if isinstance(op, LowRankOperator):
        q, c = op.core()
        return tuple((h, LowRankOperator(q, q @ x.conj().T)) for h, x in _split(c))
    adj = op.conj().T
    return ((0.5 + 0j, op + adj), (0.5 + 0j, op - adj))


# ---------------------------------------------------------------------------
# instruments


@dataclass(frozen=True)
class QuantumInstrument:
    """(ancilla, U, M) over a role-annotated register layout.

    The ancilla state occupies the source='ancilla' registers (a dim-1 layout
    is represented by ancilla=None); callers supply the source='input'
    registers at application time. M acts on the E registers in layout order.
    """

    layout: RegisterLayout
    ancilla: QuantumState | None
    unitary: np.ndarray | PermutationUnitary
    measurement: MeasurementOperator

    def __post_init__(self):
        for r in self.layout.registers:
            if r.role is None:
                raise ValidationError(f"register {r.label!r} has no role")
        anc = self.ancilla_labels
        if self.ancilla is None:
            if anc:
                raise ValidationError(f"ancilla registers {anc} but no ancilla state")
        else:
            sub = self.layout.sub(anc)
            if self.ancilla.layout.dims != sub.dims:
                raise DimensionMismatch(
                    f"ancilla dims {self.ancilla.layout.dims} vs registers {sub.dims}"
                )
        d = self.layout.total_dim
        if isinstance(self.unitary, PermutationUnitary):
            if self.unitary.dim != d:
                raise DimensionMismatch(f"unitary dim {self.unitary.dim} vs layout {d}")
        else:
            u = asarray(self.unitary, square=True)
            if u.shape != (d, d):
                raise DimensionMismatch(f"unitary shape {u.shape} vs layout dim {d}")
            res = unitarity_residual(u)
            if res > NORMALITY_TOL:
                raise NotUnitary(f"U^dag U deviates from identity by {res:.3e}")
            object.__setattr__(self, "unitary", u)
        de = self.layout.dim_of(self.e_labels)
        if self.measurement.dim != de:
            raise DimensionMismatch(
                f"measurement dim {self.measurement.dim} vs E-register dim {de}"
            )

    @property
    def ancilla_labels(self) -> tuple[str, ...]:
        return tuple(r.label for r in self.layout.registers if r.source == "ancilla")

    @property
    def input_labels(self) -> tuple[str, ...]:
        return tuple(r.label for r in self.layout.registers if r.source == "input")

    @property
    def input_layout(self) -> RegisterLayout:
        return self.layout.sub(self.input_labels)

    @property
    def s_labels(self) -> tuple[str, ...]:
        return self.layout.with_role("S")

    @property
    def e_labels(self) -> tuple[str, ...]:
        return self.layout.with_role("E")

    @property
    def g_labels(self) -> tuple[str, ...]:
        return self.layout.with_role("G")

    @property
    def output_layout(self) -> RegisterLayout:
        return self.layout.sub(self.s_labels)

    @property
    def input_dim(self) -> int:
        return self.layout.dim_of(self.input_labels)


def identity_instrument(dim: int, label: str = "S") -> QuantumInstrument:
    """Pass-through: one S register, trivial measurement, no ancilla."""
    layout = RegisterLayout.of(Register(label, dim, role="S"))
    return QuantumInstrument(
        layout,
        ancilla=None,
        unitary=PermutationUnitary.identity(dim),
        measurement=MeasurementOperator.of(np.ones((1, 1))),
    )


# ---------------------------------------------------------------------------
# joint-state assembly and evolution


def _factor(x):
    """Factor columns (K, B) of one input piece, x = K B^dag, none dropped.

    A vector is one column and its own bra. A density V diag(w) V^dag gives
    K = V sqrt|w| sign(w), B = V sqrt|w|: the bra is the ket unless some
    w < 0. Any other matrix, possibly indefinite or non-Hermitian, gives
    K = U sqrt(s), B = V sqrt(s) from its SVD U diag(s) V^dag.
    """
    if isinstance(x, QuantumState):
        if x.is_pure:
            v = x.vector[:, None]
            return v, v
        w, v = np.linalg.eigh(x.density)
        bra = v * np.sqrt(np.abs(w))
        return (bra * np.sign(w) if (w < 0).any() else bra), bra
    a = asarray(x.matrix if isinstance(x, WeightedState) else x)
    if a.ndim == 1:
        v = a[:, None]
        return v, v
    u, s, vh = np.linalg.svd(asarray(a, square=True))
    r = np.sqrt(s)
    return u * r, vh.conj().T * r


def _kron_factors(factors):
    """Factor columns of the tensor product of factored pieces; the bra
    stays the ket while every piece's does."""

    def kron(x, y):
        return (x[:, None, :, None] * y[None, :, None, :]).reshape(len(x) * len(y), -1)

    ket, bra = factors[0]
    for k, b in factors[1:]:
        same = ket is bra and k is b
        ket = kron(ket, k)
        bra = ket if same else kron(bra, b)
    return ket, bra


def _pieces(inputs) -> list:
    """The caller's input as a list of pieces: one piece, or a sequence."""
    if isinstance(inputs, (QuantumState, WeightedState, np.ndarray)):
        return [inputs]
    return list(inputs)


def _input_factors(inputs):
    """Factor columns of the caller's input, its pieces tensored in
    input-register order."""
    return _kron_factors([_factor(x) for x in _pieces(inputs)])


def assemble_product(pieces, layout: RegisterLayout):
    """Arrange factored pieces onto register positions.

    pieces: list of ((ket, bra), positions) where positions index
    layout.registers; positions must partition the layout. Returns the
    (ket, bra) columns of the product with rows in layout register order.
    """
    dims = layout.dims
    k = len(dims)
    order: list[int] = []
    for _, pos in pieces:
        order.extend(pos)
    if sorted(order) != list(range(k)):
        raise ValidationError("piece positions do not partition the layout")
    ket, bra = _kron_factors([f for f, _ in pieces])
    if order == list(range(k)):
        return ket, bra
    axis_dims = [dims[p] for p in order]
    perm = [order.index(r) for r in range(k)] + [k]

    def reorder(x):
        return x.reshape(axis_dims + [x.shape[1]]).transpose(perm).reshape(x.shape)

    out = reorder(ket)
    return out, (out if bra is ket else reorder(bra))


def _joint_initial(inst: QuantumInstrument, factors):
    """Full-layout factor columns from the ancilla and the factored input."""
    d_in = inst.input_dim
    got = factors[0].shape[0]
    if got != d_in:
        raise DimensionMismatch(f"input dim {got} vs instrument input dim {d_in}")
    inp_pos = [inst.layout.index(l) for l in inst.input_labels]
    parts = [(factors, inp_pos)]
    if inst.ancilla is not None:
        anc_pos = [inst.layout.index(l) for l in inst.ancilla_labels]
        parts.insert(0, (_factor(inst.ancilla), anc_pos))
    return assemble_product(parts, inst.layout)


@dataclass(frozen=True)
class Evolved:
    """Joint state after U as factor columns, rho_out = K B^dag.

    ket and bra are U K and U B with axes (S, G r, E): the r columns ride
    along with G and are traced with it, and E comes last, so M contracts
    it without a transpose. bra is ket when the input's bra was its ket.
    dims is (d_S, d_E, d_G).
    """

    ket: np.ndarray
    bra: np.ndarray
    dims: tuple[int, int, int]


def evolve(inst: QuantumInstrument, inputs) -> Evolved:
    """U on the D x r columns of ancilla (x) input: one row gather or one
    GEMM, and a second one for the bra only when it is not the ket."""
    return _evolve_factors(inst, _input_factors(inputs))


def _evolve_factors(inst: QuantumInstrument, factors) -> Evolved:
    ket, bra = _joint_initial(inst, factors)
    lay = inst.layout
    s, e, g = (inst.s_labels, inst.e_labels, inst.g_labels)
    k = len(lay.registers)
    group = [lay.index(l) for l in s + g] + [k] + [lay.index(l) for l in e]
    d_s, d_e, d_g = lay.dim_of(s), lay.dim_of(e), lay.dim_of(g)
    u = inst.unitary

    def step(x):
        y = u.apply_vector(x) if isinstance(u, PermutationUnitary) else u @ x
        return y.reshape(lay.dims + (x.shape[1],)).transpose(group).reshape(d_s, -1, d_e)

    out = step(ket)
    return Evolved(out, out if bra is ket else step(bra), (d_s, d_e, d_g))


def weighted_output(
    ev: Evolved, m: np.ndarray | PermutationUnitary | LowRankOperator
) -> np.ndarray:
    """tau_st = sum_{x,e,e'} K[s,x,e] conj(B[t,x,e']) M[e',e], x = (g, column).

    Each form of M gives a from the ket and b from the bra, tau = a b^dag.
    A structured m is contracted without a dense matrix: a permutation
    (M[e',e] = 1 iff e' = perm[e]) gathers the bra along E, and a low-rank
    u v^dag contracts E with its thin factors.
    """
    d_s, d_e, _ = ev.dims
    ket, bra = ev.ket.reshape(-1, d_e), ev.bra.reshape(-1, d_e)
    if isinstance(m, PermutationUnitary):
        # tau_st = sum_{x,e} K[s,x,e] conj(B[t,x,perm[e]])
        a, b = ket, bra[:, m.perm]
    elif isinstance(m, LowRankOperator):
        # tau_st = sum_{x,k} (K conj(v))[s,x,k] conj((B conj(u))[t,x,k])
        a = ket @ m.v.conj()
        b = a if m.u is m.v and ev.bra is ev.ket else bra @ m.u.conj()
    else:
        # C[t,x,e] = sum_e' B[t,x,e'] conj(M)[e',e]; tau = <K, C> over (x, e)
        a, b = ket, bra @ m.conj()
    return a.reshape(d_s, -1) @ b.reshape(d_s, -1).conj().T


def projected_outputs(ev: Evolved, groups) -> list[np.ndarray]:
    """weighted_output of each (eigenvalue, projector) group of
    tensor.spectral_groups; a form shared by several projectors, such as the
    identity and the SWAP in (I +- P)/2, is contracted once."""
    done: dict[int, np.ndarray] = {}
    out = []
    for _, projector in groups:
        acc = 0
        for c, form in projector:
            if id(form) not in done:
                done[id(form)] = weighted_output(ev, form)
            acc = acc + c * done[id(form)]
        out.append(acc)
    return out


def apply_exact(inst: QuantumInstrument, inputs) -> WeightedState:
    """Exact weighted state of the instrument on the given input.

    inputs may be a QuantumState, a WeightedState or bare matrix (evaluation
    is linear, so non-physical inputs are allowed), a bare vector (pure), or a
    sequence of such pieces which is tensored in input-register order.
    The weighted output is linear in M, so M is contracted directly in the
    form it is held in, whatever its normality class.
    """
    ev = evolve(inst, inputs)
    return WeightedState(weighted_output(ev, inst.measurement.operator), inst.output_layout)


# ---------------------------------------------------------------------------
# branches


@dataclass(frozen=True)
class InstrumentBranch:
    """One merged measurement outcome: eigenvalue, probability, and the
    conditional post-measurement state on S."""

    eigenvalue: complex
    probability: float
    conditional_state: QuantumState | None


def branches(inst: QuantumInstrument, inputs) -> list[InstrumentBranch]:
    """Outcome decomposition for a normal measurement: one branch per merged
    eigenvalue, in the order of tensor.spectral_groups; sum_j lambda_j p_j
    (conditional) reproduces apply_exact. A non-normal low-rank M reports
    the normality residual of its core."""
    meas = inst.measurement
    if meas.kind == "nonnormal":
        op = meas.operator
        m = op.core()[1] if isinstance(op, LowRankOperator) else op
        raise NotNormal(normality_residual(m), NORMALITY_TOL * norm_scale(m) ** 2)
    groups = spectral_groups(meas.operator)
    ev = evolve(inst, inputs)
    out = []
    total_p = 0.0
    out_layout = inst.output_layout
    for (val, _), ej in zip(groups, projected_outputs(ev, groups)):
        p = float(np.trace(ej).real)
        total_p += p
        if p < ZERO_BRANCH_TOL:
            out.append(InstrumentBranch(complex(val), 0.0, None))
        else:
            cond = ej / p
            cond = (cond + cond.conj().T) / 2
            out.append(
                InstrumentBranch(
                    complex(val), p, QuantumState(out_layout, density=cond)
                )
            )
    if abs(total_p - 1.0) > PROBABILITY_TOL:
        raise InvalidDistribution(f"branch probabilities sum to {total_p}")
    return out


# ---------------------------------------------------------------------------
# non-normal emulation


def _fresh_label(base: str, taken) -> str:
    label = base
    while label in taken:
        label = label + "'"
    return label


def emulate_nonnormal(inst: QuantumInstrument) -> QuantumInstrument:
    """Single physical instrument equivalent to one with a non-normal M.

    Adds a measured qudit ancilla in the mixed state diag(q_k) with
    q_k = |c_k|/sum|c_k| and the block measurement sum_k |k><k| (x) N_k
    (rescaled so each block absorbs c_k/q_k); the result has a normal
    measurement and the same weighted output on every input.
    """
    parts = [(c, n) for c, n in inst.measurement.normal_parts() if c != 0]
    if not parts:
        raise MissingDecomposition("decomposition has no nonzero terms")
    total = sum(abs(c) for c, _ in parts)
    q = np.array([abs(c) / total for c, _ in parts])
    nk = len(parts)

    taken = set(inst.layout.labels)
    k_label = _fresh_label("K", taken)
    k_reg = Register(k_label, nk, role="E", source="ancilla")
    new_layout = RegisterLayout(inst.layout.registers + (k_reg,))

    # measurement on the E sub-layout: old E registers (major) then K (minor),
    # block k on the diagonal of K
    d_e_old = inst.layout.dim_of(inst.e_labels)
    blocks = np.zeros((d_e_old, nk, d_e_old, nk), dtype=np.complex128)
    for k, ((c, n), qk) in enumerate(zip(parts, q)):
        blocks[:, k, :, k] = (c / qk) * dense(n)
    m_new = blocks.reshape(d_e_old * nk, d_e_old * nk)

    anc_layout = new_layout.sub(r.label for r in new_layout.registers if r.source == "ancilla")
    rho = inst.ancilla.matrix if inst.ancilla else np.ones((1, 1))
    anc_state = QuantumState(anc_layout, density=np.kron(rho, np.diag(q)))

    u = inst.unitary
    if isinstance(u, PermutationUnitary):
        u_new = embed_permutation(u, list(inst.layout.labels), new_layout)
    else:
        u_new = np.kron(u, np.eye(nk))

    return QuantumInstrument(
        new_layout,
        ancilla=anc_state,
        unitary=u_new,
        measurement=MeasurementOperator.of(m_new),
    )


# ---------------------------------------------------------------------------
# concatenation


@dataclass(frozen=True)
class Pipeline:
    """Two instruments wired in sequence plus the flattened equivalent.

    wiring maps each S register of the first stage onto an input register of
    the second. Staged evaluation applies the second stage by linearity to
    the factor columns of tau_1 (x) fresh inputs, with tau_1 factored by its
    SVD and no D_in x D_in matrix formed; the flattened form is a single
    instrument with the combined unitary and the product measurement, used
    for sampling and variance analysis.
    """

    first: QuantumInstrument
    second: QuantumInstrument
    wiring: dict
    flattened: QuantumInstrument

    def apply_staged(self, first_inputs, fresh_inputs=()) -> WeightedState:
        tau1 = apply_exact(self.first, first_inputs)
        sub = self.second.input_layout
        wired_labels = [self.wiring[l] for l in self.first.s_labels]
        wired_pos = [sub.index(l) for l in wired_labels]
        other_pos = [i for i in range(len(sub.registers)) if i not in set(wired_pos)]
        pieces = [(_factor(tau1), wired_pos)]
        if other_pos:
            pieces.append((_input_factors(fresh_inputs), other_pos))
        ev = _evolve_factors(self.second, assemble_product(pieces, sub))
        return WeightedState(
            weighted_output(ev, self.second.measurement.operator), self.second.output_layout
        )

    def apply_flattened(self, first_inputs, fresh_inputs=()) -> WeightedState:
        return apply_exact(self.flattened, _pieces(first_inputs) + _pieces(fresh_inputs))


def concatenate(
    first: QuantumInstrument, second: QuantumInstrument, wiring: dict | None = None
) -> Pipeline:
    """Wire the first stage's S registers into input registers of the second.

    Unwired second-stage inputs become fresh inputs of the pipeline, appended
    after the first stage's own inputs. The flattened instrument applies
    U = U2 U1 and measures M1 (x) M2 on the union of E registers.
    """
    s1 = list(first.s_labels)
    in2 = list(second.input_labels)
    if wiring is None:
        if len(s1) > len(in2):
            raise DimensionMismatch(
                f"first stage outputs {len(s1)} registers, second accepts {len(in2)}"
            )
        wiring = dict(zip(s1, in2))
    if sorted(wiring.keys()) != sorted(s1):
        raise ValidationError(f"wiring must cover exactly the S registers {s1}")
    if len(set(wiring.values())) != len(wiring):
        raise ValidationError("wiring maps two registers onto the same target")
    lay2 = second.layout
    for a, b in wiring.items():
        if b not in in2:
            raise ValidationError(f"wiring target {b!r} is not an input register")
        da = first.layout.registers[first.layout.index(a)].dim
        db = lay2.registers[lay2.index(b)].dim
        if da != db:
            raise DimensionMismatch(f"wire {a!r}->{b!r} joins dims {da} and {db}")

    inverse = {b: a for a, b in wiring.items()}
    taken = set(first.layout.labels)
    rename: dict[str, str] = {}
    combined: list[Register] = []
    for r in first.layout.registers:
        if r.label in wiring:
            tgt = lay2.registers[lay2.index(wiring[r.label])]
            combined.append(replace(r, role=tgt.role))
        else:
            combined.append(r)
    for r in lay2.registers:
        if r.label in inverse:
            rename[r.label] = inverse[r.label]
            continue
        new_label = _fresh_label(r.label, taken)
        taken.add(new_label)
        rename[r.label] = new_label
        combined.append(replace(r, label=new_label))
    new_layout = RegisterLayout(tuple(combined))

    # second-stage unitary acts on its registers wherever they now live
    u2_labels = [rename[r.label] for r in lay2.registers]
    u1, u2 = first.unitary, second.unitary
    if isinstance(u1, PermutationUnitary) and isinstance(u2, PermutationUnitary):
        u_total = embed_permutation(u2, u2_labels, new_layout) @ embed_permutation(
            u1, list(first.layout.labels), new_layout
        )
    else:
        u_total = embed_operator(dense(u2), u2_labels, new_layout) @ embed_operator(
            dense(u1), list(first.layout.labels), new_layout
        )

    # the stages measure disjoint registers, so M1 (x) M2, and each product
    # of their normal parts (a tensor product of normal operators, hence
    # normal), is one Kronecker product placed on the union of E registers
    e_sub = new_layout.sub(r.label for r in combined if r.role == "E")
    e12 = list(first.e_labels) + [rename[l] for l in second.e_labels]

    def product(a, b):
        return embed_operator(np.kron(dense(a), dense(b)), e12, e_sub)

    meas1, meas2 = first.measurement, second.measurement
    m_total = product(meas1.operator, meas2.operator)
    decomposition = None
    if "nonnormal" in (meas1.kind, meas2.kind):
        parts2 = meas2.normal_parts()
        decomposition = tuple(
            (c1 * c2, product(n1, n2)) for c1, n1 in meas1.normal_parts() for c2, n2 in parts2
        )

    # the ancilla registers of both stages, in layout order: first, then second
    ancillas = [a for a in (first.ancilla, second.ancilla) if a is not None]
    anc = None
    if ancillas:
        anc_layout = new_layout.sub(r.label for r in combined if r.source == "ancilla")
        if all(a.is_pure for a in ancillas):
            anc = QuantumState(anc_layout, vector=reduce(np.kron, [a.vector for a in ancillas]))
        else:
            anc = QuantumState(anc_layout, density=reduce(np.kron, [a.matrix for a in ancillas]))

    flattened = QuantumInstrument(
        new_layout,
        ancilla=anc,
        unitary=u_total,
        measurement=MeasurementOperator.of(m_total, decomposition),
    )
    return Pipeline(
        first=first,
        second=second,
        wiring=dict(wiring),
        flattened=flattened,
    )
