"""Quantum instruments with classical reweighting.

An instrument is a triple (ancilla state sigma, unitary U, measurement
operator M) over an ordered register layout whose registers carry roles:
S registers survive as the weighted output, E registers are measured by M,
G registers are traced out. Applying the instrument to an input produces the
weighted state

    tau = Tr_EG( U (sigma (x) rho_in) U^dag  (I_S (x) M_E (x) I_G) )

which in general is neither Hermitian, positive, nor normalized.

tau is linear in the input, so the joint state sigma (x) rho_in is held in
factor columns K B^dag (one column per pure piece), and no D x D joint
density is formed. Each evolution takes one of four routes (_route): QSP's
controlled-SWAP blocks, the copy of a CNOT ladder onto a basis ancilla, the
Support of a permutation on one, and the gather. An evolution contracts
itself with M in any form (tensor.form) through that form's primitives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, reduce

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidState,
    InvalidDistribution,
    ValidationError,
)
from .tensor import (
    NORMALITY_TOL,
    Register,
    RegisterLayout,
    compose,
    embed_operator,
    form,
    hermiticity_residual,
    merge_values,
    norm_scale,
    not_normal,
    operand,
)

STATE_TOL = 1e-10
ZERO_BRANCH_TOL = 1e-12
PROBABILITY_TOL = 1e-9
# derivations a Support's cache keeps before it starts afresh
KEPT_DERIVATIONS = 8


# ---------------------------------------------------------------------------
# states


@dataclass(frozen=True)
class QuantumState:
    """A physical state: pure vector fast path or a density matrix.

    factors holds the factor columns (K, B) an evolution takes, K B^dag the
    state: a vector is one column and its own bra; a density V diag(w) V^dag
    gives K = V sqrt|w| sign(w) and B = V sqrt|w|, the bra being the ket
    unless some w < 0. The one eigh behind them also checks positivity at
    construction, so a density is diagonalized once however many evaluations
    it enters. The density is copied at construction, so an edit of the
    caller's array after it is not seen by the state.
    """

    layout: RegisterLayout
    vector: np.ndarray | None = None
    density: np.ndarray | None = None

    def __post_init__(self):
        if (self.vector is None) == (self.density is None):
            raise ValidationError("state needs exactly one of vector or density")
        d = self.layout.total_dim
        if self.vector is not None:
            v = operand(self.vector, d, "state vector", ndim=1)
            nrm = float(np.linalg.norm(v))
            if abs(nrm - 1.0) > STATE_TOL:
                raise InvalidState(f"pure state norm {nrm} is not 1 within {STATE_TOL}")
            object.__setattr__(self, "vector", v)
            column = v[:, None]
            factors = column, column
        else:
            m = operand(np.array(self.density, dtype=np.complex128), d, "density")
            if hermiticity_residual(m) > STATE_TOL:
                raise InvalidState("density matrix is not Hermitian within tolerance")
            tr = float(np.trace(m).real)
            if abs(tr - 1.0) > STATE_TOL:
                raise InvalidState(f"density trace {tr} is not 1 within {STATE_TOL}")
            w, vecs = np.linalg.eigh(m)
            if float(w.min()) < -STATE_TOL:
                raise InvalidState("density matrix has a negative eigenvalue")
            object.__setattr__(self, "density", m)
            bra = vecs * np.sqrt(np.abs(w))
            factors = (bra * np.sign(w) if (w < 0).any() else bra), bra
        object.__setattr__(self, "factors", factors)

    @staticmethod
    def pure(vec, layout: RegisterLayout | None = None) -> "QuantumState":
        v = operand(vec, what="state vector", ndim=1)
        if layout is None:
            layout = RegisterLayout.of(Register("R", v.shape[0]))
        return QuantumState(layout, vector=v)

    @staticmethod
    def from_density(mat, layout: RegisterLayout | None = None) -> "QuantumState":
        m = operand(mat, what="density")
        if layout is None:
            layout = RegisterLayout.of(Register("R", m.shape[0]))
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
        m = operand(self.matrix, self.layout.total_dim, "weighted state")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> complex:
        return complex(np.trace(self.matrix))


def _mat(x, dim: int | None = None, what: str = "state") -> np.ndarray:
    """An operand as a square array, of size dim when given (tensor.operand):
    the matrix of a QuantumState or WeightedState, checked when it was built,
    the projector |v><v| of a vector, or a square array."""
    if isinstance(x, (QuantumState, WeightedState)):
        return x.matrix if dim in (None, x.dim) else operand(x.matrix, dim, what)
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim == 1:
        v = operand(a, dim, what, ndim=1)
        return np.outer(v, v.conj())
    return operand(a, dim, what)


def expectation(tau, obs) -> complex:
    """Tr(tau O) for any operand that _mat accepts."""
    m = _mat(tau)
    o = operand(obs, len(m), "observable")
    return complex(np.einsum("ij,ji->", m, o))


# ---------------------------------------------------------------------------
# measurement operators


@dataclass(frozen=True, init=False)
class MeasurementOperator:
    """Measurement operator M with its normality class.

    operator holds M in a form (tensor.form): a dense matrix, kept as a plain
    ndarray, a PermutationUnitary (the SWAP of the transpose coupling), kept
    as one table over the E space, or a LowRankOperator (the teleport
    instrument's Bell-type map). `matrix` builds the dense form on each read.

    kind is one of hermitian / normal / nonnormal, decided by the form,
    exactly and at every size; a dense class is relative to norm_scale(M),
    so c*M keeps the class of M for every c != 0. A given kind is checked at
    construction: it must equal the class, or be 'normal' for a Hermitian M.
    An omitted kind is decided on first read and kept: the exact weighted
    output is linear in M and reads neither kind nor parts, so building and
    applying an instrument classifies nothing. Both are deterministic, so
    two threads racing on a first read only decide the same value twice.

    A non-normal M = sum_k c_k N_k has normal parts: given ones are checked
    at construction; otherwise the first read of parts takes the form's
    split into (1/2)(M + M^dag) and (1/2)(M - M^dag), and parts is None for
    a normal M. `rows`, the one table derived from the parts (the
    estimator's probabilities, scaled values, merged outcome labels and
    spectral groups), is kept from its first read; this assumes M's arrays
    stay unchanged.
    """

    operator: np.ndarray | object

    def __init__(self, operator, kind: str | None = None,
                 parts: tuple[tuple[complex, object], ...] | None = None):
        # a dataclass __init__ with kind and parts as init-only values: the
        # instance keeps them only where given, else they are derived
        object.__setattr__(self, "operator", form(operator).as_measurement())
        self.__post_init__(kind, parts)

    def __post_init__(self, kind, parts):
        """The checks of a given kind and given parts; the derived ones are
        left to their first read."""
        m = form(self.operator)
        if kind is not None:
            actual = m.kind
            if kind not in ((actual, "normal") if actual == "hermitian" else (actual,)):
                raise ValidationError(f"kind {kind!r} but the operator is {actual}")
            object.__setattr__(self, "kind", kind)
        if parts is None:
            return
        parts = tuple((complex(c), form(n).as_measurement()) for c, n in parts)
        if not parts:
            raise ValidationError("empty decomposition")
        full = m.dense()
        for _, n in parts:
            if n.shape != full.shape:
                raise DimensionMismatch("decomposition part has wrong shape")
            if form(n).kind == "nonnormal":
                raise not_normal(form(n).dense())
        acc = sum(c * form(n).dense() for c, n in parts)
        if float(np.max(np.abs(acc - full))) > NORMALITY_TOL * norm_scale(full):
            raise ValidationError("decomposition does not reconstruct the matrix")
        object.__setattr__(self, "parts", parts)

    @cached_property
    def kind(self) -> str:
        return form(self.operator).kind

    @cached_property
    def parts(self) -> tuple[tuple[complex, object], ...] | None:
        return form(self.operator).split() if self.kind == "nonnormal" else None

    @staticmethod
    def of(matrix, decomposition=None) -> "MeasurementOperator":
        """Wrap M, held in any of the three forms; its class is decided on
        first read."""
        return MeasurementOperator(matrix, None, decomposition)

    @property
    def dim(self) -> int:
        return self.operator.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """Dense d_E x d_E form of M."""
        return form(self.operator).dense()

    def normal_parts(self) -> tuple[tuple[complex, object], ...]:
        """(coefficient, normal operator) terms summing to M: a normal M is
        one term as it is held, a non-normal M gives its parts."""
        return self.parts if self.kind == "nonnormal" else ((1.0 + 0.0j, self.operator),)

    @cached_property
    def rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list]:
        """(q, value, labels, merged, groups), one row r per spectral group
        g of each normal part c_k N_k with c_k != 0: q[r] = q_k = |c_k| /
        sum|c|, value[r] = (c_k / q_k) lambda_g, and groups[r] the
        (eigenvalue lambda_g, projector) group of N_k's form. The estimator
        draws part k with probability q_k and scales its eigenvalue by
        c_k / q_k; a normal M is one part, q = 1. labels and merged are
        merge_values of value at its largest |value|: the merged outcomes,
        in which groups of different parts share a cell when their scaled
        values agree. A normal N_k has ||N_k||_2 = max_g |lambda_g|, so the
        largest |value| is max_k |c_k / q_k| ||N_k||_2."""
        parts = self.normal_parts()
        total = float(np.array([abs(c) for c, _ in parts]).sum())
        q, value, groups = [], [], []
        for c, n in parts:
            if c != 0:
                qk = abs(c) / total
                gs = form(n).groups()
                q.append(np.full(len(gs), qk))
                value.append(c / qk * np.array([v for v, _ in gs]))
                groups += gs
        value = np.concatenate(value)
        labels, merged = merge_values(value, float(np.abs(value).max()))
        return np.concatenate(q), value, labels, merged, groups


# ---------------------------------------------------------------------------
# instruments


@dataclass(frozen=True)
class Frame:
    """What instruments on one layout, ancilla and U share once checked
    (Frame.of): U as checked, the E dim, the output layout, and per tuple of
    piece positions the route of their evolution (_route) with what it
    derives, kept from first use. Nothing in a frame refers back to it."""

    layout: RegisterLayout
    ancilla: QuantumState | None
    unitary: np.ndarray | PermutationUnitary
    e: int
    output: RegisterLayout
    routes: dict

    @classmethod
    def of(cls, layout: RegisterLayout, ancilla, unitary) -> Frame:
        for r in layout.registers:
            if r.role is None:
                raise ValidationError(f"register {r.label!r} has no role")
        anc = tuple(r.label for r in layout.registers if r.source == "ancilla")
        if ancilla is None:
            if anc:
                raise ValidationError(f"ancilla registers {anc} but no ancilla state")
        else:
            have, want = ancilla.layout.dims, tuple(layout.dim_of((a,)) for a in anc)
            if have != want:
                raise DimensionMismatch(f"ancilla dims {have} vs registers {want}")
        u, e = form(unitary).as_unitary(layout), layout.dim_of(layout.with_role("E"))
        return cls(layout, ancilla, u, e, layout.sub(layout.with_role("S")), {})


@dataclass(frozen=True)
class QuantumInstrument:
    """(ancilla, U, M) over a role-annotated register layout.

    The ancilla state occupies the source='ancilla' registers (a dim-1 layout
    is represented by ancilla=None); callers supply the source='input'
    registers at application time. M acts on the E registers in layout order.
    U is a dense unitary, kept as a plain ndarray, or a PermutationUnitary: a
    full-layout table, a table on some of this layout's registers, an Xor
    (the CNOT ladder of QHP, GQT or teleport, or a table that is one) or a
    ControlledSwap (QSP's, or a table that is one). Its routes live in its
    Frame: its own, checked at construction and gone with it, or a
    builder's kept frame (subroutines, QuantumInstrument.on), shared by the
    builds of one size. Its own plan keeps the estimator's law for the last
    observable an estimate read (sampling._observable_basis), under a key of
    its shape, dtype and bytes' digest (so one edited in place gets a new
    law); dataclasses.replace builds a new instance with its own frame and plan.
    """

    layout: RegisterLayout
    ancilla: QuantumState | None
    unitary: np.ndarray | PermutationUnitary
    measurement: MeasurementOperator

    def __post_init__(self):
        # on() hands over a builder's frame; any other construction checks its own
        frame = vars(self).get("_frame") or Frame.of(self.layout, self.ancilla, self.unitary)
        if self.measurement.dim != frame.e:
            raise DimensionMismatch(
                f"measurement dim {self.measurement.dim} vs E-register dim {frame.e}"
            )
        object.__setattr__(self, "unitary", frame.unitary)
        object.__setattr__(self, "_frame", frame)
        # by the estimators: "observable" -> (key, law)
        object.__setattr__(self, "_plan", {})

    @classmethod
    def on(cls, frame: Frame, measurement: MeasurementOperator) -> QuantumInstrument:
        """An instrument on frame's objects, sharing its routes: only M's dim is checked."""
        inst = cls.__new__(cls)
        object.__setattr__(inst, "_frame", frame)
        inst.__init__(frame.layout, frame.ancilla, frame.unitary, measurement)
        return inst

    @property
    def ancilla_labels(self) -> tuple[str, ...]:
        return tuple(r.label for r in self.layout.registers if r.source == "ancilla")

    @property
    def input_labels(self) -> tuple[str, ...]:
        return tuple(r.label for r in self.layout.registers if r.source == "input")

    @property
    def s_labels(self) -> tuple[str, ...]:
        return self.layout.with_role("S")

    @property
    def e_labels(self) -> tuple[str, ...]:
        return self.layout.with_role("E")

    @property
    def output_layout(self) -> RegisterLayout:
        return self._frame.output


# ---------------------------------------------------------------------------
# joint-state assembly and evolution


def _factor(x):
    """Factor columns (K, B) of one input piece, x = K B^dag, none dropped.

    A QuantumState gives the factors it keeps; a vector is one column and
    its own bra. Any other matrix, possibly indefinite or non-Hermitian,
    gives K = U sqrt(s), B = V sqrt(s) from its SVD U diag(s) V^dag.
    """
    if isinstance(x, QuantumState):
        return x.factors
    a = np.asarray(x.matrix if isinstance(x, WeightedState) else x, dtype=np.complex128)
    if a.ndim == 1:
        v = operand(a, what="input", ndim=1)[:, None]
        return v, v
    u, s, vh = np.linalg.svd(operand(a, what="input"))
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
    input-register order; one piece's as they are."""
    factors = [_factor(x) for x in _pieces(inputs)]
    return factors[0] if len(factors) == 1 else _kron_factors(factors)


def evolve(inst: QuantumInstrument, inputs):
    """U on ancilla (x) input: the caller's pieces, one per input register
    when it gives one, else their product as one piece, evolved by the
    route _route keeps for their positions."""
    at = [i for i, r in enumerate(inst.layout.registers) if r.source == "input"]
    pieces = _pieces(inputs)
    if len(pieces) == len(at):
        return _evolve(inst, [(_factor(x), [p]) for x, p in zip(pieces, at)])
    return _evolve(inst, [(_input_factors(pieces), at)])


def _evolve(inst: QuantumInstrument, pieces):
    """evolve of factored pieces ((ket, bra), positions): positions index the
    layout's registers, and the piece's rows run over them in that order.
    The columns of the product are the Kronecker product of the pieces'
    columns, in piece order."""
    dims = inst.layout.dims
    for (ket, _), pos in pieces:
        want = math.prod(dims[p] for p in pos)
        if ket.shape[0] != want:
            raise DimensionMismatch(f"input dim {ket.shape[0]} vs instrument input dim {want}")
    return _route(inst, tuple(tuple(pos) for _, pos in pieces)).evolve(pieces)


def _route(inst: QuantumInstrument, key):
    """The route of an evolution of input pieces at the register positions
    key: the first of these that applies, chosen on first use and kept
    under key in the instrument's Frame for as long as the frame lives:
    with the instrument, or with a builder's kept frame (subroutines) for
    every build of its size. Its evolve(pieces) returns an evolution with
    dims (d_S, d_E, d_G) and contract(form of M), which weighted_output
    calls.

    - _Blocks (QSP): U is a ControlledSwap of S and G whose control, the
      one E register, holds the whole ancilla. A SWAP only renames axes, so
      the pieces stay apart in 4 d_S^2 block entries.
    - _Copy (GQT: S onto E1, Y = E2; teleport: B onto C, Y = A): U is an
      Xor whose dst holds the whole ancilla, one basis vector, on a layout
      of src, dst and an input E register Y, src and dst having roles S and
      E; one piece per input register. The COPY tensor keeps the copied
      piece's density and Y's factor columns, no table or product columns.
    - Support: the ancilla is one basis vector and U a permutation. U K has
      one nonzero row per input row, so the evolution keeps the input's
      product columns and where U sends each row (image_indices).
    - _Gather: any other. One (S, G r, E) array per side: each factored
      piece gathered at its index under U^dag (preimage_indices) and
      multiplied in, then one GEMM for a dense U.

    A new route is one class and one clause here.
    """
    route = inst._frame.routes.get(key)
    if route is not None:
        return route
    regs, u = inst.layout.registers, form(inst.unitary)
    role, size = {"S": [], "E": [], "G": []}, {"S": 1, "E": 1, "G": 1}
    for i, r in enumerate(regs):
        role[r.role].append(i)
        size[r.role] *= r.dim
    dims = (size["S"], size["E"], size["G"])
    swap, (src, dst) = u.controlled_swap or (), u.xor or (0, 0)
    roles, y = [regs[p].role for p in swap], 3 - src - dst
    blocks = (len(regs) == 3 and sorted(roles) == ["E", "G", "S"]
              and inst.e_labels == inst.ancilla_labels == (regs[swap[0]].label,))
    anc = None if inst.ancilla is None else (
        _factor(inst.ancilla), [i for i, r in enumerate(regs) if r.source == "ancilla"])
    basis = None if anc is None or blocks else _basis_entry(anc, inst.layout.dims)
    if blocks:
        route = _Blocks(swap[roles.index("S")], inst.ancilla.matrix[:, :, None, None], dims)
    elif (basis and len(key) == 2 and len(regs) == 3 and src != dst
          and inst.ancilla_labels == (regs[dst].label,) and regs[y].role == "E"
          and {regs[src].role, regs[dst].role} == {"S", "E"}):
        (digits, amplitude), z = basis, src if regs[src].role == "E" else dst
        e = np.arange(regs[src].dim) ^ digits[dst]
        index = (slice(len(e)),) * 2 if digits[dst] == 0 else np.ix_(e, e)
        route = _Copy(src, index, regs[dst].role == "S", int(y > z), abs(amplitude) ** 2, dims)
    elif basis and (rows := u.image_indices(inst.layout, basis[0], [p for pos in key for p in pos],
                                            [role["S"] + role["G"], role["E"]])):
        route = Support(*rows, dims, {}, basis[1])
    else:
        groups = ((tuple(anc[1]),) if anc else ()) + key
        route = _Gather(u, u.preimage_indices(inst.layout, groups), anc[0] if anc else None,
                        inst.layout.dims, role["S"] + role["G"], role["E"], dims)
    inst._frame.routes[key] = route
    return route


def _basis_entry(piece, dims):
    """(digits, amplitude) of an ancilla piece that is one computational
    basis vector: the digits of the one nonzero entry of its ket, viewed as
    a grid over its registers, by position, and that entry; None for any
    other piece."""
    (ket, bra), pos = piece
    if ket is not bra or ket.shape[1] != 1:
        return None
    grid = ket.reshape([dims[p] for p in pos])
    digits = np.nonzero(grid)
    if len(digits[0]) != 1:
        return None
    return {p: int(d[0]) for p, d in zip(pos, digits)}, complex(grid[digits][0])


@dataclass(frozen=True)
class Evolved:
    """The gather's evolution: the joint state after U as factor columns,
    rho_out = K B^dag.

    ket and bra are U K and U B as C-contiguous (S, G r, E) arrays: the r
    columns ride along with G and are traced with it, and E comes last, so
    M contracts it through free reshapes. bra is ket when the input's bra
    was its ket. dims is (d_S, d_E, d_G). Each form's contract reads them.
    """

    dims: tuple[int, int, int]
    ket: np.ndarray
    bra: np.ndarray

    def contract(self, m) -> np.ndarray:
        return m.contract(self)


@dataclass(frozen=True)
class _Gather:
    """The gather route (_route): U's preimage_indices grids, one per
    piece, the ancilla's first; the ancilla's factor columns (None without
    one); the layout's dims; and the S G and E positions."""

    u: object
    indices: list
    ancilla: tuple | None
    layout_dims: tuple
    sg: list
    e: list
    dims: tuple[int, int, int]

    def evolve(self, pieces) -> Evolved:
        lead = int(self.ancilla is not None)
        cols = [self.ancilla] * lead + [f for f, _ in pieces]
        k, n = len(self.layout_dims), len(cols)
        # axes: the k registers, then one column axis per piece
        shape = self.layout_dims + tuple(x.shape[1] for x, _ in cols)
        group = self.sg + list(range(k, k + n)) + self.e

        def place(side):
            def gather(order):
                # out[y, c] = prod_i side[i][index of piece i at y, c_i], axes
                # in order: the input pieces multiplied left to right, as
                # _kron_factors nests them, then the ancilla's
                terms = []
                for i, (x, idx) in enumerate(zip(side, self.indices)):
                    t = x.take(idx, axis=0)
                    terms.append(t.reshape(idx.shape + (1,) * i + x.shape[1:]
                                           + (1,) * (n - 1 - i)).transpose(order))
                out = np.empty([shape[a] for a in order], dtype=np.complex128)
                acc = reduce(lambda a, t: np.multiply(a, t, out=out), terms[lead + 1 :], terms[lead])
                if lead:
                    acc = np.multiply(terms[0], acc, out=out)
                if acc is not out:
                    np.copyto(out, acc)
                return out

            return self.u.apply_gathered(gather, shape, group).reshape(self.dims[0], -1, self.dims[1])

        ket = place([x for x, _ in cols])
        same = all(x is b for x, b in cols)
        return Evolved(self.dims, ket, ket if same else place([b for _, b in cols]))


@dataclass(frozen=True)
class Support:
    """The support route (_route), and the evolutions it returns.

    Row n of the input's product columns (the input registers in piece
    order, as _kron_factors gives them) lands at S G index
    sg[n] = s d_G + g and E index e[n]. An evolution holds those
    (D / d_anc) x r columns times the ancilla's entry amplitude as kcols
    and bcols (bcols is kcols when the input's bra is its ket), not as a
    gather's ket and bra: each form contracts it by contract_support. cache,
    shared by the route and its evolutions, keeps what those derive (kept).
    """

    sg: np.ndarray
    e: np.ndarray
    dims: tuple[int, int, int]
    cache: dict
    amplitude: complex = 1
    kcols: np.ndarray | None = None
    bcols: np.ndarray | None = None

    def evolve(self, pieces) -> "Support":
        cols = _kron_factors([f for f, _ in pieces])
        if self.amplitude != 1:
            a = np.full((1, 1), self.amplitude)
            cols = _kron_factors([(a, a), cols])
        return Support(self.sg, self.e, self.dims, self.cache, self.amplitude, *cols)

    def contract(self, m) -> np.ndarray:
        return m.contract_support(self)

    def kept(self, owner, derive):
        """derive(self), kept in cache under owner (the form that contracts
        with it, or a name) from its first call; at most KEPT_DERIVATIONS
        owners are kept."""
        hit = self.cache.get(id(owner))
        if hit is None or hit[0] is not owner:
            if len(self.cache) >= KEPT_DERIVATIONS:
                self.cache.clear()
            hit = self.cache[id(owner)] = (owner, derive(self))
        return hit[1]

    @cached_property
    def scattered(self) -> Evolved:
        """The gather's arrays U K and U B, the columns written at their rows
        into zero (S, G r, E) arrays once per evolution."""
        d_s, d_e, d_g = self.dims

        def scatter(values):
            out = np.zeros((d_s * d_g, values.shape[1], d_e), dtype=np.complex128)
            out[self.sg, :, self.e] = values
            return out.reshape(d_s, -1, d_e)

        ket = scatter(self.kcols)
        return Evolved(self.dims, ket, ket if self.bcols is self.kcols else scatter(self.bcols))


@dataclass(frozen=True)
class _Blocks:
    """The controlled-SWAP route (_route), and the evolutions it returns.

    An evolution holds X[c, c'] = sigma[c, c'] Tr_G[W_c rho W_c'^dag],
    W_0 = I and W_1 the SWAP, as x, a (2, 2, d_S, d_S) array from the
    factors rho_p = K_p B_p^dag: rho_S Tr rho_G, rho_S rho_G; rho_G rho_S,
    rho_G Tr rho_S for pieces rho_S and rho_G, or K_c B_c'^dag for one
    piece, K_c its ket with the register that lands on S in branch c as
    rows. Each block is written in place into x. s is the S register's
    position and sigma the ancilla as a (2, 2, 1, 1) array.
    """

    s: int
    sigma: np.ndarray
    dims: tuple[int, int, int]
    x: np.ndarray | None = None

    def evolve(self, pieces) -> "_Blocks":
        d = self.dims[0]
        x = np.empty((2, 2, d, d), dtype=np.complex128)
        if len(pieces) == 2:
            (k1, b1), (k2, b2) = (f for f, _ in sorted(pieces, key=lambda p: p[1] != [self.s]))
            rho1 = np.matmul(k1, b1.conj().T, out=x[0, 0])
            rho2 = np.matmul(k2, b2.conj().T, out=x[1, 1])
            _product(k1, b1, k2, b2, rho1, rho2, x[0, 1])
            if k1 is b1 and k2 is b2:
                np.conjugate(x[0, 1].T, out=x[1, 0])
            else:
                _product(k2, b2, k1, b1, rho2, rho1, x[1, 0])
            t1, t2 = np.trace(rho1), np.trace(rho2)
            rho1 *= t2
            rho2 *= t1
        else:
            (k, b), pos = pieces[0]
            order = ((0, 1, 2), (1, 0, 2))[:: 1 if pos[0] == self.s else -1]
            kc, bc = ([y.reshape(d, d, -1).transpose(o).reshape(d, -1) for o in order] for y in (k, b))
            for c, e in np.ndindex(2, 2):
                np.matmul(kc[c], bc[e].conj().T, out=x[c, e])
        x *= self.sigma
        return _Blocks(self.s, self.sigma, self.dims, x)

    def contract(self, m) -> np.ndarray:
        """sum M[e', e] X[e, e']."""
        return (m.dense().T.reshape(-1) @ self.x.reshape(4, -1)).reshape(self.dims[0], -1)


def _product(k1, b1, k2, b2, rho1, rho2, out) -> np.ndarray:
    """rho1 rho2 into out in the association of fewest flops: rho1 rho2
    (d^3), or through the factors' overlap, (K1 (B1^dag K2)) B2^dag
    (2 d r1 r2 + d^2 r2) or K1 ((B1^dag K2) B2^dag) (2 d r1 r2 + d^2 r1)."""
    d, r1, r2 = k1.shape[0], k1.shape[1], k2.shape[1]
    if d * d <= 2 * r1 * r2 + d * min(r1, r2):
        return np.matmul(rho1, rho2, out=out)
    overlap = b1.conj().T @ k2
    if r2 <= r1:
        return np.matmul(k1 @ overlap, b2.conj().T, out=out)
    return np.matmul(k1, overlap @ b2.conj().T, out=out)


@dataclass(frozen=True)
class _Copy:
    """The copy route (_route), and the evolutions it returns.

    A CNOT ladder's copy of the input register X = src onto a basis
    ancilla |a> of amplitude c, with the pieces rho_X and rho_Y = ket
    bra^dag kept apart, Y being the E register at at (0 or 1) among the
    two. With e(x) = x XOR a (index picks the e x e entries of a
    d_dst x d_dst array; slices when a = 0) and N = Tr_Y[M (I (x) rho_Y)] on
    the other E register (the forms' partial_trace, which reads ket, bra,
    rho and at),

        tau[s, t] = rho_X[s, t] N[e(t), e(s)]        when S is X,
        tau[e(x), e(x')] = rho_X[x, x'] N[x', x]      when S is dst (scatter),

    x being rho_X times the ancilla's weight |c|^2.
    """

    src: int
    index: tuple
    scatter: bool
    at: int
    weight: float
    dims: tuple[int, int, int]
    x: np.ndarray | None = None
    ket: np.ndarray | None = None
    bra: np.ndarray | None = None

    def evolve(self, pieces) -> "_Copy":
        ((kx, bx), _), ((ky, by), _) = sorted(pieces, key=lambda piece: piece[1][0] != self.src)
        x = kx @ bx.conj().T
        if self.weight != 1:
            x *= self.weight
        return _Copy(self.src, self.index, self.scatter, self.at, self.weight, self.dims, x, ky, by)

    @cached_property
    def rho(self) -> np.ndarray:
        return self.ket @ self.bra.conj().T

    def contract(self, m) -> np.ndarray:
        n_t = m.partial_trace(self).T
        if not self.scatter:
            return self.x * n_t[self.index]
        tau = np.zeros((self.dims[0],) * 2, dtype=np.complex128)
        tau[self.index] = self.x * n_t
        return tau


def weighted_output(ev, m) -> np.ndarray:
    """tau_st = sum_{x,e,e'} K[s,x,e] conj(B[t,x,e']) M[e',e], x = (g, column):
    the one entry point of every contraction with M, an array or a form,
    which the evolution ev contracts by its route (_route)."""
    return ev.contract(form(m))


def projected_outputs(ev: Evolved, groups) -> list[np.ndarray]:
    """weighted_output of each (eigenvalue, projector) group of a form's
    groups(); a form shared by several projectors, such as the identity and
    the SWAP in (I +- P)/2, or a group form and its reuse in a zero group
    I - sum_g P_g, is contracted once. A group's sum starts from its first
    term and skips a coefficient 1, so an output may be a shared contraction
    itself: callers only read them."""
    done: dict[int, np.ndarray] = {}
    out = []
    for _, projector in groups:
        for _, f in projector:
            if id(f) not in done:
                done[id(f)] = weighted_output(ev, f)
        terms = [done[id(f)] if c == 1 else c * done[id(f)] for c, f in projector]
        out.append(sum(terms[1:], terms[0]))
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
    eigenvalue, in the order of the groups of M's rows, M being one part;
    sum_j lambda_j p_j (conditional) reproduces apply_exact. A non-normal
    low-rank M reports the normality residual of its core."""
    meas = inst.measurement
    if meas.kind == "nonnormal":
        # raises the NotNormal of the matrix the form diagonalizes
        form(meas.operator).groups()
    *_, groups = meas.rows
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
# concatenation


def _fresh_label(base: str, taken) -> str:
    label = base
    while label in taken:
        label = label + "'"
    return label


@dataclass(frozen=True)
class Pipeline:
    """Two instruments wired in sequence plus the flattened equivalent.

    wiring maps each S register of the first stage onto an input register of
    the second. Staged evaluation applies the second stage by linearity to
    the factor columns of tau_1 (x) fresh inputs, with tau_1 factored by its
    SVD and no D_in x D_in matrix formed; the flattened form, a single
    instrument with the combined unitary and the product measurement, used
    for sampling and variance analysis, is built on first read.
    """

    first: QuantumInstrument
    second: QuantumInstrument
    wiring: dict

    def apply_staged(self, first_inputs, fresh_inputs=()) -> WeightedState:
        tau1 = apply_exact(self.first, first_inputs)
        lay = self.second.layout
        wired = [lay.index(self.wiring[l]) for l in self.first.s_labels]
        other = [lay.index(l) for l in self.second.input_labels if lay.index(l) not in wired]
        pieces = [(_factor(tau1), wired)]
        if other:
            pieces.append((_input_factors(fresh_inputs), other))
        ev = _evolve(self.second, pieces)
        return WeightedState(
            weighted_output(ev, self.second.measurement.operator), self.second.output_layout
        )

    def apply_flattened(self, first_inputs, fresh_inputs=()) -> WeightedState:
        return apply_exact(self.flattened, _pieces(first_inputs) + _pieces(fresh_inputs))

    @cached_property
    def flattened(self) -> QuantumInstrument:
        """One instrument on the union of the stages' registers: U = U2 U1
        and M1 (x) M2 on the union of E registers."""
        first, second, wiring = self.first, self.second, self.wiring
        lay2 = second.layout
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
        u_total = compose(
            form(second.unitary).placed(u2_labels, new_layout),
            form(first.unitary).placed(first.layout.labels, new_layout),
        )

        # the stages measure disjoint registers, so M1 (x) M2, and each product
        # of their normal parts (a tensor product of normal operators, hence
        # normal), is one Kronecker product placed on the union of E registers
        e_sub = new_layout.sub(r.label for r in combined if r.role == "E")
        e12 = list(first.e_labels) + [rename[l] for l in second.e_labels]

        def product(a, b):
            return embed_operator(np.kron(form(a).dense(), form(b).dense()), e12, e_sub)

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

        return QuantumInstrument(
            new_layout,
            ancilla=anc,
            unitary=u_total,
            measurement=MeasurementOperator.of(m_total, decomposition),
        )


def concatenate(
    first: QuantumInstrument, second: QuantumInstrument, wiring: dict | None = None
) -> Pipeline:
    """Wire the first stage's S registers into input registers of the second.

    Unwired second-stage inputs become fresh inputs of the pipeline, appended
    after the first stage's own inputs. The wiring is checked here; the
    flattened instrument, which applies U = U2 U1 and measures M1 (x) M2 on
    the union of E registers, is built when first read.
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
    return Pipeline(first=first, second=second, wiring=dict(wiring))
