"""Complex linear algebra substrate and the operator protocol.

The size check of every operand (operand), register layouts, classification
and spectral decomposition of normal matrices, dephasing, Pauli strings,
JSON forms of arrays, and the forms an operator is held in: DenseOperator,
PermutationUnitary, its subclasses Xor and ControlledSwap, and
LowRankOperator. As with SciPy's
aslinearoperator, form(x) wraps a plain array once and callers use only the
forms' methods, so only this module tells forms apart.

Conventions: arrays are complex128, row-major. Register order in a layout
matches tensor-product order; the leftmost register carries the most
significant index bits. Functions are pure; LowRankOperator caches its core,
Xor and ControlledSwap their tables, PermutationUnitary.identity the last
one it built.
"""

from __future__ import annotations

import contextlib
import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    NotNormal,
    NotUnitary,
    SchemaError,
    UnknownLabel,
    ValidationError,
)

NORMALITY_TOL = 1e-10
DEGENERACY_TOL = 1e-9
# bytes of bra one block of a permutation contraction gathers
CONTRACTION_BLOCK_BYTES = 1 << 19

Roles = ("S", "E", "G")


def asarray(m) -> np.ndarray:
    a = np.asarray(m, dtype=np.complex128)
    if not np.isfinite(a).all():
        raise ValidationError("array contains NaN or Inf entries")
    return a


def operand(x, dim: int | None = None, what: str = "operand", ndim: int = 2) -> np.ndarray:
    """x as a finite complex128 square matrix (ndim 2) or vector (ndim 1),
    of size dim when dim is given: the one size check of every matrix and
    vector the library takes. DimensionMismatch naming x as what otherwise."""
    a = asarray(x)
    n = dim if dim is not None else (a.shape[0] if a.ndim else 0)
    if a.shape != (n,) * ndim:
        size = "d" if dim is None else dim
        want = f"{size} x {size}" if ndim == 2 else f"a vector of {size} entries"
        raise DimensionMismatch(f"{what} must be {want}, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class Register:
    """One tensor factor. role is S (kept output), E (measured), G (traced);
    source says whether the instrument's ancilla or the caller's input
    occupies it."""

    label: str
    dim: int
    role: str | None = None
    source: str = "input"

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError(f"register {self.label!r}: dim must be >= 1")
        if self.role is not None and self.role not in Roles:
            raise UnknownLabel(f"register {self.label!r}: unknown role {self.role!r}")
        if self.source not in ("ancilla", "input"):
            raise ValidationError(f"register {self.label!r}: bad source {self.source!r}")

    @property
    def qubits(self) -> int | None:
        n = self.dim.bit_length() - 1
        return n if (1 << n) == self.dim and self.dim > 1 else (0 if self.dim == 1 else None)


@dataclass(frozen=True)
class RegisterLayout:
    registers: tuple[Register, ...]

    def __post_init__(self):
        labels = tuple(r.label for r in self.registers)
        if len(set(labels)) != len(labels):
            raise ValidationError(f"duplicate register labels in {list(labels)}")
        # read many times per evaluation, so derived once
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dims", tuple(r.dim for r in self.registers))

    @staticmethod
    def of(*regs: Register) -> "RegisterLayout":
        return RegisterLayout(tuple(regs))

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def index(self, label: str) -> int:
        if label not in self.labels:
            raise UnknownLabel(f"no register labeled {label!r} in {self.labels}")
        return self.labels.index(label)

    def sub(self, labels: Iterable[str]) -> "RegisterLayout":
        """Sub-layout of the given labels, in layout order."""
        wanted = set(labels)
        for lab in wanted:
            self.index(lab)
        return RegisterLayout(tuple(r for r in self.registers if r.label in wanted))

    def with_role(self, role: str) -> tuple[str, ...]:
        return tuple(r.label for r in self.registers if r.role == role)

    def dim_of(self, labels: Iterable[str]) -> int:
        return math.prod(self.registers[self.index(l)].dim for l in labels)


def dephase(m) -> np.ndarray:
    """Project onto the computational-basis diagonal: D(m) = sum_i m_ii |i><i|."""
    return np.diag(np.diag(operand(m)))


def hermiticity_residual(m) -> float:
    a = np.asarray(m)
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


def normality_residual(m) -> float:
    a = np.asarray(m)
    return float(np.max(np.abs(a @ a.conj().T - a.conj().T @ a))) if a.size else 0.0


def unitarity_residual(m) -> float:
    a = np.asarray(m)
    return float(np.max(np.abs(a.conj().T @ a - np.eye(a.shape[0]))))


def check_unitary(m, what: str) -> None:
    """Raise NotUnitary, naming m as what, if |m^dag m - I| > NORMALITY_TOL anywhere."""
    res = unitarity_residual(m)
    if res > NORMALITY_TOL:
        raise NotUnitary(f"{what} is not unitary: U^dag U deviates from identity by {res:.3e}")


def norm_scale(m) -> float:
    """Largest |entry| of a dense matrix; 0 for the zero matrix.

    The largest entry is a lower bound on the spectral norm (and within a
    factor d of it) that costs one pass. Classification tolerances are
    multiplied by this scale (hermiticity) or its square (normality), so
    c*M is classified as M is at every scale. The zero matrix has residuals
    of 0 and passes every test.
    """
    a = np.asarray(m)
    return float(np.max(np.abs(a))) if a.size else 0.0


def is_hermitian(m) -> bool:
    return hermiticity_residual(m) <= NORMALITY_TOL * norm_scale(m)


def is_normal(m) -> bool:
    return normality_residual(m) <= NORMALITY_TOL * norm_scale(m) ** 2


def not_normal(m) -> NotNormal:
    """The NotNormal error of a dense m: its normality residual against the
    tolerance is_normal applies."""
    return NotNormal(normality_residual(m), NORMALITY_TOL * norm_scale(m) ** 2)


def classify(a) -> str:
    """'hermitian', 'normal' or 'nonnormal': the class of a dense matrix,
    decided exactly at every size (the kind of a dense or low-rank form).

    The matrix is tested for hermiticity, then for skew-hermiticity (O(d^2),
    normal), then with the O(d^3) normality residual. Tolerances are
    relative to norm_scale, as in is_hermitian and is_normal.
    """
    a = np.asarray(a)
    if is_hermitian(a):
        return "hermitian"
    skew = float(np.max(np.abs(a + a.conj().T)))
    if skew <= NORMALITY_TOL * norm_scale(a) or is_normal(a):
        return "normal"
    return "nonnormal"


def spectral_norm(m) -> float:
    """||M||_2 of a dense matrix."""
    return float(np.linalg.norm(np.asarray(m), 2))


def merge_values(values, scale: float):
    """Group values that lie within DEGENERACY_TOL * scale of a group's first
    member, where scale is the size of the operator they come from.

    Returns (labels, means): labels[j] is the group of values[j], groups are
    numbered in the order they are first visited, and means[g] is the mean
    of group g's members.
    """
    values = np.asarray(values)
    tol = DEGENERACY_TOL * scale
    labels = np.empty(len(values), dtype=np.intp)
    reps: list[complex] = []
    for j, val in enumerate(values.tolist()):
        for g, rep in enumerate(reps):
            if abs(val - rep) <= tol:
                labels[j] = g
                break
        else:
            labels[j] = len(reps)
            reps.append(val)
    sums = np.zeros(len(reps), dtype=values.dtype)
    np.add.at(sums, labels, values)
    return labels, sums / np.bincount(labels)


def eigenbasis(m):
    """Unitary diagonalization of a normal matrix with degeneracy merging.

    Returns (values, vectors, labels): values[g] is the merged eigenvalue of
    group g, vectors is a unitary whose columns are eigenvectors, labels[j]
    assigns column j to its group. A Hermitian matrix takes one eigh. Any
    other normal A = H + iK takes eigh(H), then eigh of K compressed onto
    each eigenspace of H; H and K commute, so this is exact, degenerate
    eigenspaces included. Groups come in ascending order of the real part,
    then of the imaginary part. Both stages merge values within
    DEGENERACY_TOL * ||A||_F, so c*A has the groups of A at every scale.
    Normality is checked relative to norm_scale(m)^2.
    """
    a = operand(m)
    hermitian = is_hermitian(a)
    if not hermitian and not is_normal(a):
        raise not_normal(a)
    return _eigenbasis(a, hermitian)


def _eigenbasis(a: np.ndarray, hermitian: bool):
    """eigenbasis of a checked complex128 array; hermitian = is_hermitian(a)."""
    scale = float(np.linalg.norm(a))
    adj = a.conj().T
    h_vals, vecs = np.linalg.eigh((a + adj) / 2)
    h_labels, h_means = merge_values(h_vals, scale)
    if hermitian:
        return h_means.astype(np.complex128), vecs, h_labels
    k = (a - adj) / 2j
    values: list[complex] = []
    labels = np.empty_like(h_labels)
    for g, h in enumerate(h_means):
        cols = h_labels == g
        v = vecs[:, cols]
        k_vals, w = np.linalg.eigh(v.conj().T @ k @ v)
        vecs[:, cols] = v @ w
        k_labels, k_means = merge_values(k_vals, scale)
        labels[cols] = len(values) + k_labels
        values.extend(h + 1j * k_means)
    return np.array(values), vecs, labels


# ---------------------------------------------------------------------------
# operator forms


def _projector_groups(values, basis, labels, zero) -> list:
    """(eigenvalue, projector) groups of sum_g values[g] B_g B_g^dag, B_g the
    columns of basis labeled g. A projector is a tuple of (coefficient, form)
    terms, which a contraction linear in M takes one by one: B_g B_g^dag as
    LowRankOperator(B_g, B_g) for each g not marked zero, then, unless those
    span the space, a zero group I - sum_g P_g over the same forms."""
    groups = []
    for g in np.flatnonzero(~zero):
        cols = basis[:, labels == g]
        groups.append((complex(values[g]), ((1.0, LowRankOperator.derived(cols, cols)),)))
    if (~zero[labels]).sum() < basis.shape[0]:
        kept = tuple((-c, f) for _, projector in groups for c, f in projector)
        eye = PermutationUnitary.identity(basis.shape[0])
        groups.append((0j, ((1.0, eye), *kept)))
    return groups


@dataclass(frozen=True)
class DenseOperator:
    """An operator held as its d x d array. form() wraps an array in it
    without a copy or a check: its holder checked it once, through
    as_measurement or as_unitary."""

    array: np.ndarray
    controlled_swap = None  # no ControlledSwap, so no blocks (instrument._route)
    xor = None  # no Xor, so no copy (instrument._route)

    @property
    def kind(self) -> str:
        return classify(self.array)

    def groups(self) -> list:
        """The eigenbasis groups of a normal matrix (_projector_groups)."""
        values, basis, labels = eigenbasis(self.array)
        return _projector_groups(values, basis, labels, np.zeros(len(values), dtype=bool))

    def contract(self, ev) -> np.ndarray:
        """The weighted output of M on a gathered evolution: b = B conj(M),
        fresh and conjugated in place, about one bra's bytes beyond tau."""
        d_s, d_e, _ = ev.dims
        # C[t,x,e] = sum_e' B[t,x,e'] conj(M)[e',e]; tau = <K, C> over (x, e)
        b = ev.bra.reshape(-1, d_e) @ self.array.conj()
        np.conjugate(b, out=b)
        return ev.ket.reshape(d_s, -1) @ b.reshape(d_s, -1).T

    def contract_support(self, sup) -> np.ndarray:
        """contract on the support's scattered arrays."""
        return self.contract(sup.scattered)

    def partial_trace(self, y) -> np.ndarray:
        """N = Tr_Y[M (I (x) rho_Y)] for M on two registers, Y the one at
        y.at (0 or 1) and rho_Y = y.ket y.bra^dag: one reshape, one einsum."""
        d_y = len(y.ket)
        d_z = len(self.array) // d_y
        m = self.array.reshape((d_z, d_y) * 2 if y.at else (d_y, d_z) * 2)
        return np.einsum("aybx,xy->ab" if y.at else "yaxb,xy->ab", m, y.rho)

    def split(self) -> tuple:
        """M = (1/2)(M + M^dag) + (1/2)(M - M^dag), two normal parts."""
        adj = self.array.conj().T
        return ((0.5 + 0j, self.array + adj), (0.5 + 0j, self.array - adj))

    def dense(self) -> np.ndarray:
        return self.array

    def as_measurement(self) -> np.ndarray:
        """The array a measurement keeps: square, finite, complex128."""
        return operand(self.array, what="measurement")

    def as_unitary(self, layout: RegisterLayout) -> np.ndarray:
        """The array an instrument on layout keeps as U, checked unitary."""
        u = operand(self.array, layout.total_dim, "unitary")
        check_unitary(u, "U")
        return u

    def preimage_indices(self, layout: RegisterLayout, groups) -> list[np.ndarray]:
        """The identity's: pieces are placed in layout order, U applied after."""
        digits, dims = register_digits(layout), layout.dims
        return [combine_digits([digits[p] for p in pos], [dims[p] for p in pos]) for pos in groups]

    def image_indices(self, layout: RegisterLayout, fixed: dict, rows, groups) -> None:
        """None: a dense U is not read as a map of basis states, so its
        evolution gathers (apply_gathered)."""
        return None

    def apply_gathered(self, gather, shape, group) -> np.ndarray:
        """U on the joint block (axes: the layout's registers, then the
        columns, of sizes shape) that gather(order) writes at preimage_indices
        with its axes in order: one GEMM in layout order, then a transpose."""
        y = self.array @ gather(list(range(len(shape)))).reshape(self.array.shape[0], -1)
        return np.ascontiguousarray(y.reshape(shape).transpose(group))

    def placed(self, labels: Sequence[str], layout: RegisterLayout) -> "DenseOperator":
        """U on the registers labels (those of U's layout, renamed) of layout."""
        return DenseOperator(embed_operator(self.array, labels, layout))

    def to_json(self) -> dict:
        return matrix_to_json(self.array)


@dataclass(frozen=True)
class PermutationUnitary:
    """Computational-basis permutation: U|x> = |perm[x]>.

    Structurally unitary. Given labels and the layout they belong to, perm is
    a table over those registers only (in the order of labels), U is the
    identity on every other register, and an evolution gathers at the
    table's preimage_indices without a full-layout table. dim and shape are
    those of U on the whole layout; lifted() builds the full table through
    embed_permutation. Without labels the table spans the whole space, as a
    JSON table or the SWAP of a measurement does.
    """

    perm: np.ndarray
    labels: tuple[str, ...] | None = None
    layout: RegisterLayout | None = None
    controlled_swap = None  # a table is read as one, whatever it permutes
    xor = None

    def __post_init__(self):
        p = np.asarray(self.perm, dtype=np.intp).reshape(-1)
        object.__setattr__(self, "perm", p)
        # bijectivity check on indices in range; counts are cheaper than sorting
        if p.size == 0 or p.min() < 0 or p.max() >= p.size or np.bincount(p).max() != 1:
            raise NotUnitary("index map is not a permutation")
        if (self.labels is None) != (self.layout is None):
            raise ValidationError("a permutation on registers needs both labels and layout")
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
            if self.layout.dim_of(self.labels) != p.size:
                raise DimensionMismatch(
                    f"permutation dim {p.size} does not match registers {list(self.labels)}"
                )

    @property
    def dim(self) -> int:
        return self.perm.size if self.layout is None else self.layout.total_dim

    @property
    def shape(self) -> tuple[int, int]:
        return (self.dim, self.dim)

    def __matmul__(self, other: "PermutationUnitary") -> "PermutationUnitary":
        # matrix semantics: other acts first
        if (self.labels, self.layout) != (other.labels, other.layout):
            raise DimensionMismatch("permutations held on different registers")
        return PermutationUnitary(self.perm[other.perm], self.labels, self.layout)

    def lifted(self) -> "PermutationUnitary":
        """The same U as one table over the whole layout."""
        if self.labels is None:
            return self
        return embed_permutation(self, self.labels, self.layout)

    def dense(self) -> np.ndarray:
        perm = self.lifted().perm
        z = np.zeros((perm.size, perm.size), dtype=np.complex128)
        z[perm, np.arange(perm.size)] = 1.0
        return z

    @staticmethod
    @lru_cache(maxsize=1)
    def identity(dim: int) -> "PermutationUnitary":
        """The identity on dim basis states; the last one built is kept, so
        the zero groups of one measurement's parts share one form, which a
        contraction then takes once."""
        return PermutationUnitary(np.arange(dim))

    @property
    def is_involution(self) -> bool:
        return bool(np.array_equal(self.perm[self.perm], np.arange(self.perm.size)))

    @property
    def kind(self) -> str:
        """Unitary, hence normal; Hermitian when it is an involution."""
        return "hermitian" if self.is_involution else "normal"

    def groups(self) -> list:
        """An involution P has the groups (I +- P)/2 for +1 and -1; any other
        permutation takes the groups of its dense matrix."""
        if not self.is_involution:
            return DenseOperator(self.dense()).groups()
        eye = PermutationUnitary.identity(self.dim)
        return [(1.0 + 0j, ((0.5, eye), (0.5, self))), (-1.0 + 0j, ((0.5, eye), (-0.5, self)))]

    def contract(self, ev) -> np.ndarray:
        """The weighted output of M[e',e] = 1 iff e' = perm[e] on a gathered
        evolution: the bra gathered along E in blocks of at most
        CONTRACTION_BLOCK_BYTES (or one column)."""
        d_s, d_e, _ = ev.dims
        # tau_st = sum_{x,e} K[s,x,e] conj(B[t,x,perm[e]]), over blocks of
        # whole E rows, or of E columns in one x when an E row is too big
        ket, bra = ev.ket, ev.bra
        e_step = min(d_e, max(1, CONTRACTION_BLOCK_BYTES // (16 * d_s)))
        x_step = max(1, CONTRACTION_BLOCK_BYTES // (16 * d_s * d_e)) if e_step == d_e else 1
        tau = None
        for x in range(0, bra.shape[1], x_step):
            for e in range(0, d_e, e_step):
                b = np.take(bra[:, x : x + x_step], self.perm[e : e + e_step], axis=2)
                np.conjugate(b, out=b)
                a = ket[:, x : x + x_step, e : e + e_step].reshape(d_s, -1)
                part = a @ b.reshape(d_s, -1).T
                del b  # so that the next block's gather does not overlap this one
                tau = part if tau is None else np.add(tau, part, out=tau)
        return tau

    def contract_support(self, sup) -> np.ndarray:
        """The weighted output on a support: tau_st = sum over the joined
        pairs (n, m) with s_n = s, s_m = t of sum_c K[n, c] conj(B[m, c]), in
        blocks of at most CONTRACTION_BLOCK_BYTES of gathered bra rows,
        accumulated by bincount."""
        ket_rows, bra_rows = sup.kept(self, self._join)
        ket, bra = sup.kcols, sup.bcols
        d_s, _, d_g = sup.dims
        s = sup.sg // d_g
        st = (s if ket_rows is None else s[ket_rows]).astype(np.intp) * d_s
        st += s if bra_rows is None else s[bra_rows]
        step = max(1, CONTRACTION_BLOCK_BYTES // (16 * ket.shape[1]))
        vals = np.empty(len(st), dtype=np.complex128)
        for i in range(0, len(vals), step):
            k = ket[i : i + step] if ket_rows is None else ket[ket_rows[i : i + step]]
            if bra_rows is None:
                b = bra[i : i + step].conj()
            else:
                b = bra[bra_rows[i : i + step]]
                np.conjugate(b, out=b)
            np.einsum("ij,ij->i", k, b, out=vals[i : i + step])
        tau = np.empty(d_s * d_s, dtype=np.complex128)
        tau.real = np.bincount(st, vals.real, d_s * d_s)
        tau.imag = np.bincount(st, vals.imag, d_s * d_s)
        return tau.reshape(d_s, d_s)

    def _join(self, sup) -> tuple:
        """(ket rows, bra rows) of the support's pairs: ket row n meets bra
        row m where g_n = g_m and perm[e_n] = e_m (sort-merge: the bra's
        (g, e) keys sorted, the ket's searched). Ket rows is None when each
        row meets one, in order, and bra rows too when that one is itself."""
        _, d_e, d_g = sup.dims
        g = sup.sg % d_g
        key = g * d_e + sup.e
        order = np.argsort(key, kind="stable")
        key, wanted = key[order], g * d_e + self.perm[sup.e]
        lo = np.searchsorted(key, wanted, "left")
        counts = np.searchsorted(key, wanted, "right") - lo
        if (counts == 1).all():
            bra_rows = order[lo]
            return None, None if (bra_rows == np.arange(len(bra_rows))).all() else bra_rows
        ket_rows = np.repeat(np.arange(len(counts)), counts)
        within = np.arange(len(ket_rows)) - np.repeat(np.cumsum(counts) - counts, counts)
        return ket_rows, order[np.repeat(lo, counts) + within]

    def partial_trace(self, y) -> np.ndarray:
        """N = Tr_Y[M (I (x) rho_Y)] (DenseOperator.partial_trace) of
        M[e', e] = 1 iff e' = perm[e]: rho_Y gathered at the (y, y') pair
        of each e = (z, y), e' = (z', y'), summed into N[z', z] by bincount."""
        d_y = len(y.ket)
        d_z = self.perm.size // d_y
        if y.at:  # e = z d_Y + y, the table as a (d_Z, d_Y) grid
            z, y_in = np.arange(d_z)[:, None], np.arange(d_y)
            z_out, y_out = np.divmod(self.perm.reshape(d_z, d_y), d_y)
        else:  # e = y d_Z + z
            y_in, z = np.arange(d_y)[:, None], np.arange(d_z)
            y_out, z_out = np.divmod(self.perm.reshape(d_y, d_z), d_z)
        vals = y.rho[y_in, y_out]
        at = np.add(z_out * d_z, z, out=z_out).reshape(-1)
        vals = vals.reshape(-1)
        out = np.empty(d_z * d_z, dtype=np.complex128)
        out.real = np.bincount(at, vals.real, d_z * d_z)
        out.imag = np.bincount(at, vals.imag, d_z * d_z)
        return out.reshape(d_z, d_z)

    def as_measurement(self) -> "PermutationUnitary":
        """The table a measurement keeps: one over its whole space."""
        return self.lifted()

    def as_unitary(self, layout: RegisterLayout) -> "PermutationUnitary":
        """The permutation, checked to act on layout. A full-layout table (a
        document's, a two-state combination's) that is an XOR of one
        register into another, or, on three registers, a qubit-controlled
        SWAP of the other two, is held as that Xor or ControlledSwap, whose
        evolutions keep the input pieces apart. The first basis state x the
        table moves names the one candidate: an XOR moves x = |src = 1, 0
        elsewhere> in dst alone, a controlled SWAP moves two registers and
        leaves its control. The candidate's table, built from its digits,
        is compared with this one: a few passes over the D entries, however
        many registers the layout has."""
        if self.dim != layout.total_dim:
            raise DimensionMismatch(f"unitary dim {self.dim} vs layout {layout.total_dim}")
        if self.layout not in (None, layout):
            raise ValidationError("the unitary's registers belong to another layout")
        if self.labels is not None or len(layout.dims) < 2:
            return self
        dims, labels = layout.dims, layout.labels
        x = int(np.argmax(self.perm != np.arange(self.perm.size)))
        here, there = (np.unravel_index(i, dims) for i in (x, int(self.perm[x])))
        moved = [p for p in range(len(dims)) if here[p] != there[p]]
        candidate = None
        with contextlib.suppress(DimensionMismatch):
            if len(moved) == 1 and np.count_nonzero(here) == 1:
                candidate = Xor((labels[int(np.flatnonzero(here)[0])], labels[moved[0]]), layout)
            elif len(moved) == 2 and len(dims) == 3:
                candidate = ControlledSwap([labels[3 - sum(moved)], *(labels[p] for p in moved)],
                                           layout)
        if candidate is not None and np.array_equal(candidate.lifted().perm, self.perm):
            return candidate
        return self

    def apply_gathered(self, gather, shape, group) -> np.ndarray:
        """U on the joint block that gather(order) writes at preimage_indices:
        the gather itself applies U, straight in group order."""
        return gather(group)

    def placed(self, labels: Sequence[str], layout: RegisterLayout) -> "PermutationUnitary":
        """U on the registers labels (those of U's layout, renamed) of layout.
        An Xor or ControlledSwap stays one, so no table is read from it."""
        if self.labels is not None:
            new = dict(zip(self.layout.labels, labels))
            labels = [new[label] for label in self.labels]
            if isinstance(self, (Xor, ControlledSwap)):
                return type(self)(labels, layout)
        return PermutationUnitary(self.perm, labels, layout)

    def to_json(self) -> dict:
        """The full-layout table, whichever registers U is held on."""
        return {"permutation": [int(p) for p in self.lifted().perm]}

    def _indices(self, layout: RegisterLayout, fixed: dict, groups, inverse: bool = False) -> list:
        """For each list of register positions in groups, the index over
        those registers (in that order, the first most significant) of
        table[x] (perm for U, its inverse for U^dag when inverse), for the
        basis states x of layout whose register q holds the digit fixed[q]: a
        grid over the free registers in layout order, of length 1 along those
        it does not vary with. The table, viewed as a grid over its registers
        and cut at the fixed digits, is split once into one digit grid per
        register; a register keeps its own digits (_own_digits) where the
        table leaves it alone (a register off the table), so that an index
        spans only the axes it varies on. A group that is the whole table, in
        table order, with nothing fixed takes the table itself."""
        table = self.perm
        if inverse:
            table = np.empty_like(self.perm)
            table[self.perm] = np.arange(self.perm.size)
        dims, k = layout.dims, len(layout.dims)
        on = list(range(k)) if self.labels is None else [layout.labels.index(l) for l in self.labels]
        free = [p for p in range(k) if p not in fixed]
        cut = [p for p in on if p not in fixed]
        grid = table.reshape([dims[p] for p in on])[tuple(fixed.get(p, slice(None)) for p in on)]
        grid = grid.transpose(sorted(range(len(cut)), key=cut.__getitem__)).reshape(
            [dims[p] if p in cut else 1 for p in free])
        whole = [not fixed and list(pos) == on for pos in groups]
        if all(whole):
            return [grid] * len(groups)
        digits = _own_digits(dims, fixed)
        for p, digit in zip(on, np.unravel_index(grid, [dims[p] for p in on])):
            if not (digit == digits[p]).all():
                digits[p] = digit
        return [grid if w else combine_digits([digits[p] for p in pos], [dims[p] for p in pos])
                for pos, w in zip(groups, whole)]

    def image_indices(self, layout: RegisterLayout, fixed: dict, rows, groups) -> list[np.ndarray]:
        """For each list of register positions in groups, the index over those
        registers (in that order) of U|y>, as one array (int32 while the
        layout's dimension fits) over the basis states y of layout whose
        register p holds the digit fixed[p]: the registers in rows, all the
        others, run over every digit, the first most significant."""
        dims = layout.dims
        shape = [dims[p] for p in rows]
        dtype = np.int32 if math.prod(dims) < 2**31 else np.intp
        axes = sorted(range(len(rows)), key=rows.__getitem__)  # the digits' axes, in rows order
        out = []
        for index in self._indices(layout, fixed, groups):
            full = np.empty(shape, dtype=dtype)
            full.transpose(axes)[...] = index
            out.append(full.reshape(-1))
        return out

    def preimage_indices(self, layout: RegisterLayout, groups) -> list[np.ndarray]:
        """For each list of register positions in groups, the index over those
        registers (in that order) of U^dag|y> for every basis state y of
        layout, as a grid that broadcasts against register_digits(layout)."""
        return self._indices(layout, {}, groups, inverse=True)


def _own_digits(dims: Sequence[int], fixed: dict) -> list:
    """Each register's own digit over the basis states whose register p
    holds fixed[p]: that digit, or, for a free register, a sparse grid along
    its own axis among the free registers (in layout order)."""
    free = [p for p in range(len(dims)) if p not in fixed]
    digits = [fixed.get(p) for p in range(len(dims))]
    for i, p in enumerate(free):
        digits[p] = np.arange(dims[p]).reshape([1] * i + [-1] + [1] * (len(free) - 1 - i))
    return digits


class Xor(PermutationUnitary):
    """U|x> = |x'>, where x' is x with the digit of register dst replaced by
    its XOR with the digit of register src: a CNOT ladder from src onto
    dst, held as its registers labels = (src, dst) of layout. dst's dim is a
    power of two no smaller than src's, so every XOR is a digit of dst.
    QHP, GQT and teleport build one, and as_unitary holds every full-layout
    table equal to one as one, so a document writes and reads the same
    table. Index grids come from the register digits (dst ^= src, its own
    inverse); perm, the table on (src, dst), is derived on first read."""

    def __init__(self, labels: Sequence[str], layout: RegisterLayout):
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "layout", layout)
        dims = [layout.dim_of((label,)) for label in self.labels]
        pair = len(dims) == 2 == len(set(self.labels))
        if not (pair and dims[0] <= dims[1] and dims[1] & (dims[1] - 1) == 0):
            raise DimensionMismatch(f"XOR on registers {self.labels} of dims {dims}")

    @cached_property
    def perm(self) -> np.ndarray:
        dims = [self.layout.dim_of((label,)) for label in self.labels]
        src, dst = np.indices(dims, sparse=True)
        return combine_digits([src, dst ^ src], dims).reshape(-1)

    @property
    def xor(self) -> tuple[int, int]:
        """The layout positions of (src, dst)."""
        return tuple(self.layout.index(label) for label in self.labels)

    def _indices(self, layout: RegisterLayout, fixed: dict, groups, inverse: bool = False) -> list:
        """PermutationUnitary._indices from the digits alone, with no table:
        a XOR is its own inverse."""
        src, dst = self.xor
        digits = _own_digits(layout.dims, fixed)
        digits[dst] = digits[dst] ^ digits[src]
        return [combine_digits([digits[p] for p in pos], [layout.dims[p] for p in pos])
                for pos in groups]


class ControlledSwap(PermutationUnitary):
    """U|c, a, b> = |c, b, a> for c = 1, |c, a, b> for c = 0: a SWAP of two
    registers of one dim controlled by a qubit, held as its registers labels
    = (control, a, b) of layout. QSP builds one on (C; S, G), and
    as_unitary holds every full-layout table equal to one as one, so a
    document writes and reads the same table. The blocks route
    (instrument._route) reads only controlled_swap; perm, the table on
    those registers, is derived on first read."""

    def __init__(self, labels: Sequence[str], layout: RegisterLayout):
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "layout", layout)
        dims = [layout.dim_of((label,)) for label in self.labels]
        if len(set(self.labels)) != 3 or dims[0] != 2 or dims[1] != dims[2]:
            raise DimensionMismatch(f"controlled SWAP on registers {self.labels} of dims {dims}")

    @cached_property
    def perm(self) -> np.ndarray:
        c, i, j = np.indices([self.layout.dim_of((label,)) for label in self.labels], sparse=True)
        swapped = [c, np.where(c == 1, j, i), np.where(c == 1, i, j)]
        return combine_digits(swapped, [2, i.size, i.size]).reshape(-1)

    @property
    def controlled_swap(self) -> tuple[int, int, int]:
        """The layout positions of (control, a, b)."""
        return tuple(self.layout.index(label) for label in self.labels)


@dataclass(frozen=True)
class LowRankOperator:
    """M = u v^dag from two d x r factors.

    Holds a rank <= r operator in O(d r) memory; the dense d x d matrix is
    only built on request. The QR behind its core runs once, on first read,
    and not at all for a part of a split, which holds the core it is built
    from. The constructor checks its factors; derived() builds the parts and
    group projectors that come from checked factors without a second check.
    """

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u, v = asarray(self.u), asarray(self.v)
        if u.ndim != 2 or u.shape != v.shape:
            raise DimensionMismatch(f"factor shapes {u.shape} and {v.shape} differ")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @classmethod
    def derived(cls, u: np.ndarray, v: np.ndarray) -> "LowRankOperator":
        """u v^dag of complex128 d x r factors computed from checked ones."""
        op = object.__new__(cls)
        object.__setattr__(op, "u", u)
        object.__setattr__(op, "v", v)
        return op

    @property
    def dim(self) -> int:
        return self.u.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.dim, self.dim)

    @cached_property
    def core(self) -> tuple[np.ndarray, np.ndarray]:
        """(Q, C) with M = Q C Q^dag, where Q has orthonormal columns spanning
        [u v]; M is Hermitian (normal) exactly when C is, and C is at most
        2r x 2r."""
        q, _ = np.linalg.qr(np.hstack([self.u, self.v]))
        qh = q.conj().T
        return q, (qh @ self.u) @ (qh @ self.v).conj().T

    @property
    def kind(self) -> str:
        """The class of the core."""
        return classify(self.core[1])

    def groups(self) -> list:
        """One group Q W_g (Q W_g)^dag per nonzero eigenvalue of the core
        C = W diag W^dag, and a zero group that also spans the complement of
        Q: an eigenvalue is zero at most DEGENERACY_TOL times the largest
        |eigenvalue| away from 0, and a rank-0 M has only the zero group, I."""
        q, c = self.core
        values, w, labels = eigenbasis(c)
        mags = np.abs(values)
        zero = mags <= DEGENERACY_TOL * mags.max(initial=0.0)
        return _projector_groups(values, q @ w, labels, zero)

    def contract(self, ev) -> np.ndarray:
        """The weighted output of M on a gathered evolution, through the factors."""
        d_s, d_e, _ = ev.dims
        # tau_st = sum_{x,k} (K conj(v))[s,x,k] conj((B conj(u))[t,x,k])
        a = ev.ket.reshape(-1, d_e) @ self.v.conj()
        same = self.u is self.v and ev.bra is ev.ket
        b = a.copy() if same else ev.bra.reshape(-1, d_e) @ self.u.conj()
        np.conjugate(b, out=b)
        return a.reshape(d_s, -1) @ b.reshape(d_s, -1).T

    def contract_support(self, sup) -> np.ndarray:
        """contract on a support, through segment sums of its rows
        (_segment_sums) when its S G indices hold equal numbers of rows, on
        its scattered arrays otherwise."""
        order = sup.kept("segments", _segments)
        if order is None:
            return self.contract(sup.scattered)
        a = _segment_sums(sup, order, sup.kcols, self.v)
        same = self.u is self.v and sup.bcols is sup.kcols
        b = a.copy() if same else _segment_sums(sup, order, sup.bcols, self.u)
        np.conjugate(b, out=b)
        return a.reshape(sup.dims[0], -1) @ b.reshape(sup.dims[0], -1).T

    def partial_trace(self, y) -> np.ndarray:
        """N = Tr_Y[M (I (x) rho_Y)] (DenseOperator.partial_trace) through
        the factors: N = P Q^dag with P[z', (k, c)] = sum_y' u[(z', y'), k]
        conj(B_Y[y', c]) and Q the same of v and K_Y, no d_E x d_E array."""
        d_y = len(y.ket)
        d_z = self.dim // d_y

        def half(w, x):  # sum_y w[(z, y), k] conj(x[y, c]) as a (d_Z, k r) array
            if y.at:
                return (x.conj().T @ w.reshape(d_z, d_y, -1)).reshape(d_z, -1)
            return (w.reshape(d_y, -1).T @ x.conj()).reshape(d_z, -1)

        p = half(self.u, y.bra)
        q = p if self.u is self.v and y.bra is y.ket else half(self.v, y.ket)
        return p @ q.conj().T

    def split(self) -> tuple:
        """The split of the core: low-rank parts Q (C +- C^dag) Q^dag, each
        holding its core (Q, C +- C^dag)."""
        q, c = self.core
        parts = []
        for h, x in DenseOperator(c).split():
            part = LowRankOperator.derived(q, q @ x.conj().T)
            object.__setattr__(part, "core", (q, x))  # core is cached: no QR runs
            parts.append((h, part))
        return tuple(parts)

    def dense(self) -> np.ndarray:
        return self.u @ self.v.conj().T

    def as_measurement(self) -> "LowRankOperator":
        return self


def _segments(sup):
    """The order that sorts a support's rows by sg, when every S G index
    holds the same number of rows; None for any other support."""
    d_s, _, d_g = sup.dims
    counts = np.bincount(sup.sg, minlength=d_s * d_g)
    return np.argsort(sup.sg, kind="stable") if counts.min() == counts.max() else None


def _segment_sums(sup, order, values, w) -> np.ndarray:
    """A[sg, c, k] = sum over the support's rows n at sg of
    values[n, c] conj(w[e_n, k]), a (d_S d_G, r, k) array: one batched GEMM
    over the equal segments that order (_segments) sorts the rows into."""
    d_s, _, d_g = sup.dims
    shape = (d_s * d_g, len(order) // (d_s * d_g))
    c = w[sup.e[order]]
    np.conjugate(c, out=c)
    x = values[order].reshape(shape + values.shape[1:])
    return np.matmul(x.transpose(0, 2, 1), c.reshape(shape + w.shape[1:]))


def form(op):
    """op as a form: a form as it is, anything else (the plain ndarray a
    public field holds) wrapped in a DenseOperator, uncopied and unchecked."""
    if isinstance(op, (DenseOperator, PermutationUnitary, LowRankOperator)):
        return op
    return DenseOperator(op)


def compose(second, first):
    """second @ first of two unitary forms placed on one layout: one
    full-layout table when both are permutations, a dense array otherwise."""
    if isinstance(second, PermutationUnitary) and isinstance(first, PermutationUnitary):
        return second.lifted() @ first.lifted()
    return second.dense() @ first.dense()


def register_digits(layout: RegisterLayout) -> list[np.ndarray]:
    """digits[r] = value of register r (mixed radix) as a grid of dims[r]
    entries on axis r and length 1 on every other axis, not a D-length array."""
    return list(np.indices(layout.dims, sparse=True))


def combine_digits(digits: Sequence, dims: Sequence[int]):
    """The index of the digits (the first most significant) over registers
    of dims: digit grids, such as register_digits gives, or digits, combined
    in the shape they broadcast to; 0 over no registers."""
    out = digits[0] if len(digits) else 0
    for d, dim in zip(digits[1:], dims[1:]):
        out = out * dim + d
    return out


def embed_permutation(
    u: PermutationUnitary, labels: Sequence[str], layout: RegisterLayout
) -> PermutationUnitary:
    """The table of u, which acts on the given registers (in the order of
    labels), extended to one table over the full layout, identity elsewhere.

    The one place a full-layout table is built from a register table: only
    a dense U, a JSON document, a measurement and the flattened unitary of a
    concatenation need one. A u held on those registers (an Xor) gives its
    own digit grids, without its table."""
    held = u if u.layout is layout and u.labels == tuple(labels) else PermutationUnitary(
        u.perm, labels, layout)
    return PermutationUnitary(held._indices(layout, {}, [range(len(layout.dims))])[0])


def embed_operator(op, labels: Sequence[str], layout: RegisterLayout) -> np.ndarray:
    """Dense embedding of an operator on the given registers (in the order of
    labels) into the full layout, identity elsewhere."""
    dims = layout.dims
    k = len(dims)
    pos = [layout.index(l) for l in labels]
    a = operand(op, math.prod(dims[p] for p in pos), f"operator on {list(labels)}")
    rest = [i for i in range(k) if i not in set(pos)]
    d_rest = math.prod(dims[i] for i in rest) if rest else 1
    full = np.kron(a, np.eye(d_rest, dtype=np.complex128))
    axis_dims = [dims[p] for p in pos] + [dims[i] for i in rest]
    t = full.reshape(axis_dims + axis_dims)
    order = pos + rest  # axis i of t belongs to register order[i]
    inv = [order.index(r) for r in range(k)]
    t = t.transpose(inv + [k + p for p in inv])
    return t.reshape(layout.total_dim, layout.total_dim)


# ---------------------------------------------------------------------------
# Pauli strings

_PAULIS = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
    dtype=np.complex128,
)  # I, X, Y, Z


def _pauli_string(labels: Sequence[str]) -> np.ndarray:
    """Kronecker product of the Paulis named by labels (letters of "IXYZ"),
    taken left to right, so the first label acts on the most significant
    qubit; no labels give the 1 x 1 identity."""
    out = np.ones((1, 1), dtype=np.complex128)
    for c in labels:
        out = np.kron(out, _PAULIS["IXYZ".index(c)])
    return out


# ---------------------------------------------------------------------------
# JSON forms: {"dims": [r, c], "data": [[re, im], ...]} row-major.


def _require(cond: bool, field_path: str, msg: str):
    if not cond:
        raise SchemaError(field_path, msg)


def matrix_to_json(m) -> dict:
    a = asarray(m)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got ndim {a.ndim}")
    data = [[float(v.real), float(v.imag)] for v in a.ravel()]
    return {"dims": [int(a.shape[0]), int(a.shape[1])], "data": data}


def vector_to_json(v) -> dict:
    a = asarray(v)
    if a.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got ndim {a.ndim}")
    return {"dims": [int(a.shape[0])], "data": [[float(x.real), float(x.imag)] for x in a]}


def is_json_number(x) -> bool:
    """A JSON number that is a finite float: not a boolean, NaN, Inf, or an
    integer too large for a float."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def complex_from_json(pair, field_path: str) -> complex:
    """One [re, im] pair of finite numbers; SchemaError naming field_path
    otherwise."""
    _require(isinstance(pair, (list, tuple)) and len(pair) == 2, field_path, "expected [re, im]")
    _require(is_json_number(pair[0]), field_path, "re must be a finite number")
    _require(is_json_number(pair[1]), field_path, "im must be a finite number")
    return complex(pair[0], pair[1])


def _entries_from_json(obj, field_path: str, count: int) -> np.ndarray:
    data = obj.get("data")
    _require(isinstance(data, list), f"{field_path}.data", "must be a list")
    _require(len(data) == count, f"{field_path}.data", f"expected {count} entries, got {len(data)}")
    out = np.empty(count, dtype=np.complex128)
    for i, pair in enumerate(data):
        out[i] = complex_from_json(pair, f"{field_path}.data[{i}]")
    return out


def matrix_from_json(obj, field_path: str = "matrix") -> np.ndarray:
    _require(isinstance(obj, dict), field_path, "must be an object")
    dims = obj.get("dims")
    _require(
        isinstance(dims, list) and len(dims) == 2, f"{field_path}.dims", "expected [rows, cols]"
    )
    r, c = dims
    _require(
        isinstance(r, int) and isinstance(c, int) and r > 0 and c > 0,
        f"{field_path}.dims",
        "dims must be positive integers",
    )
    return _entries_from_json(obj, field_path, r * c).reshape(r, c)


def vector_from_json(obj, field_path: str = "vector") -> np.ndarray:
    _require(isinstance(obj, dict), field_path, "must be an object")
    dims = obj.get("dims")
    _require(isinstance(dims, list) and len(dims) in (1, 2), f"{field_path}.dims", "expected [d]")
    if len(dims) == 2:
        _require(dims[1] == 1, f"{field_path}.dims", "expected a column vector")
    d = dims[0]
    _require(isinstance(d, int) and d > 0, f"{field_path}.dims", "dim must be a positive integer")
    return _entries_from_json(obj, field_path, d)
