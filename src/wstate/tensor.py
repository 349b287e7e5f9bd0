"""Dense complex linear algebra substrate.

Register layouts, partial traces, operator classification, spectral
decomposition of normal matrices, dephasing, computational-basis permutation
unitaries, low-rank operators held as factors, the spectral groups of each
form, Pauli strings, and the JSON forms of arrays.

Conventions: matrices are dense complex128 ndarrays, row-major. Register order
in a layout matches tensor-product order; the leftmost register carries the
most significant index bits. All functions here are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

Roles = ("S", "E", "G")


def asarray(m, square: bool | None = None) -> np.ndarray:
    a = np.asarray(m, dtype=np.complex128)
    if not np.all(np.isfinite(a)):
        raise ValidationError("array contains NaN or Inf entries")
    if square is True:
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
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
        labels = [r.label for r in self.registers]
        if len(set(labels)) != len(labels):
            raise ValidationError(f"duplicate register labels in {labels}")

    @staticmethod
    def of(*regs: Register) -> "RegisterLayout":
        return RegisterLayout(tuple(regs))

    @staticmethod
    def qubits(spec: Iterable[tuple[str, int]]) -> "RegisterLayout":
        """Build from (label, qubit count) pairs."""
        regs = []
        for label, n in spec:
            if n < 1:
                raise ValidationError(f"register {label!r}: qubit count must be >= 1")
            regs.append(Register(label, 2**n))
        return RegisterLayout(tuple(regs))

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(r.dim for r in self.registers)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(r.label for r in self.registers)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def index(self, label: str) -> int:
        for i, r in enumerate(self.registers):
            if r.label == label:
                return i
        raise UnknownLabel(f"no register labeled {label!r} in {self.labels}")

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


def partial_trace(m, layout: RegisterLayout, keep: Iterable[str]) -> np.ndarray:
    """Trace out every register not in keep. Kept registers stay in layout
    order; the total trace is preserved."""
    a = asarray(m, square=True)
    dims = layout.dims
    if a.shape[0] != layout.total_dim:
        raise DimensionMismatch(
            f"matrix dim {a.shape[0]} does not match layout total {layout.total_dim}"
        )
    keep = set(keep)
    for lab in keep:
        layout.index(lab)
    k = len(dims)
    kept_pos = [i for i in range(k) if layout.registers[i].label in keep]
    t = a.reshape(dims + dims)
    row_ids = [2 * i for i in range(k)]
    col_ids = [2 * i + 1 if i in set(kept_pos) else 2 * i for i in range(k)]
    out_ids = [2 * i for i in kept_pos] + [2 * i + 1 for i in kept_pos]
    traced = np.einsum(t, row_ids + col_ids, out_ids)
    d_keep = math.prod(dims[i] for i in kept_pos) if kept_pos else 1
    return traced.reshape(d_keep, d_keep)


def dephase(m) -> np.ndarray:
    """Project onto the computational-basis diagonal: D(m) = sum_i m_ii |i><i|."""
    a = asarray(m, square=True)
    return np.diag(np.diag(a))


def hermiticity_residual(m) -> float:
    a = np.asarray(m)
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


def normality_residual(m) -> float:
    a = np.asarray(m)
    return float(np.max(np.abs(a @ a.conj().T - a.conj().T @ a))) if a.size else 0.0


def unitarity_residual(m) -> float:
    a = np.asarray(m)
    return float(np.max(np.abs(a.conj().T @ a - np.eye(a.shape[0]))))


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


def classify(op) -> str:
    """'hermitian', 'normal' or 'nonnormal': the class of an operator held in
    any form, decided exactly at every size.

    A permutation is unitary, and Hermitian when it is an involution. A
    low-rank u v^dag has the class of its 2r x 2r core. A dense matrix is
    tested for hermiticity, then for skew-hermiticity (O(d^2), normal), then
    with the O(d^3) normality residual. Tolerances are relative to
    norm_scale, as in is_hermitian and is_normal.
    """
    if isinstance(op, PermutationUnitary):
        return "hermitian" if op.is_involution else "normal"
    if isinstance(op, LowRankOperator):
        op = op.core()[1]
    a = np.asarray(op)
    if is_hermitian(a):
        return "hermitian"
    skew = float(np.max(np.abs(a + a.conj().T)))
    if skew <= NORMALITY_TOL * norm_scale(a) or is_normal(a):
        return "normal"
    return "nonnormal"


def spectral_norm(m) -> float:
    """||M||_2 of a dense matrix or a structured form: 1 for a permutation,
    the norm of the 2r x 2r core for a low-rank u v^dag."""
    if isinstance(m, PermutationUnitary):
        return 1.0
    if isinstance(m, LowRankOperator):
        return float(np.linalg.norm(m.core()[1], 2))
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
    a = asarray(m, square=True)
    hermitian = is_hermitian(a)
    if not hermitian:
        res = normality_residual(a)
        scaled_tol = NORMALITY_TOL * norm_scale(a) ** 2
        if res > scaled_tol:
            raise NotNormal(res, scaled_tol)
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


@dataclass(frozen=True)
class PermutationUnitary:
    """Computational-basis permutation: U|x> = |perm[x]>.

    Structurally unitary; apply_vector permutes the rows of a vector or of
    a D x r block of columns in O(D r) without materializing the dense
    matrix.
    """

    perm: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.perm, dtype=np.intp)
        object.__setattr__(self, "perm", p)
        # bijectivity check; counts are cheaper than sorting
        if np.bincount(p, minlength=p.size).max(initial=0) != 1:
            raise NotUnitary("index map is not a permutation")

    @property
    def dim(self) -> int:
        return self.perm.size

    @property
    def shape(self) -> tuple[int, int]:
        return (self.dim, self.dim)

    def apply_vector(self, psi: np.ndarray) -> np.ndarray:
        out = np.empty_like(psi)
        out[self.perm] = psi
        return out

    def inverse(self) -> "PermutationUnitary":
        inv = np.empty_like(self.perm)
        inv[self.perm] = np.arange(self.dim)
        return PermutationUnitary(inv)

    def __matmul__(self, other: "PermutationUnitary") -> "PermutationUnitary":
        # matrix semantics: other acts first
        return PermutationUnitary(self.perm[other.perm])

    def dense(self) -> np.ndarray:
        z = np.zeros((self.dim, self.dim), dtype=np.complex128)
        z[self.perm, np.arange(self.dim)] = 1.0
        return z

    @staticmethod
    def identity(dim: int) -> "PermutationUnitary":
        return PermutationUnitary(np.arange(dim))

    @property
    def is_involution(self) -> bool:
        return bool(np.array_equal(self.perm[self.perm], np.arange(self.dim)))


@dataclass(frozen=True)
class LowRankOperator:
    """M = u v^dag from two d x r factors.

    Holds a rank <= r operator in O(d r) memory; the dense d x d matrix is
    only built on request.
    """

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u, v = asarray(self.u), asarray(self.v)
        if u.ndim != 2 or u.shape != v.shape:
            raise DimensionMismatch(f"factor shapes {u.shape} and {v.shape} differ")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def dim(self) -> int:
        return self.u.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.dim, self.dim)

    def core(self) -> tuple[np.ndarray, np.ndarray]:
        """(Q, C) with M = Q C Q^dag, where Q has orthonormal columns spanning
        [u v]; M is Hermitian (normal) exactly when C is, and C is at most
        2r x 2r."""
        q, _ = np.linalg.qr(np.hstack([self.u, self.v]))
        qh = q.conj().T
        return q, (qh @ self.u) @ (qh @ self.v).conj().T

    def dense(self) -> np.ndarray:
        return self.u @ self.v.conj().T


def dense(op) -> np.ndarray:
    """The d x d array of an operator held in any form: an ndarray as it is,
    a structured form built out. Code outside this module turns a form into
    an array only through here."""
    return op if isinstance(op, np.ndarray) else op.dense()


def spectral_groups(op):
    """(eigenvalue, projector) groups of a normal operator held in any form.

    Each projector is a tuple of (coefficient, form) terms, so that a
    contraction linear in M (weighted_output) takes it term by term without
    a d x d matrix:
    - an involutive permutation P has the groups (I +- P)/2 for +1 and -1;
    - a low-rank Q C Q^dag has one group Q W_g (Q W_g)^dag per nonzero
      eigenvalue of its core C = W diag W^dag, in eigenbasis order, and a
      last zero group I - sum_g P_g, which also spans the complement of Q;
      an eigenvalue counts as zero when it is at most DEGENERACY_TOL times
      the largest |eigenvalue|;
    - a dense matrix keeps its eigenbasis groups, as
      LowRankOperator(cols, cols).
    A permutation that is not an involution takes the dense path.
    """
    if isinstance(op, PermutationUnitary) and op.is_involution:
        eye = PermutationUnitary.identity(op.dim)
        return [(1.0 + 0j, ((0.5, eye), (0.5, op))), (-1.0 + 0j, ((0.5, eye), (-0.5, op)))]
    if isinstance(op, LowRankOperator):
        q, c = op.core()
        values, w, labels = eigenbasis(c)
        basis = q @ w
        zero = np.abs(values) <= DEGENERACY_TOL * np.abs(values).max()
    else:
        values, basis, labels = eigenbasis(dense(op))
        zero = np.zeros(len(values), dtype=bool)
    groups = []
    for g in np.flatnonzero(~zero):
        cols = basis[:, labels == g]
        groups.append((complex(values[g]), ((1.0, LowRankOperator(cols, cols)),)))
    kept = ~zero[labels]
    dim = basis.shape[0]
    if kept.sum() < dim:
        cols = basis[:, kept]
        eye = PermutationUnitary.identity(dim)
        groups.append((0j, ((1.0, eye), (-1.0, LowRankOperator(cols, cols)))))
    return groups


def gram(op):
    """N N^dag in the form N is held in: the identity for a permutation,
    a (b^dag b) a^dag for a low-rank a b^dag."""
    if isinstance(op, PermutationUnitary):
        return PermutationUnitary.identity(op.dim)
    if isinstance(op, LowRankOperator):
        return LowRankOperator(op.u @ (op.v.conj().T @ op.v), op.u)
    return op @ op.conj().T


def register_digits(layout: RegisterLayout) -> list[np.ndarray]:
    """digits[r][x] = value of register r in basis state x (mixed radix)."""
    dims = layout.dims
    idx = np.arange(layout.total_dim)
    digits: list[np.ndarray] = [np.empty(0)] * len(dims)
    rem = idx
    for r in range(len(dims) - 1, -1, -1):
        digits[r] = rem % dims[r]
        rem = rem // dims[r]
    return digits


def combine_digits(digits: Sequence[np.ndarray], dims: Sequence[int]) -> np.ndarray:
    out = np.zeros_like(digits[0])
    for d, dim in zip(digits, dims):
        out = out * dim + d
    return out


def embed_permutation(
    u: PermutationUnitary, labels: Sequence[str], layout: RegisterLayout
) -> PermutationUnitary:
    """Extend a permutation acting on the given registers (in the order of
    labels) to the full layout, identity elsewhere."""
    dims = layout.dims
    pos = [layout.index(l) for l in labels]
    sub_dims = [dims[p] for p in pos]
    if math.prod(sub_dims) != u.dim:
        raise DimensionMismatch(
            f"permutation dim {u.dim} does not match registers {list(labels)}"
        )
    digits = register_digits(layout)
    sub = combine_digits([digits[p] for p in pos], sub_dims)
    sub_out = u.perm[sub]
    new_digits = list(digits)
    for p in reversed(pos):
        new_digits[p] = sub_out % dims[p]
        sub_out = sub_out // dims[p]
    return PermutationUnitary(combine_digits(new_digits, dims))


def embed_operator(op, labels: Sequence[str], layout: RegisterLayout) -> np.ndarray:
    """Dense embedding of an operator on the given registers (in the order of
    labels) into the full layout, identity elsewhere."""
    a = asarray(op, square=True)
    dims = layout.dims
    k = len(dims)
    pos = [layout.index(l) for l in labels]
    if math.prod(dims[p] for p in pos) != a.shape[0]:
        raise DimensionMismatch(
            f"operator dim {a.shape[0]} does not match registers {list(labels)}"
        )
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

_PAULIS = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def _pauli_string(labels: Sequence[str]) -> np.ndarray:
    """Kronecker product of the Paulis named by labels, taken left to right,
    so the first label acts on the most significant qubit."""
    out = _PAULIS[labels[0]]
    for c in labels[1:]:
        out = np.kron(out, _PAULIS[c])
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


def _entries_from_json(obj, field_path: str, count: int) -> np.ndarray:
    data = obj.get("data")
    _require(isinstance(data, list), f"{field_path}.data", "must be a list")
    _require(len(data) == count, f"{field_path}.data", f"expected {count} entries, got {len(data)}")
    out = np.empty(count, dtype=np.complex128)
    for i, pair in enumerate(data):
        loc = f"{field_path}.data[{i}]"
        _require(
            isinstance(pair, (list, tuple)) and len(pair) == 2, loc, "expected [re, im]"
        )
        re, im = pair
        _require(
            isinstance(re, (int, float)) and not isinstance(re, bool), loc, "re must be a number"
        )
        _require(
            isinstance(im, (int, float)) and not isinstance(im, bool), loc, "im must be a number"
        )
        _require(math.isfinite(re) and math.isfinite(im), loc, "NaN/Inf rejected")
        out[i] = complex(re, im)
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
