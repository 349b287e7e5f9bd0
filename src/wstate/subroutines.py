"""Named weighted-state primitives and their instrument realizations.

Closed-form oracles (entrywise/matrix arithmetic, no circuit) sit next to the
instrument builders that realize them, so each builder can be checked against
an independent formula:

  qhp       (a (.) b)_ij = a_ij b_ij           CNOT ladder, all-zero postselection
  gqt       sigma (.) rho^T                     Bell coupling + SWAP measurement
  qsp       multilinear alpha-combination       controlled-SWAP, 1-qubit ancilla
  teleport  (1/d) sigma (.) sum_m K_m rho J_m   Bell-type measurement map
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConsistencyError,
    DimensionMismatch,
    OrthogonalInputs,
    OrthogonalIntermediate,
    ValidationError,
    ZeroBeta,
)
from .instrument import (
    MeasurementOperator,
    QuantumInstrument,
    QuantumState,
    _mat,
)
from .tensor import (
    _PAULIS,
    LowRankOperator,
    PermutationUnitary,
    Register,
    RegisterLayout,
    asarray,
    classify,
    combine_digits,
    register_digits,
)

ORTHOGONALITY_TOL = 1e-6

# two-qubit-equivalent gate counts per primitive on n qubits: a CNOT ladder is
# n gates, a SWAP measurement 2n, a controlled-SWAP 3n Toffolis at 6 each
GATES_QHP = 1
GATES_GQT = 3
GATES_LINCOMBO = 18


def _check_same_dim(a: np.ndarray, b: np.ndarray):
    if a.shape != b.shape:
        raise DimensionMismatch(f"operand shapes {a.shape} and {b.shape} differ")


# ---------------------------------------------------------------------------
# oracles


def qhp(a, b) -> np.ndarray:
    """Entrywise (Hadamard) product of two states."""
    a, b = _mat(a), _mat(b)
    _check_same_dim(a, b)
    return a * b


def gqt(sigma, rho) -> np.ndarray:
    """sigma (.) rho^T; with sigma = |+..+><+..+| this is rho^T / d."""
    s, r = _mat(sigma), _mat(rho)
    _check_same_dim(s, r)
    return s * r.T


def power_state(psi, k: int) -> np.ndarray:
    """Amplitude-wise k-th power; k=1 is the identity."""
    if k < 1:
        raise ValidationError(f"power k must be >= 1, got {k}")
    v = asarray(psi)
    return v**k


def qsp_oracle(rho0, rho1, alpha) -> np.ndarray:
    """a00 rho0 + a11 rho1 + a01 rho0 rho1 + a10 rho1 rho0."""
    r0, r1 = _mat(rho0), _mat(rho1)
    _check_same_dim(r0, r1)
    a = asarray(alpha, square=True)
    if a.shape != (2, 2):
        raise DimensionMismatch(f"alpha must be 2x2, got {a.shape}")
    return a[0, 0] * r0 + a[1, 1] * r1 + a[0, 1] * (r0 @ r1) + a[1, 0] * (r1 @ r0)


def teleport_map(sigma, maps, rho) -> np.ndarray:
    """(1/d) sigma (.) E(rho) with E(rho) = sum_m K_m rho J_m.

    maps is a list of (J, K) operator pairs defining the measurement
    deformation; (I, I) recovers standard teleportation up to the 1/d^2
    success weight.
    """
    s, r = _mat(sigma), _mat(rho)
    _check_same_dim(s, r)
    d = r.shape[0]
    e_rho = np.zeros_like(r)
    for j, k in maps:
        j, k = asarray(j, square=True), asarray(k, square=True)
        if j.shape != r.shape or k.shape != r.shape:
            raise DimensionMismatch("map pair dimension differs from the state")
        e_rho += k @ r @ j
    return s * e_rho / d


# ---------------------------------------------------------------------------
# alpha bookkeeping


def gamma_in(trace_rho0: complex = 1.0, trace_rho1: complex = 1.0) -> np.ndarray:
    """Input-trace matrix: diag entries carry the *other* input's trace,
    off-diagonals are exactly 1."""
    return np.array([[trace_rho1, 1.0], [1.0, trace_rho0]], dtype=np.complex128)


def alpha_of(sigma, m, gamma=None) -> np.ndarray:
    """alpha = sigma (.) M^T (.) gamma_in."""
    s = _mat(sigma)
    mm = asarray(m, square=True)
    g = gamma_in() if gamma is None else asarray(gamma, square=True)
    return s * mm.T * g


# ---------------------------------------------------------------------------
# instrument builders


def _xor_ladder_perm(layout: RegisterLayout, src: int, dst: int) -> PermutationUnitary:
    """Permutation sending digit[dst] -> digit[dst] XOR digit[src]."""
    digits = register_digits(layout)
    digits[dst] = np.bitwise_xor(digits[dst], digits[src])
    return PermutationUnitary(combine_digits(digits, layout.dims))


def basis_projector(dim: int, index: int = 0) -> np.ndarray:
    p = np.zeros((dim, dim), dtype=np.complex128)
    p[index, index] = 1.0
    return p


def build_qhp_instrument(n: int) -> QuantumInstrument:
    """CNOT ladder (i,j) -> (i, i xor j) with all-zero postselection on the
    second register; realizes the entrywise product."""
    if n < 1:
        raise ValidationError("qubit count must be >= 1")
    d = 2**n
    layout = RegisterLayout.of(
        Register("S", d, role="S", source="input"),
        Register("E", d, role="E", source="input"),
    )
    return QuantumInstrument(
        layout,
        ancilla=None,
        unitary=_xor_ladder_perm(layout, src=0, dst=1),
        measurement=MeasurementOperator.of(basis_projector(d, 0)),
    )


def build_gqt_instrument(n: int) -> QuantumInstrument:
    """CNOT coupling of the input onto a |0..0> register plus a SWAP
    measurement against the second input; realizes sigma (.) rho^T.

    The SWAP |i j> -> |j i> on (E1, E2) is held as a PermutationUnitary, so
    no d^2 x d^2 matrix is built unless a caller reads measurement.matrix.
    """
    if n < 1:
        raise ValidationError("qubit count must be >= 1")
    d = 2**n
    layout = RegisterLayout.of(
        Register("S", d, role="S", source="input"),
        Register("E1", d, role="E", source="ancilla"),
        Register("E2", d, role="E", source="input"),
    )
    anc = QuantumState(
        layout.sub(("E1",)), vector=np.eye(d, dtype=np.complex128)[0].copy()
    )
    e = np.arange(d * d)
    swap = PermutationUnitary((e % d) * d + e // d)
    return QuantumInstrument(
        layout,
        ancilla=anc,
        unitary=_xor_ladder_perm(layout, src=0, dst=1),
        measurement=MeasurementOperator(swap, "hermitian"),
    )


def build_qsp_instrument(sigma, m, n: int) -> QuantumInstrument:
    """Controlled-SWAP instrument with a one-qubit measured ancilla.

    Realizes qsp_oracle with alpha = sigma (.) M^T (.) gamma_in, where
    gamma_in picks up the input traces.
    """
    if n < 1:
        raise ValidationError("qubit count must be >= 1")
    d = 2**n
    layout = RegisterLayout.of(
        Register("C", 2, role="E", source="ancilla"),
        Register("S", d, role="S", source="input"),
        Register("G", d, role="G", source="input"),
    )
    if isinstance(sigma, QuantumState):
        anc = QuantumState(layout.sub(("C",)), vector=sigma.vector, density=sigma.density)
    else:
        s = asarray(sigma)
        anc = (
            QuantumState(layout.sub(("C",)), vector=s)
            if s.ndim == 1
            else QuantumState(layout.sub(("C",)), density=s)
        )
    meas = m if isinstance(m, MeasurementOperator) else MeasurementOperator.of(m)
    if meas.dim != 2:
        raise DimensionMismatch("QSP measurement must be 2x2")
    # c=1 branch swaps the two d-dim registers
    c, i, j = register_digits(layout)
    swapped = [c, np.where(c == 1, j, i), np.where(c == 1, i, j)]
    perm = PermutationUnitary(combine_digits(swapped, layout.dims))
    return QuantumInstrument(layout, ancilla=anc, unitary=perm, measurement=meas)


def build_teleport_instrument(n: int, maps) -> QuantumInstrument:
    """Teleportation-type instrument: inputs rho (A) and sigma (B), ancilla
    |0..0> (C, the output), CNOT ladder B -> C, and the deformed Bell
    measurement sum_m (J_m (x) I)|Phi+><Phi+|(K_m (x) I) on (A, B).

    The measurement has rank at most len(maps) and is held as a
    LowRankOperator u v^dag with column m of u equal to vec(J_m) and of v to
    conj(vec(K_m^T))/d.
    """
    if n < 1:
        raise ValidationError("qubit count must be >= 1")
    d = 2**n
    layout = RegisterLayout.of(
        Register("A", d, role="E", source="input"),
        Register("B", d, role="E", source="input"),
        Register("C", d, role="S", source="ancilla"),
    )
    anc = QuantumState(
        layout.sub(("C",)), vector=np.eye(d, dtype=np.complex128)[0].copy()
    )
    us, vs = [], []
    for j, k in maps:
        j = asarray(j, square=True)
        k = asarray(k, square=True)
        if j.shape != (d, d) or k.shape != (d, d):
            raise DimensionMismatch("map pair dimension differs from 2^n")
        # (J (x) I)|Phi+> = vec(J)/sqrt(d); <Phi+|(K (x) I) row = vec(K^T)/sqrt(d)
        us.append(j.ravel())
        vs.append(k.T.ravel().conj() / d)
    factors = [np.array(f, dtype=np.complex128).reshape(-1, d * d).T for f in (us, vs)]
    return QuantumInstrument(
        layout,
        ancilla=anc,
        unitary=_xor_ladder_perm(layout, src=1, dst=2),
        measurement=MeasurementOperator.of(LowRankOperator(*factors)),
    )


# ---------------------------------------------------------------------------
# special-case catalog (QSP parameter choices from the weighted-state algebra)


@dataclass(frozen=True)
class SpecialCase:
    name: str
    sigma: np.ndarray  # 1-qubit ancilla density matrix
    m: np.ndarray  # 2x2 measurement
    alpha: np.ndarray  # resulting coefficient matrix for unit-trace inputs
    description: str


def mixture_case(p: float, trace_rho0: complex = 1.0, trace_rho1: complex = 1.0) -> SpecialCase:
    """tau = p rho0 + (1-p) rho1."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"mixture weight must lie in [0,1], got {p}")
    sigma = np.diag([p, 1.0 - p]).astype(np.complex128)
    m = np.diag([1.0 / trace_rho1, 1.0 / trace_rho0]).astype(np.complex128)
    return SpecialCase(
        "mixture", sigma, m, np.diag([p, 1.0 - p]).astype(np.complex128),
        "convex mixture of the two inputs",
    )


def anticommutator_case() -> SpecialCase:
    """tau = rho0 rho1 + rho1 rho0."""
    sigma = np.full((2, 2), 0.5, dtype=np.complex128)
    m = 2.0 * np.array([[0, 1], [1, 0]], dtype=np.complex128)
    alpha = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    return SpecialCase("anticommutator", sigma, m, alpha, "anticommutator {rho0, rho1}")


def commutator_case() -> SpecialCase:
    """tau = rho0 rho1 - rho1 rho0.

    The realizing measurement is the normal, non-Hermitian matrix
    [[0, -2], [2, 0]] (proportional to iY up to sign conventions).
    """
    sigma = np.full((2, 2), 0.5, dtype=np.complex128)
    m = np.array([[0, -2], [2, 0]], dtype=np.complex128)
    alpha = np.array([[0, 1], [-1, 0]], dtype=np.complex128)
    return SpecialCase("commutator", sigma, m, alpha, "commutator [rho0, rho1]")


def square_case() -> SpecialCase:
    """tau = 2 rho^2 with identical inputs; trace gives twice the purity."""
    c = anticommutator_case()
    return SpecialCase("square", c.sigma, c.m, c.alpha, "2 rho^2 from identical inputs")


SPECIAL_CASES = {
    "mixture": mixture_case,
    "anticommutator": anticommutator_case,
    "commutator": commutator_case,
    "square": square_case,
}


# ---------------------------------------------------------------------------
# pairwise linear combination


def lincombo_pair_M(alpha0: complex, alpha1: complex, beta, gram) -> MeasurementOperator:
    """Measurement making QSP output |a0 psi0 + a1 psi1><same|.

    beta holds the ancilla amplitudes (|beta0|^2 + |beta1|^2 = 1); gram is the
    2x2 overlap matrix <psi_i|psi_j> of the (possibly unnormalized) inputs.
    The construction degrades as the overlap vanishes, so near-orthogonal
    inputs are rejected.
    """
    b = asarray(beta)
    if b.shape != (2,):
        raise DimensionMismatch("beta must have two entries")
    if min(abs(b[0]), abs(b[1])) < 1e-12:
        raise ZeroBeta("both ancilla amplitudes must be nonzero")
    g = asarray(gram, square=True)
    if g.shape != (2, 2):
        raise DimensionMismatch("gram must be 2x2")
    norm0, norm1 = g[0, 0].real, g[1, 1].real
    if norm0 <= 0 or norm1 <= 0:
        raise ValidationError("gram diagonal must be positive")
    overlap = abs(g[0, 1]) / math.sqrt(norm0 * norm1)
    if overlap < ORTHOGONALITY_TOL:
        raise OrthogonalInputs(
            f"normalized overlap {overlap:.3e} below {ORTHOGONALITY_TOL}"
        )
    m = np.empty((2, 2), dtype=np.complex128)
    m[0, 0] = abs(alpha0) ** 2 / (abs(b[0]) ** 2 * norm1)
    m[1, 1] = abs(alpha1) ** 2 / (abs(b[1]) ** 2 * norm0)
    m[0, 1] = alpha1 * np.conj(alpha0) / (b[1] * np.conj(b[0]) * g[1, 0])
    m[1, 0] = np.conj(m[0, 1])
    return MeasurementOperator(m, "hermitian")


def build_lincombo_instrument(alpha0, alpha1, beta, psi0, psi1) -> QuantumInstrument:
    """QSP instrument realizing the pairwise linear combination of two pure
    states (fed as inputs in this order)."""
    v0, v1 = asarray(psi0), asarray(psi1)
    _check_same_dim(v0, v1)
    d = v0.shape[0]
    n = int(round(math.log2(d)))
    if 2**n != d:
        raise DimensionMismatch("lincombo instrument needs qubit-shaped states")
    gram = np.array(
        [[np.vdot(v0, v0), np.vdot(v0, v1)], [np.vdot(v1, v0), np.vdot(v1, v1)]]
    )
    m = lincombo_pair_M(alpha0, alpha1, beta, gram)
    b = asarray(beta)
    sigma = QuantumState.pure(b / np.linalg.norm(b), label="C")
    return build_qsp_instrument(sigma, m, n)


# ---------------------------------------------------------------------------
# power pipeline (iterated QHP)


def power_pipeline_states(psi, k: int) -> list[np.ndarray]:
    """Stage-by-stage pure-state chain of iterated QHP instruments.

    Each stage applies the CNOT-ladder unitary to (previous (x) psi) and keeps
    the all-zero postselection branch, whose amplitudes are exactly the next
    power. Returns [psi, psi^2, ..., psi^k] (unnormalized weighted vectors).
    """
    v = asarray(psi)
    d = v.shape[0]
    n = int(round(math.log2(d)))
    if 2**n != d:
        raise DimensionMismatch("power pipeline needs qubit-shaped states")
    inst = build_qhp_instrument(n)
    states = [v]
    cur = v
    for _ in range(k - 1):
        joint = np.kron(cur, v)
        out = inst.unitary.apply_vector(joint)
        # M = |0..0><0..0| on the second register: branch vector is column 0
        cur = out.reshape(d, d)[:, 0].copy()
        states.append(cur)
    return states


# ---------------------------------------------------------------------------
# polynomial pipeline


@dataclass(frozen=True)
class PolySpec:
    """Coefficient table alpha_{kl} of sum_{k,l} alpha_{kl} psi^k (psi*)^l."""

    terms: dict

    def __post_init__(self):
        clean = {}
        for key, c in self.terms.items():
            k, l = key
            if not (isinstance(k, int) and isinstance(l, int)):
                raise ValidationError("term powers must be integers")
            if k < 1 or l < 0:
                raise ValidationError(f"term ({k},{l}) out of range: need k>=1, l>=0")
            c = complex(c)
            if c != 0:
                clean[(k, l)] = c
        if not clean:
            raise ValidationError("polynomial needs at least one nonzero coefficient")
        object.__setattr__(self, "terms", clean)

    @property
    def max_k(self) -> int:
        return max(k for k, _ in self.terms)

    @property
    def max_l(self) -> int:
        return max(l for _, l in self.terms)

    @property
    def chi(self) -> int:
        return max(self.max_k, self.max_l, 1)


@dataclass
class PolynomialPipeline:
    """Stack program over the primitives, with gate accounting.

    ops entries: ("psi",) push the input; ("qhp",) and ("gqt",) pop two and
    push the product with the top (conjugated for gqt); ("lincombo", c0, c1)
    pops two and pushes the combination; ("scale", c) rescales the top
    classically (weight bookkeeping, no gates).
    """

    n_qubits: int
    chi: int
    ops: list = field(default_factory=list)
    gate_count: int = 0

    def stage_instruments(self, psi):
        """Replay the program, yielding (op, instrument, inputs, expected)
        tuples for every gate-bearing stage; used to check the program against
        apply_exact stage by stage."""
        v = asarray(psi)
        n = self.n_qubits
        stack: list[np.ndarray] = []
        for op in self.ops:
            operands = _step(stack, op, v)
            if operands is None:
                continue
            if op[0] == "qhp":
                inst = build_qhp_instrument(n)
            elif op[0] == "gqt":
                inst = build_gqt_instrument(n)
            else:
                beta = np.array([1, 1]) / math.sqrt(2)
                inst = build_lincombo_instrument(op[1], op[2], beta, *operands)
            yield op, inst, operands, stack[-1]


def _step(stack: list, op: tuple, v: np.ndarray):
    """Run one pipeline op on the value stack. Returns the popped operands
    (a, b) of a two-operand op, None for 'psi' and 'scale'."""
    kind = op[0]
    if kind == "psi":
        stack.append(v)
        return None
    if kind == "scale":
        stack.append(op[1] * stack.pop())
        return None
    b, a = stack.pop(), stack.pop()
    if kind == "qhp":
        stack.append(a * b)
    elif kind == "gqt":
        stack.append(a * b.conj())
    elif kind == "lincombo":
        stack.append(op[1] * a + op[2] * b)
    else:
        raise ValidationError(f"unknown pipeline op {kind!r}")
    return a, b


def polynomial_pipeline(psi, spec: PolySpec) -> tuple[np.ndarray, PolynomialPipeline]:
    """Closed-form evaluation plus a primitive pipeline computing the same
    amplitude polynomial via Horner recursion in psi and psi*.

    Every linear-combination stage requires a nonvanishing overlap between its
    operands; violations raise OrthogonalIntermediate naming the stage.
    """
    v = asarray(psi)
    d = v.shape[0]
    n = int(round(math.log2(d)))
    if 2**n != d:
        raise DimensionMismatch("pipeline needs qubit-shaped states")
    exact = np.zeros(d, dtype=np.complex128)
    for (k, l), c in spec.terms.items():
        exact = exact + c * v**k * np.conj(v) ** l

    pipe = PolynomialPipeline(n_qubits=n, chi=spec.chi)
    stack_vals: list[np.ndarray] = []

    def emit(op, gates: int):
        pipe.ops.append(op)
        pipe.gate_count += gates
        operands = _step(stack_vals, op, v)
        if op[0] == "lincombo":
            a, b = operands
            na, nb = np.linalg.norm(a), np.linalg.norm(b)
            ov = 0.0 if na < 1e-14 or nb < 1e-14 else abs(np.vdot(a, b)) / (na * nb)
            if ov < ORTHOGONALITY_TOL:
                stage = sum(o[0] == "lincombo" for o in pipe.ops) - 1
                raise OrthogonalIntermediate(
                    stage, ov, f"stage {stage} ({op[3]}): intermediate overlap {ov:.3e} "
                    "below tolerance"
                )

    def plan_inner(l: int):
        """Push sum_k alpha_{kl} psi^k onto the stack."""
        ks = sorted(k for (k, ll) in spec.terms if ll == l)
        k_top = ks[-1]
        emit(("psi",), 0)
        c_top = spec.terms[(k_top, l)]
        if c_top != 1:
            emit(("scale", c_top), 0)
        for k in range(k_top - 1, 0, -1):
            emit(("psi",), 0)
            emit(("qhp",), GATES_QHP * n)
            c = spec.terms.get((k, l), 0)
            if c != 0:
                emit(("psi",), 0)
                emit(("lincombo", 1.0, c, f"add k={k},l={l}"), GATES_LINCOMBO * n)

    present = sorted({l for (_, l) in spec.terms}, reverse=True)
    plan_inner(present[0])
    prev_l = present[0]
    for l in present[1:]:
        for _ in range(prev_l - l):
            emit(("psi",), 0)
            emit(("gqt",), GATES_GQT * n)
        emit_l_stage = f"add column l={l}"
        plan_inner(l)
        # shadow-stack order: accumulated value below, fresh column on top
        emit(("lincombo", 1.0, 1.0, emit_l_stage), GATES_LINCOMBO * n)
        prev_l = l
    for _ in range(prev_l):
        emit(("psi",), 0)
        emit(("gqt",), GATES_GQT * n)

    got = stack_vals[-1]
    if not np.allclose(got, exact, atol=1e-10 * max(1.0, float(np.abs(exact).max()))):
        raise ConsistencyError("pipeline program disagrees with the closed form")
    bound = 150 * n * spec.chi**2
    if pipe.gate_count > bound:
        raise ConsistencyError(
            f"gate count {pipe.gate_count} exceeds 150*n*chi^2 = {bound}"
        )
    return exact, pipe


# ---------------------------------------------------------------------------
# realizability solver: which alpha admit sigma (.) M^T = alpha with pure
# 1-qubit sigma and normal M


def pauli_coeffs(m) -> np.ndarray:
    """(z_I, z_X, z_Y, z_Z) with m = sum z_P P."""
    a = asarray(m, square=True)
    return np.array([np.trace(a @ p) / 2.0 for p in _PAULIS.values()])


@dataclass(frozen=True)
class SolverSolution:
    theta: float
    sigma: np.ndarray
    m: np.ndarray


@dataclass(frozen=True)
class SolveResult:
    realizable: bool
    case: str  # diagonal | case1 | case2 | not-realizable
    solutions: tuple[SolverSolution, ...]
    detail: str


def _sigma_of_theta(theta: float) -> np.ndarray:
    return 0.5 * (
        _PAULIS["I"] + math.sin(theta) * _PAULIS["X"] + math.cos(theta) * _PAULIS["Z"]
    )


def _pauli_combo(a: float, b: float, c: float, v: np.ndarray) -> np.ndarray:
    return (a + 1j * b) * _PAULIS["I"] + (1.0 + 1j * c) * (
        v[0] * _PAULIS["X"] + v[1] * _PAULIS["Y"] + v[2] * _PAULIS["Z"]
    )


def _verify_solution(alpha: np.ndarray, sol: SolverSolution, gamma: np.ndarray):
    recon = sol.sigma * sol.m.T * gamma
    scale = max(1.0, float(np.abs(alpha).max()))
    if float(np.abs(recon - alpha).max()) > 1e-8 * scale:
        raise ConsistencyError("solver produced an inaccurate (sigma, M) pair")
    if classify(sol.m) == "nonnormal":
        raise ConsistencyError("solver produced a non-normal M")


def solve_qsp_realizable(alpha, gamma=None) -> SolveResult:
    """Classify a 2x2 coefficient matrix by whether a single instrument with a
    pure one-qubit ancilla and a normal measurement realizes it.

    Cases: 'diagonal' (free ancilla phase, canonical theta = pi/2);
    'case1' (alpha is a global phase times a Hermitian matrix: an infinite
    family, returned at the canonical theta = pi/2); 'case2' (generic: exactly
    two ancilla states, theta = +/- arccos R); or not-realizable. The ancilla
    is parameterized as sigma = (I + sin(theta) X + cos(theta) Z)/2; a free
    overall phase on the off-diagonals is absorbed into M by conjugation with
    a diagonal phase unitary, so sigma can be taken real.
    """
    a = asarray(alpha, square=True)
    if a.shape != (2, 2):
        raise DimensionMismatch("alpha must be 2x2")
    g = gamma_in() if gamma is None else asarray(gamma, square=True)
    if float(np.abs(g).min()) < 1e-12:
        raise ValidationError("gamma has a vanishing entry")
    a_eff = a / g  # solve sigma (.) M^T = alpha / gamma entrywise
    scale = max(1.0, float(np.abs(a_eff).max()))
    tol = 1e-9 * scale

    # diagonal alpha: sigma free, M diagonal
    if abs(a_eff[0, 1]) <= 1e-12 * scale and abs(a_eff[1, 0]) <= 1e-12 * scale:
        m = np.diag([2.0 * a_eff[0, 0], 2.0 * a_eff[1, 1]]).astype(np.complex128)
        sol = SolverSolution(math.pi / 2.0, _sigma_of_theta(math.pi / 2.0), m)
        _verify_solution(a, sol, g)
        return SolveResult(
            True, "diagonal", (sol,),
            "ancilla free (any theta with nonzero diagonal); theta=pi/2 shown",
        )

    if abs(abs(a_eff[0, 1]) - abs(a_eff[1, 0])) > tol:
        return SolveResult(
            False, "not-realizable", (),
            "|alpha_01| != |alpha_10|: normal M forces equal magnitudes",
        )

    z = pauli_coeffs(a_eff)

    # case 1: all Pauli coefficients share one complex phase
    w = z[np.argmax(np.abs(z))]
    w_hat = w / abs(w)
    if float(np.abs(np.imag(z * np.conj(w_hat))).max()) <= tol:
        rotated = abs(w_hat.real) < abs(w_hat.imag)
        zz = z * (-1j) if rotated else z
        h, s = zz.real, zz.imag
        k = (s[np.argmax(np.abs(h))]) / (h[np.argmax(np.abs(h))])
        aa = 2.0 * h[0]
        m = _pauli_combo(aa, k * aa, k, np.array([2 * h[1], -2 * h[2], 2 * h[3]]))
        if rotated:
            m = 1j * m
        sol = SolverSolution(math.pi / 2.0, _sigma_of_theta(math.pi / 2.0), m)
        _verify_solution(a, sol, g)
        return SolveResult(
            True, "case1", (sol,),
            "alpha = phase * Hermitian: one-parameter family, theta=pi/2 shown",
        )

    # case 2: z_X and z_Y must be mutually phase-aligned
    if abs(np.imag(z[1] * np.conj(z[2]))) > tol * max(1.0, abs(z[1]) * abs(z[2])):
        return SolveResult(
            False, "not-realizable", (),
            "off-diagonal Pauli coefficients are not phase-aligned",
        )
    w = z[1] if abs(z[1]) >= abs(z[2]) else z[2]
    rotated = abs(w.real) < abs(w.imag)
    zz = z * (-1j) if rotated else z
    h, s = zz.real, zz.imag
    hw, sw = (h[1], s[1]) if abs(zz[1]) >= abs(zz[2]) else (h[2], s[2])
    c = sw / hw
    den = s[0] - c * h[0]
    if abs(den) <= 1e-12 * scale:
        return SolveResult(
            False, "not-realizable", (),
            "diagonal constraints are degenerate (R undefined)",
        )
    big_r = (s[3] - c * h[3]) / den
    if not -1.0 < big_r < 1.0:
        return SolveResult(
            False, "not-realizable", (),
            f"R = {big_r:.6g} outside (-1, 1): no pure ancilla exists",
        )
    sols = []
    for theta in (math.acos(big_r), -math.acos(big_r)):
        ct, st = math.cos(theta), math.sin(theta)
        design = np.array(
            [[1, 0, ct], [0, 1, c * ct], [ct, 0, 1], [0, ct, c]], dtype=float
        )
        y = np.array([2 * h[0], 2 * s[0], 2 * h[3], 2 * s[3]])
        (aa, bb, vz), *_ = np.linalg.lstsq(design, y, rcond=None)
        m = _pauli_combo(aa, bb, c, np.array([2 * h[1] / st, -2 * h[2] / st, vz]))
        # bb is determined as k*aa analogue through the system; c fixed above
        m = m if not rotated else 1j * m
        sol = SolverSolution(theta, _sigma_of_theta(theta), m)
        _verify_solution(a, sol, g)
        sols.append(sol)
    return SolveResult(
        True, "case2", tuple(sols), "exactly two pure ancilla states (theta = +/- arccos R)"
    )
