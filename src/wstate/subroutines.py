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
    ControlledSwap,
    LowRankOperator,
    PermutationUnitary,
    Register,
    RegisterLayout,
    classify,
    Xor,
    combine_digits,
    operand,
)

ORTHOGONALITY_TOL = 1e-6

# two-qubit-equivalent gate counts per primitive on n qubits: a CNOT ladder is
# n gates, a SWAP measurement 2n, a controlled-SWAP 3n Toffolis at 6 each
GATES_QHP = 1
GATES_GQT = 3
GATES_LINCOMBO = 18


# ---------------------------------------------------------------------------
# oracles


def qhp(a, b) -> np.ndarray:
    """Entrywise (Hadamard) product of two states."""
    a = _mat(a, what="a")
    return a * _mat(b, len(a), "b")


def gqt(sigma, rho) -> np.ndarray:
    """sigma (.) rho^T; with sigma = |+..+><+..+| this is rho^T / d."""
    s = _mat(sigma, what="sigma")
    return s * _mat(rho, len(s), "rho").T


def power_state(psi, k: int) -> np.ndarray:
    """Amplitude-wise k-th power; k=1 is the identity."""
    if k < 1:
        raise ValidationError(f"power k must be >= 1, got {k}")
    return operand(psi, what="psi", ndim=1) ** k


def qsp_oracle(rho0, rho1, alpha) -> np.ndarray:
    """a00 rho0 + a11 rho1 + a01 rho0 rho1 + a10 rho1 rho0."""
    r0 = _mat(rho0, what="rho0")
    r1 = _mat(rho1, len(r0), "rho1")
    a = operand(alpha, 2, "alpha")
    return a[0, 0] * r0 + a[1, 1] * r1 + a[0, 1] * (r0 @ r1) + a[1, 0] * (r1 @ r0)


def teleport_map(sigma, maps, rho) -> np.ndarray:
    """(1/d) sigma (.) E(rho) with E(rho) = sum_m K_m rho J_m.

    maps is a list of (J, K) operator pairs defining the measurement
    deformation; (I, I) recovers standard teleportation up to the 1/d^2
    success weight.
    """
    s = _mat(sigma, what="sigma")
    d = len(s)
    r = _mat(rho, d, "rho")
    e_rho = np.zeros_like(r)
    for j, k in maps:
        j, k = operand(j, d, "map J"), operand(k, d, "map K")
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
    s = _mat(sigma, 2, "sigma")
    mm = operand(m, 2, "M")
    g = gamma_in() if gamma is None else operand(gamma, 2, "gamma")
    return s * mm.T * g


# ---------------------------------------------------------------------------
# instrument builders


def build_qhp_instrument(n: int) -> QuantumInstrument:
    """CNOT ladder (i,j) -> (i, i xor j), held as an Xor, with all-zero
    postselection on the second register; realizes the entrywise product."""
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
        unitary=Xor(("S", "E"), layout),
        measurement=MeasurementOperator.of(np.diag(np.eye(1, d, dtype=np.complex128)[0])),
    )


def build_gqt_instrument(n: int) -> QuantumInstrument:
    """CNOT coupling of the input onto a |0..0> register plus a SWAP
    measurement against the second input; realizes sigma (.) rho^T.

    The ladder is an Xor of S onto E1, so an evolution of two pieces takes
    the copy route (instrument._route). The SWAP |i j> -> |j i> on (E1, E2)
    is held as a PermutationUnitary, so no d^2 x d^2 matrix is built unless
    a caller reads measurement.matrix.
    """
    if n < 1:
        raise ValidationError("qubit count must be >= 1")
    d = 2**n
    layout = RegisterLayout.of(
        Register("S", d, role="S", source="input"),
        Register("E1", d, role="E", source="ancilla"),
        Register("E2", d, role="E", source="input"),
    )
    anc = QuantumState(layout.sub(("E1",)), vector=np.eye(1, d, dtype=np.complex128)[0])
    swap = PermutationUnitary(combine_digits(np.indices((d, d), sparse=True)[::-1], (d, d)))
    return QuantumInstrument(
        layout,
        ancilla=anc,
        unitary=Xor(("S", "E1"), layout),
        measurement=MeasurementOperator.of(swap),
    )


def build_qsp_instrument(sigma, m, n: int) -> QuantumInstrument:
    """Controlled-SWAP instrument with a one-qubit measured ancilla.

    Realizes qsp_oracle with alpha = sigma (.) M^T (.) gamma_in, where
    gamma_in picks up the input traces. U is a ControlledSwap on (C; S, G):
    an evolution takes the blocks route (instrument._route), 4 d^2 entries. A
    document carries its table, which reads back as the same ControlledSwap.
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
        s = np.asarray(sigma)
        anc = (
            QuantumState(layout.sub(("C",)), vector=s)
            if s.ndim == 1
            else QuantumState(layout.sub(("C",)), density=s)
        )
    meas = m if isinstance(m, MeasurementOperator) else MeasurementOperator.of(m)
    return QuantumInstrument(layout, anc, ControlledSwap(("C", "S", "G"), layout), meas)


def build_teleport_instrument(n: int, maps) -> QuantumInstrument:
    """Teleportation-type instrument: inputs rho (A) and sigma (B), ancilla
    |0..0> (C, the output), CNOT ladder B -> C (an Xor, so an evolution of
    two pieces takes the copy), and the deformed Bell measurement
    sum_m (J_m (x) I)|Phi+><Phi+|(K_m (x) I) on (A, B).

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
    anc = QuantumState(layout.sub(("C",)), vector=np.eye(1, d, dtype=np.complex128)[0])
    us, vs = [], []
    for j, k in maps:
        j, k = operand(j, d, "map J"), operand(k, d, "map K")
        # (J (x) I)|Phi+> = vec(J)/sqrt(d); <Phi+|(K (x) I) row = vec(K^T)/sqrt(d)
        us.append(j.ravel())
        vs.append(k.T.ravel().conj() / d)
    factors = [np.array(f, dtype=np.complex128).reshape(-1, d * d).T for f in (us, vs)]
    return QuantumInstrument(
        layout,
        ancilla=anc,
        unitary=Xor(("B", "C"), layout),
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
    if trace_rho0 == 0 or trace_rho1 == 0:
        raise ValidationError("input traces must be nonzero")
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
    b = operand(beta, 2, "beta", ndim=1)
    if min(abs(b[0]), abs(b[1])) < 1e-12:
        raise ZeroBeta("both ancilla amplitudes must be nonzero")
    g = operand(gram, 2, "gram")
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
    v0 = operand(psi0, what="psi0", ndim=1)
    v1 = operand(psi1, len(v0), "psi1", ndim=1)
    d = v0.shape[0]
    n = int(round(math.log2(d)))
    if 2**n != d:
        raise DimensionMismatch("lincombo instrument needs qubit-shaped states")
    gram = np.array(
        [[np.vdot(v0, v0), np.vdot(v0, v1)], [np.vdot(v1, v0), np.vdot(v1, v1)]]
    )
    m = lincombo_pair_M(alpha0, alpha1, beta, gram)
    b = np.asarray(beta, dtype=np.complex128)
    sigma = QuantumState.pure(b / np.linalg.norm(b))
    return build_qsp_instrument(sigma, m, n)


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
    v = operand(psi, what="psi", ndim=1)
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


def _verify_solution(alpha: np.ndarray, sol: SolverSolution, gamma: np.ndarray):
    recon = sol.sigma * sol.m.T * gamma
    if float(np.abs(recon - alpha).max()) > 1e-8 * float(np.abs(alpha).max()):
        raise ConsistencyError("solver produced an inaccurate (sigma, M) pair")
    if classify(sol.m) == "nonnormal":
        raise ConsistencyError("solver produced a non-normal M")


def solve_qsp_realizable(alpha, gamma=None) -> SolveResult:
    """Classify a 2x2 coefficient matrix by whether a single instrument with a
    pure one-qubit ancilla and a normal measurement realizes it.

    Closed form: with A = alpha / gamma entrywise, M = (A / sigma)^T. The
    ancilla sigma = (I + sin(theta) X + cos(theta) Z)/2 can be taken real (a
    phase on its off-diagonals cancels out of normality), and the 2x2 M is
    then normal iff |A_01| = |A_10| and p / sigma_00 = q / sigma_11, where
    u = exp(-i (arg A_01 + arg A_10) / 2), p = Im(u A_00), q = Im(u A_11).

    Cases: 'diagonal' (A_01 = A_10 = 0: sigma free, canonical theta = pi/2);
    'case1' (p = q = 0: alpha is a global phase times a Hermitian matrix, an
    infinite family returned at theta = pi/2); 'case2' (p q > 0: exactly two
    ancilla states, sigma_00 = |p| / (|p| + |q|), theta = +/- 2 atan2(
    sqrt(sigma_11), sqrt(sigma_00)), which is +/- arccos((p - q)/(p + q))
    without its cancellation near 0 and pi); or 'not-realizable'. Every
    tolerance is relative to max|A|. Within tolerance, M is built from u^* times
    the Hermitian part of u A plus i diag(p, q) (with p = q = 0 in case1), so
    it is normal to working precision.
    """
    a = operand(alpha, 2, "alpha")
    g = gamma_in() if gamma is None else operand(gamma, 2, "gamma")
    if float(np.abs(g).min()) < 1e-12:
        raise ValidationError("gamma has a vanishing entry")
    a_eff = a / g
    scale = float(np.abs(a_eff).max())
    tol = 1e-9 * scale
    r01, r10 = abs(a_eff[0, 1]), abs(a_eff[1, 0])
    u = np.exp(-0.5j * (np.angle(a_eff[0, 1]) + np.angle(a_eff[1, 0])))
    b = u * a_eff
    p, q = b[0, 0].imag, b[1, 1].imag

    theta, signs, s00, s11 = math.pi / 2.0, (1.0,), 0.5, 0.5
    if r01 <= 1e-12 * scale and r10 <= 1e-12 * scale:
        case = "diagonal"
        detail = "ancilla free (any theta with nonzero diagonal); theta=pi/2 shown"
    elif abs(r01 - r10) > tol:
        return SolveResult(
            False, "not-realizable", (),
            "|alpha_01| != |alpha_10|: normal M forces equal magnitudes",
        )
    elif abs(p) <= tol and abs(q) <= tol:
        case = "case1"
        detail = "alpha = phase * Hermitian: one-parameter family, theta=pi/2 shown"
        p = q = 0.0
    elif np.sign(p) != np.sign(q):
        return SolveResult(
            False, "not-realizable", (),
            f"p = {p:.6g} and q = {q:.6g} do not share a sign: no pure ancilla exists",
        )
    else:
        case = "case2"
        detail = "exactly two pure ancilla states (theta = +/- arccos((p-q)/(p+q)))"
        s00, s11 = abs(p) / (abs(p) + abs(q)), abs(q) / (abs(p) + abs(q))
        theta, signs = 2.0 * math.atan2(math.sqrt(s11), math.sqrt(s00)), (1.0, -1.0)

    a_hat = np.conj(u) * ((b + b.conj().T) / 2.0 + 1j * np.diag([p, q]))
    sols = []
    for sign in signs:
        s01 = sign * math.sqrt(s00 * s11)
        sigma = np.array([[s00, s01], [s01, s11]], dtype=np.complex128)
        sol = SolverSolution(sign * theta, sigma, (a_hat / sigma).T)
        _verify_solution(a, sol, g)
        sols.append(sol)
    return SolveResult(True, case, tuple(sols), detail)
