"""Linear combinations of many states: three preparation/estimation routes.

all-at-once: a single instrument with an (L+1)-level measured ancilla and a
controlled register permutation produces |Phi><Phi|, Phi = sum alpha_l phi_l,
in one shot per sample.

incoherent: estimate <Phi|V^dag O V|Phi> term by term, diagonal entries from
direct measurements and cross terms from Hadamard tests, with the shot budget
split proportionally to the term prefactors.

LCU: prepare Phi by postselecting a select-ancilla, trading shots for a
success probability (|Phi| / |alpha|_1)^2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConsistencyError,
    DimensionMismatch,
    FullyDestructive,
    InvalidState,
    NotUnitary,
    ValidationError,
    VanishingOverlapProduct,
    ZeroBeta,
)
from .instrument import (
    MeasurementOperator,
    QuantumInstrument,
    QuantumState,
    WeightedState,
    apply_exact,
)
from .sampling import EstimatorReport, _check_hermitian_obs, allocate_shots, sample_counts
from .tensor import (
    PermutationUnitary,
    Register,
    RegisterLayout,
    _pauli_string,
    asarray,
    combine_digits,
    eigenbasis,
    register_digits,
    spectral_norm,
    unitarity_residual,
)

OVERLAP_FLOOR = 1e-9
GRAM_PSD_TOL = 1e-9


@dataclass(frozen=True)
class LcsProblem:
    """L+1 normalized states with combination coefficients alpha.

    unitaries, when present, prepare the states from |0>; otherwise
    preparation circuits are synthesized as Householder reflections.
    """

    states: tuple
    alphas: tuple
    unitaries: tuple | None = None
    gram: np.ndarray = None

    def __post_init__(self):
        states = tuple(asarray(s) for s in self.states)
        if not states:
            raise ValidationError("need at least one state")
        d = states[0].shape[0]
        for s in states:
            if s.shape != (d,):
                raise DimensionMismatch("states must share one dimension")
            if abs(np.linalg.norm(s) - 1.0) > 1e-10:
                raise InvalidState("combination states must be normalized")
        alphas = tuple(complex(a) for a in self.alphas)
        if len(alphas) != len(states):
            raise DimensionMismatch(
                f"{len(alphas)} coefficients for {len(states)} states"
            )
        if self.unitaries is not None:
            us = tuple(asarray(u, square=True) for u in self.unitaries)
            if len(us) != len(states):
                raise DimensionMismatch("one preparation unitary per state")
            for u, s in zip(us, states):
                if unitarity_residual(u) > 1e-10:
                    raise ValidationError("preparation matrix is not unitary")
                if float(np.abs(u[:, 0] - s).max()) > 1e-10:
                    raise ValidationError("unitary does not prepare its state from |0>")
            object.__setattr__(self, "unitaries", us)
        gram = np.empty((len(states), len(states)), dtype=np.complex128)
        for i, si in enumerate(states):
            for j, sj in enumerate(states):
                gram[i, j] = np.vdot(si, sj)
        if self.gram is not None:
            given = asarray(self.gram, square=True)
            if given.shape != gram.shape or float(np.abs(given - gram).max()) > 1e-8:
                raise ValidationError("supplied gram matrix disagrees with the states")
        if float(np.linalg.eigvalsh((gram + gram.conj().T) / 2).min()) < -GRAM_PSD_TOL:
            raise ValidationError("gram matrix is not positive semidefinite")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "gram", gram)

    @staticmethod
    def from_states(states, alphas) -> "LcsProblem":
        return LcsProblem(tuple(states), tuple(alphas))

    @staticmethod
    def from_unitaries(unitaries, alphas) -> "LcsProblem":
        us = tuple(asarray(u, square=True) for u in unitaries)
        return LcsProblem(tuple(u[:, 0].copy() for u in us), tuple(alphas), us)

    @property
    def count(self) -> int:
        return len(self.states)

    @property
    def dim(self) -> int:
        return self.states[0].shape[0]

    @property
    def target(self) -> np.ndarray:
        """Phi = sum_l alpha_l phi_l (unnormalized)."""
        out = np.zeros(self.dim, dtype=np.complex128)
        for a, s in zip(self.alphas, self.states):
            out += a * s
        return out

    def preparation(self, l: int) -> np.ndarray:
        if self.unitaries is not None:
            return self.unitaries[l]
        return preparation_unitary(self.states[l])


def preparation_unitary(phi) -> np.ndarray:
    """Unitary with phi as its first column (Householder reflection)."""
    v = asarray(phi)
    d = v.shape[0]
    if abs(np.linalg.norm(v) - 1.0) > 1e-10:
        raise InvalidState("can only prepare a normalized state")
    phase = v[0] / abs(v[0]) if abs(v[0]) > 1e-14 else 1.0
    e0 = np.zeros(d, dtype=np.complex128)
    e0[0] = 1.0
    w = v - phase * e0
    nw = float(np.linalg.norm(w))
    if nw < 1e-14:
        u = np.eye(d, dtype=np.complex128)
    else:
        w = w / nw
        u = np.eye(d, dtype=np.complex128) - 2.0 * np.outer(w, w.conj())
    u[:, 0] *= phase  # H maps phase*e0 -> v, so fold the phase into column 0
    return u


# ---------------------------------------------------------------------------
# all-at-once


def default_permutations(count: int) -> tuple[tuple[int, ...], ...]:
    """Cyclic register assignments pi_l(k) = (l + k) mod count; pi_l(0) = l
    puts state l on the output register in branch l."""
    return tuple(
        tuple((l + k) % count for k in range(count)) for l in range(count)
    )


def _check_permutations(perms, count: int):
    if len(perms) != count:
        raise ValidationError(f"need {count} permutations, got {len(perms)}")
    for l, p in enumerate(perms):
        if sorted(p) != list(range(count)):
            raise ValidationError(f"branch {l}: {p} is not a permutation")
        if p[0] != l:
            raise ValidationError(
                f"branch {l}: permutation must place state {l} on the output register"
            )


def all_at_once_M(problem: LcsProblem, beta, permutations=None) -> MeasurementOperator:
    """Hermitian ancilla measurement undoing the branch overlap products.

    M[l', l] = alpha_l alpha_l'^* / (beta_l beta_l'^* prod_{k>=1}
    <phi_{pi_l'(k)} | phi_{pi_l(k)}>). Any factor below 1e-9 in magnitude is
    rejected, naming the offending (l, l', k) triple.
    """
    count = problem.count
    b = asarray(beta)
    if b.shape != (count,):
        raise DimensionMismatch("one ancilla amplitude per state")
    if float(np.abs(b).min()) < 1e-12:
        raise ZeroBeta("all ancilla amplitudes must be nonzero")
    perms = default_permutations(count) if permutations is None else tuple(
        tuple(p) for p in permutations
    )
    _check_permutations(perms, count)
    alphas = problem.alphas
    gram = problem.gram
    m = np.zeros((count, count), dtype=np.complex128)
    for l in range(count):
        for lp in range(l, count):
            prod = 1.0 + 0.0j
            for k in range(1, count):
                f = gram[perms[lp][k], perms[l][k]]
                if abs(f) < OVERLAP_FLOOR:
                    raise VanishingOverlapProduct(l, lp, k, abs(f))
                prod *= f
            val = alphas[l] * np.conj(alphas[lp]) / (b[l] * np.conj(b[lp]) * prod)
            m[lp, l] = val
            m[l, lp] = np.conj(val)
    return MeasurementOperator(m, "hermitian")


def build_all_at_once_instrument(
    problem: LcsProblem, beta, permutations=None
) -> QuantumInstrument:
    """Ancilla-controlled register permutation with the overlap-compensating
    ancilla measurement; applying it to (phi_0, ..., phi_L) yields
    |Phi><Phi| exactly."""
    count, d = problem.count, problem.dim
    meas = all_at_once_M(problem, beta, permutations)
    perms = default_permutations(count) if permutations is None else tuple(
        tuple(p) for p in permutations
    )
    regs = [Register("A", count, role="E", source="ancilla")]
    regs.append(Register("R0", d, role="S", source="input"))
    regs.extend(
        Register(f"R{k}", d, role="G", source="input") for k in range(1, count)
    )
    layout = RegisterLayout.of(*regs)
    digits = register_digits(layout)
    anc = digits[0]
    out_digits = [anc] + [np.zeros_like(anc) for _ in range(count)]
    for l in range(count):
        sel = anc == l
        for k in range(count):
            # branch l places input register pi_l(k) at position k
            out_digits[1 + k][sel] = digits[1 + perms[l][k]][sel]
    perm = combine_digits(out_digits, layout.dims)
    b = asarray(beta)
    anc_state = QuantumState(layout.sub(("A",)), vector=b)
    return QuantumInstrument(
        layout, ancilla=anc_state, unitary=PermutationUnitary(perm), measurement=meas
    )


def all_at_once_apply(problem: LcsProblem, beta=None, permutations=None) -> WeightedState:
    """Exact weighted output |Phi><Phi| of the all-at-once instrument."""
    if beta is None:
        beta = np.full(problem.count, 1.0 / math.sqrt(problem.count))
    inst = build_all_at_once_instrument(problem, beta, permutations)
    return apply_exact(inst, [QuantumState.pure(s) for s in problem.states])


# ---------------------------------------------------------------------------
# observable decompositions


@dataclass(frozen=True)
class PauliDecomposition:
    """O = sum_i eta_i U_i with unitary (Pauli-string) terms."""

    terms: tuple
    target: np.ndarray

    def __post_init__(self):
        t = asarray(self.target, square=True)
        terms = tuple((complex(c), asarray(u, square=True)) for c, u in self.terms)
        if not terms:
            raise ValidationError("decomposition needs at least one term")
        acc = np.zeros_like(t)
        for c, u in terms:
            if u.shape != t.shape:
                raise DimensionMismatch("term dimension differs from the target")
            if unitarity_residual(u) > 1e-10:
                raise ValidationError("decomposition terms must be unitary")
            acc = acc + c * u
        if float(np.abs(acc - t).max()) > 1e-10:
            raise ValidationError("terms do not reconstruct the target observable")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "target", t)

    @property
    def one_norm(self) -> float:
        return float(sum(abs(c) for c, _ in self.terms))


def pauli_decompose(obs) -> PauliDecomposition:
    """Expand a qubit observable in the Pauli-string basis, dropping
    coefficients below 1e-12."""
    o = asarray(obs, square=True)
    d = o.shape[0]
    n = int(round(math.log2(d)))
    if 2**n != d:
        raise DimensionMismatch("Pauli expansion needs a 2^n-dimensional observable")
    terms = []
    for labels in itertools.product("IXYZ", repeat=n):
        p = _pauli_string(labels)
        eta = complex(np.trace(p @ o)) / d
        if abs(eta) > 1e-12:
            terms.append((eta, p))
    return PauliDecomposition(tuple(terms), o)


# ---------------------------------------------------------------------------
# incoherent estimation


def hadamard_test(u, part: str, shots: int, seed: int, stream_key: tuple = ()) -> float:
    """Estimate Re or Im of <0|u|0> from +-1 shots: P(+1) = (1 +- value)/2."""
    mat = asarray(u, square=True)
    if unitarity_residual(mat) > 1e-10:
        raise NotUnitary("Hadamard test needs a unitary")
    if part not in ("re", "im"):
        raise ValidationError(f"part must be 're' or 'im', got {part!r}")
    val = complex(mat[0, 0])
    target = val.real if part == "re" else val.imag
    p_plus = min(max((1.0 + target) / 2.0, 0.0), 1.0)
    counts = sample_counts(np.array([p_plus, 1.0 - p_plus]), shots, seed, stream_key)
    return float((counts[0] - counts[1]) / shots)


def incoherent_exact(problem: LcsProblem, v, obs) -> float:
    """Infinite-shot value sum_{l,l'} alpha_l alpha_l'^* <phi_l'|V^dag O V|phi_l>."""
    o = asarray(obs, square=True)
    d = problem.dim
    vv = np.eye(d, dtype=np.complex128) if v is None else asarray(v, square=True)
    o_eff = vv.conj().T @ o @ vv
    total = 0.0j
    for l, (al, sl) in enumerate(zip(problem.alphas, problem.states)):
        for lp, (alp, slp) in enumerate(zip(problem.alphas, problem.states)):
            total += al * np.conj(alp) * np.vdot(slp, o_eff @ sl)
    return float(total.real)


def incoherent_estimate(
    problem: LcsProblem,
    v,
    obs_decomposition: PauliDecomposition,
    shots: int,
    seed: int,
    workers: int = 1,
) -> EstimatorReport:
    """Term-by-term estimate of <Phi|V^dag O V|Phi>.

    Diagonal terms measure O directly in V|phi_l>; cross terms estimate
    Re/Im <phi_l'|V^dag U_i V|phi_l> with Hadamard tests per decomposition
    term. The budget is allocated proportionally to the term prefactors;
    every active circuit gets its own deterministic RNG stream.
    """
    if shots < 1:
        raise ValidationError("shot count must be >= 1")
    o = _check_hermitian_obs(obs_decomposition.target)
    d = problem.dim
    vv = np.eye(d, dtype=np.complex128) if v is None else asarray(v, square=True)
    if unitarity_residual(vv) > 1e-10:
        raise NotUnitary("the processing circuit must be unitary")
    o_eff = vv.conj().T @ o @ vv
    o_vals, o_vecs, o_labels = eigenbasis(o_eff)
    count = problem.count
    o_norm = spectral_norm(o)

    # circuit plan: (prefactor used in the estimate, max variance, exact
    # per-shot distribution described by (values, probabilities))
    circuits = []
    for l in range(count):
        amps = o_vecs.conj().T @ problem.states[l]
        weights_full = np.abs(amps) ** 2
        probs = np.zeros(len(o_vals))
        np.add.at(probs, o_labels, weights_full)
        pref = abs(problem.alphas[l]) ** 2
        circuits.append((pref, o_norm**2, o_vals.real, probs))
    for l in range(count):
        for lp in range(l + 1, count):
            cross = problem.alphas[l] * np.conj(problem.alphas[lp])
            for eta, u in obs_decomposition.terms:
                z = complex(
                    np.vdot(problem.states[lp], vv.conj().T @ u @ vv @ problem.states[l])
                )
                w = cross * eta
                for pref, target in ((2.0 * w.real, z.real), (-2.0 * w.imag, z.imag)):
                    if pref == 0:
                        continue
                    p_plus = min(max((1.0 + target) / 2.0, 0.0), 1.0)
                    circuits.append(
                        (pref, 1.0, np.array([1.0, -1.0]), np.array([p_plus, 1 - p_plus]))
                    )

    alloc = allocate_shots([abs(c[0]) for c in circuits], shots)
    estimate = 0.0
    sample_var = 0.0
    analytic_var = 0.0
    bound = 0.0
    for idx, ((pref, maxvar, values, probs), s_c) in enumerate(zip(circuits, alloc)):
        if s_c == 0:
            continue
        counts = sample_counts(probs, s_c, seed, stream_key=(idx,), workers=workers)
        mean_c = float(np.dot(counts, values) / s_c)
        estimate += pref * mean_c
        exact_mean = float(np.dot(probs, values))
        exact_var = float(np.dot(probs, values**2)) - exact_mean**2
        analytic_var += pref**2 * exact_var / s_c
        bound += pref**2 * maxvar / s_c
        if s_c > 1:
            var_c = (float(np.dot(counts, values**2)) - s_c * mean_c**2) / (s_c - 1)
            sample_var += pref**2 * max(var_c, 0.0) / s_c
    exact_total = incoherent_exact(problem, v, o)
    return EstimatorReport(
        shots=shots,
        seed=seed,
        sample_mean=complex(estimate),
        sample_variance=float(sample_var * shots),
        analytic_mean=complex(exact_total),
        analytic_variance=float(analytic_var * shots),
        variance_bound=float(bound * shots),
    )


# ---------------------------------------------------------------------------
# LCU preparation


@dataclass(frozen=True)
class LcuResult:
    """Postselected preparation of Phi / |Phi|."""

    state: np.ndarray
    success_probability: float
    norm: float  # |Phi|
    prep: np.ndarray
    select: np.ndarray

    def to_json(self) -> dict:
        return {
            "state": [[z.real, z.imag] for z in self.state],
            "success_probability": self.success_probability,
            "norm": self.norm,
        }


def lcu_prepare(problem: LcsProblem) -> LcuResult:
    """Statevector simulation of PREP^dag . SELECT . PREP postselected on the
    ancilla |0>; the surviving branch is Phi / |alpha|_1."""
    count, d = problem.count, problem.dim
    alphas = np.array(problem.alphas)
    one_norm = float(np.abs(alphas).sum())
    if one_norm <= 0:
        raise ValidationError("all combination coefficients vanish")
    amps = np.sqrt(np.abs(alphas) / one_norm)
    prep = preparation_unitary(amps)
    select = np.zeros((count * d, count * d), dtype=np.complex128)
    for l in range(count):
        phase = alphas[l] / abs(alphas[l]) if abs(alphas[l]) > 0 else 1.0
        select[l * d : (l + 1) * d, l * d : (l + 1) * d] = phase * problem.preparation(l)
    joint = np.zeros(count * d, dtype=np.complex128)
    joint[0] = 1.0
    joint = np.kron(prep, np.eye(d)) @ joint
    joint = select @ joint
    joint = np.kron(prep.conj().T, np.eye(d)) @ joint
    branch = joint.reshape(count, d)[0]
    norm_sq = float(np.vdot(branch, branch).real)
    # cross-check against the Gram closed form |Phi|^2 / |alpha|_1^2
    phi_sq = float((alphas.conj() @ problem.gram @ alphas).real)
    if abs(norm_sq * one_norm**2 - phi_sq) > 1e-9 * max(1.0, phi_sq):
        raise ConsistencyError("LCU branch disagrees with the Gram closed form")
    if norm_sq <= 1e-24:
        raise FullyDestructive("the combination interferes to zero")
    state = branch / math.sqrt(norm_sq)
    return LcuResult(
        state=state,
        success_probability=norm_sq,
        norm=math.sqrt(norm_sq) * one_norm,
        prep=prep,
        select=select,
    )
