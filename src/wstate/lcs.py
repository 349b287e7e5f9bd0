"""Linear combinations of many states: three preparation/estimation routes.

all-at-once: a single instrument with an (L+1)-level measured ancilla and a
controlled register permutation produces |Phi><Phi|, Phi = sum alpha_l phi_l,
in one shot per sample.

incoherent: estimate <Phi|V^dag O V|Phi> term by term, diagonal entries from
measurements of O on V|phi_l> and cross terms from Hadamard tests, with the
shot budget split proportionally to the term prefactors and every circuit
drawn from the seed's one stream.

LCU: prepare Phi by postselecting a select-ancilla, trading shots for a
success probability (|Phi| / |alpha|_1)^2.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConsistencyError,
    DimensionMismatch,
    FullyDestructive,
    InvalidState,
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
from .sampling import (
    EstimatorReport,
    _check_hermitian_obs,
    _check_shots,
    _laws,
    _stream,
    allocate_shots,
)
from .tensor import (
    PermutationUnitary,
    Register,
    RegisterLayout,
    _PAULIS,
    _eigenbasis,
    check_unitary,
    combine_digits,
    norm_scale,
    operand,
    register_digits,
)

OVERLAP_FLOOR = 1e-9


@dataclass(frozen=True)
class LcsProblem:
    """L+1 normalized states with combination coefficients alpha.

    unitaries, when present, prepare the states from |0>: each is checked
    here to have its state as first column, so U_l|0> is states[l]. gram
    holds the overlaps <phi_i|phi_j>, computed from the states.
    """

    states: tuple
    alphas: tuple
    unitaries: tuple | None = None
    gram: np.ndarray = field(init=False)

    def __post_init__(self):
        if not len(self.states):
            raise ValidationError("need at least one state")
        d = len(operand(self.states[0], what="state 0", ndim=1))
        states = tuple(operand(s, d, f"state {l}", ndim=1) for l, s in enumerate(self.states))
        for s in states:
            if abs(np.linalg.norm(s) - 1.0) > 1e-10:
                raise InvalidState("combination states must be normalized")
        alphas = tuple(complex(a) for a in self.alphas)
        if not all(cmath.isfinite(a) for a in alphas):
            raise ValidationError("coefficients must be finite")
        if len(alphas) != len(states):
            raise DimensionMismatch(
                f"{len(alphas)} coefficients for {len(states)} states"
            )
        if self.unitaries is not None:
            us = tuple(operand(u, d, "preparation unitary") for u in self.unitaries)
            if len(us) != len(states):
                raise DimensionMismatch("one preparation unitary per state")
            for u, s in zip(us, states):
                check_unitary(u, "a preparation matrix")
                if float(np.abs(u[:, 0] - s).max()) > 1e-10:
                    raise ValidationError("unitary does not prepare its state from |0>")
            object.__setattr__(self, "unitaries", us)
        mat = np.array(states)
        gram = mat.conj() @ mat.T
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "gram", gram)

    @staticmethod
    def from_states(states, alphas) -> "LcsProblem":
        return LcsProblem(tuple(states), tuple(alphas))

    @staticmethod
    def from_unitaries(unitaries, alphas) -> "LcsProblem":
        us = tuple(operand(u, what="preparation unitary") for u in unitaries)
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
        return np.array(self.alphas) @ np.array(self.states)


# ---------------------------------------------------------------------------
# all-at-once


def default_permutations(count: int) -> tuple[tuple[int, ...], ...]:
    """Cyclic register assignments pi_l(k) = (l + k) mod count; pi_l(0) = l
    puts state l on the output register in branch l."""
    return tuple(
        tuple((l + k) % count for k in range(count)) for l in range(count)
    )


def all_at_once_M(problem: LcsProblem, beta) -> MeasurementOperator:
    """Hermitian ancilla measurement undoing the branch overlap products.

    M[l', l] = alpha_l alpha_l'^* / (beta_l beta_l'^* prod_{k>=1}
    <phi_{pi_l'(k)} | phi_{pi_l(k)}>). Any factor below 1e-9 in magnitude is
    rejected, naming the offending (l, l', k) triple.
    """
    count = problem.count
    b = operand(beta, count, "beta", ndim=1)
    if float(np.abs(b).min()) < 1e-12:
        raise ZeroBeta("all ancilla amplitudes must be nonzero")
    perms = default_permutations(count)
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


def build_all_at_once_instrument(problem: LcsProblem, beta) -> QuantumInstrument:
    """Ancilla-controlled register permutation with the overlap-compensating
    ancilla measurement; applying it to (phi_0, ..., phi_L) yields
    |Phi><Phi| exactly."""
    count, d = problem.count, problem.dim
    meas = all_at_once_M(problem, beta)
    perms = default_permutations(count)
    regs = [Register("A", count, role="E", source="ancilla")]
    regs.append(Register("R0", d, role="S", source="input"))
    regs.extend(
        Register(f"R{k}", d, role="G", source="input") for k in range(1, count)
    )
    layout = RegisterLayout.of(*regs)
    anc, *inputs = register_digits(layout)
    branch = [anc == l for l in range(count)]
    # branch l places input register pi_l(k) at position k
    out = [np.select(branch, [inputs[p[k]] for p in perms]) for k in range(count)]
    perm = combine_digits([anc, *out], layout.dims)
    anc_state = QuantumState(layout.sub(("A",)), vector=beta)
    return QuantumInstrument(
        layout, ancilla=anc_state, unitary=PermutationUnitary(perm), measurement=meas
    )


def all_at_once_apply(problem: LcsProblem, beta=None) -> WeightedState:
    """Exact weighted output |Phi><Phi| of the all-at-once instrument."""
    if beta is None:
        beta = np.full(problem.count, 1.0 / math.sqrt(problem.count))
    inst = build_all_at_once_instrument(problem, beta)
    return apply_exact(inst, [QuantumState.pure(s) for s in problem.states])


# ---------------------------------------------------------------------------
# observable decompositions


def _pauli_coefficients(a: np.ndarray) -> np.ndarray:
    """Tr(P a) / d for every Pauli word P on a 2^n x 2^n array a, word w at
    its base-4 index ("IXYZ" as digits, itertools.product order): each
    qubit's row and column index of a meet the Pauli table, last qubit first
    (Hantzko, Binkowski and Gupta, arXiv:2310.13421), with no Pauli string."""
    d = a.shape[0]
    n = d.bit_length() - 1
    # Tr(P a) = sum_{i,j} prod_k P_k[j_k, i_k] a[i, j]: the table's (column,
    # row) axes meet qubit k's (row, column) axes of a
    t = a.reshape((2,) * (2 * n))
    for _ in range(n):
        t = np.tensordot(_PAULIS, t, axes=([2, 1], [n - 1, t.ndim - 1]))
    return t.reshape(-1) / d


@dataclass(frozen=True)
class PauliDecomposition:
    """O = sum_i eta_i P_i, derived from the target O: terms holds the
    (eta, word) pairs with |eta| above 1e-12 * norm_scale(O), a word being a
    string over "IXYZ" whose first letter acts on the most significant qubit,
    in itertools.product("IXYZ") order."""

    target: np.ndarray
    terms: tuple = field(init=False)

    def __post_init__(self):
        t = operand(self.target, what="observable")
        d = t.shape[0]
        if d < 1 or d & (d - 1):
            raise DimensionMismatch("Pauli expansion needs a 2^n-dimensional observable")
        eta = _pauli_coefficients(t)
        keep = np.abs(eta) > 1e-12 * norm_scale(t)
        if not keep.any():
            raise ValidationError("decomposition needs at least one term")
        words = itertools.compress(itertools.product("IXYZ", repeat=d.bit_length() - 1), keep)
        terms = tuple((complex(c), "".join(w)) for c, w in zip(eta[keep], words))
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "target", t)


def pauli_decompose(obs) -> PauliDecomposition:
    """The Pauli-word expansion of a qubit observable (PauliDecomposition)."""
    return PauliDecomposition(obs)


# ---------------------------------------------------------------------------
# incoherent estimation


def incoherent_exact(problem: LcsProblem, v, obs) -> float:
    """Infinite-shot value Re <V Phi|O|V Phi>, the sum over l, l' of
    alpha_l alpha_l'^* <phi_l'|V^dag O V|phi_l> (None for V is the identity)."""
    o = operand(obs, problem.dim, "observable")
    phi = problem.target
    if v is not None:
        phi = operand(v, problem.dim, "processing circuit") @ phi
    return float(np.vdot(phi, o @ phi).real)


_Circuits = namedtuple("_Circuits", "pref mean var maxvar values table p_plus")


def _squares(x: np.ndarray) -> np.ndarray:
    """x**2 by the C library's pow, as a scalar power rounds it."""
    return np.array([t**2 for t in x.tolist()])


def _sum_in_order(x: np.ndarray) -> float:
    """The left-to-right sum of a loop, not np.sum's pairwise one."""
    return float(np.add.accumulate(x)[-1])


def _incoherent_circuits(problem: LcsProblem, v, obs_decomposition: PauliDecomposition):
    """The incoherent route's circuits as arrays (_Circuits), in order: the
    L+1 measurements of O on psi_l = V phi_l, then for each pair l < l' and
    kept word P_i a Re and an Im Hadamard test of <psi_l'|P_i|psi_l>, zero
    prefactors dropped. The estimate is sum_c pref[c] <outcome>_c, circuit
    c's law having mean mean[c] and per-shot variance var[c] <= maxvar[c],
    each rounded as for circuit c alone: measurement l draws O's merged
    eigenvalue values[g] with probability table[l, g], Hadamard test h +1
    with probability p_plus[h] and -1 otherwise. All words of a pair come
    from one transform of |psi_l><psi_l'|. V must be unitary (None is the
    identity)."""
    o = _check_hermitian_obs(obs_decomposition.target, problem.dim)
    psi = np.array(problem.states)
    if v is not None:
        v = operand(v, problem.dim, "processing circuit")
        check_unitary(v, "the processing circuit")
        psi = psi @ v.T
    o_vals, o_vecs, o_labels = _eigenbasis(o, True)
    values = o_vals.real
    table = [np.bincount(o_labels, np.abs(o_vecs.conj().T @ s) ** 2, len(values)) for s in psi]
    means = [float(np.dot(p, values)) for p in table]
    digits = str.maketrans("IXYZ", "0123")
    kept = [int("0" + word.translate(digits), 4) for _, word in obs_decomposition.terms]
    eta = np.array([eta for eta, _ in obs_decomposition.terms])
    a, pairs = problem.alphas, list(itertools.combinations(range(problem.count), 2))
    cross = np.array([a[l] * np.conj(a[lp]) for l, lp in pairs]).reshape(-1, 1)
    # <psi_l'|P|psi_l> = Tr(P |psi_l><psi_l'|)
    z = np.array([psi.shape[1] * _pauli_coefficients(np.outer(psi[l], psi[lp].conj()))[kept]
                  for l, lp in pairs]).reshape(-1, len(kept))
    # 2 Re and -2 Im of w = cross eta, in the real arithmetic of one product
    pref = np.stack((2.0 * (cross.real * eta.real - cross.imag * eta.imag),
                     -2.0 * (cross.real * eta.imag + cross.imag * eta.real)), -1).ravel()
    keep = pref != 0
    p_plus = np.clip((1.0 + np.stack((z.real, z.imag), -1).ravel()[keep]) / 2.0, 0.0, 1.0)
    q = 1.0 - p_plus
    return _Circuits(
        pref=np.concatenate(([abs(x) ** 2 for x in a], pref[keep])),
        mean=np.concatenate((means, p_plus - q)),
        var=np.concatenate(([float(np.dot(p, values**2)) - m**2 for p, m in zip(table, means)],
                            (p_plus + q) - _squares(p_plus - q))),
        maxvar=np.concatenate((np.full(len(table), float(np.abs(o_vals).max()) ** 2),
                               np.ones(len(q)))),
        values=values,
        table=np.array(table),
        p_plus=p_plus,
    )


def incoherent_estimate(problem: LcsProblem, v, obs_decomposition: PauliDecomposition,
                        shots: int, seed: int) -> EstimatorReport:
    """Term-by-term estimate of <Phi|V^dag O V|Phi> over the circuits of
    _incoherent_circuits, the budget allocated proportionally to their
    prefactors. All draw from the seed's one stream: the measurements of O
    with one multinomial over their table's rows, then every Hadamard test
    with one binomial. The analytic fields sum the circuits' terms in order.
    """
    _check_shots(shots)
    c = _incoherent_circuits(problem, v, obs_decomposition)
    alloc = np.array(allocate_shots(np.abs(c.pref), shots))
    n, stream = len(c.table), _stream(seed)
    counts = stream.multinomial(alloc[:n], _laws(c.table))
    plus = stream.binomial(alloc[n:], _laws(np.stack((c.p_plus, 1.0 - c.p_plus), -1))[:, 0])
    # each circuit's sums of outcomes and of squared outcomes
    s1 = np.concatenate((counts @ c.values, plus - (alloc[n:] - plus)))
    s2 = np.concatenate((counts @ c.values**2, alloc[n:]))
    on = alloc > 0
    s, pref, pref2 = alloc[on], c.pref[on], _squares(c.pref[on])
    mean = s1[on] / s
    var = np.where(s > 1, s2[on] - s * mean**2, 0.0) / np.maximum(s - 1, 1)
    return EstimatorReport(
        shots=shots,
        seed=seed,
        sample_mean=complex(np.sum(pref * mean)),
        sample_variance=float(np.sum(pref**2 * np.maximum(var, 0.0) / s) * shots),
        analytic_mean=complex(incoherent_exact(problem, v, obs_decomposition.target)),
        analytic_variance=_sum_in_order(pref2 * c.var[on] / s) * shots,
        variance_bound=_sum_in_order(pref2 * c.maxvar[on] / s) * shots,
    )


def variance_postprocessing(problem, obs_decomposition, total_shots: int, v=None) -> float:
    """Variance of the incoherent estimate under proportional shot allocation:
    W sum_c |pref_c| var_c / total_shots over the circuits of
    _incoherent_circuits, with W = sum_c |pref_c| and var_c the exact
    per-shot variance of circuit c.

    The allocation s_c = total_shots |pref_c| / W is treated as continuous,
    which is the infinite-total limit of the integer allocator.
    """
    _check_shots(total_shots)
    if not isinstance(obs_decomposition, PauliDecomposition):
        raise ValidationError("need a PauliDecomposition of the observable")
    c = _incoherent_circuits(problem, v, obs_decomposition)
    w = np.abs(c.pref)
    return _sum_in_order(w) * _sum_in_order(w * c.var) / total_shots


# ---------------------------------------------------------------------------
# LCU preparation


@dataclass(frozen=True)
class LcuResult:
    """Postselected preparation of Phi / |Phi|."""

    state: np.ndarray
    success_probability: float
    norm: float  # |Phi|

    def to_json(self) -> dict:
        return {
            "state": [[z.real, z.imag] for z in self.state],
            "success_probability": self.success_probability,
            "norm": self.norm,
        }


def lcu_prepare(problem: LcsProblem) -> LcuResult:
    """Statevector simulation of PREP^dag . SELECT . PREP postselected on the
    ancilla |0>; the surviving branch is Phi / |alpha|_1.

    The circuit is applied one ancilla branch at a time: PREP puts amplitude
    a_l = sqrt(|alpha_l| / |alpha|_1) on branch l, SELECT applies phase_l U_l
    to the register's |0> there, which gives phase_l states[l], and row 0 of
    PREP^dag weighs branch l by a_l again as it sums the branches into the
    postselected one. A vanishing alpha_l keeps phase 1.
    """
    alphas = np.array(problem.alphas)
    one_norm = float(np.abs(alphas).sum())
    if one_norm <= 0:
        raise ValidationError("all combination coefficients vanish")
    amps = np.sqrt(np.abs(alphas) / one_norm)
    branch = (amps * np.exp(1j * np.angle(alphas)) * amps) @ np.array(problem.states)
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
    )
