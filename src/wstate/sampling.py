"""Shot-based estimation of weighted-state expectation values.

The estimator draws joint (observable outcome, measurement outcome) pairs
from the instrument's output distribution and averages the product of the
observable eigenvalue with the measurement eigenvalue. Every sampled call
draws from one counter-based (Philox) stream of its seed (_stream), all of
its shots at once, so results depend only on (seed, shots), never on
scheduling or worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AllocationError,
    InvalidDistribution,
    OrthogonalInputs,
    ValidationError,
)
from .instrument import (
    QuantumInstrument,
    _mat,
    evolve,
    expectation,
    projected_outputs,
)
from .tensor import (
    _eigenbasis,
    dephase,
    is_hermitian,
    operand,
)

_MASK64 = (1 << 64) - 1
_MAX_SHOTS = (1 << 63) - 1


# ---------------------------------------------------------------------------
# deterministic sampling


def _stream(seed: int) -> np.random.Generator:
    """The one stream of a sampled call: the Philox generator the seed
    spawns at (0,)."""
    ss = np.random.SeedSequence(entropy=seed & _MASK64, spawn_key=(0,))
    return np.random.Generator(np.random.Philox(ss))


def _laws(probs: np.ndarray) -> np.ndarray:
    """The laws along the last axis of probs, clipped at 0 and scaled to sum
    1; InvalidDistribution unless each sums to 1 within 1e-9 with no entry
    below -1e-12."""
    off = np.abs(probs.sum(axis=-1) - 1.0)
    if not (off <= 1e-9).all() or (probs < -1e-12).any():
        raise InvalidDistribution(f"cell probabilities sum {float(off.max()):.3e} away "
                                  f"from 1, with min {float(probs.min()):.3e}")
    p = np.clip(probs, 0.0, None)
    return p / p.sum(axis=-1, keepdims=True)


def sample_counts(probs, shots: int, seed: int) -> np.ndarray:
    """Multinomial counts over the given cells, every shot drawn at once
    from the seed's stream (_stream), so the result is a function of (seed,
    shots) alone. shots must fit the multinomial's int64 count."""
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValidationError("probabilities must form a nonempty vector")
    law = _laws(p)
    if not 0 <= shots <= _MAX_SHOTS:
        raise ValidationError("shot count must lie in [0, 2**63 - 1]")
    return _stream(seed).multinomial(shots, law)


# ---------------------------------------------------------------------------
# estimator reports


@dataclass(frozen=True)
class EstimatorReport:
    """Outcome of a shot run. All variances are per-shot: the variance of the
    s-shot mean is variance / s."""

    shots: int
    seed: int
    sample_mean: complex
    sample_variance: float
    analytic_mean: complex
    analytic_variance: float
    variance_bound: float

    def __post_init__(self):
        if self.analytic_variance - self.variance_bound > 1e-12 * abs(self.variance_bound):
            raise ValidationError(
                f"analytic variance {self.analytic_variance} exceeds its bound "
                f"{self.variance_bound}"
            )

    @property
    def standard_error(self) -> float:
        return math.sqrt(max(self.analytic_variance, 0.0) / max(self.shots, 1))

    def to_json(self) -> dict:
        return {
            "shots": self.shots,
            "seed": self.seed,
            "sample_mean": [self.sample_mean.real, self.sample_mean.imag],
            "sample_variance": self.sample_variance,
            "analytic_mean": [self.analytic_mean.real, self.analytic_mean.imag],
            "analytic_variance": self.analytic_variance,
            "variance_bound": self.variance_bound,
        }


def _check_shots(shots: int) -> None:
    """ValidationError unless 1 <= shots <= 2**63 - 1."""
    if not 1 <= shots <= _MAX_SHOTS:
        raise ValidationError("shot count must lie in [1, 2**63 - 1]")


def _check_hermitian_obs(obs, dim: int | None = None) -> np.ndarray:
    """O as a square array (of size dim when given), Hermitian within
    NORMALITY_TOL of its scale."""
    o = operand(obs, dim, "observable")
    if not is_hermitian(o):
        raise ValidationError("observable must be Hermitian")
    return o


def _observable_basis(inst: QuantumInstrument, obs) -> _Law:
    """The estimator's _Law on inst's output in the eigenbasis of a
    Hermitian O, kept in inst's plan for the last observable read.

    The key is O's shape, dtype and a BLAKE2b digest of its bytes, not a
    copy of them, so an O edited in place is checked, decomposed and given
    a new law.
    """
    import hashlib  # the command line does not load it otherwise

    o = np.asarray(obs, dtype=np.complex128)
    key = (o.shape, o.dtype.str, hashlib.blake2b(np.ascontiguousarray(o)).digest())
    kept = inst._plan.get("observable")
    if kept is None or kept[0] != key:
        d = inst.layout.dim_of(inst.s_labels)
        basis = _eigenbasis(_check_hermitian_obs(o, d), True)
        kept = inst._plan["observable"] = (key, _law(inst.measurement.rows, basis, d))
    return kept[1]


@dataclass(frozen=True)
class _Law:
    """What the estimator's law takes from M's rows and a basis b_a alone:
    M's groups, the b_a (vecs; None for the computational basis), the rows'
    q, the flat cell index[r A + a] = labels[r] + len(merged) obs_labels[a]
    of row r and column a, the cells' weights (cell i + len(merged) j
    carries merged[i] times observable eigenvalue j) and |weights|^2,
    cols[k] = o^k for k = 0, 1, 2 with o[a] the eigenvalue of b_a, and the
    rows' qv = q value and qv2 = q |value|^2."""

    groups: list
    vecs: np.ndarray | None
    q: np.ndarray
    index: np.ndarray
    weights: np.ndarray
    weights2: np.ndarray
    cols: np.ndarray
    qv: np.ndarray
    qv2: np.ndarray


def _law(rows, basis, d: int) -> _Law:
    """The _Law of M's rows (q, value, labels, merged, groups) in the
    eigenbasis (values, vectors, labels) of O, or in the computational
    basis of the d-dim output (one eigenvalue 1) when basis is None."""
    q, value, labels, merged, groups = rows
    o_vals, o_vecs, o_labels = basis or (np.ones(1), None, np.zeros(d, dtype=np.intp))
    o = o_vals.real[o_labels]
    weights = (o_vals.real[:, None] * merged[None, :]).ravel()
    return _Law(
        groups=groups,
        vecs=o_vecs,
        q=q,
        index=(labels[:, None] + len(merged) * o_labels[None, :]).ravel(),
        weights=weights,
        weights2=np.abs(weights) ** 2,
        cols=np.stack((o**0, o, o**2)),
        qv=q * value,
        qv2=q * np.abs(value) ** 2,
    )


@dataclass(frozen=True)
class _GroupTable:
    """The estimator's law from one evolution: its kept _Law and t[r, a] =
    <b_a|E_g|b_a>, row r being group g of normal part k (drawn with
    probability q_k, value scale_k lambda_g) and E_g the weighted output of
    its projector. Every statistic of the estimator is a sum over it."""

    law: _Law
    t: np.ndarray

    def mean(self) -> complex:
        """sum_k c_k sum_g lambda_g Tr(E_g O) = Tr(tau O), as W(N_k) =
        sum_g lambda_g E_g."""
        return complex(self.law.qv @ (self.t @ self.law.cols[1]))

    def second_moment(self, power: int) -> float:
        """sum_k q_k |scale_k|^2 sum_g |lambda_g|^2 Tr(E_g O^power): the
        per-shot second moment for power 2, <|M|^2> for power 0, as
        W(N_k N_k^dag) = sum_g |lambda_g|^2 E_g."""
        return float((self.law.qv2 @ (self.t @ self.law.cols[power])).real)


def _group_table(ev, law: _Law) -> _GroupTable:
    """The _GroupTable of an evolution over the rows and basis of law
    (_law): t[r] is E_g's diagonal in the computational basis, read without
    a product, and otherwise one GEMM and einsum with the basis. One
    projected_outputs call contracts each projector form once, so a
    structured M forms no d_E x d_E array."""
    outs = projected_outputs(ev, law.groups)
    if law.vecs is None:
        return _GroupTable(law, np.array([e.diagonal() for e in outs]))
    return _GroupTable(law, np.einsum("sa,gsa->ga", law.vecs.conj(), np.array(outs) @ law.vecs))


def _joint_cells(table: _GroupTable):
    """Cell probabilities and complex weights of the per-shot estimator.

    Cells enumerate (merged observable eigenvalue, merged scaled measurement
    eigenvalue) pairs: row r of the table puts q[r] t[r, a] into the cell of
    b_a's observable group and its value's merged group, the law's kept
    flat index, summed by one np.bincount in row order. Groups of different
    parts share a cell when their scaled values agree within DEGENERACY_TOL
    times the largest. This is the law of measuring rho_out (x) diag(q) with
    the block measurement sum_k |k><k| (x) scale_k N_k, a normal one.
    """
    law = table.law
    p = np.bincount(law.index, (law.q[:, None] * table.t.real).ravel(), len(law.weights))
    total = float(p.sum())
    if not math.isfinite(total) or abs(total - 1.0) > 1e-9 or float(p.min()) < -1e-9:
        raise InvalidDistribution(
            f"joint outcome probabilities sum to {total:.12f} (min {float(p.min()):.3e})"
        )
    return np.maximum(p, 0.0), law.weights


def sample_estimate(
    inst: QuantumInstrument,
    inputs,
    obs,
    shots: int,
    seed: int,
    workers: int = 1,
    method: str = "emulate",
) -> EstimatorReport:
    """Shot-based estimate of Tr(tau O) with exact reference statistics.

    method names how a non-normal measurement is realized: 'emulate'
    (default) measures a part-selection register alongside it; 'randomized'
    draws a decomposition part per shot and rescales its eigenvalue. Both
    give the estimator the law of _joint_cells, so both draw from its one
    cell table. method and workers (at least 1) are only validated: they do
    not change the draws.

    The input is evolved once through inst and contracted once per distinct
    projector form of M's parts N_k = sum_g lambda_g P_g, giving the group
    outputs E_g = W(P_g). The cells, the analytic mean, the variance and its
    bound are all sums over that one group table: W(N_k) = sum_g lambda_g E_g
    and W(N_k N_k^dag) = sum_g |lambda_g|^2 E_g, with ||O|| the largest
    |eigenvalue| in the table. No emulating instrument is built: its cells
    are the parts' cells summed over equal scaled eigenvalues.

    Repeated on one task, it derives nothing again: the inputs keep their
    factor columns, M its rows, and inst's plan O's eigenbasis in the _Law
    of both (_observable_basis). A call evolves its input, forms t, sums
    the cells in one bincount, takes one GEMV per statistic and draws.
    """
    _check_shots(shots)
    law = _observable_basis(inst, obs)
    if method not in ("emulate", "randomized"):
        raise ValidationError(f"unknown sampling method {method!r}")
    if workers < 1:
        raise ValidationError("workers must be >= 1")
    table = _group_table(evolve(inst, inputs), law)
    probs, weights = _joint_cells(table)
    counts = _stream(seed).multinomial(shots, probs / probs.sum())
    mean = np.dot(counts, weights) / shots
    second = float(np.dot(counts, law.weights2).real)
    sample_var = (second - shots * abs(mean) ** 2) / (shots - 1) if shots > 1 else 0.0
    a_mean = table.mean()
    return EstimatorReport(
        shots=shots,
        seed=seed,
        sample_mean=complex(mean),
        sample_variance=float(max(sample_var, 0.0)),
        analytic_mean=a_mean,
        analytic_variance=table.second_moment(2) - abs(a_mean) ** 2,
        variance_bound=float(np.abs(law.cols[1]).max()) ** 2 * table.second_moment(0),
    )


# ---------------------------------------------------------------------------
# exact variance and bounds


def variance_exact(inst: QuantumInstrument, inputs, obs) -> float:
    """Per-shot variance of the sampled estimator:
    sum_k (|c_k|^2/q_k) Tr[rho_out (O^2 (x) N_k N_k^dag (x) I)] - |Tr tau O|^2,
    read from one group table through W(N_k N_k^dag) = sum_g |lambda_g|^2 E_g."""
    return _mean_and_variance(inst, inputs, obs)[1]


def _mean_and_variance(inst: QuantumInstrument, inputs, obs) -> tuple[complex, float]:
    """Tr(tau O) and variance_exact, both read from one group table."""
    table = _group_table(evolve(inst, inputs), _observable_basis(inst, obs))
    mean = table.mean()
    return mean, float(table.second_moment(2) - abs(mean) ** 2)


@dataclass(frozen=True)
class VarianceBounds:
    """b1 = |O|^2 <|M|^2> (state-dependent), b2 = |O|^2 |M|^2 (worst case);
    variance_exact <= b1 <= b2."""

    b1: float
    b2: float

    def to_json(self) -> dict:
        return {"b1": self.b1, "b2": self.b2}


def variance_bound(inst: QuantumInstrument, inputs, obs_norm: float) -> VarianceBounds:
    """b1 from one group table in the computational basis, where
    <|M|^2> = sum_k (|c_k|^2/q_k) sum_g |lambda_g|^2 Tr E_g by
    W(N_k N_k^dag) = sum_g |lambda_g|^2 E_g; b2 from the same rows'
    largest |value| = max_k |c_k/q_k| ||N_k||_2, a normal part's spectral
    norm being its largest |eigenvalue|."""
    if not math.isfinite(obs_norm) or obs_norm < 0:
        raise ValidationError("observable norm must be finite and nonnegative")
    ev = evolve(inst, inputs)
    table = _group_table(ev, _law(inst.measurement.rows, None, ev.dims[0]))
    b1 = obs_norm**2 * table.second_moment(0)
    b2 = obs_norm**2 * float(np.abs(inst.measurement.rows[1]).max()) ** 2
    return VarianceBounds(float(b1), float(b2))


# ---------------------------------------------------------------------------
# closed-form variances of the named primitives


def variance_qhp(tau, obs, shots: int) -> float:
    """(Tr[tau O^2] - |Tr tau O|^2) / shots for the entrywise product's
    projective instrument."""
    _check_shots(shots)
    t = _mat(tau, what="tau")
    o = _check_hermitian_obs(obs, len(t))
    return float(
        (expectation(t, o @ o).real - abs(expectation(t, o)) ** 2) / shots
    )


def variance_gqt(sigma, rho, obs, shots: int) -> float:
    """(Tr[D(sigma) O^2] Tr rho - |Tr[(sigma (.) rho^T) O]|^2) / shots; the
    SWAP measurement squares to the identity, leaving only the dephased
    first input."""
    _check_shots(shots)
    s = _mat(sigma, what="sigma")
    r = _mat(rho, len(s), "rho")
    o = _check_hermitian_obs(obs, len(s))
    tau = s * r.T
    second = expectation(dephase(s), o @ o).real * np.trace(r).real
    return float((second - abs(expectation(tau, o)) ** 2) / shots)


def variance_qsp(sigma, m, rho0, rho1, obs, shots: int) -> float:
    """Per-run variance of the controlled-SWAP instrument in closed form."""
    _check_shots(shots)
    s = _mat(sigma, 2, "sigma")
    mm = operand(m, 2, "M")
    r0 = _mat(rho0, what="rho0")
    r1 = _mat(rho1, len(r0), "rho1")
    o = _check_hermitian_obs(obs, len(r0))
    o2 = o @ o
    mm2 = mm @ mm.conj().T
    tau = qsp_from_parts(s, mm, r0, r1)
    second = (
        s[0, 0] * mm2[0, 0] * np.trace(r0 @ o2) * np.trace(r1)
        + s[1, 1] * mm2[1, 1] * np.trace(r1 @ o2) * np.trace(r0)
        + s[0, 1] * mm2[1, 0] * np.trace(r0 @ r1 @ o2)
        + s[1, 0] * mm2[0, 1] * np.trace(r1 @ r0 @ o2)
    )
    return float((second.real - abs(expectation(tau, o)) ** 2) / shots)


def qsp_from_parts(sigma, m, rho0, rho1) -> np.ndarray:
    from .subroutines import alpha_of, gamma_in, qsp_oracle

    g = gamma_in(np.trace(rho0), np.trace(rho1))
    return qsp_oracle(rho0, rho1, alpha_of(sigma, m, g))


def variance_lincombo(alpha0, alpha1, beta0, states, obs, shots: int) -> float:
    """Closed-form per-run variance of the pairwise linear combination.

    states = (psi0, psi1), normalized; beta0 is the first ancilla amplitude
    (q = |beta0|^2 of the ancilla weight sits on the first input).
    """
    from .subroutines import ORTHOGONALITY_TOL

    _check_shots(shots)
    if len(states) != 2:
        raise ValidationError(f"states must be a pair (psi0, psi1), got {len(states)}")
    psi0, psi1 = states
    p0 = operand(psi0, what="psi0", ndim=1)
    p1 = operand(psi1, len(p0), "psi1", ndim=1)
    o = _check_hermitian_obs(obs, len(p0))
    q = abs(beta0) ** 2
    if not 0 < q < 1:
        raise ValidationError("|beta0|^2 must lie strictly between 0 and 1")
    n0, n1 = float(np.vdot(p0, p0).real), float(np.vdot(p1, p1).real)
    g01 = np.vdot(p0, p1)
    r = abs(g01) ** 2
    if r / (n0 * n1) < ORTHOGONALITY_TOL**2:
        raise OrthogonalInputs("pair overlap vanishes; variance diverges")
    o2 = o @ o
    e0 = float(np.vdot(p0, o2 @ p0).real)
    e1 = float(np.vdot(p1, o2 @ p1).real)
    cross = np.vdot(p1, o2 @ p0)
    a0sq, a1sq = abs(alpha0) ** 2, abs(alpha1) ** 2
    comb = alpha0 * p0 + alpha1 * p1
    mean = np.vdot(comb, o @ comb)
    second = (
        a0sq**2 * e0 / (q * n1)
        + a0sq * a1sq * n1 * e0 / ((1 - q) * r)
        + a1sq**2 * e1 / ((1 - q) * n0)
        + a0sq * a1sq * n0 * e1 / (q * r)
        + 2.0
        * (a0sq / (q * n1) + a1sq / ((1 - q) * n0))
        * (alpha0 * np.conj(alpha1) * cross).real
    )
    return float((second - abs(mean) ** 2) / shots)


# ---------------------------------------------------------------------------
# ancilla weight design


@dataclass(frozen=True)
class BetaDesign:
    """Optimal ancilla weighting for a pairwise combination with coefficient
    split p and squared overlap r."""

    p: float
    r: float
    q_opt: float
    bound_at_opt: float

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "r": self.r,
            "q_opt": self.q_opt,
            "bound_at_opt": self.bound_at_opt,
        }


def beta_variance_bound(p: float, q: float, r: float) -> float:
    """f(p, q, r): the overlap-independent variance bound as a function of
    the ancilla weight q on the first state."""
    _check_pr(p, r)
    if not 0 < q < 1:
        raise ValidationError("q must lie strictly between 0 and 1")
    a = p * (p * r + (1.0 - p))
    b = (1.0 - p) * (p + (1.0 - p) * r)
    return (a / r) / q + (b / r) / (1.0 - q)


def _check_pr(p: float, r: float):
    if not 0 < p < 1:
        raise ValidationError(f"p must lie strictly between 0 and 1, got {p}")
    if not 0 < r <= 1:
        raise ValidationError(f"r must lie in (0, 1], got {r}")


def optimal_beta(p: float, r: float) -> BetaDesign:
    """Minimizer q* = sqrt(A)/(sqrt(A)+sqrt(B)) of f(p, q, r).

    Limits: r -> 0 gives q* -> 1/2; p = 1/2 gives q* = 1/2 exactly by
    symmetry; r = 1 gives sqrt(p)/(sqrt(p)+sqrt(1-p)).
    """
    _check_pr(p, r)
    a = p * (p * r + (1.0 - p))
    b = (1.0 - p) * (p + (1.0 - p) * r)
    sa, sb = math.sqrt(a), math.sqrt(b)
    q = sa / (sa + sb)
    return BetaDesign(p, r, q, beta_variance_bound(p, q, r))


# ---------------------------------------------------------------------------
# shot planning


def hoeffding_shots(epsilon: float, delta: float, obs_norm: float, m_norm: float) -> int:
    """Shots guaranteeing P(|mean - estimate| > epsilon) <= delta for
    eigenvalue products bounded by obs_norm * m_norm."""
    if not (0 < epsilon < math.inf and 0 < delta < 1):
        raise ValidationError("need a finite epsilon > 0 and 0 < delta < 1")
    if not (0 < obs_norm < math.inf and 0 < m_norm < math.inf):
        raise ValidationError("norms must be positive and finite")
    try:
        return math.ceil(2.0 * (obs_norm * m_norm) ** 2 * math.log(2.0 / delta) / epsilon**2)
    except (OverflowError, ZeroDivisionError):
        raise ValidationError("the shot count overflows a float") from None


def allocate_shots(weights, total: int) -> list[int]:
    """Split a shot budget proportionally to nonnegative weights.

    Uses largest-remainder rounding, then guarantees every nonzero weight at
    least one shot. Zero weights get zero shots.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValidationError("weights must form a nonempty vector")
    if not np.isfinite(w).all() or float(w.min()) < 0:
        raise ValidationError("weights must be finite and nonnegative")
    nonzero = w > 0
    k = int(nonzero.sum())
    if k == 0:
        raise AllocationError("all weights vanish")
    if total < k:
        raise AllocationError(f"{total} shots cannot cover {k} nonzero-weight circuits")
    raw = w / w.sum() * total
    base = np.floor(raw).astype(int)
    rem = total - int(base.sum())
    order = np.argsort(-(raw - base), kind="stable")
    base[order[:rem]] += 1
    # repair: move shots from the largest allocations onto starved circuits
    for i in np.flatnonzero(nonzero & (base == 0)):
        donor = int(np.argmax(base))
        if base[donor] <= 1:
            raise AllocationError("cannot give every circuit a shot")
        base[donor] -= 1
        base[i] = 1
    return base.tolist()


# ---------------------------------------------------------------------------
# method comparisons


@dataclass(frozen=True)
class ConcatComparison:
    """Per-shot variances of computing sigma (.) rho^T (.) rho' in one
    entrywise stage versus transposing first and multiplying after."""

    var_direct: float
    var_concat: float

    @property
    def difference(self) -> float:
        return self.var_concat - self.var_direct


def compare_concat_vs_direct(rho0, rho1, obs) -> ConcatComparison:
    """Direct: one instrument producing rho0 (.) rho1^T. Concatenated: a
    transpose stage (uniform ancilla, d-scaled SWAP measurement) feeding the
    entrywise stage. Both have the same mean; the concatenation pays a d^2
    factor on the second moment."""
    r0 = _mat(rho0, what="rho0")
    d = r0.shape[0]
    r1 = _mat(rho1, d, "rho1")
    o = _check_hermitian_obs(obs, d)
    tau = r0 * r1.T
    o2 = o @ o
    mean_sq = abs(expectation(tau, o)) ** 2
    second_direct = (expectation(dephase(r0), o2) * np.trace(r1)).real
    var_direct = second_direct - mean_sq
    var_concat = d * d * second_direct - mean_sq
    return ConcatComparison(float(var_direct), float(var_concat))


@dataclass(frozen=True)
class PowerComparison:
    """Per-shot variances of estimating <psi^k|O|psi^k> from the iterated
    entrywise pipeline versus the transpose-coupling route."""

    var_qhp: float
    var_gqt: float

    @property
    def difference(self) -> float:
        return self.var_qhp - self.var_gqt


def compare_power_methods(psi, k: int, obs) -> PowerComparison:
    from .subroutines import power_state

    v = operand(psi, what="psi", ndim=1)
    o = _check_hermitian_obs(obs, len(v))
    vk = power_state(v, k)
    o2 = o @ o
    mean_sq = abs(np.vdot(vk, o @ vk)) ** 2
    var_qhp = float(np.vdot(vk, o2 @ vk).real - mean_sq)
    rho = np.outer(v, v.conj())
    var_gqt = float(expectation(dephase(rho), o2).real - mean_sq)
    return PowerComparison(var_qhp, var_gqt)
