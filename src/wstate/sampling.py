"""Shot-based estimation of weighted-state expectation values.

The estimator draws joint (observable outcome, measurement outcome) pairs
from the instrument's output distribution and averages the product of the
observable eigenvalue with the measurement eigenvalue. Sampling is organized
in fixed-size blocks with per-block counter RNG streams, so results depend
only on (seed, shots), never on scheduling or worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    AllocationError,
    InvalidDistribution,
    OrthogonalInputs,
    ValidationError,
)
from .instrument import (
    MeasurementOperator,
    QuantumInstrument,
    Evolved,
    _mat,
    evolve,
    expectation,
    projected_outputs,
    weighted_output,
)
from .subroutines import ORTHOGONALITY_TOL, alpha_of, gamma_in, power_state, qsp_oracle
from .tensor import (
    asarray,
    dephase,
    eigenbasis,
    gram,
    is_hermitian,
    merge_values,
    spectral_groups,
    spectral_norm,
)

BLOCK_SHOTS = 1 << 14
_MASK64 = (1 << 64) - 1


# ---------------------------------------------------------------------------
# deterministic block sampling


def _block_counts(probs: np.ndarray, seed: int, stream_key: tuple, block: int, size: int) -> np.ndarray:
    ss = np.random.SeedSequence(entropy=seed & _MASK64, spawn_key=(*stream_key, block))
    rng = np.random.Generator(np.random.Philox(ss))
    return rng.multinomial(size, probs)


def sample_counts(
    probs, shots: int, seed: int, stream_key: tuple = (), workers: int = 1
) -> np.ndarray:
    """Multinomial counts over the given cells, drawn in 2^14-shot blocks.

    Block b uses the Philox stream spawned at (*stream_key, b) from the seed,
    and the counts are summed over blocks, so the result is a function of
    (seed, shots, stream_key) alone; workers only adds thread parallelism.
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValidationError("probabilities must form a nonempty vector")
    if float(p.min()) < -1e-12 or abs(float(p.sum()) - 1.0) > 1e-9:
        raise InvalidDistribution(
            f"cell probabilities sum to {float(p.sum()):.12f} with min {float(p.min()):.3e}"
        )
    p = np.clip(p, 0.0, None)
    p = p / p.sum()
    if shots < 0:
        raise ValidationError("shot count must be nonnegative")
    if workers < 1:
        raise ValidationError("workers must be >= 1")
    n_blocks = max(1, math.ceil(shots / BLOCK_SHOTS))
    sizes = [
        min(BLOCK_SHOTS, shots - b * BLOCK_SHOTS) for b in range(n_blocks)
    ]
    if workers == 1 or n_blocks == 1:
        parts = [
            _block_counts(p, seed, stream_key, b, sz)
            for b, sz in enumerate(sizes)
        ]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(
                pool.map(
                    lambda bs: _block_counts(p, seed, stream_key, bs[0], bs[1]),
                    enumerate(sizes),
                )
            )
    return np.sum(parts, axis=0, dtype=np.int64)


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
        if self.analytic_variance > self.variance_bound + 1e-12:
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


def _check_hermitian_obs(obs) -> np.ndarray:
    """O as a square array, Hermitian within NORMALITY_TOL of its scale."""
    o = asarray(obs, square=True)
    if not is_hermitian(o):
        raise ValidationError("observable must be Hermitian")
    return o


def _rescaled_parts(meas: MeasurementOperator) -> tuple[tuple[float, complex, object], ...]:
    """(q_k, scale_k, N_k) with q_k = |c_k|/sum|c| and scale_k = c_k/q_k.

    The sampled estimator draws part k with probability q_k and multiplies its
    eigenvalue by scale_k; for a normal M there is a single part with q=1.
    Each N_k is held in M's form, as MeasurementOperator.normal_parts gives it.
    """
    parts = meas.normal_parts()
    mags = np.array([abs(c) for c, _ in parts])
    keep = mags > 0
    total = float(mags.sum())
    out = []
    for (c, n), mag, k in zip(parts, mags, keep):
        if not k:
            continue
        q = mag / total
        out.append((q, c / q, n))
    if not out:
        raise ValidationError("measurement decomposition has no nonzero part")
    return tuple(out)


def _joint_cells(ev: Evolved, meas: MeasurementOperator, obs: np.ndarray):
    """Cell probabilities and complex weights of the per-shot estimator.

    Cells enumerate (merged observable eigenvalue, merged scaled measurement
    eigenvalue) pairs. Spectral group g of part k, drawn with probability q_k,
    carries the value scale_k lambda_g and the probability
    q_k sum_{a in i} <o_a| E_g |o_a> in the cell of observable group i, with
    E_g the weighted output of the group's projector, so no d_E x d_E array
    is formed for a structured M. Groups of different parts share a cell when
    their scaled values agree within DEGENERACY_TOL times the largest. This is
    the law of the instrument emulate_nonnormal builds: state
    rho_out (x) diag(q) and block measurement sum_k |k><k| (x) scale_k N_k.
    """
    o_vals, o_vecs, o_labels = eigenbasis(obs)
    cells: list[np.ndarray] = []
    scaled: list[np.ndarray] = []
    for q, scale, nk in _rescaled_parts(meas):
        groups = spectral_groups(nk)
        outs = np.array(projected_outputs(ev, groups))
        cells.append(q * np.einsum("sa,gst,ta->ga", o_vecs.conj(), outs, o_vecs).real)
        scaled.append(scale * np.array([val for val, _ in groups]))
    values = np.concatenate(scaled)
    labels, merged = merge_values(values, float(np.abs(values).max()))
    table = np.zeros((len(merged), len(o_vals)))
    np.add.at(table, (labels[:, None], o_labels[None, :]), np.concatenate(cells))
    p = table.T.ravel()
    w = (o_vals.real[:, None] * merged[None, :]).ravel()
    total = float(p.sum())
    if abs(total - 1.0) > 1e-9 or float(p.min()) < -1e-9:
        raise InvalidDistribution(
            f"joint outcome probabilities sum to {total:.12f} (min {float(p.min()):.3e})"
        )
    return np.clip(p, 0.0, None), w


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
    (default) measures the instrument that emulate_nonnormal builds, which
    adds a part-selection register; 'randomized' draws a decomposition part
    per shot and rescales its eigenvalue. Both give the estimator the same
    law, so both draw from the one cell table of _joint_cells, and method is
    only validated: it does not change the draws.

    The input is evolved once through inst, and the cells, the analytic mean,
    the variance and its bound all come from that evolution. The emulating
    instrument is never built: its cells are the parts' cells summed over
    equal scaled eigenvalues.
    """
    if shots < 1:
        raise ValidationError("shot count must be >= 1")
    o = _check_hermitian_obs(obs)
    if method not in ("emulate", "randomized"):
        raise ValidationError(f"unknown sampling method {method!r}")
    meas = inst.measurement
    ev = evolve(inst, inputs)
    probs, weights = _joint_cells(ev, meas, o)
    counts = sample_counts(probs, shots, seed, workers=workers)
    total_w = np.dot(counts, weights)
    mean = total_w / shots
    second = float(np.dot(counts, np.abs(weights) ** 2).real)
    if shots > 1:
        sample_var = (second - shots * abs(mean) ** 2) / (shots - 1)
    else:
        sample_var = 0.0
    a_mean = expectation(weighted_output(ev, meas.operator), o)
    eye_s = np.eye(ev.dims[0], dtype=np.complex128)
    a_second, mean_m2 = _second_moments(ev, meas, (o @ o, eye_s))
    return EstimatorReport(
        shots=shots,
        seed=seed,
        sample_mean=complex(mean),
        sample_variance=float(max(sample_var, 0.0)),
        analytic_mean=complex(a_mean),
        analytic_variance=float(a_second - abs(a_mean) ** 2),
        variance_bound=float(spectral_norm(o) ** 2 * mean_m2),
    )


# ---------------------------------------------------------------------------
# exact variance and bounds


def _second_moments(ev: Evolved, meas: MeasurementOperator, ops) -> list[float]:
    """sum_k (|c_k|^2/q_k) Tr[rho_out (A (x) N_k N_k^dag (x) I)] for each A_S in
    ops, contracting each N_k N_k^dag once, in the form N_k is held in."""
    out = [0.0] * len(ops)
    for q, scale, nk in _rescaled_parts(meas):
        w = weighted_output(ev, gram(nk))
        for i, a in enumerate(ops):
            out[i] += q * abs(scale) ** 2 * np.einsum("st,ts->", w, a).real
    return out


def variance_exact(inst: QuantumInstrument, inputs, obs) -> float:
    """Per-shot variance of the sampled estimator:
    sum_k (|c_k|^2/q_k) Tr[rho_out (O^2 (x) N_k N_k^dag (x) I)] - |Tr tau O|^2."""
    o = _check_hermitian_obs(obs)
    ev = evolve(inst, inputs)
    (second,) = _second_moments(ev, inst.measurement, (o @ o,))
    mean = expectation(weighted_output(ev, inst.measurement.operator), o)
    return float(second - abs(mean) ** 2)


@dataclass(frozen=True)
class VarianceBounds:
    """b1 = |O|^2 <|M|^2> (state-dependent), b2 = |O|^2 |M|^2 (worst case);
    variance_exact <= b1 <= b2."""

    b1: float
    b2: float

    def to_json(self) -> dict:
        return {"b1": self.b1, "b2": self.b2}


def variance_bound(inst: QuantumInstrument, inputs, obs_norm: float) -> VarianceBounds:
    if obs_norm < 0:
        raise ValidationError("observable norm must be nonnegative")
    ev = evolve(inst, inputs)
    eye_s = np.eye(ev.dims[0], dtype=np.complex128)
    (mean_m2,) = _second_moments(ev, inst.measurement, (eye_s,))
    worst = max(
        abs(scale) * spectral_norm(nk) for _, scale, nk in _rescaled_parts(inst.measurement)
    )
    b1 = obs_norm**2 * mean_m2
    b2 = obs_norm**2 * worst**2
    return VarianceBounds(float(b1), float(b2))


# ---------------------------------------------------------------------------
# closed-form variances of the named primitives


def variance_qhp(tau, obs, shots: int) -> float:
    """(Tr[tau O^2] - |Tr tau O|^2) / shots for the entrywise product's
    projective instrument."""
    o = _check_hermitian_obs(obs)
    t = _mat(tau)
    return float(
        (expectation(t, o @ o).real - abs(expectation(t, o)) ** 2) / shots
    )


def variance_gqt(sigma, rho, obs, shots: int) -> float:
    """(Tr[D(sigma) O^2] Tr rho - |Tr[(sigma (.) rho^T) O]|^2) / shots; the
    SWAP measurement squares to the identity, leaving only the dephased
    first input."""
    o = _check_hermitian_obs(obs)
    s, r = _mat(sigma), _mat(rho)
    tau = s * r.T
    second = expectation(dephase(s), o @ o).real * np.trace(r).real
    return float((second - abs(expectation(tau, o)) ** 2) / shots)


def variance_qsp(sigma, m, rho0, rho1, obs, shots: int) -> float:
    """Per-run variance of the controlled-SWAP instrument in closed form."""
    o = _check_hermitian_obs(obs)
    s = _mat(sigma)
    mm = asarray(m, square=True)
    r0, r1 = _mat(rho0), _mat(rho1)
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
    g = gamma_in(np.trace(rho0), np.trace(rho1))
    return qsp_oracle(rho0, rho1, alpha_of(sigma, m, g))


def variance_lincombo(alpha0, alpha1, beta0, states, obs, shots: int) -> float:
    """Closed-form per-run variance of the pairwise linear combination.

    states = (psi0, psi1), normalized; beta0 is the first ancilla amplitude
    (q = |beta0|^2 of the ancilla weight sits on the first input).
    """
    o = _check_hermitian_obs(obs)
    p0, p1 = (asarray(v) for v in states)
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
    if epsilon <= 0 or not 0 < delta < 1:
        raise ValidationError("need epsilon > 0 and 0 < delta < 1")
    if obs_norm <= 0 or m_norm <= 0:
        raise ValidationError("norms must be positive")
    return math.ceil(2.0 * (obs_norm * m_norm) ** 2 * math.log(2.0 / delta) / epsilon**2)


def allocate_shots(weights, total: int) -> list[int]:
    """Split a shot budget proportionally to nonnegative weights.

    Uses largest-remainder rounding, then guarantees every nonzero weight at
    least one shot. Zero weights get zero shots.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValidationError("weights must form a nonempty vector")
    if float(w.min()) < 0:
        raise ValidationError("weights must be nonnegative")
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
    starved = [i for i in range(w.size) if nonzero[i] and base[i] == 0]
    for i in starved:
        donor = int(np.argmax(base))
        if base[donor] <= 1:
            raise AllocationError("cannot give every circuit a shot")
        base[donor] -= 1
        base[i] = 1
    return [int(x) for x in base]


# ---------------------------------------------------------------------------
# incoherent post-processing variance


def variance_postprocessing(problem, obs_decomposition, total_shots: int, v=None) -> float:
    """Variance of the pairwise estimate assembled from direct diagonal
    measurements plus Hadamard tests, under proportional shot allocation.

    problem must have exactly two states; obs_decomposition is a
    PauliDecomposition of the observable. The allocation is treated as
    continuous, which is the infinite-total limit of the integer allocator.
    """
    from .lcs import PauliDecomposition

    if not isinstance(obs_decomposition, PauliDecomposition):
        raise ValidationError("need a PauliDecomposition of the observable")
    states = problem.states
    if len(states) != 2:
        raise ValidationError("post-processing variance is defined for pairs")
    p0, p1 = states
    a0, a1 = problem.alphas
    o = obs_decomposition.target
    d = o.shape[0]
    vv = np.eye(d, dtype=np.complex128) if v is None else asarray(v, square=True)
    o_eff = vv.conj().T @ o @ vv
    o2 = o_eff @ o_eff
    e = [float(np.vdot(p, o2 @ p).real) for p in (p0, p1)]
    m = [float(np.vdot(p, o_eff @ p).real) for p in (p0, p1)]
    diag_var = [e[0] - m[0] ** 2, e[1] - m[1] ** 2]
    cross = a0 * np.conj(a1)
    weights = [abs(a0) ** 2, abs(a1) ** 2]
    terms = [abs(a0) ** 2 * diag_var[0], abs(a1) ** 2 * diag_var[1]]
    for eta, u in obs_decomposition.terms:
        z = complex(np.vdot(p1, vv.conj().T @ asarray(u, square=True) @ vv @ p0))
        w = cross * eta
        a_i, b_i = 2.0 * w.real, -2.0 * w.imag
        if a_i != 0:
            weights.append(abs(a_i))
            terms.append(abs(a_i) * (1.0 - z.real**2))
        if b_i != 0:
            weights.append(abs(b_i))
            terms.append(abs(b_i) * (1.0 - z.imag**2))
    big_w = sum(weights)
    return big_w * sum(terms) / total_shots


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
    o = _check_hermitian_obs(obs)
    r0, r1 = _mat(rho0), _mat(rho1)
    d = r0.shape[0]
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
    o = _check_hermitian_obs(obs)
    v = asarray(psi)
    vk = power_state(v, k)
    o2 = o @ o
    mean_sq = abs(np.vdot(vk, o @ vk)) ** 2
    var_qhp = float(np.vdot(vk, o2 @ vk).real - mean_sq)
    rho = np.outer(v, v.conj())
    var_gqt = float(expectation(dephase(rho), o2).real - mean_sq)
    return PowerComparison(var_qhp, var_gqt)
