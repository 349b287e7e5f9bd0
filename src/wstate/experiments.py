"""Reproducible parameter sweeps over the estimators and variance models.

Each experiment is a named function from a parameter dict to a ResultTable;
run_experiment dispatches by name. Tables serialize to CSV with a single
commented metadata line, so reruns with the same seed are byte-identical
apart from the timestamp.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .errors import InvalidGrid, UnknownExperiment, ValidationError
from .lcs import LcsProblem, pauli_decompose, variance_postprocessing
from .sampling import (
    _MAX_SHOTS,
    _stream,
    beta_variance_bound,
    compare_power_methods,
    optimal_beta,
    variance_lincombo,
)
from .subroutines import power_state
from .tensor import _pauli_string, is_json_number, spectral_norm


@dataclass
class ResultTable:
    experiment: str
    columns: tuple
    rows: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add(self, *values):
        if len(values) != len(self.columns):
            raise ValidationError(
                f"{len(values)} values for {len(self.columns)} columns"
            )
        self.rows.append(tuple(values))

    def column(self, name: str) -> list:
        try:
            i = self.columns.index(name)
        except ValueError:
            raise ValidationError(f"no column named {name!r}") from None
        return [r[i] for r in self.rows]

    def to_csv(self) -> str:
        header = dict(self.metadata)
        header["experiment"] = self.experiment
        header["timestamp"] = datetime.now(timezone.utc).isoformat()
        lines = ["# " + json.dumps(header, sort_keys=True)]
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(_cell(v) for v in row))
        return "\n".join(lines) + "\n"


def _cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


# ---------------------------------------------------------------------------
# deterministic state families

FAMILY_FORMULAS = {
    "sin": "v_i = sin(pi (i+1) / (d+1))",
    "expdecay": "v_i = exp(-3 i / d)",
    "flat": "v_i = 1",
}


def family_state(family: str, n_qubits: int) -> np.ndarray:
    d = 2**n_qubits
    i = np.arange(d, dtype=np.float64)
    if family == "sin":
        v = np.sin(np.pi * (i + 1) / (d + 1))
    elif family == "expdecay":
        v = np.exp(-3.0 * i / d)
    elif family == "flat":
        v = np.ones(d)
    else:
        raise ValidationError(
            f"unknown state family {family!r}; choose from {sorted(FAMILY_FORMULAS)}"
        )
    return (v / np.linalg.norm(v)).astype(np.complex128)


def overlap_pair(dim: int, r: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Two states with squared overlap exactly r (0 < r <= 1)."""
    if not 0.0 < r <= 1.0:
        raise InvalidGrid(f"squared overlap must lie in (0, 1], got {r}")
    rng = np.random.default_rng(seed)
    u = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    u /= np.linalg.norm(u)
    w = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    w = w - np.vdot(u, w) * u
    w /= np.linalg.norm(w)
    psi1 = math.sqrt(r) * u + math.sqrt(1.0 - r) * w
    return u, psi1


# upper bounds of the integer parameters, by name, with the rule each keeps
_INT_LIMITS = {
    "n": (62, "62, the layout's qubit rule"),
    "shots": (_MAX_SHOTS, "2**63 - 1, the most shots one draw takes"),
}


def _int_param(params: dict, name: str, default: int, low: int) -> int:
    v = params.get(name, default)
    if not isinstance(v, (int, np.integer)) or isinstance(v, bool) or v < low:
        raise InvalidGrid(f"{name} must be an integer >= {low}, got {v!r}")
    high, rule = _INT_LIMITS.get(name, (None, ""))
    if high is not None and v > high:
        raise InvalidGrid(f"{name} must be at most {rule}, got {v!r}")
    return v


def _number(v, name: str) -> float:
    if not is_json_number(v):
        raise InvalidGrid(f"{name} must be a finite number, got {v!r}")
    return float(v)


def _grid(values, name: str, low: float, high: float, closed_high=True) -> list:
    if not isinstance(values, (list, tuple)) or not values:
        raise InvalidGrid(f"{name} grid must be a non-empty list of numbers")
    vals = [_number(v, name) for v in values]
    for v in vals:
        ok = low < v <= high if closed_high else low < v < high
        if not ok:
            raise InvalidGrid(f"{name}={v} outside ({low}, {high}{']' if closed_high else ')'}")
    return vals


def _power(psi, k: int, family: str) -> tuple[np.ndarray, float, float]:
    """(psi^k, its trace, |psi^k_0|^2) for the power sweeps; InvalidGrid once
    either number underflows to 0, as every later power's does too."""
    vk = power_state(psi, k)
    trace = float(np.vdot(vk, vk).real)
    exact = float(abs(vk[0]) ** 2)
    if exact == 0.0:
        what = "trace" if trace == 0.0 else "|psi^k_0|^2"
        raise InvalidGrid(f"family {family!r}: the {what} underflows to 0 at k = {k}; lower kmax")
    return vk, trace, exact


def _families(params: dict) -> list:
    families = params.get("families", sorted(FAMILY_FORMULAS))
    if not isinstance(families, (list, tuple)) or not all(
        isinstance(f, str) and f in FAMILY_FORMULAS for f in families
    ):
        raise InvalidGrid(f"families must be a list of names from {sorted(FAMILY_FORMULAS)}")
    return list(families)


# ---------------------------------------------------------------------------
# experiments


def power_error(params: dict, seed: int) -> ResultTable:
    """Entrywise power pipeline: surviving trace and estimator error vs k.

    rel_error is the analytic per-shot relative standard error
    sqrt((1-q)/(q s)) of the reweighted projector estimate at q =
    |psi^k_0|^2 / tr; sampled_rel_error is one binomial draw, the rows
    drawing in turn from the seed's one stream.
    """
    n = _int_param(params, "n", 6, 1)
    kmax = _int_param(params, "kmax", 6, 1)
    shots = _int_param(params, "shots", 1000, 2)
    families = _families(params)
    table = ResultTable(
        "power-error",
        ("family", "k", "trace", "exact", "std_dev", "bound", "estimate",
         "rel_error", "sampled_rel_error"),
        metadata={
            "seed": seed,
            "params": {"n": n, "kmax": kmax, "shots": shots, "families": families},
            "formulas": {f: FAMILY_FORMULAS[f] for f in families},
            "observable": "projector on |0...0>",
        },
    )
    stream = _stream(seed)
    for family in families:
        psi = family_state(family, n)
        for k in range(1, kmax + 1):
            vk, trace, exact = _power(psi, k, family)
            # exact <= trace, but rounding can put q just above 1
            q = min(exact / trace, 1.0)
            estimate = trace * float(stream.binomial(shots, q)) / shots
            std = trace * math.sqrt(q * (1.0 - q) / shots)
            # second-moment bound on the std dev of the reweighted estimate
            bound = trace * math.sqrt(q / shots)
            rel = math.sqrt((1.0 - q) / (q * shots))
            sampled = abs(estimate - exact) / exact
            table.add(family, k, trace, exact, std, bound, estimate, rel, sampled)
    return table


def opt_beta_surface(params: dict, seed: int) -> ResultTable:
    """Optimal ancilla weight q* and its variance bound over a (p, r) grid."""
    p_grid = _grid(params.get("p_grid", [round(0.1 * i, 1) for i in range(1, 10)]),
                   "p", 0.0, 1.0, closed_high=False)
    r_grid = _grid(params.get("r_grid", [1e-6] + [round(0.1 * i, 1) for i in range(1, 11)]),
                   "r", 0.0, 1.0)
    table = ResultTable(
        "opt-beta-surface",
        ("p", "r", "q_opt", "bound_at_opt"),
        metadata={"seed": seed, "params": {"p_grid": p_grid, "r_grid": r_grid}},
    )
    for p in p_grid:
        for r in r_grid:
            design = optimal_beta(p, r)
            table.add(p, r, design.q_opt, design.bound_at_opt)
    return table


def lincombo_variance(params: dict, seed: int) -> ResultTable:
    """Exact pair-combination variance and its overlap-independent bound as
    functions of the ancilla weight beta0^2, for several overlaps and
    coefficient splits."""
    n = _int_param(params, "n", 6, 1)
    shots = _int_param(params, "shots", 100, 1)
    r_values = _grid(params.get("r_values", [0.067, 0.58, 0.95]), "r", 0.0, 1.0)
    alpha0_values = _grid(params.get("alpha0_values", [0.25, 0.5, 0.95]),
                          "alpha0", 0.0, 1.0, closed_high=False)
    beta_grid = _grid(params.get("beta_grid", [round(0.05 * i, 2) for i in range(1, 20)]),
                      "beta0_sq", 0.0, 1.0, closed_high=False)
    obs = _pauli_string("Z" * n)
    table = ResultTable(
        "lincombo-variance",
        ("r", "alpha0", "beta0_sq", "mean", "variance", "std_dev", "bound"),
        metadata={
            "seed": seed,
            "params": {
                "n": n,
                "shots": shots,
                "r_values": r_values,
                "alpha0_values": alpha0_values,
                "beta_grid": beta_grid,
            },
            "observable": "Z on every qubit",
        },
    )
    for ri, r in enumerate(r_values):
        psi0, psi1 = overlap_pair(2**n, r, seed + ri)
        for a0 in alpha0_values:
            a1 = math.sqrt(1.0 - a0**2)
            comb = a0 * psi0 + a1 * psi1
            mean = float(np.vdot(comb, obs @ comb).real)
            for q in beta_grid:
                var = variance_lincombo(a0, a1, math.sqrt(q), (psi0, psi1), obs, shots)
                bound = beta_variance_bound(a0**2, q, r) / shots
                table.add(r, a0, q, mean, var, math.sqrt(max(var, 0.0)), bound)
    return table


def method_comparison(params: dict, seed: int) -> ResultTable:
    """Pair combination through one reweighting instrument versus term-by-term
    estimation, for a multi-term observable, as the overlap varies."""
    n = _int_param(params, "n", 4, 1)
    shots = _int_param(params, "shots", 100, 1)
    alpha0 = _number(params.get("alpha0", 0.6), "alpha0")
    r_grid = _grid(params.get("r_grid", [round(0.1 * i, 1) for i in range(1, 10)]),
                   "r", 0.0, 1.0)
    if not 0.0 < alpha0 < 1.0:
        raise InvalidGrid(f"alpha0 must lie in (0, 1), got {alpha0}")
    alpha1 = math.sqrt(1.0 - alpha0**2)
    d = 2**n
    obs = np.zeros((d, d), dtype=np.complex128)
    for site in range(n):
        obs += _pauli_string("I" * site + "Z" + "I" * (n - 1 - site))
    for site in range(n - 1):
        obs += 0.5 * _pauli_string("I" * site + "XX" + "I" * (n - 2 - site))
    decomposition = pauli_decompose(obs)
    table = ResultTable(
        "method-comparison",
        ("r", "mean", "var_all_at_once", "var_incoherent", "bound", "ratio"),
        metadata={
            "seed": seed,
            "params": {"n": n, "shots": shots, "alpha0": alpha0, "r_grid": r_grid},
            "observable": "sum of single-site Z plus 0.5 * nearest-neighbour XX",
            "terms": len(decomposition.terms),
        },
    )
    for ri, r in enumerate(r_grid):
        psi0, psi1 = overlap_pair(d, r, seed + ri)
        design = optimal_beta(alpha0**2, r)
        var_pair = variance_lincombo(
            alpha0, alpha1, math.sqrt(design.q_opt), (psi0, psi1), obs, shots
        )
        problem = LcsProblem.from_states([psi0, psi1], [alpha0, alpha1])
        var_inc = variance_postprocessing(problem, decomposition, shots)
        comb = alpha0 * psi0 + alpha1 * psi1
        mean = float(np.vdot(comb, obs @ comb).real)
        bound = design.bound_at_opt * spectral_norm(obs) ** 2 / shots
        table.add(r, mean, var_pair, var_inc, bound, var_pair / var_inc)
    return table


def qhp_vs_gqt(params: dict, seed: int) -> ResultTable:
    """Per-shot variance of the iterated entrywise product against the
    transpose-coupling route for state powers."""
    n = _int_param(params, "n", 4, 1)
    kmax = _int_param(params, "kmax", 6, 1)
    families = _families(params)
    obs = _pauli_string("Z" * n)
    table = ResultTable(
        "qhp-vs-gqt",
        ("family", "k", "mean", "var_entrywise", "var_transpose", "difference"),
        metadata={
            "seed": seed,
            "params": {"n": n, "kmax": kmax, "families": families},
            "observable": "Z on every qubit",
        },
    )
    for family in families:
        psi = family_state(family, n)
        for k in range(1, kmax + 1):
            vk, _, _ = _power(psi, k, family)
            mean = float(np.vdot(vk, obs @ vk).real)
            cmp = compare_power_methods(psi, k, obs)
            table.add(family, k, mean, cmp.var_qhp, cmp.var_gqt, cmp.difference)
    return table


EXPERIMENTS = {
    "power-error": power_error,
    "opt-beta-surface": opt_beta_surface,
    "lincombo-variance": lincombo_variance,
    "method-comparison": method_comparison,
    "qhp-vs-gqt": qhp_vs_gqt,
}


def run_experiment(spec: dict) -> ResultTable:
    """Dispatch {"experiment": name, "seed": int, "params": {...}}."""
    if not isinstance(spec, dict):
        raise ValidationError("experiment spec must be a mapping")
    name = spec.get("experiment")
    if name not in EXPERIMENTS:
        raise UnknownExperiment(
            f"unknown experiment {name!r}; available: {sorted(EXPERIMENTS)}"
        )
    seed = _int_param(spec, "seed", 0, 0)
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise ValidationError("params must be a mapping")
    return EXPERIMENTS[name](params, seed)
