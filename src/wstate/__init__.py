"""Weighted states: nonlinear transformations of quantum states by
classically reweighted instruments, with exact simulation, shot-based
estimation, and variance analysis.

`import wstate` loads no submodule. Each exported name is imported from its
submodule on first access (PEP 562) and then kept in this namespace.
"""

import importlib as _importlib

__version__ = "0.1.0"

# submodule -> the names it exports from the package
_EXPORTS = {
    "errors": (
        "AllocationError", "ConsistencyError", "DimensionMismatch", "FullyDestructive",
        "InvalidDistribution", "InvalidGrid", "InvalidState", "NotNormal", "NotUnitary",
        "NumericalPreconditionError", "OrthogonalInputs", "OrthogonalIntermediate",
        "SchemaError", "UnknownExperiment", "UnknownLabel", "ValidationError",
        "VanishingOverlapProduct", "WstateError", "ZeroBeta",
    ),
    "experiments": ("ResultTable", "family_state", "run_experiment"),
    "instrument": (
        "InstrumentBranch", "MeasurementOperator", "Pipeline", "QuantumInstrument",
        "QuantumState", "WeightedState", "apply_exact", "branches", "concatenate", "expectation",
    ),
    "lcs": (
        "LcsProblem", "LcuResult", "PauliDecomposition", "all_at_once_M", "all_at_once_apply",
        "build_all_at_once_instrument", "incoherent_estimate", "incoherent_exact",
        "lcu_prepare", "pauli_decompose", "variance_postprocessing",
    ),
    "sampling": (
        "BetaDesign", "ConcatComparison", "EstimatorReport", "PowerComparison",
        "VarianceBounds", "allocate_shots", "beta_variance_bound", "compare_concat_vs_direct",
        "compare_power_methods", "hoeffding_shots", "optimal_beta", "sample_counts",
        "sample_estimate", "variance_bound", "variance_exact", "variance_gqt",
        "variance_lincombo", "variance_qhp", "variance_qsp",
    ),
    "subroutines": (
        "PolySpec", "PolynomialPipeline", "SPECIAL_CASES", "SolveResult", "SolverSolution",
        "alpha_of", "build_gqt_instrument", "build_lincombo_instrument", "build_qhp_instrument",
        "build_qsp_instrument", "build_teleport_instrument", "gamma_in", "gqt",
        "lincombo_pair_M", "polynomial_pipeline", "power_state", "qhp", "qsp_oracle",
        "solve_qsp_realizable", "teleport_map",
    ),
    "tensor": (
        "ControlledSwap", "DenseOperator", "LowRankOperator", "PermutationUnitary", "Register",
        "RegisterLayout", "Xor", "dephase",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

# the submodules themselves resolve as attributes too
__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name: str):
    if name in _EXPORTS:
        return _importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
