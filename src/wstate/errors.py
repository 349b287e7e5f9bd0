"""Exception hierarchy.

Two families matter to callers: schema/shape problems (``ValidationError``,
CLI exit code 2) and numerical preconditions that fail on otherwise
well-formed inputs (``NumericalPreconditionError``, CLI exit code 3).
"""

from __future__ import annotations


class WstateError(Exception):
    """Base class for all library errors."""


class ValidationError(WstateError):
    """Malformed input: wrong shapes, bad schema, unknown names."""


class DimensionMismatch(ValidationError):
    pass


class UnknownLabel(ValidationError):
    pass


class SchemaError(ValidationError):
    """JSON document violates the expected schema.

    ``field`` is a dotted path into the offending document, e.g.
    ``measurement.matrix.data[3]``.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class InvalidState(ValidationError):
    """Matrix/vector fails the quantum-state invariants."""


class AllocationError(ValidationError):
    """Shot budget smaller than the number of circuits that need shots."""


class UnknownExperiment(ValidationError):
    pass


class InvalidGrid(ValidationError):
    pass


class NumericalPreconditionError(WstateError):
    """Input is well-formed but numerically outside an algorithm's domain."""


class NotNormal(NumericalPreconditionError):
    """Operator is not normal within tolerance.

    ``residual`` is the achieved max-abs commutator residual.
    """

    def __init__(self, residual: float, tol: float):
        self.residual = residual
        self.tol = tol
        super().__init__(
            f"operator is not normal: commutator residual {residual:.3e} exceeds {tol:.3e}"
        )


class NotUnitary(NumericalPreconditionError):
    pass


class OrthogonalInputs(NumericalPreconditionError):
    """Pair-combination construction rejected: input overlap below tolerance."""


class OrthogonalIntermediate(NumericalPreconditionError):
    """A pipeline stage would combine (near-)orthogonal intermediates.

    ``stage`` is the 0-based index of the offending linear-combination stage
    among the pipeline's combination stages.
    """

    def __init__(self, stage: int, overlap: float, message: str = ""):
        self.stage = stage
        self.overlap = overlap
        detail = message or f"stage {stage}: intermediate overlap {overlap:.3e} below tolerance"
        super().__init__(detail)


class ZeroBeta(NumericalPreconditionError):
    """Ancilla amplitude is zero; measurement entries would be undefined."""


class VanishingOverlapProduct(NumericalPreconditionError):
    """All-at-once construction rejected: an overlap product is ~0.

    ``l``, ``l2``, ``k`` identify the vanishing factor <phi_{pi_l2(k)}|phi_{pi_l(k)}>.
    """

    def __init__(self, l: int, l2: int, k: int, value: float):
        self.l = l
        self.l2 = l2
        self.k = k
        super().__init__(
            f"overlap product for entry ({l2},{l}) vanishes at factor k={k} (|.|={value:.3e})"
        )


class FullyDestructive(NumericalPreconditionError):
    """Linear combination has zero norm; nothing to prepare."""


class InvalidDistribution(NumericalPreconditionError):
    """Outcome probabilities fail to sum to one within tolerance."""


class ConsistencyError(NumericalPreconditionError):
    """An internal cross-check failed: two routes to the same quantity
    disagree, or a result does not meet the bound it was built to meet."""
