"""Exception hierarchy for the dimgroup library.

Every failure mode of a construction or verification routine gets its own
class so callers (and the CLI exit-code map) can dispatch on type.  Errors
raised inside a staged pipeline carry the offending stage index when known.
"""


class DimgroupError(Exception):
    """Base class for all library errors."""

    def __init__(self, message: str, stage: int | None = None):
        self.stage = stage
        if stage is not None:
            message = f"stage {stage}: {message}"
        super().__init__(message)


class SchemaError(DimgroupError):
    """Input data does not match the expected JSON schema."""


class InvariantViolated(DimgroupError):
    """A property that a construction guarantees by design failed to hold."""


class NumberTooLarge(DimgroupError):
    """A computed number has more digits than a JSON reader accepts."""


# -- exact_core ------------------------------------------------------------

class NonSquare(DimgroupError):
    pass


class DimensionMismatch(DimgroupError):
    pass


class SizeMismatch(DimensionMismatch):
    pass


class ContentMismatch(DimgroupError):
    pass


# -- perron ----------------------------------------------------------------

class NotNonnegative(DimgroupError):
    pass


class NotIntegerEigenvalue(DimgroupError):
    pass


class NotPrimitive(DimgroupError):
    pass


# -- traces ----------------------------------------------------------------

class NotECS(DimgroupError):
    pass


class ZeroRow(DimgroupError):
    pass


# -- ecs_builder -----------------------------------------------------------

class PTooSmall(DimgroupError):
    pass


class Infeasible(DimgroupError):
    pass


class BadCutPoints(DimgroupError):
    pass


class HorizonExhausted(DimgroupError):
    pass


class ParameterExtractionFailed(DimgroupError):
    pass


# -- ers_builder -----------------------------------------------------------

class RegimeViolation(DimgroupError):
    pass


# -- ecrs_builder ----------------------------------------------------------

class CongruenceViolated(DimgroupError):
    pass


class GcdViolated(DimgroupError):
    pass


class K1Unnormalizable(DimgroupError):
    pass


class NoValidT(DimgroupError):
    pass


class PositivityFailed(DimgroupError):
    pass


class LambdaTooSmall(DimgroupError):
    pass


class NotEqualSums(DimgroupError):
    pass
