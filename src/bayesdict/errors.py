"""Exception types shared across the toolkit."""


class BayesdictError(Exception):
    """Base class for all toolkit errors."""


# --- configuration / input validation ---

class NonPositiveHyperparameter(BayesdictError):
    """A hyperparameter violates its positivity / sign constraint."""

    def __init__(self, field: str, value, requirement: str = "strictly positive"):
        self.field = field
        self.value = value
        super().__init__(f"{field} must be {requirement}, got {value!r}")


class BurnInExceedsIterations(BayesdictError):
    pass


class EmptyTrainingSet(BayesdictError):
    pass


class NonFiniteTrainingData(BayesdictError):
    pass


class ConfigParseError(BayesdictError):
    """Raised with line/key diagnostics when a config file cannot be parsed."""


# --- numerical failures ---

class SingularPrecision(BayesdictError):
    """A precision matrix stayed non-positive-definite after one jitter retry."""


class NegativeResidual(BayesdictError):
    """Expected residual came out materially negative; moments are broken."""


class NonFinite(BayesdictError):
    """A bound, log-determinant or sampler state became non-finite."""


# --- shapes ---

class DimensionMismatch(BayesdictError):
    pass


class ShapeMismatch(BayesdictError):
    pass


class ZeroVector(BayesdictError):
    pass


class ZeroSignal(BayesdictError):
    pass


# --- sampling traces ---

class EmptyTrace(BayesdictError):
    pass


class TailLargerThanTrace(BayesdictError):
    pass


# --- image / file I/O ---

class MalformedHeader(BayesdictError):
    pass


class UnsupportedMaxval(BayesdictError):
    pass


class IoFailure(BayesdictError):
    pass


class ImageTooSmall(BayesdictError):
    pass


class CoverageGap(BayesdictError):
    pass
