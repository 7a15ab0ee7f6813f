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
    """A bound, log-determinant, sampler state or OMP input is non-finite."""


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
    """Raised by estimate_dictionary for a trace with no kept sample."""


class TailLargerThanTrace(BayesdictError):
    """Raised by ModelConfig for an average_tail(k) with k > iters."""


# --- image / file I/O ---

class MalformedHeader(BayesdictError):
    pass


class UnsupportedMaxval(BayesdictError):
    pass


class IoFailure(BayesdictError):
    pass


class ImageTooSmall(BayesdictError):
    pass
