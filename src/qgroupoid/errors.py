"""Exception types shared across the engine."""


class EngineError(Exception):
    """Base class for all engine errors."""


class ConfigError(EngineError):
    """Incompatible engine parameters (mixed truncation orders, bad ranks)."""


class InvariantViolation(ConfigError):
    """The engine's own cross-check failed, e.g. a closed form disagreeing
    with the series it must equal.  The CLI reports it as a failing check,
    not as an indeterminate one."""


class NotAUnitError(EngineError):
    """Leading coefficient of a truncated series is not invertible."""


class NonIntegralError(EngineError):
    """A Laurent series required to be h-integral has negative valuation."""

    def __init__(self, order, message=None):
        self.order = order
        super().__init__(message or "negative h-valuation at order %d" % order)


class TriangularityViolation(EngineError):
    """Deformed target map does not reduce to plain multiplication at h^0."""


class TruncationInsufficientError(EngineError):
    """A triangular solve or jet evaluation needs orders beyond the truncation."""


class DegreeUnsupportedError(EngineError):
    """Bracket extension requested outside the supported degree range."""


class FlavorError(EngineError):
    """Mixed left-dual / right-dual operands."""


class ParseError(EngineError):
    """Spec file is syntactically malformed."""

    def __init__(self, line, message):
        self.line = line
        super().__init__("line %d: %s" % (line, message))


class SemanticError(EngineError):
    """Spec file unreadable, or parsed but structurally invalid."""
