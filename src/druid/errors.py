"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Inconsistent problem, network, or experiment configuration."""


class GraphGenerationError(RuntimeError):
    """Random graph generation exceeded the redraw budget."""


class ConvergenceError(RuntimeError):
    """Iterative solver stopped before reaching its tolerance."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class ParseError(ValueError):
    """Malformed input text; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DivergenceError(RuntimeError):
    """A run's state turned non-finite; carries the iteration ``t`` where it
    was seen and, when a step caught it, the first non-finite ``agent`` and
    the step ``phase`` that produced it."""

    def __init__(self, message: str, t: int, agent: int | None = None,
                 phase: str | None = None):
        super().__init__(message)
        self.t = t
        self.agent = agent
        self.phase = phase


class DiagnosticError(RuntimeError):
    """A diagnostic was requested without the state it needs."""


class InconsistentReferenceError(RuntimeError):
    """A supposed optimum failed its stationarity check."""


class InapplicableTheoremError(ValueError):
    """Rate constants requested outside their regime of validity."""
