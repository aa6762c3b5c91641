"""Exception types shared across the solver stack."""


class RasqpError(Exception):
    """Base class for all library errors."""


class ConfigError(RasqpError):
    """Invalid configuration, incompatible problem/method pairing, or bad sizes."""


class ParseError(RasqpError):
    """Malformed input data. Carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NumericalFailure(RasqpError):
    """Non-finite value or numerical breakdown during a computation."""


class MeritCollapse(RasqpError):
    """The merit parameter fell below `sqp_eq.TAU_FLOOR`; the subsampled
    problem is locally incompatible and the inner loop must abort."""


class InfeasibleStationary(MeritCollapse):
    """No step of either solver can reduce the linearized violation of an
    infeasible iterate (`sqp_eq.keeps_violation`): a stationary point of
    the constraint violation, which ends the run."""


class LineSearchFailure(RasqpError):
    """Backtracking reached the minimum step size without sufficient decrease."""
