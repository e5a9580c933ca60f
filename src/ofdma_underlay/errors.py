"""Exception types shared across the package.

Plain ValueError is used for scalar domain violations (negative SINR,
constellation below 2, and so on); the classes below mark conditions the
CLI maps to distinct exit codes or that carry solver state.
"""


class ConfigError(ValueError):
    """Scenario configuration is invalid or a config file cannot be parsed."""


class ModeError(RuntimeError):
    """Operation requested in an incompatible CSI or constraint mode."""


class ShapeError(ValueError):
    """Array arguments have inconsistent dimensions."""


class ConvergenceError(RuntimeError):
    """An iteration stopped before it converged.

    Raised when the dual iteration misses its power-gap tolerance, carrying
    the partially solved state so callers can inspect the trace, and when a
    special function runs past its step cap (``result`` is None).
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class InfeasibleError(RuntimeError):
    """No finite multiplier satisfies an instantaneous interference budget."""
