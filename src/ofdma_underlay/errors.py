"""Exception types shared across the package.

Plain ValueError is used for scalar domain violations (negative SINR,
constellation below 2, and so on); the classes below mark conditions
callers tell apart, several of which the CLI maps to distinct exit codes.
"""


class ConfigError(ValueError):
    """Scenario configuration is invalid or a config file cannot be parsed."""


class ModeError(RuntimeError):
    """Operation requested in an incompatible CSI or constraint mode."""


class ShapeError(ValueError):
    """Array arguments have inconsistent dimensions."""


class ConvergenceError(RuntimeError):
    """An iteration stopped before it converged.

    Raised when the power-multiplier search cannot bracket or settle its
    root, and when a special function runs past its step cap.
    """


class InfeasibleError(RuntimeError):
    """No finite multiplier satisfies an instantaneous interference budget."""
