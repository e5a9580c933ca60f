"""Resource allocation for an underlay OFDMA downlink.

A single secondary transmitter serves several users over exclusive
subcarriers while keeping the interference it causes at primary
receivers inside deterministic or probabilistic limits.  The package
joins a closed-form law for the per-link reference SINR, continuous and
discrete adaptive MQAM, and a dual-decomposition allocator with a Monte
Carlo evaluation harness around them.
"""

from .channel import (BatchRealizations, PosteriorCrossStats, posterior_stats,
                      sample_realizations)
from .config import ScenarioConfig, load_config, uniform_gain_means
from .errors import (ConfigError, ConvergenceError, InfeasibleError,
                     ModeError, ShapeError)
from .harness import EvaluationReport, run_experiment, sweep
from .interference import (audit_collisions, audit_deterministic,
                           audit_probabilistic, central_tail_approx,
                           composite_chisq, surrogate_budget)
from .modulation import (ber_bound, ber_exact, ber_slope, discretize_rate,
                         max_constellation)
from .optimizer import (DualState, PolicyBatch, SolveResult, assign_subcarriers,
                        per_link_lagrangian, selection_metric, solve_dual,
                        waterfill_power)
from .presets import PRESETS, get_preset
from .sinr import (SinrDistribution, gaussian_sum_params, sample_sinr_mc,
                   sinr_distribution)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ScenarioConfig", "load_config", "uniform_gain_means",
    "BatchRealizations", "PosteriorCrossStats", "posterior_stats",
    "sample_realizations",
    "ConfigError", "ConvergenceError", "InfeasibleError", "ModeError",
    "ShapeError",
    "SinrDistribution", "gaussian_sum_params", "sample_sinr_mc",
    "sinr_distribution",
    "ber_bound", "ber_exact", "ber_slope", "discretize_rate",
    "max_constellation",
    "audit_collisions", "audit_deterministic", "audit_probabilistic",
    "central_tail_approx", "composite_chisq", "surrogate_budget",
    "DualState", "PolicyBatch", "SolveResult",
    "assign_subcarriers", "per_link_lagrangian", "selection_metric",
    "solve_dual", "waterfill_power",
    "EvaluationReport", "run_experiment", "sweep",
    "PRESETS", "get_preset",
]
