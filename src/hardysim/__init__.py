"""Two-qubit Hardy nonlocality test: exact simulation, noisy emulation, metrics."""

from .engine import (
    EXPERIMENT_SETTINGS,
    FLAGGED_OUTCOME,
    experiment_distributions,
    experiment_steps,
)
from .hardy import (
    analytic_q,
    chi_of,
    classify,
    concurrence,
    optimal_angles,
    q_max,
)
from .noise import (
    NoiseModel,
    ShotConfig,
    estimate_batch,
    load_noise_profile,
    statistical_error,
)
from .sweep import (
    PerformanceReport,
    ReducedComparison,
    SweepTable,
    diagonal_points,
    diagonal_sweep,
    metric_fluctuation,
    peak_offset,
    performance_report,
    read_csv,
    reduced_circuit_compare,
    surface_sweep,
    write_csv,
)

__version__ = "0.1.0"
