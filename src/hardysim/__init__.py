"""Two-qubit Hardy nonlocality test: exact simulation, noisy emulation, metrics."""

from .engine import (
    EXPERIMENT_SETTINGS,
    FLAGGED_OUTCOME,
    evolve,
    experiment_distributions,
    experiment_states,
    experiment_steps,
    ground_state,
    readout_distributions,
    steps_unitary,
)
from .hardy import (
    HardyParams,
    StateClass,
    StateKind,
    analytic_q,
    chi_of,
    classify_state,
    concurrence,
    optimal_angles,
    q_max,
)
from .noise import (
    NoiseModel,
    ShotConfig,
    estimate_batch,
    load_noise_profile,
    measure_epsilons,
    statistical_error,
)
from .sweep import (
    PerformanceReport,
    ReducedComparison,
    SweepRow,
    diagonal_points,
    diagonal_sweep,
    metric_fluctuation,
    peak_offset,
    performance_report,
    q_surface,
    read_csv,
    reduced_circuit_compare,
    surface_sweep,
    write_csv,
)

__version__ = "0.1.0"
