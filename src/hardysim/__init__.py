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
    EpsilonEstimates,
    NoiseModel,
    ShotConfig,
    epsilons_from_distributions,
    estimate_epsilons,
    load_noise_profile,
    measure_epsilons,
    sample_shots,
    statistical_error,
)
from .sweep import (
    PerformanceReport,
    ReducedComparison,
    SweepRow,
    baseline_eps4,
    delta_interval,
    diagonal_points,
    diagonal_sweep,
    metric_fluctuation,
    metric_min_q,
    metric_shift,
    performance_report,
    q_ladder,
    q_surface,
    read_csv,
    reduced_circuit_compare,
    surface_sweep,
    write_csv,
)

__version__ = "0.1.0"
