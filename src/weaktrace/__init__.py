"""Nested Mach-Zehnder weak-trace simulator with an exact von Neumann meter."""

__version__ = "0.1.0"

from .paths import (
    ARMS,
    DETECTORS,
    BeamSplitter,
    Circuit,
    PhotonState,
    PipelineError,
    apply_beamsplitter,
    apply_beamsplitter_inverse,
    build_nested_mzi,
    evolve_to_stage,
    projector_expectation,
)
from .meter import (
    GaussianBranch,
    MeterConfig,
    MeterWave,
    NoPostselectedEventsError,
    branch_overlap,
    pointer_first_moment,
    sample_pointer_readout,
    wave_norm2,
    wave_pointer_mean,
)
from .evolution import (
    EntangledMetersError,
    JointBranch,
    MeterAttachment,
    PathSum,
    PostselectResult,
    arm_occupation,
)
from .criteria import (
    DiscontinuityReport,
    DiscontinuityRow,
    MeanValueRecord,
    MonteCarloEstimate,
    UndefinedWeakValueError,
    WeakValueRecord,
    discontinuity_report,
    extrapolate_even_limit,
    monte_carlo_weak_value,
    tsvf_backward_state,
    weak_mean_value,
    weak_value_analytic,
    weak_value_operational,
    weak_value_tsvf,
)
from .danan import (
    Mirror,
    MirrorSchedule,
    ModeComparison,
    TraceResult,
    default_schedule,
    power_spectrum,
    readout_mode_compare,
    simulate_traces,
    sinusoid_amplitude,
)

__all__ = [name for name in dir() if not name.startswith("_")]
