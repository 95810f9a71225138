"""Chen–Fliess series functionals, their discrete-time iterated-sum
approximations, a-priori error bounds, and exact rational realizations."""

from .algebra import (
    Alphabet,
    CapExceeded,
    DomainError,
    Growth,
    GrowthClass,
    LinearRepresentation,
    Polynomial,
    SeriesSpec,
    Word,
    check_growth,
    enumerate_words,
    enumerate_words_upto,
)
from .bounds import (
    BoundInputs,
    BoundReport,
    Divergent,
    dt_tail_bound,
    effective_alphabet,
    gc_bounds,
    lc_bounds,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    emit_trajectory,
    gc_geometric,
    lc_factorial,
    load_config,
    parse_config,
    reproduce_table,
    run_experiment,
)
from .operators import (
    chen_truncation,
    dt_fliess_trajectory,
    fliess_truncated,
    iterated_integral,
    iterated_sum,
    iterated_sum_trajectory,
)
from .realization import (
    NonFinite,
    PolicyViolation,
    StateAffineSystem,
    Trajectory,
    backward_step,
    ct_bilinear_simulate,
    forward_step,
    simulate_backward,
    simulate_forward,
)
from .signals import (
    ConstantChannel,
    ContinuousInput,
    DiscreteInput,
    PiecewiseConstantChannel,
    QuadratureFailure,
    SampledChannel,
    SinusoidChannel,
    catenate,
    constant_input,
    discretize,
    l1_norm,
)

__version__ = "0.1.0"
