"""Probabilistic quantum cloning under the no-signalling constraint.

A dense, exact simulation stack: quantum primitives (``qcore``), the
entangled preparation game between Alice and Bob (``entangle``),
probabilistic cloning machines legal and otherwise (``pqcm``), the
signalling protocol and its statistics (``signalling``), plus config
handling and a CLI.
"""

from .entangle import (
    AliceBasis,
    SharedState,
    alice_measure,
    build_shared_state,
    induced_ensemble,
    target_to_basis,
)
from .errors import (
    BasisError,
    CapacityError,
    ConditioningError,
    ConfigError,
    DimensionError,
    EmptyInputError,
    FeasibilityError,
    HermiticityError,
    LabelError,
    NormalizationError,
    PqcloneError,
    RankError,
    SpanError,
    UnsupportedInputError,
)
from .pqcm import (
    CloneOutput,
    IllegalClonerSpec,
    PqcmMachine,
    amplify,
    apply_machine,
    construct_machine,
    feasibility_matrix,
    illegal_clone,
    max_uniform_gamma,
)
from .qcore import (
    Ensemble,
    HermitianOperator,
    Ket,
    SeededRng,
    born_measure,
    gram_matrix,
    hermitian_eigenvalues,
    inner_product,
    is_psd,
    measure_subsystem,
    partial_trace,
    rank_with_tolerance,
    tensor,
    tensor_power,
    trace_distance,
)
from .signalling import (
    ABSTAIN,
    PHI,
    ChannelResult,
    ProtocolConfig,
    SignalStats,
    TallyTable,
    analytic_no_signal_certificate,
    channel_accuracy,
    column_law,
    group_verify,
    guess_rule,
    materialize_illegal_output,
    run_channel,
    run_protocol,
)

__version__ = "0.1.0"
