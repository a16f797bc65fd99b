"""doslab: deterministic simulation of quantized control under DoS attacks."""

from .discretize import (
    ContinuousPlant,
    DiscretePlant,
    controllability_index,
    discretize,
    observability_index,
    sample_plant,
    sample_plant_single_rate,
)
from .errors import (
    CertificateUnavailableError,
    DoslabError,
    ExpOverflowError,
    IllConditionedBasisError,
    InvalidMatrixError,
    RiccatiConvergenceError,
    SaturationError,
    ScenarioError,
    SingularMatrixError,
    StabilityCertificationError,
    UncontrollablePairError,
    UnobservablePairError,
)
from .gains import (
    DecayConstants,
    GainSet,
    build_gain_set,
    derive_decay_constants,
    design_deadbeat_gain,
    design_deadbeat_observer,
    design_observer_gain,
    design_stabilizing_gain,
    make_gain_set,
    verify_nilpotent,
)
from .conditions import (
    ConditionReport,
    DecayCertificate,
    ThetaSet,
    ThetaVariant,
    build_report,
    check_dos,
    check_levels,
    compute_thetas,
    decay_certificate,
    sharpest_single_level_threshold,
    tradeoff_boundary,
)
from .controlloop import (
    LoopTrace,
    Plan,
    Scenario,
    SimConfig,
    compile_plan,
    run_dual_channel,
    run_mismatch_demo,
    run_output_ack,
    run_output_ackfree,
    run_scenario,
)
from .dos import (
    DoSParams,
    DoSPattern,
    generate,
    prefix_counts,
    validate,
)
from .matrixcore import (
    gelfand_radius,
    inf_norm,
    mat_exp,
    mat_pow,
    rank_with_tol,
    solve_linear,
)
from .quantizer import (
    BRANCHES,
    QuantIndex,
    UniformCodec,
    decode,
    derive_input_range,
    encode,
    initial_ranges,
    update_range,
)

__version__ = "0.1.0"
