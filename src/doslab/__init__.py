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
)
from .conditions import (
    ConditionReport,
    DecayCertificate,
    ThetaSet,
    ThetaVariant,
    build_report,
    decay_certificate,
    tradeoff_boundary,
)
from .controlloop import (
    LoopTrace,
    Plan,
    Scenario,
    SimConfig,
    compile_plan,
    mismatch_bound,
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
    schur_certified,
    solve_linear,
)
from .quantizer import (
    BRANCHES,
    UniformCodec,
    decode,
    derive_input_range,
    encode,
    quantize,
    update_range,
)

__version__ = "0.1.0"
