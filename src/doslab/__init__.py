"""doslab: deterministic simulation of quantized control under DoS attacks.

The package root holds the documented library API (the README's "Package
root" list); every other name stays in its module.
"""

from .discretize import ContinuousPlant, sample_plant
from .errors import DoslabError, InvalidMatrixError, SaturationError, ScenarioError
from .gains import (
    GainSet,
    derive_decay_constants,
    design_deadbeat_gain,
    design_deadbeat_observer,
    design_observer_gain,
    make_gain_set,
)
from .conditions import ConditionReport, ThetaVariant, build_report
from .controlloop import (
    LoopTrace,
    Plan,
    Scenario,
    SimConfig,
    compile_plan,
    run_scenario,
)
from .dos import DoSParams, DoSPattern, generate, prefix_counts, validate
from .matrixcore import gelfand_radius, inf_norm, schur_certified
from .quantizer import (
    BRANCHES,
    UniformCodec,
    decode,
    encode,
    quantize,
    update_range,
)

__version__ = "0.1.0"
