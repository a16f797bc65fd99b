"""Uniform hypercube quantizer codecs and event-driven range states.

A codec partitions the hypercube ``{v : |v - center| <= range}`` into
``levels`` equal boxes per component; an index names the box holding the
value and decodes to that box's center.  Range states implement the
per-slot update laws: the range expands during attacked slots, pays a
resynchronization factor on the first success after an attack, and
contracts on consecutive successes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .conditions import ThetaSet
from .errors import InvalidMatrixError, SaturationError
from .matrixcore import inf_norm

__all__ = [
    "UniformCodec",
    "QuantIndex",
    "RangeScheme",
    "RangeState",
    "Outcome",
    "encode",
    "decode",
    "update_range",
    "derive_input_range",
    "initial_ranges",
    "classify_outcome",
]


@dataclass(frozen=True)
class UniformCodec:
    """Level count and vector dimension of one quantized channel."""

    levels: int
    dim: int

    def __post_init__(self):
        if self.levels < 1:
            raise ValueError("levels must be at least 1")
        if self.dim < 1:
            raise ValueError("dim must be at least 1")


@dataclass(frozen=True)
class QuantIndex:
    """Per-component box indices, each in [0, levels-1]."""

    cells: tuple[int, ...]


class Outcome(Enum):
    ATTACKED = "attacked"
    FIRST_SUCCESS_AFTER_ATTACK = "first_success"
    CONSECUTIVE_SUCCESS = "consecutive_success"


class RangeScheme(Enum):
    CONSTANT = "constant"                  # estimated-output channel, frozen
    OUTPUT_DUAL = "output_dual"
    OUTPUT_ACK = "output_ack"
    OUTPUT_ACK_FREE = "output_ack_free"
    MISMATCH_ENCODER = "mismatch_encoder"  # never observes attacks
    MISMATCH_DECODER = "mismatch_decoder"


@dataclass(frozen=True)
class RangeState:
    """Current bound with the law that evolves it.

    ``slot`` counts applied updates; ``prev_attacked`` is the branch memory
    of the three-branch law.  A zero bound is legal only for the constant
    scheme (the estimated-output channel starts and stays at zero) or a
    zero initial state bound.
    """

    value: float
    scheme: RangeScheme
    thetas: ThetaSet
    prev_attacked: bool = False
    slot: int = 0

    def __post_init__(self):
        if self.value < 0.0:
            raise ValueError("range must be nonnegative")


def classify_outcome(attacked: bool, prev_attacked: bool, slot: int) -> Outcome:
    """Branch selection for slot ``slot``.

    A successful initial slot counts as a first success: there is no prior
    successful transmission, which is the same branch condition an attack
    recovery satisfies.
    """
    if attacked:
        return Outcome.ATTACKED
    if slot == 0 or prev_attacked:
        return Outcome.FIRST_SUCCESS_AFTER_ATTACK
    return Outcome.CONSECUTIVE_SUCCESS


def encode(
    v,
    center,
    rng: float,
    codec: UniformCodec,
    clip: bool = False,
) -> QuantIndex:
    """Index of the box containing ``v`` in the hypercube around ``center``.

    Raises :class:`SaturationError` when any component of ``v - center``
    exceeds ``rng`` in magnitude -- the failure mode the stability
    conditions preclude -- unless ``clip`` maps out-of-range values to the
    nearest box (used only by the divergence demonstration).  Points on a
    shared box boundary go to the lower-index box.  A non-finite entry in
    ``v`` or ``center`` raises :class:`InvalidMatrixError` before the
    saturation test, as does a negative or non-finite range.
    """
    shape = (codec.dim,)
    v = np.asarray(v, dtype=float)
    center = np.asarray(center, dtype=float)
    if v.shape != shape or center.shape != shape:
        raise InvalidMatrixError(
            f"expected vectors of shape {shape}, got {v.shape} and "
            f"{center.shape}"
        )
    offset = v - center
    # one reduction serves both the finiteness and the saturation test
    worst = float(abs(offset).max())
    if not math.isfinite(worst):
        raise InvalidMatrixError("vector entries must be finite")
    if not 0.0 <= rng < math.inf:
        raise InvalidMatrixError("range must be nonnegative and finite")
    if worst > rng and not clip:
        raise SaturationError(
            f"value leaves its quantization range: |v - center| = {worst:.6g} "
            f"> {rng:.6g}"
        )
    n = codec.levels
    if rng == 0.0:
        return QuantIndex(cells=((n - 1) // 2,) * codec.dim)
    top = n - 1
    cells = np.ceil((offset + rng) * n / (2.0 * rng)).tolist()
    return QuantIndex(cells=tuple(min(max(int(c) - 1, 0), top) for c in cells))


def decode(idx: QuantIndex, center, rng: float, codec: UniformCodec) -> np.ndarray:
    """Center of the indexed box: ``center + (2 cell + 1 - N) * rng/N``.

    The offset form keeps the grid geometry exact in floating point: the
    decoded value differs from the true value by at most ``rng/N``, and for
    even ``N`` around a zero center no component can be zero -- the
    property the ACK-free attack inference relies on.
    """
    center = np.asarray(center, dtype=float)
    if center.shape != (codec.dim,):
        raise InvalidMatrixError(
            f"expected a center of shape ({codec.dim},), got {center.shape}"
        )
    if not np.isfinite(center).all():
        raise InvalidMatrixError("vector entries must be finite")
    cells = idx.cells
    n = codec.levels
    if len(cells) != codec.dim:
        raise ValueError("index dimension does not match codec")
    if min(cells) < 0 or max(cells) >= n:
        raise ValueError("index cells out of range for codec")
    return center + (2.0 * np.array(cells, dtype=float) + 1.0 - n) * (rng / n)


def update_range(rs: RangeState, outcome: Outcome) -> RangeState:
    """Apply one slot's branch factor and advance the state.

    The constant scheme never changes; the mismatch-encoder scheme cannot
    observe attacks and applies its two-branch law (resync factor on the
    initial slot, steady contraction after) regardless of the outcome.
    Every other scheme applies the three-branch law.
    """
    scheme, th = rs.scheme, rs.thetas
    attacked = outcome is Outcome.ATTACKED
    if scheme is RangeScheme.CONSTANT:
        value = rs.value
    elif scheme is RangeScheme.MISMATCH_ENCODER:
        value = rs.value * (th.theta_first if rs.slot == 0
                            else th.theta_steady)
    elif attacked:
        value = rs.value * th.theta_attack
    elif outcome is Outcome.FIRST_SUCCESS_AFTER_ATTACK:
        value = rs.value * th.theta_first
    else:
        value = rs.value * th.theta_steady
    return RangeState(value, scheme, th, attacked, rs.slot + 1)


def derive_input_range(e3: float, gain: float, codec3: UniformCodec) -> float:
    """Input bound at one sub-step of a successful slot.

    The closed loop expresses the input at sub-step ``k`` as the gain
    ``k rbar^k m`` acting on the decoded output innovation, whose magnitude
    is at most ``(n3-1)/n3`` of the output range; ``gain`` is that gain's
    norm (:attr:`DecayConstants.input_gains`).  During attacked slots no
    input is transmitted and the previous value is held by the caller.
    """
    n3 = codec3.levels
    return (n3 - 1) / n3 * gain * e3


def initial_ranges(x0_bound: float, c) -> tuple[float, float, float]:
    """Initial bounds for the three dual-channel quantizers.

    The estimated output and the input start at zero because the estimate
    starts at zero; the output bound covers ``|C x0|``.
    """
    if x0_bound < 0.0:
        raise ValueError("x0_bound must be nonnegative")
    return 0.0, 0.0, inf_norm(c) * x0_bound
