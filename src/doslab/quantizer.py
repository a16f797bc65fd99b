"""Uniform hypercube quantizer codecs and the range-update law.

A codec partitions the hypercube ``{v : |v - center| <= range}`` into
``levels`` equal boxes per component.  :func:`encode` takes the offset
``v - center`` and returns a tuple of per-component cells naming the box
that holds it; :func:`decode` maps cells and a center to that box's
center; :func:`quantize` is the round trip around a zero center, with
:func:`encode`'s checks run once.  The range law expands a range during
attacked slots, pays a resynchronization factor on the first success
after an attack, and contracts on consecutive successes, so a run's whole
range sequence is fixed by its attack pattern.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .conditions import ThetaSet
from .errors import InvalidMatrixError, SaturationError

__all__ = [
    "BRANCHES",
    "UniformCodec",
    "encode",
    "decode",
    "quantize",
    "update_range",
    "derive_input_range",
]

# Names of the range law's branches, indexed by the codes update_range returns.
BRANCHES = ("attacked", "first_success", "consecutive_success")


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


def encode(
    offset,
    rng: float,
    codec: UniformCodec,
    clip: bool = False,
) -> tuple[int, ...]:
    """Cells of the box containing ``offset``, a value minus its center, in
    the hypercube ``[-rng, rng]`` per component: one index per component,
    each in ``[0, levels - 1]``.

    Raises :class:`SaturationError` when any component of ``offset``
    exceeds ``rng`` in magnitude -- the failure mode the stability
    conditions preclude -- unless ``clip`` maps out-of-range values to the
    nearest box (used only by the divergence demonstration).  Points on a
    shared box boundary go to the lower-index box.  A non-finite entry in
    ``offset`` raises :class:`InvalidMatrixError` before the saturation
    test, as does a negative or non-finite range, and after it a range
    whose ``2 * rng * levels`` overflows.
    """
    offset = np.asarray(offset, dtype=float)
    if offset.shape != (codec.dim,):
        raise InvalidMatrixError(
            f"expected an offset of shape ({codec.dim},), got {offset.shape}"
        )
    # the per-component work runs on Python floats: the same IEEE
    # operations in the same order as the array form, without its per-call
    # overhead on vectors of a few entries
    offset = offset.tolist()
    # a non-finite entry makes the sum non-finite; a finite sum is common
    # and settles the check in one call, an overflowing one is checked in full
    if not math.isfinite(sum(offset)) and not all(map(math.isfinite, offset)):
        raise InvalidMatrixError("vector entries must be finite")
    if not 0.0 <= rng < math.inf:
        raise InvalidMatrixError("range must be nonnegative and finite")
    worst = max(map(abs, offset))
    if worst > rng and not clip:
        raise SaturationError(
            f"value leaves its quantization range: |v - center| = {worst:.6g} "
            f"> {rng:.6g}"
        )
    n = codec.levels
    if rng == 0.0:
        return ((n - 1) // 2,) * codec.dim
    top, width = n - 1, 2.0 * rng
    if not math.isfinite(width * n):
        raise InvalidMatrixError("range times levels overflows the float range")
    if worst > rng:  # only under clip: these offsets take the edge cells
        offset = [min(max(o, -rng), rng) for o in offset]
    # a loop with conditional clamps: min and max calls cost more than the
    # rest of the cell arithmetic
    cells = []
    for o in offset:
        k = math.ceil((o + rng) * n / width) - 1
        cells.append(0 if k < 0 else top if k > top else k)
    return tuple(cells)


def decode(cells, center, rng: float, codec: UniformCodec) -> np.ndarray:
    """Center of the box :func:`encode` named by ``cells``:
    ``center + (2 cell + 1 - N) * rng/N``.

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
    center = center.tolist()
    if not all(map(math.isfinite, center)):
        raise InvalidMatrixError("vector entries must be finite")
    n = codec.levels
    if len(cells) != codec.dim:
        raise ValueError("index dimension does not match codec")
    if min(cells) < 0 or max(cells) >= n:
        raise ValueError("index cells out of range for codec")
    step = rng / n
    boxes = []
    for c, k in zip(center, cells):
        boxes.append(c + (2.0 * k + 1.0 - n) * step)
    return np.array(boxes)


def quantize(offset, rng: float, codec: UniformCodec) -> np.ndarray:
    """``decode(encode(offset, rng, codec), zeros, rng, codec)``, bit for
    bit, and raising as :func:`encode` does: the box center of ``offset``
    around a zero center.  The cells :func:`encode` has accepted need no
    second check."""
    cells = encode(offset, rng, codec)
    n = codec.levels
    step = rng / n
    boxes = []
    for k in cells:
        # decode's box center at a zero center, whose sum turns a -0.0
        # offset into +0.0
        boxes.append(0.0 + (2.0 * k + 1.0 - n) * step)
    return np.array(boxes)


def update_range(e0: float, thetas: ThetaSet,
                 attacked) -> tuple[np.ndarray, np.ndarray]:
    """Branches and ranges of the three-branch law over a whole pattern.

    ``branch[q]`` is 0 on an attacked slot, 1 on a successful slot that
    follows an attack or opens the run (there is no prior successful
    transmission, the same condition an attack recovery meets) and 2 on
    a consecutive success; :data:`BRANCHES` names the codes.
    ``ranges[q]`` is the bound at the start of slot ``q`` and
    ``ranges[-1]`` the bound after the last slot: each slot multiplies by
    ``theta_attack``, ``theta_first`` or ``theta_steady``, in slot order.
    """
    if e0 < 0.0:
        raise ValueError("range must be nonnegative")
    attacked = np.asarray(attacked, dtype=bool)
    after_attack = np.concatenate(([True], attacked[:-1]))
    branch = np.where(attacked, 0, np.where(after_attack, 1, 2))
    factors = np.array([thetas.theta_attack, thetas.theta_first,
                        thetas.theta_steady])[branch]
    ranges = np.array(list(accumulate(factors.tolist(), operator.mul,
                                      initial=e0)))
    return branch, ranges


def derive_input_range(e3: float, gain: float, codec3: UniformCodec) -> float:
    """Input bound at one sub-step of a successful slot.

    The closed loop expresses the input at sub-step ``k`` as the gain
    ``k rbar^k m`` acting on the decoded output innovation, whose magnitude
    is at most ``(n3-1)/n3`` of the output range; ``gain`` is that gain's
    norm (:attr:`DecayConstants.input_gains`).  During attacked slots no
    input is transmitted and the previous value is held by the caller.
    Arrays of ranges and gains broadcast against each other.
    """
    n3 = codec3.levels
    return (n3 - 1) / n3 * gain * e3
