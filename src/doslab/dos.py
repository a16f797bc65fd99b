"""DoS attack patterns over output-transmission slots.

A pattern is a boolean sequence indexed by output slot; ``True`` means the
slot's transmissions are jammed.  Admissible patterns satisfy two prefix
budgets: the number of off-to-on switches over ``[0, q)`` stays below
``kappa_f + q/nu_f`` and the number of attacked slots below
``kappa_d + q/nu_d``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ScenarioError
from .matrixcore import is_finite_number

__all__ = [
    "DoSParams",
    "DoSPattern",
    "prefix_counts",
    "validate",
    "fit_budget",
    "generate",
]

_MASK64 = (1 << 64) - 1
# splitmix64's increment and its two mixing multipliers
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


@dataclass(frozen=True)
class DoSParams:
    """Frequency/duration budget: chatter bounds and average-rate divisors."""

    kappa_f: float
    nu_f: float
    kappa_d: float
    nu_d: int

    def __post_init__(self):
        fields = (self.kappa_f, self.nu_f, self.kappa_d, self.nu_d)
        if not all(map(is_finite_number, fields)):
            raise ScenarioError("DoS budget fields must be finite numbers")
        if self.kappa_f < 0 or self.kappa_d < 0:
            raise ScenarioError("chatter bounds must be nonnegative")
        if self.nu_f < 2:
            raise ScenarioError("nu_f must be at least 2")
        if int(self.nu_d) != self.nu_d or self.nu_d < 1:
            raise ScenarioError("nu_d must be an integer >= 1")


@dataclass(frozen=True)
class DoSPattern:
    """Boolean attack sequence over output slots; attacks occupy whole slots."""

    slots: tuple[bool, ...]

    @property
    def horizon(self) -> int:
        return len(self.slots)


def prefix_counts(attacked) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative off-to-on switches and attacked slots of a pattern.

    Entry ``q - 1`` of each array counts the slots in ``[0, q)``; an attack
    at slot 0 counts as a switch.
    """
    attacked = np.asarray(attacked, dtype=bool)
    starts = attacked.copy()
    starts[1:] &= ~attacked[:-1]
    return np.cumsum(starts), np.cumsum(attacked)


def _within_budget(params: DoSParams, q, switches, attacks):
    """Both prefix budgets over ``[0, q)``, for Python scalars or arrays."""
    return ((switches <= params.kappa_f + q / params.nu_f)
            & (attacks <= params.kappa_d + q / params.nu_d))


def validate(p: DoSPattern, params: DoSParams) -> int | None:
    """The first prefix length q in [1, horizon] over which a budget is
    exceeded, or ``None`` if the pattern is admissible."""
    switches, attacks = prefix_counts(p.slots)
    ok = _within_budget(params, np.arange(1, p.horizon + 1), switches, attacks)
    return None if ok.all() else int(ok.argmin()) + 1


def fit_budget(attacked) -> DoSParams:
    """The tightest budget with ``kappa_f = kappa_d = 1`` that the pattern
    ``attacked`` meets: ``nu_f`` the least ``q / (switches - 1)``, one ulp
    down, since at the ratio itself ``1 + q / nu_f`` may round below the
    count, and ``nu_d`` the floor of the least ``q / (attacks - 1)``, each
    capped at the unit value ``max(2.0, H)`` or ``max(1, H)`` of an H-slot
    pattern."""
    switches, attacks = prefix_counts(attacked)
    q = np.arange(1, len(switches) + 1)
    nu_f, nu_d = (np.min(q[n > 1] / (n[n > 1] - 1), initial=np.inf)
                  for n in (switches, attacks))
    return DoSParams(
        kappa_f=1, nu_f=min(max(2.0, len(q)), float(np.nextafter(nu_f, 0))),
        kappa_d=1, nu_d=int(min(max(1, len(q)), nu_d)))


def check_intensity(intensity) -> None:
    """Refuse an attack intensity that is not a number in [0, 1]."""
    if not (is_finite_number(intensity) and 0 <= intensity <= 1):
        raise ScenarioError(f"intensity must lie in [0, 1], got "
                            f"{intensity!r:.60}")


def _splitmix64(seed: int, horizon: int) -> np.ndarray:
    """The first ``horizon`` outputs of the splitmix64 stream from ``seed``,
    in uint64 arrays, whose arithmetic wraps modulo 2**64 silently."""
    state = (np.uint64(seed & _MASK64)
             + np.arange(1, horizon + 1, dtype=np.uint64) * _GOLDEN)
    z = (state ^ (state >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def generate(
    params: DoSParams, horizon: int, seed: int, intensity: float
) -> DoSPattern:
    """Random pattern under the budgets, deterministic in the seed.

    Slot by slot, an attack is proposed with probability ``intensity`` from
    a splitmix-style 64-bit stream and accepted only if both prefix budgets
    stay satisfied; otherwise the slot is forced clear.  Greedy enforcement
    always terminates and never emits an invalid pattern.
    """
    if horizon < 1:
        raise ScenarioError(f"horizon must be at least 1, got {horizon!r:.60}")
    check_intensity(intensity)
    # 53-bit draws, exact as floats
    draws = (_splitmix64(seed, horizon) >> np.uint64(11)).astype(float)
    proposed = np.flatnonzero(draws / float(1 << 53) < intensity).tolist()
    slots = [False] * horizon
    switches = 0
    attacks = 0
    for q0 in proposed:
        new_switches = switches + (0 if q0 and slots[q0 - 1] else 1)
        if _within_budget(params, q0 + 1, new_switches, attacks + 1):
            slots[q0] = True
            switches = new_switches
            attacks += 1
    return DoSPattern(slots=tuple(slots))


def pattern_from_bools(values) -> DoSPattern:
    """The pattern whose slot ``q`` is attacked where ``values[q]`` is 1."""
    try:
        values = tuple(values)
    except TypeError:
        raise ScenarioError(f"pattern slots must be iterable, got "
                            f"{values!r:.60}") from None
    for v in values:
        try:
            valid = v in (0, 1)
        except ValueError:  # an array of several entries has no truth value
            valid = False
        if not valid:
            raise ScenarioError(f"pattern entries must be 0 or 1, got "
                                f"{v!r:.60}")
    return DoSPattern(slots=tuple(bool(v) for v in values))
