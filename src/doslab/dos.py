"""DoS attack patterns over output-transmission slots.

A pattern is a boolean sequence indexed by output slot; ``True`` means the
slot's transmissions are jammed.  Admissible patterns satisfy two prefix
budgets: the number of off-to-on switches over ``[0, q)`` stays below
``kappa_f + q/nu_f`` and the number of attacked slots below
``kappa_d + q/nu_d``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "DoSParams",
    "DoSPattern",
    "ValidationResult",
    "frequency_count",
    "duration_count",
    "validate",
    "generate",
]

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class DoSParams:
    """Frequency/duration budget: chatter bounds and average-rate divisors."""

    kappa_f: float
    nu_f: float
    kappa_d: float
    nu_d: int

    def __post_init__(self):
        if self.kappa_f < 0 or self.kappa_d < 0:
            raise ValueError("chatter bounds must be nonnegative")
        if self.nu_f < 2:
            raise ValueError("nu_f must be at least 2")
        if int(self.nu_d) != self.nu_d or self.nu_d < 1:
            raise ValueError("nu_d must be an integer >= 1")


@dataclass(frozen=True)
class DoSPattern:
    """Boolean attack sequence over output slots; attacks occupy whole slots."""

    slots: tuple[bool, ...]

    @property
    def horizon(self) -> int:
        return len(self.slots)

    def attacked(self, q: int) -> bool:
        return self.slots[q]


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    first_violation: int | None

    def __bool__(self) -> bool:
        return self.ok


def frequency_count(p: DoSPattern, q: int) -> int:
    """Off-to-on switches in [0, q); an attack at slot 0 counts as one."""
    if not 0 <= q <= p.horizon:
        raise ValueError(f"q = {q} outside [0, {p.horizon}]")
    count = 0
    prev = False
    for slot in p.slots[:q]:
        if slot and not prev:
            count += 1
        prev = slot
    return count


def duration_count(p: DoSPattern, q: int) -> int:
    """Number of attacked slots in [0, q)."""
    if not 0 <= q <= p.horizon:
        raise ValueError(f"q = {q} outside [0, {p.horizon}]")
    return sum(p.slots[:q])


def validate(p: DoSPattern, params: DoSParams) -> ValidationResult:
    """Check both prefix budgets for every q in [1, horizon]."""
    switches = 0
    attacks = 0
    prev = False
    for q0, slot in enumerate(p.slots):
        if slot and not prev:
            switches += 1
        if slot:
            attacks += 1
        prev = slot
        q = q0 + 1
        if switches > params.kappa_f + q / params.nu_f:
            return ValidationResult(False, q)
        if attacks > params.kappa_d + q / params.nu_d:
            return ValidationResult(False, q)
    return ValidationResult(True, None)


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z = z ^ (z >> 31)
    return state, z


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
        raise ValueError("horizon must be at least 1")
    if not 0.0 <= intensity <= 1.0:
        raise ValueError("intensity must lie in [0, 1]")
    state = seed & _MASK64
    slots = []
    switches = 0
    attacks = 0
    prev = False
    for q0 in range(horizon):
        state, draw = _splitmix64(state)
        propose = (draw >> 11) / float(1 << 53) < intensity
        attack = False
        if propose:
            q = q0 + 1
            new_switches = switches + (0 if prev else 1)
            if (
                new_switches <= params.kappa_f + q / params.nu_f
                and attacks + 1 <= params.kappa_d + q / params.nu_d
            ):
                attack = True
                switches = new_switches
                attacks += 1
        slots.append(attack)
        prev = attack
    return DoSPattern(slots=tuple(slots))


def pattern_from_bools(values) -> DoSPattern:
    return DoSPattern(slots=tuple(bool(v) for v in values))


def no_attack(horizon: int) -> DoSPattern:
    return DoSPattern(slots=(False,) * horizon)
