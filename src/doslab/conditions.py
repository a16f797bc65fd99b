"""Stability-condition evaluation and certificates.

Evaluates the per-slot contraction/expansion constants (theta values) for
each encoding scheme, checks the quantization-level and DoS-budget
conditions of the three stability results, produces decay certificates,
and sweeps the admissible (1/nu_f, 1/nu_d) trade-off boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .discretize import DiscretePlant
from .dos import DoSParams
from .errors import CertificateUnavailableError
from .gains import DecayConstants
from .matrixcore import inf_norm

__all__ = [
    "ThetaVariant",
    "ThetaSet",
    "LevelCheck",
    "ConditionReport",
    "DecayCertificate",
    "compute_thetas",
    "check_levels",
    "check_dos",
    "tradeoff_boundary",
    "decay_certificate",
    "build_report",
]


class ThetaVariant(Enum):
    DUAL = "dual"            # both channels attacked, lifted transition
    ACK = "ack"              # output channel with ACKs, single rate
    ACK_FREE = "ack_free"    # output channel without ACKs, lifted transition


@dataclass(frozen=True)
class ThetaSet:
    """Range-update factors: attacked slot, first success after an attack,
    consecutive success."""

    theta_attack: float
    theta_first: float
    theta_steady: float
    variant: ThetaVariant

    def ordered(self) -> bool:
        """True when steady < first < attack, the meaningful-region shape."""
        return self.theta_steady < self.theta_first < self.theta_attack


@dataclass(frozen=True)
class LevelCheck:
    name: str
    value: int
    threshold: float
    parity: str | None  # "odd"/"even" requirement or None
    passes: bool


@dataclass(frozen=True)
class ConditionReport:
    level_checks: tuple[LevelCheck, ...]
    dos_rhs: float
    dos_holds: bool
    thetas: ThetaSet
    constants: DecayConstants

    @property
    def passes(self) -> bool:
        return all(lc.passes for lc in self.level_checks) and self.dos_holds


@dataclass(frozen=True)
class DecayCertificate:
    omega1: float
    gamma: float
    sigma: float


def _scheme_constants(
    variant: ThetaVariant, dc: DecayConstants
) -> tuple[float, float | None]:
    """A scheme's first-success constant and tail gain (``None`` if dual)."""
    if variant is ThetaVariant.DUAL:
        return dc.a0, None
    if variant is ThetaVariant.ACK:
        if dc.h0 is None or dc.h1 is None:
            raise ValueError("ACK thetas need predictor constants (h0, h1)")
        return dc.h0, dc.h1
    if variant is ThetaVariant.ACK_FREE:
        return dc.a0, dc.a1
    raise ValueError(f"unknown variant {variant!r}")


def compute_thetas(
    variant: ThetaVariant,
    dc: DecayConstants,
    dp: DiscretePlant,
    levels,
) -> ThetaSet:
    """Evaluate the printed theta formulas for the given scheme.

    ``levels`` is an ``(n1, n2, n3)`` triple for the dual-channel scheme
    and a single integer for the output-channel schemes.  ``None`` selects
    the infinite-level limit, where the quantizer tail vanishes:
    theta_first -> first * rho and theta_steady -> rho.
    """
    first, gain = _scheme_constants(variant, dc)
    if levels is None:
        tail = 0.0
    elif gain is None:
        _, n2, n3 = levels
        norm_c = inf_norm(dp.c)
        tail = norm_c * dc.a1 / n3 + norm_c * dc.a2 * (n3 - 1) / (n2 * n3)
    else:
        tail = gain * inf_norm(dp.c) / int(levels)
    return ThetaSet(
        theta_attack=inf_norm(dp.a_lift),
        theta_first=first * dc.rho + tail,
        theta_steady=dc.rho + tail,
        variant=variant,
    )


def check_levels(
    variant: ThetaVariant,
    dc: DecayConstants,
    dp: DiscretePlant,
    levels,
) -> tuple[LevelCheck, ...]:
    """Evaluate the quantization-level thresholds and parity rules."""
    norm_c = inf_norm(dp.c)
    one_minus_rho = 1.0 - dc.rho
    if variant is ThetaVariant.DUAL:
        n1, n2, n3 = levels
        n1_ok = n1 >= 1 and n1 % 2 == 1
        if dc.a1 > 0.0:
            ratio = dc.a2 / dc.a1
        else:
            ratio = 0.0 if dc.a2 == 0.0 else math.inf
        n2_thr = max(dc.a2 * norm_c / one_minus_rho, ratio)
        n2_ok = n2 > n2_thr
        if n2_ok:
            denom = one_minus_rho - norm_c * dc.a2 / n2
            n3_thr = (norm_c * dc.a1 - norm_c * dc.a2 / n2) / denom
        else:
            n3_thr = math.inf
        n3_ok = n3 > n3_thr
        return (
            LevelCheck("n1", n1, 1.0, "odd", n1_ok),
            LevelCheck("n2", n2, n2_thr, None, n2_ok),
            LevelCheck("n3", n3, n3_thr, None, n3_ok),
        )
    _, gain = _scheme_constants(variant, dc)
    n = int(levels)
    thr = gain * norm_c / one_minus_rho
    if variant is ThetaVariant.ACK_FREE:
        return (LevelCheck("n", n, thr, "even", n > thr and n % 2 == 0),)
    return (LevelCheck("n", n, thr, None, n > thr),)


def _dos_rhs(thetas: ThetaSet, nu_f_inv: float) -> float:
    th_a, th_0, th_na = thetas.theta_attack, thetas.theta_first, thetas.theta_steady
    if th_na >= 1.0:
        return -math.inf
    if th_a <= 1.0:
        return math.inf
    den = math.log(th_a / th_na)
    rhs = math.log(1.0 / th_na) / den
    if nu_f_inv == 0.0:
        return rhs
    if th_0 == 0.0:  # log(0): the rhs rises without bound in 1/nu_f
        return math.inf
    return rhs - math.log(th_0 / th_na) / den * nu_f_inv


def check_dos(thetas: ThetaSet, params: DoSParams) -> tuple[float, bool]:
    """Right side of the duration-budget inequality and whether it holds.

    The admissible region is ``1/nu_d <= rhs(1/nu_f)``.  Degenerate shapes
    are reported through infinities: a contractive attacked slot, or a
    first success that contracts to zero under ``1/nu_f > 0``, admits any
    budget, a non-contractive steady slot admits none.
    """
    rhs = _dos_rhs(thetas, 1.0 / params.nu_f)
    return rhs, (1.0 / params.nu_d) <= rhs


def tradeoff_boundary(thetas: ThetaSet,
                      nu_f_inv_grid) -> list[tuple[float, float]]:
    """Admissible duration bound ``rhs(1/nu_f)`` of ``thetas`` at each
    frequency bound of the grid.

    A plan's own line sweeps ``plan.report.thetas``; the infinite-level
    limit sweeps ``compute_thetas(variant, dc, dp, None)``.
    """
    points = []
    for x in nu_f_inv_grid:
        if not 0.0 <= x <= 0.5:
            raise ValueError("1/nu_f grid points must lie in [0, 0.5]")
        points.append((float(x), _dos_rhs(thetas, float(x))))
    return points


def decay_certificate(
    thetas: ThetaSet,
    params: DoSParams,
    big_delta: float,
    e0_scale: float = 1.0,
) -> DecayCertificate:
    """Exponential envelope constants for the range sequence.

    ``gamma`` is the per-slot worst-case contraction under the budget mix:
    a ``1/nu_d`` fraction of slots expand by theta_attack, a ``1/nu_f``
    fraction pay the resynchronization factor, the rest contract by
    theta_steady.  Chatter bounds enter ``omega1`` only.  ``e0_scale`` is
    the ratio of the initial range to the initial state bound (``||C||``
    for the dual-channel scheme, one for the output-only schemes).  A first
    success that contracts to zero (``theta_first = 0``) gives ``gamma = 0``
    and ``sigma = inf``, as :func:`check_dos` reports degenerate shapes.
    """
    rhs, holds = check_dos(thetas, params)
    if not holds:
        raise CertificateUnavailableError(
            f"DoS condition fails: 1/nu_d = {1.0 / params.nu_d:.4f} > {rhs:.4f}"
        )
    th_a, th_0, th_na = thetas.theta_attack, thetas.theta_first, thetas.theta_steady
    f, d = 1.0 / params.nu_f, 1.0 / params.nu_d
    if th_0 == 0.0:  # log(0): a 1/nu_f > 0 share of zero factors
        gamma, sigma = 0.0, math.inf
    else:
        gamma = math.exp(f * math.log(th_0) + d * math.log(th_a)
                         + (1.0 - f - d) * math.log(th_na))
        sigma = math.log(1.0 / gamma) / big_delta
    ratio_first = max(th_0 / th_na, 1.0)
    ratio_attack = max(th_a / th_na, 1.0)
    omega1 = max(
        1.0,
        e0_scale * ratio_first ** (params.kappa_f + 1) * ratio_attack ** params.kappa_d,
    )
    return DecayCertificate(omega1=omega1, gamma=gamma, sigma=sigma)


def build_report(
    variant: ThetaVariant,
    dc: DecayConstants,
    dp: DiscretePlant,
    levels,
    params: DoSParams,
) -> ConditionReport:
    thetas = compute_thetas(variant, dc, dp, levels)
    level_checks = check_levels(variant, dc, dp, levels)
    rhs, holds = check_dos(thetas, params)
    return ConditionReport(
        level_checks=level_checks,
        dos_rhs=rhs,
        dos_holds=holds,
        thetas=thetas,
        constants=dc,
    )


def report_rows(report: ConditionReport, params: DoSParams) -> list[tuple[str, str]]:
    """(name, value) rows for the machine-readable report CSV."""
    dc = report.constants
    rows = [
        ("variant", report.thetas.variant.value),
        ("rho", repr(dc.rho)),
        ("a0", repr(dc.a0)),
        ("a1", repr(dc.a1)),
        ("a2", repr(dc.a2)),
        # the ACK-free scheme's g0, g1 are a0, a1
        ("g0", repr(dc.a0)),
        ("g1", repr(dc.a1)),
        ("h0", repr(dc.h0) if dc.h0 is not None else ""),
        ("h1", repr(dc.h1) if dc.h1 is not None else ""),
        ("max_power_used", str(dc.max_power_used)),
        ("theta_attack", repr(report.thetas.theta_attack)),
        ("theta_first", repr(report.thetas.theta_first)),
        ("theta_steady", repr(report.thetas.theta_steady)),
        ("theta_ordered", str(report.thetas.ordered())),
        ("dos_rhs", repr(report.dos_rhs)),
        ("dos_lhs_1_over_nu_d", repr(1.0 / params.nu_d)),
        ("dos_holds", str(report.dos_holds)),
    ]
    for lc in report.level_checks:
        rows.append((f"level_{lc.name}", str(lc.value)))
        rows.append((f"level_{lc.name}_threshold", repr(lc.threshold)))
        if lc.parity:
            rows.append((f"level_{lc.name}_parity", lc.parity))
        rows.append((f"level_{lc.name}_passes", str(lc.passes)))
    rows.append(("all_pass", str(report.passes)))
    return rows
