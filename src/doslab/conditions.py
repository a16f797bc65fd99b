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

import numpy as np

from .discretize import DiscretePlant
from .dos import DoSParams
from .errors import CertificateUnavailableError
from .gains import DecayConstants, GainSet
from .matrixcore import gelfand_radius, inf_norm

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
    "sharpest_single_level_threshold",
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
    def all_levels_pass(self) -> bool:
        return all(lc.passes for lc in self.level_checks)

    @property
    def passes(self) -> bool:
        return self.all_levels_pass and self.dos_holds


@dataclass(frozen=True)
class DecayCertificate:
    omega1: float
    omega2: float | None
    gamma: float
    sigma: float


def _dual_tail(dc: DecayConstants, norm_c: float, n2: int, n3: int) -> float:
    return norm_c * dc.a1 / n3 + norm_c * dc.a2 * (n3 - 1) / (n2 * n3)


def compute_thetas(
    variant: ThetaVariant,
    dc: DecayConstants,
    dp: DiscretePlant,
    levels,
) -> ThetaSet:
    """Evaluate the printed theta formulas for the given scheme.

    ``levels`` is an ``(n1, n2, n3)`` triple for the dual-channel scheme
    and a single integer for the output-channel schemes.
    """
    norm_c = inf_norm(dp.c)
    if variant is ThetaVariant.DUAL:
        _, n2, n3 = levels
        tail = _dual_tail(dc, norm_c, n2, n3)
        return ThetaSet(
            theta_attack=inf_norm(dp.a_lift),
            theta_first=dc.a0 * dc.rho + tail,
            theta_steady=dc.rho + tail,
            variant=variant,
        )
    if variant is ThetaVariant.ACK:
        if dc.h0 is None or dc.h1 is None:
            raise ValueError("ACK thetas need predictor constants (h0, h1)")
        n = int(levels)
        tail = dc.h1 * norm_c / n
        return ThetaSet(
            theta_attack=inf_norm(dp.a_lift),
            theta_first=dc.h0 * dc.rho + tail,
            theta_steady=dc.rho + tail,
            variant=variant,
        )
    if variant is ThetaVariant.ACK_FREE:
        n = int(levels)
        tail = dc.g1 * norm_c / n
        return ThetaSet(
            theta_attack=inf_norm(dp.a_lift),
            theta_first=dc.g0 * dc.rho + tail,
            theta_steady=dc.rho + tail,
            variant=variant,
        )
    raise ValueError(f"unknown variant {variant!r}")


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
    if variant is ThetaVariant.ACK:
        n = int(levels)
        thr = dc.h1 * norm_c / one_minus_rho
        return (LevelCheck("n", n, thr, None, n > thr),)
    if variant is ThetaVariant.ACK_FREE:
        n = int(levels)
        thr = dc.g1 * norm_c / one_minus_rho
        ok = n > thr and n % 2 == 0
        return (LevelCheck("n", n, thr, "even", ok),)
    raise ValueError(f"unknown variant {variant!r}")


def _dos_rhs(thetas: ThetaSet, nu_f_inv: float) -> float:
    th_a, th_0, th_na = thetas.theta_attack, thetas.theta_first, thetas.theta_steady
    if th_na >= 1.0:
        return -math.inf
    if th_a <= 1.0:
        return math.inf
    den = math.log(th_a / th_na)
    return math.log(1.0 / th_na) / den - math.log(th_0 / th_na) / den * nu_f_inv


def check_dos(thetas: ThetaSet, params: DoSParams) -> tuple[float, bool]:
    """Right side of the duration-budget inequality and whether it holds.

    The admissible region is ``1/nu_d <= rhs(1/nu_f)``.  Degenerate shapes
    are reported through infinities: a contractive attacked slot admits any
    budget, a non-contractive steady slot admits none.
    """
    rhs = _dos_rhs(thetas, 1.0 / params.nu_f)
    return rhs, (1.0 / params.nu_d) <= rhs


def tradeoff_boundary(
    variant: ThetaVariant,
    dc: DecayConstants,
    dp: DiscretePlant,
    levels,
    nu_f_inv_grid,
) -> list[tuple[float, float]]:
    """Admissible duration bound as a function of the frequency bound.

    ``levels=None`` selects the infinite-level limit, where the quantizer
    tail vanishes: theta_first -> a0*rho and theta_steady -> rho.
    """
    if levels is None:
        firsts = {
            ThetaVariant.DUAL: dc.a0,
            ThetaVariant.ACK: dc.h0,
            ThetaVariant.ACK_FREE: dc.g0,
        }
        first = firsts[variant]
        if first is None:
            raise ValueError("limit mode needs the variant's decay constants")
        thetas = ThetaSet(
            theta_attack=inf_norm(dp.a_lift),
            theta_first=first * dc.rho,
            theta_steady=dc.rho,
            variant=variant,
        )
    else:
        thetas = compute_thetas(variant, dc, dp, levels)
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
    input_envelope_gain: float | None = None,
) -> DecayCertificate:
    """Exponential envelope constants for the range sequence.

    ``gamma`` is the per-slot worst-case contraction under the budget mix:
    a ``1/nu_d`` fraction of slots expand by theta_attack, a ``1/nu_f``
    fraction pay the resynchronization factor, the rest contract by
    theta_steady.  Chatter bounds enter ``omega1`` only.  ``e0_scale`` is
    the ratio of the initial range to the initial state bound (``||C||``
    for the dual-channel scheme, one for the output-only schemes).
    """
    rhs, holds = check_dos(thetas, params)
    if not holds:
        raise CertificateUnavailableError(
            f"DoS condition fails: 1/nu_d = {1.0 / params.nu_d:.4f} > {rhs:.4f}"
        )
    th_a, th_0, th_na = thetas.theta_attack, thetas.theta_first, thetas.theta_steady
    f, d = 1.0 / params.nu_f, 1.0 / params.nu_d
    gamma = math.exp(
        f * math.log(th_0) + d * math.log(th_a) + (1.0 - f - d) * math.log(th_na)
    )
    ratio_first = max(th_0 / th_na, 1.0)
    ratio_attack = max(th_a / th_na, 1.0)
    omega1 = max(
        1.0,
        e0_scale * ratio_first ** (params.kappa_f + 1) * ratio_attack ** params.kappa_d,
    )
    omega2 = None if input_envelope_gain is None else input_envelope_gain * omega1
    sigma = math.log(1.0 / gamma) / big_delta
    return DecayCertificate(omega1=omega1, omega2=omega2, gamma=gamma, sigma=sigma)


def input_envelope_gain(dc: DecayConstants, n3: int) -> float:
    """Factor mapping omega1 to the input-range envelope: the worst
    sub-step gain ``(n3-1)/n3 * max_k inf_norm(k rbar^k m)``."""
    return (n3 - 1) / n3 * max(dc.input_gains)


def sharpest_single_level_threshold(
    gs: GainSet, dp: DiscretePlant, rho_grid_size: int = 400,
    scan_cap: int = 512,
) -> tuple[float, float]:
    """Least conservative single-channel level threshold over admissible rho.

    The midpoint rho rule is deterministic but not the sharpest certificate;
    this scans rho between the certified spectral bound and one, extracts
    the matching envelope constant, and minimizes
    ``g1 * ||C|| / (1 - rho)``.  Returns ``(threshold, rho)``.
    """
    r = gs.error_transition
    lifted_m = dp.a_lift @ gs.observer_gain
    norm_c = inf_norm(dp.c)
    radius = gelfand_radius(r, scan_cap)
    best = (math.inf, math.nan)
    for rho in np.linspace(radius + 1e-3, 0.995, rho_grid_size):
        g1 = 0.0
        power = np.eye(r.shape[0])
        rho_l = 1.0
        for _ in range(scan_cap):
            power = power @ r
            rho_l *= rho
            g1 = max(g1, inf_norm(power @ lifted_m) / rho_l)
            if inf_norm(power) < 1e-14:
                break
        threshold = g1 * norm_c / (1.0 - rho)
        if threshold < best[0]:
            best = (threshold, float(rho))
    return best


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
        ("g0", repr(dc.g0)),
        ("g1", repr(dc.g1)),
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


def report_text(report: ConditionReport, params: DoSParams) -> str:
    lines = [f"{name} = {value}" for name, value in report_rows(report, params)]
    return "\n".join(lines) + "\n"
