"""Closed-loop simulation engines.

:func:`run_scenario` is the one way in.  It compiles a scenario's
certificate -- sampled plant, gains, decay constants, condition report --
once, as a :class:`Plan`, and hands config and plan to the scheme's
engine, which only steps plant, encoders, decoders and controller and
records a full trace.  Every gain set keeps the last plan compiled with
it, so runs that share one (a plan's ``plan.gains`` included) and change
only their attack pattern compile it once.  Every quantizer range is a
function of the attack pattern alone, so each engine takes its range
sequences from :func:`update_range` before it steps.  Each fixed matrix's
``ndarray.dot`` is bound once per run (it rounds as ``@`` does, at half
the call cost) and the per-slot checks read Python floats.

The dual-channel and ACK-free schemes step one deadbeat slot loop,
:func:`_step_deadbeat`, told apart by their data: the dual scheme has an
input codec, the ACK-free one an ideal input channel.  A transmission is
one :func:`quantize` round trip of the value around the zero center.  The
loop only steps, computing only what a later slot reads; every slot end's
``|C xhat|`` and attack inference are checked in one batched pass after
it, and the first slot with a failure names it, codec before inference
before residual.  The ACK scheme and the mismatch demonstration step one
predictor loop, :func:`_run_predictor`, told apart by the attacks the
encoder learns of: every one with ACKs, none in the demonstration.  It
encodes ``y`` minus the encoder's predicted output once per transmission
and decodes the cells at each side's own center; it only steps too.

Plant propagation between sub-steps uses the exact discretization; an
oversample factor adds intra-step points computed from the exponential on
the residual interval, so no integrator error enters the invariants.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from enum import Enum
from itertools import repeat

import numpy as np

from .conditions import ConditionReport, ThetaVariant, build_report
from .discretize import (
    ContinuousPlant,
    DiscretePlant,
    discretize,
    sample_plant,
    sample_plant_single_rate,
)
from .dos import (
    DoSParams,
    DoSPattern,
    check_intensity,
    fit_budget,
    generate,
    pattern_from_bools,
    validate,
)
from .errors import (
    DeadbeatContractError,
    InferenceMismatchError,
    InvalidMatrixError,
    SaturationError,
    ScenarioError,
)
from .gains import GainSet, build_gain_set, check_fit, derive_decay_constants
from .matrixcore import (
    as_vector,
    frozen_matrix,
    inf_norm,
    is_finite_number,
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

__all__ = [
    "Scenario",
    "SimConfig",
    "Plan",
    "LoopTrace",
    "compile_plan",
    "run_scenario",
]

# |C xhat| at the end of every slot must vanish under a deadbeat gain; the
# residual is floating-point noise that grows with the slot's quantization
# range, and anything above this times max(1, range) is a bad gain.
DEADBEAT_NULL_TOL = 1e-9

# The divergence demo stops stepping once the state norm passes this; the
# point has been made and further arithmetic would overflow.
DIVERGENCE_CAP = 1e12

# A run keeps about 250 B per trace row, so this ceiling on
# horizon_slots x n_x x oversample (n_x bounds the sub-steps a slot) keeps
# a trace near 1 GB at most.
MAX_TRACE_ROWS = 4_000_000

# LoopTrace.to_csv turns this many rows at a time into Python values, so a
# write holds one block of them, not the whole trace.
CSV_BLOCK_ROWS = 256


class Scenario(Enum):
    DUAL_CHANNEL = "dual_channel"
    OUTPUT_ACK = "output_ack"
    OUTPUT_ACK_FREE = "output_ackfree"
    MISMATCH_DEMO = "mismatch_demo"


@dataclass(frozen=True, eq=False)
class SimConfig:
    """Everything one closed-loop run needs.

    ``levels`` is an ``(n1, n2, n3)`` triple for the dual-channel scenario
    and a single integer for the output-channel scenarios.  ``gains`` may
    be a ready :class:`GainSet` or a scenario file's ``gains`` entry:
    ``None`` or ``"synthesize"``, or a dict giving ``k`` and/or ``m``; to
    reuse a compiled plan, pass its ``plan.gains`` (see
    :func:`compile_plan`).  The attacks come from ``attack_slot`` (demo),
    ``pattern`` or ``(dos_params, seed, intensity)``.  Every rule that
    reads the config alone but the level parities (the report's, which
    :func:`run_scenario` enforces) is checked here, with a
    :class:`ScenarioError`; counts may be integral floats, stored as ints.
    A config is frozen: change one with :func:`dataclasses.replace`, which
    checks it again.  It compares and hashes by identity, as every record
    holding arrays.
    """

    plant: ContinuousPlant
    big_delta: float
    x0: np.ndarray
    x0_bound: float
    scenario: Scenario
    horizon_slots: int
    levels: tuple[int, int, int] | int
    pattern: DoSPattern | None = None
    dos_params: DoSParams | None = None
    seed: int = 0
    intensity: float = 0.5
    gains: GainSet | dict | str | None = None
    observer: str = "kalman"
    control_weight: float = 1.0
    oversample: int = 1
    attack_slot: int | None = None

    def __post_init__(self):
        for name, kind in (("scenario", Scenario), ("plant", ContinuousPlant),
                           ("pattern", DoSPattern), ("dos_params", DoSParams)):
            value = getattr(self, name)
            optional = name in ("pattern", "dos_params")
            if not (isinstance(value, kind) or optional and value is None):
                raise ScenarioError(
                    f"{name} must be a {kind.__name__}"
                    f"{' or None' if optional else ''}, got {value!r:.60}")
        object.__setattr__(self, "x0", as_vector(self.x0))
        if len(self.x0) != self.plant.n_x:
            raise ScenarioError(f"x0 must have {self.plant.n_x} entries, "
                                f"got {len(self.x0)}")
        if not (is_finite_number(self.x0_bound) and self.x0_bound >= 0):
            raise ScenarioError("x0_bound must be finite and nonnegative")
        if inf_norm(self.x0) > self.x0_bound:
            raise ScenarioError("|x0| exceeds x0_bound")
        for name, least in (("horizon_slots", 1), ("oversample", 1),
                            ("seed", 0), ("attack_slot", 0)):
            if name != "attack_slot" or self.attack_slot is not None:
                object.__setattr__(self, name,
                                   _count(getattr(self, name), name, least))
        for name in ("big_delta", "control_weight"):
            value = getattr(self, name)
            if not (is_finite_number(value) and value > 0):
                raise ScenarioError(f"{name} must be finite and positive")
        try:
            period = self.big_delta / self.plant.n_x / self.oversample
        except OverflowError:  # an oversample beyond the float range
            period = 0.0
        if not period > 0.0:
            raise ScenarioError(f"big_delta {self.big_delta!r} underflows to "
                                f"a zero input or plot period")
        rows = self.horizon_slots * self.plant.n_x * self.oversample
        if rows > MAX_TRACE_ROWS:
            raise ScenarioError(f"horizon_slots x n_x x oversample is {rows} "
                                f"trace rows, above the {MAX_TRACE_ROWS} "
                                f"row ceiling")
        dual = self.scenario is Scenario.DUAL_CHANNEL
        try:
            levels = (tuple(_count(n, "levels", 1) for n in self.levels)
                      if dual else (_count(self.levels, "levels", 1),))
        except (TypeError, ScenarioError):
            levels = ()
        # the codec computes cells in float64, exact for integers up to 2**53
        if len(levels) != (3 if dual else 1) or max(levels) > 2 ** 53:
            shape = "an (n1, n2, n3) triple" if dual else "a single level count"
            raise ScenarioError(
                f"{self.scenario.value} runs need {shape} of integers in "
                f"[1, 2**53]"
            )
        object.__setattr__(self, "levels", levels if dual else levels[0])
        if self.scenario is Scenario.MISMATCH_DEMO:
            if self.attack_slot is None:
                raise ScenarioError("mismatch demo needs attack_slot")
            if self.attack_slot >= self.horizon_slots:
                raise ScenarioError(
                    f"mismatch demo needs attack_slot below horizon_slots "
                    f"{self.horizon_slots}, got {self.attack_slot!r:.60}")
            for name in ("pattern", "dos_params"):
                if getattr(self, name) is not None:
                    raise ScenarioError(f"mismatch demo takes no {name}: its "
                                        f"one attack is at attack_slot")
        elif self.attack_slot is not None:
            raise ScenarioError(f"{self.scenario.value} runs take no "
                                f"attack_slot: only the mismatch demo has one")
        elif self.pattern is not None:
            object.__setattr__(self, "pattern",
                               pattern_from_bools(self.pattern.slots))
            if self.pattern.horizon < self.horizon_slots:
                raise ScenarioError(f"pattern covers {self.pattern.horizon} "
                                    f"slots, run needs {self.horizon_slots}")
            if self.dos_params is not None:
                run = DoSPattern(self.pattern.slots[:self.horizon_slots])
                q = validate(run, self.dos_params)
                if q is not None:
                    raise ScenarioError(f"pattern breaks the dos_params budget "
                                        f"at prefix q = {q}")
        elif self.dos_params is not None:
            check_intensity(self.intensity)
        else:
            raise ScenarioError(f"{self.scenario.value} runs need a pattern or"
                                f" dos_params (a scenario file's dos section)")
        if self.observer not in ("kalman", "deadbeat"):
            raise ScenarioError(f"unknown observer mode {self.observer!r}")


def _count(value, name: str, least: int) -> int:
    """``value``, an int (not a bool) or an integral float, as an int of at
    least ``least``."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            or isinstance(value, float) and value.is_integer()):
        raise ScenarioError(f"{name} must be an integer, got {value!r:.60}")
    if value < least:
        raise ScenarioError(f"{name} must be at least {least}, got "
                            f"{value!r:.60}")
    return int(value)


@dataclass(frozen=True, eq=False)
class Plan:
    """A scenario's fixed certificate, compiled by :func:`compile_plan`.

    ``l_obs`` is the ACK variant's predictor gain ``a_d m`` (else ``None``),
    read-only as the matrices of ``dp`` and ``gains`` are, and ``params``
    the DoS budget the condition ``report`` checks: the config's
    ``dos_params``, or without them the tightest budget with unit chatter
    bounds that the run's own attacks meet (:func:`doslab.dos.fit_budget`).
    The report holds the decay constants (``input_gains`` among them), the
    theta factors and the level checks.  The levels and the attack pattern
    are left out: a run reads its levels from its config (the plan memo
    keys on them) and resolves its own attacks.
    """

    dp: DiscretePlant
    gains: GainSet
    l_obs: np.ndarray | None
    params: DoSParams
    report: ConditionReport


def _plan_inputs(cfg: SimConfig, variant: ThetaVariant, params: DoSParams):
    """Every input of a plan for ``cfg`` but its gain set, which cannot
    change; each plant matrix as its shape and bytes, so that an edit in
    place shows."""
    plant = cfg.plant
    return (variant, cfg.big_delta, cfg.levels, params,
            *((w.shape, w.tobytes()) for w in (plant.a, plant.b, plant.c)))


def compile_plan(cfg: SimConfig) -> Plan:
    """Sample the plant, fix the gains and derive the certificate for ``cfg``.

    A gains entry in ``cfg.gains`` is resolved by
    :func:`doslab.gains.build_gain_set` with the config's observer and
    control weight, deadbeat feedback for the lifted schemes (dual and
    ACK-free) and Schur-stabilizing feedback for the single-rate ones (ACK
    and the demo); a :class:`GainSet` that fits the sampled plant is used
    as given, and certified on that plant.  Either gain set keeps the last
    plan compiled from it, which is returned again while every other input
    is unchanged by value: plant, ``big_delta``, scheme, levels and DoS
    budget.  So a plan is reused by passing its ``plan.gains``.
    """
    variant = _SCHEMES[cfg.scenario][0]
    params = cfg.dos_params or fit_budget(_resolve_pattern(cfg))
    inputs = _plan_inputs(cfg, variant, params)
    given = isinstance(cfg.gains, GainSet)
    memo = cfg.gains.compiled if given else None
    if memo is not None and memo[0] == inputs:
        return memo[1]
    single_rate = variant is ThetaVariant.ACK
    if single_rate:
        dp = sample_plant_single_rate(cfg.plant, cfg.big_delta)
    else:
        dp = sample_plant(cfg.plant, cfg.big_delta)
    gains = cfg.gains if given else build_gain_set(
        dp, cfg.observer, cfg.gains, not single_rate, cfg.control_weight)
    check_fit(dp, gains.controller_gain, gains.observer_gain)
    l_obs = (frozen_matrix(dp.a_d @ gains.observer_gain) if single_rate
             else None)
    constants = derive_decay_constants(gains, dp, l_obs=l_obs)
    plan = Plan(
        dp=dp, gains=gains, l_obs=l_obs, params=params,
        report=build_report(variant, constants, dp, cfg.levels, params),
    )
    object.__setattr__(gains, "compiled", (inputs, plan))
    return plan


@dataclass(eq=False)
class LoopTrace:
    """Per-sub-step time series, per-slot diagnostic tables and the plan."""

    scenario: Scenario
    plan: Plan
    t: np.ndarray
    q: np.ndarray
    k: np.ndarray
    x: np.ndarray
    x_hat: np.ndarray
    u_sent: np.ndarray
    u_applied: np.ndarray
    y: np.ndarray
    ranges: dict[str, np.ndarray]
    outcome: list[str]
    saturated: np.ndarray
    inferred_attack: np.ndarray
    slots: dict[str, np.ndarray]
    final_state: np.ndarray

    def to_csv(self, path):
        """Write the trace to ``path`` as CSV, one line per row, each float
        as ``%.17g``; rows are formatted ``CSV_BLOCK_ROWS`` at a time."""
        floats = {"x": self.x, "xhat": self.x_hat, "u_sent": self.u_sent,
                  "u_applied": self.u_applied, "y": self.y}
        header = ["t", "q", "k"]
        header += [f"{name}_{i}" for name, block in floats.items()
                   for i in range(block.shape[1])]
        header += [*self.ranges, "outcome", "saturated", "inferred_attack"]
        values = [col for block in floats.values() for col in block.T]
        values += self.ranges.values()
        template = "%.17g,%d,%d," + "%.17g," * len(values) + "%s,%d,%d\n"
        columns = [self.t, self.q, self.k, *values]
        flags = [self.saturated, self.inferred_attack]
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for start in range(0, len(self.t), CSV_BLOCK_ROWS):
                block = slice(start, start + CSV_BLOCK_ROWS)
                rows = zip(*(col[block].tolist() for col in columns),
                           self.outcome[block],
                           *(col[block].tolist() for col in flags))
                fh.writelines(template % row for row in rows)


class _TraceBuilder:
    """Sub-step rows of a run, packed as stepped and viewed as arrays by
    :meth:`stack`; :meth:`build` adds the oversampled points and the
    outputs and expands the per-slot quantities into the per-row columns
    of the trace.

    Each sub-step's start values ``x``, ``x_hat``, ``u_sent`` and
    ``u_applied`` (float64 vectors) are appended as raw bytes to four
    growing columns through the bound ``extend`` methods in ``add``, so
    no per-row object outlives its sub-step.
    """

    def __init__(self, cfg: SimConfig, dp: DiscretePlant):
        self.cfg, self.dp, self.attacked = cfg, dp, _resolve_pattern(cfg)
        # (a_tau, b_tau) pairs for the intra-step offsets j*delta/oversample
        self.os_maps = [
            discretize(cfg.plant.a, cfg.plant.b, j * dp.delta / cfg.oversample)
            for j in range(1, cfg.oversample)
        ]
        self.columns = tuple(bytearray() for _ in range(4))
        self.add = tuple(column.extend for column in self.columns)
        self.slots = {"attacked": self.attacked}

    def stack(self):
        """View the columns as the arrays ``x``, ``x_hat``, ``u_*``, one
        row per sub-step.

        The arrays are writable views of the columns, which no row may be
        appended to after this.
        """
        n_x, n_u = self.dp.n_x, self.dp.n_u
        self.x, self.x_hat, self.u_sent, self.u_applied = (
            np.frombuffer(column).reshape(-1, width)
            for column, width in zip(self.columns, (n_x, n_x, n_u, n_u)))

    def starts(self, rows):
        """The first sub-step row of every slot of stacked ``rows``."""
        return rows[::self.dp.eta]

    def build(self, final_state, plan: Plan, ranges, branch, inferred):
        """The trace of the stacked rows.  Each range column, and
        ``branch`` and ``inferred``, gives one value per slot (a range per
        slot and sub-step), or one for all slots.  The saturation flags are
        the run's ``saturated`` slot record, if it keeps one."""
        ov, substeps = self.cfg.oversample, self.dp.eta
        per_slot = substeps * ov
        x, x_hat, u_sent, u_applied = (self.x, self.x_hat, self.u_sent,
                                       self.u_applied)
        slots = len(x) // substeps
        if ov > 1:
            # each point propagated exactly from its sub-step's start under
            # the held applied input
            points = [x] + [_matvecs(a_t, x) + _matvecs(b_t, u_applied)
                            for a_t, b_t in self.os_maps]
            x = np.stack(points, axis=1).reshape(-1, x.shape[1])
            x_hat, u_sent, u_applied = (
                np.repeat(column, ov, axis=0)
                for column in (x_hat, u_sent, u_applied))

        def rows(values):
            values = np.asarray(values)
            if values.ndim == 0:
                return np.full(slots * per_slot, values)
            values = values[:slots]
            if values.ndim == 1:
                return np.repeat(values, per_slot)
            values = values.ravel()  # one value per slot and sub-step
            return values if ov == 1 else np.repeat(values, ov)

        q = np.repeat(np.arange(slots), per_slot)
        k = np.tile(np.repeat(np.arange(substeps), ov), slots)
        j = np.tile(np.arange(ov), slots * substeps)
        delta = self.dp.delta
        t = q * self.cfg.big_delta + k * delta + j * delta / ov
        return LoopTrace(
            scenario=self.cfg.scenario, plan=plan, t=t, q=q, k=k,
            x=x, x_hat=x_hat, u_sent=u_sent, u_applied=u_applied,
            y=_matvecs(self.cfg.plant.c, x),
            ranges={name: rows(v) for name, v in ranges.items()},
            outcome=[BRANCHES[b] for b in rows(branch).tolist()],
            saturated=rows(self.slots.get("saturated", False)),
            inferred_attack=rows(inferred),
            slots={n: v[:slots] for n, v in self.slots.items()},
            final_state=np.array(final_state),
        )


def _matvecs(a, rows):
    """``a @ v`` for every row ``v`` of ``rows``, each bit-identical to the
    single product; ``rows @ a.T`` is one matrix product and rounds
    differently."""
    return np.matmul(a, rows[:, :, None])[:, :, 0]


def _norms(rows):
    """:func:`inf_norm` of every row."""
    return abs(rows).max(axis=1)


def _resolve_pattern(cfg: SimConfig) -> np.ndarray:
    """The run's attacked slots, from the source :class:`SimConfig` took."""
    if cfg.scenario is Scenario.MISMATCH_DEMO:
        return np.arange(cfg.horizon_slots) == cfg.attack_slot
    pattern = cfg.pattern or generate(cfg.dos_params, cfg.horizon_slots,
                                      cfg.seed, cfg.intensity)
    return np.array(pattern.slots[:cfg.horizon_slots], dtype=bool)


def _placed(exc, channel, q, k=None):
    """Codec failure ``exc`` again, its message led by its place."""
    where = f"slot {q}" if k is None else f"slot {q}, sub-step {k}"
    if isinstance(exc, SaturationError):
        return SaturationError(
            f"{channel} quantizer saturated at {where}: {exc}",
            slot=q, substep=k, channel=channel)
    return InvalidMatrixError(f"{channel} quantizer at {where}: {exc}")


# an overflow is named by the next codec or fails a slot-end check
@np.errstate(over="ignore", invalid="ignore")
def _step_deadbeat(cfg: SimConfig, plan: Plan, tb: _TraceBuilder, output,
                   inputs=None):
    """Step the deadbeat protocol over the pattern ``tb.attacked``.

    ``output`` and ``inputs`` are a channel's codec and per-slot ranges.  A
    successful slot resets the estimate to ``M q`` from the output quantized
    around zero and sends ``eta`` inputs, quantized around zero if the run
    has an input codec; around zero a value is its own offset.  An attacked
    slot holds the zero estimate (which every slot starts from) and the
    zero input.

    Only the state and the sent inputs carry over between slots, so the
    estimate is stepped up to the last input sent and attacked slots share
    one zero-input chain.  The loop only steps: :func:`_check_slots` checks
    every slot end after it, or the slots before a failing one before its
    codec failure is raised.  Returns the final state.
    """
    dp, gs, plant = plan.dp, plan.gains, cfg.plant
    codec_y, y_ranges = output
    codec_u, u_ranges = inputs or (None, repeat(None))
    x = cfg.x0.copy()
    zero_x, zero_u = np.zeros(plant.n_x), np.zeros(plant.n_u)
    c, m, kc, a, b = (w.dot for w in (plant.c, gs.observer_gain,
                                      gs.controller_gain, dp.a_d, dp.b_d))
    add_x, add_xh, add_u, add_ua = tb.add
    quant = quantize
    # an attacked slot's estimate chain, from the zero estimate under the
    # zero input (an explicit branch, not arithmetic, gives the zero input),
    # and its estimate and input rows, packed once
    b_zero = b(zero_u)
    held = [zero_x]
    for _ in range(dp.eta - 1):
        held.append(a(held[-1]) + b_zero)
    held_xh, held_u = np.concatenate(held), np.zeros(dp.eta * plant.n_u)

    try:
        for q, (hit, y_rng, u_rngs) in enumerate(zip(tb.attacked.tolist(),
                                                     y_ranges, u_ranges)):
            if hit:
                add_xh(held_xh)
                add_u(held_u)
                add_ua(held_u)
                for _ in range(dp.eta):
                    add_x(x)
                    x = a(x) + b_zero
                continue
            k = None  # the output channel
            yq = quant(c(x), y_rng, codec_y)
            # the sum with the zero estimate turns -0.0 entries into +0.0
            xh = zero_x + m(yq)
            for k in range(dp.eta):
                if k:
                    xh = a(xh) + b(u)
                u = kc(xh)
                ua = u if codec_u is None else quant(u, u_rngs[k], codec_u)
                add_x(x)
                add_xh(xh)
                add_u(u)
                add_ua(ua)
                x = a(x) + b(ua)
    except (SaturationError, InvalidMatrixError) as exc:
        _check_slots(tb, plan, plant.c, y_ranges, q, codec_u is None)
        raise _placed(exc, "output" if k is None else "input", q, k) from exc

    _check_slots(tb, plan, plant.c, y_ranges, len(tb.attacked),
                 codec_u is None)
    tb.slots["y_err"] = _norms(_matvecs(plant.c, tb.starts(tb.x)))
    return x


def _check_slots(tb: _TraceBuilder, plan: Plan, c, y_ranges, slots, infer):
    """Check the ends of the first ``slots`` slots in one pass over their
    rows, which it stacks, and record ``deadbeat_residual`` and, if
    ``infer``, ``degenerate_inference``.

    ``|C xhat|`` after a slot's last sub-step above ``DEADBEAT_NULL_TOL``
    times ``max(1, range)`` raises a :class:`DeadbeatContractError`.  If
    ``infer``, the encoder infers an attack from an all-zero input run: a
    successful slot sending only zeros at a nonzero output range raises an
    :class:`InferenceMismatchError`; at a zero range, which quantizes the
    output and so every input to zero, it is a degenerate inference.  The
    first failing slot is raised, its inference before its residual.
    """
    if not slots:
        return
    tb.stack()
    dp = plan.dp
    last = slice(dp.eta - 1, slots * dp.eta, dp.eta)
    xh = _matvecs(dp.a_d, tb.x_hat[last]) + _matvecs(dp.b_d, tb.u_sent[last])
    # a NaN entry makes its row's max NaN, which fails the check
    residuals = _norms(_matvecs(c, xh))
    ranges = np.array(y_ranges[:slots])
    # fmax, as Python's max(1.0, range), takes 1.0 over a NaN range
    bad = ~(residuals <= DEADBEAT_NULL_TOL * np.fmax(1.0, ranges))
    sent = ~tb.attacked[:slots]
    silent = np.zeros(slots, dtype=bool)
    if infer:  # a NaN input or range is nonzero
        silent = (sent & (ranges != 0.0)
                  & ~tb.u_sent[:slots * dp.eta].reshape(slots, -1).any(axis=1))
    failed = np.flatnonzero(bad | silent)
    if failed.size:
        q = int(failed[0])
        if silent[q]:
            raise InferenceMismatchError(
                f"zero-input inference disagreed with the pattern at slot "
                f"{q}", slot=q, channel="output") from None
        raise DeadbeatContractError(
            f"|C xhat| = {residuals[q]:.3e} at the end of slot {q}; "
            "the feedback gain is not deadbeat for this plant",
            slot=q, channel="output") from None
    tb.slots["deadbeat_residual"] = residuals
    if infer:
        tb.slots["degenerate_inference"] = sent & (ranges == 0.0)


def _run_dual_channel(cfg: SimConfig, plan: Plan) -> LoopTrace:
    """Dual-channel loop: attacks blot out both channels for a whole slot.

    The estimated-output quantizer is degenerate by construction: the
    deadbeat gain drives the estimate exactly to zero at the end of every
    slot, so its range ``E1`` is zero, the odd ``n1`` puts the zero
    estimate in the middle cell and the output quantizer's center is the
    zero vector without a round trip.
    """
    _, n2, n3 = cfg.levels
    plant = cfg.plant
    tb = _TraceBuilder(cfg, plan.dp)
    codec3 = UniformCodec(n3, plant.n_y)
    # the output range covers |C x0|
    branch, e3 = update_range(inf_norm(plant.c) * cfg.x0_bound,
                              plan.report.thetas, tb.attacked)
    # each sub-step's input range is set on a successful slot and held
    # through attacks, zero before the first success; a range that
    # overflows ends the run in encode, as a non-finite range
    held = np.maximum.accumulate(
        np.where(tb.attacked, 0, np.arange(1, len(e3))))
    input_gains = np.array(plan.report.constants.input_gains)
    with np.errstate(over="ignore", invalid="ignore"):
        e2 = derive_input_range(np.append(0.0, e3)[held, None], input_gains,
                                codec3)
    tb.slots["e3"] = e3

    x = _step_deadbeat(cfg, plan, tb, (codec3, e3.tolist()),
                       (UniformCodec(n2, plant.n_u), e2.tolist()))
    # the state after each slot
    tb.slots["x_norm"] = _norms(np.vstack((tb.starts(tb.x)[1:], x)))
    return tb.build(x, plan, {"E1": 0.0, "E2": e2, "E3": e3}, branch,
                    tb.attacked)


# with ACKs an offset that overflows to inf, as Python floats and the range
# law do silently, is named by encode; the demo stops before any overflow
@np.errstate(over="ignore", invalid="ignore")
def _run_predictor(cfg: SimConfig, plan: Plan) -> LoopTrace:
    """Output channel with single-rate predictors, input channel ideal.

    The encoder sends the cells of ``y`` around its predicted output, and
    the decoder corrects its predictor with them on a successful slot.
    With ACKs the encoder learns of every attack, so its predictor is the
    decoder's and a saturation fails the run.  The mismatch demonstration
    runs the scheme without them: the encoder never learns of the attack
    at ``attack_slot`` and keeps a predictor ``xt`` of its own, with ranges
    from a pattern with no attack.  It transmits every slot, clips past
    saturation (divergence is the point) and stops once the state passes
    ``DIVERGENCE_CAP``; its slot records, the offsets its derived bound
    reads among them, come from the encoder's rows after the loop.
    """
    dps, gs, l_obs = plan.dp, plan.gains, plan.l_obs
    plant, thetas = cfg.plant, plan.report.thetas
    codec = UniformCodec(cfg.levels, plant.n_y)
    norm_c = inf_norm(plant.c)
    acked = cfg.scenario is Scenario.OUTPUT_ACK
    tb = _TraceBuilder(cfg, dps)
    known = tb.attacked if acked else np.zeros_like(tb.attacked)
    branch, e_dec = update_range(cfg.x0_bound, thetas, tb.attacked)
    e_enc = e_dec if acked else update_range(cfg.x0_bound, thetas, known)[1]
    tb.slots.update(dict(e=e_dec) if acked else dict(e_enc=e_enc, e_dec=e_dec))
    x = cfg.x0.copy()
    xh = xt = np.zeros(plant.n_x)  # decoder and encoder side
    kc, c, a, b, lo = (w.dot for w in (gs.controller_gain, plant.c, dps.a_d,
                                       dps.b_d, l_obs))
    add_x, add_xh, add_u, add_ua = tb.add
    xts, kicks = [], []  # the demo encoder's predictor and its correction

    try:
        for q, (hit, told, e_enc_q, e_dec_q) in enumerate(zip(
                tb.attacked.tolist(), known.tolist(), e_enc.tolist(),
                e_dec.tolist())):
            u = kc(xh)
            bu = b(u)
            yh = c(xh)
            if not told:  # the encoder transmits
                yt = yh if acked else c(xt)
                rng_e = norm_c * e_enc_q
                cells = encode(c(x) - yt, rng_e, codec, clip=not acked)
                if not acked:
                    xts.append(xt)
                    kicks.append(decode(cells, yt, rng_e, codec) - yt)
                    xt = a(xt) + b(kc(xt)) + lo(kicks[-1])
            add_x(x)
            add_xh(xh)
            add_u(u)
            add_ua(u)
            x = a(x) + bu
            xh = a(xh) + bu
            if not hit:
                xh += lo(decode(cells, yh, norm_c * e_dec_q, codec) - yh)
            if not acked and inf_norm(x) > DIVERGENCE_CAP:
                break
    except (SaturationError, InvalidMatrixError) as exc:
        raise _placed(exc, "output", q) from exc

    tb.stack()
    starts, xh_starts = tb.starts(tb.x), tb.starts(tb.x_hat)
    if acked:
        tb.slots["err_norm"] = _norms(starts - xh_starts)
    else:
        xt, kick = np.array(xts), np.array(kicks)
        rng = norm_c * e_enc[:len(xt), None]
        tb.slots.update(enc_err=_norms(starts - xt),
                        predictor_gap=_norms(xh_starts - xt),
                        offs=np.divide(kick * codec.levels, rng,
                                       out=np.zeros_like(kick), where=rng > 0),
                        saturated=_norms(_matvecs(plant.c, starts)
                                         - _matvecs(plant.c, xt)) > rng[:, 0])
    tb.slots["x_norm"] = _norms(starts)
    ranges = {"E": e_dec} if acked else {"E_e": e_enc, "E_d": e_dec}
    return tb.build(x, plan, ranges, branch, known)


def _run_output_ackfree(cfg: SimConfig, plan: Plan) -> LoopTrace:
    """Output channel without acknowledgments.

    Only the decoder runs the observer, and the input channel is ideal.
    The encoder watches the applied input and infers the attack state,
    which must match the true pattern in every valid run; its ranges
    follow the inferred attacks, the decoder's the true ones.
    """
    tb = _TraceBuilder(cfg, plan.dp)
    codec = UniformCodec(cfg.levels, cfg.plant.n_y)
    norm_c = inf_norm(cfg.plant.c)
    branch, e = update_range(cfg.x0_bound, plan.report.thetas, tb.attacked)
    tb.slots["e"] = e
    # a Python float overflows to inf silently, as the range law does
    x = _step_deadbeat(cfg, plan, tb,
                       (codec, [norm_c * e_q for e_q in e.tolist()]))
    tb.slots["x_norm"] = _norms(tb.starts(tb.x))
    return tb.build(x, plan, {"E": e}, branch, tb.attacked)


_SCHEMES = {
    Scenario.DUAL_CHANNEL: (ThetaVariant.DUAL, _run_dual_channel),
    Scenario.OUTPUT_ACK: (ThetaVariant.ACK, _run_predictor),
    Scenario.OUTPUT_ACK_FREE: (ThetaVariant.ACK_FREE, _run_output_ackfree),
    Scenario.MISMATCH_DEMO: (ThetaVariant.ACK, _run_predictor),
}


def run_scenario(cfg: SimConfig) -> LoopTrace:
    """Compile the plan for ``cfg`` (or reuse the one its gain set keeps),
    refuse a level that breaks a parity rule of its report (the dual odd
    ``n1``, the ACK-free even ``n``) and run its scenario's engine."""
    plan = compile_plan(cfg)
    for lc in plan.report.level_checks:
        if lc.parity and lc.parity != ("even", "odd")[lc.value % 2]:
            raise ScenarioError(f"level {lc.name} must be {lc.parity}")
    return _SCHEMES[cfg.scenario][1](cfg, plan)
