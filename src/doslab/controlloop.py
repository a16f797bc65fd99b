"""Closed-loop simulation engines.

:func:`compile_plan` fixes a scenario's certificate -- sampled plant,
gains, decay constants, theta factors -- once, as a :class:`Plan`.  Four
engines take a config and its plan and only step plant, encoders,
decoders and controller, recording a full trace.  Every quantizer range
is a function of the attack pattern alone, so each engine takes its
range sequences from :func:`update_range` before it steps:

* :func:`run_dual_channel` -- both channels jammed together; deadbeat
  feedback, lifted observer reset, three quantized signals.
* :func:`run_output_ack`   -- output channel only, encoder kept in sync by
  instant acknowledgments; single-rate predictor on both sides.
* :func:`run_output_ackfree` -- output channel only, no acknowledgments;
  the encoder infers attacks from exactly-zero inputs.
* :func:`run_mismatch_demo` -- the ACK-based scheme misused without ACKs;
  a single attack desynchronizes the predictors and the run exhibits the
  resulting divergence instead of treating saturation as fatal.

Plant propagation between sub-steps uses the exact discretization; an
oversample factor adds intra-step points computed from the exponential on
the residual interval, so no integrator error enters the invariants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .conditions import ThetaSet, ThetaVariant, compute_thetas
from .discretize import (
    ContinuousPlant,
    DiscretePlant,
    discretize,
    sample_plant,
    sample_plant_single_rate,
)
from .dos import DoSParams, DoSPattern, generate
from .errors import (
    DeadbeatContractError,
    DoslabError,
    InferenceMismatchError,
    SaturationError,
    ScenarioError,
)
from .gains import (
    DECAY_SCAN_CAP,
    DecayConstants,
    GainSet,
    derive_decay_constants,
    design_deadbeat_gain,
    design_deadbeat_observer,
    design_observer_gain,
    design_stabilizing_gain,
    make_gain_set,
    verify_nilpotent,
)
from .matrixcore import as_vector, gelfand_radius, inf_norm, mat_pow
from .quantizer import (
    BRANCHES,
    UniformCodec,
    decode,
    derive_input_range,
    encode,
    initial_ranges,
    update_range,
)

__all__ = [
    "Scenario",
    "SimConfig",
    "Plan",
    "LoopTrace",
    "compile_plan",
    "run_dual_channel",
    "run_output_ack",
    "run_output_ackfree",
    "run_mismatch_demo",
    "run_scenario",
]

# |C xhat| at the end of every slot must vanish under a deadbeat gain; the
# residual is floating-point noise and anything above this is a bad gain.
DEADBEAT_NULL_TOL = 1e-9

# The divergence demo stops stepping once the state norm passes this; the
# point has been made and further arithmetic would overflow.
DIVERGENCE_CAP = 1e12


class Scenario(Enum):
    DUAL_CHANNEL = "dual_channel"
    OUTPUT_ACK = "output_ack"
    OUTPUT_ACK_FREE = "output_ackfree"
    MISMATCH_DEMO = "mismatch_demo"


_VARIANTS = {
    Scenario.DUAL_CHANNEL: ThetaVariant.DUAL,
    Scenario.OUTPUT_ACK: ThetaVariant.ACK,
    Scenario.OUTPUT_ACK_FREE: ThetaVariant.ACK_FREE,
    Scenario.MISMATCH_DEMO: ThetaVariant.ACK,
}


@dataclass
class SimConfig:
    """Everything one closed-loop run needs.

    ``levels`` is an ``(n1, n2, n3)`` triple for the dual-channel scenario
    and a single integer for the output-channel scenarios.  ``gains`` may
    be a ready :class:`GainSet`, a :class:`Plan` already compiled for this
    config (reused as is), or ``None`` to synthesize.  The attack pattern
    comes either ready-made or from ``(dos_params, seed, intensity)``.
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
    gains: GainSet | Plan | None = None
    observer: str = "kalman"
    control_weight: float = 1.0
    oversample: int = 1
    attack_slot: int | None = None

    def __post_init__(self):
        self.x0 = as_vector(self.x0, self.plant.n_x)
        if self.x0_bound < 0:
            raise ScenarioError("x0_bound must be nonnegative")
        if inf_norm(self.x0) > self.x0_bound:
            raise ScenarioError("|x0| exceeds x0_bound")
        if self.horizon_slots < 1:
            raise ScenarioError("horizon_slots must be at least 1")
        if self.oversample < 1:
            raise ScenarioError("oversample must be a positive integer")


@dataclass(frozen=True)
class Plan:
    """A scenario's fixed certificate, compiled by :func:`compile_plan`.

    ``l_obs`` is the ACK variant's predictor gain ``a_d m`` (else ``None``),
    ``constants.input_gains`` the per-sub-step input gains and ``params``
    the DoS budget the condition report checks.  The attack pattern is
    left out: each run resolves its own from its config.
    """

    dp: DiscretePlant
    gains: GainSet
    gain_source: str
    l_obs: np.ndarray | None
    variant: ThetaVariant
    levels: tuple[int, int, int] | int
    constants: DecayConstants
    thetas: ThetaSet
    params: DoSParams


def _level_counts(cfg: SimConfig):
    """``cfg.levels`` as positive ints, in the shape its scenario needs."""
    dual = cfg.scenario is Scenario.DUAL_CHANNEL
    try:
        levels = (tuple(int(n) for n in cfg.levels) if dual
                  else (int(cfg.levels),))
    except (TypeError, ValueError):
        levels = ()
    # the codec computes cells in float64, exact for integers up to 2**53
    if (len(levels) != (3 if dual else 1) or min(levels) < 1
            or max(levels) > 2 ** 53):
        shape = "an (n1, n2, n3) triple" if dual else "a single level count"
        raise ScenarioError(
            f"{cfg.scenario.value} runs need {shape} of integers in "
            f"[1, 2**53]"
        )
    return levels if dual else levels[0]


def _resolve_gains(cfg: SimConfig, dp: DiscretePlant, protocol: bool,
                   injected) -> tuple[GainSet, str]:
    """Gain set for ``cfg`` and its provenance string.

    Gains ``injected`` does not give are synthesized: deadbeat or, for the
    single-rate schemes, Schur-stabilizing feedback, and a filter or
    deadbeat observer gain.  An injected feedback gain is verified first.
    """
    spec = injected if isinstance(injected, dict) else {}
    if "k" in spec:
        k = np.array(spec["k"], dtype=float)
        if protocol:
            residual = verify_nilpotent(dp.a_d, dp.b_d, k, dp.eta)
            tol = spec.get("nilpotency_tol", 5e-2)
            bound = tol * inf_norm(dp.a_d) ** dp.eta
            if residual > bound:
                raise DoslabError(
                    f"injected feedback gain is not deadbeat: residual "
                    f"{residual:.3e} > {bound:.3e}"
                )
        elif gelfand_radius(dp.a_d + dp.b_d @ k, DECAY_SCAN_CAP) >= 1.0:
            raise DoslabError("injected feedback gain not certified stable")
    elif protocol:
        k = design_deadbeat_gain(dp)
    else:
        k = design_stabilizing_gain(dp.a_d, dp.b_d, cfg.control_weight)

    deadbeat_observer = "m" not in spec and cfg.observer == "deadbeat"
    if "m" in spec:
        m = np.array(spec["m"], dtype=float)
    elif deadbeat_observer:
        m = design_deadbeat_observer(dp.a_lift, dp.c, dp.mu)
    else:
        m = design_observer_gain(dp.a_lift, dp.c)
    # an injected m whose error transition is not certified Schur is
    # rejected by derive_decay_constants
    names = sorted(set(spec) & {"k", "m"})
    source = f"injected ({', '.join(names)})" if names else "synthesized"
    return make_gain_set(dp, k, m, deadbeat_observer), source


def compile_plan(cfg: SimConfig, injected=None) -> Plan:
    """Sample the plant, fix the gains and derive the certificate for ``cfg``.

    ``injected`` is a scenario file's ``gains`` entry (``"synthesize"``, or
    an object giving ``k`` and/or ``m``).  A ready ``cfg.gains`` takes
    precedence: a :class:`GainSet` is used and a :class:`Plan` returned as is.
    """
    if isinstance(cfg.gains, Plan):
        return cfg.gains
    levels = _level_counts(cfg)
    if cfg.scenario is Scenario.MISMATCH_DEMO and cfg.attack_slot is None:
        raise ScenarioError("mismatch demo needs attack_slot")
    if cfg.observer not in ("kalman", "deadbeat"):
        raise ScenarioError(f"unknown observer mode {cfg.observer!r}")
    variant = _VARIANTS[cfg.scenario]
    single_rate = variant is ThetaVariant.ACK
    if single_rate:
        dp = sample_plant_single_rate(cfg.plant, cfg.big_delta)
    else:
        dp = sample_plant(cfg.plant, cfg.big_delta)
    if isinstance(cfg.gains, GainSet):
        gains, source = cfg.gains, "given"
    else:
        gains, source = _resolve_gains(cfg, dp, not single_rate, injected)
    l_obs = dp.a_d @ gains.observer_gain if single_rate else None
    constants = derive_decay_constants(gains, dp, l_obs=l_obs)
    params = cfg.dos_params
    if params is None:
        # pattern-only or demo scenarios: report against a unit budget
        params = DoSParams(kappa_f=1, nu_f=max(2.0, cfg.horizon_slots),
                           kappa_d=1, nu_d=max(1, cfg.horizon_slots))
    return Plan(
        dp=dp, gains=gains, gain_source=source, l_obs=l_obs, variant=variant,
        levels=levels, constants=constants,
        thetas=compute_thetas(variant, constants, dp, levels), params=params,
    )


@dataclass
class LoopTrace:
    """Full per-sub-step time series plus per-slot diagnostic tables."""

    scenario: Scenario
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
    meta: dict = field(default_factory=dict)

    def to_csv(self, path):
        header = ["t", "q", "k"]
        header += [f"x_{i}" for i in range(self.x.shape[1])]
        header += [f"xhat_{i}" for i in range(self.x_hat.shape[1])]
        header += [f"u_sent_{i}" for i in range(self.u_sent.shape[1])]
        header += [f"u_applied_{i}" for i in range(self.u_applied.shape[1])]
        header += [f"y_{i}" for i in range(self.y.shape[1])]
        header += list(self.ranges.keys())
        header += ["outcome", "saturated", "inferred_attack"]
        floats = [self.x, self.x_hat, self.u_sent, self.u_applied, self.y]
        columns = [col for block in floats for col in block.T.tolist()]
        columns += [col.tolist() for col in self.ranges.values()]
        template = ("%.17g,%d,%d," + "%.17g," * len(columns)
                    + "%s,%d,%d\n")
        rows = zip(self.t.tolist(), self.q.tolist(), self.k.tolist(), *columns,
                   self.outcome, self.saturated.tolist(),
                   self.inferred_attack.tolist())
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            fh.writelines(template % row for row in rows)


class _TraceBuilder:
    """Preallocated sub-step rows of a run, written in place;
    :meth:`build` adds the oversampled points and the outputs and expands
    the per-slot quantities into the per-row columns of the trace."""

    def __init__(self, cfg: SimConfig, dp: DiscretePlant):
        self.cfg, self.dp, self.c = cfg, dp, cfg.plant.c
        # (a_tau, b_tau) pairs for the intra-step offsets j*delta/oversample
        self.os_maps = [
            discretize(cfg.plant.a, cfg.plant.b, j * dp.delta / cfg.oversample)
            for j in range(1, cfg.oversample)
        ]
        rows = cfg.horizon_slots * dp.eta
        n_x, n_u = cfg.plant.n_x, cfg.plant.n_u
        self.x, self.x_hat = np.empty((rows, n_x)), np.empty((rows, n_x))
        self.u_sent, self.u_applied = (np.empty((rows, n_u)),
                                       np.empty((rows, n_u)))
        self.rows = 0
        self.slots = {}

    def add_substep(self, x, x_hat, u_sent, u_applied):
        """Row of the next sub-step's start values."""
        r = self.rows
        self.x[r], self.x_hat[r] = x, x_hat
        self.u_sent[r], self.u_applied[r] = u_sent, u_applied
        self.rows = r + 1

    def add_slot(self, **values):
        for name, value in values.items():
            self.slots.setdefault(name, []).append(value)

    def starts(self, rows):
        """The first sub-step row of every slot stepped so far."""
        return rows[:self.rows:self.dp.eta]

    def build(self, final_state, plan: Plan, ranges, branch, inferred,
              saturated=False, **meta):
        """The trace of the slots stepped so far.  Each range column, and
        ``branch``, ``inferred`` and ``saturated``, gives one value per
        slot (a range per slot and sub-step), or one for all slots."""
        ov, substeps = self.cfg.oversample, self.dp.eta
        per_slot = substeps * ov
        slots = self.rows // substeps
        x, x_hat, u_sent, u_applied = (
            a[:self.rows]
            for a in (self.x, self.x_hat, self.u_sent, self.u_applied))
        if ov > 1:
            # each point propagated exactly from its sub-step's start under
            # the held applied input
            points = [x] + [_matvecs(a_t, x) + _matvecs(b_t, u_applied)
                            for a_t, b_t in self.os_maps]
            x = np.stack(points, axis=1).reshape(-1, x.shape[1])

        def rows(values):
            values = np.asarray(values)
            if values.ndim == 0:
                return np.full(slots * per_slot, values)
            values = values[:slots]
            return np.repeat(values.ravel(), per_slot if values.ndim == 1
                             else ov)

        q = np.repeat(np.arange(slots), per_slot)
        k = np.tile(np.repeat(np.arange(substeps), ov), slots)
        j = np.tile(np.arange(ov), slots * substeps)
        delta = self.dp.delta
        t = q * self.cfg.big_delta + k * delta + j * delta / ov
        return LoopTrace(
            scenario=self.cfg.scenario, t=t, q=q, k=k,
            x=x,
            x_hat=np.repeat(x_hat, ov, axis=0),
            u_sent=np.repeat(u_sent, ov, axis=0),
            u_applied=np.repeat(u_applied, ov, axis=0),
            y=_matvecs(self.c, x),
            ranges={name: rows(v) for name, v in ranges.items()},
            outcome=[BRANCHES[b] for b in rows(branch).tolist()],
            saturated=rows(saturated),
            inferred_attack=rows(inferred),
            slots={n: np.asarray(v)[:slots]
                   for n, v in self.slots.items()},
            final_state=np.array(final_state),
            meta={"dp": plan.dp, "gains": plan.gains,
                  "constants": plan.constants, "thetas": plan.thetas,
                  "l_obs": plan.l_obs, **meta},
        )


def _matvecs(a, rows):
    """``a @ v`` for every row ``v`` of ``rows``, each bit-identical to the
    single product; ``rows @ a.T`` is one matrix product and rounds
    differently."""
    return np.matmul(a, rows[:, :, None])[:, :, 0]


def _norms(rows):
    """:func:`inf_norm` of every row."""
    return abs(rows).max(axis=1)


def _resolve_pattern(cfg: SimConfig) -> tuple[DoSPattern, np.ndarray]:
    """The run's attack pattern and its attacked slots over the horizon."""
    pattern = cfg.pattern
    if pattern is None:
        if cfg.dos_params is None:
            raise ScenarioError(
                "either a pattern or DoS parameters are required")
        pattern = generate(cfg.dos_params, cfg.horizon_slots, cfg.seed,
                           cfg.intensity)
    elif pattern.horizon < cfg.horizon_slots:
        raise ScenarioError(f"pattern covers {pattern.horizon} slots, "
                            f"run needs {cfg.horizon_slots}")
    return pattern, np.array(pattern.slots[:cfg.horizon_slots], dtype=bool)


def _encode(v, center, rng, codec, channel, q, k=None):
    """:func:`encode`, naming the slot, sub-step and channel on saturation."""
    try:
        return encode(v, center, rng, codec)
    except SaturationError as exc:
        where = q if k is None else f"{q}.{k}"
        raise SaturationError(
            f"{channel} quantizer saturated at slot {where}: {exc}",
            slot=q, substep=k, channel=channel,
        ) from exc


def run_dual_channel(cfg: SimConfig, plan: Plan) -> LoopTrace:
    """Dual-channel loop: attacks blot out both channels for a whole slot.

    On a successful slot the controller resets its estimate from the
    quantized output innovation and emits ``eta`` quantized inputs; during
    an attacked slot the plant coasts with zero input and the controller
    holds its (identically zero) open-loop estimate.  The estimated-output
    quantizer is degenerate by construction: the deadbeat gain drives the
    estimate exactly to zero at the end of every slot, which is asserted
    each slot, so its range ``E1`` is zero, the odd ``n1`` puts the zero
    estimate in the middle cell and the output quantizer's center is the
    zero vector without a round trip.
    """
    n1, n2, n3 = plan.levels
    if n1 % 2 == 0:
        raise ScenarioError("n1 must be odd")
    dp, gs = plan.dp, plan.gains
    pattern, attacked = _resolve_pattern(cfg)
    plant = cfg.plant

    n_x, n_u, n_y = plant.n_x, plant.n_u, plant.n_y
    codec2 = UniformCodec(n2, n_u)
    codec3 = UniformCodec(n3, n_y)
    e1, _, e3_0 = initial_ranges(cfg.x0_bound, plant.c)
    branch, e3 = update_range(e3_0, plan.thetas, attacked)
    # each sub-step's input range is set on a successful slot and held
    # through attacks, zero before the first success; a range that
    # overflows ends the run in encode, as a non-finite range
    held = np.maximum.accumulate(np.where(attacked, 0, np.arange(1, len(e3))))
    with np.errstate(over="ignore", invalid="ignore"):
        e2 = derive_input_range(np.append(0.0, e3)[held, None],
                                np.array(plan.constants.input_gains), codec3)

    x = cfg.x0.copy()
    zero_x = np.zeros(n_x)  # the estimate every slot starts from
    zero_y = np.zeros(n_y)
    zero_u = np.zeros(n_u)
    tb = _TraceBuilder(cfg, dp)
    tb.slots.update(attacked=attacked, e3=e3)
    residuals = []

    for q, (hit, e3_q, e2_q) in enumerate(zip(attacked.tolist(), e3.tolist(),
                                              e2.tolist())):
        if hit:
            xh = zero_x
        else:
            y = plant.c @ x
            idx3 = _encode(y, zero_y, e3_q, codec3, "output", q)
            q3 = decode(idx3, zero_y, e3_q, codec3)
            # the sum with the zero estimate turns -0.0 entries into +0.0
            xh = zero_x + gs.observer_gain @ q3

        for k in range(dp.eta):
            if hit:
                u = ua = zero_u
            else:
                u = gs.controller_gain @ xh
                idx2 = _encode(u, zero_u, e2_q[k], codec2, "input", q, k)
                ua = decode(idx2, zero_u, e2_q[k], codec2)
            tb.add_substep(x, xh, u, ua)
            x = dp.a_d @ x + dp.b_d @ ua
            xh = dp.a_d @ xh + dp.b_d @ u

        residual = inf_norm(plant.c @ xh)
        if residual > DEADBEAT_NULL_TOL:
            raise DeadbeatContractError(
                f"|C xhat| = {residual:.3e} at the end of slot {q}; "
                "the feedback gain is not deadbeat for this plant"
            )
        residuals.append(residual)

    ends = np.vstack((tb.starts(tb.x)[1:], x))  # the state after each slot
    tb.slots.update(y_err=_norms(_matvecs(plant.c, tb.starts(tb.x))),
                    deadbeat_residual=residuals, x_norm=_norms(ends))
    return tb.build(x, plan, {"E1": e1, "E2": e2, "E3": e3}, branch,
                    attacked, pattern=pattern)


def run_output_ack(cfg: SimConfig, plan: Plan) -> LoopTrace:
    """Output channel with instant acknowledgments, single-rate predictors.

    The encoder and decoder each run the predictor; acknowledgments tell
    the encoder every attack, so both sides take their ranges from the
    same pattern.  The input channel is ideal: the plant receives the
    computed input.
    """
    dps, gs, l_obs = plan.dp, plan.gains, plan.l_obs
    pattern, attacked = _resolve_pattern(cfg)
    plant = cfg.plant
    codec = UniformCodec(plan.levels, plant.n_y)
    norm_c = inf_norm(plant.c)

    branch, e = update_range(cfg.x0_bound, plan.thetas, attacked)
    x = cfg.x0.copy()
    xh = np.zeros(plant.n_x)
    tb = _TraceBuilder(cfg, dps)
    tb.slots.update(attacked=attacked, e=e)

    for q, (hit, e_q) in enumerate(zip(attacked.tolist(), e.tolist())):
        u = gs.controller_gain @ xh
        yh = plant.c @ xh
        if hit:
            xh_next = dps.a_d @ xh + dps.b_d @ u
        else:
            # a Python float overflows to inf silently, as the range law does
            rng = norm_c * e_q
            idx = _encode(plant.c @ x, yh, rng, codec, "output", q)
            qv = decode(idx, yh, rng, codec)
            xh_next = dps.a_d @ xh + dps.b_d @ u + l_obs @ (qv - yh)
        tb.add_substep(x, xh, u, u)
        x = dps.a_d @ x + dps.b_d @ u
        xh = xh_next

    starts = tb.starts(tb.x)
    tb.slots.update(err_norm=_norms(starts - tb.starts(tb.x_hat)),
                    x_norm=_norms(starts))
    return tb.build(x, plan, {"E": e}, branch, attacked, pattern=pattern)


def run_output_ackfree(cfg: SimConfig, plan: Plan) -> LoopTrace:
    """Output channel without acknowledgments.

    Only the decoder runs the observer; the quantization center is the
    origin because the deadbeat gain nulls the estimate every slot.  On an
    attacked slot the decoder's default-zero reception zeroes the estimate,
    so the whole next period's input is exactly zero; on a successful slot
    the even level count keeps the decoded output away from zero, so the
    input is nonzero.  The encoder watches the applied input and infers the
    attack state, which must match the true pattern in every valid run;
    its ranges follow the inferred attacks.
    """
    if plan.levels % 2 != 0:
        raise ScenarioError("the ACK-free scheme needs an even level count")
    dp, gs = plan.dp, plan.gains
    pattern, attacked = _resolve_pattern(cfg)
    plant = cfg.plant
    codec = UniformCodec(plan.levels, plant.n_y)
    norm_c = inf_norm(plant.c)

    branch, e = update_range(cfg.x0_bound, plan.thetas, attacked)
    inferred = np.zeros(cfg.horizon_slots, dtype=bool)
    x = cfg.x0.copy()
    zero_x = np.zeros(plant.n_x)  # the estimate every slot starts from
    zero_y = np.zeros(plant.n_y)
    zero_u = np.zeros(plant.n_u)
    tb = _TraceBuilder(cfg, dp)
    tb.slots.update(attacked=attacked, e=e)
    residuals = []
    degenerate_inferences = 0

    for q, (hit, e_q) in enumerate(zip(attacked.tolist(), e.tolist())):
        rng = norm_c * e_q
        if hit:
            xh = zero_x  # default-zero reception, exact
        else:
            idx = _encode(plant.c @ x, zero_y, rng, codec, "output", q)
            qv = decode(idx, zero_y, rng, codec)
            xh = zero_x + gs.observer_gain @ qv
        all_zero = True
        for k in range(dp.eta):
            # an explicit branch, not arithmetic, gives the attacked zero
            u = zero_u if hit else gs.controller_gain @ xh
            if np.any(u != 0.0):
                all_zero = False
            tb.add_substep(x, xh, u, u)
            x = dp.a_d @ x + dp.b_d @ u
            xh = dp.a_d @ xh + dp.b_d @ u
        inferred[q] = all_zero
        if rng == 0.0 and all_zero and not hit:
            # nothing to infer from an all-zero run; does not count as a
            # protocol failure
            degenerate_inferences += 1
            inferred[q] = False
        if inferred[q] != hit:
            raise InferenceMismatchError(
                f"zero-input inference disagreed with the pattern at slot {q}"
            )
        residual = inf_norm(plant.c @ xh)
        if residual > DEADBEAT_NULL_TOL:
            raise DeadbeatContractError(
                f"|C xhat| = {residual:.3e} at the end of slot {q}"
            )
        residuals.append(residual)

    starts = tb.starts(tb.x)
    _, e_enc = update_range(cfg.x0_bound, plan.thetas, inferred)
    tb.slots.update(x_norm=_norms(starts),
                    y_err=_norms(_matvecs(plant.c, starts)),
                    deadbeat_residual=residuals, enc_equals_dec=e_enc == e)
    return tb.build(x, plan, {"E": e}, branch, inferred, pattern=pattern,
                    degenerate_inferences=degenerate_inferences)


def run_mismatch_demo(cfg: SimConfig, plan: Plan) -> LoopTrace:
    """ACK-based scheme run without ACKs: one attack, growing mismatch.

    The decoder-side predictor switches to its open-loop branch on the
    attacked slot while the encoder-side predictor, blind to the attack,
    keeps applying corrections and takes its ranges from a pattern with no
    attack.  The run records both ranges, the true encoder-side error, and
    the derived mismatch bound sequence; encoding past saturation clips to
    the nearest box instead of failing, because divergence is the point.
    """
    dps, gs, l_obs = plan.dp, plan.gains, plan.l_obs
    plant = cfg.plant
    q_a = cfg.attack_slot
    codec = UniformCodec(plan.levels, plant.n_y)
    norm_c = inf_norm(plant.c)

    attacked = np.arange(cfg.horizon_slots) == q_a
    branch, e_dec = update_range(cfg.x0_bound, plan.thetas, attacked)
    _, e_enc = update_range(cfg.x0_bound, plan.thetas,
                            np.zeros_like(attacked))
    x = cfg.x0.copy()
    xh = np.zeros(plant.n_x)  # decoder/controller side
    xt = np.zeros(plant.n_x)  # encoder side
    tb = _TraceBuilder(cfg, dps)
    tb.slots.update(attacked=attacked, e_enc=e_enc, e_dec=e_dec)
    slots_run = 0

    for q, (hit, e_enc_q, e_dec_q) in enumerate(zip(
            attacked.tolist(), e_enc.tolist(), e_dec.tolist())):
        y = plant.c @ x
        u = gs.controller_gain @ xh
        yt = plant.c @ xt
        rng_e = norm_c * e_enc_q
        saturated = bool(np.max(np.abs(y - yt)) > rng_e)
        idx = encode(y, yt, rng_e, codec, clip=True)
        qe = decode(idx, yt, rng_e, codec)
        offs = (qe - yt) * codec.levels / rng_e if rng_e > 0 else np.zeros_like(qe)
        tb.add_slot(
            enc_err=inf_norm(x - xt), predictor_gap=inf_norm(xh - xt),
            offs=offs, saturated=saturated,
        )
        tb.add_substep(x, xh, u, u)
        xt_next = dps.a_d @ xt + dps.b_d @ (gs.controller_gain @ xt) \
            + l_obs @ (qe - yt)
        if hit:
            xh_next = dps.a_d @ xh + dps.b_d @ u
        else:
            yh = plant.c @ xh
            rng_d = norm_c * e_dec_q
            qd = decode(idx, yh, rng_d, codec)
            xh_next = dps.a_d @ xh + dps.b_d @ u + l_obs @ (qd - yh)
        x = dps.a_d @ x + dps.b_d @ u
        xh, xt = xh_next, xt_next
        slots_run = q + 1
        if inf_norm(x) > DIVERGENCE_CAP:
            break

    tb.slots.update(x_norm=_norms(tb.starts(tb.x)))
    trace = tb.build(x, plan, {"E_e": e_enc, "E_d": e_dec}, branch, False,
                     saturated=tb.slots["saturated"], attack_slot=q_a,
                     slots_run=slots_run)
    trace.slots["mismatch_bound"] = _mismatch_bound_sequence(trace, cfg, plan)
    return trace


def _mismatch_bound_sequence(trace, cfg, plan: Plan) -> np.ndarray:
    """Derived upper-bound sequence on the encoder-side error.

    Before the attack the bound is the encoder range itself.  After it, the
    recorded quantization offsets feed the kick terms accumulated by the
    predictor mismatch recursion: the phantom correction injected at the
    attacked slot, the range-law divergence one slot later, and the
    per-slot mis-scaled corrections after that.
    """
    e_enc = trace.slots["e_enc"]
    offs = trace.slots["offs"]
    q_a = cfg.attack_slot
    thetas, gs, l_obs = plan.thetas, plan.gains, plan.l_obs
    th_a, th_0, th_na = (thetas.theta_attack, thetas.theta_first,
                         thetas.theta_steady)
    n = plan.levels
    norm_c = inf_norm(cfg.plant.c)
    bk = plan.dp.b_d @ gs.controller_gain
    closed = gs.closed_loop
    slots = len(e_enc)
    bound = np.array(e_enc, dtype=float)
    if q_a >= slots - 1:
        return bound
    base = e_enc[q_a]
    steps = slots - q_a
    bk_pow = np.array([bk @ mat_pow(closed, i) for i in range(steps - 1)])
    kicks = np.matmul(l_obs, offs[q_a:, :, None])
    # every inf_norm(bk closed^i kick_j) is one batched matvec, as in a
    # slot-by-slot sum; one matrix product over many kicks rounds differently
    kick0, kick1 = abs(np.matmul(bk_pow, kicks[:2, None])).max(axis=(2, 3))
    denom = np.array([n * th_na ** ell for ell in range(2, steps)])
    total = e_enc[q_a + 1:].astype(float)  # slot q_a + ell is total[ell - 1]
    total[1:] += kick0[1:] * norm_c * base / denom
    total[1:] += kick1[:-1] * norm_c * (th_a - th_na) * base / denom
    # slot q_a + ell adds its corrections i < ell - 2 in increasing i, so
    # each slot keeps its left-to-right sum
    mis_scale = th_0 * th_a - th_na ** 2
    for i in range(steps - 3):
        later = abs(np.matmul(bk_pow[i], kicks[2:steps - i - 1])).max(axis=(1, 2))
        total[i + 2:] += (later * norm_c * mis_scale * base
                          / (n * th_na ** (i + 3)))
    bound[q_a + 1:] = total
    return bound


_RUNNERS = {
    Scenario.DUAL_CHANNEL: run_dual_channel,
    Scenario.OUTPUT_ACK: run_output_ack,
    Scenario.OUTPUT_ACK_FREE: run_output_ackfree,
    Scenario.MISMATCH_DEMO: run_mismatch_demo,
}


def run_scenario(cfg: SimConfig) -> LoopTrace:
    """Compile the plan for ``cfg`` (or reuse the one in ``cfg.gains``) and
    run its scenario's engine."""
    return _RUNNERS[cfg.scenario](cfg, compile_plan(cfg))
