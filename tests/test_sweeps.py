"""Cross-pattern soundness sweeps.

The per-slot guarantees (no saturation, range dominance, exact inference,
envelope) must hold for every pattern the budgets admit, not just the
case-study one, so these runs regenerate twelve distinct patterns under
each budget: the greedy one of full proposal intensity, which proposes
every slot and so reads no seed, and eleven seeds at intensity 0.7.
"""

import contextlib
import dataclasses

import numpy as np
import pytest

from doslab import ContinuousPlant, DoslabError, SaturationError, inf_norm
from doslab.conditions import decay_certificate
from doslab.controlloop import (
    Scenario,
    SimConfig,
    compile_plan,
    run_scenario,
)
from doslab.dos import DoSParams, generate

from .conftest import BIG_DELTA, X0
from .oracles import harness_configs, mismatch_bound_loop

CASE_DUAL = DoSParams(kappa_f=2, nu_f=19, kappa_d=3, nu_d=18)
CASE_SINGLE = DoSParams(kappa_f=1, nu_f=11, kappa_d=1, nu_d=11)

# (seed, intensity) of each sweep's patterns
SWEEP = [(0, 1.0), *((seed, 0.7) for seed in range(11))]
SWEEP_IDS = ["greedy", *(f"seed{seed}" for seed in range(11))]


@pytest.mark.parametrize("params, horizon", [(CASE_DUAL, 250),
                                             (CASE_SINGLE, 150)],
                         ids=["dual", "ackfree"])
def test_sweep_patterns_are_distinct(params, horizon):
    patterns = {generate(params, horizon, seed, intensity).slots
                for seed, intensity in SWEEP}
    assert len(patterns) == len(SWEEP)


@pytest.mark.parametrize("seed, intensity", SWEEP, ids=SWEEP_IDS)
def test_dual_channel_worst_admissible_patterns(reactor, reactor_gains, seed,
                                                intensity):
    cfg = SimConfig(
        plant=reactor, big_delta=BIG_DELTA, x0=X0, x0_bound=1.0,
        scenario=Scenario.DUAL_CHANNEL, horizon_slots=250,
        levels=(3, 10_000, 10_000), dos_params=CASE_DUAL, seed=seed,
        intensity=intensity, gains=reactor_gains,
    )
    trace = run_scenario(cfg)
    slots = trace.slots
    assert not trace.saturated.any()
    assert np.all(slots["y_err"] <= slots["e3"])
    assert slots["deadbeat_residual"].max() <= 1e-9
    cert = decay_certificate(trace.plan.report.thetas, CASE_DUAL, BIG_DELTA,
                             e0_scale=inf_norm(reactor.c))
    envelope = cert.omega1 * cert.gamma ** np.arange(250)
    assert np.all(slots["e3"] <= envelope * (1 + 1e-12))


@pytest.mark.parametrize("seed, intensity", SWEEP, ids=SWEEP_IDS)
def test_ackfree_worst_admissible_patterns(reactor, reactor_gains, seed,
                                           intensity):
    cfg = SimConfig(
        plant=reactor, big_delta=BIG_DELTA, x0=X0, x0_bound=1.0,
        scenario=Scenario.OUTPUT_ACK_FREE, horizon_slots=150, levels=100,
        dos_params=CASE_SINGLE, seed=seed, intensity=intensity,
        gains=reactor_gains,
    )
    # the run completed, so no slot's inference disagreed
    trace = run_scenario(cfg)
    slots = trace.slots
    assert np.all(slots["x_norm"] <= slots["e"] * (1 + 1e-12))
    assert not trace.slots["degenerate_inference"].any()
    slot_attacked = slots["attacked"].astype(bool)
    inferred = trace.inferred_attack[::trace.plan.dp.eta]
    np.testing.assert_array_equal(inferred, slot_attacked)


@pytest.mark.parametrize("attack_slot", [2, 20])
def test_mismatch_demo_any_attack_placement(reactor, attack_slot):
    cfg = SimConfig(
        plant=reactor, big_delta=BIG_DELTA, x0=X0, x0_bound=1.0,
        scenario=Scenario.MISMATCH_DEMO, horizon_slots=300, levels=100,
        attack_slot=attack_slot, control_weight=100.0, observer="deadbeat",
    )
    trace = run_scenario(cfg)
    run = trace.q[-1] + 1
    sat = np.flatnonzero(trace.slots["saturated"][:run])
    assert sat.size > 0 and sat[0] > attack_slot
    bound = mismatch_bound_loop(trace, cfg, compile_plan(cfg))[:run]
    post = bound[attack_slot + 3:]
    assert post.size > 10
    assert np.all(np.diff(post) > 0)


# ROADMAP item 1's 2x2 plant: its ACK-free report passes at 2 and at 4
# output levels, under a budget that admits an attack on every slot
ITEM1_CFG = SimConfig(
    plant=ContinuousPlant(
        a=[[-1.3946162850439405, -1.8077213328925508],
           [-0.2566960498620898, -1.1373880293462002]],
        b=[[-0.0869890397980444], [1.2807859169629987]],
        c=[[1.5417151214283717, -1.652740695063137],
           [-0.9716405440504432, -0.7805565253495286]]),
    big_delta=0.5, x0=[-0.6512648625608888, -0.0659431439201037],
    x0_bound=1.0, scenario=Scenario.OUTPUT_ACK_FREE, horizon_slots=300,
    levels=4, dos_params=DoSParams(kappa_f=1, nu_f=200, kappa_d=1, nu_d=200),
    intensity=1.0,
)


# DoS seeds whose patterns at intensity 0.7 attack slots {1, 199}, {0, 199},
# {0, 200} and {0, 201}: at intensity 1.0 every seed gives the one pattern
ITEM1_SEEDS = (0, 1, 2, 9)


def _clean_runs_of_a_passing_report(levels):
    """Run the 2x2 plant at the DoS seeds of ``ITEM1_SEEDS`` at intensity
    0.7 if its report passes, asserting that no run saturates or leaves its
    range, and that the runs met distinct patterns; whether the report
    passed."""
    plan = compile_plan(dataclasses.replace(ITEM1_CFG, levels=levels))
    if plan.report.passes:
        patterns = set()
        for seed in ITEM1_SEEDS:
            trace = run_scenario(dataclasses.replace(
                ITEM1_CFG, levels=levels, seed=seed, intensity=0.7,
                gains=plan.gains))
            assert not trace.saturated.any()
            assert np.all(trace.slots["x_norm"] <= trace.slots["e"])
            patterns.add(trace.slots["attacked"].tobytes())
        assert len(patterns) == len(ITEM1_SEEDS)
    return plan.report.passes


def test_item1_plant_runs_clean_at_four_levels():
    assert _clean_runs_of_a_passing_report(4)


# the report passes (threshold 0.5696), yet the {0, 199} run saturates at
# slot 201
@pytest.mark.xfail(strict=True, raises=SaturationError,
                   reason="ROADMAP item 1")
def test_item1_plant_runs_clean_at_two_levels_if_its_report_passes():
    _clean_runs_of_a_passing_report(2)


HARNESS_PLANTS = list(harness_configs(50))


# the exit-code contract on random plants: a compile or a run of a passing
# report fails, if at all, with a DoslabError; a run need not be clean
# (ROADMAP item 1)
@pytest.mark.parametrize("scenario, levels", [
    (Scenario.OUTPUT_ACK_FREE, 4), (Scenario.OUTPUT_ACK, 4),
    (Scenario.DUAL_CHANNEL, (3, 50, 50))], ids=["ackfree", "ack", "dual"])
def test_random_plants_raise_only_doslab_errors(scenario, levels):
    for fields in HARNESS_PLANTS:
        cfg = SimConfig(scenario=scenario, levels=levels, **fields)
        with contextlib.suppress(DoslabError):
            plan = compile_plan(cfg)
            if plan.report.passes:
                run_scenario(dataclasses.replace(cfg, gains=plan.gains))
