"""Cross-pattern soundness sweeps.

The per-slot guarantees (no saturation, range dominance, exact inference,
envelope) must hold for every pattern the budgets admit, not just the
case-study one, so these runs regenerate worst-case patterns at full
proposal intensity across seeds.
"""

import numpy as np
import pytest

from doslab import inf_norm
from doslab.conditions import decay_certificate
from doslab.controlloop import (
    Scenario,
    SimConfig,
    mismatch_bound,
    run_scenario,
)
from doslab.dos import DoSParams

from .conftest import BIG_DELTA, X0

CASE_DUAL = DoSParams(kappa_f=2, nu_f=19, kappa_d=3, nu_d=18)
CASE_SINGLE = DoSParams(kappa_f=1, nu_f=11, kappa_d=1, nu_d=11)


@pytest.mark.parametrize("seed", range(12))
def test_dual_channel_worst_admissible_patterns(reactor, reactor_gains, seed):
    cfg = SimConfig(
        plant=reactor, big_delta=BIG_DELTA, x0=X0, x0_bound=1.0,
        scenario=Scenario.DUAL_CHANNEL, horizon_slots=250,
        levels=(3, 10_000, 10_000), dos_params=CASE_DUAL, seed=seed,
        intensity=1.0, gains=reactor_gains,
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


@pytest.mark.parametrize("seed", range(12))
def test_ackfree_worst_admissible_patterns(reactor, reactor_gains, seed):
    cfg = SimConfig(
        plant=reactor, big_delta=BIG_DELTA, x0=X0, x0_bound=1.0,
        scenario=Scenario.OUTPUT_ACK_FREE, horizon_slots=150, levels=100,
        dos_params=CASE_SINGLE, seed=seed, intensity=1.0,
        gains=reactor_gains,
    )
    trace = run_scenario(cfg)
    slots = trace.slots
    assert np.all(slots["enc_equals_dec"])
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
    bound = mismatch_bound(trace)[:run]
    post = bound[attack_slot + 3:]
    assert post.size > 10
    assert np.all(np.diff(post) > 0)
