import copy
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doslab import (
    ContinuousPlant,
    DoslabError,
    GainSet,
    InvalidMatrixError,
    SaturationError,
    ScenarioError,
    cli,
    controlloop,
    inf_norm,
    make_gain_set,
)
from doslab.conditions import ThetaVariant, build_report, decay_certificate
from doslab.controlloop import (
    CSV_BLOCK_ROWS,
    LoopTrace,
    Scenario,
    SimConfig,
    _matvecs,
    compile_plan,
    run_scenario,
)
from doslab.dos import DoSParams, DoSPattern, pattern_from_bools
from doslab.errors import DeadbeatContractError, InferenceMismatchError
from doslab.gains import derive_decay_constants

from .conftest import BIG_DELTA, K_REF, M_REF, X0
from .oracles import deadbeat_loop, mismatch_bound_loop, trace_to_csv_loop
from .test_cli import ALL_BUNDLED, FUZZ_VALUES, bundled, count_preparations

CASE_DUAL = DoSParams(kappa_f=2, nu_f=19, kappa_d=3, nu_d=18)
CASE_SINGLE = DoSParams(kappa_f=1, nu_f=11, kappa_d=1, nu_d=11)


def dual_config(reactor, gains, **overrides):
    base = dict(
        plant=reactor, big_delta=BIG_DELTA, x0=X0, x0_bound=1.0,
        scenario=Scenario.DUAL_CHANNEL, horizon_slots=800,
        levels=(3, 10_000, 10_000), dos_params=CASE_DUAL,
        seed=0, intensity=0.3, gains=gains,
    )
    base.update(overrides)
    return SimConfig(**base)


def ackfree_config(reactor, gains, **overrides):
    base = dict(
        plant=reactor, big_delta=BIG_DELTA, x0=X0, x0_bound=1.0,
        scenario=Scenario.OUTPUT_ACK_FREE, horizon_slots=300, levels=100,
        dos_params=CASE_SINGLE, seed=131, intensity=0.3, gains=gains,
    )
    base.update(overrides)
    return SimConfig(**base)


def bundled_config(name, **changes):
    """A bundled scenario's config as ``doslab run`` builds it, changed."""
    cfg = cli._build_config(cli.load_scenario(bundled(name)))
    return dataclasses.replace(cfg, **changes)


def mismatch_config(reactor):
    return SimConfig(
        plant=reactor, big_delta=BIG_DELTA, x0=X0, x0_bound=1.0,
        scenario=Scenario.MISMATCH_DEMO, horizon_slots=300, levels=100,
        attack_slot=5, control_weight=100.0, observer="deadbeat",
    )


@pytest.fixture(scope="module")
def dual_trace(reactor, reactor_gains):
    return run_scenario(dual_config(reactor, reactor_gains))


@pytest.fixture(scope="module")
def ackfree_trace(reactor, reactor_gains):
    return run_scenario(ackfree_config(reactor, reactor_gains))


@pytest.fixture(scope="module")
def mismatch_trace(reactor):
    return run_scenario(mismatch_config(reactor))


class TestDualChannel:
    def test_zero_initial_state(self, reactor, reactor_gains):
        cfg = dual_config(reactor, reactor_gains, x0=[0.0] * 4, x0_bound=0.0,
                          horizon_slots=40)
        trace = run_scenario(cfg)
        assert np.all(trace.x == 0.0)
        assert np.all(trace.u_applied == 0.0)
        assert np.all(trace.ranges["E3"] == 0.0)

    def test_no_attack_monotone_decrease(self, reactor, reactor_gains):
        cfg = dual_config(reactor, reactor_gains, horizon_slots=60,
                          pattern=pattern_from_bools([False] * 60),
                          dos_params=None)
        trace = run_scenario(cfg)
        thetas = trace.plan.report.thetas
        assert thetas.theta_steady < 1.0
        xn = trace.slots["x_norm"]
        # monotone until the state reaches the quantization noise floor
        # (around 1e-6 at these level counts); the first reset slot itself
        # may overshoot
        window = xn[1:21]
        assert np.all(np.diff(window) < 0)
        assert xn[-1] < 1e-6 * xn[0]

    def test_deadbeat_null_property(self, dual_trace):
        assert dual_trace.slots["deadbeat_residual"].max() <= 1e-9

    def test_range_dominates_output_error(self, dual_trace):
        slots = dual_trace.slots
        assert np.all(slots["y_err"] <= slots["e3"])

    def test_convergence(self, dual_trace):
        assert inf_norm(dual_trace.final_state) <= 1e-3

    def test_exponential_envelope(self, dual_trace, reactor):
        thetas = dual_trace.plan.report.thetas
        cert = decay_certificate(thetas, CASE_DUAL, BIG_DELTA,
                                 e0_scale=inf_norm(reactor.c))
        q = np.arange(len(dual_trace.slots["e3"]))
        envelope = cert.omega1 * cert.gamma ** q  # |x0| = 1
        assert np.all(dual_trace.slots["e3"] <= envelope * (1 + 1e-12))

    def test_input_ranges_cover_inputs(self, dual_trace):
        sent = np.max(np.abs(dual_trace.u_sent), axis=1)
        assert np.all(sent <= dual_trace.ranges["E2"] * (1 + 1e-12))

    def test_estimated_output_range_frozen_at_zero(self, dual_trace):
        assert np.all(dual_trace.ranges["E1"] == 0.0)

    def test_attacked_slots_apply_zero_input(self, dual_trace):
        attacked = dual_trace.inferred_attack
        assert np.all(dual_trace.u_applied[attacked] == 0.0)

    def test_determinism(self, reactor, reactor_gains, dual_trace, tmp_path):
        again = run_scenario(dual_config(reactor, reactor_gains))
        np.testing.assert_array_equal(again.x, dual_trace.x)
        np.testing.assert_array_equal(again.ranges["E3"],
                                      dual_trace.ranges["E3"])
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        dual_trace.to_csv(a)
        again.to_csv(b)
        assert a.read_bytes() == b.read_bytes()

    def test_even_n1_rejected(self, reactor, reactor_gains):
        with pytest.raises(ScenarioError):
            run_scenario(dual_config(reactor, reactor_gains,
                                         levels=(2, 100, 100)))

    def test_oversample_refines_time_grid(self, reactor, reactor_gains):
        cfg = dual_config(reactor, reactor_gains, horizon_slots=5,
                          oversample=4)
        trace = run_scenario(cfg)
        assert len(trace.t) == 5 * 2 * 4
        assert np.all(np.diff(trace.t) > 0)
        # oversampled points interpolate the same trajectory: the state at
        # each sub-step start matches the coarse run
        coarse = run_scenario(dual_config(reactor, reactor_gains,
                                              horizon_slots=5))
        keep = np.arange(0, len(trace.t), 4)
        np.testing.assert_allclose(trace.x[keep], coarse.x, atol=1e-12)


class TestOutputAck:
    def test_zero_initial_state(self, reactor):
        cfg = SimConfig(
            plant=reactor, big_delta=BIG_DELTA, x0=[0.0] * 4, x0_bound=0.0,
            scenario=Scenario.OUTPUT_ACK, horizon_slots=30, levels=100,
            dos_params=CASE_SINGLE, seed=7, intensity=0.3,
        )
        trace = run_scenario(cfg)
        assert np.all(trace.x == 0.0)

    def test_no_attack_geometric_range(self, reactor):
        cfg = SimConfig(
            plant=reactor, big_delta=BIG_DELTA, x0=X0, x0_bound=1.0,
            scenario=Scenario.OUTPUT_ACK, horizon_slots=40, levels=100,
            pattern=pattern_from_bools([False] * 40),
        )
        trace = run_scenario(cfg)
        thetas = trace.plan.report.thetas
        e = trace.slots["e"]
        # initial slot pays the resynchronization factor, then pure decay
        want = 1.0
        for q in range(len(e)):
            assert e[q] == pytest.approx(want, rel=1e-12)
            want *= thetas.theta_first if q == 0 else thetas.theta_steady

    def test_attacked_run_converges_and_stays_in_range(self, reactor):
        cfg = SimConfig(
            plant=reactor, big_delta=BIG_DELTA, x0=X0, x0_bound=1.0,
            scenario=Scenario.OUTPUT_ACK, horizon_slots=200, levels=100,
            dos_params=CASE_SINGLE, seed=7, intensity=0.3,
        )
        trace = run_scenario(cfg)
        assert np.all(trace.slots["err_norm"] <= trace.slots["e"] * (1 + 1e-12))
        assert inf_norm(trace.final_state) < 1e-3


class TestOutputAckFree:
    def test_zero_initial_state_inference_vacuous(self, reactor, reactor_gains):
        cfg = ackfree_config(reactor, reactor_gains, x0=[0.0] * 4,
                             x0_bound=0.0, horizon_slots=30)
        trace = run_scenario(cfg)
        assert np.all(trace.x == 0.0)
        assert trace.slots["degenerate_inference"].any()

    def test_single_attack_zero_input_signature(self, reactor, reactor_gains):
        pattern = pattern_from_bools([0] * 5 + [1] + [0] * 24)
        cfg = ackfree_config(reactor, reactor_gains, horizon_slots=30,
                             pattern=pattern, dos_params=None)
        trace = run_scenario(cfg)
        in_attacked_slot = trace.q == 5
        assert np.all(trace.u_applied[in_attacked_slot] == 0.0)
        assert np.all(trace.u_applied[~in_attacked_slot] != 0.0)
        slot_attacked = trace.slots["attacked"].astype(bool)
        inferred = trace.inferred_attack[::trace.plan.dp.eta]
        np.testing.assert_array_equal(inferred, slot_attacked)

    def test_case_study_run(self, ackfree_trace):
        # the run completed, so no slot's inference disagreed
        slots = ackfree_trace.slots
        assert inf_norm(ackfree_trace.final_state) <= 1e-3
        assert np.all(slots["x_norm"] <= slots["e"] * (1 + 1e-12))
        assert slots["deadbeat_residual"].max() <= 1e-9
        assert not ackfree_trace.slots["degenerate_inference"].any()

    def test_envelope(self, ackfree_trace):
        thetas = ackfree_trace.plan.report.thetas
        cert = decay_certificate(thetas, CASE_SINGLE, BIG_DELTA)
        q = np.arange(len(ackfree_trace.slots["e"]))
        envelope = cert.omega1 * cert.gamma ** q
        assert np.all(ackfree_trace.slots["e"] <= envelope * (1 + 1e-12))

    def test_odd_levels_rejected(self, reactor, reactor_gains):
        with pytest.raises(ScenarioError):
            run_scenario(ackfree_config(reactor, reactor_gains,
                                              levels=99))


class TestMismatchDemo:
    def test_no_attack_stays_synchronized(self, reactor):
        cfg = SimConfig(
            plant=reactor, big_delta=BIG_DELTA, x0=X0, x0_bound=1.0,
            scenario=Scenario.MISMATCH_DEMO, horizon_slots=60, levels=100,
            # on the last slot: the attack moves only the state after it
            attack_slot=59,
            control_weight=100.0, observer="deadbeat",
        )
        trace = run_scenario(cfg)
        np.testing.assert_array_equal(trace.ranges["E_e"], trace.ranges["E_d"])
        assert np.all(trace.slots["predictor_gap"] == 0.0)
        assert not trace.saturated.any()

    def test_single_attack_diverges(self, mismatch_trace):
        slots = mismatch_trace.slots
        run = mismatch_trace.q[-1] + 1
        sat = np.flatnonzero(slots["saturated"][:run])
        assert sat.size > 0
        assert sat[0] < 300
        # once the encoder saturates the true error escapes its range bound
        q = sat[0]
        assert slots["enc_err"][q] > slots["e_enc"][q]

    def test_bound_sequence_strictly_increasing(self, reactor,
                                                mismatch_trace):
        run = mismatch_trace.q[-1] + 1
        cfg = mismatch_config(reactor)
        bound = mismatch_bound_loop(mismatch_trace, cfg,
                                    compile_plan(cfg))[:run]
        post = bound[cfg.attack_slot + 3:]
        assert post.size > 10
        assert np.all(np.diff(post) > 0)

    # the attack at the first slot, mid-run and on the last slot
    @pytest.mark.parametrize("attack_slot", [0, 5, 59])
    def test_steps_as_the_ack_scheme_up_to_the_attack(self, reactor,
                                                       attack_slot):
        demo = SimConfig(
            plant=reactor, big_delta=BIG_DELTA, x0=X0, x0_bound=1.0,
            scenario=Scenario.MISMATCH_DEMO, horizon_slots=60, levels=100,
            attack_slot=attack_slot, control_weight=100.0,
            observer="deadbeat",
        )
        ack = dataclasses.replace(demo, scenario=Scenario.OUTPUT_ACK,
                                  attack_slot=None,
                                  pattern=pattern_from_bools([0] * 60))
        got, want = run_scenario(demo), run_scenario(ack)
        # the attack moves only the rows after its slot
        upto = got.q <= attack_slot
        assert upto.sum() == attack_slot + 1
        for name in ("x", "x_hat", "u_sent", "u_applied"):
            assert np.array_equal(getattr(got, name)[upto],
                                  getattr(want, name)[upto]), name

    def test_requires_attack_slot(self, reactor):
        with pytest.raises(ScenarioError):
            SimConfig(
                plant=reactor, big_delta=BIG_DELTA, x0=X0, x0_bound=1.0,
                scenario=Scenario.MISMATCH_DEMO, horizon_slots=10, levels=100,
            )


class TestConfigValidation:
    def test_x0_must_respect_bound(self, reactor):
        with pytest.raises(ScenarioError):
            SimConfig(
                plant=reactor, big_delta=BIG_DELTA, x0=[2.0, 0, 0, 0],
                x0_bound=1.0, scenario=Scenario.DUAL_CHANNEL,
                horizon_slots=10, levels=(3, 10, 10),
            )

    def test_pattern_must_cover_horizon(self, reactor, reactor_gains):
        with pytest.raises(ScenarioError):
            cfg = dual_config(reactor, reactor_gains, horizon_slots=100,
                              pattern=pattern_from_bools([False] * 50),
                              dos_params=None)
            run_scenario(cfg)

    def test_one_plan_serves_many_patterns(self, reactor, reactor_gains):
        plan = compile_plan(dual_config(reactor, reactor_gains))
        for seed in (1, 2):
            cfg = dual_config(reactor, reactor_gains, horizon_slots=30,
                              seed=seed)
            fresh = run_scenario(cfg)
            reused = run_scenario(dataclasses.replace(cfg, gains=plan.gains))
            np.testing.assert_array_equal(reused.x, fresh.x)
            np.testing.assert_array_equal(reused.ranges["E2"],
                                          fresh.ranges["E2"])

    @pytest.mark.parametrize("matrix", ["b", "c"])
    def test_misfit_plant_is_a_library_error(self, reactor, reactor_gains,
                                             matrix):
        bad = {"b": reactor.b[:3], "c": reactor.c[:, :3]}[matrix]
        with pytest.raises(DoslabError, match=f"{matrix} must have"):
            run_scenario(dual_config(
                dataclasses.replace(reactor, **{matrix: bad}), reactor_gains))

    def test_gains_entry_gives_the_gain_set_run(self, reactor, dual_trace,
                                                tmp_path):
        trace = run_scenario(dual_config(reactor, {"m": M_REF}))
        np.testing.assert_array_equal(trace.x, dual_trace.x)
        trace.to_csv(tmp_path / "entry.csv")
        dual_trace.to_csv(tmp_path / "gain_set.csv")
        assert ((tmp_path / "entry.csv").read_bytes()
                == (tmp_path / "gain_set.csv").read_bytes())

    @pytest.mark.parametrize("name, gain", [("k", K_REF), ("m", M_REF)])
    def test_misfit_gains_entry_is_a_scenario_error(self, reactor, name,
                                                    gain):
        with pytest.raises(ScenarioError, match=f"gains.{name} must have"):
            run_scenario(dual_config(reactor, {name: gain[:-1]}))

    @pytest.mark.parametrize("entry", ["synthesise", ("m", M_REF), {"mm": 1},
                                       {"m": M_REF, "k_ref": K_REF}])
    def test_unknown_gains_entry_is_a_scenario_error(self, reactor, entry):
        with pytest.raises(ScenarioError, match="gains"):
            compile_plan(dual_config(reactor, entry))

    @pytest.mark.parametrize("name", ["k", "m"])
    def test_ragged_gains_entry_is_an_invalid_matrix(self, reactor, name):
        with pytest.raises(InvalidMatrixError, match="2-D matrix"):
            compile_plan(dual_config(reactor, {name: [[1.0, 2.0], [1.0]]}))

    @pytest.mark.parametrize("x0", [[[1.0], [2.0, 3.0]], ["a", 1.0]],
                             ids=["ragged", "non-numeric"])
    def test_malformed_x0_is_an_invalid_matrix(self, reactor, x0):
        with pytest.raises(InvalidMatrixError, match="expected a vector"):
            ackfree_config(reactor, None, x0=x0)

    def test_uncertified_injected_feedback_gain_is_refused(self, reactor):
        cfg = SimConfig(
            plant=reactor, big_delta=BIG_DELTA, x0=X0, x0_bound=1.0,
            scenario=Scenario.OUTPUT_ACK, horizon_slots=30, levels=100,
            dos_params=CASE_SINGLE, gains={"k": np.zeros((2, 4))},
        )
        with pytest.raises(DoslabError) as info:
            compile_plan(cfg)
        assert type(info.value) is DoslabError
        assert str(info.value) == "injected feedback gain not certified stable"

    def test_a_config_is_frozen(self):
        cfg = bundled_config("batch_reactor_dual.json")
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.levels = "abc"
        assert cfg.levels == (3, 10_000, 10_000)

    def test_run_scenario_dispatch(self, reactor, reactor_gains):
        cfg = dual_config(reactor, reactor_gains, horizon_slots=3)
        trace = run_scenario(cfg)
        assert isinstance(trace, LoopTrace)
        assert trace.scenario is Scenario.DUAL_CHANNEL


class TestPlanChecks:
    """The rules that read the config alone hold for a config that reuses
    a plan through ``plan.gains``, and a :class:`Plan` is not a gains
    entry."""

    @pytest.mark.parametrize("changes, message", [
        (dict(attack_slot=25), "mismatch demo needs attack_slot below "
                               "horizon_slots 20, got 25"),
        (dict(attack_slot=None), "mismatch demo needs attack_slot$"),
        (dict(observer="luenberger"), "unknown observer mode 'luenberger'"),
        (dict(levels=(3, 100, 100)), "mismatch_demo runs need a single "
                                     "level count"),
    ])
    def test_config_rules_hold_for_a_plan(self, changes, message):
        cfg = bundled_config("batch_reactor_mismatch.json", horizon_slots=20)
        plan = compile_plan(cfg)
        with pytest.raises(ScenarioError, match=message):
            run_scenario(dataclasses.replace(cfg, gains=plan.gains,
                                             **changes))

    def test_a_plan_is_refused_as_gains(self):
        cfg = bundled_config("batch_reactor_dual.json", horizon_slots=20)
        plan = compile_plan(cfg)
        with pytest.raises(ScenarioError, match="gains must be None, "
                           "'synthesize', a GainSet or a dict of k, m and "
                           "nilpotency_tol, got Plan"):
            run_scenario(dataclasses.replace(cfg, gains=plan))


GAIN_MATRICES = ("controller_gain", "observer_gain")


class TestGainSet:
    """A gain set holds read-only float64 copies of its matrices."""

    def test_nested_lists_run(self, reactor, reactor_gains, dual_trace):
        gains = GainSet(**{name: getattr(reactor_gains, name).tolist()
                           for name in GAIN_MATRICES})
        assert all(getattr(gains, name).dtype == float
                   and not getattr(gains, name).flags.writeable
                   for name in GAIN_MATRICES)
        trace = run_scenario(dual_config(reactor, gains))
        np.testing.assert_array_equal(trace.x, dual_trace.x)

    @pytest.mark.parametrize("name", GAIN_MATRICES)
    def test_a_nan_entry_is_an_invalid_matrix(self, reactor_gains, name):
        bad = getattr(reactor_gains, name).copy()
        bad[0, 0] = np.nan
        with pytest.raises(InvalidMatrixError, match="finite"):
            dataclasses.replace(reactor_gains, **{name: bad})

    def test_a_given_matrix_is_copied(self, reactor_gains):
        k = reactor_gains.controller_gain.copy()
        gains = dataclasses.replace(reactor_gains, controller_gain=k)
        k[0, 0] += 1.0
        assert gains.controller_gain[0, 0] \
            == reactor_gains.controller_gain[0, 0]


# the theta variant each bundled scenario's report is built for
VARIANTS = {
    "batch_reactor_dual.json": ThetaVariant.DUAL,
    "batch_reactor_dual_deadbeat_observer.json": ThetaVariant.DUAL,
    "batch_reactor_ackfree.json": ThetaVariant.ACK_FREE,
    "batch_reactor_ack.json": ThetaVariant.ACK,
    "batch_reactor_mismatch.json": ThetaVariant.ACK,
}


@pytest.mark.parametrize("name", ALL_BUNDLED)
def test_plan_report_is_the_positional_build_report(name):
    plan = compile_plan(bundled_config(name))
    dc = derive_decay_constants(plan.gains, plan.dp, plan.l_obs)
    assert plan.report == build_report(VARIANTS[name], dc, plan.dp,
                                       plan.levels, plan.params)


def test_records_holding_arrays_compare_and_hash_by_identity():
    # a generated value __eq__ would compare array fields and raise
    runs = []
    for _ in range(2):
        cfg = bundled_config("batch_reactor_dual.json", horizon_slots=20)
        trace = run_scenario(cfg)
        plan = trace.plan
        runs.append((cfg, cfg.plant, plan, plan.gains, plan.dp, trace))
    for one, twin in zip(*runs):
        assert one == one and one != twin
        assert len({one, twin, one}) == 2


def fresh_gain_set(gs):
    """A copy of ``gs`` with no compiled plan: the same matrices, a new
    object."""
    return dataclasses.replace(gs)


class TestPlanReuse:
    """A ready :class:`GainSet` reuses the plan compiled from it while its
    other inputs are unchanged by value; the gain set itself cannot
    change."""

    def test_runs_sharing_a_gain_set_prepare_once(self, reactor,
                                                  reactor_gains,
                                                  monkeypatch):
        gains = fresh_gain_set(reactor_gains)
        calls = count_preparations(monkeypatch)
        traces = [run_scenario(dual_config(
            ContinuousPlant(reactor.a.copy(), reactor.b.copy(),
                            reactor.c.copy()),
            gains, horizon_slots=30, seed=seed, intensity=intensity))
            for seed in (0, 1, 2) for intensity in (0.1, 0.9)]
        assert calls == {"sample_plant": 1, "derive_decay_constants": 1,
                         "build_report": 1}
        assert all(t.plan is traces[0].plan for t in traces)

    @pytest.mark.parametrize("change", [
        *GAIN_MATRICES, "plant_in_place", "plant", "big_delta", "levels",
        "dos_params", "horizon_fallback", "scenario",
    ])
    def test_a_changed_input_gets_a_fresh_plan(self, reactor, reactor_gains,
                                               change):
        gains = fresh_gain_set(reactor_gains)
        # a copy, so that an edit in place leaves the shared fixture alone
        plant = ContinuousPlant(reactor.a.copy(), reactor.b, reactor.c)
        # a pattern and no DoS budget: the plan's budget is fitted to the
        # pattern, and with one attack it is the horizon's unit budget
        cfg = dual_config(plant, gains, horizon_slots=30, dos_params=None,
                          pattern=pattern_from_bools([False, True]
                                                     + [False] * 38))
        first = compile_plan(cfg)
        assert compile_plan(dataclasses.replace(cfg)) is first
        if change in GAIN_MATRICES:
            # a gain set's matrices are read-only, so its plan stands
            with pytest.raises(ValueError, match="read-only"):
                getattr(gains, change)[0, 0] *= 1.0 + 1e-9
            assert compile_plan(cfg) is first
            return
        if change == "plant_in_place":
            plant.a[0, 0] += 1e-9
        else:
            cfg = dataclasses.replace(cfg, **{
                "plant": dict(plant=ContinuousPlant(
                    plant.a * (1.0 + 1e-9), plant.b, plant.c)),
                "big_delta": dict(big_delta=BIG_DELTA * 1.01),
                "levels": dict(levels=(3, 10_000, 9_999)),
                # a budget the pattern meets
                "dos_params": dict(dos_params=DoSParams(kappa_f=1, nu_f=2,
                                                        kappa_d=1, nu_d=2)),
                "horizon_fallback": dict(horizon_slots=31),
                "scenario": dict(scenario=Scenario.OUTPUT_ACK_FREE,
                                 levels=100),
            }[change])
        again = compile_plan(cfg)
        want = compile_plan(dataclasses.replace(
            cfg, gains=fresh_gain_set(gains)))
        assert again is not first
        assert (again.report, again.params, again.levels) \
            == (want.report, want.params, want.levels)
        assert again.dp.a_d.tobytes() == want.dp.a_d.tobytes()

    @pytest.mark.parametrize("name", ["batch_reactor_dual.json",
                                      "batch_reactor_dual_deadbeat_observer"
                                      ".json"])
    def test_reused_traces_match_fresh_plans(self, tmp_path, name):
        cfg = bundled_config(name, horizon_slots=200)
        gains = compile_plan(cfg).gains
        for seed in (0, 5, 11):
            for intensity in (0.3, 0.9):
                run = dataclasses.replace(cfg, seed=seed, intensity=intensity)
                reused = run_outcome(dataclasses.replace(run, gains=gains),
                                     tmp_path)
                fresh = run_outcome(dataclasses.replace(
                    run, gains=fresh_gain_set(gains)), tmp_path)
                assert reused == fresh
        assert gains.compiled is not None

    # the plan of a scenario file's gains entry, reused through plan.gains
    # with an input changed: stepped under the old plan, the levels run
    # would start E2 at 13.43 instead of 10.74 and the big_delta run would
    # mix 0.5 s slots with 0.1 s sub-steps; under a fresh plan the gains,
    # deadbeat for 0.2 s slots only, saturate the big_delta run's input
    @pytest.mark.parametrize("changes", [dict(levels=(3, 5, 5)),
                                         dict(big_delta=0.5)],
                             ids=["levels", "big_delta"])
    def test_plan_gains_with_a_changed_input_get_a_fresh_plan(
            self, tmp_path, changes):
        cfg = bundled_config("batch_reactor_dual.json", horizon_slots=50)
        plan = compile_plan(cfg)
        assert compile_plan(dataclasses.replace(cfg, gains=plan.gains)) \
            is plan
        run = dataclasses.replace(cfg, gains=plan.gains, **changes)
        again = compile_plan(run)
        assert again is not plan
        assert (again.dp.big_delta, again.levels) == (run.big_delta,
                                                      run.levels)
        fresh = dataclasses.replace(run, gains=fresh_gain_set(plan.gains))
        assert run_outcome(run, tmp_path) == run_outcome(fresh, tmp_path)

    # a gain set holds no plant: reused at another big_delta, its plan
    # certifies the gains on the plant sampled there (the ACK-free report
    # then fails), not on the plant it was first compiled for
    @pytest.mark.parametrize("name, big_delta", [
        ("batch_reactor_ackfree.json", 0.3),
        ("batch_reactor_dual.json", 0.21),
    ])
    def test_a_reused_gain_set_is_certified_on_the_new_plant(self, name,
                                                             big_delta):
        cfg = bundled_config(name)
        plan = compile_plan(cfg)
        run = dataclasses.replace(cfg, gains=plan.gains, big_delta=big_delta)
        again = compile_plan(run)
        k, m = plan.gains.controller_gain, plan.gains.observer_gain
        want = compile_plan(dataclasses.replace(
            run, gains=make_gain_set(again.dp, k, m)))
        assert again.report == want.report
        assert again.report.constants.rho != plan.report.constants.rho


class TestReadOnlyPlan:
    """A plan's sampled plant blocks and predictor gain are read-only,
    C-contiguous float64 copies, so a plan reused through ``plan.gains`` is
    the one compiled; the config's plant stays editable, so that the plan
    memo sees an edit of it."""

    @pytest.mark.parametrize("name", ["batch_reactor_dual.json",
                                      "batch_reactor_ack.json"])
    def test_an_edit_in_place_is_refused(self, tmp_path, name):
        cfg = bundled_config(name, horizon_slots=50)
        plan = compile_plan(cfg)
        arrays = [plan.dp.a_d, plan.dp.b_d, plan.dp.c, plan.dp.a_lift]
        if "ack" in name:
            arrays.append(plan.l_obs)
        for array in arrays:
            assert array.dtype == np.float64 and array.flags.c_contiguous
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] += 1e-3
        assert cfg.plant.c.flags.writeable and plan.dp.c is not cfg.plant.c
        # an edited a_d, reused, would fail the dual run's |C xhat| contract
        # at slot 0
        run = dataclasses.replace(cfg, gains=plan.gains)
        assert compile_plan(run) is plan
        reused = run_outcome(run, tmp_path)
        assert isinstance(reused[0], bytes)
        assert reused == run_outcome(dataclasses.replace(
            cfg, gains=fresh_gain_set(plan.gains)), tmp_path)


class TestFailureRecords:
    """A codec failure names the slot, sub-step and channel it hit."""

    def test_too_few_levels_saturate_the_first_input(self, reactor,
                                                     monkeypatch):
        # the derived input range is a sharp bound: at n3 = 3 the slot-0
        # input meets it exactly, and whether it leaves it is a last-bit
        # tie that BLAS kernels decide differently.  No level count gives
        # more, so halve the range, which that input then exceeds twofold
        derive = controlloop.derive_input_range
        monkeypatch.setattr(controlloop, "derive_input_range",
                            lambda *args: 0.5 * derive(*args))
        cfg = dual_config(reactor, {"m": M_REF}, levels=(1, 3, 3))
        with pytest.raises(SaturationError) as info:
            run_scenario(cfg)
        err = info.value
        assert (err.slot, err.substep, err.channel) == (0, 0, "input")
        assert str(err).startswith(
            "input quantizer saturated at slot 0, sub-step 0: ")

    def test_ack_range_overflow_names_its_place(self, reactor):
        cfg = SimConfig(
            plant=reactor, big_delta=BIG_DELTA, x0=X0, x0_bound=1.0,
            scenario=Scenario.OUTPUT_ACK, horizon_slots=1000, levels=1,
            dos_params=CASE_SINGLE, seed=7, intensity=0.3,
        )
        with pytest.raises(InvalidMatrixError) as info:
            run_scenario(cfg)
        assert str(info.value) == (
            "output quantizer at slot 715: range times levels overflows the "
            "float range")

    @pytest.mark.parametrize("observer, gains, levels, where", [
        ("kalman", {"m": M_REF}, (3, 2, 100), "output quantizer at slot 421:"),
        ("deadbeat", "synthesize", (3, 100, 4),
         "input quantizer at slot 425, sub-step 0:"),
    ])
    def test_range_overflow_names_its_place(self, reactor, observer, gains,
                                            levels, where):
        cfg = dual_config(reactor, gains, levels=levels, observer=observer)
        with pytest.raises(InvalidMatrixError) as info:
            run_scenario(cfg)
        assert str(info.value) == (
            f"{where} range times levels overflows the float range")

    @pytest.mark.parametrize("config", [dual_config, ackfree_config])
    def test_published_feedback_gain_breaks_the_deadbeat_contract(
            self, reactor, reactor_dp, config):
        # the published gain is deadbeat for the textbook plant variant only
        cfg = config(reactor, make_gain_set(reactor_dp, K_REF, M_REF))
        with pytest.raises(DeadbeatContractError) as info:
            run_scenario(cfg)
        err = info.value
        assert (err.slot, err.substep, err.channel) == (0, None, "output")
        assert str(err).startswith("|C xhat| = ")
        assert str(err).endswith(
            " at the end of slot 0; the feedback gain is not deadbeat for "
            "this plant")

    def test_zero_feedback_gain_breaks_the_ackfree_inference(self, reactor,
                                                            reactor_dp):
        # a successful slot that sends only zero inputs reads as an attack
        gains = make_gain_set(reactor_dp, np.zeros((2, 4)), M_REF)
        with pytest.raises(InferenceMismatchError) as info:
            run_scenario(ackfree_config(reactor, gains))
        err = info.value
        assert (err.slot, err.substep, err.channel) == (0, None, "output")
        assert str(err) == (
            "zero-input inference disagreed with the pattern at slot 0")

    @pytest.mark.parametrize("seed, message", [
        *[(seed, "input quantizer at slot 184, sub-step 0: vector entries "
                 "must be finite") for seed in (0, 1, 3)],
        (2, "output quantizer at slot 185: range times levels overflows the "
            "float range"),
    ])
    def test_overflowing_estimate_is_named_by_the_codec(self, seed, message):
        # too few input levels: the ranges grow until the estimate overflows
        cfg = bundled_config("batch_reactor_dual_deadbeat_observer.json",
                             levels=(3, 4, 4), seed=seed)
        with pytest.raises(InvalidMatrixError) as info:
            run_scenario(cfg)
        assert str(info.value) == message


def _fails_with(error):
    return pytest.mark.xfail(
        strict=True, raises=error,
        reason="the ranges shrink into the subnormal band (ROADMAP item 12)")


# bundled files run to a long horizon as shipped: each fails today, within a
# second, and the fix of item 12 makes them pass.  The failing slot is left
# unasserted, since it may depend on the BLAS kernel.
@pytest.mark.parametrize("name, horizon", [
    pytest.param("batch_reactor_dual.json", 8_000,
                 marks=_fails_with(SaturationError)),
    pytest.param("batch_reactor_ackfree.json", 20_000,
                 marks=_fails_with(InferenceMismatchError)),
    pytest.param("batch_reactor_ack.json", 20_000,
                 marks=_fails_with(SaturationError)),
])
def test_long_horizon_runs(name, horizon):
    run_scenario(bundled_config(name, horizon_slots=horizon))


# SimConfig's fields that take one value, and a cap on the run size a value
# drawn for one of them may ask for
SCALAR_FIELDS = ("scenario", "big_delta", "x0_bound", "horizon_slots",
                 "levels", "seed", "intensity", "observer", "control_weight",
                 "oversample", "attack_slot")
RUN_SIZE_CAPS = {"horizon_slots": 20, "oversample": 4}
LEVELS_RULE = ("output_ack runs need a single level count of integers in "
               "[1, 2**53]")
# (field, value, message) for the ACK scenario, or with a fourth entry
# naming the scenario file
OUT_OF_RULE = {
    "big_delta_negative": ("big_delta", -1,
                           "big_delta must be finite and positive"),
    "big_delta_nan": ("big_delta", math.nan,
                      "big_delta must be finite and positive"),
    "big_delta_underflows": (
        "big_delta", 5e-324,
        "big_delta 5e-324 underflows to a zero input or plot period"),
    "intensity_above_1": ("intensity", 2,
                          "intensity must lie in [0, 1], got 2"),
    "levels_fractional": ("levels", 100.5, LEVELS_RULE),
    "levels_bool": ("levels", True, LEVELS_RULE),
    "levels_string": ("levels", "100", LEVELS_RULE),
    "horizon_fractional": ("horizon_slots", 2.5,
                           "horizon_slots must be an integer, got 2.5"),
    "oversample_infinite": ("oversample", math.inf,
                            "oversample must be an integer, got inf"),
    "seed_bool": ("seed", True, "seed must be an integer, got True"),
    "x0_bound_beyond_float": ("x0_bound", 10 ** 400,
                              "x0_bound must be finite and nonnegative"),
    "control_weight_zero": ("control_weight", 0,
                            "control_weight must be finite and positive"),
    "oversample_beyond_float": (
        "oversample", 10 ** 400,
        "big_delta 0.2 underflows to a zero input or plot period"),
    "seed_negative": ("seed", -1, "seed must be at least 0, got -1"),
    "attack_slot_negative": ("attack_slot", -1,
                             "attack_slot must be at least 0, got -1"),
    "attack_slot_past_horizon": (
        "attack_slot", 300,
        "mismatch demo needs attack_slot below horizon_slots 300, got 300",
        "batch_reactor_mismatch.json"),
    "attack_slot_outside_the_demo": (
        "attack_slot", 3,
        "output_ack runs take no attack_slot: only the mismatch demo has one"),
    "pattern_on_the_demo": (
        "pattern", pattern_from_bools([1] * 300),
        "mismatch demo takes no pattern: its one attack is at attack_slot",
        "batch_reactor_mismatch.json"),
    # the demo's report would read the budget its run never meets
    "dos_params_on_the_demo": (
        "dos_params", CASE_SINGLE,
        "mismatch demo takes no dos_params: its one attack is at "
        "attack_slot",
        "batch_reactor_mismatch.json"),
    "nilpotency_tol_zero": (
        "gains", {"nilpotency_tol": 0},
        "gains.nilpotency_tol must be finite and positive, got 0"),
    "nilpotency_tol_nan": (
        "gains", {"k": np.zeros((2, 4)), "nilpotency_tol": math.nan},
        "gains.nilpotency_tol must be finite and positive, got nan"),
    # a callable value is built inside the check: the pattern refuses it
    "pattern_entry_2": ("pattern", lambda: pattern_from_bools([0, 2] * 100),
                        "pattern entries must be 0 or 1, got 2"),
    # a pattern built directly is read by the same rule
    "pattern_short": ("pattern", DoSPattern((False, True, False)),
                      "pattern covers 3 slots, run needs 200"),
    "pattern_built_with_entry_2": ("pattern", DoSPattern((0, 2) * 100),
                                   "pattern entries must be 0 or 1, got 2"),
    "pattern_built_with_entry_x": ("pattern", DoSPattern(("x",) * 200),
                                   "pattern entries must be 0 or 1, got 'x'"),
    "pattern_built_with_entry_half": (
        "pattern", DoSPattern((0.5,) * 200),
        "pattern entries must be 0 or 1, got 0.5"),
    # slots that cannot be iterated are refused, not a bare TypeError
    "pattern_slots_int": ("pattern", DoSPattern(5),
                          "pattern slots must be iterable, got 5"),
    "pattern_slots_none": ("pattern", DoSPattern(None),
                           "pattern slots must be iterable, got None"),
    # a pattern given with dos_params must meet that budget, which the
    # report certifies: the second attack breaks (1, 11, 1, 11)
    "pattern_breaks_dos_params": (
        "pattern", pattern_from_bools([1] * 200),
        "pattern breaks the dos_params budget at prefix q = 2"),
    "horizon_past_the_row_ceiling": (
        "horizon_slots", 1e15,
        "horizon_slots x n_x x oversample is 4000000000000000 trace rows, "
        "above the 4000000 row ceiling"),
    "no_attack_source": (
        "dos_params", None,
        "output_ack runs need a pattern or dos_params (a scenario file's dos "
        "section)"),
    "pattern_list": ("pattern", [0, 1],
                     "pattern must be a DoSPattern or None, got [0, 1]"),
    "dos_params_dict": (
        "dos_params", {"kappa_f": 1, "nu_f": 11, "kappa_d": 1, "nu_d": 11},
        "dos_params must be a DoSParams or None, got {'kappa_f': 1, "
        "'nu_f': 11, 'kappa_d': 1, 'nu_d': 11}"),
    "plant_dict": ("plant", {"a": [[0.0]], "b": [[1.0]], "c": [[1.0]]},
                   "plant must be a ContinuousPlant, got {'a': [[0.0]], "
                   "'b': [[1.0]], 'c': [[1.0]]}"),
    # an entry with no one truth value is refused, not a bare ValueError
    "pattern_entry_array": (
        "pattern", lambda: pattern_from_bools([np.array([1, 0])] * 3),
        "pattern entries must be 0 or 1, got array([1, 0])"),
    # a given gain set that does not fit the 4-state reactor is refused
    # when it meets the sampled plant, not by a bare matmul error
    "gain_set_misshaped": ("gains", lambda: GainSet(np.zeros((2, 3)), M_REF),
                           "gains.k must have shape (2, 4), got (2, 3)"),
}
# the gains entry is resolved when a plan is compiled, not when the config
# is built
CONFIG_RULES = sorted(case for case, (field, *_) in OUT_OF_RULE.items()
                      if field != "gains")
DOS_FIELDS = ("kappa_f", "nu_f", "kappa_d", "nu_d")


class TestLibraryBoundary:
    """A config runs or raises a library error, whatever its fields hold."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(name=st.sampled_from(ALL_BUNDLED),
           field=st.sampled_from(SCALAR_FIELDS),
           value=st.sampled_from(FUZZ_VALUES))
    def test_scalar_fields_raise_only_library_errors(self, name, field,
                                                     value):
        cap = RUN_SIZE_CAPS.get(field)
        if (cap is not None and isinstance(value, (int, float))
                and not isinstance(value, bool) and cap < value < math.inf):
            value = cap
        changes = {"horizon_slots": 20, field: copy.deepcopy(value)}
        try:
            run_scenario(bundled_config(name, **changes))
        except DoslabError:
            pass

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(name=st.sampled_from(ALL_BUNDLED),
           field=st.sampled_from(DOS_FIELDS),
           value=st.sampled_from(FUZZ_VALUES))
    def test_dos_fields_raise_only_library_errors(self, name, field, value):
        try:
            params = dataclasses.replace(CASE_SINGLE,
                                         **{field: copy.deepcopy(value)})
            run_scenario(bundled_config(name, horizon_slots=20,
                                        dos_params=params))
        except DoslabError:
            pass

    @pytest.mark.parametrize("case", sorted(OUT_OF_RULE))
    def test_values_outside_a_rule_are_scenario_errors(self, case):
        field, value, message, *name = OUT_OF_RULE[case]
        with pytest.raises(ScenarioError) as info:
            if callable(value):
                value = value()
            run_scenario(bundled_config(*name or ["batch_reactor_ack.json"],
                                        **{field: value}))
        assert str(info.value) == message

    @pytest.mark.parametrize("case", CONFIG_RULES)
    def test_a_config_outside_a_rule_is_refused_when_built(self, case):
        field, value, message, *name = OUT_OF_RULE[case]
        with pytest.raises(ScenarioError) as info:
            if callable(value):
                value = value()
            bundled_config(*name or ["batch_reactor_ack.json"],
                           **{field: value})
        assert str(info.value) == message

    # the 20,000-slot runs a long-horizon regression needs, at oversample
    # 16, are built; none is run
    @pytest.mark.parametrize("name", ALL_BUNDLED)
    def test_the_row_ceiling_admits_long_oversampled_runs(self, name):
        cfg = bundled_config(name, horizon_slots=20_000, oversample=16)
        rows = cfg.horizon_slots * cfg.plant.n_x * cfg.oversample
        assert rows <= controlloop.MAX_TRACE_ROWS

    @pytest.mark.parametrize("name, field, value", [
        ("batch_reactor_ack.json", "horizon_slots", 200),
        ("batch_reactor_ack.json", "seed", 7),
        ("batch_reactor_ack.json", "oversample", 2),
        ("batch_reactor_ack.json", "levels", 100),
        ("batch_reactor_dual.json", "levels", (3, 100, 100)),
        ("batch_reactor_mismatch.json", "attack_slot", 5),
    ])
    def test_integral_float_counts_run_as_ints(self, tmp_path, name, field,
                                               value):
        paths = []
        for number in (int, float):
            count = (tuple(map(number, value)) if isinstance(value, tuple)
                     else number(value))
            trace = run_scenario(bundled_config(
                name, **{"horizon_slots": 20, field: count}))
            paths.append(tmp_path / f"{number.__name__}.csv")
            trace.to_csv(paths[-1])
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestInitialRanges:
    """A dual run's first ranges: the estimated-output range ``E1`` is zero
    throughout, and the output range ``E3`` starts at the bound on
    ``|C x0|``, ``inf_norm(C) * x0_bound``."""

    def test_zero_bound(self, reactor, reactor_gains):
        trace = run_scenario(dual_config(reactor, reactor_gains, x0=[0] * 4,
                                         x0_bound=0.0, horizon_slots=3))
        assert (trace.ranges["E1"] == 0.0).all()
        assert trace.ranges["E3"][0] == 0.0

    def test_identity_output(self, reactor):
        plant = dataclasses.replace(reactor, c=np.eye(4))
        trace = run_scenario(dual_config(plant, "synthesize", x0_bound=3.0,
                                         horizon_slots=3))
        assert (trace.ranges["E1"] == 0.0).all()
        assert trace.ranges["E3"][0] == 3.0

    def test_batch_reactor_output_row_sum(self, reactor, reactor_gains):
        trace = run_scenario(dual_config(reactor, reactor_gains,
                                         horizon_slots=3))
        assert (trace.ranges["E1"] == 0.0).all()
        # max |row sum| of the output map
        assert trace.ranges["E3"][0] == inf_norm(reactor.c) == 3.0


# every fixed-matrix shape the engines multiply by: C, K, A_d, B_d and M for
# the batch reactor (n_x = 4, n_u = n_y = 2), and square blocks around them
MATVEC_SHAPES = [(2, 4), (4, 4), (4, 2), (2, 2), (3, 5), (6, 6)]


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("shape", MATVEC_SHAPES)
def test_bound_dot_rounds_as_matmul(order, shape):
    # the engines bind each fixed matrix's ``dot`` once per run; the trace
    # bytes rest on it rounding exactly as ``a @ v``
    g = np.random.default_rng(sum(shape))
    for scale in (1e-8, 1e-3, 1.0, 1e3, 1e8):
        for _ in range(200):
            a = np.array(g.standard_normal(shape) * scale, order=order)
            v = g.standard_normal(shape[1]) * g.choice([1e-8, 1.0, 1e8])
            assert a.dot(v).tobytes() == (a @ v).tobytes()


def run_outcome(cfg, directory):
    """A run's trace CSV bytes and the dtype and bytes of each slot column,
    or its error's type, message, slot, sub-step and channel."""
    try:
        trace = run_scenario(cfg)
    except DoslabError as exc:
        return (type(exc), str(exc), *(getattr(exc, name, None)
                                       for name in ("slot", "substep",
                                                    "channel")))
    path = directory / "trace.csv"
    trace.to_csv(path)
    return path.read_bytes(), {
        name: (np.asarray(v).dtype.str, np.asarray(v).tobytes())
        for name, v in trace.slots.items()}


def engine_and_oracle(cfg, directory):
    """:func:`run_outcome` of ``cfg`` stepped by the engine's deadbeat loop
    and by :func:`deadbeat_loop`, on one compiled plan."""
    cfg = dataclasses.replace(cfg, gains=compile_plan(cfg).gains)
    engine = run_outcome(cfg, directory)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(controlloop, "_step_deadbeat", deadbeat_loop)
        oracle = run_outcome(cfg, directory)
    return engine, oracle


# a level count the bundled file gives (None) or one that may fail
DUAL_LEVELS = st.sampled_from([None, None, 2, 3, 4, 10, 100])
ACKFREE_LEVELS = st.sampled_from([None, None, 2, 4, 10])


class TestDeadbeatLoopOracle:
    """The deadbeat loop gives the bytes, slot columns and failure fields
    of the loop that steps every estimate and checks each slot as it
    ends."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(name=st.sampled_from(["batch_reactor_dual.json",
                                 "batch_reactor_dual_deadbeat_observer.json",
                                 "batch_reactor_ackfree.json"]),
           horizon=st.integers(1, 250),
           seed=st.integers(0, 2 ** 64 - 1),
           intensity=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
           data=st.data())
    def test_random_patterns_match(self, tmp_path_factory, name, horizon,
                                   seed, intensity, data):
        changes = dict(horizon_slots=horizon, seed=seed, intensity=intensity)
        if "dual" in name:
            n2, n3 = data.draw(DUAL_LEVELS), data.draw(DUAL_LEVELS)
            if n2 or n3:
                changes["levels"] = (3, n2 or 10_000, n3 or 10_000)
        elif (n := data.draw(ACKFREE_LEVELS)) is not None:
            changes["levels"] = n
        engine, oracle = engine_and_oracle(bundled_config(name, **changes),
                                           tmp_path_factory.mktemp("run"))
        assert engine == oracle

    @pytest.mark.parametrize("case, error, slot", [
        ("zero_feedback_gain", InferenceMismatchError, 0),
        # the first success, after the attacks, sends only zero inputs
        ("zero_feedback_gain_after_1_attack", InferenceMismatchError, 1),
        ("zero_feedback_gain_after_3_attacks", InferenceMismatchError, 3),
        # a saturation at slot 0, sub-step 0 on the AVX-512 kernel; it rests
        # on a last-bit tie, which other kernels break into a later overflow
        ("too_few_levels", (SaturationError, InvalidMatrixError), None),
        ("not_deadbeat", DeadbeatContractError, 0),
        # the engine steps on to a codec overflow before it checks the slot
        # ends; slot 0's residual still names the failure
        ("not_deadbeat_then_overflow", DeadbeatContractError, 0),
    ])
    def test_failures_match(self, reactor, reactor_dp, tmp_path, case, error,
                            slot):
        not_deadbeat = {"k": K_REF, "m": M_REF, "nilpotency_tol": 1e300}
        zero_gain = make_gain_set(reactor_dp, np.zeros((2, 4)), M_REF)

        def attacks_then_zero_gain(n):
            return ackfree_config(
                reactor, zero_gain, horizon_slots=n + 29, dos_params=None,
                pattern=pattern_from_bools([1] * n + [0] * 29))

        cfg = {
            "zero_feedback_gain": lambda: ackfree_config(reactor, zero_gain),
            "zero_feedback_gain_after_1_attack":
                lambda: attacks_then_zero_gain(1),
            "zero_feedback_gain_after_3_attacks":
                lambda: attacks_then_zero_gain(3),
            "too_few_levels": lambda: dual_config(reactor, {"m": M_REF},
                                                  levels=(1, 3, 3)),
            "not_deadbeat": lambda: ackfree_config(reactor, not_deadbeat),
            "not_deadbeat_then_overflow": lambda: dual_config(
                reactor, not_deadbeat, levels=(3, 4, 4)),
        }[case]()
        engine, oracle = engine_and_oracle(cfg, tmp_path)
        assert engine == oracle
        assert issubclass(engine[0], error)
        assert slot is None or engine[2] == slot

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(rows=st.integers(0, 40), shape=st.tuples(st.integers(1, 9),
                                                     st.integers(1, 9)),
           order=st.sampled_from("CF"), seed=st.integers(0, 2 ** 32 - 1))
    def test_matvecs_round_as_each_dot(self, rows, shape, order, seed):
        g = np.random.default_rng(seed)
        a = np.array(g.standard_normal(shape)
                     * g.choice([1e-8, 1.0, 1e8], size=shape), order=order)
        vs = g.standard_normal((rows, shape[1])) * g.choice([1e-8, 1.0, 1e8])
        want = np.array([a.dot(v) for v in vs]).reshape(rows, shape[0])
        assert _matvecs(a, vs).tobytes() == want.tobytes()


def traced_peak(fn, *args):
    """``fn(*args)`` and the most memory, in bytes, that Python and numpy
    allocations made during the call held at once (tracemalloc)."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTraceMemory:
    """A run keeps each sub-step's values as packed floats, not as per-row
    objects, and a CSV write holds one block of rows as Python values, so
    neither grows by more than the trace itself with the horizon."""

    def test_a_dual_run_peaks_below_500_bytes_per_row(self):
        cfg = bundled_config("batch_reactor_dual.json", horizon_slots=2000)
        cfg = dataclasses.replace(cfg, gains=compile_plan(cfg).gains)
        trace, peak = traced_peak(run_scenario, cfg)
        assert len(trace.t) == 4000
        assert peak / len(trace.t) < 500

    @pytest.mark.parametrize("slots", [2000, 4000])
    def test_a_write_peaks_below_half_a_megabyte(self, tmp_path, slots):
        trace = run_scenario(bundled_config("batch_reactor_dual.json",
                                            horizon_slots=slots))
        _, peak = traced_peak(trace.to_csv, tmp_path / "trace.csv")
        assert peak < 0.5e6


# trace rows per slot at oversample 1: the reactor's protocol schemes send
# eta = 2 inputs a slot
ROWS_PER_SLOT = {"dual": 2, "ack": 1, "ackfree": 2, "mismatch": 1}


def _assert_csv_matches_loop_writer(trace, tmp_path):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    trace.to_csv(got)
    trace_to_csv_loop(trace, want)
    assert got.read_bytes() == want.read_bytes()


class TestTraceCsv:
    def test_column_layout(self, dual_trace, tmp_path):
        path = tmp_path / "trace.csv"
        dual_trace.to_csv(path)
        header = path.read_text().splitlines()[0].split(",")
        assert header[:3] == ["t", "q", "k"]
        for name in ("x_0", "x_3", "xhat_0", "u_sent_0", "u_applied_1",
                     "y_0", "y_1", "E1", "E2", "E3", "outcome", "saturated",
                     "inferred_attack"):
            assert name in header

    def test_seventeen_digit_roundtrip(self, dual_trace, tmp_path):
        path = tmp_path / "trace.csv"
        dual_trace.to_csv(path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        col = header.index("E3")
        values = np.array([float(line.split(",")[col]) for line in lines[1:]])
        # every E3 row value round-trips exactly through the text form
        np.testing.assert_array_equal(values, dual_trace.ranges["E3"])

    @pytest.mark.parametrize("engine, oversample, rows", [
        # 60 slots, shorter than one block
        *(pytest.param(engine, oversample,
                       60 * oversample * ROWS_PER_SLOT[engine],
                       id=f"{engine}-{oversample}")
          for engine, oversample in [
              ("dual", 1), ("dual", 2), ("ack", 1), ("ack", 2),
              ("ackfree", 1), ("ackfree", 2), ("mismatch", 1)]),
        pytest.param("dual", 1, CSV_BLOCK_ROWS, id="dual-1-one_block"),
        pytest.param("ack", 1, CSV_BLOCK_ROWS + 1,
                     id="ack-1-one_block_and_a_row"),
        pytest.param("ack", 2, 2 * CSV_BLOCK_ROWS + 2,
                     id="ack-2-two_blocks_and_two_rows"),
        pytest.param("ackfree", 2, 4 * CSV_BLOCK_ROWS,
                     id="ackfree-2-four_blocks"),
        pytest.param("dual", 2, 4 * CSV_BLOCK_ROWS + 4,
                     id="dual-2-four_blocks_and_four_rows"),
    ])
    def test_matches_loop_writer(self, reactor, reactor_gains, tmp_path,
                                 engine, oversample, rows):
        horizon = rows // (ROWS_PER_SLOT[engine] * oversample)
        if engine == "dual":
            cfg = dual_config(reactor, reactor_gains, horizon_slots=horizon,
                              oversample=oversample)
        elif engine == "ackfree":
            cfg = ackfree_config(reactor, reactor_gains,
                                 horizon_slots=horizon, oversample=oversample)
        else:
            cfg = SimConfig(
                plant=reactor, big_delta=BIG_DELTA, x0=X0, x0_bound=1.0,
                horizon_slots=horizon, levels=100, oversample=oversample,
                **(dict(scenario=Scenario.OUTPUT_ACK, dos_params=CASE_SINGLE,
                        seed=7, intensity=0.3) if engine == "ack" else
                   dict(scenario=Scenario.MISMATCH_DEMO, attack_slot=5,
                        control_weight=100.0, observer="deadbeat")),
            )
        trace = run_scenario(cfg)
        assert len(trace.t) == rows
        _assert_csv_matches_loop_writer(trace, tmp_path)

    def test_special_values_match_loop_writer(self, dual_trace, tmp_path):
        rows = slice(0, 6)
        x = dual_trace.x[rows].copy()
        x[0, 0], x[1, 1], x[2, 2], x[3, 3] = -0.0, 5e-324, np.inf, np.nan
        y = dual_trace.y[rows].copy()
        y[4, 0], y[5, 1] = -np.inf, 2.2250738585072014e-308 / 3
        trace = dataclasses.replace(
            dual_trace, t=dual_trace.t[rows] * -0.0, q=dual_trace.q[rows],
            k=dual_trace.k[rows], x=x, x_hat=dual_trace.x_hat[rows],
            u_sent=dual_trace.u_sent[rows],
            u_applied=dual_trace.u_applied[rows], y=y,
            ranges={n: v[rows] for n, v in dual_trace.ranges.items()},
            outcome=dual_trace.outcome[rows],
            saturated=dual_trace.saturated[rows],
            inferred_attack=dual_trace.inferred_attack[rows],
        )
        _assert_csv_matches_loop_writer(trace, tmp_path)
        lines = (tmp_path / "got.csv").read_text().splitlines()
        assert lines[1].startswith("-0,") and ",-0," in lines[1]
        assert ",4.9406564584124654e-324," in lines[2]
        assert ",inf," in lines[3] and ",nan," in lines[4]
