from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from doslab import (
    DoslabError,
    Scenario,
    ScenarioError,
    cli,
    compile_plan,
    derive_decay_constants,
    design_deadbeat_gain,
    design_deadbeat_observer,
    design_observer_gain,
    gelfand_radius,
    inf_norm,
    make_gain_set,
    sample_plant,
    schur_certified,
)
from doslab.discretize import DiscretePlant, discretize
from doslab.errors import StabilityCertificationError
from doslab.gains import (
    NILPOTENCY_RTOL,
    RICCATI_RTOL,
    _scan_constants,
    build_gain_set,
    design_stabilizing_gain,
    verify_nilpotent,
)
from doslab.matrixcore import mat_pow, stack_norms

from .conftest import BIG_DELTA, K_REF, M_REF, rng
from .oracles import (
    closed_matrices,
    observer_gain_loop,
    random_controllable_pair,
    scan_constants_loop,
    stabilizing_gain_loop,
)


def _toy_dp(a_d, b_d, c=None, eta=None):
    a_d = np.atleast_2d(np.array(a_d, dtype=float))
    b_d = np.atleast_2d(np.array(b_d, dtype=float))
    n = a_d.shape[0]
    c = np.eye(n) if c is None else np.atleast_2d(np.array(c, dtype=float))
    from doslab.discretize import controllability_index

    eta = controllability_index(a_d, b_d) if eta is None else eta
    return DiscretePlant(a_d=a_d, b_d=b_d, c=c, delta=1.0, big_delta=float(eta),
                         eta=eta, mu=1, a_lift=mat_pow(a_d, eta))


class TestDeadbeatGain:
    def test_scalar(self):
        k = design_deadbeat_gain(_toy_dp([[2.0]], [[1.0]]))
        assert k[0, 0] == pytest.approx(-2.0, abs=1e-12)

    def test_double_integrator(self):
        dp = _toy_dp([[1.0, 1.0], [0.0, 1.0]], [[0.5], [1.0]])
        assert dp.eta == 2
        k = design_deadbeat_gain(dp)
        assert verify_nilpotent(dp.a_d, dp.b_d, k, 2) <= 1e-10

    def test_batch_reactor_synthesis(self, reactor_dp):
        k = design_deadbeat_gain(reactor_dp)
        residual = verify_nilpotent(reactor_dp.a_d, reactor_dp.b_d, k, 2)
        assert residual <= NILPOTENCY_RTOL * inf_norm(reactor_dp.a_d) ** 2
        # higher powers stay bounded by the residual times closed-loop norms
        closed = reactor_dp.a_d + reactor_dp.b_d @ k
        for power in range(3, 7):
            assert inf_norm(mat_pow(closed, power)) <= (
                residual * inf_norm(closed) ** (power - 2) + 1e-300
            )

    def test_random_controllable_pairs(self):
        g = rng(42)
        for _ in range(25):
            for n, m in ((3, 1), (3, 2), (4, 1), (4, 2)):
                a, b = random_controllable_pair(g, n, m)
                dp = _toy_dp(a, b)
                k = design_deadbeat_gain(dp)
                bound = NILPOTENCY_RTOL * inf_norm(a) ** dp.eta
                assert verify_nilpotent(a, b, k, dp.eta) <= bound

    def test_reference_gain_matches_textbook_variant(self, reactor_textbook,
                                                     reactor_dp):
        # The published feedback gain is deadbeat (to print precision) for
        # the textbook sign of entry (4, 3)...
        dp_tb = sample_plant(reactor_textbook, BIG_DELTA)
        residual_tb = verify_nilpotent(dp_tb.a_d, dp_tb.b_d, K_REF, 2)
        assert residual_tb <= 5e-2
        # ...and is far from deadbeat for the printed sign, which pins the
        # sign discrepancy between the two published variants.
        residual_printed = verify_nilpotent(reactor_dp.a_d, reactor_dp.b_d,
                                            K_REF, 2)
        assert residual_printed > 0.5

    def test_deadbeat_estimate_law(self, reactor_dp, reactor_synth_gains):
        # C (a_d + b_d k)^eta v = 0: the mechanism that freezes the
        # estimated-output channel
        _, rbar = closed_matrices(reactor_synth_gains, reactor_dp)
        closed_eta = mat_pow(rbar, reactor_dp.eta)
        g = rng(1)
        for _ in range(20):
            v = g.uniform(-5, 5, size=4)
            assert inf_norm(reactor_dp.c @ closed_eta @ v) <= 1e-8


class TestVerifyNilpotent:
    def test_zero_gain_on_unstable_plant(self):
        residual = verify_nilpotent([[2.0]], [[1.0]], [[0.0]], 1)
        assert residual == 2.0

    def test_synthesized_gain(self, reactor_dp, reactor_synth_gains):
        residual = verify_nilpotent(
            reactor_dp.a_d, reactor_dp.b_d,
            reactor_synth_gains.controller_gain, 2,
        )
        assert residual <= 1e-8


class TestObserverGain:
    def test_scalar_fixed_point_vs_bisection(self):
        m = design_observer_gain([[0.5]], [[1.0]])

        def riccati_gap(p):
            return 0.25 * p / (p + 1.0) + 1.0 - p

        lo, hi = 1.0, 2.0
        for _ in range(90):
            mid = 0.5 * (lo + hi)
            if riccati_gap(mid) > 0:
                lo = mid
            else:
                hi = mid
        p_star = 0.5 * (lo + hi)
        assert m[0, 0] == pytest.approx(p_star / (p_star + 1.0), abs=1e-10)

    def test_full_measurement(self):
        g = rng(2)
        a = g.uniform(-1, 1, size=(3, 3)) * 2.0
        m = design_observer_gain(a, np.eye(3))
        assert gelfand_radius(a @ (np.eye(3) - m), 128) < 1.0

    def test_batch_reactor_certified(self, reactor_dp):
        m = design_observer_gain(reactor_dp.a_lift, reactor_dp.c)
        closed = reactor_dp.a_lift @ (np.eye(4) - m @ reactor_dp.c)
        assert gelfand_radius(closed, 512) < 1.0

    def test_reference_observer_gain_certified(self, reactor_dp):
        closed = reactor_dp.a_lift @ (np.eye(4) - np.array(M_REF) @ reactor_dp.c)
        assert gelfand_radius(closed, 512) < 1.0

    def test_badly_scaled_pair_stalls_by_the_default_relative_test(self):
        # the iterate's round-off outgrows the absolute stall threshold on
        # this pair: with it alone the iteration ran to its step cap, for
        # seconds, and raised
        a, b = random_controllable_pair(np.random.default_rng(2), 5, 1)
        m = design_observer_gain(a.T, b.T)
        assert gelfand_radius(a.T @ (np.eye(5) - m @ b.T), 512) < 1.0
        assert np.array_equal(m, observer_gain_loop(a.T, b.T, RICCATI_RTOL))


class TestDeadbeatObserver:
    def test_full_measurement_cancels_exactly(self):
        a = np.array([[1.5, 0.3], [0.0, 2.0]])
        m = design_deadbeat_observer(a, np.eye(2), 1)
        closed = a @ (np.eye(2) - m)
        assert inf_norm(closed) <= 1e-12

    def test_scalar(self):
        m = design_deadbeat_observer([[3.0]], [[2.0]], 1)
        assert m[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_batch_reactor(self, reactor_dp):
        m = design_deadbeat_observer(reactor_dp.a_lift, reactor_dp.c,
                                     reactor_dp.mu)
        closed = reactor_dp.a_lift @ (np.eye(4) - m @ reactor_dp.c)
        bound = 1e-8 * inf_norm(reactor_dp.a_lift) ** reactor_dp.mu
        assert inf_norm(mat_pow(closed, reactor_dp.mu)) <= bound


class TestStabilizingGain:
    def test_certified_stable(self, reactor):
        a_d, b_d = discretize(reactor.a, reactor.b, BIG_DELTA)
        k = design_stabilizing_gain(a_d, b_d)
        assert gelfand_radius(a_d + b_d @ k, 512) < 1.0

    def test_control_weight_slows_the_loop(self, reactor):
        a_d, b_d = discretize(reactor.a, reactor.b, BIG_DELTA)
        fast = gelfand_radius(a_d + b_d @ design_stabilizing_gain(a_d, b_d), 512)
        slow = gelfand_radius(
            a_d + b_d @ design_stabilizing_gain(a_d, b_d, control_weight=100.0),
            512,
        )
        assert slow > fast


def _gain_or_error(design, *args):
    """The gain ``design`` returns, or the type of the library error it
    raises."""
    try:
        return design(*args)
    except DoslabError as exc:
        return type(exc)


def _same_outcome(got, want):
    if isinstance(want, type):
        return got is want
    return not isinstance(got, type) and np.array_equal(got, want)


BUNDLED = sorted((resources.files("doslab") / "scenarios").iterdir(),
                 key=lambda path: path.name)


class TestRiccatiMatchesLoopOracle:
    @pytest.mark.parametrize("path", BUNDLED, ids=lambda path: path.name)
    def test_bundled_plants(self, path):
        cfg = cli._build_config(cli.load_scenario(path))
        dp = compile_plan(cfg).dp
        assert np.array_equal(design_observer_gain(dp.a_lift, dp.c),
                              observer_gain_loop(dp.a_lift, dp.c,
                                                 RICCATI_RTOL))
        for weight in {1.0, cfg.control_weight}:
            assert np.array_equal(
                design_stabilizing_gain(dp.a_d, dp.b_d, weight),
                stabilizing_gain_loop(dp.a_d, dp.b_d, weight))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 5),
           m=st.integers(1, 3),
           weight=st.sampled_from([1.0, 100.0]) | st.floats(1e-3, 1e3))
    def test_random_stabilizable_pairs(self, seed, n, m, weight):
        a, b = random_controllable_pair(np.random.default_rng(seed), n, m)
        # the relative stall test: random pairs are badly scaled for the
        # absolute one alone
        assert _same_outcome(
            _gain_or_error(design_observer_gain, a.T, b.T, 1e-12),
            _gain_or_error(observer_gain_loop, a.T, b.T, 1e-12))
        assert _same_outcome(
            _gain_or_error(design_stabilizing_gain, a, b, weight),
            _gain_or_error(stabilizing_gain_loop, a, b, weight))


class TestDefaultScanCap:
    @pytest.mark.parametrize("path", BUNDLED, ids=lambda path: path.name)
    def test_agrees_with_the_plan_certificate(self, path):
        # a call with no cap scans as far as the plan's certificate did:
        # its bounds give the plan's rho
        plan = compile_plan(cli._build_config(cli.load_scenario(path)))
        r, rbar = closed_matrices(plan.gains, plan.dp)
        closed = [r]
        if plan.l_obs is not None:
            closed.append(plan.dp.a_lift - plan.l_obs @ plan.dp.c)
            assert schur_certified(rbar)
        assert all(schur_certified(m) for m in closed)
        worst = max(gelfand_radius(m) for m in closed)
        assert (worst + 1.0) / 2.0 == plan.report.constants.rho


# a malformed or injected gains entry, or a bad observer, on the dual
# plant: build_gain_set keyword arguments, error type and message, or with a
# fourth entry naming the function called instead
GAIN_SET_REFUSALS = {
    "k_misshaped": (dict(entry={"k": K_REF[:1]}), ScenarioError,
                    "gains.k must have shape (2, 4), got (1, 4)"),
    "m_misshaped": (dict(entry={"m": M_REF[:3]}), ScenarioError,
                    "gains.m must have shape (4, 2), got (3, 2)"),
    "unknown_key": (dict(entry={"mm": 1}), ScenarioError,
                    "gains must be None, 'synthesize', a GainSet or a dict of "
                    "k, m and nilpotency_tol, got {'mm': 1}"),
    "nilpotency_tol_zero": (
        dict(entry={"nilpotency_tol": 0}), ScenarioError,
        "gains.nilpotency_tol must be finite and positive, got 0"),
    # the reference feedback gain is deadbeat for the textbook variant only
    "loose_k": (dict(entry={"k": K_REF}), DoslabError,
                "injected feedback gain is not deadbeat: residual 6.796e-01 "
                "> 2.296e-01"),
    "zero_k_not_deadbeat": (
        dict(entry={"k": np.zeros((2, 4))}, deadbeat=False), DoslabError,
        "injected feedback gain not certified stable"),
    "bogus_observer": (dict(observer="bogus"), ValueError,
                       "unknown observer mode 'bogus'"),
    "make_m_misshaped": (dict(k=np.zeros((2, 4)), m=np.zeros((4, 1))),
                         ScenarioError,
                         "gains.m must have shape (4, 2), got (4, 1)",
                         make_gain_set),
}


class TestBuildGainSet:
    @pytest.mark.parametrize("path", BUNDLED, ids=lambda path: path.name)
    def test_a_files_entry_gives_the_plan_gains(self, path):
        doc = cli.load_scenario(path)
        cfg = cli._build_config(doc)
        plan = compile_plan(cfg)
        single_rate = cfg.scenario in (Scenario.OUTPUT_ACK,
                                       Scenario.MISMATCH_DEMO)
        got = build_gain_set(plan.dp, cfg.observer, doc.get("gains"),
                             not single_rate, cfg.control_weight)
        # bit for bit and in the same layout, which moves the engine's bits
        for name in ("controller_gain", "observer_gain"):
            mine, theirs = getattr(got, name), getattr(plan.gains, name)
            assert mine.tobytes() == theirs.tobytes()
            assert mine.strides == theirs.strides
        assert got.deadbeat_observer == plan.gains.deadbeat_observer

    @pytest.mark.parametrize("case", sorted(GAIN_SET_REFUSALS))
    def test_refusals_keep_their_messages(self, reactor_dp, case):
        kwargs, error, message, *call = GAIN_SET_REFUSALS[case]
        with pytest.raises(error) as info:
            (call or [build_gain_set])[0](reactor_dp, **kwargs)
        assert type(info.value) is error
        assert str(info.value) == message


class TestDecayConstants:
    def test_scalar_half(self):
        # zero observer gain keeps the error transition at a_lift = 0.5,
        # which is already contractive, so the scan sees a pure geometric
        dp = _toy_dp([[0.5]], [[1.0]])
        gs = make_gain_set(dp, [[-0.5]], [[0.0]])
        assert closed_matrices(gs, dp)[0][0, 0] == 0.5
        dc = derive_decay_constants(gs, dp)
        assert dc.rho == pytest.approx(0.75, abs=1e-12)
        assert dc.a0 == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_inequalities_hold_exhaustively(self, reactor_dp, reactor_gains):
        dc = derive_decay_constants(reactor_gains, reactor_dp)
        r, rbar = closed_matrices(reactor_gains, reactor_dp)
        lifted_m = reactor_dp.a_lift @ reactor_gains.observer_gain
        cols = [mat_pow(reactor_dp.a_d, reactor_dp.eta - i - 1) @ reactor_dp.b_d
                for i in range(reactor_dp.eta)]
        weights = [
            inf_norm(reactor_gains.controller_gain
                     @ mat_pow(rbar, i)
                     @ reactor_gains.observer_gain)
            for i in range(reactor_dp.eta)
        ]
        power = np.eye(4)
        for ell in range(1, dc.max_power_used + 1):
            power = power @ r
            bound = dc.rho ** ell
            assert inf_norm(power) <= dc.a0 * bound * (1 + 1e-12)
            assert inf_norm(power @ lifted_m) <= dc.a1 * bound * (1 + 1e-12)
            total = sum(inf_norm(power @ col) * w
                        for col, w in zip(cols, weights))
            assert total <= dc.a2 * bound * (1 + 1e-12)

    def test_deadbeat_observer_constants(self, reactor_dp):
        gs = build_gain_set(reactor_dp, observer="deadbeat")
        dc = derive_decay_constants(gs, reactor_dp)
        assert dc.max_power_used == reactor_dp.mu
        assert np.isfinite(dc.a0) and np.isfinite(dc.a2)
        r, _ = closed_matrices(gs, reactor_dp)
        assert inf_norm(mat_pow(r, reactor_dp.mu)) <= 1e-12

    def test_predictor_constants(self, reactor):
        from doslab.discretize import sample_plant_single_rate

        dps = sample_plant_single_rate(reactor, BIG_DELTA)
        m = design_observer_gain(dps.a_d, dps.c)
        gs = make_gain_set(dps, design_stabilizing_gain(dps.a_d, dps.b_d), m)
        l_obs = dps.a_d @ m
        dc = derive_decay_constants(gs, dps, l_obs=l_obs)
        assert dc.h0 is not None and dc.h1 is not None
        pi_l = dps.a_d - l_obs @ dps.c
        power = np.eye(4)
        for ell in range(1, 40):
            power = power @ pi_l
            assert inf_norm(power) <= dc.h0 * dc.rho ** ell * (1 + 1e-12)
            assert inf_norm(power @ l_obs) <= dc.h1 * dc.rho ** ell * (1 + 1e-12)

    @pytest.mark.parametrize("case", ["reference", "deadbeat", "predictor"])
    def test_matches_loop_oracle(self, case, reactor, reactor_dp, reactor_gains):
        from doslab.discretize import sample_plant_single_rate

        dp, gs, l_obs = reactor_dp, reactor_gains, None
        if case == "deadbeat":
            gs = build_gain_set(dp, observer="deadbeat")
        elif case == "predictor":
            dp = sample_plant_single_rate(reactor, BIG_DELTA)
            m = design_observer_gain(dp.a_d, dp.c)
            gs = make_gain_set(dp, design_stabilizing_gain(dp.a_d, dp.b_d), m)
            l_obs = dp.a_d @ m
        dc = derive_decay_constants(gs, dp, l_obs=l_obs)
        lifted_m = dp.a_lift @ gs.observer_gain
        cols = [mat_pow(dp.a_d, dp.eta - i - 1) @ dp.b_d for i in range(dp.eta)]
        (a0, a1, a2), used = scan_constants_loop(
            closed_matrices(gs, dp)[0], dc.rho,
            (inf_norm, lambda p: inf_norm(p @ lifted_m),
             lambda p: sum(inf_norm(p @ col) * w
                           for col, w in zip(cols, dc.input_gains))),
        )
        h0 = h1 = None
        if l_obs is not None:
            (h0, h1), used_l = scan_constants_loop(
                dp.a_lift - l_obs @ dp.c, dc.rho,
                (inf_norm, lambda p: inf_norm(p @ l_obs)),
            )
            used = max(used, used_l)
        assert (dc.a0, dc.a1, dc.a2, dc.h0, dc.h1, dc.max_power_used) \
            == (a0, a1, a2, h0, h1, used)

    def test_observer_certificate_power_exists(self, reactor_dp, reactor_gains):
        r, _ = closed_matrices(reactor_gains, reactor_dp)
        power = np.eye(4)
        found = False
        for _ in range(512):
            power = power @ r
            if inf_norm(power) < 1.0:
                found = True
                break
        assert found


def _outcome(scan, *args):
    try:
        return scan(*args)
    except StabilityCertificationError as exc:
        return str(exc)


class TestScanConstantsOracle:
    # "slow" contracts too slowly to reach the floor within the cap, and a
    # rho below the contraction fails the tail check: both must raise as the
    # loop does.  rho = (bound + 1) / 2 is never below one half.
    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        dim=st.integers(1, 4),
        kind=st.sampled_from(["contractive", "slow", "nilpotent"]),
        contraction=st.floats(0.05, 0.9),
        rho=st.floats(0.5, 0.999),
        width=st.integers(1, 3),
    )
    def test_matches_loop_oracle(self, data, dim, kind, contraction, rho, width):
        def matrix(rows, cols):
            return data.draw(arrays(np.float64, (rows, cols),
                                    elements=st.floats(-2.0, 2.0)))

        r = matrix(dim, dim)
        m = matrix(dim, width)
        cols = [matrix(dim, width) for _ in range(data.draw(st.integers(1, 3)))]
        weights = [data.draw(st.floats(0.0, 10.0)) for _ in cols]
        stacked = (
            stack_norms,
            lambda s: stack_norms(s @ m),
            lambda s: sum(stack_norms(s @ c) * w for c, w in zip(cols, weights)),
        )
        single = (
            inf_norm,
            lambda p: inf_norm(p @ m),
            lambda p: sum(inf_norm(p @ c) * w for c, w in zip(cols, weights)),
        )
        # a nonzero r whose norm is subnormal scales to inf and nan entries;
        # both scans then meet the same non-finite products, and ignore
        # them as power_chunks does
        with np.errstate(over="ignore", invalid="ignore"):
            if kind == "nilpotent":
                r = np.triu(r, 1)
            elif inf_norm(r) > 0.0:
                scale = 0.999 if kind == "slow" else contraction
                r = r * (scale / inf_norm(r))
            assert _outcome(_scan_constants, r, rho, stacked) \
                == _outcome(scan_constants_loop, r, rho, single)
