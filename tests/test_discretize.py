import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doslab import ContinuousPlant, design_deadbeat_gain, inf_norm, sample_plant
from doslab.discretize import (
    controllability_index,
    discretize,
    observability_index,
    sample_plant_single_rate,
)
from doslab.errors import (
    IllConditionedBasisError,
    ScenarioError,
    UncontrollablePairError,
    UnobservablePairError,
)
from doslab.matrixcore import mat_pow

from .conftest import BATCH_A, BATCH_B, BATCH_C, BIG_DELTA, rng
from .oracles import (
    kalman_controllability_index,
    rank_with_tol,
    simpson_input_matrix,
)


class TestDiscretize:
    def test_zero_dynamics(self):
        a_d, b_d = discretize(np.zeros((2, 2)), np.eye(2), 0.3)
        np.testing.assert_allclose(a_d, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(b_d, 0.3 * np.eye(2), atol=1e-15)

    def test_scalar_closed_form(self):
        a_d, b_d = discretize([[1.0]], [[1.0]], np.log(2.0))
        assert a_d[0, 0] == pytest.approx(2.0, rel=1e-13)
        assert b_d[0, 0] == pytest.approx(1.0, rel=1e-13)

    def test_batch_reactor_vs_quadrature(self):
        _, b_d = discretize(BATCH_A, BATCH_B, 0.1)
        want = simpson_input_matrix(np.array(BATCH_A), np.array(BATCH_B), 0.1,
                                    panels=2000)
        assert inf_norm(b_d - want) <= 1e-8

    def test_stable_scalar_lands_inside_unit_interval(self):
        for a in (-0.5, -2.0, -10.0):
            a_d, _ = discretize([[a]], [[1.0]], 0.4)
            assert 0.0 < a_d[0, 0] < 1.0

    def test_step_composition(self):
        # stepping k times over delta equals one step over k*delta with the
        # input held: a_d scales as a power, b_d as the geometric block sum
        g = rng(11)
        for trial in range(5):
            a = g.uniform(-1, 1, size=(3, 3))
            b = g.uniform(-1, 1, size=(3, 2))
            a_1, b_1 = discretize(a, b, 0.07)
            a_3, b_3 = discretize(a, b, 0.21)
            np.testing.assert_allclose(a_3, mat_pow(a_1, 3), atol=1e-12)
            want = b_1 + a_1 @ b_1 + a_1 @ a_1 @ b_1
            np.testing.assert_allclose(b_3, want, atol=1e-12)
            if trial == 0:
                quad = simpson_input_matrix(a, b, 0.21, panels=400)
                assert inf_norm(b_3 - quad) <= 1e-8

    @pytest.mark.parametrize("delta", [0.0, -1.0, np.nan])
    def test_rejects_nonpositive_delta(self, delta):
        with pytest.raises(ValueError, match="delta must be positive"):
            discretize(np.eye(2), np.eye(2), delta)


class TestControllabilityIndex:
    def test_square_invertible_input(self):
        assert controllability_index(np.diag([2.0, 3.0]), np.eye(2)) == 1

    def test_integrator_chain(self):
        # single-input chain of n integrators sampled at 1s
        for n in (2, 3, 4):
            a = np.eye(n, k=1)
            b = np.zeros((n, 1))
            b[-1, 0] = 1.0
            a_d, b_d = discretize(a, b, 1.0)
            assert kalman_controllability_index(a_d, b_d) == n
            assert controllability_index(a_d, b_d) == n

    def test_batch_reactor(self):
        a_d, b_d = discretize(BATCH_A, BATCH_B, 0.1)
        assert controllability_index(a_d, b_d) == 2

    def test_uncontrollable_raises(self):
        with pytest.raises(UncontrollablePairError):
            controllability_index(np.diag([1.0, 2.0]), [[1.0], [0.0]])

    def test_single_input_index_is_full_dimension(self):
        # single-input: each block adds one column, so a controllable pair
        # needs exactly n blocks
        g = rng(12)
        for _ in range(20):
            a = g.uniform(-1, 1, size=(4, 4))
            b = g.uniform(-1, 1, size=(4, 1))
            if kalman_controllability_index(a, b) is None:
                continue
            assert controllability_index(a, b) == 4


class TestObservabilityIndex:
    def test_square_invertible_output(self):
        assert observability_index(np.eye(2), np.diag([2.0, 3.0])) == 1

    def test_batch_reactor_lifted(self):
        a_d, _ = discretize(BATCH_A, BATCH_B, 0.1)
        assert observability_index(BATCH_C, mat_pow(a_d, 2)) == 2

    def test_dual_of_integrator_chain(self):
        for n in (2, 3, 4):
            a = np.eye(n, k=1)
            b = np.zeros((n, 1))
            b[-1, 0] = 1.0
            a_d, _ = discretize(a, b, 1.0)
            # duality: observing the chain through the last state mirrors
            # driving it through the last input
            assert observability_index(b.T, a_d.T) == n

    def test_unobservable_raises(self):
        with pytest.raises(UnobservablePairError):
            observability_index([[1.0, 0.0]], np.diag([1.0, 2.0]))


class TestSamplePlant:
    def test_batch_reactor_protocol(self, reactor):
        dp = sample_plant(reactor, BIG_DELTA)
        assert dp.eta == 2
        assert dp.mu == 2
        assert dp.delta == pytest.approx(BIG_DELTA / 2, abs=0)
        assert dp.big_delta == pytest.approx(dp.eta * dp.delta, abs=1e-12)
        np.testing.assert_allclose(dp.a_lift, mat_pow(dp.a_d, 2), atol=0)

    def test_rank_conditions(self, reactor_dp):
        dp = reactor_dp
        short = dp.b_d
        full = np.hstack([dp.b_d, dp.a_d @ dp.b_d])
        assert rank_with_tol(short) < dp.n_x
        assert rank_with_tol(full) == dp.n_x

    def test_pathological_delta_detected(self):
        # rotation sampled at its own period collapses to the identity
        omega = 2.0 * np.pi
        plant = ContinuousPlant(
            a=[[0.0, omega], [-omega, 0.0]], b=[[0.0], [1.0]], c=[[1.0, 0.0]]
        )
        with pytest.raises(UncontrollablePairError):
            sample_plant(plant, 2.0)  # delta = 1.0 hits the rotation period

    @pytest.mark.parametrize("sampler", [sample_plant,
                                         sample_plant_single_rate])
    @pytest.mark.parametrize("big_delta", [0.0, -1.0, np.nan, np.inf])
    def test_period_rule(self, reactor, sampler, big_delta):
        # one rule and message, as SimConfig's, and no numpy error or warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScenarioError,
                               match="^big_delta must be finite and positive$"):
                sampler(reactor, big_delta)

    def test_single_rate(self, reactor):
        dps = sample_plant_single_rate(reactor, BIG_DELTA)
        assert dps.eta == 1
        assert dps.delta == dps.big_delta
        np.testing.assert_array_equal(dps.a_lift, dps.a_d)


# A 5-state, single-input plant sampled at big_delta 0.1 (delta 0.02).  The
# sampled controllability matrix has sigma_min/sigma_max 8.4e-11: a
# row-echelon Kalman rank calls it full at eta = 5, but the staircase the
# deadbeat gain is built on selects 4 columns, so sampling refuses it.
NEAR_UNCONTROLLABLE = ContinuousPlant(
    a=[[0.556357640614698, -1.3969432279280531, 0.7086761865503917,
        -0.9200091270944255, 1.7911078328078762],
       [1.6818027384879208, 0.23279059164214333, -1.340400988991441,
        -1.0202257731284998, -1.4283288112502044],
       [1.023283451012722, 0.9290383760223664, 1.483650168059515,
        0.31630578971771994, 0.789266394158787],
       [-1.7906025710100666, -0.04477068738086132, -0.9927585866528128,
        -0.334570664127229, -0.8625479698167569],
       [0.726542097780762, -0.6620447962398748, 1.4498750805712408,
        0.6494787128522703, -0.6402286121842948]],
    b=[[-1.5505537519637191], [-1.3012632940896793], [-1.313495393812742],
       [1.7614038470809357], [-0.9517734149655008]],
    c=[[0.6880739908054654, 1.77975307780802, 0.620992008039452,
        -0.46914225585611513, -1.3567370116974988]],
)


def test_a_pair_the_staircase_refuses_is_refused_at_sampling():
    plant = NEAR_UNCONTROLLABLE
    assert controllability_index(plant.a, plant.b) == 5
    a_d, b_d = discretize(plant.a, plant.b, 0.1 / 5)
    assert kalman_controllability_index(a_d, b_d) == 5
    with pytest.raises(UncontrollablePairError,
                       match="controllability matrix never reached 5"):
        sample_plant(plant, 0.1)


def _conditioning(blocks):
    s = np.linalg.svd(np.hstack(blocks), compute_uv=False)
    return s[-1] / s[0]


# Item 1's harness plants (n 2-5, m and p 1-3, entries U(-2, 2), big_delta
# 0.1, 0.2 or 0.5), generic, with a repeated input column, or a diagonal
# that the input and couplings of 10^-U(0, 12) reach only weakly.
@settings(max_examples=300, derandomize=True, deadline=None)
@given(n=st.integers(2, 5), m=st.integers(1, 3), p=st.integers(1, 3),
       kind=st.sampled_from(["generic", "repeated", "weak"]),
       seed=st.integers(0, 2 ** 32 - 1),
       big_delta=st.sampled_from([0.1, 0.2, 0.5]))
def test_sampling_and_synthesis_agree(n, m, p, kind, seed, big_delta):
    g = np.random.default_rng(seed)
    a, b, c = (g.uniform(-2, 2, size=shape) for shape in ((n, n), (n, m),
                                                         (p, n)))
    if kind == "repeated":
        b[:, -1] = b[:, 0]
    elif kind == "weak":
        coupling = 10.0 ** -g.uniform(0, 12)
        a = np.diag(a.diagonal()) + coupling * (a - np.diag(a.diagonal()))
        b[1:] *= coupling
    plant = ContinuousPlant(a=a, b=b, c=c)
    pairs = [(a, b)]
    try:
        dp = sample_plant(plant, big_delta)
    except (UncontrollablePairError, UnobservablePairError):
        pass
    else:
        pairs.append((dp.a_d, dp.b_d))
        # a pair sampling accepts has a full staircase
        try:
            design_deadbeat_gain(dp)
        except IllConditionedBasisError:
            pass
    for pair_a, pair_b in pairs:
        powers = [np.linalg.matrix_power(pair_a, k) for k in range(n)]
        if _conditioning([power @ pair_b for power in powers]) > 1e-8:
            assert controllability_index(pair_a, pair_b) == (
                kalman_controllability_index(pair_a, pair_b))
        if _conditioning([(c @ power).T for power in powers]) > 1e-8:
            assert observability_index(c, pair_a) == (
                kalman_controllability_index(pair_a.T, c.T))
