import numpy as np
import pytest

from doslab import ContinuousPlant, inf_norm, sample_plant
from doslab.discretize import (
    controllability_index,
    discretize,
    observability_index,
    sample_plant_single_rate,
)
from doslab.errors import UncontrollablePairError, UnobservablePairError
from doslab.matrixcore import mat_pow, rank_with_tol

from .conftest import BATCH_A, BATCH_B, BATCH_C, BIG_DELTA, rng
from .oracles import kalman_controllability_index, simpson_input_matrix


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

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            discretize(np.eye(2), np.eye(2), 0.0)


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

    def test_single_rate(self, reactor):
        dps = sample_plant_single_rate(reactor, BIG_DELTA)
        assert dps.eta == 1
        assert dps.delta == dps.big_delta
        np.testing.assert_array_equal(dps.a_lift, dps.a_d)
