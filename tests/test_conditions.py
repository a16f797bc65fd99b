import math

import numpy as np
import pytest

from doslab import cli, compile_plan, conditions, inf_norm
from doslab.conditions import (
    ThetaSet,
    ThetaVariant,
    build_report,
    check_dos,
    check_levels,
    compute_thetas,
    decay_certificate,
    report_rows,
    tradeoff_boundary,
)
from doslab.discretize import DiscretePlant
from doslab.dos import DoSParams
from doslab.errors import CertificateUnavailableError
from doslab.gains import (
    DECAY_SCAN_FLOOR,
    DecayConstants,
    derive_decay_constants,
)

from .oracles import closed_matrices, sharpest_single_level_threshold
from .test_cli import load

CASE_DUAL = DoSParams(kappa_f=2, nu_f=19, kappa_d=3, nu_d=18)


def _toy_constants(rho=0.5, a0=2.0, a1=1.0, a2=0.0, h0=None, h1=None):
    return DecayConstants(rho=rho, a0=a0, a1=a1, a2=a2, h0=h0, h1=h1,
                          max_power_used=10)


def _toy_plant(theta_attack=2.0, norm_c=3.0):
    return DiscretePlant(
        a_d=np.array([[theta_attack]]), b_d=np.array([[1.0]]),
        c=np.array([[norm_c]]), delta=1.0, big_delta=1.0, eta=1, mu=1,
        a_lift=np.array([[theta_attack]]),
    )


class TestComputeThetas:
    def test_dual_arithmetic_example(self):
        dc = _toy_constants(rho=0.5, a0=2.0, a1=1.0, a2=0.0)
        thetas = compute_thetas(ThetaVariant.DUAL, dc, _toy_plant(), (3, 10, 10))
        assert thetas.theta_first == pytest.approx(1.3, abs=1e-15)
        assert thetas.theta_steady == pytest.approx(0.8, abs=1e-15)
        assert thetas.theta_attack == 2.0

    def test_infinite_level_limit(self):
        dc = _toy_constants(rho=0.5, a0=2.0, a1=1.0, a2=1.0)
        big = compute_thetas(ThetaVariant.DUAL, dc, _toy_plant(),
                             (3, 10 ** 9, 10 ** 9))
        assert big.theta_first == pytest.approx(dc.a0 * dc.rho, abs=1e-6)
        assert big.theta_steady == pytest.approx(dc.rho, abs=1e-6)

    @pytest.mark.parametrize("variant, first", [
        (ThetaVariant.DUAL, "a0"),
        (ThetaVariant.ACK, "h0"),
        (ThetaVariant.ACK_FREE, "a0"),
    ])
    def test_limit_drops_the_tail_exactly(self, variant, first):
        dc = _toy_constants(rho=0.3, a0=2.7, a1=1.1, a2=0.9, h0=3.1, h1=1.3)
        thetas = compute_thetas(variant, dc, _toy_plant(), None)
        assert thetas.theta_first == getattr(dc, first) * dc.rho
        assert thetas.theta_steady == dc.rho

    def test_theta_monotone_in_levels(self):
        dc = _toy_constants(rho=0.5, a0=2.0, a1=1.0, a2=1.0)
        coarse = compute_thetas(ThetaVariant.DUAL, dc, _toy_plant(), (3, 10, 10))
        fine = compute_thetas(ThetaVariant.DUAL, dc, _toy_plant(), (3, 20, 20))
        assert fine.theta_first < coarse.theta_first
        assert fine.theta_steady < coarse.theta_steady
        assert fine.theta_attack == coarse.theta_attack

    def test_ack_requires_predictor_constants(self):
        with pytest.raises(ValueError):
            compute_thetas(ThetaVariant.ACK, _toy_constants(), _toy_plant(), 10)

    def test_ack_free_uses_g_constants(self):
        dc = _toy_constants(rho=0.5, a0=2.0, a1=1.0)
        thetas = compute_thetas(ThetaVariant.ACK_FREE, dc, _toy_plant(), 10)
        assert thetas.theta_first == pytest.approx(1.0 + 0.3, abs=1e-15)

    def test_ordered(self):
        thetas = ThetaSet(3.0, 1.2, 0.8, ThetaVariant.DUAL)
        assert thetas.ordered()
        assert not ThetaSet(3.0, 0.8, 1.2, ThetaVariant.DUAL).ordered()


class TestCheckLevels:
    def test_single_channel_threshold(self):
        dc = _toy_constants(rho=0.5, a0=2.0, a1=1.0)
        (check,) = check_levels(ThetaVariant.ACK_FREE, dc, _toy_plant(), 100)
        assert check.threshold == pytest.approx(6.0, abs=1e-12)
        assert check.passes
        (check,) = check_levels(ThetaVariant.ACK_FREE, dc, _toy_plant(), 6)
        assert not check.passes  # strict inequality

    def test_ack_threshold_uses_predictor_gain(self):
        dc = _toy_constants(rho=0.5, a0=2.0, a1=1.0, h0=4.0, h1=2.0)
        (check,) = check_levels(ThetaVariant.ACK, dc, _toy_plant(), 13)
        assert check.threshold == pytest.approx(12.0, abs=1e-12)
        assert check.parity is None and check.passes

    def test_ack_free_parity(self):
        dc = _toy_constants(rho=0.5, a0=2.0, a1=1.0)
        (check,) = check_levels(ThetaVariant.ACK_FREE, dc, _toy_plant(), 101)
        assert check.parity == "even"
        assert not check.passes

    def test_dual_parity_and_thresholds(self):
        dc = _toy_constants(rho=0.5, a0=2.0, a1=1.0, a2=1.0)
        n1, n2, n3 = check_levels(ThetaVariant.DUAL, dc, _toy_plant(),
                                  (4, 100, 100))
        assert not n1.passes  # even n1
        assert n2.threshold == pytest.approx(max(3.0 / 0.5, 1.0), abs=1e-12)
        assert n2.passes and n3.passes

    def test_n3_threshold_approaches_limit(self):
        dc = _toy_constants(rho=0.5, a0=2.0, a1=1.0, a2=1.0)
        _, _, n3 = check_levels(ThetaVariant.DUAL, dc, _toy_plant(),
                                (3, 10 ** 9, 100))
        want = 3.0 * dc.a1 / (1.0 - dc.rho)
        assert n3.threshold == pytest.approx(want, rel=1e-6)

    def test_failed_n2_makes_n3_unbounded(self):
        dc = _toy_constants(rho=0.5, a0=2.0, a1=1.0, a2=1.0)
        _, n2, n3 = check_levels(ThetaVariant.DUAL, dc, _toy_plant(),
                                 (3, 5, 100))
        assert not n2.passes
        assert n3.threshold == math.inf


class TestCheckDoS:
    def test_no_resync_penalty_removes_frequency_dependence(self):
        thetas = ThetaSet(2.0, 0.5, 0.5, ThetaVariant.ACK_FREE)
        rhs_a, _ = check_dos(thetas, DoSParams(0, 2, 0, 1))
        rhs_b, _ = check_dos(thetas, DoSParams(0, 1000, 0, 1))
        assert rhs_a == pytest.approx(rhs_b, abs=1e-15)

    def test_contractive_attack_admits_everything(self):
        thetas = ThetaSet(0.9, 0.8, 0.5, ThetaVariant.ACK_FREE)
        rhs, holds = check_dos(thetas, DoSParams(0, 2, 0, 1))
        assert rhs == math.inf and holds

    def test_first_success_contracting_to_zero_admits_everything(self):
        # theta_first = 0: +inf for 1/nu_f > 0, finite at 1/nu_f = 0
        thetas = ThetaSet(3.0, 0.0, 0.5, ThetaVariant.ACK_FREE)
        rhs, holds = check_dos(thetas, DoSParams(0, 2, 0, 1))
        assert rhs == math.inf and holds
        assert conditions._dos_rhs(thetas, 0.0) == pytest.approx(
            math.log(2.0) / math.log(6.0), rel=1e-15)

    def test_noncontractive_steady_admits_nothing(self):
        thetas = ThetaSet(3.0, 1.5, 1.1, ThetaVariant.ACK_FREE)
        rhs, holds = check_dos(thetas, DoSParams(0, 2, 0, 1000))
        assert rhs == -math.inf and not holds

    def test_batch_reactor_case_study(self, reactor_dp, reactor_gains):
        dc = derive_decay_constants(reactor_gains, reactor_dp)
        thetas = compute_thetas(ThetaVariant.DUAL, dc, reactor_dp,
                                (3, 10_000, 10_000))
        rhs, holds = check_dos(thetas, CASE_DUAL)
        assert holds
        assert rhs > 1.0 / 18.0

    def test_published_line_value(self):
        # the published finite-level admissible line, evaluated at the
        # case-study frequency budget
        rhs = 0.2269 - 2.0380 / 19.0
        assert rhs == pytest.approx(0.119, abs=1e-3)


class TestTradeoffBoundary:
    def test_affine_collinearity(self, reactor_dp, reactor_gains):
        dc = derive_decay_constants(reactor_gains, reactor_dp)
        limit = compute_thetas(ThetaVariant.DUAL, dc, reactor_dp, None)
        pts = tradeoff_boundary(limit, [0.0, 0.25, 0.5])
        (x0, y0), (x1, y1), (x2, y2) = pts
        cross = (y1 - y0) * (x2 - x0) - (y2 - y0) * (x1 - x0)
        assert abs(cross) <= 1e-12

    def test_finite_below_limit_pointwise(self, reactor_dp, reactor_gains):
        dc = derive_decay_constants(reactor_gains, reactor_dp)
        grid = np.linspace(0, 0.5, 11)
        finite = tradeoff_boundary(compute_thetas(
            ThetaVariant.DUAL, dc, reactor_dp, (3, 100, 100)), grid)
        limit = tradeoff_boundary(compute_thetas(
            ThetaVariant.DUAL, dc, reactor_dp, None), grid)
        for (_, yf), (_, yl) in zip(finite, limit):
            assert yf <= yl + 1e-12

    def test_slope_matches_formula(self, reactor_dp, reactor_gains):
        dc = derive_decay_constants(reactor_gains, reactor_dp)
        limit = compute_thetas(ThetaVariant.DUAL, dc, reactor_dp, None)
        pts = tradeoff_boundary(limit, [0.0, 0.5])
        slope = (pts[1][1] - pts[0][1]) / 0.5
        th_a = inf_norm(reactor_dp.a_lift)
        want = -math.log(dc.a0) / math.log(th_a / dc.rho)
        assert slope == pytest.approx(want, rel=1e-12)

    def test_grid_domain_enforced(self, reactor_dp, reactor_gains):
        dc = derive_decay_constants(reactor_gains, reactor_dp)
        with pytest.raises(ValueError):
            tradeoff_boundary(compute_thetas(ThetaVariant.DUAL, dc,
                                             reactor_dp, None), [0.6])


class TestDecayCertificate:
    def test_rare_attack_limit_approaches_steady_factor(self):
        thetas = ThetaSet(3.0, 1.2, 0.8, ThetaVariant.DUAL)
        params = DoSParams(kappa_f=0, nu_f=10 ** 9, kappa_d=0, nu_d=10 ** 9)
        cert = decay_certificate(thetas, params, big_delta=0.2)
        assert cert.gamma == pytest.approx(0.8, abs=1e-6)
        assert cert.omega1 == pytest.approx(max(1.0, 1.2 / 0.8), rel=1e-9)

    def test_exact_boundary_gives_gamma_one(self):
        thetas = ThetaSet(2.0, 0.5, 0.5, ThetaVariant.ACK_FREE)
        rhs, holds = check_dos(thetas, DoSParams(0, 4, 0, 2))
        assert holds and rhs == pytest.approx(0.5, abs=1e-15)
        cert = decay_certificate(thetas, DoSParams(0, 4, 0, 2), big_delta=0.2)
        assert cert.gamma == pytest.approx(1.0, abs=1e-9)

    def test_gamma_below_one_iff_condition_holds(self):
        thetas = ThetaSet(3.0, 1.2, 0.8, ThetaVariant.DUAL)
        for nu_d in range(2, 20):
            params = DoSParams(kappa_f=1, nu_f=10, kappa_d=1, nu_d=nu_d)
            rhs, holds = check_dos(thetas, params)
            if holds:
                assert decay_certificate(thetas, params, 0.2).gamma < 1.0
            else:
                with pytest.raises(CertificateUnavailableError):
                    decay_certificate(thetas, params, 0.2)

    def test_sigma_relation(self):
        thetas = ThetaSet(3.0, 1.2, 0.8, ThetaVariant.DUAL)
        params = DoSParams(kappa_f=1, nu_f=20, kappa_d=1, nu_d=20)
        cert = decay_certificate(thetas, params, big_delta=0.4)
        assert cert.sigma == pytest.approx(math.log(1 / cert.gamma) / 0.4,
                                           rel=1e-12)

    def test_first_success_contracting_to_zero(self):
        # the ACK-free reactor measuring its whole state, with the injected
        # observer gain m = I: the error transition a_lift (I - m c) is
        # exactly zero on every BLAS kernel, so theta_first = 0
        doc = load("batch_reactor_ackfree.json")
        doc["plant"]["c"] = np.eye(4).tolist()
        doc["gains"] = {"m": np.eye(4).tolist()}
        plan = compile_plan(cli._build_config(doc))
        thetas = plan.report.thetas
        assert thetas.theta_first == 0.0 and plan.report.dos_holds
        cert = decay_certificate(thetas, plan.params, plan.dp.big_delta)
        assert cert.gamma == 0.0 and cert.sigma == math.inf
        ratio_attack = max(thetas.theta_attack / thetas.theta_steady, 1.0)
        assert cert.omega1 == max(1.0, ratio_attack ** plan.params.kappa_d)


class TestSharpestThreshold:
    def test_batch_reactor_near_published_value(self, reactor_dp, reactor_gains):
        threshold, rho = sharpest_single_level_threshold(reactor_gains,
                                                         reactor_dp)
        assert 4.5 <= threshold <= 9.0
        assert 0.0 < rho < 1.0

    def test_returned_rho_justifies_the_tail(self, reactor_dp, reactor_gains):
        # the first power below the scan floor must sit under rho^L, or the
        # powers past the scan are not bounded by the constant it found
        _, rho = sharpest_single_level_threshold(reactor_gains, reactor_dp)
        r, _ = closed_matrices(reactor_gains, reactor_dp)
        power, rho_l = r, rho
        while inf_norm(power) >= DECAY_SCAN_FLOOR:
            power, rho_l = power @ r, rho_l * rho
        assert inf_norm(power) <= rho_l


class TestReport:
    def test_build_and_render(self, reactor_dp, reactor_gains):
        dc = derive_decay_constants(reactor_gains, reactor_dp)
        report = build_report(ThetaVariant.DUAL, dc, reactor_dp,
                              (3, 10_000, 10_000), CASE_DUAL)
        assert report.passes
        rows = dict(report_rows(report, CASE_DUAL))
        assert rows["dos_holds"] == "True"
        assert "level_n2_threshold" in rows
