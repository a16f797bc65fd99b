import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doslab.dos import (
    DoSParams,
    fit_budget,
    generate,
    pattern_from_bools,
    prefix_counts,
    validate,
)
from doslab.errors import ScenarioError

from .oracles import generate_loop, validate_loop

CASE_DUAL = DoSParams(kappa_f=2, nu_f=19, kappa_d=3, nu_d=18)
CASE_SINGLE = DoSParams(kappa_f=1, nu_f=11, kappa_d=1, nu_d=11)


def totals(p):
    """Switches and attacked slots over a whole pattern."""
    switches, attacks = prefix_counts(p.slots)
    return int(switches[-1]), int(attacks[-1])


class TestCounts:
    def test_all_clear(self):
        switches, attacks = prefix_counts([False] * 10)
        assert switches.tolist() == [0] * 10
        assert attacks.tolist() == [0] * 10

    def test_alternating(self):
        switches, attacks = prefix_counts([1, 0, 1, 0, 1, 0])
        assert switches.tolist() == [1, 1, 2, 2, 3, 3]
        assert attacks.tolist() == [1, 1, 2, 2, 3, 3]

    def test_single_block(self):
        switches, attacks = prefix_counts([0, 1, 1, 1, 0, 0, 0])
        assert switches.tolist() == [0, 1, 1, 1, 1, 1, 1]
        assert attacks.tolist() == [0, 1, 2, 3, 3, 3, 3]

    def test_attack_at_slot_zero_counts_as_switch(self):
        switches, attacks = prefix_counts([1, 1, 0])
        assert switches.tolist() == [1, 1, 1]
        assert attacks.tolist() == [1, 2, 2]

    def test_empty_pattern(self):
        switches, attacks = prefix_counts([])
        assert switches.shape == attacks.shape == (0,)

    def test_prefix_monotonicity(self):
        p = generate(CASE_DUAL, 200, seed=5, intensity=0.5)
        for counts in prefix_counts(p.slots):
            assert len(counts) == 200
            assert (np.diff(counts) >= 0).all()


class TestValidate:
    def test_all_clear_always_valid(self):
        assert validate(pattern_from_bools([False] * 50), CASE_DUAL) is None

    def test_all_attacked_fails_immediately(self):
        p = pattern_from_bools([1] * 5)
        result = validate(p, DoSParams(kappa_f=1, nu_f=2, kappa_d=0, nu_d=2))
        assert result is not None
        assert result == 1  # 1 attacked slot > 0 + 1/2

    def test_violation_is_data_not_error(self):
        result = validate(pattern_from_bools([1, 1, 1]), CASE_SINGLE)
        assert isinstance(result, int)

    @settings(max_examples=300, deadline=None)
    @given(
        slots=st.lists(st.booleans(), max_size=300),
        kappa_f=st.floats(0.0, 5.0),
        nu_f=st.floats(2.0, 40.0),
        kappa_d=st.floats(0.0, 5.0),
        nu_d=st.integers(1, 40),
    )
    def test_matches_loop_oracle(self, slots, kappa_f, nu_f, kappa_d, nu_d):
        params = DoSParams(kappa_f=kappa_f, nu_f=nu_f, kappa_d=kappa_d,
                           nu_d=nu_d)
        p = pattern_from_bools(slots)
        assert validate(p, params) == validate_loop(p, params)


class TestFitBudget:
    """A pattern-only run's report budget: unit chatter bounds and the
    smallest divisors its own pattern meets."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(slots=st.lists(st.booleans(), min_size=1, max_size=300))
    def test_a_pattern_meets_its_fitted_budget(self, slots):
        p = pattern_from_bools(slots)
        budget = fit_budget(p.slots)
        assert validate(p, budget) is None
        # and no looser divisor fits, below the unit cap
        if budget.nu_d < len(slots):
            wider = dataclasses.replace(budget, nu_d=budget.nu_d + 1)
            assert validate(p, wider) is not None
        if budget.nu_f < max(2.0, len(slots)):
            wider = dataclasses.replace(budget, nu_f=budget.nu_f * (1 + 1e-9))
            assert validate(p, wider) is not None

    def test_nu_f_is_one_ulp_below_the_least_ratio(self):
        # 8 switches over 29 slots: 1 + 29 / (29 / 7) rounds to
        # 7.999999999999999, so the ratio itself breaks the pattern
        p = pattern_from_bools(([1, 0, 0, 0] * 8)[:29])
        budget = fit_budget(p.slots)
        assert budget == DoSParams(kappa_f=1, nu_f=np.nextafter(29 / 7, 0),
                                   kappa_d=1, nu_d=4)
        assert validate(p, dataclasses.replace(budget, nu_f=29 / 7)) == 29
        assert validate(p, budget) is None

    @pytest.mark.parametrize("slots, unit", [
        ([False], DoSParams(kappa_f=1, nu_f=2.0, kappa_d=1, nu_d=1)),
        ([False] * 30, DoSParams(kappa_f=1, nu_f=30, kappa_d=1, nu_d=30)),
        ([False, True] + [False] * 29,
         DoSParams(kappa_f=1, nu_f=31, kappa_d=1, nu_d=31)),
    ])
    def test_at_most_one_attack_gets_the_unit_budget(self, slots, unit):
        assert fit_budget(slots) == unit


class TestGenerate:
    def test_zero_intensity_is_all_clear(self):
        p = generate(CASE_DUAL, 100, seed=3, intensity=0.0)
        assert not any(p.slots)

    def test_deterministic_in_seed(self):
        a = generate(CASE_DUAL, 300, seed=42, intensity=0.4)
        b = generate(CASE_DUAL, 300, seed=42, intensity=0.4)
        assert a == b
        c = generate(CASE_DUAL, 300, seed=43, intensity=0.4)
        assert a != c

    def test_generator_validator_closure(self):
        # budget-saturating parameters at full intensity still validate
        params = DoSParams(kappa_f=0, nu_f=2, kappa_d=0, nu_d=1)
        p = generate(params, 200, seed=1, intensity=1.0)
        assert validate(p, params) is None
        assert totals(p)[1] > 150  # saturates, not vacuously sparse

    def test_budget_tightness(self):
        params = DoSParams(kappa_f=0, nu_f=2, kappa_d=0, nu_d=2)
        p = generate(params, 100, seed=2, intensity=1.0)
        _, attacks = prefix_counts(p.slots)
        q = np.arange(1, 101)
        assert (attacks == q // params.nu_d).any()

    def test_closure_over_many_seeds(self):
        for seed in range(300):
            for intensity in (0.2, 0.5, 0.9):
                p = generate(CASE_SINGLE, 60, seed, intensity)
                assert validate(p, CASE_SINGLE) is None

    def test_dual_channel_case_study_totals(self):
        # frozen seed reproducing the reported attack counts over 800 slots
        p = generate(CASE_DUAL, 800, seed=0, intensity=0.3)
        assert totals(p) == (44, 47)
        assert validate(p, CASE_DUAL) is None

    def test_output_only_case_study_totals(self):
        p = generate(CASE_SINGLE, 300, seed=131, intensity=0.3)
        assert totals(p) == (25, 27)
        assert validate(p, CASE_SINGLE) is None


class TestGenerateOracle:
    """The array-drawn generator gives the patterns of the one-slot-at-a-time
    loop; a pattern is the prefix of any longer one with its seed."""

    @pytest.mark.parametrize("seed", [0, 2 ** 64 - 1, 2 ** 64 + 5])
    def test_every_horizon_to_1000(self, seed):
        want = generate_loop(CASE_DUAL, 1000, seed, 0.6).slots
        assert any(want) and not all(want)
        for horizon in range(1, 1001):
            assert generate(CASE_DUAL, horizon, seed, 0.6).slots == (
                want[:horizon])

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(params=st.sampled_from([CASE_DUAL, CASE_SINGLE,
                                   DoSParams(0, 2, 0, 1),
                                   DoSParams(5.5, 3.5, 7.25, 2)]),
           horizon=st.integers(1, 1000),
           seed=st.sampled_from([0, 2 ** 64 - 1, 2 ** 64, 2 ** 200 + 3])
           | st.integers(0, 2 ** 70),
           intensity=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    def test_matches_the_loop(self, params, horizon, seed, intensity):
        with warnings.catch_warnings():
            # uint64 wraparound must pass silently
            warnings.simplefilter("error", RuntimeWarning)
            got = generate(params, horizon, seed, intensity)
        assert got == generate_loop(params, horizon, seed, intensity)

    @pytest.mark.parametrize("horizon, intensity, message", [
        (0, 0.5, "horizon must be at least 1, got 0"),
        (10, 1.5, "intensity must lie in [0, 1], got 1.5"),
        (10, -0.1, "intensity must lie in [0, 1], got -0.1"),
        (10, math.nan, "intensity must lie in [0, 1], got nan"),
        (10, "0.5", "intensity must lie in [0, 1], got '0.5'"),
    ])
    def test_direct_calls_refuse_with_scenario_errors(self, horizon,
                                                       intensity, message):
        with pytest.raises(ScenarioError) as info:
            generate(CASE_SINGLE, horizon, 0, intensity)
        assert str(info.value) == message


class TestParams:
    def test_bounds_enforced(self):
        with pytest.raises(ScenarioError):
            DoSParams(kappa_f=0, nu_f=1.5, kappa_d=0, nu_d=1)
        with pytest.raises(ScenarioError):
            DoSParams(kappa_f=0, nu_f=2, kappa_d=0, nu_d=0)
        with pytest.raises(ScenarioError):
            DoSParams(kappa_f=-1, nu_f=2, kappa_d=0, nu_d=1)
        with pytest.raises(ScenarioError):
            DoSParams(kappa_f=0, nu_f=2, kappa_d=0, nu_d=1.5)

    @pytest.mark.parametrize("field", ["kappa_f", "nu_f", "kappa_d", "nu_d"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        fields = dict(kappa_f=1, nu_f=11, kappa_d=1, nu_d=11)
        fields[field] = value
        with pytest.raises(ScenarioError, match="finite"):
            DoSParams(**fields)
