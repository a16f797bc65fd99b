import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doslab.dos import (
    DoSParams,
    generate,
    pattern_from_bools,
    prefix_counts,
    validate,
)

from .oracles import validate_loop

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


class TestParams:
    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            DoSParams(kappa_f=0, nu_f=1.5, kappa_d=0, nu_d=1)
        with pytest.raises(ValueError):
            DoSParams(kappa_f=0, nu_f=2, kappa_d=0, nu_d=0)
        with pytest.raises(ValueError):
            DoSParams(kappa_f=-1, nu_f=2, kappa_d=0, nu_d=1)
        with pytest.raises(ValueError):
            DoSParams(kappa_f=0, nu_f=2, kappa_d=0, nu_d=1.5)

    @pytest.mark.parametrize("field", ["kappa_f", "nu_f", "kappa_d", "nu_d"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        fields = dict(kappa_f=1, nu_f=11, kappa_d=1, nu_d=11)
        fields[field] = value
        with pytest.raises(ValueError, match="finite"):
            DoSParams(**fields)
