import pytest

from doslab.dos import (
    DoSParams,
    duration_count,
    frequency_count,
    generate,
    no_attack,
    pattern_from_bools,
    validate,
)

CASE_DUAL = DoSParams(kappa_f=2, nu_f=19, kappa_d=3, nu_d=18)
CASE_SINGLE = DoSParams(kappa_f=1, nu_f=11, kappa_d=1, nu_d=11)


class TestCounts:
    def test_all_clear(self):
        p = no_attack(10)
        for q in range(11):
            assert frequency_count(p, q) == 0
            assert duration_count(p, q) == 0

    def test_alternating(self):
        p = pattern_from_bools([1, 0, 1, 0, 1, 0])
        assert frequency_count(p, 6) == 3
        assert duration_count(p, 6) == 3

    def test_single_block(self):
        p = pattern_from_bools([0, 1, 1, 1, 0, 0, 0])
        for q in range(2, 8):
            assert frequency_count(p, q) == 1
        assert duration_count(p, 7) == 3

    def test_attack_at_slot_zero_counts_as_switch(self):
        p = pattern_from_bools([1, 1, 0])
        assert frequency_count(p, 1) == 1

    def test_prefix_monotonicity(self):
        p = generate(CASE_DUAL, 200, seed=5, intensity=0.5)
        freqs = [frequency_count(p, q) for q in range(201)]
        durs = [duration_count(p, q) for q in range(201)]
        assert all(b >= a for a, b in zip(freqs, freqs[1:]))
        assert all(b >= a for a, b in zip(durs, durs[1:]))

    def test_out_of_range_q(self):
        with pytest.raises(ValueError):
            duration_count(no_attack(5), 6)


class TestValidate:
    def test_all_clear_always_valid(self):
        assert validate(no_attack(50), CASE_DUAL).ok

    def test_all_attacked_fails_immediately(self):
        p = pattern_from_bools([1] * 5)
        result = validate(p, DoSParams(kappa_f=1, nu_f=2, kappa_d=0, nu_d=2))
        assert not result.ok
        assert result.first_violation == 1  # 1 attacked slot > 0 + 1/2

    def test_violation_is_data_not_error(self):
        result = validate(pattern_from_bools([1, 1, 1]), CASE_SINGLE)
        assert isinstance(result.ok, bool)


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
        assert validate(p, params).ok
        assert duration_count(p, 200) > 150  # saturates, not vacuously sparse

    def test_budget_tightness(self):
        params = DoSParams(kappa_f=0, nu_f=2, kappa_d=0, nu_d=2)
        p = generate(params, 100, seed=2, intensity=1.0)
        hits = [q for q in range(1, 101)
                if duration_count(p, q) == q // params.nu_d]
        assert hits

    def test_closure_over_many_seeds(self):
        for seed in range(300):
            for intensity in (0.2, 0.5, 0.9):
                p = generate(CASE_SINGLE, 60, seed, intensity)
                assert validate(p, CASE_SINGLE).ok

    def test_dual_channel_case_study_totals(self):
        # frozen seed reproducing the reported attack counts over 800 slots
        p = generate(CASE_DUAL, 800, seed=0, intensity=0.3)
        assert duration_count(p, 800) == 47
        assert frequency_count(p, 800) == 44
        assert validate(p, CASE_DUAL).ok

    def test_output_only_case_study_totals(self):
        p = generate(CASE_SINGLE, 300, seed=131, intensity=0.3)
        assert duration_count(p, 300) == 27
        assert frequency_count(p, 300) == 25
        assert validate(p, CASE_SINGLE).ok


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

