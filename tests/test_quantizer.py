import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doslab import (
    InvalidMatrixError,
    SaturationError,
    derive_decay_constants,
    inf_norm,
    mat_pow,
)
from doslab.conditions import ThetaSet, ThetaVariant
from doslab.quantizer import (
    Outcome,
    QuantIndex,
    RangeScheme,
    RangeState,
    UniformCodec,
    classify_outcome,
    decode,
    derive_input_range,
    encode,
    initial_ranges,
    update_range,
)

from .conftest import BATCH_C, rng
from .oracles import encode_loop

THETAS = ThetaSet(theta_attack=3.0, theta_first=1.2, theta_steady=0.8,
                  variant=ThetaVariant.DUAL)


def roundtrip(v, center, rng_val, codec):
    return decode(encode(v, center, rng_val, codec), center, rng_val, codec)


class TestEncodeDecode:
    def test_center_of_odd_grid(self):
        codec = UniformCodec(levels=3, dim=2)
        idx = encode([0.5, 0.5], [0.5, 0.5], 1.0, codec)
        assert idx.cells == (1, 1)
        np.testing.assert_array_equal(decode(idx, [0.5, 0.5], 1.0, codec),
                                      [0.5, 0.5])

    def test_upper_boundary_clamps(self):
        codec = UniformCodec(levels=4, dim=1)
        idx = encode([1.0], [0.0], 1.0, codec)
        assert idx.cells == (3,)

    def test_shared_boundary_goes_to_lower_box(self):
        codec = UniformCodec(levels=2, dim=1)
        # the exact midpoint is on the boundary of both boxes
        assert encode([0.0], [0.0], 1.0, codec).cells == (0,)

    def test_even_grid_decodes_off_zero(self):
        codec = UniformCodec(levels=2, dim=1)
        assert decode(QuantIndex((0,)), [0.0], 1.0, codec)[0] == -0.5
        assert decode(QuantIndex((1,)), [0.0], 1.0, codec)[0] == 0.5

    def test_zero_range_requires_exact_center(self):
        codec = UniformCodec(levels=3, dim=1)
        idx = encode([2.0], [2.0], 0.0, codec)
        assert decode(idx, [2.0], 0.0, codec)[0] == 2.0
        with pytest.raises(SaturationError):
            encode([2.0 + 1e-12], [2.0], 0.0, codec)

    def test_saturation_raises(self):
        codec = UniformCodec(levels=10, dim=2)
        with pytest.raises(SaturationError):
            encode([1.5, 0.0], [0.0, 0.0], 1.0, codec)

    def test_clip_mode_never_raises(self):
        codec = UniformCodec(levels=10, dim=1)
        idx = encode([5.0], [0.0], 1.0, codec, clip=True)
        assert idx.cells == (9,)

    def test_roundtrip_error_bound(self):
        g = rng(3)
        codec = UniformCodec(levels=10, dim=3)
        center = np.array([1.0, -2.0, 0.5])
        for _ in range(200):
            v = center + g.uniform(-1, 1, size=3) * 2.0
            out = roundtrip(v, center, 2.0, codec)
            assert np.max(np.abs(out - v)) <= 2.0 / codec.levels

    @settings(max_examples=80)
    @given(
        v=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2),
        levels=st.sampled_from([2, 3, 10, 100]),
    )
    def test_roundtrip_property(self, v, levels):
        codec = UniformCodec(levels=levels, dim=2)
        out = roundtrip(np.array(v), np.zeros(2), 1.0, codec)
        # exact boundary points attain the bound; the subtraction may round
        # one ulp past it when range/levels is not representable
        assert np.max(np.abs(out - np.array(v))) <= (1.0 / levels) * (1 + 1e-15)

    def test_even_levels_avoid_zero_exactly(self):
        for levels in (2, 4, 10, 100):
            codec = UniformCodec(levels=levels, dim=1)
            for cell in range(levels):
                out = decode(QuantIndex((cell,)), [0.0], 1.0, codec)
                assert abs(out[0]) >= 1.0 / levels

    def test_determinism(self):
        codec = UniformCodec(levels=17, dim=4)
        g = rng(9)
        v = g.uniform(-1, 1, size=4)
        first = encode(v, np.zeros(4), 1.5, codec)
        for _ in range(5):
            assert encode(v, np.zeros(4), 1.5, codec) == first


def oracle_or_saturation(v, center, rng_val, codec, clip):
    """The loop oracle's cells, or ``SaturationError`` if it raises one."""
    try:
        return encode_loop(v, center, rng_val, codec, clip).cells
    except SaturationError:
        return SaturationError


def new_or_saturation(v, center, rng_val, codec, clip):
    try:
        return encode(v, center, rng_val, codec, clip).cells
    except SaturationError:
        return SaturationError


LEVELS = st.sampled_from([1, 2, 3, 4, 10, 99, 100, 10_000])


class TestEncodeMatchesLoopOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        dim=st.integers(1, 4),
        levels=LEVELS,
        rng_val=st.one_of(st.just(0.0), st.floats(1e-300, 1e6)),
        clip=st.booleans(),
    )
    def test_random_inputs(self, data, dim, levels, rng_val, clip):
        center = np.array(data.draw(st.lists(
            st.floats(-1e6, 1e6), min_size=dim, max_size=dim)))
        scale = np.array(data.draw(st.lists(
            st.floats(-1.5, 1.5), min_size=dim, max_size=dim)))
        v = center + scale * rng_val
        codec = UniformCodec(levels=levels, dim=dim)
        assert (new_or_saturation(v, center, rng_val, codec, clip)
                == oracle_or_saturation(v, center, rng_val, codec, clip))

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        levels=LEVELS,
        rng_val=st.sampled_from([0.0, 1.0, 0.1, 3.0, 2.0 ** -20, 1e-300]),
        center=st.sampled_from([0.0, 1.0, -2.5, 1e-3]),
        clip=st.booleans(),
    )
    def test_grid_boundaries(self, data, levels, rng_val, center, clip):
        # boundary j of the grid sits at center + (2 j / N - 1) rng; j = 0
        # and j = N are -rng and +rng, and j outside [0, N] lies beyond
        edges = data.draw(st.lists(st.integers(-1, levels + 1),
                                   min_size=2, max_size=2))
        centers = np.full(2, center)
        v = centers + np.array([2.0 * j / levels - 1.0 for j in edges]) * rng_val
        codec = UniformCodec(levels=levels, dim=2)
        assert (new_or_saturation(v, centers, rng_val, codec, clip)
                == oracle_or_saturation(v, centers, rng_val, codec, clip))

    def test_range_ends_and_zero_range(self):
        codec = UniformCodec(levels=4, dim=2)
        for v in ([-1.0, 1.0], [1.0, -1.0], [0.0, 0.0]):
            assert (encode(v, [0.0, 0.0], 1.0, codec)
                    == encode_loop(v, [0.0, 0.0], 1.0, codec))
        assert encode([-1.0, 1.0], [0.0, 0.0], 1.0, codec).cells == (0, 3)
        assert (encode([5.0, -5.0], [0.0, 0.0], 0.0, codec, clip=True)
                == encode_loop([5.0, -5.0], [0.0, 0.0], 0.0, codec, clip=True))

    def test_cells_are_python_ints(self):
        codec = UniformCodec(levels=10, dim=2)
        cells = encode([0.3, -0.7], [0.0, 0.0], 1.0, codec).cells
        assert all(type(c) is int for c in cells)


class TestCodecInputErrors:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("clip", [False, True])
    def test_nonfinite_value_is_invalid_not_saturated(self, bad, clip):
        codec = UniformCodec(levels=10, dim=2)
        # the other component saturates, so the finiteness check must come
        # first
        with pytest.raises(InvalidMatrixError):
            encode([5.0, bad], [0.0, 0.0], 1.0, codec, clip=clip)
        with pytest.raises(InvalidMatrixError):
            encode([5.0, 0.0], [0.0, bad], 1.0, codec, clip=clip)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_center_rejected_by_decode(self, bad):
        codec = UniformCodec(levels=10, dim=2)
        with pytest.raises(InvalidMatrixError):
            decode(QuantIndex((1, 2)), [0.0, bad], 1.0, codec)

    @pytest.mark.parametrize("v, center", [
        ([0.1, 0.2, 0.3], [0.0, 0.0]),
        ([0.1, 0.2], [0.0, 0.0, 0.0]),
        ([0.1], [0.0]),
        (0.1, [0.0, 0.0]),
        ([[0.1, 0.2]], [0.0, 0.0]),
    ])
    def test_wrong_dimension_rejected_by_encode(self, v, center):
        with pytest.raises(InvalidMatrixError):
            encode(v, center, 1.0, UniformCodec(levels=10, dim=2))

    def test_wrong_dimension_rejected_by_decode(self):
        codec = UniformCodec(levels=10, dim=2)
        with pytest.raises(InvalidMatrixError):
            decode(QuantIndex((1, 2)), [0.0], 1.0, codec)
        with pytest.raises(ValueError, match="dimension"):
            decode(QuantIndex((1, 2, 3)), [0.0, 0.0], 1.0, codec)

    def test_negative_range_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            encode([0.0], [0.0], -1.0, UniformCodec(levels=10, dim=1))

    @pytest.mark.parametrize("cells", [(-1, 0), (0, 10), (10, 10)])
    def test_out_of_range_cells_rejected(self, cells):
        with pytest.raises(ValueError, match="out of range"):
            decode(QuantIndex(cells), [0.0, 0.0], 1.0,
                   UniformCodec(levels=10, dim=2))


class TestClassifyOutcome:
    def test_initial_successful_slot_is_first_success(self):
        assert (classify_outcome(False, False, 0)
                is Outcome.FIRST_SUCCESS_AFTER_ATTACK)

    def test_attacked(self):
        assert classify_outcome(True, False, 5) is Outcome.ATTACKED

    def test_recovery_and_steady(self):
        assert (classify_outcome(False, True, 5)
                is Outcome.FIRST_SUCCESS_AFTER_ATTACK)
        assert (classify_outcome(False, False, 5)
                is Outcome.CONSECUTIVE_SUCCESS)


class TestUpdateRange:
    def test_constant_scheme_never_moves(self):
        rs = RangeState(0.0, RangeScheme.CONSTANT, THETAS)
        for outcome in Outcome:
            rs = update_range(rs, outcome)
            assert rs.value == 0.0

    def test_branch_factors(self):
        rs = RangeState(1.0, RangeScheme.OUTPUT_DUAL, THETAS)
        assert update_range(rs, Outcome.ATTACKED).value == 3.0
        assert update_range(rs, Outcome.FIRST_SUCCESS_AFTER_ATTACK).value == 1.2
        assert update_range(rs, Outcome.CONSECUTIVE_SUCCESS).value == 0.8

    def test_alternating_product(self):
        outcomes = [Outcome.ATTACKED, Outcome.FIRST_SUCCESS_AFTER_ATTACK,
                    Outcome.CONSECUTIVE_SUCCESS, Outcome.ATTACKED,
                    Outcome.ATTACKED, Outcome.FIRST_SUCCESS_AFTER_ATTACK,
                    Outcome.CONSECUTIVE_SUCCESS, Outcome.CONSECUTIVE_SUCCESS,
                    Outcome.ATTACKED, Outcome.FIRST_SUCCESS_AFTER_ATTACK]
        factors = {Outcome.ATTACKED: 3.0,
                   Outcome.FIRST_SUCCESS_AFTER_ATTACK: 1.2,
                   Outcome.CONSECUTIVE_SUCCESS: 0.8}
        rs = RangeState(1.0, RangeScheme.OUTPUT_DUAL, THETAS)
        product = 1.0
        for outcome in outcomes:
            rs = update_range(rs, outcome)
            product *= factors[outcome]
        assert rs.value == pytest.approx(product, rel=1e-12)

    def test_attacked_branch_uses_lifted_norm(self, reactor_dp, reactor_gains):
        from doslab import derive_decay_constants, inf_norm
        from doslab.conditions import compute_thetas

        dc = derive_decay_constants(reactor_gains, reactor_dp)
        thetas = compute_thetas(ThetaVariant.DUAL, dc, reactor_dp,
                                (3, 10_000, 10_000))
        rs = RangeState(1.0, RangeScheme.OUTPUT_DUAL, thetas)
        out = update_range(rs, Outcome.ATTACKED)
        assert out.value == pytest.approx(inf_norm(reactor_dp.a_lift),
                                          rel=1e-15)

    def test_mismatch_encoder_two_branch_law(self):
        rs = RangeState(1.0, RangeScheme.MISMATCH_ENCODER, THETAS)
        rs = update_range(rs, Outcome.ATTACKED)  # blind to the outcome
        assert rs.value == 1.2
        rs = update_range(rs, Outcome.ATTACKED)
        assert rs.value == pytest.approx(1.2 * 0.8, rel=1e-15)

    def test_contraction_when_steady_below_one(self):
        rs = RangeState(1.0, RangeScheme.OUTPUT_ACK, THETAS)
        previous = rs.value
        for _ in range(5):
            rs = update_range(rs, Outcome.CONSECUTIVE_SUCCESS)
            assert rs.value < previous
            previous = rs.value


class TestDeriveInputRange:
    def test_nilpotent_power_gives_zero(self, reactor_dp, reactor_gains):
        gs = reactor_gains
        gain = inf_norm(gs.controller_gain
                        @ mat_pow(gs.closed_loop, reactor_dp.eta)
                        @ gs.observer_gain)
        codec3 = UniformCodec(levels=100, dim=2)
        assert derive_input_range(1.0, gain, codec3) <= 1e-12

    def test_zero_output_range(self, reactor_dp, reactor_gains):
        dc = derive_decay_constants(reactor_gains, reactor_dp)
        codec3 = UniformCodec(levels=100, dim=2)
        assert derive_input_range(0.0, dc.input_gains[0], codec3) == 0.0

    def test_first_substep_matches_product_oracle(self, reactor_dp,
                                                  reactor_gains):
        dc = derive_decay_constants(reactor_gains, reactor_dp)
        codec3 = UniformCodec(levels=100, dim=2)
        got = derive_input_range(1.0, dc.input_gains[0], codec3)
        want = (99 / 100) * inf_norm(
            reactor_gains.controller_gain @ reactor_gains.observer_gain
        )
        assert got == pytest.approx(want, rel=1e-15)


class TestInitialRanges:
    def test_zero_bound(self):
        assert initial_ranges(0.0, BATCH_C) == (0.0, 0.0, 0.0)

    def test_identity_output(self):
        assert initial_ranges(3.0, np.eye(2)) == (0.0, 0.0, 3.0)

    def test_batch_reactor_output_row_sum(self):
        e1, e2, e3 = initial_ranges(1.0, BATCH_C)
        assert (e1, e2) == (0.0, 0.0)
        assert e3 == 3.0  # max |row sum| of the output map
