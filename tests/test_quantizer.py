import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from doslab import (
    InvalidMatrixError,
    SaturationError,
    derive_decay_constants,
    inf_norm,
)
from doslab.conditions import ThetaSet, ThetaVariant
from doslab.matrixcore import mat_pow
from doslab.quantizer import (
    BRANCHES,
    UniformCodec,
    decode,
    derive_input_range,
    encode,
    quantize,
    update_range,
)

from .conftest import rng
from .oracles import (
    decode_array,
    encode_centered,
    encode_loop,
    quantize_centered,
    range_law_loop,
)

THETAS = ThetaSet(theta_attack=3.0, theta_first=1.2, theta_steady=0.8,
                  variant=ThetaVariant.DUAL)


def roundtrip(v, center, rng_val, codec):
    return decode(encode(np.subtract(v, center), rng_val, codec), center,
                  rng_val, codec)


def roundtrip_at_zero(offset, rng_val, codec):
    return decode(encode(offset, rng_val, codec), np.zeros(codec.dim),
                  rng_val, codec)


class TestEncodeDecode:
    def test_center_of_odd_grid(self):
        codec = UniformCodec(levels=3, dim=2)
        cells = encode(np.subtract([0.5, 0.5], [0.5, 0.5]), 1.0, codec)
        assert cells == (1, 1)
        np.testing.assert_array_equal(decode(cells, [0.5, 0.5], 1.0, codec),
                                      [0.5, 0.5])

    def test_upper_boundary_clamps(self):
        codec = UniformCodec(levels=4, dim=1)
        cells = encode([1.0], 1.0, codec)
        assert cells == (3,)

    def test_shared_boundary_goes_to_lower_box(self):
        codec = UniformCodec(levels=2, dim=1)
        # the exact midpoint is on the boundary of both boxes
        assert encode([0.0], 1.0, codec) == (0,)

    def test_even_grid_decodes_off_zero(self):
        codec = UniformCodec(levels=2, dim=1)
        assert decode((0,), [0.0], 1.0, codec)[0] == -0.5
        assert decode((1,), [0.0], 1.0, codec)[0] == 0.5

    def test_zero_range_requires_exact_center(self):
        codec = UniformCodec(levels=3, dim=1)
        cells = encode(np.subtract([2.0], [2.0]), 0.0, codec)
        assert decode(cells, [2.0], 0.0, codec)[0] == 2.0
        with pytest.raises(SaturationError):
            encode(np.subtract([2.0 + 1e-12], [2.0]), 0.0, codec)

    def test_saturation_raises(self):
        codec = UniformCodec(levels=10, dim=2)
        with pytest.raises(SaturationError):
            encode([1.5, 0.0], 1.0, codec)

    def test_clip_mode_never_raises(self):
        codec = UniformCodec(levels=10, dim=1)
        cells = encode([5.0], 1.0, codec, clip=True)
        assert cells == (9,)

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
                out = decode((cell,), [0.0], 1.0, codec)
                assert abs(out[0]) >= 1.0 / levels

    def test_determinism(self):
        codec = UniformCodec(levels=17, dim=4)
        g = rng(9)
        v = g.uniform(-1, 1, size=4)
        first = encode(v, 1.5, codec)
        for _ in range(5):
            assert encode(v, 1.5, codec) == first


def oracle_or_saturation(v, center, rng_val, codec, clip):
    """The loop oracle's cells, or ``SaturationError`` if it raises one."""
    try:
        return encode_loop(v, center, rng_val, codec, clip)
    except SaturationError:
        return SaturationError


def new_or_saturation(v, center, rng_val, codec, clip):
    try:
        return encode(v - center, rng_val, codec, clip)
    except SaturationError:
        return SaturationError


def cells_or_error(fn, *args):
    """The cells ``fn`` returns, or the type of the exception it raises."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


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
            assert (encode(v, 1.0, codec)
                    == encode_loop(v, [0.0, 0.0], 1.0, codec))
        assert encode([-1.0, 1.0], 1.0, codec) == (0, 3)
        assert (encode([5.0, -5.0], 0.0, codec, clip=True)
                == encode_loop([5.0, -5.0], [0.0, 0.0], 0.0, codec, clip=True))

    @settings(max_examples=200, deadline=None)
    @given(
        v=st.lists(st.floats(1e307, 1.7e308) | st.floats(-1.7e308, -1e307),
                   min_size=2, max_size=2),
        levels=LEVELS,
        rng_val=st.floats(1e-300, 1e6) | st.floats(1e306, 1.7e308),
    )
    # an in-range offset beside one whose oracle quotient overflows
    @example(v=[1e307, 1.7e308], levels=4, rng_val=2.2e307)
    def test_clipped_offsets_near_overflow(self, v, levels, rng_val):
        # (offset + rng) * N, or 2 rng, can leave the float range, so the
        # oracle's cell quotient is inf or nan.  encode refuses a range whose
        # 2 rng N overflows and otherwise clamps the offsets to the range
        # first: the cells of the clamped offsets, which are the oracle's
        # wherever the oracle returns cells
        codec = UniformCodec(levels=levels, dim=2)
        with np.errstate(over="ignore", invalid="ignore"):
            want = cells_or_error(encode_loop, v, [0.0, 0.0], rng_val, codec,
                                  True)
        got = cells_or_error(encode, v, rng_val, codec, True)
        if not math.isfinite(2.0 * rng_val * levels):
            assert got is InvalidMatrixError
            return
        clamped = np.clip(v, -rng_val, rng_val)
        assert got == encode_loop(clamped, [0.0, 0.0], rng_val, codec)
        if isinstance(want, tuple):
            assert got == want

    @pytest.mark.parametrize("clip", [False, True])
    def test_overflowing_range_is_invalid(self, clip):
        codec = UniformCodec(levels=10, dim=2)
        with pytest.raises(InvalidMatrixError, match="overflows"):
            encode([0.0, 1e307], 1e308, codec, clip=clip)

    def test_cells_are_python_ints(self):
        codec = UniformCodec(levels=10, dim=2)
        cells = encode([0.3, -0.7], 1.0, codec)
        assert all(type(c) is int for c in cells)


CENTERS = st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300]) \
    | st.floats(-1e300, 1e300)
RANGES = st.sampled_from([0.0, 5e-324, 2.5e-310, 1e300]) | st.floats(0.0, 1e300)


def decode_error(fn, cells, center):
    with pytest.raises(ValueError) as info:
        fn(cells, center, 1.0, UniformCodec(levels=10, dim=2))
    return info.type


class TestDecodeMatchesArrayOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        dim=st.integers(1, 4),
        levels=st.integers(1, 2 ** 53) | st.sampled_from([1, 2, 3, 2 ** 53]),
        rng_val=RANGES,
    )
    def test_same_bytes(self, data, dim, levels, rng_val):
        center = data.draw(st.lists(CENTERS, min_size=dim, max_size=dim))
        cells = data.draw(st.lists(st.integers(0, levels - 1),
                                   min_size=dim, max_size=dim))
        cells, codec = tuple(cells), UniformCodec(levels, dim)
        assert (decode(cells, center, rng_val, codec).tobytes()
                == decode_array(cells, center, rng_val, codec).tobytes())

    @pytest.mark.parametrize("cells, center", [
        ((1, 2), [0.0, np.nan]),
        ((1, 2), [np.inf, 0.0]),
        ((1, 2), [0.0, -np.inf]),
        ((1, 2), [0.0]),
        ((1, 2), [[0.0, 0.0]]),
        ((1, 2, 3), [0.0, 0.0]),
        ((1,), [0.0, 0.0]),
        ((-1, 0), [0.0, 0.0]),
        ((0, 10), [0.0, 0.0]),
    ])
    def test_same_errors(self, cells, center):
        assert (decode_error(decode, cells, center)
                is decode_error(decode_array, cells, center))


class TestCodecInputErrors:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("clip", [False, True])
    def test_nonfinite_value_is_invalid_not_saturated(self, bad, clip):
        codec = UniformCodec(levels=10, dim=2)
        # the other component saturates, so the finiteness check must come
        # first
        with pytest.raises(InvalidMatrixError):
            encode([5.0, bad], 1.0, codec, clip=clip)
        with pytest.raises(InvalidMatrixError):
            encode(np.subtract([5.0, 0.0], [0.0, bad]), 1.0, codec, clip=clip)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_center_rejected_by_decode(self, bad):
        codec = UniformCodec(levels=10, dim=2)
        with pytest.raises(InvalidMatrixError):
            decode((1, 2), [0.0, bad], 1.0, codec)

    @pytest.mark.parametrize("v, center", [
        ([0.1, 0.2, 0.3], [0.0, 0.0]),
        ([0.1, 0.2], [0.0, 0.0, 0.0]),
        ([0.1], [0.0]),
        (0.1, [0.0, 0.0]),
        ([[0.1, 0.2]], [0.0, 0.0]),
    ])
    def test_wrong_dimension_rejected_by_encode(self, v, center):
        # no offset v - center exists: each vector of the wrong shape is
        # refused as an offset
        wrong = [w for w in (v, center) if np.shape(w) != (2,)]
        assert wrong
        for offset in wrong:
            with pytest.raises(InvalidMatrixError):
                encode(offset, 1.0, UniformCodec(levels=10, dim=2))

    def test_wrong_dimension_rejected_by_decode(self):
        codec = UniformCodec(levels=10, dim=2)
        with pytest.raises(InvalidMatrixError):
            decode((1, 2), [0.0], 1.0, codec)
        with pytest.raises(ValueError, match="dimension"):
            decode((1, 2, 3), [0.0, 0.0], 1.0, codec)

    def test_negative_range_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            encode([0.0], -1.0, UniformCodec(levels=10, dim=1))

    @pytest.mark.parametrize("cells", [(-1, 0), (0, 10), (10, 10)])
    def test_out_of_range_cells_rejected(self, cells):
        with pytest.raises(ValueError, match="out of range"):
            decode(cells, [0.0, 0.0], 1.0,
                   UniformCodec(levels=10, dim=2))


def outcome(fn, *args):
    """The bytes ``fn`` returns, or the type and message of its error."""
    try:
        return fn(*args).tobytes()
    except Exception as exc:  # noqa: BLE001 -- any error must match
        return type(exc), str(exc)


EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308,
                               np.inf, -np.inf, np.nan])
ENTRIES = st.floats(-1e6, 1e6) | EDGE_FLOATS | st.floats(allow_nan=True)


class TestQuantizeIsTheRoundTrip:
    @settings(max_examples=400, deadline=None)
    @given(
        data=st.data(),
        dim=st.integers(1, 3),
        levels=LEVELS,
        rng_val=st.one_of(st.floats(0.0, 1e6), EDGE_FLOATS,
                          st.floats(allow_nan=True)),
    )
    def test_bits_or_error(self, data, dim, levels, rng_val):
        codec = UniformCodec(levels=levels, dim=dim)
        # a vector of the wrong length now and then
        sizes = st.sampled_from([dim] * 8 + [dim + 1])
        center = data.draw(st.lists(ENTRIES, min_size=dim, max_size=dim)
                           | st.lists(st.just(0.0), min_size=dim,
                                      max_size=dim))
        scale = data.draw(st.lists(st.floats(-1.5, 1.5), min_size=dim,
                                   max_size=dim))
        v = data.draw(st.just([c + s * rng_val for c, s in zip(center, scale)])
                      | sizes.flatmap(lambda n: st.lists(ENTRIES, min_size=n,
                                                         max_size=n)))
        # the offset from the center, or a vector of the wrong length as is
        offset = [a - b for a, b in zip(v, center)] if len(v) == dim else v
        with np.errstate(all="ignore"):
            want = outcome(roundtrip_at_zero, offset, rng_val, codec)
            got = outcome(quantize, offset, rng_val, codec)
        assert got == want

    @pytest.mark.parametrize("v, center, rng_val, levels", [
        ([-0.0, 0.0], [-0.0, -0.0], 0.0, 3),    # the middle cell at -0.0
        ([-0.1, 0.1], [-0.0, 0.0], 1.0, 1),     # one cell, the center
        ([0.0, 0.0], [0.0, 0.0], 5e-324, 2),
        ([1.0, -1.0], [0.0, 0.0], 1.0, 10_000),
        ([-0.0, 0.0], [0.0, 0.0], 0.0, 2),      # a box at -0.0, a zero center
        ([0.0, -0.0], [0.0, 0.0], 5e-324, 4),   # rng / n underflows to 0.0
    ])
    def test_signed_zeros_and_grid_edges(self, v, center, rng_val, levels):
        codec = UniformCodec(levels=levels, dim=2)
        offset = np.subtract(v, center)
        assert (quantize(offset, rng_val, codec).tobytes()
                == roundtrip_at_zero(offset, rng_val, codec).tobytes())


def codec_outcome(fn, *args):
    """What ``fn`` returns (an array as its bytes), or the type and message
    of the codec error it raises."""
    try:
        out = fn(*args)
    except (ArithmeticError, ValueError, SaturationError) as exc:
        return type(exc), str(exc)
    return out.tobytes() if isinstance(out, np.ndarray) else out


# zero ranges and ranges whose rng / n underflows to 0.0 decode a cell below
# the middle to a -0.0 offset; the rest reach every check of the encoder
ORACLE_RANGES = st.sampled_from([0.0, 5e-324, 1e-323, 2.5e-310, 1.0, 1e300,
                                 1e308, -1.0, np.inf, np.nan]) \
    | st.floats(0.0, 1e6)
ORACLE_CENTERS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, np.inf,
                                  np.nan]) | st.floats(-1e6, 1e6)


class TestOffsetCodecMatchesCenteredOracle:
    """``encode(v - center, ...)`` and ``quantize(v - center, ...)`` against
    the center-based codec they replaced: the same cells, bytes and
    errors."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        data=st.data(),
        dim=st.integers(1, 3),
        levels=LEVELS,
        rng_val=ORACLE_RANGES,
        clip=st.booleans(),
    )
    def test_cells_bytes_and_errors(self, data, dim, levels, rng_val, clip):
        codec = UniformCodec(levels=levels, dim=dim)
        center = data.draw(st.lists(ORACLE_CENTERS, min_size=dim,
                                    max_size=dim))
        scale = data.draw(st.lists(
            st.sampled_from([0.0, -0.0, -1.0, 1.0]) | st.floats(-1.5, 1.5),
            min_size=dim, max_size=dim))
        v = data.draw(st.just([c + s * rng_val for c, s in zip(center, scale)])
                      | st.lists(ENTRIES, min_size=dim, max_size=dim))
        # the offset on Python floats, as the center-based encoder formed it
        offset = [a - b for a, b in zip(v, center)]
        cells = codec_outcome(encode, offset, rng_val, codec, clip)
        assert cells == codec_outcome(encode_centered, v, center, rng_val,
                                      codec, clip)
        zeros = [0.0] * dim
        assert (codec_outcome(quantize, offset, rng_val, codec)
                == codec_outcome(quantize_centered, offset, zeros, rng_val,
                                 codec))
        try:
            want = quantize_centered(v, center, rng_val, codec)
        except (ValueError, SaturationError):
            return
        cells = encode(offset, rng_val, codec)
        assert (decode(cells, center, rng_val, codec).tobytes()
                == want.tobytes())
        # the ACK engine adds the center back to the round trip and reads
        # only the difference from it
        with np.errstate(all="ignore"):
            assert ((quantize(offset, rng_val, codec) + center - center)
                    .tobytes() == (want - center).tobytes())


def branch_names(attacked, thetas=THETAS):
    return [BRANCHES[b] for b in update_range(1.0, thetas, attacked)[0]]


class TestClassifyOutcome:
    def test_initial_successful_slot_is_first_success(self):
        assert branch_names([False])[0] == "first_success"

    def test_attacked(self):
        assert branch_names([False] * 5 + [True])[5] == "attacked"

    def test_recovery_and_steady(self):
        assert branch_names([False] * 4 + [True, False])[5] == "first_success"
        assert branch_names([False] * 6)[5] == "consecutive_success"


class TestUpdateRange:
    def test_constant_scheme_never_moves(self, reactor, reactor_gains):
        # the estimated-output range E1 is the constant zero on every row
        from doslab.controlloop import Scenario, SimConfig, run_scenario
        from doslab.dos import pattern_from_bools

        pattern = pattern_from_bools([True, False, False, True, True, False])
        trace = run_scenario(SimConfig(
            plant=reactor, big_delta=0.2, x0=[1.0, -1.0, 1.0, -1.0],
            x0_bound=1.0, scenario=Scenario.DUAL_CHANNEL, horizon_slots=6,
            levels=(3, 10_000, 10_000), pattern=pattern, gains=reactor_gains,
        ))
        assert set(trace.outcome) == set(BRANCHES)
        assert np.all(trace.ranges["E1"] == 0.0)

    def test_branch_factors(self):
        assert update_range(1.0, THETAS, [True])[1][1] == 3.0
        assert update_range(1.0, THETAS, [False])[1][1] == 1.2
        assert update_range(1.0, THETAS, [False, False])[1][2] == 1.2 * 0.8

    def test_alternating_product(self):
        outcomes = ["attacked", "first_success", "consecutive_success",
                    "attacked", "attacked", "first_success",
                    "consecutive_success", "consecutive_success", "attacked",
                    "first_success"]
        factors = {"attacked": 3.0, "first_success": 1.2,
                   "consecutive_success": 0.8}
        attacked = [name == "attacked" for name in outcomes]
        branch, ranges = update_range(1.0, THETAS, attacked)
        assert [BRANCHES[b] for b in branch] == outcomes
        product = 1.0
        for outcome in outcomes:
            product *= factors[outcome]
        assert ranges[-1] == pytest.approx(product, rel=1e-12)

    def test_attacked_branch_uses_lifted_norm(self, reactor_dp, reactor_gains):
        from doslab import derive_decay_constants, inf_norm
        from doslab.conditions import compute_thetas

        dc = derive_decay_constants(reactor_gains, reactor_dp)
        thetas = compute_thetas(ThetaVariant.DUAL, dc, reactor_dp,
                                (3, 10_000, 10_000))
        _, ranges = update_range(1.0, thetas, [True])
        assert ranges[1] == pytest.approx(inf_norm(reactor_dp.a_lift),
                                          rel=1e-15)

    def test_mismatch_encoder_two_branch_law(self):
        # an encoder blind to attacks runs the law on a never-attacked
        # pattern
        _, ranges = update_range(1.0, THETAS, [False, False])
        assert ranges[1] == 1.2
        assert ranges[2] == pytest.approx(1.2 * 0.8, rel=1e-15)

    def test_contraction_when_steady_below_one(self):
        _, ranges = update_range(1.0, THETAS, [False] * 6)
        assert np.all(np.diff(ranges[1:]) < 0.0)

    def test_negative_initial_range_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            update_range(-1.0, THETAS, [False])

    def test_empty_pattern_keeps_the_initial_range(self):
        branch, ranges = update_range(2.5, THETAS, [])
        assert branch.size == 0
        assert ranges.tolist() == [2.5]


PATTERNS = st.one_of(
    st.lists(st.booleans(), min_size=1, max_size=400),
    st.integers(1, 400).map(lambda n: [True] * n),
    st.integers(1, 400).map(lambda n: [False] * n),
)
FACTORS = st.floats(min_value=1e-3, max_value=1e3)


class TestUpdateRangeMatchesLoopOracle:
    @settings(max_examples=300, deadline=None)
    @given(attacked=PATTERNS,
           e0=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e6)),
           factors=st.tuples(FACTORS, FACTORS, FACTORS))
    def test_matches_per_slot_machine(self, attacked, e0, factors):
        thetas = ThetaSet(*factors, variant=ThetaVariant.DUAL)
        branch, ranges = update_range(e0, thetas, attacked)
        want_branches, want_ranges = range_law_loop(e0, thetas, attacked)
        assert [BRANCHES[b] for b in branch] == want_branches
        assert np.array_equal(ranges, want_ranges)

    @pytest.mark.parametrize("attacked", [[True] * 400, [False] * 400])
    def test_constant_patterns(self, attacked):
        branch, ranges = update_range(0.7, THETAS, attacked)
        want_branches, want_ranges = range_law_loop(0.7, THETAS, attacked)
        assert [BRANCHES[b] for b in branch] == want_branches
        assert np.array_equal(ranges, want_ranges)


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
