import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from doslab import InvalidMatrixError, gelfand_radius, inf_norm, schur_certified
from doslab.errors import ExpOverflowError, SingularMatrixError
from doslab.matrixcore import (
    as_vector,
    mat_exp,
    mat_pow,
    solve_linear,
)

from .conftest import BATCH_A, rng
from .oracles import (
    gelfand_radius_loop,
    rank_with_tol,
    solve_linear_outer,
    taylor_expm,
)

small_matrices = arrays(
    np.float64, (3, 3),
    elements=st.floats(min_value=-3, max_value=3, allow_nan=False),
)


class TestInfNorm:
    def test_identity(self):
        assert inf_norm(np.eye(3)) == 1.0

    def test_row_sum_example(self):
        assert inf_norm([[1, -2], [3, 4]]) == 7.0

    def test_batch_reactor(self):
        # oracle: hand row-sums of absolute entries, max over rows
        sums = [sum(abs(v) for v in row) for row in BATCH_A]
        assert max(sums) == pytest.approx(17.887, abs=1e-12)
        assert inf_norm(BATCH_A) == pytest.approx(max(sums), abs=0)

    def test_vector(self):
        assert inf_norm([1.0, -5.0, 2.0]) == 5.0

    @settings(max_examples=60)
    @given(a=small_matrices, b=small_matrices)
    def test_submultiplicative(self, a, b):
        assert inf_norm(a @ b) <= inf_norm(a) * inf_norm(b) + 1e-12

    def test_rejects_nan(self):
        with pytest.raises(InvalidMatrixError):
            mat_exp([[np.nan, 0], [0, 1]], 1.0)

    @pytest.mark.parametrize("bad", [[[1.0, 2.0], [1.0]], [["a", 1.0]]])
    def test_ragged_or_non_numeric_rows_are_invalid(self, bad):
        # numpy's own ValueError would escape the library's error hierarchy
        with pytest.raises(InvalidMatrixError, match="2-D matrix"):
            mat_exp(bad, 1.0)


class TestMatExp:
    def test_zero_matrix(self):
        np.testing.assert_array_equal(mat_exp(np.zeros((3, 3)), 2.5), np.eye(3))

    def test_nilpotent(self):
        out = mat_exp([[0, 1], [0, 0]], 1.0)
        np.testing.assert_allclose(out, [[1, 1], [0, 1]], atol=1e-15)

    def test_diagonal(self):
        out = mat_exp(np.diag([1.0, -2.0]), 0.7)
        np.testing.assert_allclose(
            out, np.diag([np.exp(0.7), np.exp(-1.4)]), rtol=1e-14
        )

    def test_batch_reactor_vs_taylor(self):
        got = mat_exp(BATCH_A, 0.1)
        want = taylor_expm(BATCH_A, 0.1)
        assert inf_norm(got - want) <= 1e-10

    def test_taylor_agreement_small_dims(self):
        g = rng(3)
        for dim in range(1, 7):
            m = g.uniform(-1.5, 1.5, size=(dim, dim))
            assert inf_norm(mat_exp(m, 1.0) - taylor_expm(m)) <= 1e-10

    def test_semigroup_property(self):
        g = rng(4)
        for _ in range(20):
            m = g.uniform(-1, 1, size=(4, 4))
            m *= min(1.0, 5.0 / max(inf_norm(m), 1e-9))
            lhs = mat_exp(m, 0.9)
            rhs = mat_exp(m, 0.4) @ mat_exp(m, 0.5)
            assert inf_norm(lhs - rhs) <= 1e-9

    def test_overflow_cap(self):
        with pytest.raises(ExpOverflowError):
            mat_exp(np.eye(2) * 500.0, 1.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            mat_exp(np.eye(2), -1.0)

    def test_zero_time_is_the_identity(self):
        np.testing.assert_array_equal(mat_exp(BATCH_A, 0.0), np.eye(4))

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_non_finite_time_is_past_the_cap(self, t):
        # inf * 0 warns nothing either: the cap check names it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ExpOverflowError, match="exceeds the cap"):
                mat_exp(np.eye(2), t)


class TestMatPow:
    def test_power_zero(self):
        np.testing.assert_array_equal(mat_pow([[2.0, 1.0], [0.0, 3.0]], 0),
                                      np.eye(2))

    def test_nilpotent_square(self):
        np.testing.assert_array_equal(mat_pow([[0, 1], [0, 0]], 2),
                                      np.zeros((2, 2)))

    def test_matches_sequential_products(self):
        m = rng(5).uniform(-1, 1, size=(3, 3))
        want = np.eye(3)
        for _ in range(5):
            want = want @ m
        np.testing.assert_allclose(mat_pow(m, 5), want, rtol=1e-12, atol=1e-14)


class TestGelfandRadius:
    def test_diagonal(self):
        value = gelfand_radius(np.diag([0.5, 0.2]), 32)
        assert 0.5 <= value <= 0.5 + 1e-9
        # at the default cap a rounded root sits one ulp below the radius
        value = gelfand_radius(np.diag([0.5, 0.2]))
        assert math.nextafter(0.5, 0.0) <= value <= 0.5 + 1e-9

    def test_nilpotent_is_zero(self):
        assert gelfand_radius([[0, 1], [0, 0]], 8) == 0.0

    def test_triangular_bound(self):
        value = gelfand_radius([[0.9, 10.0], [0.0, 0.9]], 64)
        assert 0.9 <= value <= 1.0

    def test_monotone_in_max_power(self):
        m = [[0.9, 10.0], [0.0, 0.9]]
        values = [gelfand_radius(m, p) for p in (8, 16, 32, 64, 128)]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_min_power_enforced(self):
        with pytest.raises(ValueError):
            gelfand_radius(np.eye(2), 4)
        with pytest.raises(ValueError):
            schur_certified(np.eye(2), 4)


def _warning_texts(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = fn(*args)
    return value, {f"{w.category.__name__}: {w.message}" for w in caught}


# Matrices reaching each exit of the power scan: the cap (stable or mildly
# unstable), a non-finite norm (overflow), an exact zero power (nilpotent,
# zero) and a norm below 1e-300 (tiny).
def _scan_matrix(kind, base):
    if kind == "stable":
        return base
    if kind == "overflow":
        return base * 1e60
    if kind == "nilpotent":
        return np.triu(base, 1)
    if kind == "zero":
        return np.zeros_like(base)
    return base * 1e-120


# chunk boundaries (8, 16, 32, ...) and one past them
SCAN_CAPS = st.sampled_from([8, 9, 16, 17, 64, 65, 512]) | st.integers(8, 600)


class TestGelfandRadiusOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        dim=st.integers(1, 4),
        kind=st.sampled_from(["stable", "overflow", "nilpotent", "zero", "tiny"]),
        max_power=SCAN_CAPS,
    )
    def test_matches_loop_oracle(self, data, dim, kind, max_power):
        base = data.draw(arrays(np.float64, (dim, dim),
                                elements=st.floats(-1.5, 1.5)))
        m = _scan_matrix(kind, base)
        got, got_warnings = _warning_texts(gelfand_radius, m, max_power)
        want, want_warnings = _warning_texts(gelfand_radius_loop, m, max_power)
        assert got == want
        assert got_warnings <= want_warnings

    @pytest.mark.parametrize("max_power", [8, 9, 64, 512])
    @pytest.mark.parametrize("m", [
        np.diag([0.5, 0.2]),
        [[0.9, 10.0], [0.0, 0.9]],
        np.diag([1e-160, 0.5]),  # second power is subnormal: the 1e-300 exit
        [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]],
        np.zeros((2, 2)),
        BATCH_A,
    ], ids=["diagonal", "triangular", "subnormal", "nilpotent", "zero",
            "unstable"])
    def test_fixed_cases_match_loop_oracle(self, m, max_power):
        got, got_warnings = _warning_texts(gelfand_radius, m, max_power)
        want, want_warnings = _warning_texts(gelfand_radius_loop, m, max_power)
        assert got == want
        assert got_warnings <= want_warnings

    @pytest.mark.parametrize("max_power", [8, 64, 512])
    def test_overflow_warns_no_more_than_the_oracle(self, max_power):
        m = np.array([[1e200, 1e200], [1e200, -1e200]])
        got, got_warnings = _warning_texts(gelfand_radius, m, max_power)
        want, want_warnings = _warning_texts(gelfand_radius_loop, m, max_power)
        assert want_warnings  # the scan does overflow
        assert got == want
        assert got_warnings <= want_warnings


def _rounds_to_one(below):
    """A weighted 3-cycle whose powers ``3 j`` are ``below**j`` times the
    identity and whose other powers have norms of at least one: for
    ``below = 1 - 2**-53`` each norm ``below**j`` is under one, and its
    ``3 j``-th root rounds to 1.0."""
    return np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 1.0],
                     [below / 2.0, 0.0, 0.0]])


def _transient(r, t):
    """A contraction ``r`` on the diagonal whose early powers grow through
    the off-diagonal ``t``."""
    return np.array([[r, t], [0.0, r]])


class TestSchurCertified:
    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        dim=st.integers(1, 4),
        kind=st.sampled_from(["stable", "overflow", "nilpotent", "zero",
                              "tiny", "scaled", "transient",
                              "rounds_to_one"]),
        max_power=SCAN_CAPS,
    )
    def test_is_the_gelfand_bound_below_one(self, data, dim, kind,
                                            max_power):
        if kind == "transient":
            m = _transient(data.draw(st.floats(0.5, 0.999)),
                           data.draw(st.floats(1.0, 1e3)))
        elif kind == "rounds_to_one":
            m = _rounds_to_one(1.0 - data.draw(st.integers(1, 8)) * 2.0 ** -53)
        else:
            base = data.draw(arrays(np.float64, (dim, dim),
                                    elements=st.floats(-1.5, 1.5)))
            if kind == "scaled":  # spectral radii on both sides of one
                m = base * data.draw(st.floats(0.5, 2.0))
            else:
                m = _scan_matrix(kind, base)
        with np.errstate(over="ignore"):
            want = gelfand_radius(m, max_power) < 1.0
        assert schur_certified(m, max_power) is want

    @pytest.mark.parametrize("m, certified", [
        (np.diag([0.5, 0.2]), True),
        (_transient(0.9, 10.0), True),  # the first root below one is k = 63
        (_transient(0.99, 1e3), False),  # not within 512 powers
        (_rounds_to_one(1.0 - 2.0 ** -53), False),
        (np.zeros((2, 2)), True),
        (np.array([[0.0, 1.0], [0.0, 0.0]]), True),
        (np.array(BATCH_A), False),
    ], ids=["diagonal", "transient", "slow-transient", "rounds-to-one",
            "zero", "nilpotent", "unstable"])
    def test_fixed_cases(self, m, certified):
        assert (gelfand_radius(m, 512) < 1.0) is certified
        assert schur_certified(m, 512) is certified


class TestRankWithTol:
    """The Kalman-rank reference the index oracles use."""

    def test_identity(self):
        assert rank_with_tol(np.eye(4)) == 4

    def test_zero(self):
        assert rank_with_tol(np.zeros((3, 3))) == 0

    def test_proportional_rows(self):
        assert rank_with_tol([[1.0, 2.0], [2.0, 4.0]]) == 1

    def test_transpose_invariance(self):
        g = rng(6)
        for _ in range(40):
            m = g.integers(-4, 5, size=(4, 3)).astype(float)
            assert rank_with_tol(m) == rank_with_tol(m.T)

    def test_near_dependent_row_counts_as_zero(self):
        m = [[1.0, 0.0], [1.0, 1e-13]]
        assert rank_with_tol(m) == 1


class TestSolveLinear:
    def test_identity(self):
        b = np.array([[1.0], [2.0], [3.0]])
        np.testing.assert_array_equal(solve_linear(np.eye(3), b), b)

    def test_diagonal(self):
        out = solve_linear(np.diag([2.0, 4.0]), [[2.0], [8.0]])
        np.testing.assert_allclose(out, [[1.0], [2.0]], atol=0)

    def test_residual(self):
        g = rng(7)
        a = g.uniform(-1, 1, size=(4, 4)) + 4.0 * np.eye(4)
        b = g.uniform(-1, 1, size=(4, 2))
        x = solve_linear(a, b)
        assert inf_norm(a @ x - b) <= 1e-9

    def test_vector_rhs(self):
        a = np.diag([2.0, 5.0])
        x = solve_linear(a, [4.0, 10.0])
        np.testing.assert_allclose(x, [2.0, 2.0], atol=0)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            solve_linear([[1.0, 2.0], [2.0, 4.0]], [[1.0], [1.0]])

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 5),
           rhs_cols=st.sampled_from([None, 1, 3]))
    def test_matches_outer_product_oracle(self, data, dim, rhs_cols):
        entries = st.floats(-10.0, 10.0) | st.sampled_from([0.0, 1e-13])
        a = data.draw(arrays(np.float64, (dim, dim), elements=entries))
        shape = (dim,) if rhs_cols is None else (dim, rhs_cols)
        b = data.draw(arrays(np.float64, shape, elements=entries))
        given_a = a.copy()

        def outcome(solve):
            # a subnormal system's solution can overflow to inf, in both
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    return solve(a, b).tobytes()
            except SingularMatrixError:
                return SingularMatrixError

        assert outcome(solve_linear) == outcome(solve_linear_outer)
        assert np.array_equal(a, given_a)  # reduced on a copy


class TestAsVector:
    @pytest.mark.parametrize("v", [[[1.0], [2.0, 3.0]], ["a", 1.0]],
                             ids=["ragged", "non-numeric"])
    def test_malformed_vector_is_invalid(self, v):
        with pytest.raises(InvalidMatrixError, match="expected a vector"):
            as_vector(v)
