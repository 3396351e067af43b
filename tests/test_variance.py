import math
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from agvm import variance
from agvm.harness import BENCHMARK
from agvm.models import ConfigError, ModelConfig, ModulePartition, \
    SyntheticModel, TwoBlockLinearModel, make_dataset
from agvm.tensor import DOT_BLOCK, ShapeError, blocked_dot, gradients
from agvm.variance import (GroupedGradients, GroupingError,
                           brute_force_variance_oracle, cosine_similarity,
                           full_variance_estimate, per_sample_gradients,
                           phi_estimate, split_groups)
from test_harness import record_in_threads


def one_module_partition(size):
    return ModulePartition(modules=(("all", (0,)), ("rest", (1,))),
                           param_sizes=(size, 0))


def phi_of(est, name):
    """The phi of the module called ``name`` in a PhiEstimate."""
    return float(est.phi[est.names.index(name)])


def direct_phi(per_sample, eta=1.0):
    """Independent re-derivation: explicit odd/even means and cosine."""
    arr = np.asarray(per_sample, dtype=np.float64)
    g1 = arr[0::2].mean(axis=0)
    g2 = arr[1::2].mean(axis=0)
    denom = np.linalg.norm(g1) * np.linalg.norm(g2)
    cos = 0.0 if denom < 1e-24 else float(g1 @ g2 / denom)
    return eta * eta * (1.0 - cos)


class TestSplitGroups:
    def test_four_scalars(self):
        groups = split_groups([[1.0], [3.0], [5.0], [7.0]], one_module_partition(1))
        np.testing.assert_array_equal(groups.g1["all"], [3.0])
        np.testing.assert_array_equal(groups.g2["all"], [5.0])
        np.testing.assert_array_equal(groups.g["all"], [4.0])
        assert groups.b == 4

    def test_two_samples(self):
        groups = split_groups([[1.0, 2.0], [5.0, 6.0]], one_module_partition(2))
        np.testing.assert_array_equal(groups.g1["all"], [1.0, 2.0])
        np.testing.assert_array_equal(groups.g2["all"], [5.0, 6.0])

    def test_odd_batch_rejected(self):
        with pytest.raises(GroupingError, match="even.*drop or pad"):
            split_groups([[1.0], [2.0], [3.0]], one_module_partition(1))

    def test_length_mismatch_rejected(self):
        with pytest.raises(GroupingError, match="partition"):
            split_groups([[1.0, 2.0], [3.0, 4.0]], one_module_partition(3))

    @pytest.mark.parametrize("b,d", [(2, 3), (8, 5), (32, 17)])
    def test_full_mean_equals_half_mean_average(self, b, d):
        rng = np.random.default_rng(b * 100 + d)
        per_sample = rng.normal(0, 1, (b, d))
        part = ModulePartition(modules=(("a", (0,)), ("b", (1,))),
                               param_sizes=(d - 2, 2))
        groups = split_groups(per_sample, part)
        for name in groups.names:
            np.testing.assert_allclose(groups.g[name],
                                       (groups.g1[name] + groups.g2[name]) / 2.0,
                                       rtol=0, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), half=st.integers(1, 64), d=st.integers(1, 40))
    def test_half_means_are_the_strided_means(self, data, half, d):
        b = 2 * half
        arr = data.draw(hnp.arrays(np.float64, (b, d), elements=st.floats(
            -1e6, 1e6, allow_nan=False, allow_infinity=False)))
        groups = split_groups(arr, one_module_partition(d))
        g1, g2, g = groups.g1["all"], groups.g2["all"], groups.g["all"]
        ref = arr.mean(axis=0)
        # numpy sums one strided column pairwise but several columns row by
        # row; split_groups sums row by row, so d == 1 agrees only in value
        if d > 1:
            assert np.array_equal(g1.view(np.int64), arr[0::2].mean(axis=0).view(np.int64))
            assert np.array_equal(g2.view(np.int64), arr[1::2].mean(axis=0).view(np.int64))
        # g adds the two half sums: the same b terms as arr.mean in another
        # order, so both lie within (b - 1) * 2**-53 * sum|x| of the exact sum
        eps = np.finfo(np.float64).eps
        tiny = np.finfo(np.float64).smallest_subnormal
        bound = (b + 1) * eps * np.abs(arr).mean(axis=0) + 2 * tiny
        for got, want in ((g, ref), (g1, arr[0::2].mean(axis=0)), (g2, arr[1::2].mean(axis=0))):
            assert np.all(np.abs(got - want) <= bound)

    # rows: the batch's row indices into an [m, d] matrix, in batch order
    MATRIX = np.arange(12.0).reshape(4, 3)

    def test_rows_pick_the_batch(self):
        groups = split_groups(self.MATRIX, one_module_partition(3), rows=[3, 0, 3, 1])
        np.testing.assert_array_equal(groups.g1["all"], [9.0, 10.0, 11.0])
        np.testing.assert_array_equal(groups.g2["all"], [1.5, 2.5, 3.5])
        assert groups.b == 4

    @pytest.mark.parametrize("rows", [None, [1, 0, 1, 1]])
    def test_negative_zero_rows_sum_to_positive_zero(self, rows):
        # the accumulators start at +0.0, as numpy's sum does: -0.0 + +0.0 = +0.0
        arr = np.full((4, 3), -0.0)
        groups = split_groups(arr, one_module_partition(3), rows=rows)
        for half in (groups.g1["all"], groups.g2["all"], groups.g["all"]):
            assert not np.signbit(half).any()
        assert not np.signbit(arr[0::2].mean(axis=0)).any()

    def test_rows_of_two_dimensions_rejected(self):
        with pytest.raises(GroupingError, match=r"1-D, got shape \(2, 2\)"):
            split_groups(self.MATRIX, one_module_partition(3), rows=[[0, 1], [2, 3]])

    def test_ragged_rows_rejected(self):
        with pytest.raises(GroupingError, match="1-D sequence"):
            split_groups(self.MATRIX, one_module_partition(3), rows=[[0], [1, 2]])

    @pytest.mark.parametrize("rows,dtype", [([0.0, 1.0], "float64"), ([True, False], "bool"),
                                            (["0", "1"], "<U1")])
    def test_rows_of_non_integer_dtype_rejected(self, rows, dtype):
        with pytest.raises(GroupingError, match=f"integer row indices, got dtype {dtype}"):
            split_groups(self.MATRIX, one_module_partition(3), rows=np.array(rows))

    def test_odd_number_of_rows_rejected(self):
        with pytest.raises(GroupingError, match="even and >= 2.*got 3"):
            split_groups(self.MATRIX, one_module_partition(3), rows=[0, 1, 2])

    @pytest.mark.parametrize("rows", [[], np.array([], dtype=np.int64)])
    def test_empty_rows_rejected(self, rows):
        with pytest.raises(GroupingError, match="even and >= 2.*got 0"):
            split_groups(self.MATRIX, one_module_partition(3), rows=rows)

    def test_negative_row_rejected_not_wrapped(self):
        # -1 would index the last row; it is an error instead
        with pytest.raises(GroupingError, match=r"row index -1 is outside \[0, 4\)"):
            split_groups(self.MATRIX, one_module_partition(3), rows=np.array([0, -1]))

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8])
    def test_row_past_the_end_rejected(self, dtype):
        with pytest.raises(GroupingError, match=r"row index 4 is outside \[0, 4\)"):
            split_groups(self.MATRIX, one_module_partition(3), rows=np.array([0, 4], dtype=dtype))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), m=st.integers(1, 12), half=st.integers(1, 24), d=st.integers(1, 12),
           dtype=st.sampled_from([np.int64, np.int32, np.uint16]))
    def test_rows_sum_like_the_gathered_batch(self, data, m, half, d, dtype):
        # signed zeros, subnormals and repeated rows (b > m repeats for sure)
        elements = st.one_of(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            st.floats(-1e-306, 1e-306),
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324]))
        arr = data.draw(hnp.arrays(np.float64, (m, d), elements=elements))
        idx = data.draw(hnp.arrays(dtype, 2 * half, elements=st.integers(0, m - 1)))
        part = one_module_partition(d)
        got, want = split_groups(arr, part, rows=idx), split_groups(arr[idx], part)
        assert got.b == want.b == 2 * half
        for name in part.names:
            for attr in ("g1", "g2", "g"):
                x, y = getattr(got, attr)[name], getattr(want, attr)[name]
                assert np.array_equal(x.view(np.int64), y.view(np.int64)), (attr, name)

    def test_from_half_means(self):
        part = ModulePartition(modules=(("trunk", (0,)), ("head", (1,))), param_sizes=(2, 1))
        g1 = np.array([1.0, 2.0, 3.0])
        g2 = np.array([3.0, 2.0, 1.0])
        g = np.array([2.0, 2.0, 2.0])
        groups = GroupedGradients.from_half_means(g1, g2, g, part, b=6)
        assert groups.names == ("trunk", "head") and groups.b == 6
        np.testing.assert_array_equal(groups.g1["trunk"], [1.0, 2.0])
        np.testing.assert_array_equal(groups.g2["head"], [1.0])
        np.testing.assert_array_equal(groups.g["trunk"], [2.0, 2.0])
        np.testing.assert_array_equal(groups.g["head"], [2.0])


def cosine_reference(a, b, eps_norm=1e-12):
    """cosine_similarity as it was before the common case skipped the
    max-abs passes: every call rescales vectors with an entry above 1e150."""
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    ma = float(np.max(np.abs(a), initial=0.0))
    mb = float(np.max(np.abs(b), initial=0.0))
    if ma > 1e150:
        a = a / ma
    if mb > 1e150:
        b = b / mb
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na < eps_norm or nb < eps_norm or not (np.isfinite(na) and np.isfinite(nb)):
        return 0.0
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


def cosine_numpy_tail(a, b, eps_norm=1e-12):
    """cosine_similarity with its former numpy scalar tail: np.sqrt,
    np.isfinite and np.clip on numpy scalars."""
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    with np.errstate(over="ignore"):
        aa, bb = variance._squared_norm(a), variance._squared_norm(b)
    if not (aa < 1e300 and bb < 1e300):
        ma = float(np.max(np.abs(a), initial=0.0))
        mb = float(np.max(np.abs(b), initial=0.0))
        if ma > 1e150:
            a = a / ma
        if mb > 1e150:
            b = b / mb
        aa, bb = variance._squared_norm(a), variance._squared_norm(b)
    na = np.sqrt(aa)
    nb = np.sqrt(bb)
    if na < eps_norm or nb < eps_norm or not (np.isfinite(na) and np.isfinite(nb)):
        return 0.0
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


class TestCosine:
    def test_a_long_vector_takes_the_blocked_dot(self):
        a, b = np.random.default_rng(0).normal(0, 1, (2, 3 * DOT_BLOCK + 5))
        aa, bb = blocked_dot(a, a), blocked_dot(b, b)
        assert variance._squared_norm(a) == aa
        assert cosine_similarity(a, b) == float(blocked_dot(a, b)) / (math.sqrt(aa) * math.sqrt(bb))

    def test_parallel(self):
        assert cosine_similarity([1.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_hand_value(self):
        # dot = 8, both norms = 3
        assert cosine_similarity([1.0, 2.0, 2.0], [2.0, 1.0, 2.0]) == pytest.approx(8.0 / 9.0, abs=1e-15)

    def test_zero_vector_reads_as_zero(self):
        assert cosine_similarity([0.0, 0.0], [1.0, 1.0]) == 0.0
        assert cosine_similarity([1e-13, 0.0], [1.0, 1.0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            cosine_similarity([1.0], [1.0, 2.0])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), size=st.integers(0, 40), stride=st.sampled_from([1, 2, -1]))
    def test_bits_match_the_always_rescaling_reference(self, data, size, stride):
        values = st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.floats(-1e3, 1e3),
            st.sampled_from([0.0, -0.0, 1e-300, 5e-324, 1e-13, 1e150, -1e150,
                             float(np.nextafter(1e150, np.inf)), 1e200, -1e200, 1e308,
                             np.nan, np.inf]))
        scale = data.draw(st.sampled_from([1.0, 1e-200, 1e140, 1e200]))
        a, b = (data.draw(hnp.arrays(np.float64, size * abs(stride), elements=values))
                for _ in range(2))
        a, b = (scale * a)[::stride], b[::stride]
        for x, y in ((a, b), (b, a), (a, a)):
            got, want = cosine_similarity(x, y), cosine_reference(x, y)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (x, y, got, want)

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), size=st.integers(1, 24),
           kind=st.sampled_from(["scaled", "zero", "below_eps", "nonfinite"]))
    def test_bits_match_the_numpy_scalar_tail(self, data, size, kind):
        def vector():
            # entries of magnitude 1e-200 .. 1e300: huge ones take the rescale path
            unit = data.draw(hnp.arrays(np.float64, size, elements=st.floats(-1.0, 1.0)))
            return 10.0 ** data.draw(st.integers(-200, 300)) * unit

        a, b = vector(), vector()
        if kind == "zero":
            a = np.zeros(size)
        elif kind == "below_eps":
            a = data.draw(hnp.arrays(np.float64, size, elements=st.floats(-1e-13, 1e-13)))
        elif kind == "nonfinite":
            a[data.draw(st.integers(0, size - 1))] = data.draw(
                st.sampled_from([np.inf, -np.inf, np.nan]))
        for x, y in ((a, b), (b, a), (a, a)):
            got = cosine_similarity(x, y)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(cosine_numpy_tail(x, y)).tobytes()
        if kind != "scaled":
            assert cosine_similarity(a, b) == 0.0 and cosine_similarity(b, a) == 0.0

    @pytest.mark.parametrize("other", [1.0, 1e200], ids=["other_plain", "other_rescaled"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_entries_read_as_zero_without_a_warning(self, bad, other):
        a, b = np.array([bad, 1.0]), np.array([other, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x, y in ((a, b), (b, a), (a, a)):
                assert cosine_similarity(x, y) == 0.0

    @pytest.mark.parametrize("big", [1e150, float(np.nextafter(1e150, np.inf)), 1.004e150,
                                     1e200])
    def test_rescaling_threshold(self, big):
        # squared norms just above 1e300 from one entry just above 1e150
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.normal(0.0, 1e148, 6)
            a[rng.integers(6)] = big
            b = rng.normal(0.0, 1.0, 6)
            for x, y in ((a, b), (b, a)):
                assert cosine_similarity(x, y) == cosine_reference(x, y)


class TestPhi:
    def build(self, g1, g2, eta):
        part = one_module_partition(len(g1))
        g1, g2 = np.asarray(g1, dtype=float), np.asarray(g2, dtype=float)
        groups = GroupedGradients.from_half_means(g1, g2, (g1 + g2) / 2.0, part, b=2)
        return phi_estimate(groups, eta=eta)

    def test_identical_halves_zero(self):
        est = self.build([0.3, 0.4], [0.3, 0.4], eta=0.1)
        assert abs(phi_of(est, "all")) < 1e-12

    def test_orthogonal_halves(self):
        est = self.build([1.0, 0.0], [0.0, 1.0], eta=0.1)
        assert phi_of(est, "all") == pytest.approx(0.01, abs=1e-15)

    def test_half_cosine(self):
        # cos = 0.5 via [1,0] and [1, sqrt(3)] normalized
        est = self.build([2.0, 0.0], [1.0, np.sqrt(3.0)], eta=1.0)
        assert phi_of(est, "all") == pytest.approx(0.5, abs=1e-12)

    def test_negative_eta_rejected(self):
        with pytest.raises(ValueError):
            self.build([1.0], [1.0], eta=-0.5)

    def test_phi_equals_eta_sq_times_one_minus_cos(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g1, g2 = rng.normal(0, 1, (2, 9))
            est = self.build(g1, g2, eta=0.37)
            expect = 0.37 ** 2 * (1 - cosine_similarity(g1, g2))
            assert phi_of(est, "all") == pytest.approx(expect, abs=1e-12)
            assert phi_of(est, "all") >= 0.0

    @pytest.mark.parametrize("scale", [1e-6, 0.5, 3.0, 1e6])
    def test_scale_invariance(self, scale):
        rng = np.random.default_rng(int(scale * 7) + 3)
        g1, g2 = rng.normal(0, 1, (2, 12))
        base = phi_of(self.build(g1, g2, eta=1.0), "all")
        scaled = phi_of(self.build(g1 * scale, g2 * scale, eta=1.0), "all")
        assert scaled == pytest.approx(base, abs=1e-12)

    def test_permutation_invariance(self):
        # integer-valued gradients make the sums exact
        rng = np.random.default_rng(8)
        g1 = rng.integers(-5, 6, 16).astype(float)
        g2 = rng.integers(-5, 6, 16).astype(float)
        perm = rng.permutation(16)
        assert (phi_of(self.build(g1, g2, 1.0), "all")
                == phi_of(self.build(g1[perm], g2[perm], 1.0), "all"))

    def test_matches_direct_reimplementation(self):
        rng = np.random.default_rng(3)
        for b in (2, 4, 8):
            for _ in range(25):
                d = int(rng.integers(1, 17))
                per_sample = rng.normal(0, 1, (b, d))
                part = one_module_partition(d)
                est = phi_estimate(split_groups(per_sample, part), eta=1.0)
                assert phi_of(est, "all") == pytest.approx(direct_phi(per_sample), abs=1e-10)


class TestFullVarianceEstimate:
    def test_full_batch_is_zero(self):
        rng = np.random.default_rng(0)
        groups = split_groups(rng.normal(0, 1, (8, 5)), one_module_partition(5))
        est = full_variance_estimate(groups, n=8, eta=0.1)
        np.testing.assert_array_equal(est, [0.0, 0.0])

    def test_large_n_limit_is_half(self):
        rng = np.random.default_rng(1)
        per_sample = rng.normal(0, 1, (4, 6))
        part = one_module_partition(6)
        groups = split_groups(per_sample, part)
        phi = phi_estimate(groups, eta=1.0).phi[0]
        norm_sq = float(groups.g["all"] @ groups.g["all"])
        est = full_variance_estimate(groups, n=10 ** 9, eta=1.0)
        assert est[0] == pytest.approx(0.5 * phi * norm_sq / 6.0, rel=1e-6)

    def test_n_smaller_than_b_rejected(self):
        rng = np.random.default_rng(2)
        groups = split_groups(rng.normal(0, 1, (8, 3)), one_module_partition(3))
        with pytest.raises(ValueError, match="n=4"):
            full_variance_estimate(groups, n=4, eta=1.0)


def oracle_reference(per_sample, partition, b, resamples, seed):
    """The per-resample loop: gather each resample's rows, take their mean,
    and add each module's squared deviation per parameter."""
    n = per_sample.shape[0]
    grad_full = per_sample.mean(axis=0)
    rng = np.random.default_rng(seed)
    acc = np.zeros(partition.h)
    for _ in range(resamples):
        pick = rng.integers(0, n, size=b)
        diff = per_sample[pick].mean(axis=0) - grad_full
        acc += np.array([np.dot(diff[sl], diff[sl]) / max(1, sl.stop - sl.start)
                         for sl in partition.slices.values()])
    return acc / resamples


def oracle_of(model, data, **kwargs):
    """The oracle over the per-sample gradients of ``data`` at the model's
    parameters."""
    per_sample = per_sample_gradients(model, data[0], data[1], mask_seed=0)
    return brute_force_variance_oracle(per_sample, model.partition, **kwargs)


class TestBruteForceOracle:
    def test_zero_at_noiseless_optimum(self):
        # targets exactly produced by the model: every per-sample gradient is 0
        model = TwoBlockLinearModel(4, 3, 2, seed=3)
        rng = np.random.default_rng(4)
        x = rng.normal(0, 1, (12, 4))
        # build targets through the same kernels as the batched forward that
        # yields every per-sample gradient, so the residual is bitwise zero
        y = (x @ model.params[0].data) @ model.params[1].data
        var = oracle_of(model, (x, y), b=4, resamples=100, seed=1)
        np.testing.assert_array_equal(var, [0.0, 0.0])

    def test_resamples_validated(self):
        model = TwoBlockLinearModel(4, 3, 2, seed=1)
        data = make_dataset(16, 4, 2, 0.2, seed=2)
        with pytest.raises(ValueError, match="resamples"):
            oracle_of(model, data, b=4, resamples=10, seed=0)

    def test_batch_larger_than_dataset_rejected(self):
        model = TwoBlockLinearModel(4, 3, 2, seed=1)
        data = make_dataset(8, 4, 2, 0.2, seed=2)
        with pytest.raises(ValueError, match="exceeds"):
            oracle_of(model, data, b=16, resamples=100, seed=0)

    @pytest.mark.parametrize("b", [0, -3])
    def test_empty_batch_rejected(self, b):
        model = TwoBlockLinearModel(4, 3, 2, seed=1)
        data = make_dataset(8, 4, 2, 0.2, seed=2)
        with pytest.raises(ValueError, match=">= 1"):
            oracle_of(model, data, b=b, resamples=100, seed=0)

    def test_per_sample_of_wrong_shape_rejected(self):
        model = TwoBlockLinearModel(4, 3, 2, seed=1)
        data = make_dataset(16, 4, 2, 0.2, seed=2)
        per_sample = per_sample_gradients(model, data[0], data[1], mask_seed=0)
        for bad in (per_sample[:, :-1], per_sample[0], per_sample[None]):
            with pytest.raises(ValueError, match="shape"):
                brute_force_variance_oracle(bad, model.partition, b=4, resamples=100, seed=0)

    def test_matches_closed_form_population_variance(self):
        # mini-batches of 2 i.i.d. draws: Var(mean) = tr(population cov) / (2 d)
        n, b, resamples = 8, 2, 20000
        model = TwoBlockLinearModel(2, 2, 1, seed=5)
        data = make_dataset(n, 2, 1, 0.3, seed=6)
        per_sample = per_sample_gradients(model, data[0], data[1], mask_seed=0)
        grad_full = per_sample.mean(axis=0)

        oracle = brute_force_variance_oracle(per_sample, model.partition, b=b,
                                             resamples=resamples, seed=7)
        for i, (name, sl) in enumerate(model.partition.slices.items()):
            block = per_sample[:, sl]
            size = sl.stop - sl.start
            pop_cov_trace = ((block - grad_full[sl]) ** 2).sum(axis=1).mean()
            closed = pop_cov_trace / b / size
            # Monte-Carlo standard error of the oracle mean, from the draw distribution
            draws = []
            rng = np.random.default_rng(99)
            for _ in range(4000):
                pick = rng.integers(0, n, size=b)
                diff = block[pick].mean(axis=0) - grad_full[sl]
                draws.append((diff @ diff) / size)
            se = np.std(draws) / np.sqrt(resamples)
            assert abs(oracle[i] - closed) < 3 * se, name

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(2, 64), resamples=st.integers(100, 300),
           seed=st.integers(0, 2 ** 32 - 1),
           sizes=st.lists(st.integers(0, 9), min_size=2, max_size=6),
           chunk_bytes=st.sampled_from([8, 200, 4096, 1 << 19]))
    def test_matches_the_per_resample_loop(self, data, n, resamples, seed, sizes,
                                           chunk_bytes):
        b = 2 * data.draw(st.integers(1, n // 2))
        # 2 or more modules, each a run of consecutive parameters, some of size 0
        cuts = sorted(data.draw(st.sets(st.integers(1, len(sizes) - 1), min_size=1)))
        bounds = [0] + cuts + [len(sizes)]
        part = ModulePartition(
            modules=tuple((f"m{k}", tuple(range(lo, hi)))
                          for k, (lo, hi) in enumerate(zip(bounds, bounds[1:]))),
            param_sizes=tuple(sizes))
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.integers(-3, 4)
        per_sample = scale * rng.normal(rng.normal(), 1.0, (n, part.total_size))
        with pytest.MonkeyPatch.context() as mp:
            # small budgets split both the resamples and the columns into chunks
            mp.setattr(variance, "_ORACLE_CHUNK_BYTES", chunk_bytes)
            got = brute_force_variance_oracle(per_sample, part, b=b, resamples=resamples,
                                              seed=seed)
        want = oracle_reference(per_sample, part, b, resamples, seed)
        # a resample that picks every row once deviates by rounding alone
        noise = (4 * n * np.finfo(np.float64).eps * np.abs(per_sample).max(initial=0.0)) ** 2
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=noise)

    def test_scratch_memory_is_two_chunks(self):
        # the oracle check's size: the [n, d] gradients are passed in
        p = BENCHMARK
        model = TwoBlockLinearModel(p["input_dim"], p["hidden_dim"], p["output_dim"], seed=1)
        per_sample = np.random.default_rng(3).normal(0, 1, (p["n"], model.partition.total_size))
        tracemalloc.start()
        try:
            brute_force_variance_oracle(per_sample, model.partition, b=p["b"],
                                        resamples=p["resamples"], seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * variance._ORACLE_CHUNK_BYTES + (256 << 10), peak


def checked_with_per_sample(monkeypatch, seed, n, b, resamples):
    """``oracle_check``'s report and the per-sample matrix it computed."""
    from agvm import harness
    seen = []

    def kept(*args, **kwargs):
        seen.append(per_sample_gradients(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(harness, "per_sample_gradients", kept)
    report = harness.oracle_check(seed=seed, n=n, b=b, resamples=resamples)
    per_sample, = seen
    return report, per_sample


def benchmark_partition(seed):
    p = BENCHMARK
    return TwoBlockLinearModel(p["input_dim"], p["hidden_dim"], p["output_dim"],
                               seed=seed + 1).partition


def gathered_estimates(per_sample, part, seed, n, b, resamples):
    """The check's estimates with each resample's rows gathered and its
    halves summed by numpy, by the same generator calls (``seed + 3``)."""
    rng = np.random.default_rng(seed + 3)
    want = np.zeros(part.h)
    for _ in range(resamples):
        batch = per_sample[rng.integers(0, n, size=b)]
        s1, s2 = batch[0::2].sum(axis=0), batch[1::2].sum(axis=0)
        groups = GroupedGradients.from_half_means(s1 / (b // 2), s2 / (b // 2),
                                                  (s1 + s2) / b, part, b)
        want += full_variance_estimate(groups, n=n, eta=1.0)
    return want / resamples


class TestEstimateAgainstOracle:
    def test_linear_regression_benchmark_within_15_percent(self):
        from agvm.harness import oracle_check
        report = oracle_check(seed=0)
        assert report["max_rel_err"] < 0.15, report

    def test_per_sample_gradients_computed_once_per_check(self, monkeypatch):
        from agvm import harness, variance
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return per_sample_gradients(*args, **kwargs)

        monkeypatch.setattr(harness, "per_sample_gradients", counted)
        monkeypatch.setattr(variance, "per_sample_gradients", counted)
        harness.oracle_check(seed=3, n=64, b=16, resamples=200)
        assert len(calls) == 1

    # the benchmark size too: at seed 3, n=64 the estimates happen not to move
    # when a half's rows are summed in reverse order, at seed 0, n=512 they do
    @pytest.mark.parametrize("seed,n,b,resamples", [(3, 64, 16, 100), (0, 512, 32, 200)])
    def test_estimates_equal_the_gathered_resample_means(self, monkeypatch, seed, n, b,
                                                         resamples):
        # the check sums each resample's rows in place through split_groups;
        # gathering per_sample[pick] and summing its halves with numpy, by
        # the same generator calls, gives the same estimates bit for bit
        report, per_sample = checked_with_per_sample(monkeypatch, seed, n, b, resamples)
        part = benchmark_partition(seed)
        want = gathered_estimates(per_sample, part, seed, n, b, resamples)
        for i, name in enumerate(part.names):
            assert report[f"estimate_{name}"] == float(want[i]), name

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 50), n=st.integers(16, 128), resamples=st.integers(100, 150),
           data=st.data())
    def test_equals_the_serial_composition_of_its_halves(self, seed, n, resamples, data):
        # the oracle runs on one worker thread while the estimate is
        # resampled; the report equals running the pieces one after another
        b = 2 * data.draw(st.integers(1, n // 2), label="b/2")
        with pytest.MonkeyPatch.context() as mp:
            threads = record_in_threads(mp)
            report, per_sample = checked_with_per_sample(mp, seed, n, b, resamples)
        part = benchmark_partition(seed)
        estimates = gathered_estimates(per_sample, part, seed, n, b, resamples)
        oracle = brute_force_variance_oracle(per_sample, part, b=b, resamples=resamples,
                                             seed=seed + 4)
        rel = np.abs(estimates - oracle) / oracle
        want = {"max_rel_err": float(rel.max())}
        for i, name in enumerate(part.names):
            want.update({f"estimate_{name}": float(estimates[i]),
                         f"oracle_{name}": float(oracle[i]), f"rel_err_{name}": float(rel[i])})
        assert {k: repr(v) for k, v in report.items()} == {k: repr(v) for k, v in want.items()}
        assert len(threads) == 1
        assert not threads[0].is_alive()

    def test_concurrent_checks_under_a_short_switch_interval_are_unchanged(self):
        # three checks at once, each with its own oracle thread: six threads
        # on a 2-core VM, switching every 10 us
        from agvm.harness import oracle_check
        seeds = (3, 4, 5)
        want = {s: repr(oracle_check(seed=s, n=64, b=16, resamples=100)) for s in seeds}
        got = {}

        def check(s):
            got[s] = repr(oracle_check(seed=s, n=64, b=16, resamples=100))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=check, args=(s,)) for s in seeds]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert got == want

    def test_a_failing_oracle_is_raised_from_the_check(self, monkeypatch):
        from agvm import harness
        err = MemoryError("no room for the oracle")

        def failing(*args, **kwargs):
            raise err

        monkeypatch.setattr(harness, "brute_force_variance_oracle", failing)
        threads = record_in_threads(monkeypatch)
        with pytest.raises(MemoryError) as raised:
            harness.oracle_check(seed=3, n=64, b=16, resamples=100)
        assert raised.value is err
        assert len(threads) == 1 and not threads[0].is_alive()

    @pytest.mark.parametrize("oracle_fails", [False, True])
    def test_a_failing_estimate_propagates_after_the_join(self, monkeypatch, oracle_fails):
        from agvm import harness
        real_split, real_oracle = harness.split_groups, harness.brute_force_variance_oracle
        calls, finished = [], []
        err = MemoryError("no room for the halves")

        def split(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise err
            return real_split(*args, **kwargs)

        def slow_oracle(*args, **kwargs):
            time.sleep(0.2)         # still running when the estimate fails
            finished.append(1)
            if oracle_fails:
                raise ValueError("the oracle failed too")
            return real_oracle(*args, **kwargs)

        monkeypatch.setattr(harness, "split_groups", split)
        monkeypatch.setattr(harness, "brute_force_variance_oracle", slow_oracle)
        threads = record_in_threads(monkeypatch)
        with pytest.raises(MemoryError) as raised:
            harness.oracle_check(seed=3, n=64, b=16, resamples=100)
        assert raised.value is err
        assert len(calls) == 3
        assert finished == [1]
        assert len(threads) == 1 and not threads[0].is_alive()

    @pytest.mark.parametrize("kwargs,words", [
        (dict(seed=-1), "seed"), (dict(resamples=99), "resamples"),
        (dict(n=64, b=15), "even"), (dict(n=64, b=0), "even"), (dict(n=8, b=16), "n=8"),
        (dict(seed=-2, resamples=5), "seed.*resamples"),
    ])
    def test_check_settings_validated(self, kwargs, words):
        from agvm.harness import oracle_check
        with pytest.raises(ConfigError, match=words):
            oracle_check(**kwargs)


def per_sample_reference(model, inputs, targets, mask_seed):
    """One backward pass per sample, each on its own single-sample graph
    with row j of the iteration's masks and feature noise."""
    masks, noise = model.draw_noise(mask_seed, len(inputs))
    rows = []
    for j in range(len(inputs)):
        m = None if masks is None else masks[j:j + 1]
        nz = None if noise is None else noise[:, :, j:j + 1, :]
        loss = model.loss_given_noise(inputs[j:j + 1], targets[j:j + 1], m, nz)
        rows.append(gradients(loss, model.params).packed)
    return np.stack(rows)


class TestPerSampleGradients:
    @settings(max_examples=30, deadline=None)
    @given(batch=st.integers(1, 10),
           mask_fraction=st.sampled_from([0.0, 0.25, 0.5, 0.75, 0.9]),
           proposals=st.integers(1, 8),
           seed=st.integers(0, 2 ** 16))
    def test_rows_match_one_backward_per_sample(self, batch, mask_fraction, proposals, seed):
        model = SyntheticModel(ModelConfig(mask_fraction=mask_fraction, proposals=proposals,
                                           proposal_noise_std=0.25 if proposals > 1 else 0.0),
                               seed=seed)
        x, y = make_dataset(max(2, batch), 32, 4, 0.1, seed + 1)
        x, y = x[:batch], y[:batch]
        ps = per_sample_gradients(model, x, y, mask_seed=seed + 2)
        assert ps.shape == (batch, model.partition.total_size)
        np.testing.assert_allclose(ps, per_sample_reference(model, x, y, seed + 2),
                                   rtol=0, atol=1e-13)

    def test_peak_memory_is_about_the_result(self):
        # the oracle check's size: n = 512 rows of the benchmark model
        p = BENCHMARK
        model = TwoBlockLinearModel(p["input_dim"], p["hidden_dim"], p["output_dim"], seed=1)
        rng = np.random.default_rng(2)
        x = rng.normal(p["input_mean"], p["input_std"], (p["n"], p["input_dim"]))
        y = rng.normal(0.0, 1.0, (p["n"], p["output_dim"]))
        per_sample_gradients(model, x, y, mask_seed=0)
        tracemalloc.start()
        try:
            ps = per_sample_gradients(model, x, y, mask_seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ps.shape == (p["n"], model.partition.total_size)
        assert peak <= 1.25 * ps.nbytes, (peak, ps.nbytes)

    def test_rows_match_whole_batch_gradient(self):
        model = SyntheticModel(ModelConfig(mask_fraction=0.25), seed=2)
        x, y = make_dataset(8, 32, 4, 0.1, 3)
        ps = per_sample_gradients(model, x, y, mask_seed=11)
        masks, noise = model.draw_noise(11, 8)
        whole = gradients(model.loss_given_noise(x, y, masks, noise), model.params).packed
        np.testing.assert_allclose(ps.mean(axis=0), whole, rtol=0, atol=1e-12)
