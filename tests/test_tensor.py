import ctypes
import dataclasses
import gc
import itertools
import platform
import threading
import tracemalloc
import types
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import agvm.models
from agvm.models import ModelConfig, SyntheticModel, TwoBlockLinearModel, make_dataset
from agvm.tensor import (DOT_BLOCK, ShapeError, TapeError, Tensor, _keep_freed_memory,
                         _RowSum, add, blocked_dot, grad_check, gradients, load_params,
                         masked_select, matmul, multiply, new_graph, no_grad, pack_params, relu,
                         relu_kink_seen, reset_relu_kink, squared_error)


def fd_gradient(f, x, step=1e-6):
    """Central finite differences of scalar f at flat vector x."""
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy(); xp[i] += step
        xm = x.copy(); xm[i] -= step
        g[i] = (f(xp) - f(xm)) / (2 * step)
    return g


def _scalar_loss(out, seed=0):
    """A scalar of ``out`` whose gradient is not the same in every element:
    its squared error against a random target."""
    if out.shape == ():
        return out
    return squared_error(out, Tensor(np.random.default_rng(seed).normal(0, 1, out.shape)))


class TestForwardOps:
    def test_matmul_small(self):
        out = matmul(Tensor([[1, 2], [3, 4]]), Tensor([[1], [1]]))
        np.testing.assert_array_equal(out.data, [[3], [7]])

    def test_relu(self):
        out = relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_squared_error_identity(self):
        assert squared_error(Tensor([1.0, 2.0]), Tensor([1.0, 2.0])).data == 0.0

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 3 * DOT_BLOCK + 5), seed=st.integers(0, 2 ** 31))
    def test_squared_error_sums_fixed_blocks_in_order(self, n, seed):
        diff = np.random.default_rng(seed).normal(0, 1, n)
        got = squared_error(Tensor(diff), Tensor(np.zeros(n))).data
        blocks = [diff[i:i + DOT_BLOCK] for i in range(0, n, DOT_BLOCK)]
        want = blocks[0].dot(blocks[0])
        for block in blocks[1:]:
            want += block.dot(block)
        assert got == want / n
        if n <= DOT_BLOCK:         # one block: one dot over everything
            assert got == np.dot(diff, diff) / n

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 3 * DOT_BLOCK + 5), seed=st.integers(0, 2 ** 31))
    def test_blocked_dot_sums_fixed_blocks_in_order(self, n, seed):
        a, b = np.random.default_rng(seed).normal(0, 1, (2, n))
        want = a[:DOT_BLOCK].dot(b[:DOT_BLOCK])
        for i in range(DOT_BLOCK, n, DOT_BLOCK):
            want += a[i:i + DOT_BLOCK].dot(b[i:i + DOT_BLOCK])
        assert blocked_dot(a, b) == want
        if n <= DOT_BLOCK:
            assert blocked_dot(a, b) == np.dot(a, b)

    def test_add_broadcasts_bias_over_batch(self):
        out = add(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([10.0, 20.0]))
        np.testing.assert_array_equal(out.data, [[11.0, 22.0], [13.0, 24.0]])

    def test_matmul_shape_error_names_primitive(self):
        with pytest.raises(ShapeError, match=r"matmul.*\(2, 3\).*\(2, 3\)"):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_add_shape_error(self):
        with pytest.raises(ShapeError, match="add"):
            add(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))

    def test_no_trailing_broadcast(self):
        with pytest.raises(ShapeError):
            add(Tensor(np.ones((2, 3))), Tensor(np.ones(2)))

    def test_masked_select_gathers(self):
        out = masked_select(Tensor([[1.0, 2.0], [3.0, 4.0]]),
                            np.array([[True, False], [False, True]]))
        np.testing.assert_array_equal(out.data, [1.0, 4.0])

    def test_masked_select_empty_mask_errors(self):
        with pytest.raises(ShapeError, match="keeps no elements"):
            masked_select(Tensor([1.0, 2.0]), np.array([False, False]))


class TestBackward:
    def test_linear_product(self):
        w = Tensor([2.0], requires_grad=True)
        x = Tensor([3.0])
        # d/dw (w x - 1)^2 = 2 (w x - 1) x
        (g,) = gradients(squared_error(multiply(w, x), Tensor([1.0])), [w])
        np.testing.assert_array_equal(g, [30.0])

    def test_mean_squared_error(self):
        w = Tensor([1.0, 3.0], requires_grad=True)
        (g,) = gradients(squared_error(w, Tensor([0.0, 0.0])), [w])
        # d/dw mean((w-t)^2) = 2 (w-t) / n
        np.testing.assert_allclose(g, [1.0, 3.0], rtol=0, atol=1e-15)

    def test_non_scalar_loss_rejected(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError, match="scalar"):
            gradients(multiply(w, Tensor([1.0, 1.0])), [w])

    def test_double_backward_rejected(self):
        w = Tensor([1.0], requires_grad=True)
        loss = _scalar_loss(multiply(w, w))
        gradients(loss, [w])
        with pytest.raises(TapeError, match="consumed"):
            gradients(loss, [w])

    def test_stale_tensor_rejected_in_new_graph(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        inter = multiply(w, w)
        gradients(_scalar_loss(inter), [w])
        with pytest.raises(TapeError, match="tape"):
            multiply(inter, w)

    def test_gradients_does_not_touch_grad(self):
        # a tensor holds no gradient state: every pass returns a fresh gradient
        w = Tensor([2.0], requires_grad=True)
        for _ in range(2):
            (g,) = gradients(squared_error(w, Tensor([0.0])), [w])
            np.testing.assert_array_equal(g, [4.0])
        assert not hasattr(w, "grad")

    def test_constant_loss_has_no_tape(self):
        with pytest.raises(TapeError, match="not attached"):
            gradients(squared_error(Tensor([1.0, 2.0]), Tensor([0.0, 0.0])), [])

    @pytest.mark.parametrize("seed", range(5))
    def test_three_layer_mlp_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        dims = [4, 6, 5, 3]
        weights = [Tensor(rng.normal(0, 0.7, (dims[i], dims[i + 1])), requires_grad=True)
                   for i in range(3)]
        biases = [Tensor(rng.normal(0, 0.2, dims[i + 1]), requires_grad=True)
                  for i in range(3)]
        x = rng.normal(0, 1, (5, 4))
        t = rng.normal(0, 1, (5, 3))

        def run():
            h = Tensor(x)
            for i in range(3):
                h = add(matmul(h, weights[i]), biases[i])
                if i < 2:
                    h = relu(h)
            return squared_error(h, Tensor(t))

        params = weights + biases
        analytic = gradients(run(), params).packed

        def f(flat):
            saved = pack_params(params)
            load_params(params, flat)
            with no_grad():
                val = float(run().data)
            load_params(params, saved)
            return val

        fd = fd_gradient(f, pack_params(params))
        rel = np.abs(analytic - fd) / np.maximum(1.0, np.abs(analytic))
        assert rel.max() < 1e-5

    def test_linearity_of_backward(self):
        # gradient of (loss1 + loss2) equals gradient of loss1 plus loss2
        rng = np.random.default_rng(11)
        w = Tensor(rng.normal(0, 1, (3, 4)), requires_grad=True)
        b = Tensor(rng.normal(0, 1, 4), requires_grad=True)
        x = rng.normal(0, 1, (6, 3))
        t1 = rng.normal(0, 1, (6, 4))
        t2 = rng.normal(0, 1, (6, 4))

        def loss_for(t):
            return squared_error(relu(add(matmul(Tensor(x), w), b)), Tensor(t))

        combined = gradients(add(loss_for(t1), loss_for(t2)), [w, b])
        g1 = gradients(loss_for(t1), [w, b])
        g2 = gradients(loss_for(t2), [w, b])
        for c, a, bb in zip(combined, g1, g2):
            np.testing.assert_allclose(c, a + bb, rtol=0, atol=1e-12)

    def test_determinism_bit_identical(self):
        def run():
            rng = np.random.default_rng(42)
            w = Tensor(rng.normal(0, 1, (4, 4)), requires_grad=True)
            x = Tensor(rng.normal(0, 1, (8, 4)))
            loss = squared_error(relu(matmul(x, w)), Tensor(rng.normal(0, 1, (8, 4))))
            (g,) = gradients(loss, [w])
            return float(loss.data), g

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        assert np.array_equal(g1, g2)

    def test_masked_select_gradient_scatter(self):
        w = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        mask = np.array([[True, False], [False, True]])
        # 2 kept elements, each 1 above its target: a gradient of 1 each
        (g,) = gradients(squared_error(masked_select(w, mask), Tensor([0.0, 3.0])), [w])
        np.testing.assert_array_equal(g.reshape(2, 2), [[1.0, 0.0], [0.0, 1.0]])


def _mlp_loss(x, y, w1, b1, w2, b2, keep=None):
    out = add(matmul(relu(add(matmul(Tensor(x), w1), b1)), w2), b2)
    if keep is None:
        return squared_error(out, Tensor(y))
    return squared_error(masked_select(out, keep), masked_select(Tensor(y), keep))


def _mlp_params(rng):
    return [Tensor(rng.normal(0, 0.5, shape), requires_grad=True)
            for shape in ((5, 4), (4,), (4, 3), (3,))]


class TestRowGroups:
    @pytest.mark.parametrize("k", [1, 2, 3, 6])
    def test_groups_are_the_row_subsets_gradients(self, k):
        # row g of a grouped leaf gradient is the plain gradient of the same
        # loss with every row outside group g contributing nothing
        rng = np.random.default_rng(k)
        params = _mlp_params(rng)
        x, y = rng.normal(0, 1, (6, 5)), rng.normal(0, 1, (6, 3))
        keep = rng.random((6, 3)) < 0.7
        keep[:, 0] = True
        grouped = gradients(_mlp_loss(x, y, *params, keep), params, row_groups=k)
        for g in range(k):
            only = keep.copy()
            only[np.arange(6) % k != g] = False
            # same loss normalisation: scale by the kept count of the whole batch
            sub = gradients(_mlp_loss(x, y, *params, only), params)
            scale = only.sum() / keep.sum()
            for got, want in zip(grouped, sub):
                assert got.shape == (k, *want.shape)
                np.testing.assert_allclose(got[g], scale * want, rtol=0, atol=1e-14)
        plain = gradients(_mlp_loss(x, y, *params, keep), params)
        for got, want in zip(grouped, plain):
            np.testing.assert_allclose(got.sum(axis=0), want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("build", [
        lambda w, x: _scalar_loss(multiply(x, w)),          # elementwise product
        lambda w, x: _scalar_loss(add(x, w)),               # same-shape add
        lambda w, x: _scalar_loss(matmul(w, Tensor(np.ones((3, 2))))),   # left matmul operand
        lambda w, x: _scalar_loss(relu(w)),
    ])
    def test_non_reducing_leaf_pull_raises(self, build):
        w = Tensor(np.ones((4, 3)), requires_grad=True)
        x = Tensor(np.arange(12.0).reshape(4, 3))
        with pytest.raises(TapeError, match="row group"):
            gradients(build(w, x), [w], row_groups=2)

    def test_rows_must_divide_into_groups(self):
        rng = np.random.default_rng(0)
        params = _mlp_params(rng)
        loss = _mlp_loss(rng.normal(0, 1, (6, 5)), rng.normal(0, 1, (6, 3)), *params)
        with pytest.raises(ShapeError, match="row groups"):
            gradients(loss, params, row_groups=4)

    def test_non_leaf_wrt_rejected(self):
        w = Tensor(np.ones((4, 3)), requires_grad=True)
        for k in (None, 2):
            inter = matmul(Tensor(np.ones((2, 4))), w)
            with pytest.raises(TapeError, match="leaf"):
                gradients(_scalar_loss(inter), [w, inter], row_groups=k)

    def test_bad_group_count_rejected(self):
        w = Tensor(np.ones((4, 3)), requires_grad=True)
        with pytest.raises(ValueError, match="row_groups"):
            gradients(_scalar_loss(matmul(Tensor(np.ones((2, 4))), w)), [w], row_groups=0)


def test_consumed_graphs_are_freed_without_the_cyclic_gc():
    rng = np.random.default_rng(0)
    params = _mlp_params(rng)
    w1, b1, w2, b2 = params
    x, y = rng.normal(0, 1, (8, 5)), rng.normal(0, 1, (8, 3))

    def live_tensors():
        return sum(isinstance(o, Tensor) for o in gc.get_objects())

    new_graph()     # drop a graph an earlier caller left unconsumed on this thread
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = live_tensors()
        for step in range(50):
            hidden = relu(add(matmul(Tensor(x), w1), b1))
            activation = weakref.ref(hidden.data)
            loss = squared_error(add(matmul(hidden, w2), b2), Tensor(y))
            del hidden
            gradients(loss, params, row_groups=2 if step % 2 else None)
            # of the consumed graph, only the loss the caller holds is alive
            assert activation() is None, step
            assert live_tensors() == before + 1, step
            del loss
    finally:
        if enabled:
            gc.enable()


def test_reverse_pass_peak_memory_stays_near_the_forward_activations():
    # each record's activations are freed once its pull has run, and each
    # intermediate gradient once consumed, so the walk never holds a
    # gradient for every layer at once
    rng = np.random.default_rng(0)
    rows, width, depth = 256, 64, 24
    weights = [Tensor(rng.normal(0, width ** -0.5, (width, width)), requires_grad=True)
               for _ in range(depth)]
    x = Tensor(rng.normal(0, 1, (rows, width)))
    layer = rows * width * 8
    tracemalloc.start()
    try:
        h = x
        for w in weights:
            h = relu(matmul(h, w))
        loss = squared_error(h, Tensor(np.zeros((rows, width))))
        del h
        forward = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        packed = gradients(loss, weights).packed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the forward holds every relu output, which its pull reads, plus the
    # loss's difference, and no matmul output, which no pull reads
    assert depth * layer < forward < (depth + 2) * layer, (forward, layer)
    assert peak < forward + packed.nbytes + 4 * layer, (peak, forward, packed.nbytes, layer)


class TestHeapPolicy:
    @staticmethod
    def fake_libc():
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        return types.SimpleNamespace(mallopt=mallopt), calls

    def test_sets_the_mmap_and_trim_thresholds(self):
        libc, calls = self.fake_libc()
        assert _keep_freed_memory(libc, {"PATH": "/bin"}) is True
        # M_MMAP_THRESHOLD = -3 at 32 MiB, M_TRIM_THRESHOLD = -1 at 256 MiB,
        # M_ARENA_MAX = -8 at one arena
        assert calls == [(-3, 32 << 20), (-1, 256 << 20), (-8, 1)]

    def test_skipped_without_mallopt(self):
        assert _keep_freed_memory(types.SimpleNamespace(), {}) is False

    @pytest.mark.parametrize("name", ["GLIBC_TUNABLES", "MALLOC_MMAP_THRESHOLD_",
                                      "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_"])
    def test_skipped_when_the_environment_sets_the_allocator(self, name):
        libc, calls = self.fake_libc()
        assert _keep_freed_memory(libc, {name: "0"}) is False
        assert calls == []

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mallopt only")
    def test_glibc_accepts_both_values(self):
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        assert mallopt(-3, 32 << 20) == 1
        assert mallopt(-1, 256 << 20) == 1
        assert mallopt(-8, 1) == 1


class TestNewGraph:
    def test_abandoned_graph_is_not_recorded_into_the_next(self):
        rng = np.random.default_rng(0)
        params = _mlp_params(rng)
        x, y = rng.normal(0, 1, (6, 5)), rng.normal(0, 1, (6, 3))
        ops = len(_mlp_loss(x, y, *params).tape)
        for _ in range(3):
            new_graph()
            loss = _mlp_loss(x, y, *params)
        assert len(loss.tape) == ops
        gradients(loss, params)

    def test_abandoned_loss_cannot_be_walked(self):
        rng = np.random.default_rng(1)
        params = _mlp_params(rng)
        x, y = rng.normal(0, 1, (6, 5)), rng.normal(0, 1, (6, 3))
        abandoned = _mlp_loss(x, y, *params)
        new_graph()
        with pytest.raises(TapeError, match="new_graph"):
            gradients(abandoned, params)

    def test_no_grad_keeps_the_active_tape(self):
        rng = np.random.default_rng(2)
        params = _mlp_params(rng)
        x, y = rng.normal(0, 1, (6, 5)), rng.normal(0, 1, (6, 3))
        want = gradients(_mlp_loss(x, y, *params), params)
        loss = _mlp_loss(x, y, *params)
        with no_grad():
            new_graph()
            _mlp_loss(x, y, *params)
        for got, ref in zip(gradients(loss, params), want):
            np.testing.assert_array_equal(got, ref)


def _tiled_reference(op, small, big, weight):
    """Values and both gradients of op(tile(small), big) in numpy, for the
    output gradient ``weight``."""
    k = big.shape[0] // small.shape[0]
    rows = small.shape[0]
    tiled = np.tile(small, (k, 1))
    if op == "add":
        return tiled + big, sum(weight[i * rows:(i + 1) * rows] for i in range(k)), weight
    g_tiled = weight * big
    return (tiled * big, sum(g_tiled[i * rows:(i + 1) * rows] for i in range(k)),
            weight * tiled)


class TestRowBlocks:
    @pytest.mark.parametrize("op", ["add", "multiply"])
    @pytest.mark.parametrize("k", [2, 3, 8])
    @pytest.mark.parametrize("small_first", [True, False])
    def test_matches_tiled_reference_bit_for_bit(self, op, k, small_first):
        rng = np.random.default_rng(k)
        small = Tensor(rng.normal(0, 1, (5, 3)), requires_grad=True)
        big = Tensor(rng.normal(0, 1, (5 * k, 3)), requires_grad=True)
        target = rng.normal(0, 1, (5 * k, 3))
        prim = add if op == "add" else multiply
        out = prim(small, big) if small_first else prim(big, small)
        # squared_error's gradient for out, computed as its pull does
        weight = (2.0 / out.size) * (out.data - target)
        value, g_small, g_big = _tiled_reference(op, small.data, big.data, weight)
        assert out.shape == (5 * k, 3)
        assert np.array_equal(out.data.view(np.int64), value.view(np.int64))
        got_small, got_big = gradients(squared_error(out, Tensor(target)), [small, big])
        assert got_small.shape == (5, 3) and got_big.shape == (5 * k, 3)
        assert np.array_equal(got_small.view(np.int64), g_small.view(np.int64))
        assert np.array_equal(got_big.view(np.int64), g_big.view(np.int64))

    @pytest.mark.parametrize("prim", [add, multiply])
    @pytest.mark.parametrize("shapes", [((3, 2), (7, 2)), ((4, 2), (6, 2)),
                                        ((3, 2), (6, 3)), ((0, 2), (4, 2))])
    def test_rows_that_are_not_a_multiple_are_rejected(self, prim, shapes):
        a, b = (Tensor(np.ones(s)) for s in shapes)
        with pytest.raises(ShapeError, match=prim.__name__):
            prim(a, b)
        with pytest.raises(ShapeError, match=prim.__name__):
            prim(b, a)

    @pytest.mark.parametrize("prim", [add, multiply])
    def test_repeated_leaf_cannot_be_split_by_row_group(self, prim):
        w = Tensor(np.ones((2, 3)), requires_grad=True)
        x = Tensor(np.arange(12.0).reshape(4, 3))
        with pytest.raises(TapeError, match="row group"):
            gradients(_scalar_loss(prim(x, w)), [w], row_groups=2)


PRIMITIVE_CASES = [
    ("matmul", lambda p, c: _scalar_loss(matmul(p, c)), (3, 4), (4, 2)),
    ("add", lambda p, c: _scalar_loss(add(p, c)), (3, 4), (3, 4)),
    ("add_broadcast", lambda p, c: _scalar_loss(add(c, p)), (4,), (3, 4)),
    ("multiply", lambda p, c: _scalar_loss(multiply(p, c)), (3, 4), (3, 4)),
    ("relu", lambda p, c: _scalar_loss(relu(p)), (3, 4), None),
    ("squared_error", lambda p, c: squared_error(p, c), (3, 4), (3, 4)),
]


@pytest.mark.parametrize("name,build,p_shape,c_shape", PRIMITIVE_CASES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_primitive_gradients_match_finite_differences(name, build, p_shape, c_shape, seed):
    rng = np.random.default_rng(seed)
    # keep relu inputs away from the kink
    base = rng.normal(0, 1, p_shape)
    base[np.abs(base) < 1e-3] = 0.5
    p = Tensor(base, requires_grad=True)
    c = Tensor(rng.normal(0, 1, c_shape)) if c_shape else None

    analytic = gradients(build(p, c), [p]).packed

    def f(flat):
        saved = p.data.copy()
        p.data[...] = flat.reshape(p.shape)
        with no_grad():
            val = float(build(p, c).data)
        p.data[...] = saved
        return val

    fd = fd_gradient(f, p.data.flatten())
    rel = np.abs(analytic - fd) / np.maximum(1.0, np.abs(analytic))
    assert rel.max() < 1e-5, f"{name}: max rel err {rel.max()}"


class TestGradCheck:
    def test_quadratic_is_nearly_exact(self):
        w = Tensor([1.5, -0.5, 2.0], requires_grad=True)
        err = grad_check(lambda: squared_error(w, Tensor([0.0, 1.0, 0.5])),
                         [w], probe_count=3)
        assert err < 1e-8

    def test_frozen_parameters_excluded(self):
        w = Tensor([1.0], requires_grad=True)
        frozen = Tensor([5.0], requires_grad=False)
        # only w can be probed; the check still runs and is tiny
        err = grad_check(lambda: squared_error(multiply(w, frozen), Tensor([1.0])),
                         [w, frozen], probe_count=10)
        assert err < 1e-8

    def test_all_frozen_yields_zero(self):
        frozen = Tensor([5.0], requires_grad=False)
        assert grad_check(lambda: squared_error(multiply(frozen, frozen), Tensor([0.0])), [frozen],
                          probe_count=4) == 0.0

    def test_relu_kink_probe_skipped(self):
        # w * 0 puts the relu input at exactly 0; every probe is skipped
        w = Tensor([3.0], requires_grad=True)
        err = grad_check(lambda: squared_error(relu(multiply(w, Tensor([0.0]))), Tensor([1.0])),
                         [w], probe_count=5)
        assert err == 0.0

    def test_nonfinite_loss_raises(self):
        w = Tensor([1e308], requires_grad=True)
        with pytest.raises(ValueError, match="non-finite"):
            grad_check(lambda: squared_error(multiply(w, w), Tensor([0.0])), [w], probe_count=1)

    def test_probe_count_validated(self):
        w = Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError):
            grad_check(lambda: squared_error(w, Tensor([0.0])), [w], probe_count=0)


class TestParamPacking:
    def test_round_trip(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        b = Tensor([7.0, 8.0], requires_grad=True)
        flat = pack_params([a, b])
        np.testing.assert_array_equal(flat, [0, 1, 2, 3, 4, 5, 7, 8])
        load_params([a, b], flat * 2)
        np.testing.assert_array_equal(b.data, [14.0, 16.0])

    def test_length_mismatch(self):
        a = Tensor([1.0], requires_grad=True)
        with pytest.raises(ShapeError):
            load_params([a], np.zeros(3))

    @pytest.mark.parametrize("length", [4, 6])
    def test_wrong_length_writes_nothing(self, length):
        a = Tensor(np.arange(3.0), requires_grad=True)
        b = Tensor([7.0, 8.0], requires_grad=True)
        with pytest.raises(ShapeError, match="vector length"):
            load_params([a, b], np.full(length, -1.0))
        np.testing.assert_array_equal(a.data, [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(b.data, [7.0, 8.0])


# ---- relu kernel: the same bits as np.where(x > 0, x, 0.0) ----

SPECIAL = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf,
                    5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308])


def _check_relu_bits(x):
    reset_relu_kink()
    out = relu(Tensor(x)).data
    want = np.where(x > 0, x, 0.0)
    assert out.shape == want.shape
    np.testing.assert_array_equal(out.view(np.int64), want.view(np.int64))
    assert relu_kink_seen() == bool(np.any(x == 0.0))


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, st.integers(1, 64),
                  elements=st.floats(allow_nan=True, allow_infinity=True,
                                     allow_subnormal=True)))
def test_relu_bits_match_where(x):
    _check_relu_bits(x)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1, 2, 7, 64, 8192]), st.integers(0, 2 ** 32 - 1),
       st.floats(0.0, 1.0))
def test_relu_bits_match_where_with_special_values(size, seed, share):
    # random normals with NaN, +-0, +-inf and subnormals mixed in
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, size)
    pick = rng.random(size) < share
    x[pick] = rng.choice(SPECIAL, int(pick.sum()))
    _check_relu_bits(x)


def test_relu_negative_zero_scalar_path():
    _check_relu_bits(np.array([-0.0]))
    _check_relu_bits(np.array([-0.0, np.nan, -np.inf]))


# ---- pulls skip constant operands ----

# (name, op, shape of the first operand, shape of the second)
BINARY_CASES = [
    ("matmul", matmul, (4, 3), (3, 2)),
    ("add", add, (4, 3), (4, 3)),
    ("add_broadcast_right", add, (4, 3), (3,)),
    ("add_broadcast_left", add, (3,), (4, 3)),
    ("multiply", multiply, (4, 3), (4, 3)),
    ("multiply_broadcast", multiply, (4, 3), (3,)),
    ("squared_error", squared_error, (4, 3), (4, 3)),
]


@pytest.mark.parametrize("name,op,a_shape,b_shape", BINARY_CASES)
@pytest.mark.parametrize("constant", [0, 1])
def test_pull_returns_none_for_constant_operand(name, op, a_shape, b_shape, constant):
    rng = np.random.default_rng(0)
    operands = [Tensor(rng.normal(0, 1, shape), requires_grad=(i != constant))
                for i, shape in enumerate((a_shape, b_shape))]
    out = op(*operands)
    pull, tracked, parents = out.tape._records[-1]
    assert list(tracked) == [i != constant for i in range(2)]
    for i, (parent, x) in enumerate(zip(parents, operands)):
        assert parent is (None if i == constant else x)
    grads = pull(rng.normal(0, 1, out.shape), tracked)
    assert grads[constant] is None
    assert grads[1 - constant] is not None
    # every gradient comes back at its input's shape; a batch-axis sum is
    # reduced by the reverse pass, so reduce it here
    got = grads[1 - constant]
    got = got.total() if isinstance(got, _RowSum) else got
    assert got.shape == operands[1 - constant].shape


@pytest.mark.parametrize("name,op,a_shape,b_shape", BINARY_CASES)
@pytest.mark.parametrize("constant", [0, 1])
def test_tracked_gradient_bits_do_not_depend_on_other_operand(name, op, a_shape, b_shape,
                                                              constant):
    rng = np.random.default_rng(1)
    values = [rng.normal(0, 1, shape) for shape in (a_shape, b_shape)]
    weight_seed = 2

    def tracked_grad(other_tracked):
        operands = [Tensor(v, requires_grad=(i != constant or other_tracked))
                    for i, v in enumerate(values)]
        loss = _scalar_loss(op(*operands), weight_seed)
        return gradients(loss, [operands[1 - constant]])[0]

    with_constant, with_tracked = tracked_grad(False), tracked_grad(True)
    np.testing.assert_array_equal(with_constant.view(np.int64), with_tracked.view(np.int64))


def test_masked_select_records_no_mask_operand():
    a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    keep = np.array([[True, False, True], [False, True, True]])
    out = masked_select(a, keep)
    pull, tracked, parents = out.tape._records[-1]
    assert len(parents) == 1 and parents[0] is a
    (ga,) = pull(np.arange(1.0, 5.0), tracked)
    np.testing.assert_array_equal(ga, [[1.0, 0.0, 2.0], [0.0, 3.0, 4.0]])


# ---- handed-out gradients never share memory ----

def _assert_no_shared_memory(arrays):
    for (i, x), (j, y) in itertools.combinations(enumerate(arrays), 2):
        assert not np.shares_memory(x, y), (i, j)


ALIASING_GRAPHS = [
    # equal-shape add of two leaves: both sides pass the same gradient through
    ("add_leaves", lambda a, b, c: _scalar_loss(multiply(add(a, b), c))),
    ("add_leaves_is_loss", lambda a, b, c: _scalar_loss(add(a, b))),
    ("add_chain", lambda a, b, c: _scalar_loss(add(add(a, b), c))),
    ("add_same_leaf_twice", lambda a, b, c: _scalar_loss(multiply(add(a, a), add(b, c)))),
    ("mixed", lambda a, b, c: squared_error(relu(add(multiply(a, b), c)), Tensor(np.ones((3, 2))))),
]


@pytest.mark.parametrize("name,build", ALIASING_GRAPHS)
def test_gradients_never_share_memory(name, build):
    rng = np.random.default_rng(5)
    leaves = [Tensor(rng.normal(0, 1, (3, 2)), requires_grad=True) for _ in range(3)]
    _assert_no_shared_memory(gradients(build(*leaves), leaves))
    # the same leaf requested twice gets two arrays
    _assert_no_shared_memory(gradients(build(*leaves), leaves + leaves))


def test_shared_add_gradient_values_are_right():
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0, 4.0], requires_grad=True)
    # d/da mean((a + b - t)^2) = (a + b - t) for two elements
    ga, gb = gradients(squared_error(add(a, b), Tensor([-1.0, -1.0])), [a, b])
    np.testing.assert_array_equal(ga, [5.0, 7.0])
    np.testing.assert_array_equal(gb, [5.0, 7.0])


# ---- packed gradients: one buffer, slot views, first contribution in place ----

def _model_case(kind, proposals, mask_fraction, jitter, batch, seed):
    """A model, a batch and its fixed masks and noise, so the same loss can
    be rebuilt for several reverse passes."""
    if kind == "two_block":
        model = TwoBlockLinearModel(6, 5, 4, seed=seed)
        x, y = make_dataset(batch, 6, 4, 0.1, seed + 1)
    else:
        model = SyntheticModel(ModelConfig(
            trunk_widths=(16,), head_width=8, proposals=proposals,
            mask_fraction=mask_fraction, proposal_noise_std=0.3 if jitter else 0.0,
            head_mode=kind), seed=seed)
        x, y = make_dataset(batch, 32, 4, 0.1, seed + 1)
    masks, noise = model.draw_noise(seed + 2, batch)
    return model, lambda: model.loss_given_noise(x, y, masks, noise)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


PACKED_CASES = dict(
    kind=st.sampled_from(["shared", "independent", "two_block"]),
    proposals=st.integers(1, 8),
    mask_fraction=st.sampled_from([0.0, 0.5, 0.75]),
    jitter=st.booleans(),
    batch=st.sampled_from([2, 4, 6]),
    seed=st.integers(0, 2 ** 16),
)


@st.composite
def model_configs(draw):
    """Small SyntheticModel configs: every head mode, with and without a
    pyramid, masks and proposals."""
    pyramid = draw(st.booleans())
    return ModelConfig(
        input_dim=draw(st.integers(1, 6)),
        trunk_widths=draw(st.sampled_from([(4,), (8,), (6, 8)])),
        levels=draw(st.integers(1, 3)) if pyramid else 1,
        head_width=draw(st.integers(1, 5)),
        output_dim=draw(st.integers(1, 3)),
        head_mode=draw(st.sampled_from(["shared", "independent"])),
        pyramid=pyramid,
        mask_fraction=draw(st.sampled_from([0.0, 0.5])),
        proposals=draw(st.integers(1, 3)),
        proposal_noise_std=draw(st.sampled_from([0.0, 0.3])),
    )


class TestPackedGradients:
    @settings(max_examples=25, deadline=None)
    @given(**PACKED_CASES)
    def test_packed_equals_backward_grads(self, kind, proposals, mask_fraction, jitter,
                                          batch, seed):
        # each reference pass requests one parameter, so its buffer is that
        # parameter's gradient alone
        model, loss = _model_case(kind, proposals, mask_fraction, jitter, batch, seed)
        packed = gradients(loss(), model.params).packed
        want = np.concatenate([gradients(loss(), [p]).packed for p in model.params])
        assert packed.shape == want.shape
        assert np.array_equal(_bits(packed), _bits(want))

    @settings(max_examples=25, deadline=None)
    @given(**PACKED_CASES, per_sample=st.booleans())
    def test_grouped_packed_equals_one_pass_per_parameter(
            self, kind, proposals, mask_fraction, jitter, batch, seed, per_sample):
        # each reference pass requests one parameter, whose slot is then the
        # whole contiguous buffer rather than a strided column block
        model, loss = _model_case(kind, proposals, mask_fraction, jitter, batch, seed)
        k = batch if per_sample else 2
        packed = gradients(loss(), model.params, row_groups=k).packed
        want = np.concatenate([gradients(loss(), [p], row_groups=k).packed
                               for p in model.params], axis=1)
        assert packed.shape == (k, sum(p.size for p in model.params))
        assert np.array_equal(_bits(packed), _bits(want))

    @pytest.mark.parametrize("k", [None, 1, 3])
    def test_entries_are_unshared_views_of_packed(self, k):
        rng = np.random.default_rng(0)
        params = _mlp_params(rng)
        x, y = rng.normal(0, 1, (6, 5)), rng.normal(0, 1, (6, 3))
        got = gradients(_mlp_loss(x, y, *params), params, row_groups=k)
        assert isinstance(got, list) and len(got) == len(params)
        width = sum(p.size for p in params)
        assert got.packed.shape == ((k, width) if k else (width,))
        offset = 0
        for g, p in zip(got, params):
            assert g.shape == ((k, *p.shape) if k else p.shape)
            assert np.shares_memory(g, got.packed)
            assert np.array_equal(g, got.packed[..., offset:offset + p.size].reshape(g.shape))
            offset += p.size
        _assert_no_shared_memory(got)

    @settings(max_examples=40, deadline=None)
    @given(config=model_configs(), batch=st.sampled_from([2, 4, 6]),
           groups=st.sampled_from(["none", "pairs", "samples"]), seed=st.integers(0, 2 ** 16))
    def test_entries_are_shaped_views_of_packed(self, config, batch, groups, seed):
        k = {"none": None, "pairs": 2, "samples": batch}[groups]
        model = SyntheticModel(config, seed=seed)
        x, y = make_dataset(batch, config.input_dim, config.output_dim, 0.1, seed + 1)
        got = gradients(model.loss(x, y, mask_seed=seed + 2), model.params, row_groups=k)
        lead = (k,) if k else ()
        assert got.packed.shape == lead + (model.partition.total_size,)
        for g, p in zip(got, model.params):
            assert g.shape == lead + p.shape
            assert g.base is got.packed
        # the raveled entries, side by side, are the packed buffer
        side_by_side = np.concatenate([g.reshape(lead + (p.size,))
                                       for g, p in zip(got, model.params)], axis=-1)
        assert np.array_equal(_bits(side_by_side), _bits(got.packed))

    @pytest.mark.parametrize("k", [None, 2])
    def test_repeated_leaf_gets_two_equal_unshared_slots(self, k):
        rng = np.random.default_rng(1)
        params = _mlp_params(rng)
        x, y = rng.normal(0, 1, (6, 5)), rng.normal(0, 1, (6, 3))
        w1, b1, w2, b2 = params
        got = gradients(_mlp_loss(x, y, *params), [w2, w1, w2, b2], row_groups=k)
        assert np.array_equal(got[0], got[2])
        assert np.any(got[0] != 0.0)
        _assert_no_shared_memory(got)

    @pytest.mark.parametrize("k", [None, 2])
    def test_unreached_leaf_gets_a_zero_slot(self, k):
        rng = np.random.default_rng(2)
        params = _mlp_params(rng)
        x, y = rng.normal(0, 1, (6, 5)), rng.normal(0, 1, (6, 3))
        unused = Tensor(np.ones((5, 4)), requires_grad=True)
        wrt = params[:2] + [unused] + params[2:]
        width = sum(p.size for p in wrt) * (k or 1)
        for _ in range(3):
            # leave non-zero garbage where the next buffer is likely to go
            np.full(width, np.nan)
            got = gradients(_mlp_loss(x, y, *params), wrt, row_groups=k)
            assert np.array_equal(got[2], np.zeros_like(got[2]))
            assert all(np.all(np.isfinite(g)) for g in got)


# ---- records keep only what the pulls read ----

def _tensors_held_by(pull):
    """Every Tensor in a pull's closure cells and defaults, looking into
    tuples, lists and nested functions."""
    todo = [pull]
    found = []
    while todo:
        obj = todo.pop()
        if isinstance(obj, Tensor):
            found.append(obj)
        elif isinstance(obj, (tuple, list)):
            todo.extend(obj)
        elif isinstance(obj, types.FunctionType):
            todo.extend(cell.cell_contents for cell in obj.__closure__ or ())
            todo.extend(obj.__defaults__ or ())
            todo.extend((obj.__kwdefaults__ or {}).values())
    return found


@settings(max_examples=40, deadline=None)
@given(config=model_configs(), proposals=st.integers(1, 8), batch=st.sampled_from([2, 4, 6]),
       seed=st.integers(0, 2 ** 16))
def test_records_and_pulls_hold_no_tensor_but_requires_grad_leaves(config, proposals, batch,
                                                                   seed):
    config = dataclasses.replace(config, proposals=proposals)
    model = SyntheticModel(config, seed=seed)
    x, y = make_dataset(batch, config.input_dim, config.output_dim, 0.1, seed + 1)
    masks, noise = model.draw_noise(seed + 2, batch)
    loss = model.loss_given_noise(x, y, masks, noise)
    records = loss.tape._records
    assert loss.node == len(records) - 1
    for i, (pull, tracked, parents) in enumerate(records):
        assert len(parents) == len(tracked)
        for parent, t in zip(parents, tracked):
            assert (parent is not None) == t
            if type(parent) is int:
                assert 0 <= parent < i
            elif parent is not None:
                assert isinstance(parent, Tensor) and parent.requires_grad
                assert parent.tape is None
        for held in _tensors_held_by(pull):
            assert held.requires_grad and held.tape is None, (i, held)
    gradients(loss, model.params)


def test_forward_intermediates_are_freed_before_the_reverse_pass(monkeypatch):
    # the default model at batch 2048, jittered so that it draws noise
    config, batch = ModelConfig(proposal_noise_std=0.25), 2048
    model = SyntheticModel(config, seed=0)
    x, y = make_dataset(batch, config.input_dim, config.output_dim, 0.1, 1)
    real_matmul, real_add, real_draw = agvm.models.matmul, agvm.models.add, model.draw_noise
    matmuls = []        # [weakref to a matmul output array, whether a later pull reads it]
    bias_adds = []      # weakrefs to the outputs of adds with a bias leaf
    noises = []
    held = None         # every op output, when building the reference

    def traced_matmul(a, b):
        for entry in matmuls:
            if entry[0]() is a.data and b.requires_grad:
                entry[1] = True
        out = real_matmul(a, b)
        matmuls.append([weakref.ref(out.data), False])
        if held is not None:
            held.append(out)
        return out

    def traced_add(a, b):
        out = real_add(a, b)
        if b.requires_grad and b.tape is None and b.ndim == 1:
            bias_adds.append(weakref.ref(out.data))
        if held is not None:
            held.append(out)
        return out

    def traced_draw(mask_seed, rows):
        masks, noise = real_draw(mask_seed, rows)
        noises.append(weakref.ref(noise))
        return masks, noise

    monkeypatch.setattr(agvm.models, "matmul", traced_matmul)
    monkeypatch.setattr(agvm.models, "add", traced_add)
    monkeypatch.setattr(model, "draw_noise", traced_draw)
    enabled = gc.isenabled()
    gc.disable()
    try:
        loss = model.loss(x, y, mask_seed=2)
        assert len(matmuls) == 19 and len(bias_adds) == 13 and len(noises) == 1
        # of the matmul outputs, only the last halving product of each level past
        # the first is read, by that level's lateral pull
        assert sum(kept for _, kept in matmuls) == 3
        for i, (ref, kept) in enumerate(matmuls):
            assert (ref() is not None) == kept, i
        assert all(ref() is None for ref in bias_adds)
        assert noises[0]() is None
        got = gradients(loss, model.params).packed
    finally:
        if enabled:
            gc.enable()
    # the same forward with every op output held, as records holding their
    # outputs and inputs would
    held = []
    want = gradients(model.loss(x, y, mask_seed=2), model.params).packed
    assert len(held) == 19 + 20     # 13 bias adds, 4 noise adds, 3 loss terms
    assert np.array_equal(_bits(got), _bits(want))


# ---- bias sums: column sums of [rows, w] as a ones-vector product ----

ROW_SPLITS = st.integers(1, 64).flatmap(lambda rows: st.tuples(
    st.just(rows), st.sampled_from([k for k in range(1, rows + 1) if rows % k == 0])))


@settings(max_examples=200, deadline=None)
@given(ROW_SPLITS, st.integers(1, 40), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([1e-3, 1.0, 1e6]))
def test_bias_sums(rows_k, w, seed, scale):
    rows, k = rows_k
    left = np.random.default_rng(seed).normal(0.0, scale, (rows, w))
    bias = _RowSum(left)
    size = np.abs(left).sum(axis=0)
    total = bias.total()
    assert total.shape == (w,)
    assert np.all(np.abs(total - left.sum(axis=0)) <= 1e-13 * size)
    packed = np.full(w + 3, np.nan)
    assert np.array_equal(_bits(bias.total(packed[2:2 + w])), _bits(total))
    for groups in sorted({k, rows}):
        split = bias.split(groups)
        assert split.shape == (groups, w)
        for g in range(groups):
            want = left[g::groups].sum(axis=0)
            assert np.all(np.abs(split[g] - want) <= 1e-13 * np.abs(left[g::groups]).sum(axis=0))
        assert np.all(np.abs(split.sum(axis=0) - total) <= 1e-13 * size)
        packed = np.full((groups, w + 3), np.nan)
        slot = packed[:, 1:1 + w]
        assert bias.split(groups, slot) is slot
        assert np.array_equal(_bits(slot), _bits(split))


# ---- the default step in plain numpy, op for op in the engine's order ----

def _reference_relu(x):
    out = np.fmax(x, 0.0)
    if not x.all():
        out += 0.0
    return out


def _reference_rowsum(left, right, k):
    """A batch-axis sum as the reverse pass forms it: ``left.T @ right``, or
    with no ``right`` a ones-vector product; split into k row groups when
    k > 0."""
    rows = left.shape[0]
    if not k:
        return np.ones(rows) @ left if right is None else left.T @ right
    if right is None:
        w = left.shape[1]
        return (np.ones(rows // k) @ left.reshape(rows // k, k * w)).reshape(k, w)
    return np.matmul(left.reshape(rows // k, k, -1).transpose(1, 2, 0),
                     right.reshape(rows // k, k, -1).transpose(1, 0, 2))


def reference_loss_and_packed(model, x, t, k=0):
    """The default SyntheticModel's loss and packed gradient (``k`` row
    groups, none at 0) in plain numpy, op for op as the tape computes them:
    the levels' squared errors weighted by their element counts and summed
    in level order; in the reverse pass, the levels from the last down, the
    trunk feature's gradient summed over the levels in that order, and each
    leaf of the shared head given level 4's contribution first and the
    others added with ``+=``."""
    config = model.config
    assert config == ModelConfig() and config.levels == 4
    (w0, b0), = [(w.data, b.data) for w, b in model._trunk]
    (w1, b1), (w2, b2) = [(w.data, b.data) for w, b in model._heads[0]]
    h = _reference_relu(x @ w0 + b0)
    levels = []
    for lvl in range(config.levels):
        halvers, f = [], h
        for _ in range(lvl):
            halvers.append(model._halvers[f.shape[1]].data)
            f = f @ halvers[-1]
        wl, bl = model._laterals[lvl]
        fl = _reference_relu(f @ wl.data + bl.data)
        r1 = _reference_relu(fl @ w1 + b1)
        diff = r1 @ w2 + b2 - t
        flat = diff.reshape(-1)
        levels.append((halvers, f, fl, r1, diff, flat.dot(flat) / flat.size))
    weight = np.array(1.0 / config.levels)     # each level keeps a quarter of the elements
    loss = levels[0][5] * weight
    for level in levels[1:]:
        loss = loss + level[5] * weight

    grads = {}

    def contribute(name, g):
        if name in grads:
            grads[name] += g
        else:
            grads[name] = g

    g_h = None
    for lvl in reversed(range(config.levels)):
        halvers, f, fl, r1, diff, _ = levels[lvl]
        wl, _ = model._laterals[lvl]
        g = (2.0 * float(1.0 * weight) / diff.size) * diff
        contribute("b2", _reference_rowsum(g, None, k))
        contribute("w2", _reference_rowsum(r1, g, k))
        g = (g @ w2.T) * (r1 > 0.0)
        contribute("b1", _reference_rowsum(g, None, k))
        contribute("w1", _reference_rowsum(fl, g, k))
        g = (g @ w1.T) * (fl > 0.0)
        contribute(f"bl{lvl}", _reference_rowsum(g, None, k))
        contribute(f"wl{lvl}", _reference_rowsum(f, g, k))
        g = g @ wl.data.T
        for halver in reversed(halvers):
            g = g @ halver.T
        g_h = g if g_h is None else g_h + g
    g = g_h * (h > 0.0)
    contribute("b0", _reference_rowsum(g, None, k))
    contribute("w0", _reference_rowsum(x, g, k))
    order = (["w0", "b0"] + [f"{p}{lvl}" for lvl in range(config.levels) for p in ("wl", "bl")]
             + ["w1", "b1", "w2", "b2"])
    lead = (k,) if k else ()
    return loss, np.concatenate([grads[name].reshape(lead + (-1,)) for name in order], axis=-1)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 16), k=st.sampled_from([0, 2]))
def test_default_step_equals_the_numpy_reference_bit_for_bit(seed, k):
    model = SyntheticModel(ModelConfig(), seed=seed)
    x, y = make_dataset(256, 32, 4, 0.1, seed + 1)
    want_loss, want = reference_loss_and_packed(model, x, y, k)
    loss = model.loss_given_noise(x, y, None, None)
    got = gradients(loss, model.params, row_groups=k or None).packed
    assert got.shape == want.shape
    assert float(loss.data) == float(want_loss)
    assert np.array_equal(_bits(got), _bits(want))


# ---- tape misuse: every primitive rejects an input of another tape ----

def _primitive_calls(square, row):
    """(name, call) for every primitive, operand position and elementwise
    layout, with the taped ``square`` ([2, 2]) or ``row`` ([2]) in that
    position and leaves elsewhere."""
    leaf, bias = Tensor(np.ones((2, 2)), requires_grad=True), Tensor(np.ones(2))
    return {
        "matmul[0]": lambda: matmul(square, leaf),
        "matmul[1]": lambda: matmul(leaf, square),
        "add[0]": lambda: add(square, leaf),
        "add[1]": lambda: add(leaf, square),
        "add_bias[0]": lambda: add(square, bias),
        "add_bias[1]": lambda: add(leaf, row),
        "add_left_bias[0]": lambda: add(row, leaf),
        "add_left_bias[1]": lambda: add(bias, square),
        "multiply[0]": lambda: multiply(square, leaf),
        "multiply[1]": lambda: multiply(leaf, square),
        "multiply_bias[1]": lambda: multiply(leaf, row),
        "relu[0]": lambda: relu(square),
        "squared_error[0]": lambda: squared_error(square, leaf),
        "squared_error[1]": lambda: squared_error(leaf, square),
        "masked_select[0]": lambda: masked_select(square, np.ones((2, 2), dtype=bool)),
    }


def _taped_pair():
    """A [2, 2] and a [2] tensor on this thread's tape, and the loss they feed."""
    w = Tensor(np.full((2, 2), 0.5), requires_grad=True)
    square = matmul(w, w)
    row = masked_select(square, np.array([[True, True], [False, False]]))
    return square, row, _scalar_loss(add(square, row)), w


PRIMITIVE_CALLS = sorted(_primitive_calls(None, None))


def _in_thread(fn):
    worker = threading.Thread(target=fn)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive()


@pytest.mark.parametrize("consumer", ["this thread", "another thread"])
@pytest.mark.parametrize("name", PRIMITIVE_CALLS)
def test_every_operand_of_a_consumed_tape_is_rejected(name, consumer):
    # consumed on another thread, the tape stays this thread's active one
    square, row, loss, w = _taped_pair()
    if consumer == "this thread":
        gradients(loss, [w])
    else:
        _in_thread(lambda: gradients(loss, [w]))
    assert loss.tape.consumed
    with pytest.raises(TapeError, match="tape"):
        _primitive_calls(square, row)[name]()
    new_graph()


@pytest.mark.parametrize("name", PRIMITIVE_CALLS)
def test_every_operand_of_another_threads_live_tape_is_rejected(name):
    made = []
    _in_thread(lambda: made.append(_taped_pair()))
    square, row, loss, _ = made[0]
    assert not loss.tape.consumed
    with pytest.raises(TapeError, match="tape"):
        _primitive_calls(square, row)[name]()
