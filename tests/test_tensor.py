"""Tensor engine: op semantics, adjoints, record plumbing, Adam."""

import tracemalloc
import weakref

import numpy as np
import pytest

from smbg import losses, pipeline as pl, tensor as t
from smbg.net import SmbgNet
from smbg.reference import conv1d_same_ref, conv2d_dilated_ref, sigmoid_ref

RNG = t.init_rng(20240901)


def gc(fn, tensors, eps=1e-4):
    return t.grad_check(fn, tensors, eps)


def _im2col_adjoint(x, w, lo, hi, g):
    """The 1-D conv adjoint that kept the forward's time-major im2col, as an oracle:
    gw is one GEMM over its rows, gx the correlation of g with the tap-flipped,
    channel-swapped kernel."""
    T = x.shape[2]
    Co, Ci, k = w.shape
    col = t._im2col1d(x, k, lo, hi)
    g = np.pad(g[:, :, lo:hi], ((0, 0), (0, 0), (lo, T - hi)))
    w_flip = np.ascontiguousarray(w[:, :, ::-1].transpose(1, 0, 2))
    g_rows = g[:, :, lo:hi].transpose(1, 2, 0).reshape(Co, -1)
    gw = np.matmul(g_rows, col.reshape(-1, Ci * k)).reshape(Co, Ci, k)
    return t.conv1d_same_raw(g, w_flip, None), gw, g_rows.sum(axis=1)


def _batch_im2col_conv(x, w, b, lo, hi):
    """The 1-D conv forward that built the whole batch's time-major im2col before its
    per-item GEMMs, as an oracle: conv1d_same_raw must match it bit for bit."""
    B, _, T = x.shape
    Co, Ci, k = w.shape
    rows = np.matmul(t._im2col1d(x, k, lo, hi).transpose(1, 0, 2), w.reshape(Co, Ci * k).T)
    rows += b
    out = np.zeros((B, Co, T))
    out[:, :, lo:hi] = rows.transpose(0, 2, 1)
    return out


class TestConv1d:
    def test_identity_kernel(self):
        out = t.conv1d_same(t.Tensor([[[1.0, 2.0, 3.0]]]), t.Tensor([[[1.0]]]),
                            t.Tensor([0.0]))
        np.testing.assert_array_equal(out.data, [[[1.0, 2.0, 3.0]]])

    def test_centered_delta_kernel(self):
        out = t.conv1d_same(t.Tensor([[[1.0, 2.0, 3.0]]]), t.Tensor([[[0.0, 1.0, 0.0]]]),
                            t.Tensor([0.0]))
        np.testing.assert_array_equal(out.data, [[[1.0, 2.0, 3.0]]])

    def test_ones_kernel_zero_padding(self):
        out = t.conv1d_same(t.Tensor([[[1.0, 2.0, 3.0]]]), t.Tensor([[[1.0, 1.0, 1.0]]]),
                            t.Tensor([0.0]))
        np.testing.assert_array_equal(out.data, [[[3.0, 6.0, 5.0]]])

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            t.conv1d_same(t.Tensor(np.zeros((1, 1, 4))), t.Tensor(np.zeros((1, 1, 2))),
                          t.Tensor(np.zeros(1)))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            t.conv1d_same(t.Tensor(np.zeros((1, 2, 4))), t.Tensor(np.zeros((1, 3, 3))),
                          t.Tensor(np.zeros(1)))

    @pytest.mark.parametrize("shape,k", [((1, 1, 5), 3), ((2, 3, 8), 5), ((3, 4, 11), 7)])
    def test_matches_scalar_reference(self, shape, k):
        x = RNG.standard_normal(shape)
        w = RNG.standard_normal((4, shape[1], k))
        b = RNG.standard_normal(4)
        fast = t.conv1d_same_raw(x, w, b)
        ref = conv1d_same_ref(x, w, b)
        scale = max(1.0, np.abs(ref).max())
        assert np.abs(fast - ref).max() <= 1e-12 * scale

    @pytest.mark.parametrize("shape,k", [((1, 2, 6), 3), ((2, 3, 7), 5), ((2, 2, 9), 9)])
    def test_gradients(self, shape, k):
        x = t.Tensor(RNG.standard_normal(shape), requires_grad=True)
        w = t.Tensor(RNG.standard_normal((3, shape[1], k)) * 0.4, requires_grad=True)
        b = t.Tensor(RNG.standard_normal(3) * 0.2, requires_grad=True)
        err = gc(lambda i: t.tsum(t.square(t.conv1d_same(*i))), [x, w, b])
        assert err < 1e-4

    @pytest.mark.parametrize("lo,hi", [(2, 9), (0, 4), (5, 11), (6, 7)])
    def test_row_range_matches_reference_and_is_zero_elsewhere(self, lo, hi):
        x = RNG.standard_normal((2, 3, 11))
        w = RNG.standard_normal((4, 3, 5))
        b = RNG.standard_normal(4)
        got = t.conv1d_same(x, w, b, lo, hi).data
        ref = conv1d_same_ref(x, w, b)
        assert got.shape == ref.shape
        scale = max(1.0, np.abs(ref).max())
        assert np.abs(got[:, :, lo:hi] - ref[:, :, lo:hi]).max() <= 1e-12 * scale
        assert np.all(got[:, :, :lo] == 0.0) and np.all(got[:, :, hi:] == 0.0)

    @pytest.mark.parametrize("lo,hi", [(2, 7), (3, 4), (0, 1), (8, 9)])
    def test_row_range_gradients(self, lo, hi):
        x = t.Tensor(RNG.standard_normal((2, 2, 9)), requires_grad=True)
        w = t.Tensor(RNG.standard_normal((3, 2, 5)) * 0.4, requires_grad=True)
        b = t.Tensor(RNG.standard_normal(3) * 0.2, requires_grad=True)
        probe = RNG.standard_normal((2, 3, 9))

        def f(i):
            # the +1 gives the constant rows outside [lo, hi) a nonzero upstream gradient
            return t.tsum(t.mul(t.square(t.add(t.conv1d_same(*i, lo, hi), 1.0)), probe))

        assert gc(f, [x, w, b]) < 1e-4

    # the tests below draw from their own generators, leaving RNG's stream to the rest

    def test_wide_kernel_gradients(self):
        # taps reach past both ends of the rows and of the input
        rng = t.init_rng(91)
        x = t.Tensor(rng.standard_normal((2, 2, 7)), requires_grad=True)
        w = t.Tensor(rng.standard_normal((3, 2, 9)) * 0.3, requires_grad=True)
        b = t.Tensor(rng.standard_normal(3) * 0.2, requires_grad=True)
        probe = rng.standard_normal((2, 3, 7))
        assert gc(lambda i: t.tsum(t.mul(t.conv1d_same(*i, 1, 5), probe)), [x, w, b]) < 1e-4

    # desk widths at T=100; published widths (Ci=128, Co=256) at T=24, which keeps
    # the oracle's im2col of g near 80 MB at B=16, k=99
    @pytest.mark.parametrize("Ci,Co,T,lo,hi", [(16, 16, 100, 7, 93), (128, 256, 24, 3, 21)])
    @pytest.mark.parametrize("B", [1, 4, 16])
    @pytest.mark.parametrize("k", [1, 3, 17, 99])
    def test_adjoint_matches_im2col_adjoint(self, Ci, Co, T, lo, hi, B, k):
        rng = t.init_rng(92)
        x = t.Tensor(rng.standard_normal((B, Ci, T)), requires_grad=True)
        w = t.Tensor(rng.standard_normal((Co, Ci, k)), requires_grad=True)
        b = t.Tensor(rng.standard_normal(Co), requires_grad=True)
        g = rng.standard_normal((B, Co, T))
        t.tsum(t.mul(t.conv1d_same(x, w, b, lo, hi), g)).backward()
        want = _im2col_adjoint(x.data, w.data, lo, hi, g)
        for name, got, ref in zip(("gx", "gw", "gb"), (x.grad, w.grad, b.grad), want):
            assert got.shape == ref.shape, name
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), name

    def test_node_keeps_no_im2col(self, monkeypatch):
        rng = t.init_rng(93)
        made = []
        im2col = t._im2col1d

        def recording(*args):
            col = im2col(*args)
            made.extend(weakref.ref(a) for a in (col, col.base) if a is not None)
            return col

        monkeypatch.setattr(t, "_im2col1d", recording)
        x = t.Tensor(rng.standard_normal((4, 3, 20)), requires_grad=True)
        w = t.Tensor(rng.standard_normal((5, 3, 7)), requires_grad=True)
        b = t.Tensor(rng.standard_normal(5), requires_grad=True)
        out = t.conv1d_same(x, w, b, 2, 17)
        assert made and all(ref() is None for ref in made)
        t.tsum(out).backward()
        assert w.grad is not None

    # the band convs' rows at desk widths (T=100) and at published widths
    @pytest.mark.parametrize("Ci,Co", [(16, 16), (128, 256)])
    @pytest.mark.parametrize("B", [1, 4, 16])
    @pytest.mark.parametrize("k,lo,hi", [(1, 0, 100), (17, 0, 100), (33, 17, 100),
                                         (57, 0, 67), (99, 0, 43)])
    def test_raw_equals_batch_im2col_bit_for_bit(self, Ci, Co, B, k, lo, hi):
        rng = t.init_rng(94)
        x = rng.standard_normal((B, Ci, 100))
        w = rng.standard_normal((Co, Ci, k))
        b = rng.standard_normal(Co)
        assert np.array_equal(t.conv1d_same_raw(x, w, b, lo, hi),
                              _batch_im2col_conv(x, w, b, lo, hi))

    def test_raw_holds_one_item_im2col_at_a_time(self):
        # band 3 at published widths, B=4: the batch im2col took 17.4 MB, 4 items' worth
        rng = t.init_rng(95)
        B, Ci, Co, T, k, lo, hi = 4, 128, 256, 100, 99, 0, 43
        x = rng.standard_normal((B, Ci, T))
        w = rng.standard_normal((Co, Ci, k))
        b = rng.standard_normal(Co)
        tracemalloc.start()
        try:
            t.conv1d_same_raw(x, w, b, lo, hi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        item_col, out = (hi - lo) * Ci * k * 8, B * Co * T * 8
        # 10% covers the item's padded input and its GEMM rows
        assert peak <= 1.1 * (item_col + out), f"peak {peak / 1e6:.2f} MB"

    @pytest.mark.parametrize("lo,hi", [(3, 3), (4, 2), (-1, 3), (0, 9)])
    def test_bad_row_range_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="output rows"):
            t.conv1d_same(np.zeros((1, 1, 8)), np.zeros((1, 1, 3)), np.zeros(1), lo, hi)


class TestConv2dDilated:
    def test_centered_delta_identity(self):
        x = RNG.standard_normal((1, 1, 6, 6))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = t.conv2d_dilated_raw(x, w, None, 1)
        np.testing.assert_allclose(out, x)

    def test_large_dilation_counts_inbounds_taps(self):
        # taps land at (0,0),(0,7),(7,0),(7,7) for the corner cell
        out = t.conv2d_dilated_raw(np.ones((1, 1, 10, 10)), np.ones((1, 1, 3, 3)), None, 7)
        assert out[0, 0, 0, 0] == 4.0

    def test_offset_tap_shifts_input(self):
        idx = np.arange(36, dtype=float).reshape(1, 1, 6, 6)
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 2, 2] = 1.0
        out = t.conv2d_dilated_raw(idx, w, None, 2)
        np.testing.assert_array_equal(out[0, 0, :4, :4], idx[0, 0, 2:, 2:])
        assert np.all(out[0, 0, 4:, :] == 0) and np.all(out[0, 0, :, 4:] == 0)

    def test_dilation_below_one_rejected(self):
        with pytest.raises(ValueError, match="dilation"):
            t.conv2d_dilated(t.Tensor(np.zeros((1, 1, 4, 4))),
                             t.Tensor(np.zeros((1, 1, 3, 3))), t.Tensor(np.zeros(1)), 0)

    @pytest.mark.parametrize("shape,k,d", [((1, 2, 5, 5), 3, 1), ((2, 3, 7, 7), 3, 2),
                                           ((1, 2, 8, 8), 1, 1)])
    def test_matches_scalar_reference(self, shape, k, d):
        x = RNG.standard_normal(shape)
        w = RNG.standard_normal((3, shape[1], k, k))
        b = RNG.standard_normal(3)
        fast = t.conv2d_dilated_raw(x, w, b, d)
        ref = conv2d_dilated_ref(x, w, b, d)
        scale = max(1.0, np.abs(ref).max())
        assert np.abs(fast - ref).max() <= 1e-12 * scale

    @pytest.mark.parametrize("shape,k,d", [((1, 2, 5, 5), 3, 1), ((2, 2, 6, 6), 3, 2),
                                           ((2, 3, 5, 5), 1, 1)])
    def test_gradients(self, shape, k, d):
        x = t.Tensor(RNG.standard_normal(shape), requires_grad=True)
        w = t.Tensor(RNG.standard_normal((3, shape[1], k, k)) * 0.3, requires_grad=True)
        b = t.Tensor(RNG.standard_normal(3) * 0.2, requires_grad=True)
        err = gc(lambda i: t.tsum(t.square(t.conv2d_dilated(*i, dilation=d))), [x, w, b])
        assert err < 1e-4

    def test_1x1_adjoint_input_gradient_is_owned(self):
        rng = t.init_rng(3)
        x = t.Tensor(rng.standard_normal((2, 3, 4, 5)), requires_grad=True)
        w = rng.standard_normal((6, 3, 1, 1))
        g = rng.standard_normal((2, 6, 4, 5))
        gx, _, _ = t.conv2d_dilated(x, w, np.zeros(6))._backward(g)
        assert gx.base is None and gx.shape == x.shape
        np.testing.assert_allclose(gx, np.einsum("oc,bohw->bchw", w[:, :, 0, 0], g),
                                   rtol=1e-12, atol=1e-12)


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert t.sigmoid(t.Tensor([0.0])).data[0] == 0.5

    def test_sigmoid_bit_equal_to_reference(self):
        x = np.concatenate([[0.0, -0.0, 750.0, -750.0, 709.0, -709.0, 1e-300, -1e-300,
                             36.7, -36.7], t.init_rng(4).standard_normal(1000) * 20.0])
        assert t.sigmoid(t.Tensor(x)).data.tobytes() == sigmoid_ref(x).tobytes()

    def test_relu_values(self):
        out = t.relu(t.Tensor([-1.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 2.0])

    def test_mul(self):
        np.testing.assert_array_equal(t.mul(t.Tensor([2.0]), t.Tensor([3.0])).data, [6.0])

    def test_incompatible_shapes_rejected(self):
        with pytest.raises(ValueError):
            t.add(t.Tensor(np.zeros(3)), t.Tensor(np.zeros(4)))

    @pytest.mark.parametrize("shape", [(4,), (2, 3), (2, 2, 3)])
    def test_gradients(self, shape):
        # keep relu inputs away from the kink
        base = RNG.standard_normal(shape)
        base = np.where(np.abs(base) < 0.05, 0.3, base)
        a = t.Tensor(base, requires_grad=True)
        b = t.Tensor(RNG.standard_normal(shape) + 2.5, requires_grad=True)
        assert gc(lambda i: t.tsum(t.square(t.relu(i[0]))), [a]) < 1e-4
        assert gc(lambda i: t.tsum(t.square(t.sigmoid(i[0]))), [a]) < 1e-4
        assert gc(lambda i: t.tsum(t.mul(i[0], i[1])), [a, b]) < 1e-4
        assert gc(lambda i: t.tsum(t.square(t.add(i[0], i[1]))), [a, b]) < 1e-4
        assert gc(lambda i: t.tsum(t.square(t.sub(i[0], i[1]))), [a, b]) < 1e-4
        assert gc(lambda i: t.tsum(t.square(t.square(i[0]))), [a]) < 1e-4
        assert gc(lambda i: t.tsum(t.log(i[1])), [a, b]) < 1e-4

    def test_broadcast_gradient(self):
        a = t.Tensor(RNG.standard_normal((3, 4)), requires_grad=True)
        b = t.Tensor(RNG.standard_normal((1, 4)), requires_grad=True)
        assert gc(lambda i: t.tsum(t.square(t.mul(i[0], i[1]))), [a, b]) < 1e-4


class TestRepeatToMap:
    def test_start_axis(self):
        out = t.repeat_to_map(t.Tensor([[[1.0, 2.0]]]), "start")
        np.testing.assert_array_equal(out.data[0, 0], [[1.0, 1.0], [2.0, 2.0]])

    def test_end_axis(self):
        out = t.repeat_to_map(t.Tensor([[[1.0, 2.0]]]), "end")
        np.testing.assert_array_equal(out.data[0, 0], [[1.0, 2.0], [1.0, 2.0]])

    def test_adjoint_sums_broadcast_axis(self):
        v = t.Tensor(RNG.standard_normal((1, 1, 3)), requires_grad=True)
        out = t.tsum(t.repeat_to_map(v, "start"))
        out.backward()
        np.testing.assert_array_equal(v.grad, np.full((1, 1, 3), 3.0))

    def test_sum_over_broadcast_axis_returns_t_times_vec(self):
        v = RNG.standard_normal((2, 3, 5))
        out = t.repeat_to_map(t.Tensor(v), "start").data.sum(axis=3)
        np.testing.assert_allclose(out, 5 * v)
        out = t.repeat_to_map(t.Tensor(v), "end").data.sum(axis=2)
        np.testing.assert_allclose(out, 5 * v)

    @pytest.mark.parametrize("shape", [(1, 1, 3), (2, 2, 4), (3, 2, 6)])
    def test_gradients(self, shape):
        for axis in ("start", "end"):
            v = t.Tensor(RNG.standard_normal(shape), requires_grad=True)
            assert gc(lambda i: t.tsum(t.square(t.repeat_to_map(i[0], axis))), [v]) < 1e-4


def batchnorm_lite_oracle(x, state, train, g):
    """The np.var / gamma-scaled-copy form of batchnorm_lite and its adjoint.

    Returns (out, gx, g_gamma, g_beta) for upstream g and updates the
    running statistics of `state` in train mode.
    """
    axes = (0,) + tuple(range(2, x.ndim))
    n = x.size // x.shape[1]
    bshape = (1, -1) + (1,) * (x.ndim - 2)
    if train:
        mean = x.mean(axis=axes)
        var = x.var(axis=axes)
        m = state.momentum
        state.running_mean = (1 - m) * state.running_mean + m * mean
        state.running_var = (1 - m) * state.running_var + m * var
    else:
        mean, var = state.running_mean, state.running_var
    inv_std = 1.0 / np.sqrt(var + state.eps)
    x_hat = (x - mean.reshape(bshape)) * inv_std.reshape(bshape)
    out = state.gamma.data.reshape(bshape) * x_hat + state.beta.data.reshape(bshape)
    g_gamma, g_beta = (g * x_hat).sum(axis=axes), g.sum(axis=axes)
    gs = g * state.gamma.data.reshape(bshape)
    if train:
        gx = (inv_std.reshape(bshape) / n) * (
            n * gs
            - gs.sum(axis=axes).reshape(bshape)
            - x_hat * (gs * x_hat).sum(axis=axes).reshape(bshape)
        )
    else:
        gx = gs * inv_std.reshape(bshape)
    return out, gx, g_gamma, g_beta


class TestBatchNorm:
    def test_train_normalizes(self):
        x = t.Tensor(RNG.standard_normal((8, 3, 10)) * 2.0 + 5.0)
        state = t.BatchNormState(3)
        out = t.batchnorm_lite(x, state, train=True)
        np.testing.assert_allclose(out.data.mean(axis=(0, 2)), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.data.var(axis=(0, 2)), 1.0, atol=1e-3)

    def test_eval_identity_with_unit_stats(self):
        x = t.Tensor(RNG.standard_normal((2, 3, 4)))
        state = t.BatchNormState(3)
        state.eps = 0.0
        out = t.batchnorm_lite(x, state, train=False)
        np.testing.assert_allclose(out.data, x.data)

    def test_affine_law(self):
        x = t.Tensor(RNG.standard_normal((16, 2, 50)))
        state = t.BatchNormState(2)
        state.gamma.data[...] = 2.0
        state.beta.data[...] = 3.0
        out = t.batchnorm_lite(x, state, train=True)
        np.testing.assert_allclose(out.data.mean(axis=(0, 2)), 3.0, atol=1e-12)
        np.testing.assert_allclose(out.data.std(axis=(0, 2)), 2.0, atol=1e-2)

    def test_single_sample_zero_variance_does_not_fail(self):
        x = t.Tensor(np.full((1, 2, 4), 7.0))
        out = t.batchnorm_lite(x, t.BatchNormState(2), train=True)
        assert np.all(np.isfinite(out.data))

    def test_running_stats_update(self):
        x = t.Tensor(RNG.standard_normal((4, 2, 6)) + 10.0)
        state = t.BatchNormState(2, momentum=1.0)
        t.batchnorm_lite(x, state, train=True)
        np.testing.assert_allclose(state.running_mean, x.data.mean(axis=(0, 2)))

    @pytest.mark.parametrize("shape", [(3, 2, 5), (4, 3, 2, 2), (5, 2, 3)])
    def test_gradients(self, shape):
        # read out through a random linear functional; the plain sum of a
        # normalized output is x-invariant by construction
        r = RNG.standard_normal(shape)
        x = t.Tensor(RNG.standard_normal(shape), requires_grad=True)
        state = t.BatchNormState(shape[1])
        state.gamma = t.Tensor(RNG.standard_normal(shape[1]) + 1.5, requires_grad=True)
        state.beta = t.Tensor(RNG.standard_normal(shape[1]), requires_grad=True)
        for train in (True, False):
            err = gc(lambda i: t.tsum(t.mul(t.batchnorm_lite(i[0], state, train), r)),
                     [x, state.gamma, state.beta])
            assert err < 1e-4, f"train={train}"

    # a last cell that stands in for many equal ones, as the far cells of a training map
    @pytest.mark.parametrize("shape,last_count", [((3, 2, 5, 1), 40), ((2, 3, 4), 7)])
    def test_weighted_last_cell_gradients(self, shape, last_count):
        r = RNG.standard_normal(shape)
        x = t.Tensor(RNG.standard_normal(shape), requires_grad=True)
        state = t.BatchNormState(shape[1])
        state.gamma = t.Tensor(RNG.standard_normal(shape[1]) + 1.5, requires_grad=True)
        state.beta = t.Tensor(RNG.standard_normal(shape[1]), requires_grad=True)
        err = gc(lambda i: t.tsum(t.mul(t.batchnorm_lite(i[0], state, True, last_count), r)),
                 [x, state.gamma, state.beta])
        assert err < 1e-4

    def test_weighted_last_cell_equals_its_copies(self):
        # the last cell counting c times is the batch with that cell written out c times;
        # its gradient is the sum of the copies' gradients
        B, C, n, c = 4, 3, 6, 50

        def state():
            s = t.BatchNormState(C)
            s.gamma.data[...] = np.linspace(-1.5, 2.0, C)
            s.beta.data[...] = np.linspace(0.3, -0.4, C)
            return s

        x = RNG.standard_normal((B, C, n, 1)) * 2.0 + 0.7
        dense = np.concatenate([x[:, :, :-1], np.repeat(x[:, :, -1:], c, axis=2)], axis=2)
        g_dense = RNG.standard_normal(dense.shape)
        g = np.concatenate([g_dense[:, :, :n - 1], g_dense[:, :, n - 1:].sum(2, keepdims=True)],
                           axis=2)
        states = [state(), state()]
        out = t.batchnorm_lite(t.Tensor(x, requires_grad=True), states[0], True, c)
        ref = t.batchnorm_lite(t.Tensor(dense, requires_grad=True), states[1], True)
        (gx, g_gamma, g_beta), (rgx, r_gamma, r_beta) = out._backward(g), ref._backward(g_dense)
        rgx = np.concatenate([rgx[:, :, :n - 1], rgx[:, :, n - 1:].sum(2, keepdims=True)], 2)
        for got, want in ((out.data, ref.data[:, :, :n]), (gx, rgx), (g_gamma, r_gamma),
                          (g_beta, r_beta), (states[0].running_mean, states[1].running_mean),
                          (states[0].running_var, states[1].running_var)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    # desk map width, then the published one
    @pytest.mark.parametrize("shape", [(16, 16, 100, 100), (4, 128, 100, 100)])
    @pytest.mark.parametrize("train", [True, False])
    def test_matches_var_oracle(self, shape, train):
        C = shape[1]

        def state():
            rng = t.init_rng(6)
            s = t.BatchNormState(C)
            s.gamma.data[...] = rng.standard_normal(C) + 1.5
            s.beta.data[...] = rng.standard_normal(C)
            s.running_mean = rng.standard_normal(C)
            s.running_var = rng.uniform(0.5, 2.0, C)
            return s

        states = [state(), state()]
        rng = t.init_rng(5)
        x = rng.standard_normal(shape) * 2.0 + 0.7
        g = rng.standard_normal(shape)
        out = t.batchnorm_lite(t.Tensor(x, requires_grad=True), states[0], train)
        gx, g_gamma, g_beta = out._backward(g)
        ref_out, ref_gx, ref_gamma, ref_beta = batchnorm_lite_oracle(x, states[1], train, g)
        assert out.data.tobytes() == ref_out.tobytes()
        assert states[0].running_mean.tobytes() == states[1].running_mean.tobytes()
        assert states[0].running_var.tobytes() == states[1].running_var.tobytes()
        assert g_gamma.tobytes() == ref_gamma.tobytes()
        assert g_beta.tobytes() == ref_beta.tobytes()
        assert np.abs(gx - ref_gx).max() <= 1e-12 * np.abs(ref_gx).max()


def _tail_block(C, Co, seed):
    """A BatchNormState far from identity and a 1x1 conv's w [Co, C, 1, 1], b [Co]."""
    rng = t.init_rng(seed)
    s = t.BatchNormState(C)
    s.gamma.data[...] = rng.uniform(0.3, 2.5, C) * rng.choice([-1.0, 1.0], C)
    s.beta.data[...] = rng.normal(0.0, 0.5, C)
    s.running_mean = rng.normal(0.0, 0.7, C)
    s.running_var = rng.uniform(0.2, 4.0, C)
    w = t.Tensor(rng.standard_normal((Co, C, 1, 1)) * 0.5, requires_grad=True)
    b = t.Tensor(rng.standard_normal(Co) * 0.2, requires_grad=True)
    return s, w, b


def _assert_fused_matches_chain(x, r, train, last_count):
    """relu_bn_conv1x1 on x against relu -> batchnorm_lite -> 1x1 conv2d_dilated, to
    1e-12 relative: output, running buffers and, in train mode, the gradients of x, w,
    b, gamma and beta under the probe r."""
    C, Co = x.shape[1], r.shape[1]
    runs = []
    for fused in (True, False):
        state, w, b = _tail_block(C, Co, seed=32)
        xt = t.Tensor(x.copy(), requires_grad=True)
        if fused:
            out = t.relu_bn_conv1x1(xt, state, w, b, train, last_count)
        else:
            out = t.conv2d_dilated(t.batchnorm_lite(t.relu(xt), state, train, last_count),
                                   w, b)
        if train:
            t.tsum(t.mul(out, r)).backward()
        grads = [p.grad for p in (xt, w, b, state.gamma, state.beta)]
        runs.append((out.data, grads, state.running_mean, state.running_var))
    (out, grads, mean, var), (ref, ref_grads, ref_mean, ref_var) = runs
    assert out.shape == ref.shape
    for got, want in ((out, ref), (mean, ref_mean), (var, ref_var)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    if not train:  # eval builds no graph
        assert all(g is None for g in grads)
        return
    for got, want in zip(grads, ref_grads):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _whole_batch_tail(x3, state, w2, b, last_count, G):
    """The fused block's train statistics, output and adjoint as whole-batch passes
    over the [B, C, cells] block, as an oracle: the per-item sweeps must match it bit
    for bit. Returns (mean, var, out, gx, g_w, g_b, g_gamma, g_beta)."""
    extra = last_count - 1
    n = x3.shape[0] * (x3.shape[2] + extra)
    xc = np.maximum(x3, 0.0)
    mean = (xc.sum(axis=(0, 2)) + extra * xc[:, :, -1].sum(axis=0)) / n
    xc -= mean[:, None]
    sq = xc * xc
    var = (sq.sum(axis=(0, 2)) + extra * sq[:, :, -1].sum(axis=0)) / n
    inv_std = 1.0 / np.sqrt(var + state.eps)
    a = state.gamma.data * inv_std
    out = np.matmul(w2 * a, xc) + (w2 @ state.beta.data + b)[:, None]
    g_b = G.sum(axis=(0, 2))
    mc = np.matmul(G, xc.transpose(0, 2, 1)).sum(axis=0)
    g_gamma = inv_std * (w2 * mc).sum(axis=0)
    g_beta = w2.T @ g_b
    xc *= (-a * inv_std * g_gamma / n)[:, None]
    xc -= (a * g_beta / n)[:, None]
    xc[:, :, -1] *= last_count
    gx = np.matmul((w2 * a).T, G) + xc
    gx *= x3 > 0.0
    return mean, var, out, gx, mc * a + np.outer(g_b, state.beta.data), g_b, g_gamma, g_beta


class TestReluBnConv1x1:
    """The fused tail block against relu -> batchnorm_lite -> 1x1 conv2d_dilated."""

    # packed cells as the map head computes them, then a dense map; an input mean
    # far above its spread checks the centred statistics
    @pytest.mark.parametrize("shape", [(3, 4, 7, 1), (2, 3, 5, 5)], ids=["packed", "dense"])
    @pytest.mark.parametrize("last_count", [1, 9])
    @pytest.mark.parametrize("offset", [0.7, 1000.0])
    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    def test_matches_unfused_chain(self, shape, last_count, offset, train):
        rng = t.init_rng(31)
        x = rng.standard_normal(shape) * 2.0 + offset
        r = rng.standard_normal((shape[0], 5) + shape[2:])
        _assert_fused_matches_chain(x, r, train, last_count)

    # the train branch's per-item sweeps and merged statistics, over batch sizes,
    # stand-in weights and output widths; mean 1000 against spread 2 checks the merge
    @pytest.mark.parametrize("B", [1, 3, 16])
    @pytest.mark.parametrize("last_count", [1, 9, 40])
    @pytest.mark.parametrize("Co", [2, 16])
    @pytest.mark.parametrize("offset", [0.7, 1000.0])
    def test_train_items_match_unfused_chain(self, B, last_count, Co, offset):
        rng = t.init_rng(37)
        x = rng.standard_normal((B, 6, 23, 1)) * 2.0 + offset
        _assert_fused_matches_chain(x, rng.standard_normal((B, Co, 23, 1)), True, last_count)

    @pytest.mark.parametrize("B,Co", [(1, 2), (3, 16), (16, 16)])
    @pytest.mark.parametrize("last_count", [1, 40])
    def test_train_equals_whole_batch_passes_bit_for_bit(self, B, Co, last_count):
        rng = t.init_rng(40)
        x = rng.standard_normal((B, 6, 131, 1)) + 0.3
        g = rng.standard_normal((B, Co, 131, 1))
        state, w, b = _tail_block(6, Co, seed=41)
        m, running = state.momentum, (state.running_mean, state.running_var)
        xt = t.Tensor(x, requires_grad=True)
        out = t.relu_bn_conv1x1(xt, state, w, b, True, last_count)
        got = (out.data.reshape(B, Co, -1),) + out._backward(g)
        mean, var, *want = _whole_batch_tail(x.reshape(B, 6, -1), state, w.data[:, :, 0, 0],
                                             b.data, last_count, g.reshape(B, Co, -1))
        for stat, before, after in zip((mean, var), running,
                                       (state.running_mean, state.running_var)):
            assert np.array_equal(after, (1 - m) * before + m * stat)
        for got_i, want_i in zip(got, want):
            assert np.array_equal(got_i.reshape(want_i.shape), want_i)

    def test_desk_block_allocates_one_item_besides_output_and_gx(self):
        # one desk block: B=16, 16 channels, 6,346 strip cells and the stand-in for the
        # other 3,654. With whole-batch passes, the forward's centred copy and its
        # square and the adjoint's centred copy and relu mask made the peak near 3
        # map-sized arrays on top of the output
        B, C, n_cells, last_count = 16, 16, 6347, 3654
        rng = t.init_rng(38)
        state, w, b = _tail_block(C, 16, seed=39)
        x = t.Tensor(rng.standard_normal((B, C, n_cells, 1)), requires_grad=True)
        g = rng.standard_normal((B, 16, n_cells, 1))
        item = C * n_cells * 8
        tracemalloc.start()
        try:
            out = t.relu_bn_conv1x1(x, state, w, b, True, last_count)
            gx = out._backward(g)[0]
            peak = tracemalloc.get_traced_memory()[1]
            del gx
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        budget = 2 * out.data.nbytes + 2 * item  # the output, gx, O(one item)
        assert peak <= budget, f"peak {peak / 1e6:.1f} MB, budget {budget / 1e6:.1f} MB"
        # the node keeps its output and [C]-sized statistics, no scratch
        assert kept <= out.data.nbytes + item // 8, f"kept {kept / 1e6:.2f} MB"

    @pytest.mark.parametrize("shape,last_count", [((3, 2, 5, 1), 1), ((3, 2, 5, 1), 40),
                                                  ((2, 3, 4, 4), 1), ((2, 3, 4, 4), 6),
                                                  ((1, 3, 6, 1), 9)])
    def test_gradients(self, shape, last_count):
        rng = t.init_rng(33)
        x = rng.standard_normal(shape)
        x = t.Tensor(np.where(np.abs(x) < 0.05, 0.3, x), requires_grad=True)  # off the kink
        state, w, b = _tail_block(shape[1], 3, seed=34)
        r = rng.standard_normal((shape[0], 3) + shape[2:])
        err = gc(lambda i: t.tsum(t.mul(t.relu_bn_conv1x1(i[0], state, i[1], i[2], True,
                                                          last_count), r)),
                 [x, w, b, state.gamma, state.beta])
        assert err < 1e-4

    def test_eval_leaves_input_unchanged_and_builds_no_graph(self):
        state, w, b = _tail_block(3, 4, seed=35)
        x = t.Tensor(RNG.standard_normal((2, 3, 6, 1)), requires_grad=True)
        before = x.data.copy()
        out = t.relu_bn_conv1x1(x, state, w, b, False)
        np.testing.assert_array_equal(x.data, before)
        assert out._parents == () and not out.requires_grad

    def test_wrong_kernel_rejected(self):
        state, _, b = _tail_block(3, 4, seed=36)
        for w in (np.ones((4, 3, 3, 3)), np.ones((4, 2, 1, 1))):
            with pytest.raises(ValueError, match="1x1 kernel over 3 channels"):
                t.relu_bn_conv1x1(np.ones((2, 3, 4, 1)), state, w, b, True)


class TestGatherAssemble:
    def test_take_cells_values_and_accumulation(self):
        m = t.Tensor(RNG.standard_normal((2, 4, 4)), requires_grad=True)
        idx = (np.array([0, 0, 1]), np.array([1, 1, 2]), np.array([3, 3, 2]))
        out = t.take_cells(m, idx)
        np.testing.assert_array_equal(out.data, m.data[idx])
        t.tsum(out).backward()
        assert m.grad[0, 1, 3] == 2.0  # repeated cell accumulates

    def test_take_cells_needs_one_index_per_axis(self):
        m = t.Tensor(RNG.standard_normal((2, 4, 4)), requires_grad=True)
        with pytest.raises(ValueError, match="one index array per axis"):
            t.take_cells(m, (np.array([0, 1]), np.array([2, 3])))

    @pytest.mark.parametrize("shape", [(1, 3, 3), (2, 4, 4), (3, 5, 5)])
    def test_take_cells_gradient(self, shape):
        m = t.Tensor(RNG.standard_normal(shape), requires_grad=True)
        B, T = shape[0], shape[1]
        ss, ee = np.triu_indices(T)
        idx = (np.repeat(np.arange(B), ss.size), np.tile(ss, B), np.tile(ee, B))
        assert gc(lambda i: t.tsum(t.square(t.take_cells(i[0], idx))), [m]) < 1e-4

    @pytest.mark.parametrize("B,C,T", [(1, 1, 4), (2, 2, 5), (2, 3, 7)])
    def test_assemble_band_maps_gradient(self, B, C, T):
        from smbg.net import band_cells, build_masks, BandSpec
        cells = band_cells(build_masks(T, BandSpec([0, 2, T], [3, 3])))
        tensors = [t.Tensor(RNG.standard_normal((B, C, T)), requires_grad=True)
                   for _ in range(4)]
        err = gc(lambda i: t.tsum(t.square(
            t.assemble_band_maps([i[0], i[1]], [i[2], i[3]], cells, T))), tensors)
        assert err < 1e-4


def _band_inputs(B, C, Co, T, edges, k=3, requires_grad=False):
    nb = len(edges) - 1
    seqs = [t.Tensor(RNG.standard_normal((B, C, T)), requires_grad=requires_grad)
            for _ in range(2 * nb)]
    w = t.Tensor(RNG.standard_normal((Co, 2 * C, k, k)), requires_grad=requires_grad)
    b = t.Tensor(RNG.standard_normal(Co), requires_grad=requires_grad)
    return seqs[:nb], seqs[nb:], w, b


def _dense_band_map_conv(starts, ends, edges, w, b, dilation):
    from smbg.net import BandSpec, band_cells, build_masks
    T = starts[0].data.shape[2]
    spec = BandSpec(edges, [1] * (len(edges) - 1))
    f_p = t.assemble_band_maps(starts, ends, band_cells(build_masks(T, spec)), T)
    return t.conv2d_dilated(f_p, w, b, dilation)


BAND_MAP_CASES = [
    (8, [0, 3, 8], 2, 3, 5),
    (8, [0, 8], 1, 2, 4),            # single band
    (8, [0, 1, 2, 8], 4, 2, 3),      # dilation = T/2, one-diagonal bands
    (16, [0, 5, 11, 16], 3, 4, 2),
    (16, [0, 16], 9, 3, 3),          # single band, dilation > T/2
    (16, [0, 4, 16], 15, 2, 5),      # taps reach only the main diagonal
    (100, [0, 17, 33, 57, 100], 7, 3, 4),
    (100, [0, 100], 50, 2, 3),
    (16, [0, 1, 6, 16], 9, 3, 5),    # odd band widths 1, 5, 10; dilation > T/2
]


def _packed_cells(T, strip=0):
    """(rows, cols) of band_map_conv's packed map cells, written out one by one: the
    diagonals d = e - s from 0 up, each by s, then d = -1 down to -strip, each by e."""
    cells = [(s, s + d) for d in range(T) for s in range(T - d)]
    cells += [(e - d, e) for d in range(-1, -strip - 1, -1) for e in range(T + d)]
    rows, cols = zip(*cells)
    return np.array(rows), np.array(cols)


def _strip(T, dilation, k=3):
    """The diagonals below e = s that a k x k tap of `dilation` reaches."""
    return min((k - 1) * dilation, T - 1)


class TestBandMapConv:
    """band_map_conv against the dense assemble_band_maps + conv2d_dilated path."""

    @pytest.mark.parametrize("T,edges,dilation,C,Co", BAND_MAP_CASES)
    def test_matches_dense_on_every_cell(self, T, edges, dilation, C, Co):
        starts, ends, w, b = _band_inputs(2, C, Co, T, edges)
        want = _dense_band_map_conv(starts, ends, edges, w, b, dilation).data
        strip = _strip(T, dilation)
        for lower in (False, True):
            got = t.band_map_conv(starts, ends, edges, w, b, dilation, lower=lower).data
            rows, cols = _packed_cells(T, strip if lower else 0)
            n_far = T * T - rows.size if lower else 0
            assert got.shape == (2, Co, rows.size + (n_far > 0), 1)
            assert np.abs(got[:, :, :rows.size, 0] - want[:, :, rows, cols]).max() <= 1e-12
        # every dense cell below the strip is exactly b, and so is their one stand-in
        s, e = np.indices((T, T))
        np.testing.assert_array_equal(want[:, :, e - s < -strip],
                                      np.broadcast_to(b.data[:, None], (2, Co, n_far)))
        if n_far:
            np.testing.assert_array_equal(got[:, :, -1, 0], np.broadcast_to(b.data, (2, Co)))
        # the strip is not constant: taps reach across the diagonal, down to its last one
        assert np.abs(got[:, :, T * (T + 1) // 2, 0] - b.data).max() > 0
        last = got[:, :, rows.size - (T - strip):rows.size, 0]
        assert np.abs(last - b.data[:, None]).max() > 0

    @pytest.mark.parametrize("T,edges,dilation,C,Co", BAND_MAP_CASES)
    def test_upper_matches_graph_op_on_upper_cells(self, T, edges, dilation, C, Co):
        starts, ends, w, b = _band_inputs(2, C, Co, T, edges)
        want = t.band_map_conv(starts, ends, edges, w, b, dilation, lower=True).data
        # the same [B, C, T] sequences, with every row the trim rule leaves unread spoiled
        read_s = [x.data.copy() for x in starts]
        read_e = [x.data.copy() for x in ends]
        for x_s, x_e, lo in zip(read_s, read_e, edges):
            x_s[:, :, T - lo:] = np.nan
            x_e[:, :, :lo] = np.nan
        got = t.band_map_conv(read_s, read_e, edges, w, b, dilation).data
        np.testing.assert_array_equal(got, want[:, :, :T * (T + 1) // 2])

    def test_upper_cells_packed_by_diagonal(self):
        rows, cols = t.upper_cells(5)
        assert sorted(zip(rows, cols)) == [(s, e) for s in range(5) for e in range(s, 5)]
        assert list(zip(rows, cols))[:7] == [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4),
                                             (0, 1), (1, 2)]
        np.testing.assert_array_equal(np.stack(t.upper_cells(5)),
                                      np.stack(_packed_cells(5)))
        assert not rows.flags.writeable and not cols.flags.writeable

    @pytest.mark.parametrize("T,edges,dilation", [(8, [0, 3, 8], 2), (16, [0, 5, 11, 16], 7),
                                                  (16, [0, 1, 6, 16], 9)])
    def test_adjoint_matches_dense_adjoint(self, T, edges, dilation):
        starts, ends, w, b = _band_inputs(2, 3, 4, T, edges, requires_grad=True)
        leaves = [*starts, *ends, w, b]

        def grads(loss):
            for x in leaves:
                x.zero_grad()
            loss.backward()
            return [x.grad.copy() for x in leaves]

        s, e = np.indices((T, T))
        for lower in (False, True):
            rows, cols = _packed_cells(T, _strip(T, dilation) if lower else 0)
            probe = np.zeros((2, 4, T, T))  # cells the packed output leaves out get none
            probe[:, :, rows, cols] = RNG.standard_normal((2, 4, rows.size))
            packed = probe[:, :, rows, cols]
            far = e - s < -_strip(T, dilation)
            if lower and far.any():
                # the far cells' stand-in carries the gradient of every cell it stands for
                probe[:, :, far] = RNG.standard_normal((2, 4, far.sum()))
                packed = np.concatenate([packed, probe[:, :, far].sum(axis=2)[..., None]], 2)
            out = t.band_map_conv(starts, ends, edges, w, b, dilation, lower=lower)
            got = grads(t.tsum(t.mul(out, packed[..., None])))
            dense = _dense_band_map_conv(starts, ends, edges, w, b, dilation)
            for g, want in zip(got, grads(t.tsum(t.mul(dense, probe)))):
                assert np.abs(g - want).max() <= 1e-12

    @pytest.mark.parametrize("T,edges,dilation", [(6, [0, 2, 6], 2), (7, [0, 7], 4),
                                                  (7, [0, 1, 3, 7], 5),
                                                  (8, [0, 3, 8], 1)])  # 15 far cells
    def test_gradients(self, T, edges, dilation):
        starts, ends, w, b = _band_inputs(2, 2, 3, T, edges, requires_grad=True)
        nb = len(starts)
        probe = RNG.standard_normal(
            t.band_map_conv(starts, ends, edges, w, b, dilation, lower=True).shape)

        def f(i):
            out = t.band_map_conv(i[:nb], i[nb:2 * nb], edges, i[-2], i[-1], dilation,
                                  lower=True)
            return t.tsum(t.mul(t.square(out), probe))

        assert gc(f, [*starts, *ends, w, b]) < 1e-4

    def test_no_grad_builds_no_graph(self):
        starts, ends, w, b = _band_inputs(1, 2, 2, 8, [0, 3, 8], requires_grad=True)
        with t.no_grad():
            out = t.band_map_conv(starts, ends, [0, 3, 8], w, b, 2)
        assert not out.requires_grad and out._backward is None

    def test_bad_inputs_rejected(self):
        starts, ends, w, b = _band_inputs(1, 2, 2, 8, [0, 3, 8])
        with pytest.raises(ValueError, match="band edges"):
            t.band_map_conv(starts, ends, [0, 3, 7], w, b, 2)
        with pytest.raises(ValueError, match="2 bands"):
            t.band_map_conv(starts[:1], ends, [0, 3, 8], w, b, 2)
        with pytest.raises(ValueError, match="channel mismatch"):
            t.band_map_conv(starts, ends, [0, 3, 8], t.Tensor(np.zeros((2, 3, 3, 3))), b, 2)
        with pytest.raises(ValueError, match="dilation"):
            t.band_map_conv(starts, ends, [0, 3, 8], w, b, 0)


class TestScatterUpper:
    """scatter_upper writes the packed cells e >= s into maps; its adjoint gathers them."""

    @pytest.mark.parametrize("n", [15, 25], ids=["upper", "all"])
    def test_writes_upper_cells_and_zeros_the_rest(self, n):
        x = RNG.standard_normal((2, 3, n, 1))
        out = t.scatter_upper(t.Tensor(x), 5).data
        rows, cols = t.upper_cells(5)
        assert out.shape == (2, 3, 5, 5)
        np.testing.assert_array_equal(out[:, :, rows, cols], x[:, :, :15, 0])
        assert np.all(out[:, :, ~np.triu(np.ones((5, 5), dtype=bool))] == 0.0)

    def test_adjoint_is_the_gather(self):
        x = t.Tensor(RNG.standard_normal((2, 2, 16, 1)), requires_grad=True)
        probe = RNG.standard_normal((2, 2, 4, 4))
        t.tsum(t.mul(t.scatter_upper(x, 4), probe)).backward()
        rows, cols = t.upper_cells(4)
        np.testing.assert_array_equal(x.grad[:, :, :10, 0], probe[:, :, rows, cols])
        assert np.all(x.grad[:, :, 10:] == 0.0)
        assert gc(lambda i: t.tsum(t.mul(t.square(t.scatter_upper(i[0], 4)), probe)), [x]) < 1e-4


class TestBackward:
    def test_square_gradient(self):
        x = t.Tensor([3.0], requires_grad=True)
        t.square(x).backward()
        np.testing.assert_allclose(x.grad, [6.0])

    def test_sigmoid_gradient_at_zero(self):
        x = t.Tensor([0.0], requires_grad=True)
        t.sigmoid(x).backward()
        np.testing.assert_allclose(x.grad, [0.25])

    def test_composed_conv_matches_finite_differences(self):
        x = t.Tensor(RNG.standard_normal((2, 2, 6)), requires_grad=True)
        w = t.Tensor(RNG.standard_normal((3, 2, 3)) * 0.5, requires_grad=True)
        b = t.Tensor(RNG.standard_normal(3) * 0.3, requires_grad=True)
        err = gc(lambda i: t.tsum(t.relu(t.conv1d_same(*i))), [x, w, b])
        assert err < 1e-4

    def test_non_scalar_seed_rejected(self):
        x = t.Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            t.add(x, 1.0).backward()

    def test_fanout_accumulates(self):
        x = t.Tensor([2.0], requires_grad=True)
        y = t.add(t.square(x), t.mul(x, 3.0))  # x^2 + 3x -> grad 2x + 3 = 7
        y.backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_wrong_gradient_count_raises(self):
        x = t.Tensor(np.ones(3), requires_grad=True)
        y = t._make(x.data * 2.0, (x,), lambda g: (2.0 * g, 2.0 * g), "two_grads_for_one")
        with pytest.raises(ValueError):
            t.tsum(y).backward()

    def test_owned_gradient_adopted_views_and_repeats_copied(self):
        x = t.Tensor(np.ones((2, 3)), requires_grad=True)
        y = t.Tensor(np.ones((2, 3)), requires_grad=True)
        z = t.Tensor(np.ones((2, 3)), requires_grad=True)
        fresh = []

        def backward(g):
            fresh.append(2.0 * g)
            return fresh[0], g.reshape(2, 3), g

        t.tsum(t._make(x.data + y.data + z.data, (x, y, z), backward, "probe")).backward()
        assert x.grad is fresh[0]
        assert not np.shares_memory(y.grad, z.grad)

        w = t.Tensor(np.ones(3), requires_grad=True)
        v = t.Tensor(np.ones(3), requires_grad=True)
        shared = t._make(w.data + v.data, (w, v), lambda g: (g * 1.0,) * 2, "shared")
        t.tsum(shared).backward()
        assert not np.shares_memory(w.grad, v.grad)
        np.testing.assert_array_equal(w.grad, v.grad)

    @staticmethod
    def _desk_step_graph():
        """The loss of one desk training step (not yet swept) and its graph's nodes."""
        cfg = pl.RunConfig()
        train_ds, *_ = pl.make_benchmark_datasets(0, n_train=cfg.batch_size, n_eval=1,
                                                  channels=cfg.in_channels)
        batch = pl.build_samples(train_ds, cfg)[:cfg.batch_size]
        net = SmbgNet(cfg.model_config(), seed=0)
        outputs = net.forward(t.Tensor(np.stack([b["x"] for b in batch])), train=True)
        g_s, g_e, g_c = (np.stack([b[k] for b in batch]) for k in ("g_s", "g_e", "g_c"))
        loss, _ = losses.total_loss(outputs, g_s, g_e, g_c, cfg.sampling_config(),
                                    beta=cfg.guidance_beta, lam=cfg.confidence_lambda)
        nodes, stack = {}, [loss]
        while stack:
            node = stack.pop()
            if id(node) not in nodes:
                nodes[id(node)] = node
                stack.extend(node._parents)
        return loss, list(nodes.values())

    @staticmethod
    def _received(node, into):
        """Wrap node's adjoint so that the gradient it is handed, its .grad until the
        sweep frees it, is kept in into[id(node)]."""
        adjoint = node._backward

        def backward(g):
            into[id(node)] = g
            return adjoint(g)

        node._backward = backward

    def test_desk_step_adopts_1x1_conv_input_gradients(self):
        loss, nodes = self._desk_step_graph()
        returned, received = {}, {}

        def returning(node, adjoint):
            def backward(g):
                grads = adjoint(g)
                returned[id(node)] = grads[0]
                return grads
            return backward

        blocks = [n for n in nodes if n.op == "relu_bn_conv1x1"]
        assert len(blocks) == 3  # sec_bn1/sec_c1, sec_bn2/sec_c2, sec_bn3/sec_c3
        for n in blocks:
            n._backward = returning(n, n._backward)
            self._received(n._parents[0], received)
        loss.backward()
        for n in blocks:
            # the input's gradient is the array the block's adjoint returned: adopted
            assert received[id(n._parents[0])] is returned[id(n)]

    def test_desk_step_grads_share_no_memory(self):
        loss, nodes = self._desk_step_graph()
        received = {}
        for n in nodes:
            if n._backward is not None:
                self._received(n, received)
        loss.backward()
        # intermediate gradients as their adjoints saw them; the sweep frees them after
        assert all(n.grad is None for n in nodes if n._parents)
        grads = list(received.values()) + [n.grad for n in nodes if n.grad is not None]
        assert len(grads) > 100
        for i, a in enumerate(grads):
            assert not any(np.shares_memory(a, b) for b in grads[i + 1:])
            assert not any(np.shares_memory(a, n.data) for n in nodes)

    def test_deterministic(self):
        def run():
            rng = t.init_rng(7)
            x = t.Tensor(rng.standard_normal((2, 3, 8)), requires_grad=True)
            w = t.Tensor(rng.standard_normal((3, 3, 5)), requires_grad=True)
            b = t.Tensor(np.zeros(3), requires_grad=True)
            loss = t.tsum(t.square(t.relu(t.conv1d_same(x, w, b))))
            loss.backward()
            return x.grad.copy(), w.grad.copy()

        g1, g2 = run(), run()
        assert np.array_equal(g1[0], g2[0]) and np.array_equal(g1[1], g2[1])


class TestGradCheck:
    def test_linear_function_near_zero_error(self):
        x = t.Tensor(RNG.standard_normal(5), requires_grad=True)
        err = t.grad_check(lambda i: t.tsum(t.mul(i[0], 3.0)), [x])
        assert err < 1e-9

    def test_cubic_taylor_bound(self):
        x = t.Tensor([1.0], requires_grad=True)
        err = t.grad_check(lambda i: t.tsum(t.mul(t.mul(i[0], i[0]), i[0])), [x], eps=1e-4)
        assert err < 1e-6


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = t.Tensor(RNG.standard_normal(4), requires_grad=True)
        before = p.data.copy()
        opt = t.AdamState([p], lr=0.1)
        p.grad = np.zeros(4)
        opt.step()
        np.testing.assert_array_equal(p.data, before)

    def test_first_step_magnitude_is_learning_rate(self):
        p = t.Tensor(np.zeros(3), requires_grad=True)
        opt = t.AdamState([p], lr=0.1)
        p.grad = np.ones(3)
        opt.step()
        np.testing.assert_allclose(np.abs(p.data), 0.1, rtol=1e-6)

    def test_constant_gradient_approaches_learning_rate(self):
        p = t.Tensor(np.zeros(1), requires_grad=True)
        opt = t.AdamState([p], lr=0.01)
        deltas = []
        for _ in range(300):
            before = p.data.copy()
            p.grad = np.full(1, 2.5)
            opt.step()
            deltas.append(abs(p.data[0] - before[0]))
        assert abs(deltas[-1] - 0.01) < 1e-3
        assert p.data[0] < 0

    def test_state_roundtrip(self):
        p = t.Tensor(RNG.standard_normal(3), requires_grad=True)
        opt = t.AdamState([p], lr=0.05)
        p.grad = RNG.standard_normal(3)
        opt.step()
        arrays = dict(opt.state_arrays())
        opt2 = t.AdamState([p], lr=0.05)
        opt2.load_state_arrays(arrays)
        assert opt2.step_count == 1
        np.testing.assert_array_equal(opt2.m[0], opt.m[0])


class TestMisc:
    def test_assert_finite(self):
        with pytest.raises(FloatingPointError, match=r"non-finite value in probe at index \(1,\)"):
            t.assert_finite(np.array([1.0, np.nan]), "probe")

    def test_no_grad_skips_graph(self):
        x = t.Tensor([1.0], requires_grad=True)
        with t.no_grad():
            y = t.square(x)
        assert y._parents == () and not y.requires_grad

    def test_tensor_invariant_shape_matches_data(self):
        x = t.Tensor(np.zeros((2, 3)))
        assert x.size == 6 and x.shape == (2, 3)
