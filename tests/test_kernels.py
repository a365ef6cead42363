"""Tests for the CMSIS-NN-style int8 kernels."""

from __future__ import annotations

import contextlib
import functools
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.kernels import (
    CycleCounter,
    KernelStats,
    avg_pool_s8,
    convolve_s8,
    fully_connected_s8,
    im2col_s8,
    max_pool_s8,
    pack_weight_pair,
    pack_weight_vector,
    relu_s8,
    smlad,
    softmax_s8,
    unpack_weight_pair,
)
from repro.core.unpacking import unpack_layer
from repro.kernels import accumulate
from repro.kernels.accumulate import exact_matmul_dtype, prepare_weights
from repro.kernels.conv_s8 import convolve_s8_stacked
import repro.kernels
from repro.kernels import native
from repro.kernels.native import NativeKernels, load_native
from repro.kernels.smlad import smlad_dot
from repro.quant.qlayers import QConv2D, QDense
from repro.quant.schemes import QuantizationParams
from repro.vm.interpreter import execute_layer_interp, execute_layer_turbo
from repro.vm.lower import lower_layer


def naive_convolve_s8(x, weights, bias, in_zp, out_zp, multipliers, stride, padding, act_min, act_max, mask=None):
    """Loop-based reference of the s8 convolution (slow, unquestionably correct)."""
    n, in_h, in_w, in_c = x.shape
    out_c, kh, kw, _ = weights.shape
    sh, sw = stride
    ph, pw = padding
    xp = np.full((n, in_h + 2 * ph, in_w + 2 * pw, in_c), in_zp, dtype=np.int64)
    xp[:, ph : ph + in_h, pw : pw + in_w, :] = x
    out_h = (in_h + 2 * ph - kh) // sh + 1
    out_w = (in_w + 2 * pw - kw) // sw + 1
    out = np.zeros((n, out_h, out_w, out_c), dtype=np.int64)
    w_mat = weights.reshape(out_c, -1).astype(np.int64)
    if mask is not None:
        w_mat = w_mat * mask
    for b in range(n):
        for i in range(out_h):
            for j in range(out_w):
                patch = xp[b, i * sh : i * sh + kh, j * sw : j * sw + kw, :].reshape(-1)
                for c in range(out_c):
                    acc = int(((patch - in_zp) * w_mat[c]).sum())
                    if bias is not None:
                        acc += int(bias[c])
                    value = int(np.rint(acc * multipliers[c])) + out_zp
                    out[b, i, j, c] = np.clip(value, act_min, act_max)
    return out.astype(np.int8)


def naive_fully_connected_s8(x, weights, bias, in_zp, out_zp, multipliers, act_min, act_max, mask=None):
    """Loop-based reference of the s8 fully-connected layer (weights ``(in, out)``)."""
    w_mat = weights.T.astype(np.int64)
    if mask is not None:
        w_mat = w_mat * mask
    out = np.zeros((x.shape[0], w_mat.shape[0]), dtype=np.int64)
    for b in range(x.shape[0]):
        for c in range(w_mat.shape[0]):
            acc = int(((x[b].astype(np.int64) - in_zp) * w_mat[c]).sum())
            if bias is not None:
                acc += int(bias[c])
            value = int(np.rint(acc * multipliers[c])) + out_zp
            out[b, c] = np.clip(value, act_min, act_max)
    return out.astype(np.int8)


class TestSmlad:
    def test_paper_example(self):
        """Section II-B: w1=64, w2=20 packs to 4194324."""
        assert pack_weight_pair(64, 20) == 64 * 2**16 + 20 == 4194324

    @pytest.mark.parametrize("hi,lo", [(0, 0), (127, -128), (-1, 1), (-128, -128), (5, -7)])
    def test_pack_unpack_roundtrip(self, hi, lo):
        assert unpack_weight_pair(pack_weight_pair(hi, lo)) == (hi, lo)

    def test_pack_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            pack_weight_pair(200, 0)

    def test_smlad_accumulates_both_lanes(self):
        packed_w = pack_weight_pair(3, -2)
        packed_x = pack_weight_pair(10, 5)
        assert smlad(packed_w, packed_x, acc=7) == 7 + 3 * 10 + (-2) * 5

    def test_smlad_dot_matches_plain_dot(self, rng):
        w = rng.integers(-127, 128, size=11).astype(np.int8)
        x = rng.integers(-128, 128, size=11).astype(np.int8)
        assert smlad_dot(w, x) == int(w.astype(np.int64) @ x.astype(np.int64))

    def test_pack_weight_vector_pads_odd_lengths(self):
        packed = pack_weight_vector(np.array([1, 2, 3], dtype=np.int8))
        assert packed.shape == (2,)
        assert unpack_weight_pair(int(packed[1])) == (3, 0)

    @given(st.integers(-128, 127), st.integers(-128, 127))
    @settings(max_examples=100, deadline=None)
    def test_pack_unpack_property(self, hi, lo):
        assert unpack_weight_pair(pack_weight_pair(hi, lo)) == (hi, lo)


class TestAccumulate:
    def test_dtype_selection(self):
        assert exact_matmul_dtype(10) == np.float32
        assert exact_matmul_dtype(5000) == np.float64

    @staticmethod
    def _assert_blas_product_exact(a, b):
        """``a @ b.T`` on ``prepare_weights``' compute dtype equals the int64 product."""
        w, _ = prepare_weights(b, None, 0, None)
        np.testing.assert_array_equal(
            a.astype(w.dtype) @ w.T, a.astype(np.int64) @ b.astype(np.int64).T
        )

    def test_integer_matmul_exact_large_k(self, rng):
        # -128/-127 operands: the K=3000 sums pass 2**24 and need float64.
        a = rng.choice(np.array([-128, -127], dtype=np.int8), size=(4, 3000))
        b = rng.choice(np.array([-128, -127], dtype=np.int8), size=(5, 3000))
        self._assert_blas_product_exact(a, b)

    def test_integer_matmul_exact_small_k(self, rng):
        a = rng.integers(-128, 128, size=(7, 64), dtype=np.int8)
        b = rng.integers(-127, 128, size=(3, 64), dtype=np.int8)
        self._assert_blas_product_exact(a, b)


class TestIm2colS8:
    def test_pads_with_zero_point(self):
        x = np.full((1, 2, 2, 1), 5, dtype=np.int8)
        cols = im2col_s8(x, (3, 3), (1, 1), (1, 1), input_zero_point=-9)
        assert (cols[0, 0, 0] == -9).sum() == 5

    def test_requires_int8(self):
        with pytest.raises(TypeError):
            im2col_s8(np.zeros((1, 2, 2, 1), np.int32), (2, 2), (1, 1), (0, 0), 0)

    def test_zero_point_range(self):
        with pytest.raises(ValueError):
            im2col_s8(np.zeros((1, 2, 2, 1), np.int8), (2, 2), (1, 1), (0, 0), 300)


class TestConvolveS8:
    def _setup(self, rng, n=2, h=5, w=5, cin=3, cout=4, k=3, stride=(1, 1), padding=(1, 1)):
        x = rng.integers(-128, 128, size=(n, h, w, cin), dtype=np.int8)
        weights = rng.integers(-127, 128, size=(cout, k, k, cin), dtype=np.int8)
        bias = rng.integers(-500, 500, size=cout).astype(np.int64)
        multipliers = rng.uniform(1e-4, 5e-3, size=cout)
        return x, weights, bias, multipliers, stride, padding

    @pytest.mark.parametrize("stride,padding", [((1, 1), (1, 1)), ((1, 1), (0, 0)), ((2, 2), (1, 1))])
    def test_matches_naive_reference(self, rng, stride, padding):
        x, weights, bias, multipliers, *_ = self._setup(rng)
        out = convolve_s8(x, weights, bias, -3, 4, multipliers, stride, padding, -128, 127)
        expected = naive_convolve_s8(x, weights, bias, -3, 4, multipliers, stride, padding, -128, 127)
        np.testing.assert_array_equal(out, expected)

    def test_masked_matches_naive_masked(self, rng):
        x, weights, bias, multipliers, stride, padding = self._setup(rng)
        mask = rng.random((4, 27)) > 0.5
        out = convolve_s8(x, weights, bias, -3, 4, multipliers, stride, padding, -128, 127, weight_mask=mask)
        expected = naive_convolve_s8(x, weights, bias, -3, 4, multipliers, stride, padding, -128, 127, mask=mask)
        np.testing.assert_array_equal(out, expected)

    def test_all_true_mask_equals_no_mask(self, rng):
        x, weights, bias, multipliers, stride, padding = self._setup(rng)
        full_mask = np.ones((4, 27), dtype=bool)
        a = convolve_s8(x, weights, bias, -3, 4, multipliers, stride, padding)
        b = convolve_s8(x, weights, bias, -3, 4, multipliers, stride, padding, weight_mask=full_mask)
        np.testing.assert_array_equal(a, b)

    def test_fused_relu_clamps_at_zero_point(self, rng):
        x, weights, bias, multipliers, stride, padding = self._setup(rng)
        out_zp = -4
        out = convolve_s8(x, weights, bias, -3, out_zp, multipliers, stride, padding,
                          activation_min=out_zp, activation_max=127)
        assert out.min() >= out_zp

    def test_counter_records_mac_split(self, rng):
        x, weights, bias, multipliers, stride, padding = self._setup(rng, n=1)
        mask = np.zeros((4, 27), dtype=bool)
        mask[:, :10] = True
        counter = CycleCounter()
        convolve_s8(x, weights, bias, -3, 4, multipliers, stride, padding, weight_mask=mask,
                    counter=counter, section="conv_test")
        stats = counter.get("conv_test")
        patches = 1 * 5 * 5
        assert stats.macs == patches * 4 * 10
        assert stats.macs_skipped == patches * 4 * 17
        assert stats.total_mac_slots == patches * 4 * 27
        assert stats.output_elements == patches * 4

    def test_input_validation(self, rng):
        x, weights, bias, multipliers, stride, padding = self._setup(rng)
        with pytest.raises(TypeError):
            convolve_s8(x.astype(np.int32), weights, bias, 0, 0, multipliers)
        with pytest.raises(ValueError):
            convolve_s8(x, weights[:, :, :, :2], bias, 0, 0, multipliers)
        with pytest.raises(ValueError):
            convolve_s8(x, weights, bias[:2], 0, 0, multipliers)
        with pytest.raises(ValueError):
            convolve_s8(x, weights, bias, 0, 0, multipliers, weight_mask=np.ones((2, 2), bool))

    def test_saturation_behaviour(self):
        x = np.full((1, 3, 3, 1), 127, dtype=np.int8)
        weights = np.full((1, 3, 3, 1), 127, dtype=np.int8)
        out = convolve_s8(x, weights, None, 0, 0, np.array([1.0]), (1, 1), (0, 0))
        assert out[0, 0, 0, 0] == 127  # saturated, not wrapped


class TestFullyConnectedS8:
    def test_matches_manual_computation(self, rng):
        x = rng.integers(-128, 128, size=(3, 6), dtype=np.int8)
        weights = rng.integers(-127, 128, size=(6, 4), dtype=np.int8)
        bias = rng.integers(-100, 100, size=4).astype(np.int64)
        multipliers = np.full(4, 2e-3)
        out = fully_connected_s8(x, weights, bias, -2, 1, multipliers)
        acc = (x.astype(np.int64) - (-2)) @ weights.astype(np.int64) + bias
        expected = np.clip(np.rint(acc * multipliers) + 1, -128, 127).astype(np.int8)
        np.testing.assert_array_equal(out, expected)

    def test_mask_equivalent_to_zeroed_weights(self, rng):
        x = rng.integers(-128, 128, size=(2, 8), dtype=np.int8)
        weights = rng.integers(-127, 128, size=(8, 3), dtype=np.int8)
        multipliers = np.full(3, 1e-3)
        mask = rng.random((3, 8)) > 0.4
        masked = fully_connected_s8(x, weights, None, 0, 0, multipliers, weight_mask=mask)
        zeroed = (weights.astype(np.int64) * mask.T).astype(np.int8)
        reference = fully_connected_s8(x, zeroed, None, 0, 0, multipliers)
        np.testing.assert_array_equal(masked, reference)

    def test_counter(self, rng):
        x = rng.integers(-128, 128, size=(5, 8), dtype=np.int8)
        weights = rng.integers(-127, 128, size=(8, 3), dtype=np.int8)
        counter = CycleCounter()
        fully_connected_s8(x, weights, None, 0, 0, np.full(3, 1e-3), counter=counter, section="fc")
        stats = counter.get("fc")
        assert stats.macs == 5 * 24
        assert stats.output_elements == 15

    def test_validation(self, rng):
        x = rng.integers(-128, 128, size=(2, 8), dtype=np.int8)
        weights = rng.integers(-127, 128, size=(8, 3), dtype=np.int8)
        with pytest.raises(TypeError):
            fully_connected_s8(x.astype(np.float32), weights, None, 0, 0, np.ones(3))
        with pytest.raises(ValueError):
            fully_connected_s8(x[:, :4], weights, None, 0, 0, np.ones(3))
        with pytest.raises(ValueError):
            fully_connected_s8(x[0], weights, None, 0, 0, np.ones(3))


def _int8(rng, shape, extreme):
    """Random int8 values; ``extreme`` draws only -128/-127, the largest products."""
    if extreme:
        return rng.choice(np.array([-128, -127], dtype=np.int8), size=shape)
    return rng.integers(-128, 128, size=shape, dtype=np.int8)


def _layer_constants(rng, out_c, k, has_bias, dyadic, extreme):
    """Random int8 weights, optional bias and per-channel multipliers sized to K.

    The multipliers keep most outputs inside the int8 range; ``dyadic``
    rounds them to powers of two, so ``rint`` meets exact .5 ties.
    """
    weights = _int8(rng, (out_c, k), extreme)
    bias = rng.integers(-50_000, 50_000, size=out_c) if has_bias else None
    multipliers = rng.uniform(0.5, 2.0, size=out_c) * 40.0 / (np.sqrt(k) * 5500.0)
    if dyadic:
        multipliers = 2.0 ** np.round(np.log2(multipliers))
    return weights, bias, multipliers


def _random_mask(rng, out_c, k, masked, dead_rows):
    """A random retention mask (``None`` when unmasked) with ``dead_rows`` all-false rows."""
    if not masked:
        return None
    mask = rng.random((out_c, k)) < rng.uniform(0.1, 0.9)
    mask[rng.permutation(out_c)[:dead_rows]] = False
    return mask


def _qparams(zero_point, scale=1.0):
    return QuantizationParams(scale=scale, zero_point=zero_point)


_LAYER_SETTINGS = dict(
    extreme=st.booleans(),
    zero_points=st.tuples(st.integers(-128, 127), st.integers(-128, 127)),
    fused_relu=st.booleans(),
    has_bias=st.booleans(),
    dyadic=st.booleans(),
    masked=st.booleans(),
    dead_rows=st.integers(0, 4),
)


@pytest.fixture(scope="module")
def backends():
    """Context managers putting :mod:`repro.kernels.accumulate` on each backend built here.

    ``native`` (the gather and epilogue of ``native.c``) exists wherever
    ``gcc`` does; ``numpy``, the fallback and the oracle, always.
    """

    @contextlib.contextmanager
    def use(name):
        with pytest.MonkeyPatch.context() as patch:
            if name == "numpy":
                patch.setattr(accumulate, "load_native", lambda: None)
            yield

    names = ("numpy",) if load_native() is None else ("native", "numpy")
    return {name: functools.partial(use, name) for name in names}


class TestDifferentialMAC:
    """Every int8 MAC path agrees bit for bit with the loop reference.

    The paths are the loop reference, the kernel (``QLayer.forward``), the VM
    interpreter and VM turbo on ``lower_layer`` of the same layer and mask;
    the kernel and turbo run on every backend.  K is drawn on both sides of
    the float32/float64 switch of :func:`exact_matmul_dtype` (K >= 1024
    needs float64).
    """

    @given(
        seed=st.integers(0, 2**32 - 1),
        kernel=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        stride=st.tuples(st.integers(1, 2), st.integers(1, 2)),
        padding=st.tuples(st.integers(0, 1), st.integers(0, 1)),
        extent=st.tuples(st.integers(0, 3), st.integers(0, 3)),
        batch=st.integers(1, 2),
        out_c=st.integers(1, 4),
        in_c=st.integers(1, 4),
        large_k=st.booleans(),
        **_LAYER_SETTINGS,
    )
    @settings(max_examples=40, deadline=None)
    def test_conv_paths_agree(
        self, backends, seed, kernel, stride, padding, extent, batch, out_c, in_c, large_k, extreme,
        zero_points, fused_relu, has_bias, dyadic, masked, dead_rows,
    ):
        rng = np.random.default_rng(seed)
        kh, kw = kernel
        padding = (min(padding[0], kh - 1), min(padding[1], kw - 1))
        if large_k:  # K lands within a few kernel areas below or above 1024
            in_c = 1024 // (kh * kw) + in_c - 2
        k = kh * kw * in_c
        in_zp, out_zp = zero_points
        weights, bias, multipliers = _layer_constants(rng, out_c, k, has_bias, dyadic, extreme)
        qlayer = QConv2D(
            "conv", weights.reshape(out_c, kh, kw, in_c), bias, _qparams(in_zp),
            _qparams(0, multipliers), _qparams(out_zp), stride, padding, fused_relu=fused_relu,
        )
        mask = _random_mask(rng, out_c, k, masked, min(dead_rows, out_c))
        x = _int8(rng, (batch, kh + extent[0], kw + extent[1], in_c), extreme)

        expected = naive_convolve_s8(
            x, qlayer.weights, bias, in_zp, out_zp, qlayer.output_multipliers, stride, padding,
            qlayer.activation_min, 127, mask=mask,
        )
        program = lower_layer(qlayer, unpack_layer(qlayer), mask)
        np.testing.assert_array_equal(execute_layer_interp(program, x), expected)
        for name, use in backends.items():
            with use():
                np.testing.assert_array_equal(qlayer.forward(x, weight_mask=mask), expected, err_msg=name)
                np.testing.assert_array_equal(execute_layer_turbo(program, x), expected, err_msg=name)

    @given(
        seed=st.integers(0, 2**32 - 1),
        batch=st.integers(1, 4),
        in_features=st.one_of(st.integers(1, 48), st.integers(1016, 1032)),
        out_features=st.integers(1, 5),
        **_LAYER_SETTINGS,
    )
    # The exactness cases of the former integer_matmul helper: K=64 stays in
    # float32; K=3000 of -128/-127 products sums past 2**24 and needs float64.
    @example(seed=0, batch=7, in_features=64, out_features=3, extreme=False, zero_points=(0, 0),
             fused_relu=False, has_bias=False, dyadic=False, masked=False, dead_rows=0)
    @example(seed=1, batch=4, in_features=3000, out_features=5, extreme=True, zero_points=(-128, 5),
             fused_relu=True, has_bias=True, dyadic=False, masked=False, dead_rows=0)
    @settings(max_examples=40, deadline=None)
    def test_dense_paths_agree(
        self, backends, seed, batch, in_features, out_features, extreme,
        zero_points, fused_relu, has_bias, dyadic, masked, dead_rows,
    ):
        rng = np.random.default_rng(seed)
        in_zp, out_zp = zero_points
        weights, bias, multipliers = _layer_constants(
            rng, out_features, in_features, has_bias, dyadic, extreme
        )
        qlayer = QDense(
            "fc", weights.T, bias, _qparams(in_zp), _qparams(0, multipliers), _qparams(out_zp),
            fused_relu=fused_relu,
        )
        mask = _random_mask(rng, out_features, in_features, masked, min(dead_rows, out_features))
        x = _int8(rng, (batch, in_features), extreme)

        # The BLAS accumulation in the exact compute dtype equals the int64 one.
        w, init = prepare_weights(weights, mask, in_zp, bias)
        retained = weights.astype(np.int64) * (True if mask is None else mask)
        np.testing.assert_array_equal(x.astype(w.dtype) @ w.T, x.astype(np.int64) @ retained.T)
        np.testing.assert_array_equal(
            init, (0 if bias is None else bias) - in_zp * retained.sum(axis=1)
        )

        expected = naive_fully_connected_s8(
            x, qlayer.weights, bias, in_zp, out_zp, qlayer.output_multipliers,
            qlayer.activation_min, 127, mask=mask,
        )
        program = lower_layer(qlayer, unpack_layer(qlayer), mask)
        np.testing.assert_array_equal(execute_layer_interp(program, x), expected)
        for name, use in backends.items():
            with use():
                np.testing.assert_array_equal(qlayer.forward(x, weight_mask=mask), expected, err_msg=name)
                np.testing.assert_array_equal(execute_layer_turbo(program, x), expected, err_msg=name)


class TestBlockedConvolution:
    """Block boundaries of the blocked conv loop change no bit on any path.

    ``PATCH_BLOCK_BYTES`` is shrunk to a few images (a batch that is not a
    multiple of the block) or below one image (one image per block), on both
    sides of the float32/float64 switch.  The VM interpreter keeps its
    whole-batch int64 patches and is the unblocked reference.  Every case
    runs on every backend.
    """

    @staticmethod
    def spy_on_gather(monkeypatch, backend):
        """Record the images of every block the backend's gather is called on."""
        gathered = []
        owner, name = (accumulate, "im2col_s8") if backend == "numpy" else (load_native(), "gather")
        gather = getattr(owner, name)

        def spy(images, *args, **kwargs):
            gathered.append(images.shape[0])
            return gather(images, *args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
        return gathered

    @pytest.mark.parametrize("in_c", [3, 114])  # K = 27 (float32) and 1026 (float64)
    @pytest.mark.parametrize("images_per_block", [3, 0])  # 0: budget below one image
    def test_paths_agree_and_blocks_bound_im2col(
        self, rng, monkeypatch, backends, in_c, images_per_block
    ):
        batch, out_c, kernel, stride, padding, in_zp, out_zp = 7, 5, (3, 3), (1, 2), (1, 1), -3, 4
        k = kernel[0] * kernel[1] * in_c
        weights, bias, multipliers = _layer_constants(rng, out_c, k, True, False, False)
        qlayer = QConv2D(
            "conv", weights.reshape(out_c, *kernel, in_c), bias, _qparams(in_zp),
            _qparams(0, multipliers), _qparams(out_zp), stride, padding, fused_relu=True,
        )
        mask = _random_mask(rng, out_c, k, True, 1)
        x = _int8(rng, (batch, 6, 7, in_c), False)
        out_h, out_w, _ = qlayer.output_shape(x.shape[1:])
        # One image's patches and accumulator, the two buffers a block holds.
        image_bytes = out_h * out_w * (k + out_c) * exact_matmul_dtype(k).itemsize
        budget = images_per_block * image_bytes if images_per_block else image_bytes - 1
        monkeypatch.setattr(accumulate, "PATCH_BLOCK_BYTES", budget)

        expected = naive_convolve_s8(
            x, qlayer.weights, bias, in_zp, out_zp, qlayer.output_multipliers, stride, padding,
            qlayer.activation_min, 127, mask=mask,
        )
        program = lower_layer(qlayer, unpack_layer(qlayer), mask)
        np.testing.assert_array_equal(execute_layer_interp(program, x), expected)
        blocks = [3, 3, 1] if images_per_block else [1] * batch
        for name, use in backends.items():
            with use(), pytest.MonkeyPatch.context() as patch:
                gathered = self.spy_on_gather(patch, name)
                out = convolve_s8(
                    x, qlayer.weights, bias, in_zp, out_zp, qlayer.output_multipliers, stride,
                    padding, qlayer.activation_min, 127, weight_mask=mask,
                )
                np.testing.assert_array_equal(out, expected, err_msg=name)
                np.testing.assert_array_equal(execute_layer_turbo(program, x), expected, err_msg=name)
            # convolve_s8 then turbo, each one gather call per block, none over a block.
            assert gathered == blocks * 2, name

    @pytest.mark.parametrize(
        "batch, in_c, stride, padding, sliced, scalar_multiplier, act_min",
        [
            pytest.param(0, 3, (1, 1), (1, 1), False, False, -128, id="batch-0"),
            pytest.param(3, 4, (1, 1), (1, 0), True, False, -128, id="channel-sliced-input"),
            pytest.param(2, 120, (1, 1), (1, 1), False, False, -128, id="float64-k1080"),
            pytest.param(3, 3, (1, 2), (2, 0), False, False, -128, id="stride-1x2-pad-2x0"),
            pytest.param(2, 5, (2, 1), (0, 1), False, True, -128, id="scalar-multiplier"),
            pytest.param(2, 4, (1, 1), (1, 1), False, False, -20, id="activation-min-above-int8"),
        ],
    )
    def test_edge_cases_match_reference(
        self, backends, batch, in_c, stride, padding, sliced, scalar_multiplier, act_min
    ):
        rng = np.random.default_rng([batch, in_c, act_min + 128])
        out_c, kernel, in_zp, out_zp = 4, (3, 3), 7, -2
        k = kernel[0] * kernel[1] * in_c
        weights, bias, multipliers = _layer_constants(rng, out_c, k, True, False, False)
        if scalar_multiplier:
            multipliers = float(multipliers[0])
        weights = weights.reshape(out_c, *kernel, in_c)
        x = _int8(rng, (batch, 6, 7, 2 * in_c if sliced else in_c), False)
        if sliced:  # every other channel: a strided, non-contiguous view
            x = x[..., ::2]
        expected = naive_convolve_s8(
            x, weights, bias, in_zp, out_zp, np.broadcast_to(multipliers, (out_c,)), stride,
            padding, act_min, 127,
        )
        if act_min > -128:  # the case exercises the clamp
            assert (expected == act_min).any()
        for name, use in backends.items():
            with use():
                out = convolve_s8(
                    x, weights, bias, in_zp, out_zp, multipliers, stride, padding, act_min, 127
                )
            assert out.shape == expected.shape, name
            np.testing.assert_array_equal(out, expected, err_msg=name)


class TestStackedConvolution:
    """D stacked weight sets share one gather and one product, and change no bit.

    ``convolve_s8_stacked`` runs one layer under D masks (an unmasked set,
    random masks and, from D = 3 on, two equal masks) with ``PATCH_BLOCK_BYTES``
    cut to a few images or below one, so blocks split the batch unevenly.
    Every ``out[d]`` must equal the loop reference and ``convolve_s8`` with
    that mask, on every backend: the stacked sets reach the epilogue as
    strided column slices, a single set as contiguous rows.
    """

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_sets=st.integers(1, 4),
        kernel=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        stride=st.tuples(st.integers(1, 2), st.integers(1, 2)),
        padding=st.tuples(st.integers(0, 2), st.integers(0, 2)),
        extent=st.tuples(st.integers(0, 4), st.integers(0, 4)),
        batch=st.integers(1, 3),
        out_c=st.sampled_from([1, 3, 16, 26]),
        large_k=st.booleans(),
        images_per_block=st.integers(0, 2),  # 0: a budget below one image
    )
    @settings(max_examples=30, deadline=None)
    def test_each_set_matches_its_own_convolution(
        self, backends, seed, n_sets, kernel, stride, padding, extent, batch, out_c, large_k,
        images_per_block,
    ):
        rng = np.random.default_rng(seed)
        kh, kw = kernel
        padding = (min(padding[0], kh - 1), min(padding[1], kw - 1))
        in_c = 1024 // (kh * kw) + 2 if large_k else int(rng.integers(1, 5))
        k = kh * kw * in_c
        assert exact_matmul_dtype(k) == (np.float64 if large_k else np.float32)
        in_zp, out_zp = (int(v) for v in rng.integers(-128, 128, size=2))
        weights, bias, multipliers = _layer_constants(rng, out_c, k, True, False, False)
        weights = weights.reshape(out_c, kh, kw, in_c)
        masks = [None] + [_random_mask(rng, out_c, k, True, 0) for _ in range(n_sets - 1)]
        if n_sets >= 3:
            masks[2] = masks[1].copy()
        x = _int8(rng, (batch, kh + extent[0], kw + extent[1], in_c), False)
        args = (x, weights, bias, in_zp, out_zp, multipliers, stride, padding, -128, 127)

        expected = np.stack([naive_convolve_s8(*args, mask=mask) for mask in masks])
        out_h, out_w = expected.shape[2:4]
        image_bytes = out_h * out_w * (k + n_sets * out_c) * exact_matmul_dtype(k).itemsize
        budget = images_per_block * image_bytes if images_per_block else image_bytes - 1
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(accumulate, "PATCH_BLOCK_BYTES", budget)
            for name, use in backends.items():
                with use():
                    stacked = convolve_s8_stacked(*args, weight_masks=masks)
                    singles = [convolve_s8(*args, weight_mask=mask) for mask in masks]
                np.testing.assert_array_equal(stacked, expected, err_msg=name)
                np.testing.assert_array_equal(np.stack(singles), expected, err_msg=name)

    def test_rejects_mismatched_stacks(self):
        x = np.zeros((1, 4, 4, 2), dtype=np.int8)
        weights = np.ones((3, 2, 2, 2), dtype=np.int8)
        with pytest.raises(ValueError, match="at least one"):
            convolve_s8_stacked(x, weights, None, 0, 0, np.ones(3), weight_masks=[])
        with pytest.raises(ValueError, match="weight_mask shape"):
            convolve_s8_stacked(x, weights, None, 0, 0, np.ones(3), weight_masks=[None, np.ones((3, 7), bool)])
        with pytest.raises(ValueError, match="stack"):
            accumulate.convolve_blocked(
                x, (2, 2), (1, 1), (0, 0), 0, np.ones((5, 8), np.float32), np.zeros((2, 3)),
                np.ones(3), 0, -128, 127,
            )


class TestNativeKernels:
    """The native backend is built wherever gcc is, and never falls back silently."""

    def test_active_wherever_gcc_is(self, monkeypatch):
        if shutil.which("gcc") is None:
            pytest.skip("no gcc on this host")
        rng = np.random.default_rng(0)
        kernels = accumulate.load_native()
        assert isinstance(kernels, NativeKernels)
        calls = []

        def record(name):
            kernel = getattr(kernels, name)

            def recorded(*args, **kwargs):
                calls.append(name)
                return kernel(*args, **kwargs)

            monkeypatch.setattr(kernels, name, recorded)

        record("gather")
        record("requantize")
        x = rng.integers(-128, 128, size=(2, 6, 6, 3), dtype=np.int8)
        conv_weights = rng.integers(-127, 128, size=(4, 3, 3, 3), dtype=np.int8)
        dense_weights = rng.integers(-127, 128, size=(108, 4), dtype=np.int8)
        convolve_s8(x, conv_weights, None, 0, 0, np.full(4, 1e-3))
        fully_connected_s8(x.reshape(2, -1), dense_weights, None, 0, 0, np.full(4, 1e-3))
        assert calls == ["gather", "requantize", "requantize"]

    def test_rejects_buffers_it_cannot_write_through(self):
        kernels = load_native()
        if kernels is None:
            pytest.skip("no gcc on this host")
        x = np.zeros((2, 5, 5, 3), dtype=np.int8)
        cols = np.empty((2 * 9, 27), dtype=np.float32)  # 3x3 kernel -> 3x3 positions
        kernels.gather(x, (3, 3), (1, 1), (0, 0), 0, cols)
        with pytest.raises(ValueError, match="shape"):
            kernels.gather(x, (3, 3), (1, 1), (0, 0), 0, cols[:-1])
        with pytest.raises(ValueError, match="C-contiguous"):
            kernels.gather(x[..., ::2], (3, 3), (1, 1), (0, 0), 0, cols[:, :18])
        with pytest.raises(TypeError):
            kernels.gather(x, (3, 3), (1, 1), (0, 0), 0, cols.astype(np.float16))
        acc = np.zeros((4, 6), dtype=np.float64)
        out = np.empty((4, 6), dtype=np.int8)
        kernels.requantize(acc, 0.0, 1.0, 0, -128, 127, out)
        read_only = out.copy()
        read_only.flags.writeable = False
        for bad in (out[::-1], read_only, out.astype(np.int16)):
            with pytest.raises(ValueError, match="C-contiguous writeable int8"):
                kernels.requantize(acc, 0.0, 1.0, 0, -128, 127, bad)
        with pytest.raises(ValueError, match="activation range"):
            kernels.requantize(acc, 0.0, 1.0, 0, 5, 4, out)
        # A column slice of a wider accumulator is read in place; spread-out channels are refused.
        wide = np.arange(4 * 12, dtype=np.float64).reshape(4, 12)
        kernels.requantize(wide[:, 6:], 0.0, 1.0, 0, -128, 127, out)
        np.testing.assert_array_equal(out, wide[:, 6:])
        with pytest.raises(ValueError, match="adjacent channels"):
            kernels.requantize(wide[:, ::2], 0.0, 1.0, 0, -128, 127, out)

    def test_concurrent_first_builds_load_one_library(self, tmp_path):
        if shutil.which("gcc") is None:
            pytest.skip("no gcc on this host")
        # Each process prints its library's path and the digests of one
        # conv's output on the native backend and on NumPy.
        script = (
            "import hashlib, numpy as np\n"
            "from repro.kernels import accumulate\n"
            "from repro.kernels.conv_s8 import convolve_s8\n"
            "rng = np.random.default_rng(0)\n"
            "x = rng.integers(-128, 128, (4, 9, 9, 3), dtype=np.int8)\n"
            "w = rng.integers(-127, 128, (5, 3, 3, 3), dtype=np.int8)\n"
            "def digest():\n"
            "    out = convolve_s8(x, w, None, 3, -1, np.full(5, 0.01), padding=(1, 1))\n"
            "    return hashlib.sha256(out.tobytes()).hexdigest()\n"
            "native = accumulate.load_native()\n"
            "on_native = digest()\n"
            "accumulate.load_native = lambda: None\n"
            "print(native.path, on_native, digest())\n"
        )
        src = str(Path(native.__file__).resolve().parents[2])
        env = {**os.environ, "REPRO_CACHE_DIR": str(tmp_path),
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        procs = [
            subprocess.Popen([sys.executable, "-c", script], env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
            for _ in range(2)
        ]
        results = [proc.communicate(timeout=120) for proc in procs]
        assert [proc.returncode for proc in procs] == [0, 0], [err for _, err in results]
        first, second = (out.split() for out, _ in results)
        assert first == second
        assert first[1] == first[2]  # native and NumPy agree
        # One complete library, no temporary file left behind.
        assert [p.name for p in (tmp_path / "native").iterdir()] == [Path(first[0]).name]

    def test_broken_source_raises_instead_of_falling_back(self, tmp_path, monkeypatch):
        if shutil.which("gcc") is None:
            pytest.skip("no gcc on this host")
        broken = tmp_path / "native.c"
        broken.write_text(native.SOURCE.read_text() + "\nint broken(void) { return }\n")
        monkeypatch.setattr(native, "SOURCE", broken)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        with pytest.raises(RuntimeError, match="building native.c failed"):
            native.build_library(shutil.which("gcc"))
        assert list((tmp_path / "cache" / "native").iterdir()) == []

    def test_source_ships_inside_the_package(self):
        assert native.SOURCE.is_file()
        assert native.SOURCE.resolve().parent == Path(repro.kernels.__file__).resolve().parent


class TestPoolingS8:
    def test_max_pool_values(self):
        x = np.arange(16, dtype=np.int8).reshape(1, 4, 4, 1)
        out = max_pool_s8(x, (2, 2), (2, 2))
        np.testing.assert_array_equal(out[0, :, :, 0], [[5, 7], [13, 15]])

    def test_avg_pool_rounds(self):
        x = np.array([[1, 2], [3, 5]], dtype=np.int8).reshape(1, 2, 2, 1)
        out = avg_pool_s8(x, (2, 2), (2, 2))
        assert out[0, 0, 0, 0] == 3  # round(11/4) = 3

    @pytest.mark.parametrize("func", [max_pool_s8, avg_pool_s8])
    def test_requires_int8(self, func):
        with pytest.raises(TypeError):
            func(np.zeros((1, 4, 4, 1), np.float32), (2, 2), (2, 2))

    @pytest.mark.parametrize("func", [max_pool_s8, avg_pool_s8])
    def test_counter_populated(self, func, rng):
        x = rng.integers(-128, 128, size=(2, 8, 8, 3), dtype=np.int8)
        counter = CycleCounter()
        func(x, (2, 2), (2, 2), counter=counter, section="pool")
        assert counter.get("pool").output_elements == 2 * 4 * 4 * 3


class TestActivationKernels:
    def test_relu_clamps_to_zero_point(self, rng):
        x = rng.integers(-128, 128, size=(4, 4), dtype=np.int8)
        out = relu_s8(x, zero_point=-5)
        assert out.min() >= -5
        np.testing.assert_array_equal(out[x >= -5], x[x >= -5])

    def test_relu_validation(self):
        with pytest.raises(TypeError):
            relu_s8(np.zeros((2, 2), np.float32), 0)
        with pytest.raises(ValueError):
            relu_s8(np.zeros((2, 2), np.int8), 500)

    def test_softmax_argmax_preserved(self, rng):
        x = rng.integers(-128, 128, size=(6, 10), dtype=np.int8)
        out = softmax_s8(x, input_scale=0.1)
        np.testing.assert_array_equal(out.argmax(axis=-1), x.argmax(axis=-1))

    def test_softmax_validation(self):
        with pytest.raises(ValueError):
            softmax_s8(np.zeros((2, 3), np.int8), input_scale=0)
        with pytest.raises(TypeError):
            softmax_s8(np.zeros((2, 3), np.float32), input_scale=0.1)


class TestCycleCounter:
    def test_merge_and_total(self):
        counter = CycleCounter()
        counter.record("a", KernelStats(macs=10, output_elements=2))
        counter.record("a", KernelStats(macs=5, macs_skipped=3))
        counter.record("b", KernelStats(comparisons=7))
        assert counter.get("a").macs == 15
        assert counter.get("a").macs_skipped == 3
        assert counter.total().macs == 15
        assert counter.total().comparisons == 7
        assert len(counter) == 2
        assert "a" in counter and "c" not in counter

    def test_sections_preserve_order(self):
        counter = CycleCounter()
        for name in ("conv1", "pool1", "conv2"):
            counter.record(name, KernelStats(macs=1))
        assert [name for name, _ in counter.sections()] == ["conv1", "pool1", "conv2"]

    def test_reset(self):
        counter = CycleCounter()
        counter.record("a", KernelStats(macs=1))
        counter.reset()
        assert len(counter) == 0
        assert counter.get("a") is None

    def test_stats_as_dict(self):
        stats = KernelStats(macs=3, macs_skipped=1)
        payload = stats.as_dict()
        assert payload["macs"] == 3 and payload["macs_skipped"] == 1
        assert stats.total_mac_slots == 4
