"""Parity suite for the fused/compiled convolution kernels.

The compute-saturation engine (``repro.nn.kernels``) promises that the
fused col2im scatter and the single-image weight-gradient GEMM collapse are
**bit-identical** to the reference paths — float64 exactly, and float32
exactly too (the fusions never reassociate an IEEE operation, they only
skip buffer traffic).  This suite pins that promise across seeded random
geometries (stride/padding/dilation/odd shapes), both dtypes, the flag
round-trips, the stacked pre-PR-5 reproduction, and a numerical gradcheck
through the fused path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    Conv2d,
    ConvTranspose2d,
    check_layer_input_gradient,
    check_layer_parameter_gradients,
    compiled_kernels_disabled,
    compiled_kernels_enabled,
    max_relative_error,
    workspaces_disabled,
)
from repro.nn.functional import col2im, conv_output_size
from repro.nn.kernels import fused_col2im, grad_weight_gemm


def random_geometries(seed: int, count: int):
    """Seeded random (n, c, h, w, kh, kw, stride, padding, dilation) tuples."""
    rng = np.random.default_rng(seed)
    produced = 0
    while produced < count:
        kh, kw = (int(v) for v in rng.integers(1, 6, 2))
        stride = int(rng.integers(1, 4))
        padding = int(rng.integers(0, 4))
        dilation = int(rng.integers(1, 3))
        h = int(rng.integers(1, 17))
        w = int(rng.integers(1, 17))
        n = int(rng.integers(1, 4))
        c = int(rng.integers(1, 4))
        try:
            conv_output_size(h, kh, stride, padding, dilation)
            conv_output_size(w, kw, stride, padding, dilation)
        except ValueError:
            continue  # geometry produces an empty output; not a valid conv
        produced += 1
        yield n, c, h, w, kh, kw, stride, padding, dilation


class TestFusedCol2im:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bit_identical_to_reference_across_geometries(self, dtype):
        rng = np.random.default_rng(7)
        for n, c, h, w, kh, kw, stride, padding, dilation in random_geometries(11, 40):
            out_h = conv_output_size(h, kh, stride, padding, dilation)
            out_w = conv_output_size(w, kw, stride, padding, dilation)
            cols = rng.standard_normal((n, c * kh * kw, out_h * out_w)).astype(dtype)
            fused = col2im(cols, (n, c, h, w), kh, kw, stride, padding, dilation)
            with compiled_kernels_disabled():
                reference = col2im(cols, (n, c, h, w), kh, kw, stride, padding, dilation)
            assert fused.dtype == reference.dtype == dtype
            # Bit-identity, not allclose: the fusion must not change a
            # single IEEE operation.
            assert np.array_equal(fused, reference, equal_nan=True), (
                n, c, h, w, kh, kw, stride, padding, dilation, dtype,
            )

    def test_float64_matches_pre_pr5_bincount_path(self):
        # compiled_kernels_disabled() + workspaces_disabled() is the pre-PR-5
        # engine (float64 bincount scatter); the fused default must still
        # reproduce it bit for bit in float64.
        rng = np.random.default_rng(13)
        for n, c, h, w, kh, kw, stride, padding, dilation in random_geometries(17, 15):
            out_h = conv_output_size(h, kh, stride, padding, dilation)
            out_w = conv_output_size(w, kw, stride, padding, dilation)
            cols = rng.standard_normal((n, c * kh * kw, out_h * out_w))
            fused = col2im(cols, (n, c, h, w), kh, kw, stride, padding, dilation)
            with compiled_kernels_disabled(), workspaces_disabled():
                historical = col2im(cols, (n, c, h, w), kh, kw, stride, padding, dilation)
            assert np.array_equal(fused, historical)

    def test_direct_kernel_matches_col2im_dispatch(self):
        # fused_col2im is also callable directly (ConvTranspose2d forward
        # uses the same dispatch); pin the raw kernel too.
        rng = np.random.default_rng(3)
        n, c, h, w, kh, kw, stride, padding, dilation = 2, 3, 9, 7, 3, 5, 2, 3, 1
        out_h = conv_output_size(h, kh, stride, padding, dilation)
        out_w = conv_output_size(w, kw, stride, padding, dilation)
        cols = rng.standard_normal((n, c * kh * kw, out_h * out_w))
        direct = fused_col2im(cols, (n, c, h, w), kh, kw, out_h, out_w, stride, padding, dilation)
        via_dispatch = col2im(cols, (n, c, h, w), kh, kw, stride, padding, dilation)
        assert np.array_equal(direct, via_dispatch)

    def test_zero_padding_geometry(self):
        # padding=0 means no tap is ever clipped; the fused path must still
        # agree exactly.
        rng = np.random.default_rng(5)
        n, c, h, w, kh, kw = 2, 2, 8, 8, 3, 3
        out_h = conv_output_size(h, kh, 1, 0, 1)
        cols = rng.standard_normal((n, c * kh * kw, out_h * out_h))
        fused = col2im(cols, (n, c, h, w), kh, kw, 1, 0, 1)
        with compiled_kernels_disabled():
            reference = col2im(cols, (n, c, h, w), kh, kw, 1, 0, 1)
        assert np.array_equal(fused, reference)


class TestGradWeightGemm:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_single_image_collapse_is_bit_identical(self, dtype):
        rng = np.random.default_rng(23)
        for out_channels, ck, length in ((4, 18, 25), (1, 1, 1), (7, 150, 196)):
            grad_flat = rng.standard_normal((1, out_channels, length)).astype(dtype)
            cols = rng.standard_normal((1, ck, length)).astype(dtype)
            collapsed = grad_weight_gemm(grad_flat, cols)
            with compiled_kernels_disabled():
                reference = grad_weight_gemm(grad_flat, cols)
            assert collapsed.shape == (out_channels, ck)
            assert np.array_equal(collapsed, reference)

    def test_staged_variant_matches_unstaged(self):
        rng = np.random.default_rng(29)
        for n in (1, 3):
            grad_flat = rng.standard_normal((n, 4, 10))
            cols = rng.standard_normal((n, 6, 10))
            stage = np.empty((n, 4, 6))
            staged = grad_weight_gemm(grad_flat, cols, stage=stage)
            unstaged = grad_weight_gemm(grad_flat, cols)
            assert np.array_equal(np.asarray(staged), unstaged)

    def test_multi_image_batches_keep_reference_form(self):
        # Batches larger than one must not be collapsed (that would
        # reassociate the per-image partial sums); enabled and disabled
        # paths are literally the same computation.
        rng = np.random.default_rng(31)
        grad_flat = rng.standard_normal((4, 5, 12))
        cols = rng.standard_normal((4, 9, 12))
        enabled = grad_weight_gemm(grad_flat, cols)
        with compiled_kernels_disabled():
            disabled = grad_weight_gemm(grad_flat, cols)
        assert np.array_equal(enabled, disabled)


class TestLayerParity:
    @pytest.mark.parametrize("dtype_name", ["float64", "float32"])
    @pytest.mark.parametrize("batch", [1, 2])
    def test_conv2d_full_step_bit_identity(self, dtype_name, batch):
        fused = Conv2d(3, 5, 3, stride=1, padding=2, dilation=2, rng=np.random.default_rng(41))
        reference = Conv2d(3, 5, 3, stride=1, padding=2, dilation=2, rng=np.random.default_rng(41))
        if dtype_name == "float32":
            fused.set_compute_dtype(np.float32)
            reference.set_compute_dtype(np.float32)
        x = np.random.default_rng(43).standard_normal((batch, 3, 11, 11))
        grad = np.random.default_rng(44).standard_normal(fused(x).shape)
        grad_in_fused = fused.backward(grad)
        with compiled_kernels_disabled():
            reference(x)
            grad_in_reference = reference.backward(grad)
        assert np.array_equal(grad_in_fused, grad_in_reference)
        assert np.array_equal(fused.weight.grad, reference.weight.grad)
        assert np.array_equal(fused.bias.grad, reference.bias.grad)

    @pytest.mark.parametrize("batch", [1, 3])
    def test_conv_transpose2d_full_step_bit_identity(self, batch):
        fused = ConvTranspose2d(4, 2, 4, stride=2, padding=1, rng=np.random.default_rng(47))
        reference = ConvTranspose2d(4, 2, 4, stride=2, padding=1, rng=np.random.default_rng(47))
        x = np.random.default_rng(48).standard_normal((batch, 4, 6, 6))
        grad = np.random.default_rng(49).standard_normal(fused(x).shape)
        grad_in_fused = fused.backward(grad)
        with compiled_kernels_disabled():
            reference(x)
            grad_in_reference = reference.backward(grad)
        assert np.array_equal(grad_in_fused, grad_in_reference)
        assert np.array_equal(fused.weight.grad, reference.weight.grad)
        assert np.array_equal(fused.bias.grad, reference.bias.grad)

    def test_gradcheck_through_fused_path(self):
        # The fused backward must agree with numerical differentiation, not
        # just with the reference implementation.  batch=1 also drives the
        # grad_weight GEMM collapse through the numerical check.
        assert compiled_kernels_enabled()
        layer = Conv2d(2, 3, 3, stride=2, padding=1, rng=np.random.default_rng(53))
        x = np.random.default_rng(54).standard_normal((1, 2, 7, 7))
        analytic, numeric = check_layer_input_gradient(layer, x)
        assert max_relative_error(analytic, numeric) < 1e-6
        for name, (analytic, numeric) in check_layer_parameter_gradients(layer, x).items():
            assert max_relative_error(analytic, numeric) < 1e-6, name


class TestFlags:
    def test_flag_round_trip(self):
        assert compiled_kernels_enabled()
        with compiled_kernels_disabled():
            assert not compiled_kernels_enabled()
            with compiled_kernels_disabled():
                assert not compiled_kernels_enabled()
            assert not compiled_kernels_enabled()
        assert compiled_kernels_enabled()

    def test_flag_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with compiled_kernels_disabled():
                raise RuntimeError("boom")
        assert compiled_kernels_enabled()
