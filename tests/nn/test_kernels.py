"""Parity suite for the fused convolution kernels.

The kernels in ``repro.nn.kernels`` promise that the fused col2im scatter
and the single-image weight-gradient GEMM collapse are **bit-identical** to
the textbook forms — float64 exactly, and float32 exactly too (the fusions
never reassociate an IEEE operation, they only skip buffer traffic).  This
suite compares them with short oracles written here — padded tap
accumulation, the float64 bincount scatter, batched matmul plus sum, and a
whole conv step built from those — across seeded random geometries
(stride/padding/dilation/odd shapes) and both dtypes, and runs a numerical
gradcheck through the fused path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    Conv2d,
    ConvTranspose2d,
    check_layer_input_gradient,
    check_layer_parameter_gradients,
    max_relative_error,
)
from repro.nn.functional import col2im, conv_output_size, im2col
from repro.nn.kernels import fused_col2im, grad_weight_gemm


def tap_col2im(cols, x_shape, kh, kw, stride, padding, dilation):
    """Oracle: accumulate each kernel tap into a zeroed padded image, then unpad."""
    n, c, h, w = x_shape
    out_h = conv_output_size(h, kh, stride, padding, dilation)
    out_w = conv_output_size(w, kw, stride, padding, dilation)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    taps = cols.reshape(n, c, kh, kw, out_h, out_w)
    for ki in range(kh):
        for kj in range(kw):
            row, col = ki * dilation, kj * dilation
            padded[
                :, :, row : row + stride * out_h : stride, col : col + stride * out_w : stride
            ] += taps[:, :, ki, kj]
    return padded[:, :, padding : padding + h, padding : padding + w]


def bincount_col2im(cols, x_shape, kh, kw, stride, padding, dilation):
    """Oracle: one float64 bincount scatter over the padded image.

    The scatter index of every column entry is im2col of an image that
    holds its own flat positions.
    """
    n, c, h, w = x_shape
    padded_shape = (n, c, h + 2 * padding, w + 2 * padding)
    size = int(np.prod(padded_shape))
    positions = np.arange(size, dtype=np.float64).reshape(padded_shape)
    index = im2col(positions, kh, kw, stride, 0, dilation).astype(np.intp)
    flat = np.bincount(index.ravel(), weights=cols.ravel(), minlength=size)
    padded = flat.astype(cols.dtype).reshape(padded_shape)
    return padded[:, :, padding : padding + h, padding : padding + w]


def batched_grad_weight(grad_flat, cols):
    """Oracle: the weight-gradient contraction as batched matmul plus sum."""
    return np.matmul(grad_flat, cols.transpose(0, 2, 1)).sum(axis=0)


def staged_grad_weight(grad_flat, cols):
    """``grad_weight_gemm`` with a fresh staging buffer, copied out."""
    stage = np.empty((grad_flat.shape[0], grad_flat.shape[1], cols.shape[1]), grad_flat.dtype)
    return np.array(grad_weight_gemm(grad_flat, cols, stage=stage))


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
            reference = tap_col2im(cols, (n, c, h, w), kh, kw, stride, padding, dilation)
            assert fused.dtype == reference.dtype == dtype
            # Bit-identity, not allclose: the fusion must not change a
            # single IEEE operation.
            assert np.array_equal(fused, reference, equal_nan=True), (
                n, c, h, w, kh, kw, stride, padding, dilation, dtype,
            )

    def test_float64_matches_pre_pr5_bincount_path(self):
        # The float64 bincount scatter was the original col2im engine; the
        # fused kernel must still reproduce it bit for bit in float64.
        rng = np.random.default_rng(13)
        for n, c, h, w, kh, kw, stride, padding, dilation in random_geometries(17, 15):
            out_h = conv_output_size(h, kh, stride, padding, dilation)
            out_w = conv_output_size(w, kw, stride, padding, dilation)
            cols = rng.standard_normal((n, c * kh * kw, out_h * out_w))
            fused = col2im(cols, (n, c, h, w), kh, kw, stride, padding, dilation)
            historical = bincount_col2im(cols, (n, c, h, w), kh, kw, stride, padding, dilation)
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
        reference = tap_col2im(cols, (n, c, h, w), kh, kw, 1, 0, 1)
        assert np.array_equal(fused, reference)


class TestGradWeightGemm:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_single_image_collapse_is_bit_identical(self, dtype):
        rng = np.random.default_rng(23)
        for out_channels, ck, length in ((4, 18, 25), (1, 1, 1), (7, 150, 196)):
            grad_flat = rng.standard_normal((1, out_channels, length)).astype(dtype)
            cols = rng.standard_normal((1, ck, length)).astype(dtype)
            collapsed = staged_grad_weight(grad_flat, cols)
            reference = batched_grad_weight(grad_flat, cols)
            assert collapsed.shape == (out_channels, ck)
            assert np.array_equal(collapsed, reference)

    def test_staged_variant_matches_unstaged(self):
        rng = np.random.default_rng(29)
        for n in (1, 3):
            grad_flat = rng.standard_normal((n, 4, 10))
            cols = rng.standard_normal((n, 6, 10))
            stage = np.empty((n, 4, 6))
            staged = grad_weight_gemm(grad_flat, cols, stage=stage)
            unstaged = batched_grad_weight(grad_flat, cols)
            assert np.array_equal(np.asarray(staged), unstaged)

    def test_multi_image_batches_keep_reference_form(self):
        # Batches larger than one must not be collapsed (that would
        # reassociate the per-image partial sums): the kernel is literally
        # the batched matmul plus sum.
        rng = np.random.default_rng(31)
        grad_flat = rng.standard_normal((4, 5, 12))
        cols = rng.standard_normal((4, 9, 12))
        staged = staged_grad_weight(grad_flat, cols)
        assert np.array_equal(staged, batched_grad_weight(grad_flat, cols))


def conv2d_step_oracle(layer, x, grad):
    """Oracle Conv2d step: allocating im2col, fresh GEMMs, tap col2im.

    Returns ``(output, grad_input, grad_weight, grad_bias)``.
    """
    x = np.asarray(x, dtype=layer.compute_dtype)
    grad = np.asarray(grad, dtype=layer.compute_dtype)
    n, _, h, w = x.shape
    kh, kw = layer.kernel_size
    geometry = (layer.stride, layer.padding, layer.dilation)
    cols = im2col(x, kh, kw, *geometry)
    weight = layer.weight.data.reshape(layer.out_channels, -1)
    out = np.matmul(weight, cols).reshape(n, layer.out_channels, *layer.output_shape(h, w))
    out = out + layer.bias.data.reshape(1, -1, 1, 1)
    grad_flat = grad.reshape(n, layer.out_channels, -1)
    grad_input = tap_col2im(np.matmul(weight.T, grad_flat), x.shape, kh, kw, *geometry)
    grad_weight = batched_grad_weight(grad_flat, cols).reshape(layer.weight.data.shape)
    return out, grad_input, grad_weight, grad_flat.sum(axis=(0, 2))


def conv_transpose2d_step_oracle(layer, x, grad):
    """Oracle ConvTranspose2d step: fresh GEMMs, tap col2im, allocating im2col."""
    n, _, h, w = x.shape
    kh, kw = layer.kernel_size
    x_flat = x.reshape(n, layer.in_channels, h * w)
    weight = layer.weight.data.reshape(layer.in_channels, -1)
    out_shape = (n, layer.out_channels) + layer.output_shape(h, w)
    cols = np.matmul(weight.T, x_flat)
    out = tap_col2im(cols, out_shape, kh, kw, layer.stride, layer.padding, 1)
    out = out + layer.bias.data.reshape(1, -1, 1, 1)
    grad_cols = im2col(grad, kh, kw, layer.stride, layer.padding)
    grad_input = np.matmul(weight, grad_cols).reshape(x.shape)
    grad_weight = batched_grad_weight(x_flat, grad_cols).reshape(layer.weight.data.shape)
    return out, grad_input, grad_weight, grad.sum(axis=(0, 2, 3))


def assert_step_matches(layer, x, grad, expected):
    out = layer(x)
    grad_input = layer.backward(grad)
    for name, got, want in zip(
        ("output", "grad_input", "grad_weight", "grad_bias"),
        (out, grad_input, layer.weight.grad, layer.bias.grad),
        expected,
    ):
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


class TestLayerParity:
    @pytest.mark.parametrize("dtype_name", ["float64", "float32"])
    @pytest.mark.parametrize("batch", [1, 2])
    def test_conv2d_full_step_bit_identity(self, dtype_name, batch):
        layer = Conv2d(3, 5, 3, stride=1, padding=2, dilation=2, rng=np.random.default_rng(41))
        layer.set_compute_dtype(dtype_name)
        x = np.random.default_rng(43).standard_normal((batch, 3, 11, 11))
        grad = np.random.default_rng(44).standard_normal((batch, 5, 11, 11))
        expected = conv2d_step_oracle(layer, x, grad)
        assert_step_matches(layer, x, grad, expected)

    @pytest.mark.parametrize("batch", [1, 3])
    def test_conv_transpose2d_full_step_bit_identity(self, batch):
        layer = ConvTranspose2d(4, 2, 4, stride=2, padding=1, rng=np.random.default_rng(47))
        x = np.random.default_rng(48).standard_normal((batch, 4, 6, 6))
        grad = np.random.default_rng(49).standard_normal((batch, 2, 12, 12))
        expected = conv_transpose2d_step_oracle(layer, x, grad)
        assert_step_matches(layer, x, grad, expected)

    def test_gradcheck_through_fused_path(self):
        # The fused backward must agree with numerical differentiation, not
        # just with the reference implementation.  batch=1 also drives the
        # grad_weight GEMM collapse through the numerical check.
        layer = Conv2d(2, 3, 3, stride=2, padding=1, rng=np.random.default_rng(53))
        x = np.random.default_rng(54).standard_normal((1, 2, 7, 7))
        analytic, numeric = check_layer_input_gradient(layer, x)
        assert max_relative_error(analytic, numeric) < 1e-6
        for name, (analytic, numeric) in check_layer_parameter_gradients(layer, x).items():
            assert max_relative_error(analytic, numeric) < 1e-6, name

