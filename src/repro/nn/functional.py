"""Low-level tensor operations shared by the convolutional layers.

The implementation follows the classic im2col / col2im formulation: a
convolution is lowered to one large matrix multiplication per batch, which is
the only way to get acceptable throughput out of NumPy.  All functions work on
``NCHW`` tensors and support stride, symmetric zero padding, and dilation.

The im2col gather indices depend only on the layer geometry and the input
spatial shape — both fixed across a training run — so they are built once
and memoized (:func:`_im2col_indices`, :func:`_im2col_flat_index`) instead
of being recomputed on every forward/backward call.  Cached arrays are
marked read-only; they are only ever used as gather indices.

Workspace fast path
-------------------
:func:`im2col` accepts ``out=`` / ``padded_out=`` buffers (persistent
per-layer workspaces, see :mod:`repro.nn.workspace`): the patch gather then
runs as one ``np.take`` straight into the reused buffer (``mode="clip"``
selects NumPy's unbuffered write-through path; the memoized indices are
always in range, so clipping never engages) and padding becomes an interior
copy into a border-zeroed buffer instead of a fresh ``np.pad`` allocation.
Both paths gather exactly the same elements — results are bit-identical —
the workspace path just stops paying an allocation + page-fault per call.
The allocating path (``out=None``) serves the pooling layers.

Dtype rules
-----------
Everything here is dtype-preserving: float32 inputs produce float32
outputs (the compute-dtype fast path), float64 stays float64 bit for bit.
:func:`col2im` accumulates in the columns' own dtype.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from repro.nn.kernels import fused_col2im, gather_into


def conv_output_size(size: int, kernel: int, stride: int, padding: int, dilation: int = 1) -> int:
    """Spatial output size of a convolution along one axis."""
    effective = dilation * (kernel - 1) + 1
    out = (size + 2 * padding - effective) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution produces non-positive output size {out} "
            f"(input={size}, kernel={kernel}, stride={stride}, padding={padding}, dilation={dilation})"
        )
    return out


def conv_transpose_output_size(
    size: int, kernel: int, stride: int, padding: int, output_padding: int = 0
) -> int:
    """Spatial output size of a transposed convolution along one axis."""
    out = (size - 1) * stride - 2 * padding + kernel + output_padding
    if out <= 0:
        raise ValueError(
            f"transposed convolution produces non-positive output size {out} "
            f"(input={size}, kernel={kernel}, stride={stride}, padding={padding})"
        )
    return out


@lru_cache(maxsize=256)
def _im2col_indices(
    channels: int,
    kernel_h: int,
    kernel_w: int,
    out_h: int,
    out_w: int,
    stride: int,
    dilation: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays mapping (channel*kh*kw, out_h*out_w) patch entries to the padded input.

    Memoized on the full geometry key (the output spatial shape stands in
    for the input shape, which determines it): a training run hits the same
    few keys on every forward/backward call, so the index construction runs
    once per distinct layer/input-shape pair.  The cached arrays are
    read-only.
    """
    i0 = np.repeat(np.arange(kernel_h) * dilation, kernel_w)
    i0 = np.tile(i0, channels)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kernel_w) * dilation, kernel_h * channels)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(channels), kernel_h * kernel_w).reshape(-1, 1)
    for index in (k, i, j):
        index.setflags(write=False)
    return k, i, j


@lru_cache(maxsize=256)
def _im2col_flat_index(
    channels: int,
    kernel_h: int,
    kernel_w: int,
    out_h: int,
    out_w: int,
    stride: int,
    dilation: int,
    h_padded: int,
    w_padded: int,
) -> np.ndarray:
    """Flattened per-image gather indices into ``(c, h_padded, w_padded)``.

    :func:`im2col`'s workspace path gathers through them in one
    ``np.take``.  Memoized; read-only.
    """
    k, i, j = _im2col_indices(channels, kernel_h, kernel_w, out_h, out_w, stride, dilation)
    base_index = (k * h_padded + i) * w_padded + j  # (c*kh*kw, out_h*out_w)
    base_index.setflags(write=False)
    return base_index


def im2col(
    x: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int = 1,
    padding: int = 0,
    dilation: int = 1,
    out: Optional[np.ndarray] = None,
    padded_out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Unfold sliding patches of ``x`` into columns.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.
    out:
        Optional persistent destination of shape
        ``(N, C * kernel_h * kernel_w, out_h * out_w)`` and ``x``'s dtype;
        the gather then writes straight into it (no fresh allocation) and
        returns it.
    padded_out:
        Optional persistent padded-input buffer of shape
        ``(N, C, H + 2 * padding, W + 2 * padding)`` whose border is
        already zero (see :meth:`repro.nn.workspace.Workspace.zeros`); the
        interior is overwritten with ``x`` each call instead of building a
        fresh ``np.pad`` copy.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(N, C * kernel_h * kernel_w, out_h * out_w)``.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel_h, stride, padding, dilation)
    out_w = conv_output_size(w, kernel_w, stride, padding, dilation)
    if padding > 0:
        if padded_out is not None:
            # The buffer's border is zero by contract and only the interior
            # is ever written, so this is equivalent to np.pad, minus the
            # allocation.
            padded_out[:, :, padding : padding + h, padding : padding + w] = x
            x = padded_out
        else:
            x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)), mode="constant")
    if out is not None and x.flags.c_contiguous:
        flat_index = _im2col_flat_index(
            c, kernel_h, kernel_w, out_h, out_w, stride, dilation, h + 2 * padding, w + 2 * padding
        )
        # One flat gather straight into the reused buffer (np.take's
        # unbuffered mode="clip" path; the memoized indices are in range
        # by construction).
        gather_into(x.reshape(n, -1), flat_index.reshape(-1), out.reshape(n, -1))
        return out
    k, i, j = _im2col_indices(c, kernel_h, kernel_w, out_h, out_w, stride, dilation)
    cols = x[:, k, i, j]
    if out is not None:
        np.copyto(out, cols)
        return out
    return cols


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int = 1,
    padding: int = 0,
    dilation: int = 1,
) -> np.ndarray:
    """Fold columns back into an image, accumulating overlapping patches.

    This is the adjoint of :func:`im2col`; it is used both for convolution
    backward passes and for the forward pass of transposed convolutions.
    The result has ``cols``'s dtype and is always freshly allocated (it is
    a layer's returned value, never workspace scratch).

    Each kernel tap is scattered straight into the unpadded result over the
    clipped output range that survives the unpad slice (see
    :func:`repro.nn.kernels.fused_col2im`).  For every output cell the
    contributions arrive in ascending ``(ki, kj)`` order, so the result is
    bit-identical to accumulating taps into a padded image and, in float64,
    to a flattened bincount scatter (``tests/nn`` asserts both).
    """
    n, c, h, w = x_shape
    out_h = conv_output_size(h, kernel_h, stride, padding, dilation)
    out_w = conv_output_size(w, kernel_w, stride, padding, dilation)
    expected = (n, c * kernel_h * kernel_w, out_h * out_w)
    if cols.shape != expected:
        raise ValueError(f"col2im expected columns of shape {expected}, got {cols.shape}")
    return fused_col2im(cols, x_shape, kernel_h, kernel_w, out_h, out_w, stride, padding, dilation)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid (dtype-preserving for floats)."""
    x = np.asarray(x)
    dtype = x.dtype if x.dtype in (np.float32, np.float64) else np.float64
    out = np.empty_like(x, dtype=dtype)
    positive = x >= 0
    negative = ~positive
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[negative])
    out[negative] = exp_x / (1.0 + exp_x)
    return out


def log_sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable ``log(sigmoid(x))`` (dtype-preserving for floats)."""
    return np.where(x >= 0, -np.log1p(np.exp(-np.abs(x))), x - np.log1p(np.exp(-np.abs(x))))


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis`` (dtype-preserving)."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)
