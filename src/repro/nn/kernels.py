"""Fused convolution kernels.

This module holds the kernels that sit underneath :mod:`repro.nn.functional`
and the conv layers:

* :func:`fused_col2im` — col2im fused with the unpad slice.  The textbook
  form accumulates taps into a zero-initialized **padded** buffer
  ``(n, c, h+2p, w+2p)`` and then slices the interior, paying an
  allocation + zero-fill of the border and a full interior copy per call.
  The fused kernel scatters each kernel tap **directly into the unpadded
  output** by clipping the tap's output-pixel range to the rows and columns
  that survive the unpad slice.  Contributions that the padded form
  discards are exactly the ones the clipped ranges skip, and surviving
  contributions are applied in the same ascending ``(ki, kj)`` tap order,
  so for every destination cell the IEEE addition sequence is unchanged —
  **bit-identical by construction**, for both dtypes.
* :func:`grad_weight_gemm` — the weight-gradient contraction
  ``sum_i grad[i] @ cols[i].T``.  When the batch is a single image the
  batched-matmul-plus-reduction collapses to one plain 2-D GEMM over the
  same operands (the "where shapes permit" fusion), skipping the
  ``sum(axis=0)`` pass entirely.

``tests/nn/test_kernels.py`` compares both with the textbook forms (padded
tap accumulation, the float64 bincount scatter, batched matmul plus sum)
bit for bit.

Why the two backward GEMMs are *not* one batched matmul
-------------------------------------------------------
``Conv2d.backward`` runs two GEMMs per step: ``grad_weight``
(``(n,O,L) @ (n,L,CK)`` summed over the batch — contracts over ``L``) and
``grad_cols`` (``(CK,O) @ (n,O,L)`` broadcast over the batch — contracts
over ``O``).  Because the two contract over *different* axes, no stacking
of operands turns them into a single batched matmul: every arrangement
either disagrees on shapes or requires zero-padding one operand, and
padding changes the GEMM's reduction tree, which breaks float64
bit-identity (measured: flattened single-GEMM reformulations of even one
of these products drift in the last ulp on some shapes under OpenBLAS).
The fusions kept here are exactly the ones that preserve the IEEE
operation sequence; the rest of the multi-core win comes from BLAS-thread
scheduling (:mod:`repro.utils.threadpools`), not from reassociating math.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def _tap_range(offset: int, stride: int, size: int, out_size: int) -> Tuple[int, int]:
    """Output-pixel range ``[lo, hi)`` of one kernel tap that lands inside
    an unpadded axis of length ``size``.

    A tap at kernel position ``k`` writes destination index
    ``offset + stride * o`` (``offset = k * dilation - padding``) for output
    pixel ``o``; the range keeps exactly the ``o`` with destination in
    ``[0, size)`` — the contributions the padded form's unpad slice
    retains.
    """
    if offset >= 0:
        lo = 0
    else:
        lo = (-offset + stride - 1) // stride
    hi = min(out_size, (size - 1 - offset) // stride + 1)
    return lo, hi


def fused_col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    out_h: int,
    out_w: int,
    stride: int = 1,
    padding: int = 0,
    dilation: int = 1,
) -> np.ndarray:
    """col2im fused with the unpad slice: scatter taps straight into ``x_shape``.

    Bit-identical to the pad-accumulate-slice form for every dtype (see
    the module docstring for the argument); the win is skipping the
    padded temporary's allocation + border zero-fill and the interior copy —
    for the paper's 9x9/padding-4 layers the padded buffer is ~19% larger
    than the output it is sliced down to, freed and refilled every step.
    """
    n, c, h, w = x_shape
    out = np.zeros((n, c, h, w), dtype=cols.dtype)
    taps = cols.reshape(n, c, kernel_h, kernel_w, out_h, out_w)
    for ki in range(kernel_h):
        row_offset = ki * dilation - padding
        row_lo, row_hi = _tap_range(row_offset, stride, h, out_h)
        if row_lo >= row_hi:
            continue
        row_start = row_offset + stride * row_lo
        row_stop = row_offset + stride * (row_hi - 1) + 1
        for kj in range(kernel_w):
            col_offset = kj * dilation - padding
            col_lo, col_hi = _tap_range(col_offset, stride, w, out_w)
            if col_lo >= col_hi:
                continue
            col_start = col_offset + stride * col_lo
            col_stop = col_offset + stride * (col_hi - 1) + 1
            out[
                :,
                :,
                row_start:row_stop:stride,
                col_start:col_stop:stride,
            ] += taps[:, :, ki, kj, row_lo:row_hi, col_lo:col_hi]
    return out


def gather_into(flat_x: np.ndarray, flat_index: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The im2col gather ``out[i, j] = flat_x[i, flat_index[j]]``.

    The ``np.take`` fast path: ``mode="clip"`` selects the unbuffered
    write-through branch; the memoized indices are in range by
    construction.
    """
    np.take(flat_x, flat_index, axis=1, out=out, mode="clip")
    return out


def grad_weight_gemm(grad_flat: np.ndarray, cols: np.ndarray, stage: np.ndarray) -> np.ndarray:
    """The conv weight-gradient contraction ``sum_i grad_flat[i] @ cols[i].T``.

    Textbook form: one batched matmul into ``stage`` followed by a
    ``sum(axis=0)`` reduction pass.  When the batch holds a single image
    the reduction is the identity and the whole thing collapses to one 2-D
    GEMM over the same operands — same BLAS call, same IEEE sequence, no
    reduction pass.  Larger batches keep the batched form: collapsing them
    would reassociate the per-image partial sums, which is exactly the
    reordering that breaks float64 bit-identity (module docstring).

    ``stage`` is the ``(n, rows, cols)`` workspace staging buffer; the
    returned array may alias it and must be consumed before the owning
    layer's next step (the standard workspace contract).
    """
    if grad_flat.shape[0] == 1:
        return np.matmul(grad_flat[0], cols[0].transpose(), out=stage[0])
    np.matmul(grad_flat, cols.transpose(0, 2, 1), out=stage)
    return stage.sum(axis=0)
