"""Persistent per-layer workspaces for the training hot path.

Every training step used to reallocate the same large temporaries — the
padded input, the im2col ``cols`` matrix, ``grad_cols``, matmul staging
buffers — once per layer per step.  For the model sizes of the paper those
allocations dominate the step wall-clock (fresh multi-megabyte buffers are
served by the allocator as new pages, so the first write of every step pays
page faults, exactly the memory-bound regime the PR 4 ``param_ops``
benchmark flagged).

A :class:`Workspace` is a small per-layer pool of named scratch buffers
keyed by ``(tag, shape, dtype)``.  Because the batch shape is fixed across
a training run, every step after the first reuses the same warm pages via
``out=`` kwargs instead of reallocating.

Aliasing rules (see ``docs/performance.md``)
--------------------------------------------
* A workspace buffer is **internal scratch**: it may be handed out only for
  values that are consumed before the owning layer's next ``forward`` /
  ``backward`` call (the im2col cache consumed by ``backward``, matmul
  staging, the padded input).
* Arrays **returned** from a layer (outputs, input gradients) are always
  freshly allocated — callers may keep them across steps (e.g.
  ``predict_dataset`` collects per-batch outputs), so they must never alias
  a workspace.
* Workspaces never cross layer instances, so thread-parallel clients (each
  with their own model) never share scratch.

Buffer reuse never changes an IEEE operation, only where the result lands:
``tests/nn`` compares every workspace path with an allocating oracle bit
for bit.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np


class Workspace:
    """A pool of reusable scratch buffers owned by one layer (or loss).

    ``get`` returns a persistent buffer for ``(tag, shape, dtype)``,
    allocating it on first use; ``zeros`` additionally guarantees the buffer
    was zero-filled **at allocation time** (callers rely on untouched
    regions staying zero — e.g. the padding border of a padded-input
    buffer, whose interior is rewritten every step while the border is
    written only once).

    The pool intentionally does not survive pickling: models travel to
    process-pool workers as part of a client, and shipping warm scratch
    would only bloat the payload.  The receiving side re-grows its own
    buffers on first use.
    """

    __slots__ = ("_buffers",)

    def __init__(self):
        self._buffers: Dict[Tuple[str, Tuple[int, ...], np.dtype], np.ndarray] = {}

    def get(self, tag: str, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """The persistent buffer for ``(tag, shape, dtype)`` (lazy, reused)."""
        key = (tag, tuple(shape), np.dtype(dtype))
        buffer = self._buffers.get(key)
        if buffer is None:
            buffer = np.empty(key[1], dtype=key[2])
            self._buffers[key] = buffer
        return buffer

    def zeros(self, tag: str, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """Like :meth:`get`, but the buffer is zero-filled when first allocated."""
        key = (tag, tuple(shape), np.dtype(dtype))
        buffer = self._buffers.get(key)
        if buffer is None:
            buffer = np.zeros(key[1], dtype=key[2])
            self._buffers[key] = buffer
        return buffer

    def clear(self) -> None:
        """Drop every buffer (e.g. after a dtype switch, to release memory)."""
        self._buffers.clear()

    def __len__(self) -> int:
        return len(self._buffers)

    # -- pickling: never ship scratch across process boundaries -----------------
    def __reduce__(self):
        # A workspace unpickles empty: the receiving process re-grows its own
        # buffers on first use instead of shipping warm scratch around.
        return (Workspace, ())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        total = sum(buf.nbytes for buf in self._buffers.values())
        return f"Workspace({len(self._buffers)} buffers, {total} bytes)"
