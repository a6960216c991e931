"""Sharded aggregation: parallel sub-aggregators with a deterministic merge.

A :class:`ShardedAccumulator` partitions the cohort round-robin across
``shards`` sub-accumulators — update ``i`` lands in shard ``i % shards`` —
each holding its own O(P) weighted-sum vector.  The final fold merges the
shard sums in ascending shard order, so the result is a pure function of
the fold sequence: it does not depend on whether the shards were reduced
incrementally (one update at a time), sequentially, or in parallel.

:meth:`ShardedAggregator.aggregate` exploits that freedom: it reduces the
shards on a thread pool (NumPy releases the GIL inside the axpy kernels)
and is bit-identical to the incremental accumulator by construction — the
per-shard fold order and the ascending-shard merge order are fixed
regardless of thread timing.

Like the streaming accumulator, cohorts up to ``parity_limit`` stay in the
exact-parity buffered mode and reproduce the GEMV bitwise.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.fl.aggregation.streaming import (
    DEFAULT_PARITY_LIMIT,
    Aggregator,
    StreamingDeltaAccumulator,
    UpdateAccumulator,
    _check_weight,
    _layout_of,
)
from repro.fl.parameters import FlatState, State, StateLayout, state_vector, weighted_average


class ShardedAccumulator(UpdateAccumulator):
    """Round-robin sharded weighted-sum accumulators (O(shards * P) memory)."""

    def __init__(self, shards: int = 4, parity_limit: int = DEFAULT_PARITY_LIMIT):
        if shards < 1:
            raise ValueError(f"shards must be positive, got {shards}")
        if parity_limit < 0:
            raise ValueError(f"parity_limit must be >= 0, got {parity_limit}")
        self.shards = int(shards)
        self.parity_limit = int(parity_limit)
        self._pending: List[Tuple[State, float]] = []
        self._layout: Optional[StateLayout] = None
        self._shard_sums: Optional[List[np.ndarray]] = None
        self._weight_total = 0.0
        self._count = 0

    @property
    def spilled(self) -> bool:
        return self._shard_sums is not None

    def fold(self, state: State, weight: float) -> None:
        weight = _check_weight(weight)
        index = self._count
        self._count += 1
        self._weight_total += weight
        if self._shard_sums is None and len(self._pending) < self.parity_limit:
            self._pending.append((state, weight))
            return
        self._spill(state)
        self._shard_sums[index % self.shards] += weight * state_vector(state, self._layout)

    def _spill(self, incoming: State) -> None:
        if self._shard_sums is not None:
            return
        reference = self._pending[0][0] if self._pending else incoming
        self._layout = _layout_of(reference)
        self._shard_sums = [
            np.zeros(self._layout.total_size, dtype=np.float64) for _ in range(self.shards)
        ]
        for index, (state, weight) in enumerate(self._pending):
            self._shard_sums[index % self.shards] += weight * state_vector(state, self._layout)
        self._pending = []

    def result(self) -> State:
        if self._shard_sums is None:
            return weighted_average(
                [state for state, _ in self._pending],
                [weight for _, weight in self._pending],
            )
        if self._weight_total <= 0:
            raise ValueError("weights must not all be zero")
        # Deterministic final fold: ascending shard order, always.
        merged = self._shard_sums[0].copy()
        for shard in self._shard_sums[1:]:
            merged += shard
        return FlatState(self._layout, merged / self._weight_total)

    @property
    def count(self) -> int:
        return self._count

    @property
    def weight_total(self) -> float:
        return self._weight_total

    def states(self) -> Optional[List[State]]:
        if self._shard_sums is not None:
            return None
        return [state for state, _ in self._pending]


class ShardedAggregator(Aggregator):
    """Sharded sub-aggregators reduced in parallel before a deterministic merge."""

    name = "sharded"
    streaming = True

    def __init__(self, shards: int = 4, parity_limit: int = DEFAULT_PARITY_LIMIT):
        if shards < 1:
            raise ValueError(f"shards must be positive, got {shards}")
        if parity_limit < 0:
            raise ValueError(f"parity_limit must be >= 0, got {parity_limit}")
        self.shards = int(shards)
        self.parity_limit = int(parity_limit)

    def accumulator(self) -> ShardedAccumulator:
        return ShardedAccumulator(shards=self.shards, parity_limit=self.parity_limit)

    def delta_accumulator(self) -> StreamingDeltaAccumulator:
        return StreamingDeltaAccumulator(parity_limit=self.parity_limit)

    def aggregate(self, states: Sequence[State], weights: Sequence[float]) -> State:
        """Batch aggregation with the shard reduction run on threads.

        Bit-identical to folding the same sequence through
        :class:`ShardedAccumulator`: shard membership (``i % shards``),
        per-shard fold order, and the ascending-shard merge are all fixed,
        so thread scheduling cannot influence any value.
        """
        states = list(states)
        weights = [_check_weight(weight) for weight in weights]
        if len(states) != len(weights):
            raise ValueError(f"got {len(states)} states but {len(weights)} weights")
        if len(states) <= self.parity_limit:
            return weighted_average(states, weights)
        total = float(sum(weights))
        if total <= 0:
            raise ValueError("weights must not all be zero")
        layout = _layout_of(states[0])

        def reduce_shard(shard_index: int) -> np.ndarray:
            partial = np.zeros(layout.total_size, dtype=np.float64)
            for state, weight in zip(
                states[shard_index :: self.shards], weights[shard_index :: self.shards]
            ):
                partial += weight * state_vector(state, layout)
            return partial

        with ThreadPoolExecutor(max_workers=self.shards) as executor:
            partials = list(executor.map(reduce_shard, range(self.shards)))
        merged = partials[0].copy()
        for partial in partials[1:]:
            merged += partial
        return FlatState(layout, merged / total)

    def describe(self) -> str:
        return f"{self.name}(shards={self.shards}, parity_limit={self.parity_limit})"
