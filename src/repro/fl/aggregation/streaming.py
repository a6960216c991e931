"""Streaming (O(P)) update accumulators and the aggregator registry.

See the package docstring for the summation-order rules.  The accumulators
here are *per-round* objects: an algorithm asks its
:class:`~repro.fl.server.FederatedServer` for a fresh accumulator at the
start of each aggregation, folds every kept update into it (releasing the
update — and, under lazy client virtualization, the client — immediately
after), and reads :meth:`UpdateAccumulator.result` once at the end.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fl.parameters import (
    FlatState,
    State,
    StateLayout,
    state_vector,
    weighted_average,
)

#: Aggregation modes understood by :func:`create_aggregator` (and the CLI).
AGGREGATION_CHOICES = ("gemv", "streaming", "sharded")

#: Streaming accumulators buffer up to this many updates before spilling
#: into the running O(P) form.  While buffered, ``result()`` delegates to
#: ``weighted_average`` and is therefore bit-identical to the GEMV path —
#: which keeps every existing 9-client golden exact under ``streaming``.
DEFAULT_PARITY_LIMIT = 32


def _layout_of(state: State) -> StateLayout:
    """The layout updates are folded in (the first update fixes it)."""
    return state.layout if isinstance(state, FlatState) else StateLayout.from_state(state)


def _check_weight(weight: float) -> float:
    weight = float(weight)
    if weight < 0:
        raise ValueError("weights must be non-negative")
    return weight


class UpdateAccumulator:
    """Interface of every per-round fold target."""

    def fold(self, state: State, weight: float) -> None:
        """Fold one client's state with aggregation weight ``n_k``."""
        raise NotImplementedError

    def result(self) -> State:
        """The weighted average of everything folded so far."""
        raise NotImplementedError

    @property
    def count(self) -> int:
        """Number of updates folded so far."""
        raise NotImplementedError

    @property
    def weight_total(self) -> float:
        """Sum of the folded weights."""
        raise NotImplementedError

    def states(self) -> Optional[List[State]]:
        """The buffered input states, or ``None`` once they are gone.

        Diagnostics that need the individual states (``client_drift``) read
        them from here; a streaming accumulator that has spilled returns
        ``None`` and the diagnostic is skipped — that is the price of O(P)
        memory.
        """
        return None


class GemvAccumulator(UpdateAccumulator):
    """The historical GEMV aggregation behind the fold interface.

    Buffers every (state, weight) pair and runs ``weighted_average`` once at
    :meth:`result` — bit-identical to the pre-streaming server step.
    """

    def __init__(self):
        self._states: List[State] = []
        self._weights: List[float] = []

    def fold(self, state: State, weight: float) -> None:
        self._states.append(state)
        self._weights.append(_check_weight(weight))

    def result(self) -> State:
        return weighted_average(self._states, self._weights)

    @property
    def count(self) -> int:
        return len(self._states)

    @property
    def weight_total(self) -> float:
        return float(sum(self._weights))

    def states(self) -> Optional[List[State]]:
        return list(self._states)


class StreamingAccumulator(UpdateAccumulator):
    """Running weighted-sum / weight accumulators over the flat vector.

    One axpy per folded update; memory is O(P) regardless of how many
    updates arrive.  The first ``parity_limit`` updates are buffered and
    :meth:`result` then delegates to ``weighted_average`` — the exact-parity
    mode that reproduces the GEMV summation order bit for bit at small
    cohort sizes.  The buffer spills into the running form on update
    ``parity_limit + 1``.
    """

    def __init__(self, parity_limit: int = DEFAULT_PARITY_LIMIT):
        if parity_limit < 0:
            raise ValueError(f"parity_limit must be >= 0, got {parity_limit}")
        self.parity_limit = int(parity_limit)
        self._pending: List[Tuple[State, float]] = []
        self._layout: Optional[StateLayout] = None
        self._sum: Optional[np.ndarray] = None
        self._weight_total = 0.0
        self._count = 0

    @property
    def spilled(self) -> bool:
        """Whether the accumulator has left the exact-parity mode."""
        return self._sum is not None

    def fold(self, state: State, weight: float) -> None:
        weight = _check_weight(weight)
        self._count += 1
        self._weight_total += weight
        if self._sum is None and len(self._pending) < self.parity_limit:
            self._pending.append((state, weight))
            return
        self._spill(state)
        self._sum += weight * state_vector(state, self._layout)

    def _spill(self, incoming: State) -> None:
        """Leave parity mode: fold the buffered pairs into the running sum."""
        if self._sum is not None:
            return
        reference = self._pending[0][0] if self._pending else incoming
        self._layout = _layout_of(reference)
        self._sum = np.zeros(self._layout.total_size, dtype=np.float64)
        for state, weight in self._pending:
            self._sum += weight * state_vector(state, self._layout)
        self._pending = []

    def result(self) -> State:
        if self._sum is None:
            # Exact-parity mode: the identical GEMV the gemv path runs.
            return weighted_average(
                [state for state, _ in self._pending],
                [weight for _, weight in self._pending],
            )
        if self._weight_total <= 0:
            raise ValueError("weights must not all be zero")
        return FlatState(self._layout, self._sum / self._weight_total)

    @property
    def count(self) -> int:
        return self._count

    @property
    def weight_total(self) -> float:
        return self._weight_total

    def states(self) -> Optional[List[State]]:
        if self._sum is not None:
            return None
        return [state for state, _ in self._pending]

    # -- checkpointing -----------------------------------------------------------
    def state(self) -> Dict[str, object]:
        """Snapshot for a bit-identical mid-round resume."""
        return {
            "pending": [(state, weight) for state, weight in self._pending],
            "sum": None if self._sum is None else self._sum.copy(),
            "layout": self._layout,
            "weight_total": self._weight_total,
            "count": self._count,
            "parity_limit": self.parity_limit,
        }

    def set_state(self, state: Dict[str, object]) -> None:
        """Restore a snapshot produced by :meth:`state`."""
        self.parity_limit = int(state["parity_limit"])
        self._pending = [(s, float(w)) for s, w in state["pending"]]
        stored = state["sum"]
        self._sum = None if stored is None else np.array(stored, dtype=np.float64)
        self._layout = state["layout"]
        self._weight_total = float(state["weight_total"])
        self._count = int(state["count"])


class StreamingDeltaAccumulator:
    """Streaming form of the FedBuff staleness-weighted delta fold.

    FedBuff folds ``global += (w_i / total) * (update_i - dispatch_i)`` over
    the buffered updates, in arrival order, with one special case: an
    all-fresh buffer (every update dispatched from the current model)
    reduces to the synchronous ``weighted_average``.  This accumulator
    reproduces that math exactly while the buffer holds at most
    ``parity_limit`` entries (the parity phase keeps the raw states), and
    spills into a running ``sum(w_i * (update_i - dispatch_i))`` beyond it —
    O(P) memory, agreeing with the exact fold to ~1e-12.

    Unlike the barrier accumulators the total weight is unknown until the
    buffer closes, so the normalization happens in :meth:`result`.
    """

    def __init__(self, parity_limit: int = DEFAULT_PARITY_LIMIT):
        if parity_limit < 0:
            raise ValueError(f"parity_limit must be >= 0, got {parity_limit}")
        self.parity_limit = int(parity_limit)
        self.reset()

    def reset(self) -> None:
        """Start a fresh buffer (called after every aggregation)."""
        self._pending: List[Tuple[State, State, float, bool]] = []
        self._layout: Optional[StateLayout] = None
        self._delta_sum: Optional[np.ndarray] = None
        self._weight_total = 0.0
        self._count = 0

    @property
    def spilled(self) -> bool:
        return self._delta_sum is not None

    @property
    def count(self) -> int:
        return self._count

    def fold(self, update: State, dispatch: State, weight: float, fresh: bool) -> None:
        """Fold one arrived update delta.

        ``fresh`` marks updates dispatched from the current global model
        (staleness zero); an all-fresh parity buffer takes the synchronous
        ``weighted_average`` special case, exactly like the exact fold.
        """
        weight = _check_weight(weight)
        self._count += 1
        self._weight_total += weight
        if self._delta_sum is None and len(self._pending) < self.parity_limit:
            self._pending.append((update, dispatch, weight, fresh))
            return
        self._spill(update)
        self._delta_sum += weight * (
            state_vector(update, self._layout) - state_vector(dispatch, self._layout)
        )

    def _spill(self, incoming: State) -> None:
        if self._delta_sum is not None:
            return
        reference = self._pending[0][0] if self._pending else incoming
        self._layout = _layout_of(reference)
        self._delta_sum = np.zeros(self._layout.total_size, dtype=np.float64)
        for update, dispatch, weight, _ in self._pending:
            self._delta_sum += weight * (
                state_vector(update, self._layout) - state_vector(dispatch, self._layout)
            )
        self._pending = []

    def result(self, global_state: State) -> State:
        """The buffered fold applied to ``global_state``."""
        if self._count == 0:
            return global_state
        if self._weight_total <= 0:
            raise ValueError("weights must not all be zero")
        total = self._weight_total
        if self._delta_sum is None:
            if all(fresh for _, _, _, fresh in self._pending):
                # Every update is fresh: identical to the synchronous
                # sample-weighted average over the buffered clients.
                return weighted_average(
                    [update for update, _, _, _ in self._pending],
                    [weight for _, _, weight, _ in self._pending],
                )
            # The exact per-entry fold, in arrival order — the same
            # elementwise operations as the historical fedbuff loop.
            layout = _layout_of(global_state)
            folded_vector = state_vector(global_state, layout).copy()
            for update, dispatch, weight, _ in self._pending:
                scale = weight / total
                folded_vector += scale * (
                    state_vector(update, layout) - state_vector(dispatch, layout)
                )
            return FlatState(layout, folded_vector)
        layout = self._layout
        return FlatState(
            layout, state_vector(global_state, layout) + self._delta_sum / total
        )

    # -- checkpointing -----------------------------------------------------------
    def state(self) -> Dict[str, object]:
        """Snapshot for a bit-identical mid-buffer resume."""
        return {
            "pending": list(self._pending),
            "delta_sum": None if self._delta_sum is None else self._delta_sum.copy(),
            "layout": self._layout,
            "weight_total": self._weight_total,
            "count": self._count,
            "parity_limit": self.parity_limit,
        }

    def set_state(self, state: Dict[str, object]) -> None:
        self.parity_limit = int(state["parity_limit"])
        self._pending = list(state["pending"])
        stored = state["delta_sum"]
        self._delta_sum = None if stored is None else np.array(stored, dtype=np.float64)
        self._layout = state["layout"]
        self._weight_total = float(state["weight_total"])
        self._count = int(state["count"])


class Aggregator:
    """Factory of per-round accumulators (one aggregation mode)."""

    #: Registry / CLI name, overridden by subclasses.
    name: str = "base"

    #: Whether round loops should fold-and-release updates one at a time
    #: (and release lazily materialized clients after each fold).
    streaming: bool = False

    def accumulator(self) -> UpdateAccumulator:
        """A fresh accumulator for one aggregation."""
        raise NotImplementedError

    def delta_accumulator(self) -> StreamingDeltaAccumulator:
        """A fresh FedBuff delta accumulator that never spills (exact fold)."""
        return StreamingDeltaAccumulator(parity_limit=sys.maxsize)

    def aggregate(self, states: Sequence[State], weights: Sequence[float]) -> State:
        """One-shot aggregation (fold everything, read the result)."""
        states = list(states)
        weights = [float(weight) for weight in weights]
        if len(states) != len(weights):
            raise ValueError(f"got {len(states)} states but {len(weights)} weights")
        accumulator = self.accumulator()
        for state, weight in zip(states, weights):
            accumulator.fold(state, weight)
        return accumulator.result()

    def describe(self) -> str:
        """Stable fingerprint component of this aggregation mode."""
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.__class__.__name__}()"


class GemvAggregator(Aggregator):
    """The historical (K, P) GEMV aggregation — the default mode.

    Its accumulators buffer every update: the barrier fold runs one GEMV at
    the end, and the inherited FedBuff delta accumulator never spills.
    """

    name = "gemv"
    streaming = False

    def accumulator(self) -> GemvAccumulator:
        return GemvAccumulator()

    def aggregate(self, states: Sequence[State], weights: Sequence[float]) -> State:
        # The one-shot path skips the fold loop entirely so the default
        # server step stays byte-for-byte the pre-aggregation-tier code.
        return weighted_average(states, weights)


class StreamingAggregator(Aggregator):
    """O(P) streaming aggregation with the exact-parity small-cohort mode."""

    name = "streaming"
    streaming = True

    def __init__(self, parity_limit: int = DEFAULT_PARITY_LIMIT):
        if parity_limit < 0:
            raise ValueError(f"parity_limit must be >= 0, got {parity_limit}")
        self.parity_limit = int(parity_limit)

    def accumulator(self) -> StreamingAccumulator:
        return StreamingAccumulator(parity_limit=self.parity_limit)

    def delta_accumulator(self) -> StreamingDeltaAccumulator:
        return StreamingDeltaAccumulator(parity_limit=self.parity_limit)

    def describe(self) -> str:
        return f"{self.name}(parity_limit={self.parity_limit})"


def create_aggregator(name: Optional[str] = None, shards: int = 4, parity_limit: int = DEFAULT_PARITY_LIMIT):
    """Instantiate an aggregation mode by name (``None`` means ``gemv``)."""
    from repro.fl.aggregation.sharded import ShardedAggregator

    if name is None:
        return GemvAggregator()
    key = name.lower()
    if key == "gemv":
        return GemvAggregator()
    if key == "streaming":
        return StreamingAggregator(parity_limit=parity_limit)
    if key == "sharded":
        return ShardedAggregator(shards=shards, parity_limit=parity_limit)
    raise ValueError(
        f"unknown aggregation mode {name!r}; available: {AGGREGATION_CHOICES}"
    )
