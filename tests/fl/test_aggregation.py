"""Property/parity tests for the streaming aggregation tier.

The aggregation tier's contract has two halves, and both are asserted here
over seeded random layouts, weights, cohort sizes, and input dtypes:

* **exact parity** — while a streaming/sharded accumulator is inside its
  parity buffer (``count <= parity_limit``), its result is bit-identical
  (0 ulp) to :func:`weighted_average`'s GEMV, including through the DP
  privatize-then-fold and FedAvgM momentum compositions;
* **spilled accuracy** — once spilled to the running O(P) form, results
  agree with the GEMV to ``<= 1e-12`` relative error, and the incremental
  fold is bitwise identical to the one-shot batch ``aggregate``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fl.aggregation import (
    AGGREGATION_CHOICES,
    DEFAULT_PARITY_LIMIT,
    GemvAggregator,
    ShardedAccumulator,
    ShardedAggregator,
    StreamingAccumulator,
    StreamingAggregator,
    StreamingDeltaAccumulator,
    create_aggregator,
)
from repro.fl.parameters import (
    FlatState,
    StateLayout,
    aggregation_scratch_bytes,
    release_aggregation_scratch,
    state_vector,
    weighted_average,
)
from repro.fl.privacy import PrivacyConfig, privatize_update


def random_layout_states(seed, count, dtype=np.float64):
    """``count`` random dict states over a seeded random layout."""
    rng = np.random.default_rng(seed)
    num_tensors = int(rng.integers(1, 5))
    shapes = [tuple(int(s) for s in rng.integers(1, 7, size=rng.integers(1, 4)))
              for _ in range(num_tensors)]
    states = [
        {f"layer{i}.weight": rng.standard_normal(shape).astype(dtype)
         for i, shape in enumerate(shapes)}
        for _ in range(count)
    ]
    weights = rng.uniform(0.1, 10.0, size=count).tolist()
    return states, weights


def vectors_equal(left, right):
    """Bitwise state equality via the flat vector (0 ulp)."""
    layout = StateLayout.from_state(left)
    return np.array_equal(state_vector(left, layout), state_vector(right, layout))


def relative_error(left, right):
    layout = StateLayout.from_state(left)
    a = state_vector(left, layout)
    b = state_vector(right, layout)
    return np.max(np.abs(a - b)) / max(np.max(np.abs(a)), 1e-30)


# ---------------------------------------------------------------------------
# exact-parity mode (count <= parity_limit): 0 ulp against the GEMV
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("count", [1, 2, 9, 32])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("mode", ["streaming", "sharded"])
def test_parity_mode_is_bit_identical_to_gemv(seed, count, dtype, mode):
    states, weights = random_layout_states(seed, count, dtype=dtype)
    reference = weighted_average(states, weights)
    aggregator = create_aggregator(mode)
    # Batch one-shot path.
    assert vectors_equal(aggregator.aggregate(states, weights), reference)
    # Incremental fold path.
    accumulator = aggregator.accumulator()
    for state, weight in zip(states, weights):
        accumulator.fold(state, weight)
    assert not accumulator.spilled
    assert vectors_equal(accumulator.result(), reference)


@pytest.mark.parametrize("mode", AGGREGATION_CHOICES)
def test_every_mode_handles_flat_states(mode):
    states, weights = random_layout_states(7, 5)
    flat = [weighted_average([s], [1.0]) for s in states]  # FlatState inputs
    reference = weighted_average(flat, weights)
    assert vectors_equal(create_aggregator(mode).aggregate(flat, weights), reference)


def test_gemv_accumulator_matches_direct_weighted_average():
    states, weights = random_layout_states(11, 6)
    accumulator = GemvAggregator().accumulator()
    for state, weight in zip(states, weights):
        accumulator.fold(state, weight)
    assert accumulator.count == 6
    assert accumulator.weight_total == pytest.approx(sum(weights))
    assert accumulator.states() is not None
    assert vectors_equal(accumulator.result(), weighted_average(states, weights))


# ---------------------------------------------------------------------------
# spilled O(P) form: <= 1e-12 relative, incremental == batch bitwise
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 5, 9])
@pytest.mark.parametrize("count", [33, 64, 111])
@pytest.mark.parametrize("mode", ["streaming", "sharded"])
def test_spilled_fold_agrees_with_gemv(seed, count, mode):
    states, weights = random_layout_states(seed, count)
    reference = weighted_average(states, weights)
    aggregator = create_aggregator(mode)
    accumulator = aggregator.accumulator()
    for state, weight in zip(states, weights):
        accumulator.fold(state, weight)
    assert accumulator.spilled
    assert accumulator.states() is None  # the buffered inputs are gone
    incremental = accumulator.result()
    assert relative_error(incremental, reference) <= 1e-12
    # The batch path runs the identical summation order: bitwise equal.
    assert vectors_equal(aggregator.aggregate(states, weights), incremental)


def test_small_parity_limit_spills_early_but_stays_close():
    states, weights = random_layout_states(3, 10)
    reference = weighted_average(states, weights)
    accumulator = StreamingAccumulator(parity_limit=2)
    for state, weight in zip(states, weights):
        accumulator.fold(state, weight)
    assert accumulator.spilled
    assert relative_error(accumulator.result(), reference) <= 1e-12


def test_sharded_incremental_matches_batch_bitwise_any_shard_count():
    states, weights = random_layout_states(21, 50)
    for shards in (1, 3, 7):
        aggregator = ShardedAggregator(shards=shards, parity_limit=8)
        accumulator = aggregator.accumulator()
        for state, weight in zip(states, weights):
            accumulator.fold(state, weight)
        assert vectors_equal(accumulator.result(), aggregator.aggregate(states, weights))


def test_streaming_memory_is_flat_after_spill():
    """The running form holds one O(P) vector regardless of fold count."""
    states, weights = random_layout_states(2, 40)
    accumulator = StreamingAccumulator(parity_limit=4)
    for state, weight in zip(states, weights):
        accumulator.fold(state, weight)
    snapshot = accumulator.state()
    layout = StateLayout.from_state(states[0])
    assert snapshot["pending"] == []
    assert snapshot["sum"].nbytes == layout.total_size * 8
    assert accumulator.count == 40


# ---------------------------------------------------------------------------
# DP clip/noise and FedAvgM momentum folds through the accumulators
# ---------------------------------------------------------------------------


def _privatized_cohort(seed, count):
    states, weights = random_layout_states(seed, count)
    reference_state = {
        name: np.zeros_like(np.asarray(value, dtype=np.float64))
        for name, value in states[0].items()
    }
    privacy = PrivacyConfig(clip_norm=1.0, noise_multiplier=0.5)
    noise_rng = np.random.default_rng(seed + 1000)
    private = [
        privatize_update(reference_state, state, privacy, noise_rng)[0]
        for state in states
    ]
    return private, weights


@pytest.mark.parametrize("count,exact", [(9, True), (48, False)])
def test_dp_privatize_then_fold_parity(count, exact):
    private, weights = _privatized_cohort(17, count)
    reference = weighted_average(private, weights)
    accumulator = StreamingAccumulator()
    for state, weight in zip(private, weights):
        accumulator.fold(state, weight)
    if exact:
        assert vectors_equal(accumulator.result(), reference)
    else:
        assert relative_error(accumulator.result(), reference) <= 1e-12


@pytest.mark.parametrize("count,exact", [(9, True), (48, False)])
def test_fedavgm_momentum_fold_parity(count, exact):
    states, weights = random_layout_states(23, count)
    global_state = weighted_average(states[:1], [1.0])
    layout = global_state.layout
    momentum = 0.9
    velocity = np.zeros(layout.total_size)

    def momentum_step(average):
        delta = state_vector(global_state, layout) - state_vector(average, layout)
        new_velocity = momentum * velocity + delta
        return FlatState(layout, state_vector(global_state, layout) - new_velocity)

    reference = momentum_step(weighted_average(states, weights))
    accumulator = StreamingAccumulator()
    for state, weight in zip(states, weights):
        accumulator.fold(state, weight)
    streamed = momentum_step(accumulator.result())
    if exact:
        assert vectors_equal(streamed, reference)
    else:
        assert relative_error(streamed, reference) <= 1e-12


# ---------------------------------------------------------------------------
# FedBuff delta accumulator
# ---------------------------------------------------------------------------


def _delta_cohort(seed, count):
    rng = np.random.default_rng(seed)
    layout_states, weights = random_layout_states(seed, count + 2)
    global_state = weighted_average(layout_states[:1], [1.0])
    layout = global_state.layout
    updates = [
        FlatState(layout, state_vector(global_state, layout) + rng.standard_normal(layout.total_size))
        for _ in range(count)
    ]
    dispatches = [
        FlatState(layout, state_vector(global_state, layout) + 0.1 * rng.standard_normal(layout.total_size))
        for _ in range(count)
    ]
    return global_state, layout, updates, dispatches, weights[:count]


def test_delta_accumulator_all_fresh_matches_weighted_average():
    global_state, _, updates, _, weights = _delta_cohort(31, 9)
    accumulator = StreamingDeltaAccumulator()
    for update, weight in zip(updates, weights):
        accumulator.fold(update, global_state, weight, fresh=True)
    reference = weighted_average(updates, weights)
    assert vectors_equal(accumulator.result(global_state), reference)


def test_delta_accumulator_mixed_staleness_is_exact_arrival_order_fold():
    global_state, layout, updates, dispatches, weights = _delta_cohort(37, 9)
    accumulator = StreamingDeltaAccumulator()
    for update, dispatch, weight in zip(updates, dispatches, weights):
        accumulator.fold(update, dispatch, weight, fresh=False)
    total = sum(weights)
    folded = state_vector(global_state, layout).copy()
    for update, dispatch, weight in zip(updates, dispatches, weights):
        folded += (weight / total) * (
            state_vector(update, layout) - state_vector(dispatch, layout)
        )
    assert vectors_equal(accumulator.result(global_state), FlatState(layout, folded))


def test_delta_accumulator_spilled_stays_close():
    global_state, layout, updates, dispatches, weights = _delta_cohort(41, 40)
    accumulator = StreamingDeltaAccumulator(parity_limit=4)
    for update, dispatch, weight in zip(updates, dispatches, weights):
        accumulator.fold(update, dispatch, weight, fresh=False)
    assert accumulator.spilled
    total = sum(weights)
    folded = state_vector(global_state, layout).copy()
    for update, dispatch, weight in zip(updates, dispatches, weights):
        folded += (weight / total) * (
            state_vector(update, layout) - state_vector(dispatch, layout)
        )
    assert relative_error(accumulator.result(global_state), FlatState(layout, folded)) <= 1e-12


def test_delta_accumulator_empty_returns_global_unchanged():
    global_state, _, _, _, _ = _delta_cohort(43, 1)
    accumulator = StreamingDeltaAccumulator()
    assert accumulator.result(global_state) is global_state


def test_delta_accumulator_reset_clears_the_buffer():
    global_state, _, updates, dispatches, weights = _delta_cohort(47, 3)
    accumulator = StreamingDeltaAccumulator()
    for update, dispatch, weight in zip(updates, dispatches, weights):
        accumulator.fold(update, dispatch, weight, fresh=False)
    accumulator.reset()
    assert accumulator.count == 0
    assert accumulator.result(global_state) is global_state


# ---------------------------------------------------------------------------
# mid-fold checkpoint state round-trips (bit-identical resume)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("interrupt_at,parity_limit", [(3, 32), (20, 4)])
def test_streaming_accumulator_state_roundtrip(interrupt_at, parity_limit):
    states, weights = random_layout_states(53, 30)
    continuous = StreamingAccumulator(parity_limit=parity_limit)
    resumed = StreamingAccumulator(parity_limit=parity_limit)
    for state, weight in zip(states[:interrupt_at], weights[:interrupt_at]):
        continuous.fold(state, weight)
        resumed.fold(state, weight)
    fresh = StreamingAccumulator()
    fresh.set_state(resumed.state())  # snapshot -> brand-new accumulator
    for state, weight in zip(states[interrupt_at:], weights[interrupt_at:]):
        continuous.fold(state, weight)
        fresh.fold(state, weight)
    assert fresh.count == continuous.count == 30
    assert vectors_equal(fresh.result(), continuous.result())


@pytest.mark.parametrize("interrupt_at,parity_limit", [(2, 32), (10, 3)])
def test_delta_accumulator_state_roundtrip(interrupt_at, parity_limit):
    global_state, _, updates, dispatches, weights = _delta_cohort(59, 15)
    continuous = StreamingDeltaAccumulator(parity_limit=parity_limit)
    resumed = StreamingDeltaAccumulator(parity_limit=parity_limit)
    entries = list(zip(updates, dispatches, weights))
    for update, dispatch, weight in entries[:interrupt_at]:
        continuous.fold(update, dispatch, weight, fresh=False)
        resumed.fold(update, dispatch, weight, fresh=False)
    fresh = StreamingDeltaAccumulator()
    fresh.set_state(resumed.state())
    for update, dispatch, weight in entries[interrupt_at:]:
        continuous.fold(update, dispatch, weight, fresh=False)
        fresh.fold(update, dispatch, weight, fresh=False)
    assert vectors_equal(fresh.result(global_state), continuous.result(global_state))


# ---------------------------------------------------------------------------
# error paths and the registry
# ---------------------------------------------------------------------------


def test_registry_names_and_streaming_flags():
    assert create_aggregator(None).name == "gemv"
    for name in AGGREGATION_CHOICES:
        aggregator = create_aggregator(name)
        assert aggregator.name == name
        assert aggregator.streaming == (name != "gemv")
        assert name in aggregator.describe()


def test_unknown_aggregation_mode_is_rejected():
    with pytest.raises(ValueError, match="unknown aggregation mode"):
        create_aggregator("quantum")


def test_negative_weights_are_rejected():
    states, _ = random_layout_states(61, 1)
    for accumulator in (
        StreamingAccumulator(),
        ShardedAccumulator(),
        GemvAggregator().accumulator(),
    ):
        with pytest.raises(ValueError, match="non-negative"):
            accumulator.fold(states[0], -1.0)
    with pytest.raises(ValueError, match="non-negative"):
        StreamingDeltaAccumulator().fold(states[0], states[0], -0.5, fresh=True)


def test_all_zero_weights_are_rejected_after_spill():
    states, _ = random_layout_states(67, 3)
    accumulator = StreamingAccumulator(parity_limit=0)
    for state in states:
        accumulator.fold(state, 0.0)
    with pytest.raises(ValueError, match="must not all be zero"):
        accumulator.result()
    delta = StreamingDeltaAccumulator(parity_limit=0)
    delta.fold(states[0], states[1], 0.0, fresh=False)
    with pytest.raises(ValueError, match="must not all be zero"):
        delta.result(states[0])


def test_mismatched_states_and_weights_are_rejected():
    states, weights = random_layout_states(71, 4)
    for mode in ("streaming", "sharded"):
        with pytest.raises(ValueError, match="states but"):
            create_aggregator(mode).aggregate(states, weights[:-1])


def test_invalid_construction_parameters_are_rejected():
    with pytest.raises(ValueError, match="parity_limit"):
        StreamingAccumulator(parity_limit=-1)
    with pytest.raises(ValueError, match="parity_limit"):
        StreamingAggregator(parity_limit=-2)
    with pytest.raises(ValueError, match="shards"):
        ShardedAccumulator(shards=0)
    with pytest.raises(ValueError, match="shards"):
        ShardedAggregator(shards=-1)
    # The gemv delta accumulator never spills: every FedBuff fold is exact.
    states, weights = random_layout_states(73, DEFAULT_PARITY_LIMIT + 8)
    delta = GemvAggregator().delta_accumulator()
    for state, weight in zip(states, weights):
        delta.fold(state, states[0], weight, fresh=False)
    assert not delta.spilled


# ---------------------------------------------------------------------------
# GEMV scratch right-sizing (the latent over-allocation fix)
# ---------------------------------------------------------------------------


def test_aggregation_scratch_shrinks_when_the_cohort_shrinks():
    release_aggregation_scratch()
    try:
        big_states, big_weights = random_layout_states(73, 64)
        layout = StateLayout.from_state(big_states[0])
        weighted_average(big_states, big_weights)
        big_bytes = aggregation_scratch_bytes()
        assert big_bytes == 64 * layout.total_size * 8
        # A much smaller cohort must not keep the (64, P) scratch alive.
        small_states, small_weights = (big_states[:4], big_weights[:4])
        weighted_average(small_states, small_weights)
        small_bytes = aggregation_scratch_bytes()
        assert small_bytes == 4 * layout.total_size * 8
        assert small_bytes < big_bytes
    finally:
        release_aggregation_scratch()
    assert aggregation_scratch_bytes() == 0


def test_aggregation_scratch_reuses_within_headroom():
    release_aggregation_scratch()
    try:
        states, weights = random_layout_states(79, 8)
        layout = StateLayout.from_state(states[0])
        weighted_average(states, weights)
        assert aggregation_scratch_bytes() == 8 * layout.total_size * 8
        # 4..8 rows fit the 2x headroom window of an 8-row scratch: no realloc.
        weighted_average(states[:4], weights[:4])
        assert aggregation_scratch_bytes() == 8 * layout.total_size * 8
        # 3 rows fall below the window: right-sized down.
        weighted_average(states[:3], weights[:3])
        assert aggregation_scratch_bytes() == 3 * layout.total_size * 8
    finally:
        release_aggregation_scratch()
