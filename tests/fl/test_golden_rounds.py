"""Golden round records: the pinned behaviour of every round loop.

Each row runs one algorithm on the tiny 2-client FLNet roster under one
combination of round policy, aggregation mode, fault setting and channel,
and records what the run produced: the final state digest, the per-round
mean losses and simulated times, the scheduling totals, the number of
folded updates and the resilience totals.  ``golden_rounds.json`` holds the
records; this test only reads it.

Digests are exact bits of a trained model, so they only repeat on the BLAS
build and CPU that wrote them.  The file therefore also stores a
*numerics canary* — the digest of one plain local-training pass, which no
round-loop code touches.  When the canary matches, every record must match
exactly.  When it does not (another machine), the test still checks the
counts (folds, drops, retries) exactly, the simulated times to 1e-12 and
the losses to 1e-6 relative, and that rows which shared a digest when the
file was written still share one here.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.fl import (
    FaultPlan,
    FederatedClient,
    FederatedServer,
    FLConfig,
    ResilienceManager,
    RetryPolicy,
    SeededModelFactory,
    create_aggregator,
    create_algorithm,
    create_channel,
    create_scheduler,
)
from repro.fl.faults.plan import FaultDecision
from repro.fl.parameters import state_digest
from repro.models import FLNet

GOLDEN_PATH = Path(__file__).with_name("golden_rounds.json")

CONFIG = FLConfig(
    rounds=3,
    local_steps=2,
    learning_rate=3e-3,
    batch_size=2,
    proximal_mu=1e-3,
)

BARRIER_ALGORITHMS = ("fedavg", "fedprox", "fedavgm", "dp_fedprox")
AGGREGATIONS = ("gemv", "streaming")

#: Round policies by row name: keyword arguments of ``create_scheduler``.
SCHEDULES = {
    "none": None,
    "sync": {"straggler": "lognormal", "seed": 3},
    "deadline": {
        "straggler": "heavytail",
        "round_policy": "deadline",
        "deadline": 8.0,
        "seed": 1,
    },
    "fedbuff2": {"round_policy": "fedbuff", "buffer_size": 2, "straggler": "lognormal", "seed": 3},
    "fedbuff1": {"round_policy": "fedbuff", "buffer_size": 1, "straggler": "lognormal", "seed": 3},
}


class TinyModelBuilder:
    def __init__(self, channels: int):
        self.channels = channels

    def __call__(self, seed: int) -> FLNet:
        return FLNet(self.channels, hidden_filters=8, kernel_size=5, seed=seed)


class AlwaysFailClient1Plan(FaultPlan):
    """Client 1 always raises; client 2 is healthy."""

    def __init__(self):
        super().__init__(exception_rate=0.5, seed=0)

    def draw(self, client_id):
        self._draws[client_id] = self._draws.get(client_id, 0) + 1
        if str(client_id) == "1":
            self._injected["exception"] += 1
            return FaultDecision(kind="exception")
        return FaultDecision(kind=None)


def _resilience(faults: str):
    if faults == "healed":
        return ResilienceManager(
            plan=FaultPlan(exception_rate=0.4, seed=5),
            retry=RetryPolicy(max_retries=8, seed=5),
        )
    if faults == "give_up":
        return ResilienceManager(
            plan=AlwaysFailClient1Plan(), retry=RetryPolicy(max_retries=1, seed=0), quorum=0.5
        )
    return None


def golden_rows():
    """Row id -> options, in file order."""
    rows = {}

    def add(algorithm, schedule, aggregation, faults="none", channel=None):
        parts = [algorithm, schedule, aggregation]
        if faults != "none":
            parts.append(faults)
        if channel is not None:
            parts.append(channel)
        rows["-".join(parts)] = {
            "algorithm": algorithm,
            "schedule": schedule,
            "aggregation": aggregation,
            "faults": faults,
            "channel": channel,
        }

    for algorithm in BARRIER_ALGORITHMS:
        for schedule in ("none", "sync", "deadline"):
            for aggregation in AGGREGATIONS:
                add(algorithm, schedule, aggregation)
        for aggregation in AGGREGATIONS:
            add(algorithm, "sync", aggregation, faults="healed")
    for algorithm in ("fedavg", "fedprox"):
        for aggregation in AGGREGATIONS:
            add(algorithm, "fedbuff2", aggregation)
    for aggregation in AGGREGATIONS:
        add("fedavg", "fedbuff1", aggregation)
    # A client that exhausts its retries, pinned on the batch (gemv) path.
    add("fedavg", "sync", "gemv", faults="give_up")
    add("dp_fedprox", "deadline", "gemv", faults="give_up")
    add("fedavg", "none", "gemv", channel="quantize8")
    add("fedavg", "sync", "streaming", channel="quantize8")
    return rows


def make_roster(datasets, num_channels):
    """A fresh 2-client roster (fresh RNG streams) over the tiny datasets."""
    train, test, train_itc, test_itc = datasets
    factory = SeededModelFactory(TinyModelBuilder(num_channels), base_seed=0)
    return [
        FederatedClient(1, train, test, factory, CONFIG),
        FederatedClient(2, train_itc, test_itc, factory, CONFIG),
    ]


def _float(value) -> "float | None":
    """JSON-safe float: ``None`` stands for NaN (a round that kept nothing)."""
    value = float(value)
    return None if math.isnan(value) else value


def run_row(options, datasets, num_channels) -> dict:
    """Run one golden row and return its record."""
    schedule = SCHEDULES[options["schedule"]]
    scheduler = create_scheduler(**schedule) if schedule is not None else None
    channel = create_channel("quantize", compression_bits=8) if options["channel"] else None
    resilience = _resilience(options["faults"])
    server = FederatedServer(aggregator=create_aggregator(options["aggregation"]))
    clients = make_roster(datasets, num_channels)
    algorithm = create_algorithm(
        options["algorithm"],
        clients,
        SeededModelFactory(TinyModelBuilder(num_channels), base_seed=0),
        CONFIG,
        channel=channel,
        scheduler=scheduler,
        server=server,
        resilience=resilience,
    )
    training = algorithm.run()
    record = {
        "state_digest": state_digest(training.global_state),
        "mean_loss": [_float(r.mean_loss) for r in training.history],
        "simulated_time_s": [
            _float(r.extra["simulated_time_s"]) if "simulated_time_s" in r.extra else None
            for r in training.history
        ],
        "folded_updates": server.folded_updates,
    }
    if scheduler is not None:
        summary = scheduler.summary()
        record["scheduling"] = {
            key: value
            for key, value in summary.to_dict().items()
            if not isinstance(value, str)
        }
    if resilience is not None:
        summary = resilience.summary()
        record["resilience"] = {
            "retries": summary.retries,
            "gave_up": summary.gave_up,
            "dropped_clients": list(summary.dropped_clients),
        }
    return record


def _nan(values):
    return [math.nan if value is None else value for value in values]


def numerics_canary(datasets, num_channels) -> str:
    """Digest of one plain local-training pass (no round loop involved)."""
    client = make_roster(datasets, num_channels)[0]
    state, _ = client.local_train(client.initial_state(), steps=2, proximal_mu=0.0)
    return state_digest(state)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def datasets(tiny_train_dataset, tiny_test_dataset, tiny_train_dataset_itc, tiny_test_dataset_itc):
    return (tiny_train_dataset, tiny_test_dataset, tiny_train_dataset_itc, tiny_test_dataset_itc)


@pytest.fixture(scope="module")
def same_numerics(golden, datasets, num_channels) -> bool:
    return numerics_canary(datasets, num_channels) == golden["numerics_canary"]


@pytest.fixture(scope="module")
def live_digests():
    """Digests produced so far in this module, by row id."""
    return {}


def test_rows_cover_the_matrix(golden):
    assert list(golden["rows"]) == list(golden_rows())


@pytest.mark.parametrize("row_id", list(golden_rows()))
def test_golden_round_record(
    row_id, golden, datasets, num_channels, same_numerics, live_digests
):
    expected = golden["rows"][row_id]
    actual = run_row(golden_rows()[row_id], datasets, num_channels)
    live_digests[row_id] = actual["state_digest"]
    if same_numerics:
        assert actual == expected
        return
    # Another BLAS build: counts stay exact; simulated times only pass
    # through libm, so they may move by an ulp.
    assert actual["folded_updates"] == expected["folded_updates"]
    assert actual.get("resilience") == expected.get("resilience")
    assert actual.get("scheduling", {}) == pytest.approx(expected.get("scheduling", {}), rel=1e-12)
    assert _nan(actual["simulated_time_s"]) == pytest.approx(
        _nan(expected["simulated_time_s"]), rel=1e-12, nan_ok=True
    )
    assert _nan(actual["mean_loss"]) == pytest.approx(
        _nan(expected["mean_loss"]), rel=1e-6, nan_ok=True
    )
    for other, digest in live_digests.items():
        shared = golden["rows"][other]["state_digest"] == expected["state_digest"]
        assert (digest == actual["state_digest"]) == shared, other
