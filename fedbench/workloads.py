"""The three benchmark workloads and one timed trial of each.

Every workload is an :class:`~repro.experiments.ExperimentConfig` built from
the ``smoke`` preset and the workload seed: the seed is the run seed and the
corpus ``base_seed``, so it decides the synthesized designs, placements,
model initialisation and client sampling.  A trial runs the configuration
through the public :class:`~repro.experiments.ExperimentRunner` API, from
an empty roster to the evaluated :class:`~repro.fl.EvaluationRow`.
"""

from __future__ import annotations

import math
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional

from fedbench.layers import DISPATCH, EVALUATE, TASKS_COUNTER
from fedbench.tracer import Tracer
from repro.experiments import ExperimentConfig, ExperimentRunner, smoke
from repro.fl.net import run_client
from repro.fl.parameters import state_digest

#: BLAS pool size of every workload (the ``blas_threads`` config value).
BLAS_THREADS = 2
#: Clients sampled per round from the virtual population of ``population-q8``.
COHORT = 16
#: Seconds to wait for the in-thread joiner to connect, and to end after GOODBYE.
JOIN_TIMEOUT_S = 30.0
GOODBYE_GRACE_S = 5.0


class BenchmarkError(RuntimeError):
    """A correctness check failed; the benchmark exits non-zero."""


def _seeded(config: ExperimentConfig, seed: int, **fl) -> ExperimentConfig:
    return replace(
        config,
        corpus=replace(config.corpus, base_seed=seed),
        fl=replace(config.fl, **fl),
    )


def train_flnet(seed: int) -> ExperimentConfig:
    config = _seeded(smoke("flnet", seed=seed), seed, rounds=6, local_steps=8, batch_size=4)
    return config.with_algorithms(["fedprox"]).with_execution(
        backend="serial", blas_threads=BLAS_THREADS
    )


def population_q8(seed: int) -> ExperimentConfig:
    config = _seeded(smoke("routenet", seed=seed), seed, rounds=2, local_steps=1, batch_size=2)
    return (
        config.with_algorithms(["fedavg"])
        .with_execution(backend="serial", blas_threads=BLAS_THREADS)
        .with_scheduling(clients_per_round=COHORT, sampler="uniform")
        .with_population(population=10_000, aggregation="streaming")
        .with_transport(compression="quantize", compression_bits=8)
    )


def wire_routenet(seed: int) -> ExperimentConfig:
    config = _seeded(smoke("routenet", seed=seed), seed, rounds=20, local_steps=1)
    return config.with_algorithms(["fedprox"]).with_execution(
        backend="wire", blas_threads=BLAS_THREADS
    )


@dataclass(frozen=True)
class Workload:
    name: str
    config: Callable[[int], ExperimentConfig]
    #: Synthesize the corpus into a fresh directory on every trial (else a
    #: cache warmed before timing is loaded).
    cold: bool


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("train-flnet", train_flnet, cold=True),
        Workload("population-q8", population_q8, cold=False),
        Workload("wire-routenet", wire_routenet, cold=False),
    )
}


@dataclass
class Trial:
    """What one trial measured and produced."""

    setup_s: float
    run_s: float
    round_s: List[float]
    wall_s: float
    digest: str
    auc: float
    tasks: int
    failed: int
    uplink_bytes_per_round: float
    channel_uplink_bytes: int = 0
    channel_downlink_bytes: int = 0
    population: Dict[str, object] = field(default_factory=dict)
    network: Dict[str, int] = field(default_factory=dict)


class Joiner:
    """An in-thread ``repro join``: its own runner, roster and corpus load."""

    def __init__(self, config: ExperimentConfig, cache_dir: Path, port: int):
        self.error: Optional[str] = None
        self.thread = threading.Thread(
            target=self._run, args=(config, cache_dir, port), name="fedbench-joiner", daemon=True
        )
        self.thread.start()

    def _run(self, config: ExperimentConfig, cache_dir: Path, port: int) -> None:
        try:
            runner = ExperimentRunner(config, cache_dir=cache_dir)
            run_client(
                runner.federated_clients(),
                config.wire_host,
                port,
                fingerprint=runner.wire_fingerprint(),
            )
        except Exception:  # reported by finish() as a failed check
            self.error = traceback.format_exc()

    def finish(self) -> None:
        """Wait briefly for the joiner to end after GOODBYE; fail if it does not."""
        self.thread.join(timeout=GOODBYE_GRACE_S)
        if self.thread.is_alive():
            raise BenchmarkError(
                f"joiner thread still alive {GOODBYE_GRACE_S:g}s after the server's GOODBYE"
            )
        if self.error is not None:
            raise BenchmarkError(f"joiner failed:\n{self.error}")


def run_trial(config: ExperimentConfig, cache_dir: Path, scratch: Path, tracer: Tracer) -> Trial:
    """One workload run, start to evaluated row, under ``tracer``'s patches.

    ``tracer`` must have at least the round clock installed: round
    boundaries are the outermost calls into the backend's dispatch methods,
    and the last round ends when evaluation starts (``run()`` has returned).
    """
    if config.backend == "wire":
        journal = tempfile.mkdtemp(prefix="journal-", dir=scratch)
        config = config.with_wire(wire_journal_dir=journal)
    start = time.perf_counter()
    runner = ExperimentRunner(config, cache_dir=cache_dir)
    clients = runner.federated_clients()
    backend = runner.execution_backend()
    joiner = None
    network: Dict[str, int] = {}
    try:
        if config.backend == "wire":
            port = backend.listen([client.client_id for client in clients])
            joiner = Joiner(config, cache_dir, port)
            if not backend.wait_for_clients(JOIN_TIMEOUT_S):
                raise BenchmarkError(f"joiner did not connect within {JOIN_TIMEOUT_S:g}s")
        outcome = runner.run_algorithm(config.algorithms[0], clients, backend=backend)
        end = time.perf_counter()
        if config.backend == "wire":
            network = backend.network_summary()
    finally:
        backend.close()
        if joiner is not None:
            joiner.finish()
    wall = time.perf_counter() - start

    rounds = config.fl.rounds
    dispatches = tracer.named(DISPATCH)
    evaluations = tracer.named(EVALUATE)
    if len(dispatches) != rounds or len(evaluations) != 1:
        raise BenchmarkError(
            f"expected {rounds} backend dispatches and 1 evaluation, "
            f"saw {len(dispatches)} and {len(evaluations)}"
        )
    boundaries = [span.start for span in dispatches] + [evaluations[0].start]

    training = outcome.training
    resilience = outcome.resilience
    tasks = tracer.counts[TASKS_COUNTER]
    communication = outcome.communication
    if communication is not None:
        uplink = communication.total_uplink_bytes
    elif network:
        uplink = network["bytes_received"]
    else:
        # Raw in-process updates: each one is the float64 state.
        state_bytes = sum(value.size * 8 for value in training.global_state.values())
        uplink = state_bytes * tasks
    return Trial(
        setup_s=boundaries[0] - start,
        run_s=end - start,
        round_s=[b - a for a, b in zip(boundaries, boundaries[1:])],
        wall_s=wall,
        digest=state_digest(training.global_state),
        auc=float(outcome.evaluation.average_auc),
        tasks=tasks,
        failed=(resilience.retries + resilience.gave_up) if resilience is not None else 0,
        uplink_bytes_per_round=uplink / rounds,
        channel_uplink_bytes=communication.total_uplink_bytes if communication else 0,
        channel_downlink_bytes=communication.total_downlink_bytes if communication else 0,
        population=dict(outcome.population or {}),
        network=dict(network),
    )


def serial_digest(config: ExperimentConfig, cache_dir: Path) -> str:
    """Final global-state digest of ``config`` run on the serial backend."""
    serial = config.with_execution(backend="serial")
    outcome = ExperimentRunner(serial, cache_dir=cache_dir).run().outcomes[0]
    return state_digest(outcome.training.global_state)


def check_trial(config: ExperimentConfig, trial: Trial) -> List[str]:
    """The per-trial correctness checks; returns the failures."""
    failures = []
    if not (math.isfinite(trial.auc) and 0.0 <= trial.auc <= 1.0):
        failures.append(f"final AUC {trial.auc!r} is not a finite value in [0, 1]")
    if trial.tasks < 1:
        failures.append("no client task was dispatched")
    if trial.failed:
        failures.append(f"{trial.failed} of {trial.tasks} client tasks failed or were retried")
    if config.population is not None:
        eager = trial.population.get("eager_clients_before_sampling")
        folded = trial.population.get("folded_updates")
        expected = config.fl.rounds * config.clients_per_round
        if eager != 0:
            failures.append(f"{eager} clients were built before sampling (expected 0)")
        if folded != expected:
            failures.append(f"{folded} updates folded, expected {expected}")
    return failures
