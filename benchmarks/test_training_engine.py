"""Benchmark: the local-training compute engine, per-round wall clock.

Measures one 9-client FedAvg round (the exact setup of
``test_execution_backends.py``) under two compute dtypes on the serial
backend, isolating the compute engine from the executor:

``float64 engine``
    Persistent layer workspaces, fused conv kernels and contiguous-batch
    collation in float64 (the default configuration).
``float32 engine``
    The same plus the opt-in float32 compute dtype: half the memory
    bandwidth through the im2col/GEMM hot loop.

A single-client FLNet step benchmark (the CI perf-smoke gate) asserts
float32 > float64 on the same fixed workload, and the float32 loss
trajectory is checked against float64 to 1e-3.
"""

from __future__ import annotations

import time

import numpy as np
from conftest import (
    BENCH_CHANNELS as CHANNELS,
    BENCH_GRID as GRID,
    BENCH_LOCAL_STEPS as LOCAL_STEPS,
    BENCH_SAMPLES_PER_CLIENT as SAMPLES_PER_CLIENT,
    BenchModelBuilder,
    fresh_clients,
    synthetic_dataset,
    write_records,
    write_result,
)

from repro.fl import FLConfig, SeededModelFactory, SerialBackend, create_algorithm
from repro.fl.trainer import LocalTrainer
from repro.models import FLNet

STEP_BENCH_STEPS = 12


def bench_config(compute_dtype: str) -> FLConfig:
    return FLConfig(
        rounds=1,
        local_steps=LOCAL_STEPS,
        finetune_steps=1,
        learning_rate=2e-3,
        batch_size=4,
        seed=0,
        compute_dtype=compute_dtype,
    )


def run_round(config: FLConfig):
    """One timed FedAvg round on the serial backend; returns (training, seconds)."""
    factory = SeededModelFactory(BenchModelBuilder(), base_seed=0)
    algorithm = create_algorithm(
        "fedavg", fresh_clients(config), factory, config, backend=SerialBackend()
    )
    start = time.perf_counter()
    training = algorithm.run()
    return training, time.perf_counter() - start


def run_step_bench(compute_dtype: str) -> float:
    """Seconds for a fixed single-client FLNet training-step workload."""
    dataset = synthetic_dataset(1, "step_bench", SAMPLES_PER_CLIENT)
    model = FLNet(CHANNELS, seed=0)
    trainer = LocalTrainer(
        batch_size=4,
        learning_rate=2e-3,
        rng=np.random.default_rng(0),
        compute_dtype=compute_dtype,
    )
    # Warm the engine (workspace allocation, index memoization, dtype cast)
    # outside the timed region: steady-state is what a round pays.
    trainer.train_steps(model, dataset, steps=2)
    start = time.perf_counter()
    trainer.train_steps(model, dataset, steps=STEP_BENCH_STEPS)
    return time.perf_counter() - start


def test_training_engine_round_speedup(benchmark):
    def measure():
        f64_training, f64_seconds = run_round(bench_config("float64"))
        f32_training, f32_seconds = run_round(bench_config("float32"))
        return f64_training, f64_seconds, f32_training, f32_seconds

    f64_training, f64_seconds, f32_training, f32_seconds = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )

    # The float32 trajectory must track float64 (reduced precision, same
    # optimization), and both configurations must actually have trained.
    f64_losses = [record.mean_loss for record in f64_training.history]
    f32_losses = [record.mean_loss for record in f32_training.history]
    np.testing.assert_allclose(f32_losses, f64_losses, rtol=1e-3)

    step_f64 = run_step_bench("float64")
    step_f32 = run_step_bench("float32")

    round_speedup = f64_seconds / f32_seconds if f32_seconds > 0 else float("inf")
    step_speedup = step_f64 / step_f32 if step_f32 > 0 else float("inf")

    lines = [
        "Training-engine throughput: one 9-client FedAvg round, serial backend",
        f"({LOCAL_STEPS} local steps/client, FLNet, {GRID}x{GRID} synthetic grids, batch 4)",
        "",
        f"{'engine':<18}{'seconds':>10}{'speedup':>10}",
        f"{'float64 engine':<18}{f64_seconds:>10.3f}{'1.00x':>10}",
        f"{'float32 engine':<18}{f32_seconds:>10.3f}{round_speedup:>9.2f}x",
        "",
        f"single-client FLNet step benchmark ({STEP_BENCH_STEPS} steps, warm):",
        f"{'float64':<18}{step_f64:>10.3f}",
        f"{'float32':<18}{step_f32:>10.3f}{step_speedup:>9.2f}x",
        "",
        "required: float32 beats float64 on the step benchmark; float32 loss",
        "curve within 1e-3 of float64",
    ]
    text = "\n".join(lines)
    print("\n" + text)
    write_result("training_engine", text)
    write_records(
        "training_engine",
        [
            {
                "op": "fedavg_round",
                "config": "float64_engine",
                "ms": round(f64_seconds * 1000, 3),
                "speedup": 1.0,
            },
            {
                "op": "fedavg_round",
                "config": "float32_engine",
                "ms": round(f32_seconds * 1000, 3),
                "speedup": round(round_speedup, 3),
            },
            {
                "op": "flnet_step",
                "config": "float64_engine",
                "ms": round(step_f64 * 1000, 3),
                "speedup": 1.0,
            },
            {
                "op": "flnet_step",
                "config": "float32_engine",
                "ms": round(step_f32 * 1000, 3),
                "speedup": round(step_speedup, 3),
            },
        ],
    )

    assert step_speedup > 1.0, (
        f"float32 must beat float64 on the FLNet step benchmark, got {step_speedup:.2f}x"
    )
