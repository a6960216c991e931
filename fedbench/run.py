"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 fedbench/run.py --workload train-flnet --seed 1 --seconds 20 --trace 0

``--trace 0`` repeats whole trials (set-up, rounds, evaluation) for about
``--seconds`` seconds, at least three times, and reports the end-to-end
metrics.  ``--trace 1`` runs two untraced trials and one traced trial and
reports the per-layer metrics of the traced one; it also writes the spans
as a Chrome trace under ``.fedbench_out/``.  Both modes check the program's
outputs and exit non-zero when a check fails.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--workload all`` runs every workload, each in its own
process, and exits non-zero if any of them fails.  See
``fedbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SCRATCH_ROOT = ROOT / ".fedbench_tmp"
OUTPUT_DIR = ROOT / ".fedbench_out"
#: Trials per untraced run, at least; more while ``--seconds`` allows.
MIN_TRIALS = 3


def declared_units(trace: int) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {item["name"]: item["unit"] for item in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def environment(workload: str, seed: int, config) -> Dict[str, object]:
    """Machine, library and input identity recorded with every result."""
    import numpy

    from repro.utils.threadpools import blas_info, get_blas_threads

    info = blas_info()
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas_vendor": info.vendor,
        "blas_version": info.version,
        "blas_threads": get_blas_threads(),
        "blas_threads_config": config.blas_threads,
        # repro.utils.threadpools controls the first BLAS it finds mapped,
        # which need not be the one NumPy calls; record NumPy's own too.
        "numpy_blas": numpy_blas(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "config": {
            "model": config.model,
            "algorithm": config.algorithms[0],
            "backend": config.backend,
            "rounds": config.fl.rounds,
            "local_steps": config.fl.local_steps,
            "batch_size": config.fl.batch_size,
            "clients": len(config.client_specs),
            "population": config.population,
            "clients_per_round": config.clients_per_round,
            "compression": config.compression,
            "corpus_base_seed": config.corpus.base_seed,
        },
    }


def numpy_blas() -> Dict[str, object]:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": blas.get("name"), "version": blas.get("version")}


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(args, scratch: Path) -> Tuple[Dict[str, float], List[str], Dict[str, object]]:
    """Trials, checks and metrics of one invocation.

    Returns ``(metrics, failures, record)``; ``record`` holds everything
    else worth keeping (environment, per-trial values, digests).
    """
    from fedbench.layers import install_layers, install_round_clock, layer_metrics
    from fedbench.tracer import Tracer
    from fedbench.workloads import WORKLOADS, check_trial, run_trial, serial_digest

    workload = WORKLOADS[args.workload]
    config = workload.config(args.seed)
    record: Dict[str, object] = {"environment": environment(args.workload, args.seed, config)}

    shared_cache = None
    if not workload.cold:
        # Warm the corpus cache before any timing starts.
        from repro.experiments import ExperimentRunner

        shared_cache = Path(tempfile.mkdtemp(prefix="corpus-", dir=scratch))
        ExperimentRunner(config, cache_dir=shared_cache).client_data()

    def trial(traced: bool):
        cache = shared_cache or Path(tempfile.mkdtemp(prefix="cold-", dir=scratch))
        tracer = Tracer()
        (install_layers if traced else install_round_clock)(tracer)
        try:
            return run_trial(config, cache, scratch, tracer), tracer
        finally:
            tracer.uninstall()

    trials = []
    began = time.perf_counter()
    if args.trace:
        # The first trial of a process runs cold (allocator, lazy imports),
        # so the overhead compares the traced trial with the second one.
        warmup, _ = trial(traced=False)
        untraced, _ = trial(traced=False)
        traced, tracer = trial(traced=True)
        trials = [warmup, untraced, traced]
    else:
        while True:
            trials.append(trial(traced=False)[0])
            elapsed = time.perf_counter() - began
            typical = statistics.median(t.wall_s for t in trials)
            if len(trials) >= MIN_TRIALS and elapsed + typical > args.seconds:
                break

    failures: List[str] = []
    for item in trials:
        failures.extend(check_trial(config, item))
    digests = sorted({item.digest for item in trials})
    if len(digests) != 1:
        label = "traced and untraced runs" if args.trace else "trials of one seed"
        failures.append(f"{label} ended in different global states: {digests}")
    if config.backend == "wire":
        reference = serial_digest(config, shared_cache)
        if reference != trials[0].digest:
            failures.append(
                f"wire global state {trials[0].digest} differs from serial {reference}"
            )
        record["serial_digest"] = reference

    if args.trace:
        metrics = layer_metrics(tracer, traced)
        metrics["trace.overhead_s"] = traced.run_s - untraced.run_s
        metrics["eval.final_auc"] = traced.auc
        OUTPUT_DIR.mkdir(exist_ok=True)
        trace_path = OUTPUT_DIR / f"{args.workload}-seed{args.seed}.trace.json"
        trace_path.write_text(json.dumps(tracer.chrome_trace()), encoding="utf-8")
        record["trace_file"] = str(trace_path.relative_to(ROOT))
        record["spans"] = len(tracer.spans)
    else:
        rounds = [value for item in trials for value in item.round_s]
        metrics = {
            "setup_s": statistics.median(t.setup_s for t in trials),
            "round_s": statistics.median(rounds),
            "run_s": statistics.median(t.run_s for t in trials),
            "uplink_bytes_per_round": statistics.median(t.uplink_bytes_per_round for t in trials),
            "peak_rss_mb": peak_rss_mb(),
        }
        record["round_s_samples"] = len(rounds)
        record["round_s_max"] = max(rounds)
    record.update(
        {
            "trials": len(trials),
            "digest": trials[0].digest,
            "final_auc": trials[0].auc,
            "task_failure_ratio": sum(t.failed for t in trials) / sum(t.tasks for t in trials),
            "setup_s_trials": [t.setup_s for t in trials],
            "round_s_trials": [t.round_s for t in trials],
            "run_s_trials": [t.run_s for t in trials],
            "network": trials[-1].network,
            "population": trials[-1].population,
            "attempted": sum(t.tasks for t in trials),
            "failed": sum(t.failed for t in trials),
        }
    )
    for name, value in metrics.items():
        if not math.isfinite(value):
            failures.append(f"metric {name} is not finite: {value!r}")
    return metrics, failures, record


def run_all(args, names) -> int:
    """Every workload in turn, each in its own process so peak RSS is its own."""
    failed = []
    for name in names:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        command += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if subprocess.run(command, check=False).returncode != 0:
            failed.append(name)
    print(f"all workloads: {len(names) - len(failed)} passed, failed: {failed or 'none'}")
    return 1 if failed else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the program's sources are missing ({ROOT / 'src' / 'repro'})", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from fedbench.workloads import WORKLOADS, BenchmarkError

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    SCRATCH_ROOT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH_ROOT))
    try:
        metrics, failures, record = run_workload(args, scratch)
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    units = declared_units(args.trace)
    missing = sorted(set(units) - set(metrics))
    if missing:
        failures.append(f"metrics missing from the run: {missing}")
    record["failures"] = failures
    OUTPUT_DIR.mkdir(exist_ok=True)
    record_path = OUTPUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2, default=str) + "\n", encoding="utf-8")

    print(f"{args.workload} seed={args.seed} trace={args.trace} trials={record['trials']}")
    print("environment " + json.dumps(record["environment"], default=str))
    for name in sorted(metrics):
        print(f"  {name} = {metrics[name]:.6g} {units.get(name, '')}")
    print(f"  final_auc = {record['final_auc']:.6g}")
    print(f"  task_failure_ratio = {record['task_failure_ratio']:.6g}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in sorted(units) if name in metrics
        },
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
