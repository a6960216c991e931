"""Which public callables of the program each layer metric times.

:func:`install_round_clock` wraps only the execution backend's dispatch
entry points and :func:`repro.fl.evaluate_result`: the untraced run needs
them to find round boundaries, and they cost two wrapped calls per round.
:func:`install_layers` wraps every callable of the per-layer table for the
traced run.  :func:`layer_metrics` turns a traced trial's spans into the
per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

from typing import Dict

from fedbench.tracer import EACH, ITERATE, Tracer

#: Span names shared with the trial runner.
DISPATCH = "execution.map"
CLIENT_TASK = "execution.client_task"
EVALUATE = "eval.evaluate_result"
TASKS_COUNTER = "execution.tasks.n"


def _tasks(args, kwargs, result) -> int:
    return len(args[1] if len(args) > 1 else kwargs["tasks"])


def install_round_clock(tracer: Tracer) -> None:
    """Spans at round boundaries: backend dispatch and result evaluation."""
    from repro.experiments import runner
    from repro.fl.execution.backend import ExecutionBackend

    import repro.fl.net  # noqa: F401  (registers the wire backend class)

    count = (TASKS_COUNTER, _tasks)
    tracer.patch(ExecutionBackend, "map", DISPATCH, count=count)
    tracer.patch(ExecutionBackend, "imap", DISPATCH, mode=ITERATE, count=count)
    tracer.patch_overrides(ExecutionBackend, "imap_outcomes", DISPATCH, mode=ITERATE, count=count)
    tracer.patch(runner, "evaluate_result", EVALUATE)


def install_layers(tracer: Tracer) -> None:
    """Spans around every public callable of the per-layer table."""
    from repro.data import clients as corpus
    from repro.data.dataset import RoutabilityDataset
    from repro.eda import maps
    from repro.eda.drc import DrcHotspotLabeler
    from repro.features.extraction import FeatureExtractor
    from repro.fl import client as fl_client
    from repro.fl import trainer
    from repro.fl.aggregation.streaming import StreamingDeltaAccumulator, UpdateAccumulator
    from repro.fl.execution import backend
    from repro.fl.net import client as net_client
    from repro.fl.net import messages, server
    from repro.fl.net.framing import FrameReader
    from repro.fl.net.journal import MessageJournal
    from repro.fl.population import ClientHandle
    from repro.fl.transport.channel import Channel
    from repro.fl.transport.codecs import Codec
    from repro.nn.layers.conv import Conv2d, ConvTranspose2d
    from repro.nn.losses import Loss
    from repro.nn.optim import Optimizer

    install_round_clock(tracer)

    # repro.eda + repro.features (corpus synthesis)
    tracer.patch(corpus, "generate_design", "eda.generate_design")
    tracer.patch(
        corpus,
        "sweep_placements",
        "eda.sweep_placements",
        count=("eda.placements.n", lambda args, kwargs, result: len(result)),
    )
    tracer.patch(maps, "all_maps", "eda.maps")
    tracer.patch(DrcHotspotLabeler, "label", "eda.drc_label")
    tracer.patch(FeatureExtractor, "extract", "features.extract")

    # repro.data
    tracer.patch(RoutabilityDataset, "load", "data.cache_load")
    # Training draws its batches from infinite_batches, not DataLoader.sample_batch.
    tracer.patch(trainer, "infinite_batches", "data.sample_batch", mode=EACH)

    # repro.nn (+ repro.models, which are built from these layers)
    tracer.patch(Conv2d, "forward", "nn.conv.fwd")
    tracer.patch(Conv2d, "backward", "nn.conv.bwd")
    tracer.patch(ConvTranspose2d, "forward", "nn.conv_t.fwd")
    tracer.patch(ConvTranspose2d, "backward", "nn.conv_t.bwd")
    tracer.patch_overrides(Loss, "forward", "nn.loss")
    tracer.patch_overrides(Loss, "backward", "nn.loss")
    tracer.patch_overrides(Optimizer, "step", "nn.optim.step")

    # repro.fl.trainer
    tracer.patch(
        trainer.LocalTrainer,
        "train_steps",
        "fl.train_steps",
        count=("fl.steps.n", lambda args, kwargs, result: result.steps),
    )

    # repro.fl.population
    tracer.patch(ClientHandle, "materialize", "population.materialize")

    # repro.fl.transport
    tracer.patch_overrides(Codec, "encode", "transport.encode")
    tracer.patch_overrides(Codec, "decode", "transport.decode")
    tracer.patch(Channel, "broadcast", "transport.channel")
    tracer.patch(Channel, "receive", "transport.channel")

    # repro.fl.aggregation
    for accumulator in (UpdateAccumulator, StreamingDeltaAccumulator):
        tracer.patch_overrides(accumulator, "fold", "aggregation.fold")
        tracer.patch_overrides(accumulator, "result", "aggregation.result")

    # repro.fl.execution: one client task, on whichever thread runs it
    tracer.patch(backend, "run_client_task", CLIENT_TASK)
    tracer.patch(net_client, "run_client_task", CLIENT_TASK)

    # repro.fl.net (server loop thread and joiner thread)
    for module in (messages, server, net_client):
        tracer.patch(module, "encode_message", "net.encode_message")
        tracer.patch(module, "decode_message", "net.decode_message")
    tracer.patch(FrameReader, "feed", "net.frame_feed")
    tracer.patch(MessageJournal, "record_task", "net.journal.record_task")
    tracer.patch(MessageJournal, "record_ack", "net.journal.record_ack")

    # repro.fl.evaluation + repro.metrics
    tracer.patch(fl_client, "roc_auc_score", "metrics.roc_auc")


#: Span names whose summed duration is reported as ``<name>.s``.
TIMED = (
    "eda.generate_design",
    "eda.sweep_placements",
    "eda.maps",
    "eda.drc_label",
    "features.extract",
    "data.cache_load",
    "data.sample_batch",
    "nn.conv.fwd",
    "nn.conv.bwd",
    "nn.conv_t.fwd",
    "nn.conv_t.bwd",
    "nn.loss",
    "nn.optim.step",
    "fl.train_steps",
    "population.materialize",
    "transport.encode",
    "transport.decode",
    "aggregation.fold",
    "aggregation.result",
    DISPATCH,
    "net.encode_message",
    "net.decode_message",
    "net.frame_feed",
    "net.journal.record_task",
    "net.journal.record_ack",
    EVALUATE,
    "metrics.roc_auc",
)


def layer_metrics(tracer: Tracer, trial) -> Dict[str, float]:
    """Per-layer metrics of one traced trial (seconds summed over the trial)."""
    calls = lambda name: len(tracer.named(name))  # noqa: E731
    metrics: Dict[str, float] = {f"{name}.s": tracer.total(name) for name in TIMED}
    metrics.update(
        {
            "eda.placements.n": tracer.counts["eda.placements.n"],
            "data.batches.n": calls("data.sample_batch"),
            "nn.conv.n": calls("nn.conv.fwd") + calls("nn.conv_t.fwd"),
            "fl.train_steps.self_s": tracer.self_time("fl.train_steps"),
            "fl.steps.n": tracer.counts["fl.steps.n"],
            "population.materialize.n": trial.population.get("total_materializations", 0),
            "population.peak_materialized.n": trial.population.get("peak_materialized", 0),
            "transport.channel.self_s": tracer.self_time("transport.channel"),
            "transport.uplink_bytes.n": trial.channel_uplink_bytes,
            "transport.downlink_bytes.n": trial.channel_downlink_bytes,
            "aggregation.folds.n": calls("aggregation.fold"),
            "execution.wait_s": tracer.uncovered_time(DISPATCH, covering=(CLIENT_TASK,)),
            "net.bytes_sent.n": trial.network.get("bytes_sent", 0),
            "net.bytes_received.n": trial.network.get("bytes_received", 0),
            "net.reconnects.n": trial.network.get("reconnects", 0),
            "net.replays.n": trial.network.get("replays", 0),
        }
    )
    return metrics
