"""The in-process TCP swarm must reproduce run_training bit for bit."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from peerfed.experiments import ExperimentConfig, run_training  # noqa: E402

from tracing import Tracer, install, layer_metrics  # noqa: E402
from workloads import Swarm, weights_digest  # noqa: E402

# The 3-client config of acceptance criterion 9 (TCP vs simulated transport).
CRITERION_9 = {
    "mode": "braintorrent",
    "n_clients": 3,
    "rounds_fls": 3,
    "model": {"input_dim": 4, "hidden_dims": [8], "num_classes": 4},
    "data": {"num_train": 6, "num_test": 2, "height": 8, "width": 8, "num_classes": 4},
    "seeds": {"data": 91, "init": 92, "shuffle": 93, "initiator": 94},
}


def test_swarm_final_weights_equal_run_training():
    cfg = ExperimentConfig.from_dict(CRITERION_9)
    sim = run_training(cfg)
    with Swarm(cfg) as swarm:
        result = swarm.run()
        states = [node.state for node in swarm.nodes]
    for state, expected in zip(states, sim.final_clients):
        assert state.weights.params.tobytes() == expected.weights.params.tobytes()
    assert result.digest == weights_digest(sim.final_clients)
    assert result.final_dice == sim.final.avg_client_dice
    assert (result.attempted, result.failed) == (sim.total_updates, 0)
    assert len(result.rounds_ms) == sim.total_updates - cfg.n_clients


def test_traced_swarm_changes_no_result_and_restores_the_program():
    from peerfed import experiments, federation, model, transport

    before = {(m, n): getattr(m, n) for m, n in (
        (model, "loss_and_grad"), (federation, "fine_tune"), (transport, "encode"),
        (transport, "socket"), (experiments, "evaluate_model"))}
    respond = vars(transport.TcpPeerServer)["respond"]
    cfg = ExperimentConfig.from_dict(CRITERION_9)
    with Tracer() as tracer:
        install(tracer)
        with Swarm(cfg) as swarm:
            traced = swarm.run()
    assert all(getattr(m, n) is fn for (m, n), fn in before.items())
    assert vars(transport.TcpPeerServer)["respond"] is respond
    assert traced.digest == weights_digest(run_training(cfg).final_clients)
    names = {s.name for s in tracer.spans}
    assert {"transport.tcp.ping", "transport.tcp.respond", "transport.tcp.connect",
            "model.loss_and_grad", "federation.run_initiator_round"} <= names
    assert not np.isnan(traced.final_dice)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    reported = {name: unit for name, (_, unit) in layer_metrics([], 0.0, 1.0, 0).items()}
    reported.update({"experiments.final_dice": "dice", "federation.round.p95_ms": "ms",
                     "trace.run_s": "s", "trace.overhead_s": "s",
                     "trace.probe_ms": "ms"})  # added by run.py
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == reported
    assert [w["name"] for w in spec["workloads"]] == ["fls_paper", "bt_paper", "bt_tcp_swarm"]
