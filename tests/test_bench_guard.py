"""The benchmark times a run by wrapping program functions by name, so a
run must still pass through the names it wraps."""

from __future__ import annotations

import hashlib
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from peerfed.experiments import ExperimentConfig, run_training  # noqa: E402

from tracing import Tracer, install  # noqa: E402
from workloads import Swarm, run_sim  # noqa: E402

CONFIG = {
    "n_clients": 3,
    "rounds_fls": 3,
    "model": {"input_dim": 4, "hidden_dims": [8], "num_classes": 4},
    "data": {"num_train": 6, "num_test": 2, "height": 8, "width": 8, "num_classes": 4},
    "seeds": {"data": 91, "init": 92, "shuffle": 93, "initiator": 94},
}


# run_sim wraps experiments.fls_round or experiments.bt_round: one span per
# server round, or per peer round after the warm-up (3 x 3 updates - 3).
@pytest.mark.parametrize("mode, rounds", [("fls", 3), ("braintorrent", 6)])
def test_run_sim_times_each_round_and_digests_run_trainings_metrics(tmp_path, mode, rounds):
    cfg = ExperimentConfig.from_dict({**CONFIG, "mode": mode})
    result = run_sim(cfg, tmp_path / "bench")
    assert len(result.rounds_ms) == rounds
    run_training(cfg, out_dir=tmp_path / "plain")
    metrics = (tmp_path / "plain" / "metrics.csv").read_bytes()
    assert result.digest == hashlib.sha256(metrics).hexdigest()


@pytest.mark.parametrize("split", [
    {"kind": "uniform"},
    {"kind": "cohort", "boundaries": [30.0, 60.0], "counts": [2, 2, 2]},
], ids=["uniform", "cohort_counts"])
def test_traced_run_sim_generates_its_data_once_inside_build_dataset(tmp_path, split):
    """The bench's data.generate_dataset figure wraps experiments'
    generate_dataset: a run must reach its data generation through it,
    whichever split draws the data."""
    cfg = ExperimentConfig.from_dict({**CONFIG, "mode": "braintorrent", "split": split})
    with Tracer() as tracer:
        install(tracer)
        run_sim(cfg, tmp_path)
    [build] = [s for s in tracer.spans if s.name == "experiments.build_dataset"]
    [generate] = [s for s in tracer.spans if s.name == "data.generate_dataset"]
    assert generate.parent == build.span_id


def test_traced_swarm_has_a_span_per_request_on_each_side():
    """The bench's fetch_ratio and stale_per_round count these spans: one
    per ping and per fetch on the client side, one per request answered."""
    cfg = ExperimentConfig.from_dict({**CONFIG, "mode": "braintorrent"})
    with Tracer() as tracer:
        install(tracer)
        with Swarm(cfg) as swarm:
            swarm.run()
            for transport in swarm.transports:
                transport.close()
    spans = Counter(span.name for span in tracer.spans)
    pings, fetches = spans["transport.tcp.ping"], spans["transport.tcp.fetch_weights"]
    assert pings == 12  # 6 peer rounds after the warm-up x 2 peers
    assert 0 < fetches <= pings
    assert spans["transport.tcp.respond"] == pings + fetches
