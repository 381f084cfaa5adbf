"""The benchmark's workloads: two paper-config simulations and a loopback TCP swarm.

Every workload derives the config's four seeds from one workload seed;
seed 0 gives the README quick-start seeds. Each run returns a
``UnitResult`` whose digest is checked against ``golden.json``:

* ``fls_paper`` and ``bt_paper`` digest the ``metrics.csv`` that
  ``run_training`` writes;
* ``bt_tcp_swarm`` digests the final weights of all clients, which must
  equal those of a ``run_training`` simulation of the same config.
"""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from peerfed import experiments, federation, model
from peerfed.experiments import ExperimentConfig
from peerfed.federation import ClientNode, ClientState, RoundParams, VersionVector
from peerfed.transport import PeerAddress, TcpPeerServer, TcpTransport, TransportError

from tracing import Tracer

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# The README quick-start config (mode, eval cadence and seeds are set per workload).
PAPER = {
    "n_clients": 10,
    "rounds_fls": 16,
    "split": {"kind": "uniform"},
    "model": {"input_dim": 4, "hidden_dims": [512], "num_classes": 4},
    "data": {"num_train": 20, "num_test": 10, "height": 32, "width": 32,
             "num_classes": 4, "noise_std": 0.1, "cohort_shift": 1.0,
             "feature_scale": 0.5},
    "base_lr": 0.001,
    "epochs_per_round": 2,
    "batch_size": 1,
    "merge_norm": "participants",
    "aggregate": "weighted",
    "bt_warmup": True,
}

# 20 peers with one 8x8 image each keep training cheap, while the paper's
# [512] model keeps weight frames at 36 KB. 11 rounds of budget give 200
# peer rounds after warm-up, so the p95 round has 10 rounds beyond it.
SWARM_CONFIG = {
    **PAPER,
    "mode": "braintorrent",
    "n_clients": 20,
    "rounds_fls": 11,
    "data": {**PAPER["data"], "num_train": 20, "num_test": 2, "height": 8, "width": 8},
    "eval_every": 11,
}

SWARM = "bt_tcp_swarm"
WORKLOADS = {
    "fls_paper": {**PAPER, "mode": "fls", "eval_every": 1},
    "bt_paper": {**PAPER, "mode": "braintorrent", "eval_every": 16},
    SWARM: SWARM_CONFIG,
}

ROUND_ATTEMPTS = 3


def config(workload: str, seed: int) -> ExperimentConfig:
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    seeds = {"data": 4 * seed, "init": 4 * seed + 1, "shuffle": 4 * seed + 2,
             "initiator": 4 * seed + 3}
    return ExperimentConfig.from_dict({**WORKLOADS[workload], "seeds": seeds})


@dataclass
class UnitResult:
    """One complete training run of a workload."""

    started: float  # perf_counter() at the start of the run
    run_s: float
    attempted: int  # client updates attempted, retries included
    failed: int
    digest: str
    final_dice: float
    rounds_ms: list[float]  # one peer round (initiator start to commit) or one fls round


def weights_digest(states: list[ClientState]) -> str:
    h = hashlib.sha256()
    for state in sorted(states, key=lambda s: s.client_index):
        h.update(state.weights.params.tobytes())
    return h.hexdigest()


def setup_sim(cfg: ExperimentConfig) -> None:
    """The set-up run_training does before its first round: data, shards, weights."""
    train, _ = experiments.build_dataset(cfg)
    experiments.build_shards(cfg, train)
    model.init_model(cfg.model, cfg.seeds.init)


def run_sim(cfg: ExperimentConfig, out_dir: Path) -> UnitResult:
    """One run_training call with an out_dir, as the CLI makes it."""
    round_fn = "fls_round" if cfg.mode == "fls" else "bt_round"
    with Tracer() as clock:
        clock.wrap(experiments, round_fn, "round")
        start = time.perf_counter()
        result = experiments.run_training(cfg, out_dir=out_dir)
        run_s = time.perf_counter() - start
    return UnitResult(
        started=start,
        run_s=run_s,
        attempted=result.total_updates + result.failed_rounds,
        failed=result.failed_rounds,
        digest=hashlib.sha256((out_dir / "metrics.csv").read_bytes()).hexdigest(),
        final_dice=result.final.avg_client_dice,
        rounds_ms=[(s.end - s.start) * 1e3 for s in clock.spans],
    )


def sim_reference(cfg: ExperimentConfig) -> str:
    """Final-weights digest of the simulated run of cfg."""
    return weights_digest(experiments.run_training(cfg).final_clients)


def expected_digests(workload: str, seed: int, cfg: ExperimentConfig) -> list[str]:
    """Digests every run of (workload, seed) must reproduce.

    That is golden.json's entry, if it has one. The swarm's entries are
    digests of the simulated run of the same config (the TCP-vs-sim
    contract), so a swarm seed without one is checked against a live
    simulated run instead.
    """
    golden = json.loads(GOLDEN_PATH.read_text()).get(workload, {}).get(str(seed))
    if golden:
        return [golden]
    return [sim_reference(cfg)] if workload == SWARM else []


class Swarm:
    """One TcpPeerServer per client on 127.0.0.1, all in this process.

    ``run`` drives the braintorrent schedule from the calling thread with
    public calls only, so one connection is open at a time and the final
    weights must equal a simulated run's bit for bit.
    """

    def __init__(self, cfg: ExperimentConfig):
        if cfg.mode != "braintorrent":
            raise ValueError("the swarm runs the peer-to-peer protocol only")
        self.cfg = cfg
        train, self.test = experiments.build_dataset(cfg)
        shards = experiments.build_shards(cfg, train)
        w0 = model.init_model(cfg.model, cfg.seeds.init)
        self.nodes = [
            ClientNode(ClientState(i, w0.copy(), VersionVector.zeros(len(shards)), shard))
            for i, shard in enumerate(shards)
        ]
        self.params = RoundParams(
            spec=cfg.model,
            epochs=cfg.epochs_per_round,
            base_lr=cfg.base_lr,
            batch_size=cfg.batch_size,
            shuffle_seed=cfg.seeds.shuffle,
            merge_norm=cfg.merge_norm,
            on_unreachable="abort",
            total_samples=sum(s.sample_count for s in shards),
        )
        self.servers: list[TcpPeerServer] = []
        try:
            for i, node in enumerate(self.nodes):
                server = TcpPeerServer(node, i, "127.0.0.1", 0)
                server.start()
                self.servers.append(server)
        except BaseException:
            self.close()
            raise
        peers = [PeerAddress(i, f"127.0.0.1:{s.port}") for i, s in enumerate(self.servers)]
        self.transports = [TcpTransport(i, peers) for i in range(len(self.nodes))]

    def close(self) -> None:
        # Each stop waits out its server's poll interval; stop them together.
        with ThreadPoolExecutor(max_workers=max(1, len(self.servers))) as pool:
            list(pool.map(TcpPeerServer.stop, self.servers))
        self.servers = []

    def __enter__(self) -> "Swarm":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def run(self) -> UnitResult:
        """Warm-up, every scheduled peer round, then the final evaluation."""
        cfg, nodes = self.cfg, self.nodes
        attempted = failed = 0
        rounds_ms = []
        start = time.perf_counter()
        if cfg.bt_warmup:
            for node in nodes:
                node.commit(federation.local_update(node.state, self.params))
                attempted += 1
        for r in range(experiments.bt_total_rounds(cfg)):
            initiator = federation.pick_initiator(r, cfg.n_clients, cfg.seeds.initiator)
            node = nodes[initiator]
            round_start = time.perf_counter()
            for _ in range(ROUND_ATTEMPTS):
                attempted += 1
                try:
                    new_state, _ = federation.run_initiator_round(
                        node.state, self.transports[initiator], self.params
                    )
                except TransportError:
                    failed += 1
                    continue
                node.commit(new_state)
                break
            rounds_ms.append((time.perf_counter() - round_start) * 1e3)
        states = [node.state for node in nodes]
        num_classes = cfg.data.num_classes
        per_client = [
            experiments.evaluate_model(cfg.model, s.weights, self.test, num_classes)
            for s in states
        ]
        aggregated = federation.aggregate_all_clients(states, cfg.aggregate == "weighted")
        experiments.evaluate_model(cfg.model, aggregated, self.test, num_classes)
        run_s = time.perf_counter() - start
        return UnitResult(start, run_s, attempted, failed, weights_digest(states),
                          float(np.mean(per_client)), rounds_ms)
