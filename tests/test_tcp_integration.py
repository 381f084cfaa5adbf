"""TCP peers over loopback must match the simulation even when they start at
different times; peers run on threads of this process. Criterion 9 in
test_acceptance.py runs them as separate processes."""

from __future__ import annotations

import hashlib
import tempfile
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import test_golden
from conftest import free_ports
from hypothesis import given, settings
from hypothesis import strategies as st

from peerfed import experiments
from peerfed.experiments import (
    ExperimentConfig,
    blas_corename,
    run_tcp_peer,
    run_training,
    schedule,
)
from peerfed.transport import PeerAddress


def tcp_config_dict() -> dict:
    return {
        "mode": "braintorrent",
        "n_clients": 3,
        "rounds_fls": 3,
        "model": {"input_dim": 4, "hidden_dims": [8], "num_classes": 4},
        "data": {"num_train": 6, "num_test": 2, "height": 8, "width": 8,
                 "num_classes": 4},
        "seeds": {"data": 21, "init": 22, "shuffle": 23, "initiator": 24},
    }


JOIN_S = 30.0  # bound on a whole threaded run, late start included


def run_threaded_peers(cfg: ExperimentConfig, out, first=(), late_s: float = 0.0) -> list:
    """Run every client's run_tcp_peer on its own thread of this process,
    the clients in first late_s seconds before the rest; each one's saved
    final params, after asserting that every peer finished within JOIN_S."""
    ports = free_ports(cfg.n_clients)
    peers = [PeerAddress(i, f"127.0.0.1:{port}") for i, port in enumerate(ports)]
    errors = []

    def peer(i):
        try:
            run_tcp_peer(cfg, i, peers, out)
        except Exception as exc:
            errors.append(f"client {i}: {exc!r}")

    threads = [threading.Thread(target=peer, args=(i,), daemon=True)
               for i in range(cfg.n_clients)]
    deadline = time.monotonic() + JOIN_S
    for i in first:
        threads[i].start()
    time.sleep(late_s)
    for i, thread in enumerate(threads):
        if i not in first:
            thread.start()
    for thread in threads:
        thread.join(max(0.0, deadline - time.monotonic()))
    running = [i for i, thread in enumerate(threads) if thread.is_alive()]
    assert not running, f"clients {running} still running after {JOIN_S:g} s"
    assert not errors, "\n".join(errors)
    return [np.load(out / f"client_{i}_weights.npy") for i in range(cfg.n_clients)]


def assert_matches_simulation(cfg: ExperimentConfig, params: list) -> None:
    sim = run_training(cfg)
    for i, p in enumerate(params):
        assert p.tobytes() == sim.final_clients[i].weights.params.tobytes(), (
            f"client {i} weights diverge between TCP and simulated runs"
        )


@pytest.mark.parametrize("name", ["braintorrent", "bt_eval_every_2"])
def test_peers_write_the_golden_weights(name, tmp_path):
    # Pinned like test_golden's weight digests, so that TCP peers and the
    # simulation cannot drift together unnoticed.
    kernel = blas_corename()
    if kernel not in test_golden.WEIGHTS:
        pytest.skip(f"no weight digests recorded for BLAS kernel {kernel!r}")
    params = run_threaded_peers(replace(test_golden.BASE, **test_golden.RUNS[name][0]), tmp_path)
    digest = hashlib.sha256()
    for p in params:
        digest.update(p.tobytes())
    assert digest.hexdigest() == test_golden.WEIGHTS[kernel][name]


@settings(max_examples=15, deadline=None)
@given(n_clients=st.integers(2, 5), hidden=st.sampled_from([4, 8, 16]),
       rounds=st.integers(1, 3), warmup=st.booleans(), eval_every=st.integers(1, 2),
       seeds=st.fixed_dictionaries({k: st.integers(0, 2**32 - 1)
                                    for k in ("data", "init", "shuffle", "initiator")}))
def test_peers_match_the_simulation_on_small_configs(n_clients, hidden, rounds, warmup,
                                                     eval_every, seeds):
    # Criterion 9 and the golden cases above pin single configs; this draws
    # client counts, schedules, warm-up and seeds. Drops stay off: the
    # simulation injects them, TCP does not.
    d = tcp_config_dict()
    cfg = ExperimentConfig.from_dict({
        **d, "n_clients": n_clients, "rounds_fls": rounds, "bt_warmup": warmup,
        "eval_every": eval_every, "model": {**d["model"], "hidden_dims": [hidden]},
        "data": {**d["data"], "num_train": 2 * n_clients}, "seeds": seeds,
    })
    with tempfile.TemporaryDirectory() as out:  # one per example, unlike tmp_path
        params = run_threaded_peers(cfg, Path(out))
    assert_matches_simulation(cfg, params)


@pytest.mark.slow
def test_peer_without_rounds_started_first_waits_for_late_peers(tmp_path, monkeypatch):
    # A peer that initiates no round has nothing to wait for but the end
    # of the run; it must still serve the peers that start after it.
    monkeypatch.setattr(experiments, "ROUND_DEADLINE_S", 10.0)
    cfg = ExperimentConfig.from_dict({
        **tcp_config_dict(),
        "seeds": {"data": 1, "init": 2, "shuffle": 3, "initiator": 3},
    })
    assert 1 not in schedule(cfg)
    params = run_threaded_peers(cfg, tmp_path, first=(1,), late_s=2.5)
    assert_matches_simulation(cfg, params)


@pytest.mark.slow
def test_peers_that_end_at_version_zero_see_each_other(tmp_path, monkeypatch):
    # Clients 1 and 2 never update, so each must still ping the other once
    # to learn its final version 0 and to be seen at it.
    monkeypatch.setattr(experiments, "ROUND_DEADLINE_S", 10.0)
    d = tcp_config_dict()
    cfg = ExperimentConfig.from_dict({
        **d, "n_clients": 4, "rounds_fls": 1, "bt_warmup": False,
        "data": {**d["data"], "num_train": 8},
        "seeds": {**d["seeds"], "initiator": 3},
    })
    assert experiments.expected_versions(schedule(cfg), 4)[1:3] == [0, 0]
    params = run_threaded_peers(cfg, tmp_path)
    assert_matches_simulation(cfg, params)
