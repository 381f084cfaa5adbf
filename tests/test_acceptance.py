"""Acceptance gate: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion (lines also show up in captured output on failure).
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np
import pytest
from conftest import record_frames, record_trajectory, run_tcp_peers

from peerfed.data import GenConfig, generate_dataset, split_uniform
from peerfed.experiments import (
    EXP2_COUNTS,
    ExperimentConfig,
    Seeds,
    manifest_config,
    run_sweep,
    run_training,
)
from peerfed.federation import (
    ClientNode,
    ClientState,
    RoundParams,
    VersionVector,
    bt_round,
    fls_round,
    pick_initiator,
    weighted_average,
)
from peerfed.model import (
    Batch,
    ModelSpec,
    ModelWeights,
    init_model,
    loss_and_grad,
)
from peerfed.seeding import derive_seed
from peerfed.transport import (
    PeerUnreachableError,
    PingRequest,
    PingResponse,
    SimTransport,
    TransportError,
    WeightsRequest,
    WeightsResponse,
    decode,
    encode,
)


def report(number: int, name: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number} ({name}): {detail}")


def test_criterion_1_weighted_average_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(1001)
    mismatches = 0
    for _ in range(200):
        n_entries = int(rng.integers(1, 9))
        n_params = int(rng.integers(1, 65))
        entries = [
            (ModelWeights("fp", rng.normal(size=n_params)), int(rng.integers(1, 50)))
            for _ in range(n_entries)
        ]
        total = sum(count for _, count in entries)
        naive = np.zeros(n_params)
        for j in range(n_params):
            acc = 0.0
            for weights, count in entries:
                acc += (count / total) * weights.params[j]
            naive[j] = acc
        if weighted_average(entries).params.tobytes() != naive.tobytes():
            mismatches += 1
    elapsed = time.perf_counter() - started
    passed = mismatches == 0 and elapsed < 1.0
    report(1, "weighted-average oracle", passed,
           f"{mismatches}/200 bitwise mismatches, {elapsed:.2f}s (< 1s)")
    assert mismatches == 0
    assert elapsed < 1.0


def test_criterion_2_gradient_check():
    # Weights are drawn fully at random: the zero biases of a fresh init
    # park relu kinks exactly at the finite-difference evaluation point,
    # which probes the kink, not the gradient code.
    started = time.perf_counter()
    rng = np.random.default_rng(2002)
    h = 1e-5
    total_coords = 0
    passing_coords = 0
    for _ in range(50):
        while True:
            spec = ModelSpec(
                input_dim=int(rng.integers(2, 6)),
                hidden_dims=tuple(int(d) for d in
                                  rng.integers(2, 8, size=int(rng.integers(0, 3)))),
                num_classes=int(rng.integers(2, 5)),
            )
            if spec.param_count() <= 200:
                break
        weights = ModelWeights(spec, 0.5 * rng.normal(size=spec.param_count()))
        batch = Batch(
            rng.normal(size=(8, spec.input_dim)),
            rng.integers(0, spec.num_classes, size=8),
        )
        _, grad = loss_and_grad(spec, weights, batch)
        fd = np.zeros_like(grad)
        for i in range(grad.shape[0]):
            up = weights.params.copy()
            up[i] += h
            down = weights.params.copy()
            down[i] -= h
            lu, _ = loss_and_grad(spec, ModelWeights(weights.spec, up), batch)
            ld, _ = loss_and_grad(spec, ModelWeights(weights.spec, down), batch)
            fd[i] = (lu - ld) / (2 * h)
        rel = np.abs(grad - fd) / np.maximum.reduce(
            [np.abs(grad), np.abs(fd), np.full_like(fd, 1e-8)]
        )
        total_coords += rel.size
        passing_coords += int((rel < 1e-4).sum())
    fraction = passing_coords / total_coords
    elapsed = time.perf_counter() - started
    passed = fraction >= 0.99 and elapsed < 30.0
    report(2, "gradient vs central differences", passed,
           f"{fraction:.2%} of {total_coords} coords under 1e-4 over 50 models, "
           f"{elapsed:.1f}s (< 30s)")
    assert fraction >= 0.99
    assert elapsed < 30.0


def test_criterion_3_degenerate_equivalence(monkeypatch):
    started = time.perf_counter()
    base = ExperimentConfig(
        mode="fls", n_clients=1, rounds_fls=8,
        model=ModelSpec(4, (16,), 4),
        data=GenConfig(num_train=4, num_test=2, height=8, width=8, num_classes=4),
        seeds=Seeds(11, 12, 13, 14),
    )
    trajectories = {}
    for mode in ("fls", "braintorrent", "pooled"):
        with monkeypatch.context() as patch:
            trajectories[mode] = record_trajectory(patch)
            run_training(replace(base, mode=mode))
    identical = all(
        trajectories["fls"][k][0].tobytes()
        == trajectories["braintorrent"][k][0].tobytes()
        == trajectories["pooled"][k][0].tobytes()
        for k in range(8)
    )
    elapsed = time.perf_counter() - started
    passed = identical and elapsed < 60.0
    report(3, "N=1 degenerate equivalence", passed,
           f"8 rounds bitwise identical: {identical}, {elapsed:.1f}s (< 1min)")
    assert identical
    assert elapsed < 60.0


def test_criterion_4_fls_consensus():
    spec = ModelSpec(4, (8,), 4)
    data = GenConfig(num_train=10, num_test=2, height=8, width=8, num_classes=4)
    train, _ = generate_dataset(data, 7)
    shards = split_uniform(train, 5, seed=3)
    w0 = init_model(spec, 1)
    clients = [
        ClientState(i, w0.copy(), VersionVector.zeros(5), shards[i])
        for i in range(5)
    ]
    params = RoundParams(spec=spec, shuffle_seed=9)
    consensus = True
    for _ in range(4):
        clients, server = fls_round(clients, params)
        blob = server.params.tobytes()
        consensus &= all(c.weights.params.tobytes() == blob for c in clients)
    report(4, "server-round consensus", consensus,
           f"all client weights bitwise equal to the aggregate each round: {consensus}")
    assert consensus


def test_criterion_5_protocol_bookkeeping():
    started = time.perf_counter()
    spec = ModelSpec(4, (8,), 4)
    data = GenConfig(num_train=12, num_test=2, height=8, width=8, num_classes=4)
    train, _ = generate_dataset(data, 5)
    shards = split_uniform(train, 6, seed=2)
    w0 = init_model(spec, 3)
    nodes = [
        ClientNode(ClientState(i, w0.copy(), VersionVector.zeros(6), shards[i]))
        for i in range(6)
    ]
    transport = SimTransport(nodes, seed=42, drop_prob=0.05)
    frames = record_frames(transport)
    params = RoundParams(spec=spec, shuffle_seed=4, on_unreachable="skip")

    fault_rng = np.random.default_rng(77)
    successes = 0
    failures = 0
    violations = []
    for r in range(200):
        if r % 10 == 0:
            transport.set_unreachable(int(fault_rng.integers(0, 6)),
                                      down=bool(fault_rng.random() < 0.5))
        initiator = pick_initiator(r, 6, rng_seed=99)
        before = [n.state for n in nodes]
        before_vectors = [s.version.entries.copy() for s in before]
        frames_mark = len(frames)
        try:
            rep = bt_round(nodes, initiator, params, transport)
        except PeerUnreachableError:
            failures += 1
            for i, node in enumerate(nodes):
                if node.state is not before[i]:
                    violations.append(f"round {r}: aborted round mutated client {i}")
            continue
        successes += 1
        responses = [f for f in frames[frames_mark:]
                     if f.kind is WeightsResponse and f.nbytes > 0]
        stale = len(rep.participants) - 1
        if len(responses) != stale:
            violations.append(
                f"round {r}: {len(responses)} weight responses for {stale} stale peers"
            )
        state = nodes[initiator].state
        if state.own_update_count != before[initiator].own_update_count + 1:
            violations.append(f"round {r}: initiator count did not advance by 1")
        for i, node in enumerate(nodes):
            entries = node.state.version.entries
            if np.any(entries < before_vectors[i]):
                violations.append(f"round {r}: version vector of client {i} decreased")
            if i != initiator and entries[i] != before_vectors[i][i]:
                violations.append(f"round {r}: non-initiator {i} own version changed")
    elapsed = time.perf_counter() - started
    passed = not violations and failures > 0 and elapsed < 120.0
    report(5, "protocol bookkeeping under faults", passed,
           f"{successes} ok / {failures} aborted rounds, "
           f"{len(violations)} violations, {elapsed:.1f}s (< 2min)")
    assert not violations, violations[:5]
    assert failures > 0, "fault injection never fired; check drop configuration"
    assert elapsed < 120.0


@pytest.mark.slow
def test_criterion_6_paper_trend_at_desk_scale():
    started = time.perf_counter()
    gaps_fls, gaps_bt, agg_diffs = [], [], []
    for seed in range(5):
        base = ExperimentConfig(
            mode="fls", n_clients=10, rounds_fls=16, eval_every=16,
            seeds=Seeds(data=100 + seed, init=200 + seed,
                        shuffle=300 + seed, initiator=400 + seed),
        )
        finals = {
            mode: run_training(replace(base, mode=mode)).final
            for mode in ("fls", "braintorrent", "only_client")
        }
        only = finals["only_client"].avg_client_dice
        gaps_fls.append(finals["fls"].avg_client_dice - only)
        gaps_bt.append(finals["braintorrent"].avg_client_dice - only)
        agg_diffs.append(finals["braintorrent"].aggregated_model_dice
                         - finals["fls"].aggregated_model_dice)
    mean_fls_gap = float(np.mean(gaps_fls))
    mean_bt_gap = float(np.mean(gaps_bt))
    mean_agg_diff = float(np.mean(agg_diffs))
    elapsed = time.perf_counter() - started

    hard = mean_fls_gap >= 0.05 and mean_bt_gap >= 0.05
    soft = mean_agg_diff >= -0.01
    report(6, "federation-vs-isolated trend", hard,
           f"5-seed mean gap over only-client: fls {mean_fls_gap:+.3f}, "
           f"braintorrent {mean_bt_gap:+.3f} (gate >= +0.05); "
           f"soft check bt_agg-fls_agg {mean_agg_diff:+.3f} "
           f"({'ok' if soft else 'below'} -0.01, reported only); "
           f"{elapsed:.0f}s (target < 10min)")
    assert mean_fls_gap >= 0.05
    assert mean_bt_gap >= 0.05


def test_criterion_7_cohort_experiment_structure(tmp_path):
    base = ExperimentConfig(
        mode="fls", n_clients=5, rounds_fls=2, eval_every=2,
        model=ModelSpec(4, (16,), 4),
        data=GenConfig(num_train=20, num_test=4, height=16, width=16, num_classes=4),
        seeds=Seeds(31, 32, 33, 34),
    )
    runs = run_sweep("exp2", base, out_dir=tmp_path)["runs"]
    shard_sizes = [c.shard.sample_count for c in runs["fls_c05"].final_clients]
    sizes_ok = shard_sizes == list(EXP2_COUNTS)
    completed = all(runs[name].records for name in ("braintorrent_c05", "fls_c05", "pooled"))
    passed = sizes_ok and completed
    gap = runs["braintorrent_c05"].final.avg_client_dice - runs["fls_c05"].final.avg_client_dice
    report(7, "cohort-split experiment structure", passed,
           f"shard sizes {shard_sizes} (want {list(EXP2_COUNTS)}); "
           f"both protocols completed: {completed}; "
           f"non-uniform bt-fls avg gap {gap:+.3f} (reported only)")
    assert sizes_ok
    assert completed


def test_criterion_8_codec_fuzz_and_round_trip():
    started = time.perf_counter()
    rng = np.random.default_rng(8008)
    lengths = rng.integers(0, 64, size=1_000_000)
    blob = rng.bytes(int(lengths.sum()))
    crashes = 0
    offset = 0
    for n in lengths:
        chunk = blob[offset:offset + int(n)]
        offset += int(n)
        try:
            decode(chunk)
        except TransportError:
            pass
        except Exception:
            crashes += 1

    mismatches = 0
    for _ in range(10_000):
        kind = int(rng.integers(0, 4))
        sender = int(rng.integers(0, 2**16))
        rid = int(rng.integers(0, 2**63))
        if kind == 0:
            msg = PingRequest(sender, rid)
        elif kind == 1:
            msg = PingResponse(sender, rid, int(rng.integers(0, 2**63)))
        elif kind == 2:
            msg = WeightsRequest(sender, rid)
        else:
            msg = WeightsResponse(sender, rid, int(rng.integers(1, 2**31)),
                                  rng.normal(size=int(rng.integers(0, 32))))
        if decode(encode(msg)) != msg:
            mismatches += 1
    elapsed = time.perf_counter() - started
    passed = crashes == 0 and mismatches == 0
    report(8, "codec totality and round-trip", passed,
           f"10^6 fuzz decodes: {crashes} crashes; "
           f"10^4 round-trips: {mismatches} mismatches; {elapsed:.1f}s")
    assert crashes == 0
    assert mismatches == 0


@pytest.mark.slow
def test_criterion_9_transport_equivalence(tmp_path):
    started = time.perf_counter()
    cfg_dict = {
        "mode": "braintorrent",
        "n_clients": 3,
        "rounds_fls": 3,
        "model": {"input_dim": 4, "hidden_dims": [8], "num_classes": 4},
        "data": {"num_train": 6, "num_test": 2, "height": 8, "width": 8,
                 "num_classes": 4},
        "seeds": {"data": 91, "init": 92, "shuffle": 93, "initiator": 94},
    }
    sim = run_training(ExperimentConfig.from_dict(cfg_dict))
    out = run_tcp_peers(tmp_path, cfg_dict, 3)
    identical = all(
        np.load(out / f"client_{i}_weights.npy").tobytes()
        == sim.final_clients[i].weights.params.tobytes()
        for i in range(3)
    )
    elapsed = time.perf_counter() - started
    passed = identical and elapsed < 180.0
    report(9, "TCP vs simulated transport", passed,
           f"3-process loopback final weights bitwise identical: {identical}, "
           f"{elapsed:.1f}s (< 3min)")
    assert identical
    assert elapsed < 180.0


def test_criterion_10_manifest_reproducibility(tmp_path):
    cfg = ExperimentConfig(
        mode="braintorrent", n_clients=4, rounds_fls=3,
        model=ModelSpec(4, (8,), 4),
        data=GenConfig(num_train=8, num_test=2, height=8, width=8, num_classes=4),
        seeds=Seeds(51, 52, 53, 54),
    )
    run_training(cfg, out_dir=tmp_path / "original")
    run_training(manifest_config(tmp_path / "original" / "manifest.json"),
                 out_dir=tmp_path / "replay")
    identical = all(
        (tmp_path / "original" / name).read_bytes()
        == (tmp_path / "replay" / name).read_bytes()
        for name in ("metrics.csv", "metrics.json")
    )
    report(10, "manifest reproducibility", identical,
           f"metrics files byte-identical on rerun: {identical}")
    assert identical
