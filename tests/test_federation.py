"""Protocol rounds: weighted averaging, server rounds, peer rounds."""

from __future__ import annotations

import contextlib
import copy

import numpy as np
import pytest
from conftest import StubNode, record_frames, specs_by_param_count

from peerfed.data import DatasetShard, GenConfig, SplitSpec, generate_dataset, split_uniform
from peerfed.federation import (
    ClientNode,
    ClientState,
    RoundParams,
    VersionVector,
    aggregate_all_clients,
    bt_round,
    fls_round,
    pick_initiator,
    ping_request,
    run_initiator_round,
    select_stale_peers,
    local_update,
    weighted_average,
)
from peerfed.model import ModelSpec, ModelWeights, fine_tune, init_model, lr_schedule
from peerfed.seeding import derive_seed
from peerfed.transport import (
    PeerAddress,
    PeerUnreachableError,
    ProtocolError,
    SimTransport,
    TcpPeerServer,
    TcpTransport,
    WeightsResponse,
)

SPEC = ModelSpec(input_dim=4, hidden_dims=(6,), num_classes=3)
CFG = GenConfig(num_train=8, num_test=2, height=8, width=8, num_classes=3)
PARAMS = RoundParams(spec=SPEC, epochs=2, base_lr=0.001, batch_size=2, shuffle_seed=77)


# The smallest model: 4 params.
TINY = ModelSpec(input_dim=1, hidden_dims=(), num_classes=2)


def scalar_weights(value: float) -> ModelWeights:
    return ModelWeights(TINY, np.full(4, float(value)))


def build_clients(n_clients: int, init_seed: int = 5):
    train, _ = generate_dataset(CFG, SplitSpec(), 1)
    shards = split_uniform(train, n_clients, seed=3)
    w0 = init_model(SPEC, init_seed)
    return [
        ClientState(
            client_index=i,
            weights=w0.copy(),
            version=VersionVector.zeros(n_clients),
            shard=shards[i],
        )
        for i in range(n_clients)
    ]


def wire_up(clients, drop_prob=0.0, seed=0):
    nodes = [ClientNode(c) for c in clients]
    return nodes, SimTransport(nodes, seed=seed, drop_prob=drop_prob)


@contextlib.contextmanager
def carried(carrier: str, initiator_node: ClientNode, peer):
    """A transport from client 0 to client 1, peer: in process, or over
    loopback TCP with peer behind a server."""
    if carrier == "sim":
        yield SimTransport([initiator_node, peer])
        return
    server = TcpPeerServer(peer, 1, "127.0.0.1", 0)
    server.start()
    transport = TcpTransport(0, [PeerAddress(0, "127.0.0.1:1"),
                                 PeerAddress(1, f"127.0.0.1:{server.port}")])
    try:
        yield transport
    finally:
        transport.close()
        server.stop()


def expected_fine_tune(state: ClientState, params: RoundParams, start=None):
    """Recompute what a round's local pass must produce, independently."""
    return fine_tune(
        start if start is not None else state.weights,
        state.shard,
        params.epochs,
        lr_schedule(state.own_update_count, params.base_lr),
        derive_seed(params.shuffle_seed, "tune", state.client_index, state.own_update_count),
        params.batch_size,
    )


class TestWeightedAverage:
    def test_single_entry_identity(self):
        w = scalar_weights(3.25)
        out = weighted_average([(w, 5)])
        np.testing.assert_array_equal(out.params, w.params)

    def test_identical_vectors_any_counts(self):
        params = np.array([1.0, -2.0, 0.5, 0.25])
        a = ModelWeights(TINY, params.copy())
        b = ModelWeights(TINY, params.copy())
        out = weighted_average([(a, 1), (b, 7)])
        np.testing.assert_allclose(out.params, params, rtol=1e-15)

    def test_hand_computed_scalar(self):
        # 0 * (1/4) + 4 * (3/4) = 3.0
        out = weighted_average([(scalar_weights(0.0), 1), (scalar_weights(4.0), 3)])
        assert out.params[0] == 3.0

    def test_matches_naive_double_loop_bitwise(self):
        specs = specs_by_param_count(64)  # every length from 4 to 64 but 5
        lengths = sorted(specs)
        rng = np.random.default_rng(0)
        for _ in range(50):
            n_entries = int(rng.integers(1, 9))
            n_params = int(rng.choice(lengths))
            spec = specs[n_params]
            entries = [
                (ModelWeights(spec, rng.normal(size=n_params)), int(rng.integers(1, 20)))
                for _ in range(n_entries)
            ]
            total = sum(count for _, count in entries)
            naive = np.zeros(n_params)
            for j in range(n_params):
                acc = 0.0
                for weights, count in entries:
                    acc += (count / total) * weights.params[j]
                naive[j] = acc
            out = weighted_average(entries)
            assert out.params.tobytes() == naive.tobytes()


class TestFlsRound:
    def test_single_client_server_equals_fine_tuned_client(self):
        clients = build_clients(1)
        expected = expected_fine_tune(clients[0], PARAMS)
        new_clients, server = fls_round(clients, PARAMS)
        assert server.params.tobytes() == weighted_average(
            [(expected, clients[0].shard.sample_count)]
        ).params.tobytes()
        assert new_clients[0].weights.params.tobytes() == server.params.tobytes()

    def test_symmetric_clients_aggregate_to_their_common_model(self):
        # Three clients with the same index/shard/seeds tune identically,
        # so the weighted average must equal each tuned model.
        base = build_clients(1)[0]
        clients = [copy.deepcopy(base) for _ in range(3)]
        expected = expected_fine_tune(base, PARAMS)
        _, server = fls_round(clients, PARAMS)
        np.testing.assert_allclose(server.params, expected.params, rtol=1e-15)

    def test_consensus_after_round(self):
        clients = build_clients(4)
        new_clients, server = fls_round(clients, PARAMS)
        for c in new_clients:
            assert c.weights.params.tobytes() == server.params.tobytes()

    def test_counters_and_versions_increment(self):
        clients = build_clients(3)
        new_clients, _ = fls_round(clients, PARAMS)
        for i, c in enumerate(new_clients):
            assert c.own_update_count == 1
            assert c.version.entries[i] == 1

    def test_aggregate_uses_full_sample_totals(self):
        clients = build_clients(3)  # shard sizes 3, 3, 2
        tuned = [expected_fine_tune(c, PARAMS) for c in clients]
        expected = weighted_average(
            [(w, c.shard.sample_count) for w, c in zip(tuned, clients)]
        )
        _, server = fls_round(clients, PARAMS)
        assert server.params.tobytes() == expected.params.tobytes()


class TestPingAndStaleness:
    def test_fresh_system_all_zeros(self):
        clients = build_clients(3)
        _, transport = wire_up(clients)
        v_new = ping_request(clients[0], transport, on_unreachable="abort")
        np.testing.assert_array_equal(v_new.entries, [0, 0, 0])

    def test_peer_version_visible(self):
        clients = build_clients(3)
        for _ in range(3):
            clients[2] = local_update(clients[2], PARAMS)
        _, transport = wire_up(clients)
        v_new = ping_request(clients[0], transport, on_unreachable="abort")
        assert v_new.entries[2] == 3

    def test_ping_is_read_only(self):
        clients = build_clients(3)
        nodes, transport = wire_up(clients)
        before = [c.version.entries.copy() for c in clients]
        ping_request(clients[0], transport, on_unreachable="abort")
        for c, b in zip((n.state for n in nodes), before):
            np.testing.assert_array_equal(c.version.entries, b)

    def test_select_no_updates_empty(self):
        v = VersionVector(np.array([1, 2, 3]))
        assert select_stale_peers(v, v.copy()) == set()

    def test_select_matches_newer_versions(self):
        v_old = VersionVector(np.array([0, 0, 0, 0, 0]))
        v_new = VersionVector(np.array([0, 1, 1, 0, 0]))
        assert select_stale_peers(v_old, v_new) == {1, 2}

    def test_unreachable_peer_skipped_not_stale(self):
        clients = build_clients(3)
        clients[1] = local_update(clients[1], PARAMS)
        _, transport = wire_up(clients)
        transport.set_unreachable(1)
        v_new = ping_request(clients[0], transport, on_unreachable="skip")
        assert v_new.entries[1] == 0  # last-known entry, so not stale
        with pytest.raises(PeerUnreachableError):
            ping_request(clients[0], transport, on_unreachable="abort")

    def test_unreachable_policy_has_no_default(self):
        # RoundParams holds the one default; a caller passes its policy on.
        clients = build_clients(3)
        _, transport = wire_up(clients)
        with pytest.raises(TypeError, match="on_unreachable"):
            ping_request(clients[0], transport)


class TestBtRound:
    def test_fresh_system_round_is_local_fine_tune(self):
        clients = build_clients(3)
        nodes, transport = wire_up(clients)
        expected = expected_fine_tune(clients[0], PARAMS)
        report = bt_round(nodes, 0, PARAMS, transport)
        assert report.participants == frozenset({0})
        assert report.bytes_received == 0
        assert nodes[0].state.weights.params.tobytes() == expected.params.tobytes()

    def test_merges_only_stale_peers_and_updates_version(self):
        clients = build_clients(4)
        clients[1] = local_update(clients[1], PARAMS)
        clients[2] = local_update(clients[2], PARAMS)
        nodes, transport = wire_up(clients)

        initiator = nodes[3].state
        merged = weighted_average(
            [
                (clients[1].weights, clients[1].shard.sample_count),
                (clients[2].weights, clients[2].shard.sample_count),
                (initiator.weights, initiator.shard.sample_count),
            ]
        )
        expected = expected_fine_tune(initiator, PARAMS, start=merged)

        report = bt_round(nodes, 3, PARAMS, transport)
        state = nodes[3].state
        assert report.participants == frozenset({1, 2, 3})
        assert state.weights.params.tobytes() == expected.params.tobytes()
        np.testing.assert_array_equal(state.version.entries, [0, 1, 1, 1])
        assert state.own_update_count == 1

    def test_merge_order_is_ascending_client_index(self):
        # Initiator 2 merging peers 0 and 1 must average in index order,
        # not initiator-first order.
        clients = build_clients(3)
        clients[0] = local_update(clients[0], PARAMS)
        clients[1] = local_update(clients[1], PARAMS)
        nodes, transport = wire_up(clients)
        initiator = nodes[2].state
        merged = weighted_average(
            [
                (clients[0].weights, clients[0].shard.sample_count),
                (clients[1].weights, clients[1].shard.sample_count),
                (initiator.weights, initiator.shard.sample_count),
            ]
        )
        expected = expected_fine_tune(initiator, PARAMS, start=merged)
        bt_round(nodes, 2, PARAMS, transport)
        assert nodes[2].state.weights.params.tobytes() == expected.params.tobytes()

    def test_weight_bytes_match_stale_set(self):
        clients = build_clients(4)
        for i in (1, 2):
            clients[i] = local_update(clients[i], PARAMS)
        nodes, transport = wire_up(clients)
        frames = record_frames(transport)
        report = bt_round(nodes, 0, PARAMS, transport)
        responses = [f for f in frames if f.kind is WeightsResponse]
        assert len(responses) == len(report.participants) - 1 == 2
        assert report.bytes_received == sum(f.nbytes for f in responses)

    def test_non_initiator_states_untouched(self):
        clients = build_clients(3)
        clients[1] = local_update(clients[1], PARAMS)
        nodes, transport = wire_up(clients)
        before = {i: nodes[i].state for i in (1, 2)}
        bt_round(nodes, 0, PARAMS, transport)
        for i, state in before.items():
            assert nodes[i].state is state

    def test_fetch_failure_aborts_atomically(self):
        clients = build_clients(3)
        clients[1] = local_update(clients[1], PARAMS)
        nodes, transport = wire_up(clients)

        class PingOnlyTransport:
            def ping(self, sender, peer):
                return transport.ping(sender, peer)

            def fetch_weights(self, sender, peer):
                raise PeerUnreachableError(f"client {peer} lost mid-round")

        before = nodes[0].state
        before_bytes = before.weights.params.tobytes()
        before_version = before.version.entries.copy()
        with pytest.raises(PeerUnreachableError):
            bt_round(nodes, 0, PARAMS, PingOnlyTransport())
        after = nodes[0].state
        assert after is before
        assert after.weights.params.tobytes() == before_bytes
        np.testing.assert_array_equal(after.version.entries, before_version)
        assert after.own_update_count == 0

    @pytest.mark.parametrize("carrier", ["sim", "tcp"])
    @pytest.mark.parametrize("bad", ["nan_params", "zero_count", "wrong_length"])
    def test_unusable_weights_reply_aborts_atomically(self, carrier, bad):
        # Peer 1 has moved on, so the round fetches its weights; a reply
        # the merge cannot use fails the round, naming the peer, before
        # the merge, and leaves the initiator as it was.
        initiator = build_clients(2)[0]
        before_bytes = initiator.weights.params.tobytes()
        params = initiator.weights.params.copy()
        if bad == "nan_params":
            params[len(params) // 2] = np.nan
        elif bad == "wrong_length":
            params = params[:-1]
        peer = StubNode(version=1, params=params, sample_count=0 if bad == "zero_count" else 3)
        nodes = [ClientNode(initiator)]
        with carried(carrier, nodes[0], peer) as transport, \
                pytest.raises(ProtocolError, match="client 1 sent weights"):
            bt_round(nodes, 0, PARAMS, transport)
        after = nodes[0].state
        assert after is initiator
        assert after.weights.params.tobytes() == before_bytes
        np.testing.assert_array_equal(after.version.entries, [0, 0])

    @pytest.mark.parametrize("carrier", ["sim", "tcp"])
    def test_a_version_over_int64_aborts_atomically(self, carrier):
        # The wire's version field is a u64; a version vector holds int64.
        initiator = build_clients(2)[0]
        before_bytes = initiator.weights.params.tobytes()
        with carried(carrier, ClientNode(initiator), StubNode(version=2**63)) as transport, \
                pytest.raises(ProtocolError, match=f"client 1 sent version {2**63}, over int64"):
            run_initiator_round(initiator, transport, PARAMS)
        assert initiator.weights.params.tobytes() == before_bytes
        np.testing.assert_array_equal(initiator.version.entries, [0, 0])
        assert initiator.own_update_count == 0

    @pytest.mark.parametrize("carrier", ["sim", "tcp"])
    def test_the_largest_int64_version_is_accepted(self, carrier):
        initiator = build_clients(2)[0]
        with carried(carrier, ClientNode(initiator), StubNode(version=2**63 - 1)) as transport:
            v_new = ping_request(initiator, transport, on_unreachable="abort")
        assert v_new.entries.tolist() == [0, 2**63 - 1]

    def test_global_merge_norm_shrinks_partial_sets(self):
        params = RoundParams(
            spec=SPEC, epochs=1, base_lr=0.001, batch_size=2,
            shuffle_seed=77, merge_norm="global", total_samples=8,
        )
        clients = build_clients(4)  # shard sizes 2,2,2,2
        clients[1] = local_update(clients[1], params)
        nodes, transport = wire_up(clients)
        initiator = nodes[0].state
        acc = (2 / 8) * initiator.weights.params + (2 / 8) * clients[1].weights.params
        merged = ModelWeights(initiator.weights.spec, acc)
        expected = expected_fine_tune(initiator, params, start=merged)
        bt_round(nodes, 0, params, transport)
        assert nodes[0].state.weights.params.tobytes() == expected.params.tobytes()


class TestWarmup:
    def test_warmup_matches_fine_tune_and_bumps_version(self):
        clients = build_clients(2)
        expected = expected_fine_tune(clients[0], PARAMS)
        state = local_update(clients[0], PARAMS)
        assert state.weights.params.tobytes() == expected.params.tobytes()
        assert state.own_update_count == 1
        np.testing.assert_array_equal(state.version.entries, [1, 0])


class TestPickInitiator:
    def test_single_client_always_zero(self):
        assert all(pick_initiator(r, 1, 42) == 0 for r in range(10))

    def test_deterministic_sequence(self):
        a = [pick_initiator(r, 5, 7) for r in range(100)]
        b = [pick_initiator(r, 5, 7) for r in range(100)]
        c = [pick_initiator(r, 5, 8) for r in range(100)]
        assert a == b
        assert a != c

    def test_empirical_uniformity(self):
        draws = np.array([pick_initiator(r, 5, 123) for r in range(10_000)])
        freq = np.bincount(draws, minlength=5) / 10_000
        assert np.all(freq >= 0.18) and np.all(freq <= 0.22)


class TestAggregateAllClients:
    def test_identical_clients_return_common_model(self):
        clients = build_clients(3)
        out = aggregate_all_clients(clients)
        np.testing.assert_allclose(out.params, clients[0].weights.params, rtol=1e-15)

    def test_single_client(self):
        clients = build_clients(1)
        out = aggregate_all_clients(clients)
        np.testing.assert_array_equal(out.params, clients[0].weights.params)

    def test_weighted_vs_unweighted_scalar(self):
        shard_a = DatasetShard(0, build_clients(1)[0].shard.images[:1])
        shard_b = DatasetShard(1, build_clients(1)[0].shard.images[:3])
        clients = [
            ClientState(0, scalar_weights(0.0), VersionVector.zeros(2), shard_a),
            ClientState(1, scalar_weights(4.0), VersionVector.zeros(2), shard_b),
        ]
        assert aggregate_all_clients(clients, weighted=True).params[0] == 3.0
        assert aggregate_all_clients(clients, weighted=False).params[0] == 2.0

