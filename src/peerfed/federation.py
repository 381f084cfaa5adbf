"""Federated training protocols over an abstract peer transport.

Two protocols are implemented as explicit round functions:

* server round: every client fine-tunes in parallel, a server averages
  all models weighted by shard size, and the average replaces every
  client's weights.
* peer round: one initiator pings all peers for model versions, fetches
  weights only from peers with versions newer than its vector records,
  merges that subset with its own model by weighted averaging, fine-tunes
  the merge on local data, and bumps its own version.

Rounds are atomic: a failed peer round leaves every client bitwise
unchanged.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

import numpy as np

from .data import DatasetShard
from .model import (
    DEFAULT_BATCH_SIZE,
    ModelSpec,
    ModelWeights,
    fine_tune,
    lr_schedule,
)
from .seeding import derive_seed
from .transport import PeerUnreachableError, ProtocolError


@dataclass
class VersionVector:
    """Per-client record of the latest model version merged from each peer."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        self.entries = np.asarray(self.entries, dtype=np.int64)

    @staticmethod
    def zeros(n_clients: int) -> "VersionVector":
        return VersionVector(np.zeros(n_clients, dtype=np.int64))

    def copy(self) -> "VersionVector":
        return VersionVector(self.entries.copy())


@dataclass
class ClientState:
    """One federation participant."""

    client_index: int
    weights: ModelWeights
    version: VersionVector
    shard: DatasetShard

    @property
    def own_update_count(self) -> int:
        """Local updates this client has made: its own version entry."""
        return int(self.version.entries[self.client_index])


@dataclass(frozen=True)
class MergeReport:
    """What one peer round did: who merged, and how many bytes it pulled."""

    initiator: int
    participants: frozenset[int]
    bytes_received: int
    v_old: VersionVector
    v_new: VersionVector


@dataclass(frozen=True)
class RoundParams:
    """Per-round training knobs shared by both protocols, set by code from
    a checked config."""

    spec: ModelSpec  # unread: the weights carry their spec; bench/ still sets it
    epochs: int = 2
    base_lr: float = 0.001
    batch_size: int = DEFAULT_BATCH_SIZE
    shuffle_seed: int = 0
    merge_norm: str = "participants"  # or "global"
    on_unreachable: str = "skip"  # or "abort"
    total_samples: int = 0  # denominator for merge_norm="global"


class ClientNode:
    """Thread-safe holder of one client's state for transports to read.

    Snapshot reads and commits are serialized by a lock, so a concurrent
    reader sees the weights, sample count and own version entry of one commit.
    """

    def __init__(self, state: ClientState):
        self._lock = threading.Lock()
        self._state = state

    @property
    def state(self) -> ClientState:
        with self._lock:
            return self._state

    def commit(self, new_state: ClientState) -> None:
        with self._lock:
            self._state = new_state

    def version_entry(self) -> int:
        with self._lock:
            return self._state.own_update_count

    def weights_payload(self) -> tuple[np.ndarray, int]:
        with self._lock:
            s = self._state
            return s.weights.params, s.shard.sample_count


def _tune_seed(params: RoundParams, client_index: int, update_count: int) -> int:
    return derive_seed(params.shuffle_seed, "tune", client_index, update_count)


def weighted_average(entries: list[tuple[ModelWeights, int]]) -> ModelWeights:
    """Convex combination of parameter vectors with sample-count weights.

    Accumulates left to right over the given entry order; callers pass
    entries in ascending client index so results are reproducible
    bit-for-bit. Callers pass weights of one spec, which the result takes,
    and counts of at least 1, as DatasetShard and _checked_reply ensure.
    """
    return _weighted_sum(entries, sum(count for _, count in entries))


def _weighted_sum(entries: list[tuple[ModelWeights, int]], total: int) -> ModelWeights:
    """Sum of count / total x params over entries, accumulated left to right."""
    acc = np.zeros(entries[0][0].params.shape[0], dtype=np.float64)
    term = np.empty_like(acc)
    for weights, count in entries:
        acc += np.multiply(weights.params, count / total, out=term)
    return ModelWeights(entries[0][0].spec, acc)


def _merge(
    entries: list[tuple[ModelWeights, int]],
    params: RoundParams,
) -> ModelWeights:
    if params.merge_norm == "participants":
        return weighted_average(entries)
    # Literal global normalization: coefficients a_k / total over *all*
    # clients, so a partial participant set sums to < 1 and shrinks the
    # merge toward zero. Kept for study; "participants" is the default.
    return _weighted_sum(entries, params.total_samples)


def fls_round(
    clients: list[ClientState],
    params: RoundParams,
) -> tuple[list[ClientState], ModelWeights]:
    """One server round: a local update of every client, then the weighted
    average of the tuned models replaces every client's weights."""
    tuned = [local_update(client, params) for client in clients]
    aggregate = weighted_average([(c.weights, c.shard.sample_count) for c in tuned])
    return [replace(c, weights=aggregate.copy()) for c in tuned], aggregate


def ping_request(
    initiator: ClientState,
    transport,
    on_unreachable: str,
) -> VersionVector:
    """Collect the own-version of each other client the initiator's vector lists.

    With on_unreachable="skip", a peer that cannot be reached keeps the
    initiator's last-known entry, so it will not be selected as stale.
    """
    v_new = initiator.version.entries.copy()
    for peer in range(len(v_new)):
        if peer == initiator.client_index:
            continue
        try:
            v_new[peer] = transport.ping(initiator.client_index, peer)
        except PeerUnreachableError:
            if on_unreachable == "abort":
                raise
    return VersionVector(v_new)


def select_stale_peers(v_old: VersionVector, v_new: VersionVector) -> set[int]:
    """Peers whose version advanced past the initiator's record of them."""
    return {int(j) for j in np.nonzero(v_new.entries > v_old.entries)[0]}


def run_initiator_round(
    state: ClientState,
    transport,
    params: RoundParams,
) -> tuple[ClientState, MergeReport]:
    """Ping, fetch stale peers, merge, fine-tune, bump own version.

    Pure in its inputs: any failure raises before the new state is built,
    leaving the caller's state untouched.
    """
    v_old = state.version.copy()
    v_new = ping_request(state, transport, on_unreachable=params.on_unreachable)
    stale = sorted(select_stale_peers(v_old, v_new))

    bytes_received = 0
    entries = {state.client_index: (state.weights, state.shard.sample_count)}
    for peer in stale:
        payload, sample_count, nbytes = transport.fetch_weights(state.client_index, peer)
        if payload.shape != state.weights.params.shape:
            raise ProtocolError(f"client {peer} sent weights of {payload.shape[0]} params, "
                                f"expected {state.weights.params.shape[0]}")
        entries[peer] = (ModelWeights(state.weights.spec, payload), sample_count)
        bytes_received += nbytes
    merged = _merge([entries[i] for i in sorted(entries)], params)

    version = v_old.copy()
    for peer in stale:
        version.entries[peer] = v_new.entries[peer]
    new_state = local_update(replace(state, weights=merged, version=version), params)
    report = MergeReport(
        initiator=state.client_index,
        participants=frozenset(entries),
        bytes_received=bytes_received,
        v_old=v_old,
        v_new=v_new,
    )
    return new_state, report


def bt_round(
    nodes: list[ClientNode],
    initiator_index: int,
    params: RoundParams,
    transport,
) -> MergeReport:
    """Run one peer round initiated by nodes[initiator_index]; commit on success."""
    node = nodes[initiator_index]
    new_state, report = run_initiator_round(node.state, transport, params)
    node.commit(new_state)
    return report


def local_update(state: ClientState, params: RoundParams) -> ClientState:
    """One local pass: fine-tune own weights, bump own version.

    Every update is one: alone in the warm-up pass and the baselines that
    never communicate, after the merge in a peer round, and before the
    average in a server round.
    """
    weights = fine_tune(
        state.weights,
        state.shard,
        params.epochs,
        lr_schedule(state.own_update_count, params.base_lr),
        _tune_seed(params, state.client_index, state.own_update_count),
        params.batch_size,
    )
    version = state.version.copy()
    version.entries[state.client_index] += 1
    return replace(state, weights=weights, version=version)


def pick_initiator(round_index: int, n_clients: int, rng_seed: int) -> int:
    """Seeded uniform choice of the next initiator."""
    rng = np.random.default_rng(derive_seed(rng_seed, "initiator", round_index))
    return int(rng.integers(0, n_clients))


def aggregate_all_clients(
    clients: list[ClientState],
    weighted: bool = True,
) -> ModelWeights:
    """Single model averaged from every client: the model whose Dice a run
    records as its aggregated-model Dice."""
    ordered = sorted(clients, key=lambda c: c.client_index)
    return weighted_average(
        [(c.weights, c.shard.sample_count if weighted else 1) for c in ordered]
    )
