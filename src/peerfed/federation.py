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
from .transport import PeerUnreachableError


@dataclass
class VersionVector:
    """Per-client record of the latest model version merged from each peer."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        self.entries = np.asarray(self.entries, dtype=np.int64)
        if self.entries.ndim != 1:
            raise ValueError(f"entries must be 1-D, got shape {self.entries.shape}")
        if np.any(self.entries < 0):
            raise ValueError("version entries must be non-negative")

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
    own_update_count: int = 0

    def validate(self) -> None:
        if int(self.version.entries[self.client_index]) != self.own_update_count:
            raise ValueError(
                f"client {self.client_index}: version entry "
                f"{int(self.version.entries[self.client_index])} != "
                f"own_update_count {self.own_update_count}"
            )


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
    """Per-round training knobs shared by both protocols."""

    spec: ModelSpec
    epochs: int = 2
    base_lr: float = 0.001
    batch_size: int = DEFAULT_BATCH_SIZE
    shuffle_seed: int = 0
    merge_norm: str = "participants"  # or "global"
    on_unreachable: str = "skip"  # or "abort"
    total_samples: int = 0  # denominator for merge_norm="global"

    def __post_init__(self) -> None:
        if self.merge_norm not in ("participants", "global"):
            raise ValueError(f"unknown merge_norm {self.merge_norm!r}")
        if self.on_unreachable not in ("skip", "abort"):
            raise ValueError(f"unknown on_unreachable policy {self.on_unreachable!r}")


class ClientNode:
    """Thread-safe holder of one client's state for transports to read.

    Snapshot reads and commits are serialized by a lock, so a concurrent
    reader always sees a coherent (version, weights, count) triple.
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
            s = self._state
            return int(s.version.entries[s.client_index])

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
    bit-for-bit.
    """
    if not entries:
        raise ValueError("cannot average an empty entry list")
    fingerprint = entries[0][0].spec_fingerprint
    length = entries[0][0].params.shape[0]
    total = 0
    for weights, count in entries:
        if weights.spec_fingerprint != fingerprint:
            raise ValueError(
                f"fingerprint mismatch: {weights.spec_fingerprint} vs {fingerprint}"
            )
        if weights.params.shape[0] != length:
            raise ValueError("parameter length mismatch between entries")
        if count < 1:
            raise ValueError(f"sample counts must be positive, got {count}")
        total += count
    acc = np.zeros(length, dtype=np.float64)
    for weights, count in entries:
        acc += (count / total) * weights.params
    return ModelWeights(fingerprint, acc)


def _merge(
    entries: list[tuple[ModelWeights, int]],
    params: RoundParams,
) -> ModelWeights:
    if params.merge_norm == "participants":
        return weighted_average(entries)
    # Literal global normalization: coefficients a_k / total over *all*
    # clients, so a partial participant set sums to < 1 and shrinks the
    # merge toward zero. Kept for study; "participants" is the default.
    if params.total_samples < 1:
        raise ValueError("merge_norm='global' requires total_samples")
    fingerprint = entries[0][0].spec_fingerprint
    acc = np.zeros(entries[0][0].params.shape[0], dtype=np.float64)
    for weights, count in entries:
        acc += (count / params.total_samples) * weights.params
    return ModelWeights(fingerprint, acc)


def fls_round(
    clients: list[ClientState],
    params: RoundParams,
) -> tuple[list[ClientState], ModelWeights]:
    """One server round: a local update of every client, then the weighted
    average of the tuned models replaces every client's weights."""
    if not clients:
        raise ValueError("need at least one client")
    tuned = [local_update(client, params) for client in clients]
    aggregate = weighted_average([(c.weights, c.shard.sample_count) for c in tuned])
    return [replace(c, weights=aggregate.copy()) for c in tuned], aggregate


def ping_request(
    initiator: ClientState,
    transport,
    on_unreachable: str = "abort",
) -> VersionVector:
    """Collect every peer's current own-version into a fresh vector.

    With on_unreachable="skip", a peer that cannot be reached keeps the
    initiator's last-known entry, so it will not be selected as stale.
    """
    v_new = initiator.version.entries.copy()
    for peer in range(transport.n_clients):
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
    if v_old.entries.shape != v_new.entries.shape:
        raise ValueError(
            f"version length mismatch: {v_old.entries.shape} vs {v_new.entries.shape}"
        )
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
    fetched: list[tuple[int, ModelWeights, int]] = []
    for peer in stale:
        payload, sample_count, nbytes = transport.fetch_weights(state.client_index, peer)
        if payload.shape != state.weights.params.shape:
            raise ValueError(
                f"peer {peer} sent {payload.shape[0]} params, expected "
                f"{state.weights.params.shape[0]}"
            )
        fetched.append(
            (peer, ModelWeights(state.weights.spec_fingerprint, payload), sample_count)
        )
        bytes_received += nbytes

    entries = [(state.weights, state.shard.sample_count)] + [
        (weights, count) for _, weights, count in fetched
    ]
    entries_by_index = sorted(
        zip([state.client_index] + stale, entries), key=lambda pair: pair[0]
    )
    merged = _merge([entry for _, entry in entries_by_index], params)

    version = v_old.copy()
    for peer in stale:
        version.entries[peer] = v_new.entries[peer]
    new_state = local_update(replace(state, weights=merged, version=version), params)
    report = MergeReport(
        initiator=state.client_index,
        participants=frozenset([state.client_index, *stale]),
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
    """Run one peer round against the registered nodes; commit on success."""
    if not 0 <= initiator_index < len(nodes):
        raise ValueError(f"initiator index {initiator_index} out of range")
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
    weights, _ = fine_tune(
        params.spec,
        state.weights,
        state.shard,
        params.epochs,
        lr_schedule(state.own_update_count, params.base_lr),
        _tune_seed(params, state.client_index, state.own_update_count),
        params.batch_size,
    )
    version = state.version.copy()
    version.entries[state.client_index] += 1
    return replace(
        state,
        weights=weights,
        version=version,
        own_update_count=state.own_update_count + 1,
    )


def pick_initiator(round_index: int, n_clients: int, rng_seed: int) -> int:
    """Seeded uniform choice of the next initiator."""
    if n_clients < 1:
        raise ValueError(f"n_clients must be >= 1, got {n_clients}")
    rng = np.random.default_rng(derive_seed(rng_seed, "initiator", round_index))
    return int(rng.integers(0, n_clients))


def aggregate_all_clients(
    clients: list[ClientState],
    weighted: bool = True,
) -> ModelWeights:
    """Single model averaged from every client, for handing to a newcomer."""
    if not clients:
        raise ValueError("need at least one client")
    ordered = sorted(clients, key=lambda c: c.client_index)
    return weighted_average(
        [(c.weights, c.shard.sample_count if weighted else 1) for c in ordered]
    )
