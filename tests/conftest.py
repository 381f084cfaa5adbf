"""Shared helpers: a stub peer node, a spec for each small parameter count,
recorders for SimTransport frames and for run_training's evaluation points,
and loopback TCP peer processes."""

from __future__ import annotations

import itertools
import json
import socket
import subprocess
import sys
from typing import NamedTuple

import numpy as np

from peerfed import experiments
from peerfed.model import ModelSpec
from peerfed.transport import PeerUnreachableError


class StubNode:
    """Minimal peer: fixed version and weights payload."""

    def __init__(self, version=0, params=None, sample_count=1):
        self._version = version
        self._params = np.zeros(3) if params is None else np.asarray(params, dtype=float)
        self._count = sample_count

    def version_entry(self):
        return self._version

    def weights_payload(self):
        return self._params, self._count


def specs_by_param_count(max_params: int) -> dict[int, ModelSpec]:
    """One spec for every parameter count up to max_params that a spec can
    have: 4, then 6 on (no spec has fewer than 4 params, none has 5)."""
    specs: dict[int, ModelSpec] = {}
    for d, h, c in itertools.product(range(1, 9), range(9), range(2, 9)):
        spec = ModelSpec(d, (h,) if h else (), c)
        if spec.param_count() <= max_params:
            specs.setdefault(spec.param_count(), spec)
    missing = set(range(6, max_params + 1)) - specs.keys()
    assert not missing, f"no spec of {sorted(missing)} params"
    return specs


class Frame(NamedTuple):
    kind: type  # the message type the frame carries
    sender: int
    receiver: int
    nbytes: int  # 0 for a frame lost to a fault


def record_frames(transport) -> list[Frame]:
    """Every frame a SimTransport carries from now on, in order.

    Wraps the transport's _deliver, so the fault checks and drop draws
    run exactly as they would unrecorded.
    """
    frames: list[Frame] = []
    deliver = transport._deliver

    def recording(message, receiver, frame):
        try:
            deliver(message, receiver, frame)
        except PeerUnreachableError:
            frames.append(Frame(type(message), message.sender, receiver, 0))
            raise
        frames.append(Frame(type(message), message.sender, receiver, len(frame)))

    transport._deliver = recording
    return frames


def record_trajectory(monkeypatch) -> list[list[np.ndarray]]:
    """Every client's params at each evaluation point of the run_training
    calls made from now on, one list of client params per point.

    Wraps experiments' ClientNode, to collect the nodes, and MetricsRecord,
    which run_training builds at each evaluation point; that run's nodes
    are the last len(per_client_dice) ones made.
    """
    nodes, trajectory = [], []
    node_class, record_class = experiments.ClientNode, experiments.MetricsRecord

    def node(state):
        nodes.append(node_class(state))
        return nodes[-1]

    def record(**fields):
        run_nodes = nodes[-len(fields["per_client_dice"]):]
        trajectory.append([n.state.weights.params.copy() for n in run_nodes])
        return record_class(**fields)

    monkeypatch.setattr(experiments, "ClientNode", node)
    monkeypatch.setattr(experiments, "MetricsRecord", record)
    return trajectory


def free_ports(n: int) -> list[int]:
    """Grab n distinct ephemeral ports (freed on return; small race window)."""
    sockets = []
    try:
        for _ in range(n):
            sock = socket.socket()
            sock.bind(("127.0.0.1", 0))
            sockets.append(sock)
        return [s.getsockname()[1] for s in sockets]
    finally:
        for s in sockets:
            s.close()


def run_tcp_peers(tmp_path, cfg_dict: dict, n_clients: int, timeout: float = 120.0):
    """Run one CLI peer process per client; returns the shared output dir."""
    ports = free_ports(n_clients)
    peers = [{"client_index": i, "endpoint": f"127.0.0.1:{ports[i]}"}
             for i in range(n_clients)]
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(cfg_dict))
    peers_path = tmp_path / "peers.json"
    peers_path.write_text(json.dumps(peers))

    out = tmp_path / "out"
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "peerfed.cli", "run",
             "--config", str(config_path),
             "--peers", str(peers_path), "--self-index", str(i),
             "--out", str(out)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for i in range(n_clients)
    ]
    failures = []
    for i, proc in enumerate(procs):
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            stdout, stderr = proc.communicate()
            failures.append(f"peer {i} timed out\n{stdout}\n{stderr}")
            continue
        if proc.returncode != 0:
            failures.append(f"peer {i} exited {proc.returncode}\n{stdout}\n{stderr}")
    assert not failures, "\n---\n".join(failures)
    return out
