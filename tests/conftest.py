"""Shared helpers: a frame recorder for SimTransport, and loopback TCP peer processes."""

from __future__ import annotations

import json
import socket
import subprocess
import sys
from typing import NamedTuple

from peerfed.transport import PeerUnreachableError


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
