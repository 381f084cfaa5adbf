"""A fixed speed probe, timed between repeats to scale timings to one machine speed.

The benchmark was tuned on a shared 2-vCPU VM whose speed changes while
nothing in the process does: the same set-up flips between about 4.5 and
8 ms from one second to the next, and ``bt_paper``'s repeats took from
4.8 s to 9.5 s within half an hour. Most of such a change is shared by
every kind of work, so each run times this probe next to its repeats and
its set-ups, and scales each timing by ``REF_S / probe time``: it reads as
seconds on a machine on which the probe takes ``REF_S``.

The probe does a little of what the program does: a pure-Python loop, the
hidden layer of the paper's ``[512]`` model on a 32x32 image, and small
socket round trips through the kernel. It does not import the program, so
no change to the program can move it.
"""

from __future__ import annotations

import socket
import time

import numpy as np

# The probe's median on the tuning machine in a fast spell; any fixed value
# would do, this one keeps scaled timings close to raw ones.
REF_S = 0.070
PER_GAP = 5  # probes timed before every repeat and after the last

_rng = np.random.default_rng(0)
_PIXELS = _rng.random((1024, 4))
_W1 = _rng.random((4, 512))
_W2 = _rng.random((512, 4))


class Probe:
    """Times the probe and keeps every sample."""

    def __init__(self) -> None:
        self._a, self._b = socket.socketpair()
        self.samples: list[float] = []

    def sample(self) -> float:
        """Time one fixed mix of interpreter, numpy and syscall work, in seconds."""
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        for _ in range(20):
            hidden = np.maximum(_PIXELS @ _W1, 0.0)
            out = hidden @ _W2
            hidden.T @ out
        for _ in range(200):
            self._a.send(b"x" * 64)
            self._b.recv(64)
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def close(self) -> None:
        self._a.close()
        self._b.close()

    def __enter__(self) -> "Probe":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
