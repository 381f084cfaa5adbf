"""Spans around calls into peerfed's layers, recorded from outside the package.

``install`` replaces public functions at the names their callers look them
up by (a module global or a class attribute) with timing wrappers, and
``Tracer.close`` puts the originals back. Each span records its name, start,
end, parent span and thread; spans stay in memory until the run writes them
out. A layer's self time is its span's duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import threading
import time
import types
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, NamedTuple

from stats import summarize


class Span(NamedTuple):
    span_id: int
    parent: int  # 0 for a root span
    name: str
    start: float
    end: float
    thread: int
    ok: bool  # False when the call raised
    value: Any  # bytes moved or a parameter digest, where the layer has one


class Tracer:
    """Collects spans from wrapped callables; one stack of open spans per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._undo: list[tuple[object, str, object]] = []

    def traced(self, name: str, fn: Callable, measure: Callable | None = None) -> Callable:
        """Wrap fn so each call appends a span; measure(args, result) fills its value."""
        spans, local, ids = self.spans, self._local, self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                value = measure(args, result) if ok and measure is not None else None
                spans.append(
                    Span(span_id, parent, name, start, end, threading.get_ident(), ok, value)
                )

        return wrapper

    def patch(self, owner: object, attr: str, value: object) -> None:
        """Set owner.attr, remembering the original for close()."""
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, value)

    def wrap(self, owner: object, attr: str, name: str, measure: Callable | None = None) -> None:
        self.patch(owner, attr, self.traced(name, getattr(owner, attr), measure))

    def close(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span._asdict()) + "\n")


def _frame_len(args, result) -> int:
    return len(result)


def _param_digest(args, result) -> str:
    return hashlib.sha256(args[1].params.tobytes()).hexdigest()


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of model, federation, transport, experiments and data.

    Servers bind ``TcpPeerServer.respond`` when they are constructed, so
    install before starting the servers a traced run talks to.
    """
    import socket

    from peerfed import experiments, federation, model, transport

    wrap = tracer.wrap
    # model: fine_tune resolves loss_and_grad and adam_step through model's
    # globals; the protocols resolve fine_tune through federation's.
    wrap(model, "loss_and_grad", "model.loss_and_grad")
    wrap(model, "adam_step", "model.adam_step")
    wrap(federation, "fine_tune", "model.fine_tune")
    wrap(experiments, "predict", "model.predict")
    wrap(experiments, "dice_score", "model.dice_score")
    # experiments and data
    wrap(experiments, "evaluate_model", "experiments.evaluate_model", _param_digest)
    wrap(experiments, "build_dataset", "experiments.build_dataset")
    wrap(experiments, "build_shards", "experiments.build_shards")
    wrap(experiments, "generate_dataset", "data.generate_dataset")
    # federation: run_training calls through experiments' globals, the peer
    # round and the TCP swarm through federation's.
    wrap(experiments, "fls_round", "federation.fls_round")
    for owner in (experiments, federation):
        wrap(owner, "local_update", "federation.local_update")
        wrap(owner, "aggregate_all_clients", "federation.aggregate_all_clients")
    wrap(federation, "run_initiator_round", "federation.run_initiator_round")
    wrap(federation, "ping_request", "federation.ping_request")
    wrap(federation, "weighted_average", "federation.weighted_average",
         lambda args, result: sum(w.params.nbytes for w, _ in args[0]))
    # transport
    wrap(transport, "encode", "transport.encode", _frame_len)
    wrap(transport, "decode", "transport.decode", lambda args, result: len(args[0]))
    for cls, kind in ((transport.SimTransport, "sim"), (transport.TcpTransport, "tcp")):
        wrap(cls, "ping", f"transport.{kind}.ping")
        wrap(cls, "fetch_weights", f"transport.{kind}.fetch_weights",
             lambda args, result: result[2])
    wrap(transport.TcpPeerServer, "respond", "transport.tcp.respond")
    # TcpTransport opens its connections through its module's `socket` name;
    # a proxy module there times each connect without touching the real one.
    proxy = types.ModuleType("socket")
    proxy.__getattr__ = lambda attr: getattr(socket, attr)
    proxy.create_connection = tracer.traced("transport.tcp.connect", socket.create_connection)
    tracer.patch(transport, "socket", proxy)


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = lo
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if start > cur_end:
            total += cur_end - cur_start
            cur_start = start
        cur_end = max(cur_end, end)
    return total + cur_end - cur_start


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent:
            children[span.parent].append((span.start, span.end))
    return {
        span.span_id: (span.end - span.start)
        - covered(children.get(span.span_id, []), span.start, span.end)
        for span in spans
    }


# Per-layer statistics reported for every workload, as (span name, stats).
LAYER_STATS = (
    ("model.loss_and_grad", ("calls", "busy_s", "mean_us")),
    ("model.adam_step", ("calls", "busy_s")),
    ("model.fine_tune", ("calls", "busy_s", "self_s")),
    ("model.predict", ("calls", "busy_s")),
    ("model.dice_score", ("calls", "busy_s")),
    ("experiments.evaluate_model", ("calls", "busy_s")),
    ("experiments.build_dataset", ("busy_s",)),
    ("experiments.build_shards", ("busy_s",)),
    ("data.generate_dataset", ("busy_s",)),
    ("federation.fls_round", ("self_s",)),
    ("federation.run_initiator_round", ("calls", "busy_s", "self_s")),
    ("federation.ping_request", ("busy_s",)),
    ("federation.weighted_average", ("calls", "busy_s", "bytes")),
    ("transport.encode", ("calls", "busy_s", "bytes")),
    ("transport.decode", ("calls", "busy_s", "bytes")),
    ("transport.sim.ping", ("calls", "busy_s")),
    ("transport.sim.fetch_weights", ("calls", "busy_s")),
    ("transport.tcp.ping", ("calls", "busy_s", "p50_us", "p95_us")),
    ("transport.tcp.fetch_weights", ("calls", "busy_s", "p50_us", "p95_us", "bytes")),
    ("transport.tcp.respond", ("calls", "busy_s")),
    ("transport.tcp.connect", ("busy_s",)),
)

UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "mean_us": "us",
         "p50_us": "us", "p95_us": "us", "bytes": "B"}


def layer_metrics(spans: list[Span], lo: float, hi: float, main_thread: int) -> dict:
    """Per-layer figures of one traced run over [lo, hi]: {name: (value, unit)}.

    Top-level coverage counts only the run's own thread, since TCP server
    threads work while the main thread waits on them.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def stat(name: str, kind: str) -> float:
        durations = [s.end - s.start for s in by_name[name]]
        if kind == "calls":
            return len(durations)
        if kind == "busy_s":
            return sum(durations)
        if kind == "self_s":
            return sum(selfs[s.span_id] for s in by_name[name])
        if kind == "bytes":
            return sum(s.value for s in by_name[name] if s.value is not None)
        if kind == "mean_us":
            return 1e6 * sum(durations) / len(durations) if durations else 0.0
        summary = summarize([1e6 * d for d in durations])
        return summary.median if kind == "p50_us" else summary.tail

    out = {f"{name}.{kind}": (stat(name, kind), UNITS[kind])
           for name, kinds in LAYER_STATS for kind in kinds}

    def calls(name: str) -> int:
        return len(by_name[name])

    def failed(*names: str) -> int:
        return sum(not s.ok for name in names for s in by_name[name])

    evaluated = by_name["experiments.evaluate_model"]
    pings = calls("transport.sim.ping") + calls("transport.tcp.ping")
    fetches = calls("transport.sim.fetch_weights") + calls("transport.tcp.fetch_weights")
    rounds = calls("federation.run_initiator_round")
    roots = [(s.start, s.end) for s in spans if not s.parent and s.thread == main_thread]
    out.update({
        "experiments.evaluate_model.distinct_ratio": (
            len({s.value for s in evaluated}) / len(evaluated) if evaluated else 0.0, "ratio"),
        "transport.tcp.wait_s": (
            out["transport.tcp.ping.busy_s"][0] + out["transport.tcp.fetch_weights.busy_s"][0]
            - out["transport.tcp.respond.busy_s"][0], "s"),
        "transport.tcp.connections": (calls("transport.tcp.connect"), "count"),
        "transport.failed.ping": (failed("transport.sim.ping", "transport.tcp.ping"), "count"),
        "transport.failed.fetch_weights": (
            failed("transport.sim.fetch_weights", "transport.tcp.fetch_weights"), "count"),
        "federation.fetch_ratio": (fetches / pings if pings else 0.0, "ratio"),
        "federation.stale_per_round": (fetches / rounds if rounds else 0.0, "peers/round"),
        "trace.top_coverage": (covered(roots, lo, hi) / (hi - lo), "ratio"),
    })
    return out
