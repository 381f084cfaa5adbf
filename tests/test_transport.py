"""Wire codec, simulated transport, and TCP transport."""

from __future__ import annotations

import collections
import contextlib
import hashlib
import itertools
import logging
import os
import select
import selectors
import socket
import struct
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import StubNode, record_frames
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from peerfed import transport as transport_module
from peerfed.data import DatasetShard, GenConfig, SplitSpec, generate_dataset
from peerfed.federation import ClientNode, ClientState, VersionVector
from peerfed.model import ModelSpec, ModelWeights
from peerfed.transport import (
    DEFAULT_MAX_FRAME_BYTES,
    ERR_BAD_REQUEST,
    ERR_VERSION_MISMATCH,
    HEADER_BYTES,
    PROTOCOL_VERSION,
    TAG_ERROR,
    TAG_PING_REQUEST,
    TAG_PING_RESPONSE,
    TAG_WEIGHTS_RESPONSE,
    ErrorMessage,
    IncompleteFrameError,
    Message,
    OversizeFrameError,
    PeerAddress,
    PeerUnreachableError,
    PingRequest,
    PingResponse,
    ProtocolError,
    SimTransport,
    TcpPeerServer,
    TcpTransport,
    TransportError,
    VersionMismatchError,
    WeightsRequest,
    WeightsResponse,
    decode,
    encode,
    parse_peer_table,
    read_frame,
    reply_to,
    weights_frame_bytes,
)


def all_message_examples():
    return [
        PingRequest(sender=3, request_id=42),
        PingResponse(sender=1, request_id=42, own_version=17),
        WeightsRequest(sender=0, request_id=7),
        WeightsResponse(sender=2, request_id=7, sample_count=5,
                        params=np.array([0.5, -1.25, 3e300, 0.0])),
        WeightsResponse(sender=2, request_id=8, sample_count=1, params=np.zeros(0)),
        ErrorMessage(sender=4, request_id=9, code=2, text="nope — bad frame"),
    ]


def raw_frame(tag: int, payload: bytes) -> bytes:
    """A frame with a valid length prefix and header around any payload."""
    body = struct.pack("<BHQB", PROTOCOL_VERSION, 0, 1, tag) + payload
    return struct.pack("<I", len(body)) + body


class TestCodec:
    @pytest.mark.parametrize("msg", all_message_examples(), ids=lambda m: type(m).__name__)
    def test_round_trip(self, msg):
        assert decode(encode(msg)) == msg

    def test_ping_request_frame_is_16_bytes(self):
        # 4-byte length prefix + 12-byte header, no payload.
        assert len(encode(PingRequest(sender=0, request_id=0))) == 4 + 12

    def test_weights_frame_length_formula(self):
        for n in (0, 1, 64):
            msg = WeightsResponse(sender=0, request_id=1, sample_count=2,
                                  params=np.arange(n, dtype=float))
            assert len(encode(msg)) == 4 + 12 + 8 + 8 * n == weights_frame_bytes(n)

    def test_weights_params_bit_exact(self):
        params = np.array([1e-300, -0.0, np.pi, 2**53 + 1.0])
        out = decode(encode(WeightsResponse(0, 1, 1, params)))
        assert out.params.tobytes() == params.tobytes()

    # SHA-256 of each frame as an earlier codec encoded it: a faster
    # encoder must not change a byte on the wire.
    PINNED_FRAMES = {
        "ping_request": (PingRequest(3, 42), "c0fbf8d06a36ec5e1ed6cd0a766ea4c5"
                         "dd41f019189a27795c532ed1038ff569"),
        "ping_response": (PingResponse(1, 42, 17), "095feb566f17aaf7c30e3b4d571b905a"
                          "dd26c7b801fcf18144204daef48bddbd"),
        "error": (ErrorMessage(4, 9, 2, "nope — bad frame"), "1f4e926a51b48fcbd5b8bf6b58733164"
                  "3fb15180f4f50ae59c261434376db394"),
        "weights": (WeightsResponse(2, 7, 5, np.random.default_rng(19).normal(size=4612)),
                    "4909d410b4761c1846b5b2bb17e68762c06b73641fdf5556367d7a004b899deb"),
    }

    @pytest.mark.parametrize("name", PINNED_FRAMES)
    def test_frame_bytes_are_pinned(self, name):
        msg, digest = self.PINNED_FRAMES[name]
        assert hashlib.sha256(encode(msg)).hexdigest() == digest

    def test_decoded_params_are_a_writable_copy(self):
        frame = encode(self.PINNED_FRAMES["weights"][0])
        params = decode(frame).params
        assert params.flags.writeable and params.flags.owndata
        assert not np.shares_memory(params, np.frombuffer(frame, dtype=np.uint8))
        params[0] = 1.0  # the frame stays as it was
        assert hashlib.sha256(frame).hexdigest() == self.PINNED_FRAMES["weights"][1]

    def test_empty_input_incomplete(self):
        with pytest.raises(IncompleteFrameError):
            decode(b"")

    def test_truncated_frame_incomplete(self):
        frame = encode(PingResponse(0, 1, 2))
        with pytest.raises(IncompleteFrameError):
            decode(frame[:-1])

    def test_trailing_bytes_rejected(self):
        frame = encode(PingRequest(0, 1))
        with pytest.raises(ProtocolError):
            decode(frame + b"x")

    def test_unknown_tag_rejected(self):
        frame = bytearray(encode(PingRequest(0, 1)))
        frame[15] = 0xFF  # variant tag byte
        with pytest.raises(ProtocolError):
            decode(bytes(frame))

    def test_version_mismatch_rejected(self):
        frame = bytearray(encode(PingRequest(0, 1)))
        frame[4] = PROTOCOL_VERSION + 1
        with pytest.raises(VersionMismatchError):
            decode(bytes(frame))

    def test_oversize_frame_rejected(self):
        data = struct.pack("<I", DEFAULT_MAX_FRAME_BYTES + 1)
        with pytest.raises(OversizeFrameError):
            decode(data)

    def test_weights_count_field_must_match_payload(self):
        frame = bytearray(encode(WeightsResponse(0, 1, 1, np.zeros(2))))
        frame[20] = 3  # claim 3 params while carrying 2
        with pytest.raises(ProtocolError):
            decode(bytes(frame))

    @pytest.mark.parametrize("frame, message", [
        (struct.pack("<I", HEADER_BYTES - 1) + bytes(HEADER_BYTES - 1),
         "shorter than the header"),
        (raw_frame(TAG_PING_REQUEST, b"x"), "1-byte payload on request"),
        (raw_frame(TAG_PING_RESPONSE, bytes(7)), "must be 8 bytes, got 7"),
        (raw_frame(TAG_WEIGHTS_RESPONSE, bytes(7)), "weights response payload too short: 7"),
        (raw_frame(TAG_ERROR, bytes(5)), "error payload too short: 5"),
        (raw_frame(TAG_ERROR, struct.pack("<HI", 1, 4) + b"abc"), "length mismatch"),
        (raw_frame(TAG_ERROR, struct.pack("<HI", 1, 1) + b"\xff"), "not valid UTF-8"),
    ], ids=["short_header", "request_payload", "ping_payload", "weights_payload",
            "error_payload", "error_text_length", "error_text_utf8"])
    def test_malformed_payload_rejected(self, frame, message):
        with pytest.raises(ProtocolError, match=message):
            decode(frame)

    def test_read_frame_rejects_oversize_length_prefix(self):
        sender, receiver = socket.socketpair()
        with sender, receiver:
            sender.sendall(struct.pack("<I", DEFAULT_MAX_FRAME_BYTES + 1))
            with pytest.raises(OversizeFrameError):
                read_frame(receiver)

    def test_read_frame_rejects_bytes_after_the_reply(self):
        # A peer that answers one request with two frames is out of step;
        # its second frame must not be left to answer the next request.
        sender, receiver = socket.socketpair()
        with sender, receiver:
            frame = encode(PingResponse(1, 1, 0))
            sender.sendall(frame + frame)
            with pytest.raises(ProtocolError, match=f"{len(frame)} bytes after"):
                read_frame(receiver)

    def test_fuzz_smoke_never_crashes(self):
        rng = np.random.default_rng(0)
        for _ in range(20_000):
            blob = rng.bytes(int(rng.integers(0, 60)))
            try:
                decode(blob)
            except TransportError:
                pass

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=80))
    def test_decode_total_over_arbitrary_bytes(self, blob):
        try:
            decode(blob)
        except TransportError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 65535),
        st.integers(0, 2**64 - 1),
        st.integers(0, 2**32 - 1),
        st.lists(st.floats(allow_nan=False, width=64), max_size=16),
    )
    def test_weights_round_trip_property(self, sender, rid, count, values):
        msg = WeightsResponse(sender, rid, count, np.array(values, dtype=float))
        assert decode(encode(msg)) == msg


class TestSimTransport:
    def make(self, versions=(0, 3, 0), drop_prob=0.0, seed=0):
        nodes = [StubNode(version=v, params=np.full(4, float(i)), sample_count=i + 1)
                 for i, v in enumerate(versions)]
        return SimTransport(nodes, seed=seed, drop_prob=drop_prob)

    def test_ping_returns_peer_version(self):
        transport = self.make(versions=(0, 3, 7))
        assert transport.ping(0, 1) == 3
        assert transport.ping(0, 2) == 7

    def test_fetch_returns_payload_and_frame_size(self):
        transport = self.make()
        params, count, nbytes = transport.fetch_weights(0, 2)
        np.testing.assert_array_equal(params, np.full(4, 2.0))
        assert count == 3
        assert nbytes == weights_frame_bytes(4)

    def test_reachable_peer_one_response(self):
        transport = self.make()
        frames = record_frames(transport)
        transport.ping(0, 1)
        assert [f.kind for f in frames] == [PingRequest, PingResponse]

    def test_unreachable_flag_raises_naming_peer(self):
        transport = self.make()
        transport.set_unreachable(1)
        with pytest.raises(PeerUnreachableError, match="client 1"):
            transport.ping(0, 1)
        transport.set_unreachable(1, down=False)
        assert transport.ping(0, 1) == 3

    def test_identical_seeds_identical_traces(self):
        def run(seed):
            transport = self.make(drop_prob=0.4, seed=seed)
            frames = record_frames(transport)
            outcomes = []
            for peer in (1, 2, 1, 2, 1):
                try:
                    transport.ping(0, peer)
                    outcomes.append("ok")
                except PeerUnreachableError:
                    outcomes.append("lost")
            return outcomes, frames

        a_out, a_trace = run(9)
        b_out, b_trace = run(9)
        c_out, c_trace = run(10)
        assert a_out == b_out and a_trace == b_trace
        assert (a_out, a_trace) != (c_out, c_trace)

    @pytest.mark.parametrize("peer", [2, -1])
    def test_out_of_range_peer_unreachable(self, peer):
        def outcomes(transport):  # which of 20 pings to client 1 get through
            results = []
            for _ in range(20):
                try:
                    results.append(transport.ping(0, 1))
                except PeerUnreachableError:
                    results.append(None)
            return results

        transport = SimTransport([StubNode(), StubNode()], seed=5, drop_prob=0.5)
        with pytest.raises(PeerUnreachableError, match=f"no client {peer}"):
            transport.ping(0, peer)
        # Nothing was carried and no drop was drawn for it.
        assert transport.delivered_bytes() == 0
        fresh = SimTransport([StubNode(), StubNode()], seed=5, drop_prob=0.5)
        assert outcomes(transport) == outcomes(fresh)

    # Values whose sum overflows to inf, and vectors with an inf or a nan.
    # The reply check must accept the first, with no overflow warning, and
    # refuse the others.
    HUGE = np.full(64, 1e308)
    NON_FINITE = {
        "inf_first": np.r_[np.inf, np.zeros(63)],
        "inf_last": np.r_[np.zeros(63), np.inf],
        "nan": np.r_[np.zeros(20), np.nan, np.zeros(43)],
        "inf_minus_inf": np.r_[np.zeros(31), np.inf, -np.inf, np.zeros(31)],
    }

    def test_weights_whose_sum_overflows_are_accepted(self):
        transport = SimTransport([StubNode(), StubNode(params=self.HUGE)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            params, _, _ = transport.fetch_weights(0, 1)
        assert params.tobytes() == self.HUGE.tobytes()

    @pytest.mark.parametrize("case", NON_FINITE)
    def test_weights_with_an_inf_or_nan_are_refused(self, case):
        transport = SimTransport([StubNode(), StubNode(params=self.NON_FINITE[case])])
        with np.errstate(invalid="ignore"), pytest.raises(ProtocolError, match="not all finite"):
            transport.fetch_weights(0, 1)


@pytest.fixture
def connects(monkeypatch):
    """Every socket opened through the transport module's socket.create_connection."""
    opened = []
    real = socket.create_connection

    def counting(*args, **kwargs):
        sock = real(*args, **kwargs)
        opened.append(sock)
        return sock

    monkeypatch.setattr("peerfed.transport.socket.create_connection", counting)
    return opened


def raw_connection(server) -> socket.socket:
    """A client socket that bypasses create_connection, so `connects` does not count it."""
    sock = socket.socket()
    sock.settimeout(5)
    sock.connect(("127.0.0.1", server.port))
    return sock


# A peer server in a process that may hold as many descriptors as argv[1]
# says. It prints its port, then one line for each line read on stdin:
# after "fill", how many /dev/null handles it opened to take every free
# descriptor; after "free", whether its listener was unwatched (waiting up
# to 2 s for that) before it closed them; else its CPU time. At EOF it
# stops and prints its listener's descriptor, -1 once closed.
OUT_OF_DESCRIPTORS_SERVER = """
import os, resource, sys, time
from peerfed.transport import TcpPeerServer

class Node:
    def version_entry(self):
        return 7

def listener_watched():
    return server._listener in server._selector.get_map()

_, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
resource.setrlimit(resource.RLIMIT_NOFILE, (int(sys.argv[1]), hard))
server = TcpPeerServer(Node(), 1, "127.0.0.1", 0)
server.start()
print(server.port, flush=True)
held = []
for line in sys.stdin:
    if line.strip() == "fill":
        try:
            while True:
                held.append(open(os.devnull))
        except OSError:
            print(len(held), flush=True)
    elif line.strip() == "free":
        deadline = time.monotonic() + 2.0
        while listener_watched() and time.monotonic() < deadline:
            time.sleep(0.01)
        unwatched = not listener_watched()
        for handle in held:
            handle.close()
        held.clear()
        print(unwatched, flush=True)
    else:
        print(time.process_time(), flush=True)
server.stop()
print(server._listener.fileno(), flush=True)
"""


@contextlib.contextmanager
def out_of_descriptors_server(limit: int):
    """Run OUT_OF_DESCRIPTORS_SERVER under an RLIMIT_NOFILE of limit. Yields
    its port and a function that sends it a command line ("cpu", "fill" or
    "free"; None closes its stdin, which stops the server) and returns the
    line it answers, waiting at most 5 s."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen([sys.executable, "-c", OUT_OF_DESCRIPTORS_SERVER, str(limit)],
                            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def reply_line() -> str:
        ready, _, _ = select.select([proc.stdout], [], [], 5.0)
        assert ready, "the server process did not answer"
        return proc.stdout.readline()

    def command(line: str | None) -> str:
        if line is None:
            proc.stdin.close()
        else:
            proc.stdin.write(line + "\n")
            proc.stdin.flush()
        return reply_line()

    try:
        yield int(reply_line()), command
    finally:
        if not proc.stdin.closed:
            proc.stdin.close()
        try:
            assert proc.wait(timeout=5) == 0
        finally:
            proc.kill()
            proc.stdout.close()


def has_ipv6_loopback() -> bool:
    try:
        socket.create_server(("::1", 0), family=socket.AF_INET6).close()
    except OSError:
        return False
    return True


class TestTcpTransport:
    @pytest.fixture(autouse=True)
    def no_leaked_threads(self):
        """Fail a test that leaves a server loop or any other thread running."""
        before = set(threading.enumerate())
        yield
        deadline = time.monotonic() + 1.0
        for thread in set(threading.enumerate()) - before:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        leaked = [t for t in set(threading.enumerate()) - before if t.is_alive()]
        assert not leaked, f"threads left running: {leaked}"

    def start_server(self, node, client_index=1, port=0):
        server = TcpPeerServer(node, client_index, "127.0.0.1", port)
        server.start()
        return server

    def transport_for(self, server):
        peers = [
            PeerAddress(0, "127.0.0.1:1"),  # self entry, never dialed here
            PeerAddress(1, f"127.0.0.1:{server.port}"),
        ]
        return TcpTransport(0, peers)

    def test_ping_and_fetch_round_trip(self):
        node = StubNode(version=5, params=np.array([1.5, -2.5]), sample_count=9)
        server = self.start_server(node)
        try:
            transport = self.transport_for(server)
            assert transport.ping(0, 1) == 5
            params, count, nbytes = transport.fetch_weights(0, 1)
            np.testing.assert_array_equal(params, [1.5, -2.5])
            assert count == 9
            assert nbytes == weights_frame_bytes(2)
            transport.close()
        finally:
            server.stop()

    def test_bracketed_ipv6_endpoint_round_trip(self):
        if not has_ipv6_loopback():
            pytest.skip("no IPv6 loopback")
        server = TcpPeerServer(StubNode(version=4), 1, "::1", 0)
        server.start()
        try:
            peers = [PeerAddress(0, "[::1]:1"), PeerAddress(1, f"[::1]:{server.port}")]
            transport = TcpTransport(0, peers)
            assert transport.ping(0, 1) == 4
            transport.close()
        finally:
            server.stop()

    def test_version_mismatch_refused_with_protocol_error(self):
        server = self.start_server(StubNode())
        try:
            frame = bytearray(encode(PingRequest(sender=0, request_id=1)))
            frame[4] = PROTOCOL_VERSION + 1
            with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
                sock.sendall(bytes(frame))
                prefix = sock.recv(4)
                (length,) = struct.unpack("<I", prefix)
                body = b""
                while len(body) < length:
                    body += sock.recv(length - len(body))
            reply = decode(prefix + body)
            assert isinstance(reply, ErrorMessage)
            assert reply.code == ERR_VERSION_MISMATCH

            transport = self.transport_for(server)
            assert transport.ping(0, 1) == 0  # server still healthy
            transport.close()
        finally:
            server.stop()

    def test_a_frame_that_is_not_a_request_is_answered_with_an_error(self):
        server = self.start_server(StubNode(version=4))
        client = raw_connection(server)
        try:
            client.sendall(encode(PingResponse(sender=0, request_id=7, own_version=3)))
            assert decode(read_frame(client)) == ErrorMessage(
                1, 7, ERR_BAD_REQUEST, "unexpected PingResponse")
            client.sendall(encode(PingRequest(sender=0, request_id=8)))  # the same connection
            assert decode(read_frame(client)) == PingResponse(1, 8, 4)
        finally:
            client.close()
            server.stop()

    def test_dead_peer_unreachable_within_timeout(self, monkeypatch):
        server = self.start_server(StubNode())
        port = server.port
        server.stop()
        monkeypatch.setattr(transport_module, "DEFAULT_TIMEOUT_S", 0.5)
        peers = [PeerAddress(0, "127.0.0.1:1"), PeerAddress(1, f"127.0.0.1:{port}")]
        transport = TcpTransport(0, peers)
        start = time.monotonic()
        with pytest.raises(PeerUnreachableError):
            transport.ping(0, 1)
        assert time.monotonic() - start < 1.5

    def test_silent_peer_unreachable_within_timeout(self, monkeypatch):
        # A listener that never accepts: the kernel completes the handshake
        # and takes the request in, but no reply ever comes.
        monkeypatch.setattr(transport_module, "DEFAULT_TIMEOUT_S", 0.5)
        with socket.create_server(("127.0.0.1", 0)) as listener:
            listener.settimeout(1.0)
            port = listener.getsockname()[1]
            transport = TcpTransport(0, [PeerAddress(0, "127.0.0.1:1"),
                                         PeerAddress(1, f"127.0.0.1:{port}")])
            outcome = {}

            def ping() -> None:
                start = time.monotonic()
                try:
                    transport.ping(0, 1)
                except Exception as exc:
                    outcome["error"] = exc
                outcome["elapsed"] = time.monotonic() - start

            thread = threading.Thread(target=ping, daemon=True)
            thread.start()
            thread.join(timeout=5.0)
            assert not thread.is_alive(), "ping did not time out"
            assert isinstance(outcome.get("error"), PeerUnreachableError)
            assert 0.4 <= outcome["elapsed"] < 1.5

            conn, _ = listener.accept()
            with conn:
                conn.settimeout(1.0)
                received = b""
                while chunk := conn.recv(4096):  # ends at the client's close
                    received += chunk
            assert received == encode(PingRequest(sender=0, request_id=1))
            transport.close()

    def test_stop_twice(self):
        server = self.start_server(StubNode())
        server.stop()
        server.stop()

    def test_unknown_peer_index_unreachable(self):
        transport = TcpTransport(0, [PeerAddress(0, "127.0.0.1:1")])
        with pytest.raises(PeerUnreachableError):
            transport.ping(0, 5)

    def test_stalled_peers_do_not_block_a_ping(self):
        server = self.start_server(StubNode(version=4))
        idle = half = oversize = None
        try:
            idle = raw_connection(server)
            half = raw_connection(server)
            half.sendall(encode(PingRequest(sender=0, request_id=1))[:7])
            oversize = raw_connection(server)
            oversize.sendall(struct.pack("<I", DEFAULT_MAX_FRAME_BYTES + 1))

            transport = self.transport_for(server)
            start = time.monotonic()
            assert transport.ping(0, 1) == 4
            assert time.monotonic() - start < 1.0
            transport.close()

            oversize.settimeout(1.0)
            try:
                assert oversize.recv(1) == b""  # closed by the server
            except ConnectionResetError:
                pass
        finally:
            for sock in (idle, half, oversize):
                if sock is not None:
                    sock.close()
            server.stop()

    def test_a_burst_of_unread_requests_does_not_block_a_ping(self):
        # 399 weights requests for a 4,612-parameter node ask for 14.7 MB of
        # replies, far more than the socket buffers hold for a client that
        # reads none of them.
        server = self.start_server(StubNode(version=4, params=np.zeros(4612)))
        greedy = raw_connection(server)
        try:
            greedy.sendall(b"".join(encode(WeightsRequest(0, i)) for i in range(1, 400)))
            transport = self.transport_for(server)
            start = time.monotonic()
            assert transport.ping(0, 1) == 4
            assert time.monotonic() - start < 1.0
            transport.close()
        finally:
            greedy.close()
            server.stop()

    def test_a_client_that_stops_reading_does_not_block_a_ping(self):
        # One weights request every 5 ms, and no reply read: the replies soon
        # fill the socket buffers, while each request alone is well-formed.
        server = self.start_server(StubNode(version=4, params=np.zeros(4612)))
        stalled = raw_connection(server)
        stalled.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        transport = self.transport_for(server)
        try:
            for i in range(1, 400):
                stalled.sendall(encode(WeightsRequest(0, i)))
                start = time.monotonic()
                assert transport.ping(0, 1) == 4
                assert time.monotonic() - start < 1.0, f"ping after request {i}"
                time.sleep(0.005)
        finally:
            transport.close()
            stalled.close()
            server.stop()

    def test_a_second_request_before_the_reply_drops_the_connection(self):
        server = self.start_server(StubNode(version=4))
        pipelining = raw_connection(server)
        try:
            pipelining.sendall(encode(PingRequest(0, 1)) + encode(PingRequest(0, 2)))
            pipelining.settimeout(1.0)
            assert pipelining.recv(64) == b""  # closed unanswered
            transport = self.transport_for(server)
            assert transport.ping(0, 1) == 4
            transport.close()
        finally:
            pipelining.close()
            server.stop()

    def test_server_runs_one_thread_for_all_connections(self):
        before = threading.active_count()
        server = self.start_server(StubNode())
        clients = []
        try:
            clients = [raw_connection(server) for _ in range(4)]
            transport = self.transport_for(server)
            transport.ping(0, 1)
            transport.fetch_weights(0, 1)
            assert threading.active_count() == before + 1
            transport.close()
        finally:
            for sock in clients:
                sock.close()
            server.stop()

    def test_requests_to_one_peer_share_one_connection(self, connects):
        server = self.start_server(StubNode(version=2, params=[1.0, 2.0]))
        try:
            transport = self.transport_for(server)
            for _ in range(5):
                assert transport.ping(0, 1) == 2
                params, _, _ = transport.fetch_weights(0, 1)
                np.testing.assert_array_equal(params, [1.0, 2.0])
            assert len(connects) == 1
            transport.close()
            assert connects[0].fileno() == -1
        finally:
            server.stop()

    def test_close_closes_every_kept_connection(self, connects):
        servers = [self.start_server(StubNode(version=i), client_index=i) for i in (1, 2)]
        try:
            peers = [PeerAddress(0, "127.0.0.1:1")] + [
                PeerAddress(i, f"127.0.0.1:{s.port}") for i, s in zip((1, 2), servers)
            ]
            transport = TcpTransport(0, peers)
            assert [transport.ping(0, 1), transport.ping(0, 2)] == [1, 2]
            transport.close()
            assert len(connects) == 2
            assert all(sock.fileno() == -1 for sock in connects)
            assert transport.ping(0, 1) == 1  # a request after close reconnects
            assert len(connects) == 3
            transport.close()
        finally:
            for server in servers:
                server.stop()

    def test_restarted_peer_answers_on_a_fresh_connection(self, connects):
        # The request on the connection the old server closed fails and is
        # not retried underneath the caller; the caller's next one reconnects.
        server = self.start_server(StubNode(version=1))
        port = server.port
        transport = self.transport_for(server)
        try:
            assert transport.ping(0, 1) == 1
            server.stop()
            server = self.start_server(StubNode(version=8), port=port)
            with pytest.raises(PeerUnreachableError, match="client 1"):
                transport.ping(0, 1)
            assert connects[0].fileno() == -1
            assert transport.ping(0, 1) == 8
            assert len(connects) == 2
            transport.close()
        finally:
            server.stop()

    @pytest.mark.parametrize("bad_reply", ["error", "wrong_id", "wrong_type", "wrong_sender"])
    def test_bad_reply_drops_the_connection(self, connects, bad_reply):
        server = self.start_server(StubNode(version=3))
        try:
            transport = self.transport_for(server)
            assert transport.ping(0, 1) == 3
            server.respond = {
                "error": lambda m: ErrorMessage(1, m.request_id, 2, "no"),
                "wrong_id": lambda m: PingResponse(1, m.request_id + 1, 3),
                "wrong_type": lambda m: WeightsResponse(1, m.request_id, 1, np.zeros(2)),
                "wrong_sender": lambda m: PingResponse(2, m.request_id, 3),
            }[bad_reply]
            with pytest.raises(ProtocolError, match="client 1"):
                transport.ping(0, 1)
            del server.respond
            assert transport.ping(0, 1) == 3
            assert len(connects) == 2
            assert connects[0].fileno() == -1
            transport.close()
        finally:
            server.stop()

    def test_a_request_sent_one_byte_at_a_time_is_answered(self):
        server = self.start_server(StubNode(version=6))
        slow = raw_connection(server)
        slow.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            for byte in encode(PingRequest(0, 1)):
                slow.sendall(bytes([byte]))
                time.sleep(0.002)
            assert decode(read_frame(slow)) == PingResponse(1, 1, 6)
            assert server.sent_versions == {0: 6}
            transport = self.transport_for(server)
            assert transport.ping(0, 1) == 6
            transport.close()
        finally:
            slow.close()
            server.stop()

    def test_a_slow_reader_that_resumes_is_served_again(self):
        # A 4 MB weights reply outgrows the socket buffers while its client
        # pauses with a small receive buffer, so the server sends it in
        # parts; once it is all out, the connection's next request is read.
        params = np.random.default_rng(5).normal(size=500_000)
        server = TcpPeerServer(StubNode(version=4, params=params, sample_count=2),
                               1, "127.0.0.1", 0)
        resumed = []  # bytes of the reply still to send at each send on a write event
        send = server._send

        def counted(key, pending):
            if key.events == selectors.EVENT_WRITE:
                resumed.append(len(pending[0]))
            return send(key, pending)

        server._send = counted
        server.start()
        slow = socket.socket()
        slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        slow.settimeout(5)
        try:
            slow.connect(("127.0.0.1", server.port))
            slow.sendall(encode(WeightsRequest(0, 1)))
            time.sleep(0.2)
            assert read_frame(slow) == encode(WeightsResponse(1, 1, 2, params))
            assert resumed and server.sent_versions == {}
            slow.sendall(encode(PingRequest(0, 2)))
            assert decode(read_frame(slow)) == PingResponse(1, 2, 4)
            deadline = time.monotonic() + 1.0  # the server records it after its send returns
            while not server.sent_versions and time.monotonic() < deadline:
                time.sleep(0.005)
            assert server.sent_versions == {0: 4}
        finally:
            slow.close()
            server.stop()

    def test_a_fault_answering_one_client_drops_only_its_connection(self, caplog):
        class FaultyOnce(StubNode):
            faults = 1

            def weights_payload(self):
                if self.faults:
                    self.faults -= 1
                    raise RuntimeError("weights lost")
                return super().weights_payload()

        server = self.start_server(FaultyOnce(version=5))
        first, second = self.transport_for(server), self.transport_for(server)
        try:
            with caplog.at_level(logging.ERROR, logger="peerfed.transport"):
                with pytest.raises(PeerUnreachableError, match="client 1"):
                    first.fetch_weights(0, 1)
            assert second.ping(0, 1) == 5
            assert [r.getMessage() for r in caplog.records] == ["client 1 dropped a connection"]
        finally:
            first.close()
            second.close()
            server.stop()

    def scripted_peer(self, answer):
        """A peer on loopback that takes one connection, reads one request
        and sends the byte strings answer(request) gives, pausing before
        each; returns a transport to it and the thread serving it."""
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(5)

        def serve():
            with listener:
                conn, _ = listener.accept()
            with conn:
                conn.settimeout(5)
                request = decode(read_frame(conn))
                for part in answer(request):
                    time.sleep(0.05)
                    conn.sendall(part)
                conn.recv(1)  # until the client closes

        thread = threading.Thread(target=serve)
        thread.start()
        peers = [PeerAddress(1, f"127.0.0.1:{listener.getsockname()[1]}")]
        return TcpTransport(0, peers), thread

    def test_a_weights_reply_in_two_pieces_is_read_whole(self):
        params = np.random.default_rng(4).normal(size=4612)

        def answer(request):
            frame = encode(WeightsResponse(1, request.request_id, 3, params))
            return [frame[:1000], frame[1000:]]

        transport, thread = self.scripted_peer(answer)
        try:
            got, count, nbytes = transport.fetch_weights(0, 1)
        finally:
            transport.close()
            thread.join(timeout=5)
        assert got.tobytes() == params.tobytes() and count == 3
        assert nbytes == weights_frame_bytes(4612)

    def test_a_reply_with_bytes_after_it_is_refused(self):
        def answer(request):
            return [encode(PingResponse(1, request.request_id, 2)) + b"\0"]

        transport, thread = self.scripted_peer(answer)
        try:
            with pytest.raises(ProtocolError, match="1 bytes after the frame"):
                transport.ping(0, 1)
        finally:
            transport.close()
            thread.join(timeout=5)

    # The patched timeout and the thread check hold across every example.
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        fetch=st.booleans(),
        fault=st.sampled_from(["whole", "cut short", "byte-flipped", "extra bytes", "nothing"]),
        at=st.integers(0, 200),
        flip=st.integers(1, 255),
        extra=st.binary(min_size=1, max_size=8),
        then_close=st.booleans(),
    )
    def test_a_misbehaving_peer_gives_a_reply_or_a_transport_error(
            self, monkeypatch, fetch, fault, at, flip, extra, then_close):
        """A peer reads one request and answers with a valid frame, whole or
        damaged, or not at all, then closes or stalls. The request returns
        what a whole, valid frame says or raises a TransportError, in time."""
        monkeypatch.setattr(transport_module, "DEFAULT_TIMEOUT_S", 0.2)
        params = np.linspace(-1.0, 1.0, 5)
        sent = {}
        stalled = threading.Event()
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(2)

        def serve():
            with listener:
                conn, _ = listener.accept()
            with conn:
                conn.settimeout(2)
                request = sent["request"] = decode(read_frame(conn))
                frame = encode(WeightsResponse(1, request.request_id, 3, params)
                               if isinstance(request, WeightsRequest)
                               else PingResponse(1, request.request_id, 7))
                i = at % len(frame)
                sent["bytes"] = data = {
                    "whole": frame,
                    "cut short": frame[:i],
                    "byte-flipped": frame[:i] + bytes([frame[i] ^ flip]) + frame[i + 1:],
                    "extra bytes": frame + extra,
                    "nothing": b"",
                }[fault]
                with contextlib.suppress(OSError):  # a client that timed out has gone
                    conn.sendall(data)
                if not then_close:
                    stalled.wait(timeout=2)

        thread = threading.Thread(target=serve)
        thread.start()
        transport = TcpTransport(0, [PeerAddress(1, f"127.0.0.1:{listener.getsockname()[1]}")])
        start = time.monotonic()
        try:
            got = transport.fetch_weights(0, 1) if fetch else transport.ping(0, 1)
        except TransportError:
            got = None
        finally:
            elapsed = time.monotonic() - start
            transport.close()
            stalled.set()
            thread.join(timeout=5)
        assert not thread.is_alive()
        assert elapsed < 0.2 + 1.0
        if got is not None:  # the reply is the whole frame at the head of the bytes sent
            data = sent["bytes"]
            (length,) = struct.unpack_from("<I", data)
            reply = decode(data[: 4 + length])
            assert (reply.sender, reply.request_id) == (1, sent["request"].request_id)
            if fetch:
                assert (got[0].tobytes(), got[1:]) == (reply.params.tobytes(),
                                                      (reply.sample_count, 4 + length))
            else:
                assert got == reply.own_version

    def test_a_server_out_of_descriptors_waits_for_a_drop_without_spinning(self, monkeypatch):
        # The server's process may hold 32 descriptors, about 24 of them for
        # connections, so its accept fails with EMFILE while the 30 clients
        # connect and the rest of them wait in the listen backlog.
        def connect(n: int) -> list[socket.socket]:
            new = [socket.create_connection(("127.0.0.1", port), timeout=2) for _ in range(n)]
            time.sleep(0.3)  # the server accepts what it can
            return new

        clients = []
        with out_of_descriptors_server(32) as (port, command):
            try:
                clients = connect(30)
                before = float(command("cpu"))
                time.sleep(1.0)
                assert float(command("cpu")) - before < 0.2, \
                    "the server spun while out of descriptors"

                for sock in clients[:20]:
                    sock.close()
                monkeypatch.setattr(transport_module, "DEFAULT_TIMEOUT_S", 2.0)
                transport = TcpTransport(0, [PeerAddress(1, f"127.0.0.1:{port}")])
                start = time.monotonic()
                try:
                    assert transport.ping(0, 1) == 7
                finally:
                    transport.close()
                assert time.monotonic() - start < 2.0

                clients += connect(20)  # out of descriptors again when it stops
                assert command(None) == "-1\n", "stop() left the listener open"
            finally:
                for sock in clients:
                    sock.close()

    def test_a_server_out_of_descriptors_with_no_connection_accepts_once_one_is_free(self):
        """The process's other handles take every descriptor while the server
        holds no connection, so no drop can free one. The connection it
        could not accept is served once the process gives them back."""
        with out_of_descriptors_server(32) as (port, command):
            assert int(command("fill")) > 0
            with socket.create_connection(("127.0.0.1", port), timeout=2.0) as client:
                assert command("free") == "True\n", "the server's accept did not fail"
                start = time.monotonic()
                client.sendall(encode(PingRequest(0, 1)))
                assert decode(read_frame(client)) == PingResponse(1, 1, 7)
                assert time.monotonic() - start < 2.0
            assert command(None) == "-1\n", "stop() left the listener open"

    def test_stop_with_open_connections_is_prompt(self):
        before = set(threading.enumerate())
        server = self.start_server(StubNode())
        transport = self.transport_for(server)
        idle = raw_connection(server)
        try:
            transport.ping(0, 1)
            start = time.monotonic()
            server.stop()
            assert time.monotonic() - start < 1.0
            assert set(threading.enumerate()) <= before
        finally:
            idle.close()
            transport.close()


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


SERVED_SPEC = ModelSpec(4, (1000,), 4)  # 9,004 params: a 72,052-byte weights frame


def served_state(version: int, shard: DatasetShard) -> ClientState:
    """Client 1's state at its own version `version`, with params that
    change with every version."""
    params = np.linspace(-1.0, 1.0, SERVED_SPEC.param_count()) + version
    return ClientState(1, ModelWeights(SERVED_SPEC, params),
                       VersionVector(np.array([0, version])), shard)


class RawClient:
    """A connection to the server with small socket buffers, and what it
    waits to read.

    Only what the machine did decides which rules and clients a step may
    draw, never how far the server thread got: else a replay could draw
    from another list, which Hypothesis reports as a flaky strategy.
    stalled is set once the server may stop reading the connection until
    its client reads, and cleared once the client has read every reply.
    """

    def __init__(self, port: int, sender: int):
        self.sender = sender
        self.sock = socket.socket()
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.settimeout(2.0)
        self.sock.connect(("127.0.0.1", port))
        self.port = self.sock.getsockname()[1]
        self.requests = 0  # requests sent that the server answers
        self.waiting = collections.deque()  # (request, node version when sent), oldest first
        self.received = bytearray()  # the start of the reply being read
        self.unread = 0  # bytes due from the server that have not been read
        self.stalled = False
        self.last_ping = None  # the version of the last ping reply read whole
        self.ending = None  # what the server sends before it drops the connection
        self.half_closed = False

    def open(self) -> bool:
        return not self.half_closed and self.ending is None

    def can_send(self) -> bool:
        return self.open() and not self.stalled

    def idle(self) -> bool:
        return self.can_send() and not self.waiting

    def has_more(self) -> bool:
        return bool(self.waiting) or not self.open()


class PeerServerMachine(RuleBasedStateMachine):
    """One TcpPeerServer over a ClientNode, and 2-3 raw clients that send
    requests whole or in pieces, send garbage, stop reading and resume,
    half-close or close, while the node commits new versions."""

    def __init__(self):
        super().__init__()
        self.fds = open_fds()
        train, _ = generate_dataset(GenConfig(num_train=2, num_test=1, height=4, width=4),
                                    SplitSpec(), 0)
        self.shard = DatasetShard(1, train)
        self.version = 0
        self.node = ClientNode(served_state(0, self.shard))
        self.server = TcpPeerServer(self.node, 1, "127.0.0.1", 0)
        # Each accepted connection inherits the least send buffer the kernel
        # takes, and the kernel then does not grow it: a weights reply, or
        # some 500 ping replies, that its client does not read fill the buffers.
        self.server._listener.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 1)
        # Kept by the server thread around each _send: the replies begun on
        # each connection (by the client's port), what sent_versions must
        # hold, and the first time it did not. A reply is recorded once it
        # went out whole, that is, once its connection reads again.
        self.begun: collections.Counter[int] = collections.Counter()
        self.recorded: dict[int, int] = {}
        self.fault: str | None = None
        send = self.server._send

        def checked(key, pending):
            self.note("before a send")
            if key.events == selectors.EVENT_READ:  # from _answer
                self.begun[key.fileobj.getpeername()[1]] += 1
            try:
                keep = send(key, pending)
            except Exception:
                self.note("after a failed send")
                raise
            if self.server._selector.get_key(key.fileobj).events == selectors.EVENT_READ:
                self.recorded.update(pending[1])
            self.note("after a send")
            return keep

        self.server._send = checked
        self.server.start()
        self.senders = itertools.count(10)
        self.request_ids = itertools.count(1)
        self.clients: dict[int, RawClient] = {}
        for _ in range(2):
            self.connect()

    def note(self, when: str) -> None:
        if self.fault is None and self.server.sent_versions != self.recorded:
            self.fault = f"sent_versions {self.server.sent_versions} {when}, expected {self.recorded}"

    def has_read_all(self, client: RawClient, wait_s: float) -> bool:
        """Whether the server begins to answer every request client sent,
        and so has read it, within wait_s."""
        deadline = time.monotonic() + wait_s
        while self.begun[client.port] < client.requests:
            if time.monotonic() >= deadline:
                return False
            time.sleep(0)
        return True

    def settle(self, client: RawClient) -> None:
        """Wait until the server has read every request of a client that is
        not stalled: a request it had not read could reach it together with
        the next one, or with a half-close."""
        assert self.has_read_all(client, wait_s=2.0), "the server stopped reading a client"

    def client(self, data, wanted) -> RawClient:
        return data.draw(st.sampled_from([c for c in self.clients.values() if wanted(c)]))

    def send(self, client: RawClient, request: Message, frame: bytes = b"") -> None:
        """Send request, or frame if given, that the server answers. A weights
        reply outgrows the socket buffers, so it stalls the client."""
        self.settle(client)
        client.requests += 1
        client.waiting.append((request, self.version))
        client.unread += len(encode(reply_to(self.node, 1, request)))
        client.stalled |= isinstance(request, WeightsRequest)
        client.sock.sendall(frame or encode(request))

    def match_replies(self, client: RawClient) -> None:
        """Match each whole reply client.received holds to its request."""
        while len(client.received) >= 4:
            end = 4 + struct.unpack_from("<I", client.received)[0]
            assert end <= weights_frame_bytes(SERVED_SPEC.param_count()), "an oversize reply"
            if len(client.received) < end:
                return
            frame = bytes(client.received[:end])
            del client.received[:end]
            if not client.waiting:  # the error reply to an undecodable frame
                assert frame == client.ending, "a reply that no request asked for"
                client.ending = b""
                continue
            request, since = client.waiting.popleft()
            assert any(frame == encode(reply_to(ClientNode(served_state(v, self.shard)), 1, request))
                       for v in range(since, self.version + 1)), f"a wrong reply to {request}"
            if isinstance(request, PingRequest):
                client.last_ping = decode(frame).own_version

    @precondition(lambda self: len(self.clients) < 3)
    @rule()
    def connect(self):
        client = RawClient(self.server.port, next(self.senders))
        self.clients[client.sender] = client

    @precondition(lambda self: any(c.can_send() for c in self.clients.values()))
    @rule(data=st.data(), ping=st.booleans(), how=st.sampled_from(["whole", "bytes", "cuts"]))
    def send_request(self, data, ping, how):
        client = self.client(data, RawClient.can_send)
        request = (PingRequest if ping else WeightsRequest)(client.sender, next(self.request_ids))
        frame = encode(request)
        cuts = []
        if how == "bytes":
            cuts = list(range(1, len(frame)))
        elif how == "cuts":
            cuts = sorted(data.draw(st.sets(st.integers(1, len(frame) - 1), max_size=4)))
        self.send(client, request, frame[:cuts[0]] if cuts else frame)
        for start, end in zip(cuts, cuts[1:] + [len(frame)]):
            if how == "cuts":
                time.sleep(0.001)
            client.sock.sendall(frame[start:end])

    @precondition(lambda self: any(c.can_send() for c in self.clients.values()))
    @rule(data=st.data(), commits=st.booleans())
    def ping_until_the_buffers_fill(self, data, commits):
        """Send pings, each once the server has read the last one, and read
        no reply, until the server stops reading: its last ping reply then
        waits to go out, whole or in part. With commits, the node commits
        before each ping, so that each reply carries a version of its own.
        The client is then stalled whether the server stopped or was only
        slow, so that no later draw depends on which."""
        client = self.client(data, RawClient.can_send)
        for _ in range(2000):
            if commits:
                self.commit()
            self.send(client, PingRequest(client.sender, next(self.request_ids)))
            if not self.has_read_all(client, wait_s=0.02):
                break
        client.stalled = True

    @precondition(lambda self: any(c.idle() for c in self.clients.values()))
    @rule(data=st.data(), kind=st.sampled_from(["frame", "short", "oversize", "two requests"]))
    def send_garbage(self, data, kind):
        client = self.client(data, RawClient.idle)
        if kind == "oversize":
            frame, client.ending = struct.pack("<I", DEFAULT_MAX_FRAME_BYTES + 1), b""
        elif kind == "two requests":
            frame = (encode(PingRequest(client.sender, next(self.request_ids)))
                     + encode(WeightsRequest(client.sender, next(self.request_ids))))
            client.ending = b""
        else:  # a whole frame: any header from this sender and any payload, or too short
            body = data.draw(st.binary(max_size=HEADER_BYTES - 1))
            if kind == "frame":
                body = struct.pack("<BHQB", data.draw(st.integers(0, 2)), client.sender,
                                   data.draw(st.integers(0, 2**64 - 1)),
                                   data.draw(st.integers(0, 6))) + data.draw(st.binary(max_size=24))
            frame = struct.pack("<I", len(body)) + body
            try:
                return self.send(client, decode(frame), frame)
            except ProtocolError as exc:
                client.ending = encode(reply_to(self.node, 1, exc))
        client.unread += len(client.ending)
        client.sock.sendall(frame)

    @precondition(lambda self: any(c.has_more() for c in self.clients.values()))
    @rule(data=st.data(), limit=st.one_of(st.just(0), st.integers(1, 80_000)))
    def read_replies(self, data, limit):
        """Read limit bytes of the replies due, or with limit 0 all of them,
        then, once all are read from a client that is not open, the drop. A
        read with a limit leaves a stalled client a byte short, since how
        many pings ping_until_the_buffers_fill sent depends on timing."""
        client = self.client(data, RawClient.has_more)
        due = min(limit, client.unread - client.stalled) if limit else client.unread
        while due:
            chunk = client.sock.recv(due)
            assert chunk or not client.ending, "dropped before its error reply"
            assert chunk, "dropped with a reply due"
            due -= len(chunk)
            client.unread -= len(chunk)
            client.received += chunk
            self.match_replies(client)
        if client.unread:
            return
        client.stalled = False
        if not client.open():
            assert client.sock.recv(1) == b"", "a reply that no request asked for"
            self.clients.pop(client.sender).sock.close()

    @precondition(lambda self: any(c.can_send() for c in self.clients.values()))
    @rule(data=st.data())
    def half_close(self, data):
        client = self.client(data, RawClient.can_send)
        self.settle(client)
        client.sock.shutdown(socket.SHUT_WR)
        client.half_closed = True

    @precondition(lambda self: self.clients)
    @rule(data=st.data())
    def close(self, data):
        client = self.client(data, lambda c: True)
        self.clients.pop(client.sender).sock.close()

    @rule()
    def commit(self):
        self.version += 1
        self.node.commit(served_state(self.version, self.shard))

    @invariant()
    def a_fresh_ping_is_answered_at_once(self):
        request = PingRequest(99, next(self.request_ids))
        start = time.monotonic()
        with socket.create_connection(("127.0.0.1", self.server.port), timeout=1.0) as sock:
            sock.sendall(encode(request))
            reply = decode(read_frame(sock))
        assert time.monotonic() - start < 1.0
        assert reply == PingResponse(1, request.request_id, self.version)

    @invariant()
    def sent_versions_holds_only_replies_sent_whole(self):
        assert self.fault is None, self.fault
        for client in self.clients.values():
            if client.last_ping is None or any(
                    isinstance(r, PingRequest) for r, _ in client.waiting):
                continue
            deadline = time.monotonic() + 1.0  # recorded once the server's send returns
            while self.server.sent_versions.get(client.sender) != client.last_ping:
                assert time.monotonic() < deadline, "a ping reply read whole is not recorded"
                time.sleep(0.001)

    def teardown(self):
        for client in self.clients.values():
            client.sock.close()
        stopper = threading.Thread(target=self.server.stop, daemon=True)
        stopper.start()
        stopper.join(timeout=2.0)
        assert not stopper.is_alive(), "stop() did not return"
        assert open_fds() == self.fds

TestPeerServerMachine = PeerServerMachine.TestCase
TestPeerServerMachine.settings = settings(max_examples=25, stateful_step_count=20,
                                          deadline=None)


class TestPeerTable:
    def test_parse_valid_table(self):
        peers = parse_peer_table(
            [
                {"client_index": 0, "endpoint": "127.0.0.1:9000"},
                {"client_index": 1, "endpoint": "127.0.0.1:9001"},
            ]
        )
        assert peers[1].host_port() == ("127.0.0.1", 9001)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            parse_peer_table([{"client_index": 0, "endpoint": "a:1", "extra": True}])

    def test_bad_endpoint_rejected(self):
        with pytest.raises(ValueError):
            parse_peer_table([{"client_index": 0, "endpoint": "no-port"}])

    @pytest.mark.parametrize("endpoint", ["127.0.0.1:\u0661\u0662\u0663", "127.0.0.1:\u00b2"])
    def test_non_ascii_digit_port_rejected(self, endpoint):
        # str.isdigit alone takes Arabic-Indic digits (read as port 123) and
        # superscript two (which int() then refuses with its own message).
        with pytest.raises(ValueError, match="must be host:port"):
            parse_peer_table([{"client_index": 0, "endpoint": endpoint}])

    def test_bracketed_ipv6_host_loses_its_brackets(self):
        [peer] = parse_peer_table([{"client_index": 0, "endpoint": "[::1]:9000"}])
        assert peer.host_port() == ("::1", 9000)

    @pytest.mark.parametrize("endpoint, match", [
        ("[::1:9000", "bracketed IPv6"),
        ("::1]:9000", "bracketed IPv6"),
        ("[[::1]]:9000", "bracketed IPv6"),
        ("::1:9000", "bracketed IPv6"),
        ("fe80::1", "bracketed IPv6"),
        ("[]:9000", "must be host:port"),
    ])
    def test_unmatched_bracket_or_bare_ipv6_rejected(self, endpoint, match):
        with pytest.raises(ValueError, match=match):
            parse_peer_table([{"client_index": 0, "endpoint": endpoint}])

    @pytest.mark.parametrize("table, match", [
        ([{"client_index": 1.9, "endpoint": "127.0.0.1:9000"}], "int client_index"),
        ([{"client_index": "0", "endpoint": "127.0.0.1:9000"}], "int client_index"),
        ([{"client_index": True, "endpoint": "127.0.0.1:9000"}], "int client_index"),
        ([{"client_index": 0, "endpoint": "127.0.0.1:70000"}], "1-65535"),
        ([{"client_index": 0, "endpoint": "127.0.0.1:0"}], "1-65535"),
        ([{"client_index": 0}], "endpoint string"),
        ([{"client_index": 0, "endpoint": ["127.0.0.1", 9000]}], "endpoint string"),
        ({"client_index": 0, "endpoint": "127.0.0.1:9000"}, "must be a JSON list"),
        (["x"], "must be a JSON object"),
    ], ids=["float_index", "str_index", "bool_index", "port_70000", "port_0",
            "no_endpoint", "list_endpoint", "object_table", "str_entry"])
    def test_malformed_table_rejected(self, table, match):
        with pytest.raises(ValueError, match=match):
            parse_peer_table(table)

    @pytest.mark.parametrize("endpoint, match", [
        ("127.0.0.1:0", "1-65535"),
        ("::1:9000", "bracketed IPv6"),
    ])
    def test_address_is_checked_when_built(self, endpoint, match):
        # A PeerAddress that exists is valid: no caller has to check it again.
        with pytest.raises(ValueError, match=match):
            PeerAddress(0, endpoint)
