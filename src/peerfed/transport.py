"""Wire protocol and transports for the peer-to-peer protocol.

Frame layout (everything little-endian):

    u32 length | u8 protocol_version | u16 sender | u64 request_id | u8 tag | payload

The length prefix counts the 12 header bytes plus the payload. Weight
payloads ship raw float64 parameters, so aggregation results do not
depend on which transport carried them.

Two transports carry the same exchange: an in-process simulated transport
that is deterministic given its seed and supports fault injection, and a
TCP transport so peers can run as separate processes. Both share one
request path: the same ``ping`` and ``fetch_weights``, one responder
(``reply_to``) that builds every reply a node sends, and one check
(``_checked_reply``) that every reply passes before it is used. A
transport only carries the frames, through its own ``_request``. Over TCP
each client keeps one open connection to each peer it talks to and sends
every request to that peer over it, one at a time; each peer's server
answers all of its connections from one thread. Both ends cut frames off
the stream with one helper, ``take_frame``.

A frame is copied once per side in user space: ``encode`` joins the
header and the payload into the frame, which the server sends as it is,
and the client decodes a reply that arrives in one ``recv`` straight from
that chunk, copying the params out of it once.
"""

from __future__ import annotations

import errno
import itertools
import logging
import selectors
import socket
import struct
import threading
from dataclasses import dataclass, field

import numpy as np

PROTOCOL_VERSION = 1
HEADER_BYTES = 12  # version + sender + request_id + tag
DEFAULT_MAX_FRAME_BYTES = 64 * 1024 * 1024
DEFAULT_TIMEOUT_S = 10.0  # how long a client waits to connect or for a reply
_RECV_BYTES = 64 * 1024
_REWATCH_S = 0.1  # how long a server out of file descriptors leaves its listener unwatched

_log = logging.getLogger(__name__)

TAG_PING_REQUEST = 1
TAG_PING_RESPONSE = 2
TAG_WEIGHTS_REQUEST = 3
TAG_WEIGHTS_RESPONSE = 4
TAG_ERROR = 5

ERR_VERSION_MISMATCH = 1
ERR_BAD_REQUEST = 2


class TransportError(Exception):
    """Base class for wire and delivery failures."""


class IncompleteFrameError(TransportError):
    """Fewer bytes than the frame claims."""


class OversizeFrameError(TransportError):
    """Length prefix exceeds the configured maximum."""


class ProtocolError(TransportError):
    """Structurally broken or unexpected message."""


class VersionMismatchError(ProtocolError):
    """Frame carries a protocol version this peer does not speak."""


class PeerUnreachableError(TransportError):
    """A peer could not be contacted (down, dropped, refused, timed out)."""


@dataclass(frozen=True)
class PeerAddress:
    """A peer's endpoint, checked once when the address is built."""

    client_index: int
    endpoint: str  # "host:port", an IPv6 host in brackets: "[::1]:9000"
    _host_port: tuple[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        host, _, port = self.endpoint.rpartition(":")
        bracketed = host.startswith("[") and host.endswith("]")
        host = host[1:-1] if bracketed else host
        if not host or not (port.isascii() and port.isdigit()) or not 1 <= int(port) <= 65535:
            raise ValueError(f"endpoint must be host:port, port 1-65535, got {self.endpoint!r}")
        if "[" in host or "]" in host or (":" in host and not bracketed):
            raise ValueError("endpoint host must be a name, an IPv4 address or a bracketed "
                             f"IPv6 address, got {self.endpoint!r}")
        object.__setattr__(self, "_host_port", (host, int(port)))

    def host_port(self) -> tuple[str, int]:
        return self._host_port


@dataclass(frozen=True)
class PingRequest:
    sender: int
    request_id: int


@dataclass(frozen=True)
class PingResponse:
    sender: int
    request_id: int
    own_version: int


@dataclass(frozen=True)
class WeightsRequest:
    sender: int
    request_id: int


@dataclass(frozen=True, eq=False)
class WeightsResponse:
    sender: int
    request_id: int
    sample_count: int
    params: np.ndarray

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, WeightsResponse)
            and self.sender == other.sender
            and self.request_id == other.request_id
            and self.sample_count == other.sample_count
            and self.params.tobytes() == other.params.tobytes()
        )


@dataclass(frozen=True)
class ErrorMessage:
    sender: int
    request_id: int
    code: int
    text: str


Message = PingRequest | PingResponse | WeightsRequest | WeightsResponse | ErrorMessage

_TAGS = {
    PingRequest: TAG_PING_REQUEST,
    PingResponse: TAG_PING_RESPONSE,
    WeightsRequest: TAG_WEIGHTS_REQUEST,
    WeightsResponse: TAG_WEIGHTS_RESPONSE,
    ErrorMessage: TAG_ERROR,
}


def encode(msg: Message) -> bytes:
    """Serialize a message into one complete frame; the header and the
    payload, weights included, are copied once, into the frame."""
    tag = _TAGS[type(msg)]
    params = b""
    if isinstance(msg, (PingRequest, WeightsRequest)):
        payload = b""
    elif isinstance(msg, PingResponse):
        payload = struct.pack("<Q", msg.own_version)
    elif isinstance(msg, WeightsResponse):
        params = np.ascontiguousarray(msg.params, dtype="<f8")
        payload = struct.pack("<II", msg.sample_count, params.shape[0])
        params = params.view(np.uint8)
    else:
        text = msg.text.encode("utf-8")
        payload = struct.pack("<HI", msg.code, len(text)) + text
    length = HEADER_BYTES + len(payload) + len(params)
    header = struct.pack("<IBHQB", length, PROTOCOL_VERSION, msg.sender, msg.request_id, tag)
    return b"".join((header, payload, params))


def decode(data: bytes) -> Message:
    """Parse exactly one frame; total over arbitrary bytes (raises, never crashes)."""
    if len(data) < 4:
        raise IncompleteFrameError(f"need 4 length bytes, have {len(data)}")
    (length,) = struct.unpack_from("<I", data, 0)
    if length > DEFAULT_MAX_FRAME_BYTES:
        raise OversizeFrameError(
            f"frame of {length} bytes exceeds cap {DEFAULT_MAX_FRAME_BYTES}")
    if len(data) - 4 < length:
        raise IncompleteFrameError(f"frame claims {length} bytes, have {len(data) - 4}")
    if len(data) - 4 > length:
        raise ProtocolError(f"{len(data) - 4 - length} trailing bytes after frame")
    if length < HEADER_BYTES:
        raise ProtocolError(f"frame of {length} bytes is shorter than the header")
    version, sender, request_id, tag = struct.unpack_from("<BHQB", data, 4)
    if version != PROTOCOL_VERSION:
        raise VersionMismatchError(
            f"protocol version {version} does not match {PROTOCOL_VERSION}"
        )
    start, size = 4 + HEADER_BYTES, length - HEADER_BYTES  # the payload's offset and size

    if tag == TAG_PING_REQUEST or tag == TAG_WEIGHTS_REQUEST:
        if size:
            raise ProtocolError(f"unexpected {size}-byte payload on request")
        cls = PingRequest if tag == TAG_PING_REQUEST else WeightsRequest
        return cls(sender=sender, request_id=request_id)
    if tag == TAG_PING_RESPONSE:
        if size != 8:
            raise ProtocolError(f"ping response payload must be 8 bytes, got {size}")
        (own_version,) = struct.unpack_from("<Q", data, start)
        return PingResponse(sender=sender, request_id=request_id, own_version=own_version)
    if tag == TAG_WEIGHTS_RESPONSE:
        if size < 8:
            raise ProtocolError(f"weights response payload too short: {size}")
        sample_count, n_params = struct.unpack_from("<II", data, start)
        if size != 8 + 8 * n_params:
            raise ProtocolError(
                f"weights payload of {size} bytes does not match {n_params} params"
            )
        params = np.frombuffer(data, dtype="<f8", count=n_params, offset=start + 8).copy()
        return WeightsResponse(
            sender=sender, request_id=request_id, sample_count=sample_count, params=params
        )
    if tag == TAG_ERROR:
        if size < 6:
            raise ProtocolError(f"error payload too short: {size}")
        code, text_len = struct.unpack_from("<HI", data, start)
        if size != 6 + text_len:
            raise ProtocolError("error payload length mismatch")
        try:
            text = data[start + 6 :].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"error text is not valid UTF-8: {exc}") from exc
        return ErrorMessage(sender=sender, request_id=request_id, code=code, text=text)
    raise ProtocolError(f"unknown message tag {tag}")


def weights_frame_bytes(n_params: int) -> int:
    """Size of an encoded weights response carrying n_params parameters."""
    return 4 + HEADER_BYTES + 8 + 8 * n_params


def reply_to(node, client_index: int, request: Message | ProtocolError) -> Message:
    """The reply client_index's node sends to a request, or to a frame that
    failed to decode with the given error; the one responder of both transports."""
    if isinstance(request, PingRequest):
        return PingResponse(client_index, request.request_id, node.version_entry())
    if isinstance(request, WeightsRequest):
        params, sample_count = node.weights_payload()
        return WeightsResponse(client_index, request.request_id, sample_count, params)
    if isinstance(request, ProtocolError):
        mismatch = isinstance(request, VersionMismatchError)
        code = ERR_VERSION_MISMATCH if mismatch else ERR_BAD_REQUEST
        return ErrorMessage(client_index, 0, code, str(request))
    text = f"unexpected {type(request).__name__}"
    return ErrorMessage(client_index, request.request_id, ERR_BAD_REQUEST, text)


_REPLY_TYPES = {PingRequest: PingResponse, WeightsRequest: WeightsResponse}


def _checked_reply(request: Message, reply_frame: bytes, peer: int) -> Message:
    """Decode peer's reply to request; ProtocolError naming peer unless it is
    peer's own answer to request with, for a ping, a version that fits a
    version vector's int64 and, for weights, a positive sample count and
    finite params, so that a round can merge it."""
    reply = decode(reply_frame)
    if reply.sender != peer:
        raise ProtocolError(f"client {peer} replied as client {reply.sender}")
    if isinstance(reply, ErrorMessage):
        raise ProtocolError(f"client {peer} refused request: [{reply.code}] {reply.text}")
    if reply.request_id != request.request_id:
        raise ProtocolError(f"client {peer} sent response id {reply.request_id} "
                            f"to request {request.request_id}")
    expected = _REPLY_TYPES[type(request)]
    if not isinstance(reply, expected):
        raise ProtocolError(
            f"client {peer} sent {type(reply).__name__}, expected {expected.__name__}")
    if expected is WeightsResponse:
        if reply.sample_count < 1:
            raise ProtocolError(f"client {peer} sent weights of {reply.sample_count} samples")
        if not np.isfinite(reply.params).all():
            raise ProtocolError(f"client {peer} sent weights that are not all finite")
    elif reply.own_version >= 2**63:  # more than a version vector's int64 holds
        raise ProtocolError(f"client {peer} sent version {reply.own_version}, over int64")
    return reply


def _ping(self, sender: int, peer: int) -> int:
    """Peer's own version, as it answers a ping."""
    reply, _ = self._request(peer, PingRequest(sender, next(self._request_ids)))
    return reply.own_version


def _fetch_weights(self, sender: int, peer: int) -> tuple[np.ndarray, int, int]:
    """Peer's (params, sample_count) and the byte length of the frame that carried them."""
    reply, nbytes = self._request(peer, WeightsRequest(sender, next(self._request_ids)))
    return reply.params, reply.sample_count, nbytes


class SimTransport:
    """In-process transport: synchronous request/response, FIFO per pair.

    It shares the request path of the TCP transport: the same ping and
    fetch_weights, the same responder and the same reply check; only the
    carriage differs. Every message still passes through encode/decode, so
    byte counts and framing behave exactly as on the wire. Fault
    injection: per-peer unreachable flags and a seeded per-message drop
    probability. Which messages are dropped is a pure function of (seed,
    call sequence).
    """

    def __init__(self, nodes: list, seed: int = 0, drop_prob: float = 0.0):
        self._nodes = list(nodes)  # client i's node at index i
        self.drop_prob = drop_prob
        self._delivered = 0  # bytes of every frame delivered
        self._rng = np.random.default_rng(seed)
        self._down: set[int] = set()
        self._request_ids = itertools.count(1)

    def set_unreachable(self, client_index: int, down: bool = True) -> None:
        if down:
            self._down.add(client_index)
        else:
            self._down.discard(client_index)

    def _deliver(self, message: Message, receiver: int, frame: bytes) -> None:
        sender = message.sender
        down = receiver if receiver in self._down else sender if sender in self._down else None
        if down is not None:
            raise PeerUnreachableError(f"client {down} is unreachable")
        if self.drop_prob > 0.0 and self._rng.random() < self.drop_prob:
            raise PeerUnreachableError(f"message to client {receiver} was dropped")
        self._delivered += len(frame)

    def _request(self, peer: int, request: Message) -> tuple[Message, int]:
        """Carry request to peer and its reply back: (checked reply, reply bytes)."""
        if not 0 <= peer < len(self._nodes):
            raise PeerUnreachableError(f"no client {peer}")
        frame = encode(request)
        self._deliver(request, peer, frame)
        reply = reply_to(self._nodes[peer], peer, decode(frame))
        reply_frame = encode(reply)
        self._deliver(reply, request.sender, reply_frame)
        return _checked_reply(request, reply_frame, peer), len(reply_frame)

    ping = _ping
    fetch_weights = _fetch_weights

    def delivered_bytes(self) -> int:
        return self._delivered


def take_frame(buffer: bytearray, chunk: bytes) -> bytes | None:
    """The frame that buffer's bytes followed by chunk make up, or None
    while it is incomplete, with chunk then added to buffer. A frame that
    arrives in one chunk is that chunk, not a copy. OversizeFrameError as
    soon as the length prefix exceeds DEFAULT_MAX_FRAME_BYTES, and
    ProtocolError for bytes after the frame: each end sends one frame and
    waits for the other's. Both ends of a TCP connection read their frames
    through it."""
    data = chunk
    if buffer:  # the frame began in an earlier chunk
        buffer += chunk
        data = buffer
    if len(data) >= 4:
        (length,) = struct.unpack_from("<I", data)
        if length > DEFAULT_MAX_FRAME_BYTES:
            raise OversizeFrameError(
                f"frame of {length} bytes exceeds cap {DEFAULT_MAX_FRAME_BYTES}")
        if len(data) > 4 + length:
            raise ProtocolError(f"{len(data) - 4 - length} bytes after the frame")
        if len(data) == 4 + length:
            frame = bytes(data)  # chunk itself, or a copy of buffer
            buffer.clear()
            return frame
    if data is chunk:
        buffer += chunk
    return None


def read_frame(sock: socket.socket) -> bytes:
    """Read the one frame a peer sends in reply off sock."""
    buffer = bytearray()
    while True:
        chunk = sock.recv(_RECV_BYTES)
        if not chunk:
            raise IncompleteFrameError(f"connection closed after {len(buffer)} bytes")
        if (frame := take_frame(buffer, chunk)) is not None:
            return frame


class TcpPeerServer:
    """Serves ping and weight reads for one client over TCP.

    One thread serves every connection through a selector and never blocks
    on one. A connection carries one request at a time, in one buffer; the
    event it is registered for says whether it is reading a request or
    sending the reply. Every reply goes out through _send without
    blocking, and the connection is not read until the rest, a view of the
    encoded frame, has gone out. So a connection that is idle, half-sent or
    not reading its replies holds only its buffer or its reply. A
    connection is dropped on EOF, on a length prefix above
    DEFAULT_MAX_FRAME_BYTES, on bytes after its one request, or after an
    ErrorMessage reply to an undecodable frame. sent_versions maps each
    sender to the version of its last ping reply that went out whole. While
    the process is out of file descriptors, the listener is not watched:
    the loop waits at most _REWATCH_S, then watches it again.

    The node's snapshot lock makes each read coherent while the owner
    thread trains and commits.
    """

    def __init__(self, node, client_index: int, host: str, port: int):
        self.node = node
        self.client_index = client_index
        self.sent_versions: dict[int, int] = {}
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        self._listener = socket.create_server((host, port), family=family)
        self._listener.setblocking(False)
        # stop() writes a byte here to wake the loop out of select().
        self._wake_r, self._wake_w = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._selector.register(self._wake_r, selectors.EVENT_READ)
        self._thread = threading.Thread(
            target=self._serve, name=f"peer-server-{client_index}", daemon=True
        )

    @property
    def port(self) -> int:
        return self._listener.getsockname()[1]

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        """Wake and join the serving thread, then close every socket it held.
        A second call does nothing."""
        if self._thread.is_alive():
            self._wake_w.send(b"\0")
            self._thread.join()
        keys = self._selector.get_map()
        if keys is None:  # closed by an earlier stop()
            return
        for key in list(keys.values()):
            key.fileobj.close()
        self._listener.close()  # unwatched while out of descriptors
        self._selector.close()
        self._wake_w.close()

    def _serve(self) -> None:
        while True:
            watched = self._listener in self._selector.get_map()
            ready = self._selector.select(None if watched else _REWATCH_S)
            if not watched:  # a descriptor may have come free since the accept failed
                self._selector.register(self._listener, selectors.EVENT_READ)
            for key, _ in ready:
                conn = key.fileobj
                if conn is self._wake_r:
                    return
                if conn is self._listener:
                    self._accept()
                    continue
                step = self._answer if key.events == selectors.EVENT_READ else self._send
                try:
                    keep = step(key, key.data)  # False drops the connection
                except (OSError, TransportError):  # reset, a frame over the cap or out of step
                    keep = False
                except Exception:  # a fault answering one client must not stop the rest
                    _log.exception("client %d dropped a connection", self.client_index)
                    keep = False
                if not keep:
                    self._selector.unregister(conn)
                    conn.close()

    def _accept(self) -> None:
        try:
            conn, _ = self._listener.accept()
        except OSError as exc:
            if exc.errno in (errno.EMFILE, errno.ENFILE):  # watched again after _REWATCH_S
                self._selector.unregister(self._listener)
            return  # or the client gave up before it was accepted
        conn.setblocking(False)
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._selector.register(conn, selectors.EVENT_READ, bytearray())

    def _answer(self, key: selectors.SelectorKey, buffer: bytearray) -> bool:
        """Read a request into buffer and, once it is whole, hand its reply to _send."""
        chunk = key.fileobj.recv(_RECV_BYTES)
        if not chunk:
            return False
        if (frame := take_frame(buffer, chunk)) is None:
            return True
        try:
            message = decode(frame)
        except ProtocolError as exc:  # one best-effort reply before the drop
            key.fileobj.send(encode(reply_to(self.node, self.client_index, exc)))
            return False
        reply = self.respond(message)
        sent = {message.sender: reply.own_version} if type(reply) is PingResponse else {}
        return self._send(key, (memoryview(encode(reply)), sent, buffer))

    def _send(self, key: selectors.SelectorKey, pending: tuple) -> bool:
        """Send what the socket takes of the reply and wait to write the rest;
        once it is all out, record it in sent_versions and read the next request."""
        reply, sent, buffer = pending
        try:
            reply = reply[key.fileobj.send(reply):]
        except BlockingIOError:  # no room for a byte yet
            pass
        if reply:
            self._selector.modify(key.fileobj, selectors.EVENT_WRITE, (reply, sent, buffer))
            return True
        self.sent_versions.update(sent)
        if key.events != selectors.EVENT_READ:
            self._selector.modify(key.fileobj, selectors.EVENT_READ, buffer)
        return True

    def respond(self, message: Message) -> Message:
        return reply_to(self.node, self.client_index, message)


class TcpTransport:
    """Client side of the TCP protocol.

    Keeps one connection per peer, opened on first use, and sends each
    request only after the previous reply on it was read. Any failure
    closes and forgets that connection, so a late reply can never answer
    a later request. A failed request is not retried here: it raises, and
    the next request to that peer opens a new connection. Call close()
    when done.
    """

    def __init__(self, self_index: int, peers: list[PeerAddress]):
        self.self_index = self_index
        self._addresses = {p.client_index: p.host_port() for p in peers}
        self._request_ids = itertools.count(1)
        self._sockets: dict[int, socket.socket] = {}

    def _request(self, peer: int, request: Message) -> tuple[Message, int]:
        """Send request to peer and read its reply: (checked reply, reply bytes)."""
        if peer not in self._addresses:
            raise PeerUnreachableError(f"no address for client {peer}")
        frame = encode(request)
        sock = self._sockets.get(peer)
        try:
            if sock is None:
                sock = socket.create_connection(self._addresses[peer], timeout=DEFAULT_TIMEOUT_S)
                self._sockets[peer] = sock
            sock.sendall(frame)
            reply_frame = read_frame(sock)
            return _checked_reply(request, reply_frame, peer), len(reply_frame)
        except (OSError, IncompleteFrameError) as exc:
            self._forget(peer)
            raise PeerUnreachableError(f"client {peer} unreachable: {exc}") from exc
        except BaseException:  # a bad reply or an interrupt leaves the stream out of step
            self._forget(peer)
            raise

    def _forget(self, peer: int) -> None:
        sock = self._sockets.pop(peer, None)
        if sock is not None:
            sock.close()

    def close(self) -> None:
        """Close every kept connection; a later request opens a new one."""
        for peer in list(self._sockets):
            self._forget(peer)

    ping = _ping
    fetch_weights = _fetch_weights


def parse_peer_table(entries: list) -> list[PeerAddress]:
    """Build a peer table from a JSON list of {client_index, endpoint} objects."""
    if not isinstance(entries, list):
        raise ValueError(f"peer table must be a JSON list, got {entries!r}")
    peers = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise ValueError(f"peer table entry must be a JSON object, got {entry!r}")
        extra = set(entry) - {"client_index", "endpoint"}
        if extra:
            raise ValueError(f"unknown peer table keys {sorted(extra)}")
        index, endpoint = entry.get("client_index"), entry.get("endpoint")
        if type(index) is not int or type(endpoint) is not str:
            raise ValueError("peer table entry needs an int client_index and a "
                             f"host:port endpoint string, got {entry!r}")
        peers.append(PeerAddress(index, endpoint))
    return peers
