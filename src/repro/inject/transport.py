"""Message-framed transports for the campaign coordinator service.

The coordinator/worker protocol (:mod:`repro.inject.coordinator`,
:mod:`repro.inject.worker`) is transport-agnostic: peers exchange JSON
*messages* over a :class:`Connection`, and everything above this module
assumes only at-least-once, possibly-reordered delivery.  This module
provides the three concrete transports:

* :class:`InProcessTransport` — queue-backed connections inside one
  process (the protocol tests).  Messages still round-trip through the
  wire encoding, so in-process runs exercise the exact frame codec the
  socket path uses.
* :class:`UnixSocketListener` / :func:`unix_connect` — a Unix-domain
  stream socket transport for workers attaching from other processes;
  the local fabric's forked holders speak the same
  :class:`_SocketConnection` over a ``socket.socketpair()``.
* :class:`ChaosConnection` / :class:`ChaosDialer` — a seed-deterministic
  fault-injection wrapper that drops, duplicates, reorders, and delays
  messages, imposes one-way partitions, and severs connections, for
  chaos-testing the protocol's idempotence guarantees.

Wire format — one frame per message::

    MAGIC(4) | LENGTH(4, big-endian) | CRC32(4, big-endian) | PAYLOAD

where ``PAYLOAD`` is the canonical-JSON (sorted keys, compact
separators) UTF-8 encoding of a JSON object and ``CRC32`` covers the
payload bytes.  A frame that fails any structural check raises
:class:`~repro.errors.FrameError`; the connection that produced it can
no longer be assumed in sync and is closed (recovery is a fresh
connection plus fencing re-validation, exactly like a lease steal).
"""

import json
import os
import queue
import random
import socket
import threading
import time
import zlib
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..errors import FrameError, InvalidArgument, TransportClosed

__all__ = [
    "FRAME_MAGIC", "MAX_FRAME_BYTES", "encode_frame", "FrameDecoder",
    "Connection", "InProcessTransport", "UnixSocketListener",
    "unix_connect", "ChaosConfig", "ChaosConnection", "ChaosDialer",
]

#: frame preamble; a stream that does not start every frame with this is
#: not speaking the protocol.
FRAME_MAGIC = b"RFB1"

#: refuse absurd frames before allocating for them (a torn length
#: prefix would otherwise read as a multi-gigabyte allocation).
MAX_FRAME_BYTES = 16 * 1024 * 1024

_HEADER_BYTES = len(FRAME_MAGIC) + 4 + 4


def encode_frame(message: Dict[str, Any]) -> bytes:
    """Encode one message as a length-prefixed CRC32-checked frame."""
    if not isinstance(message, dict):
        raise FrameError(
            f"transport messages must be JSON objects, got "
            f"{type(message).__name__}")
    try:
        payload = json.dumps(message, sort_keys=True,
                             separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise FrameError(f"message is not JSON-encodable: {exc}") from exc
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap")
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return (FRAME_MAGIC + len(payload).to_bytes(4, "big")
            + crc.to_bytes(4, "big") + payload)


class FrameDecoder:
    """Incremental frame decoder for a byte stream.

    Feed arbitrary chunks; complete messages come back in order.  Any
    structural violation (bad magic, oversized length, CRC mismatch,
    non-object payload) raises :class:`~repro.errors.FrameError` and
    poisons the decoder — once a stream has torn, no later byte of it
    can be trusted to re-synchronize.
    """

    def __init__(self):
        self._buffer = bytearray()
        self._poisoned = False

    def feed(self, data: bytes) -> List[Dict[str, Any]]:
        """Absorb ``data``; return every message completed by it."""
        if self._poisoned:
            raise FrameError("decoder poisoned by an earlier bad frame")
        self._buffer.extend(data)
        messages: List[Dict[str, Any]] = []
        while True:
            message = self._next_message()
            if message is None:
                return messages
            messages.append(message)

    def _next_message(self) -> Optional[Dict[str, Any]]:
        if len(self._buffer) < _HEADER_BYTES:
            return None
        magic = bytes(self._buffer[:len(FRAME_MAGIC)])
        if magic != FRAME_MAGIC:
            self._poisoned = True
            raise FrameError(
                f"bad frame magic {magic!r} (expected {FRAME_MAGIC!r})")
        length = int.from_bytes(
            self._buffer[len(FRAME_MAGIC):len(FRAME_MAGIC) + 4], "big")
        if length > MAX_FRAME_BYTES:
            self._poisoned = True
            raise FrameError(
                f"frame length {length} exceeds the "
                f"{MAX_FRAME_BYTES}-byte cap")
        if len(self._buffer) < _HEADER_BYTES + length:
            return None
        crc_expected = int.from_bytes(
            self._buffer[len(FRAME_MAGIC) + 4:_HEADER_BYTES], "big")
        payload = bytes(self._buffer[_HEADER_BYTES:_HEADER_BYTES + length])
        del self._buffer[:_HEADER_BYTES + length]
        crc_actual = zlib.crc32(payload) & 0xFFFFFFFF
        if crc_actual != crc_expected:
            self._poisoned = True
            raise FrameError(
                f"frame CRC mismatch: header says {crc_expected:#010x}, "
                f"payload hashes to {crc_actual:#010x}")
        try:
            message = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._poisoned = True
            raise FrameError(
                f"frame payload is not valid JSON: {exc}") from exc
        if not isinstance(message, dict):
            self._poisoned = True
            raise FrameError(
                f"frame payload must be a JSON object, got "
                f"{type(message).__name__}")
        return message


class Connection:
    """One bidirectional message channel between two protocol peers.

    The contract every implementation (and every chaos wrapper) honors:

    * :meth:`send` either enqueues the message for the peer or raises
      :class:`~repro.errors.TransportClosed` — there is no partial send.
    * :meth:`recv` returns the next message, ``None`` on timeout, or
      raises :class:`~repro.errors.TransportClosed` when the peer (or
      this side) has closed.  A corrupt frame raises
      :class:`~repro.errors.FrameError` after closing the connection.
    * :meth:`close` is idempotent and thread-safe.
    """

    def send(self, message: Dict[str, Any]) -> None:
        raise NotImplementedError

    def recv(self, timeout: Optional[float] = None
             ) -> Optional[Dict[str, Any]]:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    @property
    def closed(self) -> bool:
        raise NotImplementedError


_CLOSE_SENTINEL = object()


class _QueueConnection(Connection):
    """One endpoint of an in-process connection pair.

    Messages cross as encoded frames and are decoded on receipt, so the
    in-process transport exercises the same codec (and the same "only
    JSON-encodable objects travel" restriction) as the socket path, and
    a received message is always a deep copy of the sent one.
    """

    def __init__(self, inbox: "queue.Queue", peer_inbox: "queue.Queue"):
        self._inbox = inbox
        self._peer_inbox = peer_inbox
        self._closed = threading.Event()

    def send(self, message: Dict[str, Any]) -> None:
        if self._closed.is_set():
            raise TransportClosed("send on a closed in-process connection")
        self._peer_inbox.put(encode_frame(message))

    def recv(self, timeout: Optional[float] = None
             ) -> Optional[Dict[str, Any]]:
        if self._closed.is_set():
            raise TransportClosed("recv on a closed in-process connection")
        try:
            item = self._inbox.get(timeout=timeout) if timeout is None \
                or timeout > 0 else self._inbox.get_nowait()
        except queue.Empty:
            return None
        if item is _CLOSE_SENTINEL:
            self._closed.set()
            raise TransportClosed("peer closed the in-process connection")
        decoded = FrameDecoder().feed(item)
        return decoded[0]

    def close(self) -> None:
        if self._closed.is_set():
            return
        self._closed.set()
        self._peer_inbox.put(_CLOSE_SENTINEL)

    @property
    def closed(self) -> bool:
        return self._closed.is_set()


class InProcessTransport:
    """A listener/dialer pair living inside one process.

    The coordinator calls :meth:`accept`; each :meth:`connect` call
    manufactures a fresh connection pair and hands the server end to
    the accept queue.  Used by every protocol test that does not need
    a real socket.
    """

    def __init__(self):
        self._accept_queue: "queue.Queue" = queue.Queue()
        self._closed = threading.Event()

    def connect(self) -> Connection:
        """Dial the listener; returns the client end of a new pair."""
        if self._closed.is_set():
            raise TransportClosed("connect on a closed in-process "
                                  "transport")
        client_inbox: "queue.Queue" = queue.Queue()
        server_inbox: "queue.Queue" = queue.Queue()
        client = _QueueConnection(client_inbox, server_inbox)
        server = _QueueConnection(server_inbox, client_inbox)
        self._accept_queue.put(server)
        return client

    def accept(self, timeout: Optional[float] = None
               ) -> Optional[Connection]:
        """Next inbound connection, or ``None`` on timeout."""
        if self._closed.is_set():
            raise TransportClosed("accept on a closed in-process "
                                  "transport")
        try:
            return self._accept_queue.get(timeout=timeout)
        except queue.Empty:
            return None

    def close(self) -> None:
        self._closed.set()


class _SocketConnection(Connection):
    """A Unix-domain-socket connection speaking the frame protocol."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._decoder = FrameDecoder()
        self._pending: Deque[Dict[str, Any]] = deque()
        self._send_lock = threading.Lock()
        self._closed = threading.Event()

    def send(self, message: Dict[str, Any]) -> None:
        frame = encode_frame(message)
        with self._send_lock:
            if self._closed.is_set():
                raise TransportClosed("send on a closed socket connection")
            try:
                self._sock.sendall(frame)
            except OSError as exc:
                self.close()
                raise TransportClosed(
                    f"socket send failed: {exc}") from exc

    def recv(self, timeout: Optional[float] = None
             ) -> Optional[Dict[str, Any]]:
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if self._pending:
                return self._pending.popleft()
            if self._closed.is_set():
                raise TransportClosed("recv on a closed socket connection")
            remaining: Optional[float] = None
            if deadline is not None:
                # timeout=0 (or an expired deadline) degrades to one
                # non-blocking poll: settimeout(0) makes the socket
                # non-blocking, where an empty buffer raises
                # BlockingIOError rather than socket.timeout.
                remaining = max(0.0, deadline - time.monotonic())
            try:
                self._sock.settimeout(remaining)
                data = self._sock.recv(65536)
            except (socket.timeout, BlockingIOError):
                return None
            except OSError as exc:
                self.close()
                raise TransportClosed(
                    f"socket recv failed: {exc}") from exc
            if not data:
                self.close()
                raise TransportClosed("peer closed the socket")
            try:
                self._pending.extend(self._decoder.feed(data))
            except FrameError:
                self.close()
                raise

    def close(self) -> None:
        if self._closed.is_set():
            return
        self._closed.set()
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    @property
    def closed(self) -> bool:
        return self._closed.is_set()


class UnixSocketListener:
    """A Unix-domain-socket listener accepting framed connections."""

    def __init__(self, path: str, backlog: int = 32):
        self.path = path
        if os.path.exists(path):
            os.unlink(path)
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.bind(path)
        self._sock.listen(backlog)
        self._closed = threading.Event()

    def accept(self, timeout: Optional[float] = None
               ) -> Optional[Connection]:
        """Next inbound connection, or ``None`` on timeout."""
        if self._closed.is_set():
            raise TransportClosed("accept on a closed listener")
        try:
            self._sock.settimeout(timeout)
            sock, _ = self._sock.accept()
        except (socket.timeout, BlockingIOError):
            # timeout=0 is a non-blocking poll (BlockingIOError when no
            # connection is waiting), matching recv(timeout=0).
            return None
        except OSError as exc:
            if self._closed.is_set():
                raise TransportClosed("listener closed") from exc
            raise TransportClosed(
                f"socket accept failed: {exc}") from exc
        sock.settimeout(None)
        return _SocketConnection(sock)

    def close(self) -> None:
        if self._closed.is_set():
            return
        self._closed.set()
        try:
            self._sock.close()
        except OSError:
            pass
        try:
            os.unlink(self.path)
        except OSError:
            pass


def unix_connect(path: str, timeout: Optional[float] = None) -> Connection:
    """Dial a :class:`UnixSocketListener` at ``path``."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        sock.settimeout(timeout)
        sock.connect(path)
    except socket.timeout as exc:
        sock.close()
        raise TransportClosed(
            f"connect to {path} timed out") from exc
    except OSError as exc:
        sock.close()
        raise TransportClosed(
            f"connect to {path} failed: {exc}") from exc
    sock.settimeout(None)
    return _SocketConnection(sock)


@dataclass(frozen=True)
class ChaosConfig:
    """A seeded schedule of transport faults.

    Every per-message decision derives from
    ``random.Random(f"chaos:{seed}:{label}:{direction}:{index}")``, so a
    chaos run is exactly reproducible from ``(seed, connection label,
    message index)`` — no decision depends on wall-clock timing or on
    any other message's fate.

    :param seed: master seed for the decision stream.
    :param drop: probability a message is silently discarded.
    :param dup: probability a message is delivered twice.
    :param reorder: probability a message is held back and delivered
        after its successor (adjacent swap).
    :param delay: probability a message delivery sleeps first.
    :param delay_max_s: upper bound of the uniform chaos sleep.
    :param partition: optional ``(start, stop)`` message-index span in
        which every message of the partitioned direction is dropped —
        a deterministic one-way partition.
    :param partition_window_s: optional ``(start, stop)`` seconds since
        connection creation during which the partitioned direction
        drops everything — a timed one-way partition.
    :param partition_direction: which direction the partition severs
        (``"send"`` or ``"recv"``); the other keeps flowing.
    :param sever_every: forcibly close the connection after every N
        sends (exercises the reconnect/refence path).
    """

    seed: int = 0
    drop: float = 0.0
    dup: float = 0.0
    reorder: float = 0.0
    delay: float = 0.0
    delay_max_s: float = 0.0
    partition: Optional[Tuple[int, int]] = None
    partition_window_s: Optional[Tuple[float, float]] = None
    partition_direction: str = "send"
    sever_every: Optional[int] = None

    def __post_init__(self):
        for name in ("drop", "dup", "reorder", "delay"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise InvalidArgument(
                    f"ChaosConfig.{name} must be a probability in "
                    f"[0, 1], got {value!r}")
        if self.delay_max_s < 0:
            raise InvalidArgument(
                f"ChaosConfig.delay_max_s must be >= 0, got "
                f"{self.delay_max_s!r}")
        if self.partition_direction not in ("send", "recv"):
            raise InvalidArgument(
                f"ChaosConfig.partition_direction must be 'send' or "
                f"'recv', got {self.partition_direction!r}")
        if self.sever_every is not None and self.sever_every <= 0:
            raise InvalidArgument(
                f"ChaosConfig.sever_every must be positive, got "
                f"{self.sever_every!r}")


class ChaosConnection(Connection):
    """A connection wrapper injecting a seeded schedule of faults.

    Chaos is applied on this side only — the wrapped peer sees ordinary
    frames — which is what makes the faults composable: wrap the worker
    end and the coordinator needs no cooperation.  Reordering holds a
    message back until the next send flushes it (or :meth:`close` does),
    so no message is lost to reordering alone.
    """

    def __init__(self, inner: Connection, config: ChaosConfig,
                 label: str = "conn0"):
        self._inner = inner
        self._config = config
        self._label = label
        self._send_index = 0
        self._recv_index = 0
        self._holdback: Deque[Dict[str, Any]] = deque()
        self._recv_dups: Deque[Dict[str, Any]] = deque()
        self._born = time.monotonic()
        self._lock = threading.Lock()

    def _rng(self, direction: str, index: int) -> random.Random:
        return random.Random(
            f"chaos:{self._config.seed}:{self._label}:{direction}:{index}")

    def _partitioned(self, direction: str, index: int) -> bool:
        config = self._config
        if config.partition_direction != direction:
            return False
        if config.partition is not None:
            start, stop = config.partition
            if start <= index < stop:
                return True
        if config.partition_window_s is not None:
            start_s, stop_s = config.partition_window_s
            age = time.monotonic() - self._born
            if start_s <= age < stop_s:
                return True
        return False

    def send(self, message: Dict[str, Any]) -> None:
        with self._lock:
            index = self._send_index
            self._send_index += 1
            config = self._config
            if config.sever_every is not None and index > 0 \
                    and index % config.sever_every == 0:
                self._flush_holdback()
                self._inner.close()
                raise TransportClosed(
                    f"chaos severed connection {self._label} at send "
                    f"index {index}")
            rng = self._rng("send", index)
            # Draw every decision unconditionally so each message's fate
            # is independent of the config knobs enabled around it.
            r_drop, r_dup, r_reorder, r_delay, r_sleep = (
                rng.random(), rng.random(), rng.random(), rng.random(),
                rng.random())
            if self._partitioned("send", index) or r_drop < config.drop:
                return
            if r_delay < config.delay and config.delay_max_s > 0:
                time.sleep(r_sleep * config.delay_max_s)
            copies = 2 if r_dup < config.dup else 1
            if r_reorder < config.reorder:
                for _ in range(copies):
                    self._holdback.append(message)
                return
            for _ in range(copies):
                self._inner.send(message)
            self._flush_holdback()

    def _flush_holdback(self) -> None:
        while self._holdback:
            held = self._holdback.popleft()
            try:
                self._inner.send(held)
            except TransportClosed:
                self._holdback.clear()
                return

    def recv(self, timeout: Optional[float] = None
             ) -> Optional[Dict[str, Any]]:
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if self._recv_dups:
                return self._recv_dups.popleft()
            remaining: Optional[float] = None
            if deadline is not None:
                # clamp instead of bailing out so timeout=0 still makes
                # one non-blocking poll of the inner connection
                remaining = max(0.0, deadline - time.monotonic())
            message = self._inner.recv(remaining)
            if message is None:
                return None
            index = self._recv_index
            self._recv_index += 1
            config = self._config
            rng = self._rng("recv", index)
            r_drop, r_dup, r_delay, r_sleep = (
                rng.random(), rng.random(), rng.random(), rng.random())
            if self._partitioned("recv", index) or r_drop < config.drop:
                continue
            if r_delay < config.delay and config.delay_max_s > 0:
                time.sleep(r_sleep * config.delay_max_s)
            if r_dup < config.dup:
                self._recv_dups.append(message)
            return message

    def close(self) -> None:
        with self._lock:
            self._flush_holdback()
        self._inner.close()

    @property
    def closed(self) -> bool:
        return self._inner.closed


class ChaosDialer:
    """Wrap a dialer so every connection it makes is chaos-injected.

    Each connection gets a distinct label (``conn0``, ``conn1``, ...),
    so reconnects do not replay the previous connection's fault
    schedule — but the whole sequence is still a pure function of the
    config seed.
    """

    def __init__(self, dial: Callable[[], Connection],
                 config: ChaosConfig):
        self._dial = dial
        self._config = config
        self._count = 0
        self._lock = threading.Lock()

    def __call__(self) -> Connection:
        with self._lock:
            label = f"conn{self._count}"
            self._count += 1
        return ChaosConnection(self._dial(), self._config, label=label)
