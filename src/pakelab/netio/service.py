"""TCP demo server (entity B) and client (entity A).

The server speaks one session per connection: MSG1 in, MSG2 out, MSG3 in,
then MSG4 (or OK for the baseline scheme) out on acceptance. Both ends run
the scheme's drivers (pakelab.drivers) and pick nonces by its first_usable
rule; the server loop and the client loop here only move frames and map
what the drivers raise to ERROR frames or exceptions. Every refusal is an
ERROR frame with a stable code, raised and sent from one place,
Service._handle_connection, which also sees every hang-up; malformed
input can never bring the listener down, and a connection still reading
READ_TIMEOUT seconds after it was accepted is dropped as a hang-up, however
slowly its peer trickles bytes. Group parameters ride in MSG1
and are compared against the server's configuration, never negotiated.

Two deliberately guarded modes:

  * enrollment (config.enroll): accepts REGISTER frames, which carry the
    verifier in the clear. Faithful to the registration step under study,
    dangerous in any real deployment, so it is off by default and logs a
    warning per registration. Each one appends a row to the store file;
    the file is compacted to v2 at start if it is not already (see store),
    and then held under a shared lock until the service closes, so an
    offline `pakelab register` refuses it.
  * insecure_lky (config.insecure_lky): serves the broken baseline scheme
    instead of the revised one, for attack demonstrations.

Per-identity consecutive-failure counters throttle online guessing: once a
client identity crosses config.max_fail, further attempts get ERROR 0x06
until a success clears the counter (counters are in-memory only).

With config.log_path set, the service opens its JSONL log once and holds it
until stop(), so a log renamed or rotated while it runs keeps receiving
lines until the service restarts.

Each connection in flight has its own daemon handler thread. A finished
connection's thread waits for the next one instead of exiting, a new thread
starts only when none is idle, and a thread left idle for READ_TIMEOUT
seconds exits, as do the idle threads when the service stops.
"""

from __future__ import annotations

import io
import json
import logging
import queue
import random
import signal
import socket
import socketserver
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, NamedTuple, Optional, Tuple, Union

from ..core import (
    DIGEST256,
    Credentials,
    GroupParams,
    HashSpec,
    SCHEME_LKY,
    SCHEME_PROPOSED,
    SessionKey,
    Tally,
    VerifierRecord,
    sample_nonce,
    validate_params,
)
from ..errors import (
    AuthFail,
    MalformedFrame,
    NotInGroup,
    RemoteError,
    RetryNonce,
    UnmaskOutOfRange,
    VersionMismatch,
)
from ..drivers import CLIENTS, SERVERS, expect, first_usable
from ..harness import SessionReport, append_log_line, counters_from
from ..proposed import FLAG_UNAUTHENTICATED
from ..transcript import DIR_AB, DIR_BA, Transcript
from .frames import (
    ERR_AUTH_FAIL,
    ERR_MALFORMED,
    ERR_PARAM_MISMATCH,
    ERR_THROTTLED,
    ERR_UNKNOWN_IDENTITY,
    ERR_VERSION_MISMATCH,
    ErrorFrame,
    Msg1Frame,
    OkFrame,
    RegisterFrame,
    encode_frame,
    frame_label,
    read_frame,
)
from .store import VerifierStore, lock_store

log = logging.getLogger("pakelab.netio")

DEFAULT_MAX_FAIL = 5

# serve_forever's shutdown poll; short so that Service.stop() returns promptly
POLL_INTERVAL = 0.05

# pending connections the kernel queues for accept(); socketserver's default
# of 5 overflows under 8 concurrent clients, and a refused SYN is retried
# only after the kernel's 1 s retransmit timeout
LISTEN_BACKLOG = 128

# seconds after which a connection's reads fail and it is dropped as a
# hang-up, so neither a silent nor a trickling peer can pin its handler
# thread; also how long an idle handler thread waits for a connection
READ_TIMEOUT = 30.0

# seconds the client waits to connect, and then on each read or write
CLIENT_TIMEOUT = 10.0


def parse_address(text: str) -> Tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"address must be host:port, got {text!r}")
    if int(port) > 0xFFFF:
        raise ValueError(f"port {port} is out of range (0-65535)")
    return (host or "127.0.0.1", int(port))


@dataclass
class ServeConfig:
    params: GroupParams
    store_path: Union[str, Path]
    listen: Tuple[str, int] = ("127.0.0.1", 0)
    hash_spec: HashSpec = field(default_factory=lambda: HashSpec(DIGEST256))
    max_fail: int = DEFAULT_MAX_FAIL
    insecure_lky: bool = False
    enroll: bool = False
    log_path: Optional[Union[str, Path]] = None
    rng_seed: Optional[int] = None
    y_override: Optional[int] = None    # test hook: pin the server nonce


@dataclass
class ClientOptions:
    hash_spec: HashSpec = field(default_factory=lambda: HashSpec(DIGEST256))
    scheme: str = SCHEME_PROPOSED
    x: Optional[int] = None
    seed: Optional[int] = None
    log_path: Optional[Union[str, Path]] = None


class _DeadlineReader(io.RawIOBase):
    """A socket's read side whose every read ends by one monotonic deadline."""

    def __init__(self, sock: socket.socket, deadline: float):
        self._sock, self._deadline = sock, deadline

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        remaining = self._deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("connection deadline passed")
        self._sock.settimeout(remaining)
        return self._sock.recv_into(buffer)


class _Handler(socketserver.StreamRequestHandler):
    timeout = READ_TIMEOUT

    def setup(self):
        super().setup()
        # one deadline for the whole connection, not one per read
        self.rfile.close()
        self.rfile = io.BufferedReader(_DeadlineReader(
            self.connection, time.monotonic() + self.timeout))

    def handle(self):
        self.server.service._handle_connection(self)


class _Server(socketserver.TCPServer):
    """Runs each accepted connection on an idle handler thread, or a new one."""

    allow_reuse_address = True
    request_queue_size = LISTEN_BACKLOG

    def __init__(self, address, handler):
        # (request, address); None: exit. Not a SimpleQueue: on CPython 3.11
        # its timed get can block for good when several threads wait on it
        self._requests = queue.Queue()
        self._idle = threading.Semaphore(0)     # idle threads not yet claimed
        super().__init__(address, handler)

    def process_request(self, request, client_address):
        self._requests.put((request, client_address))
        if not self._idle.acquire(blocking=False):
            threading.Thread(target=self._work, name="pakelab-handler",
                             daemon=True).start()

    def _work(self):
        while True:
            try:
                item = self._requests.get(timeout=READ_TIMEOUT)
            except queue.Empty:
                if self._idle.acquire(blocking=False):
                    return                  # one idle thread fewer
                continue                    # all are claimed: work is queued
            if item is None:
                self._requests.put(None)    # pass the exit on to the next one
                return
            request, client_address = item
            try:
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            finally:
                self.shutdown_request(request)
            self._idle.release()

    def server_close(self):
        super().server_close()
        self._requests.put(None)


class _SessionEnd(NamedTuple):
    """How a session ended, for its log line; key_b is None on auth-fail."""

    key_b: Optional[SessionKey]
    tally: Tally
    error: Optional[str] = None


class _Refusal(Exception):
    """_Refusal(code, detail[, transcript, end]): the args of its _reply_error."""


class Service:
    """A bound listener plus the shared store, throttle counters, and log."""

    def __init__(self, config: ServeConfig):
        validate_params(config.params)
        self.config = config
        self.scheme = SCHEME_LKY if config.insecure_lky else SCHEME_PROPOSED
        path = Path(config.store_path)
        mode = config.hash_spec.mode
        if path.exists():
            self.store = VerifierStore.load(path, config.params, mode)
        elif config.enroll:
            self.store = VerifierStore(config.params, mode)     # may start empty
        else:
            raise FileNotFoundError(f"verifier store not found: {path}")
        # held open until stop(); lines are written just before a session's
        # final frame, so an unwritable log must stop the service here, not
        # drop sessions
        self._log_file = (None if config.log_path is None
                          else open(config.log_path, "a", encoding="utf-8"))
        self._store_lock = None
        self._lock = threading.Lock()
        # id_a -> consecutive failed logins, guarded by _lock
        self._failures: Dict[int, int] = {}
        # log writes get their own lock: a session's line is written before
        # its final frame, so it must not wait behind a store write
        self._log_lock = threading.Lock()
        self._rng = random.Random(config.rng_seed)
        try:
            if config.enroll and self.store.version != 2:
                # REGISTER appends rows, so the file must be v2 and name this group
                self.store.save(path)
            # taken after the compaction, which renames a new file over the old
            self._store_lock = lock_store(path) if config.enroll else None
            self._server = _Server(config.listen, _Handler)
        except BaseException:
            self._release_store()
            self._close_log()
            raise
        self._server.service = self
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self._server.server_address[:2]

    def start(self):
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        args=(POLL_INTERVAL,),
                                        name="pakelab-serve", daemon=True)
        self._thread.start()

    def stop(self):
        """Close the listener, store and log; safe on a never-started service."""
        if self._thread is not None:
            # shutdown() waits for a serve_forever loop, so only one that ran
            self._server.shutdown()
            self._thread.join(timeout=5)
        self._server.server_close()
        self._release_store()
        self._close_log()

    def _release_store(self):
        if self._store_lock is not None:
            self._store_lock.close()
            self._store_lock = None

    def _close_log(self):
        with self._log_lock:
            if self._log_file is not None:
                self._log_file.close()
                self._log_file = None

    def serve_blocking(self):
        """Serve in this thread, the main one, until SIGINT or SIGTERM."""
        previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
        try:
            host, port = self.address
            log.info("listening on %s:%d", host, port)
            self._server.serve_forever(POLL_INTERVAL)
        except KeyboardInterrupt:
            pass
        finally:
            signal.signal(signal.SIGTERM, previous)
            self.stop()

    def __enter__(self) -> "Service":
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    # -- per-connection logic ------------------------------------------------

    def _handle_connection(self, conn: _Handler):
        try:
            received = read_frame(conn.rfile)
            if received is None:
                return
            frame, raw = received
            if isinstance(frame, RegisterFrame):
                self._handle_register(conn, frame)
            elif isinstance(frame, Msg1Frame):
                self._handle_session(conn, frame, raw)
            else:
                raise _Refusal(ERR_MALFORMED,
                               f"expected MSG1 or REGISTER, got {frame_label(frame)}")
        except _Refusal as refusal:
            self._reply_error(conn, *refusal.args)
        except VersionMismatch as exc:
            self._reply_error(conn, ERR_VERSION_MISMATCH, str(exc))
        except (MalformedFrame, UnmaskOutOfRange, NotInGroup) as exc:
            self._reply_error(conn, ERR_MALFORMED, str(exc))
        except (TimeoutError, ConnectionError) as exc:
            log.info("peer hung up or went silent: %s", exc)
        except Exception:
            # the listener must survive anything a peer throws at it
            log.exception("connection handler failed")

    def _send(self, conn: _Handler, frame, transcript: Optional[Transcript] = None,
              end: Optional[_SessionEnd] = None):
        """Record frame in the transcript, then write it to the peer.

        With end (a session's final frame) the session is logged before the
        write, so a client that has read the frame finds its line in the log.
        """
        data = encode_frame(frame)
        if transcript is not None:
            transcript.record(DIR_BA, frame_label(frame), data)
        if end is not None:
            self._log_session(transcript, end)
        try:
            conn.wfile.write(data)
            conn.wfile.flush()
        except OSError:
            pass                            # peer is gone; nothing to salvage

    def _reply_error(self, conn: _Handler, code: int, detail: str,
                     transcript: Optional[Transcript] = None,
                     end: Optional[_SessionEnd] = None):
        log.info("refusing connection: code %#04x, %s", code, detail)
        self._send(conn, ErrorFrame(code=code, detail=detail), transcript, end)

    def _handle_register(self, conn: _Handler, frame: RegisterFrame):
        if not self.config.enroll:
            raise _Refusal(ERR_AUTH_FAIL, "enrollment is disabled")
        if not self.config.params.contains(frame.v):
            raise _Refusal(ERR_PARAM_MISMATCH, "verifier is not a group element")
        record = VerifierRecord(id_a=frame.id_a, id_b=frame.id_b, v=frame.v)
        with self._lock:
            self.store.append(self.config.store_path, record)
        log.warning("enrolled id_a=%d id_b=%d: the verifier crossed the wire "
                    "unprotected", frame.id_a, frame.id_b)
        self._log_line({"kind": "register", "id_a": frame.id_a,
                        "id_b": frame.id_b})
        self._send(conn, OkFrame())

    def _preflight(self, msg1: Msg1Frame) -> VerifierRecord:
        """Shared MSG1 policy: params match, throttle, identity lookup."""
        cfg = self.config
        if (msg1.q, msg1.g) != (cfg.params.q, cfg.params.g):
            raise _Refusal(ERR_PARAM_MISMATCH,
                           f"group ({msg1.q}, {msg1.g}) is not "
                           f"({cfg.params.q}, {cfg.params.g})")
        with self._lock:
            failures = self._failures.get(msg1.id_a, 0)
            records = self.store.records_for(msg1.id_a)
        if failures >= cfg.max_fail:
            raise _Refusal(ERR_THROTTLED,
                           f"{failures} consecutive failures for id_a={msg1.id_a}")
        if not records:
            raise _Refusal(ERR_UNKNOWN_IDENTITY,
                           f"no verifier on record for id_a={msg1.id_a}")
        if len(records) > 1:
            # MSG1 names only id_a; with several (id_a, id_b) rows the server
            # cannot know which shared secret this session means
            raise _Refusal(ERR_UNKNOWN_IDENTITY,
                           f"id_a={msg1.id_a} is enrolled with multiple "
                           "server identities")
        return records[0]

    def _server_nonce(self) -> int:
        with self._lock:
            return sample_nonce(self.config.params, self._rng)

    def _handle_session(self, conn: _Handler, msg1: Msg1Frame, raw: bytes):
        """Run the served scheme's server driver over this connection.

        Every end short of acceptance is raised for _handle_connection.
        """
        cfg = self.config
        transcript = Transcript()
        transcript.record(DIR_AB, "msg1", raw)
        record = self._preflight(msg1)

        def start(y: int):
            server = SERVERS[self.scheme](msg1, record, cfg.params,
                                          cfg.hash_spec, y)
            return server, *next(server)

        try:
            server, frame, state = first_usable(start, cfg.y_override,
                                                self._server_nonce)
        except RetryNonce:
            raise _Refusal(ERR_AUTH_FAIL, "could not pick a usable nonce"
                           if cfg.y_override is None
                           else "pinned server nonce is degenerate")
        try:
            while True:
                self._send(conn, frame, transcript)
                received = read_frame(conn.rfile)
                if received is None:
                    raise ConnectionError("peer hung up before MSG3")
                reply, raw = received
                transcript.record(DIR_AB, frame_label(reply), raw)
                frame, state = server.send(reply)
        except StopIteration as done:
            final, key_b, state = done.value
        except AuthFail as exc:
            with self._lock:
                count = self._failures.get(msg1.id_a, 0) + 1
                self._failures[msg1.id_a] = count
            raise _Refusal(ERR_AUTH_FAIL, f"{exc} (consecutive failures: {count})",
                           transcript, _SessionEnd(None, state.tally, str(exc)))
        with self._lock:
            self._failures.pop(msg1.id_a, None)
        # a server that accepts with nothing left to send acknowledges with OK
        self._send(conn, final if final is not None else OkFrame(), transcript,
                   _SessionEnd(key_b, state.tally))

    def _log_session(self, transcript: Transcript, end: _SessionEnd):
        report = SessionReport(scheme=self.scheme, params=self.config.params,
                               transcript=transcript, key_a=None, key_b=end.key_b,
                               auth_a_ok=False, auth_b_ok=end.key_b is not None,
                               counters=counters_from(Tally(), end.tally, transcript),
                               flags=["server-side view"], error=end.error)
        self._log_line(report.to_json_obj())

    def _log_line(self, obj: dict):
        if self.config.log_path is None:
            return
        line = json.dumps(obj, sort_keys=True) + "\n"
        with self._log_lock:
            if self._log_file is not None:
                self._log_file.write(line)
                self._log_file.flush()
            else:       # stop() closed the log under a session still in flight
                append_log_line(self.config.log_path, obj)


# -- client side ---------------------------------------------------------------


def _client_send(sock: socket.socket, frame, transcript: Transcript):
    """Encode frame once; the same bytes go to the transcript and the wire."""
    data = encode_frame(frame)
    transcript.record(DIR_AB, frame_label(frame), data)
    sock.sendall(data)


def _client_recv(rfile, transcript: Optional[Transcript] = None):
    """Read the server's next frame, recorded as the bytes that arrived."""
    received = read_frame(rfile)
    if received is None:
        raise MalformedFrame("server closed the connection mid-session")
    frame, raw = received
    if isinstance(frame, ErrorFrame):
        raise RemoteError(frame.code, frame.detail)
    if transcript is not None:
        transcript.record(DIR_BA, frame_label(frame), raw)
    return frame


def client_register(address: Tuple[str, int], record: VerifierRecord):
    """Enroll a verifier over TCP (demo of the in-the-clear registration step)."""
    with (socket.create_connection(address, timeout=CLIENT_TIMEOUT) as sock,
          sock.makefile("rb") as rfile):
        sock.sendall(encode_frame(RegisterFrame(id_a=record.id_a,
                                                id_b=record.id_b, v=record.v)))
        expect(_client_recv(rfile), OkFrame)


def client_connect(address: Tuple[str, int], creds: Credentials,
                   params: GroupParams,
                   options: Optional[ClientOptions] = None,
                   ) -> Tuple[SessionKey, SessionReport]:
    """Run one session as entity A against a listening server."""
    opts = options if options is not None else ClientOptions()
    if opts.scheme not in CLIENTS:
        raise ValueError(f"unknown scheme {opts.scheme!r}")

    def start(x: int):
        client = CLIENTS[opts.scheme](creds, params, opts.hash_spec, x)
        return client, *next(client)

    # a pinned x needs no nonce stream
    rng = None if opts.x is not None else random.Random(opts.seed)
    try:
        client, frame, state = first_usable(start, opts.x,
                                            lambda: sample_nonce(params, rng))
    except RetryNonce:
        if rng is None:
            raise
        raise RetryNonce("could not pick a usable client nonce") from None
    transcript = Transcript()
    with (socket.create_connection(address, timeout=CLIENT_TIMEOUT) as sock,
          sock.makefile("rb") as rfile):
        try:
            while True:
                _client_send(sock, frame, transcript)
                frame, state = client.send(_client_recv(rfile, transcript))
        except StopIteration as done:
            final, key, state = done.value
        if final is not None:
            # the server accepts on this last frame and acknowledges it with OK
            _client_send(sock, final, transcript)
            expect(_client_recv(rfile, transcript), OkFrame)
    flags = list(state.flags)
    report = SessionReport(scheme=opts.scheme, params=params, transcript=transcript,
                           key_a=key, key_b=None,
                           auth_a_ok=FLAG_UNAUTHENTICATED not in flags,
                           auth_b_ok=True,
                           counters=counters_from(state.tally, Tally(), transcript),
                           flags=["client-side view"] + flags)
    if opts.log_path is not None:
        append_log_line(opts.log_path, report.to_json_obj())
    return key, report
