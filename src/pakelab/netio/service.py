"""TCP demo server (entity B) and client (entity A).

The server speaks one session per connection: MSG1 in, MSG2 out, MSG3 in,
then MSG4 (or OK for the baseline scheme) out on acceptance. Both ends run
the scheme's drivers (pakelab.drivers) and pick nonces by its first_usable
rule; each end's loop here only moves frames through one _Connection, which
records its transcript and ends every read by one deadline (READ_TIMEOUT
after the server accepts, CLIENT_TIMEOUT after the client connects), however
slowly the peer trickles bytes, and maps what the drivers raise to ERROR
frames or exceptions. Every refusal is an ERROR frame with a stable code,
raised and sent from one place, Service._handle_connection, which also sees
every hang-up; malformed input can never bring the listener down. Group
parameters ride in MSG1 and are checked against the server's, never negotiated.

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

Per-identity in-memory counters throttle online guessing: MSG1 gets ERROR
0x06 once its identity's consecutive failures plus its logins in flight
reach config.max_fail. An auth-fail counts a failure and a success clears
the count, so concurrent logins check no more guesses than sequential ones.

With config.log_path set, the service opens its JSONL log once and holds it
until stop(), so a log renamed or rotated while it runs keeps receiving
lines until the service restarts.

Each daemon handler thread accepts its own connections: it waits in the
listener's accept() and serves what it gets, then waits again. The last
thread to leave accept() starts its replacement before it serves, so one
always waits; a thread idle for READ_TIMEOUT seconds exits while another
one waits, and every waiting thread exits when the service stops.
"""

from __future__ import annotations

import io
import json
import logging
import random
import signal
import socket
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
    check_nonce,
    is_decimal,
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

# pending connections the kernel queues for accept(); a backlog of 5
# overflows under 8 concurrent clients, and a refused SYN is retried only
# after the kernel's 1 s retransmit timeout
LISTEN_BACKLOG = 128

# seconds after which a connection's reads fail and it is dropped as a
# hang-up, so neither a silent nor a trickling peer can pin its handler
# thread; also how long an idle handler thread waits for a connection
READ_TIMEOUT = 30.0

# seconds a handler thread waits, or until stop(), to retry an accept() that
# failed other than by timing out (out of file descriptors), so as not to spin
ACCEPT_RETRY_WAIT = 0.05

# seconds the client waits to connect, and then for its whole session
CLIENT_TIMEOUT = 10.0


def parse_address(text: str) -> Tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not is_decimal(port):
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


class _Connection(io.RawIOBase):
    """One end of a TCP session; on both ends, client_address is entity A's.

    Every read through rfile ends by the one deadline set when it is built.
    """

    def __init__(self, sock: socket.socket, client_address: Tuple[str, int],
                 sends: str, transcript: Optional[Transcript], timeout: float):
        self.sock, self.client_address = sock, client_address
        self.sends, self.transcript = sends, transcript
        self._receives = DIR_BA if sends == DIR_AB else DIR_AB
        self._deadline = time.monotonic() + timeout
        self.rfile = io.BufferedReader(self)

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        remaining = self._deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("connection deadline passed")
        self.sock.settimeout(remaining)
        return self.sock.recv_into(buffer)

    def close(self):
        self.rfile = None       # the reader holds this end: drop the cycle
        super().close()

    def record(self, frame) -> bytes:
        """Encode frame once; record the bytes this end is about to send."""
        data = encode_frame(frame)
        if self.transcript is not None:
            self.transcript.record(self.sends, frame_label(frame), data)
        return data

    def receive(self):
        """The peer's next frame, recorded as it arrived; None at a clean end."""
        received = read_frame(self.rfile)
        if received is None:
            return None
        frame, raw = received
        if self.transcript is not None:
            self.transcript.record(self._receives, frame_label(frame), raw)
        return frame


class _SessionEnd(NamedTuple):
    """How a session ended, for its log line; key_b is None on auth-fail."""

    key_b: Optional[SessionKey]
    tally: Tally
    error: Optional[str] = None


class _Refusal(Exception):
    """_Refusal(code, detail[, end]): the args of its _reply_error."""


class Service:
    """A bound listener plus the shared store, throttle counters, and log."""

    def __init__(self, config: ServeConfig):
        validate_params(config.params)
        if config.y_override is not None:
            check_nonce("y", config.y_override, config.params)
        if config.max_fail < 1:
            raise ValueError(f"max_fail must be at least 1, got {config.max_fail}")
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
        # id_a -> consecutive failed logins, and id_a -> logins admitted
        # and not yet ended; both guarded by _lock
        self._failures: Dict[int, int] = {}
        self._in_flight: Dict[int, int] = {}
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
            self._listener = socket.create_server(config.listen,
                                                  backlog=LISTEN_BACKLOG)
        except BaseException:
            self._close_files()
            raise
        # the idle wait: an accept() that times out may end its thread
        self._listener.settimeout(READ_TIMEOUT)
        self._waiting = 0           # handler threads in accept(); guarded by _lock
        self._stopped = threading.Event()

    @property
    def address(self) -> Tuple[str, int]:
        return self._listener.getsockname()[:2]

    def start(self):
        """Start one more handler thread; the first one starts the serving."""
        threading.Thread(target=self._work, name="pakelab-handler",
                         daemon=True).start()

    def stop(self):
        """Close the listener, store and log; safe on a never-started service."""
        self._stopped.set()
        try:
            # wakes every thread waiting in accept(); close() alone does not
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass                            # an earlier stop() closed it
        self._listener.close()
        self._close_files()

    def _work(self):
        """Accept and serve connections until stop(), or idle while another waits."""
        while True:
            with self._lock:
                self._waiting += 1
            try:
                sock, client_address = self._listener.accept()
            except OSError as exc:
                with self._lock:
                    self._waiting -= 1
                    if self._stopped.is_set() or (isinstance(exc, TimeoutError)
                                                  and self._waiting):
                        return
                if not isinstance(exc, TimeoutError):
                    self._stopped.wait(ACCEPT_RETRY_WAIT)
                continue            # out of file descriptors, or the last one idle
            with self._lock:
                self._waiting -= 1
                last = not self._waiting
            if last:
                self.start()
            with sock, _Connection(sock, client_address, DIR_BA, Transcript(),
                                   READ_TIMEOUT) as conn:
                try:
                    self._handle_connection(conn)
                except Exception:       # the listener outlives anything a peer throws
                    log.exception("connection from %s failed", client_address)
                try:
                    sock.shutdown(socket.SHUT_WR)   # EOF ahead of any reset by close()
                except OSError:
                    pass                    # peer is gone

    def _close_files(self):
        """Release the store lock and close the log, once; stop() may race itself."""
        with self._log_lock:
            if self._store_lock is not None:
                self._store_lock.close()
                self._store_lock = None
            if self._log_file is not None:
                self._log_file.close()
                self._log_file = None

    def serve_blocking(self):
        """Serve until stop(), SIGINT or SIGTERM; call it from the main thread."""
        previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
        try:
            host, port = self.address
            log.info("listening on %s:%d", host, port)
            self.start()
            self._stopped.wait()
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

    def _handle_connection(self, conn: _Connection):
        try:
            frame = conn.receive()
            if isinstance(frame, RegisterFrame):
                self._handle_register(conn, frame)
            elif isinstance(frame, Msg1Frame):
                self._handle_session(conn, frame)
            elif frame is not None:         # None: the peer left without a frame
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

    def _send(self, conn: _Connection, frame, end: Optional[_SessionEnd] = None):
        """Record frame in the connection's transcript, then write it to the peer.

        With end (a session's final frame) the session is logged before the
        write, so a client that has read the frame finds its line in the log.
        """
        data = conn.record(frame)
        if end is not None:
            self._log_session(conn.transcript, end)
        try:
            conn.sock.sendall(data)
        except OSError:
            pass                            # peer is gone; nothing to salvage

    def _reply_error(self, conn: _Connection, code: int, detail: str,
                     end: Optional[_SessionEnd] = None):
        log.info("refusing connection: code %#04x, %s", code, detail)
        self._send(conn, ErrorFrame(code=code, detail=detail), end)

    def _handle_register(self, conn: _Connection, frame: RegisterFrame):
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
        """MSG1 policy: params match, throttle, identity; charges the login."""
        cfg = self.config
        if (msg1.q, msg1.g) != (cfg.params.q, cfg.params.g):
            raise _Refusal(ERR_PARAM_MISMATCH,
                           f"group ({msg1.q}, {msg1.g}) is not "
                           f"({cfg.params.q}, {cfg.params.g})")
        with self._lock:
            failures = self._failures.get(msg1.id_a, 0)
            in_flight = self._in_flight.get(msg1.id_a, 0)
            records = self.store.records_for(msg1.id_a)
            admitted = len(records) == 1 and failures + in_flight < cfg.max_fail
            if admitted:
                self._in_flight[msg1.id_a] = in_flight + 1
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
        if not admitted:
            raise _Refusal(ERR_THROTTLED,
                           f"{failures} consecutive failures and {in_flight} "
                           f"logins in flight for id_a={msg1.id_a}")
        return records[0]

    def _release(self, id_a: int, accepted: Optional[bool]) -> int:
        """Free id_a's charge and apply its verdict, if any; return its failures."""
        with self._lock:
            left = self._in_flight.pop(id_a) - 1
            if left:
                self._in_flight[id_a] = left
            if accepted:
                self._failures.pop(id_a, None)
            elif accepted is False:
                self._failures[id_a] = self._failures.get(id_a, 0) + 1
            return self._failures.get(id_a, 0)

    def _server_nonce(self) -> int:
        with self._lock:
            return sample_nonce(self.config.params, self._rng)

    def _handle_session(self, conn: _Connection, msg1: Msg1Frame):
        """Run the served scheme's server driver over this connection.

        Every end short of acceptance is raised for _handle_connection.
        """
        cfg = self.config
        record = self._preflight(msg1)

        def start(y: int):
            server = SERVERS[self.scheme](msg1, record, cfg.params,
                                          cfg.hash_spec, y)
            return server, *next(server)

        accepted = None         # the verdict on the client's guess, once judged
        try:
            server, frame, state = first_usable(start, cfg.y_override,
                                                self._server_nonce)
            while True:
                self._send(conn, frame)
                reply = conn.receive()
                if reply is None:
                    raise ConnectionError("peer hung up before MSG3")
                frame, state = server.send(reply)
        except RetryNonce:              # only the first step draws a nonce
            raise _Refusal(ERR_AUTH_FAIL, "could not pick a usable nonce"
                           if cfg.y_override is None
                           else "pinned server nonce is degenerate")
        except StopIteration as done:
            final, key_b, state = done.value
            accepted = True
        except AuthFail as exc:
            accepted, rejection = False, exc
        finally:
            # any other end judged no guess, so it only frees the charge
            failures = self._release(msg1.id_a, accepted)
        if not accepted:
            raise _Refusal(ERR_AUTH_FAIL,
                           f"{rejection} (consecutive failures: {failures})",
                           _SessionEnd(None, state.tally, str(rejection)))
        # a server that accepts with nothing left to send acknowledges with OK
        self._send(conn, final if final is not None else OkFrame(),
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


def _client_recv(conn: _Connection):
    """Read the server's next frame; an ERROR frame raises RemoteError."""
    frame = conn.receive()
    if frame is None:
        raise MalformedFrame("server closed the connection mid-session")
    if isinstance(frame, ErrorFrame):
        raise RemoteError(frame.code, frame.detail)
    return frame


def client_register(address: Tuple[str, int], record: VerifierRecord):
    """Enroll a verifier over TCP (demo of the in-the-clear registration step)."""
    with (socket.create_connection(address, timeout=CLIENT_TIMEOUT) as sock,
          _Connection(sock, sock.getsockname(), DIR_AB, None, CLIENT_TIMEOUT) as conn):
        sock.sendall(conn.record(RegisterFrame(id_a=record.id_a, id_b=record.id_b,
                                               v=record.v)))
        expect(_client_recv(conn), OkFrame)


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
    with (socket.create_connection(address, timeout=CLIENT_TIMEOUT) as sock,
          _Connection(sock, sock.getsockname(), DIR_AB, Transcript(),
                      CLIENT_TIMEOUT) as conn):
        try:
            while True:
                sock.sendall(conn.record(frame))
                frame, state = client.send(_client_recv(conn))
        except StopIteration as done:
            final, key, state = done.value
        if final is not None:
            # the server accepts on this last frame and acknowledges it with OK
            sock.sendall(conn.record(final))
            expect(_client_recv(conn), OkFrame)
    flags = list(state.flags)
    report = SessionReport(scheme=opts.scheme, params=params,
                           transcript=conn.transcript, key_a=key, key_b=None,
                           auth_a_ok=FLAG_UNAUTHENTICATED not in flags,
                           auth_b_ok=True,
                           counters=counters_from(state.tally, Tally(), conn.transcript),
                           flags=["client-side view"] + flags)
    if opts.log_path is not None:
        append_log_line(opts.log_path, report.to_json_obj())
    return key, report
