"""TCP demo server (entity B) and client (entity A).

The server speaks one session per connection: MSG1 in, MSG2 out, MSG3 in,
then MSG4 (or OK for the baseline scheme) out on acceptance. Every refusal
is an ERROR frame with a stable code; malformed input can never bring the
listener down. Group parameters ride in MSG1 and are compared against the
server's configuration, never negotiated.

Two deliberately guarded modes:

  * enrollment (config.enroll): accepts REGISTER frames, which carry the
    verifier in the clear. Faithful to the registration step under study,
    dangerous in any real deployment, so it is off by default and logs a
    warning per registration.
  * insecure_lky (config.insecure_lky): serves the broken baseline scheme
    instead of the revised one, for attack demonstrations.

Per-identity consecutive-failure counters throttle online guessing: once a
client identity crosses config.max_fail, further attempts get ERROR 0x06
until a success clears the counter (counters are in-memory only).
"""

from __future__ import annotations

import logging
import random
import socket
import socketserver
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Optional, Tuple, Union

from .. import lky, proposed
from ..core import (
    DESK_SCALE_BOUND,
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
from ..harness import SessionReport, append_log_line, counters_from
from ..transcript import DIR_AB, DIR_BA, Transcript
from .frames import (
    ERR_AUTH_FAIL,
    ERR_MALFORMED,
    ERR_PARAM_MISMATCH,
    ERR_THROTTLED,
    ERR_UNKNOWN_IDENTITY,
    ERR_VERSION_MISMATCH,
    ErrorFrame,
    LkyMsg2Frame,
    Msg1Frame,
    Msg2Frame,
    Msg3Frame,
    Msg4Frame,
    OkFrame,
    RegisterFrame,
    encode_frame,
    frame_label,
    read_frame,
)
from .store import VerifierStore

log = logging.getLogger("pakelab.netio")

DEFAULT_MAX_FAIL = 5

# serve_forever's shutdown poll; short so that Service.stop() returns promptly
POLL_INTERVAL = 0.05


def parse_address(text: str) -> Tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"address must be host:port, got {text!r}")
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
    skip_server_auth: bool = False
    timeout: float = 10.0
    log_path: Optional[Union[str, Path]] = None


class _Handler(socketserver.StreamRequestHandler):
    def handle(self):
        self.server.service._handle_connection(self)


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class _SessionEnd(NamedTuple):
    """How a session ended, for its log line; key_b is None on auth-fail."""

    scheme: str
    key_b: Optional[SessionKey]
    tally: Tally
    error: Optional[str] = None


class Service:
    """A bound listener plus the shared store, counters, and log."""

    def __init__(self, config: ServeConfig):
        validate_params(config.params)
        self.config = config
        path = Path(config.store_path)
        if path.exists():
            self.store = VerifierStore.load(path)
        elif config.enroll:
            self.store = VerifierStore()    # enrollment mode may start empty
        else:
            raise FileNotFoundError(f"verifier store not found: {path}")
        self._lock = threading.Lock()
        # log appends get their own lock: a session's line is written before
        # its final frame, so it must not wait behind a store rewrite
        self._log_lock = threading.Lock()
        self._rng = random.Random(config.rng_seed)
        self._server = _Server(config.listen, _Handler)
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
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def serve_blocking(self):
        host, port = self.address
        log.info("listening on %s:%d", host, port)
        try:
            self._server.serve_forever(POLL_INTERVAL)
        except KeyboardInterrupt:
            pass
        finally:
            self._server.server_close()

    def __enter__(self) -> "Service":
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    # -- per-connection logic ------------------------------------------------

    def _handle_connection(self, conn: _Handler):
        try:
            try:
                frame = read_frame(conn.rfile)
            except VersionMismatch as exc:
                self._reply_error(conn, ERR_VERSION_MISMATCH, str(exc))
                return
            except MalformedFrame as exc:
                self._reply_error(conn, ERR_MALFORMED, str(exc))
                return
            if frame is None:
                return
            if isinstance(frame, RegisterFrame):
                self._handle_register(conn, frame)
            elif isinstance(frame, Msg1Frame):
                if self.config.insecure_lky:
                    self._handle_lky_session(conn, frame)
                else:
                    self._handle_proposed_session(conn, frame)
            else:
                self._reply_error(conn, ERR_MALFORMED,
                                  f"expected MSG1 or REGISTER, got {frame_label(frame)}")
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
            self._reply_error(conn, ERR_AUTH_FAIL, "enrollment is disabled")
            return
        if not self.config.params.contains(frame.v):
            self._reply_error(conn, ERR_PARAM_MISMATCH,
                              "verifier is not a group element")
            return
        record = VerifierRecord(id_a=frame.id_a, id_b=frame.id_b, v=frame.v)
        with self._lock:
            self.store.add(record, replace=True)
            self.store.save(self.config.store_path)
        log.warning("enrolled id_a=%d id_b=%d: the verifier crossed the wire "
                    "unprotected", frame.id_a, frame.id_b)
        self._log_line({"kind": "register", "id_a": frame.id_a,
                        "id_b": frame.id_b})
        self._send(conn, OkFrame())

    def _preflight(self, conn: _Handler, msg1: Msg1Frame,
                   transcript: Transcript) -> Optional[VerifierRecord]:
        """Shared MSG1 policy: params match, throttle, identity lookup."""
        cfg = self.config
        if (msg1.q, msg1.g) != (cfg.params.q, cfg.params.g):
            self._reply_error(conn, ERR_PARAM_MISMATCH,
                              f"group ({msg1.q}, {msg1.g}) is not "
                              f"({cfg.params.q}, {cfg.params.g})", transcript)
            return None
        with self._lock:
            failures = self.store.failure_count(msg1.id_a)
            records = self.store.records_for(msg1.id_a)
        if failures >= cfg.max_fail:
            self._reply_error(conn, ERR_THROTTLED,
                              f"{failures} consecutive failures for "
                              f"id_a={msg1.id_a}", transcript)
            return None
        if not records:
            self._reply_error(conn, ERR_UNKNOWN_IDENTITY,
                              f"no verifier on record for id_a={msg1.id_a}",
                              transcript)
            return None
        if len(records) > 1:
            # MSG1 names only id_a; with several (id_a, id_b) rows the server
            # cannot know which shared secret this session means
            self._reply_error(conn, ERR_UNKNOWN_IDENTITY,
                              f"id_a={msg1.id_a} is enrolled with multiple "
                              "server identities", transcript)
            return None
        return records[0]

    def _server_nonce(self, params: GroupParams) -> int:
        if self.config.y_override is not None:
            return self.config.y_override
        with self._lock:
            return sample_nonce(params, self._rng)

    def _read_msg3(self, conn: _Handler, transcript: Transcript) -> Optional[Msg3Frame]:
        try:
            frame = read_frame(conn.rfile)
        except VersionMismatch as exc:
            self._reply_error(conn, ERR_VERSION_MISMATCH, str(exc), transcript)
            return None
        except MalformedFrame as exc:
            self._reply_error(conn, ERR_MALFORMED, str(exc), transcript)
            return None
        if frame is None:
            log.info("peer hung up before MSG3")
            return None
        if not isinstance(frame, Msg3Frame):
            self._reply_error(conn, ERR_MALFORMED,
                              f"expected MSG3, got {frame_label(frame)}", transcript)
            return None
        transcript.record(DIR_AB, "msg3", encode_frame(frame))
        return frame

    def _handle_proposed_session(self, conn: _Handler, msg1: Msg1Frame):
        cfg = self.config
        transcript = Transcript()
        transcript.record(DIR_AB, "msg1", encode_frame(msg1))
        record = self._preflight(conn, msg1, transcript)
        if record is None:
            return
        try:
            msg2, server = proposed.prop_server_respond(
                proposed.Msg1(id_a=msg1.id_a, t_a=msg1.t_a), record,
                cfg.params, cfg.hash_spec, self._server_nonce(cfg.params))
        except NotInGroup as exc:
            self._reply_error(conn, ERR_MALFORMED, str(exc), transcript)
            return
        self._send(conn, Msg2Frame(t_b=msg2.t_b), transcript)

        msg3 = self._read_msg3(conn, transcript)
        if msg3 is None:
            return
        try:
            msg4, key_b = proposed.prop_server_finish(
                proposed.Msg3(d_a=msg3.d_a), server)
        except AuthFail as exc:
            with self._lock:
                count = self.store.note_failure(msg1.id_a)
            self._reply_error(conn, ERR_AUTH_FAIL,
                              f"{exc} (consecutive failures: {count})", transcript,
                              _SessionEnd(SCHEME_PROPOSED, None, server.tally, str(exc)))
            return
        with self._lock:
            self.store.clear_failures(msg1.id_a)
        self._send(conn, Msg4Frame(e_b=msg4.e_b), transcript,
                   _SessionEnd(SCHEME_PROPOSED, key_b, server.tally))

    def _handle_lky_session(self, conn: _Handler, msg1: Msg1Frame):
        cfg = self.config
        transcript = Transcript()
        transcript.record(DIR_AB, "msg1", encode_frame(msg1))
        record = self._preflight(conn, msg1, transcript)
        if record is None:
            return
        if msg1.t_a >= 256 ** cfg.params.q_byte_len:
            self._reply_error(conn, ERR_MALFORMED,
                              "masked value exceeds the group width", transcript)
            return
        masked = lky.MaskedValue(msg1.t_a.to_bytes(cfg.params.q_byte_len, "big"))
        lky_msg1 = lky.Msg1(id_a=msg1.id_a, t_a_masked=masked)
        for _ in range(64):
            try:
                msg2, server = lky.lky_server_respond(
                    lky_msg1, record, cfg.params, cfg.hash_spec,
                    self._server_nonce(cfg.params))
                break
            except RetryNonce:
                if self.config.y_override is not None:
                    self._reply_error(conn, ERR_AUTH_FAIL,
                                      "pinned server nonce is degenerate",
                                      transcript)
                    return
            except UnmaskOutOfRange as exc:
                self._reply_error(conn, ERR_MALFORMED, str(exc), transcript)
                return
        else:
            self._reply_error(conn, ERR_AUTH_FAIL, "could not pick a usable nonce",
                              transcript)
            return
        self._send(conn, LkyMsg2Frame(t_b_masked=msg2.t_b_masked.as_int,
                                      d_b=msg2.d_b), transcript)

        msg3 = self._read_msg3(conn, transcript)
        if msg3 is None:
            return
        try:
            key_b = lky.lky_server_finish(lky.Msg3(d_a=msg3.d_a), server)
        except AuthFail as exc:
            with self._lock:
                count = self.store.note_failure(msg1.id_a)
            self._reply_error(conn, ERR_AUTH_FAIL,
                              f"{exc} (consecutive failures: {count})", transcript,
                              _SessionEnd(SCHEME_LKY, None, server.tally, str(exc)))
            return
        with self._lock:
            self.store.clear_failures(msg1.id_a)
        self._send(conn, OkFrame(), transcript,
                   _SessionEnd(SCHEME_LKY, key_b, server.tally))

    def _log_session(self, transcript: Transcript, end: _SessionEnd):
        report = SessionReport(scheme=end.scheme, params=self.config.params,
                               transcript=transcript, key_a=None, key_b=end.key_b,
                               auth_a_ok=False, auth_b_ok=end.key_b is not None,
                               counters=counters_from(Tally(), end.tally, transcript),
                               flags=["server-side view"], error=end.error)
        self._log_line(report.to_json_obj())

    def _log_line(self, obj: dict):
        if self.config.log_path is None:
            return
        with self._log_lock:
            append_log_line(self.config.log_path, obj)


def serve(config: ServeConfig) -> Service:
    """Bind a Service; callers pick .start() (background) or .serve_blocking()."""
    return Service(config)


# -- client side ---------------------------------------------------------------


def _client_read(rfile) -> object:
    frame = read_frame(rfile)
    if frame is None:
        raise MalformedFrame("server closed the connection mid-session")
    if isinstance(frame, ErrorFrame):
        raise RemoteError(frame.code, frame.detail)
    return frame


def _expect(frame, cls):
    if not isinstance(frame, cls):
        raise MalformedFrame(f"expected {cls.__name__}, got {frame_label(frame)}")
    return frame


def _client_send(sock: socket.socket, frame, transcript: Transcript):
    """Encode frame once; the same bytes go to the transcript and the wire."""
    data = encode_frame(frame)
    transcript.record(DIR_AB, frame_label(frame), data)
    sock.sendall(data)


def _client_recv(rfile, cls, transcript: Transcript):
    frame = _expect(_client_read(rfile), cls)
    transcript.record(DIR_BA, frame_label(frame), encode_frame(frame))
    return frame


def client_register(address: Tuple[str, int], record: VerifierRecord,
                    timeout: float = 10.0):
    """Enroll a verifier over TCP (demo of the in-the-clear registration step)."""
    with socket.create_connection(address, timeout=timeout) as sock:
        rfile = sock.makefile("rb")
        sock.sendall(encode_frame(RegisterFrame(id_a=record.id_a,
                                                id_b=record.id_b, v=record.v)))
        _expect(_client_read(rfile), OkFrame)


def client_connect(address: Tuple[str, int], creds: Credentials,
                   params: GroupParams,
                   options: Optional[ClientOptions] = None,
                   ) -> Tuple[SessionKey, SessionReport]:
    """Run one session as entity A against a listening server."""
    opts = options if options is not None else ClientOptions()
    if opts.scheme == SCHEME_PROPOSED:
        key, report = _connect_proposed(address, creds, params, opts)
    elif opts.scheme == SCHEME_LKY:
        key, report = _connect_lky(address, creds, params, opts)
    else:
        raise ValueError(f"unknown scheme {opts.scheme!r}")
    if opts.log_path is not None:
        append_log_line(opts.log_path, report.to_json_obj())
    return key, report


def _client_nonce(params: GroupParams, opts: ClientOptions) -> int:
    if opts.x is not None:
        return opts.x
    rng = random.Random(opts.seed)
    return sample_nonce(params, rng)


def _client_report(scheme: str, params: GroupParams, transcript: Transcript,
                   key: SessionKey, tally, flags) -> SessionReport:
    return SessionReport(scheme=scheme, params=params, transcript=transcript,
                         key_a=key, key_b=None, auth_a_ok=True, auth_b_ok=True,
                         counters=counters_from(tally, Tally(), transcript),
                         flags=["client-side view"] + list(flags))


def _connect_proposed(address, creds: Credentials, params: GroupParams,
                      opts: ClientOptions) -> Tuple[SessionKey, SessionReport]:
    msg1, client = proposed.prop_client_start(creds, params, opts.hash_spec,
                                              _client_nonce(params, opts))
    transcript = Transcript()
    with socket.create_connection(address, timeout=opts.timeout) as sock:
        rfile = sock.makefile("rb")
        _client_send(sock, Msg1Frame(q=params.q, g=params.g, id_a=msg1.id_a,
                                     t_a=msg1.t_a), transcript)
        msg2 = _client_recv(rfile, Msg2Frame, transcript)
        msg3 = proposed.prop_client_confirm(proposed.Msg2(t_b=msg2.t_b), client)
        _client_send(sock, Msg3Frame(d_a=msg3.d_a), transcript)
        msg4 = _client_recv(rfile, Msg4Frame, transcript)
        skip = opts.skip_server_auth or params.q > DESK_SCALE_BOUND
        key = proposed.prop_client_finish(proposed.Msg4(e_b=msg4.e_b), client,
                                          skip_server_auth=skip)
    report = _client_report(SCHEME_PROPOSED, params, transcript, key,
                            client.tally, client.flags)
    if skip:
        report.auth_a_ok = False
    return key, report


def _connect_lky(address, creds: Credentials, params: GroupParams,
                 opts: ClientOptions) -> Tuple[SessionKey, SessionReport]:
    rng = random.Random(opts.seed)
    for _ in range(64):
        nonce = opts.x if opts.x is not None else sample_nonce(params, rng)
        try:
            msg1, client = lky.lky_client_start(creds, params, opts.hash_spec,
                                                nonce)
            break
        except RetryNonce:
            if opts.x is not None:
                raise
    else:
        raise RetryNonce("could not pick a usable client nonce")
    transcript = Transcript()
    with socket.create_connection(address, timeout=opts.timeout) as sock:
        rfile = sock.makefile("rb")
        _client_send(sock, Msg1Frame(q=params.q, g=params.g, id_a=msg1.id_a,
                                     t_a=msg1.t_a_masked.as_int), transcript)
        resp = _client_recv(rfile, LkyMsg2Frame, transcript)
        if resp.t_b_masked >= 256 ** params.q_byte_len:
            raise MalformedFrame("masked value exceeds the group width")
        masked = lky.MaskedValue(
            resp.t_b_masked.to_bytes(params.q_byte_len, "big"))
        msg3, key = lky.lky_client_finish(
            lky.Msg2(t_b_masked=masked, d_b=resp.d_b), client)
        _client_send(sock, Msg3Frame(d_a=msg3.d_a), transcript)
        _client_recv(rfile, OkFrame, transcript)
    return key, _client_report(SCHEME_LKY, params, transcript, key,
                               client.tally, [])
