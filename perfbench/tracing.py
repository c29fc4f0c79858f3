"""Spans at pakelab's layer boundaries, and the per-layer metrics built from them.

The benchmark traces from outside: Tracer.install() replaces the public
functions and methods of each module with wrappers that record a span
(name, start, end, parent span, op id, a small note, the exception raised).
Callers import names directly (``from .core import mod_exp`` in lky,
proposed, attacks and harness), so a function wrapper is bound in every
pakelab module that holds the original object. Spans stay in memory and
are written out once, at the end of a run.

Times come from time.monotonic_ns(), which on Linux reads the one
system-wide CLOCK_MONOTONIC, so spans from the load generator and from the
server process can be compared (dispatch wait is measured that way).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import socket
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

# (span_id, parent_id, name, start_ns, end_ns, op, note, error)
Span = Tuple[int, int, str, int, int, object, object, Optional[str]]

_MODULES = ("pakelab.core", "pakelab.lky", "pakelab.proposed",
            "pakelab.transcript", "pakelab.harness", "pakelab.attacks",
            "pakelab.netio.frames", "pakelab.netio.store",
            "pakelab.netio.service", "pakelab.cli")


def _registration_flag(args, kwargs, result):
    return bool(kwargs.get("registration", args[4] if len(args) > 4 else False))


def _frame_type(args, kwargs, result):
    return type(args[0]).__name__


def _transcript_entry(args, kwargs, result):
    return [args[1], len(args[3])]          # record(self, direction, label, data)


def _store_rows(args, kwargs, result):
    return len(args[0])


def _error_code(args, kwargs, result):
    return args[2]                          # _reply_error(self, conn, code, ...)


def _local_port(args, kwargs, result):
    return result.getsockname()[1]


# module, attribute, span name, note
FUNCTIONS = (
    ("pakelab.core", "mod_exp", "core.mod_exp", _registration_flag),
    ("pakelab.core", "derive_verifier", "core.derive_verifier", None),
    ("pakelab.core", "validate_params", "core.validate_params", None),
    ("pakelab.lky", "lky_client_start", "lky.client_start", None),
    ("pakelab.lky", "lky_server_respond", "lky.server_respond", None),
    ("pakelab.lky", "lky_client_finish", "lky.client_finish", None),
    ("pakelab.lky", "lky_server_finish", "lky.server_finish", None),
    ("pakelab.proposed", "prop_client_start", "proposed.client_start", None),
    ("pakelab.proposed", "prop_server_respond", "proposed.server_respond", None),
    ("pakelab.proposed", "prop_client_confirm", "proposed.client_confirm", None),
    ("pakelab.proposed", "prop_server_finish", "proposed.server_finish", None),
    ("pakelab.proposed", "prop_client_finish", "proposed.client_finish", None),
    ("pakelab.harness", "run_honest_session", "harness.run_honest_session", None),
    ("pakelab.harness", "append_log_line", "harness.append_log_line", None),
    ("pakelab.attacks", "stolen_verifier_attack_lky",
     "attacks.stolen_verifier_lky", None),
    ("pakelab.attacks", "stolen_verifier_attack_proposed",
     "attacks.stolen_verifier_proposed", None),
    ("pakelab.netio.frames", "encode_frame", "netio.frames.encode_frame",
     _frame_type),
    ("pakelab.netio.frames", "decode_frame", "netio.frames.decode_frame", None),
    ("pakelab.netio.frames", "read_frame", "netio.frames.read_frame", None),
    ("pakelab.netio.service", "client_connect", "netio.service.client_connect",
     None),
    ("pakelab.netio.service", "client_register",
     "netio.service.client_register", None),
    ("pakelab.cli", "main", "cli.main", None),
)

# module, class, attribute, span name, note
METHODS = (
    ("pakelab.core", "HashSpec", "of_ints", "core.hash", None),
    ("pakelab.core", "DlogTable", "__init__", "core.dlog_table.build", None),
    ("pakelab.core", "DlogTable", "dlog", "core.dlog", None),
    ("pakelab.transcript", "Transcript", "record", "transcript.record",
     _transcript_entry),
    ("pakelab.netio.store", "VerifierStore", "records_for",
     "netio.store.records_for", _store_rows),
    ("pakelab.netio.store", "VerifierStore", "save", "netio.store.save",
     _store_rows),
    ("pakelab.netio.store", "VerifierStore", "load", "netio.store.load", None),
    ("pakelab.netio.service", "Service", "_reply_error",
     "netio.service.error_frame", _error_code),
    ("pakelab.netio.service", "Service", "serve_blocking",
     "netio.service.serve_blocking", None),
)


class Tracer:
    """Records spans from every thread of one process."""

    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    def set_op(self, op) -> None:
        """Tag the spans this thread records from now on with op."""
        self._local.op = op

    def wrap(self, name: str, fn: Callable, note: Optional[Callable] = None):
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            result = error = None
            start = time.monotonic_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.monotonic_ns()
                stack.pop()
                detail = note(args, kwargs, result) if note and error is None else None
                spans.append((span_id, parent, name, start, end,
                              getattr(local, "op", None), detail, error))

        return traced

    def install(self) -> None:
        modules = {name: importlib.import_module(name) for name in _MODULES}
        for module_name, attr, span_name, note in FUNCTIONS:
            original = getattr(modules[module_name], attr)
            wrapped = self.wrap(span_name, original, note)
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("pakelab")
                        and module.__dict__.get(attr) is original):
                    self._replace(module, attr, wrapped)
        for module_name, cls_name, attr, span_name, note in METHODS:
            cls = getattr(modules[module_name], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(span_name, raw.__func__, note))
            else:
                wrapped = self.wrap(span_name, raw, note)
            self._replace(cls, attr, wrapped)
        # Server side: each connection's spans carry the client's port as
        # their op id, which is how they are matched to the client's op.
        service_cls = modules["pakelab.netio.service"].Service
        traced_handle = self.wrap("netio.service.connection",
                                  service_cls.__dict__["_handle_connection"])

        def handle_connection(service, conn):
            self.set_op(conn.client_address[1])
            return traced_handle(service, conn)

        self._replace(service_cls, "_handle_connection", handle_connection)
        # The service opens client connections through socket.create_connection.
        self._replace(socket, "create_connection",
                      self.wrap("netio.service.connect", socket.create_connection,
                                _local_port))

    def _replace(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load_spans(path) -> List[Span]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(json.loads(line)) for line in fh]


# -- per-layer metrics ---------------------------------------------------------

# name -> unit; BENCHMARK.json lists the same names under per_layer.
LAYER_UNITS: Dict[str, str] = {
    "core.mod_exp.calls_per_op": "count",
    "core.mod_exp.us_per_call": "us",
    "core.mod_exp.share": "ratio",
    "core.derive_verifier.calls_per_op": "count",
    "proposed.client_unused_modexp_per_op": "count",
    "core.hash.calls_per_op": "count",
    "core.hash.us_per_call": "us",
    "core.dlog.lookups_per_op": "count",
    "core.dlog.us_per_call": "us",
    "core.dlog_table.build_s": "s",
    "core.validate_params_s": "s",
    "lky.client_start.self_us": "us",
    "lky.server_respond.self_us": "us",
    "lky.client_finish.self_us": "us",
    "lky.server_finish.self_us": "us",
    "lky.retry_nonce_ratio": "ratio",
    "proposed.client_start.self_us": "us",
    "proposed.server_respond.self_us": "us",
    "proposed.client_confirm.self_us": "us",
    "proposed.server_finish.self_us": "us",
    "proposed.client_finish.self_us": "us",
    "harness.run_honest_session.self_us": "us",
    "attacks.stolen_verifier_lky.self_us": "us",
    "attacks.stolen_verifier_proposed.self_us": "us",
    "transcript.bytes_per_op": "bytes",
    "transcript.messages_per_op": "count",
    "netio.frames.encode_frame.calls_per_frame_sent": "count",
    "netio.frames.encode_frame.us_per_call": "us",
    "netio.frames.read_frame.us_per_call": "us",
    "netio.frames.decode_frame.us_per_call": "us",
    "netio.store.records_for.us_per_call": "us",
    "netio.store.save.ms_per_call": "ms",
    "netio.store.rows": "count",
    "netio.store.load_s": "s",
    "cli.serve.startup_s": "s",
    "netio.service.connect_ms": "ms",
    "netio.service.dispatch_wait_ms": "ms",
    "netio.service.server_busy_ms_per_op": "ms",
    "netio.service.client_wait_ms_per_op": "ms",
    "harness.append_log_line.us_per_call": "us",
    "netio.service.error_frames_per_op": "count",
    "netio.service.error_frames_per_op.malformed-frame": "count",
    "netio.service.error_frames_per_op.param-mismatch": "count",
    "netio.service.error_frames_per_op.unknown-identity": "count",
    "netio.service.error_frames_per_op.auth-fail": "count",
    "netio.service.error_frames_per_op.version-mismatch": "count",
    "netio.service.error_frames_per_op.throttled": "count",
    "trace.ops_per_s_traced": "1/s",
    "trace.ops_per_s_untraced": "1/s",
    "trace.overhead_ratio": "ratio",
}

# Frame types the client sends; on TCP the other types arrive from the server.
_CLIENT_SENT_FRAMES = ("Msg1Frame", "Msg3Frame", "RegisterFrame")


class _Stats:
    """Calls, total and self time per span name, for one process's spans."""

    def __init__(self, spans: Iterable[Span] = ()):
        spans = list(spans)
        child_ns: Dict[int, int] = defaultdict(int)
        for span_id, parent, _, start, end, *_ in spans:
            child_ns[parent] += end - start
        self.spans = spans
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_ns: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        for span_id, _, name, start, end, *_ in spans:
            self.calls[name] += 1
            self.total_ns[name] += end - start
            self.self_ns[name] += end - start - child_ns.get(span_id, 0)

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span[2] == name]

    def mean_us(self, name: str, self_time: bool = False) -> float:
        calls = self.calls.get(name, 0)
        if not calls:
            return 0.0
        total = (self.self_ns if self_time else self.total_ns)[name]
        return total / calls / 1e3

    def __add__(self, other: "_Stats") -> "_Stats":
        """Both processes' counts; self times were taken per process."""
        both = _Stats()
        both.spans = self.spans + other.spans
        for attr in ("calls", "total_ns", "self_ns"):
            for source in (self, other):
                for name, value in getattr(source, attr).items():
                    getattr(both, attr)[name] += value
        return both


def layer_metrics(client_spans: List[Span], server_spans: List[Span],
                  setup_window: Tuple[int, int], loop_window: Tuple[int, int],
                  ops: int, op_time_ns: int, registers: int) -> Dict[str, float]:
    """Per-layer numbers from one traced run.

    client_spans come from the load generator, server_spans from the TCP
    server (empty in memory). The windows are (start, end) in monotonic ns
    of the set-up and of the timed loop. Every server span that starts
    before the loop belongs to set-up, and every later one to the loop: the
    server is stopped right after it, and it logs a session after the
    client has already returned. op_time_ns is the sum of the timed ops'
    latencies and registers the number of REGISTER ops.
    """
    lo, hi = loop_window
    setup = _Stats(s for s in client_spans
                   if setup_window[0] <= s[3] and s[4] <= setup_window[1])
    server_setup = _Stats(s for s in server_spans if s[3] < lo)
    client = _Stats(s for s in client_spans if lo <= s[3] and s[4] <= hi)
    server = _Stats(s for s in server_spans if lo <= s[3])
    both = client + server
    per_op = ops or 1

    m: Dict[str, float] = {}
    m["core.mod_exp.calls_per_op"] = both.calls["core.mod_exp"] / per_op
    m["core.mod_exp.us_per_call"] = both.mean_us("core.mod_exp")
    m["core.mod_exp.share"] = (both.total_ns["core.mod_exp"] / op_time_ns
                               if op_time_ns else 0.0)
    m["core.derive_verifier.calls_per_op"] = both.calls["core.derive_verifier"] / per_op
    start_ids = {s[0] for s in client.named("proposed.client_start")}
    m["proposed.client_unused_modexp_per_op"] = sum(
        1 for s in client.named("core.mod_exp")
        if s[6] and s[1] in start_ids) / per_op
    m["core.hash.calls_per_op"] = both.calls["core.hash"] / per_op
    m["core.hash.us_per_call"] = both.mean_us("core.hash")
    m["core.dlog.lookups_per_op"] = both.calls["core.dlog"] / per_op
    m["core.dlog.us_per_call"] = both.mean_us("core.dlog")
    builds = setup.named("core.dlog_table.build")
    m["core.dlog_table.build_s"] = (sum(s[4] - s[3] for s in builds) / len(builds)
                                    / 1e9 if builds else 0.0)
    m["core.validate_params_s"] = setup.total_ns.get("core.validate_params", 0) / 1e9
    for name in ("lky.client_start", "lky.server_respond", "lky.client_finish",
                 "lky.server_finish", "proposed.client_start",
                 "proposed.server_respond", "proposed.client_confirm",
                 "proposed.server_finish", "proposed.client_finish",
                 "harness.run_honest_session", "attacks.stolen_verifier_lky",
                 "attacks.stolen_verifier_proposed"):
        m[f"{name}.self_us"] = both.mean_us(name, self_time=True)
    nonce_steps = both.named("lky.client_start") + both.named("lky.server_respond")
    m["lky.retry_nonce_ratio"] = (sum(1 for s in nonce_steps if s[7] == "RetryNonce")
                                  / len(nonce_steps) if nonce_steps else 0.0)

    records = client.named("transcript.record")
    m["transcript.bytes_per_op"] = sum(s[6][1] for s in records) / per_op
    m["transcript.messages_per_op"] = len(records) / per_op
    encodes = client.named("netio.frames.encode_frame")
    if server_spans:
        sent = [s for s in encodes if s[6] in _CLIENT_SENT_FRAMES]
        frames_sent = sum(1 for s in records if s[6][0] == "A->B") + registers
    else:
        # in memory both parties are in this process: every frame is sent once
        sent, frames_sent = encodes, len(records)
    m["netio.frames.encode_frame.calls_per_frame_sent"] = (
        len(sent) / frames_sent if frames_sent else 0.0)
    m["netio.frames.encode_frame.us_per_call"] = both.mean_us("netio.frames.encode_frame")
    # On the client a read_frame span is mostly waiting for the server; that
    # wait is reported as client_wait_ms_per_op, so read_frame is the server's.
    m["netio.frames.read_frame.us_per_call"] = server.mean_us("netio.frames.read_frame")
    m["netio.frames.decode_frame.us_per_call"] = both.mean_us("netio.frames.decode_frame")

    m["netio.store.records_for.us_per_call"] = server.mean_us("netio.store.records_for")
    m["netio.store.save.ms_per_call"] = server.mean_us("netio.store.save") / 1e3
    rows = [s[6] for s in server.named("netio.store.records_for")
            + server.named("netio.store.save") if s[6] is not None]
    m["netio.store.rows"] = max(rows, default=0)
    m["netio.store.load_s"] = server_setup.total_ns.get("netio.store.load", 0) / 1e9
    mains = server_setup.named("cli.main")
    serving = server_setup.named("netio.service.serve_blocking")
    m["cli.serve.startup_s"] = ((serving[0][3] - mains[0][3]) / 1e9
                                if mains and serving else 0.0)
    m["netio.service.connect_ms"] = client.mean_us("netio.service.connect") / 1e3
    m["netio.service.dispatch_wait_ms"] = _dispatch_wait_ms(client, server)
    connections = server.total_ns.get("netio.service.connection", 0)
    server_reads = server.total_ns.get("netio.frames.read_frame", 0)
    m["netio.service.server_busy_ms_per_op"] = (connections - server_reads) / per_op / 1e6
    m["netio.service.client_wait_ms_per_op"] = (
        client.total_ns.get("netio.frames.read_frame", 0) / per_op / 1e6)
    m["harness.append_log_line.us_per_call"] = server.mean_us("harness.append_log_line")

    from pakelab.netio.frames import ERROR_NAMES
    errors = server.named("netio.service.error_frame")
    m["netio.service.error_frames_per_op"] = len(errors) / per_op
    for code, code_name in ERROR_NAMES.items():
        m[f"netio.service.error_frames_per_op.{code_name}"] = (
            sum(1 for s in errors if s[6] == code) / per_op)
    return m


def _dispatch_wait_ms(client: _Stats, server: _Stats) -> float:
    """Client connect returns -> server's first read_frame on that connection."""
    connected: Dict[int, List[int]] = defaultdict(list)
    for span in sorted(client.named("netio.service.connect"), key=lambda s: s[4]):
        connected[span[6]].append(span[4])
    connection_of = {s[0]: s[5] for s in server.named("netio.service.connection")}
    first_read: Dict[int, int] = {}
    for span in server.named("netio.frames.read_frame"):
        if span[1] in connection_of:
            first_read[span[1]] = min(first_read.get(span[1], span[3]), span[3])
    waits = []
    for connection_id, read_start in sorted(first_read.items(), key=lambda kv: kv[1]):
        ends = connected.get(connection_of[connection_id])
        if ends:
            waits.append(read_start - ends.pop(0))
    return sum(waits) / len(waits) / 1e6 if waits else 0.0
