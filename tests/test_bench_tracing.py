"""The traced benchmark run's hooks still reach pakelab.

perfbench/tracing.py replaces functions and methods by name, and tags each
server connection with the client's port; a rename in pakelab, or a server
that stops dispatching through those names, would otherwise surface only
when the traced benchmark runs.
"""

import importlib
import importlib.util
import socket
import time
from pathlib import Path

import pytest

from pakelab.core import (
    SCHEME_LKY,
    SCHEME_PROPOSED,
    TOY_CREDS,
    TOY_PARAMS,
    TOYSUM,
    Credentials,
    GroupParams,
    HashSpec,
    VerifierRecord,
    derive_verifier,
)
from pakelab.errors import RemoteError
from pakelab.harness import Scenario, run_honest_session
from pakelab.netio import service as service_module
from pakelab.netio.frames import (
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
    read_frame,
)
from pakelab.netio.service import ClientOptions, ServeConfig, Service
from pakelab.netio.store import VerifierStore

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_traced_run_wraps_resolves():
    tracing = _tracing()
    for module_name, attr, *_ in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), \
            f"{module_name}.{attr}"
    for module_name, cls_name, attr, *_ in tracing.METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        assert attr in cls.__dict__, f"{module_name}.{cls_name}.{attr}"
    assert "_handle_connection" in Service.__dict__


def _traced_toy_login(tmp_path):
    """One traced TCP login on the toy group: (key, spans by name)."""
    spec = HashSpec(TOYSUM)
    store = VerifierStore()
    store.add(VerifierRecord(id_a=9, id_b=12,
                             v=derive_verifier(TOY_CREDS, TOY_PARAMS, spec)))
    store.save(tmp_path / "verifiers.tsv")
    config = ServeConfig(params=TOY_PARAMS, store_path=tmp_path / "verifiers.tsv",
                         hash_spec=spec, y_override=4)
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        with Service(config) as service:
            # through the module, as the load generator calls it
            key, _ = service_module.client_connect(
                service.address, TOY_CREDS, TOY_PARAMS,
                ClientOptions(hash_spec=spec, x=3))
            # the connection span ends just after the final frame is written
            deadline = time.monotonic() + 5.0
            while (not any(s[2] == "netio.service.connection" for s in tracer.spans)
                   and time.monotonic() < deadline):
                time.sleep(0.01)
    finally:
        tracer.uninstall()

    def named(name):
        return [s for s in tracer.spans if s[2] == name]

    return key, named


def test_the_traced_server_tags_each_connection_with_the_client_port(tmp_path):
    key, named = _traced_toy_login(tmp_path)
    assert key.value == 9
    # (span_id, parent_id, name, start_ns, end_ns, op, note, error)
    [connect] = named("netio.service.connect")
    [connection] = named("netio.service.connection")
    [client] = named("netio.service.client_connect")
    assert connection[5] == connect[6]          # op: the client's local port
    server_reads = [s for s in named("netio.frames.read_frame")
                    if s[1] != client[0]]
    assert len(server_reads) == 2               # MSG1, MSG3
    assert all(s[1] == connection[0] and s[5] == connect[6] for s in server_reads)


def test_the_traced_client_records_a_login_and_not_a_register(tmp_path):
    # the traced run checks each op's transcript.record count against the
    # cost table: 4 messages per login, 0 per REGISTER
    _, named = _traced_toy_login(tmp_path)
    [client] = named("netio.service.client_connect")

    def in_client(name):
        return [s for s in named(name) if s[1] == client[0]]

    assert len(in_client("transcript.record")) == 4
    assert len(in_client("netio.frames.read_frame")) == 2      # MSG2, MSG4
    assert [s[6] for s in in_client("netio.frames.encode_frame")] == [
        "Msg1Frame", "Msg3Frame"]

    config = ServeConfig(params=TOY_PARAMS, store_path=tmp_path / "enroll.tsv",
                         hash_spec=HashSpec(TOYSUM), enroll=True)
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        with Service(config) as service:
            service_module.client_register(
                service.address, VerifierRecord(id_a=20, id_b=12, v=7))
    finally:
        tracer.uninstall()
    [register] = [s for s in tracer.spans
                  if s[2] == "netio.service.client_register"]
    in_register = [s[2] for s in tracer.spans if s[1] == register[0]]
    assert "transcript.record" not in in_register
    assert in_register.count("netio.frames.encode_frame") == 1
    assert in_register.count("netio.frames.read_frame") == 1


def test_a_traced_login_takes_each_server_step_once_in_its_connection(tmp_path):
    _, named = _traced_toy_login(tmp_path)
    [connection] = named("netio.service.connection")
    for step in ("proposed.server_respond", "proposed.server_finish"):
        [span] = named(step)
        assert span[1] == connection[0] and span[7] is None


@pytest.mark.parametrize("scheme, steps", [
    (SCHEME_LKY, ("lky.client_start", "lky.server_respond",
                  "lky.client_finish", "lky.server_finish")),
    (SCHEME_PROPOSED, ("proposed.client_start", "proposed.server_respond",
                       "proposed.client_confirm", "proposed.server_finish",
                       "proposed.client_finish")),
])
def test_a_traced_in_memory_session_takes_each_step_once(scheme, steps):
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        report = run_honest_session(
            Scenario(scheme=scheme, hash_spec=HashSpec(TOYSUM), x=3, y=4))
    finally:
        tracer.uninstall()
    assert report.error is None
    step_spans = [s[2] for s in tracer.spans if s[2] in steps]
    assert sorted(step_spans) == sorted(steps)


def test_a_traced_modp2048_op_records_each_exponentiation_once(tmp_path,
                                                              monkeypatch,
                                                              exponent_bits):
    # the server's pairs go through core.mod_exp_each, whose pool threads call
    # core.mod_exp too; their spans count like the caller's
    monkeypatch.syspath_prepend(str(TRACING.parent.parent))
    from perfbench.workloads import InMemModp2048
    workload = InMemModp2048(seed=1, work_dir=tmp_path)
    workload.setup()
    exponent_bits.clear()
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        record = workload.op(0, 0)
    finally:
        tracer.uninstall()
    assert not record.failed
    spans = [s for s in tracer.spans if s[2] == "core.mod_exp"]
    assert len(spans) == len(exponent_bits) == 23       # calls_per_op


def _refused_code(call):
    try:
        call()
    except RemoteError as exc:
        return exc.code
    raise AssertionError("the call was not refused")


def _raw_reply_code(address, payload: bytes):
    with (socket.create_connection(address, timeout=5.0) as sock,
          sock.makefile("rb") as rfile):
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        frame, _ = read_frame(rfile)
    assert isinstance(frame, ErrorFrame)
    return frame.code


def test_every_error_frame_a_client_gets_is_one_traced_error_frame(tmp_path):
    spec = HashSpec(TOYSUM)
    options = ClientOptions(hash_spec=spec, x=3)
    ambiguous = Credentials(id_a=10, id_b=12, password=3)
    store = VerifierStore()
    store.add(VerifierRecord(id_a=9, id_b=12,
                             v=derive_verifier(TOY_CREDS, TOY_PARAMS, spec)))
    store.add(VerifierRecord(id_a=10, id_b=12, v=7))
    store.add(VerifierRecord(id_a=10, id_b=15, v=7))
    store.save(tmp_path / "toy.tsv")
    q3 = GroupParams(q=3, g=2)          # every baseline nonce is degenerate
    store = VerifierStore()
    store.add(VerifierRecord(id_a=9, id_b=12, v=2))
    store.save(tmp_path / "q3.tsv")
    toy = ServeConfig(params=TOY_PARAMS, store_path=tmp_path / "toy.tsv",
                      hash_spec=spec, y_override=4, max_fail=1, enroll=True)
    q3_lky = ServeConfig(params=q3, store_path=tmp_path / "q3.tsv",
                         hash_spec=spec, insecure_lky=True)
    bad_version = bytearray(encode_frame(OkFrame()))
    bad_version[2] = 0x02
    connect = service_module.client_connect
    expected = [ERR_PARAM_MISMATCH, ERR_UNKNOWN_IDENTITY, ERR_UNKNOWN_IDENTITY,
                ERR_MALFORMED, ERR_VERSION_MISMATCH, ERR_MALFORMED,
                ERR_PARAM_MISMATCH, ERR_AUTH_FAIL, ERR_THROTTLED,
                ERR_AUTH_FAIL, ERR_AUTH_FAIL]
    received = []
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        with Service(toy) as service:
            address = service.address
            received += [
                _refused_code(lambda: connect(
                    address, TOY_CREDS, GroupParams(q=29, g=2), options)),
                _refused_code(lambda: connect(
                    address, Credentials(id_a=99, id_b=12, password=10),
                    TOY_PARAMS, options)),
                _refused_code(lambda: connect(address, ambiguous, TOY_PARAMS,
                                              options)),
                _raw_reply_code(address, encode_frame(OkFrame())),
                _raw_reply_code(address, bytes(bad_version)),
                _raw_reply_code(address, encode_frame(
                    Msg1Frame(q=13, g=6, id_a=9, t_a=13))),
                _raw_reply_code(address, encode_frame(
                    RegisterFrame(id_a=20, id_b=12, v=13))),
                _refused_code(lambda: connect(
                    address, Credentials(id_a=9, id_b=12, password=11),
                    TOY_PARAMS, ClientOptions(hash_spec=spec, x=5))),
                _refused_code(lambda: connect(address, TOY_CREDS, TOY_PARAMS,
                                              options)),
            ]
        with Service(q3_lky) as service:
            received += [
                _refused_code(lambda: service_module.client_register(
                    service.address, VerifierRecord(id_a=20, id_b=12, v=2))),
                _raw_reply_code(service.address, encode_frame(
                    Msg1Frame(q=3, g=2, id_a=9, t_a=3))),
            ]
        # a span ends just after its frame is written, so give the last
        # handler the moment it may need to record it
        deadline = time.monotonic() + 5.0
        while (len([s for s in tracer.spans if s[2] == "netio.service.error_frame"])
               < len(expected) and time.monotonic() < deadline):
            time.sleep(0.01)
    finally:
        tracer.uninstall()
    assert received == expected
    codes = [s[6] for s in tracer.spans if s[2] == "netio.service.error_frame"]
    assert sorted(codes) == sorted(expected)
