"""TCP service: loopback sessions, error codes, throttling, enrollment, logs."""

import errno
import gc
import json
import logging
import socket
import sys
import threading
import time
import warnings

import pytest

from pakelab.cli import main as cli_main
from pakelab.core import (
    DIGEST256,
    Credentials,
    GroupParams,
    HashSpec,
    NAMED_GROUPS,
    NAMED_NONCE_BITS,
    SCHEME_LKY,
    SCHEME_PROPOSED,
    TOY_CREDS,
    TOY_PARAMS,
    TOYSUM,
    VerifierRecord,
    derive_verifier,
    generate_params,
)
from pakelab.drivers import proposed_server, run_pair
from pakelab.errors import (
    AuthFail,
    MalformedFrame,
    RemoteError,
    RetryNonce,
    StoreParseError,
)
from pakelab.netio.frames import (
    ERR_AUTH_FAIL,
    ERR_MALFORMED,
    ERR_PARAM_MISMATCH,
    ERR_THROTTLED,
    ERR_UNKNOWN_IDENTITY,
    ERR_VERSION_MISMATCH,
    ErrorFrame,
    Msg1Frame,
    Msg2Frame,
    Msg3Frame,
    OkFrame,
    RegisterFrame,
    encode_frame,
    read_frame,
)
from pakelab.harness import Scenario, counters_from, run_honest_session
from pakelab.netio import service as service_module
from pakelab.netio.service import (
    ClientOptions,
    ServeConfig,
    Service,
    client_connect,
    client_register,
    parse_address,
)
from pakelab.netio.store import VerifierStore
from pakelab.transcript import DIR_AB

TOYSUM_SPEC = HashSpec(TOYSUM)
WRONG_CREDS = Credentials(id_a=9, id_b=12, password=11)


def write_toy_store(path, extra=()):
    store = VerifierStore()
    store.add(VerifierRecord(id_a=9, id_b=12,
                             v=derive_verifier(TOY_CREDS, TOY_PARAMS,
                                               TOYSUM_SPEC)))
    for record in extra:
        store.add(record)
    store.save(path)
    return path


def toy_config(tmp_path, **overrides):
    store_path = tmp_path / "verifiers.tsv"
    if not store_path.exists():
        write_toy_store(store_path)
    defaults = dict(params=TOY_PARAMS, store_path=store_path,
                    hash_spec=TOYSUM_SPEC, y_override=4)
    defaults.update(overrides)
    return ServeConfig(**defaults)


def toy_options(**overrides):
    defaults = dict(hash_spec=TOYSUM_SPEC, x=3)
    defaults.update(overrides)
    return ClientOptions(**defaults)


def raw_exchange(address, payload: bytes):
    with socket.create_connection(address, timeout=5.0) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)      # half-close so short payloads EOF
        frame, _ = read_frame(sock.makefile("rb"))
        return frame


# -- address parsing -----------------------------------------------------------


def test_parse_address():
    assert parse_address("10.0.0.1:9000") == ("10.0.0.1", 9000)
    assert parse_address(":123") == ("127.0.0.1", 123)
    with pytest.raises(ValueError):
        parse_address("localhost")
    with pytest.raises(ValueError):
        parse_address("host:port")
    assert parse_address("127.0.0.1:65535") == ("127.0.0.1", 65535)
    for text in ("127.0.0.1:65536", "127.0.0.1:99999", ":1000000"):
        with pytest.raises(ValueError, match="out of range"):
            parse_address(text)


def test_parse_address_takes_only_ascii_digits_as_the_port():
    # str.isdigit() passes both; int() reads the Arabic-Indic digits as 8080
    for text in ("127.0.0.1:\u0668\u0660\u0668\u0660", "127.0.0.1:8\u00b2"):
        with pytest.raises(ValueError, match="must be host:port"):
            parse_address(text)


# -- happy paths -----------------------------------------------------------------


def test_proposed_loopback_agrees_on_the_toy_key(tmp_path):
    server_log = tmp_path / "server.jsonl"
    client_log = tmp_path / "client.jsonl"
    with Service(toy_config(tmp_path, log_path=server_log)) as service:
        key, report = client_connect(service.address, TOY_CREDS, TOY_PARAMS,
                                     toy_options(log_path=client_log))
    assert key.value == 9
    assert report.auth_a_ok and report.auth_b_ok
    assert "client-side view" in report.flags

    server_obj = json.loads(server_log.read_text().splitlines()[-1])
    client_obj = json.loads(client_log.read_text().splitlines()[-1])
    assert server_obj["key_b"] == "9"
    assert client_obj["key_a"] == "9"
    # both ends observed the identical byte stream
    assert ([e["frame"] for e in server_obj["transcript"]]
            == [e["frame"] for e in client_obj["transcript"]])


def test_lky_loopback(tmp_path):
    log = tmp_path / "server.jsonl"
    with Service(toy_config(tmp_path, insecure_lky=True,
                          log_path=log)) as service:
        key, report = client_connect(service.address, TOY_CREDS, TOY_PARAMS,
                                     toy_options(scheme=SCHEME_LKY))
    assert key.value == 1
    assert [e.label for e in report.transcript] == ["msg1", "lky-msg2",
                                                    "msg3", "ok"]
    logged = json.loads(log.read_text().splitlines()[-1])
    assert logged["scheme"] == "lky"
    assert logged["key_b"] == "1"


def test_sequential_sessions_share_one_service(tmp_path):
    with Service(toy_config(tmp_path)) as service:
        for _ in range(3):
            key, _ = client_connect(service.address, TOY_CREDS, TOY_PARAMS,
                                    toy_options())
            assert key.value == 9


def test_parallel_sessions(tmp_path):
    keys = []
    errors = []

    def one_session(service):
        try:
            key, _ = client_connect(service.address, TOY_CREDS, TOY_PARAMS,
                                    toy_options())
            keys.append(key.value)
        except Exception as exc:           # collected, not swallowed
            errors.append(exc)

    with Service(toy_config(tmp_path)) as service:
        threads = [threading.Thread(target=one_session, args=(service,))
                   for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    assert errors == []
    assert keys == [9, 9, 9, 9]


def test_a_login_above_the_desk_bound_leaves_the_server_unchecked(tmp_path,
                                                                  capsys):
    params = generate_params(24, 3)
    store_path = tmp_path / "verifiers.tsv"
    store = VerifierStore()
    store.add(VerifierRecord(id_a=9, id_b=12, v=derive_verifier(
        TOY_CREDS, params, TOYSUM_SPEC)))
    store.save(store_path)
    group = tmp_path / "group24.params"
    group.write_text(f"{params.q}\n{params.g}\n")
    config = ServeConfig(params=params, store_path=store_path,
                         hash_spec=TOYSUM_SPEC, y_override=4321)
    with Service(config) as service:
        key, report = client_connect(service.address, TOY_CREDS, params,
                                     toy_options())
        host, port = service.address
        capsys.readouterr()
        assert cli_main(["connect", "--addr", f"{host}:{port}",
                         "--params", str(group), "--hash", "toysum",
                         "--id-a", "9", "--id-b", "12", "--password", "10",
                         "--x", "3"]) == 0
    out, err = capsys.readouterr()
    assert not report.auth_a_ok and report.auth_b_ok
    assert "server unauthenticated" in report.flags
    assert f"session key: {key.value:x}" in out
    assert "warning: server was not authenticated" in err


def test_a_seeded_login_on_a_named_group_uses_short_nonces(tmp_path,
                                                          exponent_bits):
    params, spec = NAMED_GROUPS["modp2048"], HashSpec(DIGEST256)
    creds = Credentials(id_a=9, id_b=12, password=10)
    store_path = tmp_path / "verifiers.tsv"
    store = VerifierStore()
    store.add(VerifierRecord(id_a=9, id_b=12,
                             v=derive_verifier(creds, params, spec)))
    store.save(store_path)
    exponent_bits.clear()
    config = ServeConfig(params=params, store_path=store_path, hash_spec=spec,
                         rng_seed=3)
    with Service(config) as service:
        key, report = client_connect(service.address, creds, params,
                                     ClientOptions(hash_spec=spec, seed=4))
    assert 0 < key.value < params.q and report.auth_b_ok
    # g^x, v^y, T_A^y and E_B = T_B^y are by a nonce; only T_B^(x * h^-1 mod
    # q-1) is not
    *short, full = sorted(exponent_bits)
    assert len(short) == 4 and full > 2000
    assert max(short) <= NAMED_NONCE_BITS


# -- the session's log line precedes its final frame --------------------------


@pytest.mark.parametrize("scheme, creds, x, key_b", [
    ("proposed", TOY_CREDS, 3, "9"),
    (SCHEME_LKY, TOY_CREDS, 3, "1"),
    ("proposed", WRONG_CREDS, 5, None),
])
def test_session_is_logged_before_the_client_returns(tmp_path, scheme, creds,
                                                      x, key_b):
    log = tmp_path / "server.jsonl"
    config = toy_config(tmp_path, insecure_lky=scheme == SCHEME_LKY,
                        log_path=log, max_fail=100)
    with Service(config) as service:
        for n in range(1, 21):
            try:
                client_connect(service.address, creds, TOY_PARAMS,
                               toy_options(scheme=scheme, x=x))
                assert key_b is not None
            except RemoteError as exc:
                assert key_b is None and exc.code == ERR_AUTH_FAIL
            # read with the service still up: the line must already be there
            lines = log.read_text().splitlines()
            assert len(lines) == n
            logged = json.loads(lines[-1])
            assert logged["key_b"] == key_b
            assert logged["transcript"][-1]["label"] == (
                "error" if key_b is None else
                "ok" if scheme == SCHEME_LKY else "msg4")


def test_each_log_line_is_the_sorted_json_of_its_record(tmp_path, monkeypatch):
    logged = []
    write_line = Service._log_line

    def recording_log_line(self, obj):
        logged.append(obj)
        write_line(self, obj)

    monkeypatch.setattr(Service, "_log_line", recording_log_line)
    log = tmp_path / "server.jsonl"
    with Service(toy_config(tmp_path, enroll=True, log_path=log)) as service:
        client_register(service.address, VerifierRecord(id_a=20, id_b=12, v=7))
        client_connect(service.address, TOY_CREDS, TOY_PARAMS, toy_options())
        with pytest.raises(RemoteError):
            client_connect(service.address, WRONG_CREDS, TOY_PARAMS,
                           toy_options(x=5))
    assert [obj["kind"] for obj in logged] == ["register", "session", "session"]
    assert log.read_text() == "".join(json.dumps(obj, sort_keys=True) + "\n"
                                      for obj in logged)


def test_the_line_is_on_disk_when_the_final_frame_arrives(tmp_path,
                                                          monkeypatch):
    log = tmp_path / "server.jsonl"
    client_recv = service_module._client_recv
    lines_at_final_frame = []

    def checking_recv(conn):
        frame = client_recv(conn)
        if conn.transcript.messages == 4:
            lines_at_final_frame.append(log.read_bytes().count(b"\n"))
        return frame

    monkeypatch.setattr(service_module, "_client_recv", checking_recv)
    with Service(toy_config(tmp_path, log_path=log)) as service:
        for _ in range(5):
            client_connect(service.address, TOY_CREDS, TOY_PARAMS, toy_options())
    assert lines_at_final_frame == [1, 2, 3, 4, 5]


def test_a_service_and_a_client_sharing_a_log_write_whole_lines(tmp_path):
    log = tmp_path / "shared.jsonl"
    errors = []

    def login(n):
        try:
            for _ in range(n):
                key, _ = client_connect(service.address, TOY_CREDS, TOY_PARAMS,
                                        toy_options(log_path=log))
                assert key.value == 9
        except Exception as exc:            # reported below, in the main thread
            errors.append(exc)

    with Service(toy_config(tmp_path, log_path=log)) as service:
        threads = [threading.Thread(target=login, args=(8,)) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    assert errors == []
    text = log.read_text()
    assert text.endswith("\n")
    views = [json.loads(line)["flags"][0] for line in text.splitlines()]
    assert sorted(views) == ["client-side view"] * 24 + ["server-side view"] * 24


def test_stop_closes_the_held_log(tmp_path):
    service = Service(toy_config(tmp_path, log_path=tmp_path / "server.jsonl"))
    handle = service._log_file
    service.start()
    client_connect(service.address, TOY_CREDS, TOY_PARAMS, toy_options())
    assert not handle.closed
    service.stop()
    assert handle.closed
    # a service that never started closes its log too
    service = Service(toy_config(tmp_path, log_path=tmp_path / "server.jsonl"))
    handle = service._log_file
    service.stop()
    assert handle.closed


def test_a_session_that_ends_after_stop_keeps_its_line_and_final_frame(
        tmp_path, monkeypatch, caplog):
    caplog.set_level(logging.INFO, logger="pakelab.netio")
    log = tmp_path / "server.jsonl"
    service = Service(toy_config(tmp_path, log_path=log))
    record = service_module._Connection.record

    def record_stopping_before_msg3(conn, frame):
        if conn.sends == DIR_AB and conn.transcript.messages == 2:
            service.stop()              # closes the log under this session
        return record(conn, frame)

    monkeypatch.setattr(service_module._Connection, "record",
                        record_stopping_before_msg3)
    service.start()
    try:
        key, report = client_connect(service.address, TOY_CREDS, TOY_PARAMS,
                                     toy_options())
    finally:
        service.stop()
    assert key.value == 9 and report.transcript.messages == 4
    assert json.loads(log.read_text())["key_b"] == "9"
    assert not [r for r in caplog.records if r.exc_info or r.levelno >= logging.ERROR]


def test_a_service_whose_bind_fails_leaves_no_open_log(tmp_path, monkeypatch):
    opened = []

    def recording_open(*args, **kwargs):
        handle = open(*args, **kwargs)
        opened.append(handle)
        return handle

    monkeypatch.setattr(service_module, "open", recording_open, raising=False)
    with socket.create_server(("127.0.0.1", 0)) as taken:
        config = toy_config(tmp_path, listen=taken.getsockname(),
                            log_path=tmp_path / "server.jsonl")
        with pytest.raises(OSError):
            Service(config)
    assert len(opened) == 1 and opened[0].closed


def test_a_pinned_client_nonce_builds_no_random(tmp_path, monkeypatch):
    with Service(toy_config(tmp_path)) as service:
        monkeypatch.setattr(service_module.random, "Random",
                            lambda *args: pytest.fail("built a Random"))
        key, _ = client_connect(service.address, TOY_CREDS, TOY_PARAMS,
                                toy_options(x=3))
    assert key.value == 9


def test_seeded_logins_keep_their_transcript_bytes(tmp_path):
    params, spec = generate_params(16, 7), HashSpec(DIGEST256)
    creds = Credentials(id_a=9, id_b=12, password=10)
    store_path = tmp_path / "verifiers.tsv"
    store = VerifierStore()
    store.add(VerifierRecord(id_a=9, id_b=12,
                             v=derive_verifier(creds, params, spec)))
    store.save(store_path)
    config = ServeConfig(params=params, store_path=store_path, hash_spec=spec,
                         rng_seed=3)
    with Service(config) as service:
        sessions = [client_connect(service.address, creds, params,
                                   ClientOptions(hash_spec=spec, seed=seed))
                    for seed in (1, 2)]
    assert [(key.value, [e.hex for e in report.transcript])
            for key, report in sessions] == [
        (25177, ["504b01020002f2a700010700010900021b46", "504b01030002b7e7",
                 "504b0104000173", "504b01050002db5f"]),
        (1781, ["504b01020002f2a700010700010900029b33", "504b01030002d69b",
                "504b01040002c312", "504b010500024ff7"]),
    ]


def test_client_encodes_each_sent_frame_once(tmp_path, monkeypatch):
    client_encodes, server_encodes = [], []

    def counting_encode(frame):
        on_client = threading.current_thread() is threading.main_thread()
        (client_encodes if on_client else server_encodes).append(
            type(frame).__name__)
        return encode_frame(frame)

    monkeypatch.setattr(service_module, "encode_frame", counting_encode)
    with Service(toy_config(tmp_path)) as service:
        key, report = client_connect(service.address, TOY_CREDS, TOY_PARAMS,
                                     toy_options())
    assert key.value == 9
    # each end encodes only the frames it sends, each once
    assert client_encodes == ["Msg1Frame", "Msg3Frame"]
    assert server_encodes == ["Msg2Frame", "Msg4Frame"]
    assert report.transcript.bytes_on_wire == 37


def test_server_logs_received_frames_as_the_bytes_that_arrived(tmp_path):
    # the client's two frames, sent over a raw socket in small pieces
    session = run_honest_session(Scenario(scheme="proposed", hash_spec=TOYSUM_SPEC,
                                          x=3, y=4))
    sent = [e.data for e in session.transcript if e.direction == "A->B"]
    log = tmp_path / "server.jsonl"
    received = []
    with Service(toy_config(tmp_path, log_path=log)) as service:
        with socket.create_connection(service.address, timeout=5.0) as sock:
            rfile = sock.makefile("rb")
            for data in sent:
                for i in range(0, len(data), 3):
                    sock.sendall(data[i:i + 3])
                frame, raw = read_frame(rfile)
                assert not isinstance(frame, ErrorFrame)
                received.append(raw)
    logged = json.loads(log.read_text().splitlines()[-1])["transcript"]
    assert [(e["direction"], bytes.fromhex(e["frame"])) for e in logged] == [
        ("A->B", sent[0]), ("B->A", received[0]),
        ("A->B", sent[1]), ("B->A", received[1])]


# -- refusal codes ------------------------------------------------------------------


def test_wrong_password_is_refused(tmp_path):
    with Service(toy_config(tmp_path)) as service:
        with pytest.raises(RemoteError) as exc:
            client_connect(service.address, WRONG_CREDS, TOY_PARAMS,
                           toy_options(x=5))
    assert exc.value.code == ERR_AUTH_FAIL
    assert "consecutive failures: 1" in str(exc.value)


def test_throttling_after_repeated_failures(tmp_path):
    with Service(toy_config(tmp_path, max_fail=3)) as service:
        for n in (1, 2, 3):
            with pytest.raises(RemoteError) as exc:
                client_connect(service.address, WRONG_CREDS, TOY_PARAMS,
                               toy_options(x=5))
            assert exc.value.code == ERR_AUTH_FAIL
            assert f"consecutive failures: {n}" in str(exc.value)
        # now even the honest client is locked out
        with pytest.raises(RemoteError) as exc:
            client_connect(service.address, TOY_CREDS, TOY_PARAMS,
                           toy_options())
        assert exc.value.code == ERR_THROTTLED


def test_success_resets_the_failure_counter(tmp_path):
    with Service(toy_config(tmp_path, max_fail=3)) as service:
        for _ in range(2):
            with pytest.raises(RemoteError):
                client_connect(service.address, WRONG_CREDS, TOY_PARAMS,
                               toy_options(x=5))
        key, _ = client_connect(service.address, TOY_CREDS, TOY_PARAMS,
                                toy_options())
        assert key.value == 9
        with pytest.raises(RemoteError) as exc:
            client_connect(service.address, WRONG_CREDS, TOY_PARAMS,
                           toy_options(x=5))
        assert "consecutive failures: 1" in str(exc.value)


MSG1_TOY = encode_frame(Msg1Frame(q=13, g=6, id_a=9, t_a=8))     # x = 3
WRONG_MSG3_TOY = encode_frame(Msg3Frame(d_a=2))                   # honest: 1


def test_concurrent_logins_for_one_identity_are_charged_at_msg1(tmp_path):
    with Service(toy_config(tmp_path, max_fail=5)) as service:
        socks = [socket.create_connection(service.address, timeout=5.0)
                 for _ in range(20)]
        rfiles = [sock.makefile("rb") for sock in socks]
        try:
            for sock in socks:
                sock.sendall(MSG1_TOY)
            replies = [read_frame(rfile)[0] for rfile in rfiles]
            admitted = [(sock, rfile) for sock, rfile, reply
                        in zip(socks, rfiles, replies)
                        if isinstance(reply, Msg2Frame)]
            refused = [reply for reply in replies
                       if not isinstance(reply, Msg2Frame)]
            assert len(admitted) == 5
            assert refused == [ErrorFrame(
                code=ERR_THROTTLED,
                detail="0 consecutive failures and 5 logins in flight for id_a=9",
            )] * 15
            # each admitted login has its guess judged, and no more
            for sock, rfile in admitted:
                sock.sendall(WRONG_MSG3_TOY)
                assert read_frame(rfile)[0].code == ERR_AUTH_FAIL
        finally:
            for sock, rfile in zip(socks, rfiles):
                rfile.close()
                sock.close()
        with pytest.raises(RemoteError) as exc:
            client_connect(service.address, TOY_CREDS, TOY_PARAMS,
                           toy_options())
    assert exc.value.code == ERR_THROTTLED
    assert exc.value.detail == "5 consecutive failures for id_a=9"


def test_a_login_that_hangs_up_after_msg2_frees_its_charge(tmp_path):
    with Service(toy_config(tmp_path, max_fail=1)) as service:
        with (socket.create_connection(service.address, timeout=5.0) as sock,
              sock.makefile("rb") as rfile):
            sock.sendall(MSG1_TOY)
            assert isinstance(read_frame(rfile)[0], Msg2Frame)
            sock.shutdown(socket.SHUT_WR)
            assert rfile.read(1) == b""         # the server has ended it
        key, _ = client_connect(service.address, TOY_CREDS, TOY_PARAMS,
                                toy_options())
    assert key.value == 9


@pytest.mark.parametrize("scheme", [SCHEME_PROPOSED, SCHEME_LKY])
def test_msg3_sent_again_after_the_final_frame_reads_eof(tmp_path, scheme):
    msg1, msg3 = [e.data for e in run_pair(scheme, TOY_CREDS, TOY_PARAMS,
                                           TOYSUM_SPEC, 3, 4).transcript
                  if e.direction == "A->B"]
    log = tmp_path / "server.jsonl"
    config = toy_config(tmp_path, insecure_lky=scheme == SCHEME_LKY,
                        log_path=log)
    with Service(config) as service:
        with (socket.create_connection(service.address, timeout=5.0) as sock,
              sock.makefile("rb") as rfile):
            sock.sendall(msg1)
            assert not isinstance(read_frame(rfile)[0], ErrorFrame)
            sock.sendall(msg3)
            final, _ = read_frame(rfile)
            assert not isinstance(final, ErrorFrame)
            # wait for the server's end of the connection, so the resent
            # frame cannot race its close
            assert sock.recv(1, socket.MSG_PEEK) == b""
            sock.sendall(msg3)
            assert read_frame(rfile) is None
    [line] = log.read_text().splitlines()
    assert json.loads(line)["key_b"] is not None


@pytest.mark.parametrize("scheme", [SCHEME_PROPOSED, SCHEME_LKY])
def test_a_session_refused_at_d_a_counts_two_server_modexps(tmp_path, scheme):
    # d_A changed in flight stands for a wrong password's: an lky client with
    # one refuses MSG2 itself. The server has raised v and T_A to y by then,
    # and proposed's E_B is never computed.
    def wrong_d_a(frame):
        return Msg3Frame(d_a=frame.d_a + 1) if isinstance(frame, Msg3Frame) else frame

    run = run_pair(scheme, TOY_CREDS, TOY_PARAMS, TOYSUM_SPEC, 3, 4, wire=wrong_d_a)
    assert run.rejected_by == "server" and isinstance(run.error, AuthFail)
    in_memory = counters_from(run.client.tally, run.server.tally, run.transcript)
    assert in_memory.modexp_server == 2
    msg1, msg3 = [e.data for e in run.transcript if e.direction == DIR_AB]
    log = tmp_path / "server.jsonl"
    config = toy_config(tmp_path, insecure_lky=scheme == SCHEME_LKY,
                        log_path=log)
    with Service(config) as service:
        with (socket.create_connection(service.address, timeout=5.0) as sock,
              sock.makefile("rb") as rfile):
            sock.sendall(msg1)
            assert not isinstance(read_frame(rfile)[0], ErrorFrame)
            sock.sendall(msg3)
            assert read_frame(rfile)[0].code == ERR_AUTH_FAIL
    [line] = log.read_text().splitlines()
    logged = json.loads(line)
    assert logged["key_b"] is None
    assert logged["counters"]["modexp_server"] == 2
    assert logged["counters"]["hash_evals"] == run.server.tally.hash_evals


def throttle_toy_identity(service):
    """Fail id_a=9 three times (the max_fail these tests set) and check the lockout."""
    for _ in range(3):
        with pytest.raises(RemoteError):
            client_connect(service.address, WRONG_CREDS, TOY_PARAMS,
                           toy_options(x=5))
    with pytest.raises(RemoteError) as exc:
        client_connect(service.address, TOY_CREDS, TOY_PARAMS, toy_options())
    assert exc.value.code == ERR_THROTTLED


def test_throttling_one_identity_leaves_another_logging_in(tmp_path):
    other = Credentials(id_a=10, id_b=12, password=3)
    write_toy_store(tmp_path / "verifiers.tsv", extra=[VerifierRecord(
        id_a=10, id_b=12, v=derive_verifier(other, TOY_PARAMS, TOYSUM_SPEC))])
    with Service(toy_config(tmp_path, max_fail=3)) as service:
        throttle_toy_identity(service)
        key, _ = client_connect(service.address, other, TOY_PARAMS,
                                toy_options())
    expected = run_honest_session(Scenario(SCHEME_PROPOSED, creds=other,
                                           hash_spec=TOYSUM_SPEC, x=3, y=4))
    assert key == expected.key_a


def test_a_restarted_service_forgets_the_throttle(tmp_path):
    config = toy_config(tmp_path, max_fail=3)
    with Service(config) as service:
        throttle_toy_identity(service)
    with Service(config) as service:
        key, _ = client_connect(service.address, TOY_CREDS, TOY_PARAMS,
                                toy_options())
    assert key.value == 9


def test_unknown_identity(tmp_path):
    stranger = Credentials(id_a=99, id_b=12, password=10)
    with Service(toy_config(tmp_path)) as service:
        with pytest.raises(RemoteError) as exc:
            client_connect(service.address, stranger, TOY_PARAMS,
                           toy_options())
    assert exc.value.code == ERR_UNKNOWN_IDENTITY


def test_ambiguous_identity_is_refused(tmp_path):
    write_toy_store(tmp_path / "verifiers.tsv",
                    extra=[VerifierRecord(id_a=9, id_b=15, v=11)])
    with Service(toy_config(tmp_path)) as service:
        with pytest.raises(RemoteError) as exc:
            client_connect(service.address, TOY_CREDS, TOY_PARAMS,
                           toy_options())
    assert exc.value.code == ERR_UNKNOWN_IDENTITY
    assert "multiple" in str(exc.value)


def test_group_mismatch_is_refused(tmp_path):
    other = GroupParams(q=29, g=2)
    with Service(toy_config(tmp_path)) as service:
        with pytest.raises(RemoteError) as exc:
            client_connect(service.address, TOY_CREDS, other, toy_options())
    assert exc.value.code == ERR_PARAM_MISMATCH


def test_version_mismatch_reply(tmp_path):
    with Service(toy_config(tmp_path)) as service:
        data = bytearray(encode_frame(OkFrame()))
        data[2] = 0x02
        reply = raw_exchange(service.address, bytes(data))
    assert isinstance(reply, ErrorFrame)
    assert reply.code == ERR_VERSION_MISMATCH


def test_garbage_opener_reply(tmp_path):
    with Service(toy_config(tmp_path)) as service:
        reply = raw_exchange(service.address, b"GET / HTTP/1.1\r\n\r\n")
    assert isinstance(reply, ErrorFrame)
    assert reply.code == ERR_MALFORMED


def test_a_peer_whose_bytes_go_unread_gets_the_error_frame_then_eof(tmp_path):
    # the server closes with 100 kB unread, so the kernel resets the
    # connection; the whole ERROR frame and an orderly EOF come first
    with Service(toy_config(tmp_path)) as service:
        with (socket.create_connection(service.address, timeout=5.0) as sock,
              sock.makefile("rb") as rfile):
            sock.sendall(b"GET / HTTP/1.1\r\n\r\n" + bytes(100_000))
            reply, _ = read_frame(rfile)
            assert rfile.read(1) == b""
    assert isinstance(reply, ErrorFrame)
    assert reply.code == ERR_MALFORMED


def test_wrong_opening_frame_type(tmp_path):
    with Service(toy_config(tmp_path)) as service:
        reply = raw_exchange(service.address, encode_frame(OkFrame()))
    assert isinstance(reply, ErrorFrame)
    assert reply.code == ERR_MALFORMED
    assert "expected MSG1 or REGISTER" in reply.detail


def test_lky_msg1_wider_than_the_group_is_malformed(tmp_path):
    too_wide = 256 ** TOY_PARAMS.q_byte_len
    msg1 = Msg1Frame(q=13, g=6, id_a=9, t_a=too_wide)
    with Service(toy_config(tmp_path, insecure_lky=True)) as service:
        reply = raw_exchange(service.address, encode_frame(msg1))
    assert reply == ErrorFrame(code=ERR_MALFORMED,
                               detail="masked value exceeds the group width")


def test_lky_refused_when_pinned_server_nonce_degenerates(tmp_path):
    with Service(toy_config(tmp_path, insecure_lky=True,
                          y_override=1)) as service:
        with pytest.raises(RemoteError) as exc:
            client_connect(service.address, TOY_CREDS, TOY_PARAMS,
                           toy_options(scheme=SCHEME_LKY))
    assert exc.value.code == ERR_AUTH_FAIL
    assert "degenerate" in str(exc.value)


def test_lky_client_refuses_its_own_degenerate_nonce(tmp_path):
    with Service(toy_config(tmp_path, insecure_lky=True)) as service:
        with pytest.raises(RetryNonce):
            client_connect(service.address, TOY_CREDS, TOY_PARAMS,
                           toy_options(scheme=SCHEME_LKY, x=7))


# Z_3^* has the one exponent 1, so h = x = y = 1 and v = g: every nonce
# either baseline party draws is degenerate
Q3_PARAMS = GroupParams(q=3, g=2)


def test_a_client_whose_nonce_draws_never_fit_gives_up(monkeypatch):
    monkeypatch.setattr(service_module.socket, "create_connection",
                        lambda *args, **kwargs: pytest.fail("a port was dialed"))
    with pytest.raises(RetryNonce) as exc:
        client_connect(("127.0.0.1", 1), TOY_CREDS, Q3_PARAMS,
                       ClientOptions(hash_spec=TOYSUM_SPEC, scheme=SCHEME_LKY,
                                     seed=1))
    assert str(exc.value) == "could not pick a usable client nonce"


@pytest.mark.parametrize("y_override, detail", [
    (None, "could not pick a usable nonce"),
    (1, "pinned server nonce is degenerate"),
])
def test_a_server_whose_nonces_never_fit_refuses(tmp_path, y_override, detail):
    store = VerifierStore()
    store.add(VerifierRecord(id_a=9, id_b=12, v=2))
    store.save(tmp_path / "verifiers.tsv")
    config = ServeConfig(params=Q3_PARAMS, store_path=tmp_path / "verifiers.tsv",
                         hash_spec=TOYSUM_SPEC, insecure_lky=True,
                         y_override=y_override)
    with Service(config) as service:
        reply = raw_exchange(service.address, encode_frame(
            Msg1Frame(q=3, g=2, id_a=9, t_a=3)))
    assert reply == ErrorFrame(code=ERR_AUTH_FAIL, detail=detail)


def test_client_rejects_unknown_scheme(tmp_path):
    with Service(toy_config(tmp_path)) as service:
        with pytest.raises(ValueError):
            client_connect(service.address, TOY_CREDS, TOY_PARAMS,
                           toy_options(scheme="quantum"))


# -- enrollment ----------------------------------------------------------------------


def test_enrollment_is_off_by_default(tmp_path):
    with Service(toy_config(tmp_path)) as service:
        with pytest.raises(RemoteError) as exc:
            client_register(service.address,
                            VerifierRecord(id_a=20, id_b=12, v=7))
    assert exc.value.code == ERR_AUTH_FAIL
    assert "enrollment is disabled" in str(exc.value)


def test_enrollment_round_trip(tmp_path):
    store_path = tmp_path / "verifiers.tsv"
    creds = Credentials(id_a=20, id_b=12, password=5)
    v = derive_verifier(creds, TOY_PARAMS, TOYSUM_SPEC)
    config = ServeConfig(params=TOY_PARAMS, store_path=store_path,
                         hash_spec=TOYSUM_SPEC, y_override=4, enroll=True)
    with Service(config) as service:
        client_register(service.address,
                        VerifierRecord(id_a=creds.id_a, id_b=creds.id_b, v=v))
        key, _ = client_connect(service.address, creds, TOY_PARAMS,
                                toy_options())
        assert 0 <= key.value < 13
    # the enrollment was persisted, not just cached
    assert VerifierStore.load(store_path).lookup(20, 12).v == v


def test_enrollment_rejects_non_group_verifiers(tmp_path):
    config = toy_config(tmp_path, enroll=True)
    with Service(config) as service:
        reply = raw_exchange(service.address, encode_frame(
            RegisterFrame(id_a=20, id_b=12, v=13)))
    assert isinstance(reply, ErrorFrame)
    assert reply.code == ERR_PARAM_MISMATCH


def call_keeping_its_error(call):
    """The code of the RemoteError call raises, else None.

    The error stays in a reference cycle with this frame, as one a caller
    keeps does, so only a garbage-collection pass frees what it holds.
    """
    try:
        call()
    except RemoteError as exc:
        error = exc
        return error.code
    return None


def test_client_calls_leave_no_socket_to_the_garbage_collector(tmp_path):
    stranger = Credentials(id_a=99, id_b=12, password=10)
    with Service(toy_config(tmp_path, enroll=True)) as service:
        calls = [
            (lambda: client_connect(service.address, stranger, TOY_PARAMS,
                                    toy_options()), ERR_UNKNOWN_IDENTITY),
            (lambda: client_connect(service.address, TOY_CREDS, TOY_PARAMS,
                                    toy_options()), None),
            (lambda: client_register(service.address,
                                     VerifierRecord(id_a=20, id_b=12, v=7)),
             None),
        ]
        for call, code in calls:
            assert call_keeping_its_error(call) == code
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                gc.collect()
            assert not [w for w in caught
                        if issubclass(w.category, ResourceWarning)]


V2_TOY_HEADER = b"# pake-verifiers v2 q=13 g=6 hash=toysum\n"


def test_register_appends_one_row_and_a_restart_takes_the_last(tmp_path):
    path = write_toy_store(tmp_path / "verifiers.tsv")            # a v1 file
    config = toy_config(tmp_path, enroll=True)
    creds = Credentials(id_a=9, id_b=12, password=5)              # a new password
    v = derive_verifier(creds, TOY_PARAMS, TOYSUM_SPEC)
    with Service(config) as service:
        compacted = path.read_bytes()                              # now v2
        assert compacted.startswith(V2_TOY_HEADER)
        client_register(service.address, VerifierRecord(id_a=9, id_b=12, v=v))
        assert path.read_bytes() == compacted + f"9\t12\t{v:x}\n".encode()
        client_connect(service.address, creds, TOY_PARAMS, toy_options())
    appended = path.read_bytes()
    with Service(config) as service:
        assert path.read_bytes() == appended        # a v2 file is not rewritten
        assert service.store.lookup(9, 12).v == v
        assert v != derive_verifier(TOY_CREDS, TOY_PARAMS, TOYSUM_SPEC)
        client_connect(service.address, creds, TOY_PARAMS, toy_options())


def test_concurrent_registers_leave_a_loadable_file(tmp_path):
    config = toy_config(tmp_path, enroll=True)
    records = [VerifierRecord(id_a=100 + i, id_b=12, v=1 + i % 12) for i in range(10)]
    errors = []

    def register(record, barrier):
        barrier.wait()
        try:
            client_register(service.address, record)
        except Exception as exc:                    # reported below
            errors.append(exc)

    with Service(config) as service:
        for pair in (records[i:i + 2] for i in range(0, len(records), 2)):
            barrier = threading.Barrier(2)
            threads = [threading.Thread(target=register, args=(record, barrier))
                       for record in pair]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
    assert errors == []
    loaded = VerifierStore.load(config.store_path, TOY_PARAMS, TOYSUM)
    assert len(loaded) == 1 + len(records)
    assert all(loaded.lookup(r.id_a, r.id_b) == r for r in records)


def test_service_refuses_a_store_for_another_group_before_binding(tmp_path,
                                                                  monkeypatch):
    path = tmp_path / "verifiers.tsv"
    store = VerifierStore(TOY_PARAMS, TOYSUM)
    store.add(VerifierRecord(id_a=9, id_b=12, v=7))
    store.save(path)
    before = path.read_bytes()
    monkeypatch.setattr(service_module.socket, "create_server",
                        lambda *args, **kwargs: pytest.fail("a listener was bound"))
    for overrides in ({"params": GroupParams(q=23, g=5)},
                      {"hash_spec": HashSpec(DIGEST256)}):
        with pytest.raises(StoreParseError) as exc:
            Service(toy_config(tmp_path, enroll=True, **overrides))
        assert exc.value.line == 1
        assert "q=13, g=6, hash=toysum" in str(exc.value)
    assert path.read_bytes() == before


def test_service_refuses_a_log_it_cannot_open_before_binding(tmp_path,
                                                            monkeypatch):
    log_path = tmp_path / "missing" / "server.jsonl"
    with monkeypatch.context() as patch:
        patch.setattr(service_module.socket, "create_server",
                      lambda *args, **kwargs: pytest.fail("a listener was bound"))
        with pytest.raises(FileNotFoundError) as exc:
            Service(toy_config(tmp_path, enroll=True, log_path=log_path))
    assert str(log_path) in str(exc.value)
    # the store was not compacted to v2
    assert (tmp_path / "verifiers.tsv").read_text().startswith(
        "# pake-verifiers v1")
    # a log that can be opened is created at start, before any session
    with Service(toy_config(tmp_path, log_path=tmp_path / "server.jsonl")):
        assert (tmp_path / "server.jsonl").read_text() == ""


@pytest.mark.parametrize("y", [12, 0, -3])
def test_service_refuses_an_out_of_range_y_override_before_opening_the_log(
        tmp_path, y):
    log = tmp_path / "server.jsonl"
    with pytest.raises(ValueError, match=r"^y must lie in \[1, 11\]$"):
        Service(toy_config(tmp_path, y_override=y, log_path=log))
    assert not log.exists()


def test_service_requires_a_store_unless_enrolling(tmp_path):
    with pytest.raises(FileNotFoundError):
        Service(ServeConfig(params=TOY_PARAMS,
                            store_path=tmp_path / "absent.tsv"))
    service = Service(ServeConfig(params=TOY_PARAMS,
                                  store_path=tmp_path / "absent.tsv",
                                  enroll=True))
    service.stop()
    # enrollment from an empty store starts a v2 file for the group
    assert ((tmp_path / "absent.tsv").read_text()
            == "# pake-verifiers v2 q=13 g=6 hash=digest256\n")


def test_service_refuses_a_store_row_outside_the_group(tmp_path):
    path = write_toy_store(tmp_path / "verifiers.tsv",
                           extra=[VerifierRecord(id_a=20, id_b=12, v=0x1d)])
    with pytest.raises(StoreParseError) as exc:
        Service(toy_config(tmp_path))
    assert exc.value.line == 3
    assert path.read_text().splitlines()[2] == "20\t12\t1d"


# -- server keeps serving -------------------------------------------------------------


def test_service_survives_abusive_peers(tmp_path):
    with Service(toy_config(tmp_path)) as service:
        with socket.create_connection(service.address, timeout=5.0) as sock:
            sock.sendall(b"\x50\x4b\x01\x02\xff\xff")   # promises 65535 bytes
        raw_exchange(service.address, b"\x00")
        with socket.create_connection(service.address, timeout=5.0):
            pass                                        # connect, say nothing
        key, _ = client_connect(service.address, TOY_CREDS, TOY_PARAMS,
                                toy_options())
        assert key.value == 9


def test_a_client_that_hangs_up_after_msg2_leaves_no_line(tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="pakelab.netio")
    log = tmp_path / "server.jsonl"
    with Service(toy_config(tmp_path, log_path=log)) as service:
        with (socket.create_connection(service.address, timeout=5.0) as sock,
              sock.makefile("rb") as rfile):
            sock.sendall(encode_frame(Msg1Frame(q=13, g=6, id_a=9, t_a=8)))
            assert isinstance(read_frame(rfile)[0], Msg2Frame)
            sock.shutdown(socket.SHUT_WR)
            assert rfile.read(1) == b""         # EOF, and no frame
        key, _ = client_connect(service.address, TOY_CREDS, TOY_PARAMS,
                                toy_options())
        assert key.value == 9
    [line] = log.read_text().splitlines()       # the login's, and no other
    assert json.loads(line)["key_b"] == "9"
    [hang_up] = [r for r in caplog.records if "hung up" in r.getMessage()]
    assert hang_up.levelno == logging.INFO


def test_a_server_driver_that_raises_gets_no_reply_and_no_line(tmp_path,
                                                               monkeypatch,
                                                               caplog):
    caplog.set_level(logging.INFO, logger="pakelab.netio")
    calls = []

    def server(*args):
        calls.append(args)
        if len(calls) == 1:
            raise RuntimeError("driver failed")
        return proposed_server(*args)

    monkeypatch.setattr(service_module, "SERVERS", {SCHEME_PROPOSED: server})
    log = tmp_path / "server.jsonl"
    with Service(toy_config(tmp_path, log_path=log)) as service:
        with pytest.raises(MalformedFrame, match="closed the connection"):
            client_connect(service.address, TOY_CREDS, TOY_PARAMS,
                           toy_options())
        key, _ = client_connect(service.address, TOY_CREDS, TOY_PARAMS,
                                toy_options())
        assert key.value == 9
    [line] = log.read_text().splitlines()       # the second login's
    assert json.loads(line)["key_b"] == "9"
    [failure] = [r for r in caplog.records if r.levelno >= logging.WARNING]
    assert failure.levelno == logging.ERROR
    assert failure.exc_info[0] is RuntimeError


def test_silent_peers_are_dropped_at_the_read_deadline(tmp_path, monkeypatch,
                                                       caplog):
    monkeypatch.setattr(service_module, "READ_TIMEOUT", 0.2)
    caplog.set_level(logging.INFO, logger="pakelab.netio")
    with Service(toy_config(tmp_path)) as service:
        silent = [socket.create_connection(service.address, timeout=5.0)
                  for _ in range(3)]
        try:
            for sock in silent:
                assert sock.recv(1) == b""          # EOF, and no ERROR frame
        finally:
            for sock in silent:
                sock.close()
        key, _ = client_connect(service.address, TOY_CREDS, TOY_PARAMS,
                                toy_options())
        assert key.value == 9
    hang_ups = [r for r in caplog.records if "hung up" in r.getMessage()]
    assert len(hang_ups) == 3
    assert all(r.levelno == logging.INFO and r.exc_info is None
               for r in caplog.records)


def test_a_trickling_peer_is_cut_off_at_the_connection_deadline(tmp_path,
                                                                monkeypatch,
                                                                caplog):
    # each byte arrives well inside the deadline, so only a deadline on the
    # whole connection, not on each read, ends these
    monkeypatch.setattr(service_module, "READ_TIMEOUT", 0.3)
    caplog.set_level(logging.INFO, logger="pakelab.netio")
    ends = []

    def trickle(address):
        with socket.create_connection(address, timeout=5.0) as sock:
            start = time.monotonic()
            sock.sendall(b"\x50\x4b\x01\x02\xff\xff")   # MSG1, 65535-byte field
            sock.settimeout(0.1)
            while time.monotonic() - start < 3.0:
                try:
                    sock.sendall(b"\x07")
                    data = sock.recv(64)        # waits 0.1 s for the server
                except socket.timeout:
                    continue
                except ConnectionError:
                    data = b""
                ends.append((time.monotonic() - start, data))
                return

    with Service(toy_config(tmp_path)) as service:
        peers = [threading.Thread(target=trickle, args=(service.address,))
                 for _ in range(3)]
        for peer in peers:
            peer.start()
        for peer in peers:
            peer.join(timeout=10)
        key, _ = client_connect(service.address, TOY_CREDS, TOY_PARAMS,
                                toy_options())
        assert key.value == 9
    assert len(ends) == 3
    assert all(0.2 < seconds < 1.0 and data == b"" for seconds, data in ends), ends
    hang_ups = [r for r in caplog.records if "hung up" in r.getMessage()]
    assert len(hang_ups) == 3


def test_a_trickling_server_is_cut_off_at_the_client_deadline(monkeypatch,
                                                              capsys):
    # MSG2 with a 10-byte field, one byte every 0.1 s: each read is well
    # inside the timeout, so only a deadline on the whole session ends it
    monkeypatch.setattr(service_module, "CLIENT_TIMEOUT", 0.3)
    msg2 = encode_frame(Msg2Frame(t_b=2**79 + 1))

    def trickle(listener):
        for _ in range(2):
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as rfile:
                read_frame(rfile)                   # MSG1
                try:
                    for byte in msg2:
                        conn.sendall(bytes([byte]))
                        time.sleep(0.1)
                except OSError:
                    pass                            # the client has left

    with socket.create_server(("127.0.0.1", 0)) as listener:
        listener.settimeout(5.0)            # a client that never comes
        host, port = listener.getsockname()
        server = threading.Thread(target=trickle, args=(listener,))
        server.start()
        try:
            start = time.monotonic()
            with pytest.raises(TimeoutError):
                client_connect((host, port), TOY_CREDS, TOY_PARAMS, toy_options())
            assert time.monotonic() - start < 0.9       # the whole frame takes 1.6 s
            capsys.readouterr()
            assert cli_main(["connect", "--addr", f"{host}:{port}",
                             "--hash", "toysum", "--id-a", "9", "--id-b", "12",
                             "--password", "10", "--x", "3"]) == 3
        finally:
            server.join(timeout=10)
    assert not server.is_alive()
    assert "error: connection failed" in capsys.readouterr().err


# -- handler threads -------------------------------------------------------------


def record_handler_threads(monkeypatch, fail_first=False):
    """Patch Service._handle_connection to note the thread each connection runs on."""
    seen = []
    original = Service._handle_connection

    def handle(service, conn):
        seen.append(threading.current_thread())
        if fail_first and len(seen) == 1:
            raise RuntimeError("handler failed")
        return original(service, conn)

    monkeypatch.setattr(Service, "_handle_connection", handle)
    return seen


def toy_login(service):
    key, _ = client_connect(service.address, TOY_CREDS, TOY_PARAMS, toy_options())
    assert key.value == 9
    # the handler closes the connection after its final frame; give it the
    # moment it needs to become idle before the next connection arrives
    time.sleep(0.05)


def wait_until_dead(threads, seconds):
    deadline = time.monotonic() + seconds
    while any(t.is_alive() for t in threads) and time.monotonic() < deadline:
        time.sleep(0.01)
    return not any(t.is_alive() for t in threads)


def handler_threads(before):
    """The live handler threads that are not in before."""
    return {t for t in threading.enumerate()
            if t.name == "pakelab-handler" and t not in before}


def wait_for_one_handler(before, seconds):
    """Wait until idle handler threads have retired down to the one that waits."""
    deadline = time.monotonic() + seconds
    while len(handler_threads(before)) != 1 and time.monotonic() < deadline:
        time.sleep(0.01)
    return len(handler_threads(before)) == 1


def test_an_accept_that_fails_leaves_the_listener_serving(tmp_path, monkeypatch):
    accept, failed = socket.socket.accept, []

    def accept_failing_once(sock):
        if not failed:
            failed.append(errno.EMFILE)
            raise OSError(errno.EMFILE, "Too many open files")
        return accept(sock)

    monkeypatch.setattr(socket.socket, "accept", accept_failing_once)
    with Service(toy_config(tmp_path)) as service:
        toy_login(service)
    assert len(failed) == 1


def test_an_accept_that_keeps_failing_is_retried_without_spinning(tmp_path,
                                                                  monkeypatch):
    accept, calls = socket.socket.accept, []

    def accept_out_of_descriptors(sock):
        calls.append(sock)
        raise OSError(errno.EMFILE, "Too many open files")

    monkeypatch.setattr(socket.socket, "accept", accept_out_of_descriptors)
    with Service(toy_config(tmp_path)) as service:
        time.sleep(0.3)
        tries = len(calls)
        monkeypatch.setattr(socket.socket, "accept", accept)
        toy_login(service)
    # an accept() retried at once runs hundreds of thousands of times in 0.3 s
    assert 1 <= tries <= 20


def test_sequential_logins_reuse_one_handler_thread(tmp_path, monkeypatch):
    # the thread that takes the first login starts one to wait in its place;
    # from then on one serves while the other waits
    before = set(threading.enumerate())
    seen = record_handler_threads(monkeypatch)
    with Service(toy_config(tmp_path)) as service:
        for i in range(20):
            toy_login(service)
            if i == 1:
                after_two = handler_threads(before)
        assert handler_threads(before) == after_two
    assert len(seen) == 20
    assert len(after_two) <= 2 and set(seen) <= after_two
    assert seen[0].name == "pakelab-handler" and seen[0].daemon


def test_a_handler_that_raises_drops_its_client_and_keeps_its_thread(tmp_path,
                                                                     monkeypatch):
    before = set(threading.enumerate())
    seen = record_handler_threads(monkeypatch, fail_first=True)
    with Service(toy_config(tmp_path)) as service:
        with socket.create_connection(service.address, timeout=5.0) as sock:
            assert sock.recv(1) == b""          # EOF, and no ERROR frame
        time.sleep(0.05)
        toy_login(service)
        assert seen[0].is_alive()
        assert len(handler_threads(before)) <= 2
    assert len(seen) == 2


def test_an_idle_handler_thread_exits_after_the_read_timeout(tmp_path,
                                                             monkeypatch):
    monkeypatch.setattr(service_module, "READ_TIMEOUT", 0.2)
    before = set(threading.enumerate())
    seen = record_handler_threads(monkeypatch)
    with Service(toy_config(tmp_path)) as service:
        toy_login(service)
        # of the two idle threads one retires; the last one keeps waiting
        assert wait_for_one_handler(before, 5.0)
        time.sleep(0.5)
        assert len(handler_threads(before)) == 1
        toy_login(service)
    assert len(seen) == 2


def test_handler_threads_retiring_under_load_strand_no_connection(tmp_path,
                                                                   monkeypatch):
    # idle threads time out every few ms while clients keep connecting, so
    # retiring races with the last waiting thread accepting a connection.
    # The listener takes its idle wait from READ_TIMEOUT when the Service is
    # built, each connection its deadline when it is accepted: only the idle
    # wait is short, so a slow host cannot drop a login at its deadline
    with monkeypatch.context() as patch:
        patch.setattr(service_module, "READ_TIMEOUT", 0.005)
        service = Service(toy_config(tmp_path, max_fail=6))
    before = set(threading.enumerate())
    seen = record_handler_threads(monkeypatch)
    errors = []

    def logins(service):
        for i in range(10):
            try:
                key, _ = client_connect(service.address, TOY_CREDS, TOY_PARAMS,
                                        toy_options())
                assert key.value == 9
            except Exception as exc:       # a stranded connection times out
                errors.append(exc)
            time.sleep(0.002 * (i % 3))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        # the six clients share one identity, so the throttle must admit
        # six logins of it in flight at once
        with service:
            clients = [threading.Thread(target=logins, args=(service,))
                       for _ in range(6)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in clients)
            # had the last waiting thread retired, no thread would take
            # this login
            assert wait_for_one_handler(before, 5.0)
            toy_login(service)
    finally:
        sys.setswitchinterval(switch)
    assert errors == []
    assert len(seen) == 61


def test_stopping_the_service_ends_its_idle_handler_threads(tmp_path,
                                                            monkeypatch):
    seen = record_handler_threads(monkeypatch)
    before = set(threading.enumerate())
    with Service(toy_config(tmp_path)) as service:
        address = service.address
        for _ in range(3):
            toy_login(service)
        handlers = handler_threads(before)
    assert len(seen) == 3
    assert wait_until_dead(handlers, 1.0)
    assert not handler_threads(before)
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(address, timeout=5.0)


def test_stop_from_another_thread_ends_serve_blocking(tmp_path):
    service = Service(toy_config(tmp_path))
    address, stopped_at = service.address, []

    def login_then_stop():
        try:
            toy_login(service)
        finally:
            stopped_at.append(time.monotonic())
            service.stop()

    other = threading.Thread(target=login_then_stop)
    other.start()
    service.serve_blocking()
    returned = time.monotonic()
    other.join(timeout=5)
    assert not other.is_alive()
    assert returned - stopped_at[0] < 1.0
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(address, timeout=5.0)


# -- one message sequence, in memory and over TCP ------------------------------


@pytest.mark.parametrize("scheme", ["proposed", SCHEME_LKY])
@pytest.mark.parametrize("x, y", [(3, 4), (5, 7), (2, 9)])
def test_tcp_frames_match_the_in_memory_session(tmp_path, scheme, x, y):
    report = run_honest_session(Scenario(scheme=scheme, hash_spec=TOYSUM_SPEC,
                                         x=x, y=y))
    assert report.error is None
    config = toy_config(tmp_path, insecure_lky=scheme == SCHEME_LKY,
                        y_override=y)
    with Service(config) as service:
        _, tcp = client_connect(service.address, TOY_CREDS, TOY_PARAMS,
                                toy_options(scheme=scheme, x=x))
    in_memory = [(e.direction, e.label, e.data) for e in report.transcript]
    over_tcp = [(e.direction, e.label, e.data) for e in tcp.transcript]
    if scheme == SCHEME_LKY:
        assert over_tcp[-1] == ("B->A", "ok", encode_frame(OkFrame()))
        over_tcp = over_tcp[:-1]
    assert over_tcp == in_memory


@pytest.mark.parametrize("scheme, t_a", [("proposed", 8), (SCHEME_LKY, 15)])
def test_a_repeated_msg1_is_refused(tmp_path, scheme, t_a):
    msg1 = encode_frame(Msg1Frame(q=13, g=6, id_a=9, t_a=t_a))
    config = toy_config(tmp_path, insecure_lky=scheme == SCHEME_LKY)
    with Service(config) as service:
        with socket.create_connection(service.address, timeout=5.0) as sock:
            rfile = sock.makefile("rb")
            sock.sendall(msg1)
            assert not isinstance(read_frame(rfile)[0], ErrorFrame)
            sock.sendall(msg1)
            reply, _ = read_frame(rfile)
    assert reply == ErrorFrame(code=ERR_MALFORMED,
                               detail="expected MSG3, got msg1")
