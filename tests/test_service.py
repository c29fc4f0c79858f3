"""TCP service: loopback sessions, error codes, throttling, enrollment, logs."""

import json
import socket
import threading

import pytest

from pakelab.core import (
    Credentials,
    GroupParams,
    HashSpec,
    SCHEME_LKY,
    TOY_CREDS,
    TOY_PARAMS,
    TOYSUM,
    VerifierRecord,
    derive_verifier,
)
from pakelab.errors import MalformedFrame, RemoteError, RetryNonce
from pakelab.netio.frames import (
    ERR_AUTH_FAIL,
    ERR_MALFORMED,
    ERR_PARAM_MISMATCH,
    ERR_THROTTLED,
    ERR_UNKNOWN_IDENTITY,
    ERR_VERSION_MISMATCH,
    ErrorFrame,
    OkFrame,
    RegisterFrame,
    encode_frame,
    read_frame,
)
from pakelab.netio import service as service_module
from pakelab.netio.service import (
    ClientOptions,
    ServeConfig,
    Service,
    client_connect,
    client_register,
    parse_address,
    serve,
)
from pakelab.netio.store import VerifierStore

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
    defaults = dict(hash_spec=TOYSUM_SPEC, x=3, timeout=5.0)
    defaults.update(overrides)
    return ClientOptions(**defaults)


def raw_exchange(address, payload: bytes):
    with socket.create_connection(address, timeout=5.0) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)      # half-close so short payloads EOF
        return read_frame(sock.makefile("rb"))


# -- address parsing -----------------------------------------------------------


def test_parse_address():
    assert parse_address("10.0.0.1:9000") == ("10.0.0.1", 9000)
    assert parse_address(":123") == ("127.0.0.1", 123)
    with pytest.raises(ValueError):
        parse_address("localhost")
    with pytest.raises(ValueError):
        parse_address("host:port")


# -- happy paths -----------------------------------------------------------------


def test_proposed_loopback_agrees_on_the_toy_key(tmp_path):
    server_log = tmp_path / "server.jsonl"
    client_log = tmp_path / "client.jsonl"
    with serve(toy_config(tmp_path, log_path=server_log)) as service:
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
    with serve(toy_config(tmp_path, insecure_lky=True,
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
    with serve(toy_config(tmp_path)) as service:
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

    with serve(toy_config(tmp_path)) as service:
        threads = [threading.Thread(target=one_session, args=(service,))
                   for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    assert errors == []
    assert keys == [9, 9, 9, 9]


def test_client_can_skip_server_auth(tmp_path):
    with serve(toy_config(tmp_path)) as service:
        key, report = client_connect(service.address, TOY_CREDS, TOY_PARAMS,
                                     toy_options(skip_server_auth=True))
    assert key.value == 9
    assert not report.auth_a_ok
    assert "server unauthenticated" in report.flags


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
    with serve(config) as service:
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


def test_client_encodes_each_sent_frame_once(tmp_path, monkeypatch):
    client_encodes = []

    def counting_encode(frame):
        if threading.current_thread() is threading.main_thread():
            client_encodes.append(type(frame).__name__)
        return encode_frame(frame)

    monkeypatch.setattr(service_module, "encode_frame", counting_encode)
    with serve(toy_config(tmp_path)) as service:
        key, report = client_connect(service.address, TOY_CREDS, TOY_PARAMS,
                                     toy_options())
    assert key.value == 9
    assert client_encodes.count("Msg1Frame") == 1
    assert client_encodes.count("Msg3Frame") == 1
    assert report.transcript.bytes_on_wire == 37


# -- refusal codes ------------------------------------------------------------------


def test_wrong_password_is_refused(tmp_path):
    with serve(toy_config(tmp_path)) as service:
        with pytest.raises(RemoteError) as exc:
            client_connect(service.address, WRONG_CREDS, TOY_PARAMS,
                           toy_options(x=5))
    assert exc.value.code == ERR_AUTH_FAIL
    assert "consecutive failures: 1" in str(exc.value)


def test_throttling_after_repeated_failures(tmp_path):
    with serve(toy_config(tmp_path, max_fail=3)) as service:
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
    with serve(toy_config(tmp_path, max_fail=3)) as service:
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


def test_unknown_identity(tmp_path):
    stranger = Credentials(id_a=99, id_b=12, password=10)
    with serve(toy_config(tmp_path)) as service:
        with pytest.raises(RemoteError) as exc:
            client_connect(service.address, stranger, TOY_PARAMS,
                           toy_options())
    assert exc.value.code == ERR_UNKNOWN_IDENTITY


def test_ambiguous_identity_is_refused(tmp_path):
    write_toy_store(tmp_path / "verifiers.tsv",
                    extra=[VerifierRecord(id_a=9, id_b=15, v=11)])
    with serve(toy_config(tmp_path)) as service:
        with pytest.raises(RemoteError) as exc:
            client_connect(service.address, TOY_CREDS, TOY_PARAMS,
                           toy_options())
    assert exc.value.code == ERR_UNKNOWN_IDENTITY
    assert "multiple" in str(exc.value)


def test_group_mismatch_is_refused(tmp_path):
    other = GroupParams(q=29, g=2)
    with serve(toy_config(tmp_path)) as service:
        with pytest.raises(RemoteError) as exc:
            client_connect(service.address, TOY_CREDS, other, toy_options())
    assert exc.value.code == ERR_PARAM_MISMATCH


def test_version_mismatch_reply(tmp_path):
    with serve(toy_config(tmp_path)) as service:
        data = bytearray(encode_frame(OkFrame()))
        data[2] = 0x02
        reply = raw_exchange(service.address, bytes(data))
    assert isinstance(reply, ErrorFrame)
    assert reply.code == ERR_VERSION_MISMATCH


def test_garbage_opener_reply(tmp_path):
    with serve(toy_config(tmp_path)) as service:
        reply = raw_exchange(service.address, b"GET / HTTP/1.1\r\n\r\n")
    assert isinstance(reply, ErrorFrame)
    assert reply.code == ERR_MALFORMED


def test_wrong_opening_frame_type(tmp_path):
    with serve(toy_config(tmp_path)) as service:
        reply = raw_exchange(service.address, encode_frame(OkFrame()))
    assert isinstance(reply, ErrorFrame)
    assert reply.code == ERR_MALFORMED
    assert "expected MSG1 or REGISTER" in reply.detail


def test_lky_refused_when_pinned_server_nonce_degenerates(tmp_path):
    with serve(toy_config(tmp_path, insecure_lky=True,
                          y_override=1)) as service:
        with pytest.raises(RemoteError) as exc:
            client_connect(service.address, TOY_CREDS, TOY_PARAMS,
                           toy_options(scheme=SCHEME_LKY))
    assert exc.value.code == ERR_AUTH_FAIL
    assert "degenerate" in str(exc.value)


def test_lky_client_refuses_its_own_degenerate_nonce(tmp_path):
    with serve(toy_config(tmp_path, insecure_lky=True)) as service:
        with pytest.raises(RetryNonce):
            client_connect(service.address, TOY_CREDS, TOY_PARAMS,
                           toy_options(scheme=SCHEME_LKY, x=7))


def test_client_rejects_unknown_scheme(tmp_path):
    with serve(toy_config(tmp_path)) as service:
        with pytest.raises(ValueError):
            client_connect(service.address, TOY_CREDS, TOY_PARAMS,
                           toy_options(scheme="quantum"))


# -- enrollment ----------------------------------------------------------------------


def test_enrollment_is_off_by_default(tmp_path):
    with serve(toy_config(tmp_path)) as service:
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
    with serve(config) as service:
        client_register(service.address,
                        VerifierRecord(id_a=creds.id_a, id_b=creds.id_b, v=v))
        key, _ = client_connect(service.address, creds, TOY_PARAMS,
                                toy_options())
        assert 0 <= key.value < 13
    # the enrollment was persisted, not just cached
    assert VerifierStore.load(store_path).lookup(20, 12).v == v


def test_enrollment_rejects_non_group_verifiers(tmp_path):
    config = toy_config(tmp_path, enroll=True)
    with serve(config) as service:
        reply = raw_exchange(service.address, encode_frame(
            RegisterFrame(id_a=20, id_b=12, v=13)))
    assert isinstance(reply, ErrorFrame)
    assert reply.code == ERR_PARAM_MISMATCH


def test_service_requires_a_store_unless_enrolling(tmp_path):
    with pytest.raises(FileNotFoundError):
        Service(ServeConfig(params=TOY_PARAMS,
                            store_path=tmp_path / "absent.tsv"))
    service = Service(ServeConfig(params=TOY_PARAMS,
                                  store_path=tmp_path / "absent.tsv",
                                  enroll=True))
    service._server.server_close()


# -- server keeps serving -------------------------------------------------------------


def test_service_survives_abusive_peers(tmp_path):
    with serve(toy_config(tmp_path)) as service:
        with socket.create_connection(service.address, timeout=5.0) as sock:
            sock.sendall(b"\x50\x4b\x01\x02\xff\xff")   # promises 65535 bytes
        raw_exchange(service.address, b"\x00")
        with socket.create_connection(service.address, timeout=5.0):
            pass                                        # connect, say nothing
        key, _ = client_connect(service.address, TOY_CREDS, TOY_PARAMS,
                                toy_options())
        assert key.value == 9
