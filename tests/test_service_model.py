"""A model test of the TCP service: any mix of concurrent peers, one set of rules.

Hypothesis draws 2-12 peers that reach a toy-group Service at once: honest
logins, wrong passwords, logins that hang up after MSG2, garbage bytes,
connections closed before a byte, and REGISTERs with enrollment off. Only
what a peer or an operator can see is checked, so the rules hold for any
design of the service:

  * each peer sees exactly one ending (a final frame, an ERROR frame, or
    EOF when it hung up itself), and EOF after it;
  * the log holds one line per judged session, judged by the server's
    verdict, since on the toy group a wrong password is sometimes accepted;
  * once every peer has ended, no login is still charged: MSG1 probes
    opened one at a time are admitted until the throttle's refusal names
    exactly the probes still open as its logins in flight.
"""

import json
import re
import socket
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from hypothesis import given, settings, strategies as st

from pakelab.core import (
    TOY_CREDS,
    TOY_PARAMS,
    TOYSUM,
    Credentials,
    HashSpec,
    VerifierRecord,
    derive_verifier,
)
from pakelab.netio.frames import (
    ERR_AUTH_FAIL,
    ERR_MALFORMED,
    ERR_THROTTLED,
    ErrorFrame,
    Msg1Frame,
    Msg2Frame,
    Msg4Frame,
    RegisterFrame,
    encode_frame,
    read_frame,
)
from pakelab.netio.service import ServeConfig, Service
from pakelab.netio.store import VerifierStore
from pakelab.proposed import prop_client_confirm, prop_client_start

TOYSUM_SPEC = HashSpec(TOYSUM)
PEER_TIMEOUT = 5.0          # seconds any one peer may wait for the server
PROBE_BOUND = 5.0           # seconds to wait for released logins to show
PROBE_MSG1 = encode_frame(Msg1Frame(q=TOY_PARAMS.q, g=TOY_PARAMS.g,
                                    id_a=TOY_CREDS.id_a, t_a=8))

HONEST, WRONG, HANG_UP, GARBAGE, CLOSE, REGISTER = (
    "honest", "wrong-password", "hang-up-after-msg2", "garbage",
    "connect-and-close", "register")

peers_st = st.lists(st.one_of(
    st.tuples(st.just(HONEST), st.integers(1, 11)),
    st.tuples(st.just(WRONG), st.integers(1, 11),
              st.integers(0, 40).filter(lambda p: p != TOY_CREDS.password)),
    st.tuples(st.just(HANG_UP), st.integers(1, 11)),
    # never the magic's first byte, so the bytes are never a frame
    st.tuples(st.just(GARBAGE),
              st.binary(min_size=1, max_size=24).filter(lambda b: b[0] != 0x50)),
    st.tuples(st.just(CLOSE)),
    st.tuples(st.just(REGISTER)),
), min_size=2, max_size=12)


MSG2, MSG4, THROTTLED = (Msg2Frame,), (Msg4Frame,), (ErrorFrame, ERR_THROTTLED)
AUTH_FAIL = (ErrorFrame, ERR_AUTH_FAIL)

# every frame sequence a peer may receive before EOF: one ending each, a
# final frame or an ERROR frame, or EOF alone for a peer that hung up
ENDINGS = {
    HONEST: {(MSG2, MSG4), (THROTTLED,)},
    WRONG: {(MSG2, MSG4), (MSG2, AUTH_FAIL), (THROTTLED,)},
    HANG_UP: {(MSG2,), (THROTTLED,)},
    GARBAGE: {((ErrorFrame, ERR_MALFORMED),)},
    CLOSE: {()},
    REGISTER: {(AUTH_FAIL,)},
}


def _run_peer(address, peer, start):
    """Play one peer; return the shape of each frame it got before EOF."""
    kind, received = peer[0], []
    with (socket.create_connection(address, timeout=PEER_TIMEOUT) as sock,
          sock.makefile("rb") as rfile):
        start.wait()
        if kind in (HONEST, WRONG, HANG_UP):
            password = peer[2] if kind == WRONG else TOY_CREDS.password
            creds = Credentials(id_a=TOY_CREDS.id_a, id_b=TOY_CREDS.id_b,
                                password=password)
            msg1, state = prop_client_start(creds, TOY_PARAMS, TOYSUM_SPEC, peer[1])
            sock.sendall(encode_frame(msg1))
            reply = read_frame(rfile)
            if reply is not None:
                received.append(reply[0])
                if isinstance(reply[0], Msg2Frame) and kind != HANG_UP:
                    sock.sendall(encode_frame(prop_client_confirm(reply[0], state)))
        elif kind == GARBAGE:
            sock.sendall(peer[1])
        elif kind == REGISTER:
            sock.sendall(encode_frame(RegisterFrame(id_a=5, id_b=6, v=2)))
        sock.shutdown(socket.SHUT_WR)       # a hang-up, once a peer has said its piece
        while (reply := read_frame(rfile)) is not None:
            received.append(reply[0])
    return tuple((ErrorFrame, frame.code) if isinstance(frame, ErrorFrame)
                 else (type(frame),) for frame in received)


def _charged_logins(address):
    """Logins in flight that no probe holds, once the throttle refuses a probe."""
    probes = []
    try:
        while True:
            sock = socket.create_connection(address, timeout=PEER_TIMEOUT)
            probes.append(sock)
            sock.sendall(PROBE_MSG1)
            with sock.makefile("rb") as rfile:
                frame, _ = read_frame(rfile)
            if isinstance(frame, ErrorFrame):
                assert frame.code == ERR_THROTTLED, frame
                match = re.search(r"and (\d+) logins in flight", frame.detail)
                assert match, frame.detail
                return int(match.group(1)) - (len(probes) - 1)
            assert isinstance(frame, Msg2Frame), frame
    finally:
        for sock in probes:
            sock.close()


def _write_store(path):
    store = VerifierStore()
    store.add(VerifierRecord(id_a=TOY_CREDS.id_a, id_b=TOY_CREDS.id_b,
                             v=derive_verifier(TOY_CREDS, TOY_PARAMS, TOYSUM_SPEC)))
    store.save(path)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(peers=peers_st, rng_seed=st.integers(0, 2 ** 16))
def test_any_mix_of_concurrent_peers_keeps_the_service_rules(peers, rng_seed):
    wrong = sum(peer[0] == WRONG for peer in peers)
    with tempfile.TemporaryDirectory() as tmp:
        store_path, log_path = Path(tmp) / "verifiers.tsv", Path(tmp) / "server.jsonl"
        _write_store(store_path)
        # above the failures the wrong passwords can leave, so a probe is
        # refused only for the logins in flight
        config = ServeConfig(params=TOY_PARAMS, store_path=store_path,
                             hash_spec=TOYSUM_SPEC, max_fail=wrong + 1,
                             log_path=log_path, rng_seed=rng_seed)
        with Service(config) as service:
            start = threading.Barrier(len(peers), timeout=PEER_TIMEOUT)
            with ThreadPoolExecutor(max_workers=len(peers)) as pool:
                results = list(pool.map(
                    lambda peer: _run_peer(service.address, peer, start), peers))
            deadline = time.monotonic() + PROBE_BOUND
            while (charged := _charged_logins(service.address)) != 0:
                assert time.monotonic() < deadline, f"{charged} logins still charged"
                time.sleep(0.01)
        lines = [json.loads(line) for line in log_path.read_text().splitlines()]

    for peer, frames in zip(peers, results):
        assert frames in ENDINGS[peer[0]], (peer, frames)
    accepted = sum(frames[-1:] == (MSG4,) for frames in results)
    auth_failed = sum(frames == (MSG2, AUTH_FAIL) for frames in results)
    verdicts = [line["auth_b_ok"] for line in lines]
    assert sorted(verdicts) == [False] * auth_failed + [True] * accepted
