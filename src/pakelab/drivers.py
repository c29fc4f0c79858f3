"""One client driver and one server driver per scheme, and the in-memory pump.

A driver runs one party's side of a session over wire frames and does no
I/O. It is a generator: it yields ``(frame, state)`` for each frame its
party sends, is resumed with ``send(peer_frame)``, and on acceptance
returns ``(final frame or None, key, state)``, the final frame being the
last one its party sends. A rejection is raised from the step that
detects it. A server driver is built from the client's MSG1 frame, since
the caller looks up the verifier record from it first.

The scheme steps (pakelab.lky, pakelab.proposed) take and return the wire
frames themselves, so a driver only sequences them: it yields what a step
returned and checks each reply's frame type with expect before passing it
to the next step. Three adapters run the drivers: run_in_memory below
(honest sessions, golden replay and the attack experiments), the
service's server loop and client_connect's client loop
(pakelab.netio.service). A step that cannot use its nonce raises
RetryNonce, and all three adapters pick their nonces by one rule,
first_usable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from . import lky, proposed
from .core import (
    SCHEME_LKY,
    SCHEME_PROPOSED,
    Credentials,
    GroupParams,
    HashSpec,
    SessionKey,
    VerifierRecord,
    derive_verifier,
)
from .errors import MalformedFrame, PakeError, RetryNonce
from .netio.frames import (
    LkyMsg2Frame,
    Msg1Frame,
    Msg2Frame,
    Msg3Frame,
    Msg4Frame,
    encode_frame,
    frame_label,
)
from .transcript import DIR_AB, DIR_BA, Transcript

MAX_NONCE_RESAMPLES = 64


def expect(frame, cls, name: str = ""):
    """frame if it is a cls, else MalformedFrame naming what arrived."""
    if not isinstance(frame, cls):
        raise MalformedFrame(
            f"expected {name or cls.__name__}, got {frame_label(frame)}")
    return frame


def first_usable(attempt: Callable, pinned, draw: Callable):
    """attempt(nonce) for the first nonce it does not refuse with RetryNonce.

    A pinned nonce gets one try; otherwise up to MAX_NONCE_RESAMPLES draws
    are tried. The last RetryNonce reaches the caller.
    """
    if pinned is not None:
        return attempt(pinned)
    for _ in range(MAX_NONCE_RESAMPLES - 1):
        try:
            return attempt(draw())
        except RetryNonce:
            pass
    return attempt(draw())


def lky_client(creds: Credentials, params: GroupParams, hash_spec: HashSpec,
               x: int):
    msg1, state = lky.lky_client_start(creds, params, hash_spec, x)
    reply = yield msg1, state
    msg3, key = lky.lky_client_finish(expect(reply, LkyMsg2Frame), state)
    return msg3, key, state


def lky_server(msg1: Msg1Frame, record: VerifierRecord, params: GroupParams,
               hash_spec: HashSpec, y: int):
    msg2, state = lky.lky_server_respond(msg1, record, params, hash_spec, y)
    reply = yield msg2, state
    key = lky.lky_server_finish(expect(reply, Msg3Frame, "MSG3"), state)
    return None, key, state


def proposed_client(creds: Credentials, params: GroupParams, hash_spec: HashSpec,
                    x: int):
    msg1, state = proposed.prop_client_start(creds, params, hash_spec, x)
    reply = yield msg1, state
    msg3 = proposed.prop_client_confirm(expect(reply, Msg2Frame), state)
    reply = yield msg3, state
    key = proposed.prop_client_finish(expect(reply, Msg4Frame), state)
    return None, key, state


def proposed_server(msg1: Msg1Frame, record: VerifierRecord, params: GroupParams,
                    hash_spec: HashSpec, y: int):
    msg2, state = proposed.prop_server_respond(msg1, record, params, hash_spec, y)
    reply = yield msg2, state
    msg4, key = proposed.prop_server_finish(expect(reply, Msg3Frame, "MSG3"), state)
    return msg4, key, state


CLIENTS = {SCHEME_LKY: lky_client, SCHEME_PROPOSED: proposed_client}
SERVERS = {SCHEME_LKY: lky_server, SCHEME_PROPOSED: proposed_server}


@dataclass
class InMemoryRun:
    """What run_in_memory saw; on a rejection, who rejected and why."""

    transcript: Transcript
    client: object = None               # each party's latest state
    server: object = None
    key_a: Optional[SessionKey] = None  # set when that party accepted
    key_b: Optional[SessionKey] = None
    rejected_by: Optional[str] = None   # "client" or "server"
    error: Optional[PakeError] = None


def run_in_memory(client, serve: Callable, wire: Callable = lambda frame: frame,
                  ) -> InMemoryRun:
    """Pump frames between a client driver and the server driver serve(msg1) builds.

    Each frame passes through wire (the MITM experiment's tamper hook) and is
    recorded once, as the receiver gets it. An exception from the client's
    first step reaches the caller: nobody has received anything yet. A
    PakeError raised by a party on a frame it received ends the run.
    """
    run = InMemoryRun(Transcript())
    frame, run.client = next(client)
    parties = {"client": client}
    receiver = "server"
    while frame is not None:
        frame = wire(frame)
        run.transcript.record(DIR_AB if receiver == "server" else DIR_BA,
                              frame_label(frame), encode_frame(frame))
        try:
            if receiver not in parties:
                parties[receiver] = serve(frame)
                frame, state = next(parties[receiver])
            else:
                frame, state = parties[receiver].send(frame)
        except StopIteration as done:
            frame, key, state = done.value
            setattr(run, "key_b" if receiver == "server" else "key_a", key)
        except PakeError as exc:
            run.rejected_by, run.error = receiver, exc
            return run
        setattr(run, receiver, state)
        receiver = "client" if receiver == "server" else "server"
    return run


def run_pair(scheme: str, creds: Credentials, params: GroupParams,
             hash_spec: HashSpec, x: int, y: int,
             wire: Callable = lambda frame: frame) -> InMemoryRun:
    """run_in_memory for an honest client of scheme and a server enrolled with creds."""
    record = VerifierRecord(id_a=creds.id_a, id_b=creds.id_b,
                            v=derive_verifier(creds, params, hash_spec))
    return run_in_memory(
        CLIENTS[scheme](creds, params, hash_spec, x),
        lambda msg1: SERVERS[scheme](msg1, record, params, hash_spec, y), wire)
