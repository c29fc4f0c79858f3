"""The proposed verifier-typed key agreement scheme under study.

A four-message revision of the LKY baseline: the client's ephemeral value
travels unmasked, the server proves itself with a squared-exponent token
checked through a bilinear map, and both confirmations bind the shared
secret g^(x*y) directly. Each step takes and returns the wire frame
(pakelab.netio.frames) itself:

  MSG1  A -> B : id_A, T_A = g^x mod q    Msg1Frame
  MSG2  B -> A : T_B = v^y mod q          Msg2Frame
  MSG3  A -> B : d_A = h(r) mod q         Msg3Frame, r = T_B^(x * h^-1) = g^(x*y)
  MSG4  B -> A : E_B = v^(y^2) mod q      Msg4Frame, after checking d_A = F_A

The server accepts via F_A = h(T_A^y mod q) mod q, which equals h(g^(x*y))
for any hash function. It fixes F_A when it answers MSG1, raising v and T_A
to its nonce y together (core.mod_exp_each), and computes E_B as T_B^y:
v^(y^2) itself, by y's 256 bits rather than the 512 of y^2 when a named
group draws y. The client authenticates the server by checking

  e(E_B, T_A) = e(T_B, r)

an identity for honest runs (both sides carry h*x*y^2 in the exponent).
The check as it is sometimes stated, e(E_B, g) = e(T_B, r), is NOT an
identity -- on the workbench's toy run it evaluates to 4 vs 0 -- so this
module implements the minimal correction (g replaced by T_A) and keeps the
uncorrected form available for the analysis harness. Every evaluation of e
goes through core.toy_pairing, the desk-scale dlog-product oracle, so the
client checks the server exactly where q <= DESK_SCALE_BOUND; on a larger
group it skips the check and flags the session "server unauthenticated".

Both parties finish with session key h(id_A, id_B, g^(x*y)) mod q. Group
elements are reduced mod q before hashing, so transcripts are canonical.
As in pakelab.lky, the steps hold no message order; pakelab.drivers fixes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (
    DESK_SCALE_BOUND,
    Credentials,
    GroupParams,
    HashSpec,
    SessionKey,
    Tally,
    VerifierRecord,
    check_nonce,
    mod_exp,
    mod_exp_each,
    mod_inverse,
    password_exponent,
    toy_pairing,
)
from .errors import AuthFail, NotInGroup, UnknownIdentity
from .netio.frames import Msg1Frame, Msg2Frame, Msg3Frame, Msg4Frame

FLAG_DEGENERATE_TB = "degenerate T_B"
FLAG_UNAUTHENTICATED = "server unauthenticated"


@dataclass
class PropClientState:
    creds: Credentials
    params: GroupParams
    hash_spec: HashSpec
    h_exp: int
    x: int = field(repr=False)          # ephemeral; never serialized
    t_a: int
    tally: Tally
    t_b: int = 0
    r: int = 0                          # set by prop_client_confirm
    flags: list = field(default_factory=list)


@dataclass
class PropServerState:
    record: VerifierRecord
    params: GroupParams
    hash_spec: HashSpec
    y: int = field(repr=False)          # ephemeral; never serialized
    t_a: int
    t_b: int
    r_b: int = field(repr=False)        # T_A^y = g^(x*y), the shared secret
    f_a: int                            # fixed before the client's d_A is read
    tally: Tally
    e_b: int = 0


def prop_client_start(creds: Credentials, params: GroupParams, hash_spec: HashSpec,
                      x: int) -> tuple[Msg1Frame, PropClientState]:
    """Step 1: send T_A = g^x unmasked; cache the invertible password exponent.

    The client never needs the verifier v = g^h itself, only h, so it does
    not derive it (derive_verifier does, for enrollment).
    """
    check_nonce("x", x, params)
    tally = Tally()
    h_exp = password_exponent(creds, params, hash_spec, tally)
    t_a = mod_exp(params.g, x, params, tally)
    state = PropClientState(creds=creds, params=params, hash_spec=hash_spec,
                            h_exp=h_exp, x=x, t_a=t_a, tally=tally)
    return Msg1Frame(q=params.q, g=params.g, id_a=creds.id_a, t_a=t_a), state


def prop_server_respond(msg1: Msg1Frame, record: VerifierRecord,
                        params: GroupParams, hash_spec: HashSpec, y: int,
                        ) -> tuple[Msg2Frame, PropServerState]:
    """Step 2: answer with T_B = v^y, and fix F_A = h(T_A^y mod q) mod q.

    T_B and T_A^y share the nonce y, so they are raised together
    (core.mod_exp_each), after every refusal check. y is capped at q-2 so
    that T_B = 1 cannot arise honestly (v is always a generator, so v^y = 1
    only at multiples of q-1).
    """
    if record.id_a != msg1.id_a:
        raise UnknownIdentity(f"no verifier on record for id_A={msg1.id_a}")
    check_nonce("y", y, params)
    if not params.contains(msg1.t_a):
        raise NotInGroup(f"T_A = {msg1.t_a} not in Z_q^*")
    tally = Tally()
    t_b, r_b = mod_exp_each([record.v, msg1.t_a], y, params, tally)
    f_a = hash_spec.of_ints([r_b], tally) % params.q
    state = PropServerState(record=record, params=params, hash_spec=hash_spec,
                            y=y, t_a=msg1.t_a, t_b=t_b, r_b=r_b, f_a=f_a,
                            tally=tally)
    return Msg2Frame(t_b=t_b), state


def prop_client_confirm(msg2: Msg2Frame, state: PropClientState) -> Msg3Frame:
    """Step 3: recover r = T_B^(x * h^-1) = g^(x*y) and confirm with d_A = h(r) mod q.

    A received T_B of 1 collapses r to 1 for every x; the run proceeds but
    is flagged as degenerate in the state (and so in the session report).
    """
    params = state.params
    if not params.contains(msg2.t_b):
        raise NotInGroup(f"T_B = {msg2.t_b} not in Z_q^*")
    if msg2.t_b == 1:
        state.flags.append(FLAG_DEGENERATE_TB)
    exponent = state.x * mod_inverse(state.h_exp, params.order) % params.order
    state.t_b = msg2.t_b
    state.r = mod_exp(msg2.t_b, exponent, params, state.tally)
    d_a = state.hash_spec.of_ints([state.r], state.tally) % params.q
    return Msg3Frame(d_a=d_a)


def prop_server_finish(msg3: Msg3Frame, state: PropServerState,
                       ) -> tuple[Msg4Frame, SessionKey]:
    """Step 4: check d_A against F_A, fixed at step 2, then release E_B.

    F_A equals the honest client's h(g^(x*y)) mod q for every hash mode.
    E_B = v^(y^2) rides back in a fourth message so the client can run its
    server-authentication check; it is computed only after d_A verifies, as
    T_B^y, which equals v^(y^2 mod q-1) because v^(q-1) = 1.
    """
    params, hash_spec = state.params, state.hash_spec
    if msg3.d_a != state.f_a:
        raise AuthFail("client confirmation d_A does not match F_A")
    state.e_b = mod_exp(state.t_b, state.y, params, state.tally)
    key_value = hash_spec.of_ints(
        [state.record.id_a, state.record.id_b, state.r_b], state.tally) % params.q
    return Msg4Frame(e_b=state.e_b), SessionKey.from_value(key_value, params)


def prop_client_finish(msg4: Msg4Frame, state: PropClientState) -> SessionKey:
    """Step 5: authenticate the server via e(E_B, T_A) = e(T_B, r), derive the key.

    Both sides of the check are toy_pairing calls, so it runs only where
    q <= DESK_SCALE_BOUND; above that the skip is recorded as the state
    flag FLAG_UNAUTHENTICATED.
    """
    params = state.params
    if not params.contains(msg4.e_b):
        raise NotInGroup(f"E_B = {msg4.e_b} not in Z_q^*")
    if params.q > DESK_SCALE_BOUND:
        state.flags.append(FLAG_UNAUTHENTICATED)
    else:
        left = toy_pairing(msg4.e_b, state.t_a, params)
        right = toy_pairing(state.t_b, state.r, params)
        if left != right:
            raise AuthFail(
                f"server authentication failed: e(E_B, T_A) = {left} != {right} = e(T_B, r)")
    key_value = state.hash_spec.of_ints(
        [state.creds.id_a, state.creds.id_b, state.r], state.tally) % params.q
    return SessionKey.from_value(key_value, params)


def uncorrected_server_auth_check(e_b: int, t_b: int, r: int,
                                  params: GroupParams) -> tuple[int, int]:
    """Evaluate the server-auth check in its uncorrected form e(E_B, g) vs e(T_B, r).

    Returns both sides so analysis code can exhibit that the identity fails
    even on honest runs (toy golden run: 4 vs 0). The protocol itself uses
    the corrected check in prop_client_finish.
    """
    return (toy_pairing(e_b, params.g, params), toy_pairing(t_b, r, params))
