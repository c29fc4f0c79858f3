"""The baseline verifier-based key agreement scheme ("lky" on the wire).

Three messages; group elements travel XOR-masked with the verifier v. Each
step takes and returns the wire frame (pakelab.netio.frames) itself:

  MSG1      A -> B : id_A, T_A = g^x (+) v                     Msg1Frame
  LKY-MSG2  B -> A : T_B = v^y (+) v,  d_B = h(id_B, T_A, r)   LkyMsg2Frame
  MSG3      A -> B : d_A = h(id_A, T_B, r)                     Msg3Frame

where r = g^(x*y) is reached from both ends: the server computes
(T_A (+) v)^y, together with v^y, and the client (T_B (+) v)^(x * h^-1)
with h^-1 the inverse of the adjusted password hash mod q-1. Hash inputs T_A / T_B are the masked
integers exactly as they travel; a masked integer wider than q is a
malformed frame. Both sides finish with session key h(r) mod q.

This scheme is the workbench's broken baseline: anyone holding the stolen
verifier can run the client side with v as the exponentiation base and be
accepted (see pakelab.attacks.stolen_verifier_attack_lky).

Steps hold no message order (pakelab.drivers fixes it) and are deterministic:
ephemeral exponents are injected by the caller, so golden runs and attack
scripts are reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (
    Credentials,
    GroupParams,
    HashSpec,
    SessionKey,
    Tally,
    VerifierRecord,
    check_nonce,
    derive_verifier,
    encode_residue,
    mod_exp,
    mod_exp_each,
    mod_inverse,
    password_exponent,
)
from .errors import (
    AuthFail,
    MalformedFrame,
    RetryNonce,
    UnknownIdentity,
    UnmaskOutOfRange,
)
from .netio.frames import LkyMsg2Frame, Msg1Frame, Msg3Frame


def xor_mask(value: int, v: int, params: GroupParams) -> int:
    """The wire integer of a group element XORed with v.

    Equal to the bytewise XOR of both canonical fixed-width encodings. The
    result is unconstrained (it may exceed q) but never wider than
    q_byte_len bytes.
    """
    encode_residue(value, params)           # OutOfRange unless 0 <= value < q
    encode_residue(v, params)
    if not params.contains(value) or not params.contains(v):
        raise UnmaskOutOfRange("mask operands must lie in Z_q^*")
    return value ^ v


def xor_unmask(masked: int, v: int, params: GroupParams) -> int:
    """Strip the verifier mask, rejecting anything outside Z_q^*.

    A masked wire integer wider than q_byte_len bytes is a malformed frame.
    An all-zero masked value is refused outright: it can only arise from
    masking v with itself, which honest senders avoid by resampling, so
    receiving one signals a malformed or reflected message.
    """
    if masked.bit_length() > 8 * params.q_byte_len:
        raise MalformedFrame("masked value exceeds the group width")
    if masked == 0:
        raise UnmaskOutOfRange("all-zero masked value")
    value = masked ^ v
    if not params.contains(value):
        raise UnmaskOutOfRange(f"unmasked value {value} not in Z_q^*")
    return value


@dataclass
class LkyClientState:
    creds: Credentials
    params: GroupParams
    hash_spec: HashSpec
    v: int
    x: int = field(repr=False)          # ephemeral; never serialized
    t_a_masked: int
    tally: Tally
    flags: list = field(default_factory=list)   # always empty; read like proposed's


@dataclass
class LkyServerState:
    record: VerifierRecord
    params: GroupParams
    hash_spec: HashSpec
    y: int = field(repr=False)          # ephemeral; never serialized
    t_b_masked: int
    r_b: int
    d_a_expected: int
    d_b: int
    tally: Tally


def lky_client_start(creds: Credentials, params: GroupParams, hash_spec: HashSpec,
                     x: int) -> tuple[Msg1Frame, LkyClientState]:
    """Step 1: mask the ephemeral public value under the verifier.

    Raises RetryNonce when g^x equals v: the mask would be all zeros, which
    receivers reject, so the caller must resample x.
    """
    check_nonce("x", x, params)
    tally = Tally()
    v = derive_verifier(creds, params, hash_spec, tally)
    t_a = mod_exp(params.g, x, params, tally)
    if t_a == v:
        raise RetryNonce("g^x equals v; resample x")
    t_a_masked = xor_mask(t_a, v, params)
    state = LkyClientState(creds=creds, params=params, hash_spec=hash_spec, v=v,
                           x=x, t_a_masked=t_a_masked, tally=tally)
    return Msg1Frame(q=params.q, g=params.g, id_a=creds.id_a, t_a=t_a_masked), state


def lky_server_respond(msg1: Msg1Frame, record: VerifierRecord, params: GroupParams,
                       hash_spec: HashSpec, y: int,
                       ) -> tuple[LkyMsg2Frame, LkyServerState]:
    """Step 2: answer with the masked v^y and the server confirmation d_B.

    v^y and r = T_A^y share the nonce y, so they are raised together
    (core.mod_exp_each). The server's expected client confirmation is fixed
    here, before any client response is read. Raises RetryNonce when v^y
    equals v (zero mask), mirroring the client-side rule.
    """
    if record.id_a != msg1.id_a:
        raise UnknownIdentity(f"no verifier on record for id_A={msg1.id_a}")
    check_nonce("y", y, params)
    tally = Tally()
    v = record.v
    t_a = xor_unmask(msg1.t_a, v, params)
    v_y, r_b = mod_exp_each([v, t_a], y, params, tally)
    if v_y == v:
        raise RetryNonce("v^y equals v; resample y")
    t_b_masked = xor_mask(v_y, v, params)
    d_a_expected = hash_spec.of_ints([msg1.id_a, t_b_masked, r_b], tally)
    d_b = hash_spec.of_ints([record.id_b, msg1.t_a, r_b], tally)
    state = LkyServerState(record=record, params=params, hash_spec=hash_spec, y=y,
                           t_b_masked=t_b_masked, r_b=r_b,
                           d_a_expected=d_a_expected, d_b=d_b, tally=tally)
    return LkyMsg2Frame(t_b_masked=t_b_masked, d_b=d_b), state


def lky_client_finish(msg2: LkyMsg2Frame, state: LkyClientState,
                      ) -> tuple[Msg3Frame, SessionKey]:
    """Steps 3 and 5: authenticate the server, emit d_A, derive the key.

    r is recovered as (v^y)^(x * h^-1) mod q, with the inverse taken mod
    q-1; it equals the server's (g^x)^y in every honest run.
    """
    params, creds, hash_spec = state.params, state.creds, state.hash_spec
    t_b = xor_unmask(msg2.t_b_masked, state.v, params)
    h_exp = password_exponent(creds, params, hash_spec, state.tally)
    exponent = state.x * mod_inverse(h_exp, params.order) % params.order
    r_a = mod_exp(t_b, exponent, params, state.tally)
    d_b_expected = hash_spec.of_ints(
        [creds.id_b, state.t_a_masked, r_a], state.tally)
    if msg2.d_b != d_b_expected:
        raise AuthFail("server confirmation d_B does not verify")
    d_a = hash_spec.of_ints([creds.id_a, msg2.t_b_masked, r_a], state.tally)
    key = SessionKey.from_value(
        hash_spec.of_ints([r_a], state.tally) % params.q, params)
    return Msg3Frame(d_a=d_a), key


def lky_server_finish(msg3: Msg3Frame, state: LkyServerState) -> SessionKey:
    """Step 4: accept iff d_A matches the precomputed expectation."""
    if msg3.d_a != state.d_a_expected:
        raise AuthFail("client confirmation d_A does not verify")
    key = SessionKey.from_value(
        state.hash_spec.of_ints([state.r_b], state.tally) % state.params.q,
        state.params)
    return key
