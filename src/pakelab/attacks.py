"""Executable adversaries for both schemes.

Four experiments, all deterministic given their injected nonces:

  * stolen_verifier_attack_lky: impersonate the client against the baseline
    scheme using only the stolen verifier v. Substituting v for g as the
    exponentiation base makes the two sides' secrets coincide (v^(x'y) from
    both ends), so the attack succeeds for every nonce pair with v^x' != v.
  * stolen_verifier_attack_proposed: the same substitution against the
    revised scheme. T_A^y = (v^x')^y = (v^y)^x' = T_B^x' identically, so
    the server's check passes here too; the report records the measured
    outcome next to the scheme's claimed resistance so the tension stays
    visible instead of being asserted away.
  * dictionary_census: information-theoretic offline-guess measurement. A
    candidate password is "consistent" with a wiretapped transcript iff
    some nonce pair (x', y') explains every observed value under that
    password's verifier. The dlog table settles each candidate exactly;
    desk scale only.
  * mitm_tamper_experiment: replay an honest session with one in-flight
    field substitution and report who, if anyone, accepted.

No function here ever reads a victim's password; attackers hold at most
the verifier, the transcript, and a guess list.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from . import lky
from .core import (
    DESK_SCALE_BOUND,
    Credentials,
    DlogTable,
    GroupParams,
    HashSpec,
    SCHEME_LKY,
    SCHEME_PROPOSED,
    SessionKey,
    VerifierRecord,
    exponent_reduce,
    hash_to_exponent,
    mod_exp,
    mod_inverse,
    toy_pairing,
)
from .drivers import lky_server, proposed_server, run_in_memory, run_pair
from .errors import GroupTooLarge, ScenarioError
from .netio.frames import (
    LkyMsg2Frame,
    Msg1Frame,
    Msg2Frame,
    Msg3Frame,
    Msg4Frame,
    decode_frame,
)
from .transcript import Transcript

ATTACK_STOLEN_VERIFIER_LKY = "stolen-verifier-lky"
ATTACK_STOLEN_VERIFIER_PROPOSED = "stolen-verifier-proposed"
ATTACK_MITM = "mitm"

# What the revised scheme is advertised to withstand; printed verbatim next
# to measured verdicts so reports never conflate claim and observation.
PROPOSED_RESISTANCE_CLAIM = "claimed: verifier theft alone does not let an attacker authenticate as the client"


@dataclass
class AttackReport:
    scheme: str
    attack: str
    succeeded: bool
    attacker_key: Optional[SessionKey]
    victim_key: Optional[SessionKey]
    transcript: Transcript
    notes: str = ""

    def __post_init__(self):
        # impersonation semantics: a key is learned exactly on success
        if self.succeeded and self.attacker_key is None:
            raise ValueError("succeeded implies attacker_key")
        if not self.succeeded and self.attacker_key is not None:
            raise ValueError("attacker_key implies succeeded")


@dataclass
class DictionaryCensus:
    dictionary: List[int]
    consistent: List[int]
    enumeration_bound: int
    witnesses: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    rejections: Dict[int, str] = field(default_factory=dict)


@dataclass(frozen=True)
class TamperSpec:
    """One in-flight substitution: the named message field becomes value."""

    field: str
    value: int


def _lky_impersonator(v: int, ids: Tuple[int, int], params: GroupParams,
                      hash_spec: HashSpec, x: int, notes: List[str]):
    """Client driver of an attacker who holds v: T_A = v^x (+) v, r = T_B^x."""
    id_a, id_b = ids
    t_a_masked = lky.xor_mask(mod_exp(v, x, params), v, params)
    msg2 = yield Msg1Frame(q=params.q, g=params.g, id_a=id_a, t_a=t_a_masked), None
    r = mod_exp(lky.xor_unmask(msg2.t_b_masked, v, params), x, params)
    if msg2.d_b != hash_spec.of_ints([id_b, t_a_masked, r]):
        notes.append("server confirmation d_B did not verify on the attacker side")
    d_a = hash_spec.of_ints([id_a, msg2.t_b_masked, r])
    key = SessionKey.from_value(hash_spec.of_ints([r]) % params.q, params)
    return Msg3Frame(d_a=d_a), key, None


def stolen_verifier_attack_lky(v: int, ids: Tuple[int, int], params: GroupParams,
                               hash_spec: HashSpec, x_attacker: int, y_server: int,
                               server_record: Optional[VerifierRecord] = None,
                               ) -> AttackReport:
    """Impersonate the client in the baseline scheme with a stolen verifier.

    The attacker sends T_A = v^x' (+) v. The server unmasks to v^x' and
    computes r_B = v^(x'y); the attacker reaches the same point as
    (unmasked T_B)^x' = v^(x'y) without ever holding the password. Pass a
    different server_record to model an attacker whose copy of v is stale
    or guessed; mismatched copies fail.
    """
    record = server_record if server_record is not None else VerifierRecord(
        id_a=ids[0], id_b=ids[1], v=v)
    notes: List[str] = ["attacker holds v only; base of T_A is v"]
    run = run_in_memory(
        _lky_impersonator(v, ids, params, hash_spec, x_attacker, notes),
        lambda msg1: lky_server(msg1, record, params, hash_spec, y_server))
    if run.rejected_by == "client":
        notes = [f"attacker could not unmask T_B: {run.error}"]
    elif run.server is None:
        notes = [f"server rejected Msg1: {run.error}"]
    elif run.error is not None:
        notes.append(f"server rejected d_A: {run.error}")
    else:
        notes.append("server accepted; keys "
                     + ("match" if run.key_a == run.key_b else "differ"))
    # the attacker derives its key before the server's verdict on d_A
    return AttackReport(scheme=SCHEME_LKY, attack=ATTACK_STOLEN_VERIFIER_LKY,
                        succeeded=run.error is None,
                        attacker_key=None if run.error else run.key_a,
                        victim_key=run.key_b, transcript=run.transcript,
                        notes="; ".join(notes))


def _proposed_impersonator(base: int, ids: Tuple[int, int], params: GroupParams,
                           hash_spec: HashSpec, x: int):
    """Client driver of an attacker with T_A = base^x; its state is r = T_B^x."""
    id_a, id_b = ids
    msg2 = yield Msg1Frame(q=params.q, g=params.g, id_a=id_a,
                           t_a=mod_exp(base, x, params)), None
    # attacker's stand-in for r = g^(x*y): exponentiate T_B by its own nonce
    r = mod_exp(msg2.t_b, x, params)
    yield Msg3Frame(d_a=hash_spec.of_ints([r]) % params.q), r
    key = SessionKey.from_value(hash_spec.of_ints([id_a, id_b, r]) % params.q,
                                params)
    return None, key, r


def stolen_verifier_attack_proposed(v: int, ids: Tuple[int, int],
                                    params: GroupParams, hash_spec: HashSpec,
                                    x_attacker: int, y_server: int,
                                    server_record: Optional[VerifierRecord] = None,
                                    attacker_base: Optional[int] = None,
                                    ) -> AttackReport:
    """Run the verifier-substitution attack against the revised scheme.

    With attacker_base left at v, T_A = v^x' and the server's acceptance
    test compares h(T_A^y) with the attacker's h(T_B^x'): both exponents
    are x'y over base v, so the measured outcome is acceptance. Passing
    attacker_base=g models an attacker without v, whose confirmation is
    computed over v^(x'y) while the server checks g^(x'y); those disagree
    except at degenerate nonce pairs.
    """
    record = server_record if server_record is not None else VerifierRecord(
        id_a=ids[0], id_b=ids[1], v=v)
    base = attacker_base if attacker_base is not None else v
    notes: List[str] = [PROPOSED_RESISTANCE_CLAIM,
                        f"attacker base for T_A is {'v' if base == v else base}"]
    run = run_in_memory(
        _proposed_impersonator(base, ids, params, hash_spec, x_attacker),
        lambda msg1: proposed_server(msg1, record, params, hash_spec, y_server))
    if run.server is None:
        notes = [f"server rejected Msg1: {run.error}"]
    elif run.error is not None:
        notes.append(f"measured: server rejected d_A ({run.error})")
    else:
        notes.append("measured: server accepted the impersonation; keys "
                     + ("match" if run.key_a == run.key_b else "differ"))
        if params.q <= DESK_SCALE_BOUND:
            server, r_attacker = run.server, run.client
            passes = (toy_pairing(server.e_b, server.t_a, params)
                      == toy_pairing(server.t_b, r_attacker, params))
            notes.append("attacker-side server-auth check "
                         + ("passes" if passes else "fails"))
    return AttackReport(scheme=SCHEME_PROPOSED,
                        attack=ATTACK_STOLEN_VERIFIER_PROPOSED,
                        succeeded=run.error is None, attacker_key=run.key_a,
                        victim_key=run.key_b, transcript=run.transcript,
                        notes="; ".join(notes))


# each tamperable field: the frame that carries it and its name there
_TAMPER_FIELDS = {
    SCHEME_PROPOSED: {"t_a": (Msg1Frame, "t_a"), "t_b": (Msg2Frame, "t_b"),
                      "d_a": (Msg3Frame, "d_a"), "e_b": (Msg4Frame, "e_b")},
    SCHEME_LKY: {"t_a_masked": (Msg1Frame, "t_a"),
                 "t_b_masked": (LkyMsg2Frame, "t_b_masked"),
                 "d_b": (LkyMsg2Frame, "d_b"), "d_a": (Msg3Frame, "d_a")},
}


def _census_observations(transcript: Transcript, params: GroupParams):
    """Pull id_a and the revised scheme's four fields out of a wiretapped session."""
    frames = {type(frame): frame
              for frame in (decode_frame(entry.data) for entry in transcript)}
    msg1 = frames.get(Msg1Frame)
    if msg1 is not None and (msg1.q, msg1.g) != (params.q, params.g):
        raise ScenarioError(
            f"transcript params ({msg1.q}, {msg1.g}) do not match "
            f"({params.q}, {params.g})")
    fields = _TAMPER_FIELDS[SCHEME_PROPOSED]
    seen = {name: getattr(frames[carrier], attr)
            for name, (carrier, attr) in fields.items() if carrier in frames}
    if msg1 is not None:
        seen["id_a"] = msg1.id_a
    missing = {"id_a", *fields} - set(seen)
    if missing:
        raise ScenarioError(
            f"transcript is not a completed session; missing {sorted(missing)}")
    return seen


def dictionary_census(transcript: Transcript, dictionary: List[int],
                      params: GroupParams, hash_spec: HashSpec,
                      id_b: int) -> DictionaryCensus:
    """Mark each candidate password consistent or not with a wiretap.

    A candidate P' is consistent iff some (x', y') in [1, q-2]^2 satisfies,
    under v' = g^(adjusted h(id_A, id_B, P')):

        g^x' = T_A,  v'^y' = T_B,
        h(T_A^y') mod q = d_A,  h(T_B^(x' * h'^-1)) mod q = d_A,
        v'^(y'^2 mod (q-1)) = E_B

    g and v' both generate the group, so the first two equations fix x'
    and y'; the dlog table reads them off, and the candidate stands or
    falls with that one pair, at four exponentiations. id_b is supplied by
    the caller because the wire only ever carries id_a.

    This measures information leakage with unlimited computation, not the
    cost of extracting it.
    """
    obs = _census_observations(transcript, params)
    bound = (params.q - 2) ** 2
    if params.q > DESK_SCALE_BOUND:
        raise GroupTooLarge(
            f"census needs q <= {DESK_SCALE_BOUND}, got {params.q}")
    census = DictionaryCensus(dictionary=list(dictionary), consistent=[],
                              enumeration_bound=bound)
    for password in dictionary:
        witness, why = _census_one(obs, password, params, hash_spec, id_b)
        if witness is not None:
            census.consistent.append(password)
            census.witnesses[password] = witness
        else:
            census.rejections[password] = why
    return census


def _census_one(obs, password: int, params: GroupParams, hash_spec: HashSpec,
                id_b: int):
    q, order = params.q, params.order
    h_exp = hash_to_exponent(
        hash_spec.of_ints([obs["id_a"], id_b, password]), params)
    v_cand = mod_exp(params.g, h_exp, params)
    h_inv = mod_inverse(h_exp, order)
    t_a, t_b, d_a, e_b = obs["t_a"], obs["t_b"], obs["d_a"], obs["e_b"]
    table = DlogTable.for_params(params)
    x_c = table.dlog(t_a)
    if not 1 <= x_c <= q - 2:
        return None, "T_A has no admissible discrete log"
    y_c = (table.dlog(t_b) * h_inv) % order
    if not 1 <= y_c <= q - 2:
        return None, "T_B has no admissible nonce under this password"
    client_r = mod_exp(t_b, exponent_reduce(x_c * h_inv, params), params)
    if (hash_spec.of_ints([mod_exp(t_a, y_c, params)]) % q != d_a
            or hash_spec.of_ints([client_r]) % q != d_a
            or mod_exp(v_cand, exponent_reduce(y_c * y_c, params), params) != e_b):
        return None, "unique nonce pair fails the confirmation equations"
    return (x_c, y_c), ""


def mitm_tamper_experiment(scheme: str, tamper: TamperSpec, params: GroupParams,
                           hash_spec: HashSpec, nonces: Tuple[int, int],
                           creds: Credentials) -> AttackReport:
    """Substitute one field in flight during an honest run; see who notices.

    The attacker holds neither the password nor the verifier; all it can do
    is rewrite a message, so it never ends up authenticated as the client
    and succeeded is always False. What varies is WHO rejects (recorded in
    notes), or, for an identity substitution, that the session completes
    normally. Were a genuinely changed value ever accepted end to end, the
    notes would carry a loud TAMPER ACCEPTED marker. The transcript records
    the post-tamper wire view.
    """
    if tamper.value < 0:
        raise ScenarioError("tamper values must be nonnegative wire integers")
    if scheme not in _TAMPER_FIELDS:
        raise ScenarioError(f"unknown scheme {scheme!r}")
    if tamper.field not in _TAMPER_FIELDS[scheme]:
        raise ScenarioError(f"no such field in this scheme: {tamper.field!r}")
    carrier, name = _TAMPER_FIELDS[scheme][tamper.field]
    notes: List[str] = []

    def wire(frame):
        if not isinstance(frame, carrier):
            return frame
        value = getattr(frame, name)
        if tamper.value == value:
            notes.append(f"identity substitution on {tamper.field}; "
                         "wire value unchanged")
        else:
            notes.append(f"replaced {tamper.field} = {value} with "
                         f"{tamper.value} in flight")
        if (tamper.field.endswith("_masked")
                and tamper.value.bit_length() > 8 * params.q_byte_len):
            raise ScenarioError(
                f"tamper value {tamper.value} does not fit a "
                f"{params.q_byte_len}-byte masked field")
        return replace(frame, **{name: tamper.value})

    run = run_pair(scheme, creds, params, hash_spec, *nonces, wire=wire)
    if run.error is not None:
        notes.append(f"{run.rejected_by} rejected: {run.error}")
        return AttackReport(scheme=scheme, attack=ATTACK_MITM, succeeded=False,
                            attacker_key=None, victim_key=None,
                            transcript=run.transcript, notes="; ".join(notes))
    changed = any(n.startswith("replaced") for n in notes)
    notes.append("session completed; keys "
                 + ("match" if run.key_a == run.key_b else "differ"))
    if changed:
        # an accepted, genuinely altered run; surfaced loudly, never expected
        notes.append("TAMPER ACCEPTED: substitution went unnoticed")
    return AttackReport(scheme=scheme, attack=ATTACK_MITM, succeeded=False,
                        attacker_key=None, victim_key=run.key_b,
                        transcript=run.transcript, notes="; ".join(notes))
