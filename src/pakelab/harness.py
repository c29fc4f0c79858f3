"""Deterministic scenario runner and instrumentation.

Everything observable about a run lands in a SessionReport: the framed
transcript, both keys, both authentication verdicts, and cost counters.
Scenarios with explicit nonces reproduce byte for byte; seeded scenarios
resample on RetryNonce exactly as a live client would, so sweeps never
abort on the measure-zero nonce collisions.

Costs are counted, not timed. Registration-phase exponentiation (deriving
v from the password) is tallied in its own bucket: it happens once per
enrollment in deployment, and folding it into per-session costs would
misstate every comparison this table exists to make.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from . import lky, proposed
from .attacks import (
    ATTACK_MITM,
    ATTACK_STOLEN_VERIFIER_LKY,
    ATTACK_STOLEN_VERIFIER_PROPOSED,
    AttackReport,
    TamperSpec,
    mitm_tamper_experiment,
    stolen_verifier_attack_lky,
    stolen_verifier_attack_proposed,
)
from .core import (
    DESK_SCALE_BOUND,
    DIGEST256,
    TOYSUM,
    Credentials,
    DlogTable,
    GroupParams,
    HashSpec,
    SCHEME_LKY,
    SCHEME_PROPOSED,
    SessionKey,
    TOY_CREDS,
    TOY_PARAMS,
    VerifierRecord,
    derive_verifier,
    sample_nonce,
)
from .errors import CounterDrift, PakeError, RetryNonce, ScenarioError
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


@dataclass
class Counters:
    modexp_client: int = 0
    modexp_server: int = 0
    modexp_registration: int = 0
    messages: int = 0
    round_trips: int = 0
    bytes_on_wire: int = 0
    hash_evals: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "modexp_client": self.modexp_client,
            "modexp_server": self.modexp_server,
            "modexp_registration": self.modexp_registration,
            "messages": self.messages,
            "round_trips": self.round_trips,
            "bytes_on_wire": self.bytes_on_wire,
            "hash_evals": self.hash_evals,
        }


@dataclass
class Scenario:
    scheme: str
    params: GroupParams = TOY_PARAMS
    creds: Credentials = TOY_CREDS
    hash_spec: HashSpec = field(default_factory=lambda: HashSpec(TOYSUM))
    x: Optional[int] = None
    y: Optional[int] = None
    seed: Optional[int] = None
    tamper: Optional[TamperSpec] = None
    attack: Optional[str] = None

    def nonce_pairs(self):
        """Yield (x, y) pairs: the explicit pair forever, or a seeded stream."""
        if self.x is not None and self.y is not None:
            while True:
                yield self.x, self.y
        elif self.seed is not None:
            rng = random.Random(self.seed)
            while True:
                yield sample_nonce(self.params, rng), sample_nonce(self.params, rng)
        else:
            raise ScenarioError("scenario needs explicit nonces or a seed")


@dataclass
class SessionReport:
    scheme: str
    params: GroupParams
    transcript: Transcript
    key_a: Optional[SessionKey]
    key_b: Optional[SessionKey]
    auth_a_ok: bool
    auth_b_ok: bool
    counters: Counters
    flags: List[str] = field(default_factory=list)
    error: Optional[str] = None

    def to_json_obj(self) -> dict:
        return {
            "kind": "session",
            "scheme": self.scheme,
            "params": {"q": str(self.params.q), "g": str(self.params.g)},
            "transcript": [
                {"direction": e.direction, "label": e.label, "frame": e.hex}
                for e in self.transcript
            ],
            "key_a": str(self.key_a.value) if self.key_a else None,
            "key_b": str(self.key_b.value) if self.key_b else None,
            "auth_a_ok": self.auth_a_ok,
            "auth_b_ok": self.auth_b_ok,
            "counters": self.counters.as_dict(),
            "flags": list(self.flags),
            "error": self.error,
        }

    def to_json_line(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)

    def digest(self) -> str:
        return hashlib.sha256(self.to_json_line().encode()).hexdigest()


def attack_report_to_json(report: AttackReport) -> dict:
    return {
        "kind": "attack",
        "scheme": report.scheme,
        "attack": report.attack,
        "succeeded": report.succeeded,
        "attacker_key": str(report.attacker_key.value) if report.attacker_key else None,
        "victim_key": str(report.victim_key.value) if report.victim_key else None,
        "transcript": [
            {"direction": e.direction, "label": e.label, "frame": e.hex}
            for e in report.transcript
        ],
        "counters": {
            "messages": report.transcript.messages,
            "bytes_on_wire": report.transcript.bytes_on_wire,
        },
        "notes": report.notes,
    }


def append_log_line(path: Union[str, Path], obj: dict):
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, sort_keys=True) + "\n")


def run_honest_session(scenario: Scenario) -> SessionReport:
    """Drive both state machines over an in-memory channel.

    Protocol rejections land in the report (error text plus false auth
    flags); only malformed scenarios raise.
    """
    if scenario.tamper is not None or scenario.attack is not None:
        raise ScenarioError("honest sessions take no tamper or attack")
    if scenario.scheme == SCHEME_LKY:
        runner = _run_lky
    elif scenario.scheme == SCHEME_PROPOSED:
        runner = _run_proposed
    else:
        raise ScenarioError(f"unknown scheme {scenario.scheme!r}")

    explicit = scenario.x is not None and scenario.y is not None
    last_retry: Optional[RetryNonce] = None
    for attempt, (x, y) in enumerate(scenario.nonce_pairs()):
        if attempt >= MAX_NONCE_RESAMPLES:
            break
        try:
            return runner(scenario, x, y)
        except RetryNonce as exc:
            last_retry = exc
            if explicit:
                # deterministic scenarios must not silently change nonces
                return _aborted_report(scenario, f"retry nonce: {exc}")
    return _aborted_report(scenario, f"retry nonce (resamples exhausted): {last_retry}")


def _aborted_report(scenario: Scenario, error: str) -> SessionReport:
    return SessionReport(scheme=scenario.scheme, params=scenario.params,
                         transcript=Transcript(), key_a=None, key_b=None,
                         auth_a_ok=False, auth_b_ok=False, counters=Counters(),
                         flags=[], error=error)


def counters_from(client_tally, server_tally, transcript: Transcript) -> Counters:
    """Session counters from both tallies; a one-sided view passes Tally()."""
    return Counters(
        modexp_client=client_tally.modexp,
        modexp_server=server_tally.modexp,
        modexp_registration=(client_tally.modexp_registration
                             + server_tally.modexp_registration),
        messages=transcript.messages,
        round_trips=(transcript.messages + 1) // 2,
        bytes_on_wire=transcript.bytes_on_wire,
        hash_evals=client_tally.hash_evals + server_tally.hash_evals,
    )


def _failed_session(scenario: Scenario, transcript: Transcript, counters: Counters,
                    flags: List[str], who: str, exc: Exception,
                    auth_a: bool = False) -> SessionReport:
    return SessionReport(scheme=scenario.scheme, params=scenario.params,
                         transcript=transcript, key_a=None, key_b=None,
                         auth_a_ok=auth_a, auth_b_ok=False, counters=counters,
                         flags=flags, error=f"{who}: {exc}")


def _run_lky(scenario: Scenario, x: int, y: int) -> SessionReport:
    params, creds, hash_spec = scenario.params, scenario.creds, scenario.hash_spec
    record = VerifierRecord(id_a=creds.id_a, id_b=creds.id_b,
                            v=derive_verifier(creds, params, hash_spec))
    transcript = Transcript()

    msg1, client = lky.lky_client_start(creds, params, hash_spec, x)
    transcript.record(DIR_AB, "msg1", encode_frame(
        Msg1Frame(q=params.q, g=params.g, id_a=msg1.id_a,
                  t_a=msg1.t_a_masked.as_int)))
    msg2, server = lky.lky_server_respond(msg1, record, params, hash_spec, y)
    transcript.record(DIR_BA, "lky-msg2", encode_frame(
        LkyMsg2Frame(t_b_masked=msg2.t_b_masked.as_int, d_b=msg2.d_b)))

    try:
        msg3, key_a = lky.lky_client_finish(msg2, client)
    except PakeError as exc:
        return _failed_session(scenario, transcript,
                               counters_from(client.tally, server.tally, transcript),
                               [], "client", exc)
    transcript.record(DIR_AB, "msg3", encode_frame(Msg3Frame(d_a=msg3.d_a)))

    try:
        key_b = lky.lky_server_finish(msg3, server)
    except PakeError as exc:
        return _failed_session(scenario, transcript,
                               counters_from(client.tally, server.tally, transcript),
                               [], "server", exc, auth_a=True)

    return SessionReport(scheme=scenario.scheme, params=params,
                         transcript=transcript, key_a=key_a, key_b=key_b,
                         auth_a_ok=True, auth_b_ok=True,
                         counters=counters_from(client.tally, server.tally,
                                                transcript),
                         flags=[])


def _run_proposed(scenario: Scenario, x: int, y: int) -> SessionReport:
    params, creds, hash_spec = scenario.params, scenario.creds, scenario.hash_spec
    record = VerifierRecord(id_a=creds.id_a, id_b=creds.id_b,
                            v=derive_verifier(creds, params, hash_spec))
    transcript = Transcript()

    msg1, client = proposed.prop_client_start(creds, params, hash_spec, x)
    transcript.record(DIR_AB, "msg1", encode_frame(
        Msg1Frame(q=params.q, g=params.g, id_a=msg1.id_a, t_a=msg1.t_a)))
    msg2, server = proposed.prop_server_respond(msg1, record, params, hash_spec, y)
    transcript.record(DIR_BA, "msg2", encode_frame(Msg2Frame(t_b=msg2.t_b)))

    msg3 = proposed.prop_client_confirm(msg2, client)
    transcript.record(DIR_AB, "msg3", encode_frame(Msg3Frame(d_a=msg3.d_a)))

    try:
        msg4, key_b = proposed.prop_server_finish(msg3, server)
    except PakeError as exc:
        return _failed_session(scenario, transcript,
                               counters_from(client.tally, server.tally, transcript),
                               list(client.flags), "server", exc)
    transcript.record(DIR_BA, "msg4", encode_frame(Msg4Frame(e_b=msg4.e_b)))

    skip = params.q > DESK_SCALE_BOUND
    try:
        key_a = proposed.prop_client_finish(msg4, client, skip_server_auth=skip)
    except PakeError as exc:
        report = _failed_session(scenario, transcript,
                                 counters_from(client.tally, server.tally,
                                               transcript),
                                 list(client.flags), "client", exc)
        report.auth_b_ok = True            # the server had already accepted
        return report

    return SessionReport(scheme=scenario.scheme, params=params,
                         transcript=transcript, key_a=key_a, key_b=key_b,
                         auth_a_ok=not skip, auth_b_ok=True,
                         counters=counters_from(client.tally, server.tally,
                                                transcript),
                         flags=list(client.flags))


def run_attack_scenario(scenario: Scenario) -> AttackReport:
    """Dispatch to the attacks module with nonces resolved from the scenario."""
    if scenario.attack is None:
        raise ScenarioError("scenario names no attack")
    x, y = next(scenario.nonce_pairs())
    params, creds, hash_spec = scenario.params, scenario.creds, scenario.hash_spec
    if scenario.attack == ATTACK_STOLEN_VERIFIER_LKY:
        v = derive_verifier(creds, params, hash_spec)
        return stolen_verifier_attack_lky(v, (creds.id_a, creds.id_b), params,
                                          hash_spec, x, y)
    if scenario.attack == ATTACK_STOLEN_VERIFIER_PROPOSED:
        v = derive_verifier(creds, params, hash_spec)
        return stolen_verifier_attack_proposed(v, (creds.id_a, creds.id_b), params,
                                               hash_spec, x, y)
    if scenario.attack == ATTACK_MITM:
        if scenario.tamper is None:
            raise ScenarioError("mitm scenario needs a tamper spec")
        return mitm_tamper_experiment(scenario.scheme, scenario.tamper, params,
                                      hash_spec, (x, y), creds)
    raise ScenarioError(f"unknown attack {scenario.attack!r}")


# -- efficiency accounting ---------------------------------------------------

_CLAIMS = {
    (SCHEME_PROPOSED, "modexp_client"): "<= 3 per party",
    (SCHEME_PROPOSED, "modexp_server"): "<= 3 per party",
    (SCHEME_PROPOSED, "round_trips"): "2",
    (SCHEME_LKY, "modexp_client"): "2n (multi-party form)",
    (SCHEME_LKY, "modexp_server"): "2n (multi-party form)",
    (SCHEME_LKY, "round_trips"): "n (multi-party form)",
}

_CONSTANT_METRICS = ("modexp_client", "modexp_server", "modexp_registration",
                     "messages", "round_trips", "hash_evals")
_ALL_METRICS = _CONSTANT_METRICS + ("bytes_on_wire",)


@dataclass(frozen=True)
class EfficiencyRow:
    scheme: str
    metric: str
    measured: str
    claimed: str


@dataclass
class EfficiencyTable:
    rows: List[EfficiencyRow]
    trials: int

    def render_text(self) -> str:
        headers = ("scheme", "metric", "measured", "claimed")
        table = [headers] + [
            (r.scheme, r.metric, r.measured, r.claimed) for r in self.rows]
        widths = [max(len(row[i]) for row in table) for i in range(4)]
        lines = []
        for n, row in enumerate(table):
            lines.append("  ".join(cell.ljust(widths[i])
                                   for i, cell in enumerate(row)).rstrip())
            if n == 0:
                lines.append("  ".join("-" * widths[i] for i in range(4)))
        return "\n".join(lines)

    def render_csv(self) -> str:
        lines = ["scheme,metric,measured,claimed"]
        for r in self.rows:
            claimed = f'"{r.claimed}"' if "," in r.claimed else r.claimed
            lines.append(f"{r.scheme},{r.metric},{r.measured},{claimed}")
        return "\n".join(lines) + "\n"


def compare_efficiency(params: GroupParams, trials: int, seed: int,
                       hash_spec: Optional[HashSpec] = None,
                       creds: Credentials = TOY_CREDS) -> EfficiencyTable:
    """Measure per-session costs for both schemes over seeded honest runs.

    Deterministic counters must agree across every trial of a scheme
    (CounterDrift otherwise); bytes_on_wire legitimately varies with nonce
    widths and is reported as a mean.
    """
    if trials < 1:
        raise ScenarioError("trials must be >= 1")
    spec = hash_spec if hash_spec is not None else HashSpec(DIGEST256)
    rows: List[EfficiencyRow] = []
    for scheme in (SCHEME_LKY, SCHEME_PROPOSED):
        samples: List[Counters] = []
        for trial in range(trials):
            report = run_honest_session(Scenario(
                scheme=scheme, params=params, creds=creds, hash_spec=spec,
                seed=seed + trial * 7919))
            if report.error is not None:
                raise ScenarioError(
                    f"efficiency trial failed unexpectedly: {report.error}")
            samples.append(report.counters)
        first = samples[0].as_dict()
        for other in samples[1:]:
            for metric in _CONSTANT_METRICS:
                if other.as_dict()[metric] != first[metric]:
                    raise CounterDrift(
                        f"{scheme} {metric}: {other.as_dict()[metric]} != "
                        f"{first[metric]} across trials")
        for metric in _ALL_METRICS:
            if metric == "bytes_on_wire":
                mean = sum(s.bytes_on_wire for s in samples) / len(samples)
                measured = f"{mean:.1f} (mean)"
            else:
                measured = str(first[metric])
            rows.append(EfficiencyRow(scheme=scheme, metric=metric,
                                      measured=measured,
                                      claimed=_CLAIMS.get((scheme, metric), "")))
    return EfficiencyTable(rows=rows, trials=trials)


# -- golden vectors ----------------------------------------------------------

@dataclass(frozen=True)
class GoldenVector:
    name: str
    scenario: Scenario
    expected: Dict[str, int]


def golden_vectors() -> List[GoldenVector]:
    """The pinned toy-group vectors both schemes must reproduce exactly."""
    return [
        GoldenVector(
            name="proposed-toy",
            scenario=Scenario(scheme=SCHEME_PROPOSED, params=TOY_PARAMS,
                              creds=TOY_CREDS, hash_spec=HashSpec(TOYSUM),
                              x=3, y=4),
            expected={"v": 7, "t_a": 8, "t_b": 9, "r": 1, "d_a": 1,
                      "f_a": 1, "e_b": 9, "key": 9},
        ),
        GoldenVector(
            name="lky-toy",
            scenario=Scenario(scheme=SCHEME_LKY, params=TOY_PARAMS,
                              creds=TOY_CREDS, hash_spec=HashSpec(TOYSUM),
                              x=3, y=4),
            expected={"v": 7, "t_a_masked": 15, "t_b_masked": 14, "r": 1,
                      "d_b": 28, "d_a": 24, "key": 1},
        ),
    ]


def replay_golden(vector: GoldenVector) -> Dict[str, int]:
    """Re-run a golden scenario and harvest its intermediate values."""
    scenario = vector.scenario
    params, creds, hash_spec = scenario.params, scenario.creds, scenario.hash_spec
    x, y = scenario.x, scenario.y
    record = VerifierRecord(id_a=creds.id_a, id_b=creds.id_b,
                            v=derive_verifier(creds, params, hash_spec))
    if scenario.scheme == SCHEME_LKY:
        msg1, client = lky.lky_client_start(creds, params, hash_spec, x)
        msg2, server = lky.lky_server_respond(msg1, record, params, hash_spec, y)
        msg3, key_a = lky.lky_client_finish(msg2, client)
        key_b = lky.lky_server_finish(msg3, server)
        assert key_a == key_b
        return {"v": client.v, "t_a_masked": msg1.t_a_masked.as_int,
                "t_b_masked": msg2.t_b_masked.as_int, "r": server.r_b,
                "d_b": msg2.d_b, "d_a": msg3.d_a, "key": key_a.value}
    msg1, client = proposed.prop_client_start(creds, params, hash_spec, x)
    msg2, server = proposed.prop_server_respond(msg1, record, params, hash_spec, y)
    msg3 = proposed.prop_client_confirm(msg2, client)
    msg4, key_b = proposed.prop_server_finish(msg3, server)
    key_a = proposed.prop_client_finish(msg4, client,
                                        pairing=DlogTable.for_params(params))
    assert key_a == key_b
    return {"v": record.v, "t_a": msg1.t_a, "t_b": msg2.t_b, "r": client.r,
            "d_a": msg3.d_a, "f_a": server.f_a, "e_b": msg4.e_b,
            "key": key_a.value}


def check_golden(vector: GoldenVector) -> Tuple[bool, Dict[str, int]]:
    observed = replay_golden(vector)
    return observed == vector.expected, observed
