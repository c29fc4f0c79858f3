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

from .attacks import AttackReport
from .core import (
    DIGEST256,
    TOYSUM,
    Credentials,
    GroupParams,
    HashSpec,
    SCHEME_LKY,
    SCHEME_PROPOSED,
    SessionKey,
    TOY_CREDS,
    TOY_PARAMS,
    sample_nonce,
)
from .drivers import CLIENTS, first_usable, run_pair
from .errors import CounterDrift, RetryNonce, ScenarioError
from .proposed import FLAG_UNAUTHENTICATED
from .transcript import Transcript


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
        # a shallow copy: every field is an int, and the instance dict holds
        # them in field order
        return dict(vars(self))


@dataclass
class Scenario:
    scheme: str
    params: GroupParams = TOY_PARAMS
    creds: Credentials = TOY_CREDS
    hash_spec: HashSpec = field(default_factory=lambda: HashSpec(TOYSUM))
    x: Optional[int] = None
    y: Optional[int] = None
    seed: Optional[int] = None


def _transcript_json(transcript: Transcript) -> List[dict]:
    return [{"direction": e.direction, "label": e.label, "frame": e.hex}
            for e in transcript]


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
            "transcript": _transcript_json(self.transcript),
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
        "transcript": _transcript_json(report.transcript),
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
    """Drive both parties' drivers over an in-memory channel.

    Protocol rejections land in the report (error text plus false auth
    flags); only malformed scenarios raise.
    """
    if scenario.scheme not in CLIENTS:
        raise ScenarioError(f"unknown scheme {scenario.scheme!r}")

    explicit = scenario.x is not None and scenario.y is not None
    if not explicit and scenario.seed is None:
        raise ScenarioError("scenario needs explicit nonces or a seed")
    rng = random.Random(scenario.seed)
    try:
        return first_usable(lambda nonces: _run_session(scenario, *nonces),
                            (scenario.x, scenario.y) if explicit else None,
                            lambda: (sample_nonce(scenario.params, rng),
                                     sample_nonce(scenario.params, rng)))
    except RetryNonce as exc:
        # deterministic scenarios must not silently change nonces
        return _aborted_report(scenario, f"retry nonce: {exc}" if explicit else
                               f"retry nonce (resamples exhausted): {exc}")


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


def _run_session(scenario: Scenario, x: int, y: int) -> SessionReport:
    run = run_pair(scenario.scheme, scenario.creds, scenario.params,
                   scenario.hash_spec, x, y)
    if isinstance(run.error, RetryNonce):
        raise run.error                 # the server's nonce; resample both
    failed = run.error is not None
    flags = list(run.client.flags)
    # a party that accepted before its peer rejected still counts as ok
    return SessionReport(
        scheme=scenario.scheme, params=scenario.params, transcript=run.transcript,
        key_a=None if failed else run.key_a, key_b=None if failed else run.key_b,
        auth_a_ok=run.key_a is not None and FLAG_UNAUTHENTICATED not in flags,
        auth_b_ok=run.key_b is not None,
        counters=counters_from(run.client.tally, run.server.tally, run.transcript),
        flags=flags, error=f"{run.rejected_by}: {run.error}" if failed else None)


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
                       hash_spec: Optional[HashSpec] = None) -> EfficiencyTable:
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
                scheme=scheme, params=params, creds=TOY_CREDS, hash_spec=spec,
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
    run = run_pair(scenario.scheme, scenario.creds, scenario.params,
                   scenario.hash_spec, scenario.x, scenario.y)
    if run.error is not None:
        raise run.error
    assert run.key_a == run.key_b
    client, server = run.client, run.server
    if scenario.scheme == SCHEME_LKY:
        return {"v": client.v, "t_a_masked": client.t_a_masked,
                "t_b_masked": server.t_b_masked, "r": server.r_b,
                "d_b": server.d_b, "d_a": server.d_a_expected,
                "key": run.key_a.value}
    return {"v": server.record.v, "t_a": client.t_a, "t_b": server.t_b,
            "r": client.r, "d_a": server.f_a, "f_a": server.f_a,
            "e_b": server.e_b, "key": run.key_a.value}


def check_golden(vector: GoldenVector) -> Tuple[bool, Dict[str, int]]:
    observed = replay_golden(vector)
    return observed == vector.expected, observed
