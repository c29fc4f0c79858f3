"""Scenario driver, counters, session logs, golden vectors, cost table."""

import dataclasses
import json
import random

import pytest

from pakelab.attacks import ATTACK_STOLEN_VERIFIER_LKY, stolen_verifier_attack_lky
from pakelab.core import (
    Credentials,
    GroupParams,
    HashSpec,
    SCHEME_LKY,
    SCHEME_PROPOSED,
    TOY_CREDS,
    TOY_PARAMS,
    TOYSUM,
    DIGEST256,
    NAMED_GROUPS,
    NAMED_NONCE_BITS,
    derive_verifier,
    generate_params,
)
from pakelab import lky as lky_module
from pakelab.errors import CounterDrift, ScenarioError
from pakelab import harness
from pakelab.harness import (
    Counters,
    Scenario,
    append_log_line,
    attack_report_to_json,
    check_golden,
    compare_efficiency,
    golden_vectors,
    replay_golden,
    run_honest_session,
)


# -- honest sessions ------------------------------------------------------------


def test_proposed_toy_session_report():
    report = run_honest_session(Scenario(scheme=SCHEME_PROPOSED, x=3, y=4))
    assert report.error is None
    assert report.auth_a_ok and report.auth_b_ok
    assert report.key_a.value == report.key_b.value == 9
    assert report.counters.as_dict() == {
        "modexp_client": 2,
        "modexp_server": 3,
        "modexp_registration": 0,
        "messages": 4,
        "round_trips": 2,
        "bytes_on_wire": 37,
        "hash_evals": 5,
    }
    assert [e.label for e in report.transcript] == ["msg1", "msg2", "msg3",
                                                    "msg4"]


def test_lky_toy_session_report():
    report = run_honest_session(Scenario(scheme=SCHEME_LKY, x=3, y=4))
    assert report.error is None
    assert report.auth_a_ok and report.auth_b_ok
    assert report.key_a.value == report.key_b.value == 1
    counters = report.counters
    assert counters.modexp_client == 2
    assert counters.modexp_server == 2
    assert counters.messages == 3
    assert counters.round_trips == 2
    assert counters.hash_evals == 8
    assert counters.bytes_on_wire == 33    # 16 + 10 + 7 byte frames
    assert [e.label for e in report.transcript] == ["msg1", "lky-msg2", "msg3"]


def test_seeded_sessions_are_reproducible():
    a = run_honest_session(Scenario(scheme=SCHEME_PROPOSED, seed=11))
    b = run_honest_session(Scenario(scheme=SCHEME_PROPOSED, seed=11))
    assert a.digest() == b.digest()
    c = run_honest_session(Scenario(scheme=SCHEME_PROPOSED, seed=12))
    assert a.digest() != c.digest()


def test_explicit_degenerate_nonce_aborts_without_resampling():
    report = run_honest_session(Scenario(scheme=SCHEME_LKY, x=7, y=4))
    assert report.error is not None
    assert "retry nonce" in report.error
    assert report.key_a is None and report.key_b is None
    assert not report.auth_a_ok and not report.auth_b_ok


def test_seeded_degenerate_nonce_is_resampled():
    # a seed whose first client draw is the one degenerate exponent x=7
    seed = next(s for s in range(10000)
                if random.Random(s).randrange(1, 12) == 7)
    report = run_honest_session(Scenario(scheme=SCHEME_LKY, seed=seed))
    assert report.error is None
    assert report.key_a == report.key_b


# Z_3^* has the one exponent 1, so h = x = y = 1 and v = g: every draw the
# baseline client makes gives g^x = v
Q3_PARAMS = GroupParams(q=3, g=2)


def count_lky_client_starts(monkeypatch):
    starts = []
    original = lky_module.lky_client_start

    def start(*args):
        starts.append(args[3])
        return original(*args)

    monkeypatch.setattr(lky_module, "lky_client_start", start)
    return starts


def test_seeded_nonces_that_never_fit_exhaust_the_resamples(monkeypatch):
    starts = count_lky_client_starts(monkeypatch)
    report = run_honest_session(Scenario(scheme=SCHEME_LKY, params=Q3_PARAMS,
                                         seed=1))
    assert report.error == ("retry nonce (resamples exhausted): "
                            "g^x equals v; resample x")
    assert report.key_a is None and report.key_b is None
    assert starts == [1] * 64


def test_explicit_nonces_that_do_not_fit_get_one_try(monkeypatch):
    starts = count_lky_client_starts(monkeypatch)
    report = run_honest_session(Scenario(scheme=SCHEME_LKY, params=Q3_PARAMS,
                                         x=1, y=1))
    assert report.error == "retry nonce: g^x equals v; resample x"
    assert starts == [1]


def test_scenario_needs_nonces_or_a_seed():
    with pytest.raises(ScenarioError):
        run_honest_session(Scenario(scheme=SCHEME_LKY))


def test_honest_runner_refuses_adversarial_scenarios():
    # attacks run from pakelab.attacks; a scenario has no field to name one
    with pytest.raises(TypeError):
        Scenario(scheme=SCHEME_LKY, x=3, y=4, attack=ATTACK_STOLEN_VERIFIER_LKY)
    with pytest.raises(ScenarioError):
        run_honest_session(Scenario(scheme="quantum", x=3, y=4))


def test_large_group_session_flags_the_skipped_check():
    params = generate_params(24, seed=3)
    report = run_honest_session(Scenario(
        scheme=SCHEME_PROPOSED, params=params,
        creds=Credentials(id_a=9, id_b=12, password=10),
        hash_spec=HashSpec(DIGEST256), seed=5))
    assert report.error is None
    assert report.key_a == report.key_b
    assert not report.auth_a_ok           # pairing check was out of reach
    assert report.auth_b_ok
    assert "server unauthenticated" in report.flags


@pytest.mark.parametrize("scheme, client, server, registration", [
    (SCHEME_LKY, 2, 2, 1), (SCHEME_PROPOSED, 2, 3, 0)])
def test_seeded_named_group_sessions_use_short_nonces(exponent_bits, scheme,
                                                      client, server,
                                                      registration):
    report = run_honest_session(Scenario(
        scheme=scheme, params=NAMED_GROUPS["modp2048"],
        creds=Credentials(id_a=9, id_b=12, password=10),
        hash_spec=HashSpec(DIGEST256), seed=7))
    assert report.error is None
    assert report.key_a == report.key_b
    counters = report.counters
    assert (counters.modexp_client, counters.modexp_server,
            counters.modexp_registration) == (client, server, registration)
    # one more builds the server's stored verifier, outside both tallies
    assert len(exponent_bits) == client + server + registration + 1
    # only the client's T_B^(x * h^-1 mod q-1) keeps a full-length exponent;
    # proposed's v^(y^2) has twice a nonce's bits, every other one at most 256
    *short, full = sorted(exponent_bits)
    assert full > 2000
    assert sum(bits > NAMED_NONCE_BITS for bits in short) == (
        scheme == SCHEME_PROPOSED)
    assert max(short) <= 2 * NAMED_NONCE_BITS


# -- reports and logs -------------------------------------------------------------


def test_session_report_serializes_to_one_json_line():
    report = run_honest_session(Scenario(scheme=SCHEME_PROPOSED, x=3, y=4))
    line = report.to_json_line()
    assert "\n" not in line
    obj = json.loads(line)
    assert obj["kind"] == "session"
    assert obj["params"] == {"q": "13", "g": "6"}
    assert obj["key_a"] == obj["key_b"] == "9"
    assert obj["transcript"][0]["label"] == "msg1"
    assert obj["counters"]["messages"] == 4


def test_attack_report_serializes():
    v = derive_verifier(TOY_CREDS, TOY_PARAMS, HashSpec(TOYSUM))
    report = stolen_verifier_attack_lky(v, (TOY_CREDS.id_a, TOY_CREDS.id_b),
                                        TOY_PARAMS, HashSpec(TOYSUM), 5, 4)
    obj = attack_report_to_json(report)
    assert obj["kind"] == "attack"
    assert obj["succeeded"] is True
    assert obj["attacker_key"] == obj["victim_key"] == "3"
    assert obj["counters"]["messages"] == len(obj["transcript"])


def test_counters_as_dict_is_asdict_as_a_fresh_copy():
    counters = Counters(*range(1, 8))
    as_dict = counters.as_dict()
    assert list(as_dict.items()) == list(dataclasses.asdict(counters).items())
    as_dict["messages"] = 99
    assert counters.messages == 4
    assert counters.as_dict() is not counters.as_dict()


def test_append_log_line(tmp_path):
    path = tmp_path / "sessions.jsonl"
    append_log_line(path, {"kind": "a"})
    append_log_line(path, {"kind": "b"})
    lines = path.read_text().splitlines()
    assert [json.loads(l)["kind"] for l in lines] == ["a", "b"]


# -- golden vectors -----------------------------------------------------------------


def test_golden_vectors_reproduce_exactly():
    for vector in golden_vectors():
        ok, observed = check_golden(vector)
        assert ok, (vector.name, observed, vector.expected)


def test_golden_replay_exposes_intermediates():
    by_name = {v.name: replay_golden(v) for v in golden_vectors()}
    assert by_name["proposed-toy"] == {"v": 7, "t_a": 8, "t_b": 9, "r": 1,
                                       "d_a": 1, "f_a": 1, "e_b": 9, "key": 9}
    assert by_name["lky-toy"] == {"v": 7, "t_a_masked": 15, "t_b_masked": 14,
                                  "r": 1, "d_b": 28, "d_a": 24, "key": 1}


# every frame of a pinned session, as (direction, label, hex)
WIRE_PINS = {
    (SCHEME_PROPOSED, "toy"): [
        ("A->B", "msg1", "504b010200010d000106000109000108"),
        ("B->A", "msg2", "504b0103000109"),
        ("A->B", "msg3", "504b0104000101"),
        ("B->A", "msg4", "504b0105000109"),
    ],
    (SCHEME_LKY, "toy"): [
        ("A->B", "msg1", "504b010200010d00010600010900010f"),
        ("B->A", "lky-msg2", "504b010800010e00011c"),
        ("A->B", "msg3", "504b0104000118"),
    ],
    (SCHEME_PROPOSED, "desk16"): [
        ("A->B", "msg1", "504b01020002f2a7000107000203e90002ec3e"),
        ("B->A", "msg2", "504b0103000286a9"),
        ("A->B", "msg3", "504b01040002d5d2"),
        ("B->A", "msg4", "504b010500028a00"),
    ],
    (SCHEME_LKY, "desk16"): [
        ("A->B", "msg1", "504b01020002f2a7000107000203e90002d937"),
        ("B->A", "lky-msg2", "504b01080002b3a0002019ba43988295347bc2a487523990"
                             "7725f70be7706c99c1897a05c97e34732b2e"),
        ("A->B", "msg3", "504b01040020764eb701f9a0fd89d79c6c52c081b7ca3e0e32c6"
                         "85c49c68629cdec7c6be4fcb"),
    ],
}


@pytest.mark.parametrize("scheme, group", sorted(WIRE_PINS))
def test_session_frames_are_pinned_to_the_byte(scheme, group):
    if group == "toy":
        scenario = Scenario(scheme=scheme, x=3, y=4)
    else:
        scenario = Scenario(scheme=scheme, params=generate_params(16, seed=7),
                            creds=Credentials(id_a=1001, id_b=2002,
                                              password=31337),
                            hash_spec=HashSpec(DIGEST256), x=1234, y=4321)
    report = run_honest_session(scenario)
    assert report.error is None and report.key_a == report.key_b
    assert [(e.direction, e.label, e.hex)
            for e in report.transcript] == WIRE_PINS[scheme, group]


# -- efficiency table ----------------------------------------------------------------


def test_compare_efficiency_measures_the_expected_costs():
    table = compare_efficiency(TOY_PARAMS, trials=20, seed=0)
    cells = {(r.scheme, r.metric): r for r in table.rows}
    assert cells[(SCHEME_PROPOSED, "modexp_client")].measured == "2"
    assert cells[(SCHEME_PROPOSED, "modexp_server")].measured == "3"
    assert cells[(SCHEME_PROPOSED, "messages")].measured == "4"
    assert cells[(SCHEME_PROPOSED, "round_trips")].measured == "2"
    assert cells[(SCHEME_PROPOSED, "hash_evals")].measured == "5"
    assert cells[(SCHEME_LKY, "modexp_client")].measured == "2"
    assert cells[(SCHEME_LKY, "modexp_server")].measured == "2"
    assert cells[(SCHEME_LKY, "messages")].measured == "3"
    assert cells[(SCHEME_LKY, "round_trips")].measured == "2"
    assert cells[(SCHEME_LKY, "hash_evals")].measured == "8"
    # claims ride along as annotations, never as assertions
    assert cells[(SCHEME_PROPOSED, "modexp_client")].claimed == "<= 3 per party"
    assert cells[(SCHEME_LKY, "round_trips")].claimed == "n (multi-party form)"
    assert cells[(SCHEME_LKY, "messages")].claimed == ""
    assert "(mean)" in cells[(SCHEME_PROPOSED, "bytes_on_wire")].measured


def test_efficiency_table_renders_text_and_csv():
    table = compare_efficiency(TOY_PARAMS, trials=3, seed=1)
    text = table.render_text()
    assert "modexp_client" in text and "proposed" in text
    csv = table.render_csv()
    header, *rows = csv.strip().splitlines()
    assert header == "scheme,metric,measured,claimed"
    assert len(rows) == 14                 # 7 metrics x 2 schemes


def test_compare_efficiency_counts_registration_modexp_per_session():
    # the lky client needs v to unmask T_B; the proposed client needs only h
    table = compare_efficiency(TOY_PARAMS, trials=3, seed=0)
    cells = {(r.scheme, r.metric): r.measured for r in table.rows}
    assert cells[(SCHEME_LKY, "modexp_registration")] == "1"
    assert cells[(SCHEME_PROPOSED, "modexp_registration")] == "0"


def test_compare_efficiency_rejects_zero_trials():
    with pytest.raises(ScenarioError):
        compare_efficiency(TOY_PARAMS, trials=0, seed=0)


def test_counter_drift_is_loud(monkeypatch):
    reports = [run_honest_session(Scenario(scheme=SCHEME_LKY, x=3, y=4)),
               run_honest_session(Scenario(scheme=SCHEME_LKY, x=5, y=4))]
    reports[1].counters.modexp_client += 1      # simulate a drifting counter
    feed = iter(reports * 4)
    monkeypatch.setattr(harness, "run_honest_session", lambda s: next(feed))
    with pytest.raises(CounterDrift):
        compare_efficiency(TOY_PARAMS, trials=2, seed=0)


def test_round_trip_accounting_rounds_up():
    assert Counters(messages=3, round_trips=2).round_trips == (3 + 1) // 2
    lky = run_honest_session(Scenario(scheme=SCHEME_LKY, x=3, y=4))
    prop = run_honest_session(Scenario(scheme=SCHEME_PROPOSED, x=3, y=4))
    assert lky.counters.round_trips == 2
    assert prop.counters.round_trips == 2
