"""Scenario driver, counters, session logs, golden vectors, cost table."""

import json
import random

import pytest

from pakelab.attacks import ATTACK_MITM, ATTACK_STOLEN_VERIFIER_LKY, TamperSpec
from pakelab.core import (
    Credentials,
    HashSpec,
    SCHEME_LKY,
    SCHEME_PROPOSED,
    TOY_PARAMS,
    TOYSUM,
    DIGEST256,
    generate_params,
)
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
    run_attack_scenario,
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


def test_scenario_needs_nonces_or_a_seed():
    with pytest.raises(ScenarioError):
        run_honest_session(Scenario(scheme=SCHEME_LKY))


def test_honest_runner_refuses_adversarial_scenarios():
    with pytest.raises(ScenarioError):
        run_honest_session(Scenario(scheme=SCHEME_LKY, x=3, y=4,
                                    attack=ATTACK_STOLEN_VERIFIER_LKY))
    with pytest.raises(ScenarioError):
        run_honest_session(Scenario(scheme=SCHEME_LKY, x=3, y=4,
                                    tamper=TamperSpec(field="d_a", value=1)))
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
    report = run_attack_scenario(Scenario(
        scheme=SCHEME_LKY, attack=ATTACK_STOLEN_VERIFIER_LKY, x=5, y=4))
    obj = attack_report_to_json(report)
    assert obj["kind"] == "attack"
    assert obj["succeeded"] is True
    assert obj["attacker_key"] == obj["victim_key"] == "3"
    assert obj["counters"]["messages"] == len(obj["transcript"])


def test_append_log_line(tmp_path):
    path = tmp_path / "sessions.jsonl"
    append_log_line(path, {"kind": "a"})
    append_log_line(path, {"kind": "b"})
    lines = path.read_text().splitlines()
    assert [json.loads(l)["kind"] for l in lines] == ["a", "b"]


# -- attack scenarios ---------------------------------------------------------------


def test_run_attack_scenario_dispatches():
    report = run_attack_scenario(Scenario(
        scheme=SCHEME_PROPOSED, attack=ATTACK_MITM,
        tamper=TamperSpec(field="e_b", value=8), x=3, y=4))
    assert report.attack == ATTACK_MITM
    assert not report.succeeded


def test_run_attack_scenario_rejects_bad_scenarios():
    with pytest.raises(ScenarioError):
        run_attack_scenario(Scenario(scheme=SCHEME_LKY, x=3, y=4))
    with pytest.raises(ScenarioError):
        run_attack_scenario(Scenario(scheme=SCHEME_LKY, x=3, y=4,
                                     attack=ATTACK_MITM))
    with pytest.raises(ScenarioError):
        run_attack_scenario(Scenario(scheme=SCHEME_LKY, x=3, y=4,
                                     attack="phrenology"))


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
