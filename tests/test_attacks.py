"""Adversary experiments: stolen verifiers, wiretap census, in-flight tampering."""

import pytest
from hypothesis import given, settings, strategies as st

from pakelab import attacks as attacks_module, proposed as proposed_module
from pakelab.attacks import (
    ATTACK_MITM,
    PROPOSED_RESISTANCE_CLAIM,
    AttackReport,
    TamperSpec,
    dictionary_census,
    mitm_tamper_experiment,
    stolen_verifier_attack_lky,
    stolen_verifier_attack_proposed,
)
from pakelab.core import (
    Credentials,
    DlogTable,
    GroupParams,
    HashSpec,
    SCHEME_LKY,
    SCHEME_PROPOSED,
    TOY_CREDS,
    TOY_PARAMS,
    TOYSUM,
    DIGEST256,
    VerifierRecord,
    derive_verifier,
    generate_params,
    hash_to_exponent,
    mod_inverse,
    toy_pairing,
)
from pakelab.drivers import run_pair
from pakelab.errors import GroupTooLarge, RetryNonce, ScenarioError
from pakelab.harness import Scenario, run_honest_session
from pakelab.transcript import Transcript

TOYSUM_SPEC = HashSpec(TOYSUM)
TOY_V = 7       # derive_verifier(TOY_CREDS, TOY_PARAMS, toysum); pinned in test_core
IDS = (9, 12)


# -- report invariants ----------------------------------------------------------


def test_attack_report_links_success_to_a_learned_key():
    with pytest.raises(ValueError):
        AttackReport(scheme=SCHEME_LKY, attack="x", succeeded=True,
                     attacker_key=None, victim_key=None,
                     transcript=Transcript())
    from pakelab.core import SessionKey
    key = SessionKey.from_value(3, TOY_PARAMS)
    with pytest.raises(ValueError):
        AttackReport(scheme=SCHEME_LKY, attack="x", succeeded=False,
                     attacker_key=key, victim_key=None,
                     transcript=Transcript())


# -- stolen verifier, baseline scheme ----------------------------------------------


def test_stolen_verifier_beats_the_baseline_on_pinned_nonces():
    report = stolen_verifier_attack_lky(TOY_V, IDS, TOY_PARAMS, TOYSUM_SPEC,
                                        x_attacker=5, y_server=4)
    assert report.succeeded
    assert report.attacker_key.value == 3
    assert report.victim_key.value == 3
    assert report.attacker_key == report.victim_key


def test_stolen_verifier_beats_the_baseline_everywhere():
    # every nondegenerate attacker/server nonce pair on the toy group
    for x_att in range(2, 12):
        for y_srv in range(2, 12):
            report = stolen_verifier_attack_lky(TOY_V, IDS, TOY_PARAMS,
                                                TOYSUM_SPEC, x_att, y_srv)
            assert report.succeeded, (x_att, y_srv, report.notes)
            assert report.attacker_key == report.victim_key


def test_stale_verifier_copy_fails_against_the_baseline():
    stale = VerifierRecord(id_a=9, id_b=12, v=11)
    report = stolen_verifier_attack_lky(TOY_V, IDS, TOY_PARAMS, TOYSUM_SPEC,
                                        x_attacker=5, y_server=4,
                                        server_record=stale)
    assert not report.succeeded
    assert report.attacker_key is None


def test_a_record_with_another_verifier_fails_both_baseline_checks():
    wrong = VerifierRecord(id_a=9, id_b=12, v=4)
    report = stolen_verifier_attack_lky(TOY_V, IDS, TOY_PARAMS, TOYSUM_SPEC,
                                        x_attacker=3, y_server=4,
                                        server_record=wrong)
    assert not report.succeeded
    assert report.notes == (
        "attacker holds v only; base of T_A is v; "
        "server confirmation d_B did not verify on the attacker side; "
        "server rejected d_A: client confirmation d_A does not verify")


@pytest.mark.parametrize("attack", [stolen_verifier_attack_lky,
                                    stolen_verifier_attack_proposed])
def test_a_record_for_another_identity_refuses_msg1(attack):
    other = VerifierRecord(id_a=8, id_b=12, v=TOY_V)
    report = attack(TOY_V, IDS, TOY_PARAMS, TOYSUM_SPEC, x_attacker=3,
                    y_server=4, server_record=other)
    assert not report.succeeded and report.victim_key is None
    assert report.notes == "server rejected Msg1: no verifier on record for id_A=9"


# -- stolen verifier, revised scheme -------------------------------------------------


def test_stolen_verifier_beats_the_revision_on_pinned_nonces():
    report = stolen_verifier_attack_proposed(TOY_V, IDS, TOY_PARAMS,
                                             TOYSUM_SPEC, x_attacker=5,
                                             y_server=4)
    assert report.succeeded
    assert report.attacker_key.value == 11
    assert report.victim_key.value == 11
    assert PROPOSED_RESISTANCE_CLAIM in report.notes
    assert "measured:" in report.notes
    assert "attacker-side server-auth check passes" in report.notes


def test_every_pairing_goes_through_toy_pairing(monkeypatch):
    pairings, dlogs = [], []
    real_dlog = DlogTable.dlog

    def counted_pairing(x, y, params):
        pairings.append((x, y))
        return toy_pairing(x, y, params)

    for module in (proposed_module, attacks_module):
        monkeypatch.setattr(module, "toy_pairing", counted_pairing,
                            raising=False)
    monkeypatch.setattr(DlogTable, "dlog",
                        lambda table, element: dlogs.append(element)
                        or real_dlog(table, element))
    run = run_pair(SCHEME_PROPOSED, TOY_CREDS, TOY_PARAMS, TOYSUM_SPEC, 3, 4)
    assert run.error is None and run.client.flags == []
    assert (len(pairings), len(dlogs)) == (2, 4)
    pairings.clear()
    report = stolen_verifier_attack_proposed(TOY_V, IDS, TOY_PARAMS,
                                             TOYSUM_SPEC, x_attacker=5,
                                             y_server=4)
    assert report.succeeded
    assert len(pairings) == 2


def test_stolen_verifier_beats_the_revision_everywhere():
    for x_att in range(1, 12):
        for y_srv in range(1, 12):
            report = stolen_verifier_attack_proposed(TOY_V, IDS, TOY_PARAMS,
                                                     TOYSUM_SPEC, x_att, y_srv)
            assert report.succeeded, (x_att, y_srv, report.notes)
            assert report.attacker_key == report.victim_key


def test_attacker_without_the_verifier_is_rejected():
    report = stolen_verifier_attack_proposed(TOY_V, IDS, TOY_PARAMS,
                                             TOYSUM_SPEC, x_attacker=3,
                                             y_server=5,
                                             attacker_base=TOY_PARAMS.g)
    assert not report.succeeded
    assert "server rejected d_A" in report.notes


def test_stale_verifier_copy_fails_against_the_revision():
    stale = VerifierRecord(id_a=9, id_b=12, v=11)
    report = stolen_verifier_attack_proposed(TOY_V, IDS, TOY_PARAMS,
                                             TOYSUM_SPEC, x_attacker=5,
                                             y_server=4, server_record=stale)
    assert not report.succeeded


def test_stolen_verifier_works_on_a_larger_group_with_a_real_hash():
    params = generate_params(16, seed=7)
    hash_spec = HashSpec(DIGEST256)
    v = derive_verifier(TOY_CREDS, params, hash_spec)
    report = stolen_verifier_attack_proposed(v, IDS, params, hash_spec,
                                             x_attacker=12345, y_server=5432)
    assert report.succeeded
    assert report.attacker_key == report.victim_key


# -- wiretap census --------------------------------------------------------------


def wiretap(x=3, y=4):
    report = run_honest_session(Scenario(scheme=SCHEME_PROPOSED, x=x, y=y))
    assert report.error is None
    return report.transcript


def test_census_separates_the_password_from_a_wrong_guess():
    census = dictionary_census(wiretap(), [10, 11], TOY_PARAMS, TOYSUM_SPEC,
                               id_b=12)
    assert census.consistent == [10]
    assert census.witnesses[10] == (3, 4)
    assert 11 in census.rejections
    assert census.enumeration_bound == 11 * 11


def test_census_against_an_independent_oracle():
    """Recompute consistency with plain pow(), no package helpers."""
    tap = wiretap()
    obs = {"t_a": 8, "t_b": 9, "d_a": 1, "e_b": 9}     # pinned toy run

    def oracle_says_consistent(p):
        h = hash_to_exponent(9 + 12 + p, TOY_PARAMS)
        v = pow(6, h, 13)
        inv = mod_inverse(h, 12)
        for xc in range(1, 12):
            if pow(6, xc, 13) != obs["t_a"]:
                continue
            for yc in range(1, 12):
                if pow(v, yc, 13) != obs["t_b"]:
                    continue
                if pow(obs["t_a"], yc, 13) != obs["d_a"]:
                    continue
                if pow(obs["t_b"], (xc * inv) % 12, 13) != obs["d_a"]:
                    continue
                if pow(v, (yc * yc) % 12, 13) != obs["e_b"]:
                    continue
                return True
        return False

    dictionary = list(range(0, 13))
    census = dictionary_census(tap, dictionary, TOY_PARAMS, TOYSUM_SPEC,
                               id_b=12)
    expected = [p for p in dictionary if oracle_says_consistent(p)]
    assert census.consistent == expected
    assert 10 in census.consistent


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=29), max_size=8,
                unique=True))
def test_census_is_pointwise(dictionary):
    """Each candidate's verdict is independent of the rest of the dictionary."""
    tap = wiretap()
    full = dictionary_census(tap, list(range(30)), TOY_PARAMS, TOYSUM_SPEC,
                             id_b=12)
    part = dictionary_census(tap, dictionary, TOY_PARAMS, TOYSUM_SPEC, id_b=12)
    assert part.consistent == [p for p in dictionary if p in full.consistent]


def test_census_requires_a_desk_scale_group():
    params = generate_params(24, seed=3)
    hash_spec = HashSpec(DIGEST256)
    report = run_honest_session(Scenario(
        scheme=SCHEME_PROPOSED, params=params,
        creds=Credentials(id_a=9, id_b=12, password=10),
        hash_spec=hash_spec, x=1234, y=4321))
    assert report.error is None
    with pytest.raises(GroupTooLarge):
        dictionary_census(report.transcript, [10], params, hash_spec, id_b=12)


def test_census_rejects_bad_inputs():
    with pytest.raises(ScenarioError):
        dictionary_census(Transcript(), [10], TOY_PARAMS, TOYSUM_SPEC, id_b=12)
    with pytest.raises(ScenarioError):
        dictionary_census(wiretap(), [10], GroupParams(q=29, g=2),
                          TOYSUM_SPEC, id_b=12)


def test_census_costs_at_most_four_modexps_per_candidate(monkeypatch):
    """A search over the nonce space would cost up to q per candidate."""
    params = generate_params(20, seed=1)
    hash_spec = HashSpec(DIGEST256)
    report = run_honest_session(Scenario(
        scheme=SCHEME_PROPOSED, params=params, creds=TOY_CREDS,
        hash_spec=hash_spec, x=1234, y=4321))
    assert report.error is None
    builds, calls = [], []
    original_init, original_mod_exp = DlogTable.__init__, attacks_module.mod_exp

    def counting_init(table, params):
        builds.append(params)
        original_init(table, params)

    def counting_mod_exp(*args, **kwargs):
        calls.append(args)
        return original_mod_exp(*args, **kwargs)

    monkeypatch.setattr(DlogTable, "_cache", {})
    monkeypatch.setattr(DlogTable, "__init__", counting_init)
    monkeypatch.setattr(attacks_module, "mod_exp", counting_mod_exp)
    witnesses = {}
    for candidate in range(4, 16):
        calls.clear()
        census = dictionary_census(report.transcript, [candidate], params,
                                   hash_spec, id_b=TOY_CREDS.id_b)
        assert 1 <= len(calls) <= 4, candidate
        witnesses.update(census.witnesses)
    assert witnesses == {TOY_CREDS.password: (1234, 4321)}
    assert builds == [params]


# -- in-flight tampering ------------------------------------------------------------


def mitm(scheme, field, value, x=3, y=4):
    return mitm_tamper_experiment(scheme, TamperSpec(field=field, value=value),
                                  TOY_PARAMS, TOYSUM_SPEC, (x, y), TOY_CREDS)


def test_tampered_t_a_is_caught_by_the_server():
    report = mitm(SCHEME_PROPOSED, "t_a", 6)
    assert not report.succeeded
    assert "replaced t_a = 8 with 6 in flight" in report.notes
    assert "server rejected" in report.notes


def test_tampered_e_b_is_caught_by_the_client():
    report = mitm(SCHEME_PROPOSED, "e_b", 8)
    assert not report.succeeded
    assert "client rejected" in report.notes


def test_tampered_d_a_is_caught_by_the_server():
    report = mitm(SCHEME_PROPOSED, "d_a", 2)
    assert not report.succeeded
    assert "server rejected" in report.notes


def test_tampered_t_b_is_caught_on_nondegenerate_nonces():
    report = mitm(SCHEME_PROPOSED, "t_b", 2, x=5, y=7)
    assert not report.succeeded
    assert "server rejected" in report.notes


def test_degenerate_toy_nonces_can_mask_a_t_b_substitution():
    # x*y = 12 makes r collapse to 1 for any T_B of order dividing 4/3;
    # the experiment completes and says so loudly. A small-group artifact,
    # surfaced rather than hidden.
    report = mitm(SCHEME_PROPOSED, "t_b", 3, x=3, y=4)
    assert not report.succeeded          # still no impersonation of A
    assert "TAMPER ACCEPTED" in report.notes


def test_identity_substitution_completes_quietly():
    report = mitm(SCHEME_PROPOSED, "t_a", 8)     # 8 is the honest value
    assert not report.succeeded
    assert "identity substitution on t_a; wire value unchanged" in report.notes
    assert "session completed; keys match" in report.notes
    assert "TAMPER ACCEPTED" not in report.notes


def test_lky_tampering_is_caught_by_the_right_party():
    by_client = mitm(SCHEME_LKY, "d_b", 99)
    assert not by_client.succeeded
    assert "client rejected" in by_client.notes
    by_server = mitm(SCHEME_LKY, "d_a", 99)
    assert not by_server.succeeded
    assert "server rejected" in by_server.notes
    masked = mitm(SCHEME_LKY, "t_b_masked", 5)
    assert not masked.succeeded
    assert "rejected" in masked.notes


def test_lky_identity_substitution_completes():
    report = mitm(SCHEME_LKY, "d_a", 24)         # honest toy value
    assert not report.succeeded
    assert "identity substitution" in report.notes
    assert "session completed; keys match" in report.notes


def test_mitm_rejects_malformed_experiments():
    with pytest.raises(ScenarioError):
        mitm(SCHEME_PROPOSED, "t_a", -1)
    with pytest.raises(ScenarioError):
        mitm(SCHEME_PROPOSED, "t_q", 5)
    with pytest.raises(ScenarioError):
        mitm(SCHEME_LKY, "e_b", 5)               # field from the other scheme
    with pytest.raises(ScenarioError):
        mitm("hybrid", "t_a", 5)
    with pytest.raises(ScenarioError):
        mitm(SCHEME_LKY, "t_a_masked", 256)      # exceeds the 1-byte width


def test_mitm_transcript_records_the_post_tamper_wire_view():
    report = mitm(SCHEME_PROPOSED, "t_a", 6)
    first = next(iter(report.transcript))
    assert first.label == "msg1"
    assert first.hex.endswith("0106")            # final field holds the 6


def test_lky_mitm_with_a_degenerate_client_nonce_raises():
    # g^7 = v on the toy group: the client cannot start, nobody rejects
    with pytest.raises(RetryNonce):
        mitm(SCHEME_LKY, "d_a", 1, x=7, y=4)


def test_oversized_masked_tamper_is_refused_only_when_reached():
    # v^1 = v: the server refuses MSG1 before T_B is ever put on the wire
    report = mitm(SCHEME_LKY, "t_b_masked", 256, x=3, y=1)
    assert report.notes == "server rejected: v^y equals v; resample y"
    with pytest.raises(ScenarioError):
        mitm(SCHEME_LKY, "t_b_masked", 256, x=3, y=4)
