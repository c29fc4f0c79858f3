"""Revised scheme: unmasked exchange, pairing-based server auth, 4th message."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from pakelab.core import (
    Credentials,
    DlogTable,
    GroupParams,
    HashSpec,
    TOY_CREDS,
    TOY_PARAMS,
    TOYSUM,
    DIGEST256,
    VerifierRecord,
    derive_verifier,
    generate_params,
)
from pakelab.drivers import run_pair
from pakelab.errors import AuthFail, NotInGroup, UnknownIdentity
from pakelab.proposed import (
    FLAG_DEGENERATE_TB,
    FLAG_UNAUTHENTICATED,
    prop_client_confirm,
    prop_client_finish,
    prop_client_start,
    prop_server_finish,
    prop_server_respond,
    uncorrected_server_auth_check,
)
from pakelab.netio.frames import Msg2Frame, Msg3Frame, Msg4Frame

TOYSUM_SPEC = HashSpec(TOYSUM)
MID_PARAMS = GroupParams(q=29, g=2)


def record_for(creds, params, hash_spec):
    return VerifierRecord(id_a=creds.id_a, id_b=creds.id_b,
                          v=derive_verifier(creds, params, hash_spec))


def run_handshake(params, creds, hash_spec, x, y, record=None):
    if record is None:
        record = record_for(creds, params, hash_spec)
    msg1, client = prop_client_start(creds, params, hash_spec, x)
    msg2, server = prop_server_respond(msg1, record, params, hash_spec, y)
    msg3 = prop_client_confirm(msg2, client)
    msg4, key_b = prop_server_finish(msg3, server)
    key_a = prop_client_finish(msg4, client)
    return msg1, msg2, msg3, msg4, key_a, key_b, client, server


# -- pinned toy run ------------------------------------------------------------


def test_toy_handshake_values():
    msg1, msg2, msg3, msg4, key_a, key_b, client, server = run_handshake(
        TOY_PARAMS, TOY_CREDS, TOYSUM_SPEC, x=3, y=4)
    assert derive_verifier(TOY_CREDS, TOY_PARAMS, TOYSUM_SPEC) == 7
    assert msg1.t_a == 8
    assert msg2.t_b == 9
    assert client.r == 1
    assert msg3.d_a == 1
    assert server.f_a == 1
    assert msg4.e_b == 9
    assert key_a.value == key_b.value == 9
    assert client.flags == []


def test_client_start_derives_no_verifier():
    # the client holds h(id_A, id_B, P) only; v = g^h is the server's to store
    _, client = prop_client_start(TOY_CREDS, TOY_PARAMS, TOYSUM_SPEC, x=3)
    assert client.tally.modexp_registration == 0
    assert client.tally.modexp == 1
    assert not hasattr(client, "v")


def test_key_is_hash_of_identities_and_shared_secret():
    # independent recomputation of both sides' key formula
    _, _, _, _, key_a, key_b, client, server = run_handshake(
        TOY_PARAMS, TOY_CREDS, TOYSUM_SPEC, x=5, y=7)
    shared = pow(TOY_PARAMS.g, 5 * 7, 13)
    expected = (9 + 12 + shared) % 13
    assert key_a.value == key_b.value == expected


# -- server authentication -------------------------------------------------------


def test_tampered_e_b_is_rejected_by_the_pairing_check():
    msg1, client = prop_client_start(TOY_CREDS, TOY_PARAMS, TOYSUM_SPEC, x=3)
    msg2, server = prop_server_respond(
        msg1, record_for(TOY_CREDS, TOY_PARAMS, TOYSUM_SPEC),
        TOY_PARAMS, TOYSUM_SPEC, y=4)
    msg3 = prop_client_confirm(msg2, client)
    prop_server_finish(msg3, server)
    with pytest.raises(AuthFail) as exc:
        prop_client_finish(Msg4Frame(e_b=8), client)
    assert "e(E_B, T_A)" in str(exc.value)


def test_uncorrected_check_fails_even_on_the_honest_toy_run():
    # honest values from the pinned run: E_B = 9, T_B = 9, r = 1
    left, right = uncorrected_server_auth_check(9, 9, 1, TOY_PARAMS)
    assert (left, right) == (4, 0)
    assert left != right


def test_corrected_check_passes_where_the_uncorrected_one_fails():
    _, msg2, _, msg4, _, _, client, _ = run_handshake(
        TOY_PARAMS, TOY_CREDS, TOYSUM_SPEC, x=3, y=4)
    table = DlogTable.for_params(TOY_PARAMS)
    left = (table.dlog(msg4.e_b) * table.dlog(client.t_a)) % 12
    right = (table.dlog(msg2.t_b) * table.dlog(client.r)) % 12
    assert left == right


def test_the_finish_step_skips_and_flags_the_check_above_the_desk_bound():
    params = generate_params(24, seed=3)    # past the dlog-table bound
    creds = Credentials(id_a=9, id_b=12, password=10)
    *_, key_a, key_b, client, _ = run_handshake(
        params, creds, HashSpec(DIGEST256), x=1234, y=4321)
    assert key_a == key_b
    assert client.flags == [FLAG_UNAUTHENTICATED]


def test_a_driven_session_above_the_desk_bound_skips_and_flags_the_check():
    params = generate_params(24, seed=3)
    creds = Credentials(id_a=9, id_b=12, password=10)
    run = run_pair("proposed", creds, params, HashSpec(DIGEST256),
                   x=1234, y=4321)
    assert run.error is None
    assert run.key_a == run.key_b
    assert run.client.flags == [FLAG_UNAUTHENTICATED]


# -- input validation --------------------------------------------------------------


def test_unknown_identity():
    msg1, _ = prop_client_start(TOY_CREDS, TOY_PARAMS, TOYSUM_SPEC, x=3)
    with pytest.raises(UnknownIdentity):
        prop_server_respond(msg1, VerifierRecord(id_a=8, id_b=12, v=7),
                            TOY_PARAMS, TOYSUM_SPEC, y=4)


def test_group_membership_is_enforced_at_every_hop():
    record = record_for(TOY_CREDS, TOY_PARAMS, TOYSUM_SPEC)
    msg1, client = prop_client_start(TOY_CREDS, TOY_PARAMS, TOYSUM_SPEC, x=3)
    for bad in (0, 13):
        with pytest.raises(NotInGroup):
            prop_server_respond(replace(msg1, t_a=bad), record,
                                TOY_PARAMS, TOYSUM_SPEC, y=4)
    with pytest.raises(NotInGroup):
        prop_client_confirm(Msg2Frame(t_b=13), client)
    msg2, server = prop_server_respond(msg1, record, TOY_PARAMS, TOYSUM_SPEC, y=4)
    msg3 = prop_client_confirm(msg2, client)
    prop_server_finish(msg3, server)
    with pytest.raises(NotInGroup):
        prop_client_finish(Msg4Frame(e_b=0), client)


def test_nonce_range_is_enforced():
    for bad in (0, 12):
        with pytest.raises(ValueError):
            prop_client_start(TOY_CREDS, TOY_PARAMS, TOYSUM_SPEC, x=bad)
    msg1, _ = prop_client_start(TOY_CREDS, TOY_PARAMS, TOYSUM_SPEC, x=3)
    with pytest.raises(ValueError):
        prop_server_respond(msg1, record_for(TOY_CREDS, TOY_PARAMS, TOYSUM_SPEC),
                            TOY_PARAMS, TOYSUM_SPEC, y=12)


def test_degenerate_t_b_is_flagged_but_not_fatal():
    _, client = prop_client_start(TOY_CREDS, TOY_PARAMS, TOYSUM_SPEC, x=3)
    msg3 = prop_client_confirm(Msg2Frame(t_b=1), client)
    assert FLAG_DEGENERATE_TB in client.flags
    assert client.r == 1
    assert msg3.d_a == 1 % 13


def test_wrong_client_confirmation_is_rejected():
    record = record_for(TOY_CREDS, TOY_PARAMS, TOYSUM_SPEC)
    msg1, client = prop_client_start(TOY_CREDS, TOY_PARAMS, TOYSUM_SPEC, x=3)
    msg2, server = prop_server_respond(msg1, record, TOY_PARAMS, TOYSUM_SPEC, y=4)
    msg3 = prop_client_confirm(msg2, client)
    with pytest.raises(AuthFail):
        prop_server_finish(Msg3Frame(d_a=msg3.d_a + 1), server)
    # the expected value was fixed before the comparison
    assert server.f_a == 1


# -- agreement properties ------------------------------------------------------------


def test_every_toy_nonce_pair_agrees():
    for x in range(1, 12):
        for y in range(1, 12):
            *_, key_a, key_b, client, _ = run_handshake(
                TOY_PARAMS, TOY_CREDS, TOYSUM_SPEC, x, y)
            assert key_a == key_b
            assert client.flags == []


@given(st.integers(min_value=1, max_value=27),
       st.integers(min_value=1, max_value=27),
       st.integers(min_value=0, max_value=200))
def test_random_runs_agree_on_a_wider_group(x, y, password):
    creds = Credentials(id_a=5, id_b=17, password=password)
    *_, key_a, key_b, client, _ = run_handshake(
        MID_PARAMS, creds, TOYSUM_SPEC, x, y)
    assert key_a == key_b
    assert client.flags == []


@settings(max_examples=25)
@given(st.integers(min_value=1, max_value=27),
       st.integers(min_value=1, max_value=27))
def test_digest_mode_agrees_too(x, y):
    *_, key_a, key_b, _, _ = run_handshake(
        MID_PARAMS, Credentials(id_a=5, id_b=17, password=42),
        HashSpec(DIGEST256), x, y)
    assert key_a == key_b


def test_recovered_r_equals_g_to_the_xy():
    # x * h^-1 applied to T_B = v^y must land exactly on g^(x*y)
    for x in (1, 3, 5, 11):
        for y in (1, 4, 10):
            *_, client, _ = run_handshake(TOY_PARAMS, TOY_CREDS,
                                          TOYSUM_SPEC, x, y)
            assert client.r == pow(6, x * y, 13)
