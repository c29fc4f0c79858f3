"""Baseline scheme: masked exchange, confirmations, and its failure modes."""

import pytest
from hypothesis import given, strategies as st

from pakelab.core import (
    Credentials,
    GroupParams,
    HashSpec,
    TOY_CREDS,
    TOY_PARAMS,
    TOYSUM,
    DIGEST256,
    VerifierRecord,
    derive_verifier,
)
from pakelab.errors import (
    AuthFail,
    MalformedFrame,
    OutOfRange,
    RetryNonce,
    UnknownIdentity,
    UnmaskOutOfRange,
)
from pakelab.lky import (
    lky_client_finish,
    lky_client_start,
    lky_server_finish,
    lky_server_respond,
    xor_mask,
    xor_unmask,
)
from pakelab.netio.frames import LkyMsg2Frame, Msg3Frame

TOYSUM_SPEC = HashSpec(TOYSUM)
MID_PARAMS = GroupParams(q=29, g=2)


def toy_record():
    return VerifierRecord(id_a=9, id_b=12,
                          v=derive_verifier(TOY_CREDS, TOY_PARAMS, TOYSUM_SPEC))


def run_handshake(params, creds, hash_spec, x, y, record=None):
    if record is None:
        record = VerifierRecord(id_a=creds.id_a, id_b=creds.id_b,
                                v=derive_verifier(creds, params, hash_spec))
    msg1, client = lky_client_start(creds, params, hash_spec, x)
    msg2, server = lky_server_respond(msg1, record, params, hash_spec, y)
    msg3, key_a = lky_client_finish(msg2, client)
    key_b = lky_server_finish(msg3, server)
    return msg1, msg2, msg3, key_a, key_b, client, server


# -- pinned toy run ----------------------------------------------------------


def test_toy_handshake_values():
    msg1, msg2, msg3, key_a, key_b, client, server = run_handshake(
        TOY_PARAMS, TOY_CREDS, TOYSUM_SPEC, x=3, y=4)
    assert client.v == 7
    assert msg1.t_a == 15
    assert msg2.t_b_masked == 14
    assert server.r_b == 1
    assert msg2.d_b == 28
    assert msg3.d_a == 24
    assert key_a.value == key_b.value == 1


# -- masking -------------------------------------------------------------------


@given(st.integers(min_value=1, max_value=28),
       st.integers(min_value=1, max_value=28))
def test_mask_round_trip(value, v):
    masked = xor_mask(value, v, MID_PARAMS)
    assert masked < 256 ** MID_PARAMS.q_byte_len
    if value == v:
        # the zero mask is rejected on receipt by design
        with pytest.raises(UnmaskOutOfRange):
            xor_unmask(masked, v, MID_PARAMS)
    else:
        assert xor_unmask(masked, v, MID_PARAMS) == value


def test_unmask_rejects_wrong_width():
    # wider than the group's q_byte_len bytes: a malformed frame
    with pytest.raises(MalformedFrame, match="exceeds the group width"):
        xor_unmask(256, 7, TOY_PARAMS)


def test_unmask_rejects_all_zero():
    with pytest.raises(UnmaskOutOfRange):
        xor_unmask(0, 7, TOY_PARAMS)


def test_unmask_rejects_values_outside_the_group():
    # 10 xor 7 = 13 = q, one past the last element
    with pytest.raises(UnmaskOutOfRange):
        xor_unmask(10, 7, TOY_PARAMS)


def test_mask_rejects_non_elements():
    with pytest.raises(UnmaskOutOfRange):
        xor_mask(0, 7, TOY_PARAMS)
    with pytest.raises(OutOfRange):
        xor_mask(13, 7, TOY_PARAMS)


# -- nonce hygiene ----------------------------------------------------------------


def test_client_resamples_when_mask_would_vanish():
    # 6^7 = 7 = v on the toy group
    with pytest.raises(RetryNonce):
        lky_client_start(TOY_CREDS, TOY_PARAMS, TOYSUM_SPEC, x=7)


def test_server_resamples_when_mask_would_vanish():
    msg1, _ = lky_client_start(TOY_CREDS, TOY_PARAMS, TOYSUM_SPEC, x=3)
    with pytest.raises(RetryNonce):
        lky_server_respond(msg1, toy_record(), TOY_PARAMS, TOYSUM_SPEC, y=1)


def test_nonce_range_is_enforced():
    for bad in (0, 12):
        with pytest.raises(ValueError):
            lky_client_start(TOY_CREDS, TOY_PARAMS, TOYSUM_SPEC, x=bad)
    msg1, _ = lky_client_start(TOY_CREDS, TOY_PARAMS, TOYSUM_SPEC, x=3)
    with pytest.raises(ValueError):
        lky_server_respond(msg1, toy_record(), TOY_PARAMS, TOYSUM_SPEC, y=0)


# -- authentication failures -------------------------------------------------------


def test_unknown_identity():
    msg1, _ = lky_client_start(TOY_CREDS, TOY_PARAMS, TOYSUM_SPEC, x=3)
    record = VerifierRecord(id_a=8, id_b=12, v=7)
    with pytest.raises(UnknownIdentity):
        lky_server_respond(msg1, record, TOY_PARAMS, TOYSUM_SPEC, y=4)


def test_tampered_server_confirmation_is_rejected():
    msg1, client = lky_client_start(TOY_CREDS, TOY_PARAMS, TOYSUM_SPEC, x=3)
    msg2, _ = lky_server_respond(msg1, toy_record(), TOY_PARAMS, TOYSUM_SPEC, y=4)
    with pytest.raises(AuthFail):
        lky_client_finish(
            LkyMsg2Frame(t_b_masked=msg2.t_b_masked, d_b=msg2.d_b + 1), client)


def test_tampered_client_confirmation_is_rejected():
    msg1, client = lky_client_start(TOY_CREDS, TOY_PARAMS, TOYSUM_SPEC, x=3)
    msg2, server = lky_server_respond(msg1, toy_record(), TOY_PARAMS,
                                      TOYSUM_SPEC, y=4)
    msg3, _ = lky_client_finish(msg2, client)
    with pytest.raises(AuthFail):
        lky_server_finish(Msg3Frame(d_a=msg3.d_a + 1), server)


def test_wrong_verifier_on_record_cannot_complete():
    record = VerifierRecord(id_a=9, id_b=12, v=11)
    with pytest.raises((AuthFail, UnmaskOutOfRange)):
        run_handshake(TOY_PARAMS, TOY_CREDS, TOYSUM_SPEC, x=3, y=4,
                      record=record)


# -- agreement across the whole toy nonce space --------------------------------------


def test_every_usable_toy_nonce_pair_agrees():
    completed = 0
    for x in range(1, 12):
        for y in range(1, 12):
            try:
                _, _, _, key_a, key_b, _, _ = run_handshake(
                    TOY_PARAMS, TOY_CREDS, TOYSUM_SPEC, x, y)
            except RetryNonce:
                assert x == 7 or y == 1
                continue
            assert key_a == key_b
            completed += 1
    assert completed == 100     # 11*11 minus the x=7 column and y=1 row


@given(st.integers(min_value=1, max_value=27),
       st.integers(min_value=1, max_value=27),
       st.integers(min_value=0, max_value=200))
def test_random_runs_agree_on_a_wider_group(x, y, password):
    creds = Credentials(id_a=5, id_b=17, password=password)
    try:
        _, _, _, key_a, key_b, _, _ = run_handshake(
            MID_PARAMS, creds, TOYSUM_SPEC, x, y)
    except RetryNonce:
        return
    assert key_a == key_b
    assert 0 <= key_a.value < 29


def test_two_byte_group_handshake():
    params = GroupParams(q=257, g=3)
    creds = Credentials(id_a=1001, id_b=2002, password=31337)
    msg1, msg2, _, key_a, key_b, _, _ = run_handshake(
        params, creds, HashSpec(DIGEST256), x=100, y=200)
    assert params.q_byte_len == 2
    assert msg1.t_a < 256 ** 2 and msg2.t_b_masked < 256 ** 2
    assert key_a == key_b
