"""Group arithmetic, hash modes, and the desk-scale oracles."""

import hashlib
from math import gcd
import random

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from pakelab.core import (
    DESK_SCALE_BOUND,
    DIGEST256,
    TOYSUM,
    TOY_CREDS,
    TOY_PARAMS,
    Credentials,
    DlogTable,
    GroupParams,
    HashSpec,
    SessionKey,
    Tally,
    brute_force_dlog,
    decode_residue,
    derive_verifier,
    digest_hash,
    encode_residue,
    exponent_reduce,
    generate_params,
    hash_to_exponent,
    int_to_bytes,
    mod_exp,
    mod_inverse,
    sample_nonce,
    toy_pairing,
    toy_sum_hash,
    validate_params,
)
from pakelab.errors import (
    BaseOutOfRange,
    DegenerateGroup,
    GroupTooLarge,
    NotCoprime,
    NotGenerator,
    NotInGroup,
    NotPrime,
    OutOfRange,
    UnknownAlgorithm,
)

MID_PARAMS = GroupParams(q=29, g=2)
BIG_TOY_PARAMS = GroupParams(q=61, g=2)
PARAM_SETS = [TOY_PARAMS, MID_PARAMS, BIG_TOY_PARAMS]

params_st = st.sampled_from(PARAM_SETS)


# -- GroupParams / Credentials -------------------------------------------------


def test_group_params_basics():
    assert TOY_PARAMS.order == 12
    assert TOY_PARAMS.q_byte_len == 1
    assert GroupParams(q=257, g=3).q_byte_len == 2
    assert GroupParams(q=65537, g=3).q_byte_len == 3


def test_contains_is_strict_group_membership():
    assert not TOY_PARAMS.contains(0)
    assert TOY_PARAMS.contains(1)
    assert TOY_PARAMS.contains(12)
    assert not TOY_PARAMS.contains(13)
    assert not TOY_PARAMS.contains(-1)


def test_credentials_reject_bad_identities():
    with pytest.raises(ValueError):
        Credentials(id_a=5, id_b=5, password=1)
    with pytest.raises(ValueError):
        Credentials(id_a=-1, id_b=5, password=1)
    with pytest.raises(ValueError):
        Credentials(id_a=1, id_b=5, password=-2)


# -- byte encodings ------------------------------------------------------------


def test_int_to_bytes_zero_is_single_zero_byte():
    assert int_to_bytes(0) == b"\x00"


def test_int_to_bytes_rejects_negative():
    with pytest.raises(ValueError):
        int_to_bytes(-1)


@given(st.integers(min_value=0, max_value=2 ** 256))
def test_int_to_bytes_is_minimal_and_invertible(value):
    data = int_to_bytes(value)
    assert int.from_bytes(data, "big") == value
    assert len(data) == max(1, (value.bit_length() + 7) // 8)
    if value > 0:
        assert data[0] != 0


@given(params_st, st.integers(min_value=0, max_value=60))
def test_residue_round_trip(params, value):
    if value >= params.q:
        value %= params.q
    data = encode_residue(value, params)
    assert len(data) == params.q_byte_len
    assert decode_residue(data, params) == value


def test_residue_rejects_out_of_range():
    with pytest.raises(OutOfRange):
        encode_residue(13, TOY_PARAMS)
    with pytest.raises(OutOfRange):
        encode_residue(-1, TOY_PARAMS)
    with pytest.raises(OutOfRange):
        decode_residue(b"\x00\x01", TOY_PARAMS)


# -- modular arithmetic ----------------------------------------------------------


@given(params_st, st.integers(min_value=1, max_value=10 ** 6),
       st.integers(min_value=0, max_value=10 ** 6))
def test_mod_exp_matches_builtin_pow(params, base, exponent):
    base = base % (params.q - 1) + 1
    assert mod_exp(base, exponent, params) == pow(base, exponent, params.q)


def test_mod_exp_rejects_bad_operands():
    with pytest.raises(BaseOutOfRange):
        mod_exp(0, 3, TOY_PARAMS)
    with pytest.raises(BaseOutOfRange):
        mod_exp(13, 3, TOY_PARAMS)
    with pytest.raises(ValueError):
        mod_exp(2, -1, TOY_PARAMS)


def test_mod_exp_tallies_into_the_right_bucket():
    tally = Tally()
    mod_exp(2, 3, TOY_PARAMS, tally)
    mod_exp(2, 3, TOY_PARAMS, tally, registration=True)
    mod_exp(2, 3, TOY_PARAMS)          # no tally, no count
    assert tally.modexp == 1
    assert tally.modexp_registration == 1


def test_mod_exp_matches_pow_on_a_safe_prime_group():
    params = generate_params(80, seed=1)
    assert params.q.bit_length() == 80
    rng = random.Random(80)
    exponents = [0, 1, params.q - 2] + [rng.randrange(params.q ** 2)
                                        for _ in range(25)]
    for base in (1, params.g, params.q - 1, rng.randrange(2, params.q - 1)):
        for exponent in exponents:
            assert mod_exp(base, exponent, params) == pow(base, exponent, params.q)
    with pytest.raises(BaseOutOfRange):
        mod_exp(0, 3, params)
    with pytest.raises(BaseOutOfRange):
        mod_exp(params.q, 3, params)
    with pytest.raises(ValueError):
        mod_exp(params.g, -1, params)
    tally = Tally()
    mod_exp(params.g, params.q - 2, params, tally)
    mod_exp(params.g, params.q - 2, params, tally, registration=True)
    mod_exp(params.g, params.q - 2, params)
    assert (tally.modexp, tally.modexp_registration) == (1, 1)


@given(st.integers(min_value=2, max_value=10 ** 6),
       st.integers(min_value=1, max_value=10 ** 6))
def test_mod_inverse_inverts(m, a):
    if gcd(a, m) != 1:
        with pytest.raises(NotCoprime):
            mod_inverse(a, m)
    else:
        inv = mod_inverse(a, m)
        assert 0 <= inv < m
        assert (a * inv) % m == 1


def test_mod_inverse_names_the_gcd():
    with pytest.raises(NotCoprime, match=r"gcd\(6, 9\) = 3"):
        mod_inverse(15, 9)


def test_mod_inverse_rejects_tiny_modulus():
    with pytest.raises(ValueError):
        mod_inverse(3, 1)


def test_exponent_reduce():
    assert exponent_reduce(25, TOY_PARAMS) == 1
    assert exponent_reduce(12, TOY_PARAMS) == 0
    with pytest.raises(ValueError):
        exponent_reduce(-1, TOY_PARAMS)


# -- hash modes -----------------------------------------------------------------


def test_toy_sum_hash_is_the_exact_sum():
    assert toy_sum_hash([9, 12, 10]) == 31
    assert toy_sum_hash([2 ** 100, 1]) == 2 ** 100 + 1
    with pytest.raises(ValueError):
        toy_sum_hash([1, -1])


def test_digest_hash_matches_direct_sha256():
    # independent reconstruction of the length-prefixed encoding
    h = hashlib.sha256()
    for chunk in (b"\x09", b"\x0c", b"\x0a"):
        h.update(len(chunk).to_bytes(2, "big"))
        h.update(chunk)
    expected = int.from_bytes(h.digest(), "big")
    assert digest_hash([b"\x09", b"\x0c", b"\x0a"]) == expected


def test_digest_hash_separates_fields():
    assert digest_hash([b"ab", b""]) != digest_hash([b"a", b"b"])
    assert digest_hash([b"ab"]) != digest_hash([b"a", b"b"])


def test_digest_hash_rejects_unusable_algorithms():
    with pytest.raises(UnknownAlgorithm):
        digest_hash([b"x"], "md5")      # real digest, wrong width
    with pytest.raises(UnknownAlgorithm):
        digest_hash([b"x"], "not-a-digest")


def test_digest_hash_field_length_cap():
    with pytest.raises(ValueError):
        digest_hash([b"\x00" * 65536])


def test_hash_spec_modes():
    spec = HashSpec(TOYSUM)
    assert spec.of_ints([9, 12, 10]) == 31
    spec256 = HashSpec(DIGEST256)
    assert spec256.of_ints([9, 12, 10]) == digest_hash([b"\x09", b"\x0c", b"\x0a"])
    with pytest.raises(ValueError):
        HashSpec("sponge")


def test_hash_spec_counts_evaluations():
    tally = Tally()
    HashSpec(TOYSUM).of_ints([1], tally)
    HashSpec(DIGEST256).of_ints([1], tally)
    assert tally.hash_evals == 2


# -- exponent adjustment ---------------------------------------------------------


@given(params_st, st.integers(min_value=0, max_value=10 ** 9))
def test_hash_to_exponent_output_is_invertible(params, hash_value):
    e = hash_to_exponent(hash_value, params)
    assert 1 <= e <= params.order - 1
    assert gcd(e, params.order) == 1
    # and therefore the inverse exists
    assert (e * mod_inverse(e, params.order)) % params.order == 1


def test_hash_to_exponent_keeps_already_good_values():
    assert hash_to_exponent(5, TOY_PARAMS) == 5
    assert hash_to_exponent(5 + 12, TOY_PARAMS) == 5


def test_hash_to_exponent_walks_past_bad_values():
    # 0 -> 1; 8, 9, 10 share factors with 12 -> 11
    assert hash_to_exponent(0, TOY_PARAMS) == 1
    assert hash_to_exponent(8, TOY_PARAMS) == 11


def test_hash_to_exponent_degenerate_group():
    with pytest.raises(DegenerateGroup):
        hash_to_exponent(0, GroupParams(q=2, g=1))


# -- parameter validation ---------------------------------------------------------


def test_validate_params_accepts_the_fixed_groups():
    for params in PARAM_SETS:
        validate_params(params)


def test_validate_params_rejects_composite_and_non_generators():
    with pytest.raises(NotPrime):
        validate_params(GroupParams(q=15, g=2))
    with pytest.raises(OutOfRange):
        validate_params(GroupParams(q=13, g=1))
    with pytest.raises(OutOfRange):
        validate_params(GroupParams(q=13, g=13))
    with pytest.raises(NotGenerator):
        validate_params(GroupParams(q=13, g=12))   # order 2
    with pytest.raises(NotGenerator):
        validate_params(GroupParams(q=13, g=3))    # order 3


def test_validate_params_large_groups_need_safe_primes():
    # smallest prime above 2^65 whose (q-1)/2 is composite
    q = sympy.nextprime(2 ** 65)
    while sympy.isprime((q - 1) // 2):
        q = sympy.nextprime(q)
    with pytest.raises(NotPrime):
        validate_params(GroupParams(q=q, g=2))


def test_validate_params_accepts_a_safe_prime():
    p = sympy.nextprime(2 ** 65)
    while not sympy.isprime(2 * p + 1):
        p = sympy.nextprime(p)
    q = 2 * p + 1
    g = next(g for g in range(2, 100)
             if pow(g, 2, q) != 1 and pow(g, p, q) != 1)
    validate_params(GroupParams(q=q, g=g))


@pytest.mark.parametrize("bits", [8, 10, 12, 16])
def test_generate_params_is_deterministic_and_valid(bits):
    params = generate_params(bits, seed=7)
    again = generate_params(bits, seed=7)
    assert params == again
    assert params.q.bit_length() == bits
    validate_params(params)


def test_generate_params_rejects_tiny_sizes():
    with pytest.raises(ValueError):
        generate_params(3, seed=0)


# -- verifier derivation -----------------------------------------------------------


def test_derive_verifier_toy_value():
    assert derive_verifier(TOY_CREDS, TOY_PARAMS, HashSpec(TOYSUM)) == 7


def test_derive_verifier_counts_as_registration():
    tally = Tally()
    derive_verifier(TOY_CREDS, TOY_PARAMS, HashSpec(TOYSUM), tally)
    assert tally.modexp_registration == 1
    assert tally.modexp == 0
    assert tally.hash_evals == 1


@given(params_st, st.integers(min_value=0, max_value=500))
def test_derive_verifier_always_yields_a_generator(params, password):
    creds = Credentials(id_a=9, id_b=12, password=password)
    v = derive_verifier(creds, params, HashSpec(TOYSUM))
    table = DlogTable.for_params(params)
    assert gcd(table.dlog(v), params.order) == 1
    assert v != 1


# -- desk-scale oracles -------------------------------------------------------------


def test_dlog_table_is_a_bijection_on_the_toy_group():
    table = DlogTable.for_params(TOY_PARAMS)
    assert sorted(table.table) == list(range(1, 13))
    for k in range(12):
        assert table.dlog(pow(6, k, 13)) == k


def test_dlog_table_rejects_non_generators_and_big_groups():
    with pytest.raises(NotGenerator):
        DlogTable(GroupParams(q=13, g=3))
    q = sympy.nextprime(DESK_SCALE_BOUND)
    with pytest.raises(GroupTooLarge):
        DlogTable(GroupParams(q=q, g=2))


def test_dlog_rejects_non_elements():
    table = DlogTable.for_params(TOY_PARAMS)
    with pytest.raises(NotInGroup):
        table.dlog(0)
    with pytest.raises(NotInGroup):
        table.dlog(13)


def test_brute_force_dlog_agrees_with_table():
    for element in range(1, 13):
        assert pow(6, brute_force_dlog(element, TOY_PARAMS), 13) == element


@given(params_st,
       st.integers(min_value=1, max_value=60),
       st.integers(min_value=1, max_value=60),
       st.integers(min_value=0, max_value=60))
def test_toy_pairing_is_bilinear(params, x, y, a):
    x = x % (params.q - 1) + 1
    y = y % (params.q - 1) + 1
    lifted = pow(x, a, params.q)
    assert toy_pairing(lifted, y, params) == (
        a * toy_pairing(x, y, params)) % params.order


def test_toy_pairing_of_generator_with_itself():
    assert toy_pairing(TOY_PARAMS.g, TOY_PARAMS.g, TOY_PARAMS) == 1


# -- nonces and keys -----------------------------------------------------------------


@given(params_st, st.integers(min_value=0, max_value=10 ** 6))
def test_sample_nonce_stays_in_range(params, seed):
    x = sample_nonce(params, random.Random(seed))
    assert 1 <= x <= params.order - 1


def test_session_key_encodes_canonically():
    key = SessionKey.from_value(9, TOY_PARAMS)
    assert key.value == 9
    assert key.data == encode_residue(9, TOY_PARAMS)
    assert key == SessionKey.from_value(9, TOY_PARAMS)
