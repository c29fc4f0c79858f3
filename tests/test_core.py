"""Group arithmetic, hash modes, and the desk-scale oracles."""

import hashlib
import math
from math import gcd
import random
import re
import threading

import mpmath
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from pakelab import core
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
    NAMED_GROUPS,
    ORDER_CHECK_BOUND,
    SessionKey,
    Tally,
    derive_verifier,
    digest_hash,
    encode_residue,
    exponent_reduce,
    generate_params,
    hash_to_exponent,
    int_to_bytes,
    is_prime,
    mod_exp,
    mod_inverse,
    prime_factors,
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
    assert int.from_bytes(data, "big") == value


def test_residue_rejects_out_of_range():
    with pytest.raises(OutOfRange):
        encode_residue(13, TOY_PARAMS)
    with pytest.raises(OutOfRange):
        encode_residue(-1, TOY_PARAMS)


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
    params = GroupParams(q=SAFE_PRIME_80, g=2)
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


# safe primes q = 2p+1 of 65 to 256 bits, from sympy.nextprime on seeded starts
SAFE_PRIMES = [
    0x1a39378e03cfd577b,
    0x83e7165ff90149c62b,
    0xf3f49b851ff214b5da227,
    0xe72525a45c4ab5996348cdfa3,
    0xebad6be31cf54dd33e332a0933ba55af,
    0xbb049a79af4f4799187abe2d2527bd1f9116537b,
    0x96263ae78bd031f58086797afb57d2538946697f8d9b143b,
    0xc988931038b275ea29549ce33a78fbd8014c3f267ad8a3c6e1d7a58f,
    0xfd836e775ecfa8c3c82c640fa128932c05e1dd32e63928a43233d275a22eaf47,
]

# an 80-bit safe prime of which 2 generates the whole group
SAFE_PRIME_80 = 947852829033638865475379

MODP2048_Q = NAMED_GROUPS["modp2048"].q
MODP3072_Q = NAMED_GROUPS["modp3072"].q


def _powmod_cases():
    """(base, exponent, modulus) with moduli of 65 to 3072 bits."""
    rng = random.Random(4096)
    groups = [(SAFE_PRIMES[0], 2), (SAFE_PRIME_80, 2),
              (SAFE_PRIMES[4], 2), (sympy.nextprime(2 ** 511 + 12345), 3),
              (MODP2048_Q, 11), (MODP3072_Q, 5)]
    cases = []
    for q, g in groups:
        exponents = [0, 1, q - 2, q - 1, q, 2 * q + 3, 2 ** 4096,
                     rng.randrange(q * q)]
        cases += [(base, e, q) for base in (1, g, q - 1) for e in exponents]
    assert sorted({q.bit_length() for _, _, q in cases}) == [65, 80, 128, 512,
                                                             2048, 3072]
    return cases


@pytest.fixture(scope="module")
def powmod_cases():
    cases = _powmod_cases()
    return cases, [pow(*case) for case in cases]


def test_powmod_matches_pow_from_65_to_3072_bits(powmod_cases):
    cases, expected = powmod_cases
    assert [core._powmod(*case) for case in cases] == expected


def test_powmod_without_libcrypto_gives_the_same_results(powmod_cases, monkeypatch):
    monkeypatch.setattr(core, "_libcrypto", lambda: None)
    cases, expected = powmod_cases
    assert [core._powmod(*case) for case in cases] == expected


def test_powmod_keeps_pow_at_or_below_the_bound_and_for_even_moduli(monkeypatch):
    monkeypatch.setattr(core, "_libcrypto",
                        lambda: pytest.fail("libcrypto consulted"))
    for modulus in (13, 665179, ORDER_CHECK_BOUND - 59, ORDER_CHECK_BOUND,
                    ORDER_CHECK_BOUND + 2, MODP2048_Q + 1):
        for base, exponent in ((1, 0), (3, modulus - 2), (modulus - 1, 2 ** 100 + 1)):
            assert core._powmod(base, exponent, modulus) == pow(base, exponent, modulus)


def test_powmod_runs_on_libcrypto_when_the_library_is_found(monkeypatch):
    import ctypes.util
    if ctypes.util.find_library("crypto") is None:
        pytest.skip("no libcrypto on this host")
    assert core._libcrypto() is not None
    # a fallback to pow would now fail, so the gain cannot be lost silently
    monkeypatch.setattr(core, "pow", lambda *args: pytest.fail("pow called"),
                        raising=False)
    params = GroupParams(q=MODP2048_Q, g=11)
    assert mod_exp(11, MODP2048_Q - 2, params) == pow(11, MODP2048_Q - 2, MODP2048_Q)
    # the smallest odd moduli above the custom-group bound go there too
    assert SAFE_PRIMES[0].bit_length() == 65
    for modulus in (SAFE_PRIMES[0], ORDER_CHECK_BOUND + 1):
        assert core._powmod(3, modulus - 1, modulus) == pow(3, modulus - 1, modulus)


def test_powmod_from_four_threads_at_once():
    q = MODP2048_Q
    rng = random.Random(2048)
    work = [(rng.randrange(2, q), rng.randrange(q)) for _ in range(20)]
    expected = [pow(base, exponent, q) for base, exponent in work]
    results = {}

    def run(k):
        order = work[k:] + work[:k]            # each thread in its own order
        results[k] = [core._powmod(base, exponent, q) for base, exponent in order]

    threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert results == {k: expected[k:] + expected[:k] for k in range(4)}


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


TOO_LARGE = re.escape("use a named group (modp1536|modp2048|modp3072)")


def test_validate_params_refuses_custom_groups_above_2_64():
    q = ORDER_CHECK_BOUND - 59                  # the largest prime below 2^64
    assert _outcome(validate_params, q, 2) == "accepted"
    assert _outcome(validate_params, q, q - 1) == (
        NotGenerator, f"{q - 1} has order dividing {(q - 1) // 2} mod {q}")
    for q in (ORDER_CHECK_BOUND + 1, ORDER_CHECK_BOUND + 3):
        for g in (2, 3, q - 1, q):
            with pytest.raises(GroupTooLarge, match=TOO_LARGE):
                validate_params(GroupParams(q=q, g=g))


def _outcome(check, q, g):
    try:
        check(GroupParams(q=q, g=g))
    except Exception as exc:
        return type(exc), str(exc)
    return "accepted"


def test_validate_params_on_the_rfc3526_2048_bit_prime():
    q = MODP2048_Q
    refusal = (GroupTooLarge, "a custom group stops at 2^64, and this one has "
               "2048 bits; above 2^64 use a named group (modp1536|modp2048|modp3072)")
    expected = {2: refusal, 11: "accepted", q - 1: refusal}
    for g, outcome in expected.items():
        assert _outcome(validate_params, q, g) == outcome


# k in the RFC's formula for each named group, and the SHA-256 of the
# prime's big-endian encoding (perfbench/groups.py pins the same modp2048)
RFC3526 = {
    "modp1536": (741804,
                 "64fcc83ec403930bf18393dbc883ccaa1fbb08ac876f77f7aa99748ca945019b"),
    "modp2048": (124476,
                 "d66436f79bbd6b2e38c0ffbd079be904d2641415e2e67140e09448be9a60890e"),
    "modp3072": (1690314,
                 "48cf8b092fbce4359d9871abf74f98e25b6163379eaa15cd9087e800c6d1c55c"),
}


def test_the_named_groups_are_the_rfc3526_primes():
    assert list(NAMED_GROUPS) == list(RFC3526)
    for name, (k, digest) in RFC3526.items():
        n, q = int(name.removeprefix("modp")), NAMED_GROUPS[name].q
        with mpmath.workprec(n + 64):
            pi_term = int(mpmath.floor(mpmath.ldexp(mpmath.pi, n - 130)))
        assert q == 2 ** n - 2 ** (n - 64) - 1 + 2 ** 64 * (pi_term + k), name
        assert hashlib.sha256(q.to_bytes(n // 8, "big")).hexdigest() == digest, name


def test_the_named_groups_pass_the_full_check_and_skip_it(monkeypatch):
    monkeypatch.setattr(core, "is_prime", lambda n: pytest.fail("is_prime called"))
    for name, params in NAMED_GROUPS.items():
        validate_params(params)
        with pytest.MonkeyPatch.context() as bypass:
            bypass.setattr(core, "NAMED_GROUPS", {})
            with pytest.raises(GroupTooLarge):
                validate_params(params)
        # Pocklington's criterion with q - 1 = 2p: p prime, g^p = -1 and
        # gcd(g^2 - 1, q) = 1 prove q prime and g of order 2p = q - 1
        p = params.q // 2
        assert params.q == 2 * p + 1 and sympy.isprime(p), name
        assert mod_exp(params.g, p, params) == params.q - 1, name
        assert gcd(params.g ** 2 - 1, params.q) == 1, name
        # g is the smallest full-order base: every smaller one is a square
        assert all(mod_exp(g, p, params) == 1 for g in range(2, params.g)), name


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


def test_generate_params_refuses_more_than_64_bits():
    with pytest.raises(GroupTooLarge, match=TOO_LARGE):
        generate_params(65, seed=0)


# generate_params(bits, seed) -> (q, g) as the sympy-based search found them
PINNED_PARAMS = {
    (16, 0): (60331, 12), (16, 1): (49871, 17), (16, 2): (56431, 3),
    (20, 0): (536111, 7), (20, 1): (665179, 2), (20, 2): (993869, 2),
    (32, 0): (3626764237, 6), (32, 1): (2948425721, 3), (32, 2): (2606193617, 3),
    (48, 0): (272409603467017, 5), (48, 1): (251444687128489, 17),
    (48, 2): (150794612988881, 3),
    (64, 0): (9625328367889806653, 2), (64, 1): (17324573639174612641, 17),
    (64, 2): (15750464385269855119, 3),
}


@pytest.mark.parametrize("bits,seed", sorted(PINNED_PARAMS))
def test_generate_params_is_unchanged(bits, seed):
    params = generate_params(bits, seed)
    assert (params.q, params.g) == PINNED_PARAMS[bits, seed]


# -- primality and factoring ----------------------------------------------------------


def test_is_prime_matches_sympy_below_200000():
    assert [n for n in range(200_001) if is_prime(n) != sympy.isprime(n)] == []


def test_prime_factors_match_sympy_below_200000():
    assert [n for n in range(1, 200_001)
            if prime_factors(n) != sorted(sympy.factorint(n))] == []
    with pytest.raises(ValueError):
        prime_factors(0)


def test_is_prime_matches_sympy_on_random_values_up_to_64_bits():
    rng = random.Random(2024)
    for _ in range(400):
        n = rng.getrandbits(rng.randrange(18, 65))
        assert is_prime(n) == sympy.isprime(n), n
    for _ in range(40):
        p = sympy.randprime(2 ** 17, 2 ** 32)
        assert is_prime(p) and is_prime(sympy.randprime(2 ** 32, 2 ** 64))
        assert not is_prime(p * sympy.randprime(2 ** 20, 2 ** 21))
        assert not is_prime(p * p)
    assert is_prime(ORDER_CHECK_BOUND - 59)
    with pytest.raises(ValueError):
        is_prime(ORDER_CHECK_BOUND + 1)


@pytest.mark.parametrize("n", [
    3317044064679887385961981,      # strong pseudoprime to every base 2..41
    318665857834031151167461,       # strong pseudoprime to every base 2..37
    3825123056546413051,            # strong pseudoprime to bases 2..23
    5459, 5777, 10877, 16109, 18971,    # strong Lucas pseudoprimes
])
def test_is_prime_refuses_known_pseudoprimes(n):
    assert not sympy.isprime(n)
    if n > ORDER_CHECK_BOUND:           # no answer at all above 2^64
        with pytest.raises(ValueError):
            is_prime(n)
    else:
        assert not is_prime(n)


def test_a_library_without_one_of_the_calls_counts_as_not_found(monkeypatch):
    import ctypes
    import ctypes.util

    class Library:
        def __init__(self, path):
            pass

        def __getattr__(self, name):
            if name == "BN_mod_exp_mont_consttime":
                raise AttributeError(name)
            return lambda *args: None

    monkeypatch.setattr(ctypes.util, "find_library", lambda name: "libcrypto.so")
    monkeypatch.setattr(ctypes, "CDLL", Library)
    assert core._libcrypto.__wrapped__() is None


def test_prime_factors_match_sympy_on_random_values_up_to_64_bits():
    rng = random.Random(7)
    for _ in range(10):
        # small primes with repeats, then a prime cofactor of at least 5 bits:
        # the small ones stop short of bits // 2 + 16 bits in all
        bits = rng.randrange(40, 65)
        primes = []
        while sum(p.bit_length() for p in primes) < bits // 2:
            primes.append(sympy.randprime(2, 2 ** rng.randrange(2, 17)))
        rest = bits - sum(p.bit_length() for p in primes)
        primes.append(sympy.randprime(2 ** (rest - 1), 2 ** rest))
        n = math.prod(primes)
        assert prime_factors(n) == sorted(set(primes)) == sorted(sympy.factorint(n))
        # two 32-bit primes, the hardest split Pollard's rho meets here
        primes = [sympy.randprime(2 ** 31, 2 ** 32) for _ in range(2)]
        assert prime_factors(math.prod(primes)) == sorted(set(primes))


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
    assert sorted(table.dlog(e) for e in range(1, 13)) == list(range(12))
    for k in range(12):
        assert table.dlog(pow(6, k, 13)) == k


def test_dlog_table_rejects_non_generators_and_big_groups():
    with pytest.raises(NotGenerator):
        DlogTable(GroupParams(q=13, g=3))       # back at 1 after 3 steps
    with pytest.raises(NotGenerator):
        DlogTable(GroupParams(q=13, g=0))       # never back at 1
    q = sympy.nextprime(DESK_SCALE_BOUND)
    with pytest.raises(GroupTooLarge):
        DlogTable(GroupParams(q=q, g=2))


def test_dlog_rejects_non_elements():
    table = DlogTable.for_params(TOY_PARAMS)
    with pytest.raises(NotInGroup):
        table.dlog(0)
    with pytest.raises(NotInGroup):
        table.dlog(13)


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
