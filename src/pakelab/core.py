"""Group arithmetic, hash modes, and desk-scale analysis oracles.

Everything else in the workbench builds on this module. The setting is the
multiplicative group Z_q^* of a prime q with a generator g of full order q-1:

  q      prime modulus
  g      generator of Z_q^*, order exactly q-1
  h      the protocol hash; two interchangeable modes (see HashSpec)
  v      password verifier g^h(id_A, id_B, P) mod q

Exponents of g live modulo the group order q-1. Hash values that feed an
exponent position pass through hash_to_exponent(), which reduces mod q-1 and
then bumps the result until it is nonzero and coprime to q-1, so that its
inverse mod q-1 always exists. That adjustment is deterministic and both
protocol sides apply it identically.

There are two kinds of group. A custom group has q <= ORDER_CHECK_BOUND
(2^64): parameter validation and generation test primality (is_prime,
exact there) and factor q-1 (prime_factors) to certify the generator's
order. Above 2^64 only the RFC 3526 groups in NAMED_GROUPS are accepted;
the test suite certifies them once, so validating one costs nothing.

Exponentiation modulo an odd number above ORDER_CHECK_BOUND (mod_exp on
the named groups) runs on OpenSSL's libcrypto, through ctypes, when
ctypes.util.find_library("crypto") finds it: about ten times faster than
pow at 2048 bits. On custom groups, and without the library, pow does the
work. The library loads on the first such call, so custom groups never
import ctypes.

Two oracles are deliberately brute-force and only constructible for small
groups (q <= DESK_SCALE_BOUND): an exhaustive discrete-log table, and a toy
bilinear map e(X, Y) = dlog(X) * dlog(Y) mod (q-1) built on top of it. They
exist to make security experiments and server-authentication checks
executable at desk scale, not to model computational hardness.
"""

from __future__ import annotations

import hashlib
import random
from array import array
from dataclasses import dataclass, field
from functools import cache
from itertools import count
from math import gcd
from typing import List, Optional, Sequence

from .errors import (
    BaseOutOfRange,
    DegenerateGroup,
    GroupTooLarge,
    NotCoprime,
    NotGenerator,
    NotInGroup,
    NotPrime,
    OutOfRange,
    SearchExhausted,
)

# q at or below this admits the exhaustive dlog table (and thus the toy pairing).
DESK_SCALE_BOUND = 2 ** 20

# Custom groups stop here: up to it, generator order is certified by fully
# factoring q-1; above it, only NAMED_GROUPS are accepted, and _powmod runs
# them on libcrypto.
ORDER_CHECK_BOUND = 2 ** 64

TOYSUM = "toysum"
DIGEST256 = "digest256"

# Canonical scheme names used by reports, scenarios, the CLI, and logs.
SCHEME_LKY = "lky"
SCHEME_PROPOSED = "proposed"


@dataclass(frozen=True)
class GroupParams:
    """Public group parameters: prime modulus q and generator g of Z_q^*."""

    q: int
    g: int

    @property
    def order(self) -> int:
        """Order of g, which is q-1 for valid parameters."""
        return self.q - 1

    @property
    def q_byte_len(self) -> int:
        """Width in bytes of the canonical fixed-width encoding of residues."""
        return (self.q.bit_length() + 7) // 8

    def contains(self, value: int) -> bool:
        """True iff value is an element of Z_q^*."""
        return 0 < value < self.q


@dataclass(frozen=True)
class Credentials:
    """Client-side secret material: the identity pair and the password.

    Identities and the password are nonnegative integers at the protocol
    layer; the CLI maps string identities through the digest hash.
    """

    id_a: int
    id_b: int
    password: int

    def __post_init__(self):
        if self.id_a == self.id_b:
            raise ValueError("id_a and id_b must differ")
        if min(self.id_a, self.id_b, self.password) < 0:
            raise ValueError("identities and password must be nonnegative")


@dataclass(frozen=True)
class VerifierRecord:
    """Server-stored verifier v bound to an identity pair."""

    id_a: int
    id_b: int
    v: int


@dataclass
class Tally:
    """Per-session operation counters, owned by one protocol party.

    Passed into mod_exp() and HashSpec.of_ints() by the state machines;
    never global. Registration-time exponentiations (deriving v from the
    password) are tallied separately so per-session costs stay comparable.
    """

    modexp: int = 0
    modexp_registration: int = 0
    hash_evals: int = 0


@dataclass(frozen=True)
class HashSpec:
    """Selects how the protocol hash h is computed.

    TOYSUM sums its integer arguments without reduction; its runs stay
    checkable on paper, and every golden vector uses it. DIGEST256 runs
    SHA-256 over a length-prefixed encoding of the arguments for realistic
    runs.
    """

    mode: str = TOYSUM

    def __post_init__(self):
        if self.mode not in (TOYSUM, DIGEST256):
            raise ValueError(f"unknown hash mode {self.mode!r}")

    def of_ints(self, values: Sequence[int], tally: Optional[Tally] = None) -> int:
        """Apply h to an ordered list of nonnegative integers."""
        if tally is not None:
            tally.hash_evals += 1
        if self.mode == TOYSUM:
            return toy_sum_hash(values)
        return digest_hash([int_to_bytes(value) for value in values])


def int_to_bytes(value: int) -> bytes:
    """Minimal big-endian magnitude encoding; 0 encodes as a single zero byte."""
    if value < 0:
        raise ValueError("negative integers have no wire encoding")
    return value.to_bytes(max(1, (value.bit_length() + 7) // 8), "big")


def encode_residue(value: int, params: GroupParams) -> bytes:
    """Canonical fixed-width encoding: big-endian, exactly q_byte_len bytes."""
    if not 0 <= value < params.q:
        raise OutOfRange(f"{value} is not a residue mod {params.q}")
    return value.to_bytes(params.q_byte_len, "big")


def mod_exp(base: int, exponent: int, params: GroupParams,
            tally: Optional[Tally] = None, registration: bool = False) -> int:
    """base^exponent mod q, for base in Z_q^* and exponent >= 0.

    The arithmetic is _powmod: the built-in three-argument pow on custom
    groups, libcrypto's constant-time Montgomery exponentiation on the
    named ones when the library is found. This wrapper exists for its range
    checks and to increment the caller's tally (per-session or
    registration bucket) when one is supplied, which is how the efficiency
    accounting is measured rather than asserted. Every protocol
    exponentiation goes through here.
    """
    if not params.contains(base):
        raise BaseOutOfRange(f"base {base} not in Z_{params.q}^*")
    if exponent < 0:
        raise ValueError("exponent must be nonnegative")
    if tally is not None:
        if registration:
            tally.modexp_registration += 1
        else:
            tally.modexp += 1
    return _powmod(base, exponent, params.q)


def _powmod(base: int, exponent: int, modulus: int) -> int:
    """base^exponent mod modulus, for base >= 0, exponent >= 0, modulus > 1.

    An odd modulus above ORDER_CHECK_BOUND (a named group) goes to
    libcrypto's BN_mod_exp_mont_consttime, through ctypes: at 2048 bits
    3.7 ms where pow takes 40 ms (x86-64 Xeon, OpenSSL 3.0). Custom groups,
    where a ctypes call costs more than it saves, even moduli, and every
    call on a host where find_library("crypto") finds nothing run the
    built-in pow. The ctypes call releases the GIL while libcrypto works.
    """
    lib = _libcrypto() if modulus > ORDER_CHECK_BOUND and modulus & 1 else None
    if lib is None:
        return pow(base, exponent, modulus)
    import ctypes
    failed = MemoryError("libcrypto ran out of memory")
    ctx = lib.BN_CTX_new()            # one per call, so threads share no state
    if not ctx:
        raise failed
    lib.BN_CTX_start(ctx)
    try:
        result, *operands = bns = [lib.BN_CTX_get(ctx) for _ in range(4)]
        if not bns[-1]:               # once BN_CTX_get fails, later calls fail too
            raise failed
        for value, bn in zip((base, exponent, modulus), operands):
            data = value.to_bytes((value.bit_length() + 7) // 8, "big")
            if not lib.BN_bin2bn(data, len(data), bn):
                raise failed
        if not lib.BN_mod_exp_mont_consttime(result, *operands, ctx, None):
            raise failed
        width = (modulus.bit_length() + 7) // 8
        out = ctypes.create_string_buffer(width)
        lib.BN_bn2binpad(result, out, width)
        return int.from_bytes(out.raw, "big")
    finally:
        lib.BN_CTX_end(ctx)
        lib.BN_CTX_free(ctx)


@cache
def _libcrypto():
    """OpenSSL's libcrypto with the BIGNUM calls _powmod makes, or None.

    Loaded on the first call, which comes from the first exponentiation
    above ORDER_CHECK_BOUND, so runs on custom groups never import ctypes. A
    library without one of the calls (all are in OpenSSL 1.1.0 and later)
    counts as not found.
    """
    import ctypes
    import ctypes.util
    path = ctypes.util.find_library("crypto")
    if path is None:
        return None
    bn, status = ctypes.c_void_p, ctypes.c_int
    try:
        lib = ctypes.CDLL(path)
        for name, restype, argtypes in (
                ("BN_CTX_new", bn, []),
                ("BN_CTX_free", None, [bn]),
                ("BN_CTX_start", None, [bn]),
                ("BN_CTX_get", bn, [bn]),
                ("BN_CTX_end", None, [bn]),
                ("BN_bin2bn", bn, [ctypes.c_char_p, status, bn]),
                ("BN_bn2binpad", status, [bn, ctypes.c_char_p, status]),
                ("BN_mod_exp_mont_consttime", status, [bn] * 6)):
            function = getattr(lib, name)
            function.restype, function.argtypes = restype, argtypes
    except (OSError, AttributeError):        # unloadable, or older than 1.1.0
        return None
    return lib


def mod_inverse(a: int, m: int) -> int:
    """Inverse of a modulo m, via the built-in pow(a, -1, m).

    Raises NotCoprime when gcd(a mod m, m) != 1, which for this protocol
    never happens on hash_to_exponent output.
    """
    if m < 2:
        raise ValueError("modulus must be >= 2")
    a %= m
    try:
        return pow(a, -1, m)
    except ValueError:
        raise NotCoprime(f"gcd({a}, {m}) = {gcd(a, m)}") from None


def exponent_reduce(value: int, params: GroupParams) -> int:
    """Reduce an exponent of g modulo the group order q-1."""
    if value < 0:
        raise ValueError("exponent must be nonnegative")
    return value % params.order


def hash_to_exponent(hash_value: int, params: GroupParams) -> int:
    """Map a hash value to an invertible exponent of g.

    Reduces mod q-1, then walks forward (wrapping, deterministically) until
    the result is nonzero and coprime to q-1. The output e always satisfies
    1 <= e <= q-2 and gcd(e, q-1) = 1, so mod_inverse(e, q-1) exists and the
    derived verifier g^e is itself a generator.
    """
    order = params.order
    if order < 2:
        raise DegenerateGroup(f"q = {params.q} leaves no usable exponent")
    e = hash_value % order
    for _ in range(order + 1):
        if e != 0 and gcd(e, order) == 1:
            return e
        e = (e + 1) % order
    raise DegenerateGroup(f"no invertible exponent mod {order}")


def toy_sum_hash(inputs: Sequence[int]) -> int:
    """Sum-of-arguments hash: the hand-checkable mode the golden vectors pin.

    Returns the exact unreduced sum; callers reduce per context (mod q for
    transmitted values, through hash_to_exponent for exponents).
    """
    total = 0
    for value in inputs:
        if value < 0:
            raise ValueError("hash inputs must be nonnegative")
        total += value
    return total


def digest_hash(inputs: Sequence[bytes]) -> int:
    """SHA-256 over a length-prefixed field encoding, as an integer.

    Each field is prefixed with its 2-byte big-endian length, so ("a","b")
    and ("ab","") hash differently. Result is the digest read big-endian.
    """
    digest = hashlib.sha256()
    for chunk in inputs:
        if len(chunk) > 0xFFFF:
            raise ValueError("hash input field exceeds 65535 bytes")
        digest.update(len(chunk).to_bytes(2, "big"))
        digest.update(chunk)
    return int.from_bytes(digest.digest(), "big")


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n: int) -> bool:
    """Primality of n <= ORDER_CHECK_BOUND; ValueError above it.

    Trial division by the primes up to 47, then Miller-Rabin with the 13
    prime bases 2..41, which no composite below 3.3 * 10^24 passes (OEIS
    A014233), so every answer in the domain is proven.
    """
    if n > ORDER_CHECK_BOUND:
        raise ValueError(
            f"is_prime is exact only up to 2^64; n has {n.bit_length()} bits")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 53 * 53:                 # a composite this small has a factor up to 47
        return True
    return all(_strong_probable_prime(n, base) for base in _SMALL_PRIMES[:13])


def _strong_probable_prime(n: int, base: int) -> bool:
    """One Miller-Rabin round, for odd n > base."""
    m = n - 1
    s = (m & -m).bit_length() - 1
    x = pow(base, m >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def prime_factors(n: int) -> List[int]:
    """The distinct primes dividing 1 <= n <= ORDER_CHECK_BOUND, ascending.

    Trial division by the primes up to 47, then Pollard's rho on what is
    left until every part passes is_prime.
    """
    if n < 1:
        raise ValueError("only positive integers have prime factors")
    found = set()
    for p in _SMALL_PRIMES:
        if n % p == 0:
            found.add(p)
            while n % p == 0:
                n //= p
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if is_prime(m):
            found.add(m)
        else:
            d = _pollard_rho(m)
            pending += [d, m // d]
    return sorted(found)


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of the odd composite n.

    Brent's cycle search on x -> x^2 + c, with the gcd taken once per 128
    steps; a batch that overshoots to n is replayed step by step, and a
    walk that still finds only n moves on to the next c.
    """
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def validate_params(params: GroupParams) -> None:
    """Check that q is prime and g generates all of Z_q^*.

    A group in NAMED_GROUPS returns at once: the test suite certifies each
    entry. Any other group is a custom group and must have q <=
    ORDER_CHECK_BOUND, or GroupTooLarge is raised. There the check is
    exact: q passes is_prime, q-1 is fully factored and g^((q-1)/p) != 1
    is verified for every prime factor p.
    """
    if params in NAMED_GROUPS.values():
        return
    q, g = params.q, params.g
    if q > ORDER_CHECK_BOUND:
        raise _custom_group_too_large(q.bit_length())
    if not 1 < g < q:
        raise OutOfRange(f"generator {g} outside (1, {q})")
    if q < 3 or not is_prime(q):
        raise NotPrime(f"{q} is not prime")
    order = q - 1
    for p in prime_factors(order):
        if pow(g, order // p, q) == 1:
            raise NotGenerator(f"{g} has order dividing {order // p} mod {q}")


def _custom_group_too_large(bits: int) -> GroupTooLarge:
    return GroupTooLarge(
        f"a custom group stops at 2^64, and this one has {bits} bits; above "
        f"2^64 use a named group ({'|'.join(NAMED_GROUPS)})")


def generate_params(bit_length: int, seed: int) -> GroupParams:
    """Deterministically search for a custom group of 4..64 bits.

    The prime is arbitrary and g is its smallest primitive root (order
    certified by factoring q-1). A larger bit_length raises GroupTooLarge.
    """
    if bit_length < 4:
        raise ValueError("bit_length must be at least 4")
    if bit_length > 64:
        raise _custom_group_too_large(bit_length)
    rng = random.Random(seed)
    for _ in range(200000):
        candidate = rng.getrandbits(bit_length) | (1 << (bit_length - 1)) | 1
        if is_prime(candidate):
            params = GroupParams(q=candidate, g=_find_generator(candidate))
            validate_params(params)
            return params
    raise SearchExhausted(f"no prime found for bit_length={bit_length} seed={seed}")


def _find_generator(q: int) -> int:
    """The smallest primitive root of the prime q."""
    order = q - 1
    factors = prime_factors(order)
    return next(g for g in range(2, q)
                if all(pow(g, order // p, q) != 1 for p in factors))


def derive_verifier(creds: Credentials, params: GroupParams, hash_spec: HashSpec,
                    tally: Optional[Tally] = None) -> int:
    """Compute the verifier v = g^h(id_A, id_B, P) mod q.

    The exponent goes through hash_to_exponent, so v is never 1 and is
    always a generator of Z_q^*. The exponentiation lands in the tally's
    registration bucket.
    """
    raw = hash_spec.of_ints([creds.id_a, creds.id_b, creds.password], tally)
    exponent = hash_to_exponent(raw, params)
    return mod_exp(params.g, exponent, params, tally, registration=True)


class DlogTable:
    """Exhaustive discrete-log table for a desk-scale group.

    Maps every element g^k to k for k in [0, q-2]; a bijection between
    Z_q^* and the exponent range. Construction walks the full cycle once.
    The logs sit in a flat array indexed by the element (slot 0 is never an
    element), at most 4 MiB since q <= DESK_SCALE_BOUND.
    """

    _cache: dict = {}

    def __init__(self, params: GroupParams):
        if params.q > DESK_SCALE_BOUND:
            raise GroupTooLarge(
                f"q = {params.q} exceeds desk-scale bound {DESK_SCALE_BOUND}")
        self.params = params
        q, g = params.q, params.g
        table = array("I", [0]) * q
        element = 1
        for k in range(params.order):
            table[element] = k
            element = element * g % q
        # a walk that returns to 1 early passes 1 again and overwrites its 0
        if element != 1 or table[1] != 0:
            raise NotGenerator(f"{params.g} does not generate Z_{params.q}^*")
        self._table = table

    @classmethod
    def for_params(cls, params: GroupParams) -> "DlogTable":
        """Memoized constructor; tables are immutable and safe to share."""
        key = (params.q, params.g)
        if key not in cls._cache:
            cls._cache[key] = cls(params)
        return cls._cache[key]

    def dlog(self, element: int) -> int:
        if not self.params.contains(element):
            raise NotInGroup(f"{element} not in Z_{self.params.q}^*")
        return self._table[element]


def toy_pairing(x: int, y: int, params: GroupParams) -> int:
    """Desk-scale bilinear map: e(X, Y) = dlog(X) * dlog(Y) mod (q-1).

    Bilinear by construction -- e(X^a, Y) = a * e(X, Y) mod (q-1) -- which is
    all the server-authentication check needs. Only available where the
    dlog table is constructible; there is no efficient pairing on Z_q^*.
    """
    table = DlogTable.for_params(params)
    return (table.dlog(x) * table.dlog(y)) % params.order


def sample_nonce(params: GroupParams, rng: random.Random) -> int:
    """Uniform ephemeral exponent in [1, q-2] from the caller's RNG."""
    return rng.randrange(1, params.order)


@dataclass(frozen=True)
class SessionKey:
    """Agreed session key: a residue mod q plus its canonical encoding."""

    value: int
    data: bytes = field(repr=False)

    @classmethod
    def from_value(cls, value: int, params: GroupParams) -> "SessionKey":
        return cls(value=value, data=encode_residue(value, params))


# The toy parameter set used by every golden vector: q = 13, g = 6.
TOY_PARAMS = GroupParams(q=13, g=6)
TOY_CREDS = Credentials(id_a=9, id_b=12, password=10)

# The RFC 3526 MODP groups, each prime with its smallest full-order base:
# the RFC's g = 2 is a quadratic residue mod each of them. The test suite
# derives each prime from the RFC's formula and certifies each entry.
NAMED_GROUPS = {
    "modp1536": GroupParams(g=31, q=int(
        "ffffffffffffffffc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74"
        "020bbea63b139b22514a08798e3404ddef9519b3cd3a431b302b0a6df25f1437"
        "4fe1356d6d51c245e485b576625e7ec6f44c42e9a637ed6b0bff5cb6f406b7ed"
        "ee386bfb5a899fa5ae9f24117c4b1fe649286651ece45b3dc2007cb8a163bf05"
        "98da48361c55d39a69163fa8fd24cf5f83655d23dca3ad961c62f356208552bb"
        "9ed529077096966d670c354e4abc9804f1746c08ca237327ffffffffffffffff", 16)),
    "modp2048": GroupParams(g=11, q=int(
        "ffffffffffffffffc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74"
        "020bbea63b139b22514a08798e3404ddef9519b3cd3a431b302b0a6df25f1437"
        "4fe1356d6d51c245e485b576625e7ec6f44c42e9a637ed6b0bff5cb6f406b7ed"
        "ee386bfb5a899fa5ae9f24117c4b1fe649286651ece45b3dc2007cb8a163bf05"
        "98da48361c55d39a69163fa8fd24cf5f83655d23dca3ad961c62f356208552bb"
        "9ed529077096966d670c354e4abc9804f1746c08ca18217c32905e462e36ce3b"
        "e39e772c180e86039b2783a2ec07a28fb5c55df06f4c52c9de2bcbf695581718"
        "3995497cea956ae515d2261898fa051015728e5a8aacaa68ffffffffffffffff", 16)),
    "modp3072": GroupParams(g=5, q=int(
        "ffffffffffffffffc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74"
        "020bbea63b139b22514a08798e3404ddef9519b3cd3a431b302b0a6df25f1437"
        "4fe1356d6d51c245e485b576625e7ec6f44c42e9a637ed6b0bff5cb6f406b7ed"
        "ee386bfb5a899fa5ae9f24117c4b1fe649286651ece45b3dc2007cb8a163bf05"
        "98da48361c55d39a69163fa8fd24cf5f83655d23dca3ad961c62f356208552bb"
        "9ed529077096966d670c354e4abc9804f1746c08ca18217c32905e462e36ce3b"
        "e39e772c180e86039b2783a2ec07a28fb5c55df06f4c52c9de2bcbf695581718"
        "3995497cea956ae515d2261898fa051015728e5a8aaac42dad33170d04507a33"
        "a85521abdf1cba64ecfb850458dbef0a8aea71575d060c7db3970f85a6e1e4c7"
        "abf5ae8cdb0933d71e8c94e04a25619dcee3d2261ad2ee6bf12ffa06d98a0864"
        "d87602733ec86a64521f2b18177b200cbbe117577a615d6c770988c0bad946e2"
        "08e24fa074e5ab3143db5bfce0fd108e4b82d120a93ad2caffffffffffffffff", 16)),
}
