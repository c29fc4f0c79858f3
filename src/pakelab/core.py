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

Two oracles are deliberately brute-force and only constructible for small
groups (q <= DESK_SCALE_BOUND): an exhaustive discrete-log table, and a toy
bilinear map e(X, Y) = dlog(X) * dlog(Y) mod (q-1) built on top of it. They
exist to make security experiments and server-authentication checks
executable at desk scale, not to model computational hardness.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from math import gcd
from typing import Optional, Sequence

import sympy

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
    UnknownAlgorithm,
)

# q at or below this admits the exhaustive dlog table (and thus the toy pairing).
DESK_SCALE_BOUND = 2 ** 20

# Below this, generator order is certified by fully factoring q-1; above it,
# params must be safe primes (q = 2p+1) checked via g^2 != 1 and g^p != 1.
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
    checkable on paper, and every golden vector uses it. DIGEST256 runs a
    real 256-bit digest over a length-prefixed encoding of the arguments
    for realistic runs.
    """

    mode: str = TOYSUM
    algorithm: str = "sha256"

    def __post_init__(self):
        if self.mode not in (TOYSUM, DIGEST256):
            raise ValueError(f"unknown hash mode {self.mode!r}")

    def of_ints(self, values: Sequence[int], tally: Optional[Tally] = None) -> int:
        """Apply h to an ordered list of nonnegative integers."""
        if tally is not None:
            tally.hash_evals += 1
        if self.mode == TOYSUM:
            return toy_sum_hash(values)
        return digest_hash([int_to_bytes(value) for value in values], self.algorithm)


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


def decode_residue(data: bytes, params: GroupParams) -> int:
    """Inverse of encode_residue; enforces the fixed width."""
    if len(data) != params.q_byte_len:
        raise OutOfRange(f"expected {params.q_byte_len} bytes, got {len(data)}")
    return int.from_bytes(data, "big")


def mod_exp(base: int, exponent: int, params: GroupParams,
            tally: Optional[Tally] = None, registration: bool = False) -> int:
    """base^exponent mod q, for base in Z_q^* and exponent >= 0.

    The arithmetic is the built-in three-argument pow (windowed
    exponentiation in C); this wrapper exists for its range checks and to
    increment the caller's tally (per-session or registration bucket) when
    one is supplied, which is how the efficiency accounting is measured
    rather than asserted. Every protocol exponentiation goes through here.
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
    return pow(base, exponent, params.q)


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


def digest_hash(inputs: Sequence[bytes], algorithm: str = "sha256") -> int:
    """256-bit digest over a length-prefixed field encoding, as an integer.

    Each field is prefixed with its 2-byte big-endian length, so ("a","b")
    and ("ab","") hash differently. Result is the digest read big-endian.
    """
    try:
        digest = hashlib.new(algorithm)
    except (ValueError, TypeError):
        raise UnknownAlgorithm(f"unsupported digest {algorithm!r}")
    if digest.digest_size != 32:
        raise UnknownAlgorithm(f"{algorithm!r} is not a 256-bit digest")
    for chunk in inputs:
        if len(chunk) > 0xFFFF:
            raise ValueError("hash input field exceeds 65535 bytes")
        digest.update(len(chunk).to_bytes(2, "big"))
        digest.update(chunk)
    return int.from_bytes(digest.digest(), "big")


def validate_params(params: GroupParams) -> None:
    """Check that q is prime and g generates all of Z_q^*.

    Below ORDER_CHECK_BOUND the order check is exact: q-1 is fully factored
    and g^((q-1)/p) != 1 is verified for every prime factor p. Above the
    bound, q must be a safe prime 2p+1 and g is checked via g^2 != 1 and
    g^p != 1, which certifies full order in that special form.
    """
    q, g = params.q, params.g
    if not 1 < g < q:
        raise OutOfRange(f"generator {g} outside (1, {q})")
    if q < 3 or not sympy.isprime(q):
        raise NotPrime(f"{q} is not prime")
    order = q - 1
    if q <= ORDER_CHECK_BOUND:
        for p in sympy.factorint(order):
            if pow(g, order // p, q) == 1:
                raise NotGenerator(f"{g} has order dividing {order // p} mod {q}")
    else:
        p = order // 2
        if not sympy.isprime(p):
            raise NotPrime(f"{q} is not a safe prime; cannot certify generator order")
        if pow(g, 2, q) == 1 or pow(g, p, q) == 1:
            raise NotGenerator(f"{g} is not a generator mod safe prime {q}")


def generate_params(bit_length: int, seed: int) -> GroupParams:
    """Deterministically search for valid group parameters of the given size.

    For 4..64 bits the prime is arbitrary and g is the smallest primitive
    root (order certified by factoring q-1). Above 64 bits the search is for
    safe primes q = 2p+1 with g the smallest base passing the safe-prime
    generator check.
    """
    if bit_length < 4:
        raise ValueError("bit_length must be at least 4")
    rng = random.Random(seed)
    budget = 200000 if bit_length <= 64 else 20000
    for _ in range(budget):
        candidate = rng.getrandbits(bit_length) | (1 << (bit_length - 1)) | 1
        if not sympy.isprime(candidate):
            continue
        if bit_length > 64 and not sympy.isprime((candidate - 1) // 2):
            continue
        g = _find_generator(candidate, bit_length <= 64)
        if g is not None:
            params = GroupParams(q=candidate, g=g)
            validate_params(params)
            return params
    raise SearchExhausted(f"no prime found for bit_length={bit_length} seed={seed}")


def _find_generator(q: int, exact: bool) -> Optional[int]:
    order = q - 1
    if exact:
        factors = list(sympy.factorint(order))
        for g in range(2, q):
            if all(pow(g, order // p, q) != 1 for p in factors):
                return g
    else:
        p = order // 2
        for g in range(2, min(q, 1000)):
            if pow(g, 2, q) != 1 and pow(g, p, q) != 1:
                return g
    return None


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
    """

    _cache: dict = {}

    def __init__(self, params: GroupParams):
        if params.q > DESK_SCALE_BOUND:
            raise GroupTooLarge(
                f"q = {params.q} exceeds desk-scale bound {DESK_SCALE_BOUND}")
        self.params = params
        table = {}
        element = 1
        for k in range(params.order):
            table[element] = k
            element = (element * params.g) % params.q
        if element != 1 or len(table) != params.order:
            raise NotGenerator(f"{params.g} does not generate Z_{params.q}^*")
        self.table = table

    @classmethod
    def for_params(cls, params: GroupParams) -> "DlogTable":
        """Memoized constructor; tables are immutable and safe to share."""
        key = (params.q, params.g)
        if key not in cls._cache:
            cls._cache[key] = cls(params)
        return cls._cache[key]

    def dlog(self, element: int) -> int:
        if element not in self.table:
            raise NotInGroup(f"{element} not in Z_{self.params.q}^*")
        return self.table[element]


def brute_force_dlog(element: int, params: GroupParams) -> int:
    """Exponent k with g^k = element mod q, via the exhaustive table."""
    return DlogTable.for_params(params).dlog(element)


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
