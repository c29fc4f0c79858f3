"""The two fixed groups the workloads run on.

Both are derived offline in the benchmark's own code, so a run fetches
nothing:

  * the desk group generate_params(20, 1), q = 665179, g = 2, small enough
    for the exhaustive dlog table and with it the client's pairing check;
  * the RFC 3526 2048-bit MODP prime, built from its defining formula
    p = 2^2048 - 2^1984 - 1 + 2^64 * (floor(2^1918 * pi) + 124476).
    The RFC's g = 2 is a quadratic residue mod p (p = 7 mod 8), so it fails
    the full-order check; 11 is the smallest base that passes.
"""

from __future__ import annotations

import hashlib

import mpmath

# Called through the module, so the traced run's wrappers see the calls.
from pakelab import core

DESK_Q, DESK_G = 665179, 2

MODP2048_G = 11
# SHA-256 of the prime's 256-byte big-endian encoding.
MODP2048_SHA256 = "d66436f79bbd6b2e38c0ffbd079be904d2641415e2e67140e09448be9a60890e"


class GroupDrift(RuntimeError):
    """A derived group is not the one the benchmark pins."""


def desk_group() -> core.GroupParams:
    """generate_params(20, 1); validate_params runs inside it."""
    params = core.generate_params(20, 1)
    if (params.q, params.g) != (DESK_Q, DESK_G):
        raise GroupDrift(f"generate_params(20, 1) gave q={params.q}, g={params.g}")
    return params


def modp2048_prime() -> int:
    # 2^1918 * pi needs about 1920 bits of pi; 2100 leaves a safe margin
    # for the floor to land on the right integer.
    with mpmath.workprec(2100):
        pi_term = int(mpmath.floor(mpmath.ldexp(mpmath.pi, 1918)))
    prime = 2 ** 2048 - 2 ** 1984 - 1 + 2 ** 64 * (pi_term + 124476)
    digest = hashlib.sha256(prime.to_bytes(256, "big")).hexdigest()
    if digest != MODP2048_SHA256:
        raise GroupDrift(f"derived 2048-bit prime has SHA-256 {digest}")
    return prime


def modp2048_group() -> core.GroupParams:
    """The RFC 3526 2048-bit prime with g = 11, checked by validate_params."""
    params = core.GroupParams(q=modp2048_prime(), g=MODP2048_G)
    core.validate_params(params)
    return params
