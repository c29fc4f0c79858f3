"""Exception hierarchy shared across the workbench.

Everything derives from PakeError so callers can catch the whole family;
protocol-level authentication failures and transport-level parse failures
stay distinguishable because the CLI maps them to different exit codes.
"""


class PakeError(Exception):
    """Base class for every error raised by this package."""


# --- group arithmetic / parameters ---

class BaseOutOfRange(PakeError):
    """Exponentiation base is not in Z_q^* (must satisfy 0 < base < q)."""


class NotCoprime(PakeError):
    """Modular inverse requested for a value not coprime to the modulus."""


class DegenerateGroup(PakeError):
    """Group too small to admit an invertible nonzero exponent."""


class SearchExhausted(PakeError):
    """Seeded parameter search ran out of budget before finding a prime."""


class ValidationError(PakeError):
    """Group parameters failed validation."""


class NotPrime(ValidationError):
    pass


class NotGenerator(ValidationError):
    pass


class OutOfRange(ValidationError):
    pass


class GroupTooLarge(PakeError):
    """q exceeds a bound the operation needs: the desk-scale bound of the
    brute-force dlog table, or 2^64 for a group not in NAMED_GROUPS."""


class NotInGroup(PakeError):
    """Value is not an element of Z_q^*."""


# --- scheme steps ---

class RetryNonce(PakeError):
    """Ephemeral exponent produced a degenerate (all-zero) mask; resample."""


class UnmaskOutOfRange(PakeError):
    """Masked value unmasks to 0 or >= q, or is the forbidden all-zero string."""


class AuthFail(PakeError):
    """Peer's confirmation value did not verify."""


class UnknownIdentity(PakeError):
    """No verifier on record for the presented identity pair."""


# --- wire / persistence ---

class MalformedFrame(PakeError):
    """Frame bytes violate the wire format (bad magic, truncation, trailing garbage...)."""


class VersionMismatch(PakeError):
    """Frame carries an unsupported wire-format version."""


class StoreParseError(PakeError):
    """Verifier-store file is malformed; .line carries the offending line number."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line


class DuplicateEntry(PakeError):
    """Verifier store already holds an entry for this identity pair."""


class StoreLocked(PakeError):
    """Verifier store is held by a running `serve --enroll`."""


class RemoteError(PakeError):
    """Server answered with an ERROR frame; .code carries the wire error code."""

    def __init__(self, code: int, detail: str = ""):
        super().__init__(f"server error 0x{code:02x}: {detail}")
        self.code = code
        self.detail = detail


# --- harness ---

class ScenarioError(PakeError):
    """Scenario is self-inconsistent or names an unknown attack."""


class CounterDrift(PakeError):
    """Deterministic operation counters disagreed between trials."""
