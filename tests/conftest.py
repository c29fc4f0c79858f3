"""Shared fixtures: the toy group everything golden is pinned to, plus a
couple of slightly larger desk-scale groups for property tests."""

import pytest

from pakelab import core
from pakelab.core import (
    Credentials,
    GroupParams,
    HashSpec,
    TOY_CREDS,
    TOY_PARAMS,
    TOYSUM,
    DIGEST256,
    DlogTable,
)

# q = 29, g = 2 and q = 61, g = 2: both verified full-order generators
# (2 misses every proper subgroup; see test_core for the order checks).
MID_PARAMS = GroupParams(q=29, g=2)
BIG_TOY_PARAMS = GroupParams(q=61, g=2)

# one PASS/FAIL line per gate criterion, filled by test_acceptance and
# echoed after the run so the verdicts survive output capture
ACCEPTANCE_VERDICTS = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance verdicts")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)


@pytest.fixture
def toy_params():
    return TOY_PARAMS


@pytest.fixture
def toy_creds():
    return TOY_CREDS


@pytest.fixture
def toysum():
    return HashSpec(TOYSUM)


@pytest.fixture
def digest256():
    return HashSpec(DIGEST256)


@pytest.fixture
def exponent_bits(monkeypatch):
    """The bit length of every exponent mod_exp is called with, in call order."""
    bits = []
    powmod = core._powmod

    def recording_powmod(base, exponent, modulus):
        bits.append(exponent.bit_length())
        return powmod(base, exponent, modulus)

    monkeypatch.setattr(core, "_powmod", recording_powmod)
    return bits


@pytest.fixture(scope="session", autouse=True)
def _prewarm_dlog_tables():
    # hypothesis deadlines are per-example; build the shared tables once
    for params in (TOY_PARAMS, MID_PARAMS, BIG_TOY_PARAMS):
        DlogTable.for_params(params)
