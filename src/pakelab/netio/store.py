"""Server-side verifier persistence.

The on-disk format is one header line

  # pake-verifiers v1

then one record per line: id_a and id_b in decimal and the verifier in
lowercase hex, tab-separated, sorted by (id_a, id_b). Records are keyed
by the (id_a, id_b) pair, so one client identity may hold verifiers with
several servers; in memory they are indexed by id_a, which is all MSG1
names. Parsing is strict and every complaint carries a 1-based line number.
Saves write a sibling file and rename it over the store, so an interrupted
save leaves the previous file whole.

Failure counters (for throttling repeat guessers) are kept per id_a and
only in memory; restarting the service forgets them on purpose, since they
are rate-limit state, not credential state.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..core import GroupParams, VerifierRecord
from ..errors import DuplicateEntry, StoreParseError, UnknownIdentity

HEADER = "# pake-verifiers v1"


class VerifierStore:
    """In-memory map of id_a -> {id_b -> VerifierRecord} with strict file round-trip."""

    def __init__(self):
        self._by_client: Dict[int, Dict[int, VerifierRecord]] = {}
        self._count = 0
        self._failures: Dict[int, int] = {}

    def __len__(self) -> int:
        return self._count

    def __contains__(self, key: Tuple[int, int]) -> bool:
        id_a, id_b = key
        return id_b in self._by_client.get(id_a, ())

    def __iter__(self) -> Iterator[VerifierRecord]:
        for servers in self._by_client.values():
            yield from servers.values()

    def add(self, record: VerifierRecord, replace: bool = False):
        servers = self._by_client.setdefault(record.id_a, {})
        if record.id_b in servers:
            if not replace:
                raise DuplicateEntry(f"pair id_a={record.id_a}, id_b={record.id_b} "
                                     "is already enrolled")
        else:
            self._count += 1
        servers[record.id_b] = record

    def lookup(self, id_a: int, id_b: int) -> VerifierRecord:
        try:
            return self._by_client[id_a][id_b]
        except KeyError:
            raise UnknownIdentity(
                f"no verifier on record for id_a={id_a}, id_b={id_b}") from None

    def records_for(self, id_a: int) -> List[VerifierRecord]:
        """All records whose client identity is id_a (MSG1 names only id_a), by id_b."""
        servers = self._by_client.get(id_a)
        if servers is None:
            return []
        return [servers[id_b] for id_b in sorted(servers)]

    # throttling bookkeeping; deliberately not persisted

    def note_failure(self, id_a: int) -> int:
        self._failures[id_a] = self._failures.get(id_a, 0) + 1
        return self._failures[id_a]

    def failure_count(self, id_a: int) -> int:
        return self._failures.get(id_a, 0)

    def clear_failures(self, id_a: int):
        self._failures.pop(id_a, None)

    def save(self, path: Union[str, Path]):
        """Write the store to path atomically: a temp sibling, then a rename."""
        path = Path(path)
        rows = [(id_a, id_b, rec.v) for id_a, servers in self._by_client.items()
                for id_b, rec in servers.items()]
        rows.sort()
        lines = [HEADER] + [f"{id_a}\t{id_b}\t{v:x}" for id_a, id_b, v in rows]
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    @classmethod
    def load(cls, path: Union[str, Path],
             params: Optional[GroupParams] = None) -> "VerifierStore":
        """Parse a store file; with params, every verifier must lie in Z_q^*."""
        text = Path(path).read_text(encoding="utf-8")
        lines = text.splitlines()
        if not lines or lines[0] != HEADER:
            raise StoreParseError(1, f"missing header {HEADER!r}")
        store = cls()
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                raise StoreParseError(lineno, "blank line")
            parts = line.split("\t")
            if len(parts) != 3:
                raise StoreParseError(
                    lineno, f"expected 3 tab-separated fields, got {len(parts)}")
            id_a = _parse_decimal(parts[0], lineno, "id_a")
            id_b = _parse_decimal(parts[1], lineno, "id_b")
            try:
                v = int(parts[2], 16)
            except ValueError:
                raise StoreParseError(
                    lineno, f"verifier {parts[2]!r} is not hex") from None
            if v < 1:
                raise StoreParseError(lineno, "verifier must be a positive residue")
            if params is not None and not params.contains(v):
                raise StoreParseError(
                    lineno, f"verifier {v:#x} is not in Z_{params.q}^*")
            if (id_a, id_b) in store:
                raise StoreParseError(
                    lineno, f"duplicate entry for id_a={id_a}, id_b={id_b}")
            store.add(VerifierRecord(id_a=id_a, id_b=id_b, v=v))
        return store


def _parse_decimal(text: str, lineno: int, name: str) -> int:
    if not text.isdigit():
        raise StoreParseError(lineno, f"{name} {text!r} is not a decimal integer")
    return int(text)
