"""Server-side verifier persistence.

A store file is one header line, then one record per line: id_a and id_b
in decimal and the verifier in lowercase hex, tab-separated. Two versions
load:

  # pake-verifiers v2 q=<q> g=<g> hash=<mode>

names the group and hash mode that derived the verifiers. Loading it for
another group or mode is refused at line 1, since every login would fail.
Rows may repeat a pair: each enrollment (a REGISTER frame, or
`pakelab register`) appends one row, and the last row for a pair wins.
Every line, the last one included, ends in a newline, so a row torn by an
interrupted append is refused with its line number rather than read as a
shorter, wrong verifier.

  # pake-verifiers v1

names no group and refuses a repeated pair. A store that knows no group
still saves as v1.

save() is the compaction: one row per pair, sorted by (id_a, id_b),
written to a sibling file that is renamed over the store, so an
interrupted save leaves the previous file whole. It runs only where the
file is not yet v2 for its group: `serve --enroll` compacts a v1 or
missing file at start, and `register` compacts a v1 file or creates a
missing one. Once a file is v2, enrollments only append, so rows that a
running server appends are never lost to a rewrite.

lock_store() guards a file between processes with flock: `serve --enroll`
holds a shared lock from after its start-up compaction until it closes,
and `register` takes an exclusive one without waiting, so it refuses a
store that a live enrolling server holds rather than override a pair
the server enrolled after register loaded the file.

Records are keyed by the (id_a, id_b) pair, so one client identity may
hold verifiers with several servers; in memory they are indexed by id_a,
which is all MSG1 names.
Parsing is strict and every complaint carries a 1-based line number.
The store holds credentials only; the service keeps its throttle counters.
"""

from __future__ import annotations

import fcntl
import os
import re
from pathlib import Path
from typing import BinaryIO, Dict, Iterator, List, Optional, Tuple, Union

from ..core import GroupParams, VerifierRecord, is_decimal
from ..errors import DuplicateEntry, StoreLocked, StoreParseError, UnknownIdentity

HEADER = "# pake-verifiers v1"
_V2_HEADER = re.compile(r"# pake-verifiers v2 q=([0-9]+) g=([0-9]+) hash=(\S+)")
_HEX = re.compile(r"[0-9a-fA-F]+")


def _v2_header(params: GroupParams, hash_mode: str) -> str:
    return f"# pake-verifiers v2 q={params.q} g={params.g} hash={hash_mode}"


def _describe(params: GroupParams, hash_mode: str) -> str:
    return f"q={params.q}, g={params.g}, hash={hash_mode}"


def _row(id_a: int, id_b: int, v: int) -> str:
    return f"{id_a}\t{id_b}\t{v:x}\n"


def lock_store(path: Union[str, Path], exclusive: bool = False) -> BinaryIO:
    """Open path and hold a flock on it until the returned file is closed.

    Shared waits for the lock; exclusive does not, and raises StoreLocked
    when another process holds the file.
    """
    handle = open(path, "rb")
    try:
        fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB if exclusive
                    else fcntl.LOCK_SH)
    except BlockingIOError:
        handle.close()
        raise StoreLocked(f"{path} is held by a running `serve --enroll`; "
                          "enroll through it, or stop it first") from None
    except BaseException:
        handle.close()
        raise
    return handle


class VerifierStore:
    """In-memory map of id_a -> {id_b -> VerifierRecord} with strict file round-trip.

    params and hash_mode name the group and hash mode the verifiers belong
    to; a store that has both saves as v2. version is the format of the
    file the store was loaded from, None for a store built in memory.
    """

    def __init__(self, params: Optional[GroupParams] = None,
                 hash_mode: Optional[str] = None):
        self.params = params
        self.hash_mode = hash_mode
        self.version: Optional[int] = None
        self._by_client: Dict[int, Dict[int, VerifierRecord]] = {}
        self._count = 0

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

    def append(self, path: Union[str, Path], record: VerifierRecord):
        """Enroll record, replacing the pair's verifier, as one row appended to path.

        The row goes out in a single unbuffered write to the existing v2
        file before the record enters memory, so a failed write changes
        neither; a missing file raises rather than starting a headerless one.
        """
        fd = os.open(path, os.O_WRONLY | os.O_APPEND)
        try:
            os.write(fd, _row(record.id_a, record.id_b, record.v).encode("ascii"))
        finally:
            os.close(fd)
        self.add(record, replace=True)

    def save(self, path: Union[str, Path]):
        """Compact the store to path atomically: a temp sibling, then a rename."""
        path = Path(path)
        rows = sorted((id_a, id_b, rec.v) for id_a, servers in self._by_client.items()
                      for id_b, rec in servers.items())
        if self.params is not None and self.hash_mode is not None:
            header = _v2_header(self.params, self.hash_mode)
        else:
            header = HEADER
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(header + "\n" + "".join(_row(*row) for row in rows),
                           encoding="utf-8")
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    @classmethod
    def load(cls, path: Union[str, Path], params: Optional[GroupParams] = None,
             hash_mode: Optional[str] = None) -> "VerifierStore":
        """Parse a store file; every verifier must lie in Z_q^* of the store's group.

        A v2 file must name params and hash_mode where they are given, and
        supplies them where they are not. A v1 file takes them from the
        caller, so a later save() writes it as v2.
        """
        text = Path(path).read_text(encoding="utf-8")
        lines = text.splitlines()
        header = _V2_HEADER.fullmatch(lines[0]) if lines else None
        if header is not None:
            store = cls(GroupParams(q=int(header[1]), g=int(header[2])), header[3])
            store.version = 2
            wanted = (params or store.params, hash_mode or store.hash_mode)
            if wanted != (store.params, store.hash_mode):
                raise StoreParseError(
                    1, f"store was written for {_describe(store.params, store.hash_mode)}"
                       f", not for {_describe(*wanted)}")
            if not text.endswith("\n"):
                raise StoreParseError(len(lines), "no newline at the end: a torn row")
        elif lines and lines[0] == HEADER:
            store = cls(params, hash_mode)
            store.version = 1
        else:
            raise StoreParseError(1, f"missing header {HEADER!r} or "
                                     f"'# pake-verifiers v2 q=<q> g=<g> hash=<mode>'")
        for lineno, line in enumerate(lines[1:], start=2):
            record = _parse_row(line, lineno, store.params)
            if store.version == 1 and (record.id_a, record.id_b) in store:
                raise StoreParseError(
                    lineno, f"duplicate entry for id_a={record.id_a}, id_b={record.id_b}")
            store.add(record, replace=True)
        return store


def _parse_row(line: str, lineno: int, params: Optional[GroupParams]) -> VerifierRecord:
    if not line.strip():
        raise StoreParseError(lineno, "blank line")
    parts = line.split("\t")
    if len(parts) != 3:
        raise StoreParseError(
            lineno, f"expected 3 tab-separated fields, got {len(parts)}")
    id_a = _parse_decimal(parts[0], lineno, "id_a")
    id_b = _parse_decimal(parts[1], lineno, "id_b")
    if not _HEX.fullmatch(parts[2]):
        raise StoreParseError(lineno, f"verifier {parts[2]!r} is not hex")
    v = int(parts[2], 16)
    if v < 1:
        raise StoreParseError(lineno, "verifier must be a positive residue")
    if params is not None and not params.contains(v):
        raise StoreParseError(
            lineno, f"verifier {v:#x} is not in Z_{params.q}^*")
    return VerifierRecord(id_a=id_a, id_b=id_b, v=v)


def _parse_decimal(text: str, lineno: int, name: str) -> int:
    if not is_decimal(text):
        raise StoreParseError(lineno, f"{name} {text!r} is not a decimal integer")
    return int(text)
