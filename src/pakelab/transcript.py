"""Ordered record of what crossed the wire during one protocol run.

Directions are absolute: "A->B" is always client to server regardless of
which side recorded the entry. Payloads are the exact frame bytes: a sender
records what it encoded, and a TCP receiver the bytes that arrived, never a
re-encoding of what it decoded. A transcript doubles as a replay corpus and
as the byte-count source for the efficiency table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

DIR_AB = "A->B"
DIR_BA = "B->A"
_DIRECTIONS = (DIR_AB, DIR_BA)


@dataclass(frozen=True)
class TranscriptEntry:
    direction: str
    label: str
    data: bytes

    def __post_init__(self):
        if self.direction not in _DIRECTIONS:
            raise ValueError(f"direction must be one of {_DIRECTIONS}")

    @property
    def hex(self) -> str:
        return self.data.hex()

    def __len__(self) -> int:
        return len(self.data)


@dataclass
class Transcript:
    entries: list = field(default_factory=list)

    def record(self, direction: str, label: str, data: bytes) -> None:
        self.entries.append(TranscriptEntry(direction, label, data))

    @property
    def messages(self) -> int:
        return len(self.entries)

    @property
    def bytes_on_wire(self) -> int:
        return sum(len(e) for e in self.entries)

    def __iter__(self) -> Iterator[TranscriptEntry]:
        return iter(self.entries)

    def to_json(self) -> list:
        """The entries as JSON-ready dicts, each frame's bytes in hex."""
        return [{"direction": e.direction, "label": e.label, "frame": e.hex}
                for e in self.entries]
