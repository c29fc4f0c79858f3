"""Binary framing for the TCP transport.

Every frame opens with a fixed header:

  0x50 0x4B   magic ("PK")
  0x01        protocol version
  <type>      one byte

followed by the frame's fields in order. An integer field is a 2-byte
big-endian length and then the big-endian magnitude, minimally encoded
(zero is the single byte 0x00; anything longer must not start with 0x00).
A text field is a 2-byte length and UTF-8 bytes. Error frames carry one
raw code byte before their detail text.

One sans-I/O parser reads the layout and checks each field as it arrives;
decode_frame drives it over a buffer, read_frame over a stream, where it
also returns the bytes the frame arrived as.

Decoding is strict: bad magic, unknown type, truncation, non-minimal
integers, invalid UTF-8, out-of-range error codes, oversized frames, and
trailing bytes all raise MalformedFrame; only a wrong version byte raises
VersionMismatch (so peers can distinguish "not this protocol" from "this
protocol, different revision"). Strictness buys a bijection: any bytes
that decode at all re-encode to exactly themselves.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields
from typing import BinaryIO, Generator, Optional, Tuple, Union

from ..core import int_to_bytes
from ..errors import MalformedFrame, VersionMismatch

MAGIC = b"\x50\x4b"
VERSION = 0x01
MAX_FRAME = 64 * 1024

ERR_MALFORMED = 0x01
ERR_PARAM_MISMATCH = 0x02
ERR_UNKNOWN_IDENTITY = 0x03
ERR_AUTH_FAIL = 0x04
ERR_VERSION_MISMATCH = 0x05
ERR_THROTTLED = 0x06

ERROR_NAMES = {
    ERR_MALFORMED: "malformed-frame",
    ERR_PARAM_MISMATCH: "param-mismatch",
    ERR_UNKNOWN_IDENTITY: "unknown-identity",
    ERR_AUTH_FAIL: "auth-fail",
    ERR_VERSION_MISMATCH: "version-mismatch",
    ERR_THROTTLED: "throttled",
}


@dataclass(frozen=True)
class RegisterFrame:
    id_a: int
    id_b: int
    v: int


@dataclass(frozen=True)
class Msg1Frame:
    q: int
    g: int
    id_a: int
    t_a: int


@dataclass(frozen=True)
class Msg2Frame:
    t_b: int


@dataclass(frozen=True)
class Msg3Frame:
    d_a: int


@dataclass(frozen=True)
class Msg4Frame:
    e_b: int


@dataclass(frozen=True)
class OkFrame:
    pass


@dataclass(frozen=True)
class ErrorFrame:
    code: int
    detail: str

    def __post_init__(self):
        if self.code not in ERROR_NAMES:
            raise ValueError(f"unknown error code {self.code:#04x}")


@dataclass(frozen=True)
class LkyMsg2Frame:
    # masked server share and confirmation for the baseline scheme's
    # combined second message (one frame, since they travel together)
    t_b_masked: int
    d_b: int


Frame = Union[RegisterFrame, Msg1Frame, Msg2Frame, Msg3Frame, Msg4Frame,
              OkFrame, ErrorFrame, LkyMsg2Frame]

# each frame class: its wire type byte and its transcript label
_FRAME_TYPES = {
    RegisterFrame: (0x01, "register"),
    Msg1Frame: (0x02, "msg1"),
    Msg2Frame: (0x03, "msg2"),
    Msg3Frame: (0x04, "msg3"),
    Msg4Frame: (0x05, "msg4"),
    OkFrame: (0x06, "ok"),
    ErrorFrame: (0x07, "error"),
    LkyMsg2Frame: (0x08, "lky-msg2"),
}
_CLASS_OF = {frame_type: cls for cls, (frame_type, _) in _FRAME_TYPES.items()}


def frame_label(frame: Frame) -> str:
    return _FRAME_TYPES[type(frame)][1]


def _field(data: bytes) -> bytes:
    if len(data) > 0xFFFF:
        raise ValueError(f"field of {len(data)} bytes exceeds 65535")
    return struct.pack(">H", len(data)) + data


def encode_frame(frame: Frame) -> bytes:
    """Serialize a frame; raises ValueError for unencodable field values."""
    spec = _FRAME_TYPES.get(type(frame))
    if spec is None:
        raise ValueError(f"not a wire frame: {type(frame).__name__}")
    out = bytearray(MAGIC)
    out.append(VERSION)
    out.append(spec[0])
    if isinstance(frame, ErrorFrame):
        out.append(frame.code)
        out += _field(frame.detail.encode("utf-8"))
    else:
        for f in fields(frame):
            out += _field(int_to_bytes(getattr(frame, f.name)))
    if len(out) > MAX_FRAME:
        raise ValueError(f"frame of {len(out)} bytes exceeds the {MAX_FRAME} cap")
    return bytes(out)


def _frame_class(header: bytes) -> Optional[type]:
    """The frame class a header names, checking as much of it as is there."""
    if len(header) >= 2 and header[:2] != MAGIC:
        raise MalformedFrame("bad magic")
    if len(header) >= 3 and header[2] != VERSION:
        raise VersionMismatch(f"wire version {header[2]:#04x}, expected {VERSION:#04x}")
    if len(header) < 4:
        return None
    cls = _CLASS_OF.get(header[3])
    if cls is None:
        raise MalformedFrame(f"unknown frame type {header[3]:#04x}")
    return cls


def _parse_frame() -> Generator[int, bytes, Frame]:
    """Sans-I/O parser for one frame.

    Yields how many bytes it needs next and must be sent exactly that many;
    each field is checked as soon as it arrives, and the running size
    against the cap after each field. The last yield is 0, at the end of
    the frame, so a buffer driver can refuse trailing bytes before the
    parser returns the frame.
    """
    cls = _frame_class((yield 4))
    if cls is ErrorFrame:
        code = (yield 1)[0]
        (length,) = struct.unpack(">H", (yield 2))
        data = (yield length) if length else b""
        _check_size(7 + length)             # header, code, length prefix, text
        try:
            detail = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedFrame(f"detail text is not UTF-8: {exc}") from None
        yield 0
        if code not in ERROR_NAMES:
            raise MalformedFrame(f"unknown error code {code:#04x}")
        return ErrorFrame(code=code, detail=detail)
    size, values = 4, []
    for _ in fields(cls):
        (length,) = struct.unpack(">H", (yield 2))
        if length == 0:
            raise MalformedFrame("integer field with zero length")
        data = yield length
        size += 2 + length
        _check_size(size)
        if length > 1 and data[0] == 0:
            raise MalformedFrame("integer field is not minimally encoded")
        values.append(int.from_bytes(data, "big"))
    yield 0
    return cls(*values)


def _check_size(size: int):
    # never trips under decode_frame, whose whole buffer is within the cap
    if size > MAX_FRAME:
        raise MalformedFrame(f"frame exceeds the {MAX_FRAME} cap")


def decode_frame(data: bytes) -> Frame:
    """Parse exactly one frame from data; everything must be consumed."""
    if len(data) > MAX_FRAME:
        raise MalformedFrame(f"frame of {len(data)} bytes exceeds the {MAX_FRAME} cap")
    parser = _parse_frame()
    pos, n = 0, next(parser)
    try:
        while True:
            if pos + n > len(data):
                if pos == 0:
                    # a short header: its bad magic or version comes first,
                    # then the truncation, at the header byte that is missing
                    _frame_class(data)
                    n, pos = (2, 0) if len(data) < 2 else (1, len(data))
                raise MalformedFrame(
                    f"truncated frame: wanted {n} bytes at offset {pos}, "
                    f"have {len(data) - pos}")
            if n == 0 and pos != len(data):
                raise MalformedFrame(f"{len(data) - pos} trailing bytes after frame")
            chunk = data[pos:pos + n]
            pos += n
            n = parser.send(chunk)
    except StopIteration as done:
        return done.value


def read_frame(stream: BinaryIO) -> Optional[Tuple[Frame, bytes]]:
    """Read one frame from a blocking byte stream.

    Returns the frame and the bytes it arrived as, or None on clean EOF at
    a frame boundary. Mid-frame EOF raises MalformedFrame. The stream is
    read only as far as the frame's own length fields reach, and each field
    is checked by the same parser as decode_frame's as soon as it arrives.
    """
    parser = _parse_frame()
    raw = bytearray()
    n = next(parser)
    try:
        while True:
            chunk = _read_exact(stream, n, allow_eof=not raw)
            if chunk is None:
                return None
            raw += chunk
            n = parser.send(chunk)
    except StopIteration as done:
        return done.value, bytes(raw)


def _read_exact(stream: BinaryIO, n: int, allow_eof: bool = False) -> Optional[bytes]:
    chunks = bytearray()
    while len(chunks) < n:
        chunk = stream.read(n - len(chunks))
        if not chunk:
            if allow_eof and not chunks:
                return None
            raise MalformedFrame(
                f"stream ended after {len(chunks)} of {n} expected bytes")
        if len(chunk) == n:
            return chunk                    # the usual case: one read
        chunks += chunk
    return bytes(chunks)
