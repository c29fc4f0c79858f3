"""The one-pass frame parser against the two-pass codec it replaced.

The reference below is the earlier decode_frame/read_frame, renamed only:
a cursor over a whole buffer, and a stream reader that first gathered a
frame's bytes field by field and then decoded them with the buffer decoder.
decode_frame must give the same outcome (the frame, or the exception type
and text) on every input. read_frame must raise the same exception type on
every input, with the same text except in two classes:

  * in-field: a zero-length or non-minimal integer field is now refused as
    soon as it arrives, where the reference read on and hit the stream's
    end or the size cap first;
  * error-cap: an ERROR frame over the cap gets the stream cap's text,
    where the reference decoded it and got the buffer cap's text.
"""

import io
import random
import re
import struct
from dataclasses import fields

from pakelab.errors import MalformedFrame, VersionMismatch
from pakelab.netio.frames import (
    ERR_AUTH_FAIL,
    ERR_THROTTLED,
    ERROR_NAMES,
    MAGIC,
    MAX_FRAME,
    VERSION,
    ErrorFrame,
    LkyMsg2Frame,
    Msg1Frame,
    Msg2Frame,
    Msg3Frame,
    Msg4Frame,
    OkFrame,
    RegisterFrame,
    _CLASS_OF,
    decode_frame,
    encode_frame,
    read_frame,
)

# -- the reference codec -------------------------------------------------------------


class _Cursor:
    def __init__(self, data):
        self.data = data
        self.pos = 0

    def take(self, n):
        if self.pos + n > len(self.data):
            raise MalformedFrame(
                f"truncated frame: wanted {n} bytes at offset {self.pos}, "
                f"have {len(self.data) - self.pos}")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def take_int(self):
        (length,) = struct.unpack(">H", self.take(2))
        if length == 0:
            raise MalformedFrame("integer field with zero length")
        raw = self.take(length)
        if length > 1 and raw[0] == 0:
            raise MalformedFrame("integer field is not minimally encoded")
        return int.from_bytes(raw, "big")

    def take_text(self):
        (length,) = struct.unpack(">H", self.take(2))
        raw = self.take(length)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedFrame(f"detail text is not UTF-8: {exc}") from None

    def done(self):
        if self.pos != len(self.data):
            raise MalformedFrame(
                f"{len(self.data) - self.pos} trailing bytes after frame")


def reference_decode(data):
    if len(data) > MAX_FRAME:
        raise MalformedFrame(f"frame of {len(data)} bytes exceeds the {MAX_FRAME} cap")
    cur = _Cursor(data)
    if cur.take(2) != MAGIC:
        raise MalformedFrame("bad magic")
    version = cur.take(1)[0]
    if version != VERSION:
        raise VersionMismatch(f"wire version {version:#04x}, expected {VERSION:#04x}")
    frame_type = cur.take(1)[0]
    cls = _CLASS_OF.get(frame_type)
    if cls is None:
        raise MalformedFrame(f"unknown frame type {frame_type:#04x}")
    if cls is ErrorFrame:
        code = cur.take(1)[0]
        detail = cur.take_text()
        cur.done()
        if code not in ERROR_NAMES:
            raise MalformedFrame(f"unknown error code {code:#04x}")
        return ErrorFrame(code=code, detail=detail)
    values = [cur.take_int() for _ in fields(cls)]
    cur.done()
    return cls(*values)


def reference_read(stream):
    header = _reference_read_exact(stream, 4, allow_eof=True)
    if header is None:
        return None
    raw = bytearray(header)
    if header[:2] != MAGIC:
        raise MalformedFrame("bad magic")
    if header[2] != VERSION:
        raise VersionMismatch(
            f"wire version {header[2]:#04x}, expected {VERSION:#04x}")
    frame_type = header[3]
    cls = _CLASS_OF.get(frame_type)
    if cls is None:
        raise MalformedFrame(f"unknown frame type {frame_type:#04x}")
    if cls is ErrorFrame:
        raw += _reference_read_exact(stream, 1)
        raw += _reference_read_field(stream)
    else:
        for _ in fields(cls):
            raw += _reference_read_field(stream)
            if len(raw) > MAX_FRAME:
                raise MalformedFrame(f"frame exceeds the {MAX_FRAME} cap")
    return reference_decode(bytes(raw))


def _reference_read_field(stream):
    header = _reference_read_exact(stream, 2)
    (length,) = struct.unpack(">H", header)
    return header + (_reference_read_exact(stream, length) if length else b"")


def _reference_read_exact(stream, n, allow_eof=False):
    chunks = bytearray()
    while len(chunks) < n:
        chunk = stream.read(n - len(chunks))
        if not chunk:
            if allow_eof and not chunks:
                return None
            raise MalformedFrame(
                f"stream ended after {len(chunks)} of {n} expected bytes")
        chunks += chunk
    return bytes(chunks)


# -- the corpus ------------------------------------------------------------------------

FRAMES = [
    RegisterFrame(id_a=9, id_b=12, v=5),
    Msg1Frame(q=13, g=6, id_a=9, t_a=8),
    Msg2Frame(t_b=300),
    Msg3Frame(d_a=0),
    Msg4Frame(e_b=2 ** 200 + 7),
    OkFrame(),
    ErrorFrame(code=ERR_AUTH_FAIL, detail="denied"),
    ErrorFrame(code=ERR_THROTTLED, detail=""),
    LkyMsg2Frame(t_b_masked=15, d_b=2 ** 64),
]


def _header(frame_type):
    return MAGIC + bytes([VERSION, frame_type])


def _int_field(length, fill=b"\x01"):
    return struct.pack(">H", length) + fill * length


def runaway_inputs():
    """Length prefixes that reach or pass the cap, whole and cut short."""
    msg2, register, error = _header(0x03), _header(0x01), _header(0x07)
    runaway = msg2 + _int_field(0xFFFF)
    # 4 + 2 + 65530 = 65536 bytes: exactly the cap, then one more field
    at_cap = register + _int_field(65530)
    detail = struct.pack(">H", 0xFFFF) + b"a" * 0xFFFF
    yield runaway
    yield runaway + runaway
    yield runaway[:5000]
    yield at_cap
    yield at_cap + _int_field(1)
    yield at_cap + struct.pack(">H", 3) + b"\x05"
    yield at_cap + b"\x00\x00"
    yield register + _int_field(65000) + _int_field(400) + _int_field(200)
    # an in-field fault, then a field that runs past the cap or the stream
    yield register + b"\x00\x02\x00\x05" + _int_field(0xFFFF)
    yield register + b"\x00\x00" + _int_field(0xFFFF)
    yield register + b"\x00\x02\x00\x05" + _int_field(3)[:3]
    yield register + _int_field(0xFFF0, b"\x00") + _int_field(0x20)
    # ERROR frames whose detail passes the cap: whole, cut short, not UTF-8
    yield error + bytes([ERR_AUTH_FAIL]) + detail
    yield error + bytes([ERR_AUTH_FAIL]) + detail[:40000]
    yield error + bytes([0x99]) + detail
    yield error + bytes([ERR_AUTH_FAIL]) + detail[:-1] + b"\xff"
    yield error + bytes([ERR_AUTH_FAIL]) + struct.pack(">H", 65529) + b"b" * 65529


def corpus():
    rng = random.Random(20240601)
    for frame in FRAMES:
        data = encode_frame(frame)
        for cut in range(len(data) + 1):
            yield data[:cut]
        yield data + b"\x00"
        yield data + data
        for _ in range(300):
            mutated = bytearray(data)
            pos = rng.randrange(len(data))
            mutated[pos] = (mutated[pos] + rng.randrange(1, 256)) % 256
            yield bytes(mutated)
    for i in range(10_000):
        body = rng.randbytes(rng.randrange(0, 40))
        yield MAGIC + bytes([VERSION]) + body if i % 2 else body
    yield from runaway_inputs()


# -- helpers ---------------------------------------------------------------------------


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except (MalformedFrame, VersionMismatch) as exc:
        return (type(exc), str(exc))


class Dribble(io.RawIOBase):
    """A stream that hands out at most one byte per read."""

    def __init__(self, data):
        self._data = io.BytesIO(data)

    def readable(self):
        return True

    def read(self, n=-1):
        return self._data.read(min(n, 1) if n >= 0 else 1)


_IN_FIELD = {"integer field with zero length",
             "integer field is not minimally encoded"}
_STREAM_CAP = f"frame exceeds the {MAX_FRAME} cap"
_BUFFER_CAP = re.compile(rf"frame of \d+ bytes exceeds the {MAX_FRAME} cap")


def text_class(old, new):
    """Which sanctioned class a differing read_frame text falls in, or None."""
    if new in _IN_FIELD and (old.startswith("stream ended after") or old == _STREAM_CAP):
        return "in-field"
    if _BUFFER_CAP.fullmatch(old) and new == _STREAM_CAP:
        return "error-cap"
    return None


# -- the tests -------------------------------------------------------------------------


def test_decode_frame_matches_the_reference_on_every_input():
    inputs = list(corpus())
    assert len(inputs) > 12_000
    for data in inputs:
        assert outcome(decode_frame, data) == outcome(reference_decode, data), data[:40]


def test_read_frame_matches_the_reference_but_for_earlier_refusals():
    classes = {"in-field": 0, "error-cap": 0}
    for data in corpus():
        old = outcome(reference_read, io.BytesIO(data))
        new = outcome(read_frame, io.BytesIO(data))
        assert outcome(read_frame, Dribble(data)) == new, data[:40]
        if old[0] == "ok":
            assert new[0] == "ok", data[:40]
            if old[1] is None:
                assert new[1] is None
                continue
            frame, raw = new[1]
            assert frame == old[1]
            assert raw == data[:len(raw)] == encode_frame(frame)
            continue
        assert new[0] is old[0], data[:40]
        if new[1] != old[1]:
            kind = text_class(old[1], new[1])
            assert kind is not None, (data[:40], old, new)
            classes[kind] += 1
    # both classes occur in the corpus, so the comparison above covers them
    assert classes["in-field"] and classes["error-cap"], classes


def test_a_short_header_still_reports_the_stream_end():
    for cut in range(1, 4):
        assert outcome(read_frame, io.BytesIO(b"XK\x09"[:cut])) == (
            MalformedFrame, f"stream ended after {cut} of 4 expected bytes")
