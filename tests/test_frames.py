"""Wire format: framing, strict decoding, stream reads, fuzz robustness."""

import io
import random

import pytest
from hypothesis import given, settings, strategies as st

from pakelab.errors import MalformedFrame, PakeError, VersionMismatch
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
    decode_frame,
    encode_frame,
    frame_label,
    read_frame,
)

ints = st.integers(min_value=0, max_value=2 ** 256)

frames_st = st.one_of(
    st.builds(RegisterFrame, id_a=ints, id_b=ints, v=ints),
    st.builds(Msg1Frame, q=ints, g=ints, id_a=ints, t_a=ints),
    st.builds(Msg2Frame, t_b=ints),
    st.builds(Msg3Frame, d_a=ints),
    st.builds(Msg4Frame, e_b=ints),
    st.builds(OkFrame),
    st.builds(ErrorFrame, code=st.sampled_from(sorted(ERROR_NAMES)),
              detail=st.text(max_size=60)),
    st.builds(LkyMsg2Frame, t_b_masked=ints, d_b=ints),
)


# -- pinned encodings -------------------------------------------------------------


def test_toy_msg1_frame_encoding():
    frame = Msg1Frame(q=13, g=6, id_a=9, t_a=8)
    assert encode_frame(frame).hex() == "504b010200010d000106000109000108"


def test_more_pinned_encodings():
    assert encode_frame(OkFrame()).hex() == "504b0106"
    assert encode_frame(Msg2Frame(t_b=9)).hex() == "504b0103000109"
    assert encode_frame(ErrorFrame(code=ERR_AUTH_FAIL, detail="no")).hex() == \
        "504b01070400026e6f"
    assert encode_frame(Msg3Frame(d_a=0)).hex() == "504b0104000100"


def test_frame_labels():
    """Each frame type's wire byte, transcript label and round trip."""
    for frame, type_byte, label in [
        (RegisterFrame(id_a=9, id_b=12, v=7), 0x01, "register"),
        (Msg1Frame(q=1, g=1, id_a=1, t_a=1), 0x02, "msg1"),
        (Msg2Frame(t_b=9), 0x03, "msg2"),
        (Msg3Frame(d_a=1), 0x04, "msg3"),
        (Msg4Frame(e_b=9), 0x05, "msg4"),
        (OkFrame(), 0x06, "ok"),
        (ErrorFrame(code=ERR_THROTTLED, detail=""), 0x07, "error"),
        (LkyMsg2Frame(t_b_masked=1, d_b=1), 0x08, "lky-msg2"),
    ]:
        data = encode_frame(frame)
        assert data[:4] == MAGIC + bytes([VERSION, type_byte]), label
        assert frame_label(frame) == label
        assert decode_frame(data) == frame


# -- round trips -------------------------------------------------------------------


@given(frames_st)
def test_encode_decode_round_trip(frame):
    data = encode_frame(frame)
    assert len(data) <= MAX_FRAME
    assert decode_frame(data) == frame
    # and the encoding itself is canonical
    assert encode_frame(decode_frame(data)) == data


def test_zero_valued_fields_round_trip():
    frame = RegisterFrame(id_a=0, id_b=0, v=0)
    assert decode_frame(encode_frame(frame)) == frame


def test_huge_ints_round_trip():
    frame = Msg4Frame(e_b=2 ** 4096 - 1)
    assert decode_frame(encode_frame(frame)) == frame


# -- encode-side validation ---------------------------------------------------------


def test_encode_rejects_foreign_objects_and_bad_values():
    with pytest.raises(ValueError):
        encode_frame("not a frame")
    with pytest.raises(ValueError):
        encode_frame(Msg2Frame(t_b=-1))
    with pytest.raises(ValueError):
        ErrorFrame(code=0x99, detail="nope")


def test_encode_enforces_the_frame_cap():
    with pytest.raises(ValueError):
        encode_frame(Msg2Frame(t_b=1 << (8 * 70000)))


def test_encode_names_the_size_it_refuses():
    # 4-byte header + 1-byte code + 2-byte length + 65530 bytes of detail
    with pytest.raises(ValueError) as exc:
        encode_frame(ErrorFrame(1, "x" * 65530))
    assert str(exc.value) == "frame of 65537 bytes exceeds the 65536 cap"


# -- decode-side strictness -----------------------------------------------------------


def test_decode_rejects_bad_magic():
    with pytest.raises(MalformedFrame):
        decode_frame(b"XX\x01\x06")
    with pytest.raises(MalformedFrame):
        decode_frame(b"\x50")


def test_wrong_version_is_its_own_failure():
    data = bytearray(encode_frame(OkFrame()))
    data[2] = 0x02
    with pytest.raises(VersionMismatch):
        decode_frame(bytes(data))


def test_decode_rejects_unknown_types_and_codes():
    with pytest.raises(MalformedFrame):
        decode_frame(MAGIC + bytes([VERSION, 0x77]))
    bad_error = MAGIC + bytes([VERSION, 0x07, 0x99]) + b"\x00\x00"
    with pytest.raises(MalformedFrame):
        decode_frame(bad_error)


def test_decode_rejects_trailing_garbage():
    data = encode_frame(Msg3Frame(d_a=5)) + b"\x00"
    with pytest.raises(MalformedFrame):
        decode_frame(data)


def test_decode_rejects_truncation():
    data = encode_frame(Msg1Frame(q=13, g=6, id_a=9, t_a=8))
    for cut in range(1, len(data)):
        with pytest.raises((MalformedFrame, VersionMismatch)):
            decode_frame(data[:cut])


def test_decode_rejects_non_minimal_integers():
    # Msg3 with d_a = 5 encoded in two bytes instead of one
    data = MAGIC + bytes([VERSION, 0x04]) + b"\x00\x02\x00\x05"
    with pytest.raises(MalformedFrame):
        decode_frame(data)
    zero_length = MAGIC + bytes([VERSION, 0x04]) + b"\x00\x00"
    with pytest.raises(MalformedFrame):
        decode_frame(zero_length)


def test_decode_rejects_non_utf8_detail():
    data = MAGIC + bytes([VERSION, 0x07, 0x01]) + b"\x00\x01\xff"
    with pytest.raises(MalformedFrame):
        decode_frame(data)


def test_decode_rejects_oversized_input():
    with pytest.raises(MalformedFrame):
        decode_frame(b"\x00" * (MAX_FRAME + 1))


# -- fuzzing --------------------------------------------------------------------------


@given(st.binary(max_size=80))
def test_random_bytes_never_crash_the_decoder(data):
    try:
        frame = decode_frame(data)
    except (MalformedFrame, VersionMismatch):
        return
    assert encode_frame(frame) == data      # accepted inputs are canonical


@settings(max_examples=200)
@given(frames_st, st.integers(min_value=0, max_value=2 ** 32))
def test_mutated_frames_never_crash_the_decoder(frame, seed):
    rng = random.Random(seed)
    data = bytearray(encode_frame(frame))
    for _ in range(rng.randrange(1, 4)):
        data[rng.randrange(len(data))] = rng.randrange(256)
    try:
        decoded = decode_frame(bytes(data))
    except (MalformedFrame, VersionMismatch):
        return
    assert encode_frame(decoded) == bytes(data)


# -- stream reads -----------------------------------------------------------------------


def test_read_frame_walks_a_stream():
    frames = [Msg1Frame(q=13, g=6, id_a=9, t_a=8), OkFrame(),
              ErrorFrame(code=ERR_AUTH_FAIL, detail="denied")]
    stream = io.BytesIO(b"".join(encode_frame(f) for f in frames))
    assert read_frame(stream) == (frames[0], encode_frame(frames[0]))
    assert read_frame(stream) == (frames[1], encode_frame(frames[1]))
    assert read_frame(stream) == (frames[2], encode_frame(frames[2]))
    assert read_frame(stream) is None       # clean EOF


def test_read_frame_rejects_mid_frame_eof():
    data = encode_frame(Msg2Frame(t_b=300))
    stream = io.BytesIO(data[:-1])
    with pytest.raises(MalformedFrame):
        read_frame(stream)


def test_read_frame_surfaces_version_mismatch():
    data = bytearray(encode_frame(OkFrame()))
    data[2] = 0x03
    with pytest.raises(VersionMismatch):
        read_frame(io.BytesIO(bytes(data)))


def test_read_frame_stops_runaway_fields():
    # a MSG2 whose length prefixes promise far more than the cap allows
    runaway = MAGIC + bytes([VERSION, 0x03]) + b"\xff\xff" + b"\x01" * 0xFFFF
    stream = io.BytesIO(runaway + runaway)
    with pytest.raises((MalformedFrame, PakeError)):
        read_frame(stream)
