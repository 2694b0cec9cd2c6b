"""The shared container codec and text layouts, and truncated or
bit-flipped EDDS, EDCK and EDCF files.

Each file, and an EDCK image of the version that ``load_checkpoint``
still reads, is cut, or has one byte flipped, at the start, the middle
and the end of every region: the 9-byte prefix (magic, version, header
length), the JSON header, the payload and, for the checksummed EDDS and
EDCK, the SHA-256 trailer. A seeded sweep then flips every prefix and
header byte, and cuts each image at every offset up to its payload.
Only ``FileFormatError`` and its subclasses may come out of the readers.
"""

import hashlib
import math
import struct

import numpy as np
import pytest

from echodoa import container
from echodoa.datasets import (
    SweepSpec,
    generate_dataset,
    load_dataset,
    read_capture,
    save_dataset,
    write_capture,
)
from echodoa.errors import (
    ChecksumError,
    FileFormatError,
    UnsupportedVersionError,
)
from echodoa.neural import (
    Checkpoint,
    NetworkSpec,
    load_checkpoint,
    save_checkpoint,
)
from echodoa.neural.network import init_params
from echodoa.signal_sim import (
    ArrayGeometry,
    SimConfig,
    SourceScenario,
    synthesize_echo,
    wavelength,
)

CFG = SimConfig()
GEO = ArrayGeometry.pair(wavelength(CFG) / 2.0)
TINY = NetworkSpec(input_time=256, feature_maps=8, dense_widths=(16, 8))


@pytest.mark.parametrize("checksum", [True, False])
def test_codec_frames_and_reads_back(checksum, tmp_path):
    path = tmp_path / "file.bin"
    samples = np.arange(3, dtype="<f8")
    container.write(path, b"TEST", 3, {"b": 1, "a": [2]},
                    iter([b"xy", samples]), checksum=checksum)
    blob = b'{"a": [2], "b": 1}'
    body = (b"TEST" + struct.pack("<BI", 3, len(blob)) + blob + b"xy"
            + samples.tobytes())
    digest = hashlib.sha256(body).digest() if checksum else b""
    assert path.read_bytes() == body + digest
    # each version is read by its own decoder, which names the payload's
    # item type and count
    header, payload = container.read(
        path, b"TEST", {2: list, 3: lambda h: (h, "<u2", 13)},
        checksum=checksum)
    assert header == {"a": [2], "b": 1}
    assert payload.dtype == "<u2" and payload.shape == (13,)
    assert not payload.flags.writeable
    assert payload.tobytes() == b"xy" + samples.tobytes()
    with pytest.raises(UnsupportedVersionError,
                       match=r"version 3, expected \[1, 2\]"):
        container.read(path, b"TEST", {1: dict, 2: dict}, checksum=checksum)
    # a payload that is not the items the header implies
    for item, count in (("<u2", 12), ("<u2", 14), ("<f8", 3)):
        with pytest.raises(FileFormatError, match="payload of 26 bytes"):
            container.read(path, b"TEST", {3: lambda h: (h, item, count)},
                           checksum=checksum)


@pytest.mark.parametrize("checksum", [True, False])
def test_header_length_past_the_payload(checksum, tmp_path):
    path = tmp_path / "file.bin"
    body = b"TEST" + struct.pack("<BI", 3, 3) + b"{}"
    path.write_bytes(body + (hashlib.sha256(body).digest() if checksum
                             else b""))
    with pytest.raises(FileFormatError, match="runs past the payload"):
        container.read(path, b"TEST", {3: dict}, checksum=checksum)


@pytest.mark.parametrize("sep, comment, text", [
    (" ", "# ", "# i x s\n1 0.10000000000000001 a\n"
                "18446744073709551615 inf b\n-3 nan c\n4 0.25 d\n"),
    (",", "", "i,x,s\n1,0.10000000000000001,a\n"
              "18446744073709551615,inf,b\n-3,nan,c\n4,0.25,d\n")],
    ids=["text", "csv"])
def test_table_layout(sep, comment, text, tmp_path):
    path = tmp_path / "table.txt"
    rows = [(1, 0.1, "a"), (np.uint64(2**64 - 1), math.inf, "b"),
            (-3, np.float64(math.nan), "c"), (4, np.float32(0.25), "d")]
    container.write_table(path, ("i", "x", "s"), iter(rows), sep=sep,
                          comment=comment)
    assert path.read_text() == text


def test_json_text_is_strict():
    text = container.json_text({"b": [math.inf, -math.inf, 1.5],
                                "a": {"c": math.nan},
                                "d": (np.float64(math.inf), 2)})
    assert text == ('{\n  "a": {\n    "c": "nan"\n  },\n'
                    '  "b": [\n    "inf",\n    "-inf",\n    1.5\n  ],\n'
                    '  "d": [\n    "inf",\n    2\n  ]\n}\n')


@pytest.mark.parametrize("old", [b"the previous file", None])
def test_failed_write_leaves_the_old_file_or_none(old, tmp_path):
    path = tmp_path / "file.bin"
    if old is not None:
        path.write_bytes(old)

    def chunks():
        yield b"xy"
        raise RuntimeError("source failed mid-payload")

    with pytest.raises(RuntimeError, match="mid-payload"):
        container.write(path, b"TEST", 3, {}, chunks())
    if old is None:
        assert list(tmp_path.iterdir()) == []
    else:
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == old
    container.write(path, b"TEST", 3, {}, [b"xy"])
    assert list(tmp_path.iterdir()) == [path]
    assert container.read(path, b"TEST", {3: lambda h: (h, "u1", 2)}
                          )[1].tobytes() == b"xy"


def _write_edds(path):
    save_dataset(generate_dataset(SweepSpec(
        angles_deg=(10.0,), snrs_db=(20.0,), records_per_cell=2)), path)


def _write_edck(path):
    save_checkpoint(Checkpoint(spec=TINY,
                               params=init_params(TINY, 1, np.float64)), path)


def _write_edck_v1(path):
    """The image of ``_write_edck`` as version 1: its weights as ``<f8``."""
    _write_edck(path)
    raw = bytearray(path.read_bytes())
    raw[4] = 1
    start, stop = regions(raw, True)["payload"]
    weights = np.frombuffer(raw[start:stop], dtype="<f4").astype("<f8")
    path.write_bytes(_with_payload(bytes(raw), True, weights.tobytes()))


def _write_edcf(path):
    wave = synthesize_echo(SourceScenario(doa_deg=20.0, range_m=0.8), GEO, CFG)
    write_capture(path, wave, GEO, annotation="doa_deg=20")


# name -> (writer, reader, carries a SHA-256 trailer)
FORMATS = {
    "edds": (_write_edds, load_dataset, True),
    "edck": (_write_edck, load_checkpoint, True),
    "edck_v1": (_write_edck_v1, load_checkpoint, True),
    "edcf": (_write_edcf, read_capture, False),
}


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    directory = tmp_path_factory.mktemp("corrupt")
    files = {}
    for name, (writer, _, _) in FORMATS.items():
        path = directory / f"good.{name}"
        writer(path)
        files[name] = path.read_bytes()
    return files


def regions(raw, checksum):
    """(start, stop) of each region of a container image."""
    (header_len,) = struct.unpack_from("<I", raw, 5)
    payload_end = len(raw) - 32 if checksum else len(raw)
    spans = {"prefix": (0, 9), "header": (9, 9 + header_len),
             "payload": (9 + header_len, payload_end)}
    if checksum:
        spans["trailer"] = (payload_end, len(raw))
    return spans


def offset_in(span, where):
    start, stop = span
    return {"start": start, "middle": (start + stop) // 2,
            "end": stop - 1}[where]


CASES = [(fmt, region, where)
         for fmt, (_, _, checksum) in FORMATS.items()
         for region in ("prefix", "header", "payload", "trailer")
         if checksum or region != "trailer"
         for where in ("start", "middle", "end")]


def _read(fmt, raw, tmp_path):
    path = tmp_path / f"bad.{fmt}"
    path.write_bytes(raw)
    return FORMATS[fmt][1](path)


def test_untouched_files_read(saved, tmp_path):
    for fmt, raw in saved.items():
        _read(fmt, raw, tmp_path)


@pytest.mark.parametrize("fmt, region, where", CASES)
def test_truncation_is_file_format_error(fmt, region, where, saved,
                                         tmp_path):
    raw = saved[fmt]
    cut = offset_in(regions(raw, FORMATS[fmt][2])[region], where)
    with pytest.raises(FileFormatError):
        _read(fmt, raw[:cut], tmp_path)


@pytest.mark.parametrize("fmt, region, where", CASES)
def test_flipped_byte(fmt, region, where, saved, tmp_path):
    raw = bytearray(saved[fmt])
    checksum = FORMATS[fmt][2]
    offset = offset_in(regions(raw, checksum)[region], where)
    raw[offset] ^= 0xFF
    if offset < 4:
        expected = FileFormatError          # bad magic
    elif offset == 4:
        expected = UnsupportedVersionError
    elif checksum:
        expected = ChecksumError
    elif region == "payload":
        # EDCF has no checksum: a flipped sample reads as another value
        try:
            wave, _, _ = _read(fmt, bytes(raw), tmp_path)
        except FileFormatError:
            return
        assert wave.data.shape[0] == 2
        return
    else:
        expected = FileFormatError
    with pytest.raises(expected):
        _read(fmt, bytes(raw), tmp_path)


def _with_payload(raw, checksum, payload):
    """``raw`` with its payload replaced and, if checksummed, re-hashed."""
    body = raw[:regions(raw, checksum)["payload"][0]] + payload
    return body + hashlib.sha256(body).digest() if checksum else body


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("change", ["one value short", "one value over"])
def test_payload_length_must_match_the_header(fmt, change, saved, tmp_path):
    raw = saved[fmt]
    checksum = FORMATS[fmt][2]
    start, stop = regions(raw, checksum)["payload"]
    payload = raw[start:stop - 8] if change == "one value short" \
        else raw[start:stop] + bytes(8)
    with pytest.raises(FileFormatError) as info:
        _read(fmt, _with_payload(raw, checksum, payload), tmp_path)
    assert type(info.value) is FileFormatError


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_every_prefix_and_header_byte(fmt, saved, tmp_path):
    """Each prefix and header byte XORed with a seeded non-zero mask, and
    the image cut at every offset up to the payload: each read raises
    ``FileFormatError`` (or a subclass) or loads, and no NumPy warning
    appears. No cut image loads, and a flipped one loads only where no
    digest covers it: in EDCF, or re-hashed, which takes the flip past
    the checksum to the header decoder."""
    _, reader, checksum = FORMATS[fmt]
    raw = saved[fmt]
    end = regions(raw, checksum)["header"][1]
    path = tmp_path / f"bad.{fmt}"

    def loads(image):
        path.write_bytes(image)
        try:
            reader(path)
        except FileFormatError:
            return False
        return True

    masks = np.random.default_rng(2022).integers(1, 256, end)
    assert not any(loads(raw[:cut]) for cut in range(end + 1))
    for offset, mask in enumerate(masks):
        image = bytearray(raw)
        image[offset] ^= mask
        if checksum:
            assert not loads(image), offset
            loads(image[:-32] + hashlib.sha256(image[:-32]).digest())
        else:
            loads(image)
