"""Federation wire protocol and spool transport: framing, damage,
spool.

The contract under test is the lenient skip-and-count one the pcap
reader established: a receiver **never raises** on wire damage — bad
magic resyncs, bad checksums skip, truncation counts — and every
recoverable corruption costs exactly one ``corrupt_frames`` tick.
"""

import json
import struct
import zlib

import pytest

from repro.core import AnalysisConfig, PartialState, QuicsandPipeline
from repro.faults import corrupt_frame_bytes
from repro.federate.aggregate import Aggregator
from repro.federate.protocol import (
    BYE,
    FINAL_STATE,
    FRAME_KINDS,
    HEADER_SIZE,
    HELLO,
    MAGIC,
    OBS,
    PROTOCOL_VERSION,
    SCHEMA_VERSION,
    Frame,
    FrameDecoder,
    ProtocolError,
    bye_frame,
    encode_frame,
    encode_vantage,
    hello_frame,
    pickle_frame,
)
from repro.federate.transport import SpoolReader
from repro.util.rng import SeededRng


def decode_frames(data: bytes) -> tuple:
    """Decode a complete byte string; returns (frames, corrupt count)."""
    decoder = FrameDecoder()
    frames = list(decoder.feed(data))
    decoder.finish()
    return frames, decoder.corrupt_frames


def sample_frames():
    return [
        hello_frame("v0", "44.0.0.0/10", 0),
        pickle_frame(OBS, {"metrics": "snapshot" * 40}, 1),
        pickle_frame(FINAL_STATE, {"total": 123}, 2),
        bye_frame(3, 123, 3),
    ]


# -- framing ---------------------------------------------------------------


def test_roundtrip_all_kinds():
    for seq, kind in enumerate(FRAME_KINDS):
        frames, corrupt = decode_frames(encode_frame(kind, b"payload", seq))
        assert corrupt == 0
        assert frames == [Frame(kind=kind, seq=seq, payload=b"payload")]


def test_roundtrip_stream_and_json_payloads():
    frames, corrupt = decode_frames(b"".join(sample_frames()))
    assert corrupt == 0
    assert [f.kind for f in frames] == [HELLO, OBS, FINAL_STATE, BYE]
    hello = frames[0].json()
    assert hello == {
        "schema": SCHEMA_VERSION,
        "vantage": "v0",
        "prefix": "44.0.0.0/10",
    }
    assert frames[2].unpickle() == {"total": 123}
    assert frames[3].json() == {"frames": 3, "packets": 123}


def test_encode_vantage_numbers_its_frames():
    """``hello`` 0, ``final-state`` 1, ``obs`` 2 only with a snapshot,
    ``bye`` last, announcing the frame count and the state's packets."""
    state = PartialState.initial(AnalysisConfig())
    state.total_packets = 123
    for snapshot, kinds in (
        (None, [HELLO, FINAL_STATE, BYE]),
        ({"metrics": 1}, [HELLO, FINAL_STATE, OBS, BYE]),
    ):
        blob = b"".join(encode_vantage("v0", "44.0.0.0/10", state, snapshot))
        frames, corrupt = decode_frames(blob)
        assert corrupt == 0
        assert [(f.kind, f.seq) for f in frames] == list(zip(kinds, range(4)))
        assert frames[0].payload == hello_frame("v0", "44.0.0.0/10")[HEADER_SIZE:]
        assert frames[1].unpickle().total_packets == 123
        assert frames[-1].json() == {"frames": len(kinds), "packets": 123}
    assert frames[2].unpickle() == {"metrics": 1}


def test_schema_1_hello_is_refused():
    """A spool written before the sweep counted sub-minute gaps (schema
    1) or before it kept per-source runs (schema 2) holds
    ``TimeoutSweep`` pickles of another shape: its ``hello`` says so and
    the aggregator stops there, before any unpickling."""
    assert SCHEMA_VERSION == 3
    for schema in (1, 2):
        hello = encode_frame(
            HELLO,
            json.dumps(
                {"schema": schema, "vantage": "v0", "prefix": "44.0.0.0/10"}
            ).encode(),
            0,
        )
        poison = encode_frame(FINAL_STATE, b"not a pickle: never loaded", 1)
        frames, _corrupt = decode_frames(hello + poison)
        aggregator = Aggregator(QuicsandPipeline())
        with pytest.raises(
            ProtocolError, match=f"'v0' speaks payload schema {schema}, expected 3"
        ):
            aggregator.ingest_frames("spool-0", frames)
        assert aggregator.streams == []


def test_encode_rejects_unknown_kind():
    with pytest.raises(ProtocolError):
        encode_frame("no-such-kind", b"")
    for retired in ("sketch", "state"):  # retired with their codes
        with pytest.raises(ProtocolError):
            encode_frame(retired, b"")


def test_kind_codes_are_the_spool_format():
    """The code byte of a kind never changes — kept spools stay readable
    — and 2 and 4, the retired interim ``state`` and ``sketch`` frames,
    are not reassigned."""
    codes = {kind: encode_frame(kind, b"")[5] for kind in FRAME_KINDS}
    assert codes == {"hello": 1, "final-state": 3, "obs": 5, "bye": 6}


def test_retired_code_4_frame_is_skipped_as_damage():
    """A spool written when vantages still shipped ``sketch`` (code 4)
    or interim ``state`` (code 2) frames: the retired frame costs one
    ``corrupt_frames`` tick, the rest of the stream — its
    ``final-state`` included — decodes."""
    hello, metrics, final, bye = sample_frames()
    payload = b"a pickled tier or snapshot"
    for code in (4, 2):
        retired = struct.pack(
            ">4sBBIQI", MAGIC, PROTOCOL_VERSION, code, 3, len(payload),
            zlib.crc32(payload),
        ) + payload
        frames, corrupt = decode_frames(hello + metrics + final + retired + bye)
        assert corrupt == 1, code
        assert [f.kind for f in frames] == [HELLO, OBS, FINAL_STATE, BYE]
        assert frames[2].unpickle() == {"total": 123}


def test_byte_at_a_time_chunking():
    decoder = FrameDecoder()
    out = []
    for blob in sample_frames():
        for i in range(len(blob)):
            out.extend(decoder.feed(blob[i : i + 1]))
    decoder.finish()
    assert [f.kind for f in out] == [HELLO, OBS, FINAL_STATE, BYE]
    assert decoder.corrupt_frames == 0


# -- damage: count and skip, never raise -----------------------------------


def test_garbage_prefix_resyncs_counting_one():
    frames, corrupt = decode_frames(b"not frames at all" + sample_frames()[0])
    assert [f.kind for f in frames] == [HELLO]
    assert corrupt == 1


def test_garbage_run_chunked_counts_once():
    decoder = FrameDecoder()
    out = []
    for chunk in (b"junk" * 10, b"more junk", sample_frames()[0]):
        out.extend(decoder.feed(chunk))
    decoder.finish()
    assert [f.kind for f in out] == [HELLO]
    assert decoder.corrupt_frames == 1


def test_bad_version_skips_frame():
    blob = bytearray(b"".join(sample_frames()))
    blob[4] = 0xFF  # protocol version of the hello frame
    frames, corrupt = decode_frames(bytes(blob))
    assert [f.kind for f in frames] == [OBS, FINAL_STATE, BYE]
    assert corrupt == 1


def test_bad_checksum_skips_declared_frame():
    first, rest = sample_frames()[0], b"".join(sample_frames()[1:])
    blob = bytearray(first + rest)
    blob[HEADER_SIZE] ^= 0xFF  # first payload byte of hello
    frames, corrupt = decode_frames(bytes(blob))
    assert [f.kind for f in frames] == [OBS, FINAL_STATE, BYE]
    assert corrupt == 1


def test_truncated_tail_counts_one():
    blob = b"".join(sample_frames())
    frames, corrupt = decode_frames(blob[:-5])
    assert [f.kind for f in frames] == [HELLO, OBS, FINAL_STATE]
    assert corrupt == 1


def test_truncated_header_counts_one():
    frames, corrupt = decode_frames(sample_frames()[0][: HEADER_SIZE - 3])
    assert frames == []
    assert corrupt == 1


def test_corrupt_frame_bytes_count_matches_decoder():
    """Every damage corrupt_frame_bytes applies costs exactly one tick."""
    blob = b"".join(sample_frames() * 5)
    damaged, expected = corrupt_frame_bytes(blob, SeededRng(7), rate=0.5)
    assert expected > 0
    frames, corrupt = decode_frames(damaged)
    assert corrupt == expected
    assert len(frames) == 20 - expected


def test_corrupt_frame_bytes_spares_kinds():
    blob = b"".join(sample_frames() * 3)
    damaged, n = corrupt_frame_bytes(
        blob,
        SeededRng(3),
        rate=1.0,
        spare_kinds=(HELLO, FINAL_STATE, BYE),
    )
    assert n == 3  # only the three obs frames were eligible
    frames, corrupt = decode_frames(damaged)
    assert corrupt == 3
    assert [f.kind for f in frames] == [HELLO, FINAL_STATE, BYE] * 3


def test_magic_never_raises_fuzz():
    """Arbitrary byte soup through the decoder: no exception, ever."""
    rng = SeededRng(99, "fuzz")
    decoder = FrameDecoder()
    for _ in range(50):
        blob = rng.randbytes(rng.randint(1, 300))
        list(decoder.feed(blob))
    decoder.finish()
    # sanity: the decoder is still usable afterwards
    frames = list(decoder.feed(sample_frames()[0]))
    assert [f.kind for f in frames] == [HELLO]


# -- spool transport -------------------------------------------------------


def test_spool_roundtrip(tmp_path):
    for name in ("v1", "v0"):
        (tmp_path / f"{name}.qsf").write_bytes(b"".join(sample_frames()))
    # a damaged stream beside them is never read: nothing is counted
    stale = bytearray(b"".join(sample_frames()))
    stale[4] = 0xFF
    (tmp_path / "stale.qsf").write_bytes(bytes(stale))
    reader = SpoolReader(str(tmp_path))
    for name in ("v0", "v1"):
        frames = reader.read_stream(name)
        assert [f.kind for f in frames] == [HELLO, OBS, FINAL_STATE, BYE]
    assert reader.corrupt_frames == 0


def test_spool_reader_skips_damage(tmp_path):
    path = tmp_path / "damaged.qsf"
    blob = bytearray(b"".join(sample_frames()))
    blob[4] = 0xFF
    path.write_bytes(bytes(blob))
    reader = SpoolReader(str(tmp_path))
    frames = reader.read_stream("damaged")
    assert [f.kind for f in frames] == [OBS, FINAL_STATE, BYE]
    assert reader.corrupt_frames == 1


def test_spool_reader_missing_directory():
    with pytest.raises(FileNotFoundError):
        SpoolReader("/nonexistent/spool/dir").read_stream("vantage-0")
