import json
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biomeval import (
    BiomevalError,
    EmbeddingRecord,
    FormatError,
    ParseError,
    ValidationError,
    load_detections,
    load_embeddings,
    load_ground_truth,
    load_media_index,
    load_protocol,
    sniff_embedding_format,
    write_embeddings,
)
from biomeval.io import _annotation_record
from biomeval.stores import DetectionStore, EmbeddingStore, GroundTruthStore

from conftest import write_jsonl


class TestDetectionLoading:
    def test_two_valid_lines(self, tmp_path):
        path = write_jsonl(
            tmp_path / "d.jsonl",
            [
                {"media_id": "m", "frame": 0, "x": 1, "y": 2, "w": 3, "h": 4, "score": 0.5},
                {"media_id": "m", "frame": 1, "x": 1, "y": 2, "w": 3, "h": 4, "score": 0.9,
                 "dataset_tag": "alpha"},
            ],
        )
        store = load_detections(path)
        assert len(store) == 2
        assert store.media_tags == {"m": None}

    def test_zero_width_names_line(self, tmp_path):
        path = write_jsonl(
            tmp_path / "d.jsonl",
            [
                {"media_id": "m", "frame": 0, "x": 0, "y": 0, "w": 1, "h": 1, "score": 0.5},
                {"media_id": "m", "frame": 1, "x": 0, "y": 0, "w": 0, "h": 1, "score": 0.5},
            ],
        )
        with pytest.raises(ValidationError, match="line 2"):
            load_detections(path)

    def test_empty_file_is_empty_store(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("", encoding="utf-8")
        assert len(load_detections(path)) == 0

    def test_malformed_line_carries_number(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"media_id": "m", "frame": 0, "x": 0, "y": 0, "w": 1, "h": 1, "score": 0.5}\n'
            "not json\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError, match="line 2"):
            load_detections(path)

    def test_non_finite_coordinate(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"media_id": "m", "frame": 0, "x": NaN, "y": 0, "w": 1, "h": 1, "score": 0.5}\n',
            encoding="utf-8",
        )
        with pytest.raises(ValidationError, match="line 1"):
            load_detections(path)

    def test_missing_key(self, tmp_path):
        path = write_jsonl(tmp_path / "d.jsonl", [{"media_id": "m", "frame": 0}])
        with pytest.raises(ParseError, match="line 1"):
            load_detections(path)

    def test_corner_format_flag(self, tmp_path):
        rows = [{"media_id": "m", "frame": 0, "x": 10, "y": 20, "w": 30, "h": 50, "score": 0.5}]
        path = write_jsonl(tmp_path / "d.jsonl", rows)
        store = load_detections(path, box_format="xyxy")
        assert store.records[0].box.as_tuple() == (10.0, 20.0, 20.0, 30.0)

    def test_reload_equality(self, tmp_path):
        rows = [
            {"media_id": "m", "frame": i, "x": i, "y": 0, "w": 2, "h": 2, "score": 0.5}
            for i in range(5)
        ]
        path = write_jsonl(tmp_path / "d.jsonl", rows)
        assert load_detections(path) == load_detections(path)

    def test_ground_truth_needs_subject(self, tmp_path):
        path = write_jsonl(
            tmp_path / "g.jsonl",
            [{"media_id": "m", "frame": 0, "x": 0, "y": 0, "w": 1, "h": 1}],
        )
        with pytest.raises(ParseError, match="subject_id"):
            load_ground_truth(path)


def _det_row(**fields):
    row = {"media_id": "m", "frame": 0, "x": 1, "y": 2, "w": 3, "h": 4, "score": 0.5}
    row.update(fields)
    return {k: v for k, v in row.items() if v is not None}


class TestHostileDetectionFields:
    """Every fault names its line; a valid line before it never hides it."""

    def _error(self, tmp_path, bad_line, loader=load_detections, good=_det_row()):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(good) + "\n" + bad_line + "\n", encoding="utf-8")
        with pytest.raises(BiomevalError) as info:
            loader(path)
        return str(info.value)

    def test_huge_integer_coordinate(self, tmp_path):
        message = self._error(tmp_path, json.dumps(_det_row(x=10**400)))
        assert message.startswith("line 2: key 'x' is beyond the float range")
        assert len(message) < 120
        # The corner difference of an "xyxy" box must not overflow either.
        path = write_jsonl(tmp_path / "c.jsonl", [_det_row(x=-10**400, w=2.5)])
        with pytest.raises(ParseError, match="^line 1: key 'x' is beyond the float range"):
            load_detections(path, box_format="xyxy")

    def test_non_integral_frame(self, tmp_path):
        message = self._error(tmp_path, json.dumps(_det_row(frame=2.7)))
        assert message == "line 2: frame index must be an integer, got 2.7"

    def test_string_frame_and_score(self, tmp_path):
        assert self._error(tmp_path, json.dumps(_det_row(frame="x"))) == (
            "line 2: frame index must be an integer, got 'x'"
        )
        assert self._error(tmp_path, json.dumps(_det_row(score="abc"))) == (
            "line 2: key 'score' must be a number, got 'abc'"
        )
        assert "line 2: key 'score' must be a number" in self._error(
            tmp_path, json.dumps(_det_row(score=True))
        )

    def test_long_string_value_message_is_bounded(self, tmp_path):
        message = self._error(tmp_path, json.dumps(_det_row(y="A" * 100000)))
        assert message.startswith("line 2: key 'y' must be a number") and len(message) < 150

    def test_integer_beyond_json_limit_is_a_parse_error(self, tmp_path):
        line = json.dumps(_det_row()).replace('"x": 1', '"x": ' + "9" * 5000)
        assert self._error(tmp_path, line).startswith("line 2: invalid JSON")

    def test_ground_truth_faults(self, tmp_path):
        good = {"media_id": "m", "frame": 0, "x": 0, "y": 0, "w": 1, "h": 1, "subject_id": "s"}
        bad = dict(good, frame=-1)
        assert self._error(tmp_path, json.dumps(bad), load_ground_truth, good) == (
            "line 2: frame index must be non-negative, got -1"
        )

    def test_first_faulty_line_wins(self, tmp_path):
        rows = [json.dumps(_det_row(frame=i)) for i in range(5000)]
        rows[4321] = json.dumps(_det_row(w=0))
        rows[4500] = "not json"
        path = tmp_path / "d.jsonl"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="^line 4322: box sides must be positive"):
            load_detections(path)
        rows[4321] = json.dumps(_det_row())
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match="^line 4501: invalid JSON"):
            load_detections(path)

    def test_invalid_utf8_names_its_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        lines = [json.dumps(_det_row(frame=i)).encode("utf-8") for i in range(6)]
        lines[3] = lines[3].replace(b'"m"', b'"m\xff"')
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(ParseError, match=r"^line 4: invalid UTF-8 \(invalid start byte: 0xff "
                                             r"at byte 16 of the line\)$"):
            load_detections(path)
        # The decoder fails the whole block that holds line 4, before line 2 is
        # read: a fault on line 2 still comes first.
        lines[1] = b"not json"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(ParseError, match="^line 2: invalid JSON"):
            load_detections(path)

    def test_invalid_utf8_beyond_the_first_block_and_after_a_fault(self, tmp_path):
        rows = [json.dumps(_det_row(frame=i)).encode("utf-8") for i in range(5000)]
        rows[4500] = rows[4500].replace(b'"m"', b'"\xc3("')
        path = tmp_path / "d.jsonl"
        path.write_bytes(b"\n".join(rows) + b"\n")
        with pytest.raises(ParseError, match="^line 4501: invalid UTF-8"):
            load_detections(path)
        rows[4321] = json.dumps(_det_row(w=0)).encode("utf-8")
        path.write_bytes(b"\n".join(rows) + b"\n")
        with pytest.raises(ValidationError, match="^line 4322: box sides must be positive"):
            load_detections(path)

    def test_missing_media_id(self, tmp_path):
        row = _det_row()
        del row["media_id"]
        assert self._error(tmp_path, json.dumps(row)) == "line 2: missing key 'media_id'"

    def test_frames_beyond_int64_and_integral_floats_load(self, tmp_path):
        rows = [_det_row(frame=2**70), _det_row(frame=3.0), _det_row(frame=3)]
        store = load_detections(write_jsonl(tmp_path / "d.jsonl", rows))
        assert store.frames() == (("m", 3), ("m", 2**70))
        assert [rec.frame for rec in store.at("m", 3)] == [3, 3]

    def test_corners_are_differenced_as_float64(self, tmp_path):
        # 2**60 + 1 and 2**60 + 3 both read as 2**60: a box of zero width, on both
        # the column path and the line-by-line path.
        path = write_jsonl(tmp_path / "d.jsonl", [_det_row(), _det_row(x=2**60 + 1, w=2**60 + 3)])
        with pytest.raises(ValidationError, match=r"^line 2: box sides must be positive, got w=0\.0,"):
            load_detections(path, box_format="xyxy")

    # Valid rows plus up to two edits each: faults, or values that are valid but
    # not plain (an integral float frame). "drop" deletes a key.
    _rows = st.lists(st.fixed_dictionaries(
        {"media_id": st.sampled_from(["m", "n"]), "frame": st.sampled_from([0, 1, 2**70]),
         "x": st.sampled_from([0, 1.5, 10]), "y": st.sampled_from([0, 2]),
         "w": st.sampled_from([1, 2.5, 20]), "h": st.sampled_from([1, 4]),
         "score": st.sampled_from([0, 0.5, 1])},
        optional={"dataset_tag": st.sampled_from(["a", None, 3, True])},
    ), min_size=1, max_size=6)
    _edits = st.lists(st.tuples(st.integers(0, 5), st.sampled_from([
        ("frame", -1), ("frame", 2.7), ("frame", "7"), ("frame", 3.0), ("frame", True),
        ("x", 10**400), ("x", 1e308), ("x", float("inf")), ("w", 0), ("h", float("nan")),
        ("y", None), ("y", "drop"), ("score", 1.5), ("score", "0.5"), ("score", False),
        ("score", "drop"), ("media_id", 5), ("media_id", "drop"),
    ])), max_size=2)

    @settings(max_examples=200, deadline=None)
    @given(rows=_rows, edits=_edits, box_format=st.sampled_from(["xywh", "xyxy"]))
    def test_column_check_agrees_with_line_by_line_reading(self, rows, edits, box_format):
        """The store, or the error, is the one a line-at-a-time read gives."""
        for i, (key, value) in edits:
            row = rows[i % len(rows)]
            if value == "drop":
                row.pop(key, None)
            else:
                row[key] = value
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.jsonl"
            path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
            self._check_against_line_reads(path, rows, box_format)

    def _check_against_line_reads(self, path, rows, box_format):
        try:
            records = [_annotation_record(DetectionStore, r, i + 1, box_format)
                       for i, r in enumerate(rows)]
        except BiomevalError as exc:
            with pytest.raises(type(exc)) as info:
                load_detections(path, box_format=box_format)
            assert str(info.value) == str(exc)
            return
        store = load_detections(path, box_format=box_format)
        assert store == DetectionStore(records)
        tags = {}
        for rec, row in zip(records, rows):
            tags.setdefault(rec.media_id, row.get("dataset_tag"))
        assert store.media_tags == tags


class TestAnnotationStore:
    def test_loaded_store_equals_records_store(self, tmp_path):
        rows = [
            {"media_id": "b", "frame": 1, "x": 0, "y": 0, "w": 2, "h": 2, "subject_id": "s1"},
            {"media_id": "a", "frame": 7, "x": 1.5, "y": 0, "w": 2, "h": 2, "subject_id": "s1"},
            {"media_id": "b", "frame": 1, "x": 3, "y": 0, "w": 2, "h": 2, "subject_id": "s0"},
        ]
        store = load_ground_truth(write_jsonl(tmp_path / "g.jsonl", rows))
        records = GroundTruthStore(store.records)
        assert store == records and list(store) == list(records.records)
        assert store.frames() == (("a", 7), ("b", 1))
        assert [rec.subject_id for rec in store.at("b", 1)] == ["s1", "s0"]
        assert store.offsets.tolist() == [0, 1, 3]
        assert store.boxes[0].tolist() == [1.5, 0.0, 3.0]
        assert not store.boxes[0].flags.writeable

    def test_pickled_store_is_equal_and_read_only(self, tmp_path):
        import pickle

        rows = [{"media_id": "m", "frame": f, "x": 0, "y": 0, "w": 1, "h": 1, "subject_id": f"s{f}"}
                for f in (2, 0, 1)]
        store = load_ground_truth(write_jsonl(tmp_path / "g.jsonl", rows))
        copy = pickle.loads(pickle.dumps(store, protocol=5))
        assert copy == store and copy.media_tags == store.media_tags
        assert copy.frames() == store.frames()
        for array in (copy.offsets, *copy.boxes, copy.labels):
            assert not array.flags.writeable

    def test_duplicate_ground_truth_message(self, tmp_path):
        rows = [{"media_id": "m", "frame": 2, "x": 0, "y": 0, "w": 1, "h": 1, "subject_id": "s"}] * 2
        with pytest.raises(ValidationError, match="^duplicate ground truth for media 'm' frame 2 subject 's'$"):
            load_ground_truth(write_jsonl(tmp_path / "g.jsonl", rows))


class TestEmbeddingFormats:
    def test_text_round_trip(self, tmp_path):
        rows = [{"media_id": f"m{i}", "vector": [0.5 * i, -1.25, 3.0]} for i in range(4)]
        path = write_jsonl(tmp_path / "e.jsonl", rows)
        store = load_embeddings(path, format="text")
        assert store.dim == 3 and len(store) == 4
        out = tmp_path / "e2.jsonl"
        write_embeddings(store, out, format="text")
        assert load_embeddings(out, format="text") == store

    def test_text_dimension_mismatch(self, tmp_path):
        rows = [
            {"media_id": "a", "vector": [1.0] * 512},
            {"media_id": "b", "vector": [1.0] * 511},
        ]
        path = write_jsonl(tmp_path / "e.jsonl", rows)
        with pytest.raises(ValidationError, match="dimension"):
            load_embeddings(path, format="text")

    def test_text_integer_components_widen_to_float(self, tmp_path):
        path = write_jsonl(tmp_path / "e.jsonl", [{"media_id": "a", "vector": [1, -2, 0.5]}])
        store = load_embeddings(path, format="text")
        assert store.matrix.tolist() == [[1.0, -2.0, 0.5]]

    def test_binary_header_contract(self, tmp_path):
        rng = np.random.default_rng(11)
        store = EmbeddingStore(
            [EmbeddingRecord(f"m{i}",
                             tuple(float(np.float32(v)) for v in rng.normal(size=512)))
             for i in range(3)]
        )
        path = tmp_path / "e.bemb"
        write_embeddings(store, path, format="binary")
        raw = path.read_bytes()
        assert raw[:4] == b"BEMB"
        version, dim = struct.unpack_from("<II", raw, 4)
        (count,) = struct.unpack_from("<Q", raw, 12)
        assert (version, dim, count) == (1, 512, 3)
        loaded = load_embeddings(path, format="binary")
        assert loaded.dim == 512 and len(loaded) == 3

    def test_binary_magic_mismatch(self, tmp_path):
        path = tmp_path / "bad.bemb"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            load_embeddings(path, format="binary")

    def test_binary_version_mismatch(self, tmp_path):
        path = tmp_path / "bad.bemb"
        path.write_bytes(b"BEMB" + struct.pack("<IIQ", 2, 4, 0))
        with pytest.raises(FormatError, match="version"):
            load_embeddings(path, format="binary")

    def test_binary_truncation(self, tmp_path):
        path = tmp_path / "bad.bemb"
        path.write_bytes(b"BEMB" + struct.pack("<IIQ", 1, 4, 1) + struct.pack("<I", 2) + b"m")
        with pytest.raises(FormatError, match="truncated"):
            load_embeddings(path, format="binary")

    def test_binary_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        records = [
            EmbeddingRecord(
                f"media/{i}", tuple(float(np.float32(v)) for v in rng.normal(size=17))
            )
            for i in range(20)
        ]
        first = tmp_path / "a.bemb"
        second = tmp_path / "b.bemb"
        write_embeddings(EmbeddingStore(records), first, format="binary")
        write_embeddings(load_embeddings(first, format="binary"), second, format="binary")
        assert first.read_bytes() == second.read_bytes()

    def test_sniff(self, tmp_path):
        text = write_jsonl(tmp_path / "e.jsonl", [{"media_id": "a", "vector": [1.0]}])
        binary = tmp_path / "e.bemb"
        write_embeddings(load_embeddings(text), binary, format="binary")
        assert sniff_embedding_format(text) == "text"
        assert sniff_embedding_format(binary) == "binary"


def bemb(records, dim, count=None, tail=b""):
    """Raw BEMB bytes for (id bytes, float32 values) records; count defaults to len(records)."""
    out = [b"BEMB", struct.pack("<IIQ", 1, dim, len(records) if count is None else count)]
    for media_id, values in records:
        out += [struct.pack("<I", len(media_id)), media_id, struct.pack(f"<{dim}f", *values)]
    return b"".join(out) + tail


class TestHostileBinary:
    def test_lying_count_fails_without_large_allocation(self, tmp_path):
        path = tmp_path / "lie.bemb"
        raw = bemb([(b"m", [1.0, 2.0])], dim=2, count=2**40)
        path.write_bytes(raw + b"\x00" * (40 - len(raw)))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="truncated file while reading record 1"):
                load_embeddings(path, format="binary")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_lying_dim_is_truncation(self, tmp_path):
        path = tmp_path / "lie.bemb"
        path.write_bytes(b"BEMB" + struct.pack("<IIQ", 1, 2**32 - 1, 1)
                         + struct.pack("<I", 1) + b"m")
        with pytest.raises(FormatError, match="truncated file while reading record 0 vector"):
            load_embeddings(path, format="binary")

    def test_invalid_utf8_id_names_record(self, tmp_path):
        path = tmp_path / "bad.bemb"
        path.write_bytes(bemb([(b"ok", [1.0]), (b"\xff\xfe", [2.0])], dim=1))
        with pytest.raises(FormatError, match="record 1: media id is not valid UTF-8"):
            load_embeddings(path, format="binary")

    def test_nan_names_record(self, tmp_path):
        path = tmp_path / "nan.bemb"
        records = [(b"a", [1.0, 0.0]), (b"b", [0.0, 1.0]), (b"c", [float("nan"), 1.0])]
        path.write_bytes(bemb(records, dim=2))
        with pytest.raises(ValidationError, match="record 2: embedding for 'c' has non-finite"):
            load_embeddings(path, format="binary")

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "tail.bemb"
        path.write_bytes(bemb([(b"a", [1.0])], dim=1, tail=b"\x00"))
        with pytest.raises(FormatError, match="trailing bytes after 1 declared records"):
            load_embeddings(path, format="binary")

    def test_structural_error_precedes_earlier_non_finite_value(self, tmp_path):
        path = tmp_path / "both.bemb"
        path.write_bytes(bemb([(b"a", [float("inf")])], dim=1, tail=b"\x00"))
        with pytest.raises(FormatError, match="trailing bytes"):
            load_embeddings(path, format="binary")

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "dup.bemb"
        path.write_bytes(bemb([(b"a", [1.0]), (b"b", [2.0]), (b"a", [3.0])], dim=1))
        with pytest.raises(ValidationError, match=r"duplicate embedding media ids: \['a'\]"):
            load_embeddings(path, format="binary")

    def test_load_matches_struct_decoding(self, tmp_path):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(5, 7)).astype(np.float32)
        records = [("é" * i).encode("utf-8") for i in range(5)]
        path = tmp_path / "e.bemb"
        path.write_bytes(bemb(list(zip(records, values.tolist())), dim=7))
        store = load_embeddings(path, format="binary")
        assert store.media_ids == tuple(r.decode("utf-8") for r in records)
        assert store.matrix.dtype == np.float64
        assert np.array_equal(store.matrix, values.astype(np.float64))
        assert not store.matrix.flags.writeable

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 64).flatmap(
            lambda dim: st.lists(
                st.tuples(
                    st.text(max_size=6),
                    st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False),
                             min_size=dim, max_size=dim),
                ),
                max_size=50,
                unique_by=lambda record: record[0],
            ).map(lambda records: (dim, records))
        )
    )
    def test_write_read_write_is_a_fixed_point(self, tmp_path_factory, case):
        dim, records = case
        directory = tmp_path_factory.mktemp("rt")
        first, second = directory / "a.bemb", directory / "b.bemb"
        first.write_bytes(bemb([(m.encode("utf-8"), v) for m, v in records], dim=dim))
        store = load_embeddings(first, format="binary")
        assert store.media_ids == tuple(m for m, _ in records)
        write_embeddings(store, second, format="binary")
        assert second.read_bytes() == first.read_bytes()


def test_binary_load_memory_stays_near_file_size(tmp_path):
    """Load peak stays under 4x the file: read buffer (1x) plus the float64 matrix (2x)."""
    rng = np.random.default_rng(8)
    count, dim = 2000, 512
    matrix = rng.normal(size=(count, dim)).astype(np.float32).astype(np.float64)
    path = tmp_path / "big.bemb"
    write_embeddings(EmbeddingStore.from_matrix([f"media/{i}" for i in range(count)], matrix),
                     path, format="binary")
    size = path.stat().st_size
    assert size > 4_000_000
    tracemalloc.start()
    try:
        store = load_embeddings(path, format="binary")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(store.matrix, matrix)
    assert peak < 4 * size, f"peak {peak} bytes is {peak / size:.1f}x the {size}-byte file"


class TestProtocolAndMedia:
    def test_protocol_round_trip(self, tmp_path, toy_protocol_files):
        _, protocol_path = toy_protocol_files
        manifest = load_protocol(protocol_path)
        assert manifest.subject_ids == ("g1", "g2", "g3")
        assert manifest.distractor_count == 1
        assert [p.probe_id for p in manifest.mate_probes()] == ["p1", "p2"]

    def test_protocol_missing_keys(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"gallery": []}), encoding="utf-8")
        with pytest.raises(ParseError, match="^protocol is missing key 'probes'$"):
            load_protocol(path)

    @pytest.mark.parametrize("protocol, expected", [
        ('{"gallery": [', "invalid JSON (Expecting value) at line 1 column 14"),
        ('{"gallery": [],\n "probes": [{"probe_id": "p"', "invalid JSON (Expecting ',' delimiter) at line 2 column 29"),
        ("[]", "protocol must be a JSON object, got []"),
        ('{"gallery": {}, "probes": []}', "protocol.gallery must be a list, got {}"),
        ('{"gallery": [], "probes": ["p1"]}', "probes[0] must be a JSON object, got 'p1'"),
        ('{"gallery": [{"media_ids": ["m"]}], "probes": []}', "gallery[0] is missing key 'subject_id'"),
        ('{"gallery": [{"subject_id": "s", "media_ids": []}], "probes": []}',
         "gallery[0].media_ids must be a non-empty list of strings, got []"),
        ('{"gallery": [{"subject_id": "s", "media_ids": ["m", 2]}], "probes": []}',
         "gallery[0].media_ids must be a non-empty list of strings, got ['m', 2]"),
        ('{"gallery": [{"subject_id": "s", "media_ids": ["m"], "distractor": 0}], "probes": []}',
         "gallery[0].distractor must be true or false, got 0"),
        ('{"gallery": [], "probes": [{"probe_id": 1, "media_id": "m"}]}',
         "probes[0].probe_id must be a string, got 1"),
        ('{"gallery": [], "probes": [{"probe_id": "p", "media_id": ["m"]}]}',
         "probes[0].media_id must be a string, got ['m']"),
    ], ids=["truncated", "second-line", "array", "gallery-object", "probe-string", "no-subject",
            "no-media", "media-number", "distractor-zero", "probe-id-number", "media-id-list"])
    def test_protocol_faults_name_their_entry(self, tmp_path, protocol, expected):
        path = tmp_path / "p.json"
        path.write_text(protocol, encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load_protocol(path)
        assert str(info.value) == expected

    _ids = st.text(min_size=1, max_size=6)  # any Unicode but lone surrogates

    @settings(max_examples=100, deadline=None)
    @given(gallery=st.lists(st.tuples(_ids, st.lists(_ids, min_size=1, max_size=3),
                                      st.sampled_from([True, False, None])),
                            max_size=5, unique_by=lambda entry: entry[0]),
           probes=st.lists(st.tuples(_ids, _ids, st.one_of(st.none(), _ids, st.integers(0, 4))),
                           max_size=5, unique_by=lambda entry: entry[0]))
    def test_protocol_dumped_as_json_loads_back_equal(self, gallery, probes):
        """A None distractor leaves the key out, which reads as false; an integer
        true subject names a gallery subject, so some probes are mates."""
        doc = {
            "gallery": [dict({"subject_id": subject, "media_ids": media},
                             **({} if flag is None else {"distractor": flag}))
                        for subject, media, flag in gallery],
            "probes": [],
        }
        distractors = {subject for subject, _, flag in gallery if flag}
        for probe_id, media, subject in probes:
            if isinstance(subject, int):
                subject = gallery[subject % len(gallery)][0] if gallery else None
            if subject in distractors:
                subject = None
            doc["probes"].append({"probe_id": probe_id, "media_id": media, "true_subject_id": subject})
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.json"
            path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
            manifest = load_protocol(path)
        assert [(e.subject_id, list(e.media_ids), e.distractor) for e in manifest.gallery] == [
            (e["subject_id"], e["media_ids"], e.get("distractor", False)) for e in doc["gallery"]
        ]
        assert [(p.probe_id, p.media_id, p.true_subject_id) for p in manifest.probes] == [
            (p["probe_id"], p["media_id"], p["true_subject_id"]) for p in doc["probes"]
        ]

    def test_large_protocol_loads_in_bounded_memory(self, tmp_path):
        doc = {
            "gallery": [{"subject_id": f"s{i}", "media_ids": [f"g{i}a", f"g{i}b"],
                         "distractor": i % 3 == 0} for i in range(1000)],
            "probes": [{"probe_id": f"p{i}", "media_id": f"m{i}",
                        "true_subject_id": None if i % 2 else f"s{i % 1000 // 3 * 3 + 1}"}
                       for i in range(100_000)],
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        del doc
        tracemalloc.start()
        try:
            manifest = load_protocol(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(manifest.probes) == 100_000 and manifest.distractor_count == 334
        assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_media_index_load(self, tmp_path):
        rows = [
            {"media_id": "m1", "subject_id": "s1", "dataset_tag": "alpha",
             "modality": "video", "frame_count": 900},
            {"media_id": "m2", "subject_id": "s1", "dataset_tag": "alpha",
             "modality": "image", "frame_count": 1},
        ]
        index = load_media_index(write_jsonl(tmp_path / "m.jsonl", rows))
        assert len(index) == 2
        assert index.get("m1").frame_count == 900

    def test_media_index_invalid_line(self, tmp_path):
        rows = [{"media_id": "m1", "subject_id": "s1", "dataset_tag": "alpha",
                 "modality": "image", "frame_count": 3}]
        with pytest.raises(ValidationError, match="line 1"):
            load_media_index(write_jsonl(tmp_path / "m.jsonl", rows))
