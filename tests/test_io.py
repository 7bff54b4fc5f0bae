import json
import struct
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biomeval import (
    BiomevalError,
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
from biomeval import io as biomeval_io
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

    def test_value_too_deep_to_repr_still_names_its_line(self):
        """A value the parser accepts can still be nested too deep for repr."""
        value = []
        for _ in range(100_000):
            value = [value]
        with pytest.raises(ParseError) as info:
            _annotation_record(DetectionStore, _det_row(x=value), 2, "xywh")
        assert str(info.value) == "line 2: key 'x' must be a number, got a value nested too deep to show"

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
        # Lines are decoded and parsed in order, so line 2's JSON fault comes
        # before line 4's byte.
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
        assert store.frames == (2**70, 3, 3) and {type(f) for f in store.frames} == {int}

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

    @settings(max_examples=100, deadline=None)
    @given(rows=_rows, edits=_edits, box_format=st.sampled_from(["xywh", "xyxy"]))
    def test_two_line_blocks_agree_with_line_by_line_reading(self, rows, edits, box_format):
        """The same files read two lines at a time: a fault's block and the
        blocks around it change nothing."""
        for i, (key, value) in edits:
            row = rows[i % len(rows)]
            if value == "drop":
                row.pop(key, None)
            else:
                row[key] = value
        with tempfile.TemporaryDirectory() as tmp, patch.object(biomeval_io, "_BLOCK_LINES", 2):
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
        tags = {}
        for rec, row in zip(records, rows):
            tags.setdefault(rec.media_id, row.get("dataset_tag"))
        assert store == DetectionStore.from_records(records, tags)
        assert store.media_tags == tags


def _gt_row(**fields):
    return dict({"media_id": "m", "frame": 0, "x": 0, "y": 0, "w": 1, "h": 1, "subject_id": "s"},
                **fields)


def _write_lines(path, rows):
    """rows as JSON lines; a str row is written as it is."""
    path.write_text("".join((r if isinstance(r, str) else json.dumps(r)) + "\n" for r in rows),
                    encoding="utf-8")
    return path


class TestBlockReader:
    """Annotation files are read _BLOCK_LINES lines at a time; here a block is 3 lines."""

    @pytest.fixture(autouse=True)
    def _three_line_blocks(self, monkeypatch):
        monkeypatch.setattr(biomeval_io, "_BLOCK_LINES", 3)

    _LOADERS = {
        "detections": (load_detections, lambda i, **f: _det_row(frame=i, **f), "score"),
        "ground-truth": (load_ground_truth, lambda i, **f: _gt_row(frame=i, **f), "subject_id"),
    }

    @pytest.mark.parametrize("type_line, json_line, expected", [
        (2, 7, "line 2: key 'x' must be a number, got '1'"),
        (7, 2, "line 2: invalid JSON"),
        (7, 8, "line 7: key 'x' must be a number, got '1'"),
    ], ids=["type-in-block-1", "json-in-block-1", "type-then-json-in-block-3"])
    @pytest.mark.parametrize("kind", _LOADERS)
    def test_first_faulty_line_wins_across_blocks(self, tmp_path, kind, type_line, json_line,
                                                  expected):
        load, row, _ = self._LOADERS[kind]
        rows = [row(i) for i in range(9)]
        rows[type_line - 1] = row(type_line - 1, x="1")
        rows[json_line - 1] = "not json"
        with pytest.raises(ParseError) as info:
            load(_write_lines(tmp_path / "a.jsonl", rows))
        assert str(info.value).startswith(expected)

    @pytest.mark.parametrize("kind", _LOADERS)
    def test_fault_only_in_a_later_block(self, tmp_path, kind):
        load, row, label = self._LOADERS[kind]
        rows = [row(i) for i in range(9)]
        rows[7] = row(7, w=-1, h=1)
        with pytest.raises(ValidationError) as info:
            load(_write_lines(tmp_path / "a.jsonl", rows))
        assert str(info.value) == "line 8: box sides must be positive, got w=-1, h=1"
        rows[7] = row(7)
        del rows[8][label]
        with pytest.raises(ParseError) as info:
            load(_write_lines(tmp_path / "b.jsonl", rows))
        assert str(info.value) == f"line 9: missing key {label!r}"

    @pytest.mark.parametrize("count", [1, 3, 7, 9])
    @pytest.mark.parametrize("kind", _LOADERS)
    def test_blocks_build_the_one_block_store(self, tmp_path, monkeypatch, kind, count):
        load, row, _ = self._LOADERS[kind]
        rows = [row(i % 4, media_id=f"m{i % 3}", x=i, dataset_tag=None if i % 2 else f"t{i % 3}")
                for i in range(count)]
        rows.insert(count // 2, "")  # a blank line
        path = _write_lines(tmp_path / "a.jsonl", rows)
        blocks = load(path)
        monkeypatch.setattr(biomeval_io, "_BLOCK_LINES", 4096)
        whole = load(path)
        assert blocks == whole and len(blocks) == count
        assert blocks.media_tags == whole.media_tags
        assert blocks.media_ids == whole.media_ids and blocks.frames == whole.frames
        assert all(np.array_equal(a, b) for a, b in zip(blocks.boxes, whole.boxes))
        assert np.array_equal(blocks.labels, whole.labels)

    @pytest.mark.parametrize("kind, faulty_line, edit, expected", [
        ("detections", 2, lambda row: dict(row, score=2), "line 2: score must lie in [0, 1], got 2"),
        ("ground-truth", 5, lambda row: "not json", "line 5: invalid JSON (Expecting value)"),
    ], ids=["rule-fault", "json-fault"])
    def test_faulty_file_is_read_once_up_to_its_faulty_block(self, tmp_path, monkeypatch, kind,
                                                              faulty_line, edit, expected):
        """One open, and no line parsed past the faulty line's block; only that
        block's lines are parsed again, from the raw lines in hand."""
        load, row, _ = self._LOADERS[kind]
        rows = [row(i) for i in range(1000)]
        rows[faulty_line - 1] = edit(rows[faulty_line - 1])
        path = _write_lines(tmp_path / "a.jsonl", rows)
        opened, parsed = [], []
        real_object = biomeval_io._jsonl_object
        monkeypatch.setattr(biomeval_io, "open", lambda *a, **k: opened.append(a[0]) or open(*a, **k),
                            raising=False)
        monkeypatch.setattr(biomeval_io, "_jsonl_object",
                            lambda line, lineno: parsed.append(lineno) or real_object(line, lineno))
        with pytest.raises(BiomevalError) as info:
            load(path)
        assert str(info.value) == expected
        assert opened == [path]
        block_end = -(-faulty_line // 3) * 3
        assert max(parsed) <= block_end and len(parsed) <= block_end + 3

    @pytest.mark.parametrize("type_line, json_line, expected", [
        (2, 7, "line 2: key 'vector[0]' must be a number, got '1'"),
        (7, 2, "line 2: invalid JSON"),
        (7, 8, "line 7: key 'vector[0]' must be a number, got '1'"),
    ], ids=["type-first", "json-first", "type-then-json"])
    def test_text_embeddings_first_faulty_line_wins(self, tmp_path, type_line, json_line, expected):
        """Text embeddings are checked and written a line at a time."""
        rows = [{"media_id": f"m{i}", "vector": [float(i), 1.0]} for i in range(9)]
        rows[type_line - 1]["vector"][0] = "1"
        rows[json_line - 1] = "not json"
        with pytest.raises(ParseError) as info:
            load_embeddings(_write_lines(tmp_path / "a.jsonl", rows), format="text")
        assert str(info.value).startswith(expected)

    def test_text_embeddings_fault_only_on_a_later_line(self, tmp_path):
        rows = [{"media_id": f"m{i}", "vector": [float(i), 1.0]} for i in range(9)]
        rows[7]["vector"][1] = float("nan")
        with pytest.raises(ValidationError) as info:
            load_embeddings(_write_lines(tmp_path / "a.jsonl", rows), format="text")
        assert str(info.value) == "line 8: embedding for 'm7' has non-finite components"

    def test_text_embeddings_rows_equal_the_vectors(self, tmp_path):
        rng = np.random.default_rng(4)
        matrix = rng.normal(size=(9, 5))
        rows = [{"media_id": f"m{i}", "vector": row} for i, row in enumerate(matrix.tolist())]
        rows[2]["vector"][0] = 3  # an integer widens to 3.0
        matrix[2, 0] = 3.0
        store = load_embeddings(_write_lines(tmp_path / "a.jsonl", rows), format="text")
        assert store == EmbeddingStore([f"m{i}" for i in range(9)], matrix)
        assert store.matrix.flags.c_contiguous and not store.matrix.flags.writeable

    def test_detection_load_memory_is_bounded_per_line(self, tmp_path):
        """Long ids and tags are held once per distinct string, and a block's
        lines, not the file's, are held as Python objects: about 390 bytes a
        line here, against 520 when every line's fields were kept to the end."""
        count = 20_000
        rng = np.random.default_rng(3)
        path = tmp_path / "d.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for i, (x, y, score) in enumerate(zip(*np.round(rng.uniform(0, 1, (3, count)), 4).tolist())):
                fh.write(json.dumps({
                    "media_id": f"briar/bgc2/field/0500m/clip-{i // 500:05d}/camera-2",
                    "frame": i // 10 % 50, "x": 1000 * x, "y": 500 * y, "w": 40.5, "h": 90.25,
                    "score": score, "dataset_tag": f"briar-bgc2-field-{i // 5000}"}) + "\n")
        tracemalloc.start()
        try:
            store = load_detections(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(store) == count
        assert peak < 450 * count, f"peak {peak / count:.0f} bytes a line"

    def test_store_build_memory_is_bounded_with_one_frame_per_line(self, tmp_path):
        """A store holds its rows in file order and builds no frame index: about 390
        bytes a line here, against 480 when each store sorted its rows by frame."""
        count = 20_000
        rng = np.random.default_rng(5)
        path = tmp_path / "d.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for i, (x, y, score) in enumerate(zip(*np.round(rng.uniform(0, 1, (3, count)), 4).tolist())):
                fh.write(json.dumps({
                    "media_id": f"briar/bgc2/field/0500m/clip-{i // 500:05d}/camera-2",
                    "frame": i, "x": 1000 * x, "y": 500 * y, "w": 40.5, "h": 90.25,
                    "score": score, "dataset_tag": f"briar-bgc2-field-{i // 5000}"}) + "\n")
        tracemalloc.start()
        try:
            store = load_detections(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(store) == count and store.frames == tuple(range(count))
        assert peak < 430 * count, f"peak {peak / count:.0f} bytes a line"

    def test_text_embedding_load_memory_stays_near_the_matrix(self, tmp_path):
        """About 1.2x the float64 matrix here, against 5.3x when every line's
        vector was kept as Python floats to the end."""
        rng = np.random.default_rng(3)
        matrix = rng.normal(size=(2000, 128))
        path = _write_lines(tmp_path / "e.jsonl", [{"media_id": f"m{i}", "vector": row}
                                                    for i, row in enumerate(matrix.tolist())])
        tracemalloc.start()
        try:
            store = load_embeddings(path, format="text")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(store.matrix, matrix)
        assert peak < 3 * matrix.nbytes, f"peak {peak / matrix.nbytes:.1f}x the matrix"


class TestAnnotationStore:
    def test_loaded_store_equals_records_store(self, tmp_path):
        rows = [
            {"media_id": "b", "frame": 1, "x": 0, "y": 0, "w": 2, "h": 2, "subject_id": "s1"},
            {"media_id": "a", "frame": 7, "x": 1.5, "y": 0, "w": 2, "h": 2, "subject_id": "s1"},
            {"media_id": "b", "frame": 1, "x": 3, "y": 0, "w": 2, "h": 2, "subject_id": "s0"},
        ]
        store = load_ground_truth(write_jsonl(tmp_path / "g.jsonl", rows))
        records = GroundTruthStore.from_records(store.records)
        assert store == records and list(store) == list(records.records)
        assert store.media_ids == ("b", "a", "b") and store.frames == (1, 7, 1)
        assert store.labels.tolist() == ["s1", "s1", "s0"]
        assert store.boxes[0].tolist() == [0.0, 1.5, 3.0]
        assert not store.boxes[0].flags.writeable

    @pytest.mark.parametrize("load, row, store_type", [
        (load_detections, _det_row, DetectionStore),
        (load_ground_truth, lambda **f: _gt_row(subject_id=f"s{f['x']}", **f), GroundTruthStore),
    ], ids=["detections", "ground-truth"])
    def test_records_keep_file_order(self, tmp_path, load, row, store_type):
        keys = [("b", 2), ("a", 1), ("b", 2), ("a", 0), ("a", 1), ("b", 2**70)]
        rows = [row(media_id=m, frame=f, x=i) for i, (m, f) in enumerate(keys)]
        store = load(write_jsonl(tmp_path / "a.jsonl", rows))
        assert [(rec.media_id, rec.frame, rec.box.x) for rec in store.records] == [
            (m, f, i) for i, (m, f) in enumerate(keys)]
        assert list(zip(store.media_ids, store.frames)) == keys
        assert store.boxes[0].tolist() == list(range(len(keys)))
        assert store_type.from_records(store.records) == store

    def test_pickled_store_is_equal_and_read_only(self, tmp_path):
        import pickle

        rows = [{"media_id": "m", "frame": f, "x": 0, "y": 0, "w": 1, "h": 1, "subject_id": f"s{f}"}
                for f in (2, 0, 1)]
        store = load_ground_truth(write_jsonl(tmp_path / "g.jsonl", rows))
        copy = pickle.loads(pickle.dumps(store, protocol=5))
        assert copy == store and copy.media_tags == store.media_tags
        assert copy.frames == store.frames
        for array in (copy.boxes, copy.labels):
            assert not array.flags.writeable

    def test_stores_that_differ_only_in_a_tag_are_not_equal(self):
        """evaluate_detections groups by the tags, so equality compares them too."""
        def store(tag):
            return DetectionStore(["m"], [0], np.ones((4, 1)), [0.5], media_tags={"m": tag})

        assert store("a") != store("b") and store("a") != store(None)
        assert store("a") == store("a") and store(None) == DetectionStore(["m"], [0], np.ones((4, 1)), [0.5])
        assert DetectionStore.from_records(store("a").records, store("a").media_tags) == store("a")

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

    _A = '{"media_id": "a", "vector": [1.0, 2.0]}'

    @pytest.mark.parametrize("lines, expected", [
        ([_A, '{"media_id": "b", "vector": [1.0]}'],
         "line 2: embedding dimension 1 differs from line 1's 2"),
        (["", _A, "", '{"media_id": "b", "vector": [1.0, 2.0, 3.0]}'],
         "line 4: embedding dimension 3 differs from line 2's 2"),
        ([_A, "", '{"media_id": "b", "vector": [NaN, 1.0]}'],
         "line 3: embedding for 'b' has non-finite components"),
        ([_A, '{"media_id": "b", "vector": [1e400, 1.0]}'],
         "line 2: embedding for 'b' has non-finite components"),
        ([_A, '{"media_id": "b", "vector": []}'], "line 2: embedding for 'b' is empty"),
        (['{"media_id": "a", "vector": [NaN, 2.0]}', '{"media_id": "b", "vector": [1.0]}'],
         "line 1: embedding for 'a' has non-finite components"),
        ([_A, '{"media_id": "b", "vector": [1.0]}', '{"media_id": 3, "vector": [1.0, 2.0]}'],
         "line 2: embedding dimension 1 differs from line 1's 2"),
        (['{"media_id": "a", "vector": "x"}'], "line 1: key 'vector' must be an array of numbers"),
    ], ids=["ragged", "ragged-after-blank-lines", "nan-after-blank", "overflow", "empty",
            "first-line-nan-beats-ragged", "ragged-beats-later-type-fault", "vector-not-an-array"])
    def test_text_fault_names_the_first_faulty_line(self, tmp_path, lines, expected):
        path = tmp_path / "e.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(BiomevalError) as info:
            load_embeddings(path, format="text")
        assert str(info.value) == expected

    def test_blank_text_file_is_an_empty_store(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text("\n  \n\n", encoding="utf-8")
        store = load_embeddings(path, format="text")
        assert len(store) == 0 and store.matrix.shape == (0, 0)

    def test_unknown_format_names_the_choices(self, tmp_path):
        path = write_jsonl(tmp_path / "e.jsonl", [{"media_id": "a", "vector": [1.0]}])
        message = "^format must be one of \\('text', 'binary'\\), got 'csv'$"
        with pytest.raises(ValidationError, match=message):
            load_embeddings(path, format="csv")
        with pytest.raises(ValidationError, match=message):
            write_embeddings(load_embeddings(path), tmp_path / "e.csv", format="csv")

    def test_binary_write_names_the_first_overflowing_record(self, tmp_path):
        """A component beyond float32 fails by its record, with no numpy warning."""
        path = tmp_path / "e.bemb"
        store = EmbeddingStore(["a", "b", "c"], np.array([[1.0, 2.0], [1e300, 2.0], [2.0, -1e39]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError,
                               match="^record 1: vector for 'b' overflows the 32-bit float range$"):
                write_embeddings(store, path, format="binary")
        assert not path.exists()

    def test_format_is_sniffed_when_not_given(self, tmp_path):
        text = write_jsonl(tmp_path / "e.jsonl", [{"media_id": "a", "vector": [0.5, -1.0]}])
        binary = tmp_path / "e.bemb"
        write_embeddings(load_embeddings(text), binary, format="binary")
        assert load_embeddings(binary) == load_embeddings(text)

    def test_binary_header_contract(self, tmp_path):
        rng = np.random.default_rng(11)
        store = EmbeddingStore([f"m{i}" for i in range(3)],
                               rng.normal(size=(3, 512)).astype(np.float32))
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

    @pytest.mark.parametrize("raw, message", [
        (b"BEMB\x01\x00", "truncated file while reading header"),
        (b"BEMB" + struct.pack("<IIQ", 1, 0, 2), "header declares zero dimension for a non-empty store"),
        (b"BEMB" + struct.pack("<IIQ", 1, 2, 1) + b"\x00\x00",
         "truncated file while reading record 0 id length"),
    ], ids=["short-header", "zero-dim", "short-id-length"])
    def test_binary_structure_faults(self, tmp_path, raw, message):
        path = tmp_path / "bad.bemb"
        path.write_bytes(raw)
        with pytest.raises(FormatError) as info:
            load_embeddings(path, format="binary")
        assert str(info.value) == message

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
        store = EmbeddingStore([f"media/{i}" for i in range(20)],
                               rng.normal(size=(20, 17)).astype(np.float32))
        first = tmp_path / "a.bemb"
        second = tmp_path / "b.bemb"
        write_embeddings(store, first, format="binary")
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
        assert store.matrix.dtype == np.float32
        assert store.matrix.tobytes() == values.tobytes()
        assert not store.matrix.flags.writeable

    def test_vectors_at_every_byte_alignment_match_struct_decoding(self, tmp_path):
        """Ids of 0 to 7 UTF-8 bytes put the vectors at every offset modulo 4."""
        ids = ["", "a", "é", "€", "\U0001f600", "a\U0001f600", "é\U0001f600", "€\U0001f600"]
        assert sorted(len(m.encode("utf-8")) for m in ids) == list(range(8))
        rng = np.random.default_rng(11)
        values = rng.normal(size=(len(ids), 3)).astype(np.float32)
        values[0, 0] = -0.0
        raw = bemb([(m.encode("utf-8"), v) for m, v in zip(ids, values.tolist())], dim=3)
        path = tmp_path / "aligned.bemb"
        path.write_bytes(raw)
        store = load_embeddings(path, format="binary")
        assert store.media_ids == tuple(ids)
        pos, want, alignments = len(bemb([], dim=3)), [], set()
        for media_id in ids:
            pos += 4 + len(media_id.encode("utf-8"))
            want.append(struct.unpack_from("<3f", raw, pos))
            alignments.add(pos % 4)
            pos += 12
        assert alignments == {0, 1, 2, 3}
        assert store.matrix.dtype == np.float32
        assert store.matrix.tobytes() == np.array(want, dtype="<f4").tobytes()
        assert store.rows(ids).tobytes() == np.array(want, dtype=np.float64).tobytes()

    def test_empty_file_keeps_its_dim(self, tmp_path):
        path = tmp_path / "empty.bemb"
        path.write_bytes(bemb([], dim=9))
        store = load_embeddings(path, format="binary")
        assert len(store) == 0 and store.dim == 9 and store.matrix.shape == (0, 9)

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
    write_embeddings(EmbeddingStore([f"media/{i}" for i in range(count)], matrix),
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


def test_binary_load_peak_is_the_file_and_one_float32_copy(tmp_path):
    """About 2.2x the file: the bytes read, the float32 vectors gathered from them and one
    block of the finiteness check's booleans, against 3.3x when each vector was widened
    into float64."""
    rng = np.random.default_rng(8)
    count, dim = 2000, 512
    matrix = rng.normal(size=(count, dim)).astype(np.float32)
    path = tmp_path / "big.bemb"
    write_embeddings(EmbeddingStore([f"media/{i}" for i in range(count)], matrix),
                     path, format="binary")
    size = path.stat().st_size
    tracemalloc.start()
    try:
        store = load_embeddings(path, format="binary")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.25 * size, f"peak {peak} bytes is {peak / size:.2f}x the {size}-byte file"
    assert store.matrix.tobytes() == matrix.tobytes()


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

    def test_repeated_medium_in_a_gallery_entry(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"gallery": [{"subject_id": "s", "media_ids": ["a1", "a1", "a2"]}], '
                        '"probes": []}', encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load_protocol(path)
        assert str(info.value) == ("gallery[0].media_ids must be a non-empty list of distinct "
                                   "strings, got ['a1', 'a1', 'a2']")

    def test_invalid_utf8_names_its_line_and_byte(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_bytes(b'{\n "gallery": [],\n "probes": [\n    {"probe_id": "p\xff", '
                         b'"media_id": "m"}\n ]\n}\n')
        with pytest.raises(ParseError) as info:
            load_protocol(path)
        assert str(info.value) == "line 4: invalid UTF-8 (invalid start byte: 0xff at byte 20 of the line)"
        path.write_bytes(b'{"gallery": [], "probes": [{"probe_id": "\xc3(", "media_id": "m"}]}')
        with pytest.raises(ParseError) as info:
            load_protocol(path)
        assert str(info.value) == ("line 1: invalid UTF-8 (invalid continuation byte: 0xc3 "
                                   "at byte 42 of the line)")

    @pytest.mark.parametrize("protocol, expected", [
        ('{"gallery": [\n', "invalid JSON (Expecting value) at line 2 column 1"),
        ('{"gallery": [],\n "probes": [{"probe_id": "p"', "invalid JSON (Expecting ',' delimiter) at line 2 column 29"),
        ('{\n "gallery": [],\n "probes": []\n}\n}\n', "invalid JSON (Extra data) at line 5 column 1"),
        ('{\n "gallery": [],\n "probes": [1 2]}', "invalid JSON (Expecting ',' delimiter) at line 3 column 15"),
        ('{\n "gallery": [],\n  "probes": "p\n"}', "invalid JSON (Invalid control character at) at line 3 column 15"),
    ], ids=["truncated", "second-line", "extra-data", "missing-comma", "newline-in-string"])
    def test_json_fault_position_is_the_same_with_crlf_line_ends(self, tmp_path, protocol, expected):
        path = tmp_path / "p.json"
        for newline in ("\n", "\r\n"):
            path.write_bytes(protocol.replace("\n", newline).encode("utf-8"))
            with pytest.raises(ParseError) as info:
                load_protocol(path)
            assert str(info.value) == expected, repr(newline)

    _ids = st.text(min_size=1, max_size=6)  # any Unicode but lone surrogates

    @settings(max_examples=100, deadline=None)
    @given(gallery=st.lists(st.tuples(_ids, st.lists(_ids, min_size=1, max_size=3, unique=True),
                                      st.sampled_from([True, False, None])),
                            max_size=5, unique_by=lambda entry: entry[0]),
           probes=st.lists(st.tuples(_ids, _ids, st.one_of(st.none(), _ids, st.integers(0, 4))),
                           max_size=5, unique_by=lambda entry: entry[0]))
    def test_protocol_dumped_as_json_loads_back_equal(self, gallery, probes):
        """A None distractor leaves the key out, which reads as false; an integer
        true subject names a gallery subject, so some probes are mates. Gallery
        and probe media ids get distinct prefixes, as no probe may use a gallery medium,
        and each gallery entry's prefix names it, as no medium has two subjects."""
        doc = {
            "gallery": [dict({"subject_id": subject, "media_ids": [f"g{k}/{m}" for m in media]},
                             **({} if flag is None else {"distractor": flag}))
                        for k, (subject, media, flag) in enumerate(gallery)],
            "probes": [],
        }
        distractors = {subject for subject, _, flag in gallery if flag}
        for probe_id, media, subject in probes:
            if isinstance(subject, int):
                subject = gallery[subject % len(gallery)][0] if gallery else None
            if subject in distractors:
                subject = None
            doc["probes"].append({"probe_id": probe_id, "media_id": f"p{media}",
                                  "true_subject_id": subject})
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

    @pytest.mark.parametrize("load, good", [
        (load_detections, _det_row()),
        (load_ground_truth, _gt_row()),
        (load_media_index, {"media_id": "m1", "subject_id": "s1", "dataset_tag": "alpha",
                            "modality": "image", "frame_count": 1}),
    ], ids=["detections", "ground-truth", "media-index"])
    def test_line_that_is_not_an_object(self, tmp_path, load, good):
        path = _write_lines(tmp_path / "a.jsonl", [good, "[1]"])
        with pytest.raises(ParseError) as info:
            load(path)
        assert str(info.value) == "line 2: expected a JSON object"

    def test_unknown_box_format_names_the_choices(self, tmp_path):
        path = write_jsonl(tmp_path / "d.jsonl", [_det_row()])
        with pytest.raises(ValidationError,
                           match="^box_format must be one of \\('xywh', 'xyxy'\\), got 'xywhz'$"):
            load_detections(path, box_format="xywhz")

    def test_media_index_invalid_line(self, tmp_path):
        rows = [{"media_id": "m1", "subject_id": "s1", "dataset_tag": "alpha",
                 "modality": "image", "frame_count": 3}]
        with pytest.raises(ValidationError, match="line 1"):
            load_media_index(write_jsonl(tmp_path / "m.jsonl", rows))
