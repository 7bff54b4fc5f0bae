"""File parsing and serialization.

Formats:
  - detections / ground truth: JSON lines, one object per line
  - embeddings: JSON lines (text) or the "BEMB" little-endian binary layout
  - protocol manifest and media index: JSON documents / JSON lines

Every field is read by one rule (_field): ids and tags are JSON strings, and a
value of another JSON type is an error that names its line or protocol entry.
"""

from __future__ import annotations

import json
import struct
import sys
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import FormatError, ParseError, ValidationError, brief, json_error
from .records import (
    BoundingBox,
    EmbeddingRecord,
    GalleryEntry,
    MediaRecord,
    ProbeEntry,
    ProtocolManifest,
)
from . import stores as _stores
from .stores import DetectionStore, EmbeddingStore, GroundTruthStore, MediaIndex

BINARY_MAGIC = b"BEMB"
BINARY_VERSION = 1
# magic, version, dim, count; then per record: id length, UTF-8 id, dim float32s.
_HEADER = struct.Struct("<4sIIQ")
_ID_LENGTH = struct.Struct("<I")
BOX_FORMATS = ("xywh", "xyxy")


_scan_json = json.JSONDecoder().scan_once


def _jsonl_object(line: str, lineno: int) -> dict | None:
    """One line's JSON object, or None for a blank line."""
    line = line.strip()
    if not line:
        return None
    # The decoder's scanner is json.loads without its per-call overhead;
    # json.loads re-reads a line the scanner rejects, for its message.
    try:
        obj, end = _scan_json(line, 0)
    except (StopIteration, ValueError):
        end = -1
    if end != len(line):
        try:
            obj = json.loads(line)
        except ValueError as exc:
            raise ParseError(f"invalid JSON ({getattr(exc, 'msg', exc)})", line=lineno) from None
    if not isinstance(obj, dict):
        raise ParseError("expected a JSON object", line=lineno)
    return obj


def _iter_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (line_number, object) for every non-blank line; line numbers are 1-based.

    A byte that is not UTF-8 fails its line, after every fault on an earlier line.
    """
    done = 0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for done, line in enumerate(fh, start=1):
                obj = _jsonl_object(line, done)
                if obj is not None:
                    yield done, obj
        return
    except UnicodeDecodeError:
        pass
    # The decoder fails a whole block at once, possibly before lines it holds were
    # read. Read on from the last line read, with each bad byte as a lone surrogate.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if lineno <= done:
                continue
            raw = line.encode("utf-8", "surrogateescape")
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                where = f"{raw[exc.start]:#04x} at byte {exc.start + 1} of the line"
                raise ParseError(f"invalid UTF-8 ({exc.reason}: {where})", line=lineno) from None
            obj = _jsonl_object(line, lineno)
            if obj is not None:
                yield lineno, obj


# Field kinds, by the rule every loader applies: a check of the JSON value that
# returns what is wrong with it, or None.
def _string(value) -> str | None:
    return None if type(value) is str else "must be a string"


def _optional_string(value) -> str | None:
    return None if value is None or type(value) is str else "must be a string or null"


def _flag(value) -> str | None:
    return None if type(value) is bool else "must be true or false"


def _list(value) -> str | None:
    return None if type(value) is list else "must be a list"


def _strings(value) -> str | None:
    if type(value) is list and value and all(type(item) is str for item in value):
        return None
    return "must be a non-empty list of strings"


def _number(value) -> str | None:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return "must be a number"
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        return "is beyond the float range"
    return None


_MISSING = object()


def _field(obj: dict, key: str, where: int | str, kind=None, default=_MISSING):
    """obj[key], checked by `kind` (any value when None); `default` stands in for an
    absent key. `where` is a JSONL line number or a protocol entry such as
    "gallery[12]", and the error for a missing or mistyped value names it."""
    value = obj.get(key, default)
    if value is _MISSING:
        if isinstance(where, int):
            raise ParseError(f"missing key {key!r}", line=where)
        raise ParseError(f"{where} is missing key {key!r}")
    if kind is None or kind(value) is None:
        return value
    raise _mistyped(value, key, where, kind)


def _mistyped(value, key: str, where: int | str, kind) -> ParseError:
    """The error for a value that `kind` rejects, naming `where` and the key."""
    if isinstance(where, int):
        return ParseError(f"key {key!r} {kind(value)}, got {brief(value)}", line=where)
    return ParseError(f"{where}.{key} {kind(value)}, got {brief(value)}")


def _integral(value):
    """An integral float as an int (JSON may write 3 as 3.0); other values unchanged,
    for the record to accept or reject."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


def _annotation_record(store_type: type, obj: dict, lineno: int, box_format: str):
    """One line as a record, checked field by field; a fault raises with the line number."""
    label_kind = _string if store_type.label_dtype is object else _number
    try:
        media_id = _field(obj, "media_id", lineno, _string)
        frame = _integral(_field(obj, "frame", lineno))
        values = [_field(obj, k, lineno, _number) for k in ("x", "y", "w", "h")]
        # Under "xyxy" the four numbers are corners (x1, y1, x2, y2), differenced
        # in float64 as the column check does.
        box = (BoundingBox(*values) if box_format == "xywh"
               else BoundingBox.from_corners(*map(float, values)))
        label = _field(obj, store_type.label, lineno, label_kind)
        record = store_type.record_type(media_id, frame, box, label)
        _field(obj, "dataset_tag", lineno, _optional_string, None)
        return record
    except ValidationError as exc:
        raise ValidationError(f"line {lineno}: {exc}") from None


def _checked_columns(store_type: type, box_format: str, media, frames, box, labels, tags):
    """The frames, the (4, n) x/y/w/h array and the labels if every row is a valid
    record of plain strings, ints and floats, else None. Integral float frames
    read as ints."""
    def only(column, *kinds) -> bool:
        return set(map(type, column)) <= set(kinds)

    subjects = store_type.label_dtype is object
    if float in set(map(type, frames)):
        frames = list(map(_integral, frames))
    if not (only(media, str) and only(frames, int) and all(only(c, int, float) for c in box)
            and only(labels, *((str,) if subjects else (int, float)))
            and only(tags, str, type(None))):
        return None
    if frames and min(frames) < 0:
        return None
    try:
        x, y, w, h = (np.array(column, dtype=np.float64) for column in box)
        labels = np.asarray(labels, dtype=store_type.label_dtype)
    except OverflowError:
        return None
    with np.errstate(invalid="ignore"):
        if box_format == "xyxy":
            w, h = w - x, h - y
        ok = np.isfinite(x) & np.isfinite(y) & np.isfinite(w) & np.isfinite(h) & (w > 0) & (h > 0)
        if not subjects:
            ok &= (labels >= 0) & (labels <= 1)
    return (frames, np.stack([x, y, w, h]), labels) if ok.all() else None


def _load_annotations(path: str | Path, box_format: str, store_type: type):
    """Detections or ground truth, read into columns that are checked at once.

    If that check fails, the file is read again line by line as records
    (_annotation_record), which raises the error of its first faulty line.
    """
    if box_format not in BOX_FORMATS:
        raise ValueError(f"box_format must be one of {BOX_FORMATS}, got {box_format!r}")
    keys = ("media_id", "frame", "x", "y", "w", "h", store_type.label, "dataset_tag")
    columns = tuple([] for _ in keys)
    fields = tuple(zip(keys, [column.append for column in columns]))
    checked = None
    try:
        for _, obj in _iter_jsonl(path):
            get = obj.get
            for key, append in fields:
                append(get(key))
    except ParseError:
        pass
    else:
        media, frames, *box, labels, tags = columns
        checked = _checked_columns(store_type, box_format, media, frames, box, labels, tags)
    if checked is None:
        for lineno, obj in _iter_jsonl(path):
            _annotation_record(store_type, obj, lineno, box_format)
        # The column check accepts exactly the files whose every line is a valid record.
        raise AssertionError(f"{path}: the column check failed a file with no faulty line")
    media_tags = dict(zip(reversed(media), reversed(tags)))  # a medium's first line wins
    return store_type.from_columns(media, *checked, media_tags=media_tags)


def load_detections(path: str | Path, box_format: str = "xywh") -> DetectionStore:
    """Load a detections JSONL file into an immutable store.

    Each line needs media_id, frame, x, y, w, h, score; dataset_tag is
    optional, and a medium's tag is the one on its first line. box_format
    "xyxy" reinterprets the four box numbers as corners at parse time.
    Faults raise an error naming the first faulty line.
    """
    # The store classes are looked up on the stores module: perfbench/trace_child.py
    # replaces this module's store names with timing functions that have no from_columns.
    return _load_annotations(path, box_format, _stores.DetectionStore)


def load_ground_truth(path: str | Path, box_format: str = "xywh") -> GroundTruthStore:
    """Load a ground-truth JSONL file (media_id, frame, box fields, subject_id)."""
    return _load_annotations(path, box_format, _stores.GroundTruthStore)


def load_embeddings(path: str | Path, format: str = "text") -> EmbeddingStore:
    """Load embeddings from a text (JSONL) or binary (BEMB) file."""
    if format == "text":
        return _load_embeddings_text(path)
    if format == "binary":
        return _load_embeddings_binary(path)
    raise ValueError(f"format must be 'text' or 'binary', got {format!r}")


def _load_embeddings_text(path: str | Path) -> EmbeddingStore:
    records = []
    for lineno, obj in _iter_jsonl(path):
        vector = _field(obj, "vector", lineno)
        if not isinstance(vector, list):
            raise ParseError("key 'vector' must be an array of numbers", line=lineno)
        if set(map(type, vector)) - {float}:  # ints to widen, or a component to reject
            for i, value in enumerate(vector):
                if _number(value) is not None:
                    raise _mistyped(value, f"vector[{i}]", lineno, _number)
        media_id = _field(obj, "media_id", lineno, _string)
        try:
            rec = EmbeddingRecord(media_id=media_id, vector=tuple(map(float, vector)))
        except ValidationError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from None
        records.append(rec)
    return EmbeddingStore(records)


def _load_embeddings_binary(path: str | Path) -> EmbeddingStore:
    """Read the file once, walk the records for ids and vector offsets, then fill one matrix.

    Every length is checked against the bytes left before it is used, so a
    header that overstates count or dim fails as truncation before anything
    of its declared size is allocated. Memory is the file plus one float64
    (count, dim) matrix; float32 -> float64 widening is exact.
    """
    data = Path(path).read_bytes()
    magic = data[: len(BINARY_MAGIC)]
    if magic != BINARY_MAGIC:
        raise FormatError(f"bad magic bytes {magic!r}, expected {BINARY_MAGIC!r}")
    if len(data) < _HEADER.size:
        raise FormatError("truncated file while reading header")
    _, version, dim, count = _HEADER.unpack_from(data)
    if version != BINARY_VERSION:
        raise FormatError(f"unsupported version {version}, expected {BINARY_VERSION}")
    if dim == 0 and count > 0:
        raise FormatError("header declares zero dimension for a non-empty store")

    def truncated(i: int, part: str) -> FormatError:
        return FormatError(f"truncated file while reading record {i} {part}")

    size = len(data)
    vector_bytes = 4 * dim
    ids: list[str] = []
    offsets: list[int] = []
    pos = _HEADER.size
    for i in range(count):
        if size - pos < 4:
            raise truncated(i, "id length")
        (id_len,) = _ID_LENGTH.unpack_from(data, pos)
        pos += 4
        if size - pos < id_len:
            raise truncated(i, "id")
        try:
            ids.append(data[pos : pos + id_len].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise FormatError(f"record {i}: media id is not valid UTF-8 ({exc.reason})") from None
        pos += id_len
        if size - pos < vector_bytes:
            raise truncated(i, "vector")
        offsets.append(pos)
        pos += vector_bytes
    if pos != size:
        raise FormatError(f"trailing bytes after {count} declared records")

    matrix = np.empty((count, dim), dtype=np.float64)
    for row, offset in zip(matrix, offsets):
        row[:] = np.frombuffer(data, dtype="<f4", count=dim, offset=offset)
    # Looked up on the stores module: perfbench/trace_child.py replaces this
    # module's EmbeddingStore name with a timing function that has no from_matrix.
    return _stores.EmbeddingStore.from_matrix(ids, matrix)


def write_embeddings(store: EmbeddingStore, path: str | Path, format: str = "text") -> None:
    """Write an embedding store; binary output is bit-exact under round-trips."""
    if format == "text":
        with open(path, "w", encoding="utf-8") as fh:
            for media_id, row in zip(store.media_ids, store.matrix):
                obj = {"media_id": media_id, "vector": [float(v) for v in row]}
                fh.write(json.dumps(obj) + "\n")
        return
    if format != "binary":
        raise ValueError(f"format must be 'text' or 'binary', got {format!r}")
    matrix = np.asarray(store.matrix, dtype=np.float32)
    if matrix.size and not np.all(np.isfinite(matrix)):
        raise FormatError("vector component overflows the 32-bit float range")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(BINARY_MAGIC, BINARY_VERSION, store.dim, len(store)))
        for media_id, row in zip(store.media_ids, matrix):
            id_bytes = media_id.encode("utf-8")
            fh.write(_ID_LENGTH.pack(len(id_bytes)))
            fh.write(id_bytes)
            fh.write(row.tobytes())


def sniff_embedding_format(path: str | Path) -> str:
    """Detect 'binary' (BEMB magic) versus 'text'."""
    with open(path, "rb") as fh:
        return "binary" if fh.read(len(BINARY_MAGIC)) == BINARY_MAGIC else "text"


def _entries(doc: dict, section: str) -> Iterator[tuple[str, dict]]:
    """(name, entry) for each object of the protocol's `section` list, named as gallery[12]."""
    for i, entry in enumerate(_field(doc, section, "protocol", _list)):
        where = f"{section}[{i}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{where} must be a JSON object, got {brief(entry)}")
        yield where, entry


def load_protocol(path: str | Path) -> ProtocolManifest:
    """Load a protocol manifest from a single JSON document.

    Ids are strings, media_ids a non-empty list of strings, distractor true or
    false (false when absent) and true_subject_id a string or null (null when
    absent); an error names the faulty entry, such as gallery[12].
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(json_error(exc)) from None
    if not isinstance(doc, dict):
        raise ParseError(f"protocol must be a JSON object, got {brief(doc)}")
    gallery = tuple(
        GalleryEntry(
            subject_id=_field(entry, "subject_id", where, _string),
            media_ids=tuple(_field(entry, "media_ids", where, _strings)),
            distractor=_field(entry, "distractor", where, _flag, False),
        )
        for where, entry in _entries(doc, "gallery")
    )
    probes = tuple(
        ProbeEntry(
            probe_id=_field(entry, "probe_id", where, _string),
            media_id=_field(entry, "media_id", where, _string),
            true_subject_id=_field(entry, "true_subject_id", where, _optional_string, None),
        )
        for where, entry in _entries(doc, "probes")
    )
    return ProtocolManifest(gallery=gallery, probes=probes)


def load_media_index(path: str | Path) -> MediaIndex:
    """Load a media-index JSONL file (media_id, subject_id, dataset_tag, modality, frame_count)."""
    records = []
    for lineno, obj in _iter_jsonl(path):
        keys = ("media_id", "subject_id", "dataset_tag", "modality")
        media_id, subject_id, dataset_tag, modality = (_field(obj, k, lineno, _string) for k in keys)
        frame_count = _integral(_field(obj, "frame_count", lineno))
        try:
            records.append(MediaRecord(media_id, subject_id, dataset_tag, modality, frame_count))
        except ValidationError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from None
    return MediaIndex(records)
