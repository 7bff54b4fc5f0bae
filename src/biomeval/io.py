"""File parsing and serialization.

Formats:
  - detections / ground truth: JSON lines, one object per line
  - embeddings: JSON lines (text) or the "BEMB" little-endian binary layout
  - protocol manifest and media index: JSON documents / JSON lines
"""

from __future__ import annotations

import json
import struct
import sys
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import FormatError, ParseError, ValidationError, brief
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


def _iter_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (line_number, object) for every non-blank line; line numbers are 1-based."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
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
            yield lineno, obj


def _require(obj: dict, key: str, lineno: int):
    if key not in obj:
        raise ParseError(f"missing key {key!r}", line=lineno)
    return obj[key]


def _number(key: str, value, lineno: int):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ParseError(f"key {key!r} must be a number, got {brief(value)}", line=lineno)
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ParseError(f"key {key!r} is beyond the float range, got {brief(value)}", line=lineno)
    return value


def _integral(value):
    """An integral float as an int (JSON may write 3 as 3.0); other values unchanged,
    for the record to accept or reject."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


def _annotation_record(store_type: type, obj: dict, lineno: int, box_format: str):
    """One line as a record, checked field by field; a fault raises with the line number."""
    try:
        media_id = str(_require(obj, "media_id", lineno))
        frame = _integral(_require(obj, "frame", lineno))
        values = [_require(obj, k, lineno) for k in ("x", "y", "w", "h")]
        values = [_number(k, v, lineno) for k, v in zip(("x", "y", "w", "h"), values)]
        # Under "xyxy" the four numbers are corners (x1, y1, x2, y2).
        box = BoundingBox(*values) if box_format == "xywh" else BoundingBox.from_corners(*values)
        label = _require(obj, store_type.label, lineno)
        label = str(label) if store_type.label_dtype is object else _number(store_type.label, label, lineno)
        return store_type.record_type(media_id, frame, box, label)
    except ValidationError as exc:
        raise ValidationError(f"line {lineno}: {exc}") from None


def _checked_columns(store_type: type, box_format: str, media, frames, box, labels):
    """The (4, n) x/y/w/h array and the labels if every row is a valid record of plain
    strings, ints and floats, else None."""
    def only(column, *kinds) -> bool:
        return set(map(type, column)) <= set(kinds)

    subjects = store_type.label_dtype is object
    if not (only(media, str) and only(frames, int) and all(only(c, int, float) for c in box)
            and only(labels, *((str,) if subjects else (int, float)))):
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
    return (np.stack([x, y, w, h]), labels) if ok.all() else None


def _load_annotations(path: str | Path, box_format: str, store_type: type):
    """Detections or ground truth, read into columns that are checked at once.

    If that check fails, the file is read again line by line as records
    (_annotation_record), so a fault raises the error of its first line.
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
        checked = _checked_columns(store_type, box_format, media, frames, box, labels)
    if checked is None:
        records, media, tags = [], [], []
        for lineno, obj in _iter_jsonl(path):
            records.append(_annotation_record(store_type, obj, lineno, box_format))
            media.append(records[-1].media_id)
            tags.append(obj.get("dataset_tag"))
    first_tags = dict(zip(reversed(media), reversed(tags)))  # a medium's first line wins
    media_tags = {m: None if tag is None else str(tag) for m, tag in first_tags.items()}
    if checked is None:
        return store_type(records, media_tags=media_tags)
    return store_type.from_columns(media, frames, *checked, media_tags=media_tags)


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
        vector = _require(obj, "vector", lineno)
        if not isinstance(vector, list):
            raise ParseError("key 'vector' must be an array of numbers", line=lineno)
        if set(map(type, vector)) - {float}:  # ints to widen, or a component to reject
            for i, value in enumerate(vector):
                _number(f"vector[{i}]", value, lineno)
        try:
            rec = EmbeddingRecord(
                media_id=str(_require(obj, "media_id", lineno)),
                vector=tuple(map(float, vector)),
            )
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


def load_protocol(path: str | Path) -> ProtocolManifest:
    """Load a protocol manifest from a single JSON document."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON ({exc.msg})") from None
    if not isinstance(doc, dict) or "gallery" not in doc or "probes" not in doc:
        raise ParseError("protocol document needs 'gallery' and 'probes' keys")
    gallery = []
    for i, entry in enumerate(doc["gallery"]):
        if not isinstance(entry, dict) or "subject_id" not in entry or "media_ids" not in entry:
            raise ParseError(f"gallery entry {i} needs 'subject_id' and 'media_ids'")
        gallery.append(
            GalleryEntry(
                subject_id=str(entry["subject_id"]),
                media_ids=tuple(str(m) for m in entry["media_ids"]),
                distractor=bool(entry.get("distractor", False)),
            )
        )
    probes = []
    for i, entry in enumerate(doc["probes"]):
        if not isinstance(entry, dict) or "probe_id" not in entry or "media_id" not in entry:
            raise ParseError(f"probe entry {i} needs 'probe_id' and 'media_id'")
        true_subject = entry.get("true_subject_id")
        probes.append(
            ProbeEntry(
                probe_id=str(entry["probe_id"]),
                media_id=str(entry["media_id"]),
                true_subject_id=None if true_subject is None else str(true_subject),
            )
        )
    return ProtocolManifest(gallery=tuple(gallery), probes=tuple(probes))


def load_media_index(path: str | Path) -> MediaIndex:
    """Load a media-index JSONL file (media_id, subject_id, dataset_tag, modality, frame_count)."""
    records = []
    for lineno, obj in _iter_jsonl(path):
        try:
            records.append(
                MediaRecord(
                    media_id=str(_require(obj, "media_id", lineno)),
                    subject_id=str(_require(obj, "subject_id", lineno)),
                    dataset_tag=str(_require(obj, "dataset_tag", lineno)),
                    modality=str(_require(obj, "modality", lineno)),
                    frame_count=_integral(_require(obj, "frame_count", lineno)),
                )
            )
        except ValidationError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from None
    return MediaIndex(records)
