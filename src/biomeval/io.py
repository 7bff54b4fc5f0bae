"""File parsing and serialization.

Formats:
  - detections / ground truth: JSON lines, one object per line
  - embeddings: JSON lines (text) or the "BEMB" little-endian binary layout
  - protocol manifest and media index: JSON documents / JSON lines
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import FormatError, ParseError, ValidationError
from .records import (
    BoundingBox,
    DetectionRecord,
    EmbeddingRecord,
    GalleryEntry,
    GroundTruthRecord,
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


def _iter_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (line_number, object) for every non-blank line; line numbers are 1-based."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON ({exc.msg})", line=lineno) from None
            if not isinstance(obj, dict):
                raise ParseError("expected a JSON object", line=lineno)
            yield lineno, obj


def _require(obj: dict, key: str, lineno: int):
    if key not in obj:
        raise ParseError(f"missing key {key!r}", line=lineno)
    return obj[key]


def _box_from_fields(obj: dict, lineno: int, box_format: str) -> BoundingBox:
    values = [_require(obj, k, lineno) for k in ("x", "y", "w", "h")]
    for key, value in zip(("x", "y", "w", "h"), values):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ParseError(f"key {key!r} must be a number, got {value!r}", line=lineno)
    if box_format == "xywh":
        return BoundingBox(*values)
    # Under "xyxy" the four numbers are corners (x1, y1, x2, y2).
    return BoundingBox.from_corners(*values)


def load_detections(path: str | Path, box_format: str = "xywh") -> DetectionStore:
    """Load a detections JSONL file into an immutable store.

    Each line needs media_id, frame, x, y, w, h, score; dataset_tag is
    optional. box_format "xyxy" reinterprets the four box numbers as
    corners at parse time.
    """
    if box_format not in BOX_FORMATS:
        raise ValueError(f"box_format must be one of {BOX_FORMATS}, got {box_format!r}")
    records = []
    tags: dict[str, str | None] = {}
    for lineno, obj in _iter_jsonl(path):
        try:
            rec = DetectionRecord(
                media_id=str(_require(obj, "media_id", lineno)),
                frame=int(_require(obj, "frame", lineno)),
                box=_box_from_fields(obj, lineno, box_format),
                score=float(_require(obj, "score", lineno)),
            )
        except ValidationError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from None
        records.append(rec)
        tag = obj.get("dataset_tag")
        tags.setdefault(rec.media_id, tag if tag is None else str(tag))
    return DetectionStore(records, media_tags=tags)


def load_ground_truth(path: str | Path, box_format: str = "xywh") -> GroundTruthStore:
    """Load a ground-truth JSONL file (media_id, frame, box fields, subject_id)."""
    if box_format not in BOX_FORMATS:
        raise ValueError(f"box_format must be one of {BOX_FORMATS}, got {box_format!r}")
    records = []
    tags: dict[str, str | None] = {}
    for lineno, obj in _iter_jsonl(path):
        try:
            rec = GroundTruthRecord(
                media_id=str(_require(obj, "media_id", lineno)),
                frame=int(_require(obj, "frame", lineno)),
                box=_box_from_fields(obj, lineno, box_format),
                subject_id=str(_require(obj, "subject_id", lineno)),
            )
        except ValidationError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from None
        records.append(rec)
        tag = obj.get("dataset_tag")
        tags.setdefault(rec.media_id, tag if tag is None else str(tag))
    return GroundTruthStore(records, media_tags=tags)


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
        try:
            rec = EmbeddingRecord(
                media_id=str(_require(obj, "media_id", lineno)),
                vector=tuple(float(v) for v in vector),
            )
        except (TypeError, ValueError):
            raise ParseError("key 'vector' must be an array of numbers", line=lineno) from None
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


def write_protocol(manifest: ProtocolManifest, path: str | Path) -> None:
    doc = {
        "gallery": [
            {
                "subject_id": e.subject_id,
                "media_ids": list(e.media_ids),
                "distractor": e.distractor,
            }
            for e in manifest.gallery
        ],
        "probes": [
            {
                "probe_id": p.probe_id,
                "media_id": p.media_id,
                "true_subject_id": p.true_subject_id,
            }
            for p in manifest.probes
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
                    frame_count=int(_require(obj, "frame_count", lineno)),
                )
            )
        except ValidationError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from None
    return MediaIndex(records)
