"""File parsing and serialization.

Formats:
  - detections / ground truth: JSON lines, one object per line
  - embeddings: JSON lines (text) or the "BEMB" little-endian binary layout
  - protocol manifest and media index: JSON documents / JSON lines

Every file is decoded by one rule (_decode_utf8): a byte that is not UTF-8 fails
with its line and its byte within that line. Every field is read by one rule
(_field): ids and tags are JSON strings, and a value of another JSON type is an
error that names its line or protocol entry. Detections and ground truth are
turned into typed columns a block of lines at a time, and text embeddings into
matrix rows a line at a time, so a file is never held as Python objects whole.
"""

from __future__ import annotations

import json
import math
import struct
import sys
from itertools import chain, islice
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import FormatError, ParseError, ValidationError, brief, json_error
from .records import (
    BoundingBox,
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
# Text JSON lines, or binary BEMB records.
EMBEDDING_FORMATS = ("text", "binary")
# Raw lines (blank ones included) of a detections or ground-truth file checked at once.
_BLOCK_LINES = 2048


_scan_json = json.JSONDecoder().scan_once


def _jsonl_object(line: str, lineno: int) -> dict | None:
    """One raw line's JSON object, or None for a blank line. A byte that is not UTF-8
    (read as a lone surrogate, by errors="surrogateescape") fails its line here."""
    if not line.isascii():
        _decode_utf8(line.encode("utf-8", "surrogateescape"), lineno)
    line = line.strip()
    if not line:
        return None
    # The decoder's scanner is json.loads without its per-call overhead;
    # json.loads re-reads a line the scanner rejects, for its message.
    try:
        obj, end = _scan_json(line, 0)
    except (StopIteration, ValueError, RecursionError):
        end = -1
    if end != len(line):
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"invalid JSON ({getattr(exc, 'msg', exc)})", line=lineno) from None
    if not isinstance(obj, dict):
        raise ParseError("expected a JSON object", line=lineno)
    return obj


def _decode_utf8(data: bytes, lineno: int = 1) -> str:
    """data as text; a byte that is not UTF-8 fails with its line (lineno plus the
    newlines before it) and its 1-based position within that line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        start = data.rfind(b"\n", 0, exc.start) + 1
        where = f"{data[exc.start]:#04x} at byte {exc.start - start + 1} of the line"
        raise ParseError(f"invalid UTF-8 ({exc.reason}: {where})",
                         line=lineno + data.count(b"\n", 0, exc.start)) from None


def _iter_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (line_number, object) for every non-blank line; line numbers are 1-based."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if (obj := _jsonl_object(line, lineno)) is not None:
                yield lineno, obj


def read_json(path: str | Path):
    """The JSON value of a document file. A byte that is not UTF-8 fails as in a
    JSON-lines file; a JSON fault names its line and column."""
    text = _decode_utf8(Path(path).read_bytes())  # the bytes are freed before parsing
    # "\r\n" and "\r" end lines as in text mode, for a JSON fault's line and column.
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(json_error(exc)) from None
    except (ValueError, RecursionError) as exc:  # an over-long integer, or deep nesting
        raise ParseError(f"invalid JSON ({exc})") from None


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


def _distinct_strings(value) -> str | None:
    if type(value) is list and value and all(type(item) is str for item in value):
        return None if len(set(value)) == len(value) else "must be a non-empty list of distinct strings"
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


def _block_columns(store_type: type, box_format: str, objs: list[dict], strings: dict):
    """One block's media ids, frames, (4, n) x/y/w/h array, labels and media tags (each
    medium's tag on its first line in the block) if every field is a plain string, int
    or float of its key's kind and every frame passes the store's frame rule, else None.
    Integral float frames read as ints; the loader applies the rest of the store's record
    rule to the rows. Media ids and tags go through `strings`, so each distinct string is
    held once."""
    media, frames, *box, labels, tags = (
        [obj.get(key) for obj in objs]
        for key in ("media_id", "frame", "x", "y", "w", "h", store_type.label, "dataset_tag")
    )

    def only(column, *kinds) -> bool:
        return set(map(type, column)) <= set(kinds)

    # The block's one frame scan: the store's frame rule, every frame an int >= 0.
    kinds = set(map(type, frames))
    if float in kinds:
        frames = list(map(_integral, frames))
        kinds = set(map(type, frames))
    if not (kinds <= {int} and min(frames, default=0) >= 0 and only(media, str)
            and all(only(c, int, float) for c in box)
            and only(labels, *((str,) if store_type.label_dtype is object else (int, float)))
            and only(tags, str, type(None))):
        return None
    try:
        x, y, w, h = (np.array(column, dtype=np.float64) for column in box)
        labels = np.asarray(labels, dtype=store_type.label_dtype)
    except OverflowError:
        return None
    if box_format == "xyxy":
        with np.errstate(invalid="ignore"):
            w, h = w - x, h - y
    intern = strings.setdefault
    media = [intern(m, m) for m in media]
    first = dict(zip(reversed(media), reversed(tags)))
    return media, frames, np.stack([x, y, w, h]), labels, {
        m: None if tag is None else intern(tag, tag) for m, tag in first.items()}


def _load_annotations(path: str | Path, box_format: str, store_type: type):
    """Detections or ground truth, read in one pass of _BLOCK_LINES raw lines at a time:
    a block's fields are type-checked as columns and its rows checked by the store's
    record rule before the next block is read. A block that fails is read again from
    its raw lines as records (_annotation_record), which raises its first faulty line's
    error, the file's first. A repeated ground-truth box raises as the store raises it.
    """
    if box_format not in BOX_FORMATS:
        raise ValidationError(f"box_format must be one of {BOX_FORMATS}, got {box_format!r}")
    media, frames, boxes, labels, media_tags, strings = [], [], [], [], {}, {}
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        numbered = enumerate(fh, start=1)
        while True:
            raw = list(islice(numbered, _BLOCK_LINES))
            try:
                objs = [obj for lineno, line in raw if (obj := _jsonl_object(line, lineno)) is not None]
                block = _block_columns(store_type, box_format, objs, strings)
            except ParseError:
                block = None
            # _block_columns checked the frames; rows_pass checks the boxes and labels.
            if block is None or not store_type.rows_pass((), *block[2:4]):
                for lineno, line in raw:
                    if (obj := _jsonl_object(line, lineno)) is not None:
                        _annotation_record(store_type, obj, lineno, box_format)
                raise AssertionError(f"{path}: the column check failed a block with no faulty line")
            media += block[0]
            frames += block[1]
            boxes.append(block[2])
            labels.append(block[3])
            for media_id, tag in block[4].items():  # a medium's first line wins
                media_tags.setdefault(media_id, tag)
            if len(raw) < _BLOCK_LINES:
                break
    return store_type(media, frames, np.concatenate(boxes, axis=1), np.concatenate(labels),
                      media_tags=media_tags)


def load_detections(path: str | Path, box_format: str = "xywh") -> DetectionStore:
    """Load a detections JSONL file into an immutable store.

    Each line needs media_id, frame, x, y, w, h, score; dataset_tag is
    optional, and a medium's tag is the one on its first line. box_format
    "xyxy" reinterprets the four box numbers as corners at parse time.
    Faults raise an error naming the first faulty line.
    """
    # The store classes are looked up on the stores module: perfbench/trace_child.py
    # replaces this module's store names with timing functions that lack the class
    # attributes (label, label_dtype, record_type) the loader reads.
    return _load_annotations(path, box_format, _stores.DetectionStore)


def load_ground_truth(path: str | Path, box_format: str = "xywh") -> GroundTruthStore:
    """Load a ground-truth JSONL file (media_id, frame, box fields, subject_id)."""
    return _load_annotations(path, box_format, _stores.GroundTruthStore)


def load_embeddings(path: str | Path, format: str | None = None) -> EmbeddingStore:
    """Load embeddings from a text (JSONL) or binary (BEMB) file; the format is
    sniffed (sniff_embedding_format) when not given."""
    format = sniff_embedding_format(path) if format is None else _embedding_format(format)
    return _load_embeddings_text(path) if format == "text" else _load_embeddings_binary(path)


def _embedding_format(format: str) -> str:
    if format not in EMBEDDING_FORMATS:
        raise ValidationError(f"format must be one of {EMBEDDING_FORMATS}, got {format!r}")
    return format


def _load_embeddings_text(path: str | Path) -> EmbeddingStore:
    """Every vector has the first record's dimension; a fault names the first faulty line.

    Each line's vector is checked, then written as a float64 row of one matrix
    (np.fromiter grows it in place), so the Python floats held are one line's.
    """
    media_ids: list[str] = []
    first = None

    def vectors():
        nonlocal first
        for lineno, obj in _iter_jsonl(path):
            vector = _field(obj, "vector", lineno)
            if not isinstance(vector, list):
                raise ParseError("key 'vector' must be an array of numbers", line=lineno)
            if set(map(type, vector)) - {float}:  # ints to widen, or a component to reject
                for i, value in enumerate(vector):
                    if _number(value) is not None:
                        raise _mistyped(value, f"vector[{i}]", lineno, _number)
            media_id = _field(obj, "media_id", lineno, _string)
            if not vector:
                raise ValidationError(f"line {lineno}: embedding for {brief(media_id)} is empty")
            if not all(map(math.isfinite, vector)):
                raise ValidationError(f"line {lineno}: embedding for {brief(media_id)} "
                                      "has non-finite components")
            first = first or (lineno, len(vector))
            if len(vector) != first[1]:
                raise ValidationError(f"line {lineno}: embedding dimension {len(vector)} differs "
                                      f"from line {first[0]}'s {first[1]}")
            media_ids.append(media_id)
            yield vector

    rows = vectors()
    head = next(rows, None)
    if head is None:
        return EmbeddingStore(media_ids, np.empty((0, 0)))
    matrix = np.fromiter(chain((head,), rows), dtype=np.dtype((np.float64, (len(head),))))
    return EmbeddingStore(media_ids, matrix)


def _load_embeddings_binary(path: str | Path) -> EmbeddingStore:
    """Read the file once, walk the records for ids and vector offsets, then gather the vectors.

    Every length is checked against the bytes left before it is used, so a
    header that overstates count or dim fails as truncation before anything
    of its declared size is allocated. The vectors are then taken in one
    gather with no per-record loop: a sliding 4*dim-byte window over the file
    (a view) indexed at the record offsets copies every vector, whatever its
    alignment, into one array read as little-endian float32, so each value
    keeps the bits stored. Memory is the file plus one float32 (count, dim)
    matrix.
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

    if not count:
        return EmbeddingStore(ids, np.empty((0, dim), dtype=np.float32))
    windows = np.lib.stride_tricks.sliding_window_view(np.frombuffer(data, np.uint8), vector_bytes)
    return EmbeddingStore(ids, windows[offsets].view("<f4"))


def write_embeddings(store: EmbeddingStore, path: str | Path, format: str = "text") -> None:
    """Write an embedding store; binary output is bit-exact under round-trips."""
    if _embedding_format(format) == "text":
        with open(path, "w", encoding="utf-8") as fh:
            for media_id, row in zip(store.media_ids, store.matrix):
                obj = {"media_id": media_id, "vector": [float(v) for v in row]}
                fh.write(json.dumps(obj) + "\n")
        return
    with np.errstate(over="ignore"):
        matrix = np.asarray(store.matrix, dtype="<f4")
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise FormatError(
            f"record {i}: vector for {brief(store.media_ids[i])} overflows the 32-bit float range")
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

    Ids are strings, media_ids a non-empty list of distinct strings, distractor true or
    false (false when absent) and true_subject_id a string or null (null when
    absent); an error names the faulty entry, such as gallery[12].
    """
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ParseError(f"protocol must be a JSON object, got {brief(doc)}")
    gallery = tuple(
        GalleryEntry(
            subject_id=_field(entry, "subject_id", where, _string),
            media_ids=tuple(_field(entry, "media_ids", where, _distinct_strings)),
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
