"""Immutable in-memory stores for detections, ground truth, embeddings, and media.

Stores are read-only after construction. Loading the same file twice
yields stores that compare equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ValidationError, brief, duplicates, preview
from .records import (
    BoundingBox,
    DetectionRecord,
    GroundTruthRecord,
    MediaRecord,
    ProtocolManifest,
)


def float_array(name: str, value) -> np.ndarray:
    """The caller's argument `name` as np.asarray(value, dtype=np.float64). A value numpy
    cannot convert fails as a ValidationError that names the argument and quotes the
    value cut by brief."""
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{name} must be an array of numbers, got {brief(value)}") from None


def box_columns(records: Iterable) -> np.ndarray:
    """The records' boxes as a (4, n) float64 array of x, y, w, h rows."""
    return np.array([rec.box.as_tuple() for rec in records], dtype=np.float64).reshape(-1, 4).T


class AnnotationStore:
    """Boxes of one record kind, held column by column in input (file) order.

    Row i is media_ids[i], frames[i], column i of boxes (a read-only (4, n)
    float64 array of x, y, w, h rows) and labels[i] (float64 scores or
    subject ids). Frames may be any integer column, an ndarray included, and
    are kept as Python ints, so they never overflow.
    The store takes ownership of the boxes (no copy when they are already
    float64) and of a labels array, and marks them read-only. Every row must
    be a valid record; the first that is not fails as `row i: <its fault>`.
    """

    record_type: type
    label: str
    label_dtype: type

    def __init__(self, media_ids: Sequence[str], frames: Sequence[int], boxes, labels,
                 media_tags: Mapping[str, str | None] | None = None):
        if isinstance(frames, np.ndarray):
            frames = frames.tolist()
        self.media_ids, self.frames = tuple(media_ids), tuple(frames)
        self.boxes = float_array("boxes", boxes)
        self.labels = (np.asarray(labels, dtype=object) if self.label_dtype is object
                       else float_array(f"{self.label}s", labels))
        n = len(self.media_ids)
        if len(self.frames) != n or self.boxes.shape != (4, n) or self.labels.shape != (n,):
            raise ValidationError(f"columns disagree: {n} media ids, {len(self.frames)} frames, "
                                  f"boxes {self.boxes.shape}, labels {self.labels.shape}")
        # A row the record rule fails is built as a record for its message; rows
        # that all pass as records may hold other integer types, kept as ints.
        if not self.rows_pass(self.frames, self.boxes, self.labels):
            for _ in self._records():
                pass
            self.frames = tuple(map(int, self.frames))
        self._media_tags = {**dict.fromkeys(self.media_ids), **(media_tags or {})}
        self._freeze()

    @classmethod
    def rows_pass(cls, frames: Sequence, boxes: np.ndarray, labels: np.ndarray) -> bool:
        """Whether every row passes the record rule, in one vectorised pass: int frames
        >= 0, finite (4, n) boxes with w, h > 0 and scores in [0, 1]."""
        ok = np.isfinite(boxes).all(axis=0) & (boxes[2] > 0) & (boxes[3] > 0)
        if cls.label_dtype is not object:
            ok &= (labels >= 0) & (labels <= 1)
        return bool(ok.all()) and set(map(type, frames)) <= {int} and min(frames, default=0) >= 0

    @classmethod
    def from_records(cls, records: Iterable, media_tags: Mapping[str, str | None] | None = None):
        """A store of the records, in their order."""
        records = tuple(records)
        return cls([rec.media_id for rec in records], [rec.frame for rec in records],
                   box_columns(records), [getattr(rec, cls.label) for rec in records], media_tags)

    def _freeze(self) -> None:
        for array in (self.boxes, self.labels):
            array.setflags(write=False)

    def __setstate__(self, state: dict) -> None:
        # Unpickled object arrays (the subject ids) come back writeable.
        self.__dict__.update(state)
        self._freeze()

    def __len__(self) -> int:
        return len(self.media_ids)

    def __iter__(self) -> Iterator:
        return iter(self.records)

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self.media_ids == other.media_ids
                and self.frames == other.frames and np.array_equal(self.boxes, other.boxes)
                and np.array_equal(self.labels, other.labels) and self._media_tags == other._media_tags)

    def _records(self) -> Iterator:
        rows = zip(self.media_ids, self.frames, *self.boxes.tolist(), self.labels.tolist())
        for i, (media_id, frame, x, y, w, h, label) in enumerate(rows):
            try:
                yield self.record_type(media_id, frame, BoundingBox(x, y, w, h), label)
            except ValidationError as exc:
                raise ValidationError(f"row {i}: {exc}") from None

    @property
    def records(self) -> tuple:
        """The rows as records, in input order."""
        return tuple(self._records())

    @property
    def media_tags(self) -> dict[str, str | None]:
        return dict(self._media_tags)


class DetectionStore(AnnotationStore):
    """Detection rows; labels are the scores."""

    record_type = DetectionRecord
    label = "score"
    label_dtype = np.float64


class GroundTruthStore(AnnotationStore):
    """Ground-truth rows; labels are the subject ids.

    At most one box per (media_id, frame, subject_id) is allowed.
    """

    record_type = GroundTruthRecord
    label = "subject_id"
    label_dtype = object

    def __init__(self, media_ids: Sequence[str], frames: Sequence[int], boxes, labels,
                 media_tags: Mapping[str, str | None] | None = None):
        super().__init__(media_ids, frames, boxes, labels, media_tags)
        seen: set[tuple[str, int, str]] = set()
        for key in zip(self.media_ids, self.frames, self.labels.tolist()):
            if key in seen:
                raise ValidationError(
                    f"duplicate ground truth for media {brief(key[0])} frame {key[1]} "
                    f"subject {brief(key[2])}"
                )
            seen.add(key)


# Rows gathered per block by EmbeddingStore.rows().
_ROWS_BLOCK = 1024


class EmbeddingStore:
    """Fixed-dimension feature vectors keyed by media_id.

    Row i of a (count, dim) matrix is the vector of media_ids[i]. The store
    keeps the precision it is given: it takes ownership of a float32 or
    float64 matrix (no copy) and marks it read-only; any other dtype becomes
    float64. rows() and vector() return float64, widened exactly.
    """

    def __init__(self, media_ids: Iterable[str], matrix: np.ndarray):
        ids = tuple(media_ids)
        if not (isinstance(matrix, np.ndarray) and matrix.dtype == np.float32):
            matrix = float_array("embedding matrix", matrix)
        if matrix.ndim != 2:
            raise ValidationError(f"embedding matrix must be 2-D, got shape {matrix.shape}")
        if matrix.shape[0] != len(ids):
            raise ValidationError(
                f"{len(ids)} media ids for an embedding matrix of {matrix.shape[0]} rows"
            )
        if ids and matrix.shape[1] == 0:
            raise ValidationError(f"record 0: embedding for {brief(ids[0])} is empty")
        # One boolean per row, checked _ROWS_BLOCK rows at a time.
        finite = np.empty(len(ids), dtype=bool)
        for lo in range(0, len(ids), _ROWS_BLOCK):
            np.isfinite(matrix[lo : lo + _ROWS_BLOCK]).all(axis=1, out=finite[lo : lo + _ROWS_BLOCK])
        if not finite.all():
            i = int(np.argmin(finite))
            raise ValidationError(f"record {i}: embedding for {brief(ids[i])} has non-finite components")
        index = {m: i for i, m in enumerate(ids)}
        if len(index) != len(ids):
            raise ValidationError(f"duplicate embedding media ids: {preview(duplicates(ids))}")
        matrix.setflags(write=False)
        self._ids = ids
        self._index = index
        self._matrix = matrix

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, media_id: str) -> bool:
        return media_id in self._index

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EmbeddingStore)
            and self._ids == other._ids
            and self._matrix.shape == other._matrix.shape
            and bool(np.array_equal(self._matrix, other._matrix))
        )

    @property
    def dim(self) -> int:
        return self._matrix.shape[1]

    @property
    def media_ids(self) -> tuple[str, ...]:
        return self._ids

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    def vector(self, media_id: str) -> np.ndarray:
        """The medium's vector as float64 (a read-only view of a float64 store's row)."""
        try:
            return self._matrix[self._index[media_id]].astype(np.float64, copy=False)
        except KeyError:
            raise KeyError(f"no embedding for media {brief(media_id)}") from None

    def rows(self, media_ids: Sequence[str]) -> np.ndarray:
        """A new float64 (len(media_ids), dim) matrix of the named media's vectors, in that order.

        The rows are gathered _ROWS_BLOCK at a time into the result, so a
        float32 store is widened without a whole-size float32 temporary.
        """
        try:
            index = np.array([self._index[m] for m in media_ids], dtype=np.intp)
        except KeyError as exc:
            raise KeyError(f"no embedding for media {brief(exc.args[0])}") from None
        out = np.empty((len(index), self.dim))
        for lo in range(0, len(index), _ROWS_BLOCK):
            out[lo : lo + _ROWS_BLOCK] = self._matrix[index[lo : lo + _ROWS_BLOCK]]
        return out


class MediaIndex:
    """Media metadata keyed by media_id, with subject and dataset groupings."""

    def __init__(self, records: Iterable[MediaRecord]):
        self._records = tuple(records)
        ids = [rec.media_id for rec in self._records]
        if len(set(ids)) != len(ids):
            raise ValidationError(f"duplicate media ids: {preview(duplicates(ids))}")
        self._by_id = {rec.media_id: rec for rec in self._records}
        by_subject: dict[str, list[str]] = {}
        by_tag: dict[str, list[str]] = {}
        for rec in self._records:
            by_subject.setdefault(rec.subject_id, []).append(rec.media_id)
            by_tag.setdefault(rec.dataset_tag, []).append(rec.media_id)
        self._by_subject = {k: tuple(v) for k, v in by_subject.items()}
        self._by_tag = {k: tuple(v) for k, v in by_tag.items()}

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, media_id: str) -> bool:
        return media_id in self._by_id

    def __eq__(self, other) -> bool:
        return isinstance(other, MediaIndex) and self._records == other._records

    @property
    def records(self) -> tuple[MediaRecord, ...]:
        return self._records

    def get(self, media_id: str) -> MediaRecord:
        return self._by_id[media_id]

    def media_by_subject(self) -> dict[str, tuple[str, ...]]:
        return dict(self._by_subject)

    def media_by_tag(self) -> dict[str, tuple[str, ...]]:
        return dict(self._by_tag)

    def media_tags(self) -> dict[str, str]:
        return {rec.media_id: rec.dataset_tag for rec in self._records}


@dataclass(frozen=True)
class ProtocolReport:
    """Outcome of cross-checking a protocol against an embedding store."""

    missing_media: tuple[str, ...]
    mate_probe_ids: tuple[str, ...]
    non_mate_probe_ids: tuple[str, ...]
    distractor_count: int

    @property
    def ok(self) -> bool:
        return not self.missing_media


def validate_protocol(manifest: ProtocolManifest, embeddings: EmbeddingStore) -> ProtocolReport:
    """Report missing embeddings and classify every probe as mate or non-mate.

    Report-only: never raises on missing media.
    """
    missing = tuple(m for m in manifest.referenced_media() if m not in embeddings)
    return ProtocolReport(
        missing_media=missing,
        mate_probe_ids=tuple(p.probe_id for p in manifest.probes if manifest.is_mate(p)),
        non_mate_probe_ids=tuple(p.probe_id for p in manifest.probes if not manifest.is_mate(p)),
        distractor_count=manifest.distractor_count,
    )
