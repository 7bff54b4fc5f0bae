"""Immutable in-memory stores for detections, ground truth, embeddings, and media.

Stores are read-only after construction. Loading the same file twice
yields stores that compare equal.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ValidationError, duplicates, preview
from .records import (
    BoundingBox,
    DetectionRecord,
    EmbeddingRecord,
    GroundTruthRecord,
    MediaRecord,
    ProtocolManifest,
)


def merge_media_tags(*sources: Mapping[str, str | None]) -> dict[str, str | None]:
    """Merge media_id -> dataset tag mappings in order; a tag fills in an unknown (None)
    tag, and a different tag for a tagged medium is an error."""
    tags: dict[str, str | None] = {}
    for source in sources:
        for media_id, tag in source.items():
            known = tags.get(media_id)
            if known is None:
                tags[media_id] = tag
            elif tag is not None and tag != known:
                raise ValidationError(
                    f"media {media_id!r} carries conflicting dataset tags {known!r} and {tag!r}"
                )
    return tags


def box_columns(records: Iterable) -> np.ndarray:
    """The records' boxes as a (4, n) float64 array of x, y, w, h rows."""
    return np.array([rec.box.as_tuple() for rec in records], dtype=np.float64).reshape(-1, 4).T


class AnnotationStore:
    """Boxes of one record kind, grouped by (media_id, frame) and held column by column.

    Rows are sorted by (media_id, frame), in input order within a frame;
    frames()[k] owns rows offsets[k]:offsets[k + 1]. boxes holds read-only
    float64 x, y, w, h arrays in row order, labels the records' last field
    (float64 scores or subject ids). Frame numbers stay Python ints, so
    they never overflow.
    """

    record_type: type
    label: str
    label_dtype: type

    def __init__(self, records: Iterable, media_tags: Mapping[str, str | None] | None = None):
        records = tuple(records)
        self._adopt([rec.media_id for rec in records], [rec.frame for rec in records],
                    box_columns(records), [getattr(rec, self.label) for rec in records], media_tags)
        self._records = records

    @classmethod
    def from_columns(cls, media_ids: list[str], frames: list[int], boxes: np.ndarray,
                     labels, media_tags: Mapping[str, str | None] | None = None):
        """A store over valid records' fields: per row a media id, a frame, a column of
        the (4, n) x/y/w/h array and a label."""
        store = cls.__new__(cls)
        store._adopt(media_ids, frames, boxes, labels, media_tags)
        return store

    def _adopt(self, media_ids, frames, boxes, labels, media_tags) -> None:
        keys = list(zip(media_ids, frames))
        self._frames = tuple(sorted(set(keys)))
        rank = {key: k for k, key in enumerate(self._frames)}
        row_frame = np.array([rank[key] for key in keys], dtype=np.int64)
        order = np.argsort(row_frame, kind="stable")
        self.offsets = np.searchsorted(row_frame[order], np.arange(len(self._frames) + 1))
        self.boxes = tuple(np.asarray(column, dtype=np.float64)[order] for column in boxes)
        self.labels = np.fromiter(labels, dtype=self.label_dtype, count=len(order))[order]
        self._order = order
        self._media_tags = merge_media_tags(dict.fromkeys(media_ids), media_tags or {})
        self._records = None
        self._freeze()

    def _freeze(self) -> None:
        for array in (self.offsets, *self.boxes, self.labels):
            array.setflags(write=False)

    def __setstate__(self, state: dict) -> None:
        # Unpickled object arrays (the subject ids) come back writeable.
        self.__dict__.update(state)
        self._freeze()

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator:
        return iter(self.records)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.records == other.records

    @property
    def records(self) -> tuple:
        """The rows as records, in input order."""
        if self._records is None:
            rows = [None] * len(self)
            keys = np.repeat(np.arange(len(self._frames)), np.diff(self.offsets))
            for i, k, x, y, w, h, label in zip(
                *(column.tolist() for column in (self._order, keys, *self.boxes, self.labels))
            ):
                rows[i] = self.record_type(*self._frames[k], BoundingBox(x, y, w, h), label)
            self._records = tuple(rows)
        return self._records

    @property
    def media_tags(self) -> dict[str, str | None]:
        return dict(self._media_tags)

    def frames(self) -> tuple[tuple[str, int], ...]:
        """The distinct (media_id, frame) keys, sorted."""
        return self._frames

    def at(self, media_id: str, frame: int) -> tuple:
        k = bisect_left(self._frames, (media_id, frame))
        if k == len(self._frames) or self._frames[k] != (media_id, frame):
            return ()
        return tuple(self.records[i] for i in self._order[self.offsets[k] : self.offsets[k + 1]])


class DetectionStore(AnnotationStore):
    """Detection records grouped by (media_id, frame); labels are the scores."""

    record_type = DetectionRecord
    label = "score"
    label_dtype = np.float64


class GroundTruthStore(AnnotationStore):
    """Ground-truth records grouped by (media_id, frame); labels are the subject ids.

    At most one box per (media_id, frame, subject_id) is allowed.
    """

    record_type = GroundTruthRecord
    label = "subject_id"
    label_dtype = object

    def _adopt(self, media_ids, frames, boxes, labels, media_tags) -> None:
        seen: set[tuple[str, int, str]] = set()
        for key in zip(media_ids, frames, labels):
            if key in seen:
                raise ValidationError(
                    f"duplicate ground truth for media {key[0]!r} frame {key[1]} subject {key[2]!r}"
                )
            seen.add(key)
        super()._adopt(media_ids, frames, boxes, labels, media_tags)


class EmbeddingStore:
    """Fixed-dimension feature vectors keyed by media_id.

    All vectors share one dimension; the backing matrix is read-only.
    Build one from records, or from ids and a ready matrix with from_matrix;
    both go through the same checks.
    """

    def __init__(self, records: Iterable[EmbeddingRecord]):
        records = tuple(records)
        dims = {rec.dim for rec in records}
        if len(dims) > 1:
            raise ValidationError(f"embedding dimensions disagree: {sorted(dims)}")
        matrix = np.array([rec.vector for rec in records], dtype=np.float64)
        matrix = matrix.reshape(len(records), dims.pop() if dims else 0)
        self._adopt(tuple(rec.media_id for rec in records), matrix)

    @classmethod
    def from_matrix(cls, media_ids: Iterable[str], matrix: np.ndarray) -> EmbeddingStore:
        """Store row i of a (count, dim) matrix under media_ids[i].

        The store takes ownership of the matrix (no copy when it is already
        float64) and marks it read-only.
        """
        store = cls.__new__(cls)
        store._adopt(tuple(media_ids), np.asarray(matrix, dtype=np.float64))
        return store

    def _adopt(self, ids: tuple[str, ...], matrix: np.ndarray) -> None:
        if matrix.ndim != 2:
            raise ValidationError(f"embedding matrix must be 2-D, got shape {matrix.shape}")
        if matrix.shape[0] != len(ids):
            raise ValidationError(
                f"{len(ids)} media ids for an embedding matrix of {matrix.shape[0]} rows"
            )
        if ids and matrix.shape[1] == 0:
            raise ValidationError(f"record 0: embedding for {ids[0]!r} is empty")
        finite = np.isfinite(matrix).all(axis=1)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ValidationError(f"record {i}: embedding for {ids[i]!r} has non-finite components")
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
        try:
            return self._matrix[self._index[media_id]]
        except KeyError:
            raise KeyError(f"no embedding for media {media_id!r}") from None

    def rows(self, media_ids: Sequence[str]) -> np.ndarray:
        """A new (len(media_ids), dim) matrix of the named media's vectors, in that order."""
        try:
            return self._matrix[[self._index[m] for m in media_ids]]
        except KeyError as exc:
            raise KeyError(f"no embedding for media {exc.args[0]!r}") from None


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
        mate_probe_ids=tuple(p.probe_id for p in manifest.mate_probes()),
        non_mate_probe_ids=tuple(p.probe_id for p in manifest.non_mate_probes()),
        distractor_count=manifest.distractor_count,
    )
