"""Immutable in-memory stores for detections, ground truth, embeddings, and media.

Stores are read-only after construction. Loading the same file twice
yields stores that compare equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import ValidationError, duplicates, preview
from .records import (
    DetectionRecord,
    EmbeddingRecord,
    GroundTruthRecord,
    MediaRecord,
    ProtocolManifest,
)


def _merge_media_tag(tags: dict[str, str | None], media_id: str, tag: str | None) -> None:
    known = tags.get(media_id)
    if known is None:
        tags[media_id] = tag
    elif tag is not None and tag != known:
        raise ValidationError(
            f"media {media_id!r} carries conflicting dataset tags {known!r} and {tag!r}"
        )


class DetectionStore:
    """Detection records grouped by (media_id, frame)."""

    def __init__(
        self,
        records: Iterable[DetectionRecord],
        media_tags: Mapping[str, str | None] | None = None,
    ):
        self._records = tuple(records)
        self._by_frame: dict[tuple[str, int], list[DetectionRecord]] = {}
        for rec in self._records:
            self._by_frame.setdefault((rec.media_id, rec.frame), []).append(rec)
        self._by_frame = {k: tuple(v) for k, v in self._by_frame.items()}
        tags: dict[str, str | None] = {}
        for rec in self._records:
            tags.setdefault(rec.media_id, None)
        for media_id, tag in (media_tags or {}).items():
            _merge_media_tag(tags, media_id, tag)
        self._media_tags = tags

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[DetectionRecord]:
        return iter(self._records)

    def __eq__(self, other) -> bool:
        return isinstance(other, DetectionStore) and self._records == other._records

    @property
    def records(self) -> tuple[DetectionRecord, ...]:
        return self._records

    @property
    def media_tags(self) -> dict[str, str | None]:
        return dict(self._media_tags)

    def frames(self) -> tuple[tuple[str, int], ...]:
        return tuple(self._by_frame)

    def at(self, media_id: str, frame: int) -> tuple[DetectionRecord, ...]:
        return self._by_frame.get((media_id, frame), ())


class GroundTruthStore:
    """Ground-truth records grouped by (media_id, frame).

    At most one box per (media_id, frame, subject_id) is allowed.
    """

    def __init__(
        self,
        records: Iterable[GroundTruthRecord],
        media_tags: Mapping[str, str | None] | None = None,
    ):
        self._records = tuple(records)
        seen: set[tuple[str, int, str]] = set()
        for rec in self._records:
            key = (rec.media_id, rec.frame, rec.subject_id)
            if key in seen:
                raise ValidationError(
                    f"duplicate ground truth for media {rec.media_id!r} "
                    f"frame {rec.frame} subject {rec.subject_id!r}"
                )
            seen.add(key)
        self._by_frame: dict[tuple[str, int], list[GroundTruthRecord]] = {}
        for rec in self._records:
            self._by_frame.setdefault((rec.media_id, rec.frame), []).append(rec)
        self._by_frame = {k: tuple(v) for k, v in self._by_frame.items()}
        tags: dict[str, str | None] = {}
        for rec in self._records:
            tags.setdefault(rec.media_id, None)
        for media_id, tag in (media_tags or {}).items():
            _merge_media_tag(tags, media_id, tag)
        self._media_tags = tags

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[GroundTruthRecord]:
        return iter(self._records)

    def __eq__(self, other) -> bool:
        return isinstance(other, GroundTruthStore) and self._records == other._records

    @property
    def records(self) -> tuple[GroundTruthRecord, ...]:
        return self._records

    @property
    def media_tags(self) -> dict[str, str | None]:
        return dict(self._media_tags)

    def frames(self) -> tuple[tuple[str, int], ...]:
        return tuple(self._by_frame)

    def at(self, media_id: str, frame: int) -> tuple[GroundTruthRecord, ...]:
        return self._by_frame.get((media_id, frame), ())


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
