"""Domain types: boxes, annotation records, media, protocols."""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral

from .errors import ValidationError, brief, duplicates, preview

MODALITIES = ("image", "video")


def _check_integer(name: str, value, least: int) -> None:
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {brief(value)}")
    if value < least:
        qualifier = "non-negative" if least == 0 else "positive"
        raise ValidationError(f"{name} must be {qualifier}, got {value}")


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box with top-left origin, encoded as (x, y, w, h) in pixels."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        for name in ("x", "y", "w", "h"):
            value = getattr(self, name)
            # False for NaN, infinities and ints beyond the float range.
            if not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
                raise ValidationError(f"box {name} must be a finite number, got {brief(value)}")
        if self.w <= 0 or self.h <= 0:
            raise ValidationError(f"box sides must be positive, got w={self.w}, h={self.h}")

    @classmethod
    def from_corners(cls, x1: float, y1: float, x2: float, y2: float) -> BoundingBox:
        """Build from (x1, y1, x2, y2) corners; requires x2 > x1 and y2 > y1."""
        return cls(x1, y1, x2 - x1, y2 - y1)

    @property
    def area(self) -> float:
        return self.w * self.h

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x, self.y, self.w, self.h)


@dataclass(frozen=True)
class DetectionRecord:
    media_id: str
    frame: int
    box: BoundingBox
    score: float

    def __post_init__(self):
        _check_integer("frame index", self.frame, 0)
        # The comparison is False for NaN, so NaN scores are rejected too.
        if not (0.0 <= self.score <= 1.0):
            raise ValidationError(f"score must lie in [0, 1], got {brief(self.score)}")


@dataclass(frozen=True)
class GroundTruthRecord:
    media_id: str
    frame: int
    box: BoundingBox
    subject_id: str

    def __post_init__(self):
        _check_integer("frame index", self.frame, 0)


@dataclass(frozen=True)
class MediaRecord:
    media_id: str
    subject_id: str
    dataset_tag: str
    modality: str
    frame_count: int

    def __post_init__(self):
        if self.modality not in MODALITIES:
            raise ValidationError(f"modality must be one of {MODALITIES}, got {brief(self.modality)}")
        _check_integer("frame_count", self.frame_count, 1)
        if self.modality == "image" and self.frame_count != 1:
            raise ValidationError(f"still image {brief(self.media_id)} must have frame_count 1")


@dataclass(frozen=True)
class GalleryEntry:
    subject_id: str
    media_ids: tuple[str, ...]
    distractor: bool = False

    def __post_init__(self):
        if len(self.media_ids) == 0:
            raise ValidationError(f"gallery subject {brief(self.subject_id)} lists no media")


@dataclass(frozen=True)
class ProbeEntry:
    probe_id: str
    media_id: str
    true_subject_id: str | None = None


@dataclass(frozen=True)
class ProtocolManifest:
    """Gallery and probe definitions for one identification protocol.

    A probe whose true_subject_id is enrolled in the gallery is a mate
    search; any other probe (unknown or absent subject) is a non-mate
    search. Distractor gallery subjects must have no mate probes, a medium
    is enrolled under at most one gallery subject, and no probe's medium
    may be a gallery medium.
    """

    gallery: tuple[GalleryEntry, ...]
    probes: tuple[ProbeEntry, ...]

    def __post_init__(self):
        subjects = [e.subject_id for e in self.gallery]
        if len(set(subjects)) != len(subjects):
            raise ValidationError(f"duplicate gallery subject ids: {preview(duplicates(subjects))}")
        probe_ids = [p.probe_id for p in self.probes]
        if len(set(probe_ids)) != len(probe_ids):
            raise ValidationError(f"duplicate probe ids: {preview(duplicates(probe_ids))}")
        distractors = {e.subject_id for e in self.gallery if e.distractor}
        mated_distractors = sorted(
            {p.true_subject_id for p in self.probes if p.true_subject_id in distractors}
        )
        if mated_distractors:
            raise ValidationError(
                f"distractor subjects have mate probes: {preview(mated_distractors)}"
            )
        enrolled_by: dict[str, str] = {}
        for e in self.gallery:
            for m in e.media_ids:
                subject = enrolled_by.setdefault(m, e.subject_id)
                if subject != e.subject_id:
                    raise ValidationError(
                        f"medium {brief(m)} is enrolled in gallery subjects {brief(subject)} "
                        f"and {brief(e.subject_id)}"
                    )
        for p in self.probes:
            if p.media_id in enrolled_by:
                raise ValidationError(
                    f"probe {brief(p.probe_id)} uses medium {brief(p.media_id)}, which is enrolled "
                    f"in gallery subject {brief(enrolled_by[p.media_id])}"
                )

    @property
    def subject_ids(self) -> tuple[str, ...]:
        return tuple(e.subject_id for e in self.gallery)

    @property
    def distractor_count(self) -> int:
        return sum(1 for e in self.gallery if e.distractor)

    @cached_property
    def enrolled_subjects(self) -> frozenset[str]:
        """Gallery subject ids as a set, built once per manifest."""
        return frozenset(self.subject_ids)

    def is_mate(self, probe: ProbeEntry) -> bool:
        return probe.true_subject_id is not None and probe.true_subject_id in self.enrolled_subjects

    def mate_probes(self) -> tuple[ProbeEntry, ...]:
        return tuple(p for p in self.probes if self.is_mate(p))

    def non_mate_probes(self) -> tuple[ProbeEntry, ...]:
        return tuple(p for p in self.probes if not self.is_mate(p))

    def referenced_media(self) -> tuple[str, ...]:
        """All media ids named by the protocol, gallery first, duplicates removed."""
        seen: dict[str, None] = {}
        for entry in self.gallery:
            for m in entry.media_ids:
                seen.setdefault(m, None)
        for p in self.probes:
            seen.setdefault(p.media_id, None)
        return tuple(seen)
