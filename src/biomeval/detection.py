"""Detection quality scoring: IoU, per-frame matching, F1 at multiple thresholds.

Per-group metrics come from counts summed over that group's frames; pooled
metrics come from globally summed counts (micro-pooling), which is not the
mean of the per-group scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import ValidationError
from .records import BoundingBox, DetectionRecord, GroundTruthRecord
from .stores import DetectionStore, GroundTruthStore, _merge_media_tag

DEFAULT_IOU_THRESHOLDS = (0.35, 0.5, 0.7)


@dataclass(frozen=True)
class MatchCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    def __post_init__(self):
        if self.tp < 0 or self.fp < 0 or self.fn < 0:
            raise ValidationError(f"counts must be non-negative, got {self}")

    def __add__(self, other: "MatchCounts") -> "MatchCounts":
        return MatchCounts(self.tp + other.tp, self.fp + other.fp, self.fn + other.fn)


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes, in [0, 1]."""
    ix = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
    iy = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


def match_frame(
    preds: Sequence[DetectionRecord],
    gts: Sequence[GroundTruthRecord],
    threshold: float,
) -> MatchCounts:
    """Greedy one-to-one matching of one frame's predictions to its ground truth.

    Predictions are visited in descending score order (ties: smaller box
    area, then input order); each claims the still-unmatched ground truth
    of highest IoU, provided that IoU reaches the threshold. Matched
    predictions are tp, leftover predictions fp, leftover ground truths fn.
    """
    order = sorted(range(len(preds)), key=lambda i: (-preds[i].score, preds[i].box.area, i))
    taken = [False] * len(gts)
    tp = 0
    for i in order:
        best_j = -1
        best_iou = 0.0
        for j, gt in enumerate(gts):
            if taken[j]:
                continue
            overlap = iou(preds[i].box, gt.box)
            if overlap > best_iou:
                best_iou = overlap
                best_j = j
        if best_j >= 0 and best_iou >= threshold:
            taken[best_j] = True
            tp += 1
    return MatchCounts(tp=tp, fp=len(preds) - tp, fn=len(gts) - tp)


def prf1(counts: MatchCounts) -> dict[str, float]:
    """Precision, recall, and F1 from match counts.

    Empty-frame convention: with tp = fp = fn = 0 all three scores are 1.0
    (a detector that stays silent on an empty frame is not penalized); any
    other zero denominator scores 0.0. F1 uses the count form
    2*tp / (2*tp + fp + fn), algebraically equal to 2PR/(P+R).
    """
    tp, fp, fn = counts.tp, counts.fp, counts.fn
    if tp == 0 and fp == 0 and fn == 0:
        return {"precision": 1.0, "recall": 1.0, "f1": 1.0}
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn > 0 else 0.0
    return {"precision": precision, "recall": recall, "f1": f1}


@dataclass(frozen=True)
class GroupScores:
    counts: MatchCounts
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, counts: MatchCounts) -> "GroupScores":
        scores = prf1(counts)
        return cls(counts, scores["precision"], scores["recall"], scores["f1"])

    def as_dict(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "tp": self.counts.tp,
            "fp": self.counts.fp,
            "fn": self.counts.fn,
        }


@dataclass(frozen=True)
class DetectionReport:
    thresholds: tuple[float, ...]
    per_group: dict[tuple[str, float], GroupScores]
    pooled: dict[float, GroupScores]

    @property
    def groups(self) -> tuple[str, ...]:
        return tuple(sorted({tag for tag, _ in self.per_group}))

    def to_dict(self) -> dict:
        groups: dict[str, dict[str, dict]] = {}
        for (tag, thr), scores in sorted(self.per_group.items()):
            groups.setdefault(tag, {})[repr(thr)] = scores.as_dict()
        pooled = {repr(thr): scores.as_dict() for thr, scores in sorted(self.pooled.items())}
        return {
            "iou_thresholds": list(self.thresholds),
            "groups": groups,
            "pooled": pooled,
        }


def _resolve_tags(
    dets: DetectionStore,
    gts: GroundTruthStore,
    media_tags: Mapping[str, str] | None,
) -> dict[str, str | None]:
    tags: dict[str, str | None] = {}
    for source in (gts.media_tags, dets.media_tags, media_tags or {}):
        for media_id, tag in source.items():
            _merge_media_tag(tags, media_id, tag)
    return tags


def evaluate_detections(
    dets: DetectionStore,
    gts: GroundTruthStore,
    thresholds: Sequence[float] = DEFAULT_IOU_THRESHOLDS,
    media_tags: Mapping[str, str] | None = None,
) -> DetectionReport:
    """Score detections against ground truth at each IoU threshold.

    Grouping is by dataset_tag, taken from the stores' media tags (an
    explicit media_tags mapping may supply or override them). Every medium
    under evaluation must resolve to a tag.
    """
    thresholds = tuple(thresholds)
    if not thresholds:
        raise ValidationError("at least one IoU threshold is required")
    for thr in thresholds:
        if not (0.0 < thr <= 1.0):
            raise ValidationError(f"IoU thresholds must lie in (0, 1], got {thr!r}")
    tags = _resolve_tags(dets, gts, media_tags)

    frames = sorted(set(dets.frames()) | set(gts.frames()))
    for media_id, _ in frames:
        if tags.get(media_id) is None:
            raise ValidationError(f"media {media_id!r} has no dataset_tag in the media index")

    per_group: dict[tuple[str, float], MatchCounts] = {}
    pooled: dict[float, MatchCounts] = {thr: MatchCounts() for thr in thresholds}
    for media_id, frame in frames:
        preds = dets.at(media_id, frame)
        truth = gts.at(media_id, frame)
        for thr in thresholds:
            counts = match_frame(preds, truth, thr)
            key = (tags[media_id], thr)
            per_group[key] = per_group.get(key, MatchCounts()) + counts
            pooled[thr] = pooled[thr] + counts

    return DetectionReport(
        thresholds=thresholds,
        per_group={key: GroupScores.from_counts(c) for key, c in per_group.items()},
        pooled={thr: GroupScores.from_counts(c) for thr, c in pooled.items()},
    )
