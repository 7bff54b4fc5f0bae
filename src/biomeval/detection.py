"""Detection quality scoring: IoU, per-frame matching, F1 at multiple thresholds.

Per-group metrics come from counts summed over that group's frames; pooled
metrics come from globally summed counts (micro-pooling), which is not the
mean of the per-group scores.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from numbers import Real
from typing import Mapping, Sequence

import numpy as np

from .errors import ValidationError, brief, no_repeats, preview
from .records import BoundingBox, DetectionRecord, GroundTruthRecord
from .stores import DetectionStore, GroundTruthStore, box_columns

DEFAULT_IOU_THRESHOLDS = (0.35, 0.5, 0.7)
# Same-frame (prediction, ground truth) pairs scored at a time; bounds memory in crowds.
IOU_CHUNK_PAIRS = 1 << 16


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


def iou_threshold(value):
    """Check one IoU threshold: a real number in (0, 1]. Returns it unchanged."""
    if isinstance(value, bool) or not isinstance(value, Real) or not (0.0 < value <= 1.0):
        raise ValidationError(f"IoU thresholds must lie in (0, 1], got {brief(value)}")
    return value


def iou_thresholds(values) -> tuple:
    """Check a list of IoU thresholds: at least one, each one by iou_threshold, none twice
    (1 and 1.0 are the same threshold). Returns them as a tuple, unchanged."""
    thresholds = tuple(iou_threshold(v) for v in values)
    if not thresholds:
        raise ValidationError("at least one IoU threshold is required")
    return no_repeats("IoU thresholds", thresholds)


def _visiting_order(frame: np.ndarray, scores: np.ndarray, area: np.ndarray) -> np.ndarray:
    """Rows by frame, descending score, then area; ties keep row order. This is
    np.lexsort((area, -scores, frame)) as _candidate_order's sort, with the dense
    rank of (frame, descending score) as the rank and -area as the value. A dense
    rank is np.unique's inverse, so equal keys (+0.0 and -0.0 too) share one. Frame
    codes are first-row indices, so each factor of a key is below n, the row count
    of both stores, and int64 cannot overflow."""
    score_levels, by_score = np.unique(-scores, return_inverse=True)
    return _candidate_order(np.unique(frame * score_levels.size + by_score, return_inverse=True)[1], -area)


def _candidate_order(rank: np.ndarray, value: np.ndarray) -> np.ndarray:
    """Positions by rank (non-negative ints), then descending value; ties keep
    position order. This is np.lexsort((-value, rank)) as one stable argsort of an
    integer key below (max rank + 1) * len(value): in _match, the prediction count
    times a chunk's pairs."""
    value_levels, by_value = np.unique(-value, return_inverse=True)
    return np.argsort(rank * value_levels.size + by_value, kind="stable")


def _match(pred_frame, pred_boxes, scores, gt_frame, gt_boxes, thresholds) -> list[np.ndarray]:
    """The prediction rows each threshold matches: match_frame's rule on every frame at once.

    Rows carry a frame number (ground truth sorted by it) and x, y, w, h
    columns. Same-frame pairs are scored in visiting order, at most
    IOU_CHUNK_PAIRS at a time (more only for one prediction facing a larger
    frame), with iou()'s operations, so every IoU equals iou()'s. The best
    untaken ground truth matches only if it reaches the threshold, so per
    threshold each prediction takes its first untaken pair, by descending
    IoU (ties: lower row), among the pairs that reach it.
    """
    (px, py, pw, ph), (gx, gy, gw, gh) = pred_boxes, gt_boxes
    parea, garea = pw * ph, gw * gh
    order = _visiting_order(pred_frame, scores, parea)
    first = np.searchsorted(gt_frame, pred_frame[order], "left")
    pairs = np.searchsorted(gt_frame, pred_frame[order], "right") - first
    ends = np.cumsum(pairs)
    taken = [bytearray(len(gx)) for _ in thresholds]
    matched: list[list[int]] = [[] for _ in thresholds]
    start = 0
    while start < len(order):
        base = ends[start] - pairs[start]
        stop = max(start + 1, int(np.searchsorted(ends, base + IOU_CHUNK_PAIRS, "right")))
        n = pairs[start:stop]
        rank = np.repeat(np.arange(start, stop), n)
        g = np.arange(ends[stop - 1] - base) + np.repeat(first[start:stop] - ends[start:stop] + n + base, n)
        p = order[rank]
        ix = np.minimum(px[p] + pw[p], gx[g] + gw[g]) - np.maximum(px[p], gx[g])
        iy = np.minimum(py[p] + ph[p], gy[g] + gh[g]) - np.maximum(py[p], gy[g])
        hit = (ix > 0) & (iy > 0)
        rank, g, p, inter = rank[hit], g[hit], p[hit], ix[hit] * iy[hit]
        with np.errstate(invalid="ignore", divide="ignore"):
            value = inter / (parea[p] + garea[g] - inter)
        keep = np.flatnonzero((value > 0) & (value >= min(thresholds)))
        keep = keep[_candidate_order(rank[keep], value[keep])]  # ground truth stays ascending
        for thr, took, rows in zip(thresholds, taken, matched):
            reach = keep[value[keep] >= thr]
            done = -1
            for r, j in zip(rank[reach].tolist(), g[reach].tolist()):
                if r != done and not took[j]:
                    took[j], done = 1, r
                    rows.append(r)
        start = stop
    return [order[np.array(rows, dtype=np.int64)] for rows in matched]


def match_frame(
    preds: Sequence[DetectionRecord],
    gts: Sequence[GroundTruthRecord],
    threshold: float,
) -> MatchCounts:
    """Greedy one-to-one matching of one frame's predictions to its ground truth.

    Predictions are visited in descending score order (ties: smaller box
    area, then input order); each claims the still-unmatched ground truth
    of highest IoU (ties: the earlier one), provided that IoU reaches the
    threshold. Matched predictions are tp, leftover predictions fp,
    leftover ground truths fn. The threshold is checked by iou_threshold, and
    every record must share one (media_id, frame).
    """
    threshold = iou_threshold(threshold)
    frames = sorted({(rec.media_id, rec.frame) for rec in (*preds, *gts)})
    if len(frames) > 1:
        raise ValidationError(f"match_frame takes one frame's records, got {preview(frames)}")
    scores = np.array([rec.score for rec in preds], dtype=np.float64)
    (rows,) = _match(np.zeros(len(preds), dtype=np.int64), box_columns(preds), scores,
                     np.zeros(len(gts), dtype=np.int64), box_columns(gts), (threshold,))
    return MatchCounts(tp=len(rows), fp=len(preds) - len(rows), fn=len(gts) - len(rows))


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
class DetectionReport:
    thresholds: tuple[float, ...]
    per_group: dict[tuple[str, float], MatchCounts]
    pooled: dict[float, MatchCounts]

    @property
    def groups(self) -> tuple[str, ...]:
        return tuple(sorted({tag for tag, _ in self.per_group}))

    def to_dict(self) -> dict:
        groups: dict[str, dict[str, dict]] = {}
        for (tag, thr), counts in sorted(self.per_group.items()):
            groups.setdefault(tag, {})[repr(thr)] = {**prf1(counts), **asdict(counts)}
        pooled = {repr(thr): {**prf1(c), **asdict(c)} for thr, c in sorted(self.pooled.items())}
        return {
            "iou_thresholds": list(self.thresholds),
            "groups": groups,
            "pooled": pooled,
        }


def _merge_media_tags(*sources: Mapping[str, str | None]) -> dict[str, str | None]:
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
                    f"media {brief(media_id)} carries conflicting dataset tags {brief(known)} "
                    f"and {brief(tag)}"
                )
    return tags


def evaluate_detections(
    dets: DetectionStore,
    gts: GroundTruthStore,
    thresholds: Sequence[float] = DEFAULT_IOU_THRESHOLDS,
    media_tags: Mapping[str, str] | None = None,
) -> DetectionReport:
    """Score detections against ground truth at each IoU threshold.

    Grouping is by dataset_tag, merged (_merge_media_tags) from the ground
    truth's media tags, then the detections', then media_tags. Every medium
    under evaluation must resolve to a tag.
    """
    thresholds = iou_thresholds(thresholds)
    tags = _merge_media_tags(gts.media_tags, dets.media_tags, media_tags or {})

    media = sorted(set(dets.media_ids).union(gts.media_ids))
    for media_id in media:
        if tags.get(media_id) is None:
            raise ValidationError(f"media {brief(media_id)} has no dataset_tag in the media index")
    groups = sorted({tags[media_id] for media_id in media})
    group_of = {tag: i for i, tag in enumerate(groups)}

    # A row's frame code is the first row, detections then ground truth, with its
    # (media_id, frame) key: equal keys share it, frames stay Python ints whatever
    # their size, and codes stay below the row count.
    first_row: dict[tuple[str, int], int] = {}
    pred_frame, gt_frame = (
        np.fromiter(map(first_row.setdefault, zip(store.media_ids, store.frames),
                        range(start, start + len(store))), dtype=np.int64, count=len(store))
        for store, start in ((dets, 0), (gts, len(dets))))
    key_group = np.zeros(len(dets) + len(gts), dtype=np.int64)
    key_group[list(first_row.values())] = [group_of[tags[media_id]] for media_id, _ in first_row]
    pred_group, gt_group = key_group[pred_frame], key_group[gt_frame]
    del first_row, key_group  # released before _match, which sets eval-det's peak

    def group_counts(row_group: np.ndarray) -> list[int]:
        return np.bincount(row_group, minlength=len(groups)).tolist()

    # Within a frame both stores keep file order, which _match's tie rules read.
    gt_order = np.argsort(gt_frame, kind="stable")
    matched = _match(pred_frame, dets.boxes, dets.labels,
                     gt_frame[gt_order], gts.boxes[:, gt_order], thresholds)
    per_group: dict[tuple[str, float], MatchCounts] = {}
    pooled: dict[float, MatchCounts] = {thr: MatchCounts() for thr in thresholds}
    for thr, rows in zip(thresholds, matched):
        for tag, tp, n_pred, n_gt in zip(
            groups, group_counts(pred_group[rows]), group_counts(pred_group), group_counts(gt_group)
        ):
            per_group[(tag, thr)] = MatchCounts(tp, n_pred - tp, n_gt - tp)
            pooled[thr] = pooled[thr] + per_group[(tag, thr)]

    return DetectionReport(thresholds=thresholds, per_group=per_group, pooled=pooled)
