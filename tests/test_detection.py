import numpy as np
import pytest

from biomeval import (
    BoundingBox,
    MatchCounts,
    ValidationError,
    evaluate_detections,
    iou,
    match_frame,
    prf1,
)
from biomeval.detection import DEFAULT_IOU_THRESHOLDS
from biomeval.stores import DetectionStore, GroundTruthStore

from conftest import det, gt, random_frame
from oracles import iou_reference, match_frame_reference


def random_box(rng):
    x, y = rng.uniform(-50, 200, size=2)
    w, h = rng.uniform(1, 80, size=2)
    return BoundingBox(float(x), float(y), float(w), float(h))


class TestIou:
    def test_identical_boxes(self):
        box = BoundingBox(3.0, 4.0, 10.0, 10.0)
        assert iou(box, box) == 1.0

    def test_half_offset_overlap(self):
        value = iou(BoundingBox(0, 0, 10, 10), BoundingBox(5, 0, 10, 10))
        assert value == pytest.approx(50.0 / 150.0, abs=1e-12)

    def test_disjoint(self):
        assert iou(BoundingBox(0, 0, 1, 1), BoundingBox(5, 5, 1, 1)) == 0.0

    def test_edge_touching_is_zero(self):
        assert iou(BoundingBox(0, 0, 1, 1), BoundingBox(1, 0, 1, 1)) == 0.0

    def test_symmetry_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            a, b = random_box(rng), random_box(rng)
            assert iou(a, b) == iou(b, a)
            assert 0.0 <= iou(a, b) <= 1.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            a, b = random_box(rng), random_box(rng)
            s = float(rng.uniform(0.1, 50.0))
            scaled_a = BoundingBox(a.x * s, a.y * s, a.w * s, a.h * s)
            scaled_b = BoundingBox(b.x * s, b.y * s, b.w * s, b.h * s)
            assert iou(scaled_a, scaled_b) == pytest.approx(iou(a, b), abs=1e-12)

    def test_matches_reference(self):
        rng = np.random.default_rng(44)
        for _ in range(300):
            a, b = random_box(rng), random_box(rng)
            assert iou(a, b) == pytest.approx(iou_reference(a, b), abs=1e-12)


class TestMatchFrame:
    def test_single_match_above_threshold(self):
        # IoU of these boxes is 6/14 ~ 0.6 at overlap 0.6 of the width.
        preds = [det("m", 0, 0, 0, 10, 10, 0.9)]
        gts = [gt("m", 0, 2.5, 0, 10, 10, "s")]
        overlap = iou(preds[0].box, gts[0].box)
        assert 0.5 < overlap < 0.7
        assert match_frame(preds, gts, 0.5) == MatchCounts(1, 0, 0)
        assert match_frame(preds, gts, 0.7) == MatchCounts(0, 1, 1)

    def test_no_predictions(self):
        assert match_frame([], [gt("m", 0, 0, 0, 1, 1)], 0.5) == MatchCounts(0, 0, 1)

    def test_greedy_score_priority(self):
        # Both predictions overlap the single gt; the higher score claims it.
        gts = [gt("m", 0, 0, 0, 10, 10)]
        preds = [
            det("m", 0, 0, 0, 10, 10, 0.3),
            det("m", 0, 1, 0, 10, 10, 0.9),
        ]
        counts = match_frame(preds, gts, 0.5)
        assert counts == MatchCounts(1, 1, 0)

    def test_count_identities_randomized(self):
        rng = np.random.default_rng(45)
        for _ in range(200):
            preds, gts = random_frame(rng)
            for thr in (0.35, 0.5, 0.7):
                counts = match_frame(preds, gts, thr)
                assert counts.tp + counts.fp == len(preds)
                assert counts.tp + counts.fn == len(gts)

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(46)
        for _ in range(100):
            preds, gts = random_frame(rng)
            tps = [match_frame(preds, gts, thr).tp for thr in (0.2, 0.35, 0.5, 0.7, 0.9)]
            assert all(b <= a for a, b in zip(tps, tps[1:]))

    def test_matches_exhaustive_reference(self):
        rng = np.random.default_rng(47)
        for _ in range(300):
            preds, gts = random_frame(rng)
            for thr in (0.35, 0.5, 0.7):
                counts = match_frame(preds, gts, thr)
                assert (counts.tp, counts.fp, counts.fn) == match_frame_reference(preds, gts, thr)


class TestPrf1:
    def test_balanced_counts(self):
        scores = prf1(MatchCounts(1, 1, 1))
        assert scores == {"precision": 0.5, "recall": 0.5, "f1": 0.5}

    def test_perfect(self):
        assert prf1(MatchCounts(2, 0, 0)) == {"precision": 1.0, "recall": 1.0, "f1": 1.0}

    def test_empty_frame_convention(self):
        assert prf1(MatchCounts(0, 0, 0)) == {"precision": 1.0, "recall": 1.0, "f1": 1.0}

    def test_zero_denominators_without_empty_frame(self):
        assert prf1(MatchCounts(0, 5, 0)) == {"precision": 0.0, "recall": 0.0, "f1": 0.0}
        assert prf1(MatchCounts(0, 0, 5)) == {"precision": 0.0, "recall": 0.0, "f1": 0.0}

    def test_f1_range_and_perfection_condition(self):
        rng = np.random.default_rng(48)
        for _ in range(500):
            counts = MatchCounts(*[int(v) for v in rng.integers(0, 20, size=3)])
            f1 = prf1(counts)["f1"]
            assert 0.0 <= f1 <= 1.0
            assert (f1 == 1.0) == (counts.fp == 0 and counts.fn == 0)


def _two_group_stores():
    """Counts (3,1,0) for alpha and (1,0,3) for beta at any threshold."""
    det_records, gt_records = [], []
    for i in range(3):
        det_records.append(det("a1", i, 100.0 * i, 0, 10, 10, 0.9))
        gt_records.append(gt("a1", i, 100.0 * i, 0, 10, 10, f"s{i}"))
    det_records.append(det("a1", 0, 500, 500, 5, 5, 0.8))
    for i in range(4):
        gt_records.append(gt("b1", i, 50.0 * i, 0, 8, 8, f"s{i}"))
    det_records.append(det("b1", 0, 0, 0, 8, 8, 0.7))
    tags = {"a1": "alpha", "b1": "beta"}
    return (
        DetectionStore(det_records, media_tags=tags),
        GroundTruthStore(gt_records, media_tags=tags),
    )


class TestEvaluateDetections:
    def test_pooled_differs_from_macro(self):
        dets, gts = _two_group_stores()
        report = evaluate_detections(dets, gts, thresholds=(0.5,))
        alpha = report.per_group[("alpha", 0.5)]
        beta = report.per_group[("beta", 0.5)]
        assert alpha.counts == MatchCounts(3, 1, 0)
        assert beta.counts == MatchCounts(1, 0, 3)
        assert alpha.f1 == pytest.approx(6.0 / 7.0, abs=1e-15)
        assert beta.f1 == pytest.approx(0.4, abs=1e-15)
        pooled = report.pooled[0.5]
        assert pooled.counts == MatchCounts(4, 1, 3)
        assert pooled.f1 == 2.0 / 3.0
        macro = (alpha.f1 + beta.f1) / 2.0
        assert macro == pytest.approx(22.0 / 35.0, abs=1e-12)
        assert pooled.f1 != macro

    def test_default_thresholds(self):
        assert DEFAULT_IOU_THRESHOLDS == (0.35, 0.5, 0.7)
        dets, gts = _two_group_stores()
        report = evaluate_detections(dets, gts)
        assert report.thresholds == (0.35, 0.5, 0.7)

    def test_single_group_pooled_equals_group(self):
        rng = np.random.default_rng(49)
        det_records, gt_records = [], []
        for frame in range(10):
            preds, gts_frame = random_frame(rng)
            for p in preds:
                det_records.append(det("m", frame, p.box.x, p.box.y, p.box.w, p.box.h, p.score))
            for g in gts_frame:
                gt_records.append(gt("m", frame, g.box.x, g.box.y, g.box.w, g.box.h, g.subject_id))
        tags = {"m": "only"}
        report = evaluate_detections(
            DetectionStore(det_records, media_tags=tags),
            GroundTruthStore(gt_records, media_tags=tags),
        )
        for thr in report.thresholds:
            assert report.pooled[thr] == report.per_group[("only", thr)]

    def test_pooled_counts_are_group_sums(self):
        dets, gts = _two_group_stores()
        report = evaluate_detections(dets, gts)
        for thr in report.thresholds:
            total = MatchCounts()
            for (tag, t), scores in report.per_group.items():
                if t == thr:
                    total = total + scores.counts
            assert report.pooled[thr].counts == total

    def test_missing_tag_is_validation_error(self):
        dets = DetectionStore([det("m", 0, 0, 0, 1, 1, 0.5)])
        gts = GroundTruthStore([gt("m", 0, 0, 0, 1, 1)])
        with pytest.raises(ValidationError, match="dataset_tag"):
            evaluate_detections(dets, gts)

    def test_bad_thresholds_rejected(self):
        dets, gts = _two_group_stores()
        with pytest.raises(ValidationError):
            evaluate_detections(dets, gts, thresholds=())
        with pytest.raises(ValidationError):
            evaluate_detections(dets, gts, thresholds=(0.0,))
        with pytest.raises(ValidationError):
            evaluate_detections(dets, gts, thresholds=(1.2,))
