import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biomeval import (
    BoundingBox,
    MatchCounts,
    ValidationError,
    evaluate_detections,
    iou,
    match_frame,
    prf1,
)
from biomeval import detection
from biomeval.detection import DEFAULT_IOU_THRESHOLDS, iou_threshold
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

    def test_threshold_is_checked_as_evaluate_detections_checks_it(self):
        preds, gts = [det("m", 0, 0, 0, 10, 10, 0.9)], [gt("m", 0, 5, 5, 10, 10)]
        for value in (0, -1, 1.5, float("nan"), True, "0.5"):
            with pytest.raises(ValidationError, match=r"\(0, 1\]"):
                match_frame(preds, gts, value)

    def test_records_of_two_frames_are_rejected(self):
        box = (0, 0, 10, 10)
        for preds, gts in (([det("m", 0, *box, 0.9)], [gt("m", 1, *box)]),
                           ([det("m", 0, *box, 0.9)], [gt("n", 0, *box)]),
                           ([det("m", 0, *box, 0.9), det("m", 1, *box, 0.9)], []),
                           ([], [gt("m", 0, *box), gt("m", 2, *box)])):
            with pytest.raises(ValidationError, match="^match_frame takes one frame's records"):
                match_frame(preds, gts, 0.5)

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

    def test_negative_counts_rejected(self):
        with pytest.raises(ValidationError, match=r"^counts must be non-negative, "
                                                  r"got MatchCounts\(tp=-1, fp=0, fn=0\)$"):
            MatchCounts(-1, 0, 0)

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
        DetectionStore.from_records(det_records, media_tags=tags),
        GroundTruthStore.from_records(gt_records, media_tags=tags),
    )


class TestEvaluateDetections:
    def test_pooled_differs_from_macro(self):
        dets, gts = _two_group_stores()
        report = evaluate_detections(dets, gts, thresholds=(0.5,))
        alpha = report.per_group[("alpha", 0.5)]
        beta = report.per_group[("beta", 0.5)]
        assert alpha == MatchCounts(3, 1, 0)
        assert beta == MatchCounts(1, 0, 3)
        assert prf1(alpha)["f1"] == pytest.approx(6.0 / 7.0, abs=1e-15)
        assert prf1(beta)["f1"] == pytest.approx(0.4, abs=1e-15)
        pooled = report.pooled[0.5]
        assert pooled == MatchCounts(4, 1, 3)
        assert prf1(pooled)["f1"] == 2.0 / 3.0
        macro = (prf1(alpha)["f1"] + prf1(beta)["f1"]) / 2.0
        assert macro == pytest.approx(22.0 / 35.0, abs=1e-12)
        assert prf1(pooled)["f1"] != macro

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
            DetectionStore.from_records(det_records, media_tags=tags),
            GroundTruthStore.from_records(gt_records, media_tags=tags),
        )
        for thr in report.thresholds:
            assert report.pooled[thr] == report.per_group[("only", thr)]

    def test_pooled_counts_are_group_sums(self):
        dets, gts = _two_group_stores()
        report = evaluate_detections(dets, gts)
        for thr in report.thresholds:
            total = MatchCounts()
            for (tag, t), counts in report.per_group.items():
                if t == thr:
                    total = total + counts
            assert report.pooled[thr] == total

    def test_missing_tag_is_validation_error(self):
        dets = DetectionStore.from_records([det("m", 0, 0, 0, 1, 1, 0.5)])
        gts = GroundTruthStore.from_records([gt("m", 0, 0, 0, 1, 1)])
        with pytest.raises(ValidationError, match="dataset_tag"):
            evaluate_detections(dets, gts)

    @pytest.mark.parametrize("gt_tag, det_tag, media_tags, group, error", [
        ("a", "b", None, None, "media 'm' carries conflicting dataset tags 'a' and 'b'"),
        (None, "b", None, "b", None),
        (None, None, {"m": "c"}, "c", None),
        ("a", None, {"m": "c"}, None, "media 'm' carries conflicting dataset tags 'a' and 'c'"),
        (None, None, {"m": None}, None, "media 'm' has no dataset_tag in the media index"),
    ], ids=["conflict", "detections-fill-in", "media-fill-in", "media-conflict", "untagged"])
    def test_tags_merge_ground_truth_then_detections_then_media(self, gt_tag, det_tag,
                                                                media_tags, group, error):
        dets = DetectionStore.from_records([det("m", 0, 0, 0, 1, 1, 0.5)], media_tags={"m": det_tag})
        gts = GroundTruthStore.from_records([gt("m", 0, 0, 0, 1, 1)], media_tags={"m": gt_tag})
        if error is not None:
            with pytest.raises(ValidationError, match=rf"^{error}$"):
                evaluate_detections(dets, gts, media_tags=media_tags)
        else:
            assert evaluate_detections(dets, gts, media_tags=media_tags).groups == (group,)

    def test_bad_thresholds_rejected(self):
        dets, gts = _two_group_stores()
        with pytest.raises(ValidationError):
            evaluate_detections(dets, gts, thresholds=())
        with pytest.raises(ValidationError):
            evaluate_detections(dets, gts, thresholds=(0.0,))
        with pytest.raises(ValidationError):
            evaluate_detections(dets, gts, thresholds=(1.2,))
        for repeated in ((0.5, 0.5), (1, 1.0), (0.35, 0.7, 0.35)):
            with pytest.raises(ValidationError, match="must not repeat"):
                evaluate_detections(dets, gts, thresholds=repeated)


class TestIouThreshold:
    def test_accepts_the_half_open_unit_interval(self):
        for value in (1e-9, 0.5, 1, 1.0, np.float64(0.7)):
            assert iou_threshold(value) is value

    def test_rejects_everything_else(self):
        for value in (0, 0.0, -0.1, 1.5, float("nan"), float("inf"), True, "0.5", None):
            with pytest.raises(ValidationError, match=r"\(0, 1\]"):
                iou_threshold(value)


# Few levels per coordinate, size and score, so tied scores, tied areas and
# tied IoUs are common.
_boxes = st.tuples(
    st.sampled_from([0, 5, 10, 12.5]), st.sampled_from([0, 4, 10]),
    st.sampled_from([5, 10, 20]), st.sampled_from([5, 10, 20]),
)
_frame = st.tuples(
    st.lists(st.tuples(_boxes, st.sampled_from([0.0, 0.5, 0.9, 1.0])), max_size=9),
    st.lists(_boxes, max_size=8),
)


_TAGS = {"m0": "a", "m1": "b", "m2": "a"}
# Frame k's number: the first three share one number under three media, and the rest
# lie at and beyond the int64 range, with 2**64 and 2**64 + 1 (equal as floats) under m0.
_FRAME_NUMBERS = (7, 7, 7, 2**64, 2**63 - 1, 2**70, 2**64 + 1)


def _frame_records(frames):
    """Each frame's detection and ground-truth records: frame k goes to media
    m{k % 3} (tags a, b, a), frame number _FRAME_NUMBERS[k]."""
    keys = [(f"m{k % 3}", _FRAME_NUMBERS[k]) for k in range(len(frames))]
    return [([det(*key, *box, score) for box, score in preds],
             [gt(*key, *box, f"s{i}") for i, box in enumerate(truths)])
            for key, (preds, truths) in zip(keys, frames)]


def _stores(per_frame):
    """The frames' records in frame order."""
    det_records = [rec for preds, _ in per_frame for rec in preds]
    gt_records = [rec for _, truths in per_frame for rec in truths]
    return (DetectionStore.from_records(det_records, media_tags=_TAGS),
            GroundTruthStore.from_records(gt_records, media_tags=_TAGS))


def _oracle_counts(per_frame, thr) -> dict[str, MatchCounts]:
    """Per tag, the sum of match_frame_reference over the frames that hold a record."""
    want: dict[str, MatchCounts] = {}
    for preds, truths in per_frame:
        if preds or truths:
            tag = _TAGS[(preds or truths)[0].media_id]
            counts = MatchCounts(*match_frame_reference(preds, truths, thr))
            want[tag] = want.get(tag, MatchCounts()) + counts
    return want


def _interleaved(records, keys):
    """The records reordered so that row i belongs to frame keys[i]; each frame's own
    records keep their order."""
    queues: dict[tuple, list] = {}
    for rec in reversed(records):
        queues.setdefault((rec.media_id, rec.frame), []).append(rec)
    return [queues[key].pop() for key in keys]


class TestIntegerOrders:
    """The integer-key orders equal the sorts they stand for, on tie-heavy data."""

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(st.integers(0, 3), st.sampled_from([0.0, -0.0, 0.5, 1.0]),
                                   st.sampled_from([0.0, 1.0, 2.5, 6.0, np.inf])), max_size=60))
    # Area 0.0 is a w*h that underflows. The example ties frame and score, so only the
    # area, passed negated as the value, orders its rows.
    @example(rows=[(2, 0.5, 6.0), (2, 0.5, 0.0), (2, 0.5, 2.5), (2, 0.5, 6.0), (2, 0.5, 1.0)])
    def test_visiting_order_is_the_lexsort(self, rows):
        frame = np.array([f for f, _, _ in rows], dtype=np.int64)
        scores = np.array([score for _, score, _ in rows], dtype=np.float64)
        area = np.array([a for _, _, a in rows], dtype=np.float64)
        order = detection._visiting_order(frame, scores, area)
        assert order.tolist() == np.lexsort((area, -scores, frame)).tolist()

    @settings(max_examples=200, deadline=None)
    @given(pairs=st.lists(st.tuples(st.integers(0, 5), st.sampled_from([0.25, 0.5, 0.5 + 2**-52, 1.0])),
                          max_size=60),
           ascending=st.booleans())
    def test_candidate_order_is_the_lexsort(self, pairs, ascending):
        pairs = sorted(pairs, key=lambda pair: pair[0]) if ascending else pairs
        rank = np.array([r for r, _ in pairs], dtype=np.int64)
        value = np.array([v for _, v in pairs], dtype=np.float64)
        assert (detection._candidate_order(rank, value).tolist()
                == np.lexsort((-value, rank)).tolist())


class TestColumnarMatching:
    @settings(max_examples=80, deadline=None)
    @given(
        frames=st.lists(_frame, min_size=1, max_size=len(_FRAME_NUMBERS)),
        extra=st.lists(st.sampled_from([0.1, 0.35, 0.5, 0.7]), max_size=3, unique=True),
        chunk=st.sampled_from([1, 3, 16, detection.IOU_CHUNK_PAIRS]),
    )
    # Every frame key, with a box only predicted in even frames and only true in odd
    # ones: two keys taken as one frame would match them.
    @example(frames=[([((0, 0, 10, 10), 0.9)], []) if k % 2 == 0 else ([], [(0, 0, 10, 10)])
                     for k in range(len(_FRAME_NUMBERS))], extra=[0.5], chunk=3)
    def test_counts_equal_per_frame_oracle_sums(self, frames, extra, chunk):
        thresholds = tuple(extra) + (1.0,)
        per_frame = _frame_records(frames)
        dets, gts = _stores(per_frame)
        with mock.patch.object(detection, "IOU_CHUNK_PAIRS", chunk):
            report = evaluate_detections(dets, gts, thresholds)
        for thr in thresholds:
            for preds, truths in per_frame:
                counts = MatchCounts(*match_frame_reference(preds, truths, thr))
                assert match_frame(preds, truths, thr) == counts
            want = _oracle_counts(per_frame, thr)
            for tag, counts in want.items():
                assert report.per_group[(tag, thr)] == counts
            assert report.pooled[thr] == sum(want.values(), MatchCounts())

    @settings(max_examples=80, deadline=None)
    @given(frames=st.lists(_frame, min_size=1, max_size=6), data=st.data())
    def test_file_order_of_frames_changes_nothing(self, frames, data):
        """Stores keep their records in file order; frames interleaved in any other
        way, each frame's own records in order, give the same report."""
        per_frame = _frame_records(frames)
        dets, gts = _stores(per_frame)
        thresholds = (0.35, 0.7, 1.0)
        report = evaluate_detections(dets, gts, thresholds)

        def reinterleaved(store):
            keys = data.draw(st.permutations(list(zip(store.media_ids, store.frames))))
            records = _interleaved(store.records, keys)
            shuffled = type(store).from_records(records, media_tags=_TAGS)
            assert shuffled.records == tuple(records) and list(shuffled) == records
            assert type(store).from_records(shuffled.records, shuffled.media_tags) == shuffled
            return shuffled

        assert evaluate_detections(reinterleaved(dets), reinterleaved(gts), thresholds) == report
        for thr in thresholds:
            want = _oracle_counts(per_frame, thr)
            assert {tag: report.per_group[(tag, thr)] for tag in want} == want
            assert report.pooled[thr] == sum(want.values(), MatchCounts())

    def test_frame_larger_than_one_chunk_matches_oracle(self):
        rng = np.random.default_rng(50)
        side = 300  # 300 x 300 pairs, more than one chunk
        assert side * side > detection.IOU_CHUNK_PAIRS
        xy = rng.integers(0, 40, size=(side, 2)) * 5.0
        truths = [gt("m", 0, x, y, 20.0, 40.0, f"s{i}") for i, (x, y) in enumerate(xy)]
        preds = [
            det("m", 0, x + dx, y + dy, 20.0, 40.0, float(s))
            for (x, y), dx, dy, s in zip(xy, rng.integers(-2, 3, side) * 2.5,
                                         rng.integers(-2, 3, side) * 2.5, rng.choice([0.5, 0.9], side))
        ]
        tags = {"m": "crowd"}
        report = evaluate_detections(DetectionStore.from_records(preds, media_tags=tags),
                                     GroundTruthStore.from_records(truths, media_tags=tags),
                                     (0.35, 0.7, 1.0))
        for thr in (0.35, 0.7, 1.0):
            assert report.pooled[thr] == MatchCounts(*match_frame_reference(preds, truths, thr))

    def test_crowd_frame_memory_is_bounded(self):
        # One 3000 x 3000 frame: an unchunked float64 IoU matrix alone is 72 MB.
        ii, jj = np.divmod(np.arange(3000), 60)
        truths = [gt("m", 0, 20.0 * j, 40.0 * i, 30.0, 60.0, f"s{k}")
                  for k, (i, j) in enumerate(zip(ii.tolist(), jj.tolist()))]
        preds = [det("m", 0, 20.0 * j + 3.0, 40.0 * i - 2.0, 30.0, 60.0, 0.5 + (k % 7) / 20)
                 for k, (i, j) in enumerate(zip(ii.tolist(), jj.tolist()))]
        tags = {"m": "crowd"}
        dets = DetectionStore.from_records(preds, media_tags=tags)
        gts = GroundTruthStore.from_records(truths, media_tags=tags)
        tracemalloc.start()
        try:
            report = evaluate_detections(dets, gts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.pooled[0.35].tp == 3000
        assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_frame_numbers_beyond_int64(self):
        big = 2**70
        tags = {"m": "t"}
        dets = DetectionStore.from_records(
            [det("m", big, 0, 0, 10, 10, 0.9), det("m", 3, 0, 0, 10, 10, 0.9)], media_tags=tags)
        gts = GroundTruthStore.from_records(
            [gt("m", big, 0, 0, 10, 10), gt("m", big + 1, 0, 0, 10, 10)], media_tags=tags)
        assert dets.frames == (big, 3)
        assert evaluate_detections(dets, gts, (0.5,)).pooled[0.5] == MatchCounts(1, 1, 1)
