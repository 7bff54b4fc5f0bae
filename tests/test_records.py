import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from biomeval import (
    BoundingBox,
    DetectionRecord,
    GalleryEntry,
    GroundTruthRecord,
    MediaRecord,
    ProbeEntry,
    ProtocolManifest,
    ValidationError,
)
from biomeval.stores import (
    DetectionStore,
    EmbeddingStore,
    GroundTruthStore,
    MediaIndex,
    validate_protocol,
)


class TestBoundingBox:
    def test_valid_box(self):
        box = BoundingBox(1.0, 2.0, 3.0, 4.0)
        assert box.area == 12.0
        assert box.as_tuple() == (1.0, 2.0, 3.0, 4.0)

    @pytest.mark.parametrize("w,h", [(0.0, 5.0), (5.0, 0.0), (-1.0, 5.0)])
    def test_non_positive_sides_rejected(self, w, h):
        with pytest.raises(ValidationError):
            BoundingBox(0.0, 0.0, w, h)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValidationError):
            BoundingBox(bad, 0.0, 1.0, 1.0)

    def test_far_offscreen_coordinates_allowed(self):
        # Subjects can sit at extreme frame corners; no upper bound applies.
        BoundingBox(1e6, -50.0, 2.0, 2.0)

    def test_from_corners(self):
        assert BoundingBox.from_corners(1.0, 2.0, 4.0, 7.0) == BoundingBox(1.0, 2.0, 3.0, 5.0)


class TestRecords:
    def test_detection_score_range(self):
        box = BoundingBox(0, 0, 1, 1)
        DetectionRecord("m", 0, box, 0.0)
        DetectionRecord("m", 0, box, 1.0)
        with pytest.raises(ValidationError):
            DetectionRecord("m", 0, box, 1.5)
        with pytest.raises(ValidationError):
            DetectionRecord("m", 0, box, math.nan)
        with pytest.raises(ValidationError):
            DetectionRecord("m", -1, box, 0.5)

    def test_media_record_image_frame_count(self):
        MediaRecord("m", "s", "tag", "image", 1)
        MediaRecord("v", "s", "tag", "video", 900)
        with pytest.raises(ValidationError):
            MediaRecord("m", "s", "tag", "image", 2)
        with pytest.raises(ValidationError):
            MediaRecord("m", "s", "tag", "hologram", 1)


class TestProtocolManifest:
    def test_duplicate_gallery_subjects_rejected(self):
        with pytest.raises(ValidationError):
            ProtocolManifest(
                gallery=(GalleryEntry("g1", ("m1",)), GalleryEntry("g1", ("m2",))),
                probes=(),
            )

    def test_gallery_entry_without_media_rejected(self):
        with pytest.raises(ValidationError, match=r"^gallery subject 's' lists no media$"):
            GalleryEntry("s", ())

    def test_duplicate_subjects_and_probes_listed_boundedly(self):
        gallery = tuple(GalleryEntry(f"g{i % 30}", ("m",)) for i in range(60))
        with pytest.raises(ValidationError,
                           match=r"duplicate gallery subject ids: .*\(first 10 of 30\)"):
            ProtocolManifest(gallery=gallery, probes=())
        probes = tuple(ProbeEntry(f"p{i % 12}", "m") for i in range(24))
        with pytest.raises(ValidationError, match=r"duplicate probe ids: .*\(first 10 of 12\)"):
            ProtocolManifest(gallery=(), probes=probes)

    def test_distractor_with_mate_probe_rejected(self):
        with pytest.raises(ValidationError):
            ProtocolManifest(
                gallery=(GalleryEntry("g1", ("m1",), distractor=True),),
                probes=(ProbeEntry("p1", "pm1", "g1"),),
            )

    def test_probe_medium_enrolled_in_gallery_rejected(self):
        gallery = (GalleryEntry("g1", ("m1",)), GalleryEntry("g2", ("m2", "m3")))
        probes = (ProbeEntry("p1", "pm1", "g1"), ProbeEntry("p2", "m3", None))
        with pytest.raises(ValidationError) as info:
            ProtocolManifest(gallery=gallery, probes=probes)
        assert str(info.value) == "probe 'p2' uses medium 'm3', which is enrolled in gallery subject 'g2'"

    def test_medium_enrolled_under_two_subjects_rejected(self):
        # Two templates sharing a medium tie, and each one's mate rank drops.
        gallery = (GalleryEntry("a", ("m1",)), GalleryEntry("b", ("m1", "m2")))
        probes = (ProbeEntry("p1", "pm1", "a"), ProbeEntry("p2", "pm2", "b"))
        with pytest.raises(ValidationError) as info:
            ProtocolManifest(gallery=gallery, probes=probes)
        assert str(info.value) == "medium 'm1' is enrolled in gallery subjects 'a' and 'b'"

    def test_mated_distractor_list_is_bounded(self):
        gallery = tuple(GalleryEntry(f"d{i:05d}", ("m",), distractor=True) for i in range(20_000))
        probes = tuple(ProbeEntry(f"p{i}", "pm", f"d{i:05d}") for i in range(20_000))
        with pytest.raises(ValidationError) as info:
            ProtocolManifest(gallery=gallery, probes=probes)
        message = str(info.value)
        assert message.endswith("'d00009'] (first 10 of 20000)")
        assert "d00010" not in message and len(message) < 300

    def test_mate_classification(self):
        manifest = ProtocolManifest(
            gallery=(GalleryEntry("g1", ("m1",)),),
            probes=(
                ProbeEntry("p1", "pm1", "g1"),
                ProbeEntry("p2", "pm2", "absent"),
                ProbeEntry("p3", "pm3", None),
            ),
        )
        assert [p.probe_id for p in manifest.mate_probes()] == ["p1"]
        assert [p.probe_id for p in manifest.non_mate_probes()] == ["p2", "p3"]


class TestStores:
    def test_ground_truth_uniqueness(self):
        box = BoundingBox(0, 0, 1, 1)
        rec = GroundTruthRecord("m", 0, box, "s1")
        with pytest.raises(ValidationError):
            GroundTruthStore.from_records([rec, GroundTruthRecord("m", 0, box, "s1")])
        # Same frame, different subject is fine.
        GroundTruthStore.from_records([rec, GroundTruthRecord("m", 0, box, "s2")])

    def test_detection_store_grouping_allows_duplicates(self):
        box = BoundingBox(0, 0, 1, 1)
        records = [DetectionRecord("m", 0, box, 0.5), DetectionRecord("m", 0, box, 0.6)]
        store = DetectionStore.from_records(records)
        assert len(store) == 2 and store.records == tuple(records)

    def test_annotation_store_columns_must_agree_in_length(self):
        with pytest.raises(ValidationError, match=r"^columns disagree: 2 media ids, 1 frames, "
                                                  r"boxes \(4, 2\), labels \(2,\)$"):
            DetectionStore(["m", "m"], [0], np.ones((4, 2)), [0.5, 0.5])
        with pytest.raises(ValidationError, match=r"boxes \(2, 2\)"):
            GroundTruthStore(["m"], [0], np.ones((2, 2)), ["s"])
        with pytest.raises(ValidationError, match=r"labels \(2,\)$"):
            DetectionStore(["m"], [0], np.ones((4, 1)), [0.5, 0.6])
        store = DetectionStore(["m"], [2**70], np.ones((4, 1)), [0.5], media_tags={"m": "t"})
        assert store.frames == (2**70,) and store.media_tags == {"m": "t"}

    @pytest.mark.parametrize("store_type, labels", [
        (DetectionStore, [0.5, 0.25, 0.75]), (GroundTruthStore, ["s", "s", "t"]),
    ])
    def test_integer_ndarray_frames_take_the_fast_path_as_ints(self, store_type, labels,
                                                               monkeypatch):
        class CountingRecord(store_type.record_type):
            calls = 0

            def __post_init__(self):
                CountingRecord.calls += 1
                super().__post_init__()

        boxes = np.ones((4, 3))
        want = store_type(["m", "m", "n"], [4, 2**40, 0], boxes, labels)
        monkeypatch.setattr(store_type, "record_type", CountingRecord)
        store = store_type(["m", "m", "n"], np.array([4, 2**40, 0]), boxes, labels)
        assert store == want and all(type(frame) is int for frame in store.frames)
        assert CountingRecord.calls == 0

    def test_integer_frames_of_numpy_scalars_are_kept_as_ints(self):
        store = DetectionStore(["m", "m"], [np.int64(3), np.uint8(1)], np.ones((4, 2)), [0.5, 0.5])
        assert store.frames == (3, 1) and all(type(frame) is int for frame in store.frames)

    def test_float_ndarray_frames_name_the_python_float(self):
        with pytest.raises(ValidationError, match=r"^row 0: frame index must be an integer, got 1.5$"):
            DetectionStore(["m"], np.array([1.5]), np.ones((4, 1)), [0.5])

    @given(media_ids=st.lists(st.sampled_from("abcde"), max_size=8),
           media_tags=st.dictionaries(st.sampled_from("abcdefg"),
                                      st.none() | st.sampled_from(["t", "u"]), max_size=7))
    def test_media_tags_are_the_store_media_then_the_given_tags(self, media_ids, media_tags):
        store = DetectionStore(media_ids, [0] * len(media_ids), np.ones((4, len(media_ids))),
                               [0.5] * len(media_ids), media_tags=media_tags)
        union = {**dict.fromkeys(media_ids), **media_tags}
        assert store.media_tags == union and list(store.media_tags) == list(union)

    @pytest.mark.parametrize("frame, box, score, message", [
        (-1, (0, 0, 1, 1), 0.5, "frame index must be non-negative, got -1"),
        (1.5, (0, 0, 1, 1), 0.5, "frame index must be an integer, got 1.5"),
        (0, (0, 0, float("nan"), 1), 0.5, "box w must be a finite number, got nan"),
        (0, (0, 0, 1, 1), 5.0, r"score must lie in \[0, 1\], got 5.0"),
    ], ids=["negative-frame", "fractional-frame", "nan-width", "score-5"])
    def test_annotation_store_rows_follow_the_record_rule(self, frame, box, score, message):
        boxes = np.array([[0, 0, 1, 1], box], dtype=np.float64).T
        with pytest.raises(ValidationError, match=rf"^row 1: {message}$"):
            DetectionStore(["m", "m"], [0, frame], boxes, [0.5, score])
        if score == 0.5:  # ground truth has no score; the frame and box rules are the same
            with pytest.raises(ValidationError, match=rf"^row 1: {message}$"):
                GroundTruthStore(["m", "m"], [0, frame], boxes, ["s", "t"])

    def test_embedding_store_matrix_read_only(self):
        store = EmbeddingStore(["a"], np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError):
            store.matrix[0, 0] = 5.0
        assert store.vector("a").tolist() == [1.0, 2.0]
        with pytest.raises(KeyError):
            store.vector("missing")

    def test_from_matrix_checks(self):
        with pytest.raises(ValidationError, match="2-D"):
            EmbeddingStore(["a"], np.ones(3))
        with pytest.raises(ValidationError, match="2 media ids for an embedding matrix of 3 rows"):
            EmbeddingStore(["a", "b"], np.ones((3, 2)))
        with pytest.raises(ValidationError, match="record 0: embedding for 'a' is empty"):
            EmbeddingStore(["a"], np.ones((1, 0)))
        matrix = np.ones((4, 2))
        matrix[2, 1] = np.inf
        matrix[3, 0] = np.nan
        with pytest.raises(ValidationError, match="record 2: embedding for 'c' has non-finite"):
            EmbeddingStore(["a", "b", "c", "d"], matrix)
        with pytest.raises(ValidationError, match=r"duplicate embedding media ids: \['a'\]"):
            EmbeddingStore(["a", "b", "a"], np.ones((3, 2)))

    def test_duplicate_ids_rejected_in_one_pass_with_bounded_message(self):
        # 20k ids with 25 duplicated; a count() per id took seconds here.
        ids = [f"m{i}" for i in range(20_000)] + [f"m{i}" for i in range(25)]
        with pytest.raises(ValidationError) as info:
            EmbeddingStore(ids, np.zeros((len(ids), 1)))
        message = str(info.value)
        assert "'m0', 'm1', 'm10', 'm11'" in message
        assert "(first 10 of 25)" in message and "'m9'" not in message
        media = [MediaRecord(m, "s", "alpha", "image", 1) for m in ids]
        with pytest.raises(ValidationError, match=r"duplicate media ids: .*\(first 10 of 25\)"):
            MediaIndex(media)

    def test_media_index_groupings(self):
        index = MediaIndex(
            [
                MediaRecord("m1", "s1", "alpha", "video", 100),
                MediaRecord("m2", "s1", "beta", "image", 1),
                MediaRecord("m3", "s2", "alpha", "video", 50),
            ]
        )
        assert index.media_by_subject() == {"s1": ("m1", "m2"), "s2": ("m3",)}
        assert index.media_by_tag() == {"alpha": ("m1", "m3"), "beta": ("m2",)}
        assert index.media_tags()["m2"] == "beta"
        assert "m3" in index and "m4" not in index
        assert index == MediaIndex(index.records) and index != MediaIndex(index.records[:2])
        assert [rec.media_id for rec in index.records] == ["m1", "m2", "m3"]

    def test_embedding_store_widens_integers_and_names_an_unknown_medium(self):
        store = EmbeddingStore(["a"], np.array([[1, 2]]))
        assert store.matrix.dtype == np.float64
        with pytest.raises(KeyError, match="'nope'"):
            store.rows(["nope"])


class TestValidateProtocol:
    def _embeddings(self, ids, dim=2):
        rng = np.random.default_rng(7)
        return EmbeddingStore(ids, rng.normal(size=(len(ids), dim)))

    def test_all_media_present(self):
        manifest = ProtocolManifest(
            gallery=(GalleryEntry("g1", ("m1",)),),
            probes=(ProbeEntry("p1", "m2", "g1"),),
        )
        report = validate_protocol(manifest, self._embeddings(["m1", "m2"]))
        assert report.missing_media == ()
        assert report.ok

    def test_missing_media_reported(self):
        manifest = ProtocolManifest(
            gallery=(GalleryEntry("g1", ("m1", "mx")),),
            probes=(ProbeEntry("p1", "my", "g1"),),
        )
        report = validate_protocol(manifest, self._embeddings(["m1"]))
        assert set(report.missing_media) == {"mx", "my"}
        assert not report.ok

    def test_absent_subject_is_non_mate(self):
        manifest = ProtocolManifest(
            gallery=(GalleryEntry("g1", ("m1",)),),
            probes=(ProbeEntry("p1", "m2", "ghost"),),
        )
        report = validate_protocol(manifest, self._embeddings(["m1", "m2"]))
        assert report.non_mate_probe_ids == ("p1",)

    def test_probes_partition_into_mate_and_non_mate(self):
        rng = np.random.default_rng(3)
        subjects = [f"g{i}" for i in range(10)]
        probes = tuple(
            ProbeEntry(f"p{i}", f"pm{i}",
                       subjects[int(rng.integers(0, 10))] if rng.random() < 0.5 else None)
            for i in range(40)
        )
        manifest = ProtocolManifest(
            gallery=tuple(GalleryEntry(s, (f"m{s}",)) for s in subjects),
            probes=probes,
        )
        media = [f"m{s}" for s in subjects] + [p.media_id for p in probes]
        report = validate_protocol(manifest, self._embeddings(media))
        mates, non_mates = set(report.mate_probe_ids), set(report.non_mate_probe_ids)
        assert mates | non_mates == {p.probe_id for p in probes}
        assert mates & non_mates == set()

    def test_protocol2_shaped_distractor_count(self):
        # 100 mated subjects plus 444 distractors.
        gallery = [GalleryEntry(f"g{i}", (f"m{i}",)) for i in range(100)]
        gallery += [GalleryEntry(f"d{i}", (f"dm{i}",), distractor=True) for i in range(444)]
        probes = tuple(ProbeEntry(f"p{i}", f"pm{i}", f"g{i}") for i in range(100))
        manifest = ProtocolManifest(gallery=tuple(gallery), probes=probes)
        media = [e.media_ids[0] for e in manifest.gallery] + [p.media_id for p in probes]
        report = validate_protocol(manifest, self._embeddings(media))
        assert report.distractor_count == 444
        assert len(report.mate_probe_ids) == 100
