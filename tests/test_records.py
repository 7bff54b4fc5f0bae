import math

import numpy as np
import pytest

from biomeval import (
    BoundingBox,
    DetectionRecord,
    EmbeddingRecord,
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

    def test_embedding_record_finite(self):
        EmbeddingRecord("m", (1.0, 2.0))
        with pytest.raises(ValidationError):
            EmbeddingRecord("m", (1.0, math.inf))
        with pytest.raises(ValidationError):
            EmbeddingRecord("m", ())


class TestProtocolManifest:
    def test_duplicate_gallery_subjects_rejected(self):
        with pytest.raises(ValidationError):
            ProtocolManifest(
                gallery=(GalleryEntry("g1", ("m1",)), GalleryEntry("g1", ("m2",))),
                probes=(),
            )

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
            GroundTruthStore([rec, GroundTruthRecord("m", 0, box, "s1")])
        # Same frame, different subject is fine.
        GroundTruthStore([rec, GroundTruthRecord("m", 0, box, "s2")])

    def test_detection_store_grouping_allows_duplicates(self):
        box = BoundingBox(0, 0, 1, 1)
        store = DetectionStore(
            [DetectionRecord("m", 0, box, 0.5), DetectionRecord("m", 0, box, 0.6)]
        )
        assert len(store.at("m", 0)) == 2
        assert store.at("m", 1) == ()

    def test_embedding_store_dimension_check(self):
        with pytest.raises(ValidationError):
            EmbeddingStore([EmbeddingRecord("a", (1.0,)), EmbeddingRecord("b", (1.0, 2.0))])

    def test_embedding_store_matrix_read_only(self):
        store = EmbeddingStore([EmbeddingRecord("a", (1.0, 2.0))])
        with pytest.raises(ValueError):
            store.matrix[0, 0] = 5.0
        assert store.vector("a").tolist() == [1.0, 2.0]
        with pytest.raises(KeyError):
            store.vector("missing")

    def test_from_matrix_equals_records_store(self):
        rows = [(1.0, 2.0), (3.0, -4.0)]
        records = EmbeddingStore([EmbeddingRecord(m, r) for m, r in zip("ab", rows)])
        store = EmbeddingStore.from_matrix(["a", "b"], np.array(rows))
        assert store == records
        assert not store.matrix.flags.writeable

    def test_from_matrix_checks(self):
        with pytest.raises(ValidationError, match="2-D"):
            EmbeddingStore.from_matrix(["a"], np.ones(3))
        with pytest.raises(ValidationError, match="2 media ids for an embedding matrix of 3 rows"):
            EmbeddingStore.from_matrix(["a", "b"], np.ones((3, 2)))
        with pytest.raises(ValidationError, match="record 0: embedding for 'a' is empty"):
            EmbeddingStore.from_matrix(["a"], np.ones((1, 0)))
        matrix = np.ones((4, 2))
        matrix[2, 1] = np.inf
        matrix[3, 0] = np.nan
        with pytest.raises(ValidationError, match="record 2: embedding for 'c' has non-finite"):
            EmbeddingStore.from_matrix(["a", "b", "c", "d"], matrix)
        with pytest.raises(ValidationError, match=r"duplicate embedding media ids: \['a'\]"):
            EmbeddingStore.from_matrix(["a", "b", "a"], np.ones((3, 2)))

    def test_duplicate_ids_rejected_in_one_pass_with_bounded_message(self):
        # 20k ids with 25 duplicated; a count() per id took seconds here.
        ids = [f"m{i}" for i in range(20_000)] + [f"m{i}" for i in range(25)]
        with pytest.raises(ValidationError) as info:
            EmbeddingStore.from_matrix(ids, np.zeros((len(ids), 1)))
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


class TestValidateProtocol:
    def _embeddings(self, ids, dim=2):
        rng = np.random.default_rng(7)
        return EmbeddingStore(
            [EmbeddingRecord(m, tuple(rng.normal(size=dim).tolist())) for m in ids]
        )

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
