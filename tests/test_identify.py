import math

import numpy as np
import pytest

from biomeval import (
    GalleryEntry,
    ProbeEntry,
    ProtocolError,
    ProtocolManifest,
    ScoreMatrix,
    ValidationError,
    aggregate_gallery,
    cmc,
    fnir_fpir,
    rank_k_accuracy,
    roc_curve,
    score,
    tar_at_far,
)
from biomeval.identify import (
    AGGREGATION_METHODS,
    DEFAULT_FAR_TARGETS,
    DEFAULT_RANKS,
    SCORE_METRICS,
    Curve,
    build_gallery_templates,
    probe_matrix,
)
from biomeval.stores import EmbeddingStore

from conftest import build_matrix_and_manifest, random_protocol
from oracles import cosine_reference, euclidean, naive_cmc, naive_identification, naive_tar


def manifest_for(subjects, probe_mates):
    """Manifest with single-media gallery entries and probes p0..pN."""
    return ProtocolManifest(
        gallery=tuple(GalleryEntry(s, (f"{s}-media",)) for s in subjects),
        probes=tuple(
            ProbeEntry(f"p{i}", f"p{i}-media", mate) for i, mate in enumerate(probe_mates)
        ),
    )


def test_missing_media_lists_are_bounded():
    manifest = manifest_for([f"g{i:02d}" for i in range(30)], [None] * 12)
    embeddings = EmbeddingStore.from_matrix(["unused"], np.ones((1, 2)))
    with pytest.raises(ProtocolError, match=r"'g09-media'\] \(first 10 of 42\)$"):
        build_gallery_templates(manifest, embeddings)
    with pytest.raises(ProtocolError, match=r"\(first 10 of 12\)$"):
        probe_matrix(manifest, embeddings)


class TestAggregateGallery:
    def test_single_vector_is_normalized(self):
        template = aggregate_gallery("s", [[3.0, 4.0]])
        assert template.vector.tolist() == pytest.approx([0.6, 0.8], abs=1e-15)
        assert template.media_count == 1

    def test_mean_of_two_unit_vectors(self):
        template = aggregate_gallery("s", [[1.0, 0.0], [0.0, 1.0]])
        expected = math.sqrt(2.0) / 2.0
        assert template.vector.tolist() == pytest.approx([expected, expected], abs=1e-12)

    def test_antipodal_vectors_are_degenerate(self):
        with pytest.raises(ValidationError, match="degenerate"):
            aggregate_gallery("s", [[1.0, 0.0], [-1.0, 0.0]])

    def test_zero_vector_rejected(self):
        with pytest.raises(ValidationError, match="zero-norm"):
            aggregate_gallery("s", [[0.0, 0.0]])

    def test_max_score_keeps_media_vectors(self):
        template = aggregate_gallery("s", [[1.0, 0.0], [-1.0, 0.0]], method="max_score")
        assert template.vector is None
        assert template.media_vectors.shape == (2, 2)
        assert template.media_count == 2


class TestScore:
    def test_probe_equals_template(self):
        gallery = [aggregate_gallery("g1", [[1.0, 0.0]]), aggregate_gallery("g2", [[0.0, 1.0]])]
        matrix = score(np.array([[2.0, 0.0]]), gallery, probe_ids=["p"])
        assert matrix.scores[0, 0] == 1.0
        assert matrix.scores[0, 1] == 0.0

    def test_random_vs_double_loop(self):
        rng = np.random.default_rng(80)
        probes = rng.normal(size=(3, 5))
        media = [rng.normal(size=(1, 5)) for _ in range(4)]
        gallery = [aggregate_gallery(f"g{j}", m) for j, m in enumerate(media)]
        cos = score(probes, gallery, metric="cosine", probe_ids=["a", "b", "c"])
        neg = score(probes, gallery, metric="neg_euclidean", probe_ids=["a", "b", "c"])
        for i in range(3):
            for j in range(4):
                want = cosine_reference(probes[i], media[j][0])
                assert cos.scores[i, j] == pytest.approx(want, abs=1e-6)
                template = media[j][0] / np.linalg.norm(media[j][0])
                assert neg.scores[i, j] == pytest.approx(-euclidean(probes[i], template), abs=1e-6)

    def test_rescaling_probes_leaves_cosine_unchanged(self):
        rng = np.random.default_rng(81)
        probes = rng.normal(size=(6, 4))
        gallery = [aggregate_gallery(f"g{j}", rng.normal(size=(2, 4))) for j in range(5)]
        ids = [f"p{i}" for i in range(6)]
        base = score(probes, gallery, probe_ids=ids)
        scales = rng.uniform(0.1, 40.0, size=(6, 1))
        scaled = score(probes * scales, gallery, probe_ids=ids)
        assert np.max(np.abs(base.scores - scaled.scores)) < 1e-9

    def test_dimension_mismatch(self):
        gallery = [aggregate_gallery("g", [[1.0, 0.0, 0.0]])]
        with pytest.raises(ValueError, match="dim"):
            score(np.ones((2, 2)), gallery, probe_ids=["a", "b"])

    def test_max_score_takes_best_media(self):
        template = aggregate_gallery("g", [[1.0, 0.0], [0.0, 1.0]], method="max_score")
        matrix = score(np.array([[0.0, 3.0]]), [template], probe_ids=["p"])
        assert matrix.scores[0, 0] == 1.0

    def test_stacked_scoring_matches_per_template_loop(self):
        rng = np.random.default_rng(82)
        probes = rng.normal(size=(2050, 8))
        ids = [f"p{i}" for i in range(2050)]
        media = [rng.normal(size=(m, 8)) for m in (1, 5, 3, 2, 4, 1, 5)]
        unit = probes / np.linalg.norm(probes, axis=1, keepdims=True)
        for method in AGGREGATION_METHODS:
            gallery = [aggregate_gallery(f"g{j}", m, method) for j, m in enumerate(media)]
            for metric in SCORE_METRICS:
                got = score(probes, gallery, metric=metric, probe_ids=ids).scores
                if metric == "cosine":
                    cols = [np.clip((unit @ t.rows.T).max(axis=1), -1.0, 1.0) for t in gallery]
                else:
                    cols = [
                        -np.linalg.norm(probes[:, None, :] - t.rows[None], axis=2).min(axis=1)
                        for t in gallery
                    ]
                assert np.max(np.abs(got - np.column_stack(cols))) <= 1e-12, (method, metric)

    def test_mean_scores_do_not_depend_on_probe_batching(self):
        rng = np.random.default_rng(83)
        probes = rng.normal(size=(2050, 8))
        ids = [f"p{i}" for i in range(2050)]
        gallery = [aggregate_gallery(f"g{j}", rng.normal(size=(3, 8))) for j in range(7)]
        for metric in SCORE_METRICS:
            whole = score(probes, gallery, metric=metric, probe_ids=ids).scores
            head = score(probes[:1024], gallery, metric=metric, probe_ids=ids[:1024]).scores
            tail = score(probes[1024:], gallery, metric=metric, probe_ids=ids[1024:]).scores
            assert np.array_equal(whole, np.vstack([head, tail])), metric


class TestCmc:
    def test_all_mates_ranked_first(self):
        matrix = ScoreMatrix(("p0", "p1"), ("a", "b"), np.array([[0.9, 0.1], [0.2, 0.8]]))
        manifest = manifest_for(["a", "b"], ["a", "b"])
        curve = cmc(matrix, manifest)
        assert curve.y == (1.0, 1.0)

    def test_two_probe_worked_example(self):
        matrix = ScoreMatrix(
            ("p0", "p1"),
            ("a", "b", "c"),
            np.array([[0.9, 0.5, 0.1], [0.7, 0.2, 0.6]]),
        )
        manifest = manifest_for(["a", "b", "c"], ["a", "b"])
        curve = cmc(matrix, manifest)
        assert curve.x == (1.0, 2.0, 3.0)
        assert curve.y == (0.5, 0.5, 1.0)
        assert rank_k_accuracy(matrix, manifest, 2) == 0.5

    def test_tie_counts_against_mate(self):
        matrix = ScoreMatrix(("p0",), ("a", "b"), np.array([[0.5, 0.5]]))
        manifest = manifest_for(["a", "b"], ["a"])
        assert rank_k_accuracy(matrix, manifest, 1) == 0.0
        assert rank_k_accuracy(matrix, manifest, 2) == 1.0

    def test_non_mate_probe_rejected(self):
        matrix = ScoreMatrix(("p0",), ("a",), np.array([[0.5]]))
        manifest = manifest_for(["a"], [None])
        with pytest.raises(ProtocolError, match="non-mate"):
            cmc(matrix, manifest)

    def test_unknown_probe_rejected(self):
        matrix = ScoreMatrix(("zz",), ("a",), np.array([[0.5]]))
        manifest = manifest_for(["a"], ["a"])
        with pytest.raises(ProtocolError, match="not in the protocol"):
            cmc(matrix, manifest)

    def test_rank_cap_beyond_gallery_is_one(self):
        matrix = ScoreMatrix(("p0",), ("a", "b"), np.array([[0.1, 0.9]]))
        manifest = manifest_for(["a", "b"], ["a"])
        assert rank_k_accuracy(matrix, manifest, 2) == 1.0
        assert rank_k_accuracy(matrix, manifest, 10) == 1.0

    def test_monotone_and_terminal(self):
        rng = np.random.default_rng(83)
        for _ in range(100):
            gallery_media, probe_vectors, probe_mates = random_protocol(rng, 12, 20, dim=4)
            matrix, manifest = build_matrix_and_manifest(gallery_media, probe_vectors, probe_mates)
            mate_ids = [f"p{i}" for i, m in enumerate(probe_mates) if m is not None]
            curve = cmc(matrix.subset(mate_ids), manifest)
            ys = curve.y
            assert all(b >= a for a, b in zip(ys, ys[1:]))
            assert ys[-1] == 1.0

    def test_added_distractor_never_helps(self):
        rng = np.random.default_rng(84)
        for _ in range(100):
            gallery_media, probe_vectors, probe_mates = random_protocol(rng, 10, 15, dim=4)
            matrix, manifest = build_matrix_and_manifest(gallery_media, probe_vectors, probe_mates)
            mate_ids = [f"p{i}" for i, m in enumerate(probe_mates) if m is not None]
            base = cmc(matrix.subset(mate_ids), manifest)

            extra_scores = np.hstack(
                [matrix.scores, rng.uniform(-1, 1, size=(len(matrix.probe_ids), 1))]
            )
            wider = ScoreMatrix(
                matrix.probe_ids, matrix.subject_ids + ("extra",), extra_scores
            )
            wider_manifest = ProtocolManifest(
                gallery=manifest.gallery + (GalleryEntry("extra", ("xm",), distractor=True),),
                probes=manifest.probes,
            )
            grown = cmc(wider.subset(mate_ids), wider_manifest)
            for y_before, y_after in zip(base.y, grown.y):
                assert y_after <= y_before + 1e-15


class TestTarAtFar:
    def _matrix(self):
        # genuine {0.9, 0.5}; impostor {0.7, 0.1}
        matrix = ScoreMatrix(("p0", "p1"), ("a", "b"), np.array([[0.9, 0.7], [0.1, 0.5]]))
        manifest = manifest_for(["a", "b"], ["a", "b"])
        return matrix, manifest

    def test_worked_example_target_half(self):
        matrix, manifest = self._matrix()
        (point,) = tar_at_far(matrix, manifest, [0.5])
        assert point.threshold == 0.1
        assert point.tar == 1.0
        assert point.achieved_far == 0.5

    def test_worked_example_tight_target(self):
        matrix, manifest = self._matrix()
        (point,) = tar_at_far(matrix, manifest, [0.01])
        assert point.threshold == 0.7
        assert point.tar == 0.5
        assert point.achieved_far == 0.0

    def test_separable_but_reversed_scores(self):
        # All genuine below all impostor: nothing is accepted at target 0.
        matrix = ScoreMatrix(("p0", "p1"), ("a", "b"), np.array([[0.1, 0.8], [0.9, 0.2]]))
        manifest = manifest_for(["a", "b"], ["a", "b"])
        (point,) = tar_at_far(matrix, manifest, [0.0])
        assert point.tar == 0.0

    def test_default_targets(self):
        assert DEFAULT_FAR_TARGETS == (1e-4, 1e-3, 1e-2, 1e-1)
        assert DEFAULT_RANKS == (1, 5, 10, 20)

    def test_no_impostors_is_protocol_error(self):
        matrix = ScoreMatrix(("p0",), ("a",), np.array([[0.5]]))
        manifest = manifest_for(["a"], ["a"])
        with pytest.raises(ProtocolError):
            tar_at_far(matrix, manifest, [0.1])

    def test_monotone_in_target_and_far_bounded(self):
        rng = np.random.default_rng(85)
        targets = (0.001, 0.01, 0.1, 0.3, 0.8)
        for _ in range(100):
            gallery_media, probe_vectors, probe_mates = random_protocol(rng, 12, 20, dim=4)
            matrix, manifest = build_matrix_and_manifest(gallery_media, probe_vectors, probe_mates)
            points = tar_at_far(matrix, manifest, targets)
            tars = [p.tar for p in points]
            assert all(b >= a for a, b in zip(tars, tars[1:]))
            for p in points:
                assert p.achieved_far <= p.far_target + 1e-15


class TestRocCurve:
    def test_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(86)
        gallery_media, probe_vectors, probe_mates = random_protocol(rng, 20, 30, dim=4)
        matrix, manifest = build_matrix_and_manifest(gallery_media, probe_vectors, probe_mates)
        curve = roc_curve(matrix, manifest)
        assert curve.x[0] == 0.0
        assert curve.x[-1] == 1.0
        assert curve.y[-1] == 1.0
        assert all(b >= a for a, b in zip(curve.y, curve.y[1:]))


class TestFnirFpir:
    def _fixture(self):
        # mate scores {0.9, 0.4}; non-mate top scores {0.6, 0.2}
        matrix = ScoreMatrix(
            ("p0", "p1", "p2", "p3"),
            ("a", "b"),
            np.array([[0.9, 0.1], [0.05, 0.4], [0.6, 0.3], [0.2, 0.05]]),
        )
        manifest = manifest_for(["a", "b"], ["a", "b", None, None])
        return matrix, manifest

    def test_worked_example(self):
        matrix, manifest = self._fixture()
        curve = fnir_fpir(matrix, manifest, thresholds=[0.5])
        assert curve.points == ((0.5, 0.5),)
        assert curve.thresholds == (0.5,)

    def test_threshold_below_everything(self):
        matrix, manifest = self._fixture()
        curve = fnir_fpir(matrix, manifest, thresholds=[-10.0])
        assert curve.points == ((1.0, 0.0),)

    def test_threshold_above_everything(self):
        matrix, manifest = self._fixture()
        curve = fnir_fpir(matrix, manifest, thresholds=[10.0])
        assert curve.points == ((0.0, 1.0),)

    def test_rank_cap_counts_out_of_rank_mates_as_misses(self):
        matrix, manifest = self._fixture()
        # p1's mate (0.4) is outranked by column a? row p1 = (0.05, 0.4): rank 1.
        # Force a rank miss instead via p0: row (0.9, 0.1) mate a rank 1. Use cap 0 is invalid;
        # build a matrix where one mate is rank 2.
        matrix = ScoreMatrix(
            ("p0", "p1", "p2"),
            ("a", "b"),
            np.array([[0.3, 0.8], [0.05, 0.4], [0.2, 0.1]]),
        )
        manifest = manifest_for(["a", "b"], ["a", "b", None])
        unbounded = fnir_fpir(matrix, manifest, thresholds=[-10.0])
        assert unbounded.points == ((1.0, 0.0),)
        capped = fnir_fpir(matrix, manifest, thresholds=[-10.0], rank_cap=1)
        assert capped.points == ((1.0, 0.5),)

    def test_rank_cap_below_one_rejected(self):
        matrix, manifest = self._fixture()
        for cap in (0, -3):
            with pytest.raises(ValueError, match="rank_cap"):
                fnir_fpir(matrix, manifest, rank_cap=cap)

    def test_sweep_monotone_with_endpoints(self):
        rng = np.random.default_rng(87)
        for _ in range(100):
            gallery_media, probe_vectors, probe_mates = random_protocol(rng, 12, 20, dim=4)
            matrix, manifest = build_matrix_and_manifest(gallery_media, probe_vectors, probe_mates)
            curve = fnir_fpir(matrix, manifest)
            xs, ys = curve.x, curve.y
            assert all(b > a for a, b in zip(xs, xs[1:]))
            assert all(b <= a for a, b in zip(ys, ys[1:]))
            assert xs[0] == 0.0
            assert ys[-1] == 0.0

    def test_requires_both_probe_kinds(self):
        matrix = ScoreMatrix(("p0",), ("a",), np.array([[0.5]]))
        with pytest.raises(ProtocolError, match="non-mate"):
            fnir_fpir(matrix, manifest_for(["a"], ["a"]), thresholds=[0.0])
        with pytest.raises(ProtocolError, match="mate"):
            fnir_fpir(matrix, manifest_for(["a"], [None]), thresholds=[0.0])


class TestCurve:
    def test_x_strictly_increasing_enforced(self):
        with pytest.raises(ValidationError):
            Curve(points=((0.0, 0.0), (0.0, 1.0)), x_label="x", y_label="y")

    def test_csv_two_line_header(self, tmp_path):
        curve = Curve(points=((1.0, 0.5), (2.0, 1.0)), x_label="rank",
                      y_label="cumulative match accuracy")
        path = tmp_path / "curve.csv"
        curve.to_csv(path, columns=("rank", "accuracy"))
        lines = path.read_text().splitlines()
        assert lines[0] == "rank,cumulative match accuracy"
        assert lines[1] == "rank,accuracy"
        assert lines[2] == "1,0.5"


class TestAgainstNaiveReference:
    def test_ranks_and_rates_agree(self):
        rng = np.random.default_rng(88)
        targets = (0.01, 0.1, 0.5)
        for _ in range(50):
            gallery_media, probe_vectors, probe_mates = random_protocol(rng, 15, 25, dim=6)
            matrix, manifest = build_matrix_and_manifest(gallery_media, probe_vectors, probe_mates)
            _, ranks, genuine, impostor = naive_identification(
                probe_vectors, probe_mates, gallery_media
            )
            mate_ids = [f"p{i}" for i, m in enumerate(probe_mates) if m is not None]
            mate_matrix = matrix.subset(mate_ids)
            gallery_size = len(gallery_media)
            expected_cmc = naive_cmc(ranks, gallery_size)
            got_cmc = cmc(mate_matrix, manifest).y
            assert list(got_cmc) == pytest.approx(expected_cmc, abs=1e-9)
            for k in sorted({1, min(5, gallery_size), gallery_size}):
                assert rank_k_accuracy(mate_matrix, manifest, k) == pytest.approx(
                    expected_cmc[k - 1], abs=1e-9
                )
            got = tar_at_far(matrix, manifest, targets)
            want = naive_tar(genuine, impostor, targets)
            for point, (tau, tar, far) in zip(got, want):
                assert point.tar == pytest.approx(tar, abs=1e-9)
                assert point.achieved_far == pytest.approx(far, abs=1e-9)
