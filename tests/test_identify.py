import gc
import math
import os
import platform
import re
import subprocess
import sys
import time
import weakref
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biomeval import (
    BiomevalError,
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
from biomeval import identify, stores
from biomeval.errors import brief
from biomeval.identify import (
    AGGREGATION_METHODS,
    DEFAULT_FAR_TARGETS,
    DEFAULT_RANKS,
    SCORE_METRICS,
    Curve,
    IdentificationEval,
    build_gallery_templates,
    far_target,
    far_targets,
    positive_rank,
    probe_matrix,
    report_ranks,
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


def _open_set_eval():
    matrix = ScoreMatrix(("p0", "p1"), ("a", "b"), np.array([[0.9, 0.1], [0.2, 0.3]]))
    return IdentificationEval(matrix, manifest_for(["a", "b"], ["a", None]))


@pytest.mark.parametrize("bad", ["x" * 100_000, {"x": 1}], ids=["long-string", "dict"])
@pytest.mark.parametrize("name, call", [
    ("probes", lambda bad: score([[bad]], aggregate_gallery({"a": [1.0]}), probe_ids=["p"])),
    ("subject 'b': vectors", lambda bad: aggregate_gallery({"a": [1.0], "b": [bad]})),
    ("embedding matrix", lambda bad: EmbeddingStore(["m"], [[bad]])),
    ("boxes", lambda bad: stores.DetectionStore(["m"], [0], [[bad], [0.0], [1.0], [1.0]], [0.5])),
    ("scores", lambda bad: stores.DetectionStore(["m"], [0], [[0.0], [0.0], [1.0], [1.0]], [bad])),
    ("thresholds", lambda bad: _open_set_eval().fnir_fpir([0.5, bad])),
    ("thresholds", lambda bad: _open_set_eval().fnir_fpir(bad)),
], ids=["score", "aggregate_gallery", "EmbeddingStore", "boxes", "scores", "fnir_fpir-list",
        "fnir_fpir-value"])
def test_array_arguments_that_are_not_numbers_fail_bounded(name, call, bad):
    """A caller's array that numpy cannot convert fails as a ValidationError naming the
    argument, with the value cut: not numpy's message quoting a 100k-character string
    whole, nor a TypeError for a dict."""
    with pytest.raises(ValidationError) as info:
        call(bad)
    message = str(info.value)
    assert message.startswith(name) and len(message) < 1000, message[:200]


def test_long_list_values_are_cut_without_a_whole_repr():
    """brief stops rendering a list's items once past its limit and counts them instead,
    nested lists included; a value rendered whole keeps its length."""
    for value in ([0.0] * 2_000_000 + ["x"], [[0.0] * 2_000_000 + ["x"]]):
        tracemalloc.start()
        start = time.perf_counter()
        try:
            text = brief(value)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.1 and peak < 1 << 20, (elapsed, peak)
        assert text.endswith(f"... (a list of {len(value)} item{'s' * (len(value) > 1)})"), text
    with pytest.raises(ValidationError, match=r"^probes must be .*\(a list of 2000001 items\)$"):
        stores.float_array("probes", [0.0] * 2_000_000 + ["x"])
    nested = [["x" * 100000]]
    assert brief(nested) == f"{repr(nested)[:40]}... (100006 characters)"
    for value in ([], (), (1,), [(1, 2), [3]], list(range(12)), (1.5, None, "a"), [[[[]]]]):
        assert brief(value) == repr(value)


def test_missing_media_lists_are_bounded():
    manifest = manifest_for([f"g{i:02d}" for i in range(30)], [None] * 12)
    embeddings = EmbeddingStore(["unused"], np.ones((1, 2)))
    with pytest.raises(ProtocolError, match=r"'g09-media'\] \(first 10 of 42\)$"):
        build_gallery_templates(manifest, embeddings)
    with pytest.raises(ProtocolError, match=r"\(first 10 of 12\)$"):
        probe_matrix(manifest, embeddings)


class TestAggregateGallery:
    def test_single_vector_is_normalized(self):
        gallery = aggregate_gallery({"s": [[3.0, 4.0]]})
        assert gallery.rows[0].tolist() == pytest.approx([0.6, 0.8], abs=1e-15)
        assert gallery.rows.shape == (1, 2)

    def test_mean_of_two_unit_vectors(self):
        gallery = aggregate_gallery({"s": [[1.0, 0.0], [0.0, 1.0]]})
        expected = math.sqrt(2.0) / 2.0
        assert gallery.rows[0].tolist() == pytest.approx([expected, expected], abs=1e-12)

    def test_antipodal_vectors_are_degenerate(self):
        with pytest.raises(ValidationError, match="degenerate"):
            aggregate_gallery({"s": [[1.0, 0.0], [-1.0, 0.0]]})

    def test_zero_vector_rejected(self):
        with pytest.raises(ValidationError, match="zero-norm"):
            aggregate_gallery({"s": [[0.0, 0.0]]})

    def test_zero_norm_probe_is_named(self):
        gallery = aggregate_gallery({"s": [[1.0, 0.0]]})
        probes = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValidationError,
                           match=r"^probe 'p2': zero-norm vector cannot be normalized$"):
            score(probes, gallery, probe_ids=["p1", "p2", "p3"])

    @pytest.mark.parametrize("metric, probe, message", [
        ("neg_euclidean", [np.nan, 0.0], "vectors must be finite"),
        ("neg_euclidean", [-np.inf, 0.0], "vectors must be finite"),
        ("neg_euclidean", [1e200, 0.0], "squared norm overflows float64"),
        ("cosine", [0.0, np.nan], "vectors must be finite"),
        ("cosine", [1e200, 1e199], "squared norm overflows float64"),
        ("cosine", [1e154, 1e154], "squared norm overflows float64"),
    ])
    def test_faulty_probe_is_named_before_any_warning(self, metric, probe, message):
        gallery = aggregate_gallery({"s": [[1.0, 0.0]]})
        probes = np.array([[1.0, 1.0], probe, [np.nan, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=rf"^probe 'p2': {message}$"):
                score(probes, gallery, metric, probe_ids=["p1", "p2", "p3"])

    @pytest.mark.parametrize("metric, message", [
        ("cosine", "'p1': zero-norm vector cannot be normalized"),
        ("neg_euclidean", "'p2': vectors must be finite"),
    ])
    def test_first_faulty_probe_is_named_whatever_its_fault(self, metric, message):
        """A zero row is no fault under neg_euclidean; under cosine it is decided before
        any row is divided, so it is not misnamed as the NaN its division would give."""
        gallery = aggregate_gallery({"s": [[1.0, 0.0]]})
        probes = np.array([[0.0, 0.0], [np.nan, 1.0], [1e200, 0.0]])
        with pytest.raises(ValidationError, match=rf"^probe {message}$"):
            score(probes, gallery, metric, probe_ids=["p1", "p2", "p3"])

    def test_cosine_scoring_holds_no_whole_copy_of_the_probes(self):
        """Probes are made unit a score chunk at a time: the peak, less the returned
        matrix, stays below half the probes' bytes."""
        rng = np.random.default_rng(4)
        gallery = aggregate_gallery({f"s{j}": rng.normal(size=(1, 256)) for j in range(16)})
        probes = rng.normal(size=(4096, 256))
        tracemalloc.start()
        try:
            matrix = score(probes, gallery, probe_ids=[f"p{i}" for i in range(len(probes))])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - matrix.scores.nbytes < probes.nbytes / 2, peak / probes.nbytes

    @pytest.mark.parametrize("metric", ["cosine", "neg_euclidean"])
    def test_empty_probe_array_is_rejected_under_either_metric(self, metric):
        gallery = aggregate_gallery({"s": [[1.0, 0.0]]})
        with pytest.raises(ValidationError,
                           match=r"^probes: expected a non-empty \(m, d\) array, got \(0, 2\)$"):
            score(np.empty((0, 2)), gallery, metric, probe_ids=[])

    def test_neg_euclidean_probe_norms_match_per_chunk_norms(self):
        rng = np.random.default_rng(3)
        gallery = aggregate_gallery({f"s{j}": rng.normal(size=(1, 8)) for j in range(3)})
        probes = rng.normal(scale=1e3, size=(2 * identify._SCORE_CHUNK + 5, 8))
        ids = [f"p{i}" for i in range(len(probes))]
        got = score(probes, gallery, "neg_euclidean", probe_ids=ids).scores
        cross = probes @ gallery.rows.T
        want = -np.sqrt(np.maximum(-2.0 * cross + (probes * probes).sum(axis=1)[:, None]
                                   + (gallery.rows * gallery.rows).sum(axis=1), 0.0))
        assert np.array_equal(got, want)

    def test_cosine_scoring_leaves_the_probes_unwritten(self):
        gallery = aggregate_gallery({"s": [[1.0, 0.0]]})
        probes = np.array([[3.0, 4.0]])
        score(probes, gallery, probe_ids=["p1"])
        assert probes.tolist() == [[3.0, 4.0]]

    @pytest.mark.parametrize("method", AGGREGATION_METHODS)
    def test_gallery_fault_reads_the_store_once(self, method, monkeypatch):
        embeddings = EmbeddingStore(["a", "b1", "b2"], [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        manifest = ProtocolManifest(
            gallery=(GalleryEntry("a", ("a",)), GalleryEntry("b", ("b1", "b2"))), probes=())
        calls = []
        rows = EmbeddingStore.rows

        def counted(self, media_ids):
            calls.append(list(media_ids))
            return rows(self, media_ids)

        monkeypatch.setattr(EmbeddingStore, "rows", counted)
        with pytest.raises(ValidationError,
                           match=r"^subject 'b': zero-norm vector cannot be normalized$"):
            build_gallery_templates(manifest, embeddings, method)
        assert calls == [["a", "b1", "b2"]]

    def test_max_score_keeps_media_vectors(self):
        gallery = aggregate_gallery({"s": [[1.0, 0.0], [-1.0, 0.0]]}, method="max_score")
        assert gallery.starts.tolist() == [0]
        assert gallery.rows.shape == (2, 2)
        assert len(gallery) == 1


def reference_template(vectors, method):
    """One subject's template rows, built alone: normalize, then mean and normalize again,
    each by numpy's row norm."""
    unit = vectors / np.linalg.norm(vectors, axis=1)[:, None]
    if method == "max_score":
        return unit
    mean = unit.mean(axis=0)[None, :]
    return mean / np.linalg.norm(mean, axis=1)[:, None]


# Each fault, as (vectors, message) for a gallery of 2-d vectors.
GALLERY_FAULTS = {
    "zero": ([[0.0, 0.0]], "zero-norm vector cannot be normalized"),
    "nan": ([[1.0, 0.0], [np.nan, 1.0]], "vectors must be finite"),
    "inf": ([[np.inf, 1.0]], "vectors must be finite"),
    "overflow": ([[1e200, 0.0]], "squared norm overflows float64"),
    "empty": (np.empty((0, 2)), r"expected a non-empty \(m, 2\) array, got \(0, 2\)"),
    "dim": ([[1.0, 0.0, 0.0]], r"expected a non-empty \(m, 2\) array, got \(1, 3\)"),
    "antipodal": ([[1.0, 0.0], [-1.0, 0.0]], r"degenerate template \(zero mean vector\)"),
}


class TestGallery:
    @settings(max_examples=80, deadline=None)
    @given(
        counts=st.lists(st.integers(1, 6), min_size=1, max_size=30),
        dim=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
    )
    def test_stacked_builder_equals_per_subject_reference(self, counts, dim, seed, scale):
        rng = np.random.default_rng(seed)
        media = {f"s{j}": rng.normal(scale=scale, size=(k, dim)) for j, k in enumerate(counts)}
        for method in AGGREGATION_METHODS:
            try:
                gallery = aggregate_gallery(media, method)
            except ValidationError as exc:  # a vanishing mean, e.g. d=1 with opposite signs
                assert method == "mean" and "degenerate" in str(exc)
                continue
            assert gallery.subject_ids == tuple(media)
            want = [reference_template(v, method) for v in media.values()]
            assert np.array_equal(gallery.rows, np.concatenate(want)), method
            sizes = np.diff(np.append(gallery.starts, len(gallery.rows)))
            assert sizes.tolist() == [len(w) for w in want]
            assert not gallery.rows.flags.writeable and not gallery.starts.flags.writeable

    def test_build_gallery_templates_equals_aggregate_gallery(self):
        rng = np.random.default_rng(84)
        counts = [3, 1, 5, 2, 3, 4, 1]
        ids = [f"m{i}" for i in range(sum(counts))]
        embeddings = EmbeddingStore(ids, rng.normal(size=(len(ids), 6)))
        shuffled = rng.permutation(ids).tolist()
        entries, media = [], {}
        for j, k in enumerate(counts):
            mine, shuffled = shuffled[:k], shuffled[k:]
            entries.append(GalleryEntry(f"g{j}", tuple(mine)))
            media[f"g{j}"] = np.stack([embeddings.vector(m) for m in mine])
        manifest = ProtocolManifest(gallery=tuple(entries), probes=())
        for method in AGGREGATION_METHODS:
            built = build_gallery_templates(manifest, embeddings, method)
            fused = aggregate_gallery(media, method)
            assert len(built) == len(counts)
            assert built.subject_ids == fused.subject_ids
            assert np.array_equal(built.rows, fused.rows)
            assert np.array_equal(built.starts, fused.starts)

    @pytest.mark.parametrize("fault", sorted(GALLERY_FAULTS))
    def test_each_fault_names_its_subject(self, fault):
        vectors, message = GALLERY_FAULTS[fault]
        methods = ["mean"] if fault == "antipodal" else AGGREGATION_METHODS
        for method in methods:
            with pytest.raises(ValidationError, match=rf"^subject 'bad': {message}$"):
                aggregate_gallery({"ok": [[1.0, 0.0]], "bad": vectors}, method)

    @pytest.mark.parametrize("first", sorted(GALLERY_FAULTS))
    @pytest.mark.parametrize("second", sorted(GALLERY_FAULTS))
    def test_first_faulty_subject_in_gallery_order_wins(self, first, second):
        media = {
            "ok": [[1.0, 0.0]],
            "one": GALLERY_FAULTS[first][0],
            "fine": [[0.0, 2.0], [1.0, 1.0]],
            "two": GALLERY_FAULTS[second][0],
        }
        with pytest.raises(ValidationError, match=rf"^subject 'one': {GALLERY_FAULTS[first][1]}$"):
            aggregate_gallery(media, "mean")

    def test_dimension_disagreement_is_a_validation_error(self):
        with pytest.raises(ValidationError, match=r"^subject 'b': expected a non-empty \(m, 3\)"):
            aggregate_gallery({"a": np.ones((2, 3)), "b": np.ones((4, 2))}, "max_score")

    def test_unknown_method_is_reported_first(self):
        with pytest.raises(ValueError, match="method must be one of"):
            aggregate_gallery({"bad": [[0.0, 0.0]]}, "median")

    def test_score_does_not_copy_the_gallery_rows(self):
        """max_score galleries are scored without a second copy of their rows.

        The skewed gallery's one subject of 4096 media needs a 13-level
        range-max table, which must stay a few probe rows high.
        """
        for counts, dim in (([5] * 1000, 1024), ([4096] + [5] * 199, 512)):
            rng = np.random.default_rng(85)
            gallery = aggregate_gallery(
                {f"g{j}": rng.normal(size=(c, dim)) for j, c in enumerate(counts)}, "max_score"
            )
            probes = rng.normal(size=(64, dim))
            ids = [f"p{i}" for i in range(64)]
            for metric in SCORE_METRICS:
                tracemalloc.start()
                try:
                    score(probes, gallery, metric=metric, probe_ids=ids)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                ratio = peak / gallery.rows.nbytes
                assert ratio < 0.5, (len(counts), metric, ratio)


def reduceat_scores(probes, gallery, metric):
    """score()'s matrix from the same chunk products, reduced by np.maximum.reduceat."""
    rows = gallery.rows
    x = probes / np.linalg.norm(probes, axis=1)[:, None] if metric == "cosine" else probes
    step = max(1, identify._SCORE_CHUNK * len(gallery) // len(rows))
    out = np.empty((len(x), len(gallery)))
    for lo in range(0, len(x), step):
        chunk = x[lo : lo + step]
        block = chunk @ rows.T
        if metric == "neg_euclidean":
            block = -np.sqrt(np.maximum(
                -2.0 * block + (chunk * chunk).sum(axis=1)[:, None] + (rows * rows).sum(axis=1), 0.0
            ))
        out[lo : lo + step] = np.maximum.reduceat(block, gallery.starts, axis=1)
    return np.clip(out, -1.0, 1.0) if metric == "cosine" else out


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


# Media counts on both sides of powers of two, where the range-max level changes.
EDGE_COUNTS = [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33]


def full_matrix_rows(media, counts, method):
    """Gallery rows from one whole-matrix normalisation, media / norm(media, axis=1)."""
    unit = media / np.linalg.norm(media, axis=1)[:, None]
    if method == "max_score":
        return unit
    first = np.cumsum(counts) - counts
    means = np.stack([unit[s : s + k].mean(axis=0) for s, k in zip(first, counts)])
    return means / np.linalg.norm(means, axis=1)[:, None]


class TestBlocks:
    """Gallery rows are normalised, and store rows gathered, a block at a time."""

    @settings(max_examples=80, deadline=None)
    @given(
        block=st.integers(1, 4),
        counts=st.lists(st.integers(1, 3), min_size=1, max_size=8),
        dim=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_block_norms_equal_the_whole_matrix(self, block, counts, dim, seed):
        rng = np.random.default_rng(seed)
        ids = [f"m{i}" for i in range(sum(counts))]
        store = EmbeddingStore(ids, rng.normal(size=(len(ids), dim)).astype(np.float32))
        media = store.matrix.astype(np.float64)
        first = np.cumsum(counts) - counts
        manifest = ProtocolManifest(
            gallery=tuple(GalleryEntry(f"g{j}", tuple(ids[s : s + k]))
                          for j, (s, k) in enumerate(zip(first, counts))),
            probes=(),
        )
        vectors = {f"g{j}": media[s : s + k] for j, (s, k) in enumerate(zip(first, counts))}
        with mock.patch.object(identify, "_SCORE_CHUNK", block), \
                mock.patch.object(stores, "_ROWS_BLOCK", block):
            for method in AGGREGATION_METHODS:
                try:
                    galleries = (build_gallery_templates(manifest, store, method),
                                 aggregate_gallery(vectors, method))
                except ValidationError as exc:  # a vanishing mean, e.g. d=1 with opposite signs
                    assert method == "mean" and "degenerate" in str(exc)
                    continue
                want = full_matrix_rows(media, counts, method)
                for gallery in galleries:
                    assert gallery.rows.tobytes() == want.tobytes(), method

    @settings(max_examples=60, deadline=None)
    @given(
        block=st.integers(1, 4),
        count=st.integers(1, 9),
        picks=st.lists(st.integers(0, 8), max_size=12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_float32_rows_widen_exactly(self, block, count, picks, seed):
        matrix = np.random.default_rng(seed).normal(size=(count, 5)).astype(np.float32)
        store = EmbeddingStore([f"m{i}" for i in range(count)], matrix)
        index = [i % count for i in picks]
        with mock.patch.object(stores, "_ROWS_BLOCK", block):
            rows = store.rows([f"m{i}" for i in index])
        assert rows.dtype == np.float64
        assert rows.tobytes() == matrix[index].astype(np.float64).tobytes()
        assert store.vector(f"m{count - 1}").tobytes() == matrix[-1].astype(np.float64).tobytes()

    @pytest.mark.parametrize("block", [1, 2, 3])
    @pytest.mark.parametrize("fault", sorted(set(GALLERY_FAULTS) - {"empty", "dim"}))
    def test_fault_in_a_later_block_names_its_subject(self, block, fault):
        vectors, message = GALLERY_FAULTS[fault]
        media = {"ok": [[1.0, 0.0]], "fine": [[0.0, 2.0], [1.0, 1.0]], "bad": vectors,
                 "also": [[0.0, 0.0]]}
        methods = ["mean"] if fault == "antipodal" else AGGREGATION_METHODS
        with mock.patch.object(identify, "_SCORE_CHUNK", block):
            for method in methods:
                with pytest.raises(ValidationError, match=rf"^subject 'bad': {message}$"):
                    aggregate_gallery(media, method)


class TestScore:
    def test_probe_equals_template(self):
        gallery = aggregate_gallery({"g1": [[1.0, 0.0]], "g2": [[0.0, 1.0]]})
        matrix = score(np.array([[2.0, 0.0]]), gallery, probe_ids=["p"])
        assert matrix.scores[0, 0] == 1.0
        assert matrix.scores[0, 1] == 0.0

    def test_random_vs_double_loop(self):
        rng = np.random.default_rng(80)
        probes = rng.normal(size=(3, 5))
        media = [rng.normal(size=(1, 5)) for _ in range(4)]
        gallery = aggregate_gallery({f"g{j}": m for j, m in enumerate(media)})
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
        gallery = aggregate_gallery({f"g{j}": rng.normal(size=(2, 4)) for j in range(5)})
        ids = [f"p{i}" for i in range(6)]
        base = score(probes, gallery, probe_ids=ids)
        scales = rng.uniform(0.1, 40.0, size=(6, 1))
        scaled = score(probes * scales, gallery, probe_ids=ids)
        assert np.max(np.abs(base.scores - scaled.scores)) < 1e-9

    @pytest.mark.parametrize("probes, gallery, message", [
        (np.ones((2, 2)), aggregate_gallery({"g": [[1.0, 0.0]]}),
         r"^expected \(1, d\) probe array, got shape \(2, 2\)$"),
        (np.ones((1, 2)), identify.Gallery((), np.empty((0, 2)), np.empty(0, dtype=np.intp)),
         "^gallery is empty$"),
    ], ids=["two-rows-for-one-id", "empty-gallery"])
    def test_input_faults(self, probes, gallery, message):
        with pytest.raises(ValidationError, match=message):
            score(probes, gallery, probe_ids=["p0"])

    @pytest.mark.parametrize("probes, subjects, scores, message", [
        (("p0",), ("a",), np.array([[np.nan]]), "^scores must be finite$"),
        (("p0",), ("a", "b"), np.array([[0.5]]),
         r"^score shape \(1, 1\) does not match 1 probes x 2 subjects$"),
        # A repeated subject would hide its mate column, and a repeated probe its row.
        (("p1", "p1"), ("a", "a"), np.array([[0.9, 0.1], [0.5, 0.4]]),
         r"^duplicate probe ids: \['p1'\]$"),
        (("p1", "p2"), ("a", "a"), np.array([[0.9, 0.1], [0.5, 0.4]]),
         r"^duplicate subject ids: \['a'\]$"),
        (("p0",), tuple(f"s{i // 2:05d}" for i in range(20_000)), np.zeros((1, 20_000)),
         r"^duplicate subject ids: \[.*'s00009'\] \(first 10 of 10000\)$"),
    ], ids=["nan", "shape", "repeated-probe", "repeated-subject", "repeats-cut"])
    def test_score_matrix_faults(self, probes, subjects, scores, message):
        with pytest.raises(ValidationError, match=message):
            ScoreMatrix(probes, subjects, scores)

    def test_subset_of_an_unknown_probe_is_a_bounded_error(self):
        matrix = ScoreMatrix(("p1", "p2"), ("a", "b"), np.zeros((2, 2)))
        assert matrix.subset(["p2"]).scores.shape == (1, 2)
        with pytest.raises(BiomevalError) as info:
            matrix.subset(["p1", "z" * 100_000, "zz"])
        assert str(info.value).startswith("probe 'zzz") and len(str(info.value)) < 200
        assert str(info.value).endswith(" is not in the score matrix")

    def test_dimension_mismatch(self):
        gallery = aggregate_gallery({"g": [[1.0, 0.0, 0.0]]})
        with pytest.raises(ValueError, match="dim"):
            score(np.ones((2, 2)), gallery, probe_ids=["a", "b"])

    def test_max_score_takes_best_media(self):
        gallery = aggregate_gallery({"g": [[1.0, 0.0], [0.0, 1.0]]}, method="max_score")
        matrix = score(np.array([[0.0, 3.0]]), gallery, probe_ids=["p"])
        assert matrix.scores[0, 0] == 1.0

    def test_stacked_scoring_matches_per_template_loop(self):
        rng = np.random.default_rng(82)
        probes = rng.normal(size=(2050, 8))
        ids = [f"p{i}" for i in range(2050)]
        media = [rng.normal(size=(m, 8)) for m in (1, 5, 3, 2, 4, 1, 5)]
        unit = probes / np.linalg.norm(probes, axis=1, keepdims=True)
        for method in AGGREGATION_METHODS:
            gallery = aggregate_gallery({f"g{j}": m for j, m in enumerate(media)}, method)
            templates = np.split(gallery.rows, gallery.starts[1:])
            for metric in SCORE_METRICS:
                got = score(probes, gallery, metric=metric, probe_ids=ids).scores
                if metric == "cosine":
                    cols = [np.clip((unit @ t.T).max(axis=1), -1.0, 1.0) for t in templates]
                else:
                    cols = [
                        -np.linalg.norm(probes[:, None, :] - t[None], axis=2).min(axis=1)
                        for t in templates
                    ]
                assert np.max(np.abs(got - np.column_stack(cols))) <= 1e-12, (method, metric)

    @settings(max_examples=40, deadline=None)
    @given(
        small=st.lists(st.sampled_from(EDGE_COUNTS), min_size=3, max_size=12),
        big=st.integers(1025, 1100),
        at=st.integers(0, 12),
        dim=st.integers(1, 6),
        n_probes=st.integers(1, 40),
        tile_rows=st.integers(1, 4),
        ternary=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    # 12 subjects, 1112 rows: 11-probe chunks in 3-row tiles, 26 probes.
    @example(small=[1, 3, 4, 5, 7, 8, 9, 2, 15, 16, 17], big=1025, at=7, dim=4, n_probes=26,
             tile_rows=3, ternary=False, seed=0)
    def test_scores_equal_reduceat_over_the_same_products(
        self, small, big, at, dim, n_probes, tile_rows, ternary, seed
    ):
        rng = np.random.default_rng(seed)
        counts = small[:at] + [big] + small[at:]
        # Ternary draws tie often; with no zero component no product is -0.0.
        if ternary:
            def draw(*shape):
                return rng.integers(-1, 2, size=shape) + 0.5
        else:
            def draw(*shape):
                return rng.normal(size=shape)
        media = {f"g{j}": draw(c, dim) for j, c in enumerate(counts)}
        probes = draw(n_probes, dim)
        ids = [f"p{i}" for i in range(n_probes)]
        # A table of exactly tile_rows probe rows: 8 bytes x levels x gallery rows each.
        tile_bytes = tile_rows * 8 * big.bit_length() * sum(counts)
        for method in AGGREGATION_METHODS:
            try:
                gallery = aggregate_gallery(media, method)
            except ValidationError as exc:  # a vanishing mean, e.g. d=1 with opposite signs
                assert method == "mean" and "degenerate" in str(exc)
                continue
            for metric in SCORE_METRICS:
                with mock.patch.object(identify, "_TILE_BYTES", tile_bytes):
                    got = score(probes, gallery, metric=metric, probe_ids=ids).scores
                assert same_bits(got, reduceat_scores(probes, gallery, metric)), (method, metric)

    @settings(max_examples=60, deadline=None)
    @given(
        counts=st.lists(st.sampled_from(EDGE_COUNTS), min_size=1, max_size=10),
        n=st.integers(1, 7),
        tile_rows=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_range_max_equals_reduceat_through_ties_and_nan(self, counts, n, tile_rows, seed):
        rng = np.random.default_rng(seed)
        values, p = [-1.0, 0.0, 0.5, np.nan], [0.45, 0.25, 0.29, 0.01]
        block = rng.choice(values, p=p, size=(n, sum(counts)))
        starts = np.cumsum(counts) - counts
        tile_bytes = tile_rows * 8 * max(counts).bit_length() * sum(counts)
        with mock.patch.object(identify, "_TILE_BYTES", tile_bytes):
            reduce = identify._subject_maxima(starts, sum(counts))
        out = np.empty((n, len(counts)))
        reduce(block, out)
        assert same_bits(out, np.maximum.reduceat(block, starts, axis=1))
        # A zero maximum's sign is the one thing reduceat's vector width may decide.
        block[block == 0.0] = rng.choice([0.0, -0.0], size=int((block == 0.0).sum()))
        reduce(block, out)
        assert np.array_equal(out, np.maximum.reduceat(block, starts, axis=1), equal_nan=True)

    def test_one_row_galleries_take_the_product_directly(self):
        rng = np.random.default_rng(86)
        probes = rng.normal(size=(2051, 6))
        ids = [f"p{i}" for i in range(2051)]
        galleries = [
            aggregate_gallery({f"g{j}": rng.normal(size=(3, 6)) for j in range(9)}, "mean"),
            aggregate_gallery({f"g{j}": rng.normal(size=(1, 6)) for j in range(9)}, "max_score"),
        ]
        no_reduction = mock.patch.object(identify, "_subject_maxima", side_effect=AssertionError)
        for gallery in galleries:
            for metric in SCORE_METRICS:
                with no_reduction:
                    got = score(probes, gallery, metric=metric, probe_ids=ids).scores
                assert same_bits(got, reduceat_scores(probes, gallery, metric)), metric

    def test_mean_scores_do_not_depend_on_probe_batching(self):
        rng = np.random.default_rng(83)
        probes = rng.normal(size=(2050, 8))
        ids = [f"p{i}" for i in range(2050)]
        gallery = aggregate_gallery({f"g{j}": rng.normal(size=(3, 8)) for j in range(7)})
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

    def test_module_function_equals_method_on_mixed_matrix(self):
        """Non-mate rows are left out of the ranks, as IdentificationEval leaves them out."""
        matrix = ScoreMatrix(
            ("p0", "p1", "p2"), ("a", "b"), np.array([[0.9, 0.1], [0.5, 0.4], [0.3, 0.6]])
        )
        manifest = manifest_for(["a", "b"], ["a", None, "a"])
        evaluation = IdentificationEval(matrix, manifest)
        mates = matrix.subset(["p0", "p2"])
        assert cmc(matrix, manifest) == evaluation.cmc() == cmc(mates, manifest)
        assert cmc(matrix, manifest).y == (0.5, 1.0)
        for k in (1, 2):
            assert rank_k_accuracy(matrix, manifest, k) == evaluation.rank_k_accuracy(k)
            assert rank_k_accuracy(matrix, manifest, k) == rank_k_accuracy(mates, manifest, k)

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

    def test_ranks_must_be_integers(self):
        matrix = ScoreMatrix(("p0",), ("a", "b"), np.array([[0.1, 0.9]]))
        evaluation = IdentificationEval(matrix, manifest_for(["a", "b"], ["a"]))
        for value in (2.5, 1.0, True, "2", np.float64(3.0)):
            with pytest.raises(ValueError, match=f"^k must be an integer, got {re.escape(repr(value))}$"):
                evaluation.rank_k_accuracy(value)
            with pytest.raises(ValueError, match="^max_rank must be an integer"):
                evaluation.cmc(max_rank=value)
        with pytest.raises(ValueError, match=r"^ranks must be an integer, got \[1, 2\.5\]$"):
            report_ranks([1, 2.5])
        with pytest.raises(ValueError, match=r"^ranks must be an integer, got \[1, False\]$"):
            report_ranks([1, False])
        with pytest.raises(ValueError, match="^rank_cap must be positive, got 0$"):
            positive_rank("rank_cap", 0)
        assert positive_rank("k", np.int64(2)) == 2 and evaluation.rank_k_accuracy(np.int64(2)) == 1.0
        assert positive_rank("rank_cap", None) is None

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

    def test_non_finite_targets_rejected(self):
        matrix, manifest = self._matrix()
        for bad in (math.inf, math.nan, -0.5, 1.5):
            with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
                tar_at_far(matrix, manifest, [0.1, bad])

    def test_target_one_accepts_every_score(self):
        matrix, manifest = self._matrix()
        (point,) = tar_at_far(matrix, manifest, [1.0])
        assert point.threshold == -math.inf and point.as_dict()["threshold"] is None
        assert point.tar == 1.0 and point.achieved_far == 1.0
        with pytest.raises(ValueError, match="got 1e[+]308"):
            tar_at_far(matrix, manifest, [1e308])

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
        targets = (0.0, 0.001, 0.01, 0.1, 0.3, 0.8, 1.0)
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

    @pytest.mark.parametrize("n", [1, 2, 4095, 4096])
    def test_every_distinct_impostor_score_is_a_threshold(self, n):
        """Up to _ROC_POINTS impostor scores, the evenly spaced positions are every index."""
        rng = np.random.default_rng(n)
        impostors = rng.integers(0, max(1, n // 3), size=n) / 8.0  # ties when n >= 2
        subjects = [f"s{j}" for j in range(n + 1)]
        matrix = ScoreMatrix(("p0",), tuple(subjects), np.concatenate(([1e9], impostors))[None])
        curve = IdentificationEval(matrix, manifest_for(subjects, ["s0"])).roc_curve()
        assert curve.thresholds == (-np.inf, *np.unique(impostors).tolist())[::-1]


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

    @pytest.mark.parametrize("thresholds, message", [
        ("all", "thresholds must be a list of values or 'sweep', got 'all'"),
        ([], "at least one threshold is required"),
        ([math.nan, 0.5], "thresholds must not be NaN, got [nan, 0.5]"),
        ([[0.5, 0.2]], "thresholds must be a flat list of numbers, got [[0.5, 0.2]]"),
        ([[0.5], [0.2]], "thresholds must be a flat list of numbers, got [[0.5], [0.2]]"),
        (0.5, "thresholds must be a flat list of numbers, got 0.5"),
    ])
    def test_bad_thresholds_rejected(self, thresholds, message):
        matrix, manifest = self._fixture()
        with pytest.raises(ValidationError, match=rf"^{re.escape(message)}$"):
            fnir_fpir(matrix, manifest, thresholds=thresholds)

    def test_infinite_thresholds_kept_and_a_long_nan_list_cut(self):
        matrix, manifest = self._fixture()
        with pytest.raises(ValidationError) as info:
            fnir_fpir(matrix, manifest, thresholds=[0.5] * 100_000 + [math.nan])
        assert str(info.value).endswith("(a list of 100001 items)") and len(str(info.value)) < 120
        curve = fnir_fpir(matrix, manifest, thresholds=[math.inf, -math.inf])
        assert curve.points == ((0.0, 1.0), (1.0, 0.0))
        assert curve.thresholds == (math.inf, -math.inf)

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

    def test_one_threshold_per_point_required(self):
        with pytest.raises(ValidationError, match="^one threshold per point is required$"):
            Curve(((1.0, 0.5), (2.0, 0.6)), "x", "y", thresholds=(0.1,))

    def test_csv_needs_one_column_name_per_field(self):
        with pytest.raises(ValidationError, match="^expected 2 column names, got 3$"):
            Curve(((1.0, 0.5),), "x", "y").to_csv(("a", "b", "c"))

    def test_csv_two_line_header(self):
        curve = Curve(points=((1.0, 0.5), (2.0, 1.0)), x_label="rank",
                      y_label="cumulative match accuracy")
        text = curve.to_csv(columns=("rank", "accuracy"))
        assert text.endswith("\r\n")
        lines = text.splitlines()
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


@st.composite
def mixed_protocols(draw):
    """A score matrix with mate and non-mate rows; few score levels, so ties are common."""
    g = draw(st.integers(2, 12))
    p = draw(st.integers(2, 24))
    mates = draw(st.lists(st.one_of(st.none(), st.integers(0, g - 1)), min_size=p, max_size=p))
    mates[0] = draw(st.integers(0, g - 1))
    mates[1] = None
    levels = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scores = rng.integers(0, levels + 1, size=(p, g)) / levels - 0.5
    subjects = [f"g{j}" for j in range(g)]
    manifest = manifest_for(subjects, [None if m is None else subjects[m] for m in mates])
    matrix = ScoreMatrix(tuple(f"p{i}" for i in range(p)), tuple(subjects), scores)
    return matrix, manifest


def _metrics(evaluation):
    return (
        [evaluation.rank_k_accuracy(k) for k in (1, 2, 5)],
        evaluation.cmc(),
        evaluation.tar_at_far((0.0, 0.01, 0.1, 0.5, 1.0)),
        evaluation.roc_curve(),
        evaluation.fnir_fpir(),
        evaluation.fnir_fpir(rank_cap=2),
    )


class TestIdentificationEval:
    @settings(max_examples=60, deadline=None)
    @given(mixed_protocols(), st.data())
    def test_probe_and_gallery_order_do_not_matter(self, case, data):
        matrix, manifest = case
        base = _metrics(IdentificationEval(matrix, manifest))
        rows = data.draw(st.permutations(range(len(matrix.probe_ids))))
        cols = data.draw(st.permutations(range(len(matrix.subject_ids))))
        shuffled = ScoreMatrix(
            tuple(matrix.probe_ids[i] for i in rows),
            tuple(matrix.subject_ids[j] for j in cols),
            matrix.scores[np.ix_(rows, cols)],
        )
        assert _metrics(IdentificationEval(shuffled, manifest)) == base

    @settings(max_examples=60, deadline=None)
    @given(mixed_protocols(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5))
    def test_context_equals_module_functions(self, case, targets):
        matrix, manifest = case
        evaluation = IdentificationEval(matrix, manifest)
        mates = matrix.subset([p.probe_id for p in manifest.probes if manifest.is_mate(p)])
        assert evaluation.cmc() == cmc(mates, manifest)
        for k in (1, 3, len(matrix.subject_ids)):
            assert evaluation.rank_k_accuracy(k) == rank_k_accuracy(mates, manifest, k)
        points = evaluation.tar_at_far(targets)
        assert points == tar_at_far(matrix, manifest, targets)
        assert all(p.achieved_far <= p.far_target for p in points)
        assert evaluation.roc_curve() == roc_curve(matrix, manifest)
        for cap in (None, 1, 3):
            assert evaluation.fnir_fpir(rank_cap=cap) == fnir_fpir(matrix, manifest, rank_cap=cap)
        ys = evaluation.cmc().y
        assert all(b >= a for a, b in zip(ys, ys[1:]))
        assert ys[-1] == 1.0

    @settings(max_examples=60, deadline=None)
    @given(mixed_protocols(), st.integers(0, 2**32 - 1))
    def test_impostors_are_the_masked_cells_sorted(self, case, seed):
        """The impostor array is the masked cells' row-major order, sorted, signs of zero included."""
        matrix, manifest = case
        signs = np.random.default_rng(seed).choice([-1.0, 1.0], size=matrix.scores.shape)
        matrix = ScoreMatrix(matrix.probe_ids, matrix.subject_ids, matrix.scores * signs)
        evaluation = IdentificationEval(matrix, manifest)
        mask = np.ones(matrix.scores.shape, dtype=bool)
        mask[evaluation.mate_rows, [matrix.subject_ids.index(p.true_subject_id)
                                    for p in manifest.probes if manifest.is_mate(p)]] = False
        assert evaluation.impostor.tobytes() == np.sort(matrix.scores[mask]).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda g: st.tuples(
        st.lists(st.one_of(st.none(), st.sampled_from([0, g - 1]), st.integers(0, g - 1)),
                 min_size=1, max_size=10),
        st.lists(st.sampled_from([-0.0, 0.0, 0.5, -0.5, 1.0]), min_size=g * 10, max_size=g * 10),
    ).map(lambda case: (g, *case))))
    @example((3, [None, None], [0.0, -0.0, 0.5] * 10))
    @example((3, [0, 2, 1], [-0.0, 0.0, -0.0] * 10))
    @example((1, [0, 0], [0.0, -0.0] * 5))
    def test_impostors_equal_the_masked_cells_bit_for_bit(self, case):
        """The impostor array is scores.reshape(-1)[mask], sorted in place, for any
        layout of mates: none, every row, the first or last column; signs of zero included."""
        g, mates, values = case
        subjects = [f"g{j}" for j in range(g)]
        scores = np.array(values[: len(mates) * g]).reshape(len(mates), g)
        manifest = manifest_for(subjects, [None if m is None else subjects[m] for m in mates])
        matrix = ScoreMatrix(tuple(f"p{i}" for i in range(len(mates))), tuple(subjects), scores)
        mask = np.ones(scores.shape, dtype=bool)
        rows = [i for i, m in enumerate(mates) if m is not None]
        mask[rows, [mates[i] for i in rows]] = False
        expected = scores.reshape(-1)[mask.reshape(-1)]
        expected.sort()
        impostor = IdentificationEval(matrix, manifest).impostor
        assert impostor.dtype == np.float64
        assert np.array_equal(impostor.view(np.int64), expected.view(np.int64))

    def test_arrays_are_derived_once(self):
        matrix = ScoreMatrix(
            ("p0", "p1", "p2"), ("a", "b"), np.array([[0.9, 0.1], [0.5, 0.4], [0.6, 0.3]])
        )
        evaluation = IdentificationEval(matrix, manifest_for(["a", "b"], ["a", "b", None]))
        assert evaluation.mate_rows.tolist() == [0, 1]
        assert evaluation.non_mate_rows.tolist() == [2]
        assert evaluation.genuine.tolist() == [0.9, 0.4]
        assert evaluation.ranks.tolist() == [1, 2]
        assert evaluation.impostor.tolist() == [0.1, 0.3, 0.5, 0.6]
        assert evaluation.ranks is evaluation.ranks
        assert evaluation.impostor is evaluation.impostor
        assert not evaluation.impostor.flags.writeable

    def test_missing_mate_column_rejected(self):
        matrix = ScoreMatrix(("p0",), ("a",), np.array([[0.5]]))
        with pytest.raises(ProtocolError, match="no gallery column"):
            IdentificationEval(matrix, manifest_for(["a", "b"], ["b"]))

    def test_keeps_no_matrix(self):
        matrix = ScoreMatrix(
            ("p0", "p1", "p2"), ("a", "b"), np.array([[0.9, 0.1], [0.5, 0.4], [0.6, 0.3]])
        )
        evaluation = IdentificationEval(matrix, manifest_for(["a", "b"], ["a", "b", None]))
        alive = weakref.ref(matrix)
        del matrix
        gc.collect()
        assert alive() is None
        assert not hasattr(evaluation, "matrix")
        assert evaluation.tops.tolist() == [0.9, 0.5, 0.6]
        assert evaluation.gallery_size == 2
        assert evaluation.cmc().y == (0.5, 1.0)

    @pytest.mark.parametrize("subjects", [("a", "b"), ()])
    def test_no_mate_search_has_nothing_to_rank(self, subjects):
        matrix = ScoreMatrix(("p0", "p1"), subjects, np.full((2, len(subjects)), 0.5))
        manifest = manifest_for(["a", "b"], [None, None])
        evaluation = IdentificationEval(matrix, manifest)
        for call in (evaluation.cmc, lambda: evaluation.rank_k_accuracy(1),
                     lambda: cmc(matrix, manifest), lambda: rank_k_accuracy(matrix, manifest, 1)):
            with pytest.raises(ProtocolError, match="^no mate searches to rank$"):
                call()
        with pytest.raises(ProtocolError, match="^no mate searches in the matrix$"):
            evaluation.fnir_fpir()


def test_far_target_takes_real_numbers_only():
    for value in ("0.01", True, None):
        with pytest.raises(ValidationError, match=f"^FAR target must be a number, got {re.escape(repr(value))}$"):
            far_target(value)
    with pytest.raises(ValidationError, match="^FAR target must be a number, got '0.5'$"):
        far_targets(["0.5", 0.1])
    assert far_target(np.float64(0.5)) == 0.5
    assert far_target(1) == 1.0 and type(far_target(1)) is float


def test_setting_checks_raise_biomeval_errors():
    """Every setting check raises one class, a BiomevalError that is also a ValueError."""
    evaluation = IdentificationEval(ScoreMatrix(("p0",), ("a",), np.array([[0.5]])),
                                    manifest_for(["a"], ["a"]))
    gallery = aggregate_gallery({"a": np.ones(2)})
    for call in (lambda: positive_rank("k", 0), lambda: far_target(2),
                 lambda: report_ranks([1, 1]), lambda: far_targets([0.1, 0.1]),
                 lambda: evaluation.rank_k_accuracy(0),
                 lambda: score(np.ones((1, 2)), gallery, metric="x", probe_ids=["p0"])):
        with pytest.raises(BiomevalError) as info:
            call()
        assert isinstance(info.value, ValueError)


def test_tar_at_far_and_roc_share_one_impostor_copy():
    """tar_at_far then roc_curve stay under 1.5x the score matrix: one mask, one sorted copy."""
    rng = np.random.default_rng(89)
    probes, subjects = 400, 2500
    names = [f"g{j}" for j in range(subjects)]
    manifest = manifest_for(names, [names[i * 5] if i % 4 else None for i in range(probes)])
    matrix = ScoreMatrix(
        tuple(f"p{i}" for i in range(probes)), tuple(names), rng.uniform(-1, 1, (probes, subjects))
    )
    tracemalloc.start()
    try:
        evaluation = IdentificationEval(matrix, manifest)
        evaluation.tar_at_far()
        evaluation.roc_curve()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * matrix.scores.nbytes, peak / matrix.scores.nbytes


def test_build_gallery_templates_peak_is_the_rows():
    """About 1.07x the gallery rows from a float32 store: rows are widened and normalised
    a block at a time, against 2.1x with whole-matrix norm temporaries."""
    rng = np.random.default_rng(90)
    subjects, per, dim = 4000, 3, 256
    ids = [f"m{i}" for i in range(subjects * per)]
    store = EmbeddingStore(ids, rng.normal(size=(len(ids), dim)).astype(np.float32))
    manifest = ProtocolManifest(
        gallery=tuple(GalleryEntry(f"g{j}", tuple(ids[j * per : (j + 1) * per]))
                      for j in range(subjects)),
        probes=(),
    )
    tracemalloc.start()
    try:
        gallery = build_gallery_templates(manifest, store, "max_score")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.4 * gallery.rows.nbytes, peak / gallery.rows.nbytes


def test_build_mean_gallery_templates_peak_is_bounded():
    """About 1.3x the float64 media rows under "mean", for one 5-media class: the class is
    gathered at most _SCORE_CHUNK rows at a time and its means made unit in place, against
    2.4x with the whole class's copy and a second array of means."""
    rng = np.random.default_rng(92)
    subjects, per, dim = 4000, 5, 256
    ids = [f"m{i}" for i in range(subjects * per)]
    store = EmbeddingStore(ids, rng.normal(size=(len(ids), dim)).astype(np.float32))
    manifest = ProtocolManifest(
        gallery=tuple(GalleryEntry(f"g{j}", tuple(ids[j * per : (j + 1) * per]))
                      for j in range(subjects)),
        probes=(),
    )
    media_bytes = len(ids) * dim * 8
    tracemalloc.start()
    try:
        build_gallery_templates(manifest, store, "mean")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.45 * media_bytes, peak / media_bytes


def _numpy_uses_openblas_on_x86_64() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        return False
    return "openblas" in blas.lower() and platform.machine().lower() in ("x86_64", "amd64")


# Writes the golden inputs' "mean" template rows to stdout as raw bytes.
_MEAN_TEMPLATE_BYTES = """
import sys
from biomeval.identify import build_gallery_templates
from biomeval.io import load_embeddings, load_protocol
golden = sys.argv[1]
gallery = build_gallery_templates(
    load_protocol(golden + "/protocol.json"), load_embeddings(golden + "/embeddings.bemb"), "mean")
sys.stdout.buffer.write(gallery.rows.tobytes())
"""


@pytest.mark.skipif(not _numpy_uses_openblas_on_x86_64(), reason="needs numpy on OpenBLAS, x86-64")
def test_mean_templates_do_not_depend_on_the_openblas_kernel():
    """Every norm is numpy's own sum of squares, so the templates' bits are the same under
    OpenBLAS's baseline kernel and its AVX one; a BLAS dot product's bits are not."""
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(tests), "src")
    rows = {}
    for core in ("Prescott", "Sandybridge"):
        env = {**os.environ, "OPENBLAS_CORETYPE": core,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-c", _MEAN_TEMPLATE_BYTES, os.path.join(tests, "data", "id_golden")],
            env=env, capture_output=True, timeout=120, check=True)
        rows[core] = done.stdout
    assert len(rows["Prescott"]) == 200 * 16 * 8
    assert rows["Prescott"] == rows["Sandybridge"]


def test_identification_eval_builds_impostors_without_a_mask():
    """Construction stays under 1.06x the score matrix: the impostor copy and
    small per-row arrays, with no probe-by-gallery boolean mask."""
    rng = np.random.default_rng(91)
    probes, subjects = 400, 2500
    names = [f"g{j}" for j in range(subjects)]
    manifest = manifest_for(names, [names[i * 5] if i % 4 else None for i in range(probes)])
    matrix = ScoreMatrix(
        tuple(f"p{i}" for i in range(probes)), tuple(names), rng.uniform(-1, 1, (probes, subjects))
    )
    tracemalloc.start()
    try:
        IdentificationEval(matrix, manifest)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.06 * matrix.scores.nbytes, peak / matrix.scores.nbytes


# Few distinct values, so that draws hold ties and runs of zeros of both signs.
_TIED_FLOATS = st.lists(
    st.one_of(st.sampled_from([-0.0, 0.0, 1.0, -1.0, 0.5, -np.inf, np.inf]),
              st.floats(allow_nan=False)),
    min_size=1, max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(_TIED_FLOATS)
@example([0.0])
@example([-0.0, 0.0, -0.0, 0.0, -0.0])
@example([0.0, -0.0, 0.0, 0.0])
@example([2.5] * 7)
def test_distinct_matches_numpy_unique_bit_for_bit(values):
    """_distinct of sorted values is numpy.unique, signs of zero included."""
    values = np.array(values, dtype=np.float64)
    assert identify._distinct(np.sort(values)).tobytes() == np.unique(values).tobytes()
