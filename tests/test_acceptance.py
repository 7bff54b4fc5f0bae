"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a PASS line on success (visible with pytest -s); a
failing criterion fails its test.
"""

import json
import math
import time

import numpy as np

from biomeval import (
    GalleryEntry,
    LabeledBatch,
    MatchCounts,
    ProbeEntry,
    ProtocolManifest,
    ScoreMatrix,
    aggregate_gallery,
    batch_hard_triplet,
    cmc,
    evaluate_detections,
    fnir_fpir,
    match_frame,
    rank_k_accuracy,
    roc_curve,
    run_self_check,
    score,
    smooth_l1,
    tar_at_far,
    write_embeddings,
)
from biomeval.cli import main
from biomeval.identify import IdentificationEval
from biomeval.io import load_embeddings
from biomeval.sampling import dataset_balanced_weights, pk_batches, sample_media
from biomeval.stores import DetectionStore, EmbeddingStore, GroundTruthStore

from conftest import build_matrix_and_manifest, random_frame, random_protocol, write_jsonl
from oracles import match_frame_reference, naive_cmc, naive_identification, naive_tar
from test_detection import _two_group_stores


def _report(name):
    print(f"PASS: {name}", flush=True)


def test_c1_detection_oracle_equivalence():
    """500 random frames match the brute-force matcher exactly at {0.35, 0.5, 0.7} in < 5 s."""
    rng = np.random.default_rng(1001)
    thresholds = (0.35, 0.5, 0.7)
    frames = [random_frame(rng, max_boxes=10) for _ in range(500)]

    start = time.perf_counter()
    det_records, gt_records = [], []
    expected = {thr: MatchCounts() for thr in thresholds}
    for idx, (preds, gts) in enumerate(frames):
        for thr in thresholds:
            counts = match_frame(preds, gts, thr)
            tp, fp, fn = match_frame_reference(preds, gts, thr)
            assert (counts.tp, counts.fp, counts.fn) == (tp, fp, fn)
            expected[thr] = expected[thr] + MatchCounts(tp, fp, fn)
        for p in preds:
            det_records.append(
                type(p)(media_id=f"f{idx}", frame=0, box=p.box, score=p.score)
            )
        for g in gts:
            gt_records.append(
                type(g)(media_id=f"f{idx}", frame=0, box=g.box, subject_id=g.subject_id)
            )
    tags = {f"f{i}": "synthetic" for i in range(len(frames))}
    report = evaluate_detections(
        DetectionStore.from_records(det_records, media_tags=tags),
        GroundTruthStore.from_records(gt_records, media_tags=tags),
        thresholds,
    )
    for thr in thresholds:
        assert report.pooled[thr].counts == expected[thr]
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _report(f"criterion 1 detection oracle equivalence ({elapsed:.2f}s)")


def test_c2_pooled_vs_macro_fixture():
    """Two-group fixture: pooled F1 exactly 2/3; macro mean 22/35 within 1e-12."""
    dets, gts = _two_group_stores()
    report = evaluate_detections(dets, gts, thresholds=(0.5,))
    pooled = report.pooled[0.5].f1
    assert pooled == 2.0 / 3.0
    alpha = report.per_group[("alpha", 0.5)].f1
    beta = report.per_group[("beta", 0.5)].f1
    macro = (alpha + beta) / 2.0
    assert abs(macro - 22.0 / 35.0) <= 1e-12
    assert pooled != macro
    _report("criterion 2 pooled F1 = 2/3 exactly, macro mean = 22/35")


def test_c3_loss_correctness():
    """Worked values at 1e-12, triplet oracle on 200 batches, gradients < 1e-5; < 10 s."""
    start = time.perf_counter()
    assert abs(smooth_l1([1.0], [0.0], beta=1.0 / 9.0) - (1.0 - 1.0 / 18.0)) <= 1e-12
    from biomeval import ObjectnessSample, bce, cross_entropy

    assert abs(bce(ObjectnessSample(0.5, 1)) - math.log(2.0)) <= 1e-12
    assert abs(cross_entropy([0.0] * 4, 1) - math.log(4.0)) <= 1e-12

    from oracles import triplet_reference

    rng = np.random.default_rng(1003)
    for _ in range(200):
        subjects = int(rng.integers(2, 5))
        per = int(rng.integers(2, 5))
        labels = [f"s{i}" for i in range(subjects) for _ in range(per)][:16]
        while labels.count(labels[-1]) < 2:
            labels.pop()
        dim = int(rng.integers(1, 9))
        feats = rng.normal(size=(len(labels), dim))
        margin = float(rng.uniform(0.0, 1.0))
        got = batch_hard_triplet(LabeledBatch(feats, labels), margin)
        want = triplet_reference(feats.tolist(), labels, margin)
        assert abs(got - want) <= 1e-12

    report = run_self_check(seed=1003, gradient_points=100)
    assert report.passed, [c.name for c in report.checks if not c.passed]
    assert report.max_gradient_error < 1e-5
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _report(
        f"criterion 3 loss correctness (max gradient error "
        f"{report.max_gradient_error:.2e}, {elapsed:.2f}s)"
    )


def test_c4_sampler_statistics_and_determinism():
    """Sizes {1,3} frequency within 0.03; byte-identical plans; 1000 structural 4x4 batches."""
    weights = dataset_balanced_weights({"A": ["a0"], "B": ["b0", "b1", "b2"]})
    draws = sample_media(weights, 10_000, seed=1004)
    freq_a = draws.count("a0") / len(draws)
    assert abs(freq_a - 0.5) <= 0.03

    index = {f"s{i}": [f"s{i}m{j}" for j in range(5)] for i in range(9)}
    plan_a = pk_batches(index, n=4, k=4, num_batches=1000, seed=77)
    plan_b = pk_batches(index, n=4, k=4, num_batches=1000, seed=77)
    bytes_a = json.dumps({"batches": [list(b) for b in plan_a.batches]}).encode()
    bytes_b = json.dumps({"batches": [list(b) for b in plan_b.batches]}).encode()
    assert bytes_a == bytes_b

    subject_of = {m: s for s, ms in index.items() for m in ms}
    assert len(plan_a.batches) == 1000
    for batch in plan_a.batches:
        assert len(batch) == 16
        labels = [subject_of[m] for m in batch]
        assert len(set(labels)) == 4
        assert all(labels.count(s) == 4 for s in set(labels))
    _report(f"criterion 4 sampler statistics (A frequency {freq_a:.3f}) and determinism")


def test_c5_identification_metric_properties():
    """1000 random protocols: monotone curves and naive-reference agreement in < 30 s."""
    rng = np.random.default_rng(1005)
    start = time.perf_counter()
    targets = (0.01, 0.1, 0.5)
    for trial in range(1000):
        gallery_media, probe_vectors, probe_mates = random_protocol(rng, 50, 100, dim=6)
        matrix, manifest = build_matrix_and_manifest(gallery_media, probe_vectors, probe_mates)
        mate_ids = [f"p{i}" for i, m in enumerate(probe_mates) if m is not None]
        mate_matrix = matrix.subset(mate_ids)

        curve = cmc(mate_matrix, manifest)
        ys = curve.y
        assert all(b >= a for a, b in zip(ys, ys[1:]))
        assert ys[-1] == 1.0

        points = tar_at_far(matrix, manifest, targets)
        tars = [p.tar for p in points]
        assert all(b >= a for a, b in zip(tars, tars[1:]))
        assert all(p.achieved_far <= p.far_target for p in points)

        open_set = fnir_fpir(matrix, manifest)
        assert all(b > a for a, b in zip(open_set.x, open_set.x[1:]))
        assert all(b <= a for a, b in zip(open_set.y, open_set.y[1:]))

        _, ranks, genuine, impostor = naive_identification(
            probe_vectors, probe_mates, gallery_media
        )
        got_ranks = IdentificationEval(mate_matrix, manifest).ranks
        assert got_ranks.tolist() == ranks

        expected_cmc = naive_cmc(ranks, len(gallery_media))
        for got, want in zip(curve.y, expected_cmc):
            assert abs(got - want) <= 1e-9
        for k in sorted({1, min(5, len(gallery_media)), len(gallery_media)}):
            assert abs(rank_k_accuracy(mate_matrix, manifest, k) - expected_cmc[k - 1]) <= 1e-9

        for point, (_, tar, far) in zip(points, naive_tar(genuine, impostor, targets)):
            assert abs(point.tar - tar) <= 1e-9
            assert abs(point.achieved_far - far) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    _report(f"criterion 5 identification properties over 1000 protocols ({elapsed:.2f}s)")


def test_c6_worked_example_fixtures():
    """The CMC, TAR@FAR, and FNIR/FPIR worked examples reproduce exactly."""
    matrix = ScoreMatrix(
        ("p0", "p1"),
        ("a", "b", "c"),
        np.array([[0.9, 0.5, 0.1], [0.7, 0.2, 0.6]]),
    )
    manifest = ProtocolManifest(
        gallery=tuple(GalleryEntry(s, (f"{s}m",)) for s in ("a", "b", "c")),
        probes=(ProbeEntry("p0", "p0m", "a"), ProbeEntry("p1", "p1m", "b")),
    )
    assert cmc(matrix, manifest).y == (0.5, 0.5, 1.0)

    tar_matrix = ScoreMatrix(("p0", "p1"), ("a", "b"), np.array([[0.9, 0.7], [0.1, 0.5]]))
    tar_manifest = ProtocolManifest(
        gallery=(GalleryEntry("a", ("am",)), GalleryEntry("b", ("bm",))),
        probes=(ProbeEntry("p0", "p0m", "a"), ProbeEntry("p1", "p1m", "b")),
    )
    half, tight = tar_at_far(tar_matrix, tar_manifest, [0.5, 0.01])
    assert (half.tar, half.achieved_far) == (1.0, 0.5)
    assert (tight.tar, tight.achieved_far) == (0.5, 0.0)

    open_matrix = ScoreMatrix(
        ("p0", "p1", "p2", "p3"),
        ("a", "b"),
        np.array([[0.9, 0.1], [0.05, 0.4], [0.6, 0.3], [0.2, 0.05]]),
    )
    open_manifest = ProtocolManifest(
        gallery=(GalleryEntry("a", ("am",)), GalleryEntry("b", ("bm",))),
        probes=(
            ProbeEntry("p0", "p0m", "a"),
            ProbeEntry("p1", "p1m", "b"),
            ProbeEntry("p2", "p2m", None),
            ProbeEntry("p3", "p3m", None),
        ),
    )
    curve = fnir_fpir(open_matrix, open_manifest, thresholds=[0.5])
    assert curve.points == ((0.5, 0.5),)
    _report("criterion 6 worked-example fixtures exact")


def test_c7_configuration_fidelity(two_group_files, toy_protocol_files, tmp_path, capsys):
    """Built-in defaults echoed verbatim in reports."""
    det_path, gt_path = two_group_files
    out_det = tmp_path / "det"
    assert main(["eval-det", "--det", str(det_path), "--gt", str(gt_path),
                 "--out", str(out_det)]) == 0
    det_report = json.loads((out_det / "detection_report.json").read_text())
    assert det_report["iou_thresholds"] == [0.35, 0.5, 0.7]

    emb_path, protocol_path = toy_protocol_files
    out_id = tmp_path / "id"
    assert main(["eval-id", "--emb", str(emb_path), "--protocol", str(protocol_path),
                 "--out", str(out_id)]) == 0
    id_report = json.loads((out_id / "identification_report.json").read_text())
    assert id_report["far_targets"] == [1e-4, 1e-3, 1e-2, 1e-1]
    assert id_report["ranks"] == [1, 5, 10, 20]

    capsys.readouterr()
    assert main(["check-losses"]) == 0
    losses_out = capsys.readouterr().out
    assert "beta=1/9" in losses_out

    media_rows = [
        {"media_id": f"s{s}m{m}", "subject_id": f"s{s}", "dataset_tag": "alpha",
         "modality": "video", "frame_count": 900}
        for s in range(6) for m in range(5)
    ]
    media_path = write_jsonl(tmp_path / "media.jsonl", media_rows)
    for stride in (150, 300):
        out_plan = tmp_path / f"plan{stride}"
        assert main(["plan-batches", "--media", str(media_path), "--out", str(out_plan),
                     "--stride", str(stride), "--mode", "test"]) == 0
        plan = json.loads((out_plan / "plan.json").read_text())
        assert (plan["n"], plan["k"]) == (4, 4)
        assert plan["stride"] == stride
        assert plan["stride_choices"] == [150, 300]
        assert plan["generator"] == "numpy-pcg64"
    _report("criterion 7 configuration fidelity (IoU, FAR, ranks, beta, n x k, strides)")


def test_c8_performance_envelope(toy_protocol_files, tmp_path):
    """1000 x 10000 x 512 scoring + CMC + ROC < 5 s; reruns give identical bytes."""
    rng = np.random.default_rng(1008)
    g, p, dim = 10_000, 1_000, 512
    gallery = aggregate_gallery({f"g{j}": rng.normal(size=(1, dim)) for j in range(g)})
    manifest = ProtocolManifest(
        gallery=tuple(GalleryEntry(f"g{j}", (f"g{j}m",)) for j in range(g)),
        probes=tuple(
            ProbeEntry(f"p{i}", f"p{i}m", f"g{int(rng.integers(0, g))}") for i in range(p)
        ),
    )
    probes = rng.normal(size=(p, dim))
    start = time.perf_counter()
    matrix = score(probes, gallery, probe_ids=[f"p{i}" for i in range(p)])
    curve = cmc(matrix, manifest)
    roc = roc_curve(matrix, manifest)
    elapsed = time.perf_counter() - start
    assert curve.y[-1] == 1.0
    assert roc.points[-1] == (1.0, 1.0)
    assert elapsed < 5.0, f"took {elapsed:.2f}s"

    emb_path, protocol_path = toy_protocol_files
    outs = []
    for run in ("a", "b"):
        out = tmp_path / f"run_{run}"
        assert main(["eval-id", "--emb", str(emb_path), "--protocol", str(protocol_path),
                     "--out", str(out)]) == 0
        outs.append(out)
    for name in ("identification_report.json", "cmc.csv", "roc.csv", "openset.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    _report(f"criterion 8 performance envelope ({elapsed:.2f}s) and byte-identical reruns")


def test_c9_binary_format_round_trip(tmp_path):
    """100 random stores survive write -> read -> write byte-identically."""
    rng = np.random.default_rng(1009)
    for trial in range(100):
        dim = int(rng.integers(1, 65))
        count = int(rng.integers(0, 30))
        matrix = rng.normal(scale=10.0, size=(count, dim)).astype(np.float32)
        store = EmbeddingStore([f"t{trial}/m{i}" for i in range(count)], matrix)
        first = tmp_path / "first.bemb"
        second = tmp_path / "second.bemb"
        write_embeddings(store, first, format="binary")
        write_embeddings(load_embeddings(first, format="binary"), second, format="binary")
        assert first.read_bytes() == second.read_bytes()
    _report("criterion 9 binary embedding round-trip bit-exact on 100 stores")
