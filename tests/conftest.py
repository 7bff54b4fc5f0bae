import json

import numpy as np
import pytest

from biomeval import BoundingBox, DetectionRecord, GroundTruthRecord


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return path


def det(media_id, frame, x, y, w, h, score):
    return DetectionRecord(media_id, frame, BoundingBox(x, y, w, h), score)


def gt(media_id, frame, x, y, w, h, subject_id="s"):
    return GroundTruthRecord(media_id, frame, BoundingBox(x, y, w, h), subject_id)


def random_frame(rng, max_boxes=10):
    """A random frame: ground truths plus jittered/true-positive/noise predictions."""
    gts = []
    preds = []
    for i in range(int(rng.integers(0, max_boxes + 1))):
        x, y = rng.uniform(0, 200, size=2)
        w, h = rng.uniform(5, 60, size=2)
        gts.append(gt("m", 0, float(x), float(y), float(w), float(h), subject_id=f"s{i}"))
        if rng.random() < 0.8:
            jitter = rng.uniform(-10, 10, size=4)
            pw = max(1.0, w + jitter[2])
            ph = max(1.0, h + jitter[3])
            preds.append(
                det("m", 0, float(x + jitter[0]), float(y + jitter[1]), float(pw), float(ph),
                    float(rng.uniform(0.1, 1.0)))
            )
    for _ in range(int(rng.integers(0, 4))):
        x, y = rng.uniform(0, 300, size=2)
        w, h = rng.uniform(5, 50, size=2)
        preds.append(det("m", 0, float(x), float(y), float(w), float(h), float(rng.uniform(0.1, 1.0))))
    return preds, gts


@pytest.fixture
def two_group_files(tmp_path):
    """Detections/ground truth whose counts are (3,1,0) for group alpha and (1,0,3) for beta.

    Matches are exact-box overlaps, so the counts hold at any IoU
    threshold in (0, 1].
    """
    gt_rows = []
    det_rows = []
    for i in range(3):  # alpha: three matched boxes
        box = {"x": 100.0 * i, "y": 0.0, "w": 10.0, "h": 10.0}
        gt_rows.append({"media_id": "a1", "frame": i, "subject_id": f"s{i}", "dataset_tag": "alpha", **box})
        det_rows.append({"media_id": "a1", "frame": i, "score": 0.9, "dataset_tag": "alpha", **box})
    det_rows.append(  # alpha: one unmatched prediction
        {"media_id": "a1", "frame": 0, "x": 500.0, "y": 500.0, "w": 5.0, "h": 5.0,
         "score": 0.8, "dataset_tag": "alpha"}
    )
    for i in range(4):  # beta: four ground truths, one matched
        box = {"x": 50.0 * i, "y": 0.0, "w": 8.0, "h": 8.0}
        gt_rows.append({"media_id": "b1", "frame": i, "subject_id": f"s{i}", "dataset_tag": "beta", **box})
    det_rows.append({"media_id": "b1", "frame": 0, "x": 0.0, "y": 0.0, "w": 8.0, "h": 8.0,
                     "score": 0.7, "dataset_tag": "beta"})

    det_path = write_jsonl(tmp_path / "dets.jsonl", det_rows)
    gt_path = write_jsonl(tmp_path / "gts.jsonl", gt_rows)
    return det_path, gt_path


@pytest.fixture
def toy_protocol_files(tmp_path):
    """Three-subject gallery with one distractor; mate ranks 1 and 3, one non-mate probe."""
    emb_rows = [
        {"media_id": "gm1", "vector": [1.0, 0.0, 0.0]},
        {"media_id": "gm2", "vector": [0.0, 1.0, 0.0]},
        {"media_id": "gm3", "vector": [0.0, 0.0, 1.0]},
        {"media_id": "pm1", "vector": [1.0, 0.0, 0.0]},
        {"media_id": "pm2", "vector": [0.9, 0.1, 0.8]},
        {"media_id": "pm3", "vector": [0.7, 0.6, 0.0]},
    ]
    protocol = {
        "gallery": [
            {"subject_id": "g1", "media_ids": ["gm1"]},
            {"subject_id": "g2", "media_ids": ["gm2"]},
            {"subject_id": "g3", "media_ids": ["gm3"], "distractor": True},
        ],
        "probes": [
            {"probe_id": "p1", "media_id": "pm1", "true_subject_id": "g1"},
            {"probe_id": "p2", "media_id": "pm2", "true_subject_id": "g2"},
            {"probe_id": "p3", "media_id": "pm3", "true_subject_id": None},
        ],
    }
    emb_path = write_jsonl(tmp_path / "emb.jsonl", emb_rows)
    protocol_path = tmp_path / "protocol.json"
    protocol_path.write_text(json.dumps(protocol), encoding="utf-8")
    return emb_path, protocol_path


def random_protocol(rng, max_probes=50, max_gallery=100, dim=8):
    """Random gallery/probe instance for property checks.

    Returns (gallery_media, probe_vectors, probe_mates) where
    gallery_media is a per-subject list of media vectors and probe_mates
    holds the mate's gallery index or None. At least one distractor
    column and one non-mate probe are always present.
    """
    g = int(rng.integers(3, max_gallery + 1))
    p = int(rng.integers(2, max_probes + 1))
    gallery_media = [
        [rng.normal(size=dim).tolist() for _ in range(int(rng.integers(1, 4)))] for _ in range(g)
    ]
    # The last gallery subject never receives probes: a guaranteed distractor.
    probe_mates = [int(rng.integers(0, g - 1)) if rng.random() < 0.7 else None for _ in range(p)]
    probe_mates[int(rng.integers(0, p))] = None
    if all(m is None for m in probe_mates):
        probe_mates[0] = 0
    probe_vectors = [rng.normal(size=dim).tolist() for _ in range(p)]
    return gallery_media, probe_vectors, probe_mates


def build_matrix_and_manifest(gallery_media, probe_vectors, probe_mates, metric="cosine"):
    """Score a random_protocol instance through the library."""
    from biomeval import (
        GalleryEntry,
        ProbeEntry,
        ProtocolManifest,
        aggregate_gallery,
        score,
    )

    gallery = aggregate_gallery({f"g{j}": media for j, media in enumerate(gallery_media)})
    manifest = ProtocolManifest(
        gallery=tuple(
            GalleryEntry(f"g{j}", tuple(f"g{j}m{i}" for i in range(len(media))),
                         distractor=j not in {m for m in probe_mates if m is not None})
            for j, media in enumerate(gallery_media)
        ),
        probes=tuple(
            ProbeEntry(f"p{i}", f"p{i}m", f"g{mate}" if mate is not None else None)
            for i, mate in enumerate(probe_mates)
        ),
    )
    matrix = score(np.asarray(probe_vectors), gallery, metric=metric,
                   probe_ids=[f"p{i}" for i in range(len(probe_vectors))])
    return matrix, manifest
