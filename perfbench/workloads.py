"""Seeded synthetic inputs for the benchmark workloads.

Every generator takes the workload seed and a directory, writes the files
the biomeval CLI reads, and returns them together with the exact values it
wrote, so that the reference in ``reference.py`` works from the same
numbers the program parses and never from the program's own output.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# eval-id workload: 5000 gallery subjects (4000 of them distractors) with
# 1-5 media each, 1000 mate and 1000 non-mate probes, d=512.
ID_SUBJECTS = 5000
ID_DISTRACTORS = 4000
ID_MATES = 1000
ID_NON_MATES = 1000
ID_DIM = 512
ID_MAX_MEDIA = 5
# Media noise relative to the unit-variance subject centre; puts rank-1
# accuracy between 0.9 and 0.97, so the CMC, ROC and FNIR/FPIR curves have
# real tails.
ID_NOISE = 2.0

# eval-det workload: 200 clips x 100 frames in 4 dataset groups; 2% of the
# frames are crowds of 20-40 people, the rest hold 0-3.
DET_CLIPS = 200
DET_FRAMES_PER_CLIP = 100
DET_TAGS = ("indoor_10m", "outdoor_100m", "outdoor_200m", "aerial_500m")
DET_CROWD_SHARE = 0.02
DET_IMAGE_W, DET_IMAGE_H = 1920.0, 1080.0
IOU_THRESHOLDS = (0.35, 0.5, 0.7)


@dataclass
class IdInputs:
    emb_path: Path
    protocol_path: Path
    vectors: np.ndarray  # float32 rows exactly as written to the BEMB file
    gallery_media: list[list[int]]  # per gallery subject, row indices into vectors
    probe_rows: np.ndarray  # per probe, row index into vectors
    probe_mate: np.ndarray  # per probe, gallery column of its mate or -1
    sizes: dict = field(default_factory=dict)


@dataclass
class DetInputs:
    det_path: Path
    gt_path: Path
    # Per frame, in file order: (tag, preds (n, 5) x/y/w/h/score, gts (m, 4)).
    frames: list[tuple[str, np.ndarray, np.ndarray]]
    crowd: np.ndarray  # per frame, True for crowd frames
    sizes: dict = field(default_factory=dict)


def _write_bemb(path: Path, media_ids: list[str], vectors: np.ndarray) -> None:
    rows = vectors.astype("<f4", copy=False)
    parts = [b"BEMB", struct.pack("<IIQ", 1, rows.shape[1], rows.shape[0])]
    for media_id, row in zip(media_ids, rows):
        raw = media_id.encode("utf-8")
        parts.append(struct.pack("<I", len(raw)))
        parts.append(raw)
        parts.append(row.tobytes())
    path.write_bytes(b"".join(parts))


def make_id_inputs(seed: int, out_dir: Path) -> IdInputs:
    """BEMB embeddings and a protocol manifest for the eval-id workloads."""
    rng = np.random.default_rng([seed, 1])
    out_dir.mkdir(parents=True, exist_ok=True)
    counts = rng.integers(1, ID_MAX_MEDIA + 1, size=ID_SUBJECTS)
    centres = rng.standard_normal((ID_SUBJECTS + ID_NON_MATES, ID_DIM))

    # Gallery order is a random interleaving of mated and distractor subjects.
    order = rng.permutation(ID_SUBJECTS)
    distractor = np.zeros(ID_SUBJECTS, dtype=bool)
    distractor[rng.choice(ID_SUBJECTS, ID_DISTRACTORS, replace=False)] = True
    mated = np.flatnonzero(~distractor)

    names: list[str] = []
    centre_of: list[int] = []
    for s in range(ID_SUBJECTS):
        for k in range(counts[s]):
            names.append(f"S{s:05d}_m{k}")
            centre_of.append(s)
    for i, s in enumerate(mated):
        names.append(f"P{i:05d}")
        centre_of.append(int(s))
    for i in range(ID_NON_MATES):
        names.append(f"Q{i:05d}")
        centre_of.append(ID_SUBJECTS + i)
    noise = rng.standard_normal((len(names), ID_DIM))
    vectors = (centres[centre_of] + ID_NOISE * noise).astype(np.float32)

    # The file lists media in a random order, as an extractor pool would.
    file_order = rng.permutation(len(names))
    media_ids = [names[i] for i in file_order]
    vectors = vectors[file_order]
    row_of = {m: r for r, m in enumerate(media_ids)}

    gallery_subjects = [f"S{s:05d}" for s in order]
    gallery_media = [[row_of[f"S{s:05d}_m{k}"] for k in range(counts[s])] for s in order]
    column_of = {int(s): j for j, s in enumerate(order)}
    probes = [(f"P{i:05d}", f"S{s:05d}", column_of[int(s)]) for i, s in enumerate(mated)]
    # Half the non-mate probes name an unenrolled subject, half name none.
    probes += [(f"Q{i:05d}", f"U{i:05d}" if i % 2 else None, -1) for i in range(ID_NON_MATES)]
    probes = [probes[i] for i in rng.permutation(len(probes))]

    doc = {
        "gallery": [
            {"subject_id": gallery_subjects[j], "media_ids": [media_ids[r] for r in rows],
             "distractor": bool(distractor[order[j]])}
            for j, rows in enumerate(gallery_media)
        ],
        "probes": [
            {"probe_id": f"probe-{media}", "media_id": media, "true_subject_id": subject}
            for media, subject, _ in probes
        ],
    }
    emb_path = out_dir / "embeddings.bemb"
    protocol_path = out_dir / "protocol.json"
    _write_bemb(emb_path, media_ids, vectors)
    protocol_path.write_text(json.dumps(doc) + "\n", encoding="utf-8")

    gallery_media_total = int(counts.sum())
    return IdInputs(
        emb_path=emb_path,
        protocol_path=protocol_path,
        vectors=vectors,
        gallery_media=gallery_media,
        probe_rows=np.array([row_of[media] for media, _, _ in probes]),
        probe_mate=np.array([col for _, _, col in probes]),
        sizes={
            "emb_bytes": emb_path.stat().st_size,
            "protocol_bytes": protocol_path.stat().st_size,
            "embedding_records": len(media_ids),
            "dim": ID_DIM,
            "gallery_subjects": ID_SUBJECTS,
            "distractors": ID_DISTRACTORS,
            "gallery_media": gallery_media_total,
            "mate_probes": ID_MATES,
            "non_mate_probes": ID_NON_MATES,
            "impostor_pairs": (ID_MATES + ID_NON_MATES) * ID_SUBJECTS - ID_MATES,
        },
    )


def _boxes(rng, n, crowd):
    """n person boxes (x, y, w, h); crowd boxes share one region and overlap."""
    w = np.where(crowd, rng.uniform(30, 60, n), rng.uniform(20, 80, n))
    h = w * rng.uniform(2.2, 2.8, n)
    x = np.where(crowd, rng.uniform(600, 1300, n), rng.uniform(0, DET_IMAGE_W - w))
    y = np.where(crowd, rng.uniform(300, 700, n), rng.uniform(0, DET_IMAGE_H - h))
    return np.stack([x, y, w, h], axis=1)


def make_det_inputs(seed: int, out_dir: Path) -> DetInputs:
    """Detections and ground truth JSONL files for the eval-det workload."""
    rng = np.random.default_rng([seed, 2])
    out_dir.mkdir(parents=True, exist_ok=True)
    n_frames = DET_CLIPS * DET_FRAMES_PER_CLIP
    crowd = np.zeros(n_frames, dtype=bool)
    crowd[rng.choice(n_frames, int(round(DET_CROWD_SHARE * n_frames)), replace=False)] = True
    people = np.where(crowd, rng.integers(20, 41, n_frames), rng.integers(0, 4, n_frames))

    # Ground truth for every frame at once.
    gt_frame = np.repeat(np.arange(n_frames), people)
    gts = np.round(_boxes(rng, gt_frame.size, crowd[gt_frame]), 2)

    # 0-3 detections per person, jittered around the person's box.
    hits = rng.choice(4, size=gt_frame.size, p=[0.1, 0.35, 0.45, 0.1])
    src = np.repeat(np.arange(gt_frame.size), hits)
    base = gts[src]
    jitter = rng.normal(0.0, 0.08, (src.size, 2)) * base[:, 2:4]
    scale = np.exp(rng.normal(0.0, 0.12, (src.size, 2)))
    hit_boxes = np.concatenate([base[:, :2] + jitter, base[:, 2:4] * scale], axis=1)
    first = np.ones(src.size, dtype=bool)
    first[1:] = src[1:] != src[:-1]
    hit_scores = np.where(first, rng.uniform(0.5, 1.0, src.size), rng.uniform(0.05, 0.9, src.size))

    # False positives: about 0.3 per sparse frame and 3 per crowd frame.
    fp_count = rng.poisson(np.where(crowd, 3.0, 0.3))
    fp_frame = np.repeat(np.arange(n_frames), fp_count)
    fp_boxes = _boxes(rng, fp_frame.size, crowd[fp_frame])
    fp_scores = rng.uniform(0.0, 0.6, fp_frame.size)

    det_frame = np.concatenate([gt_frame[src], fp_frame])
    dets = np.concatenate(
        [np.concatenate([hit_boxes, fp_boxes]), np.concatenate([hit_scores, fp_scores])[:, None]],
        axis=1,
    )
    dets[:, 2:4] = np.maximum(dets[:, 2:4], 1.0)
    dets[:, :4] = np.round(dets[:, :4], 2)
    dets[:, 4] = np.round(dets[:, 4], 4)
    # Within a frame, detections appear in a random order.
    perm = np.lexsort((rng.random(det_frame.size), det_frame))
    det_frame, dets = det_frame[perm], dets[perm]

    det_path = out_dir / "detections.jsonl"
    gt_path = out_dir / "ground_truth.jsonl"

    def media(f: int) -> tuple[str, int, str]:
        clip = f // DET_FRAMES_PER_CLIP
        return f"clip{clip:03d}", f % DET_FRAMES_PER_CLIP, DET_TAGS[clip % len(DET_TAGS)]

    with open(gt_path, "w", encoding="utf-8") as fh:
        person = 0
        for i, (f, box) in enumerate(zip(gt_frame.tolist(), gts.tolist())):
            person = person + 1 if i and gt_frame[i - 1] == f else 0
            media_id, frame, tag = media(f)
            fh.write(
                f'{{"media_id": "{media_id}", "frame": {frame}, "x": {box[0]!r}, "y": {box[1]!r}, '
                f'"w": {box[2]!r}, "h": {box[3]!r}, "subject_id": "p{person}", "dataset_tag": "{tag}"}}\n'
            )
    with open(det_path, "w", encoding="utf-8") as fh:
        for f, row in zip(det_frame.tolist(), dets.tolist()):
            media_id, frame, tag = media(f)
            fh.write(
                f'{{"media_id": "{media_id}", "frame": {frame}, "x": {row[0]!r}, "y": {row[1]!r}, '
                f'"w": {row[2]!r}, "h": {row[3]!r}, "score": {row[4]!r}, "dataset_tag": "{tag}"}}\n'
            )

    det_bounds = np.searchsorted(det_frame, np.arange(n_frames + 1))
    gt_bounds = np.searchsorted(gt_frame, np.arange(n_frames + 1))
    frames = []
    frame_crowd = []
    pairs = crowd_pairs = 0
    for f in range(n_frames):
        p = dets[det_bounds[f] : det_bounds[f + 1]]
        g = gts[gt_bounds[f] : gt_bounds[f + 1]]
        if not len(p) and not len(g):
            continue  # a frame absent from both files is never evaluated
        frames.append((media(f)[2], p, g))
        frame_crowd.append(bool(crowd[f]))
        pairs += len(p) * len(g)
        crowd_pairs += len(p) * len(g) if crowd[f] else 0
    return DetInputs(
        det_path=det_path,
        gt_path=gt_path,
        frames=frames,
        crowd=np.array(frame_crowd),
        sizes={
            "det_bytes": det_path.stat().st_size,
            "gt_bytes": gt_path.stat().st_size,
            "detection_records": int(det_frame.size),
            "ground_truth_records": int(gt_frame.size),
            "frames": len(frames),
            "crowd_frames": int(sum(frame_crowd)),
            "iou_thresholds": len(IOU_THRESHOLDS),
            "pairs": pairs * len(IOU_THRESHOLDS),
            "crowd_pair_share": crowd_pairs / pairs,
        },
    )
