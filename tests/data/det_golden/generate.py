"""Write the eval-det golden inputs next to this file.

    python3 tests/data/det_golden/generate.py

The set is small but covers what the matcher must get right: a few
hundred frames over eight media listed out of order, crowd frames of
20-40 people, scores, sizes and offsets drawn from a few levels (so tied
scores, tied areas and tied IoUs are common), boxes that equal their
ground truth exactly (IoU 1.0), frames present in only one file, a frame
number beyond the int64 range, and media whose dataset tag comes only
from media.jsonl. Box numbers are written as corners (x1, y1, x2, y2),
all positive, so the files are valid under both --box-format values.
The expected outputs beside them were written by the CLI, once per
format; regenerating the inputs invalidates them.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
# (media_id, tag written in the files or None, tag in media.jsonl)
MEDIA = (
    ("zeta-07", "aerial", "aerial"),
    ("clip10", "indoor", "indoor"),
    ("clip9", None, "indoor"),
    ("Clip1", "outdoor", "outdoor"),
    ("écam-2", None, "aerial"),
    ("b", "outdoor", "outdoor"),
    ("a.b", None, "outdoor"),
    ("clip9x", "indoor", "indoor"),
)
SCORES = (0.0, 0.25, 0.5, 0.5, 0.75, 0.9, 1.0)
SIDES = (10, 12.5, 20, 40)
OFFSETS = (0, 0, 1, 2.5, 5, -3)


def _corners(x, y, w, h):
    return {"x": x, "y": y, "w": round(x + w, 2), "h": round(y + h, 2)}


def main() -> None:
    rng = random.Random(20231109)
    det_lines, gt_lines = [], []
    frame_count = 0
    for m, (media_id, file_tag, _) in enumerate(MEDIA):
        frames = sorted(rng.sample(range(0, 400), 36))
        if m == 2:
            frames.append(2**70)  # beyond int64
        for k, frame in enumerate(frames):
            frame_count += 1
            crowd = k % 12 == 5
            people = rng.randint(20, 40) if crowd else rng.randint(0, 3)
            region = (300, 200) if crowd else (1500, 900)
            only_dets = k % 17 == 3
            for p in range(people):
                w = rng.choice(SIDES)
                h = w * rng.choice((2, 2.5))
                x = rng.choice((rng.randint(20, region[0]), round(rng.uniform(20, region[0]), 2)))
                y = rng.choice((rng.randint(20, region[1]), round(rng.uniform(20, region[1]), 2)))
                if not only_dets:
                    row = {"media_id": media_id, "frame": frame, **_corners(x, y, w, h),
                           "subject_id": f"p{p}"}
                    if file_tag is not None and rng.random() < 0.9:
                        row["dataset_tag"] = file_tag
                    gt_lines.append(row)
                for _ in range(rng.choice((0, 1, 1, 2, 3))):
                    dx, dy = rng.choice(OFFSETS), rng.choice(OFFSETS)
                    dw = rng.choice((w, w, w + 2.5, w - 2.5))
                    row = {"media_id": media_id, "frame": frame,
                           **_corners(x + dx, y + dy, dw, h), "score": rng.choice(SCORES)}
                    if file_tag is not None and rng.random() < 0.9:
                        row["dataset_tag"] = file_tag
                    det_lines.append(row)
            for _ in range(rng.choice((0, 0, 1, 2)) + (3 if crowd else 0)):
                w = rng.choice(SIDES)
                x, y = rng.randint(20, region[0]), rng.randint(20, region[1])
                row = {"media_id": media_id, "frame": frame, **_corners(x, y, w, 2 * w),
                       "score": rng.choice(SCORES)}
                det_lines.append(row)
            if k % 19 == 7:  # a frame with ground truth and no detections
                gt_lines.append({"media_id": media_id, "frame": frame + 1000,
                                 **_corners(50, 60, 20, 40), "subject_id": "q"})
    # Shuffled, so media interleave and each frame's detections come in a
    # random but reproducible order (the last tie-break of the matcher).
    rng.shuffle(det_lines)
    rng.shuffle(gt_lines)
    for name, rows in (("detections.jsonl", det_lines), ("ground_truth.jsonl", gt_lines)):
        with open(HERE / name, "w", encoding="utf-8") as fh:
            for i, row in enumerate(rows):
                fh.write(json.dumps(row, ensure_ascii=False) + "\n")
                if i % 250 == 249:
                    fh.write("\n")
    with open(HERE / "media.jsonl", "w", encoding="utf-8") as fh:
        for media_id, _, tag in MEDIA:
            row = {"media_id": media_id, "subject_id": "crowd", "dataset_tag": tag,
                   "modality": "video", "frame_count": 1}
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")
    print(f"{frame_count} frames, {len(det_lines)} detections, {len(gt_lines)} ground truths")


if __name__ == "__main__":
    main()
