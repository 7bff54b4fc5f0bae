"""Write the eval-id golden inputs next to this file.

    python3 tests/data/id_golden/generate.py

A small open-set protocol that exercises both gallery aggregations: 200
subjects (40 of them distractors) with 1-5 media each, listed in shuffled
order, d=16 float32 embeddings in the binary (BEMB) format with media
interleaved, mate probes drawn near their subject, non-mate probes drawn
from unenrolled identities, probes that copy a gallery medium exactly,
and two subjects that share a medium's vector (tied scores under
max_score). The expected outputs in mean/ and max_score/ were written by
the CLI; regenerating the inputs invalidates them.
"""

from __future__ import annotations

import json
import random
import struct
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIM = 16
SUBJECTS = 200
DISTRACTORS = 40
MATE_PROBES = 150
NON_MATE_PROBES = 60


def _vector(rng: random.Random, center=None, spread: float = 1.0) -> list[float]:
    if center is None:
        return [rng.gauss(0.0, 1.0) for _ in range(DIM)]
    return [c + rng.gauss(0.0, spread) for c in center]


def main() -> None:
    rng = random.Random(20231110)
    centers = {f"s{j:03d}": _vector(rng) for j in range(SUBJECTS)}
    vectors: dict[str, list[float]] = {}
    gallery = []
    for j, (subject, center) in enumerate(centers.items()):
        media_ids = [f"{subject}-m{i}" for i in range(rng.randint(1, 5))]
        for media_id in media_ids:
            vectors[media_id] = _vector(rng, center, spread=0.9)
        gallery.append({"subject_id": subject, "media_ids": media_ids,
                        "distractor": j >= SUBJECTS - DISTRACTORS})
    # s001's first medium repeats s000's: equal max_score columns for some probes.
    vectors["s001-m0"] = list(vectors["s000-m0"])
    rng.shuffle(gallery)

    enrolled = [s for s in centers][: SUBJECTS - DISTRACTORS]
    probes = []
    for i in range(MATE_PROBES):
        subject = rng.choice(enrolled)
        media_id = f"probe{i:03d}"
        if i % 25 == 0:  # an exact copy of one of the subject's gallery media
            vectors[media_id] = list(vectors[f"{subject}-m0"])
        else:
            vectors[media_id] = _vector(rng, centers[subject], spread=1.1)
        probes.append({"probe_id": f"q{i:03d}", "media_id": media_id, "true_subject_id": subject})
    for i in range(NON_MATE_PROBES):
        media_id = f"probe{MATE_PROBES + i:03d}"
        vectors[media_id] = _vector(rng)
        # Non-mates either name an unenrolled identity or none at all.
        truth = f"x{i:03d}" if i % 2 else None
        probes.append({"probe_id": f"q{MATE_PROBES + i:03d}", "media_id": media_id,
                       "true_subject_id": truth})
    rng.shuffle(probes)

    order = list(vectors)
    rng.shuffle(order)
    with open(HERE / "embeddings.bemb", "wb") as fh:
        fh.write(struct.pack("<4sIIQ", b"BEMB", 1, DIM, len(order)))
        for media_id in order:
            raw = media_id.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)) + raw)
            fh.write(struct.pack(f"<{DIM}f", *vectors[media_id]))
    with open(HERE / "protocol.json", "w", encoding="utf-8") as fh:
        json.dump({"gallery": gallery, "probes": probes}, fh, indent=1)
        fh.write("\n")
    print(f"{len(gallery)} subjects, {len(probes)} probes, {len(order)} embeddings")


if __name__ == "__main__":
    main()
