"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written in plain Python (loops, math
module) and re-derives each quantity from first principles, so agreement
with the vectorized library code is meaningful.
"""

from __future__ import annotations

import math


def iou_reference(a, b) -> float:
    """IoU from corner coordinates, no shared code with the library."""
    ax2, ay2 = a.x + a.w, a.y + a.h
    bx2, by2 = b.x + b.w, b.y + b.h
    left, top = max(a.x, b.x), max(a.y, b.y)
    right, bottom = min(ax2, bx2), min(ay2, by2)
    if right <= left or bottom <= top:
        return 0.0
    inter = (right - left) * (bottom - top)
    union = a.w * a.h + b.w * b.h - inter
    return inter / union


def match_frame_reference(preds, gts, threshold):
    """Exhaustive greedy re-derivation of one frame's (tp, fp, fn).

    Repeatedly selects the next unvisited prediction with the highest
    score (ties: smaller area, then input order) and pairs it with the
    unmatched ground truth of highest IoU when that IoU reaches the
    threshold.
    """
    visited = [False] * len(preds)
    matched_gt = [False] * len(gts)
    tp = 0
    for _ in range(len(preds)):
        pick = None
        for i in range(len(preds)):
            if visited[i]:
                continue
            if pick is None:
                pick = i
                continue
            better = (
                preds[i].score > preds[pick].score
                or (
                    preds[i].score == preds[pick].score
                    and preds[i].box.w * preds[i].box.h < preds[pick].box.w * preds[pick].box.h
                )
            )
            if better:
                pick = i
        visited[pick] = True
        best_j, best_iou = None, 0.0
        for j in range(len(gts)):
            if matched_gt[j]:
                continue
            overlap = iou_reference(preds[pick].box, gts[j].box)
            if overlap > best_iou:
                best_iou, best_j = overlap, j
        if best_j is not None and best_iou >= threshold:
            matched_gt[best_j] = True
            tp += 1
    return tp, len(preds) - tp, len(gts) - tp


def euclidean(u, v) -> float:
    return math.sqrt(sum((float(a) - float(b)) ** 2 for a, b in zip(u, v)))


def triplet_reference(features, labels, margin) -> float:
    """All-triplets brute force: per anchor, the hardest (positive, negative) hinge."""
    b = len(labels)
    total = 0.0
    for a in range(b):
        worst = -math.inf
        for p in range(b):
            if p == a or labels[p] != labels[a]:
                continue
            for n in range(b):
                if labels[n] == labels[a]:
                    continue
                worst = max(worst, euclidean(features[a], features[p]) - euclidean(features[a], features[n]) + margin)
        total += max(0.0, worst)
    return total / b


def cosine_reference(u, v) -> float:
    dot = sum(float(a) * float(b) for a, b in zip(u, v))
    nu = math.sqrt(sum(float(a) ** 2 for a in u))
    nv = math.sqrt(sum(float(b) ** 2 for b in v))
    return dot / (nu * nv)


def naive_identification(probe_vectors, probe_mates, gallery):
    """Quadratic-time identification reference over raw vectors.

    probe_vectors: list of probe embedding lists.
    probe_mates: per probe, the mate's gallery index or None.
    gallery: list of per-subject media-vector lists; templates are the
    sum of unit-normalized media vectors (cosine ignores the final
    re-normalization).

    Returns (scores, ranks, genuine, impostor): the P x G score lists,
    the pessimistic mate rank per mate probe, and the genuine/impostor
    score pools.
    """
    templates = []
    for media in gallery:
        dim = len(media[0])
        acc = [0.0] * dim
        for vec in media:
            norm = math.sqrt(sum(float(c) ** 2 for c in vec))
            for i in range(dim):
                acc[i] += float(vec[i]) / norm
        templates.append(acc)

    scores = [[cosine_reference(p, t) for t in templates] for p in probe_vectors]

    ranks = []
    genuine = []
    impostor = []
    for i, row in enumerate(scores):
        mate = probe_mates[i]
        for j, value in enumerate(row):
            if mate is not None and j == mate:
                genuine.append(value)
            else:
                impostor.append(value)
        if mate is not None:
            mate_score = row[mate]
            ranks.append(sum(1 for value in row if value >= mate_score))
    return scores, ranks, genuine, impostor


def naive_cmc(ranks, max_rank):
    return [sum(1 for r in ranks if r <= k) / len(ranks) for k in range(1, max_rank + 1)]


def naive_tar(genuine, impostor, targets):
    """TAR / achieved FAR per target via explicit order statistics."""
    ordered = sorted(impostor, reverse=True)
    n = len(ordered)
    out = []
    for f in targets:
        m = math.floor(f * n)
        tau = ordered[m] if m < n else -math.inf  # every score is accepted
        tar = sum(1 for g in genuine if g > tau) / len(genuine)
        far = sum(1 for s in impostor if s > tau) / n
        out.append((tau, tar, far))
    return out
