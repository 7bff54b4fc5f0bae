"""Independent reference results and the output check for every workload.

The reference is computed here from the generated inputs with plain numpy
(identification) or per-frame numpy IoU matrices and a greedy loop
(detection). It shares no code with biomeval. ``check_id_outputs`` and
``check_det_outputs`` compare a CLI output directory against it and
return a list of mismatches; an empty list means the outputs are correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import IOU_THRESHOLDS, DetInputs, IdInputs

RANKS = (1, 5, 10, 20)
FAR_TARGETS = (1e-4, 1e-3, 1e-2, 1e-1)
ROC_MAX_POINTS = 4096
# Thresholds are scores, which the reference derives with a different
# summation order than the program; they may differ in the last bits, so
# after 6-digit rounding they are compared with this relative tolerance.
THRESHOLD_RTOL = 1e-5


def _g6(value: float) -> str:
    return f"{value:.6g}"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class IdExpected:
    aggregate: str
    rank_cap: int | None
    inputs: dict[str, str]  # manifest input name -> sha256
    counts: dict[str, int]
    rank_accuracy: dict[str, float]
    tar_at_far: list[dict[str, float]]
    cmc: list[tuple[float, ...]]
    roc: list[tuple[float, ...]]
    openset: list[tuple[float, ...]]


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.sqrt(np.einsum("ij,ij->i", x, x))[:, None]


def id_scores(inp: IdInputs, aggregate: str) -> np.ndarray:
    """Probe-by-subject cosine scores, gallery columns in manifest order."""
    unit = _unit_rows(inp.vectors.astype(np.float64))
    probes = unit[inp.probe_rows]
    rows = np.concatenate([np.asarray(r) for r in inp.gallery_media])
    starts = np.cumsum([0] + [len(r) for r in inp.gallery_media[:-1]])
    if aggregate == "mean":
        templates = _unit_rows(np.add.reduceat(unit[rows], starts, axis=0))
        return np.clip(probes @ templates.T, -1.0, 1.0)
    media = unit[rows].T.copy()
    out = np.empty((len(probes), len(inp.gallery_media)))
    for lo in range(0, len(probes), 256):
        block = probes[lo : lo + 256] @ media
        out[lo : lo + 256] = np.maximum.reduceat(block, starts, axis=1)
    return np.clip(out, -1.0, 1.0)


def id_expected(inp: IdInputs, aggregate: str, rank_cap: int | None) -> IdExpected:
    scores = id_scores(inp, aggregate)
    n_probes, n_subjects = scores.shape
    mate = inp.probe_mate >= 0
    mate_rows = np.flatnonzero(mate)
    genuine = scores[mate_rows, inp.probe_mate[mate_rows]]
    # Pessimistic rank: every gallery score at least the mate's counts.
    ranks = np.sort((scores[mate_rows] >= genuine[:, None]).sum(axis=1))
    n_mates = len(mate_rows)

    impostor_mask = np.ones(scores.shape, dtype=bool)
    impostor_mask[mate_rows, inp.probe_mate[mate_rows]] = False
    impostor = np.sort(scores[impostor_mask])
    n_imp = impostor.size
    genuine_sorted = np.sort(genuine)

    def above(sorted_values: np.ndarray, t: float) -> int:
        return int(sorted_values.size - np.searchsorted(sorted_values, t, side="right"))

    tar_points = []
    for f in FAR_TARGETS:
        m = math.floor(f * n_imp)
        tau = float(impostor[n_imp - 1 - m]) if m < n_imp else math.inf
        tar_points.append({
            "far_target": f,
            "threshold": tau,
            "tar": above(genuine_sorted, tau) / n_mates,
            "achieved_far": above(impostor, tau) / n_imp,
        })

    cmc = [(float(r), int(np.searchsorted(ranks, r, side="right")) / n_mates)
           for r in range(1, n_subjects + 1)]

    if n_imp > ROC_MAX_POINTS:
        picks = np.unique(np.round(np.linspace(0, n_imp - 1, ROC_MAX_POINTS)).astype(np.int64))
        candidates = np.unique(impostor[picks])
    else:
        candidates = np.unique(impostor)
    roc_by_far: dict[float, tuple[float, float]] = {}
    for tau in [-math.inf, *candidates.tolist()]:
        far = above(impostor, tau) / n_imp
        if far not in roc_by_far:  # ascending taus: keep each FAR's smallest threshold
            roc_by_far[far] = (above(genuine_sorted, tau) / n_mates, tau)
    roc = [(far, tar, tau) for far, (tar, tau) in sorted(roc_by_far.items())]

    tops = scores.max(axis=1)
    non_mate_tops = np.sort(tops[~mate])
    in_cap = np.ones(n_mates, dtype=bool)
    if rank_cap is not None:
        in_cap = (scores[mate_rows] >= genuine[:, None]).sum(axis=1) <= rank_cap
    in_cap_scores = np.sort(genuine[in_cap])
    n_out = int((~in_cap).sum())
    open_by_fpir: dict[float, tuple[float, float]] = {}
    for tau in [-math.inf, *np.unique(tops).tolist(), math.inf]:
        fpir = (non_mate_tops.size - np.searchsorted(non_mate_tops, tau, side="left")) / non_mate_tops.size
        fnir = (int(np.searchsorted(in_cap_scores, tau, side="left")) + n_out) / n_mates
        if fpir not in open_by_fpir:
            open_by_fpir[fpir] = (fnir, tau)
    openset = [(fpir, fnir, tau) for fpir, (fnir, tau) in sorted(open_by_fpir.items())]

    return IdExpected(
        aggregate=aggregate,
        rank_cap=rank_cap,
        inputs={"embeddings": _sha256(inp.emb_path), "protocol": _sha256(inp.protocol_path)},
        counts={
            "probes": n_probes,
            "mate_searches": n_mates,
            "non_mate_searches": n_probes - n_mates,
            "gallery_subjects": n_subjects,
            "distractors": inp.sizes["distractors"],
        },
        rank_accuracy={str(k): int(np.searchsorted(ranks, k, side="right")) / n_mates for k in RANKS},
        tar_at_far=tar_points,
        cmc=cmc,
        roc=roc,
        openset=openset,
    )


def _same_threshold(got: float, want: float) -> bool:
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= THRESHOLD_RTOL * abs(want) + 1e-12


def _check_csv(path: Path, header: list[str], expected, threshold_col: int | None) -> list[str]:
    name = path.name
    if not path.is_file():
        return [f"{name}: missing"]
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2 or rows[1] != header:
        return [f"{name}: header {rows[:2]} does not name columns {header}"]
    body = rows[2:]
    if len(body) != len(expected):
        return [f"{name}: {len(body)} points, reference has {len(expected)}"]
    def same(col: int, field: str, value: float) -> bool:
        if col != threshold_col:
            return field == _g6(value)
        try:
            return _same_threshold(float(field), value)
        except ValueError:
            return False

    for i, (got, want) in enumerate(zip(body, expected)):
        ok = len(got) == len(want) and all(
            same(col, field, value) for col, (field, value) in enumerate(zip(got, want))
        )
        if not ok:
            return [f"{name}: point {i} is {got}, reference {[_g6(v) for v in want]}"]
    return []


def _check_manifest(out_dir: Path, command: str, inputs: dict[str, str], outputs: list[str]) -> list[str]:
    try:
        manifest = json.loads((out_dir / "run_manifest.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"run_manifest.json: unreadable ({exc})"]
    problems = []
    if manifest.get("command") != command:
        problems.append(f"run_manifest.json: command {manifest.get('command')!r}")
    digests = {name: f"sha256:{digest}" for name, digest in inputs.items()}
    if manifest.get("input_digests") != digests:
        problems.append("run_manifest.json: input digests differ from the generated files")
    if manifest.get("outputs") != sorted(outputs):
        problems.append(f"run_manifest.json: outputs {manifest.get('outputs')}")
    return problems


def check_id_outputs(out_dir: Path, want: IdExpected) -> list[str]:
    """Mismatches between an eval-id output directory and the reference."""
    try:
        report = json.loads((out_dir / "identification_report.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"identification_report.json: unreadable ({exc})"]
    problems = []
    expect_fields = {
        "ranks": list(RANKS),
        "far_targets": list(FAR_TARGETS),
        "counts": want.counts,
        "metric": "cosine",
        "aggregation": want.aggregate,
        "rank_cap": want.rank_cap,
        "open_set_curve": True,
        "rank_accuracy": {k: float(_g6(v)) for k, v in want.rank_accuracy.items()},
    }
    for key, value in expect_fields.items():
        if report.get(key) != value:
            problems.append(f"identification_report.json: {key} is {report.get(key)!r}, reference {value!r}")
    points = report.get("tar_at_far")
    if not isinstance(points, list) or len(points) != len(want.tar_at_far):
        problems.append(f"identification_report.json: tar_at_far is {points!r}")
    else:
        for got, ref in zip(points, want.tar_at_far):
            for key in ("far_target", "tar", "achieved_far"):
                if got.get(key) != float(_g6(ref[key])):
                    problems.append(f"tar_at_far {ref['far_target']}: {key} {got.get(key)!r}, reference {_g6(ref[key])}")
            if not isinstance(got.get("threshold"), (int, float)) or not _same_threshold(
                float(got["threshold"]), ref["threshold"]
            ):
                problems.append(f"tar_at_far {ref['far_target']}: threshold {got.get('threshold')!r}, reference {ref['threshold']!r}")
    problems += _check_csv(out_dir / "cmc.csv", ["rank", "accuracy"], want.cmc, None)
    problems += _check_csv(out_dir / "roc.csv", ["far", "tar", "threshold"], want.roc, 2)
    problems += _check_csv(out_dir / "openset.csv", ["fpir", "fnir", "threshold"], want.openset, 2)
    problems += _check_manifest(
        out_dir, "eval-id", want.inputs,
        ["identification_report.json", "cmc.csv", "roc.csv", "openset.csv"],
    )
    return problems


@dataclass
class DetExpected:
    inputs: dict[str, str]
    # (tag or None for pooled, threshold) -> (tp, fp, fn)
    counts: dict[tuple[str | None, float], tuple[int, int, int]]


def _frame_iou(preds: np.ndarray, gts: np.ndarray) -> np.ndarray:
    px, py, pw, ph = (preds[:, k : k + 1] for k in range(4))
    gx, gy, gw, gh = (gts[:, k] for k in range(4))
    ix = np.minimum(px + pw, gx + gw) - np.maximum(px, gx)
    iy = np.minimum(py + ph, gy + gh) - np.maximum(py, gy)
    inter = ix * iy
    iou = inter / ((pw * ph + gw * gh) - inter)
    return np.where((ix > 0) & (iy > 0), iou, 0.0)


def frame_true_positives(preds: np.ndarray, gts: np.ndarray, threshold: float, iou=None) -> int:
    """Greedy matching: highest score first (ties: smaller area, then file order)."""
    if not len(preds) or not len(gts):
        return 0
    if iou is None:
        iou = _frame_iou(preds, gts)
    order = np.lexsort((np.arange(len(preds)), preds[:, 2] * preds[:, 3], -preds[:, 4]))
    free = np.ones(len(gts), dtype=bool)
    tp = 0
    for i in order:
        row = np.where(free, iou[i], -1.0)
        j = int(np.argmax(row))
        if row[j] > 0.0 and row[j] >= threshold:
            free[j] = False
            tp += 1
    return tp


def det_expected(inp: DetInputs) -> DetExpected:
    counts: dict[tuple[str | None, float], list[int]] = {}
    for tag, preds, gts in inp.frames:
        iou = _frame_iou(preds, gts) if len(preds) and len(gts) else None
        for thr in IOU_THRESHOLDS:
            tp = frame_true_positives(preds, gts, thr, iou)
            for key in ((tag, thr), (None, thr)):
                c = counts.setdefault(key, [0, 0, 0])
                c[0] += tp
                c[1] += len(preds) - tp
                c[2] += len(gts) - tp
    return DetExpected(
        inputs={"detections": _sha256(inp.det_path), "ground_truth": _sha256(inp.gt_path)},
        counts={k: tuple(v) for k, v in counts.items()},
    )


def _scores_from_counts(tp: int, fp: int, fn: int) -> dict[str, float]:
    if tp + fp + fn == 0:
        return {"precision": 1.0, "recall": 1.0, "f1": 1.0}
    return {
        "precision": tp / (tp + fp) if tp + fp else 0.0,
        "recall": tp / (tp + fn) if tp + fn else 0.0,
        "f1": 2 * tp / (2 * tp + fp + fn),
    }


def check_det_outputs(out_dir: Path, want: DetExpected) -> list[str]:
    """Mismatches between an eval-det output directory and the reference."""
    try:
        report = json.loads((out_dir / "detection_report.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"detection_report.json: unreadable ({exc})"]
    problems = []
    if report.get("iou_thresholds") != list(IOU_THRESHOLDS):
        problems.append(f"detection_report.json: iou_thresholds {report.get('iou_thresholds')!r}")
    tags = sorted({tag for tag, _ in want.counts if tag is not None})
    if sorted(report.get("groups", {})) != tags:
        problems.append(f"detection_report.json: groups {sorted(report.get('groups', {}))}, reference {tags}")
    for (tag, thr), (tp, fp, fn) in sorted(want.counts.items(), key=lambda kv: (kv[0][0] or "", kv[0][1])):
        where = report.get("pooled", {}) if tag is None else report.get("groups", {}).get(tag, {})
        got = where.get(repr(thr))
        ref = {"tp": tp, "fp": fp, "fn": fn}
        ref.update({k: float(_g6(v)) for k, v in _scores_from_counts(tp, fp, fn).items()})
        if got != ref:
            problems.append(f"detection_report.json: {tag or 'pooled'} @ {thr} is {got}, reference {ref}")
    problems += _check_manifest(
        out_dir, "eval-det", want.inputs, ["detection_report.json", "detection_summary.txt"]
    )
    return problems
