"""Template aggregation, similarity scoring, and closed/open-set identification metrics.

Rank handling is pessimistic: gallery entries tying the mate's score
count against it, so reported ranks are the worst consistent with the
scores. Verification thresholds come from order statistics of the
impostor scores with acceptance defined as score > threshold; no
interpolation is used, so every reported rate is exactly reproducible.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ProtocolError, ValidationError, preview
from .records import ProtocolManifest
from .stores import EmbeddingStore

DEFAULT_FAR_TARGETS = (1e-4, 1e-3, 1e-2, 1e-1)
DEFAULT_RANKS = (1, 5, 10, 20)
AGGREGATION_METHODS = ("mean", "max_score")
SCORE_METRICS = ("cosine", "neg_euclidean")

_SCORE_CHUNK = 1024


@dataclass(frozen=True, eq=False)
class SubjectTemplate:
    """A gallery subject's aggregate embedding.

    Mean templates hold one unit vector; max_score templates keep every
    normalized media vector and score by the best per-media similarity.
    """

    subject_id: str
    vector: np.ndarray | None
    media_count: int
    media_vectors: np.ndarray | None = None

    def __post_init__(self):
        if self.vector is None and self.media_vectors is None:
            raise ValidationError(f"template {self.subject_id!r} holds no vectors")
        if self.vector is not None:
            norm = float(np.linalg.norm(self.vector))
            if abs(norm - 1.0) > 1e-9:
                raise ValidationError(
                    f"template {self.subject_id!r} vector norm {norm!r} is not 1"
                )

    @property
    def rows(self) -> np.ndarray:
        """Unit rows scored against probes: the mean vector, or every media vector."""
        return self.media_vectors if self.vector is None else self.vector[None, :]

    @property
    def dim(self) -> int:
        return int(self.rows.shape[1])


def _normalized_rows(vectors, context: str) -> np.ndarray:
    mat = np.asarray(vectors, dtype=np.float64)
    if mat.ndim == 1:
        mat = mat.reshape(1, -1)
    if mat.ndim != 2 or mat.shape[0] == 0 or mat.shape[1] == 0:
        raise ValidationError(f"{context}: expected a non-empty (m, d) array, got {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValidationError(f"{context}: vectors must be finite")
    norms = np.linalg.norm(mat, axis=1)
    if np.any(norms == 0.0):
        raise ValidationError(f"{context}: zero-norm vector cannot be normalized")
    return mat / norms[:, None]


def aggregate_gallery(subject_id: str, vectors, method: str = "mean") -> SubjectTemplate:
    """Fuse one subject's media embeddings into a gallery template.

    "mean" normalizes each vector, averages, and re-normalizes (error if
    the average vanishes); "max_score" keeps all normalized vectors for
    later best-media scoring.
    """
    if method not in AGGREGATION_METHODS:
        raise ValueError(f"method must be one of {AGGREGATION_METHODS}, got {method!r}")
    unit = _normalized_rows(vectors, f"subject {subject_id!r}")
    if method == "max_score":
        unit.setflags(write=False)
        return SubjectTemplate(
            subject_id=subject_id, vector=None, media_count=unit.shape[0], media_vectors=unit
        )
    mean = unit.mean(axis=0)
    norm = float(np.linalg.norm(mean))
    if norm < 1e-12:
        raise ValidationError(f"subject {subject_id!r}: degenerate template (zero mean vector)")
    out = mean / norm
    out.setflags(write=False)
    return SubjectTemplate(subject_id=subject_id, vector=out, media_count=unit.shape[0])


def build_gallery_templates(
    manifest: ProtocolManifest, embeddings: EmbeddingStore, method: str = "mean"
) -> list[SubjectTemplate]:
    """One template per gallery entry, in manifest order."""
    missing = [m for m in manifest.referenced_media() if m not in embeddings]
    if missing:
        raise ProtocolError(f"protocol references media without embeddings: {preview(missing)}")
    return [
        aggregate_gallery(e.subject_id, [embeddings.vector(m) for m in e.media_ids], method)
        for e in manifest.gallery
    ]


def probe_matrix(
    manifest: ProtocolManifest, embeddings: EmbeddingStore
) -> tuple[tuple[str, ...], np.ndarray]:
    """Probe ids and their embedding rows, in manifest probe order."""
    if not manifest.probes:
        raise ProtocolError("protocol lists no probes")
    missing = sorted({p.media_id for p in manifest.probes if p.media_id not in embeddings})
    if missing:
        raise ProtocolError(f"protocol references media without embeddings: {preview(missing)}")
    ids = tuple(p.probe_id for p in manifest.probes)
    rows = np.stack([embeddings.vector(p.media_id) for p in manifest.probes])
    return ids, rows


@dataclass(frozen=True, eq=False)
class ScoreMatrix:
    """Probe-by-gallery similarity scores; higher means more similar."""

    probe_ids: tuple[str, ...]
    subject_ids: tuple[str, ...]
    scores: np.ndarray

    def __post_init__(self):
        if self.scores.shape != (len(self.probe_ids), len(self.subject_ids)):
            raise ValidationError(
                f"score shape {self.scores.shape} does not match "
                f"{len(self.probe_ids)} probes x {len(self.subject_ids)} subjects"
            )
        if not np.all(np.isfinite(self.scores)):
            raise ValidationError("scores must be finite")

    def subset(self, probe_ids: Sequence[str]) -> "ScoreMatrix":
        index = {p: i for i, p in enumerate(self.probe_ids)}
        rows = [index[p] for p in probe_ids]
        return ScoreMatrix(
            probe_ids=tuple(probe_ids),
            subject_ids=self.subject_ids,
            scores=self.scores[rows],
        )


def score(
    probes,
    gallery: Sequence[SubjectTemplate],
    metric: str = "cosine",
    probe_ids: Sequence[str] | None = None,
) -> ScoreMatrix:
    """Similarity of every probe to every gallery template.

    `probes` is an EmbeddingStore (rows keyed by media id) or an (P, d)
    array with explicit probe_ids. Cosine scores normalize each probe and
    land in [-1, 1]; neg_euclidean scores are negated distances to the
    template vectors.

    Every template's unit rows are stacked once; each probe chunk is
    scored against the whole stack and reduced to the best row of each
    template. Chunks hold at most _SCORE_CHUNK x len(gallery) cells, so a
    gallery of mean templates is chunked every _SCORE_CHUNK probes.
    """
    if metric not in SCORE_METRICS:
        raise ValueError(f"metric must be one of {SCORE_METRICS}, got {metric!r}")
    if isinstance(probes, EmbeddingStore):
        if probe_ids is not None:
            raise ValueError("probe_ids is only accepted with a plain probe array")
        ids = probes.media_ids
        x = probes.matrix
    else:
        if probe_ids is None:
            raise ValueError("probe_ids is required when probes is a plain array")
        ids = tuple(probe_ids)
        x = np.asarray(probes, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != len(ids):
        raise ValueError(f"expected ({len(ids)}, d) probe array, got shape {x.shape}")
    if not gallery:
        raise ValueError("gallery is empty")
    dim = x.shape[1]
    for t in gallery:
        if t.dim != dim:
            raise ValueError(f"template {t.subject_id!r} has dim {t.dim}, probes have {dim}")
    if metric == "cosine":
        x = _normalized_rows(x, "probes")

    blocks = [t.rows for t in gallery]
    rows = np.concatenate(blocks)
    starts = np.cumsum([0] + [len(b) for b in blocks[:-1]])
    row_sq = (rows * rows).sum(axis=1) if metric == "neg_euclidean" else None
    step = max(1, _SCORE_CHUNK * len(gallery) // rows.shape[0])
    scores = np.empty((x.shape[0], len(gallery)), dtype=np.float64)
    for lo in range(0, x.shape[0], step):
        chunk = x[lo : lo + step]
        block = chunk @ rows.T
        if metric == "neg_euclidean":
            # -sqrt(|x|^2 - 2 x.r + |r|^2), built in place on the product.
            block *= -2.0
            block += (chunk * chunk).sum(axis=1)[:, None]
            block += row_sq
            np.maximum(block, 0.0, out=block)
            np.sqrt(block, out=block)
            np.negative(block, out=block)
        np.maximum.reduceat(block, starts, axis=1, out=scores[lo : lo + step])
    if metric == "cosine":
        np.clip(scores, -1.0, 1.0, out=scores)
    scores.setflags(write=False)
    return ScoreMatrix(
        probe_ids=ids, subject_ids=tuple(t.subject_id for t in gallery), scores=scores
    )


@dataclass(frozen=True)
class Curve:
    """Ordered (x, y) points with axis labels and optional per-point thresholds."""

    points: tuple[tuple[float, float], ...]
    x_label: str
    y_label: str
    thresholds: tuple[float, ...] | None = None

    def __post_init__(self):
        xs = [p[0] for p in self.points]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValidationError("curve x values must be strictly increasing")
        if self.thresholds is not None and len(self.thresholds) != len(self.points):
            raise ValidationError("one threshold per point is required")

    @property
    def x(self) -> tuple[float, ...]:
        return tuple(p[0] for p in self.points)

    @property
    def y(self) -> tuple[float, ...]:
        return tuple(p[1] for p in self.points)

    def to_csv(self, path, columns: tuple[str, ...]) -> None:
        """Write a two-line header (labels, then column names) and the points.

        Floats are printed with 6 significant digits.
        """
        labels = [self.x_label, self.y_label]
        if self.thresholds is not None:
            labels.append("decision threshold")
        if len(columns) != len(labels):
            raise ValueError(f"expected {len(labels)} column names, got {len(columns)}")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(labels)
            writer.writerow(columns)
            for i, (px, py) in enumerate(self.points):
                row = [f"{px:.6g}", f"{py:.6g}"]
                if self.thresholds is not None:
                    row.append(f"{self.thresholds[i]:.6g}")
                writer.writerow(row)


def _mate_columns(matrix: ScoreMatrix, manifest: ProtocolManifest) -> dict[str, int | None]:
    """Map each matrix probe to its mate's gallery column (None for non-mates)."""
    probes = {p.probe_id: p for p in manifest.probes}
    columns = {s: j for j, s in enumerate(matrix.subject_ids)}
    out: dict[str, int | None] = {}
    for probe_id in matrix.probe_ids:
        probe = probes.get(probe_id)
        if probe is None:
            raise ProtocolError(f"probe {probe_id!r} is not in the protocol")
        if manifest.is_mate(probe):
            if probe.true_subject_id not in columns:
                raise ProtocolError(
                    f"mate subject {probe.true_subject_id!r} has no gallery column"
                )
            out[probe_id] = columns[probe.true_subject_id]
        else:
            out[probe_id] = None
    return out


def _pessimistic_ranks(matrix: ScoreMatrix, manifest: ProtocolManifest) -> np.ndarray:
    """Mate ranks for an all-mate matrix; ties count against the mate."""
    mates = _mate_columns(matrix, manifest)
    non_mates = [p for p, col in mates.items() if col is None]
    if non_mates:
        raise ProtocolError(f"non-mate searches cannot be ranked: {non_mates}")
    if not matrix.probe_ids:
        raise ProtocolError("no mate searches to rank")
    cols = np.array([mates[p] for p in matrix.probe_ids])
    mate_scores = matrix.scores[np.arange(len(cols)), cols]
    # The mate's own >= comparison contributes the leading 1.
    return (matrix.scores >= mate_scores[:, None]).sum(axis=1)


def cmc(matrix: ScoreMatrix, manifest: ProtocolManifest, max_rank: int | None = None) -> Curve:
    """Cumulative match characteristic over mate searches.

    CMC(r) is the fraction of probes whose mate has pessimistic rank <= r,
    for r = 1..max_rank (default: the gallery size).
    """
    ranks = _pessimistic_ranks(matrix, manifest)
    gallery_size = len(matrix.subject_ids)
    if max_rank is None:
        max_rank = gallery_size
    if max_rank < 1:
        raise ValueError(f"max_rank must be positive, got {max_rank}")
    hits = np.bincount(np.minimum(ranks, max_rank + 1), minlength=max_rank + 2)
    accuracy = np.cumsum(hits[1 : max_rank + 1]) / ranks.size
    points = tuple((float(r), float(a)) for r, a in enumerate(accuracy, start=1))
    return Curve(points=points, x_label="rank", y_label="cumulative match accuracy")


def rank_k_accuracy(matrix: ScoreMatrix, manifest: ProtocolManifest, k: int) -> float:
    """Fraction of mate searches whose mate ranks within the top k."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    ranks = _pessimistic_ranks(matrix, manifest)
    return float((ranks <= k).mean())


def _genuine_impostor(
    matrix: ScoreMatrix, manifest: ProtocolManifest
) -> tuple[np.ndarray, np.ndarray]:
    """Genuine scores (mate probe vs mate) and impostor scores (probe vs non-mate column)."""
    mates = _mate_columns(matrix, manifest)
    impostor_mask = np.ones(matrix.scores.shape, dtype=bool)
    genuine = []
    for i, probe_id in enumerate(matrix.probe_ids):
        col = mates[probe_id]
        if col is not None:
            genuine.append(matrix.scores[i, col])
            impostor_mask[i, col] = False
    return np.asarray(genuine, dtype=np.float64), matrix.scores[impostor_mask]


@dataclass(frozen=True)
class OperatingPoint:
    far_target: float
    threshold: float
    tar: float
    achieved_far: float

    def as_dict(self) -> dict:
        return {
            "far_target": self.far_target,
            "threshold": self.threshold,
            "tar": self.tar,
            "achieved_far": self.achieved_far,
        }


def tar_at_far(
    matrix: ScoreMatrix,
    manifest: ProtocolManifest,
    far_targets: Sequence[float] = DEFAULT_FAR_TARGETS,
) -> list[OperatingPoint]:
    """True accept rate at thresholds hit by each false-accept-rate target.

    For a target f over N impostor scores, the threshold is the
    (floor(f*N) + 1)-th largest impostor score (+inf when that order
    statistic does not exist) and acceptance means score > threshold, so
    the achieved FAR never exceeds the target.
    """
    genuine, impostor = _genuine_impostor(matrix, manifest)
    if genuine.size == 0 or impostor.size == 0:
        raise ProtocolError(
            f"need at least one genuine and one impostor score, "
            f"got {genuine.size} and {impostor.size}"
        )
    descending = np.sort(impostor)[::-1]
    n = descending.size
    points = []
    for f in far_targets:
        if f < 0:
            raise ValueError(f"FAR target must be non-negative, got {f!r}")
        m = int(np.floor(f * n))
        threshold = float(descending[m]) if m < n else np.inf
        points.append(
            OperatingPoint(
                far_target=float(f),
                threshold=threshold,
                tar=float((genuine > threshold).mean()),
                achieved_far=float((impostor > threshold).mean()),
            )
        )
    return points


def roc_curve(matrix: ScoreMatrix, manifest: ProtocolManifest, max_points: int = 4096) -> Curve:
    """TAR-vs-FAR sweep over impostor-score thresholds.

    Thresholds are distinct impostor scores; when there are more than
    max_points of them, evenly spaced order statistics are used instead,
    so every emitted point is still an exact operating point.
    """
    genuine, impostor = _genuine_impostor(matrix, manifest)
    if genuine.size == 0 or impostor.size == 0:
        raise ProtocolError(
            f"need at least one genuine and one impostor score, "
            f"got {genuine.size} and {impostor.size}"
        )
    if max_points < 2:
        raise ValueError(f"max_points must be at least 2, got {max_points}")
    imp_sorted = np.sort(impostor)
    gen_sorted = np.sort(genuine)
    if imp_sorted.size > max_points:
        positions = np.unique(np.linspace(0, imp_sorted.size - 1, max_points).round().astype(int))
        taus = np.concatenate(([-np.inf], np.unique(imp_sorted[positions])))
    else:
        taus = np.concatenate(([-np.inf], np.unique(imp_sorted)))
    # count(x > t) = len(x) - first index past t in the sorted array.
    fars = (imp_sorted.size - np.searchsorted(imp_sorted, taus, side="right")) / imp_sorted.size
    tars = (gen_sorted.size - np.searchsorted(gen_sorted, taus, side="right")) / gen_sorted.size
    # fars is non-increasing along ascending taus, so the first occurrence
    # of each FAR value is its plateau's smallest tau and largest TAR.
    unique_fars, first = np.unique(fars, return_index=True)
    return Curve(
        points=tuple(zip(unique_fars.tolist(), tars[first].tolist())),
        x_label="false accept rate",
        y_label="true accept rate",
        thresholds=tuple(taus[first].tolist()),
    )


def fnir_fpir(
    matrix: ScoreMatrix,
    manifest: ProtocolManifest,
    thresholds="sweep",
    rank_cap: int | None = None,
) -> Curve:
    """Open-set miss/false-alarm trade-off as a (FPIR, FNIR) curve.

    FPIR(t) is the fraction of non-mate searches whose top gallery score
    reaches t; FNIR(t) is the fraction of mate searches whose mate scores
    below t or (with rank_cap set) ranks outside the cap. "sweep" uses
    every distinct per-probe top score plus -inf/+inf sentinels so the
    curve reaches both axes; equal-FPIR points collapse to the lowest
    FNIR.
    """
    if rank_cap is not None and rank_cap < 1:
        raise ValueError(f"rank_cap must be positive, got {rank_cap}")
    mates = _mate_columns(matrix, manifest)
    mate_rows = [i for i, p in enumerate(matrix.probe_ids) if mates[p] is not None]
    non_mate_rows = [i for i, p in enumerate(matrix.probe_ids) if mates[p] is None]
    if not mate_rows:
        raise ProtocolError("no mate searches in the matrix")
    if not non_mate_rows:
        raise ProtocolError("no non-mate searches in the matrix")

    mate_scores = np.array(
        [matrix.scores[i, mates[matrix.probe_ids[i]]] for i in mate_rows], dtype=np.float64
    )
    mate_sub = matrix.subset([matrix.probe_ids[i] for i in mate_rows])
    ranks = _pessimistic_ranks(mate_sub, manifest)
    out_of_cap = (
        np.zeros(len(mate_rows), dtype=bool) if rank_cap is None else ranks > rank_cap
    )
    non_mate_top = matrix.scores[non_mate_rows].max(axis=1)

    if isinstance(thresholds, str):
        if thresholds != "sweep":
            raise ValueError(f"thresholds must be a list of values or 'sweep', got {thresholds!r}")
        tops = matrix.scores.max(axis=1)
        taus = np.concatenate(([-np.inf], np.unique(tops), [np.inf]))
    else:
        taus = np.sort(np.asarray(list(thresholds), dtype=np.float64))
        if taus.size == 0:
            raise ValueError("at least one threshold is required")

    nm_sorted = np.sort(non_mate_top)
    in_cap_sorted = np.sort(mate_scores[~out_of_cap])
    n_mates = mate_scores.size
    n_out = int(out_of_cap.sum())
    # count(x >= t) needs side="left"; count(x < t) is its complement.
    fpirs = (nm_sorted.size - np.searchsorted(nm_sorted, taus, side="left")) / nm_sorted.size
    fnirs = (np.searchsorted(in_cap_sorted, taus, side="left") + n_out) / n_mates
    # fpirs is non-increasing along ascending taus, so the first occurrence
    # of each FPIR value carries the plateau's smallest tau and FNIR.
    unique_fpirs, first = np.unique(fpirs, return_index=True)
    return Curve(
        points=tuple(zip(unique_fpirs.tolist(), fnirs[first].tolist())),
        x_label="false positive identification rate",
        y_label="false negative identification rate",
        thresholds=tuple(taus[first].tolist()),
    )
