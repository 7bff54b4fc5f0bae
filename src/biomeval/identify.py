"""Template aggregation, similarity scoring, and closed/open-set identification metrics.

Rank handling is pessimistic: gallery entries tying the mate's score
count against it, so reported ranks are the worst consistent with the
scores. Verification thresholds come from order statistics of the
impostor scores with acceptance defined as score > threshold; no
interpolation is used, so every reported rate is exactly reproducible.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import asdict, dataclass
from numbers import Integral, Real
from typing import Mapping, Sequence

import numpy as np

from .errors import ProtocolError, ValidationError, brief, duplicates, no_repeats, preview
from .records import ProtocolManifest
from .stores import EmbeddingStore, float_array

DEFAULT_FAR_TARGETS = (1e-4, 1e-3, 1e-2, 1e-1)
DEFAULT_RANKS = (1, 5, 10, 20)
AGGREGATION_METHODS = ("mean", "max_score")
SCORE_METRICS = ("cosine", "neg_euclidean")

_SCORE_CHUNK = 1024
# Texts of the row faults, by the codes _row_faults gives; a higher code is graver.
_ROW_FAULTS = (None, "zero-norm vector cannot be normalized", "squared norm overflows float64",
               "vectors must be finite")
# Most thresholds a ROC sweep evaluates (evenly spaced impostor order statistics beyond it).
_ROC_POINTS = 4096
# Score cells compared per block when IdentificationEval counts mate ranks.
_RANK_CELLS = 1 << 16
# Bytes of one probe tile's range-max table, so that it stays in a core's L2 cache.
_TILE_BYTES = 1 << 20


@dataclass(frozen=True, eq=False)
class Gallery:
    """Gallery templates stacked as one matrix of unit rows; len() is the subject count.

    Subject k owns rows[starts[k]:starts[k + 1]] (the last one runs to the
    end): its mean vector under "mean", one vector per medium under
    "max_score". aggregate_gallery and build_gallery_templates build it.
    """

    subject_ids: tuple[str, ...]
    rows: np.ndarray
    starts: np.ndarray

    def __len__(self) -> int:
        return len(self.subject_ids)


def _squared_norms(mat: np.ndarray) -> np.ndarray:
    """Each row's x.x (inf where it overflows), _SCORE_CHUNK rows at a time: the rows are
    never copied whole, and each row's sum is the same whichever block holds it. The one
    norm kernel (media, mean templates, probes), numpy's own sum: no BLAS kernel sets its
    bits. Its square root equals np.linalg.norm(mat, axis=1) bit for bit."""
    parts = np.split(mat, np.arange(_SCORE_CHUNK, len(mat), _SCORE_CHUNK))
    with np.errstate(over="ignore"):
        return np.concatenate([(part * part).sum(axis=1) for part in parts])


def _row_faults(mat: np.ndarray, sq: np.ndarray, unit: bool = True) -> np.ndarray:
    """The one rule for which vector rows cannot be scored, decided from their squared
    norms sq (see _squared_norms) before any row is divided: code 3 for a row with a
    non-finite component, 2 for a squared norm beyond float64, 1 for a zero norm where
    the row is to be made unit, else 0 (see _ROW_FAULTS). Only rows whose sq is not
    finite are read again."""
    codes = ((sq == 0.0) & unit).astype(np.int8)
    (wild,) = np.nonzero(~np.isfinite(sq))
    codes[wild] = np.where(np.isfinite(mat[wild]).all(axis=1), 2, 3)
    return codes


def _stack_gallery(subject_ids: tuple[str, ...], media: np.ndarray, counts, method: str) -> Gallery:
    """The gallery of subjects whose media rows lie consecutively in a new float64 matrix,
    made unit rows in place. Subject k owns the next counts[k] >= 1 rows. The first
    faulty subject in gallery order is named: one with a faulty medium (by _row_faults,
    its gravest fault) or, under "mean", a vanishing mean."""
    if method not in AGGREGATION_METHODS:
        raise ValidationError(f"method must be one of {AGGREGATION_METHODS}, got {method!r}")
    counts = np.asarray(counts, dtype=np.intp)
    first = np.cumsum(counts) - counts
    sq = _squared_norms(media)
    codes = np.maximum.reduceat(_row_faults(media, sq), first)
    with np.errstate(invalid="ignore", divide="ignore"):
        media /= np.sqrt(sq)[:, None]
    faulty, rows, starts = codes > 0, media, first
    if method == "mean":
        # Subjects with k media are averaged together as (n, k, d) blocks of at most
        # _SCORE_CHUNK rows (one subject's, if it has more): each mean reads only its
        # own subject's rows, so the blocks change no bit of it.
        means = np.empty((len(counts), media.shape[1]))
        for k in _distinct(np.sort(counts)).tolist():
            (members,) = np.nonzero(counts == k)
            step = max(1, _SCORE_CHUNK // k)
            for part in np.split(members, np.arange(step, len(members), step)):
                means[part] = rows[first[part, None] + np.arange(k)].mean(axis=1)
        norms = np.sqrt(_squared_norms(means))
        faulty |= ~(norms >= 1e-12)
        with np.errstate(invalid="ignore", divide="ignore"):
            means /= norms[:, None]
        rows, starts = means, np.arange(len(counts))
    if faulty.any():
        k = int(np.argmax(faulty))
        fault = _ROW_FAULTS[codes[k]] or "degenerate template (zero mean vector)"
        raise ValidationError(f"subject {brief(subject_ids[k])}: {fault}")
    rows.setflags(write=False)
    starts.setflags(write=False)
    return Gallery(subject_ids, rows, starts)


def aggregate_gallery(media: Mapping[str, object], method: str = "mean") -> Gallery:
    """Fuse each subject's media embeddings into one gallery, in the mapping's order.

    media maps a subject id to its (m, d) vectors (or one d-vector).
    "mean" normalizes each vector, averages, and re-normalizes (error if
    the average vanishes); "max_score" keeps all normalized vectors for
    later best-media scoring. The first faulty subject is reported.
    """
    blocks: list[np.ndarray] = []
    for subject_id, vectors in media.items():
        dim = blocks[0].shape[1] if blocks else "d"
        try:
            block = float_array(f"subject {brief(subject_id)}: vectors", vectors)
            block = block.reshape(1, -1) if block.ndim == 1 else block
            if block.ndim != 2 or 0 in block.shape or (blocks and block.shape[1] != dim):
                raise ValidationError(f"subject {brief(subject_id)}: expected a non-empty "
                                      f"(m, {dim}) array, got {block.shape}")
        except ValidationError:
            aggregate_gallery(dict(zip(media, blocks)), method)  # an earlier fault comes first
            raise
        blocks.append(block)
    rows = np.concatenate(blocks) if blocks else np.empty((0, 0))
    return _stack_gallery(tuple(media), rows, [len(b) for b in blocks], method)


def build_gallery_templates(
    manifest: ProtocolManifest, embeddings: EmbeddingStore, method: str = "mean"
) -> Gallery:
    """The gallery's templates, in manifest order, from one gather of its media rows."""
    missing = [m for m in manifest.referenced_media() if m not in embeddings]
    if missing:
        raise ProtocolError(f"protocol references media without embeddings: {preview(missing)}")
    media = embeddings.rows([m for e in manifest.gallery for m in e.media_ids])
    counts = [len(e.media_ids) for e in manifest.gallery]
    return _stack_gallery(manifest.subject_ids, media, counts, method)


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
    return ids, embeddings.rows([p.media_id for p in manifest.probes])


@dataclass(frozen=True, eq=False)
class ScoreMatrix:
    """Probe-by-gallery similarity scores; higher means more similar. No id repeats."""

    probe_ids: tuple[str, ...]
    subject_ids: tuple[str, ...]
    scores: np.ndarray

    def __post_init__(self):
        if self.scores.shape != (len(self.probe_ids), len(self.subject_ids)):
            raise ValidationError(
                f"score shape {self.scores.shape} does not match "
                f"{len(self.probe_ids)} probes x {len(self.subject_ids)} subjects"
            )
        for side, ids in (("probe", self.probe_ids), ("subject", self.subject_ids)):
            if len(set(ids)) != len(ids):
                raise ValidationError(f"duplicate {side} ids: {preview(duplicates(ids))}")
        if not np.all(np.isfinite(self.scores)):
            raise ValidationError("scores must be finite")

    def subset(self, probe_ids: Sequence[str]) -> "ScoreMatrix":
        index = {p: i for i, p in enumerate(self.probe_ids)}
        try:
            rows = [index[p] for p in probe_ids]
        except KeyError as exc:
            raise ProtocolError(f"probe {brief(exc.args[0])} is not in the score matrix") from None
        return ScoreMatrix(tuple(probe_ids), self.subject_ids, self.scores[rows])


def _subject_maxima(starts: np.ndarray, n_rows: int):
    """A reducer writing each subject's maximum of a (p, n_rows) block into a (p, G) block.

    Sparse-table range maximum over a few probe rows at a time, so the
    table stays cache-sized. Level 0 is the tile's block rows, and level l
    is the maximum of level l-1 and itself shifted by 2**(l-1) columns, so
    level l at column j covers rows j..j+2**l-1. A subject with c rows
    from s reads level L = floor(log2 c) at s and at s+c-2**L, two windows
    that cover its rows exactly. Maximum is exact, so every value equals
    np.maximum.reduceat's; only the sign of a zero maximum could differ,
    and only where one subject's scores hold both +0.0 and -0.0.
    """
    counts = np.diff(starts, append=n_rows)
    level = np.frexp(counts)[1].astype(np.intp) - 1  # floor(log2 c), exact for integer c
    depth = int(level.max()) + 1
    left = level * n_rows + starts
    right = left + counts - np.left_shift(1, level)
    tile = max(1, _TILE_BYTES // (8 * depth * n_rows))
    table = np.empty((tile, depth, n_rows))
    flat = table.reshape(tile, depth * n_rows)

    def reduce(block: np.ndarray, out: np.ndarray) -> None:
        for lo in range(0, block.shape[0], tile):
            n = min(tile, block.shape[0] - lo)
            table[:n, 0] = block[lo : lo + n]
            for lev in range(1, depth):
                half = 1 << (lev - 1)
                width = n_rows - 2 * half + 1
                np.maximum(
                    table[:n, lev - 1, :width],
                    table[:n, lev - 1, half : half + width],
                    out=table[:n, lev, :width],
                )
            levels = flat[:n]
            np.maximum(
                np.take(levels, left, axis=1),
                np.take(levels, right, axis=1),
                out=out[lo : lo + n],
            )

    return reduce


def score(
    probes: np.ndarray,
    gallery: Gallery,
    metric: str = "cosine",
    *,
    probe_ids: Sequence[str],
) -> ScoreMatrix:
    """Similarity of every probe to every gallery subject.

    `probes` is a (P, d) array whose row i is the probe probe_ids[i]; it is
    never written, nor copied whole when it is float64. The first probe that cannot be scored is
    named before any arithmetic (see _row_faults): one with a non-finite
    component, a squared norm beyond float64 or, under cosine, a zero norm.
    Cosine scores divide each chunk of probes by their norms and land in
    [-1, 1]; neg_euclidean scores are negated distances to the gallery rows.

    Each probe chunk is multiplied by all of gallery.rows in one product
    of at most _SCORE_CHUNK x len(gallery) cells, so a mean gallery (one
    row per subject) is chunked every _SCORE_CHUNK probes. When every
    subject owns one row the product is the score block itself; otherwise
    each subject's maximum over its rows comes from a log-depth range-max
    table built over a few probe rows at a time (see _subject_maxima).
    Chunk boundaries and shapes depend only on the gallery's shape, so
    reruns reproduce every score bit for bit.
    """
    if metric not in SCORE_METRICS:
        raise ValidationError(f"metric must be one of {SCORE_METRICS}, got {metric!r}")
    ids, x = tuple(probe_ids), float_array("probes", probes)
    if x.ndim != 2 or x.shape[0] != len(ids):
        raise ValidationError(f"expected ({len(ids)}, d) probe array, got shape {x.shape}")
    if not len(gallery):
        raise ValidationError("gallery is empty")
    rows = gallery.rows
    if rows.shape[1] != x.shape[1]:
        raise ValidationError(f"gallery rows have dim {rows.shape[1]}, probes have {x.shape[1]}")
    if 0 in x.shape:
        raise ValidationError(f"probes: expected a non-empty (m, d) array, got {x.shape}")
    # The first faulty probe is named, before any row is divided.
    probe_sq = _squared_norms(x)
    codes = _row_faults(x, probe_sq, unit=metric == "cosine")
    if codes.any():
        i = int(np.argmax(codes > 0))
        raise ValidationError(f"probe {brief(ids[i])}: {_ROW_FAULTS[codes[i]]}")
    if metric == "neg_euclidean":
        row_sq = _squared_norms(rows)
    step = max(1, _SCORE_CHUNK * len(gallery) // rows.shape[0])
    scores = np.empty((x.shape[0], len(gallery)), dtype=np.float64)
    # One row per subject: the product is the score block. Otherwise every
    # chunk's product lands in one reused buffer before its reduction.
    reduce = None if rows.shape[0] == len(gallery) else _subject_maxima(gallery.starts, len(rows))
    if reduce is not None:
        product = np.empty((min(step, x.shape[0]), rows.shape[0]))
    for lo in range(0, x.shape[0], step):
        chunk = x[lo : lo + step]
        if metric == "cosine":  # unit rows, one chunk at a time
            chunk = chunk / np.sqrt(probe_sq[lo : lo + step, None])
        out = scores[lo : lo + step]
        block = np.matmul(chunk, rows.T, out=out if reduce is None else product[: len(chunk)])
        if metric == "neg_euclidean":
            # -sqrt(|x|^2 - 2 x.r + |r|^2), built in place on the product.
            block *= -2.0
            block += probe_sq[lo : lo + step, None]
            block += row_sq
            np.maximum(block, 0.0, out=block)
            np.sqrt(block, out=block)
            np.negative(block, out=block)
        if reduce is not None:
            reduce(block, out)
        if metric == "cosine":
            np.clip(out, -1.0, 1.0, out=out)
    scores.setflags(write=False)
    return ScoreMatrix(probe_ids=ids, subject_ids=gallery.subject_ids, scores=scores)


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

    def to_csv(self, columns: tuple[str, ...]) -> str:
        """CSV text: a two-line header (labels, then column names), then the points.

        Floats are printed with 6 significant digits; rows end in csv's "\\r\\n".
        """
        labels = [self.x_label, self.y_label]
        if self.thresholds is not None:
            labels.append("decision threshold")
        if len(columns) != len(labels):
            raise ValidationError(f"expected {len(labels)} column names, got {len(columns)}")
        text = io.StringIO()
        writer = csv.writer(text)
        writer.writerow(labels)
        writer.writerow(columns)
        for i, (px, py) in enumerate(self.points):
            row = [f"{px:.6g}", f"{py:.6g}"]
            if self.thresholds is not None:
                row.append(f"{self.thresholds[i]:.6g}")
            writer.writerow(row)
        return text.getvalue()


def _share_above(ascending: np.ndarray, taus) -> np.ndarray:
    """The acceptance rule: the share of an ascending array's scores above each
    threshold, count(x > t) = len(x) - the first index past t."""
    return (ascending.size - np.searchsorted(ascending, taus, side="right")) / ascending.size


def _distinct(values: np.ndarray) -> np.ndarray:
    """Element 0 and every element that differs from the one before it.

    For ascending values this equals numpy.unique(values) bit for bit,
    without its sort. It stays because the index-free numpy.unique takes a
    hash-table path that imports numpy.ma, which costs every run. For the
    distinct values of any array, pass it through np.sort: that is
    numpy.unique's own sort, so a run of zeros of both signs keeps the
    sign numpy.unique keeps.
    """
    keep = np.empty(values.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _plateau_curve(xs, ys, taus, x_label: str, y_label: str) -> Curve:
    """The curve through each distinct x at its first occurrence along ascending taus.

    x is non-increasing along ascending taus, so the first occurrence of
    each x value is its plateau's smallest tau and the y it reaches there.
    """
    # np.unique's stable sort lists each x's first occurrence by ascending x.
    first = np.unique(xs, return_index=True)[1]
    points = tuple(zip(xs[first].tolist(), ys[first].tolist()))
    return Curve(points, x_label, y_label, thresholds=tuple(taus[first].tolist()))


@dataclass(frozen=True)
class OperatingPoint:
    far_target: float
    threshold: float
    tar: float
    achieved_far: float

    def as_dict(self) -> dict:
        """The fields; the -inf threshold that accepts every score is None, JSON's null."""
        return {**asdict(self), "threshold": None if self.threshold == -math.inf else self.threshold}


def far_target(value) -> float:
    """A false-accept-rate target: a real number (not a bool) in [0, 1], as a float."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValidationError(f"FAR target must be a number, got {brief(value)}")
    f = float(value)
    if not 0.0 <= f <= 1.0:
        raise ValidationError(f"FAR target must lie in [0, 1], got {value!r}")
    return f


def far_targets(values) -> tuple[float, ...]:
    """A report's FAR targets: each by far_target, none twice (0.01 and 1e-2 are one target)."""
    return no_repeats("FAR targets", tuple(far_target(f) for f in values))


def positive_rank(name: str, value):
    """The rank rule: a rank, or each rank of a list, is an integer (not a bool) of at
    least 1; None (no rank) passes. Returns value unchanged."""
    ranks = value if isinstance(value, list) else [] if value is None else [value]
    if any(isinstance(k, bool) or not isinstance(k, Integral) for k in ranks):
        raise ValidationError(f"{name} must be an integer, got {brief(value)}")
    if any(k < 1 for k in ranks):
        raise ValidationError(f"{name} must be positive, got {brief(value)}")
    return value


def report_ranks(values) -> tuple[int, ...]:
    """A report's ranks: each by positive_rank, none twice."""
    return no_repeats("ranks", tuple(positive_rank("ranks", list(values))))


class IdentificationEval:
    """One score matrix read against one protocol, reduced once to per-row arrays.

    Construction finds each probe's mate column, then computes mate_rows,
    non_mate_rows, genuine, ranks (pessimistic), tops, impostor (ascending,
    read-only) and gallery_size, which every metric reads; the matrix is
    not kept. Rank metrics cover the mate rows only; non-mate rows add
    impostor scores and open-set searches.
    """

    def __init__(self, matrix: ScoreMatrix, manifest: ProtocolManifest):
        probes = {p.probe_id: p for p in manifest.probes}
        columns = {s: j for j, s in enumerate(matrix.subject_ids)}
        mate_columns = np.full(len(matrix.probe_ids), -1, dtype=np.intp)
        for i, probe_id in enumerate(matrix.probe_ids):
            probe = probes.get(probe_id)
            if probe is None:
                raise ProtocolError(f"probe {brief(probe_id)} is not in the protocol")
            if manifest.is_mate(probe):
                if probe.true_subject_id not in columns:
                    raise ProtocolError(
                        f"mate subject {brief(probe.true_subject_id)} has no gallery column")
                mate_columns[i] = columns[probe.true_subject_id]
        scores = matrix.scores
        self.mate_rows = np.flatnonzero(mate_columns >= 0)
        self.non_mate_rows = np.flatnonzero(mate_columns < 0)
        mate_columns = mate_columns[self.mate_rows]
        self.genuine = scores[self.mate_rows, mate_columns]
        # Pessimistic rank: ties count against the mate; the mate's own >= adds the
        # leading 1. Mate rows only, _RANK_CELLS cells at a time.
        self.ranks = np.empty(len(self.mate_rows), dtype=np.intp)
        step = max(1, _RANK_CELLS // max(1, scores.shape[1]))
        for lo in range(0, len(self.mate_rows), step):
            rows, bar = self.mate_rows[lo : lo + step], self.genuine[lo : lo + step, None]
            self.ranks[lo : lo + step] = (scores[rows] >= bar).sum(axis=1)
        # No gallery columns, no top scores; every metric then raises ProtocolError.
        self.tops = scores.max(axis=1) if scores.size else np.full(len(scores), -np.inf)
        # Every cell but the mates', in row-major order (a boolean mask's order: the
        # cuts at the mate cells ascend, one per row, and each later piece starts with
        # its mate), then sorted in place: a reordering before the unstable sort could
        # change which of +0.0 and -0.0 a threshold reads.
        pieces = np.split(scores.reshape(-1), self.mate_rows * scores.shape[1] + mate_columns)
        self.impostor = np.concatenate([pieces[0], *(p[1:] for p in pieces[1:])], dtype=np.float64)
        self.impostor.sort()
        self.impostor.setflags(write=False)
        self.gallery_size = scores.shape[1]

    def _require_genuine_and_impostor(self) -> None:
        if self.genuine.size == 0 or self.impostor.size == 0:
            raise ProtocolError(
                f"need at least one genuine and one impostor score, "
                f"got {self.genuine.size} and {self.impostor.size}"
            )

    def rank_k_accuracy(self, k: int) -> float:
        """Fraction of mate searches whose mate ranks within the top k."""
        positive_rank("k", k)
        if not self.mate_rows.size:
            raise ProtocolError("no mate searches to rank")
        return float((self.ranks <= k).mean())

    def cmc(self, max_rank: int | None = None) -> Curve:
        """Cumulative match characteristic over the mate searches.

        CMC(r) is the fraction of mate searches whose mate has pessimistic
        rank <= r, for r = 1..max_rank (default: the gallery size).
        """
        if not self.mate_rows.size:
            raise ProtocolError("no mate searches to rank")
        if max_rank is None:
            max_rank = self.gallery_size
        positive_rank("max_rank", max_rank)
        hits = np.bincount(np.minimum(self.ranks, max_rank + 1), minlength=max_rank + 2)
        accuracy = np.cumsum(hits[1 : max_rank + 1]) / self.ranks.size
        points = tuple((float(r), float(a)) for r, a in enumerate(accuracy, start=1))
        return Curve(points=points, x_label="rank", y_label="cumulative match accuracy")

    def tar_at_far(
        self, far_targets: Sequence[float] = DEFAULT_FAR_TARGETS
    ) -> list[OperatingPoint]:
        """True accept rate at thresholds hit by each false-accept-rate target.

        For a target f in [0, 1] over N impostor scores, the threshold is the
        (floor(f*N) + 1)-th largest impostor score and acceptance means
        score > threshold, so the achieved FAR never exceeds the target. When
        floor(f*N) = N that order statistic does not exist and the threshold
        is -inf: every score is accepted, TAR and achieved FAR are 1.
        """
        self._require_genuine_and_impostor()
        targets = [far_target(f) for f in far_targets]
        ascending = self.impostor
        n = ascending.size
        thresholds = [float(ascending[n - 1 - m]) if m < n else -math.inf
                      for m in (math.floor(f * n) for f in targets)]
        tars = _share_above(np.sort(self.genuine), thresholds).tolist()
        fars = _share_above(ascending, thresholds).tolist()
        return [OperatingPoint(f, threshold, tar, far)
                for f, threshold, tar, far in zip(targets, thresholds, tars, fars)]

    def roc_curve(self) -> Curve:
        """TAR-vs-FAR sweep over impostor-score thresholds.

        Thresholds are -inf and the distinct impostor scores at _ROC_POINTS (4096)
        evenly spaced positions of all N impostor scores (every score when N <=
        _ROC_POINTS), so every emitted point is an exact operating point.
        """
        self._require_genuine_and_impostor()
        imp_sorted = self.impostor
        gen_sorted = np.sort(self.genuine)
        positions = _distinct(np.linspace(0, imp_sorted.size - 1, _ROC_POINTS).round().astype(int))
        # The thresholds are sorted again, as numpy.unique sorted them, which
        # decides whether 0.0 or -0.0 stands for a run of zeros of both signs.
        taus = np.concatenate(([-np.inf], _distinct(np.sort(imp_sorted[positions]))))
        fars, tars = _share_above(imp_sorted, taus), _share_above(gen_sorted, taus)
        return _plateau_curve(fars, tars, taus, "false accept rate", "true accept rate")

    def fnir_fpir(self, thresholds="sweep", rank_cap: int | None = None) -> Curve:
        """Open-set miss/false-alarm trade-off as a (FPIR, FNIR) curve.

        FPIR(t) is the fraction of non-mate searches whose top gallery score
        reaches t; FNIR(t) is the fraction of mate searches whose mate scores
        below t or (with rank_cap set) ranks outside the cap. "sweep" uses
        every distinct per-probe top score plus -inf/+inf sentinels so the
        curve reaches both axes; equal-FPIR points collapse to the lowest
        FNIR. An explicit flat list may hold -inf or +inf, but no NaN.
        """
        positive_rank("rank_cap", rank_cap)
        if not self.mate_rows.size:
            raise ProtocolError("no mate searches in the matrix")
        if not self.non_mate_rows.size:
            raise ProtocolError("no non-mate searches in the matrix")
        if isinstance(thresholds, str):
            if thresholds != "sweep":
                raise ValidationError(
                    f"thresholds must be a list of values or 'sweep', got {brief(thresholds)}")
            taus = np.concatenate(([-np.inf], _distinct(np.sort(self.tops)), [np.inf]))
        else:
            values = list(thresholds) if np.iterable(thresholds) else thresholds
            taus = float_array("thresholds", values)
            if taus.ndim != 1:
                raise ValidationError(f"thresholds must be a flat list of numbers, got {brief(values)}")
            taus = np.sort(taus)
            if taus.size == 0:
                raise ValidationError("at least one threshold is required")
            if np.isnan(taus).any():
                raise ValidationError(f"thresholds must not be NaN, got {brief(values)}")

        in_cap = self.genuine if rank_cap is None else self.genuine[self.ranks <= rank_cap]
        nm_sorted = np.sort(self.tops[self.non_mate_rows])
        in_cap_sorted = np.sort(in_cap)
        n_mates = self.genuine.size
        n_out = n_mates - in_cap.size
        # count(x >= t) needs side="left"; count(x < t) is its complement.
        fpirs = (nm_sorted.size - np.searchsorted(nm_sorted, taus, side="left")) / nm_sorted.size
        fnirs = (np.searchsorted(in_cap_sorted, taus, side="left") + n_out) / n_mates
        return _plateau_curve(fpirs, fnirs, taus, "false positive identification rate",
                              "false negative identification rate")


def cmc(matrix: ScoreMatrix, manifest: ProtocolManifest, max_rank: int | None = None) -> Curve:
    """IdentificationEval.cmc."""
    return IdentificationEval(matrix, manifest).cmc(max_rank)


def rank_k_accuracy(matrix: ScoreMatrix, manifest: ProtocolManifest, k: int) -> float:
    """IdentificationEval.rank_k_accuracy."""
    return IdentificationEval(matrix, manifest).rank_k_accuracy(k)


def tar_at_far(
    matrix: ScoreMatrix,
    manifest: ProtocolManifest,
    far_targets: Sequence[float] = DEFAULT_FAR_TARGETS,
) -> list[OperatingPoint]:
    """IdentificationEval.tar_at_far."""
    return IdentificationEval(matrix, manifest).tar_at_far(far_targets)


def roc_curve(matrix: ScoreMatrix, manifest: ProtocolManifest) -> Curve:
    """IdentificationEval.roc_curve."""
    return IdentificationEval(matrix, manifest).roc_curve()


def fnir_fpir(
    matrix: ScoreMatrix,
    manifest: ProtocolManifest,
    thresholds="sweep",
    rank_cap: int | None = None,
) -> Curve:
    """IdentificationEval.fnir_fpir."""
    return IdentificationEval(matrix, manifest).fnir_fpir(thresholds, rank_cap)
