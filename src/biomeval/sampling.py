"""Deterministic, seedable planners for media sampling, batching, and frame windows.

All randomness comes from numpy's PCG64 (``numpy.random.default_rng``);
the generator name is recorded in emitted plans so runs replay
identically across machines. Item and subject orderings are canonical
(sorted), so equal inputs always produce byte-identical plans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ValidationError, brief

GENERATOR_NAME = "numpy-pcg64"
DEFAULT_SUBJECTS_PER_BATCH = 4
DEFAULT_MEDIA_PER_SUBJECT = 4
DEFAULT_STRIDE = 300
STANDARD_TEST_STRIDES = (150, 300)
MODES = ("train", "test")
SELECTIONS = ("window", "uniform")


@dataclass(frozen=True)
class DatasetWeights:
    """Per-dataset and per-item sampling probabilities.

    Items are weighted 1/|dataset| and normalized globally, so every
    dataset is drawn with equal probability regardless of its size.
    """

    per_dataset: dict[str, float]
    per_item: dict[str, float]

    def __post_init__(self):
        for name, table in (("per_dataset", self.per_dataset), ("per_item", self.per_item)):
            total = math.fsum(table.values())
            if abs(total - 1.0) > 1e-12:
                raise ValidationError(f"{name} probabilities sum to {total!r}, expected 1")


@dataclass(frozen=True)
class BatchPlan:
    """Identity-balanced batches: n distinct subjects with k media each."""

    n: int
    k: int
    batches: tuple[tuple[str, ...], ...]

    @property
    def batch_size(self) -> int:
        return self.n * self.k


@dataclass(frozen=True)
class FrameWindow:
    """Strided frame indices padded to a fixed length with a validity mask."""

    indices: tuple[int, ...]
    mask: tuple[int, ...]
    length: int

    def __post_init__(self):
        if len(self.indices) != self.length or len(self.mask) != self.length:
            raise ValidationError("indices and mask must both have `length` entries")
        for idx, valid in zip(self.indices, self.mask):
            if (valid == 1) != (idx >= 0):
                raise ValidationError("mask must be 1 exactly for the non-padding indices")
        valid_indices = [i for i in self.indices if i >= 0]
        if any(b <= a for a, b in zip(valid_indices, valid_indices[1:])):
            raise ValidationError("valid indices must be strictly increasing")
        if any(v == 1 for v in self.mask[len(valid_indices):]):
            raise ValidationError("all valid entries must precede the padding")

    @property
    def valid_count(self) -> int:
        return sum(self.mask)


def dataset_balanced_weights(items_by_dataset: Mapping[str, Sequence[str]]) -> DatasetWeights:
    """Weight every item by the reciprocal of its dataset size, normalized overall.

    With D datasets the per-item probability is 1/(D * |dataset|) and each
    dataset's total probability is exactly 1/D.
    """
    if not items_by_dataset:
        raise ValidationError("at least one dataset is required")
    empty = sorted(tag for tag, items in items_by_dataset.items() if len(items) == 0)
    if empty:
        raise ValidationError(f"empty datasets: {empty}")
    num_datasets = len(items_by_dataset)
    per_dataset = {tag: 1.0 / num_datasets for tag in items_by_dataset}
    per_item: dict[str, float] = {}
    for tag, items in items_by_dataset.items():
        weight = 1.0 / (num_datasets * len(items))
        for media_id in items:
            if media_id in per_item:
                raise ValidationError(f"media {brief(media_id)} appears in more than one dataset")
            per_item[media_id] = weight
    return DatasetWeights(per_dataset=per_dataset, per_item=per_item)


def sample_media(weights: DatasetWeights, count: int, seed: int) -> list[str]:
    """Draw `count` media ids independently from the per-item distribution.

    Draws use inverse-CDF sampling over items sorted by id, so the output
    is a pure function of (weights, count, seed).
    """
    if count < 1:
        raise ValidationError(f"count must be positive, got {count}")
    ids = sorted(weights.per_item)
    probs = np.array([weights.per_item[m] for m in ids], dtype=np.float64)
    cumulative = np.cumsum(probs)
    rng = np.random.default_rng(seed)
    draws = rng.random(count)
    picks = np.searchsorted(cumulative, draws, side="right")
    # Guard against cumulative[-1] rounding just below 1.0.
    picks = np.minimum(picks, len(ids) - 1)
    return [ids[i] for i in picks]


def pk_batches(
    media_by_subject: Mapping[str, Sequence[str]],
    n: int = DEFAULT_SUBJECTS_PER_BATCH,
    k: int = DEFAULT_MEDIA_PER_SUBJECT,
    num_batches: int = 1,
    seed: int = 0,
) -> BatchPlan:
    """Compose identity-balanced batches of n subjects x k media.

    Subjects are drawn uniformly without replacement per batch; each
    subject contributes k media drawn without replacement when it has at
    least k, with replacement otherwise.
    """
    if n < 2 or k < 2:
        raise ValidationError(f"n and k must both be >= 2, got n={n}, k={k}")
    if num_batches < 1:
        raise ValidationError(f"num_batches must be positive, got {num_batches}")
    subjects = sorted(media_by_subject)
    if len(subjects) < n:
        raise ValidationError(f"need at least {n} subjects, only {len(subjects)} available")
    media = {s: sorted(media_by_subject[s]) for s in subjects}
    starved = sorted(s for s in subjects if len(media[s]) == 0)
    if starved:
        raise ValidationError(f"subjects with no media: {starved}")

    rng = np.random.default_rng(seed)
    batches = []
    for _ in range(num_batches):
        chosen = rng.choice(len(subjects), size=n, replace=False)
        batch: list[str] = []
        for s_idx in chosen:
            items = media[subjects[int(s_idx)]]
            if len(items) >= k:
                picks = rng.permutation(len(items))[:k]
            else:
                picks = rng.integers(0, len(items), size=k)
            batch.extend(items[int(i)] for i in picks)
        batches.append(tuple(batch))
    return BatchPlan(n=n, k=k, batches=tuple(batches))


def frame_window(
    frame_count: int,
    stride: int,
    length: int,
    mode: str = "train",
    seed: int = 0,
    selection: str = "window",
) -> FrameWindow:
    """Pick strided frame indices for one medium.

    The strided sequence is (0, stride, 2*stride, ...) below frame_count.
    Test mode returns the whole sequence. Train mode returns `length`
    entries: when the sequence is longer, either a consecutive run from a
    random start (selection "window") or a uniform random subset
    (selection "uniform"); when shorter, the sequence padded with -1
    indices and a zero mask. A still image behaves as a one-frame video.
    """
    if frame_count < 1:
        raise ValidationError(f"frame_count must be positive, got {frame_count}")
    if stride < 1:
        raise ValidationError(f"stride must be positive, got {stride}")
    if length < 1:
        raise ValidationError(f"window length must be positive, got {length}")
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")
    if selection not in SELECTIONS:
        raise ValidationError(f"selection must be one of {SELECTIONS}, got {selection!r}")

    strided = list(range(0, frame_count, stride))
    if mode == "test":
        return FrameWindow(
            indices=tuple(strided), mask=(1,) * len(strided), length=len(strided)
        )

    if len(strided) > length:
        rng = np.random.default_rng(seed)
        if selection == "window":
            start = int(rng.integers(0, len(strided) - length + 1))
            kept = strided[start : start + length]
        else:
            picks = sorted(rng.choice(len(strided), size=length, replace=False))
            kept = [strided[int(i)] for i in picks]
        return FrameWindow(indices=tuple(kept), mask=(1,) * length, length=length)

    pad = length - len(strided)
    return FrameWindow(
        indices=tuple(strided) + (-1,) * pad,
        mask=(1,) * len(strided) + (0,) * pad,
        length=length,
    )
