"""Training objectives as pure scalar functions with closed-form gradients.

smooth_l1 + objectness BCE + class BCE add up to the detector loss;
subject cross-entropy + batch-hard triplet add up to the recognition
loss. grad_check verifies any shipped gradient against central
differences, and run_self_check bundles every identity, oracle, and
gradient check behind one report.

The small-residual branch of the box loss is the quadratic d^2/(2*beta);
the hinge threshold beta defaults to 1/9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .stores import float_array

DEFAULT_BETA = 1.0 / 9.0
DEFAULT_MARGIN = 0.3
DEFAULT_EPSILON = 1e-7


@dataclass(frozen=True)
class ObjectnessSample:
    """A predicted object probability and its binary label."""

    o: float
    o_hat: int

    def __post_init__(self):
        if not (0.0 <= self.o <= 1.0):
            raise ValueError(f"o must be a probability in [0, 1], got {self.o!r}")
        if self.o_hat not in (0, 1):
            raise ValueError(f"o_hat must be 0 or 1, got {self.o_hat!r}")


@dataclass(frozen=True, eq=False)
class LabeledBatch:
    """B feature vectors of equal dimension with one subject label each."""

    features: np.ndarray
    labels: tuple[str, ...]

    def __init__(self, features, labels):
        x = np.array(float_array("features", features))  # the batch's own copy
        if x.ndim != 2 or x.shape[0] < 2:
            raise ValueError(f"features must be a (B >= 2, d) array, got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValueError("features must be finite")
        labels = tuple(str(l) for l in labels)
        if len(labels) != x.shape[0]:
            raise ValueError(f"{len(labels)} labels for {x.shape[0]} feature rows")
        x.setflags(write=False)
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def _as_finite_vector(value, name: str) -> np.ndarray:
    arr = float_array(name, value).reshape(-1)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def smooth_l1(pred, gt, beta: float = DEFAULT_BETA) -> float:
    """Smoothed L1 box loss, summed over coordinates.

    Per coordinate with d = pred_i - gt_i: d^2/(2*beta) when |d| < beta,
    else |d| - beta/2. Continuous at |d| = beta, zero iff pred == gt.
    """
    if not (beta > 0):
        raise ValueError(f"beta must be positive, got {beta!r}")
    d = _as_finite_vector(pred, "pred") - _as_finite_vector(gt, "gt")
    if not np.all(np.isfinite(d)):
        raise ValueError("pred - gt must be finite")
    small = np.abs(d) < beta
    per_coord = np.where(small, d * d / (2.0 * beta), np.abs(d) - beta / 2.0)
    return float(per_coord.sum())


def smooth_l1_grad(pred, gt, beta: float = DEFAULT_BETA) -> np.ndarray:
    """Derivative of smooth_l1 with respect to pred (undefined only at |d| = beta)."""
    if not (beta > 0):
        raise ValueError(f"beta must be positive, got {beta!r}")
    d = _as_finite_vector(pred, "pred") - _as_finite_vector(gt, "gt")
    return np.where(np.abs(d) < beta, d / beta, np.sign(d))


def bce(sample: ObjectnessSample, epsilon: float = DEFAULT_EPSILON) -> float:
    """Binary cross entropy; o is clamped to [epsilon, 1 - epsilon] before logs."""
    if not (0 < epsilon < 0.5):
        raise ValueError(f"epsilon must lie in (0, 0.5), got {epsilon!r}")
    o = min(max(sample.o, epsilon), 1.0 - epsilon)
    return -(sample.o_hat * math.log(o) + (1 - sample.o_hat) * math.log1p(-o))


def bce_grad(sample: ObjectnessSample, epsilon: float = DEFAULT_EPSILON) -> float:
    """Derivative of bce with respect to o; zero inside the clamp's flat regions."""
    if not (epsilon < sample.o < 1.0 - epsilon):
        return 0.0
    return -(sample.o_hat / sample.o - (1 - sample.o_hat) / (1.0 - sample.o))


def objectness_from_logits(logits, object_index: int = 1) -> float:
    """Softmax a two-logit objectness head down to the scalar object probability."""
    z = _as_finite_vector(logits, "logits")
    if z.size != 2:
        raise ValueError(f"expected exactly 2 logits, got {z.size}")
    if object_index not in (0, 1):
        raise ValueError(f"object_index must be 0 or 1, got {object_index!r}")
    z = z - z.max()
    p = np.exp(z)
    return float(p[object_index] / p.sum())


def detector_loss(l1: float, l_obj: float, l_det: float) -> float:
    """Total detector objective: unweighted sum of box, objectness, and class terms."""
    for name, value in (("l1", l1), ("l_obj", l_obj), ("l_det", l_det)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    return l1 + l_obj + l_det


def cross_entropy(logits, label: int, epsilon: float = DEFAULT_EPSILON) -> float:
    """Negative log softmax probability of the labeled class.

    Uses the max-subtracted log-sum-exp form, so arbitrarily large logits
    stay finite; the class probability is clamped at epsilon from below,
    capping the loss at -ln(epsilon).
    """
    if not (0 < epsilon < 0.5):
        raise ValueError(f"epsilon must lie in (0, 0.5), got {epsilon!r}")
    z = _as_finite_vector(logits, "logits")
    if z.size < 2:
        raise ValueError(f"need at least 2 classes, got {z.size}")
    if not (0 <= label < z.size):
        raise ValueError(f"label {label} out of range for {z.size} classes")
    m = float(z.max())
    lse = m + math.log(float(np.exp(z - m).sum()))
    return min(lse - float(z[label]), -math.log(epsilon))


def cross_entropy_grad(logits, label: int, epsilon: float = DEFAULT_EPSILON) -> np.ndarray:
    """Derivative of cross_entropy with respect to the logits: softmax - one_hot.

    Zero inside the clamp's flat region (class probability below epsilon).
    """
    z = _as_finite_vector(logits, "logits")
    if not (0 <= label < z.size):
        raise ValueError(f"label {label} out of range for {z.size} classes")
    p = np.exp(z - z.max())
    p /= p.sum()
    if p[label] <= epsilon:
        return np.zeros_like(p)
    p[label] -= 1.0
    return p


def pairwise_distances(features: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix between feature rows."""
    x = float_array("features", features)
    diff = x[:, None, :] - x[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def _triplet_masks(labels: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    lab = np.asarray(list(labels))
    same = lab[:, None] == lab[None, :]
    pos = same & ~np.eye(len(lab), dtype=bool)
    neg = ~same
    return pos, neg


def _check_triplet_batch(batch: LabeledBatch) -> None:
    counts: dict[str, int] = {}
    for label in batch.labels:
        counts[label] = counts.get(label, 0) + 1
    if len(counts) < 2:
        raise ValueError("no negative: batch contains a single subject")
    singletons = sorted(label for label, c in counts.items() if c < 2)
    if singletons:
        raise ValueError(f"no positive: subjects with a single sample: {singletons}")


def batch_hard_triplet(batch: LabeledBatch, margin: float = DEFAULT_MARGIN) -> float:
    """Batch-hard triplet loss over Euclidean distances.

    Every sample anchors one hinge max(0, max_p D(a,p) - min_n D(a,n) +
    margin), where p runs over other same-subject samples and n over
    different-subject samples; the result is the mean over anchors.
    Needs >= 2 subjects and >= 2 samples per subject.
    """
    if not (margin >= 0):
        raise ValueError(f"margin must be non-negative, got {margin!r}")
    _check_triplet_batch(batch)
    dist = pairwise_distances(batch.features)
    pos, neg = _triplet_masks(batch.labels)
    hardest_pos = np.where(pos, dist, -np.inf).max(axis=1)
    hardest_neg = np.where(neg, dist, np.inf).min(axis=1)
    hinge = np.maximum(0.0, hardest_pos - hardest_neg + margin)
    return float(hinge.mean())


def batch_hard_triplet_grad(batch: LabeledBatch, margin: float = DEFAULT_MARGIN) -> np.ndarray:
    """Derivative of batch_hard_triplet with respect to the feature matrix.

    Defined away from hinge kinks, hardest-pair ties, and coincident
    points (zero distances raise).
    """
    if not (margin >= 0):
        raise ValueError(f"margin must be non-negative, got {margin!r}")
    _check_triplet_batch(batch)
    x = batch.features
    dist = pairwise_distances(x)
    pos, neg = _triplet_masks(batch.labels)
    pos_dist = np.where(pos, dist, -np.inf)
    neg_dist = np.where(neg, dist, np.inf)
    hardest_p = pos_dist.argmax(axis=1)
    hardest_n = neg_dist.argmin(axis=1)
    grad = np.zeros_like(x)
    b = batch.size
    for a in range(b):
        p = int(hardest_p[a])
        n = int(hardest_n[a])
        if dist[a, p] - dist[a, n] + margin <= 0.0:
            continue
        if dist[a, p] == 0.0 or dist[a, n] == 0.0:
            raise ValueError("coincident features make the triplet gradient undefined")
        u = (x[a] - x[p]) / dist[a, p]
        v = (x[a] - x[n]) / dist[a, n]
        grad[a] += u - v
        grad[p] -= u
        grad[n] += v
    return grad / b


def recognition_loss(l_cls: float, l_pair: float) -> float:
    """Total recognition objective: subject cross-entropy plus triplet term."""
    for name, value in (("l_cls", l_cls), ("l_pair", l_pair)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    return l_cls + l_pair


def grad_check(
    fn: Callable[[np.ndarray], float],
    grad_fn: Callable[[np.ndarray], np.ndarray],
    point,
    step: float = 1e-5,
) -> float:
    """Max relative error between grad_fn and central differences of fn.

    Per component the error is |analytic - numeric| / max(1, |analytic|,
    |numeric|). The caller keeps `point` away from non-differentiable
    spots by at least `step`.
    """
    x0 = float_array("point", point).reshape(-1)
    analytic = float_array("gradient", grad_fn(x0)).reshape(-1)
    if analytic.shape != x0.shape:
        raise ValueError(f"gradient shape {analytic.shape} does not match point {x0.shape}")
    worst = 0.0
    for i in range(x0.size):
        e = np.zeros_like(x0)
        e[i] = step
        numeric = (fn(x0 + e) - fn(x0 - e)) / (2.0 * step)
        denom = max(1.0, abs(analytic[i]), abs(numeric))
        worst = max(worst, abs(analytic[i] - numeric) / denom)
    return worst


# --- self-check suite -------------------------------------------------------

GRADIENT_TOLERANCE = 1e-5
IDENTITY_TOLERANCE = 1e-12


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}: max error {self.max_error:.3e} (tolerance {self.tolerance:.0e})"


def _triplet_all_triplets(batch: LabeledBatch, margin: float) -> float:
    """Plain-Python rederivation of the batch-hard loss for the self check."""
    b = batch.size
    x = batch.features
    lab = batch.labels

    def dist(i: int, j: int) -> float:
        return math.sqrt(sum((float(x[i, c]) - float(x[j, c])) ** 2 for c in range(batch.dim)))

    total = 0.0
    for a in range(b):
        worst = -math.inf
        for p in range(b):
            if p == a or lab[p] != lab[a]:
                continue
            for n in range(b):
                if lab[n] == lab[a]:
                    continue
                worst = max(worst, dist(a, p) - dist(a, n) + margin)
        total += max(0.0, worst)
    return total / b


def _random_triplet_batch(rng: np.random.Generator, guard: float = 1e-3) -> LabeledBatch:
    """Random batch kept away from hinge kinks and hardest-pair ties."""
    for _ in range(100):
        subjects = int(rng.integers(2, 5))
        per_subject = int(rng.integers(2, 4))
        dim = int(rng.integers(2, 9))
        labels = [f"s{i}" for i in range(subjects) for _ in range(per_subject)]
        feats = rng.normal(size=(len(labels), dim))
        batch = LabeledBatch(feats, labels)
        dist = pairwise_distances(batch.features)
        pos, neg = _triplet_masks(batch.labels)
        hp = np.where(pos, dist, -np.inf).max(axis=1)
        hn = np.where(neg, dist, np.inf).min(axis=1)
        margins = hp - hn + DEFAULT_MARGIN
        if np.any(np.abs(margins) < guard):
            continue
        gaps = []
        for a in range(batch.size):
            pd = np.sort(dist[a][pos[a]])
            nd = np.sort(dist[a][neg[a]])
            if pd.size > 1:
                gaps.append(pd[-1] - pd[-2])
            if nd.size > 1:
                gaps.append(nd[1] - nd[0])
        if gaps and min(gaps) < guard:
            continue
        return batch
    raise RuntimeError("could not draw a well-separated triplet batch")


def _gradient_checks(rng: np.random.Generator, points: int) -> list[CheckResult]:
    results = []

    worst = 0.0
    gt = rng.normal(size=4)
    for _ in range(points):
        pred = gt + rng.normal(size=4)
        # Stay off the |d| = beta joint by more than the step size.
        while np.any(np.abs(np.abs(pred - gt) - DEFAULT_BETA) < 1e-3):
            pred = gt + rng.normal(size=4)
        worst = max(
            worst,
            grad_check(
                lambda p: smooth_l1(p, gt),
                lambda p: smooth_l1_grad(p, gt),
                pred,
            ),
        )
    results.append(CheckResult("smooth_l1 gradient", worst, GRADIENT_TOLERANCE))

    worst = 0.0
    for _ in range(points):
        o = float(rng.uniform(0.05, 0.95))
        o_hat = int(rng.integers(0, 2))
        worst = max(
            worst,
            grad_check(
                lambda v: bce(ObjectnessSample(float(v[0]), o_hat)),
                lambda v: np.array([bce_grad(ObjectnessSample(float(v[0]), o_hat))]),
                np.array([o]),
            ),
        )
    results.append(CheckResult("bce gradient", worst, GRADIENT_TOLERANCE))

    worst = 0.0
    cap = -math.log(DEFAULT_EPSILON)
    for _ in range(points):
        c = int(rng.integers(2, 12))
        label = int(rng.integers(0, c))
        logits = rng.normal(scale=3.0, size=c)
        # Stay off the probability-clamp plateau boundary.
        while cross_entropy(logits, label) >= cap - 1e-3:
            logits = rng.normal(scale=3.0, size=c)
        worst = max(
            worst,
            grad_check(
                lambda z: cross_entropy(z, label),
                lambda z: cross_entropy_grad(z, label),
                logits,
            ),
        )
    results.append(CheckResult("cross_entropy gradient", worst, GRADIENT_TOLERANCE))

    worst = 0.0
    for _ in range(points):
        batch = _random_triplet_batch(rng)
        shape = batch.features.shape
        labels = batch.labels
        worst = max(
            worst,
            grad_check(
                lambda f: batch_hard_triplet(LabeledBatch(f.reshape(shape), labels)),
                lambda f: batch_hard_triplet_grad(LabeledBatch(f.reshape(shape), labels)).reshape(-1),
                batch.features.reshape(-1),
            ),
        )
    results.append(CheckResult("batch_hard_triplet gradient", worst, GRADIENT_TOLERANCE))

    return results


@dataclass(frozen=True)
class SelfCheckReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_gradient_error(self) -> float:
        grads = [c.max_error for c in self.checks if c.name.endswith("gradient")]
        return max(grads) if grads else 0.0

    def lines(self) -> list[str]:
        return [c.line() for c in self.checks]


def run_self_check(seed: int = 0, gradient_points: int = 100, triplet_batches: int = 50) -> SelfCheckReport:
    """Run every loss identity, oracle comparison, and gradient check."""
    rng = np.random.default_rng(seed)
    checks: list[CheckResult] = []

    err = abs(smooth_l1([1.0], [0.0]) - (1.0 - 1.0 / 18.0))
    err = max(err, abs(smooth_l1([0.0] * 4, [0.0] * 4)))
    checks.append(CheckResult("smooth_l1 worked values", err, IDENTITY_TOLERANCE))

    lo = smooth_l1([DEFAULT_BETA - 1e-9], [0.0])
    hi = smooth_l1([DEFAULT_BETA + 1e-9], [0.0])
    checks.append(CheckResult("smooth_l1 continuity at beta", abs(hi - lo), 1e-8))

    err = abs(bce(ObjectnessSample(0.5, 1)) - math.log(2.0))
    err = max(err, abs(bce(ObjectnessSample(0.9, 1)) - (-math.log(0.9))))
    checks.append(CheckResult("bce worked values", err, IDENTITY_TOLERANCE))

    err = abs(cross_entropy([0.0, 0.0, 0.0, 0.0], 0) - math.log(4.0))
    err = max(err, abs(cross_entropy([1.0, 0.0], 0) - math.log(1.0 + math.exp(-1.0))))
    checks.append(CheckResult("cross_entropy worked values", err, IDENTITY_TOLERANCE))

    err = 0.0
    for _ in range(200):
        parts = rng.normal(scale=5.0, size=3)
        total = detector_loss(*parts)
        exact = math.fsum(parts)
        err = max(err, abs(total - exact) / max(1.0, abs(exact)))
        pair = rng.normal(scale=5.0, size=2)
        total = recognition_loss(*pair)
        exact = math.fsum(pair)
        err = max(err, abs(total - exact) / max(1.0, abs(exact)))
    checks.append(CheckResult("total losses re-add exactly", err, 1e-15))

    err = 0.0
    for _ in range(triplet_batches):
        batch = _random_triplet_batch(rng, guard=0.0)
        err = max(
            err,
            abs(batch_hard_triplet(batch) - _triplet_all_triplets(batch, DEFAULT_MARGIN)),
        )
    checks.append(CheckResult("batch_hard_triplet equals all-triplets oracle", err, 1e-12))

    checks.extend(_gradient_checks(rng, gradient_points))
    return SelfCheckReport(tuple(checks))
