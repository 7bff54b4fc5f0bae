import math

import numpy as np
import pytest

import biomeval.losses
from biomeval import (
    LabeledBatch,
    ObjectnessSample,
    ValidationError,
    batch_hard_triplet,
    batch_hard_triplet_grad,
    bce,
    bce_grad,
    cross_entropy,
    cross_entropy_grad,
    detector_loss,
    grad_check,
    objectness_from_logits,
    recognition_loss,
    run_self_check,
    smooth_l1,
    smooth_l1_grad,
)
from biomeval.losses import DEFAULT_BETA, _random_triplet_batch, pairwise_distances

from oracles import triplet_reference

BETA = 1.0 / 9.0


class TestSmoothL1:
    def test_zero_at_equality(self):
        assert smooth_l1([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]) == 0.0

    def test_unit_residual_at_default_beta(self):
        assert smooth_l1([1.0], [0.0], beta=BETA) == pytest.approx(1.0 - 1.0 / 18.0, abs=1e-12)

    def test_both_branches_agree_at_beta(self):
        # Linear branch value at d = beta...
        assert smooth_l1([BETA], [0.0], beta=BETA) == pytest.approx(BETA / 2.0, abs=1e-15)
        # ...equals the quadratic branch limit beta^2/(2 beta).
        assert BETA * BETA / (2.0 * BETA) == pytest.approx(BETA / 2.0, abs=1e-15)

    def test_continuity_across_branch_point(self):
        below = smooth_l1([BETA - 1e-9], [0.0], beta=BETA)
        above = smooth_l1([BETA + 1e-9], [0.0], beta=BETA)
        assert abs(above - below) < 1e-8

    def test_non_negative_and_zero_iff_equal(self):
        rng = np.random.default_rng(50)
        for _ in range(300):
            pred, gt = rng.normal(size=4), rng.normal(size=4)
            value = smooth_l1(pred, gt)
            assert value >= 0.0
            assert (value == 0.0) == bool(np.all(pred == gt))

    def test_sum_over_coordinates(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            pred, gt = rng.normal(size=4), rng.normal(size=4)
            total = smooth_l1(pred, gt)
            parts = sum(smooth_l1([p], [g]) for p, g in zip(pred, gt))
            assert total == pytest.approx(parts, rel=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            smooth_l1([math.nan, 0, 0, 0], [0, 0, 0, 0])
        with pytest.raises(ValueError):
            smooth_l1([0], [math.inf])
        with pytest.raises(ValueError):
            smooth_l1([0], [0], beta=0.0)


class TestBce:
    def test_half_is_ln2(self):
        assert bce(ObjectnessSample(0.5, 1)) == pytest.approx(math.log(2.0), abs=1e-12)
        assert bce(ObjectnessSample(0.5, 0)) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_confident_correct(self):
        assert bce(ObjectnessSample(0.9, 1)) == pytest.approx(-math.log(0.9), abs=1e-12)

    def test_perfect_prediction_clamps(self):
        eps = 1e-7
        value = bce(ObjectnessSample(1.0, 1), epsilon=eps)
        assert value == pytest.approx(-math.log(1.0 - eps), abs=1e-15)
        assert value < 1e-6

    def test_saturated_wrong_prediction_is_finite(self):
        assert math.isfinite(bce(ObjectnessSample(0.0, 1)))
        assert bce(ObjectnessSample(0.0, 1)) == pytest.approx(-math.log(1e-7), rel=1e-9)

    def test_non_negative(self):
        rng = np.random.default_rng(52)
        for _ in range(200):
            assert bce(ObjectnessSample(float(rng.random()), int(rng.integers(0, 2)))) >= 0.0

    def test_invalid_sample(self):
        with pytest.raises(ValueError):
            ObjectnessSample(1.5, 1)
        with pytest.raises(ValueError):
            ObjectnessSample(0.5, 2)

    def test_two_logit_adapter(self):
        # Equal logits mean probability one half for either class.
        assert objectness_from_logits([3.0, 3.0]) == pytest.approx(0.5, abs=1e-12)
        p = objectness_from_logits([0.0, 2.0])
        assert p == pytest.approx(1.0 / (1.0 + math.exp(-2.0)), abs=1e-12)
        with pytest.raises(ValueError):
            objectness_from_logits([1.0, 2.0, 3.0])


class TestTotals:
    def test_detector_loss_examples(self):
        assert detector_loss(0.0, 0.0, 0.0) == 0.0
        assert detector_loss(1.0, 2.0, 3.0) == 6.0

    def test_recognition_loss_examples(self):
        assert recognition_loss(0.0, 0.0) == 0.0
        assert recognition_loss(1.386294, 1.3) == pytest.approx(2.686294, abs=1e-12)

    def test_random_triples_match_extended_precision(self):
        rng = np.random.default_rng(53)
        for _ in range(300):
            parts = rng.normal(scale=10.0, size=3)
            exact = math.fsum(parts)
            assert detector_loss(*parts) == pytest.approx(exact, rel=1e-15, abs=1e-15)
            pair = rng.normal(scale=10.0, size=2)
            assert recognition_loss(*pair) == pytest.approx(math.fsum(pair), rel=1e-15, abs=1e-15)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            detector_loss(1.0, math.nan, 2.0)
        with pytest.raises(ValueError):
            recognition_loss(math.inf, 0.0)


class TestCrossEntropy:
    def test_uniform_logits(self):
        assert cross_entropy([0.0] * 4, 2) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_two_class_worked_value(self):
        assert cross_entropy([1.0, 0.0], 0) == pytest.approx(math.log(1.0 + math.exp(-1.0)), abs=1e-12)

    def test_confident_correct_goes_to_zero(self):
        assert cross_entropy([1000.0, 0.0, 0.0], 0) < 1e-12

    def test_stable_under_huge_logits(self):
        value = cross_entropy([1e4, 1e4 - 3.0], 0)
        assert math.isfinite(value)
        assert value == pytest.approx(math.log(1.0 + math.exp(-3.0)), rel=1e-9)

    def test_loss_capped_by_probability_clamp(self):
        assert cross_entropy([1000.0, 0.0], 1) == pytest.approx(-math.log(1e-7), abs=1e-12)
        assert cross_entropy([1000.0, 0.0], 1, epsilon=1e-3) == pytest.approx(
            -math.log(1e-3), abs=1e-12
        )

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy([0.0, 0.0], 2)
        with pytest.raises(ValueError):
            cross_entropy([0.0], 0)

    def test_bounded_between_zero_and_clamp(self):
        rng = np.random.default_rng(54)
        cap = -math.log(1e-7)
        for _ in range(200):
            c = int(rng.integers(2, 10))
            value = cross_entropy(rng.normal(scale=8.0, size=c), int(rng.integers(0, c)))
            assert 0.0 <= value <= cap + 1e-12


class TestBatchHardTriplet:
    def test_all_hinges_inactive(self):
        batch = LabeledBatch([[0.0], [1.0], [10.0], [10.5]], ["A", "A", "B", "B"])
        assert batch_hard_triplet(batch, margin=0.3) == 0.0

    def test_interleaved_subjects(self):
        batch = LabeledBatch([[0.0], [2.0], [1.0], [3.0]], ["A", "A", "B", "B"])
        assert batch_hard_triplet(batch, margin=0.3) == pytest.approx(1.3, abs=1e-12)

    def test_singleton_subject_rejected(self):
        batch = LabeledBatch([[0.0], [1.0], [2.0]], ["A", "A", "B"])
        with pytest.raises(ValueError, match="no positive"):
            batch_hard_triplet(batch)

    def test_single_subject_rejected(self):
        batch = LabeledBatch([[0.0], [1.0]], ["A", "A"])
        with pytest.raises(ValueError, match="no negative"):
            batch_hard_triplet(batch)

    def test_matches_all_triplets_oracle(self):
        rng = np.random.default_rng(55)
        for _ in range(100):
            subjects = int(rng.integers(2, 5))
            per = int(rng.integers(2, 5))
            dim = int(rng.integers(1, 9))
            labels = [f"s{i}" for i in range(subjects) for _ in range(per)]
            if len(labels) > 16:
                labels = labels[:16]
                while labels.count(labels[-1]) < 2:
                    labels.pop()
            feats = rng.normal(size=(len(labels), dim))
            margin = float(rng.uniform(0.0, 1.0))
            batch = LabeledBatch(feats, labels)
            expected = triplet_reference(feats.tolist(), labels, margin)
            assert batch_hard_triplet(batch, margin) == pytest.approx(expected, abs=1e-12)

    def test_rigid_transform_invariance(self):
        rng = np.random.default_rng(56)
        for _ in range(50):
            dim = int(rng.integers(2, 6))
            labels = ["A", "A", "A", "B", "B", "C", "C"]
            feats = rng.normal(size=(len(labels), dim))
            base = batch_hard_triplet(LabeledBatch(feats, labels))
            q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
            shifted = feats @ q + rng.normal(size=dim)
            moved = batch_hard_triplet(LabeledBatch(shifted, labels))
            assert moved == pytest.approx(base, abs=1e-9)

    def test_batch_validation(self):
        with pytest.raises(ValueError):
            LabeledBatch([[0.0]], ["A"])
        with pytest.raises(ValueError):
            LabeledBatch([[0.0], [math.nan]], ["A", "A"])
        with pytest.raises(ValueError):
            LabeledBatch([[0.0], [1.0]], ["A"])


@pytest.mark.parametrize("name, call", [
    ("features", lambda: pairwise_distances([["x" * 100000]])),
    ("pred", lambda: smooth_l1(["x" * 100000], [1.0])),
    ("logits", lambda: cross_entropy([{}], 0)),
    ("features", lambda: LabeledBatch([["x" * 100000], [1.0]], ["A", "B"])),
    ("point", lambda: grad_check(lambda x: 0.0, lambda x: x, ["x" * 100000])),
    ("gradient", lambda: grad_check(lambda x: 0.0, lambda x: [{}], [1.0])),
], ids=["pairwise_distances", "smooth_l1", "cross_entropy", "LabeledBatch", "grad_check-point",
        "grad_check-gradient"])
def test_array_arguments_that_are_not_numbers_fail_bounded(name, call):
    """A caller's array numpy cannot convert fails as a ValidationError that names the
    argument, not numpy's message quoting a 100k-character string whole, nor a TypeError."""
    with pytest.raises(ValidationError) as info:
        call()
    message = str(info.value)
    assert message.startswith(f"{name} must be an array of numbers") and len(message) < 1000, message[:200]


class TestGradients:
    def test_quadratic_sanity(self):
        err = grad_check(lambda x: float(x[0] ** 2), lambda x: 2.0 * x, [1.0])
        assert err < 1e-8

    def test_constant_function(self):
        err = grad_check(lambda x: 3.5, lambda x: np.zeros_like(x), [0.3, -2.0])
        assert err < 1e-10

    def test_smooth_l1_gradient(self):
        rng = np.random.default_rng(57)
        worst = 0.0
        gt = rng.normal(size=4)
        for _ in range(100):
            pred = gt + rng.normal(size=4)
            while np.any(np.abs(np.abs(pred - gt) - DEFAULT_BETA) < 1e-3):
                pred = gt + rng.normal(size=4)
            worst = max(worst, grad_check(
                lambda p: smooth_l1(p, gt), lambda p: smooth_l1_grad(p, gt), pred))
        assert worst < 1e-5

    def test_bce_gradient(self):
        rng = np.random.default_rng(58)
        worst = 0.0
        for _ in range(100):
            o_hat = int(rng.integers(0, 2))
            point = np.array([float(rng.uniform(0.05, 0.95))])
            worst = max(worst, grad_check(
                lambda v: bce(ObjectnessSample(float(v[0]), o_hat)),
                lambda v: np.array([bce_grad(ObjectnessSample(float(v[0]), o_hat))]),
                point))
        assert worst < 1e-5

    def test_cross_entropy_gradient(self):
        rng = np.random.default_rng(59)
        cap = -math.log(1e-7)
        worst = 0.0
        for _ in range(100):
            c = int(rng.integers(2, 10))
            label = int(rng.integers(0, c))
            logits = rng.normal(scale=3.0, size=c)
            while cross_entropy(logits, label) >= cap - 1e-3:
                logits = rng.normal(scale=3.0, size=c)
            worst = max(worst, grad_check(
                lambda z: cross_entropy(z, label),
                lambda z: cross_entropy_grad(z, label),
                logits))
        assert worst < 1e-5

    def test_triplet_gradient(self):
        rng = np.random.default_rng(60)
        worst = 0.0
        for _ in range(30):
            batch = _random_triplet_batch(rng)
            shape = batch.features.shape
            labels = batch.labels
            worst = max(worst, grad_check(
                lambda f: batch_hard_triplet(LabeledBatch(f.reshape(shape), labels)),
                lambda f: batch_hard_triplet_grad(LabeledBatch(f.reshape(shape), labels)).reshape(-1),
                batch.features.reshape(-1)))
        assert worst < 1e-5


class TestSelfCheck:
    def test_fresh_build_passes(self):
        report = run_self_check(seed=0, gradient_points=25, triplet_batches=10)
        assert report.passed
        assert report.max_gradient_error < 1e-5
        assert len(report.lines()) == len(report.checks)

    def test_injected_wrong_gradient_fails(self, monkeypatch):
        def wrong_grad(pred, gt, beta=DEFAULT_BETA):
            return smooth_l1_grad(pred, gt, beta) * 1.5

        monkeypatch.setattr(biomeval.losses, "smooth_l1_grad", wrong_grad)
        report = run_self_check(seed=0, gradient_points=10, triplet_batches=2)
        assert not report.passed
        failing = {c.name for c in report.checks if not c.passed}
        assert "smooth_l1 gradient" in failing
