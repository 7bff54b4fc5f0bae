import numpy as np
import pytest

from biomeval import (
    FrameWindow,
    ValidationError,
    dataset_balanced_weights,
    frame_window,
    pk_batches,
    sample_media,
)
from biomeval.sampling import GENERATOR_NAME, STANDARD_TEST_STRIDES


class TestDatasetBalancedWeights:
    def test_unbalanced_sizes(self):
        weights = dataset_balanced_weights({"A": ["a1"], "B": ["b1", "b2", "b3"]})
        assert weights.per_dataset == {"A": 0.5, "B": 0.5}
        assert weights.per_item["a1"] == pytest.approx(0.5, abs=1e-15)
        for item in ("b1", "b2", "b3"):
            assert weights.per_item[item] == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_equal_sizes_are_uniform(self):
        weights = dataset_balanced_weights({"A": ["a1", "a2"], "B": ["b1", "b2"]})
        assert all(v == pytest.approx(0.25, abs=1e-15) for v in weights.per_item.values())

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            dataset_balanced_weights({"A": [], "B": ["b1", "b2", "b3"]})

    def test_per_dataset_probabilities_are_equal(self):
        rng = np.random.default_rng(70)
        for _ in range(50):
            datasets = {
                f"d{i}": [f"d{i}m{j}" for j in range(int(rng.integers(1, 40)))]
                for i in range(int(rng.integers(1, 8)))
            }
            weights = dataset_balanced_weights(datasets)
            values = list(weights.per_dataset.values())
            assert max(values) - min(values) < 1e-12
            assert sum(weights.per_item.values()) == pytest.approx(1.0, abs=1e-12)

    def test_many_items_pass_the_sum_check(self):
        # A plain sum of 50,000 weights drifts more than 1e-12 from 1; the exact sum does not.
        datasets = {"indoor": [f"i{j}" for j in range(30_000)], "outdoor": [f"o{j}" for j in range(20_000)]}
        weights = dataset_balanced_weights(datasets)
        assert weights.per_item["i0"] == 1 / 60_000 and weights.per_item["o0"] == 1 / 40_000

    def test_duplicate_item_across_datasets_rejected(self):
        with pytest.raises(ValidationError, match="more than one"):
            dataset_balanced_weights({"A": ["x"], "B": ["x"]})


class TestSampleMedia:
    def test_same_seed_same_sequence(self):
        weights = dataset_balanced_weights({"A": ["a1"], "B": ["b1", "b2", "b3"]})
        first = sample_media(weights, 100, seed=123)
        second = sample_media(weights, 100, seed=123)
        assert first == second
        assert first != sample_media(weights, 100, seed=124)

    def test_dataset_frequency(self):
        weights = dataset_balanced_weights({"A": ["a1"], "B": ["b1", "b2", "b3"]})
        draws = sample_media(weights, 10_000, seed=7)
        freq_a = sum(1 for m in draws if m == "a1") / len(draws)
        assert abs(freq_a - 0.5) <= 0.03

    def test_single_item(self):
        weights = dataset_balanced_weights({"A": ["only"]})
        assert sample_media(weights, 5, seed=0) == ["only"] * 5

    def test_law_of_large_numbers(self):
        rng = np.random.default_rng(71)
        datasets = {
            f"d{i}": [f"d{i}m{j}" for j in range(int(rng.integers(1, 30)))] for i in range(4)
        }
        weights = dataset_balanced_weights(datasets)
        draws = sample_media(weights, 100_000, seed=99)
        item_to_tag = {m: tag for tag, items in datasets.items() for m in items}
        p = 1.0 / len(datasets)
        sigma = (p * (1 - p) / len(draws)) ** 0.5
        for tag in datasets:
            freq = sum(1 for m in draws if item_to_tag[m] == tag) / len(draws)
            assert abs(freq - p) <= 4 * sigma

    def test_count_must_be_positive(self):
        weights = dataset_balanced_weights({"A": ["a1"]})
        with pytest.raises(ValidationError):
            sample_media(weights, 0, seed=0)


class TestPkBatches:
    def _index(self, subjects=6, media_per_subject=5):
        return {
            f"s{i}": [f"s{i}m{j}" for j in range(media_per_subject)] for i in range(subjects)
        }

    def test_batch_shape(self):
        plan = pk_batches(self._index(), n=4, k=4, num_batches=20, seed=1)
        assert plan.batch_size == 16
        subject_of = {m: s for s, ms in self._index().items() for m in ms}
        for batch in plan.batches:
            assert len(batch) == 16
            subjects = [subject_of[m] for m in batch]
            assert len(set(subjects)) == 4
            for s in set(subjects):
                assert subjects.count(s) == 4

    def test_with_replacement_fallback(self):
        index = self._index(subjects=4, media_per_subject=5)
        index["s0"] = ["s0m0", "s0m1"]
        plan = pk_batches(index, n=4, k=4, num_batches=10, seed=2)
        for batch in plan.batches:
            short = [m for m in batch if m.startswith("s0m")]
            assert len(short) == 4
            assert set(short) <= {"s0m0", "s0m1"}

    def test_without_replacement_when_enough_media(self):
        plan = pk_batches(self._index(media_per_subject=6), n=3, k=4, num_batches=10, seed=3)
        subject_of = {m: s for s, ms in self._index(media_per_subject=6).items() for m in ms}
        for batch in plan.batches:
            per_subject: dict[str, list[str]] = {}
            for m in batch:
                per_subject.setdefault(subject_of[m], []).append(m)
            for media in per_subject.values():
                assert len(set(media)) == len(media)

    def test_infeasible_subject_count(self):
        with pytest.raises(ValidationError, match="subjects"):
            pk_batches(self._index(subjects=3), n=5, k=2)

    def test_minimum_n_and_k(self):
        with pytest.raises(ValidationError):
            pk_batches(self._index(), n=1, k=4)
        with pytest.raises(ValidationError):
            pk_batches(self._index(), n=4, k=1)

    def test_deterministic_in_seed(self):
        a = pk_batches(self._index(), n=3, k=3, num_batches=7, seed=42)
        b = pk_batches(self._index(), n=3, k=3, num_batches=7, seed=42)
        assert a == b
        assert a != pk_batches(self._index(), n=3, k=3, num_batches=7, seed=43)


class TestFrameWindow:
    def test_test_mode_stride_300(self):
        window = frame_window(900, 300, 5, mode="test")
        assert window.indices == (0, 300, 600)
        assert window.mask == (1, 1, 1)
        assert window.length == 3

    def test_standard_test_strides(self):
        assert STANDARD_TEST_STRIDES == (150, 300)
        window = frame_window(900, 150, 5, mode="test")
        assert window.indices == (0, 150, 300, 450, 600, 750)

    def test_train_padding(self):
        window = frame_window(700, 300, 5, mode="train", seed=0)
        assert window.indices == (0, 300, 600, -1, -1)
        assert window.mask == (1, 1, 1, 0, 0)

    def test_still_image(self):
        window = frame_window(1, 300, 5, mode="train", seed=0)
        assert window.indices == (0, -1, -1, -1, -1)
        assert window.mask == (1, 0, 0, 0, 0)
        assert window.valid_count == 1

    def test_train_consecutive_run(self):
        rng = np.random.default_rng(72)
        for _ in range(100):
            frame_count = int(rng.integers(100, 5000))
            stride = int(rng.integers(1, 400))
            length = int(rng.integers(1, 12))
            seed = int(rng.integers(0, 1_000_000))
            strided = list(range(0, frame_count, stride))
            window = frame_window(frame_count, stride, length, mode="train", seed=seed)
            valid = [i for i in window.indices if i >= 0]
            assert all(i % stride == 0 and i < frame_count for i in valid)
            assert len(valid) == min(length, len(strided))
            if len(strided) > length:
                start = strided.index(valid[0])
                assert valid == strided[start : start + length]

    def test_uniform_selection(self):
        window = frame_window(5000, 1, 5, mode="train", seed=4, selection="uniform")
        valid = [i for i in window.indices if i >= 0]
        assert len(valid) == 5 == len(set(valid))
        assert valid == sorted(valid)
        assert all(0 <= i < 5000 for i in valid)

    def test_deterministic(self):
        a = frame_window(10_000, 7, 9, mode="train", seed=11)
        assert a == frame_window(10_000, 7, 9, mode="train", seed=11)

    def test_window_invariants_enforced(self):
        with pytest.raises(ValidationError):
            FrameWindow(indices=(0, -1, 5), mask=(1, 0, 1), length=3)
        with pytest.raises(ValidationError):
            FrameWindow(indices=(5, 0), mask=(1, 1), length=2)
        with pytest.raises(ValidationError):
            FrameWindow(indices=(0, 5), mask=(1, 0), length=2)

    def test_generator_name(self):
        assert GENERATOR_NAME == "numpy-pcg64"
