"""Synthetic dataset generator and sharding."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peerfed.data import (
    FEATURE_CHANNELS,
    DatasetShard,
    GenConfig,
    SegImage,
    SplitSpec,
    bayes_predict,
    generate_dataset,
    generate_dataset_for_cohorts,
    split_by_cohort,
    split_uniform,
)
from peerfed.model import dice_score

CFG = GenConfig(num_train=20, num_test=10, height=16, width=16, num_classes=4)
SEED = 3

EXP2 = SplitSpec("cohort", (20.0, 30.0, 40.0, 50.0), (5, 9, 2, 1, 3))


def image_facts(images):
    """Everything an image holds, as bytes where it is an array."""
    return [(im.height, im.width, im.cohort, im.features.tobytes(), im.labels.tobytes())
            for im in images]


class TestGenerate:
    def test_requested_counts(self):
        train, test = generate_dataset(CFG, SEED)
        assert len(train) == 20
        assert len(test) == 10

    def test_deterministic_bitwise(self):
        a_train, a_test = generate_dataset(CFG, SEED)
        b_train, b_test = generate_dataset(CFG, SEED)
        for a, b in zip(a_train + a_test, b_train + b_test):
            assert a.features.tobytes() == b.features.tobytes()
            assert a.labels.tobytes() == b.labels.tobytes()
            assert a.cohort == b.cohort

    def test_byte_identical_across_generations(self):
        a_train, a_test = generate_dataset(CFG, SEED)
        b_train, b_test = generate_dataset(CFG, SEED)
        assert image_facts(a_train) == image_facts(b_train)
        assert image_facts(a_test) == image_facts(b_test)

    def test_every_class_present_in_train(self):
        train, _ = generate_dataset(CFG, SEED)
        seen = np.unique(np.concatenate([im.labels for im in train]))
        np.testing.assert_array_equal(seen, np.arange(CFG.num_classes))

    def test_features_finite_and_shaped(self):
        train, _ = generate_dataset(CFG, SEED)
        for im in train:
            assert im.features.shape == (16 * 16, FEATURE_CHANNELS)
            assert np.all(np.isfinite(im.features))
            assert im.labels.min() >= 0 and im.labels.max() < CFG.num_classes

    def test_noiseless_task_has_perfect_classifier(self):
        cfg = replace(CFG, noise_std=0.0)
        train, test = generate_dataset(cfg, SEED)
        for im in train + test:
            _, mean = dice_score(bayes_predict(cfg, im.features), im.labels, cfg.num_classes)
            assert mean == 1.0

    def test_cohorts_in_range(self):
        train, test = generate_dataset(CFG, SEED)
        for im in train + test:
            assert 0.0 <= im.cohort <= 100.0


class TestSplitUniform:
    def test_five_clients_get_four_each(self):
        train, _ = generate_dataset(CFG, SEED)
        sizes = [s.sample_count for s in split_uniform(train, 5, seed=0)]
        assert sizes == [4, 4, 4, 4, 4]

    def test_seven_clients_remainder_to_low_indices(self):
        train, _ = generate_dataset(CFG, SEED)
        sizes = [s.sample_count for s in split_uniform(train, 7, seed=0)]
        assert sizes == [3, 3, 3, 3, 3, 3, 2]

    def test_twenty_clients_get_one_each(self):
        train, _ = generate_dataset(CFG, SEED)
        sizes = [s.sample_count for s in split_uniform(train, 20, seed=0)]
        assert sizes == [1] * 20

    def test_partition(self):
        train, _ = generate_dataset(CFG, SEED)
        shards = split_uniform(train, 7, seed=5)
        seen = [im for s in shards for im in s.images]
        assert len(seen) == len(train)
        assert {id(im) for im in seen} == {id(im) for im in train}

    def test_too_many_clients_rejected(self):
        train, _ = generate_dataset(CFG, SEED)
        with pytest.raises(ValueError):
            split_uniform(train, 21, seed=0)

    def test_seeded_permutation(self):
        train, _ = generate_dataset(CFG, SEED)
        a = split_uniform(train, 5, seed=1)
        b = split_uniform(train, 5, seed=1)
        c = split_uniform(train, 5, seed=2)
        assert [[id(i) for i in s.images] for s in a] == [[id(i) for i in s.images] for s in b]
        assert [[id(i) for i in s.images] for s in a] != [[id(i) for i in s.images] for s in c]


class TestSplitByCohort:
    def test_targeted_generation_hits_exact_counts(self):
        train, test = generate_dataset_for_cohorts(CFG, EXP2, SEED)
        assert len(train) == 20 and len(test) == 10
        shards = split_by_cohort(train, EXP2)
        assert [s.sample_count for s in shards] == list(EXP2.counts)

    def test_boundary_above_all_cohorts_leaves_empty_bucket(self):
        train, _ = generate_dataset(CFG, SEED)
        with pytest.raises(ValueError, match="bucket 1"):
            split_by_cohort([im for im in train if im.cohort <= 50], SplitSpec("cohort", (50.0,)))

    def test_partition_and_cohort_monotonicity(self):
        train, _ = generate_dataset_for_cohorts(CFG, EXP2, SEED)
        shards = split_by_cohort(train, SplitSpec("cohort", EXP2.boundaries))
        assert sum(s.sample_count for s in shards) == len(train)
        ids = [id(im) for s in shards for im in s.images]
        assert len(set(ids)) == len(ids)
        for low, high in zip(shards, shards[1:]):
            assert max(im.cohort for im in low.images) < min(im.cohort for im in high.images)

    def test_empty_bucket_error_names_bucket(self):
        train, _ = generate_dataset(CFG, SEED)
        with pytest.raises(ValueError, match="bucket 0"):
            split_by_cohort([im for im in train if im.cohort > 20],
                            SplitSpec("cohort", (1e-9, 20.0)))

    def test_expected_count_mismatch_rejected(self):
        train, _ = generate_dataset_for_cohorts(CFG, EXP2, SEED)
        with pytest.raises(ValueError, match="do not match"):
            split_by_cohort(train, SplitSpec("cohort", EXP2.boundaries, (9, 5, 2, 1, 3)))

    def test_targeted_generation_deterministic(self):
        a_train, a_test = generate_dataset_for_cohorts(CFG, EXP2, SEED)
        b_train, b_test = generate_dataset_for_cohorts(CFG, EXP2, SEED)
        assert image_facts(a_train) == image_facts(b_train)
        assert image_facts(a_test) == image_facts(b_test)

    def test_counts_must_sum_to_num_train(self):
        with pytest.raises(ValueError, match="num_train=20"):
            generate_dataset_for_cohorts(
                CFG, SplitSpec("cohort", EXP2.boundaries, (5, 9, 2, 1, 4)), SEED)


@settings(max_examples=60, deadline=None)
@given(
    boundaries=st.lists(st.integers(1, 399), min_size=1, max_size=5, unique=True).map(
        lambda quarters: tuple(q / 4 for q in sorted(quarters))),
    counts=st.lists(st.integers(1, 6), min_size=6, max_size=6),
    seed=st.integers(0, 2**32),
)
def test_targeted_generation_lands_every_count(boundaries, counts, seed):
    """Each train image drawn for bucket i lands in bucket i, for any cohort
    split whose buckets are at least a quarter wide, on the first draw."""
    split = SplitSpec("cohort", boundaries, tuple(counts[: len(boundaries) + 1]))
    cfg = GenConfig(num_train=sum(split.counts), num_test=1, height=4, width=4)
    train, _ = generate_dataset_for_cohorts(cfg, split, seed)
    buckets = np.searchsorted(boundaries, [im.cohort for im in train], side="left")
    assert np.bincount(buckets, minlength=len(split.counts)).tolist() == list(split.counts)
    assert [s.sample_count for s in split_by_cohort(train, split)] == list(split.counts)


class TestSplitSpec:
    @pytest.mark.parametrize("boundaries, counts, message", [
        ((), None, "requires boundaries"),
        (None, None, "requires boundaries"),
        ((30.0, 30.0), None, "strictly increasing"),
        ((40.0, 30.0), None, "strictly increasing"),
        ((0.0, 30.0), None, "strictly inside"),
        ((30.0, 100.0), None, "strictly inside"),
        ((20.0, 30.0, 40.0, 50.0), (5, 9, 2, 1), "need 5 counts"),
        ((20.0, 30.0, 40.0, 50.0), (5, 9, 2, 0, 4), "must each be >= 1"),
    ])
    def test_bad_cohort_split_rejected(self, boundaries, counts, message):
        with pytest.raises(ValueError, match=message):
            SplitSpec("cohort", boundaries, counts)

    def test_uniform_split_takes_no_boundaries(self):
        with pytest.raises(ValueError, match="uniform split"):
            SplitSpec("uniform", (50.0,))


class TestTypes:
    def test_shard_rejects_empty(self):
        with pytest.raises(ValueError):
            DatasetShard(client_index=0, images=[])

    def test_image_shape_validation(self):
        with pytest.raises(ValueError):
            SegImage(height=2, width=2, features=np.zeros((3, FEATURE_CHANNELS)),
                     labels=np.zeros(4, dtype=int), cohort=10.0)

    def test_gen_config_validation(self):
        with pytest.raises(ValueError):
            GenConfig(num_train=0)
        with pytest.raises(ValueError):
            GenConfig(noise_std=-0.1)
        with pytest.raises(ValueError):
            GenConfig(num_classes=1)
