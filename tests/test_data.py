"""Synthetic dataset generator and sharding."""

from __future__ import annotations

import hashlib
import itertools
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
    split_by_cohort,
    split_uniform,
)
from peerfed.data import _CENTER_JITTER, _OUTER_RADIUS, _RADIUS_SWING
from peerfed.model import dice_score
from peerfed.seeding import derive_seed

CFG = GenConfig(num_train=20, num_test=10, height=16, width=16, num_classes=4)
SEED = 3

UNIFORM = SplitSpec()
EXP2 = SplitSpec("cohort", (20.0, 30.0, 40.0, 50.0), (5, 9, 2, 1, 3))


def reference_image(cfg, cohort, rng):
    """One image as the per-image generator of version 0.6.0 made it."""
    h, w = cfg.height, cfg.width
    cx = 0.5 + rng.uniform(-_CENTER_JITTER, _CENTER_JITTER)
    cy = 0.5 + rng.uniform(-_CENTER_JITTER, _CENTER_JITTER)

    xs = np.arange(w) / (w - 1)
    ys = np.arange(h) / (h - 1)
    grid_y, grid_x = np.meshgrid(ys, xs, indexing="ij")
    dist = 2.0 * np.hypot(grid_x - cx, grid_y - cy)

    bases = _OUTER_RADIUS * np.arange(cfg.num_classes - 1, 0, -1) / (cfg.num_classes - 1)
    radii = bases * (1.0 + _RADIUS_SWING * cfg.cohort_shift * (cohort / 100.0 - 0.5))
    labels = np.zeros((h, w), dtype=np.int64)
    for k, radius in enumerate(radii, start=1):
        labels[dist <= radius] = k
    labels = labels.ravel()

    intensity = (labels + 0.5 * cfg.cohort_shift * (cohort / 100.0)) / cfg.num_classes - 0.5
    intensity = intensity + cfg.noise_std * rng.standard_normal(h * w)
    features = np.stack(
        [intensity, grid_x.ravel() - 0.5, grid_y.ravel() - 0.5, rng.standard_normal(h * w)],
        axis=1,
    )
    features *= cfg.feature_scale
    return SegImage(height=h, width=w, features=features, labels=labels, cohort=float(cohort))


def reference_dataset(cfg, seed, split):
    """The data of version 0.6.0, one image at a time, as generate_dataset
    draws it for a split without counts or for one with them."""
    if split.counts is None:
        rng = np.random.default_rng(derive_seed(seed, "cohorts"))
        cohorts = rng.uniform(0.0, 100.0, size=cfg.num_train + cfg.num_test)
    else:
        rng = np.random.default_rng(derive_seed(seed, "cohorts-targeted"))
        edges = (0.0, *split.boundaries, 100.0)
        train = np.concatenate(
            [rng.uniform(low, high, size=n) for low, high, n in zip(edges, edges[1:], split.counts)]
        )
        rng.shuffle(train)
        cohorts = np.concatenate([train, rng.uniform(0.0, 100.0, size=cfg.num_test)])
    images = [
        reference_image(cfg, float(cohort), np.random.default_rng(derive_seed(seed, "image", i)))
        for i, cohort in enumerate(cohorts)
    ]
    return images[: cfg.num_train], images[cfg.num_train :]


def dataset_digest(train, test):
    """SHA-256 over every image's cohort, features and labels, in order."""
    h = hashlib.sha256()
    for im in train + test:
        h.update(np.float64(im.cohort).tobytes())
        h.update(im.features.tobytes())
        h.update(im.labels.tobytes())
    return h.hexdigest()


def image_facts(images):
    """Everything an image holds, as bytes where it is an array."""
    return [(im.height, im.width, im.cohort, im.features.tobytes(), im.labels.tobytes())
            for im in images]


class TestGenerate:
    def test_requested_counts(self):
        train, test = generate_dataset(CFG, UNIFORM, SEED)
        assert len(train) == 20
        assert len(test) == 10

    def test_deterministic_bitwise(self):
        a_train, a_test = generate_dataset(CFG, UNIFORM, SEED)
        b_train, b_test = generate_dataset(CFG, UNIFORM, SEED)
        for a, b in zip(a_train + a_test, b_train + b_test):
            assert a.features.tobytes() == b.features.tobytes()
            assert a.labels.tobytes() == b.labels.tobytes()
            assert a.cohort == b.cohort

    def test_byte_identical_across_generations(self):
        a_train, a_test = generate_dataset(CFG, UNIFORM, SEED)
        b_train, b_test = generate_dataset(CFG, UNIFORM, SEED)
        assert image_facts(a_train) == image_facts(b_train)
        assert image_facts(a_test) == image_facts(b_test)

    def test_every_class_present_in_train(self):
        train, _ = generate_dataset(CFG, UNIFORM, SEED)
        seen = np.unique(np.concatenate([im.labels for im in train]))
        np.testing.assert_array_equal(seen, np.arange(CFG.num_classes))

    def test_features_finite_and_shaped(self):
        train, _ = generate_dataset(CFG, UNIFORM, SEED)
        for im in train:
            assert im.features.shape == (16 * 16, FEATURE_CHANNELS)
            assert np.all(np.isfinite(im.features))
            assert im.labels.min() >= 0 and im.labels.max() < CFG.num_classes

    def test_noiseless_task_has_perfect_classifier(self):
        cfg = replace(CFG, noise_std=0.0)
        train, test = generate_dataset(cfg, UNIFORM, SEED)
        for im in train + test:
            _, mean = dice_score(bayes_predict(cfg, im.features), im.labels, cfg.num_classes)
            assert mean == 1.0

    def test_cohorts_in_range(self):
        train, test = generate_dataset(CFG, UNIFORM, SEED)
        for im in train + test:
            assert 0.0 <= im.cohort <= 100.0

    # Recorded with the per-image generator of version 0.6.0.
    @pytest.mark.parametrize("split, digest", [
        (UNIFORM, "9fbcfaa24ac61922527b832cf4f60b4ab9900374918f0b449ae6d141eaba26ad"),
        (EXP2, "b98b7222721b540703852af7964de529e34a8f851ddd6e8c2df11c1f176c481e"),
    ], ids=["readme", "exp2"])
    def test_pinned_bytes(self, split, digest):
        """The README config's data at seed 0, and the exp2 sweep's cohort data."""
        cfg = GenConfig()
        assert dataset_digest(*generate_dataset(cfg, split, 0)) == digest

    @pytest.mark.parametrize("split", [UNIFORM, EXP2], ids=["uniform", "exp2"])
    def test_images_share_no_memory(self, split):
        """Each image owns its arrays: no view of another image's, none aliased."""
        train, test = generate_dataset(CFG, split, SEED)
        arrays = [a for im in train + test for a in (im.features, im.labels)]
        assert all(a.flags.writeable for a in arrays)
        for a, b in itertools.combinations(arrays, 2):
            assert not np.shares_memory(a, b)


@settings(max_examples=25, deadline=None)
@given(
    size=st.tuples(st.integers(4, 12), st.integers(4, 12)),
    num_classes=st.integers(2, 6),
    noise_std=st.sampled_from([0.0]) | st.floats(0.01, 1.0),
    cohort_shift=st.floats(0.0, 1.9),
    feature_scale=st.floats(0.01, 4.0),
    num_train=st.integers(1, 5),
    num_test=st.integers(1, 5),
    counts=st.lists(st.integers(1, 2), min_size=2, max_size=3).filter(lambda c: sum(c) <= 5),
    boundaries=st.lists(st.integers(1, 99), min_size=2, max_size=2, unique=True),
    seed=st.integers(0, 2**40),
)
def test_batch_matches_the_per_image_reference(
        size, num_classes, noise_std, cohort_shift, feature_scale, num_train, num_test, counts,
        boundaries, seed):
    """Every split gives the reference's bytes, every cohort, feature and
    label: a cohort split without counts draws as the uniform split does."""
    cfg = GenConfig(num_train=num_train, num_test=num_test, height=size[0], width=size[1],
                    num_classes=num_classes, noise_std=noise_std, cohort_shift=cohort_shift,
                    feature_scale=feature_scale)
    edges = tuple(float(b) for b in sorted(boundaries)[: len(counts) - 1])
    for split in (UNIFORM, SplitSpec("cohort", edges),
                  SplitSpec("cohort", edges, tuple(counts))):
        if split.counts is not None:
            cfg = replace(cfg, num_train=sum(counts))
        for got, want in zip(generate_dataset(cfg, split, seed),
                             reference_dataset(cfg, seed, split)):
            assert image_facts(got) == image_facts(want)


class TestSplitUniform:
    def test_five_clients_get_four_each(self):
        train, _ = generate_dataset(CFG, UNIFORM, SEED)
        sizes = [s.sample_count for s in split_uniform(train, 5, seed=0)]
        assert sizes == [4, 4, 4, 4, 4]

    def test_seven_clients_remainder_to_low_indices(self):
        train, _ = generate_dataset(CFG, UNIFORM, SEED)
        sizes = [s.sample_count for s in split_uniform(train, 7, seed=0)]
        assert sizes == [3, 3, 3, 3, 3, 3, 2]

    def test_twenty_clients_get_one_each(self):
        train, _ = generate_dataset(CFG, UNIFORM, SEED)
        sizes = [s.sample_count for s in split_uniform(train, 20, seed=0)]
        assert sizes == [1] * 20

    def test_partition(self):
        train, _ = generate_dataset(CFG, UNIFORM, SEED)
        shards = split_uniform(train, 7, seed=5)
        seen = [im for s in shards for im in s.images]
        assert len(seen) == len(train)
        assert {id(im) for im in seen} == {id(im) for im in train}

    def test_too_many_clients_rejected(self):
        train, _ = generate_dataset(CFG, UNIFORM, SEED)
        with pytest.raises(ValueError):
            split_uniform(train, 21, seed=0)

    @pytest.mark.parametrize("n_clients", [0, -1])
    def test_no_clients_rejected(self, n_clients):
        # -1 would otherwise split into no shards at all.
        train, _ = generate_dataset(CFG, UNIFORM, SEED)
        with pytest.raises(ValueError, match="n_clients must be >= 1"):
            split_uniform(train, n_clients, seed=0)

    def test_seeded_permutation(self):
        train, _ = generate_dataset(CFG, UNIFORM, SEED)
        a = split_uniform(train, 5, seed=1)
        b = split_uniform(train, 5, seed=1)
        c = split_uniform(train, 5, seed=2)
        assert [[id(i) for i in s.images] for s in a] == [[id(i) for i in s.images] for s in b]
        assert [[id(i) for i in s.images] for s in a] != [[id(i) for i in s.images] for s in c]


class TestSplitByCohort:
    def test_targeted_generation_hits_exact_counts(self):
        train, test = generate_dataset(CFG, EXP2, SEED)
        assert len(train) == 20 and len(test) == 10
        shards = split_by_cohort(train, EXP2)
        assert [s.sample_count for s in shards] == list(EXP2.counts)

    def test_boundary_above_all_cohorts_leaves_empty_bucket(self):
        train, _ = generate_dataset(CFG, UNIFORM, SEED)
        with pytest.raises(ValueError, match="bucket 1"):
            split_by_cohort([im for im in train if im.cohort <= 50], SplitSpec("cohort", (50.0,)))

    def test_partition_and_cohort_monotonicity(self):
        train, _ = generate_dataset(CFG, EXP2, SEED)
        shards = split_by_cohort(train, SplitSpec("cohort", EXP2.boundaries))
        assert sum(s.sample_count for s in shards) == len(train)
        ids = [id(im) for s in shards for im in s.images]
        assert len(set(ids)) == len(ids)
        for low, high in zip(shards, shards[1:]):
            assert max(im.cohort for im in low.images) < min(im.cohort for im in high.images)

    def test_empty_bucket_error_names_bucket(self):
        train, _ = generate_dataset(CFG, UNIFORM, SEED)
        with pytest.raises(ValueError, match="bucket 0"):
            split_by_cohort([im for im in train if im.cohort > 20],
                            SplitSpec("cohort", (1e-9, 20.0)))

    def test_expected_count_mismatch_rejected(self):
        train, _ = generate_dataset(CFG, EXP2, SEED)
        with pytest.raises(ValueError, match="do not match"):
            split_by_cohort(train, SplitSpec("cohort", EXP2.boundaries, (9, 5, 2, 1, 3)))

    def test_targeted_generation_deterministic(self):
        a_train, a_test = generate_dataset(CFG, EXP2, SEED)
        b_train, b_test = generate_dataset(CFG, EXP2, SEED)
        assert image_facts(a_train) == image_facts(b_train)
        assert image_facts(a_test) == image_facts(b_test)

    def test_counts_must_sum_to_num_train(self):
        with pytest.raises(ValueError, match="num_train=20"):
            generate_dataset(CFG, SplitSpec("cohort", EXP2.boundaries, (5, 9, 2, 1, 4)), SEED)


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
    train, _ = generate_dataset(cfg, split, seed)
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

    @pytest.mark.parametrize("labels, cohort, match", [
        (np.zeros(3, dtype=int), 10.0, "labels shape"),
        (np.zeros((2, 2), dtype=int), 10.0, "labels shape"),
        (np.zeros(4, dtype=int), 100.5, "cohort must be in"),
        (np.zeros(4, dtype=int), -1.0, "cohort must be in"),
    ])
    def test_image_labels_and_cohort_validation(self, labels, cohort, match):
        with pytest.raises(ValueError, match=match):
            SegImage(height=2, width=2, features=np.zeros((4, FEATURE_CHANNELS)),
                     labels=labels, cohort=cohort)

    def test_gen_config_validation(self):
        with pytest.raises(ValueError):
            GenConfig(num_train=0)
        with pytest.raises(ValueError):
            GenConfig(noise_std=-0.1)
        with pytest.raises(ValueError):
            GenConfig(num_classes=1)
