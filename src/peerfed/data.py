"""Deterministic synthetic segmentation data with a cohort covariate.

Each image is a field of concentric regions around a jittered center.
Region radii and per-region intensity drift smoothly with the image's
cohort value (0..100), so partitioning a dataset by cohort range yields
clients with genuinely shifted distributions. Per-pixel features are
(noisy intensity, x, y, distractor noise), all scaled by a single factor
so the classifier's learning budget matches the feature magnitudes.

A dataset is drawn in one batch. Each image draws its center jitter and
noise from its own seeded stream, then the pixel arithmetic runs once
over all images, element by element as for a single image, so the bytes
are those of the per-image generator of version 0.6.0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seeding import derive_seed

FEATURE_CHANNELS = 4

# Fraction by which cohort 0..100 rescales region radii at cohort_shift=1.
_RADIUS_SWING = 0.3
_CENTER_JITTER = 0.1
_OUTER_RADIUS = 0.95


@dataclass
class SegImage:
    """One labeled image: flat per-pixel features plus its cohort value."""

    height: int
    width: int
    features: np.ndarray  # (height*width, FEATURE_CHANNELS) float64
    labels: np.ndarray  # (height*width,) int64
    cohort: float

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        n = self.height * self.width
        if self.features.shape != (n, FEATURE_CHANNELS):
            raise ValueError(
                f"features shape {self.features.shape} does not match "
                f"{n}x{FEATURE_CHANNELS} for a {self.height}x{self.width} image"
            )
        if self.labels.shape != (n,):
            raise ValueError(f"labels shape {self.labels.shape} does not match {n} pixels")
        if not 0.0 <= self.cohort <= 100.0:
            raise ValueError(f"cohort must be in [0, 100], got {self.cohort}")


@dataclass
class DatasetShard:
    """One client's local training data."""

    client_index: int
    images: list[SegImage]

    def __post_init__(self) -> None:
        if len(self.images) == 0:
            raise ValueError(f"shard for client {self.client_index} is empty")

    @property
    def sample_count(self) -> int:
        return len(self.images)


@dataclass(frozen=True)
class GenConfig:
    """Knobs for the synthetic generator."""

    num_train: int = 20
    num_test: int = 10
    height: int = 32
    width: int = 32
    num_classes: int = 4
    noise_std: float = 0.1
    cohort_shift: float = 1.0
    feature_scale: float = 0.5

    def __post_init__(self) -> None:
        if self.num_train < 1 or self.num_test < 1:
            raise ValueError("num_train and num_test must both be >= 1")
        if self.height < 4 or self.width < 4:
            raise ValueError("image size must be at least 4x4")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.noise_std < 0:
            raise ValueError(f"noise_std must be >= 0, got {self.noise_std}")
        if not 0.0 <= self.cohort_shift <= 1.9:
            # Above ~1.9 the per-class intensity bands start to overlap
            # across cohorts and the noiseless task stops being separable.
            raise ValueError(f"cohort_shift must be in [0, 1.9], got {self.cohort_shift}")
        if self.feature_scale <= 0:
            raise ValueError(f"feature_scale must be > 0, got {self.feature_scale}")


@dataclass(frozen=True)
class SplitSpec:
    """How the training images become client shards.

    ``uniform`` deals them out at random in near-equal shards. ``cohort``
    gives client i the images of cohort bucket i: bucket 0 is [0, b0] and
    bucket i is (b[i-1], b[i]] for the boundaries b, which are strictly
    increasing and strictly inside (0, 100). With counts, the data is drawn
    so that bucket i holds counts[i] >= 1 training images; without, it is
    drawn uniformly and every bucket must still catch at least one.
    """

    kind: str = "uniform"
    boundaries: tuple[float, ...] | None = None
    counts: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "cohort"):
            raise ValueError(f"unknown split kind {self.kind!r}")
        if self.kind == "uniform" and (self.boundaries or self.counts):
            raise ValueError("uniform split takes no boundaries or counts")
        if self.kind == "cohort":
            if not self.boundaries:
                raise ValueError("cohort split requires boundaries")
            edges = (0.0, *self.boundaries, 100.0)
            if not all(a < b for a, b in zip(edges, edges[1:])):
                raise ValueError(f"split boundaries {list(self.boundaries)} must be strictly "
                                 "increasing and strictly inside (0, 100)")
            if self.counts is not None and len(self.counts) != len(self.boundaries) + 1:
                raise ValueError(
                    f"need {len(self.boundaries) + 1} counts for "
                    f"{len(self.boundaries)} boundaries"
                )
            if self.counts is not None and min(self.counts) < 1:
                raise ValueError(f"split counts {list(self.counts)} must each be >= 1")


def class_intensity(cfg: GenConfig, labels: np.ndarray, cohorts: np.ndarray) -> np.ndarray:
    """Noise-free centered intensity for each label; cohorts is a column, one row per image."""
    k = cfg.num_classes
    return (labels + 0.5 * cfg.cohort_shift * (cohorts / 100.0)) / k - 0.5


def bayes_predict(cfg: GenConfig, features: np.ndarray) -> np.ndarray:
    """Optimal classifier for noiseless images: invert the intensity band."""
    value = features[:, 0] / cfg.feature_scale + 0.5
    return np.clip(np.floor(value * cfg.num_classes), 0, cfg.num_classes - 1).astype(np.int64)


def _region_radii(cfg: GenConfig, cohorts: np.ndarray) -> np.ndarray:
    """(images, num_classes - 1) outer radii of regions 1.. for a column of cohorts."""
    bases = _OUTER_RADIUS * np.arange(cfg.num_classes - 1, 0, -1) / (cfg.num_classes - 1)
    scale = 1.0 + _RADIUS_SWING * cfg.cohort_shift * (cohorts / 100.0 - 0.5)
    return bases * scale


def _generate(
    cfg: GenConfig, seed: int, cohorts: np.ndarray
) -> tuple[list[SegImage], list[SegImage]]:
    """(train, test) images of the given cohorts, the first num_train of them train."""
    h, w, m = cfg.height, cfg.width, len(cohorts)
    n = h * w
    jitter = np.empty((m, 2))
    noise = np.empty((m, 2 * n))  # intensity noise, then the distractor channel
    for index in range(m):
        rng = np.random.default_rng(derive_seed(seed, "image", index))
        jitter[index] = rng.uniform(-_CENTER_JITTER, _CENTER_JITTER, size=2)
        rng.standard_normal(out=noise[index])

    xs = np.arange(w) / (w - 1)
    ys = np.arange(h) / (h - 1)
    grid_y, grid_x = (g.ravel() for g in np.meshgrid(ys, xs, indexing="ij"))
    dist = 2.0 * np.hypot(grid_x - (0.5 + jitter[:, :1]), grid_y - (0.5 + jitter[:, 1:]))

    radii = _region_radii(cfg, cohorts[:, None])
    labels = np.zeros((m, n), dtype=np.int64)
    for k, radius in enumerate(radii.T, start=1):
        labels[dist <= radius[:, None]] = k

    intensity = class_intensity(cfg, labels, cohorts[:, None]) + cfg.noise_std * noise[:, :n]
    features = np.stack(
        np.broadcast_arrays(intensity, grid_x - 0.5, grid_y - 0.5, noise[:, n:]), axis=2
    )
    features *= cfg.feature_scale
    images = [
        SegImage(height=h, width=w, features=f, labels=l, cohort=float(c))
        for f, l, c in zip(features, labels, cohorts)
    ]
    return images[: cfg.num_train], images[cfg.num_train :]


def generate_dataset(
    cfg: GenConfig, split: SplitSpec, seed: int
) -> tuple[list[SegImage], list[SegImage]]:
    """Generate disjoint train/test image lists, deterministic in cfg, split and seed.

    A split with counts gets split.counts[i] train images in cohort bucket
    i: each bucket's train cohorts are drawn uniformly between its edges,
    then shuffled together. A draw lands outside its bucket only if it
    equals the bucket's lower edge (odds of about 2**-53 for a bucket a few
    units wide), which split_by_cohort then reports. Any other split draws
    its train cohorts uniformly over [0, 100), and so do all test cohorts.
    """
    if split.counts is None:
        rng = np.random.default_rng(derive_seed(seed, "cohorts"))
        train_cohorts = rng.uniform(0.0, 100.0, size=cfg.num_train)
    else:
        if sum(split.counts) != cfg.num_train:
            raise ValueError(f"counts {list(split.counts)} must sum to num_train={cfg.num_train}")
        rng = np.random.default_rng(derive_seed(seed, "cohorts-targeted"))
        edges = (0.0, *split.boundaries, 100.0)
        train_cohorts = np.concatenate(
            [rng.uniform(low, high, size=n) for low, high, n in zip(edges, edges[1:], split.counts)]
        )
        rng.shuffle(train_cohorts)
    test_cohorts = rng.uniform(0.0, 100.0, size=cfg.num_test)
    return _generate(cfg, seed, np.concatenate([train_cohorts, test_cohorts]))


def split_uniform(train: list[SegImage], n_clients: int, seed: int) -> list[DatasetShard]:
    """Randomly partition images into near-equal shards (sizes differ by at most 1).

    A remainder goes to the lowest-index clients, so 20 images over 7
    clients yields sizes [3, 3, 3, 3, 3, 3, 2]. n_clients is at least 1, as
    ExperimentConfig checks; more clients than images leave a shard empty,
    which DatasetShard refuses.
    """
    order = np.random.default_rng(seed).permutation(len(train))
    base, extra = divmod(len(train), n_clients)
    shards = []
    offset = 0
    for i in range(n_clients):
        size = base + (1 if i < extra else 0)
        shards.append(
            DatasetShard(client_index=i, images=[train[j] for j in order[offset : offset + size]])
        )
        offset += size
    return shards


def split_by_cohort(train: list[SegImage], split: SplitSpec) -> list[DatasetShard]:
    """One shard per bucket of a cohort split, shard i holding the images in
    bucket i; ValueError if a bucket holds no image or, where the split has
    counts, other than counts[i] images.
    """
    buckets = np.searchsorted(split.boundaries, [im.cohort for im in train], side="left")
    groups: list[list[SegImage]] = [[] for _ in range(len(split.boundaries) + 1)]
    for image, bucket in zip(train, buckets):
        groups[bucket].append(image)

    edges = [float("-inf"), *split.boundaries, float("inf")]
    for i, group in enumerate(groups):
        if not group:
            raise ValueError(
                f"cohort bucket {i} ({edges[i]}, {edges[i + 1]}] contains no images"
            )
    if split.counts is not None:
        realized = [len(g) for g in groups]
        if realized != list(split.counts):
            raise ValueError(
                f"cohort bucket sizes {realized} do not match expected {list(split.counts)}"
            )
    return [DatasetShard(client_index=i, images=group) for i, group in enumerate(groups)]
