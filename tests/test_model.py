"""Model core: init, forward, loss/grad, Adam, fine-tune, schedule, Dice."""

from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import peerfed
from peerfed.model import _BLOCK_ROWS as BLOCK
from peerfed.model import _BLOCK_MAX_TERMS, _TRANSPOSE_MIN_WORK, _row_blocks, _transposes_grad
from peerfed.model import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    ModelSpec,
    ModelWeights,
    adam_step,
    dice_score,
    fine_tune,
    forward,
    init_model,
    loss_and_grad,
    lr_schedule,
    predict,
    _softmax_loss_delta,
    unflatten,
)

SPEC = ModelSpec(input_dim=3, hidden_dims=(5,), num_classes=4)


def toy_shard(n_images: int, pixels_per_image: int, spec: ModelSpec, seed: int):
    """Duck-typed shard: fine_tune only needs .images with features/labels."""
    rng = np.random.default_rng(seed)
    images = [
        SimpleNamespace(
            features=rng.normal(size=(pixels_per_image, spec.input_dim)),
            labels=rng.integers(0, spec.num_classes, size=pixels_per_image),
        )
        for _ in range(n_images)
    ]
    return SimpleNamespace(images=images)


def reference_forward(weights: ModelWeights, pixels: np.ndarray) -> np.ndarray:
    """The allocating forward pass the scratch-buffer version must match bit for bit."""
    x = np.asarray(pixels, dtype=np.float64)
    layers = unflatten(weights.spec, weights.params)
    for w, b in layers[:-1]:
        x = np.maximum(x @ w + b, 0.0)
    w, b = layers[-1]
    return x @ w + b


def reference_loss_and_grad(
    weights: ModelWeights, pixels: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """The allocating loss_and_grad the scratch-buffer version must match bit for bit."""
    layers = unflatten(weights.spec, weights.params)
    n = pixels.shape[0]

    activations = [pixels]
    pre_acts = []
    x = pixels
    for w, b in layers[:-1]:
        z = x @ w + b
        pre_acts.append(z)
        x = np.maximum(z, 0.0)
        activations.append(x)
    w, b = layers[-1]
    logits = x @ w + b

    shift = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shift).sum(axis=1))
    rows = np.arange(n)
    loss = float(np.mean(log_norm - shift[rows, labels]))

    probs = np.exp(shift)
    probs /= probs.sum(axis=1, keepdims=True)
    delta = probs
    delta[rows, labels] -= 1.0
    delta /= n

    grad_chunks: list[np.ndarray] = []
    for i in range(len(layers) - 1, -1, -1):
        w_i, _ = layers[i]
        grad_w = activations[i].T @ delta
        grad_b = delta.sum(axis=0)
        grad_chunks.append(grad_b)
        grad_chunks.append(grad_w.ravel())
        if i > 0:
            delta = (delta @ w_i.T) * (pre_acts[i - 1] > 0.0)
    return loss, np.concatenate(grad_chunks[::-1])


class TestInit:
    def test_same_seed_bitwise_identical(self):
        a = init_model(SPEC, seed=7)
        b = init_model(SPEC, seed=7)
        assert a.params.tobytes() == b.params.tobytes()
        assert a.spec is b.spec is SPEC

    def test_different_seeds_differ(self):
        a = init_model(SPEC, seed=1)
        b = init_model(SPEC, seed=2)
        assert a.params.tobytes() != b.params.tobytes()

    def test_param_count_no_hidden(self):
        spec = ModelSpec(input_dim=6, hidden_dims=(), num_classes=3)
        assert spec.param_count() == (6 + 1) * 3
        assert init_model(spec, 0).params.shape == (21,)

    def test_biases_start_zero(self):
        spec = ModelSpec(input_dim=2, hidden_dims=(), num_classes=3)
        w = init_model(spec, 0)
        assert np.all(w.params[6:] == 0.0)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec(input_dim=0, num_classes=4)
        with pytest.raises(ValueError):
            ModelSpec(input_dim=3, num_classes=1)
        with pytest.raises(ValueError):
            ModelSpec(input_dim=3, hidden_dims=(0,), num_classes=3)

    @pytest.mark.parametrize(
        "args",
        [
            (4, (2.7,)),
            (True, (8,)),
            (4.5, (8,)),
            (4, (8, False)),
            (4, (8,), 4.0),
            (4, (8,), True),
            ("4", (8,)),
            (4, ("8",)),
        ],
    )
    def test_non_int_dims_rejected(self, args):
        with pytest.raises(ValueError, match="must be an int"):
            ModelSpec(*args)


class TestForward:
    def test_zero_weights_zero_logits(self):
        w = ModelWeights(SPEC, np.zeros(SPEC.param_count()))
        logits = forward(w, np.random.default_rng(0).normal(size=(9, 3)))
        assert np.all(logits == 0.0)

    def test_single_affine_layer_hand_computed(self):
        # One linear layer, weights set by hand; expected logits evaluated
        # on paper: logits_j = sum_i x_i W[i, j] + b_j.
        spec = ModelSpec(input_dim=2, hidden_dims=(), num_classes=3)
        params = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.5, -0.5, 0.25])
        w = ModelWeights(spec, params)
        logits = forward(w, np.array([[2.0, -1.0]]))
        expected = np.array([[2 * 1 - 4 + 0.5, 2 * 2 - 5 - 0.5, 2 * 3 - 6 + 0.25]])
        np.testing.assert_array_equal(logits, expected)

    def test_rows_independent(self):
        # Row i of a batched forward equals forward of row i alone, up to
        # BLAS kernel-shape rounding in the last ulp.
        w = init_model(SPEC, 3)
        pixels = np.random.default_rng(1).normal(size=(7, 3))
        full = forward(w, pixels)
        for i in range(7):
            np.testing.assert_allclose(
                full[i], forward(w, pixels[i : i + 1])[0], rtol=1e-12, atol=1e-15
            )

    def test_shape_mismatch_rejected(self):
        w = init_model(SPEC, 0)
        with pytest.raises(ValueError):
            forward(w, np.zeros((4, 2)))

    def test_one_column_pixels_rejected_by_a_folded_first_layer(self):
        # The [8] layer over 4 inputs runs as [x, 1] @ [[W], [b]], whose copy
        # of x into the 4 input columns would broadcast a single column.
        spec = ModelSpec(input_dim=4, hidden_dims=(8,), num_classes=4)
        with pytest.raises(ValueError, match=r"pixels must have shape \(n, 4\), got \(5, 1\)"):
            forward(init_model(spec, 0), np.ones((5, 1)))


class TestModelWeights:
    @pytest.mark.parametrize("shape", [(SPEC.param_count() - 1,), (SPEC.param_count() + 1,),
                                       (1, SPEC.param_count()), ()])
    def test_params_that_do_not_fit_the_spec_rejected(self, shape):
        with pytest.raises(ValueError, match=r"params of shape .* do not fit .*hidden_dims=\(5,\)"
                                             rf".* of {SPEC.param_count()} params"):
            ModelWeights(SPEC, np.zeros(shape))

    def test_params_become_a_float64_vector(self):
        w = ModelWeights(SPEC, [0] * SPEC.param_count())
        assert w.params.dtype == np.float64 and w.params.shape == (SPEC.param_count(),)
        assert w.copy().spec is SPEC


class TestLossAndGrad:
    def test_uniform_logits_loss_is_log_classes(self):
        w = ModelWeights(SPEC, np.zeros(SPEC.param_count()))
        pixels = np.random.default_rng(0).normal(size=(11, 3))
        loss, _ = loss_and_grad(w, pixels, np.zeros(11, dtype=int))
        assert loss == pytest.approx(math.log(4), rel=1e-12)

    def test_confident_correct_logits_loss_near_zero(self):
        spec = ModelSpec(input_dim=1, hidden_dims=(), num_classes=3)
        params = np.zeros(spec.param_count())
        params[3] = 100.0  # bias of class 0
        w = ModelWeights(spec, params)
        loss, _ = loss_and_grad(w, np.ones((5, 1)), np.zeros(5, dtype=int))
        assert 0.0 <= loss < 1e-8

    def test_empty_batch_rejected(self):
        w = init_model(SPEC, 0)
        with pytest.raises(ValueError):
            loss_and_grad(w, np.zeros((0, 3)), np.zeros(0, dtype=int))

    @pytest.mark.parametrize("bad_label", [-1, 4])
    def test_labels_out_of_range_rejected(self, bad_label):
        # -1 would otherwise pick the last class's logit.
        with pytest.raises(ValueError, match="labels out of range"):
            loss_and_grad(init_model(SPEC, 0), np.zeros((3, 3)), [0, bad_label, 2])

    def test_gradient_matches_central_differences(self):
        # Independent oracle: central finite differences at h=1e-5.
        spec = ModelSpec(input_dim=4, hidden_dims=(6,), num_classes=3)
        rng = np.random.default_rng(42)
        w = init_model(spec, 5)
        pixels, labels = rng.normal(size=(12, 4)), rng.integers(0, 3, size=12)
        _, grad = loss_and_grad(w, pixels, labels)

        h = 1e-5
        fd = np.zeros_like(grad)
        for i in range(w.params.shape[0]):
            up = w.params.copy()
            up[i] += h
            down = w.params.copy()
            down[i] -= h
            loss_up, _ = loss_and_grad(ModelWeights(w.spec, up), pixels, labels)
            loss_down, _ = loss_and_grad(ModelWeights(w.spec, down), pixels, labels)
            fd[i] = (loss_up - loss_down) / (2 * h)
        rel = np.abs(grad - fd) / np.maximum.reduce([np.abs(grad), np.abs(fd), np.full_like(fd, 1e-8)])
        assert np.mean(rel < 1e-4) >= 0.99


FAULT_COUNT_SCRIPT = """
import resource
import numpy as np
from peerfed.model import ModelSpec, forward, init_model, loss_and_grad
spec = ModelSpec(4, (512,), 4)
rng = np.random.default_rng(0)
w = init_model(spec, 0)
pixels, labels = rng.normal(size=(1024, 4)), rng.integers(0, 4, size=1024)
loss_and_grad(w, pixels, labels)
forward(w, pixels)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    loss_and_grad(w, pixels, labels)
for _ in range(20):
    forward(w, pixels)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _weights_and_batch(
    spec: ModelSpec, n: int, seed: int
) -> tuple[ModelWeights, np.ndarray, np.ndarray]:
    """Perturbed initial weights, n pixel rows and their labels."""
    rng = np.random.default_rng(seed)
    params = init_model(spec, seed).params + rng.normal(scale=0.2, size=spec.param_count())
    pixels = rng.normal(size=(n, spec.input_dim))
    return ModelWeights(spec, params), pixels, rng.integers(0, spec.num_classes, size=n)


def transpose_edges(spec: ModelSpec) -> list[int]:
    """The row counts on each side of the first that transposes a layer's
    weight gradient, for each layer of spec whose gradient ever is."""
    edges = []
    for fan_in, fan_out in spec.layer_dims():
        first = _TRANSPOSE_MIN_WORK // (fan_in * fan_out) + 1
        if _transposes_grad(first, fan_in, fan_out):
            assert not _transposes_grad(first - 1, fan_in, fan_out)
            edges += [first - 1, first, first + 1]
    return edges


# (input_dim, hidden_dims, num_classes) for the reference-equality test.
REFERENCE_SPECS = [
    (4, (), 4), (4, (512,), 4), (4, (16, 8, 4), 4), (4, (64, 64), 4),
    # Each side of the gates on the first layer's bias fold (an even fan_in
    # of at most 6, a fan_out that is a multiple of 8) and on the transposed
    # weight gradient (fan_out 4 or 8, a fan_in that is a larger multiple of 8).
    (3, (12,), 4), (4, (12,), 4), (8, (16,), 4), (6, (8,), 2),
    (4, (16, 9), 4), (4, (8,), 3), (2, (24, 10), 8),
    # Hidden widths that are not a multiple of 8, which `_row_blocks` runs
    # whole: SkylakeX's small-matrix kernel sums a row block of such a
    # product in another order (both gave other logits and gradients at
    # 1,024 and 2,048 rows while they were blocked).
    (4, (500,), 4), (6, (481,), 6),
]

# A hidden width, drawn half from multiples of 8 (which `_row_blocks` may
# block) and half from the rest (which it runs whole).
HIDDEN_WIDTHS = st.one_of(st.integers(1, 64).map(lambda k: 8 * k),
                          st.integers(1, 520).filter(lambda d: d % 8))
# Row counts: each side of the block edges, and anything up to 2,100.
ROW_COUNTS = st.one_of(st.sampled_from([BLOCK - 1, BLOCK + 1, 2 * BLOCK + 1]),
                       st.integers(1, 2100))


class TestScratchBuffers:
    """forward and loss_and_grad reuse per-thread buffers; results must not show it."""

    # The ids are the ones the first four specs had when hidden_dims was the
    # only parameter.
    @pytest.mark.parametrize(
        "input_dim, hidden_dims, num_classes", REFERENCE_SPECS,
        ids=[f"hidden_dims{i}" for i in range(len(REFERENCE_SPECS))],
    )
    def test_bitwise_equal_to_reference_as_row_counts_change(
        self, input_dim, hidden_dims, num_classes
    ):
        spec = ModelSpec(input_dim, hidden_dims, num_classes)
        earlier = []
        # The last five sit at the row-block edges; BLOCK + 1 and 2 * BLOCK + 1
        # leave a 1-row tail, which must not run as a block of its own, and
        # BLOCK + 2 a 2-row tail, which changes the bits of a 64-term product.
        block_edges = [BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 2, 2 * BLOCK + 1]
        for step, n in enumerate([1024, 64, 1, 1024, 2048, *block_edges, *transpose_edges(spec)]):
            w, pixels, labels = _weights_and_batch(spec, n, seed=step)
            loss, grad = loss_and_grad(w, pixels, labels)
            logits = forward(w, pixels)
            ref_loss, ref_grad = reference_loss_and_grad(w, pixels, labels)
            assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
            assert grad.tobytes() == ref_grad.tobytes()
            assert logits.tobytes() == reference_forward(w, pixels).tobytes()
            earlier.append((grad, grad.tobytes(), logits, logits.tobytes()))
        # Later calls must leave every array an earlier call returned as it was.
        for grad, grad_bytes, logits, logits_bytes in earlier:
            assert grad.tobytes() == grad_bytes and logits.tobytes() == logits_bytes

    @settings(max_examples=60, deadline=None)
    @given(input_dim=st.integers(1, 8),
           hidden_dims=st.lists(HIDDEN_WIDTHS, min_size=1, max_size=3),
           num_classes=st.integers(2, 9), row_counts=st.lists(ROW_COUNTS, min_size=1, max_size=3),
           seed=st.integers(0, 2**16))
    def test_random_specs_equal_the_reference(
        self, input_dim, hidden_dims, num_classes, row_counts, seed
    ):
        spec = ModelSpec(input_dim, tuple(hidden_dims), num_classes)
        for n in row_counts:
            w, pixels, labels = _weights_and_batch(spec, n, seed)
            loss, grad = loss_and_grad(w, pixels, labels)
            ref_loss, ref_grad = reference_loss_and_grad(w, pixels, labels)
            assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
            assert grad.tobytes() == ref_grad.tobytes()
            assert forward(w, pixels).tobytes() == reference_forward(w, pixels).tobytes()

    def test_row_blocks_cover_every_row_once(self):
        for n in range(1, 301):
            for terms, width in itertools.product((1, 4, _BLOCK_MAX_TERMS, _BLOCK_MAX_TERMS + 1),
                                                  (1, 8, 500, 512)):
                blocks = _row_blocks(n, terms, width)
                rows = [range(n)[block] for block in blocks]
                assert sorted(r for block in rows for r in block) == list(range(n))
                assert all(len(block) > 1 for block in rows) or n == 1
                if terms > _BLOCK_MAX_TERMS or width % 8:
                    assert blocks == [slice(0, n)], (n, terms, width)
                else:
                    # Last to first, in full blocks but for the last rows'
                    # (a 1-row tail joins the block before it).
                    assert [block.start for block in rows] == sorted(
                        (block.start for block in rows), reverse=True)
                    assert all(len(block) == BLOCK for block in rows[1:])
                    assert len(rows[0]) <= BLOCK + 1

    def test_transposed_gradient_past_the_small_matrix_bound(self):
        # The [512] model's 512 -> 4 gradient turns at 489 rows; a wider
        # fan_in turns sooner, a narrower one later.
        assert transpose_edges(ModelSpec(4, (512,), 4)) == [488, 489, 490]
        assert not _transposes_grad(244, 1024, 4) and _transposes_grad(245, 1024, 4)
        assert not _transposes_grad(3906, 64, 4) and _transposes_grad(3907, 64, 4)

    def test_overflow_at_a_dead_unit_is_rejected_like_the_reference(self):
        # Hidden unit 1 never fires (weight 0, bias -1), and delta @ w.T is
        # -inf there. Multiplying by the mask gives nan, so the gradient is
        # rejected; selecting 0.0 instead would hand back a finite one.
        spec = ModelSpec(1, (2,), 2)
        params = np.array([1.0, 0.0, 0.0, -1.0, 0.0, 5.0, 1.5e308, -1.5e308, 0.0, 0.0])
        w = ModelWeights(spec, params)
        pixels, labels = np.ones((1, 1)), np.array([0])
        with np.errstate(over="ignore", invalid="ignore"):
            _, want = reference_loss_and_grad(w, pixels, labels)
            assert not np.all(np.isfinite(want))
            with pytest.raises(ValueError, match="non-finite"):
                loss_and_grad(w, pixels, labels)

    def test_fine_tune_with_trailing_partial_batch_matches_reference(self, monkeypatch):
        spec = ModelSpec(4, (16, 8), 4)
        shard = toy_shard(5, 7, spec, seed=3)
        w0 = init_model(spec, 2)
        got = fine_tune(w0, shard, epochs=2, lr=0.01, seed=5, batch_size=3)
        monkeypatch.setattr("peerfed.model.loss_and_grad", reference_loss_and_grad)
        want = fine_tune(w0, shard, epochs=2, lr=0.01, seed=5, batch_size=3)
        assert got.params.tobytes() == want.params.tobytes()

    def test_concurrent_fine_tunes_equal_sequential_ones(self):
        spec = ModelSpec(4, (64, 32), 4)
        jobs = [
            (toy_shard(6, 200, spec, seed=10), init_model(spec, 1), 11),
            (toy_shard(4, 90, spec, seed=20), init_model(spec, 2), 21),
        ]
        sequential = [fine_tune(w, shard, 3, 0.01, seed) for shard, w, seed in jobs]
        concurrent: list = [None, None]

        def run(k: int) -> None:
            shard, w, seed = jobs[k]
            concurrent[k] = fine_tune(w, shard, 3, 0.01, seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got, want in zip(concurrent, sequential):
            assert got.params.tobytes() == want.params.tobytes()

    def test_repeated_calls_take_few_page_faults(self):
        pytest.importorskip("resource")
        if not sys.platform.startswith("linux"):
            pytest.skip("ru_minflt counts minor page faults on Linux")
        # A fresh interpreter: what earlier tests left on the heap decides
        # whether glibc trims it, so in-process counts depend on test order.
        package_root = Path(peerfed.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(package_root), "OPENBLAS_NUM_THREADS": "1"}
        done = subprocess.run(
            [sys.executable, "-c", FAULT_COUNT_SCRIPT],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        # The allocating version took about 1,650 faults per loss_and_grad call.
        assert int(done.stdout) < 2000


def reference_softmax_loss_delta(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """loss_and_grad's softmax block before it worked in place; the
    rewritten one must match it bit for bit."""
    n = logits.shape[0]
    shift = logits - logits.max(axis=1, keepdims=True)
    delta = np.exp(shift)
    norm = delta.sum(axis=1)
    rows = np.arange(n)
    loss = float(np.mean(np.log(norm) - shift[rows, labels]))

    delta /= norm[:, None]
    delta[rows, labels] -= 1.0
    delta /= n
    return loss, delta


def reference_adam_step(
    weights: ModelWeights, grad: np.ndarray, m: np.ndarray, v: np.ndarray, step: int, lr: float
) -> tuple[ModelWeights, np.ndarray, np.ndarray]:
    """adam_step before it worked in two scratch vectors, checks left out;
    the rewritten one must match it bit for bit."""
    m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
    m_hat = m / (1.0 - ADAM_BETA1**step)
    v_hat = v / (1.0 - ADAM_BETA2**step)
    new_params = weights.params - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return ModelWeights(weights.spec, new_params), m, v


class TestRewrittenStep:
    """The in-place softmax and Adam update against their allocating originals."""

    @pytest.mark.parametrize(
        "input_dim, hidden_dims, num_classes", REFERENCE_SPECS,
        ids=[f"spec{i}" for i in range(len(REFERENCE_SPECS))],
    )
    def test_softmax_equals_reference(self, input_dim, hidden_dims, num_classes):
        spec = ModelSpec(input_dim, hidden_dims, num_classes)
        for step, n in enumerate([1, 64, BLOCK + 1, 1024]):
            w, pixels, labels = _weights_and_batch(spec, n, seed=step)
            logits = forward(w, pixels)
            rng = np.random.default_rng(step)
            # Model logits, then ties and signed zeros, then large spreads.
            for case in (logits, np.round(logits) * rng.choice([-0.0, 0.0, 1.0], size=logits.shape),
                         logits * 300.0):
                loss, delta = _softmax_loss_delta(case.copy(), labels)
                want_loss, want_delta = reference_softmax_loss_delta(case, labels)
                assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
                assert delta.tobytes() == want_delta.tobytes()

    @pytest.mark.parametrize(
        "input_dim, hidden_dims, num_classes", REFERENCE_SPECS,
        ids=[f"spec{i}" for i in range(len(REFERENCE_SPECS))],
    )
    def test_adam_step_equals_reference(self, input_dim, hidden_dims, num_classes):
        spec = ModelSpec(input_dim, hidden_dims, num_classes)
        size = spec.param_count()
        rng = np.random.default_rng(size)
        for step in (1, 2, 10, 10_001):
            for lr in (1e-5, 1e-3, 0.5):
                w = ModelWeights(spec, rng.normal(size=size))
                m = rng.normal(scale=0.1, size=size)
                v = rng.exponential(scale=0.01, size=size)
                grad = rng.normal(size=size)
                got_w, got_m, got_v = adam_step(w, grad, m, v, step, lr)
                want_w, want_m, want_v = reference_adam_step(w, grad, m, v, step, lr)
                assert got_w.params.tobytes() == want_w.params.tobytes()
                assert got_m.tobytes() == want_m.tobytes()
                assert got_v.tobytes() == want_v.tobytes()


# Values whose sum overflows to inf, and vectors with an inf or a nan. A
# finiteness check must accept the first, with no overflow warning, and
# refuse the others.
HUGE = np.full(64, 1e308)
SPEC_64 = ModelSpec(1, (), 32)  # 64 params
NON_FINITE = {
    "inf_first": np.r_[np.inf, np.zeros(63)],
    "inf_last": np.r_[np.zeros(63), np.inf],
    "nan": np.r_[np.zeros(20), np.nan, np.zeros(43)],
    "inf_minus_inf": np.r_[np.zeros(31), np.inf, -np.inf, np.zeros(31)],
}


class TestFiniteChecks:
    # One input, two hidden units that both fire and two classes, one
    # pixel of class 1: params are W1, b1, W2 (row per unit), b2.
    SPEC = ModelSpec(1, (2,), 2)
    PIXELS, LABELS = np.ones((1, 1)), np.array([1])

    def test_loss_and_grad_accepts_a_gradient_whose_sum_overflows(self):
        # Tiny activations keep the logits at +-1e8; each unit's delta is
        # 2 * 5e307, so W1's and b1's gradients are 1e308 each.
        params = np.array([1e-300, 1e-300, 0.0, 0.0, 5e307, -5e307, 5e307, -5e307, 0.0, 0.0])
        w = ModelWeights(self.SPEC, params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, grad = loss_and_grad(w, self.PIXELS, self.LABELS)
        with np.errstate(over="ignore"):
            assert np.isinf(grad.sum())
        assert loss == 2e8 and np.all(grad[:4] == 1e308)

    def test_loss_and_grad_rejects_an_inf_and_minus_inf_gradient(self):
        # The units' rows of W2 cancel in the logits (50 and -50), but their
        # deltas overflow to +inf and -inf.
        params = np.array([1.0, 1.0, 0.0, 0.0, 1e308, -1e308, -1e308, 1e308, 50.0, -50.0])
        w = ModelWeights(self.SPEC, params)
        with np.errstate(over="ignore", invalid="ignore"):
            loss, want = reference_loss_and_grad(w, self.PIXELS, self.LABELS)
            assert loss == 100.0 and list(want[:2]) == [np.inf, -np.inf]
            with pytest.raises(ValueError, match="non-finite loss or gradient"):
                loss_and_grad(w, self.PIXELS, self.LABELS)

    def test_adam_step_accepts_a_gradient_and_weights_whose_sums_overflow(self):
        w = ModelWeights(SPEC_64, HUGE.copy())
        # Squaring this gradient overflows in the update itself, which is
        # not the check under test.
        with np.errstate(over="ignore"):
            new_w, _, _ = adam_step(w, HUGE, np.zeros(64), np.zeros(64), 1, 0.001)
        # v overflows to inf, so the step is 0 and the weights stay 1e308.
        assert new_w.params.tobytes() == HUGE.tobytes()

    def test_adam_step_accepts_weights_whose_sum_overflows_without_a_warning(self):
        w = ModelWeights(SPEC_64, HUGE.copy())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            new_w, _, _ = adam_step(w, np.zeros(64), np.zeros(64), np.zeros(64), 1, 0.001)
        assert new_w.params.tobytes() == HUGE.tobytes()

    @pytest.mark.parametrize("case", NON_FINITE)
    def test_adam_step_rejects_a_gradient_with_an_inf_or_nan(self, case):
        grad = NON_FINITE[case]
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="after update"):
            adam_step(ModelWeights(SPEC_64, np.zeros(64)), grad, np.zeros(64), np.zeros(64), 1,
                      0.001)

    def test_adam_step_rejects_weights_that_overflow(self):
        w = ModelWeights(SPEC_64, np.r_[np.zeros(63), -1e308])
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="after update"):
            adam_step(w, np.ones(64), np.zeros(64), np.zeros(64), 1, 1e308)


class TestAdam:
    def test_zero_grad_fixed_point(self):
        w = init_model(SPEC, 0)
        zeros = np.zeros(SPEC.param_count())
        new_w, m, v = adam_step(w, zeros, zeros, zeros, 1, 0.01)
        np.testing.assert_array_equal(new_w.params, w.params)
        assert not m.any() and not v.any()

    def test_pure_function(self):
        rng = np.random.default_rng(2)
        w = init_model(SPEC, 0)
        grad, m = rng.normal(size=SPEC.param_count()), rng.normal(size=SPEC.param_count())
        v = rng.exponential(scale=0.01, size=SPEC.param_count())
        inputs = [w.params, grad, m, v]
        before = [x.tobytes() for x in inputs]
        a = adam_step(w, grad, m, v, 3, 0.003)
        b = adam_step(w, grad, m, v, 3, 0.003)
        assert [x.tobytes() for x in inputs] == before
        assert [a[0].params.tobytes(), a[1].tobytes(), a[2].tobytes()] == \
            [b[0].params.tobytes(), b[1].tobytes(), b[2].tobytes()]
        assert not any(np.shares_memory(out, x)
                       for out in (a[0].params, a[1], a[2]) for x in inputs)

    def test_constant_grad_displacement_approaches_lr(self):
        # Oracle: iterate the update rule itself on one parameter and
        # measure per-step displacement; bias correction drives it to lr.
        lr = 0.01
        w = ModelWeights(ModelSpec(1, (), 2), np.zeros(4))
        m, v = np.zeros(4), np.zeros(4)
        grad = np.full(4, 2.5)
        displacements = []
        for step in range(1, 51):
            new_w, m, v = adam_step(w, grad, m, v, step, lr)
            displacements.append(abs(new_w.params[0] - w.params[0]))
            w = new_w
        assert displacements[-1] == pytest.approx(lr, rel=1e-6)

    def test_nonfinite_grad_rejected(self):
        w = init_model(SPEC, 0)
        grad = np.full(SPEC.param_count(), np.nan)
        with pytest.raises(ValueError):
            adam_step(w, grad, np.zeros_like(grad), np.zeros_like(grad), 1, 0.01)


class TestFineTune:
    def test_steps_count_from_one_with_fresh_moments_each_call(self, monkeypatch):
        calls = []

        def recorded(weights, grad, m, v, step, lr):
            out = adam_step(weights, grad, m, v, step, lr)
            calls.append((step, m, v, out))
            return out

        monkeypatch.setattr("peerfed.model.adam_step", recorded)
        shard = toy_shard(3, 4, SPEC, seed=0)
        w = init_model(SPEC, 0)
        for _ in range(2):
            w = fine_tune(w, shard, epochs=2, lr=0.01, seed=1, batch_size=1)
        assert [step for step, *_ in calls] == [1, 2, 3, 4, 5, 6] * 2
        for k, (step, m, v, _) in enumerate(calls):
            if step == 1:
                assert not m.any() and not v.any()
            else:  # the moments the step before returned
                _, prev_m, prev_v = calls[k - 1][3]
                assert m is prev_m and v is prev_v and m.any() and v.any()

    def test_deterministic(self):
        shard = toy_shard(3, 4, SPEC, seed=0)
        a = fine_tune(init_model(SPEC, 0), shard, 2, 0.01, seed=9)
        b = fine_tune(init_model(SPEC, 0), shard, 2, 0.01, seed=9)
        assert a.params.tobytes() == b.params.tobytes()

    def test_training_reduces_loss_on_separable_shard(self):
        spec = ModelSpec(input_dim=1, hidden_dims=(), num_classes=2)
        rng = np.random.default_rng(3)
        images = []
        for _ in range(4):
            x = np.concatenate([rng.uniform(-1, -0.2, 8), rng.uniform(0.2, 1, 8)])
            y = (x > 0).astype(int)
            images.append(SimpleNamespace(features=x[:, None], labels=y))
        shard = SimpleNamespace(images=images)
        pixels = np.concatenate([im.features for im in images])
        labels = np.concatenate([im.labels for im in images])

        w0 = init_model(spec, 0)
        before, _ = loss_and_grad(w0, pixels, labels)
        w1 = fine_tune(w0, shard, epochs=2, lr=0.05, seed=4, batch_size=1)
        after, _ = loss_and_grad(w1, pixels, labels)
        assert after < before

    def test_empty_shard_rejected(self):
        with pytest.raises(ValueError):
            fine_tune(init_model(SPEC, 0), SimpleNamespace(images=[]), 2, 0.01, 0)

    @pytest.mark.parametrize("epochs, batch_size, match", [
        (0, 1, "epochs must be >= 1, got 0"),
        (1, 0, "batch_size must be >= 1, got 0"),
    ])
    def test_no_pass_or_empty_batches_rejected(self, epochs, batch_size, match):
        shard = toy_shard(2, 4, SPEC, seed=0)
        with pytest.raises(ValueError, match=match):
            fine_tune(init_model(SPEC, 0), shard, epochs, 0.01, 0, batch_size)


class TestLrSchedule:
    @pytest.mark.parametrize(
        "update_round,expected",
        [(0, 0.001), (3, 0.001), (4, 0.0005), (7, 0.0005), (8, 0.00025), (9, 0.00025)],
    )
    def test_halving_every_four_rounds(self, update_round, expected):
        assert lr_schedule(update_round, 0.001) == pytest.approx(expected, rel=1e-15)

    @given(st.integers(min_value=0, max_value=200))
    def test_non_increasing(self, r):
        assert lr_schedule(r + 1, 0.001) <= lr_schedule(r, 0.001)


class TestDice:
    def test_identical_maps(self):
        labels = np.array([0, 1, 2, 2, 1, 0])
        per_class, mean = dice_score(labels, labels, 3)
        np.testing.assert_array_equal(per_class, [1.0, 1.0, 1.0])
        assert mean == 1.0

    def test_disjoint_masks_zero(self):
        per_class, _ = dice_score(np.array([1, 1, 0, 0]), np.array([0, 0, 1, 1]), 2)
        np.testing.assert_array_equal(per_class, [0.0, 0.0])

    def test_hand_computed_overlap(self):
        # Counted by hand: class 0 has |P|=1, |T|=2, overlap 1; class 1 has
        # |P|=3, |T|=2, overlap 2.
        per_class, mean = dice_score(np.array([0, 1, 1, 1]), np.array([0, 0, 1, 1]), 2)
        assert per_class[0] == pytest.approx(2 / 3)
        assert per_class[1] == pytest.approx(4 / 5)
        assert mean == pytest.approx((2 / 3 + 4 / 5) / 2)

    def test_absent_class_excluded_from_mean(self):
        per_class, mean = dice_score(np.array([0, 0]), np.array([0, 0]), 4)
        assert per_class[0] == 1.0
        assert np.isnan(per_class[1:]).all()
        assert mean == 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dice_score(np.zeros(3, dtype=int), np.zeros(4, dtype=int), 2)

    def test_out_of_range_labels_rejected(self):
        with pytest.raises(ValueError):
            dice_score(np.array([0, 5]), np.array([0, 1]), 2)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(0, 3), min_size=1, max_size=40),
        st.lists(st.integers(0, 3), min_size=1, max_size=40),
    )
    def test_symmetry_and_bounds(self, a, b):
        n = min(len(a), len(b))
        pred = np.array(a[:n])
        truth = np.array(b[:n])
        ab, _ = dice_score(pred, truth, 4)
        ba, _ = dice_score(truth, pred, 4)
        np.testing.assert_array_equal(np.isnan(ab), np.isnan(ba))
        finite = ~np.isnan(ab)
        np.testing.assert_array_equal(ab[finite], ba[finite])
        assert np.all(ab[finite] >= 0.0) and np.all(ab[finite] <= 1.0)


class TestPredict:
    def test_predict_matches_argmax(self):
        w = init_model(SPEC, 11)
        pixels = np.random.default_rng(5).normal(size=(20, 3))
        np.testing.assert_array_equal(
            predict(w, pixels), np.argmax(forward(w, pixels), axis=1)
        )
