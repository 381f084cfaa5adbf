"""Self-contained per-pixel MLP classifier trained with Adam.

Weights live in a single flat float64 vector so that federation-side
averaging is a plain convex combination. Every output here is a pure
function of the arguments: same inputs, bitwise-same outputs.

Inside, `forward` and `loss_and_grad` run their hidden layers in a
per-thread scratch kept from call to call: one float64 activation buffer
per hidden layer, plus one bool ReLU mask per hidden layer for the
backward pass. Allocating those (rows, width) arrays afresh let the heap
shrink between steps and fault their pages back in on every step.
Nothing a function returns aliases the scratch.

The row-local work of a hidden layer (`a @ W`, `+ b` and the ReLU going
forward; the mask, `delta @ W.T` and `* mask` going back) runs in blocks
of `_BLOCK_ROWS` rows when its product sums few terms per output, so
each (block, width) slice is still in cache when the next op reads it; a
whole (1024, 512) float64 layer is 4 MB. The blocks are walked last to
first, so the whole-row ops that follow (the output layer's `h @ W` after
the forward loop, `x.T @ delta` and `delta.sum(0)` after the backward one)
start on rows that are still cached. Blocking must leave every bit as it
was, which limits it four ways. No block is a single row unless the whole
input is: numpy sends a 1-row matmul through GEMV, whose sums round
differently. A product summing more than `_BLOCK_MAX_TERMS` terms per
output runs whole: OpenBLAS sums long products for a few rows in another
order. So does a product whose output width is not a multiple of 8:
OpenBLAS's SkylakeX small-matrix kernel sums a row block of it in another
order than the whole. And four ops always stay whole, because splitting
them changes bits: the output layer's `h @ W` and the three sums over all
rows, `h.T @ delta`, `x.T @ delta` and `delta.sum(0)`. Within those gates
neither the block size nor the walk order moves a bit, each op being
row-local; the tests hold both functions to an unblocked reference on
random specs.

Two products are rewritten where that keeps every bit. The flat params
hold a layer's W and then its b, so the first layer's, read as one
(fan_in + 1, fan_out) matrix, are already [[W], [b]]: the first hidden
layer multiplies its input with a column of ones appended (a per-thread
scratch) by that view, and the broadcast `+= b` pass goes. And a weight
gradient with a narrow delta is taken as `(delta.T @ h).T` once rows x
fan_in x fan_out passes 100**3: there OpenBLAS leaves its small-matrix
kernel and `h.T @ delta` slows down about 2.5x. Each rewrite keeps the
bits only for some shapes, which `_folds_bias` and `_transposes_grad`
admit; those shape gates were measured on OpenBLAS 0.3.31 under its
SkylakeX, Haswell and Sandybridge kernels, each with 1 to 8 BLAS
threads. The size bound only picks the faster form. The paper's [512]
model takes both (4 -> 512 folded, 512 -> 4 transposed from 489 rows).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# One image per optimizer step: small shards then still get a useful
# number of steps per pass, which the halving learning-rate schedule
# would otherwise starve.
DEFAULT_BATCH_SIZE = 1


@dataclass(frozen=True)
class ModelSpec:
    """Architecture of a fully-connected per-pixel classifier with ReLU hidden layers."""

    input_dim: int
    hidden_dims: tuple[int, ...] = ()
    num_classes: int = 4

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden_dims", tuple(self.hidden_dims))
        for name, value in (
            ("input_dim", self.input_dim),
            ("num_classes", self.num_classes),
            *(("hidden_dims item", d) for d in self.hidden_dims),
        ):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {self.input_dim}")
        if any(d < 1 for d in self.hidden_dims):
            raise ValueError(f"hidden dims must all be >= 1, got {self.hidden_dims}")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")

    def layer_dims(self) -> list[tuple[int, int]]:
        dims = [self.input_dim, *self.hidden_dims, self.num_classes]
        return [(dims[i], dims[i + 1]) for i in range(len(dims) - 1)]

    def param_count(self) -> int:
        return sum((fan_in + 1) * fan_out for fan_in, fan_out in self.layer_dims())


@dataclass
class ModelWeights:
    """Flat parameter vector bound to the spec that shaped it. This is the
    one check that a vector fits its spec: the functions that take weights
    read their shape from weights.spec and trust the length."""

    spec: ModelSpec
    params: np.ndarray

    def __post_init__(self) -> None:
        self.params = np.asarray(self.params, dtype=np.float64)
        if self.params.shape != (self.spec.param_count(),):
            raise ValueError(f"params of shape {self.params.shape} do not fit {self.spec} "
                             f"of {self.spec.param_count()} params")

    def copy(self) -> "ModelWeights":
        return ModelWeights(self.spec, self.params.copy())


def unflatten(spec: ModelSpec, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split a flat vector of spec's param_count() into per-layer (W, b)
    views, W row-major (fan_in, fan_out)."""
    layers = []
    offset = 0
    for fan_in, fan_out in spec.layer_dims():
        w = params[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        b = params[offset : offset + fan_out]
        offset += fan_out
        layers.append((w, b))
    return layers


def init_model(spec: ModelSpec, seed: int) -> ModelWeights:
    """Glorot-uniform weight init (biases zero), deterministic in (spec, seed)."""
    rng = np.random.default_rng(seed)
    chunks = []
    for fan_in, fan_out in spec.layer_dims():
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        chunks.append(rng.uniform(-bound, bound, size=fan_in * fan_out))
        chunks.append(np.zeros(fan_out, dtype=np.float64))
    return ModelWeights(spec, np.concatenate(chunks))


def forward(weights: ModelWeights, pixels: np.ndarray) -> np.ndarray:
    """Logits for each pixel row; shape (n_pixels, num_classes)."""
    x = np.asarray(pixels, dtype=np.float64)
    layers = unflatten(weights.spec, weights.params)
    w, b = layers[-1]
    return _activations(weights.params, layers, x)[-1] @ w + b


_scratch = threading.local()

# Rows per block of the hidden layers' row-local work (module docstring).
# A (64, 512) float64 block is 256 KB, so it stays in a 2 MB L2 cache from
# its matmul through its bias, ReLU, mask and multiply. A 1,024-row
# `loss_and_grad` of the [512] model, blocks walked last to first, took
# 3.57 ms at 16 rows, 3.32 at 32, 3.18 at 64, 3.32 at 128, 3.41 at 256 and
# 3.87 at 1,024 (Intel Xeon VM, OpenBLAS 0.3.31 SkylakeX kernel, one BLAS
# thread, one pinned CPU; median of 3 x 200 calls). In another set of runs
# the same 64-row blocks walked first to last took 3.19 ms against 3.08.
_BLOCK_ROWS = 64

# Longest product, in terms summed per output, that runs in row blocks. On
# OpenBLAS 0.3.31 (SkylakeX kernel), splitting rows changed bits from 16
# terms on for `a @ W` and from 32 for `delta @ W.T` in 9,000 random
# products of up to 2,100 rows. Below that it still changed them where the
# output width is not a multiple of 8 (in 100 of 400 random spec and row
# count pairs at 128-row blocks), which `_row_blocks` therefore runs whole.
_BLOCK_MAX_TERMS = 8


def _folds_bias(fan_in: int, fan_out: int) -> bool:
    """Whether the first hidden layer runs as [x, 1] @ [[W], [b]] (module
    docstring). Measured: an even fan_in of at most 6 and a fan_out that is
    a multiple of 8 (8 to 4,096) kept the bits at every row count tried (1
    to 299, then up to 4,096). An odd fan_in changed 1-row (GEMV) products
    under SkylakeX and Haswell, and fan_in 7 or 8 nearly every odd row
    count under Haswell.
    """
    return fan_in % 2 == 0 and fan_in <= 6 and fan_out % 8 == 0


# The rows x fan_in x fan_out past which `_transposes_grad` admits the
# transposed form: OpenBLAS's small-matrix bound, M x N x K <= 100**3.
_TRANSPOSE_MIN_WORK = 100**3


def _transposes_grad(rows: int, fan_in: int, fan_out: int) -> bool:
    """Whether a layer's weight gradient is taken as `(delta.T @ a).T`
    (module docstring). Measured: a fan_out of 4 or 8 and a fan_in that is
    a larger multiple of 8 (up to 1,024) kept the bits at every row count
    tried (1 to 299, then up to 4,096). Under Haswell with one thread, an
    odd fan_out changed nearly every product over 3 inputs and an odd fan_in
    every product with an even fan_out; with two threads or more, fan_out 2
    from 64 inputs and fan_in 20 or 100 changed products of 1,000 rows or
    more.

    Up to _TRANSPOSE_MIN_WORK the plain `a.T @ delta` is the faster form.
    Past it the plain form steps up about 2.5x and the transposed one does
    not. Measured on an Intel Xeon VM (OpenBLAS 0.3.31, SkylakeX kernel, one
    thread, one pinned CPU; best of 7), plain against transposed: 512 -> 4
    took 95 against 203 us at 488 rows and 255 against 175 us at 489;
    1,024 -> 4 took 79 against 94 us at 244 rows and 217 against 171 us at
    245; 64 -> 4 took 14 against 23 us at 1,024 rows.
    """
    return (rows * fan_in * fan_out > _TRANSPOSE_MIN_WORK and fan_out in (4, 8)
            and fan_in % 8 == 0 and fan_in > fan_out)


def _row_blocks(n: int, terms: int, width: int) -> list[slice]:
    """Row slices covering range(n), last to first, for a product that sums
    `terms` terms into each of `width` outputs per row: one whole slice if
    terms is over _BLOCK_MAX_TERMS or width is not a multiple of 8, else
    blocks of _BLOCK_ROWS rows but for the last rows', none of one row
    unless n is 1 (a 1-row tail joins the block before it).
    """
    if terms > _BLOCK_MAX_TERMS or width % 8:
        return [slice(0, n)]
    starts = list(range(0, n, _BLOCK_ROWS))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(start, stop) for start, stop in zip(starts, [*starts[1:], n])][::-1]


def _scratch_rows(name: str, widths: list[int], n: int, dtype: type) -> list[np.ndarray]:
    """One (n, width) view per width into this thread's scratch buffers `name`.

    The buffers outlive the call: they grow to the most rows seen and are
    replaced only when the widths change.
    """
    buffers = getattr(_scratch, name, [])
    if [buf.shape[1] for buf in buffers] != widths or (buffers and buffers[0].shape[0] < n):
        buffers = [np.empty((n, d), dtype=dtype) for d in widths]
        setattr(_scratch, name, buffers)
    return [buf[:n] for buf in buffers]


def _activations(
    params: np.ndarray, layers: list[tuple[np.ndarray, np.ndarray]], x: np.ndarray
) -> list[np.ndarray]:
    """The rows of x followed by the ReLU output of every hidden layer.

    Each hidden output is a view into this thread's scratch, valid until
    the thread's next forward or loss_and_grad call. Each layer runs in the
    row blocks `_row_blocks` gives for its product (see the module
    docstring); the output layer is left to the caller, whole. `params` is
    the flat vector that `layers` views, read whole for a folded first layer.
    ValueError unless x has one column per input: a folded first layer
    would copy a one-column x into every input column.
    """
    fan_in = layers[0][0].shape[0]
    if x.ndim != 2 or x.shape[1] != fan_in:
        raise ValueError(f"pixels must have shape (n, {fan_in}), got {x.shape}")
    n = x.shape[0]
    hidden = _scratch_rows("hidden", [w.shape[1] for w, _ in layers[:-1]], n, np.float64)
    activations = [x]
    below = x
    for i, ((w, b), h) in enumerate(zip(layers[:-1], hidden)):
        if i == 0 and _folds_bias(*w.shape):
            fan_in, fan_out = w.shape
            [below] = _scratch_rows("biased_input", [fan_in + 1], n, np.float64)
            below[:, :fan_in] = x
            below[:, fan_in] = 1.0
            w, b = params[: (fan_in + 1) * fan_out].reshape(fan_in + 1, fan_out), None
        for block in _row_blocks(n, *w.shape):
            a = np.matmul(below[block], w, out=h[block])
            if b is not None:
                a += b
            np.maximum(a, 0.0, out=a)
        activations.append(h)
        below = h
    return activations


def predict(weights: ModelWeights, pixels: np.ndarray) -> np.ndarray:
    """Argmax class per pixel (ties resolved to the lowest class index)."""
    return np.argmax(forward(weights, pixels), axis=1)


def loss_and_grad(
    weights: ModelWeights, pixels: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy of the pixel rows against their class
    labels, and its gradient (flat, params-aligned)."""
    spec = weights.spec
    x = np.asarray(pixels, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = x.shape[0]
    if n == 0:
        raise ValueError("batch is empty")
    # A negative label would wrap around in the softmax's row lookup.
    if labels.min() < 0 or labels.max() >= spec.num_classes:
        raise ValueError("labels out of range for spec num_classes")

    layers = unflatten(spec, weights.params)
    activations = _activations(weights.params, layers, x)
    w, b = layers[-1]
    loss, delta = _softmax_loss_delta(activations[-1] @ w + b, labels)

    # Each hidden layer's ReLU passed exactly the units whose output is > 0,
    # so that output gives the mask; its buffer then takes the new delta,
    # block by block once the whole-row sums have read it. Multiply by the
    # bool mask, not select with np.where: inf * 0 must stay nan, so a delta
    # that overflowed at a dead unit is still rejected.
    grad = np.empty_like(weights.params)
    grad_layers = unflatten(spec, grad)
    masks = _scratch_rows("mask", [h.shape[1] for h in activations[1:]], n, bool)
    for i in range(len(layers) - 1, -1, -1):
        w_i, _ = layers[i]
        grad_w, grad_b = grad_layers[i]
        a = activations[i]
        if _transposes_grad(n, *w_i.shape):
            grad_w[...] = (delta.T @ a).T
        else:
            np.matmul(a.T, delta, out=grad_w)
        np.sum(delta, axis=0, out=grad_b)
        if i > 0:
            w_t, mask = w_i.T, masks[i - 1]
            for block in _row_blocks(n, *w_t.shape):
                np.greater(a[block], 0.0, out=mask[block])
                np.matmul(delta[block], w_t, out=a[block])
                a[block] *= mask[block]
            delta = a

    if not (np.isfinite(loss) and np.isfinite(grad).all()):
        raise ValueError("non-finite loss or gradient")
    return loss, grad


def _softmax_loss_delta(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy of the logits rows against labels, and its
    gradient with respect to the logits, which it overwrites."""
    n = logits.shape[0]
    # The row max as a running maximum over the class columns: a max is
    # exact in any order, and numpy's max over a short axis is slow.
    top = logits[:, 0].copy()
    for c in range(1, logits.shape[1]):
        np.maximum(top, logits[:, c], out=top)
    shift = np.subtract(logits, top[:, None], out=logits)
    rows = np.arange(n)
    picked = shift[rows, labels]
    delta = np.exp(shift, out=shift)
    norm = delta.sum(axis=1)
    loss = float((np.log(norm) - picked).sum() / n)  # np.mean's sum and division

    delta /= norm[:, None]
    delta[rows, labels] -= 1.0
    delta /= n
    return loss, delta


def adam_step(
    weights: ModelWeights,
    grad: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    step: int,
    lr: float,
) -> tuple[ModelWeights, np.ndarray, np.ndarray]:
    """Bias-corrected Adam update number `step` (from 1) from the moments m
    and v; returns new weights, m and v and leaves its inputs as they were.
    Each textbook expression keeps its order of operations, worked in place
    in two scratch vectors besides the m, v and params it returns. A
    gradient with an inf or a NaN gives NaN weights, which it refuses."""
    term = np.multiply(grad, 1.0 - ADAM_BETA1)
    m = np.multiply(m, ADAM_BETA1)
    m += term  # m = beta1 * m + (1 - beta1) * grad
    np.multiply(grad, 1.0 - ADAM_BETA2, out=term)
    term *= grad
    v = np.multiply(v, ADAM_BETA2)
    v += term  # v = beta2 * v + (1 - beta2) * grad * grad
    update = np.divide(m, 1.0 - ADAM_BETA1**step)  # m_hat
    update *= lr
    np.divide(v, 1.0 - ADAM_BETA2**step, out=term)  # v_hat
    np.sqrt(term, out=term)
    term += ADAM_EPS
    update /= term  # lr * m_hat / (sqrt(v_hat) + eps)
    new_params = np.subtract(weights.params, update)
    if not np.isfinite(new_params).all():
        raise ValueError("non-finite weights after update")
    return ModelWeights(weights.spec, new_params), m, v


def fine_tune(
    weights: ModelWeights,
    shard,
    epochs: int,
    lr: float,
    seed: int,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> ModelWeights:
    """Train for full passes over a shard in seeded-shuffled image mini-batches.

    Optimizer state starts fresh each call and is dropped at its end:
    merged-in weights would make stale moments meaningless. One adam step
    per mini-batch; a trailing partial batch still counts as a step.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    images = shard.images
    if len(images) == 0:
        raise ValueError("shard is empty")

    rng = np.random.default_rng(seed)
    w = weights
    m = np.zeros(weights.params.shape)
    v = np.zeros(weights.params.shape)
    step = 0
    for _ in range(epochs):
        order = rng.permutation(len(images))
        for start in range(0, len(images), batch_size):
            chosen = order[start : start + batch_size]
            pixels = np.concatenate([images[i].features for i in chosen], axis=0)
            labels = np.concatenate([images[i].labels for i in chosen], axis=0)
            _, grad = loss_and_grad(w, pixels, labels)
            step += 1
            w, m, v = adam_step(w, grad, m, v, step, lr)
    return w


def lr_schedule(update_round: int, base_lr: float) -> float:
    """Learning rate for a client's own update round: halved every 4 rounds."""
    return base_lr * 0.5 ** (update_round // 4)


def dice_score(
    pred: np.ndarray,
    truth: np.ndarray,
    num_classes: int,
) -> tuple[np.ndarray, float]:
    """Per-class Dice overlap and its mean over classes present in pred or truth.

    Classes absent from both maps get NaN and are excluded from the mean,
    so small images missing a class are not penalized.
    """
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs truth {truth.shape}")
    pred = pred.ravel()
    truth = truth.ravel()
    for name, arr in (("pred", pred), ("truth", truth)):
        if arr.size and (arr.min() < 0 or arr.max() >= num_classes):
            raise ValueError(f"{name} labels out of range [0, {num_classes})")

    per_class = np.full(num_classes, np.nan, dtype=np.float64)
    for c in range(num_classes):
        p = pred == c
        t = truth == c
        denom = int(p.sum()) + int(t.sum())
        if denom == 0:
            continue
        per_class[c] = 2.0 * int(np.sum(p & t)) / denom
    present = ~np.isnan(per_class)
    mean = float(per_class[present].mean()) if present.any() else float("nan")
    return per_class, mean
