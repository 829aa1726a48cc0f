"""Signal predictors: the regression stage between a patch and its code.

The detection pipeline needs something that maps an image patch to the
code its annotations would encode to, a (blocks, M) measurement array. Two
implementations:

* oracle_predict: the true signal plus seeded per-block Gaussian noise,
  for studying decoder behavior under a controlled error level.
* a small trainable regressor: block-mean downsample to a fixed input
  edge, one tanh hidden layer, linear output, squared-error loss, plain
  mini-batch gradient descent. With mtl_lambda > 0 it also learns
  lambda * cell_count as one extra output, which prediction drops.

Any callable with the predict() signature can replace these.
PredictorParams is the `predictor:` config section.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass

import numpy as np

from .core import fmt_float

__all__ = [
    "PredictorParams",
    "RegressorModel",
    "oracle_predict",
    "downsample_patch",
    "init_model",
    "loss_and_gradients",
    "train_regressor",
    "predict",
    "save_model",
    "load_model",
    "save_training_log",
]

_MODEL_HEADER = struct.Struct("<qqqqqq")
_MODEL_FLOATS = struct.Struct("<dddd")


def oracle_predict(y_true: np.ndarray, sigma_rel: float, seed: int) -> np.ndarray:
    """The true (blocks, M) code corrupted by seeded Gaussian noise, block
    by block.

    Per-block noise standard deviation is sigma_rel * ||block|| / sqrt(M),
    which makes the expected relative error of the whole vector equal to
    sigma_rel. sigma_rel = 0 returns the signal unchanged.
    """
    if sigma_rel < 0:
        raise ValueError("sigma_rel must be >= 0")
    blocks = np.asarray(y_true, dtype=np.float64)
    if blocks.ndim != 2:
        raise ValueError(f"code of shape {blocks.shape} is not a (blocks, M) array")
    rng = np.random.default_rng(seed)
    scale = sigma_rel / math.sqrt(blocks.shape[1])
    # np.linalg.norm of one block is sqrt(block.dot(block)); a row-wise
    # reduction would sum in another order
    norms = np.sqrt([block.dot(block) for block in blocks])
    # one draw fills the blocks in order, the same stream as one draw per block
    return blocks + rng.normal(0.0, scale * norms[:, None], blocks.shape)


@dataclass(frozen=True)
class PredictorParams:
    """The `predictor:` config section: mode "oracle" (oracle_predict with
    relative noise sigma_rel) or "trained", and train_regressor's network and
    schedule; mtl_lambda 0 trains without the count channel."""

    mode: str = "oracle"
    sigma_rel: float = 0.05
    mtl_lambda: float = 0.2
    hidden: int = 64
    epochs: int = 150
    learning_rate: float = 0.05
    batch_size: int = 32
    input_edge: int = 32

    def __post_init__(self):
        if self.mode not in ("oracle", "trained"):
            raise ValueError(f"mode must be oracle or trained, got {self.mode!r}")
        for name in ("sigma_rel", "mtl_lambda"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("hidden", "epochs", "batch_size", "input_edge"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")


@dataclass(frozen=True)
class RegressorModel:
    """One-hidden-layer network plus the label layout, block_count blocks
    of block_size entries, that shapes its raw output back into a
    (block_count, block_size) code.

    The network is trained against labels divided by output_scale (their
    RMS), which keeps one learning rate usable across signal scales;
    prediction multiplies the scale back in.
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    input_edge: int
    block_size: int
    block_count: int
    mtl_lambda: float
    output_scale: float = 1.0
    epochs: int = 0
    learning_rate: float = 0.0
    final_loss: float = math.nan

    def __post_init__(self):
        for name in ("w1", "b1", "w2", "b2"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite weights")
            object.__setattr__(self, name, arr)
        expected = self.block_size * self.block_count + (1 if self.mtl_lambda > 0 else 0)
        if self.w2.shape[1] != expected or self.b2.shape != (expected,):
            raise ValueError(
                f"output layer is {self.w2.shape[1]} wide, label layout wants {expected}"
            )
        if self.w1.shape[0] != self.input_edge**2:
            raise ValueError("w1 rows must equal input_edge**2")

    @property
    def hidden_size(self) -> int:
        return int(self.w1.shape[1])

    @property
    def output_size(self) -> int:
        return int(self.w2.shape[1])


def downsample_patch(patch: np.ndarray, edge: int) -> np.ndarray:
    """Block-mean pool a patch to edge x edge and flatten, centering pixel
    values around mid-gray. Uneven patch sizes split into near-equal blocks."""
    patch = np.asarray(patch, dtype=np.float64)
    if patch.ndim != 2:
        raise ValueError("patch must be 2-D")
    h, w = patch.shape
    if h < edge or w < edge:
        raise ValueError(f"patch {h}x{w} is smaller than the {edge}x{edge} model input")
    if h % edge == 0 and w % edge == 0:
        pooled = patch.reshape(edge, h // edge, edge, w // edge).mean(axis=(1, 3))
    else:
        rows = np.array_split(np.arange(h), edge)
        cols = np.array_split(np.arange(w), edge)
        row_means = np.stack([patch[r].mean(axis=0) for r in rows])
        pooled = np.stack([row_means[:, c].mean(axis=1) for c in cols], axis=1)
    return pooled.ravel() - 0.5


def _initial_weights(rng: np.random.Generator, n_in: int, hidden: int, n_out: int) -> tuple:
    """Scaled Gaussian (w1, b1, w2, b2): w1 is drawn before w2, zero biases."""
    w1 = rng.normal(0.0, 1.0 / math.sqrt(n_in), (n_in, hidden))
    w2 = rng.normal(0.0, 1.0 / math.sqrt(hidden), (hidden, n_out))
    return w1, np.zeros(hidden), w2, np.zeros(n_out)


def init_model(
    input_edge: int,
    hidden: int,
    block_size: int,
    block_count: int,
    mtl_lambda: float,
    seed: int,
) -> RegressorModel:
    """Untrained model with the weights training starts from."""
    n_out = block_size * block_count + (1 if mtl_lambda > 0 else 0)
    rng = np.random.default_rng(seed)
    return RegressorModel(
        *_initial_weights(rng, input_edge**2, hidden, n_out),
        input_edge=input_edge,
        block_size=block_size,
        block_count=block_count,
        mtl_lambda=mtl_lambda,
    )


def _forward(w1, b1, w2, b2, x):
    hidden = np.tanh(x @ w1 + b1)
    return hidden, hidden @ w2 + b2


def loss_and_gradients(w1, b1, w2, b2, x_batch, y_batch):
    """Mean squared-error loss over the batch and its analytic gradients.

    loss = 0.5 * mean_i ||out_i - label_i||^2; returns (loss, (gw1, gb1,
    gw2, gb2)).
    """
    hidden, out = _forward(w1, b1, w2, b2, x_batch)
    diff = out - y_batch
    batch = x_batch.shape[0]
    loss = 0.5 * float(np.sum(diff**2)) / batch
    d_out = diff / batch
    gw2 = hidden.T @ d_out
    gb2 = d_out.sum(axis=0)
    d_hidden = (d_out @ w2.T) * (1.0 - hidden**2)
    gw1 = x_batch.T @ d_hidden
    gb1 = d_hidden.sum(axis=0)
    return loss, (gw1, gb1, gw2, gb2)


def train_regressor(patches, codes, counts, params: PredictorParams, seed: int) -> tuple:
    """Mini-batch gradient descent on squared error, with params' hidden,
    epochs, learning_rate, batch_size, input_edge and mtl_lambda.

    patches are the training views' pixel arrays, codes their codes as one
    (n, block_count, block_size) array and counts their cell counts. A
    view's label is its code's blocks end to end, followed by
    mtl_lambda * count only when mtl_lambda > 0.

    Returns (model, per-epoch mean losses). Deterministic for a fixed seed:
    initialization and epoch shuffles come from one generator. Raises
    ValueError at the end of the first epoch whose mean loss is not finite;
    numpy's overflow warnings on the way there are silenced.
    """
    codes = np.asarray(codes, dtype=np.float64)
    if len(codes) == 0:
        raise ValueError("need at least one training example")
    if codes.ndim != 3 or len(patches) != len(codes) or len(counts) != len(codes):
        raise ValueError(
            f"{len(patches)} patches, codes of shape {codes.shape} and {len(counts)} counts "
            f"do not describe the same (n, blocks, M) training views"
        )
    n, block_count, block_size = codes.shape
    x = np.stack([downsample_patch(patch, params.input_edge) for patch in patches])
    y = codes.reshape(n, -1)
    if params.mtl_lambda > 0:
        y = np.column_stack([y, params.mtl_lambda * np.asarray(counts, dtype=np.float64)])
    scale = float(np.sqrt(np.mean(y**2)))
    if scale == 0.0:
        scale = 1.0
    y = y / scale

    rng = np.random.default_rng(seed)
    w1, b1, w2, b2 = _initial_weights(rng, params.input_edge**2, params.hidden, y.shape[1])

    losses = []
    rate = params.learning_rate
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, params.epochs + 1):
            order = rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, params.batch_size):
                batch = order[start : start + params.batch_size]
                loss, (gw1, gb1, gw2, gb2) = loss_and_gradients(
                    w1, b1, w2, b2, x[batch], y[batch]
                )
                w1 -= rate * gw1
                b1 -= rate * gb1
                w2 -= rate * gw2
                b2 -= rate * gb2
                epoch_loss += loss * len(batch)
            if not np.isfinite(epoch_loss):
                raise ValueError(
                    f"training diverged: epoch {epoch} of {params.epochs} has a "
                    f"non-finite loss at learning_rate {rate}"
                )
            losses.append(epoch_loss / n)

    model = RegressorModel(
        w1=w1, b1=b1, w2=w2, b2=b2,
        input_edge=params.input_edge,
        block_size=block_size,
        block_count=block_count,
        mtl_lambda=params.mtl_lambda,
        output_scale=scale,
        epochs=params.epochs,
        learning_rate=rate,
        final_loss=losses[-1],
    )
    return model, losses


def predict(model: RegressorModel, patch: np.ndarray) -> np.ndarray:
    """Forward pass, as a (block_count, block_size) code; the outputs past
    the code, the count channel of a model trained with one, are dropped."""
    features = downsample_patch(patch, model.input_edge)
    # an overflowing model is caught where its code is decoded (non-finite
    # prediction), so numpy's warnings would only repeat that
    with np.errstate(over="ignore", invalid="ignore"):
        _, out = _forward(model.w1, model.b1, model.w2, model.b2, features[None, :])
        code = out[0, : model.block_count * model.block_size] * model.output_scale
    return code.reshape(model.block_count, model.block_size)


def save_model(model: RegressorModel, path) -> None:
    """Dimensions header + four training floats + row-major f8 weights."""
    with open(path, "wb") as fh:
        fh.write(
            _MODEL_HEADER.pack(
                model.input_edge,
                model.hidden_size,
                model.output_size,
                model.block_size,
                model.block_count,
                model.epochs,
            )
        )
        fh.write(
            _MODEL_FLOATS.pack(
                model.mtl_lambda, model.output_scale, model.learning_rate, model.final_loss
            )
        )
        for arr in (model.w1, model.b1, model.w2, model.b2):
            fh.write(arr.astype("<f8").tobytes())


def load_model(path) -> RegressorModel:
    with open(path, "rb") as fh:
        raw = fh.read()
    offset = _MODEL_HEADER.size + _MODEL_FLOATS.size
    if len(raw) < offset:
        raise ValueError(f"{path}: {len(raw)} bytes, shorter than the {offset}-byte header")
    edge, hidden, n_out, block_size, block_count, epochs = _MODEL_HEADER.unpack_from(raw)
    lam, scale, lr, final_loss = _MODEL_FLOATS.unpack_from(raw, _MODEL_HEADER.size)
    if min(edge, hidden, n_out) < 1:
        raise ValueError(f"{path}: model header has non-positive layer sizes")
    n_in = edge * edge
    sizes = [n_in * hidden, hidden, hidden * n_out, n_out]
    expected = offset + 8 * sum(sizes)
    if len(raw) != expected:
        raise ValueError(
            f"{path}: expected {expected} bytes for {sum(sizes)} weights, found {len(raw)}"
        )
    body = np.frombuffer(raw, dtype="<f8", offset=offset)
    parts = np.split(body, np.cumsum(sizes)[:-1])
    return RegressorModel(
        w1=parts[0].reshape(n_in, hidden),
        b1=parts[1],
        w2=parts[2].reshape(hidden, n_out),
        b2=parts[3],
        input_edge=int(edge),
        block_size=int(block_size),
        block_count=int(block_count),
        mtl_lambda=float(lam),
        output_scale=float(scale),
        epochs=int(epochs),
        learning_rate=float(lr),
        final_loss=float(final_loss),
    )


def save_training_log(losses, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["epoch", "loss"])
        for epoch, loss in enumerate(losses, start=1):
            writer.writerow([epoch, fmt_float(loss)])
