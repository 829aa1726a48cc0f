"""Signal predictors: noisy oracle, trainable regressor and its count channel."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from csdetect import predictor
from csdetect.predictor import (
    PredictorParams,
    RegressorModel,
    downsample_patch,
    init_model,
    load_model,
    loss_and_gradients,
    oracle_predict,
    predict,
    save_model,
    save_training_log,
    train_regressor,
)


def _signal(rng, block_size=4, block_count=3):
    return rng.normal(size=(block_count, block_size))


def test_training_label_layout():
    rng = np.random.default_rng(0)
    codes = np.stack([_signal(rng) for _ in range(5)])
    counts = [5, 0, 2, 7, 1]
    patches = [rng.uniform(size=(8, 8)) for _ in range(5)]
    fused = np.column_stack([codes.reshape(5, -1), 0.2 * np.array(counts, dtype=np.float64)])
    for lam, labels in ((0.2, fused), (0.0, codes.reshape(5, -1))):
        params = PredictorParams(epochs=1, learning_rate=0.01, mtl_lambda=lam, hidden=4,
                                 batch_size=2, input_edge=4)
        model, _ = train_regressor(patches, codes, counts, params, 0)
        assert model.w2.shape[1] == labels.shape[1]
        assert (model.block_count, model.block_size) == (3, 4)
        assert model.output_scale == float(np.sqrt(np.mean(labels**2)))


def test_oracle_sigma_zero_is_identity():
    y = _signal(np.random.default_rng(1))
    assert np.array_equal(oracle_predict(y, sigma_rel=0.0, seed=3), y)


def test_oracle_is_seeded():
    y = _signal(np.random.default_rng(2))
    a = oracle_predict(y, sigma_rel=0.1, seed=9)
    b = oracle_predict(y, sigma_rel=0.1, seed=9)
    c = oracle_predict(y, sigma_rel=0.1, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def _oracle_one_block_norm_at_a_time(y_true, sigma_rel, seed):
    """Reference: each block's norm from its own dot product and the noise
    from one normal draw with a per-block scale array."""
    blocks = np.asarray(y_true, dtype=np.float64)
    rng = np.random.default_rng(seed)
    scale = sigma_rel / math.sqrt(blocks.shape[1])
    norms = np.sqrt([block.dot(block) for block in blocks])
    return blocks + rng.normal(0.0, scale * norms[:, None], blocks.shape)


@pytest.mark.parametrize("sigma_rel", [0.0, 0.05, 0.7])
@pytest.mark.parametrize("shape", [(27, 112), (3, 1), (1, 7)])
def test_oracle_matches_the_per_block_formulas(sigma_rel, shape):
    rng = np.random.default_rng(11)
    y = rng.normal(size=shape) * rng.uniform(0.0, 40.0, size=(shape[0], 1))
    y[shape[0] // 2] = 0.0
    for seed in range(4):
        noisy = oracle_predict(y, sigma_rel, seed)
        assert np.array_equal(noisy, _oracle_one_block_norm_at_a_time(y, sigma_rel, seed))
        assert np.array_equal(noisy[shape[0] // 2], np.zeros(shape[1]))  # a zero block stays zero


def test_oracle_noise_level_concentrates():
    rng = np.random.default_rng(3)
    y = _signal(rng, block_size=112, block_count=27)
    errs = [
        np.linalg.norm(oracle_predict(y, 0.05, seed) - y)
        / np.linalg.norm(y)
        for seed in range(100)
    ]
    assert 0.03 <= float(np.mean(errs)) <= 0.07


def test_downsample_identity_and_pooling():
    rng = np.random.default_rng(4)
    patch = rng.uniform(size=(8, 8))
    flat = downsample_patch(patch, 8)
    assert np.allclose(flat, patch.ravel() - 0.5)
    pooled = downsample_patch(patch, 4)
    assert pooled[0] == pytest.approx(patch[:2, :2].mean() - 0.5)
    ragged = downsample_patch(rng.uniform(size=(10, 10)), 4)
    assert ragged.size == 16
    with pytest.raises(ValueError):
        downsample_patch(patch, 9)


@pytest.mark.parametrize("side, edge", [(16, 4), (260, 32)])
def test_downsample_reads_uint8_levels_as_level_over_255(side, edge):
    levels = np.random.default_rng(side).integers(0, 256, (side, side), dtype=np.uint8)
    features = downsample_patch(levels, edge)
    assert np.array_equal(features, downsample_patch(levels.astype(np.float64) / 255.0, edge))


def test_model_shape_validation():
    model = init_model(input_edge=4, hidden=6, block_size=3, block_count=2, mtl_lambda=0.2, seed=0)
    assert model.w1.shape == (16, 6)  # input_edge**2 inputs
    assert model.w2.shape[1] == 7  # 6 signal entries + count channel
    no_count = init_model(4, 6, 3, 2, mtl_lambda=0.0, seed=0)
    assert no_count.w2.shape[1] == 6
    with pytest.raises(ValueError, match="non-finite"):
        dataclasses.replace(model, w1=np.full((16, 6), np.nan))
    with pytest.raises(ValueError):
        dataclasses.replace(model, b2=np.zeros(5))


def test_gradients_match_finite_differences_loosely():
    rng = np.random.default_rng(5)
    w1 = rng.normal(size=(9, 4)) * 0.3
    b1 = rng.normal(size=4) * 0.1
    w2 = rng.normal(size=(4, 5)) * 0.3
    b2 = rng.normal(size=5) * 0.1
    x = rng.normal(size=(3, 9))
    y = rng.normal(size=(3, 5))
    _, (gw1, _, _, gb2) = loss_and_gradients(w1, b1, w2, b2, x, y)
    h = 1e-6
    for (arr, grad, idx) in ((w1, gw1, (2, 1)), (b2, gb2, (3,))):
        arr[idx] += h
        up = loss_and_gradients(w1, b1, w2, b2, x, y)[0]
        arr[idx] -= 2 * h
        down = loss_and_gradients(w1, b1, w2, b2, x, y)[0]
        arr[idx] += h
        assert grad[idx] == pytest.approx((up - down) / (2 * h), rel=1e-5)


def test_training_memorizes_one_example():
    rng = np.random.default_rng(6)
    patch = rng.uniform(size=(8, 8))
    label = rng.normal(scale=12.0, size=9)
    code, count = label[:-1].reshape(1, 2, 4), label[-1] / 0.2
    params = PredictorParams(epochs=2000, learning_rate=0.05, mtl_lambda=0.2, hidden=16,
                             batch_size=4, input_edge=8)
    model, losses = train_regressor([patch], code, [count], params, 1)
    assert losses[-1] < 1e-3 * losses[0]
    y_hat = predict(model, patch)
    truth = label[:-1]
    assert np.linalg.norm(y_hat.ravel() - truth) < 1e-2 * np.linalg.norm(truth)


def test_training_is_deterministic():
    rng = np.random.default_rng(7)
    views = [(rng.uniform(size=(8, 8)), rng.normal(size=8)) for _ in range(5)]
    patches = [patch for patch, _ in views]
    codes = np.stack([label.reshape(2, 4) for _, label in views])
    params = PredictorParams(epochs=40, learning_rate=0.02, mtl_lambda=0.0, hidden=8,
                             batch_size=2, input_edge=8)
    a, losses_a = train_regressor(patches, codes, [0] * 5, params, 3)
    b, losses_b = train_regressor(patches, codes, [0] * 5, params, 3)
    assert losses_a == losses_b
    assert np.array_equal(a.w1, b.w1) and np.array_equal(a.w2, b.w2)
    assert np.array_equal(a.b1, b.b1) and np.array_equal(a.b2, b.b2)


def test_training_starts_from_init_model(monkeypatch):
    rng = np.random.default_rng(8)
    patches = [rng.uniform(size=(8, 8)) for _ in range(3)]
    codes = rng.normal(size=(3, 2, 4))
    params = PredictorParams(epochs=2, learning_rate=0.02, mtl_lambda=0.2, hidden=5,
                             batch_size=2, input_edge=8)
    # zero gradients: the trained weights are the ones training started from
    monkeypatch.setattr(predictor, "loss_and_gradients",
                        lambda *args: (1.0, tuple(np.zeros_like(w) for w in args[:4])))
    model, _ = train_regressor(patches, codes, [1, 2, 3], params, 4)
    start = init_model(8, 5, 4, 2, mtl_lambda=0.2, seed=4)
    for name in ("w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(model, name), getattr(start, name))


def test_training_validates_inputs():
    params = PredictorParams(epochs=1, learning_rate=0.1, mtl_lambda=0.0, input_edge=8)
    with pytest.raises(ValueError, match="at least one"):
        train_regressor([], np.zeros((0, 1, 2)), [], params, 0)
    with pytest.raises(ValueError, match="same"):
        train_regressor([np.zeros((8, 8))], np.zeros((1, 3)), [0], params, 0)
    with pytest.raises(ValueError, match="same"):
        train_regressor([np.zeros((8, 8))], np.zeros((2, 1, 3)), [0, 0], params, 0)


@pytest.mark.parametrize("key, value", [
    ("mode", "learned"), ("sigma_rel", -0.1), ("mtl_lambda", -0.2), ("hidden", 0),
    ("epochs", 0), ("learning_rate", 0.0), ("batch_size", 0), ("input_edge", 0),
])
def test_predictor_params_reject_bad_values(key, value):
    with pytest.raises(ValueError, match=key):
        PredictorParams(**{key: value})


@pytest.mark.filterwarnings("error")  # numpy's overflow warnings stay silent
def test_training_stops_at_the_first_non_finite_epoch(monkeypatch):
    rng = np.random.default_rng(10)
    views = [(rng.uniform(size=(8, 8)), rng.normal(size=8)) for _ in range(3)]
    patches = [patch for patch, _ in views]
    codes = np.stack([label.reshape(2, 4) for _, label in views])
    batch_losses = []

    def counted(*args):
        loss, grads = loss_and_gradients(*args)
        batch_losses.append(loss)
        return loss, grads

    monkeypatch.setattr(predictor, "loss_and_gradients", counted)
    params = PredictorParams(epochs=50, learning_rate=1e6, mtl_lambda=0.0, hidden=8,
                             batch_size=2, input_edge=8)
    with pytest.raises(ValueError) as caught:
        train_regressor(patches, codes, [0] * 3, params, 0)
    # two batches per epoch; the epoch holding the first non-finite batch
    # loss is the last one run
    first_bad = next(i for i, loss in enumerate(batch_losses) if not np.isfinite(loss))
    epoch = first_bad // 2 + 1
    assert 1 < epoch < 50
    assert len(batch_losses) == 2 * epoch
    assert str(caught.value) == (
        f"training diverged: epoch {epoch} of 50 has a non-finite loss at learning_rate 1000000.0"
    )


def test_predict_zero_weight_model_gives_zero_signal():
    model = init_model(4, 6, 3, 2, mtl_lambda=0.0, seed=0)
    model = dataclasses.replace(
        model, w1=np.zeros_like(model.w1), w2=np.zeros_like(model.w2)
    )
    y_hat = predict(model, np.full((4, 4), 0.7))
    assert np.array_equal(y_hat, np.zeros((2, 3)))


def test_predict_of_an_overflowing_model_warns_nothing():
    model = init_model(8, 8, 12, 6, mtl_lambda=0.2, seed=0)
    model = dataclasses.replace(model, w2=model.w2 * 1e307, output_scale=1e3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y_hat = predict(model, np.ones((32, 32)))
    assert not np.isfinite(y_hat).any()


def test_predict_shape_and_count_channel():
    patch = np.random.default_rng(8).uniform(size=(4, 4))
    model = init_model(4, 6, 3, 2, mtl_lambda=0.5, seed=2)
    assert predict(model, patch).shape == (2, 3)
    no_count = init_model(4, 6, 3, 2, mtl_lambda=0.0, seed=2)
    assert predict(no_count, patch).shape == (2, 3)


def test_model_file_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    patch = rng.uniform(size=(8, 8))
    label = rng.normal(size=9)
    params = PredictorParams(epochs=5, learning_rate=0.01, mtl_lambda=0.3, hidden=8,
                             batch_size=1, input_edge=8)
    model, _ = train_regressor([patch], label[:-1].reshape(1, 2, 4), [label[-1] / 0.3], params, 4)
    path = tmp_path / "model.bin"
    save_model(model, path)
    loaded = load_model(path)
    for name in ("w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(loaded, name), getattr(model, name))
    assert loaded.input_edge == model.input_edge
    assert loaded.block_size == model.block_size
    assert loaded.block_count == model.block_count
    assert loaded.mtl_lambda == model.mtl_lambda
    assert loaded.output_scale == model.output_scale
    assert loaded.epochs == model.epochs
    assert loaded.learning_rate == model.learning_rate
    assert loaded.final_loss == model.final_loss
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="weights"):
        load_model(path)


def test_training_log_csv(tmp_path):
    path = tmp_path / "log.csv"
    save_training_log([0.5, 0.25, 0.125], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,loss"
    assert lines[1] == "1,0.5"
    assert len(lines) == 4
