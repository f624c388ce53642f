"""Forward pass, loss family, analytic gradients, and the training loop.

Gradients of every loss kind are checked against central finite differences
with dropout disabled; the forward pass is checked against a pocket
calculator on a one-neuron network; the optimizer is checked by overfitting
a small batch.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import expit

from paretonbd import network
from paretonbd.data import CalibrationTable
from paretonbd.likelihood import grad_log_likelihood, log_likelihood
from paretonbd.network import (
    LOSS_KINDS,
    RATIO_INTERPRETATIONS,
    FeatureScaler,
    NetworkSpec,
    NetworkWeights,
    TrainingConfig,
    forward,
    init_weights,
    load_model,
    loss,
    loss_gradient,
    predict_params,
    save_model,
    train,
    write_history_csv,
)


def zero_weights(spec):
    dims = spec.layer_dims()
    return NetworkWeights(
        [np.zeros((a, b)) for a, b in zip(dims[:-1], dims[1:])],
        [np.zeros(b) for b in dims[1:]],
    )


def micro_batch(n, seed, input_dim=3):
    """Consistent (features, x, t_x, T, lam, mu) arrays for gradient checks."""
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, input_dim))
    x = rng.integers(0, 8, size=n).astype(float)
    T = rng.uniform(5.0, 60.0, size=n)
    t_x = np.where(x > 0, rng.uniform(0.0, 1.0, size=n) * T, 0.0)
    lam = rng.uniform(0.02, 0.3, size=n)
    mu = rng.uniform(0.01, 0.1, size=n)
    return features, x, t_x, T, lam, mu


# ---------------------------------------------------------------------------
# initialization


def test_init_weights_bounds_and_shapes():
    spec = NetworkSpec(input_dim=3)
    w = init_weights(spec, seed=0)
    dims = spec.layer_dims()
    assert dims == [3, 20, 20, 2]
    for mat, (fan_in, fan_out) in zip(w.weights, zip(dims[:-1], dims[1:])):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        assert mat.shape == (fan_in, fan_out)
        assert np.all(np.abs(mat) < bound)
    assert all(np.all(b == 0.0) for b in w.biases)


def test_init_weights_mean_near_zero():
    spec = NetworkSpec(input_dim=50, hidden_layers=1, hidden_width=200)
    w = init_weights(spec, seed=4)
    entries = w.weights[0].ravel()
    bound = math.sqrt(6.0 / (50 + 200))
    se = bound / math.sqrt(3.0) / math.sqrt(entries.size)
    assert abs(entries.mean()) < 3.0 * se


def test_init_weights_deterministic():
    spec = NetworkSpec(input_dim=3)
    a, b = init_weights(spec, seed=11), init_weights(spec, seed=11)
    assert all(np.array_equal(x, y) for x, y in zip(a.arrays(), b.arrays()))


# ---------------------------------------------------------------------------
# forward pass


def test_forward_zero_weights_gives_unit_rates():
    spec = NetworkSpec(input_dim=3)
    w = zero_weights(spec)
    lam, mu = forward(np.array([0.4, -1.0, 2.2]), w)
    assert (lam, mu) == (1.0, 1.0)


def test_forward_micro_network_pocket_calculator():
    spec = NetworkSpec(input_dim=1, hidden_layers=1, hidden_width=1, dropout_p=0.0)
    w = NetworkWeights([[[0.5]], [[0.3, -0.4]]], [[0.2], [0.1, 0.05]])
    lam, mu = forward(np.array([0.8]), w)
    a = 1.0 / (1.0 + math.exp(-(0.5 * 0.8 + 0.2)))
    assert_allclose(lam, math.exp(0.3 * a + 0.1), rtol=1e-14)
    assert_allclose(mu, math.exp(-0.4 * a + 0.05), rtol=1e-14)


def test_hidden_sigmoid_matches_expit_within_4_ulp():
    z = np.linspace(-700.0, 700.0, 14_001)
    w = NetworkWeights([[[1.0]], [[1.0, 1.0]]], [[0.0], [0.0, 0.0]])
    act = network._forward_cache(z[:, None], w)[1][0][:, 0]
    want = expit(z)
    assert np.all(np.abs(act - want) <= 4 * np.spacing(want))
    assert np.all((act >= 0.0) & (act <= 1.0))


def test_forward_inference_repeatable():
    spec = NetworkSpec(input_dim=3)
    w = init_weights(spec, seed=1)
    feats = np.random.default_rng(0).normal(size=(5, 3))
    assert np.array_equal(forward(feats, w)[0], forward(feats, w)[0])


def test_forward_output_clamped_before_exp():
    spec = NetworkSpec(input_dim=1, hidden_layers=1, hidden_width=1, dropout_p=0.0)
    w = NetworkWeights([[[0.0]], [[100.0, -100.0]]], [[0.0], [0.0, 0.0]])
    lam, mu = forward(np.array([0.0]), w)
    assert lam == math.exp(30.0)
    assert mu == math.exp(-30.0)


def test_dropout_masks_inverted_scaling():
    spec = NetworkSpec(input_dim=3, dropout_p=0.2)
    masks = network._dropout_masks(spec, 5000, np.random.default_rng(6))
    flat = np.concatenate([m.ravel() for m in masks])
    zero_share = np.mean(flat == 0.0)
    assert abs(zero_share - 0.2) < 3.0 * math.sqrt(0.2 * 0.8 / flat.size)
    se = flat.std() / math.sqrt(flat.size)
    assert abs(flat.mean() - 1.0) < 3.0 * se


# ---------------------------------------------------------------------------
# loss values


def test_mse_zero_at_perfect_prediction():
    _, x, t_x, T, lam, mu = micro_batch(8, seed=2)
    assert loss(x, t_x, T, lam, mu, lam, mu, "mse") == 0.0


def test_nll_empty_window_contributes_nothing():
    # the log-likelihood at T=0 is zero for any prediction, up to one ulp
    # of rounding in logaddexp
    got = loss(np.array([0.0]), np.array([0.0]), np.array([0.0]),
               np.array([0.1]), np.array([0.05]), np.array([2.0]),
               np.array([3.0]), "nll")
    assert abs(got) < 1e-15


def test_penalized_nll_decomposes():
    feats, x, t_x, T, lam, mu = micro_batch(10, seed=3)
    rng = np.random.default_rng(4)
    lam_hat = rng.uniform(0.05, 0.5, size=10)
    mu_hat = rng.uniform(0.02, 0.2, size=10)
    for penalty in ("mse", "mae"):
        combined = loss(x, t_x, T, lam, mu, lam_hat, mu_hat, f"nll_{penalty}")
        parts = (loss(x, t_x, T, lam, mu, lam_hat, mu_hat, "nll")
                 + loss(x, t_x, T, lam, mu, lam_hat, mu_hat, penalty))
        assert_allclose(combined, parts, rtol=1e-12)


def test_ratio_loss_at_perfect_prediction():
    _, x, t_x, T, lam, mu = micro_batch(6, seed=5)
    assert loss(x, t_x, T, lam, mu, lam, mu, "ratio") == -1.0
    assert loss(x, t_x, T, lam, mu, lam, mu, "ratio",
                ratio_interpretation="abs_log_ratio") == 0.0


def test_loss_rejects_unknown_kind():
    _, x, t_x, T, lam, mu = micro_batch(4, seed=6)
    with pytest.raises(ValueError, match="unknown loss kind"):
        loss(x, t_x, T, lam, mu, lam, mu, "huber")
    with pytest.raises(ValueError, match="ratio interpretation"):
        loss(x, t_x, T, lam, mu, lam, mu, "ratio",
             ratio_interpretation="geometric")


# ---------------------------------------------------------------------------
# gradients


def finite_difference_grads(feats, x, t_x, T, lam, mu, w, kind, step=1e-5,
                            ratio_interpretation="weighted_nll"):
    def eval_loss():
        lam_hat, mu_hat = forward(feats, w)
        return loss(x, t_x, T, lam, mu, lam_hat, mu_hat, kind,
                    ratio_interpretation)

    fd = []
    for arr in w.arrays():
        g = np.empty_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + step
            hi = eval_loss()
            arr[idx] = orig - step
            lo = eval_loss()
            arr[idx] = orig
            g[idx] = (hi - lo) / (2.0 * step)
        fd.append(g)
    return fd


@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_loss_gradient_matches_finite_differences(kind):
    spec = NetworkSpec(input_dim=3, hidden_layers=2, hidden_width=4, dropout_p=0.0)
    w = init_weights(spec, seed=8)
    feats, x, t_x, T, lam, mu = micro_batch(16, seed=9)
    grad_w, grad_b, _ = loss_gradient(feats, x, t_x, T, lam, mu, w, kind)
    fd = finite_difference_grads(feats, x, t_x, T, lam, mu, w, kind)
    for analytic, numeric in zip(grad_w + grad_b, fd):
        assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-7)


@pytest.mark.parametrize("kind", ["ratio", "ratio_mse", "ratio_mae"])
def test_abs_log_ratio_gradient_matches_finite_differences(kind):
    spec = NetworkSpec(input_dim=3, hidden_layers=2, hidden_width=4, dropout_p=0.0)
    w = init_weights(spec, seed=8)
    feats, x, t_x, T, lam, mu = micro_batch(16, seed=9)
    grad_w, grad_b, _ = loss_gradient(feats, x, t_x, T, lam, mu, w, kind,
                                      ratio_interpretation="abs_log_ratio")
    fd = finite_difference_grads(feats, x, t_x, T, lam, mu, w, kind,
                                 ratio_interpretation="abs_log_ratio")
    for analytic, numeric in zip(grad_w + grad_b, fd):
        assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-7)


def rebuilt_loss_and_output_grad(x, t_x, T, lam, mu, lam_hat, mu_hat, kind,
                                 ratio_interpretation):
    """The loss family written out on the public likelihood functions:
    (pointwise loss, d/d(lam_hat, mu_hat) stacked as a (2, n) array)."""
    ll_hat = log_likelihood(x, t_x, T, lam_hat, mu_hat)
    dll = np.array(grad_log_likelihood(x, t_x, T, lam_hat, mu_hat))
    diff = ll_hat - log_likelihood(x, t_x, T, lam, mu)
    err = np.array([lam_hat - lam, mu_hat - mu])
    terms = {
        "nll": (-ll_hat, -dll),
        "mse": ((mu - mu_hat) ** 2 + (lam - lam_hat) ** 2, 2.0 * err),
        "mae": (np.abs(mu - mu_hat) + np.abs(lam - lam_hat), np.sign(err)),
    }
    if ratio_interpretation == "weighted_nll":
        weight = np.exp(np.minimum(diff, network.RATIO_EXP_CLAMP))
        terms["ratio"] = (-weight, -weight * dll)
    else:
        terms["ratio"] = (np.abs(diff), np.sign(diff) * dll)
    parts = [terms[part] for part in kind.split("_")]
    return sum(p[0] for p in parts), sum(p[1] for p in parts)


@pytest.mark.parametrize("ratio_interpretation", RATIO_INTERPRETATIONS)
@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_loss_kernel_matches_public_likelihood(kind, ratio_interpretation):
    spec = NetworkSpec(input_dim=3, hidden_layers=2, hidden_width=4, dropout_p=0.0)
    w = init_weights(spec, seed=23)
    feats, x, t_x, T, lam, mu = micro_batch(16, seed=24)
    grad_w, grad_b, value = loss_gradient(feats, x, t_x, T, lam, mu, w, kind,
                                          ratio_interpretation)
    lam_hat, mu_hat = forward(feats, w)
    pointwise, d_out = rebuilt_loss_and_output_grad(
        x, t_x, T, lam, mu, lam_hat, mu_hat, kind, ratio_interpretation)
    assert value == np.mean(pointwise)

    # chain rule through the exp output transform, mean over the batch
    d_pre = (d_out * np.array([lam_hat, mu_hat])).T / len(x)
    hidden = network._forward_cache(feats, w)[0][-1]
    assert_allclose(grad_b[-1], d_pre.sum(axis=0), rtol=1e-12)
    assert_allclose(grad_w[-1], hidden.T @ d_pre, rtol=1e-12)


def test_gradient_zero_at_reachable_mse_optimum():
    spec = NetworkSpec(input_dim=3, hidden_layers=2, hidden_width=4, dropout_p=0.0)
    w = init_weights(spec, seed=10)
    feats, x, t_x, T, _, _ = micro_batch(12, seed=11)
    lam_hat, mu_hat = forward(feats, w)
    grad_w, grad_b, value = loss_gradient(feats, x, t_x, T, lam_hat, mu_hat,
                                          w, "mse")
    assert value == 0.0
    assert all(np.all(g == 0.0) for g in grad_w + grad_b)


def test_gradient_linearity_of_penalized_nll():
    spec = NetworkSpec(input_dim=3, hidden_layers=2, hidden_width=4, dropout_p=0.0)
    w = init_weights(spec, seed=12)
    feats, x, t_x, T, lam, mu = micro_batch(16, seed=13)
    combined = loss_gradient(feats, x, t_x, T, lam, mu, w, "nll_mse")
    nll = loss_gradient(feats, x, t_x, T, lam, mu, w, "nll")
    mse = loss_gradient(feats, x, t_x, T, lam, mu, w, "mse")
    for g_c, g_n, g_m in zip(combined[0] + combined[1],
                             nll[0] + nll[1], mse[0] + mse[1]):
        assert_allclose(g_c, g_n + g_m, rtol=1e-12, atol=1e-15)


# ---------------------------------------------------------------------------
# training loop


def training_table(n, seed, input_dim=3):
    feats, x, t_x, T, lam, mu = micro_batch(n, seed, input_dim)
    table = CalibrationTable(
        [f"c{i}" for i in range(n)], x.astype(int), t_x, T,
        np.zeros(n, dtype=int),
    )
    return table, lam, mu


def test_train_zero_epochs_returns_initial_weights():
    table, lam, mu = training_table(40, seed=14)
    cfg = TrainingConfig(epochs=0, batch_size=20, seed=5)
    w, scaler, history = train(table, lam, mu, cfg, "mse")
    init_ss, _ = np.random.SeedSequence(cfg.seed).spawn(2)
    expected = init_weights(NetworkSpec(input_dim=3), init_ss)
    assert history == []
    assert all(np.array_equal(a, b) for a, b in zip(w.arrays(), expected.arrays()))


def test_train_deterministic_given_seed():
    table, lam, mu = training_table(48, seed=15)
    cfg = TrainingConfig(epochs=5, batch_size=16, seed=21)
    w1, _, h1 = train(table, lam, mu, cfg, "nll_mse")
    w2, _, h2 = train(table, lam, mu, cfg, "nll_mse")
    assert h1 == h2
    assert all(np.array_equal(a, b) for a, b in zip(w1.arrays(), w2.arrays()))


def test_train_overfits_small_batch():
    table, lam, mu = training_table(32, seed=16)
    spec = NetworkSpec(input_dim=3, dropout_p=0.0)
    cfg = TrainingConfig(epochs=2000, batch_size=32, learning_rate=1e-3,
                         seed=7, validation_fraction=0.0)
    w, scaler, history = train(table, lam, mu, cfg, "mse", spec=spec)
    first, last = history[0][1], history[-1][1]
    assert last < 0.01 * first


def test_train_validates_inputs():
    table, lam, mu = training_table(10, seed=17)
    with pytest.raises(ValueError, match="full batch"):
        train(table, lam, mu, TrainingConfig(batch_size=64), "mse")
    with pytest.raises(ValueError, match="align"):
        train(table, lam[:-1], mu[:-1], TrainingConfig(batch_size=8), "mse")


@pytest.mark.parametrize("label", ["lam", "mu"])
@pytest.mark.parametrize("bad", [np.nan, 0.0])
@pytest.mark.parametrize("kind", ["mse", "nll_mse"])
def test_train_rejects_nan_or_nonpositive_labels(kind, bad, label):
    table, lam, mu = training_table(64, seed=22)
    labels = {"lam": lam, "mu": mu}
    labels[label][5] = bad
    with pytest.raises(ValueError, match="labels must be positive rates"):
        train(table, labels["lam"], labels["mu"],
              TrainingConfig(epochs=2, batch_size=16), kind)


def test_train_checks_loss_kind_before_training():
    table, lam, mu = training_table(16, seed=25)
    cfg = TrainingConfig(epochs=0, batch_size=8)
    with pytest.raises(ValueError, match="unknown loss kind"):
        train(table, lam, mu, cfg, "huber")
    with pytest.raises(ValueError, match="ratio interpretation"):
        train(table, lam, mu, cfg, "ratio", ratio_interpretation="geometric")


def test_train_early_stopping_restores_best_weights():
    # a deliberately hot learning rate makes validation loss blow up after
    # the first epochs, so the patience rule must fire and the best weights
    # must come back
    table, lam, mu = training_table(60, seed=18)
    cfg = TrainingConfig(epochs=300, batch_size=20, seed=3, learning_rate=0.08,
                         early_stop_patience=4, validation_fraction=0.2)
    w, scaler, history = train(table, lam, mu, cfg, "mse")
    val = [h[2] for h in history]
    assert len(history) < 300
    assert min(val[-4:]) > min(val)

    # the returned weights reproduce the best recorded validation loss
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(2)[1])
    val_idx = rng.permutation(len(table))[: int(np.floor(len(table) * 0.2))]
    feats = scaler.transform(table.features())
    lam_v, mu_v = forward(feats[val_idx], w)
    got = loss(np.asarray(table.x, float)[val_idx], table.t_x[val_idx],
               table.T[val_idx], lam[val_idx], mu[val_idx], lam_v, mu_v, "mse")
    assert got == min(val)


# ---------------------------------------------------------------------------
# prediction and persistence


def test_predict_params_is_stateless_over_permutations():
    table, lam, mu = training_table(30, seed=19)
    cfg = TrainingConfig(epochs=3, batch_size=10, seed=2)
    w, scaler, _ = train(table, lam, mu, cfg, "mse")
    out_lam, out_mu = predict_params(table, w, scaler)
    perm = np.random.default_rng(1).permutation(len(table))
    shuffled = CalibrationTable(
        [table.customer_ids[i] for i in perm], table.x[perm],
        table.t_x[perm], table.T[perm], table.holdout_count[perm],
    )
    s_lam, s_mu = predict_params(shuffled, w, scaler)
    # equal to within a couple of ulp: BLAS may pick a different matmul
    # micro-kernel for a row depending on its position in the batch
    assert_allclose(s_lam, out_lam[perm], rtol=1e-13)
    assert_allclose(s_mu, out_mu[perm], rtol=1e-13)


def test_predict_params_floors_tiny_rates():
    spec = NetworkSpec(input_dim=3, hidden_layers=1, hidden_width=2, dropout_p=0.0)
    w = zero_weights(spec)
    w.biases[-1] = np.array([-100.0, 0.0])
    table, _, _ = training_table(4, seed=20)
    scaler = FeatureScaler(mean=np.zeros(3), std=np.ones(3))
    lam, mu = predict_params(table, w, scaler)
    assert np.all(lam == 1e-10)
    assert np.all(mu == 1.0)


def test_model_round_trip_bit_exact(tmp_path):
    table, lam, mu = training_table(30, seed=21)
    spec = NetworkSpec(input_dim=3, hidden_layers=2, hidden_width=6)
    cfg = TrainingConfig(epochs=4, batch_size=10, seed=13)
    w, scaler, _ = train(table, lam, mu, cfg, "nll", spec=spec)
    path = tmp_path / "model.json"
    save_model(path, spec, w, scaler, meta={"loss": "nll"})
    spec2, w2, scaler2, meta = load_model(path)
    assert spec2 == spec
    assert meta == {"loss": "nll"}
    assert all(np.array_equal(a, b) for a, b in zip(w.arrays(), w2.arrays()))
    assert np.array_equal(scaler.mean, scaler2.mean)
    assert np.array_equal(scaler.std, scaler2.std)


def test_load_model_rejects_unknown_format(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"format": 99}')
    with pytest.raises(ValueError, match="unsupported model format"):
        load_model(path)


def test_history_csv_round_trips_exact_floats(tmp_path):
    history = [(0, 1.2345678901234567, 0.9876543210987654), (1, 0.5, float("nan"))]
    path = tmp_path / "history.csv"
    write_history_csv(path, history)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss"
    e, tr, vl = lines[1].split(",")
    assert float(tr) == history[0][1]
    assert float(vl) == history[0][2]
    assert lines[2].split(",")[2] == "nan"


def test_scaler_rejects_constant_feature():
    with pytest.raises(ValueError, match="constant"):
        FeatureScaler.fit(np.array([[1.0, 2.0], [1.0, 3.0]]))


def test_scaler_standardizes():
    feats = np.array([[1.0, 10.0], [3.0, 30.0]])
    scaler = FeatureScaler.fit(feats)
    got = scaler.transform(feats)
    assert_allclose(got, [[-1.0, -1.0], [1.0, 1.0]], rtol=0)
