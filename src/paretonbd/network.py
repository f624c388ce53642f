"""Small MLP that maps per-customer summaries to positive (lam, mu) estimates.

Architecture: input -> 20 sigmoid -> 20 sigmoid -> 2 linear pre-activations,
with inverted dropout (p = 0.2) on the hidden activations during training.
The two pre-activations are clamped to [-30, 30] and exponentiated, so the
outputs are always strictly positive and the likelihood-based losses are
smooth in the unconstrained pre-activation space.

Training objectives, per datapoint with label (lam, mu) and prediction
(lam_hat, mu_hat):

    mse        (mu - mu_hat)^2 + (lam - lam_hat)^2
    mae        |mu - mu_hat| + |lam - lam_hat|
    nll        -log L(x, t_x, T | lam_hat, mu_hat)
    nll_mse    nll + mse          nll_mae    nll + mae
    ratio      two readings of the likelihood-ratio objective, selected by
               ratio_interpretation:
                 weighted_nll   -exp(logL_hat - logL_label), exponent
                                clamped at 30
                 abs_log_ratio  |logL_hat - logL_label|
    ratio_mse  ratio + mse       ratio_mae  ratio + mae

Gradients are exact analytic backpropagation for every variant; optimization
is Adam over shuffled mini-batches with optional early stopping on a
held-back validation slice.
"""

import json
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .likelihood import RATE_FLOOR, grad_log_likelihood, log_likelihood

LOSS_KINDS = ("mse", "mae", "nll", "nll_mse", "nll_mae",
              "ratio", "ratio_mse", "ratio_mae")
RATIO_INTERPRETATIONS = ("weighted_nll", "abs_log_ratio")

# Pre-activation clamp before exponentiation; keeps rates in
# [exp(-30), exp(30)] and the exponential finite.
PRE_CLAMP = 30.0

# Exponent cap inside the weighted_nll ratio loss.
RATIO_EXP_CLAMP = 30.0

# Adam moment decay rates and the guard added to the update's denominator.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

MODEL_FORMAT_VERSION = 1


@dataclass
class NetworkSpec:
    input_dim: int
    hidden_layers: int = 2
    hidden_width: int = 20
    dropout_p: float = 0.20

    def __post_init__(self):
        if self.input_dim < 1 or self.hidden_layers < 1 or self.hidden_width < 1:
            raise ValueError("network dimensions must be positive")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError("dropout_p must lie in [0, 1)")

    def layer_dims(self):
        return [self.input_dim] + [self.hidden_width] * self.hidden_layers + [2]


@dataclass
class TrainingConfig:
    epochs: int = 500
    batch_size: int = 256
    learning_rate: float = 1e-3
    seed: int = 0
    early_stop_patience: int = 10
    validation_fraction: float = 0.1

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must lie in [0, 1)")


class NetworkWeights:
    """Per-layer weight matrices and bias vectors."""

    def __init__(self, weights, biases):
        self.weights = [np.asarray(w, dtype=float) for w in weights]
        self.biases = [np.asarray(b, dtype=float) for b in biases]
        for w, b in zip(self.weights, self.biases):
            if w.shape[1] != b.shape[0]:
                raise ValueError("bias shape does not match weight matrix")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError("non-finite network weights")

    def copy(self):
        return NetworkWeights([w.copy() for w in self.weights],
                              [b.copy() for b in self.biases])

    def arrays(self):
        return self.weights + self.biases


@dataclass
class FeatureScaler:
    """Per-feature z-score transform fit on the training rows."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, features):
        features = np.asarray(features, dtype=float)
        mean = features.mean(axis=0)
        std = features.std(axis=0)
        if np.any(std == 0):
            bad = int(np.flatnonzero(std == 0)[0])
            raise ValueError(f"feature column {bad} is constant; cannot standardize")
        return cls(mean=mean, std=std)

    def transform(self, features):
        return (np.asarray(features, dtype=float) - self.mean) / self.std


def init_weights(spec, seed):
    """Uniform draws within +-sqrt(6 / (fan_in + fan_out)), zero biases."""
    rng = np.random.default_rng(seed)
    dims = spec.layer_dims()
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return NetworkWeights(weights, biases)


def _dropout_masks(spec, n, rng):
    keep = 1.0 - spec.dropout_p
    return [
        (rng.random((n, spec.hidden_width)) >= spec.dropout_p) / keep
        for _ in range(spec.hidden_layers)
    ]


def _forward_cache(features, w, masks=None):
    """Forward pass keeping every intermediate needed for backprop.

    Returns (inputs, sigmoids, pre, out): per-layer input matrices (post
    dropout), raw sigmoid activations, output pre-activations, and the
    exponentiated outputs.
    """
    a = np.atleast_2d(np.asarray(features, dtype=float))
    if a.shape[1] != w.weights[0].shape[0]:
        raise ValueError(
            f"feature dimension {a.shape[1]} does not match network input "
            f"{w.weights[0].shape[0]}")
    hidden = len(w.weights) - 1
    inputs = [a]
    sigmoids = []
    for layer in range(hidden):
        z = inputs[-1] @ w.weights[layer] + w.biases[layer]
        act = expit(z)
        sigmoids.append(act)
        if masks is not None:
            act = act * masks[layer]
        inputs.append(act)
    pre = inputs[-1] @ w.weights[-1] + w.biases[-1]
    clamped = np.clip(pre, -PRE_CLAMP, PRE_CLAMP)
    out = np.exp(clamped)
    return inputs, sigmoids, pre, out


def forward(features, w, train=False, spec=None, rng=None):
    """Map features to (lam_hat, mu_hat) > 0.

    Training mode applies inverted dropout and needs the spec (for the
    dropout probability) and an rng; inference is deterministic.
    """
    masks = None
    if train:
        if spec is None or rng is None:
            raise ValueError("train-mode forward needs spec and rng")
        n = np.atleast_2d(np.asarray(features)).shape[0]
        masks = _dropout_masks(spec, n, rng)
    _, _, _, out = _forward_cache(features, w, masks)
    lam, mu = out[:, 0], out[:, 1]
    if np.ndim(features) == 1:
        return float(lam[0]), float(mu[0])
    return lam, mu


def _pointwise_loss(x, t_x, T, lam, mu, lam_hat, mu_hat, kind, ratio_interpretation):
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}")
    if ratio_interpretation not in RATIO_INTERPRETATIONS:
        raise ValueError(f"unknown ratio interpretation {ratio_interpretation!r}")
    if np.any(np.asarray(lam) <= 0) or np.any(np.asarray(mu) <= 0):
        raise ValueError("labels must be positive rates")

    mse = (mu - mu_hat) ** 2 + (lam - lam_hat) ** 2
    mae = np.abs(mu - mu_hat) + np.abs(lam - lam_hat)
    if kind == "mse":
        return mse
    if kind == "mae":
        return mae

    ll_hat = log_likelihood(x, t_x, T, lam_hat, mu_hat)
    if kind.startswith("nll"):
        base = -ll_hat
    else:
        diff = ll_hat - log_likelihood(x, t_x, T, lam, mu)
        if ratio_interpretation == "weighted_nll":
            base = -np.exp(np.minimum(diff, RATIO_EXP_CLAMP))
        else:
            base = np.abs(diff)
    if kind.endswith("_mse"):
        return base + mse
    if kind.endswith("_mae"):
        return base + mae
    return base


def loss(x, t_x, T, lam, mu, lam_hat, mu_hat, kind,
         ratio_interpretation="weighted_nll"):
    """Mean per-datapoint loss of predictions (lam_hat, mu_hat) against labels."""
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError("empty batch")
    pointwise = _pointwise_loss(
        np.asarray(x, dtype=float), np.asarray(t_x, dtype=float),
        np.asarray(T, dtype=float), np.asarray(lam, dtype=float),
        np.asarray(mu, dtype=float), np.asarray(lam_hat, dtype=float),
        np.asarray(mu_hat, dtype=float), kind, ratio_interpretation)
    return float(np.mean(pointwise))


def _output_grad(x, t_x, T, lam, mu, lam_hat, mu_hat, kind, ratio_interpretation):
    """d(pointwise loss)/d(lam_hat, mu_hat), matching _pointwise_loss exactly."""
    d_mse = (2.0 * (lam_hat - lam), 2.0 * (mu_hat - mu))
    d_mae = (np.sign(lam_hat - lam), np.sign(mu_hat - mu))
    if kind == "mse":
        return d_mse
    if kind == "mae":
        return d_mae

    dll_lam, dll_mu = grad_log_likelihood(x, t_x, T, lam_hat, mu_hat)
    if kind.startswith("nll"):
        g_lam, g_mu = -dll_lam, -dll_mu
    elif ratio_interpretation == "weighted_nll":
        diff = (log_likelihood(x, t_x, T, lam_hat, mu_hat)
                - log_likelihood(x, t_x, T, lam, mu))
        scale = np.where(diff < RATIO_EXP_CLAMP, -np.exp(np.minimum(diff, RATIO_EXP_CLAMP)), 0.0)
        g_lam, g_mu = scale * dll_lam, scale * dll_mu
    else:
        diff = (log_likelihood(x, t_x, T, lam_hat, mu_hat)
                - log_likelihood(x, t_x, T, lam, mu))
        sgn = np.sign(diff)
        g_lam, g_mu = sgn * dll_lam, sgn * dll_mu

    if kind.endswith("_mse"):
        return g_lam + d_mse[0], g_mu + d_mse[1]
    if kind.endswith("_mae"):
        return g_lam + d_mae[0], g_mu + d_mae[1]
    return g_lam, g_mu


def loss_gradient(features, x, t_x, T, lam, mu, w, kind,
                  ratio_interpretation="weighted_nll", spec=None, rng=None):
    """Exact gradient of the mean loss w.r.t. every weight and bias.

    When spec/rng are given, dropout masks are drawn and shared between the
    internal forward pass and the backward pass.  Returns (grad_weights,
    grad_biases, batch_loss).
    """
    features = np.atleast_2d(np.asarray(features, dtype=float))
    n = features.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    masks = None
    if spec is not None and spec.dropout_p > 0.0:
        if rng is None:
            raise ValueError("dropout needs an rng")
        masks = _dropout_masks(spec, n, rng)

    inputs, sigmoids, pre, out = _forward_cache(features, w, masks)
    lam_hat, mu_hat = out[:, 0], out[:, 1]
    x = np.asarray(x, dtype=float)
    t_x = np.asarray(t_x, dtype=float)
    T = np.asarray(T, dtype=float)
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(mu, dtype=float)

    batch_loss = float(np.mean(_pointwise_loss(
        x, t_x, T, lam, mu, lam_hat, mu_hat, kind, ratio_interpretation)))
    g_lam, g_mu = _output_grad(
        x, t_x, T, lam, mu, lam_hat, mu_hat, kind, ratio_interpretation)

    # through the clamped exp output transform (mean over the batch)
    d_pre = np.column_stack([g_lam * lam_hat, g_mu * mu_hat]) / n
    d_pre *= (np.abs(pre) < PRE_CLAMP)

    grad_w = [None] * len(w.weights)
    grad_b = [None] * len(w.biases)
    delta = d_pre
    for layer in range(len(w.weights) - 1, -1, -1):
        grad_w[layer] = inputs[layer].T @ delta
        grad_b[layer] = delta.sum(axis=0)
        if layer > 0:
            da = delta @ w.weights[layer].T
            if masks is not None:
                da = da * masks[layer - 1]
            act = sigmoids[layer - 1]
            delta = da * act * (1.0 - act)
    return grad_w, grad_b, batch_loss


def train(table, lam_labels, mu_labels, cfg, kind, spec=None,
          ratio_interpretation="weighted_nll"):
    """Fit the surrogate on a CalibrationTable with MCMC labels.

    Features (x, t_x, T, covariates) are standardized by a scaler fit on the
    training rows; labels stay in natural units.  Returns (weights, scaler,
    history) where history holds one (epoch, train_loss, val_loss) triple
    per completed epoch.
    """
    lam_labels = np.asarray(lam_labels, dtype=float)
    mu_labels = np.asarray(mu_labels, dtype=float)
    n = len(table)
    if not (n == lam_labels.size == mu_labels.size):
        raise ValueError("summaries and labels must align")
    if spec is None:
        spec = NetworkSpec(input_dim=table.features().shape[1])
    if n < cfg.batch_size:
        raise ValueError("need at least one full batch of training rows")

    raw = table.features()
    scaler = FeatureScaler.fit(raw)
    feats = scaler.transform(raw)
    x, t_x, T = (np.asarray(table.x, dtype=float), table.t_x.copy(), table.T.copy())

    init_ss, stream_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    w = init_weights(spec, init_ss)
    rng = np.random.default_rng(stream_ss)

    n_val = int(np.floor(n * cfg.validation_fraction))
    order = rng.permutation(n)
    val_idx, train_idx = order[:n_val], order[n_val:]
    if train_idx.size < 1:
        raise ValueError("validation split leaves no training rows")

    adam_m = [np.zeros_like(a) for a in w.arrays()]
    adam_v = [np.zeros_like(a) for a in w.arrays()]
    step = 0
    history = []
    best_val = np.inf
    best_w = None
    stale = 0

    for epoch in range(cfg.epochs):
        perm = train_idx[rng.permutation(train_idx.size)]
        epoch_loss = 0.0
        for lo in range(0, perm.size, cfg.batch_size):
            sel = perm[lo:lo + cfg.batch_size]
            grad_w, grad_b, batch_loss = loss_gradient(
                feats[sel], x[sel], t_x[sel], T[sel],
                lam_labels[sel], mu_labels[sel], w, kind,
                ratio_interpretation=ratio_interpretation,
                spec=spec if spec.dropout_p > 0 else None, rng=rng)
            epoch_loss += batch_loss * sel.size
            step += 1
            grads = grad_w + grad_b
            params = w.arrays()
            for i, (p, g) in enumerate(zip(params, grads)):
                adam_m[i] = ADAM_BETA1 * adam_m[i] + (1 - ADAM_BETA1) * g
                adam_v[i] = ADAM_BETA2 * adam_v[i] + (1 - ADAM_BETA2) * g * g
                m_hat = adam_m[i] / (1 - ADAM_BETA1 ** step)
                v_hat = adam_v[i] / (1 - ADAM_BETA2 ** step)
                p -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        train_loss = epoch_loss / perm.size

        val_loss = np.nan
        if n_val > 0:
            lam_v, mu_v = forward(feats[val_idx], w)
            val_loss = loss(x[val_idx], t_x[val_idx], T[val_idx],
                            lam_labels[val_idx], mu_labels[val_idx],
                            lam_v, mu_v, kind, ratio_interpretation)
        history.append((epoch, train_loss, val_loss))

        if n_val > 0 and cfg.early_stop_patience > 0:
            if val_loss < best_val:
                best_val = val_loss
                best_w = w.copy()
                stale = 0
            else:
                stale += 1
                if stale >= cfg.early_stop_patience:
                    break

    if best_w is not None:
        w = best_w
    return w, scaler, history


def predict_params(table, w, scaler):
    """Inference-mode (lam, mu) per customer, floored at RATE_FLOOR."""
    feats = scaler.transform(table.features())
    lam, mu = forward(feats, w)
    return np.maximum(lam, RATE_FLOOR), np.maximum(mu, RATE_FLOOR)


def save_model(path, spec, w, scaler, meta=None):
    """Round-trippable JSON dump of spec + weights + scaler."""
    doc = {
        "format": MODEL_FORMAT_VERSION,
        "spec": {
            "input_dim": spec.input_dim,
            "hidden_layers": spec.hidden_layers,
            "hidden_width": spec.hidden_width,
            "dropout_p": spec.dropout_p,
        },
        "scaler": {"mean": list(scaler.mean), "std": list(scaler.std)},
        "weights": [wi.tolist() for wi in w.weights],
        "biases": [bi.tolist() for bi in w.biases],
        "meta": meta or {},
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)


def load_model(path):
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != MODEL_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported model format {doc.get('format')!r}")
    spec = NetworkSpec(**doc["spec"])
    w = NetworkWeights(doc["weights"], doc["biases"])
    scaler = FeatureScaler(mean=np.asarray(doc["scaler"]["mean"]),
                           std=np.asarray(doc["scaler"]["std"]))
    return spec, w, scaler, doc.get("meta", {})


def write_history_csv(path, history):
    with open(path, "w", newline="") as fh:
        fh.write("epoch,train_loss,val_loss\n")
        for epoch, train_loss, val_loss in history:
            fh.write(f"{epoch},{float(train_loss)!r},{float(val_loss)!r}\n")
