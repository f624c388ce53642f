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

One kernel, ``_loss_and_output_grad``, gives every kind's pointwise loss and
its derivatives w.r.t. (lam_hat, mu_hat), with the arithmetic of the public
likelihood functions but each shared term computed once per batch; exact
backpropagation goes on from there.  The forward pass computes each hidden
sigmoid in place as 1 / (1 + exp(-z)) with numpy's vectorized exp, within a
few ulp of ``scipy.special.expit`` at a fraction of its per-call cost; the
backward pass sums each bias gradient over the batch as one BLAS product
with a vector of ones.  Both passes work in place on fresh arrays (bias
adds, the output exp, the backward products), with the bits of the
out-of-place expressions.  Every weight and bias is a view into one
float64 buffer, ``NetworkWeights.flat``, which Adam updates whole, over
shuffled mini-batches with optional early stopping on a validation slice;
the best weights are kept as a copy of that buffer and written back at the
end.  Dropout masks come from the raw output of the bit generator: each
64-bit word gives two units, and a unit is kept iff its 32-bit half is at
least ceil(p * 2**32), which drops it with probability p to within 2**-32
for half the raw draws that uniform doubles would take.  This needs a
64-bit bit generator; ``train`` always builds PCG64.
``train`` and ``loss`` validate their inputs once, at entry; ``loss_gradient``
checks only the loss kind and trusts its arrays.  For the ratio kinds,
``train`` computes the label log-likelihood once per call, as a column
sliced with each batch and the validation rows (``ll_label``).
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .data import write_csv
from .likelihood import (RATE_FLOOR, _check_rates, _check_summary,
                         _grad_log_likelihood, _log_likelihood)
# Unused here; kept in this namespace, where perfbench counts calls to them.
from .likelihood import grad_log_likelihood, log_likelihood  # noqa: F401

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
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning rate must be positive and finite")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must lie in [0, 1)")


class NetworkWeights:
    """Per-layer weight matrices and bias vectors, all views into one
    float64 buffer ``flat`` laid out in ``arrays()`` order."""

    def __init__(self, weights, biases):
        weights = [np.asarray(w, dtype=float) for w in weights]
        biases = [np.asarray(b, dtype=float) for b in biases]
        for w, b in zip(weights, biases):
            if w.shape[1] != b.shape[0]:
                raise ValueError("bias shape does not match weight matrix")
        arrays = weights + biases
        self.flat = np.concatenate([a.ravel() for a in arrays])
        if not np.all(np.isfinite(self.flat)):
            raise ValueError("non-finite network weights")
        ends = np.cumsum([a.size for a in arrays])[:-1]
        views = [v.reshape(a.shape) for v, a in zip(np.split(self.flat, ends), arrays)]
        self.weights, self.biases = views[:len(weights)], views[len(weights):]

    def __reduce__(self):
        # Rebuild on unpickling, so the views alias the new ``flat``.
        return NetworkWeights, (self.weights, self.biases)

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
    """Inverted-dropout masks, shape (hidden_layers, n, hidden_width).

    Each unit takes one 32-bit half of the bit generator's raw 64-bit
    output and is kept iff that half is >= ceil(p * 2**32), so it is dropped
    with probability p to within 2**-32; kept units are scaled by 1/(1-p).
    """
    bit_generator = rng.bit_generator
    if isinstance(bit_generator, np.random.MT19937):
        raise ValueError("dropout masks need a 64-bit bit generator, "
                         "not MT19937")
    shape = (spec.hidden_layers, n, spec.hidden_width)
    size = shape[0] * n * shape[2]
    halves = bit_generator.random_raw((size + 1) // 2).view(np.uint32)
    keep = halves[:size] >= math.ceil(spec.dropout_p * 2.0 ** 32)
    return np.multiply(keep, 1.0 / (1.0 - spec.dropout_p)).reshape(shape)


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
        z = inputs[-1] @ w.weights[layer]
        z += w.biases[layer]
        # sigmoid 1 / (1 + exp(-z)), in place on the fresh z
        np.negative(z, out=z)
        np.exp(z, out=z)
        z += 1.0
        act = np.reciprocal(z, out=z)
        sigmoids.append(act)
        if masks is not None:
            act = act * masks[layer]
        inputs.append(act)
    pre = inputs[-1] @ w.weights[-1]
    pre += w.biases[-1]
    out = np.minimum(np.maximum(pre, -PRE_CLAMP), PRE_CLAMP)
    np.exp(out, out=out)
    return inputs, sigmoids, pre, out


def forward(features, w):
    """Map features to (lam_hat, mu_hat) > 0, without dropout."""
    _, _, _, out = _forward_cache(features, w)
    lam, mu = out[:, 0], out[:, 1]
    if np.ndim(features) == 1:
        return float(lam[0]), float(mu[0])
    return lam, mu


def _check_kind(kind, ratio_interpretation):
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}")
    if ratio_interpretation not in RATIO_INTERPRETATIONS:
        raise ValueError(f"unknown ratio interpretation {ratio_interpretation!r}")


def _check_labels(lam, mu):
    if not all(np.all(np.isfinite(a) & (a > 0)) for a in (lam, mu)):
        raise ValueError("labels must be positive rates")


def _loss_and_output_grad(x, t_x, T, lam, mu, lam_hat, mu_hat, kind,
                          ratio_interpretation, ll_label=None):
    """(pointwise loss, d/d lam_hat, d/d mu_hat) for validated float arrays.

    The ratio kinds use ll_label, the label log-likelihood, when given.
    """
    head = kind.split("_")[0]
    if kind.endswith("mse"):
        e_lam, e_mu = lam_hat - lam, mu_hat - mu
        penalty, d_lam, d_mu = e_mu ** 2 + e_lam ** 2, 2.0 * e_lam, 2.0 * e_mu
    elif kind.endswith("mae"):
        e_lam, e_mu = lam_hat - lam, mu_hat - mu
        penalty = np.abs(e_mu) + np.abs(e_lam)
        d_lam, d_mu = np.sign(e_lam), np.sign(e_mu)
    if head in ("mse", "mae"):
        return penalty, d_lam, d_mu

    ll_hat, theta = _log_likelihood(x, t_x, T, lam_hat, mu_hat)
    dll_lam, dll_mu = _grad_log_likelihood(x, t_x, T, lam_hat, mu_hat, theta)
    if head == "nll":
        base, scale = -ll_hat, -1.0
    else:
        if ll_label is None:
            ll_label = _log_likelihood(x, t_x, T, lam, mu)[0]
        diff = ll_hat - ll_label
        if ratio_interpretation == "weighted_nll":
            base = -np.exp(np.minimum(diff, RATIO_EXP_CLAMP))
            scale = np.where(diff < RATIO_EXP_CLAMP, base, 0.0)
        else:
            base, scale = np.abs(diff), np.sign(diff)
    g_lam, g_mu = scale * dll_lam, scale * dll_mu
    if head == kind:
        return base, g_lam, g_mu
    return base + penalty, g_lam + d_lam, g_mu + d_mu


def loss(x, t_x, T, lam, mu, lam_hat, mu_hat, kind,
         ratio_interpretation=RATIO_INTERPRETATIONS[0]):
    """Mean per-datapoint loss of predictions (lam_hat, mu_hat) against labels."""
    x, t_x, T, lam, mu, lam_hat, mu_hat = (
        np.asarray(a, dtype=float) for a in (x, t_x, T, lam, mu, lam_hat, mu_hat))
    if x.size == 0:
        raise ValueError("empty batch")
    _check_kind(kind, ratio_interpretation)
    _check_labels(lam, mu)
    _check_rates(lam_hat, mu_hat)
    _check_summary(x, t_x, T)
    return float(np.mean(_loss_and_output_grad(
        x, t_x, T, lam, mu, lam_hat, mu_hat, kind, ratio_interpretation)[0]))


def loss_gradient(features, x, t_x, T, lam, mu, w, kind,
                  ratio_interpretation=RATIO_INTERPRETATIONS[0], spec=None,
                  rng=None, ll_label=None):
    """Exact gradient of the mean loss w.r.t. every weight and bias.

    x, t_x, T, lam and mu must be valid float arrays; only the loss kind is
    checked here.  When spec/rng are given, dropout masks are drawn and
    shared between the internal forward pass and the backward pass.
    ll_label is the optional precomputed label log-likelihood of
    ``_loss_and_output_grad``.  Returns (grad_weights, grad_biases,
    batch_loss).
    """
    _check_kind(kind, ratio_interpretation)
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
    pointwise, g_lam, g_mu = _loss_and_output_grad(
        x, t_x, T, lam, mu, lam_hat, mu_hat, kind, ratio_interpretation,
        ll_label)
    batch_loss = float(pointwise.sum() / n)  # np.mean's arithmetic
    # through the clamped exp output transform (mean over the batch)
    delta = np.empty((n, 2))
    np.multiply(g_lam, lam_hat, out=delta[:, 0])
    np.multiply(g_mu, mu_hat, out=delta[:, 1])
    delta /= n
    delta *= (np.abs(pre) < PRE_CLAMP)

    grad_w = [None] * len(w.weights)
    grad_b = [None] * len(w.biases)
    ones = np.ones(n)
    for layer in range(len(w.weights) - 1, -1, -1):
        grad_w[layer] = inputs[layer].T @ delta
        grad_b[layer] = ones @ delta  # column sums as one BLAS gemv
        if layer > 0:
            delta = delta @ w.weights[layer].T
            if masks is not None:
                delta *= masks[layer - 1]
            act = sigmoids[layer - 1]
            delta *= act
            delta *= 1.0 - act
    return grad_w, grad_b, batch_loss


def train(table, lam_labels, mu_labels, cfg, kind, spec=None,
          ratio_interpretation=RATIO_INTERPRETATIONS[0]):
    """Fit the surrogate on a CalibrationTable with MCMC labels.

    Features (x, t_x, T, covariates) are standardized by a scaler fit on the
    training rows; labels stay in natural units.  Returns (weights, scaler,
    history) where history holds one (epoch, train_loss, val_loss) triple
    per completed epoch.  The labels, the loss kind and the ratio
    interpretation are validated here, once, before the first batch.
    """
    _check_kind(kind, ratio_interpretation)
    lam_labels = np.asarray(lam_labels, dtype=float)
    mu_labels = np.asarray(mu_labels, dtype=float)
    n = len(table)
    if not (n == lam_labels.size == mu_labels.size):
        raise ValueError("summaries and labels must align")
    _check_labels(lam_labels, mu_labels)
    if spec is None:
        spec = NetworkSpec(input_dim=table.features().shape[1])
    if n < cfg.batch_size:
        raise ValueError("need at least one full batch of training rows")

    raw = table.features()
    scaler = FeatureScaler.fit(raw)
    feats = scaler.transform(raw)

    init_ss, stream_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    w = init_weights(spec, init_ss)
    rng = np.random.default_rng(stream_ss)

    n_val = int(np.floor(n * cfg.validation_fraction))
    order = rng.permutation(n)
    val_idx, train_idx = order[:n_val], order[n_val:]
    if train_idx.size < 1:
        raise ValueError("validation split leaves no training rows")

    columns = [feats, table.x.astype(float), table.t_x, table.T, lam_labels,
               mu_labels]
    ratio = kind.startswith("ratio")
    if ratio:
        # the label log-likelihood is constant: compute it once, as a
        # seventh column sliced with every batch and the validation rows
        columns.append(_log_likelihood(*columns[1:])[0])
    val_feats, *val_rows = (a[val_idx] for a in columns)
    adam_m = np.zeros_like(w.flat)
    adam_v = np.zeros_like(w.flat)
    step = 0
    history = []
    best_val = np.inf
    best_flat = None
    stale = 0

    for epoch in range(cfg.epochs):
        perm = train_idx[rng.permutation(train_idx.size)]
        shuffled = [a[perm] for a in columns]
        epoch_loss = 0.0
        for lo in range(0, perm.size, cfg.batch_size):
            batch = [a[lo:lo + cfg.batch_size] for a in shuffled]
            grad_w, grad_b, batch_loss = loss_gradient(
                *batch[:6], w, kind, ratio_interpretation=ratio_interpretation,
                spec=spec, rng=rng, ll_label=batch[6] if ratio else None)
            epoch_loss += batch_loss * len(batch[0])
            step += 1
            g = np.concatenate([a.ravel() for a in grad_w + grad_b])
            adam_m *= ADAM_BETA1
            adam_m += (1 - ADAM_BETA1) * g
            adam_v *= ADAM_BETA2
            adam_v += (1 - ADAM_BETA2) * g * g
            m_hat = adam_m / (1 - ADAM_BETA1 ** step)
            v_hat = adam_v / (1 - ADAM_BETA2 ** step)
            w.flat -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        train_loss = epoch_loss / perm.size

        val_loss = np.nan
        if n_val > 0:
            lam_v, mu_v = forward(val_feats, w)
            val_loss = float(np.mean(_loss_and_output_grad(
                *val_rows[:5], lam_v, mu_v, kind, ratio_interpretation,
                ll_label=val_rows[5] if ratio else None)[0]))
        history.append((epoch, train_loss, val_loss))

        if n_val > 0 and cfg.early_stop_patience > 0:
            if val_loss < best_val:
                best_val = val_loss
                best_flat = w.flat.copy()
                stale = 0
            else:
                stale += 1
                if stale >= cfg.early_stop_patience:
                    break

    if best_flat is not None:
        w.flat[:] = best_flat
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
    """One (epoch, train_loss, val_loss) row per epoch run."""
    losses = np.array([h[1:] for h in history], dtype=float).reshape(-1, 2)
    write_csv(path, ["epoch", "train_loss", "val_loss"],
              [[h[0] for h in history], *losses.T])
