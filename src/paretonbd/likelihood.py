"""Individual-level Pareto/NBD quantities in closed form.

A customer is summarized by the triple (x, t_x, T): x repeat purchases over
an observation window of T weeks, the last of them at t_x weeks after the
first-ever purchase.  Behavior is governed by a purchase rate ``lam`` and a
dropout hazard ``mu`` (both per week).  The marginal likelihood of the triple
is

    L(x, t_x, T | lam, mu)
        = lam**x / (lam + mu)
          * (mu * exp(-(lam + mu) * t_x) + lam * exp(-(lam + mu) * T))

Everything here is evaluated in the log domain with the larger exponent
factored out, because exp(-(lam + mu) * T) underflows float64 for plausible
weekly rates over multi-year windows.

All functions broadcast over array inputs and return scalars for scalar
inputs.  Rates must be strictly positive; estimators are expected to clamp
degenerate estimates to ``RATE_FLOOR`` before calling in, rather than the
math silently flooring them here.

Each public function validates its inputs on every call, then runs an
unchecked kernel (``_log_likelihood``, ``_grad_log_likelihood``,
``_p_alive``, ``_conditional_p_alive``, ``_forecast``).  Batch callers
(network training, ``forecast.make_forecast``, the Gibbs sweep) validate
once and call the kernels directly.
"""

import numpy as np

# Smallest rate admitted at API boundaries; estimation layers clamp to this.
RATE_FLOOR = 1e-10

# Below this value of mu*horizon the expected-purchase formula switches to
# its series limit to avoid 0/0.
_SMALL_MU_H = 1e-8


def _check_rates(lam, mu):
    # The comparisons are False for NaN, so NaN is rejected too.
    if not ((lam > 0.0) & (lam < np.inf)).all():
        raise ValueError("purchase rate lam must be positive and finite")
    if not ((mu > 0.0) & (mu < np.inf)).all():
        raise ValueError("dropout hazard mu must be positive and finite")


def _check_summary(x, t_x, T):
    if (x < 0).any():
        raise ValueError("repeat count x must be nonnegative")
    if (t_x < 0).any() or (t_x > T).any():
        raise ValueError("recency must satisfy 0 <= t_x <= T")


def _validated(*values):
    """(x, t_x, T, lam, mu, ...) as float arrays after the rate and summary
    checks, and whether all of them were scalars."""
    arrays = [np.asarray(v, dtype=float) for v in values]
    _check_rates(*arrays[3:5])
    _check_summary(*arrays[:3])
    return arrays, all(a.ndim == 0 for a in arrays)


def _log_likelihood(x, t_x, T, lam, mu):
    """Unchecked kernel of log_likelihood: (log L, theta = lam + mu), for
    validated float arrays; theta feeds _grad_log_likelihood."""
    theta = lam + mu
    log_lam = np.log(lam)
    out = (
        x * log_lam
        - np.log(theta)
        + np.logaddexp(np.log(mu) - theta * t_x, log_lam - theta * T)
    )
    return out, theta


def _grad_log_likelihood(x, t_x, T, lam, mu, theta):
    """Unchecked kernel of grad_log_likelihood, for validated float arrays."""
    w = np.exp(-theta * (T - t_x))
    denom = mu + lam * w
    dlam = x / lam - 1.0 / theta + (-t_x * mu + (1.0 - lam * T) * w) / denom
    dmu = -1.0 / theta + ((1.0 - mu * t_x) - lam * T * w) / denom
    return dlam, dmu


def log_likelihood(x, t_x, T, lam, mu):
    """Natural log of the Pareto/NBD likelihood of (x, t_x, T).

    Computed as x*log(lam) - log(lam+mu) + logaddexp of the two decay terms,
    which is exact in the log domain for any positive rates.
    """
    (x, t_x, T, lam, mu), scalar = _validated(x, t_x, T, lam, mu)
    out, _ = _log_likelihood(x, t_x, T, lam, mu)
    return float(out) if scalar else out


def grad_log_likelihood(x, t_x, T, lam, mu):
    """Exact partial derivatives of ``log_likelihood`` w.r.t. (lam, mu).

    Returns a (d/dlam, d/dmu) pair.  The shared mixture term is evaluated
    with exp(-(lam+mu)*t_x) factored out, so only the bounded quantity
    w = exp(-(lam+mu)*(T - t_x)) appears.
    """
    (x, t_x, T, lam, mu), scalar = _validated(x, t_x, T, lam, mu)
    dlam, dmu = _grad_log_likelihood(x, t_x, T, lam, mu, lam + mu)
    if scalar:
        return float(dlam), float(dmu)
    return dlam, dmu


def _p_alive(t_x, T, lam, mu):
    """Unchecked kernel of p_alive, for validated float arrays."""
    lam_w = lam * np.exp(-(lam + mu) * (T - t_x))
    return lam_w / (mu + lam_w)


def _conditional_p_alive(t_x, T, lam, mu, theta):
    """Unchecked kernel of conditional_p_alive, for validated float arrays
    and theta = lam + mu."""
    w = np.exp(-theta * (T - t_x))
    return theta * w / (mu + lam * w)


def _forecast(t_x, T, lam, mu, horizon):
    """Unchecked kernel of expected_holdout_purchases: (alive share,
    expected count), with the alive share computed once."""
    alive = _p_alive(t_x, T, lam, mu)
    small = mu * horizon < _SMALL_MU_H
    mu_safe = np.where(small, 1.0, mu)
    expected = np.where(
        small,
        alive * lam * horizon,
        alive * (lam / mu_safe) * (-np.expm1(-mu_safe * horizon)),
    )
    return alive, expected


def p_alive(x, t_x, T, lam, mu):
    """Share of the likelihood mixture carried by its survival-decay term.

    Equals lam*exp(-(lam+mu)*T) / (mu*exp(-(lam+mu)*t_x) + lam*exp(-(lam+mu)*T)),
    used as the alive probability when classifying customers at the end of
    the observation window.  Identities: t_x == T gives exactly
    lam / (lam + mu); the value tends to 1 as mu -> 0.
    """
    (x, t_x, T, lam, mu), scalar = _validated(x, t_x, T, lam, mu)
    out = _p_alive(t_x, T, lam, mu)
    return float(out) if scalar else out


def conditional_p_alive(x, t_x, T, lam, mu):
    """Posterior probability that the customer is still active at T.

    This is the exact Bayes share of the survival mass in the generative
    model, (lam+mu)*exp(-(lam+mu)*T) / (mu*exp(-(lam+mu)*t_x)
    + lam*exp(-(lam+mu)*T)); it equals 1 when t_x == T (no window left in
    which to die).  The Gibbs sampler's alive indicator must be drawn from
    this probability; ``p_alive`` above is the classification score.
    """
    (x, t_x, T, lam, mu), scalar = _validated(x, t_x, T, lam, mu)
    out = _conditional_p_alive(t_x, T, lam, mu, lam + mu)
    return float(out) if scalar else out


def expected_holdout_purchases(x, t_x, T, lam, mu, horizon):
    """Expected number of purchases over ``horizon`` further weeks.

    p_alive * (lam/mu) * (1 - exp(-mu*horizon)): the alive share times the
    Poisson count expected over an Exp(mu)-censored horizon.  For
    mu*horizon < 1e-8 the series limit p_alive * lam * horizon is used.
    """
    if not (np.asarray(horizon, dtype=float) >= 0).all():  # also rejects NaN
        raise ValueError("horizon must be nonnegative")
    (x, t_x, T, lam, mu, horizon), scalar = _validated(x, t_x, T, lam, mu,
                                                       horizon)
    out = _forecast(t_x, T, lam, mu, horizon)[1]
    return float(out) if scalar else out
