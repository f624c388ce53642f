"""Oracle checks for the closed-form individual-level quantities.

The likelihood is verified against an independent high-precision oracle that
numerically integrates the death-time density and adds the survival term;
gradients are verified against central finite differences; the remaining
identities are forced analytically.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from paretonbd.likelihood import (
    conditional_p_alive,
    expected_holdout_purchases,
    grad_log_likelihood,
    log_likelihood,
    p_alive,
)

mp.mp.dps = 30


def oracle_log_likelihood(x, t_x, T, lam, mu):
    """Quadrature oracle: integrate lam^x * mu * e^{-(lam+mu) tau} over the
    unobserved death time tau in (t_x, T), plus the survive-past-T term.

    Substituting u = tau - t_x and splitting the interval at a few decay
    lengths keeps the quadrature accurate when theta*(T - t_x) is huge.
    """
    lam_, mu_, tx_, T_ = map(mp.mpf, (lam, mu, t_x, T))
    theta = lam_ + mu_
    span = T_ - tx_
    pts = sorted(
        {mp.mpf(0), min(1 / theta, span), min(10 / theta, span),
         min(100 / theta, span), span}
    )
    death = mp.e ** (-theta * tx_) * mp.quad(
        lambda u: mu_ * mp.e ** (-theta * u), pts
    )
    return float(mp.log(lam_**x * (death + mp.e ** (-theta * T_))))


def random_instances(n, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        lam, mu = 10 ** rng.uniform(-3, math.log10(5.0), size=2)
        T = rng.uniform(0.5, 200.0)
        x = int(rng.integers(0, 21))
        t_x = float(rng.uniform(0.0, T)) if x else 0.0
        out.append((x, t_x, T, float(lam), float(mu)))
    return out


# ---------------------------------------------------------------------------
# log_likelihood


def test_log_likelihood_collapses_to_zero_at_empty_window():
    assert log_likelihood(0, 0.0, 0.0, 1.0, 1.0) == 0.0


def test_log_likelihood_equal_rates_closed_form():
    # x=0, lam=mu=1: L = (e^{-2*0} + e^{-2T}) / 2
    got = log_likelihood(0, 0.0, 20.0, 1.0, 1.0)
    assert_allclose(got, math.log((1.0 + math.exp(-40.0)) / 2.0), rtol=1e-14)


def test_log_likelihood_matches_quadrature_spot():
    got = log_likelihood(2, 30.0, 52.0, 0.1, 0.02)
    want = oracle_log_likelihood(2, 30.0, 52.0, 0.1, 0.02)
    assert abs(got - want) <= 1e-8


def test_log_likelihood_matches_quadrature_battery():
    for x, t_x, T, lam, mu in random_instances(1000, seed=20260815):
        got = log_likelihood(x, t_x, T, lam, mu)
        want = oracle_log_likelihood(x, t_x, T, lam, mu)
        # difference of logs bounds the relative error of the likelihood
        assert abs(got - want) <= 1e-8, (x, t_x, T, lam, mu)


def test_log_likelihood_broadcasts():
    lam = np.array([0.1, 0.2, 0.3])
    got = log_likelihood(2, 10.0, 30.0, lam, 0.05)
    want = [log_likelihood(2, 10.0, 30.0, v, 0.05) for v in lam]
    assert_allclose(got, want, rtol=0)


def test_log_likelihood_rejects_bad_inputs():
    with pytest.raises(ValueError):
        log_likelihood(1, 5.0, 10.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        log_likelihood(1, 5.0, 10.0, 0.1, -1.0)
    with pytest.raises(ValueError):
        log_likelihood(1, 11.0, 10.0, 0.1, 0.1)
    with pytest.raises(ValueError):
        log_likelihood(-1, 0.0, 10.0, 0.1, 0.1)


# ---------------------------------------------------------------------------
# grad_log_likelihood


def central_difference(x, t_x, T, lam, mu, rel_step):
    h_l = rel_step * lam
    h_m = rel_step * mu
    dlam = (
        log_likelihood(x, t_x, T, lam + h_l, mu)
        - log_likelihood(x, t_x, T, lam - h_l, mu)
    ) / (2.0 * h_l)
    dmu = (
        log_likelihood(x, t_x, T, lam, mu + h_m)
        - log_likelihood(x, t_x, T, lam, mu - h_m)
    ) / (2.0 * h_m)
    return dlam, dmu


def test_gradient_zero_at_empty_window():
    assert grad_log_likelihood(0, 0.0, 0.0, 0.7, 1.3) == (0.0, 0.0)


def test_gradient_matches_finite_differences_spot():
    got = grad_log_likelihood(3, 20.0, 40.0, 0.2, 0.05)
    want = central_difference(3, 20.0, 40.0, 0.2, 0.05, rel_step=1e-6)
    assert_allclose(got, want, rtol=1e-6)


def test_gradient_matches_finite_differences_at_recency_boundary():
    got = grad_log_likelihood(1, 10.0, 10.0, 0.2, 0.05)
    want = central_difference(1, 10.0, 10.0, 0.2, 0.05, rel_step=1e-6)
    assert_allclose(got, want, rtol=1e-6)


def test_gradient_matches_finite_differences_battery():
    for x, t_x, T, lam, mu in random_instances(300, seed=7):
        got = grad_log_likelihood(x, t_x, T, lam, mu)
        want = central_difference(x, t_x, T, lam, mu, rel_step=1e-5)
        assert_allclose(got, want, rtol=1e-4, atol=1e-8)


# ---------------------------------------------------------------------------
# p_alive


def test_p_alive_at_recency_equal_window_is_rate_share():
    assert p_alive(1, 10.0, 10.0, 3.0, 1.0) == 0.75


def test_p_alive_tends_to_one_without_dropout_hazard():
    # 1 - p_alive ~ mu/(lam*w), so the approach rate is linear in mu
    assert_allclose(p_alive(2, 5.0, 30.0, 0.4, 1e-12), 1.0, rtol=1e-6)


def test_conditional_p_alive_is_survival_share_of_likelihood():
    # the survive-past-T summand of the quadrature decomposition carries
    # exactly the conditional (posterior) alive mass
    x, t_x, T, lam, mu = 2, 30.0, 52.0, 0.1, 0.02
    total = math.exp(oracle_log_likelihood(x, t_x, T, lam, mu))
    survival = lam**x * math.exp(-(lam + mu) * T)
    assert_allclose(
        conditional_p_alive(x, t_x, T, lam, mu), survival / total, rtol=1e-10
    )


def test_conditional_p_alive_is_one_at_recency_boundary():
    assert conditional_p_alive(4, 12.0, 12.0, 0.3, 0.08) == 1.0


def test_conditional_p_alive_exceeds_classification_share():
    # the conditional share carries the extra lam*e^{-theta T} survival mass
    x, t_x, T, lam, mu = 3, 18.0, 40.0, 0.25, 0.04
    assert conditional_p_alive(x, t_x, T, lam, mu) > p_alive(x, t_x, T, lam, mu)


# ---------------------------------------------------------------------------
# expected_holdout_purchases


def test_expected_purchases_zero_horizon():
    assert expected_holdout_purchases(2, 10.0, 30.0, 0.1, 0.02, 0.0) == 0.0


def test_expected_purchases_no_dropout_limit():
    got = expected_holdout_purchases(2, 30.0, 30.0, 0.1, 1e-13, 26.0)
    assert_allclose(got, 0.1 * 26.0, rtol=1e-9)


def test_expected_purchases_matches_monte_carlo():
    # conditional mean given alive: Poisson over an Exp(mu)-censored horizon
    lam, mu, horizon = 0.1, 0.02, 26.0
    rng = np.random.default_rng(99)
    life = rng.exponential(1.0 / mu, size=1_000_000)
    counts = rng.poisson(lam * np.minimum(life, horizon))
    got = expected_holdout_purchases(5, 12.0, 12.0, lam, mu, horizon)
    alive_share = p_alive(5, 12.0, 12.0, lam, mu)
    assert_allclose(got / alive_share, counts.mean(), rtol=1e-2)


def test_expected_purchases_monotone_in_horizon():
    horizons = np.array([0.0, 5.0, 10.0, 40.0, 100.0])
    vals = expected_holdout_purchases(2, 20.0, 30.0, 0.1, 0.02, horizons)
    assert np.all(np.diff(vals) > 0)


def test_expected_purchases_rejects_negative_horizon():
    with pytest.raises(ValueError):
        expected_holdout_purchases(2, 10.0, 30.0, 0.1, 0.02, -1.0)


def test_expected_purchases_rejects_nan_horizon():
    with pytest.raises(ValueError, match="horizon must be nonnegative"):
        expected_holdout_purchases(2, 10.0, 30.0, 0.1, 0.02, np.nan)
