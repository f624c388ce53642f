"""Sampler micro-oracles and joint-distribution checks.

Each conditional draw is verified in isolation (Monte Carlo moments, a KS
test against the analytic truncated-exponential CDF, a grid-density check of
the slice sampler), and the assembled kernel is verified by comparing a
successive-conditional chain against forward simulation from the same
hierarchy.
"""

import datetime

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from paretonbd import data, gibbs, simulate
from paretonbd.gibbs import ChainConfig, HyperParams
from paretonbd.likelihood import conditional_p_alive

KS_CRIT_1PCT = 1.63  # asymptotic Kolmogorov critical value at the 1% level


# ---------------------------------------------------------------------------
# alive indicator


def test_draw_alive_matches_conditional_probability():
    x, t_x, T, lam, mu = 2, 3.0, 10.0, 0.3, 0.15
    p = conditional_p_alive(x, t_x, T, lam, mu)
    n = 100_000
    u = np.random.default_rng(11).random(n)
    freq = np.mean(gibbs.draw_alive(x, t_x, T, lam, mu, u))
    se = np.sqrt(p * (1.0 - p) / n)
    assert abs(freq - p) < 3.0 * se


def test_draw_alive_certain_without_dropout_hazard():
    u = np.random.default_rng(0).random(10_000)
    assert np.all(gibbs.draw_alive(3, 5.0, 20.0, 0.4, 1e-12, u))


def test_draw_alive_certain_at_recency_boundary():
    # a purchase on the final day leaves no window in which to die, so the
    # conditional alive probability is exactly 1 whatever u is drawn
    u = np.array([0.0, 0.74, 0.76, 0.999999])
    assert np.all(gibbs.draw_alive(2, 10.0, 10.0, 3.0, 1.0, u))


# ---------------------------------------------------------------------------
# dropout time


def test_dropout_time_cdf_endpoints():
    t_x, T, lam, mu = 4.0, 12.0, 0.3, 0.1
    assert gibbs.draw_dropout_time(t_x, T, lam, mu, 0.0) == t_x
    assert_allclose(gibbs.draw_dropout_time(t_x, T, lam, mu, 1.0), T, rtol=1e-12)


def test_dropout_time_uniform_limit_hits_midpoint():
    got = gibbs.draw_dropout_time(4.0, 12.0, 5e-13, 5e-13, 0.5)
    assert_allclose(got, 8.0, rtol=1e-8)


def test_dropout_time_stays_strictly_inside_window():
    rng = np.random.default_rng(5)
    t_x, T = 2.0, 9.0
    for _ in range(200):
        lam, mu = 10 ** rng.uniform(-3, 0.7, size=2)
        u = rng.uniform(1e-12, 1.0 - 1e-12, size=100)
        tau = gibbs.draw_dropout_time(t_x, T, lam, mu, u)
        assert np.all((tau > t_x) & (tau < T))


def test_dropout_time_rejects_empty_window():
    with pytest.raises(ValueError):
        gibbs.draw_dropout_time(10.0, 10.0, 0.3, 0.1, 0.5)


def test_dropout_time_matches_truncated_exponential_cdf():
    t_x, T, lam, mu = 3.0, 40.0, 0.12, 0.08
    theta = lam + mu
    n = 100_000
    u = np.random.default_rng(21).random(n)
    tau = gibbs.draw_dropout_time(t_x, T, lam, mu, u)

    def cdf(v):
        return -np.expm1(-theta * (v - t_x)) / -np.expm1(-theta * (T - t_x))

    d = stats.kstest(tau, cdf).statistic
    assert d < KS_CRIT_1PCT / np.sqrt(n)


# ---------------------------------------------------------------------------
# conjugate rate draws


def test_draw_lambda_prior_only_moment():
    # x=0, exposure=1, r=1, alpha=1: Gamma(1, rate 2), mean 1/2
    hyper = HyperParams(1.0, 1.0, 1.0, 1.0)
    draws = gibbs.draw_lambda(
        np.zeros(100_000), np.ones(100_000), hyper, np.random.default_rng(1)
    )
    assert_allclose(draws.mean(), 0.5, rtol=0.02)


def test_draw_lambda_data_weighted_moment():
    # x=10, exposure=52, r=0.5, alpha=10: Gamma(10.5, rate 62)
    hyper = HyperParams(0.5, 10.0, 1.0, 1.0)
    draws = gibbs.draw_lambda(
        np.full(100_000, 10.0), np.full(100_000, 52.0), hyper,
        np.random.default_rng(2)
    )
    assert_allclose(draws.mean(), 10.5 / 62.0, rtol=0.02)
    assert_allclose(draws.var(), 10.5 / 62.0**2, rtol=0.05)


def test_draw_lambda_rejects_nonpositive_exposure():
    hyper = HyperParams(1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        gibbs.draw_lambda(np.array([1.0]), np.array([0.0]), hyper,
                          np.random.default_rng(0))


def test_draw_mu_alive_moment():
    # alive: Gamma(s, rate beta + T) = Gamma(1, 10), mean 0.1
    hyper = HyperParams(1.0, 1.0, 1.0, 2.0)
    draws = gibbs.draw_mu(
        np.ones(100_000, dtype=bool), np.full(100_000, 8.0), None, hyper,
        np.random.default_rng(3)
    )
    assert_allclose(draws.mean(), 0.1, rtol=0.02)


def test_draw_mu_dead_moment_gains_a_count():
    # dead at tau=3: Gamma(s + 1, rate beta + tau) = Gamma(2, 5), mean 2/5
    hyper = HyperParams(1.0, 1.0, 1.0, 2.0)
    draws = gibbs.draw_mu(
        np.zeros(100_000, dtype=bool), np.full(100_000, 10.0),
        np.full(100_000, 3.0), hyper, np.random.default_rng(4)
    )
    assert_allclose(draws.mean(), 0.4, rtol=0.02)


def test_draw_mu_requires_tau_for_dead_customers():
    hyper = HyperParams(1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        gibbs.draw_mu(np.array([False]), np.array([10.0]), None, hyper,
                      np.random.default_rng(0))


# ---------------------------------------------------------------------------
# hyperparameter update


def chain_hyper_draws(lams, mus, cfg, iters, seed):
    rng = np.random.default_rng(seed)
    hyper = HyperParams(1.0, 1.0, 1.0, 1.0)
    out = np.empty((iters, 4))
    for i in range(iters):
        hyper = gibbs.update_hyperparams(lams, mus, hyper, cfg, rng)
        out[i] = (hyper.r, hyper.alpha, hyper.s, hyper.beta)
    return out


def test_shape_slice_sampler_matches_grid_density():
    # invariant-distribution check: histogram of chained shape draws vs a
    # dense trapezoid evaluation of the same unnormalized density
    rng = np.random.default_rng(8)
    lams = rng.gamma(2.0, 0.5, size=12)
    logpdf = gibbs._shape_marginal(
        lams.size, float(np.sum(np.log(lams))), float(np.sum(lams)), 1.0, 1.0
    )
    draws = np.empty(40_000)
    x = 1.0
    for i in range(draws.size):
        x = gibbs._slice(logpdf, x, rng, lower=0.0)
        draws[i] = x
    draws = draws[500:]

    grid = np.linspace(1e-4, max(draws.max(), 12.0), 4001)
    dens = np.exp([logpdf(g) for g in grid])
    dens /= np.trapezoid(dens, grid)
    edges = np.quantile(draws, np.linspace(0.0, 1.0, 13))
    edges[0], edges[-1] = 0.0, np.inf
    observed = np.histogram(draws, edges)[0] / draws.size
    expected = np.empty(12)
    cdf = np.concatenate([[0.0], np.cumsum(np.diff(grid) * (dens[1:] + dens[:-1]) / 2.0)])
    for k in range(12):
        lo = np.interp(edges[k], grid, cdf, left=0.0, right=1.0)
        hi = np.interp(edges[k + 1], grid, cdf, left=0.0, right=1.0)
        expected[k] = hi - lo
    assert 0.5 * np.abs(observed - expected).sum() < 0.02


def test_hyper_rate_draw_conditional_mean_identity():
    # alpha | r ~ Gamma(a0 + n r, b0 + sum lam), so alpha*(b0 + sum lam)
    # minus (a0 + n r) is mean-zero along the chain
    lams = np.array([0.8, 1.3, 0.4, 2.0])
    mus = np.array([0.5, 0.25, 0.7, 0.1])
    cfg = ChainConfig(hyper_prior=(1e-3, 1e-3))
    draws = chain_hyper_draws(lams, mus, cfg, 20_000, seed=31)
    resid = draws[:, 1] * (1e-3 + lams.sum()) - (1e-3 + lams.size * draws[:, 0])
    batches = resid[: 40 * (resid.size // 40)].reshape(40, -1).mean(axis=1)
    se = batches.std(ddof=1) / np.sqrt(40)
    assert abs(resid.mean()) < 4.0 * se
    # with two unit rates at r = 1 the conditional is Gamma(2.001, 2.001),
    # mean exactly 1
    assert (1e-3 + 2.0 * 1.0) / (1e-3 + 2.0) == 1.0


def test_hyper_rate_draw_scale_equivariance():
    # scaling every lam by c leaves the shape chain's law unchanged and
    # rescales the rate draws by 1/c (up to the tiny b0 offset)
    mus = np.array([0.5, 0.25, 0.7])
    lams = np.array([0.8, 1.3, 0.4])
    c = 10.0
    cfg = ChainConfig(hyper_prior=(1e-3, 1e-3))
    base = chain_hyper_draws(lams, mus, cfg, 20_000, seed=17)[2_000:]
    scaled = chain_hyper_draws(c * lams, mus, cfg, 20_000, seed=940)[2_000:]
    assert_allclose(scaled[:, 0].mean(), base[:, 0].mean(), rtol=0.05)
    assert_allclose(scaled[:, 1].mean(), base[:, 1].mean() / c, rtol=0.05)


def test_update_hyperparams_rejects_bad_rates():
    cfg = ChainConfig()
    with pytest.raises(ValueError):
        gibbs.update_hyperparams(np.array([]), np.array([]),
                                 HyperParams(1, 1, 1, 1), cfg,
                                 np.random.default_rng(0))
    with pytest.raises(ValueError):
        gibbs.update_hyperparams(np.array([1.0, -1.0]), np.array([1.0, 1.0]),
                                 HyperParams(1, 1, 1, 1), cfg,
                                 np.random.default_rng(0))


# ---------------------------------------------------------------------------
# assembled kernel


def test_kernel_preserves_joint_distribution():
    """Successive-conditional chain vs forward simulation from the hierarchy.

    Replacing the data by a fresh forward draw between sweeps makes the
    chain's stationary law equal the prior, so its lambda moments must match
    plain ancestral sampling.  Uses a Gamma(10, 10) hyperprior so the
    compared moments all have finite estimator variance.
    """
    n = 200
    a0 = b0 = 10.0
    rng = np.random.default_rng(77)
    T = rng.uniform(20.0, 70.0, size=n)
    cfg = ChainConfig(sweeps=10, burn_in=1, hyper_prior=(a0, b0))

    hyper = HyperParams(*rng.gamma(a0, 1.0 / b0, size=4))
    lam = np.maximum(rng.gamma(hyper.r, 1.0 / hyper.alpha, size=n), 1e-300)
    mu = np.maximum(rng.gamma(hyper.s, 1.0 / hyper.beta, size=n), 1e-300)
    iters = 20_000
    chain = np.empty((iters, 2))
    for i in range(iters):
        life = rng.exponential(1.0 / mu)
        active = np.minimum(life, T)
        x = rng.poisson(lam * active).astype(float)
        u = rng.random(n)
        t_x = np.where(x > 0, active * u ** (1.0 / np.maximum(x, 1.0)), 0.0)
        lam, mu, hyper = gibbs.gibbs_sweep(x, t_x, T, lam, mu, hyper, cfg, rng)
        chain[i] = (lam.mean(), np.mean(lam**2))
    chain = chain[2_000:]

    fwd_r = rng.gamma(a0, 1.0 / b0, size=400_000)
    fwd_alpha = rng.gamma(a0, 1.0 / b0, size=400_000)
    fwd_lam = rng.gamma(fwd_r, 1.0 / fwd_alpha)
    for col, fwd in ((0, fwd_lam), (1, fwd_lam**2)):
        batches = chain[:, col].reshape(50, -1).mean(axis=1)
        se_chain = batches.std(ddof=1) / np.sqrt(50)
        se_fwd = fwd.std(ddof=1) / np.sqrt(fwd.size)
        z = (chain[:, col].mean() - fwd.mean()) / np.hypot(se_chain, se_fwd)
        assert abs(z) < 4.0, (col, z)


def test_single_uninformative_customer_reproduces_prior_mean():
    hyper = HyperParams(0.5, 10.0, 0.4, 20.0)
    table = data.CalibrationTable(["solo"], [0], [0.0], [1e-9], [0])
    cfg = ChainConfig(sweeps=9000, burn_in=1000, seed=3, fixed_hyper=hyper)
    post = gibbs.run_chain(table, cfg)
    assert_allclose(post.mean_lambda[0], hyper.r / hyper.alpha, rtol=0.10)
    assert_allclose(post.mean_mu[0], hyper.s / hyper.beta, rtol=0.10)


def test_run_chain_deterministic_and_positive():
    cohort = simulate.make_cohort(60, seed=12)
    end = max(r.date for r in cohort.log.records)
    split = data.CohortSplit(tuple(cohort.customer_ids), (),
                             end + datetime.timedelta(days=1), 1.0)
    table = data.summarize_rfm(cohort.log, split, cohort.customer_ids)
    cfg = ChainConfig(sweeps=120, burn_in=40, seed=9)
    a = gibbs.run_chain(table, cfg)
    b = gibbs.run_chain(table, cfg)
    assert np.array_equal(a.mean_lambda, b.mean_lambda)
    assert np.array_equal(a.mean_mu, b.mean_mu)
    assert a.hyper_mean == b.hyper_mean
    assert np.all(a.mean_lambda > 0) and np.all(a.mean_mu > 0)


def test_run_chain_records_hyper_trace_when_asked():
    cohort = simulate.make_cohort(40, seed=2)
    end = max(r.date for r in cohort.log.records)
    split = data.CohortSplit(tuple(cohort.customer_ids), (),
                             end + datetime.timedelta(days=1), 1.0)
    table = data.summarize_rfm(cohort.log, split, cohort.customer_ids)
    cfg = ChainConfig(sweeps=100, burn_in=20, thin=2, seed=1,
                      keep_hyper_trace=True)
    post = gibbs.run_chain(table, cfg)
    assert post.hyper_trace is not None
    assert post.hyper_trace.shape == ((100 - 20) // 2, 4)
    assert np.all(post.hyper_trace > 0)


def reference_sweep(x, t_x, T, lam, mu, hyper, cfg, rng):
    """gibbs_sweep composed from the validated public draws."""
    n = x.shape[0]
    alive = gibbs.draw_alive(x, t_x, T, lam, mu, rng.random(n))
    u_tau = rng.random(n)
    tau = np.where(alive, T, np.nan)
    dead = ~alive
    if np.any(dead):
        tau[dead] = gibbs.draw_dropout_time(
            t_x[dead], T[dead], lam[dead], mu[dead], u_tau[dead])
    exposure = np.where(alive, T, tau)
    lam = gibbs.draw_lambda(x, exposure, hyper, rng)
    mu = gibbs.draw_mu(alive, T, tau, hyper, rng)
    a0, b0 = cfg.hyper_prior
    c_lam = gibbs._population_scale_move(
        lam, hyper.alpha, float(np.sum(lam * exposure)), float(np.sum(x)),
        a0, b0, rng)
    c_mu = gibbs._population_scale_move(
        mu, hyper.beta, float(np.sum(mu * exposure)), float(np.sum(dead)),
        a0, b0, rng)
    lam = np.maximum(lam / c_lam, gibbs._DRAW_FLOOR)
    mu = np.maximum(mu / c_mu, gibbs._DRAW_FLOOR)
    hyper = HyperParams(hyper.r, hyper.alpha * c_lam,
                        hyper.s, hyper.beta * c_mu)
    return lam, mu, gibbs.update_hyperparams(lam, mu, hyper, cfg, rng)


def test_sweep_equals_public_draw_composition_bit_for_bit():
    cohort = simulate.make_cohort(300, seed=21)
    end = max(r.date for r in cohort.log.records)
    split = data.CohortSplit(tuple(cohort.customer_ids), (),
                             end + datetime.timedelta(days=1), 1.0)
    table = data.summarize_rfm(cohort.log, split, cohort.customer_ids)
    x, t_x, T = (np.asarray(a, dtype=float)
                 for a in (table.x, table.t_x, table.T))
    cfg = ChainConfig()
    start = ((x + 1.0) / T, 1.0 / T, HyperParams(1.0, 1.0, 1.0, 1.0))
    got, want = start, start
    rng_got, rng_want = np.random.default_rng(4), np.random.default_rng(4)
    for _ in range(5):
        got = gibbs.gibbs_sweep(x, t_x, T, *got, cfg, rng_got)
        want = reference_sweep(x, t_x, T, *want, cfg, rng_want)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        assert got[2] == want[2]
    assert rng_got.random() == rng_want.random()


def test_chain_config_validation():
    with pytest.raises(ValueError):
        ChainConfig(sweeps=100, burn_in=100)
    with pytest.raises(ValueError):
        ChainConfig(thin=0)


# ---------------------------------------------------------------------------
# labels CSV


def test_labels_csv_round_trip(tmp_path):
    ids = ["a", "b", "c"]
    lam = np.array([0.05, 0.002, 1.25])
    mu = np.array([0.01, 0.3, 0.007])
    path = tmp_path / "labels.csv"
    gibbs.write_labels_csv(path, ids, lam, mu)
    back_ids, back_lam, back_mu = gibbs.read_labels_csv(path)
    assert back_ids == ids
    assert np.array_equal(back_lam, lam)
    assert np.array_equal(back_mu, mu)
