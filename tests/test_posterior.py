"""Checks of the empirical-Bayes fit: the quadrature kernel against the
closed-form hypergeometric likelihood, finite differences and fixed-hyper
Gibbs chains; the mode fit against recorded maximum-likelihood estimates.
"""

import ast
import datetime
import inspect
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import gammaln, hyp2f1

from paretonbd import data, gibbs, posterior, simulate
from paretonbd.experiment import stage_seed
from paretonbd.gibbs import ChainConfig
from paretonbd.posterior import HyperParams


@pytest.mark.parametrize("n", [8, 24, 32])
def test_gauss_legendre_nodes_match_numpy(n):
    u, w = posterior._gauss_legendre(n)
    want_u, want_w = np.polynomial.legendre.leggauss(n)
    assert_allclose(u, (want_u + 1.0) / 2.0, rtol=0, atol=1e-15)
    assert_allclose(w, want_w / 2.0, rtol=0, atol=1e-14)
    # exact for polynomials of degree 2n - 1 on (0, 1)
    assert_allclose(w @ u ** (2 * n - 1), 1.0 / (2 * n), rtol=1e-13)


def hyp2f1_log_likelihood(x, t_x, T, r, alpha, s, beta):
    """Pareto/NBD log-likelihood in closed form (Fader, Hardie & Lee 2005
    note), on its alpha >= beta and alpha < beta branches."""
    k = r + s + x
    if alpha >= beta:
        def term(t):
            return (hyp2f1(k, s + 1.0, k + 1.0, (alpha - beta) / (alpha + t))
                    * np.exp(-k * np.log(alpha + t)))
    else:
        def term(t):
            return (hyp2f1(k, r + x, k + 1.0, (beta - alpha) / (beta + t))
                    * np.exp(-k * np.log(beta + t)))
    alive = np.exp(-(r + x) * np.log(alpha + T) - s * np.log(beta + T))
    return (gammaln(r + x) - gammaln(r) + r * np.log(alpha) + s * np.log(beta)
            + np.log(alive + s / k * (term(t_x) - term(T))))


def one_customer_log_likelihood(x, t_x, T, r, alpha, s, beta):
    # a flat prior, (a0, b0) = (0, 0), leaves the log-likelihood
    value, _ = posterior.log_posterior(
        np.array([x], dtype=float), np.array([t_x]), np.array([T]),
        np.log([r, alpha, s, beta]), (0.0, 0.0))
    return value


# x = 53 is the largest repeat count of make_cohort(23570, 88)
CDNOW_MLE = (0.533, 10.445, 0.339, 14.14)


@pytest.mark.parametrize("x, t_x, T, hyper", [
    (2, 30.0, 52.0, CDNOW_MLE),              # alpha < beta
    (0, 0.0, 78.0, CDNOW_MLE),
    (53, 70.0, 78.0, CDNOW_MLE),
    (53, 20.0, 78.0, (0.533, 1.0, 0.339, 14.14)),
    (53, 77.9, 78.0, (0.533, 1.0, 0.339, 14.14)),
    (5, 30.0, 40.0, (0.474, 9.77, 0.446, 24.7)),
    (0, 0.0, 30.0, (0.5, 20.0, 0.4, 1.0)),   # alpha >= beta
    (3, 10.0, 60.0, (0.5, 25.0, 2.0, 1.0)),
    (53, 20.0, 78.0, (0.533, 30.0, 0.339, 1.0)),
    (1, 5.0, 60.0, (1.0, 1.0, 1.0, 1.0)),    # r + x == 1
    (0, 0.0, 60.0, (1.0, 1.0, 1.0, 1.0)),
])
def test_log_likelihood_matches_hyp2f1_closed_form(x, t_x, T, hyper):
    got = one_customer_log_likelihood(x, t_x, T, *hyper)
    assert abs(got - hyp2f1_log_likelihood(x, t_x, T, *hyper)) <= 1e-9


def test_log_likelihood_at_full_recency_is_the_alive_term():
    # t_x == T leaves no window in which to die
    r, alpha, s, beta = CDNOW_MLE
    x, T = 53, 78.0
    want = (gammaln(r + x) - gammaln(r) + r * np.log(alpha) + s * np.log(beta)
            - (r + x) * np.log(alpha + T) - s * np.log(beta + T))
    got = one_customer_log_likelihood(x, T, T, *CDNOW_MLE)
    assert_allclose(got, want, rtol=1e-14)


def small_table(n, seed):
    cohort = simulate.make_cohort(n, seed)
    end = simulate.DEFAULT_START + datetime.timedelta(days=104 * 7)
    split = data.CohortSplit(tuple(cohort.customer_ids), (), end, 0.0)
    return data.summarize_rfm(cohort.log, split, cohort.customer_ids)


def arrays(table):
    return (np.asarray(table.x, dtype=float), np.asarray(table.t_x),
            np.asarray(table.T))


@pytest.mark.parametrize("z", [
    np.log(CDNOW_MLE),
    np.log([1.0, 1.0, 1.0, 1.0]),
    np.log([0.3, 30.0, 2.0, 3.0]),
])
def test_gradient_matches_central_differences(z):
    x, t_x, T = arrays(small_table(300, 41))
    _, grad = posterior.log_posterior(x, t_x, T, z)
    step = 1e-5
    for i in range(4):
        e = np.zeros(4)
        e[i] = step
        up, _ = posterior.log_posterior(x, t_x, T, z + e)
        down, _ = posterior.log_posterior(x, t_x, T, z - e)
        assert_allclose(grad[i], (up - down) / (2 * step), rtol=1e-6,
                        atol=1e-6)


def test_posterior_means_match_fixed_hyper_chains():
    # Per customer, the mean of 8 chain means against the exact value, in
    # units of its between-chain standard error, is t-distributed with 7
    # degrees of freedom: mean 0, sd sqrt(7/5) = 1.18.
    hyper = HyperParams(0.5, 10.0, 0.4, 20.0)
    table = small_table(500, 43)
    lam, mu = posterior.posterior_means(*arrays(table), hyper)
    chains = [gibbs.run_chain(table, ChainConfig(
        sweeps=2200, burn_in=200, seed=seed, fixed_hyper=hyper))
        for seed in range(8)]
    for exact, draws in ((lam, [c.mean_lambda for c in chains]),
                         (mu, [c.mean_mu for c in chains])):
        draws = np.array(draws)
        se = draws.std(axis=0, ddof=1) / np.sqrt(len(draws))
        z = (draws.mean(axis=0) - exact) / se
        assert abs(z.mean()) < 0.15, z.mean()
        assert 1.0 < z.std() < 1.4, z.std()


def test_posterior_means_of_an_uninformative_customer_are_the_prior_means():
    hyper = HyperParams(0.5, 10.0, 0.4, 20.0)
    lam, mu = posterior.posterior_means(
        np.array([0.0]), np.array([0.0]), np.array([1e-9]), hyper)
    assert_allclose(lam, hyper.r / hyper.alpha, rtol=1e-9)
    assert_allclose(mu, hyper.s / hyper.beta, rtol=1e-9)


def split_tables(n, cohort_seed, split_seed):
    cohort = simulate.make_cohort(n, cohort_seed)
    split = data.make_cohort_split(cohort.log, 0.6,
                                   seed=stage_seed(split_seed, "split"))
    return (data.summarize_rfm(cohort.log, split, split.train_ids),
            data.summarize_rfm(cohort.log, split, split.test_ids))


def test_mode_fit_recovers_recorded_mle_at_cdnow_scale():
    train, test = split_tables(23570, 88, 0)
    for table, mle in ((test, CDNOW_MLE), (train, (0.474, 9.77, 0.446, 24.7))):
        h = posterior.fit_eb(table).hyper_mean
        assert_allclose([h.r, h.alpha, h.s, h.beta], mle, rtol=0.01)


def test_mode_fit_stays_interior_fast_and_deterministic():
    # the plain MLE of this holdout runs to the homogeneous-mu boundary
    # (s, beta -> infinity); the hyperprior keeps the mode near s = 1.8
    _, test = split_tables(2000, 22, 22)
    times = []
    fits = []
    for _ in range(3):
        t0 = time.perf_counter()
        fits.append(posterior.fit_eb(test))
        times.append(time.perf_counter() - t0)
    h = fits[0].hyper_mean
    assert 1.0 < h.s < 3.0 and 50.0 < h.beta < 300.0, h
    assert posterior.fit_eb(test, (0.0, 0.0)).hyper_mean.s > 1000.0
    assert min(times) < 0.1, times
    for other in fits[1:]:
        assert other.hyper_mean == h
        assert np.array_equal(other.mean_lambda, fits[0].mean_lambda)
        assert np.array_equal(other.mean_mu, fits[0].mean_mu)
    assert other.customer_ids == list(test.customer_ids)
    assert np.all(other.mean_lambda > 0) and np.all(other.mean_mu > 0)


def test_fit_eb_rejects_empty_and_zero_exposure_tables():
    with pytest.raises(ValueError, match="no customers"):
        posterior.fit_eb(data.CalibrationTable([], [], [], [], []))
    with pytest.raises(ValueError, match="exposure"):
        posterior.fit_eb(data.CalibrationTable(["a"], [0], [0.0], [0.0], [0]))


def test_default_pipeline_does_not_import_scipy_optimize(tmp_path):
    # importing scipy.optimize alone costs ~20 MB of resident memory
    path = tmp_path / "transactions.csv"
    data.write_transactions_csv(str(path), simulate.make_cohort(100, 3).log)
    script = (
        "import sys\n"
        "from paretonbd import ExperimentConfig, run_experiment\n"
        f"cfg = ExperimentConfig(dataset={str(path)!r}, "
        f"out={str(tmp_path / 'out')!r}, epochs=2, batch_size=16, "
        "losses=('nll',))\n"
        "assert run_experiment(cfg).status == 0\n"
        "assert 'scipy.optimize' not in sys.modules\n")
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def _package_imports(path):
    """Names of the package modules that a source file imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names.update([node.module] if node.module
                         else (a.name for a in node.names))
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").startswith("paretonbd."):
                names.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            names.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("paretonbd."))
    return names


def test_only_the_cli_and_package_root_import_the_sampler():
    src = pathlib.Path(posterior.__file__).parent
    graph = {path.stem: _package_imports(path) for path in src.glob("*.py")}
    assert sorted(m for m, deps in graph.items() if "gibbs" in deps) == [
        "__init__", "cli"]
    assert not {"gibbs", "network"} & graph["posterior"]
    assert gibbs.HyperParams is posterior.HyperParams
    assert gibbs.PosteriorSummary is posterior.PosteriorSummary
    assert ChainConfig().hyper_prior is posterior.HYPER_PRIOR
    for fit in (posterior.fit_eb, posterior.log_posterior):
        default = inspect.signature(fit).parameters["hyper_prior"].default
        assert default is posterior.HYPER_PRIOR
