"""Release acceptance suite.

Each test pins one behavioral criterion with explicit tolerances, and a
runtime budget where speed is part of the contract.  The real-dataset
reproduction needs the public CDNOW master file and skips with a warning
when it is absent; everything else runs self-contained on synthetic data
and analytic oracles.
"""

import datetime
import json
import math
import multiprocessing
import os
import threading
import time
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from paretonbd import cli, data, network, simulate
from paretonbd.config import ExperimentConfig
from paretonbd.data import CalibrationTable, CohortSplit
from paretonbd.experiment import StageError, run_experiment, train_workers
from paretonbd.gibbs import (
    ChainConfig,
    HyperParams,
    draw_dropout_time,
    draw_lambda,
    draw_mu,
    run_chain,
)
from paretonbd.likelihood import (
    expected_holdout_purchases,
    grad_log_likelihood,
    log_likelihood,
    p_alive,
)
from paretonbd.metrics import (
    ConfusionMatrix,
    accuracy,
    confusion_matrix,
    consistency,
    mae_metric,
    metric_correlations,
    multi_accuracy,
)
from paretonbd.network import (
    LOSS_KINDS,
    NetworkSpec,
    TrainingConfig,
    init_weights,
    loss_gradient,
    predict_params,
    train,
)

from test_likelihood import (
    central_difference,
    oracle_log_likelihood,
    random_instances,
)
from test_metrics import report
from test_network import finite_difference_grads, micro_batch

GENERATOR_HYPER = HyperParams(r=0.5, alpha=10.0, s=0.4, beta=20.0)


# --------------------------------------------------------------------------
# 1. likelihood equals the death-time quadrature oracle


def test_acceptance_likelihood_oracle_battery():
    # The 10 s bound is on the library's calls; the mpmath oracle is not
    # timed.
    library_s = 0.0
    for x, t_x, T, lam, mu in random_instances(1000, seed=101):
        t0 = time.perf_counter()
        got = log_likelihood(x, t_x, T, lam, mu)
        library_s += time.perf_counter() - t0
        want = oracle_log_likelihood(x, t_x, T, lam, mu)
        # |log difference| <= 1e-8 bounds the relative likelihood error
        assert abs(got - want) <= 1e-8, (x, t_x, T, lam, mu)
    assert library_s < 10.0


# --------------------------------------------------------------------------
# 2. analytic gradients equal central finite differences


def test_acceptance_gradient_suites():
    t0 = time.perf_counter()
    for x, t_x, T, lam, mu in random_instances(300, seed=7):
        got = grad_log_likelihood(x, t_x, T, lam, mu)
        want = central_difference(x, t_x, T, lam, mu, rel_step=1e-5)
        assert_allclose(got, want, rtol=1e-4, atol=1e-8)

    spec = NetworkSpec(input_dim=3, hidden_layers=2, hidden_width=4,
                       dropout_p=0.0)
    w = init_weights(spec, seed=8)
    feats, x, t_x, T, lam, mu = micro_batch(16, seed=9)
    for kind in LOSS_KINDS:
        grad_w, grad_b, _ = loss_gradient(feats, x, t_x, T, lam, mu, w, kind)
        fd = finite_difference_grads(feats, x, t_x, T, lam, mu, w, kind)
        for analytic, numeric in zip(grad_w + grad_b, fd):
            assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-7,
                            err_msg=kind)
    assert time.perf_counter() - t0 < 30.0


# --------------------------------------------------------------------------
# 3. closed-form identities


def test_acceptance_closed_form_identities():
    # recency at the window edge leaves the pure rate share
    assert p_alive(1, 10.0, 10.0, 3.0, 1.0) == 0.75
    # empty horizon forecasts nothing
    assert expected_holdout_purchases(2, 10.0, 30.0, 0.1, 0.02, 0.0) == 0.0
    # vanishing dropout hazard: always alive, Poisson mean lam * h
    assert_allclose(p_alive(2, 5.0, 30.0, 0.4, 1e-12), 1.0, rtol=1e-6)
    got = expected_holdout_purchases(2, 30.0, 30.0, 0.1, 1e-13, 26.0)
    assert_allclose(got, 0.1 * 26.0, rtol=1e-9)


# --------------------------------------------------------------------------
# 4. the Gibbs sampler recovers the generating population


def test_acceptance_gibbs_recovery():
    t0 = time.perf_counter()
    cohort = simulate.make_cohort(2000, seed=2, hyper=GENERATOR_HYPER)
    end = simulate.DEFAULT_START + datetime.timedelta(days=104 * 7)
    split = CohortSplit(tuple(cohort.customer_ids), (), end, 0.0)
    table = data.summarize_rfm(cohort.log, split, cohort.customer_ids)
    post = run_chain(table, ChainConfig(sweeps=4000, burn_in=1000, seed=2))

    h = post.hyper_mean
    truth = (GENERATOR_HYPER.r, GENERATOR_HYPER.alpha,
             GENERATOR_HYPER.s, GENERATOR_HYPER.beta)
    for got, want in zip((h.r, h.alpha, h.s, h.beta), truth):
        assert abs(got - want) <= 0.25 * want, (got, want)

    pos = {cid: i for i, cid in enumerate(cohort.customer_ids)}
    true_lam = cohort.lam[[pos[cid] for cid in post.customer_ids]]
    rho = np.corrcoef(post.mean_lambda, true_lam)[0, 1]
    assert rho > 0.5
    assert time.perf_counter() - t0 < 120.0


# --------------------------------------------------------------------------
# 5. sampler micro-oracles at the 1% level


def _z(draws, target):
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    return (draws.mean() - target) / se


def test_acceptance_sampler_micro_oracles():
    n = 100_000
    z_crit = stats.norm.ppf(0.995)
    rng = np.random.default_rng(505)

    # truncated dropout time against its closed-form CDF
    t_x, T, lam, mu = 3.0, 40.0, 0.12, 0.08
    theta = lam + mu
    u = rng.random(n)
    draws = draw_dropout_time(t_x, T, np.full(n, lam), np.full(n, mu), u)

    def cdf(t):
        return -np.expm1(-theta * (t - t_x)) / -np.expm1(-theta * (T - t_x))

    d = stats.kstest(draws, cdf).statistic
    assert d < 1.63 / math.sqrt(n)

    # purchase-rate conditional: Gamma(r + x, rate alpha + exposure)
    hyper = HyperParams(r=2.0, alpha=3.0, s=1.0, beta=2.0)
    lam_draws = draw_lambda(np.full(n, 4.0), np.full(n, 5.0), hyper, rng)
    shape, rate = 6.0, 8.0
    assert abs(_z(lam_draws, shape / rate)) < z_crit
    assert abs(_z(lam_draws ** 2, shape * (shape + 1) / rate ** 2)) < z_crit

    # dropout-hazard conditionals: alive Gamma(s, beta + T),
    # dead Gamma(s + 1, beta + tau)
    alive_draws = draw_mu(np.ones(n, bool), np.full(n, 8.0), None, hyper, rng)
    assert abs(_z(alive_draws, 1.0 / 10.0)) < z_crit
    assert abs(_z(alive_draws ** 2, 1.0 * 2.0 / 10.0 ** 2)) < z_crit
    dead_draws = draw_mu(np.zeros(n, bool), np.full(n, 8.0),
                         np.full(n, 3.0), hyper, rng)
    assert abs(_z(dead_draws, 2.0 / 5.0)) < z_crit
    assert abs(_z(dead_draws ** 2, 2.0 * 3.0 / 5.0 ** 2)) < z_crit


def test_acceptance_sampler_micro_oracles_below_shape_one():
    # shapes below 1 are drawn as Gamma(a + 1) * U**(1/a); the first two
    # moments must still be those of Gamma(a)
    n = 100_000
    z_crit = stats.norm.ppf(0.995)
    rng = np.random.default_rng(506)
    hyper = HyperParams(r=0.3, alpha=2.0, s=0.4, beta=3.0)

    # no repeat purchases: Gamma(r, rate alpha + exposure) = Gamma(0.3, 7)
    lam_draws = draw_lambda(np.zeros(n), np.full(n, 5.0), hyper, rng)
    shape, rate = 0.3, 7.0
    assert abs(_z(lam_draws, shape / rate)) < z_crit
    assert abs(_z(lam_draws ** 2, shape * (shape + 1) / rate ** 2)) < z_crit

    # alive: Gamma(s, rate beta + T) = Gamma(0.4, 11)
    mu_draws = draw_mu(np.ones(n, bool), np.full(n, 8.0), None, hyper, rng)
    shape, rate = 0.4, 11.0
    assert abs(_z(mu_draws, shape / rate)) < z_crit
    assert abs(_z(mu_draws ** 2, shape * (shape + 1) / rate ** 2)) < z_crit


# --------------------------------------------------------------------------
# 6. metric hand examples, exact


def test_acceptance_metric_examples_exact():
    assert accuracy(ConfusionMatrix(tp=3, fn=1, fp=2, tn=4)) == 0.7
    cm = confusion_matrix([True, False, True], [True, False, True])
    assert accuracy(cm) == 1.0
    assert multi_accuracy([0, 1, 2], [0, 1, 3]) == 2 / 3
    assert multi_accuracy([4, 5], [4, 5]) == 1.0
    assert mae_metric([1, 2], [2, 4]) == 1.5
    assert mae_metric([3, 7], [3, 7]) == 0.0
    assert consistency([2, 0, 5], [2, 0, 5]) == 1.0
    assert consistency([0, 1], [1, 0]) == 0.0
    # binary-exact columns: multi_accuracy anti-ordered against mae
    reports = [report("a", ma=0.25, mae=0.75, total=16.0, cons=0.25),
               report("b", ma=0.5, mae=0.5, total=64.0, cons=0.75),
               report("c", ma=0.75, mae=0.25, total=32.0, cons=0.5)]
    corr = metric_correlations(reports)
    assert all(corr.matrix[i, i] == 1.0 for i in range(4))
    assert corr.matrix[0, 1] == -1.0


# --------------------------------------------------------------------------
# 7. banded reproduction on the CDNOW transaction dataset


def _cdnow_path():
    here = os.path.dirname(os.path.abspath(__file__))
    default = os.path.join(here, os.pardir, "data", "CDNOW_master.txt")
    return os.environ.get("PARETONBD_CDNOW", os.path.abspath(default))


def test_acceptance_cdnow_banded_reproduction(tmp_path):
    path = _cdnow_path()
    if not os.path.exists(path):
        msg = (f"CDNOW master file not found at {path}; place it there or "
               "set PARETONBD_CDNOW to run the banded reproduction test")
        warnings.warn(msg)
        pytest.skip(msg)

    t0 = time.perf_counter()
    cfg = ExperimentConfig(dataset=path, format="cdnow", merge_same_day=True,
                           out=str(tmp_path / "out"), seed=0)
    result = run_experiment(cfg)
    assert result.status == 0

    table = CalibrationTable.from_csv(
        os.path.join(result.outdir, "test_summary.csv"))
    holdout = np.asarray(table.holdout_count)
    assert len(table) == 9428
    actual_total = int(holdout.sum())
    assert abs(actual_total - 7634) <= 0.05 * 7634
    assert abs(float(np.mean(holdout == 0)) - 6582 / 9428) <= 0.02

    reports = {rep.model: rep for rep in result.reports}
    base = reports["pareto_nbd"]
    assert 0.745 <= base.inactive_accuracy <= 0.785
    # posterior-mean labels underestimate aggregate holdout purchasing;
    # the likelihood-trained networks overshoot that baseline
    assert base.total_purchases < actual_total
    for kind in ("nll", "nll_mse", "nll_mae"):
        assert reports[f"nn_{kind}"].total_purchases > base.total_purchases
    assert time.perf_counter() - t0 < 900.0


# --------------------------------------------------------------------------
# 8. training speed at full dataset scale (soft target)


def test_acceptance_surrogate_scale_timing():
    n_train, n_test = 14_142, 9_428
    cohort = simulate.make_cohort(n_train + n_test, seed=88)
    end = simulate.DEFAULT_START + datetime.timedelta(days=104 * 7)
    split = CohortSplit(tuple(cohort.customer_ids), (), end, 0.0)
    table = data.summarize_rfm(cohort.log, split, cohort.customer_ids)

    def rows(lo, hi):
        return CalibrationTable(
            list(table.customer_ids)[lo:hi], table.x[lo:hi],
            table.t_x[lo:hi], table.T[lo:hi],
            holdout_count=table.holdout_count[lo:hi])

    train_table = rows(0, n_train)
    test_table = rows(n_train, n_train + n_test)
    cfg = TrainingConfig(epochs=500, batch_size=256, learning_rate=1e-3,
                         seed=888, early_stop_patience=10,
                         validation_fraction=0.1)

    t0 = time.perf_counter()
    w, scaler, history = train(train_table, cohort.lam[:n_train],
                               cohort.mu[:n_train], cfg, "nll_mse")
    lam_hat, mu_hat = predict_params(test_table, w, scaler)
    elapsed = time.perf_counter() - t0

    assert lam_hat.shape == (n_test,)
    assert np.all(np.isfinite(lam_hat)) and np.all(np.isfinite(mu_hat))
    assert np.all(lam_hat > 0) and np.all(mu_hat > 0)
    if elapsed >= 60.0:
        warnings.warn(
            f"train + predict took {elapsed:.1f} s at 14142/9428 scale; "
            "soft target is 60 s (published reference: 21 s)")


# --------------------------------------------------------------------------
# 9. reruns are byte-identical


def test_acceptance_rerun_byte_identical(tmp_path):
    datadir = tmp_path / "cohort"
    assert cli.main(["simulate", "--n", "200", "--seed", "5",
                     "--out", str(datadir)]) == 0
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        cfg = ExperimentConfig(
            dataset=str(datadir / "transactions.csv"), out=str(out), seed=9,
            epochs=25, batch_size=64, patience=0, losses=("mse", "nll_mse"))
        assert run_experiment(cfg).status == 0
        outs.append(out)
    first, second = outs
    names = sorted(p.name for p in first.glob("forecast_*.csv"))
    assert len(names) == 3
    for name in names + ["labels_train.csv", "labels_test.csv",
                         "metrics.json"]:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


# --------------------------------------------------------------------------
# 10. artifacts keep their pinned bits

# Vectorized math differs across numpy builds and the SIMD targets they
# dispatch to, so the digests below hold for this numpy version on these
# targets only; elsewhere the test skips.  A change that moves the bits on
# purpose records the new digests here and says so.
PINNED_NUMPY = "2.4.6"
PINNED_SIMD = ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"]

# First 16 hex digits of each MANIFEST.json sha256 of pinned_artifacts().
PINNED_DIGESTS = {
    "train_summary.csv": "06fb00da8eb15945",
    "test_summary.csv": "89a75cba129a1bbf",
    "labels_train.csv": "5dfc8b19fca7048a",
    "labels_test.csv": "298b5330cafba79d",
    "model_mse.json": "c5362de1a04517e4",
    "history_mse.csv": "3dd4dfd6b8a54bd1",
    "model_mae.json": "2deb787d5d55f89e",
    "history_mae.csv": "043406740084a2fb",
    "model_nll.json": "b30d1add9c35349b",
    "history_nll.csv": "458a46c2df8be0ef",
    "model_nll_mse.json": "29fcdf2142d87cd5",
    "history_nll_mse.csv": "71c73c09ac693da0",
    "model_nll_mae.json": "746aec948339fffc",
    "history_nll_mae.csv": "57aecc081851fdae",
    "model_ratio.json": "6ba7234a5fd18646",
    "history_ratio.csv": "63e00047b52001a2",
    "model_ratio_mse.json": "af84ad5209f09877",
    "history_ratio_mse.csv": "80755bd852c9341d",
    "model_ratio_mae.json": "d948b372dc3a63f4",
    "history_ratio_mae.csv": "5325d0308882544b",
    "forecast_pareto_nbd.csv": "971873df36c75d3f",
    "forecast_nn_mse.csv": "8670b42b463de4bb",
    "forecast_nn_mae.csv": "346a1606c1b91e33",
    "forecast_nn_nll.csv": "d9b7fcf72c79c517",
    "forecast_nn_nll_mse.csv": "47ce31fdd477c50b",
    "forecast_nn_nll_mae.csv": "0559324a11fd13d0",
    "forecast_nn_ratio.csv": "a8aa8ca929cb8d11",
    "forecast_nn_ratio_mse.csv": "39516314cb7d47f4",
    "forecast_nn_ratio_mae.csv": "78ea5dadda8964a8",
    "metrics.csv": "c4bd092390b68611",
    "metrics.json": "47ccc02b53c8fa66",
    "histograms.csv": "6c2ef45e7b22761e",
    "correlations.csv": "99f360ff5694e8cf",
}


def pinned_artifacts(tmp_path, out="out"):
    """MANIFEST.json artifact digests of a short all-losses run."""
    path = tmp_path / "transactions.csv"
    if not path.exists():
        data.write_transactions_csv(str(path),
                                    simulate.make_cohort(1000, 14).log)
    cfg = ExperimentConfig(dataset=str(path), out=str(tmp_path / out),
                           seed=3, epochs=60, batch_size=64, patience=5)
    result = run_experiment(cfg)
    assert result.status == 0
    return {name: digest[:16]
            for name, digest in result.manifest["artifacts"].items()}


def test_acceptance_artifacts_match_pinned_digests(tmp_path):
    if np.__version__ != PINNED_NUMPY:
        pytest.skip(f"digests pinned under numpy {PINNED_NUMPY}, "
                    f"not {np.__version__}")
    from numpy._core._multiarray_umath import (__cpu_dispatch__,
                                               __cpu_features__)
    simd = [t for t in __cpu_dispatch__ if __cpu_features__[t]]
    if simd != PINNED_SIMD:
        pytest.skip(f"digests pinned on SIMD targets {PINNED_SIMD}, "
                    f"not {simd}")
    assert pinned_artifacts(tmp_path) == PINNED_DIGESTS


# --------------------------------------------------------------------------
# 11. training in worker processes keeps the bits and leaves nothing behind


def assert_no_workers_left():
    assert multiprocessing.active_children() == []
    assert threading.enumerate() == [threading.main_thread()]


def test_acceptance_worker_count_keeps_the_bits(tmp_path, monkeypatch):
    runs = {}
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        out = f"cpus{len(cpus)}"
        runs[len(cpus)] = pinned_artifacts(tmp_path, out)
        assert_no_workers_left()
        timing = json.loads((tmp_path / out / "timing.json").read_text())
        assert timing["train_workers"] == len(cpus)
        assert sorted(timing["per_loss"]) == sorted(network.LOSS_KINDS)
        for kind, entry in timing["per_loss"].items():
            history = (tmp_path / out / f"history_{kind}.csv").read_text()
            assert entry["epochs"] == history.count("\n") - 1
            assert entry["train_s"] > 0
    assert runs[1] == runs[2]
    assert len(runs[1]) == 33


def test_acceptance_no_fork_while_other_threads_run(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert train_workers(8) == 3
    assert train_workers(2) == 2
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert train_workers(8) == 1
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.mark.parametrize("cpus", [{0}, {0, 1}])
def test_acceptance_failed_training_worker_fails_the_stage(
        tmp_path, monkeypatch, cpus):
    real_train = network.train

    def train(table, lam, mu, cfg, kind, **kwargs):
        if kind == "nll":
            raise RuntimeError("injected failure")
        return real_train(table, lam, mu, cfg, kind, **kwargs)

    monkeypatch.setattr(network, "train", train)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    path = tmp_path / "transactions.csv"
    data.write_transactions_csv(str(path), simulate.make_cohort(300, 2).log)
    out = tmp_path / "out"
    cfg = ExperimentConfig(dataset=str(path), out=str(out), seed=1, epochs=3,
                           batch_size=64, patience=0)
    with pytest.raises(StageError, match="injected failure") as info:
        run_experiment(cfg)
    assert info.value.stage == "train"
    assert_no_workers_left()
    manifest = json.loads((out / "MANIFEST.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["failed_stage"] == "train"
    assert manifest["stages_completed"] == ["ingest", "mcmc"]
    # As in a serial run, the kinds before the failed one are recorded.
    trained = sorted(n for n in manifest["artifacts"]
                     if n.startswith(("model_", "history_")))
    assert trained == ["history_mae.csv", "history_mse.csv",
                       "model_mae.json", "model_mse.json"]
