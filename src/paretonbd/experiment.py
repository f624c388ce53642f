"""Three-stage experiment pipeline.

Stage 1 ingests transactions, splits customers into in-sample and
out-of-sample cohorts, and fits per-customer (lam, mu) labels twice: on the
in-sample cohort as training labels and on the out-of-sample cohort as the
Pareto/NBD baseline estimates.  The labels are empirical-Bayes posterior
means: exact per-customer means at the mode of the posterior of (log r,
log alpha, log s, log beta) under the hyperprior HYPER_PRIOR
(paretonbd.posterior).  The stage keeps the name "mcmc" in MANIFEST.json and
timing.json.  Stage 2 trains one network per configured loss kind on the
labeled in-sample summaries, in forked worker processes, one per usable CPU
(train_models); each kind keeps its own seed, so every artifact has the same
bits whatever the worker count.  Stage 3 forecasts the holdout period for
the out-of-sample cohort with every model and writes the metric tables.
timing.json records the seconds of each stage, the training worker count
and, per loss kind, the train seconds measured in its worker and the epochs
run.

All artifacts land in the configured output directory; MANIFEST.json
records which stages completed, the digest of every deterministic
artifact and the forecast files that collapsed (all-zero counts or
non-finite values; the run still succeeds), so a failed run leaves an
honest partial record behind.

Each stage step is one function here (load_log, fit_labels, fit_model,
write_forecast, evaluate_forecasts, write_metric_tables); run_experiment
composes them and the CLI subcommands call the same functions.
"""

import hashlib
import json
import logging
import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing, contextmanager
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import data, forecast, metrics, network, posterior

logger = logging.getLogger(__name__)

BASELINE_MODEL = "pareto_nbd"


def stage_seed(global_seed, stage):
    """Deterministic 63-bit seed for a named pipeline stage."""
    digest = hashlib.sha256(f"{global_seed}:{stage}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class StageError(RuntimeError):
    def __init__(self, stage, cause):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage


@dataclass
class ExperimentResult:
    status: int
    outdir: str
    manifest: dict
    reports: list


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def load_log(cfg):
    """Ingest cfg.dataset in cfg.format, merging same-day purchases when
    cfg.merge_same_day is set."""
    if cfg.format == "cdnow":
        log = data.ingest_cdnow(cfg.dataset)
    else:
        log = data.ingest_csv(cfg.dataset)
    if cfg.merge_same_day:
        log = data.merge_same_day(log)
    return log


def fit_labels(table, path):
    """Empirical-Bayes posterior mean (lam, mu) per customer, written to the
    labels CSV at path; returns the PosteriorSummary, whose hyper_mean is
    the posterior mode of the population hyperparameters."""
    post = posterior.fit_eb(table)
    posterior.write_labels_csv(path, post.customer_ids,
                               post.mean_lambda, post.mean_mu)
    return post


def fit_model(table, lam, mu, cfg, kind, seed, path, history_path=None):
    """Train the surrogate for one loss kind with cfg's network and training
    settings, save it to the model JSON at path (and the per-epoch history
    to history_path when given); returns (weights, scaler, history)."""
    spec = network.NetworkSpec(
        input_dim=table.features().shape[1],
        hidden_layers=cfg.hidden_layers, hidden_width=cfg.hidden_width,
        dropout_p=cfg.dropout_p)
    train_cfg = network.TrainingConfig(
        epochs=cfg.epochs, batch_size=cfg.batch_size,
        learning_rate=cfg.learning_rate, seed=seed,
        early_stop_patience=cfg.patience,
        validation_fraction=cfg.validation_fraction)
    w, scaler, history = network.train(
        table, lam, mu, train_cfg, kind, spec=spec,
        ratio_interpretation=cfg.ratio_interpretation)
    network.save_model(path, spec, w, scaler,
                       meta={"loss": kind,
                             "ratio_interpretation": cfg.ratio_interpretation,
                             "epochs_run": len(history)})
    if history_path is not None:
        network.write_history_csv(history_path, history)
    return w, scaler, history


# (table, lam, mu, cfg), inherited by the worker processes of train_models.
_worker_inputs = ()


def _set_worker_inputs(*inputs):
    global _worker_inputs
    _worker_inputs = inputs


def _fit_task(task, inputs=None):
    """fit_model for one train_models task, on inputs or else on the
    worker's inherited ones; returns (weights, scaler, train seconds,
    epochs run)."""
    kind, seed, model_path, history_path = task
    t0 = time.perf_counter()
    w, scaler, history = fit_model(*(inputs or _worker_inputs), kind, seed,
                                   model_path, history_path=history_path)
    return w, scaler, time.perf_counter() - t0, len(history)


def train_workers(n_tasks):
    """Worker processes for n_tasks training tasks: one per usable CPU (the
    affinity mask).  It is 1 where the mask or the fork start method is
    missing, or while other threads run: a lock one of them held at the fork
    would stay held in the worker."""
    if (not hasattr(os, "sched_getaffinity") or threading.active_count() > 1
            or "fork" not in multiprocessing.get_all_start_methods()):
        return 1
    return min(n_tasks, len(os.sched_getaffinity(0)))


def train_models(table, lam, mu, cfg, tasks, workers):
    """Run fit_model on (table, lam, mu, cfg) for each (kind, seed, model
    path, history path) task, in `workers` forked processes (inline when
    workers is 1); yields (weights, scaler, train seconds, epochs run) per
    task, in task order.

    The workers inherit the inputs by fork, and each writes its task's model
    and history files, with the bits of a serial run.  The first failed task
    in task order raises its error here.  Exhausting or closing the
    generator shuts the pool down, cancelling tasks not yet started.
    """
    if workers == 1:
        yield from map(partial(_fit_task, inputs=(table, lam, mu, cfg)),
                       tasks)
        return
    with ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork"),
            initializer=_set_worker_inputs,
            initargs=(table, lam, mu, cfg)) as pool:
        yield from pool.map(_fit_task, tasks)


def write_forecast(table, lam, mu, horizon, cfg, path):
    """Forecast the holdout horizon with cfg's threshold and rounding and
    write the forecast CSV at path; returns the ForecastTable.  A collapsed
    forecast is still written, with a warning that names the file."""
    fc = forecast.make_forecast(table, lam, mu, horizon,
                                threshold=cfg.threshold, rounding=cfg.rounding)
    forecast.write_forecast_csv(path, fc)
    reason = forecast.degenerate_reason(fc)
    if reason:
        logger.warning("degenerate forecast %s: %s", path, reason)
    return fc


def evaluate_forecasts(holdout, forecasts, baseline, cap):
    """Score a dict of named ForecastTables against holdout counts.

    The baseline model (when present) anchors the consistency column of
    every other model and itself reports no consistency.
    """
    holdout = np.asarray(holdout)
    reports = []
    base_counts = None
    if baseline in forecasts:
        base_counts = forecasts[baseline].count_pred
        reports.append(metrics.evaluate_forecast(
            forecasts[baseline], holdout, baseline, histogram_cap=cap))
    for name, fc in forecasts.items():
        if name == baseline:
            continue
        reports.append(metrics.evaluate_forecast(
            fc, holdout, name, baseline_counts=base_counts,
            histogram_cap=cap))
    return reports


def write_metric_tables(outdir, reports, holdout, cap):
    """Write metrics.csv/json, histograms.csv, and (when possible)
    correlations.csv; returns the artifact names written."""
    holdout = np.asarray(holdout)
    written = []
    metrics.write_reports_csv(os.path.join(outdir, "metrics.csv"), reports)
    written.append("metrics.csv")
    metrics.write_reports_json(
        os.path.join(outdir, "metrics.json"), reports,
        extra={"actual": {
            "total_purchases": int(np.sum(holdout)),
            "zero_share": float(np.mean(holdout == 0)),
            "cohort_size": int(len(holdout)),
        }})
    written.append("metrics.json")

    hist_rows = {"actual": metrics.count_histogram(holdout, cap)}
    for rep in reports:
        hist_rows[rep.model] = rep.histogram
    metrics.write_histogram_csv(os.path.join(outdir, "histograms.csv"),
                                hist_rows)
    written.append("histograms.csv")

    comparable = [r for r in reports if r.consistency is not None]
    if len(comparable) >= 3:
        corr = metrics.metric_correlations(comparable)
        metrics.write_correlations_csv(
            os.path.join(outdir, "correlations.csv"), corr)
        written.append("correlations.csv")
    else:
        logger.warning("fewer than 3 comparable models; "
                       "skipping correlation table")
    return written


def run_experiment(cfg):
    """Execute the full pipeline; returns an ExperimentResult.

    Any stage failure is recorded in MANIFEST.json and re-raised as a
    StageError after partial outputs are preserved.
    """
    cfg.validate()
    os.makedirs(cfg.out, exist_ok=True)
    manifest = {"stages_completed": [], "artifacts": {}, "config": {
        k: (list(v) if isinstance(v, tuple) else v)
        for k, v in vars(cfg).items()}}
    timing = {"stages": {}, "per_loss": {}}
    reports = []

    def path(name):
        return os.path.join(cfg.out, name)

    def emit(*names):
        for name in names:
            manifest["artifacts"][name] = _sha256(path(name))

    def finish(failed_stage=None, error=None):
        status = 0 if failed_stage is None else 1
        with open(path("timing.json"), "w") as fh:
            json.dump(timing, fh, sort_keys=True, indent=1)
        manifest["status"] = "ok" if status == 0 else "failed"
        if failed_stage is not None:
            manifest["failed_stage"] = failed_stage
            manifest["error"] = str(error)
        with open(path("MANIFEST.json"), "w") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=1)
        return ExperimentResult(status=status, outdir=cfg.out,
                                manifest=manifest, reports=reports)

    @contextmanager
    def stage(name):
        t0 = time.perf_counter()
        try:
            yield
        except Exception as exc:
            finish(failed_stage=name, error=exc)
            raise StageError(name, exc) from exc
        timing["stages"][name] = time.perf_counter() - t0
        manifest["stages_completed"].append(name)

    with stage("ingest"):
        log = load_log(cfg)
        split = data.make_cohort_split(
            log, cfg.train_fraction, seed=stage_seed(cfg.seed, "split"))
        train_table = data.summarize_rfm(
            log, split, split.train_ids, covariate_names=cfg.covariates)
        test_table = data.summarize_rfm(
            log, split, split.test_ids, covariate_names=cfg.covariates)
        train_table.to_csv(path("train_summary.csv"))
        test_table.to_csv(path("test_summary.csv"))
        emit("train_summary.csv", "test_summary.csv")
        horizon = cfg.horizon_weeks
        if horizon is None:
            horizon = split.holdout_length_weeks
        manifest["horizon_weeks"] = horizon
        manifest["split_date"] = split.split_date.isoformat()

    with stage("mcmc"):
        train_post = fit_labels(train_table, path("labels_train.csv"))
        emit("labels_train.csv")
        test_post = fit_labels(test_table, path("labels_test.csv"))
        emit("labels_test.csv")

    models = {}
    with stage("train"):
        tasks = [(kind, stage_seed(cfg.seed, f"train-{kind}"),
                  path(f"model_{kind}.json"), path(f"history_{kind}.csv"))
                 for kind in cfg.losses]
        workers = train_workers(len(tasks))
        timing["train_workers"] = workers
        with closing(train_models(
                train_table, train_post.mean_lambda, train_post.mean_mu, cfg,
                tasks, workers)) as results:
            for kind, (w, scaler, seconds, epochs) in zip(cfg.losses,
                                                          results):
                emit(f"model_{kind}.json", f"history_{kind}.csv")
                models[kind] = (w, scaler)
                timing["per_loss"][kind] = {"train_s": seconds,
                                            "epochs": epochs}

    with stage("predict"):
        name = f"forecast_{BASELINE_MODEL}.csv"
        forecasts = {BASELINE_MODEL: write_forecast(
            test_table, test_post.mean_lambda, test_post.mean_mu, horizon,
            cfg, path(name))}
        emit(name)
        for kind, (w, scaler) in models.items():
            lam, mu = network.predict_params(test_table, w, scaler)
            name = f"forecast_nn_{kind}.csv"
            forecasts[f"nn_{kind}"] = write_forecast(
                test_table, lam, mu, horizon, cfg, path(name))
            emit(name)
        manifest["degenerate_forecasts"] = [
            f"forecast_{model}.csv" for model, fc in forecasts.items()
            if forecast.degenerate_reason(fc)]

    with stage("evaluate"):
        holdout = test_table.holdout_count
        reports.extend(evaluate_forecasts(
            holdout, forecasts, BASELINE_MODEL, cfg.cap))
        emit(*write_metric_tables(cfg.out, reports, holdout, cfg.cap))

    return finish()
