"""The benchmark's workloads, correctness gates and metric derivations.

Every workload drives the library only through its public functions:
``run_experiment`` for the pipelines and ``CalibrationTable`` +
``predict_params`` + ``make_forecast`` for scoring.  Library functions are
called through their module (``data.summarize_rfm(...)``) so that the
tracing hooks, which replace module attributes, see the calls.

Workloads
  pipeline_cdnow  one ``run_experiment`` on ``make_cohort(23570, seed)``
                  written as a transactions CSV, default config.
  pipeline_small  ``run_experiment`` on four 2,000-customer cohorts
                  (cohort seeds 4*seed .. 4*seed+3).  Early stopping makes
                  the work of one small cohort vary by +-10% with the seed,
                  so four are pooled and wall_s is their mean.
  score_online    one closed-loop client scoring held-out customers one at a
                  time with a net trained in set-up on the known true rates.

After each pipeline, its own ``nll_mse`` net serves online scoring requests
(20,000 per run in all), so every workload reports the scoring latency too.
The pipelines run this fixed amount of work whatever --seconds says; only
score_online's request loop is timed to --seconds.  On score_online, wall_s
is the median time to score the whole held-out cohort one request at a
time, and the "baseline" is the forecast from the known true rates (there
is no Gibbs run to give posterior means).
"""

import hashlib
import json
import os
import resource
import statistics
import time

import numpy as np

from paretonbd import config, data, experiment, forecast, network, simulate
from tracer import Hook, Hooks, SpanView, Tracer, percentile

CDNOW_CUSTOMERS = 23570
SMALL_CUSTOMERS = 2000
SMALL_COHORTS = 4
SETUP_REPEATS = 5
PIPELINE_REQUESTS = 20_000
TRAIN_FRACTION = 0.6
SCORE_KIND = "nll_mse"
SCORE_EPOCHS = 100
STAGES = ["ingest", "mcmc", "train", "predict", "evaluate"]
LIKELIHOOD_FNS = ("log_likelihood", "grad_log_likelihood",
                  "conditional_p_alive", "p_alive",
                  "expected_holdout_purchases")
# Responses must match the whole-cohort batch scoring this closely; a
# one-row matmul may take another BLAS kernel than the batch one.
SCORE_RTOL = 1e-9
THROUGHPUT_BLOCK = 2000
MAX_PROBLEMS = 20  # failed checks kept in the run record; all are counted


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _chain_label(args, kwargs, call):
    # run_experiment runs the in-sample chain first, then the holdout one.
    return "gibbs.chain." + ("train" if call % 2 == 0 else "test")


def _chain_note(args, kwargs, result):
    table, cfg = _arg(args, kwargs, 0, "table"), _arg(args, kwargs, 1, "cfg")
    return {"gibbs.customer_sweeps": len(table) * cfg.sweeps}


def _train_label(args, kwargs, call):
    return "network.train." + _arg(args, kwargs, 4, "kind")


def _train_note(args, kwargs, result):
    return {"network.epochs." + _arg(args, kwargs, 4, "kind"): len(result[2])}


HOOKS = [
    Hook("paretonbd.data", "ingest_csv", "data.ingest",
         note=lambda a, k, log: {"data.records": len(log.records)}),
    Hook("paretonbd.data", "make_cohort_split", "data.split"),
    Hook("paretonbd.data", "summarize_rfm", "data.summarize"),
    Hook("paretonbd.gibbs", "run_chain", _chain_label, note=_chain_note),
    Hook("paretonbd.gibbs", "gibbs_sweep", "gibbs.sweep"),
    Hook("paretonbd.gibbs", "conditional_p_alive",
         "likelihood.conditional_p_alive"),
    Hook("paretonbd.network", "train", _train_label, note=_train_note),
    Hook("paretonbd.network", "loss_gradient", "network.loss_gradient"),
    Hook("paretonbd.network", "predict_params", "network.predict"),
    Hook("paretonbd.network", "log_likelihood", "likelihood.log_likelihood"),
    Hook("paretonbd.network", "grad_log_likelihood",
         "likelihood.grad_log_likelihood"),
    Hook("paretonbd.forecast", "make_forecast", "forecast.make_forecast"),
    Hook("paretonbd.forecast", "write_forecast_csv", "forecast.write"),
    Hook("paretonbd.forecast", "p_alive", "likelihood.p_alive"),
    Hook("paretonbd.forecast", "expected_holdout_purchases",
         "likelihood.expected_holdout_purchases"),
    Hook("paretonbd.metrics", "evaluate_forecast", "metrics.evaluate"),
    Hook("paretonbd.metrics", "metric_correlations", "metrics.evaluate"),
    Hook("paretonbd.metrics", "write_reports_csv", "metrics.write"),
    Hook("paretonbd.metrics", "write_reports_json", "metrics.write"),
    Hook("paretonbd.metrics", "write_histogram_csv", "metrics.write"),
    Hook("paretonbd.metrics", "write_correlations_csv", "metrics.write"),
]

# Spans of run_experiment's direct callees; with experiment.self_s they
# partition the traced pipeline wall time.
PIPELINE_LAYER_METRICS = (
    "data.ingest_s", "data.split_s", "data.summarize_s",
    "gibbs.chain_s.train", "gibbs.chain_s.test",
    *(f"network.train_s.{k}" for k in network.LOSS_KINDS),
    "network.predict_s", "forecast.make_forecast_s", "forecast.write_s",
    "metrics.evaluate_s", "metrics.write_s", "experiment.self_s",
)


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def is_degenerate(fc):
    """All-zero or non-finite forecast counts: a collapsed model."""
    return bool(np.all(fc.count_pred == 0)
                or not np.all(np.isfinite(fc.expected))
                or not np.all(np.isfinite(fc.p_alive)))


def forecast_problems(fc):
    """Reasons a forecast table fails the output gate (empty when sound)."""
    problems = []
    if not (np.all(np.isfinite(fc.p_alive)) and np.all(np.isfinite(fc.expected))):
        problems.append("non-finite values")
    elif np.any(fc.p_alive < 0) or np.any(fc.p_alive > 1):
        problems.append("p_alive outside [0, 1]")
    return problems


class Quality:
    """Holdout errors pooled over every cohort of a run."""

    def __init__(self):
        self.abs_err = {}
        self.expected = {}
        self.actual = 0
        self.degenerate = 0

    def add(self, holdout, forecasts):
        self.actual += int(np.sum(holdout))
        for model, fc in forecasts.items():
            self.abs_err.setdefault(model, []).append(
                np.abs(fc.count_pred - holdout))
            self.expected[model] = self.expected.get(model, 0.0) + float(
                np.sum(fc.expected))
            self.degenerate += is_degenerate(fc)

    def mae(self, model):
        return float(np.mean(np.concatenate(self.abs_err[model])))

    def total_err_pct(self, model):
        return abs(self.expected[model] - self.actual) / self.actual * 100.0


class Run:
    """State of one benchmark invocation: inputs, outcome counters, trace."""

    def __init__(self, root, workload, seed, seconds, trace):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.state_dir = os.path.join(root, ".perfbench_work")
        self.workdir = os.path.join(self.state_dir,
                                    f"{workload}-{seed}-{os.getpid()}")
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems = []
        self.e2e = {}
        self.layer = {}
        self.record = {}
        self.tracer = None
        self.missing_hooks = []
        self.src_digest = self._src_digest()
        os.makedirs(self.workdir, exist_ok=True)

    def _src_digest(self):
        h = hashlib.sha256()
        src = os.path.join(self.root, "src", "paretonbd")
        for name in sorted(os.listdir(src)):
            if name.endswith(".py"):
                h.update(name.encode())
                with open(os.path.join(src, name), "rb") as fh:
                    h.update(fh.read())
        return h.hexdigest()

    def problem(self, message):
        self.correct = False
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(message)

    def fail(self, message):
        self.failed += 1
        self.problem(message)

    def check_digests(self, key, digests):
        """Byte-identical reruns: compare artifact digests with the first
        run of the same inputs and source in this checkout."""
        path = os.path.join(self.state_dir, "digests.json")
        seen = {}
        if os.path.exists(path):
            with open(path) as fh:
                seen = json.load(fh)
        full_key = f"{self.src_digest[:16]}:np{np.__version__}:{key}"
        if full_key in seen:
            if seen[full_key] != digests:
                diff = sorted(k for k in set(seen[full_key]) | set(digests)
                              if seen[full_key].get(k) != digests.get(k))
                return f"{key}: outputs differ from an earlier run: {diff}"
            return None
        seen[full_key] = digests
        tmp = path + f".{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(seen, fh, sort_keys=True, indent=1)
        os.replace(tmp, path)
        return None

    def repeat_setup(self, setup, digest):
        """Run set-up SETUP_REPEATS times (once when traced) and report the
        median time; every repeat must produce identical inputs."""
        times, state, first = [], None, None
        for _ in range(1 if self.trace else SETUP_REPEATS):
            t0 = time.perf_counter()
            state = setup()
            times.append(time.perf_counter() - t0)
            d = digest(state)
            if first is None:
                first = d
            elif d != first:
                self.problem("set-up is not deterministic for a fixed seed")
        self.e2e["setup_s"] = statistics.median(times)
        self.record["setup_runs_s"] = times
        return state

    def traced(self):
        """Context manager that installs the hooks on a fresh tracer."""
        self.tracer = Tracer()
        hooks = Hooks(self.tracer, HOOKS)
        self.missing_hooks = hooks.missing
        return hooks

    def finish(self, quality, wall_of, walls, untraced_walls, latencies_ns,
               nn_models):
        """Derive the metrics.  ``wall_of`` reduces the run's wall times
        (one per pipeline, or one per scoring pass) to wall_s."""
        self.e2e["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        self.e2e["wall_s"] = wall_of(walls)
        self.e2e["baseline_mae"] = quality.mae(experiment.BASELINE_MODEL)
        self.e2e["nn_mae_mean"] = float(np.mean(
            [quality.mae(m) for m in nn_models]))
        lat_us = np.asarray(latencies_ns, dtype=float) / 1e3
        self.e2e["score_p50_us"] = percentile(lat_us, 0.50)
        self.e2e["score_customers_per_s"] = block_throughput(lat_us)
        self.record["walls_s"] = walls
        self.record["score_requests"] = len(lat_us)
        self.record["score_p99_us"] = percentile(lat_us, 0.99)
        if self.tracer is None:
            return
        overhead = None
        if untraced_walls:
            overhead = 100.0 * (wall_of(walls) / wall_of(untraced_walls) - 1.0)
            self.record["untraced_walls_s"] = untraced_walls
        self.layer = layer_metrics(
            SpanView(self.tracer), overhead, quality.degenerate,
            quality.total_err_pct(experiment.BASELINE_MODEL))
        self.tracer.save(os.path.join(
            self.state_dir, f"trace-{self.workload}-{self.seed}.npz"))


def block_throughput(lat_us):
    """Requests per second of busy time, as the median over consecutive
    blocks of THROUGHPUT_BLOCK requests, so a burst of interference from
    outside the process moves one block rather than the whole figure."""
    blocks = [lat_us[i:i + THROUGHPUT_BLOCK] for i in
              range(0, len(lat_us) - THROUGHPUT_BLOCK + 1, THROUGHPUT_BLOCK)]
    if not blocks:
        return None
    return statistics.median(1e6 * len(b) / float(np.sum(b)) for b in blocks)


def serve(run, table, w, scaler, horizon, reference, requests=None,
          seconds=None):
    """Closed loop, one client: score customers of ``table`` one request at
    a time, cycling through it, for ``requests`` requests or whole passes
    until ``seconds`` have elapsed.

    Returns (per-request latencies in ns, wall time of each whole pass).
    Each response is checked against ``reference``, the whole-cohort batch
    forecast.
    """
    rows = list(zip(table.customer_ids, table.x.tolist(), table.t_x.tolist(),
                    table.T.tolist()))
    n = len(rows)
    tracer = run.tracer
    latencies, pass_walls, done = [], [], 0
    clock_ns = time.perf_counter_ns
    t_begin = time.perf_counter()
    while True:
        m = n if requests is None else min(n, requests - done)
        got_p = np.full(m, np.nan)
        got_e = np.full(m, np.nan)
        got_c = np.full(m, -1, dtype=np.int64)
        first_id = run.attempted  # request ids stay unique within a run
        t0 = time.perf_counter()
        for i in range(m):
            cid, x, t_x, T = rows[i]
            r0 = clock_ns()
            if tracer is not None:
                tracer.request_id = first_id + i
                rid = tracer.open("score.request")
            try:
                if tracer is not None:
                    tid = tracer.open("data.table")
                    try:
                        one = data.CalibrationTable([cid], [x], [t_x], [T], [0])
                    finally:
                        tracer.close(tid)
                else:
                    one = data.CalibrationTable([cid], [x], [t_x], [T], [0])
                lam, mu = network.predict_params(one, w, scaler)
                fc = forecast.make_forecast(one, lam, mu, horizon)
            except ValueError as exc:
                run.fail(f"request {cid}: {exc}")
                continue
            finally:
                if tracer is not None:
                    tracer.close(rid)
                    tracer.request_id = -1
            latencies.append(clock_ns() - r0)
            got_p[i], got_e[i], got_c[i] = fc.p_alive[0], fc.expected[0], fc.count_pred[0]
        wall = time.perf_counter() - t0
        if m == n:
            pass_walls.append(wall)
        run.attempted += m
        ok = (np.isclose(got_p, reference.p_alive[:m], rtol=SCORE_RTOL, atol=0)
              & np.isclose(got_e, reference.expected[:m], rtol=SCORE_RTOL,
                           atol=0)
              & (got_c == reference.count_pred[:m]))
        for i in np.flatnonzero(~ok):
            if not np.isnan(got_p[i]):
                run.fail(f"request {rows[i][0]}: response differs from the "
                         "batch forecast")
        done += m
        if requests is not None and done >= requests:
            break
        if requests is None and time.perf_counter() - t_begin >= seconds:
            break
    return latencies, pass_walls


# ---------------------------------------------------------------- pipelines

def _pipeline_once(run, dataset, seed, n, quality, tag):
    """One run_experiment call plus its output gate.  Returns (wall time,
    output directory, manifest, holdout summaries, forecasts by model), or
    None when the call or the gate failed."""
    out = os.path.join(run.workdir, f"out-{seed}-{tag}")
    cfg = config.ExperimentConfig(dataset=dataset, out=out, seed=seed)
    run.attempted += 1
    tracer = run.tracer
    sid = tracer.open("experiment.run") if tracer is not None else None
    t0 = time.perf_counter()
    try:
        result = experiment.run_experiment(cfg)
    except experiment.StageError as exc:
        run.fail(f"pipeline seed {seed}: {exc}")
        return None
    finally:
        wall = time.perf_counter() - t0
        if sid is not None:
            tracer.close(sid)

    problems = []
    manifest = result.manifest
    if manifest.get("status") != "ok":
        problems.append(f"MANIFEST status {manifest.get('status')!r}")
    if manifest.get("stages_completed") != STAGES:
        problems.append(f"stages {manifest.get('stages_completed')}")
    test_table = data.CalibrationTable.from_csv(
        os.path.join(out, "test_summary.csv"))
    forecasts = {}
    models = [experiment.BASELINE_MODEL] + [
        f"nn_{k}" for k in network.LOSS_KINDS]
    for model in models:
        fc = forecast.read_forecast_csv(
            os.path.join(out, f"forecast_{model}.csv"))
        if list(fc.customer_ids) != list(test_table.customer_ids):
            problems.append(f"{model}: customers differ from the test cohort")
            continue
        problems += [f"{model}: {p}" for p in forecast_problems(fc)]
        forecasts[model] = fc
    digest_problem = run.check_digests(f"pipeline:{n}:{seed}",
                                       manifest.get("artifacts", {}))
    if digest_problem:
        problems.append(digest_problem)
    if problems:
        run.fail(f"pipeline seed {seed}: " + "; ".join(problems))
        return None
    if quality is not None:
        quality.add(test_table.holdout_count, forecasts)
        run.record.setdefault("degenerate_models", []).append(
            [m for m, fc in forecasts.items() if is_degenerate(fc)])
        # Early stopping sets how much training a seed costs.
        epochs = {}
        for kind in network.LOSS_KINDS:
            with open(os.path.join(out, f"history_{kind}.csv")) as fh:
                epochs[kind] = sum(1 for _ in fh) - 1
        run.record.setdefault("epochs", []).append(epochs)
    return wall, out, manifest, test_table, forecasts


def pipeline(run, n, cohorts):
    seeds = [run.seed * cohorts + i for i in range(cohorts)]
    paths = [os.path.join(run.workdir, f"transactions-{s}.csv") for s in seeds]

    def setup():
        for s, path in zip(seeds, paths):
            cohort = simulate.make_cohort(n, s)
            data.write_transactions_csv(path, cohort.log)
        return paths

    run.repeat_setup(setup, lambda ps: [sha256_file(p) for p in ps])
    run.record["cohort_seeds"] = seeds

    def all_cohorts(tag, quality, requests):
        """Run every cohort's pipeline; after each, score ``requests`` of
        its holdout customers online with its own nll_mse net."""
        walls, latencies = [], []
        for s, path in zip(seeds, paths):
            done = _pipeline_once(run, path, s, n, quality, tag)
            if done is None:
                continue
            wall, out, manifest, test_table, forecasts = done
            walls.append(wall)
            if requests:
                _, w, scaler, _ = network.load_model(
                    os.path.join(out, f"model_{SCORE_KIND}.json"))
                lat, _ = serve(run, test_table, w, scaler,
                               manifest["horizon_weeks"],
                               forecasts[f"nn_{SCORE_KIND}"],
                               requests=requests)
                latencies += lat
        return walls, latencies

    requests = PIPELINE_REQUESTS // cohorts
    untraced_walls = []
    quality = Quality()
    if run.trace:
        untraced_walls, _ = all_cohorts("untraced", None, 0)
        with run.traced():
            walls, latencies = all_cohorts("traced", quality, requests)
    else:
        walls, latencies = all_cohorts("untraced", quality, requests)
    if not walls:
        return
    # Early stopping makes each cohort's work vary with its seed; the mean
    # over the run's cohorts averages that out better than their median.
    run.finish(quality, statistics.fmean, walls, untraced_walls, latencies,
               [f"nn_{k}" for k in network.LOSS_KINDS])
    if run.trace:
        accounted = sum(run.layer[name] for name in PIPELINE_LAYER_METRICS)
        run.record["trace_accounted_pct"] = 100.0 * accounted / sum(walls)
        if abs(accounted - sum(walls)) > 0.01 * sum(walls):
            run.problem(f"layer spans cover {accounted:.3f} s of "
                        f"{sum(walls):.3f} s traced wall time")


# ------------------------------------------------------------- score_online

def _score_setup(seed):
    """Cohort, summaries and one nll_mse net trained on the true rates."""
    cohort = simulate.make_cohort(CDNOW_CUSTOMERS, seed)
    split = data.make_cohort_split(cohort.log, TRAIN_FRACTION,
                                   seed=experiment.stage_seed(seed, "split"))
    train_table = data.summarize_rfm(cohort.log, split, split.train_ids)
    test_table = data.summarize_rfm(cohort.log, split, split.test_ids)
    pos = {cid: i for i, cid in enumerate(cohort.customer_ids)}
    tr = [pos[c] for c in train_table.customer_ids]
    te = [pos[c] for c in test_table.customer_ids]
    cfg = network.TrainingConfig(
        epochs=SCORE_EPOCHS, early_stop_patience=0,
        seed=experiment.stage_seed(seed, f"train-{SCORE_KIND}"))
    w, scaler, _ = network.train(train_table, cohort.lam[tr], cohort.mu[tr],
                                 cfg, SCORE_KIND)
    horizon = split.holdout_length_weeks
    lam, mu = network.predict_params(test_table, w, scaler)
    batch = forecast.make_forecast(test_table, lam, mu, horizon)
    truth = forecast.make_forecast(test_table, cohort.lam[te], cohort.mu[te],
                                   horizon)
    return test_table, w, scaler, horizon, batch, truth


def _score_digest(state):
    test_table, w, scaler, horizon, batch, truth = state
    h = hashlib.sha256()
    for a in (*w.arrays(), scaler.mean, scaler.std, batch.p_alive,
              batch.expected, batch.count_pred, truth.expected,
              test_table.x, test_table.t_x, test_table.T):
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(repr(horizon).encode())
    return h.hexdigest()


def score_online(run):
    state = run.repeat_setup(lambda: _score_setup(run.seed), _score_digest)
    digest = _score_digest(state)
    digest_problem = run.check_digests(f"score:{CDNOW_CUSTOMERS}:{run.seed}",
                                       {"setup": digest})
    if digest_problem:
        run.problem(digest_problem)
    untraced_walls = []
    if run.trace:
        _, untraced_walls = serve(run, *state[:5], seconds=run.seconds)
        with run.traced():
            state = _score_setup(run.seed)
            if _score_digest(state) != digest:
                run.problem("set-up under tracing hooks gives other outputs")
            latencies, walls = serve(run, *state[:5], seconds=run.seconds)
    else:
        latencies, walls = serve(run, *state[:5], seconds=run.seconds)
    test_table, _, _, _, batch, truth = state
    for name, fc in (("truth", truth), (f"nn_{SCORE_KIND}", batch)):
        for p in forecast_problems(fc):
            run.problem(f"{name} forecast: {p}")
    quality = Quality()
    quality.add(test_table.holdout_count,
                {experiment.BASELINE_MODEL: truth, f"nn_{SCORE_KIND}": batch})
    run.finish(quality, statistics.median, walls, untraced_walls, latencies,
               [f"nn_{SCORE_KIND}"])


WORKLOADS = {
    "pipeline_cdnow": lambda run: pipeline(run, CDNOW_CUSTOMERS, 1),
    "pipeline_small": lambda run: pipeline(run, SMALL_CUSTOMERS,
                                           SMALL_COHORTS),
    "score_online": score_online,
}


# ---------------------------------------------------------- layer metrics

def _pct(values, q, scale):
    v = percentile(values, q)
    return None if v is None else v * scale


def layer_metrics(view, overhead_pct, degenerate, baseline_total_err_pct):
    """Per-layer metrics from a finished trace; None marks a metric whose
    spans are absent or too few for the percentile."""
    m = {}
    dur = view.dur
    own = view.self_time(only={"network.loss_gradient"})
    batches = 0
    for kind in network.LOSS_KINDS:
        label = f"network.train.{kind}"
        train_ids = view.ids(label)
        mine = view.children(label, "network.loss_gradient")
        batches += mine.size
        m[f"network.train_s.{kind}"] = float(dur[train_ids].sum())
        m[f"network.epochs.{kind}"] = view.counts.get(f"network.epochs.{kind}", 0)
        m[f"network.batches.{kind}"] = int(mine.size)
        m[f"network.batch_us_p50.{kind}"] = _pct(dur[mine], 0.50, 1e6)
        m[f"network.train_self_s.{kind}"] = float(own[train_ids].sum())

    for fn in LIKELIHOOD_FNS:
        ids = view.ids(f"likelihood.{fn}")
        m[f"likelihood.calls.{fn}"] = int(ids.size)
        m[f"likelihood.s.{fn}"] = float(dur[ids].sum())
    net_calls = (m["likelihood.calls.log_likelihood"]
                 + m["likelihood.calls.grad_log_likelihood"])
    m["likelihood.calls_per_batch"] = net_calls / batches if batches else None

    for which in ("train", "test"):
        label = f"gibbs.chain.{which}"
        m[f"gibbs.chain_s.{which}"] = view.total(label)
        mine = view.children(label, "gibbs.sweep")
        m[f"gibbs.sweep_ms_p50.{which}"] = _pct(dur[mine], 0.50, 1e3)
        m[f"gibbs.sweep_ms_p99.{which}"] = _pct(dur[mine], 0.99, 1e3)
    chain_s = m["gibbs.chain_s.train"] + m["gibbs.chain_s.test"]
    m["gibbs.customer_sweeps_per_s"] = (
        view.counts.get("gibbs.customer_sweeps", 0) / chain_s
        if chain_s else 0.0)

    m["data.ingest_s"] = view.total("data.ingest", request=False)
    m["data.split_s"] = view.total("data.split", request=False)
    m["data.summarize_s"] = view.total("data.summarize", request=False)
    m["data.records_per_s"] = (
        view.counts.get("data.records", 0) / m["data.ingest_s"]
        if m["data.ingest_s"] else 0.0)

    def per_request(name, values=dur):
        return values[view.ids(name, request=True)]

    m["data.table_us_p50"] = _pct(per_request("data.table"), 0.50, 1e6)
    m["network.predict_us_p50"] = _pct(per_request("network.predict"),
                                       0.50, 1e6)
    m["forecast.make_forecast_us_p50"] = _pct(
        per_request("forecast.make_forecast"), 0.50, 1e6)
    m["forecast.self_us_p50"] = _pct(
        per_request("forecast.make_forecast", view.self_time()), 0.50, 1e6)
    m["score.request_us_p50"] = _pct(per_request("score.request"), 0.50, 1e6)
    m["score.request_us_p99"] = _pct(per_request("score.request"), 0.99, 1e6)

    m["network.predict_s"] = view.total("network.predict", request=False)
    m["forecast.make_forecast_s"] = view.total("forecast.make_forecast",
                                               request=False)
    m["forecast.write_s"] = view.total("forecast.write")
    m["metrics.evaluate_s"] = view.total("metrics.evaluate")
    m["metrics.write_s"] = view.total("metrics.write")
    m["experiment.self_s"] = float(
        view.self_time()[view.ids("experiment.run")].sum())
    m["trace.overhead_pct"] = overhead_pct
    m["forecast.degenerate_forecasts"] = degenerate
    m["forecast.baseline_total_err_pct"] = baseline_total_err_pct
    return m
