"""End-to-end tests for the command-line interface.

A module-scoped fixture runs the full pipeline once on a small synthetic
cohort; the per-stage subcommands are then checked to reproduce its
artifacts byte for byte from the same derived seeds.
"""

import csv
import dataclasses
import datetime
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from paretonbd import cli, config, data, forecast, gibbs, posterior, simulate
from paretonbd.experiment import stage_seed

RUN_SEED = 3
RUN_LOSSES = ("mse", "nll_mse", "ratio")

CONFIG_TEMPLATE = """\
# small synthetic experiment
dataset = {dataset}
train_fraction = 0.6
hidden_layers = 1
hidden_width = 8
dropout_p = 0.1
epochs = 25
batch_size = 64
learning_rate = 0.003
patience = 0
validation_fraction = 0.1
losses = {losses}
out = {out}
seed = {seed}
"""


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    datadir = root / "cohort"
    assert cli.main(["simulate", "--n", "200", "--seed", "5",
                     "--out", str(datadir)]) == 0
    outdir = root / "out"
    cfg_path = root / "experiment.cfg"
    cfg_path.write_text(CONFIG_TEMPLATE.format(
        dataset=datadir / "transactions.csv", losses=",".join(RUN_LOSSES),
        out=outdir, seed=RUN_SEED))
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    with open(outdir / "MANIFEST.json") as fh:
        manifest = json.load(fh)
    return {"root": root, "out": outdir, "manifest": manifest,
            "dataset": datadir / "transactions.csv"}


def test_simulate_cli_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert cli.main(["simulate", "--n", "25", "--seed", "7",
                         "--out", str(out)]) == 0
    for name in ("transactions.csv", "truth.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("flags, windows", [
    ([], {}),
    (["--weeks", "60"], {"total_weeks": 60}),
    (["--weeks", "60", "--acquisition-weeks", "8"],
     {"total_weeks": 60, "acquisition_weeks": 8}),
])
def test_simulate_window_flags_default_to_make_cohort(tmp_path, flags, windows):
    assert cli.main(["simulate", "--n", "25", "--seed", "7",
                     "--out", str(tmp_path), *flags]) == 0
    want = tmp_path / "want.csv"
    data.write_transactions_csv(want, simulate.make_cohort(25, 7, **windows).log)
    assert (tmp_path / "transactions.csv").read_bytes() == want.read_bytes()


@pytest.mark.parametrize("flags, message", [
    (["--acquisition-weeks", "0"], "acquisition_weeks=0, total_weeks=104"),
    (["--weeks", "0"], "acquisition_weeks=26, total_weeks=0"),
])
def test_simulate_cli_rejects_bad_window(tmp_path, capsys, flags, message):
    assert cli.main(["simulate", "--n", "25", "--out", str(tmp_path),
                     *flags]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "transactions.csv").exists()


def test_ingest_cli_normalizes_cdnow(tmp_path, capsys):
    raw = tmp_path / "raw.txt"
    raw.write_text("00001 19970102 1 11.77\n"
                   "00001 19970102 2 20.00\n"
                   "00002 19970115 1 5.25\n")
    out = tmp_path / "tx.csv"
    rc = cli.main(["ingest", "--input", str(raw), "--format", "cdnow",
                   "--merge-same-day", "--out", str(out)])
    assert rc == 0
    log = data.ingest_csv(str(out))
    # the two same-day rows of customer 00001 merge into one record
    assert len(log.records) == 2
    assert log.records[0].units == 3
    assert_allclose(log.records[0].spend, 31.77)
    assert "2 records, 2 customers" in capsys.readouterr().out


def test_run_pipeline_smoke(pipeline):
    out = pipeline["out"]
    manifest = pipeline["manifest"]
    expected = ["train_summary.csv", "test_summary.csv",
                "labels_train.csv", "labels_test.csv",
                "forecast_pareto_nbd.csv", "metrics.csv", "metrics.json",
                "histograms.csv", "correlations.csv",
                "timing.json", "MANIFEST.json"]
    for kind in RUN_LOSSES:
        expected += [f"model_{kind}.json", f"history_{kind}.csv",
                     f"forecast_nn_{kind}.csv"]
    for name in expected:
        assert (out / name).exists(), name
    assert manifest["status"] == "ok"
    assert manifest["stages_completed"] == [
        "ingest", "mcmc", "train", "predict", "evaluate"]
    assert manifest["horizon_weeks"] > 0
    # digests in the manifest match the files on disk
    for name in ("metrics.csv", "labels_train.csv"):
        assert manifest["artifacts"][name] == _sha256(out / name)
    # every CSV artifact has \n line endings and rows as wide as its header
    csvs = sorted(out.glob("*.csv"))
    assert len(csvs) == len([n for n in expected if n.endswith(".csv")])
    for path in csvs:
        assert b"\r" not in path.read_bytes(), path.name
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert rows and all(len(row) == len(header) for row in rows), path.name
    with open(out / "metrics.json") as fh:
        doc = json.load(fh)
    models = {rep["model"] for rep in doc["reports"]}
    assert models == {"pareto_nbd"} | {f"nn_{k}" for k in RUN_LOSSES}


def test_stage_composition_reproduces_run(pipeline, tmp_path):
    out = pipeline["out"]
    manifest = pipeline["manifest"]

    relabels = tmp_path / "labels_train.csv"
    assert cli.main(["fit-labels", "--summaries",
                     str(out / "train_summary.csv"),
                     "--out", str(relabels)]) == 0
    assert relabels.read_bytes() == (out / "labels_train.csv").read_bytes()

    remodel = tmp_path / "model_mse.json"
    assert cli.main(["train-nn", "--summaries", str(out / "train_summary.csv"),
                     "--labels", str(relabels), "--loss", "mse",
                     "--epochs", "25", "--batch-size", "64",
                     "--learning-rate", "0.003", "--patience", "0",
                     "--validation-fraction", "0.1",
                     "--hidden-layers", "1", "--hidden-width", "8",
                     "--dropout", "0.1",
                     "--seed", str(stage_seed(RUN_SEED, "train-mse")),
                     "--out", str(remodel)]) == 0
    assert remodel.read_bytes() == (out / "model_mse.json").read_bytes()

    refc = tmp_path / "forecast.csv"
    assert cli.main(["predict", "--summaries", str(out / "test_summary.csv"),
                     "--labels", str(out / "labels_test.csv"),
                     "--horizon", repr(manifest["horizon_weeks"]),
                     "--out", str(refc)]) == 0
    assert refc.read_bytes() == (out / "forecast_pareto_nbd.csv").read_bytes()

    refc_nn = tmp_path / "forecast_nn.csv"
    assert cli.main(["predict", "--summaries", str(out / "test_summary.csv"),
                     "--model", str(remodel),
                     "--horizon", repr(manifest["horizon_weeks"]),
                     "--out", str(refc_nn)]) == 0
    assert refc_nn.read_bytes() == (out / "forecast_nn_mse.csv").read_bytes()


def test_fit_mcmc_matches_library_chain(pipeline, tmp_path, capsys):
    summaries = pipeline["out"] / "train_summary.csv"
    out, trace = tmp_path / "labels.csv", tmp_path / "trace.csv"
    assert cli.main(["fit-mcmc", "--summaries", str(summaries),
                     "--sweeps", "150", "--burn-in", "50", "--thin", "2",
                     "--seed", "17", "--trace", str(trace),
                     "--out", str(out)]) == 0
    assert "posterior mean (r, alpha, s, beta)" in capsys.readouterr().out
    post = gibbs.run_chain(data.CalibrationTable.from_csv(str(summaries)),
                           gibbs.ChainConfig(sweeps=150, burn_in=50, thin=2,
                                             seed=17))
    want = tmp_path / "want.csv"
    posterior.write_labels_csv(str(want), post.customer_ids, post.mean_lambda,
                               post.mean_mu)
    assert out.read_bytes() == want.read_bytes()
    assert len(trace.read_text().splitlines()) == 1 + 50


def test_fit_labels_prints_the_mode_and_takes_no_chain_flags(pipeline,
                                                             tmp_path, capsys):
    summaries = str(pipeline["out"] / "train_summary.csv")
    assert cli.main(["fit-labels", "--summaries", summaries,
                     "--out", str(tmp_path / "labels.csv")]) == 0
    assert "posterior mode (r, alpha, s, beta)" in capsys.readouterr().out
    for flag in ("--sweeps", "--seed", "--trace"):
        with pytest.raises(SystemExit):
            cli.main(["fit-labels", "--summaries", summaries, flag, "1",
                      "--out", str(tmp_path / "flagged.csv")])
    assert not (tmp_path / "flagged.csv").exists()


def test_fit_labels_rejects_a_non_finite_summary(tmp_path):
    # NaN fails every comparison: unchecked, it would keep the fit's line
    # search from ever ending, so the subprocess runs under a timeout
    summaries, out = tmp_path / "summaries.csv", tmp_path / "labels.csv"
    summaries.write_text("customer_id,x,t_x,T,holdout_count\n"
                         "a,2,30.0,52.0,0\nb,1,10.0,nan,1\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run(
        [sys.executable, "-m", "paretonbd.cli", "fit-labels",
         "--summaries", str(summaries), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert done.stderr == "error: T must be finite\n"
    assert not out.exists()


def _hand_summaries(path):
    # ids with a comma or a quote must be quoted in every CSV artifact
    table = data.CalibrationTable(
        ["a,b", 'q"x', "c"], [2, 3, 1], [30.0, 52.0, 52.0], [52.0, 52.0, 52.0],
        holdout_count=[0, 1, 3])
    table.to_csv(str(path))
    return table


def test_predict_from_labels_matches_library(tmp_path):
    table = _hand_summaries(tmp_path / "summaries.csv")
    lam = np.array([0.01, 0.2, 0.3])
    mu = np.array([5.0, 0.02, 0.01])
    posterior.write_labels_csv(str(tmp_path / "labels.csv"),
                               table.customer_ids, lam, mu)
    out = tmp_path / "fc.csv"
    assert cli.main(["predict", "--summaries", str(tmp_path / "summaries.csv"),
                     "--labels", str(tmp_path / "labels.csv"),
                     "--horizon", "26", "--out", str(out)]) == 0
    got = forecast.read_forecast_csv(str(out))
    want = forecast.make_forecast(table, lam, mu, 26.0)
    assert_allclose(got.p_alive, want.p_alive, rtol=0)
    assert_allclose(got.expected, want.expected, rtol=0)
    assert np.array_equal(got.count_pred, want.count_pred)


def test_evaluate_cli_writes_tables(tmp_path, capsys):
    table = _hand_summaries(tmp_path / "summaries.csv")
    base = forecast.ForecastTable(
        table.customer_ids, np.array([0.05, 0.9, 0.8]),
        np.array([True, False, False]),
        np.array([0.0, 4.1, 6.6]), np.array([0, 4, 7]))
    nn = forecast.ForecastTable(
        table.customer_ids, np.array([0.04, 0.88, 0.83]),
        np.array([True, False, False]),
        np.array([0.0, 3.9, 6.4]), np.array([0, 4, 6]))
    forecast.write_forecast_csv(str(tmp_path / "base.csv"), base)
    forecast.write_forecast_csv(str(tmp_path / "nn.csv"), nn)
    out = tmp_path / "eval"
    rc = cli.main(["evaluate", "--summaries", str(tmp_path / "summaries.csv"),
                   "--forecast", f"base={tmp_path / 'base.csv'}",
                   "--forecast", f"nn={tmp_path / 'nn.csv'}",
                   "--baseline", "base", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "base: accuracy 1.0000" in printed
    assert "consistency" in printed
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0].startswith("model,")
    assert lines[1].startswith("base,") and ",," in lines[1]
    assert lines[2].startswith("nn,")
    # two comparable models only, so no correlation table
    assert not (out / "correlations.csv").exists()


def test_missing_input_is_reported(tmp_path, capsys):
    summaries = tmp_path / "summaries.csv"
    for content in (None, ""):  # a missing file, then an empty one
        if content is not None:
            summaries.write_text(content)
        rc = cli.main(["fit-mcmc", "--summaries", str(summaries),
                       "--out", str(tmp_path / "labels.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(summaries) in err


def test_evaluate_rejects_malformed_forecast_arg(tmp_path, capsys):
    _hand_summaries(tmp_path / "summaries.csv")
    rc = cli.main(["evaluate", "--summaries", str(tmp_path / "summaries.csv"),
                   "--forecast", "noequals", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "name=path" in capsys.readouterr().err


def test_run_failure_leaves_manifest(tmp_path, capsys):
    # a single-customer log cannot be split, so the ingest stage fails
    rec = data.TransactionRecord("only", datetime.date(2021, 1, 4), 9.99, 1)
    log = data.make_log([rec,
                         data.TransactionRecord("only", datetime.date(2021, 3, 1),
                                                4.00, 1)])
    data.write_transactions_csv(str(tmp_path / "tx.csv"), log)
    out = tmp_path / "out"
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(f"dataset = {tmp_path / 'tx.csv'}\nout = {out}\n")
    rc = cli.main(["run", "--config", str(cfg_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: stage 'ingest' failed")
    with open(out / "MANIFEST.json") as fh:
        manifest = json.load(fh)
    assert manifest["status"] == "failed"
    assert manifest["failed_stage"] == "ingest"
    assert manifest["stages_completed"] == []


def test_config_round_trip(tmp_path):
    cfg = config.ExperimentConfig(dataset="d.csv", out="o", seed=11,
                                  losses=("mse",), covariates=("units",),
                                  merge_same_day=True, horizon_weeks=39.0)
    path = tmp_path / "a.cfg"
    config.write_config(str(path), cfg)
    again = config.parse_config(str(path))
    assert again == cfg


def test_config_rejects_unknown_and_duplicate_keys(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("dataset = d.csv\nnonsense = 1\n")
    with pytest.raises(ValueError, match="unknown key"):
        config.parse_config(str(path))
    path.write_text("dataset = a\ndataset = b\n")
    with pytest.raises(ValueError, match="duplicate key"):
        config.parse_config(str(path))
    path.write_text("merge_same_day = yep\n")
    with pytest.raises(ValueError, match="true or false"):
        config.parse_config(str(path))
    path.write_text("dataset = d.csv\nout = o\nsweeps = 4000\n")
    with pytest.raises(ValueError, match="unknown key 'sweeps'"):
        config.parse_config(str(path))


@pytest.mark.parametrize("horizon", ["0", "-1", "nan", "inf"])
def test_run_rejects_a_bad_horizon_before_any_stage(tmp_path, capsys,
                                                     horizon):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(f"dataset = {cfg_path}\nout = {tmp_path / 'out'}\n"
                        f"horizon_weeks = {horizon}\n")
    assert cli.main(["run", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err == "error: horizon_weeks must be positive and finite\n"
    assert not (tmp_path / "out").exists()


def test_run_flags_override_config_file(pipeline, tmp_path):
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(
        f"dataset = {pipeline['dataset']}\n"
        "hidden_width = 8\nepochs = 3\nbatch_size = 64\nlosses = mse\n"
        f"threshold = 0.6\ncap = 4\nseed = 1\nout = {tmp_path / 'unused'}\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg_path), "--seed", "9",
                     "--out", str(out), "--loss", "mae", "--loss", "nll",
                     "--threshold", "0.25", "--rounding", "floor",
                     "--cap", "5"]) == 0
    with open(out / "MANIFEST.json") as fh:
        got = json.load(fh)["config"]
    assert got["seed"] == 9
    assert got["out"] == str(out)
    assert got["losses"] == ["mae", "nll"]
    assert got["threshold"] == 0.25
    assert got["rounding"] == "floor"
    assert got["cap"] == 5
    # keys without a flag keep their config-file values
    assert (got["hidden_width"], got["epochs"],
            got["batch_size"]) == (8, 3, 64)
    assert got["dataset"] == str(pipeline["dataset"])


@pytest.mark.parametrize("argv", [
    ["fit-mcmc", "--summaries", "s.csv", "--out", "o"],
    ["train-nn", "--summaries", "s.csv", "--labels", "l.csv",
     "--loss", "mse", "--out", "o"],
    ["predict", "--summaries", "s.csv", "--labels", "l.csv",
     "--horizon", "26", "--out", "o"],
    ["evaluate", "--summaries", "s.csv", "--forecast", "a=b.csv",
     "--out", "o"],
], ids=lambda argv: argv[0])
def test_stage_flags_default_to_experiment_config(argv):
    args = cli.build_parser().parse_args(argv)
    names = {f.name for f in dataclasses.fields(config.ExperimentConfig)}
    unset = {k: v for k, v in vars(args).items() if k in names and k != "out"}
    assert unset and all(v is None for v in unset.values()), unset
    built = cli._config(args)
    assert dataclasses.replace(built, out="") == config.ExperimentConfig()
