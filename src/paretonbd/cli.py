"""Command-line interface.

Subcommands mirror the pipeline stages so each is runnable on its own:

  ingest     normalize a raw transactions file to the generic CSV
  simulate   generate a synthetic cohort with known (lam, mu) truth
  fit-mcmc   Gibbs-sample posterior mean (lam, mu) per customer
  train-nn   fit the surrogate network on summaries + labels
  predict    forecast a holdout period from a model or a labels file
  evaluate   score forecast CSVs against observed holdout counts
  run        the whole pipeline from a config file

The stage subcommands call the same stage functions as `run` (see
paretonbd.experiment).  Flags that set an ExperimentConfig field default to
that field's value; `run` layers them over its config file instead.  Stage
seeds inside `run` derive from the global seed; the same artifacts can be
reproduced stage by stage with explicitly passed seeds.
"""

import argparse
import os
import sys
from dataclasses import fields, replace

from . import config as config_mod
from . import data, experiment, forecast, gibbs, network, simulate


def _require(path):
    if not os.path.exists(path):
        raise ValueError(f"missing expected file: {path}")
    return path


_CONFIG_FIELDS = {f.name for f in fields(config_mod.ExperimentConfig)}


def _config(args, base=None):
    """Layer the config-field flags that were given over base (by default
    ExperimentConfig()); flags left unset parse to None and are skipped."""
    given = {k: tuple(v) if isinstance(v, list) else v
             for k, v in vars(args).items()
             if k in _CONFIG_FIELDS and v is not None}
    return replace(base or config_mod.ExperimentConfig(), **given)


def _align_labels(table, ids, lam, mu, path):
    """Reorder a labels file to the summaries' customer order."""
    index = {cid: i for i, cid in enumerate(ids)}
    if len(index) != len(ids):
        raise ValueError(f"{path}: duplicate customer ids")
    missing = [cid for cid in table.customer_ids if cid not in index]
    if missing or len(ids) != len(table):
        raise ValueError(
            f"{path}: label customers do not match the summaries "
            f"({len(missing)} missing, {len(ids)} labeled, {len(table)} summarized)")
    order = [index[cid] for cid in table.customer_ids]
    return lam[order], mu[order]


def cmd_ingest(args):
    cfg = _config(args)
    _require(cfg.dataset)
    log = experiment.load_log(cfg)
    data.write_transactions_csv(args.out, log)
    print(f"{len(log.records)} records, {len(log.customer_ids())} customers, "
          f"{log.start_date} .. {log.end_date} -> {args.out}")
    return 0


def cmd_simulate(args):
    hyper = gibbs.HyperParams(r=args.r, alpha=args.alpha, s=args.s, beta=args.beta)
    windows = {k: getattr(args, k) for k in ("total_weeks", "acquisition_weeks")
               if getattr(args, k) is not None}
    cohort = simulate.make_cohort(args.n, args.seed, hyper=hyper, **windows)
    os.makedirs(args.out, exist_ok=True)
    tx_path = os.path.join(args.out, "transactions.csv")
    data.write_transactions_csv(tx_path, cohort.log)
    truth_path = os.path.join(args.out, "truth.csv")
    gibbs.write_labels_csv(truth_path, cohort.customer_ids, cohort.lam, cohort.mu)
    print(f"{args.n} customers, {len(cohort.log.records)} transactions "
          f"-> {tx_path}, truth -> {truth_path}")
    return 0


def cmd_fit_mcmc(args):
    table = data.CalibrationTable.from_csv(_require(args.summaries))
    cfg = _config(args)
    post = experiment.fit_labels(table, cfg, cfg.seed, args.out,
                                 trace_path=args.trace)
    h = post.hyper_mean
    print(f"{len(table)} customers -> {args.out}  "
          f"posterior mean (r, alpha, s, beta) = "
          f"({h.r:.4f}, {h.alpha:.4f}, {h.s:.4f}, {h.beta:.4f})")
    return 0


def cmd_train_nn(args):
    table = data.CalibrationTable.from_csv(_require(args.summaries))
    ids, lam, mu = gibbs.read_labels_csv(_require(args.labels))
    lam, mu = _align_labels(table, ids, lam, mu, args.labels)
    cfg = _config(args)
    _, _, history = experiment.fit_model(
        table, lam, mu, cfg, args.loss, cfg.seed, args.out,
        history_path=args.history)
    last = history[-1] if history else (None, float("nan"), float("nan"))
    print(f"loss {args.loss}: {len(history)} epochs, "
          f"final train {last[1]:.6g}, val {last[2]:.6g} -> {args.out}")
    return 0


def cmd_predict(args):
    table = data.CalibrationTable.from_csv(_require(args.summaries))
    if args.model is not None:
        _, w, scaler, _ = network.load_model(_require(args.model))
        lam, mu = network.predict_params(table, w, scaler)
    else:
        ids, lam, mu = gibbs.read_labels_csv(_require(args.labels))
        lam, mu = _align_labels(table, ids, lam, mu, args.labels)
    fc = experiment.write_forecast(table, lam, mu, args.horizon,
                                   _config(args), args.out)
    print(f"{len(fc)} customers, {int(fc.count_pred.sum())} predicted purchases, "
          f"{int(fc.inactive_pred.sum())} predicted inactive -> {args.out}")
    return 0


def cmd_evaluate(args):
    table = data.CalibrationTable.from_csv(_require(args.summaries))
    forecasts = {}
    for item in args.forecast:
        name, sep, path = item.partition("=")
        if not sep or not name or not path:
            raise ValueError(f"--forecast expects name=path, got {item!r}")
        fc = forecast.read_forecast_csv(_require(path))
        if list(fc.customer_ids) != list(table.customer_ids):
            raise ValueError(
                f"{path}: forecast customers do not match the summaries")
        forecasts[name] = fc
    if args.baseline is not None and args.baseline not in forecasts:
        raise ValueError(f"baseline {args.baseline!r} not among the forecasts")
    cap = _config(args).cap
    os.makedirs(args.out, exist_ok=True)
    reports = experiment.evaluate_forecasts(
        table.holdout_count, forecasts, args.baseline, cap)
    written = experiment.write_metric_tables(
        args.out, reports, table.holdout_count, cap)
    for rep in reports:
        cons = "" if rep.consistency is None else f", consistency {rep.consistency:.4f}"
        print(f"{rep.model}: accuracy {rep.inactive_accuracy:.4f}, "
              f"multi-accuracy {rep.multi_accuracy:.4f}, mae {rep.mae:.4f}, "
              f"purchases {rep.total_purchases:.0f}{cons}")
    print(f"wrote {', '.join(written)} to {args.out}")
    return 0


def cmd_run(args):
    cfg = _config(args, config_mod.parse_config(_require(args.config)))
    _require(cfg.dataset)
    result = experiment.run_experiment(cfg)
    for rep in result.reports:
        print(f"{rep.model}: accuracy {rep.inactive_accuracy:.4f}, "
              f"mae {rep.mae:.4f}, purchases {rep.total_purchases:.0f}")
    print(f"wrote {len(result.manifest['artifacts'])} artifacts to {result.outdir}")
    return result.status


def build_parser():
    parser = argparse.ArgumentParser(
        prog="paretonbd",
        description="Pareto/NBD parameter estimation with a neural surrogate")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="normalize a raw transactions file")
    p.add_argument("--input", dest="dataset", metavar="INPUT", required=True)
    p.add_argument("--format", choices=("csv", "cdnow"))
    p.add_argument("--merge-same-day", action="store_const", const=True)
    p.add_argument("--out", required=True, help="output transactions CSV")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("simulate", help="generate a synthetic cohort")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weeks", dest="total_weeks", type=int,
                   help="observation window (default: make_cohort's)")
    p.add_argument("--acquisition-weeks", type=int,
                   help="acquisition spread (default: make_cohort's)")
    p.add_argument("--r", type=float, default=simulate.DEFAULT_HYPER.r)
    p.add_argument("--alpha", type=float, default=simulate.DEFAULT_HYPER.alpha)
    p.add_argument("--s", type=float, default=simulate.DEFAULT_HYPER.s)
    p.add_argument("--beta", type=float, default=simulate.DEFAULT_HYPER.beta)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit-mcmc", help="Gibbs-sample (lam, mu) posteriors")
    p.add_argument("--summaries", required=True)
    p.add_argument("--sweeps", type=int)
    p.add_argument("--burn-in", type=int)
    p.add_argument("--thin", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--trace", help="optional hyperparameter trace CSV")
    p.add_argument("--out", required=True, help="output labels CSV")
    p.set_defaults(func=cmd_fit_mcmc)

    p = sub.add_parser("train-nn", help="train the surrogate network")
    p.add_argument("--summaries", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--loss", choices=network.LOSS_KINDS, required=True)
    p.add_argument("--ratio-interpretation",
                   choices=network.RATIO_INTERPRETATIONS)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--patience", type=int)
    p.add_argument("--validation-fraction", type=float)
    p.add_argument("--hidden-layers", type=int)
    p.add_argument("--hidden-width", type=int)
    p.add_argument("--dropout", dest="dropout_p", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--history", help="optional training history CSV")
    p.add_argument("--out", required=True, help="output model JSON")
    p.set_defaults(func=cmd_train_nn)

    p = sub.add_parser("predict", help="forecast the holdout period")
    p.add_argument("--summaries", required=True)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--model", help="model JSON from train-nn")
    src.add_argument("--labels", help="labels CSV with explicit (lam, mu)")
    p.add_argument("--horizon", type=float, required=True, help="weeks")
    p.add_argument("--threshold", type=float)
    p.add_argument("--rounding", choices=forecast.ROUNDING_MODES)
    p.add_argument("--out", required=True, help="output forecast CSV")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score forecasts against holdout truth")
    p.add_argument("--summaries", required=True,
                   help="summaries CSV carrying holdout_count")
    p.add_argument("--forecast", action="append", required=True,
                   metavar="NAME=PATH", help="repeatable")
    p.add_argument("--baseline", help="forecast name anchoring consistency")
    p.add_argument("--cap", type=int)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("run", help="full pipeline from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--loss", dest="losses", action="append",
                   choices=network.LOSS_KINDS,
                   help="repeatable; overrides the configured loss list")
    p.add_argument("--threshold", type=float)
    p.add_argument("--rounding", choices=forecast.ROUNDING_MODES)
    p.add_argument("--cap", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except experiment.StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
