"""Run the whole three-stage experiment on a synthetic cohort.

Stage 1 splits customers 60/40 and fits empirical-Bayes labels for both
cohorts, stage 2 trains one network per configured loss, stage 3 forecasts
the holdout period for the out-of-sample cohort and writes the metric
tables.
Everything derives from one global seed, so rerunning reproduces every
artifact byte for byte.
"""

import json
import os
import tempfile

from paretonbd import cli
from paretonbd.config import ExperimentConfig
from paretonbd.experiment import run_experiment


def main():
    workdir = tempfile.mkdtemp(prefix="paretonbd_demo_")
    datadir = os.path.join(workdir, "cohort")
    cli.main(["simulate", "--n", "400", "--seed", "21", "--out", datadir])

    cfg = ExperimentConfig(
        dataset=os.path.join(datadir, "transactions.csv"),
        out=os.path.join(workdir, "out"),
        seed=6,
        epochs=120, batch_size=64, patience=8,
        losses=("mse", "nll", "nll_mse", "ratio"),
    )
    print(f"running the pipeline into {cfg.out} ...")
    result = run_experiment(cfg)

    print(f"\nstatus: {'ok' if result.status == 0 else 'failed'}, "
          f"stages: {', '.join(result.manifest['stages_completed'])}")
    print(f"{'model':>14}  {'accuracy':>8}  {'multi':>6}  {'mae':>6}  "
          f"{'purchases':>9}")
    for rep in result.reports:
        print(f"{rep.model:>14}  {rep.inactive_accuracy:8.4f}  "
              f"{rep.multi_accuracy:6.4f}  {rep.mae:6.3f}  "
              f"{rep.total_purchases:9.0f}")

    with open(os.path.join(cfg.out, "metrics.json")) as fh:
        doc = json.load(fh)
    print(f"\nactual holdout: {doc['actual']['total_purchases']} purchases, "
          f"{doc['actual']['zero_share']:.1%} of customers bought nothing")
    print(f"artifacts: {', '.join(sorted(result.manifest['artifacts']))}")


if __name__ == "__main__":
    main()
