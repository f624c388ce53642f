"""Train the neural surrogate on empirical-Bayes labels, as the pipeline
does, and predict rates for customers it never saw.

The network maps standardized (x, t_x, T) to (lam, mu) through an exp
output layer.  Losses range from plain parameter-space MSE to objectives
that embed the model likelihood of each customer's own history.
"""

import numpy as np

from paretonbd import data, network, posterior, simulate


def main():
    cohort = simulate.make_cohort(600, seed=23)
    split = data.make_cohort_split(cohort.log, train_fraction=0.6, seed=1)
    train_table = data.summarize_rfm(cohort.log, split, split.train_ids)
    test_table = data.summarize_rfm(cohort.log, split, split.test_ids)
    print(f"{len(train_table)} in-sample / {len(test_table)} out-of-sample "
          f"customers, split at {split.split_date}")

    train_post = posterior.fit_eb(train_table)
    test_post = posterior.fit_eb(test_table)
    print("empirical-Bayes labels ready (the test-side fit is only a "
          "reference for judging the surrogate)")

    cfg = network.TrainingConfig(epochs=200, batch_size=64,
                                 learning_rate=1e-3, seed=7,
                                 early_stop_patience=10,
                                 validation_fraction=0.1)
    spec = network.NetworkSpec(input_dim=train_table.features().shape[1])
    for kind in ("mse", "nll_mse"):
        w, scaler, history = network.train(
            train_table, train_post.mean_lambda, train_post.mean_mu,
            cfg, kind, spec=spec)
        lam_hat, mu_hat = network.predict_params(test_table, w, scaler)
        rho = np.corrcoef(lam_hat, test_post.mean_lambda)[0, 1]
        mae = np.mean(np.abs(lam_hat - test_post.mean_lambda))
        first, last = history[0], history[-1]
        print(f"\nloss {kind}: {len(history)} epochs "
              f"(train {first[1]:.4f} -> {last[1]:.4f})")
        print(f"  out-of-sample vs Bayes labels: corr(lam) = {rho:.3f}, "
              f"MAE(lam) = {mae:.4f}")
        network.save_model(f"demo_model_{kind}.json", spec, w, scaler,
                           meta={"loss": kind})

    print("\nmodels written to demo_model_mse.json / demo_model_nll_mse.json")


if __name__ == "__main__":
    main()
