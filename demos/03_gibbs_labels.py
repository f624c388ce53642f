"""Estimate per-customer (lam, mu) with the Gibbs sampler and compare the
posterior means against the generator's truth.

The sampler augments the data with latent alive indicators and dropout
times so every conditional is a Gamma draw; hyperparameters get slice
updates.  It is the reference for the pipeline's empirical-Bayes labels
(paretonbd.posterior.fit_eb), and its posterior means over the kept sweeps
are written in the same labels file format.
"""

import datetime

import numpy as np

from paretonbd import data, gibbs, posterior, simulate


def main():
    cohort = simulate.make_cohort(300, seed=17)
    end = simulate.DEFAULT_START + datetime.timedelta(days=104 * 7)
    split = data.CohortSplit(tuple(cohort.customer_ids), (), end, 0.0)
    table = data.summarize_rfm(cohort.log, split, cohort.customer_ids)

    cfg = gibbs.ChainConfig(sweeps=1500, burn_in=500, thin=2, seed=4)
    print(f"running {cfg.sweeps} sweeps on {len(table)} customers ...")
    post = gibbs.run_chain(table, cfg)

    h = post.hyper_mean
    print(f"population posterior mean: r={h.r:.3f}, alpha={h.alpha:.2f}, "
          f"s={h.s:.3f}, beta={h.beta:.2f}")
    print(f"generating values:         r={cohort.hyper.r}, "
          f"alpha={cohort.hyper.alpha}, s={cohort.hyper.s}, "
          f"beta={cohort.hyper.beta}")

    rho_lam = np.corrcoef(post.mean_lambda, cohort.lam)[0, 1]
    rho_mu = np.corrcoef(post.mean_mu, cohort.mu)[0, 1]
    print(f"\nper-customer recovery: corr(lam_hat, lam) = {rho_lam:.3f}, "
          f"corr(mu_hat, mu) = {rho_mu:.3f}")

    order = np.argsort(-table.x)[:5]
    print("\nheaviest buyers:")
    for i in order:
        print(f"  {table.customer_ids[i]}: x={table.x[i]:2d}  "
              f"lam_hat={post.mean_lambda[i]:.3f} (true {cohort.lam[i]:.3f})  "
              f"mu_hat={post.mean_mu[i]:.4f} (true {cohort.mu[i]:.4f})")

    out = "demo_labels.csv"
    posterior.write_labels_csv(out, post.customer_ids,
                               post.mean_lambda, post.mean_mu)
    print(f"\nlabels written to {out}")


if __name__ == "__main__":
    main()
