"""Ground-truth cohort generator: Gamma-mixed Poisson purchasing with
exponential dropout.

Serves two purposes: a recovery oracle for the estimators (the generating
rates are known per customer) and a stand-in dataset with realistic sparsity
when no transaction log is at hand.
"""

import datetime
from dataclasses import dataclass

import numpy as np

from .data import DAYS_PER_WEEK, TransactionRecord, make_log
from .gibbs import HyperParams

# Default generating regime: mean purchase rate 0.05/week and mean dropout
# hazard 0.02/week (50-week mean lifetime), which yields sparsity similar to
# retail transaction logs.
DEFAULT_HYPER = HyperParams(r=0.5, alpha=10.0, s=0.4, beta=20.0)
DEFAULT_START = datetime.date(2020, 1, 6)


@dataclass
class SyntheticCohort:
    hyper: HyperParams
    customer_ids: list
    lam: np.ndarray
    mu: np.ndarray
    acquisition: list
    log: object  # TransactionLog


def sample_population(hyper, n, seed):
    """Draw n (lam, mu) pairs: lam ~ Gamma(r, rate alpha), mu ~ Gamma(s, rate beta)."""
    if n < 1:
        raise ValueError("need n >= 1 customers")
    rng = np.random.default_rng(seed)
    lam = rng.gamma(hyper.r, 1.0 / hyper.alpha, size=n)
    mu = rng.gamma(hyper.s, 1.0 / hyper.beta, size=n)
    return lam, mu


def simulate_log(lam, mu, acquisition, end_date, seed, customer_ids=None):
    """Simulate a transaction log for customers with known rates.

    Per customer: a dropout time ~ Exp(mu), a first purchase at the
    acquisition date, and repeat purchases from a Poisson(lam) process up to
    dropout or the end of the window, whichever is first.  Event times are
    quantized to whole days.
    """
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if customer_ids is None:
        customer_ids = [f"c{i:06d}" for i in range(len(lam))]
    rng = np.random.default_rng(seed)
    records = []
    for i, cid in enumerate(customer_ids):
        acq = acquisition[i]
        if acq > end_date:
            raise ValueError("acquisition after the end of the window")
        window_weeks = (end_date - acq).days / DAYS_PER_WEEK
        lifetime = rng.exponential(1.0 / mu[i]) if mu[i] > 0 else np.inf
        active = min(lifetime, window_weeks)
        records.append(_record(rng, cid, acq, 0.0))
        if lam[i] > 0:
            t = rng.exponential(1.0 / lam[i])
            while t <= active:
                records.append(_record(rng, cid, acq, t))
                t += rng.exponential(1.0 / lam[i])
    return make_log(records)


def _record(rng, cid, acq, t_weeks):
    date = acq + datetime.timedelta(days=int(np.floor(t_weeks * DAYS_PER_WEEK)))
    spend = float(np.round(rng.gamma(2.0, 15.0), 2))
    units = int(rng.poisson(1.0)) + 1
    return TransactionRecord(cid, date, spend, units)


def make_cohort(n, seed, hyper=DEFAULT_HYPER, start=DEFAULT_START,
                total_weeks=104, acquisition_weeks=26):
    """Sample a population and simulate its log over a fixed window.

    Acquisition dates are spread uniformly over the first
    ``acquisition_weeks`` so the cohort has staggered calibration lengths.
    """
    lam, mu = sample_population(hyper, n, seed)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    offsets = rng.integers(0, int(acquisition_weeks * DAYS_PER_WEEK), size=n)
    acquisition = [start + datetime.timedelta(days=int(d)) for d in offsets]
    end_date = start + datetime.timedelta(days=int(total_weeks * DAYS_PER_WEEK))
    ids = [f"c{i:06d}" for i in range(n)]
    log = simulate_log(lam, mu, acquisition, end_date,
                       seed=np.random.SeedSequence((seed, 2)), customer_ids=ids)
    return SyntheticCohort(hyper, ids, lam, mu, acquisition, log)
