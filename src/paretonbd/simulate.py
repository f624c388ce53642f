"""Ground-truth cohort generator: Gamma-mixed Poisson purchasing with
exponential dropout.

Serves two purposes: a recovery oracle for the estimators (the generating
rates are known per customer) and a stand-in dataset with realistic sparsity
when no transaction log is at hand.

The per-record path works on Python floats and ints: numpy's scalar
functions wrap one float in an array per call, which cost more than the
draws themselves.  Spend is rounded to cents as ``round(v * 100.0) / 100.0``,
which is numpy's own ``np.round(v, 2)`` arithmetic, rint(v * 100) / 100
(Python's ``round`` halves to even like ``rint``), so spends equal
``np.round(v, 2)`` bit for bit.  The Generator draws are the same calls in
the same order either way.
"""

import datetime
import math
from dataclasses import dataclass

import numpy as np

from .data import DAYS_PER_WEEK, TransactionRecord, make_log
from .posterior import HyperParams

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


def _rates(name, values):
    """Per-customer rates as a 1-D float array, each finite and >= 0."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or not np.all(np.isfinite(values) & (values >= 0)):
        raise ValueError(f"{name} must be a sequence of finite rates >= 0")
    return values


def simulate_log(lam, mu, acquisition, end_date, seed, customer_ids=None):
    """Simulate a transaction log for customers with known rates.

    Per customer: a dropout time ~ Exp(mu), a first purchase at the
    acquisition date, and repeat purchases from a Poisson(lam) process up to
    dropout or the end of the window, whichever is first.  Event times are
    quantized to whole days.  A zero lam gives no repeats and a zero mu no
    dropout.
    """
    lam = _rates("lam", lam)
    mu = _rates("mu", mu)
    if customer_ids is None:
        customer_ids = [f"c{i:06d}" for i in range(len(lam))]
    n = len(customer_ids)
    for name, values in (("lam", lam), ("mu", mu),
                         ("acquisition", acquisition)):
        if len(values) != n:
            raise ValueError(f"{name} has {len(values)} entries for "
                             f"{n} customer_ids")
    if n and max(acquisition) > end_date:
        raise ValueError(f"acquisition {max(acquisition)} after the end of "
                         f"the window {end_date}")
    rng = np.random.default_rng(seed)
    records = []
    # Python floats one at a time: .tolist() would hold a second copy of
    # the rates, ~1.5 MB at CDNOW scale, for the whole loop.
    for cid, acq, lam_i, mu_i in zip(customer_ids, acquisition,
                                     map(float, lam), map(float, mu),
                                     strict=True):
        window_weeks = (end_date - acq).days / DAYS_PER_WEEK
        lifetime = rng.exponential(1.0 / mu_i) if mu_i > 0 else math.inf
        active = min(lifetime, window_weeks)
        records.append(_record(rng, cid, acq, 0.0))
        if lam_i > 0:
            t = rng.exponential(1.0 / lam_i)
            while t <= active:
                records.append(_record(rng, cid, acq, t))
                t += rng.exponential(1.0 / lam_i)
    return make_log(records)


def _record(rng, cid, acq, t_weeks):
    date = acq + datetime.timedelta(days=math.floor(t_weeks * DAYS_PER_WEEK))
    spend = round(rng.gamma(2.0, 15.0) * 100.0) / 100.0
    units = int(rng.poisson(1.0)) + 1
    return TransactionRecord(cid, date, spend, units)


def make_cohort(n, seed, hyper=DEFAULT_HYPER, start=DEFAULT_START,
                total_weeks=104, acquisition_weeks=26):
    """Sample a population and simulate its log over a fixed window.

    Acquisition dates are spread uniformly over the first
    ``acquisition_weeks`` so the cohort has staggered calibration lengths;
    it needs 0 < acquisition_weeks <= total_weeks and at least one day.
    """
    acquisition_days = int(acquisition_weeks * DAYS_PER_WEEK)
    if acquisition_days < 1 or acquisition_weeks > total_weeks:
        raise ValueError(
            "need 0 < acquisition_weeks <= total_weeks with at least one "
            f"acquisition day, got acquisition_weeks={acquisition_weeks}, "
            f"total_weeks={total_weeks}")
    lam, mu = sample_population(hyper, n, seed)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    offsets = rng.integers(0, acquisition_days, size=n)
    acquisition = [start + datetime.timedelta(days=d) for d in offsets.tolist()]
    end_date = start + datetime.timedelta(days=int(total_weeks * DAYS_PER_WEEK))
    ids = [f"c{i:06d}" for i in range(n)]
    log = simulate_log(lam, mu, acquisition, end_date,
                       seed=np.random.SeedSequence((seed, 2)), customer_ids=ids)
    return SyntheticCohort(hyper, ids, lam, mu, acquisition, log)
