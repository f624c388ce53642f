"""Tests for the synthetic cohort generator.

Distributional checks compare large seeded samples against closed-form
moments and CDFs of the generating process.
"""

import datetime
import hashlib
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from paretonbd import data, simulate
from paretonbd.posterior import HyperParams
from paretonbd.likelihood import log_likelihood

# 1% critical value of the one-sample KS statistic, asymptotic
KS_CRIT_1PCT = 1.63


def test_sample_population_moments():
    hyper = simulate.DEFAULT_HYPER
    n = 100_000
    lam, mu = simulate.sample_population(hyper, n, seed=314)
    assert lam.shape == (n,) and mu.shape == (n,)
    assert np.all(lam > 0) and np.all(mu > 0)
    assert_allclose(lam.mean(), hyper.r / hyper.alpha, rtol=0.01)
    assert_allclose(mu.mean(), hyper.s / hyper.beta, rtol=0.01)
    # second moment of a Gamma(r, rate a) is r(r+1)/a^2
    assert_allclose(np.mean(lam ** 2),
                    hyper.r * (hyper.r + 1) / hyper.alpha ** 2, rtol=0.02)


def test_sample_population_exponential_case():
    # shape 1 collapses the mixing law to Exponential(rate)
    hyper = HyperParams(r=1.0, alpha=2.0, s=1.0, beta=3.0)
    n = 100_000
    lam, mu = simulate.sample_population(hyper, n, seed=55)
    d_lam = stats.kstest(lam, "expon", args=(0.0, 1.0 / hyper.alpha)).statistic
    d_mu = stats.kstest(mu, "expon", args=(0.0, 1.0 / hyper.beta)).statistic
    assert d_lam < KS_CRIT_1PCT / np.sqrt(n)
    assert d_mu < KS_CRIT_1PCT / np.sqrt(n)


def test_sample_population_requires_customers():
    with pytest.raises(ValueError):
        simulate.sample_population(simulate.DEFAULT_HYPER, 0, seed=1)


def _flat_acquisition(n, day):
    return [day] * n


def test_simulate_log_zero_lambda_yields_single_record():
    start = datetime.date(2021, 3, 1)
    end = start + datetime.timedelta(days=70)
    n = 5
    log = simulate.simulate_log(np.zeros(n), np.full(n, 0.05),
                                _flat_acquisition(n, start), end, seed=9)
    groups = log.by_customer()
    assert len(groups) == n
    for recs in groups.values():
        assert len(recs) == 1
        assert recs[0].date == start


def test_simulate_log_huge_dropout_kills_repeats():
    # lifetime ~ Exp(1e6) is far shorter than any inter-purchase wait
    start = datetime.date(2021, 3, 1)
    end = start + datetime.timedelta(days=70)
    n = 100
    log = simulate.simulate_log(np.full(n, 5.0), np.full(n, 1e6),
                                _flat_acquisition(n, start), end, seed=10)
    assert len(log.records) == n


def test_simulate_log_repeat_mean_matches_renewal_formula():
    # with rates (lam, mu) fixed and horizon H, the expected repeat count is
    # lam * (1 - exp(-mu H)) / mu
    lam, mu, weeks = 0.1, 0.02, 26.0
    n = 40_000
    start = datetime.date(2021, 3, 1)
    end = start + datetime.timedelta(days=int(weeks * 7))
    log = simulate.simulate_log(np.full(n, lam), np.full(n, mu),
                                _flat_acquisition(n, start), end, seed=42)
    repeats = len(log.records) - n
    want = lam * -np.expm1(-mu * weeks) / mu
    assert_allclose(repeats / n, want, rtol=0.01)


def test_simulate_log_determinism():
    lam, mu = simulate.sample_population(simulate.DEFAULT_HYPER, 30, seed=4)
    start = datetime.date(2021, 3, 1)
    acq = _flat_acquisition(30, start)
    end = start + datetime.timedelta(days=364)
    a = simulate.simulate_log(lam, mu, acq, end, seed=5)
    b = simulate.simulate_log(lam, mu, acq, end, seed=5)
    c = simulate.simulate_log(lam, mu, acq, end, seed=6)
    assert a.records == b.records
    assert a.records != c.records


def _records_digest(records):
    """sha256 over every field of every record, spend as its exact repr."""
    h = hashlib.sha256()
    for r in records:
        h.update(f"{r.customer_id},{r.date.isoformat()},{r.spend!r},"
                 f"{r.units}\n".encode())
    return h.hexdigest()


def test_simulator_records_pinned():
    # Recorded with np.round / np.floor on the per-record path; the Python
    # float path must match it.  Any changed draw, rounding, date or order
    # shows here.
    cohort = simulate.make_cohort(300, 5)
    assert len(cohort.log.records) == 1203
    assert _records_digest(cohort.log.records) == (
        "fa886452186ea716d1618a743fbdbc518bf4921abf882c4d1a7ddfbac2693d09")
    start = datetime.date(2021, 3, 1)
    end = start + datetime.timedelta(days=200)
    acq = [start, start + datetime.timedelta(days=3), start,
           start + datetime.timedelta(days=40), end]
    log = simulate.simulate_log([0.0, 0.4, 1.5, 0.2, 0.3],
                                [0.05, 0.0, 0.1, 0.0, 0.02], acq, end,
                                seed=17, customer_ids=["z", "b", "a", "m", "q"])
    assert len(log.records) == 68
    assert _records_digest(log.records) == (
        "e5bfa1ffd677774f90d7c064e617e8fe346a5c3ddb4b1099fb02a7a7a66c0a3d")


def test_spend_rounding_matches_numpy_round():
    # The simulator rounds spend as round(v * 100) / 100 on Python floats.
    draws = np.random.default_rng(21).gamma(2.0, 15.0, size=100_000).tolist()
    halfway = [(2 * k + 1) / 8 for k in range(4000)]
    for v in draws + halfway:
        assert round(v * 100.0) / 100.0 == float(np.round(v, 2))
    # exact halves in cents, where half-to-even and half-away differ
    assert [round(v * 100.0) / 100.0 for v in (0.125, 0.375)] == [0.12, 0.38]
    for t in draws:
        assert math.floor(t * 7.0) == int(np.floor(t * 7.0))


def test_simulate_log_rejects_late_acquisition():
    start = datetime.date(2021, 3, 1)
    with pytest.raises(ValueError):
        simulate.simulate_log([0.1], [0.1],
                              [start + datetime.timedelta(days=10)],
                              start, seed=0)


@pytest.mark.parametrize("kwargs, name", [
    ({"lam": [0.1, 0.3]}, "lam"),
    ({"mu": [0.1, 0.1, 0.1, 0.1]}, "mu"),
    ({"acquisition": [datetime.date(2021, 3, 1)] * 2}, "acquisition"),
    ({"customer_ids": ["a"]}, "lam"),
])
def test_simulate_log_rejects_unequal_lengths(kwargs, name):
    start = datetime.date(2021, 3, 1)
    args = {"lam": [0.1, 0.3, 0.2], "mu": [0.1] * 3,
            "acquisition": [start] * 3,
            "end_date": start + datetime.timedelta(days=70), "seed": 1,
            "customer_ids": ["a", "b", "c"], **kwargs}
    with pytest.raises(ValueError, match=name):
        simulate.simulate_log(**args)


@pytest.mark.parametrize("bad", [-0.5, np.nan, np.inf])
@pytest.mark.parametrize("name", ["lam", "mu"])
def test_simulate_log_rejects_bad_rates(name, bad):
    start = datetime.date(2021, 3, 1)
    rates = {"lam": [0.1, 0.2], "mu": [0.1, 0.2]}
    rates[name] = [0.1, bad]
    with pytest.raises(ValueError, match=name):
        simulate.simulate_log(rates["lam"], rates["mu"], [start] * 2,
                              start + datetime.timedelta(days=70), seed=1)


@pytest.mark.parametrize("windows", [
    {"acquisition_weeks": 0},
    {"acquisition_weeks": -3},
    {"acquisition_weeks": 0.1},
    {"total_weeks": 0},
    {"total_weeks": 20, "acquisition_weeks": 26},
])
def test_make_cohort_rejects_bad_window(windows):
    with pytest.raises(ValueError, match="acquisition_weeks=.*total_weeks="):
        simulate.make_cohort(10, seed=1, **windows)


def test_make_cohort_structure():
    n = 50
    cohort = simulate.make_cohort(n, seed=3)
    assert cohort.customer_ids == [f"c{i:06d}" for i in range(n)]
    assert cohort.lam.shape == (n,) and cohort.mu.shape == (n,)
    first_window = simulate.DEFAULT_START + datetime.timedelta(days=26 * 7)
    for acq in cohort.acquisition:
        assert simulate.DEFAULT_START <= acq < first_window
    end = simulate.DEFAULT_START + datetime.timedelta(days=104 * 7)
    assert cohort.log.end_date <= end
    # every customer has at least the acquisition record
    assert cohort.log.customer_ids() == cohort.customer_ids


def test_make_cohort_determinism():
    a = simulate.make_cohort(40, seed=12)
    b = simulate.make_cohort(40, seed=12)
    c = simulate.make_cohort(40, seed=13)
    assert np.array_equal(a.lam, b.lam) and np.array_equal(a.mu, b.mu)
    assert a.log.records == b.log.records
    assert not np.array_equal(a.lam, c.lam)


def test_make_cohort_summaries_match_generator():
    # summarize the full window (no holdout) and compare aggregate repeat
    # counts against the per-customer renewal means under the true rates
    n = 400
    cohort = simulate.make_cohort(n, seed=11)
    end = simulate.DEFAULT_START + datetime.timedelta(days=104 * 7)
    split = data.CohortSplit(tuple(cohort.customer_ids), (), end, 0.0)
    table = data.summarize_rfm(cohort.log, split, cohort.customer_ids)
    assert list(table.customer_ids) == cohort.customer_ids
    assert np.all(table.holdout_count == 0)
    assert np.all(table.T > 0) and np.all(table.T <= 104.0)

    lam, mu = cohort.lam, cohort.mu
    horizon = np.array([(end - acq).days / 7.0 for acq in cohort.acquisition])
    assert_allclose(table.T, horizon, rtol=0, atol=1e-12)
    mean_active = -np.expm1(-mu * horizon) / mu
    want = lam * mean_active
    # variance bound: Poisson part plus a crude lifetime-variance cap
    var_cap = lam * mean_active + lam ** 2 * np.minimum(2.0 / mu ** 2,
                                                        horizon ** 2)
    z = (table.x.sum() - want.sum()) / np.sqrt(var_cap.sum())
    assert abs(z) < 4.0

    # the observed summaries must be in the support of the likelihood
    ll = log_likelihood(table.x, table.t_x, table.T, lam, mu)
    assert np.all(np.isfinite(ll))
