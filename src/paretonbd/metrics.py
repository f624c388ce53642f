"""Forecast evaluation metrics.

Binary inactive-status classification is summarized by a confusion matrix
with rows = actual, columns = predicted and Active as the positive class.
Count forecasts are scored by exact-match rate (multi-accuracy) and mean
absolute error; two models can additionally be compared by consistency,
the fraction of customers where both predict the same count.
"""

import csv
import json
from dataclasses import dataclass

import numpy as np

from .forecast import count_histogram

# First count of the histogram's overflow bin ("7+").
DEFAULT_HISTOGRAM_CAP = 7

CORRELATION_METRICS = ("multi_accuracy", "mae", "total_purchases", "consistency")


@dataclass
class ConfusionMatrix:
    tp: int
    fn: int
    fp: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fn, self.fp, self.tn) < 0:
            raise ValueError("confusion matrix cells must be nonnegative")

    @property
    def total(self):
        return self.tp + self.fn + self.fp + self.tn


def confusion_matrix(actual_active, predicted_active):
    """Tabulate binary predictions; Active is the positive class."""
    actual = np.asarray(actual_active, dtype=bool)
    pred = np.asarray(predicted_active, dtype=bool)
    if actual.shape != pred.shape:
        raise ValueError("prediction vector misaligned with actuals")
    return ConfusionMatrix(
        tp=int(np.sum(actual & pred)),
        fn=int(np.sum(actual & ~pred)),
        fp=int(np.sum(~actual & pred)),
        tn=int(np.sum(~actual & ~pred)),
    )


def accuracy(cm):
    """Share of correctly classified customers, (tp+tn)/total."""
    if cm.total == 0:
        raise ValueError("empty confusion matrix")
    return (cm.tp + cm.tn) / cm.total


def _paired(y, y_hat):
    y = np.asarray(y)
    y_hat = np.asarray(y_hat)
    if y.shape != y_hat.shape or y.ndim != 1:
        raise ValueError("count vectors must be 1-d and of equal length")
    if y.size == 0:
        raise ValueError("empty count vectors")
    return y, y_hat


def multi_accuracy(y, y_hat):
    """Exact-match rate over integer count forecasts."""
    y, y_hat = _paired(y, y_hat)
    return float(np.mean(y == y_hat))


def mae_metric(y, y_hat):
    """Mean absolute error over integer count forecasts."""
    y, y_hat = _paired(y, y_hat)
    return float(np.mean(np.abs(y - y_hat)))


def consistency(y_a, y_b):
    """Fraction of customers on which two models forecast the same count."""
    y_a, y_b = _paired(y_a, y_b)
    return float(np.mean(y_a == y_b))


@dataclass
class MetricsReport:
    model: str
    inactive_accuracy: float
    multi_accuracy: float
    mae: float
    total_purchases: float
    consistency: float = None
    total_expected: float = None
    histogram: tuple = None  # (labels, counts)

    def __post_init__(self):
        for name in ("inactive_accuracy", "multi_accuracy"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0,1]")
        if self.consistency is not None and not 0.0 <= self.consistency <= 1.0:
            raise ValueError("consistency must lie in [0,1]")
        if self.mae < 0:
            raise ValueError("mae must be nonnegative")


def evaluate_forecast(fc, holdout_counts, model, baseline_counts=None,
                      histogram_cap=DEFAULT_HISTOGRAM_CAP):
    """Score a ForecastTable against observed holdout transaction counts.

    Actual inactive means zero holdout transactions.  total_purchases sums
    the integer forecasts (matching the histogram); the continuous sum of
    expected values is reported alongside.  baseline_counts, when given,
    fills the consistency column.
    """
    holdout = np.asarray(holdout_counts)
    if holdout.shape != fc.count_pred.shape:
        raise ValueError("holdout counts misaligned with forecast")
    cm = confusion_matrix(actual_active=holdout > 0,
                          predicted_active=~fc.inactive_pred)
    cons = None
    if baseline_counts is not None:
        cons = consistency(fc.count_pred, baseline_counts)
    labels, freqs = count_histogram(fc.count_pred, histogram_cap)
    return MetricsReport(
        model=model,
        inactive_accuracy=accuracy(cm),
        multi_accuracy=multi_accuracy(holdout, fc.count_pred),
        mae=mae_metric(holdout, fc.count_pred),
        total_purchases=float(np.sum(fc.count_pred)),
        consistency=cons,
        total_expected=float(np.sum(fc.expected)),
        histogram=(labels, [int(v) for v in freqs]),
    )


@dataclass
class CorrelationTable:
    labels: tuple
    matrix: np.ndarray
    degenerate: tuple  # metric names with zero variance across models


def metric_correlations(reports):
    """Pearson correlations across models of the four Table-style metrics.

    Needs at least three reports, each carrying a consistency value.
    Zero-variance metrics yield NaN rows/columns (flagged in .degenerate)
    rather than silently zeroed entries.
    """
    if len(reports) < 3:
        raise ValueError("need at least 3 model reports for correlations")
    rows = []
    for rep in reports:
        if rep.consistency is None:
            raise ValueError(f"report {rep.model!r} lacks a consistency value")
        rows.append([rep.multi_accuracy, rep.mae, rep.total_purchases,
                     rep.consistency])
    data = np.asarray(rows, dtype=float)
    centered = data - data.mean(axis=0)
    cov = centered.T @ centered
    var = np.diag(cov).copy()
    with np.errstate(invalid="ignore", divide="ignore"):
        matrix = cov / np.sqrt(np.outer(var, var))
    np.fill_diagonal(matrix, np.where(var > 0, 1.0, np.nan))
    degenerate = tuple(name for name, v in zip(CORRELATION_METRICS, var) if v == 0)
    return CorrelationTable(labels=CORRELATION_METRICS, matrix=matrix,
                            degenerate=degenerate)


def report_to_dict(rep):
    doc = {
        "model": rep.model,
        "inactive_accuracy": rep.inactive_accuracy,
        "multi_accuracy": rep.multi_accuracy,
        "mae": rep.mae,
        "total_purchases": rep.total_purchases,
    }
    if rep.consistency is not None:
        doc["consistency"] = rep.consistency
    if rep.total_expected is not None:
        doc["total_expected"] = rep.total_expected
    if rep.histogram is not None:
        doc["histogram"] = {"labels": list(rep.histogram[0]),
                            "counts": list(rep.histogram[1])}
    return doc


def write_reports_json(path, reports, extra=None):
    doc = {"reports": [report_to_dict(r) for r in reports]}
    if extra:
        doc.update(extra)
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def write_reports_csv(path, reports):
    """Fixed-column metric table, one row per model."""
    with open(path, "w", newline="") as fh:
        fh.write("model,inactive_accuracy,multi_accuracy,mae,consistency,"
                 "total_purchases\n")
        for r in reports:
            cons = "" if r.consistency is None else repr(r.consistency)
            fh.write(f"{r.model},{r.inactive_accuracy!r},{r.multi_accuracy!r},"
                     f"{r.mae!r},{cons},{r.total_purchases!r}\n")


def write_correlations_csv(path, table):
    """Correlation matrix; undefined (zero-variance) entries print as nan.

    Pearson over as few as three or four model rows is fragile; the printed
    values describe this run's models, not population effects.
    """
    with open(path, "w", newline="") as fh:
        fh.write("metric," + ",".join(table.labels) + "\n")
        for name, row in zip(table.labels, table.matrix):
            fh.write(name + "," + ",".join(repr(float(v)) for v in row) + "\n")


def write_histogram_csv(path, named_histograms):
    """Rows of per-model count histograms sharing one set of bin labels."""
    names = list(named_histograms)
    if not names:
        raise ValueError("no histograms to write")
    labels = named_histograms[names[0]][0]
    with open(path, "w", newline="") as fh:
        fh.write("model," + ",".join(labels) + "\n")
        for name in names:
            lab, counts = named_histograms[name]
            if list(lab) != list(labels):
                raise ValueError("histogram bin labels disagree")
            fh.write(name + "," + ",".join(str(int(c)) for c in counts) + "\n")
