"""Evaluation metrics checked against forced hand values, plus report
serialization formats."""

import csv
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from paretonbd import metrics
from paretonbd.data import CalibrationTable
from paretonbd.forecast import make_forecast
from paretonbd.metrics import (
    CORRELATION_METRICS,
    MetricsReport,
    accuracy,
    confusion_matrix,
    consistency,
    evaluate_forecast,
    mae_metric,
    metric_correlations,
    multi_accuracy,
    write_correlations_csv,
    write_histogram_csv,
    write_reports_csv,
    write_reports_json,
)


def report(model, ma=0.6, mae=0.5, total=100.0, cons=0.7, ia=0.75):
    return MetricsReport(model=model, inactive_accuracy=ia, multi_accuracy=ma,
                         mae=mae, total_purchases=total, consistency=cons)


# ---------------------------------------------------------------------------
# confusion matrix and accuracy


def test_confusion_matrix_counts_active_as_positive():
    actual = [True, True, True, True, False, False, False, False, False, True]
    pred = [True, True, True, False, True, True, False, False, False, False]
    cm = confusion_matrix(actual, pred)
    assert (cm.tp, cm.fn, cm.fp, cm.tn) == (3, 2, 2, 3)
    assert cm.total == 10


def test_accuracy_hand_value():
    # tp=3, tn=4, fp=2, fn=1 -> 7/10
    cm = metrics.ConfusionMatrix(tp=3, fn=1, fp=2, tn=4)
    assert accuracy(cm) == 0.7


def test_accuracy_perfect_classifier():
    cm = confusion_matrix([True, False, True], [True, False, True])
    assert accuracy(cm) == 1.0


def test_confusion_matrix_rejects_misalignment():
    with pytest.raises(ValueError):
        confusion_matrix([True, False], [True])


# ---------------------------------------------------------------------------
# count metrics


def test_multi_accuracy_hand_value():
    assert multi_accuracy([0, 1, 2], [0, 1, 3]) == 2 / 3


def test_multi_accuracy_identity():
    assert multi_accuracy([4, 0, 2, 7], [4, 0, 2, 7]) == 1.0


def test_mae_hand_value():
    assert mae_metric([1, 2], [2, 4]) == 1.5


def test_mae_identity():
    assert mae_metric([3, 0, 5], [3, 0, 5]) == 0.0


def test_consistency_identity_and_disjoint():
    assert consistency([2, 1], [2, 1]) == 1.0
    assert consistency([0, 1], [1, 0]) == 0.0


def test_count_metrics_reject_empty_or_misaligned():
    with pytest.raises(ValueError):
        multi_accuracy([], [])
    with pytest.raises(ValueError):
        mae_metric([1, 2], [1])


# ---------------------------------------------------------------------------
# report assembly


def test_evaluate_forecast_hand_case():
    # a: long-dead, b and c: bought on the split date and land on integer
    # forecasts 4 and 7 over the 26-week horizon
    table = CalibrationTable(
        ["a", "b", "c"], [2, 3, 1], [30.0, 52.0, 52.0], [52.0, 52.0, 52.0],
        holdout_count=[0, 1, 3],
    )
    lam = np.array([0.01, 0.2, 0.3])
    mu = np.array([5.0, 0.02, 0.01])
    fc = make_forecast(table, lam, mu, horizon=26.0)
    rep = evaluate_forecast(fc, table.holdout_count, "demo",
                            baseline_counts=np.array([0, 4, 6]))
    assert np.array_equal(fc.count_pred, [0, 4, 7])
    assert rep.model == "demo"
    assert rep.inactive_accuracy == 1.0       # inactive a, active b and c
    assert rep.multi_accuracy == 1 / 3        # only a matches exactly
    assert rep.mae == (0 + 3 + 4) / 3
    assert rep.total_purchases == 11.0
    assert rep.consistency == 2 / 3
    assert_allclose(rep.total_expected, float(np.sum(fc.expected)), rtol=0)
    assert rep.histogram[1] == [1, 0, 0, 0, 1, 0, 0, 1]


def test_evaluate_forecast_requires_aligned_holdout():
    table = CalibrationTable(["a"], [1], [5.0], [10.0], [0])
    fc = make_forecast(table, np.array([0.1]), np.array([0.1]), horizon=5.0)
    with pytest.raises(ValueError):
        evaluate_forecast(fc, np.array([1, 2]), "demo")


def test_report_validates_ranges():
    with pytest.raises(ValueError):
        report("bad", ma=1.5)
    with pytest.raises(ValueError):
        report("bad", cons=-0.1)
    with pytest.raises(ValueError):
        MetricsReport("bad", 0.5, 0.5, -1.0, 10.0)


# ---------------------------------------------------------------------------
# correlations


def test_metric_correlations_self_and_anti():
    # multi_accuracy rises with consistency, mae falls linearly
    reports = [
        report("m1", ma=0.2, mae=0.9, total=50.0, cons=0.1),
        report("m2", ma=0.5, mae=0.6, total=80.0, cons=0.4),
        report("m3", ma=0.8, mae=0.3, total=110.0, cons=0.7),
    ]
    table = metric_correlations(reports)
    assert table.labels == CORRELATION_METRICS
    assert_allclose(np.diag(table.matrix), 1.0, rtol=0)
    i_ma = CORRELATION_METRICS.index("multi_accuracy")
    i_mae = CORRELATION_METRICS.index("mae")
    i_cons = CORRELATION_METRICS.index("consistency")
    assert_allclose(table.matrix[i_ma, i_cons], 1.0, atol=1e-12)
    assert_allclose(table.matrix[i_ma, i_mae], -1.0, atol=1e-12)
    assert table.degenerate == ()
    assert np.allclose(table.matrix, table.matrix.T, equal_nan=True)


def test_metric_correlations_flags_zero_variance():
    reports = [
        report("m1", ma=0.2, mae=0.5, total=50.0, cons=0.3),
        report("m2", ma=0.5, mae=0.5, total=80.0, cons=0.6),
        report("m3", ma=0.8, mae=0.5, total=20.0, cons=0.9),
    ]
    table = metric_correlations(reports)
    i_mae = CORRELATION_METRICS.index("mae")
    assert table.degenerate == ("mae",)
    assert np.all(np.isnan(table.matrix[i_mae]))
    assert np.all(np.isnan(table.matrix[:, i_mae]))
    off_diag = np.delete(np.delete(table.matrix, i_mae, 0), i_mae, 1)
    assert np.all(np.isfinite(off_diag))


def test_metric_correlations_permutation_invariant():
    reports = [
        report("m1", ma=0.2, mae=0.9, total=50.0, cons=0.15),
        report("m2", ma=0.45, mae=0.55, total=90.0, cons=0.5),
        report("m3", ma=0.7, mae=0.35, total=70.0, cons=0.65),
        report("m4", ma=0.3, mae=0.8, total=60.0, cons=0.25),
    ]
    a = metric_correlations(reports).matrix
    b = metric_correlations(reports[::-1]).matrix
    assert_allclose(a, b, rtol=1e-12)


def test_metric_correlations_requires_three_with_consistency():
    with pytest.raises(ValueError):
        metric_correlations([report("m1"), report("m2")])
    bad = [report("m1"), report("m2"), report("m3", cons=None)]
    with pytest.raises(ValueError, match="consistency"):
        metric_correlations(bad)


# ---------------------------------------------------------------------------
# serialization


def test_reports_csv_layout(tmp_path):
    path = tmp_path / "metrics.csv"
    write_reports_csv(path, [report("base", cons=None), report("nn_mse")])
    lines = path.read_text().splitlines()
    assert lines[0] == ("model,inactive_accuracy,multi_accuracy,mae,"
                        "consistency,total_purchases")
    base = lines[1].split(",")
    assert base[0] == "base"
    assert base[4] == ""       # no consistency for the reference model
    nn = lines[2].split(",")
    assert float(nn[4]) == 0.7


def test_reports_json_round_trip(tmp_path):
    path = tmp_path / "metrics.json"
    write_reports_json(path, [report("base")], extra={"cohort_size": 3})
    doc = json.loads(path.read_text())
    assert doc["cohort_size"] == 3
    assert doc["reports"][0]["model"] == "base"
    assert doc["reports"][0]["multi_accuracy"] == 0.6


def test_correlations_csv_layout(tmp_path):
    reports = [
        report("m1", ma=0.2, mae=0.9, total=50.0, cons=0.1),
        report("m2", ma=0.5, mae=0.6, total=80.0, cons=0.4),
        report("m3", ma=0.8, mae=0.3, total=110.0, cons=0.7),
    ]
    path = tmp_path / "correlations.csv"
    write_correlations_csv(path, metric_correlations(reports))
    rows = list(csv.reader(path.read_text().splitlines()))
    assert rows[0] == ["metric"] + list(CORRELATION_METRICS)
    assert rows[1][0] == "multi_accuracy"
    assert float(rows[1][1]) == 1.0


def test_histogram_csv_shared_labels(tmp_path):
    path = tmp_path / "histograms.csv"
    write_histogram_csv(path, {
        "actual": (["0", "1", "2+"], [5, 3, 2]),
        "model": (["0", "1", "2+"], [6, 2, 2]),
    })
    rows = list(csv.reader(path.read_text().splitlines()))
    assert rows[0] == ["model", "0", "1", "2+"]
    assert rows[1] == ["actual", "5", "3", "2"]
    with pytest.raises(ValueError):
        write_histogram_csv(path, {
            "a": (["0", "1"], [1, 2]),
            "b": (["0", "2"], [1, 2]),
        })


def test_rate_recovery_hand_values():
    # ratios 2, 1, 1/3, 4 (lambda) and 1/2, 1/2, 1, 8 (mu)
    got = metrics.rate_recovery([2.0, 1.0, 1.0, 4.0], [0.5, 1.0, 2.0, 8.0],
                                [1.0, 1.0, 3.0, 1.0], [1.0, 2.0, 2.0, 1.0])
    assert_allclose(got["lambda"], (np.log(6.0) / 2.0, 0.5), rtol=1e-15)
    assert_allclose(got["mu"], (np.log(2.0), 0.75), rtol=1e-15)
    with pytest.raises(ValueError, match="positive"):
        metrics.rate_recovery([0.0], [1.0], [1.0], [1.0])
    with pytest.raises(ValueError, match="equal length"):
        metrics.rate_recovery([1.0, 2.0], [1.0], [1.0], [1.0])
