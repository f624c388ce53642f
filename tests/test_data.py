"""Transaction-log ingestion, same-day merging, cohort splitting, and RFM
summarization checked against hand day-count cases."""

import datetime

import numpy as np
import pytest
from numpy.testing import assert_allclose

from paretonbd import data
from paretonbd.data import TransactionRecord

D = datetime.date


def rec(cid, date, spend=10.0, units=1):
    return TransactionRecord(cid, date, spend, units)


def log_from(rows):
    return data.make_log([rec(*r) for r in rows])


# ---------------------------------------------------------------------------
# ingestion


def test_make_log_sorts_and_bounds():
    log = log_from([("b", D(2020, 3, 1)), ("a", D(2020, 1, 5)), ("a", D(2020, 2, 1))])
    assert [r.customer_id for r in log.records] == ["a", "a", "b"]
    assert log.start_date == D(2020, 1, 5)
    assert log.end_date == D(2020, 3, 1)


def test_make_log_rejects_empty():
    with pytest.raises(ValueError, match="no records"):
        data.make_log([])


def test_ingest_csv_round_trip(tmp_path):
    log = log_from([("a", D(2020, 1, 5)), ("a", D(2020, 2, 1)), ("b", D(2020, 3, 1))])
    path = tmp_path / "log.csv"
    data.write_transactions_csv(path, log)
    back = data.ingest_csv(path)
    assert back.records == log.records


def test_ingest_cdnow_two_row_file(tmp_path):
    path = tmp_path / "master.txt"
    path.write_text("00001 19970102 1 11.77\n00001 19970328 2  20.5\n")
    log = data.ingest_cdnow(path)
    assert len(log.records) == 2
    assert log.records[0].date == D(1997, 1, 2)
    assert log.records[0].spend == 11.77
    assert log.records[1].units == 2


def test_ingest_cdnow_rejects_empty(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    with pytest.raises(ValueError, match="no records"):
        data.ingest_cdnow(path)


# ---------------------------------------------------------------------------
# merge_same_day


def test_merge_same_day_sums_spend_and_units():
    log = log_from(
        [("a", D(2020, 1, 5), 10.0, 1), ("a", D(2020, 1, 5), 20.0, 2)]
    )
    merged = data.merge_same_day(log)
    assert len(merged.records) == 1
    assert merged.records[0].spend == 30.0
    assert merged.records[0].units == 3


def test_merge_same_day_identity_on_distinct_dates():
    log = log_from([("a", D(2020, 1, 5)), ("a", D(2020, 1, 6)), ("b", D(2020, 1, 5))])
    assert data.merge_same_day(log).records == log.records


# ---------------------------------------------------------------------------
# splitting


def test_split_customers_sizes_and_disjointness():
    rows = [(f"c{i}", D(2020, 1, 1 + i)) for i in range(10)]
    train, test = data.split_customers(log_from(rows), 0.6, seed=42)
    assert len(train) == 6 and len(test) == 4
    assert set(train).isdisjoint(test)
    assert set(train) | set(test) == {f"c{i}" for i in range(10)}


def test_split_customers_deterministic():
    rows = [(f"c{i}", D(2020, 1, 1 + i)) for i in range(25)]
    log = log_from(rows)
    assert data.split_customers(log, 0.6, 7) == data.split_customers(log, 0.6, 7)


def test_split_customers_rounds_half_away():
    rows = [(f"c{i}", D(2020, 1, 1 + i)) for i in range(5)]
    train, test = data.split_customers(log_from(rows), 0.5, seed=0)
    assert (len(train), len(test)) == (3, 2)


def test_split_customers_rejects_degenerate_fraction():
    rows = [(f"c{i}", D(2020, 1, 1 + i)) for i in range(4)]
    with pytest.raises(ValueError):
        data.split_customers(log_from(rows), 1.0, seed=0)


def test_mid_date_three_day_span():
    log = log_from([("a", D(2000, 1, 1)), ("b", D(2000, 1, 3))])
    assert data.mid_date(log) == D(2000, 1, 2)


def test_mid_date_two_day_span_rounds_down():
    log = log_from([("a", D(2020, 5, 1)), ("b", D(2020, 5, 3) - datetime.timedelta(days=0))])
    # start = end - 2 days -> start + 1 day
    assert data.mid_date(log) == D(2020, 5, 2)


def test_mid_date_cdnow_window():
    # frozen from independent day arithmetic: 1997-01-01 + (545 // 2) days
    log = log_from([("a", D(1997, 1, 1)), ("b", D(1998, 6, 30))])
    assert data.mid_date(log) == D(1997, 9, 30)


def test_mid_date_rejects_single_day():
    log = log_from([("a", D(2020, 5, 1)), ("b", D(2020, 5, 1))])
    with pytest.raises(ValueError):
        data.mid_date(log)


# ---------------------------------------------------------------------------
# RFM summaries


def split_at(log, date, train=()):
    ids = log.customer_ids()
    return data.CohortSplit(tuple(train), tuple(ids), date,
                            max((log.end_date - date).days / 7.0, 1.0))


def test_summarize_rfm_hand_day_counts():
    acq = D(2020, 1, 6)
    log = log_from(
        [
            ("a", acq),
            ("a", acq + datetime.timedelta(days=14)),
            ("a", acq + datetime.timedelta(days=35)),
        ]
    )
    split = split_at(log, acq + datetime.timedelta(days=70))
    table = data.summarize_rfm(log, split, ["a"])
    assert table.x[0] == 2
    assert table.t_x[0] == 5.0
    assert table.T[0] == 10.0


def test_summarize_rfm_single_purchase_has_zero_recency():
    acq = D(2020, 1, 6)
    log = log_from([("a", acq)])
    split = split_at(log, acq + datetime.timedelta(days=70))
    table = data.summarize_rfm(log, split, ["a"])
    assert table.x[0] == 0
    assert table.t_x[0] == 0.0
    assert table.T[0] == 10.0


def test_summarize_rfm_counts_holdout_purchases():
    acq = D(2020, 1, 6)
    split_date = acq + datetime.timedelta(days=70)
    log = log_from(
        [
            ("a", acq),
            ("a", split_date),                              # calibration (on the date)
            ("a", split_date + datetime.timedelta(days=1)), # holdout
            ("a", split_date + datetime.timedelta(days=9)), # holdout
        ]
    )
    table = data.summarize_rfm(log, split_at(log, split_date), ["a"])
    assert table.x[0] == 1
    assert table.t_x[0] == table.T[0] == 10.0
    assert table.holdout_count[0] == 2


def test_summarize_rfm_excludes_customers_without_calibration_history():
    acq = D(2020, 1, 6)
    split_date = acq + datetime.timedelta(days=70)
    log = log_from(
        [
            ("early", acq),
            ("on_split", split_date),                           # T would be 0
            ("late", split_date + datetime.timedelta(days=3)),  # holdout only
        ]
    )
    table = data.summarize_rfm(log, split_at(log, split_date),
                               ["early", "on_split", "late", "absent"])
    assert table.customer_ids == ["early"]


def test_summarize_rfm_order_invariant():
    rng = np.random.default_rng(3)
    acq = D(2020, 1, 6)
    rows = []
    for i in range(30):
        for d in sorted(rng.integers(0, 140, size=rng.integers(1, 6))):
            rows.append((f"c{i:02d}", acq + datetime.timedelta(days=int(d))))
    log = log_from(rows)
    shuffled = list(log.records)
    rng.shuffle(shuffled)
    ids = log.customer_ids()
    split = split_at(log, acq + datetime.timedelta(days=70))
    a = data.summarize_rfm(log, split, ids)
    b = data.summarize_rfm(data.make_log(shuffled), split, ids)
    assert a.customer_ids == b.customer_ids
    assert_allclose(a.t_x, b.t_x, rtol=0)
    assert np.array_equal(a.x, b.x)


# ---------------------------------------------------------------------------
# covariates


def test_spend_covariates_hand_values():
    acq = D(2020, 1, 6)
    log = log_from(
        [("a", acq, 10.0, 1), ("a", acq + datetime.timedelta(days=7), 20.0, 3)]
    )
    split = split_at(log, acq + datetime.timedelta(days=70))
    table = data.summarize_rfm(
        log, split, ["a"], covariate_names=("units", "total_spend", "mean_spend")
    )
    assert_allclose(table.covariates[0], [4.0, 30.0, 15.0], rtol=0)


def test_units_covariate_requires_units_column():
    acq = D(2020, 1, 6)
    log = data.make_log([TransactionRecord("a", acq, 10.0, None)])
    split = split_at(log, acq + datetime.timedelta(days=70))
    with pytest.raises(ValueError, match="units"):
        data.summarize_rfm(log, split, ["a"], covariate_names=("units",))


def test_unknown_covariate_rejected():
    acq = D(2020, 1, 6)
    log = log_from([("a", acq)])
    split = split_at(log, acq + datetime.timedelta(days=70))
    with pytest.raises(ValueError, match="unknown covariate"):
        data.summarize_rfm(log, split, ["a"], covariate_names=("zipcode",))


def test_covariates_stay_aligned_with_summaries():
    # customers first seen exactly on or after the split date, or not in the
    # log at all, are excluded from both; holdout spend is not counted
    acq = D(2020, 1, 6)
    split_date = acq + datetime.timedelta(days=70)
    later = split_date + datetime.timedelta(days=7)
    log = log_from(
        [
            ("a", acq, 10.0, 1),
            ("a", later, 500.0, 50),
            ("after", later, 77.0, 7),
            ("boundary", split_date, 99.0, 9),
            ("m", acq + datetime.timedelta(days=3), 6.0, 1),
            ("m", acq + datetime.timedelta(days=10), 2.0, 3),
            ("z", acq + datetime.timedelta(days=7), 40.0, 2),
        ]
    )
    split = split_at(log, split_date)
    names = ("units", "total_spend", "mean_spend")
    table = data.summarize_rfm(
        log, split, ["z", "boundary", "absent", "m", "after", "a"],
        covariate_names=names,
    )
    assert table.customer_ids == ["a", "m", "z"]
    assert_allclose(table.covariates,
                    [[1.0, 10.0, 10.0], [4.0, 8.0, 4.0], [2.0, 40.0, 40.0]],
                    rtol=0)
    assert list(table.holdout_count) == [1, 0, 0]
    empty = data.summarize_rfm(log, split, ["after", "boundary"],
                               covariate_names=names)
    assert len(empty) == 0 and empty.covariates.shape == (0, 3)


# ---------------------------------------------------------------------------
# CalibrationTable


def test_table_features_layout():
    table = data.CalibrationTable(
        ["a", "b"], [2, 0], [5.0, 0.0], [10.0, 8.0], [1, 0],
        covariates=[[30.0], [7.0]], covariate_names=("total_spend",)
    )
    feats = table.features()
    assert feats.shape == (2, 4)
    assert_allclose(feats[0], [2.0, 5.0, 10.0, 30.0], rtol=0)
    assert np.array_equal(feats, np.column_stack(
        [table.x.astype(float), table.t_x, table.T, table.covariates]))


def test_table_round_trip_csv(tmp_path):
    table = data.CalibrationTable(
        ["a", "b"], [2, 0], [5.0, 0.0], [10.0, 8.0], [1, 0]
    )
    path = tmp_path / "summary.csv"
    table.to_csv(path)
    back = data.CalibrationTable.from_csv(path)
    assert back.customer_ids == table.customer_ids
    assert np.array_equal(back.x, table.x)
    assert np.array_equal(back.t_x, table.t_x)
    assert np.array_equal(back.holdout_count, table.holdout_count)


@pytest.mark.parametrize("columns, kwargs, message", [
    ((["a", "b"], [1], [0.0], [5.0], [0]), {}, "misaligned summary columns"),
    ((["a"], [1], [0.0], [5.0], [0]), {"covariates": [[1.0]]},
     "covariate names do not match covariate columns"),
    ((["a"], [-1], [0.0], [5.0], [0]), {}, "negative counts"),
    ((["a"], [1], [0.0], [5.0], [-2]), {}, "negative counts"),
    ((["a"], [1], [-1.0], [5.0], [0]), {}, "recency must satisfy"),
    ((["a"], [1], [6.0], [5.0], [0]), {}, "recency must satisfy"),
    ((["a"], [0], [3.0], [5.0], [0]), {}, "x == 0 requires t_x == 0"),
])
def test_table_error_messages(columns, kwargs, message):
    with pytest.raises(ValueError, match=message):
        data.CalibrationTable(*columns, **kwargs)


def test_empty_table_constructs():
    table = data.CalibrationTable([], [], [], [], [])
    assert len(table) == 0 and table.features().shape == (0, 3)


def test_table_validates_recency_convention():
    with pytest.raises(ValueError):
        data.CalibrationTable(["a"], [0], [3.0], [10.0], [0])
    with pytest.raises(ValueError):
        data.CalibrationTable(["a"], [2], [11.0], [10.0], [0])
