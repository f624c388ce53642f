"""Holdout forecasting: activity classification, count rounding, histograms,
and the forecast CSV format."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from paretonbd import cli, experiment, forecast, likelihood
from paretonbd.config import ExperimentConfig
from paretonbd.data import CalibrationTable
from paretonbd.forecast import (
    ForecastTable,
    count_histogram,
    make_forecast,
    read_forecast_csv,
    round_counts,
    write_forecast_csv,
)
from paretonbd.likelihood import (
    conditional_p_alive,
    expected_holdout_purchases,
    p_alive,
)


def small_table(ids=("a", "b", "c")):
    return CalibrationTable(
        ids, [2, 0, 5], [30.0, 0.0, 40.0], [52.0, 52.0, 52.0],
        [1, 0, 3],
    )


# ---------------------------------------------------------------------------
# rounding


def test_round_counts_half_away_rounds_2_5_up():
    got = round_counts(np.array([2.5, 0.49, 0.5, 3.2]))
    assert np.array_equal(got, [3, 0, 1, 3])


def test_round_counts_floor():
    got = round_counts(np.array([2.9, 0.1]), mode="floor")
    assert np.array_equal(got, [2, 0])


def test_round_counts_nearest_uses_banker_rounding():
    got = round_counts(np.array([2.5, 3.5]), mode="nearest")
    assert np.array_equal(got, [2, 4])


def test_round_counts_rejects_negative_and_unknown_mode():
    with pytest.raises(ValueError):
        round_counts(np.array([-0.1]))
    with pytest.raises(ValueError):
        round_counts(np.array([1.0]), mode="ceil")


# ---------------------------------------------------------------------------
# forecasting


def test_make_forecast_composes_verified_quantities():
    table = small_table()
    lam = np.array([0.1, 0.05, 0.3])
    mu = np.array([0.02, 0.04, 0.01])
    fc = make_forecast(table, lam, mu, horizon=26.0)
    want_alive = p_alive(table.x, table.t_x, table.T, lam, mu)
    want_expected = expected_holdout_purchases(
        table.x, table.t_x, table.T, lam, mu, 26.0)
    assert fc.customer_ids == ("a", "b", "c")
    assert_allclose(fc.p_alive, want_alive, rtol=0)
    assert_allclose(fc.expected, want_expected, rtol=0)
    assert np.array_equal(fc.count_pred, round_counts(want_expected))


def test_make_forecast_dead_customer_is_inactive_with_zero_count():
    table = CalibrationTable(["gone"], [3], [5.0], [52.0], [0])
    fc = make_forecast(table, np.array([0.2]), np.array([50.0]), horizon=26.0)
    assert fc.p_alive[0] < 1e-12
    assert bool(fc.inactive_pred[0])
    assert fc.count_pred[0] == 0


def test_make_forecast_threshold_boundary_counts_as_active():
    # inactive means p_alive strictly below the threshold
    table = CalibrationTable(["edge", "below"], [1, 1], [10.0, 10.0],
                             [10.0, 10.0], [0, 0])
    lam = np.array([1.0, 1.0])
    mu = np.array([1.0, 1.5])   # p_alive: 0.5 exactly, 0.4
    fc = make_forecast(table, lam, mu, horizon=10.0, threshold=0.5)
    assert not fc.inactive_pred[0]
    assert fc.inactive_pred[1]


def test_make_forecast_validates_shapes():
    table = small_table()
    with pytest.raises(ValueError):
        make_forecast(table, np.array([0.1, 0.2]), np.array([0.1, 0.2, 0.3]),
                      horizon=26.0)


# The formulas of p_alive, conditional_p_alive and expected_holdout_purchases
# as each computed them on its own, before the forecast kernel.
def reference_p_alive(t_x, T, lam, mu):
    w = np.exp(-(lam + mu) * (T - t_x))
    return lam * w / (mu + lam * w)


def reference_conditional_p_alive(t_x, T, lam, mu):
    theta = lam + mu
    w = np.exp(-theta * (T - t_x))
    return theta * w / (mu + lam * w)


def reference_expected(t_x, T, lam, mu, horizon):
    pa = reference_p_alive(t_x, T, lam, mu)
    small = mu * horizon < 1e-8
    mu_safe = np.where(small, 1.0, mu)
    return np.where(small, pa * lam * horizon,
                    pa * (lam / mu_safe) * (-np.expm1(-mu_safe * horizon)))


def bit_grid():
    """(x, t_x, T, lam, mu) rows covering x == 0, t_x == T, mu*horizon
    below 1e-8, and T - t_x long enough for exp(-(lam+mu)(T-t_x)) to
    underflow to 0."""
    rows = []
    for lam in (1e-10, 0.03, 0.7, 5.0):
        for mu in (1e-10, 0.004, 0.2, 3.0):
            for x, t_x, T in ((0, 0.0, 30.0), (1, 30.0, 30.0), (4, 12.5, 52.0),
                              (2, 1.0, 600.0)):
                rows.append((x, t_x, T, lam, mu))
    return [np.array(col) for col in zip(*rows)]


def test_forecast_kernel_keeps_the_bits():
    horizon = 39.0
    x, t_x, T, lam, mu = bit_grid()
    assert (mu * horizon < 1e-8).any() and (mu * horizon >= 1e-8).any()
    assert np.exp(-(lam + mu) * (T - t_x)).min() == 0.0
    table = CalibrationTable([str(i) for i in range(len(x))], x, t_x, T,
                             np.zeros(len(x), dtype=int))
    fc = make_forecast(table, lam, mu, horizon)
    want_alive = reference_p_alive(t_x, T, lam, mu)
    want_expected = reference_expected(t_x, T, lam, mu, horizon)
    assert np.array_equal(fc.p_alive, p_alive(x, t_x, T, lam, mu))
    assert np.array_equal(fc.expected,
                          expected_holdout_purchases(x, t_x, T, lam, mu, horizon))
    assert np.array_equal(fc.p_alive, want_alive)
    assert np.array_equal(fc.expected, want_expected)
    assert np.array_equal(conditional_p_alive(x, t_x, T, lam, mu),
                          reference_conditional_p_alive(t_x, T, lam, mu))
    for i in range(len(x)):  # the scalar path of each public function
        row = (x[i], t_x[i], T[i], lam[i], mu[i])
        assert p_alive(*row) == want_alive[i]
        assert expected_holdout_purchases(*row, horizon) == want_expected[i]
        assert conditional_p_alive(*row) == reference_conditional_p_alive(
            *row[1:])


@pytest.mark.parametrize("bad", [np.nan, 0.0, -1.0, np.inf])
@pytest.mark.parametrize("which, message", [
    ("lam", "purchase rate lam must be positive and finite"),
    ("mu", "dropout hazard mu must be positive and finite"),
])
def test_make_forecast_rejects_bad_rates(which, message, bad):
    rates = {"lam": np.array([0.1, 0.05, 0.3]),
             "mu": np.array([0.02, 0.04, 0.01])}
    rates[which][1] = bad
    with pytest.raises(ValueError, match=message):
        make_forecast(small_table(), rates["lam"], rates["mu"], horizon=26.0)


@pytest.mark.parametrize("column, value, message", [
    ("x", -1, "repeat count x must be nonnegative"),
    ("t_x", -0.5, "recency must satisfy"),
    ("t_x", 60.0, "recency must satisfy"),
])
def test_make_forecast_rejects_table_mutated_after_construction(
        column, value, message):
    table = small_table()
    getattr(table, column)[2] = value
    with pytest.raises(ValueError, match=message):
        make_forecast(table, np.array([0.1, 0.05, 0.3]),
                      np.array([0.02, 0.04, 0.01]), horizon=26.0)


@pytest.mark.parametrize("kwargs, message", [
    ({"horizon": 0.0}, "horizon must be positive"),
    ({"horizon": -1.0}, "horizon must be positive"),
    ({"horizon": np.nan}, "horizon must be positive"),
    ({"horizon": 26.0, "threshold": -0.1}, r"threshold must lie in \[0, 1\]"),
    ({"horizon": 26.0, "threshold": 1.1}, r"threshold must lie in \[0, 1\]"),
    ({"horizon": 26.0, "threshold": np.nan}, r"threshold must lie in \[0, 1\]"),
])
def test_make_forecast_rejects_bad_horizon_and_threshold(kwargs, message):
    with pytest.raises(ValueError, match=message):
        make_forecast(small_table(), np.array([0.1, 0.05, 0.3]),
                      np.array([0.02, 0.04, 0.01]), **kwargs)


def test_make_forecast_of_an_empty_table_is_empty():
    fc = make_forecast(CalibrationTable([], [], [], [], []), np.array([]),
                       np.array([]), horizon=26.0)
    assert len(fc) == 0 and fc.expected.shape == (0,)


def test_make_forecast_checks_rates_and_summaries_once(monkeypatch):
    calls = {"rates": 0, "summary": 0}

    def counted(name, check):
        def wrapper(*args):
            calls[name] += 1
            return check(*args)
        return wrapper

    # Patched in both namespaces, so a call through the public likelihood
    # functions would be counted as well.
    for module in (forecast, likelihood):
        monkeypatch.setattr(module, "_check_rates",
                            counted("rates", likelihood._check_rates))
        monkeypatch.setattr(module, "_check_summary",
                            counted("summary", likelihood._check_summary))
    make_forecast(small_table(), np.array([0.1, 0.05, 0.3]),
                  np.array([0.02, 0.04, 0.01]), horizon=26.0)
    assert calls == {"rates": 1, "summary": 1}


@pytest.mark.parametrize("mu, warned", [(1e3, True), (0.02, False)])
def test_write_forecast_warns_about_a_collapsed_forecast(tmp_path, caplog, mu,
                                                         warned):
    table = small_table()
    path = tmp_path / "forecast_nn_ratio.csv"
    with caplog.at_level("WARNING", logger="paretonbd.experiment"):
        fc = experiment.write_forecast(table, np.full(3, 0.2), np.full(3, mu),
                                       26.0, ExperimentConfig(), path)
    assert path.exists()
    assert (not fc.count_pred.any()) == warned
    messages = [r.getMessage() for r in caplog.records
                if r.levelname == "WARNING"]
    if warned:
        assert len(messages) == 1
        assert str(path) in messages[0] and "every count is zero" in messages[0]
    else:
        assert messages == []


def test_manifest_lists_collapsed_forecasts(tmp_path, monkeypatch):
    datadir = tmp_path / "cohort"
    assert cli.main(["simulate", "--n", "200", "--seed", "5",
                     "--out", str(datadir)]) == 0
    monkeypatch.setattr(
        experiment.network, "predict_params",
        lambda table, w, scaler: (np.full(len(table), 0.2),
                                  np.full(len(table), 1000.0)))
    cfg = ExperimentConfig(
        dataset=str(datadir / "transactions.csv"), out=str(tmp_path / "out"),
        seed=9, epochs=2, batch_size=64, patience=0,
        losses=("mse", "nll"))
    result = experiment.run_experiment(cfg)
    assert result.status == 0 and result.manifest["status"] == "ok"
    assert result.manifest["degenerate_forecasts"] == [
        "forecast_nn_mse.csv", "forecast_nn_nll.csv"]


def test_degenerate_reason_names_zero_counts_and_non_finite_values():
    def table(expected, counts):
        return ForecastTable(("a", "b"), np.full(2, 0.5), np.zeros(2, bool),
                             np.asarray(expected), np.asarray(counts))

    assert (forecast.degenerate_reason(table([0.1, 0.2], [0, 0]))
            == "every count is zero")
    assert (forecast.degenerate_reason(table([2.0, np.inf], [2, 0]))
            == "non-finite values")
    assert forecast.degenerate_reason(table([2.0, 0.0], [2, 0])) is None


# ---------------------------------------------------------------------------
# histogram


def test_count_histogram_caps_top_bin():
    labels, freqs = count_histogram(np.array([0, 0, 7, 8]), cap=7)
    assert labels == ["0", "1", "2", "3", "4", "5", "6", "7+"]
    assert np.array_equal(freqs, [2, 0, 0, 0, 0, 0, 0, 2])


def test_count_histogram_empty_is_all_zero():
    labels, freqs = count_histogram(np.array([], dtype=int), cap=7)
    assert labels == ["0", "1", "2", "3", "4", "5", "6", "7+"]
    assert np.array_equal(freqs, np.zeros(8, dtype=int))


def test_count_histogram_interior_bins():
    labels, freqs = count_histogram(np.array([1, 1, 2, 3, 3, 3]), cap=4)
    assert labels == ["0", "1", "2", "3", "4+"]
    assert np.array_equal(freqs, [0, 2, 1, 3, 0])


# ---------------------------------------------------------------------------
# CSV round trip


def test_forecast_csv_round_trip(tmp_path):
    lam = np.array([0.1, 1e-86, 0.3])
    mu = np.array([0.02, 0.04, 0.01])
    path = tmp_path / "forecast.csv"
    # ids with a comma or a quote must be quoted
    for ids in (("a", "b", "c"), ("a,b", 'q"x', "c")):
        fc = make_forecast(small_table(ids), lam, mu, horizon=26.0)
        write_forecast_csv(path, fc)
        back = read_forecast_csv(path)
        assert back.customer_ids == fc.customer_ids
        assert np.array_equal(back.p_alive, fc.p_alive)
        assert np.array_equal(back.expected, fc.expected)
        assert np.array_equal(back.inactive_pred, fc.inactive_pred)
        assert np.array_equal(back.count_pred, fc.count_pred)


def test_forecast_csv_header(tmp_path):
    fc = ForecastTable(("a",), np.array([0.5]), np.array([False]),
                       np.array([1.2]), np.array([1]))
    path = tmp_path / "forecast.csv"
    write_forecast_csv(path, fc)
    header = path.read_text().splitlines()[0]
    assert header == "customer_id,p_alive,inactive_pred,expected,count_pred"


def test_read_forecast_csv_requires_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("customer_id,p_alive\na,0.5\n")
    with pytest.raises(ValueError):
        read_forecast_csv(path)
