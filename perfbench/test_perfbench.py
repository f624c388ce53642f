"""Tests of the benchmark's own derivations.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import paretonbd  # noqa: E402
from paretonbd import network  # noqa: E402
from tracer import Hook, Hooks, SpanView, Tracer, percentile  # noqa: E402
from workloads import HOOKS, Quality, is_degenerate, layer_metrics  # noqa: E402


def test_percentile_needs_ten_samples_beyond():
    assert percentile(list(range(19)), 0.50) is None
    assert percentile(list(range(20)), 0.50) == 9
    assert percentile(list(range(999)), 0.99) is None
    assert percentile(list(range(1000))[::-1], 0.99) == 989
    assert percentile([], 0.5) is None


def test_self_time_subtracts_direct_children_only():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0])
    tr = Tracer(clock=lambda: next(ticks))
    a = tr.open("A")
    b = tr.open("B")
    c = tr.open("C")
    tr.close(c)
    tr.close(b)
    d = tr.open("D")
    tr.close(d)
    tr.close(a)
    view = SpanView(tr)
    own = view.self_time()
    assert own[a] == pytest.approx(6.0)   # 10 - B(3) - D(1); C is inside B
    assert own[b] == pytest.approx(2.0)
    assert own[c] == pytest.approx(1.0)
    assert view.self_time(only={"B"})[a] == pytest.approx(7.0)
    assert list(view.parent) == [-1, a, b, a]


def _table(counts, expected=None):
    counts = np.asarray(counts, dtype=np.int64)
    expected = counts.astype(float) if expected is None else np.asarray(expected)
    n = counts.size
    return paretonbd.ForecastTable(
        customer_ids=tuple(f"c{i}" for i in range(n)),
        p_alive=np.full(n, 0.5), inactive_pred=np.zeros(n, dtype=bool),
        expected=expected, count_pred=counts)


def test_degenerate_forecasts_counts_all_zero_and_non_finite():
    zero = _table([0, 0, 0], [0.1, 0.2, 0.4])
    fine = _table([0, 1, 0])
    broken = _table([0, 1, 0], [0.0, np.nan, 0.0])
    assert is_degenerate(zero) and is_degenerate(broken)
    assert not is_degenerate(fine)
    q = Quality()
    q.add(np.array([1, 0, 2]), {"pareto_nbd": fine, "nn_ratio": zero})
    assert q.degenerate == 1
    assert q.mae("nn_ratio") == pytest.approx(1.0)
    assert q.total_err_pct("pareto_nbd") == pytest.approx(100.0 * 2 / 3)


@pytest.mark.parametrize("kind, per_batch, per_epoch", [
    ("nll", 2, 1),     # loss + gradient per batch, validation loss per epoch
    ("ratio", 5, 2),   # the ratio kinds evaluate the label likelihood too
    ("mse", 0, 0),
])
def test_calls_per_batch_on_a_tiny_training_run(kind, per_batch, per_epoch):
    cohort = paretonbd.make_cohort(300, seed=3)
    split = paretonbd.CohortSplit(tuple(cohort.customer_ids), (),
                                  cohort.log.end_date, 0.0)
    table = paretonbd.summarize_rfm(cohort.log, split, cohort.customer_ids)
    epochs, batch = 3, 64
    cfg = network.TrainingConfig(epochs=epochs, batch_size=batch,
                                 early_stop_patience=0, seed=1)
    tr = Tracer()
    with Hooks(tr, HOOKS) as hooks:
        network.train(table, cohort.lam, cohort.mu, cfg, kind)
    assert hooks.missing == []
    assert network.train.__module__ == "paretonbd.network"  # restored
    m = layer_metrics(SpanView(tr), None, 0, 0.0)
    n_train = len(table) - int(np.floor(0.1 * len(table)))
    batches = epochs * -(-n_train // batch)
    assert m[f"network.batches.{kind}"] == batches
    assert m[f"network.epochs.{kind}"] == epochs
    assert m["likelihood.calls_per_batch"] == (
        per_batch * batches + per_epoch * epochs) / batches
    assert m[f"network.train_self_s.{kind}"] < m[f"network.train_s.{kind}"]


def test_missing_hook_is_reported_and_unused_hook_counts_zero():
    tr = Tracer()
    hooks = [Hook("paretonbd.network", "loss_and_grad", "network.fused"),
             Hook("paretonbd.gibbs", "run_chain", "gibbs.chain.train"),
             Hook("paretonbd.forecast", "round_counts",
                  lambda args, kwargs, call: kwargs["renamed"],
                  note=lambda args, kwargs, result: result.missing)]
    with Hooks(tr, hooks) as installed:
        assert installed.missing == ["paretonbd.network.loss_and_grad"]
        assert list(paretonbd.forecast.round_counts([0.4, 1.6])) == [0, 2]
    assert tr.names == ["paretonbd.forecast.round_counts"]
    assert tr.counts == {}
    m = layer_metrics(SpanView(tr), None, 0, 0.0)
    assert m["gibbs.chain_s.train"] == 0.0
    assert m["likelihood.calls.conditional_p_alive"] == 0
    assert m["network.batch_us_p50.nll"] is None
    assert m["likelihood.calls_per_batch"] is None
