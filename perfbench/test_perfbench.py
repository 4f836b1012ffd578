"""Unit tests for the benchmark's own arithmetic.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import gc
import math
import sys
from array import array
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import measure  # noqa: E402
import tracer  # noqa: E402


# -- quantile rule ---------------------------------------------------------

def test_rank_is_nearest_rank():
    assert measure.rank(0.5, 100) == 50
    assert measure.rank(0.5, 101) == 51
    assert measure.rank(0.99, 1000) == 990
    assert measure.rank(0.99, 1001) == 991


def test_percentile_needs_ten_samples_beyond_it():
    assert not measure.reportable(0.99, 999)
    assert measure.reportable(0.99, 1000)
    assert measure.reportable(0.5, 20)
    assert not measure.reportable(0.5, 19)
    with pytest.raises(ValueError):
        measure.quantile([1.0] * 999, 0.99)


def test_quantile_is_exact_not_a_bucket_edge():
    values = [float(v) for v in range(1, 1001)]
    assert measure.quantile(values, 0.5) == 500.0
    assert measure.quantile(values, 0.99) == 990.0
    # order of the callbacks does not matter
    assert measure.quantile(values[::-1], 0.99) == 990.0
    odd = [0.5 + 0.001 * k for k in range(37)]
    assert measure.quantile(odd, 0.5) == odd[18]


def test_failed_queries_count_as_missing_every_limit():
    assert measure.quantile([10.0] * 980 + [None] * 20, 0.99) == math.inf
    assert measure.quantile([10.0] * 1000 + [None] * 10, 0.99) == 10.0
    # a failure never ranks below an answered query
    assert measure.quantile([None] + [1.0] * 20, 0.5) == 1.0


# -- host-speed normaliser ---------------------------------------------------

def test_put_off_collection_is_charged_to_the_step_not_the_slice(monkeypatch):
    """A step that runs with the collector off, as Simulator.run does,
    has its put-off collection run inside its own timed interval."""
    where = ["outside"]
    seen = []

    def on_gc(phase, info):
        if phase == "start":
            seen.append(where[0])

    reference = measure.reference_work

    def slice_():
        where[0] = "slice"
        reference()
        where[0] = "outside"

    kept = []

    def step():
        where[0] = "step"
        was = gc.isenabled()
        gc.disable()
        kept.append([[k] for k in range(5000)])
        if was:
            gc.enable()

    monkeypatch.setattr(measure, "reference_work", slice_)
    gc.callbacks.append(on_gc)
    try:
        for _ in range(3):
            measure.timed(step)
            where[0] = "outside"
    finally:
        gc.callbacks.remove(on_gc)
    assert "slice" not in seen
    assert seen.count("step") >= 3
    assert gc.isenabled()


# -- span self-time arithmetic ---------------------------------------------

def spans(*rows):
    """rows of (start, end, parent) -> the tracer's three arrays."""
    return (
        array("q", [r[0] for r in rows]),
        array("q", [r[1] for r in rows]),
        array("i", [r[2] for r in rows]),
    )


def test_self_time_subtracts_direct_children_only():
    # root [0, 100) > event [10, 90) > layer [20, 50) > layer [25, 35)
    #                              > layer [60, 70)
    starts, ends, parents = spans(
        (0, 100, -1), (10, 90, 0), (20, 50, 1), (25, 35, 2), (60, 70, 1),
    )
    assert list(tracer.self_times(starts, ends, parents)) == [20, 40, 20, 10, 10]


def test_self_times_sum_to_root_durations():
    starts, ends, parents = spans(
        (0, 40, -1), (5, 15, 0), (20, 30, 0), (50, 60, -1), (52, 58, 3),
    )
    own = tracer.self_times(starts, ends, parents)
    assert sum(own) == 40 + 10


def test_tracer_spans_nest_and_charge_layers(tmp_path):
    t = tracer.Tracer()
    root = t.code("sim.Simulator.run", "sim")
    net = t.code("network.Network.send", "network")
    i = t.open(root)
    j = t.open(net, qid=7)
    t.close(j)
    t.close(i)
    assert list(t.parent) == [-1, 0]
    assert t.layer_self_ns().keys() == {"sim", "network"}
    assert sum(t.layer_self_ns().values()) == t.root_ns()
    assert t.parent_layers("network.Network.send") == {"sim": 1}
    path = tmp_path / "spans"
    assert t.write(path) == 2
    header, arrays = tracer.read_spans(path)
    assert header["names"] == t.names
    assert list(arrays["qid"]) == [-1, 7]
    assert list(arrays["end_ns"]) == list(t.end_ns)


def test_event_labels_map_to_layers():
    assert tracer.label_layer("net.deliver") == "network"
    assert tracer.label_layer("discovery.handle") == "discovery"
    assert tracer.label_layer("lease.renew") == "rendezvous"
    assert tracer.label_layer("peerview:1A2B.tick") == "rendezvous"
    assert tracer.label_layer("srdi:1A2B.tick") == "discovery"
    assert tracer.label_layer("srdi-gc:1A2B.tick") == "discovery"
    assert tracer.module_layer("repro.resolver.service") == "resolver"
    assert tracer.module_layer("repro.rendezvous.lease") == "rendezvous"


def test_following_keeps_counting_walks_with_spans_off():
    t = tracer.Tracer()
    calls = []

    def note(tr, args, result):
        calls.append(result)

    followed = t.wrap(lambda x: x + 1, "resolver.R.f", "resolver",
                      after=note, follow=True)
    plain = t.wrap(lambda x: x + 1, "resolver.R.g", "resolver", after=note)
    assert followed(1) == 2 and plain(1) == 2
    assert calls == []  # all off
    t.following = True
    assert followed(2) == 3 and plain(2) == 3
    assert calls == [3]  # spans off: only the following hook runs
    assert len(t.name) == 0
    t.on = True
    followed(3)
    plain(3)
    assert calls == [3, 4, 4]
    assert len(t.name) == 2
