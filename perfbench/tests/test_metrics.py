"""Percentiles, spreads, metric names and the shape of BENCHMARK.json and results."""

import json
import statistics

import pytest

import metrics as m
from spans import Tracer

BENCHMARK = m.BENCHMARK
END_TO_END = BENCHMARK["end_to_end"]


@pytest.mark.parametrize("count, level", [(9, None), (19, None), (20, 50.0),
                                          (99, 50.0), (100, 90.0), (1000, 99.0),
                                          (10_000, 99.9)])
def test_highest_percentile_keeps_ten_samples_beyond(count, level):
    assert m.highest_percentile(count) == level


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert m.percentile(values, 50) == 50
    assert m.percentile(values, 90) == 90
    assert m.percentile([3.0], 99) == 3.0


def test_relative_spread_matches_statistics_quartiles():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert m.relative_spread(values) == pytest.approx((q3 - q1) / 5.5)


@pytest.mark.parametrize("name, ok", [("sdp.eigh.s", True), ("op_s_p50", True),
                                      ("release-fast", True), ("9lives", True),
                                      (".hidden", False), ("a b", False),
                                      ("x/y", False), ("", False), ("a" * 65, False)])
def test_name_validity(name, ok):
    assert (m.NAME_RE.fullmatch(name) is not None) is ok


def test_every_declared_name_is_valid_and_unique():
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer")
             for e in BENCHMARK[key]]
    assert all(m.NAME_RE.fullmatch(n) for n in names)
    assert len(names) == len(set(names))


def test_benchmark_json_shape():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in BENCHMARK["workloads"])
    assert all(set(e) == {"name", "unit", "better", "bound"} for e in END_TO_END)
    assert all(set(e) == {"name", "unit", "better"} for e in BENCHMARK["per_layer"])
    assert all(0 < e["bound"] <= 0.25 for e in BENCHMARK["end_to_end"])
    setup = next(e for e in BENCHMARK["end_to_end"] if e["name"] == "setup_s")
    assert setup["bound"] == max(e["bound"] for e in BENCHMARK["end_to_end"])


def test_workloads_match_benchmark_json():
    import workloads

    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_layer_metrics_cover_every_declared_metric():
    values = m.layer_metrics(Tracer(), overhead_ratio=0.9, solve_peak_bytes=1)
    assert set(values) == {e["name"] for e in BENCHMARK["per_layer"]}
    assert values["sdp.certified_ratio"] == 0.0


def test_result_line_shape():
    values = {e["name"]: 1.5 for e in END_TO_END}
    line = json.loads(json.dumps(m.result_line(values, END_TO_END, attempted=4,
                                               failed=1, correct=False)))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] == 4 and line["failed"] == 1 and line["correct"] is False
    assert line["metrics"]["setup_s"] == {"value": 1.5, "unit": "s"}
    assert set(line["metrics"]) == {e["name"] for e in END_TO_END}


def test_search_evals_counts_recover_calls_under_a_search_less_the_base_call():
    tr = Tracer()
    with tr.span("bench.op"):
        with tr.span("privacy.recover"):  # the mechanism's own base solve
            pass
        with tr.span("privacy.search"):
            for _ in range(3):  # base f(g), then two neighbours
                with tr.span("graph.neighbors"):
                    pass
                with tr.span("privacy.recover"):
                    pass
        with tr.span("privacy.search"):
            with tr.span("privacy.recover"):  # base only: stopped at once
                pass
    assert m.search_evals(tr) == 2
    assert m.layer_metrics(tr, 1.0, 1)["privacy.search.evals"] == 2


def test_instance_medians_in_order_of_first_appearance():
    timed = [(3, 1.0), (1, 5.0), (3, 9.0), (1, 4.0), (3, 2.0)]
    assert m.instance_medians(timed) == [2.0, 4.5]


def test_ops_per_s_is_a_pass_at_each_instance_median_time():
    import run

    timed = [(0, 1.0), (1, 3.0), (0, 1.0), (1, 30.0), (1, 3.0)]
    # the 30 s outlier of instance 1 does not count: a pass takes 1 + 3 s
    assert run.ops_per_s(timed) == pytest.approx(2 / 4.0)


def test_machine_speed_scales_by_the_probes_around_an_interval(monkeypatch):
    import run

    probes = iter([2 * run.PROBE_REF_S, 4 * run.PROBE_REF_S, run.PROBE_REF_S])
    monkeypatch.setattr(run, "probe_seconds", lambda *matrices: next(probes))
    speed = run.MachineSpeed()
    assert speed.adjust(3.0) == pytest.approx(1.0)  # probes 2x and 4x: mean 3x
    assert speed.adjust(5.0) == pytest.approx(2.0)  # probes 4x and 1x
    assert speed.slowdown() == pytest.approx(2.0)
