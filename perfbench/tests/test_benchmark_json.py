"""BENCHMARK.json names exactly what the benchmark measures."""

import json
import os

from perfbench import run
from perfbench.workloads import END_TO_END, PER_LAYER, WORKLOADS

PATH = os.path.join(run.ROOT, "BENCHMARK.json")


def load():
    with open(PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_workloads_match():
    spec = load()
    names = [workload["name"] for workload in spec["workloads"]]
    assert names == list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    for workload in spec["workloads"]:
        assert workload["why"] == WORKLOADS[workload["name"]].why


def test_metrics_match():
    spec = load()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (unit, _) in PER_LAYER.items()}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert all(0 < bound <= 0.25 for bound in bounds.values())
