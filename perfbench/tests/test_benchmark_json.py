"""``BENCHMARK.json`` lists exactly the metrics the harness reports."""

import json
from pathlib import Path

from perfbench.harness import END_TO_END, PER_LAYER
from perfbench.workloads import WORKLOADS

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def test_metric_lists_match_the_harness():
    spec = json.loads(SPEC.read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
