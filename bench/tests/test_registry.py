"""``BENCHMARK.json`` and ``bench/metrics.py`` must agree, and both must
stay inside the limits of the benchmark contract."""

import json
import os
import re

from bench import metrics, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def committed():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_is_the_registry_written_out():
    assert committed() == metrics.benchmark_json()


def test_names_units_and_bounds_are_inside_the_contract():
    document = metrics.benchmark_json()
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in document[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    for entry in document["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in document["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in document["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in document["end_to_end"] + document["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("lower", "higher")
    setup = [e for e in document["end_to_end"] if e["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(e["bound"] for e in document["end_to_end"])}]
    assert isinstance(document["run_seconds"], int) and 1 <= document["run_seconds"] <= 60
    assert len(json.dumps(document)) < 64 * 1024


def test_every_registered_workload_has_a_module():
    assert [w.name for w in metrics.WORKLOADS] == list(workloads.NAMES)
    for name in workloads.NAMES:
        module = workloads.load(name)
        assert module.NAME == name
        assert module.REPETITIONS >= 12
