"""Span wrappers: installed and restored, trees well formed."""

import json

from bench.trace import ENTRY_POINTS, Tracer, TracedPass, check_trees
from bench.workloads import Laps


def test_install_and_restore_leave_the_program_as_it_was():
    import repro.sim.engine as engine
    import repro.kv.sim as kv_sim
    import repro.nekostat.metrics as nekostat_metrics

    step = engine.Simulator.__dict__["step"]
    extract = nekostat_metrics.extract_qos
    assert kv_sim.extract_qos is extract
    tracer = Tracer()
    tracer.install()
    try:
        assert engine.Simulator.__dict__["step"] is not step
        # A function imported by name elsewhere is patched there too.
        assert kv_sim.extract_qos is nekostat_metrics.extract_qos is not extract
    finally:
        tracer.restore()
    assert engine.Simulator.__dict__["step"] is step
    assert kv_sim.extract_qos is nekostat_metrics.extract_qos is extract


def test_every_entry_point_exists():
    tracer = Tracer()
    tracer.install(ENTRY_POINTS)
    tracer.restore()


def test_span_trees_are_well_formed(tmp_path):
    from repro.sim.engine import Simulator

    tracer = Tracer()
    tracer.install()
    try:
        laps = Laps(tracer)
        laps.start()
        sim = Simulator()
        fired = []
        for index in range(5):
            sim.schedule(float(index), lambda index=index: fired.append(index))
        laps()
        sim.run(until=2.5)
        laps()
        sim.run(until=10.0)
        laps()
        laps.stop()
    finally:
        tracer.restore()
    assert fired == [0, 1, 2, 3, 4]
    step_ids = ["schedule", "run:a", "run:b"]
    records = tracer.trees(step_ids)
    assert check_trees(records) == []
    roots = [r for r in records if r["parent"] is None and r["name"] == "step"]
    assert [r["id"] for r in roots] == step_ids
    by_id = {}
    for record in records:
        by_id.setdefault(record["id"], []).append(record["name"])
    assert by_id["schedule"].count("sim.schedule_at") == 5
    assert by_id["run:a"].count("sim.step") == 3
    assert by_id["run:b"].count("sim.step") == 2

    aggregate = tracer.aggregate()
    assert aggregate.count("sim.step") == 5
    assert aggregate.count("sim.schedule_at") == 5
    # Self times of all spans sum to the time inside the steps.
    total_self = sum(entry[2] for entry in aggregate.by_name.values())
    assert abs(total_self - aggregate.step_seconds) < 1e-9
    traced = TracedPass([aggregate, aggregate], 0.0, 0.0)
    assert traced.count("sim.step") == 5

    path = tmp_path / "spans.jsonl"
    assert tracer.write(str(path), step_ids) == len(records)
    lines = path.read_text().splitlines()
    assert set(json.loads(lines[0])) == {"name", "start", "end", "parent", "id"}


def test_check_trees_reports_malformed_records():
    good = [
        {"name": "step", "start": 0.0, "end": 1.0, "parent": None, "id": "a"},
        {"name": "x", "start": 0.1, "end": 0.4, "parent": 0, "id": "a"},
    ]
    assert check_trees(good) == []
    outside = [dict(good[0]), dict(good[1], end=1.5)]
    assert any("not inside" in problem for problem in check_trees(outside))
    two_roots = good + [dict(good[0])]
    assert any("more than one root" in problem for problem in check_trees(two_roots))


def test_calibration_measures_a_plausible_wrapper_cost():
    tracer = Tracer()
    tracer.calibrate(calls=2000, trials=2)
    assert 0.0 < tracer.inner_cost < 50e-6
    assert 0.0 <= tracer.outer_cost < 50e-6
