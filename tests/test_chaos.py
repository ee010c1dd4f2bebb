"""The chaos invariant suite, simulator side.

Covers the fault-plan DSL (round-trips, validation, ADD-channel generator),
the decision engine's determinism contract, ChaosLink behaviour on the
discrete-event network, and the end-to-end KV invariant: at full write
concern, a partition/heal script loses zero acked writes.
"""

import hashlib
import json
import math

import pytest

from repro.chaos import (
    ChaosEngine,
    FaultEvent,
    FaultPlan,
    add_channel_plan,
    run_kv_scenario,
    run_sim_scenario,
)

pytestmark = pytest.mark.chaos


class TestFaultPlan:
    def test_json_round_trip_preserves_everything(self):
        plan = FaultPlan(
            events=[
                FaultEvent("partition", 1.0, 2.0, source="a", destination="b"),
                FaultEvent("loss-burst", 3.0, 4.0, rate=0.5, note="storm"),
                FaultEvent("duplicate", 5.0, 6.0, copies=3),
                FaultEvent("reorder", 6.0, 7.0, rate=0.8, magnitude=0.4),
                FaultEvent("corrupt", 7.0, 8.0, rate=0.1),
                FaultEvent("truncate", 8.0, 9.0, rate=0.1),
                FaultEvent("delay-spike", 9.0, 10.0, magnitude=2.0),
                FaultEvent("clock-skew", 10.0, 11.0, magnitude=0.5),
                FaultEvent("pause", 11.0, 12.0, source="a"),
            ],
            seed=7,
            name="rt",
        )
        got = FaultPlan.from_json(plan.to_json())
        assert got == plan
        assert got.name == "rt" and got.seed == 7
        assert got.horizon == 12.0

    def test_save_load_round_trip(self, tmp_path):
        plan = FaultPlan(events=[FaultEvent("loss-burst", 0.0, 1.0, rate=0.5)], seed=3)
        path = tmp_path / "plan.json"
        plan.save(str(path))
        assert FaultPlan.load(str(path)) == plan

    def test_event_validation(self):
        with pytest.raises(ValueError):
            FaultEvent("tsunami", 0.0, 1.0)
        with pytest.raises(ValueError):
            FaultEvent("partition", 2.0, 1.0)
        with pytest.raises(ValueError):
            FaultEvent("loss-burst", 0.0, 1.0, rate=1.5)
        with pytest.raises(ValueError):
            FaultEvent("duplicate", 0.0, 1.0, copies=0)

    @pytest.mark.parametrize("field", ["start", "end", "magnitude"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_numbers_rejected(self, field, value):
        # An infinite magnitude stalled the simulator, a NaN one was a
        # silent no-op and an infinite end overflowed the run's duration.
        fields = dict(start=0.0, end=1.0, magnitude=0.5)
        fields[field] = value
        with pytest.raises(ValueError, match="finite"):
            FaultEvent("delay-spike", **fields)
        with pytest.raises(ValueError, match="finite"):
            FaultPlan.from_dict({"events": [dict(kind="delay-spike", **fields)]})

    def test_event_without_kind_start_or_end_rejected(self):
        for event in ({"start": 0, "end": 1}, {"kind": "pause", "end": 1}, 3):
            with pytest.raises(ValueError, match="kind, start and end"):
                FaultPlan.from_dict({"events": [event]})

    def test_pause_matches_both_directions(self):
        event = FaultEvent("pause", 0.0, 1.0, source="a")
        assert event.matches("a", "b")
        assert event.matches("b", "a")
        assert not event.matches("b", "c")

    def test_plan_from_spec(self):
        plan = FaultPlan.from_dict({
            "name": "spec", "seed": 9,
            "events": [{"kind": "loss-burst", "start": 0, "end": 5,
                        "rate": 0.3}],
        })
        assert plan.name == "spec" and plan.seed == 9
        assert plan.events[0].kind == "loss-burst"

    def test_add_channel_plan_is_deterministic(self):
        one = add_channel_plan(seed=11, stabilization_time=20, horizon=40)
        two = add_channel_plan(seed=11, stabilization_time=20, horizon=40)
        assert one.to_json() == two.to_json()
        assert one != add_channel_plan(
            seed=12, stabilization_time=20, horizon=40
        )

    #: sha256 of ``add_channel_plan(seed=s, **kwargs).to_json()``, taken
    #: from the chainable builder that generated these plans before the
    #: generator appended its events itself.
    ADD_CHANNEL_DIGESTS = {
        (0, "default"): "aa59923073f060735384e24037b18e95c6e18ef1a25fa3d829db505b41f38d2f",
        (0, "short"): "4f073ccc921095519c51eb9156552b59db92c2006920387d0de166e0d1ff8da3",
        (0, "custom"): "221fba0d0940b06cc4a6cc72ab25e0f13db564db84ae7fbe911ee0273d4864e2",
        (1, "default"): "89e7de84f84a8fc854625ddb38758f1055a6280212a5c74112a4bd60aa8c76ee",
        (1, "short"): "3106bc7cf104931ccd1d01260479e9f54bafd218dcdb88fc30f0432c9a5771ab",
        (1, "custom"): "34b6d9cd55c1421da6ecfe011f2118c41ff962a82b40ddc32e97c29a817f8eae",
        (7, "default"): "c803e655b9f0377662a0a4c503f31701014fe1a8056205ba42b9ff026d735985",
        (7, "short"): "eee8a45e213307e09e8c14a238d53d5bd3c075498348413dfe341a367d328d22",
        (7, "custom"): "2df658dd58bf07bb2bcc706c4dc0d28b6ded319cb8c4a4212e474f3a5d24255b",
    }
    ADD_CHANNEL_KWARGS = {
        "default": {},
        "short": dict(stabilization_time=10.0, horizon=25.0),
        "custom": dict(
            stabilization_time=3.0, horizon=4.5, source="a", destination="b",
            max_delay_spike=2.0, bounded_delay=0.1, bounded_loss_rate=0.2,
            name="x",
        ),
    }

    @pytest.mark.parametrize("seed, shape", sorted(ADD_CHANNEL_DIGESTS))
    def test_add_channel_plan_json_is_pinned(self, seed, shape):
        plan = add_channel_plan(seed=seed, **self.ADD_CHANNEL_KWARGS[shape])
        digest = hashlib.sha256(plan.to_json().encode()).hexdigest()
        assert digest == self.ADD_CHANNEL_DIGESTS[seed, shape]
        keys = [(e.start, e.end, e.kind) for e in plan.events]
        assert keys == sorted(keys)

    def test_add_channel_plan_has_adversarial_then_bounded_shape(self):
        plan = add_channel_plan(
            seed=0, stabilization_time=20, horizon=40,
            max_delay_spike=8.0, bounded_delay=0.25, bounded_loss_rate=0.05,
        )
        prefix = [e for e in plan.events if e.start < 20.0]
        suffix = [e for e in plan.events if e.start >= 20.0]
        assert prefix, "adversary must act before stabilization"
        assert {e.kind for e in prefix} <= {"loss-burst", "delay-spike"}
        # After stabilization both delay and loss are bounded.
        assert suffix and all(e.end <= 40.0 for e in suffix)
        for event in suffix:
            if event.kind == "delay-spike":
                assert event.magnitude <= 0.25
            if event.kind == "loss-burst":
                assert event.rate <= 0.05


def _decision_digest(decision):
    return (
        decision.drop,
        decision.copies,
        round(decision.extra_delay, 12),
        round(decision.skew, 12),
        decision.corrupt,
        decision.truncate,
        decision.hold_until,
        decision.faults,
    )


class TestChaosEngine:
    def test_same_seed_same_traffic_same_decisions(self):
        plan = FaultPlan(
            events=[
                FaultEvent("corrupt", 0.0, 10.0, rate=0.2),
                FaultEvent("loss-burst", 0.0, 10.0, rate=0.4),
                FaultEvent("reorder", 0.0, 10.0, rate=0.5, magnitude=0.3),
            ],
            seed=5,
        )
        traffic = [(0.05 * i, "a", "b") for i in range(100)]
        traffic += [(0.05 * i, "b", "a") for i in range(100)]
        runs = []
        for _ in range(2):
            engine = ChaosEngine(plan)
            runs.append([
                _decision_digest(engine.decide(now, src, dst))
                for now, src, dst in traffic
            ])
        assert runs[0] == runs[1]

    def test_pairs_draw_from_independent_streams(self):
        plan = FaultPlan(events=[FaultEvent("loss-burst", 0.0, 10.0, rate=0.5)], seed=5)
        engine = ChaosEngine(plan)
        ab = [engine.decide(0.1 * i, "a", "b").drop for i in range(200)]
        # A fresh engine gives the a->b stream the same draws even when
        # other pairs interleave differently.
        other = ChaosEngine(plan)
        interleaved = []
        for i in range(200):
            other.decide(0.1 * i, "c", "d")
            interleaved.append(other.decide(0.1 * i, "a", "b").drop)
        assert ab == interleaved

    def test_partition_drops_only_inside_window(self):
        plan = FaultPlan(
            events=[FaultEvent("partition", 2.0, 4.0, source="a", destination="b")]
        )
        engine = ChaosEngine(plan)
        assert not engine.decide(1.9, "a", "b").drop
        assert engine.decide(2.0, "a", "b").drop
        assert engine.decide(3.9, "a", "b").drop
        assert not engine.decide(4.0, "a", "b").drop
        assert not engine.decide(3.0, "b", "a").drop  # unidirectional
        assert engine.stats.dropped == 2

    def test_pause_drops_outbound_and_holds_inbound(self):
        plan = FaultPlan(events=[FaultEvent("pause", 1.0, 3.0, source="a")])
        engine = ChaosEngine(plan, time_origin=10.0)
        outbound = engine.decide(11.5, "a", "b")
        assert outbound.drop and outbound.copies == 0
        inbound = engine.decide(11.5, "b", "a")
        assert not inbound.drop
        assert inbound.hold_until == pytest.approx(13.0)

    def test_payload_fault_decisions(self):
        plan = FaultPlan(
            events=[
                FaultEvent("duplicate", 0.0, 1.0, copies=3),
                FaultEvent("delay-spike", 1.0, 2.0, magnitude=0.75),
                FaultEvent("clock-skew", 2.0, 3.0, magnitude=0.5),
                FaultEvent("truncate", 3.0, 4.0, rate=1.0),
            ]
        )
        engine = ChaosEngine(plan)
        assert engine.decide(0.5, "a", "b").copies == 3
        assert engine.decide(1.5, "a", "b").extra_delay == pytest.approx(0.75)
        assert engine.decide(2.5, "a", "b").skew == pytest.approx(0.5)
        decision = engine.decide(3.5, "a", "b")
        assert decision.truncate and not decision.corrupt

    def test_mangle_truncates_and_flips_deterministically(self):
        plan = FaultPlan(events=[FaultEvent("corrupt", 0.0, 1.0, rate=1.0)], seed=1)
        raw = b"x" * 64
        one = ChaosEngine(plan)
        two = ChaosEngine(plan)
        d1 = one.decide(0.5, "a", "b")
        d2 = two.decide(0.5, "a", "b")
        assert one.mangle(raw, d1, "a", "b") == two.mangle(raw, d2, "a", "b")
        assert one.mangle(raw, d1, "a", "b") != raw  # flips at least 1 byte

    def test_report_counts_by_kind(self):
        plan = FaultPlan(events=[FaultEvent("loss-burst", 0.0, 1.0, rate=1.0)])
        engine = ChaosEngine(plan)
        engine.decide(0.5, "a", "b")
        report = engine.report()
        assert report["stats"]["dropped"] == 1
        assert report["stats"]["by_kind"] == {"loss-burst": 1}


class TestSimScenarios:
    def test_partition_heal_detector_suspects_then_retrusts(self):
        plan = FaultPlan(
            events=[FaultEvent(
                "partition", 10.0, 15.0, source="monitored", destination="monitor"
            )],
            name="part",
        )
        report = run_sim_scenario(plan, duration=30.0, eta=0.1)
        assert report["survived"]
        assert report["chaos"]["stats"]["dropped"] >= 40
        brief = report["qos"]["Last+CI_med"]
        # The 5s silence is a detector mistake (no crash happened)...
        assert brief["mistakes"] >= 1
        # ...and the detector re-trusts once the partition heals.
        assert report["suspecting_at_end"] == {"Last+CI_med": False}

    def test_scenario_replay_is_deterministic(self):
        plan = add_channel_plan(seed=3, stabilization_time=8, horizon=16)
        one = run_sim_scenario(plan, duration=24.0, eta=0.1)
        two = run_sim_scenario(plan, duration=24.0, eta=0.1)
        assert json.dumps(one, sort_keys=True) == json.dumps(
            two, sort_keys=True
        )

    def test_empty_plan_is_transparent(self):
        empty = FaultPlan(name="empty")
        chaotic = run_sim_scenario(empty, duration=30.0, eta=0.1)
        assert chaotic["chaos"]["stats"]["decisions"] > 0
        assert chaotic["chaos"]["stats"]["dropped"] == 0
        # The filter without faults is bit-transparent: same QoS as a
        # plain run of the same config.
        from repro.experiments.runner import run_qos_experiment
        from repro.kv.sim import qos_brief
        from repro.neko.config import ExperimentConfig

        baseline = run_qos_experiment(
            ExperimentConfig(
                num_cycles=300, mttc=1e9, ttr=0.0, eta=0.1, seed=2005
            ),
            ["Last+CI_med"],
        )
        assert chaotic["qos"]["Last+CI_med"] == qos_brief(
            baseline.qos["Last+CI_med"]
        )

    def test_add_channel_detector_retrusts_after_stabilization(self):
        plan = add_channel_plan(seed=1, stabilization_time=12, horizon=24)
        report = run_sim_scenario(plan, duration=40.0, eta=0.1)
        assert report["survived"]
        assert report["suspecting_at_end"] == {"Last+CI_med": False}


class TestKvChaosInvariants:
    def test_partition_heal_loses_zero_acked_writes_at_full_concern(self):
        # Isolate the initial primary from everyone for a third of the
        # run.  At full write concern every acked SET has reached every
        # backup, so no acked write may ever be lost — the invariant the
        # paper's user-visible QoS layer exists to witness.
        plan = FaultPlan(
            events=[
                FaultEvent("partition", 20.0, 50.0, source="node0", note="isolate node0"),
                FaultEvent(
                    "partition", 20.0, 50.0, destination="node0", note="isolate node0"
                ),
            ],
            name="kv-part",
        )
        report = run_kv_scenario(plan, duration=90.0, seed=1)
        summary = report["summary"]
        assert report["survived"]
        assert report["chaos"]["stats"]["dropped"] > 0
        assert summary["ops"] > 0 and summary["acked_writes"] > 0
        assert summary["lost_writes"] == 0
        # The partition forced at least one view change.
        assert report["views"] >= 2

    def test_kv_scenario_is_deterministic(self):
        plan = FaultPlan(events=[FaultEvent("loss-burst", 5.0, 15.0, rate=0.5)], seed=2)
        one = run_kv_scenario(plan, duration=40.0)
        two = run_kv_scenario(plan, duration=40.0)
        assert json.dumps(one, sort_keys=True) == json.dumps(
            two, sort_keys=True
        )
