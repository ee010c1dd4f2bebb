"""Unit and scenario tests for the heartbeat trace recorder.

The recorder itself is exercised directly (ring bounds, JSONL output,
rotation, self-measurement); the emission sites are exercised through
the real simulator architecture so every suspect/trust transition and
freshness arming shows up as span events with the right sequence
numbers.
"""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fd.combinations import make_strategy
from repro.fd.detector import PushFailureDetector
from repro.fd.heartbeat import Heartbeater
from repro.fd.multiplexer import MultiPlexer
from repro.fd.simcrash import SimCrash
from repro.neko.layer import ProtocolStack
from repro.neko.system import NekoSystem
from repro.net.delay import ConstantDelay
from repro.obs import TraceEvent, TraceRecorder
from repro.obs.analyze import rotated_paths

pytestmark = pytest.mark.obs


class TestTraceEvent:
    def test_to_dict_includes_only_set_fields(self):
        event = TraceEvent(t=1.5, kind="send", endpoint="q")
        assert event.to_dict() == {"t": 1.5, "kind": "send", "endpoint": "q"}

    def test_to_dict_full(self):
        event = TraceEvent(
            t=2.0, kind="freshness", endpoint="q", detector="Last+CI_med",
            seq=7, delay=0.2, timeout=0.31, deadline=3.51,
        )
        record = event.to_dict()
        assert record["detector"] == "Last+CI_med"
        assert record["seq"] == 7
        assert record["delay"] == 0.2
        assert record["timeout"] == 0.31
        assert record["deadline"] == 3.51

    def test_slots(self):
        event = TraceEvent(t=0.0, kind="send", endpoint="q")
        with pytest.raises(AttributeError):
            event.extra = 1


class TestTraceRecorderRing:
    def test_ring_is_bounded_and_counts_evictions(self):
        recorder = TraceRecorder(ring_capacity=4)
        for i in range(10):
            recorder.emit(float(i), "send", "q", seq=i)
        assert len(recorder) == 4
        assert recorder.events_total == 10
        assert recorder.evicted_total == 6
        assert [e["seq"] for e in recorder.tail()] == [6, 7, 8, 9]

    def test_tail_limit_returns_newest(self):
        recorder = TraceRecorder(ring_capacity=16)
        for i in range(8):
            recorder.emit(float(i), "send", "q", seq=i)
        assert [e["seq"] for e in recorder.tail(3)] == [5, 6, 7]
        assert recorder.tail(0) == []
        with pytest.raises(ValueError):
            recorder.tail(-1)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            TraceRecorder(ring_capacity=0)
        with pytest.raises(ValueError):
            TraceRecorder(max_bytes=100)
        with pytest.raises(ValueError):
            TraceRecorder(backups=-1)

    def test_tail_filters_by_endpoint_and_kind(self):
        recorder = TraceRecorder(ring_capacity=64)
        for i in range(4):
            recorder.emit(float(i), "send", "a", seq=i)
            recorder.emit(float(i) + 0.1, "receive", "a", seq=i, delay=0.1)
            recorder.emit(float(i) + 0.2, "send", "b", seq=i)
        only_a = recorder.tail(64, endpoint="a")
        assert {e["endpoint"] for e in only_a} == {"a"}
        assert len(only_a) == 8
        sends = recorder.tail(64, kind="send")
        assert {e["kind"] for e in sends} == {"send"}
        assert len(sends) == 8
        a_sends = recorder.tail(64, endpoint="a", kind="send")
        assert [e["seq"] for e in a_sends] == [0, 1, 2, 3]
        assert recorder.tail(64, endpoint="nope") == []

    def test_tail_filter_applies_before_limit(self):
        """A scoped tail digs past newer events of other endpoints."""
        recorder = TraceRecorder(ring_capacity=64)
        recorder.emit(0.0, "send", "a", seq=0)
        for i in range(10):
            recorder.emit(1.0 + i, "send", "b", seq=i)
        assert [e["seq"] for e in recorder.tail(2, endpoint="a")] == [0]


class TestTraceRecorderFile:
    def test_jsonl_lines_parse(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        recorder = TraceRecorder(str(path))
        recorder.emit(0.0, "send", "q", seq=0)
        recorder.emit(0.2, "receive", "q", seq=0, delay=0.2)
        recorder.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        records = [json.loads(line) for line in lines]
        assert records[0] == {"t": 0.0, "kind": "send", "endpoint": "q", "seq": 0}
        assert records[1]["delay"] == 0.2
        assert recorder.bytes_total == len(path.read_bytes())

    def test_rotation_keeps_bounded_generations(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        recorder = TraceRecorder(str(path), max_bytes=4096, backups=2)
        payload = "x" * 120
        for i in range(200):
            recorder.emit(float(i), "send", payload, seq=i)
        recorder.close()
        assert recorder.rotations_total >= 2
        assert (tmp_path / "trace.jsonl.1").exists()
        assert (tmp_path / "trace.jsonl.2").exists()
        assert not (tmp_path / "trace.jsonl.3").exists()
        # Every surviving generation is valid JSONL.
        for name in ("trace.jsonl", "trace.jsonl.1", "trace.jsonl.2"):
            for line in (tmp_path / name).read_text().splitlines():
                json.loads(line)

    def test_rotation_mid_burst_loses_nothing(self, tmp_path):
        """Rotate in the middle of a dense burst: counting every line in
        every surviving generation accounts for every emitted event."""
        path = tmp_path / "trace.jsonl"
        recorder = TraceRecorder(str(path), max_bytes=4096, backups=8)
        payload = "y" * 100
        total = 250
        for i in range(total):
            recorder.emit(float(i), "send", payload, seq=i)
        recorder.close()
        assert recorder.rotations_total >= 2
        seqs = []
        names = [f"trace.jsonl.{n}" for n in
                 range(recorder.rotations_total, 0, -1)] + ["trace.jsonl"]
        for name in names:
            generation = tmp_path / name
            if generation.exists():
                for line in generation.read_text().splitlines():
                    seqs.append(json.loads(line)["seq"])
        assert seqs == list(range(total))

    def test_reopen_after_close_appends(self, tmp_path):
        """A new recorder on an existing path appends (daemon restart)."""
        path = tmp_path / "trace.jsonl"
        first = TraceRecorder(str(path))
        first.emit(0.0, "send", "q", seq=0)
        first.close()
        second = TraceRecorder(str(path))
        second.emit(1.0, "send", "q", seq=1)
        second.close()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["seq"] for r in records] == [0, 1]

    def test_tail_continuity_across_rotation(self, tmp_path):
        """The in-memory ring is oblivious to file rotation: the tail
        stays contiguous straight through a rotation boundary."""
        path = tmp_path / "trace.jsonl"
        recorder = TraceRecorder(
            str(path), ring_capacity=512, max_bytes=4096, backups=1
        )
        payload = "z" * 100
        for i in range(120):
            recorder.emit(float(i), "send", payload, seq=i)
        assert recorder.rotations_total >= 1
        seqs = [e["seq"] for e in recorder.tail(512)]
        assert seqs == list(range(120))
        recorder.close()

    def test_close_is_idempotent_and_emit_noops_after(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        recorder = TraceRecorder(str(path))
        recorder.emit(0.0, "send", "q")
        recorder.close()
        recorder.close()
        recorder.emit(1.0, "send", "q")
        assert recorder.closed
        assert recorder.events_total == 1

    def test_stats_payload(self):
        recorder = TraceRecorder(ring_capacity=8)
        recorder.emit(0.0, "send", "q")
        stats = recorder.stats()
        assert stats["events_total"] == 1
        assert stats["ring_size"] == 1
        assert stats["ring_capacity"] == 8
        assert stats["path"] is None
        assert stats["overhead_seconds"] >= 0.0


def _freshness_rows(count, width=0):
    return [
        (f"fd{i:03d}" + "x" * width, None, 0.25 + i * 1e-3, 10.0 + i * 1e-3)
        for i in range(count)
    ]


# Names off the wire are arbitrary text; numeric fields arrive as Python
# or numpy scalars, finite or not.
NAMES = st.text(max_size=12)
NUMBERS = st.one_of(
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from([float("inf"), float("-inf"), float("nan"), -0.0, 1e-320]),
)
OPTIONAL_NUMBERS = st.one_of(st.none(), NUMBERS)
ROWS = st.lists(
    st.tuples(NAMES, OPTIONAL_NUMBERS, OPTIONAL_NUMBERS, OPTIONAL_NUMBERS),
    min_size=1,
    max_size=5,
)


class TestLineBytes:
    """The recorder formats its lines itself; what it writes is still,
    byte for byte, the compact ``json.dumps`` of the public record."""

    @given(
        t=NUMBERS,
        kind=NAMES,
        endpoint=NAMES,
        seq=st.integers(min_value=-3, max_value=2**40),
        rows=ROWS,
        batched=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_lines_equal_json_dumps_of_the_event(
        self, t, kind, endpoint, seq, rows, batched
    ):
        events = [
            TraceEvent(t, kind, endpoint, detector, seq, delay, timeout, deadline)
            for detector, delay, timeout, deadline in rows
        ]
        expected = "".join(
            json.dumps(event.to_dict(), separators=(",", ":")) + "\n"
            for event in events
        )
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "trace.jsonl")
            recorder = TraceRecorder(path)
            if batched:
                recorder.emit_batch(t, kind, endpoint, rows, seq=seq)
            else:
                for detector, delay, timeout, deadline in rows:
                    recorder.emit(
                        t, kind, endpoint, detector=detector, seq=seq,
                        delay=delay, timeout=timeout, deadline=deadline,
                    )
            recorder.close()
            with open(path, "rb") as handle:
                written = handle.read()
        assert written == expected.encode("utf-8")
        assert recorder.bytes_total == len(written)
        assert recorder.events_total == len(rows)
        # NaN is not equal to itself: compare the tail by its spelling.
        assert json.dumps(recorder.tail(len(rows))) == json.dumps(
            [event.to_dict() for event in events]
        )


class TestBatchAccounting:
    """One eviction count, one write and one rotation check per batch
    must leave the counters where one ``emit`` per row leaves them."""

    @pytest.mark.parametrize("before, batch", [(3, 4), (0, 5), (5, 5), (2, 13), (5, 1)])
    def test_batch_crossing_the_ring_counts_evictions_exactly(self, before, batch):
        batched = TraceRecorder(ring_capacity=5)
        single = TraceRecorder(ring_capacity=5)
        rows = _freshness_rows(batch)
        for recorder in (batched, single):
            for i in range(before):
                recorder.emit(float(i), "send", "q", seq=i)
        batched.emit_batch(9.0, "freshness", "q", rows, seq=7)
        for detector, delay, timeout, deadline in rows:
            single.emit(
                9.0, "freshness", "q", detector=detector, seq=7,
                delay=delay, timeout=timeout, deadline=deadline,
            )
        assert batched.evicted_total == single.evicted_total == max(0, before + batch - 5)
        assert batched.events_total == single.events_total == before + batch
        assert batched.tail(5) == single.tail(5)
        assert len(batched) == min(5, before + batch)

    def test_batch_crossing_max_bytes_rotates_and_counts_every_byte(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        recorder = TraceRecorder(path, max_bytes=4096, backups=8)
        rows = _freshness_rows(30, width=40)
        for seq in range(4):
            recorder.emit_batch(float(seq), "freshness", "q", rows, seq=seq)
        recorder.close()
        # A batch is ~3.9 kB: the check after each one rotates.
        assert recorder.rotations_total >= 3
        generations = rotated_paths(path)
        assert recorder.bytes_total == sum(os.path.getsize(g) for g in generations)
        records = [
            json.loads(line)
            for generation in generations
            for line in open(generation, encoding="utf-8")
        ]
        assert [(r["seq"], r["detector"]) for r in records] == [
            (seq, row[0]) for seq in range(4) for row in rows
        ]

    def test_emit_batch_after_close_is_a_noop(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        recorder = TraceRecorder(str(path))
        recorder.emit_batch(0.0, "freshness", "q", _freshness_rows(3), seq=0)
        recorder.close()
        recorder.emit_batch(1.0, "freshness", "q", _freshness_rows(3), seq=1)
        assert recorder.events_total == 3
        assert len(recorder) == 3
        assert len(path.read_text().splitlines()) == 3

    def test_empty_batch_records_nothing(self, tmp_path):
        recorder = TraceRecorder(str(tmp_path / "trace.jsonl"))
        recorder.emit_batch(0.0, "freshness", "q", [], seq=0)
        recorder.close()
        assert recorder.events_total == 0 and recorder.bytes_total == 0


class _FullDisk:
    """A sink whose every write fails, as on a full disk."""

    def write(self, text):
        raise OSError(28, "No space left on device")

    def close(self):
        raise OSError(28, "No space left on device")


class TestWriteErrors:
    def test_failing_sink_drops_to_ring_only_and_is_counted(self, tmp_path):
        recorder = TraceRecorder(str(tmp_path / "trace.jsonl"), ring_capacity=16)
        recorder.emit(0.0, "send", "q", seq=0)
        written = recorder.bytes_total
        recorder._file.close()
        recorder._file = _FullDisk()
        recorder.emit(1.0, "send", "q", seq=1)  # must not raise
        recorder.emit_batch(2.0, "freshness", "q", _freshness_rows(3), seq=1)
        assert recorder.write_errors_total == 1  # ring-only after the first
        assert recorder.stats()["write_errors_total"] == 1
        assert recorder.bytes_total == written
        assert recorder.events_total == 5
        assert [e["kind"] for e in recorder.tail()] == ["send", "send"] + ["freshness"] * 3
        recorder.close()

    def test_rotation_into_a_vanished_directory_is_a_write_error(self, tmp_path):
        directory = tmp_path / "logs"
        directory.mkdir()
        recorder = TraceRecorder(str(directory / "trace.jsonl"), max_bytes=4096)
        os.rename(directory, tmp_path / "rotated-away")
        for seq in range(3):  # the open file still takes writes; rotation cannot
            recorder.emit_batch(float(seq), "freshness", "q", _freshness_rows(30, 40), seq=seq)
        assert recorder.write_errors_total == 1
        assert recorder.events_total == 90
        recorder.close()

    def test_daemon_keeps_dispatching_and_exports_the_count(self, tmp_path):
        import asyncio

        from repro.net.message import Datagram
        from repro.service import MonitorDaemon

        async def main():
            tracer = TraceRecorder(str(tmp_path / "trace.jsonl"))
            daemon = MonitorDaemon(port=0, http_port=None, eta=0.5, tracer=tracer)
            await daemon.start()
            try:
                tracer._file.close()
                tracer._file = _FullDisk()
                for seq in range(2):
                    daemon.dispatch(
                        Datagram(
                            source="ep", destination="monitor", kind="heartbeat",
                            seq=seq, timestamp=daemon.scheduler.now,
                        )
                    )
                assert daemon.heartbeats_total == 2
                tail = daemon.trace_tail(100)
                assert tail["recorder"]["write_errors_total"] == 1
                assert {e["kind"] for e in tail["events"]} == {
                    "receive", "fanout", "freshness"
                }
                assert "fd_obs_trace_write_errors_total 1" in daemon.metrics_text()
            finally:
                await daemon.stop()

        asyncio.run(asyncio.wait_for(main(), timeout=10.0))


def _traced_scenario(sim, event_log, tracer, *, crash_schedule=()):
    """Heartbeater -> SimCrash -> link -> MultiPlexer -> one detector,
    with the tracer plugged into both monitor-side layers."""
    system = NekoSystem(sim)
    system.network.set_link("monitored", "monitor", ConstantDelay(0.2))
    heartbeater = Heartbeater("monitor", 1.0, event_log)
    simcrash = SimCrash(100.0, 10.0, None, event_log, schedule=list(crash_schedule))
    system.create_process("monitored", ProtocolStack([heartbeater, simcrash]))
    detector = PushFailureDetector(
        make_strategy("Last", "CI_med"), "monitored", 1.0, event_log,
        detector_id="fd", initial_timeout=5.0, tracer=tracer,
    )
    multiplexer = MultiPlexer([detector], event_log, tracer=tracer)
    system.create_process("monitor", ProtocolStack([multiplexer]))
    system.start()
    return detector


class TestDetectorEmission:
    def test_steady_state_emits_fanout_and_freshness(self, sim, event_log):
        tracer = TraceRecorder(ring_capacity=1024)
        _traced_scenario(sim, event_log, tracer)
        sim.run(until=10.0)
        kinds = [e["kind"] for e in tracer.tail(1024)]
        assert "fanout" in kinds and "freshness" in kinds
        assert "suspect" not in kinds  # stable link, no mistakes
        freshness = [e for e in tracer.tail(1024) if e["kind"] == "freshness"]
        # Every fresh heartbeat arms a deadline beyond its arrival.
        for e in freshness:
            assert e["deadline"] > e["t"]
            assert e["timeout"] > 0.0
            assert e["detector"] == "fd"

    def test_crash_produces_suspect_then_trust_with_matching_seq(
        self, sim, event_log
    ):
        tracer = TraceRecorder(ring_capacity=4096)
        detector = _traced_scenario(
            sim, event_log, tracer, crash_schedule=[(10.5, 20.5)]
        )
        sim.run(until=40.0)
        events = tracer.tail(4096)
        suspects = [e for e in events if e["kind"] == "suspect"]
        trusts = [e for e in events if e["kind"] == "trust"]
        assert len(suspects) == 1 and len(trusts) == 1
        assert suspects[0]["t"] < trusts[0]["t"]
        # The suspicion froze at the last pre-crash heartbeat; trust came
        # from the first post-restore one, a strictly higher sequence.
        assert trusts[0]["seq"] > suspects[0]["seq"]
        assert detector.highest_sequence >= trusts[0]["seq"]

    def test_disabled_tracer_is_default(self, sim, event_log):
        detector = _traced_scenario(sim, event_log, None)
        sim.run(until=10.0)
        assert detector.heartbeats_seen == 10


class TestSendSpanRegression:
    """Satellite guarantees: every ``send`` span carries the emitter's
    wall-time and sequence, so breakdowns never have to infer the emit
    time; and a failing daemon socket emits a well-formed ``send-error``
    span instead of raising (the span kind collides with ``emit()``'s
    positional, so the datagram kind must ride in ``detector``)."""

    def test_emitter_send_span_time_equals_datagram_timestamp(self):
        import asyncio

        from repro.fd.heartbeat import Heartbeater
        from repro.neko.layer import ProtocolStack
        from repro.neko.system import NekoSystem
        from repro.net.udp import UdpNetwork
        from repro.service.heartbeat import LiveCrash

        async def main():
            tracer = TraceRecorder(ring_capacity=64)
            network = UdpNetwork(tracer=tracer)
            await network.open()
            datagrams = []
            network.register(
                "monitor",
                lambda m: datagrams.append(m) if m.kind == "heartbeat" else None,
            )
            heartbeater, crash = Heartbeater("monitor", 0.02), LiveCrash("monitor")
            system = NekoSystem(network.scheduler, network)
            system.create_process("ep", ProtocolStack([heartbeater, crash]))
            system.start()
            # fdlint: disable=clock-discipline (live emitter test runs on the wall clock by contract)
            await asyncio.sleep(0.1)
            crash.crash()  # suppressed heartbeats must leave no span
            # fdlint: disable=clock-discipline (live emitter test runs on the wall clock by contract)
            await asyncio.sleep(0.06)
            crash.restore()
            # fdlint: disable=clock-discipline (live emitter test runs on the wall clock by contract)
            await asyncio.sleep(0.1)
            heartbeater.stop()
            # fdlint: disable=clock-discipline (lets the last datagram land)
            await asyncio.sleep(0.05)
            network.close()
            spans = tracer.tail(64, kind="send")
            assert len(spans) >= 3
            assert crash.dropped_messages >= 1
            assert len(spans) == len(datagrams)
            for span, datagram in zip(spans, datagrams):
                # The span's t IS the datagram's wire timestamp — the
                # same clock read, not a second sample.
                assert span["t"] == datagram.timestamp
                assert span["seq"] == datagram.seq
                assert span["endpoint"] == "ep"

        asyncio.run(asyncio.wait_for(main(), timeout=10.0))

    def test_daemon_send_error_emits_span_not_typeerror(self):
        import asyncio

        from repro.net.message import Datagram
        from repro.service import MonitorDaemon

        class BrokenTransport:
            def is_closing(self):
                return False

            def sendto(self, data, addr):
                raise OSError("socket gone")

        async def main():
            tracer = TraceRecorder(ring_capacity=16)
            daemon = MonitorDaemon(
                port=0, http_port=None, eta=0.5, tracer=tracer
            )
            await daemon.start()
            try:
                daemon.network.add_peer("ep", ("127.0.0.1", 9))
                transport = daemon.network._transport
                daemon.network._transport = BrokenTransport()
                message = Datagram(
                    source="monitor", destination="ep", kind="crash-ack"
                )
                assert daemon.network.send(message) is False
                assert daemon.send_errors_total == 1
                [span] = tracer.tail(16, kind="send-error")
                assert span["endpoint"] == "ep"
                assert span["detector"] == "crash-ack"
            finally:
                daemon.network._transport = transport
                await daemon.stop()

        asyncio.run(asyncio.wait_for(main(), timeout=10.0))
