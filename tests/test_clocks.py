"""Tests for the clock substrate (local clocks and NTP synchronisation)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocks.clock import DriftingClock, PerfectClock
from repro.clocks.ntp import DisciplinedClock, NtpSample, NtpSynchronizer
from repro.sim.engine import Simulator


class TestPerfectClock:
    def test_reads_global_time(self, sim):
        clock = PerfectClock(sim)
        sim.schedule(3.5, lambda: None)
        sim.run()
        assert clock.now() == 3.5

    def test_roundtrip_identity(self, sim):
        clock = PerfectClock(sim)
        assert clock.global_from_local(clock.local_from_global(7.0)) == 7.0


class TestDriftingClock:
    def test_constant_offset(self, sim):
        clock = DriftingClock(sim, offset=0.25)
        assert clock.local_from_global(10.0) == 10.25

    def test_drift_accumulates(self, sim):
        clock = DriftingClock(sim, drift=1e-3)
        assert clock.local_from_global(1000.0) == pytest.approx(1001.0)

    def test_offset_and_drift_combined(self, sim):
        clock = DriftingClock(sim, offset=0.5, drift=1e-4)
        assert clock.local_from_global(100.0) == pytest.approx(100.51)

    def test_inverse_mapping(self, sim):
        clock = DriftingClock(sim, offset=0.3, drift=2e-4)
        t = 1234.5
        assert clock.global_from_local(clock.local_from_global(t)) == pytest.approx(t)

    def test_adjust_steps_offset(self, sim):
        clock = DriftingClock(sim, offset=0.5)
        clock.adjust(-0.5)
        assert clock.offset == 0.0
        assert clock.local_from_global(10.0) == 10.0

    def test_extreme_negative_drift_rejected(self, sim):
        with pytest.raises(ValueError):
            DriftingClock(sim, drift=-1.0)

    def test_now_tracks_simulator(self, sim):
        clock = DriftingClock(sim, offset=1.0)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert clock.now() == pytest.approx(3.0)


class TestNtpSample:
    def test_offset_estimation_symmetric_path(self):
        # Client 0.5 s behind server, symmetric 0.1 s delays.
        sample = NtpSample(t0=10.0, t1=10.6, t2=10.6, t3=10.2)
        assert sample.offset == pytest.approx(0.5)

    def test_round_trip_excludes_server_time(self):
        sample = NtpSample(t0=10.0, t1=10.6, t2=10.7, t3=10.3)
        assert sample.round_trip == pytest.approx(0.2)

    def test_asymmetry_biases_offset(self):
        # True offset 0: out 0.3 s, back 0.1 s => estimate (0.3-0.1)/2 = 0.1.
        sample = NtpSample(t0=0.0, t1=0.3, t2=0.3, t3=0.4)
        assert sample.offset == pytest.approx(0.1)


class TestNtpSynchronizer:
    def test_corrects_constant_offset(self, sim):
        clock = DriftingClock(sim, offset=0.5)
        sync = NtpSynchronizer(
            sim,
            clock,
            server_now=lambda t: t,
            delay_out=lambda: 0.05,
            delay_back=lambda: 0.05,
            poll_interval=10.0,
        )
        sync.start()
        sim.run(until=1.0)
        assert abs(clock.offset) < 1e-9

    def test_repeated_rounds_keep_drifting_clock_bounded(self, sim):
        clock = DriftingClock(sim, offset=0.2, drift=1e-5)
        sync = NtpSynchronizer(
            sim,
            clock,
            server_now=lambda t: t,
            delay_out=lambda: 0.05,
            delay_back=lambda: 0.05,
            poll_interval=64.0,
        )
        sync.start()
        sim.run(until=1000.0)
        # Residual error bounded by drift * poll_interval plus estimator noise.
        error = clock.local_from_global(sim.now) - sim.now
        assert abs(error) < 5e-3

    def test_min_delay_filter_prefers_fast_sample(self, sim):
        clock = DriftingClock(sim, offset=0.5)
        delays = iter([0.5, 0.05, 0.3, 0.4])
        sync = NtpSynchronizer(
            sim,
            clock,
            server_now=lambda t: t,
            delay_out=lambda: next(delays),
            delay_back=lambda: 0.05,
            poll_interval=10.0,
            samples_per_round=4,
        )
        sync.start()
        sim.run(until=1.0)
        # Symmetric fastest exchange has zero bias, so offset fully corrected.
        assert abs(clock.offset) < 1e-9

    def test_history_records_samples(self, sim):
        clock = DriftingClock(sim, offset=0.0)
        sync = NtpSynchronizer(
            sim, clock, lambda t: t, lambda: 0.01, lambda: 0.01,
            poll_interval=5.0, samples_per_round=2,
        )
        sync.start()
        sim.run(until=11.0)
        assert len(sync.history) == 6  # 3 rounds x 2 samples
        assert len(sync.corrections) == 3

    def test_stop_halts_polling(self, sim):
        clock = DriftingClock(sim, offset=0.0)
        sync = NtpSynchronizer(
            sim, clock, lambda t: t, lambda: 0.01, lambda: 0.01, poll_interval=5.0
        )
        sync.start()
        sim.schedule(6.0, sync.stop)
        sim.run(until=100.0)
        assert len(sync.corrections) == 2

    def test_asymmetric_path_leaves_residual(self, sim):
        clock = DriftingClock(sim, offset=0.0)
        sync = NtpSynchronizer(
            sim, clock, lambda t: t, lambda: 0.3, lambda: 0.1, poll_interval=10.0,
            samples_per_round=1,
        )
        sync.start()
        sim.run(until=1.0)
        # Residual = (out - back) / 2 = 0.1 s injected into the clock.
        assert clock.offset == pytest.approx(0.1)

    def test_invalid_samples_per_round(self, sim):
        clock = DriftingClock(sim, offset=0.0)
        with pytest.raises(ValueError):
            NtpSynchronizer(
                sim, clock, lambda t: t, lambda: 0.01, lambda: 0.01,
                samples_per_round=0,
            )

    def test_negative_delay_rejected(self, sim):
        clock = DriftingClock(sim, offset=0.0)
        sync = NtpSynchronizer(
            sim, clock, lambda t: t, lambda: -0.1, lambda: 0.01
        )
        with pytest.raises(ValueError):
            sync.sample_once()


class TestDisciplinedClock:
    def test_bundles_clock_and_synchronizer(self, sim):
        clock = DisciplinedClock(
            sim, offset=0.4, drift=0.0,
            delay_out=lambda: 0.02, delay_back=lambda: 0.02,
            poll_interval=10.0,
        )
        clock.start_sync()
        sim.run(until=1.0)
        assert abs(clock.offset) < 1e-9
        clock.stop_sync()


finite = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


class TestBatchedMap:
    @given(
        st.sampled_from(["perfect", "drifting", "disciplined"]),
        finite,
        st.floats(min_value=-1e-3, max_value=1e-3),
        st.lists(st.floats(min_value=-1.0, max_value=1.0), max_size=3),
        st.lists(finite, max_size=40),
        finite,
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_global_from_local_per_offset(
        self, kind, offset, drift, steps, deltas, base
    ):
        """``global_from_local_offsets`` is ``global_from_local`` of each
        ``base + d``, bit for bit, with the offset in force at call time."""
        sim = Simulator()
        if kind == "perfect":
            clock = PerfectClock(sim)
            steps = []  # a perfect clock is never stepped
        elif kind == "drifting":
            clock = DriftingClock(sim, offset=offset, drift=drift)
        else:
            clock = DisciplinedClock(
                sim, offset=offset, drift=drift,
                delay_out=lambda: 0.01, delay_back=lambda: 0.01,
            )
        for correction in [0.0, *steps]:
            if correction:
                clock.adjust(correction)
            batched = clock.global_from_local_offsets(base, deltas)
            single = [clock.global_from_local(base + d) for d in deltas]
            assert [x.hex() for x in batched] == [x.hex() for x in single]
