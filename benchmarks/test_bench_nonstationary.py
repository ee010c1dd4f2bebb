"""Extension bench: route flaps — the nonstationarity the live path had.

EXPERIMENTS.md and docs/calibration.md argue that the paper's CI-side
spread between predictors (MEAN visibly worse even under SM_CI) is a
signature of *within-run nonstationarity* that no stationary model can
express.  This bench provides the constructive witness: a path whose
propagation floor shifts at route flaps (192 ms ↔ 222 ms).  Windowed
predictors re-learn the new floor within a few heartbeats; the global
MEAN is anchored to the mixture average forever — and its SM_CI detector
collapses, exactly as the paper observed on the real Internet path.

A stationary control run (no flaps) shows the spread vanish again.
"""

import numpy as np
import pytest

from repro.fd.combinations import PREDICTOR_NAMES
from repro.fd.detector import PushFailureDetector
from repro.fd.heartbeat import Heartbeater
from repro.fd.multiplexer import MultiPlexer
from repro.fd.simcrash import SimCrash
from repro.neko.layer import ProtocolStack
from repro.neko.system import NekoSystem
from repro.nekostat.log import EventLog
from repro.nekostat.metrics import extract_qos
from repro.net.delay import ShiftedGammaDelay
from repro.net.topology import RouteFlappingDelay
from repro.sim.engine import Simulator

DURATION = 12_000.0
CRASHES = [
    (400.0 * k + 200.0 + (k * 0.37) % 1.0, 400.0 * k + 230.0)
    for k in range(30)
]


def run_world(flap_probability):
    sim = Simulator()
    rng = np.random.default_rng(3)
    routes = [
        ShiftedGammaDelay(rng, minimum=0.192, shape=2.0, scale=0.003),
        ShiftedGammaDelay(rng, minimum=0.222, shape=2.0, scale=0.003),
    ]
    delay = RouteFlappingDelay(rng, routes, flap_probability=flap_probability)
    log = EventLog()
    system = NekoSystem(sim)
    system.network.set_link("monitored", "monitor", delay, record_delays=False)
    heartbeater = Heartbeater("monitor", 1.0, log)
    simcrash = SimCrash(100.0, 30.0, None, log, schedule=CRASHES)
    system.create_process("monitored", ProtocolStack([heartbeater, simcrash]))
    detector = PushFailureDetector(
        "monitored", 1.0, log,
        [f"{predictor}+CI_med" for predictor in PREDICTOR_NAMES],
        initial_timeout=10.0,
    )
    system.create_process("monitor", ProtocolStack([MultiPlexer([detector], log)]))
    system.run(until=DURATION)
    qos = extract_qos(log, end_time=DURATION)
    return delay.flaps, {
        predictor: qos[f"{predictor}+CI_med"] for predictor in PREDICTOR_NAMES
    }


class TestRouteFlapNonstationarity:
    def test_bench_mean_collapses_under_route_flaps(self, benchmark):
        flaps, flapping = benchmark.pedantic(
            lambda: run_world(8e-4), rounds=1, iterations=1
        )
        _, stationary = run_world(0.0)

        print(f"\nRoute-flap study ({flaps} floor shifts of 30 ms, SM_CI_med)")
        print(f"{'predictor':<10}{'mistakes (flapping)':>21}"
              f"{'mistakes (stationary)':>23}")
        for predictor in PREDICTOR_NAMES:
            print(f"{predictor:<10}{len(flapping[predictor].mistakes):>21}"
                  f"{len(stationary[predictor].mistakes):>23}")

        trackers = [p for p in PREDICTOR_NAMES if p != "Mean"]

        # Under flaps, MEAN makes several times the mistakes of every
        # tracking predictor (they re-learn the new floor; MEAN cannot).
        worst_tracker = max(len(flapping[p].mistakes) for p in trackers)
        assert len(flapping["Mean"].mistakes) > 2 * worst_tracker

        # On the stationary control MEAN is NOT the outlier — it sits at
        # or below the trackers (its long memory is an asset there).
        best_tracker_stationary = min(
            len(stationary[p].mistakes) for p in trackers
        )
        assert len(stationary["Mean"].mistakes) <= 1.2 * best_tracker_stationary

        # The relative position flip is the witness: MEAN's mistake count
        # relative to the median tracker explodes when flaps turn on.
        def ratio(results):
            tracker_counts = sorted(len(results[p].mistakes) for p in trackers)
            median = tracker_counts[len(tracker_counts) // 2]
            return len(results["Mean"].mistakes) / max(1, median)

        assert ratio(flapping) > 3 * ratio(stationary)

        # Completeness is never at stake: every crash detected everywhere.
        for qos in flapping.values():
            assert qos.undetected_crashes == 0
