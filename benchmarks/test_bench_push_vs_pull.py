"""Bench for the paper's Section 2.2 claim: push-style monitoring obtains
the same quality of detection with half the messages of pull-style."""

import pytest

from repro.fd.combinations import make_strategy
from repro.fd.detector import PushFailureDetector
from repro.fd.heartbeat import Heartbeater
from repro.fd.multiplexer import MultiPlexer
from repro.fd.pull import PullFailureDetector, PullResponder
from repro.fd.simcrash import SimCrash
from repro.neko.layer import ProtocolStack
from repro.neko.system import NekoSystem
from repro.nekostat.log import EventLog
from repro.nekostat.metrics import extract_qos
from repro.net.wan import italy_japan_profile
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams

DURATION = 2_000.0
CRASHES = [(200.5 + 400 * k, 230.5 + 400 * k) for k in range(4)]


def run_world(style: str):
    sim = Simulator()
    streams = RandomStreams(77)
    profile = italy_japan_profile()
    event_log = EventLog()
    system = NekoSystem(sim)
    forward = system.network.set_link_profile(
        "monitored", "monitor", profile, streams, record_delays=False
    )
    reverse = system.network.set_link_profile(
        "monitor", "monitored", profile, streams, record_delays=False
    )
    simcrash = SimCrash(100.0, 30.0, None, event_log, schedule=CRASHES)

    if style == "push":
        heartbeater = Heartbeater("monitor", 1.0, event_log)
        system.create_process(
            "monitored", ProtocolStack([heartbeater, simcrash])
        )
        detector = PushFailureDetector(
            "monitored", 1.0, event_log,
            [("fd", make_strategy("Last", "JAC_med"))], initial_timeout=10.0,
        )
        system.create_process("monitor", ProtocolStack([MultiPlexer([detector], event_log)]))
        system.run(until=DURATION)
        messages = forward.stats.sent
    else:
        responder = PullResponder()
        system.create_process("monitored", ProtocolStack([responder, simcrash]))
        detector = PullFailureDetector(
            make_strategy("Last", "JAC_med"), "monitored", 1.0, event_log,
            detector_id="fd", initial_timeout=10.0,
        )
        system.create_process("monitor", ProtocolStack([detector]))
        system.run(until=DURATION)
        messages = forward.stats.sent + reverse.stats.sent

    qos = extract_qos(event_log, end_time=DURATION)["fd"]
    return messages, qos


class TestPushVsPull:
    def test_bench_push_vs_pull(self, benchmark):
        push_messages, push_qos = run_world("push")
        pull_messages, pull_qos = benchmark.pedantic(
            lambda: run_world("pull"), rounds=1, iterations=1
        )
        print("\nPush vs pull (Section 2.2 message-cost claim)")
        print(f"{'':<8}{'messages':>10}{'T_D mean':>12}{'crashes':>9}{'mistakes':>10}")
        for name, messages, qos in (
            ("push", push_messages, push_qos),
            ("pull", pull_messages, pull_qos),
        ):
            print(
                f"{name:<8}{messages:>10}"
                f"{qos.t_d.mean * 1e3:>10.1f}ms"
                f"{len(qos.td_samples):>9}"
                f"{len(qos.mistakes):>10}"
            )
        ratio = pull_messages / push_messages
        print(f"message ratio pull/push = {ratio:.2f} (paper: 2x)")

        # The claim: ~2x messages for pull, comparable detection.
        assert 1.7 < ratio < 2.3
        assert len(push_qos.td_samples) == len(CRASHES)
        assert len(pull_qos.td_samples) == len(CRASHES)
        # Pull detection includes the request leg, so it is slower, but
        # the same order of magnitude.
        assert push_qos.t_d.mean < pull_qos.t_d.mean + 1.0
