"""Negative fixture: legal detector construction (FDL008 stays silent).

A single detector built directly (the η-sweep idiom), a loop over
non-combination sources (the consensus harness's loop over peers), and
the bank helper itself are all fine.
"""

from repro.fd.bank import make_detector_bank
from repro.fd.combinations import make_strategy
from repro.fd.detector import PushFailureDetector


def build_single_detector(monitored, eta, event_log):
    return PushFailureDetector(
        make_strategy("Last", "CI_med"),
        monitored,
        eta,
        event_log,
        detector_id="tuning",
    )


def build_peer_detectors(peers, eta, event_log):
    detectors = {}
    for peer in peers:
        detectors[peer] = PushFailureDetector(
            make_strategy("Last", "CI_med"),
            peer,
            eta,
            event_log,
            detector_id=f"self->{peer}",
        )
    return detectors


def build_banks_per_node(nodes, eta, logs):
    return {
        node: make_detector_bank(node, eta, logs[node], ["Last+CI_med"])
        for node in nodes
    }
