"""Tests for the replicated KV store (`repro.kv`).

Unit tests cover the versioned store, the replica state machine, the
sticky-leadership election rule and the user-visible metrics assembly.
The property tests at the bottom pin the subsystem's two contracts: a
seeded simulated run is byte-stable (same config ⇒ identical event
record and QoS summary), and with ``write_concern`` covering every
backup no acknowledged write is lost across a single failover.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kv.client import ClientView, KvClientLayer
from repro.kv.failover import FailoverState, ViewChange
from repro.kv.metrics import (
    compute_summary,
    merge_intervals,
    percentile,
    primary_at,
    promotion_delays,
)
from repro.kv.node import (
    KV_GET,
    KV_GET_OK,
    KV_REDIRECT,
    KV_REP,
    KV_REP_ACK,
    KV_SET,
    KV_SET_OK,
    KV_VIEW,
    KvNodeCore,
    KvNodeLayer,
)
from repro.kv import sim as kv_sim
from repro.kv.sim import CONTROLLER, KvSimConfig, run_kv_sim
from repro.kv.store import VersionedStore, decode_version, encode_version
from repro.kv.workload import WorkloadSpec
from repro.neko.system import SimulatedNetwork
from repro.net.message import Datagram

pytestmark = pytest.mark.kv


# ----------------------------------------------------------------------
# Versioned store
# ----------------------------------------------------------------------
class TestVersionedStore:
    def test_monotonic_apply_and_rejection(self):
        store = VersionedStore()
        assert store.apply("k", "a", (0, 1))
        assert store.apply("k", "b", (0, 2))
        assert not store.apply("k", "stale", (0, 1))
        assert store.get("k") == ("b", (0, 2))
        assert store.rejected_writes == 1

    def test_new_epoch_dominates_higher_seq(self):
        store = VersionedStore()
        assert store.apply("k", "old-primary", (0, 99))
        assert store.apply("k", "new-primary", (1, 1))
        assert store.get("k") == ("new-primary", (1, 1))

    def test_equal_version_is_idempotent(self):
        store = VersionedStore()
        assert store.apply("k", "a", (0, 1))
        applied = store.applied_writes
        assert store.apply("k", "a", (0, 1))  # retransmitted replication
        assert store.applied_writes == applied

    def test_has_seen_distinguishes_overwritten_from_lost(self):
        store = VersionedStore()
        store.apply("k", "a", (0, 1))
        store.apply("k", "b", (0, 2))
        assert store.has_seen("k", (0, 1))  # overwritten, not lost
        assert not store.has_seen("k", (0, 3))

    def test_version_codec_roundtrip(self):
        assert decode_version(encode_version((3, 7))) == (3, 7)


# ----------------------------------------------------------------------
# Replica state machine
# ----------------------------------------------------------------------
def _mesh(names, write_concern=0):
    return {name: KvNodeCore(name, names, write_concern=write_concern)
            for name in names}


class TestKvNodeCore:
    def test_backup_redirects_clients(self):
        cores = _mesh(["a", "b"])
        out = cores["b"].handle("client", KV_SET,
                                {"key": "k", "value": "v", "uid": "u1"})
        assert [(dst, kind) for dst, kind, _ in out] == [("client", KV_REDIRECT)]
        assert out[0][2]["primary"] == "a"

    def test_set_replicates_and_acks_immediately_at_w0(self):
        cores = _mesh(["a", "b", "c"])
        out = cores["a"].handle("client", KV_SET,
                                {"key": "k", "value": "v", "uid": "u1"})
        kinds = sorted((dst, kind) for dst, kind, _ in out)
        assert kinds == [("b", KV_REP), ("c", KV_REP), ("client", KV_SET_OK)]
        assert cores["a"].store.get("k") == ("v", (0, 1))

    def test_write_concern_delays_ack_until_backup_acks(self):
        cores = _mesh(["a", "b", "c"], write_concern=2)
        out = cores["a"].handle("client", KV_SET,
                                {"key": "k", "value": "v", "uid": "u1"})
        assert all(kind == KV_REP for _, kind, _ in out)
        reps = {dst: payload for dst, _, payload in out}
        # First backup ack: still pending.
        (ack_b,) = cores["b"].handle("a", KV_REP, reps["b"])
        assert cores["a"].handle("b", KV_REP_ACK, ack_b[2]) == []
        assert cores["a"].pending_writes == 1
        # Second ack releases the client ack.
        (ack_c,) = cores["c"].handle("a", KV_REP, reps["c"])
        (release,) = cores["a"].handle("c", KV_REP_ACK, ack_c[2])
        assert release[0] == "client" and release[1] == KV_SET_OK
        assert decode_version(release[2]["version"]) == (0, 1)
        assert cores["a"].pending_writes == 0

    def test_get_serves_value_and_version(self):
        cores = _mesh(["a", "b"])
        cores["a"].handle("client", KV_SET,
                          {"key": "k", "value": "v", "uid": "u1"})
        (reply,) = cores["a"].handle("client", KV_GET, {"key": "k", "uid": "u2"})
        assert reply[1] == KV_GET_OK
        assert reply[2]["value"] == "v"
        assert decode_version(reply[2]["version"]) == (0, 1)

    def test_retried_set_is_idempotent(self):
        cores = _mesh(["a", "b"])
        cores["a"].handle("client", KV_SET,
                          {"key": "k", "value": "v", "uid": "u1"})
        out = cores["a"].handle("client", KV_SET,
                                {"key": "k", "value": "v", "uid": "u1"})
        assert [(dst, kind) for dst, kind, _ in out] == [("client", KV_SET_OK)]
        assert decode_version(out[0][2]["version"]) == (0, 1)
        assert cores["a"].store.version("k") == (0, 1)  # not re-applied

    def test_retried_pending_set_redrives_replication_without_ack(self):
        # A retry of a write still awaiting backup acks must NOT take the
        # idempotent fast path: acking it would release a write with zero
        # backup acks, which is lost if the primary is then deposed.
        # Instead the primary re-sends kv-rep to the peers that have not
        # acked (the original replication may have been lost).
        cores = _mesh(["a", "b", "c"], write_concern=2)
        out = cores["a"].handle("client", KV_SET,
                                {"key": "k", "value": "v", "uid": "u1"})
        reps = {dst: payload for dst, _, payload in out}
        # b acks; the replication to c is lost in flight.
        (ack_b,) = cores["b"].handle("a", KV_REP, reps["b"])
        assert cores["a"].handle("b", KV_REP_ACK, ack_b[2]) == []
        # The client times out and retries the same uid.
        retry = cores["a"].handle("client", KV_SET,
                                  {"key": "k", "value": "v", "uid": "u1"})
        assert [(dst, kind) for dst, kind, _ in retry] == [("c", KV_REP)]
        assert cores["a"].pending_writes == 1
        # The re-driven replication completes the write concern.
        (ack_c,) = cores["c"].handle("a", KV_REP, retry[0][2])
        (release,) = cores["a"].handle("c", KV_REP_ACK, ack_c[2])
        assert release[0] == "client" and release[1] == KV_SET_OK
        assert decode_version(release[2]["version"]) == (0, 1)
        # Only now is the uid eligible for the idempotent re-ack.
        again = cores["a"].handle("client", KV_SET,
                                  {"key": "k", "value": "v", "uid": "u1"})
        assert [(dst, kind) for dst, kind, _ in again] == [("client", KV_SET_OK)]

    def test_superseded_replication_is_not_acked(self):
        # A backup whose store already holds a newer epoch's value must
        # not ack a deposed primary's older record: the rejection would
        # otherwise count towards the stale primary's write concern and
        # release a client ack for a version durable nowhere.
        cores = _mesh(["a", "b", "c"], write_concern=2)
        view = {"epoch": 1, "primary": "b"}
        cores["b"].handle("controller", KV_VIEW, view)
        cores["b"].handle("client", KV_SET,
                          {"key": "k", "value": "new", "uid": "u2"})
        stale_rep = {"key": "k", "value": "old",
                     "version": encode_version((0, 7)), "uid": "u1"}
        assert cores["b"].handle("a", KV_REP, stale_rep) == []
        # A retransmit of a record the backup once applied is re-acked.
        rep = {"key": "k2", "value": "v",
               "version": encode_version((0, 1)), "uid": "u3"}
        (first,) = cores["c"].handle("a", KV_REP, rep)
        (again,) = cores["c"].handle("a", KV_REP, rep)
        assert first[1] == again[1] == KV_REP_ACK

    def test_view_adoption_promotes_and_demotes(self):
        cores = _mesh(["a", "b"], write_concern=1)
        cores["a"].handle("client", KV_SET,
                          {"key": "k", "value": "v", "uid": "u1"})
        assert cores["a"].pending_writes == 1
        view = {"epoch": 1, "primary": "b"}
        cores["a"].handle("controller", KV_VIEW, view)
        cores["b"].handle("controller", KV_VIEW, view)
        # Deposed primary drops its pending table; promoted one restarts
        # its write sequence so new-epoch versions dominate.
        assert cores["a"].pending_writes == 0 and cores["a"].dropped_pending == 1
        assert cores["b"].is_primary and cores["b"].write_seq == 0
        cores["b"].handle("client", KV_SET,
                          {"key": "k", "value": "w", "uid": "u2"})
        # The new-epoch version dominates the deposed primary's (0, 1).
        assert cores["b"].store.version("k") == (1, 1)

    def test_stale_view_is_ignored(self):
        cores = _mesh(["a", "b"])
        cores["a"].handle("controller", KV_VIEW, {"epoch": 2, "primary": "b"})
        cores["a"].handle("controller", KV_VIEW, {"epoch": 1, "primary": "a"})
        assert cores["a"].primary == "b" and cores["a"].epoch == 2

    def test_write_concern_validation(self):
        with pytest.raises(ValueError):
            KvNodeCore("a", ["a", "b"], write_concern=2)


# ----------------------------------------------------------------------
# Client retry/redirect targeting
# ----------------------------------------------------------------------
class _StubTimer:
    def __init__(self):
        self.delay = None

    def arm(self, delay):
        self.delay = delay

    def cancel(self):
        self.delay = None


class _StubSim:
    now = 0.0


class _StubProcess:
    address = "client0"

    def __init__(self):
        self.sim = _StubSim()

    def timer(self, callback, name=""):
        return _StubTimer()


def _stub_client(nodes):
    """A KvClientLayer wired to a stub process, capturing what it sends."""
    client = KvClientLayer(
        nodes, WorkloadSpec(read_fraction=0.0), np.random.default_rng(0)
    )
    sent = []
    client._attach(_StubProcess())
    client.send_down = sent.append
    return client, sent


class TestKvClientTargeting:
    def test_redirect_to_newer_view_targets_named_primary(self):
        client, sent = _stub_client(["n0", "n1", "n2"])
        client._begin_op()
        first = sent[-1]
        assert first.destination == "n0"
        client.deliver(Datagram(source="n0", destination="client0",
                                kind=KV_REDIRECT,
                                payload={"uid": first.payload["uid"],
                                         "epoch": 1, "primary": "n1"}))
        # The retransmit goes straight to the primary the redirect named,
        # not to the next node in the timeout rotation.
        assert sent[-1].destination == "n1"

    def test_same_view_redirect_rotates_onward(self):
        client, sent = _stub_client(["n0", "n1", "n2"])
        client.view.epoch = 1
        client.view.primary = "n1"
        client._begin_op()
        assert sent[-1].destination == "n1"
        client._on_op_timeout()  # believed primary timed out: rotate
        assert sent[-1].destination == "n2"
        uid = sent[-1].payload["uid"]
        # n2 re-names the view the client already holds (dead primary,
        # not yet detected): rotate onward rather than ping-ponging back.
        client.deliver(Datagram(source="n2", destination="client0",
                                kind=KV_REDIRECT,
                                payload={"uid": uid, "epoch": 1,
                                         "primary": "n1"}))
        assert sent[-1].destination == "n0"


class TestMalformedPayloads:
    """The wire admits any JSON payload: a replica or a client drops and
    counts one it cannot read, and no exception reaches the network."""

    def test_replica_drops_and_counts_unreadable_payloads(self):
        core = KvNodeCore("n0", ["n0", "n1"])
        layer = KvNodeLayer(core)
        layer._attach(_StubProcess())
        sent = []
        layer.send_down = sent.append
        for kind, payload in (
            (KV_SET, None),
            (KV_GET, {"key": "k"}),
            (KV_VIEW, {"epoch": "x", "primary": "n1"}),
            (KV_REP, {"key": "k", "value": "v", "version": 5, "uid": "u"}),
            (KV_VIEW, {"epoch": 3}),
        ):
            layer.deliver(Datagram(source="c", destination="n0", kind=kind,
                                   payload=payload))
        assert layer.dropped_malformed == 5
        assert sent == []
        assert (core.epoch, core.primary, len(core.store)) == (0, "n0", 0)
        layer.deliver(Datagram(source="c", destination="n0", kind=KV_GET,
                               payload={"key": "k", "uid": "u"}))
        assert [message.kind for message in sent] == [KV_GET_OK]

    def test_client_drops_and_counts_unreadable_payloads(self):
        client, sent = _stub_client(["n0", "n1"])
        client._begin_op()
        uid = sent[-1].payload["uid"]
        for kind, payload in (
            (KV_VIEW, {"epoch": "x", "primary": "n1"}),
            (KV_VIEW, {"epoch": 2}),
            (KV_SET_OK, ["not", "a", "dict"]),
            (KV_SET_OK, {"uid": uid, "version": None}),
            (KV_REDIRECT, {"uid": uid, "epoch": 1}),
        ):
            client.deliver(Datagram(source="n0", destination="client0",
                                    kind=kind, payload=payload))
        assert client.dropped_malformed == 5
        assert (client.view.epoch, client.view.primary) == (0, "n0")
        assert client.records == [] and len(sent) == 1
        client.deliver(Datagram(source="n0", destination="client0",
                                kind=KV_SET_OK,
                                payload={"uid": uid, "version": [0, 1]}))
        assert [record.version for record in client.records] == [(0, 1)]


class TestClientView:
    """The client's view-adoption, rotation and stale-read rules."""

    def test_stale_is_below_a_version_already_observed(self):
        view = ClientView(["n0", "n1"])
        assert view.observe("k", None) is False  # absent, never seen
        assert view.observe("k", (0, 2)) is False
        assert view.observe("k", (0, 1)) is True
        assert view.observe("k", None) is True  # absent after being seen
        assert view.observe("k", (0, 2)) is False  # re-reading is not stale
        assert view.observe("k", (1, 1)) is False
        assert view.high_version == {"k": (1, 1)}

    def test_only_a_strictly_newer_view_is_adopted(self):
        view = ClientView(["n0", "n1", "n2"])
        assert view._adopt_view({"epoch": 2, "primary": "n2"}, 1) == 0
        assert (view.epoch, view.primary) == (2, "n2")
        assert view._adopt_view({"epoch": 2, "primary": "n0"}, 1) == 2
        assert view._adopt_view({"epoch": 1, "primary": "n0"}) == 1
        assert (view.epoch, view.primary) == (2, "n2")
        assert [view._target(r) for r in range(3)] == ["n2", "n0", "n1"]

    def test_no_nodes_rejected(self):
        with pytest.raises(ValueError):
            ClientView([])


# ----------------------------------------------------------------------
# Election rule
# ----------------------------------------------------------------------
class TestFailoverState:
    def test_sticky_leadership_ignores_backup_suspicion(self):
        state = FailoverState(["a", "b", "c"])
        assert state.on_transition("b", True) is None
        assert state.view == ViewChange(epoch=0, primary="a")

    def test_primary_suspicion_promotes_next_unsuspected(self):
        state = FailoverState(["a", "b", "c"])
        state.on_transition("b", True)
        change = state.on_transition("a", True)
        assert change == ViewChange(epoch=1, primary="c")

    def test_total_outage_yields_primary_none_then_recovers(self):
        state = FailoverState(["a", "b"])
        state.on_transition("a", True)
        change = state.on_transition("b", True)
        assert change == ViewChange(epoch=2, primary=None)
        change = state.on_transition("b", False)
        assert change == ViewChange(epoch=3, primary="b")

    def test_no_failback_on_recovery(self):
        state = FailoverState(["a", "b"])
        assert state.on_transition("a", True) == ViewChange(1, "b")
        # Higher-priority node comes back: healthy primary stays.
        assert state.on_transition("a", False) is None
        assert state.primary == "b"


# ----------------------------------------------------------------------
# Metrics assembly
# ----------------------------------------------------------------------
class TestMetrics:
    def test_merge_intervals_unions_overlaps(self):
        merged = merge_intervals([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)])
        assert merged == [(0.0, 3.0), (5.0, 6.0)]

    def test_percentile_nearest_rank(self):
        values = [float(n) for n in range(1, 101)]
        assert percentile(values, 0.95) == 95.0
        assert percentile([], 0.95) is None

    def test_promotion_delay_measured_from_primary_crash(self):
        views = [
            (0.0, ViewChange(0, "a")),
            (10.5, ViewChange(1, "b")),
        ]
        assert primary_at(views, 10.0) == "a"
        assert promotion_delays(views, [10.0]) == [0.5]
        # A crash of a node that was not primary yields no sample.
        assert promotion_delays(views, [11.0]) == []


# ----------------------------------------------------------------------
# End-to-end simulated run
# ----------------------------------------------------------------------
SMALL = KvSimConfig(duration=30.0, eta=0.2, seed=11, clients=1)


class TestRunKvSim:
    def test_small_run_produces_both_qos_layers(self):
        result = run_kv_sim(SMALL)
        assert result.summary.ops > 0
        assert set(result.detector_qos) == set(SMALL.node_names)
        first_time, first_view = result.views[0]
        assert first_time == 0.0
        assert first_view == ViewChange(epoch=0, primary="node0")
        # The scheduled crash hit the epoch-0 primary and was detected.
        assert result.summary.primary_crashes == 1
        assert result.detector_qos["node0"].td_samples

    def test_summary_matches_recomputation(self):
        result = run_kv_sim(SMALL)
        recomputed = compute_summary(
            result.records,
            result.views,
            {},  # no stores: write-loss against the union of none
            primary_crash_times=result.primary_crash_times,
        )
        assert recomputed.ops == result.summary.ops
        assert recomputed.unavailability == result.summary.unavailability


class _EagerMesh(SimulatedNetwork):
    """The all-pairs wiring: every ordered pair of registered addresses
    gets its profile link at registration, before the first event."""

    def register(self, address, receiver):
        for other in list(self._receivers):
            self.link(other, address)
            self.link(address, other)
        super().register(address, receiver)


class TestLinksOnFirstUse:
    CONFIG = KvSimConfig(duration=20.0, eta=0.2, seed=4, clients=2)

    def test_profile_built_links_equal_an_eager_mesh(self, monkeypatch):
        networks = []

        def recording(network_class):
            def build(*args, **kwargs):
                networks.append(network_class(*args, **kwargs))
                return networks[-1]

            return build

        monkeypatch.setattr(kv_sim, "SimulatedNetwork", recording(SimulatedNetwork))
        lazy = run_kv_sim(self.CONFIG)
        monkeypatch.setattr(kv_sim, "SimulatedNetwork", recording(_EagerMesh))
        wired = run_kv_sim(self.CONFIG)
        assert wired.canonical_json() == lazy.canonical_json()

        lazy_pairs, wired_pairs = (set(network._links) for network in networks)
        everyone = len(self.CONFIG.node_names) + len(self.CONFIG.client_names) + 1
        assert len(wired_pairs) == everyone * (everyone - 1)
        # Clients never talk to one another, so their links are never built.
        assert ("client0", "client1") not in lazy_pairs
        assert ("node0", CONTROLLER) in lazy_pairs


# ----------------------------------------------------------------------
# Property: byte-stability of seeded runs
# ----------------------------------------------------------------------
class TestByteStability:
    @settings(max_examples=5, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        eta=st.sampled_from([0.1, 0.25, 0.5]),
        write_concern=st.integers(min_value=0, max_value=1),
    )
    def test_same_config_same_bytes(self, seed, eta, write_concern):
        config = KvSimConfig(
            duration=15.0,
            eta=eta,
            seed=seed,
            clients=1,
            write_concern=write_concern,
            workload=WorkloadSpec(think_time=0.3),
        )
        first = run_kv_sim(config).canonical_json()
        second = run_kv_sim(config).canonical_json()
        assert first == second


# ----------------------------------------------------------------------
# Property: no acknowledged write lost across a single failover
# ----------------------------------------------------------------------
def _ack_writes(cores, primary, uids, alive):
    """Drive writes through the cores; return acked (key, version) pairs.

    Messages to crashed replicas (not in ``alive``) are dropped, exactly
    like the simulator's crash layer does.
    """
    acked = []
    for uid in uids:
        key = f"k{uid % 3}"
        queue = [(primary, "client", KV_SET,
                  {"key": key, "value": f"v{uid}", "uid": f"u{uid}"})]
        while queue:
            target, sender, kind, payload = queue.pop(0)
            if target == "client":
                if kind == KV_SET_OK:
                    acked.append((payload["key"],
                                  decode_version(payload["version"])))
                continue
            if target not in alive:
                continue  # crashed replica: datagram dropped
            for dst, out_kind, out_payload in cores[target].handle(
                    sender, kind, payload):
                queue.append((dst, target, out_kind, out_payload))
    return acked


class TestNoAckedWriteLost:
    @settings(max_examples=25, deadline=None)
    @given(
        before=st.integers(min_value=0, max_value=8),
        after=st.integers(min_value=0, max_value=8),
    )
    def test_full_write_concern_survives_one_failover(self, before, after):
        """Acked writes survive when every backup must ack (w = n-1)."""
        names = ["a", "b"]
        cores = _mesh(names, write_concern=1)
        acked = _ack_writes(cores, "a", range(before), alive={"a", "b"})
        # Node a crashes; the controller promotes b (epoch 1).
        cores["b"].handle("controller", KV_VIEW, {"epoch": 1, "primary": "b"})
        # Writes during the crash reach only b; with w=1 they stay
        # unacknowledged (the single backup is down), so they cannot be
        # counted as lost.
        acked += _ack_writes(cores, "b", range(100, 100 + after), alive={"b"})
        survivor = cores["b"].store
        for key, version in acked:
            assert survivor.has_seen(key, version), (
                f"acked write {key}@{version} missing from the promoted "
                f"primary"
            )

    def test_simulated_failover_loses_nothing_at_full_write_concern(self):
        config = KvSimConfig(
            duration=30.0, eta=0.2, seed=11, clients=1, write_concern=2,
        )
        result = run_kv_sim(config)
        assert result.summary.acked_writes > 0
        assert result.summary.lost_writes == 0
