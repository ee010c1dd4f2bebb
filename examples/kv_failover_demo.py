#!/usr/bin/env python3
"""A replicated KV store failing over on the paper's failure detectors.

Runs the full `repro.kv` stack on the simulated WAN: three replicas, a
failure-detector-driven failover controller, and seeded closed-loop
clients.  The epoch-0 primary crashes mid-run; the detector suspects it,
the controller promotes a backup, and the clients ride the failover.
The run reports both QoS layers side by side — what the *users* saw
(unavailability, failed/stale reads, write loss) and what the *detector*
measured (T_D, mistakes) in the very same run.

Run with::

    python examples/kv_failover_demo.py [duration_seconds]
"""

import sys

from repro.kv.sim import KvSimConfig, qos_brief, run_kv_sim


def main() -> None:
    duration = float(sys.argv[1]) if len(sys.argv) > 1 else 60.0
    config = KvSimConfig(
        nodes=3,
        clients=2,
        duration=duration,
        eta=0.2,
        detector_id="Last+CI_med",
        seed=7,
    )
    crash = config.crash_schedule()[0]
    print(f"Replicated KV: {config.nodes} replicas, {config.clients} clients, "
          f"{config.duration:g}s on '{config.profile_name}'")
    print(f"Failover driven by {config.detector_id} (eta={config.eta}s); "
          f"node{crash[0]} crashes at t={crash[1]:g}s, "
          f"restored at t={crash[2]:g}s\n")

    result = run_kv_sim(config)
    summary = result.summary

    print("view history (time, epoch, primary):")
    for installed_at, view in result.views:
        primary = view.primary if view.primary is not None else "<none>"
        print(f"  t={installed_at:7.3f}s  epoch={view.epoch:<3} {primary}")

    print("\nuser-visible QoS:")
    print(f"  operations        : {summary.ops} "
          f"({summary.reads} reads / {summary.writes} writes)")
    print(f"  failed            : {summary.failed_ops} "
          f"(+{summary.incomplete_ops} unfinished at end of run)")
    print(f"  stale reads       : {summary.stale_reads}")
    print(f"  acked writes lost : {summary.lost_writes} / {summary.acked_writes}")
    print(f"  unavailability    : {summary.unavailability.total_s:.2f}s over "
          f"{summary.unavailability.windows} window(s), "
          f"widest {summary.unavailability.max_window_s:.2f}s")
    for delay in summary.promotion_delays_s:
        print(f"  promotion delay   : {delay * 1e3:.0f} ms after the "
              f"primary crash")

    print("\nraw detector QoS (the same run, per monitored replica):")
    for node in config.node_names:
        brief = qos_brief(result.detector_qos[node])
        td = (f"{brief['td_mean'] * 1e3:6.0f} ms"
              if brief["td_mean"] is not None else "     -")
        print(f"  {node}: T_D {td}  mistakes={brief['mistakes']:<3} "
              f"empirical_p_a={brief['empirical_p_a']:.6f}")

    print("\nThe detector's T_D is the floor of the users' promotion delay; "
          "every false suspicion above\nbecomes an unavailability window. "
          "Sweep this trade-off across the matrix with:\n"
          "    repro kv-sweep --etas 0.1,0.5,1.0 --detectors all")


if __name__ == "__main__":
    main()
