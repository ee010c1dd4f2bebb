#!/usr/bin/env python3
"""Tuning a time-out from QoS requirements, Chen-et-al. style.

The paper notes that a constant time-out is "very useful in applications
where specific QoS requirements ... need to be always guaranteed", with
the value "computed to obtain a specified QoS" (the NFD methodology of
its reference [5]).  This demo performs that computation with
:class:`repro.fd.analysis.ConstantTimeoutAnalysis` — pick the smallest
``delta`` meeting a target mistake-recurrence time — and then *validates*
the prediction by simulating the resulting detector.

Run with::

    python examples/tune_timeout.py
"""

from repro import ExperimentConfig, collect_delay_trace
from repro.experiments.runner import build_qos_system, MONITORED
from repro.fd.analysis import ConstantTimeoutAnalysis
from repro.fd.baselines import constant_timeout_strategy
from repro.fd.detector import PushFailureDetector
from repro.nekostat.metrics import extract_qos


def main() -> None:
    # 1. Characterise the path: a delay trace plays the role of the
    #    "probabilistic characterisation of the network".
    print("Collecting 20000 delays from the WAN profile...")
    trace = collect_delay_trace(count=20_000, seed=5)
    analysis = ConstantTimeoutAnalysis(
        trace.delays, eta=1.0, loss_probability=0.005
    )

    # 2. Requirement: at most one false suspicion per 90 s, detection as
    #    fast as possible under that constraint.
    target_t_mr = 90.0
    delta = analysis.delta_for_recurrence(target_t_mr)
    predicted = analysis.predict(delta)
    print(f"\nRequirement: T_MR >= {target_t_mr:.0f} s")
    print(f"Chosen time-out delta = {delta * 1e3:.1f} ms, predicting:")
    print(f"  T_D  mean  : {predicted.detection_time_mean * 1e3:7.1f} ms")
    print(f"  T_D  worst : {predicted.detection_time_worst * 1e3:7.1f} ms")
    print(f"  T_MR mean  : {predicted.mistake_recurrence_mean:7.1f} s")
    print(f"  T_M  mean  : {predicted.mistake_duration_mean * 1e3:7.1f} ms")
    print(f"  P_A        : {predicted.query_accuracy:.6f}")

    # 3. Validate by simulation: build the standard experiment but swap in
    #    the constant-timeout detector.
    print("\nValidating by simulation (20000 cycles with crashes)...")
    config = ExperimentConfig(num_cycles=20_000, mttc=120.0, ttr=20.0, seed=8)
    parts = build_qos_system(config, [], extra_monitor_layers=lambda log: [
        PushFailureDetector(
            MONITORED, config.eta, log,
            [("tuned", constant_timeout_strategy(delta))], initial_timeout=5.0,
        )
    ])
    parts["system"].run(until=config.duration)  # type: ignore[attr-defined]
    qos = extract_qos(
        parts["event_log"], end_time=config.duration,  # type: ignore[arg-type]
        detectors=["tuned"],
    )["tuned"]

    t_mr = qos.t_mr.mean if qos.t_mr else float("inf")
    print(f"  T_D  mean  : {qos.t_d.mean * 1e3:7.1f} ms "
          f"(predicted {predicted.detection_time_mean * 1e3:.1f})")
    print(f"  T_D  worst : {qos.t_d_upper * 1e3:7.1f} ms "
          f"(bound {predicted.detection_time_worst * 1e3:.1f})")
    print(f"  T_MR mean  : {t_mr:7.1f} s "
          f"(target {target_t_mr:.0f}, predicted "
          f"{predicted.mistake_recurrence_mean:.1f})")
    print(f"  P_A        : {qos.p_a:.6f} "
          f"(predicted {predicted.query_accuracy:.6f})")

    met = "MET" if t_mr >= target_t_mr * 0.8 else "MISSED"
    print(f"\nRequirement {met}. The analytic model is first-order "
          "(independent losses, iid delays); on the autocorrelated WAN "
          "path mistakes cluster slightly, which is why the measured "
          "T_MR deviates from the prediction more than on iid paths "
          "(see tests/test_analysis.py for the exact-agreement cases).")

    # 4. The full Chen-style contract: choose eta AND delta jointly from a
    #    three-part QoS requirement, minimising message cost.
    from repro.fd.requirements import QosRequirements, configure

    contract = QosRequirements(
        detection_time_upper=3.0,       # T_D^U
        mistake_recurrence_lower=60.0,  # T_MR^L
        mistake_duration_upper=2.0,     # T_M^U
    )
    chosen = configure(trace.delays, contract, loss_probability=0.005)
    print("\nFull contract (T_D^U=3s, T_MR>=60s, T_M<=2s), cheapest config:")
    print(f"  eta   = {chosen.eta:.2f} s "
          f"({chosen.messages_per_second:.2f} heartbeats/s)")
    print(f"  delta = {chosen.delta * 1e3:.0f} ms")
    print(f"  predicted: T_D^U {chosen.predicted.detection_time_worst:.2f} s, "
          f"T_MR {chosen.predicted.mistake_recurrence_mean:.0f} s, "
          f"T_M {chosen.predicted.mistake_duration_mean * 1e3:.0f} ms")


if __name__ == "__main__":
    main()
