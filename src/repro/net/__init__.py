"""Network substrate: fair-lossy links with configurable delay and loss.

The paper's detectors run over UDP on a real WAN.  Here the same contract —
a *fair lossy link* that can drop and reorder but never corrupt, duplicate
or forge messages — is provided by :class:`~repro.net.link.FairLossyLink`,
parameterised by a delay model (:mod:`repro.net.delay`) and a loss model
(:mod:`repro.net.loss`).

:mod:`repro.net.wan` bundles profiles calibrated to the paper's Table 4
(the Italy–Japan path) and additional environments used in ablations.
:mod:`repro.net.traces` saves, loads and summarises delay traces, and
:mod:`repro.net.udp` is a real-socket backend for the Neko "real execution"
mode.
"""

from repro.net.delay import (
    ConstantDelay,
    DelayModel,
    LognormalDelay,
    MultiScaleWanDelay,
    ShiftedGammaDelay,
    SpikeOverlay,
    SpikeTier,
)
from repro.net.link import FairLossyLink, LinkStats
from repro.net.loss import BernoulliLoss, GilbertElliottLoss, LossModel, NoLoss
from repro.net.message import Datagram
from repro.net.topology import RouteFlappingDelay
from repro.net.traces import DelayTrace
from repro.net.wan import WanProfile, italy_japan_profile, lan_profile, mobile_profile

__all__ = [
    "BernoulliLoss",
    "ConstantDelay",
    "Datagram",
    "DelayModel",
    "DelayTrace",
    "FairLossyLink",
    "GilbertElliottLoss",
    "LinkStats",
    "LognormalDelay",
    "LossModel",
    "MultiScaleWanDelay",
    "NoLoss",
    "RouteFlappingDelay",
    "ShiftedGammaDelay",
    "SpikeOverlay",
    "SpikeTier",
    "WanProfile",
    "italy_japan_profile",
    "lan_profile",
    "mobile_profile",
]
