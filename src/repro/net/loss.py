"""Loss models for fair-lossy links.

A loss model answers one question per datagram: *is this one dropped?*
Like delay models, loss models are fed an injected RNG and are sampled in
send order, so stateful models (bursty loss) see a coherent timeline.
"""

from __future__ import annotations

import abc

import numpy as np


class LossModel(abc.ABC):
    """Abstract per-datagram loss process.

    :meth:`drops` answers for one datagram; the simulator, the live stack
    and the KV store call it once per send.  :meth:`drops_many` answers
    for a whole send schedule at once — the replay engine's trace
    synthesis — and must return what that many :meth:`drops` calls
    would, leaving the generator and the model in the same state.  The
    default is that loop; a model whose draws can be taken as one block
    overrides it (``tests/test_loss_models.py`` holds every model to it).
    """

    @abc.abstractmethod
    def drops(self, now: float) -> bool:
        """Return ``True`` if the datagram sent at ``now`` is lost."""

    def drops_many(self, times: "np.ndarray") -> "np.ndarray":
        """Boolean array: ``out[i]`` is ``drops(times[i])``, in order."""
        times = np.asarray(times, dtype=float)
        return np.fromiter(map(self.drops, times.tolist()), bool, times.size)

    def reset(self) -> None:
        """Reset any internal state (default: stateless, no-op)."""


class NoLoss(LossModel):
    """A perfect link: nothing is ever dropped."""

    def drops(self, now: float) -> bool:
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NoLoss()"


class BernoulliLoss(LossModel):
    """Independent loss with fixed probability per datagram."""

    def __init__(self, rng: np.random.Generator, probability: float) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability!r}")
        self._rng = rng
        self._p = float(probability)

    @property
    def probability(self) -> float:
        """The per-datagram loss probability."""
        return self._p

    def drops(self, now: float) -> bool:
        if self._p == 0.0:
            return False
        return bool(self._rng.random() < self._p)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BernoulliLoss(p={self._p!r})"


class GilbertElliottLoss(LossModel):
    """Two-state Markov (Gilbert–Elliott) bursty loss.

    The chain alternates between a GOOD state and a BAD state with the
    given per-datagram transition probabilities; each state drops with its
    own probability.  Real WAN loss is bursty (a congested router drops
    several consecutive packets), and burstiness matters to failure
    detectors: consecutive heartbeat losses look exactly like a crash.

    Steady-state loss rate:
        pi_bad = p_gb / (p_gb + p_bg)
        rate = (1 - pi_bad) * loss_good + pi_bad * loss_bad
    """

    def __init__(
        self,
        rng: np.random.Generator,
        p_good_to_bad: float,
        p_bad_to_good: float,
        *,
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
    ) -> None:
        for name, value in (
            ("p_good_to_bad", p_good_to_bad),
            ("p_bad_to_good", p_bad_to_good),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        self._rng = rng
        self._p_gb = float(p_good_to_bad)
        self._p_bg = float(p_bad_to_good)
        self._loss_good = float(loss_good)
        self._loss_bad = float(loss_bad)
        self._bad = False

    @property
    def in_bad_state(self) -> bool:
        """Whether the chain is currently in the BAD (lossy) state."""
        return self._bad

    def steady_state_loss_rate(self) -> float:
        """The long-run fraction of datagrams dropped."""
        denominator = self._p_gb + self._p_bg
        if denominator == 0.0:
            # Chain never transitions; rate is that of the initial state.
            return self._loss_good
        pi_bad = self._p_gb / denominator
        return (1.0 - pi_bad) * self._loss_good + pi_bad * self._loss_bad

    def drops(self, now: float) -> bool:
        # Transition first, then sample loss in the (possibly new) state.
        if self._bad:
            if self._rng.random() < self._p_bg:
                self._bad = False
        else:
            if self._rng.random() < self._p_gb:
                self._bad = True
        loss_probability = self._loss_bad if self._bad else self._loss_good
        if loss_probability == 0.0:
            return False
        return bool(self._rng.random() < loss_probability)

    def drops_many(self, times: "np.ndarray") -> "np.ndarray":
        # With both states lossy every datagram draws exactly twice (the
        # transition, then the loss), so one block of 2n uniforms is those
        # draws in order.  A loss-free state draws once and takes the loop.
        if self._loss_good == 0.0 or self._loss_bad == 0.0:
            return super().drops_many(times)
        p_gb, p_bg = self._p_gb, self._p_bg
        loss_good, loss_bad = self._loss_good, self._loss_bad
        bad = self._bad
        draws = iter(self._rng.random(2 * len(times)).tolist())
        lost = []
        append = lost.append
        for transition, loss in zip(draws, draws):
            if bad:
                if transition < p_bg:
                    bad = False
            elif transition < p_gb:
                bad = True
            append(loss < (loss_bad if bad else loss_good))
        self._bad = bad
        return np.array(lost, dtype=bool)

    def reset(self) -> None:
        self._bad = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GilbertElliottLoss(p_gb={self._p_gb!r}, p_bg={self._p_bg!r}, "
            f"loss_good={self._loss_good!r}, loss_bad={self._loss_bad!r})"
        )


__all__ = ["BernoulliLoss", "GilbertElliottLoss", "LossModel", "NoLoss"]
