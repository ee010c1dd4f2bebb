"""Named, independent random streams for deterministic simulations.

A simulation touches randomness in several independent places: the WAN delay
process, the loss process, the crash injector, workload jitter.  If all of
them shared one generator, adding a new component (or reordering calls)
would silently change every downstream draw and make results impossible to
compare across code versions.

:class:`RandomStreams` derives one :class:`numpy.random.Generator` per
*named* component from a root seed using ``numpy``'s ``SeedSequence.spawn``
mechanism, so streams are statistically independent and stable under code
evolution: ``streams.get("wan.delay")`` always yields the same stream for a
given root seed, no matter what other streams exist.
"""

from __future__ import annotations

from typing import Dict, Iterable

import numpy as np

#: ``SeedSequence.pool_size``: the entropy words a spawn key is placed after.
_POOL_WORDS = 4


def _child_sequence(seed: int, name: str) -> np.random.SeedSequence:
    """``SeedSequence(entropy=seed, spawn_key=tuple(map(ord, name)))``, fast.

    numpy assembles that sequence's entropy as the seed's 32-bit words
    (least significant first), zero-padded to the pool size when a spawn
    key is present, followed by one word per spawn-key element.  Handing
    it that array directly yields the same pool — hence the same
    generator — without coercing the key element by element.  (Padding
    an empty name too is harmless: the pool mixes in zeros for missing
    words.)
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed!r}")
    words = [seed & 0xFFFFFFFF]
    seed >>= 32
    while seed:
        words.append(seed & 0xFFFFFFFF)
        seed >>= 32
    words.extend([0] * (_POOL_WORDS - len(words)))
    words.extend(map(ord, name))
    return np.random.SeedSequence(np.array(words, dtype=np.uint32))


class RandomStreams:
    """A factory of independent, reproducible random generators.

    Parameters
    ----------
    seed:
        Root seed.  Two :class:`RandomStreams` built from the same seed
        hand out identical streams for identical names.
    """

    def __init__(self, seed: int = 0) -> None:
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The root seed this factory was built from."""
        return self._seed

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The same name always returns the *same generator object*, so a
        component that draws from its stream advances only its own state.
        """
        if not name:
            raise ValueError("stream name must be a non-empty string")
        if name not in self._streams:
            # Derive a child seed from (root seed, name) so the mapping is
            # stable regardless of creation order.
            self._streams[name] = np.random.default_rng(_child_sequence(self._seed, name))
        return self._streams[name]

    def names(self) -> Iterable[str]:
        """Names of the streams created so far (diagnostic)."""
        return tuple(self._streams)

    def spawn(self, name: str) -> "RandomStreams":
        """Derive a child factory, e.g. one per experiment run.

        The child's streams are independent of the parent's and of any
        sibling spawned under a different name.
        """
        child = RandomStreams(self._seed)
        child._seed = int(_child_sequence(self._seed, name).generate_state(1)[0])
        return child

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomStreams(seed={self._seed}, streams={sorted(self._streams)})"


__all__ = ["RandomStreams"]
