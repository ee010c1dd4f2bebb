"""Tests for named random streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.random import RandomStreams


class TestRandomStreams:
    def test_same_seed_same_stream(self):
        a = RandomStreams(7).get("wan.delay")
        b = RandomStreams(7).get("wan.delay")
        assert a.random() == b.random()

    def test_different_names_independent(self):
        streams = RandomStreams(7)
        a = streams.get("alpha").random(1000)
        b = streams.get("beta").random(1000)
        assert list(a) != list(b)

    def test_different_seeds_differ(self):
        a = RandomStreams(1).get("x").random()
        b = RandomStreams(2).get("x").random()
        assert a != b

    def test_stream_object_is_cached(self):
        streams = RandomStreams(3)
        assert streams.get("x") is streams.get("x")

    def test_creation_order_does_not_matter(self):
        forward = RandomStreams(9)
        forward.get("a")
        value_b_after_a = forward.get("b").random()
        backward = RandomStreams(9)
        value_b_first = backward.get("b").random()
        assert value_b_after_a == value_b_first

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            RandomStreams(0).get("")

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RandomStreams("seed")  # type: ignore[arg-type]

    def test_names_lists_created_streams(self):
        streams = RandomStreams(5)
        streams.get("one")
        streams.get("two")
        assert set(streams.names()) == {"one", "two"}

    def test_spawn_derives_independent_child(self):
        parent = RandomStreams(11)
        child = parent.spawn("run-1")
        assert child.seed != parent.seed
        assert child.get("x").random() != parent.get("x").random()

    def test_spawn_is_deterministic(self):
        a = RandomStreams(11).spawn("run-1").get("x").random()
        b = RandomStreams(11).spawn("run-1").get("x").random()
        assert a == b

    def test_spawn_different_names_differ(self):
        parent = RandomStreams(11)
        assert parent.spawn("run-1").seed != parent.spawn("run-2").seed

    def test_negative_seed_raises(self):
        streams = RandomStreams(-1)
        with pytest.raises(ValueError):
            streams.get("x")
        with pytest.raises(ValueError):
            streams.spawn("x")


_SEEDS = st.one_of(
    st.just(0),
    st.integers(min_value=1, max_value=2**32 - 1),
    st.integers(min_value=2**32, max_value=2**128 - 1),
    st.integers(min_value=2**128, max_value=2**200),
)
#: Names over the whole code space, astral planes included.
_NAMES = st.text(alphabet=st.characters(min_codepoint=0, max_codepoint=0x10FFFF), max_size=40)


def _reference(seed: int, name: str) -> np.random.SeedSequence:
    """The derivation as numpy's own spawn-key construction states it."""
    return np.random.SeedSequence(entropy=seed, spawn_key=tuple(ord(ch) for ch in name))


class TestDerivationMatchesSpawnKey:
    @settings(max_examples=300, deadline=None)
    @given(seed=_SEEDS, name=_NAMES.filter(bool))
    def test_stream_state_equals_spawn_key_construction(self, seed, name):
        stream = RandomStreams(seed).get(name)
        expected = np.random.default_rng(_reference(seed, name))
        assert stream.bit_generator.state == expected.bit_generator.state

    @settings(max_examples=300, deadline=None)
    @given(seed=_SEEDS, name=_NAMES)
    def test_spawn_seed_equals_spawn_key_construction(self, seed, name):
        child = RandomStreams(seed).spawn(name)
        assert child.seed == int(_reference(seed, name).generate_state(1)[0])

    @settings(max_examples=50, deadline=None)
    @given(seed=_SEEDS, run=_NAMES, name=_NAMES.filter(bool))
    def test_spawned_child_derives_from_its_own_seed(self, seed, run, name):
        child = RandomStreams(seed).spawn(run)
        expected = np.random.default_rng(_reference(child.seed, name))
        assert child.get(name).bit_generator.state == expected.bit_generator.state
