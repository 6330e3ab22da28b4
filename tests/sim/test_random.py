"""Tests for deterministic named random streams."""

import pickle

import pytest

from repro.sim.random import RandomStreams, _derive_seed


def test_same_name_returns_same_stream_object():
    streams = RandomStreams(1)
    assert streams.get("a") is streams.get("a")


def test_different_names_give_independent_streams():
    streams = RandomStreams(1)
    a = [streams.get("a").random() for _ in range(5)]
    b = [streams.get("b").random() for _ in range(5)]
    assert a != b


def test_same_seed_reproduces_draws():
    first = [RandomStreams(7).get("x").random() for _ in range(3)]
    second = [RandomStreams(7).get("x").random() for _ in range(3)]
    assert first == second


def test_different_seeds_differ():
    assert RandomStreams(1).get("x").random() != RandomStreams(2).get("x").random()


def test_stream_isolation_under_extra_consumers():
    """Adding a consumer of stream B must not change stream A's draws.

    This is the property that keeps A/B experiment runs paired.
    """
    solo = RandomStreams(5)
    a_only = [solo.get("traffic").random() for _ in range(10)]

    mixed = RandomStreams(5)
    mixed.get("attacker").random()  # an extra consumer appears
    a_mixed = []
    for i in range(10):
        a_mixed.append(mixed.get("traffic").random())
        mixed.get("attacker").random()  # interleaved draws
    assert a_only == a_mixed


def test_numpy_streams_deterministic():
    a = RandomStreams(3).get_numpy("n").normal(size=4)
    b = RandomStreams(3).get_numpy("n").normal(size=4)
    assert (a == b).all()


def test_numpy_stream_cached():
    streams = RandomStreams(3)
    assert streams.get_numpy("n") is streams.get_numpy("n")


def test_spawn_creates_independent_child():
    parent = RandomStreams(9)
    child = parent.spawn("worker")
    assert child.root_seed != parent.root_seed
    assert child.get("x").random() != parent.get("x").random()


def test_spawn_deterministic():
    a = RandomStreams(9).spawn("worker").get("x").random()
    b = RandomStreams(9).spawn("worker").get("x").random()
    assert a == b


def test_derive_seed_stable_and_name_sensitive():
    assert _derive_seed(1, "a") == _derive_seed(1, "a")
    assert _derive_seed(1, "a") != _derive_seed(1, "b")
    assert _derive_seed(1, "a") != _derive_seed(2, "a")


def test_lazy_stream_seeds_on_first_draw_and_draws_like_get():
    streams = RandomStreams(4)
    handle = streams.lazy("beacon:7")
    assert "beacon:7" not in streams.state_snapshot()["streams"]
    draws = [handle.uniform(0, 1), handle.random(), handle.randrange(10)]
    assert "beacon:7" in streams.state_snapshot()["streams"]
    eager = RandomStreams(4).get("beacon:7")
    assert draws == [eager.uniform(0, 1), eager.random(), eager.randrange(10)]
    # The handle and get() share one generator.
    assert streams.get("beacon:7").random() == eager.random()
    assert handle.random() == eager.random()


def test_lazy_stream_survives_pickling_with_its_factory():
    streams = RandomStreams(4)
    unused, used = streams.lazy("a"), streams.lazy("b")
    used.random()
    copy_streams, copy_unused, copy_used = pickle.loads(
        pickle.dumps((streams, unused, used))
    )
    assert copy_used.random() == used.random()
    assert copy_unused.random() == unused.random()
    assert copy_streams.get("a") is copy_streams.get("a")


def test_lazy_stream_forwards_no_private_name():
    with pytest.raises(AttributeError):
        RandomStreams(1).lazy("x")._missing
