"""Deterministic named random streams.

Every stochastic component draws from its own named stream derived from the
run's root seed.  This keeps A/B experiments paired: adding an attacker (which
draws from its own stream) does not perturb the draws of traffic or beaconing,
so the attacked run sees the *same* traffic as the attack-free run.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict

import numpy as np


def _derive_seed(root_seed: int, name: str) -> int:
    """Derive a stable 64-bit child seed from ``(root_seed, name)``."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class LazyStream:
    """A named stdlib stream of a :class:`RandomStreams`, created on first
    use (see :meth:`RandomStreams.lazy`).

    Public ``random.Random`` methods are forwarded to ``streams.get(name)``,
    so the stream lives, and is checkpointed, in its factory like any
    other."""

    __slots__ = ("_streams", "_name")

    def __init__(self, streams: "RandomStreams", name: str):
        self._streams = streams
        self._name = name

    def __getattr__(self, attr: str):
        # Private and dunder lookups (pickle, copy) must not reach the
        # slots, which are unset while an instance is being unpickled.
        if attr.startswith("_"):
            raise AttributeError(attr)
        return getattr(self._streams.get(self._name), attr)


class RandomStreams:
    """A factory of independent, reproducible random streams.

    ``streams.get("beacon")`` always returns the same :class:`random.Random`
    object for a given instance, seeded purely from ``(root_seed, "beacon")``;
    ``streams.lazy("beacon")`` defers creating it to the first draw.
    """

    def __init__(self, root_seed: int):
        self._root_seed = int(root_seed)
        self._streams: Dict[str, random.Random] = {}
        self._numpy_streams: Dict[str, np.random.Generator] = {}
        self._children: Dict[str, "RandomStreams"] = {}

    @property
    def root_seed(self) -> int:
        """The root seed this factory was created with."""
        return self._root_seed

    def get(self, name: str) -> random.Random:
        """Return the (cached) stdlib stream for ``name``."""
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(_derive_seed(self._root_seed, name))
            self._streams[name] = stream
        return stream

    def lazy(self, name: str) -> "LazyStream":
        """A handle on the stream ``name`` that seeds it on its first draw.

        The handle draws exactly what :meth:`get` would: the seed derives
        from the name alone, so seeding late changes no draw.  A holder
        that may never draw (a fleet vehicle, whose beacons come from the
        batched tick) costs a small handle instead of a seeded Mersenne
        Twister of about 2.5 KiB."""
        return LazyStream(self, name)

    def get_numpy(self, name: str) -> np.random.Generator:
        """Return the (cached) numpy generator for ``name``."""
        stream = self._numpy_streams.get(name)
        if stream is None:
            stream = np.random.default_rng(_derive_seed(self._root_seed, name))
            self._numpy_streams[name] = stream
        return stream

    def spawn(self, name: str) -> "RandomStreams":
        """Return the (cached) child factory independent of our streams.

        Children are cached by name so that a state snapshot of the parent
        covers every stream the run has touched, including spawned ones.
        """
        child = self._children.get(name)
        if child is None:
            child = RandomStreams(_derive_seed(self._root_seed, f"spawn:{name}"))
            self._children[name] = child
        return child

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------
    def state_snapshot(self) -> dict:
        """Capture every live stream's generator state, recursively.

        The snapshot is pure data (no generator objects) and restorable on
        a fresh factory built from the same root seed."""
        return {
            "root_seed": self._root_seed,
            "streams": {
                name: stream.getstate()
                for name, stream in self._streams.items()
            },
            "numpy_streams": {
                name: stream.bit_generator.state
                for name, stream in self._numpy_streams.items()
            },
            "children": {
                name: child.state_snapshot()
                for name, child in self._children.items()
            },
        }

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`state_snapshot`, recreating streams on demand.

        Streams absent from the snapshot are left untouched (they were
        never drawn from at capture time, so their state is still the
        seed-derived initial one)."""
        if state["root_seed"] != self._root_seed:
            raise ValueError(
                f"snapshot was taken with root seed {state['root_seed']}, "
                f"this factory uses {self._root_seed}"
            )
        for name, stream_state in state["streams"].items():
            self.get(name).setstate(stream_state)
        for name, numpy_state in state["numpy_streams"].items():
            self.get_numpy(name).bit_generator.state = numpy_state
        for name, child_state in state["children"].items():
            self.spawn(name).restore_state(child_state)
