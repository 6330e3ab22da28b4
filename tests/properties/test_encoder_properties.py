"""The signing encoder's per-type cache writes the bytes of the reflective one.

:func:`repro.security.signing.canonical_bytes` caches, per type, how its
instances encode.  Signatures are computed over these bytes, so the cache
must change no byte: every property here compares it with the reflective
encoder it replaced, kept below as the oracle.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass
from typing import Any

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.areas import CircularArea, RoadSegmentArea
from repro.geo.position import Position, PositionVector
from repro.geonet.packets import BeaconBody, GbcBody
from repro.security.signing import canonical_bytes


def reflective_bytes(body: Any) -> bytes:
    """The encoder as it was before the cache: reflection on every value."""
    return _reflective(body).encode("utf-8")


def _reflective(value: Any) -> str:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = ",".join(
            f"{f.name}={_reflective(getattr(value, f.name))}"
            for f in dataclasses.fields(value)
        )
        return f"{type(value).__name__}({fields})"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (str, int, bool, bytes)) or value is None:
        return repr(value)
    if isinstance(value, (tuple, list)):
        return "[" + ",".join(_reflective(v) for v in value) + "]"
    if isinstance(value, dict):
        items = sorted(value.items())
        pairs = (f"{_reflective(k)}:{_reflective(v)}" for k, v in items)
        return "{" + ",".join(pairs) + "}"
    return repr(value)


class Color(enum.Enum):
    RED = 1
    GREEN = "g"


class Level(enum.IntEnum):
    LOW = 0
    HIGH = 7


@dataclass(frozen=True)
class Pair:
    left: Any
    right: Any = None


@dataclass(frozen=True, slots=True)
class Slotted:
    value: Any


@dataclass(frozen=True)
class Empty:
    pass


class PairSubclass(Pair):
    """A plain subclass of a dataclass: it encodes under its own name."""


SPECIAL_FLOATS = st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072014e-308, -1e-310]
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    SPECIAL_FLOATS,
    st.text(max_size=8),
    st.binary(max_size=8),
    st.sampled_from(list(Color) + list(Level)),
    st.just(Empty()),
)


def _containers(children):
    return st.one_of(
        st.tuples(children, children),
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=3),
        st.dictionaries(st.integers(), children, max_size=3),
        st.builds(Pair, children, children),
        st.builds(PairSubclass, children, children),
        st.builds(Slotted, children),
    )


values = st.recursive(scalars, _containers, max_leaves=20)

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
positions = st.builds(Position, finite, finite)
position_vectors = st.builds(
    PositionVector,
    positions,
    st.floats(min_value=0.0, max_value=80.0),
    finite,
    finite,
)
message_bodies = st.one_of(
    st.builds(BeaconBody, st.integers(min_value=0), position_vectors),
    st.builds(
        GbcBody,
        source_addr=st.integers(min_value=0),
        sequence_number=st.integers(min_value=0),
        source_pv=position_vectors,
        area=st.one_of(
            st.builds(CircularArea, positions, st.floats(min_value=1.0, max_value=1e4)),
            st.builds(
                RoadSegmentArea,
                st.floats(min_value=1.0, max_value=1e5),
                st.floats(min_value=1.0, max_value=50.0),
            ),
        ),
        payload=st.text(max_size=10),
        lifetime=st.floats(min_value=0.1, max_value=100.0),
        created_at=finite,
    ),
)


@settings(max_examples=300, deadline=None)
@given(values)
def test_cached_encoder_matches_reflective_encoder(value):
    assert canonical_bytes(value) == reflective_bytes(value)


@settings(max_examples=200, deadline=None)
@given(message_bodies)
def test_message_bodies_encode_as_before(body):
    assert canonical_bytes(body) == reflective_bytes(body)


def test_edge_values_encode_as_before_and_stay_distinct():
    cases = [
        True, 1, 1.0, -0.0, 0.0, math.nan, math.inf, 5e-324, None, b"1", "1",
        Color.RED, Level.HIGH, (1, 2), [1, 2], {"b": 1, "a": 2}, Empty(),
        Pair(Pair(1, (2.5, None)), {"k": [b"x", Level.LOW]}),
        PairSubclass(1), Slotted(-0.0),
    ]
    encoded = [canonical_bytes(case) for case in cases]
    assert encoded == [reflective_bytes(case) for case in cases]
    # bool vs int, -0.0 vs 0.0, bytes vs str and a subclass vs its base
    # must not collide.
    assert canonical_bytes(True) != canonical_bytes(1)
    assert canonical_bytes(-0.0) != canonical_bytes(0.0)
    assert canonical_bytes(b"1") != canonical_bytes("1")
    assert canonical_bytes(PairSubclass(1)) != canonical_bytes(Pair(1))
