"""Property tests: the per-link shadowing hook matches the batched rule.

:class:`~repro.radio.shadowing.ManhattanShadowing` answers one question in
two forms: ``__call__(a, b)`` for one link, in plain Python, and
``blocks_many`` for parallel arrays of links, in numpy.  The per-receiver
transmit path uses the first and the batched fleet tick the second, so a
run's outcome depends on the two agreeing bit for bit, and on the link
being symmetric.

Uniform points almost never land on a boundary, so the strategies here
place endpoints exactly on corridor edges (``|d| == half_width``), exactly
on corner clearance circles (Pythagorean offsets from an intersection),
and one ulp to either side of both.  Models have irregular and unsorted
street tuples (duplicates included), sometimes an empty axis, and
sometimes ``corner_clearance=0``.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.position import Position
from repro.radio.shadowing import ManhattanShadowing

# Multiples of 1/4 m are exact binary floats, so ``s + half_width`` and a
# Pythagorean offset from a corner land exactly on the boundary instead of
# within rounding of it.
QUARTERS = st.integers(min_value=-4000, max_value=4000).map(lambda q: q / 4.0)
#: Street centrelines: mostly on the quarter lattice, some arbitrary floats.
STREETS = QUARTERS | st.floats(min_value=-1000.0, max_value=1000.0)
#: Free coordinates anywhere around the streets.
FREE = st.floats(min_value=-1100.0, max_value=1100.0)
#: Primitive Pythagorean triples (leg, leg, hypotenuse).
TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17))


def _nudge(draw, value: float) -> float:
    """``value`` itself, or the next float below or above it."""
    step = draw(st.sampled_from((0, -1, 1)))
    if step == 0:
        return value
    return math.nextafter(value, math.inf * step)


@st.composite
def models(draw):
    street_xs = draw(st.lists(STREETS, max_size=5))
    street_ys = draw(st.lists(STREETS, min_size=0 if street_xs else 1, max_size=5))
    half_width = draw(st.integers(min_value=1, max_value=64)) / 4.0
    leg_a, leg_b, hyp = draw(st.sampled_from(TRIPLES))
    scale = draw(st.integers(min_value=0, max_value=12)) / 4.0
    model = ManhattanShadowing(
        street_xs=tuple(street_xs),
        street_ys=tuple(street_ys),
        half_width=half_width,
        corner_clearance=hyp * scale,
    )
    # Offsets from a corner that lie exactly on the clearance circle.
    legs = ((leg_a, leg_b), (leg_b, leg_a), (hyp, 0), (0, hyp))
    circle = [
        (sx * u * scale, sy * v * scale)
        for u, v in legs
        for sx in (-1, 1)
        for sy in (-1, 1)
    ]
    return model, circle


def _on_circle(draw, corner, circle) -> Position:
    cx, cy = corner
    dx, dy = draw(st.sampled_from(circle))
    return Position(_nudge(draw, cx + dx), _nudge(draw, cy + dy))


def _corner(draw, model):
    return draw(st.sampled_from(model.street_xs)), draw(st.sampled_from(model.street_ys))


@st.composite
def points(draw, model, circle):
    hw = model.half_width
    kind = draw(st.sampled_from(("free", "corridor", "circle")))
    if kind == "circle" and model.street_xs and model.street_ys:
        return _on_circle(draw, _corner(draw, model), circle)

    def coordinate(streets):
        if kind == "free" or not streets:
            return draw(FREE)
        street = draw(st.sampled_from(streets))
        edge = draw(st.sampled_from((street - hw, street + hw, street)))
        return _nudge(draw, edge)

    return Position(coordinate(model.street_xs), coordinate(model.street_ys))


@st.composite
def corner_pairs(draw, model, circle):
    """Both endpoints on (or one ulp off) the same corner's circle."""
    corner = _corner(draw, model)
    return _on_circle(draw, corner, circle), _on_circle(draw, corner, circle)


@st.composite
def links(draw):
    model, circle = draw(models())
    endpoint = points(model, circle)
    pair = st.tuples(endpoint, endpoint)
    if model.street_xs and model.street_ys:
        pair = pair | corner_pairs(model, circle)
    pairs = draw(st.lists(pair, min_size=1, max_size=24))
    return model, pairs


@settings(max_examples=400, deadline=None)
@given(links())
def test_per_link_hook_matches_batched_rule_and_is_symmetric(case):
    model, pairs = case
    mask = model.blocks_many(
        np.array([a.x for a, _ in pairs]),
        np.array([a.y for a, _ in pairs]),
        np.array([b.x for _, b in pairs]),
        np.array([b.y for _, b in pairs]),
    )
    for k, (a, b) in enumerate(pairs):
        blocked = model(a, b)
        assert blocked is bool(mask[k]), (a, b)
        assert model(b, a) is blocked, (a, b)


def test_exact_corridor_edge_counts_as_on_street():
    model = ManhattanShadowing(street_xs=(), street_ys=(100.0,), half_width=6.0)
    assert not model(Position(0.0, 94.0), Position(500.0, 106.0))
    assert model(Position(0.0, math.nextafter(94.0, 0.0)), Position(500.0, 106.0))
    assert not model.blocks_many([0.0], [94.0], [500.0], [106.0])[0]


def test_exact_clearance_circle_counts_as_near_the_corner():
    model = ManhattanShadowing(
        street_xs=(200.0,), street_ys=(200.0,), half_width=1.0, corner_clearance=5.0
    )
    on_circle = Position(203.0, 204.0)  # a 3-4-5 offset from the corner
    around = Position(196.0, 197.0)  # the same, on the opposite side
    assert not model(on_circle, around)
    assert not model.blocks_many([203.0], [204.0], [196.0], [197.0])[0]
    outside = Position(203.0, math.nextafter(204.0, math.inf))
    assert model(outside, around)
    assert model.blocks_many([outside.x], [outside.y], [196.0], [197.0])[0]
