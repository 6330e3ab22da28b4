"""Seed-paired equivalence regression for the spatial-index refactor.

The GOLDEN digests below were captured from the pre-refactor channel
(full O(N) numpy scan, list-ordered delivery) with
``tests/experiments/_golden_capture.py``.  They hash every
full-precision field of every :class:`PacketOutcome`, so they only
reproduce if the grid-backed channel preserves the exact delivery order
and RNG draw order of the original implementation — the core
correctness contract of this optimisation.

The two ``urban-*`` entries were captured the same way, from the
numpy-per-link Manhattan shadowing predicate, before it became plain
Python.  Every in-range link of an urban run goes through that
predicate, so they pin the rewrite as bit-identical.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_single
from tests.experiments._golden_capture import outcome_digest

GOLDEN = {
    "inter-af": {
        "digest": "23510921f03315edaeb840fbb45e273d0cdd0be016f609bec741bee2ef8867d5",
        "n_packets": 19,
        "overall_rate": 0.6842105263157895,
        "frames_sent": 1855,
        "frames_delivered": 103302,
        "unicast_lost": 6,
    },
    "inter-atk": {
        "digest": "9954f7d985bb09c84074b38e4a1d642f72c2e342d5474658946b47f290ca4c0b",
        "n_packets": 19,
        "overall_rate": 0.3684210526315789,
        "frames_sent": 2068,
        "frames_delivered": 114610,
        "unicast_lost": 12,
    },
    "intra-atk": {
        "digest": "d728cf748fc7231248e4692d3672770bd9d16b081b08f5d964b465b89482068f",
        "n_packets": 19,
        "overall_rate": 0.6168121288234051,
        "frames_sent": 1805,
        "frames_delivered": 108404,
        "unicast_lost": 0,
    },
    "lossy-af": {
        "digest": "350482c57b47229534111fcbc3696de73932ff01a034252fbb1b4585d61439fb",
        "n_packets": 19,
        "overall_rate": 0.42105263157894735,
        "frames_sent": 1830,
        "frames_delivered": 97880,
        "unicast_lost": 4,
    },
    "urban-intra-atk": {
        "digest": "eacb8798c4276b467928f5fb5aefb5419d22e707a4bafe2f9cb12e33c3e6196c",
        "n_packets": 9,
        "overall_rate": 0.6776510636285598,
        "frames_sent": 952,
        "frames_delivered": 29072,
        "unicast_lost": 0,
    },
    "urban-inter-atk": {
        "digest": "bc6445949d726ee8e1718ec5f44cc6c7457a950c18631acdb70aefe7ea0e4491",
        "n_packets": 9,
        "overall_rate": 0.2222222222222222,
        "frames_sent": 925,
        "frames_delivered": 27078,
        "unicast_lost": 7,
    },
}


def _configs():
    inter = ExperimentConfig.inter_area_default(duration=20.0, seed=7)
    intra = ExperimentConfig.intra_area_default(duration=20.0, seed=7)
    lossy = inter.with_(channel_loss_rate=0.05)
    urban_intra = ExperimentConfig.intra_area_default(
        duration=10.0, seed=7
    ).urbanized()
    urban_inter = ExperimentConfig.inter_area_default(
        duration=10.0, seed=7
    ).urbanized()
    return {
        "inter-af": (inter, False),
        "inter-atk": (inter, True),
        "intra-atk": (intra, True),
        "lossy-af": (lossy, False),
        "urban-intra-atk": (urban_intra, True),
        "urban-inter-atk": (urban_inter, True),
    }


@pytest.mark.slow
@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_grid_channel_reproduces_pre_refactor_golden(label):
    config, attacked = _configs()[label]
    result = run_single(config, attacked=attacked)
    expected = GOLDEN[label]
    assert outcome_digest(result) == expected["digest"]
    assert result.n_packets == expected["n_packets"]
    assert result.overall_rate == expected["overall_rate"]
    assert int(result.extras["frames_sent"]) == expected["frames_sent"]
    assert (
        int(result.extras["frames_delivered"]) == expected["frames_delivered"]
    )
    assert int(result.extras["unicast_lost"]) == expected["unicast_lost"]


@pytest.mark.slow
def test_grid_and_scan_modes_are_bit_identical():
    """The spatial index must be a pure optimisation: disabling it must
    produce the exact same packet outcomes, frame counts, and stats."""
    config = ExperimentConfig.inter_area_default(duration=15.0, seed=21)
    results = {}
    for use_grid in (True, False):
        cfg = config.with_(channel_use_spatial_index=use_grid)
        result = run_single(cfg, attacked=True)
        results[use_grid] = (
            outcome_digest(result),
            result.overall_rate,
            int(result.extras["frames_sent"]),
            int(result.extras["frames_delivered"]),
            int(result.extras["unicast_lost"]),
        )
    assert results[True] == results[False]
