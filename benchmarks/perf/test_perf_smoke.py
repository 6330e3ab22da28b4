"""Smoke test for the perf harness (run with ``pytest -m perf``).

Excluded from tier-1 (the default test paths don't collect ``benchmarks/``
and the ``perf`` marker keeps it opt-in even when this directory is given
explicitly).  Asserts the harness's --quick mode finishes fast and emits
well-formed JSON — it does not assert any absolute speed, since CI machines
vary.  The two speed guards here are same-process ratios, where machine
drift cancels out: the fleet 2x guard and the urban-vs-highway World guard.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

pytestmark = pytest.mark.perf

REPO_ROOT = Path(__file__).resolve().parents[2]
HARNESS = Path(__file__).parent / "bench_channel.py"
FLEET_HARNESS = Path(__file__).parent / "bench_fleet.py"
BUDGETS = json.loads((Path(__file__).parent / "PERF_BUDGETS.json").read_text())


def test_quick_harness_emits_valid_json_under_30s(tmp_path):
    out_path = tmp_path / "bench.json"
    env = {"PYTHONPATH": str(REPO_ROOT / "src")}
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HARNESS), "--quick", "--out", str(out_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 30.0, f"--quick harness took {elapsed:.1f}s"

    report = json.loads(out_path.read_text())
    assert report == json.loads(proc.stdout)  # stdout mirrors the file
    assert report["meta"]["mode"] == "quick"
    for section in (
        "pre_change_reference",
        "dense_channel_microbenchmark",
        "neighbor_query_scaling",
        "world_runs",
        "summary",
    ):
        assert section in report, f"missing section {section}"

    dense = report["dense_channel_microbenchmark"]
    for mode in ("grid", "scan"):
        for metric in (
            "transmit_call_us",
            "receivers_for_us",
            "end_to_end_tx_per_s",
        ):
            assert dense[mode][metric] > 0

    # grid and scan World runs must stay behaviorally identical
    for entry in report["world_runs"]["by_spacing"].values():
        assert entry["grid"]["frames_sent"] == entry["scan"]["frames_sent"]


def test_quick_fleet_harness_emits_valid_json_under_60s(tmp_path):
    out_path = tmp_path / "bench_fleet.json"
    env = {"PYTHONPATH": str(REPO_ROOT / "src")}
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(FLEET_HARNESS), "--quick", "--out", str(out_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=180,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 60.0, f"--quick fleet harness took {elapsed:.1f}s"

    report = json.loads(out_path.read_text())
    assert report["meta"]["mode"] == "quick"
    for section in (
        "dense_fleet_microbenchmark",
        "fleet_beacon_scaling",
        "mobility_step_scaling",
        "world_runs",
        "world_scale_run",
        "summary",
    ):
        assert section in report, f"missing section {section}"

    dense = report["dense_fleet_microbenchmark"]
    assert dense["fleet_batched"]["end_to_end_tx_per_s"] > 0
    assert dense["channel_grid_live"]["end_to_end_tx_per_s"] > 0
    # Budget keyed off the checked-in BENCH_channel.json grid capture:
    # the measured ratio is ~6x on the reference machine; 2x leaves
    # generous headroom for slower/noisier CI machines while still
    # catching a batched path that regressed to per-object speed.
    ref = report.get("dense_fleet_microbenchmark", {}).get(
        "channel_grid_reference"
    )
    if ref is not None:
        assert (
            dense["fleet_batched"]["end_to_end_tx_per_s"]
            >= 2.0 * ref["end_to_end_tx_per_s"]
        ), "batched beacon loop lost its edge over the per-interface path"

    # Obstruction fallback guard: with a Manhattan shadowing model
    # registered, every delivery sweep routes through the vectorised
    # Channel.block_mask path.  Compared within the same run (machine
    # drift cancels out), the obstructed dense-500 loop must keep at
    # least half the clear-channel throughput — i.e. the urban scenario
    # pack must not regress the BENCH_fleet.json dense-500 scenario by
    # more than 2x.
    obstructed = dense["fleet_batched_obstructed"]
    assert obstructed["end_to_end_tx_per_s"] > 0
    assert obstructed["beacons_sent"] > 0
    assert (
        obstructed["end_to_end_tx_per_s"]
        >= 0.5 * dense["fleet_batched"]["end_to_end_tx_per_s"]
    ), "obstruction fallback regressed the dense-500 beacon loop by >2x"

    for entry in report["fleet_beacon_scaling"]["by_n"].values():
        assert entry["beacons_sent"] > 0
        assert entry["end_to_end_tx_per_s"] > 0
    for entry in report["mobility_step_scaling"]["by_n"].values():
        assert entry["batched"]["n_vehicles"] == entry["legacy"]["n_vehicles"]
        assert entry["batched"]["step_us"] > 0

    # The batched World must source comparable traffic to the legacy one
    # (outcome-equivalence; exact counts differ across jitter streams).
    worlds = report["world_runs"]
    legacy_sent = worlds["legacy"]["frames_sent"]
    assert abs(worlds["batched"]["frames_sent"] - legacy_sent) / legacy_sent < 0.2
    scale = report["world_scale_run"]
    assert scale["n_nodes"] > 1000
    assert scale["beacons_sent"] > 0


def _best_world_wall_s(config, reps=3):
    """Best-of-``reps`` wall seconds to build and run one attacked World."""
    from repro.experiments.world import World

    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        World(config, attacked=True).run()
        best = min(best, time.perf_counter() - t0)
    return best


def test_urban_world_wall_time_within_ratio_of_highway():
    """Shadowing guard: an urban World must cost about what a highway one
    does.  Every in-range link of an urban run goes through the Manhattan
    shadowing predicate; when that per-link check ran through numpy the
    3 s urban run below cost ~40x the highway one, with the plain-Python
    predicate under 2x.  Both sides come from this process, so the ratio is
    immune to runner speed."""
    from repro.experiments.config import ExperimentConfig

    max_ratio = BUDGETS["urban"]["max_wall_ratio_vs_highway"]
    urban = _best_world_wall_s(
        ExperimentConfig.intra_area_default(duration=3.0, seed=7).urbanized()
    )
    highway = _best_world_wall_s(
        ExperimentConfig.inter_area_default(duration=3.0, seed=7)
    )
    assert urban <= max_ratio * highway, (
        f"urban World took {urban:.2f}s, {urban / highway:.1f}x the highway "
        f"World's {highway:.2f}s (budget {max_ratio}x; ratchet in "
        "PERF_BUDGETS.json)"
    )
