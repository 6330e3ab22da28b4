"""The four benchmark workloads, their inputs and their output checks.

Each workload turns the benchmark seed into inputs (``ExperimentConfig``s
or campaign target lists) and runs one *op* at a time through the public
API.  An op returns its timing samples, the ``RunResult``s it produced and
the problems its output check found; an op with problems counts as failed.
README.md records why each workload exists and what it should move.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

from repro.experiments.campaign import plan_campaign
from repro.experiments.config import ExperimentConfig, RoadConfig
from repro.experiments.runner import RunResult, run_single, summarize_world
from repro.experiments.service.scheduler import run_service_campaign
from repro.experiments.store import open_store, run_result_to_dict
from repro.experiments.world import World, reset_id_counters
from repro.radio.frames import FrameKind

#: Extras that describe the executing process, not the simulated timeline.
WALL_CLOCK_EXTRAS = ("wall_time_s", "events_per_wall_sec")


def fingerprint(result: RunResult) -> dict:
    """A run's record without its wall-clock extras, for equality checks."""
    record = run_result_to_dict(result)
    for name in WALL_CLOCK_EXTRAS:
        record["extras"].pop(name, None)
    return record


def peak_rss_mb(workers: int = 0) -> float:
    """Peak resident set of this process, plus ``workers`` times the largest
    waited-for child's (an upper bound: forked workers share pages with the
    parent)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


@dataclass
class Op:
    """What one op measured, produced and found wrong."""

    samples: Dict[str, List[float]] = field(default_factory=dict)
    results: List[RunResult] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    #: Campaign only: cold-pass wall seconds (for the service idle share).
    cold_s: float = 0.0

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)


def check_outcomes(result: RunResult, label: str) -> List[str]:
    """Every packet the routers originated has one valid outcome."""
    problems = []
    originated = result.extras.get("stats_router_originated")
    if not result.n_packets:
        problems.append(f"{label}: no packet was generated")
    if originated != result.n_packets or len(result.outcomes) != result.n_packets:
        problems.append(
            f"{label}: {originated} packets originated but {result.n_packets} "
            f"counted and {len(result.outcomes)} outcomes recorded"
        )
    for outcome in result.outcomes:
        if not 0 <= outcome.receivers <= outcome.denominator or not 0.0 <= outcome.success <= 1.0:
            problems.append(f"{label}: packet {outcome.packet_id} has outcome {outcome}")
            break
    return problems


class WorldWorkload:
    """A workload whose op is one or more World runs on one seed."""

    name = ""
    #: Wrapped calls a traced op must hit (see tracer.TARGETS labels).
    expected_calls: Tuple[str, ...] = ()
    #: Per-layer counts this workload bypasses: a traced op must leave them 0.
    zero_counts: Tuple[str, ...] = (
        "radio.shadowing.calls", "geonet.fleet.pairs", "sim.checkpoint.saves",
        "experiments.store.puts", "experiments.store.gets",
    )

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        #: Context for the output checks; a traced run pauses the tracer.
        self.untimed = contextlib.nullcontext

    def runs(self, k: int) -> List[Tuple[ExperimentConfig, bool, int]]:
        """The ``(config, attacked, seed)`` Worlds of op ``k``."""
        raise NotImplementedError

    def check_world(self, world: World, result: RunResult) -> List[str]:
        """Problems with one finished World and its result."""
        return check_outcomes(result, self._label(result))

    def check(self, results: List[RunResult]) -> List[str]:
        """Problems across the op's results."""
        return []

    def _label(self, result: RunResult) -> str:
        return f"{self.name} seed {result.seed} {'atk' if result.attacked else 'af'}"

    def run_op(self, k: int) -> Op:
        op = Op()
        sim_s = run_s = total_s = 0.0
        for config, attacked, seed in self.runs(k):
            # Packet ids come from process-global counters; resetting them
            # makes repeated runs of one seed produce equal records.  The
            # collection frees the last World, so that neither set-up time
            # nor peak memory depends on what ran before.
            reset_id_counters()
            gc.collect()
            start = time.perf_counter()
            world = World(config, attacked=attacked, seed=seed)
            built = time.perf_counter()
            world.run()
            ran = time.perf_counter()
            result = summarize_world(world)
            done = time.perf_counter()
            with self.untimed():
                op.problems += self.check_world(world, result)
            del world
            op.results.append(result)
            op.add("setup_s", built - start)
            sim_s += config.duration
            run_s += ran - built
            total_s += done - start
        op.add("sim_s_per_wall_s", sim_s / run_s)
        op.add("runs_per_min", 60.0 * len(op.results) / total_s)
        # No store: a re-issued op re-simulates, so it costs the op itself.
        op.add("resume_s", total_s)
        op.problems += self.check(op.results)
        op.add("peak_rss_mb", peak_rss_mb())
        return op


class HighwayGf(WorldWorkload):
    name = "highway-gf"
    expected_calls = (
        "Simulator.run_until", "TrafficSimulation.step",
        "BroadcastChannel.transmit", "RadioInterface.deliver",
        "SpatialGrid.query_disc", "GeoRouter.handle_frame",
        "LocationTable.update", "GreedyForwarder.select_next_hop",
        "signing.sign", "signing.verify", "InterAreaInterceptor.react",
    )
    #: Simulated seconds per World; long enough that the attacked reception
    #: rate sits clearly below the attack-free one on every seed.
    duration = 30.0

    def runs(self, k):
        config = ExperimentConfig.inter_area_default(duration=self.duration)
        seed = self.seed * 1000 + k
        return [(config, False, seed), (config, True, seed)]

    def check(self, results):
        problems = []
        free, attacked = results
        if free.n_packets != attacked.n_packets:
            problems.append(
                f"{self.name}: A/B pair generated {free.n_packets} and "
                f"{attacked.n_packets} packets; the pair must share its workload"
            )
        if not attacked.overall_rate < free.overall_rate:
            problems.append(
                f"{self.name} seed {free.seed}: attacked reception "
                f"{attacked.overall_rate:.3f} is not below attack-free "
                f"{free.overall_rate:.3f}"
            )
        return problems


class UrbanCbf(WorldWorkload):
    name = "urban-cbf"
    expected_calls = (
        "Simulator.run_until", "GridTrafficSimulation.step",
        "BroadcastChannel.transmit", "RadioInterface.deliver",
        "ManhattanShadowing.__call__", "GeoRouter.handle_frame",
        "LocationTable.update", "CbfForwarder.handle_broadcast",
        "signing.sign", "signing.verify", "IntraAreaBlocker.react",
    )
    zero_counts = (
        "geonet.fleet.pairs", "sim.checkpoint.saves",
        "experiments.store.puts", "experiments.store.gets",
    )
    #: About 2.5 s of wall time per simulated second: keep runs short.
    duration = 3.0
    #: Floods are sourced on the mast's street (the source-location knob of
    #: the paper's Fig 9 study).  Sourced anywhere on the grid, about 70% of
    #: floods never reach the mast, so a short run often has no replay.
    source_band = (490.0, 510.0)

    def runs(self, k):
        base = ExperimentConfig.intra_area_default(duration=self.duration).urbanized()
        lo, hi = self.source_band
        config = base.with_(
            workload=dataclasses.replace(base.workload, source_xmin=lo, source_xmax=hi)
        )
        return [(config, True, self.seed * 1000 + k)]

    def check_world(self, world, result):
        problems = super().check_world(world, result)
        if result.extras.get("replays_sent", 0.0) < 1:
            problems.append(f"{self._label(result)}: the attacker replayed no frame")
        return problems


class CityFleet(WorldWorkload):
    name = "city-fleet"
    expected_calls = (
        "Simulator.run_until", "TrafficSimulation.step",
        "GeoRouter.receive_beacons_bulk", "LocationTable.update_many",
        "FleetState.neighbor_pairs", "FleetState.push_positions_to_channel",
        "SpatialGrid.move_many", "signing.sign", "signing.verify",
    )
    zero_counts = (
        "radio.shadowing.calls", "sim.checkpoint.saves",
        "experiments.store.puts", "experiments.store.gets",
        "core.attacks.reacts",
    )
    duration = 4.0
    min_nodes = 10_000
    #: 75 km, two lanes each way, the paper's 30 m spacing: 10,004 vehicles.
    road = RoadConfig(
        length=75_000.0, lanes_per_direction=2, directions=2,
        inter_vehicle_space=30.0, spawn=False,
    )

    def runs(self, k):
        overrides = {"road": self.road}
        # ROADMAP item 2 makes the batched path the only one and removes
        # this field; the workload then runs unchanged on that path.
        if "fleet_use_batched" in {f.name for f in dataclasses.fields(ExperimentConfig)}:
            overrides["fleet_use_batched"] = True
        config = ExperimentConfig.inter_area_default(duration=self.duration, **overrides)
        return [(config, False, self.seed * 1000 + k)]

    def check_world(self, world, result):
        problems = super().check_world(world, result)
        geonet = world.config.geonet
        beaconing = len(world.nodes) + len(world.dest_nodes)
        sent = world.channel.stats.sent_by_kind.get(FrameKind.BEACON, 0)
        # Each node's first beacon falls within one period of its first
        # tick, later ones every period plus up to one jitter.
        tick = world.config.mobility_dt
        low = beaconing * int((self.duration - tick) // (geonet.beacon_period + geonet.beacon_jitter))
        high = beaconing * (int(self.duration // geonet.beacon_period) + 1)
        if len(world.nodes) < self.min_nodes:
            problems.append(f"{self.name}: only {len(world.nodes)} vehicles")
        if not low <= sent <= high:
            problems.append(
                f"{self.name}: {sent} beacons from {beaconing} nodes in "
                f"{self.duration}s, outside [{low}, {high}]"
            )
        return problems


class Campaign:
    """Cold service campaign over short fig7+fig9 A/B runs, then resumes."""

    name = "campaign"
    targets = ("fig7a", "fig9a")
    workers = 2
    #: Simulated seconds per run, and a checkpoint interval below it: each
    #: run saves checkpoints mid-run (at 2 s and 4 s), as a 200 s paper-scale
    #: run does at the default 120 s interval.
    duration = 5.0
    checkpoint_interval = 2.0
    #: open_store + plan_campaign take milliseconds; repeat for a median.
    setup_repeats = 10
    resume_repeats = 10
    expected_calls = (
        "campaign.execute_spec", "checkpointing.save_checkpoint",
        "checkpoint.snapshot_world", "checkpoint.encode_envelope",
        "ResultStoreBase.put_run", "ResultStore.put_checkpoint",
        "ResultStore.get_record", "ResultStoreBase.has",
        "Simulator.run_until", "BroadcastChannel.transmit",
    )
    zero_counts = ("radio.shadowing.calls", "geonet.fleet.pairs")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.untimed = contextlib.nullcontext

    def _campaign(self, store, seed: int):
        return run_service_campaign(
            list(self.targets), store=store, workers=self.workers, runs=1,
            duration=self.duration, seed=seed,
            checkpoint_interval=self.checkpoint_interval,
        )

    def run_op(self, k: int) -> Op:
        op = Op()
        seed = self.seed * 1000 + k
        root = self.workdir / f"store-{k}"
        shutil.rmtree(root, ignore_errors=True)
        for _ in range(self.setup_repeats):
            start = time.perf_counter()
            store = open_store(root)
            specs = plan_campaign(list(self.targets), runs=1, duration=self.duration, seed=seed)
            op.add("setup_s", time.perf_counter() - start)

        start = time.perf_counter()
        cold = self._campaign(store, seed)
        op.cold_s = time.perf_counter() - start
        op.add("runs_per_min", 60.0 * len(specs) / op.cold_s)
        op.add("sim_s_per_wall_s", len(specs) * self.duration / op.cold_s)
        if not cold.ok or cold.executed != len(specs):
            op.problems.append(
                f"{self.name}: cold pass executed {cold.executed} of "
                f"{len(specs)} runs ({cold.summary()})"
            )
        for _ in range(self.resume_repeats):
            start = time.perf_counter()
            again = self._campaign(store, seed)
            op.add("resume_s", time.perf_counter() - start)
            if again.executed != 0 or again.skipped != len(specs) or not again.ok:
                op.problems.append(f"{self.name}: resume pass {again.summary()}")
        op.add("peak_rss_mb", peak_rss_mb(self.workers))

        with self.untimed():
            missing = [spec.describe() for spec in specs if not store.has(spec.key)]
            if missing:
                op.problems.append(f"{self.name}: planned runs not stored: {missing}")
            op.results = [store.get_run(spec.key) for spec in specs if store.has(spec.key)]
            op.problems += self._check_bit_identity(store, specs[k % len(specs)])
        shutil.rmtree(root, ignore_errors=True)
        return op

    def _check_bit_identity(self, store, spec) -> List[str]:
        """A record a service worker committed equals in-process run_single."""
        stored = store.get_run(spec.key)
        reset_id_counters()
        local = run_single(spec.config, attacked=spec.attacked, seed=spec.seed)
        if stored is None or fingerprint(stored) != fingerprint(local):
            return [f"{self.name}: stored record of {spec.describe()} differs from run_single"]
        return []


WORKLOADS = {cls.name: cls for cls in (HighwayGf, UrbanCbf, CityFleet, Campaign)}
