"""The traffic microsimulation loop.

Advances every vehicle with vectorised IDM on a fixed time step (100 ms by
default), handles hazards as virtual stationary leaders, spawns vehicles at
entrances and retires vehicles that leave the segment.  Networking layers
subscribe via ``on_spawn`` / ``on_exit`` / ``on_step`` callbacks.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Optional

import numpy as np

from repro.radio.spatial import SpatialGrid
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess
from repro.traffic.hazard import HazardEvent
from repro.traffic.idm import IdmParameters, idm_acceleration_array
from repro.traffic.road import Direction, Lane, RoadSegment
from repro.traffic.spawner import EntranceSpawner
from repro.traffic.vehicle import Vehicle

#: Mobility events run before same-time network events.
MOBILITY_PRIORITY = -10

#: Default cell size of the vehicle proximity grid (metres).
NEIGHBOR_CELL_SIZE = 250.0


class TrafficSimulation:
    """Owns all vehicles and advances them each time step."""

    def __init__(
        self,
        road: RoadSegment,
        params: Optional[IdmParameters] = None,
        *,
        dt: float = 0.1,
        spawner: Optional[EntranceSpawner] = None,
        rng=None,
        speed_factor_spread: float = 0.03,
        runout: float = 0.0,
        neighbor_cell_size: float = NEIGHBOR_CELL_SIZE,
        fleet=None,
    ):
        if dt <= 0:
            raise ValueError("dt must be positive")
        if speed_factor_spread < 0 or speed_factor_spread >= 1:
            raise ValueError("speed_factor_spread must be in [0, 1)")
        if runout < 0:
            raise ValueError("runout must be non-negative")
        self.road = road
        self.params = params or IdmParameters()
        self.dt = dt
        self.spawner = spawner
        #: Source of driver heterogeneity (speed preferences, initial
        #: placement jitter).  None gives perfectly homogeneous traffic,
        #: which is only appropriate for unit tests — homogeneous lanes put
        #: vehicles radio-symmetrically and break contention-based protocols
        #: in ways real traffic does not.
        self._rng = rng
        self._speed_factor_spread = speed_factor_spread
        #: Vehicles keep driving this many metres past the segment before
        #: they are retired.  The world beyond a simulated road segment is
        #: not empty: without a runout, location-table entries of vehicles
        #: that just "fell off the edge" poison greedy forwarding near the
        #: road ends in a way that has no physical counterpart.
        self.runout = runout
        self.hazards: List[HazardEvent] = []
        #: vehicles per lane index, sorted by progress ascending
        #: (the last element is the furthest along, nearest the exit).
        self._lanes: Dict[int, List[Vehicle]] = {
            lane.index: [] for lane in road.lanes
        }
        self.on_spawn: List[Callable[[Vehicle], None]] = []
        self.on_exit: List[Callable[[Vehicle], None]] = []
        self.on_step: List[Callable[[float], None]] = []
        self.rear_end_contacts = 0
        self._process: Optional[PeriodicProcess] = None
        self._now = 0.0
        #: Spatial index over active vehicles for proximity queries
        #: (:meth:`vehicles_near`, :meth:`leader_of`).  Membership is
        #: maintained incrementally on spawn/retire; positions are refreshed
        #: lazily, only when a query arrives after a step moved vehicles.
        self._grid = SpatialGrid(neighbor_cell_size)
        self._grid_dirty = False
        #: Optional :class:`~repro.geonet.fleet.FleetState`: when set, each
        #: lane step also writes the new kinematics into the fleet's arrays
        #: with one fancy-indexed store per lane (the batched networking
        #: path reads positions from there instead of per-vehicle attrs).
        self._fleet = fleet
        #: lane index -> slot ndarray aligned with the lane's vehicle list;
        #: rebuilt lazily when the lane's membership changes.
        self._fleet_slots: Dict[int, Optional[np.ndarray]] = {}

    # ------------------------------------------------------------------
    # population
    # ------------------------------------------------------------------
    def add_vehicle(self, vehicle: Vehicle) -> None:
        """Insert a vehicle keeping the lane sorted by progress."""
        lane_vehicles = self._lanes[vehicle.lane.index]
        lane_vehicles.append(vehicle)
        lane_vehicles.sort(key=lambda v: v.progress)
        self._grid.insert(vehicle, vehicle.x, vehicle.lane.y)
        self._fleet_slots.pop(vehicle.lane.index, None)
        for callback in self.on_spawn:
            callback(vehicle)

    def _draw_speed_factor(self) -> float:
        if self._rng is None or self._speed_factor_spread == 0:
            return 1.0
        spread = self._speed_factor_spread
        return 1.0 + self._rng.uniform(-spread, spread)

    def populate(self, spacing: float, speed: float = 30.0) -> int:
        """Pre-fill every lane with vehicles ``spacing`` metres apart.

        Returns the number of vehicles created.  This realises the paper's
        "vehicles are 30 meters apart" default density from t=0.  With an
        rng attached, adjacent lanes are phase-staggered by half a spacing
        and every slot is jittered by up to a quarter spacing, as in real
        traffic (and as needed to avoid radio-symmetric vehicle pairs).
        """
        if spacing <= 0:
            raise ValueError("spacing must be positive")
        created = 0
        for lane_order, lane in enumerate(self.road.lanes):
            n = int(self.road.length // spacing)
            stagger = (lane_order % 2) * spacing / 2 if self._rng is not None else 0.0
            for k in range(n + 1):
                progress = k * spacing + stagger
                if self._rng is not None:
                    progress += self._rng.uniform(-0.25, 0.25) * spacing
                progress = min(max(progress, 0.0), self.road.length)
                x = (
                    progress
                    if lane.direction is Direction.EAST
                    else self.road.length - progress
                )
                vehicle = Vehicle(
                    lane=lane,
                    x=x,
                    speed=speed,
                    length=self.params.vehicle_length,
                    entered_at=self._now,
                    speed_factor=self._draw_speed_factor(),
                )
                self._lanes[lane.index].append(vehicle)
                self._grid.insert(vehicle, vehicle.x, vehicle.lane.y)
                created += 1
        for lane_vehicles in self._lanes.values():
            lane_vehicles.sort(key=lambda v: v.progress)
        self._fleet_slots.clear()
        for lane_vehicles in self._lanes.values():
            for vehicle in lane_vehicles:
                for callback in self.on_spawn:
                    callback(vehicle)
        return created

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def vehicles(
        self, direction: Optional[Direction] = None, *, on_road_only: bool = False
    ) -> Iterable[Vehicle]:
        """Iterate active vehicles, optionally filtered by direction.

        ``on_road_only`` excludes vehicles in the runout zone beyond the
        segment (they still drive and keep their radios on).
        """
        for lane in self.road.lanes:
            if direction is not None and lane.direction is not direction:
                continue
            for vehicle in self._lanes[lane.index]:
                if on_road_only and vehicle.progress > self.road.length:
                    continue
                yield vehicle

    def count_on_road(self, direction: Optional[Direction] = None) -> int:
        """Number of vehicles on the segment proper (runout excluded)."""
        return sum(1 for _ in self.vehicles(direction, on_road_only=True))

    def lane_vehicles(self, lane: Lane) -> List[Vehicle]:
        """The (sorted) vehicles currently in ``lane``."""
        return list(self._lanes[lane.index])

    # ------------------------------------------------------------------
    # proximity queries (spatial grid)
    # ------------------------------------------------------------------
    def _refresh_grid(self) -> None:
        if not self._grid_dirty:
            return
        move = self._grid.move
        for lane_vehicles in self._lanes.values():
            for vehicle in lane_vehicles:
                move(vehicle, vehicle.x, vehicle.lane.y)
        self._grid_dirty = False

    def vehicles_near(
        self,
        x: float,
        y: float,
        radius: float,
        *,
        direction: Optional[Direction] = None,
    ) -> List[Vehicle]:
        """Active vehicles within ``radius`` metres of ``(x, y)``.

        Served from the vehicle spatial grid in O(k) for the ~k nearby
        vehicles; results are in deterministic ``(lane, progress,
        vehicle_id)`` order.
        """
        self._refresh_grid()
        matches = [
            vehicle
            for vehicle, _d in self._grid.query_disc(x, y, radius)
            if direction is None or vehicle.direction is direction
        ]
        matches.sort(key=lambda v: (v.lane.index, v.progress, v.vehicle_id))
        return matches

    def leader_of(
        self, vehicle: Vehicle, *, within: Optional[float] = None
    ) -> Optional[Vehicle]:
        """The nearest vehicle ahead of ``vehicle`` in its lane, or None.

        ``within`` bounds the search distance (default: the grid cell size,
        which keeps the lookup inside a 3×3 cell neighborhood).  This is the
        proximity-grid counterpart of the IDM stepper's sorted-lane leader
        and serves ad-hoc queries — hazard placement, platoon analysis —
        without an O(N) scan.
        """
        limit = self._grid.cell_size if within is None else within
        self._refresh_grid()
        best: Optional[Vehicle] = None
        best_gap = math.inf
        progress = vehicle.progress
        for other, _d in self._grid.query_disc(
            vehicle.x, vehicle.lane.y, limit
        ):
            if other is vehicle or other.lane.index != vehicle.lane.index:
                continue
            gap = other.progress - progress
            if gap <= 0:
                continue
            if gap < best_gap or (
                gap == best_gap
                and best is not None
                and other.vehicle_id < best.vehicle_id
            ):
                best = other
                best_gap = gap
        return best

    # ------------------------------------------------------------------
    # hazards
    # ------------------------------------------------------------------
    def add_hazard(self, hazard: HazardEvent) -> None:
        """Register a hazard event (it activates at its start time)."""
        self.hazards.append(hazard)

    def _hazard_progress(self, lane: Lane, now: float) -> float:
        """Progress of the nearest active hazard in ``lane`` (inf if none)."""
        best = math.inf
        for hazard in self.hazards:
            if hazard.blocks(lane.direction, now):
                best = min(best, lane.progress(hazard.x))
        return best

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def step(self, now: float) -> None:
        """Advance all vehicles by one ``dt`` and run spawning/exits."""
        self._now = now
        for lane in self.road.lanes:
            self._step_lane(lane, now)
        self._grid_dirty = True
        self._retire_exited()
        self._spawn(now)
        for callback in self.on_step:
            callback(now)

    def _step_lane(self, lane: Lane, now: float) -> None:
        lane_vehicles = self._lanes[lane.index]
        if not lane_vehicles:
            return
        n = len(lane_vehicles)
        # One list per attribute: no per-vehicle tuple, which the cyclic
        # collector would count.  Progress is Vehicle.progress
        # (Lane.progress) for the whole lane at once.
        xs = np.array([v.x for v in lane_vehicles])
        if lane.direction is Direction.EAST:
            progress = xs
        else:
            progress = lane.road_length - xs
        speeds = np.array([v.speed for v in lane_vehicles])
        lengths = np.array([v.length for v in lane_vehicles])
        forced = [v.forced_acceleration for v in lane_vehicles]
        gaps = np.full(n, np.inf)
        lead_speeds = np.zeros(n)
        if n > 1:
            gaps[:-1] = (
                progress[1:] - progress[:-1] - (lengths[1:] + lengths[:-1]) / 2
            )
            lead_speeds[:-1] = speeds[1:]
        hazard_progress = self._hazard_progress(lane, now)
        if math.isfinite(hazard_progress):
            behind = progress < hazard_progress
            if behind.any():
                # The closest vehicle behind the hazard brakes for it; the
                # rest follow their real leaders (who queue up in turn).
                leader_idx = int(np.flatnonzero(behind)[-1])
                hazard_gap = (
                    hazard_progress
                    - progress[leader_idx]
                    - lengths[leader_idx] / 2
                )
                if hazard_gap < gaps[leader_idx]:
                    gaps[leader_idx] = hazard_gap
                    lead_speeds[leader_idx] = 0.0
        desired = self.params.desired_velocity * np.array(
            [v.speed_factor for v in lane_vehicles]
        )
        accel = idm_acceleration_array(
            speeds, gaps, lead_speeds, self.params, desired_velocities=desired
        )
        if forced.count(None) != n:
            for i, value in enumerate(forced):
                if value is not None:
                    accel[i] = value
        new_speeds = np.maximum(0.0, speeds + accel * self.dt)
        new_progress = progress + new_speeds * self.dt
        # Hard anti-overlap guard: IDM with sane parameters never rear-ends,
        # but forced profiles or extreme spawns could; count and clamp.  The
        # vectorised test finds whether any follower overlaps its unclamped
        # leader; only then does the sequential clamp (whose limits depend
        # on the clamps ahead of them) run.
        if n > 1 and (
            new_progress[:-1]
            > new_progress[1:] - (lengths[1:] + lengths[:-1]) / 2 - 0.1
        ).any():
            self._clamp_overlaps(new_progress, new_speeds, lengths)
        if lane.direction is Direction.EAST:
            new_x = new_progress
        else:
            new_x = self.road.length - new_progress
        for vehicle, speed, x in zip(
            lane_vehicles, new_speeds.tolist(), new_x.tolist()
        ):
            vehicle.speed = speed
            vehicle.x = x
        if self._fleet is not None:
            slots = self._fleet_lane_slots(lane.index, lane_vehicles)
            if slots is not None:
                self._fleet.x[slots] = new_x
                self._fleet.speed[slots] = new_speeds

    def _clamp_overlaps(
        self, new_progress: np.ndarray, new_speeds: np.ndarray, lengths: np.ndarray
    ) -> None:
        """Clamp each follower behind its (already clamped) leader, front
        to back, counting every contact."""
        for i in range(len(new_progress) - 2, -1, -1):
            limit = new_progress[i + 1] - (lengths[i + 1] + lengths[i]) / 2 - 0.1
            if new_progress[i] > limit:
                self.rear_end_contacts += 1
                new_progress[i] = limit
                new_speeds[i] = min(new_speeds[i], new_speeds[i + 1])

    def _fleet_lane_slots(
        self, lane_index: int, lane_vehicles: List[Vehicle]
    ) -> Optional[np.ndarray]:
        """The lane's fleet slots, aligned with its sorted vehicle list.

        Rebuilt only when the lane's membership changes (spawn/retire/
        explicit add invalidate the cache); within a step the lane order is
        stable, since IDM followers never pass their leader.  Returns None
        while any vehicle has no slot yet — its spawn callback assigns one
        before the next step, so that state is transient.
        """
        try:
            return self._fleet_slots[lane_index]
        except KeyError:
            pass
        try:
            slots = np.fromiter(
                (v.fleet_slot for v in lane_vehicles),
                dtype=np.intp,
                count=len(lane_vehicles),
            )
        except TypeError:
            slots = None
        self._fleet_slots[lane_index] = slots
        return slots

    def _retire_exited(self) -> None:
        retire_at = self.road.length + self.runout
        for lane in self.road.lanes:
            lane_vehicles = self._lanes[lane.index]
            while lane_vehicles and lane_vehicles[-1].progress > retire_at:
                vehicle = lane_vehicles.pop()
                vehicle.active = False
                self._grid.remove(vehicle)
                self._fleet_slots.pop(lane.index, None)
                for callback in self.on_exit:
                    callback(vehicle)

    def _spawn(self, now: float) -> None:
        if self.spawner is None:
            return
        for lane in self.road.lanes:
            lane_vehicles = self._lanes[lane.index]
            nearest = lane_vehicles[0].progress if lane_vehicles else math.inf
            if self.spawner.may_spawn(lane, nearest):
                vehicle = Vehicle(
                    lane=lane,
                    x=lane.entrance_x(),
                    speed=self.spawner.entry_speed,
                    length=self.params.vehicle_length,
                    entered_at=now,
                    speed_factor=self._draw_speed_factor(),
                )
                lane_vehicles.insert(0, vehicle)
                self._grid.insert(vehicle, vehicle.x, vehicle.lane.y)
                self._fleet_slots.pop(lane.index, None)
                self.spawner.spawned_count += 1
                for callback in self.on_spawn:
                    callback(vehicle)

    # ------------------------------------------------------------------
    # engine integration
    # ------------------------------------------------------------------
    def start(self, sim: Simulator) -> PeriodicProcess:
        """Schedule the mobility loop on the event engine."""
        if self._process is not None:
            raise RuntimeError("traffic simulation already started")
        self._sim = sim
        self._process = PeriodicProcess(
            sim,
            self.dt,
            self._mobility_tick,
            start_delay=self.dt,
            priority=MOBILITY_PRIORITY,
        )
        return self._process

    def _mobility_tick(self) -> None:
        self.step(self._sim.now)
