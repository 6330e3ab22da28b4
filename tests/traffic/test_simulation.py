"""Tests for the traffic microsimulation loop."""

import random

import pytest

from repro.sim.engine import Simulator
from repro.traffic.hazard import HazardEvent
from repro.traffic.idm import IdmParameters
from repro.traffic.road import Direction, RoadSegment
from repro.traffic.simulation import TrafficSimulation
from repro.traffic.spawner import EntranceSpawner
from repro.traffic.vehicle import Vehicle


def make_sim(road=None, spawner=None, rng=None, **kwargs):
    return TrafficSimulation(
        road or RoadSegment(length=1000.0, lanes_per_direction=1),
        IdmParameters(),
        spawner=spawner,
        rng=rng,
        **kwargs,
    )


def step_for(traffic, seconds):
    steps = int(seconds / traffic.dt)
    t = 0.0
    for _ in range(steps):
        t += traffic.dt
        traffic.step(t)


def test_single_vehicle_cruises_at_desired_speed():
    traffic = make_sim()
    lane = traffic.road.lanes[0]
    vehicle = Vehicle(lane=lane, x=0.0, speed=30.0)
    traffic.add_vehicle(vehicle)
    step_for(traffic, 10.0)
    assert vehicle.speed == pytest.approx(30.0, abs=0.1)
    assert vehicle.x == pytest.approx(300.0, rel=0.02)


def test_slow_vehicle_accelerates_toward_desired_speed():
    traffic = make_sim(road=RoadSegment(length=10000.0, lanes_per_direction=1))
    lane = traffic.road.lanes[0]
    vehicle = Vehicle(lane=lane, x=0.0, speed=10.0)
    traffic.add_vehicle(vehicle)
    step_for(traffic, 60.0)
    assert vehicle.speed == pytest.approx(30.0, abs=0.5)


def test_follower_keeps_safe_gap_behind_slow_leader():
    traffic = make_sim(road=RoadSegment(length=100000.0, lanes_per_direction=1))
    lane = traffic.road.lanes[0]
    leader = Vehicle(lane=lane, x=100.0, speed=15.0, speed_factor=0.5)
    follower = Vehicle(lane=lane, x=0.0, speed=30.0)
    traffic.add_vehicle(leader)
    traffic.add_vehicle(follower)
    step_for(traffic, 60.0)
    assert follower.speed == pytest.approx(leader.speed, abs=1.0)
    gap = follower.gap_to(leader)
    assert gap > 2.0  # never closer than the minimum distance
    assert traffic.rear_end_contacts == 0


def test_vehicle_exits_at_end_of_road():
    traffic = make_sim()
    lane = traffic.road.lanes[0]
    vehicle = Vehicle(lane=lane, x=995.0, speed=30.0)
    exited = []
    traffic.on_exit.append(exited.append)
    traffic.add_vehicle(vehicle)
    step_for(traffic, 2.0)
    assert exited == [vehicle]
    assert not vehicle.active
    assert traffic.count_on_road() == 0


def test_westbound_vehicle_moves_toward_zero():
    traffic = make_sim(road=RoadSegment(length=1000.0, lanes_per_direction=1, directions=2))
    lane = traffic.road.westbound_lanes[0]
    vehicle = Vehicle(lane=lane, x=900.0, speed=30.0)
    traffic.add_vehicle(vehicle)
    step_for(traffic, 5.0)
    assert vehicle.x == pytest.approx(750.0, rel=0.02)


def test_westbound_vehicle_exits_at_west_end():
    traffic = make_sim(road=RoadSegment(length=1000.0, lanes_per_direction=1, directions=2))
    lane = traffic.road.westbound_lanes[0]
    vehicle = Vehicle(lane=lane, x=10.0, speed=30.0)
    traffic.add_vehicle(vehicle)
    step_for(traffic, 2.0)
    assert traffic.count_on_road(Direction.WEST) == 0


def test_populate_density():
    traffic = make_sim(road=RoadSegment(length=990.0, lanes_per_direction=2))
    created = traffic.populate(spacing=30.0)
    assert created == 2 * (int(990 // 30) + 1)
    assert traffic.count_on_road() == created


def test_populate_with_rng_jitters_positions():
    rng = random.Random(1)
    traffic = make_sim(
        road=RoadSegment(length=900.0, lanes_per_direction=2), rng=rng
    )
    traffic.populate(spacing=30.0)
    lane0 = traffic.lane_vehicles(traffic.road.lanes[0])
    lane1 = traffic.lane_vehicles(traffic.road.lanes[1])
    xs0 = {round(v.x, 3) for v in lane0}
    xs1 = {round(v.x, 3) for v in lane1}
    # Staggering + jitter: the two lanes must not be position-aligned.
    assert len(xs0 & xs1) < min(len(xs0), len(xs1)) / 4


def test_populate_draws_speed_factors():
    rng = random.Random(2)
    traffic = make_sim(rng=rng)
    traffic.populate(spacing=100.0)
    factors = {v.speed_factor for v in traffic.vehicles()}
    assert len(factors) > 1
    assert all(0.9 < f < 1.1 for f in factors)


def test_spawner_admits_vehicles_with_gap():
    spawner = EntranceSpawner(spawn_gap=30.0, entry_speed=30.0)
    traffic = make_sim(spawner=spawner)
    step_for(traffic, 10.0)
    assert spawner.spawned_count >= 8
    # all spawned in the single eastbound lane, ordered by progress
    vehicles = traffic.lane_vehicles(traffic.road.lanes[0])
    progresses = [v.progress for v in vehicles]
    assert progresses == sorted(progresses)


def test_spawner_blocked_direction_admits_nothing():
    spawner = EntranceSpawner(spawn_gap=30.0)
    spawner.block(Direction.EAST)
    traffic = make_sim(spawner=spawner)
    step_for(traffic, 5.0)
    assert spawner.spawned_count == 0


def test_on_spawn_callback_fires_for_populate_and_spawner():
    spawner = EntranceSpawner(spawn_gap=30.0)
    traffic = make_sim(spawner=spawner)
    seen = []
    traffic.on_spawn.append(seen.append)
    traffic.populate(spacing=500.0)
    n_populated = len(seen)
    assert n_populated == traffic.count_on_road()
    step_for(traffic, 3.0)
    assert len(seen) > n_populated


def test_hazard_stops_traffic_behind_it():
    traffic = make_sim(road=RoadSegment(length=2000.0, lanes_per_direction=1))
    traffic.add_hazard(HazardEvent(x=500.0, direction=Direction.EAST, start_time=0.0))
    lane = traffic.road.lanes[0]
    vehicle = Vehicle(lane=lane, x=300.0, speed=30.0)
    traffic.add_vehicle(vehicle)
    step_for(traffic, 30.0)
    assert vehicle.speed == pytest.approx(0.0, abs=0.1)
    assert vehicle.x < 500.0


def test_hazard_does_not_stop_vehicles_past_it():
    traffic = make_sim(road=RoadSegment(length=2000.0, lanes_per_direction=1))
    traffic.add_hazard(HazardEvent(x=500.0, direction=Direction.EAST, start_time=0.0))
    lane = traffic.road.lanes[0]
    vehicle = Vehicle(lane=lane, x=600.0, speed=30.0)
    traffic.add_vehicle(vehicle)
    step_for(traffic, 5.0)
    assert vehicle.speed == pytest.approx(30.0, abs=0.5)


def test_hazard_does_not_affect_other_direction():
    traffic = make_sim(
        road=RoadSegment(length=2000.0, lanes_per_direction=1, directions=2)
    )
    traffic.add_hazard(HazardEvent(x=500.0, direction=Direction.EAST, start_time=0.0))
    lane = traffic.road.westbound_lanes[0]
    vehicle = Vehicle(lane=lane, x=1500.0, speed=30.0)
    traffic.add_vehicle(vehicle)
    step_for(traffic, 10.0)
    assert vehicle.speed == pytest.approx(30.0, abs=0.5)


def test_hazard_inactive_before_start_time():
    traffic = make_sim(road=RoadSegment(length=2000.0, lanes_per_direction=1))
    traffic.add_hazard(
        HazardEvent(x=500.0, direction=Direction.EAST, start_time=1000.0)
    )
    lane = traffic.road.lanes[0]
    vehicle = Vehicle(lane=lane, x=400.0, speed=30.0)
    traffic.add_vehicle(vehicle)
    step_for(traffic, 3.0)
    assert vehicle.speed == pytest.approx(30.0, abs=0.5)


def test_queue_forms_behind_hazard():
    spawner = EntranceSpawner(spawn_gap=30.0)
    traffic = make_sim(
        road=RoadSegment(length=2000.0, lanes_per_direction=1), spawner=spawner
    )
    traffic.add_hazard(HazardEvent(x=600.0, direction=Direction.EAST, start_time=0.0))
    step_for(traffic, 120.0)
    stopped = [v for v in traffic.vehicles() if v.speed < 0.5]
    assert len(stopped) >= 5
    xs = sorted(v.x for v in stopped)
    # queued bumper to bumper short of the hazard
    assert xs[-1] < 600.0
    assert xs[-1] - xs[0] < len(stopped) * 10.0


def test_forced_acceleration_overrides_idm():
    traffic = make_sim(road=RoadSegment(length=10000.0, lanes_per_direction=1))
    lane = traffic.road.lanes[0]
    vehicle = Vehicle(lane=lane, x=0.0, speed=10.0, forced_acceleration=0.0)
    traffic.add_vehicle(vehicle)
    step_for(traffic, 10.0)
    assert vehicle.speed == pytest.approx(10.0)


def test_speed_never_negative_under_forced_braking():
    traffic = make_sim()
    lane = traffic.road.lanes[0]
    vehicle = Vehicle(lane=lane, x=0.0, speed=5.0, forced_acceleration=-8.0)
    traffic.add_vehicle(vehicle)
    step_for(traffic, 5.0)
    assert vehicle.speed == 0.0


def test_on_step_callbacks_fire_each_step():
    traffic = make_sim()
    ticks = []
    traffic.on_step.append(ticks.append)
    step_for(traffic, 1.0)
    assert len(ticks) == 10


def test_start_schedules_periodic_stepping():
    sim = Simulator()
    traffic = make_sim()
    lane = traffic.road.lanes[0]
    vehicle = Vehicle(lane=lane, x=0.0, speed=30.0)
    traffic.add_vehicle(vehicle)
    traffic.start(sim)
    sim.run_until(5.0)
    assert vehicle.x == pytest.approx(150.0, rel=0.05)


def test_start_twice_raises():
    sim = Simulator()
    traffic = make_sim()
    traffic.start(sim)
    with pytest.raises(RuntimeError):
        traffic.start(sim)


def test_invalid_dt_rejected():
    with pytest.raises(ValueError):
        make_sim(dt=0.0)


def test_invalid_speed_factor_spread_rejected():
    with pytest.raises(ValueError):
        make_sim(speed_factor_spread=1.5)


def test_runout_keeps_vehicles_past_the_segment():
    traffic = make_sim()
    traffic.runout = 200.0
    lane = traffic.road.lanes[0]
    vehicle = Vehicle(lane=lane, x=995.0, speed=30.0)
    traffic.add_vehicle(vehicle)
    step_for(traffic, 3.0)
    # Past the segment but inside the runout: still active, not counted.
    assert vehicle.active
    assert traffic.count_on_road() == 0
    assert list(traffic.vehicles(on_road_only=True)) == []
    assert list(traffic.vehicles()) == [vehicle]
    step_for(traffic, 7.0)
    assert not vehicle.active


def test_negative_runout_rejected():
    with pytest.raises(ValueError):
        TrafficSimulation(
            RoadSegment(length=100.0, lanes_per_direction=1), runout=-1.0
        )


def _cascade_lanes():
    """Both directions: a hard-braking leader, three followers forced to
    accelerate 5 m behind each other and one IDM car at the back."""
    traffic = make_sim(
        road=RoadSegment(length=1000.0, lanes_per_direction=1, directions=2)
    )
    vehicles = []
    for lane in traffic.road.lanes:
        for k in range(5):
            progress = 500.0 - 5.0 * k
            x = progress if lane.direction is Direction.EAST else 1000.0 - progress
            vehicle = Vehicle(
                lane=lane,
                x=x,
                speed=20.0 + k,
                speed_factor=1.0 + 0.01 * k,
                forced_acceleration=-9.0 if k == 0 else (2.0 if k < 4 else None),
            )
            traffic.add_vehicle(vehicle)
            vehicles.append(vehicle)
    return traffic, vehicles


def test_rear_end_cascade_takes_the_sequential_clamp(monkeypatch):
    """Each follower is clamped behind a leader that was clamped itself, so
    only the front-to-back loop gets the limits right.  The expected state
    was captured from the lane step before it was vectorised (which ran
    that loop on every step) and must not move by a bit."""
    clamps = []
    real_clamp = TrafficSimulation._clamp_overlaps

    def counting_clamp(self, *args):
        clamps.append(self.rear_end_contacts)
        real_clamp(self, *args)

    monkeypatch.setattr(TrafficSimulation, "_clamp_overlaps", counting_clamp)
    traffic, vehicles = _cascade_lanes()
    step_for(traffic, 2.0)
    assert clamps  # the overlap check sent the lanes to the sequential loop
    assert traffic.rear_end_contacts == 110
    assert [(v.speed, v.x) for v in vehicles] == [
        (2.0000000000000013, 521.1),
        (2.0000000000000013, 516.5),
        (2.0000000000000013, 511.9),
        (2.0000000000000013, 507.29999999999995),
        (1.7921590493486885, 481.730974370239),
        (2.0000000000000013, 478.9),
        (2.0000000000000013, 483.5),
        (2.0000000000000013, 488.1),
        (2.0000000000000013, 492.70000000000005),
        (1.7921590493486852, 518.2690256297608),
    ]


def test_lane_without_overlap_skips_the_sequential_clamp(monkeypatch):
    def fail(*_args):
        raise AssertionError("clamp loop ran without an overlap")

    monkeypatch.setattr(TrafficSimulation, "_clamp_overlaps", fail)
    traffic = make_sim(road=RoadSegment(length=5000.0, directions=2))
    traffic.populate(spacing=30.0)
    step_for(traffic, 2.0)
    assert traffic.rear_end_contacts == 0
