"""Struct-of-arrays fleet state and the batched beacon hot loop.

The per-object simulation keeps one :class:`~repro.geonet.beaconing.
BeaconService` timer, one heap event per beacon, and ~30 scheduled
deliveries per transmission — fine at hundreds of nodes, a hard wall at
tens of thousands.  This module holds the whole fleet's kinematic and
beaconing state in numpy arrays indexed by a stable *slot* and replaces
the two dominant per-node loops with per-tick batch passes:

* :class:`FleetState` — positions, velocities, headings, TX ranges,
  next-beacon deadlines and alive flags as parallel arrays.  The mobility
  stepper writes new kinematics with one fancy-indexed store per lane, and
  the channel's spatial grid is refreshed with one
  :meth:`~repro.radio.spatial.SpatialGrid.move_many` call per step.
* :class:`FleetBeaconScheduler` — a single periodic tick selects the
  beacons due in ``[t, t+dt)`` with one vectorised mask, draws all jitters
  in one RNG call, sweeps neighbor pairs for the whole batch with a
  vectorised cell-grid probe, and delivers per-receiver beacon batches
  through one scheduled event — so the event heap sees O(ticks) events
  instead of O(N·ticks).

RNG contract: the batched path draws exclusively from a dedicated numpy
stream (``fleet-beacon`` in :class:`~repro.experiments.world.World`),
never from the per-node stdlib streams the legacy path uses — which is
what keeps the legacy path (``fleet_use_batched=False``) bit-identical to
the pre-refactor goldens while the batched path remains deterministic
under its own seed.

Protocol fidelity: honest beacons are still signed once per transmission
and carried as ``(addr, pv)`` entries to fleet receivers (verification is
hoisted to signing time — the one memoised :func:`~repro.security.
signing.verify` call the per-object path would make on first reception).
Interfaces *outside* the fleet — the attacker's mast, static destination
nodes — receive real :class:`~repro.radio.frames.Frame` objects through
their normal handlers, so sniffing, replay and promiscuous overhearing
work unchanged.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.geo.position import Position, PositionVector
from repro.radio.frames import Frame, FrameKind
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess

_CY_MASK = 0xFFFFFFFF


class FleetState:
    """Struct-of-arrays state for the batched vehicle fleet.

    Slots are stable for a member's lifetime: :meth:`add` hands out the
    lowest free slot, :meth:`remove` recycles it.  Arrays are over-
    allocated and doubled on demand, so hot-loop consumers index
    ``fleet.x[slots]`` without per-member indirection.
    """

    def __init__(self, channel=None, capacity: int = 256):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._channel = channel
        self.capacity = capacity
        self.x = np.zeros(capacity)
        self.y = np.zeros(capacity)
        self.speed = np.zeros(capacity)
        self.heading = np.zeros(capacity)
        self.tx_range = np.zeros(capacity)
        #: Absolute time of the member's next beacon; NaN means "not yet
        #: seeded" — the scheduler initialises all fresh slots in one
        #: vectorised draw on its next tick, so spawning N vehicles costs
        #: one RNG call, not N.
        self.next_beacon_at = np.full(capacity, np.nan)
        self.alive = np.zeros(capacity, dtype=bool)
        #: Per-slot beacons generated by the batched tick (diagnostics).
        self.beacons_sent = np.zeros(capacity, dtype=np.int64)
        #: Slot -> member object (e.g. GeoNode); None for free slots.
        self.members: List[object] = [None] * capacity
        #: Slot -> radio interface (kept separately: the hot loops need the
        #: interface without touching the member).
        self.ifaces: List[object] = [None] * capacity
        self._free: List[int] = list(range(capacity - 1, -1, -1))
        self._n_live = 0
        #: Bumped on every add/remove; caches keyed on it.
        self._version = 0
        self._live_cache: Optional[Tuple[int, np.ndarray, list]] = None

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n_live

    def _grow(self) -> None:
        old = self.capacity
        new = old * 2
        for name in ("x", "y", "speed", "heading", "tx_range"):
            arr = np.zeros(new)
            arr[:old] = getattr(self, name)
            setattr(self, name, arr)
        nba = np.full(new, np.nan)
        nba[:old] = self.next_beacon_at
        self.next_beacon_at = nba
        alive = np.zeros(new, dtype=bool)
        alive[:old] = self.alive
        self.alive = alive
        sent = np.zeros(new, dtype=np.int64)
        sent[:old] = self.beacons_sent
        self.beacons_sent = sent
        self.members.extend([None] * (new - old))
        self.ifaces.extend([None] * (new - old))
        self._free.extend(range(new - 1, old - 1, -1))
        self.capacity = new

    def add(
        self,
        member,
        iface,
        *,
        x: float,
        y: float,
        speed: float = 0.0,
        heading: float = 0.0,
        tx_range: float,
    ) -> int:
        """Claim a slot for ``member`` and return it.

        The slot's beacon deadline starts as NaN — seeded lazily by the
        scheduler — and the member's interface is marked fleet on the
        channel so the per-frame delivery path skips it.
        """
        if not self._free:
            self._grow()
        slot = self._free.pop()
        self.x[slot] = x
        self.y[slot] = y
        self.speed[slot] = speed
        self.heading[slot] = heading
        self.tx_range[slot] = tx_range
        self.next_beacon_at[slot] = np.nan
        self.alive[slot] = True
        self.beacons_sent[slot] = 0
        self.members[slot] = member
        self.ifaces[slot] = iface
        self._n_live += 1
        self._version += 1
        if self._channel is not None and iface is not None:
            self._channel.mark_fleet(iface)
        return slot

    def remove(self, slot: int) -> None:
        """Release ``slot`` (member left the simulation for good)."""
        if not self.alive[slot]:
            raise ValueError(f"slot {slot} is not live")
        iface = self.ifaces[slot]
        if self._channel is not None and iface is not None:
            self._channel.unmark_fleet(iface)
        self.alive[slot] = False
        self.next_beacon_at[slot] = np.nan
        self.members[slot] = None
        self.ifaces[slot] = None
        self._free.append(slot)
        self._n_live -= 1
        self._version += 1

    def live_slots(self) -> np.ndarray:
        """Slots currently claimed, ascending (cached until membership
        changes)."""
        cache = self._live_cache
        if cache is None or cache[0] != self._version:
            live = np.flatnonzero(self.alive)
            items = [self.ifaces[s]._grid_item for s in live.tolist()]
            cache = self._live_cache = (self._version, live, items)
        return cache[1]

    # ------------------------------------------------------------------
    # channel integration
    # ------------------------------------------------------------------
    def push_positions_to_channel(self) -> None:
        """Refresh the channel grid from the arrays (one bulk call).

        The batched replacement for ``channel.invalidate_positions()``:
        called by the mobility loop after each step.
        """
        if self._channel is None:
            return
        live = self.live_slots()
        if live.size == 0:
            return
        items = self._live_cache[2]
        self._channel.update_fleet_positions(items, self.x[live], self.y[live])

    # ------------------------------------------------------------------
    # neighbor sweep
    # ------------------------------------------------------------------
    def neighbor_pairs(
        self, senders: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Fleet receivers in range of each sender, for a whole batch.

        ``senders`` holds slot ids.  Returns ``(sender_idx, receiver_slot,
        candidates)``: for every in-range (sender, fleet receiver) pair one
        entry with the *index into senders* and the receiver's slot; self
        pairs are excluded.  ``candidates`` counts cell-level candidates
        examined (the receiver_candidates statistic).

        One vectorised pass: live members are bucketed by packed cell key
        (cell size >= the largest live TX range, so each sender probes at
        most its 3x3 cell neighborhood), the sorted key array is probed
        with ``searchsorted`` for all senders at once, and the ragged
        candidate ranges are gathered with one ``repeat``/``arange``
        composition — no per-sender Python work at all.
        """
        live = self.live_slots()
        n_senders = len(senders)
        empty = np.empty(0, dtype=np.intp)
        if live.size == 0 or n_senders == 0:
            return empty, empty, 0
        xs = self.x[live]
        ys = self.y[live]
        cell = float(self.tx_range[live].max())
        if cell <= 0.0:
            return empty, empty, 0
        inv = 1.0 / cell
        keys = (np.floor(xs * inv).astype(np.int64) << 32) ^ (
            np.floor(ys * inv).astype(np.int64) & _CY_MASK
        )
        order = np.argsort(keys, kind="stable")
        keys_sorted = keys[order]
        live_sorted = live[order]
        xs_sorted = xs[order]
        ys_sorted = ys[order]

        sx = self.x[senders]
        sy = self.y[senders]
        sr = self.tx_range[senders]
        scx = np.floor(sx * inv).astype(np.int64)
        scy = np.floor(sy * inv).astype(np.int64)
        sender_ids = np.arange(n_senders, dtype=np.intp)

        cand_idx_parts = []
        cand_sender_parts = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                probe = ((scx + dx) << 32) ^ ((scy + dy) & _CY_MASK)
                starts = np.searchsorted(keys_sorted, probe, side="left")
                ends = np.searchsorted(keys_sorted, probe, side="right")
                lens = ends - starts
                total = int(lens.sum())
                if total == 0:
                    continue
                shifts = np.concatenate(
                    ([0], np.cumsum(lens)[:-1])
                ).astype(np.intp)
                idx = np.repeat(starts - shifts, lens) + np.arange(
                    total, dtype=np.intp
                )
                cand_idx_parts.append(idx)
                cand_sender_parts.append(np.repeat(sender_ids, lens))
        if not cand_idx_parts:
            return empty, empty, 0
        cand = np.concatenate(cand_idx_parts)
        cand_sender = np.concatenate(cand_sender_parts)
        n_candidates = int(cand.size)

        ddx = xs_sorted[cand] - sx[cand_sender]
        ddy = ys_sorted[cand] - sy[cand_sender]
        r = sr[cand_sender]
        in_range = (ddx * ddx + ddy * ddy) <= r * r
        recv_slots = live_sorted[cand]
        in_range &= recv_slots != senders[cand_sender]
        return cand_sender[in_range], recv_slots[in_range], n_candidates


class FleetBeaconScheduler:
    """The batched replacement for N per-node ``BeaconService`` timers.

    One periodic tick (default: the mobility dt) advances all beacon
    deadlines that fell due, signs/builds each due member's beacon once,
    sweeps fleet receivers vectorised, groups entries per receiver, and
    schedules **one** delivery event for the whole tick.  Non-fleet
    interfaces get real frames via :meth:`Simulator.schedule_many`.

    Hooks (all optional, all per-member Python callbacks that only run for
    *due* members, ~N·dt/period per tick):

    * ``make_beacon(member, pv, now) -> (payload, entry) | None`` —
      build the signed payload for non-fleet receivers and the ``(addr,
      pv)`` entry for fleet receivers; None suppresses the beacon.
    * ``bulk_sink(member, entries, now) -> int | None`` — deliver a batch
      of entries to a fleet member; returns how many were accepted
      (defaults to all) for the delivered-frames statistic.
    * ``member_active(member) -> bool`` — False skips the cycle (node
      powered down; the deadline still advances, like the stopped legacy
      timer that never fires).
    * ``extra_delay(member) -> float`` — extra seconds added to the next
      deadline (the fault layer's congested-DCC beacon jitter).
    """

    def __init__(
        self,
        sim: Simulator,
        fleet: FleetState,
        channel,
        rng: np.random.Generator,
        *,
        period: float = 3.0,
        jitter: float = 0.75,
        tick: float = 0.1,
        make_beacon: Callable,
        bulk_sink: Callable,
        member_active: Optional[Callable] = None,
        extra_delay: Optional[Callable] = None,
        priority: int = 0,
    ):
        if period <= 0:
            raise ConfigError(f"beacon period must be positive, got {period!r}")
        if jitter < 0:
            raise ConfigError(
                f"beacon jitter must be non-negative, got {jitter!r}"
            )
        if tick <= 0:
            raise ConfigError(f"beacon tick must be positive, got {tick!r}")
        self._sim = sim
        self._fleet = fleet
        self._channel = channel
        self._rng = rng
        self._period = float(period)
        self._jitter = float(jitter)
        self._tick_dt = float(tick)
        self._make_beacon = make_beacon
        self._bulk_sink = bulk_sink
        self._member_active = member_active
        self._extra_delay = extra_delay
        #: Total beacons generated by the batched tick.
        self.beacons_sent = 0
        # Per-tick caches for lazy per-sender Frame construction.
        self._due_cache = np.empty(0, dtype=np.intp)
        self._due_x = self._due_y = self._due_r = np.empty(0)
        self._process = PeriodicProcess(
            sim, tick, self._on_tick, start_delay=tick, priority=priority
        )

    def stop(self) -> None:
        self._process.stop()

    # ------------------------------------------------------------------
    # the tick
    # ------------------------------------------------------------------
    def _on_tick(self) -> None:
        fleet = self._fleet
        now = self._sim.now
        live = fleet.live_slots()
        if live.size == 0:
            return
        nba = fleet.next_beacon_at
        live_nba = nba[live]
        fresh = np.isnan(live_nba)
        if fresh.any():
            # Seed every newly-added member's first deadline in one draw:
            # uniform within one period, like the legacy service's
            # staggered start.
            idx = live[fresh]
            nba[idx] = now + self._rng.uniform(0.0, self._period, idx.size)
            live_nba = nba[live]
        due = live[live_nba <= now]
        if due.size == 0:
            return
        # Advance deadlines first (one batch draw), anchored on the old
        # deadline so cadence never drifts with the tick grid.  A deadline
        # stale by more than one tick (a node rejoining after an outage)
        # restarts from now instead of burst-beaconing to catch up.
        old = nba[due]
        anchor = np.where(now - old <= self._tick_dt, old, now)
        if self._jitter > 0.0:
            nba[due] = anchor + self._period + self._rng.uniform(
                0.0, self._jitter, due.size
            )
        else:
            nba[due] = anchor + self._period

        # Per-due-member Python work: activity filter + payload build.
        members = fleet.members
        is_active = self._member_active
        extra = self._extra_delay
        make = self._make_beacon
        due_list = due.tolist()
        bx = fleet.x[due].tolist()
        by = fleet.y[due].tolist()
        bs = fleet.speed[due].tolist()
        bh = fleet.heading[due].tolist()
        keep: List[int] = []
        payloads: List[object] = []
        entries: List[tuple] = []
        for i, slot in enumerate(due_list):
            member = members[slot]
            if is_active is not None and not is_active(member):
                continue
            if extra is not None:
                nba[slot] += extra(member)
            pv = PositionVector(
                position=Position(bx[i], by[i]),
                speed=bs[i],
                heading=bh[i],
                timestamp=now,
            )
            out = make(member, pv, now)
            if out is None:
                continue
            payload, entry = out
            keep.append(i)
            payloads.append(payload)
            entries.append(entry)
        if not payloads:
            return
        n_sent = len(payloads)
        self.beacons_sent += n_sent
        if len(keep) < due.size:
            due = due[np.array(keep, dtype=np.intp)]
        fleet.beacons_sent[due] += 1

        channel = self._channel
        stats = channel.stats
        stats.record_sent_batch(FrameKind.BEACON, n_sent)
        tx_x = fleet.x[due]
        tx_y = fleet.y[due]
        tx_r = fleet.tx_range[due]
        # Cached for lazy frame construction (slow pair filter + non-fleet
        # delivery share the per-sender Frame).
        self._due_cache = due
        self._due_x, self._due_y, self._due_r = tx_x, tx_y, tx_r
        channel.note_tx_batch(now + channel.base_latency, tx_x, tx_y, tx_r)

        # --- fleet receivers: vectorised sweep + per-receiver grouping ---
        sidx, rslots, candidates = fleet.neighbor_pairs(due)
        stats.receiver_candidates += candidates
        if channel.has_obstructions and sidx.size:
            # Obstructions are position predicates, so they stay vectorised
            # (block_mask).  Like the legacy path, which filters blocked
            # receivers out at candidate stage, they run before the fading
            # draw and the link faults: a blocked pair is neither faded nor
            # faulted.
            blocked = channel.block_mask(
                tx_x[sidx], tx_y[sidx], fleet.x[rslots], fleet.y[rslots]
            )
            if blocked.any():
                keep_mask = ~blocked
                sidx = sidx[keep_mask]
                rslots = rslots[keep_mask]
        loss_rate = channel.loss_rate
        if loss_rate > 0.0 and sidx.size:
            kept = self._rng.random(sidx.size) >= loss_rate
            stats.frames_faded += int(sidx.size - kept.sum())
            sidx = sidx[kept]
            rslots = rslots[kept]
        frames: List[Optional[Frame]] = [None] * n_sent
        if channel.link_fault is not None and sidx.size:
            sidx, rslots = self._slow_pair_filter(sidx, rslots, payloads, frames)
        if sidx.size:
            latency = channel.base_latency + channel.latency_jitter * float(
                self._rng.random()
            )
            groups = self._group_by_receiver(sidx, rslots)
            self._sim.schedule_fire(latency, self._deliver_groups, *groups, entries)

        # --- non-fleet receivers: real frames through normal delivery ---
        self._deliver_nonfleet(
            due, tx_x, tx_y, tx_r, payloads, frames, now
        )

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _frame_for(
        self, i: int, payloads: list, frames: list, xs, ys, rs, now: float
    ) -> Frame:
        frame = frames[i]
        if frame is None:
            iface = self._fleet.ifaces[int(self._due_cache[i])]
            frame = frames[i] = Frame(
                kind=FrameKind.BEACON,
                sender_addr=iface.address,
                payload=payloads[i],
                tx_position=Position(float(xs[i]), float(ys[i])),
                tx_range=float(rs[i]),
                tx_time=now,
            )
        return frame

    def _slow_pair_filter(self, sidx, rslots, payloads, frames):
        """Per-pair fallback when a link fault hook is installed.

        The hook takes ``(sender_iface, receiver_iface, frame)``, so the
        vectorised path cannot evaluate it; fault campaigns trade speed for
        fidelity here (the hook is per-pair on the legacy path too).
        Obstructions no longer come through here — they are position
        predicates and run vectorised via :meth:`BroadcastChannel.block_mask`
        before this filter.
        """
        fleet = self._fleet
        channel = self._channel
        link_fault = channel.link_fault
        ifaces = fleet.ifaces
        keep = np.ones(sidx.size, dtype=bool)
        for k in range(sidx.size):
            i = int(sidx[k])
            sender_iface = ifaces[int(self._due_cache[i])]
            recv_iface = ifaces[int(rslots[k])]
            frame = self._frame_for(
                i,
                payloads,
                frames,
                self._due_x,
                self._due_y,
                self._due_r,
                self._sim.now,
            )
            if link_fault(sender_iface, recv_iface, frame):
                channel.stats.frames_fault_dropped += 1
                keep[k] = False
        return sidx[keep], rslots[keep]

    def _group_by_receiver(self, sidx, rslots):
        """Flat ``(receivers, bounds, senders)``: receiver ``g`` (its member
        captured at tick time) hears the entries of
        ``senders[bounds[g]:bounds[g + 1]]``.  Batches are built only at
        delivery, so no per-receiver list outlives the latency gap."""
        order = np.argsort(rslots, kind="stable")
        rs = rslots[order]
        cuts = np.flatnonzero(rs[1:] != rs[:-1]) + 1
        members = self._fleet.members
        receivers = [members[s] for s in rs[np.concatenate(([0], cuts))].tolist()]
        bounds = [0, *cuts.tolist(), int(rs.size)]
        return receivers, bounds, sidx[order].tolist()

    def _deliver_groups(self, receivers, bounds, senders, entries) -> None:
        """The single delivery event for one tick's fleet beacons."""
        sink = self._bulk_sink
        now = self._sim.now
        ordered = [entries[i] for i in senders]
        delivered = 0
        for member, a, b in zip(receivers, bounds, bounds[1:]):
            batch = ordered[a:b]
            accepted = sink(member, batch, now)
            delivered += len(batch) if accepted is None else int(accepted)
        self._channel.stats.record_delivered(FrameKind.BEACON, delivered)

    def _deliver_nonfleet(
        self, due, tx_x, tx_y, tx_r, payloads, frames, now
    ) -> None:
        """Real-frame deliveries to interfaces outside the fleet.

        The attacker's promiscuous mast and the static destination nodes
        live here: they receive genuine frames with true transmit metadata,
        so sniffing and replay behave exactly as on the per-object path.
        Distances are checked vectorised over the (senders x non-fleet)
        matrix — non-fleet populations are tiny (a destination pair and at
        most one mast).
        """
        channel = self._channel
        nonfleet = channel.nonfleet_interfaces()
        if not nonfleet:
            return
        px = np.array([iface.get_position().x for iface in nonfleet])
        py = np.array([iface.get_position().y for iface in nonfleet])
        override = np.array(
            [
                -1.0 if iface.link_range is None else iface.link_range
                for iface in nonfleet
            ]
        )
        dx = px[None, :] - tx_x[:, None]
        dy = py[None, :] - tx_y[:, None]
        reach = np.where(override[None, :] > 0.0, override[None, :], tx_r[:, None])
        hits = (dx * dx + dy * dy) <= reach * reach
        if not hits.any():
            return
        hit_s, hit_r = np.nonzero(hits)
        if channel.has_obstructions:
            # Blocked links drop out before the fading draw and the link
            # faults, as on the legacy path.
            clear = ~channel.block_mask(
                tx_x[hit_s], tx_y[hit_s], px[hit_r], py[hit_r]
            )
            hit_s, hit_r = hit_s[clear], hit_r[clear]
        stats = channel.stats
        loss_rate = channel.loss_rate
        link_fault = channel.link_fault
        rng = self._rng
        base = channel.base_latency
        jitter = channel.latency_jitter
        deliveries = []
        for i, j in zip(hit_s.tolist(), hit_r.tolist()):
            iface = nonfleet[j]
            frame = self._frame_for(i, payloads, frames, tx_x, tx_y, tx_r, now)
            if loss_rate > 0.0 and rng.random() < loss_rate:
                stats.frames_faded += 1
                continue
            if link_fault is not None and link_fault(
                self._fleet.ifaces[int(due[i])], iface, frame
            ):
                stats.frames_fault_dropped += 1
                continue
            deliveries.append(
                (base + jitter * float(rng.random()), iface.deliver, frame)
            )
        if deliveries:
            self._sim.schedule_many(deliveries)
            stats.record_delivered(FrameKind.BEACON, len(deliveries))
