"""The GeoNetworking location table (LocT).

Every node stores the position vectors of the neighbors it has heard
beacons from, as ``LocTE (addr, PV, TTL)`` per the paper.  Entries expire
``ttl`` seconds after their last refresh (default 20 s).

The table trusts whatever authenticated beacon it is given: EN 302 636-4-1
performs no distance-plausibility check on reception, which is the second
GF vulnerability the paper identifies.

Storage contract: a table is three columns keyed by address, never one
object per entry — ``addr -> PositionVector`` (a beacon's PV object is
shared by every table that heard it), ``addr -> updated_at`` (floats only,
so the garbage collector does not track it) and the set of addresses whose
IS_NEIGHBOUR flag is false.  Expiry is derived, ``expires_at = updated_at +
ttl``.  Both dicts keep the same keys in insertion order, the order every
query iterates (and so GF's tie-break order).  :class:`LocationTableEntry`
values are read-only snapshots; writes go only through the table API.
"""

from __future__ import annotations

from typing import Dict, Iterator, NamedTuple, Optional, Set

from repro.geo.position import Position, PositionVector


class LocationTableEntry(NamedTuple):
    """A read-only snapshot of one LocTE: address, PV, neighbor flag, expiry.

    ``is_neighbor`` mirrors the standard's IS_NEIGHBOUR flag: True when the
    PV came from a one-hop beacon (so GF may pick the node as a next hop),
    False when it was learned indirectly (Location Service, multi-hop
    packets).  The inter-area attack works precisely because a *replayed*
    beacon is still a beacon — the victim "labels V3 as a neighbor".
    """

    addr: int
    pv: PositionVector
    updated_at: float
    expires_at: float
    is_neighbor: bool = True

    def is_live(self, now: float) -> bool:
        """Whether the entry is still within its TTL."""
        return now <= self.expires_at

    @property
    def position(self) -> Position:
        """The advertised position (as beaconed — never extrapolated)."""
        return self.pv.position


class LocationTable:
    """addr -> LocTE with TTL expiry, stored as columns (module docstring).

    Expired entries are already invisible to every liveness-aware query
    (:meth:`get`, :meth:`live_entries`), but they used to stay in the table
    forever — on long runs a node's table grew with every vehicle that ever
    drove past it.  :meth:`update` therefore opportunistically purges dead
    entries once per ``purge_interval`` (default: one TTL), piggybacking on
    the beacon path so the table stays bounded by the *recent* neighbor
    population without a dedicated timer.
    """

    def __init__(self, ttl: float, *, purge_interval: Optional[float] = None):
        if ttl <= 0:
            raise ValueError("ttl must be positive")
        self.ttl = ttl
        #: Seconds between opportunistic purges; dead entries survive at
        #: most ``ttl + purge_interval`` after their last refresh.
        self.purge_interval = ttl if purge_interval is None else purge_interval
        self._pvs: Dict[int, PositionVector] = {}
        self._stamps: Dict[int, float] = {}
        self._indirect: Set[int] = set()
        self._next_purge_at = self.purge_interval
        #: Churn counters (monotonic; never reset by :meth:`clear`).  An
        #: inter-area attacker inflates ``inserts`` — every replayed beacon
        #: teaches victims far "neighbors" they would never hear directly —
        #: so the online detection pipeline streams these as features.
        self.inserts = 0
        self.refreshes = 0
        self.purged = 0

    def update(
        self,
        addr: int,
        pv: PositionVector,
        now: float,
        *,
        neighbor: bool = True,
    ) -> None:
        """Insert or refresh the entry for ``addr`` with a new PV.

        ``neighbor=False`` records indirectly-learned positions (Location
        Service); it never downgrades an entry already known as a neighbor.
        """
        self.maybe_purge(now)
        size = len(self._pvs)
        self._pvs[addr] = pv
        self._stamps[addr] = now
        if len(self._pvs) > size:
            self.inserts += 1
            if not neighbor:
                self._indirect.add(addr)
        else:
            self.refreshes += 1
            if neighbor:
                self._indirect.discard(addr)

    def update_many(self, pairs, now: float, *, neighbor: bool = True) -> None:
        """Bulk :meth:`update` over a sequence of ``(addr, pv)`` pairs.

        Equivalent to :meth:`update` once per pair, the opportunistic purge
        included (it runs at most once, before the first insert); for an
        address repeated in one batch the last PV wins.  The batched beacon
        delivery path hands a tick's accepted beacons to one call.
        """
        self.maybe_purge(now)
        pvs, stamps = self._pvs, self._stamps
        if not neighbor:
            self._indirect.update(addr for addr, _pv in pairs if addr not in pvs)
        elif self._indirect:
            self._indirect.difference_update(addr for addr, _pv in pairs)
        size = len(pvs)
        pvs.update(pairs)
        inserts = len(pvs) - size
        self.inserts += inserts
        self.refreshes += len(pairs) - inserts
        for addr, _pv in pairs:
            stamps[addr] = now

    def _entry(self, addr: int, stamp: float) -> LocationTableEntry:
        return LocationTableEntry(
            addr, self._pvs[addr], stamp, stamp + self.ttl, addr not in self._indirect
        )

    def get(self, addr: int, now: float) -> Optional[LocationTableEntry]:
        """A snapshot of the live entry for ``addr``, or None."""
        stamp = self._stamps.get(addr)
        if stamp is None or not now <= stamp + self.ttl:
            return None
        return self._entry(addr, stamp)

    def remove(self, addr: int) -> None:
        """Drop the entry for ``addr`` if present."""
        self._pvs.pop(addr, None)
        self._stamps.pop(addr, None)
        self._indirect.discard(addr)

    def clear(self, now: Optional[float] = None) -> None:
        """Wipe every entry (node reboot); resets the purge clock."""
        self._pvs.clear()
        self._stamps.clear()
        self._indirect.clear()
        if now is not None:
            self._next_purge_at = now + self.purge_interval

    def entries(self) -> Iterator[LocationTableEntry]:
        """Snapshots of every stored entry, expired included."""
        return (self._entry(addr, stamp) for addr, stamp in self._stamps.items())

    def live_entries(self, now: float) -> Iterator[LocationTableEntry]:
        """Snapshots of the non-expired entries."""
        ttl = self.ttl
        return (self._entry(a, s) for a, s in self._stamps.items() if now <= s + ttl)

    def check_consistency(self) -> None:
        """Raise ValueError unless the PV and stamp columns hold the same
        keys in the same order and every indirect address has an entry."""
        pvs, stamps = list(self._pvs), list(self._stamps)
        if pvs != stamps or not self._indirect.issubset(stamps):
            raise ValueError(f"pvs={pvs} stamps={stamps} indirect={self._indirect}")

    def purge(self, now: float) -> int:
        """Physically remove expired entries; returns how many were dropped."""
        ttl = self.ttl
        dead = [a for a, stamp in self._stamps.items() if not now <= stamp + ttl]
        for addr in dead:
            self.remove(addr)
        self.purged += len(dead)
        return len(dead)

    def maybe_purge(self, now: float) -> int:
        """Purge if ``purge_interval`` has elapsed since the last purge."""
        if now < self._next_purge_at:
            return 0
        self._next_purge_at = now + self.purge_interval
        return self.purge(now)

    def contains(self, addr: int, now: float) -> bool:
        """Whether a *live* entry exists for ``addr`` (liveness-aware)."""
        return self.get(addr, now) is not None

    def __len__(self) -> int:
        """Physical entry count, expired included (storage footprint —
        use :meth:`live_entries` to count usable neighbors)."""
        return len(self._stamps)

    def __contains__(self, addr: int) -> bool:
        """Physical presence, expired included.  Time-free by necessity —
        use :meth:`contains` with ``now`` for a liveness check."""
        return addr in self._stamps
