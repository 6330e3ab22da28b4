"""Model-based property: the columnar location table against a reference.

:class:`~repro.geonet.loct.LocationTable` stores its entries as columns
and writes batches with bulk dict operations.  The reference model below
is the plain one-row-per-address table, written the obvious way: one
``update`` inserts or refreshes one row (a refresh keeps the row's place,
an indirect update never clears the neighbor flag), ``update_many`` is
``update`` once per pair, and the opportunistic purge drops rows with
``now > updated_at + ttl`` once per purge interval.

Random op sequences (``update`` with either neighbor flag, ``update_many``
with repeated addresses and either flag, ``get``, ``remove``, ``clear``)
run on both, with time advancing over purge points and landing exactly on
``updated_at + ttl``.  Times and TTLs are multiples of 1/4 s, so those sums
are exact.  After every op the two must agree on every query.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.position import Position, PositionVector
from repro.geonet.loct import LocationTable

ADDRS = range(1, 7)
ADDR = st.sampled_from(ADDRS)
QUARTERS = st.integers(min_value=0, max_value=40).map(lambda q: q / 4.0)


class ReferenceTable:
    """One row per address: ``addr -> (pv, updated_at, is_neighbor)``."""

    def __init__(self, ttl, purge_interval):
        self.ttl = ttl
        self.purge_interval = ttl if purge_interval is None else purge_interval
        self.next_purge_at = self.purge_interval
        self.rows = {}
        self.inserts = self.refreshes = self.purged = 0

    def maybe_purge(self, now):
        if now < self.next_purge_at:
            return
        self.next_purge_at = now + self.purge_interval
        dead = [a for a, row in self.rows.items() if now > row[1] + self.ttl]
        for addr in dead:
            del self.rows[addr]
        self.purged += len(dead)

    def update(self, addr, pv, now, neighbor):
        self.maybe_purge(now)
        row = self.rows.get(addr)
        if row is None:
            self.inserts += 1
            self.rows[addr] = (pv, now, neighbor)
        else:
            self.refreshes += 1
            self.rows[addr] = (pv, now, row[2] or neighbor)

    def update_many(self, pairs, now, neighbor):
        self.maybe_purge(now)  # an empty batch still runs the purge check
        for addr, pv in pairs:
            self.update(addr, pv, now, neighbor)

    def entries(self):
        return [
            (addr, pv, t, t + self.ttl, neighbor)
            for addr, (pv, t, neighbor) in self.rows.items()
        ]

    def live_entries(self, now):
        return [e for e in self.entries() if now <= e[3]]

    def get(self, addr, now):
        for entry in self.live_entries(now):
            if entry[0] == addr:
                return entry
        return None


def _pv(x, now):
    return PositionVector(Position(float(x), 0.0), speed=0.0, heading=0.0, timestamp=now)


OPS = st.one_of(
    st.tuples(st.just("advance"), QUARTERS),
    st.tuples(st.just("advance_to_expiry"), ADDR),
    st.tuples(st.just("update"), ADDR, st.integers(0, 999), st.booleans()),
    st.tuples(
        st.just("update_many"),
        st.lists(st.tuples(ADDR, st.integers(0, 999)), max_size=8),
        st.booleans(),
    ),
    st.tuples(st.just("get"), ADDR),
    st.tuples(st.just("remove"), ADDR),
    st.tuples(st.just("clear")),
)


def _assert_agree(table, model, now):
    table.check_consistency()
    assert list(table.entries()) == model.entries()  # is_neighbor included
    assert list(table.live_entries(now)) == model.live_entries(now)
    assert len(table) == len(model.rows)
    for addr in ADDRS:
        assert table.get(addr, now) == model.get(addr, now)
        assert table.contains(addr, now) == (model.get(addr, now) is not None)
        assert (addr in table) == (addr in model.rows)
    assert (table.inserts, table.refreshes, table.purged) == (
        model.inserts,
        model.refreshes,
        model.purged,
    )


@settings(max_examples=300, deadline=None)
@given(
    ttl=st.sampled_from((0.5, 1.0, 2.5, 20.0)),
    purge_interval=st.sampled_from((None, 0.25, 1.0, 3.0)),
    ops=st.lists(OPS, max_size=40),
)
def test_columnar_table_matches_reference(ttl, purge_interval, ops):
    table = LocationTable(ttl=ttl, purge_interval=purge_interval)
    model = ReferenceTable(ttl, purge_interval)
    now = 0.0
    for op in ops:
        kind = op[0]
        if kind == "advance":
            now += op[1]
        elif kind == "advance_to_expiry":
            row = model.rows.get(op[1])
            if row is not None:
                now = max(now, row[1] + ttl)  # exactly on the boundary
        elif kind == "update":
            _kind, addr, x, neighbor = op
            pv = _pv(x, now)
            table.update(addr, pv, now, neighbor=neighbor)
            model.update(addr, pv, now, neighbor)
        elif kind == "update_many":
            _kind, raw, neighbor = op
            pairs = [(addr, _pv(x, now)) for addr, x in raw]
            table.update_many(pairs, now, neighbor=neighbor)
            model.update_many(pairs, now, neighbor)
        elif kind == "get":
            assert table.get(op[1], now) == model.get(op[1], now)
        elif kind == "remove":
            table.remove(op[1])
            model.rows.pop(op[1], None)
        else:
            table.clear(now)
            model.rows.clear()
            model.next_purge_at = now + model.purge_interval
        _assert_agree(table, model, now)
