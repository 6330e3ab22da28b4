"""Tests for the location table."""

import gc

import pytest

from repro.geo.position import Position, PositionVector
from repro.geonet.loct import LocationTable


def pv(x, t=0.0, speed=0.0):
    return PositionVector(Position(x, 0.0), speed=speed, heading=0.0, timestamp=t)


def test_update_creates_entry():
    loct = LocationTable(ttl=20.0)
    loct.update(1, pv(100), now=0.0)
    entry = loct.get(1, now=0.0)
    assert entry is not None
    assert entry.position == Position(100, 0)


def test_entry_expires_after_ttl():
    loct = LocationTable(ttl=20.0)
    loct.update(1, pv(100), now=0.0)
    assert loct.get(1, now=20.0) is not None  # inclusive boundary
    assert loct.get(1, now=20.01) is None


def test_update_refreshes_ttl():
    loct = LocationTable(ttl=20.0)
    loct.update(1, pv(100), now=0.0)
    loct.update(1, pv(130), now=15.0)
    entry = loct.get(1, now=30.0)
    assert entry is not None
    assert entry.position.x == 130


def test_update_replaces_pv():
    loct = LocationTable(ttl=20.0)
    loct.update(1, pv(100, t=0.0), now=0.0)
    loct.update(1, pv(200, t=3.0), now=3.0)
    assert loct.get(1, now=3.0).pv.timestamp == 3.0


def test_live_entries_skips_expired():
    loct = LocationTable(ttl=10.0)
    loct.update(1, pv(100), now=0.0)
    loct.update(2, pv(200), now=5.0)
    live = {e.addr for e in loct.live_entries(now=12.0)}
    assert live == {2}


def test_purge_removes_expired_physically():
    loct = LocationTable(ttl=10.0)
    loct.update(1, pv(100), now=0.0)
    loct.update(2, pv(200), now=5.0)
    assert loct.purge(now=12.0) == 1
    assert len(loct) == 1
    assert 1 not in loct
    assert 2 in loct


def test_remove():
    loct = LocationTable(ttl=10.0)
    loct.update(1, pv(100), now=0.0)
    loct.remove(1)
    assert loct.get(1, now=0.0) is None
    loct.remove(1)  # idempotent


def test_stored_pv_is_never_extrapolated():
    """The table returns the advertised PV as-is — GF acting on stale
    positions is the behaviour the paper's attacks and baselines rely on."""
    loct = LocationTable(ttl=20.0)
    loct.update(1, pv(100, t=0.0, speed=30.0), now=0.0)
    entry = loct.get(1, now=10.0)
    assert entry.position.x == 100  # not 400


def test_invalid_ttl_rejected():
    with pytest.raises(ValueError):
        LocationTable(ttl=0.0)


def test_len_counts_all_entries_even_expired():
    loct = LocationTable(ttl=1.0)
    loct.update(1, pv(1), now=0.0)
    loct.update(2, pv(2), now=0.0)
    assert len(loct) == 2


def test_entries_are_neighbors_by_default():
    loct = LocationTable(ttl=20.0)
    loct.update(1, pv(100), now=0.0)
    assert loct.get(1, now=0.0).is_neighbor


def test_indirect_update_not_a_neighbor():
    loct = LocationTable(ttl=20.0)
    loct.update(1, pv(100), now=0.0, neighbor=False)
    assert not loct.get(1, now=0.0).is_neighbor


def test_indirect_update_never_downgrades_neighbor():
    loct = LocationTable(ttl=20.0)
    loct.update(1, pv(100), now=0.0)  # heard a beacon: neighbor
    loct.update(1, pv(130), now=1.0, neighbor=False)  # then via LS
    assert loct.get(1, now=1.0).is_neighbor


def test_beacon_upgrades_indirect_entry():
    loct = LocationTable(ttl=20.0)
    loct.update(1, pv(100), now=0.0, neighbor=False)
    loct.update(1, pv(130), now=1.0, neighbor=True)
    assert loct.get(1, now=1.0).is_neighbor


def test_contains_is_liveness_aware():
    loct = LocationTable(ttl=10.0)
    loct.update(1, pv(100), now=0.0)
    assert loct.contains(1, now=5.0)
    assert not loct.contains(1, now=10.01)  # expired
    assert not loct.contains(2, now=5.0)  # never seen
    # __contains__ stays physical (storage membership, time-free).
    assert 1 in loct


def test_update_opportunistically_purges_expired_entries():
    loct = LocationTable(ttl=10.0)  # purge interval defaults to ttl
    loct.update(1, pv(100), now=0.0)
    loct.update(2, pv(200), now=25.0)  # past the purge point: 1 is dropped
    assert 1 not in loct
    assert 2 in loct


def test_purge_is_rate_limited_between_intervals():
    loct = LocationTable(ttl=10.0)
    loct.update(1, pv(100), now=0.0)
    loct.update(2, pv(200), now=12.0)  # purge fires (1 still live till 10... dead)
    loct.update(3, pv(300), now=13.0)  # within the interval: no purge yet
    # Entry 2 expires at 22; a dead entry added right before the next purge
    # point survives only until that purge.
    loct.update(4, pv(400), now=23.0)
    assert 2 not in loct
    assert {3, 4} <= {entry.addr for entry in loct.entries()}


def test_table_stays_bounded_under_churn():
    """A long-lived node that hears a stream of one-off neighbors must not
    accumulate one entry per address forever."""
    loct = LocationTable(ttl=10.0)
    for addr in range(1000):
        loct.update(addr, pv(addr), now=float(addr))
    # Physical size is bounded by the addresses heard within one
    # ttl + purge_interval window, not by the 1000 ever heard.
    assert len(loct) <= 21


def test_custom_purge_interval():
    loct = LocationTable(ttl=10.0, purge_interval=2.0)
    loct.update(1, pv(100), now=0.0)
    loct.update(2, pv(200), now=12.5)
    assert 1 not in loct


# ----------------------------------------------------------------------
# update_many (bulk refresh)
# ----------------------------------------------------------------------
def test_update_many_matches_repeated_update():
    bulk = LocationTable(ttl=20.0)
    single = LocationTable(ttl=20.0)
    pairs = [(a, pv(100 + a, t=5.0)) for a in range(1, 30)]
    bulk.update_many(pairs, now=5.0)
    for addr, p in pairs:
        single.update(addr, p, now=5.0)
    assert len(bulk) == len(single)
    for addr, _p in pairs:
        be, se = bulk.get(addr, now=5.0), single.get(addr, now=5.0)
        assert (be.pv, be.updated_at, be.expires_at, be.is_neighbor) == (
            se.pv,
            se.updated_at,
            se.expires_at,
            se.is_neighbor,
        )


def test_update_many_refreshes_existing_entries():
    loct = LocationTable(ttl=20.0)
    loct.update(1, pv(100, t=0.0), now=0.0)
    loct.update_many([(1, pv(150, t=10.0)), (2, pv(200, t=10.0))], now=10.0)
    entry = loct.get(1, now=10.0)
    assert entry.position == Position(150, 0)
    assert entry.expires_at == 30.0
    assert loct.get(2, now=10.0) is not None


def test_update_many_runs_opportunistic_purge():
    """The bulk path keeps the PR 2 purge piggyback: one purge per batch."""
    loct = LocationTable(ttl=20.0)
    loct.update(1, pv(100, t=0.0), now=0.0)  # expires at 20
    # At t=50 the purge interval (one TTL) has long elapsed; the bulk
    # update must physically drop the dead entry before inserting.
    loct.update_many([(2, pv(200, t=50.0))], now=50.0)
    assert 1 not in loct
    assert 2 in loct


def test_update_many_never_downgrades_neighbor_flag():
    loct = LocationTable(ttl=20.0)
    loct.update(1, pv(100, t=0.0), now=0.0, neighbor=True)
    loct.update_many([(1, pv(120, t=1.0))], now=1.0, neighbor=False)
    assert loct.get(1, now=1.0).is_neighbor is True


# ----------------------------------------------------------------------
# columnar storage
# ----------------------------------------------------------------------
def test_snapshots_are_read_only():
    loct = LocationTable(ttl=10.0)
    loct.update(1, pv(100), now=0.0)
    entry = loct.get(1, now=0.0)
    with pytest.raises(AttributeError):
        entry.updated_at = 50.0
    assert loct.get(1, now=11.0) is None


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda t: t._pvs.pop(1),
        lambda t: t._stamps.update({1: t._stamps.pop(1)}),  # reorder
        lambda t: t._indirect.add(99),
    ],
    ids=["missing-pv", "reordered-stamps", "stray-indirect"],
)
def test_check_consistency_flags_disagreeing_columns(corrupt):
    loct = LocationTable(ttl=10.0)
    loct.update(1, pv(100), now=0.0)
    loct.update(2, pv(200), now=0.0, neighbor=False)
    loct.check_consistency()
    corrupt(loct)
    with pytest.raises(ValueError):
        loct.check_consistency()


def _tracked_growth(fill) -> int:
    gc.collect()
    before = len(gc.get_objects())
    fill()
    gc.collect()
    return len(gc.get_objects()) - before


def test_entries_allocate_no_tracked_objects():
    """Storing entries must not cost one GC-tracked object per entry: the
    table is columns, not a dict of entry objects."""
    shared = pv(1.0)
    pairs = [(addr, shared) for addr in range(5000)]
    single = LocationTable(ttl=20.0)
    bulk = LocationTable(ttl=20.0)

    def fill():
        for now in (0.0, 1.0):  # insert, then refresh
            for addr, p in pairs:
                single.update(addr, p, now)
            bulk.update_many(pairs, now)

    assert _tracked_growth(fill) < 50
    assert len(single) == len(bulk) == 5000
