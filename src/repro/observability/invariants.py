"""Opt-in runtime invariant checking.

A production-scale simulator must not *silently* corrupt results when a
subsystem misbehaves — especially once the fault-injection layer starts
tearing nodes down mid-run.  :class:`InvariantChecker` is scheduled on a
configurable cadence (``ExperimentConfig.invariant_check_interval``) and
asserts, each tick:

* **event queue monotonicity** — no pending event is due before ``now``,
  no time is NaN, the heap property holds, sequence numbers are unique;
* **LocT plausibility** — the table's columns agree, and entries were
  updated in the past and carry finite coordinates;
* **CBF timer sanity** — every buffered packet holds a live, non-negative
  contention timer due at or after ``now`` and a positive forward RHL;
* **ledger conservation** — every tracked packet has exactly one outcome,
  outcomes sum to originations, and no event precedes its origination;
* **spatial-grid consistency** — the channel's neighbor index and its
  registered interfaces agree (:meth:`SpatialGrid.check_consistency`).

On the first violation the checker raises :class:`InvariantViolation`
carrying a diagnostic dump (simulation clock, queue depth, the offending
object) — failing fast beats averaging corrupted numbers into a figure.

The checker is strictly read-only over protocol state but *does* occupy
event-queue slots when scheduled, so it is off by default; enabling it
changes event sequence numbers (never their relative order) and is not
covered by the bit-identity golden contract.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, List, Optional

from repro.observability.ledger import PacketLedger

#: Slack for float comparisons against the simulation clock.
_EPS = 1e-9

#: Default bound on plausible LocT coordinates (metres).  Generous — the
#: worlds under study span a few km — while still catching sign garbage,
#: overflow and NaN propagation.
_DEFAULT_POSITION_BOUND = 1e7


class InvariantViolation(RuntimeError):
    """A simulation invariant does not hold.

    ``dump`` carries the multi-line diagnostic the checker assembled at
    detection time (also embedded in ``str(exc)``).
    """

    def __init__(self, message: str, dump: str = ""):
        self.dump = dump
        super().__init__(f"{message}\n{dump}" if dump else message)


class InvariantChecker:
    """Periodic runtime assertion of simulation invariants.

    Duck-typed against its collaborators so it can watch any subset:
    ``iter_nodes`` yields GeoNode-likes (or is None), ``channel`` is a
    BroadcastChannel (or None), ``ledger`` a PacketLedger (or None).
    """

    def __init__(
        self,
        sim,
        *,
        iter_nodes: Optional[Callable[[], Iterable]] = None,
        channel=None,
        ledger: Optional[PacketLedger] = None,
        position_bound: float = _DEFAULT_POSITION_BOUND,
    ):
        self._sim = sim
        self._iter_nodes = iter_nodes
        self._channel = channel
        self._ledger = ledger
        self._position_bound = position_bound
        #: Completed (passing) check sweeps.
        self.checks_run = 0
        self.last_checked_at: Optional[float] = None

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Run every check once; raises :class:`InvariantViolation`."""
        now = self._sim.now
        self._check_event_queue(now)
        if self._channel is not None:
            self._check_grid()
        if self._iter_nodes is not None:
            for node in self._iter_nodes():
                if getattr(node, "is_shut_down", False):
                    continue
                self._check_loct(node, now)
                self._check_cbf(node, now)
        if self._ledger is not None:
            self._check_ledger(now)
        self.checks_run += 1
        self.last_checked_at = now

    # ------------------------------------------------------------------
    # individual checks
    # ------------------------------------------------------------------
    def _fail(self, message: str, *detail: str) -> None:
        lines: List[str] = [
            f"  sim.now={self._sim.now:.6f}s  events_fired={self._sim.events_fired}"
            f"  pending={self._sim.pending}",
        ]
        lines.extend(f"  {line}" for line in detail)
        raise InvariantViolation(f"invariant violated: {message}", "\n".join(lines))

    def _check_event_queue(self, now: float) -> None:
        heap = self._sim._heap
        seen_seq = set()
        for i, entry in enumerate(heap):
            time, _priority, seq = entry[0], entry[1], entry[2]
            if math.isnan(time):
                self._fail("event queue holds a NaN-time event", f"entry[{i}]={entry!r}")
            if time < now - _EPS:
                self._fail(
                    "event queue is non-monotonic: pending event due in the past",
                    f"entry[{i}] due at t={time:.6f} < now={now:.6f}",
                    f"event={entry[3]!r}",
                )
            if seq in seen_seq:
                self._fail(
                    "event queue holds duplicate sequence numbers",
                    f"seq={seq} appears twice",
                )
            seen_seq.add(seq)
        for i in range(len(heap)):
            for child in (2 * i + 1, 2 * i + 2):
                if child < len(heap) and heap[child][:3] < heap[i][:3]:
                    self._fail(
                        "event heap property broken",
                        f"heap[{child}]={heap[child][:3]} < heap[{i}]={heap[i][:3]}",
                    )

    def _check_grid(self) -> None:
        channel = self._channel
        grid = getattr(channel, "_grid", None)
        if grid is None:
            return  # grid is built lazily on first query
        try:
            grid.check_consistency()
        except ValueError as exc:
            self._fail("spatial grid inconsistent", str(exc))
        for iface in channel._interfaces:
            if iface._grid_item not in grid:
                self._fail(
                    "registered interface missing from the spatial grid",
                    f"address={iface.address}",
                )
        if len(grid) != len(channel._interfaces):
            self._fail(
                "spatial grid size disagrees with channel membership",
                f"grid={len(grid)} interfaces={len(channel._interfaces)}",
            )

    def _check_loct(self, node, now: float) -> None:
        loct = node.router.loct
        bound = self._position_bound
        try:
            loct.check_consistency()
        except ValueError as exc:
            self._fail("LocT columns disagree", f"node={node.address} {exc}")
        for entry in loct.entries():
            if entry.updated_at > now + _EPS:
                self._fail(
                    "LocT entry updated in the future",
                    f"node={node.address} entry addr={entry.addr}"
                    f" updated_at={entry.updated_at:.6f} > now={now:.6f}",
                )
            x, y = entry.position.x, entry.position.y
            if not (math.isfinite(x) and math.isfinite(y)):
                self._fail(
                    "LocT entry carries a non-finite position",
                    f"node={node.address} entry addr={entry.addr} pos=({x}, {y})",
                )
            if abs(x) > bound or abs(y) > bound:
                self._fail(
                    "LocT entry position outside the plausible world",
                    f"node={node.address} entry addr={entry.addr}"
                    f" pos=({x:.1f}, {y:.1f}) bound={bound:.0f}",
                )

    def _check_cbf(self, node, now: float) -> None:
        for packet_id, buffered in node.router.cbf._buffers.items():
            timer = buffered.timer
            if timer.cancelled:
                self._fail(
                    "CBF buffer holds a cancelled contention timer",
                    f"node={node.address} packet={packet_id}",
                )
            if timer.time < now - _EPS:
                self._fail(
                    "CBF contention timer due in the past",
                    f"node={node.address} packet={packet_id}"
                    f" due={timer.time:.6f} < now={now:.6f}",
                )
            if timer.time < buffered.buffered_at - _EPS:
                self._fail(
                    "CBF contention timeout is negative",
                    f"node={node.address} packet={packet_id}"
                    f" due={timer.time:.6f} buffered_at={buffered.buffered_at:.6f}",
                )
            if buffered.buffered_at > now + _EPS:
                self._fail(
                    "CBF copy buffered in the future",
                    f"node={node.address} packet={packet_id}"
                    f" buffered_at={buffered.buffered_at:.6f} > now={now:.6f}",
                )
            if buffered.forward_rhl < 1:
                self._fail(
                    "CBF buffered a copy with an exhausted hop budget",
                    f"node={node.address} packet={packet_id}"
                    f" forward_rhl={buffered.forward_rhl}",
                )

    def _check_ledger(self, now: float) -> None:
        ledger = self._ledger
        totals = ledger.outcome_totals()
        if sum(totals.values()) != len(ledger):
            self._fail(
                "ledger conservation broken: outcomes do not sum to originations",
                f"sum(outcomes)={sum(totals.values())} originated={len(ledger)}",
                f"totals={totals}",
            )
        for record in ledger.records():
            if record.originated_at > now + _EPS:
                self._fail(
                    "ledger record originated in the future",
                    f"packet={record.packet_id} originated_at="
                    f"{record.originated_at:.6f} > now={now:.6f}",
                )
            first_drop = record.first_drop
            if (
                first_drop is not None
                and first_drop[0] < record.originated_at - _EPS
            ):
                self._fail(
                    "ledger drop precedes the packet's origination",
                    f"packet={record.packet_id} drop at {first_drop[0]:.6f}"
                    f" < originated_at={record.originated_at:.6f}",
                )
            if (
                record.first_delivery is not None
                and record.first_delivery < record.originated_at - _EPS
            ):
                self._fail(
                    "ledger delivery precedes the packet's origination",
                    f"packet={record.packet_id} delivery at "
                    f"{record.first_delivery:.6f}"
                    f" < originated_at={record.originated_at:.6f}",
                )
