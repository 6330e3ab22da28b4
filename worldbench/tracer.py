"""Span tracer that wraps each layer's public calls from outside the program.

The program under test carries no instrumentation.  :meth:`Tracer.install`
replaces the public functions and methods listed in :data:`TARGETS` with
timing wrappers, and :meth:`Tracer.uninstall` puts the originals back.

A module-level function is replaced wherever a ``repro.*`` module holds a
reference to it, because ``from repro.security.signing import sign`` copies
the function into the importing module; wrapping the defining module alone
would miss those calls and report 0 s.  A method is wrapped on each class
that defines it, so subclass overrides are covered too.

Every wrapped call records a span (name, start, end, parent span, op id).
A call that re-enters the group of the innermost open span (``super()``
chains, ``has`` calling ``get_record``) records no span of its own: its time
stays with the outer call of that group, and it adds to its counter only
when that differs from the outer call's.  A group's self time is the time
its spans cover minus the time their child spans cover, so nested calls are
attributed to the innermost layer.  Spans stay in memory and are written out
by :meth:`Tracer.save` when the benchmark ends.

Campaign workers are forked after :meth:`install`, so they inherit the
wrappers.  The wrapper on ``worker_loop`` clears the inherited state when a
worker starts and writes that worker's spans and totals to ``spool_dir``
when it exits; :meth:`Tracer.merge_spool` folds them into the parent.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import threading
import time
import types
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional

import numpy as np


class TraceError(RuntimeError):
    """The tracer could not measure what it was asked to measure."""


def _n_entries(args, result) -> int:
    return len(args[1])


def _n_pairs(args, result) -> int:
    return len(result[0])


def _blob_bytes(args, result) -> int:
    return len(args[0])


class Target(NamedTuple):
    """One wrapped public call.

    ``owner`` is ``module`` or ``module:Class``; ``group`` is the layer its
    time is charged to; ``count`` names the counter it adds to, by one per
    call or by ``amount(args, result)``.
    """

    owner: str
    name: str
    group: str
    count: Optional[str]
    amount: Optional[Callable] = None

    @property
    def label(self) -> str:
        module, _, cls = self.owner.partition(":")
        return f"{cls or module.rsplit('.', 1)[-1]}.{self.name}"


#: Every layer boundary the benchmark times, in the order of the prediction
#: table in README.md.  A method is also wrapped on every subclass that
#: overrides it, such as each attacker class's ``react``.
TARGETS = (
    Target("repro.sim.engine:Simulator", "run_until", "sim", None),
    Target("repro.traffic.simulation:TrafficSimulation", "step", "traffic", "traffic.steps"),
    Target("repro.traffic.grid:GridTrafficSimulation", "step", "traffic", "traffic.steps"),
    Target("repro.radio.channel:BroadcastChannel", "transmit", "radio.transmit", "radio.transmits"),
    Target("repro.radio.channel:RadioInterface", "deliver", "radio.deliver", "radio.deliveries"),
    Target("repro.radio.shadowing:ManhattanShadowing", "__call__", "radio.shadowing", "radio.shadowing.calls"),
    Target("repro.radio.shadowing:ManhattanShadowing", "blocks_many", "radio.shadowing", "radio.shadowing.calls"),
    Target("repro.radio.channel:BroadcastChannel", "block_mask", "radio.shadowing", "radio.shadowing.calls"),
    Target("repro.radio.spatial:SpatialGrid", "query_disc", "radio.spatial", None),
    Target("repro.radio.spatial:SpatialGrid", "move_many", "radio.spatial", None),
    Target("repro.geonet.router:GeoRouter", "handle_frame", "geonet", "geonet.frames"),
    Target("repro.geonet.router:GeoRouter", "receive_beacons_bulk", "geonet", "geonet.frames", _n_entries),
    Target("repro.geonet.loct:LocationTable", "update", "geonet.loct", "geonet.loct.updates"),
    Target("repro.geonet.loct:LocationTable", "update_many", "geonet.loct", "geonet.loct.updates", _n_entries),
    Target("repro.geonet.gf:GreedyForwarder", "select_next_hop", "geonet.gf", "geonet.gf.selections"),
    Target("repro.geonet.cbf:CbfForwarder", "handle_broadcast", "geonet.cbf", "geonet.cbf.broadcasts"),
    Target("repro.geonet.fleet:FleetState", "neighbor_pairs", "geonet.fleet", "geonet.fleet.pairs", _n_pairs),
    Target("repro.geonet.fleet:FleetState", "push_positions_to_channel", "geonet.fleet", None),
    Target("repro.security.signing", "sign", "security", "security.signs"),
    Target("repro.security.signing", "verify", "security", "security.verifies"),
    Target("repro.core.attacks.base:RoadsideAttacker", "react", "core.attacks", "core.attacks.reacts"),
    Target("repro.experiments.checkpointing", "save_checkpoint", "sim.checkpoint", "sim.checkpoint.saves"),
    Target("repro.sim.checkpoint", "snapshot_world", "sim.checkpoint", None),
    Target("repro.sim.checkpoint", "encode_envelope", "sim.checkpoint", "sim.checkpoint.bytes", _blob_bytes),
    Target("repro.experiments.store:ResultStoreBase", "put_run", "experiments.store.put", "experiments.store.puts"),
    Target("repro.experiments.store:ResultStoreBase", "put_checkpoint", "experiments.store.put", "experiments.store.puts"),
    Target("repro.experiments.store:ResultStoreBase", "get_record", "experiments.store.get", "experiments.store.gets"),
    Target("repro.experiments.store:ResultStoreBase", "has", "experiments.store.get", "experiments.store.gets"),
    Target("repro.experiments.campaign", "execute_spec", "experiments.service", None),
)

#: The plain span-name columns of a saved trace.
_SPAN_COLUMNS = ("span", "parent", "name", "op", "start", "end")


def _subclasses(cls) -> List[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


class Tracer:
    """Wraps :data:`TARGETS`, records spans and sums them per layer."""

    def __init__(self, spool_dir: Path):
        self.spool_dir = Path(spool_dir)
        self.op = -1
        self._installed: List[tuple] = []
        self._names: Dict[str, int] = {}
        self._epoch = time.perf_counter()
        self._reset()

    # ------------------------------------------------------------------
    # recorded state
    # ------------------------------------------------------------------
    def _reset(self) -> None:
        self._thread = threading.get_ident()
        self._next_span = 0
        self._stack: List[list] = []
        self._cols = {
            "span": array("q"), "parent": array("q"), "name": array("i"),
            "op": array("i"), "start": array("d"), "end": array("d"),
        }
        #: ``(first span row, rows, pid)`` of each merged worker spool.
        self._merged: List[tuple] = []
        self.counts: Counter = Counter()
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)

    @contextlib.contextmanager
    def paused(self):
        """Let wrapped calls through unrecorded (for the output checks)."""
        thread, self._thread = self._thread, None
        try:
            yield
        finally:
            self._thread = thread

    def take_totals(self) -> dict:
        """Return the totals recorded since the last call, and clear them.

        Spans are kept for :meth:`save`."""
        totals = {
            "counts": dict(self.counts),
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
        }
        self.counts.clear()
        self.calls.clear()
        self.self_s.clear()
        self.total_s.clear()
        return totals

    # ------------------------------------------------------------------
    # installing wrappers
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every target, on each class that defines it."""
        if self._installed:
            raise TraceError("tracer is already installed")
        # Import every module whose subclasses must be found below.
        import repro.core.attacks  # noqa: F401
        import repro.experiments.sqlite_store  # noqa: F401
        from repro.experiments.service import scheduler

        for target in TARGETS:
            module_name, _, class_name = target.owner.partition(":")
            module = importlib.import_module(module_name)
            if not class_name:
                self._wrap_function(module, target)
                continue
            for owner in _subclasses(getattr(module, class_name)):
                if target.name in vars(owner):
                    self._wrap_method(owner, target, f"{owner.__name__}.{target.name}")
        self._wrap_worker_loop(scheduler)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._installed):
            setattr(holder, attr, original)
        self._installed.clear()

    def _wrap_function(self, module, target: Target) -> None:
        original = getattr(module, target.name)
        if not isinstance(original, types.FunctionType):
            raise TraceError(f"{target.label} is not a plain function")
        wrapper = self._wrapper(original, target, target.label)
        # ``from module import name`` copies the function into the importer;
        # replace every such copy, or those calls would escape the tracer.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._installed.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _wrap_method(self, cls: type, target: Target, label: str) -> None:
        original = vars(cls).get(target.name)
        if not isinstance(original, types.FunctionType):
            raise TraceError(f"{label} is not a plain method of {cls.__name__}")
        self._installed.append((cls, target.name, original))
        setattr(cls, target.name, self._wrapper(original, target, label))

    def _name_id(self, label: str) -> int:
        return self._names.setdefault(label, len(self._names))

    def _wrapper(self, fn: Callable, target: Target, label: str) -> Callable:
        tracer = self
        group, count, amount = target.group, target.count, target.amount
        name_id = self._name_id(label)
        clock = time.perf_counter
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            stack = tracer._stack
            if stack and stack[-1][1] == group:
                # Re-entry: the outer span keeps the time; a counter counts
                # once per operation, so only a different counter adds.
                result = fn(*args, **kwargs)
                tracer.calls[label] += 1
                if count is not None and count != stack[-1][3]:
                    tracer.counts[count] += 1 if amount is None else amount(args, result)
                return result
            span = tracer._next_span
            tracer._next_span = span + 1
            frame = [span, group, 0.0, count]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                tracer.self_s[group] += elapsed - frame[2]
                tracer.total_s[group] += elapsed
                if stack:
                    stack[-1][2] += elapsed
                cols = tracer._cols
                cols["span"].append(span)
                cols["parent"].append(parent)
                cols["name"].append(name_id)
                cols["op"].append(tracer.op)
                cols["start"].append(start - tracer._epoch)
                cols["end"].append(end - tracer._epoch)
                tracer.calls[label] += 1
            if count is not None:
                tracer.counts[count] += 1 if amount is None else amount(args, result)
            return result

        return traced

    def _wrap_worker_loop(self, scheduler) -> None:
        """Spool each forked campaign worker's spans when it exits."""
        tracer = self
        original = scheduler.worker_loop

        @functools.wraps(original)
        def spooled_worker_loop(*args, **kwargs):
            tracer._reset()
            try:
                return original(*args, **kwargs)
            finally:
                tracer._spool()

        self._installed.append((scheduler, "worker_loop", original))
        scheduler.worker_loop = spooled_worker_loop

    # ------------------------------------------------------------------
    # worker spool
    # ------------------------------------------------------------------
    def _spool(self) -> None:
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        stem = self.spool_dir / f"worker-{os.getpid()}"
        np.savez(stem.with_suffix(".tmp.npz"), **self._span_arrays())
        stem.with_suffix(".tmp.json").write_text(
            json.dumps({"totals": self.take_totals(), "names": self._names})
        )
        # Rename last, so the parent never reads a half-written spool.
        os.replace(stem.with_suffix(".tmp.npz"), stem.with_suffix(".npz"))
        os.replace(stem.with_suffix(".tmp.json"), stem.with_suffix(".json"))

    def merge_spool(self) -> int:
        """Fold every spooled worker into this tracer; return how many."""
        merged = 0
        for meta_path in sorted(self.spool_dir.glob("worker-*[0-9].json")):
            data_path = meta_path.with_suffix(".npz")
            meta = json.loads(meta_path.read_text())
            totals = meta["totals"]
            self.counts.update(totals["counts"])
            self.calls.update(totals["calls"])
            for key in ("self_s", "total_s"):
                for group, value in totals[key].items():
                    getattr(self, key)[group] += value
            pid = int(meta_path.stem.split("-")[1])
            with np.load(data_path) as spans:
                remap = {v: self._name_id(k) for k, v in meta["names"].items()}
                names = [remap[int(n)] for n in spans["name"]]
                self._merged.append((self.n_spans, len(names), pid))
                for column in _SPAN_COLUMNS:
                    values = names if column == "name" else spans[column].tolist()
                    self._cols[column].extend(values)
            meta_path.unlink()
            data_path.unlink()
            merged += 1
        return merged

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def _span_arrays(self) -> Dict[str, np.ndarray]:
        return {column: np.asarray(self._cols[column]) for column in _SPAN_COLUMNS}

    @property
    def n_spans(self) -> int:
        return len(self._cols["span"])

    def save(self, path: Path, **meta) -> None:
        """Write every recorded span; ``pid`` is 0 for the benchmark itself."""
        arrays = self._span_arrays()
        # Span and parent ids are per process; the pid column keeps each
        # worker's ids apart from the benchmark's own.
        pid = np.zeros(self.n_spans, dtype=np.int64)
        for first, rows, worker_pid in self._merged:
            pid[first:first + rows] = worker_pid
        path.parent.mkdir(parents=True, exist_ok=True)
        names = np.array(sorted(self._names, key=self._names.get))
        np.savez(path, pid=pid, names=names, **arrays, **meta)
