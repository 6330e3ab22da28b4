"""Deterministic checkpointing of a running simulation world.

A checkpoint captures the *whole* object graph of a run — simulator clock
and event heap, every named RNG stream, mobility, protocol and attacker
state — in a single pickle so that shared identity (two nodes holding the
same ``RandomStreams`` stream, the channel and a node referencing the same
interface) survives the round trip.  The golden contract, enforced by the
test suite, is:

    restore-then-run is **bit-identical** to the uninterrupted run.

Three rules make this possible:

1. **No lambdas or closures in the scheduled graph.**  Event callbacks,
   periodic-process ticks and protocol hooks must be bound methods, plain
   module-level functions, or instances of callable classes — all of which
   pickle as stable ``(object, attribute-name)`` descriptors and re-bind on
   load.  :class:`RestrictedPickler` rejects anything else with an error
   naming the offender, so a regression fails fast instead of producing a
   checkpoint that cannot be restored in a fresh process.
2. **Module-global allocators are part of the state.**  Vehicle ids, grid
   vehicle ids, link-layer addresses, frame ids and the CA key registry
   live in module globals; :func:`capture_global_state` folds them into the
   payload and :func:`restore_global_state` reinstates them, so id streams
   continue exactly where the original process left off.
3. **Versioned, integrity-checked envelopes.**  The pickled payload is
   wrapped with a format version and a SHA-256 digest; a reader confronted
   with an unknown version or a corrupted payload raises
   :class:`CheckpointError` rather than resuming from garbage.
"""

from __future__ import annotations

import base64
import hashlib
import io
import pickle
import pickletools
import types
import zlib
from typing import Any, Dict

#: Bump whenever the payload layout or the pickled object graph changes
#: incompatibly; readers refuse versions they do not know.
CHECKPOINT_VERSION = 2

#: ``kind`` discriminator used in envelopes (and store records).
CHECKPOINT_KIND = "checkpoint"


class CheckpointError(RuntimeError):
    """Raised when a world cannot be checkpointed or a blob restored."""


# ----------------------------------------------------------------------
# restricted pickling
# ----------------------------------------------------------------------
class RestrictedPickler(pickle.Pickler):
    """A pickler that refuses un-restorable callables.

    Plain pickle serializes a lambda or a function defined inside another
    function *by reference* (module + qualname) — the dump succeeds, but the
    load fails in any process where that exact code path has not run, and
    even where it "works" the closure cells are not captured.  Scheduled
    callbacks must therefore be bound methods, module-level functions or
    callable class instances; this pickler turns a violation into an
    immediate, descriptive :class:`CheckpointError` at *save* time.
    """

    def reducer_override(self, obj: Any):
        if isinstance(obj, types.FunctionType):
            qualname = getattr(obj, "__qualname__", "")
            if "<lambda>" in qualname or "<locals>" in qualname:
                raise CheckpointError(
                    f"cannot checkpoint callable {qualname!r} from module "
                    f"{obj.__module__!r}: lambdas and nested functions do "
                    "not survive a process boundary. Use a bound method, a "
                    "module-level function or a callable class instead "
                    "(see docs/simulation.md)."
                )
        return NotImplemented  # fall back to the normal reduction


def restricted_dumps(obj: Any) -> bytes:
    """``pickle.dumps`` via :class:`RestrictedPickler`."""
    buffer = io.BytesIO()
    RestrictedPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    return buffer.getvalue()


# ----------------------------------------------------------------------
# module-global allocator state
# ----------------------------------------------------------------------
def capture_global_state() -> Dict[str, Any]:
    """Collect the module-global allocators a run draws from.

    Returned objects are live (the counters keep ticking); they are pickled
    together with the world in the same dump, which freezes their value at
    serialization time.
    """
    from repro.radio.channel import address_state
    from repro.radio.frames import frame_id_state
    from repro.security.signing import key_registry_state
    from repro.traffic.grid import grid_vehicle_id_state
    from repro.traffic.vehicle import vehicle_id_state

    return {
        "vehicle_counter": vehicle_id_state(),
        "grid_vehicle_counter": grid_vehicle_id_state(),
        "address_counter": address_state(),
        "frame_counter": frame_id_state(),
        "key_registry": key_registry_state(),
    }


def restore_global_state(state: Dict[str, Any]) -> None:
    """Reinstate allocators captured by :func:`capture_global_state`."""
    from repro.radio.channel import set_address_state
    from repro.radio.frames import set_frame_id_state
    from repro.security.signing import set_key_registry_state
    from repro.traffic.grid import set_grid_vehicle_id_state
    from repro.traffic.vehicle import set_vehicle_id_state

    set_vehicle_id_state(state["vehicle_counter"])
    set_grid_vehicle_id_state(state["grid_vehicle_counter"])
    set_address_state(state["address_counter"])
    set_frame_id_state(state["frame_counter"])
    set_key_registry_state(state["key_registry"])


# ----------------------------------------------------------------------
# world <-> bytes
# ----------------------------------------------------------------------
def snapshot_world(world: Any) -> bytes:
    """Serialize ``world`` plus the global allocator state into one blob.

    The fast path is the stock C pickler: ``reducer_override`` hooks cost
    a per-object callback, which is measurable on multi-megabyte worlds
    checkpointed on the simulation's critical path.  Plain pickle already
    *refuses* lambdas and nested functions (their qualified name cannot be
    looked up), so :class:`RestrictedPickler` is only re-run after a
    failure — purely to turn the stock pickler's terse error into the
    descriptive one naming the offending callable.
    """
    payload = {"world": world, "globals": capture_global_state()}
    try:
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as plain_exc:
        try:
            return restricted_dumps(payload)
        except CheckpointError:
            raise
        except Exception as exc:
            raise CheckpointError(
                f"world is not checkpointable: {exc}"
            ) from plain_exc


def restore_world(blob: bytes) -> Any:
    """Rebuild a world from :func:`snapshot_world` output.

    Also reinstates the module-global allocators, so ids allocated after
    the restore continue the original process's sequence.
    """
    try:
        payload = pickle.loads(blob)
    except Exception as exc:
        raise CheckpointError(f"checkpoint payload does not unpickle: {exc}") from exc
    if not isinstance(payload, dict) or "world" not in payload:
        raise CheckpointError("checkpoint payload has an unexpected layout")
    restore_global_state(payload["globals"])
    return payload["world"]


# ----------------------------------------------------------------------
# envelopes
# ----------------------------------------------------------------------
def encode_envelope(blob: bytes, *, sim_time: float, meta: Dict[str, Any] | None = None) -> Dict[str, Any]:
    """Wrap a payload blob in a versioned, integrity-checked JSON envelope.

    ``meta`` entries (run identity such as target/config hash/seed) are
    merged in; they must not collide with the envelope's own keys.
    """
    # Compression level 1: checkpoints are written every interval on the
    # simulation's critical path and deleted when the run commits, so
    # encode speed matters far more than a few percent of size.  The
    # digest covers the *compressed* bytes — cheaper to compute, and it
    # lets readers verify integrity before feeding zlib.
    compressed = zlib.compress(blob, 1)
    envelope: Dict[str, Any] = dict(meta or {})
    envelope.update(
        kind=CHECKPOINT_KIND,
        version=CHECKPOINT_VERSION,
        sim_time=float(sim_time),
        payload_b64=base64.b64encode(compressed).decode("ascii"),
        payload_sha256=hashlib.sha256(compressed).hexdigest(),
    )
    return envelope


def decode_envelope(envelope: Dict[str, Any]) -> bytes:
    """Validate an envelope and return the payload blob.

    Raises :class:`CheckpointError` for anything that is not a current-
    version, integrity-intact checkpoint — the caller quarantines it and
    falls back to a from-scratch run.
    """
    if not isinstance(envelope, dict):
        raise CheckpointError("checkpoint envelope is not a mapping")
    if envelope.get("kind") != CHECKPOINT_KIND:
        raise CheckpointError(
            f"not a checkpoint envelope (kind={envelope.get('kind')!r})"
        )
    version = envelope.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version!r} "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )
    try:
        compressed = base64.b64decode(envelope["payload_b64"])
    except KeyError as exc:
        raise CheckpointError("checkpoint envelope has no payload") from exc
    except Exception as exc:
        raise CheckpointError(f"checkpoint payload does not decode: {exc}") from exc
    digest = hashlib.sha256(compressed).hexdigest()
    if digest != envelope.get("payload_sha256"):
        raise CheckpointError(
            "checkpoint payload digest mismatch "
            f"(stored {envelope.get('payload_sha256')!r}, computed {digest!r})"
        )
    try:
        return zlib.decompress(compressed)
    except Exception as exc:
        raise CheckpointError(f"checkpoint payload does not decode: {exc}") from exc


def audit_blob(blob: bytes) -> list:
    """List the global function references a payload blob pins.

    A diagnostic helper for tests and debugging: every ``STACK_GLOBAL`` /
    ``GLOBAL`` opcode in the pickle stream is a name the restoring process
    must be able to import — scan the result for suspicious entries.
    """
    names = []
    arg_stack: list = []
    for opcode, arg, _pos in pickletools.genops(blob):
        if opcode.name in ("SHORT_BINUNICODE", "BINUNICODE", "UNICODE"):
            arg_stack.append(arg)
            arg_stack = arg_stack[-2:]
        elif opcode.name == "STACK_GLOBAL" and len(arg_stack) == 2:
            names.append(f"{arg_stack[0]}.{arg_stack[1]}")
        elif opcode.name == "GLOBAL":
            names.append(arg.replace(" ", "."))
    return names


__all__ = [
    "CHECKPOINT_KIND",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "RestrictedPickler",
    "audit_blob",
    "capture_global_state",
    "decode_envelope",
    "encode_envelope",
    "restore_global_state",
    "restore_world",
    "restricted_dumps",
    "snapshot_world",
]
