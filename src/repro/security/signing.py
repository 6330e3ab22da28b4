"""Message signing and verification.

A :class:`SignedMessage` wraps an immutable body with the signer's
certificate and a signature.  The signature is a keyed hash over a canonical
byte encoding of the body; the "asymmetric math" is simulated by a
module-private registry mapping public tokens to private tokens, which the
verifier consults.  The registry plays the role of the mathematics of ECDSA:
it is not an object an attacker entity in the simulation has access to.

Two properties matter for the paper and are enforced (and unit-tested):

* altering any signed field, or signing with an unenrolled certificate,
  makes :func:`verify` return False;
* re-transmitting an existing :class:`SignedMessage` verbatim verifies fine
  regardless of who transmits it — authentication does not prove the
  link-layer sender is the signer.

Two memos keep this cheap without changing a verdict:

* **Encode once.**  The canonical encoding walks a body's dataclass fields
  through a per-type cache of field names (no reflection per value), and
  :func:`_signature_over` reuses the bytes of the body object it encoded
  last, keyed on identity.  Every signed body is a frozen dataclass of
  immutables, so a body's bytes cannot change while the memo holds it; a
  beacon signed and verified straight away (the batched fleet tick) is
  encoded once.  An equal but distinct body, or one made by
  ``dataclasses.replace``, is a new object and is encoded again.
* **Verify once.**  A :class:`SignedMessage` memoises its verdict, so every
  receiver (and every replay of a capture) after the first pays nothing.
  The memo is not an init field: ``dataclasses.replace`` builds a message
  with no verdict, so a copy with a swapped body is checked afresh.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.security.certificates import Certificate, Credentials


class SigningError(RuntimeError):
    """Raised when signing is attempted without usable credentials."""


#: public_token -> private_token, maintained by the CA at enrollment.
_KEY_REGISTRY: Dict[str, str] = {}


def register_keypair(public_token: str, private_token: str) -> None:
    """Record a keypair (called by the CA; not part of the attacker API)."""
    _KEY_REGISTRY[public_token] = private_token


def clear_key_registry() -> None:
    """Forget all keypairs (test isolation helper)."""
    _KEY_REGISTRY.clear()


def key_registry_state() -> Dict[str, str]:
    """A copy of the CA keypair registry (captured by checkpoints).

    A restored world re-verifies messages signed before the checkpoint, so
    a fresh process must recover the registry alongside the world graph —
    without it every pre-checkpoint signature reads as unenrolled."""
    return dict(_KEY_REGISTRY)


def set_key_registry_state(state: Dict[str, str]) -> None:
    """Replace the CA keypair registry (restored by checkpoints)."""
    _KEY_REGISTRY.clear()
    _KEY_REGISTRY.update(state)


def canonical_bytes(body: Any) -> bytes:
    """A canonical byte encoding of a message body.

    Bodies are frozen dataclasses composed of primitives and other frozen
    dataclasses, so a structural recursive encoding is deterministic.
    """
    return _encode(body).encode("utf-8")


#: How :func:`_encode` writes instances of each type it has met: ``_REPR``,
#: ``_SEQ``, ``_DICT``, or ``("Name(", field names)`` for a dataclass.
#: Keyed on the type, so it grows with the number of body classes, not
#: with the number of messages.
_SHAPES: Dict[type, Any] = {}
_REPR, _SEQ, _DICT = "repr", "seq", "dict"


def _shape_of(cls: type) -> Any:
    """The encoding of ``cls`` instances, tested in the same order as the
    branches of the reflective encoder this cache replaced."""
    if dataclasses.is_dataclass(cls) and not issubclass(cls, type):
        names = tuple(f.name for f in dataclasses.fields(cls))
        return (f"{cls.__name__}(", names)
    if issubclass(cls, (float, str, int, bool, bytes, type(None))):
        return _REPR
    if issubclass(cls, (tuple, list)):
        return _SEQ
    if issubclass(cls, dict):
        return _DICT
    # Enums and anything else with a stable repr.
    return _REPR


def _encode(value: Any) -> str:
    cls = type(value)
    shape = _SHAPES.get(cls)
    if shape is None:
        shape = _SHAPES[cls] = _shape_of(cls)
    if shape is _REPR:
        return repr(value)
    if shape is _SEQ:
        return "[" + ",".join([_encode(v) for v in value]) + "]"
    if shape is _DICT:
        items = sorted(value.items())
        return "{" + ",".join(f"{_encode(k)}:{_encode(v)}" for k, v in items) + "}"
    head, names = shape
    return (
        head
        + ",".join([f"{name}={_encode(getattr(value, name))}" for name in names])
        + ")"
    )


#: ``(body, canonical_bytes(body))`` for the body encoded last.  Holding the
#: body keeps its identity from being reused by another object.
_last_encoded: Tuple[Any, bytes] = (object(), b"")


def _body_bytes(body: Any) -> bytes:
    global _last_encoded
    last_body, data = _last_encoded
    if last_body is not body:
        data = canonical_bytes(body)
        _last_encoded = (body, data)
    return data


def _signature_over(body: Any, private_token: str) -> str:
    digest = hashlib.sha256()
    digest.update(private_token.encode("utf-8"))
    digest.update(_body_bytes(body))
    return digest.hexdigest()


@dataclass(frozen=True, eq=False)
class SignedMessage:
    """An immutable signed body.

    Verification results are memoized per object: a message is checked once
    no matter how many receivers hear it (or how many times an attacker
    replays the same capture), which keeps large simulations fast without
    changing semantics.  The memo is not an ``__init__`` argument, so
    ``dataclasses.replace`` never carries a verdict over to a new body.
    """

    body: Any
    certificate: Certificate
    signature: str
    _verified: Optional[bool] = field(
        default=None, init=False, compare=False, repr=False
    )

    def cached_verdict(self) -> Optional[bool]:
        """The memoized verification verdict, if any."""
        return self._verified

    def _remember(self, verdict: bool) -> None:
        object.__setattr__(self, "_verified", verdict)


def sign(body: Any, credentials: Credentials) -> SignedMessage:
    """Sign ``body`` with a node's credentials."""
    if credentials is None:
        raise SigningError("cannot sign without credentials")
    return SignedMessage(
        body=body,
        certificate=credentials.certificate,
        signature=_signature_over(body, credentials.private_token),
    )


def verify(message: SignedMessage) -> bool:
    """Check a message's signature against its certificate.

    Returns False for forged bodies, forged signatures, or certificates
    whose keypair was never enrolled with the CA.
    """
    cached = message.cached_verdict()
    if cached is not None:
        return cached
    private_token = _KEY_REGISTRY.get(message.certificate.public_token)
    if private_token is None:
        verdict = False
    else:
        verdict = _signature_over(message.body, private_token) == message.signature
    message._remember(verdict)
    return verdict
