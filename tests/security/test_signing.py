"""Tests for message signing — the properties the threat model rests on."""

from dataclasses import dataclass, replace

import pytest

from repro.security import signing
from repro.security.ca import CertificateAuthority
from repro.security.certificates import Certificate, Credentials
from repro.security.signing import (
    SignedMessage,
    SigningError,
    canonical_bytes,
    sign,
    verify,
)


@dataclass(frozen=True)
class Body:
    value: int
    text: str = "x"


@pytest.fixture
def creds():
    return CertificateAuthority().enroll("vehicle-1")


def test_signed_message_verifies(creds):
    assert verify(sign(Body(1), creds))


def test_replayed_message_still_verifies(creds):
    """Re-transmission by anyone keeps the signature valid — the inter-area
    attack's enabling property."""
    message = sign(Body(1), creds)
    # simulate capture + replay: the very same object is re-delivered
    for _ in range(3):
        assert verify(message)


def test_forged_body_fails(creds):
    message = sign(Body(1), creds)
    forged = SignedMessage(
        body=Body(2), certificate=message.certificate, signature=message.signature
    )
    assert not verify(forged)


def test_forged_signature_fails(creds):
    message = sign(Body(1), creds)
    forged = SignedMessage(
        body=message.body, certificate=message.certificate, signature="0" * 64
    )
    assert not verify(forged)


def test_unenrolled_certificate_fails():
    bogus_cert = Certificate(
        subject_id="attacker",
        public_token="deadbeef",
        ca_name="USDOT-CA",
        ca_signature="feedface",
    )
    bogus_creds = Credentials(certificate=bogus_cert, private_token="secret")
    message = sign(Body(1), bogus_creds)
    assert not verify(message)


def test_signature_bound_to_signer(creds):
    """A message signed by A does not verify under B's certificate."""
    other = CertificateAuthority().enroll("vehicle-2")
    message = sign(Body(1), creds)
    swapped = SignedMessage(
        body=message.body,
        certificate=other.certificate,
        signature=message.signature,
    )
    assert not verify(swapped)


def test_sign_without_credentials_raises():
    with pytest.raises(SigningError):
        sign(Body(1), None)


def test_verification_is_memoized(creds):
    message = sign(Body(1), creds)
    assert message.cached_verdict() is None
    verify(message)
    assert message.cached_verdict() is True


def test_negative_verdict_also_memoized(creds):
    message = sign(Body(1), creds)
    forged = SignedMessage(
        body=Body(2), certificate=message.certificate, signature=message.signature
    )
    verify(forged)
    assert forged.cached_verdict() is False


def test_canonical_bytes_deterministic():
    assert canonical_bytes(Body(1, "a")) == canonical_bytes(Body(1, "a"))


def test_canonical_bytes_field_sensitive():
    assert canonical_bytes(Body(1, "a")) != canonical_bytes(Body(2, "a"))
    assert canonical_bytes(Body(1, "a")) != canonical_bytes(Body(1, "b"))


def test_canonical_bytes_handles_nested_structures():
    @dataclass(frozen=True)
    class Nested:
        inner: Body
        values: tuple

    a = canonical_bytes(Nested(Body(1), (1, 2.5, "x")))
    b = canonical_bytes(Nested(Body(1), (1, 2.5, "x")))
    c = canonical_bytes(Nested(Body(1), (1, 2.5, "y")))
    assert a == b != c


def test_canonical_bytes_distinguishes_float_precision():
    assert canonical_bytes(Body(1, "0.1")) != canonical_bytes(Body(1, "0.10"))


def test_replace_does_not_carry_the_verdict_to_a_new_body(creds):
    """The memoised verdict belongs to the body it was computed over: a
    ``dataclasses.replace`` copy with another body is checked afresh."""
    message = sign(Body(1), creds)
    assert verify(message)
    swapped = replace(message, body=Body(2))
    assert swapped.cached_verdict() is None
    assert not verify(swapped)
    assert verify(replace(message))  # same body, same signature: still valid


@pytest.fixture
def encodes(monkeypatch):
    """The bodies :func:`canonical_bytes` is called on, in order."""
    seen = []
    real = signing.canonical_bytes

    def counting(body):
        seen.append(body)
        return real(body)

    monkeypatch.setattr(signing, "canonical_bytes", counting)
    return seen


def test_sign_then_verify_encodes_the_body_once(creds, encodes):
    body = Body(1)
    message = sign(body, creds)
    verify(message)
    assert encodes == [body]


def test_equal_but_distinct_body_is_encoded_again(creds, encodes):
    message = sign(Body(1), creds)
    twin = Body(1)
    copy = SignedMessage(
        body=twin, certificate=message.certificate, signature=message.signature
    )
    assert verify(copy)
    assert len(encodes) == 2 and encodes[-1] is twin


def test_replaced_body_is_encoded_again(creds, encodes):
    message = sign(Body(1), creds)
    moved = replace(message.body, text="y")
    assert not verify(replace(message, body=moved))
    unchanged = replace(message.body)
    assert verify(replace(message, body=unchanged))
    assert encodes[1:] == [moved, unchanged]
    assert encodes[2] is unchanged
