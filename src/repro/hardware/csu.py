"""Configuration-security unit: secure boot and the chain of trust.

Workflow step 1 (paper §IV): on power-on the CSU verifies and boots the
secure bootloader (SBL), which resets the HEVMs and boots the
Hypervisor.  The chain is: Manufacturer endorses the device key (sealed
by the PUF) → device key signs the measured boot image → the attestation
report later proves to users which image runs (defeating attack A1).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.crypto.backend import _OpensslVerifier
from repro.crypto.ecc import PrivateKey, PublicKey, Signature
from repro.crypto.puf import DeviceIdentity, Manufacturer, SimulatedPuf


class SecureBootError(Exception):
    """Boot image verification failed — the device refuses to start."""


@dataclass(frozen=True)
class BootImage:
    """A measured software/bitstream image (Hypervisor + HEVM bitstream)."""

    name: str
    payload: bytes

    def measurement(self) -> bytes:
        return hashlib.sha256(b"image:" + self.name.encode() + self.payload).digest()


@dataclass(frozen=True)
class BootReceipt:
    """Produced by a successful secure boot; input to attestation."""

    serial: bytes
    image_measurement: bytes
    signature: Signature  # device key over the measurement
    device_public: PublicKey
    endorsement: Signature  # Manufacturer over the device public key


class ConfigurationSecurityUnit:
    """The on-chip root-of-trust logic."""

    def __init__(self, puf: SimulatedPuf, identity: DeviceIdentity) -> None:
        self._puf = puf
        self._identity = identity
        self.booted = False

    def secure_boot(
        self, image: BootImage, expected_measurement: bytes | None = None
    ) -> BootReceipt:
        """Verify and boot ``image``; returns the signed boot receipt.

        ``expected_measurement`` models the fused golden measurement; a
        mismatch (tampered Hypervisor/bitstream) refuses to boot.
        """
        measurement = image.measurement()
        if expected_measurement is not None and measurement != expected_measurement:
            raise SecureBootError(
                f"image {image.name!r} measurement mismatch"
            )
        # The device key is re-derived from the PUF at every boot; it
        # never exists outside the chip package.
        device_key = PrivateKey.from_bytes(self._puf.derive_key(b"device-key"))
        signature = device_key.sign(measurement)
        self.booted = True
        return BootReceipt(
            serial=self._identity.serial,
            image_measurement=measurement,
            signature=signature,
            device_public=device_key.public_key(),
            endorsement=self._identity.endorsement,
        )

    def secure_rng(self, label: bytes):
        """The Manufacturer-proposed secure randomness source."""
        return self._puf.secure_rng(label)

    def derive_sealing_key(self, label: bytes) -> bytes:
        """A PUF-bound key for sealing state to untrusted storage.

        Re-derivable on every boot of the *same* chip (the recovery
        plane's requirement) and never available off-package — exactly
        the device-key property, under a domain-separated label.
        """
        return self._puf.derive_key(b"seal:" + label)


@dataclass
class MonotonicCounter:
    """A tiny NVRAM counter that survives Hypervisor restarts.

    Models the anti-rollback hardware monotonic counter (e.g. RPMB or
    fused NVRAM): the recovery plane advances it to the checkpoint
    sequence it just durably wrote, and at restart refuses any store
    whose newest record is older than the counter — the defense against
    an SP rolling back the *journal* itself, which no amount of sealing
    can catch.
    """

    value: int = 0

    def advance_to(self, value: int) -> None:
        if value < self.value:
            raise ValueError(
                f"monotonic counter cannot move backward ({self.value} -> {value})"
            )
        self.value = value


def verify_boot_receipt(
    receipt: BootReceipt,
    manufacturer_public: PublicKey,
    expected_measurement: bytes | None = None,
) -> None:
    """User-side receipt check: endorsement chain + image signature.

    Raises :class:`~repro.crypto.ecc.InvalidSignature` (forged device,
    attack A1) or :class:`SecureBootError` (wrong image).  Both
    signature checks run on OpenSSL's verifier.
    """
    endorsement_message = Manufacturer.endorsement_message(
        receipt.serial, receipt.device_public
    )
    _OpensslVerifier(manufacturer_public).verify(
        endorsement_message, receipt.endorsement
    )
    _OpensslVerifier(receipt.device_public).verify(
        receipt.image_measurement, receipt.signature
    )
    if (
        expected_measurement is not None
        and receipt.image_measurement != expected_measurement
    ):
        raise SecureBootError("device runs an unexpected image")
