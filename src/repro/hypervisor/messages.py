"""The Hypervisor's message protocol and A.E.DMA model (paper §IV-C, §V-A3).

The untrusted host cannot touch on-chip memory.  To deliver data it
writes a message to a shared buffer and raises a *non-preemptive*
interrupt; the Hypervisor then only inspects a **fixed 32-byte header**
(type, length, target, sequence) and programs the authenticated-
encryption DMA to move the body directly into the target HEVM's memory.
The header-only parsing is the control-flow-integrity argument: no
attacker-controlled bytes ever reach Hypervisor stack or heap.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum

MAX_BODY_SIZE = 4 * 1024 * 1024


class MessageType(IntEnum):
    USER_BUNDLE = 1
    ORAM_RESPONSE = 2
    NODE_BLOCK = 3
    TRACE_OUT = 4
    SWAP_IN = 5
    SWAP_OUT = 6


class MessageError(Exception):
    """Malformed header: the message is dropped before any copy."""


# magic, type, length, target, sequence, crc, reserved (zero)
_HEADER = struct.Struct(">IIIIQII")
HEADER_SIZE = _HEADER.size  # the paper's fixed 32 bytes
_MAGIC = 0x48445450  # "HDTP"


@dataclass(frozen=True)
class MessageHeader:
    """The only message bytes the Hypervisor software ever parses."""

    msg_type: MessageType
    body_length: int
    target_hevm: int
    sequence: int

    def pack(self) -> bytes:
        return _HEADER.pack(
            _MAGIC,
            int(self.msg_type),
            self.body_length,
            self.target_hevm,
            self.sequence,
            self._checksum(),
            0,
        )

    def _checksum(self) -> int:
        return (
            _MAGIC ^ int(self.msg_type) ^ self.body_length
            ^ self.target_hevm
            ^ (self.sequence & 0xFFFFFFFF) ^ (self.sequence >> 32)
        ) & 0xFFFFFFFF

    @classmethod
    def unpack(cls, data: bytes) -> "MessageHeader":
        if len(data) < HEADER_SIZE:
            raise MessageError("short header")
        magic, raw_type, length, target, sequence, checksum, reserved = (
            _HEADER.unpack_from(data)
        )
        if magic != _MAGIC:
            raise MessageError("bad magic")
        if reserved:
            # Outside the checksum: accepted, two byte strings would
            # name one header.
            raise MessageError("reserved header bytes are not zero")
        try:
            msg_type = MessageType(raw_type)
        except ValueError as exc:
            raise MessageError(f"unknown message type {raw_type}") from exc
        if length > MAX_BODY_SIZE:
            raise MessageError(f"body length {length} exceeds limit")
        header = cls(msg_type, length, target, sequence)
        if header._checksum() != checksum:
            raise MessageError("header checksum mismatch")
        return header


class AeDma:
    """The authenticated-encryption DMA engine.

    Moves message bodies between the untrusted buffer and on-chip
    memory, decrypting/encrypting with the session (or ORAM) key in
    flight.  The Hypervisor only hands it (source, length, key slot);
    body bytes never traverse Hypervisor memory.
    """

    def __init__(self) -> None:
        self.transfers = 0
        self.bytes_moved = 0

    def ingress(self, channel, sealed, expected_length: int) -> bytes:
        """Decrypt an inbound body (host buffer → HEVM memory)."""
        if len(sealed.ciphertext) > expected_length + 16:
            raise MessageError("body larger than header declared")
        plaintext = channel.open(sealed)
        self.transfers += 1
        self.bytes_moved += len(plaintext)
        return plaintext

    def egress(self, channel, plaintext: bytes):
        """Encrypt an outbound body (HEVM memory → host buffer)."""
        self.transfers += 1
        self.bytes_moved += len(plaintext)
        return channel.seal(plaintext)


def validate_and_admit(raw: bytes) -> tuple[MessageHeader, bytes]:
    """The Hypervisor's complete message-admission procedure.

    Parses the 32-byte header, validates type/length/target coherence,
    and returns (header, opaque body).  Any failure raises
    :class:`MessageError` with no body bytes examined — the invariant
    behind the §V control-flow-integrity claim.
    """
    header = MessageHeader.unpack(raw)
    body = raw[HEADER_SIZE:]
    if len(body) != header.body_length:
        raise MessageError(
            f"declared {header.body_length} body bytes, got {len(body)}"
        )
    return header, body
