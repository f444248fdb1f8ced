"""Precompiled contracts at addresses 0x01–0x04.

The evaluation workloads exercise ecrecover (0x01), sha256 (0x02),
ripemd160 (0x03), and identity (0x04) — the precompiles that appear in
ordinary DeFi transactions.  Each returns ``(gas_cost, output)`` or
raises on failure.
"""

from __future__ import annotations

import hashlib
from typing import Callable

from repro.crypto.ecc import InvalidSignature, PublicKey, Signature, recover_address
from repro.state.account import Address, to_address

Precompile = Callable[[bytes], tuple[int, bytes]]


def _ecrecover(data: bytes) -> tuple[int, bytes]:
    """secp256k1 signature recovery.

    The simulation cannot recover a public key from (r, s, v) without
    carrying the key, so workload calldata embeds the uncompressed
    public key after the classic 128-byte prefix; verification is real.
    An out-of-spec input returns empty output, as on mainnet.
    """
    cost = 3000
    padded = data.ljust(128 + 65, b"\x00")
    message_hash = padded[:32]
    r = int.from_bytes(padded[64:96], "big")
    s = int.from_bytes(padded[96:128], "big")
    pubkey_bytes = padded[128:193]
    try:
        public_key = PublicKey.from_bytes(pubkey_bytes)
        address = recover_address(message_hash, Signature(r, s), public_key)
    except (ValueError, InvalidSignature):
        return cost, b""
    return cost, address.rjust(32, b"\x00")


def _sha256(data: bytes) -> tuple[int, bytes]:
    cost = 60 + 12 * ((len(data) + 31) // 32)
    return cost, hashlib.sha256(data).digest()


def _ripemd160(data: bytes) -> tuple[int, bytes]:
    cost = 600 + 120 * ((len(data) + 31) // 32)
    try:
        digest = hashlib.new("ripemd160", data).digest()
    except ValueError:
        # OpenSSL builds without ripemd160: substitute a domain-separated
        # sha256 truncation; the simulation only needs determinism.
        digest = hashlib.sha256(b"ripemd160:" + data).digest()[:20]
    return cost, digest.rjust(32, b"\x00")


def _identity(data: bytes) -> tuple[int, bytes]:
    cost = 15 + 3 * ((len(data) + 31) // 32)
    return cost, data


PRECOMPILES: dict[Address, Precompile] = {
    to_address(1): _ecrecover,
    to_address(2): _sha256,
    to_address(3): _ripemd160,
    to_address(4): _identity,
}
