"""The Path ORAM client (Stefanov & Shi, 2012).

The client lives inside the trusted Hypervisor (paper §IV-D): it keeps
the stash and the position map on-chip and turns each logical page
access into one uniformly random root-to-leaf path read plus an
identically shaped path write.  Every bucket on the path is re-encrypted
with a fresh nonce on every write-back, so the SP cannot correlate
contents across accesses.

Bucket wire format (every bucket the same size)::

    nonce (12) || AES-GCM( slot body x Z ) || tag (16)

one AES-GCM message per bucket, the Z slot bodies laid out by
:mod:`repro.oram.slot` and joined in order.  The cipher is
the paper's, AES-GCM through OpenSSL
(:class:`~repro.crypto.suite.AcceleratedAesGcmAead`);
``cipher_factory`` exists only as a test seam.  The nonce is a
monotonic 96-bit counter that survives a crash through the recovery
plane's write-ahead lease, so no (key, nonce) pair is ever sealed twice
(DESIGN.md §7.2).

**Rollback protection** (hardening beyond the paper's §V-A6 claim):
every bucket is authenticated against AAD ``node_index || version``,
where the version is a per-node write counter kept in trusted client
memory (8 bytes x node count — ~64 KB at height 12, on-chip scale).
An SP replaying an older (individually valid) bucket fails AEAD
verification, so stale world state can never be served silently.  One
tag covers all Z slots of a bucket, so the SP cannot rearrange, drop or
substitute slots inside one either (DESIGN.md §7.4), and a node this
client has written must serve a bucket of the one fixed length.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from repro.crypto.kdf import Drbg
from repro.crypto.keccak import keccak_memo_stats
from repro.crypto.suite import (
    AcceleratedAesGcmAead,
    AeadCipher,
    AuthenticationError,
)
from repro.oram import slot
from repro.oram.server import OramServer, OramServerStall
from repro.perf.memo import MemoizedAead, MemoStats
from repro.telemetry.tracer import tracer_for

BlockKey = bytes

# Hard bound on consecutive absorbed stalls per access: even with no
# response budget configured the client never loops forever against a
# permanently stalled server.
_MAX_STALLS_PER_ACCESS = 16

# Bound on the total AEAD probe decryptions one rollback classification
# may spend: stale-tree attacks roll back to *recent* snapshots, so the
# classifier walks versions downward only this far before giving up and
# reporting plain corruption.
_ROLLBACK_PROBE_LIMIT = 512

# What a client without a decrypt memo reports: zeros, never written.
_NO_MEMO_STATS = MemoStats()


@dataclass
class ClientStats:
    """Client-side accounting for the ablation benches."""

    accesses: int = 0
    max_stash_blocks: int = 0
    # stash size after an access -> how many accesses ended at it
    stash_sizes: Counter[int] = field(default_factory=Counter)
    blocks_encrypted: int = 0
    blocks_decrypted: int = 0
    stalls_absorbed: int = 0
    stall_us_absorbed: float = 0.0
    timeouts: int = 0
    rollbacks_detected: int = 0


@dataclass(slots=True)
class AccessSummary:
    """What the most recent :meth:`PathOramClient.access` cost.

    A cheap rolling record for the telemetry plane: span attributes read
    it right after an access without diffing cumulative stats.
    ``memo_hits``/``memo_misses`` describe the decrypt-memo behaviour of
    this access (both zero when memoization is disabled) — diagnostics
    about the host-process cache, not part of the simulated protocol.
    """

    stalls_absorbed: int = 0
    stall_us: float = 0.0
    stash_blocks: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    # Process-global keccak256 memo activity during this access (same
    # diagnostics-only caveat as the AEAD memo counters above).
    keccak_hits: int = 0
    keccak_misses: int = 0


class StashOverflow(Exception):
    """The stash exceeded its configured on-chip bound."""


class OramTimeoutError(Exception):
    """The server did not answer within the client's virtual-time budget.

    A typed signal (instead of a hang or a generic failure) the
    Hypervisor's recovery policies can act on: the access that timed out
    changed no client state — stash, position map, and node versions are
    exactly as before the access — so a retry is always safe.
    """

    def __init__(self, budget_us: float | None, waited_us: float) -> None:
        budget = f"{budget_us:.0f} µs budget" if budget_us is not None else "no budget"
        super().__init__(
            f"ORAM server unresponsive: waited {waited_us:.0f} µs ({budget})"
        )
        self.budget_us = budget_us
        self.waited_us = waited_us


class RollbackDetectedError(Exception):
    """The SP served an authentic-but-stale bucket: a tree rollback.

    Distinct from :class:`~repro.crypto.suite.AuthenticationError` (plain
    tag corruption, a transient fault worth retrying): the failed bucket
    verified correctly under an *older* per-node version, which only a
    server replaying a pre-checkpoint snapshot of the tree can produce.
    Deliberately **not** a subclass of ``AuthenticationError`` so the
    retry policies never absorb it — a rollback is an attack that must
    surface to the re-sync recovery policy, not be retried away.
    """

    def __init__(self, node: int, expected_version: int, served_version: int) -> None:
        super().__init__(
            f"ORAM rollback: node {node} served version {served_version}, "
            f"client pinned version {expected_version}"
        )
        self.node = node
        self.expected_version = expected_version
        self.served_version = served_version


class PathOramClient:
    """A Path ORAM client over an :class:`OramServer`.

    ``block_size`` is the payload size (the paper's 1 KB *blocks*);
    ``stash_limit`` models the on-chip stash memory (the paper sizes it
    at O(log n) ≈ 30 pages ≈ 1 MB; exceeding it raises
    :class:`StashOverflow`, which in hardware would be a fatal error).
    """

    def __init__(
        self,
        server: OramServer,
        key: bytes,
        block_size: int = 1024,
        stash_limit: int | None = None,
        rng: Drbg | None = None,
        cipher_factory=AcceleratedAesGcmAead,
        response_budget_us: float | None = None,
        decrypt_memo_blocks: int | None = 4096,
        clock=None,
        stall_retry_backoff_us: float = 0.0,
    ) -> None:
        if server.block_size != block_size:
            raise ValueError(
                f"server stores {server.block_size}-byte blocks, "
                f"client asked for {block_size}"
            )
        self.server = server
        self.block_size = block_size
        self.stash_limit = stash_limit
        # Virtual-time budget for one path read: stalls within it are
        # absorbed (counted in stats), stalls past it raise
        # :class:`OramTimeoutError`.  ``None`` absorbs any finite stall.
        self.response_budget_us = response_budget_us
        # When a SimClock is supplied, absorbed stalls (and the retry
        # backoff between re-issued reads) charge it, so the wait the
        # caller observes in virtual time equals ``waited_us`` exactly.
        # ``None`` keeps the historical behaviour: stall time is counted
        # in stats but charged to no clock.
        self._clock = clock
        self.stall_retry_backoff_us = stall_retry_backoff_us
        # Recovery seam (``repro.recovery``): ``None`` in production.  A
        # journal sink arms itself here to write-ahead nonce leases and
        # capture per-access state deltas; the hooks draw no randomness,
        # advance no clocks, and touch nothing simulated, so an armed
        # zero-crash run is byte-identical to an unarmed one.
        self.recovery = None
        self._rng = rng or Drbg(key, personalization=b"oram-client")
        self._cipher: AeadCipher = cipher_factory(key)
        # Decrypt memoization (repro.perf): path reads mostly open
        # buckets this client itself sealed and the server still holds,
        # so a bounded table of those (blob, aad, slot bodies) removes
        # the bulk-decrypt cost without changing any simulated result.
        # ``None``/``0`` disables it (the pre-memo behaviour, bit for
        # bit).  Only the path read and the write-back go through it.
        self.memo: MemoizedAead | None = (
            MemoizedAead(
                self._cipher, decrypt_memo_blocks, server.bucket_size, block_size
            )
            if decrypt_memo_blocks else None
        )
        # Every dummy slot this client seals is this one body object.
        self._dummy = slot.encode(slot.KIND_DUMMY, b"", b"", block_size)
        self._stash: dict[BlockKey, bytes] = {}
        self._nonce_counter = 0
        # Anti-rollback write counters, one per tree node (on-chip).
        self._node_versions: dict[int, int] = {}
        # The position map, on chip: block key -> leaf.
        self._positions: dict[BlockKey, int] = {}
        self.stats = ClientStats()
        self.last_access = AccessSummary()

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------

    @staticmethod
    def _bucket_aad(node: int, version: int) -> bytes:
        return node.to_bytes(8, "big") + version.to_bytes(8, "big")

    def _next_nonce(self) -> bytes:
        # A monotonic counter guarantees nonce freshness; the ciphertext
        # is still re-randomized on every write-back.
        self._nonce_counter += 1
        return self._nonce_counter.to_bytes(12, "big")

    # ------------------------------------------------------------------
    # The access protocol
    # ------------------------------------------------------------------

    def access(
        self,
        key: BlockKey,
        write_data: bytes | None = None,
        sim_time_us: float = 0.0,
        modify: Callable[[bytes | None], bytes | None] | None = None,
    ) -> bytes | None:
        """One oblivious access: read (and optionally update) a block.

        Returns the block payload, or ``None`` when the key has never
        been written.  Every call costs exactly one path read and one
        path write regardless of the outcome.

        ``modify`` makes the access a read-modify-write: it is handed
        the payload just read (``None`` for an unwritten key) and
        returns what to write (``None`` to leave the block alone).  It
        runs after the whole path has authenticated and before the
        eviction, so it must not raise — a caller with something to
        refuse returns ``None`` and raises once the access is over.

        ``write_data`` longer than ``block_size`` is refused with
        ``ValueError`` before any server I/O or state change; a
        ``modify`` result that long leaves the block alone, so the
        access completes as a plain read, and then raises.
        """
        if write_data is not None and len(write_data) > self.block_size:
            raise ValueError("write larger than block size")
        self.stats.accesses += 1
        stalls_before = self.stats.stalls_absorbed
        stall_us_before = self.stats.stall_us_absorbed
        memo = self.memo
        memo_stats = memo.stats if memo is not None else _NO_MEMO_STATS
        memo_hits_before = memo_stats.hits
        memo_misses_before = memo_stats.misses
        keccak_before = keccak_memo_stats()
        keccak_hits_before = keccak_before.hits
        keccak_misses_before = keccak_before.misses
        leaf_count = self.server.leaf_count

        sink = self.recovery
        keys_before: set[BlockKey] = set()
        if sink is not None:
            # Write-ahead nonce lease: reserve (durably) every nonce this
            # access could possibly consume — one per path bucket —
            # *before* any ciphertext hits the wire, so a crash at any
            # later point can never lead the recovered client to re-issue
            # a used nonce.
            sink.reserve_nonces(self._nonce_counter, self.server.height + 1)
            keys_before = set(self._stash)

        old_leaf = self._positions.get(key)
        scanned_leaf = old_leaf if old_leaf is not None else self._rng.randint(leaf_count)
        new_leaf = self._rng.randint(leaf_count)

        # Read the path and absorb all real blocks into the stash.  The
        # per-node version AAD makes replayed (stale) buckets fail here.
        # Absorption is all-or-nothing: blocks only enter the stash after
        # the *entire* path decrypts, so a tampered bucket anywhere on
        # the path (AuthenticationError) aborts the access with client
        # state — stash, position map, node versions — untouched, and a
        # retry starts from exactly the pre-access state.
        buckets = self._read_path_within_budget(scanned_leaf, sim_time_us)
        # Every tag on the path is verified before any plaintext is
        # used, so the all-or-nothing guarantee above holds.  A failure
        # is classified before it propagates: a bucket that
        # authenticates under an *older* pinned version is a rollback
        # (stale-tree attack), everything else is plain corruption.
        try:
            opened = self._open_path(buckets)
        except AuthenticationError:
            rollback = self._probe_rollback(buckets)
            if rollback is not None:
                self.stats.rollbacks_detected += 1
                raise rollback from None
            raise
        self.stats.blocks_decrypted += len(opened) * self.server.bucket_size
        block_size = self.block_size
        stash = self._stash
        for bodies in opened:
            for body in bodies:
                if body[0] != slot.KIND_REAL:
                    continue
                _kind, block_key, payload = slot.decode(body, block_size)
                if block_key not in stash:
                    stash[block_key] = payload

        result = stash.get(key)
        oversized = False
        if modify is not None:
            write_data = modify(result)
            if write_data is not None and len(write_data) > block_size:
                write_data = None
                oversized = True
        if write_data is not None:
            result = stash[key] = write_data.ljust(block_size, b"\x00")
        if key in stash:
            self._positions[key] = new_leaf

        self._evict(scanned_leaf, sim_time_us)
        if sink is not None:
            # Journal the access as *absolute* assignments (last-writer-
            # wins), so replaying any journal prefix twice recovers the
            # same state as replaying it once.  Only entries this access
            # touched can have changed: absorbed/placed stash keys (the
            # symmetric difference) plus the accessed key itself, and the
            # versions of the path just rewritten.
            changed = set(self._stash) ^ keys_before
            changed.add(key)
            sink.record_access(
                stash={k: self._stash.get(k) for k in changed},
                positions={k: self._positions.get(k) for k in changed},
                versions={
                    node: self._node_versions[node]
                    for node in self.server.path_nodes(scanned_leaf)
                },
                nonce_counter=self._nonce_counter,
            )
        self._record_stash()
        keccak_after = keccak_memo_stats()
        self.last_access = AccessSummary(
            stalls_absorbed=self.stats.stalls_absorbed - stalls_before,
            stall_us=self.stats.stall_us_absorbed - stall_us_before,
            stash_blocks=len(self._stash),
            memo_hits=memo_stats.hits - memo_hits_before,
            memo_misses=memo_stats.misses - memo_misses_before,
            keccak_hits=keccak_after.hits - keccak_hits_before,
            keccak_misses=keccak_after.misses - keccak_misses_before,
        )
        if oversized:
            raise ValueError("write larger than block size")
        return result

    def _open_path(self, buckets: dict[int, bytes]) -> list[tuple[bytes, ...]]:
        """Authenticate and open a path read, root first, into the slot
        bodies of each bucket.

        A bucket is one AES-GCM message under its node's pinned
        ``(node, version)``: the memo answers for the buckets it
        recorded, byte-equal under the same AAD, and the cipher opens
        the rest.  Only a node never written (version 0) may be empty;
        a bucket of any other length than the one fixed length fails
        like a bad tag.
        """
        versions = self._node_versions
        size = self.server.bucket_bytes
        sealed: list[tuple[bytes, bytes]] = []
        for node, blob in buckets.items():
            version = versions.get(node, 0)
            if len(blob) != size:
                if not blob and not version:
                    continue
                raise AuthenticationError(
                    f"node {node} served a bucket of {len(blob)} bytes"
                )
            sealed.append((blob, self._bucket_aad(node, version)))
        if self.memo is not None:
            return self.memo.open_path(sealed)
        decrypt = self._cipher.decrypt
        block_size = self.block_size
        return [
            slot.split(decrypt(blob[:12], blob[12:], aad), block_size)
            for blob, aad in sealed
        ]

    def _read_path_within_budget(
        self, leaf: int, sim_time_us: float
    ) -> dict[int, bytes]:
        """One path read with stall absorption and a timeout bound.

        A stalled server answers nothing; the client re-issues the read
        after the declared delay until the accumulated wait exceeds the
        response budget, at which point the access fails with a typed
        :class:`OramTimeoutError` and no client state has changed.
        """
        waited_us = 0.0
        for _ in range(_MAX_STALLS_PER_ACCESS):
            try:
                return self.server.read_path(leaf, sim_time_us + waited_us)
            except OramServerStall as stall:
                waited_us += stall.delay_us
                if (
                    self.response_budget_us is not None
                    and waited_us > self.response_budget_us
                ):
                    self.stats.timeouts += 1
                    self._charge_wait(stall.delay_us)
                    raise OramTimeoutError(
                        self.response_budget_us, waited_us
                    ) from stall
                self.stats.stalls_absorbed += 1
                self.stats.stall_us_absorbed += stall.delay_us
                # The backoff before the re-issued read is real waiting
                # the caller observes, so it counts toward both the
                # budget and the reported ``waited_us``.
                waited_us += self.stall_retry_backoff_us
                self._charge_wait(stall.delay_us + self.stall_retry_backoff_us)
        self.stats.timeouts += 1
        raise OramTimeoutError(self.response_budget_us, waited_us)

    def _charge_wait(self, amount_us: float) -> None:
        """Advance the owning clock for time spent waiting on the server."""
        if self._clock is None or amount_us <= 0.0:
            return
        tracer_for(self._clock).record("oram.stall", "oram_storage", amount_us)
        self._clock.advance_us(amount_us)

    def _probe_rollback(self, buckets: dict[int, bytes]) -> (
        "RollbackDetectedError | None"
    ):
        """Classify a path-read AEAD failure: rollback or corruption?

        For every bucket that fails under the pinned (current) version,
        walk older versions downward; a bucket that authenticates under
        one is stale-but-genuine — only a server replaying an old tree
        snapshot can serve it.  An empty bucket at a written node is the
        node as it was before its first write, version 0.  A bucket of
        any other wrong length is corruption: every genuine bucket has
        the one fixed length.  Probes are bounded; an exhausted probe
        budget conservatively reports corruption.  Runs only on the
        failure path, so honest runs never pay for it; probes use the
        bare cipher and leave the decrypt memo as the failed open did.
        """
        probes = 0
        size = self.server.bucket_bytes
        decrypt = self._cipher.decrypt
        for node, blob in buckets.items():
            expected = self._node_versions.get(node, 0)
            if len(blob) != size:
                if not blob and expected:
                    return RollbackDetectedError(node, expected, 0)
                continue
            nonce, data = blob[:12], blob[12:]
            try:
                decrypt(nonce, data, self._bucket_aad(node, expected))
                continue  # this bucket is fine; the failure is elsewhere
            except AuthenticationError:
                pass
            for version in range(expected - 1, -1, -1):
                probes += 1
                if probes > _ROLLBACK_PROBE_LIMIT:
                    return None
                try:
                    decrypt(nonce, data, self._bucket_aad(node, version))
                except AuthenticationError:
                    continue
                return RollbackDetectedError(node, expected, version)
        return None

    def _evict(self, leaf: int, sim_time_us: float) -> None:
        """Greedy write-back: place stash blocks as deep as possible.

        Each bucket — deepest first, its reals in stash order, then
        dummies — is sealed as one AES-GCM message under one fresh
        counter nonce and its new ``(node, version)`` AAD.
        """
        path = self.server.path_nodes(leaf)
        z = self.server.bucket_size
        block_size = self.block_size
        stash = self._stash
        positions = self._positions
        encrypt = self._cipher.encrypt
        placed: set[BlockKey] = set()
        new_buckets: dict[int, bytes] = {}
        sealed: list[tuple[bytes, bytes, tuple[bytes, ...]]] = []
        for depth in range(len(path) - 1, -1, -1):
            node = path[depth]
            version = self._node_versions.get(node, 0) + 1
            self._node_versions[node] = version
            aad = self._bucket_aad(node, version)
            bodies: list[bytes] = []
            for block_key, payload in stash.items():
                if len(bodies) >= z:
                    break
                if block_key in placed:
                    continue
                block_leaf = positions.get(block_key)
                if block_leaf is None:
                    continue
                if self._node_on_path(node, depth, block_leaf):
                    bodies.append(
                        slot.encode(slot.KIND_REAL, block_key, payload, block_size)
                    )
                    placed.add(block_key)
            bodies.extend([self._dummy] * (z - len(bodies)))
            nonce = self._next_nonce()
            blob = nonce + encrypt(nonce, b"".join(bodies), aad)
            new_buckets[node] = blob
            sealed.append((blob, aad, tuple(bodies)))
        self.stats.blocks_encrypted += z * len(path)
        for block_key in placed:
            del stash[block_key]
        self.server.write_path(leaf, new_buckets, sim_time_us)
        if self.memo is not None:
            # The very objects the server now holds: no second copy.
            self.memo.remember(sealed)

    def _node_on_path(self, node: int, depth: int, leaf: int) -> bool:
        """Is ``node`` (at ``depth``) an ancestor of ``leaf``'s leaf node?"""
        leaf_node = self.server.leaf_count + leaf
        return (leaf_node >> (self.server.height - depth)) == node

    def _record_stash(self) -> None:
        size = len(self._stash)
        self.stats.stash_sizes[size] += 1
        if size > self.stats.max_stash_blocks:
            self.stats.max_stash_blocks = size
        if self.stash_limit is not None and size > self.stash_limit:
            raise StashOverflow(
                f"stash holds {size} blocks, limit is {self.stash_limit}"
            )

    # ------------------------------------------------------------------
    # Trusted-state capture (repro.recovery)
    # ------------------------------------------------------------------

    def snapshot_trusted_state(self) -> dict:
        """Copy out everything a checkpoint must carry to rebuild this
        client: stash contents, position map, per-node version pins, and
        the AEAD nonce counter.  Keys (not AES material) only — the
        sealing layer encrypts the whole snapshot."""
        return {
            "stash": dict(self._stash),
            "positions": dict(self._positions),
            "node_versions": dict(self._node_versions),
            "nonce_counter": self._nonce_counter,
        }

    def restore_trusted_state(self, state: dict) -> None:
        """Install a recovered snapshot (checkpoint + journal replay)."""
        self._stash = dict(state["stash"])
        self._positions = dict(state["positions"])
        self._node_versions = dict(state["node_versions"])
        self._nonce_counter = int(state["nonce_counter"])

    def forget_tree_state(self) -> None:
        """Drop stash/positions/version pins but KEEP the nonce counter.

        This is the re-sync recovery policy after a detected rollback:
        the tree is rebuilt from verified chain state, yet nonces must
        stay monotone across the old sealed blobs the SP has seen.
        """
        self._stash = {}
        self._positions = {}
        self._node_versions = {}

    def logical_content(self, server: OramServer) -> dict[BlockKey, bytes]:
        """Every real block in ``server``'s tree, stash overlaid, by key.

        ``server`` is passed in so a digest can read the raw tree behind
        a fault wrapper.  Buckets are opened under the pinned per-node
        versions with the bare cipher — past the decrypt memo, whose
        counters and entries a digest must not move — and without
        counting in client stats, so anything a bench reports is
        untouched.
        """
        content: dict[BlockKey, bytes] = {}
        block_size = self.block_size
        for node, blob in enumerate(server.snapshot_tree()):
            if not blob:
                continue
            aad = self._bucket_aad(node, self._node_versions.get(node, 0))
            plain = self._cipher.decrypt(blob[:12], blob[12:], aad)
            for body in slot.split(plain, block_size):
                kind, key, payload = slot.decode(body, block_size)
                if kind == slot.KIND_REAL:
                    content[key] = payload
        for key, payload in self._stash.items():
            content[key] = payload.ljust(self.block_size, b"\x00")
        return content

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def read(self, key: BlockKey, sim_time_us: float = 0.0) -> bytes | None:
        return self.access(key, None, sim_time_us)

    def write(self, key: BlockKey, data: bytes, sim_time_us: float = 0.0) -> None:
        self.access(key, data, sim_time_us)
