"""A Pyramid-style hierarchical ORAM: the fleet's second backend.

Where Path ORAM pays ~``Z * log2(N)`` blocks of bandwidth on *every*
access and holds a stash that can spike, the classic hierarchical
layout (Goldreich–Ostrovsky, as revisited by the Pyramid Scheme paper)
reads **one bucket per level** per access and keeps only a small top
cache on chip — at the price of periodic *rebuilds* that re-shuffle a
whole level.  For small working sets the levels stay shallow and the
amortized bandwidth undercuts a tall path tree, which is why a shard
may be pointed at this backend (``ShardedOramConfig.backend_overrides``).

Layout and protocol, concretely:

* Level *j* holds ``base << (j-1)`` buckets of ``bucket_size +
  log2(buckets)`` slots (logarithmic slack keeps keyed-hash placement
  from overflowing).  Real blocks sit at ``PRF(epoch_seed, key)``;
  every other slot is an encrypted dummy, so a bucket's contents are
  indistinguishable from its padding.
* An access probes **exactly one bucket in every active level**, top
  down.  Until the block is found the probe is its PRF position; after
  a hit (or a top-cache hit) the remaining probes are fresh random
  dummies.  Misses are cached as *negative* entries, so re-asking for
  an absent key never repeats a PRF position either.
* When the top cache fills, cache + every level that fits is merged
  into the shallowest level with capacity, under a **fresh epoch
  seed** — so a key's position is re-randomized before it can ever be
  probed twice at the same level.  Each (level, epoch) therefore sees
  at most one real probe per key: the adversary's view is a sequence
  of per-level positions that are each used at most once, plus
  uniformly random dummies.

Anti-rollback mirrors the path client: every slot's AEAD is bound to
``level || epoch || bucket``, so a server replaying an old level fails
authentication instead of leaking stale state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import hashlib

from repro.crypto.kdf import Drbg
from repro.crypto.suite import AeadCipher, Blake2Aead
from repro.oram import slot
from repro.oram.client import AccessSummary, BlockKey, ClientStats

_MISSING = object()


class LevelBuildError(Exception):
    """Keyed-hash placement overflowed a bucket 16 epochs in a row.

    With logarithmic bucket slack this is astronomically unlikely; it
    firing usually means the level geometry was configured by hand and
    too tight.
    """


@dataclass(slots=True)
class SlotAccessEvent:
    """What the SP observes per probe: a (level, bucket) touch."""

    op_index: int
    level: int
    bucket: int
    sim_time_us: float


@dataclass
class HierarchicalServerStats:
    bucket_reads: int = 0
    rebuild_installs: int = 0
    blocks_streamed: int = 0
    busy_time_us: float = 0.0


class HierarchicalOramServer:
    """Untrusted bucket store for the hierarchical layout.

    Holds opaque ciphertext buckets per level; knows nothing of epochs
    or placement.  ``height``/``bucket_size`` mirror the path server's
    cost-model interface: one access costs one bucket fetch per active
    level, so ``height`` is the number of active levels.
    """

    def __init__(self, bucket_size: int = 4, query_cpu_us: float = 25.0) -> None:
        self.bucket_size = bucket_size
        self.query_cpu_us = query_cpu_us
        self.stats = HierarchicalServerStats()
        self._levels: dict[int, list[list[bytes]]] = {}
        self._observers: list[Callable[[SlotAccessEvent], None]] = []
        self._op_index = 0

    # -- adversary taps ------------------------------------------------

    def add_observer(self, callback: Callable[[SlotAccessEvent], None]) -> None:
        self._observers.append(callback)

    # -- cost-model interface (shared with OramServer) -----------------

    @property
    def height(self) -> int:
        return max(1, len(self._levels))

    # -- the probe path ------------------------------------------------

    def read_bucket(
        self, level: int, bucket: int, sim_time_us: float = 0.0
    ) -> list[bytes]:
        self._op_index += 1
        event = SlotAccessEvent(self._op_index, level, bucket, sim_time_us)
        for observer in self._observers:
            observer(event)
        self.stats.bucket_reads += 1
        self.stats.busy_time_us += self.query_cpu_us
        return list(self._levels[level][bucket])

    # -- rebuild streaming ---------------------------------------------

    def export_level(self, level: int) -> list[list[bytes]]:
        """Stream a whole level out for a rebuild (data-independent)."""
        buckets = self._levels[level]
        self.stats.blocks_streamed += sum(len(bucket) for bucket in buckets)
        self.stats.busy_time_us += self.query_cpu_us * len(buckets)
        return [list(bucket) for bucket in buckets]

    def install_level(self, level: int, buckets: list[list[bytes]]) -> None:
        self.stats.rebuild_installs += 1
        self.stats.blocks_streamed += sum(len(bucket) for bucket in buckets)
        self.stats.busy_time_us += self.query_cpu_us * len(buckets)
        self._levels[level] = [list(bucket) for bucket in buckets]

    def clear_level(self, level: int) -> None:
        self._levels.pop(level, None)

    # -- adversarial snapshot (test harness parity) --------------------

    def snapshot_levels(self) -> dict[int, list[list[bytes]]]:
        return {
            level: [list(bucket) for bucket in buckets]
            for level, buckets in self._levels.items()
        }


@dataclass(slots=True)
class _LevelMeta:
    """The client's trusted per-level state: geometry + epoch secret."""

    seed: bytes
    epoch: int
    buckets: int
    slots: int


class PyramidOramClient:
    """Trusted client for :class:`HierarchicalOramServer`.

    Interface-compatible with :class:`~repro.oram.client.PathOramClient`
    where the adapter seam needs it: ``block_size``, ``server``,
    ``stats``, ``last_access``, ``read``/``write``/``access``.  The
    recovery journal seam (``.recovery``) exists but is never fed —
    pyramid shards have no per-access stash delta to journal; they are
    checkpointed wholesale or not at all (see ``repro.sharding``).
    """

    def __init__(
        self,
        server: HierarchicalOramServer,
        key: bytes,
        block_size: int = 1024,
        cache_limit: int = 32,
        rng: Drbg | None = None,
        cipher_factory=Blake2Aead,
        clock=None,
    ) -> None:
        if cache_limit < 2:
            raise ValueError("cache_limit must be >= 2")
        self.server = server
        self.block_size = block_size
        self.cache_limit = cache_limit
        self._clock = clock
        self.recovery = None
        self.memo = None  # decrypt memoization is a path-client feature
        self._rng = rng or Drbg(key, personalization=b"pyramid-client")
        self._cipher: AeadCipher = cipher_factory(key)
        self._cache: dict[BlockKey, bytes | None] = {}
        self._levels: dict[int, _LevelMeta] = {}
        self._nonce_counter = 0
        self._epoch_counter = 0
        self.rebuilds = 0
        self.stats = ClientStats()
        self.last_access = AccessSummary()

    # -- geometry ------------------------------------------------------

    def _base_buckets(self) -> int:
        # Mean load of 2 real blocks per bucket at capacity.
        return max(2, -(-self.cache_limit // 2))

    def _buckets_at(self, level: int) -> int:
        return self._base_buckets() << (level - 1)

    def _slots_at(self, level: int) -> int:
        # Logarithmic slack over the nominal bucket size keeps the
        # max-loaded bucket (~ln B / ln ln B balls) from overflowing.
        return self.server.bucket_size + self._buckets_at(level).bit_length()

    def _capacity(self, level: int) -> int:
        return 2 * self._buckets_at(level)

    # -- wire format (the shared slot body, hierarchical AAD) ----------

    @staticmethod
    def _bucket_aad(level: int, epoch: int, bucket: int) -> bytes:
        return (
            level.to_bytes(2, "big")
            + epoch.to_bytes(8, "big")
            + bucket.to_bytes(4, "big")
        )

    def _next_nonce(self) -> bytes:
        self._nonce_counter += 1
        return self._nonce_counter.to_bytes(12, "big")

    def _encrypt_slot(
        self, kind: int, key: BlockKey, payload: bytes, aad: bytes
    ) -> bytes:
        body = slot.encode(kind, key, payload, self.block_size)
        nonce = self._next_nonce()
        self.stats.blocks_encrypted += 1
        return nonce + self._cipher.encrypt(nonce, body, aad)

    def _decrypt_slot(self, blob: bytes, aad: bytes) -> tuple[int, BlockKey, bytes]:
        plain = self._cipher.decrypt(blob[:12], blob[12:], aad)
        self.stats.blocks_decrypted += 1
        return slot.decode(plain, self.block_size)

    def _dummy_slot(self, aad: bytes) -> bytes:
        return self._encrypt_slot(slot.KIND_DUMMY, b"", b"", aad)

    def _prf_bucket(self, meta: _LevelMeta, key: BlockKey) -> int:
        digest = hashlib.blake2b(key, digest_size=8, key=meta.seed).digest()
        return int.from_bytes(digest, "big") % meta.buckets

    # -- the access protocol -------------------------------------------

    def access(
        self,
        key: BlockKey,
        write_data: bytes | None = None,
        sim_time_us: float = 0.0,
        modify: Callable[[bytes | None], bytes | None] | None = None,
    ) -> bytes | None:
        """One oblivious access: probe every level, then update the cache.

        ``modify`` is the path client's: handed the payload the probes
        found, it returns what to write (``None`` to write nothing).
        """
        if write_data is not None and len(write_data) > self.block_size:
            raise ValueError("write larger than the ORAM block size")
        self.stats.accesses += 1
        found: object = _MISSING
        if key in self._cache:
            found = self._cache[key]
        for level in sorted(self._levels):
            meta = self._levels[level]
            if found is _MISSING:
                bucket = self._prf_bucket(meta, key)
            else:
                bucket = self._rng.randint(meta.buckets)  # dummy probe
            aad = self._bucket_aad(level, meta.epoch, bucket)
            for blob in self.server.read_bucket(level, bucket, sim_time_us):
                kind, blob_key, payload = self._decrypt_slot(blob, aad)
                if found is _MISSING and kind != slot.KIND_DUMMY and blob_key == key:
                    found = payload if kind == slot.KIND_REAL else None
        result: bytes | None = None if found is _MISSING else found  # type: ignore[assignment]
        if modify is not None:
            write_data = modify(result)
        if write_data is not None:
            result = write_data.ljust(self.block_size, b"\x00")
            self._cache[key] = result
        else:
            # Cache hits *and* misses: a re-asked key must never repeat
            # its PRF positions, so absence is cached as a negative.
            self._cache[key] = result
        self.stats.stash_history.append(len(self._cache))
        self.stats.max_stash_blocks = max(self.stats.max_stash_blocks, len(self._cache))
        self.last_access = AccessSummary(stash_blocks=len(self._cache))
        if len(self._cache) >= self.cache_limit:
            self._rebuild()
        return result

    def read(self, key: BlockKey, sim_time_us: float = 0.0) -> bytes | None:
        return self.access(key, None, sim_time_us)

    def write(self, key: BlockKey, data: bytes, sim_time_us: float = 0.0) -> None:
        self.access(key, data, sim_time_us)

    # -- rebuilds ------------------------------------------------------

    def _fold_level(
        self, level: int, merged: dict[BlockKey, tuple[int, bytes]]
    ) -> None:
        meta = self._levels[level]
        for bucket, blobs in enumerate(self.server.export_level(level)):
            aad = self._bucket_aad(level, meta.epoch, bucket)
            for blob in blobs:
                kind, key, payload = self._decrypt_slot(blob, aad)
                if kind != slot.KIND_DUMMY and key not in merged:
                    merged[key] = (kind, payload)

    def _rebuild(self) -> None:
        """Merge cache + overflowing levels into a fresh-epoch level.

        Shallower state is always fresher, and the merge keeps the
        *first* copy seen (cache, then levels top-down), so the newest
        version of every block survives.
        """
        merged: dict[BlockKey, tuple[int, bytes]] = {}
        for key, payload in self._cache.items():
            if payload is None:
                merged[key] = (slot.KIND_NEGATIVE, b"")
            else:
                merged[key] = (slot.KIND_REAL, payload)
        active = sorted(self._levels)
        target = 1
        folded: set[int] = set()
        while True:
            for level in active:
                if level <= target and level not in folded:
                    self._fold_level(level, merged)
                    folded.add(level)
            if len(merged) <= self._capacity(target):
                break
            target += 1
        if all(level <= target for level in active):
            # Folding everything: absence is re-derivable by a full
            # scan, so negative witnesses need not be carried forward.
            merged = {
                key: entry
                for key, entry in merged.items()
                if entry[0] != slot.KIND_NEGATIVE
            }
        buckets = self._buckets_at(target)
        slots = self._slots_at(target)
        layout: list[list[tuple[BlockKey, tuple[int, bytes]]]] = []
        seed = b""
        for _attempt in range(16):
            seed = self._rng.random_bytes(16)
            layout = [[] for _ in range(buckets)]
            probe = _LevelMeta(seed=seed, epoch=0, buckets=buckets, slots=slots)
            for key, entry in merged.items():
                index = self._prf_bucket(probe, key)
                if len(layout[index]) == slots:
                    break
                layout[index].append((key, entry))
            else:
                break
        else:
            raise LevelBuildError(
                f"level {target}: {len(merged)} blocks would not hash into "
                f"{buckets} buckets of {slots} slots"
            )
        self._epoch_counter += 1
        epoch = self._epoch_counter
        encrypted: list[list[bytes]] = []
        for index, items in enumerate(layout):
            aad = self._bucket_aad(target, epoch, index)
            blobs = [
                self._encrypt_slot(kind, key, payload, aad)
                for key, (kind, payload) in items
            ]
            while len(blobs) < slots:
                blobs.append(self._dummy_slot(aad))
            encrypted.append(blobs)
        self.server.install_level(target, encrypted)
        for level in active:
            if level <= target and level != target:
                self.server.clear_level(level)
                self._levels.pop(level, None)
        self._levels[target] = _LevelMeta(
            seed=seed, epoch=epoch, buckets=buckets, slots=slots
        )
        self._cache.clear()
        self.rebuilds += 1

    def logical_content(
        self, server: HierarchicalOramServer
    ) -> dict[BlockKey, bytes]:
        """Every live block across ``server``'s levels and the cache, by
        key (the pyramid twin of ``PathOramClient.logical_content``)."""
        content: dict[BlockKey, bytes] = {}
        levels = server.snapshot_levels()
        # Deep levels first so shallower (fresher) copies overwrite them.
        for level in sorted(levels, reverse=True):
            meta = self._levels[level]
            for bucket_index, blobs in enumerate(levels[level]):
                aad = self._bucket_aad(level, meta.epoch, bucket_index)
                for blob in blobs:
                    kind, key, payload = slot.decode(
                        self._cipher.decrypt(blob[:12], blob[12:], aad),
                        self.block_size,
                    )
                    if kind == slot.KIND_REAL:
                        content[key] = payload
                    elif kind != slot.KIND_DUMMY:  # negative witness: key known absent
                        content.pop(key, None)
        for key, payload in self._cache.items():
            if payload is None:
                content.pop(key, None)
            else:
                content[key] = payload
        return content
