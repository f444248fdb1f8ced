"""The Path ORAM server: untrusted bucket-tree storage run by the SP.

The server stores one opaque ciphertext per bucket of a complete binary
tree and answers path reads/writes.  A bucket's ciphertext seals all Z
of its slots at once (:mod:`repro.oram.slot`), so every stored bucket is
the same fixed length and says nothing of how many real blocks it holds.
Everything the server observes — which physical paths are touched, when,
and the (identical-looking) ciphertexts — is recorded through an
observer hook so the security benchmarks can play the adversary (attack
A7) with exactly the server's view and nothing more.

Per the paper's scalability analysis (§VI-D), the server charges a fixed
CPU cost per query so the 25 µs/query capacity bound can be measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.oram import slot


class OramServerStall(Exception):
    """The untrusted server did not answer a path read in time.

    Raised by faulty/slow server frontends (see
    :class:`repro.faults.injector.FaultyOramServer`) instead of blocking:
    the simulation has no wall clock to hang on, so a stall is a typed
    signal carrying the virtual-time delay the server would have taken.
    The client compares the delay against its response budget and either
    absorbs it or raises :class:`~repro.oram.client.OramTimeoutError`.
    """

    def __init__(self, delay_us: float) -> None:
        super().__init__(f"ORAM server stalled for {delay_us:.0f} µs")
        self.delay_us = delay_us


@dataclass(slots=True)
class PathAccessEvent:
    """What the SP sees for one ORAM access: a physical path, a time."""

    op_index: int
    leaf: int
    node_indices: tuple[int, ...]
    sim_time_us: float


@dataclass
class ServerStats:
    """Load accounting for the scalability bench."""

    reads: int = 0
    writes: int = 0
    busy_time_us: float = 0.0


class OramServer:
    """Heap-indexed complete binary tree of buckets holding ciphertexts.

    Nodes are numbered 1..2^(height+1)-1; leaves are
    ``2^height + leaf``.  A written bucket is one ciphertext of exactly
    ``bucket_bytes`` bytes — ``bucket_size`` slots of ``block_size``
    payload bytes, dummies included, sealed together — so bucket
    contents are always the same shape on the wire.  A bucket never
    written is ``b""``.
    """

    def __init__(
        self,
        height: int,
        bucket_size: int = 4,
        block_size: int = 1024,
        query_cpu_us: float = 25.0,
    ) -> None:
        if height < 0:
            raise ValueError("height must be non-negative")
        self.height = height
        self.bucket_size = bucket_size
        self.block_size = block_size
        self.bucket_bytes = slot.bucket_bytes(bucket_size, block_size)
        self.query_cpu_us = query_cpu_us
        self.leaf_count = 1 << height
        node_count = (1 << (height + 1))  # index 0 unused
        self._buckets: list[bytes] = [b""] * node_count
        self.stats = ServerStats()
        self._observers: list[Callable[[PathAccessEvent], None]] = []
        self._op_index = 0

    # -- adversary hooks -------------------------------------------------

    def add_observer(self, observer: Callable[[PathAccessEvent], None]) -> None:
        self._observers.append(observer)

    def _notify(self, leaf: int, nodes: tuple[int, ...], sim_time_us: float) -> None:
        event = PathAccessEvent(self._op_index, leaf, nodes, sim_time_us)
        self._op_index += 1
        for observer in self._observers:
            observer(event)

    # -- tree geometry ---------------------------------------------------

    def path_nodes(self, leaf: int) -> tuple[int, ...]:
        """Node indices from the root down to ``leaf``."""
        if not 0 <= leaf < self.leaf_count:
            raise ValueError(f"leaf {leaf} out of range")
        node = self.leaf_count + leaf
        nodes = []
        while node >= 1:
            nodes.append(node)
            node //= 2
        return tuple(reversed(nodes))

    # -- storage protocol --------------------------------------------------

    def read_path(self, leaf: int, sim_time_us: float = 0.0) -> dict[int, bytes]:
        """Return the bucket ciphertext of every node on the path to ``leaf``."""
        nodes = self.path_nodes(leaf)
        self._notify(leaf, nodes, sim_time_us)
        self.stats.reads += 1
        self.stats.busy_time_us += self.query_cpu_us
        buckets = self._buckets
        return {node: buckets[node] for node in nodes}

    def write_path(
        self, leaf: int, buckets: dict[int, bytes], sim_time_us: float = 0.0
    ) -> None:
        """Replace the buckets along the path to ``leaf``.

        Every written bucket must be one ciphertext of exactly
        ``bucket_bytes`` bytes — the shape invariant that makes all
        writes look identical.  The write is checked whole before any
        bucket is stored.
        """
        nodes = set(self.path_nodes(leaf))
        for node, bucket in buckets.items():
            if node not in nodes:
                raise ValueError(f"node {node} is not on the path to leaf {leaf}")
            if not isinstance(bucket, bytes) or len(bucket) != self.bucket_bytes:
                raise ValueError(
                    f"bucket must be one ciphertext of {self.bucket_bytes} bytes"
                )
        self.stats.writes += 1
        stored = self._buckets
        for node, bucket in buckets.items():
            stored[node] = bucket

    def capacity_blocks(self) -> int:
        """Total real-block capacity of the tree."""
        return (2 * self.leaf_count - 1) * self.bucket_size

    # ------------------------------------------------------------------
    # Adversary/recovery tree manipulation
    # ------------------------------------------------------------------

    def snapshot_tree(self) -> list[bytes]:
        """Copy out every bucket — what a malicious SP squirrels away."""
        return list(self._buckets)

    def restore_tree(self, snapshot: list[bytes]) -> None:
        """Overwrite the tree with an earlier snapshot (rollback attack).

        The snapshot is stored as given: an SP that restores a tampered
        tree is exactly what the client's checks are for."""
        if len(snapshot) != len(self._buckets):
            raise ValueError("snapshot geometry mismatch")
        self._buckets = list(snapshot)

    def reset_tree(self) -> None:
        """Drop every stored bucket (the client's re-sync policy rebuilds
        the tree from verified chain state)."""
        self._buckets = [b""] * len(self._buckets)
