"""Building an ORAM store: the one backend-name table and build path.

A *store* is an untrusted server plus the trusted client that drives
it.  Which classes a backend name stands for, and the geometry every
deployment shares, are decided here and nowhere else; callers pass in
only what differs between them — the key, RNG and clock they derived,
the tree height, and the per-deployment knobs below.  The builders
derive no secret and draw no randomness of their own.
"""

from __future__ import annotations

from repro.crypto.backend import UnknownBackendError
from repro.crypto.kdf import Drbg
from repro.oram.client import PathOramClient
from repro.oram.hierarchical import HierarchicalOramServer, PyramidOramClient
from repro.oram.paging import PAGE_SIZE
from repro.oram.recursive import DirectoryPositionMap
from repro.oram.server import OramServer

# backend name -> (server class, client class)
BACKENDS = {
    "path": (OramServer, PathOramClient),
    "pyramid": (HierarchicalOramServer, PyramidOramClient),
}

# What no deployment varies (the paper's prototype values).
BUCKET_SIZE = 4
STASH_LIMIT_BLOCKS = 1024  # ~1 MB of on-chip stash
DECRYPT_MEMO_BLOCKS = 4096  # host-process cache, invisible to the simulation
QUERY_CPU_US = 25.0  # SP-side CPU per query where no cost model prices it


def check_backend(backend: str) -> None:
    """Raise the typed error for a name the table does not hold."""
    if backend not in BACKENDS:
        raise UnknownBackendError("oram", backend, tuple(BACKENDS))


def build_server(
    backend: str, *, height: int, query_cpu_us: float = QUERY_CPU_US
) -> OramServer | HierarchicalOramServer:
    """The untrusted half.  ``height`` sizes the path tree; a pyramid
    store grows its levels on demand and has no use for it."""
    check_backend(backend)
    server_class = BACKENDS[backend][0]
    geometry = {"height": height} if server_class is OramServer else {}
    return server_class(
        bucket_size=BUCKET_SIZE, query_cpu_us=query_cpu_us, **geometry
    )


def build_client(
    backend: str,
    server: OramServer | HierarchicalOramServer,
    key: bytes,
    *,
    block_size: int = PAGE_SIZE,
    rng: Drbg | None = None,
    clock=None,
    response_budget_us: float | None = None,
    posmap_key: bytes | None = None,
    pyramid_cache_blocks: int = 32,
) -> PathOramClient | PyramidOramClient:
    """The trusted half, over ``server``.

    ``posmap_key`` keeps the position map in a smaller ORAM under that
    key (§II-C recursion) instead of on chip; like
    ``response_budget_us`` it applies to the path protocol only.
    """
    check_backend(backend)
    client_class = BACKENDS[backend][1]
    if client_class is PyramidOramClient:
        if posmap_key is not None:
            raise ValueError(
                "recursive position maps apply to the path backend only"
            )
        protocol = {"cache_limit": pyramid_cache_blocks}
    else:
        position_map = None
        if posmap_key is not None:
            position_map = DirectoryPositionMap(
                capacity=server.capacity_blocks(), key=posmap_key
            )
        protocol = {
            "stash_limit": STASH_LIMIT_BLOCKS,
            "position_map": position_map,
            "response_budget_us": response_budget_us,
            "decrypt_memo_blocks": DECRYPT_MEMO_BLOCKS,
        }
    return client_class(
        server, key, block_size=block_size, rng=rng, clock=clock, **protocol
    )
