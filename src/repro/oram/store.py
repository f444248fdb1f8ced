"""Building an ORAM store: the one build path.

A *store* is an untrusted Path ORAM server plus the trusted client
that drives it, with the stash and position map on chip (§IV-D).  The
geometry every deployment shares is decided here and nowhere else;
callers pass in only what differs between them — the key, RNG and
clock they derived, the tree height, and the response budget.  The
builders derive no secret and draw no randomness of their own.
"""

from __future__ import annotations

from repro.crypto.kdf import Drbg
from repro.oram.client import PathOramClient
from repro.oram.paging import PAGE_SIZE
from repro.oram.server import OramServer

# What no deployment varies (the paper's prototype values).
BUCKET_SIZE = 4
STASH_LIMIT_BLOCKS = 1024  # ~1 MB of on-chip stash
DECRYPT_MEMO_BLOCKS = 4096  # host-process cache, invisible to the simulation
QUERY_CPU_US = 25.0  # SP-side CPU per query where no cost model prices it


def build_server(
    *, height: int, block_size: int = PAGE_SIZE, query_cpu_us: float = QUERY_CPU_US
) -> OramServer:
    """The untrusted half: a path tree of ``height`` whose buckets seal
    ``block_size``-byte blocks."""
    return OramServer(
        height=height,
        bucket_size=BUCKET_SIZE,
        block_size=block_size,
        query_cpu_us=query_cpu_us,
    )


def build_client(
    server: OramServer,
    key: bytes,
    *,
    block_size: int = PAGE_SIZE,
    rng: Drbg | None = None,
    clock=None,
    response_budget_us: float | None = None,
) -> PathOramClient:
    """The trusted half, over ``server``."""
    return PathOramClient(
        server,
        key,
        block_size=block_size,
        stash_limit=STASH_LIMIT_BLOCKS,
        rng=rng,
        clock=clock,
        response_budget_us=response_budget_us,
        decrypt_memo_blocks=DECRYPT_MEMO_BLOCKS,
    )
