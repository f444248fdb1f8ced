"""Unit tests for the Pyramid-style hierarchical ORAM backend."""

import pytest

from repro.crypto.backend import UnknownBackendError
from repro.crypto.suite import AuthenticationError
from repro.crypto.kdf import Drbg
from repro.oram.client import PathOramClient
from repro.oram.hierarchical import (
    HierarchicalOramServer,
    PyramidOramClient,
)
from repro.oram.server import OramServer
from repro.oram.store import BACKENDS, build_client, build_server

pytestmark = pytest.mark.sharding

KEY = b"p" * 32


def _client(cache_limit=8, **kwargs):
    server = HierarchicalOramServer(bucket_size=4)
    return PyramidOramClient(server, KEY, block_size=64,
                             cache_limit=cache_limit, **kwargs), server


def test_read_write_matches_reference_model():
    client, server = _client(cache_limit=8)
    reference: dict[bytes, bytes] = {}
    rng = Drbg(b"pyramid-test")
    keys = [b"key-%02d" % i for i in range(24)]
    for step in range(600):
        key = keys[rng.randint(len(keys))]
        if rng.randint(3) == 0:
            value = b"v%04d" % step
            client.write(key, value)
            reference[key] = value.ljust(64, b"\x00")
        else:
            got = client.read(key)
            expected = reference.get(key)
            assert got == expected, (step, key)
    assert client.rebuilds > 0  # the cache spilled and levels exist
    assert server.snapshot_levels()


def test_absent_keys_read_none_repeatedly():
    client, server = _client(cache_limit=16)
    for i in range(8):
        client.write(b"real-%d" % i, b"x")
    assert client.read(b"ghost") is None
    # The miss is cached as a negative witness: asking again is served
    # obliviously (dummy probes) and still answers None.
    assert client.read(b"ghost") is None
    assert client.read(b"real-3") == b"x".ljust(64, b"\x00")


def test_every_access_probes_every_active_level():
    client, server = _client(cache_limit=4)
    for i in range(12):
        client.write(b"k%d" % i, b"v")  # force several rebuilds
    active = len(server.snapshot_levels())
    assert active >= 1
    before = server.stats.bucket_reads
    client.read(b"k0")
    client.read(b"ghost")
    # Hit or miss, cached or not: exactly one bucket per level per access.
    assert server.stats.bucket_reads - before == 2 * active


def test_seeded_runs_are_byte_identical():
    def run():
        client, server = _client(cache_limit=6)
        for i in range(40):
            client.write(b"key-%02d" % (i % 13), b"val-%02d" % i)
            client.read(b"key-%02d" % ((i * 7) % 13))
        return server.snapshot_levels()

    first, second = run(), run()
    assert first.keys() == second.keys()
    assert first == second


def test_level_rollback_fails_authentication():
    client, server = _client(cache_limit=4)
    for i in range(4):
        client.write(b"k%d" % i, b"v")  # rebuild #1: level 1, epoch 1
    assert client.rebuilds == 1
    stale = server.snapshot_levels()
    for i in range(4):
        client.write(b"k%d" % i, b"w")  # rebuild #2: same level, epoch 2
    assert client.rebuilds == 2
    for level, buckets in stale.items():
        server.install_level(level, buckets)  # the SP replays the epoch-1 level
    with pytest.raises(AuthenticationError):
        client.read(b"k0")


def test_cache_limit_validation():
    server = HierarchicalOramServer()
    with pytest.raises(ValueError):
        PyramidOramClient(server, KEY, cache_limit=1)
    client = PyramidOramClient(server, KEY, block_size=16, cache_limit=2)
    with pytest.raises(ValueError):
        client.write(b"k", b"x" * 17)


def test_build_oram_server_factory():
    """One name table builds both halves of a store, or refuses typed."""
    assert set(BACKENDS) == {"path", "pyramid"}
    path = build_server("path", height=5)
    assert isinstance(path, OramServer) and path.height == 5
    assert isinstance(build_client("path", path, KEY), PathOramClient)
    pyramid = build_server("pyramid", height=5)
    assert isinstance(pyramid, HierarchicalOramServer)
    client = build_client("pyramid", pyramid, KEY, pyramid_cache_blocks=8)
    assert isinstance(client, PyramidOramClient) and client.cache_limit == 8
    with pytest.raises(ValueError):
        build_client("pyramid", pyramid, KEY, posmap_key=KEY)
    for build in (
        lambda: build_server("cuckoo", height=5),
        lambda: build_client("cuckoo", path, KEY),
    ):
        with pytest.raises(UnknownBackendError) as excinfo:
            build()
        assert excinfo.value.kind == "oram" and "pyramid" in str(excinfo.value)
