"""Path ORAM and the oblivious paged world-state store."""

from repro.oram.adapter import ObliviousStateBackend, QueryRecord, QueryStats
from repro.oram.client import (
    ClientStats,
    DictPositionMap,
    PathOramClient,
    StashOverflow,
)
from repro.oram.encrypted_store import EncryptedKvStore
from repro.oram.hierarchical import (
    HierarchicalOramServer,
    PyramidOramClient,
    SlotAccessEvent,
)
from repro.oram.pancake import (
    FrequencySmoothedStore,
    rate_deviation_attack,
)
from repro.oram.paging import (
    PAGE_SIZE,
    PageDirectory,
    account_page_key,
    code_page_key,
    decode_account_page,
    decode_storage_record,
    encode_account_page,
    encode_storage_page,
    storage_page_key,
)
from repro.oram.prefetch import CodePrefetcher, PrefetchPlanEntry
from repro.oram.recursive import RecursivePositionMap
from repro.oram.server import OramServer, PathAccessEvent, ServerStats

__all__ = [
    "ClientStats",
    "CodePrefetcher",
    "DictPositionMap",
    "EncryptedKvStore",
    "FrequencySmoothedStore",
    "HierarchicalOramServer",
    "ObliviousStateBackend",
    "OramServer",
    "PAGE_SIZE",
    "PageDirectory",
    "PathAccessEvent",
    "PathOramClient",
    "PrefetchPlanEntry",
    "PyramidOramClient",
    "QueryRecord",
    "QueryStats",
    "RecursivePositionMap",
    "ServerStats",
    "SlotAccessEvent",
    "StashOverflow",
    "rate_deviation_attack",
    "account_page_key",
    "code_page_key",
    "decode_account_page",
    "decode_storage_record",
    "encode_account_page",
    "encode_storage_page",
    "storage_page_key",
]
