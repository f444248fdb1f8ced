"""repro.recovery — crash-consistent checkpointing and SP rollback defense.

The recovery plane keeps a HarDTAPE deployment *the same deployment*
across a Hypervisor crash: trusted state (ORAM stash/position map,
anti-rollback version pins, the AEAD nonce counter, session metadata,
the last verified sync root) is sealed into an untrusted
:class:`DurableStore` as periodic checkpoints plus a write-ahead
journal; recovery unseals the latest checkpoint, replays the journal
(idempotent by construction), rebuilds the ORAM client, and re-attests
every tenant.  Freshness of the store is pinned by the device's hardware
monotonic counter; freshness of the SP's ORAM tree by the restored
per-node version pins.

``repro.recovery.bench`` is imported lazily (it pulls in the serving
stack); everything else is re-exported here.
"""

from repro.recovery.store import DurableStore
from repro.recovery.state import SessionRecord, TrustedState
from repro.recovery import journal
from repro.recovery.manager import RecoveryIntegrityError, RecoveryManager
from repro.recovery.supervisor import HypervisorSupervisor

__all__ = [
    "DurableStore",
    "HypervisorSupervisor",
    "RecoveryIntegrityError",
    "RecoveryManager",
    "SessionRecord",
    "TrustedState",
    "journal",
]
