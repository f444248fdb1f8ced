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

``repro.recovery.bench`` pulls in the serving stack; nothing else in
the plane does.
"""
