"""The sharding plane: world state partitioned across an ORAM fleet.

Beyond the paper, which runs one Path ORAM per deployment.  Sits beside
``repro.serving`` above the substrates: a consistent-hash ring places
page keys on shards (``ring``), and a routing client presents the fleet
behind the ``oram.adapter`` seam (``backend``).  Obs-bench, SEC's
per-shard leg and the e2e ledger drive a fleet; no device runs on one.
The session router places sessions on the ring.
"""
