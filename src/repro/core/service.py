"""The SP-side pre-execution service.

Owns the Node, the ORAM server, and one or more HarDTAPE devices; keeps
the ORAM synchronized with the chain tip; and routes user sessions to
devices.  Note the trust split the design is all about: everything here
runs on SP hardware and is *untrusted* except the chip internals modeled
by :class:`~repro.core.device.HarDTAPEDevice`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.puf import Manufacturer
from repro.evm.interpreter import ChainContext
from repro.hardware.timing import CostModel, SimClock, TimeBreakdown
from repro.hypervisor.hypervisor import SecurityFeatures, UnknownSessionError
from repro.hypervisor.sync import SyncError
from repro.node.node import EthereumNode
from repro.oram.server import OramServer
from repro.oram.store import build_server
from repro.telemetry.tracer import tracer_for
from repro.core.device import DeviceConfig, HarDTAPEDevice
from repro.state.account import Account
from repro.state.blocks import BlockHeader
from repro.state.world import WorldState


class NoIdleHevmError(RuntimeError):
    """Every HEVM across every device is busy (saturation, not a bug).

    The serving layer (`repro.serving.gateway`) consumes this typed
    signal to queue or shed instead of crashing the caller.
    """


@dataclass
class ServiceStats:
    bundles_served: int = 0
    transactions_served: int = 0
    blocks_synced: int = 0
    total_service_time_us: float = 0.0
    # Every served transaction's breakdown, summed in serving order.
    breakdown_total: TimeBreakdown = field(default_factory=TimeBreakdown)
    # Fault-plane observability: bundles bounced for naming a session
    # this device never opened.
    unknown_sessions: int = 0


class HarDTAPEService:
    """The pre-execution service a user connects to."""

    def __init__(
        self,
        node: EthereumNode,
        features: SecurityFeatures,
        manufacturer: Manufacturer | None = None,
        device_count: int = 1,
        device_config: DeviceConfig | None = None,
        cost: CostModel | None = None,
        charge_fees: bool = True,
    ) -> None:
        self.node = node
        self.features = features
        self.manufacturer = manufacturer or Manufacturer(b"hardtape-manufacturer")
        self.clock = SimClock()
        self.cost = cost or CostModel()
        self.charge_fees = charge_fees
        device_config = device_config or DeviceConfig()

        need_oram = features.oram_storage or features.oram_code
        self.oram_server: OramServer | None = (
            build_server(
                height=device_config.oram_height,
                query_cpu_us=self.cost.oram_server_cpu_us,
            )
            if need_oram
            else None
        )
        # "For ORAM-disabled configurations these data are prefetched to
        # the untrusted memory" — the direct backend is that prefetch;
        # for ORAM configurations it doubles as the functional shadow.
        self._synced_state: WorldState = node.state_at(node.height).copy()
        self.devices: list[HarDTAPEDevice] = []
        shared_oram_key: bytes | None = None
        shared_oram_client = None
        for index in range(device_count):
            device = HarDTAPEDevice(
                manufacturer=self.manufacturer,
                serial=b"HDTP-%04d" % index,
                features=features,
                direct_backend=self._synced_state,
                oram_server=self.oram_server,
                clock=self.clock,
                cost=self.cost,
                config=device_config,
                oram_key=shared_oram_key,
                # One deployment = one ORAM trust state: the first
                # device's client (stash, position map, anti-rollback
                # versions) is shared, like the key, over device DHKE.
                oram_client=shared_oram_client,
            )
            if shared_oram_key is None:
                shared_oram_key = device.hypervisor.oram_key
            if shared_oram_client is None and device.oram_backend is not None:
                shared_oram_client = device.oram_backend.client
            self.devices.append(device)
        self.synced_height = node.height
        self.stats = ServiceStats()
        if need_oram:
            # Bootstrap: bulk-load the synced state into the ORAM, the
            # paper's setup where the evaluation-set data is "synchronized
            # to the ORAM server" before measurements start.
            self.devices[0].oram_backend.sync_world(self._synced_state.accounts)

    # ------------------------------------------------------------------
    # Shared ORAM trust state (recovery plane)
    # ------------------------------------------------------------------

    @property
    def shared_oram_client(self):
        """The deployment's single ORAM client, or ``None`` without ORAM."""
        for device in self.devices:
            if device.oram_backend is not None:
                return device.oram_backend.client
        return None

    def install_oram_client(self, client) -> None:
        """Repoint every device's oblivious backend at ``client``.

        The recovery path for a deployment-shared client: after a crash
        the successor client (rebuilt from checkpoint + journal) must
        replace the dead one on *all* devices, or the fleet would split
        into divergent stash/position/version views of one tree.
        """
        for device in self.devices:
            if device.oram_backend is not None:
                device.oram_backend.replace_client(client)

    # ------------------------------------------------------------------
    # Block synchronization (workflow step 11)
    # ------------------------------------------------------------------

    # A stale/forked header from a flaky Node is transient: re-fetching
    # the canonical block almost always clears it.  Deliberate tampering
    # is not — after this many rejections we surface the SyncError.
    SYNC_RETRY_LIMIT = 3

    def sync_new_blocks(self) -> int:
        """Verify-and-ingest every block past the synced height."""
        synced = 0
        device = self.devices[0]
        while self.synced_height < self.node.height:
            target = self.synced_height + 1
            executed = self.node.block_at(target)
            updates = self.node.sync_updates_for(target)
            # Byzantine seam (``sync-equivocate``): the device claims the
            # block was ingested but withholds it from its ORAM.  The
            # shadow copy and synced height still advance — the lie is
            # internally consistent — so detection falls to the receipt
            # audit, which compares pre-execution traces against node
            # ground truth at the *claimed* height.
            withheld = (
                device.hypervisor.faults is not None
                and device.hypervisor.faults.on_sync_equivocate(
                    self.clock.now_us
                )
            )
            if device.oram_backend is not None and not withheld:
                for attempt in range(self.SYNC_RETRY_LIMIT + 1):
                    try:
                        device.hypervisor.sync_block(
                            executed.block.header.state_root, updates
                        )
                        break
                    except SyncError:
                        if attempt == self.SYNC_RETRY_LIMIT:
                            raise
            # Mirror the Node's post-state into the untrusted shadow copy.
            for update in updates:
                self._synced_state.accounts[update.address] = (
                    executed.post_state.accounts.get(update.address, Account()).copy()
                )
            self.synced_height = target
            self.stats.blocks_synced += 1
            synced += 1
        return synced

    def repair_sync(self) -> int:
        """Replay every synced block into the ORAM, unconditionally.

        The quarantine policy's answer to ``sync-equivocate``: after an
        audit exposes stale pre-execution, replaying the full update
        history converges the ORAM onto the canonical tip (a delta is a
        set of absolute assignments, so later blocks rewrite any page an
        equivocated block touched) and leaves ``last_verified_root`` at
        the tip's root.  Idempotent — replaying honestly-synced blocks
        rewrites the same values.
        """
        device = self.devices[0]
        if device.oram_backend is None:
            return 0
        replayed = 0
        for height in range(1, self.synced_height + 1):
            executed = self.node.block_at(height)
            updates = self.node.sync_updates_for(height)
            # The device holds the tip, not this block's parent, so a
            # replayed block may prove a code hash it no longer holds:
            # ship the code the block left unchanged as well.
            for update in updates:
                if update.code is None:
                    update.code = executed.post_state.get_code(update.address)
            device.hypervisor.sync_block(
                executed.block.header.state_root, updates
            )
            replayed += 1
        return replayed

    # ------------------------------------------------------------------
    # Session + bundle front door
    # ------------------------------------------------------------------

    def pick_device(self) -> HarDTAPEDevice:
        """Route to a device with an idle HEVM, or raise :class:`NoIdleHevmError`."""
        device = self.try_pick_device()
        if device is None:
            raise NoIdleHevmError(
                f"all {sum(d.config.hevm_count for d in self.devices)} HEVMs "
                f"across {len(self.devices)} device(s) are busy"
            )
        return device

    def try_pick_device(self) -> HarDTAPEDevice | None:
        """The first device with the most idle HEVMs; ``None`` when
        every core is busy."""
        candidates = [d for d in self.devices if d.idle_hevms > 0]
        if not candidates:
            return None
        return max(candidates, key=lambda d: d.idle_hevms)

    def pending_chain_context(self) -> ChainContext:
        """Simulate against a pending header on top of the synced tip."""
        tip = self.node.block_at(self.synced_height).block.header
        pending = BlockHeader(
            number=tip.number + 1,
            parent_hash=tip.block_hash(),
            state_root=tip.state_root,
            timestamp=tip.timestamp + self.node.block_interval_s,
            coinbase=tip.coinbase,
            gas_limit=tip.gas_limit,
            base_fee=tip.base_fee,
            chain_id=tip.chain_id,
        )
        return self.node.chain_context(pending)

    def submit_bundle(
        self, device: HarDTAPEDevice, session_id: bytes, sealed_bundle
    ):
        """Run one bundle; returns (sealed trace, elapsed µs, breakdowns)."""
        start = self.clock.now_us
        tracer = tracer_for(self.clock)
        with tracer.span(
            "service.bundle",
            "service",
            session=session_id.hex(),
            device=device.serial.decode("ascii", "replace"),
        ) as span:
            try:
                sealed_out, breakdowns, run_stats = device.hypervisor.submit_bundle(
                    session_id,
                    sealed_bundle,
                    self.pending_chain_context(),
                    charge_fees=self.charge_fees,
                )
            except UnknownSessionError:
                # Typed bounce (satellite of the fault plane): the caller
                # addressed a device this session was never opened on — count
                # it and let the session owner re-route, nothing to unwind.
                self.stats.unknown_sessions += 1
                span.set(error="UnknownSessionError")
                raise
            span.set(transactions=len(breakdowns), aborted=run_stats.aborted)
        elapsed = self.clock.now_us - start
        self.stats.bundles_served += 1
        self.stats.transactions_served += len(breakdowns)
        self.stats.total_service_time_us += elapsed
        for breakdown in breakdowns:
            self.stats.breakdown_total.add(breakdown)
        return sealed_out, elapsed, breakdowns, run_stats
