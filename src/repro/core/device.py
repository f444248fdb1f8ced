"""A HarDTAPE device: one chip package with its HEVMs and Hypervisor.

Assembles the full trusted stack — Manufacturer-provisioned PUF and
device identity, CSU secure boot, HEVM cores, Hypervisor firmware — plus
the device's connection to the SP-side ORAM server.  This is the unit
the SP buys and racks; :class:`~repro.core.service.HarDTAPEService`
operates one or more of them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.kdf import Drbg
from repro.crypto.puf import Manufacturer
from repro.hardware.csu import BootImage, ConfigurationSecurityUnit, MonotonicCounter
from repro.hardware.hevm import HevmCore
from repro.hardware.resources import max_hevms
from repro.hardware.timing import CostModel, SimClock
from repro.hypervisor.hypervisor import Hypervisor, SecurityFeatures
from repro.oram.adapter import ObliviousStateBackend
from repro.oram.client import PathOramClient
from repro.oram.server import OramServer
from repro.oram.store import build_client
from repro.state.backend import StateBackend

# The shipping firmware image; its measurement is pinned by users.
RELEASE_IMAGE = BootImage(
    name="hardtape-hypervisor-v1",
    payload=b"hardtape hypervisor firmware v1.0.0 + hevm bitstream",
)
RELEASE_MEASUREMENT = RELEASE_IMAGE.measurement()


@dataclass
class DeviceConfig:
    """Per-device knobs (defaults match the paper's prototype)."""

    hevm_count: int = 3  # the XCZU15EV LUT budget allows three
    l2_bytes: int = 1024 * 1024
    # Height of the Path ORAM tree holding the world state; the
    # geometry every deployment shares lives in repro.oram.store.
    oram_height: int = 12
    # Virtual-time budget for one ORAM path read; a server stalling past
    # it surfaces as a typed OramTimeoutError instead of a hang.  None
    # absorbs any finite stall (the pre-fault-plane behaviour).
    oram_response_budget_us: float | None = None
    # Oversized-frame handling: "abort" (paper) or "spill" (see
    # Layer2CallStack); l3_oram prices spills as full ORAM accesses.
    oversize_policy: str = "abort"
    l3_oram: bool = False


class HarDTAPEDevice:
    """One chip, booted and ready to serve sessions."""

    def __init__(
        self,
        manufacturer: Manufacturer,
        serial: bytes,
        features: SecurityFeatures,
        direct_backend: StateBackend,
        oram_server: OramServer | None,
        clock: SimClock | None = None,
        cost: CostModel | None = None,
        config: DeviceConfig | None = None,
        oram_key: bytes | None = None,
        oram_client: PathOramClient | None = None,
    ) -> None:
        self.config = config or DeviceConfig()
        if self.config.hevm_count > max_hevms()[0]:
            raise ValueError(
                f"{self.config.hevm_count} HEVMs exceed the chip's "
                f"{max_hevms()[0]}-core budget ({max_hevms()[1]}-bound)"
            )
        self.serial = serial
        self.clock = clock or SimClock()
        self.cost = cost or CostModel()
        puf, identity = manufacturer.provision(serial)
        self.csu = ConfigurationSecurityUnit(puf, identity)
        self.features = features
        # Restart support (repro.recovery): the pieces a cold restart
        # reuses, plus the hardware monotonic counter that outlives the
        # firmware and pins the newest durable checkpoint.
        self._direct_backend = direct_backend
        self._oram_server = oram_server
        self.restarts = 0
        self.nvram = MonotonicCounter()
        rng = Drbg(puf.derive_key(b"device-rng"))
        self.cores = [
            HevmCore(
                core_id=index,
                clock=self.clock,
                cost=self.cost,
                rng=rng.fork(b"core" + bytes([index])),
                l2_bytes=self.config.l2_bytes,
                swap_noise=features.swap_noise,
                oversize_policy=self.config.oversize_policy,
                l3_oram=self.config.l3_oram,
            )
            for index in range(self.config.hevm_count)
        ]
        self.oram_backend: ObliviousStateBackend | None = None
        need_oram = features.oram_storage or features.oram_code
        if oram_server is not None and need_oram:
            oram_key = oram_key or puf.derive_key(b"oram-key")
            if oram_client is not None:
                # Devices of one deployment share the full ORAM trust
                # state — key, stash, position map, anti-rollback
                # versions — transferred device-to-device over the same
                # DHKE channel as the key.  Independent per-device
                # clients over one tree would desynchronize: one
                # device's path write-back bumps node versions the
                # others' AAD checks still expect old, and remapped
                # blocks vanish from stale position maps.
                client = oram_client
            else:
                client = build_client(
                    oram_server,
                    oram_key,
                    rng=rng.fork(b"oram"),
                    response_budget_us=self.config.oram_response_budget_us,
                )
            self.oram_backend = ObliviousStateBackend(
                client, clock=lambda: self.clock.now_us
            )
        self.hypervisor = Hypervisor(
            csu=self.csu,
            boot_image=RELEASE_IMAGE,
            cores=self.cores,
            clock=self.clock,
            cost=self.cost,
            direct_backend=direct_backend,
            oram_backend=self.oram_backend,
            features=features,
            oram_key=oram_key,
        )

    @property
    def idle_hevms(self) -> int:
        return self.hypervisor.scheduler.idle_count

    # ------------------------------------------------------------------
    # Cold restart (repro.recovery)
    # ------------------------------------------------------------------

    def restart_hypervisor(
        self,
        oram_client: PathOramClient | None = None,
        oram_key: bytes | None = None,
    ) -> Hypervisor:
        """Cold-restart the firmware after a :class:`HypervisorCrashError`.

        Re-runs secure boot and builds a *successor* Hypervisor at the
        next generation.  Everything volatile is gone: cores are reset,
        sessions are empty, and the ORAM client is whatever the caller
        recovered — pass the client rebuilt from checkpoint + journal,
        or ``None`` to come up without an oblivious backend (a device
        that lost its trust state and awaits re-provisioning).
        """
        self.restarts += 1
        for core in self.cores:
            core.reset()
        self.oram_backend = None
        if oram_client is not None and self._oram_server is not None:
            self.oram_backend = ObliviousStateBackend(
                oram_client, clock=lambda: self.clock.now_us
            )
        self.hypervisor = Hypervisor(
            csu=self.csu,
            boot_image=RELEASE_IMAGE,
            cores=self.cores,
            clock=self.clock,
            cost=self.cost,
            direct_backend=self._direct_backend,
            oram_backend=self.oram_backend,
            features=self.features,
            oram_key=oram_key,
            generation=self.restarts,
        )
        return self.hypervisor
