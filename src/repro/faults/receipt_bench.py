"""The receipt-audit benchmark (``receipt-bench``): four seeded gates.

1. **Byzantine detection + healing** — for each per-bundle Byzantine
   fault kind (``hevm-result-tamper``, ``receipt-forge``,
   ``receipt-omit``) a two-device fleet runs with receipts on and
   device 0 armed as the cheater at rate 1.0.  Every injected lie must
   surface as the expected typed error
   (:class:`~repro.hypervisor.receipts.ReceiptMismatchError` /
   :class:`~repro.hypervisor.receipts.ReceiptMissingError`), quarantine
   the cheater, and heal the victim bundle on the honest device to the
   exact ground-truth result — with the healer's own receipt auditing
   clean.  Detection is counted against the plan's injection log:
   100%, no misses.
2. **Equivocated sync** — device 0 withholds a block from the shared
   ORAM while the synced height advances.  A transaction whose control
   flow depends on the withheld block (an ERC-20 transfer funded only
   by that block) exposes the stale world as a commitment mismatch; the
   quarantine policy must replay the sync history
   (``service.repair_sync``) and heal to the clean twin's world digest.
3. **Identity** — a seeded closed-loop serving run with receipts *on*
   must be byte-identical (trace, metrics, wire, world digest) to the
   same run with receipts *off*; the on-run must actually have produced
   receipts (vacuity guard) and a zero-rate armed twin of every
   Byzantine scenario must audit with zero false positives.
4. **Sublinearity** — the verifier-side audit cost
   (:meth:`~repro.hypervisor.receipts.ReceiptAuditor.spot_check` hash
   operations) must grow far slower than trace length: for each 8×
   length step the cost may grow by at most 4× (measured growth is
   logarithmic, ~1.3×).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.bench.report import GateReport, identity_verdict
from repro.bench.stack import (
    build_evalset,
    build_service,
    compare_identity,
    connect_tenants,
    identity_hashes,
    load_sessions,
    node_ground_truth,
    traced,
    world_digest,
)
from repro.core.user import PreExecutionClient
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan, FaultRule
from repro.faults.policy import FailoverBundle, QuarantinePolicy
from repro.hypervisor.bundle_codec import (
    TransactionBundle,
    decode_trace_report,
    encode_bundle,
)
from repro.hypervisor.hypervisor import SecurityFeatures
from repro.hypervisor.receipts import (
    ReceiptAuditor,
    ReceiptMismatchError,
    ReceiptMissingError,
)
from repro.node.node import EthereumNode
from repro.serving.gateway import Gateway, GatewayConfig, ServiceExecutor
from repro.serving.loadgen import run_closed_loop
from repro.serving.metrics import MetricsRegistry
from repro.state.account import Account, to_address
from repro.state.blocks import Transaction
from repro.telemetry.flight import FlightRecorder
from repro.telemetry.unified import (
    StepTraceRecord,
    UnifiedStepTrace,
    group_for_op,
)
from repro.workloads.contracts import erc20

# The lies (as opposed to failures) the fault plane can inject: the
# device misreports instead of crashing.  Every one must be caught by
# the receipt audit, never by a timeout or a tag check — and by the
# first typed check named here.
_EXPECTED_FIELD = {
    FaultKind.HEVM_RESULT_TAMPER: "commitment",
    FaultKind.RECEIPT_FORGE: "signature",
    FaultKind.RECEIPT_OMIT: "missing",
    FaultKind.SYNC_EQUIVOCATE: "commitment",
}


SAMPLES_PER_TX = 2          # step openings the auditor spot-checks
IDENTITY_TENANTS = 2
AUDIT_LENGTHS = (64, 512, 4096)
AUDIT_SAMPLES = 8


@dataclass
class ReceiptBenchConfig:
    """One receipt-bench invocation."""

    seed: int = 1
    cheat_rounds: int = 3          # bundles the cheater lies about, per kind
    identity_requests: int = 6     # per tenant, closed loop

    @classmethod
    def smoke(cls, seed: int = 1) -> "ReceiptBenchConfig":
        """CI-sized: fewer cheats and requests, same gates."""
        return cls(seed=seed, cheat_rounds=2, identity_requests=4)


def _receipt_features() -> SecurityFeatures:
    features = SecurityFeatures.from_level("full")
    features.receipts = True
    return features


@dataclass
class _CaseOutcome:
    kind: str
    fires: int = 0
    detections: int = 0
    fields: list[str] = field(default_factory=list)
    heals: int = 0
    heal_results_exact: int = 0
    heal_audits_passed: int = 0
    dumps: int = 0
    audits_failed: int = 0
    resyncs: int = 0
    digest: str = ""


class _CheatCase:
    """One Byzantine scenario's fixture.

    Only device 0 is armed — the modeled adversary is one Byzantine
    device in an otherwise honest fleet — so failover targets stay
    trustworthy.  One user attests every device; a receipt auditor and a
    quarantine policy must catch and heal each lie.  ``rate=0.0`` is the
    clean twin: the exact same run with the injector armed but never
    firing (the zero-false-positive baseline every faulted case's
    digest is compared against).
    """

    def __init__(self, config, service, kind: str, rate: float,
                 client_seed: bytes) -> None:
        self.service = service
        self.plan = FaultPlan(config.seed, [FaultRule(kind, rate)])
        FaultInjector(self.plan).arm_device(service.devices[0])
        client = PreExecutionClient(
            service.manufacturer.root_public_key, rng_seed=client_seed
        )
        self.sessions = {
            index: client.connect(service, device)
            for index, device in enumerate(service.devices)
        }
        self.flight = FlightRecorder(32)
        self.quarantine = QuarantinePolicy(
            service, metrics=MetricsRegistry(), flight=self.flight
        )
        self.auditor = ReceiptAuditor(
            samples_per_tx=SAMPLES_PER_TX, seed=config.seed
        )
        self.outcome = _CaseOutcome(kind=kind)

    def _audit(self, device_index: int, bundle_id, expected_trace) -> None:
        """One spot-check of ``device_index``'s receipt for ``bundle_id``."""
        hypervisor = self.service.devices[device_index].hypervisor
        self.auditor.audit(
            bundle_id,
            hypervisor.receipt_for(bundle_id),
            [expected_trace],
            verify_key=self.sessions[device_index].peer_public,
            opening=lambda tx_index, step_index: hypervisor.receipt_opening(
                bundle_id, tx_index, step_index
            ),
        )

    def audit_and_heal(self, tx) -> bool:
        """Pre-execute ``tx`` on the cheater and audit its receipt.

        A caught lie quarantines device 0 and heals the bundle on an
        honest device, whose result must match ground truth and whose
        own receipt must audit clean.  Returns whether a lie was caught.
        """
        service, sessions, outcome = self.service, self.sessions, self.outcome
        bundle = TransactionBundle(
            transactions=(tx,), block_number=service.synced_height
        )
        bundle_id = bundle.bundle_id()
        failover = FailoverBundle(sessions, encode_bundle(bundle))
        service.submit_bundle(
            service.devices[0], failover.session_for(0), failover.seal_for(0)
        )
        expected_result, expected_trace, _ = node_ground_truth(service, tx)
        try:
            self._audit(0, bundle_id, expected_trace)
            return False
        except (ReceiptMismatchError, ReceiptMissingError) as error:
            outcome.detections += 1
            outcome.fields.append(
                error.field
                if isinstance(error, ReceiptMismatchError)
                else "missing"
            )
            session_id = sessions[0].session_id
            self.quarantine.quarantine(0, error, session_id=session_id)
            target, sealed_out = self.quarantine.heal(
                failover, 0, session_id=session_id
            )
            outcome.heals += 1
            healed = decode_trace_report(
                failover.open_with(target, sealed_out)
            ).traces[0]
            if (
                healed.status == expected_result.status
                and healed.gas_used == expected_result.gas_used
            ):
                outcome.heal_results_exact += 1
            self._audit(target, bundle_id, expected_trace)
            outcome.heal_audits_passed += 1
            return True

    def finish(self) -> _CaseOutcome:
        outcome = self.outcome
        outcome.fires = sum(
            1 for record in self.plan.log if record.kind == outcome.kind
        )
        outcome.dumps = len(self.flight.dumps)
        outcome.audits_failed = self.auditor.audits_failed
        outcome.resyncs = self.quarantine.resyncs
        outcome.digest = world_digest(self.service)
        return outcome


# ----------------------------------------------------------------------
# Gate 1: per-bundle Byzantine kinds (tamper / forge / omit)
# ----------------------------------------------------------------------


def _run_byzantine_case(
    config: ReceiptBenchConfig, kind: str, *, rate: float
) -> _CaseOutcome:
    """Drive ``config.cheat_rounds`` bundles at a cheating device."""
    evalset = build_evalset()
    service = build_service(evalset.node, _receipt_features())
    case = _CheatCase(config, service, kind, rate, b"\x01" * 32)

    # Mid-run chain growth so the final world digest is non-trivial.
    evalset.node.add_block([evalset.transactions[-1]])
    service.sync_new_blocks()

    for round_no in range(config.cheat_rounds):
        tx = evalset.transactions[round_no % len(evalset.transactions)]
        if case.audit_and_heal(tx):
            case.quarantine.release(0)
    return case.finish()


# ----------------------------------------------------------------------
# Gate 2: equivocated sync (the withheld-block lie)
# ----------------------------------------------------------------------


def _run_equivocate_case(
    config: ReceiptBenchConfig, *, rate: float
) -> _CaseOutcome:
    """A lie about the *world*, not about one bundle.

    The cheating device withholds a block from the shared ORAM while
    its synced height advances.  The audited transaction is an ERC-20
    transfer whose sender is funded only by the withheld block: on the
    stale world the balance guard jumps to the revert path, so the step
    trace — op and gas sequence, which the commitment covers — diverges
    from ground truth even though step traces never commit stack
    values.
    """
    alice, bob, poor = to_address(0xA1), to_address(0xB2), to_address(0xC3)
    token = to_address(0x70CE)
    node = EthereumNode(genesis_accounts={
        alice: Account(balance=10**20),
        token: Account(
            code=erc20.erc20_runtime(),
            storage={erc20.balance_slot(alice): 10**6},
        ),
    })
    node.add_block([])
    service = build_service(node, _receipt_features())
    case = _CheatCase(
        config, service, FaultKind.SYNC_EQUIVOCATE, rate, b"\x02" * 32
    )

    # Pre-lie bundle: must audit clean (in-run false-positive guard).
    case.audit_and_heal(
        Transaction(
            sender=alice, to=token, data=erc20.transfer_calldata(bob, 42)
        )
    )

    # The withheld block: it alone funds ``poor``.
    node.add_block([
        Transaction(
            sender=alice, to=token,
            data=erc20.transfer_calldata(poor, 1_000),
        )
    ])
    service.sync_new_blocks()

    # The detection bundle: poor's transfer succeeds on the fresh world,
    # reverts on the stale one.
    case.audit_and_heal(
        Transaction(
            sender=poor, to=token, data=erc20.transfer_calldata(bob, 5)
        )
    )
    return case.finish()


# ----------------------------------------------------------------------
# Gate 3: receipts on == receipts off (frontend bytes)
# ----------------------------------------------------------------------


def _identity_run(config: ReceiptBenchConfig, *, receipts: bool) -> dict:
    """One seeded closed-loop serving run, receipts on or off: its
    identity hashes plus completion and receipt counts."""
    evalset = build_evalset()
    features = SecurityFeatures.from_level("full")
    features.receipts = receipts
    service = build_service(evalset.node, features)
    metrics = MetricsRegistry()
    with traced(service.clock) as tracer:
        gateway = Gateway(
            ServiceExecutor(service), GatewayConfig(),
            metrics=metrics, tracer=tracer,
        )
        sessions = load_sessions(
            service,
            connect_tenants(service, IDENTITY_TENANTS),
            evalset.transactions,
        )
        load = run_closed_loop(
            gateway, sessions, requests_per_session=config.identity_requests
        )
        hashes = identity_hashes(tracer, metrics, [load], service)
    return {
        "hashes": hashes,
        "completed": load.completed,
        "receipts_stored": sum(
            len(device.hypervisor._receipts) for device in service.devices
        ),
    }


# ----------------------------------------------------------------------
# Gate 4: audit cost sublinear in trace length
# ----------------------------------------------------------------------

_SCALING_OPS = ("ADD", "MUL", "PUSH1", "MLOAD", "SSTORE")


def _synthetic_trace(length: int) -> UnifiedStepTrace:
    return UnifiedStepTrace(records=tuple(
        StepTraceRecord(
            index=index,
            depth=1,
            pc=index * 2,
            op=_SCALING_OPS[index % len(_SCALING_OPS)],
            group=group_for_op(_SCALING_OPS[index % len(_SCALING_OPS)]),
            gas=1_000_000 - index,
        )
        for index in range(length)
    ))


def _audit_scaling(config: ReceiptBenchConfig) -> list[dict]:
    auditor = ReceiptAuditor(
        samples_per_tx=SAMPLES_PER_TX, seed=config.seed
    )
    rows = []
    for length in AUDIT_LENGTHS:
        trace = _synthetic_trace(length)
        checked, hash_ops = auditor.spot_check(
            trace, trace.commitment(), AUDIT_SAMPLES
        )
        rows.append(
            {"length": length, "checked": checked, "hash_ops": hash_ops}
        )
    return rows


# ----------------------------------------------------------------------
# Report and gates
# ----------------------------------------------------------------------


@dataclass
class ReceiptBenchReport(GateReport):
    byzantine: list[dict]
    identity: dict
    scaling: list[dict]

    bench = "receipt"

    def section_lines(self) -> list[str]:
        lines = []
        for case in self.byzantine:
            lines.append(
                f"byzantine[{case['kind']}]: {case['detections']}/"
                f"{case['fires']} lies detected"
                f" ({', '.join(sorted(set(case['fields']))) or 'none'}), "
                f"{case['heals']} healed, "
                f"{case['heal_results_exact']} exact, "
                f"{case['dumps']} flight dumps"
                + (f", {case['resyncs']} resync(s)"
                   if case["resyncs"] else "")
            )
        lines.append(
            "identity (receipts on vs off): "
            + identity_verdict(self.identity["equal"])
            + f" ({self.identity['receipts_stored']} receipts signed)"
        )
        lines.append(
            "audit cost: "
            + ", ".join(
                f"{row['length']} steps -> {row['hash_ops']} hashes"
                for row in self.scaling
            )
            + " (sublinear)"
        )
        return lines


def run_receipt_bench(config: ReceiptBenchConfig) -> ReceiptBenchReport:
    failures: list[str] = []

    # 1 + 2. Byzantine cases, each against a zero-rate clean twin.
    per_bundle_kinds = (
        FaultKind.HEVM_RESULT_TAMPER,
        FaultKind.RECEIPT_FORGE,
        FaultKind.RECEIPT_OMIT,
    )
    cases: list[_CaseOutcome] = [
        _run_byzantine_case(config, kind, rate=1.0)
        for kind in per_bundle_kinds
    ]
    twin = _run_byzantine_case(
        config, FaultKind.HEVM_RESULT_TAMPER, rate=0.0
    )
    cases.append(_run_equivocate_case(config, rate=1.0))
    equivocate_twin = _run_equivocate_case(config, rate=0.0)

    for case in cases:
        kind = case.kind
        if case.fires < 1:
            failures.append(f"byzantine[{kind}]: the plan never fired")
        if case.detections != case.fires:
            failures.append(
                f"byzantine[{kind}]: {case.detections} detections for "
                f"{case.fires} injected lies — every lie must be caught"
            )
        expected_field = _EXPECTED_FIELD[kind]
        if any(field_ != expected_field for field_ in case.fields):
            failures.append(
                f"byzantine[{kind}]: detected as {sorted(set(case.fields))}, "
                f"expected the {expected_field} check"
            )
        if case.heal_results_exact != case.detections:
            failures.append(
                f"byzantine[{kind}]: {case.heal_results_exact} of "
                f"{case.detections} healed bundles matched ground truth"
            )
        if case.heal_audits_passed != case.detections:
            failures.append(
                f"byzantine[{kind}]: the healing device's receipt failed "
                f"its own audit"
            )
        if case.dumps != case.detections:
            failures.append(
                f"byzantine[{kind}]: {case.dumps} flight dumps sealed for "
                f"{case.detections} quarantines"
            )
        clean_digest = (
            equivocate_twin.digest
            if kind == FaultKind.SYNC_EQUIVOCATE
            else twin.digest
        )
        if case.digest != clean_digest:
            failures.append(
                f"byzantine[{kind}]: post-heal world digest diverges from "
                f"the clean twin"
            )
    equivocate = cases[-1]
    if equivocate.resyncs != 1:
        failures.append(
            f"byzantine[{FaultKind.SYNC_EQUIVOCATE}]: {equivocate.resyncs} "
            f"sync replays, expected exactly 1"
        )
    for name, twin_case in (("per-bundle", twin),
                            ("equivocate", equivocate_twin)):
        if twin_case.fires or twin_case.detections:
            failures.append(
                f"clean twin ({name}): fired {twin_case.fires}, detected "
                f"{twin_case.detections} — zero-rate plans must be inert"
            )
        if twin_case.audits_failed:
            failures.append(
                f"clean twin ({name}): {twin_case.audits_failed} false "
                f"positives on an honest fleet"
            )

    # 3. Identity: receipts on vs off.
    off = _identity_run(config, receipts=False)
    on = _identity_run(config, receipts=True)
    equal, identity_failures = compare_identity(
        off["hashes"],
        on["hashes"],
        "identity: enabling receipts changed the {name} bytes of "
        "a seeded run",
    )
    failures.extend(identity_failures)
    if on["receipts_stored"] == 0:
        failures.append(
            "identity: receipts-on run signed no receipts (vacuous gate)"
        )
    if off["receipts_stored"] != 0:
        failures.append(
            "identity: receipts-off run still signed receipts"
        )
    identity = {
        "equal": equal,
        "completed": on["completed"],
        "receipts_stored": on["receipts_stored"],
    }

    # 4. Sublinearity.
    scaling = _audit_scaling(config)
    for before, after in zip(scaling, scaling[1:]):
        length_ratio = after["length"] / before["length"]
        cost_ratio = after["hash_ops"] / max(before["hash_ops"], 1)
        if cost_ratio >= length_ratio / 2:
            failures.append(
                f"sublinearity: cost grew {cost_ratio:.2f}x over a "
                f"{length_ratio:.0f}x longer trace "
                f"({before['length']} -> {after['length']} steps)"
            )

    return ReceiptBenchReport(
        seed=config.seed,
        byzantine=[asdict(case) for case in cases],
        identity=identity,
        scaling=scaling,
        gate_failures=failures,
    )


__all__ = [
    "ReceiptBenchConfig",
    "ReceiptBenchReport",
    "run_receipt_bench",
]
