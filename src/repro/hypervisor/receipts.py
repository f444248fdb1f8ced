"""Signed pre-execution receipts and the user-side spot-check auditor.

HarDTAPE as specified asks users to trust attestation once and believe
every pre-execution result thereafter.  This module closes that gap
with the zkEVM-lite design the ROADMAP sketches: after a bundle
completes, the Hypervisor signs the Merkle :func:`~repro.telemetry.unified.
UnifiedStepTrace.commitment` of every transaction's step trace under the
attested session signing key (the same key that authenticates the
secure channel), and returns the :class:`SignedReceipt` alongside the
trace report.  The user — who can re-execute any transaction against
``repro.node`` ground truth — then *spot-checks*: verify one signature,
compare the signed roots against locally recomputed ones, and open a
seeded-DRBG sample of individual steps with O(log n) Merkle membership
proofs.  A device that tampers with results, forges a signature, or
withholds the receipt is caught with a typed error
(:class:`ReceiptMismatchError` / :class:`ReceiptMissingError`) that the
quarantine policy in :mod:`repro.faults.policy` turns into recovery.

Determinism contract: signing is RFC 6979 (no randomness drawn), the
auditor owns its own seeded DRBG (never the simulation's), and neither
signing nor auditing touches the virtual clock, spans, or metrics — a
clean run with receipts enabled is byte-identical to one without.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.crypto.backend import _OpensslVerifier
from repro.crypto.ecc import InvalidSignature, PrivateKey, PublicKey, Signature
from repro.crypto.kdf import Drbg
from repro.telemetry.unified import (
    MerkleProof,
    StepTraceRecord,
    UnifiedStepTrace,
    verify_merkle_proof,
)

RECEIPT_DOMAIN = b"hardtape.receipt.v1"


class ReceiptError(Exception):
    """Base class for receipt-audit failures.

    These are deliberately *not* in the fault plane's
    ``RECOVERABLE_ERRORS``: a wrong receipt is evidence of a lying
    device, not a transient fault, so the response is quarantine —
    never a blind retry on the same device.
    """


class ReceiptMissingError(ReceiptError):
    """The device completed a bundle but produced no receipt."""

    def __init__(self, bundle_id: bytes) -> None:
        super().__init__(
            f"no receipt for bundle {bundle_id.hex()[:16]}"
        )
        self.bundle_id = bundle_id


class ReceiptIndexError(ReceiptError):
    """An auditor asked the device to open a transaction or step the
    bundle's retained trace does not have."""


class ReceiptMismatchError(ReceiptError):
    """A receipt failed verification against ground truth.

    ``field`` names the first check that failed: ``bundle_id``,
    ``signature``, ``count``, ``commitment``, ``step``, or ``proof``.
    ``tx_index`` is set for per-transaction failures.
    """

    def __init__(
        self,
        bundle_id: bytes,
        field: str,
        detail: str = "",
        tx_index: int | None = None,
    ) -> None:
        at = f" (tx {tx_index})" if tx_index is not None else ""
        super().__init__(
            f"receipt for bundle {bundle_id.hex()[:16]} failed the "
            f"{field} check{at}: {detail}" if detail else
            f"receipt for bundle {bundle_id.hex()[:16]} failed the "
            f"{field} check{at}"
        )
        self.bundle_id = bundle_id
        self.field = field
        self.detail = detail
        self.tx_index = tx_index


def receipt_signing_hash(
    bundle_id: bytes, commitments: Sequence[str]
) -> bytes:
    """The 32-byte message an RFC 6979 receipt signature covers.

    Domain-separated and length-prefixed so a receipt for one bundle can
    never be replayed as a receipt for another bundle or a different
    transaction count.
    """
    hasher = hashlib.sha256()
    hasher.update(RECEIPT_DOMAIN)
    hasher.update(len(commitments).to_bytes(4, "big"))
    hasher.update(bundle_id)
    for commitment in commitments:
        hasher.update(bytes.fromhex(commitment))
    return hasher.digest()


@dataclass(frozen=True)
class SignedReceipt:
    """One per-bundle receipt: the signed trace commitments.

    ``commitments[i]`` is the Merkle root of transaction *i*'s
    :class:`UnifiedStepTrace`; the signature is RFC 6979 ECDSA by the
    attested session signing key, so it is deterministic.
    """

    bundle_id: bytes
    commitments: tuple[str, ...]
    signature: Signature

    def signing_hash(self) -> bytes:
        return receipt_signing_hash(self.bundle_id, self.commitments)

    def verify(self, verify_key: PublicKey) -> None:
        """Raises :class:`~repro.crypto.ecc.InvalidSignature` on forgery.

        The check runs on OpenSSL's verifier, as the attestation chain's
        does.  Every field is the device's to choose: roots that are not
        hex or a signature that is not an ``(r, s)`` pair are forgeries
        too.
        """
        signature = self.signature
        try:
            if not (isinstance(signature, Signature)
                    and isinstance(signature.r, int) and isinstance(signature.s, int)):
                raise TypeError("signature is not an (r, s) integer pair")
            digest = self.signing_hash()
        except (TypeError, ValueError) as error:
            raise InvalidSignature(f"malformed receipt: {error}") from error
        _OpensslVerifier(verify_key).verify(digest, signature)


def make_receipt(
    bundle_id: bytes,
    traces: Sequence[UnifiedStepTrace],
    signing_key: PrivateKey,
) -> SignedReceipt:
    """Commit and sign the step traces of one completed bundle."""
    commitments = tuple(trace.commitment() for trace in traces)
    signature = signing_key.sign(receipt_signing_hash(bundle_id, commitments))
    return SignedReceipt(
        bundle_id=bundle_id, commitments=commitments, signature=signature
    )


@dataclass(frozen=True)
class AuditReport:
    """What one successful audit cost: the sublinearity evidence."""

    bundle_id: bytes
    transactions: int
    steps_total: int      # ground-truth trace length across the bundle
    steps_sampled: int    # membership proofs actually opened
    hash_ops: int         # sha256 calls spent verifying those proofs
    signature_checks: int


# An opening oracle: (tx_index, step_index) -> (record, membership proof).
# In the live system this is served by the device that signed the
# receipt (repro.hypervisor.Hypervisor.receipt_opening).
OpeningFn = Callable[[int, int], tuple[StepTraceRecord, MerkleProof]]


class ReceiptAuditor:
    """SP/user-side trust-but-verify: spot-check receipts vs ground truth.

    The auditor holds the *expected* traces (recomputed from
    ``repro.node`` — the user's own full node) and checks a device's
    signed receipt against them: one signature verification, a root
    comparison per transaction, and ``samples_per_tx`` seeded-DRBG
    sampled step openings per transaction.  Sampling uses the auditor's
    own HMAC-DRBG so audit choices are reproducible from the audit seed
    alone and never perturb simulation randomness.

    Root comparison alone already catches *any* trace tampering (the
    commitment is over every step), so detection is 100%, not
    probabilistic; the sampled membership proofs are what keep the
    per-step audit cost O(log n) and are the path a bandwidth-starved
    auditor without full ground-truth traces would rely on.
    """

    def __init__(self, *, samples_per_tx: int = 2, seed: int = 0) -> None:
        if samples_per_tx < 0:
            raise ValueError("samples_per_tx must be non-negative")
        self.samples_per_tx = samples_per_tx
        self._drbg = Drbg(
            seed.to_bytes(8, "big"), personalization=b"receipt-audit"
        )
        self.audits_passed = 0
        self.audits_failed = 0

    def _sample_index(self, length: int) -> int:
        raw = int.from_bytes(self._drbg.random_bytes(8), "big")
        return raw % length

    def audit(
        self,
        bundle_id: bytes,
        receipt: SignedReceipt | None,
        expected_traces: Sequence[UnifiedStepTrace],
        *,
        verify_key: PublicKey,
        opening: OpeningFn | None = None,
    ) -> AuditReport:
        """Check one bundle's receipt; raises typed errors on any lie."""
        try:
            report = self._audit(
                bundle_id, receipt, expected_traces,
                verify_key=verify_key, opening=opening,
            )
        except ReceiptError:
            self.audits_failed += 1
            raise
        self.audits_passed += 1
        return report

    def _audit(
        self,
        bundle_id: bytes,
        receipt: SignedReceipt | None,
        expected_traces: Sequence[UnifiedStepTrace],
        *,
        verify_key: PublicKey,
        opening: OpeningFn | None,
    ) -> AuditReport:
        if receipt is None:
            raise ReceiptMissingError(bundle_id)
        if receipt.bundle_id != bundle_id:
            raise ReceiptMismatchError(
                bundle_id,
                "bundle_id",
                f"receipt names bundle {receipt.bundle_id!r:.40}",
            )
        try:
            receipt.verify(verify_key)
        except InvalidSignature as exc:
            raise ReceiptMismatchError(
                bundle_id, "signature", str(exc)
            ) from exc
        if len(receipt.commitments) != len(expected_traces):
            raise ReceiptMismatchError(
                bundle_id,
                "count",
                f"receipt commits {len(receipt.commitments)} traces, "
                f"ground truth has {len(expected_traces)}",
            )
        hash_ops = 0
        steps_sampled = 0
        steps_total = 0
        for tx_index, expected in enumerate(expected_traces):
            steps_total += expected.instructions
            signed_root = receipt.commitments[tx_index]
            expected_root = expected.commitment()
            if signed_root != expected_root:
                raise ReceiptMismatchError(
                    bundle_id,
                    "commitment",
                    f"signed root {signed_root[:16]} != ground-truth "
                    f"root {expected_root[:16]}",
                    tx_index=tx_index,
                )
            if opening is None or expected.instructions == 0:
                continue
            for _ in range(min(self.samples_per_tx, expected.instructions)):
                step = self._sample_index(expected.instructions)
                record, proof = opening(tx_index, step)
                if record != expected.records[step]:
                    raise ReceiptMismatchError(
                        bundle_id,
                        "step",
                        f"opened step {step} disagrees with ground truth",
                        tx_index=tx_index,
                    )
                if proof.index != step or proof.leaf != record.leaf_bytes():
                    raise ReceiptMismatchError(
                        bundle_id,
                        "proof",
                        f"opening for step {step} proves a different leaf",
                        tx_index=tx_index,
                    )
                if not verify_merkle_proof(proof, signed_root):
                    raise ReceiptMismatchError(
                        bundle_id,
                        "proof",
                        f"membership proof for step {step} does not reach "
                        f"the signed root",
                        tx_index=tx_index,
                    )
                steps_sampled += 1
                hash_ops += proof.hash_ops
        return AuditReport(
            bundle_id=bundle_id,
            transactions=len(expected_traces),
            steps_total=steps_total,
            steps_sampled=steps_sampled,
            hash_ops=hash_ops,
            signature_checks=1,
        )

    def spot_check(
        self, trace: UnifiedStepTrace, root: str, samples: int
    ) -> tuple[int, int]:
        """Verifier-side cost probe over one committed trace.

        Opens ``samples`` DRBG-chosen steps (prover-side work, uncosted)
        and verifies each membership proof against ``root``; returns
        ``(steps_checked, hash_ops)`` — the measured audit cost the
        sublinearity bench plots against trace length.
        """
        if trace.instructions == 0:
            return 0, 0
        hash_ops = 0
        checked = 0
        for _ in range(min(samples, trace.instructions)):
            step = self._sample_index(trace.instructions)
            proof = trace.open_step(step)
            if not verify_merkle_proof(proof, root):
                raise ReceiptMismatchError(
                    b"", "proof", f"spot check failed at step {step}"
                )
            checked += 1
            hash_ops += proof.hash_ops
        return checked, hash_ops


__all__ = [
    "AuditReport",
    "RECEIPT_DOMAIN",
    "ReceiptAuditor",
    "ReceiptError",
    "ReceiptIndexError",
    "ReceiptMismatchError",
    "ReceiptMissingError",
    "SignedReceipt",
    "make_receipt",
    "receipt_signing_hash",
]
