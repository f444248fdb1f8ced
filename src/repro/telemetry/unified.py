"""One canonical committed step-trace schema across all three trace planes.

The repository accumulated three representations of "what did this
transaction execute": the node's ``debug_traceTransaction``-shaped
:class:`~repro.evm.tracer.StructLog` stream, the HEVM's
:class:`~repro.evm.tracer.EventCounts` tallies driving the timing model,
and the ``hevm.tx`` telemetry spans carrying instruction/group counts as
attributes.  The ROADMAP's verifiable-receipts item needs them unified
behind one committed schema before receipts can be signed over it; this
module is that schema.

A :class:`UnifiedStepTrace` is an ordered tuple of
:class:`StepTraceRecord` leaves with a Merkle-tree :meth:`commitment`
(domain-separated leaf/node hashing, odd level promotes), so any single
step can later be opened against the root with an O(log n) path — the
receipts substrate.  Adapters lift each existing representation into the
schema or into its derived count view, and the ``reconcile_*`` functions
enforce *exact* agreement, raising a typed
:class:`TraceReconciliationError` naming the first divergence.  No
tolerance windows: the three planes observe the same deterministic
execution, so any drift is a bug, not noise.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.evm import opcodes as _opcodes

_LEAF_DOMAIN = b"\x00hardtape.trace.leaf"
_NODE_DOMAIN = b"\x01hardtape.trace.node"
_EMPTY_DOMAIN = b"\x02hardtape.trace.empty"

# Opcode-name -> paper Figure-2 group, built once from the static table.
# Unassigned opcodes classify as "invalid", matching CountingTracer.
_GROUP_BY_OP: dict[str, str] = {
    info.name: info.group.value for info in _opcodes.ALL_OPCODES.values()
}


def group_for_op(op: str) -> str:
    """The Figure-2 instruction group for an opcode name."""
    return _GROUP_BY_OP.get(op, "invalid")


class TraceReconciliationError(Exception):
    """Two representations of the same execution disagree.

    Carries the first divergence: which field, what each side claims,
    and (for step-level divergence) the step index.  Reconciliation is
    exact — the planes observe one deterministic execution, so this is
    always a correctness bug in an adapter or an instrumentation site.
    """

    def __init__(
        self,
        message: str,
        *,
        field: str = "",
        expected: object = None,
        actual: object = None,
        index: int | None = None,
    ) -> None:
        super().__init__(message)
        self.field = field
        self.expected = expected
        self.actual = actual
        self.index = index


@dataclass(frozen=True, slots=True)
class StepTraceRecord:
    """One retired instruction: the canonical committed step.

    ``gas`` is the gas remaining *before* the step executes (the
    debug_traceTransaction convention both the node and the HEVM's
    StructTracer already follow); ``depth`` numbers frames from 1.
    """

    index: int
    depth: int
    pc: int
    op: str
    group: str
    gas: int

    def leaf_bytes(self) -> bytes:
        """Deterministic leaf encoding fed to the Merkle commitment."""
        return "|".join(
            (
                str(self.index),
                str(self.depth),
                str(self.pc),
                self.op,
                self.group,
                str(self.gas),
            )
        ).encode()



def _merkle_levels(leaves: list[bytes]) -> list[list[bytes]]:
    """Every level of the commitment tree, bottom-up: the leaf digests
    first, the root alone last.  Pairs hash under the node domain; the
    odd node out promotes unhashed."""
    level = [hashlib.sha256(_LEAF_DOMAIN + leaf).digest() for leaf in leaves]
    levels = [level]
    while len(level) > 1:
        nxt = [
            hashlib.sha256(_NODE_DOMAIN + level[i] + level[i + 1]).digest()
            for i in range(0, len(level) - 1, 2)
        ]
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
        levels.append(level)
    return levels


def _merkle_root(leaves: list[bytes]) -> str:
    if not leaves:
        return hashlib.sha256(_EMPTY_DOMAIN).hexdigest()
    return _merkle_levels(leaves)[-1][0].hex()


@dataclass(frozen=True, slots=True)
class MerkleProof:
    """An O(log n) membership path from one leaf to the commitment root.

    ``path`` carries one entry per tree level, bottom-up.  Each entry is
    ``("L", digest)`` when the sibling is hashed on the left of the
    running node, ``("R", digest)`` when on the right, and ``("P", b"")``
    where the running node was the odd one out and promoted unhashed —
    mirroring :func:`_merkle_levels` exactly, domains included.
    """

    index: int
    leaf: bytes
    path: tuple[tuple[str, bytes], ...]

    @property
    def hash_ops(self) -> int:
        """sha256 invocations a verification costs (the audit-cost unit)."""
        return 1 + sum(1 for side, _ in self.path if side != "P")


def merkle_proof(leaves: list[bytes], index: int) -> MerkleProof:
    """Open ``leaves[index]`` against the root :func:`_merkle_root` builds."""
    if not 0 <= index < len(leaves):
        raise IndexError(
            f"leaf index {index} out of range for {len(leaves)} leaves"
        )
    path: list[tuple[str, bytes]] = []
    pos = index
    for level in _merkle_levels(leaves)[:-1]:
        if len(level) % 2 and pos == len(level) - 1:
            path.append(("P", b""))
        elif pos % 2 == 0:
            path.append(("R", level[pos + 1]))
        else:
            path.append(("L", level[pos - 1]))
        pos //= 2
    return MerkleProof(index=index, leaf=leaves[index], path=tuple(path))


def verify_merkle_proof(proof: MerkleProof, root: str) -> bool:
    """Does ``proof`` open its leaf against ``root``?  Pure hashing —
    cost is ``proof.hash_ops`` sha256 calls, O(log n) in trace length.
    The proof is the device's to shape: a path entry of the wrong arity
    or type, like an unknown side tag, is a proof that does not verify."""
    try:
        node = hashlib.sha256(_LEAF_DOMAIN + proof.leaf).digest()
        for side, sibling in proof.path:
            if side == "P":
                if sibling != b"":
                    return False
            elif side == "R":
                node = hashlib.sha256(_NODE_DOMAIN + node + sibling).digest()
            elif side == "L":
                node = hashlib.sha256(_NODE_DOMAIN + sibling + node).digest()
            else:
                return False
    except (TypeError, ValueError):
        return False
    return node.hex() == root


@dataclass(frozen=True)
class UnifiedStepTrace:
    """The committed representation: ordered steps + Merkle commitment."""

    records: tuple[StepTraceRecord, ...]

    @property
    def instructions(self) -> int:
        return len(self.records)

    def group_counts(self) -> dict[str, int]:
        """Per-group retired-instruction tallies, sorted by group name."""
        counts: dict[str, int] = {}
        for record in self.records:
            counts[record.group] = counts.get(record.group, 0) + 1
        return dict(sorted(counts.items()))

    def commitment(self) -> str:
        """Merkle root over the leaf encodings (hex sha256)."""
        return _merkle_root([r.leaf_bytes() for r in self.records])

    def open_step(self, index: int) -> MerkleProof:
        """Membership proof for step ``index`` against :meth:`commitment`.

        Prover-side: the holder of the full trace pays O(n) to build the
        path; the verifier then pays only ``proof.hash_ops`` ∈ O(log n).
        """
        return merkle_proof([r.leaf_bytes() for r in self.records], index)


# ----------------------------------------------------------------------
# Adapters: lift each existing representation into the schema
# ----------------------------------------------------------------------


def from_struct_logs(logs: Iterable) -> UnifiedStepTrace:
    """Adapt a StructLog stream (node RPC shape or HEVM StructTracer)."""
    records = tuple(
        StepTraceRecord(
            index=index,
            depth=log.depth,
            pc=log.pc,
            op=log.op,
            group=group_for_op(log.op),
            gas=log.gas,
        )
        for index, log in enumerate(logs)
    )
    return UnifiedStepTrace(records=records)


def counts_from_events(counts) -> dict:
    """The count view of an :class:`~repro.evm.tracer.EventCounts`."""
    return {
        "instructions": counts.instructions,
        "by_group": dict(sorted(counts.by_group.items())),
    }


def counts_from_span(span) -> dict:
    """The count view of a ``hevm.tx`` telemetry span's attributes."""
    attrs = span.attributes
    if "instructions" not in attrs:
        raise TraceReconciliationError(
            f"span {span.name!r} carries no instruction counts "
            f"(was a tracer installed during execution?)",
            field="instructions",
        )
    return {
        "instructions": int(attrs["instructions"]),
        "by_group": dict(sorted(attrs.get("opcode_groups", {}).items())),
    }


def counts_from_trace(trace: UnifiedStepTrace) -> dict:
    """The count view derived from the committed step records."""
    return {
        "instructions": trace.instructions,
        "by_group": trace.group_counts(),
    }


# ----------------------------------------------------------------------
# Reconciliation: exact, typed
# ----------------------------------------------------------------------


def reconcile_step_traces(
    expected: UnifiedStepTrace,
    actual: UnifiedStepTrace,
    *,
    expected_source: str = "node",
    actual_source: str = "hevm",
) -> str:
    """Exact step-for-step equality; returns the shared commitment.

    Raises :class:`TraceReconciliationError` at the first diverging
    step (or on a length mismatch) naming both sources.
    """
    if len(expected.records) != len(actual.records):
        raise TraceReconciliationError(
            f"{expected_source} trace has {len(expected.records)} steps, "
            f"{actual_source} has {len(actual.records)}",
            field="instructions",
            expected=len(expected.records),
            actual=len(actual.records),
        )
    for exp, act in zip(expected.records, actual.records):
        if exp != act:
            for name in ("depth", "pc", "op", "group", "gas"):
                if getattr(exp, name) != getattr(act, name):
                    raise TraceReconciliationError(
                        f"step {exp.index}: {expected_source}.{name}="
                        f"{getattr(exp, name)!r} but {actual_source}."
                        f"{name}={getattr(act, name)!r}",
                        field=name,
                        expected=getattr(exp, name),
                        actual=getattr(act, name),
                        index=exp.index,
                    )
    root = expected.commitment()
    if root != actual.commitment():
        raise TraceReconciliationError(
            "identical records produced different commitments",
            field="commitment",
        )
    return root


def reconcile_counts(
    expected: Mapping,
    actual: Mapping,
    *,
    expected_source: str = "trace",
    actual_source: str = "counts",
) -> None:
    """Exact integer equality of two count views."""
    if expected["instructions"] != actual["instructions"]:
        raise TraceReconciliationError(
            f"{expected_source} retired {expected['instructions']} "
            f"instructions, {actual_source} says {actual['instructions']}",
            field="instructions",
            expected=expected["instructions"],
            actual=actual["instructions"],
        )
    exp_groups = dict(expected["by_group"])
    act_groups = dict(actual["by_group"])
    for group in sorted(set(exp_groups) | set(act_groups)):
        if exp_groups.get(group, 0) != act_groups.get(group, 0):
            raise TraceReconciliationError(
                f"group {group!r}: {expected_source}="
                f"{exp_groups.get(group, 0)} vs {actual_source}="
                f"{act_groups.get(group, 0)}",
                field=f"by_group.{group}",
                expected=exp_groups.get(group, 0),
                actual=act_groups.get(group, 0),
            )


__all__ = [
    "MerkleProof",
    "StepTraceRecord",
    "TraceReconciliationError",
    "UnifiedStepTrace",
    "counts_from_events",
    "counts_from_span",
    "counts_from_trace",
    "from_struct_logs",
    "group_for_op",
    "merkle_proof",
    "reconcile_step_traces",
    "reconcile_counts",
    "verify_merkle_proof",
]
