"""Host-time spans around the layers' public entry points, from outside.

The benchmark may not edit ``src/``, so every span is recorded by a
wrapper patched in from here: class methods on the class, module
functions at the name their caller looks up.  ``ENTRY_POINTS`` is the
exact list, so a later in-program tracing issue can replace the
wrappers span for span.

A span is ``(name, start_s, end_s, parent, request, phase)``.  Spans
are kept in memory and written out when the benchmark ends.  A span's
*self time* is its duration minus the time its direct children cover;
the process is single-threaded, so children nest strictly and never
overlap.  C builtins (``pow``, ``int.to_bytes``, blake2b) run inside
whichever Python span called them, so their time lands on the calling
layer rather than in an "other" bucket.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

# (span name, module, class or None, attribute).  The span name's
# prefix up to the first dot is the layer (= ``src/repro/<module>``).
ENTRY_POINTS: tuple[tuple[str, str, str | None, str], ...] = (
    ("serving.submit", "repro.serving.gateway", "Gateway", "submit"),
    ("serving.drain", "repro.serving.gateway", "Gateway", "drain"),
    ("core.submit_bundle", "repro.core.service", "HarDTAPEService", "submit_bundle"),
    ("core.sync_new_blocks", "repro.core.service", "HarDTAPEService", "sync_new_blocks"),
    ("core.connect", "repro.core.user", "PreExecutionClient", "connect"),
    ("core.suspend", "repro.core.user", "PreExecutionClient", "suspend"),
    ("core.resume", "repro.core.user", "PreExecutionClient", "resume"),
    ("hypervisor.submit_bundle", "repro.hypervisor.hypervisor", "Hypervisor", "submit_bundle"),
    ("hypervisor.begin_attestation", "repro.hypervisor.hypervisor", "Hypervisor", "begin_attestation"),
    ("hypervisor.establish_session", "repro.hypervisor.hypervisor", "Hypervisor", "establish_session"),
    ("hypervisor.mint_ticket", "repro.hypervisor.hypervisor", "Hypervisor", "mint_resumption_ticket"),
    ("hypervisor.resume_session", "repro.hypervisor.hypervisor", "Hypervisor", "resume_session"),
    ("hypervisor.channel_seal", "repro.hypervisor.channel", "SecureChannel", "seal"),
    ("hypervisor.channel_open", "repro.hypervisor.channel", "SecureChannel", "open"),
    # The codec, at each name a caller looks it up: the device side in
    # ``hypervisor.hypervisor``, the user side in this benchmark.
    ("hypervisor.codec", "repro.hypervisor.hypervisor", None, "decode_bundle"),
    ("hypervisor.codec", "repro.hypervisor.hypervisor", None, "encode_trace_report"),
    ("hypervisor.codec", "benchmarks.e2e.workloads", None, "encode_bundle"),
    ("hypervisor.codec", "benchmarks.e2e.workloads", None, "decode_trace_report"),
    ("hypervisor.receipt_audit", "repro.hypervisor.receipts", "ReceiptAuditor", "audit"),
    ("hypervisor.sync_apply", "repro.hypervisor.sync", "BlockSynchronizer", "apply_block"),
    ("hardware.run_bundle", "repro.hardware.hevm", "HevmCore", "run_bundle"),
    ("evm.execute", "repro.hardware.hevm", None, "execute_transaction"),
    ("oram.access", "repro.oram.client", "PathOramClient", "access"),
    ("oram.server", "repro.oram.server", "OramServer", "read_path"),
    ("oram.server", "repro.oram.server", "OramServer", "write_path"),
    ("oram.sync_account", "repro.oram.adapter", "ObliviousStateBackend", "sync_account"),
    # The ciphers in use under the default tier: AES-GCM on the secure
    # channel and tickets, the BLAKE2 AEAD on ORAM blocks.
    ("crypto.aead", "repro.crypto.suite", "AesGcmAead", "encrypt"),
    ("crypto.aead", "repro.crypto.suite", "AesGcmAead", "decrypt"),
    ("crypto.aead", "repro.crypto.suite", "AesGcmAead", "seal_blocks"),
    ("crypto.aead", "repro.crypto.suite", "AesGcmAead", "open_blocks"),
    ("crypto.aead", "repro.crypto.suite", "Blake2Aead", "encrypt"),
    ("crypto.aead", "repro.crypto.suite", "Blake2Aead", "decrypt"),
    ("crypto.aead", "repro.crypto.suite", "Blake2Aead", "open_blocks"),
    ("crypto.ecdsa_sign", "repro.crypto.ecc", "PrivateKey", "sign"),
    ("crypto.ecdh", "repro.crypto.ecc", "PrivateKey", "ecdh"),
    ("crypto.ecdsa_verify", "repro.crypto.ecc", "PublicKey", "verify"),
    ("crypto.ecdsa_verify", "repro.crypto.ecc", "PrecomputedVerifier", "verify"),
    ("crypto.ecdsa_verify", "repro.crypto.ecc", "PrecomputedVerifier", "verify_many"),
    ("crypto.ecdsa_verify", "repro.crypto.backend", "_OpensslVerifier", "verify"),
    ("trie.verify_proof", "repro.state.world", None, "verify_proof"),
    ("trie.root_hash", "repro.trie.mpt", "MerklePatriciaTrie", "root_hash"),
    ("node.add_block", "repro.node.node", "EthereumNode", "add_block"),
    ("sharding.page_read", "repro.sharding.backend", "ShardRoutingClient", "read"),
    ("sharding.sync_account", "repro.sharding.backend", "ShardedObliviousStateBackend", "sync_account"),
)


class NullRecorder:
    """What untraced repetitions get: requests cost one ``yield``."""

    @contextmanager
    def request(self, phase: str):
        yield


class SpanRecorder:
    """Records spans for one traced repetition."""

    def __init__(self) -> None:
        # Slot i is filled when span i ends; a parent's slot index is
        # smaller than its children's.
        self.spans: list[tuple[str, float, float, int, int, str] | None] = []
        self._stack: list[int] = []
        self._request = -1
        # The running request's phase; observers read it.
        self.phase = "idle"
        self._patched: list[tuple[object, str, object]] = []
        # Return values handed to observers, e.g. ``HevmRunStats``.
        self._observers: dict[str, object] = {}

    # -- recording -------------------------------------------------------

    def _begin(self) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index

    def _end(self, index: int, name: str, start: float, end: float) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = (name, start, end, parent, self._request, self.phase)

    @contextmanager
    def request(self, phase: str):
        """One benchmark-level operation; its root span is ``bench.<phase>``."""
        self._request += 1
        self.phase = phase
        index = self._begin()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._end(index, "bench." + phase, start, time.perf_counter())
            self.phase = "idle"

    def _wrap(self, name: str, function):
        observer = self._observers.get(name)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = self._begin()
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                self._end(index, name, start, time.perf_counter())
            if observer is not None:
                observer(result)
            return result

        return traced

    # -- patching --------------------------------------------------------

    def observe(self, name: str, callback) -> None:
        """Hand every return value of span ``name`` to ``callback``.

        Must be called before :meth:`install`.
        """
        self._observers[name] = callback

    def install(self) -> None:
        for name, module_name, class_name, attribute in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attribute]
            self._patched.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self seconds per span, index-aligned with :attr:`spans`."""
        self_s = [span[2] - span[1] for span in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                self_s[span[3]] -= span[2] - span[1]
        return self_s

    def totals(self, phase: str) -> dict[str, float]:
        """Self seconds per span name over every request of ``phase``."""
        out: dict[str, float] = defaultdict(float)
        for span, self_s in zip(self.spans, self.self_times()):
            if span[5] == phase:
                out[span[0]] += self_s
        return out

    def outermost(
        self, names: tuple[str, ...], phase: str
    ) -> list[tuple[int, float]]:
        """``(request, seconds)`` of each span in ``names`` not nested in
        another of them (``verify_many`` calls ``verify``: one verify)."""
        out = []
        for span in self.spans:
            if span[5] != phase or span[0] not in names:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if parent < 0:
                out.append((span[4], span[2] - span[1]))
        return out

    def dump(self, path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            [name, round((start - origin) * 1e6, 1), round((end - origin) * 1e6, 1),
             parent, request, phase]
            for name, start, end, parent, request, phase in self.spans
        ]
        path.write_text(json.dumps({
            "columns": ["name", "start_us", "end_us", "parent", "request", "phase"],
            "spans": rows,
        }))
