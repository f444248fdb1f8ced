"""Independent reference implementations the suite compares against.

``affine_*`` is the textbook affine secp256k1 group law and
double-and-add — the code ``repro.crypto.ecc`` shipped before it moved
to Jacobian coordinates.  It pays one modular inversion per group
operation and shares nothing with the production law beyond the curve
constants, which is what makes it an oracle: every production result
(scalar multiples, table entries, ECDH secrets, verify verdicts) must
equal what this code computes.

``looped_keccak_f1600`` is the Keccak-f[1600] permutation as the
reference specification writes it — theta, rho + pi, chi, iota as
nested loops over a rotation table — the code ``repro.crypto.keccak``
shipped before its rounds were written out straight-line.  It keeps
the rotation table here, beside the only loops that read it, and shares
the round constants with production and nothing else: the folded
rotation amounts and lane moves there must reproduce what these loops
compute from the table.

``yellow_paper_trie`` is the Yellow Paper's appendix D ``TRIE(J)``
computed straight from the sorted key/value set: no tree object, no
put or delete, no code shared with ``repro.trie``.  The root and the
hashed nodes a ``MerklePatriciaTrie`` commits must equal what it
computes.

``reference_run`` is the interpreter's dispatch loop as it shipped
before the per-opcode step table: ``opcodes.info`` per step,
``use_gas`` for the static charge, ``DISPATCH`` for the handler,
``push_size`` for the pc.  It shares the *handlers* with production, so
it is an oracle for the loop — order of hook, gas, handler and pc;
error strings; zeroed gas — and for nothing a handler computes: it is
not the independent second opinion on the EVM that ROADMAP item 7 asks
for.

``bit_serial_ghash_tables`` is GHASH's multiplication by the subkey
as SP 800-38D's Algorithm 1 writes it, one bit of the block at a time:
the definition the byte tables ``repro.crypto.aes.ghash_tables`` builds
by linearity must equal entry by entry.

``outcome_on_both_verifiers`` runs one check and sends every signature
check it makes through OpenSSL's verifier also through the table-free
``PublicKey.verify`` — same key, hash and signature — which must accept
or raise the same exception type with the same message.

``tree_encode_trace_report`` / ``tree_decode_trace_report`` are the
trace-report codec as it shipped before it was written flat: build the
nested lists and ``rlp.encode`` them; ``rlp.decode`` the bytes and walk
the tree a second time to type it.  The flat codec must put the same
bytes on the wire and read back the same value or refuse the same
input — except an address that is not 20 bytes, which only the flat
decoder refuses.
"""

from __future__ import annotations

from repro.rlp import codec as rlp
from repro.crypto.backend import _OpensslVerifier
from repro.crypto.ecc import G, INFINITY, N, P, InvalidSignature, Point, Signature
from repro.crypto.keccak import _MASK64, _ROUND_CONSTANTS, keccak256
from repro.evm import opcodes
from repro.evm.exceptions import FrameError, InvalidOpcode, OutOfGas
from repro.evm.instructions import DISPATCH
from repro.hypervisor.bundle_codec import (
    TraceReport,
    TransactionTrace,
    _bytes,
    _flag,
    _list,
    _records,
    _uint,
)


def affine_add(p: Point, q: Point) -> Point:
    if p.is_infinity:
        return q
    if q.is_infinity:
        return p
    if p.x == q.x:
        if (p.y + q.y) % P == 0:
            return INFINITY
        slope = (3 * p.x * p.x) * pow(2 * p.y, -1, P) % P
    else:
        slope = (q.y - p.y) * pow(q.x - p.x, -1, P) % P
    x = (slope * slope - p.x - q.x) % P
    return Point(x, (slope * (p.x - x) - p.y) % P)


def affine_scalar_mul(k: int, point: Point) -> Point:
    """Right-to-left double-and-add."""
    k %= N
    result, addend = INFINITY, point
    while k:
        if k & 1:
            result = affine_add(result, addend)
        addend = affine_add(addend, addend)
        k >>= 1
    return result


def affine_verify(point: Point, message_hash: bytes, signature: Signature) -> None:
    """ECDSA verification over the affine law; same verdicts, same messages."""
    r, s = signature.r, signature.s
    if not (1 <= r < N and 1 <= s < N):
        raise InvalidSignature("signature scalars out of range")
    s_inv = pow(s, -1, N)
    u1 = int.from_bytes(message_hash, "big") * s_inv % N
    u2 = r * s_inv % N
    total = affine_add(affine_scalar_mul(u1, G), affine_scalar_mul(u2, point))
    if total.is_infinity:
        raise InvalidSignature("verification produced infinity")
    if total.x % N != r:
        raise InvalidSignature("r mismatch")


def bit_serial_gf128_mul(x: int, y: int) -> int:
    """GF(2^128) product, GCM polynomial, bits reflected, bit by bit."""
    result = 0
    for i in range(127, -1, -1):
        if (y >> i) & 1:
            result ^= x
        x = (x >> 1) ^ (0xE1 << 120) if x & 1 else x >> 1
    return result


def bit_serial_ghash_tables(h: int) -> list[list[int]]:
    """The GHASH byte tables, one bit-serial product per entry."""
    return [
        [bit_serial_gf128_mul(value << (8 * (15 - byte_index)), h) for value in range(256)]
        for byte_index in range(16)
    ]


def _outcome(call) -> tuple:
    """``("returned", value)`` or ``(exception type, message)``."""
    try:
        return "returned", call()
    except Exception as error:
        return type(error), str(error)


def outcome_on_both_verifiers(check) -> tuple[tuple, int]:
    """``check()``'s outcome and how many signature checks it made.

    While ``check`` runs, each ``_OpensslVerifier.verify`` call first
    asks the table-free ``PublicKey.verify`` of its key the same
    question; the two verdicts must be the same accept, or the same
    exception type with the same message."""
    openssl_verify = _OpensslVerifier.verify
    verdicts: list[tuple[tuple, tuple]] = []

    def verify(self, message_hash, signature):
        expected = _outcome(lambda: self.public_key.verify(message_hash, signature))
        try:
            openssl_verify(self, message_hash, signature)
        except Exception as error:
            verdicts.append(((type(error), str(error)), expected))
            raise
        verdicts.append((("returned", None), expected))

    _OpensslVerifier.verify = verify
    try:
        outcome = _outcome(check)
    finally:
        _OpensslVerifier.verify = openssl_verify
    assert all(got == expected for got, expected in verdicts), verdicts
    return outcome, len(verdicts)


# Rotation offsets, indexed [x][y] per the Keccak reference.
_ROTATION = (
    (0, 36, 3, 41, 18),
    (1, 44, 10, 45, 2),
    (62, 6, 43, 15, 61),
    (28, 55, 25, 21, 56),
    (27, 20, 39, 8, 14),
)


def _rol(value: int, shift: int) -> int:
    """Rotate a 64-bit lane left by ``shift`` bits."""
    shift %= 64
    if shift == 0:
        return value
    return ((value << shift) | (value >> (64 - shift))) & _MASK64


def looped_keccak_f1600(lanes: list[int]) -> None:
    """Apply Keccak-f[1600] to 25 lanes (``lanes[x + 5 * y]``) in place."""
    for round_constant in _ROUND_CONSTANTS:
        # theta
        parity = [
            lanes[x] ^ lanes[x + 5] ^ lanes[x + 10] ^ lanes[x + 15] ^ lanes[x + 20]
            for x in range(5)
        ]
        for x in range(5):
            d = parity[(x - 1) % 5] ^ _rol(parity[(x + 1) % 5], 1)
            for y in range(0, 25, 5):
                lanes[x + y] ^= d
        # rho + pi
        moved = [0] * 25
        for x in range(5):
            for y in range(5):
                moved[y + 5 * ((2 * x + 3 * y) % 5)] = _rol(
                    lanes[x + 5 * y], _ROTATION[x][y]
                )
        # chi
        for y in range(0, 25, 5):
            row = moved[y:y + 5]
            for x in range(5):
                lanes[x + y] = row[x] ^ ((~row[(x + 1) % 5]) & row[(x + 2) % 5])
        # iota
        lanes[0] ^= round_constant


def yellow_paper_trie(items: dict[bytes, bytes]) -> tuple[bytes, dict[bytes, bytes]]:
    """``TRIE(J)`` of Yellow Paper appendix D over ``items``.

    Returns the root and the node store it commits: the RLP of every node
    referred to by hash, under its Keccak-256.  A node whose RLP is
    under 32 bytes is embedded in its parent, except the root, which is
    always hashed (and stored).  The empty set's root is
    ``KEC(RLP(""))`` and stores nothing.
    """
    stored: dict[bytes, bytes] = {}
    # J as (nibble key, value) pairs, sorted: the keys' longest shared
    # prefix is then the one the first and last key share.
    pairs = sorted(
        (tuple(nibble for byte in key for nibble in (byte >> 4, byte & 15)), value)
        for key, value in items.items()
    )

    def hex_prefix(nibbles: tuple[int, ...], leaf: bool) -> bytes:  # HP(x, t)
        flag = 2 if leaf else 0
        if len(nibbles) % 2:
            nibbles = (flag + 1,) + nibbles
        else:
            nibbles = (flag, 0) + nibbles
        return bytes(
            16 * nibbles[k] + nibbles[k + 1] for k in range(0, len(nibbles), 2)
        )

    def n(subset: list, i: int):
        """The node-composition function: what a parent embeds."""
        if not subset:
            return b""
        node = c(subset, i)
        encoded = rlp.encode(node)
        if len(encoded) < 32:
            return node
        digest = keccak256(encoded)
        stored[digest] = encoded
        return digest

    def c(subset: list, i: int) -> list:
        """The structural composition of the pairs' keys from nibble ``i``."""
        if len(subset) == 1:
            (key, value), = subset
            return [hex_prefix(key[i:], True), value]
        first, last = subset[0][0], subset[-1][0]
        j = i
        while j < min(len(first), len(last)) and first[j] == last[j]:
            j += 1
        if j > i:
            return [hex_prefix(first[i:j], False), n(subset, j)]
        children = [
            n([(key, value) for key, value in subset if len(key) > i and key[i] == x],
              i + 1)
            for x in range(16)
        ]
        here = [value for key, value in subset if len(key) == i]
        return children + [here[0] if here else b""]

    if not pairs:
        return keccak256(rlp.encode(b"")), stored
    encoded = rlp.encode(c(pairs, 0))
    root = keccak256(encoded)
    stored[root] = encoded
    return root, stored


def in_memory_proof(trie, key: bytes) -> list[bytes]:
    """The Merkle proof for ``key``, derived from the in-memory nodes.

    The prover ``MerklePatriciaTrie.prove`` shipped before it read
    proofs out of the trie's commitment: walk the in-memory tree and
    re-encode the whole subtree under every node on the path.  It never
    looks at the commitment, so it cannot be misled by a stale one.
    """
    from repro.trie.nibbles import bytes_to_nibbles, common_prefix_length, hp_decode

    def to_rlp(node):
        if len(node) == 17:
            return [ref(child) for child in node[:16]] + [node[16]]
        _path, is_leaf = hp_decode(node[0])
        return [node[0], node[1] if is_leaf else ref(node[1])]

    def ref(child):
        if isinstance(child, bytes):
            return child
        encoded = rlp.encode(to_rlp(child))
        return keccak256(encoded) if len(encoded) >= 32 else to_rlp(child)

    proof: list[bytes] = []
    node, path = trie._root, bytes_to_nibbles(key)
    while node != b"":
        proof.append(rlp.encode(to_rlp(node)))
        if len(node) == 17:
            if not path:
                break
            child, path = node[path[0]], path[1:]
        else:
            node_path, is_leaf = hp_decode(node[0])
            if is_leaf or common_prefix_length(node_path, path) != len(node_path):
                break
            child, path = node[1], path[len(node_path):]
        # An embedded child is already inside the element just emitted.
        if child == b"" or len(rlp.encode(to_rlp(child))) < 32:
            break
        node = child
    return proof


def reference_run(interpreter, frame) -> str | None:
    """``Interpreter._run``: execute the frame, return an error string or None."""
    frame.halted = False
    code = frame.code
    code_length = len(code)
    tracer = interpreter.tracer
    try:
        while not frame.halted:
            if frame.pc >= code_length:
                # Implicit STOP past the end of code.
                frame.output = b""
                break
            opcode = code[frame.pc]
            entry = opcodes.info(opcode)
            if entry is None:
                raise InvalidOpcode(opcode)
            tracer.on_step(frame, opcode)
            frame.use_gas(entry.base_gas)
            handler = DISPATCH[opcode]
            jumped = handler(interpreter, frame)
            if not jumped:
                frame.pc += 1 + opcodes.push_size(opcode)
    except FrameError as exc:
        if isinstance(exc, OutOfGas):
            frame.gas = 0
        else:
            frame.gas = 0
        return type(exc).__name__ + ": " + str(exc)
    return None


def _text(item, what: str) -> str | None:
    try:
        return _bytes(item, what).decode() or None
    except UnicodeDecodeError as error:
        raise rlp.DecodingError(f"{what}: {error}") from error


def _sorted_map(pairs: list[tuple], what: str) -> dict:
    """``pairs`` as a dict, refusing any order ``sorted()`` would not emit."""
    if any(a[0] >= b[0] for a, b in zip(pairs, pairs[1:])):
        raise rlp.DecodingError(f"{what}: entries out of order or repeated")
    return dict(pairs)


def tree_encode_trace_report(report: TraceReport) -> bytes:
    items = [
        report.bundle_id,
        b"\x01" if report.aborted else b"",
        (report.abort_reason or "").encode(),
        [
            [
                rlp.encode_uint(trace.status),
                rlp.encode_uint(trace.gas_used),
                trace.return_data,
                (trace.error or "").encode(),
                [
                    [address, rlp.encode_uint(balance)]
                    for address, balance in sorted(trace.balance_changes.items())
                ],
                [
                    [address, rlp.encode_uint(key), rlp.encode_uint(value)]
                    for (address, key), value in sorted(trace.storage_changes.items())
                ],
                [
                    [address, [rlp.encode_uint(t) for t in topics], data]
                    for address, topics, data in trace.logs
                ],
            ]
            for trace in report.traces
        ],
    ]
    return rlp.encode(items)


def tree_decode_trace_report(data: bytes) -> TraceReport:
    bundle_id, aborted, abort_reason, trace_items = _list(
        rlp.decode(data), "trace report", 4
    )
    traces = []
    for status, gas_used, return_data, error, balances, storages, logs in (
        _records(trace_items, "trace", 7)
    ):
        traces.append(
            TransactionTrace(
                status=_uint(status, "status"),
                gas_used=_uint(gas_used, "gas used"),
                return_data=_bytes(return_data, "return data"),
                error=_text(error, "error"),
                balance_changes=_sorted_map(
                    [
                        (_bytes(address, "address"), _uint(balance, "balance"))
                        for address, balance in _records(
                            balances, "balance change", 2
                        )
                    ],
                    "balance changes",
                ),
                storage_changes=_sorted_map(
                    [
                        (
                            (_bytes(address, "address"), _uint(key, "storage key")),
                            _uint(value, "storage value"),
                        )
                        for address, key, value in _records(
                            storages, "storage change", 3
                        )
                    ],
                    "storage changes",
                ),
                logs=[
                    (
                        _bytes(address, "log address"),
                        [_uint(t, "topic") for t in _list(topics, "topics")],
                        _bytes(log_data, "log data"),
                    )
                    for address, topics, log_data in _records(logs, "log", 3)
                ],
            )
        )
    return TraceReport(
        bundle_id=_bytes(bundle_id, "bundle id"),
        traces=traces,
        aborted=_flag(aborted, "aborted flag"),
        abort_reason=_text(abort_reason, "abort reason"),
    )
