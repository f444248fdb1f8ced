"""Merkle Patricia Trie with Merkle-proof generation and verification.

This is the structure that authenticates the Ethereum world state: the
account trie maps ``keccak256(address)`` to RLP-encoded account records,
and each contract's storage trie maps ``keccak256(key)`` to RLP-encoded
values.  HarDTAPE's Hypervisor verifies Merkle proofs against block state
roots during block synchronization (paper §IV-C) — after that, ORAM
AES-GCM protects integrity and proofs are no longer fetched.

Node model (per the yellow paper):

* **leaf** — ``[hp(path, leaf=True), value]``
* **extension** — ``[hp(path, leaf=False), ref]``
* **branch** — 17 items: 16 child refs plus a value slot

A *ref* is the node itself when its RLP is shorter than 32 bytes,
otherwise the Keccak-256 hash of its RLP.  Hashed nodes live in a
node store so proofs (the list of RLP nodes on the lookup path) can be
served for any committed root.

The trie remembers its last *commitment* — the root hash, with every
hashed node's RLP in the store under it — until the next ``put`` or
``delete``.  ``root_hash`` on an unchanged trie is a lookup, and
``prove`` reads a proof straight out of the commitment (hash by hash
down the lookup path, exactly as :func:`verify_proof` will read it
back), so N proofs cost one commit, not N.
"""

from __future__ import annotations

from typing import Iterator

from repro.rlp import codec as rlp
from repro.crypto.keccak import keccak256
from repro.trie.nibbles import (
    bytes_to_nibbles,
    common_prefix_length,
    hp_decode,
    hp_encode,
)

# The hash of the empty trie: keccak256(rlp(b"")).
EMPTY_ROOT = keccak256(rlp.encode(b""))

_BLANK = b""
Node = bytes | list  # _BLANK, [path, value/ref], or 17-item branch


class ProofError(Exception):
    """Raised when a Merkle proof fails verification."""


class MerklePatriciaTrie:
    """An in-memory MPT over raw byte keys.

    Keys are arbitrary byte strings (callers hash them when emulating the
    secure trie).  ``root_hash`` commits the current tree into the node
    store and returns the 32-byte root.
    """

    def __init__(self) -> None:
        self._root: Node = _BLANK
        self._store: dict[bytes, bytes] = {}
        # Root of the last commit while ``_root`` is still the tree it
        # committed; ``None`` from any put/delete to the next commit.
        self._committed_root: bytes | None = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def get(self, key: bytes) -> bytes | None:
        """Return the value for ``key``, or ``None`` if absent."""
        return self._get(self._root, bytes_to_nibbles(key))

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or update ``key``.  Empty values delete the key."""
        if value == b"":
            self.delete(key)
            return
        self._committed_root = None
        self._root = self._put(self._root, bytes_to_nibbles(key), value)

    def delete(self, key: bytes) -> None:
        """Remove ``key`` if present."""
        self._committed_root = None
        self._root = self._delete(self._root, bytes_to_nibbles(key))

    def root_hash(self) -> bytes:
        """Commit the tree and return its Merkle root.

        The commit is one post-order walk (:meth:`_commit`): each node's
        ref is its RLP when that is under 32 bytes, else its Keccak-256
        digest, with the RLP stored under the digest.  A root is always
        referred to by hash, so a short root is hashed and stored too.
        An unchanged trie answers from its last commitment.
        """
        if self._committed_root is not None:
            return self._committed_root
        if self._root == _BLANK:
            root = EMPTY_ROOT
        else:
            root = self._commit(self._root)
            if isinstance(root, list):
                encoded = rlp.encode(root)
                root = keccak256(encoded)
                self._store[root] = encoded
        self._committed_root = root
        return root

    def _commit(self, node: Node) -> rlp.RlpItem:
        """Return the RLP item a parent embeds for ``node``: a 32-byte
        ref as-is, a node whose RLP is under 32 bytes structurally, and
        any other node as the digest its RLP is stored under."""
        if isinstance(node, (bytes, bytearray)):
            return bytes(node)
        if len(node) == 17:
            item = [self._commit(node[i]) for i in range(16)] + [node[16]]
        elif hp_decode(node[0])[1]:  # leaf
            item = [node[0], node[1]]
        else:
            item = [node[0], self._commit(node[1])]
        encoded = rlp.encode(item)
        if len(encoded) < 32:
            return item
        digest = keccak256(encoded)
        self._store[digest] = encoded
        return digest

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        """Iterate ``(key, value)`` pairs in lexicographic key order."""
        yield from self._iter_node(self._root, ())

    def prove(self, key: bytes) -> list[bytes]:
        """Return the Merkle proof for ``key`` under the current root.

        The proof is the list of RLP-encoded nodes on the lookup path,
        root first.  Works for both membership and non-membership.

        Read from the commitment, not the in-memory tree: each hashed
        node's RLP is in the store under the ref its parent embeds, so
        the proof is what one lookup reads from the store — the very
        walk :func:`verify_proof` repeats over the proof alone.
        """
        if self._root == _BLANK:
            return []
        return _lookup(self._store, self.root_hash(), key)[1]

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def _get(self, node: Node, path: tuple[int, ...]) -> bytes | None:
        if node == _BLANK:
            return None
        if len(node) == 17:  # branch
            if not path:
                value = node[16]
                return bytes(value) if value != _BLANK else None
            return self._get(self._resolve(node[path[0]]), path[1:])
        node_path, is_leaf = hp_decode(node[0])
        if is_leaf:
            return bytes(node[1]) if node_path == path else None
        prefix = common_prefix_length(node_path, path)
        if prefix != len(node_path):
            return None
        return self._get(self._resolve(node[1]), path[prefix:])

    # ------------------------------------------------------------------
    # Insert
    # ------------------------------------------------------------------

    def _put(self, node: Node, path: tuple[int, ...], value: bytes) -> Node:
        if node == _BLANK:
            return [hp_encode(path, True), value]
        if len(node) == 17:  # branch
            if not path:
                return node[:16] + [value]
            child = self._resolve(node[path[0]])
            new_node = list(node)
            new_node[path[0]] = self._put(child, path[1:], value)
            return new_node
        node_path, is_leaf = hp_decode(node[0])
        prefix = common_prefix_length(node_path, path)
        if is_leaf and node_path == path:
            return [node[0], value]
        if not is_leaf and prefix == len(node_path):
            child = self._put(self._resolve(node[1]), path[prefix:], value)
            return [node[0], child]
        # Split: build a branch at the divergence point.
        branch: list = [_BLANK] * 17
        remaining_old = node_path[prefix:]
        if remaining_old:
            stub = (
                [hp_encode(remaining_old[1:], True), node[1]]
                if is_leaf
                else self._shorten_extension(remaining_old[1:], node[1])
            )
            branch[remaining_old[0]] = stub
        else:
            if is_leaf:
                branch[16] = node[1]
            else:
                # Extension fully consumed: its child takes the slot...
                # but an extension always has a non-empty path, so the
                # divergence at prefix == len(node_path) was handled above.
                raise AssertionError("unreachable: empty extension remainder")
        remaining_new = path[prefix:]
        if remaining_new:
            branch[remaining_new[0]] = [hp_encode(remaining_new[1:], True), value]
        else:
            branch[16] = value
        if prefix:
            return [hp_encode(path[:prefix], False), branch]
        return branch

    def _shorten_extension(self, path: tuple[int, ...], ref: Node) -> Node:
        """Re-root an extension whose path lost its first nibble."""
        if path:
            return [hp_encode(path, False), ref]
        return self._resolve(ref)

    # ------------------------------------------------------------------
    # Delete
    # ------------------------------------------------------------------

    def _delete(self, node: Node, path: tuple[int, ...]) -> Node:
        if node == _BLANK:
            return _BLANK
        if len(node) == 17:
            if not path:
                new_node = node[:16] + [_BLANK]
            else:
                child = self._delete(self._resolve(node[path[0]]), path[1:])
                new_node = list(node)
                new_node[path[0]] = child
            return self._normalize_branch(new_node)
        node_path, is_leaf = hp_decode(node[0])
        if is_leaf:
            return _BLANK if node_path == path else node
        prefix = common_prefix_length(node_path, path)
        if prefix != len(node_path):
            return node
        child = self._delete(self._resolve(node[1]), path[prefix:])
        if child == _BLANK:
            return _BLANK
        return self._merge_extension(node_path, child)

    def _normalize_branch(self, branch: list) -> Node:
        """Collapse branches left with zero or one occupied slot."""
        occupied = [i for i in range(16) if branch[i] != _BLANK]
        has_value = branch[16] != _BLANK
        if len(occupied) + (1 if has_value else 0) > 1:
            return branch
        if has_value and not occupied:
            return [hp_encode((), True), branch[16]]
        if not occupied:
            return _BLANK
        index = occupied[0]
        child = self._resolve(branch[index])
        return self._merge_extension((index,), child)

    def _merge_extension(self, path: tuple[int, ...], child: Node) -> Node:
        """Prepend ``path`` to ``child``, merging leaf/extension paths."""
        child = self._resolve(child)
        if child != _BLANK and len(child) == 2:
            child_path, child_is_leaf = hp_decode(child[0])
            return [hp_encode(path + child_path, child_is_leaf), child[1]]
        if not path:
            return child
        return [hp_encode(path, False), child]

    # ------------------------------------------------------------------
    # Hashing / store
    # ------------------------------------------------------------------

    def _resolve(self, ref: Node) -> Node:
        """Dereference a 32-byte hash ref through the node store."""
        if isinstance(ref, (bytes, bytearray)) and len(ref) == 32 and ref != _BLANK:
            encoded = self._store.get(bytes(ref))
            if encoded is None:
                raise KeyError(f"missing trie node {bytes(ref).hex()}")
            return self._decode_node(rlp.decode(encoded))
        return ref

    @staticmethod
    def _decode_node(item: rlp.RlpItem) -> Node:
        if isinstance(item, (bytes, bytearray)):
            return bytes(item)
        return list(item)

    def _iter_node(
        self, node: Node, prefix: tuple[int, ...]
    ) -> Iterator[tuple[bytes, bytes]]:
        if node == _BLANK:
            return
        node = self._resolve(node)
        if len(node) == 17:
            if node[16] != _BLANK:
                yield self._nibbles_to_key(prefix), bytes(node[16])
            for i in range(16):
                if node[i] != _BLANK:
                    yield from self._iter_node(node[i], prefix + (i,))
            return
        path, is_leaf = hp_decode(node[0])
        if is_leaf:
            yield self._nibbles_to_key(prefix + path), bytes(node[1])
        else:
            yield from self._iter_node(node[1], prefix + path)

    @staticmethod
    def _nibbles_to_key(nibbles: tuple[int, ...]) -> bytes:
        from repro.trie.nibbles import nibbles_to_bytes

        return nibbles_to_bytes(nibbles)


def verify_proof(root: bytes, key: bytes, proof: list[bytes]) -> bytes | None:
    """Verify a Merkle proof against ``root`` and return the proven value.

    Returns ``None`` for a valid *non-membership* proof.  Raises
    :class:`ProofError` if the proof does not authenticate under ``root``
    (the check the Hypervisor runs on Node responses, defeating A6).
    """
    if root == EMPTY_ROOT and not proof:
        return None
    store = {keccak256(encoded): encoded for encoded in proof}
    return _lookup(store, root, key)[0]


def _lookup(
    store: dict[bytes, bytes], root: bytes, key: bytes
) -> tuple[bytes | None, list[bytes]]:
    """Look ``key`` up from ``root`` through the hashed nodes in ``store``.

    Returns the value (``None`` when the trie does not hold the key) and
    the RLP of every node read from the store on the way, root first —
    which is the key's Merkle proof.  ``store`` may be hostile (a proof
    from the Node): whatever does not authenticate is a
    :class:`ProofError`.
    """
    path = bytes_to_nibbles(key)
    expected: rlp.RlpItem = root
    read: list[bytes] = []

    while True:
        if isinstance(expected, (bytes, bytearray)):
            if expected == b"":
                return None, read
            if len(expected) != 32:
                raise ProofError("malformed node reference")
            encoded = store.get(bytes(expected))
            if encoded is None:
                # A proof may legitimately end early for non-membership
                # only when the divergence was shown by a previous node;
                # a dangling hashed ref on the lookup path is invalid.
                raise ProofError("proof is missing a node on the path")
            read.append(encoded)
            try:
                node = rlp.decode(encoded)
            except rlp.DecodingError as exc:
                # Hashing to the expected ref does not make bytes RLP.
                raise ProofError(f"trie node is not canonical RLP: {exc}") from exc
        else:
            node = expected  # embedded in the node that referred to it
        if not isinstance(node, list):
            raise ProofError("trie node must be a list")
        if len(node) == 17:
            if not path:
                value = node[16]
                if not isinstance(value, (bytes, bytearray)):
                    raise ProofError("branch value must be bytes")
                return (bytes(value) if value != b"" else None), read
            child = node[path[0]]
            if child == b"":
                return None, read
            path = path[1:]
            expected = child
            continue
        if len(node) != 2:
            raise ProofError("trie node must have 2 or 17 items")
        first = node[0]
        if not isinstance(first, (bytes, bytearray)):
            raise ProofError("node path must be bytes")
        try:
            node_path, is_leaf = hp_decode(bytes(first))
        except ValueError as exc:
            raise ProofError(str(exc)) from exc
        if is_leaf:
            if node_path == path:
                value = node[1]
                if not isinstance(value, (bytes, bytearray)):
                    raise ProofError("leaf value must be bytes")
                return bytes(value), read
            return None, read
        prefix = common_prefix_length(node_path, path)
        if prefix != len(node_path):
            return None, read
        path = path[prefix:]
        expected = node[1]
