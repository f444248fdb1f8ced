"""Pure-Python AES-128/192/256 block cipher (FIPS 197).

Encryption uses precomputed T-tables for speed; there is no inverse
cipher, because GCM (the only mode built on this, in
:mod:`repro.crypto.gcm`) runs the block transform forward in both
directions.

The implementation is for the HarDTAPE *functional* simulation: it is
byte-for-byte compatible with standard AES (checked against FIPS test
vectors in the test suite) but makes no constant-time claims, which is
irrelevant here because adversary timing in the simulation is modeled by
:mod:`repro.hardware.timing`, not by wall clock.

CTR keystream generation is the simulator's hottest loop (64 block
transforms per 1 KB ORAM block), so :meth:`AES.ctr_keystream` runs the
T-table rounds as numpy uint32 gathers over all counter blocks at once,
producing bytes identical to a block-at-a-time reference (see
``tests/unit/test_aes_gcm.py``).  The secure channel of the default
crypto tier runs in OpenSSL, so this cipher's remaining users are the
``numpy`` and ``reference`` tiers and the perf-bench ORAM substrate.
"""

from __future__ import annotations

import numpy as _np

# ---------------------------------------------------------------------------
# S-box generation (from GF(2^8) arithmetic, so no magic tables are pasted).
# ---------------------------------------------------------------------------


def _gf_mul(a: int, b: int) -> int:
    """Multiply in GF(2^8) with the AES polynomial x^8+x^4+x^3+x+1."""
    result = 0
    for _ in range(8):
        if b & 1:
            result ^= a
        high = a & 0x80
        a = (a << 1) & 0xFF
        if high:
            a ^= 0x1B
        b >>= 1
    return result


def _build_sbox() -> list[int]:
    # Multiplicative inverses via exp/log tables over generator 3.
    exp = [0] * 256
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x = _gf_mul(x, 3)
    exp[255] = exp[0]

    def inverse(v: int) -> int:
        if v == 0:
            return 0
        return exp[255 - log[v]]

    sbox = [0] * 256
    for value in range(256):
        inv = inverse(value)
        # Affine transform.
        transformed = 0
        for bit in range(8):
            b = (
                (inv >> bit)
                ^ (inv >> ((bit + 4) % 8))
                ^ (inv >> ((bit + 5) % 8))
                ^ (inv >> ((bit + 6) % 8))
                ^ (inv >> ((bit + 7) % 8))
                ^ (0x63 >> bit)
            ) & 1
            transformed |= b << bit
        sbox[value] = transformed
    return sbox


_SBOX = _build_sbox()

# T-tables: each maps a state byte to a 32-bit column contribution.
_T0 = [0] * 256
_T1 = [0] * 256
_T2 = [0] * 256
_T3 = [0] * 256
for _i in range(256):
    _s = _SBOX[_i]
    _word = (
        (_gf_mul(_s, 2) << 24) | (_s << 16) | (_s << 8) | _gf_mul(_s, 3)
    )
    _T0[_i] = _word
    _T1[_i] = ((_word >> 8) | (_word << 24)) & 0xFFFFFFFF
    _T2[_i] = ((_word >> 16) | (_word << 16)) & 0xFFFFFFFF
    _T3[_i] = ((_word >> 24) | (_word << 8)) & 0xFFFFFFFF

_RCON = [0x01]
while len(_RCON) < 14:
    _RCON.append(_gf_mul(_RCON[-1], 2))


# From this length up one numpy XOR over the buffers beats the big-int
# round trip (1.0 vs 1.0 µs at 256 B, 1.2 vs 3.2 at 1 KB, 4.4 vs 132 at
# the 52 KB of a joined ORAM path); below it numpy's dispatch dominates.
_VECTOR_XOR_MIN_BYTES = 256


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings.

    One vector operation for the payloads the ORAM and layer-3 paths
    move — a 1 KB block, or a whole path's blocks joined — and big-int
    arithmetic for short strings (tags, headers).
    """
    if len(a) >= _VECTOR_XOR_MIN_BYTES:
        return (
            _np.frombuffer(a, dtype=_np.uint8) ^ _np.frombuffer(b, dtype=_np.uint8)
        ).tobytes()
    return (
        int.from_bytes(a, "little") ^ int.from_bytes(b, "little")
    ).to_bytes(len(a), "little")


# numpy mirrors of the T-tables / S-box, built on first vector use.
_NP_TABLES = None


def _numpy_tables():
    global _NP_TABLES
    if _NP_TABLES is None:
        _NP_TABLES = (
            _np.array(_T0, dtype=_np.uint32),
            _np.array(_T1, dtype=_np.uint32),
            _np.array(_T2, dtype=_np.uint32),
            _np.array(_T3, dtype=_np.uint32),
            _np.array(_SBOX, dtype=_np.uint32),
        )
    return _NP_TABLES


class AES:
    """Raw AES block cipher for 16/24/32-byte keys."""

    block_size = 16

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise ValueError(f"invalid AES key length: {len(key)}")
        self._rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        self._round_keys = self._expand_key(key)
        # uint32 round keys for the vectorized CTR path, built lazily so
        # key expansion itself never touches numpy.
        self._rk_vector = None

    def _expand_key(self, key: bytes) -> list[int]:
        nk = len(key) // 4
        words = [
            int.from_bytes(key[4 * i:4 * i + 4], "big") for i in range(nk)
        ]
        total = 4 * (self._rounds + 1)
        for i in range(nk, total):
            temp = words[i - 1]
            if i % nk == 0:
                temp = ((temp << 8) | (temp >> 24)) & 0xFFFFFFFF
                temp = (
                    (_SBOX[(temp >> 24) & 0xFF] << 24)
                    | (_SBOX[(temp >> 16) & 0xFF] << 16)
                    | (_SBOX[(temp >> 8) & 0xFF] << 8)
                    | _SBOX[temp & 0xFF]
                )
                temp ^= _RCON[i // nk - 1] << 24
            elif nk > 6 and i % nk == 4:
                temp = (
                    (_SBOX[(temp >> 24) & 0xFF] << 24)
                    | (_SBOX[(temp >> 16) & 0xFF] << 16)
                    | (_SBOX[(temp >> 8) & 0xFF] << 8)
                    | _SBOX[temp & 0xFF]
                )
            words.append(words[i - nk] ^ temp)
        return words

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block."""
        if len(block) != 16:
            raise ValueError("AES block must be 16 bytes")
        rk = self._round_keys
        s0 = int.from_bytes(block[0:4], "big") ^ rk[0]
        s1 = int.from_bytes(block[4:8], "big") ^ rk[1]
        s2 = int.from_bytes(block[8:12], "big") ^ rk[2]
        s3 = int.from_bytes(block[12:16], "big") ^ rk[3]
        t0, t1, t2, t3 = _T0, _T1, _T2, _T3
        k = 4
        for _ in range(self._rounds - 1):
            n0 = (
                t0[(s0 >> 24) & 0xFF] ^ t1[(s1 >> 16) & 0xFF]
                ^ t2[(s2 >> 8) & 0xFF] ^ t3[s3 & 0xFF] ^ rk[k]
            )
            n1 = (
                t0[(s1 >> 24) & 0xFF] ^ t1[(s2 >> 16) & 0xFF]
                ^ t2[(s3 >> 8) & 0xFF] ^ t3[s0 & 0xFF] ^ rk[k + 1]
            )
            n2 = (
                t0[(s2 >> 24) & 0xFF] ^ t1[(s3 >> 16) & 0xFF]
                ^ t2[(s0 >> 8) & 0xFF] ^ t3[s1 & 0xFF] ^ rk[k + 2]
            )
            n3 = (
                t0[(s3 >> 24) & 0xFF] ^ t1[(s0 >> 16) & 0xFF]
                ^ t2[(s1 >> 8) & 0xFF] ^ t3[s2 & 0xFF] ^ rk[k + 3]
            )
            s0, s1, s2, s3 = n0, n1, n2, n3
            k += 4
        sbox = _SBOX
        out = bytearray(16)
        for i, (a, b, c, d) in enumerate(
            ((s0, s1, s2, s3), (s1, s2, s3, s0), (s2, s3, s0, s1), (s3, s0, s1, s2))
        ):
            # Final round: SubBytes + ShiftRows + AddRoundKey (no MixColumns).
            word = (
                (sbox[(a >> 24) & 0xFF] << 24)
                | (sbox[(b >> 16) & 0xFF] << 16)
                | (sbox[(c >> 8) & 0xFF] << 8)
                | sbox[d & 0xFF]
            ) ^ rk[k + i]
            out[4 * i:4 * i + 4] = word.to_bytes(4, "big")
        return bytes(out)

    def ctr_keystream(self, counter_block: bytes, length: int) -> bytes:
        """Generate ``length`` keystream bytes in CTR mode.

        ``counter_block`` is the initial 16-byte counter; the final
        32-bit word is incremented per block modulo 2^32 (the GCM
        convention — the 96-bit nonce prefix never carries).
        """
        if len(counter_block) != 16:
            raise ValueError("CTR counter block must be 16 bytes")
        if length <= 0:
            return b""
        blocks = (length + 15) // 16
        np = _np
        rk = self._rk_vector
        if rk is None:
            rk = self._rk_vector = np.array(self._round_keys, dtype=np.uint32)
        counter = int.from_bytes(counter_block[12:16], "big")
        counters = (
            counter + np.arange(blocks, dtype=np.uint64)
        ) & np.uint64(0xFFFFFFFF)
        s0 = np.full(
            blocks,
            np.uint32(int.from_bytes(counter_block[0:4], "big")) ^ rk[0],
            dtype=np.uint32,
        )
        s1 = np.full(
            blocks,
            np.uint32(int.from_bytes(counter_block[4:8], "big")) ^ rk[1],
            dtype=np.uint32,
        )
        s2 = np.full(
            blocks,
            np.uint32(int.from_bytes(counter_block[8:12], "big")) ^ rk[2],
            dtype=np.uint32,
        )
        s3 = counters.astype(np.uint32) ^ rk[3]
        return self._rounds_vector(s0, s1, s2, s3)[:length]

    def ctr_keystream_many(
        self, counter_blocks: list[bytes], lengths: list[int]
    ) -> list[bytes]:
        """CTR keystreams for many messages in one vectorized pass.

        The batched seal/open path concentrates an entire ORAM path
        write — Z x (height+1) slots — into a single round computation,
        which is where the numpy gathers actually amortize.
        """
        if len(counter_blocks) != len(lengths):
            raise ValueError("counter_blocks and lengths differ in size")
        if not counter_blocks:
            return []
        block_counts = [(max(length, 0) + 15) // 16 for length in lengths]
        total = sum(block_counts)
        np = _np
        rk = self._rk_vector
        if rk is None:
            rk = self._rk_vector = np.array(self._round_keys, dtype=np.uint32)
        counts = np.array(block_counts, dtype=np.int64)
        prefix_words = np.empty((len(counter_blocks), 3), dtype=np.uint32)
        ctr0 = np.empty(len(counter_blocks), dtype=np.uint64)
        for i, cb in enumerate(counter_blocks):
            if len(cb) != 16:
                raise ValueError("CTR counter block must be 16 bytes")
            prefix_words[i, 0] = int.from_bytes(cb[0:4], "big")
            prefix_words[i, 1] = int.from_bytes(cb[4:8], "big")
            prefix_words[i, 2] = int.from_bytes(cb[8:12], "big")
            ctr0[i] = int.from_bytes(cb[12:16], "big")
        # Per-block message index and within-message block offset.
        offsets = np.zeros(len(counter_blocks), dtype=np.int64)
        np.cumsum(counts[:-1], out=offsets[1:])
        within = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
        counters = (
            np.repeat(ctr0, counts) + within.astype(np.uint64)
        ) & np.uint64(0xFFFFFFFF)
        s0 = np.repeat(prefix_words[:, 0], counts) ^ rk[0]
        s1 = np.repeat(prefix_words[:, 1], counts) ^ rk[1]
        s2 = np.repeat(prefix_words[:, 2], counts) ^ rk[2]
        s3 = counters.astype(np.uint32) ^ rk[3]
        stream = self._rounds_vector(s0, s1, s2, s3)
        out: list[bytes] = []
        for i, length in enumerate(lengths):
            start = int(offsets[i]) * 16
            out.append(stream[start:start + max(length, 0)])
        return out

    def _rounds_vector(self, s0, s1, s2, s3) -> bytes:
        """Run the full rounds over parallel uint32 state arrays."""
        np = _np
        t0, t1, t2, t3, sbox = _numpy_tables()
        rk = self._rk_vector
        blocks = len(s0)
        k = 4
        for _ in range(self._rounds - 1):
            n0 = (
                t0[s0 >> 24] ^ t1[(s1 >> 16) & 0xFF]
                ^ t2[(s2 >> 8) & 0xFF] ^ t3[s3 & 0xFF] ^ rk[k]
            )
            n1 = (
                t0[s1 >> 24] ^ t1[(s2 >> 16) & 0xFF]
                ^ t2[(s3 >> 8) & 0xFF] ^ t3[s0 & 0xFF] ^ rk[k + 1]
            )
            n2 = (
                t0[s2 >> 24] ^ t1[(s3 >> 16) & 0xFF]
                ^ t2[(s0 >> 8) & 0xFF] ^ t3[s1 & 0xFF] ^ rk[k + 2]
            )
            n3 = (
                t0[s3 >> 24] ^ t1[(s0 >> 16) & 0xFF]
                ^ t2[(s1 >> 8) & 0xFF] ^ t3[s2 & 0xFF] ^ rk[k + 3]
            )
            s0, s1, s2, s3 = n0, n1, n2, n3
            k += 4
        w0 = (
            (sbox[s0 >> 24] << 24) | (sbox[(s1 >> 16) & 0xFF] << 16)
            | (sbox[(s2 >> 8) & 0xFF] << 8) | sbox[s3 & 0xFF]
        ) ^ rk[k]
        w1 = (
            (sbox[s1 >> 24] << 24) | (sbox[(s2 >> 16) & 0xFF] << 16)
            | (sbox[(s3 >> 8) & 0xFF] << 8) | sbox[s0 & 0xFF]
        ) ^ rk[k + 1]
        w2 = (
            (sbox[s2 >> 24] << 24) | (sbox[(s3 >> 16) & 0xFF] << 16)
            | (sbox[(s0 >> 8) & 0xFF] << 8) | sbox[s1 & 0xFF]
        ) ^ rk[k + 2]
        w3 = (
            (sbox[s3 >> 24] << 24) | (sbox[(s0 >> 16) & 0xFF] << 16)
            | (sbox[(s1 >> 8) & 0xFF] << 8) | sbox[s2 & 0xFF]
        ) ^ rk[k + 3]
        words = np.empty((blocks, 4), dtype=">u4")
        words[:, 0] = w0
        words[:, 1] = w1
        words[:, 2] = w2
        words[:, 3] = w3
        return words.tobytes()
