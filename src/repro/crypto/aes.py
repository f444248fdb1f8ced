"""Pure-Python AES-128/192/256 (FIPS 197) and GCM's two halves.

The block cipher uses precomputed T-tables; there is no inverse cipher,
because GCM (the only mode built on this, in
:class:`repro.crypto.suite.AesGcmAead`) runs the block transform forward
in both directions.  Beside it are GCM's CTR keystream and its GHASH.

The implementation is for the HarDTAPE *functional* simulation: it is
byte-for-byte compatible with standard AES (checked against FIPS test
vectors in the test suite) but makes no constant-time claims, which is
irrelevant here because adversary timing in the simulation is modeled by
:mod:`repro.hardware.timing`, not by wall clock.

Nothing served runs on it: OpenSSL seals every served byte
(:class:`repro.crypto.suite.AcceleratedAesGcmAead`), and this cipher is
the ``reference`` tier's, the pure-Python oracle OpenSSL is checked
against.  CTR runs one block transform at a time and GHASH one table
multiply per block.
"""

from __future__ import annotations

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


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings."""
    return (
        int.from_bytes(a, "little") ^ int.from_bytes(b, "little")
    ).to_bytes(len(a), "little")


def ghash_tables(h: int) -> list[list[int]]:
    """The byte tables of multiplication by the GHASH subkey ``h``.

    ``tables[i][v]`` is the GF(2^128) product of ``h`` with the block
    whose byte ``i`` is ``v`` (GCM polynomial, bits reflected per the
    spec).  The product is linear in the block, so the tables are built
    from the 128 single-bit products ``h * x^k`` — one shift-and-reduce
    step each — and every other entry is one XOR of two earlier ones.
    The bit-serial product they must equal is a test oracle.
    """
    powers: list[int] = []
    x = h
    for _ in range(128):
        powers.append(x)
        x = (x >> 1) ^ (0xE1 << 120) if x & 1 else x >> 1
    tables: list[list[int]] = []
    for byte_index in range(16):
        table = [0] * 256
        for value in range(1, 256):
            rest = value & (value - 1)  # value without its lowest set bit
            if rest:
                table[value] = table[rest] ^ table[value ^ rest]
            else:
                # A single bit: bit 7 of byte i is x^(8i), bit 0 is x^(8i+7).
                table[value] = powers[8 * byte_index + 8 - value.bit_length()]
        tables.append(table)
    return tables


def ghash(tables: list[list[int]], aad: bytes, ciphertext: bytes) -> int:
    """GHASH (SP 800-38D) under the subkey behind ``tables``: ``aad`` and
    ``ciphertext``, each zero-padded to whole blocks, then their bit
    lengths, one table multiply per block."""
    lengths = (len(aad) * 8 << 64 | len(ciphertext) * 8).to_bytes(16, "big")
    acc = 0
    for data in (aad, ciphertext, lengths):
        for offset in range(0, len(data), 16):
            acc ^= int.from_bytes(data[offset:offset + 16].ljust(16, b"\x00"), "big")
            product = 0
            for shift, table in zip(range(120, -8, -8), tables):
                product ^= table[(acc >> shift) & 0xFF]
            acc = product
    return acc


class AES:
    """Raw AES block cipher for 16/24/32-byte keys."""

    block_size = 16

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise ValueError(f"invalid AES key length: {len(key)}")
        self._rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        self._round_keys = self._expand_key(key)

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
        prefix = counter_block[:12]
        counter = int.from_bytes(counter_block[12:], "big")
        encrypt = self.encrypt_block
        return b"".join(
            encrypt(prefix + ((counter + i) & 0xFFFFFFFF).to_bytes(4, "big"))
            for i in range((length + 15) // 16)
        )[:length]
