"""Cost model details, AEAD suite parity, sampler edges, codec errors."""

import pytest

from repro.crypto.suite import AuthenticationError
from repro.crypto.kdf import Drbg
from repro.crypto.suite import AcceleratedAesGcmAead, AesGcmAead, Blake2Aead
from repro.hardware.timing import CostModel
from repro.workloads.distributions import BandSampler


# -- AEAD suite interchangeability ---------------------------------------------


@pytest.mark.parametrize("factory", [AesGcmAead, AcceleratedAesGcmAead])
def test_aead_suites_share_interface(factory):
    cipher = factory(b"k" * 16)
    nonce = (1).to_bytes(12, "big")
    sealed = cipher.encrypt(nonce, b"payload", b"aad")
    assert cipher.decrypt(nonce, sealed, b"aad") == b"payload"
    with pytest.raises(AuthenticationError):
        cipher.decrypt(nonce, sealed, b"other-aad")


def test_blake2_rejects_bad_nonce_size():
    cipher = Blake2Aead(b"k" * 32)
    with pytest.raises(ValueError):
        cipher.encrypt(b"short", b"x")
    with pytest.raises(ValueError):
        cipher.decrypt(b"short", b"x" * 32)


def test_blake2_short_message_rejected():
    cipher = Blake2Aead(b"k" * 32)
    with pytest.raises(AuthenticationError):
        cipher.decrypt((1).to_bytes(12, "big"), b"tiny")


def test_aead_keys_are_domain_separated():
    a = AcceleratedAesGcmAead(b"k" * 32)
    nonce = (1).to_bytes(12, "big")
    sealed = a.encrypt(nonce, b"payload")
    # A cipher under a different key cannot open it.
    with pytest.raises(AuthenticationError):
        AcceleratedAesGcmAead(b"j" * 32).decrypt(nonce, sealed)


# -- cost model ------------------------------------------------------------------


def test_channel_seal_includes_setup_and_aes():
    cost = CostModel()
    small = cost.channel_seal_us(100)
    large = cost.channel_seal_us(100_000)
    assert small >= cost.channel_seal_setup_us
    assert large > small


def test_per_bundle_e_overhead_lands_near_paper():
    """Two channel messages ≈ the paper's +2.9 ms -E overhead."""
    cost = CostModel()
    typical_bundle_bytes = 500
    overhead = 2 * cost.channel_seal_us(typical_bundle_bytes)
    assert 2_000 < overhead < 4_000


def test_es_overhead_lands_near_paper():
    cost = CostModel()
    overhead = 2 * cost.ecdsa_sign_us
    assert 60_000 < overhead < 100_000  # the paper's ~80 ms


def test_page_swap_cost_scales_with_pages():
    cost = CostModel()
    assert cost.page_swap_us(10) > cost.page_swap_us(1)


def test_oram_access_scales_with_height():
    cost = CostModel()
    shallow = cost.oram_access_us(8, 4, 1.0)
    deep = cost.oram_access_us(30, 4, 1.0)
    assert deep > shallow


# -- band sampler edges --------------------------------------------------------------


def test_band_sampler_single_band():
    sampler = BandSampler([((5, 6), 1.0)], Drbg(b"x"))
    assert all(sampler.sample() == 5 for _ in range(20))


def test_band_sampler_zero_weight_tail_still_total():
    sampler = BandSampler([((0, 2), 1.0), ((2, 4), 0.0)], Drbg(b"x"))
    values = {sampler.sample() for _ in range(50)}
    assert values <= {0, 1, 2, 3}
    assert values & {0, 1}


# -- bundle codec error paths ----------------------------------------------------------


def test_decode_bundle_rejects_garbage():
    from repro import rlp
    from repro.hypervisor.bundle_codec import decode_bundle

    with pytest.raises(rlp.DecodingError):
        decode_bundle(b"\xff\xff\xff")


def test_decode_trace_report_rejects_garbage():
    from repro import rlp
    from repro.hypervisor.bundle_codec import decode_trace_report

    with pytest.raises(rlp.DecodingError):
        decode_trace_report(b"\x01\x02\x03")


# -- device release measurement -----------------------------------------------------------


def test_release_measurement_is_stable():
    from repro.core.device import RELEASE_IMAGE, RELEASE_MEASUREMENT

    assert RELEASE_IMAGE.measurement() == RELEASE_MEASUREMENT
    assert len(RELEASE_MEASUREMENT) == 32
