"""Evaluation-set generator and the security analysis toolbox."""

import pytest

from repro.crypto.kdf import Drbg
from repro.security.analysis import (
    QueryTypeClassifier,
    frequency_attack,
    mutual_information,
    path_uniformity_pvalue,
    size_leakage,
)
from repro.workloads.distributions import (
    BandSampler,
    CALL_DEPTH_BANDS,
    CODE_SIZE_BANDS,
    STORAGE_KEY_BANDS,
    summarize_bands,
)


# -- distributions ------------------------------------------------------------


def test_band_sampler_respects_bounds():
    sampler = BandSampler(CODE_SIZE_BANDS, Drbg(b"s"))
    for _ in range(200):
        value = sampler.sample()
        assert 0 <= value < 65_536


def test_band_sampler_matches_weights():
    sampler = BandSampler(CALL_DEPTH_BANDS, Drbg(b"s"))
    samples = [sampler.sample() for _ in range(3000)]
    summary = summarize_bands(samples, CALL_DEPTH_BANDS)
    assert abs(summary["1-2"] - 0.408) < 0.05
    assert abs(summary["2-6"] - 0.526) < 0.05


def test_storage_bands_heavy_head():
    sampler = BandSampler(STORAGE_KEY_BANDS, Drbg(b"s"))
    samples = [sampler.sample() for _ in range(2000)]
    small = sum(1 for s in samples if s <= 4) / len(samples)
    assert 0.74 < small < 0.86  # paper: 79.9%


def test_summarize_bands_fractions_sum():
    sampler = BandSampler(CODE_SIZE_BANDS, Drbg(b"s"))
    samples = [sampler.sample() for _ in range(500)]
    summary = summarize_bands(samples, CODE_SIZE_BANDS)
    assert abs(sum(summary.values()) - 1.0) < 1e-9


# -- evaluation set (session fixture) --------------------------------------------


def test_evalset_deterministic(tiny_evalset):
    from repro.workloads.generator import EvaluationSetConfig, build_evaluation_set

    again = build_evaluation_set(
        EvaluationSetConfig(blocks=3, txs_per_block=6, profile_contract_count=10)
    )
    assert [t.tx_hash() for t in again.transactions] == [
        t.tx_hash() for t in tiny_evalset.transactions
    ]


def test_evalset_chain_grew(tiny_evalset):
    # 1 approval block + 3 workload blocks.
    assert tiny_evalset.node.height == 4
    assert len(tiny_evalset.transactions) == 18


def test_evalset_transactions_succeed(tiny_evalset):
    # Every generated transaction executed successfully on-chain.
    for block_number in range(2, tiny_evalset.node.height + 1):
        for result in tiny_evalset.node.block_at(block_number).results:
            assert result.success, result.error


def test_evalset_population_deployed(tiny_evalset):
    population = tiny_evalset.population
    state = tiny_evalset.node.state_at(0)
    assert len(population.profiles) == 10
    for address in population.profiles:
        assert state.accounts[address].code
    assert state.accounts[population.pool].storage[0] > 0


def test_evalset_code_sizes_span_bands(tiny_evalset):
    sizes = list(tiny_evalset.population.profile_sizes.values())
    assert min(sizes) < 4096
    assert max(sizes) > 4096


# -- security analysis ------------------------------------------------------------


def test_frequency_attack_on_deterministic_handles():
    # Handles observed with distinct frequencies are fully linkable.
    handles = [b"h1"] * 50 + [b"h2"] * 30 + [b"h3"] * 10
    ranking = [b"h1", b"h2", b"h3"]
    assert frequency_attack(handles, ranking) == 1.0


def test_frequency_attack_fails_on_uniform_handles():
    # Unique handle per access (the ORAM property): no linkage.
    handles = [b"u%d" % i for i in range(90)]
    ranking = [b"h1", b"h2", b"h3"]
    assert frequency_attack(handles, ranking) == 0.0


def test_path_uniformity_accepts_uniform():
    rng = Drbg(b"u")
    leaves = [rng.randint(1024) for _ in range(2000)]
    assert path_uniformity_pvalue(leaves, 1024) > 0.01


def test_path_uniformity_rejects_biased():
    leaves = [7] * 1000 + [900] * 1000
    assert path_uniformity_pvalue(leaves, 1024) < 1e-6


def test_path_uniformity_needs_samples():
    with pytest.raises(ValueError):
        path_uniformity_pvalue([1, 2, 3], 1024)


def test_query_type_classifier_separable():
    gaps = [10.0] * 50 + [1000.0] * 50
    labels = [True] * 50 + [False] * 50
    classifier = QueryTypeClassifier().fit(gaps, labels)
    assert classifier.accuracy(gaps, labels) == 1.0


def test_query_type_classifier_at_chance_when_mixed():
    rng = Drbg(b"m")
    gaps = [float(rng.randint(1000)) for _ in range(400)]
    labels = [bool(rng.randint(2)) for _ in range(400)]
    classifier = QueryTypeClassifier().fit(gaps[:200], labels[:200])
    assert classifier.accuracy(gaps[200:], labels[200:]) < 0.65


def test_mutual_information_bounds():
    xs = [0, 1] * 100
    assert mutual_information(xs, xs) == pytest.approx(1.0)
    ys = [0] * 200
    assert mutual_information(xs, ys) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        mutual_information([], [])


def test_size_leakage_extremes():
    true_sizes = [1, 2, 3, 4] * 50
    assert size_leakage(true_sizes, true_sizes) == pytest.approx(1.0)
    noise = [7] * 200
    assert size_leakage(true_sizes, noise) == pytest.approx(0.0)
