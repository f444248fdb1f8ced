"""Statistical attacks and obliviousness tests.

Implements the adversary's toolbox and the defender's acceptance tests:

* :func:`frequency_attack` — the §I strawman-breaker: map deterministic
  encrypted handles to plaintext keys by access-frequency rank.  It
  succeeds against :class:`~repro.oram.encrypted_store.EncryptedKvStore`
  and is information-theoretically impossible against Path ORAM (every
  access is a fresh uniform path).
* :func:`path_uniformity_pvalue` — chi-square test that the ORAM's
  physical leaf sequence is uniform.
* :func:`QueryTypeClassifier` — the §IV-D adversary that tries to tell
  code queries from storage queries using inter-arrival gaps; prefetch
  smoothing should push its accuracy to chance.
* :func:`size_leakage` — mutual-information estimate between true frame
  sizes and the noised swap counts (attack A5).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass


def frequency_attack(
    observed_handles: list[bytes], true_frequency_ranking: list[bytes]
) -> float:
    """Frequency-analysis attack accuracy.

    ``observed_handles`` is the adversary's trace of (stable) handles;
    ``true_frequency_ranking`` is the plaintext keys ordered by their
    public on-chain access frequency (most frequent first) — knowledge
    the adversary gets for free because blocks are public.  Returns the
    fraction of rank positions where the handle ranking matches the
    plaintext ranking, i.e. the adversary's de-anonymization accuracy.
    """
    if not observed_handles or not true_frequency_ranking:
        return 0.0
    handle_counts = Counter(observed_handles)
    observed_ranking = [handle for handle, _ in handle_counts.most_common()]
    correct = 0
    # The adversary guesses: i-th most frequent handle = i-th most
    # frequent plaintext key.  Score against the true mapping, which by
    # construction in our benchmarks is key -> handle(key).
    for rank, handle in enumerate(observed_ranking):
        if rank < len(true_frequency_ranking):
            if handle == true_frequency_ranking[rank]:
                correct += 1
    return correct / len(true_frequency_ranking)


def path_uniformity_pvalue(leaves: list[int], leaf_count: int, bins: int = 16) -> float:
    """Chi-square p-value for 'leaf choices are uniform'.

    Small p (< 0.01) means the physical access pattern is biased and
    potentially leaks; Path ORAM traces should comfortably pass.
    """
    if len(leaves) < bins * 5:
        raise ValueError("need at least 5 expected observations per bin")
    from scipy.stats import chisquare

    counts = [0] * bins
    for leaf in leaves:
        counts[leaf * bins // leaf_count] += 1
    return float(chisquare(counts).pvalue)


@dataclass
class QueryTypeClassifier:
    """Threshold classifier on inter-arrival gaps (the §IV-D adversary).

    Intuition: without prefetch smoothing, code pages arrive in rapid
    bursts (small gaps) while storage queries are sporadic (large gaps).
    The classifier learns a single gap threshold on labeled training
    data and is scored on held-out accuracy; 0.5 = chance.
    """

    threshold_us: float = 0.0

    def fit(self, gaps_us: list[float], labels: list[bool]) -> "QueryTypeClassifier":
        """Labels: True = code query.  Learns the best split point."""
        if len(gaps_us) != len(labels) or not gaps_us:
            raise ValueError("need equal-length, non-empty training data")
        candidates = sorted(set(gaps_us))
        best_acc, best_thr = 0.0, candidates[0]
        for threshold in candidates:
            # Predict "code" when the gap is below the threshold.
            acc = sum(
                1 for gap, is_code in zip(gaps_us, labels)
                if (gap <= threshold) == is_code
            ) / len(labels)
            acc = max(acc, 1.0 - acc)  # allow the inverted rule
            if acc > best_acc:
                best_acc, best_thr = acc, threshold
        self.threshold_us = best_thr
        return self

    def accuracy(self, gaps_us: list[float], labels: list[bool]) -> float:
        if not gaps_us:
            return 0.0
        direct = sum(
            1 for gap, is_code in zip(gaps_us, labels)
            if (gap <= self.threshold_us) == is_code
        ) / len(labels)
        return max(direct, 1.0 - direct)


def mutual_information(xs: list[int], ys: list[int]) -> float:
    """Plug-in MI estimate (bits) between two discrete sequences."""
    if len(xs) != len(ys) or not xs:
        raise ValueError("need equal-length, non-empty sequences")
    n = len(xs)
    joint = Counter(zip(xs, ys))
    px = Counter(xs)
    py = Counter(ys)
    mi = 0.0
    for (x, y), count in joint.items():
        p_xy = count / n
        mi += p_xy * math.log2(p_xy / ((px[x] / n) * (py[y] / n)))
    return max(0.0, mi)


def size_leakage(true_sizes: list[int], observed_sizes: list[int]) -> float:
    """Bits of information the swap bus leaks about true frame sizes.

    Compares MI(true, observed) to the entropy of the true sizes; the
    returned ratio is 1.0 for a perfect leak (no noise) and near 0 when
    the pre-evict/pre-load noise dominates.
    """
    if not true_sizes:
        return 0.0
    mi = mutual_information(true_sizes, observed_sizes)
    n = len(true_sizes)
    px = Counter(true_sizes)
    entropy = -sum((c / n) * math.log2(c / n) for c in px.values())
    if entropy == 0:
        return 0.0
    return mi / entropy
