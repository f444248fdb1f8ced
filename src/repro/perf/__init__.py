"""Profile-guided performance substrate (ISSUE 4).

Three independent levers over the repo's dominant wall-clock sink — the
pure-Python AES-GCM/ORAM substrate — none of which changes a single
simulated byte:

* :mod:`repro.perf.memo` — decrypt memoization: a bounded table of the
  wire blobs the client sealed and the server still holds, exploiting
  that AEAD decryption is pure and ORAM path reads mostly re-open
  blocks the client itself sealed;
* :mod:`repro.perf.parallel` — deterministic multiprocessing fan-out
  for benchmark sweeps, with seed-ordered reduction;
* :mod:`repro.perf.bench` — the ``perf-bench`` CLI's engine: the byte
  oracle for the substrate (ORAM digests, pairwise-identical
  ``CryptoBackend`` tiers); :mod:`repro.perf.reference` keeps the
  pre-optimization crypto as the tests' oracle.
"""

from repro.perf.memo import MemoizedAead, MemoStats
from repro.perf.parallel import run_parallel
from repro.perf.reference import ReferenceAesGcm

# bench imports the ORAM client, which imports repro.perf.memo; loading
# it lazily (PEP 562) keeps ``import repro.oram.client`` acyclic.
_BENCH_EXPORTS = ("PerfBenchConfig", "PerfBenchReport", "run_perf_bench")


def __getattr__(name: str):
    if name in _BENCH_EXPORTS:
        from repro.perf import bench

        return getattr(bench, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "MemoStats",
    "MemoizedAead",
    "PerfBenchConfig",
    "PerfBenchReport",
    "ReferenceAesGcm",
    "run_parallel",
    "run_perf_bench",
]
