"""Profile-guided performance substrate (ISSUE 4).

Three independent levers over the repo's AES-GCM/ORAM substrate, none
of which changes a single simulated byte:

* :mod:`repro.perf.memo` — decrypt memoization: a bounded table of the
  wire blobs the client sealed and the server still holds, exploiting
  that AEAD decryption is pure and ORAM path reads mostly re-open
  blocks the client itself sealed;
* :mod:`repro.perf.parallel` — deterministic multiprocessing fan-out
  for benchmark sweeps, with seed-ordered reduction;
* :mod:`repro.perf.bench` — the ``perf-bench`` CLI's engine: the byte
  oracle for the substrate (ORAM digests, and the digests of one
  trie/keccak/signed-channel replay on the OpenSSL path).
"""
