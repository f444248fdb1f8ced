"""The deterministic fault-injection plane (``repro.faults``).

HarDTAPE's security story is exception handling: the Hypervisor is the
component charged with surviving a malicious or merely flaky SP —
tampered DMA messages, stalled or corrupted ORAM storage, forked block
headers, dying cores.  This package exercises exactly those paths, on
purpose and reproducibly:

* :mod:`~repro.faults.plan` — *what* fails: seeded, virtual-time fault
  schedules (:class:`FaultPlan` / :class:`FaultRule`) whose every
  decision derives from ``(seed, kind, decision index)``;
* :mod:`~repro.faults.injector` — *where* it fails:
  :class:`FaultInjector` arms a plan onto the substrate seams (channel
  receive, ORAM path reads, HEVM transaction starts, attestation
  reports, sync roots);
* :mod:`~repro.faults.policy` — *how it recovers*: the retry, circuit
  breaker and failover-payload policies that
  :class:`~repro.serving.gateway.ServiceExecutor` applies, and the
  quarantine policy that heals a lying device's bundles, all typed end
  to end;
* :mod:`~repro.faults.harness` — the chaos harness driving serving-layer
  load under escalating fault rates (:func:`run_chaos`).

Layering: ``faults`` sits *beside* ``serving`` above the substrates.
Substrate modules never import it — they only expose inert seams
(``.faults`` / ``.fault_hook`` attributes, ``None`` in production).
"""
