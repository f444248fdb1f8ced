"""repro.telemetry: deterministic virtual-time tracing and exporters.

- :mod:`repro.telemetry.tracer` — spans, the clock-keyed tracer
  registry, seeded sampling.
- :mod:`repro.telemetry.critical_path` — exclusive per-layer latency
  attribution over span trees (the §VI-C decomposition).
- :mod:`repro.telemetry.exporters` — Chrome ``trace_event`` JSON and
  Prometheus-style text.
- :mod:`repro.telemetry.unified` — the canonical committed step-trace
  schema reconciling node debug traces, HEVM event counts, and spans.
- :mod:`repro.telemetry.flight` — per-session ring-buffer flight
  recorder with sealed deterministic failure dumps.
- :mod:`repro.telemetry.slo` — burn-rate SLO monitoring over metrics
  snapshots in virtual time.
- :mod:`repro.telemetry.bench` / :mod:`repro.telemetry.obs_bench` —
  the seeded bench harnesses (they pull in the serving stack).
"""
