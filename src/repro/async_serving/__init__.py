"""repro.async_serving — the event-driven C10K serving plane.

Thousands of per-session state machines are multiplexed onto the
gateway/router frontends as events on the serving pipeline's one
virtual-time reactor (:mod:`repro.serving.reactor`), and resumption
tickets amortize the attestation+DHKE handshake across reconnects.  See
:mod:`repro.async_serving.tier` for the layering and
:mod:`repro.hypervisor.resumption` for the ticket protocol.
"""
