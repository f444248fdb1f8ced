"""The serving layer: HarDTAPE's untrusted multi-tenant front door.

Sits above ``repro.core``; observes ``hardware``/``hypervisor`` stats;
is never imported by the substrates.  See ``gateway`` for the request
lifecycle and its typed reject reasons, ``loadgen`` for the
closed/open-loop harness, ``reactor`` for the one virtual-time event
loop all of it runs on, and ``metrics`` for the registry everything
reports into.
"""
