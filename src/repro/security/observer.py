"""Adversary observers: exactly what the SP can see, and nothing more.

The threat model gives the SP the ORAM server's physical access trace
(A7), the layer-3 swap bus (A5), and message timing.  The observer
here collects the first; the swap-bus view is the call stack's own
``stats.swap_events`` list.  The statistical attacks in
:mod:`repro.security.analysis` run against these real traces — the
empirical counterpart of the paper's §V arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.oram.server import OramServer, PathAccessEvent


@dataclass
class AccessPatternObserver:
    """Taps an ORAM server; records (time, leaf) for every access."""

    events: list[PathAccessEvent] = field(default_factory=list)

    def attach(self, server: OramServer) -> "AccessPatternObserver":
        server.add_observer(self.events.append)
        return self

    @property
    def leaves(self) -> list[int]:
        return [event.leaf for event in self.events]

    def clear(self) -> None:
        self.events.clear()
