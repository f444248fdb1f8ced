"""A lightweight, deterministic metrics registry for the serving layer.

The gateway, the load generators, and the fleet model all report into
one :class:`MetricsRegistry`: counters for admission outcomes,
histograms for queue wait / service time / end-to-end latency, gauges
for instantaneous depths.  Everything is exact and in-memory — samples
are kept, percentiles are computed by nearest-rank on the sorted data —
so two identically seeded runs produce byte-identical snapshots (the
reproducibility bar every experiment in this repository meets).

Metrics take structured labels (``registry.counter("faults.injected",
kind="dma-drop")``); the snapshot flattens them into the key as
``name{k=v,...}`` with keys sorted, while the Prometheus exporter in
:mod:`repro.telemetry.exporters` renders them as proper label sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# A label set as stored: ``(("kind", "dma-drop"), ...)`` sorted by key.
LabelItems = tuple[tuple[str, str], ...]


@dataclass
class Counter:
    """A monotonically increasing event count."""

    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


@dataclass
class Gauge:
    """An instantaneous level, with its high-water mark retained.

    The peak tracks the values actually set: a gauge that only ever
    holds negative levels reports a negative peak, not the 0.0 it was
    never set to.
    """

    value: float = 0.0
    _peak: float | None = field(default=None, repr=False)

    def set(self, value: float) -> None:
        self.value = value
        self._peak = value if self._peak is None else max(self._peak, value)

    @property
    def peak(self) -> float:
        return self.value if self._peak is None else self._peak


@dataclass
class Histogram:
    """Exact distribution of observed values (µs, counts, ...).

    ``total`` and ``max`` are running values maintained on ``observe`` —
    snapshots are taken per bench iteration, so recomputing them over
    the sample list would be O(n) per read.
    """

    samples: list[float] = field(default_factory=list)
    _sorted: bool = True
    _total: float = 0.0
    _max: float = 0.0

    def observe(self, value: float) -> None:
        if self.samples:
            if value < self.samples[-1]:
                self._sorted = False
            if value > self._max:
                self._max = value
        else:
            self._max = value
        self._total += value
        self.samples.append(value)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def total(self) -> float:
        return self._total

    @property
    def mean(self) -> float:
        return self._total / len(self.samples) if self.samples else 0.0

    @property
    def max(self) -> float:
        return self._max if self.samples else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, ``p`` in [0, 100]."""
        if not 0 <= p <= 100:
            raise ValueError("percentile must be in [0, 100]")
        if not self.samples:
            return 0.0
        if not self._sorted:
            self.samples.sort()
            self._sorted = True
        rank = max(1, -(-len(self.samples) * p // 100))  # ceil without floats
        return self.samples[int(rank) - 1]


def flatten_name(name: str, labels: LabelItems) -> str:
    """The snapshot key for a labelled metric: ``name{k=v,...}``."""
    if not labels:
        return name
    inner = ",".join(f"{key}={value}" for key, value in labels)
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Named counters/gauges/histograms with a flat snapshot view."""

    def __init__(self) -> None:
        self._counters: dict[tuple[str, LabelItems], Counter] = {}
        self._gauges: dict[tuple[str, LabelItems], Gauge] = {}
        self._histograms: dict[tuple[str, LabelItems], Histogram] = {}

    @staticmethod
    def _key(name: str, labels: dict[str, object]) -> tuple[str, LabelItems]:
        return name, tuple(sorted((key, str(value)) for key, value in labels.items()))

    def counter(self, name: str, **labels: object) -> Counter:
        return self._counters.setdefault(self._key(name, labels), Counter())

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._gauges.setdefault(self._key(name, labels), Gauge())

    def histogram(self, name: str, **labels: object) -> Histogram:
        return self._histograms.setdefault(self._key(name, labels), Histogram())

    # -- structured iteration (the Prometheus exporter's interface) ----

    def iter_counters(self):
        for (name, labels), counter in sorted(self._counters.items()):
            yield name, labels, counter

    def iter_gauges(self):
        for (name, labels), gauge in sorted(self._gauges.items()):
            yield name, labels, gauge

    def iter_histograms(self):
        for (name, labels), histogram in sorted(self._histograms.items()):
            yield name, labels, histogram

    def snapshot(self) -> dict[str, float]:
        """A flat, deterministically ordered name→value map.

        Labels flatten into the key (``faults.injected{kind=dma-drop}``)
        and histograms expand to count/mean/p50/p95/p99/max.  Two runs
        of the same seeded workload must produce equal snapshots — the
        gateway benchmarks assert exactly that.
        """
        out: dict[str, float] = {}
        for name, labels, counter in self.iter_counters():
            out[flatten_name(name, labels)] = counter.value
        for name, labels, gauge in self.iter_gauges():
            flat = flatten_name(name, labels)
            out[flat] = gauge.value
            out[f"{flat}.peak"] = gauge.peak
        for name, labels, hist in self.iter_histograms():
            flat = flatten_name(name, labels)
            out[f"{flat}.count"] = float(hist.count)
            out[f"{flat}.mean"] = hist.mean
            out[f"{flat}.p50"] = hist.percentile(50)
            out[f"{flat}.p95"] = hist.percentile(95)
            out[f"{flat}.p99"] = hist.percentile(99)
            out[f"{flat}.max"] = hist.max
        return out
