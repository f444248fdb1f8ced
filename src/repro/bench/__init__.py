"""repro.bench — the one harness the planes' benches are written against.

A plane's bench module is its scenarios plus its gates.  What they all
share lives here:

* :mod:`~repro.bench.stack` — the serving stack, one step per helper
  (evalset → service → tenants → load sessions → traced run), and the
  trace/metrics/wire/world-digest identity every "feature X is
  invisible" gate compares;
* :mod:`~repro.bench.tiers` — the open → burst → suspend → resume
  schedule of the model-mode async tier;
* :mod:`~repro.bench.report` — :class:`GateReport`, the seed + sections
  + gate-failures report with its canonical JSON;
* :mod:`~repro.bench.registry` — the gated benches as data, from which
  the CLI generates its ``*-bench`` subcommands.

Import the submodule that owns what you need: the CLI reads the
registry without loading the serving stack.  Only bench modules and the
CLI import this package, so no plane module drags a bench in.
"""
