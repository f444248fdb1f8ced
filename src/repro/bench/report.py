"""The report shape every gated bench shares.

A report is a seed, the bench's own sections (every other dataclass
field, emitted to JSON under its field name), and the list of gate
failures; ``passed`` is exactly "no gate failed".  The JSON is canonical
(``indent=2, sort_keys=True``) so a seeded run regenerates its committed
``BENCH_<name>.json`` byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import ClassVar


def identity_verdict(identity: dict[str, bool]) -> str:
    """``byte-identical``, or which hashes diverged."""
    if all(identity.values()):
        return "byte-identical"
    return f"DIVERGED {sorted(name for name, ok in identity.items() if not ok)}"


@dataclass
class GateReport:
    seed: int
    gate_failures: list[str] = field(default_factory=list, kw_only=True)

    bench: ClassVar[str]  # the "bench" tag in the JSON report

    @property
    def passed(self) -> bool:
        return not self.gate_failures

    def sections(self) -> dict:
        return {
            spec.name: getattr(self, spec.name)
            for spec in fields(self)
            if spec.name not in ("seed", "gate_failures")
        }

    def to_json(self) -> str:
        return json.dumps(
            {
                "bench": self.bench,
                "seed": self.seed,
                **self.sections(),
                "gate_failures": self.gate_failures,
                "passed": self.passed,
            },
            indent=2,
            sort_keys=True,
        )

    def section_lines(self) -> list[str]:
        """The bench's own summary, one line per scenario."""
        raise NotImplementedError

    def summary_lines(self) -> list[str]:
        lines = self.section_lines()
        if self.gate_failures:
            lines.append("gate failures:")
            lines.extend(f"  - {failure}" for failure in self.gate_failures)
        else:
            lines.append("all gates passed")
        return lines
