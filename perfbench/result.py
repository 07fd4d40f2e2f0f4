"""What one benchmark run measured, and how it is printed."""

from __future__ import annotations

import json
import statistics
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    setup_s: List[float] = field(default_factory=list)
    #: End-to-end values keyed as in BENCHMARK.json (``setup_s`` aside).
    e2e: Dict[str, float] = field(default_factory=dict)
    #: Per-layer values of the traced run, keyed as in BENCHMARK.json.
    layer: Dict[str, float] = field(default_factory=dict)
    #: The workload's metrics under their own names, with units.
    named: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    detail: Dict[str, Any] = field(default_factory=dict)

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(why)

    def metrics(self, trace: bool, units: Dict[str, str]) -> Dict[str, Any]:
        """``units`` maps each metric of the run's kind to its unit."""
        if trace:
            named = {name: value for name, (value, _unit) in self.named.items()}
            # The workload's own metrics ride along; a layer the workload
            # does not run reports 0.
            values = {name: self.layer.get(name, named.get(name, 0.0)) for name in units}
        else:
            values = dict(self.e2e, setup_s=statistics.median(self.setup_s))
        return {name: {"value": float(values[name]), "unit": unit}
                for name, unit in units.items()}

    def emit(self, trace: bool, units: Dict[str, str]) -> None:
        """Human-readable lines, then the one-line JSON result (last line)."""
        out = sys.stdout
        for name, (value, unit) in sorted(self.named.items()):
            out.write(f"  {name:<40} {value:>14.6g} {unit}\n")
        for why in self.failures:
            out.write(f"  WRONG: {why}\n")
        record = {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics(trace, units),
        }
        out.write(json.dumps(record) + "\n")
        out.flush()
