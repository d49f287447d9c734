"""Order statistics the benchmark reports, each with the sample count behind it."""
from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Percentile:
    value: float
    samples: int
    beyond: int  # samples strictly after the chosen rank

    def as_dict(self) -> dict[str, float | int]:
        return {"value": self.value, "samples": self.samples, "beyond": self.beyond}


def percentile(values: list[float], q: float) -> Percentile:
    """Nearest-rank q-th percentile (0 < q <= 100): always one of the samples."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile rank must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return Percentile(ordered[rank - 1], len(ordered), len(ordered) - rank)
