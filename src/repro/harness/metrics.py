"""Run aggregation: the paper's Table 1/2 overhead metric."""

from __future__ import annotations

__all__ = ["overhead_pct"]


def overhead_pct(native: float, replicated: float) -> float:
    """The paper's Table 1/2 metric: wall-clock increase in percent."""
    if native <= 0:
        raise ValueError("native runtime must be positive")
    return (replicated / native - 1.0) * 100.0
