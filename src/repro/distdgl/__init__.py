"""DistDGL-style mini-batch distributed training over vertex partitions."""

from .engine import DistDglEngine, EpochReport, StepBreakdown

__all__ = ["DistDglEngine", "EpochReport", "StepBreakdown"]
