"""DistGNN-style full-batch distributed training over edge partitions."""

from .engine import DistGnnEngine, EpochBreakdown

__all__ = ["DistGnnEngine", "EpochBreakdown"]
