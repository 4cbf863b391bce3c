"""DistGNN-style full-batch distributed training over edge partitions."""

from .delayed import DelayedAggregationTrainer
from .engine import DistGnnEngine, EpochBreakdown
from .fullbatch import DistributedFullBatchTrainer

__all__ = [
    "DistGnnEngine",
    "EpochBreakdown",
    "DistributedFullBatchTrainer",
    "DelayedAggregationTrainer",
]
