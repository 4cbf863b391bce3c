"""Experiment harness: sweeps, runners, amortization, correlation."""

from .amortization import (
    AmortizationResult,
    amortization_table,
    epochs_to_amortize,
)
from .advisor import (
    CandidateEstimate,
    Recommendation,
    recommend_edge_partitioner,
)
from .analysis import (
    DistributionSummary,
    robustness_summary,
    speedup_summary,
    summarize,
)
from .export import load_records, records_to_json, save_records
from .cache import (
    CacheEntryError,
    cache_size,
    cached_edge_partition,
    cached_vertex_partition,
    clear_cache,
    set_cache_capacity,
)
from .config import (
    BATCH_SIZE_SCALE,
    FEATURE_SIZES,
    HIDDEN_DIMENSIONS,
    LAYER_COUNTS,
    MACHINE_COUNTS,
    PAPER_BATCH_SIZES,
    CommConfig,
    FaultConfig,
    TrainingParams,
    comm_grid,
    parameter_grid,
    reduced_grid,
    scaled_batch_size,
)
from .correlation import pearson, r_squared
from .cells import (
    CellIO,
    CellSpec,
    run_cell,
    run_distdgl_grid,
    run_distdgl_grid_parallel,
    run_distgnn_grid,
    run_distgnn_grid_parallel,
    run_grid,
)
from .executor import CellExecutor, CellTask, execute_cells, fifo_schedule
from .records import DistDglRecord, DistGnnRecord
from .report import format_series, format_table, print_series, print_table
from .runner import (
    ENGINES,
    Engine,
    run_distdgl,
    run_distgnn,
    speedup_vs_random,
)

__all__ = [
    "TrainingParams",
    "FaultConfig",
    "CommConfig",
    "comm_grid",
    "HIDDEN_DIMENSIONS",
    "FEATURE_SIZES",
    "LAYER_COUNTS",
    "MACHINE_COUNTS",
    "PAPER_BATCH_SIZES",
    "BATCH_SIZE_SCALE",
    "scaled_batch_size",
    "parameter_grid",
    "reduced_grid",
    "cached_edge_partition",
    "cached_vertex_partition",
    "clear_cache",
    "set_cache_capacity",
    "cache_size",
    "CacheEntryError",
    "DistGnnRecord",
    "DistDglRecord",
    "run_distgnn",
    "run_distgnn_grid",
    "run_distdgl",
    "run_distdgl_grid",
    "run_distgnn_grid_parallel",
    "run_distdgl_grid_parallel",
    "Engine",
    "ENGINES",
    "CellSpec",
    "CellIO",
    "run_cell",
    "run_grid",
    "CellTask",
    "CellExecutor",
    "execute_cells",
    "fifo_schedule",
    "speedup_vs_random",
    "epochs_to_amortize",
    "amortization_table",
    "AmortizationResult",
    "pearson",
    "r_squared",
    "format_table",
    "print_table",
    "format_series",
    "print_series",
    "DistributionSummary",
    "summarize",
    "speedup_summary",
    "robustness_summary",
    "records_to_json",
    "save_records",
    "load_records",
    "Recommendation",
    "CandidateEstimate",
    "recommend_edge_partitioner",
]
