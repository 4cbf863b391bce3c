"""Calibrated cost model for the simulated cluster.

The paper's testbed is 32 machines with 8-core 2.4 GHz Haswell CPUs and
64 GB RAM on a commodity Ethernet interconnect. We model each machine with
three rates — dense-compute throughput, network bandwidth and memory
bandwidth — plus a per-message latency. The *absolute* values matter only
for readability of the reported seconds; every conclusion reproduced from
the paper depends on the ratios (compute vs communication), which are set
to the commodity-cluster regime the paper operated in: communication of
feature-sized vertex state is expensive relative to the neural-network
math for it.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CostModel", "DEFAULT_COST_MODEL"]


@dataclass(frozen=True)
class CostModel:
    """Rates converting operation counts into simulated seconds and bytes.

    Attributes
    ----------
    flops_per_second:
        Effective dense throughput of one 8-core machine (GEMM-bound GNN
        kernels; well below peak, as in practice).
    network_bandwidth:
        Point-to-point bandwidth in bytes/second (1 GbE class).
    network_latency:
        Per-message latency in seconds, charged once per communicating
        peer per phase.
    memory_bandwidth:
        Streaming memory bandwidth in bytes/second; charges the sparse,
        bandwidth-bound aggregation work.
    float_bytes / index_bytes:
        Width of feature scalars and of vertex/edge ids.
    sample_seconds_per_edge:
        CPU cost of drawing one sampled edge in the mini-batch sampler
        (hash lookups + RNG; memory-latency bound, hence ~100ns scale).
    remote_sample_overhead:
        Extra cost per *remote* sampled vertex: the RPC round trip is
        amortised over a frontier batch, but serialisation and queueing
        still make a remote neighbour lookup far slower than a local one.
    memory_budget_bytes:
        Per-machine memory capacity used for out-of-memory detection
        at the simulated (scaled-down) graph sizes. The paper's machines
        had 64 GB for graphs ~2000x larger; 32 MB puts the simulated DI +
        random-partitioning runs over budget exactly as in the paper.
    partitioning_time_scale:
        Multiplier mapping the measured wall time of *our* partitioner
        implementations onto the simulated training-time axis for the
        amortization analysis (Tables 4/5). One constant for all
        partitioners, so amortization rankings are scale-free.
    """

    flops_per_second: float = 5.0e10
    network_bandwidth: float = 1.25e8
    network_latency: float = 100e-6
    memory_bandwidth: float = 6.0e9
    float_bytes: int = 4
    index_bytes: int = 8
    sample_seconds_per_edge: float = 4.0e-7
    remote_sample_overhead: float = 8.0e-7
    memory_budget_bytes: float = 32e6
    partitioning_time_scale: float = 1.0
    #: "bisection" floors every communication phase at the fabric's
    #: aggregate-bandwidth bound (concurrent transfers overlap); "port"
    #: charges the busiest port alone. The ablation benchmarks compare
    #: both; "bisection" matches the paper's observed behaviour.
    fabric_model: str = "bisection"

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def compute_seconds(self, flops: float) -> float:
        """Seconds for dense compute (GEMMs, attention scores)."""
        return flops / self.flops_per_second

    def memory_seconds(self, bytes_touched: float) -> float:
        """Seconds for bandwidth-bound sparse work (gather/scatter)."""
        return bytes_touched / self.memory_bandwidth

    def transfer_seconds(self, num_bytes: float, num_messages: int = 1) -> float:
        """Seconds to move ``num_bytes`` over the network (zero for no
        bytes in no messages; scalars or arrays, like its siblings)."""
        return num_messages * self.network_latency + (
            num_bytes / self.network_bandwidth
        )

    def feature_bytes(self, num_vertices: float, dim: int) -> float:
        """Bytes of a float feature/state block."""
        return num_vertices * dim * self.float_bytes

    def allreduce_seconds(self, num_bytes: float, num_machines: int) -> float:
        """Pipelined ring all-reduce: every machine moves ~2x the payload;
        per-hop latencies overlap down the pipeline, so only a handful of
        message latencies are exposed.
        """
        if num_machines <= 1:
            return 0.0
        chunk = 2.0 * num_bytes * (num_machines - 1) / num_machines
        return self.transfer_seconds(chunk, num_messages=4)


#: Shared default instance used across engines and benchmarks.
DEFAULT_COST_MODEL = CostModel()
