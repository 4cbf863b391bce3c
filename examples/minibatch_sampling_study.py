"""Mini-batch distributed training with neighbourhood sampling (DistDGL).

Reproduces the paper's DistDGL workflow on the web-crawl stand-in (EU):
every worker samples seeds from its own partition and fetches remote
features, and the engine prices each step of a shared GraphSAGE
replica. The script contrasts partitioners along the axes the paper
measures:

* phase breakdown (sampling / fetching / compute),
* remote input vertices.

Usage::

    python examples/minibatch_sampling_study.py
"""

from repro.distdgl import DistDglEngine
from repro.graph import load_dataset, random_split
from repro.partitioning import make_vertex_partitioner, vertex_partition_quality

NUM_MACHINES = 8
FEATURE_SIZE = 64


def main() -> None:
    graph = load_dataset("EU", scale="small")
    split = random_split(graph, seed=11)

    print(f"DistDGL-style training on {graph}, {NUM_MACHINES} workers\n")
    header = (
        f"{'partitioner':>12s} {'cut':>6s} {'sample':>8s} {'fetch':>8s} "
        f"{'fwd':>8s} {'bwd':>8s} {'remote':>7s}"
    )
    print(header)
    for name in ("random", "ldg", "metis", "bytegnn"):
        partition = make_vertex_partitioner(name).partition(
            graph, NUM_MACHINES, seed=0
        )
        quality = vertex_partition_quality(partition, split.train)

        engine = DistDglEngine(
            partition, split,
            feature_size=FEATURE_SIZE, hidden_dim=32, num_layers=2,
            global_batch_size=64, seed=0,
        )
        report = engine.run_epoch()
        phases = report.phase_seconds()

        print(
            f"{name:>12s} {quality.edge_cut:6.3f} "
            f"{phases['sample'] * 1e3:7.1f}ms {phases['fetch'] * 1e3:7.1f}ms "
            f"{phases['forward'] * 1e3:7.1f}ms "
            f"{phases['backward'] * 1e3:7.1f}ms "
            f"{report.remote_input_vertices:7d}"
        )

    print(
        "\nLower edge-cut -> fewer remote inputs -> cheaper sampling and "
        "fetching."
    )


if __name__ == "__main__":
    main()
