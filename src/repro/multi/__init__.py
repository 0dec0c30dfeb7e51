"""Multi-GPU scaling substrate — the paper's Section 7 future work,
implemented: 1D partitioning, an interconnect cost model, one
partitioned super-step loop with device-loss recovery
(:func:`~repro.multi.superstep.run_partitioned`), and multi-GPU BFS /
PageRank on it whose results are bit-identical to the single-GPU
primitives."""

from .partition import Partition, PartitionedGraph, partition_1d, redistribute
from .machine import InterconnectSpec, MultiMachine
from .bfs import MultiBfsResult, multi_gpu_bfs
from .pagerank import MultiPagerankResult, multi_gpu_pagerank

__all__ = [
    "Partition", "PartitionedGraph", "partition_1d", "redistribute",
    "InterconnectSpec", "MultiMachine",
    "MultiBfsResult", "multi_gpu_bfs",
    "MultiPagerankResult", "multi_gpu_pagerank",
]
