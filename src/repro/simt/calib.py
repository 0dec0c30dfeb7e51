"""Frozen calibration constants for the SIMT cost model.

Every performance number this library reports in "simulated milliseconds"
is derived from cycle counts computed with the constants below.  The
constants are calibrated once against the hardware and software the paper
used (an NVIDIA K40c and the CPU/cluster comparators of Section 6) and
then frozen; benchmarks never tune them per dataset.

Calibration rationale
---------------------
The K40c is a Kepler GK110B: 15 SMX, 192 CUDA cores per SMX, 745 MHz boost
clock, 288 GB/s GDDR5.  We model kernel time as a makespan over SMX units
(see :mod:`repro.simt.machine`) measured in *SM-cycles*.  Per-edge and
per-vertex costs fold together instruction issue and the amortized memory
traffic of the access pattern:

* ``C_EDGE`` (coalesced edge expansion): one CSR column-index load, one
  destination data access, and bookkeeping.  Merrill et al. report ~3.3
  GTEPS peak on comparable hardware for pure expansion; 15 SMX * 745 MHz /
  3.3e9 edges/s ~ 3.4 SM-cycles per edge.  We charge 4 to account for
  functor work.
* ``SCATTER_PENALTY``: an uncoalesced access costs a full 128-byte
  transaction per lane in the worst case; measured GPU codes see ~4-8x
  penalty.  We charge 4x.
* ``C_ATOMIC_THROUGHPUT`` / ``C_ATOMIC_CONFLICT``: Kepler retires a few
  distinct-address global atomics per SM-cycle chip-wide; atomics to a
  single hot address serialize, which ``C_ATOMIC_CONFLICT`` charges per
  conflicting lane on the most-contended cell.
* ``KERNEL_LAUNCH_CYCLES``: ~5 us launch+sync latency on Kepler-era CUDA
  (7.45e5 Hz * 5e-6 s ~ 3725 cycles); we charge 4000.  This constant is
  what makes kernel *fusion* matter, exactly as in Section 4.3.
* CPU constants assume the paper's 3.5 GHz Ivy Bridge Xeon: a pointer-
  chasing edge traversal misses cache most of the time on graphs larger
  than LLC, ~70 ns ~ 245 cycles; BGL's listed BFS throughput in Table 2
  (~170 MTEPS on soc) implies ~20 cycles/edge for its best case, so we
  charge 20 for sequential-friendly scans and let the random-access
  penalty surface through ``CPU_EDGE_RANDOM``.
* ``PG_SYNC_MS``: PowerGraph pays a distributed barrier plus mirror
  exchange per super-step; on the paper's numbers (e.g. SSSP soc: 1.9 s
  over ~20 iterations) a per-step cost of a few ms dominates.  We charge
  2 ms per super-step plus per-edge work.

These constants reproduce the *shape* of Tables 2 and 3 (orderings,
rough ratios, crossovers); they are not expected to reproduce the paper's
absolute milliseconds.
"""

from __future__ import annotations

# --------------------------------------------------------------------------
# GPU (simulated K40c) — all values in SM-cycles unless suffixed otherwise.
# --------------------------------------------------------------------------

#: SM-cycles per edge processed at full width (bandwidth-bound aggregate
#: rate: 15 SMX * 745 MHz / ~3.3 GTEPS peak expansion ~ 3.4 SM-cycles/edge).
#: Strategies express CTA costs as (edges processed) * C_EDGE.
C_EDGE = 3.4

#: Per-edge cost for a *single serialized lane* walking a neighbor list
#: (latency-bound, no warp-level parallelism to hide memory latency).
#: This is what makes the naive thread-mapped strategy collapse on hubs.
C_EDGE_SERIAL = 40.0

#: Multiplier for scattered (uncoalesced) global-memory access patterns.
SCATTER_PENALTY = 4.0

#: Cycles of per-vertex work (load offsets, write labels, predicate).
C_VERTEX = 3.0

#: Extra per-edge cycles when the advance kernel must binary-search the
#: scanned row-offset array to recover its source vertex (the Davidson
#: load-balanced partitioning strategy, Fig. 3).  The search runs in
#: shared memory over a CTA-local slice, so the tax is mild.
C_BINSEARCH_PER_EDGE = 0.6

#: Cycles per element for a work-efficient device scan (Blelloch / decoupled
#: look-back style): ~2 global memory round-trips per element.
C_SCAN_PER_ELEM = 2.0

#: Cycles per element of a device compaction (scan + scatter).
C_COMPACT_PER_ELEM = 3.0

#: Cycles per needle for merge-path sorted search.
C_SORTED_SEARCH = 8.0

#: Uncontended global atomic cost per lane (latency, for counters only).
C_ATOMIC = 24.0

#: Aggregate atomic throughput in makespan terms: SM-cycles charged per
#: atomic issued chip-wide (~2.5 distinct-address atomics retire per
#: SM-cycle on Kepler).
C_ATOMIC_THROUGHPUT = 0.4

#: Serialization on the hottest address: extra SM-cycles per conflicting
#: lane beyond the first on the single most-contended cell (atomics to
#: one address retire one at a time).
C_ATOMIC_CONFLICT = 12.0

#: Fixed cost of one kernel launch (driver + sync), in cycles.
KERNEL_LAUNCH_CYCLES = 4000.0

#: Extra per-launch cycles charged to *programmable framework* kernels
#: (generic functor dispatch, frontier bookkeeping).  Hardwired kernels do
#: not pay this; it is the residual framework overhead of Section 6.
FRAMEWORK_DISPATCH_CYCLES = 1500.0

#: Per-element overhead of routing user computation through a generic
#: functor interface instead of inlined code (ABI-visible loads/stores).
C_FUNCTOR_PER_ELEM = 0.5

#: Cycles per byte read/written when a framework materializes intermediate
#: state between *unfused* kernels (the GAS fragmentation cost, §4.3).
C_MEM_PER_BYTE = 0.05

#: Per-message cost in a message-passing framework (Medusa), in makespan
#: SM-cycles per message: buffer allocation, message write, and the
#: segmented-reduce combine — roughly another C_EDGE of memory traffic.
C_MESSAGE = 2.4

# --------------------------------------------------------------------------
# CPU comparators — cycles on a 3.5 GHz core unless suffixed otherwise.
# --------------------------------------------------------------------------

#: Sequential, cache-friendly per-edge cost (e.g. scanning a CSR row).
CPU_EDGE = 20.0

#: Random-access per-edge cost (label lookup of an arbitrary neighbor).
CPU_EDGE_RANDOM = 70.0

#: Per-vertex bookkeeping cost on the CPU.
CPU_VERTEX = 12.0

#: Binary-heap push/pop cost for Dijkstra-style priority queues, per op
#: (multiplied by log2 of the live heap size by the model).
CPU_HEAP_OP = 18.0

#: Cilk-style spawn/steal overhead per parallel task (Ligra).
CILK_TASK_CYCLES = 220.0

#: Number of physical cores the multicore comparator uses (2x quad-core
#: E5-2637 v2 in the paper's testbed).
CPU_CORES = 8

#: Hyperthreading yield factor: 8 cores / 16 threads behave like ~9.6 cores
#: on memory-bound graph workloads.
CPU_HT_YIELD = 1.2

#: Per-super-step synchronization cost of the distributed GAS engine
#: (barrier + mirror exchange), in milliseconds.
PG_SYNC_MS = 2.0

#: Per-edge gather/scatter cost of the distributed GAS engine, in cycles
#: (serialization + hash-table mirror lookups make it worse than CPU_EDGE).
PG_EDGE = 90.0

#: Per-vertex apply cost of the distributed GAS engine, in cycles.
PG_VERTEX = 60.0

#: Number of workers the distributed comparator shards across.
PG_WORKERS = 8

# --------------------------------------------------------------------------
# Clocks.
# --------------------------------------------------------------------------

#: Simulated GPU SM clock in GHz (K40c boost).
GPU_CLOCK_GHZ = 0.745

#: Comparator CPU clock in GHz (E5-2637 v2).
CPU_CLOCK_GHZ = 3.5


def cpu_cycles_to_ms(cycles: float) -> float:
    """Convert simulated CPU core-cycles to milliseconds."""
    return cycles / (CPU_CLOCK_GHZ * 1e9) * 1e3
