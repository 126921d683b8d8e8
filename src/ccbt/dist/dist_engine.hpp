#pragma once
// The virtual-MPI distributed engine (Section 7).
//
// run_plan_distributed executes the same decomposition-tree plan as the
// shared-memory run_plan, but with every projection table physically
// sharded across `ranks` virtual ranks (DistTable) and every join
// emission routed through VirtualComm supersteps. Both engines run one
// plan interpreter (engine/interpreter.hpp) over the same join kernels,
// so a distributed run reproduces the shared run's colorful counts, and
// reports what the load model cannot see: the actual transport volume,
// including the resharding and orientation supersteps a real MPI
// implementation pays. The modeled load (total/max/avg ops, sim_time,
// modeled comm) matches the shared run bit for bit at B = 1; at B > 1 it
// matches only on some plans (test_dist_engine's DistParityB8 pins
// them), and on youtube, dros, ecoli1 and ecoli2 the distributed model
// still charges slightly more ops (ROADMAP item 5).
//
// Fault tolerance (ExecOptions::dist): a seeded FaultPlan can drop,
// duplicate, or delay superstep messages, stall ranks, and fail table
// allocations. Recovery is layered — the transport retransmits missing
// messages with backoff (dist/comm.hpp), the engine snapshots sealed
// pool state (plus a cycle block's partial merge sinks, between its split
// passes) at checkpoint_interval superstep boundaries and replays
// from the last snapshot when a superstep cannot be recovered
// (dist/checkpoint.hpp), and a run that exhausts both budgets throws a
// typed retryable error the estimator turns into a dropped trial. A
// recovered run's per-lane counts are bit-identical to the fault-free
// run; DistStats::faults reports what the recovery cost.

#include <cstdint>

#include "ccbt/decomp/block.hpp"
#include "ccbt/dist/comm.hpp"
#include "ccbt/dist/dist_table.hpp"
#include "ccbt/engine/exec_context.hpp"
#include "ccbt/engine/executor.hpp"
#include "ccbt/graph/coloring.hpp"
#include "ccbt/graph/csr_graph.hpp"

namespace ccbt {

/// ExecStats, filled by the same interpreter, plus what only a transport
/// sees. The modeled load fields match the shared engine's run with
/// sim_ranks == ranks (see the header comment for where exactly); a
/// checkpoint resume inside a cycle block rebuilds its live halves, so
/// path_builds may exceed the shared run's; `faults` reports the injected
/// faults, retries, checkpoints and replays (all-zero when
/// ExecOptions::dist is default), and `stage.transport` the virtual-MPI
/// exchanges, inbox collection and resharding supersteps.
struct DistStats : ExecStats {
  /// Physical transport accounting (supersteps, entries moved, off-rank
  /// volume) — a superset of the modeled communication. At B > 1 the
  /// transport serializes the lane-compressed wire format, so
  /// transport.off_rank_bytes() tracks true lane density.
  CommStats transport;

  /// Did the run recover from at least one injected fault?
  bool recovered() const {
    return faults.retries > 0 || faults.replays > 0;
  }
};

/// Count the colorful matches of the plan's query under `chi` on a
/// virtual cluster of `ranks` ranks. Throws Error(kUnsupportedQuery) for
/// a malformed plan, Error for zero ranks, BudgetExceeded when a table
/// outgrows the configured budget.
DistStats run_plan_distributed(const CsrGraph& g, const DecompTree& tree,
                               const Coloring& chi, std::uint32_t ranks,
                               ExecOptions opts = {});

/// Batched variant: one distributed execution over every lane of `batch`
/// (1, 2, 4 or 8 lanes — other widths throw Error(kUnsupportedQuery)). Lane l of
/// stats.colorful_lane matches a single-coloring distributed run under
/// batch.lane(l); supersteps serialize whole lane-count vectors.
DistStats run_plan_distributed(const CsrGraph& g, const DecompTree& tree,
                               const ColoringBatch& batch,
                               std::uint32_t ranks, ExecOptions opts = {});

}  // namespace ccbt
