#pragma once
// Bottom-up traversal of the decomposition tree (Fig 3, "Overall
// Algorithm"): solve each block from its children's projection tables;
// the root emits the number of colorful matches — per lane, when the
// context carries a multi-coloring batch.

#include <array>

#include "ccbt/decomp/block.hpp"
#include "ccbt/engine/exec_context.hpp"

namespace ccbt {

struct ExecStats {
  /// Lane-0 colorful count (the full answer of a single-coloring run).
  Count colorful = 0;

  /// Per-lane colorful counts; lanes_used entries are meaningful.
  std::array<Count, kMaxBatchLanes> colorful_lane{};
  int lanes_used = 1;

  double wall_seconds = 0.0;
  std::size_t peak_table_entries = 0;

  /// Cycle blocks' half-path tables: how many were built, and how many
  /// split halves merged a table already built for an earlier split.
  std::uint64_t path_builds = 0;
  std::uint64_t path_reuses = 0;

  // Filled when a LoadModel was attached.
  double sim_time = 0.0;
  std::uint64_t total_ops = 0;
  std::uint64_t max_rank_ops = 0;
  double avg_rank_ops = 0.0;
  std::uint64_t total_comm = 0;

  /// Lane-layout telemetry aggregated over the run's sealed tables
  /// (B > 1; all-zero at B = 1): observed lane density, and how many
  /// rows stayed in the narrow flat layout at which payload widths
  /// (surfaced into BENCH_batch.json).
  LaneTelemetry lanes;

  /// Per-stage wall breakdown of the run (accumulate / seal / merge;
  /// transport stays zero in shared-memory runs). Stage totals may sum
  /// below wall_seconds — planning glue and root totals are untimed.
  StageWall stage;

  /// Accumulation telemetry: phases, and the rows and bytes each phase
  /// handed to its seal; at B > 1 also how many emissions the flat
  /// sink's combining cache folded away before the seal.
  AccumTelemetry accum;

  /// Fault-tolerance scoreboard (injected faults, retries, replays,
  /// checkpoint cost). All-zero for shared-memory runs, which have no
  /// transport to fail.
  FaultStats faults;
};

/// Count the colorful matches of the plan's query under every lane of
/// cx.chi (1, 2, 4 or 8 lanes). Throws Error(kUnsupportedQuery) for a
/// malformed plan or another width, BudgetExceeded when a table outgrows
/// the configured budget.
ExecStats run_plan(const ExecContext& cx, const DecompTree& tree);

}  // namespace ccbt
