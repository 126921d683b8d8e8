#pragma once
// Benchmark-side tracing: spans recorded around the calls into each ccbt
// layer, plus a block driver that walks a plan through the library's
// public block solvers so the engine and table layers can be split.
//
// Spans live here, in the benchmark, not in the library: the library's
// own collectors (StageWall, AccumTelemetry, LaneTelemetry) are attached
// to the ExecContext, and every span records the collector deltas that
// happened while it was open.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "ccbt/core/ccbt.hpp"
#include "ccbt/engine/cycle_solver.hpp"
#include "ccbt/engine/leaf_solver.hpp"

namespace perfbench {

using ccbt::AccumTelemetry;
using ccbt::StageWall;

inline StageWall minus(const StageWall& a, const StageWall& b) {
  StageWall d;
  d.accumulate = a.accumulate - b.accumulate;
  d.seal = a.seal - b.seal;
  d.merge = a.merge - b.merge;
  d.transport = a.transport - b.transport;
  return d;
}

inline AccumTelemetry minus(const AccumTelemetry& a, const AccumTelemetry& b) {
  AccumTelemetry d;
  d.phases = a.phases - b.phases;
  d.sharded_phases = a.sharded_phases - b.sharded_phases;
  d.sparse_phases = a.sparse_phases - b.sparse_phases;
  d.rows = a.rows - b.rows;
  d.emit_bytes = a.emit_bytes - b.emit_bytes;
  d.combine_folds = a.combine_folds - b.combine_folds;
  d.frontier_folds = a.frontier_folds - b.frontier_folds;
  d.run_emits = a.run_emits - b.run_emits;
  d.shards_occupied = a.shards_occupied - b.shards_occupied;
  d.shard_slots = a.shard_slots - b.shard_slots;
  return d;
}

struct Span {
  std::string name;
  int parent = -1;  // index of the enclosing span, -1 at the top
  int op = -1;      // op id shared by every span of one op
  double start = 0.0;
  double end = 0.0;
  StageWall stage;       // StageWall delta caused inside the span
  AccumTelemetry accum;  // AccumTelemetry delta caused inside the span

  double seconds() const { return end - start; }
};

/// In-memory span recorder. The collectors it owns are the ones the
/// traced ExecContext points at, so each span can carry their deltas.
class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  StageWall* stage() { return &stage_; }
  AccumTelemetry* accum() { return &accum_; }
  ccbt::LaneTelemetry* lanes() { return &lanes_; }

  void set_op(int op) { op_ = op; }

  int begin(std::string name) {
    Span s;
    s.name = std::move(name);
    s.parent = open_.empty() ? -1 : open_.back();
    s.op = op_;
    s.stage = stage_;  // snapshots until end() turns them into deltas
    s.accum = accum_;
    s.start = now();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void end(int id) {
    Span& s = spans_[id];
    s.end = now();
    s.stage = minus(stage_, s.stage);
    s.accum = minus(accum_, s.accum);
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON (opens in Perfetto or chrome://tracing).
  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%d,"
                   "\"parent\":%d,\"accumulate_s\":%.9f,\"seal_s\":%.9f,"
                   "\"merge_s\":%.9f,\"transport_s\":%.9f,\"rows\":%llu,"
                   "\"emit_bytes\":%llu}}",
                   i == 0 ? "" : ",", s.name.c_str(), s.start * 1e6,
                   s.seconds() * 1e6, s.op, s.parent, s.stage.accumulate,
                   s.stage.seal, s.stage.merge, s.stage.transport,
                   static_cast<unsigned long long>(s.accum.rows),
                   static_cast<unsigned long long>(s.accum.emit_bytes));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  using Clock = std::chrono::steady_clock;
  double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  Clock::time_point epoch_;
  StageWall stage_;
  AccumTelemetry accum_;
  ccbt::LaneTelemetry lanes_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  int op_ = -1;
};

/// RAII span: closes on scope exit, exceptions included.
class Scoped {
 public:
  Scoped(Tracer& t, std::string name) : t_(t), id_(t.begin(std::move(name))) {}
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  ~Scoped() { t_.end(id_); }

 private:
  Tracer& t_;
  int id_;
};

/// What the block driver returns: the same per-lane counts and peak
/// table size run_plan reports for the batch.
struct DriverResult {
  std::array<ccbt::Count, ccbt::kMaxBatchLanes> lanes{};
  std::size_t peak_table_entries = 0;
};

/// Walk the plan the way run_plan does, one span per block-solver call:
/// solve_leaf_edge for leaf-edge blocks; splits_for, build_path (+/-),
/// merge_halves and from_map for cycle blocks; TablePoolT::store for
/// every stored table. `cx` must point its collectors at the tracer's.
template <int B>
DriverResult drive_blocks(const ccbt::ExecContext& cx,
                          const ccbt::DecompTree& tree, Tracer& tr) {
  using namespace ccbt;
  DriverResult out;
  TablePoolT<B> pool(tree.blocks.size(), cx.g.num_vertices(),
                     cx.opts.lane_compress, cx.stage);
  auto record = [&](const typename LaneOps<B>::Vec& totals) {
    for (int l = 0; l < B; ++l) out.lanes[l] = LaneOps<B>::lane(totals, l);
  };
  for (std::size_t i = 0; i < tree.blocks.size(); ++i) {
    const Block& blk = tree.blocks[i];
    const bool is_root = static_cast<int>(i) == tree.root;
    if (blk.kind == BlockKind::kSingleton) {
      if (!is_root) throw Error("drive_blocks: singleton below the root");
      if (blk.node_child[0] >= 0) {
        record(pool.get(blk.node_child[0]).lane_totals());
      } else {
        for (int l = 0; l < B; ++l) out.lanes[l] = cx.g.num_vertices();
      }
      break;
    }
    ProjTableT<B> table;
    if (blk.kind == BlockKind::kLeafEdge) {
      Scoped s(tr, "engine.leaf_block");
      table = solve_leaf_edge<B>(cx, blk, pool);
    } else {
      Scoped s(tr, "engine.cycle_block");
      AccumMapT<B> sink(16, cx.opts.compact_accum);
      std::vector<SplitPlan> splits;
      {
        Scoped sp(tr, "engine.splits_for");
        splits = splits_for(blk, cx.opts.algo);
      }
      for (const SplitPlan& plan : splits) {
        ProjTableT<B> plus;
        ProjTableT<B> minus;
        {
          Scoped sp(tr, "engine.build_path+");
          plus = build_path<B>(cx, blk, pool, plan.plus);
        }
        {
          Scoped sp(tr, "engine.build_path-");
          minus = build_path<B>(cx, blk, pool, plan.minus);
        }
        Scoped sp(tr, "engine.merge_halves");
        merge_halves<B>(cx, plus, minus, plan.merge, sink);
      }
      Scoped sp(tr, "table.from_map");
      table = ProjTableT<B>::from_map(blk.boundary_count(), std::move(sink));
    }
    out.peak_table_entries = std::max(out.peak_table_entries, table.size());
    if (is_root) {
      Scoped s(tr, "table.lane_totals");
      record(table.lane_totals());
      break;
    }
    Scoped s(tr, "table.store");
    pool.store(static_cast<int>(i), std::move(table));
    cx.note_lanes(pool.get(static_cast<int>(i)).layout());
  }
  return out;
}

inline DriverResult drive_blocks(const ccbt::ExecContext& cx,
                                 const ccbt::DecompTree& tree, Tracer& tr) {
  switch (cx.chi.lanes()) {
    case 1: return drive_blocks<1>(cx, tree, tr);
    case 2: return drive_blocks<2>(cx, tree, tr);
    case 4: return drive_blocks<4>(cx, tree, tr);
    case 8: return drive_blocks<8>(cx, tree, tr);
    default: break;
  }
  throw ccbt::Error("drive_blocks: batch width must be 1, 2, 4 or 8");
}

}  // namespace perfbench
