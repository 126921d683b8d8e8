#pragma once
// The plan interpreter (Fig 3, "Overall Algorithm"), written once for both
// engines: the bottom-up block loop, a cycle block's split schedule
// (Section 5), the half-path and leaf-edge step lists, and the root
// totals. Section 7's distributed algorithm is the same DP with every
// table entry (u, v, α) owned by owner(v), so the two engines differ only
// in the TableStore the walk runs over:
//   * LocalStore (engine/local_store.hpp): ProjTable and TablePool,
//     calling engine/primitives.hpp;
//   * the virtual-MPI store (dist/dist_engine.cpp): DistTable shards whose
//     primitives route every emission through transport supersteps.
//
// A TableStore `S` provides
//   S::Table, S::Sinks, S::kLanes, and a member `cx` (the ExecContext);
//   init_from_graph(opts), init_from_child(child, opts),
//   extend_with_graph(path, opts), extend_with_child(path, child, opts),
//   node_join(path, child, slot), aggregate(table, arity);
//   new_sinks(), merge_halves(plus, minus, spec, sinks),
//   from_sinks(arity, sinks);
//   get(block), oriented(block, transposed), store(block, table);
//   root_totals(table): the per-lane totals of a root table;
//   split_done(block, next_split, sinks), block_done(next_block): where a
//   store may checkpoint, once a split pass's merge or a stored block has
//   landed.
// Every primitive is one load-model phase, and the walk issues them in
// one order, so both engines run the same phases in the same sequence.

#include <algorithm>
#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

#include "ccbt/decomp/block.hpp"
#include "ccbt/engine/executor.hpp"
#include "ccbt/engine/split_plan.hpp"
#include "ccbt/util/error.hpp"

namespace ccbt {

/// Where run_blocks starts: a block and, inside a cycle block, the first
/// split pass to run (an index into schedule_for's order) with the merge
/// sinks of the passes before it.
template <typename Sinks>
struct PlanCursor {
  std::size_t block = 0;
  std::size_t split = 0;
  Sinks sinks{};
};

/// Build a half-path (or leaf-edge) table by running its steps.
template <typename Store>
typename Store::Table build_path(Store& s,
                                 const std::vector<PathStep>& steps) {
  typename Store::Table table;
  for (const PathStep& st : steps) {
    const ExtendOpts opts = st.extend_opts();
    switch (st.op) {
      case PathStep::Op::kInit:
        table = st.child < 0 ? s.init_from_graph(opts)
                             : s.init_from_child(
                                   s.oriented(st.child, st.transposed), opts);
        break;
      case PathStep::Op::kNodeJoin:
        table = s.node_join(table, s.get(st.child), st.slot);
        break;
      case PathStep::Op::kExtend:
        table = st.child < 0
                    ? s.extend_with_graph(table, opts)
                    : s.extend_with_child(
                          table, s.oriented(st.child, st.transposed), opts);
        break;
    }
  }
  return table;
}

/// The unary projection table of a leaf-edge block, keyed by the image of
/// its boundary node (Section 5.2, last paragraph).
template <typename Store>
typename Store::Table solve_leaf_edge(Store& s, const Block& blk) {
  return s.aggregate(build_path(s, leaf_steps(blk)), /*new_arity=*/1);
}

/// The projection table of a (possibly annotated) cycle block, keyed by
/// its boundary images in stored order. Runs schedule_for's split passes
/// from `first_split` on, merging into `sinks`; each distinct half is
/// built at its first use from there (so a resume rebuilds the live ones)
/// and freed after its last use. `stats` tallies builds and reuses.
template <typename Store>
typename Store::Table solve_cycle(Store& s, const Block& blk,
                                  std::size_t block, std::size_t first_split,
                                  typename Store::Sinks sinks,
                                  ExecStats& stats) {
  const CycleSchedule sched = schedule_for(blk, s.cx.opts.algo);
  std::vector<typename Store::Table> live(sched.steps.size());
  std::vector<bool> built(sched.steps.size(), false);
  for (std::size_t t = first_split; t < sched.splits.size(); ++t) {
    for (int id : sched.halves[t]) {
      if (built[id]) {
        ++stats.path_reuses;
        continue;
      }
      live[id] = build_path(s, sched.steps[id]);
      built[id] = true;
      ++stats.path_builds;
    }
    const auto [plus, minus] = sched.halves[t];
    s.merge_halves(live[plus], live[minus], sched.splits[t].merge, sinks);
    for (int id : sched.halves[t]) {
      if (sched.last_use[id] == t) live[id] = typename Store::Table();
    }
    s.split_done(block, t + 1, sinks);
  }
  // The merge spec emitted exactly the boundary slots, so the accumulated
  // keys already project to the block's boundary images.
  return s.from_sinks(blk.boundary_count(), std::move(sinks));
}

/// Solve the plan's blocks bottom-up from `from` and record the root's
/// per-lane colorful counts (plus peak table size and path counts) in
/// `stats`. Throws Error(kUnsupportedQuery) for a singleton below the
/// root.
template <typename Store>
void run_blocks(Store& s, const DecompTree& tree,
                PlanCursor<typename Store::Sinks> from, ExecStats& stats) {
  constexpr int B = Store::kLanes;
  auto record_root = [&](const typename LaneOps<B>::Vec& totals) {
    for (int l = 0; l < B; ++l) {
      stats.colorful_lane[l] = LaneOps<B>::lane(totals, l);
    }
    stats.colorful = stats.colorful_lane[0];
  };
  for (std::size_t i = from.block; i < tree.blocks.size(); ++i) {
    const Block& blk = tree.blocks[i];
    const bool is_root = static_cast<int>(i) == tree.root;
    typename Store::Table table;
    switch (blk.kind) {
      case BlockKind::kSingleton:
        if (!is_root) {
          throw Error(ErrorCode::kUnsupportedQuery,
                      "run_plan: singleton below the root");
        }
        if (blk.node_child[0] >= 0) {
          record_root(s.root_totals(s.get(blk.node_child[0])));
        } else {
          // Single-node query: every data vertex is a colorful match
          // under every coloring.
          for (int l = 0; l < B; ++l) {
            stats.colorful_lane[l] = s.cx.g.num_vertices();
          }
          stats.colorful = s.cx.g.num_vertices();
        }
        return;
      case BlockKind::kLeafEdge:
        table = solve_leaf_edge(s, blk);
        break;
      case BlockKind::kCycle: {
        const bool resume = i == from.block && from.split > 0;
        table = solve_cycle(s, blk, i, resume ? from.split : 0,
                            resume ? std::move(from.sinks) : s.new_sinks(),
                            stats);
        break;
      }
    }
    stats.peak_table_entries = std::max(stats.peak_table_entries,
                                        table.size());
    if (is_root) {
      record_root(s.root_totals(table));
      return;
    }
    s.store(static_cast<int>(i), std::move(table));
    s.block_done(i + 1);
  }
}

/// Run `run(std::integral_constant<int, B>{})` at the batch width
/// `lanes`. Both engines enter through here, so a plan without a root or
/// an unsupported width gets one typed error from either.
template <typename Run>
auto dispatch_plan(const DecompTree& tree, int lanes, Run&& run) {
  if (tree.root < 0) {
    throw Error(ErrorCode::kUnsupportedQuery, "run_plan: tree has no root");
  }
  switch (lanes) {
    case 1: return run(std::integral_constant<int, 1>{});
    case 2: return run(std::integral_constant<int, 2>{});
    case 4: return run(std::integral_constant<int, 4>{});
    case 8: return run(std::integral_constant<int, 8>{});
    default: break;
  }
  throw Error(ErrorCode::kUnsupportedQuery,
              "run_plan: batch width must be 1, 2, 4 or 8");
}

/// Copy the load model's totals into `stats`.
inline void record_load(ExecStats& stats, const LoadModel& load) {
  stats.sim_time = load.sim_time();
  stats.total_ops = load.total_ops();
  stats.max_rank_ops = load.max_rank_ops();
  stats.avg_rank_ops = load.avg_rank_ops();
  stats.total_comm = load.total_comm();
}

}  // namespace ccbt
