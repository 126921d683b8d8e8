#include "ccbt/dist/dist_engine.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "ccbt/dist/checkpoint.hpp"
#include "ccbt/engine/load_model.hpp"
#include "ccbt/engine/path_builder.hpp"
#include "ccbt/engine/primitives.hpp"
#include "ccbt/engine/split_plan.hpp"
#include "ccbt/graph/degree_order.hpp"
#include "ccbt/table/signature.hpp"
#include "ccbt/util/error.hpp"
#include "ccbt/util/timer.hpp"

namespace ccbt {

namespace {

// The per-entry join logic lives in the kernels of engine/primitives.hpp,
// shared verbatim with the shared-memory engine. This file only routes
// kernel emissions through the transport. At B = 1 the two engines'
// load models agree exactly. At B > 1 they agree exactly on some plans
// and charge slightly different ops on others (test_dist_engine pins the
// plans that agree); counts always agree.

/// Distributed execution state threaded through every primitive: the
/// shared-memory ExecContext (whose LoadModel the primitives charge
/// exactly as the shared engine does) plus the transport.
template <int B>
struct Dx {
  const ExecContext& cx;
  VirtualCommT<B>& comm;
  std::size_t budget;
  VertexId domain;  // data-graph vertex count (bucket-index domain)
  FaultPlan* faults = nullptr;  // nullptr = no injection
  PathCounts paths;             // cycle blocks' half-path builds / reuses

  const BlockPartition& part() const { return cx.part; }
  std::uint32_t ranks() const { return comm.num_ranks(); }
  std::uint32_t owner(VertexId v) const { return cx.part.owner(v); }

  /// Kernel emission routed to the owner of the key's `home` slot vertex.
  auto route_to_slot(std::uint32_t from, int home) {
    return [this, from, home](const TableKey& key,
                              const typename LaneOps<B>::Vec& cnt) {
      comm.send(from, owner(key.v[home]), {key, cnt});
    };
  }
};

/// Deterministically injected allocation failure at a table-materialize
/// point. Retryable: the replay layer rolls back to the last checkpoint
/// (the fault stream has advanced, so the replayed attempt rolls fresh
/// decisions and can succeed).
template <int B>
void maybe_alloc_fail(Dx<B>& dx, const char* where) {
  if (dx.faults != nullptr && dx.faults->alloc_fails()) {
    throw Error(ErrorCode::kAllocFailed,
                std::string(where) + ": injected allocation failure");
  }
}

/// Deliver the queued emissions and collect them into a path table:
/// entry (.., v, ..) lives with owner(v) (home slot 1, Section 7).
template <int B>
DistTableT<B> collect_path(Dx<B>& dx, int arity) {
  ScopedStage timed(dx.cx.stage_slot(&StageWall::transport));
  dx.comm.exchange();
  maybe_alloc_fail(dx, "collect_path");
  return DistTableT<B>::collect(arity, /*home_slot=*/1, dx.comm,
                                SortOrder::kUnsorted, dx.budget, dx.domain);
}

template <int B>
DistTableT<B> d_init_path_from_graph(Dx<B>& dx, const ExtendOpts& o) {
  const ExecContext& cx = dx.cx;
  {
    ScopedStage timed(cx.stage_slot(&StageWall::accumulate));
    for (std::uint32_t r = 0; r < dx.ranks(); ++r) {
      auto emit = dx.route_to_slot(r, 1);
      for (VertexId u = dx.part().begin(r); u < dx.part().end(r); ++u) {
        kernel_init_from_graph<B>(cx, u, o, emit);
      }
    }
  }
  DistTableT<B> t = collect_path(dx, 2);
  cx.end_phase();
  return t;
}

template <int B>
DistTableT<B> d_init_path_from_child(Dx<B>& dx, const DistTableT<B>& child,
                                     const ExtendOpts& o) {
  const ExecContext& cx = dx.cx;
  {
    ScopedStage timed(cx.stage_slot(&StageWall::accumulate));
    for (std::uint32_t r = 0; r < dx.ranks(); ++r) {
      auto emit = dx.route_to_slot(r, 1);
      child.shard(r).for_each_entry([&](const TableEntryT<B>& e) {
        kernel_init_from_child<B>(cx, e, /*flip=*/false, o, emit);
      });
    }
  }
  DistTableT<B> t = collect_path(dx, 2);
  cx.end_phase();
  return t;
}

template <int B>
DistTableT<B> d_extend_with_graph(Dx<B>& dx, DistTableT<B>& path,
                                  const ExtendOpts& o) {
  const ExecContext& cx = dx.cx;
  // The shared engine's batched extension seals (and thereby merges) the
  // path before iterating; sealing the shards keeps the iterated row
  // multiset — and hence every load-model charge — in parity.
  if constexpr (B > 1) {
    ScopedStage timed(cx.stage_slot(&StageWall::seal));
    path.seal_shards(SortOrder::kByV1, dx.domain);
  }
  {
    ScopedStage timed(cx.stage_slot(&StageWall::accumulate));
    for (std::uint32_t r = 0; r < dx.ranks(); ++r) {
      cx.note_lanes(path.shard(r).layout());
      auto emit = dx.route_to_slot(r, 1);
      path.shard(r).for_each_entry([&](const TableEntryT<B>& e) {
        kernel_extend_with_graph<B>(cx, e, o, emit);
      });
    }
  }
  DistTableT<B> t = collect_path(dx, path.arity());
  cx.end_phase();
  return t;
}

template <int B>
DistTableT<B> d_extend_with_child(Dx<B>& dx, DistTableT<B>& path,
                                  const DistTableT<B>& child,
                                  const ExtendOpts& o) {
  const ExecContext& cx = dx.cx;
  if constexpr (B > 1) {
    ScopedStage timed(cx.stage_slot(&StageWall::seal));
    path.seal_shards(SortOrder::kByV1, dx.domain);
  }
  // Path entries with frontier v and child entries (v, w, ..) are
  // co-located at owner(v): the EdgeJoin probe is rank-local. Stored
  // child shards are dense, so the probe reads group() directly.
  {
    ScopedStage timed(cx.stage_slot(&StageWall::accumulate));
    for (std::uint32_t r = 0; r < dx.ranks(); ++r) {
      cx.note_lanes(path.shard(r).layout());
      const ProjTableT<B>& cs = child.shard(r);
      auto emit = dx.route_to_slot(r, 1);
      path.shard(r).for_each_entry([&](const TableEntryT<B>& e) {
        kernel_extend_with_child<B>(cx, e, cs.group(0, e.key.v[1]), o, emit);
      });
    }
  }
  DistTableT<B> t = collect_path(dx, path.arity());
  cx.end_phase();
  return t;
}

template <int B>
DistTableT<B> d_node_join(Dx<B>& dx, const DistTableT<B>& path,
                          const DistTableT<B>& child, int slot) {
  const ExecContext& cx = dx.cx;
  // The unary child lives with owner(x) (home slot 0). Probing by the
  // anchor slot needs the path rehomed there first — a transport-only
  // superstep a real implementation pays, invisible to the load model.
  const DistTableT<B>* src = &path;
  DistTableT<B> rehomed;
  if (slot == 0 && dx.ranks() > 1) {
    ScopedStage timed(cx.stage_slot(&StageWall::transport));
    rehomed = path.resharded(0, dx.comm, dx.part(), SortOrder::kUnsorted,
                             dx.budget, dx.domain);
    src = &rehomed;
  }
  {
    ScopedStage timed(cx.stage_slot(&StageWall::accumulate));
    for (std::uint32_t r = 0; r < dx.ranks(); ++r) {
      const ProjTableT<B>& cs = child.shard(r);
      auto emit = dx.route_to_slot(r, 1);
      src->shard(r).for_each_entry([&](const TableEntryT<B>& e) {
        kernel_node_join<B>(cx, e, cs.group(0, e.key.v[slot]), slot, emit);
      });
    }
  }
  DistTableT<B> t = collect_path(dx, path.arity());
  cx.end_phase();
  return t;
}

/// Merge the co-located (u, v) groups of the two half-cycle tables with
/// the same merge_bucket kernel as the shared engine, routing every
/// output to the owner of its slot-0 boundary image (the storage home of
/// block tables); outputs of a root merge (out_arity 0) collapse to rank
/// 0. Accumulates into the per-rank cycle sinks.
template <int B>
void d_merge_halves(Dx<B>& dx, DistTableT<B>& plus, DistTableT<B>& minus,
                    const MergeSpec& spec,
                    std::vector<AccumMapT<B>>& sinks) {
  const ExecContext& cx = dx.cx;
  {
    ScopedStage timed(cx.stage_slot(&StageWall::seal));
    plus.seal_shards(SortOrder::kByV0V1, dx.domain);
    minus.seal_shards(SortOrder::kByV0V1, dx.domain);
  }
  {
    ScopedStage timed_merge(cx.stage_slot(&StageWall::merge));
    for (std::uint32_t r = 0; r < dx.ranks(); ++r) {
      cx.note_lanes(plus.shard(r).layout());
      cx.note_lanes(minus.shard(r).layout());
      const auto pe = plus.shard(r).entries();
      const auto me = minus.shard(r).entries();
      auto route = [&](const TableKey& key,
                       const typename LaneOps<B>::Vec& cnt) {
        const std::uint32_t dest =
            spec.out_arity >= 1 ? dx.owner(key.v[0]) : 0;
        dx.comm.send(r, dest, {key, cnt});
      };
      // Two-pointer over the shard's slot-0 groups; merge_bucket handles
      // the (u, v) subgroup join and the load charges within each.
      std::size_t pi = 0, mi = 0;
      while (pi < pe.size() && mi < me.size()) {
        if (pe[pi].key.v[0] < me[mi].key.v[0]) {
          ++pi;
          continue;
        }
        if (me[mi].key.v[0] < pe[pi].key.v[0]) {
          ++mi;
          continue;
        }
        const VertexId u = pe[pi].key.v[0];
        std::size_t pj = pi, mj = mi;
        while (pj < pe.size() && pe[pj].key.v[0] == u) ++pj;
        while (mj < me.size() && me[mj].key.v[0] == u) ++mj;
        merge_bucket<B>(cx, pe.subspan(pi, pj - pi),
                        me.subspan(mi, mj - mi), spec, route);
        pi = pj;
        mi = mj;
      }
    }
  }
  ScopedStage timed(cx.stage_slot(&StageWall::transport));
  dx.comm.exchange();
  maybe_alloc_fail(dx, "merge_halves");
  std::size_t total = 0;
  for (std::uint32_t r = 0; r < dx.ranks(); ++r) {
    for (const TableEntryT<B>& e : dx.comm.inbox(r)) {
      sinks[r].add(e.key, e.cnt);
    }
    total += sinks[r].size();
  }
  if (total > dx.budget) {
    throw BudgetExceeded("projection table exceeded " +
                         std::to_string(dx.budget) + " entries");
  }
  cx.end_phase();
}

template <int B>
DistTableT<B> d_aggregate(Dx<B>& dx, const DistTableT<B>& t, int new_arity) {
  const ExecContext& cx = dx.cx;
  {
    ScopedStage timed(cx.stage_slot(&StageWall::accumulate));
    for (std::uint32_t r = 0; r < dx.ranks(); ++r) {
      auto emit = [&](const TableKey& key,
                      const typename LaneOps<B>::Vec& cnt) {
        const std::uint32_t dest = new_arity >= 1 ? dx.owner(key.v[0]) : 0;
        dx.comm.send(r, dest, {key, cnt});
      };
      t.shard(r).for_each_entry([&](const TableEntryT<B>& e) {
        kernel_aggregate<B>(cx, e, new_arity, emit);
      });
    }
  }
  ScopedStage timed(cx.stage_slot(&StageWall::transport));
  dx.comm.exchange();
  maybe_alloc_fail(dx, "aggregate");
  DistTableT<B> out =
      DistTableT<B>::collect(new_arity, /*home_slot=*/0, dx.comm,
                             SortOrder::kUnsorted, dx.budget, dx.domain);
  cx.end_phase();
  return out;
}

/// Solved child-block tables: stored home slot 0, shards sealed kByV0
/// (the same convention as the shared TablePool), with lazily cached
/// transposes produced by a transport superstep. Stored shards are
/// dense: collect() builds them from flat dense rows.
template <int B>
class DistPool {
 public:
  DistPool(std::size_t num_blocks, VertexId domain,
           StageWall* stage = nullptr)
      : tables_(num_blocks),
        transposed_(num_blocks),
        has_transposed_(num_blocks, false),
        stored_(num_blocks, false),
        domain_(domain),
        stage_(stage) {}

  void store(int block, DistTableT<B> table) {
    {
      ScopedStage timed(stage_ == nullptr ? nullptr : &stage_->seal);
      table.seal_shards(SortOrder::kByV0, domain_);
    }
    tables_[block] = std::move(table);
    stored_[block] = true;
  }

  const DistTableT<B>& get(int block) const { return tables_[block]; }

  const DistTableT<B>& oriented(Dx<B>& dx, int block, bool transposed) {
    if (!transposed) return tables_[block];
    if (!has_transposed_[block]) {
      // A transpose is a transport superstep plus a sealing collect;
      // charge it to transport (the seal inside is not separable here).
      ScopedStage timed(stage_ == nullptr ? nullptr : &stage_->transport);
      transposed_[block] = tables_[block].transposed(dx.comm, dx.part(),
                                                     dx.budget, domain_);
      has_transposed_[block] = true;
    }
    return transposed_[block];
  }

  /// Serialize every stored table shard-by-shard through the wire
  /// encoding (table/lane_payload.hpp). Cached transposes are deliberately
  /// not captured: they regenerate on demand after a restore.
  CheckpointImageT<B> checkpoint(std::size_t next_block,
                                 std::uint64_t supersteps) const {
    CheckpointImageT<B> img;
    img.next_block = next_block;
    img.supersteps = supersteps;
    for (std::size_t b = 0; b < tables_.size(); ++b) {
      if (!stored_[b]) continue;
      const DistTableT<B>& t = tables_[b];
      typename CheckpointImageT<B>::TableImage ti;
      ti.block = static_cast<int>(b);
      ti.arity = t.arity();
      ti.home_slot = t.home_slot();
      ti.shards.reserve(t.num_shards());
      for (std::uint32_t r = 0; r < t.num_shards(); ++r) {
        ti.shards.push_back(checkpoint_encode_shard<B>(t.shard(r)));
      }
      img.tables.push_back(std::move(ti));
    }
    return img;
  }

  /// Rebuild the stored tables from `img`, dropping everything newer.
  /// Decoded rows arrive in sealed order with unique keys, and the dense
  /// seal orders rows by their full key, so re-sealing reproduces the
  /// checkpointed shards bit for bit.
  void restore(const CheckpointImageT<B>& img, std::uint32_t ranks) {
    std::fill(stored_.begin(), stored_.end(), false);
    std::fill(has_transposed_.begin(), has_transposed_.end(), false);
    for (auto& t : tables_) t = DistTableT<B>();
    for (auto& t : transposed_) t = DistTableT<B>();
    for (const auto& ti : img.tables) {
      if (ti.block < 0 ||
          static_cast<std::size_t>(ti.block) >= tables_.size() ||
          ti.shards.size() != ranks) {
        throw CheckpointCorrupt("checkpoint table image for block " +
                                std::to_string(ti.block) +
                                " does not match the run shape");
      }
      std::vector<std::vector<TableEntryT<B>>> rows;
      rows.reserve(ti.shards.size());
      for (const std::vector<std::uint8_t>& bytes : ti.shards) {
        rows.push_back(checkpoint_decode_shard<B>(bytes));
      }
      tables_[ti.block] = DistTableT<B>::from_shard_rows(
          ti.arity, ti.home_slot, std::move(rows), SortOrder::kByV0,
          domain_);
      stored_[ti.block] = true;
    }
  }

 private:
  std::vector<DistTableT<B>> tables_;
  std::vector<DistTableT<B>> transposed_;
  std::vector<bool> has_transposed_;
  std::vector<bool> stored_;
  VertexId domain_;
  StageWall* stage_ = nullptr;
};

/// The distributed interpreter of path_steps (split_plan.hpp).
template <int B>
DistTableT<B> d_build_path(Dx<B>& dx, DistPool<B>& pool,
                           const std::vector<PathStep>& steps) {
  DistTableT<B> table;
  for (const PathStep& st : steps) {
    const ExtendOpts opts = st.extend_opts();
    switch (st.op) {
      case PathStep::Op::kInit:
        table = st.child < 0
                    ? d_init_path_from_graph(dx, opts)
                    : d_init_path_from_child(
                          dx, pool.oriented(dx, st.child, st.transposed),
                          opts);
        break;
      case PathStep::Op::kNodeJoin:
        table = d_node_join(dx, table, pool.get(st.child), st.slot);
        break;
      case PathStep::Op::kExtend:
        table = st.child < 0
                    ? d_extend_with_graph(dx, table, opts)
                    : d_extend_with_child(
                          dx, table,
                          pool.oriented(dx, st.child, st.transposed), opts);
        break;
    }
  }
  return table;
}

/// Run a cycle block's split passes in schedule_for's order from `first`
/// on, merging into `sinks` (non-empty only when resuming from a
/// checkpoint taken inside the block). Each distinct half is built at its
/// first use from `first` on (so a resume rebuilds the live ones) and
/// freed after its last use. `after_split(next, sinks)` runs once each
/// pass's merge has landed, which is where the caller may checkpoint.
template <int B, typename AfterSplit>
DistTableT<B> d_solve_cycle(Dx<B>& dx, const Block& blk, DistPool<B>& pool,
                            std::size_t first,
                            std::vector<AccumMapT<B>> sinks,
                            AfterSplit&& after_split) {
  const CycleSchedule sched = schedule_for(blk, dx.cx.opts.algo);
  std::vector<DistTableT<B>> live(sched.steps.size());
  std::vector<bool> built(sched.steps.size(), false);
  for (std::size_t t = first; t < sched.splits.size(); ++t) {
    for (int id : sched.halves[t]) {
      if (built[id]) {
        ++dx.paths.reuses;
        continue;
      }
      live[id] = d_build_path(dx, pool, sched.steps[id]);
      built[id] = true;
      ++dx.paths.builds;
    }
    const auto [plus, minus] = sched.halves[t];
    d_merge_halves(dx, live[plus], live[minus], sched.splits[t].merge,
                   sinks);
    for (int id : sched.halves[t]) {
      if (sched.last_use[id] == t) live[id] = DistTableT<B>();
    }
    after_split(t + 1, sinks);
  }
  return DistTableT<B>::from_maps(blk.boundary_count(), /*home_slot=*/0,
                                  std::move(sinks));
}

template <int B>
DistTableT<B> d_solve_leaf_edge(Dx<B>& dx, const Block& blk,
                                DistPool<B>& pool) {
  if (blk.kind != BlockKind::kLeafEdge) {
    throw Error(ErrorCode::kUnsupportedQuery,
                "solve_leaf_edge: not a leaf-edge block");
  }
  ExtendOpts no_opts;
  DistTableT<B> table;
  const int edge_child = blk.edge_child[0];
  if (edge_child < 0) {
    table = d_init_path_from_graph(dx, no_opts);
  } else {
    table = d_init_path_from_child(
        dx, pool.oriented(dx, edge_child, blk.edge_child_flip[0]), no_opts);
  }
  if (blk.node_child[1] >= 0) {
    table = d_node_join(dx, table, pool.get(blk.node_child[1]), /*slot=*/1);
  }
  if (blk.node_child[0] >= 0) {
    table = d_node_join(dx, table, pool.get(blk.node_child[0]), /*slot=*/0);
  }
  return d_aggregate(dx, table, /*new_arity=*/1);
}

template <int B>
DistStats run_plan_distributed_impl(const CsrGraph& g, const DecompTree& tree,
                                    const ColoringBatch& batch,
                                    std::uint32_t ranks, ExecOptions opts) {
  Timer timer;
  const DegreeOrder order = opts.order_by_id
                                ? DegreeOrder::by_id(g.num_vertices())
                                : DegreeOrder(g);
  LoadModel load(ranks);
  DistStats stats;
  const ExecContext cx{g,
                       batch,
                       order,
                       BlockPartition(g.num_vertices(), ranks),
                       &load,
                       opts,
                       &stats.lanes,
                       &stats.stage,
                       &stats.accum};
  VirtualCommT<B> comm(ranks);
  FaultPlan faults(opts.dist.faults);
  FaultPlan* fp = faults.enabled() ? &faults : nullptr;
  if (fp != nullptr) {
    comm.set_fault_plan(fp, opts.dist.max_retries, opts.dist.backoff_base_ms,
                        opts.dist.deadline_ms);
  }
  Dx<B> dx{cx, comm, opts.max_table_entries, g.num_vertices(), fp, {}};
  DistPool<B> pool(tree.blocks.size(), g.num_vertices(), &stats.stage);

  stats.lanes_used = batch.lanes();
  auto record_root = [&](const typename LaneOps<B>::Vec& totals) {
    for (int l = 0; l < B; ++l) {
      stats.colorful_lane[l] = LaneOps<B>::lane(totals, l);
    }
    stats.colorful = stats.colorful_lane[0];
  };

  // Block loop with rollback replay. `ckpt` starts as the implicit empty
  // checkpoint (next_block 0): with checkpointing disabled, a replay
  // restarts the whole run. A retryable failure inside block i (the
  // transport exhausted its retries, or an injected allocation failure)
  // rolls the pool back to `ckpt` and resumes from ckpt.next_block (and,
  // for a checkpoint taken between a cycle block's split passes, from
  // ckpt.next_split with the saved merge sinks); the replayed work
  // recomputes against fresh fault rolls. Non-retryable errors
  // (BudgetExceeded, malformed plans) propagate unchanged.
  CheckpointImageT<B> ckpt;
  std::uint32_t replays_left = opts.dist.max_replays;
  auto checkpoint_due = [&] {
    return opts.dist.checkpoint_interval > 0 &&
           comm.stats().supersteps - ckpt.supersteps >=
               opts.dist.checkpoint_interval;
  };
  auto take_checkpoint = [&](std::size_t next_block, std::size_t next_split,
                             const std::vector<AccumMapT<B>>& sinks) {
    ckpt = pool.checkpoint(next_block, comm.stats().supersteps);
    ckpt.next_split = next_split;
    for (const AccumMapT<B>& sink : sinks) {
      ckpt.sinks.push_back(checkpoint_encode_sink<B>(sink));
    }
    FaultStats& fs = faults.stats();
    ++fs.checkpoints_taken;
    fs.checkpoint_bytes += ckpt.bytes();
  };
  std::size_t i = 0;
  bool done = false;
  while (!done && i < tree.blocks.size()) {
    try {
      const Block& blk = tree.blocks[i];
      const bool is_root = (static_cast<int>(i) == tree.root);

      if (blk.kind == BlockKind::kSingleton) {
        if (!is_root) {
          throw Error(ErrorCode::kUnsupportedQuery,
                      "run_plan_distributed: singleton below the root");
        }
        if (blk.node_child[0] >= 0) {
          record_root(comm.allreduce_sum_lanes(
              pool.get(blk.node_child[0]).shard_lane_totals()));
        } else {
          // Single-node query: every data vertex is a colorful match
          // under every coloring.
          for (int l = 0; l < B; ++l) {
            stats.colorful_lane[l] = g.num_vertices();
          }
          stats.colorful = g.num_vertices();
        }
        done = true;
        continue;
      }

      DistTableT<B> table;
      if (blk.kind == BlockKind::kLeafEdge) {
        table = d_solve_leaf_edge(dx, blk, pool);
      } else {
        const bool resume = ckpt.next_block == i;
        table = d_solve_cycle(
            dx, blk, pool, resume ? ckpt.next_split : 0,
            resume ? ckpt.restore_sinks(ranks)
                   : std::vector<AccumMapT<B>>(ranks),
            [&](std::size_t next_split,
                const std::vector<AccumMapT<B>>& sinks) {
              if (checkpoint_due()) take_checkpoint(i, next_split, sinks);
            });
      }
      if (is_root) {
        record_root(comm.allreduce_sum_lanes(table.shard_lane_totals()));
        done = true;
        continue;
      }
      pool.store(static_cast<int>(i), std::move(table));
      const DistTableT<B>& stored = pool.get(static_cast<int>(i));
      for (std::uint32_t r = 0; r < stored.num_shards(); ++r) {
        cx.note_lanes(stored.shard(r).layout());
      }
      ++i;
      if (checkpoint_due()) take_checkpoint(i, 0, {});
    } catch (const Error& e) {
      if (!e.retryable()) throw;
      if (replays_left == 0) {
        throw Error("run_plan_distributed: replay budget exhausted at block " +
                        std::to_string(i),
                    e);
      }
      --replays_left;
      FaultStats& fs = faults.stats();
      ++fs.replays;
      fs.replayed_supersteps += comm.stats().supersteps - ckpt.supersteps;
      comm.reset_in_flight();
      pool.restore(ckpt, ranks);
      i = ckpt.next_block;
    }
  }

  stats.path_builds = dx.paths.builds;
  stats.path_reuses = dx.paths.reuses;
  stats.wall_seconds = timer.seconds();
  stats.sim_time = load.sim_time();
  stats.total_ops = load.total_ops();
  stats.max_rank_ops = load.max_rank_ops();
  stats.avg_rank_ops = load.avg_rank_ops();
  stats.total_comm = load.total_comm();
  stats.transport = comm.stats();
  stats.faults = faults.stats();
  return stats;
}

}  // namespace

DistStats run_plan_distributed(const CsrGraph& g, const DecompTree& tree,
                               const Coloring& chi, std::uint32_t ranks,
                               ExecOptions opts) {
  return run_plan_distributed(g, tree, ColoringBatch(chi), ranks, opts);
}

DistStats run_plan_distributed(const CsrGraph& g, const DecompTree& tree,
                               const ColoringBatch& batch,
                               std::uint32_t ranks, ExecOptions opts) {
  if (tree.root < 0) {
    throw Error(ErrorCode::kUnsupportedQuery,
                "run_plan_distributed: tree has no root");
  }
  switch (batch.lanes()) {
    case 1: return run_plan_distributed_impl<1>(g, tree, batch, ranks, opts);
    case 2: return run_plan_distributed_impl<2>(g, tree, batch, ranks, opts);
    case 4: return run_plan_distributed_impl<4>(g, tree, batch, ranks, opts);
    case 8: return run_plan_distributed_impl<8>(g, tree, batch, ranks, opts);
    default: break;
  }
  throw Error(ErrorCode::kUnsupportedQuery,
              "run_plan_distributed: batch width must be 1, 2, 4 or 8");
}

}  // namespace ccbt
