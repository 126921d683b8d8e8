#include "ccbt/dist/dist_engine.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "ccbt/dist/checkpoint.hpp"
#include "ccbt/engine/interpreter.hpp"
#include "ccbt/engine/load_model.hpp"
#include "ccbt/engine/primitives.hpp"
#include "ccbt/graph/degree_order.hpp"
#include "ccbt/util/error.hpp"
#include "ccbt/util/timer.hpp"

namespace ccbt {

namespace {

// The per-entry join logic lives in the kernels of engine/primitives.hpp,
// shared verbatim with the shared-memory engine, and the plan walk is the
// interpreter's (engine/interpreter.hpp). This file only routes kernel
// emissions through the transport. At B = 1 the two engines' load models
// agree exactly. At B > 1 they agree exactly on some plans and charge
// slightly different ops on others (test_dist_engine pins the plans that
// agree); counts always agree.

/// The virtual-MPI TableStore (engine/interpreter.hpp): the shared-memory
/// ExecContext (whose LoadModel the primitives charge exactly as the
/// shared engine does), the transport, the solved child-block tables and
/// the last checkpoint. Each primitive runs its kernel rank by rank and
/// delivers the emissions in one superstep.
template <int B>
struct DistStore {
  using Table = DistTableT<B>;
  using Sinks = std::vector<AccumMapT<B>>;  // one cycle merge sink per rank
  static constexpr int kLanes = B;

  DistStore(const ExecContext& cx, VirtualCommT<B>& comm, FaultPlan& faults,
            std::size_t num_blocks)
      : cx(cx),
        comm(comm),
        faults(faults),
        budget(cx.opts.max_table_entries),
        domain(cx.g.num_vertices()),
        tables_(num_blocks),
        transposed_(num_blocks),
        has_transposed_(num_blocks, false),
        stored_(num_blocks, false) {}

  const ExecContext& cx;
  VirtualCommT<B>& comm;
  FaultPlan& faults;
  std::size_t budget;
  VertexId domain;  // data-graph vertex count (bucket-index domain)

  /// Solved child-block tables: stored home slot 0, shards sealed kByV0
  /// (the same convention as the shared TablePool), with lazily cached
  /// transposes produced by a transport superstep. Stored shards are
  /// dense: collect() builds them from flat dense rows.
  std::vector<Table> tables_;
  std::vector<Table> transposed_;
  std::vector<bool> has_transposed_;
  std::vector<bool> stored_;

  /// Where a replay resumes; the default image restarts the whole run.
  CheckpointImageT<B> ckpt;

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

  /// Deterministically injected allocation failure at a table-materialize
  /// point. Retryable: the replay layer rolls back to the last checkpoint
  /// (the fault stream has advanced, so the replayed attempt rolls fresh
  /// decisions and can succeed).
  void maybe_alloc_fail(const char* where) {
    if (faults.enabled() && faults.alloc_fails()) {
      throw Error(ErrorCode::kAllocFailed,
                  std::string(where) + ": injected allocation failure");
    }
  }

  /// Deliver the queued emissions and collect them into a path table:
  /// entry (.., v, ..) lives with owner(v) (home slot 1, Section 7). Ends
  /// the primitive's load-model phase.
  Table collect_path(int arity) {
    ScopedStage timed(cx.stage_slot(&StageWall::transport));
    comm.exchange();
    maybe_alloc_fail("collect_path");
    Table t = Table::collect(arity, /*home_slot=*/1, comm,
                             SortOrder::kUnsorted, budget, domain);
    cx.end_phase();
    return t;
  }

  Table init_from_graph(const ExtendOpts& o) {
    {
      ScopedStage timed(cx.stage_slot(&StageWall::accumulate));
      for (std::uint32_t r = 0; r < ranks(); ++r) {
        auto emit = route_to_slot(r, 1);
        for (VertexId u = part().begin(r); u < part().end(r); ++u) {
          kernel_init_from_graph<B>(cx, u, o, emit);
        }
      }
    }
    return collect_path(2);
  }

  Table init_from_child(const Table& child, const ExtendOpts& o) {
    {
      ScopedStage timed(cx.stage_slot(&StageWall::accumulate));
      for (std::uint32_t r = 0; r < ranks(); ++r) {
        auto emit = route_to_slot(r, 1);
        child.shard(r).for_each_entry([&](const TableEntryT<B>& e) {
          kernel_init_from_child<B>(cx, e, /*flip=*/false, o, emit);
        });
      }
    }
    return collect_path(2);
  }

  Table extend_with_graph(Table& path, const ExtendOpts& o) {
    // The shared engine's batched extension seals (and thereby merges) the
    // path before iterating; sealing the shards keeps the iterated row
    // multiset — and hence every load-model charge — in parity.
    if constexpr (B > 1) {
      ScopedStage timed(cx.stage_slot(&StageWall::seal));
      path.seal_shards(SortOrder::kByV1, domain);
    }
    {
      ScopedStage timed(cx.stage_slot(&StageWall::accumulate));
      for (std::uint32_t r = 0; r < ranks(); ++r) {
        cx.note_lanes(path.shard(r).layout());
        auto emit = route_to_slot(r, 1);
        path.shard(r).for_each_entry([&](const TableEntryT<B>& e) {
          kernel_extend_with_graph<B>(cx, e, o, emit);
        });
      }
    }
    return collect_path(path.arity());
  }

  Table extend_with_child(Table& path, const Table& child,
                          const ExtendOpts& o) {
    if constexpr (B > 1) {
      ScopedStage timed(cx.stage_slot(&StageWall::seal));
      path.seal_shards(SortOrder::kByV1, domain);
    }
    // Path entries with frontier v and child entries (v, w, ..) are
    // co-located at owner(v): the EdgeJoin probe is rank-local. Stored
    // child shards are dense, so the probe reads group() directly.
    {
      ScopedStage timed(cx.stage_slot(&StageWall::accumulate));
      for (std::uint32_t r = 0; r < ranks(); ++r) {
        cx.note_lanes(path.shard(r).layout());
        const ProjTableT<B>& cs = child.shard(r);
        auto emit = route_to_slot(r, 1);
        path.shard(r).for_each_entry([&](const TableEntryT<B>& e) {
          kernel_extend_with_child<B>(cx, e, cs.group(0, e.key.v[1]), o,
                                      emit);
        });
      }
    }
    return collect_path(path.arity());
  }

  Table node_join(const Table& path, const Table& child, int slot) {
    // The unary child lives with owner(x) (home slot 0). Probing by the
    // anchor slot needs the path rehomed there first — a transport-only
    // superstep a real implementation pays, invisible to the load model.
    const Table* src = &path;
    Table rehomed;
    if (slot == 0 && ranks() > 1) {
      ScopedStage timed(cx.stage_slot(&StageWall::transport));
      rehomed = path.resharded(0, comm, part(), SortOrder::kUnsorted, budget,
                               domain);
      src = &rehomed;
    }
    {
      ScopedStage timed(cx.stage_slot(&StageWall::accumulate));
      for (std::uint32_t r = 0; r < ranks(); ++r) {
        const ProjTableT<B>& cs = child.shard(r);
        auto emit = route_to_slot(r, 1);
        src->shard(r).for_each_entry([&](const TableEntryT<B>& e) {
          kernel_node_join<B>(cx, e, cs.group(0, e.key.v[slot]), slot, emit);
        });
      }
    }
    return collect_path(path.arity());
  }

  Sinks new_sinks() const { return Sinks(ranks()); }

  /// Merge the co-located (u, v) groups of the two half-cycle tables with
  /// the same merge_bucket kernel as the shared engine, routing every
  /// output to the owner of its slot-0 boundary image (the storage home
  /// of block tables); outputs of a root merge (out_arity 0) collapse to
  /// rank 0. Accumulates into the per-rank cycle sinks.
  void merge_halves(Table& plus, Table& minus, const MergeSpec& spec,
                    Sinks& sinks) {
    {
      ScopedStage timed(cx.stage_slot(&StageWall::seal));
      plus.seal_shards(SortOrder::kByV0V1, domain);
      minus.seal_shards(SortOrder::kByV0V1, domain);
    }
    {
      ScopedStage timed_merge(cx.stage_slot(&StageWall::merge));
      for (std::uint32_t r = 0; r < ranks(); ++r) {
        cx.note_lanes(plus.shard(r).layout());
        cx.note_lanes(minus.shard(r).layout());
        const auto pe = plus.shard(r).entries();
        const auto me = minus.shard(r).entries();
        auto route = [&](const TableKey& key,
                         const typename LaneOps<B>::Vec& cnt) {
          const std::uint32_t dest =
              spec.out_arity >= 1 ? owner(key.v[0]) : 0;
          comm.send(r, dest, {key, cnt});
        };
        // Two-pointer over the shard's slot-0 groups; merge_bucket
        // handles the (u, v) subgroup join and the load charges within
        // each.
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
    comm.exchange();
    maybe_alloc_fail("merge_halves");
    std::size_t total = 0;
    for (std::uint32_t r = 0; r < ranks(); ++r) {
      for (const TableEntryT<B>& e : comm.inbox(r)) {
        sinks[r].add(e.key, e.cnt);
      }
      total += sinks[r].size();
    }
    if (total > budget) {
      throw BudgetExceeded("projection table exceeded " +
                           std::to_string(budget) + " entries");
    }
    cx.end_phase();
  }

  Table from_sinks(int arity, Sinks sinks) {
    return Table::from_maps(arity, /*home_slot=*/0, std::move(sinks));
  }

  Table aggregate(const Table& t, int new_arity) {
    {
      ScopedStage timed(cx.stage_slot(&StageWall::accumulate));
      for (std::uint32_t r = 0; r < ranks(); ++r) {
        auto emit = [&](const TableKey& key,
                        const typename LaneOps<B>::Vec& cnt) {
          const std::uint32_t dest = new_arity >= 1 ? owner(key.v[0]) : 0;
          comm.send(r, dest, {key, cnt});
        };
        t.shard(r).for_each_entry([&](const TableEntryT<B>& e) {
          kernel_aggregate<B>(cx, e, new_arity, emit);
        });
      }
    }
    ScopedStage timed(cx.stage_slot(&StageWall::transport));
    comm.exchange();
    maybe_alloc_fail("aggregate");
    Table out = Table::collect(new_arity, /*home_slot=*/0, comm,
                               SortOrder::kUnsorted, budget, domain);
    cx.end_phase();
    return out;
  }

  const Table& get(int block) const { return tables_[block]; }

  const Table& oriented(int block, bool transposed) {
    if (!transposed) return tables_[block];
    if (!has_transposed_[block]) {
      // A transpose is a transport superstep plus a sealing collect;
      // charge it to transport (the seal inside is not separable here).
      ScopedStage timed(cx.stage_slot(&StageWall::transport));
      transposed_[block] =
          tables_[block].transposed(comm, part(), budget, domain);
      has_transposed_[block] = true;
    }
    return transposed_[block];
  }

  void store(int block, Table table) {
    {
      ScopedStage timed(cx.stage_slot(&StageWall::seal));
      table.seal_shards(SortOrder::kByV0, domain);
    }
    tables_[block] = std::move(table);
    stored_[block] = true;
    for (std::uint32_t r = 0; r < tables_[block].num_shards(); ++r) {
      cx.note_lanes(tables_[block].shard(r).layout());
    }
  }

  typename LaneOps<B>::Vec root_totals(const Table& t) const {
    return comm.allreduce_sum_lanes(t.shard_lane_totals());
  }

  /// Snapshot the stored tables (and a cycle block's merge sinks) once at least
  /// checkpoint_interval supersteps passed since the last snapshot.
  void split_done(std::size_t block, std::size_t next_split,
                  const Sinks& sinks) {
    if (checkpoint_due()) take_checkpoint(block, next_split, sinks);
  }
  void block_done(std::size_t next_block) {
    if (checkpoint_due()) take_checkpoint(next_block, 0, {});
  }

  bool checkpoint_due() const {
    const std::uint64_t interval = cx.opts.dist.checkpoint_interval;
    return interval > 0 &&
           comm.stats().supersteps - ckpt.supersteps >= interval;
  }

  /// Serialize every stored table shard by shard through the wire
  /// encoding (table/lane_payload.hpp), plus the merge sinks of a cycle
  /// block's finished split passes. Cached transposes are deliberately
  /// not captured: they regenerate on demand after a restore.
  void take_checkpoint(std::size_t next_block, std::size_t next_split,
                       const Sinks& sinks) {
    ckpt = CheckpointImageT<B>();
    ckpt.next_block = next_block;
    ckpt.supersteps = comm.stats().supersteps;
    ckpt.next_split = next_split;
    for (std::size_t b = 0; b < tables_.size(); ++b) {
      if (!stored_[b]) continue;
      const Table& t = tables_[b];
      typename CheckpointImageT<B>::TableImage ti;
      ti.block = static_cast<int>(b);
      ti.arity = t.arity();
      ti.home_slot = t.home_slot();
      ti.shards.reserve(t.num_shards());
      for (std::uint32_t r = 0; r < t.num_shards(); ++r) {
        ti.shards.push_back(checkpoint_encode_shard<B>(t.shard(r)));
      }
      ckpt.tables.push_back(std::move(ti));
    }
    for (const AccumMapT<B>& sink : sinks) {
      ckpt.sinks.push_back(checkpoint_encode_sink<B>(sink));
    }
    FaultStats& fs = faults.stats();
    ++fs.checkpoints_taken;
    fs.checkpoint_bytes += ckpt.bytes();
  }

  /// Rebuild the stored tables from `ckpt`, dropping everything newer.
  /// Decoded rows arrive in sealed order with unique keys, and the dense
  /// seal orders rows by their full key, so re-sealing reproduces the
  /// checkpointed shards bit for bit.
  void restore() {
    std::fill(stored_.begin(), stored_.end(), false);
    std::fill(has_transposed_.begin(), has_transposed_.end(), false);
    for (auto& t : tables_) t = Table();
    for (auto& t : transposed_) t = Table();
    for (const auto& ti : ckpt.tables) {
      if (ti.block < 0 ||
          static_cast<std::size_t>(ti.block) >= tables_.size() ||
          ti.shards.size() != ranks()) {
        throw CheckpointCorrupt("checkpoint table image for block " +
                                std::to_string(ti.block) +
                                " does not match the run shape");
      }
      std::vector<std::vector<TableEntryT<B>>> rows;
      rows.reserve(ti.shards.size());
      for (const std::vector<std::uint8_t>& bytes : ti.shards) {
        rows.push_back(checkpoint_decode_shard<B>(bytes));
      }
      tables_[ti.block] = Table::from_shard_rows(
          ti.arity, ti.home_slot, std::move(rows), SortOrder::kByV0, domain);
      stored_[ti.block] = true;
    }
  }
};

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
  if (faults.enabled()) {
    comm.set_fault_plan(&faults, opts.dist.max_retries,
                        opts.dist.backoff_base_ms, opts.dist.deadline_ms);
  }
  DistStore<B> dx(cx, comm, faults, tree.blocks.size());
  stats.lanes_used = batch.lanes();

  // Rollback replay. `dx.ckpt` starts as the implicit empty checkpoint
  // (next_block 0): with checkpointing disabled, a replay restarts the
  // whole run. A retryable failure (the transport exhausted its retries,
  // or an injected allocation failure) rolls the stored tables back to the
  // last checkpoint and resumes the plan from its block (and, for a
  // checkpoint taken between a cycle block's split passes, from its split
  // with the saved merge sinks); the replayed work recomputes against
  // fresh fault rolls. Non-retryable errors (BudgetExceeded, malformed plans)
  // propagate unchanged.
  std::uint32_t replays_left = opts.dist.max_replays;
  for (;;) {
    try {
      run_blocks(dx, tree,
                 {dx.ckpt.next_block, dx.ckpt.next_split,
                  dx.ckpt.restore_sinks(ranks)},
                 stats);
      break;
    } catch (const Error& e) {
      if (!e.retryable()) throw;
      if (replays_left == 0) {
        throw Error("run_plan_distributed: replay budget exhausted resuming "
                    "at block " + std::to_string(dx.ckpt.next_block),
                    e);
      }
      --replays_left;
      FaultStats& fs = faults.stats();
      ++fs.replays;
      fs.replayed_supersteps += comm.stats().supersteps - dx.ckpt.supersteps;
      comm.reset_in_flight();
      dx.restore();
    }
  }

  stats.wall_seconds = timer.seconds();
  record_load(stats, load);
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
  return dispatch_plan(tree, batch.lanes(), [&](auto lanes) {
    return run_plan_distributed_impl<decltype(lanes)::value>(g, tree, batch,
                                                             ranks, opts);
  });
}

}  // namespace ccbt
