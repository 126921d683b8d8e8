#pragma once
// The shared-memory TableStore of the plan interpreter (interpreter.hpp):
// whole ProjTables, solved child tables in a TablePool, and the join
// primitives of primitives.hpp.
//
// Pool and store are parameterized on the batch width B (the alias keeps
// the scalar name); the construction sequence itself is coloring
// independent, so all widths share it.

#include <utility>
#include <vector>

#include "ccbt/engine/exec_context.hpp"
#include "ccbt/engine/primitives.hpp"
#include "ccbt/table/proj_table.hpp"

namespace ccbt {

/// Solved child tables, sealed kByV0, with cached transposes. `domain`
/// (the data graph's vertex count) lets stored tables build their O(1)
/// bucket index at seal time. Stored tables are block results built by
/// from_map (cycle merges, leaf aggregation), so they are dense and the
/// joins probe them through group() / entries() directly. The
/// `compress` argument is unused; perfbench/trace.hpp still passes it
/// (ROADMAP item 1, benchmark debt).
template <int B>
class TablePoolT {
 public:
  explicit TablePoolT(std::size_t num_blocks, VertexId domain = 0,
                      bool /*compress*/ = true, StageWall* stage = nullptr)
      : tables_(num_blocks), domain_(domain), stage_(stage) {}

  void store(int block, ProjTableT<B> table) {
    {
      ScopedStage timed(stage_ == nullptr ? nullptr : &stage_->seal);
      table.seal(SortOrder::kByV0, domain_);
    }
    if (transposed_.empty()) {
      transposed_.resize(tables_.size());
      has_transposed_.resize(tables_.size(), false);
    }
    tables_[block] = std::move(table);
  }

  const ProjTableT<B>& get(int block) const { return tables_[block]; }

  /// The child table with slot 0 = `from`'s image; transposes lazily.
  const ProjTableT<B>& oriented(int block, bool transposed) {
    if (!transposed) return tables_[block];
    if (!has_transposed_[block]) {
      ScopedStage timed(stage_ == nullptr ? nullptr : &stage_->seal);
      ProjTableT<B> t = tables_[block].transposed();
      t.seal(SortOrder::kByV0, domain_);
      transposed_[block] = std::move(t);
      has_transposed_[block] = true;
    }
    return transposed_[block];
  }

 private:
  std::vector<ProjTableT<B>> tables_;
  std::vector<ProjTableT<B>> transposed_;  // lazily filled
  std::vector<bool> has_transposed_;
  VertexId domain_ = 0;
  StageWall* stage_ = nullptr;
};

using TablePool = TablePoolT<1>;

/// The shared-memory TableStore: each method is one primitive of
/// primitives.hpp; the checkpoint hooks do nothing.
template <int B>
struct LocalStore {
  using Table = ProjTableT<B>;
  using Sinks = AccumMapT<B>;
  static constexpr int kLanes = B;

  const ExecContext& cx;
  TablePoolT<B>& pool;

  Table init_from_graph(const ExtendOpts& o) {
    return init_path_from_graph<B>(cx, o);
  }
  Table init_from_child(const Table& child, const ExtendOpts& o) {
    return init_path_from_child<B>(cx, child, /*flip=*/false, o);
  }
  Table extend_with_graph(Table& path, const ExtendOpts& o) {
    return ccbt::extend_with_graph<B>(cx, path, o);
  }
  Table extend_with_child(Table& path, const Table& child,
                          const ExtendOpts& o) {
    return ccbt::extend_with_child<B>(cx, path, child, o);
  }
  Table node_join(const Table& path, const Table& child, int slot) {
    return ccbt::node_join<B>(cx, path, child, slot);
  }
  Table aggregate(const Table& t, int new_arity) {
    return ccbt::aggregate<B>(cx, t, new_arity);
  }

  Sinks new_sinks() const { return Sinks(16, cx.opts.compact_accum); }
  void merge_halves(Table& plus, Table& minus, const MergeSpec& spec,
                    Sinks& sink) {
    ccbt::merge_halves<B>(cx, plus, minus, spec, sink);
  }
  Table from_sinks(int arity, Sinks sink) {
    return Table::from_map(arity, std::move(sink));
  }

  const Table& get(int block) const { return pool.get(block); }
  const Table& oriented(int block, bool transposed) {
    return pool.oriented(block, transposed);
  }
  void store(int block, Table t) {
    pool.store(block, std::move(t));
    cx.note_lanes(pool.get(block).layout());
  }

  typename LaneOps<B>::Vec root_totals(const Table& t) const {
    return t.lane_totals();
  }
  void split_done(std::size_t, std::size_t, const Sinks&) {}
  void block_done(std::size_t) {}
};

}  // namespace ccbt
