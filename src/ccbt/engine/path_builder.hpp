#pragma once
// Generic path-table construction over a cycle block (Fig 7): the
// shared-memory interpreter of path_steps (split_plan.hpp).
//
// Pool and builder are parameterized on the batch width B (the aliases
// keep the scalar names); the construction sequence itself is coloring
// independent, so all widths share it.

#include <vector>

#include "ccbt/decomp/block.hpp"
#include "ccbt/engine/exec_context.hpp"
#include "ccbt/engine/primitives.hpp"
#include "ccbt/engine/split_plan.hpp"
#include "ccbt/table/proj_table.hpp"
#include "ccbt/util/error.hpp"

namespace ccbt {

/// Solved child tables, sealed kByV0, with cached transposes. `domain`
/// (the data graph's vertex count) lets stored tables build their O(1)
/// bucket index at seal time. Stored tables are block results built by
/// from_map (cycle merges, leaf aggregation), so they are dense and the
/// joins probe them through group() / entries() directly. The
/// `compress` argument is unused; it stays for source compatibility.
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

  std::size_t total_entries() const {
    std::size_t sum = 0;
    for (const auto& t : tables_) sum += t.size();
    return sum;
  }

 private:
  std::vector<ProjTableT<B>> tables_;
  std::vector<ProjTableT<B>> transposed_;  // lazily filled
  std::vector<bool> has_transposed_;
  VertexId domain_ = 0;
  StageWall* stage_ = nullptr;
};

using TablePool = TablePoolT<1>;

/// Build a half-path table by running its steps (see path_steps).
template <int B>
ProjTableT<B> build_path(const ExecContext& cx, TablePoolT<B>& pool,
                         const std::vector<PathStep>& steps) {
  ProjTableT<B> table;
  for (const PathStep& st : steps) {
    const ExtendOpts opts = st.extend_opts();
    switch (st.op) {
      case PathStep::Op::kInit:
        table = st.child < 0
                    ? init_path_from_graph<B>(cx, opts)
                    : init_path_from_child<B>(
                          cx, pool.oriented(st.child, st.transposed),
                          /*flip=*/false, opts);
        break;
      case PathStep::Op::kNodeJoin:
        table = node_join<B>(cx, table, pool.get(st.child), st.slot);
        break;
      case PathStep::Op::kExtend:
        table = st.child < 0
                    ? extend_with_graph<B>(cx, table, opts)
                    : extend_with_child<B>(
                          cx, table, pool.oriented(st.child, st.transposed),
                          opts);
        break;
    }
  }
  return table;
}

/// Build the projection table of one half-cycle path.
template <int B>
ProjTableT<B> build_path(const ExecContext& cx, const Block& blk,
                         TablePoolT<B>& pool, const PathSpec& spec) {
  return build_path<B>(cx, pool, path_steps(blk, spec));
}

extern template ProjTableT<1> build_path<1>(const ExecContext&, const Block&,
                                            TablePoolT<1>&, const PathSpec&);
extern template ProjTableT<2> build_path<2>(const ExecContext&, const Block&,
                                            TablePoolT<2>&, const PathSpec&);
extern template ProjTableT<4> build_path<4>(const ExecContext&, const Block&,
                                            TablePoolT<4>&, const PathSpec&);
extern template ProjTableT<8> build_path<8>(const ExecContext&, const Block&,
                                            TablePoolT<8>&, const PathSpec&);
extern template ProjTableT<1> build_path<1>(
    const ExecContext&, TablePoolT<1>&, const std::vector<PathStep>&);
extern template ProjTableT<2> build_path<2>(
    const ExecContext&, TablePoolT<2>&, const std::vector<PathStep>&);
extern template ProjTableT<4> build_path<4>(
    const ExecContext&, TablePoolT<4>&, const std::vector<PathStep>&);
extern template ProjTableT<8> build_path<8>(
    const ExecContext&, TablePoolT<8>&, const std::vector<PathStep>&);

}  // namespace ccbt
