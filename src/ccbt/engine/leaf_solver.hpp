#pragma once
// Benchmark debt (ROADMAP item 1): perfbench/trace.hpp solves leaf-edge
// blocks through this header. The engines run solve_leaf_edge of
// interpreter.hpp; retire this header with the next benchmark change.

#include "ccbt/engine/interpreter.hpp"
#include "ccbt/engine/local_store.hpp"

namespace ccbt {

/// Compute the unary projection table of a leaf-edge block, keyed by the
/// image of its boundary node.
template <int B>
ProjTableT<B> solve_leaf_edge(const ExecContext& cx, const Block& blk,
                              TablePoolT<B>& pool) {
  LocalStore<B> s{cx, pool};
  return solve_leaf_edge(s, blk);
}

}  // namespace ccbt
