#pragma once
// Benchmark debt (ROADMAP item 1): perfbench/trace.hpp walks cycle blocks
// itself through this header, calling splits_for, build_path(cx, blk,
// pool, spec) and merge_halves. The engines run the plan walk of
// interpreter.hpp; retire this header with the next benchmark change.

#include "ccbt/engine/interpreter.hpp"
#include "ccbt/engine/local_store.hpp"

namespace ccbt {

/// Build the projection table of one half-cycle path.
template <int B>
ProjTableT<B> build_path(const ExecContext& cx, const Block& blk,
                         TablePoolT<B>& pool, const PathSpec& spec) {
  LocalStore<B> s{cx, pool};
  return build_path(s, path_steps(blk, spec));
}

}  // namespace ccbt
