#pragma once
// Cycle-block solving (Section 5): PS, PS-EVEN and DB strategies.

#include <vector>

#include "ccbt/decomp/block.hpp"
#include "ccbt/engine/path_builder.hpp"
#include "ccbt/engine/split_plan.hpp"

namespace ccbt {

/// Compute the projection table of a (possibly annotated) cycle block.
/// Output arity equals the block's boundary count; keys are ordered
/// (nodes[boundary_pos[0]], nodes[boundary_pos[1]]). Runs the splits in
/// schedule_for's order, building each distinct half once and freeing it
/// after its last use; `counts` tallies the builds and reuses.
template <int B>
ProjTableT<B> solve_cycle(const ExecContext& cx, const Block& blk,
                          TablePoolT<B>& pool, PathCounts& counts) {
  const CycleSchedule sched = schedule_for(blk, cx.opts.algo);
  std::vector<ProjTableT<B>> live(sched.steps.size());
  std::vector<bool> built(sched.steps.size(), false);
  AccumMapT<B> sink(16, cx.opts.compact_accum);
  for (std::size_t t = 0; t < sched.splits.size(); ++t) {
    for (int id : sched.halves[t]) {
      if (built[id]) {
        ++counts.reuses;
        continue;
      }
      live[id] = build_path<B>(cx, pool, sched.steps[id]);
      built[id] = true;
      ++counts.builds;
    }
    const auto [plus, minus] = sched.halves[t];
    merge_halves<B>(cx, live[plus], live[minus], sched.splits[t].merge, sink);
    for (int id : sched.halves[t]) {
      if (sched.last_use[id] == t) live[id] = ProjTableT<B>();
    }
  }
  // The merge spec emitted exactly the boundary slots, so the accumulated
  // keys already project to the block's boundary images.
  return ProjTableT<B>::from_map(blk.boundary_count(), std::move(sink));
}

extern template ProjTableT<1> solve_cycle<1>(const ExecContext&, const Block&,
                                             TablePoolT<1>&, PathCounts&);
extern template ProjTableT<2> solve_cycle<2>(const ExecContext&, const Block&,
                                             TablePoolT<2>&, PathCounts&);
extern template ProjTableT<4> solve_cycle<4>(const ExecContext&, const Block&,
                                             TablePoolT<4>&, PathCounts&);
extern template ProjTableT<8> solve_cycle<8>(const ExecContext&, const Block&,
                                             TablePoolT<8>&, PathCounts&);

}  // namespace ccbt
