#include "ccbt/engine/executor.hpp"

#include "ccbt/engine/interpreter.hpp"
#include "ccbt/engine/local_store.hpp"
#include "ccbt/util/timer.hpp"

namespace ccbt {

namespace {

template <int B>
ExecStats run_plan_impl(const ExecContext& outer_cx, const DecompTree& tree) {
  Timer timer;
  ExecStats stats;
  // Collect seal-time lane-layout observations through a context copy so
  // callers need no wiring (ExecContext is a bundle of references).
  ExecContext cx = outer_cx;
  cx.lane_telemetry = &stats.lanes;
  cx.stage = &stats.stage;
  cx.accum = &stats.accum;
  stats.lanes_used = cx.chi.lanes();
  TablePoolT<B> pool(tree.blocks.size(), cx.g.num_vertices(),
                     cx.opts.lane_compress, &stats.stage);
  LocalStore<B> store{cx, pool};
  run_blocks(store, tree, {}, stats);
  stats.wall_seconds = timer.seconds();
  if (cx.load != nullptr) record_load(stats, *cx.load);
  return stats;
}

}  // namespace

ExecStats run_plan(const ExecContext& cx, const DecompTree& tree) {
  return dispatch_plan(tree, cx.chi.lanes(), [&](auto lanes) {
    return run_plan_impl<decltype(lanes)::value>(cx, tree);
  });
}

}  // namespace ccbt
