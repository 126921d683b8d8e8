// Unit tests for the shared cycle-split planner (split_plan.hpp): the
// geometry both engines rely on, and the schedule that shares equal
// half-path tables across a block's splits.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "ccbt/decomp/plan.hpp"
#include "ccbt/engine/split_plan.hpp"
#include "ccbt/query/catalog.hpp"
#include "ccbt/util/error.hpp"

namespace ccbt {
namespace {

/// A bare cycle block of length L with boundary node positions `bp`.
Block cycle_block(int length, std::vector<int> bp) {
  Block b;
  b.kind = BlockKind::kCycle;
  for (int i = 0; i < length; ++i) b.nodes.push_back(static_cast<QNode>(i));
  b.boundary_pos = std::move(bp);
  b.node_child.assign(length, -1);
  b.edge_child.assign(length, -1);
  b.edge_child_flip.assign(length, false);
  return b;
}

TEST(SplitPlan, WalksCoverTheWholeCycleExactlyOnce) {
  for (int L : {3, 4, 5, 6, 7, 8}) {
    const Block b = cycle_block(L, {0, 1});
    for (int s = 0; s < L; ++s) {
      for (int e = 0; e < L; ++e) {
        if (e == s) continue;
        const SplitPlan plan = make_split(b, s, e, false);
        // Both walks start at s and end at e.
        EXPECT_EQ(plan.plus.positions.front(), s);
        EXPECT_EQ(plan.plus.positions.back(), e);
        EXPECT_EQ(plan.minus.positions.front(), s);
        EXPECT_EQ(plan.minus.positions.back(), e);
        // Interior positions partition the rest of the cycle.
        std::vector<int> seen(L, 0);
        for (int p : plan.plus.positions) ++seen[p];
        for (int p : plan.minus.positions) ++seen[p];
        for (int p = 0; p < L; ++p) {
          EXPECT_EQ(seen[p], (p == s || p == e) ? 2 : 1)
              << "L=" << L << " s=" << s << " e=" << e << " p=" << p;
        }
        // Each walk crosses one edge per step; together all L edges.
        EXPECT_EQ(plan.plus.edge_index.size() + plan.minus.edge_index.size(),
                  static_cast<std::size_t>(L));
      }
    }
  }
}

TEST(SplitPlan, AnnotationOwnershipIsExclusive) {
  const Block b = cycle_block(5, {0, 2});
  const SplitPlan plan = make_split(b, 1, 3, true);
  // P+ owns the end's node annotation, P- the anchor's: never both.
  EXPECT_TRUE(plan.plus.include_end_annot);
  EXPECT_FALSE(plan.plus.include_start_annot);
  EXPECT_TRUE(plan.minus.include_start_annot);
  EXPECT_FALSE(plan.minus.include_end_annot);
}

TEST(SplitPlan, BoundaryAtAnchorAndEndMapToPrimarySlots) {
  const Block b = cycle_block(6, {1, 4});
  const SplitPlan plan = make_split(b, 1, 4, false);
  EXPECT_EQ(plan.merge.out_arity, 2);
  EXPECT_EQ(plan.merge.out[0].side, 0);
  EXPECT_EQ(plan.merge.out[0].slot, 0);  // boundary 1 == anchor
  EXPECT_EQ(plan.merge.out[1].side, 0);
  EXPECT_EQ(plan.merge.out[1].slot, 1);  // boundary 4 == end
}

TEST(SplitPlan, InteriorBoundariesGetTrackedSlots) {
  // Split a 6-cycle with boundaries {0, 3} at (1, 4): both boundaries
  // fall inside the walks and must be tracked in slots >= 2.
  const Block b = cycle_block(6, {0, 3});
  const SplitPlan plan = make_split(b, 1, 4, true);
  for (int bi = 0; bi < 2; ++bi) {
    EXPECT_GE(plan.merge.out[bi].slot, 2) << bi;
  }
  // The tracked positions really are the boundary positions.
  auto tracked = [](const PathSpec& spec, int pos) {
    for (std::size_t i = 0; i < spec.positions.size(); ++i) {
      if (spec.positions[i] == pos && spec.track_slot_at[i] >= 2) return true;
    }
    return false;
  };
  EXPECT_TRUE(tracked(plan.plus, 0) || tracked(plan.minus, 0));
  EXPECT_TRUE(tracked(plan.plus, 3) || tracked(plan.minus, 3));
}

TEST(SplitPlan, DbEnumeratesEveryAnchor) {
  const Block b = cycle_block(7, {0});
  EXPECT_EQ(splits_for(b, Algo::kDB).size(), 7u);
  EXPECT_EQ(splits_for(b, Algo::kPS).size(), 1u);
  EXPECT_EQ(splits_for(b, Algo::kPSEven).size(), 1u);
  for (const SplitPlan& p : splits_for(b, Algo::kDB)) {
    EXPECT_TRUE(p.plus.anchor_higher);
    EXPECT_TRUE(p.minus.anchor_higher);
  }
}

TEST(SplitPlan, PsSplitsAtBoundaries) {
  const Block b = cycle_block(8, {2, 5});
  const auto splits = splits_for(b, Algo::kPS);
  ASSERT_EQ(splits.size(), 1u);
  EXPECT_EQ(splits[0].plus.positions.front(), 2);
  EXPECT_EQ(splits[0].plus.positions.back(), 5);
  EXPECT_FALSE(splits[0].plus.anchor_higher);
}

TEST(SplitPlan, PsEvenSplitsAtDiagonal) {
  const Block b = cycle_block(8, {2, 5});
  const auto splits = splits_for(b, Algo::kPSEven);
  ASSERT_EQ(splits.size(), 1u);
  EXPECT_EQ(splits[0].plus.positions.front(), 2);
  EXPECT_EQ(splits[0].plus.positions.back(), 6);  // 2 + 8/2
}

TEST(SplitPlan, RejectsNonCycles) {
  Block leaf;
  leaf.kind = BlockKind::kLeafEdge;
  leaf.nodes = {0, 1};
  EXPECT_THROW(splits_for(leaf, Algo::kDB), Error);
  EXPECT_THROW(schedule_for(leaf, Algo::kDB), Error);
}

TEST(SplitPlan, TrackedSlotsFollowWalkOrder) {
  // Split a 6-cycle with boundaries {0, 1} at (5, 2): the plus walk
  // 5 -> 0 -> 1 -> 2 meets boundary 0 first, so it takes slot 2.
  const Block b = cycle_block(6, {0, 1});
  const SplitPlan plan = make_split(b, 5, 2, true);
  EXPECT_EQ(plan.plus.track_slot_at, (std::vector<int>{-1, 2, 3, -1}));
  EXPECT_EQ(plan.merge.out[0].slot, 2);
  EXPECT_EQ(plan.merge.out[1].slot, 3);
  // At (2, 5) the minus walk 2 -> 1 -> 0 -> 5 meets boundary 1 first.
  const SplitPlan back = make_split(b, 2, 5, true);
  EXPECT_EQ(back.minus.track_slot_at, (std::vector<int>{-1, 2, 3, -1}));
  EXPECT_EQ(back.merge.out[0].slot, 3);
  EXPECT_EQ(back.merge.out[1].slot, 2);
  EXPECT_EQ(path_steps(b, plan.plus), path_steps(b, back.minus));
}

TEST(SplitPlan, PathStepsFollowTheWalk) {
  // P- of a 5-cycle owns the anchor's annotation (slot 0), P+ the end's.
  Block b = cycle_block(5, {});
  b.node_child[0] = 7;
  b.node_child[2] = 8;
  b.edge_child[0] = 9;  // stored 0 -> 1
  const SplitPlan plan = make_split(b, 0, 2, true);
  const std::vector<PathStep> plus = path_steps(b, plan.plus);
  ASSERT_EQ(plus.size(), 3u);
  EXPECT_EQ(plus[0].op, PathStep::Op::kInit);
  EXPECT_EQ(plus[0].child, 9);
  EXPECT_FALSE(plus[0].transposed);
  EXPECT_TRUE(plus[0].anchor_higher);
  EXPECT_EQ(plus[1].op, PathStep::Op::kExtend);
  EXPECT_EQ(plus[1].child, -1);
  EXPECT_EQ(plus[2].op, PathStep::Op::kNodeJoin);
  EXPECT_EQ(plus[2].child, 8);
  EXPECT_EQ(plus[2].slot, 1);
  const std::vector<PathStep> minus = path_steps(b, plan.minus);
  ASSERT_EQ(minus.size(), 4u);  // 0 -> 4 -> 3 -> 2, end annotation not owned
  EXPECT_EQ(minus[0].op, PathStep::Op::kInit);
  EXPECT_EQ(minus[1].op, PathStep::Op::kNodeJoin);
  EXPECT_EQ(minus[1].child, 7);
  EXPECT_EQ(minus[1].slot, 0);
  EXPECT_EQ(minus[2].op, PathStep::Op::kExtend);
  EXPECT_EQ(minus[3].op, PathStep::Op::kExtend);
  // Walking edge 0 against its storage direction reads the transpose.
  const SplitPlan rev = make_split(b, 1, 3, true);
  EXPECT_TRUE(path_steps(b, rev.minus)[0].transposed);
}

// --- schedule_for: one table per distinct half.

const Block& root_block(const Plan& plan) {
  return plan.tree.blocks[plan.tree.root];
}

const Block& inner_cycle(const Plan& plan) {
  for (std::size_t i = 0; i < plan.tree.blocks.size(); ++i) {
    const Block& b = plan.tree.blocks[i];
    if (b.kind == BlockKind::kCycle &&
        static_cast<int>(i) != plan.tree.root) {
      return b;
    }
  }
  throw Error("no inner cycle block");
}

struct Shape {
  std::size_t distinct, halves, peak_live;
};

Shape shape(const Block& b) {
  const CycleSchedule s = schedule_for(b, Algo::kDB);
  return {s.steps.size(), 2 * s.splits.size(), s.peak_live()};
}

TEST(SplitSchedule, DbBuildsEachDistinctHalfOnce) {
  const Plan ecoli2 = make_plan(named_query("ecoli2"));
  const Plan dros = make_plan(named_query("dros"));
  const Plan c5 = make_plan(q_cycle(5));
  const Plan brain3 = make_plan(named_query("brain3"));
  struct Case {
    const char* what;
    Shape got;
    Shape want;
  };
  for (const Case& c : {
           Case{"ecoli2 root", shape(root_block(ecoli2)), {5, 12, 2}},
           Case{"dros root", shape(root_block(dros)), {7, 10, 2}},
           Case{"C5", shape(root_block(c5)), {2, 10, 2}},
           Case{"brain3 inner", shape(inner_cycle(brain3)), {4, 12, 2}},
           Case{"brain3 outer", shape(root_block(brain3)), {7, 12, 2}},
       }) {
    EXPECT_EQ(c.got.distinct, c.want.distinct) << c.what;
    EXPECT_EQ(c.got.halves, c.want.halves) << c.what;
    EXPECT_EQ(c.got.peak_live, c.want.peak_live) << c.what;
  }
}

TEST(SplitSchedule, EqualIdsIffEqualSteps) {
  for (const std::string& name : catalog_names()) {
    const Plan plan = make_plan(named_query(name));
    for (const Block& b : plan.tree.blocks) {
      if (b.kind != BlockKind::kCycle) continue;
      for (Algo algo : {Algo::kPS, Algo::kPSEven, Algo::kDB}) {
        SCOPED_TRACE(name + " " + algo_name(algo));
        const CycleSchedule s = schedule_for(b, algo);
        ASSERT_EQ(s.splits.size(), splits_for(b, algo).size());
        ASSERT_EQ(s.halves.size(), s.splits.size());
        ASSERT_EQ(s.last_use.size(), s.steps.size());
        std::vector<std::vector<PathStep>> half_steps;
        std::vector<int> half_ids;
        int next_new = 0;
        for (std::size_t t = 0; t < s.splits.size(); ++t) {
          const PathSpec* specs[2] = {&s.splits[t].plus, &s.splits[t].minus};
          for (int side = 0; side < 2; ++side) {
            const int id = s.halves[t][side];
            ASSERT_GE(id, 0);
            ASSERT_LT(id, static_cast<int>(s.steps.size()));
            // Ids are numbered by first use, and each id's last use is the
            // last split naming it.
            EXPECT_LE(id, next_new);
            next_new = std::max(next_new, id + 1);
            EXPECT_GE(s.last_use[id], t);
            half_steps.push_back(path_steps(b, *specs[side]));
            half_ids.push_back(id);
            EXPECT_EQ(half_steps.back(), s.steps[id]);
          }
        }
        for (std::size_t id = 0; id < s.steps.size(); ++id) {
          const std::size_t t = s.last_use[id];
          EXPECT_TRUE(s.halves[t][0] == static_cast<int>(id) ||
                      s.halves[t][1] == static_cast<int>(id));
        }
        for (std::size_t i = 0; i < half_ids.size(); ++i) {
          for (std::size_t j = 0; j < half_ids.size(); ++j) {
            EXPECT_EQ(half_ids[i] == half_ids[j],
                      half_steps[i] == half_steps[j]);
          }
        }
      }
    }
  }
}

TEST(SplitSchedule, GreedyOrderRunsSplitsWithLiveHalvesFirst) {
  // A bare C5 has one short and one long DB half: the first split builds
  // both, and every later one reuses them.
  const CycleSchedule s = schedule_for(cycle_block(5, {}), Algo::kDB);
  ASSERT_EQ(s.splits.size(), 5u);
  for (const auto& h : s.halves) {
    EXPECT_EQ(h[0], 0);
    EXPECT_EQ(h[1], 1);
  }
  EXPECT_EQ(s.last_use, (std::vector<std::size_t>{4, 4}));
  // An even bare cycle's halves are one walk: one table merged with
  // itself.
  const CycleSchedule even = schedule_for(cycle_block(4, {}), Algo::kPS);
  ASSERT_EQ(even.steps.size(), 1u);
  EXPECT_EQ(even.halves[0][0], even.halves[0][1]);
}

}  // namespace
}  // namespace ccbt
