#include "ccbt/engine/split_plan.hpp"

#include <algorithm>
#include <utility>

#include "ccbt/util/error.hpp"

namespace ccbt {

bool needs_transpose(const Block& blk, int edge, bool forward) {
  return forward ? blk.edge_child_flip[edge] : !blk.edge_child_flip[edge];
}

std::vector<PathStep> path_steps(const Block& blk, const PathSpec& spec) {
  const std::size_t n = spec.positions.size();
  if (n < 2) {
    throw Error(ErrorCode::kUnsupportedQuery,
                "build_path: path needs at least one edge");
  }
  std::vector<PathStep> out;
  // Cross the walk's i-th edge, tracking the node it reaches.
  auto cross = [&](PathStep::Op op, std::size_t i) {
    const int e = spec.edge_index[i];
    PathStep st;
    st.op = op;
    st.child = blk.edge_child[e];
    st.transposed =
        st.child >= 0 && needs_transpose(blk, e, spec.edge_forward[i]);
    st.track_slot = spec.track_slot_at[i + 1];
    st.anchor_higher = spec.anchor_higher;
    out.push_back(st);
  };
  // NodeJoin the annotation of the walk's i-th position, if it has one.
  auto join = [&](std::size_t i, int slot) {
    const int child = blk.node_child[spec.positions[i]];
    if (child < 0) return;
    PathStep st;
    st.op = PathStep::Op::kNodeJoin;
    st.child = child;
    st.slot = slot;
    out.push_back(st);
  };

  cross(PathStep::Op::kInit, 0);
  if (spec.include_start_annot) join(0, /*slot=*/0);
  // Walk: NodeJoin at each reached position, then extend (Fig 7).
  for (std::size_t i = 1; i < n; ++i) {
    const bool is_end = (i + 1 == n);
    if (!is_end || spec.include_end_annot) join(i, /*slot=*/1);
    if (!is_end) cross(PathStep::Op::kExtend, i);
  }
  return out;
}

std::vector<PathStep> leaf_steps(const Block& blk) {
  if (blk.kind != BlockKind::kLeafEdge) {
    throw Error(ErrorCode::kUnsupportedQuery,
                "leaf_steps: not a leaf-edge block");
  }
  PathStep init;
  init.child = blk.edge_child[0];
  init.transposed = init.child >= 0 && blk.edge_child_flip[0];
  std::vector<PathStep> out{init};
  for (const int slot : {1, 0}) {
    if (blk.node_child[slot] < 0) continue;
    PathStep st;
    st.op = PathStep::Op::kNodeJoin;
    st.child = blk.node_child[slot];
    st.slot = slot;
    out.push_back(st);
  }
  return out;
}

SplitPlan make_split(const Block& blk, int s, int e, bool anchor_higher) {
  const int L = blk.length();
  auto wrap = [L](int x) { return ((x % L) + L) % L; };

  SplitPlan plan;
  plan.plus.anchor_higher = anchor_higher;
  plan.minus.anchor_higher = anchor_higher;
  plan.plus.include_end_annot = true;     // P+ owns the end's annotation
  plan.minus.include_start_annot = true;  // P- owns the anchor's annotation

  const int len_plus = wrap(e - s);
  const int len_minus = L - len_plus;
  for (int i = 0; i <= len_plus; ++i) {
    plan.plus.positions.push_back(wrap(s + i));
    if (i < len_plus) {
      plan.plus.edge_index.push_back(wrap(s + i));
      plan.plus.edge_forward.push_back(true);
    }
  }
  for (int i = 0; i <= len_minus; ++i) {
    plan.minus.positions.push_back(wrap(s - i));
    if (i < len_minus) {
      plan.minus.edge_index.push_back(wrap(s - i - 1));
      plan.minus.edge_forward.push_back(false);
    }
  }
  plan.plus.track_slot_at.assign(plan.plus.positions.size(), -1);
  plan.minus.track_slot_at.assign(plan.minus.positions.size(), -1);

  // Boundary images in the output key, in the block's stored order.
  // Interior boundaries are tracked in walk order (a walk's first tracked
  // node takes slot 2, its second slot 3), so walks that visit the same
  // positions issue the same steps and schedule_for can share them.
  plan.merge.out_arity = blk.boundary_count();
  std::array<std::vector<std::pair<std::size_t, int>>, 2> tracked;
  for (int b = 0; b < blk.boundary_count(); ++b) {
    const int p = blk.boundary_pos[b];
    if (p == s) {
      plan.merge.out[b] = {0, 0};
      continue;
    }
    if (p == e) {
      plan.merge.out[b] = {0, 1};
      continue;
    }
    // Interior: find it on one of the walks.
    auto locate = [&](const PathSpec& spec, int side) -> bool {
      for (std::size_t i = 1; i + 1 < spec.positions.size(); ++i) {
        if (spec.positions[i] == p) {
          tracked[side].emplace_back(i, b);
          return true;
        }
      }
      return false;
    };
    if (!locate(plan.plus, 0) && !locate(plan.minus, 1)) {
      throw Error("make_split: boundary position not on either path");
    }
  }
  for (int side = 0; side < 2; ++side) {
    PathSpec& spec = side == 0 ? plan.plus : plan.minus;
    std::sort(tracked[side].begin(), tracked[side].end());
    int slot = 2;
    for (const auto& [i, b] : tracked[side]) {
      spec.track_slot_at[i] = slot;
      plan.merge.out[b] = {side, slot};
      ++slot;
    }
  }
  return plan;
}

std::vector<SplitPlan> splits_for(const Block& blk, Algo algo) {
  if (blk.kind != BlockKind::kCycle || blk.length() < 3) {
    throw Error("splits_for: not a cycle block");
  }
  const int L = blk.length();
  auto wrap = [L](int x) { return ((x % L) + L) % L; };
  const auto& bp = blk.boundary_pos;
  std::vector<SplitPlan> out;

  switch (algo) {
    case Algo::kPS: {
      // Baseline: split at the boundary nodes themselves (Fig 4); for one
      // or zero boundaries, split at the boundary (or position 0) and its
      // diagonal, then let the merge spec project the diagonal away.
      const int s = bp.empty() ? 0 : bp[0];
      const int e = (bp.size() == 2) ? bp[1] : wrap(s + L / 2);
      out.push_back(make_split(blk, s, e, false));
      break;
    }
    case Algo::kPSEven: {
      // Ablation (Section 5.1 discussion): always split evenly at the
      // first boundary's diagonal, recording interior boundaries.
      const int s = bp.empty() ? 0 : bp[0];
      const int e = wrap(s + L / 2);
      out.push_back(make_split(blk, s, e, false));
      break;
    }
    case Algo::kDB: {
      // Degree-based: partition matches by the highest cycle node h
      // (Eq. 1), split at (h, diag(h)), count only high-starting paths.
      for (int h = 0; h < L; ++h) {
        out.push_back(make_split(blk, h, wrap(h + L / 2), true));
      }
      break;
    }
  }
  return out;
}

CycleSchedule schedule_for(const Block& blk, Algo algo) {
  std::vector<SplitPlan> natural = splits_for(blk, algo);
  const std::size_t n = natural.size();

  // Number the distinct step lists in splits_for order.
  std::vector<std::vector<PathStep>> lists;
  auto id_of = [&](const PathSpec& spec) {
    std::vector<PathStep> steps = path_steps(blk, spec);
    const auto it = std::find(lists.begin(), lists.end(), steps);
    if (it != lists.end()) return static_cast<int>(it - lists.begin());
    lists.push_back(std::move(steps));
    return static_cast<int>(lists.size() - 1);
  };
  std::vector<std::array<int, 2>> ids(n);
  std::vector<int> uses_left;
  for (std::size_t i = 0; i < n; ++i) {
    ids[i] = {id_of(natural[i].plus), id_of(natural[i].minus)};
    uses_left.resize(lists.size(), 0);
    ++uses_left[ids[i][0]];
    ++uses_left[ids[i][1]];
  }

  // Greedy order: run next the split with the most halves already live,
  // so shared halves are merged while built and freed early.
  CycleSchedule out;
  std::vector<bool> live(lists.size(), false);
  std::vector<bool> done(n, false);
  std::vector<int> renumber(lists.size(), -1);
  for (std::size_t t = 0; t < n; ++t) {
    std::size_t best = n;
    int best_live = -1;
    for (std::size_t i = 0; i < n; ++i) {
      if (done[i]) continue;
      const int l = live[ids[i][0]] + live[ids[i][1]];
      if (l > best_live) {
        best = i;
        best_live = l;
      }
    }
    done[best] = true;
    std::array<int, 2> halves{};
    for (int side = 0; side < 2; ++side) {
      const int id = ids[best][side];
      if (renumber[id] < 0) {
        renumber[id] = static_cast<int>(out.steps.size());
        out.steps.push_back(lists[id]);
        out.last_use.push_back(t);
      }
      halves[side] = renumber[id];
      out.last_use[renumber[id]] = t;
      live[id] = --uses_left[id] > 0;
    }
    out.splits.push_back(std::move(natural[best]));
    out.halves.push_back(halves);
  }
  return out;
}

std::size_t CycleSchedule::peak_live() const {
  // Ids are numbered by first use, so the ids built by split t are those
  // below one past the largest id seen so far.
  std::size_t peak = 0;
  std::size_t built = 0;
  for (std::size_t t = 0; t < halves.size(); ++t) {
    for (int id : halves[t]) {
      built = std::max(built, static_cast<std::size_t>(id) + 1);
    }
    std::size_t live = 0;
    for (std::size_t id = 0; id < built; ++id) live += last_use[id] >= t;
    peak = std::max(peak, live);
  }
  return peak;
}

}  // namespace ccbt
