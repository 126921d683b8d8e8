// Plan explorer: shows the Section 4 decomposition and the Section 6 plan
// heuristic at work. For each named query it prints every decomposition
// tree (blocks, cycle lengths, boundary counts, annotations) and marks
// the heuristic's choice — the Figure 2 walk-through, programmatically.
// For the chosen plan it then prints each cycle block's DB splits in the
// order the engines run them, and the distinct half paths they share.
//
// Build & run:  ./examples/plan_explorer

#include <iostream>
#include <string>

#include "ccbt/core/ccbt.hpp"
#include "ccbt/decomp/decompose.hpp"
#include "ccbt/engine/split_plan.hpp"

namespace {

using namespace ccbt;

const char* kind_name(BlockKind k) {
  switch (k) {
    case BlockKind::kLeafEdge: return "leaf-edge";
    case BlockKind::kCycle: return "cycle";
    case BlockKind::kSingleton: return "singleton";
  }
  return "?";
}

void describe(const DecompTree& tree) {
  for (std::size_t i = 0; i < tree.blocks.size(); ++i) {
    const Block& b = tree.blocks[i];
    std::cout << "    B" << i << ": " << kind_name(b.kind);
    if (b.kind == BlockKind::kCycle) {
      std::cout << " length " << b.length() << ", " << b.boundary_count()
                << " boundary node(s)";
    }
    std::cout << ", nodes {";
    for (std::size_t j = 0; j < b.nodes.size(); ++j) {
      std::cout << (j ? "," : "") << int(b.nodes[j]);
    }
    std::cout << "}";
    int annotations = 0;
    for (int c : b.node_child) annotations += (c >= 0);
    for (int c : b.edge_child) annotations += (c >= 0);
    if (annotations > 0) std::cout << ", " << annotations << " annotation(s)";
    if (static_cast<int>(i) == tree.root) std::cout << "  <- root";
    std::cout << "\n";
  }
}

void print_step(const PathStep& st) {
  if (st.op == PathStep::Op::kNodeJoin) {
    std::cout << " join(B" << st.child << ", slot " << st.slot;
  } else {
    std::cout << (st.op == PathStep::Op::kInit ? " init(" : " extend(")
              << (st.child < 0 ? std::string("graph")
                               : "B" + std::to_string(st.child))
              << (st.transposed ? "^T" : "");
  }
  if (st.track_slot >= 0) std::cout << ", track " << st.track_slot;
  std::cout << ")";
}

void describe_schedules(const DecompTree& tree) {
  for (std::size_t i = 0; i < tree.blocks.size(); ++i) {
    const Block& b = tree.blocks[i];
    if (b.kind != BlockKind::kCycle) continue;
    const CycleSchedule s = schedule_for(b, Algo::kDB);
    std::cout << "    B" << i << ": " << s.splits.size() << " DB splits, "
              << 2 * s.splits.size() << " halves, " << s.steps.size()
              << " distinct, at most " << s.peak_live() << " live\n";
    for (std::size_t t = 0; t < s.splits.size(); ++t) {
      const PathSpec& plus = s.splits[t].plus;
      std::cout << "      split " << t << ": anchor "
                << int(b.nodes[plus.positions.front()]) << ", end "
                << int(b.nodes[plus.positions.back()]) << " -> halves "
                << s.halves[t][0] << " + " << s.halves[t][1] << "\n";
    }
    for (std::size_t id = 0; id < s.steps.size(); ++id) {
      std::cout << "      half " << id << " (last used by split "
                << s.last_use[id] << "):";
      for (const PathStep& st : s.steps[id]) print_step(st);
      std::cout << "\n";
    }
  }
}

}  // namespace

int main() {
  using namespace ccbt;

  for (const char* name :
       {"satellite", "brain1", "brain2", "brain3", "glet2", "ecoli2"}) {
    const QueryGraph q = named_query(name);
    std::cout << "=== query '" << name << "' (" << q.num_nodes()
              << " nodes, " << q.num_edges() << " edges) ===\n";
    const Plan chosen = make_plan(q);
    const std::string chosen_canon =
        Contractor::canonical_string(chosen.tree);
    const auto plans = enumerate_plans(q);
    std::cout << plans.size() << " decomposition tree(s):\n";
    for (std::size_t p = 0; p < plans.size(); ++p) {
      const bool is_chosen =
          Contractor::canonical_string(plans[p].tree) == chosen_canon;
      std::cout << "  plan " << p << " [longest cycle "
                << plans[p].features.longest_cycle << ", boundary "
                << plans[p].features.total_boundary << ", annotations "
                << plans[p].features.total_annotations << "]"
                << (is_chosen ? "  ** heuristic choice **" : "") << "\n";
      describe(plans[p].tree);
    }
    std::cout << "DB schedule of the heuristic choice (each distinct half "
                 "is built once per block):\n";
    describe_schedules(chosen.tree);
    std::cout << "\n";
  }
  std::cout << "The heuristic prefers (i) the shortest longest-cycle, then\n"
            << "(ii) fewest boundary nodes, then (iii) fewest annotations\n"
            << "(Section 6); Figure 14's bench measures how close this is\n"
            << "to the measured-optimal plan.\n";
  return 0;
}
