#pragma once
// Cycle split plans and the step lists of half-path walks and leaf edges,
// which the plan interpreter (interpreter.hpp) runs for both engines.
//
// A SplitPlan lays out the two half-cycle walks for a split at (anchor s,
// end e) together with the merge spec that projects the block's boundary
// images out of the path keys (anchor -> slot 0, end -> slot 1, interior
// boundary -> tracked slot on whichever path contains it). Section 5
// defines the split choices: PS splits at the boundary nodes, PS-EVEN and
// DB split a node against its diagonal; DB additionally enumerates every
// anchor choice and restricts to high-starting paths.
//
// path_steps turns a walk into the list of primitives that build its
// table. Two halves with equal step lists are the same table, so
// schedule_for orders a block's splits and numbers their distinct halves:
// a solver builds each distinct half once per block (DB's L anchor choices
// repeat most of their halves), merges it into every split that names it,
// and frees it after its last use.

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "ccbt/decomp/block.hpp"
#include "ccbt/engine/exec_context.hpp"
#include "ccbt/engine/primitives.hpp"

namespace ccbt {

/// One half of a split cycle (Fig 7): the sequence of node positions from
/// the anchor to the end, which cycle edge is crossed at each step (and in
/// which storage direction), which positions must be *tracked* into extra
/// key slots (interior boundary nodes of the DB configurations), and which
/// of the two shared endpoints' annotations this path owns (P+ owns the
/// end's, P- owns the anchor's — Section 5.2).
struct PathSpec {
  /// Positions (indices into Block::nodes) visited, anchor first.
  std::vector<int> positions;

  /// edge_index[i] is the block edge crossed between positions[i] and
  /// positions[i+1]; edge_forward[i] is true when that walk direction
  /// matches the edge's storage direction nodes[e] -> nodes[e+1].
  std::vector<int> edge_index;
  std::vector<bool> edge_forward;

  /// track_slot_at[i] >= 2: record positions[i]'s image in that key slot.
  std::vector<int> track_slot_at;

  bool include_start_annot = false;  // NodeJoin(anchor) — P- owns it
  bool include_end_annot = false;    // NodeJoin(end)    — P+ owns it
  bool anchor_higher = false;        // DB: anchor ≻ every cycle vertex
};

/// One primitive of a half-path walk. The first step is an init; then
/// node joins and extends follow in walk order.
struct PathStep {
  enum class Op : std::uint8_t { kInit, kNodeJoin, kExtend };
  Op op = Op::kInit;

  /// The child block the step reads; -1 = the data graph (init and extend
  /// only — a node join always reads a child).
  int child = -1;

  /// Init / extend by a child: read the child's transposed table.
  bool transposed = false;

  /// Node join: the path slot probed (0 = anchor, 1 = frontier).
  int slot = 1;

  /// Init / extend: the ExtendOpts of the step.
  int track_slot = -1;
  bool anchor_higher = false;

  ExtendOpts extend_opts() const { return {track_slot, anchor_higher}; }
  bool operator==(const PathStep&) const = default;
};

struct SplitPlan {
  PathSpec plus;
  PathSpec minus;
  MergeSpec merge;
};

/// Whether crossing edge `e` in walk direction `forward` needs the child's
/// transposed table: the child's first boundary must be the node the walk
/// leaves from.
bool needs_transpose(const Block& blk, int edge, bool forward);

/// The primitives that build `spec`'s table, in order.
std::vector<PathStep> path_steps(const Block& blk, const PathSpec& spec);

/// The primitives that build a leaf-edge block's binary table, keyed
/// (π(a) = slot 0, π(b) = slot 1) for boundary node a and leaf b: init
/// from the graph or the edge's child, then node joins of b's and a's
/// annotations. Throws Error(kUnsupportedQuery) for any other block.
std::vector<PathStep> leaf_steps(const Block& blk);

/// Split `blk` at anchor position s and end position e; `anchor_higher`
/// imposes the DB high-starting constraint on both walks.
SplitPlan make_split(const Block& blk, int s, int e, bool anchor_higher);

/// The sequence of splits an algorithm solves for this block: one split
/// for PS/PS-EVEN, L splits (one per anchor choice, Eq. 1) for DB.
std::vector<SplitPlan> splits_for(const Block& blk, Algo algo);

/// The order in which a solver runs a block's splits, and the distinct
/// half-path tables they merge.
struct CycleSchedule {
  /// splits_for's splits, reordered greedily: the next split is the one
  /// with the most halves already live (ties: splits_for order).
  std::vector<SplitPlan> splits;

  /// Per split: the path ids of its {plus, minus} halves. Equal ids mean
  /// equal step lists; ids are numbered in order of first use.
  std::vector<std::array<int, 2>> halves;

  /// Per path id: its step list, and the index of the last split using it.
  std::vector<std::vector<PathStep>> steps;
  std::vector<std::size_t> last_use;

  /// The most path tables live at once (built and not yet past last use).
  std::size_t peak_live() const;
};

CycleSchedule schedule_for(const Block& blk, Algo algo);

}  // namespace ccbt
