#pragma once
// DistTable: a projection table physically sharded across virtual ranks.
//
// Section 7: every entry (u, v, α) is owned by the rank owning the vertex
// in its *home slot* (slot 1 = the frontier while a path table is being
// extended; slot 0 once a block table is stored for child lookups). A
// DistTable is the union of per-rank ProjTable shards; a table is "well
// placed" when every entry sits on the owner of its home-slot vertex.
//
// Movement between placements (resharding, transposition) happens through
// VirtualComm supersteps, so the transport statistics account for it.
//
// Parameterized on the batch width B: shards hold lane-indexed entries
// and every superstep serializes whole lane-count vectors, so a batched
// distributed run moves one message per signature-blocked row.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ccbt/dist/comm.hpp"
#include "ccbt/graph/partition.hpp"
#include "ccbt/table/proj_table.hpp"
#include "ccbt/util/error.hpp"

namespace ccbt {

template <int B>
class DistTableT {
 public:
  using Entry = TableEntryT<B>;
  using Vec = typename LaneOps<B>::Vec;

  DistTableT() = default;

  /// Drain every rank's inbox (as delivered by the last exchange) into
  /// its shard, accumulating duplicate keys, and seal each shard in
  /// `order` (`domain` enables the shards' O(1) bucket index). Throws
  /// BudgetExceeded when the total entry count exceeds `budget`.
  ///
  /// Batched widths adopt the inbox rows flat (duplicates merge at the
  /// shard's first sorting seal), mirroring the shared engine's flat
  /// accumulation so both engines iterate the same row multisets — the
  /// basis of their load-model parity.
  static DistTableT collect(int arity, int home_slot, VirtualCommT<B>& comm,
                            SortOrder order, std::size_t budget,
                            VertexId domain = 0) {
    DistTableT t;
    t.arity_ = arity;
    t.home_slot_ = home_slot;
    t.shards_.resize(comm.num_ranks());
    std::size_t total = 0;
    for (std::uint32_t r = 0; r < comm.num_ranks(); ++r) {
      ProjTableT<B> shard;
      if constexpr (B == 1) {
        const std::vector<Entry>& in = comm.inbox(r);
        AccumMapT<B> map(in.size());
        for (const Entry& e : in) map.add(e.key, e.cnt);
        shard = ProjTableT<B>::from_map(arity, std::move(map));
      } else {
        shard = ProjTableT<B>::from_flat(arity, comm.take_inbox(r));
      }
      total += shard.size();
      if (total > budget) {
        throw BudgetExceeded("distributed table exceeded " +
                             std::to_string(budget) + " entries");
      }
      shard.seal(order, domain);
      t.shards_[r] = std::move(shard);
    }
    return t;
  }

  /// Materialize from per-rank row sequences (checkpoint restore), one
  /// dense shard per rank, sealed in `order`. Rows decoded from a
  /// checkpoint arrive in sealed order with unique keys, so re-sealing
  /// reproduces the checkpointed table bit for bit.
  static DistTableT from_shard_rows(int arity, int home_slot,
                                    std::vector<std::vector<Entry>> rows,
                                    SortOrder order, VertexId domain) {
    DistTableT t;
    t.arity_ = arity;
    t.home_slot_ = home_slot;
    t.shards_.resize(rows.size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
      ProjTableT<B> shard;
      if constexpr (B == 1) {
        AccumMapT<B> map(rows[r].size());
        for (const Entry& e : rows[r]) map.add(e.key, e.cnt);
        shard = ProjTableT<B>::from_map(arity, std::move(map));
      } else {
        shard = ProjTableT<B>::from_flat(arity, std::move(rows[r]));
      }
      shard.seal(order, domain);
      t.shards_[r] = std::move(shard);
    }
    return t;
  }

  /// Materialize from per-rank accumulation maps (the cycle solver's
  /// merge sinks), one shard per map; shards stay unsealed.
  static DistTableT from_maps(int arity, int home_slot,
                              std::vector<AccumMapT<B>> maps) {
    DistTableT t;
    t.arity_ = arity;
    t.home_slot_ = home_slot;
    t.shards_.reserve(maps.size());
    for (AccumMapT<B>& m : maps) {
      t.shards_.push_back(ProjTableT<B>::from_map(arity, std::move(m)));
    }
    return t;
  }

  int arity() const { return arity_; }
  int home_slot() const { return home_slot_; }

  std::uint32_t num_shards() const {
    return static_cast<std::uint32_t>(shards_.size());
  }

  /// Total entries across all shards.
  std::size_t size() const {
    std::size_t sum = 0;
    for (const auto& s : shards_) sum += s.size();
    return sum;
  }

  /// Total lane-0 count across all shards.
  Count total() const {
    Count sum = 0;
    for (const auto& s : shards_) sum += s.total();
    return sum;
  }

  const ProjTableT<B>& shard(std::uint32_t rank) const {
    return shards_[rank];
  }

  /// Per-shard per-lane totals (lane-wise allreduce input).
  std::vector<Vec> shard_lane_totals() const {
    std::vector<Vec> parts(shards_.size());
    for (std::size_t r = 0; r < shards_.size(); ++r) {
      parts[r] = shards_[r].lane_totals();
    }
    return parts;
  }

  /// Every entry lives on the owner of its home-slot vertex.
  bool well_placed(const BlockPartition& part) const {
    for (std::uint32_t r = 0; r < num_shards(); ++r) {
      bool ok = true;
      shards_[r].for_each_entry([&](const Entry& e) {
        ok = ok && part.owner(e.key.v[home_slot_]) == r;
      });
      if (!ok) return false;
    }
    return true;
  }

  /// Flatten into one shared-memory table, accumulating duplicate keys.
  ProjTableT<B> gather() const {
    AccumMapT<B> map(size());
    for (const auto& s : shards_) {
      s.for_each_entry([&](const Entry& e) { map.add(e.key, e.cnt); });
    }
    return ProjTableT<B>::from_map(arity_, std::move(map));
  }

  /// Move every entry to the owner of its `new_home` slot vertex (one
  /// superstep), sealing shards in `order`.
  DistTableT resharded(int new_home, VirtualCommT<B>& comm,
                       const BlockPartition& part, SortOrder order,
                       std::size_t budget, VertexId domain = 0) const {
    for (std::uint32_t r = 0; r < num_shards(); ++r) {
      shards_[r].for_each_entry([&](const Entry& e) {
        comm.send(r, part.owner(e.key.v[new_home]), e);
      });
    }
    comm.exchange();
    return collect(arity_, new_home, comm, order, budget, domain);
  }

  /// Swap key slots 0 and 1 and re-home (one superstep); shards sealed
  /// kByV0 — the storage convention for child-block tables.
  DistTableT transposed(VirtualCommT<B>& comm, const BlockPartition& part,
                        std::size_t budget, VertexId domain = 0) const {
    for (std::uint32_t r = 0; r < num_shards(); ++r) {
      shards_[r].for_each_entry([&](const Entry& e) {
        Entry t = e;
        std::swap(t.key.v[0], t.key.v[1]);
        comm.send(r, part.owner(t.key.v[home_slot_]), t);
      });
    }
    comm.exchange();
    return collect(arity_, home_slot_, comm, SortOrder::kByV0, budget,
                   domain);
  }

  /// Seal every shard (used before per-shard merge joins and when a
  /// table is stored).
  void seal_shards(SortOrder order, VertexId domain = 0) {
    for (auto& s : shards_) s.seal(order, domain);
  }

 private:
  int arity_ = 0;
  int home_slot_ = 0;
  std::vector<ProjTableT<B>> shards_;
};

using DistTable = DistTableT<1>;

extern template class DistTableT<1>;
extern template class DistTableT<2>;
extern template class DistTableT<4>;
extern template class DistTableT<8>;

}  // namespace ccbt
