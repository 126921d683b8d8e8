#pragma once
// Insert-or-accumulate open-addressing hash map over TableKey.
//
// Section 7: "All the tables are maintained as distributed hash tables
// which use open addressing to resolve collisions." This is the
// shared-memory equivalent: a power-of-two slot array of indices into a
// dense entry vector. Only insertion and accumulation are needed during a
// join; afterwards the entries are sealed (sorted) for merge joins.
//
// The map is parameterized on the batch width B (counts are per-lane
// vectors; see table_key.hpp). At B = 1 a compact storage mode cuts the
// bandwidth of the accumulation probes (à la Malík et al.): while every
// inserted key is packable (two boundary slots, signature < 256 — see
// pack_key), entries are held as 16-byte (uint64 key, count) rows,
// halving the probe bandwidth against the 32-byte wide row. The first
// unpackable key migrates the map to the wide layout transparently.
// B > 1 maps always hold dense (key, u64[B]) rows: the batched hot path
// accumulates into narrow flat rows (flat_rows.hpp) instead, and the
// tables built from the remaining hash sinks (cycle merges, aggregation)
// are the dense stored tables.
//
// take_entries() always yields wide rows, so sealing is unaffected.

#include <cstddef>
#include <utility>
#include <vector>

#include "ccbt/table/table_key.hpp"
#include "ccbt/util/error.hpp"

namespace ccbt {

template <int B>
class AccumMapT {
 public:
  using Vec = typename LaneOps<B>::Vec;
  using Entry = TableEntryT<B>;

  /// `compact` requests the packed 16-byte rows at B = 1; B > 1 maps
  /// ignore it.
  explicit AccumMapT(std::size_t expected = 16, bool compact = false) {
    packed_mode_ = B == 1 && compact;
    rehash_for(expected);
  }

  /// Add `cnt` to the entry for `key`, creating it if absent.
  void add(const TableKey& key, const Vec& cnt) {
    if (size() + 1 > grow_at_) rehash_for(size() * 2 + 16);
    if constexpr (B == 1) {
      if (packed_mode_) {
        if (!packable_key(key)) {
          migrate_to_wide();
        } else {
          add_packed(pack_key(key), cnt);
          return;
        }
      }
    }
    add_wide(key, cnt);
  }

  std::size_t size() const {
    return packed_mode_ ? packed_.size() : entries_.size();
  }
  bool empty() const { return size() == 0; }

  /// Bytes the accumulated rows occupy in the current layout (the
  /// accumulate-stage emit-traffic telemetry B > 1 sinks report via
  /// FlatRowsT::byte_size — this is the B = 1 / hash-sink analogue).
  std::uint64_t byte_size() const {
    return packed_mode_ ? packed_.size() * sizeof(PackedEntry)
                        : entries_.size() * sizeof(Entry);
  }

  /// Whether the map currently holds packed 16-byte rows (B = 1).
  bool packed() const { return packed_mode_; }

  /// Pre-size the slot array for `expected` total entries so a bulk merge
  /// (e.g. reducing per-thread maps) runs without intermediate rehashes.
  void reserve(std::size_t expected) {
    if (expected > size()) {
      if (packed_mode_) {
        packed_.reserve(expected);
      } else {
        entries_.reserve(expected);
      }
      rehash_for(expected);
    }
  }

  /// Visit every (key, counts) pair; layout-independent.
  template <typename F>
  void for_each(F&& f) const {
    if constexpr (B == 1) {
      if (packed_mode_) {
        for (const PackedEntry& e : packed_) f(unpack_key(e.key), e.cnt);
        return;
      }
    }
    for (const Entry& e : entries_) f(e.key, e.cnt);
  }

  /// Move the dense entries out (unpacking if needed); the map is left
  /// empty but keeps its slot capacity.
  std::vector<Entry> take_entries() {
    std::vector<Entry> out;
    if constexpr (B == 1) {
      if (packed_mode_) {
        out.reserve(packed_.size());
        for (const PackedEntry& e : packed_) {
          out.push_back({unpack_key(e.key), e.cnt});
        }
        packed_.clear();
        slots_.assign(slots_.size(), kEmpty);
        return out;
      }
    }
    out = std::move(entries_);
    entries_.clear();
    slots_.assign(slots_.size(), kEmpty);
    return out;
  }

  /// Dense wide rows; only valid outside the packed mode (tests and
  /// callers that construct the map without `compact`). Engine code
  /// iterates through for_each instead.
  const std::vector<Entry>& entries() const {
    if (packed_mode_) {
      throw Error("AccumMap::entries(): map is in a compact layout");
    }
    return entries_;
  }

 private:
  static constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;

  struct PackedEntry {
    std::uint64_t key;
    Count cnt;
  };

  void add_wide(const TableKey& key, const Vec& cnt) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t pos = hash_key(key) & mask;
    while (true) {
      const std::uint32_t idx = slots_[pos];
      if (idx == kEmpty) {
        slots_[pos] = static_cast<std::uint32_t>(entries_.size());
        entries_.push_back({key, cnt});
        return;
      }
      if (entries_[idx].key == key) {
        LaneOps<B>::add(entries_[idx].cnt, cnt);
        return;
      }
      pos = (pos + 1) & mask;
    }
  }

  void add_packed(std::uint64_t pkey, Count cnt) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t pos = hash_packed_key(pkey) & mask;
    while (true) {
      const std::uint32_t idx = slots_[pos];
      if (idx == kEmpty) {
        slots_[pos] = static_cast<std::uint32_t>(packed_.size());
        packed_.push_back({pkey, cnt});
        return;
      }
      if (packed_[idx].key == pkey) {
        packed_[idx].cnt += cnt;
        return;
      }
      pos = (pos + 1) & mask;
    }
  }

  /// One-time fallback (B = 1): unpack every row into the wide layout and
  /// rebuild the slot array under hash_key (the two hashes disagree, so
  /// the old probe table cannot be reused).
  void migrate_to_wide() {
    entries_.reserve(packed_.size() + 1);
    for (const PackedEntry& e : packed_) {
      entries_.push_back({unpack_key(e.key), e.cnt});
    }
    packed_.clear();
    packed_.shrink_to_fit();
    packed_mode_ = false;
    reindex();
  }

  void reindex() {
    const std::size_t mask = slots_.size() - 1;
    slots_.assign(slots_.size(), kEmpty);
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      std::size_t pos = hash_key(entries_[i].key) & mask;
      while (slots_[pos] != kEmpty) pos = (pos + 1) & mask;
      slots_[pos] = static_cast<std::uint32_t>(i);
    }
  }

  void rehash_for(std::size_t expected) {
    std::size_t cap = 32;
    while (cap * 3 / 5 < expected) cap <<= 1;  // keep load factor <= 0.6
    if (!slots_.empty() && cap <= slots_.size()) {
      grow_at_ = slots_.size() * 3 / 5;
      return;
    }
    slots_.assign(cap, kEmpty);
    grow_at_ = cap * 3 / 5;
    const std::size_t mask = cap - 1;
    if (packed_mode_) {
      for (std::size_t i = 0; i < packed_.size(); ++i) {
        std::size_t pos = hash_packed_key(packed_[i].key) & mask;
        while (slots_[pos] != kEmpty) pos = (pos + 1) & mask;
        slots_[pos] = static_cast<std::uint32_t>(i);
      }
      return;
    }
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      std::size_t pos = hash_key(entries_[i].key) & mask;
      while (slots_[pos] != kEmpty) pos = (pos + 1) & mask;
      slots_[pos] = static_cast<std::uint32_t>(i);
    }
  }

  std::vector<std::uint32_t> slots_;
  std::vector<Entry> entries_;
  std::vector<PackedEntry> packed_;  // active only in packed mode (B = 1)
  std::size_t grow_at_ = 0;
  bool packed_mode_ = false;
};

using AccumMap = AccumMapT<1>;

}  // namespace ccbt
