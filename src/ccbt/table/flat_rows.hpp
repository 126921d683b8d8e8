#pragma once
// Narrow flat accumulation rows — the batched (B > 1) hot-path sink.
//
// The graph-driven primitives emit rows without hashing and let the
// table's sorting seal consolidate duplicates. Before this layout the
// sink was a vector of dense TableEntryT<B> (88 bytes at B = 8), so the
// seal's counting partition, per-bucket sorts and merge pass all hauled
// 88-byte rows — the measured reason a batched execution lost wall clock
// to B = 1. A narrow flat row is the packed 64-bit key (table_key.hpp:
// v0:28 | v1:28 | sig:8) plus all B lane counts at the narrowest width
// that holds them:
//
//   u16: 8 + 2B bytes   (24 at B = 8 — 3.7x less sort traffic)
//   u32: 8 + 4B bytes   (40 at B = 8)
//
// The width escalates for the whole buffer the first time a count
// outgrows it (u16 -> u32), and the sink migrates to dense wide rows on
// the first unpackable key or u64-range count — the engine's correctness
// never depends on staying narrow. Because the packed key is ordered as
// (v0, v1, sig) and narrow keys never use slots 2-3, a raw u64 compare
// reproduces the projection table's comparators exactly: partitioning by
// a slot's bit field and sorting buckets by k gives the same row order
// the dense seal produces, and equal-k runs are exactly equal-TableKey
// runs. Run sums during the merge pass are computed in 64-bit, so the
// deduped counts are bit-identical to the dense path's.
//
// There is one emission path: every append lands in the one flat buffer
// of the current width, through a direct-mapped combining cache that
// folds a re-emitted key into its live row while the sum still fits.
// The seal sorts that buffer with an LSD radix sort from kRadixMinRows
// rows up and a counting partition + per-bucket comparison sort below;
// the row count alone picks, and both produce the same sealed table.

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "ccbt/table/lane_payload.hpp"
#include "ccbt/table/table_key.hpp"

namespace ccbt {

/// Accumulation-stage telemetry, collected per phase from the reduced
/// sink before it seals (ExecStats::accum). combine_folds says how much
/// sort input the combining cache removed. The fields marked "always 0"
/// stay only because benchmark reports still read them.
struct AccumTelemetry {
  std::uint64_t phases = 0;           // accumulation phases observed
  std::uint64_t sharded_phases = 0;   // always 0
  std::uint64_t sparse_phases = 0;    // always 0
  std::uint64_t rows = 0;             // rows handed to the seal
  std::uint64_t emit_bytes = 0;       // bytes those rows occupy pre-seal
  std::uint64_t combine_folds = 0;    // emissions folded into a live row
  std::uint64_t frontier_folds = 0;   // always 0
  std::uint64_t run_emits = 0;        // always 0
  std::uint64_t shards_occupied = 0;  // always 0
  std::uint64_t shard_slots = 0;      // always 0
  void add(const AccumTelemetry& o) {
    phases += o.phases;
    sharded_phases += o.sharded_phases;
    sparse_phases += o.sparse_phases;
    rows += o.rows;
    emit_bytes += o.emit_bytes;
    combine_folds += o.combine_folds;
    frontier_folds += o.frontier_folds;
    run_emits += o.run_emits;
    shards_occupied += o.shards_occupied;
    shard_slots += o.shard_slots;
  }
  double bytes_per_row() const {
    return rows == 0 ? 0.0
                     : static_cast<double>(emit_bytes) /
                           static_cast<double>(rows);
  }
};

/// One narrow flat row: packed key + all B lane counts at width W.
template <int B, typename W>
struct PackedFlatRowT {
  std::uint64_t k = 0;
  std::array<W, B> c{};
};

/// What one run-merged scan of sorted narrow rows observed (the seal's
/// layout-chooser inputs). Computed over equal-key runs, so it describes
/// the table *after* dedup even when called before it.
struct FlatStats {
  std::uint64_t rows = 0;            // distinct keys
  std::uint64_t lanes_occupied = 0;  // nonzero lanes over merged rows
  Count max_count = 0;               // largest merged lane count
};

template <int B>
class FlatRowsT {
 public:
  using Vec = typename LaneOps<B>::Vec;
  using Entry = TableEntryT<B>;

  /// Active row representation; ordered so std::max picks the wider one.
  enum class Mode : std::uint8_t { kU16 = 0, kU32 = 1, kWide = 2 };

  /// Direct-mapped combining cache slot: packed key -> row index of its
  /// last appearance. A slot is only ever a hint — it is checked against
  /// the row it points at before any fold, so a stale, colliding or
  /// zero-filled slot is at worst a missed merge, never a wrong one.
  struct CombineSlot {
    std::uint64_t k = ~std::uint64_t{0};
    std::uint32_t idx = 0;
  };

  FlatRowsT() = default;

  std::size_t size() const {
    switch (mode_) {
      case Mode::kU16: return n16_.size();
      case Mode::kU32: return n32_.size();
      case Mode::kWide: break;
    }
    return wide_.size();
  }
  bool empty() const { return size() == 0; }
  Mode mode() const { return mode_; }
  bool narrow() const { return mode_ != Mode::kWide; }

  /// Raw u16 rows (valid only while mode() == kU16). The extend fast
  /// path iterates these directly so sealed u16 tables stream into u16
  /// sinks without a dense round trip.
  const std::vector<PackedFlatRowT<B, std::uint16_t>>& rows_u16() const {
    return n16_;
  }

  /// Raw u32 rows (valid only while mode() == kU32) — the packed merge
  /// joins mixed-width sealed tables without a dense expansion.
  const std::vector<PackedFlatRowT<B, std::uint32_t>>& rows_u32() const {
    return n32_;
  }

  /// Pre-size the current row buffer (a lower-bound emission estimate
  /// from the producer saves the doubling-growth copies).
  void reserve_hint(std::size_t n) {
    switch (mode_) {
      case Mode::kU16: n16_.reserve(n); return;
      case Mode::kU32: n32_.reserve(n); return;
      case Mode::kWide: break;
    }
    wide_.reserve(n);
  }

  /// Payload width of the narrow modes (kU64 when wide).
  PayloadWidth width() const {
    switch (mode_) {
      case Mode::kU16: return PayloadWidth::kU16;
      case Mode::kU32: return PayloadWidth::kU32;
      case Mode::kWide: break;
    }
    return PayloadWidth::kU64;
  }

  /// Bytes the rows occupy in the current representation.
  std::uint64_t byte_size() const {
    switch (mode_) {
      case Mode::kU16: return n16_.size() * sizeof(n16_[0]);
      case Mode::kU32: return n32_.size() * sizeof(n32_[0]);
      case Mode::kWide: break;
    }
    return wide_.size() * sizeof(Entry);
  }

  /// Append one emitted row. Escalates the buffer width when a count
  /// outgrows it; migrates the whole buffer to wide rows on the first
  /// unpackable key or u64-range count.
  ///
  /// Duplicate keys re-emitted while still hot in the combining cache
  /// (joins emit them in bursts: sibling child entries collapsing to one
  /// signature, entries of one frontier bucket sharing an anchor) are
  /// summed into their existing row instead of growing the sort input —
  /// the measured duplicate factor of the Fig 15 workload is 1.3-1.8x.
  /// Sums are exact u64 adds, so seal-time counts are unchanged.
  void append(const TableKey& key, const Vec& cnt) {
    if (combine_.empty()) [[unlikely]] prepare_emit();
    if (mode_ != Mode::kWide && packable_key(key)) {
      // OR of the lanes bounds the max: any count above the width has a
      // high bit the OR keeps.
      Count hi = 0;
      for (int l = 0; l < B; ++l) hi |= LaneOps<B>::lane(cnt, l);
      const std::uint64_t k = pack_key(key);
      CombineSlot& slot = combine_[combine_hash(k)];
      if (mode_ == Mode::kU16) {
        if (slot.k == k && slot.idx < n16_.size() && n16_[slot.idx].k == k &&
            combine(n16_[slot.idx], cnt, std::uint64_t{0xFFFF})) {
          ++combine_folds_;
          return;
        }
        if (hi <= 0xFFFFull) {
          slot.k = k;
          slot.idx = static_cast<std::uint32_t>(n16_.size());
          push(n16_, k, cnt);
          return;
        }
        if (hi <= 0xFFFFFFFFull) to_u32();
      }
      if (mode_ == Mode::kU32) {
        if (slot.k == k && slot.idx < n32_.size() && n32_[slot.idx].k == k &&
            combine(n32_[slot.idx], cnt, std::uint64_t{0xFFFFFFFF})) {
          ++combine_folds_;
          return;
        }
        if (hi <= 0xFFFFFFFFull) {
          slot.k = k;
          slot.idx = static_cast<std::uint32_t>(n32_.size());
          push(n32_, k, cnt);
          return;
        }
      }
    }
    to_wide();
    wide_.push_back({key, cnt});
  }

  /// Append one emission that is `src` restricted to the lanes of `m`
  /// (zeros elsewhere), without materializing the dense masked vector —
  /// the extend hot loop emits several masked subsets of one source row.
  /// `src_hi` is the OR of ALL of src's lanes, computed once per source
  /// row by the caller: when it fits the current width every masked
  /// subset does too and the per-emission reduce is skipped; otherwise
  /// the exact masked OR decides (so one oversized-but-masked-off lane
  /// never escalates the buffer).
  void append_masked(const TableKey& key, const Vec& src, LaneMask m,
                     Count src_hi) {
    if (combine_.empty()) [[unlikely]] prepare_emit();
    if (mode_ != Mode::kWide && packable_key(key)) {
      Count hi = src_hi;
      if ((mode_ == Mode::kU16 && hi > 0xFFFFull) ||
          (mode_ == Mode::kU32 && hi > 0xFFFFFFFFull)) {
        hi = masked_or(src, m);
      }
      const std::uint64_t k = pack_key(key);
      CombineSlot& slot = combine_[combine_hash(k)];
      if (mode_ == Mode::kU16) {
        if (slot.k == k && slot.idx < n16_.size() && n16_[slot.idx].k == k &&
            combine_masked(n16_[slot.idx], src, m, std::uint64_t{0xFFFF})) {
          ++combine_folds_;
          return;
        }
        if (hi <= 0xFFFFull) {
          slot.k = k;
          slot.idx = static_cast<std::uint32_t>(n16_.size());
          push_masked(n16_, k, src, m);
          return;
        }
        if (hi <= 0xFFFFFFFFull) to_u32();
      }
      if (mode_ == Mode::kU32) {
        if (slot.k == k && slot.idx < n32_.size() && n32_[slot.idx].k == k &&
            combine_masked(n32_[slot.idx], src, m,
                           std::uint64_t{0xFFFFFFFF})) {
          ++combine_folds_;
          return;
        }
        if (hi <= 0xFFFFFFFFull) {
          slot.k = k;
          slot.idx = static_cast<std::uint32_t>(n32_.size());
          push_masked(n32_, k, src, m);
          return;
        }
      }
    }
    to_wide();
    wide_.push_back({key, LaneOps<B>::masked(src, m)});
  }

  /// Append a masked copy of a u16 source row under a caller-packed key
  /// — the all-16-bit extend hot path. A masked subset of u16 counts
  /// always fits u16, so there is no width decision at all while the
  /// sink is still in u16 mode; only a combining-cache sum can overflow,
  /// and that falls through to a duplicate push (merged at seal).
  void append_masked_u16(std::uint64_t k,
                         const PackedFlatRowT<B, std::uint16_t>& src,
                         LaneMask m) {
    if (mode_ == Mode::kU16) [[likely]] {
      if (combine_.empty()) [[unlikely]] prepare_emit();
      CombineSlot& slot = combine_[combine_hash(k)];
      if (slot.k == k && slot.idx < n16_.size() && n16_[slot.idx].k == k) {
        std::array<std::uint32_t, B> sum;
        std::uint32_t hi = 0;
        CCBT_SIMD
        for (int l = 0; l < B; ++l) {
          sum[l] = static_cast<std::uint32_t>(n16_[slot.idx].c[l]) +
                   (((m >> l) & 1) != 0 ? src.c[l] : std::uint16_t{0});
          hi |= sum[l];
        }
        if (hi <= 0xFFFFu) {
          CCBT_SIMD
          for (int l = 0; l < B; ++l) {
            n16_[slot.idx].c[l] = static_cast<std::uint16_t>(sum[l]);
          }
          ++combine_folds_;
          return;
        }
      }
      slot.k = k;
      slot.idx = static_cast<std::uint32_t>(n16_.size());
      PackedFlatRowT<B, std::uint16_t> r;
      r.k = k;
      CCBT_SIMD
      for (int l = 0; l < B; ++l) {
        r.c[l] = ((m >> l) & 1) != 0 ? src.c[l] : std::uint16_t{0};
      }
      n16_.push_back(r);
      return;
    }
    // Escalated mid-phase by interleaved generic appends: expand the
    // source row and take the generic path.
    append_masked(unpack_key(k), expand_counts(src), m,
                  std::uint64_t{0xFFFF});
  }

  // --------------------------------------------- accumulation phases

  /// Stand up the combining cache for the coming accumulation phase.
  /// accumulate_flat calls this once per sink before its emission loop,
  /// so the per-row appends only test for it; a stray direct append
  /// still self-prepares through an [[unlikely]] guard. Idempotent until
  /// the seal drops the cache.
  void prepare_emit() {
    if (combine_.empty()) combine_.resize(kCombineSlots);
  }

  /// Prefetch the combining-cache slot `k` will probe. The extend loop
  /// queues a small tile of emissions and prefetches each slot at
  /// enqueue time, so the dependent slot load in append_masked_u16 is
  /// in flight a tile ahead of its use.
  void prefetch_combine(std::uint64_t k) const {
    if (!combine_.empty()) {
      __builtin_prefetch(&combine_[combine_hash(k)], 1, 1);
    }
  }

  /// Fold this sink's accumulation counters into `t` — once per phase,
  /// after the per-thread reduction and before the seal.
  void collect_telemetry(AccumTelemetry& t) const {
    ++t.phases;
    t.rows += size();
    t.emit_bytes += byte_size();
    t.combine_folds += combine_folds_;
  }

  TableKey key_at(std::size_t i) const {
    switch (mode_) {
      case Mode::kU16: return unpack_key(n16_[i].k);
      case Mode::kU32: return unpack_key(n32_[i].k);
      case Mode::kWide: break;
    }
    return wide_[i].key;
  }

  Vec expand(std::size_t i) const {
    switch (mode_) {
      case Mode::kU16: return expand_counts(n16_[i]);
      case Mode::kU32: return expand_counts(n32_[i]);
      case Mode::kWide: break;
    }
    return wide_[i].cnt;
  }

  /// Row i as a dense entry, written into `out`.
  void row(std::size_t i, Entry& out) const {
    switch (mode_) {
      case Mode::kU16:
        out.key = unpack_key(n16_[i].k);
        out.cnt = expand_counts(n16_[i]);
        return;
      case Mode::kU32:
        out.key = unpack_key(n32_[i].k);
        out.cnt = expand_counts(n32_[i]);
        return;
      case Mode::kWide: break;
    }
    out = wide_[i];
  }

  /// Merge another sink's rows (the per-thread reduction): both sides
  /// are raised to the wider representation, then concatenated. The
  /// fold counter carries over.
  void absorb(FlatRowsT&& o) {
    combine_folds_ += o.combine_folds_;
    o.combine_folds_ = 0;
    if (o.empty()) return;
    if (empty()) {
      const std::uint64_t folds = combine_folds_;
      *this = std::move(o);
      combine_folds_ = folds;
      return;
    }
    const Mode m = std::max(mode_, o.mode_);
    raise_to(m);
    o.raise_to(m);
    switch (m) {
      case Mode::kU16:
        n16_.insert(n16_.end(), o.n16_.begin(), o.n16_.end());
        break;
      case Mode::kU32:
        n32_.insert(n32_.end(), o.n32_.begin(), o.n32_.end());
        break;
      case Mode::kWide:
        wide_.insert(wide_.end(), std::make_move_iterator(o.wide_.begin()),
                     std::make_move_iterator(o.wide_.end()));
        break;
    }
    o.clear();
  }

  /// Convert to dense wide rows (in current order) and hand them over.
  std::vector<Entry> take_wide() {
    to_wide();
    std::vector<Entry> out = std::move(wide_);
    clear();
    return out;
  }

  // ------------------------------------------------------------- sealing

  /// Sort the narrow rows into the dense seal's order for `slot` (the
  /// packed key's grouping field first, then the raw packed key — the
  /// same row order the dense seal's comparators produce). From
  /// kRadixMinRows rows up this is the LSD radix sort, below it the
  /// counting partition + per-bucket comparison sort. Returns false
  /// (rows untouched) when a slot value falls outside [0, domain) —
  /// including kNoVertex, whose packed pattern is the all-ones field —
  /// or when the rows are wide; the caller falls back to the dense path.
  bool sort_by_slot(int slot, VertexId domain) {
    return size() >= kRadixMinRows ? sort_by_slot_radix(slot, domain)
                                   : sort_by_slot_comparison(slot, domain);
  }

  /// sort_by_slot pinned to the LSD radix sort (tests compare the two).
  bool sort_by_slot_radix(int slot, VertexId domain) {
    drop_combine();
    switch (mode_) {
      case Mode::kU16: return sort_radix_impl(n16_, slot, domain);
      case Mode::kU32: return sort_radix_impl(n32_, slot, domain);
      case Mode::kWide: break;
    }
    return false;
  }

  /// sort_by_slot pinned to the comparison sort (tests compare the two).
  bool sort_by_slot_comparison(int slot, VertexId domain) {
    drop_combine();
    switch (mode_) {
      case Mode::kU16: return sort_comparison_impl(n16_, slot, domain);
      case Mode::kU32: return sort_comparison_impl(n32_, slot, domain);
      case Mode::kWide: break;
    }
    return false;
  }

  /// Row count from which sort_by_slot takes the radix sort: below it
  /// the per-bucket comparison sort has no per-pass setup and its
  /// buckets fit in cache.
  static constexpr std::size_t kRadixMinRows = 4096;

  /// Reorder rows [lo, hi) by DESCENDING rank of the packed key's slot-0
  /// vertex (ranks indexed by vertex id, injective), breaking the full-key
  /// order inside the range — ProjTableT::rank_partition_buckets uses this
  /// on already-deduped buckets so anchor-rank probes can stop at a
  /// partition point. No-op for wide rows.
  void sort_range_by_rank_desc(std::size_t lo, std::size_t hi,
                               std::span<const std::uint32_t> ranks) {
    auto by_rank = [&](auto& rows) {
      std::sort(rows.begin() + static_cast<std::ptrdiff_t>(lo),
                rows.begin() + static_cast<std::ptrdiff_t>(hi),
                [ranks](const auto& a, const auto& b) {
                  return ranks[a.k >> 36] > ranks[b.k >> 36];
                });
    };
    switch (mode_) {
      case Mode::kU16: by_rank(n16_); return;
      case Mode::kU32: by_rank(n32_); return;
      case Mode::kWide: break;
    }
  }

  /// Run-merged stats over sorted rows (each equal-key run counted once,
  /// with its lane sums). Precondition: sorted by full key.
  FlatStats scan() const {
    switch (mode_) {
      case Mode::kU16: return scan_impl(n16_);
      case Mode::kU32: return scan_impl(n32_);
      case Mode::kWide: break;
    }
    return scan_wide();
  }

  /// Sum runs of equal keys in place (after sort_by_slot). Run sums are
  /// 64-bit, so merged counts match the dense merge bit for bit; the
  /// buffer escalates to the width the merged maximum needs first (wide
  /// in the u64 case — check narrow() afterwards). Returns the scan the
  /// escalation decision was made from.
  FlatStats merge_duplicates() {
    drop_combine();
    const FlatStats st = scan();
    const PayloadWidth want = choose_payload_width(st.max_count);
    if (mode_ == Mode::kU16 && want != PayloadWidth::kU16) {
      if (want == PayloadWidth::kU32) {
        to_u32();
      } else {
        to_wide();
      }
    } else if (mode_ == Mode::kU32 && want == PayloadWidth::kU64) {
      to_wide();
    }
    switch (mode_) {
      case Mode::kU16: merge_impl(n16_); return st;
      case Mode::kU32: merge_impl(n32_); return st;
      case Mode::kWide: break;
    }
    merge_wide();
    return st;
  }

  void clear() {
    n16_.clear();
    n16_.shrink_to_fit();
    n32_.clear();
    n32_.shrink_to_fit();
    wide_.clear();
    wide_.shrink_to_fit();
    drop_combine();
    combine_folds_ = 0;
    mode_ = Mode::kU16;
  }

  /// Release the combining cache (sealed tables must not carry it); the
  /// next phase's first append stands it back up.
  void drop_combine() {
    combine_.clear();
    combine_.shrink_to_fit();
  }

 private:
  // Global combining cache: 32K slots (384 KiB) — bigger than the
  // emission bursts that produce duplicates, small enough to stay
  // L2-resident. Dropped at seal time.
  static constexpr int kCombineBits = 15;
  static constexpr std::size_t kCombineSlots = std::size_t{1}
                                               << kCombineBits;

  static std::size_t combine_hash(std::uint64_t k) {
    return (k * 0x9E3779B97F4A7C15ull) >> (64 - kCombineBits);
  }

  /// OR of the lanes of `src` selected by `m` (bounds their max).
  static Count masked_or(const Vec& src, LaneMask m) {
    Count hi = 0;
    CCBT_SIMD
    for (int l = 0; l < B; ++l) {
      hi |= ((m >> l) & 1) != 0 ? LaneOps<B>::lane(src, l) : Count{0};
    }
    return hi;
  }

  template <typename W>
  void push_masked(std::vector<PackedFlatRowT<B, W>>& rows, std::uint64_t k,
                   const Vec& src, LaneMask m) {
    PackedFlatRowT<B, W> r;
    r.k = k;
    CCBT_SIMD
    for (int l = 0; l < B; ++l) {
      r.c[l] = static_cast<W>(((m >> l) & 1) != 0 ? LaneOps<B>::lane(src, l)
                                                  : Count{0});
    }
    rows.push_back(r);
  }

  /// combine() for a masked source: sums only the lanes of `m`.
  template <typename W>
  static bool combine_masked(PackedFlatRowT<B, W>& r, const Vec& src,
                             LaneMask m, std::uint64_t cap) {
    std::array<Count, B> sum;
    Count hi = 0;
    CCBT_SIMD
    for (int l = 0; l < B; ++l) {
      sum[l] = r.c[l] + (((m >> l) & 1) != 0 ? LaneOps<B>::lane(src, l)
                                             : Count{0});
      hi |= sum[l];
    }
    if (hi > cap) return false;
    CCBT_SIMD
    for (int l = 0; l < B; ++l) r.c[l] = static_cast<W>(sum[l]);
    return true;
  }

  /// Sum `cnt` into an existing narrow row if every merged lane still
  /// fits the row's width; leaves the row untouched (caller appends a
  /// duplicate, merged at seal) otherwise.
  template <typename W>
  static bool combine(PackedFlatRowT<B, W>& r, const Vec& cnt,
                      std::uint64_t cap) {
    std::array<Count, B> sum;
    Count hi = 0;
    CCBT_SIMD
    for (int l = 0; l < B; ++l) {
      sum[l] = r.c[l] + LaneOps<B>::lane(cnt, l);
      hi |= sum[l];
    }
    if (hi > cap) return false;
    CCBT_SIMD
    for (int l = 0; l < B; ++l) r.c[l] = static_cast<W>(sum[l]);
    return true;
  }

  template <typename W>
  static void push(std::vector<PackedFlatRowT<B, W>>& rows, std::uint64_t k,
                   const Vec& cnt) {
    PackedFlatRowT<B, W> r;
    r.k = k;
    CCBT_SIMD
    for (int l = 0; l < B; ++l) {
      r.c[l] = static_cast<W>(LaneOps<B>::lane(cnt, l));
    }
    rows.push_back(r);
  }

  template <typename W>
  static Vec expand_counts(const PackedFlatRowT<B, W>& r) {
    Vec v = LaneOps<B>::zero();
    CCBT_SIMD
    for (int l = 0; l < B; ++l) {
      LaneOps<B>::set_lane(v, l, r.c[l]);
    }
    return v;
  }

  void to_u32() {
    n32_.resize(n16_.size());
    for (std::size_t i = 0; i < n16_.size(); ++i) {
      n32_[i].k = n16_[i].k;
      CCBT_SIMD
      for (int l = 0; l < B; ++l) n32_[i].c[l] = n16_[i].c[l];
    }
    n16_.clear();
    n16_.shrink_to_fit();
    mode_ = Mode::kU32;
  }

  void to_wide() {
    if (mode_ == Mode::kWide) return;
    const std::size_t n = size();
    const std::size_t at = wide_.size();
    wide_.resize(at + n);
    for (std::size_t i = 0; i < n; ++i) row(i, wide_[at + i]);
    n16_.clear();
    n16_.shrink_to_fit();
    n32_.clear();
    n32_.shrink_to_fit();
    mode_ = Mode::kWide;
  }

  void raise_to(Mode m) {
    if (mode_ >= m) return;
    if (m == Mode::kU32) {
      to_u32();
    } else {
      to_wide();
    }
  }

  /// The slot's bit field of a packed key (28 bits; kNoVertex packs to
  /// the all-ones pattern, which any real domain excludes).
  static std::uint32_t slot_bits(std::uint64_t k, int slot) {
    return static_cast<std::uint32_t>(k >> (slot == 0 ? 36 : 8)) &
           kPacked28NoVertex;
  }

  /// The 64-bit sort key whose ascending order is exactly the dense
  /// seal's comparator for `slot`: the grouping field in the top 28
  /// bits, the other vertex field below it, the signature in the low
  /// byte (narrow keys never use slots 2-3). For slot 0 this IS the raw
  /// packed key; for slot 1 the two vertex fields swap.
  static std::uint64_t sort_key(std::uint64_t k, int slot) {
    if (slot == 0) return k;
    return ((k << 28) & (std::uint64_t{kPacked28NoVertex} << 36)) |
           ((k >> 28) & (std::uint64_t{kPacked28NoVertex} << 8)) |
           (k & 0xFFu);
  }

  static constexpr int kRadixBits = 11;
  static constexpr std::uint32_t kRadixBuckets = 1u << kRadixBits;

  /// One stable counting-scatter pass of the LSD radix sort: `cur` rows
  /// move to `buf` ordered by digit(item). Parallel per-chunk histograms
  /// when OpenMP delivers a team (same chunked layout the dense
  /// bucket_sort uses, so the scatter stays stable for any team size).
  template <typename T, typename DigitFn>
  static void radix_pass(std::vector<T>& cur, std::vector<T>& buf,
                         DigitFn&& digit) {
    const std::size_t n = cur.size();
    buf.resize(n);
#ifdef _OPENMP
    const int max_threads = omp_get_max_threads();
    if (max_threads > 1 && n >= (1u << 16)) {
      const int nchunks = max_threads;
      const std::size_t chunk = (n + nchunks - 1) / nchunks;
      std::vector<std::vector<std::uint32_t>> hist(nchunks);
#pragma omp parallel for schedule(static, 1)
      for (int c = 0; c < nchunks; ++c) {
        const std::size_t lo = std::min(n, c * chunk);
        const std::size_t hi = std::min(n, lo + chunk);
        auto& h = hist[c];
        h.assign(kRadixBuckets, 0);
        for (std::size_t i = lo; i < hi; ++i) ++h[digit(cur[i])];
      }
      std::array<std::uint32_t, kRadixBuckets> off{};
      for (int c = 0; c < nchunks; ++c) {
        for (std::uint32_t d = 0; d < kRadixBuckets; ++d) {
          off[d] += hist[c][d];
        }
      }
      std::uint32_t sum = 0;
      for (std::uint32_t d = 0; d < kRadixBuckets; ++d) {
        const std::uint32_t cnt = off[d];
        off[d] = sum;
        sum += cnt;
      }
      // Rebase each chunk's histogram into its scatter cursor: chunk c's
      // share of digit d starts after chunks < c (input order = stable).
      for (std::uint32_t d = 0; d < kRadixBuckets; ++d) {
        std::uint32_t cursor = off[d];
        for (int c = 0; c < nchunks; ++c) {
          const std::uint32_t cnt = hist[c][d];
          hist[c][d] = cursor;
          cursor += cnt;
        }
      }
#pragma omp parallel for schedule(static, 1)
      for (int c = 0; c < nchunks; ++c) {
        const std::size_t lo = std::min(n, c * chunk);
        const std::size_t hi = std::min(n, lo + chunk);
        auto& cursors = hist[c];
        for (std::size_t i = lo; i < hi; ++i) {
          buf[cursors[digit(cur[i])]++] = cur[i];
        }
      }
      cur.swap(buf);
      return;
    }
#endif
    std::array<std::uint32_t, kRadixBuckets> off{};
    for (const T& t : cur) ++off[digit(t)];
    std::uint32_t sum = 0;
    for (std::uint32_t d = 0; d < kRadixBuckets; ++d) {
      const std::uint32_t cnt = off[d];
      off[d] = sum;
      sum += cnt;
    }
    for (const T& t : cur) buf[off[digit(t)]++] = t;
    cur.swap(buf);
  }

  /// LSD radix seal sort: stable kRadixBits-wide passes over the
  /// slot-permuted packed key, skipping any pass whose digit is constant
  /// across the table (the common case — vertex fields only populate
  /// bit_width(domain) bits, and an all-kNoVertex field contributes no
  /// varying bit at all). The validation scan doubles as a sorted-input
  /// detector: rows that arrive already in seal order (combining-cache
  /// bursts of an ordered producer, checkpoint decode -> reseal) skip
  /// the sort outright, and u32 rows too wide to haul through every pass
  /// sort as (key, index) pairs and are gathered once at the end.
  template <typename W>
  static bool sort_radix_impl(std::vector<PackedFlatRowT<B, W>>& rows,
                              int slot, VertexId domain) {
    using Row = PackedFlatRowT<B, W>;
    const std::size_t n = rows.size();
    if (n == 0) return true;
    std::uint64_t ormask = 0;
    std::uint64_t andmask = ~std::uint64_t{0};
    bool sorted = true;
    std::uint64_t prev = 0;
    for (const Row& r : rows) {
      if (slot_bits(r.k, slot) >= domain) return false;
      const std::uint64_t sk = sort_key(r.k, slot);
      ormask |= sk;
      andmask &= sk;
      sorted = sorted && sk >= prev;
      prev = sk;
    }
    if (sorted) return true;
    const std::uint64_t varying = ormask ^ andmask;

    // Scatter buffer reused across seals (swapped, not stolen, so both
    // buffers keep cycling); rows are only ever fully overwritten, so
    // the growth zero-fill is the one init cost it ever pays.
    if constexpr (sizeof(Row) <= 24) {
      thread_local std::vector<Row> swap_buf;
      if (swap_buf.capacity() > 2 * n + 1024) {
        swap_buf.clear();
        swap_buf.shrink_to_fit();
      }
      for (int shift = 0; shift < 64; shift += kRadixBits) {
        if (((varying >> shift) & (kRadixBuckets - 1)) == 0) continue;
        radix_pass(rows, swap_buf, [slot, shift](const Row& r) {
          return static_cast<std::uint32_t>(sort_key(r.k, slot) >> shift) &
                 (kRadixBuckets - 1);
        });
      }
    } else {
      // Key-index passes: move 16-byte (sort key, row index) pairs
      // through the passes instead of the wide rows, then gather.
      struct KeyIdx {
        std::uint64_t sk;
        std::uint32_t idx;
      };
      thread_local std::vector<KeyIdx> keys, keys_buf;
      keys.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        keys[i] = {sort_key(rows[i].k, slot),
                   static_cast<std::uint32_t>(i)};
      }
      for (int shift = 0; shift < 64; shift += kRadixBits) {
        if (((varying >> shift) & (kRadixBuckets - 1)) == 0) continue;
        radix_pass(keys, keys_buf, [shift](const KeyIdx& p) {
          return static_cast<std::uint32_t>(p.sk >> shift) &
                 (kRadixBuckets - 1);
        });
      }
      thread_local std::vector<Row> swap_buf;
      if (swap_buf.capacity() > 2 * n + 1024) {
        swap_buf.clear();
        swap_buf.shrink_to_fit();
      }
      swap_buf.resize(n);
      for (std::size_t i = 0; i < n; ++i) swap_buf[i] = rows[keys[i].idx];
      rows.swap(swap_buf);
      keys.clear();
      keys_buf.clear();
    }
    return true;
  }

  template <typename W>
  static bool sort_comparison_impl(std::vector<PackedFlatRowT<B, W>>& rows,
                                   int slot, VertexId domain) {
    using Row = PackedFlatRowT<B, W>;
    const std::size_t n = rows.size();
    std::vector<std::uint32_t> off(static_cast<std::size_t>(domain) + 1, 0);
    for (const Row& r : rows) {
      const std::uint32_t v = slot_bits(r.k, slot);
      if (v >= domain) return false;
      ++off[v + 1];
    }
    for (std::size_t v = 1; v <= domain; ++v) off[v] += off[v - 1];
    // Scatter buffer reused across seals (swapped, not stolen, so both
    // buffers keep cycling); rows are only ever fully overwritten, so
    // the growth zero-fill is the one init cost it ever pays.
    thread_local std::vector<Row> sorted;
    if (sorted.capacity() > 2 * n + 1024) {
      sorted.clear();
      sorted.shrink_to_fit();
    }
    sorted.resize(n);
    {
      std::vector<std::uint32_t> cursor(off.begin(), off.end() - 1);
      for (const Row& r : rows) sorted[cursor[slot_bits(r.k, slot)]++] = r;
    }
    rows.swap(sorted);
    // With the slot's field fixed inside a bucket, raw-k order is the
    // dense seal's tail comparator (narrow keys never use slots 2-3).
    // Equal keys are about to be merged, so an unstable sort suffices.
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic, 1024) if (n > (1u << 15))
#endif
    for (std::size_t v = 0; v < domain; ++v) {
      const std::uint32_t lo = off[v];
      const std::uint32_t hi = off[v + 1];
      if (hi - lo > 1) {
        std::sort(rows.begin() + lo, rows.begin() + hi,
                  [](const Row& a, const Row& b) { return a.k < b.k; });
      }
    }
    return true;
  }

  template <typename W>
  static FlatStats scan_impl(const std::vector<PackedFlatRowT<B, W>>& rows) {
    FlatStats st;
    const std::size_t n = rows.size();
    std::size_t i = 0;
    while (i < n) {
      const std::uint64_t k = rows[i].k;
      std::array<Count, B> sum{};
      do {
        CCBT_SIMD
        for (int l = 0; l < B; ++l) sum[l] += rows[i].c[l];
        ++i;
      } while (i < n && rows[i].k == k);
      ++st.rows;
      for (int l = 0; l < B; ++l) {
        st.lanes_occupied += (sum[l] != 0);
        if (sum[l] > st.max_count) st.max_count = sum[l];
      }
    }
    return st;
  }

  FlatStats scan_wide() const {
    FlatStats st;
    const std::size_t n = wide_.size();
    std::size_t i = 0;
    while (i < n) {
      const TableKey& k = wide_[i].key;
      auto sum = LaneOps<B>::zero();
      do {
        LaneOps<B>::add(sum, wide_[i].cnt);
        ++i;
      } while (i < n && wide_[i].key == k);
      ++st.rows;
      for (int l = 0; l < B; ++l) {
        const Count c = LaneOps<B>::lane(sum, l);
        st.lanes_occupied += (c != 0);
        if (c > st.max_count) st.max_count = c;
      }
    }
    return st;
  }

  template <typename W>
  static void merge_impl(std::vector<PackedFlatRowT<B, W>>& rows) {
    const std::size_t n = rows.size();
    std::size_t w = 0;
    std::size_t i = 0;
    while (i < n) {
      const std::uint64_t k = rows[i].k;
      std::array<Count, B> sum{};
      do {
        CCBT_SIMD
        for (int l = 0; l < B; ++l) sum[l] += rows[i].c[l];
        ++i;
      } while (i < n && rows[i].k == k);
      auto& out = rows[w++];
      out.k = k;
      CCBT_SIMD
      for (int l = 0; l < B; ++l) out.c[l] = static_cast<W>(sum[l]);
    }
    rows.resize(w);
  }

  void merge_wide() {
    const std::size_t n = wide_.size();
    std::size_t w = 0;
    std::size_t i = 0;
    while (i < n) {
      Entry acc = wide_[i];
      std::size_t j = i + 1;
      while (j < n && wide_[j].key == acc.key) {
        LaneOps<B>::add(acc.cnt, wide_[j].cnt);
        ++j;
      }
      wide_[w++] = acc;
      i = j;
    }
    wide_.resize(w);
  }

  Mode mode_ = Mode::kU16;
  std::vector<PackedFlatRowT<B, std::uint16_t>> n16_;
  std::vector<PackedFlatRowT<B, std::uint32_t>> n32_;
  std::vector<Entry> wide_;
  std::vector<CombineSlot> combine_;
  std::uint64_t combine_folds_ = 0;
};

}  // namespace ccbt
