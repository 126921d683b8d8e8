// Narrow lane encodings of B > 1 counts: the narrow flat rows
// (flat_rows.hpp) the hot path accumulates, seals and merges, and the
// wire format of the transport and checkpoints, must reproduce the dense
// layout's results exactly — across B in {2, 4, 8}, forced u16 -> u32 ->
// u64 overflow escalation (at the seal and mid-accumulation, across
// per-thread absorbs), and combining-cache folds that overflow into
// duplicate rows. Stored tables must stay dense.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "ccbt/core/color_coding.hpp"
#include "ccbt/dist/checkpoint.hpp"
#include "ccbt/dist/comm.hpp"
#include "ccbt/dist/dist_engine.hpp"
#include "ccbt/dist/dist_table.hpp"
#include "ccbt/engine/path_builder.hpp"
#include "ccbt/engine/primitives.hpp"
#include "ccbt/graph/generators.hpp"
#include "ccbt/query/catalog.hpp"
#include "ccbt/table/flat_rows.hpp"
#include "ccbt/table/lane_payload.hpp"
#include "ccbt/table/lane_simd.hpp"
#include "ccbt/table/proj_table.hpp"
#include "ccbt/util/rng.hpp"

namespace ccbt {
namespace {

// ---------------------------------------------------------------- wire

TEST(LaneCompressWire, RoundTripIsExactAndOrdered) {
  VirtualCommT<8> comm(3);
  Rng rng(41);
  std::vector<TableEntryT<8>> sent;
  for (int i = 0; i < 200; ++i) {
    TableEntryT<8> e;
    e.key.v[0] = static_cast<VertexId>(rng.below(1000));
    e.key.v[1] = static_cast<VertexId>(rng.below(1000));
    if (i % 5 == 0) e.key.v[2] = static_cast<VertexId>(rng.below(1000));
    e.key.sig = static_cast<Signature>(rng.below(1u << 16));
    // Mix of widths, including the exact u16/u32 boundaries and zero
    // lanes.
    const Count magnitudes[] = {1, 0xFFFFull, 0x10000ull, 0xFFFFFFFFull,
                                0x100000000ull};
    for (int l = 0; l < 8; ++l) {
      if (rng.below(8) < 2) {
        LaneOps<8>::set_lane(e.cnt, l, magnitudes[rng.below(5)]);
      }
    }
    sent.push_back(e);
    comm.send(0, static_cast<std::uint32_t>(i % 3), e);
  }
  comm.exchange();
  // Delivery preserves sender order per destination and decodes exactly.
  std::array<std::size_t, 3> cursor{};
  for (std::size_t i = 0; i < sent.size(); ++i) {
    const auto to = static_cast<std::uint32_t>(i % 3);
    const auto& in = comm.inbox(to);
    ASSERT_GT(in.size(), cursor[to]);
    EXPECT_EQ(in[cursor[to]].key, sent[i].key);
    EXPECT_EQ(in[cursor[to]].cnt, sent[i].cnt);
    ++cursor[to];
  }
  EXPECT_EQ(comm.stats().entries_sent, 200u);
  // The compressed encoding must beat the dense 88-byte row on these
  // sparse rows.
  EXPECT_GT(comm.stats().off_rank_entries, 0u);
  EXPECT_LT(comm.stats().off_rank_bytes(),
            comm.stats().off_rank_entries * comm.stats().entry_bytes);
  EXPECT_GT(comm.stats().wire_lane_density(), 0.0);
  // Every payload width was on the wire: the u16 / u32 / u64 boundaries
  // above round-trip exactly.
  for (int w = 0; w < 3; ++w) {
    EXPECT_GT(comm.stats().width_rows[w], 0u) << "width code " << w;
  }
}

TEST(LaneCompressWire, ScalarWireFormatUnchanged) {
  VirtualComm comm(2);
  TableEntry e;
  e.key.v[0] = 4;
  e.key.v[1] = 9;
  e.key.sig = 0b101;
  e.cnt = 7;
  comm.send(0, 1, e);
  comm.exchange();
  EXPECT_EQ(comm.stats().off_rank_bytes(),
            sizeof(TableKey) + sizeof(Count));
  ASSERT_EQ(comm.inbox(1).size(), 1u);
  EXPECT_EQ(comm.inbox(1)[0].cnt, 7u);
}

// ------------------------------------------------------ masked appends

/// Key -> summed lane counts, independent of row order, duplicates, and
/// the width the sink happened to hold them in.
template <int B>
std::map<std::array<std::uint64_t, 5>, std::array<Count, B>> flat_totals(
    FlatRowsT<B>&& rows) {
  std::map<std::array<std::uint64_t, 5>, std::array<Count, B>> out;
  for (const auto& e : rows.take_wide()) {
    auto& acc = out[{e.key.v[0], e.key.v[1], e.key.v[2], e.key.v[3],
                     e.key.sig}];
    for (int l = 0; l < B; ++l) acc[l] += LaneOps<B>::lane(e.cnt, l);
  }
  return out;
}

/// The masked append (no materialized masked vector) must agree with the
/// plain append of the materialized masked vector — the already-proven
/// path — for every mode the magnitude drives the sink into.
template <int B>
void run_masked_append_parity(Count magnitude, std::uint64_t seed) {
  Rng rng(seed);
  FlatRowsT<B> masked_sink;
  FlatRowsT<B> plain_sink;
  for (int i = 0; i < 4000; ++i) {
    TableKey k;
    k.v[0] = static_cast<VertexId>(rng.below(48));
    k.v[1] = static_cast<VertexId>(rng.below(48));
    k.sig = static_cast<Signature>(rng.below(256));
    if (rng.below(50) == 0) k.v[2] = 7;  // unpackable: wide fallback
    auto src = LaneOps<B>::zero();
    Count src_hi = 0;
    for (int l = 0; l < B; ++l) {
      if (rng.below(3) == 0) {
        const Count c = 1 + rng.below(magnitude);
        LaneOps<B>::set_lane(src, l, c);
        src_hi |= c;
      }
    }
    const auto m = static_cast<LaneMask>(rng.below(1u << B));
    masked_sink.append_masked(k, src, m, src_hi);
    plain_sink.append(k, LaneOps<B>::masked(src, m));
  }
  EXPECT_EQ(flat_totals(std::move(masked_sink)),
            flat_totals(std::move(plain_sink)));
}

TEST(LaneCompressFlat, MaskedAppendMatchesPlainB2) {
  run_masked_append_parity<2>(1000, 61);          // stays u16
  run_masked_append_parity<2>(100000, 62);        // escalates to u32
  run_masked_append_parity<2>(0x200000000ull, 63);  // escalates to wide
}
TEST(LaneCompressFlat, MaskedAppendMatchesPlainB4) {
  run_masked_append_parity<4>(1000, 71);
  run_masked_append_parity<4>(100000, 72);
  run_masked_append_parity<4>(0x200000000ull, 73);
}
TEST(LaneCompressFlat, MaskedAppendMatchesPlainB8) {
  run_masked_append_parity<8>(1000, 81);
  run_masked_append_parity<8>(100000, 82);
  run_masked_append_parity<8>(0x200000000ull, 83);
}

TEST(LaneCompressFlat, MaskedAppendEscalatesMidAccumulation) {
  // u16 -> u32 -> wide, forced mid-stream; earlier rows must survive each
  // conversion exactly, and a too-big count on a masked-OFF lane must NOT
  // escalate (the masked OR decides, not the raw source row).
  FlatRowsT<4> f;
  TableKey k;
  k.v[0] = 1;
  k.v[1] = 2;
  k.sig = 4;
  auto small = LaneOps<4>::zero();
  LaneOps<4>::set_lane(small, 0, 9);
  f.append_masked(k, small, 0b0001, 9);
  ASSERT_EQ(f.mode(), FlatRowsT<4>::Mode::kU16);

  auto big = LaneOps<4>::zero();
  LaneOps<4>::set_lane(big, 1, 0x12345ull);    // > u16
  LaneOps<4>::set_lane(big, 2, 0x1FFFFFFFFull);  // > u32, but masked off
  f.append_masked(k, big, 0b0010, 0x1FFFFFFFFull);
  EXPECT_EQ(f.mode(), FlatRowsT<4>::Mode::kU32);

  f.append_masked(k, big, 0b0100, 0x1FFFFFFFFull);
  EXPECT_EQ(f.mode(), FlatRowsT<4>::Mode::kWide);

  const auto totals = flat_totals(std::move(f));
  const std::array<std::uint64_t, 5> key{1, 2, kNoVertex, kNoVertex, 4};
  ASSERT_EQ(totals.count(key), 1u);
  const auto& c = totals.at(key);
  EXPECT_EQ(c[0], 9u);
  EXPECT_EQ(c[1], 0x12345ull);
  EXPECT_EQ(c[2], 0x1FFFFFFFFull);
  EXPECT_EQ(c[3], 0u);
}

TEST(LaneCompressFlat, MaskedU16StreamMatchesGenericAppend) {
  // The all-16-bit streaming append (packed key + u16 source row, no
  // width decision) against the generic masked append of the expanded
  // row — including after a mid-stream escalation flips it onto its
  // fallback path.
  Rng rng(91);
  FlatRowsT<8> stream_sink;
  FlatRowsT<8> generic_sink;
  auto emit_u16 = [&](bool escalated) {
    TableKey k;
    k.v[0] = static_cast<VertexId>(rng.below(40));
    k.v[1] = static_cast<VertexId>(rng.below(40));
    k.sig = static_cast<Signature>(rng.below(256));
    PackedFlatRowT<8, std::uint16_t> src;
    src.k = pack_key(k);
    auto expanded = LaneOps<8>::zero();
    for (int l = 0; l < 8; ++l) {
      src.c[l] = rng.below(3) == 0
                     ? static_cast<std::uint16_t>(1 + rng.below(0xFFFF))
                     : std::uint16_t{0};
      LaneOps<8>::set_lane(expanded, l, src.c[l]);
    }
    const auto m = static_cast<LaneMask>(rng.below(256));
    stream_sink.append_masked_u16(src.k, src, m);
    generic_sink.append_masked(k, expanded, m, std::uint64_t{0xFFFF});
    (void)escalated;
  };
  for (int i = 0; i < 3000; ++i) emit_u16(false);
  // Escalate both sinks out of u16 mode with one oversized generic
  // emission, then keep streaming: append_masked_u16 must take its
  // expand-and-fall-through branch and still agree.
  TableKey bigk;
  bigk.v[0] = 3;
  bigk.v[1] = 5;
  bigk.sig = 8;
  auto bigc = LaneOps<8>::zero();
  LaneOps<8>::set_lane(bigc, 0, 0x99999ull);
  stream_sink.append_masked(bigk, bigc, 0b1, 0x99999ull);
  generic_sink.append_masked(bigk, bigc, 0b1, 0x99999ull);
  ASSERT_NE(stream_sink.mode(), FlatRowsT<8>::Mode::kU16);
  for (int i = 0; i < 1000; ++i) emit_u16(true);
  EXPECT_EQ(flat_totals(std::move(stream_sink)),
            flat_totals(std::move(generic_sink)));
}

TEST(LaneCompressFlat, CombiningCacheU16OverflowFallsThroughToSeal) {
  // Repeated same-key u16 appends whose running sum outgrows u16: the
  // combining cache must fall through to duplicate rows (not wrap), and
  // the sealing merge must escalate the buffer and sum exactly.
  FlatRowsT<2> f;
  TableKey k;
  k.v[0] = 6;
  k.v[1] = 9;
  k.sig = 2;
  PackedFlatRowT<2, std::uint16_t> src;
  src.k = pack_key(k);
  src.c = {0x7000, 0};
  const int reps = 40;  // 40 * 0x7000 = 0x118000 > u16
  for (int i = 0; i < reps; ++i) f.append_masked_u16(src.k, src, 0b01);
  // Every second append fits the live row (0x7000 + 0x7000 <= 0xFFFF)
  // and folds; the one after overflows and pushes a fresh row.
  AccumTelemetry tel;
  f.collect_telemetry(tel);
  EXPECT_EQ(tel.phases, 1u);
  EXPECT_EQ(tel.rows, static_cast<std::uint64_t>(reps / 2));
  EXPECT_EQ(tel.combine_folds, static_cast<std::uint64_t>(reps / 2));
  EXPECT_EQ(tel.emit_bytes, tel.rows * sizeof(src));
  ASSERT_TRUE(f.sort_by_slot(1, 16));
  f.merge_duplicates();
  EXPECT_FALSE(f.mode() == FlatRowsT<2>::Mode::kU16);
  const auto totals = flat_totals(std::move(f));
  const std::array<std::uint64_t, 5> key{6, 9, kNoVertex, kNoVertex, 2};
  ASSERT_EQ(totals.count(key), 1u);
  EXPECT_EQ(totals.at(key)[0], static_cast<Count>(reps) * 0x7000ull);
  EXPECT_EQ(totals.at(key)[1], 0u);
}

TEST(LaneCompressFlat, EveryAppendPathCountsItsFolds) {
  // The generic, masked and u16 appends all fold a hot key into its live
  // row; each fold is one combine_folds tick in the phase telemetry.
  TableKey k;
  k.v[0] = 3;
  k.v[1] = 4;
  k.sig = 5;
  auto c = LaneOps<4>::zero();
  LaneOps<4>::set_lane(c, 1, 2);
  PackedFlatRowT<4, std::uint16_t> src;
  src.k = pack_key(k);
  src.c = {0, 2, 0, 0};
  FlatRowsT<4> f;
  for (int i = 0; i < 5; ++i) f.append(k, c);
  for (int i = 0; i < 5; ++i) f.append_masked(k, c, 0b0010, 2);
  for (int i = 0; i < 5; ++i) f.append_masked_u16(src.k, src, 0b0010);
  AccumTelemetry tel;
  f.collect_telemetry(tel);
  EXPECT_EQ(tel.rows, 1u);
  EXPECT_EQ(tel.combine_folds, 14u);
  // The counter survives the per-thread reduction.
  FlatRowsT<4> g;
  for (int i = 0; i < 3; ++i) g.append(k, c);
  f.absorb(std::move(g));
  AccumTelemetry sum;
  f.collect_telemetry(sum);
  EXPECT_EQ(sum.combine_folds, 16u);
  EXPECT_EQ(sum.rows, 2u);
}

template <int B>
using RowSpec = std::pair<TableKey, typename LaneOps<B>::Vec>;

/// The oracle: key -> summed lane counts straight from the emission list.
template <int B>
std::map<std::array<std::uint64_t, 5>, std::array<Count, B>> spec_totals(
    const std::vector<RowSpec<B>>& rows) {
  std::map<std::array<std::uint64_t, 5>, std::array<Count, B>> out;
  for (const auto& [k, c] : rows) {
    auto& acc = out[{k.v[0], k.v[1], k.v[2], k.v[3], k.sig}];
    for (int l = 0; l < B; ++l) acc[l] += LaneOps<B>::lane(c, l);
  }
  return out;
}

/// Append `rows` round-robin across `parts` sinks, then absorb into one —
/// the per-thread reduction shape accumulate_flat uses.
template <int B>
FlatRowsT<B> build_sink(const std::vector<RowSpec<B>>& rows, int parts) {
  std::vector<FlatRowsT<B>> sinks(parts);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    sinks[i % parts].append(rows[i].first, rows[i].second);
  }
  FlatRowsT<B> out = std::move(sinks[0]);
  for (int p = 1; p < parts; ++p) out.absorb(std::move(sinks[p]));
  return out;
}

/// Same-v1 burst stream with in-burst and cross-burst duplicates — the
/// extend loop's emission shape, which the combining cache folds.
template <int B>
std::vector<RowSpec<B>> burst_stream(Rng& rng, int bursts, int burst_len,
                                     VertexId domain, Count max_count) {
  std::vector<RowSpec<B>> rows;
  rows.reserve(static_cast<std::size_t>(bursts) * burst_len);
  for (int b = 0; b < bursts; ++b) {
    const auto v1 = static_cast<VertexId>(rng.below(domain / 2) * 2 %
                                          domain);
    for (int i = 0; i < burst_len; ++i) {
      TableKey k;
      k.v[0] = static_cast<VertexId>(rng.below(domain));
      k.v[1] = v1;
      k.sig = static_cast<Signature>(rng.below(32));
      auto c = LaneOps<B>::zero();
      LaneOps<B>::set_lane(c, static_cast<int>(rng.below(B)),
                           1 + rng.below(max_count));
      rows.push_back({k, c});
      if (i % 4 == 3) rows.push_back(rows.back());  // in-burst dup
    }
  }
  return rows;
}

/// Accumulate `rows` across four absorbed sinks, check the width the
/// phase ended at, seal by `slot` and require one row per key, in slot
/// order, with the oracle's exact totals. A sink that went wide refuses
/// the narrow sort (the table seals on the dense path instead).
template <int B>
void expect_exact_seal(const std::vector<RowSpec<B>>& rows, int slot,
                       VertexId domain,
                       typename FlatRowsT<B>::Mode accumulated) {
  FlatRowsT<B> f = build_sink<B>(rows, 4);
  ASSERT_EQ(f.mode(), accumulated);
  const bool sorted = f.sort_by_slot(slot, domain);
  ASSERT_EQ(sorted, f.narrow());
  if (sorted) {
    f.merge_duplicates();
    std::vector<std::uint64_t> keys;
    if (f.mode() == FlatRowsT<B>::Mode::kU16) {
      for (const auto& r : f.rows_u16()) keys.push_back(r.k);
    } else if (f.mode() == FlatRowsT<B>::Mode::kU32) {
      for (const auto& r : f.rows_u32()) keys.push_back(r.k);
    }
    auto order = [slot](std::uint64_t k) {
      const std::uint64_t field = (k >> (slot == 0 ? 36 : 8)) &
                                  kPacked28NoVertex;
      return std::pair{field, k};
    };
    for (std::size_t i = 1; i < keys.size(); ++i) {
      ASSERT_LT(order(keys[i - 1]), order(keys[i])) << "row " << i;
    }
  }
  EXPECT_EQ(flat_totals(std::move(f)), spec_totals<B>(rows));
}

template <int B>
void run_fold_suite(Count max_count) {
  const VertexId domain = 50'000;
  for (const int slot : {0, 1}) {
    Rng rng(900 + slot);
    expect_exact_seal<B>(burst_stream<B>(rng, 400, 24, domain, max_count),
                         slot, domain, FlatRowsT<B>::Mode::kU16);
    // Tiny table: the comparison sort below the radix cutoff.
    expect_exact_seal<B>(burst_stream<B>(rng, 8, 6, domain, max_count),
                         slot, domain, FlatRowsT<B>::Mode::kU16);
    // Dup-heavy 24-key universe: long combining-cache hit chains.
    expect_exact_seal<B>(burst_stream<B>(rng, 300, 20, 24, max_count),
                         slot, 24, FlatRowsT<B>::Mode::kU16);
  }
}

TEST(LaneCompressFlat, FoldedAccumulationSealsExactlyB2) {
  run_fold_suite<2>(9);
}
TEST(LaneCompressFlat, FoldedAccumulationSealsExactlyB8) {
  run_fold_suite<8>(9);
}
// Counts near the u16 folding edge: cache sums overflow into duplicate
// rows, and only the seal's merge may escalate the width.
TEST(LaneCompressFlat, FoldOverflowFallsThroughToSealB8) {
  run_fold_suite<8>(60'000);
}

/// A u16 burst stream with oversized counts spliced in from a third of
/// the way on: the sink escalates mid-phase (u16 -> u32 for counts past
/// u16, straight to wide past u32), carries every earlier row across,
/// and keeps folding in the wider width.
template <int B>
void run_escalation_suite(Count big,
                          typename FlatRowsT<B>::Mode accumulated) {
  const VertexId domain = 50'000;
  Rng rng(4242);
  std::vector<RowSpec<B>> rows = burst_stream<B>(rng, 300, 24, domain, 9);
  for (std::size_t i = rows.size() / 3; i < rows.size();
       i += rows.size() / 5) {
    auto c = LaneOps<B>::zero();
    LaneOps<B>::set_lane(c, static_cast<int>(i % B), big);
    rows[i].second = c;
  }
  for (const int slot : {0, 1}) {
    expect_exact_seal<B>(rows, slot, domain, accumulated);
  }
}

TEST(LaneCompressFlat, MidPhaseEscalateToU32B8) {
  run_escalation_suite<8>(Count{1} << 20, FlatRowsT<8>::Mode::kU32);
}
TEST(LaneCompressFlat, MidPhaseEscalateToU32B2) {
  run_escalation_suite<2>(Count{1} << 20, FlatRowsT<2>::Mode::kU32);
}
TEST(LaneCompressFlat, MidPhaseEscalateToWideB8) {
  run_escalation_suite<8>(Count{1} << 40, FlatRowsT<8>::Mode::kWide);
}

TEST(LaneCompressFlat, AbsorbAcrossWidthsIsExact) {
  // Per-thread sinks can end a phase at different widths: absorb raises
  // both sides to the wider one, in either order, losing no count.
  constexpr int B = 8;
  using Mode = FlatRowsT<B>::Mode;
  Rng rng(321);
  const auto base = burst_stream<B>(rng, 100, 16, 5000, 9);
  auto extra_row = [](Mode m) {
    TableKey k;
    k.v[0] = 11;
    k.v[1] = 13;
    k.sig = 1;
    auto c = LaneOps<B>::zero();
    LaneOps<B>::set_lane(c, 2, m == Mode::kU16 ? 3 : Count{1} << 20);
    if (m == Mode::kWide) k.v[2] = 17;  // unpackable key
    return RowSpec<B>{k, c};
  };
  for (const Mode ma : {Mode::kU16, Mode::kU32, Mode::kWide}) {
    for (const Mode mb : {Mode::kU16, Mode::kU32, Mode::kWide}) {
      std::vector<RowSpec<B>> all;
      FlatRowsT<B> a;
      FlatRowsT<B> b;
      for (std::size_t i = 0; i < base.size(); ++i) {
        (i % 2 == 0 ? a : b).append(base[i].first, base[i].second);
        all.push_back(base[i]);
      }
      for (const auto& [sink, m] : {std::pair{&a, ma}, std::pair{&b, mb}}) {
        const RowSpec<B> r = extra_row(m);
        sink->append(r.first, r.second);
        all.push_back(r);
        ASSERT_EQ(sink->mode(), m);
      }
      a.absorb(std::move(b));
      EXPECT_EQ(a.mode(), std::max(ma, mb));
      EXPECT_TRUE(b.empty());
      EXPECT_EQ(flat_totals(std::move(a)), spec_totals<B>(all));
    }
  }
}

// ------------------------------------------------------------ lane simd

TEST(LaneSimd, Avx2KernelsMatchScalarOps) {
  if (!lane_simd_avx2_supported()) {
    GTEST_SKIP() << "no AVX2 on this CPU";
  }
#if CCBT_LANE_SIMD_X86
  // Direct kernel-vs-LaneOps comparison: wrapping products, boundary
  // masks, zero vectors — the dispatch front end must be bit-identical
  // whichever side it picks.
  Rng rng(101);
  for (int iter = 0; iter < 2000; ++iter) {
    std::array<Count, 8> a{};
    std::array<Count, 8> b{};
    for (int l = 0; l < 8; ++l) {
      const int shape = static_cast<int>(rng.below(4));
      a[l] = shape == 0 ? 0 : rng.below(~std::uint64_t{0});
      b[l] = shape == 1 ? 0 : rng.below(~std::uint64_t{0});
    }
    const auto m = static_cast<LaneMask>(rng.below(256));

    std::array<Count, 8> got{};
    detail_simd::mul_masked_avx2(a.data(), b.data(), got.data(), m, 2);
    EXPECT_EQ(got, LaneOps<8>::mul_masked(a, b, m));

    detail_simd::masked_avx2(a.data(), got.data(), m, 2);
    EXPECT_EQ(got, LaneOps<8>::masked(a, m));

    std::array<Count, 8> d = a;
    std::array<Count, 8> dref = a;
    detail_simd::add_avx2(d.data(), b.data(), 2);
    LaneOps<8>::add(dref, b);
    EXPECT_EQ(d, dref);

    EXPECT_EQ(detail_simd::is_zero_avx2(a.data(), 2),
              LaneOps<8>::is_zero(a));

    LaneMask ref = 0;
    for (int l = 0; l < 8; ++l) {
      ref |= static_cast<LaneMask>(a[l] != 0) << l;
    }
    EXPECT_EQ(detail_simd::nonzero_mask_avx2(a.data(), 2), ref);
  }
  // All-zero and all-ones edges.
  std::array<Count, 8> zero{};
  EXPECT_TRUE(detail_simd::is_zero_avx2(zero.data(), 2));
  EXPECT_EQ(detail_simd::nonzero_mask_avx2(zero.data(), 2), 0u);
#endif
}

// ------------------------------------------------------- packed merge

/// Shared fixture pieces for the merge parity tests: a B-lane context
/// whose colorings the pair-compatibility test consults.
template <int B>
struct MergeCx {
  CsrGraph g;
  std::vector<Coloring> lanes;
  ColoringBatch chi;
  DegreeOrder order;
  ExecOptions opts;
  ExecContext cx;

  explicit MergeCx(std::uint64_t seed, VertexId n = 64)
      : g(erdos_renyi(n, 4 * n, seed)),
        lanes(make_lanes(n, seed)),
        chi(std::span<const Coloring>(lanes)),
        order(g),
        cx{g, chi, order, BlockPartition(n, 2), nullptr, opts} {}

  static std::vector<Coloring> make_lanes(VertexId n, std::uint64_t seed) {
    std::vector<Coloring> ls;
    for (int l = 0; l < B; ++l) ls.emplace_back(n, 8, seed * 131 + l);
    return ls;
  }
};

/// One slot-0 bucket of coherent half-path rows keyed (u, v, sig),
/// sorted in the sealed kByV0V1 order, as both the dense entries and the
/// equivalent packed narrow rows. Signatures mix lane-consistent pairs
/// (so emissions actually happen) with random bytes (so the prefilter
/// rejects), counts live only on `allowed` lanes at `mag` magnitude, and
/// a few rows are all-zero (the dead-row skip).
template <int B, typename W>
std::pair<std::vector<TableEntryT<B>>, std::vector<PackedFlatRowT<B, W>>>
merge_bucket_rows(const ColoringBatch& chi, VertexId u, Count mag,
                  LaneMask allowed, Rng& rng) {
  std::vector<TableEntryT<B>> dense(300);
  for (auto& e : dense) {
    e.key.v[0] = u;
    e.key.v[1] = static_cast<VertexId>(rng.below(20));
    const int cl = static_cast<int>(rng.below(B));
    e.key.sig = rng.below(3) == 0
                    ? static_cast<Signature>(rng.below(256))
                    : static_cast<Signature>(chi.bit(e.key.v[0], cl) |
                                             chi.bit(e.key.v[1], cl) |
                                             (rng.below(2) == 0
                                                  ? Signature{1}
                                                        << rng.below(8)
                                                  : Signature{0}));
    if (rng.below(10) != 0) {
      for (int l = 0; l < B; ++l) {
        if (((allowed >> l) & 1u) != 0 && rng.below(2) == 0) {
          LaneOps<B>::set_lane(e.cnt, l, 1 + rng.below(mag));
        }
      }
    }
  }
  std::sort(dense.begin(), dense.end(), [](const auto& a, const auto& b) {
    return pack_key(a.key) < pack_key(b.key);
  });
  std::vector<PackedFlatRowT<B, W>> packed(dense.size());
  for (std::size_t i = 0; i < dense.size(); ++i) {
    packed[i].k = pack_key(dense[i].key);
    for (int l = 0; l < B; ++l) {
      packed[i].c[l] = static_cast<W>(LaneOps<B>::lane(dense[i].cnt, l));
    }
  }
  return {std::move(dense), std::move(packed)};
}

/// merge_bucket_packed against merge_bucket on the same bucket pair:
/// identical emission sequence (keys, counts, order) for the given width
/// pairing and live-lane shapes.
template <int B, typename WP, typename WM>
void run_packed_kernel_parity(std::uint64_t seed, Count pmag, Count mmag,
                             LaneMask plus_lanes, LaneMask minus_lanes,
                             bool expect_emissions) {
  MergeCx<B> f(seed);
  Rng rng(seed);
  const VertexId u = 5;
  auto [pd, pp] = merge_bucket_rows<B, WP>(f.chi, u, pmag, plus_lanes, rng);
  auto [md, mp] = merge_bucket_rows<B, WM>(f.chi, u, mmag, minus_lanes, rng);

  using Emit = std::pair<TableKey, typename LaneOps<B>::Vec>;
  for (const int arity : {2, 1, 0}) {
    MergeSpec spec;
    spec.out_arity = arity;
    spec.out[0] = {0, 0};
    spec.out[1] = {1, 1};
    std::vector<Emit> dense_out, packed_out;
    merge_bucket<B>(f.cx, std::span<const TableEntryT<B>>(pd),
                    std::span<const TableEntryT<B>>(md), spec,
                    [&](const TableKey& k, const auto& c) {
                      dense_out.emplace_back(k, c);
                    });
    merge_bucket_packed<B>(f.cx, std::span<const PackedFlatRowT<B, WP>>(pp),
                           std::span<const PackedFlatRowT<B, WM>>(mp), spec,
                           [&](const TableKey& k, const auto& c) {
                             packed_out.emplace_back(k, c);
                           });
    ASSERT_EQ(dense_out.size(), packed_out.size()) << "arity " << arity;
    for (std::size_t i = 0; i < dense_out.size(); ++i) {
      EXPECT_EQ(dense_out[i].first, packed_out[i].first) << "row " << i;
      EXPECT_EQ(dense_out[i].second, packed_out[i].second) << "row " << i;
    }
    if (arity == 2) {
      EXPECT_EQ(!dense_out.empty(), expect_emissions);
    }
  }
}

TEST(PackedMerge, KernelMatchesDenseU16xU16) {
  run_packed_kernel_parity<8, std::uint16_t, std::uint16_t>(
      301, 900, 900, 0xFF, 0xFF, true);
  run_packed_kernel_parity<4, std::uint16_t, std::uint16_t>(
      302, 900, 900, 0xF, 0xF, true);
  run_packed_kernel_parity<2, std::uint16_t, std::uint16_t>(
      303, 900, 900, 0x3, 0x3, true);
}

TEST(PackedMerge, KernelMatchesDenseMixedWidths) {
  // u16 x u32 both ways, and u32 x u32 with near-boundary counts whose
  // products stress the no-wrap claim (0xFFFFFFFF^2 < 2^64).
  run_packed_kernel_parity<8, std::uint16_t, std::uint32_t>(
      311, 0xFFFF, 0xFFFFFFFFull, 0xFF, 0xFF, true);
  run_packed_kernel_parity<8, std::uint32_t, std::uint16_t>(
      312, 0xFFFFFFFFull, 0xFFFF, 0xFF, 0xFF, true);
  run_packed_kernel_parity<8, std::uint32_t, std::uint32_t>(
      313, 0xFFFFFFFFull, 0xFFFFFFFFull, 0xFF, 0xFF, true);
}

TEST(PackedMerge, DisjointLiveLanesEmitNothingOnBothPaths) {
  // Plus rows live only in the low half-lanes, minus rows only in the
  // high half: every pair fails the live-lane intersection, so both
  // kernels must emit nothing (and agree on that).
  run_packed_kernel_parity<8, std::uint16_t, std::uint16_t>(
      321, 900, 900, 0x0F, 0xF0, false);
  run_packed_kernel_parity<4, std::uint16_t, std::uint16_t>(
      322, 900, 900, 0x3, 0xC, false);
}

/// merge_halves over a from_packed (narrow) build of the halves must
/// reach the same sink as over a from_flat (dense) build of the same
/// rows — `wide_escape` poisons the plus half with an unpackable key
/// first, so the narrow build exercises the mixed-layout dispatch
/// (narrow minus, dense plus) instead.
template <int B>
void run_merge_halves_parity(std::uint64_t seed, bool wide_escape) {
  using Vec = typename LaneOps<B>::Vec;
  std::vector<std::pair<TableKey, Vec>> prows, mrows;
  {
    MergeCx<B> f(seed);
    Rng rng(seed + 1);
    for (const VertexId u : {3u, 5u, 9u, 11u, 20u}) {
      auto [pd, pp] =
          merge_bucket_rows<B, std::uint16_t>(f.chi, u, 900, 0xFF, rng);
      auto [md, mp] =
          merge_bucket_rows<B, std::uint16_t>(f.chi, u, 900, 0xFF, rng);
      for (const auto& e : pd) prows.emplace_back(e.key, e.cnt);
      for (const auto& e : md) mrows.emplace_back(e.key, e.cnt);
    }
    if (wide_escape) {
      TableKey k;
      k.v[0] = 3;
      k.v[1] = 4;
      k.v[2] = 6;  // unpackable: drives the flat sink wide
      k.sig = 0x11;
      Vec c{};
      LaneOps<B>::set_lane(c, 0, 2);
      prows.emplace_back(k, c);
    }
  }
  MergeSpec spec;
  spec.out_arity = 2;
  spec.out[0] = {0, 0};
  spec.out[1] = {1, 1};
  std::array<std::vector<std::pair<std::array<std::uint64_t, 5>,
                                   std::array<Count, B>>>,
             2>
      results;
  auto build = [](const std::vector<std::pair<TableKey, Vec>>& rows,
                  bool packed) {
    if (!packed) {
      std::vector<TableEntryT<B>> dense;
      for (const auto& [k, c] : rows) dense.push_back({k, c});
      return ProjTableT<B>::from_flat(2, std::move(dense));
    }
    FlatRowsT<B> f;
    for (const auto& [k, c] : rows) f.append(k, c);
    return ProjTableT<B>::from_packed(2, std::move(f));
  };
  for (const bool packed : {false, true}) {
    MergeCx<B> f(seed);
    ProjTableT<B> plus = build(prows, packed);
    ProjTableT<B> minus = build(mrows, packed);
    AccumMapT<B> sink(16, true);
    merge_halves<B>(f.cx, plus, minus, spec, sink);
    // The dense build never reaches the packed kernel; the narrow build
    // keeps the minus half narrow (and the plus half too, unless
    // poisoned).
    EXPECT_EQ(minus.flat_storage() != nullptr, packed);
    EXPECT_EQ(plus.flat_storage() != nullptr, packed && !wide_escape);
    auto& out = results[packed ? 1 : 0];
    sink.for_each([&](const TableKey& k, const Vec& c) {
      std::array<Count, B> cs{};
      for (int l = 0; l < B; ++l) cs[l] = LaneOps<B>::lane(c, l);
      out.emplace_back(
          std::array<std::uint64_t, 5>{k.v[0], k.v[1], k.v[2], k.v[3],
                                       k.sig},
          cs);
    });
    std::sort(out.begin(), out.end());
  }
  EXPECT_FALSE(results[0].empty());
  EXPECT_EQ(results[0], results[1]);
}

TEST(PackedMerge, MergeHalvesPackedMatchesDenseB8) {
  run_merge_halves_parity<8>(331, /*wide_escape=*/false);
}
TEST(PackedMerge, MergeHalvesPackedMatchesDenseB2) {
  run_merge_halves_parity<2>(332, /*wide_escape=*/false);
}
TEST(PackedMerge, MergeHalvesWideEscapeFallsBackIdentically) {
  run_merge_halves_parity<8>(333, /*wide_escape=*/true);
}

// ------------------------------------------------------- stored tables

/// The invariant the joins rely on when they probe a stored child table
/// through group(): the table is dense (entries() does not throw), and
/// group(0, v) returns exactly the rows a for_each_entry scan finds with
/// slot 0 equal to v, in table order.
template <int B>
void expect_dense_probe_matches_scan(const ProjTableT<B>& t, VertexId n,
                                     const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(t.flat_storage(), nullptr);
  ASSERT_NO_THROW((void)t.entries());
  EXPECT_EQ(t.entries().size(), t.size());
  std::map<VertexId, std::vector<TableEntryT<B>>> scan;
  t.for_each_entry([&](const TableEntryT<B>& e) {
    scan[e.key.v[0]].push_back(e);
  });
  std::size_t seen = 0;
  for (VertexId v = 0; v < n + 2; ++v) {
    std::span<const TableEntryT<B>> got;
    ASSERT_NO_THROW(got = t.group(0, v)) << "v " << v;
    const auto it = scan.find(v);
    const std::size_t want = it == scan.end() ? 0 : it->second.size();
    ASSERT_EQ(got.size(), want) << "v " << v;
    for (std::size_t i = 0; i < want; ++i) {
      EXPECT_EQ(got[i].key, it->second[i].key) << "v " << v;
      EXPECT_EQ(got[i].cnt, it->second[i].cnt) << "v " << v;
    }
    seen += want;
  }
  EXPECT_EQ(seen, t.size());
}

TEST(StoredTables, StayDenseAfterStoreTransposeAndRestore) {
  constexpr int B = 8;
  const VertexId n = 64;
  MergeCx<B> f(341, n);
  // Block results the way the engine builds them from narrow path
  // tables: a cycle block's merge sink (binary) and a leaf block's
  // aggregation (unary), both through from_map.
  ProjTableT<B> plus = init_path_from_graph<B>(f.cx, ExtendOpts{});
  ProjTableT<B> minus = init_path_from_graph<B>(f.cx, ExtendOpts{});
  ASSERT_NE(plus.flat_storage(), nullptr);
  MergeSpec spec;
  spec.out_arity = 2;
  spec.out[0] = {0, 0};
  spec.out[1] = {1, 1};
  AccumMapT<B> sink(16, true);
  merge_halves<B>(f.cx, plus, minus, spec, sink);
  ASSERT_FALSE(sink.empty());
  ProjTableT<B> binary = ProjTableT<B>::from_map(2, std::move(sink));
  ProjTableT<B> unary = aggregate<B>(f.cx, plus, 1);
  ASSERT_FALSE(unary.empty());

  TablePoolT<B> pool(2, n);
  pool.store(0, std::move(binary));
  pool.store(1, std::move(unary));
  expect_dense_probe_matches_scan<B>(pool.get(0), n, "stored binary");
  expect_dense_probe_matches_scan<B>(pool.get(1), n, "stored unary");
  expect_dense_probe_matches_scan<B>(pool.oriented(0, true), n,
                                     "transposed binary");

  // Checkpoint restore: DistPool::restore decodes each shard image and
  // rebuilds the table with from_shard_rows, sealed kByV0.
  const ProjTableT<B>& stored = pool.get(0);
  const std::uint32_t ranks = 3;
  const BlockPartition part(n, ranks);
  std::vector<std::vector<TableEntryT<B>>> shard_rows(ranks);
  stored.for_each_entry([&](const TableEntryT<B>& e) {
    shard_rows[part.owner(e.key.v[0])].push_back(e);
  });
  const DistTableT<B> original = DistTableT<B>::from_shard_rows(
      2, 0, std::move(shard_rows), SortOrder::kByV0, n);
  std::vector<std::vector<TableEntryT<B>>> decoded;
  for (std::uint32_t r = 0; r < ranks; ++r) {
    decoded.push_back(
        checkpoint_decode_shard<B>(checkpoint_encode_shard<B>(
            original.shard(r))));
  }
  const DistTableT<B> restored = DistTableT<B>::from_shard_rows(
      2, 0, std::move(decoded), SortOrder::kByV0, n);
  ASSERT_EQ(restored.num_shards(), ranks);
  for (std::uint32_t r = 0; r < ranks; ++r) {
    expect_dense_probe_matches_scan<B>(restored.shard(r), n,
                                       "restored shard");
    const auto want = original.shard(r).entries();
    const auto got = restored.shard(r).entries();
    ASSERT_EQ(got.size(), want.size()) << "shard " << r;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].key, want[i].key) << "shard " << r << " row " << i;
      EXPECT_EQ(got[i].cnt, want[i].cnt) << "shard " << r << " row " << i;
    }
  }
}

// -------------------------------------------------------- end to end

TEST(LaneCompressEngine, CompressedAndDenseRunsAgreeLaneForLane) {
  // Per-lane counts cannot depend on the layout. The dense run never
  // builds narrow halves, so on the cycle queries every merge bucket
  // pair goes through merge_bucket instead of merge_bucket_packed.
  const CsrGraph g = erdos_renyi(60, 260, 9);
  for (const QueryGraph& q :
       {q_glet2(), q_wiki(), q_cycle(5), q_cycle(6), q_dros()}) {
    ExecOptions on;
    on.lane_compress = true;
    ExecOptions off;
    off.lane_compress = false;
    CountingSession son(g, q, make_plan(q), on);
    CountingSession soff(g, q, make_plan(q), off);
    std::vector<std::uint64_t> seeds{900, 901, 902, 903, 904, 905, 906,
                                     907};
    const ExecStats a = son.count_colorful_seeded(
        std::span<const std::uint64_t>(seeds.data(), 8));
    const ExecStats b = soff.count_colorful_seeded(
        std::span<const std::uint64_t>(seeds.data(), 8));
    for (int l = 0; l < 8; ++l) {
      EXPECT_EQ(a.colorful_lane[l], b.colorful_lane[l])
          << q.name() << " lane " << l;
    }
    // Both runs observed lane density; only the compressed run kept
    // narrow flat tables.
    EXPECT_GT(a.lanes.rows, 0u);
    EXPECT_GT(a.lanes.rows_packed, 0u);
    EXPECT_EQ(b.lanes.rows_packed, 0u);
  }
}

TEST(LaneCompressEngine, DistributedAgreesWithSharedUnderCompression) {
  const CsrGraph g = erdos_renyi(40, 170, 15);
  const QueryGraph q = q_glet2();
  const Plan plan = make_plan(q);
  ExecOptions opts;
  std::vector<Coloring> lanes;
  for (int l = 0; l < 8; ++l) {
    lanes.emplace_back(g.num_vertices(), q.num_nodes(), 1200 + l);
  }
  const ColoringBatch batch(lanes);
  CountingSession session(g, q, plan, opts);
  const ExecStats shared = session.count_colorful(batch);
  const DistStats dist =
      run_plan_distributed(g, plan.tree, batch, /*ranks=*/3, opts);
  for (int l = 0; l < 8; ++l) {
    EXPECT_EQ(dist.colorful_lane[l], shared.colorful_lane[l]) << l;
  }
  // The wire carried lane-compressed rows and accounted their density.
  EXPECT_GT(dist.transport.lane_slots_sent, 0u);
  EXPECT_GT(dist.transport.wire_lane_density(), 0.0);
  EXPECT_LE(dist.transport.off_rank_bytes(),
            dist.transport.off_rank_entries * dist.transport.entry_bytes);
}

}  // namespace
}  // namespace ccbt
