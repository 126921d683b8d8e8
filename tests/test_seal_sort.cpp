// The narrow seal's two sorts — the LSD radix sort over the
// slot-permuted packed key and the counting partition + per-bucket
// comparison sort — must be interchangeable: same row order (stability
// included), same escalation decisions, same merged counts, across every
// batch width, payload width, and adversarial key distribution.
// sort_by_slot picks one by row count alone; these tests call each
// directly (sort_by_slot_radix / sort_by_slot_comparison). The checkpoint
// restore path additionally relies on a sorted input surviving the radix
// sort untouched.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "ccbt/table/flat_rows.hpp"
#include "ccbt/table/table_key.hpp"
#include "ccbt/util/rng.hpp"

namespace ccbt {
namespace {

template <int B>
using RowSpec = std::pair<TableKey, typename LaneOps<B>::Vec>;

/// Append `rows` round-robin across `parts` sinks and absorb them into
/// one. Duplicate keys landing in different parts survive the combining
/// cache as distinct rows — exactly how per-thread sinks produce the
/// duplicate runs whose relative order the stability claim is about.
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

template <int B, typename W>
void expect_same_rows(const std::vector<PackedFlatRowT<B, W>>& a,
                      const std::vector<PackedFlatRowT<B, W>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].k, b[i].k) << "row " << i;
    ASSERT_EQ(a[i].c, b[i].c) << "row " << i;
  }
}

/// Whole-sink equality in whatever mode both ended up in.
template <int B>
void expect_same_sink(FlatRowsT<B>& a, FlatRowsT<B>& b) {
  ASSERT_EQ(a.mode(), b.mode());
  switch (a.mode()) {
    case FlatRowsT<B>::Mode::kU16:
      expect_same_rows<B>(a.rows_u16(), b.rows_u16());
      return;
    case FlatRowsT<B>::Mode::kU32:
      expect_same_rows<B>(a.rows_u32(), b.rows_u32());
      return;
    case FlatRowsT<B>::Mode::kWide: break;
  }
  const auto wa = a.take_wide();
  const auto wb = b.take_wide();
  ASSERT_EQ(wa.size(), wb.size());
  for (std::size_t i = 0; i < wa.size(); ++i) {
    ASSERT_EQ(wa[i].key, wb[i].key) << "row " << i;
    ASSERT_EQ(wa[i].cnt, wb[i].cnt) << "row " << i;
  }
}

/// Packed-key sequence of the sink in its current (narrow) mode.
template <int B>
std::vector<std::uint64_t> keys_of(const FlatRowsT<B>& f) {
  std::vector<std::uint64_t> ks;
  switch (f.mode()) {
    case FlatRowsT<B>::Mode::kU16:
      for (const auto& r : f.rows_u16()) ks.push_back(r.k);
      break;
    case FlatRowsT<B>::Mode::kU32:
      for (const auto& r : f.rows_u32()) ks.push_back(r.k);
      break;
    case FlatRowsT<B>::Mode::kWide: break;
  }
  return ks;
}

/// The core property: both sorts report the same success, produce the
/// same key sequence (equal-key rows are interchangeable only until the
/// dedup sums their run — the comparison sort's per-bucket sort does
/// not promise their relative order), and after merge_duplicates hold
/// the same deduped rows, escalation mode and scan stats bit for bit.
template <int B>
void expect_sort_parity(const std::vector<RowSpec<B>>& rows, int slot,
                        VertexId domain, int parts = 4) {
  FlatRowsT<B> cmp = build_sink<B>(rows, parts);
  FlatRowsT<B> rad = build_sink<B>(rows, parts);
  const bool cmp_ok = cmp.sort_by_slot_comparison(slot, domain);
  const bool rad_ok = rad.sort_by_slot_radix(slot, domain);
  ASSERT_EQ(cmp_ok, rad_ok);
  if (!cmp_ok) {
    // A refused sort must leave the rows exactly as appended.
    expect_same_sink(cmp, rad);
    return;
  }
  EXPECT_EQ(keys_of(cmp), keys_of(rad));
  const FlatStats sc = cmp.merge_duplicates();
  const FlatStats sr = rad.merge_duplicates();
  EXPECT_EQ(sc.rows, sr.rows);
  EXPECT_EQ(sc.lanes_occupied, sr.lanes_occupied);
  EXPECT_EQ(sc.max_count, sr.max_count);
  expect_same_sink(cmp, rad);
}

template <int B>
RowSpec<B> make_row(Rng& rng, VertexId domain, Count max_count) {
  TableKey k;
  k.v[0] = static_cast<VertexId>(rng.below(domain));
  k.v[1] = static_cast<VertexId>(rng.below(domain));
  k.sig = static_cast<Signature>(rng.below(256));
  auto c = LaneOps<B>::zero();
  LaneOps<B>::set_lane(c, static_cast<int>(rng.below(B)),
                       1 + rng.below(max_count));
  return {k, c};
}

template <int B>
void run_distribution_suite(Count max_count) {
  const VertexId domain = 300;
  for (const int slot : {0, 1}) {
    // Uniform keys, below the radix row-count cutoff (the pinned radix
    // call still exercises the radix sort there).
    {
      Rng rng(100 + slot);
      std::vector<RowSpec<B>> rows;
      for (int i = 0; i < 1500; ++i) {
        rows.push_back(make_row<B>(rng, domain, max_count));
      }
      expect_sort_parity<B>(rows, slot, domain);
    }
    // Above the cutoff (sort_by_slot also picks radix here),
    // duplicate-heavy:
    // a 24-key universe over 6000 rows makes ~250-row equal-key runs.
    {
      Rng rng(200 + slot);
      std::vector<RowSpec<B>> rows;
      for (int i = 0; i < 6000; ++i) {
        rows.push_back(make_row<B>(rng, 24, max_count));
      }
      expect_sort_parity<B>(rows, slot, domain);
    }
    // All-equal keys: one run spanning the whole input.
    {
      Rng rng(300);
      std::vector<RowSpec<B>> rows;
      for (int i = 0; i < 800; ++i) {
        RowSpec<B> r = make_row<B>(rng, domain, max_count);
        r.first.v[0] = 7;
        r.first.v[1] = 9;
        r.first.sig = 0x21;
        rows.push_back(r);
      }
      expect_sort_parity<B>(rows, slot, domain);
    }
    // Descending keys (worst case for the sorted-input detector, best
    // case for an unstable shortcut to get wrong).
    {
      Rng rng(400);
      std::vector<RowSpec<B>> rows;
      for (int i = 0; i < 2000; ++i) {
        RowSpec<B> r = make_row<B>(rng, domain, max_count);
        r.first.v[0] = static_cast<VertexId>(domain - 1 - (i % domain));
        rows.push_back(r);
      }
      expect_sort_parity<B>(rows, slot, domain);
    }
    // Single bucket: every row shares the slot value, so the counting
    // partition degenerates to one bucket and order comes entirely from
    // the in-bucket key sort.
    {
      Rng rng(500);
      std::vector<RowSpec<B>> rows;
      for (int i = 0; i < 2000; ++i) {
        RowSpec<B> r = make_row<B>(rng, domain, max_count);
        r.first.v[slot] = 42;
        rows.push_back(r);
      }
      expect_sort_parity<B>(rows, slot, domain);
    }
  }
}

TEST(SealSort, RadixMatchesComparisonU16B2) { run_distribution_suite<2>(900); }
TEST(SealSort, RadixMatchesComparisonU16B4) { run_distribution_suite<4>(900); }
TEST(SealSort, RadixMatchesComparisonU16B8) { run_distribution_suite<8>(900); }

// Counts past the u16 boundary: the sinks escalate to u32 rows (40 bytes
// at B = 8 — the key-index gather path of the radix sort).
TEST(SealSort, RadixMatchesComparisonU32B4) {
  run_distribution_suite<4>(0x40000);
}
TEST(SealSort, RadixMatchesComparisonU32B8) {
  run_distribution_suite<8>(0x40000);
}

TEST(SealSort, WideEscapeRefusesIdentically) {
  // An unpackable key (slot 2 occupied) drives the sink wide; both
  // sorts must then refuse the narrow sort and leave the rows alone.
  Rng rng(600);
  std::vector<RowSpec<8>> rows;
  for (int i = 0; i < 500; ++i) {
    rows.push_back(make_row<8>(rng, 100, 50));
  }
  rows[250].first.v[2] = 3;
  expect_sort_parity<8>(rows, 1, 100);
}

TEST(SealSort, OutOfDomainSlotRefusesIdentically) {
  // A slot value at/above `domain` (kNoVertex included) must make both
  // sorts return false with the rows untouched.
  Rng rng(650);
  std::vector<RowSpec<4>> rows;
  for (int i = 0; i < 300; ++i) {
    rows.push_back(make_row<4>(rng, 80, 50));
  }
  rows[100].first.v[1] = 80;  // == domain
  expect_sort_parity<4>(rows, 1, 80);
}

TEST(SealSort, RadixIsStable) {
  // Direct stability check on the radix sort alone: duplicate keys
  // with distinguishable counts must keep their append order — the exact
  // row sequence std::stable_sort produces under the sort's
  // (slot bucket, raw packed key) order.
  for (const int slot : {0, 1}) {
    Rng rng(800 + slot);
    std::vector<RowSpec<8>> rows;
    for (int i = 0; i < 3000; ++i) {
      RowSpec<8> r = make_row<8>(rng, 16, 0xFFFF);  // heavy duplication
      r.first.sig = static_cast<Signature>(1u << rng.below(4));
      rows.push_back(r);
    }
    FlatRowsT<8> f = build_sink<8>(rows, 8);
    ASSERT_EQ(f.mode(), FlatRowsT<8>::Mode::kU16);
    auto ref = f.rows_u16();  // copy of the appended order
    std::stable_sort(ref.begin(), ref.end(),
                     [slot](const auto& a, const auto& b) {
                       if (slot == 1) {
                         const auto av = (a.k >> 8) & kPacked28NoVertex;
                         const auto bv = (b.k >> 8) & kPacked28NoVertex;
                         if (av != bv) return av < bv;
                       }
                       return a.k < b.k;
                     });
    ASSERT_TRUE(f.sort_by_slot_radix(slot, 16));
    expect_same_rows<8>(f.rows_u16(), ref);
  }
}

TEST(SealSort, SortedInputSurvivesRadixUntouched) {
  // The checkpoint restore property: decoded shards arrive in sealed
  // order, and the radix sort's validation pass must detect that and
  // return without moving a row — re-sealing is bit-identical.
  Rng rng(700);
  std::vector<RowSpec<8>> rows;
  for (int i = 0; i < 5000; ++i) {
    rows.push_back(make_row<8>(rng, 200, 900));
  }
  FlatRowsT<8> f = build_sink<8>(rows, 4);
  ASSERT_TRUE(f.sort_by_slot_comparison(1, 200));
  f.merge_duplicates();
  ASSERT_EQ(f.mode(), FlatRowsT<8>::Mode::kU16);
  FlatRowsT<8> again = f;
  ASSERT_TRUE(again.sort_by_slot_radix(1, 200));
  expect_same_rows<8>(f.rows_u16(), again.rows_u16());
}

}  // namespace
}  // namespace ccbt
