// Unit tests for the graph substrate: edge lists, CSR invariants, degree
// ordering, partitions, colorings, and statistics.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ccbt/graph/coloring.hpp"
#include "ccbt/graph/io.hpp"
#include "ccbt/util/error.hpp"
#include "ccbt/graph/csr_graph.hpp"
#include "ccbt/graph/degree_order.hpp"
#include "ccbt/graph/generators.hpp"
#include "ccbt/graph/graph_stats.hpp"
#include "ccbt/graph/partition.hpp"

namespace ccbt {
namespace {

TEST(EdgeListTest, SimplifyDropsLoopsAndDuplicates) {
  EdgeList list;
  list.add(1, 2);
  list.add(2, 1);  // duplicate reversed
  list.add(3, 3);  // loop
  list.add(1, 2);  // duplicate
  const EdgeList s = simplify(list);
  ASSERT_EQ(s.edges.size(), 1u);
  EXPECT_EQ(s.edges[0].u, 1u);
  EXPECT_EQ(s.edges[0].v, 2u);
}

TEST(EdgeListTest, RoundTripThroughText) {
  EdgeList list;
  list.add(0, 1);
  list.add(1, 2);
  list.add(0, 2);
  std::stringstream ss;
  write_edge_list(ss, list);
  const EdgeList back = read_edge_list(ss);
  EXPECT_EQ(back.edges.size(), 3u);
  EXPECT_EQ(back.num_vertices, 3u);
}

TEST(EdgeListTest, RejectsMalformedLine) {
  std::stringstream ss("1 two\n");
  EXPECT_THROW(read_edge_list(ss), Error);
}

/// Parse `text` as an edge list; nullopt when the loader rejects it.
std::optional<EdgeList> try_read(const std::string& text) {
  std::stringstream ss(text);
  try {
    return read_edge_list(ss);
  } catch (const Error&) {
    return std::nullopt;
  }
}

TEST(EdgeListTest, MutatedTextInputsAreRejected) {
  // Each mutant replaces the second line of a valid three-edge list; the
  // loader must reject it instead of truncating, wrapping or ignoring
  // part of the line.
  const std::string head = "# tiny\n0 1\n";
  const std::string tail = "2 0\n";
  ASSERT_TRUE(try_read(head + "1 2\n" + tail).has_value());
  const char* const rejected[] = {
      "1 4294967298",          // 2^32 + 2: used to alias vertex 2
      "4294967298 2",
      "1 4294967295",          // kNoVertex itself
      "1 18446744073709551616",  // past u64
      "-3 2",                  // negative ids used to wrap
      "1 -3",
      "+1 2",
      "1 2 3",                 // trailing garbage
      "1 2 x",
      "1 2x",
      "1x 2",
      "1,2",
      "1",
      "one 2",
  };
  for (const char* line : rejected) {
    EXPECT_FALSE(try_read(head + line + "\n" + tail).has_value()) << line;
  }
  // Blanks around the pair, CRLF endings and the largest legal id load.
  const std::pair<const char*, std::pair<VertexId, VertexId>> accepted[] = {
      {"1 2\r", {1, 2}},
      {" 1\t2  ", {1, 2}},
      {"1 4294967294", {1, 4294967294u}},
  };
  for (const auto& [line, edge] : accepted) {
    const auto list = try_read(head + line + "\n" + tail);
    ASSERT_TRUE(list.has_value()) << line;
    ASSERT_EQ(list->edges.size(), 3u) << line;
    EXPECT_EQ(list->edges[1].u, edge.first) << line;
    EXPECT_EQ(list->edges[1].v, edge.second) << line;
  }
}

TEST(GraphBinaryTest, MutatedSnapshotsAreRejected) {
  // A valid 4-vertex snapshot, then every truncation and a set of header
  // and body overwrites: each must throw Error (not bad_alloc, not a
  // corrupted CSR), and the untouched file must load unchanged.
  EdgeList list;
  list.num_vertices = 4;
  list.add(0, 1);
  list.add(1, 2);
  list.add(2, 3);
  const CsrGraph g = CsrGraph::from_edges(list);
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("ccbt_mutation_" + std::to_string(::getpid()) + ".bin");
  save_graph_binary(g, path.string());
  std::vector<char> image;
  {
    std::ifstream in(path, std::ios::binary);
    image.assign(std::istreambuf_iterator<char>(in), {});
  }
  // Layout: magic u32 | version u32 | num_vertices u32 | m u64 | m × (u, v).
  constexpr std::size_t kNumVertices = 8;
  constexpr std::size_t kEdgeCount = 12;
  constexpr std::size_t kEdges = 20;
  ASSERT_EQ(image.size(), kEdges + 3 * 8);
  auto load = [&](const std::vector<char>& bytes) {
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return load_graph_binary(path.string());
  };
  auto with = [&](std::size_t at, auto value) {
    std::vector<char> bytes = image;
    std::memcpy(bytes.data() + at, &value, sizeof(value));
    return bytes;
  };
  const CsrGraph back = load(image);
  EXPECT_EQ(back.num_vertices(), 4u);
  EXPECT_EQ(back.num_edges(), 3u);
  for (std::size_t n = 0; n < image.size(); ++n) {
    const std::vector<char> cut(image.begin(),
                                image.begin() + static_cast<std::ptrdiff_t>(n));
    EXPECT_THROW(load(cut), Error) << "truncated to " << n;
  }
  const std::vector<std::vector<char>> rejected = {
      with(0, std::uint32_t{0}),                      // magic
      with(4, std::uint32_t{2}),                      // version
      with(kEdgeCount, std::uint64_t{4}),             // one edge too many
      with(kEdgeCount, std::uint64_t{1} << 40),       // huge reserve
      with(kEdgeCount, ~std::uint64_t{0}),
      with(kNumVertices, std::uint32_t{3}),           // endpoint 3 >= 3
      with(kEdges, std::uint32_t{4}),                 // u == num_vertices
      with(kEdges + 4, std::uint32_t{0xFFFFFFFFu}),   // v == kNoVertex
  };
  for (std::size_t i = 0; i < rejected.size(); ++i) {
    EXPECT_THROW(load(rejected[i]), Error) << "mutant " << i;
  }
  std::filesystem::remove(path);
}

TEST(CsrGraphTest, NeighborsSortedAndSymmetric) {
  const CsrGraph g = erdos_renyi(50, 120, 3);
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    const auto nbrs = g.neighbors(u);
    for (std::size_t i = 1; i < nbrs.size(); ++i) {
      EXPECT_LT(nbrs[i - 1], nbrs[i]);
    }
    for (VertexId v : nbrs) {
      EXPECT_TRUE(g.has_edge(v, u)) << u << "-" << v;
    }
  }
}

TEST(CsrGraphTest, DegreeSumIsTwiceEdges) {
  const CsrGraph g = erdos_renyi(64, 200, 4);
  std::size_t sum = 0;
  for (VertexId u = 0; u < g.num_vertices(); ++u) sum += g.degree(u);
  EXPECT_EQ(sum, 2 * g.num_edges());
}

TEST(CsrGraphTest, HasEdgeMatchesConstruction) {
  const CsrGraph g = cycle_graph(6);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(5, 0));
  EXPECT_FALSE(g.has_edge(0, 3));
  EXPECT_FALSE(g.has_edge(0, 99));
}

TEST(CsrGraphTest, ToEdgesRoundTrip) {
  const CsrGraph g = erdos_renyi(30, 80, 5);
  const CsrGraph g2 = CsrGraph::from_edges(g.to_edges());
  ASSERT_EQ(g.num_vertices(), g2.num_vertices());
  ASSERT_EQ(g.num_edges(), g2.num_edges());
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    ASSERT_EQ(g.degree(u), g2.degree(u));
  }
}

TEST(CsrGraphTest, EmptyGraph) {
  const CsrGraph g = CsrGraph::from_edges(EdgeList{});
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(DegreeOrderTest, HigherDegreeMeansHigherRank) {
  const CsrGraph g = star_graph(10);  // vertex 0 is the hub
  const DegreeOrder order(g);
  for (VertexId v = 1; v <= 10; ++v) {
    EXPECT_TRUE(order.higher(0, v));
  }
}

TEST(DegreeOrderTest, TiesBrokenByIdAscending) {
  const CsrGraph g = cycle_graph(5);  // all degrees equal
  const DegreeOrder order(g);
  for (VertexId v = 1; v < 5; ++v) {
    EXPECT_TRUE(order.higher(v, v - 1));
  }
}

TEST(DegreeOrderTest, TotalOrderIsAPermutation) {
  const CsrGraph g = erdos_renyi(40, 100, 6);
  const DegreeOrder order(g);
  std::vector<bool> seen(40, false);
  for (VertexId v = 0; v < 40; ++v) {
    ASSERT_LT(order.rank(v), 40u);
    EXPECT_FALSE(seen[order.rank(v)]);
    seen[order.rank(v)] = true;
  }
}

TEST(DegreeOrderTest, ByIdOrderMatchesIds) {
  const DegreeOrder order = DegreeOrder::by_id(10);
  EXPECT_TRUE(order.higher(7, 3));
  EXPECT_FALSE(order.higher(3, 7));
}

TEST(PartitionTest, CoversAllVerticesOnce) {
  const BlockPartition part(1000, 7);
  std::vector<int> count(1000, 0);
  for (std::uint32_t r = 0; r < part.num_ranks(); ++r) {
    for (VertexId v = part.begin(r); v < part.end(r); ++v) {
      EXPECT_EQ(part.owner(v), r);
      ++count[v];
    }
  }
  for (int c : count) EXPECT_EQ(c, 1);
}

TEST(PartitionTest, BalancedWithinOne) {
  const BlockPartition part(1000, 32);
  VertexId min_size = 1000, max_size = 0;
  for (std::uint32_t r = 0; r < 32; ++r) {
    const VertexId size = part.end(r) - part.begin(r);
    min_size = std::min(min_size, size);
    max_size = std::max(max_size, size);
  }
  EXPECT_LE(max_size - min_size, 32u);  // block distribution granularity
}

TEST(PartitionTest, MoreRanksThanVertices) {
  const BlockPartition part(3, 8);
  for (VertexId v = 0; v < 3; ++v) {
    EXPECT_LT(part.owner(v), 8u);
  }
}

TEST(ColoringTest, ColorsInRangeAndDeterministic) {
  const Coloring a(500, 7, 99), b(500, 7, 99);
  for (VertexId v = 0; v < 500; ++v) {
    EXPECT_LT(a.color(v), 7);
    EXPECT_EQ(a.color(v), b.color(v));
    EXPECT_EQ(a.bit(v), Signature{1} << a.color(v));
  }
}

TEST(ColoringTest, RoughlyUniform) {
  const Coloring chi(70000, 7, 3);
  std::vector<int> counts(7, 0);
  for (VertexId v = 0; v < chi.size(); ++v) ++counts[chi.color(v)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 1000);
}

TEST(GraphStatsTest, RegularGraphSkewIsOne) {
  const GraphStats s = compute_stats(cycle_graph(100));
  EXPECT_DOUBLE_EQ(s.avg_degree, 2.0);
  EXPECT_NEAR(s.skew, 1.0, 1e-9);
  EXPECT_EQ(s.heavy_vertices, 0u);
}

TEST(GraphStatsTest, StarGraphIsMaximallySkewed) {
  const GraphStats s = compute_stats(star_graph(99));
  EXPECT_EQ(s.max_degree, 99u);
  EXPECT_GT(s.skew, 20.0);
  EXPECT_EQ(s.heavy_vertices, 1u);
}

TEST(GraphStatsTest, HistogramBucketsByPowersOfTwo) {
  const auto hist = degree_histogram_pow2(star_graph(64));
  // 64 leaves of degree 1 -> bucket 0; hub degree 64 -> bucket 6.
  ASSERT_GE(hist.size(), 7u);
  EXPECT_EQ(hist[0], 64u);
  EXPECT_EQ(hist[6], 1u);
}

}  // namespace
}  // namespace ccbt
