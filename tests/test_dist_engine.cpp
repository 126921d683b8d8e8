// Distributed engine cross-validation: the virtual-MPI run must produce
// exactly the shared-memory engine's colorful count AND its modeled load
// (total/max/avg ops, sim_time, modeled comm), for every algorithm and
// rank count — plus transport-layer invariants the model cannot see.

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "ccbt/core/color_coding.hpp"
#include "ccbt/core/exact.hpp"
#include "ccbt/dist/dist_engine.hpp"
#include "ccbt/graph/generators.hpp"
#include "ccbt/query/catalog.hpp"
#include "ccbt/query/random_tw2.hpp"
#include "ccbt/util/error.hpp"

namespace ccbt {
namespace {

ExecStats shared_run(const CsrGraph& g, const QueryGraph& q,
                     const Coloring& chi, Algo algo, std::uint32_t ranks) {
  ExecOptions opts;
  opts.algo = algo;
  opts.sim_ranks = ranks;
  CountingSession session(g, q, make_plan(q), opts);
  return session.count_colorful(chi);
}

DistStats dist_run(const CsrGraph& g, const QueryGraph& q,
                   const Coloring& chi, Algo algo, std::uint32_t ranks) {
  ExecOptions opts;
  opts.algo = algo;
  return run_plan_distributed(g, make_plan(q).tree, chi, ranks, opts);
}

void expect_parity(const CsrGraph& g, const QueryGraph& q, Algo algo,
                   std::uint32_t ranks, std::uint64_t color_seed) {
  const Coloring chi(g.num_vertices(), q.num_nodes(), color_seed);
  const ExecStats shared = shared_run(g, q, chi, algo, ranks);
  const DistStats dist = dist_run(g, q, chi, algo, ranks);
  const std::string label = std::string(algo_name(algo)) + " " + q.name() +
                            " R=" + std::to_string(ranks);
  EXPECT_EQ(dist.colorful, shared.colorful) << label;
  EXPECT_EQ(dist.total_ops, shared.total_ops) << label;
  EXPECT_EQ(dist.max_rank_ops, shared.max_rank_ops) << label;
  EXPECT_DOUBLE_EQ(dist.avg_rank_ops, shared.avg_rank_ops) << label;
  EXPECT_EQ(dist.total_comm, shared.total_comm) << label;
  EXPECT_DOUBLE_EQ(dist.sim_time, shared.sim_time) << label;
  // Both engines follow one split schedule, building each distinct half
  // once per cycle block.
  EXPECT_EQ(dist.path_builds, shared.path_builds) << label;
  EXPECT_EQ(dist.path_reuses, shared.path_reuses) << label;
}

// ---------------------------------------------------------------------
// Correctness against the exact oracle.

TEST(DistEngine, TriangleMatchesOracle) {
  const CsrGraph g = erdos_renyi(30, 90, 3);
  const QueryGraph q = q_cycle(3);
  const Coloring chi(g.num_vertices(), 3, 11);
  const Count oracle = count_colorful_exact(g, q, chi);
  for (std::uint32_t ranks : {1u, 2u, 7u, 32u}) {
    EXPECT_EQ(dist_run(g, q, chi, Algo::kDB, ranks).colorful, oracle)
        << "R=" << ranks;
  }
}

TEST(DistEngine, C5MatchesOracleAllAlgos) {
  const CsrGraph g = erdos_renyi(26, 65, 4);
  const QueryGraph q = q_cycle(5);
  const Coloring chi(g.num_vertices(), 5, 12);
  const Count oracle = count_colorful_exact(g, q, chi);
  for (Algo algo : {Algo::kPS, Algo::kPSEven, Algo::kDB}) {
    EXPECT_EQ(dist_run(g, q, chi, algo, 8).colorful, oracle)
        << algo_name(algo);
  }
}

TEST(DistEngine, AnnotatedQueriesMatchOracle) {
  const CsrGraph g = erdos_renyi(24, 60, 5);
  for (const char* name : {"wiki", "youtube", "glet1", "glet2", "ecoli1"}) {
    const QueryGraph q = named_query(name);
    const Coloring chi(g.num_vertices(), q.num_nodes(), 13);
    const Count oracle = count_colorful_exact(g, q, chi);
    EXPECT_EQ(dist_run(g, q, chi, Algo::kDB, 6).colorful, oracle) << name;
  }
}

TEST(DistEngine, TreeQueryMatchesOracle) {
  const CsrGraph g = erdos_renyi(25, 55, 6);
  const QueryGraph q = q_star(3);
  const Coloring chi(g.num_vertices(), q.num_nodes(), 14);
  EXPECT_EQ(dist_run(g, q, chi, Algo::kDB, 5).colorful,
            count_colorful_exact(g, q, chi));
}

TEST(DistEngine, SingleNodeQuery) {
  const CsrGraph g = erdos_renyi(20, 30, 7);
  const QueryGraph q(1, "node");
  const Coloring chi(g.num_vertices(), 1, 15);
  EXPECT_EQ(dist_run(g, q, chi, Algo::kDB, 4).colorful, 20u);
}

// ---------------------------------------------------------------------
// Exact load-model parity with the shared engine.

struct ParityCase {
  const char* query;
  Algo algo;
  std::uint32_t ranks;
};

class DistParity : public ::testing::TestWithParam<ParityCase> {};

TEST_P(DistParity, MatchesSharedEngineModel) {
  const ParityCase& pc = GetParam();
  const CsrGraph g = chung_lu_power_law(300, 1.5, 6.0, 21);
  expect_parity(g, named_query(pc.query), pc.algo, pc.ranks, 77);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DistParity,
    ::testing::Values(ParityCase{"triangle", Algo::kPS, 4},
                      ParityCase{"triangle", Algo::kDB, 4},
                      ParityCase{"glet1", Algo::kPS, 8},
                      ParityCase{"glet1", Algo::kDB, 8},
                      ParityCase{"glet2", Algo::kDB, 8},
                      ParityCase{"wiki", Algo::kPS, 16},
                      ParityCase{"wiki", Algo::kDB, 16},
                      ParityCase{"youtube", Algo::kDB, 32},
                      ParityCase{"dros", Algo::kDB, 8},
                      ParityCase{"ecoli1", Algo::kPSEven, 8},
                      ParityCase{"ecoli1", Algo::kDB, 8},
                      ParityCase{"ecoli2", Algo::kDB, 8},
                      ParityCase{"brain3", Algo::kDB, 8}),
    [](const ::testing::TestParamInfo<ParityCase>& info) {
      std::string algo = algo_name(info.param.algo);
      for (char& c : algo) {
        if (c == '-') c = '_';
      }
      return std::string(info.param.query) + "_" + algo + "_R" +
             std::to_string(info.param.ranks);
    });

TEST(DistEngine, BothEnginesBuildEachDistinctHalfOnce) {
  // ecoli2's root 6-cycle merges 12 DB halves, 5 of them distinct; a
  // bare C5 merges 10, 2 of them distinct (split_plan's schedule_for).
  const CsrGraph g = chung_lu_power_law(300, 1.5, 6.0, 21);
  struct Case {
    QueryGraph q;
    std::uint64_t builds, reuses;
  };
  for (const Case& c : {Case{named_query("ecoli2"), 5, 7},
                        Case{q_cycle(5), 2, 8}}) {
    const Coloring chi(g.num_vertices(), c.q.num_nodes(), 77);
    const ExecStats shared = shared_run(g, c.q, chi, Algo::kDB, 4);
    const DistStats dist = dist_run(g, c.q, chi, Algo::kDB, 4);
    EXPECT_EQ(shared.path_builds, c.builds) << c.q.name();
    EXPECT_EQ(shared.path_reuses, c.reuses) << c.q.name();
    EXPECT_EQ(dist.path_builds, c.builds) << c.q.name();
    EXPECT_EQ(dist.path_reuses, c.reuses) << c.q.name();
  }
}

// At B = 8 the two load models agree exactly on these plans; on
// youtube, dros, ecoli1 and ecoli2 the distributed model charges
// slightly different ops (counts and modeled comm still agree, checked
// below).
struct BatchRuns {
  ExecStats shared;
  DistStats dist;
};

BatchRuns batch8_runs(const QueryGraph& q) {
  const CsrGraph g = chung_lu_power_law(300, 1.5, 6.0, 21);
  std::vector<Coloring> lanes;
  for (std::uint64_t l = 0; l < 8; ++l) {
    lanes.emplace_back(g.num_vertices(), q.num_nodes(), 77 + l);
  }
  const ColoringBatch batch{std::span<const Coloring>(lanes)};
  const Plan plan = make_plan(q);
  ExecOptions opts;
  opts.sim_ranks = 8;
  CountingSession session(g, q, plan, opts);
  BatchRuns out;
  out.shared = session.count_colorful(batch);
  out.dist = run_plan_distributed(g, plan.tree, batch, 8, ExecOptions{});
  for (int l = 0; l < 8; ++l) {
    EXPECT_EQ(out.dist.colorful_lane[l], out.shared.colorful_lane[l])
        << q.name() << " lane " << l;
  }
  EXPECT_EQ(out.dist.total_comm, out.shared.total_comm) << q.name();
  EXPECT_EQ(out.dist.path_builds, out.shared.path_builds) << q.name();
  EXPECT_EQ(out.dist.path_reuses, out.shared.path_reuses) << q.name();
  return out;
}

class DistParityB8 : public ::testing::TestWithParam<const char*> {};

TEST_P(DistParityB8, MatchesSharedEngineModel) {
  const BatchRuns runs = batch8_runs(named_query(GetParam()));
  EXPECT_EQ(runs.dist.total_ops, runs.shared.total_ops);
  EXPECT_EQ(runs.dist.max_rank_ops, runs.shared.max_rank_ops);
}

INSTANTIATE_TEST_SUITE_P(Batch8, DistParityB8,
                         ::testing::Values("triangle", "glet1", "glet2",
                                           "wiki", "brain2", "brain3"));

TEST(DistEngine, Batch8CountsAndCommAgreeWhereOpsDiffer) {
  for (const char* name : {"youtube", "dros", "ecoli1", "ecoli2"}) {
    batch8_runs(named_query(name));
  }
}

TEST(DistEngine, ParityOnGridGraph) {
  const CsrGraph g = grid2d(12, 12, 20, 8);
  expect_parity(g, q_cycle(4), Algo::kDB, 8, 31);
}

TEST(DistEngine, ParityOnRmat) {
  RmatParams params;
  params.scale = 8;
  params.edge_factor = 6;
  const CsrGraph g = rmat(params, 9);
  expect_parity(g, named_query("youtube"), Algo::kDB, 16, 32);
}

TEST(DistEngine, ParityOnRandomTw2Queries) {
  const CsrGraph g = erdos_renyi(60, 150, 10);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    RandomTw2Options qo;
    qo.target_nodes = 7;
    const QueryGraph q = random_tw2_query(qo, seed);
    expect_parity(g, q, Algo::kDB, 8, 40 + seed);
  }
}

// ---------------------------------------------------------------------
// Transport-layer invariants.

TEST(DistEngine, SingleRankHasNoOffRankTraffic) {
  const CsrGraph g = erdos_renyi(30, 70, 11);
  const QueryGraph q = named_query("wiki");
  const Coloring chi(g.num_vertices(), q.num_nodes(), 50);
  const DistStats s = dist_run(g, q, chi, Algo::kDB, 1);
  EXPECT_EQ(s.transport.off_rank_entries, 0u);
  EXPECT_GT(s.transport.entries_sent, 0u);
}

TEST(DistEngine, OffRankTrafficGrowsWithRanks) {
  const CsrGraph g = chung_lu_power_law(200, 1.6, 5.0, 12);
  const QueryGraph q = q_cycle(4);
  const Coloring chi(g.num_vertices(), 4, 51);
  const DistStats s2 = dist_run(g, q, chi, Algo::kDB, 2);
  const DistStats s16 = dist_run(g, q, chi, Algo::kDB, 16);
  EXPECT_EQ(s2.colorful, s16.colorful);
  EXPECT_GT(s16.transport.off_rank_entries, s2.transport.off_rank_entries);
}

TEST(DistEngine, ActualTrafficAtLeastModeledTraffic) {
  // The model sees extension and merge routing only; the transport also
  // pays for resharding and orientation, so actual >= modeled off-rank
  // cannot be asserted entry-for-entry, but total sends must dominate the
  // modeled communication volume.
  const CsrGraph g = chung_lu_power_law(200, 1.6, 5.0, 13);
  const QueryGraph q = named_query("ecoli1");
  const Coloring chi(g.num_vertices(), q.num_nodes(), 52);
  const DistStats s = dist_run(g, q, chi, Algo::kDB, 8);
  EXPECT_GE(s.transport.entries_sent, s.total_comm);
}

TEST(DistEngine, CountInvariantAcrossRankCounts) {
  const CsrGraph g = chung_lu_power_law(150, 1.5, 5.0, 14);
  const QueryGraph q = named_query("glet2");
  const Coloring chi(g.num_vertices(), q.num_nodes(), 53);
  const Count base = dist_run(g, q, chi, Algo::kDB, 1).colorful;
  for (std::uint32_t ranks : {2u, 3u, 5u, 12u, 64u, 512u}) {
    EXPECT_EQ(dist_run(g, q, chi, Algo::kDB, ranks).colorful, base)
        << "R=" << ranks;
  }
}

TEST(DistEngine, MoreRanksThanVerticesStillCorrect) {
  const CsrGraph g = erdos_renyi(12, 22, 15);
  const QueryGraph q = q_cycle(3);
  const Coloring chi(g.num_vertices(), 3, 54);
  EXPECT_EQ(dist_run(g, q, chi, Algo::kDB, 64).colorful,
            count_colorful_exact(g, q, chi));
}

// ---------------------------------------------------------------------
// Failure injection.

TEST(DistEngine, BudgetExceededThrows) {
  const CsrGraph g = erdos_renyi(60, 200, 16);
  const QueryGraph q = q_cycle(5);
  const Coloring chi(g.num_vertices(), 5, 55);
  ExecOptions opts;
  opts.algo = Algo::kPS;
  opts.max_table_entries = 10;
  EXPECT_THROW(run_plan_distributed(g, make_plan(q).tree, chi, 4, opts),
               BudgetExceeded);
}

TEST(DistEngine, MissingRootRejected) {
  const CsrGraph g = erdos_renyi(10, 15, 17);
  const Coloring chi(g.num_vertices(), 3, 56);
  DecompTree empty;
  EXPECT_THROW(run_plan_distributed(g, empty, chi, 2, {}), Error);
}

}  // namespace
}  // namespace ccbt
