// perfbench: the end-to-end benchmark of the ccbt library.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//
// Runs one workload (see kWorkloads) in this process and prints one JSON
// object as its last line: the end-to-end metrics with --trace 0, the
// per-layer metrics of a traced run with --trace 1, plus the details
// (cells, failed ops, checks, regime guards) they were computed from.
// perfbench/run.py builds this binary, adds the machine block and prints
// the final result line.
//
// Everything goes through the library's public API with production
// defaults: default ExecOptions (DB, default table budget), no CCBT_*
// environment knob (the run refuses to start when one is set).

#include <omp.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ccbt/bench_support/workloads.hpp"
#include "ccbt/core/ccbt.hpp"
#include "ccbt/util/rng.hpp"
#include "ccbt/util/timer.hpp"
#include "trace.hpp"

extern char** environ;

namespace {

using namespace ccbt;
using perfbench::Scoped;
using perfbench::Span;
using perfbench::Tracer;

// ------------------------------------------------------------- workloads

enum class Kind { kEstimator, kOneShot, kDistributed };

struct CellSpec {
  const char* graph;
  const char* query;
};

struct WorkloadDef {
  const char* name;
  Kind kind;
  int batch;        // colorings per plan execution
  bool threaded;    // joins on kJoinThreads threads; otherwise 1 thread
  double round_s;   // nominal seconds of one round (every cell once) on
                    // the reference machine; fixes the rounds per run
  bool warmup;      // one untimed round first: ops short enough that the
                    // first touch of each cell's tables shows in them
  const char* regime;  // which side of the 2^20-row sparse flip it covers
  int expect_sparse;   // 0: no sparse phase, 1: some, -1: not applicable
  std::vector<CellSpec> cells;
};

// Stand-in graphs are the Table 1 models of make_workload at this scale,
// generated with the library's default generator seed: like the paper's
// SNAP graphs they are fixed datasets. The workload seed draws the
// colorings (and estimator seeds) every op counts under.
constexpr double kScale = 0.1;
constexpr std::uint32_t kRanks = 16;
constexpr int kSetupReps = 101;
// Threads of the threaded workload, at most nproc. Joins gain nothing
// from 4 threads over 1 here (0.93-1.19x), and on a shared 4-vCPU host 4
// threads spread same-seed runs by 20% against 1% on 1 thread and 6% on
// 2, so it runs 2: the threaded join paths stay measured.
constexpr int kJoinThreads = 2;

// Why each workload exists; later changes refer to them by name.
const std::vector<WorkloadDef> kWorkloads = {
    // est-small: many short plan executions on small tables. Every B = 8
    // phase stays below the 2^20-row sparse flip; glet2 and wiki rows
    // escalate out of u16. Per-phase fixed cost and the batch-width
    // choice show up here.
    {"est-small", Kind::kEstimator, 8, false, 2.2, true,
     "below the sparse flip (dense emission rows only)", 0,
     {{"condMat", "glet2"}, {"condMat", "wiki"}, {"condMat", "youtube"},
      {"condMat", "dros"}, {"brightkite", "glet2"}, {"brightkite", "wiki"},
      {"brightkite", "youtube"}, {"brightkite", "dros"}}},
    // est-large: the other side of the flip. Tens of millions of emitted
    // rows per B = 8 execution with sparse records engaging; accumulate
    // plus seal dominate the wall. Emission and seal byte work shows here.
    {"est-large", Kind::kEstimator, 8, false, 16.0, false,
     "above the sparse flip (sparse records engage)", 1,
     {{"astroph", "dros"}, {"astroph", "ecoli2"}}},
    // oneshot-skew: the paper's superlinear heavy-tail regime, seconds
    // per colorful count of a long-cycle query. Runs the B = 1 AccumMap
    // path and none of the flat-row, shard, sparse or packed-merge code,
    // so B > 1 changes should show no change here. The only threaded
    // workload.
    {"oneshot-skew", Kind::kOneShot, 1, true, 5.0, false,
     "B = 1 AccumMap path (no flat rows, flip not reachable)", -1,
     {{"enron", "brain3"}, {"epinions", "brain2"}}},
    // dist-skew: the only workload that runs the virtual-MPI engine
    // (encode, exchange and decode, resharding, the load model), at
    // 16 virtual ranks and B = 8 batches, fault-free. Not in
    // BENCHMARK.json while its load-model parity check fails (README).
    {"dist-skew", Kind::kDistributed, 8, false, 2.5, false,
     "distributed engine (hashed AccumMap sinks, flip not reachable)", -1,
     {{"enron", "ecoli1"}, {"enron", "dros"}, {"epinions", "ecoli1"}}},
};

// --------------------------------------------------------------- helpers

std::string fmt_num(double v) {
  if (!std::isfinite(v)) return "null";  // JSON has no NaN or infinity
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

/// Minimal JSON object builder (values are numbers, strings or raw JSON).
class Json {
 public:
  Json& num(const std::string& k, double v) { return raw(k, fmt_num(v)); }
  Json& str(const std::string& k, const std::string& v) {
    return raw(k, quote(v));
  }
  Json& boolean(const std::string& k, bool v) {
    return raw(k, v ? "true" : "false");
  }
  Json& raw(const std::string& k, const std::string& v) {
    body_ += (body_.empty() ? "" : ",") + quote(k) + ":" + v;
    return *this;
  }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string json_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i == 0 ? "" : ",") + items[i];
  }
  return out + "]";
}

/// Harrell-Davis estimate of quantile p (0 < p < 1): the Beta(p(n+1),
/// (1-p)(n+1))-weighted mean of all order statistics. A workload mixes
/// cells whose op times sit in separate clusters, and a plain sample
/// quantile that falls between two clusters jumps from run to run; this
/// estimate moves smoothly instead.
double hd_quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const int n = static_cast<int>(v.size());
  if (n == 1) return v[0];
  const double a = p * (n + 1);
  const double b = (1.0 - p) * (n + 1);
  // Beta(a, b) mass of each interval [(i-1)/n, i/n], midpoint rule.
  constexpr int kSteps = 256;
  double sum = 0.0, weight_total = 0.0;
  for (int i = 0; i < n; ++i) {
    double w = 0.0;
    for (int j = 0; j < kSteps; ++j) {
      const double x = (i + (j + 0.5) / kSteps) / n;
      w += std::exp((a - 1.0) * std::log(x) + (b - 1.0) * std::log1p(-x));
    }
    weight_total += w;
    if (w > 0.0) sum += w * v[i];
  }
  return sum / weight_total;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// ----------------------------------------------------------------- cells

struct Cell {
  CellSpec spec;
  CsrGraph g;
  QueryGraph q;
  Plan plan;
  std::unique_ptr<CountingSession> session;
  std::optional<DegreeOrder> order;  // traced runs drive blocks with it
  std::uint64_t aut = 1;

  std::string name() const {
    return std::string(spec.graph) + "/" + spec.query;
  }
};

struct SetupTimes {
  std::vector<double> total, generate, degree_order, make_plan, session;
};

/// Generate every cell's graph, plan and session; repeated kSetupReps
/// times so setup_s is a median. With a tracer, each step is a span.
std::vector<std::unique_ptr<Cell>> set_up(const WorkloadDef& w,
                                          Tracer* tr, SetupTimes& t) {
  std::vector<std::unique_ptr<Cell>> cells;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    cells.clear();
    double gen = 0.0, ord = 0.0, pl = 0.0, ses = 0.0;
    const Timer all;
    for (const CellSpec& spec : w.cells) {
      auto c = std::make_unique<Cell>();
      c->spec = spec;
      Timer step;
      {
        std::optional<Scoped> s;
        if (tr != nullptr) s.emplace(*tr, "graph.generate");
        c->g = make_workload(spec.graph, kScale);
      }
      gen += step.seconds();
      if (tr != nullptr) {
        step.reset();
        Scoped s(*tr, "graph.degree_order");
        c->order.emplace(c->g);
        ord += step.seconds();
      }
      step.reset();
      {
        std::optional<Scoped> s;
        if (tr != nullptr) s.emplace(*tr, "decomp.make_plan");
        c->q = named_query(spec.query);
        c->plan = make_plan(c->q);
      }
      pl += step.seconds();
      step.reset();
      {
        std::optional<Scoped> s;
        if (tr != nullptr) s.emplace(*tr, "core.session");
        c->session = std::make_unique<CountingSession>(c->g, c->q, c->plan);
      }
      ses += step.seconds();
      cells.push_back(std::move(c));
    }
    t.total.push_back(all.seconds());
    t.generate.push_back(gen);
    t.degree_order.push_back(ord);
    t.make_plan.push_back(pl);
    t.session.push_back(ses);
  }
  for (auto& c : cells) c->aut = count_automorphisms(c->q);
  return cells;
}

// ------------------------------------------------------------ op inputs

/// One op's inputs, drawn from the workload seed in schedule order.
struct OpInput {
  int cell = 0;
  std::uint64_t est_seed = 0;          // estimator ops
  std::vector<std::uint64_t> lanes;    // coloring seed per lane
};

std::vector<OpInput> schedule(const WorkloadDef& w, std::uint64_t seed,
                              int rounds) {
  Rng master(seed);
  std::vector<OpInput> ops;
  for (int r = 0; r < rounds; ++r) {
    for (int c = 0; c < static_cast<int>(w.cells.size()); ++c) {
      OpInput in;
      in.cell = c;
      in.est_seed = master();
      if (w.kind == Kind::kEstimator) {
        // estimate_matches draws lane seeds from Rng(opts.seed) in order.
        Rng est(in.est_seed);
        for (int l = 0; l < w.batch; ++l) in.lanes.push_back(est());
      } else {
        for (int l = 0; l < w.batch; ++l) in.lanes.push_back(master());
      }
      ops.push_back(std::move(in));
    }
  }
  return ops;
}

std::vector<Coloring> colorings(const Cell& c, const OpInput& in) {
  std::vector<Coloring> out;
  out.reserve(in.lanes.size());
  for (const std::uint64_t s : in.lanes) {
    out.emplace_back(c.g.num_vertices(), c.q.num_nodes(), s);
  }
  return out;
}

// -------------------------------------------------------------- results

/// Correctness bookkeeping: every mismatch is a failed op and a failed
/// run; every DNF or thrown error is a failed op named by its cell.
struct Checks {
  int passed = 0;
  std::vector<std::string> mismatches;
  std::vector<std::string> failures;  // "cell: reason"
  std::vector<std::string> warnings;

  void expect(bool ok, const std::string& what) {
    if (ok) {
      ++passed;
    } else {
      mismatches.push_back(what);
    }
  }
};

/// A colorful count counts mappings, so every colorful occurrence adds
/// aut(Q) of them: each count must be a multiple of aut(Q).
bool aut_multiple(Count c, std::uint64_t aut) { return c % aut == 0; }

struct OpRecord {
  int cell = 0;
  double wall = 0.0;
  bool failed = false;
  bool dnf = false;  // failed with BudgetExceeded
  int colorings = 0;
};

template <typename F>
void run_guarded(const Cell& c, OpRecord& rec, Checks& ck, F&& op) {
  try {
    op();
  } catch (const BudgetExceeded& e) {
    rec.failed = true;
    rec.dnf = true;
    ck.failures.push_back(c.name() + ": DNF (BudgetExceeded) " + e.what());
  } catch (const std::exception& e) {
    rec.failed = true;
    ck.failures.push_back(c.name() + ": " + e.what());
  }
}

std::string metric(double value, const char* unit) {
  return Json().num("value", value).str("unit", unit).done();
}

std::string string_list(const std::vector<std::string>& v) {
  std::vector<std::string> q;
  for (const auto& s : v) q.push_back(quote(s));
  return json_list(q);
}

std::string cells_json(const std::vector<std::unique_ptr<Cell>>& cells) {
  std::vector<std::string> out;
  for (const auto& c : cells) {
    out.push_back(Json()
                      .str("cell", c->name())
                      .num("vertices", c->g.num_vertices())
                      .num("edges", static_cast<double>(c->g.num_edges()))
                      .num("query_nodes", c->q.num_nodes())
                      .done());
  }
  return json_list(out);
}

// ------------------------------------------------------- untraced run

struct E2E {
  std::vector<OpRecord> ops;
  double wire_bytes = 0.0;  // off-rank payload, summed
  double sim_makespan = 0.0;
  int dist_colorings = 0;   // colorings the two sums cover
  double peak_rss = 0.0;
};

/// What an op produced that the untimed verification needs.
struct OpOut {
  std::vector<Count> counts;  // per lane
  DistStats dist;             // distributed ops only
};

/// The timed op of each workload kind.
void timed_op(const WorkloadDef& w, const Cell& c, const OpInput& in,
              OpRecord& rec, OpOut& out, E2E& e, Checks& ck) {
  std::vector<Count>& counts = out.counts;
  const std::string at = c.name();
  switch (w.kind) {
    case Kind::kEstimator: {
      EstimatorOptions eo;
      eo.trials = w.batch;
      eo.batch = w.batch;
      eo.seed = in.est_seed;
      const Timer t;
      const EstimatorResult r = estimate_matches(*c.session, eo);
      rec.wall = t.seconds();
      rec.colorings = static_cast<int>(r.colorful_per_trial.size());
      ck.expect(r.trials_dropped == 0 && rec.colorings == w.batch,
                at + ": estimator dropped trials");
      const double scale = colorful_scale(c.q.num_nodes());
      double sum = 0.0;
      for (std::size_t l = 0; l < r.colorful_per_trial.size(); ++l) {
        const Count n = r.colorful_per_trial[l];
        ck.expect(aut_multiple(n, c.aut), at + ": count not a multiple of aut");
        ck.expect(r.estimate_per_trial[l] == static_cast<double>(n) * scale,
                  at + ": estimate is not count * k^k/k!");
        sum += r.estimate_per_trial[l];
        counts.push_back(n);
      }
      ck.expect(std::abs(r.matches - sum / rec.colorings) <=
                    1e-9 * std::max(1.0, r.matches),
                at + ": estimate is not the mean of the trials");
      break;
    }
    case Kind::kOneShot: {
      const Coloring chi(c.g.num_vertices(), c.q.num_nodes(), in.lanes[0]);
      const Timer t;
      const ExecStats s = c.session->count_colorful(chi);
      rec.wall = t.seconds();
      rec.colorings = 1;
      ck.expect(aut_multiple(s.colorful, c.aut),
                at + ": count not a multiple of aut");
      counts.push_back(s.colorful);
      break;
    }
    case Kind::kDistributed: {
      const std::vector<Coloring> lanes = colorings(c, in);
      const ColoringBatch batch(lanes);
      const Timer t;
      out.dist = run_plan_distributed(c.g, c.plan.tree, batch, kRanks);
      rec.wall = t.seconds();
      const DistStats& d = out.dist;
      rec.colorings = d.lanes_used;
      ck.expect(d.lanes_used == w.batch, at + ": lane count");
      for (int l = 0; l < d.lanes_used; ++l) {
        ck.expect(aut_multiple(d.colorful_lane[l], c.aut),
                  at + ": count not a multiple of aut");
        counts.push_back(d.colorful_lane[l]);
      }
      e.wire_bytes += static_cast<double>(d.transport.off_rank_bytes());
      e.sim_makespan += d.sim_time;
      e.dist_colorings += d.lanes_used;
      break;
    }
  }
}

/// Untimed differential checks on the first op of every cell.
void verify_first(const WorkloadDef& w, const Cell& c, const OpInput& in,
                  const OpOut& first, E2E& e, Checks& ck) {
  const std::string at = c.name();
  const std::vector<Count>& counts = first.counts;
  if (w.kind == Kind::kDistributed) {
    // Shared engine with the load model on the same batch: per-lane
    // counts and every load-model total must match exactly.
    const std::vector<Coloring> lanes = colorings(c, in);
    const ColoringBatch batch(lanes);
    ExecOptions o;
    o.sim_ranks = kRanks;
    const CountingSession shared(c.g, c.q, c.plan, o);
    const ExecStats s = shared.count_colorful(batch);
    const DistStats& d = first.dist;
    for (int l = 0; l < w.batch; ++l) {
      ck.expect(s.colorful_lane[l] == counts[l],
                at + ": distributed count != shared count, lane " +
                    std::to_string(l));
    }
    ck.expect(d.sim_time == s.sim_time && d.total_ops == s.total_ops &&
                  d.max_rank_ops == s.max_rank_ops &&
                  d.avg_rank_ops == s.avg_rank_ops &&
                  d.total_comm == s.total_comm,
              at + ": distributed load model != shared load model (total "
                   "ops " + std::to_string(d.total_ops) + " vs " +
                  std::to_string(s.total_ops) + ", max rank ops " +
                  std::to_string(d.max_rank_ops) + " vs " +
                  std::to_string(s.max_rank_ops) + ", makespan " +
                  fmt_num(d.sim_time) + " vs " + fmt_num(s.sim_time) +
                  ", comm " + std::to_string(d.total_comm) + " vs " +
                  std::to_string(s.total_comm) + ")");
    return;
  }
  if (w.kind == Kind::kEstimator) {
    // B = batch lanes must equal B = 1 runs lane by lane.
    for (std::size_t l = 0; l < in.lanes.size(); ++l) {
      const ExecStats one = c.session->count_colorful_seeded(in.lanes[l]);
      ck.expect(one.colorful == counts[l],
                at + ": B = " + std::to_string(w.batch) +
                    " lane != B = 1 count, lane " + std::to_string(l));
    }
  }
  // One single-coloring distributed run per cell on kRanks ranks: the
  // count must match the shared engine, and its wire bytes and modeled
  // makespan are this workload's wire_bytes_per_trial and
  // sim_makespan_per_trial.
  const Coloring chi(c.g.num_vertices(), c.q.num_nodes(), in.lanes[0]);
  const DistStats d = run_plan_distributed(c.g, c.plan.tree, chi, kRanks);
  ck.expect(d.colorful == counts[0],
            at + ": distributed count != shared count");
  e.wire_bytes += static_cast<double>(d.transport.off_rank_bytes());
  e.sim_makespan += d.sim_time;
  e.dist_colorings += 1;
}

struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  int beyond = 0;
};

/// The highest percentile with at least ten samples beyond it. With
/// fewer than 20 samples no such percentile reaches past the median, and
/// the tail is the estimate at n / (n + 1), the expected position of the
/// maximum: a smoothed maximum, with no sample beyond it.
Tail op_tail(const std::vector<double>& walls) {
  const int n = static_cast<int>(walls.size());
  Tail t;
  if (n >= 20) {
    t.percentile = 100.0 * (n - 10) / n;
    t.beyond = 10;
  } else {
    t.percentile = 100.0 * n / (n + 1);
  }
  t.value = hd_quantile(walls, t.percentile / 100.0);
  return t;
}

std::string run_untraced(const WorkloadDef& w, std::uint64_t seed,
                         int rounds, Checks& ck) {
  SetupTimes st;
  const auto cells = set_up(w, nullptr, st);
  const std::vector<OpInput> plan = schedule(w, seed, rounds);

  E2E e;
  int warm_ops = 0, warm_failed = 0;
  if (w.warmup) {
    E2E scratch;
    for (const OpInput& in : schedule(w, ~seed, 1)) {
      OpRecord rec;
      OpOut out;
      const std::size_t before = ck.mismatches.size();
      run_guarded(*cells[in.cell], rec, ck, [&] {
        timed_op(w, *cells[in.cell], in, rec, out, scratch, ck);
      });
      ++warm_ops;
      warm_failed += rec.failed || ck.mismatches.size() > before;
    }
  }
  std::vector<OpOut> first(cells.size());
  std::vector<int> first_op(cells.size(), -1);  // first completed op
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const OpInput& in = plan[i];
    const Cell& c = *cells[in.cell];
    OpRecord rec;
    rec.cell = in.cell;
    OpOut out;
    const std::size_t before = ck.mismatches.size();
    const Timer guard;
    run_guarded(c, rec, ck, [&] { timed_op(w, c, in, rec, out, e, ck); });
    if (rec.failed) rec.wall = guard.seconds();
    if (ck.mismatches.size() > before) rec.failed = true;
    if (!rec.failed && first_op[in.cell] < 0) {
      first[in.cell] = std::move(out);
      first_op[in.cell] = static_cast<int>(i);
    }
    e.ops.push_back(rec);
  }
  e.peak_rss = peak_rss_mib();

  // Untimed verification, after the peak-RSS reading. A mismatch fails
  // the op it checked.
  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    if (first_op[ci] < 0) continue;
    const Cell& c = *cells[ci];
    const std::size_t before = ck.mismatches.size();
    OpRecord verify;
    run_guarded(c, verify, ck, [&] {
      verify_first(w, c, plan[first_op[ci]], first[ci], e, ck);
    });
    if (ck.mismatches.size() > before || verify.failed) {
      e.ops[first_op[ci]].failed = true;
    }
  }

  int attempted = warm_ops, failed = warm_failed, colorings_done = 0;
  double op_wall = 0.0;
  std::vector<double> walls;
  std::vector<std::string> dnf, op_walls;
  for (const OpRecord& r : e.ops) {
    ++attempted;
    op_wall += r.wall;
    op_walls.push_back(
        json_list({std::to_string(r.cell), fmt_num(r.wall)}));
    // A failed op's wall counts against trials_per_s; it has no latency.
    if (r.failed) {
      ++failed;
      if (r.dnf) dnf.push_back(quote(cells[r.cell]->name()));
    } else {
      colorings_done += r.colorings;
      walls.push_back(r.wall);
    }
  }
  const Tail tail = op_tail(walls);

  const std::string metrics =
      Json()
          .raw("setup_s", metric(median(st.total), "s"))
          .raw("trials_per_s",
               metric(ratio(colorings_done, op_wall), "colorings/s"))
          .raw("op_p50_s", metric(hd_quantile(walls, 0.5), "s"))
          .raw("op_tail_s", metric(tail.value, "s"))
          .raw("peak_rss_mb", metric(e.peak_rss, "MiB"))
          .raw("wire_bytes_per_trial",
               metric(ratio(e.wire_bytes, e.dist_colorings), "bytes"))
          .raw("sim_makespan_per_trial",
               metric(ratio(e.sim_makespan, e.dist_colorings), "model-ops"))
          .done();
  const std::string details =
      Json()
          .num("rounds", rounds)
          .num("ops", attempted)
          .num("colorings", colorings_done)
          .num("failed_frac", ratio(failed, attempted))
          .raw("dnf", json_list(dnf))
          .raw("op_walls", json_list(op_walls))  // [cell, s] per timed op
          .num("op_tail_percentile", tail.percentile)
          .num("op_tail_samples_beyond", tail.beyond)
          .num("setup_reps", kSetupReps)
          .str("wire_and_makespan_from",
               w.kind == Kind::kDistributed
                   ? "every timed op"
                   : "untimed cross-check: one single-coloring distributed "
                     "run per cell on 16 virtual ranks")
          .done();
  return Json()
      .num("attempted", attempted)
      .num("failed", failed)
      .raw("metrics", metrics)
      .raw("details", details)
      .raw("cells", cells_json(cells))
      .done();
}

// --------------------------------------------------------- traced run

struct LayerSums {
  int ops = 0;
  int colorings = 0;
  double traced_wall = 0.0;
  double untraced_wall = 0.0;
  double one_thread_wall = 0.0;
  double untraced_cpu = 0.0;
  double untimed = 0.0;
  double coverage_min = 1.0;
  double coverage_sum = 0.0;
  std::size_t peak_entries = 0;
  StageWall stage;
  AccumTelemetry accum;
  // Distributed runs: every op on dist-skew, the per-cell cross-check
  // elsewhere. The dist.* metrics are taken over these.
  int dist_runs = 0;
  int dist_colorings = 0;
  double dist_transport = 0.0;
  CommStats comm;
  double dist_ops_max = 0.0, dist_ops_avg = 0.0, modeled_comm = 0.0;

  void add_dist(const DistStats& d) {
    ++dist_runs;
    dist_colorings += d.lanes_used;
    dist_transport += d.stage.transport;
    comm.supersteps += d.transport.supersteps;
    comm.entries_sent += d.transport.entries_sent;
    comm.off_rank_entries += d.transport.off_rank_entries;
    dist_ops_max += static_cast<double>(d.max_rank_ops);
    dist_ops_avg += d.avg_rank_ops;
    modeled_comm += static_cast<double>(d.total_comm);
  }
};

/// Sum of span seconds with this name (prefix match when `prefix`).
double span_seconds(const std::vector<Span>& spans, const std::string& name,
                    bool prefix = false) {
  double s = 0.0;
  for (const Span& sp : spans) {
    if (prefix ? sp.name.rfind(name, 0) == 0 : sp.name == name) {
      s += sp.seconds();
    }
  }
  return s;
}

int span_count(const std::vector<Span>& spans, const std::string& name) {
  int n = 0;
  for (const Span& sp : spans) n += sp.name == name;
  return n;
}

/// One op under the tracer. The op span's direct children are the layer
/// spans whose union is the op's coverage.
std::vector<Count> traced_op(const WorkloadDef& w, const Cell& c,
                             const OpInput& in, const Coloring* one,
                             Tracer& tr, LayerSums& L, std::size_t& peak) {
  std::vector<Count> counts;
  const int root = tr.begin("op");
  if (w.kind == Kind::kDistributed) {
    std::optional<std::vector<Coloring>> lanes;
    std::optional<ColoringBatch> batch;
    {
      Scoped s(tr, "core.colorings");
      lanes.emplace(colorings(c, in));
      batch.emplace(*lanes);
    }
    Scoped s(tr, "dist.run_plan_distributed");
    const DistStats d = run_plan_distributed(c.g, c.plan.tree, *batch, kRanks);
    tr.stage()->add(d.stage);
    tr.accum()->add(d.accum);
    LaneTelemetry& lanes_seen = *tr.lanes();
    lanes_seen.rows += d.lanes.rows;
    lanes_seen.lane_slots += d.lanes.lane_slots;
    lanes_seen.lanes_occupied += d.lanes.lanes_occupied;
    lanes_seen.rows_packed += d.lanes.rows_packed;
    for (int i = 0; i < 3; ++i) {
      lanes_seen.width_rows[i] += d.lanes.width_rows[i];
    }
    L.add_dist(d);
    for (int l = 0; l < d.lanes_used; ++l) counts.push_back(d.colorful_lane[l]);
  } else {
    std::optional<std::vector<Coloring>> lanes;
    std::optional<ColoringBatch> batch;
    {
      Scoped s(tr, "core.colorings");
      if (one != nullptr) {
        batch.emplace(*one);
      } else {
        lanes.emplace(colorings(c, in));
        batch.emplace(*lanes);
      }
    }
    std::optional<ExecContext> cx;
    {
      Scoped s(tr, "core.context");
      cx.emplace(ExecContext{c.g, *batch, *c.order,
                             BlockPartition(c.g.num_vertices(), 0), nullptr,
                             c.session->options()});
      cx->stage = tr.stage();
      cx->accum = tr.accum();
      cx->lane_telemetry = tr.lanes();
    }
    const perfbench::DriverResult r =
        perfbench::drive_blocks(*cx, c.plan.tree, tr);
    peak = r.peak_table_entries;
    for (int l = 0; l < batch->lanes(); ++l) counts.push_back(r.lanes[l]);
  }
  tr.end(root);

  const std::vector<Span>& spans = tr.spans();
  const Span& op = spans[root];
  double covered = 0.0;
  for (std::size_t i = root + 1; i < spans.size(); ++i) {
    if (spans[i].parent == root) covered += spans[i].seconds();
  }
  const double cov = ratio(covered, op.seconds());
  L.coverage_min = std::min(L.coverage_min, cov);
  L.coverage_sum += cov;
  L.traced_wall += op.seconds();
  L.untimed += op.seconds() - op.stage.total();
  L.stage.add(op.stage);
  L.accum.add(op.accum);
  return counts;
}

std::string run_traced(const WorkloadDef& w, std::uint64_t seed, int rounds,
                       int threads, Checks& ck, const std::string& out) {
  Tracer tr;
  SetupTimes st;
  const auto cells = set_up(w, &tr, st);
  const std::vector<OpInput> plan = schedule(w, seed, rounds);

  LayerSums L;
  int attempted = 0, failed = 0;
  std::vector<int> first_op(cells.size(), -1);  // first completed op
  std::vector<Count> first_count(cells.size());  // its lane-0 count
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const OpInput& in = plan[i];
    const Cell& c = *cells[in.cell];
    const std::string at = c.name();
    const std::size_t mismatches_before = ck.mismatches.size();
    OpRecord rec;
    omp_set_num_threads(threads);  // an op that threw may have left 1
    run_guarded(c, rec, ck, [&] {
      std::optional<Coloring> one;
      if (w.kind == Kind::kOneShot) {
        one.emplace(c.g.num_vertices(), c.q.num_nodes(), in.lanes[0]);
      }
      std::vector<Count> plain;
      std::size_t plain_peak = 0;
      auto untraced = [&] {
        const double cpu0 = cpu_seconds();
        const Timer t;
        if (w.kind == Kind::kDistributed) {
          const std::vector<Coloring> lanes = colorings(c, in);
          const DistStats d = run_plan_distributed(
              c.g, c.plan.tree, ColoringBatch(lanes), kRanks);
          for (int l = 0; l < d.lanes_used; ++l)
            plain.push_back(d.colorful_lane[l]);
        } else {
          const ExecStats s =
              one ? c.session->count_colorful(*one)
                  : c.session->count_colorful_seeded(in.lanes);
          plain_peak = s.peak_table_entries;
          for (int l = 0; l < s.lanes_used; ++l)
            plain.push_back(s.colorful_lane[l]);
        }
        L.untraced_wall += t.seconds();
        L.untraced_cpu += cpu_seconds() - cpu0;
      };
      std::vector<Count> traced;
      std::size_t traced_peak = 0;
      tr.set_op(static_cast<int>(i));
      // Alternate which side runs first so drift cancels.
      if (i % 2 == 0) untraced();
      traced = traced_op(w, c, in, one ? &*one : nullptr, tr, L,
                         traced_peak);
      if (i % 2 == 1) untraced();
      ck.expect(traced == plain,
                at + ": block driver counts != run_plan counts");
      if (w.kind != Kind::kDistributed) {
        ck.expect(traced_peak == plain_peak,
                  at + ": block driver peak table != run_plan peak table");
      }
      L.peak_entries = std::max(L.peak_entries, traced_peak);
      if (w.threaded) {
        omp_set_num_threads(1);
        const Timer t;
        const ExecStats s = c.session->count_colorful(*one);
        L.one_thread_wall += t.seconds();
        omp_set_num_threads(threads);
        ck.expect(s.colorful == plain[0],
                  at + ": 1-thread count != threaded count");
      }
      L.colorings += static_cast<int>(plain.size());
      if (first_op[in.cell] < 0) first_count[in.cell] = plain[0];
    });
    ++attempted;
    const bool op_failed =
        rec.failed || ck.mismatches.size() > mismatches_before;
    failed += op_failed;
    if (!op_failed && first_op[in.cell] < 0) {
      first_op[in.cell] = static_cast<int>(i);
    }
    ++L.ops;
  }
  // The shared-memory workloads measure the dist layer on the untimed
  // cross-check of the untraced run: one single-coloring distributed run
  // per cell on kRanks ranks, outside every op span. Its count must match
  // the first op's; a mismatch fails that op.
  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    if (w.kind == Kind::kDistributed || first_op[ci] < 0) continue;
    const Cell& c = *cells[ci];
    const OpInput& in = plan[first_op[ci]];
    const std::size_t before = ck.mismatches.size();
    OpRecord verify;
    omp_set_num_threads(threads);
    run_guarded(c, verify, ck, [&] {
      const Coloring chi(c.g.num_vertices(), c.q.num_nodes(), in.lanes[0]);
      const DistStats d = run_plan_distributed(c.g, c.plan.tree, chi, kRanks);
      ck.expect(d.colorful == first_count[ci],
                c.name() + ": distributed count != shared count");
      L.add_dist(d);
    });
    failed += verify.failed || ck.mismatches.size() > before;
  }
  if (!out.empty() && !tr.write_chrome(out)) {
    ck.warnings.push_back("could not write trace file " + out);
  }

  const std::vector<Span>& spans = tr.spans();
  const double ops = std::max(1, L.ops);
  const LaneTelemetry& lanes = *tr.lanes();
  const AccumTelemetry& a = L.accum;
  const double folds =
      static_cast<double>(a.combine_folds + a.frontier_folds);
  const double sparse_frac = ratio(a.sparse_phases, a.phases);

  // Regime guard: which side of the sparse flip the workload ran on.
  std::string guard = "n/a";
  if (w.expect_sparse >= 0) {
    const bool ok = w.expect_sparse == 0 ? a.sparse_phases == 0
                                         : a.sparse_phases > 0;
    guard = ok ? "ok" : "DRIFT";
    if (!ok) {
      ck.warnings.push_back(
          std::string("regime drift: ") + w.name + " expects " +
          (w.expect_sparse == 0 ? "0" : "> 0") + " sparse phases, saw " +
          std::to_string(a.sparse_phases) + " of " +
          std::to_string(a.phases));
    }
  }
  const double coverage_mean = ratio(L.coverage_sum, L.ops);
  if (L.coverage_min < 0.95) {
    ck.warnings.push_back("span coverage below the 95% target: min " +
                          fmt_num(L.coverage_min));
  }

  Json m;
  m.raw("graph.generate_s", metric(median(st.generate), "s"))
      .raw("graph.degree_order_s", metric(median(st.degree_order), "s"))
      .raw("decomp.make_plan_s", metric(median(st.make_plan), "s"))
      .raw("core.session_s", metric(median(st.session), "s"))
      .raw("core.untimed_s", metric(L.untimed / ops, "s"))
      .raw("engine.cycle_block_s",
           metric(span_seconds(spans, "engine.cycle_block") / ops, "s"))
      .raw("engine.leaf_block_s",
           metric(span_seconds(spans, "engine.leaf_block") / ops, "s"))
      .raw("engine.build_path_s",
           metric(span_seconds(spans, "engine.build_path", true) / ops, "s"))
      .raw("engine.merge_halves_s",
           metric(span_seconds(spans, "engine.merge_halves") / ops, "s"))
      .raw("engine.splits",
           metric(span_count(spans, "engine.build_path+") / ops, "count"))
      .raw("engine.cpu_util",
           metric(ratio(L.untraced_cpu, L.untraced_wall), "ratio"))
      .raw("engine.parallel_speedup",
           metric(w.threaded ? ratio(L.one_thread_wall, L.untraced_wall)
                             : 0.0,
                  "x"))
      .raw("engine.peak_table_entries",
           metric(static_cast<double>(L.peak_entries), "entries"))
      .raw("table.accumulate_s", metric(L.stage.accumulate / ops, "s"))
      .raw("table.seal_s", metric(L.stage.seal / ops, "s"))
      .raw("table.merge_s", metric(L.stage.merge / ops, "s"))
      .raw("table.rows_emitted",
           metric(static_cast<double>(a.rows) / ops, "rows"))
      .raw("table.emit_bytes_per_trial",
           metric(ratio(a.emit_bytes, L.colorings), "bytes"))
      .raw("table.bytes_per_row", metric(a.bytes_per_row(), "bytes"))
      .raw("table.sharded_phase_frac",
           metric(ratio(a.sharded_phases, a.phases), "ratio"))
      .raw("table.sparse_phase_frac", metric(sparse_frac, "ratio"))
      .raw("table.phases", metric(static_cast<double>(a.phases), "count"))
      .raw("table.sparse_phases",
           metric(static_cast<double>(a.sparse_phases), "count"))
      .raw("table.fold_ratio",
           metric(ratio(folds, static_cast<double>(a.rows) + folds), "ratio"))
      .raw("table.lane_density", metric(lanes.density(), "ratio"))
      .raw("table.wide_row_frac",
           metric(ratio(lanes.width_rows[1] + lanes.width_rows[2],
                        lanes.rows_packed),
                  "ratio"))
      .raw("dist.transport_s",
           metric(ratio(L.dist_transport, L.dist_runs), "s"))
      .raw("dist.supersteps_per_trial",
           metric(ratio(L.comm.supersteps, L.dist_colorings), "count"))
      .raw("dist.off_rank_frac",
           metric(ratio(L.comm.off_rank_entries, L.comm.entries_sent),
                  "ratio"))
      .raw("dist.resharding_x",
           metric(ratio(L.comm.off_rank_entries, L.modeled_comm), "x"))
      .raw("dist.load_imbalance",
           metric(ratio(L.dist_ops_max, L.dist_ops_avg), "x"))
      .raw("trace.span_coverage", metric(L.coverage_min, "ratio"))
      .raw("trace.trials_per_s",
           metric(ratio(L.colorings, L.traced_wall), "colorings/s"))
      .raw("trace.untraced_trials_per_s",
           metric(ratio(L.colorings, L.untraced_wall), "colorings/s"));

  const std::string details =
      Json()
          .num("rounds", rounds)
          .num("ops", attempted)
          .num("spans", static_cast<double>(spans.size()))
          .num("span_coverage_mean", coverage_mean)
          .num("span_coverage_target", 0.95)
          .num("tracing_overhead",
               ratio(L.traced_wall, L.untraced_wall) - 1.0)
          .str("regime", w.regime)
          .str("regime_guard", guard)
          .num("sparse_phases", static_cast<double>(a.sparse_phases))
          .num("phases", static_cast<double>(a.phases))
          .done();
  return Json()
      .num("attempted", attempted)
      .num("failed", failed)
      .raw("metrics", m.done())
      .raw("details", details)
      .raw("cells", cells_json(cells))
      .done();
}

// ------------------------------------------------------------------ main

int usage(const char* msg) {
  std::cerr << "perfbench: " << msg
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\nworkloads:";
  for (const WorkloadDef& w : kWorkloads) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // The benchmark measures production defaults: refuse any CCBT_* knob.
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "CCBT_", 5) == 0) {
      std::cerr << "perfbench: refusing to run with " << *e
                << " set; unset every CCBT_* variable\n";
      return 2;
    }
  }
  std::string workload, trace_out;
  long long seed = -1, seconds = -1, trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      workload = v;
    } else if (flag == "--seed") {
      seed = std::atoll(v);
    } else if (flag == "--seconds") {
      seconds = std::atoll(v);
    } else if (flag == "--trace") {
      trace = std::atoll(v);
    } else if (flag == "--trace-out") {
      trace_out = v;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return usage("flags take one value each");
  const WorkloadDef* w = nullptr;
  for (const WorkloadDef& d : kWorkloads) {
    if (workload == d.name) w = &d;
  }
  if (w == nullptr) return usage("unknown or missing --workload");
  if (seed < 0 || seconds < 1 || (trace != 0 && trace != 1)) {
    return usage("--seed >= 0, --seconds >= 1 and --trace 0|1 are required");
  }

  const int threads = w->threaded ? std::min(kJoinThreads, omp_get_num_procs()) : 1;
  omp_set_num_threads(threads);
  const int rounds = std::max(
      1, static_cast<int>(std::lround(static_cast<double>(seconds) /
                                      w->round_s)));

  Checks ck;
  std::string body;
  try {
    body = trace == 1
               ? run_traced(*w, static_cast<std::uint64_t>(seed), rounds,
                            threads, ck, trace_out)
               : run_untraced(*w, static_cast<std::uint64_t>(seed), rounds,
                              ck);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << w->name << " aborted: " << e.what() << '\n';
    return 1;
  }
  // Splice the run facts into the body object.
  const std::string run =
      Json()
          .str("workload", w->name)
          .num("seed", static_cast<double>(seed))
          .num("seconds", static_cast<double>(seconds))
          .num("trace", static_cast<double>(trace))
          .num("omp_threads", threads)
          .num("batch", w->batch)
          .num("scale", kScale)
          .str("regime", w->regime)
          .str("compiler", PERFBENCH_COMPILER)
          .str("build_type", PERFBENCH_BUILD_TYPE)
          .boolean("correct", ck.mismatches.empty())
          .num("checks_passed", ck.passed)
          .raw("mismatches", string_list(ck.mismatches))
          .raw("failures", string_list(ck.failures))
          .raw("warnings", string_list(ck.warnings))
          .done();
  std::cout << "{" << run.substr(1, run.size() - 2) << ","
            << body.substr(1) << std::endl;
  return ck.mismatches.empty() ? 0 : 1;
}
