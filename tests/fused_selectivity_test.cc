// The selectivity engine against the naive reference evaluator
// (tests/reference/naive_selectivity.h), which shares no code with it: the
// SelectivityMap must equal the oracle's bit for bit across num_threads ∈
// {1, 2, 4} × k ∈ {1, .., max_k}, on sparse, mid-density and
// near-complete Erdős–Rényi graphs, forest fire (to k = 5), >64 labels
// (skewed labels live in scheduler_skew_test.cc), and a graph large
// enough that the extender falls back from per-label markers to emission
// arenas. The max_pairs_per_prefix status must name the oracle's first
// pre-order violation, with limits placed so that the violation lands at
// level 1, at level 2 and at level >= 3. Also covers task-count
// resolution and the once-per-root callback contract under task
// decomposition.

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gen/generator.h"
#include "gen/label_assigner.h"
#include "graph/graph_builder.h"
#include "path/pair_set.h"
#include "path/selectivity.h"
#include "reference/naive_selectivity.h"
#include "test_util.h"

namespace pathest {
namespace {

using reference::NaiveSelectivity;

Graph ErdosRenyiGraph(size_t num_vertices, size_t num_edges,
                      size_t num_labels, uint64_t seed) {
  UniformLabelAssigner labels(num_labels);
  ErdosRenyiParams params;
  params.num_vertices = num_vertices;
  params.num_edges = num_edges;
  params.seed = seed;
  auto g = GenerateErdosRenyi(params, &labels);
  PATHEST_CHECK(g.ok(), "Erdős–Rényi generation failed");
  return std::move(g).ValueOrDie();
}

Graph ForestFireGraph(size_t num_vertices, size_t num_labels, uint64_t seed) {
  UniformLabelAssigner labels(num_labels);
  ForestFireParams params;
  params.num_vertices = num_vertices;
  params.seed = seed;
  auto g = GenerateForestFire(params, &labels);
  PATHEST_CHECK(g.ok(), "forest fire generation failed");
  return std::move(g).ValueOrDie();
}

SelectivityMap Compute(const Graph& g, size_t k, size_t threads) {
  SelectivityOptions options;
  options.num_threads = threads;
  auto map = ComputeSelectivities(g, k, options);
  PATHEST_CHECK(map.ok(), "selectivity computation failed");
  return std::move(map).ValueOrDie();
}

// Asserts threads {1, 2, 4} × k ∈ [1, max_k] against the oracle. The
// canonical layout is length-major, so the L_k map is a prefix of the
// L_max_k one: the oracle runs once.
void ExpectMatchesOracle(const Graph& g, size_t max_k) {
  const std::vector<uint64_t> oracle =
      NaiveSelectivity(g).AllSelectivities(max_k);
  for (size_t k = 1; k <= max_k; ++k) {
    const std::vector<uint64_t> expected(
        oracle.begin(),
        oracle.begin() +
            static_cast<ptrdiff_t>(PathSpace(g.num_labels(), k).size()));
    for (size_t threads : {1u, 2u, 4u}) {
      EXPECT_EQ(Compute(g, k, threads).values(), expected)
          << "k=" << k << " threads=" << threads;
    }
  }
}

TEST(FusedSelectivityTest, SparseErdosRenyi) {
  ExpectMatchesOracle(ErdosRenyiGraph(300, 600, 4, 13), /*max_k=*/4);
}

TEST(FusedSelectivityTest, MidDensityErdosRenyi) {
  ExpectMatchesOracle(ErdosRenyiGraph(200, 2400, 3, 29), /*max_k=*/4);
}

TEST(FusedSelectivityTest, DenseErdosRenyi) {
  // Avg degree ~25 on 60 vertices: pair sets saturate toward |V|^2.
  ExpectMatchesOracle(ErdosRenyiGraph(60, 1500, 3, 7), /*max_k=*/4);
  ExpectMatchesOracle(ErdosRenyiGraph(120, 1400, 3, 5), /*max_k=*/4);
}

TEST(FusedSelectivityTest, ForestFire) {
  ExpectMatchesOracle(ForestFireGraph(350, 5, 17), /*max_k=*/4);
}

TEST(FusedSelectivityTest, ForestFireDeeper) {
  ExpectMatchesOracle(ForestFireGraph(150, 3, 23), /*max_k=*/5);
}

TEST(FusedSelectivityTest, EmissionArenaFallbackMatchesOracle) {
  // |V|·|L| above FusedExtender::kMaxMarkerEntries: the extender keeps no
  // per-label markers and deduplicates every cell through its emission
  // arenas and one shared marker. A dense 300-vertex core gives groups
  // many repeated candidates; sparse edges over the whole vertex range
  // (both endpoints up to the top id) keep the graph large.
  constexpr size_t kLabels = 8;
  constexpr size_t kVertices = FusedExtender::kMaxMarkerEntries / kLabels + 1;
  GraphBuilder builder;
  for (size_t l = 0; l < kLabels; ++l) builder.AddLabel(std::to_string(l));
  std::mt19937_64 rng(31);
  auto add_random_edges = [&](size_t count, size_t range) {
    std::uniform_int_distribution<VertexId> vertex(
        0, static_cast<VertexId>(range - 1));
    std::uniform_int_distribution<LabelId> label(0, kLabels - 1);
    for (size_t i = 0; i < count; ++i) {
      const VertexId src = vertex(rng);
      const LabelId l = label(rng);
      builder.AddEdge(src, l, vertex(rng));
    }
  };
  add_random_edges(6000, 300);
  add_random_edges(200000, kVertices);
  builder.AddEdge(static_cast<VertexId>(kVertices - 1), LabelId{0}, 0);
  builder.AddEdge(0, LabelId{1}, static_cast<VertexId>(kVertices - 1));
  auto built = builder.Build();
  ASSERT_TRUE(built.ok());
  ASSERT_EQ(built->num_vertices(), kVertices);
  ASSERT_GT(built->num_vertices() * built->num_labels(),
            FusedExtender::kMaxMarkerEntries);
  ExpectMatchesOracle(*built, /*max_k=*/3);
}

TEST(FusedSelectivityTest, MoreThan64LabelsSupported) {
  // Wide label sets exercise the per-label marker arrays well past
  // the old 64-label bitmask ceiling; k = 3 runs the |L|² = 4900 prefix
  // tasks. k stops at 3: the L_4 map over 70 labels alone is 24M entries.
  const Graph g = ErdosRenyiGraph(80, 4000, 70, 3);
  ASSERT_EQ(g.num_labels(), 70u);
  ExpectMatchesOracle(g, /*max_k=*/3);
}

TEST(FusedSelectivityTest, RandomizedSeedSweep) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    ExpectMatchesOracle(ErdosRenyiGraph(120, 40 * seed * seed, 4, seed),
                        /*max_k=*/3);
    ExpectMatchesOracle(ForestFireGraph(100 + 30 * seed, 4, seed),
                        /*max_k=*/3);
  }
}

// Guard limits whose first pre-order violation lands at `level` (levels
// >= 3 share one bucket). A materialized set larger than every set before
// it in pre-order is the first violation for every limit in [largest set
// before it, its size - 1]; both ends of the first such range at `level`
// are returned (0 means "unlimited", so it is left out). Empty when no
// limit lands there.
std::vector<uint64_t> LimitsLandingAt(
    const std::vector<NaiveSelectivity::Materialized>& preorder,
    size_t level) {
  uint64_t max_before = 0;
  for (const NaiveSelectivity::Materialized& node : preorder) {
    const size_t bucket = std::min<size_t>(node.path.length(), 3);
    if (node.pairs > max_before && bucket == level) {
      std::vector<uint64_t> limits;
      for (uint64_t limit : {max_before, node.pairs - 1}) {
        if (limit > 0 && (limits.empty() || limits.back() != limit)) {
          limits.push_back(limit);
        }
      }
      if (!limits.empty()) return limits;
    }
    max_before = std::max(max_before, node.pairs);
  }
  return {};
}

TEST(FusedSelectivityTest, GuardStatusMatchesOracleFirstViolation) {
  // Level-1 violations surface from the pre-pass, level-2 ones from the
  // cell guard, deeper ones from inside prefix tasks; every one must name
  // the oracle's first pre-order violation, whatever the thread count.
  const size_t k = 4;
  const Graph graphs[] = {ErdosRenyiGraph(80, 1200, 3, 5),
                          ErdosRenyiGraph(200, 2400, 3, 29),
                          ErdosRenyiGraph(120, 1400, 3, 5)};
  for (const Graph& g : graphs) {
    const NaiveSelectivity oracle(g);
    const std::vector<uint64_t> all = oracle.AllSelectivities(k);
    const auto preorder = oracle.MaterializedPreorder(k);
    uint64_t max_pairs = 0;
    for (const auto& node : preorder) {
      max_pairs = std::max(max_pairs, node.pairs);
    }
    std::vector<uint64_t> limits;
    for (size_t level : {1u, 2u, 3u}) {
      const std::vector<uint64_t> landing = LimitsLandingAt(preorder, level);
      ASSERT_FALSE(landing.empty()) << "no limit lands at level " << level
                                    << " on |V|=" << g.num_vertices();
      for (uint64_t limit : landing) {
        ASSERT_EQ(std::min<size_t>(
                      oracle.FirstGuardViolation(k, limit)->length(), 3),
                  level);
        limits.push_back(limit);
      }
    }
    limits.push_back(max_pairs);  // the largest set fits: no violation
    for (uint64_t limit : limits) {
      const auto violation = oracle.FirstGuardViolation(k, limit);
      for (size_t threads : {1u, 2u, 4u}) {
        SelectivityOptions options;
        options.num_threads = threads;
        options.max_pairs_per_prefix = limit;
        auto result = ComputeSelectivities(g, k, options);
        const std::string where = "limit=" + std::to_string(limit) +
                                  " threads=" + std::to_string(threads);
        if (!violation.has_value()) {
          ASSERT_TRUE(result.ok()) << where;
          EXPECT_EQ(result->values(), all) << where;
          continue;
        }
        ASSERT_FALSE(result.ok()) << where;
        EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
            << where;
        EXPECT_EQ(result.status().message(),
                  "pair set exceeds max_pairs_per_prefix at path " +
                      violation->ToIdString())
            << where;
      }
    }
  }
}

TEST(FusedSelectivityTest, GuardStatusAtFixedLimit) {
  // A limit picked without reference to the pre-order sizes: the guard
  // must still trip at the oracle's first violation with its message.
  const Graph g = ErdosRenyiGraph(80, 1200, 3, 5);
  const uint64_t limit = 400;
  const auto violation =
      NaiveSelectivity(g).FirstGuardViolation(4, limit);
  ASSERT_TRUE(violation.has_value());
  for (size_t threads : {1u, 2u, 4u}) {
    SelectivityOptions options;
    options.num_threads = threads;
    options.max_pairs_per_prefix = limit;
    auto result = ComputeSelectivities(g, 4, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(result.status().message(),
              "pair set exceeds max_pairs_per_prefix at path " +
                  violation->ToIdString())
        << "threads=" << threads;
  }
}

TEST(FusedSelectivityTest, TaskCountAndThreadResolution) {
  EXPECT_EQ(SelectivityTaskCount(6, 4), 36u);
  EXPECT_EQ(SelectivityTaskCount(6, 3), 36u);
  // k = 1 and k = 2 complete entirely in the pre-pass: one task per root.
  EXPECT_EQ(SelectivityTaskCount(6, 2), 6u);
  EXPECT_EQ(SelectivityTaskCount(6, 1), 6u);

  SelectivityOptions options;
  options.num_threads = 64;
  // Builds scale to |L|² workers.
  EXPECT_EQ(ResolvedNumThreads(options, 6, 4), 36u);
  EXPECT_EQ(ResolvedNumThreads(options, 6, 2), 6u);
  options.num_threads = 8;
  EXPECT_EQ(ResolvedNumThreads(options, 6, 4), 8u);
}

TEST(FusedSelectivityTest, ThreadCountAboveTaskCountIsClamped) {
  Graph g = testing_util::SmallGraph();  // 3 labels -> 9 prefix tasks
  SelectivityOptions options;
  options.num_threads = 64;  // clamped to |L|² internally
  auto map = ComputeSelectivities(g, 3, options);
  ASSERT_TRUE(map.ok());
  EXPECT_EQ(map->values(), NaiveSelectivity(g).AllSelectivities(3));
}

TEST(FusedSelectivityTest, ProgressAndLabelTimeFireOncePerRoot) {
  // Under task decomposition a root's subtree spans many tasks, but the
  // callbacks must still fire exactly once per root (documented contract),
  // serialized behind the engine's mutex.
  Graph g = ForestFireGraph(300, 6, 3);
  for (size_t threads : {1u, 4u}) {
    SelectivityOptions options;
    options.num_threads = threads;
    std::multiset<LabelId> progress_roots;
    std::vector<double> times;
    options.progress = [&](LabelId root) { progress_roots.insert(root); };
    options.label_time = [&](LabelId, double ms) {
      EXPECT_GE(ms, 0.0);
      times.push_back(ms);
    };
    auto map = ComputeSelectivities(g, 3, options);
    ASSERT_TRUE(map.ok());
    ASSERT_EQ(progress_roots.size(), g.num_labels());
    for (LabelId l = 0; l < g.num_labels(); ++l) {
      EXPECT_EQ(progress_roots.count(l), 1u) << "root " << l;
    }
    EXPECT_EQ(times.size(), g.num_labels());
  }
}

}  // namespace
}  // namespace pathest
