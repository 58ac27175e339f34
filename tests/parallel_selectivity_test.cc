// Determinism and failure-semantics tests for the parallel selectivity
// engine: the SelectivityMap must be bit-identical for every num_threads
// value, and the max_pairs_per_prefix guard must report the naive
// reference evaluator's first violation under parallelism as it does
// serially.

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "gen/generator.h"
#include "gen/label_assigner.h"
#include "path/selectivity.h"
#include "reference/naive_selectivity.h"
#include "test_util.h"

namespace pathest {
namespace {

Graph ForestFireGraph(size_t num_vertices, size_t num_labels, uint64_t seed) {
  UniformLabelAssigner labels(num_labels);
  ForestFireParams params;
  params.num_vertices = num_vertices;
  params.seed = seed;
  auto g = GenerateForestFire(params, &labels);
  PATHEST_CHECK(g.ok(), "forest fire generation failed");
  return std::move(g).ValueOrDie();
}

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

// Runs ComputeSelectivities at every thread count and asserts the maps are
// bit-identical to the serial baseline.
void ExpectThreadCountInvariance(const Graph& g, size_t k) {
  SelectivityOptions serial;
  serial.num_threads = 1;
  auto baseline = ComputeSelectivities(g, k, serial);
  ASSERT_TRUE(baseline.ok());
  for (size_t threads : {2u, 3u, 4u, 0u}) {  // 0 = hardware concurrency
    SelectivityOptions options;
    options.num_threads = threads;
    auto map = ComputeSelectivities(g, k, options);
    ASSERT_TRUE(map.ok()) << "threads=" << threads;
    EXPECT_EQ(map->values(), baseline->values()) << "threads=" << threads;
  }
}

TEST(ParallelSelectivityTest, DeterministicOnForestFire) {
  ExpectThreadCountInvariance(ForestFireGraph(400, 5, 7), /*k=*/4);
}

TEST(ParallelSelectivityTest, DeterministicOnForestFireSecondSeed) {
  ExpectThreadCountInvariance(ForestFireGraph(250, 4, 99), /*k=*/5);
}

TEST(ParallelSelectivityTest, DeterministicOnErdosRenyi) {
  ExpectThreadCountInvariance(ErdosRenyiGraph(200, 800, 5, 11), /*k=*/4);
}

TEST(ParallelSelectivityTest, DeterministicOnErdosRenyiDense) {
  // Denser graph: larger pair sets stress the scratch reuse.
  ExpectThreadCountInvariance(ErdosRenyiGraph(80, 1200, 3, 5), /*k=*/5);
}

// Asserts that ComputeSelectivities(g, k) under `limit` fails with the
// oracle's first pre-order violation at every thread count.
void ExpectGuardStatusMatchesOracle(const Graph& g, size_t k,
                                    uint64_t limit) {
  const auto violation =
      reference::NaiveSelectivity(g).FirstGuardViolation(k, limit);
  ASSERT_TRUE(violation.has_value()) << "limit=" << limit;
  for (size_t threads : {1u, 2u, 4u, 0u}) {
    SelectivityOptions options;
    options.num_threads = threads;
    options.max_pairs_per_prefix = limit;
    auto result = ComputeSelectivities(g, k, options);
    ASSERT_FALSE(result.ok()) << "threads=" << threads;
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
    // The first violation wins regardless of scheduling, so the message
    // (which names the failing path) is deterministic too.
    EXPECT_EQ(result.status().message(),
              "pair set exceeds max_pairs_per_prefix at path " +
                  violation->ToIdString())
        << "threads=" << threads;
  }
}

TEST(ParallelSelectivityTest, MaxPairsAbortMatchesOracle) {
  // Far below the level-1 pair sets: the very first root trips.
  ExpectGuardStatusMatchesOracle(ErdosRenyiGraph(200, 800, 5, 11), 4, 50);
}

TEST(ParallelSelectivityTest, MaxPairsAbortDeepInTreeUnderParallelism) {
  // A guard high enough to pass level 1 but trip deeper in the DFS, so the
  // abort surfaces from inside worker threads rather than the root setup.
  Graph g = ErdosRenyiGraph(80, 1200, 3, 5);
  uint64_t level1_max = 0;
  for (LabelId l = 0; l < g.num_labels(); ++l) {
    level1_max = std::max(level1_max, g.LabelCardinality(l));
  }
  const auto violation =
      reference::NaiveSelectivity(g).FirstGuardViolation(4, level1_max);
  ASSERT_TRUE(violation.has_value());
  ASSERT_GE(violation->length(), 2u);
  ExpectGuardStatusMatchesOracle(g, 4, level1_max);
}

TEST(ParallelSelectivityTest, ProgressAndLabelTimeFireOncePerRoot) {
  Graph g = ForestFireGraph(300, 6, 3);
  SelectivityOptions options;
  options.num_threads = 4;
  // The engine serializes both callbacks behind one mutex (documented in
  // selectivity.h), so plain containers need no locking here.
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

TEST(ParallelSelectivityTest, ThreadCountAboveLabelCountIsClamped) {
  Graph g = testing_util::SmallGraph();  // 3 labels
  SelectivityOptions options;
  options.num_threads = 64;  // clamped to the task count internally
  auto map = ComputeSelectivities(g, 3, options);
  ASSERT_TRUE(map.ok());
  auto baseline = ComputeSelectivities(g, 3);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(map->values(), baseline->values());
}

}  // namespace
}  // namespace pathest
