// The kernel-selection contract (selectivity.h): the SelectivityMap is
// bit-identical across kernel ∈ {auto, sparse, dense} and num_threads ∈
// {1, 2, 4}, on graphs spanning the density spectrum (sparse Erdős–Rényi
// through near-complete, plus forest fire), and equal to the naive
// reference evaluator's (tests/reference/naive_selectivity.h) under both
// forced kernels. Also covers the lifted 64-label ceiling of the leaf
// pass and the guard status under every kernel.

#include <vector>

#include <gtest/gtest.h>

#include "gen/generator.h"
#include "gen/label_assigner.h"
#include "path/selectivity.h"
#include "reference/naive_selectivity.h"

namespace pathest {
namespace {

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

SelectivityMap Compute(const Graph& g, size_t k, PairKernel kernel,
                       size_t threads) {
  SelectivityOptions options;
  options.kernel = kernel;
  options.num_threads = threads;
  auto map = ComputeSelectivities(g, k, options);
  PATHEST_CHECK(map.ok(), "selectivity computation failed");
  return std::move(map).ValueOrDie();
}

// Asserts the full kernel × threads grid against the sparse serial map.
void ExpectKernelAndThreadInvariance(const Graph& g, size_t k) {
  const SelectivityMap baseline = Compute(g, k, PairKernel::kSparse, 1);
  for (PairKernel kernel :
       {PairKernel::kAuto, PairKernel::kSparse, PairKernel::kDense}) {
    for (size_t threads : {1u, 2u, 4u}) {
      const SelectivityMap map = Compute(g, k, kernel, threads);
      EXPECT_EQ(map.values(), baseline.values())
          << "kernel=" << PairKernelName(kernel) << " threads=" << threads;
    }
  }
}

TEST(KernelSelectivityTest, SparseErdosRenyi) {
  // Avg degree ~2: nearly every cell stays under the density threshold, so
  // auto runs the marker kernel and forced-dense exercises bitmap scans on
  // tiny groups.
  ExpectKernelAndThreadInvariance(ErdosRenyiGraph(300, 600, 4, 13), /*k=*/4);
}

TEST(KernelSelectivityTest, MidDensityErdosRenyi) {
  // Avg degree ~12: level-1 groups are sparse, deeper levels dense — the
  // regime where auto genuinely mixes both kernels within one evaluation.
  ExpectKernelAndThreadInvariance(ErdosRenyiGraph(200, 2400, 3, 29), /*k=*/4);
}

TEST(KernelSelectivityTest, DenseErdosRenyi) {
  // Avg degree ~25 on 60 vertices: pair sets saturate toward |V|^2 and the
  // penultimate pass is all-dense.
  ExpectKernelAndThreadInvariance(ErdosRenyiGraph(60, 1500, 3, 7), /*k=*/4);
}

TEST(KernelSelectivityTest, ForestFire) {
  ExpectKernelAndThreadInvariance(ForestFireGraph(350, 5, 17), /*k=*/4);
}

TEST(KernelSelectivityTest, ForestFireDeeper) {
  ExpectKernelAndThreadInvariance(ForestFireGraph(150, 3, 23), /*k=*/5);
}

TEST(KernelSelectivityTest, RandomizedSeedSweep) {
  // Several seeds per model at k=3 — cheap, broad cross-check.
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    ExpectKernelAndThreadInvariance(
        ErdosRenyiGraph(120, 40 * seed * seed, 4, seed), /*k=*/3);
    ExpectKernelAndThreadInvariance(ForestFireGraph(100 + 30 * seed, 4, seed),
                                    /*k=*/3);
  }
}

TEST(KernelSelectivityTest, BothKernelsMatchOracle) {
  const Graph g = ErdosRenyiGraph(120, 1400, 3, 5);
  const size_t k = 4;
  const std::vector<uint64_t> oracle =
      reference::NaiveSelectivity(g).AllSelectivities(k);
  EXPECT_EQ(Compute(g, k, PairKernel::kSparse, 1).values(), oracle);
  EXPECT_EQ(Compute(g, k, PairKernel::kDense, 1).values(), oracle);
}

TEST(KernelSelectivityTest, MoreThan64LabelsSupported) {
  // The old per-vertex bitmask leaf pass aborted beyond 64 labels; both
  // kernels must now handle arbitrary label counts.
  const Graph g = ErdosRenyiGraph(80, 4000, 70, 3);
  ASSERT_EQ(g.num_labels(), 70u);
  const std::vector<uint64_t> oracle =
      reference::NaiveSelectivity(g).AllSelectivities(2);
  for (PairKernel kernel :
       {PairKernel::kAuto, PairKernel::kSparse, PairKernel::kDense}) {
    for (size_t threads : {1u, 4u}) {
      EXPECT_EQ(Compute(g, 2, kernel, threads).values(), oracle)
          << "kernel=" << PairKernelName(kernel) << " threads=" << threads;
    }
  }
}

TEST(KernelSelectivityTest, AbortStatusIdenticalAcrossKernels) {
  // The max_pairs_per_prefix guard must trip at the oracle's first
  // violation with the same message whichever kernel produced the
  // oversized pair set.
  const Graph g = ErdosRenyiGraph(80, 1200, 3, 5);
  const uint64_t limit = 400;
  const auto violation =
      reference::NaiveSelectivity(g).FirstGuardViolation(4, limit);
  ASSERT_TRUE(violation.has_value());
  for (PairKernel kernel :
       {PairKernel::kAuto, PairKernel::kSparse, PairKernel::kDense}) {
    for (size_t threads : {1u, 4u}) {
      SelectivityOptions options;
      options.kernel = kernel;
      options.num_threads = threads;
      options.max_pairs_per_prefix = limit;
      auto result = ComputeSelectivities(g, 4, options);
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
      EXPECT_EQ(result.status().message(),
                "pair set exceeds max_pairs_per_prefix at path " +
                    violation->ToIdString())
          << "kernel=" << PairKernelName(kernel) << " threads=" << threads;
    }
  }
}

TEST(KernelSelectivityTest, ParseAndNameRoundTrip) {
  for (PairKernel kernel :
       {PairKernel::kAuto, PairKernel::kSparse, PairKernel::kDense}) {
    auto parsed = ParsePairKernel(PairKernelName(kernel));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kernel);
  }
  EXPECT_FALSE(ParsePairKernel("bitmap").ok());
  EXPECT_FALSE(ParsePairKernel("").ok());
}

}  // namespace
}  // namespace pathest
