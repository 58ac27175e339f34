// Unit and property tests for the exact selectivity evaluator.

#include <map>
#include <set>

#include <gtest/gtest.h>

#include "gen/datasets.h"
#include "gen/generator.h"
#include "graph/graph_builder.h"
#include "path/selectivity.h"
#include "reference/naive_selectivity.h"
#include "test_util.h"

namespace pathest {
namespace {

using testing_util::SmallGraph;

using reference::NaiveSelectivity;

TEST(SelectivityTest, SingleLabelsEqualLabelCardinality) {
  Graph g = SmallGraph();
  auto map = ComputeSelectivities(g, 3);
  ASSERT_TRUE(map.ok());
  for (LabelId l = 0; l < g.num_labels(); ++l) {
    EXPECT_EQ(map->Get(LabelPath{l}), g.LabelCardinality(l));
  }
}

TEST(SelectivityTest, HandComputedPaths) {
  Graph g = SmallGraph();
  LabelId a = *g.labels().Find("a");
  LabelId b = *g.labels().Find("b");
  LabelId c = *g.labels().Find("c");
  auto map = ComputeSelectivities(g, 3);
  ASSERT_TRUE(map.ok());
  // a/b: 0-a->1-b->3, 0-a->2-b->3 (same pair (0,3)); 1 has no a to a b-src...
  // pairs: (0,3). Also 1-a->3: 3 has no b. => {(0,3)} singleton.
  EXPECT_EQ(map->Get(LabelPath{a, b}), 1u);
  // b/c: 1-b->3-c->0 and 2-b->3-c->0 -> pairs (1,0), (2,0).
  EXPECT_EQ(map->Get(LabelPath{b, c}), 2u);
  // a/b/c: (0,0) via both branches -> 1 distinct pair.
  EXPECT_EQ(map->Get(LabelPath{a, b, c}), 1u);
  // c/a: 3-c->0-a->{1,2} -> (3,1), (3,2).
  EXPECT_EQ(map->Get(LabelPath{c, a}), 2u);
  // b/b: no b-edge out of 3 -> 0.
  EXPECT_EQ(map->Get(LabelPath{b, b}), 0u);
}

TEST(SelectivityTest, OracleMatchesHandComputedPairs) {
  // Anchors the reference evaluator itself on the hand-checked graph.
  Graph g = SmallGraph();
  LabelId a = *g.labels().Find("a");
  LabelId b = *g.labels().Find("b");
  LabelId c = *g.labels().Find("c");
  const NaiveSelectivity oracle(g);
  using Pairs = NaiveSelectivity::PairSet;
  EXPECT_EQ(oracle.Pairs(LabelPath{a, b}), (Pairs{{0, 3}}));
  EXPECT_EQ(oracle.Pairs(LabelPath{b, c}), (Pairs{{1, 0}, {2, 0}}));
  EXPECT_EQ(oracle.Pairs(LabelPath{a, b, c}), (Pairs{{0, 0}}));
  EXPECT_EQ(oracle.Pairs(LabelPath{c, a}), (Pairs{{3, 1}, {3, 2}}));
  EXPECT_TRUE(oracle.Pairs(LabelPath{b, b}).empty());
}

TEST(SelectivityTest, MatchesOracleOnSmallGraph) {
  Graph g = SmallGraph();
  const size_t k = 4;
  auto map = ComputeSelectivities(g, k);
  ASSERT_TRUE(map.ok());
  EXPECT_EQ(map->values(), NaiveSelectivity(g).AllSelectivities(k));
}

TEST(SelectivityTest, MatchesOracleOnRandomGraphs) {
  for (uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    UniformLabelAssigner labels(3);
    ErdosRenyiParams params;
    params.num_vertices = 30;
    params.num_edges = 90;
    params.seed = seed;
    auto g = GenerateErdosRenyi(params, &labels);
    ASSERT_TRUE(g.ok());
    auto map = ComputeSelectivities(*g, 3);
    ASSERT_TRUE(map.ok());
    EXPECT_EQ(map->values(), NaiveSelectivity(*g).AllSelectivities(3))
        << "seed " << seed;
  }
}

TEST(SelectivityTest, PrefixMonotoneUpperBound) {
  // f(ℓ1/ℓ2) <= f(ℓ1) * max-out-degree bound is loose; the useful invariant
  // here: if a prefix has zero pairs, every extension has zero pairs.
  Graph g = SmallGraph();
  auto map = ComputeSelectivities(g, 4);
  ASSERT_TRUE(map.ok());
  PathSpace space(g.num_labels(), 4);
  space.ForEach([&](const LabelPath& p) {
    if (p.length() < 2) return;
    if (map->Get(p.Prefix(p.length() - 1)) == 0) {
      EXPECT_EQ(map->Get(p), 0u) << p.ToIdString();
    }
  });
}

TEST(SelectivityTest, RejectsBadInput) {
  Graph g = SmallGraph();
  EXPECT_FALSE(ComputeSelectivities(g, 0).ok());
  EXPECT_FALSE(ComputeSelectivities(g, kMaxPathLength + 1).ok());
}

TEST(SelectivityTest, OversizedPathSpaceIsTypedError) {
  // 2048 labels at k = 6: |L_k| > 2048^6 = 2^66 overflows u64. The build
  // must refuse before sizing anything, naming |L| and k — it used to
  // abort inside PathSpace.
  GraphBuilder builder;
  for (VertexId v = 0; v < 2048; ++v) {
    builder.AddEdge(v, "l" + std::to_string(v), v + 1);
  }
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  ASSERT_EQ(g->num_labels(), 2048u);
  auto map = ComputeSelectivities(*g, 6);
  ASSERT_FALSE(map.ok());
  EXPECT_EQ(map.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(map.status().message().find("|L|=2048, k=6"), std::string::npos)
      << map.status().ToString();
}

TEST(SelectivityTest, MaxPairsGuardTriggers) {
  Graph g = SmallGraph();
  SelectivityOptions options;
  options.max_pairs_per_prefix = 1;  // everything interesting exceeds this
  auto map = ComputeSelectivities(g, 2, options);
  ASSERT_FALSE(map.ok());
  EXPECT_EQ(map.status().code(), StatusCode::kResourceExhausted);
}

TEST(SelectivityTest, ProgressCallbackFires) {
  Graph g = SmallGraph();
  SelectivityOptions options;
  int calls = 0;
  options.progress = [&](LabelId) { ++calls; };
  auto map = ComputeSelectivities(g, 2, options);
  ASSERT_TRUE(map.ok());
  EXPECT_EQ(calls, 3);
}

TEST(SelectivityMapTest, TotalsAndNonZero) {
  Graph g = SmallGraph();
  auto map = ComputeSelectivities(g, 2);
  ASSERT_TRUE(map.ok());
  uint64_t total = 0;
  uint64_t nonzero = 0;
  for (uint64_t v : map->values()) {
    total += v;
    nonzero += (v != 0);
  }
  EXPECT_EQ(map->Total(), total);
  EXPECT_EQ(map->CountNonZero(), nonzero);
  EXPECT_GT(nonzero, 0u);
}

TEST(SelectivityTest, DisconnectedLabelsYieldZeros) {
  GraphBuilder builder;
  builder.AddEdge(0, "p", 1);
  builder.AddLabel("q");  // label with no edges
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  auto map = ComputeSelectivities(*g, 2);
  ASSERT_TRUE(map.ok());
  LabelId q = *g->labels().Find("q");
  LabelId p = *g->labels().Find("p");
  EXPECT_EQ(map->Get(LabelPath{q}), 0u);
  EXPECT_EQ(map->Get((LabelPath{p, q})), 0u);
  EXPECT_EQ(map->Get((LabelPath{q, p})), 0u);
  EXPECT_EQ(map->Get(LabelPath{p}), 1u);
}

}  // namespace
}  // namespace pathest
