// The bit-identity oracle of the incremental rebuild
// (maint/incremental.h): for random graphs, random delta batches, and
// every (k, thread count) combination, patching an old
// selectivity map with IncrementalSelectivities must equal a full
// ComputeSelectivities on the patched graph EXACTLY — the maps hold exact
// uint64 counts, so equality is ==, not approximate — and both must equal
// the naive reference evaluator's map of the patched graph. The delta batches
// deliberately cover the awkward shapes: no-op adds of present edges,
// no-op removes of absent edges, edges landing on brand-new vertices,
// removals that empty a label's edge list entirely, and add-then-remove
// pairs inside one batch (last-op-wins).

#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "maint/incremental.h"
#include "path/selectivity.h"
#include "reference/naive_selectivity.h"
#include "test_util.h"

namespace pathest {
namespace maint {
namespace {

struct EdgeTriple {
  uint32_t src, dst, label;
  bool operator<(const EdgeTriple& o) const {
    return std::tie(src, dst, label) < std::tie(o.src, o.dst, o.label);
  }
};

// A random multi-label graph with reverse CSRs (the incremental engine's
// backward cones need them).
Graph RandomGraph(uint32_t seed, size_t num_vertices, size_t num_labels,
                  size_t num_edges, std::vector<EdgeTriple>* edges_out) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<uint32_t> vertex(
      0, static_cast<uint32_t>(num_vertices - 1));
  std::uniform_int_distribution<uint32_t> label(
      0, static_cast<uint32_t>(num_labels - 1));
  GraphBuilder builder;
  for (size_t l = 0; l < num_labels; ++l) {
    builder.AddLabel(std::string(1, static_cast<char>('a' + l)));
  }
  for (size_t e = 0; e < num_edges; ++e) {
    EdgeTriple t{vertex(rng), vertex(rng), label(rng)};
    builder.AddEdge(t.src, t.label, t.dst);
    if (edges_out) edges_out->push_back(t);
  }
  auto graph = builder.Build(/*with_reverse=*/true);
  PATHEST_CHECK(graph.ok(), "random graph build failed");
  return std::move(graph).ValueOrDie();
}

// A random delta batch exercising every shape: genuine adds, adds of
// edges already present (no-op), removes of present edges, removes of
// absent edges (no-op), and adds onto vertices past the current range.
std::vector<EdgeDelta> RandomDeltas(uint32_t seed, size_t count,
                                    const std::vector<EdgeTriple>& edges,
                                    size_t num_vertices, size_t num_labels,
                                    bool with_new_vertices) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<uint32_t> vertex(
      0, static_cast<uint32_t>(num_vertices - 1));
  std::uniform_int_distribution<uint32_t> label(
      0, static_cast<uint32_t>(num_labels - 1));
  std::uniform_int_distribution<size_t> pick(0, edges.size() - 1);
  std::uniform_int_distribution<int> shape(0, with_new_vertices ? 4 : 3);
  std::vector<EdgeDelta> deltas;
  for (size_t i = 0; i < count; ++i) {
    switch (shape(rng)) {
      case 0:  // fresh add (may or may not collide — both are legal)
        deltas.push_back({true, vertex(rng), vertex(rng), label(rng)});
        break;
      case 1: {  // no-op add of a present edge
        const EdgeTriple& t = edges[pick(rng)];
        deltas.push_back({true, t.src, t.dst, t.label});
        break;
      }
      case 2: {  // remove a present edge
        const EdgeTriple& t = edges[pick(rng)];
        deltas.push_back({false, t.src, t.dst, t.label});
        break;
      }
      case 3:  // no-op remove (absent with overwhelming probability)
        deltas.push_back({false, vertex(rng), vertex(rng), label(rng)});
        break;
      default:  // add landing on brand-new vertices
        deltas.push_back({true,
                          static_cast<uint32_t>(num_vertices + i),
                          static_cast<uint32_t>(num_vertices + i + 1),
                          label(rng)});
        break;
    }
  }
  return deltas;
}

std::string GraphText(const Graph& graph) {
  std::ostringstream out;
  PATHEST_CHECK(WriteGraphText(graph, &out).ok(), "write failed");
  return out.str();
}

// The oracle assertion: incremental(old_map, deltas) == full(patched) ==
// naive(patched), bit for bit, across thread counts.
void ExpectBitIdentity(const Graph& graph, const std::vector<EdgeDelta>& deltas,
                       size_t k, const std::string& what) {
  SelectivityOptions base;
  auto old_map = ComputeSelectivities(graph, k, base);
  ASSERT_TRUE(old_map.ok()) << what << ": " << old_map.status().ToString();
  auto patched = PatchGraph(graph, deltas);
  ASSERT_TRUE(patched.ok()) << what << ": " << patched.status().ToString();
  const std::vector<uint64_t> oracle =
      reference::NaiveSelectivity(*patched).AllSelectivities(k);

  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    SelectivityOptions options;
    options.num_threads = threads;
    auto full = ComputeSelectivities(*patched, k, options);
    ASSERT_TRUE(full.ok()) << what;
    ASSERT_EQ(full->values(), oracle)
        << what << " k=" << k << " threads=" << threads;
    IncrementalStats stats;
    auto inc = IncrementalSelectivities(*patched, *old_map, deltas, options,
                                        &stats);
    ASSERT_TRUE(inc.ok()) << what << ": " << inc.status().ToString();
    ASSERT_EQ(inc->values(), full->values())
        << what << " k=" << k << " threads=" << threads;
    EXPECT_LE(stats.touched_roots, stats.total_roots) << what;
  }
}

TEST(EdgeDeltasFromRecordsTest, ExtractsEdgesSkipsBarriersAndMarkers) {
  std::vector<DeltaRecord> records = {
      DeltaRecord::Compaction(1), DeltaRecord::AddEdge(1, 2, 0),
      DeltaRecord::Barrier(2), DeltaRecord::RemoveEdge(3, 4, 1),
      DeltaRecord::AddEdge(5, 6, 2)};
  auto deltas = EdgeDeltasFromRecords(records);
  ASSERT_EQ(deltas.size(), 3u);
  EXPECT_EQ(deltas[0], (EdgeDelta{true, 1, 2, 0}));
  EXPECT_EQ(deltas[1], (EdgeDelta{false, 3, 4, 1}));
  EXPECT_EQ(deltas[2], (EdgeDelta{true, 5, 6, 2}));
}

TEST(PatchGraphTest, SetSemanticsAndIdempotentReplay) {
  Graph graph = testing_util::SmallGraph();
  const LabelId a = *graph.labels().Find("a");
  const LabelId b = *graph.labels().Find("b");
  std::vector<EdgeDelta> deltas = {
      {true, 0, 1, a},   // no-op: already present
      {false, 3, 0, 2},  // remove the only "c" edge (label emptied)
      {true, 10, 11, b},  // new vertices grow the range
      {false, 9, 9, b},  // no-op: absent
  };
  auto once = PatchGraph(graph, deltas);
  ASSERT_TRUE(once.ok()) << once.status().ToString();
  EXPECT_GE(once->num_vertices(), 12u);
  EXPECT_EQ(once->LabelCardinality(2), 0u);  // "c" emptied
  EXPECT_EQ(once->num_labels(), graph.num_labels());

  // Replaying the same batch over the patched graph is a no-op: the
  // journal's recovery story depends on this.
  auto twice = PatchGraph(*once, deltas);
  ASSERT_TRUE(twice.ok());
  EXPECT_EQ(GraphText(*twice), GraphText(*once));

  // Last-op-wins within one batch.
  std::vector<EdgeDelta> flip = {{true, 20, 21, a}, {false, 20, 21, a}};
  auto flipped = PatchGraph(graph, flip);
  ASSERT_TRUE(flipped.ok());
  std::vector<EdgeDelta> back = {{false, 20, 21, a}, {true, 20, 21, a}};
  auto added = PatchGraph(graph, back);
  ASSERT_TRUE(added.ok());
  EXPECT_NE(GraphText(*flipped), GraphText(*added));

  // A label id outside the dictionary is a typed error, not a new label.
  std::vector<EdgeDelta> bad = {{true, 0, 1, 99}};
  EXPECT_EQ(PatchGraph(graph, bad).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(IncrementalTest, SmallGraphAllKsAllShapes) {
  Graph graph = testing_util::SmallGraph();
  const LabelId a = *graph.labels().Find("a");
  const LabelId c = *graph.labels().Find("c");
  std::vector<EdgeDelta> deltas = {
      {true, 2, 1, a},    // genuine add
      {false, 3, 0, c},   // empty label "c"
      {true, 0, 1, a},    // no-op add
      {true, 4, 5, c},    // resurrect "c" on new vertices
  };
  for (size_t k : {size_t{2}, size_t{3}, size_t{4}}) {
    ExpectBitIdentity(graph, deltas, k, "small graph");
  }
}

TEST(IncrementalTest, EmptyBatchIsExactNoOp) {
  Graph graph = testing_util::SmallGraph();
  auto old_map = ComputeSelectivities(graph, 3);
  ASSERT_TRUE(old_map.ok());
  auto inc = IncrementalSelectivities(graph, *old_map, {}, {});
  ASSERT_TRUE(inc.ok());
  EXPECT_EQ(inc->values(), old_map->values());
}

TEST(IncrementalTest, RandomGraphGridIsBitIdentical) {
  // The main oracle grid. Modest sizes keep the 18-combination inner loop
  // affordable; the seeds vary topology, delta mix, and batch size.
  struct Case {
    uint32_t seed;
    size_t vertices, labels, edges, deltas;
    bool new_vertices;
  };
  const std::vector<Case> cases = {
      {11, 24, 3, 60, 8, false},
      {22, 40, 4, 120, 16, true},
      {33, 16, 2, 50, 6, true},
      {44, 60, 5, 150, 24, false},
  };
  for (const Case& c : cases) {
    std::vector<EdgeTriple> edges;
    Graph graph = RandomGraph(c.seed, c.vertices, c.labels, c.edges, &edges);
    std::vector<EdgeDelta> deltas =
        RandomDeltas(c.seed * 7 + 1, c.deltas, edges, c.vertices, c.labels,
                     c.new_vertices);
    for (size_t k : {size_t{2}, size_t{3}}) {
      ExpectBitIdentity(graph, deltas, k,
                        "seed=" + std::to_string(c.seed));
    }
  }
  // One deeper case: k=4 over a small graph.
  std::vector<EdgeTriple> edges;
  Graph graph = RandomGraph(55, 14, 3, 40, &edges);
  std::vector<EdgeDelta> deltas =
      RandomDeltas(56, 10, edges, 14, 3, /*with_new_vertices=*/true);
  ExpectBitIdentity(graph, deltas, 4, "deep seed=55");
}

TEST(IncrementalTest, RemoveEveryEdgeOfALabel) {
  // The hardest emptying shape: the batch removes EVERY edge of one label,
  // so its whole root subtree must collapse to zero — and every other
  // root's paths THROUGH that label must vanish too.
  std::vector<EdgeTriple> edges;
  Graph graph = RandomGraph(77, 20, 3, 70, &edges);
  std::vector<EdgeDelta> deltas;
  for (const EdgeTriple& t : edges) {
    if (t.label == 1) deltas.push_back({false, t.src, t.dst, t.label});
  }
  ASSERT_FALSE(deltas.empty());
  for (size_t k : {size_t{2}, size_t{3}}) {
    ExpectBitIdentity(graph, deltas, k, "label emptied");
  }
}

TEST(IncrementalTest, GuardViolationMatchesFullBuildError) {
  // A pair guard the BASE graph satisfies but the patched graph trips:
  // the incremental rebuild (same guard as the original build, per its
  // contract) must surface the same deterministic error class a full
  // build reports — never a silently partial map.
  GraphBuilder builder;
  builder.AddEdge(0, "a", 1);
  builder.AddEdge(1, "b", 2);
  auto built = builder.Build(/*with_reverse=*/true);
  ASSERT_TRUE(built.ok());
  Graph graph = std::move(*built);
  const LabelId b = *graph.labels().Find("b");

  SelectivityOptions guard;
  guard.max_pairs_per_prefix = 3;
  auto old_map = ComputeSelectivities(graph, 3, guard);
  ASSERT_TRUE(old_map.ok()) << old_map.status().ToString();

  // Fan label b out of vertex 1: prefix (a, b) now holds 4 pairs > 3.
  std::vector<EdgeDelta> deltas = {
      {true, 1, 3, b}, {true, 1, 4, b}, {true, 1, 5, b}};
  auto patched = PatchGraph(graph, deltas);
  ASSERT_TRUE(patched.ok());

  auto full = ComputeSelectivities(*patched, 3, guard);
  ASSERT_FALSE(full.ok());
  auto inc = IncrementalSelectivities(*patched, *old_map, deltas, guard);
  ASSERT_FALSE(inc.ok());
  EXPECT_EQ(inc.status().code(), full.status().code());
}

}  // namespace
}  // namespace maint
}  // namespace pathest
