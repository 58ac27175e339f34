// Unit tests for the labeled graph, builder, IO, and stats.

#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "test_util.h"

namespace pathest {
namespace {

TEST(LabelDictionaryTest, InternIsIdempotent) {
  LabelDictionary dict;
  LabelId a = dict.Intern("knows");
  LabelId b = dict.Intern("likes");
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.Intern("knows"), a);
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.Name(a), "knows");
}

TEST(LabelDictionaryTest, FindUnknownFails) {
  LabelDictionary dict;
  dict.Intern("a");
  auto missing = dict.Find("nope");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(GraphBuilderTest, BuildsAdjacency) {
  Graph g = testing_util::SmallGraph();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_labels(), 3u);
  EXPECT_EQ(g.num_edges(), 6u);

  LabelId a = *g.labels().Find("a");
  LabelId b = *g.labels().Find("b");
  auto n0a = g.OutNeighbors(0, a);
  ASSERT_EQ(n0a.size(), 2u);
  EXPECT_EQ(n0a[0], 1u);
  EXPECT_EQ(n0a[1], 2u);
  EXPECT_TRUE(g.OutNeighbors(0, b).empty());
  EXPECT_EQ(g.OutNeighbors(1, b).size(), 1u);
}

TEST(GraphBuilderTest, DeduplicatesParallelEdges) {
  GraphBuilder builder;
  builder.AddEdge(0, "x", 1);
  builder.AddEdge(0, "x", 1);  // duplicate triple
  builder.AddEdge(0, "y", 1);  // same pair, different label: kept
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 2u);
}

TEST(GraphBuilderTest, SetNumVerticesReservesIsolated) {
  GraphBuilder builder;
  builder.AddEdge(0, "x", 1);
  builder.SetNumVertices(10);
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_vertices(), 10u);
  EXPECT_TRUE(g->OutNeighbors(9, 0).empty());
}

TEST(GraphBuilderTest, ReverseAdjacency) {
  Graph g = testing_util::SmallGraph();
  ASSERT_TRUE(g.has_reverse());
  LabelId b = *g.labels().Find("b");
  auto in3b = g.InNeighbors(3, b);
  ASSERT_EQ(in3b.size(), 2u);
  EXPECT_EQ(in3b[0], 1u);
  EXPECT_EQ(in3b[1], 2u);
}

TEST(GraphBuilderTest, NoReverseByDefault) {
  GraphBuilder builder;
  builder.AddEdge(0, "x", 1);
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_FALSE(g->has_reverse());
}

TEST(GraphTest, LabelCardinality) {
  Graph g = testing_util::SmallGraph();
  EXPECT_EQ(g.LabelCardinality(*g.labels().Find("a")), 3u);
  EXPECT_EQ(g.LabelCardinality(*g.labels().Find("b")), 2u);
  EXPECT_EQ(g.LabelCardinality(*g.labels().Find("c")), 1u);
}

TEST(GraphTest, CollectEdgesRoundTrips) {
  Graph g = testing_util::SmallGraph();
  auto edges = g.CollectEdges();
  EXPECT_EQ(edges.size(), g.num_edges());
  GraphBuilder rebuild;
  for (const Edge& e : edges) {
    rebuild.AddEdge(e.src, g.labels().Name(e.label), e.dst);
  }
  auto g2 = rebuild.Build();
  ASSERT_TRUE(g2.ok());
  EXPECT_EQ(g2->num_edges(), g.num_edges());
}

TEST(GraphIoTest, WriteThenReadRoundTrips) {
  Graph g = testing_util::SmallGraph();
  std::ostringstream out;
  ASSERT_TRUE(WriteGraphText(g, &out).ok());
  std::istringstream in(out.str());
  auto g2 = ReadGraphText(&in);
  ASSERT_TRUE(g2.ok());
  EXPECT_EQ(g2->num_edges(), g.num_edges());
  EXPECT_EQ(g2->num_vertices(), g.num_vertices());
  EXPECT_EQ(g2->num_labels(), g.num_labels());
}

TEST(GraphIoTest, IgnoresCommentsAndBlanks) {
  std::istringstream in(
      "# header comment\n"
      "\n"
      "0 knows 1  # trailing comment\n"
      "1 knows 2\n");
  auto g = ReadGraphText(&in);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 2u);
}

TEST(GraphIoTest, RejectsMalformedLine) {
  std::istringstream in("0 knows\n");
  auto g = ReadGraphText(&in);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kIOError);
}

TEST(GraphIoTest, MissingFileFails) {
  auto g = LoadGraphFile("/nonexistent/path/graph.txt");
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kIOError);
}

TEST(GraphStatsTest, ComputesTable3Columns) {
  Graph g = testing_util::SmallGraph();
  GraphStats stats = ComputeGraphStats(g);
  EXPECT_EQ(stats.num_vertices, 4u);
  EXPECT_EQ(stats.num_edges, 6u);
  EXPECT_EQ(stats.num_labels, 3u);
  EXPECT_DOUBLE_EQ(stats.mean_out_degree, 6.0 / 4.0);
  EXPECT_EQ(stats.max_label_out_degree, 2u);
  EXPECT_EQ(stats.num_sink_vertices, 0u);
  std::string text = FormatGraphStats(g, stats);
  EXPECT_NE(text.find("vertices: 4"), std::string::npos);
  EXPECT_NE(text.find("a: 3"), std::string::npos);
}

TEST(GraphStatsTest, CountsSinks) {
  GraphBuilder builder;
  builder.AddEdge(0, "x", 1);
  auto g = builder.Build();
  ASSERT_TRUE(g.ok());
  GraphStats stats = ComputeGraphStats(*g);
  EXPECT_EQ(stats.num_sink_vertices, 1u);  // vertex 1
}

// Cross-checks the vertex-major, label-segmented view against the
// per-label CSR: every (vertex, label) cell with edges must appear as
// exactly one segment whose targets equal OutNeighbors, labels ascending
// within a vertex, with no extra segments.
TEST(GraphTest, VertexMajorViewMatchesPerLabelCsr) {
  Graph g = testing_util::SmallGraph();
  const Graph::VertexMajorView vm = g.VertexMajor();
  size_t segments_seen = 0;
  uint64_t targets_seen = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    LabelId prev_label = 0;
    for (uint64_t s = vm.seg_offsets[v]; s < vm.seg_offsets[v + 1]; ++s) {
      const LabelId l = vm.seg_labels[s];
      if (s > vm.seg_offsets[v]) EXPECT_LT(prev_label, l) << "v=" << v;
      prev_label = l;
      auto expected = g.OutNeighbors(v, l);
      const uint64_t begin = vm.tgt_offsets[s];
      const uint64_t end = vm.tgt_offsets[s + 1];
      ASSERT_EQ(end - begin, expected.size()) << "v=" << v << " l=" << l;
      for (uint64_t e = begin; e < end; ++e) {
        EXPECT_EQ(vm.targets[e], expected[e - begin]) << "v=" << v;
      }
      ++segments_seen;
      targets_seen += end - begin;
    }
    // No cell with edges may be missing from the directory.
    for (LabelId l = 0; l < g.num_labels(); ++l) {
      if (g.OutNeighbors(v, l).empty()) continue;
      bool found = false;
      for (uint64_t s = vm.seg_offsets[v]; s < vm.seg_offsets[v + 1]; ++s) {
        found |= vm.seg_labels[s] == l;
      }
      EXPECT_TRUE(found) << "missing segment v=" << v << " l=" << l;
    }
  }
  EXPECT_EQ(targets_seen, g.num_edges());
  EXPECT_GT(segments_seen, 0u);
}

TEST(TestUtilTest, GraphWithCardinalitiesIsExact) {
  Graph g = testing_util::GraphWithCardinalities({{"p", 7}, {"q", 3}});
  EXPECT_EQ(g.LabelCardinality(*g.labels().Find("p")), 7u);
  EXPECT_EQ(g.LabelCardinality(*g.labels().Find("q")), 3u);
  EXPECT_EQ(g.num_edges(), 10u);
}

}  // namespace
}  // namespace pathest
