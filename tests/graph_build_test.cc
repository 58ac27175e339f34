// The ingest determinism contract (graph_builder.h, graph_io.h): the
// counting-sort Build is bit-identical to the seed's global-sort
// BuildReference at every thread count — CSRs and vertex-major arrays —
// on generated ER and forest-fire graphs large enough to take the
// parallel path; the chunked from_chars reader preserves the line-oriented istream
// semantics (skip lines, error line numbers, id range checks) and
// round-trips ~100k-edge graphs through the streaming writer.

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gen/generator.h"
#include "gen/label_assigner.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "test_util.h"

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

// A builder loaded with `graph`'s exact edge multiset and label order.
GraphBuilder BuilderFrom(const Graph& graph) {
  GraphBuilder out;
  out.Adopt(graph.labels(), graph.CollectEdges(), graph.num_vertices());
  return out;
}

// Asserts Build at threads {1, 2, 4} is bit-identical to BuildReference,
// with and without reverse adjacency.
void ExpectBuildDeterminism(const Graph& source, bool expect_parallel) {
  for (bool with_reverse : {false, true}) {
    GraphBuilder builder = BuilderFrom(source);
    const auto reference = builder.BuildReference(with_reverse);
    ASSERT_TRUE(reference.ok());
    for (size_t threads : {1u, 2u, 4u}) {
      GraphBuildOptions options;
      options.with_reverse = with_reverse;
      options.num_threads = threads;
      GraphBuildStats stats;
      const auto built = builder.Build(options, &stats);
      ASSERT_TRUE(built.ok());
      EXPECT_TRUE(built->IdenticalTo(*reference))
          << "threads=" << threads << " reverse=" << with_reverse;
      if (expect_parallel) {
        EXPECT_EQ(stats.num_threads, threads) << "parallel path not taken";
      }
    }
  }
}

TEST(GraphBuildTest, ErdosRenyiDeterminismGrid) {
  // 40k edges is past kParallelBuildMinEdges, so threads {2, 4} genuinely
  // exercise the fan-out (asserted via the resolved stats thread count).
  ExpectBuildDeterminism(ErdosRenyiGraph(2000, 40000, 5, 11),
                         /*expect_parallel=*/true);
}

TEST(GraphBuildTest, ForestFireDeterminismGrid) {
  ExpectBuildDeterminism(ForestFireGraph(2500, 4, 23),
                         /*expect_parallel=*/false);
}

TEST(GraphBuildTest, DuplicateEdgesDedupIdentically) {
  // Duplicates must vanish inside the (label, src) buckets exactly as the
  // global sort + unique removes them.
  const Graph source = ErdosRenyiGraph(1500, 30000, 4, 7);
  std::vector<Edge> edges = source.CollectEdges();
  const size_t original = edges.size();
  for (size_t i = 0; i < original; i += 3) edges.push_back(edges[i]);
  GraphBuilder builder;
  builder.Adopt(source.labels(), std::move(edges), source.num_vertices());
  const auto reference = builder.BuildReference(true);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(reference->num_edges(), source.num_edges());
  for (size_t threads : {1u, 4u}) {
    GraphBuildOptions options;
    options.with_reverse = true;
    options.num_threads = threads;
    const auto built = builder.Build(options);
    ASSERT_TRUE(built.ok());
    EXPECT_TRUE(built->IdenticalTo(*reference)) << "threads=" << threads;
  }
}

TEST(GraphBuildTest, AdoptMatchesIncrementalAdds) {
  const Graph source = testing_util::SmallGraph();
  GraphBuilder incremental;
  for (const std::string& name : source.labels().names()) {
    incremental.AddLabel(name);
  }
  for (const Edge& e : source.CollectEdges()) {
    incremental.AddEdge(e.src, e.label, e.dst);
  }
  incremental.SetNumVertices(source.num_vertices());
  GraphBuilder adopted;
  adopted.Adopt(source.labels(), source.CollectEdges(),
                source.num_vertices());
  const auto a = incremental.Build(true);
  const auto b = adopted.Build(true);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->IdenticalTo(*b));
}

TEST(GraphBuildTest, StreamingWriterRoundTripsLargeGraph) {
  // ~100k edges through WriteGraphText -> ReadGraphText: the streamed
  // output and the chunked parallel parse must reproduce the graph
  // bit-identically (the text is > 1 MB, so threads 4 takes the
  // multi-chunk path).
  const Graph source = ErdosRenyiGraph(5000, 100000, 8, 3);
  std::ostringstream out;
  ASSERT_TRUE(WriteGraphText(source, &out).ok());
  const std::string text = out.str();
  ASSERT_GT(text.size(), 1u << 20);
  for (size_t threads : {1u, 4u}) {
    std::istringstream in(text);
    GraphLoadOptions options;
    options.num_threads = threads;
    GraphLoadStats stats;
    const auto loaded = ReadGraphText(&in, options, &stats);
    ASSERT_TRUE(loaded.ok());
    EXPECT_TRUE(loaded->IdenticalTo(source)) << "threads=" << threads;
    if (threads == 4) EXPECT_GT(stats.num_chunks, 1u);
  }
}

TEST(GraphBuildTest, StreamingWriterMatchesCollectEdgesOrder) {
  const Graph g = testing_util::SmallGraph();
  std::ostringstream streamed;
  ASSERT_TRUE(WriteGraphText(g, &streamed).ok());
  std::ostringstream collected;
  collected << "# pathest edge-list v1: <src> <label> <dst>\n";
  for (const Edge& e : g.CollectEdges()) {
    collected << e.src << ' ' << g.labels().Name(e.label) << ' ' << e.dst
              << '\n';
  }
  EXPECT_EQ(streamed.str(), collected.str());
}

// Loads `text` through the chunked reader at 4 threads, padding it past
// the serial-parse cutoff with trailing comment lines so the parallel
// path is what's exercised.
Result<Graph> ParseParallel(std::string text) {
  while (text.size() < (1u << 20) + 1024) {
    text += "# padding comment line to push the input past the serial "
            "parse cutoff\n";
  }
  std::istringstream in(text);
  GraphLoadOptions options;
  options.num_threads = 4;
  return ReadGraphText(&in, options);
}

TEST(GraphBuildTest, ParallelReaderPreservesErrorLines) {
  // Earliest malformed line wins, by its exact line number and
  // comment-stripped text — even when a later chunk also fails.
  std::string text = "0 a 1\n1 b 2\n";
  text += "2 oops\n";  // line 3: missing dst
  for (int i = 0; i < 40000; ++i) text += "3 c 4\n";
  text += "5 also bad\n";
  auto result = ParseParallel(text);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().ToString(),
            "IOError: malformed edge at line 3: '2 oops'");

  auto range = ParseParallel("0 a 1\n7 x 4294967296\n");
  ASSERT_FALSE(range.ok());
  EXPECT_EQ(range.status().ToString(),
            "OutOfRange: vertex id exceeds 32 bits at line 2");
}

TEST(GraphBuildTest, ParallelReaderKeepsIstreamLineSemantics) {
  // Skipped lines (blank, comment, non-numeric or overflowing first
  // token), trailing junk after the dst, and '#' comment stripping must
  // all match the line-oriented istream reader.
  const std::string text =
      "# full comment line\n"
      "\n"
      "   \t \n"
      "junk-first-token a 1\n"
      "99999999999999999999999 a 1\n"
      "0 a 1 trailing junk ignored\n"
      "1 b 2   # inline comment\n"
      "+2 a 0\n";
  auto graph = ParseParallel(text);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_edges(), 3u);
  EXPECT_EQ(graph->num_vertices(), 3u);
  ASSERT_EQ(graph->num_labels(), 2u);
  EXPECT_EQ(graph->labels().Name(0), "a");  // first-appearance order
  EXPECT_EQ(graph->labels().Name(1), "b");
  const auto a = graph->labels().Find("a");
  ASSERT_TRUE(a.ok());
  const auto out0 = graph->OutNeighbors(0, *a);
  ASSERT_EQ(out0.size(), 1u);
  EXPECT_EQ(out0[0], 1u);
}

}  // namespace
}  // namespace pathest
