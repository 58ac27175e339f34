// pathest: mutable accumulator that produces an immutable Graph.

#ifndef PATHEST_GRAPH_GRAPH_BUILDER_H_
#define PATHEST_GRAPH_GRAPH_BUILDER_H_

#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace pathest {

/// \brief Options for GraphBuilder::Build.
struct GraphBuildOptions {
  /// Also materialize in-neighbor CSR structures.
  bool with_reverse = false;

  /// Worker threads for the build fan-out (per-label CSR construction,
  /// vertex-major segment fill, reverse CSRs). 0 = one per hardware core.
  /// The built Graph is BIT-IDENTICAL for every value: each worker writes
  /// disjoint label/vertex slices (enforced by tests/graph_build_test.cc).
  /// Builds below kParallelBuildMinEdges always run serially — pool spawn
  /// costs more than they save.
  size_t num_threads = 0;
};

/// \brief Where the wall-clock of one Build went.
struct GraphBuildStats {
  size_t num_threads = 1;    ///< resolved worker count actually used
  double partition_ms = 0;   ///< label counting-sort partition of the edges
  double csr_ms = 0;         ///< per-(label, src) bucket sort/dedup + CSRs
  double vm_ms = 0;          ///< vertex-major segment directory + targets
  double reverse_ms = 0;     ///< reverse CSRs (0 unless with_reverse)
  double total_ms = 0;       ///< end-to-end Build wall time
};

/// Below this many pending edges Build runs serially regardless of
/// options.num_threads (thread-pool spawn would dominate).
inline constexpr size_t kParallelBuildMinEdges = 1u << 15;

/// \brief Collects vertices/edges and finalizes them into a Graph.
///
/// Duplicate (src, label, dst) triples are dropped at Build() time, per the
/// paper's set semantics. Vertices are implicit: adding an edge extends the
/// vertex range to cover both endpoints; SetNumVertices can reserve isolated
/// tail vertices.
class GraphBuilder {
 public:
  GraphBuilder() = default;

  /// \brief Interns `name` and returns its label id.
  LabelId AddLabel(const std::string& name);

  /// \brief Adds edge (src, label, dst). Label must come from AddLabel.
  void AddEdge(VertexId src, LabelId label, VertexId dst);

  /// \brief Convenience: interns the label name and adds the edge.
  void AddEdge(VertexId src, const std::string& label, VertexId dst);

  /// \brief Ensures the graph has at least `n` vertices.
  void SetNumVertices(size_t n);

  /// \brief Bulk-adopts a whole pre-validated edge list at once — the
  /// streaming loader's entry point, which skips AddEdge's per-edge label
  /// check and vertex-range maintenance. Every edge's label must be a
  /// valid id in `labels` and both endpoints must be < `num_vertices`
  /// (checked in one O(E) pass). Replaces any previously added labels and
  /// edges.
  void Adopt(LabelDictionary labels, std::vector<Edge> edges,
             size_t num_vertices);

  /// \brief Number of edges accumulated so far (before dedup).
  size_t num_pending_edges() const { return edges_.size(); }

  /// \brief Finalizes into an immutable Graph.
  ///
  /// The build is a two-pass counting sort keyed by (label, src): edges
  /// are partitioned by label, then each label's buckets are sorted and
  /// deduplicated independently — per-label CSR fill, vertex-major segment
  /// construction, and reverse-CSR inversion all fan out over an engine
  /// ThreadPool with disjoint writes, so the result is bit-identical to
  /// BuildReference (the seed's global-sort path) at every thread count. Does not consume the pending edges: Build may be
  /// called again (e.g. with different options).
  Result<Graph> Build(const GraphBuildOptions& options,
                      GraphBuildStats* stats = nullptr);

  /// \brief Build with default options, except the given reverse flag.
  Result<Graph> Build(bool with_reverse = false);

  /// \brief The seed implementation — one global std::sort + unique over
  /// the full edge list, then single-threaded CSR/vertex-major
  /// materialization.
  /// Kept verbatim as the independently-derived oracle the counting-sort
  /// path is tested and benchmarked against. Sorts the pending edge list
  /// in place (the graph produced by a later Build is unaffected).
  Result<Graph> BuildReference(bool with_reverse = false);

 private:
  LabelDictionary labels_;
  std::vector<Edge> edges_;
  size_t num_vertices_ = 0;
};

}  // namespace pathest

#endif  // PATHEST_GRAPH_GRAPH_BUILDER_H_
