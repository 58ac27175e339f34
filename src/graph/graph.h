// pathest: directed edge-labeled graph, the data model of the paper
// (Section 2): G = (V, L, E) with E a set of labeled directed edges
// E ⊆ V × L × V.
//
// The graph is immutable once built (see GraphBuilder) and stores one CSR
// adjacency structure per edge label, which is exactly the access pattern of
// the path-selectivity evaluator: "all l-successors of vertex v".

#ifndef PATHEST_GRAPH_GRAPH_H_
#define PATHEST_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/status.h"

namespace pathest {

/// Vertex identifier; dense in [0, num_vertices).
using VertexId = uint32_t;

/// Edge-label identifier; dense in [0, num_labels).
using LabelId = uint32_t;

/// \brief One directed labeled edge.
struct Edge {
  VertexId src;
  LabelId label;
  VertexId dst;

  bool operator==(const Edge&) const = default;
};

/// \brief Dictionary mapping label names to dense LabelIds.
///
/// LabelIds are assigned in insertion order; the alphabetical ranking rule
/// (ordering/ranking.h) orders by *name*, not by id.
class LabelDictionary {
 public:
  /// \brief Returns the id for `name`, interning it if new.
  LabelId Intern(const std::string& name);

  /// \brief Id for an existing name, or NotFound. Looks the view up
  /// directly (no key copy), so it may point into a larger buffer.
  Result<LabelId> Find(std::string_view name) const;

  /// \brief Name of an id. Id must be valid.
  const std::string& Name(LabelId id) const;

  size_t size() const { return names_.size(); }
  const std::vector<std::string>& names() const { return names_; }

 private:
  // Transparent: lets Find hash and compare a string_view against the
  // std::string keys without materializing a key.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };

  std::vector<std::string> names_;
  std::unordered_map<std::string, LabelId, NameHash, std::equal_to<>> index_;
};

/// \brief Immutable directed edge-labeled multigraph with per-label CSR.
///
/// Parallel (src, label, dst) duplicates are removed at build time, matching
/// the paper's set semantics for E.
class Graph {
 public:
  /// \brief Number of vertices |V|.
  size_t num_vertices() const { return num_vertices_; }

  /// \brief Number of distinct labels |L|.
  size_t num_labels() const { return labels_.size(); }

  /// \brief Number of distinct labeled edges |E|.
  size_t num_edges() const { return num_edges_; }

  /// \brief The label dictionary.
  const LabelDictionary& labels() const { return labels_; }

  /// \brief Out-neighbors of `v` via edges labeled `l`, sorted ascending.
  std::span<const VertexId> OutNeighbors(VertexId v, LabelId l) const;

  /// \brief In-neighbors of `v` via edges labeled `l`, sorted ascending.
  /// Only available when the graph was built with reverse adjacency.
  std::span<const VertexId> InNeighbors(VertexId v, LabelId l) const;

  /// \brief True when reverse adjacency was materialized.
  bool has_reverse() const { return !reverse_.empty(); }

  /// \brief Number of edges labeled `l` — the label cardinality f(l).
  uint64_t LabelCardinality(LabelId l) const;

  /// \brief Borrowed raw view of one label's forward CSR, for hot loops that
  /// cannot afford per-access bounds checks (the selectivity evaluator).
  /// Valid as long as the Graph is alive. `offsets` has num_vertices()+1
  /// entries; neighbors of v are targets[offsets[v] .. offsets[v+1]).
  struct CsrView {
    const uint64_t* offsets;
    const VertexId* targets;
  };

  /// \brief Checked-once accessor for CsrView.
  CsrView ForwardView(LabelId l) const;

  /// \brief Borrowed raw view of the vertex-major, label-segmented
  /// adjacency: all out-edges of one vertex stored contiguously, grouped
  /// into per-label segments with a per-vertex segment directory.
  ///
  /// This is the transpose of the per-label CSR family along the (vertex,
  /// label) axes, built once at graph construction. Where the per-label CSR
  /// answers "the l-successors of v" (one random row access per label), this
  /// view answers "ALL successors of v, split by label" in one sequential
  /// read — the access pattern of the fused all-labels extension kernel
  /// (path/pair_set.h FusedExtender), which visits each DFS pair exactly
  /// once instead of once per label.
  ///
  /// Layout: segments of vertex v are seg_offsets[v] .. seg_offsets[v+1]);
  /// segment s carries label seg_labels[s] and the distinct, ascending
  /// target run targets[tgt_offsets[s] .. tgt_offsets[s+1]). Only non-empty
  /// (vertex, label) cells get a segment. Valid while the Graph is alive.
  struct VertexMajorView {
    const uint64_t* seg_offsets;  // num_vertices() + 1 entries
    const LabelId* seg_labels;    // one per segment
    const uint64_t* tgt_offsets;  // num_segments + 1 entries
    const VertexId* targets;      // num_edges() entries
  };

  /// \brief Checked-once accessor for VertexMajorView.
  VertexMajorView VertexMajor() const;

  /// \brief Deep structural equality: vertex/edge/label counts, label
  /// names, forward and reverse CSRs, and vertex-major arrays. This is the
  /// ingest determinism contract — builds of the same edge multiset must
  /// compare equal at every thread count — and is what the build tests
  /// assert.
  bool IdenticalTo(const Graph& other) const;

  /// \brief All edges, materialized in (label, src, dst) order.
  std::vector<Edge> CollectEdges() const;

 private:
  friend class GraphBuilder;

  struct Csr {
    std::vector<uint64_t> offsets;  // size num_vertices + 1
    std::vector<VertexId> targets;
  };

  size_t num_vertices_ = 0;
  size_t num_edges_ = 0;
  LabelDictionary labels_;
  std::vector<Csr> forward_;  // one per label
  std::vector<Csr> reverse_;  // empty unless requested

  // Vertex-major, label-segmented adjacency (VertexMajorView). One extra
  // copy of the edge targets plus O(segments) directory — the price of the
  // fused kernel's sequential access pattern, paid once per graph.
  std::vector<uint64_t> vm_seg_offsets_;  // num_vertices_ + 1
  std::vector<LabelId> vm_seg_labels_;    // one per non-empty (v, l) cell
  std::vector<uint64_t> vm_tgt_offsets_;  // segments + 1
  std::vector<VertexId> vm_targets_;      // num_edges_
};

}  // namespace pathest

#endif  // PATHEST_GRAPH_GRAPH_H_
