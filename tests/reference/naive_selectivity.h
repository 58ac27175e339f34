// A deliberately naive reference evaluator for exact path selectivities —
// the oracle the selectivity engine's tests compare against.
//
// It shares no code with the engine: it reads the graph's edges only
// through Graph::CollectEdges, builds its own adjacency lists, and holds
// every prefix's distinct (source, target) pairs in a std::set. It walks
// the label-prefix trie depth-first (children of an empty prefix are all
// zero and are not visited) and writes each f(ℓ) at the canonical index
// computed by its own arithmetic: length-major, then radix by label id
// (the layout documented in path/path_space.h). Speed is not a goal:
// keep the graphs small.
//
// It also models the max_pairs_per_prefix guard: FirstGuardViolation
// returns the first path in DFS pre-order whose MATERIALIZED pair set
// exceeds the limit. The engine materializes every length-1 set (even
// for k = 1) and every interior set of length 2..k-1 below a non-empty
// prefix; length-k leaves are only counted, so they are never checked.

#ifndef PATHEST_TESTS_REFERENCE_NAIVE_SELECTIVITY_H_
#define PATHEST_TESTS_REFERENCE_NAIVE_SELECTIVITY_H_

#include <cstdint>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "path/label_path.h"

namespace pathest {
namespace reference {

class NaiveSelectivity {
 public:
  using PairSet = std::set<std::pair<VertexId, VertexId>>;

  /// The label alphabet is graph.num_labels() (labels without edges
  /// included); the adjacency comes from graph.CollectEdges() alone.
  explicit NaiveSelectivity(const Graph& graph)
      : num_labels_(graph.num_labels()), out_(num_labels_) {
    for (const Edge& e : graph.CollectEdges()) {
      std::vector<std::vector<VertexId>>& rows = out_[e.label];
      if (rows.size() <= e.src) rows.resize(static_cast<size_t>(e.src) + 1);
      rows[e.src].push_back(e.dst);
    }
  }

  size_t num_labels() const { return num_labels_; }

  /// The distinct (source, target) pairs connected by a `path`-labeled
  /// walk. `path` must be non-empty and use labels < num_labels().
  PairSet Pairs(const LabelPath& path) const {
    PairSet pairs = LabelPairs(path.label(0));
    for (size_t i = 1; i < path.length(); ++i) {
      pairs = Extend(pairs, path.label(i));
    }
    return pairs;
  }

  /// f(ℓ) for every ℓ in L_k, in canonical order (the layout of
  /// SelectivityMap::values()).
  std::vector<uint64_t> AllSelectivities(size_t k) const {
    std::vector<uint64_t> offsets(k + 2, 0);  // offsets[len]: first index
    uint64_t count = 1;
    for (size_t len = 1; len <= k; ++len) {
      count *= num_labels_;
      offsets[len + 1] = offsets[len] + count;
    }
    std::vector<uint64_t> values(offsets[k + 1], 0);
    for (LabelId l = 0; l < num_labels_; ++l) {
      Walk(LabelPairs(l), 1, l, k, offsets, &values);
    }
    return values;
  }

  /// One pair set the engine materializes during an L_k build.
  struct Materialized {
    LabelPath path;
    uint64_t pairs;
  };

  /// Every pair set an L_k build materializes, in DFS pre-order (labels
  /// ascending): all length-1 sets, then — below non-empty prefixes only —
  /// the interior sets of length 2..k-1.
  std::vector<Materialized> MaterializedPreorder(size_t k) const {
    std::vector<Materialized> out;
    for (LabelId l = 0; l < num_labels_; ++l) {
      LabelPath path{l};
      CollectMaterialized(LabelPairs(l), &path, k, &out);
    }
    return out;
  }

  /// The first path in DFS pre-order whose materialized pair set holds
  /// more than `max_pairs` pairs during an L_k build, or nullopt when the
  /// build stays within the limit.
  std::optional<LabelPath> FirstGuardViolation(size_t k,
                                               uint64_t max_pairs) const {
    for (LabelId l = 0; l < num_labels_; ++l) {
      LabelPath path{l};
      if (auto hit = FindViolation(LabelPairs(l), &path, k, max_pairs)) {
        return hit;
      }
    }
    return std::nullopt;
  }

 private:
  PairSet LabelPairs(LabelId l) const {
    PairSet pairs;
    const std::vector<std::vector<VertexId>>& rows = out_[l];
    for (size_t s = 0; s < rows.size(); ++s) {
      for (VertexId t : rows[s]) pairs.insert({static_cast<VertexId>(s), t});
    }
    return pairs;
  }

  PairSet Extend(const PairSet& parent, LabelId l) const {
    PairSet child;
    const std::vector<std::vector<VertexId>>& rows = out_[l];
    for (const auto& [s, t] : parent) {
      if (t >= rows.size()) continue;
      for (VertexId u : rows[t]) child.insert({s, u});
    }
    return child;
  }

  // Records f of the path with canonical radix `radix` and length `len`
  // (pair set `pairs`), then recurses into its children.
  void Walk(const PairSet& pairs, size_t len, uint64_t radix, size_t k,
            const std::vector<uint64_t>& offsets,
            std::vector<uint64_t>* values) const {
    (*values)[offsets[len] + radix] = pairs.size();
    if (len == k || pairs.empty()) return;
    for (LabelId l = 0; l < num_labels_; ++l) {
      Walk(Extend(pairs, l), len + 1, radix * num_labels_ + l, k, offsets,
           values);
    }
  }

  void CollectMaterialized(const PairSet& pairs, LabelPath* path, size_t k,
                           std::vector<Materialized>* out) const {
    out->push_back({*path, pairs.size()});
    // Children of length k are leaves (counted, never materialized), and
    // an empty prefix has only empty extensions.
    if (path->length() + 1 >= k || pairs.empty()) return;
    for (LabelId l = 0; l < num_labels_; ++l) {
      path->PushBack(l);
      CollectMaterialized(Extend(pairs, l), path, k, out);
      path->PopBack();
    }
  }

  std::optional<LabelPath> FindViolation(const PairSet& pairs,
                                         LabelPath* path, size_t k,
                                         uint64_t max_pairs) const {
    if (pairs.size() > max_pairs) return *path;
    if (path->length() + 1 >= k || pairs.empty()) return std::nullopt;
    for (LabelId l = 0; l < num_labels_; ++l) {
      path->PushBack(l);
      auto hit = FindViolation(Extend(pairs, l), path, k, max_pairs);
      path->PopBack();
      if (hit) return hit;
    }
    return std::nullopt;
  }

  size_t num_labels_;
  // out_[label][src]: the targets of src's label-labeled edges.
  std::vector<std::vector<std::vector<VertexId>>> out_;
};

}  // namespace reference
}  // namespace pathest

#endif  // PATHEST_TESTS_REFERENCE_NAIVE_SELECTIVITY_H_
