// pathest: the evaluator's scratch data structures — distinct pair sets and
// the fused all-labels kernel that extends them.
//
// The engine layer (engine/eval_context.h) owns one instance of each per
// worker thread. They are scratch, not values: every structure is reusable
// across evaluations and none is thread-safe on its own — parallel callers
// get isolation by owning disjoint instances, one per worker.
//
// Kernel. FusedExtender deduplicates the successors of one source group
// per label with one kernel, the epoch-marker loop: each candidate
// successor probes a per-vertex epoch word, and first-seen vertices are
// emitted in discovery order. Cost ~ O(emissions), with no term in |V|.
// Both of its dedup paths (per-label markers, or the emission-arena
// fallback described at FusedExtender) produce the same distinct sets, so
// the computed SelectivityMap equals the naive reference evaluator's
// (test-enforced by tests/fused_selectivity_test.cc).

#ifndef PATHEST_PATH_PAIR_SET_H_
#define PATHEST_PATH_PAIR_SET_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace pathest {

/// \brief Distinct pair set of one path prefix, grouped by source vertex.
///
/// targets[offsets[i] .. offsets[i+1]) are the distinct endpoints reachable
/// from srcs[i], in discovery order — the evaluator only needs counts and
/// further extension, both order-independent.
struct PairSet {
  std::vector<VertexId> srcs;
  std::vector<uint64_t> offsets;  // size srcs.size() + 1
  std::vector<VertexId> targets;

  uint64_t size() const { return targets.size(); }
  void Clear() {
    srcs.clear();
    offsets.clear();
    targets.clear();
  }
};

/// \brief Epoch-based distinct-marking scratch, shared across a whole DFS.
///
/// O(1) reset between distinct-set scopes: bumping the epoch invalidates
/// every previous mark without touching memory.
class Marker {
 public:
  explicit Marker(size_t num_vertices) : epoch_of_(num_vertices, 0) {}

  /// \brief Starts a new distinct-set scope.
  void NextEpoch() { ++epoch_; }

  /// \brief Returns true the first time `v` is seen in the current scope.
  bool Mark(VertexId v) {
    if (epoch_of_[v] == epoch_) return false;
    epoch_of_[v] = epoch_;
    return true;
  }

 private:
  uint64_t epoch_ = 0;
  std::vector<uint64_t> epoch_of_;
};

/// \brief Fused all-labels extension kernel: joins a parent pair set with
/// EVERY label in a single pass over its target lists.
///
/// Rather than re-walking the parent's target lists once per label (|L|
/// random CSR row accesses per target), this kernel walks each target
/// exactly once and reads its FULL out-adjacency sequentially from the
/// graph's vertex-major view (Graph::VertexMajor), dispatching each label
/// segment into a per-label accumulator. Each label deduplicates INLINE
/// through its own epoch Marker, emitting straight into the child builder
/// (or a per-label counter) with no second pass; when |V|·|L| makes
/// per-label markers too big, labels fall back to per-label emission
/// arenas deduplicated by one shared marker after the pass. All scratch
/// (markers, arenas) is owned by this object and allocated once, so
/// steady-state extension of |L| children allocates nothing (arenas keep
/// their high-water capacity).
class FusedExtender {
 public:
  /// Per-label-marker budget: inline dedup needs |V|·|L| epoch words per
  /// context; above this many entries the emission-arena fallback is used
  /// instead.
  static constexpr size_t kMaxMarkerEntries = 4u << 20;  // 32 MB of epochs

  /// Capacities: reusable for any graph with at most `num_vertices`
  /// vertices and `num_labels` labels (the EvalContext reuse contract).
  /// Allocates all scratch up front.
  FusedExtender(size_t num_vertices, size_t num_labels);

  /// \brief Binds the graph this extender reads: caches its vertex-major
  /// view and label count. Must be called before CountAll / ExtendAll
  /// whenever the graph changes; O(1).
  void Bind(const Graph& graph);

  /// \brief Fused leaf pass: adds, for each label l, the number of
  /// distinct (s, u) pairs of parent ⋈ l into counts[l].
  void CountAll(const PairSet& parent, uint64_t* counts);

  /// \brief Fused interior pass: children[l] = distinct pair set of
  /// parent ⋈ l, for every label l in one pass. `children` must point to
  /// at least the bound graph's label count of PairSets; prior contents
  /// are discarded.
  void ExtendAll(const PairSet& parent, PairSet* children);

 private:
  size_t cap_vertices_;
  size_t cap_labels_;
  size_t num_labels_ = 0;        // bound graph's label count
  Graph::VertexMajorView vm_{};  // bound graph's vertex-major adjacency
  Marker marker_{0};             // shared dedup scratch (arena fallback)
  std::vector<Marker> markers_;  // per-label inline dedup (may be empty)
  std::vector<std::vector<VertexId>> emit_;  // per label arenas (fallback)
  std::vector<size_t> group_before_;         // ExtendAll per-label watermark
};

/// \brief Builds the level-1 pair set for label `l` directly from the CSR,
/// in one unchecked ForwardView sweep.
void InitialPairSet(const Graph& graph, LabelId l, PairSet* out);

}  // namespace pathest

#endif  // PATHEST_PATH_PAIR_SET_H_
