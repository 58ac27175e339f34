// pathest: the evaluator's scratch data structures — distinct pair sets and
// the fused all-labels kernel that extends them.
//
// The engine layer (engine/eval_context.h) owns one instance of each per
// worker thread. They are scratch, not values: every structure is reusable
// across evaluations and none is thread-safe on its own — parallel callers
// get isolation by owning disjoint instances, one per worker.
//
// Kernels. FusedExtender deduplicates the successors of one source group
// per label, and does so with one of two kernels chosen per (group, label)
// cell:
//   * sparse — the epoch-marker loop: each candidate successor probes a
//     per-vertex epoch word; first-seen vertices are emitted in discovery
//     order. Cost ~ O(emissions) with a branchy random 8-byte access each.
//   * dense  — the bitmap loop: candidates are blindly OR-ed into a
//     DynamicBitset (1 bit/vertex, branch-free), then drained by an
//     ascending word scan (ExtractAndClear / CountAndClear). Cost ~
//     O(emissions + |V|/64), with far better cache behavior per emission.
// kAuto picks dense exactly when the cell's expected emission count covers
// the word-scan term (see DenseGroupThreshold below). The choice depends
// only on the graph and the prefix's pair set — never on threads or prior
// scratch state — and both kernels produce the same distinct sets, so the
// computed SelectivityMap is bit-identical across kernels (test-enforced by
// tests/kernel_selectivity_test.cc).

#ifndef PATHEST_PATH_PAIR_SET_H_
#define PATHEST_PATH_PAIR_SET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/bitset.h"

namespace pathest {

/// \brief Extension-kernel selection for the pair-set joins.
enum class PairKernel : uint8_t {
  kAuto = 0,    ///< per-(group, label) cost-based choice (the default)
  kSparse = 1,  ///< force the epoch-marker kernel everywhere
  kDense = 2,   ///< force the bitmap kernel everywhere
};

/// \brief Stable lowercase name ("auto" / "sparse" / "dense").
const char* PairKernelName(PairKernel kernel);

/// \brief Inverse of PairKernelName; InvalidArgument on unknown names.
Result<PairKernel> ParsePairKernel(const std::string& name);

/// \brief Margin of the adaptive density test: the dense kernel must expect
/// this many candidate emissions per bitmap word before it is chosen. At 1
/// the word scan merely breaks even against the emission loop; requiring a
/// multiple keeps borderline cells — where the bitmap's per-emission edge
/// is smallest — on the sparse kernel (measured via bench_micro_selectivity
/// --json: small margins made auto lag the sparse kernel on skewed-label
/// graphs by ~15%).
inline constexpr uint64_t kDenseEmissionsPerWord = 4;

/// \brief The adaptive density test, precomputed per label: the smallest
/// source-group size for which the dense kernel is expected to win.
///
/// A cell's candidate emission count is estimated in O(1) as
///   group_size × mean out-degree of the label (cardinality / |V|),
/// i.e. the exact sum of candidate emissions is replaced by its
/// expectation — walking the group to add up true degrees costs about as
/// much as the sparse kernel itself on low-degree graphs, which is
/// exactly where the estimate must be cheap. The dense kernel is chosen
/// when that expectation covers scanning the whole bitmap (one word per
/// 64 vertices) kDenseEmissionsPerWord times over:
///   group_size × card / |V| >= margin × num_words
/// Returns the group-size threshold (never 0; ~0 cardinality labels never
/// go dense — they have next to no emissions to amortize a scan with).
/// Deterministic in the graph alone, so kernel choice can never depend on
/// scheduling.
inline uint64_t DenseGroupThreshold(uint64_t label_cardinality,
                                    size_t num_vertices, size_t num_words) {
  if (label_cardinality == 0) return UINT64_MAX;
  const uint64_t cost = kDenseEmissionsPerWord *
                        static_cast<uint64_t>(num_words) *
                        static_cast<uint64_t>(num_vertices);
  const uint64_t threshold =
      (cost + label_cardinality - 1) / label_cardinality;
  return threshold == 0 ? 1 : threshold;
}

/// \brief Distinct pair set of one path prefix, grouped by source vertex.
///
/// targets[offsets[i] .. offsets[i+1]) are the distinct endpoints reachable
/// from srcs[i]; their order is NOT specified (the dense kernel emits
/// ascending, the sparse kernel in discovery order — the evaluator only
/// needs counts and further extension, both order-independent).
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
/// segment into a per-label accumulator:
///   * dense cells (per-cell DenseGroupThreshold) accumulate into a
///     per-label DynamicBitset — segments that carry enough edges union their PRECOMPUTED adjacency
///     bitmap row (Graph::AdjacencyBitmaps, stride vectorized word-ORs)
///     instead of one bit-RMW per edge; the bitset is drained per group by
///     CountAndClear / ExtractAndClear;
///   * sparse cells deduplicate INLINE through a per-label epoch Marker,
///     emitting straight into the child builder (or a per-label counter)
///     with no second pass; when |V|·|L| makes per-label markers too big
///     they fall back to per-label emission arenas deduplicated by one
///     shared marker after the pass.
/// All scratch (bitsets, markers, arenas) is owned by this object and
/// allocated once, so steady-state extension of |L| children allocates
/// nothing (arenas keep their high-water capacity).
///
/// Determinism: the per-cell kernel choice depends only on the graph and
/// the parent's group sizes (never on threads or prior scratch), and every
/// accumulator produces the same distinct sets, so maps computed through
/// this kernel are identical under every kernel policy and equal to the
/// naive reference evaluator's — test-enforced by
/// tests/fused_selectivity_test.cc.
class FusedExtender {
 public:
  /// Per-label-marker budget: inline sparse-cell dedup needs |V|·|L| epoch
  /// words per context; above this many entries the emission-arena
  /// fallback is used instead.
  static constexpr size_t kMaxMarkerEntries = 4u << 20;  // 32 MB of epochs

  /// A segment ORs its precomputed bitmap row (stride_words word-ORs)
  /// instead of its edge list (seg_len bit-RMWs) when
  /// seg_len * kRowWinFactor >= stride_words — word-ORs vectorize to
  /// roughly this many per bit-RMW. Shared with the graph layer: the hub
  /// plane's materialization floor (graph.h kPlaneRowWinFactor) is the
  /// same crossover, so every hub row that exists clears this bound.
  static constexpr uint64_t kRowWinFactor = kPlaneRowWinFactor;

  /// Capacities: reusable for any graph with at most `num_vertices`
  /// vertices and `num_labels` labels (the EvalContext reuse contract).
  /// Allocates all scratch up front.
  FusedExtender(size_t num_vertices, size_t num_labels);

  /// \brief Binds the graph (and kernel policy) this extender reads:
  /// caches the vertex-major view and adjacency plane, and refreshes the
  /// per-label density thresholds.
  /// Must be called before CountAll / ExtendAll whenever the graph or
  /// kernel changes; O(|L|) after the first call.
  void Bind(const Graph& graph, PairKernel kernel);

  /// \brief Fused leaf pass: adds, for each label l, the number of
  /// distinct (s, u) pairs of parent ⋈ l into counts[l].
  void CountAll(const PairSet& parent, uint64_t* counts);

  /// \brief Fused interior pass: children[l] = distinct pair set of
  /// parent ⋈ l, for every label l in one pass. `children` must point to
  /// at least the bound graph's label count of PairSets; prior contents
  /// are discarded.
  void ExtendAll(const PairSet& parent, PairSet* children);

 private:
  /// The bitmap row of vertex-major segment `s` (= cell (t, l)), or
  /// nullptr when the bound plane has none for it: direct addressing for
  /// dense planes, the seg_rows directory for hub planes (the caller is
  /// already holding the segment index, so the hub lookup is free).
  const uint64_t* RowFor(VertexId t, LabelId l, uint64_t s) const {
    switch (plane_.kind) {
      case PlaneKind::kDense:
        return plane_.rows + (static_cast<size_t>(t) * num_labels_ + l) *
                                 plane_.stride_words;
      case PlaneKind::kHub: {
        const uint32_t row = plane_.seg_rows[s];
        return row == kNoPlaneRow
                   ? nullptr
                   : plane_.rows +
                         static_cast<size_t>(row) * plane_.stride_words;
      }
      case PlaneKind::kNone:
      default:
        return nullptr;
    }
  }

  size_t cap_vertices_;
  size_t cap_labels_;
  size_t num_labels_ = 0;        // bound graph's label count
  Graph::VertexMajorView vm_{};  // bound graph's vertex-major adjacency
  Graph::AdjacencyPlane plane_{};  // bitmap rows (rows == nullptr if absent)
  Marker marker_{0};             // shared dedup scratch (arena fallback)
  std::vector<Marker> markers_;  // per-label inline dedup (may be empty)
  std::vector<DynamicBitset> bits_;          // per label; all-zero between groups
  std::vector<std::vector<VertexId>> emit_;  // per label arenas (fallback)
  /// ExtendAll's per-label group-size thresholds: the plain
  /// DenseGroupThreshold — materialization pays a position-extraction
  /// drain per dense cell, so the bitset must amortize a full word scan.
  std::vector<uint64_t> dense_threshold_;
  /// CountAll's thresholds: with the adjacency plane the drain is a bare
  /// popcount, so the crossover moves to the row-OR bound (see Bind).
  std::vector<uint64_t> count_threshold_;
  /// Slab fast-path bound: groups at least this large have EVERY
  /// (nonzero-cardinality) label dense under count_threshold_, so CountAll
  /// ORs each member's whole contiguous plane slab — all |L| rows, no
  /// segment directory — into slab_ and popcounts per label section.
  uint64_t slab_threshold_ = UINT64_MAX;
  std::vector<uint64_t> slab_;               // |L| · stride words, all-zero
  std::vector<uint64_t> sparse_counts_;      // CountAll inline counters
  std::vector<size_t> group_before_;         // ExtendAll per-label watermark
};

/// \brief Builds the level-1 pair set for label `l` directly from the CSR,
/// in one unchecked ForwardView sweep.
void InitialPairSet(const Graph& graph, LabelId l, PairSet* out);

}  // namespace pathest

#endif  // PATHEST_PATH_PAIR_SET_H_
