// pathest: exact path-selectivity computation (ground truth f(ℓ)).
//
// The selectivity f(ℓ) of a label path ℓ is the number of DISTINCT vertex
// pairs (vs, vt) connected by an ℓ-labeled path (paper Section 2). The
// evaluator walks the label-prefix trie depth-first; at each node it holds
// the distinct pair set of the prefix, grouped by source vertex, and
// extends it into ALL |L| children in one pass over the graph's
// vertex-major adjacency (FusedExtender, path/pair_set.h). Empty prefixes
// prune their whole subtree, which is what makes k = 6 tractable on sparse
// data.
//
// Decomposition: any two distinct label-path PREFIXES root independent
// subtrees — they read the same immutable Graph and write DISJOINT slices
// of the canonical index space (a prefix's digits are the most significant
// radix digits of the canonical index, so its descendants of each length
// form one contiguous run). The build is split into depth-2 prefix tasks
// (root, l2): a parallel pre-pass builds every root's level-1 pair set and
// extends it into all |L| level-2 sets at once, then the |L|² tasks are
// dispatched heaviest-first (by their exact level-2 pair-set size) over
// the engine ThreadPool, whose atomic work queue lets idle workers steal
// the next-heaviest pending task. There is one EvalContext per worker and
// the result is bit-identical for every num_threads value.
//
// Kernel: each extension step deduplicates successors with the epoch-marker
// kernel (see path/pair_set.h).
//
// The test suites check this engine against a deliberately naive
// reference evaluator (tests/reference/), which shares no code with it.

#ifndef PATHEST_PATH_SELECTIVITY_H_
#define PATHEST_PATH_SELECTIVITY_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "engine/eval_context.h"
#include "graph/graph.h"
#include "path/label_path.h"
#include "path/path_space.h"
#include "util/status.h"

namespace pathest {

/// \brief Dense map from every path in L_k to its exact selectivity.
class SelectivityMap {
 public:
  /// Builds an all-zero map over the given space.
  explicit SelectivityMap(PathSpace space);

  const PathSpace& space() const { return space_; }

  /// \brief f(ℓ). Path must be in the space.
  uint64_t Get(const LabelPath& path) const;

  /// \brief f of the path with the given canonical index.
  uint64_t GetByCanonicalIndex(uint64_t index) const;

  /// \brief Sets f(ℓ).
  void Set(const LabelPath& path, uint64_t value);

  /// \brief Sets f of the path with the given canonical index. Inline: the
  /// evaluator's DFS maintains the canonical index incrementally (push =
  /// radix·|L| + l) and writes one entry per visited path-tree node.
  void SetByCanonicalIndex(uint64_t index, uint64_t value) {
    PATHEST_CHECK(index < values_.size(), "canonical index out of range");
    values_[index] = value;
  }

  /// \brief Zeroes `count` entries starting at canonical index `index`.
  /// Used when patching a map in place (see ZeroPrefixSubtree).
  void ZeroRange(uint64_t index, uint64_t count);

  /// \brief Sum of all selectivities (diagnostics).
  uint64_t Total() const;

  /// \brief Number of paths with f > 0.
  uint64_t CountNonZero() const;

  /// \brief The raw canonical-indexed vector.
  const std::vector<uint64_t>& values() const { return values_; }

 private:
  PathSpace space_;
  std::vector<uint64_t> values_;
};

/// \brief Options for the exact evaluator.
struct SelectivityOptions {
  /// Abort with ResourceExhausted when a materialized prefix pair set
  /// exceeds this many pairs (0 = unlimited). This bounds the build's
  /// pair-set memory: the pre-pass keeps the WHOLE level-2 layer of pair sets
  /// resident for k >= 3 (the prefix tasks' starting sets, each freed as
  /// its task completes), and the guard bounds every one of them, as well
  /// as every level-1 set and every interior set of the DFS. Length-k
  /// leaves are only counted, never materialized, so they are not checked.
  /// Every root and task is still evaluated (each stopping at its own
  /// first violation), and the error of the first violation in DFS
  /// pre-order is returned — so the reported status is deterministic and
  /// independent of num_threads.
  uint64_t max_pairs_per_prefix = 0;

  /// Number of worker threads for the parallel fan-out. 1 (default) is
  /// fully serial and spawns no threads; 0 means one thread per hardware
  /// core. The computed SelectivityMap is bit-identical for every value:
  /// every task writes a disjoint slice of the map. The unit of fan-out is
  /// the depth-2 prefix task (root, l2), so useful parallelism reaches |L|²
  /// (see ResolvedNumThreads / SelectivityTaskCount).
  size_t num_threads = 1;

  /// Optional progress callback invoked once per root label after its
  /// whole subtree completes (i.e., exactly num_labels times, failing
  /// roots included).
  ///
  /// Thread-safety guarantee: invocations are serialized behind an internal
  /// mutex (shared with `label_time`), so the callback may mutate shared
  /// state without its own locking. The COMPLETION ORDER of roots is
  /// unspecified: a root's prefix tasks run heaviest-first, even serially.
  std::function<void(LabelId done_root)> progress;

  /// Optional timing sink: receives each root label's evaluation time in
  /// milliseconds, immediately before `progress` fires for that root. It
  /// is the SUM of the root's pre-pass span and its prefix tasks' spans
  /// (which may overlap in wall time when parallel). Serialized behind the
  /// same mutex as `progress`.
  std::function<void(LabelId root, double millis)> label_time;
};

/// \brief The number of independent work items ComputeSelectivities fans
/// out for a (num_labels, k) build: num_labels² depth-2 prefix tasks when
/// k >= 3, and num_labels roots below that (there is nothing under the
/// prefixes, so the fan-out stays per-root).
size_t SelectivityTaskCount(size_t num_labels, size_t k);

/// \brief The worker count ComputeSelectivities actually uses for
/// `options` on a graph with `num_labels` labels at depth `k`: 0 resolves
/// to hardware concurrency, then clamps to SelectivityTaskCount (extra
/// workers would idle).
size_t ResolvedNumThreads(const SelectivityOptions& options,
                          size_t num_labels, size_t k);

/// \brief Computes f(ℓ) for every ℓ in L_k on `graph`. InvalidArgument
/// when the graph has no labels, k is out of range, or |L_k| overflows u64
/// (see PathSpaceSize); ResourceExhausted on a max_pairs_per_prefix
/// violation.
Result<SelectivityMap> ComputeSelectivities(
    const Graph& graph, size_t k,
    const SelectivityOptions& options = SelectivityOptions{});

/// \brief Runs the per-root pre-pass for `root` (Phase A of the depth-2
/// decomposition): builds the root's level-1 pair set into
/// `ctx.level1`, writes the length-1 map entry, and — for k >= 2 with a
/// non-empty level — either counts the length-2 leaves directly (k == 2)
/// or fused-extends into `level2_cells` (an array of num_labels PairSets,
/// the prefix tasks' starting sets), writing every length-2 entry and
/// recording per-cell guard violations into `cell_status` (an array of
/// num_labels Status slots; only violating cells are written). Returns the
/// root's own guard status (a level-1 violation skips level 2 entirely).
///
/// Preconditions: `ctx.fused` is Bound to `graph`; for k >= 3,
/// `level2_cells` and `cell_status` are non-null; `map` covers space
/// (graph.num_labels(), k). Writes are confined to the root's
/// disjoint canonical-index slices, so concurrent calls on distinct roots
/// with distinct contexts are race-free.
///
/// Exported (rather than kept a lambda of the build) so the incremental
/// maintenance engine (src/maint/incremental.h) re-runs
/// EXACTLY the code path of the full build on dirtied roots — bit-identity
/// of incremental and full rebuilds is by construction, not by parallel
/// implementation.
Status EvaluateFusedRootPrepass(const Graph& graph, EvalContext& ctx,
                                LabelId root, size_t k,
                                const SelectivityOptions& options,
                                SelectivityMap* map, PairSet* level2_cells,
                                Status* cell_status);

/// \brief Evaluates one depth-2 prefix task (root, l2) — Phase B of the
/// decomposition: the DFS over every extension of the length-2
/// prefix whose (non-empty) pair set is `level2`, writing each
/// length-3..k entry under the prefix. The subtree's map entries MUST be
/// zero on entry (the DFS prunes empty children without visiting them) —
/// guaranteed for a freshly-constructed map, restored by ZeroPrefixSubtree
/// when patching one in place. `ctx.fused` must be Bound to `graph`.
/// Requires k >= 3.
Status EvaluateFusedPrefixTask(const Graph& graph, EvalContext& ctx,
                               LabelId root, LabelId l2, const PairSet& level2,
                               size_t k, const SelectivityOptions& options,
                               SelectivityMap* map);

/// \brief Zeroes every length-3..k entry under the depth-2 prefix
/// (root, l2) — exactly the write slices of EvaluateFusedPrefixTask. The
/// incremental engine calls this on every dirtied task before re-running
/// it against the patched graph.
void ZeroPrefixSubtree(LabelId root, LabelId l2, SelectivityMap* map);

}  // namespace pathest

#endif  // PATHEST_PATH_SELECTIVITY_H_
