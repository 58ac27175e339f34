// pathest: per-worker evaluation context — the scratch arena one worker
// thread needs to run the selectivity build's root pre-passes and prefix
// tasks.
//
// The evaluator's working state is the fused all-labels extender (its
// per-label epoch markers), the root's level-1 pair set, and one block of
// |L| child pair sets per DFS depth. None of them is
// thread-safe, and all of them are expensive to allocate relative to a
// single DFS step — so the engine owns exactly one EvalContext per worker,
// allocated once up front, and every root and task dispatched to that
// worker reuses it. Two workers never share a context; one worker never
// runs two tasks concurrently. That is the entire synchronization story of
// the parallel evaluator: contexts are disjoint, output slices are
// disjoint, nothing else is written.

#ifndef PATHEST_ENGINE_EVAL_CONTEXT_H_
#define PATHEST_ENGINE_EVAL_CONTEXT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "path/pair_set.h"

namespace pathest {

/// \brief One worker's scratch arena for selectivity evaluation.
///
/// Reusable across any number of sequential evaluations on graphs with at
/// most `num_vertices` vertices / `num_labels` labels and DFS depth at most
/// `k`; results are independent of prior use (every structure is
/// epoch-reset, cleared, or rebound at the start of each scope). Everything
/// a task touches is pre-allocated here, so the DFS — and in particular
/// the penultimate-level leaf pass, the hottest loop — performs no
/// allocation at all.
struct EvalContext {
  EvalContext(size_t num_vertices, size_t num_labels, size_t k)
      : fused(num_vertices, num_labels),
        blocks(k + 1, std::vector<PairSet>(num_labels)),
        leaf_counts(num_labels, 0) {}

  /// The fused all-labels kernel's scratch (per-label epoch markers +
  /// vertex-major binding); bound once per build.
  FusedExtender fused;
  /// The root's level-1 pair set, built by the pre-pass.
  PairSet level1;
  /// The DFS's per-depth CHILD BLOCKS: blocks[d][l] holds the pair set of
  /// the depth-d child with last label l, all |L| siblings materialized
  /// together by one ExtendAll pass. blocks[0..2] unused (the task's
  /// starting set lives in the shared level-2 block).
  std::vector<std::vector<PairSet>> blocks;
  /// Per-label counts buffer of the leaf pass (one entry per label),
  /// zero-filled by the DFS before each use.
  std::vector<uint64_t> leaf_counts;
};

}  // namespace pathest

#endif  // PATHEST_ENGINE_EVAL_CONTEXT_H_
