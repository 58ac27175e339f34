#include "path/selectivity.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <mutex>
#include <utility>

#include "engine/schedule.h"
#include "engine/thread_pool.h"
#include "path/pair_set.h"
#include "util/timer.h"

namespace pathest {

SelectivityMap::SelectivityMap(PathSpace space)
    : space_(space), values_(space.size(), 0) {}

uint64_t SelectivityMap::Get(const LabelPath& path) const {
  return values_[space_.CanonicalIndex(path)];
}

uint64_t SelectivityMap::GetByCanonicalIndex(uint64_t index) const {
  PATHEST_CHECK(index < values_.size(), "canonical index out of range");
  return values_[index];
}

void SelectivityMap::Set(const LabelPath& path, uint64_t value) {
  values_[space_.CanonicalIndex(path)] = value;
}

void SelectivityMap::ZeroRange(uint64_t index, uint64_t count) {
  PATHEST_CHECK(index <= values_.size() && count <= values_.size() - index,
                "zero range out of bounds");
  std::fill_n(values_.begin() + static_cast<ptrdiff_t>(index), count,
              uint64_t{0});
}

uint64_t SelectivityMap::Total() const {
  uint64_t total = 0;
  for (uint64_t v : values_) total += v;
  return total;
}

uint64_t SelectivityMap::CountNonZero() const {
  uint64_t count = 0;
  for (uint64_t v : values_) count += (v != 0);
  return count;
}

namespace {

Status PairLimitExceeded(const LabelPath& path) {
  return Status::ResourceExhausted(
      "pair set exceeds max_pairs_per_prefix at path " + path.ToIdString());
}

struct TaskDfs {
  const Graph* graph;
  const SelectivityOptions* options;
  SelectivityMap* map;
  EvalContext* ctx;
  size_t k;
};

// Recursively evaluates all extensions of `path` (whose non-empty pair set
// is `parent`) with the fused all-labels kernel: one ExtendAll/CountAll
// pass materializes or counts ALL |L| children of the node at once, then
// the interior children are visited depth-first. `radix` is the canonical
// radix of `path` — the DFS maintains the canonical index incrementally
// (child = radix * |L| + l, offset by the child length's base) instead of
// recomputing the O(k) PathSpace::CanonicalIndex at every node; the
// asserts check agreement with the recomputed index in NDEBUG-off builds.
Status ExtendSubtree(TaskDfs* r, LabelPath* path, const PairSet& parent,
                     uint64_t radix) {
  const size_t depth = path->length();
  const size_t num_labels = r->graph->num_labels();
  const PathSpace& space = r->map->space();
  const uint64_t child_base =
      space.LengthOffset(depth + 1) + radix * num_labels;
  if (depth + 1 == r->k) {
    uint64_t* counts = r->ctx->leaf_counts.data();
    std::fill_n(counts, num_labels, uint64_t{0});
    r->ctx->fused.CountAll(parent, counts);
    for (LabelId l = 0; l < num_labels; ++l) {
#ifndef NDEBUG
      path->PushBack(l);
      assert(child_base + l == space.CanonicalIndex(*path));
      path->PopBack();
#endif
      r->map->SetByCanonicalIndex(child_base + l, counts[l]);
    }
    return Status::OK();
  }
  // Interior: the whole child block at depth+1 is built in one pass; the
  // recursion below only ever writes blocks at depth+2 and deeper, so the
  // block stays intact while its members are visited.
  PairSet* children = r->ctx->blocks[depth + 1].data();
  r->ctx->fused.ExtendAll(parent, children);
  for (LabelId l = 0; l < num_labels; ++l) {
    const uint64_t child_size = children[l].size();
    path->PushBack(l);
    assert(child_base + l == space.CanonicalIndex(*path));
    r->map->SetByCanonicalIndex(child_base + l, child_size);
    if (r->options->max_pairs_per_prefix != 0 &&
        child_size > r->options->max_pairs_per_prefix) {
      return PairLimitExceeded(*path);
    }
    if (child_size > 0) {
      PATHEST_RETURN_NOT_OK(
          ExtendSubtree(r, path, children[l], radix * num_labels + l));
    }
    path->PopBack();
  }
  return Status::OK();
}

}  // namespace

Status EvaluateFusedRootPrepass(const Graph& graph, EvalContext& ctx,
                                LabelId root, size_t k,
                                const SelectivityOptions& options,
                                SelectivityMap* map, PairSet* level2_cells,
                                Status* cell_status) {
  const size_t num_labels = graph.num_labels();
  const PathSpace& space = map->space();
  const uint64_t max_pairs = options.max_pairs_per_prefix;
  InitialPairSet(graph, root, &ctx.level1);
  const uint64_t level1_size = ctx.level1.size();
  const uint64_t root_index = space.LengthOffset(1) + root;
  assert(root_index == space.CanonicalIndex(LabelPath{root}));
  map->SetByCanonicalIndex(root_index, level1_size);
  if (max_pairs != 0 && level1_size > max_pairs) {
    return PairLimitExceeded(LabelPath{root});
  }
  if (k >= 2 && level1_size > 0) {
    const uint64_t child_base = space.LengthOffset(2) + root * num_labels;
    if (k == 2) {
      uint64_t* counts = ctx.leaf_counts.data();
      std::fill_n(counts, num_labels, uint64_t{0});
      ctx.fused.CountAll(ctx.level1, counts);
      for (LabelId l = 0; l < num_labels; ++l) {
        map->SetByCanonicalIndex(child_base + l, counts[l]);
      }
    } else {
      ctx.fused.ExtendAll(ctx.level1, level2_cells);
      for (LabelId l = 0; l < num_labels; ++l) {
        const uint64_t size = level2_cells[l].size();
        map->SetByCanonicalIndex(child_base + l, size);
        if (max_pairs != 0 && size > max_pairs) {
          cell_status[l] = PairLimitExceeded(LabelPath{root, l});
        }
      }
    }
  }
  return Status::OK();
}

Status EvaluateFusedPrefixTask(const Graph& graph, EvalContext& ctx,
                               LabelId root, LabelId l2, const PairSet& level2,
                               size_t k, const SelectivityOptions& options,
                               SelectivityMap* map) {
  LabelPath path{root, l2};
  TaskDfs r{&graph, &options, map, &ctx, k};
  const uint64_t radix =
      static_cast<uint64_t>(root) * graph.num_labels() + l2;
  return ExtendSubtree(&r, &path, level2, radix);
}

void ZeroPrefixSubtree(LabelId root, LabelId l2, SelectivityMap* map) {
  const PathSpace& space = map->space();
  const uint64_t num_labels = space.num_labels();
  const uint64_t cell = static_cast<uint64_t>(root) * num_labels + l2;
  // The prefix's digits are the most significant radix digits of the
  // canonical index, so its length-d descendants are one contiguous run of
  // |L|^(d-2) entries starting at cell * |L|^(d-2) within length d's block.
  uint64_t stride = 1;
  for (size_t d = 3; d <= space.k(); ++d) {
    stride *= num_labels;
    map->ZeroRange(space.LengthOffset(d) + cell * stride, stride);
  }
}

size_t SelectivityTaskCount(size_t num_labels, size_t k) {
  return k >= 3 ? num_labels * num_labels : num_labels;
}

size_t ResolvedNumThreads(const SelectivityOptions& options,
                          size_t num_labels, size_t k) {
  const size_t requested = options.num_threads == 0
                               ? ThreadPool::DefaultThreads()
                               : options.num_threads;
  // Tasks are the unit of fan-out; extra workers would idle.
  return std::min(requested, SelectivityTaskCount(num_labels, k));
}

// The build: a parallel per-root pre-pass (level-1 sets, fused extension
// into the shared level-2 blocks, exact task weights) followed by the
// depth-2 prefix tasks (root, l2), dispatched heaviest-first over the
// pool's atomic work queue so idle workers steal the next-heaviest pending
// task. Every write target (map slices, level-2 block slices, per-root/
// per-cell status slots) is disjoint; the returned status is the first
// failure in DFS pre-order.
Result<SelectivityMap> ComputeSelectivities(const Graph& graph, size_t k,
                                            const SelectivityOptions& options) {
  const size_t num_labels = graph.num_labels();
  if (num_labels == 0) return Status::InvalidArgument("graph has no labels");
  // Validates k and |L_k| before PathSpace (whose checks abort) is built.
  PATHEST_RETURN_NOT_OK(PathSpaceSize(num_labels, k).status());
  PathSpace space(num_labels, k);
  SelectivityMap map(space);
  const size_t num_threads = ResolvedNumThreads(options, num_labels, k);

  std::vector<Status> root_status(num_labels);  // level-1 guard violations
  const size_t num_cells = k >= 3 ? num_labels * num_labels : 0;
  std::vector<Status> cell_status(num_cells);
  // Shared level-2 pair sets, one slice of |L| cells per root. Holding the
  // whole level resident (instead of one branch) is what lets the tasks
  // start anywhere; total size is the level-2 selectivity mass, and the
  // max_pairs_per_prefix guard bounds each cell.
  std::vector<PairSet> level2(num_cells);
  std::vector<double> root_ms(num_labels, 0.0);
  std::vector<size_t> root_pending(num_labels, 0);
  std::mutex callback_mu;  // serializes progress/label_time + accounting

  std::unique_ptr<ThreadPool> pool;
  std::vector<EvalContext> contexts;
  if (num_threads > 1) {
    pool = std::make_unique<ThreadPool>(num_threads);
    contexts.reserve(pool->num_threads());
    for (size_t w = 0; w < pool->num_threads(); ++w) {
      contexts.emplace_back(graph.num_vertices(), num_labels, k);
    }
  } else {
    contexts.emplace_back(graph.num_vertices(), num_labels, k);
  }
  // The graph is fixed for the whole build: bind each worker's fused
  // extender once instead of per root/task.
  for (EvalContext& ctx : contexts) ctx.fused.Bind(graph);
  auto parallel_for = [&](size_t n, const ThreadPool::Task& task) {
    if (pool != nullptr) {
      pool->ParallelFor(n, task);
    } else {
      for (size_t i = 0; i < n; ++i) task(i, 0);
    }
  };

  // Fires the per-root callbacks; callback_mu must be held.
  auto fire_root_done = [&](size_t root) {
    if (options.label_time) {
      options.label_time(static_cast<LabelId>(root), root_ms[root]);
    }
    if (options.progress) options.progress(static_cast<LabelId>(root));
  };

  // ---- Phase A: per-root pre-pass. Builds the level-1 pair set, writes
  // the length-1 (and, via the fused kernel, length-2) map entries, and
  // materializes the root's level-2 block — the tasks' starting sets and
  // their exact weights.
  auto run_root = [&](size_t root, EvalContext& ctx) {
    Timer timer;
    root_status[root] = EvaluateFusedRootPrepass(
        graph, ctx, static_cast<LabelId>(root), k, options, &map,
        num_cells != 0 ? &level2[root * num_labels] : nullptr,
        num_cells != 0 ? &cell_status[root * num_labels] : nullptr);
    root_ms[root] += timer.ElapsedMillis();
  };

  // Roots are presented heaviest-first by label cardinality (the exact
  // level-1 pair-set size); presentation order never changes the result.
  std::vector<uint64_t> root_weights(num_labels);
  for (size_t root = 0; root < num_labels; ++root) {
    root_weights[root] = graph.LabelCardinality(static_cast<LabelId>(root));
  }
  const std::vector<size_t> root_order = HeaviestFirstOrder(root_weights);
  parallel_for(num_labels, [&](size_t slot, size_t worker) {
    run_root(root_order[slot], contexts[worker]);
  });

  // ---- Task construction: one (root, l2) prefix task per non-empty,
  // non-violating level-2 cell of a healthy root, heaviest-first by the
  // cell's exact pair count.
  std::vector<size_t> tasks;
  if (k >= 3) {
    std::vector<uint64_t> weights;
    for (size_t root = 0; root < num_labels; ++root) {
      if (!root_status[root].ok()) continue;
      for (size_t l2 = 0; l2 < num_labels; ++l2) {
        const size_t cell = root * num_labels + l2;
        if (!cell_status[cell].ok() || level2[cell].size() == 0) continue;
        tasks.push_back(cell);
        weights.push_back(level2[cell].size());
        ++root_pending[root];
      }
    }
    const std::vector<size_t> order = HeaviestFirstOrder(weights);
    std::vector<size_t> ordered(tasks.size());
    for (size_t i = 0; i < tasks.size(); ++i) ordered[i] = tasks[order[i]];
    tasks = std::move(ordered);
  }

  // Roots whose subtree finished in the pre-pass (k <= 2, empty or
  // guard-failed roots, or all cells empty/violating) complete here.
  if (options.progress || options.label_time) {
    std::lock_guard<std::mutex> lock(callback_mu);
    for (size_t root = 0; root < num_labels; ++root) {
      if (root_pending[root] == 0) fire_root_done(root);
    }
  }

  // ---- Phase B: the prefix tasks.
  auto run_task = [&](size_t cell, EvalContext& ctx) {
    Timer timer;
    const size_t root = cell / num_labels;
    const LabelId l2 = static_cast<LabelId>(cell % num_labels);
    cell_status[cell] =
        EvaluateFusedPrefixTask(graph, ctx, static_cast<LabelId>(root), l2,
                                level2[cell], k, options, &map);
    level2[cell] = PairSet();  // release the consumed starting set
    const double ms = timer.ElapsedMillis();
    std::lock_guard<std::mutex> lock(callback_mu);
    root_ms[root] += ms;
    if (--root_pending[root] == 0 &&
        (options.progress || options.label_time)) {
      fire_root_done(root);
    }
  };
  parallel_for(tasks.size(), [&](size_t slot, size_t worker) {
    run_task(tasks[slot], contexts[worker]);
  });

  // DFS-order-first failure: for each root in ascending order, a level-1
  // violation precedes its cells'; within a root, cell l2's level-2 check
  // precedes any failure deeper inside l2's subtree, which precedes cell
  // l2+1 — the pre-order of one serial DFS over the whole trie.
  for (size_t root = 0; root < num_labels; ++root) {
    if (!root_status[root].ok()) return std::move(root_status[root]);
    for (size_t cell = root * num_labels;
         k >= 3 && cell < (root + 1) * num_labels; ++cell) {
      if (!cell_status[cell].ok()) return std::move(cell_status[cell]);
    }
  }
  return map;
}

}  // namespace pathest
