// Tests for the engine layer: ThreadPool/ParallelFor scheduling guarantees,
// heaviest-first work ordering, and EvalContext scratch reuse.

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/eval_context.h"
#include "engine/schedule.h"
#include "engine/thread_pool.h"
#include "path/selectivity.h"
#include "test_util.h"

namespace pathest {
namespace {

using testing_util::SmallGraph;

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  for (size_t num_threads : {1u, 2u, 4u, 7u}) {
    ThreadPool pool(num_threads);
    ASSERT_EQ(pool.num_threads(), num_threads);
    constexpr size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    pool.ParallelFor(kN, [&](size_t i, size_t worker) {
      ASSERT_LT(i, kN);
      ASSERT_LT(worker, pool.num_threads());
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
  }
}

TEST(ThreadPoolTest, ZeroAndSingleItemJobs) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(0, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // A 1-item job runs inline on the caller (worker 0).
  pool.ParallelFor(1, [&](size_t i, size_t worker) {
    EXPECT_EQ(i, 0u);
    EXPECT_EQ(worker, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, SerialPoolRunsInOrderOnCaller) {
  ThreadPool pool(1);
  std::vector<size_t> order;
  pool.ParallelFor(10, [&](size_t i, size_t worker) {
    EXPECT_EQ(worker, 0u);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 10u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, ReusableAcrossJobs) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<size_t> sum{0};
    const size_t n = 1 + static_cast<size_t>(round % 7);
    pool.ParallelFor(n, [&](size_t i, size_t) {
      sum.fetch_add(i + 1, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), n * (n + 1) / 2) << "round " << round;
  }
}

TEST(ThreadPoolTest, MoreThreadsThanWork) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(2);
  pool.ParallelFor(2, [&](size_t i, size_t) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(hits[0].load(), 1);
  EXPECT_EQ(hits[1].load(), 1);
}

TEST(ThreadPoolTest, DefaultThreadsIsPositive) {
  EXPECT_GE(ThreadPool::DefaultThreads(), 1u);
  ThreadPool pool(0);  // 0 = DefaultThreads
  EXPECT_EQ(pool.num_threads(), ThreadPool::DefaultThreads());
}

TEST(ScheduleTest, HeaviestFirstOrderSortsDescending) {
  const std::vector<uint64_t> weights{5, 100, 7, 100, 1, 42};
  const std::vector<size_t> order = HeaviestFirstOrder(weights);
  // Descending weight, ties (the two 100s) by ascending index.
  EXPECT_EQ(order, (std::vector<size_t>{1, 3, 5, 2, 0, 4}));
}

TEST(ScheduleTest, HeaviestFirstOrderIsAPermutation) {
  const std::vector<uint64_t> weights{3, 3, 3, 0, 9, 3, 2};
  std::vector<size_t> order = HeaviestFirstOrder(weights);
  ASSERT_EQ(order.size(), weights.size());
  std::vector<size_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
  // All-equal weights degrade to the identity (stable ties).
  EXPECT_EQ(HeaviestFirstOrder({7, 7, 7}), (std::vector<size_t>{0, 1, 2}));
  EXPECT_TRUE(HeaviestFirstOrder({}).empty());
}

// Evaluates root `root`'s whole subtree through `ctx` with the build's own
// primitives: the pre-pass, then every non-empty level-2 prefix task.
Status EvaluateRoot(const Graph& g, EvalContext& ctx, LabelId root, size_t k,
                    const SelectivityOptions& options, SelectivityMap* map) {
  ctx.fused.Bind(g);
  std::vector<PairSet> level2(g.num_labels());
  std::vector<Status> cell_status(g.num_labels());
  PATHEST_RETURN_NOT_OK(EvaluateFusedRootPrepass(
      g, ctx, root, k, options, map, level2.data(), cell_status.data()));
  for (LabelId l2 = 0; k >= 3 && l2 < g.num_labels(); ++l2) {
    if (!cell_status[l2].ok()) return std::move(cell_status[l2]);
    if (level2[l2].size() == 0) continue;
    PATHEST_RETURN_NOT_OK(EvaluateFusedPrefixTask(g, ctx, root, l2,
                                                  level2[l2], k, options,
                                                  map));
  }
  return Status::OK();
}

TEST(EvalContextTest, RootSubtreeIsPureAndContextReusable) {
  Graph g = SmallGraph();
  const size_t k = 3;
  PathSpace space(g.num_labels(), k);
  const SelectivityOptions options;

  // Evaluate every root twice through ONE context — rebound in between;
  // a full fresh evaluation must agree, proving prior scratch contents
  // don't leak into results.
  EvalContext ctx(g.num_vertices(), g.num_labels(), k);
  SelectivityMap first(space);
  SelectivityMap second(space);
  for (LabelId root = 0; root < g.num_labels(); ++root) {
    ASSERT_TRUE(EvaluateRoot(g, ctx, root, k, options, &first).ok());
  }
  for (LabelId root = g.num_labels(); root-- > 0;) {  // reverse order
    ASSERT_TRUE(EvaluateRoot(g, ctx, root, k, options, &second).ok());
  }
  EXPECT_EQ(first.values(), second.values());

  auto reference = ComputeSelectivities(g, k);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(first.values(), reference->values());
}

TEST(EvalContextTest, OversizedContextEvaluatesSmallerGraph) {
  // The documented reuse contract: a context built for AT MOST some counts
  // must evaluate any smaller graph — the extender and the leaf pass
  // have to use the graph's real dimensions, not the context capacities.
  Graph g = SmallGraph();
  const size_t k = 3;
  PathSpace space(g.num_labels(), k);
  EvalContext ctx(g.num_vertices() + 100, g.num_labels() + 5, k + 2);
  SelectivityOptions options;
  SelectivityMap map(space);
  for (LabelId root = 0; root < g.num_labels(); ++root) {
    ASSERT_TRUE(EvaluateRoot(g, ctx, root, k, options, &map).ok());
  }
  auto reference = ComputeSelectivities(g, k);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(map.values(), reference->values());
}

TEST(ThreadPoolTest, TaskExceptionRethrownFromParallelFor) {
  // A throwing task must not terminate the process (worker-boundary
  // catch); the first exception is rethrown from ParallelFor itself.
  for (size_t num_threads : {size_t{1}, size_t{4}}) {
    ThreadPool pool(num_threads);
    std::atomic<size_t> ran{0};
    bool caught = false;
    try {
      pool.ParallelFor(64, [&](size_t i, size_t) {
        ran.fetch_add(1, std::memory_order_relaxed);
        if (i == 7) throw std::runtime_error("task failed on index 7");
      });
    } catch (const std::runtime_error& e) {
      caught = true;
      EXPECT_STREQ(e.what(), "task failed on index 7");
    }
    EXPECT_TRUE(caught) << num_threads << " threads";
    // The failure stops new indices; the pool never claims completeness.
    EXPECT_LE(ran.load(), 64u);
  }
}

TEST(ThreadPoolTest, PoolIsReusableAfterTaskException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(
                   16, [](size_t, size_t) { throw std::logic_error("boom"); }),
               std::logic_error);
  // The next job runs clean: no sticky exception, every index exactly once.
  std::vector<std::atomic<int>> hits(32);
  pool.ParallelFor(hits.size(), [&](size_t i, size_t) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
  // And a second failing job still reports (first exception wins, others
  // are swallowed at the worker boundary).
  EXPECT_THROW(pool.ParallelFor(
                   8, [](size_t, size_t) { throw std::string("not even an "
                                                             "exception"); }),
               std::string);
}

TEST(ThreadPoolTest, DestructionImmediatelyAfterConstruction) {
  // The destructor must join workers that never saw a job — repeatedly,
  // since the failure mode (a worker missing the shutdown wake) is a
  // race, not a deterministic bug.
  for (int i = 0; i < 50; ++i) {
    ThreadPool pool(4);
  }
}

TEST(ThreadPoolTest, DestructionRightAfterJobsDoesNotHang) {
  // Lifecycle stress: construct, run a tiny job, destroy — the shutdown
  // signal must never race a worker that is still draining the last job.
  for (int i = 0; i < 30; ++i) {
    ThreadPool pool(3);
    std::atomic<size_t> ran{0};
    pool.ParallelFor(5, [&](size_t, size_t) {
      ran.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(ran.load(), 5u);
  }
}

TEST(ThreadPoolTest, SurvivesRepeatedExceptionJobs) {
  // Exception recovery is not one-shot: alternate failing and clean jobs
  // on one pool and demand full correctness from every clean one.
  ThreadPool pool(4);
  for (int round = 0; round < 10; ++round) {
    EXPECT_THROW(
        pool.ParallelFor(16,
                         [](size_t, size_t) {
                           throw std::runtime_error("round failure");
                         }),
        std::runtime_error);
    std::vector<std::atomic<int>> hits(24);
    pool.ParallelFor(hits.size(), [&](size_t i, size_t) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "round " << round << " index " << i;
    }
  }
}

TEST(ThreadPoolTest, ExternallySerializedSubmittersShareOnePool) {
  // The contract allows one in-flight job at a time but not only from the
  // constructing thread: several submitter threads take turns (their own
  // mutex) driving the SAME pool, which must hand every job's indices out
  // exactly once regardless of which thread called ParallelFor.
  ThreadPool pool(4);
  std::mutex turn;
  std::atomic<size_t> total{0};
  constexpr size_t kJobsPerSubmitter = 20;
  constexpr size_t kIndicesPerJob = 32;
  std::vector<std::thread> submitters;
  for (int s = 0; s < 3; ++s) {
    submitters.emplace_back([&] {
      for (size_t j = 0; j < kJobsPerSubmitter; ++j) {
        std::lock_guard<std::mutex> lock(turn);
        pool.ParallelFor(kIndicesPerJob, [&](size_t, size_t) {
          total.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(total.load(), 3 * kJobsPerSubmitter * kIndicesPerJob);
}

TEST(EvalContextTest, RootSubtreeWritesOnlyItsSlice) {
  Graph g = SmallGraph();
  const size_t k = 3;
  PathSpace space(g.num_labels(), k);
  EvalContext ctx(g.num_vertices(), g.num_labels(), k);
  SelectivityOptions options;

  const LabelId root = 1;
  SelectivityMap map(space);
  ASSERT_TRUE(EvaluateRoot(g, ctx, root, k, options, &map).ok());
  space.ForEach([&](const LabelPath& p) {
    if (p.label(0) != root) {
      EXPECT_EQ(map.Get(p), 0u) << "foreign-slice write at " << p.ToIdString();
    }
  });
}

}  // namespace
}  // namespace pathest
