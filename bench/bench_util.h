// Shared helpers for the paper-table bench binaries.

#ifndef PATHEST_BENCH_BENCH_UTIL_H_
#define PATHEST_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "gen/datasets.h"
#include "graph/graph.h"
#include "path/selectivity.h"
#include "util/logging.h"
#include "util/status.h"
#include "util/timer.h"

namespace pathest {
namespace bench {

// Terminates the process with a message when a Status/Result failed; benches
// have no meaningful recovery path.
inline void DieIf(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "bench failed at %s: %s\n", what,
                 status.ToString().c_str());
    std::exit(1);
  }
}

// Writes `"host": {...},` — core count, CPU model, compiler and build
// type (PATHEST_BUILD_TYPE, defined by CMake for every bench) — as one
// line of a BENCH_*.json object, so a committed row names the machine and
// build it came from.
inline void WriteHostJson(std::FILE* out) {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    const size_t value = line.find(": ");
    if (line.rfind("model name", 0) == 0 && value != std::string::npos) {
      cpu = line.substr(value + 2);
      break;
    }
  }
  for (char& c : cpu) {
    if (c == '"' || c == '\\') c = ' ';
  }
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const char* compiler = "g++ " __VERSION__;
#else
  const char* compiler = "unknown";
#endif
  std::fprintf(out,
               "  \"host\": {\"nproc\": %u, \"cpu\": \"%s\", "
               "\"compiler\": \"%s\", \"build_type\": \"%s\"},\n",
               std::thread::hardware_concurrency(), cpu.c_str(), compiler,
               PATHEST_BUILD_TYPE);
}

// Median and range of one cell's timed trials (at least one), the spread a
// committed BENCH row reports beside its central value.
struct TrialSpread {
  double median_ms;
  double min_ms;
  double max_ms;
};

inline TrialSpread Spread(std::vector<double> ms) {
  std::sort(ms.begin(), ms.end());
  const size_t n = ms.size();
  const double median =
      n % 2 == 1 ? ms[n / 2] : (ms[n / 2 - 1] + ms[n / 2]) / 2.0;
  return TrialSpread{median, ms.front(), ms.back()};
}

// Builds a canned dataset at the PATHEST_SCALE env scale (default: the
// paper's full size) and logs its actual shape.
inline Graph BuildBenchDataset(DatasetId id, uint64_t seed = 42) {
  double scale = ScaleFromEnv();
  auto graph = BuildDataset(id, scale, seed);
  DieIf(graph.status(), "dataset generation");
  return std::move(graph).ValueOrDie();
}

// Reads a size_t env override (e.g. PATHEST_KMAX), with default.
inline size_t SizeFromEnv(const char* name, size_t def) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return def;
  char* end = nullptr;
  unsigned long long v = std::strtoull(env, &end, 10);
  if (end == env || v == 0) return def;
  return static_cast<size_t>(v);
}

// Worker-thread count for selectivity evaluation: PATHEST_THREADS env, or
// 0 = one thread per hardware core (the bench default — benches want the
// fastest build; determinism is unaffected by thread count).
inline size_t ThreadsFromEnv() { return SizeFromEnv("PATHEST_THREADS", 0); }

// Computes exact selectivities with a progress line per root label.
// `num_threads` follows SelectivityOptions semantics (0 = hardware) and
// defaults to the PATHEST_THREADS env override.
inline SelectivityMap ComputeWithProgress(const Graph& graph, size_t k,
                                          const std::string& name,
                                          size_t num_threads = ThreadsFromEnv()) {
  Timer timer;
  SelectivityOptions options;
  options.num_threads = num_threads;
  // Progress callbacks are mutex-serialized by the evaluator, so a plain
  // counter is safe. Count completions rather than echoing the root id:
  // under parallelism roots finish in unspecified order.
  size_t roots_done = 0;
  options.progress = [&](LabelId root) {
    PATHEST_LOG(Info) << name << ": selectivity root " << (root + 1) << " done"
                      << " (" << ++roots_done << "/" << graph.num_labels()
                      << ", " << static_cast<int>(timer.ElapsedSeconds())
                      << "s)";
  };
  auto map = ComputeSelectivities(graph, k, options);
  DieIf(map.status(), "selectivity computation");
  PATHEST_LOG(Info) << name << ": exact selectivities for k=" << k
                    << " computed in " << timer.ElapsedSeconds() << "s";
  return std::move(map).ValueOrDie();
}

}  // namespace bench
}  // namespace pathest

#endif  // PATHEST_BENCH_BENCH_UTIL_H_
