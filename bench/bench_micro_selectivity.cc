// Microbenchmark M2 (google-benchmark): throughput of the exact selectivity
// evaluator and of histogram construction, the two build-time costs of the
// pipeline.
//
// The selectivity rows take {k, threads}. The threads=1 rows are the serial
// baseline; every other row's map is asserted bit-identical to it.
//
// --json[=path] switches to a machine-readable sweep instead of the
// google-benchmark console: for every (dataset, threads) cell it runs one
// untimed warmup build, then PATHEST_REPS (default 5) timed
// ComputeSelectivities runs, and writes one JSON object to `path` (default
// BENCH_selectivity.json): the host block (bench_util.h WriteHostJson) and
// one row per cell with the median, minimum and maximum wall time.
// Cross-thread bit-identity of the map is asserted inside the sweep (every
// run against the first run's values). The er-dense dataset is an
// Erdős–Rényi configuration far denser per (vertex, label) than the paper's
// graphs; it is kept as the worst case of the epoch-marker kernel. Scale
// knobs: PATHEST_SCALE, PATHEST_REPS, PATHEST_K.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/distribution.h"
#include "gen/datasets.h"
#include "gen/generator.h"
#include "gen/label_assigner.h"
#include "histogram/builders.h"
#include "ordering/factory.h"
#include "path/selectivity.h"
#include "util/status.h"
#include "util/timer.h"

namespace pathest {
namespace {

const Graph& BenchGraph() {
  static const Graph* graph = [] {
    auto g = BuildDataset(DatasetId::kMorenoHealth, 0.25, 42);
    PATHEST_CHECK(g.ok(), "dataset build failed");
    return new Graph(std::move(*g));
  }();
  return *graph;
}

// Args: {k, num_threads}. The threads=1 rows are the serial baseline; the
// parallel-engine speedup is threads=N vs threads=1 at equal k. Every
// row's map is asserted bit-identical to the baseline.
void BM_ComputeSelectivities(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const size_t threads = static_cast<size_t>(state.range(1));
  SelectivityOptions options;
  options.num_threads = threads;
  static std::map<size_t, std::vector<uint64_t>>* baseline_maps =
      new std::map<size_t, std::vector<uint64_t>>();
  for (auto _ : state) {
    auto map = ComputeSelectivities(BenchGraph(), k, options);
    PATHEST_CHECK(map.ok(), "selectivity failed");
    benchmark::DoNotOptimize(map->Total());
    if (threads == 1) {
      (*baseline_maps)[k] = map->values();
    } else if (auto it = baseline_maps->find(k); it != baseline_maps->end()) {
      PATHEST_CHECK(it->second == map->values(),
                    "map differs from the serial baseline");
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(PathSpace(6, k).size()));
}
BENCHMARK(BM_ComputeSelectivities)
    ->ArgNames({"k", "threads"})
    ->Args({2, 1})
    ->Args({3, 1})
    ->Args({4, 1})  // serial baselines first: later rows check against them
    ->Args({4, 2})
    ->Args({4, 4})
    ->Args({5, 1})
    ->Args({5, 2})
    ->Args({5, 4})
    ->MeasureProcessCPUTime()
    ->UseRealTime();

const std::vector<uint64_t>& BenchDistribution() {
  static const std::vector<uint64_t>* dist = [] {
    auto map = ComputeSelectivities(BenchGraph(), 5);
    PATHEST_CHECK(map.ok(), "selectivity failed");
    auto ordering = MakeOrdering("sum-based", BenchGraph(), 5);
    PATHEST_CHECK(ordering.ok(), "ordering failed");
    auto d = BuildDistribution(*map, **ordering);
    PATHEST_CHECK(d.ok(), "distribution failed");
    return new std::vector<uint64_t>(std::move(*d));
  }();
  return *dist;
}

void BM_BuildHistogram(benchmark::State& state, HistogramType type) {
  const auto& dist = BenchDistribution();
  const size_t beta = dist.size() / static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto h = BuildHistogram(type, dist, beta);
    PATHEST_CHECK(h.ok(), "histogram failed");
    benchmark::DoNotOptimize(h->TotalSse());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(dist.size()));
}

void RegisterHistogramBenches() {
  struct Entry {
    const char* name;
    HistogramType type;
  };
  for (Entry e : {Entry{"equi-width", HistogramType::kEquiWidth},
                  Entry{"equi-depth", HistogramType::kEquiDepth},
                  Entry{"v-optimal-greedy", HistogramType::kVOptimal},
                  Entry{"maxdiff", HistogramType::kMaxDiff},
                  Entry{"end-biased", HistogramType::kEndBiased}}) {
    benchmark::RegisterBenchmark(
        (std::string("BM_BuildHistogram/") + e.name).c_str(),
        [type = e.type](benchmark::State& s) { BM_BuildHistogram(s, type); })
        ->Arg(4)
        ->Arg(64);
  }
}

// ------------------------------------------------------------- --json mode

// An Erdős–Rényi configuration with ~10 out-edges per (vertex, label)
// cell on a compact vertex set, so penultimate-level groups emit many
// repeated candidates per distinct target — the epoch-marker kernel's
// worst case, far from the paper's graphs. Override the shape with
// PATHEST_ER_V / PATHEST_ER_DEG.
Graph BuildDenseErGraph(double scale) {
  ErdosRenyiParams params;
  params.num_vertices = std::max<size_t>(
      60, static_cast<size_t>(
              static_cast<double>(bench::SizeFromEnv("PATHEST_ER_V", 2000)) *
              scale));
  params.num_edges =
      params.num_vertices * bench::SizeFromEnv("PATHEST_ER_DEG", 30);
  params.seed = 42;
  UniformLabelAssigner labels(3);
  auto g = GenerateErdosRenyi(params, &labels);
  bench::DieIf(g.status(), "er-dense generation");
  return std::move(g).ValueOrDie();
}

struct JsonRow {
  std::string dataset;
  size_t k;
  size_t threads;
  bench::TrialSpread build;
};

int RunJsonMode(const std::string& out_path) {
  const double scale = ScaleFromEnv();
  const size_t reps = bench::SizeFromEnv("PATHEST_REPS", 5);

  struct Config {
    std::string name;
    Graph graph;
    size_t k;
  };
  std::vector<Config> configs;
  configs.push_back({"er-dense", BuildDenseErGraph(scale), 3});
  {
    auto moreno = BuildDataset(DatasetId::kMorenoHealth, 0.25 * scale, 42);
    bench::DieIf(moreno.status(), "moreno generation");
    configs.push_back({"moreno", std::move(moreno).ValueOrDie(),
                       bench::SizeFromEnv("PATHEST_K", 4)});
  }

  std::vector<JsonRow> rows;
  for (const Config& config : configs) {
    std::printf("%s: |V|=%zu |E|=%zu |L|=%zu k=%zu\n", config.name.c_str(),
                config.graph.num_vertices(), config.graph.num_edges(),
                config.graph.num_labels(), config.k);
    // threads=1 always; the hardware-resolved count too when it differs.
    std::vector<size_t> thread_counts{1};
    SelectivityOptions hw;
    hw.num_threads = 0;
    const size_t resolved =
        ResolvedNumThreads(hw, config.graph.num_labels(), config.k);
    if (resolved > 1) thread_counts.push_back(resolved);

    std::vector<uint64_t> baseline_values;
    for (size_t threads : thread_counts) {
      SelectivityOptions options;
      options.num_threads = threads;
      std::vector<double> ms;
      // Run 0 is the warmup: checked, not timed into the row.
      for (size_t rep = 0; rep <= reps; ++rep) {
        Timer timer;
        auto map = ComputeSelectivities(config.graph, config.k, options);
        const double elapsed = timer.ElapsedMillis();
        bench::DieIf(map.status(), "selectivity computation");
        if (rep > 0) ms.push_back(elapsed);
        // Cross-thread identity: every run's map must equal the first
        // run's, bit for bit.
        if (baseline_values.empty()) {
          baseline_values = map->values();
        } else {
          PATHEST_CHECK(map->values() == baseline_values,
                        "map differs across threads");
        }
      }
      const bench::TrialSpread build = bench::Spread(ms);
      rows.push_back({config.name, config.k, threads, build});
      std::printf("  threads=%zu build_ms median=%.3f min=%.3f max=%.3f\n",
                  threads, build.median_ms, build.min_ms, build.max_ms);
    }
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"selectivity\",\n");
  bench::WriteHostJson(out);
  std::fprintf(out, "  \"warmup_runs\": 1,\n  \"trials\": %zu,\n", reps);
  std::fprintf(out, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const JsonRow& r = rows[i];
    std::fprintf(out,
                 "    {\"dataset\": \"%s\", \"k\": %zu, \"threads\": %zu, "
                 "\"build_ms_median\": %.3f, \"build_ms_min\": %.3f, "
                 "\"build_ms_max\": %.3f}%s\n",
                 r.dataset.c_str(), r.k, r.threads, r.build.median_ms,
                 r.build.min_ms, r.build.max_ms,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %zu rows to %s\n", rows.size(), out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace pathest

int main(int argc, char** argv) {
  // Peel off --json[=path] before google-benchmark sees the argv.
  bool json_mode = false;
  std::string json_path = "BENCH_selectivity.json";
  std::vector<char*> kept;
  kept.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json_mode = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json_mode = true;
      json_path = arg.substr(7);
    } else {
      kept.push_back(argv[i]);
    }
  }
  if (json_mode) return pathest::RunJsonMode(json_path);

  int kept_argc = static_cast<int>(kept.size());
  pathest::RegisterHistogramBenches();
  benchmark::Initialize(&kept_argc, kept.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
