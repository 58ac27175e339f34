// Graph-ingest bench: end-to-end text-to-Graph load (parse + build) of a
// SNAP-scale generated edge list, comparing the streaming pipeline
// (chunked from_chars parse + parallel counting-sort build) against the
// seed path (getline + istringstream per line, global sort via
// BuildReference). Plain binary, no google-benchmark.
//
// Every cell runs one untimed warmup load, then PATHEST_REPS timed loads.
// --json[=path] writes one JSON object to `path` (default
// BENCH_graph_load.json): the host block (bench_util.h WriteHostJson), the
// dataset shape, the seed path's median/min/max, and one row per thread
// count in {1, 2, 4} with the load time's median/min/max, the speedup of
// the medians vs the seed path, and the per-stage breakdown (read / parse
// / partition / csr / vertex-major) of the median-ranked trial. Every
// row's Graph is asserted BIT-IDENTICAL to the seed path's
// (Graph::IdenticalTo) — cross-thread determinism is checked in-bench,
// not assumed.
//
// Scale knobs: PATHEST_SCALE (1.0 = 1.2M edges over 200k vertices),
// PATHEST_REPS (timed trials per cell, default 5).

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "gen/generator.h"
#include "gen/label_assigner.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "util/timer.h"

namespace pathest {
namespace {

// The seed reader, kept verbatim as the comparison baseline: one
// istringstream per line feeding per-edge AddEdge calls, finalized by the
// global-sort BuildReference.
Result<Graph> SeedReadGraphText(std::istream* in) {
  GraphBuilder builder;
  std::string line;
  size_t line_no = 0;
  while (std::getline(*in, line)) {
    ++line_no;
    size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    uint64_t src = 0;
    uint64_t dst = 0;
    std::string label;
    if (!(ls >> src)) continue;
    if (!(ls >> label >> dst)) {
      return Status::IOError("malformed edge at line " +
                             std::to_string(line_no) + ": '" + line + "'");
    }
    if (src > UINT32_MAX || dst > UINT32_MAX) {
      return Status::OutOfRange("vertex id exceeds 32 bits at line " +
                                std::to_string(line_no));
    }
    builder.AddEdge(static_cast<VertexId>(src), label,
                    static_cast<VertexId>(dst));
  }
  return builder.BuildReference();
}

struct ThreadRow {
  size_t threads;
  bench::TrialSpread load;
  GraphLoadStats stats;  // of the median-ranked trial
  double speedup_vs_seed;
  bool identical;
};

int Run(bool json_mode, const std::string& json_path) {
  const double scale = ScaleFromEnv();
  const size_t reps = bench::SizeFromEnv("PATHEST_REPS", 5);

  ErdosRenyiParams params;
  params.num_vertices = std::max<size_t>(
      500, static_cast<size_t>(200000.0 * scale));
  params.num_edges = std::max<size_t>(
      3000, static_cast<size_t>(1200000.0 * scale));
  params.seed = 42;
  UniformLabelAssigner labels(6);
  auto generated = GenerateErdosRenyi(params, &labels);
  bench::DieIf(generated.status(), "edge-list generation");

  std::ostringstream serialized;
  bench::DieIf(WriteGraphText(*generated, &serialized), "serialization");
  const std::string text = serialized.str();
  std::printf("graph-load: |V|=%zu |E|=%zu |L|=%zu, %.1f MB of text, "
              "1 warmup + %zu timed trials per cell\n",
              generated->num_vertices(), generated->num_edges(),
              generated->num_labels(),
              static_cast<double>(text.size()) / (1024.0 * 1024.0), reps);

  // Seed path: line-at-a-time istringstream parse + global-sort build.
  // Run 0 is the warmup, kept as the graph every row is compared with.
  std::vector<double> seed_trials;
  Graph seed_graph;
  for (size_t rep = 0; rep <= reps; ++rep) {
    std::istringstream in(text);
    Timer timer;
    auto g = SeedReadGraphText(&in);
    const double ms = timer.ElapsedMillis();
    bench::DieIf(g.status(), "seed-path load");
    if (rep == 0) {
      seed_graph = std::move(g).ValueOrDie();
    } else {
      seed_trials.push_back(ms);
    }
  }
  const bench::TrialSpread seed = bench::Spread(seed_trials);
  std::printf("  seed path (istringstream + global sort): median %.1f ms "
              "(min %.1f, max %.1f)\n",
              seed.median_ms, seed.min_ms, seed.max_ms);

  std::vector<ThreadRow> rows;
  for (size_t threads : {1u, 2u, 4u}) {
    GraphLoadOptions options;
    options.num_threads = threads;
    std::vector<std::pair<double, GraphLoadStats>> trials;
    bool identical = true;
    for (size_t rep = 0; rep <= reps; ++rep) {
      std::istringstream in(text);
      GraphLoadStats stats;
      Timer timer;
      auto g = ReadGraphText(&in, options, &stats);
      const double ms = timer.ElapsedMillis();
      bench::DieIf(g.status(), "streaming load");
      if (rep == 0) {
        // Bit-identity vs the seed path, asserted in-bench: CSRs and
        // vertex-major arrays all equal at every thread count.
        identical = g->IdenticalTo(seed_graph);
        PATHEST_CHECK(identical, "streaming load differs from seed path");
      } else {
        trials.emplace_back(ms, stats);
      }
    }
    std::vector<double> ms;
    for (const auto& trial : trials) ms.push_back(trial.first);
    std::sort(trials.begin(), trials.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    ThreadRow row{threads, bench::Spread(ms), trials[trials.size() / 2].second,
                  0.0, identical};
    row.speedup_vs_seed =
        row.load.median_ms > 0.0 ? seed.median_ms / row.load.median_ms : 0.0;
    rows.push_back(row);
    std::printf("  threads=%zu: median %.1f ms (min %.1f, max %.1f; %.2fx vs "
                "seed; read %.1f, parse %.1f [%zu chunks], build %.1f = "
                "partition %.1f + csr %.1f + vm %.1f), identical=%s\n",
                threads, row.load.median_ms, row.load.min_ms, row.load.max_ms,
                row.speedup_vs_seed, row.stats.read_ms, row.stats.parse_ms,
                row.stats.num_chunks, row.stats.build.total_ms,
                row.stats.build.partition_ms, row.stats.build.csr_ms,
                row.stats.build.vm_ms, row.identical ? "yes" : "no");
  }

  if (!json_mode) return 0;
  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"graph_load\",\n");
  bench::WriteHostJson(out);
  std::fprintf(out,
               "  \"dataset\": \"snap-er\",\n"
               "  \"vertices\": %zu,\n"
               "  \"edges\": %zu,\n"
               "  \"labels\": %zu,\n"
               "  \"text_bytes\": %zu,\n"
               "  \"warmup_runs\": 1,\n"
               "  \"trials\": %zu,\n"
               "  \"seed_path_ms_median\": %.3f,\n"
               "  \"seed_path_ms_min\": %.3f,\n"
               "  \"seed_path_ms_max\": %.3f,\n",
               generated->num_vertices(), generated->num_edges(),
               generated->num_labels(), text.size(), reps, seed.median_ms,
               seed.min_ms, seed.max_ms);
  std::fprintf(out, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const ThreadRow& r = rows[i];
    std::fprintf(
        out,
        "    {\"threads\": %zu, \"load_ms_median\": %.3f, \"load_ms_min\": "
        "%.3f, \"load_ms_max\": %.3f, \"speedup_vs_seed\": %.3f, "
        "\"identical_to_seed\": %s, \"read_ms\": %.3f, \"parse_ms\": %.3f, "
        "\"parse_chunks\": %zu, \"build_ms\": %.3f, \"partition_ms\": "
        "%.3f, \"csr_ms\": %.3f, \"vertex_major_ms\": %.3f}%s\n",
        r.threads, r.load.median_ms, r.load.min_ms, r.load.max_ms,
        r.speedup_vs_seed, r.identical ? "true" : "false", r.stats.read_ms,
        r.stats.parse_ms, r.stats.num_chunks, r.stats.build.total_ms,
        r.stats.build.partition_ms, r.stats.build.csr_ms, r.stats.build.vm_ms,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace pathest

int main(int argc, char** argv) {
  bool json_mode = false;
  std::string json_path = "BENCH_graph_load.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json_mode = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json_mode = true;
      json_path = arg.substr(7);
    }
  }
  return pathest::Run(json_mode, json_path);
}
