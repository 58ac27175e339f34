// bench_serve_latency: request latency of the estimation service
// (serve/server.h) under concurrent load, with and without a reload storm
// running underneath — the number that makes "atomic snapshot hot-swap"
// a measurement instead of a slogan. If reloads serialized serving, the
// p99 of the storm rows would blow up; with lock-free snapshot pinning
// they should track the calm rows closely.
//
// Setup: a moreno-like graph at PATHEST_SCALE (default: the paper's full
// size), one k=3
// sum-based estimator saved as a binary-v2 catalog entry (served
// zero-copy; a reload re-pins the unchanged mapping), an in-process
// ServeServer on a Unix socket. Each row runs N client threads, every
// client its own connection, each issuing PATHEST_SERVE_REQS (default
// 400) `estimate` requests of 6 paths and recording per-request
// round-trip latency. Storm rows add one thread issuing back-to-back
// `reload` requests the whole time.
//
// --json[=path] writes one JSON object (default BENCH_serve_latency.json)
// with a host block and per-row p50/p99/mean microseconds and aggregate
// qps.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/serialize.h"
#include "histogram/histogram.h"
#include "ordering/factory.h"
#include "serve/client.h"
#include "serve/server.h"
#include "util/timer.h"

namespace pathest {
namespace {

struct Row {
  size_t clients = 0;
  bool reload_storm = false;
  size_t requests = 0;
  size_t errors = 0;
  size_t reloads = 0;
  double p50_us = 0;
  double p99_us = 0;
  double mean_us = 0;
  double qps = 0;
};

double Percentile(std::vector<double>& sorted_us, double p) {
  if (sorted_us.empty()) return 0;
  const size_t idx = std::min(
      sorted_us.size() - 1,
      static_cast<size_t>(p * static_cast<double>(sorted_us.size())));
  return sorted_us[idx];
}

Row RunRow(const std::string& socket_path, const std::string& query,
           size_t clients, size_t requests_per_client, bool reload_storm) {
  Row row;
  row.clients = clients;
  row.reload_storm = reload_storm;

  std::atomic<bool> storm_stop{false};
  std::atomic<size_t> reloads{0};
  std::thread storm;
  if (reload_storm) {
    storm = std::thread([&] {
      auto client = serve::ServeClient::Connect(socket_path);
      if (!client.ok()) return;
      while (!storm_stop.load(std::memory_order_acquire)) {
        auto resp = client->Call("reload");
        if (resp.ok() && resp->rfind("ok", 0) == 0) {
          reloads.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  std::vector<std::vector<double>> latencies(clients);
  std::atomic<size_t> errors{0};
  Timer wall;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto client = serve::ServeClient::Connect(socket_path);
      if (!client.ok()) {
        errors.fetch_add(requests_per_client);
        return;
      }
      latencies[c].reserve(requests_per_client);
      for (size_t i = 0; i < requests_per_client; ++i) {
        Timer timer;
        auto resp = client->Call(query);
        const double us = timer.ElapsedMillis() * 1000.0;
        if (!resp.ok() || resp->rfind("ok ", 0) != 0) {
          errors.fetch_add(1);
        } else {
          latencies[c].push_back(us);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall_s = wall.ElapsedSeconds();
  if (reload_storm) {
    storm_stop.store(true, std::memory_order_release);
    storm.join();
  }

  std::vector<double> all;
  for (const auto& per_client : latencies) {
    all.insert(all.end(), per_client.begin(), per_client.end());
  }
  std::sort(all.begin(), all.end());
  row.requests = all.size();
  row.errors = errors.load();
  row.reloads = reloads.load();
  row.p50_us = Percentile(all, 0.50);
  row.p99_us = Percentile(all, 0.99);
  double sum = 0;
  for (double v : all) sum += v;
  row.mean_us = all.empty() ? 0 : sum / static_cast<double>(all.size());
  row.qps = wall_s > 0 ? static_cast<double>(all.size()) / wall_s : 0;
  return row;
}

int Run(bool json_mode, const std::string& json_path) {
  const size_t requests_per_client =
      bench::SizeFromEnv("PATHEST_SERVE_REQS", 400);

  // One catalog entry: moreno-like graph, k=3, sum-based, binary format.
  Graph graph = bench::BuildBenchDataset(DatasetId::kMorenoHealth);
  SelectivityMap truth = bench::ComputeWithProgress(graph, 3, "serve");
  auto ordering = MakeOrdering("sum-based", graph, 3);
  bench::DieIf(ordering.status(), "ordering");
  auto estimator = PathHistogram::Build(truth, std::move(*ordering),
                                        HistogramType::kVOptimal, 64);
  bench::DieIf(estimator.status(), "estimator build");

  const auto root = std::filesystem::temp_directory_path() /
                    ("pathest_bench_serve_" + std::to_string(::getpid()));
  std::filesystem::create_directories(root / "cat");
  bench::DieIf(SavePathHistogram(*estimator, graph,
                                 (root / "cat" / "moreno.stats").string(),
                                 CatalogFormat::kBinaryV2),
               "catalog save");

  serve::ServeOptions options;
  options.socket_path = (root / "s.sock").string();
  options.catalog_dir = (root / "cat").string();
  // Enough workers that every bench client (max row below) plus the storm
  // thread holds a connection without starving anyone.
  options.num_workers = 10;
  options.queue_capacity = 64;
  serve::ServeServer server(options);
  bench::DieIf(server.Start(), "server start");

  // A 6-path batch over the first three labels (moreno labels are "1"...).
  const std::string l1 = graph.labels().Name(0);
  const std::string l2 = graph.labels().Name(graph.num_labels() > 1 ? 1 : 0);
  const std::string l3 = graph.labels().Name(graph.num_labels() > 2 ? 2 : 0);
  const std::string query = "estimate moreno " + l1 + " " + l2 + " " + l1 +
                            "/" + l2 + " " + l2 + "/" + l3 + " " + l1 + "/" +
                            l2 + "/" + l3 + " " + l3;

  std::vector<Row> rows;
  for (size_t clients : {size_t{1}, size_t{4}, size_t{8}}) {
    for (bool storm : {false, true}) {
      Row row = RunRow(options.socket_path, query, clients,
                       requests_per_client, storm);
      rows.push_back(row);
      std::printf(
          "clients=%zu storm=%d: %zu reqs, p50=%.1fus p99=%.1fus "
          "mean=%.1fus qps=%.0f errors=%zu reloads=%zu\n",
          row.clients, row.reload_storm ? 1 : 0, row.requests, row.p50_us,
          row.p99_us, row.mean_us, row.qps, row.errors, row.reloads);
      if (row.errors != 0) {
        std::fprintf(stderr, "bench invalid: %zu errored requests\n",
                     row.errors);
        return 1;
      }
    }
  }

  server.RequestStop();
  server.Wait();
  std::error_code ec;
  std::filesystem::remove_all(root, ec);

  if (!json_mode) return 0;
  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"serve_latency\",\n");
  bench::WriteHostJson(out);
  std::fprintf(out, "  \"requests_per_client\": %zu,\n", requests_per_client);
  std::fprintf(out, "  \"workers\": %zu,\n", options.num_workers);
  std::fprintf(out, "  \"num_labels\": %zu,\n", graph.num_labels());
  std::fprintf(out, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "    {\"clients\": %zu, \"reload_storm\": %s, "
                 "\"requests\": %zu, \"p50_us\": %.1f, \"p99_us\": %.1f, "
                 "\"mean_us\": %.1f, \"qps\": %.0f, \"reloads\": %zu}%s\n",
                 r.clients, r.reload_storm ? "true" : "false", r.requests,
                 r.p50_us, r.p99_us, r.mean_us, r.qps, r.reloads,
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
  std::string json_path = "BENCH_serve_latency.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json_mode = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json_mode = true;
      json_path = arg.substr(7);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }
  return pathest::Run(json_mode, json_path);
}
