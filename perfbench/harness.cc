// perfbench_harness: the compiled half of the repository benchmark
// (perfbench/README.md). perfbench/run.py drives it; every subcommand
// prints one JSON object as its last line of standard output.
//
//   gen     --data D --seed N --graphs dbpedia,snap-ff
//           Seeded edge-list files D/<graph>.graph (the gen layer; never
//           timed).
//   catalog --data D --out C --set build|maint --threads T
//           One untimed rebuild into C: the catalog serve-read serves, or
//           the entry the maint replay starts from.
//   build   --data D --out C --threads T --seconds S --trace 0|1
//           [--setup-only 1] [--spans F]
//           The `build` workload: one warm-up rebuild, a "ready" line,
//           then closed-loop rebuilds for S seconds.
//   client  --socket P --catalog C --seed N --seconds S --readers R
//           --daemon-pid PID --trace 0|1 [--spans F]
//           The `serve-read` load: R closed-loop connections sending the
//           probe mix, each response checked against the in-process
//           oracle; traced runs also replay the requests in-process.
//   maint   --catalog C --graph G --seed N --batch B --seconds S
//           [--spans F]
//           Seeded edge-delta batches through the maint layer, in-process
//           (traced `build` runs).
//
// Layers are timed from outside, around calls into their public
// functions; spans are kept in memory and written at the end.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/error.h"
#include "core/estimator.h"
#include "core/mapped_catalog.h"
#include "core/path_histogram.h"
#include "core/serialize.h"
#include "gen/datasets.h"
#include "graph/graph_io.h"
#include "maint/online_maintenance.h"
#include "ordering/factory.h"
#include "path/label_path.h"
#include "path/selectivity.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/snapshot_registry.h"
#include "util/random.h"

namespace pathest {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr size_t kBeta = 437;
// Distinct requests per reader connection; requests cycle through it.
constexpr size_t kRequestPool = 4096;
// Zipf exponent of the probe mix's label choice.
constexpr double kLabelSkew = 1.0;
// A traced serve-read run keeps one request span in this many; every
// request's timestamps are taken either way.
constexpr uint64_t kRequestSpanEvery = 64;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double MsSince(int64_t start_ns) { return (NowNs() - start_ns) / 1e6; }

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench_harness: %s\n", what.c_str());
  std::exit(1);
}

void Check(const Status& st, const std::string& what) {
  if (!st.ok()) Die(what + ": " + st.ToString());
}

template <typename T>
T Take(Result<T> result, const std::string& what) {
  Check(result.status(), what);
  return std::move(result).ValueOrDie();
}

// ------------------------------------------------------------- arguments

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i + 1 < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) != 0) Die("bad flag " + std::string(argv[i]));
      values_[argv[i] + 2] = argv[i + 1];
    }
    if (argc % 2 != 0) Die("flags come in --key value pairs");
  }
  std::string Str(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) Die("missing --" + key);
    return it->second;
  }
  std::string Str(const std::string& key, const std::string& absent) const {
    auto it = values_.find(key);
    return it == values_.end() ? absent : it->second;
  }
  uint64_t U64(const std::string& key) const {
    return std::strtoull(Str(key).c_str(), nullptr, 10);
  }
  uint64_t U64(const std::string& key, uint64_t absent) const {
    return values_.count(key) ? U64(key) : absent;
  }
  double F64(const std::string& key) const {
    return std::strtod(Str(key).c_str(), nullptr);
  }

 private:
  std::map<std::string, std::string> values_;
};

// ------------------------------------------------------------------ JSON

// One JSON object, its keys in insertion order.
class Json {
 public:
  Json& Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
    return Raw(key, buf);
  }
  Json& Int(const std::string& key, uint64_t value) {
    return Raw(key, std::to_string(value));
  }
  Json& Str(const std::string& key, const std::string& value) {
    return Raw(key, "\"" + JsonEscape(value) + "\"");
  }
  Json& Obj(const std::string& key, const Json& value) {
    return Raw(key, value.Render());
  }
  std::string Render() const { return "{" + body_ + "}"; }

 private:
  Json& Raw(const std::string& key, const std::string& value) {
    body_ += (body_.empty() ? "" : ",") + ("\"" + JsonEscape(key) + "\":") + value;
    return *this;
  }

  std::string body_;
};

// ------------------------------------------------------------- statistics

// Linear-interpolated quantile of an unsorted sample (q in [0, 1]).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

Json Summary(const std::vector<double>& v) {
  Json j;
  j.Int("n", v.size())
      .Num("p50", Median(v))
      .Num("q1", Quantile(v, 0.25))
      .Num("q3", Quantile(v, 0.75))
      .Num("p99", Quantile(v, 0.99));
  return j;
}

double CpuSecondsSelf() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

// utime + stime of another process, from /proc/<pid>/stat.
double CpuSecondsOf(uint64_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) Die("cannot read /proc stat of pid " + std::to_string(pid));
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  uint64_t utime = 0, stime = 0;
  // Fields after "(comm)" start at field 3 (state); utime is 14, stime 15.
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
    if (i == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
  }
  return static_cast<double>(utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double VmHwmMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) * 1024.0 / 1e6;
    }
  }
  return 0;
}

uint64_t Mix(uint64_t seed, uint64_t stream) {
  uint64_t state = seed * 0x9E3779B97F4A7C15ULL + stream;
  return SplitMix64(&state);
}

bool SameBits(double a, double b) {
  uint64_t x = 0, y = 0;
  std::memcpy(&x, &a, sizeof(x));
  std::memcpy(&y, &b, sizeof(y));
  return x == y;
}

std::string FormatValue(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// ----------------------------------------------------------------- spans

// In-memory span store: name, start, end, parent, request id. Disabled
// tracers record nothing, so untraced runs pay one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  int Begin(const std::string& name, int parent, uint64_t request) {
    if (!enabled_) return -1;
    spans_.push_back({name, NowNs(), 0, parent, request});
    return static_cast<int>(spans_.size() - 1);
  }
  void End(int id) {
    if (id >= 0) spans_[id].end_ns = NowNs();
  }
  // Adds a span measured elsewhere (a reader thread's request).
  void Add(const std::string& name, int64_t start_ns, int64_t end_ns,
           uint64_t request) {
    if (enabled_) spans_.push_back({name, start_ns, end_ns, -1, request});
  }
  bool enabled() const { return enabled_; }
  size_t size() const { return spans_.size(); }

  // Self time of each span: its duration minus its children's.
  std::vector<double> SelfMs() const {
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) self[i] = DurMs(i);
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[s.parent] -= (s.end_ns - s.start_ns) / 1e6;
    }
    return self;
  }

  // Self ms summed by span name, over the spans under root `root`.
  std::map<std::string, double> SelfByName(int root) const {
    const std::vector<double> self = SelfMs();
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (static_cast<int>(i) == root || spans_[i].parent == root) {
        out[spans_[i].name] += self[i];
      }
    }
    return out;
  }

  // Self ms summed by layer (the name up to its first '.').
  std::map<std::string, double> SelfByLayer() const {
    const std::vector<double> self = SelfMs();
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name.substr(0, spans_[i].name.find('.'))] += self[i];
    }
    return out;
  }

  void Write(const std::string& path) const {
    if (!enabled_ || path.empty()) return;
    std::ofstream out(path);
    out << "id\tparent\trequest\tname\tstart_ns\tend_ns\tself_ms\n";
    const std::vector<double> self = SelfMs();
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << i << '\t' << s.parent << '\t' << s.request << '\t' << s.name
          << '\t' << s.start_ns << '\t' << s.end_ns << '\t' << self[i] << '\n';
    }
    if (!out) Die("cannot write spans to " + path);
  }

 private:
  struct Span {
    std::string name;
    int64_t start_ns;
    int64_t end_ns;
    int parent;
    uint64_t request;
  };
  double DurMs(size_t i) const {
    return (spans_[i].end_ns - spans_[i].start_ns) / 1e6;
  }

  bool enabled_;
  std::vector<Span> spans_;
};

// Total self time of each layer over every recorded span.
Json SelfByLayerJson(const Tracer& tracer) {
  Json j;
  for (const auto& [layer, ms] : tracer.SelfByLayer()) j.Num(layer, ms);
  return j;
}

// ------------------------------------------------------------------ gen

DatasetId DatasetByName(const std::string& name) {
  if (name == "dbpedia") return DatasetId::kDbpedia;
  if (name == "snap-ff") return DatasetId::kSnapFf;
  Die("unknown graph " + name);
}

int CmdGen(const Args& args) {
  const std::string dir = args.Str("data");
  const uint64_t seed = args.U64("seed");
  fs::create_directories(dir);
  std::stringstream names(args.Str("graphs"));
  std::string name;
  Json out;
  for (uint64_t i = 0; std::getline(names, name, ','); ++i) {
    Graph graph = Take(BuildDataset(DatasetByName(name), 1.0, Mix(seed, i)),
                       "generate " + name);
    Check(SaveGraphFile(graph, dir + "/" + name + ".graph"), "save " + name);
    out.Int(name + ".edges", graph.num_edges());
  }
  std::printf("%s\n", out.Render().c_str());
  return 0;
}

// --------------------------------------------------------------- rebuild

// One graph's share of a rebuild: its depth and the orderings it gets an
// entry for (each v-optimal at β = kBeta).
struct GraphJob {
  std::string graph;
  size_t k;
  std::vector<std::string> orderings;
};

// `build` (and the serve-read catalog): both graphs in every op, so op
// times are not bimodal; dbpedia stresses the path layer, snap-ff the
// histogram layer.
const std::vector<GraphJob> kBuildJobs = {
    {"dbpedia", 4, {"sum-based", "lex-card"}},
    {"snap-ff", 6, {"sum-based", "lex-card"}},
};
// The maint replay: one k=3 entry, maintained incrementally.
const std::vector<GraphJob> kMaintJobs = {{"dbpedia", 3, {"sum-based"}}};

const std::vector<GraphJob>& JobsFor(const std::string& set) {
  if (set == "build") return kBuildJobs;
  if (set == "maint") return kMaintJobs;
  Die("unknown job set " + set);
}

struct BuiltEntry {
  std::string name;
  std::string path;
  size_t map_index;
  PathHistogram histogram;
  std::shared_ptr<const MappedCatalogEntry> mapped;
};

struct RebuildOutput {
  std::vector<std::unique_ptr<SelectivityMap>> maps;
  std::vector<BuiltEntry> entries;
};

// The rebuild op: edge-list files on disk -> verified, servable v2 catalog
// entries, in layer order: ingest, selectivities, ordering, histogram,
// save, open at kFull.
RebuildOutput Rebuild(const std::string& data_dir, const std::string& out_dir,
                      const std::vector<GraphJob>& jobs, size_t threads,
                      Tracer& tracer, int root, uint64_t op) {
  RebuildOutput out;
  for (const GraphJob& job : jobs) {
    const std::string& g = job.graph;
    int span = tracer.Begin("graph.load_ms." + g, root, op);
    GraphLoadOptions load;
    load.num_threads = threads;
    Graph graph = Take(LoadGraphFile(data_dir + "/" + g + ".graph", load), "load " + g);
    tracer.End(span);

    span = tracer.Begin("path.selectivity_ms." + g, root, op);
    SelectivityOptions sel;
    sel.num_threads = threads;
    out.maps.push_back(std::make_unique<SelectivityMap>(
        Take(ComputeSelectivities(graph, job.k, sel), "selectivities " + g)));
    tracer.End(span);
    const SelectivityMap& map = *out.maps.back();

    for (const std::string& ordering_name : job.orderings) {
      span = tracer.Begin("ordering.make_ms." + g, root, op);
      OrderingPtr ordering = Take(MakeOrdering(ordering_name, graph, job.k), "ordering");
      tracer.End(span);

      span = tracer.Begin("histogram.build_ms." + g, root, op);
      PathHistogram histogram = Take(
          PathHistogram::Build(map, std::move(ordering), HistogramType::kVOptimal, kBeta),
          "histogram " + g);
      tracer.End(span);

      const std::string name = g + "-" + ordering_name;
      const std::string path = out_dir + "/" + name + ".stats";
      span = tracer.Begin("core.save_ms." + g, root, op);
      Check(SavePathHistogram(histogram, graph, path, CatalogFormat::kBinaryV2), "save " + name);
      tracer.End(span);

      span = tracer.Begin("core.open_verify_ms." + g, root, op);
      auto mapped = Take(MappedCatalogEntry::Open(path, CatalogVerify::kFull), "open " + name);
      tracer.End(span);
      out.entries.push_back({name, path, out.maps.size() - 1, std::move(histogram),
                             std::move(mapped)});
    }
  }
  return out;
}

struct RebuildCheck {
  uint64_t mismatches = 0;
  uint64_t paths = 0;
  double mean_abs_error = 0;
  uint64_t catalog_bytes = 0;
  std::map<std::string, uint64_t> bytes_by_graph;
  std::map<std::string, uint64_t> nonzero_by_graph;
};

// Estimates from each mapped v2 entry must be bit-identical to the
// in-memory PathHistogram over the whole domain; also scores every path
// of every entry against the exact selectivities (Formula 6).
RebuildCheck CheckRebuild(const RebuildOutput& out, const std::vector<GraphJob>& jobs) {
  RebuildCheck check;
  double error_sum = 0;
  for (const BuiltEntry& entry : out.entries) {
    const SelectivityMap& map = *out.maps[entry.map_index];
    const PathSpace& space = entry.histogram.ordering().space();
    const Estimator& served = entry.mapped->estimator();
    RankScratch scratch;
    scratch.Reserve(served.num_labels());
    for (uint64_t i = 0; i < space.size(); ++i) {
      const LabelPath path = space.CanonicalPath(i);
      const double expected = entry.histogram.Estimate(path);
      if (!SameBits(expected, served.Estimate(path, scratch))) ++check.mismatches;
      error_sum += AbsoluteErrorRate(expected, static_cast<double>(map.Get(path)));
      ++check.paths;
    }
    const uint64_t bytes = fs::file_size(entry.path);
    check.catalog_bytes += bytes;
    check.bytes_by_graph[jobs[entry.map_index].graph] += bytes;
  }
  for (size_t i = 0; i < out.maps.size(); ++i) {
    check.nonzero_by_graph[jobs[i].graph] = out.maps[i]->CountNonZero();
  }
  check.mean_abs_error = check.paths ? error_sum / static_cast<double>(check.paths) : 0;
  return check;
}

uint64_t DomainPaths(const RebuildOutput& out) {
  uint64_t paths = 0;
  for (const BuiltEntry& e : out.entries) paths += e.histogram.ordering().space().size();
  return paths;
}

int CmdCatalog(const Args& args) {
  const std::string out_dir = args.Str("out");
  fs::create_directories(out_dir);
  const std::vector<GraphJob>& jobs = JobsFor(args.Str("set"));
  Tracer off(false);
  RebuildOutput out = Rebuild(args.Str("data"), out_dir, jobs, args.U64("threads"), off, -1, 0);
  const RebuildCheck check = CheckRebuild(out, jobs);
  Json j;
  j.Int("entries", out.entries.size())
      .Int("mismatches", check.mismatches)
      .Int("catalog_bytes", check.catalog_bytes)
      .Num("mean_abs_error", check.mean_abs_error);
  std::printf("%s\n", j.Render().c_str());
  return check.mismatches == 0 ? 0 : 1;
}

int CmdBuild(const Args& args) {
  const std::string data_dir = args.Str("data");
  const std::string out_dir = args.Str("out");
  const size_t threads = args.U64("threads");
  const bool trace = args.U64("trace") != 0;
  const double seconds = args.F64("seconds");
  fs::create_directories(out_dir);
  const std::vector<GraphJob>& jobs = kBuildJobs;

  // Set-up: one untimed warm-up op, checked like every other op.
  Tracer off(false);
  RebuildOutput warm = Rebuild(data_dir, out_dir, jobs, threads, off, -1, 0);
  const RebuildCheck first = CheckRebuild(warm, jobs);
  const uint64_t domain_paths = DomainPaths(warm);
  warm = RebuildOutput{};
  std::printf("ready\n");
  std::fflush(stdout);
  if (args.U64("setup-only", 0) != 0) {
    std::printf("%s\n", Json().Int("mismatches", first.mismatches).Render().c_str());
    return first.mismatches == 0 ? 0 : 1;
  }

  Tracer tracer(trace);
  std::vector<double> op_ms, traced_ms, untraced_ms, cpu_ms;
  std::map<std::string, std::vector<double>> per_span;  // traced ops only
  uint64_t attempted = 0, failed = 0;
  RebuildCheck last = first;
  const int64_t start = NowNs();
  for (uint64_t op = 1; (NowNs() - start) / 1e9 < seconds; ++op) {
    // Traced runs alternate traced and untraced ops, so the tracing
    // overhead is measured within one run.
    const bool traced_op = trace && op % 2 == 1;
    Tracer& t = traced_op ? tracer : off;
    const double cpu0 = CpuSecondsSelf();
    const int64_t t0 = NowNs();
    const int root = t.Begin("build.residual_ms", -1, op);
    RebuildOutput out = Rebuild(data_dir, out_dir, jobs, threads, t, root, op);
    t.End(root);
    const double ms = MsSince(t0);
    cpu_ms.push_back((CpuSecondsSelf() - cpu0) * 1e3);
    op_ms.push_back(ms);
    (traced_op ? traced_ms : untraced_ms).push_back(ms);
    if (traced_op) {
      for (const auto& [name, self] : tracer.SelfByName(root)) per_span[name].push_back(self);
    }

    ++attempted;
    last = CheckRebuild(out, jobs);
    // Every op must reproduce the warm-up op's catalog and accuracy.
    if (last.mismatches != 0 || last.catalog_bytes != first.catalog_bytes ||
        !SameBits(last.mean_abs_error, first.mean_abs_error)) {
      ++failed;
    }
  }
  tracer.Write(args.Str("spans", ""));

  Json layers;
  for (const auto& [name, samples] : per_span) layers.Num(name, Median(samples));
  for (const auto& [g, n] : last.nonzero_by_graph) layers.Int("path.paths_nonzero." + g, n);
  for (const auto& [g, b] : last.bytes_by_graph) layers.Int("core.catalog_bytes." + g, b);
  layers.Num("trace.op_p50_ms_traced", Median(traced_ms))
      .Num("trace.op_p50_ms_untraced", Median(untraced_ms))
      .Int("trace.spans", tracer.size());

  Json j;
  j.Int("attempted", attempted)
      .Int("failed", failed)
      .Int("threads", threads)
      .Obj("op_ms", Summary(op_ms))
      .Obj("cpu_ms", Summary(cpu_ms))
      .Int("domain_paths", domain_paths)
      .Int("catalog_bytes", last.catalog_bytes)
      .Num("mean_abs_error", last.mean_abs_error)
      .Num("peak_rss_mb", VmHwmMb())
      .Obj("self_ms_by_layer", SelfByLayerJson(tracer))
      .Obj("layers", layers);
  std::printf("%s\n", j.Render().c_str());
  return 0;
}

// ------------------------------------------------------------ probe mix

struct Probe {
  std::string line;      // the request line
  std::string expected;  // the exact response (static catalogs only)
  size_t num_paths;
};

// The probe mix a query optimizer sends when it costs sub-plans: one query
// path of uniform length 1..k with Zipf-skewed labels, and the request
// asks for every contiguous sub-path of it (1..k(k+1)/2 paths).
std::vector<Probe> MakeProbes(const serve::RegistryState& state, uint64_t seed,
                              size_t count) {
  std::vector<const serve::ServingSnapshot*> entries;
  std::vector<std::vector<LabelId>> label_rank;  // Zipf rank -> label
  for (const auto& [name, snapshot] : state.entries) {
    entries.push_back(snapshot.get());
    std::vector<LabelId> order(snapshot->labels().size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<LabelId>(i);
    Rng shuffle(Mix(seed, 7 + entries.size()));
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[shuffle.NextBounded(i)]);
    }
    label_rank.push_back(std::move(order));
  }
  Rng rng(seed);
  std::vector<Probe> probes;
  probes.reserve(count);
  RankScratch scratch;
  for (size_t i = 0; i < count; ++i) {
    const size_t e = rng.NextBounded(entries.size());
    const serve::ServingSnapshot& snap = *entries[e];
    const LabelDictionary& dict = snap.labels();
    const size_t k = snap.estimator().ordering().space().k();
    ZipfDistribution zipf(dict.size(), kLabelSkew);
    const size_t n = 1 + rng.NextBounded(k);
    std::vector<std::string> labels;
    for (size_t j = 0; j < n; ++j) labels.push_back(dict.Name(label_rank[e][zipf.Sample(&rng)]));
    Probe probe{"estimate ", "ok", 0};
    probe.line += snap.name();
    scratch.Reserve(snap.estimator().num_labels());
    for (size_t len = 1; len <= n; ++len) {
      for (size_t s = 0; s + len <= n; ++s) {
        std::string text = labels[s];
        for (size_t j = s + 1; j < s + len; ++j) {
          text += '/';
          text += labels[j];
        }
        const LabelPath path = Take(LabelPath::Parse(text, dict), "probe path");
        probe.line += ' ';
        probe.line += text;
        probe.expected += ' ';
        probe.expected += FormatValue(snap.estimator().Estimate(path, scratch));
        ++probe.num_paths;
      }
    }
    probes.push_back(std::move(probe));
  }
  return probes;
}

// In-process replay of the identical request lines, stage by stage, so
// each stage is timed over the whole pool instead of per ~20 ns call.
// Returns ns per request of each stage.
std::map<std::string, double> ReplayInProcess(const serve::RegistryState& state,
                                              const std::vector<Probe>& probes,
                                              Tracer& tracer, double min_seconds) {
  std::map<std::string, double> total_ns;
  uint64_t requests = 0;
  std::vector<serve::Request> parsed(probes.size());
  std::vector<const serve::ServingSnapshot*> snaps(probes.size());
  std::vector<std::vector<LabelPath>> paths(probes.size());
  std::vector<std::vector<uint64_t>> ranks(probes.size());
  std::vector<std::vector<double>> values(probes.size());
  std::vector<std::string> responses(probes.size());
  RankScratch scratch;
  uint64_t sink = 0;
  auto stage = [&](const char* name, int root, uint64_t pass, auto&& body) {
    const int span = tracer.Begin(name, root, pass);
    const int64_t t0 = NowNs();
    body();
    total_ns[name] += static_cast<double>(NowNs() - t0);
    tracer.End(span);
  };
  const int64_t start = NowNs();
  for (uint64_t pass = 0; pass < 3 || (NowNs() - start) / 1e9 < min_seconds; ++pass) {
    const int root = tracer.Begin("serve.replay", -1, pass);
    stage("serve.parse_request_ns", root, pass, [&] {
      for (size_t i = 0; i < probes.size(); ++i) {
        parsed[i] = Take(serve::ParseRequest(probes[i].line), "parse request");
      }
    });
    stage("core.lookup_ns", root, pass, [&] {
      for (size_t i = 0; i < probes.size(); ++i) {
        snaps[i] = state.entries.find(parsed[i].args[0])->second.get();
      }
    });
    stage("path.parse_ns", root, pass, [&] {
      for (size_t i = 0; i < probes.size(); ++i) {
        paths[i].clear();
        const auto& space = snaps[i]->estimator().ordering().space();
        for (size_t a = 1; a < parsed[i].args.size(); ++a) {
          LabelPath p = Take(LabelPath::Parse(parsed[i].args[a], snaps[i]->labels()), "path");
          if (!space.Contains(p)) Die("probe outside the entry's space");
          paths[i].push_back(p);
        }
      }
    });
    stage("ordering.rank_ns", root, pass, [&] {
      for (size_t i = 0; i < probes.size(); ++i) {
        const Estimator& est = snaps[i]->estimator();
        scratch.Reserve(est.num_labels());
        ranks[i].clear();
        for (const LabelPath& p : paths[i]) ranks[i].push_back(est.Rank(p, scratch));
      }
    });
    stage("core.lookup_ns", root, pass, [&] {
      for (size_t i = 0; i < probes.size(); ++i) {
        const FlatHistogram& flat = snaps[i]->estimator().flat();
        values[i].clear();
        for (uint64_t r : ranks[i]) values[i].push_back(flat.EstimatePoint(r));
      }
    });
    stage("serve.format_ns", root, pass, [&] {
      for (size_t i = 0; i < probes.size(); ++i) {
        responses[i].assign("ok");
        for (double v : values[i]) {
          responses[i] += ' ';
          serve::AppendEstimateValue(&responses[i], v);
        }
        sink += responses[i].size();
      }
    });
    tracer.End(root);
    requests += probes.size();
  }
  for (size_t i = 0; i < probes.size(); ++i) {
    if (responses[i] != probes[i].expected) Die("in-process replay disagrees with the oracle");
  }
  if (sink == 0) Die("empty replay");
  for (auto& [name, ns] : total_ns) ns /= static_cast<double>(requests);
  return total_ns;
}

// --------------------------------------------------------- delta stream

// Seeded batches of edge adds; each batch also removes the edges the
// previous batch added, so the graph keeps its size. Adds never touch an
// edge of the base graph.
class DeltaStream {
 public:
  DeltaStream(const Graph& base, uint64_t seed, size_t batch)
      : base_(base), rng_(seed), batch_(batch) {}

  std::vector<maint::EdgeDelta> Next() {
    std::vector<maint::EdgeDelta> deltas;
    for (const auto& [src, dst, label] : outstanding_) {
      deltas.push_back({false, src, dst, label});
    }
    Edges added;
    while (added.size() < batch_) {
      const auto src = static_cast<VertexId>(rng_.NextBounded(base_.num_vertices()));
      const auto dst = static_cast<VertexId>(rng_.NextBounded(base_.num_vertices()));
      const auto label = static_cast<LabelId>(rng_.NextBounded(base_.num_labels()));
      const auto out = base_.OutNeighbors(src, label);
      if (std::binary_search(out.begin(), out.end(), dst)) continue;
      if (outstanding_.count({src, dst, label})) continue;
      if (added.insert({src, dst, label}).second) deltas.push_back({true, src, dst, label});
    }
    outstanding_ = std::move(added);
    return deltas;
  }

 private:
  using Edges = std::set<std::tuple<VertexId, VertexId, LabelId>>;

  const Graph& base_;
  Rng rng_;
  size_t batch_;
  Edges outstanding_;
};

// ---------------------------------------------------------------- client

struct ConnectionResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> rtt_us;        // successful requests, in order
  std::vector<int64_t> start_ns;     // matching send times
  std::vector<uint32_t> num_paths;   // matching paths per request
  std::vector<std::string> errors;   // first few failure descriptions
};

void NoteFailure(ConnectionResult* r, const std::string& what) {
  ++r->failed;
  if (r->errors.size() < 5) r->errors.push_back(what.substr(0, 300));
}

// One closed-loop connection: sends its probes in turn until `deadline`
// and checks every response against the in-process oracle.
ConnectionResult RunReader(const std::string& socket, const std::vector<Probe>& pool,
                           int64_t deadline) {
  ConnectionResult res;
  auto client = serve::ServeClient::Connect(socket);
  for (uint64_t i = 0; NowNs() < deadline; ++i) {
    ++res.attempted;
    if (!client.ok()) {
      NoteFailure(&res, "connect: " + client.status().ToString());
      client = serve::ServeClient::Connect(socket);
      continue;
    }
    const Probe& probe = pool[i % pool.size()];
    const int64_t t0 = NowNs();
    auto resp = client->Call(probe.line);
    const int64_t t1 = NowNs();
    if (!resp.ok()) {
      // A transport failure is counted, never retried silently; the next
      // request goes out on a fresh connection.
      NoteFailure(&res, "transport: " + resp.status().ToString());
      client = serve::ServeClient::Connect(socket);
      continue;
    }
    // Shed and deadline errors are response lines, so they fail here.
    if (*resp != probe.expected) {
      NoteFailure(&res, "response to '" + probe.line + "': " + *resp);
      continue;
    }
    res.rtt_us.push_back((t1 - t0) / 1e3);
    res.start_ns.push_back(t0);
    res.num_paths.push_back(static_cast<uint32_t>(probe.num_paths));
  }
  return res;
}

int CmdClient(const Args& args) {
  const std::string socket = args.Str("socket");
  const uint64_t seed = args.U64("seed");
  const double seconds = args.F64("seconds");
  const size_t readers = args.U64("readers");
  const uint64_t daemon_pid = args.U64("daemon-pid");
  Tracer tracer(args.U64("trace") != 0);

  // The in-process oracle: the same files, through the daemon's loader.
  const int64_t load0 = NowNs();
  CatalogCache cache;
  serve::SnapshotLoadResult loaded =
      Take(serve::LoadCatalogSnapshots(args.Str("catalog"), 1, &cache), "load catalog");
  const double snapshot_load_ms = MsSince(load0);
  if (!loaded.report.failures.empty() || loaded.snapshots.empty()) Die("catalog has bad entries");
  serve::RegistryState state;
  state.entries = loaded.snapshots;

  std::vector<std::vector<Probe>> pools;
  for (size_t r = 0; r < readers; ++r) {
    pools.push_back(MakeProbes(state, Mix(seed, 100 + r), kRequestPool));
  }

  const double cpu0 = CpuSecondsOf(daemon_pid);
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<ConnectionResult> results(readers);
  std::vector<std::thread> threads;
  for (size_t r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] { results[r] = RunReader(socket, pools[r], deadline); });
  }
  for (std::thread& t : threads) t.join();
  const double daemon_cpu_s = CpuSecondsOf(daemon_pid) - cpu0;

  uint64_t attempted = 0, failed = 0;
  // Paths served in each whole second of the run, over all readers; the
  // median second is the throughput, so one stalled second does not move it.
  std::vector<double> paths_per_second(static_cast<size_t>(seconds));
  std::vector<double> read_us, before_us, after_us;
  std::vector<std::string> errors;
  uint64_t request_id = 0;
  const int64_t half = start + (deadline - start) / 2;
  for (const ConnectionResult& res : results) {
    attempted += res.attempted;
    failed += res.failed;
    errors.insert(errors.end(), res.errors.begin(), res.errors.end());
    for (size_t i = 0; i < res.rtt_us.size(); ++i) {
      const int64_t end_ns = res.start_ns[i] + static_cast<int64_t>(res.rtt_us[i] * 1e3);
      read_us.push_back(res.rtt_us[i]);
      const auto second = static_cast<size_t>((end_ns - start) / 1e9);
      if (second < paths_per_second.size()) paths_per_second[second] += res.num_paths[i];
      // Traced runs turn the second half's requests into spans; the first
      // half is the untraced reference for the tracing overhead.
      if (res.start_ns[i] < half) {
        before_us.push_back(res.rtt_us[i]);
      } else {
        after_us.push_back(res.rtt_us[i]);
        if (++request_id % kRequestSpanEvery == 0) {
          tracer.Add("serve.request_rtt", res.start_ns[i], end_ns, request_id);
        }
      }
    }
  }

  Json layers;
  layers.Num("core.snapshot_load_ms", snapshot_load_ms);
  if (tracer.enabled()) {
    const std::map<std::string, double> stage_ns =
        ReplayInProcess(state, pools[0], tracer, 1.0);
    double in_process_ns = 0;
    for (const auto& [name, ns] : stage_ns) {
      layers.Num(name, ns);
      in_process_ns += ns;
    }
    uint64_t pool_paths = 0;
    for (const Probe& p : pools[0]) pool_paths += p.num_paths;
    layers.Num("serve.in_process_ns", in_process_ns)
        .Num("serve.transport_us", Median(before_us) - in_process_ns / 1e3)
        .Num("serve.paths_per_req", static_cast<double>(pool_paths) / pools[0].size())
        .Num("serve.read_p99_us", Quantile(read_us, 0.99))
        .Num("serve.server_cpu_us_per_req", read_us.empty() ? 0 : daemon_cpu_s * 1e6 / read_us.size())
        .Num("trace.op_p50_ms_traced", Median(after_us) / 1e3)
        .Num("trace.op_p50_ms_untraced", Median(before_us) / 1e3)
        .Int("trace.spans", tracer.size());
    tracer.Write(args.Str("spans", ""));
  }

  Json errs;
  for (size_t i = 0; i < errors.size() && i < 5; ++i) errs.Str(std::to_string(i), errors[i]);
  Json j;
  j.Int("attempted", attempted)
      .Int("failed", failed)
      .Num("daemon_cpu_s", daemon_cpu_s)
      .Obj("read_us", Summary(read_us))
      .Obj("paths_per_second", Summary(paths_per_second))
      .Obj("errors", errs)
      .Obj("self_ms_by_layer", SelfByLayerJson(tracer))
      .Obj("layers", layers);
  std::printf("%s\n", j.Render().c_str());
  return 0;
}

// ----------------------------------------------------------------- maint

int CmdMaint(const Args& args) {
  // Recovery bootstraps <catalog>/maint from the graph; the catalog's
  // entries are rewritten by every refresh.
  const std::string graph_path = args.Str("graph");
  maint::MaintenanceOptions options;
  options.catalog_dir = args.Str("catalog");
  options.graph_path = graph_path;
  maint::OnlineMaintenance maintenance(options);
  Tracer tracer(true);

  int span = tracer.Begin("maint.recover_ms", -1, 0);
  maint::RecoveryReport report;
  Check(maintenance.Recover(&report), "recover");
  tracer.End(span);
  const double recover_ms = tracer.SelfMs()[span];

  Graph base = Take(LoadGraphFile(graph_path, GraphLoadOptions{}), "load base");
  DeltaStream deltas(base, Mix(args.U64("seed"), 200), args.U64("batch"));
  std::vector<double> journal_ms, refresh_ms;
  uint64_t dirty = 0, tasks = 0, touched = 0, roots = 0;
  const int64_t start = NowNs();
  for (uint64_t b = 1; b == 1 || (NowNs() - start) / 1e9 < args.F64("seconds"); ++b) {
    std::vector<maint::EdgeDelta> batch = deltas.Next();
    // The delta stream draws label ids from the base graph file; map them
    // through names onto the maintained dictionary.
    for (maint::EdgeDelta& d : batch) {
      d.label = Take(maintenance.labels().Find(base.labels().Name(d.label)), "label");
    }
    const int root = tracer.Begin("maint.update", -1, b);
    span = tracer.Begin("maint.journal_ms", root, b);
    Take(maintenance.JournalDeltas(batch), "journal");
    tracer.End(span);
    span = tracer.Begin("maint.refresh_ms", root, b);
    maint::RefreshOutcome outcome = Take(maintenance.Refresh(), "refresh");
    tracer.End(span);
    tracer.End(root);
    const std::map<std::string, double> self = tracer.SelfByName(root);
    journal_ms.push_back(self.at("maint.journal_ms"));
    refresh_ms.push_back(self.at("maint.refresh_ms"));
    dirty += outcome.incremental.dirty_tasks;
    tasks += outcome.incremental.total_tasks;
    touched += outcome.incremental.touched_roots;
    roots += outcome.incremental.total_roots;
  }
  tracer.Write(args.Str("spans", ""));

  Json layers;
  layers.Num("maint.recover_ms", recover_ms)
      .Num("maint.journal_ms", Median(journal_ms))
      .Num("maint.refresh_ms", Median(refresh_ms))
      .Num("maint.dirty_task_ratio", tasks ? static_cast<double>(dirty) / tasks : 0)
      .Num("maint.touched_root_ratio", roots ? static_cast<double>(touched) / roots : 0)
      .Int("maint.batches", journal_ms.size());
  std::printf("%s\n", Json()
                          .Obj("self_ms_by_layer", SelfByLayerJson(tracer))
                          .Obj("layers", layers)
                          .Render()
                          .c_str());
  return 0;
}

}  // namespace
}  // namespace pathest

int main(int argc, char** argv) {
  using namespace pathest;
  if (argc < 2) Die("usage: perfbench_harness gen|catalog|build|client|maint --flag value ...");
  const std::string cmd = argv[1];
  const Args args(argc, argv);
  if (cmd == "gen") return CmdGen(args);
  if (cmd == "catalog") return CmdCatalog(args);
  if (cmd == "build") return CmdBuild(args);
  if (cmd == "client") return CmdClient(args);
  if (cmd == "maint") return CmdMaint(args);
  Die("unknown subcommand " + cmd);
}
