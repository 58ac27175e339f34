// pathest: the statistics catalog — the integration surface a database
// engine would actually program against.
//
// A StatisticsCatalog owns path statistics for one graph: it computes the
// exact selectivities once (ANALYZE), builds one estimator per requested
// configuration, serves estimates, tracks data staleness, and persists /
// restores itself. This is the "statistics module" slot of the optimizer
// architecture the paper's introduction targets.

#ifndef PATHEST_CORE_CATALOG_H_
#define PATHEST_CORE_CATALOG_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/path_histogram.h"
#include "core/serialize.h"
#include "graph/graph.h"
#include "path/selectivity.h"
#include "util/status.h"

namespace pathest {

/// \brief One quarantined catalog entry: the file that failed, the binary
/// section implicated (when the loader could localize it; "" otherwise),
/// and the typed error.
struct CatalogLoadFailure {
  std::string path;
  std::string section;
  Status status;
};

/// \brief Builds a CatalogLoadFailure from a loader error, pulling the
/// implicated binary section out of the error message ("section <name>:
/// ..." — the binary loader's self-localizing prefix) when present.
CatalogLoadFailure MakeCatalogLoadFailure(std::string path, Status status);

/// \brief Per-entry detail for a verified catalog entry: its on-disk
/// format and, for binary v2, whether the page-alignment invariants held
/// (always true for a v2 entry that verified — the loader checks every
/// section offset at every tier; false for formats without the invariant).
struct CatalogEntryInfo {
  std::string name;
  std::string format;  // "text" | "binary-v2"
  bool aligned = false;
};

/// \brief Outcome of a degraded-mode catalog load: which entries serve and
/// which were quarantined (and why). A catalog with failures still serves
/// every healthy entry — one corrupt file must not take down the rest.
struct CatalogLoadReport {
  std::vector<std::string> loaded;  // estimator names now registered
  std::vector<CatalogLoadFailure> failures;
  /// Format detail per healthy entry, parallel to `loaded` (filled by
  /// VerifyCatalogDir; load paths that do not sniff leave it empty).
  std::vector<CatalogEntryInfo> entries;

  bool fully_healthy() const { return failures.empty(); }
};

/// \brief Checksum-walks every `*.stats` entry under `dir` (both formats:
/// binary entries verify every section CRC, text entries a full parse)
/// without needing a graph or an analyzed catalog — the integrity audit
/// behind `pathest_cli catalog verify`. NotFound if `dir` does not exist.
Result<CatalogLoadReport> VerifyCatalogDir(const std::string& dir);

/// \brief Sorted `<dir>/*.stats` paths — the one definition of "what is a
/// catalog entry" shared by VerifyCatalogDir, StatisticsCatalog::LoadAll,
/// and the serving reload path (serve/snapshot_registry.h). NotFound when
/// `dir` is not a directory; IOError when it cannot be walked.
Result<std::vector<std::string>> ListCatalogEntryPaths(const std::string& dir);

/// \brief Renders a CatalogLoadReport as one line of JSON — the single
/// machine-readable integrity report consumed by `pathest_cli catalog
/// verify --json`, the serve daemon's `stats` response, and external
/// tooling. Shape:
///   {"dir":..., "ok":N, "corrupt":M, "fully_healthy":bool,
///    "loaded":[name...],
///    "entries":[{"name":...,"format":...,"aligned":bool}...],
///    "failures":[{"path":...,"section":...,"code":...,"error":...}...]}
std::string CatalogLoadReportToJson(const CatalogLoadReport& report,
                                    const std::string& dir);

/// \brief Escapes `s` for embedding inside a JSON string literal (quotes,
/// backslashes, control characters).
std::string JsonEscape(const std::string& s);

/// \brief Configuration of one catalog entry.
struct CatalogEntryConfig {
  /// Ordering method name (MakeOrdering names).
  std::string ordering = "sum-based";
  HistogramType histogram_type = HistogramType::kVOptimal;
  size_t num_buckets = 256;
};

/// \brief Path-statistics catalog for a single graph.
class StatisticsCatalog {
 public:
  /// \brief Runs ANALYZE: computes exact selectivities up to `k` and
  /// remembers the graph's label statistics. The graph must outlive the
  /// catalog.
  static Result<StatisticsCatalog> Analyze(
      const Graph& graph, size_t k,
      const SelectivityOptions& options = SelectivityOptions{});

  /// \brief Builds (or replaces) the estimator for `name`.
  Status BuildEstimator(const std::string& name,
                        const CatalogEntryConfig& config);

  /// \brief The estimator registered under `name`; NotFound otherwise.
  Result<const PathHistogram*> GetEstimator(const std::string& name) const;

  /// \brief Estimate via a registered estimator.
  Result<double> Estimate(const std::string& name,
                          const LabelPath& path) const;

  /// \brief Exact selectivity from the ANALYZE pass (for validation).
  uint64_t ExactSelectivity(const LabelPath& path) const;

  /// \brief Names of all registered estimators, sorted.
  std::vector<std::string> EstimatorNames() const;

  /// \brief Records data-change events (edge insertions/deletions) since
  /// ANALYZE; drives staleness reporting.
  void RecordDataChanges(uint64_t num_changes);

  /// \brief Fraction of changed edges since ANALYZE: changes / |E|.
  /// An engine would re-ANALYZE past a threshold (e.g. 0.1).
  double Staleness() const;

  /// \brief True when staleness exceeds `threshold`.
  bool NeedsRefresh(double threshold = 0.1) const {
    return Staleness() > threshold;
  }

  /// \brief The ANALYZE-time selectivities.
  const SelectivityMap& selectivities() const { return *selectivities_; }

  size_t k() const { return selectivities_->space().k(); }

  /// \brief Persists every serializable estimator to `<dir>/<name>.stats`
  /// in `format`, each through an atomic temp+fsync+rename write
  /// (util/safe_io.h): a crash or failure mid-save leaves every previously
  /// existing entry byte-identical. Non-serializable entries
  /// (ideal/random/sum-L2) are skipped and reported in `skipped`.
  Status SaveAll(const std::string& dir,
                 std::vector<std::string>* skipped = nullptr,
                 CatalogFormat format = CatalogFormat::kText) const;

  /// \brief Restores persisted estimators from `<dir>/*.stats` (either
  /// format, sniffed) with graceful degradation: a corrupt or unreadable
  /// entry is quarantined into `report->failures` (path, section, error)
  /// and the remaining entries still load and serve. Entries register
  /// under their file stem, replacing same-named estimators. Returns
  /// non-OK only when the directory itself is unreadable — per-entry
  /// corruption is a report, not an abort.
  Status LoadAll(const std::string& dir,
                 CatalogLoadReport* report = nullptr);

 private:
  StatisticsCatalog(const Graph* graph,
                    std::unique_ptr<SelectivityMap> selectivities);

  const Graph* graph_;
  std::unique_ptr<SelectivityMap> selectivities_;
  std::map<std::string, std::unique_ptr<PathHistogram>> estimators_;
  uint64_t analyzed_edges_ = 0;
  uint64_t data_changes_ = 0;
};

}  // namespace pathest

#endif  // PATHEST_CORE_CATALOG_H_
