#include "serve/snapshot_registry.h"

#include <filesystem>
#include <utility>

namespace pathest {
namespace serve {

namespace {

// Every entry becomes one MappedCatalogEntry. A v2 file maps through the
// cache: an unchanged file re-pins its cached mapping, a changed one is
// mapped and admission-verified. A text entry is parsed, encoded to v2,
// and its buffer opened through the same fixup.
Result<std::shared_ptr<const MappedCatalogEntry>> OpenEntry(
    const std::string& path, CatalogCache* mmap_cache) {
  auto format = SniffCatalogFormat(path);
  if (!format.ok()) return format.status();
  if (*format == CatalogFormat::kBinaryV2) return mmap_cache->GetOrOpen(path);
  auto loaded = LoadPathHistogram(path);
  if (!loaded.ok()) return loaded.status();
  std::string bytes;
  PATHEST_RETURN_NOT_OK(WritePathHistogramBinaryV2(
      loaded->estimator, loaded->labels, loaded->label_cardinalities,
      &bytes));
  return MappedCatalogEntry::FromBuffer(std::move(bytes),
                                        CatalogVerify::kChecksums);
}

}  // namespace

Result<SnapshotLoadResult> LoadCatalogSnapshots(const std::string& dir,
                                                uint64_t version,
                                                CatalogCache* mmap_cache) {
  auto entries = ListCatalogEntryPaths(dir);
  if (!entries.ok()) return entries.status();
  SnapshotLoadResult result;
  for (const std::string& path : *entries) {
    const std::string name = std::filesystem::path(path).stem().string();
    auto entry = OpenEntry(path, mmap_cache);
    if (!entry.ok()) {
      // Quarantine: the failure is recorded (path + implicated section +
      // typed error) and the remaining entries still become snapshots.
      result.report.failures.push_back(
          MakeCatalogLoadFailure(path, entry.status()));
      continue;
    }
    result.snapshots[name] = std::make_shared<const ServingSnapshot>(
        name, std::move(*entry), version);
    result.report.loaded.push_back(name);
  }
  return result;
}

}  // namespace serve
}  // namespace pathest
