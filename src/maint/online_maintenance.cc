#include "maint/online_maintenance.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <utility>

#include "core/catalog.h"
#include "graph/graph_io.h"
#include "ordering/factory.h"
#include "util/crc32c.h"

namespace pathest {
namespace maint {

namespace {

// base.map: magic | u32 L | u32 k | u32 masked CRC of the base.graph bytes
// it was computed from | u64 value count | values | u32 masked CRC of all
// preceding bytes. The graph CRC is the consistency stamp: a crash between
// the base.graph and base.map steps of a compaction leaves a stamp that no
// longer matches the graph file, which recovery treats as "no usable base
// map" and rebuilds from scratch.
constexpr char kBaseMapMagic[8] = {'\x89', 'P', 'E', 'S', 'T', 'M', '1',
                                   '\x0A'};

Status EnsureDir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) {
    return Status::OK();
  }
  return Status::IOError("mkdir '" + path + "': " + std::strerror(errno));
}

// File stem of a catalog entry path: ".../name.stats" -> "name".
std::string EntryNameFromPath(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  std::string stem =
      slash == std::string::npos ? path : path.substr(slash + 1);
  const size_t dot = stem.find_last_of('.');
  if (dot != std::string::npos) stem.resize(dot);
  return stem;
}

std::vector<DeltaRecord> RecordsFromDeltas(
    const std::vector<EdgeDelta>& deltas) {
  std::vector<DeltaRecord> records;
  records.reserve(deltas.size());
  for (const EdgeDelta& d : deltas) {
    records.push_back(d.add ? DeltaRecord::AddEdge(d.src, d.dst, d.label)
                            : DeltaRecord::RemoveEdge(d.src, d.dst, d.label));
  }
  return records;
}

}  // namespace

SelectivityMap ShrinkMapToK(const SelectivityMap& map, size_t new_k) {
  PATHEST_CHECK(new_k <= map.space().k(),
                "ShrinkMapToK target exceeds source depth");
  SelectivityMap out(PathSpace(map.space().num_labels(), new_k));
  // Canonical layout nests spaces: LengthOffset is k-independent, so the
  // smaller space's entries are exactly the first size() values.
  const uint64_t n = out.space().size();
  const std::vector<uint64_t>& src = map.values();
  for (uint64_t i = 0; i < n; ++i) out.SetByCanonicalIndex(i, src[i]);
  return out;
}

OnlineMaintenance::OnlineMaintenance(MaintenanceOptions options)
    : options_(std::move(options)) {}

Status OnlineMaintenance::DiscoverEntries() {
  auto paths = ListCatalogEntryPaths(options_.catalog_dir);
  PATHEST_RETURN_NOT_OK(paths.status());
  for (const std::string& path : *paths) {
    auto loaded = LoadPathHistogram(path);
    if (!loaded.ok()) continue;  // unhealthy entries stay serve's concern
    EntryConfig config;
    config.name = EntryNameFromPath(path);
    config.ordering = loaded->estimator.ordering().name();
    config.histogram_type = loaded->estimator.histogram_type();
    config.num_buckets = loaded->estimator.histogram().num_buckets();
    config.k = loaded->estimator.ordering().space().k();
    entries_.push_back(std::move(config));
  }
  return Status::OK();
}

Status OnlineMaintenance::LoadOrBootstrapBaseGraph(
    std::unique_ptr<Graph>* base_graph) {
  std::string text;
  Status read = ReadFileToString(BaseGraphPath(), &text);
  if (!read.ok()) {
    // First run: canonicalize the bootstrap graph through WriteGraphText
    // and persist it, so the bytes on disk, their CRC stamp, and the
    // in-memory graph all describe the same edge list.
    if (options_.graph_path.empty()) {
      return Status::InvalidArgument(
          "no base graph at '" + BaseGraphPath() +
          "' and MaintenanceOptions.graph_path is empty");
    }
    GraphLoadOptions load;
    load.num_threads = options_.selectivity.num_threads;
    auto loaded = LoadGraphFile(options_.graph_path, load);
    PATHEST_RETURN_NOT_OK(loaded.status());
    std::ostringstream canonical;
    PATHEST_RETURN_NOT_OK(WriteGraphText(*loaded, &canonical));
    text = std::move(canonical).str();
    PATHEST_RETURN_NOT_OK(AtomicWriteFile(BaseGraphPath(), text));
  }
  base_graph_crc_ = Crc32c(text.data(), text.size());
  std::istringstream in(text);
  GraphLoadOptions load;
  load.num_threads = options_.selectivity.num_threads;
  auto graph = ReadGraphText(&in, load);
  if (!graph.ok()) {
    return Status::IOError("base graph '" + BaseGraphPath() +
                           "' unreadable: " + graph.status().message());
  }
  *base_graph = std::make_unique<Graph>(std::move(*graph));
  return Status::OK();
}

Status OnlineMaintenance::SaveBaseMap(const SelectivityMap& map) {
  std::string bytes(kBaseMapMagic, sizeof(kBaseMapMagic));
  AppendU32(&bytes, static_cast<uint32_t>(map.space().num_labels()));
  AppendU32(&bytes, static_cast<uint32_t>(map.space().k()));
  AppendU32(&bytes, Crc32cMask(base_graph_crc_));
  AppendU64(&bytes, map.space().size());
  for (uint64_t v : map.values()) AppendU64(&bytes, v);
  AppendU32(&bytes, Crc32cMask(Crc32c(bytes.data(), bytes.size())));
  return AtomicWriteFile(BaseMapPath(), bytes);
}

Result<SelectivityMap> OnlineMaintenance::LoadBaseMap() {
  std::string bytes;
  PATHEST_RETURN_NOT_OK(ReadFileToString(BaseMapPath(), &bytes));
  constexpr size_t kHeader = sizeof(kBaseMapMagic) + 4 + 4 + 4 + 8;
  if (bytes.size() < kHeader + 4 ||
      std::memcmp(bytes.data(), kBaseMapMagic, sizeof(kBaseMapMagic)) != 0) {
    return Status::IOError("'" + BaseMapPath() +
                           "' is not a base selectivity map");
  }
  BoundedReader trailer(
      std::string_view(bytes.data() + bytes.size() - 4, 4));
  uint32_t masked_file_crc = 0;
  PATHEST_RETURN_NOT_OK(trailer.ReadU32(&masked_file_crc, "file crc"));
  if (Crc32cUnmask(masked_file_crc) !=
      Crc32c(bytes.data(), bytes.size() - 4)) {
    return Status::IOError("'" + BaseMapPath() + "' failed its checksum");
  }
  BoundedReader reader(std::string_view(bytes.data() + sizeof(kBaseMapMagic),
                                        bytes.size() - sizeof(kBaseMapMagic) -
                                            4));
  uint32_t num_labels = 0, k = 0, masked_graph_crc = 0;
  uint64_t count = 0;
  PATHEST_RETURN_NOT_OK(reader.ReadU32(&num_labels, "label count"));
  PATHEST_RETURN_NOT_OK(reader.ReadU32(&k, "path depth"));
  PATHEST_RETURN_NOT_OK(reader.ReadU32(&masked_graph_crc, "graph crc"));
  PATHEST_RETURN_NOT_OK(reader.ReadU64(&count, "value count"));
  if (Crc32cUnmask(masked_graph_crc) != base_graph_crc_) {
    return Status::IOError(
        "'" + BaseMapPath() +
        "' was computed from a different base graph (stale compaction)");
  }
  if (num_labels != graph_->num_labels() || k != k_) {
    return Status::IOError("'" + BaseMapPath() + "' has dimensions (" +
                           std::to_string(num_labels) + ", " +
                           std::to_string(k) + "), expected (" +
                           std::to_string(graph_->num_labels()) + ", " +
                           std::to_string(k_) + ")");
  }
  SelectivityMap map(PathSpace(num_labels, k));
  if (count != map.space().size()) {
    return Status::IOError("'" + BaseMapPath() + "' value count mismatch");
  }
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t v = 0;
    PATHEST_RETURN_NOT_OK(reader.ReadU64(&v, "selectivity value"));
    map.SetByCanonicalIndex(i, v);
  }
  if (!reader.AtEnd()) {
    return Status::IOError("'" + BaseMapPath() + "' has trailing bytes");
  }
  return map;
}

Status OnlineMaintenance::Recover(RecoveryReport* report) {
  PATHEST_CHECK(!recovered_, "Recover called twice");
  *report = RecoveryReport{};
  PATHEST_RETURN_NOT_OK(EnsureDir(MaintDir()));
  PATHEST_RETURN_NOT_OK(DiscoverEntries());

  k_ = options_.k;
  for (const EntryConfig& e : entries_) k_ = std::max(k_, e.k);
  if (k_ == 0) {
    return Status::InvalidArgument(
        "maintenance depth unknown: no loadable catalog entries and "
        "MaintenanceOptions.k == 0");
  }

  std::unique_ptr<Graph> base_graph;
  PATHEST_RETURN_NOT_OK(LoadOrBootstrapBaseGraph(&base_graph));
  graph_ = std::move(base_graph);  // LoadBaseMap checks dims against graph_

  SelectivityMap base_map{PathSpace(1, 1)};  // placeholder, assigned below
  {
    auto loaded = LoadBaseMap();
    if (loaded.ok()) {
      base_map = std::move(*loaded);
    } else {
      report->bootstrapped_base = true;
      report->detail = "base map rebuilt: " + loaded.status().message();
      auto built = ComputeSelectivities(*graph_, k_, options_.selectivity);
      PATHEST_RETURN_NOT_OK(built.status());
      base_map = std::move(*built);
      PATHEST_RETURN_NOT_OK(SaveBaseMap(base_map));
    }
  }

  // Journal: recover (amputating a torn tail), or quarantine it on hard
  // corruption and serve the base state.
  std::vector<DeltaRecord> records;
  auto quarantine_now = [&](const std::string& why) -> Status {
    const std::string aside = JournalPath() + ".quarantine";
    if (std::rename(JournalPath().c_str(), aside.c_str()) != 0) {
      return Status::IOError("quarantine rename '" + JournalPath() +
                             "': " + std::strerror(errno));
    }
    report->quarantined = true;
    report->quarantine_path = aside;
    report->detail = why;
    records.clear();
    return Status::OK();
  };
  auto recovered_scan = RecoverDeltaJournal(JournalPath());
  if (recovered_scan.ok()) {
    records = std::move(recovered_scan->records);
    report->torn_tail_truncated = recovered_scan->torn_tail;
    report->torn_bytes = recovered_scan->tail_bytes;
  } else if (recovered_scan.status().code() != StatusCode::kNotFound) {
    PATHEST_RETURN_NOT_OK(quarantine_now(recovered_scan.status().message()));
  }

  for (const DeltaRecord& rec : records) {
    epoch_ = std::max(epoch_, rec.epoch);
  }

  // Replay. A journal that recovers but will not apply (a record naming an
  // unknown label, a rebuild blowing the pair guard) quarantines the same
  // way hard corruption does; the base state keeps serving.
  const std::vector<EdgeDelta> deltas = EdgeDeltasFromRecords(records);
  bool applied_deltas = false;
  if (!deltas.empty()) {
    Status replay = [&]() -> Status {
      auto patched =
          PatchGraph(*graph_, deltas, options_.selectivity.num_threads);
      PATHEST_RETURN_NOT_OK(patched.status());
      auto new_map = IncrementalSelectivities(*patched, base_map, deltas,
                                              options_.selectivity);
      PATHEST_RETURN_NOT_OK(new_map.status());
      graph_ = std::make_unique<Graph>(std::move(*patched));
      map_ = std::make_unique<SelectivityMap>(std::move(*new_map));
      return Status::OK();
    }();
    if (replay.ok()) {
      applied_deltas = true;
      report->replayed_records = records.size();
      report->replayed_edges = deltas.size();
    } else {
      PATHEST_RETURN_NOT_OK(
          quarantine_now("journal replay failed: " + replay.message()));
    }
  }
  if (!applied_deltas) {
    map_ = std::make_unique<SelectivityMap>(std::move(base_map));
    report->replayed_records = records.size();  // barriers / markers only
  }

  if (report->quarantined) {
    PATHEST_RETURN_NOT_OK(ResetDeltaJournal(JournalPath(), epoch_));
    records.clear();
  }
  PATHEST_RETURN_NOT_OK(writer_.Open(JournalPath()));
  journal_records_ = report->quarantined ? 1 : records.size();

  labels_ = graph_->labels();
  recovered_ = true;

  // Re-persist the entries whenever the recovered statistics can differ
  // from what is on disk (deltas replayed, base rebuilt, or a journal
  // quarantined whose pre-crash refreshes had already been persisted).
  if (applied_deltas || report->bootstrapped_base || report->quarantined) {
    std::vector<std::string> refreshed;
    PATHEST_RETURN_NOT_OK(PersistEntriesFor(*graph_, *map_, &refreshed));
  }
  return Status::OK();
}

Result<uint64_t> OnlineMaintenance::JournalDeltas(
    const std::vector<EdgeDelta>& deltas) {
  PATHEST_CHECK(recovered_, "JournalDeltas before Recover");
  for (const EdgeDelta& d : deltas) {
    if (d.label >= labels_.size()) {
      return Status::InvalidArgument(
          "delta label id " + std::to_string(d.label) +
          " outside the dictionary (new labels need a full rebuild)");
    }
  }
  std::lock_guard<std::mutex> lock(journal_mu_);
  if (deltas.empty()) return journaled_ticket_;
  PATHEST_RETURN_NOT_OK(writer_.AppendBatch(RecordsFromDeltas(deltas)));
  // Durable past this point: the batch may be acknowledged even if the
  // process dies before the next Refresh — restart replays it.
  pending_.insert(pending_.end(), deltas.begin(), deltas.end());
  journal_records_ += deltas.size();
  journaled_ticket_ += deltas.size();
  return journaled_ticket_;
}

size_t OnlineMaintenance::pending_count() const {
  std::lock_guard<std::mutex> lock(journal_mu_);
  return pending_.size();
}

Result<RefreshOutcome> OnlineMaintenance::Refresh() {
  PATHEST_CHECK(recovered_, "Refresh before Recover");
  std::vector<EdgeDelta> batch;
  {
    std::lock_guard<std::mutex> lock(journal_mu_);
    batch.swap(pending_);
  }
  RefreshOutcome outcome;
  outcome.epoch = epoch_;
  if (batch.empty()) return outcome;

  // Any failure below restores the batch to the FRONT of the pending queue
  // (later deltas may have arrived meanwhile) and leaves the served state
  // untouched; the records stay in the journal either way.
  auto restore = [&]() {
    std::lock_guard<std::mutex> lock(journal_mu_);
    pending_.insert(pending_.begin(), batch.begin(), batch.end());
  };

  auto patched = PatchGraph(*graph_, batch, options_.selectivity.num_threads);
  if (!patched.ok()) {
    restore();
    return patched.status();
  }
  auto new_map = IncrementalSelectivities(*patched, *map_, batch,
                                          options_.selectivity,
                                          &outcome.incremental);
  if (!new_map.ok()) {
    restore();
    return new_map.status();
  }
  Status persisted =
      PersistEntriesFor(*patched, *new_map, &outcome.refreshed_entries);
  if (!persisted.ok()) {
    restore();
    return persisted;
  }

  graph_ = std::make_unique<Graph>(std::move(*patched));
  map_ = std::make_unique<SelectivityMap>(std::move(*new_map));
  epoch_ += 1;
  outcome.epoch = epoch_;
  outcome.applied_edges = batch.size();
  applied_ticket_.fetch_add(batch.size(), std::memory_order_release);
  {
    // Observability only — replay does not depend on barriers, so a
    // failed barrier append degrades to a missing marker, not a failed
    // refresh.
    std::lock_guard<std::mutex> lock(journal_mu_);
    if (writer_.Append(DeltaRecord::Barrier(epoch_)).ok()) {
      journal_records_ += 1;
    }
  }

  uint64_t records_now;
  {
    std::lock_guard<std::mutex> lock(journal_mu_);
    records_now = journal_records_;
  }
  if (options_.compact_every_records > 0 &&
      records_now >= options_.compact_every_records) {
    PATHEST_RETURN_NOT_OK(Compact());
    outcome.compacted = true;
  }
  return outcome;
}

Status OnlineMaintenance::RebaseAndResetJournal() {
  std::ostringstream canonical;
  PATHEST_RETURN_NOT_OK(WriteGraphText(*graph_, &canonical));
  const std::string text = std::move(canonical).str();
  PATHEST_RETURN_NOT_OK(AtomicWriteFile(BaseGraphPath(), text));
  base_graph_crc_ = Crc32c(text.data(), text.size());
  PATHEST_RETURN_NOT_OK(SaveBaseMap(*map_));

  std::lock_guard<std::mutex> lock(journal_mu_);
  writer_.Close();
  PATHEST_RETURN_NOT_OK(ResetDeltaJournal(JournalPath(), epoch_));
  PATHEST_RETURN_NOT_OK(writer_.Open(JournalPath()));
  journal_records_ = 1;  // the compaction marker
  if (!pending_.empty()) {
    // Deltas journaled during the compaction (acknowledged, not yet
    // applied) must survive the reset: re-journal them into the fresh
    // file before anything else lands.
    PATHEST_RETURN_NOT_OK(writer_.AppendBatch(RecordsFromDeltas(pending_)));
    journal_records_ += pending_.size();
  }
  return Status::OK();
}

Status OnlineMaintenance::Compact() {
  PATHEST_CHECK(recovered_, "Compact before Recover");
  return RebaseAndResetJournal();
}

Result<std::string> OnlineMaintenance::QuarantineJournal(
    const std::string& reason) {
  PATHEST_CHECK(recovered_, "QuarantineJournal before Recover");
  (void)reason;  // callers log it; the journal content speaks for itself
  const std::string aside = JournalPath() + ".quarantine";
  {
    std::lock_guard<std::mutex> lock(journal_mu_);
    writer_.Close();
    if (std::rename(JournalPath().c_str(), aside.c_str()) != 0) {
      return Status::IOError("quarantine rename '" + JournalPath() +
                             "': " + std::strerror(errno));
    }
    pending_.clear();
    // Every journaled ticket is now RESOLVED (applied earlier, or dropped
    // just now) — without this, waiters on dropped batches and every
    // later ticket would lag behind forever.
    applied_ticket_.store(journaled_ticket_, std::memory_order_release);
  }
  // Rebase so a restart recovers exactly the state we keep serving —
  // quarantine loses the journal's pending records, never applied ones.
  PATHEST_RETURN_NOT_OK(RebaseAndResetJournal());
  return aside;
}

Status OnlineMaintenance::PersistEntriesFor(
    const Graph& graph, const SelectivityMap& map,
    std::vector<std::string>* refreshed) {
  for (const EntryConfig& entry : entries_) {
    const SelectivityMap* source = &map;
    SelectivityMap shrunk{PathSpace(1, 1)};  // placeholder, assigned below
    if (entry.k < map.space().k()) {
      shrunk = ShrinkMapToK(map, entry.k);
      source = &shrunk;
    }
    auto ordering =
        MakeOrderingWithSelectivities(entry.ordering, graph, entry.k, *source);
    PATHEST_RETURN_NOT_OK(ordering.status());
    auto estimator = PathHistogram::Build(*source, std::move(*ordering),
                                          entry.histogram_type,
                                          entry.num_buckets);
    PATHEST_RETURN_NOT_OK(estimator.status());
    // Always the serving format: a re-persisted entry keeps mapping
    // zero-copy whatever format it was first written in.
    PATHEST_RETURN_NOT_OK(SavePathHistogram(
        *estimator, graph, options_.catalog_dir + "/" + entry.name + ".stats",
        CatalogFormat::kBinaryV2));
    if (refreshed != nullptr) refreshed->push_back(entry.name);
  }
  return Status::OK();
}

}  // namespace maint
}  // namespace pathest
